"""Wake/sleep scheduling arithmetic and activation processes.

Time quantities are expressed in abstract units where one hop costs
d_mean in flight plus t_c to process, so a full sweep over L layers costs
L * (d_mean + t_c). The engine maps that slot onto one integer tick.

Two activation processes are provided for the matrix backend: a
deterministic alternating toggle (every node flips each step, period 2)
and a two-state birth-death chain (sleep wakes with probability p, wake
sleeps with probability q), whose stationary active fraction is
p / (p + q).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite

import numpy as np

from .errors import ConfigError


#: uniform draws activation_sequence holds at once (2 MiB of float64)
_DRAW_CELLS = 1 << 18


class ActivationMode(str, Enum):
    ALTERNATING = "alternating"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class DutyCycleParams:
    d_mean: float = 1.0   # mean per-hop delay
    d_var: float = 0.0    # delay variance; scales the beacon period
    t_c: float = 1.0      # per-hop compute/processing time
    p: float = 0.0        # sleep -> wake probability (stochastic mode)
    q: float = 0.0        # wake -> sleep probability (stochastic mode)
    mode: ActivationMode = ActivationMode.ALTERNATING

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ActivationMode):
            object.__setattr__(self, "mode", ActivationMode(self.mode))
        for name, val in (("d_mean", self.d_mean), ("d_var", self.d_var), ("t_c", self.t_c)):
            if not isfinite(val):
                raise ConfigError(f"{name} must be finite, got {val}")
        if self.d_mean < 0:
            raise ConfigError(f"d_mean must be >= 0, got {self.d_mean}")
        if self.d_var < 0:
            raise ConfigError(f"d_var must be >= 0, got {self.d_var}")
        if self.t_c <= 0:
            raise ConfigError(f"t_c must be > 0, got {self.t_c}")
        for name, val in (("p", self.p), ("q", self.q)):
            if not (0.0 <= val <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {val}")
        if self.mode is ActivationMode.STOCHASTIC and self.p + self.q == 0.0:
            raise ConfigError("stochastic mode needs p + q > 0")

    def slot(self) -> float:
        """Duration of one hop slot: flight plus processing."""
        return self.d_mean + self.t_c


def beacon_period(layer_count: int, d_mean: float, t_c: float, d_var: float) -> float:
    """Interval between anchor beacons.

    Nominally L * (d_mean + t_c) * d_var, so higher delay variance spaces
    beacons out. When d_var < 1 that formula would re-beacon before a
    sweep can finish, so the period is floored at one full sweep.
    """
    if layer_count < 1:
        raise ValueError(f"layer_count must be >= 1, got {layer_count}")
    if d_mean < 0 or t_c <= 0 or d_var < 0:
        raise ValueError("need d_mean >= 0, t_c > 0, d_var >= 0")
    sweep = layer_count * (d_mean + t_c)
    return max(sweep, sweep * d_var)


def activation_sequence(params: DutyCycleParams, n: int, steps: int,
                        seed: int | None = None,
                        phi0: np.ndarray | None = None) -> np.ndarray:
    """Materialize (steps, n) activation rows, starting from phi0 (all
    asleep by default). Alternating mode toggles every node each step
    (exact period 2). Stochastic mode runs the birth-death chain on one
    rng.random(n) per step, taken in blocks of steps."""
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    phi = np.zeros(n, dtype=np.uint8) if phi0 is None else np.asarray(phi0)
    if phi.shape != (n,) or not np.isin(phi, (0, 1)).all():
        raise ConfigError(f"phi0 must be a 0/1 vector of {n} entries")
    phi = phi.astype(np.uint8)
    rows = np.empty((steps, n), dtype=np.uint8)
    if params.mode is ActivationMode.ALTERNATING:
        rows[0::2] = 1 - phi
        rows[1::2] = phi
        return rows
    rng = np.random.default_rng(seed)
    awake = phi.astype(bool)
    block = max(1, _DRAW_CELLS // max(n, 1))
    for b in range(0, steps, block):
        u = rng.random((min(block, steps - b), n))
        wake, stay = u < params.p, u >= params.q
        for k in range(u.shape[0]):
            awake = np.where(awake, stay[k], wake[k])
            rows[b + k] = awake
    return rows


def stationary_active_fraction(params: DutyCycleParams) -> float:
    """Long-run awake fraction of the stochastic chain: p / (p + q)."""
    if params.mode is not ActivationMode.STOCHASTIC:
        raise ConfigError("stationary fraction is defined for stochastic mode only")
    if params.p + params.q == 0.0:
        raise ConfigError("stationary fraction needs p + q > 0")
    return params.p / (params.p + params.q)
