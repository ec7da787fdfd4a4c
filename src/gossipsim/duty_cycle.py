"""Wake/sleep activation process for the matrix backend.

Each node runs a two-state Markov chain: a sleeping node wakes with
probability p, an awake one falls asleep with probability q, so its
stationary active fraction is p / (p + q). The default p = q = 1 is the
deterministic alternating toggle: every node flips each step (period 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import ConfigError


@dataclass(frozen=True)
class DutyCycleParams:
    p: float = 1.0        # sleep -> wake probability
    q: float = 1.0        # wake -> sleep probability

    def __post_init__(self) -> None:
        for name, val in (("p", self.p), ("q", self.q)):
            if not (0.0 <= val <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {val}")
        if self.p + self.q == 0.0:
            raise ConfigError("the wake/sleep chain needs p + q > 0")


def activation_sequence(params: DutyCycleParams, n: int, steps: int,
                        seed: int | None = None) -> np.ndarray:
    """Materialize (steps, n) activation rows, starting with every node
    asleep, by running the wake/sleep chain on one rng.random(n) per step,
    taken in blocks of about analysis._BLOCK_CELLS draws."""
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    rows = np.empty((steps, n), dtype=np.uint8)
    rng = np.random.default_rng(seed)
    awake = np.zeros(n, dtype=bool)
    block = max(1, analysis._BLOCK_CELLS // max(n, 1))
    for b in range(0, steps, block):
        u = rng.random((min(block, steps - b), n))
        wake, stay = u < params.p, u >= params.q
        for k in range(u.shape[0]):
            awake = np.where(awake, stay[k], wake[k])
            rows[b + k] = awake
    return rows
