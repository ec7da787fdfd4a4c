"""Update rule selection for the averaging step.

The rule decides what a node does with the neighbor states it collected
during a poll round. It is a run parameter rather than a hard-coded
behavior because the variants have visibly different conservation and
convergence properties, and comparing them is half the point of the
simulator.

Each poll rule is written down here twice and nowhere else: as the
scalar UpdateRule.fold an initiator applies, and as single_active_matrix,
the state matrix of one node's update. Every backend calls one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .graph import Graph


class RuleVariant(str, Enum):
    # Node and its polled neighbors all adopt the common average of the
    # set {i} union n_i. Conserves the global sum exactly.
    NEIGHBORHOOD_SET = "neighborhood_set"
    # Node replaces its own state with the plain neighbor average and
    # nobody else moves. Not sum-conserving.
    PURE_NEIGHBOR = "pure_neighbor"
    # Node adds the neighbor average on top of its current state. Kept
    # for fidelity with the literal per-node recursion it models; it
    # diverges and is only useful for studying that defect.
    SELF_ADDITIVE = "self_additive"
    # Classic randomized two-node exchange used as the energy baseline.
    PAIRWISE_BASELINE = "pairwise_baseline"


@dataclass(frozen=True)
class UpdateRule:
    """Rule variant plus the mixing weight used by the pairwise baseline.

    alpha is the fraction of the neighbor's state adopted in a pairwise
    exchange; 0.5 is the midpoint swap. It is ignored by the other
    variants.
    """

    variant: RuleVariant = RuleVariant.NEIGHBORHOOD_SET
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.variant, RuleVariant):
            object.__setattr__(self, "variant", RuleVariant(self.variant))
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")

    @classmethod
    def parse(cls, variant: str, alpha: float = 0.5) -> "UpdateRule":
        try:
            v = RuleVariant(variant)
        except ValueError:
            names = ", ".join(r.value for r in RuleVariant)
            raise ConfigError(f"unknown rule variant {variant!r}; expected one of {names}")
        return cls(variant=v, alpha=alpha)

    def fold(self, own: float, polled: Sequence[float]) -> float:
        """Value an initiator with state own adopts from the states it polled.

        fsum is correctly rounded, so the result does not depend on the
        order of polled; that is what lets the backends agree bit for bit.
        """
        if self.variant is RuleVariant.NEIGHBORHOOD_SET:
            return fsum([*polled, own]) / (len(polled) + 1)
        if self.variant is RuleVariant.PURE_NEIGHBOR:
            return fsum(polled) / len(polled)
        if self.variant is RuleVariant.SELF_ADDITIVE:
            return fsum(polled) / len(polled) + own
        raise ConfigError(f"rule {self.variant.value} is not a poll-round rule")


def single_active_matrix(g: Graph, i: int, rule: UpdateRule) -> np.ndarray:
    """Effective full-state matrix when only node i runs one update.

    Inactive rows hold their value (identity), which is what the engine
    does; the neighborhood-set variant also rewrites the polled
    neighbors' rows with the common average.
    """
    n = g.node_count
    nbrs = np.flatnonzero(g.adjacency[:, i])
    if len(nbrs) == 0:
        raise ValueError(f"node {i} has no in-neighbors")
    w = np.eye(n)
    if rule.variant is RuleVariant.NEIGHBORHOOD_SET:
        s = np.append(nbrs, i)
        w[np.ix_(s, s)] = 1.0 / len(s)
        mask = np.ones(n, dtype=bool)
        mask[s] = False
        for r in s:
            w[r, mask] = 0.0
    elif rule.variant is RuleVariant.PURE_NEIGHBOR:
        w[i, :] = 0.0
        w[i, nbrs] = 1.0 / len(nbrs)
    elif rule.variant is RuleVariant.SELF_ADDITIVE:
        w[i, nbrs] = 1.0 / len(nbrs)
    else:
        raise ValueError("pairwise baseline has no single-active matrix; "
                         "use expected_weight_matrix")
    return w
