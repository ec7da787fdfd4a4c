"""Update rule selection for the averaging step.

The rule decides what a node does with the neighbor states it collected
during a poll round. It is a run parameter rather than a hard-coded
behavior because the variants have visibly different conservation and
convergence properties, and comparing them is half the point of the
simulator.

Each poll rule is written down here twice and nowhere else: as its
scalar fold, the value an initiator adopts from its reads (*polled, own),
and as update_block, the state-matrix block of one node's update. FOLDS
holds the plain folds: the engine's schedule kernel looks its rule's up
once per schedule run and calls it on every read tuple, so that no fold
dispatches on the variant. UpdateRule.fold, which the test oracles call,
is the same function behind that lookup. Every backend calls one of the
two forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Callable, Sequence

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


def _set_mean(reads: Sequence[float]) -> float:
    return fsum(reads) / len(reads)


def _neighbor_mean(reads: Sequence[float]) -> float:
    return fsum(reads[:-1]) / (len(reads) - 1)


def _self_additive(reads: Sequence[float]) -> float:
    return fsum(reads[:-1]) / (len(reads) - 1) + reads[-1]


#: the fold of each poll rule: the value an initiator adopts from its
#: reads, the states of the nodes it polled and then its own. fsum is
#: correctly rounded, so the result does not depend on the order of the
#: polled states; that is what lets the backends agree bit for bit. An
#: fsum that meets both infinities raises ValueError, which every caller
#: turns into the OverflowError of one that overflows.
FOLDS: dict[RuleVariant, Callable[[Sequence[float]], float]] = {
    RuleVariant.NEIGHBORHOOD_SET: _set_mean,
    RuleVariant.PURE_NEIGHBOR: _neighbor_mean,
    RuleVariant.SELF_ADDITIVE: _self_additive,
}


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

    def fold(self, reads: Sequence[float]) -> float:
        """Value an initiator adopts from its reads (*polled, own): the
        states it polled, then its own, by the rule's entry of FOLDS.
        States that have left float range raise OverflowError, whether
        fsum overflows or meets both infinities.
        """
        if self.variant not in FOLDS:
            raise ConfigError(f"rule {self.variant.value} is not a poll-round rule")
        try:
            return FOLDS[self.variant](reads)
        except ValueError as exc:  # -inf + inf
            raise OverflowError(str(exc)) from None


def update_block(g: Graph, i: int, rule: UpdateRule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node i's update as (rows, cols, b): rows of x become b @ x[cols],
    every other row holds. For the pairwise baseline it is the mean
    exchange I - alpha (e_i - e_j)(e_i - e_j)^T of initiator i over a
    partner j drawn uniformly from its neighbors.
    """
    nbrs = g.in_neighbors[i]
    k = len(nbrs)
    if k == 0:
        raise ValueError(f"node {i} has no in-neighbors")
    s = np.append(nbrs, i)
    if rule.variant is RuleVariant.NEIGHBORHOOD_SET:
        return s, s, np.full((k + 1, k + 1), 1.0 / (k + 1))
    if rule.variant is RuleVariant.PURE_NEIGHBOR:
        return s[-1:], nbrs, np.full((1, k), 1.0 / k)
    if rule.variant is RuleVariant.SELF_ADDITIVE:
        b = np.full((1, k + 1), 1.0 / k)
        b[0, k] = 1.0
        return s[-1:], s, b
    # pairwise: i moves alpha of the way to its neighbors' mean, and each
    # neighbor, the partner with probability 1 / k, alpha / k toward x_i
    a = rule.alpha
    b = np.diag(np.full(k + 1, 1.0 - a / k))
    b[:k, k] = b[k, :k] = a / k
    b[k, k] = 1.0 - a
    return s, s, b
