"""The two forms of each poll rule: the scalar fold and the state matrix."""

import numpy as np
import pytest

from gossipsim import ConfigError, TopologyParams, build_topology, step_matrix
from gossipsim.rules import RuleVariant, UpdateRule

POLL_RULES = (RuleVariant.NEIGHBORHOOD_SET, RuleVariant.PURE_NEIGHBOR,
              RuleVariant.SELF_ADDITIVE)


class TestFold:
    @pytest.mark.parametrize("variant, want", [
        (RuleVariant.NEIGHBORHOOD_SET, 3.0),  # (0 + 3 + 6) / 3
        (RuleVariant.PURE_NEIGHBOR, 1.5),     # (0 + 3) / 2
        (RuleVariant.SELF_ADDITIVE, 7.5),     # (0 + 3) / 2 + 6
    ])
    def test_hand_computed(self, variant, want):
        assert UpdateRule(variant).fold(6.0, [0.0, 3.0]) == want

    @pytest.mark.parametrize("variant", POLL_RULES)
    def test_order_of_polled_does_not_change_a_bit(self, variant):
        rng = np.random.default_rng(8)
        polled = list(rng.uniform(-1.0, 1.0, 12) * 10.0 ** rng.integers(-8, 9, 12))
        own = 0.1
        orders = [list(rng.permutation(polled)) for _ in range(50)]
        # the data is order-sensitive: a plain left-to-right sum differs
        assert len({sum(p) for p in orders}) > 1
        rule = UpdateRule(variant)
        bits = {rule.fold(own, p).hex() for p in orders}
        assert bits == {rule.fold(own, polled).hex()}

    def test_pairwise_baseline_has_no_fold(self):
        with pytest.raises(ConfigError):
            UpdateRule(RuleVariant.PAIRWISE_BASELINE).fold(1.0, [2.0])


class TestMatrixForm:
    @pytest.mark.parametrize("variant", POLL_RULES)
    def test_matrix_applies_the_fold(self, variant):
        g = build_topology("random_geometric", 9, TopologyParams(radius=0.5), seed=4)
        x = np.random.default_rng(2).uniform(0.0, 100.0, 9)
        rule = UpdateRule(variant)
        for i in range(g.node_count):
            nbrs = np.flatnonzero(g.adjacency[:, i])
            want = x.copy()
            want[i] = rule.fold(x[i], x[nbrs])
            if variant is RuleVariant.NEIGHBORHOOD_SET:
                want[nbrs] = want[i]
            one_hot = np.arange(g.node_count) == i
            assert np.allclose(step_matrix(g, rule, one_hot) @ x, want,
                               rtol=1e-14, atol=0.0)

    def test_pairwise_baseline_has_no_step_matrix(self):
        with pytest.raises(ValueError):
            step_matrix(build_topology("chain", 3), UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        np.array([0, 1, 0]))
