"""Activation process behavior."""

import numpy as np
import pytest

from gossipsim import DutyCycleParams, activation_sequence
from gossipsim import duty_cycle
from gossipsim.errors import ConfigError


class TestParams:
    def test_probability_range(self):
        with pytest.raises(ConfigError):
            DutyCycleParams(p=1.5)
        with pytest.raises(ConfigError):
            DutyCycleParams(q=-0.1)

    def test_stochastic_needs_motion(self):
        with pytest.raises(ConfigError):
            DutyCycleParams(p=0.0, q=0.0)


class TestAlternating:
    def test_toggle_from_zero(self):
        rows = activation_sequence(DutyCycleParams(), 3, 2)
        assert rows.tolist() == [[1, 1, 1], [0, 0, 0]]

    def test_exact_period_two(self):
        rows = activation_sequence(DutyCycleParams(), 4, 6)
        assert np.array_equal(rows[1::2], np.zeros((3, 4)))
        assert np.array_equal(rows[0::2], np.ones((3, 4)))

    def test_confined_to_bits(self):
        rows = activation_sequence(DutyCycleParams(), 2, 5)
        assert set(np.unique(rows)) <= {0, 1}


class TestStochastic:
    def test_default_alternating_fraction_is_half(self):
        assert activation_sequence(DutyCycleParams(), 3, 10).mean() == 0.5

    def test_long_run_matches_stationary(self):
        params = DutyCycleParams(p=0.2, q=0.1)
        rows = activation_sequence(params, 1, 10 ** 5, seed=0)
        frac = rows.mean()
        assert abs(frac - 2 / 3) < 0.02

    def test_transition_frequencies(self):
        params = DutyCycleParams(p=0.3, q=0.2)
        rows = activation_sequence(params, 1, 60_000, seed=7).ravel()
        prev, cur = rows[:-1], rows[1:]
        wake = ((prev == 0) & (cur == 1)).sum() / max((prev == 0).sum(), 1)
        sleep = ((prev == 1) & (cur == 0)).sum() / max((prev == 1).sum(), 1)
        assert abs(wake - 0.3) < 0.02
        assert abs(sleep - 0.2) < 0.02


def step_activation(phi, params, rng):
    """One step of the activation process, written one node at a time: a
    sleeping node wakes with probability p and an awake one falls asleep
    with probability q, on one rng.random(n) draw per step."""
    u = rng.random(len(phi))
    return [int(u[i] < params.p) if b == 0 else int(u[i] >= params.q)
            for i, b in enumerate(phi)]


class TestSequence:
    def test_shape_and_determinism(self):
        params = DutyCycleParams(p=0.4, q=0.4)
        a = activation_sequence(params, 6, 50, seed=3)
        b = activation_sequence(params, 6, 50, seed=3)
        assert a.shape == (50, 6)
        assert np.array_equal(a, b)
        c = activation_sequence(params, 6, 50, seed=4)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("p,q", [pytest.param(1.0, 1.0, id="alternating"),
                                     pytest.param(0.3, 0.6, id="stochastic")])
    def test_matches_iterated_step_activation(self, p, q, seed, monkeypatch):
        # a few rows per block of draws, so block edges are crossed
        monkeypatch.setattr(duty_cycle, "_DRAW_CELLS", 20)
        params = DutyCycleParams(p=p, q=q)
        phi, rng, want = [0] * 5, np.random.default_rng(seed), []
        for _ in range(103):
            phi = step_activation(phi, params, rng)
            want.append(phi)
        got = activation_sequence(params, 5, 103, seed=seed)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 103])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    def test_certain_chains_match_the_stepped_chain(self, p, q, seed, steps):
        # p and q of 0 or 1 fix every draw's outcome
        params = DutyCycleParams(p=p, q=q)
        phi, rng, want = [0] * 5, np.random.default_rng(seed), []
        for _ in range(steps):
            phi = step_activation(phi, params, rng)
            want.append(phi)
        got = activation_sequence(params, 5, steps, seed=seed)
        assert got.dtype == np.uint8 and got.shape == (steps, 5)
        assert np.array_equal(got, np.array(want, dtype=np.uint8).reshape(steps, 5))

    def test_alternating_sequence(self):
        rows = activation_sequence(DutyCycleParams(), 3, 4)
        assert np.array_equal(rows[0], [1, 1, 1])
        assert np.array_equal(rows[1], [0, 0, 0])
        assert np.array_equal(rows[2], [1, 1, 1])
