"""Schedule arithmetic and activation process behavior."""

import numpy as np
import pytest

from gossipsim import (
    ActivationMode,
    DutyCycleParams,
    activation_sequence,
    beacon_period,
    stationary_active_fraction,
)
from gossipsim import duty_cycle
from gossipsim.errors import ConfigError


class TestBeaconPeriod:
    def test_zero_variance_floors_at_sweep(self):
        assert beacon_period(3, 1.0, 1.0, 0.0) == 6.0

    def test_unit_variance_is_sweep(self):
        assert beacon_period(4, 1.0, 2.0, 1.0) == 12.0

    def test_single_layer(self):
        assert beacon_period(1, 0.0, 1.0, 1.0) == 1.0

    def test_high_variance_stretches(self):
        assert beacon_period(3, 1.0, 1.0, 2.5) == 15.0

    def test_sub_unit_variance_floors(self):
        # the literal product would re-beacon mid-sweep; floor wins
        assert beacon_period(5, 1.0, 1.0, 0.3) == 10.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            beacon_period(0, 1.0, 1.0, 1.0)


class TestParams:
    def test_probability_range(self):
        with pytest.raises(ConfigError):
            DutyCycleParams(p=1.5)
        with pytest.raises(ConfigError):
            DutyCycleParams(q=-0.1)

    def test_t_c_positive(self):
        with pytest.raises(ConfigError):
            DutyCycleParams(t_c=0.0)

    @pytest.mark.parametrize("field", ["d_mean", "d_var", "t_c"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_timing_must_be_finite(self, field, value):
        with pytest.raises(ConfigError):
            DutyCycleParams(**{field: value})

    def test_stochastic_needs_motion(self):
        with pytest.raises(ConfigError):
            DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.0, q=0.0)

    def test_mode_coercion(self):
        params = DutyCycleParams(mode="stochastic", p=0.5, q=0.5)
        assert params.mode is ActivationMode.STOCHASTIC

    def test_slot(self):
        assert DutyCycleParams(d_mean=1.5, t_c=0.5).slot() == 2.0


class TestAlternating:
    def test_toggle_from_zero(self):
        rows = activation_sequence(DutyCycleParams(), 3, 2)
        assert rows.tolist() == [[1, 1, 1], [0, 0, 0]]

    def test_exact_period_two(self):
        phi0 = np.array([0, 1, 0, 1], dtype=np.uint8)
        rows = activation_sequence(DutyCycleParams(), 4, 6, phi0=phi0)
        assert np.array_equal(rows[1::2], np.tile(phi0, (3, 1)))
        assert np.array_equal(rows[0::2], np.tile(1 - phi0, (3, 1)))

    def test_confined_to_bits(self):
        rows = activation_sequence(DutyCycleParams(), 2, 5, phi0=np.array([0, 1]))
        assert set(np.unique(rows)) <= {0, 1}


class TestStochastic:
    def test_stationary_fraction_formula(self):
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=1.0, q=1.0)
        assert stationary_active_fraction(params) == 0.5
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.2, q=0.1)
        assert stationary_active_fraction(params) == pytest.approx(2 / 3)

    def test_fraction_undefined_for_alternating(self):
        with pytest.raises(ConfigError):
            stationary_active_fraction(DutyCycleParams())

    def test_long_run_matches_stationary(self):
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.2, q=0.1)
        rows = activation_sequence(params, 1, 10 ** 5, seed=0)
        frac = rows.mean()
        assert abs(frac - 2 / 3) < 0.02

    def test_transition_frequencies(self):
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.3, q=0.2)
        rows = activation_sequence(params, 1, 60_000, seed=7).ravel()
        prev, cur = rows[:-1], rows[1:]
        wake = ((prev == 0) & (cur == 1)).sum() / max((prev == 0).sum(), 1)
        sleep = ((prev == 1) & (cur == 0)).sum() / max((prev == 1).sum(), 1)
        assert abs(wake - 0.3) < 0.02
        assert abs(sleep - 0.2) < 0.02

    def test_invalid_phi_vector(self):
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.2, q=0.1)
        with pytest.raises(ConfigError):
            activation_sequence(params, 2, 3, phi0=np.array([0, 2], dtype=np.uint8))


def step_activation(phi, params, rng):
    """One step of the activation process, written one node at a time:
    alternating mode toggles every node; stochastic mode wakes a sleeping
    node with probability p and puts an awake one to sleep with
    probability q, on one rng.random(n) draw per step."""
    if params.mode is ActivationMode.ALTERNATING:
        return [1 - b for b in phi]
    u = rng.random(len(phi))
    return [int(u[i] < params.p) if b == 0 else int(u[i] >= params.q)
            for i, b in enumerate(phi)]


class TestSequence:
    def test_shape_and_determinism(self):
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.4, q=0.4)
        a = activation_sequence(params, 6, 50, seed=3)
        b = activation_sequence(params, 6, 50, seed=3)
        assert a.shape == (50, 6)
        assert np.array_equal(a, b)
        c = activation_sequence(params, 6, 50, seed=4)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("mode", list(ActivationMode))
    def test_matches_iterated_step_activation(self, mode, seed, monkeypatch):
        # a few rows per block of draws, so block edges are crossed
        monkeypatch.setattr(duty_cycle, "_DRAW_CELLS", 20)
        params = DutyCycleParams(mode=mode, p=0.3, q=0.6)
        phi0 = np.array([1, 0, 0, 1, 1], dtype=np.uint8)
        phi, rng, want = phi0.tolist(), np.random.default_rng(seed), []
        for _ in range(103):
            phi = step_activation(phi, params, rng)
            want.append(phi)
        got = activation_sequence(params, 5, 103, seed=seed, phi0=phi0)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.array(want))

    def test_phi0_length_must_match(self):
        with pytest.raises(ConfigError):
            activation_sequence(DutyCycleParams(), 3, 4, phi0=np.zeros(2, dtype=np.uint8))

    def test_alternating_sequence(self):
        rows = activation_sequence(DutyCycleParams(), 3, 4)
        assert np.array_equal(rows[0], [1, 1, 1])
        assert np.array_equal(rows[1], [0, 0, 0])
        assert np.array_equal(rows[2], [1, 1, 1])
