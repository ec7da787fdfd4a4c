"""Schedule arithmetic and activation process behavior."""

import numpy as np
import pytest

from gossipsim import (
    ActivationMode,
    ActivationState,
    DutyCycleParams,
    activation_sequence,
    beacon_period,
    stationary_active_fraction,
    step_activation,
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
        params = DutyCycleParams()
        s0 = ActivationState(phi=np.zeros(3, dtype=np.uint8))
        s1 = step_activation(s0, params)
        s2 = step_activation(s1, params)
        assert list(s1.phi) == [1, 1, 1]
        assert list(s2.phi) == [0, 0, 0]
        assert s2.step == 2

    def test_exact_period_two(self):
        params = DutyCycleParams()
        state = ActivationState(phi=np.array([0, 1, 0, 1], dtype=np.uint8))
        two = step_activation(step_activation(state, params), params)
        assert np.array_equal(two.phi, state.phi)

    def test_confined_to_bits(self):
        params = DutyCycleParams()
        state = ActivationState(phi=np.array([0, 1], dtype=np.uint8))
        for _ in range(5):
            state = step_activation(state, params)
            assert set(np.unique(state.phi)) <= {0, 1}


class TestStochastic:
    def test_needs_rng(self):
        params = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.2, q=0.1)
        with pytest.raises(ConfigError):
            step_activation(ActivationState(phi=np.zeros(2, dtype=np.uint8)), params)

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
        with pytest.raises(ConfigError):
            ActivationState(phi=np.array([0, 2], dtype=np.uint8))


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
        state, rng, want = ActivationState(phi=phi0), np.random.default_rng(seed), []
        for _ in range(103):
            state = step_activation(state, params, rng)
            want.append(state.phi)
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
