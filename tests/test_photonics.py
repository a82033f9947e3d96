"""Two-photon gate model, analyzer readout, and Poisson counting."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from measurement_coherence import (
    MAX_FLUX,
    MEASURED_GATE,
    PERTURBED,
    UNPERTURBED,
    CountRecord,
    EstimationError,
    GateParams,
    PostSelectionError,
    PrepConfig,
    QState,
    analyzer_distribution,
    estimate_delta_v,
    gate_channel,
    hwp_jones,
    luders_channel,
    make_state,
    observable_x,
    observable_y,
    outcome_distribution,
    prepare_signal,
    run_setting,
    sample_counts,
)
from measurement_coherence.photonics import (
    _METER_V, _check_success, _estimate_delta_v, _gate_multiplier, _gated_signals,
    _poisson_counts)
from measurement_coherence.qubit import _family_states
from conftest import assert_passes_public_checks, random_density

FINITE = st.floats(allow_nan=False, allow_infinity=False)

IDEAL = GateParams()


def joint_state(signal: np.ndarray, meter: np.ndarray) -> QState:
    return QState(np.kron(signal, meter))


def density(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


METER_H = density([1.0, 0.0])
METER_PLUS = density(np.array([1.0, 1.0]) / math.sqrt(2.0))


def reference_distribution(signal, params, theta, mode):
    """A 2x2 signal through the 4x4 gate: attach the meter, gate, trace it
    out, and analyze the signal at theta."""
    meter = METER_H if mode == UNPERTURBED else METER_PLUS
    joint_out, _success = gate_channel(joint_state(signal, meter), params)
    reduced = np.einsum("smtm->st", joint_out.matrix.reshape(2, 2, 2, 2))
    return analyzer_distribution(QState(reduced), theta)


class TestPrepConfig:
    def test_derived_population_and_coherence(self):
        cfg = PrepConfig(alpha_deg=12.0, w_plus=0.75)
        assert cfg.p == pytest.approx(math.sin(math.radians(24.0)) ** 2, abs=1e-15)
        assert cfg.gamma == pytest.approx(0.5, abs=1e-15)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match="w_plus"):
            PrepConfig(alpha_deg=10.0, w_plus=1.2)


class TestGateParams:
    def test_defaults_are_the_ideal_gate(self):
        assert IDEAL.t_h == 1.0
        assert IDEAL.t_v == pytest.approx(1.0 / 3.0)
        assert IDEAL.visibility == 1.0

    def test_measured_values(self):
        assert MEASURED_GATE.t_h == pytest.approx(0.985)
        assert MEASURED_GATE.t_v == pytest.approx(0.324)

    @pytest.mark.parametrize("bad", [{"t_h": 1.2}, {"t_v": -0.1}, {"visibility": 2.0}])
    def test_bounds(self, bad):
        with pytest.raises(ValueError):
            GateParams(**bad)


class TestPrepareSignal:
    def test_pure_preparation_matches_state_family(self):
        got = prepare_signal(PrepConfig(alpha_deg=12.0))
        p = math.sin(math.radians(24.0)) ** 2
        assert p == pytest.approx(0.1654, abs=5e-5)
        np.testing.assert_allclose(got.matrix, make_state(p, 1.0).matrix, atol=1e-12)

    def test_balanced_mixture_is_maximally_mixed(self):
        got = prepare_signal(PrepConfig(alpha_deg=22.5, w_plus=0.5))
        np.testing.assert_allclose(got.matrix, np.eye(2) / 2.0, atol=1e-12)

    @pytest.mark.parametrize("w_plus", [0.0, 0.3, 1.0])
    def test_zero_angle_always_prepares_h(self, w_plus):
        got = prepare_signal(PrepConfig(alpha_deg=0.0, w_plus=w_plus))
        np.testing.assert_allclose(got.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_mixture_matches_state_family_on_grid(self):
        for alpha in np.linspace(0.0, 45.0, 7):
            for w_plus in np.linspace(0.0, 1.0, 5):
                cfg = PrepConfig(alpha_deg=alpha, w_plus=w_plus)
                got = prepare_signal(cfg)
                expected = make_state(cfg.p, cfg.gamma)
                np.testing.assert_allclose(got.matrix, expected.matrix, atol=1e-12)

    def test_phase_matches_state_family(self):
        cfg = PrepConfig(alpha_deg=15.0, w_plus=0.8, phi=0.9)
        expected = make_state(cfg.p, cfg.gamma, 0.9)
        np.testing.assert_allclose(prepare_signal(cfg).matrix, expected.matrix, atol=1e-12)

    @pytest.mark.parametrize("alpha", [60.0, -30.0])
    def test_angle_past_45_degrees_flips_the_coherence(self, alpha):
        cfg = PrepConfig(alpha_deg=alpha, w_plus=0.75)
        expected = make_state(cfg.p, -cfg.gamma)
        np.testing.assert_allclose(prepare_signal(cfg).matrix, expected.matrix, atol=1e-12)

    def test_non_finite_angle_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                prepare_signal(PrepConfig(alpha_deg=value))
            with pytest.raises(ValueError, match="finite"):
                prepare_signal(PrepConfig(alpha_deg=10.0, phi=value))

    @settings(max_examples=300, deadline=None)
    @given(alpha=FINITE, w_plus=st.floats(0.0, 1.0), phi=st.floats(-1e6, 1e6))
    @example(alpha=0.0, w_plus=0.5, phi=-0.0)
    @example(alpha=-0.0, w_plus=1.0, phi=0.0)
    @example(alpha=30.0, w_plus=0.5, phi=0.0)
    @example(alpha=12.0, w_plus=0.3, phi=-1e6)
    def test_scalar_builder_matches_the_stacked_kernel(self, alpha, w_plus, phi):
        cfg = PrepConfig(alpha, w_plus, phi)
        two_alpha = 2.0 * math.radians(alpha)
        cos, sin = math.cos(two_alpha), math.sin(two_alpha)
        stacked = _family_states(sin * sin, cfg.gamma * cos * sin * np.exp(1j * phi))
        assert prepare_signal(cfg).matrix.tobytes() == stacked.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(alpha=FINITE, w_plus=st.floats(0.0, 1.0), phi=FINITE)
    @example(alpha=0.0, w_plus=1.0, phi=0.0)
    @example(alpha=45.0, w_plus=0.0, phi=0.0)
    @example(alpha=22.5, w_plus=1.0, phi=1e6 + 0.3)
    @example(alpha=1e6 + 0.3, w_plus=0.0, phi=-1e6)
    @example(alpha=-1.7e308, w_plus=0.5, phi=1.7e308)
    def test_prepared_signal_passes_the_public_checks(self, alpha, w_plus, phi):
        assert_passes_public_checks(prepare_signal(PrepConfig(alpha, w_plus, phi)))


class TestGateChannel:
    def test_amplitude_bookkeeping_on_basis_states(self):
        # oracle: enumerate the four coincidence amplitudes of the ideal
        # gate by hand -- (1/3, 1/3, 1/3, -1/3)
        for index in range(4):
            ket = np.zeros(4)
            ket[index] = 1.0
            out, success = gate_channel(QState(density(ket)), IDEAL)
            assert success == pytest.approx(1.0 / 9.0, abs=1e-12)
            np.testing.assert_allclose(out.matrix, density(ket), atol=1e-12)

    def test_plus_plus_input_picks_up_the_sign_flip(self):
        ket_in = np.full(4, 0.5)
        out, success = gate_channel(QState(density(ket_in)), IDEAL)
        assert success == pytest.approx(1.0 / 9.0, abs=1e-12)
        expected = density([0.5, 0.5, 0.5, -0.5])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "params", [IDEAL, MEASURED_GATE, GateParams(visibility=0.5)]
    )
    def test_h_meter_never_couples(self, params, rng):
        for _ in range(20):
            signal = random_density(rng)
            out, success = gate_channel(joint_state(signal.matrix, METER_H), params)
            np.testing.assert_allclose(
                out.matrix, np.kron(signal.matrix, METER_H), atol=1e-10
            )
            assert 0.0 < success <= 1.0

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_plus_meter_entangles_pure_signals(self, p):
        signal_ket = np.array([math.sqrt(1.0 - p), math.sqrt(p)])
        joint = joint_state(density(signal_ket), METER_PLUS)
        out, _ = gate_channel(joint, IDEAL)
        expected_ket = np.array(
            [
                math.sqrt(1.0 - p) / math.sqrt(2.0),
                math.sqrt(1.0 - p) / math.sqrt(2.0),
                math.sqrt(p) / math.sqrt(2.0),
                -math.sqrt(p) / math.sqrt(2.0),
            ]
        )
        np.testing.assert_allclose(out.matrix, density(expected_ket), atol=1e-12)

    def test_success_probability_stays_in_unit_interval(self, rng):
        for _ in range(50):
            joint = QState(np.kron(random_density(rng).matrix, random_density(rng).matrix))
            _, success = gate_channel(joint, MEASURED_GATE)
            assert 0.0 < success <= 1.0

    def test_post_selection_can_be_impossible(self):
        # T_V = 1/2 nulls the two-V coincidence amplitude
        ket_vv = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(PostSelectionError):
            gate_channel(QState(density(ket_vv)), GateParams(t_v=0.5))

    def test_rejects_single_qubit_input(self):
        with pytest.raises(ValueError, match="two-photon"):
            gate_channel(make_state(0.5, 1.0), IDEAL)


class TestAnalyzer:
    def test_matches_born_rule_for_tilted_observable(self, rng):
        for theta in np.linspace(0.0, np.pi, 15):
            state = random_density(rng)
            got = analyzer_distribution(state, theta)
            expected = outcome_distribution(state, observable_y(theta))
            assert got.values == expected.values
            assert np.array_equal(got.probabilities, expected.probabilities)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        theta=st.floats(-2.0 * np.pi, 2.0 * np.pi),
    )
    def test_matches_the_wave_plate_and_polarizing_splitter(self, entries, theta):
        g = np.reshape(entries[:4], (2, 2)) + 1j * np.reshape(entries[4:], (2, 2))
        mat = g @ g.conj().T
        trace = np.trace(mat).real
        assume(trace > 1e-3)
        rho = mat / trace
        plate = hwp_jones(-theta / 4.0)
        ports = np.diag(plate @ rho @ plate.conj().T).real
        got = analyzer_distribution(QState(rho), theta)
        np.testing.assert_allclose(got.probabilities, ports, rtol=0.0, atol=1e-12)

    def test_non_finite_angle_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                analyzer_distribution(make_state(0.3, 0.9), value)

    @pytest.mark.parametrize("dim", [1, 3, 4])
    def test_state_of_another_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match=rf"^dimension mismatch: {dim} vs 2$"):
            analyzer_distribution(QState(np.eye(dim) / dim), 0.3)


class TestRunSetting:
    def test_perturbed_mode_realizes_the_dephasing_channel(self):
        cfg = PrepConfig(alpha_deg=17.0, w_plus=0.9)
        theta = 1.2
        got = run_setting(cfg, IDEAL, theta, PERTURBED)
        dephased = luders_channel(prepare_signal(cfg), observable_x())
        expected = outcome_distribution(dephased, observable_y(theta))
        np.testing.assert_allclose(got.probabilities, expected.probabilities, atol=1e-10)

    def test_unperturbed_mode_is_transparent(self):
        cfg = PrepConfig(alpha_deg=31.0, w_plus=0.6)
        theta = 2.1
        got = run_setting(cfg, IDEAL, theta, UNPERTURBED)
        expected = outcome_distribution(prepare_signal(cfg), observable_y(theta))
        np.testing.assert_allclose(got.probabilities, expected.probabilities, atol=1e-10)

    def test_commuting_angle_makes_modes_agree(self):
        cfg = PrepConfig(alpha_deg=12.0)
        a = run_setting(cfg, IDEAL, 0.0, UNPERTURBED)
        b = run_setting(cfg, IDEAL, 0.0, PERTURBED)
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_setting(PrepConfig(alpha_deg=12.0), IDEAL, 0.0, "sideways")

    def test_non_finite_angle_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            for mode in (UNPERTURBED, PERTURBED):
                with pytest.raises(ValueError, match="finite"):
                    run_setting(PrepConfig(alpha_deg=12.0), MEASURED_GATE, value, mode)

    def test_lost_visibility_leaves_residual_coherence(self):
        # with no two-photon interference the gate no longer dephases the
        # signal: the balanced pure state keeps 3/4 weight on +1
        cfg = PrepConfig(alpha_deg=22.5)  # p = 1/2
        blind = GateParams(visibility=0.0)
        got = run_setting(cfg, blind, np.pi / 2, PERTURBED)
        dephased = luders_channel(prepare_signal(cfg), observable_x())
        reference = outcome_distribution(dephased, observable_y(np.pi / 2))
        deviation = np.max(np.abs(got.probabilities - reference.probabilities))
        assert deviation > 0.01
        assert got.probability_of(+1.0) == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        t_h=st.floats(0.0, 1.0),
        t_v=st.floats(0.0, 1.0),
        visibility=st.floats(0.0, 1.0),
        alpha_deg=st.floats(-90.0, 90.0),
        w_plus=st.floats(0.0, 1.0),
        phi=st.floats(-math.pi, math.pi),
        theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
        mode=st.sampled_from((UNPERTURBED, PERTURBED)),
    )
    @example(t_h=1.0, t_v=0.0, visibility=1.0, alpha_deg=12.0, w_plus=1.0, phi=0.0,
             theta=0.7, mode=UNPERTURBED)
    @example(t_h=1.0, t_v=0.0, visibility=1.0, alpha_deg=12.0, w_plus=1.0, phi=0.0,
             theta=0.7, mode=PERTURBED)
    @example(t_h=0.0, t_v=1.0 / 3.0, visibility=1.0, alpha_deg=12.0, w_plus=1.0, phi=0.0,
             theta=0.7, mode=UNPERTURBED)
    @example(t_h=0.0, t_v=1.0 / 3.0, visibility=1.0, alpha_deg=12.0, w_plus=1.0, phi=0.0,
             theta=0.7, mode=PERTURBED)
    @example(t_h=0.985, t_v=0.324, visibility=0.0, alpha_deg=17.0, w_plus=0.9, phi=0.3,
             theta=1.2, mode=PERTURBED)
    def test_signal_multiplier_matches_the_4x4_gate(
        self, t_h, t_v, visibility, alpha_deg, w_plus, phi, theta, mode
    ):
        cfg = PrepConfig(alpha_deg=alpha_deg, w_plus=w_plus, phi=phi)
        params = GateParams(t_h=t_h, t_v=t_v, visibility=visibility)
        try:
            expected = reference_distribution(prepare_signal(cfg).matrix, params, theta, mode)
        except PostSelectionError:
            with pytest.raises(PostSelectionError):
                run_setting(cfg, params, theta, mode)
            return
        np.testing.assert_allclose(
            run_setting(cfg, params, theta, mode).probabilities,
            expected.probabilities,
            rtol=0.0,
            atol=1e-12,
        )


def trace_form_gated_signals(signals, params, meter_v):
    """_gated_signals with the success probability taken by np.trace."""
    gated = _gate_multiplier(params, meter_v) * signals
    success = np.trace(gated, axis1=-2, axis2=-1).real
    _check_success(success.min())
    gated /= success[..., None, None]
    return gated


# Signed zeros and round-off on both sides of zero, mixed with ordinary values.
_SIGNAL_ENTRIES = (st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-13, -1e-13, 1e-15))
                     | st.floats(-1.0, 1.0))


class TestGatedSignals:
    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(_SIGNAL_ENTRIES, min_size=24, max_size=24),
        t_h=st.floats(0.0, 1.0),
        t_v=st.floats(0.0, 1.0),
        visibility=st.floats(0.0, 1.0),
    )
    @example(entries=[-0.0] * 24, t_h=1.0, t_v=1.0 / 3.0, visibility=1.0)
    @example(entries=[0.5, -0.0, -0.0, 0.5] + [-0.0] * 20, t_h=0.0, t_v=0.5, visibility=1.0)
    def test_success_is_the_trace_bit_for_bit(self, entries, t_h, t_v, visibility):
        # three (2, 2) signals, real parts first, each against both meter runs
        signals = (np.reshape(entries[:12], (3, 2, 2))
                   + 1j * np.reshape(entries[12:], (3, 2, 2)))[:, None]
        params = GateParams(t_h=t_h, t_v=t_v, visibility=visibility)
        try:
            expected = trace_form_gated_signals(signals, params, _METER_V)
        except PostSelectionError as exc:
            with pytest.raises(PostSelectionError, match=f"^{re.escape(str(exc))}$"):
                _gated_signals(signals, params, _METER_V)
            return
        got = _gated_signals(signals, params, _METER_V)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestSampleCounts:
    def test_same_seed_reproduces_counts(self):
        dist = analyzer_distribution(make_state(0.3, 0.9), 0.8)
        first = sample_counts(dist, 1e4, seed=7)
        second = sample_counts(dist, 1e4, seed=7)
        np.testing.assert_array_equal(first.counts, second.counts)

    def test_different_seed_changes_counts(self):
        dist = analyzer_distribution(make_state(0.3, 0.9), 0.8)
        first = sample_counts(dist, 1e4, seed=7)
        second = sample_counts(dist, 1e4, seed=8)
        assert not np.array_equal(first.counts, second.counts)

    def test_degenerate_distribution_loads_one_outcome(self):
        from measurement_coherence import OutcomeDistribution

        dist = OutcomeDistribution((-1.0, +1.0), np.array([0.0, 1.0]))
        record = sample_counts(dist, 1000.0, seed=3)
        assert record.counts[0] == 0
        assert abs(record.counts[1] - 1000) < 6 * math.sqrt(1000.0)

    def test_poisson_relative_error_at_high_flux(self):
        from measurement_coherence import OutcomeDistribution

        dist = OutcomeDistribution((-1.0, +1.0), np.array([0.5, 0.5]))
        record = sample_counts(dist, 1e6, seed=11)
        relative = np.abs(record.counts / 5e5 - 1.0)
        assert np.all(relative < 5e-3)

    def test_round_off_probability_draws_like_zero(self):
        # one generator draws a whole sweep in array order, so a cell that
        # holds 3.7e-33 instead of an exact 0 must not shift later counts
        probabilities = np.array([[3.7e-33, 1.0], [0.4, 0.6], [0.25, 0.75]])
        exact = probabilities.copy()
        exact[0, 0] = 0.0
        for seed in range(20):
            noisy_counts = _poisson_counts(np.random.default_rng(seed), 1e5, probabilities)
            exact_counts = _poisson_counts(np.random.default_rng(seed), 1e5, exact)
            np.testing.assert_array_equal(noisy_counts, exact_counts)
            assert noisy_counts[0, 0] == 0

    def test_draw_follows_the_logical_order_of_the_means(self):
        # The engine hands its probabilities over as a transposed view of
        # the Born product, (axis, theta, mode, outcome) over memory laid out
        # as (axis, mode, theta, outcome): the counts must follow the grid
        # order, whatever the memory layout.
        probabilities = np.random.default_rng(3).random((4, 2, 5, 2)).swapaxes(1, 2)
        assert not probabilities.flags.c_contiguous
        contiguous = np.ascontiguousarray(probabilities)
        for seed in range(5):
            np.testing.assert_array_equal(
                _poisson_counts(np.random.default_rng(seed), 1e3, probabilities),
                _poisson_counts(np.random.default_rng(seed), 1e3, contiguous))

    def test_flux_must_be_positive(self):
        dist = analyzer_distribution(make_state(0.3, 0.9), 0.8)
        with pytest.raises(ValueError, match="flux"):
            sample_counts(dist, 0.0, seed=1)

    @pytest.mark.parametrize("flux", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_flux_must_be_finite_and_positive(self, flux):
        dist = analyzer_distribution(make_state(0.3, 0.9), 0.8)
        with pytest.raises(ValueError, match="must be finite and positive"):
            sample_counts(dist, flux, seed=1)
        with pytest.raises(ValueError, match="must be finite and positive"):
            CountRecord((-1.0, +1.0), [3, 4], flux)

    @pytest.mark.parametrize("flux", [1e19, 1e300])
    def test_flux_above_max_flux_rejected(self, flux):
        dist = analyzer_distribution(make_state(0.3, 0.9), 0.8)
        with pytest.raises(ValueError, match=re.escape(f"mean_flux={flux} exceeds MAX_FLUX=1e+18")):
            sample_counts(dist, flux, seed=1)
        with pytest.raises(ValueError, match="exceeds MAX_FLUX"):
            CountRecord((-1.0, +1.0), [3, 4], flux)

    def test_counts_at_max_flux_stay_in_int64(self):
        dist = analyzer_distribution(make_state(0.5, 0.0), 0.0)
        record = sample_counts(dist, MAX_FLUX, seed=1)
        assert record.counts.dtype == np.int64
        assert record.counts.sum() == pytest.approx(MAX_FLUX, rel=1e-6)
        value, std_err = estimate_delta_v(record, record)
        assert value == 0.0
        assert 0.0 <= std_err < 1e-9

    def test_repeated_or_non_finite_outcome_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            CountRecord((1.0, 1.0), [3, 4], 10.0)
        with pytest.raises(ValueError, match="finite"):
            CountRecord((-1.0, math.nan), [3, 4], 10.0)

    def test_one_count_per_outcome_value_required(self):
        with pytest.raises(ValueError, match="one count per outcome value required"):
            CountRecord((-1, 1), [1, 2, 3], 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CountRecord((-1.0, +1.0), np.array([-1, 2]), 10.0)

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="whole"):
            CountRecord((-1.0, +1.0), [2.7, 3.9], 10.0)
        record = CountRecord((-1.0, +1.0), [2.0, 3.0], 10.0)
        np.testing.assert_array_equal(record.counts, [2, 3])
        assert record.counts.dtype == np.int64

    @pytest.mark.parametrize("counts", [np.array([True, False]), [True, False]])
    def test_boolean_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="^counts must be whole numbers, not booleans$"):
            CountRecord((-1.0, 1.0), counts, 10.0)

    @pytest.mark.parametrize("count", [2.0**63, 1e300, -1e300])
    def test_counts_beyond_int64_rejected(self, count):
        with pytest.raises(ValueError, match=r"int64 range \[-2\*\*63, 2\*\*63\)"):
            CountRecord((-1.0, +1.0), [count, 1.0], 1.0)

    def test_counts_at_the_int64_limits_accepted(self):
        record = CountRecord((-1.0, +1.0), [2.0**63 - 1024, 1.0], 1.0)
        assert record.counts[0] == 2**63 - 1024
        record = CountRecord((-1.0, +1.0), np.array([2**63 - 1, 0]), 1.0)
        assert record.counts[0] == 2**63 - 1

    @pytest.mark.parametrize("counts", [[6 * 10**18, 4 * 10**18], [2**63 - 1, 1]])
    def test_counts_summing_past_int64_rejected(self, counts):
        # the estimator totals the counts in int64, where the sum would wrap
        with pytest.raises(ValueError, match=r"counts must sum to less than 2\*\*63"):
            CountRecord((-1, 1), counts, 1.0)


def reference_estimate_delta_v(counts):
    """_estimate_delta_v with a new array for each step, as the formulas
    read."""
    totals = counts[..., 0] + counts[..., 1]
    if not totals.all():
        raise EstimationError("count record is empty")
    counts, totals = counts.astype(float), totals.astype(float)
    n_minus, n_plus = counts[..., 0], counts[..., 1]
    mean = (n_plus - n_minus) / totals
    mean_sq = mean * mean
    var_est = 1.0 - mean_sq
    var_of_est = 16.0 * mean_sq * n_plus * n_minus / totals ** 3
    return (
        var_est[..., 1] - var_est[..., 0],
        np.sqrt(var_of_est[..., 0] + var_of_est[..., 1]),
    )


# Counts up to 4.6e18 per outcome, whose sum stays in int64, and runs with
# n+ = n-, one outcome at zero, or no count at all.
_COUNT_SCALES = st.sampled_from((30, 10**5, int(MAX_FLUX), 4_600_000_000_000_000_000))


@st.composite
def count_runs(draw, scale=None):
    """One run's (n-, n+) counts."""
    high = draw(_COUNT_SCALES) if scale is None else scale
    count = st.integers(0, high)
    return draw(st.one_of(
        st.tuples(count, count),
        count.map(lambda n: (n, n)),
        count.map(lambda n: (0, n)),
        count.map(lambda n: (n, 0)),
        st.just((0, 0)),
    ))


@st.composite
def count_stacks(draw):
    """(..., 2, 2) int64 counts of (unperturbed, perturbed) runs."""
    shape = draw(st.lists(st.integers(1, 3), max_size=2))
    scale = draw(_COUNT_SCALES)
    runs = draw(st.lists(count_runs(scale), min_size=2 * math.prod(shape),
                         max_size=2 * math.prod(shape)))
    return np.array(runs, dtype=np.int64).reshape(*shape, 2, 2)


def assert_estimates_match_the_reference(counts, estimate):
    """estimate(counts) gives the reference's arrays to the byte, or its error."""
    try:
        expected = reference_estimate_delta_v(counts)
    except EstimationError as exc:
        with pytest.raises(EstimationError, match=f"^{re.escape(str(exc))}$"):
            estimate(counts)
        return None
    got = estimate(counts)
    for value, reference in zip(got, expected):
        assert np.shape(value) == np.shape(reference)
        assert np.asarray(value).tobytes() == np.asarray(reference).tobytes()
    return got


class TestEstimateDeltaV:
    @settings(max_examples=400, deadline=None)
    @given(counts=count_stacks())
    @example(counts=np.array([[[7, 7], [0, 9]]] * 2, dtype=np.int64))
    @example(counts=np.full((2, 2), 4_600_000_000_000_000_000, dtype=np.int64))
    @example(counts=np.array([[3, 5], [0, 0]], dtype=np.int64))
    def test_matches_the_reference_bit_for_bit(self, counts):
        # In place or not, every step rounds the same.
        assert_estimates_match_the_reference(counts, _estimate_delta_v)

    @settings(max_examples=200, deadline=None)
    @given(runs=st.tuples(count_runs(), count_runs()), flipped=st.booleans())
    def test_records_give_the_reference(self, runs, flipped):
        def estimate(counts):
            values = (1.0, -1.0) if flipped else (-1.0, 1.0)
            records = [CountRecord(values, run[::-1] if flipped else run, 1.0) for run in counts]
            return tuple(map(np.float64, estimate_delta_v(*records)))

        assert_estimates_match_the_reference(np.array(runs, dtype=np.int64), estimate)

    def test_plugin_consistency_with_exact_counts(self):
        # counts exactly proportional to the analytic probabilities
        p, gamma, theta = 0.3, 0.9, 1.0
        state = make_state(p, gamma)
        direct = outcome_distribution(state, observable_y(theta))
        dephased = outcome_distribution(
            luders_channel(state, observable_x()), observable_y(theta)
        )
        flux = 1_000_000
        unperturbed = CountRecord(
            direct.values, np.round(flux * direct.probabilities).astype(int), flux
        )
        perturbed = CountRecord(
            dephased.values, np.round(flux * dephased.probabilities).astype(int), flux
        )
        got, _ = estimate_delta_v(unperturbed, perturbed)
        plugin = (1.0 - dephased.mean() ** 2) - (1.0 - direct.mean() ** 2)
        assert got == pytest.approx(plugin, abs=1e-6)  # rounding to integer counts
        exact_plus = int(flux * 0.75)
        record = CountRecord((-1.0, +1.0), np.array([flux - exact_plus, exact_plus]), flux)
        value, _ = estimate_delta_v(record, record)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_monte_carlo_convergence_at_maximal_violation(self):
        cfg = PrepConfig(alpha_deg=22.5)
        theta = np.pi / 2
        unperturbed = sample_counts(
            run_setting(cfg, IDEAL, theta, UNPERTURBED), 1e6, seed=5
        )
        perturbed = sample_counts(
            run_setting(cfg, IDEAL, theta, PERTURBED), 1e6, seed=6
        )
        value, std_err = estimate_delta_v(unperturbed, perturbed)
        assert abs(value - 1.0) < 5.0 * max(std_err, 1e-12)

    def test_commuting_angle_is_consistent_with_zero(self):
        cfg = PrepConfig(alpha_deg=12.0)
        unperturbed = sample_counts(run_setting(cfg, IDEAL, 0.0, UNPERTURBED), 1e5, seed=1)
        perturbed = sample_counts(run_setting(cfg, IDEAL, 0.0, PERTURBED), 1e5, seed=2)
        value, std_err = estimate_delta_v(unperturbed, perturbed)
        assert abs(value) <= 5.0 * max(std_err, 1e-12)

    def test_empty_record_rejected(self):
        empty = CountRecord((-1.0, +1.0), np.array([0, 0]), 10.0)
        with pytest.raises(EstimationError, match="empty"):
            estimate_delta_v(empty, empty)

    def test_non_binary_outcomes_rejected(self):
        record = CountRecord((0.0, 1.0), np.array([5, 5]), 10.0)
        with pytest.raises(EstimationError, match="outcomes"):
            estimate_delta_v(record, record)

    def test_standard_error_scales_as_inverse_sqrt_flux(self):
        cfg = PrepConfig(alpha_deg=16.5, w_plus=0.9)  # generic setting
        theta = 1.1
        direct = run_setting(cfg, IDEAL, theta, UNPERTURBED)
        dephased = run_setting(cfg, IDEAL, theta, PERTURBED)
        fluxes = np.array([1e3, 1e4, 1e5, 1e6])
        mean_errors = []
        for i, flux in enumerate(fluxes):
            errors = []
            for seed in range(4):
                unpert = sample_counts(direct, flux, seed=1000 * i + 2 * seed)
                pert = sample_counts(dephased, flux, seed=1000 * i + 2 * seed + 1)
                errors.append(estimate_delta_v(unpert, pert)[1])
            mean_errors.append(np.mean(errors))
        slope = np.polyfit(np.log10(fluxes), np.log10(mean_errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
