"""Classical laws, the variance-law violation, and its generalizations."""

import gc
import math
import weakref

import numpy as np
import pytest

from measurement_coherence import criterion
from measurement_coherence import (
    CriterionReport,
    Effect,
    JointDistribution,
    Observable,
    OutcomeDistribution,
    QState,
    analytic_delta_v,
    analytic_variance_perturbed,
    analytic_variance_unperturbed,
    delta_v,
    entropy_difference,
    law_of_total_variance_decomposition,
    luders_channel,
    make_state,
    measurement_coherence_witness,
    moment_difference,
    observable_x,
    observable_y,
    sequential_joint,
    total_probability_residual,
    trace_norm_distance,
    variance,
)
from conftest import diagonal_povm, random_density, random_pure


def oracle_delta_v(p: float, gamma: float, theta: float) -> float:
    """Independent closed form: s^2 sin^2(t) + 2(2p-1) s sin(t) cos(t)."""
    s = 2.0 * math.sqrt(p * (1.0 - p)) * gamma
    return s * s * math.sin(theta) ** 2 + 2.0 * (2.0 * p - 1.0) * s * math.sin(
        theta
    ) * math.cos(theta)


def scaled_second(theta: float, values: tuple[float, float]) -> Observable:
    """The effects of observable_y(theta) with other outcome values."""
    return Observable(tuple(zip(values, observable_y(theta).effects)))


class TestTotalProbabilityResidual:
    def test_commuting_pair_has_no_residual(self, rng):
        for _ in range(20):
            state = random_density(rng)
            assert total_probability_residual(
                state, observable_x(), observable_y(0.0)
            ) <= 1e-12

    def test_classical_embedding(self, rng):
        state = QState(np.diag([0.35, 0.65]))
        assert total_probability_residual(
            state, diagonal_povm(rng), diagonal_povm(rng)
        ) <= 1e-12

    def test_maximally_coherent_case(self):
        got = total_probability_residual(
            make_state(0.5, 1.0), observable_x(), observable_y(np.pi / 2)
        )
        assert got == pytest.approx(0.5, abs=1e-12)


class TestDeltaV:
    def test_maximal_violation(self):
        report = delta_v(make_state(0.5, 1.0), observable_x(), observable_y(np.pi / 2))
        assert report.delta_v == pytest.approx(1.0, abs=1e-12)
        assert report.v_perturbed == pytest.approx(1.0, abs=1e-12)
        assert report.v_unperturbed == pytest.approx(0.0, abs=1e-12)

    def test_no_tilt_means_no_violation(self, rng):
        for _ in range(20):
            state = random_density(rng)
            report = delta_v(state, observable_x(), observable_y(0.0))
            assert abs(report.delta_v) <= 1e-12

    def test_negative_branch_matches_oracle(self):
        theta = math.radians(36.0)
        expected = oracle_delta_v(0.165, 1.0, theta)
        assert round(expected, 4) == -0.2826
        report = delta_v(make_state(0.165, 1.0), observable_x(), observable_y(theta))
        assert report.delta_v == pytest.approx(expected, abs=1e-12)

    def test_report_carries_witness_and_distance(self):
        report = delta_v(make_state(0.3, 0.8), observable_x(), observable_y(np.pi / 2))
        assert report.witness == pytest.approx(0.5, abs=1e-12)
        assert report.trace_norm_sq == pytest.approx(4 * 0.3 * 0.7 * 0.64, abs=1e-12)

    @pytest.mark.parametrize("first_kind", ["sharp", "unsharp"])
    def test_matches_the_dephased_state_path(self, first_kind, rng):
        for _ in range(200):
            state = random_density(rng)
            if first_kind == "sharp":
                first = observable_y(rng.uniform(0.0, np.pi))
            else:
                first = diagonal_povm(rng)
            # a sharp second measurement in a complex basis
            projector = random_pure(rng).matrix
            second = Observable(((-1.0, Effect(np.eye(2) - projector)), (1.0, Effect(projector))))
            report = delta_v(state, first, second)
            dephased = luders_channel(state, first)
            assert abs(report.trace_norm_sq - trace_norm_distance(state, dephased) ** 2) <= 1e-15
            assert report.v_unperturbed == pytest.approx(variance(state, second), abs=1e-12)
            assert report.v_perturbed == pytest.approx(variance(dephased, second), abs=1e-12)

    def test_unsharp_first_measurement_has_nan_witness(self, rng):
        report = delta_v(make_state(0.3, 0.8), diagonal_povm(rng), observable_y(1.0))
        assert math.isnan(report.witness)

    def test_one_dimensional_pair_has_no_violation_and_zero_witness(self):
        one = Observable(((0.0, Effect([[1.0]])),))
        report = delta_v(QState([[1.0]]), one, one)
        assert report.delta_v == 0.0
        assert report.witness == 0.0

    def test_report_difference_invariant(self):
        with pytest.raises(ValueError, match="difference"):
            CriterionReport(
                v_unperturbed=0.2,
                v_perturbed=0.5,
                delta_v=0.1,
                trace_norm_sq=0.0,
                witness=0.0,
            )

    @pytest.mark.parametrize("scale", [1e4, 1e100])
    def test_eigenstate_at_large_values_has_zero_variance(self, scale):
        # the round-off in <y^2> - <y>^2 grows with <y^2>, and so does the
        # floor below which a negative variance is an error
        for theta in np.linspace(0.01, 3.1, 200):
            second = scaled_second(theta, (0.0, scale))
            plus = second.effects[1].matrix
            state = QState(plus / np.trace(plus).real)
            assert variance(state, second) <= 1e-12 * scale**2
            report = delta_v(state, observable_x(), second)
            assert report.v_unperturbed <= 1e-12 * scale**2

    def test_report_rejects_nan_variances(self):
        with pytest.raises(ValueError, match="difference"):
            CriterionReport(math.nan, math.nan, math.nan, trace_norm_sq=0.0, witness=0.0)


class TestVarianceFloor:
    def test_state_at_the_eigenvalue_tolerance_gives_a_negative_variance(self):
        # QState accepts eigenvalues down to -1e-10; the variance on this
        # one falls below the -1e-12 round-off floor, and delta_v says so.
        state = QState(np.diag([1 + 5e-11, -5e-11]))
        with pytest.raises(ValueError, match="variance evaluated to"):
            delta_v(state, observable_x(), observable_x())


@pytest.mark.filterwarnings("error")
class TestOverflow:
    """Outcome values whose squares overflow raise a ValueError that says
    so, with no RuntimeWarning on the way."""

    state = make_state(0.3, 0.8)
    second = scaled_second(1.0, (0.0, 1e200))

    def test_delta_v(self):
        with pytest.raises(ValueError, match="overflow"):
            delta_v(self.state, observable_x(), self.second)

    def test_moment_difference(self):
        with pytest.raises(ValueError, match="overflow"):
            moment_difference(self.state, observable_x(), self.second, 2)

    def test_moment_operators(self):
        with pytest.raises(ValueError, match="overflow"):
            criterion._moment_operators(
                self.second._values, self.second._matrices, observable_x()._channel
            )

    def test_outcome_distribution_variance(self):
        with pytest.raises(ValueError, match="overflow"):
            OutcomeDistribution((0.0, 1e200), [0.5, 0.5]).variance()

    def test_large_values_that_fit_scale_as_their_square(self):
        unit = delta_v(self.state, observable_x(), scaled_second(1.0, (0.0, 1.0)))
        large = delta_v(self.state, observable_x(), scaled_second(1.0, (0.0, 1e100)))
        assert large.delta_v == pytest.approx(1e200 * unit.delta_v, rel=1e-12)


class TestMomentMemo:
    """delta_v builds the moment operators B, A, Phi(B) and Phi(A) and the
    witness once per (first, second) pair and keeps them in one entry on
    second, without keeping either observable alive."""

    @staticmethod
    def count_builds(monkeypatch) -> tuple[list, list]:
        builds, witnesses = [], []
        moment_operators = criterion._moment_operators
        witness = criterion.measurement_coherence_witness

        def spy_operators(values, effects, first_channel):
            builds.append(first_channel)
            return moment_operators(values, effects, first_channel)

        def spy_witness(obs, basis):
            witnesses.append((obs, basis))
            return witness(obs, basis)

        monkeypatch.setattr(criterion, "_moment_operators", spy_operators)
        monkeypatch.setattr(criterion, "measurement_coherence_witness", spy_witness)
        return builds, witnesses

    def test_built_once_per_pair_across_delta_v_calls(self, monkeypatch, rng):
        builds, witnesses = self.count_builds(monkeypatch)
        first, second = observable_x(), observable_y(np.pi / 3)
        reported = {delta_v(random_density(rng), first, second).witness for _ in range(20)}
        assert len(builds) == 1
        assert builds[0] is first._channel
        assert witnesses == [(second, first)]
        assert len(reported) == 1
        assert reported.pop() == pytest.approx(np.sin(np.pi / 3) / 2.0, abs=1e-12)

    def test_each_first_measurement_gets_its_own_entry(self, monkeypatch):
        builds, witnesses = self.count_builds(monkeypatch)
        second = observable_y(np.pi / 6)
        reference, conjugate = observable_x(), observable_y(np.pi / 2)
        state = make_state(0.3, 0.8)
        for _ in range(3):
            in_reference = delta_v(state, reference, second)
            assert in_reference.delta_v == pytest.approx(
                oracle_delta_v(0.3, 0.8, np.pi / 6), abs=1e-12
            )
            assert in_reference.witness == pytest.approx(0.25, abs=1e-12)
            in_conjugate = delta_v(state, conjugate, second)
            assert in_conjugate.witness == pytest.approx(np.cos(np.pi / 6) / 2.0, abs=1e-12)
        assert [id(c) for c in builds] == [id(reference._channel), id(conjugate._channel)]
        assert witnesses == [(second, reference), (second, conjugate)]
        assert len(second._pairs) == 2
        assert not np.array_equal(second._pairs[reference][0], second._pairs[conjugate][0])

    def test_operators_are_read_only(self):
        first, second = observable_x(), observable_y(1.0)
        delta_v(make_state(0.3, 0.8), first, second)
        probe, _witness = second._pairs[first]
        assert probe.shape == (4, 4 + 4)
        assert probe.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            probe[0, 0] = 0.0

    def test_unsharp_basis_is_rejected_every_time(self, rng):
        basis = diagonal_povm(rng)
        for _ in range(2):
            with pytest.raises(ValueError, match="sharp|projector"):
                measurement_coherence_witness(observable_x(), basis)

    def test_discarded_observables_are_freed(self, rng):
        first = observable_y(2.0)
        second = observable_y(1.0)
        for _ in range(3):
            delta_v(random_density(rng), first, second)
        dropped = weakref.ref(second)
        del second
        gc.collect()
        assert dropped() is None
        # keyed weakly: a first measurement used once is not kept alive either
        kept = observable_y(0.5)
        delta_v(random_density(rng), first, kept)
        dropped = weakref.ref(first)
        del first
        gc.collect()
        assert dropped() is None
        assert len(kept._pairs) == 0

    def test_a_memo_hit_reports_what_the_build_did(self, rng):
        first, second = observable_x(), observable_y(0.9)
        state = random_density(rng)
        built = delta_v(state, first, second)
        assert first in second._pairs
        assert delta_v(state, first, second) == built
        assert delta_v(state, first, observable_y(0.9)) == built


class TestAnalyticForms:
    def test_unperturbed_examples(self):
        assert analytic_variance_unperturbed(0.5, 1.0, np.pi / 2) == pytest.approx(
            0.0, abs=1e-15
        )
        assert analytic_variance_unperturbed(0.0, 0.7, 0.0) == pytest.approx(
            0.0, abs=1e-15
        )
        for theta in np.linspace(0.0, np.pi, 7):
            assert analytic_variance_unperturbed(0.5, 0.0, theta) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_perturbed_examples(self):
        for theta in np.linspace(0.0, np.pi, 7):
            assert analytic_variance_perturbed(0.5, theta) == pytest.approx(
                1.0, abs=1e-15
            )
        assert analytic_variance_perturbed(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert analytic_variance_perturbed(0.165, np.pi / 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            analytic_variance_unperturbed(1.2, 0.5, 0.0)
        with pytest.raises(ValueError):
            analytic_variance_unperturbed(0.5, 1.5, 0.0)
        with pytest.raises(ValueError):
            analytic_variance_perturbed(-0.1, 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            analytic_variance_unperturbed(0.3, 0.5, theta)
        with pytest.raises(ValueError, match="finite"):
            analytic_variance_perturbed(0.3, theta)
        with pytest.raises(ValueError, match="finite"):
            analytic_delta_v(0.3, 0.5, theta)

    def test_matrix_path_agrees_with_closed_forms(self):
        for p in np.linspace(0.0, 1.0, 12):
            state_cache = {}
            for theta in np.linspace(0.0, np.pi, 12):
                second = observable_y(theta)
                for gamma in np.linspace(0.0, 1.0, 5):
                    state = state_cache.setdefault(gamma, make_state(p, gamma))
                    report = delta_v(state, observable_x(), second)
                    assert report.v_unperturbed == pytest.approx(
                        analytic_variance_unperturbed(p, gamma, theta), abs=1e-12
                    )
                    assert report.v_perturbed == pytest.approx(
                        analytic_variance_perturbed(p, theta), abs=1e-12
                    )
                    assert report.delta_v == pytest.approx(
                        analytic_delta_v(p, gamma, theta), abs=1e-12
                    )

    def test_trace_distance_identity_at_quarter_turn(self):
        second = observable_y(np.pi / 2)
        for p in np.linspace(0.0, 1.0, 21):
            for gamma in np.linspace(0.0, 1.0, 11):
                report = delta_v(make_state(p, gamma), observable_x(), second)
                expected = 4.0 * p * (1.0 - p) * gamma * gamma
                assert report.delta_v == pytest.approx(expected, abs=1e-12)
                assert report.trace_norm_sq == pytest.approx(expected, abs=1e-12)

    def test_classicality_without_coherence(self):
        for p in np.linspace(0.0, 1.0, 15):
            for theta in np.linspace(0.0, np.pi, 15):
                assert analytic_delta_v(p, 0.0, theta) == pytest.approx(0.0, abs=1e-15)

    def test_sign_structure(self):
        for p in np.linspace(0.0, 1.0, 15):
            for gamma in np.linspace(0.0, 1.0, 6):
                assert analytic_delta_v(p, gamma, np.pi / 2) >= -1e-15
        # below-balanced populations with a small tilt give a negative violation
        assert analytic_delta_v(0.165, 1.0, math.radians(36.0)) < -0.28


class TestDecomposition:
    def test_product_distribution_has_no_mean_spread(self):
        x_mass = np.array([0.3, 0.7])
        y_mass = np.array([0.25, 0.75])
        joint = JointDistribution((-1.0, 1.0), (-1.0, 1.0), np.outer(x_mass, y_mass))
        cond_var, mean_var = law_of_total_variance_decomposition(joint)
        y_var = 1.0 - (y_mass[1] - y_mass[0]) ** 2
        assert cond_var == pytest.approx(y_var, abs=1e-12)
        assert mean_var == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_is_pure_mean_spread(self):
        joint = JointDistribution((-1.0, 1.0), (-1.0, 1.0), np.diag([0.5, 0.5]))
        cond_var, mean_var = law_of_total_variance_decomposition(joint)
        assert cond_var == pytest.approx(0.0, abs=1e-12)
        assert mean_var == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_joint_decomposition(self):
        joint = sequential_joint(
            make_state(0.5, 1.0), observable_x(), observable_y(np.pi / 2)
        )
        cond_var, mean_var = law_of_total_variance_decomposition(joint)
        assert cond_var == pytest.approx(1.0, abs=1e-12)
        assert mean_var == pytest.approx(0.0, abs=1e-12)
        assert cond_var + mean_var == pytest.approx(
            joint.y_marginal().variance(), abs=1e-12
        )

    def test_identity_on_random_sequential_joints(self, rng):
        for _ in range(200):
            state = random_density(rng)
            first = observable_y(rng.uniform(0.0, np.pi))
            second = observable_y(rng.uniform(0.0, np.pi))
            joint = sequential_joint(state, first, second)
            cond_var, mean_var = law_of_total_variance_decomposition(joint)
            assert cond_var + mean_var == pytest.approx(
                joint.y_marginal().variance(), abs=1e-10
            )

    def test_matches_the_row_by_row_reference(self, rng):
        def reference(table, y_values):
            pieces, means, masses = 0.0, [], []
            for row in table:
                mass = row.sum()
                if mass <= 1e-14:
                    continue
                cond = row / mass
                mean = float(np.dot(y_values, cond))
                pieces += mass * (float(np.dot(y_values**2, cond)) - mean * mean)
                means.append(mean)
                masses.append(mass)
            overall = float(np.dot(masses, means))
            return pieces, float(np.dot(masses, (np.array(means) - overall) ** 2))

        y_values = np.array([-1.0, 0.5, 2.0])
        for _ in range(100):
            table = rng.uniform(size=(3, 3))
            table[rng.integers(3)] = 0.0  # one x outcome never occurs
            joint = JointDistribution((0.0, 1.0, 2.0), y_values, table / table.sum())
            got = law_of_total_variance_decomposition(joint)
            np.testing.assert_allclose(got, reference(joint.table, y_values), rtol=0.0, atol=1e-12)

    def test_zero_mass_column_is_skipped(self):
        table = np.array([[0.0, 0.0], [0.25, 0.75]])
        joint = JointDistribution((-1.0, 1.0), (-1.0, 1.0), table)
        cond_var, mean_var = law_of_total_variance_decomposition(joint)
        assert cond_var == pytest.approx(0.75, abs=1e-12)  # V[y] of the live column
        assert mean_var == pytest.approx(0.0, abs=1e-12)


class TestMomentDifference:
    def test_second_moment_reproduces_delta_v(self, rng):
        for _ in range(50):
            state = random_density(rng)
            first = observable_x()
            second = observable_y(rng.uniform(0.0, np.pi))
            report = delta_v(state, first, second)
            got = moment_difference(state, first, second, k=2)
            assert got == pytest.approx(report.delta_v, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_commuting_pair_vanishes(self, k, rng):
        state = random_density(rng)
        assert moment_difference(
            state, observable_x(), observable_y(0.0), k=k
        ) == pytest.approx(0.0, abs=1e-12)

    def test_fourth_moment_of_maximally_coherent_case(self):
        # binary +-1 outcomes: P has zero spread, P' is uniform with
        # fourth central moment E[y^4] = 1
        got = moment_difference(
            make_state(0.5, 1.0), observable_x(), observable_y(np.pi / 2), k=4
        )
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError, match="k="):
            moment_difference(make_state(0.5, 1.0), observable_x(), observable_y(1.0), k=1)

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    def test_fractional_or_non_finite_order_rejected(self, k):
        with pytest.raises(ValueError, match="k="):
            moment_difference(make_state(0.3, 0.8), observable_x(), observable_y(1.0), k)

    @pytest.mark.parametrize("k", [3.0, np.int64(4)])
    def test_whole_order_of_another_type_is_accepted(self, k):
        state, first, second = make_state(0.3, 0.8), observable_x(), observable_y(1.0)
        assert moment_difference(state, first, second, k) == moment_difference(
            state, first, second, int(k)
        )


class TestEntropyDifference:
    def test_commuting_pair_vanishes(self, rng):
        state = random_density(rng)
        assert entropy_difference(
            state, observable_x(), observable_y(0.0)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_to_uniform_gains_ln2(self):
        got = entropy_difference(
            make_state(0.5, 1.0), observable_x(), observable_y(np.pi / 2)
        )
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_classical_configuration_vanishes(self, rng):
        state = QState(np.diag([0.2, 0.8]))
        assert entropy_difference(
            state, diagonal_povm(rng), diagonal_povm(rng)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_no_residual_means_no_difference_in_any_functional(self, rng):
        # when P = P', every comparison of the two distributions vanishes
        for _ in range(30):
            state = random_density(rng)
            theta = rng.uniform(0.0, np.pi)
            first, second = observable_y(theta), observable_y(theta)
            assert total_probability_residual(state, first, second) <= 1e-12
            for k in (2, 3, 4):
                assert abs(moment_difference(state, first, second, k)) <= 1e-10
            assert abs(entropy_difference(state, first, second)) <= 1e-10
