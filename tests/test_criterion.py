"""Classical laws, the variance-law violation, and its generalizations."""

import math

import numpy as np
import pytest

from measurement_coherence import (
    CriterionReport,
    JointDistribution,
    QState,
    analytic_delta_v,
    analytic_variance_perturbed,
    analytic_variance_unperturbed,
    delta_v,
    entropy_difference,
    law_of_total_variance_decomposition,
    make_state,
    moment_difference,
    observable_x,
    observable_y,
    sequential_joint,
    total_probability_residual,
)
from conftest import diagonal_povm, random_density


def oracle_delta_v(p: float, gamma: float, theta: float) -> float:
    """Independent closed form: s^2 sin^2(t) + 2(2p-1) s sin(t) cos(t)."""
    s = 2.0 * math.sqrt(p * (1.0 - p)) * gamma
    return s * s * math.sin(theta) ** 2 + 2.0 * (2.0 * p - 1.0) * s * math.sin(
        theta
    ) * math.cos(theta)


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

    def test_unsharp_first_measurement_has_nan_witness(self, rng):
        report = delta_v(make_state(0.3, 0.8), diagonal_povm(rng), observable_y(1.0))
        assert math.isnan(report.witness)

    def test_report_difference_invariant(self):
        with pytest.raises(ValueError, match="difference"):
            CriterionReport(
                v_unperturbed=0.2,
                v_perturbed=0.5,
                delta_v=0.1,
                trace_norm_sq=0.0,
                witness=0.0,
            )


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
