"""Sequential statistics, the outcome-discarding channel, and the witness."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from measurement_coherence import (
    Effect,
    JointDistribution,
    Observable,
    OutcomeDistribution,
    QState,
    ZeroProbabilityError,
    commutator_norm,
    delta_v,
    is_incoherent,
    luders_channel,
    make_state,
    measurement_coherence_witness,
    observable_x,
    observable_y,
    outcome_distribution,
    post_measurement_state,
    sequential_joint,
)
from measurement_coherence import criterion
from measurement_coherence.photonics import CountRecord
from conftest import diagonal_povm, random_density, random_pure


def plus_state() -> QState:
    return make_state(0.5, 1.0)


class TestOutcomeDistributionType:
    def test_clamps_tiny_negatives(self):
        dist = OutcomeDistribution((-1.0, +1.0), np.array([1.0 + 1e-13, -1e-13]))
        assert dist.probabilities[1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError, match="negative"):
            OutcomeDistribution((-1.0, +1.0), np.array([1.1, -0.1]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution((-1.0, +1.0), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("probabilities", [[np.nan, 1.0], [np.inf, 1.0]])
    def test_rejects_non_finite(self, probabilities):
        with pytest.raises(ValueError):
            OutcomeDistribution((-1.0, +1.0), probabilities)

    def test_mean_and_variance(self):
        dist = OutcomeDistribution((-1.0, +1.0), np.array([0.25, 0.75]))
        assert dist.mean() == pytest.approx(0.5)
        assert dist.variance() == pytest.approx(0.75)

    @pytest.mark.parametrize("probabilities", [[0.2, 0.3, 0.5], [1.0], [[0.5, 0.5]]])
    def test_rejects_one_probability_per_value_mismatch(self, probabilities):
        with pytest.raises(ValueError, match=r"do not match 2 outcome values"):
            OutcomeDistribution((-1.0, +1.0), probabilities)

    def test_rejects_repeated_values(self):
        with pytest.raises(ValueError, match=r"distinct, got \[1.0, 1.0\]"):
            OutcomeDistribution((1, 1), [0.5, 0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="outcome values must be finite"):
            OutcomeDistribution((-1.0, value), [0.5, 0.5])


class TestJointDistributionType:
    def test_clamps_tiny_negatives(self):
        table = np.array([[0.5 + 1e-13, -1e-13], [0.25, 0.25]])
        joint = JointDistribution((-1.0, +1.0), (-1.0, +1.0), table)
        assert joint.table[0, 1] == 0.0
        assert joint.table.shape == (2, 2)

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError, match="negative"):
            JointDistribution((-1.0, +1.0), (-1.0, +1.0), [[0.6, -0.1], [0.25, 0.25]])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution((-1.0, +1.0), (-1.0, +1.0), np.full((2, 2), 0.3))

    def test_rejects_mismatched_shape(self):
        with pytest.raises(ValueError, match="shape"):
            JointDistribution((-1.0, +1.0), (-1.0, 0.0, +1.0), np.full((2, 2), 0.25))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            JointDistribution((-1.0, +1.0), (-1.0, +1.0), [[np.nan, 0.5], [0.25, 0.25]])

    @pytest.mark.parametrize(
        "x_values, y_values, match",
        [
            ((1.0, 1.0), (-1.0, +1.0), "distinct"),
            ((-1.0, +1.0), (1.0, 1.0), "distinct"),
            ((-1.0, np.nan), (-1.0, +1.0), "finite"),
            ((-1.0, +1.0), (np.inf, +1.0), "finite"),
        ],
        ids=["x-repeated", "y-repeated", "x-nan", "y-inf"],
    )
    def test_rejects_bad_outcome_values_on_either_axis(self, x_values, y_values, match):
        with pytest.raises(ValueError, match=f"outcome values must be {match}"):
            JointDistribution(x_values, y_values, np.full((2, 2), 0.25))


# attribute: (constructor from that array, valid entries)
RECORDS = {
    "probabilities": (lambda array: OutcomeDistribution((-1.0, +1.0), array), [0.5, 0.5]),
    "table": (lambda array: JointDistribution((-1.0, +1.0), (-1.0, +1.0), array),
              [[0.25, 0.25], [0.25, 0.25]]),
    "counts": (lambda array: CountRecord((-1.0, +1.0), array, 10.0), [3, 4]),
}


@pytest.mark.parametrize("attribute", RECORDS)
class TestReadOnlyRecords:
    """Validated distributions and counts cannot be edited in place."""

    def test_in_place_write_raises(self, attribute):
        build, entries = RECORDS[attribute]
        with pytest.raises(ValueError, match="read-only"):
            getattr(build(np.array(entries)), attribute).flat[0] = 7

    def test_mutating_the_source_array_leaves_the_record_unchanged(self, attribute):
        build, entries = RECORDS[attribute]
        source = np.array(entries)
        record = build(source)
        source.flat[0] = 7
        np.testing.assert_array_equal(getattr(record, attribute), entries)

    def test_pickle_and_copy_come_back_read_only(self, attribute):
        build, entries = RECORDS[attribute]
        record = build(np.array(entries))
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                       copy.copy(record)):
            array = getattr(copied, attribute)
            assert array.flags.writeable is False
            np.testing.assert_array_equal(array, entries)


class TestOutcomeDistribution:
    def test_eigenstate_is_deterministic(self):
        dist = outcome_distribution(make_state(0.0, 1.0), observable_x())
        assert dist.probability_of(-1.0) == pytest.approx(1.0, abs=1e-15)
        assert dist.probability_of(+1.0) == pytest.approx(0.0, abs=1e-15)

    def test_plus_state_on_conjugate_axis(self):
        # matrix oracle: |+> is the +1 eigenvector of sigma_x
        dist = outcome_distribution(plus_state(), observable_y(np.pi / 2))
        assert dist.probability_of(+1.0) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_readout(self):
        dist = outcome_distribution(make_state(0.165, 1.0), observable_x())
        assert dist.probability_of(-1.0) == pytest.approx(0.835, abs=1e-12)
        assert dist.probability_of(+1.0) == pytest.approx(0.165, abs=1e-12)

    def test_variance_below_the_round_off_floor_raises(self):
        # The constructor accepts a sum off by up to 1e-10; the variance of
        # this one evaluates below -1e-12.
        with pytest.raises(ValueError, match="variance evaluated to"):
            OutcomeDistribution((-1, 1), [0, 1 + 1e-11]).variance()

    def test_unknown_value_names_the_value_and_the_outcomes(self):
        dist = OutcomeDistribution((-1.0, 1.0), [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^2\.0 is not one of the outcomes \(-1\.0, 1\.0\)$"):
            dist.probability_of(2.0)


class TestPostMeasurementState:
    def test_projective_collapse(self):
        collapsed, prob = post_measurement_state(
            plus_state(), Effect(np.diag([1.0, 0.0]))
        )
        np.testing.assert_allclose(collapsed.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_identity_effect_is_transparent(self, rng):
        state = random_density(rng)
        out, prob = post_measurement_state(state, Effect(np.eye(2)))
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-12)
        assert prob == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_family_collapse_onto_h(self, p):
        out, prob = post_measurement_state(
            make_state(p, 0.8), Effect(np.diag([1.0, 0.0]))
        )
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert prob == pytest.approx(1.0 - p, abs=1e-12)

    def test_zero_probability_outcome(self):
        with pytest.raises(ZeroProbabilityError):
            post_measurement_state(make_state(0.0, 1.0), Effect(np.diag([0.0, 1.0])))


class TestLudersChannel:
    @pytest.mark.parametrize("p,gamma", [(0.2, 1.0), (0.5, 0.7), (0.9, 0.3)])
    def test_reference_measurement_dephases(self, p, gamma):
        out = luders_channel(make_state(p, gamma), observable_x())
        np.testing.assert_allclose(out.matrix, np.diag([1.0 - p, p]), atol=1e-12)

    def test_incoherent_state_is_fixed_point(self):
        state = QState(np.diag([0.3, 0.7]))
        out = luders_channel(state, observable_x())
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-15)

    def test_eigenbasis_measurement_preserves_state(self):
        out = luders_channel(plus_state(), observable_y(np.pi / 2))
        np.testing.assert_allclose(out.matrix, plus_state().matrix, atol=1e-12)

    def test_preserves_trace_and_positivity(self, rng):
        for _ in range(1000):
            state = random_density(rng)
            theta = rng.uniform(0.0, np.pi)
            out = luders_channel(state, observable_y(theta))
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10

    def test_idempotent_for_sharp_observables(self, rng):
        for _ in range(50):
            state = random_density(rng)
            obs = observable_y(rng.uniform(0.0, np.pi))
            once = luders_channel(state, obs)
            twice = luders_channel(once, obs)
            np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_unsharp_observable_preserves_trace(self, rng):
        for _ in range(100):
            state = random_density(rng)
            out = luders_channel(state, diagonal_povm(rng))
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestIsIncoherent:
    def test_diagonal_states_are_incoherent(self):
        assert is_incoherent(QState(np.diag([0.4, 0.6])), observable_x())

    def test_maximally_coherent_state_is_not(self):
        assert not is_incoherent(plus_state(), observable_x())

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 7))
    def test_dephased_family_is_incoherent(self, p):
        assert is_incoherent(make_state(p, 0.0), observable_x())


class TestSequentialJoint:
    def test_repeated_sharp_measurement_is_perfectly_correlated(self):
        state = QState(np.diag([0.3, 0.7]))
        joint = sequential_joint(state, observable_x(), observable_x())
        np.testing.assert_allclose(joint.table, np.diag([0.3, 0.7]), atol=1e-12)

    def test_collapse_then_unbiased_readout_is_uniform(self):
        joint = sequential_joint(plus_state(), observable_x(), observable_y(np.pi / 2))
        np.testing.assert_allclose(joint.table, np.full((2, 2), 0.25), atol=1e-12)

    def test_y_marginal_is_born_rule_on_dephased_state(self, rng):
        for _ in range(100):
            state = random_density(rng)
            first = observable_y(rng.uniform(0.0, np.pi))
            second = observable_y(rng.uniform(0.0, np.pi))
            joint = sequential_joint(state, first, second)
            expected = outcome_distribution(luders_channel(state, first), second)
            np.testing.assert_allclose(
                joint.y_marginal().probabilities, expected.probabilities, atol=1e-10
            )

    def test_x_marginal_is_first_measurement_statistics(self, rng):
        for _ in range(100):
            state = random_density(rng)
            first = diagonal_povm(rng)
            second = observable_y(rng.uniform(0.0, np.pi))
            joint = sequential_joint(state, first, second)
            expected = outcome_distribution(state, first)
            np.testing.assert_allclose(
                joint.x_marginal().probabilities, expected.probabilities, atol=1e-10
            )


class TestWitness:
    def test_reference_on_itself_vanishes(self):
        assert measurement_coherence_witness(observable_x(), observable_x()) == 0.0

    def test_conjugate_axis_projectors(self):
        got = measurement_coherence_witness(observable_y(np.pi / 2), observable_x())
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_commuting_observable_vanishes(self):
        got = measurement_coherence_witness(observable_y(0.0), observable_x())
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_one_dimensional_effects_have_zero_witness(self):
        one = Observable(((0.0, Effect([[1.0]])),))
        assert measurement_coherence_witness(one, one) == 0.0

    def test_unsharp_basis_rejected(self, rng):
        with pytest.raises(ValueError, match="sharp|projector"):
            measurement_coherence_witness(observable_x(), diagonal_povm(rng))

    def test_identity_and_zero_are_not_a_basis(self):
        # Both effects are projectors, but the identity has rank 2.
        whole = Observable(((0.0, Effect(np.eye(2))), (1.0, Effect(np.zeros((2, 2))))))
        assert not whole.is_sharp()
        with pytest.raises(ValueError, match="rank-1 orthogonal projectors"):
            measurement_coherence_witness(observable_x(), whole)

    def test_zero_witness_implies_zero_violation(self, rng):
        # diagonal second measurements admit a classical model: delta_v
        # must vanish for every input state
        for _ in range(50):
            second = diagonal_povm(rng)
            assert measurement_coherence_witness(second, observable_x()) <= 1e-12
            state = random_density(rng)
            report = delta_v(state, observable_x(), second)
            assert abs(report.delta_v) <= 1e-12


class TestWitnessMemo:
    """delta_v computes the witness once per (obs, basis) pair and keeps it
    on obs, without keeping either object alive."""

    @staticmethod
    def count_witness_computations(monkeypatch) -> list:
        calls = []
        inner = criterion.measurement_coherence_witness

        def spy(obs, basis):
            calls.append((obs, basis))
            return inner(obs, basis)

        monkeypatch.setattr(criterion, "measurement_coherence_witness", spy)
        return calls

    def test_computed_once_per_pair_across_delta_v_calls(self, monkeypatch, rng):
        calls = self.count_witness_computations(monkeypatch)
        first, second = observable_x(), observable_y(np.pi / 3)
        witnesses = {delta_v(random_density(rng), first, second).witness for _ in range(20)}
        assert calls == [(second, first)]
        assert len(witnesses) == 1
        assert witnesses.pop() == pytest.approx(np.sin(np.pi / 3) / 2.0, abs=1e-12)

    def test_each_basis_gets_its_own_value(self, monkeypatch, rng):
        calls = self.count_witness_computations(monkeypatch)
        second = observable_y(np.pi / 6)
        reference, conjugate = observable_x(), observable_y(np.pi / 2)
        for _ in range(3):
            in_reference = delta_v(random_density(rng), reference, second).witness
            in_conjugate = delta_v(random_density(rng), conjugate, second).witness
            assert in_reference == pytest.approx(0.25, abs=1e-12)
            assert in_conjugate == pytest.approx(np.cos(np.pi / 6) / 2.0, abs=1e-12)
            assert measurement_coherence_witness(second, reference) == in_reference
            assert measurement_coherence_witness(second, conjugate) == in_conjugate
        assert calls == [(second, reference), (second, conjugate)]

    def test_discarded_observables_are_freed(self, rng):
        first = observable_x()
        second = observable_y(1.0)
        for _ in range(3):
            delta_v(random_density(rng), first, second)
        dropped = weakref.ref(second)
        del second
        gc.collect()
        assert dropped() is None
        # the memo is keyed weakly: a basis used once is not kept alive either
        kept = observable_y(0.5)
        basis = observable_y(2.0)
        delta_v(random_density(rng), basis, kept)
        dropped = weakref.ref(basis)
        del basis
        gc.collect()
        assert dropped() is None


class TestCommutationImpliesNoDisturbance:
    def test_commuting_pairs_leave_statistics_unchanged(self, rng):
        for _ in range(100):
            theta = rng.uniform(0.0, np.pi)
            second = observable_y(theta)
            # unsharp first measurement built from the same projectors
            a, b = rng.uniform(0.05, 0.95, size=2)
            plus = second.effects[1].matrix
            minus = second.effects[0].matrix
            first = Observable(
                (
                    (-1.0, Effect(a * plus + b * minus)),
                    (+1.0, Effect((1 - a) * plus + (1 - b) * minus)),
                )
            )
            for eff_x in first.effects:
                for eff_y in second.effects:
                    assert commutator_norm(eff_x, eff_y) <= 1e-12
            state = random_pure(rng)
            direct = outcome_distribution(state, second)
            perturbed = outcome_distribution(luders_channel(state, first), second)
            np.testing.assert_allclose(
                direct.probabilities, perturbed.probabilities, atol=1e-10
            )
