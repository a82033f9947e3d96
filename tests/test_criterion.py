"""Classical laws, the variance-law violation, and its generalizations."""

import copy
import dataclasses
import gc
import inspect
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from measurement_coherence.channels import _luders
from measurement_coherence.qubit import _checked_variances
from conftest import (
    diagonal_povm,
    random_density,
    random_povm,
    random_pure,
    random_sharp,
    random_state,
)


def oracle_delta_v(p: float, gamma: float, theta: float) -> float:
    """Independent closed form: s^2 sin^2(t) + 2(2p-1) s sin(t) cos(t)."""
    s = 2.0 * math.sqrt(p * (1.0 - p)) * gamma
    return s * s * math.sin(theta) ** 2 + 2.0 * (2.0 * p - 1.0) * s * math.sin(
        theta
    ) * math.cos(theta)


def scaled_second(theta: float, values: tuple[float, float]) -> Observable:
    """The effects of observable_y(theta) with other outcome values."""
    return Observable(tuple(zip(values, observable_y(theta).effects)))


def plus_eigenstate(second: Observable) -> QState:
    """The state onto which second's last effect projects."""
    plus = second.effects[-1].matrix
    return QState(plus / np.trace(plus).real)


def computational_basis(dim: int) -> Observable:
    return Observable(tuple((float(k), Effect(np.diag(np.eye(dim)[k]))) for k in range(dim)))


# Reference copies of the two-step probe build and the scalar variance rule
# that criterion._pair_probe and qubit._checked_variances replace; the
# tests below hold the library bit for bit to them.


def _moment_operators(
    values: np.ndarray, effects: np.ndarray, first_channel: np.ndarray
) -> np.ndarray:
    """B = sum_y y E_y, A = sum_y y^2 E_y, Phi(B) and Phi(A) over stacked
    observables, shape (..., 4, d, d); ValueError when they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.array((values, values * values))  # (2, ..., Y)
        moments = np.einsum("k...y,...yij->...kij", powers, effects)
        operators = np.concatenate((moments, _luders(moments, first_channel)), axis=-3)
        finite = np.isfinite(np.abs(operators).sum())
    if not finite:
        raise ValueError("outcome values too large: the moment operators overflow")
    return operators


def reference_probe(first: Observable, second: Observable) -> np.ndarray:
    """_moment_operators, then its columns flat(X^T) next to I - Phi."""
    d = second.dim
    operators = _moment_operators(second._values, second._matrices, first._channel)
    return np.concatenate(
        (operators.T.reshape(d * d, 4), np.eye(d * d) - first._channel), axis=1
    )


def _clamped_variance(mean_sq: float, mean: float) -> float:
    """<y^2> - <y>^2 from two float moments; round-off negatives down to
    -1e-12 * max(<y^2>, 1) are clamped, anything below it or NaN raises."""
    var = mean_sq - mean * mean
    if not var >= -1e-12 * np.maximum(mean_sq, 1.0):
        raise ValueError(f"variance evaluated to {var}")
    return max(var, 0.0)


def probe_moments(probe: np.ndarray, state: QState) -> list[tuple[float, float]]:
    """(<A>, <B>) of the direct run and then of the dephased one, taken
    from the probe as delta_v takes them."""
    mean, mean_sq, mean_dephased, mean_sq_dephased = (
        z.real for z in state.matrix.ravel().dot(probe).tolist()[:4]
    )
    return [(mean_sq, mean), (mean_sq_dephased, mean_dephased)]


def random_valued_pair(seed: int, dim: int, sharp_first: bool, scale: float):
    """A random first measurement, sharp or not, and a random POVM second
    whose normal outcome values are multiplied by scale, with a state."""
    rng = np.random.default_rng(seed)
    first = random_sharp(rng, dim) if sharp_first else random_povm(rng, dim)
    povm = random_povm(rng, dim)
    second = Observable(tuple(zip(np.array(povm.values) * scale, povm.effects)))
    return first, second, random_state(rng, dim)


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


REPORT_FIELDS = ("v_unperturbed", "v_perturbed", "delta_v", "trace_norm_sq", "witness")
REPORT_VALUES = (0.25, 0.75, 0.5, 0.125, 0.375)
DIFFERENCE = "^delta_v is not the difference of the variances$"


class TestReportConstructor:
    """CriterionReport's one constructor is written out (it fills the five
    fields in one step); everything a dataclass's own __init__ gives holds."""

    def test_signature(self):
        parameters = inspect.signature(CriterionReport).parameters
        assert tuple(parameters) == REPORT_FIELDS
        for parameter in parameters.values():
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            assert parameter.default is inspect.Parameter.empty

    def test_positional_and_keyword_construction(self):
        by_position = CriterionReport(*REPORT_VALUES)
        by_keyword = CriterionReport(**dict(reversed(list(zip(REPORT_FIELDS, REPORT_VALUES)))))
        mixed = CriterionReport(*REPORT_VALUES[:2], witness=0.375, trace_norm_sq=0.125,
                                delta_v=0.5)
        for report in (by_position, by_keyword, mixed):
            assert vars(report) == dict(zip(REPORT_FIELDS, REPORT_VALUES))
            assert repr(report) == (
                "CriterionReport(v_unperturbed=0.25, v_perturbed=0.75, delta_v=0.5, "
                "trace_norm_sq=0.125, witness=0.375)"
            )
        for args, kwargs in ((REPORT_VALUES[:4], {}), (REPORT_VALUES, {"extra": 0.0}),
                             (REPORT_VALUES, {"witness": 0.0})):
            with pytest.raises(TypeError):
                CriterionReport(*args, **kwargs)

    def test_replace_asdict_and_fields(self):
        report = CriterionReport(*REPORT_VALUES)
        assert tuple(f.name for f in dataclasses.fields(report)) == REPORT_FIELDS
        assert dataclasses.asdict(report) == dict(zip(REPORT_FIELDS, REPORT_VALUES))
        assert dataclasses.replace(report) == report
        changed = dataclasses.replace(report, v_perturbed=1.0, delta_v=0.75, witness=0.0)
        assert vars(changed) == dict(zip(REPORT_FIELDS, (0.25, 1.0, 0.75, 0.125, 0.0)))
        with pytest.raises(ValueError, match=DIFFERENCE):
            dataclasses.replace(report, delta_v=0.0)

    def test_equality_and_hash(self):
        report, same = CriterionReport(*REPORT_VALUES), CriterionReport(*REPORT_VALUES)
        assert report is not same
        assert report == same
        assert hash(report) == hash(same) == hash(REPORT_VALUES)
        assert report != dataclasses.replace(report, witness=0.0)
        assert report != REPORT_VALUES

    def test_pickle_and_copies(self):
        reports = (CriterionReport(*REPORT_VALUES),
                   delta_v(make_state(0.3, 0.8), observable_x(), observable_y(1.0)))
        for report in reports:
            for copied in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                           copy.deepcopy(report)):
                assert type(copied) is CriterionReport
                assert copied == report
                assert repr(copied) == repr(report)

    def test_frozen(self):
        report = CriterionReport(*REPORT_VALUES)
        for name in REPORT_FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(report, name)
        assert vars(report) == dict(zip(REPORT_FIELDS, REPORT_VALUES))

    @pytest.mark.parametrize("values", [
        (0.2, 0.5, 0.1, 0.0, 0.0),
        (0.2, 0.5, 0.3 + 2e-12, 0.0, 0.0),
        (math.nan, 0.5, 0.3, 0.0, 0.0),
        (0.2, math.nan, 0.3, 0.0, 0.0),
        (0.2, 0.5, math.nan, 0.0, 0.0),
        (math.inf, math.inf, 0.0, 0.0, 0.0),
    ])
    def test_difference_message(self, values):
        with pytest.raises(ValueError, match=DIFFERENCE):
            CriterionReport(*values)
        with pytest.raises(ValueError, match=DIFFERENCE):
            CriterionReport(**dict(zip(REPORT_FIELDS, values)))


class TestVarianceFloor:
    def test_state_at_the_eigenvalue_tolerance_gives_a_negative_variance(self):
        # QState accepts eigenvalues down to -1e-10; the variance on this
        # one falls below the -1e-12 round-off floor, and delta_v says so.
        state = QState(np.diag([1 + 5e-11, -5e-11]))
        with pytest.raises(ValueError, match="variance evaluated to"):
            delta_v(state, observable_x(), observable_x())

    def test_a_double_failure_names_the_direct_run(self):
        # Both runs fall below the floor, the dephased one further; the
        # direct one is checked first, and it is the one named.
        y = observable_y(1.0)
        minus, plus = (effect.matrix for effect in y.effects)
        state = QState((1 + 5e-11) * plus - 5e-11 * minus)
        with pytest.raises(ValueError, match=r"^variance evaluated to -2\.000000165480742e-10$"):
            delta_v(state, y, y)
        probe, _witness = y._pairs[y]
        assert [mean_sq - mean * mean for mean_sq, mean in probe_moments(probe, state)] == [
            -2.000000165480742e-10,
            -2.0000046063728405e-10,
        ]


class TestDimensionMismatch:
    """delta_v checks the state against first, then against second, and
    raises from the first check that fails."""

    qubit = make_state(0.3, 0.8)

    @staticmethod
    def record_checks(monkeypatch) -> list:
        checked = []
        check = criterion._check_same_dim

        def spy(a, b):
            checked.append((a, b))
            check(a, b)

        monkeypatch.setattr(criterion, "_check_same_dim", spy)
        return checked

    def test_state_against_first_is_checked_first(self, monkeypatch):
        checked = self.record_checks(monkeypatch)
        first, second = computational_basis(3), computational_basis(3)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            delta_v(self.qubit, first, second)
        assert checked == [(self.qubit, first)]
        del checked[:]
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            delta_v(self.qubit, first, computational_basis(4))
        assert checked == [(self.qubit, first)]

    def test_a_matching_first_leaves_the_state_against_second(self, monkeypatch):
        checked = self.record_checks(monkeypatch)
        first = observable_x()
        for dim in (3, 4, 1):
            second = computational_basis(dim)
            with pytest.raises(ValueError, match=rf"^dimension mismatch: 2 vs {dim}$"):
                delta_v(self.qubit, first, second)
            assert checked[-2:] == [(self.qubit, first), (self.qubit, second)]

    def test_a_qutrit_against_two_qubit_measurements(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 3 vs 2$"):
            delta_v(QState(np.eye(3) / 3), observable_x(), observable_x())


def assert_clamped_variances(report, state, first, second) -> list[tuple[float, float]]:
    """The report's variances are bit for bit the reference _clamped_variance
    of the moments delta_v takes from the pair's probe.  Returns those
    moments, (<A>, <B>) of the direct run and then of the dephased one."""
    probe, _witness = second._pairs[first]
    moments = probe_moments(probe, state)
    assert [report.v_unperturbed.hex(), report.v_perturbed.hex()] == [
        _clamped_variance(*pair).hex() for pair in moments
    ]
    return moments


class TestInlineVariances:
    """delta_v takes <A> - <B>^2 inline and calls qubit._checked_variances
    only when a variance is negative or NaN; either way it reports what the
    reference _clamped_variance returns for the same moments."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), sharp_first=st.booleans())
    def test_random_states_and_measurements(self, dim, seed, sharp_first):
        rng = np.random.default_rng(seed)
        first = random_sharp(rng, dim) if sharp_first else random_povm(rng, dim)
        second = random_povm(rng, dim)
        state = random_state(rng, dim)
        assert_clamped_variances(delta_v(state, first, second), state, first, second)

    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(0.01, 3.1), scale=st.sampled_from([1e4, 1e100]))
    @example(theta=0.01, scale=1e100)
    @example(theta=3.1, scale=1e4)
    def test_eigenstates_at_large_values(self, theta, scale):
        second = scaled_second(theta, (0.0, scale))
        state = plus_eigenstate(second)
        for first in (observable_x(), second):
            assert_clamped_variances(delta_v(state, first, second), state, first, second)

    def test_the_eigenstate_corpus_runs_the_clamp(self, monkeypatch):
        calls = []
        checked_variances = criterion._checked_variances

        def spy(mean_sq, mean):
            calls.append((mean_sq, mean))
            return checked_variances(mean_sq, mean)

        monkeypatch.setattr(criterion, "_checked_variances", spy)
        first = observable_x()
        negatives = 0
        for scale in (1e4, 1e100):
            for theta in np.linspace(0.01, 3.1, 200):
                second = scaled_second(theta, (0.0, scale))
                state = plus_eigenstate(second)
                del calls[:]
                report = delta_v(state, first, second)
                moments = assert_clamped_variances(report, state, first, second)
                if min(mean_sq - mean * mean for mean_sq, mean in moments) < 0.0:
                    negatives += 1
                    assert calls == moments  # both runs, the direct one first
                else:
                    assert calls == []
        assert negatives > 0  # the corpus does reach the fallback


def probe_or_message(build, first: Observable, second: Observable):
    """dtype, shape and bytes of a probe build, or its ValueError text."""
    try:
        probe = build(first, second)
    except ValueError as error:
        return str(error)
    return probe.dtype, probe.shape, probe.tobytes()


def variance_or_message(rule, mean_sq, mean):
    """The bits of a variance rule's float result, or its ValueError text."""
    try:
        return float(rule(mean_sq, mean)).hex()
    except ValueError as error:
        return str(error)


class TestOneProbeAndOneVarianceRule:
    """criterion._pair_probe is bit for bit the two-step build
    (reference_probe), and qubit._checked_variances the scalar rule
    (_clamped_variance), on one float pair at a time as delta_v calls it
    and on a stack of them; where the references raise, they raise the
    same text."""

    @staticmethod
    def assert_matches_the_references(first, second, state):
        expected = probe_or_message(reference_probe, first, second)
        assert probe_or_message(criterion._pair_probe, first, second) == expected
        if isinstance(expected, str):
            return
        probe = criterion._pair_probe(first, second)
        assert probe.flags.writeable is False
        moments = probe_moments(probe, state)
        references = [variance_or_message(_clamped_variance, *pair) for pair in moments]
        assert [variance_or_message(_checked_variances, *pair) for pair in moments] == references
        if not any(isinstance(ref, str) for ref in references):
            stacked = _checked_variances(*map(np.array, zip(*moments)))
            assert [float(v).hex() for v in stacked] == references

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        sharp_first=st.booleans(),
        scale=st.sampled_from([1.0, 1e-3, 1e4, 1e100, 1e154]),
    )
    def test_random_pairs_with_random_values(self, dim, seed, sharp_first, scale):
        self.assert_matches_the_references(*random_valued_pair(seed, dim, sharp_first, scale))

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(0.01, 3.1), scale=st.sampled_from([1e4, 1e100, 1e154]))
    @example(theta=0.01, scale=1e100)
    @example(theta=3.1, scale=1e154)
    def test_scaled_eigenstates(self, theta, scale):
        second = scaled_second(theta, (0.0, scale))
        for first in (observable_x(), second):
            self.assert_matches_the_references(first, second, plus_eigenstate(second))

    def test_the_floor_and_the_double_failure(self):
        y = observable_y(1.0)
        minus, plus = (effect.matrix for effect in y.effects)
        self.assert_matches_the_references(y, y, QState((1 + 5e-11) * plus - 5e-11 * minus))
        # On diag(1 + e, -e) the variance of x is about -4e: below the
        # floor for the first two, clamped for the last two.
        x = observable_x()
        for e in (5e-11, 1e-12, 2e-13, 1e-13):
            self.assert_matches_the_references(x, x, QState(np.diag([1 + e, -e])))


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

    def test_pair_probe(self):
        with pytest.raises(ValueError, match="overflow"):
            criterion._pair_probe(observable_x(), self.second)

    def test_outcome_distribution_variance(self):
        with pytest.raises(ValueError, match="overflow"):
            OutcomeDistribution((0.0, 1e200), [0.5, 0.5]).variance()

    def test_law_of_total_variance_decomposition(self):
        # the y-marginal variance, 3.996e305, fits; the conditional means'
        # squared deviations do not
        joint = JointDistribution((0.0, 1.0), (-1e154, 1e154), [[1e-3, 0.0], [0.0, 0.999]])
        with pytest.raises(ValueError, match="overflow"):
            law_of_total_variance_decomposition(joint)

    def test_large_values_that_fit_scale_as_their_square(self):
        unit = delta_v(self.state, observable_x(), scaled_second(1.0, (0.0, 1.0)))
        large = delta_v(self.state, observable_x(), scaled_second(1.0, (0.0, 1e100)))
        assert large.delta_v == pytest.approx(1e200 * unit.delta_v, rel=1e-12)


class TestMomentMemo:
    """delta_v builds the probe (criterion._pair_probe) and the witness once
    per (first, second) pair and keeps them in one entry on second, without
    keeping either observable alive."""

    @staticmethod
    def count_builds(monkeypatch) -> tuple[list, list]:
        builds, witnesses = [], []
        pair_probe = criterion._pair_probe
        witness = criterion.measurement_coherence_witness

        def spy_probe(first, second):
            builds.append((first, second))
            return pair_probe(first, second)

        def spy_witness(obs, basis):
            witnesses.append((obs, basis))
            return witness(obs, basis)

        monkeypatch.setattr(criterion, "_pair_probe", spy_probe)
        monkeypatch.setattr(criterion, "measurement_coherence_witness", spy_witness)
        return builds, witnesses

    def test_built_once_per_pair_across_delta_v_calls(self, monkeypatch, rng):
        builds, witnesses = self.count_builds(monkeypatch)
        first, second = observable_x(), observable_y(np.pi / 3)
        reported = {delta_v(random_density(rng), first, second).witness for _ in range(20)}
        assert builds == [(first, second)]
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
        assert builds == [(reference, second), (conjugate, second)]
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

    def test_tiny_coherence_keeps_its_sign(self):
        # 1 - m'^2 minus 1 - m^2 rounds this to 0.0; the factored form keeps it
        expected = -4e-17 * math.sin(1.0) * math.cos(1.0)
        assert analytic_delta_v(1e-34, 1.0, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert math.copysign(1.0, analytic_delta_v(1.0, 0.0, 2.0)) == 1.0  # not -0.0


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

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf, pytest.param(10**400, id="10**400")])
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
