"""States, observables, and small-matrix operations."""

import ast
import copy
import decimal
import math
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import measurement_coherence
from measurement_coherence import (
    Effect,
    Observable,
    QState,
    commutator_norm,
    delta_v,
    expectation,
    half_trace_norm_distance,
    make_state,
    observable_x,
    observable_y,
    trace_norm_distance,
    variance,
)
from measurement_coherence.qubit import _born, _family_states, _trace_norm
from conftest import (
    assert_passes_public_checks,
    random_density,
    random_povm,
    random_sharp,
    random_state,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)

KET_H = np.array([1.0, 0.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def state_h() -> QState:
    return QState(np.outer(KET_H, KET_H))


def closed_form_mean(p, gamma, theta):
    return (2 * p - 1) * math.cos(theta) + 2 * math.sqrt(p * (1 - p)) * gamma * math.sin(theta)


class TestMakeState:
    def test_degenerate_population_is_h_projector(self):
        np.testing.assert_allclose(
            make_state(0.0, 1.0).matrix, np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_balanced_pure_state_is_all_halves(self):
        np.testing.assert_allclose(
            make_state(0.5, 1.0).matrix, np.full((2, 2), 0.5), atol=1e-15
        )

    def test_off_diagonal_value(self):
        # direct arithmetic on the matrix entries
        expected = math.sqrt(0.165 * 0.835)
        state = make_state(0.165, 1.0)
        assert state.matrix[0, 1] == pytest.approx(expected, abs=1e-15)
        # positivity cross-check via the eigenvalue oracle
        assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-15

    def test_phase_enters_off_diagonal_only(self):
        state = make_state(0.3, 0.7, phi=1.1)
        mag = math.sqrt(0.3 * 0.7) * 0.7
        assert state.matrix[0, 1] == pytest.approx(mag * np.exp(-1.1j), abs=1e-15)
        np.testing.assert_allclose(np.diag(state.matrix).real, [0.7, 0.3], atol=1e-15)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_population_out_of_range(self, p):
        with pytest.raises(ValueError):
            make_state(p, 0.5)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            make_state(0.5, 1.5)

    def test_negative_gamma_is_accepted(self):
        state = make_state(0.5, -1.0)
        assert state.matrix[0, 1] == pytest.approx(-0.5)

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(0.0, 1.0), gamma=st.floats(-1.0, 1.0), phi=st.floats(-1e6, 1e6))
    @example(p=0.0, gamma=1.0, phi=0.0)
    @example(p=1.0, gamma=-1.0, phi=-0.0)
    @example(p=0.5, gamma=0.0, phi=-0.0)
    @example(p=0.5, gamma=-0.0, phi=-0.0)
    @example(p=5e-324, gamma=-0.0, phi=0.0)
    @example(p=0.3, gamma=0.7, phi=1e6)
    @example(p=0.3, gamma=0.7, phi=-1e6)
    def test_scalar_builder_matches_the_stacked_kernel(self, p, gamma, phi):
        stacked = _family_states(p, math.sqrt(p * (1.0 - p)) * gamma * np.exp(1j * phi))
        assert make_state(p, gamma, phi).matrix.tobytes() == stacked.tobytes()

    def test_eigenvalues_stay_in_unit_interval_on_grid(self):
        for p in np.linspace(0.0, 1.0, 20):
            for gamma in np.linspace(0.0, 1.0, 20):
                for phi in np.linspace(0.0, 2 * np.pi, 8):
                    eigs = np.linalg.eigvalsh(make_state(p, gamma, phi).matrix)
                    assert eigs[0] >= -1e-12
                    assert eigs[-1] <= 1.0 + 1e-12


class TestObservableY:
    def test_theta_zero_is_reference_observable(self):
        obs = observable_y(0.0)
        assert obs.values == (-1.0, +1.0)
        np.testing.assert_allclose(obs.effects[0].matrix, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(obs.effects[1].matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_quarter_turn_gives_conjugate_basis_projectors(self):
        obs = observable_y(np.pi / 2)
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(obs.effects[1].matrix, plus, atol=1e-15)
        np.testing.assert_allclose(obs.effects[0].matrix, minus, atol=1e-15)

    def test_projectors_match_eigendecomposition_oracle(self):
        # independent route: numpy eigendecomposition of the operator matrix
        operator = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
        eigenvalues, vectors = np.linalg.eigh(operator)
        obs = observable_y(np.pi / 3)
        for value, eff in obs.outcomes:
            idx = int(np.argmin(np.abs(eigenvalues - value)))
            projector = np.outer(vectors[:, idx], vectors[:, idx].conj())
            np.testing.assert_allclose(eff.matrix, projector, atol=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0.0, 2 * np.pi, 37))
    def test_projector_algebra(self, theta):
        plus = observable_y(theta).effects[1].matrix
        minus = observable_y(theta).effects[0].matrix
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
        np.testing.assert_allclose(minus @ minus, minus, atol=1e-12)
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(plus @ minus, np.zeros((2, 2)), atol=1e-12)


class TestObservableX:
    def test_values_and_projectors(self):
        obs = observable_x()
        assert obs.values == (-1.0, +1.0)
        np.testing.assert_allclose(obs.effects[0].matrix, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(obs.effects[1].matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_completeness(self):
        total = sum(e.matrix for e in observable_x().effects)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-15)

    def test_commutes_with_untilted_observable(self):
        for eff_a in observable_x().effects:
            for eff_b in observable_y(0.0).effects:
                assert commutator_norm(eff_a, eff_b) <= 1e-15

    def test_each_call_builds_a_fresh_observable(self):
        assert observable_x() is not observable_x()
        assert not observable_x()._channel.flags.writeable


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(state_h(), observable_x()) == pytest.approx(-1.0, abs=1e-12)

    def test_plus_state_on_conjugate_axis(self):
        # matrix oracle: <+|sigma_x|+> computed from raw arrays
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        oracle = float(np.real(KET_PLUS @ sigma_x @ KET_PLUS))
        got = expectation(make_state(0.5, 1.0), observable_y(np.pi / 2))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(1.0)

    def test_closed_form_on_grid(self):
        for p in np.linspace(0.0, 1.0, 11):
            for gamma in np.linspace(0.0, 1.0, 5):
                state = make_state(p, gamma)
                for theta in np.linspace(0.0, np.pi, 9):
                    got = expectation(state, observable_y(theta))
                    assert got == pytest.approx(
                        closed_form_mean(p, gamma, theta), abs=1e-12
                    )

    def test_dimension_mismatch(self):
        four = QState(np.eye(4) / 4.0)
        with pytest.raises(ValueError, match="dimension"):
            expectation(four, observable_x())


class TestVariance:
    def test_eigenstate_has_zero_variance(self):
        assert variance(state_h(), observable_x()) == pytest.approx(0.0, abs=1e-15)

    def test_plus_state_on_reference_axis(self):
        assert variance(make_state(0.5, 1.0), observable_x()) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_on_grid(self):
        for p in np.linspace(0.0, 1.0, 11):
            for gamma in np.linspace(0.0, 1.0, 5):
                state = make_state(p, gamma)
                for theta in np.linspace(0.0, np.pi, 9):
                    expected = 1.0 - closed_form_mean(p, gamma, theta) ** 2
                    assert variance(state, observable_y(theta)) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_never_negative(self, rng):
        for _ in range(200):
            state = random_density(rng)
            theta = rng.uniform(0.0, np.pi)
            assert variance(state, observable_y(theta)) >= 0.0

    def test_overflow_is_an_error_that_says_so(self):
        minus, plus = observable_y(1.0).effects
        second = Observable(((0.0, minus), (1e200, plus)))
        with pytest.raises(ValueError, match="overflow"):
            variance(make_state(0.3, 0.8), second)


def random_hermitian(rng: np.random.Generator, shape: tuple, dim: int) -> np.ndarray:
    """Complex Hermitian matrices (*shape, dim, dim) with entries from 1e-8 to 1e8."""
    size = shape + (dim, dim)
    g = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.integers(
        -8, 9, size)
    return g + np.swapaxes(g, -1, -2).conj()


def broadcast_born(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """The Born rule as the einsum over broadcast stacks that _born replaced."""
    return np.einsum("...ij,...yji->...y", states, effects).real


class TestBornRule:
    # _born must give the bytes of the broadcast einsum in every caller's
    # layout, so that no output moves with it.

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 4), outcomes=st.integers(1, 5), stack=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_one_state_and_a_stack_match_the_broadcast_einsum(self, dim, outcomes, stack, seed):
        rng = np.random.default_rng(seed)
        effects = random_hermitian(rng, (outcomes,), dim)
        states = random_hermitian(rng, (stack,), dim)
        # One state (outcome_distribution, variance, run_setting); a stack
        # (sequential_joint's branches, _direct_and_dephased's pair).
        for rho in (states[0], states):
            assert np.array_equal(_born(rho, effects), broadcast_born(rho, effects))

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 4), axis=st.integers(1, 4), runs=st.integers(1, 3),
           angles=st.integers(1, 4), outcomes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_engine_layout_matches_the_broadcast_einsum(
            self, dim, axis, runs, angles, outcomes, seed):
        # The engine meets (axis, run) signals with the (angle, outcome)
        # effects as one stack and reads the product as (axis, angle, run,
        # outcome).
        rng = np.random.default_rng(seed)
        signals = random_hermitian(rng, (axis, runs), dim)
        effects = random_hermitian(rng, (angles, outcomes), dim)
        born = _born(signals, effects.reshape(-1, dim, dim))
        assert np.array_equal(born.reshape(axis, runs, angles, outcomes).swapaxes(1, 2),
                              broadcast_born(signals[:, None], effects[None, :, None]))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(Effect(np.eye(2)).sqrt, np.eye(2), atol=1e-12)

    def test_projector_is_its_own_root(self):
        proj = observable_y(0.7).effects[1]
        np.testing.assert_allclose(proj.sqrt, proj.matrix, atol=1e-12)

    def test_diagonal_quarter(self):
        root = Effect(np.diag([0.25, 1.0])).sqrt
        np.testing.assert_allclose(root, np.diag([0.5, 1.0]), atol=1e-12)

    def test_square_recovers_effect(self, rng):
        for _ in range(100):
            # random PSD contraction with spectrum in [0, 1]
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mat = g @ g.conj().T
            mat /= np.linalg.eigvalsh(mat)[-1] * (1.0 + rng.uniform(0.0, 1.0))
            root = Effect(mat).sqrt
            np.testing.assert_allclose(root @ root, mat, atol=1e-10)

    def test_non_psd_effect_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Effect(np.diag([-0.2, 1.0]))


def random_projectors(dim: int, seed: int) -> list[np.ndarray]:
    """The rank-1 projectors of a random orthonormal basis of C^dim."""
    g = np.random.default_rng(seed).normal(size=(2, dim, dim))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    return [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]


def observable_of(matrices) -> Observable:
    return Observable(tuple((float(k), Effect(m)) for k, m in enumerate(matrices)))


class TestSharpness:
    """An observable is sharp when every effect is a rank-1 projector, and
    then sharp_basis holds the effects' eigenvectors in outcome order."""

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_random_basis_is_sharp_and_diagonalized_by_its_columns(self, dim, seed):
        basis = observable_of(random_projectors(dim, seed))
        assert basis.is_sharp()
        columns = basis.sharp_basis
        for k, effect in enumerate(basis.effects):
            in_basis = columns.conj().T @ effect.matrix @ columns
            np.testing.assert_allclose(in_basis, np.diag(np.eye(dim)[k]), rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_rank_two_or_moved_eigenvalues_decide_by_the_spectrum(self, dim, seed):
        first, second, *rest = random_projectors(dim, seed)
        assert not observable_of([first + second, *rest]).is_sharp()
        # The first two effects trade weight `offset`, so their eigenvalues
        # sit `offset` away from 0 and 1.
        for offset, sharp in ((1e-8, False), (1e-13, True)):
            moved = [(1.0 - offset) * first + offset * second,
                     offset * first + (1.0 - offset) * second, *rest]
            assert observable_of(moved).is_sharp() is sharp


class TestTraceNormDistance:
    def test_zero_on_equal_states(self):
        state = make_state(0.3, 0.5)
        assert trace_norm_distance(state, state) == pytest.approx(0.0, abs=1e-15)

    def test_pure_vs_dephased_balanced(self):
        # oracle: the difference matrix has eigenvalues +-1/2
        got = trace_norm_distance(make_state(0.5, 1.0), make_state(0.5, 0.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_dephasing_distance_closed_form(self):
        for p in np.linspace(0.0, 1.0, 11):
            for gamma in np.linspace(0.0, 1.0, 6):
                state = make_state(p, gamma)
                dephased = QState(np.diag(np.diag(state.matrix)))
                expected = 2.0 * math.sqrt(p * (1 - p)) * gamma
                got = trace_norm_distance(state, dephased)
                assert got == pytest.approx(expected, abs=1e-12)
                assert got * got == pytest.approx(4 * p * (1 - p) * gamma**2, abs=1e-12)

    def test_half_normalized_variant(self):
        a, b = make_state(0.5, 1.0), make_state(0.5, 0.0)
        assert half_trace_norm_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (random_density(rng) for _ in range(3))
            d_ab = trace_norm_distance(a, b)
            d_ba = trace_norm_distance(b, a)
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab <= trace_norm_distance(a, c) + trace_norm_distance(c, b) + 1e-12


# Unit-scale floats on a 2**-52 grid: scaled by up to 1e-150 they stay far
# from the subnormal range, where no relative bound holds.
UNIT = st.integers(-(2**52), 2**52).map(lambda n: n / 2**52)


@st.composite
def hermitian_2x2(draw) -> np.ndarray:
    """Hermitian [[a, conj(c)], [c, e]]: general, traceless, zero or rank 1,
    with entries scaled by 10**k for k in [-150, 150]."""
    shape = draw(st.sampled_from(("general", "traceless", "zero", "rank-1")))
    a, e, re, im = (draw(UNIT) for _ in range(4))
    c = complex(re, im)
    if shape == "traceless":
        e = -a
    elif shape == "zero":
        a = e = c = 0.0
    elif shape == "rank-1":  # e * v v^dagger with v = (a, c)
        a, e, c = e * a * a, e * abs(c) ** 2, e * c * a
    scale = 10.0 ** draw(st.integers(-150, 150))
    return np.array([[a, np.conj(c)], [c, e]]) * scale


def exact_trace_norm(matrix: np.ndarray) -> float:
    """max(|a + e|, sqrt((a - e)^2 + 4|c|^2)) in 100-digit decimal
    arithmetic from the exact values of the float entries."""
    with decimal.localcontext() as context:
        context.prec = 100
        a, e = (decimal.Decimal(matrix[i, i].real) for i in (0, 1))
        c = matrix[1, 0]
        c_sq = decimal.Decimal(c.real) ** 2 + decimal.Decimal(c.imag) ** 2
        return float(max(abs(a + e), ((a - e) ** 2 + 4 * c_sq).sqrt()))


def _qubit_trace_norm(entries: list) -> float:
    """Reference copy of the closed-form 2x2 trace norm that delta_v takes
    inline at d = 2.  The matrix is Hermitian [[a, .], [c, e]], given as
    its four entries in row order; its eigenvalues are
    (a + e)/2 +- hypot(a - e, 2|c|)/2, so the sum of their magnitudes is
    the larger of |a + e| and hypot(a - e, 2|c|).  Reads the lower entry c,
    as eigvalsh does; hypot squares nothing, so entries from 1e-150 to
    1e150 keep full relative precision."""
    a = entries[0].real
    e = entries[3].real
    return max(abs(a + e), math.hypot(a - e, 2.0 * abs(entries[2])))


# One outcome, value 0: both variances are 0 on any Hermitian matrix, so
# delta_v reports the trace norm of a "state" of any scale.
CONSTANT = Observable(((0.0, Effect(np.eye(2))),))


class TestQubitTraceNorm:
    """The closed-form 2x2 trace norm behind delta_v at d = 2, held to
    eigvalsh and exact arithmetic through its reference copy, and
    delta_v's inline form held to that copy bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(matrix=hermitian_2x2())
    @example(matrix=np.zeros((2, 2), dtype=complex))
    @example(matrix=np.array([[1e150, 1e150], [1e150, 1e150]], dtype=complex))
    @example(matrix=np.array([[1e-150, 0.0], [0.0, -1e-150]], dtype=complex))
    def test_matches_eigvalsh(self, matrix):
        got = _qubit_trace_norm(matrix.reshape(-1).tolist())
        # within 1e-15 of the exact value, and within eigvalsh's own error
        # of it: eigvalsh alone errs by up to 1.4e-15 relative on rank-1
        # and nearly diagonal matrices
        assert abs(got - exact_trace_norm(matrix)) <= 1e-15 * got
        reference = float(_trace_norm(matrix))
        assert abs(got - reference) <= 2e-15 * reference

    def test_reads_the_lower_entry(self):
        # eigvalsh reads only the lower triangle, so the upper entry of
        # this non-Hermitian matrix must not count; nor does it here
        matrix = np.array([[0.5, 0.3 + 1e-3j], [0.1 - 0.2j, -0.25]])
        got = _qubit_trace_norm(matrix.reshape(-1).tolist())
        assert got == pytest.approx(float(_trace_norm(matrix)), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), matrix=st.none() | hermitian_2x2())
    @example(seed=0, matrix=np.array([[1e150, 1e150], [1e150, 1e150]], dtype=complex))
    @example(seed=0, matrix=np.array([[1e-150, 1e-150j], [-1e-150j, -1e-150]], dtype=complex))
    def test_delta_v_takes_the_reference_bit_for_bit(self, seed, matrix):
        # A random state under random measurements; or a Hermitian matrix
        # of scale 1e-150 to 1e150, built unchecked, under a random first
        # measurement and CONSTANT.
        rng = np.random.default_rng(seed)
        first = random_sharp(rng, 2) if rng.random() < 0.5 else random_povm(rng, 2)
        if matrix is None:
            state, second = random_state(rng, 2), random_povm(rng, 2)
        else:
            state, second = QState._trusted(matrix.astype(np.complex128)), CONSTANT
        report = delta_v(state, first, second)
        probe, _ = second._pairs[first]
        reference = _qubit_trace_norm(state.matrix.ravel().dot(probe).tolist()[4:])
        assert report.trace_norm_sq.hex() == (reference * reference).hex()


class TestCommutatorNorm:
    def test_self_commutator_vanishes(self):
        eff = observable_y(0.9).effects[0]
        assert commutator_norm(eff, eff) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_diagonal_projectors(self):
        a = Effect(np.diag([1.0, 0.0]))
        b = Effect(np.diag([0.0, 1.0]))
        assert commutator_norm(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_h_versus_plus_projector(self):
        # explicit 2x2 commutator in raw numpy
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.full((2, 2), 0.5).astype(complex)
        oracle = np.max(np.abs(a @ b - b @ a))
        got = commutator_norm(Effect(a), Effect(b))
        assert got == pytest.approx(float(oracle), abs=1e-15)
        assert got == pytest.approx(0.5, abs=1e-12)


class TestValidation:
    def test_non_hermitian_state_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_trace_must_be_one(self):
        with pytest.raises(ValueError, match="trace"):
            QState(np.diag([0.7, 0.7]))

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            QState(np.array([[1.2, 0.0], [0.0, -0.2]]))

    @pytest.mark.parametrize("build", [lambda: QState(np.ones((2, 3))),
                                       lambda: Effect(np.ones(3))], ids=["state", "effect"])
    def test_matrix_must_be_square(self, build):
        with pytest.raises(ValueError, match="expected a square matrix"):
            build()

    def test_effect_spectrum_capped_at_one(self):
        with pytest.raises(ValueError, match="spectrum"):
            Effect(np.diag([1.4, 0.0]))

    def test_observable_requires_completeness(self):
        half = Effect(np.eye(2) * 0.5)
        quarter = Effect(np.eye(2) * 0.25)
        with pytest.raises(ValueError, match="identity"):
            Observable(((-1.0, half), (+1.0, quarter)))

    def test_observable_requires_distinct_values(self):
        half = Effect(np.eye(2) * 0.5)
        with pytest.raises(ValueError, match="distinct"):
            Observable(((1.0, half), (1.0, half)))

    def test_observable_requires_an_outcome(self):
        with pytest.raises(ValueError, match="no outcomes"):
            Observable(())

    def test_observable_requires_effects_of_one_dimension(self):
        with pytest.raises(ValueError, match=r"mismatched dimensions \[2, 3\]"):
            Observable(((0.0, Effect(np.eye(2))), (1.0, Effect(np.zeros((3, 3))))))

    def test_observable_requires_effects_not_bare_matrices(self):
        with pytest.raises(ValueError, match="Effect"):
            Observable(((0.0, np.diag([1.0, 0.0])), (1.0, np.diag([0.0, 1.0]))))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QState(np.full((2, 2), np.nan)),
            lambda: Effect(np.full((2, 2), np.nan)),
            lambda: observable_y(np.nan),
            lambda: make_state(0.5, 1.0, phi=np.nan),
            lambda: Observable(((np.nan, Effect(np.diag([1.0, 0.0]))),
                                (1.0, Effect(np.diag([0.0, 1.0]))))),
            lambda: observable_y(np.inf),
            lambda: observable_y(-np.inf),
            lambda: make_state(0.5, 1.0, phi=np.inf),
            lambda: make_state(0.5, 1.0, phi=-np.inf),
        ],
        ids=["state-nan", "effect-nan", "observable-y-nan",
             "make-state-phase-nan", "observable-value-nan",
             "observable-y-inf", "observable-y-minus-inf",
             "make-state-phase-inf", "make-state-phase-minus-inf"],
    )
    def test_non_finite_input_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestTrustedBuilders:
    """make_state and observable_y build their values without the matrix
    checks; every value they return must pass them."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), gamma=st.floats(-1.0, 1.0), phi=FINITE)
    @example(p=0.0, gamma=1.0, phi=0.0)
    @example(p=1.0, gamma=-1.0, phi=math.pi)
    @example(p=0.5, gamma=1.0, phi=1e6 + 0.3)
    @example(p=0.5, gamma=-1.0, phi=-1e6)
    @example(p=5e-324, gamma=1.0, phi=1.7e308)
    def test_family_state(self, p, gamma, phi):
        assert_passes_public_checks(make_state(p, gamma, phi))

    @settings(max_examples=300, deadline=None)
    @given(theta=FINITE)
    @example(theta=0.0)
    @example(theta=math.pi / 2)
    @example(theta=1e6 + 0.3)
    @example(theta=-1e6)
    @example(theta=1.7e308)
    def test_tilted_observable(self, theta):
        assert_passes_public_checks(observable_y(theta))

    def test_reference_observable(self):
        assert_passes_public_checks(observable_x())

    def test_each_value_type_gets_its_own_field_names(self):
        # Built one after another, so a field-name cache shared across the
        # value types would hand the later ones the first one's names.
        state = make_state(0.3, 0.5)
        effect = Effect._trusted(np.diag([1.0, 0.0]).astype(np.complex128))
        obs = observable_y(0.4)
        assert vars(state).keys() == {"matrix"}
        assert vars(effect).keys() == {"matrix"}
        assert vars(obs).keys() == {"outcomes"}
        assert obs.outcomes[0][0] == -1.0


class TestReadOnlyMatrices:
    """Objects copy their input and freeze it, so no write can bypass the
    constructor checks or leave a cached quantity stale."""

    def test_in_place_write_raises(self):
        state = make_state(0.3, 0.9)
        obs = observable_y(0.4)
        effect = obs.effects[1]
        for array in (state.matrix, effect.matrix, effect.sqrt, obs._values,
                      obs._matrices, obs._roots, obs._channel, obs.sharp_basis):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_effect_stack_is_the_stacked_effect_matrices(self, rng):
        # a POVM built through the checked constructors, and a trusted one
        for obs in (random_povm(rng, 3, outcomes=4), observable_y(0.4)):
            stacked = np.stack([e.matrix for e in obs.effects])
            got = obs._matrices
            assert (got.dtype, got.shape) == (stacked.dtype, stacked.shape)
            assert got.tobytes() == stacked.tobytes()
            assert got.flags.c_contiguous
            assert got.flags.writeable is False

    def test_mutating_the_source_array_leaves_the_object_unchanged(self):
        source = np.diag([0.25, 0.75]).astype(np.complex128)
        state = QState(source)
        effect = Effect(source)
        source[0, 1] = source[1, 0] = 0.5
        source[0, 0] = 2.0
        for obj in (state, effect):
            np.testing.assert_array_equal(obj.matrix, np.diag([0.25, 0.75]))
            assert obj.matrix is not source

    def test_observable_caches_follow_the_effects_it_was_built_from(self):
        minus = np.diag([1.0, 0.0]).astype(np.complex128)
        plus = np.diag([0.0, 1.0]).astype(np.complex128)
        obs = Observable(((-1.0, Effect(minus)), (+1.0, Effect(plus))))
        channel = obs._channel.copy()
        minus[:] = plus[:] = 0.5  # both sources now hold a different POVM
        np.testing.assert_array_equal(obs._matrices, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        np.testing.assert_array_equal(obs._channel, channel)
        assert variance(make_state(0.5, 1.0), obs) == 1.0

    def test_cached_dimension_survives_copy_and_pickle(self):
        obs = observable_y(0.4)
        assert obs.dim == 2  # fills the cache
        for copied in (pickle.loads(pickle.dumps(obs)), copy.copy(obs), copy.deepcopy(obs)):
            assert copied.dim == 2
            assert delta_v(make_state(0.3, 0.5), copied, obs) == delta_v(
                make_state(0.3, 0.5), obs, obs
            )
        qutrit = QState(np.eye(3) / 3.0)
        for first, second in ((obs, observable_x()), (observable_x(), obs)):
            with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
                delta_v(qutrit, first, second)

    def test_pickle_and_copy_rebuild_through_the_constructor(self):
        first, second = observable_x(), observable_y(1.0)
        state = make_state(0.3, 0.5)
        report = delta_v(state, first, second)  # fills the caches and the memo
        for copied in (pickle.loads(pickle.dumps((state, first, second))),
                       copy.deepcopy((state, first, second))):
            assert copied[0].matrix.flags.writeable is False
            assert copied[2]._matrices.flags.writeable is False
            np.testing.assert_array_equal(copied[2]._channel, second._channel)
            assert delta_v(*copied) == report


CACHED = [(Observable, name) for name in
          ("dim", "_values", "_matrices", "_roots", "_channel", "_pairs", "sharp_basis")]
CACHED.append((Effect, "sqrt"))


def cached_owner(owner):
    """A fresh instance to read the cached attributes of owner on."""
    obs = Observable(((-1.0, Effect(np.diag([1.0, 0.0]))), (1.0, Effect(np.diag([0.0, 1.0])))))
    return obs if owner is Observable else obs.effects[1]


class TestCachedAttributes:
    """The lock-free descriptor behind every attribute an Observable or an
    Effect computes once: one computation per instance, stored in the
    instance's __dict__ under the attribute's name, and never copied."""

    @pytest.mark.parametrize("owner, name", CACHED)
    def test_computed_once_per_instance(self, monkeypatch, owner, name):
        descriptor = vars(owner)[name]
        calls = []

        def counted(instance):
            calls.append(instance)
            return wrapped(instance)

        wrapped = descriptor.func
        monkeypatch.setattr(descriptor, "func", counted)
        first, second = cached_owner(owner), cached_owner(owner)
        for instance in (first, first, second, first, second):
            value = getattr(instance, name)
            assert vars(instance)[name] is value
        assert calls == [first, second]

    @pytest.mark.parametrize("owner, name", CACHED)
    def test_class_access_returns_the_descriptor(self, owner, name):
        descriptor = getattr(owner, name)
        assert descriptor is vars(owner)[name]
        assert descriptor.__doc__ == descriptor.func.__doc__
        assert descriptor.func.__name__ == name

    @pytest.mark.parametrize("owner, name", CACHED)
    def test_copies_start_with_no_cached_entries(self, owner, name):
        # What the constructor leaves: the field, and dim, which the
        # Observable check reads.
        built = {"outcomes", "dim"} if owner is Observable else {"matrix"}
        instance = cached_owner(owner)
        assert vars(instance).keys() == built
        getattr(instance, name)
        assert name in vars(instance)
        for copied in (pickle.loads(pickle.dumps(instance)), copy.copy(instance),
                       copy.deepcopy(instance)):
            assert vars(copied).keys() == built

    def test_src_does_not_import_functools_cached_property(self):
        package = pathlib.Path(measurement_coherence.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    assert "cached_property" not in {alias.name for alias in node.names}, path
                if isinstance(node, ast.Attribute):
                    assert node.attr != "cached_property", path
