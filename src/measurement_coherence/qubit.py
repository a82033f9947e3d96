"""Density matrices, effects, and observables for small quantum systems.

Everything here is exact dense linear algebra on d x d complex matrices
(d = 2 for a polarization qubit, d = 4 for a photon pair).  The module
provides the state family rho(p, gamma, phi) with tunable population
unbalance and coherence, the tilted two-outcome observable y(theta), and
the handful of matrix operations the rest of the library is built on.

Tolerances follow one convention throughout the library: 1e-12 for
construction-time invariants (inputs are exact), 1e-10 for quantities
that accumulate round-off (eigenvalues, matrix square roots).

The public constructors QState, Effect and Observable validate every
matrix and value they are given.  The family builders make_state,
observable_y and observable_x (and photonics.prepare_signal) check their
scalar parameters instead, finiteness included, and then build a value
that is valid by construction: they skip the matrix checks through the
private _Value._trusted.  Matrices that carry round-off, such as the
outputs of luders_channel, post_measurement_state and gate_channel,
always go through the checked constructors.  Intermediates that never
leave a function, such as the dephased state rho' inside delta_v and the
P/P' comparisons of the criterion module, are trusted arrays; what those
functions report is checked.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

CONSTRUCTION_TOL = 1e-12
ROUNDOFF_TOL = 1e-10


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_square_complex(matrix) -> np.ndarray:
    """A read-only complex copy, so that no later write to the caller's
    array can bypass validation or leave a cached quantity stale."""
    mat = np.array(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return _read_only(mat)


class _Value:
    """Base of the library's frozen value types.  Pickle and copy rebuild an
    instance from its dataclass fields through the constructor, so a copy
    passes the same checks and holds read-only arrays again (numpy
    unpickles arrays writeable) and no cached quantity."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def _trusted(cls, *field_values):
        """An instance from field values that are valid by construction,
        without running __post_init__.  Only for values the library has
        just built from checked parameters; the arrays among them must be
        fresh, and are made read-only as the checked path leaves them."""
        value = object.__new__(cls)
        for f, field_value in zip(fields(cls), field_values):
            if isinstance(field_value, np.ndarray):
                _read_only(field_value)
            object.__setattr__(value, f.name, field_value)
        return value


def _hermiticity_defect(mat: np.ndarray) -> float:
    """Largest |M - M^dagger| entry; NaN or inf when an entry of M is not
    finite, so callers test 'not defect <= tol' to reject those too."""
    return float(np.abs(mat - mat.conj().T).max())


@dataclass(frozen=True, eq=False)
class QState(_Value):
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_square_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if not _hermiticity_defect(mat) <= CONSTRUCTION_TOL:
            raise ValueError("density matrix is not Hermitian or not finite")
        if abs(np.trace(mat).real - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix trace is {np.trace(mat).real}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -ROUNDOFF_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Effect(_Value):
    """POVM element: Hermitian with spectrum inside [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_square_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if not _hermiticity_defect(mat) <= CONSTRUCTION_TOL:
            raise ValueError("effect is not Hermitian or not finite")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -ROUNDOFF_TOL or eigs[-1] > 1.0 + ROUNDOFF_TOL:
            raise ValueError(f"effect spectrum [{eigs[0]}, {eigs[-1]}] leaves [0, 1]")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Hermitian PSD square root, computed once per effect."""
        eigenvalues, vectors = np.linalg.eigh(self.matrix)
        if eigenvalues[0] < -ROUNDOFF_TOL:
            raise ValueError(f"matrix is not PSD (eigenvalue {eigenvalues[0]})")
        # Eigenvalues at round-off scale are genuine zeros; square-rooting
        # them would inject sqrt(eps)-sized spurious amplitudes.
        cleaned = np.where(eigenvalues < CONSTRUCTION_TOL, 0.0, eigenvalues)
        return _read_only((vectors * np.sqrt(cleaned)) @ vectors.conj().T)


@dataclass(frozen=True, eq=False)
class Observable(_Value):
    """Finite-outcome observable: real values paired with POVM effects."""

    outcomes: tuple[tuple[float, Effect], ...]

    def __post_init__(self):
        outcomes = tuple((float(v), e) for v, e in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if not outcomes:
            raise ValueError("observable has no outcomes")
        if not all(isinstance(e, Effect) for _, e in outcomes):
            raise ValueError("each outcome must pair a value with an Effect")
        dims = sorted({e.dim for _, e in outcomes})
        if len(dims) > 1:
            raise ValueError(f"effects have mismatched dimensions {dims}")
        values = [v for v, _ in outcomes]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"outcome values must be finite, got {values}")
        if len(set(values)) != len(values):
            raise ValueError(f"outcome values must be distinct, got {values}")
        total = sum(e.matrix for _, e in outcomes)
        if np.max(np.abs(total - np.eye(self.dim))) > CONSTRUCTION_TOL:
            raise ValueError("effects do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].dim

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.outcomes)

    @property
    def effects(self) -> tuple[Effect, ...]:
        return tuple(e for _, e in self.outcomes)

    # Computed once per observable; the effect matrices are read-only, so
    # nothing derived from them can go stale.

    @cached_property
    def _values(self) -> np.ndarray:
        """Outcome values as an array, shape (Y,)."""
        return _read_only(np.array(self.values))

    @cached_property
    def _matrices(self) -> np.ndarray:
        """Effect matrices in outcome order, stacked to shape (Y, d, d)."""
        return _read_only(np.stack([eff.matrix for eff in self.effects]))

    @cached_property
    def _roots(self) -> np.ndarray:
        """Effect square roots in outcome order, stacked to shape (Y, d, d)."""
        return _read_only(np.stack([eff.sqrt for eff in self.effects]))

    @cached_property
    def _channel(self) -> np.ndarray:
        """d^2 x d^2 matrix of the Lueders channel rho -> sum_x S_x rho S_x,
        C[(j, k), (i, l)] = sum_x S_x[i, j] S_x[k, l] with S_x = sqrt(E_x):
        the flattened state times C is the flattened dephased state."""
        d = self.dim
        roots = self._roots
        channel = np.einsum("xij,xkl->jkil", roots, roots).reshape(d * d, d * d)
        return _read_only(channel)

    @cached_property
    def _witnesses(self) -> weakref.WeakKeyDictionary:
        """measurement_coherence_witness(self, basis) per basis, filled on
        first use; keyed weakly, so a memo never keeps a basis alive."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def _moments(self) -> weakref.WeakKeyDictionary:
        """criterion._moment_operators of self after each first measurement,
        keyed weakly by that measurement and filled on first use."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def sharp_basis(self) -> np.ndarray | None:
        """Unitary with the effect eigenvectors as columns, outcome order.

        Defined only when every effect is a rank-1 orthogonal projector;
        None otherwise.
        """
        columns = []
        for eff in self.effects:
            mat = eff.matrix
            if np.max(np.abs(mat @ mat - mat)) > ROUNDOFF_TOL:
                return None
            if abs(np.trace(mat).real - 1.0) > ROUNDOFF_TOL:
                return None
            _eigenvalues, vectors = np.linalg.eigh(mat)
            columns.append(vectors[:, -1])
        return _read_only(np.column_stack(columns))

    def is_sharp(self) -> bool:
        """True when every effect is a rank-1 orthogonal projector."""
        return self.sharp_basis is not None


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name}={value} must be finite")


def _check_family_params(p: float, gamma: float) -> None:
    """Range check shared by the qubit family and its closed forms."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"population p={p} outside [0, 1]")
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"coherence gamma={gamma} outside [-1, 1]")


def _family_states(p, off) -> np.ndarray:
    """Stacked qubit states [[1-p, conj(off)], [off, p]], shape p.shape + (2, 2).

    The kernel behind make_state and photonics.prepare_signal; callers
    own the range checks, so the result is not re-validated.
    """
    p = np.asarray(p, dtype=float)
    states = np.empty(p.shape + (2, 2), dtype=np.complex128)
    states[..., 0, 0] = 1.0 - p
    states[..., 0, 1] = np.conj(off)
    states[..., 1, 0] = off
    states[..., 1, 1] = p
    return states


def make_state(p: float, gamma: float, phi: float = 0.0) -> QState:
    """Qubit with V population p and off-diagonal coherence gamma.

    Returns [[1-p, c*exp(-i*phi)], [c*exp(i*phi), p]] with
    c = sqrt(p(1-p))*gamma.  gamma=0 is the fully dephased (classical)
    state, gamma=1 a pure superposition.
    """
    _check_family_params(p, gamma)
    _check_finite("phase phi", phi)
    off = math.sqrt(p * (1.0 - p)) * gamma * np.exp(1j * phi)
    # Hermitian, trace one, and PSD since |off|^2 <= p(1-p).
    return QState._trusted(_family_states(p, off))


def _tilted_effects(theta) -> np.ndarray:
    """Effects (I -+ Y(theta))/2 of y(theta), shape theta.shape + (2, 2, 2).

    Outcome order is (-1, +1); the kernel behind observable_y.
    """
    cos = np.cos(theta)
    sin = np.sin(theta)
    op = np.empty(np.shape(theta) + (2, 2), dtype=np.complex128)
    op[..., 0, 0] = -cos
    op[..., 0, 1] = sin
    op[..., 1, 0] = sin
    op[..., 1, 1] = cos
    eye = np.eye(2)
    return np.stack(((eye - op) / 2.0, (eye + op) / 2.0), axis=-3)


def observable_y(theta: float) -> Observable:
    """Two-outcome +-1 observable tilted by theta from the H/V axis.

    The operator is cos(theta)*diag(-1, 1) + sin(theta)*offdiag(1, 1);
    it squares to the identity, so the +-1 eigenprojectors are simply
    (I -+ Y)/2.  theta=0 recovers the reference H/V observable, and
    theta=pi/2 is the conjugate (Pauli-x) observable.
    """
    _check_finite("angle theta", theta)
    # Y is real symmetric with eigenvalues -1 and +1, so the two effects
    # are projectors that sum to the identity.
    minus, plus = _tilted_effects(theta)
    return Observable._trusted(((-1.0, Effect._trusted(minus)), (+1.0, Effect._trusted(plus))))


def observable_x() -> Observable:
    """Reference observable: -1 on H, +1 on V (theta = 0 tilt)."""
    return observable_y(0.0)


def _born(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Born probabilities P[..., y] = tr(rho E_y) as one einsum.

    states has shape (..., d, d) and effects (..., Y, d, d); the leading
    axes broadcast.
    """
    return np.einsum("...ij,...yji->...y", states, effects).real


def _variance_floor(mean_sq):
    """Most negative round-off accepted in <y^2> - <y>^2: 1e-12 in units of
    <y^2> once that exceeds 1, since the cancellation error scales with it."""
    return -CONSTRUCTION_TOL * np.maximum(mean_sq, 1.0)


def _variances(probabilities: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Outcome variances <y^2> - <y>^2 over the last axis; round-off
    negatives above _variance_floor are clamped, and a variance that
    overflows is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = probabilities @ values
        mean_sq = probabilities @ (values * values)
        var = mean_sq - mean * mean
    if not np.isfinite(var).all():
        raise ValueError("outcome values too large: the variance overflows")
    below = ~(var >= _variance_floor(mean_sq))
    if below.any():
        raise ValueError(f"variance evaluated to {var[below].min()}")
    return np.maximum(var, 0.0)


def expectation(state: QState, obs: Observable) -> float:
    """Mean outcome sum_y y * tr(rho Pi_y)."""
    _check_same_dim(state, obs)
    return float(_born(state.matrix, obs._matrices) @ obs._values)


def variance(state: QState, obs: Observable) -> float:
    """Outcome variance <y^2> - <y>^2; tiny negative round-off is clamped."""
    _check_same_dim(state, obs)
    probabilities = _born(state.matrix, obs._matrices)
    return float(_variances(probabilities, obs._values))


def _trace_norm(differences: np.ndarray) -> np.ndarray:
    """Trace norms sum |eigenvalues| of stacked Hermitian matrices (..., d, d)."""
    return np.abs(np.linalg.eigvalsh(differences)).sum(axis=-1)


def trace_norm_distance(a: QState, b: QState) -> float:
    """Un-halved trace distance ||a - b||_1 (sum of |eigenvalues| of a - b).

    The un-halved normalization is deliberate: for the qubit family above
    its square equals the variance-law violation at theta = pi/2.  The
    conventional metric with the 1/2 factor is half_trace_norm_distance.
    """
    _check_same_dim(a, b)
    return float(_trace_norm(a.matrix - b.matrix))


def half_trace_norm_distance(a: QState, b: QState) -> float:
    """Conventional trace distance (1/2)||a - b||_1."""
    return 0.5 * trace_norm_distance(a, b)


def commutator_norm(a: Effect, b: Effect) -> float:
    """Max-entry norm of the commutator AB - BA."""
    _check_same_dim(a, b)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(comm)))
