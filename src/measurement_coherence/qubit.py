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
matrix and value they are given; QState and Effect share one intake,
_Hermitian, and each checks its own spectrum.  The family builders
make_state, observable_y and observable_x (and photonics.prepare_signal)
check their scalar parameters instead, finiteness included, and then
build a value that is valid by construction: they skip the matrix checks
through the private _Value._trusted, which fills the one field of
QState, Effect or Observable.  The family state has two builders with
the same bytes: _family_state builds one matrix from Python scalars as
one flat array (make_state, photonics.prepare_signal), and
_family_states is the stacked kernel that builds every axis state of a
CLI sweep at once.  Matrices that carry round-off, such as the outputs
of luders_channel, post_measurement_state and gate_channel, always go
through the checked constructors.  Intermediates that never leave a
function, such as the difference rho - rho' inside delta_v and the P/P'
comparisons of the criterion module, are trusted arrays; what those
functions report is checked.

Observable and Effect compute what depends only on their matrices once
per instance, on first read, through the lock-free descriptor _cached.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

CONSTRUCTION_TOL = 1e-12
ROUNDOFF_TOL = 1e-10


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _cached:
    """functools.cached_property without its lock: the first read computes
    the value and stores it in the instance's __dict__ under the
    attribute's name, where every later read finds it first, as
    cached_property itself does from Python 3.12 on (on 3.10 and 3.11 it
    takes an RLock on every first read).  It writes __dict__ directly, so
    it works on frozen dataclasses too.  Threads that race on a first read
    may each compute the value and the last store wins; the values are
    pure functions of the instance, and a lost Observable._pairs memo
    only costs a rebuild."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class _Value:
    """Base of the library's frozen value types.  Pickle and copy rebuild an
    instance from its dataclass fields through the constructor, so a copy
    passes the same checks and holds read-only arrays again (numpy
    unpickles arrays writeable) and no cached quantity.  The value types
    declare no ClassVar or InitVar, so __dataclass_fields__ holds exactly
    their fields, in order."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    @classmethod
    def _trusted(cls, field_value):
        """An instance of a one-field type from a field value that is valid
        by construction, without running __post_init__.  Only for values
        the library has just built from checked parameters; an array must
        be fresh, and is made read-only as the checked path leaves it."""
        (name,) = cls.__dataclass_fields__
        if isinstance(field_value, np.ndarray):
            field_value.setflags(write=False)
        value = object.__new__(cls)
        value.__dict__[name] = field_value
        return value


@dataclass(frozen=True, eq=False)
class _Hermitian(_Value):
    """Checked intake of QState and Effect: a read-only complex copy of a
    Hermitian matrix, so that no later write to the caller's array can
    bypass validation or leave a cached quantity stale.  The subclasses add
    no field; each names itself in _kind and checks its spectrum."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        object.__setattr__(self, "matrix", _read_only(mat))
        # The largest |M - M^dagger| entry is NaN or inf when an entry of M
        # is not finite, so 'not <=' rejects those too.
        if not np.abs(mat - mat.conj().T).max() <= CONSTRUCTION_TOL:
            raise ValueError(f"{self._kind} is not Hermitian or not finite")
        self._check_spectrum(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class QState(_Hermitian):
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    _kind = "density matrix"

    def _check_spectrum(self, mat: np.ndarray) -> None:
        if abs(np.trace(mat).real - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix trace is {np.trace(mat).real}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -ROUNDOFF_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")


class Effect(_Hermitian):
    """POVM element: Hermitian with spectrum inside [0, 1]."""

    _kind = "effect"

    def _check_spectrum(self, mat: np.ndarray) -> None:
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -ROUNDOFF_TOL or eigs[-1] > 1.0 + ROUNDOFF_TOL:
            raise ValueError(f"effect spectrum [{eigs[0]}, {eigs[-1]}] leaves [0, 1]")

    @_cached
    def sqrt(self) -> np.ndarray:
        """Hermitian PSD square root, computed once per effect."""
        eigenvalues, vectors = np.linalg.eigh(self.matrix)
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
        _check_outcome_values(v for v, _ in outcomes)
        total = sum(e.matrix for _, e in outcomes)
        if np.max(np.abs(total - np.eye(self.dim))) > CONSTRUCTION_TOL:
            raise ValueError("effects do not sum to the identity")

    @_cached
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

    @_cached
    def _values(self) -> np.ndarray:
        """Outcome values as an array, shape (Y,)."""
        return _read_only(np.array(self.values))

    @_cached
    def _matrices(self) -> np.ndarray:
        """Effect matrices in outcome order, stacked to shape (Y, d, d)."""
        return _read_only(np.array([eff.matrix for _, eff in self.outcomes]))

    @_cached
    def _roots(self) -> np.ndarray:
        """Effect square roots in outcome order, stacked to shape (Y, d, d)."""
        return _read_only(np.stack([eff.sqrt for eff in self.effects]))

    @_cached
    def _channel(self) -> np.ndarray:
        """d^2 x d^2 matrix of the Lueders channel rho -> sum_x S_x rho S_x,
        C[(j, k), (i, l)] = sum_x S_x[i, j] S_x[k, l] with S_x = sqrt(E_x):
        the flattened state times C is the flattened dephased state."""
        d = self.dim
        roots = self._roots
        channel = np.einsum("xij,xkl->jkil", roots, roots).reshape(d * d, d * d)
        return _read_only(channel)

    @_cached
    def _pairs(self) -> weakref.WeakKeyDictionary:
        """What criterion.delta_v derives from each first measurement
        followed by self: (probe, witness).  The probe is the read-only
        (d^2, 4 + d^2) matrix of criterion._pair_probe: the moment
        operators B, A, Phi(B) and Phi(A) transposed and flattened, then I
        minus the first measurement's _channel, so that delta_v takes one
        product with it per state and the trace norm in closed form at
        d = 2.  The witness is that of self in the first measurement's
        basis, NaN unless that is sharp.  Filled on first use; keyed
        weakly, so the memo never keeps a first measurement alive."""
        return weakref.WeakKeyDictionary()

    @_cached
    def sharp_basis(self) -> np.ndarray | None:
        """Unitary with the effect eigenvectors as columns, outcome order.

        Defined only when every effect is a rank-1 orthogonal projector;
        None otherwise.  A Hermitian effect is one exactly when its
        ascending spectrum is (0, ..., 0, 1), so one batched eigh decides
        sharpness and gives the columns.
        """
        eigenvalues, vectors = np.linalg.eigh(self._matrices)
        if np.abs(eigenvalues - np.eye(self.dim)[-1]).max() > ROUNDOFF_TOL:
            return None
        return _read_only(vectors[..., -1].T.copy())

    def is_sharp(self) -> bool:
        """True when every effect is a rank-1 orthogonal projector."""
        return self.sharp_basis is not None


def _check_outcome_values(values) -> tuple[float, ...]:
    """The outcome values as floats; raises ValueError unless they are
    finite and distinct.  Shared by Observable and the distributions and
    count records that carry outcome values."""
    values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"outcome values must be finite, got {list(values)}")
    if len(set(values)) != len(values):
        raise ValueError(f"outcome values must be distinct, got {list(values)}")
    return values


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

    The stacked kernel behind the CLI sweeps; callers own the range
    checks, so the result is not re-validated.  _family_state builds the
    same matrix for one point.
    """
    p = np.asarray(p, dtype=float)
    states = np.empty(p.shape + (2, 2), dtype=np.complex128)
    states[..., 0, 0] = 1.0 - p
    states[..., 0, 1] = np.conj(off)
    states[..., 1, 0] = off
    states[..., 1, 1] = p
    return states


def _family_state(p: float, magnitude: float, phi: float) -> np.ndarray:
    """One qubit state [[1-p, conj(off)], [off, p]] with off =
    magnitude * exp(i*phi), built from Python scalars as one flat array
    and reshaped.

    The scalar builder behind make_state and photonics.prepare_signal; its
    bytes equal _family_states(p, magnitude * np.exp(1j * phi)).  Callers
    own the range checks, so the result is not re-validated.
    """
    # float() keeps a numpy float32 p or magnitude in double precision,
    # as the stacked kernel's float64 arrays do.
    p = float(p)
    # 1j * phi has imaginary part 0.0 + phi, +0.0 at phi = -0.0; the
    # sine takes the same argument, so signed zeros match too.
    off = float(magnitude) * complex(math.cos(phi), math.sin(0.0 + phi))
    return np.array((1.0 - p, off.conjugate(), off, p), dtype=np.complex128).reshape(2, 2)


def make_state(p: float, gamma: float, phi: float = 0.0) -> QState:
    """Qubit with V population p and off-diagonal coherence gamma.

    Returns [[1-p, c*exp(-i*phi)], [c*exp(i*phi), p]] with
    c = sqrt(p(1-p))*gamma.  gamma=0 is the fully dephased (classical)
    state, gamma=1 a pure superposition.
    """
    _check_family_params(p, gamma)
    _check_finite("phase phi", phi)
    # Hermitian, trace one, and PSD since |off|^2 <= p(1-p).
    return QState._trusted(_family_state(p, math.sqrt(p * (1.0 - p)) * gamma, phi))


# The (-1, +1) effects (I -+ Y)/2 of y(theta), flattened: entry k is
# (_EYE[k] + _COS[k] cos + _SIN[k] sin) / 2.
_EYE = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
_COS = np.array([1.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.0, 1.0])
_SIN = np.array([0.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0])


def _tilted_effects(theta) -> np.ndarray:
    """Effects (I -+ Y(theta))/2 of y(theta), shape theta.shape + (2, 2, 2).

    Outcome order is (-1, +1); the kernel behind observable_y.  The
    entries are built as one real expression and cast to complex once.
    An off-diagonal entry is 0 -+ sin, which is +0.0 where sin is a zero
    of either sign.
    """
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    real = (_EYE + _COS * cos + _SIN * sin) * 0.5
    return real.astype(np.complex128).reshape(real.shape[:-1] + (2, 2, 2))


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

    states has shape (..., d, d) and effects is one (Y, d, d) stack that
    every state meets; with no broadcast axes, einsum runs long inner
    loops.  It sums in the same order as "...ij,...yji->...y" over
    broadcast stacks, and it makes no BLAS call, so its bytes do not
    depend on the CPU.
    """
    return np.einsum("...ij,yji->...y", states, effects).real


def _variances(probabilities: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Outcome variances over the last axis: the moments <y> and <y^2>,
    then _checked_variances."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_variances(probabilities @ (values * values), probabilities @ values)


def _checked_variances(mean_sq, mean):
    """<y^2> - <y>^2 from the two moments, floats or arrays of any shape.

    A variance that overflows is an error.  Round-off negatives down to
    the floor -1e-12 * max(<y^2>, 1) are clamped to 0 (the cancellation
    error scales with <y^2> once that exceeds 1); one below the floor is
    an error that names the most negative.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        var = mean_sq - mean * mean
    if not np.isfinite(var).all():
        raise ValueError("outcome values too large: the variance overflows")
    below = ~(var >= -CONSTRUCTION_TOL * np.maximum(mean_sq, 1.0))
    if below.any():
        raise ValueError(f"variance evaluated to {np.where(below, var, np.inf).min()}")
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
