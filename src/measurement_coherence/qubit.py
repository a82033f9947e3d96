"""Density matrices, effects, and observables for small quantum systems.

Everything here is exact dense linear algebra on d x d complex matrices
(d = 2 for a polarization qubit, d = 4 for a photon pair).  The module
provides the state family rho(p, gamma, phi) with tunable population
unbalance and coherence, the tilted two-outcome observable y(theta), and
the handful of matrix operations the rest of the library is built on.

Tolerances follow one convention throughout the library: 1e-12 for
construction-time invariants (inputs are exact), 1e-10 for quantities
that accumulate round-off (eigenvalues, matrix square roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONSTRUCTION_TOL = 1e-12
ROUNDOFF_TOL = 1e-10


def _as_square_complex(matrix) -> np.ndarray:
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


@dataclass(frozen=True, eq=False)
class QState:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_square_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if _hermiticity_defect(mat) > CONSTRUCTION_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix trace is {np.trace(mat).real}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -ROUNDOFF_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Effect:
    """POVM element: Hermitian with spectrum inside [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_square_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if _hermiticity_defect(mat) > CONSTRUCTION_TOL:
            raise ValueError("effect is not Hermitian")
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
        return (vectors * np.sqrt(cleaned)) @ vectors.conj().T


@dataclass(frozen=True, eq=False)
class Observable:
    """Finite-outcome observable: real values paired with POVM effects."""

    outcomes: tuple[tuple[float, Effect], ...]

    def __post_init__(self):
        outcomes = tuple((float(v), e) for v, e in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        values = [v for v, _ in outcomes]
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

    @cached_property
    def _matrices(self) -> np.ndarray:
        """Effect matrices in outcome order, stacked to shape (Y, d, d)."""
        return np.stack([eff.matrix for eff in self.effects])

    @cached_property
    def _roots(self) -> np.ndarray:
        """Effect square roots in outcome order, stacked to shape (Y, d, d)."""
        return np.stack([eff.sqrt for eff in self.effects])

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
        return np.column_stack(columns)

    def is_sharp(self) -> bool:
        """True when every effect is a rank-1 orthogonal projector."""
        return self.sharp_basis is not None


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


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
    off = math.sqrt(p * (1.0 - p)) * gamma * np.exp(1j * phi)
    return QState(_family_states(p, off))


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
    minus, plus = _tilted_effects(theta)
    return Observable(((-1.0, Effect(minus)), (+1.0, Effect(plus))))


def observable_x() -> Observable:
    """Reference observable: -1 on H, +1 on V (theta = 0 tilt)."""
    return observable_y(0.0)


def _born(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Born probabilities P[..., y] = tr(rho E_y) as one einsum.

    states has shape (..., d, d) and effects (..., Y, d, d); the leading
    axes broadcast.
    """
    return np.einsum("...ij,...yji->...y", states, effects).real


def _variances(probabilities: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Outcome variances <y^2> - <y>^2 over the last axis; tiny negative
    round-off is clamped."""
    mean = (probabilities * values).sum(axis=-1)
    mean_sq = (probabilities * (values * values)).sum(axis=-1)
    var = mean_sq - mean * mean
    lowest = var.min()
    if lowest < -CONSTRUCTION_TOL:
        raise ValueError(f"variance evaluated to {lowest}")
    return np.maximum(var, 0.0)


def expectation(state: QState, obs: Observable) -> float:
    """Mean outcome sum_y y * tr(rho Pi_y)."""
    _check_same_dim(state, obs)
    return float(_born(state.matrix, obs._matrices) @ np.array(obs.values))


def variance(state: QState, obs: Observable) -> float:
    """Outcome variance <y^2> - <y>^2; tiny negative round-off is clamped."""
    _check_same_dim(state, obs)
    probabilities = _born(state.matrix, obs._matrices)
    return float(_variances(probabilities, np.array(obs.values)))


def trace_norm_distance(a: QState, b: QState) -> float:
    """Un-halved trace distance ||a - b||_1 (sum of |eigenvalues| of a - b).

    The un-halved normalization is deliberate: for the qubit family above
    its square equals the variance-law violation at theta = pi/2.  The
    conventional metric with the 1/2 factor is half_trace_norm_distance.
    """
    _check_same_dim(a, b)
    eigenvalues = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(np.sum(np.abs(eigenvalues)))


def half_trace_norm_distance(a: QState, b: QState) -> float:
    """Conventional trace distance (1/2)||a - b||_1."""
    return 0.5 * trace_norm_distance(a, b)


def commutator_norm(a: Effect, b: Effect) -> float:
    """Max-entry norm of the commutator AB - BA."""
    _check_same_dim(a, b)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(comm)))
