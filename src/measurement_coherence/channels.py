"""Sequential-measurement statistics and the outcome-discarding channel.

Measuring an observable and forgetting the result transforms the state by
the square-root (Lueders) instrument, rho -> sum_x sqrt(E_x) rho sqrt(E_x).
This module provides that channel, single-shot outcome distributions, the
joint distribution of two measurements performed in sequence, and a
witness for measurement operators that are not diagonal in a reference
basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit import (
    CONSTRUCTION_TOL,
    ROUNDOFF_TOL,
    Effect,
    Observable,
    QState,
    _born,
    _check_same_dim,
)

PROBABILITY_FLOOR = 1e-14


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


def _checked_probabilities(probabilities) -> np.ndarray:
    """Validate stacked distributions (..., Y): no entry below -1e-12, each
    sum within 1e-10 of 1.  Returns them with round-off negatives clipped."""
    probs = np.asarray(probabilities, dtype=float)
    if np.min(probs) < -CONSTRUCTION_TOL:
        raise ValueError(f"negative probability {np.min(probs)}")
    probs = np.clip(probs, 0.0, None)
    sums = np.sum(probs, axis=-1)
    worst = np.argmax(np.abs(sums - 1.0))
    if abs(float(sums.flat[worst]) - 1.0) > ROUNDOFF_TOL:
        raise ValueError(f"probabilities sum to {sums.flat[worst]}")
    return probs


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over the real outcome values of one observable."""

    values: tuple[float, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        probs = _checked_probabilities(self.probabilities)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probabilities", probs)

    def probability_of(self, value: float) -> float:
        return float(self.probabilities[self.values.index(value)])

    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))

    def variance(self) -> float:
        mean = self.mean()
        second = float(np.dot(np.square(self.values), self.probabilities))
        return max(second - mean * mean, 0.0)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Table P(x, y) for a first measurement x followed by a second y."""

    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    table: np.ndarray  # shape (len(x_values), len(y_values))

    def __post_init__(self):
        shape = (len(self.x_values), len(self.y_values))
        table = np.asarray(self.table, dtype=float)
        if table.shape != shape:
            raise ValueError(f"table shape {table.shape} does not match outcome lists")
        table = _checked_probabilities(table.reshape(-1)).reshape(shape)
        object.__setattr__(self, "x_values", tuple(float(v) for v in self.x_values))
        object.__setattr__(self, "y_values", tuple(float(v) for v in self.y_values))
        object.__setattr__(self, "table", table)

    def x_marginal(self) -> OutcomeDistribution:
        return OutcomeDistribution(self.x_values, self.table.sum(axis=1))

    def y_marginal(self) -> OutcomeDistribution:
        return OutcomeDistribution(self.y_values, self.table.sum(axis=0))


def outcome_distribution(state: QState, obs: Observable) -> OutcomeDistribution:
    """Born-rule probabilities P(y) = tr(rho Pi_y)."""
    _check_same_dim(state, obs)
    return OutcomeDistribution(obs.values, _born(state.matrix, obs._matrices))


def post_measurement_state(state: QState, effect: Effect) -> tuple[QState, float]:
    """State after observing one effect, together with its probability.

    Applies the square-root update sqrt(E) rho sqrt(E) / P.
    """
    _check_same_dim(state, effect)
    root = effect.sqrt
    unnormalized = root @ state.matrix @ root
    prob = float(np.trace(unnormalized).real)
    if prob <= PROBABILITY_FLOOR:
        raise ZeroProbabilityError(
            f"outcome probability {prob} is too small to condition on"
        )
    return QState(unnormalized / prob), prob


def _luders(states: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """sum_x sqrt(E_x) rho sqrt(E_x) for stacked states (..., d, d), with the
    effect square roots stacked in roots (X, d, d).

    Applied as one matrix product of the flattened states with the
    channel's d^2 x d^2 matrix C[(j, k), (i, l)] = sum_x S_x[i, j] S_x[k, l].
    """
    d = states.shape[-1]
    channel = np.einsum("xij,xkl->jkil", roots, roots).reshape(d * d, d * d)
    return (states.reshape(states.shape[:-2] + (d * d,)) @ channel).reshape(states.shape)


def luders_channel(state: QState, obs: Observable) -> QState:
    """Measure obs and discard the outcome: sum_x sqrt(E_x) rho sqrt(E_x).

    Trace-preserving by POVM completeness; no per-branch normalization is
    needed, so zero-probability outcomes contribute (vanishing) terms
    directly.
    """
    _check_same_dim(state, obs)
    return QState(_luders(state.matrix, obs._roots))


def is_incoherent(state: QState, obs: Observable) -> bool:
    """True when discarding an obs measurement leaves the state unchanged."""
    dephased = luders_channel(state, obs)
    return float(np.max(np.abs(dephased.matrix - state.matrix))) <= ROUNDOFF_TOL


def sequential_joint(
    state: QState, first: Observable, second: Observable
) -> JointDistribution:
    """Joint P(x, y) of measuring first, then second, on the same system.

    Each first outcome updates the state by the square-root instrument, so
    the y-marginal coincides with the Born probabilities of the
    outcome-discarded state luders_channel(state, first).
    """
    _check_same_dim(state, first)
    _check_same_dim(state, second)
    roots = first._roots
    branches = roots @ state.matrix @ roots  # unnormalized conditional states
    return JointDistribution(first.values, second.values, _born(branches, second._matrices))


def measurement_coherence_witness(obs: Observable, basis: Observable) -> float:
    """Largest off-diagonal magnitude of obs effects in a sharp basis.

    Zero exactly when every effect of obs is diagonal in the basis, i.e.
    when obs admits a classical (incoherent-mixture) description relative
    to that reference measurement.
    """
    _check_same_dim(obs, basis)
    basis_matrix = basis.sharp_basis
    if basis_matrix is None:
        raise ValueError("witness basis must consist of rank-1 orthogonal projectors")
    in_basis = basis_matrix.conj().T @ obs._matrices @ basis_matrix
    return float(np.max(np.abs(in_basis[:, ~np.eye(obs.dim, dtype=bool)])))
