"""Classical statistical laws and their quantum violation.

For two random variables measured in sequence, every classical model
obeys the law of total probability, P(y) = sum_x P(y|x) P(x), and hence
the law of total variance,

    V[y] = E_x[ V[y|x] ] + V_x[ E[y|x] ]  =  V'[y],

where the primed distribution is the one observed after a first
measurement whose outcome is ignored.  Quantum mechanically the primed
statistics come from the outcome-discarded (dephased) state, and for
noncommuting measurements the two variances differ.  The violation

    delta_v = V'[y] - V[y]

is the figure of merit implemented here, together with its closed forms
for the qubit family, the trace-distance identity at maximal tilt, and
higher-moment / entropy variants of the same comparison.

Each variance needs only two expectations, <B> and <A>, of the moment
operators B = sum_y y E_y and A = sum_y y^2 E_y.  The first measurement's
Lueders channel Phi is self-dual, so the dephased expectations are
tr(rho' X) = tr(rho Phi(X)).  delta_v therefore builds B, A, Phi(B) and
Phi(A) once per (first, second) pair, keeps them on second, and per
state takes one Born pass over the four and combines the four numbers.
A pair used for a single state pays that build on the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PROBABILITY_FLOOR,
    JointDistribution,
    _checked_probabilities,
    _luders,
    measurement_coherence_witness,
)
from .qubit import (
    CONSTRUCTION_TOL,
    Observable,
    QState,
    _born,
    _check_family_params,
    _check_same_dim,
    _read_only,
    _trace_norm,
    _variances,
)


@dataclass(frozen=True)
class CriterionReport:
    """Variance comparison between direct and measure-then-discard runs."""

    v_unperturbed: float  # variance of the second observable on rho
    v_perturbed: float  # same variance on the dephased state rho'
    delta_v: float  # v_perturbed - v_unperturbed
    trace_norm_sq: float  # squared (un-halved) trace distance rho vs rho'
    witness: float  # off-diagonality of the second measurement; NaN if
    # the first measurement is not sharp

    def __post_init__(self):
        if not abs(self.delta_v - (self.v_perturbed - self.v_unperturbed)) <= 1e-12:
            raise ValueError("delta_v is not the difference of the variances")


def _dephased_pair(states: np.ndarray, first_channel: np.ndarray) -> np.ndarray:
    """The direct and dephased runs (rho, rho') of stacked states (..., d, d),
    stacked with the run axis first, shape (2, ..., d, d).

    first_channel is the first measurement's Lueders matrix
    (Observable._channel).  The states are trusted: callers validate them
    at the API boundary, and rho' is an intermediate that is not re-checked.
    """
    return np.array((states, _luders(states, first_channel)))


def _direct_and_dephased(
    state: QState, first: Observable, second: Observable
) -> np.ndarray:
    """P(y) measured directly and P'(y) after measuring first unread,
    checked and stacked to shape (2, Y)."""
    _check_same_dim(state, first)
    _check_same_dim(state, second)
    pair = _dephased_pair(state.matrix, first._channel)
    return _checked_probabilities(_born(pair, second._matrices))


def total_probability_residual(
    state: QState, first: Observable, second: Observable
) -> float:
    """Largest violation max_y |P(y) - P'(y)| of the total-probability law."""
    direct, dephased = _direct_and_dephased(state, first, second)
    return float(np.max(np.abs(direct - dephased)))


def _moment_operators(
    values: np.ndarray, effects: np.ndarray, first_channel: np.ndarray
) -> np.ndarray:
    """B = sum_y y E_y, A = sum_y y^2 E_y, Phi(B) and Phi(A), stacked
    read-only to shape (..., 4, d, d).

    values has shape (..., Y) and effects (..., Y, d, d); first_channel is
    the first measurement's Lueders matrix Phi (Observable._channel).
    Phi is self-dual, tr(Phi(rho) X) = tr(rho Phi(X)), so the Born
    expectations of these four operators on rho are the first and second
    moments of y on rho and on rho'.  Raises ValueError when the outcome
    values are so large that the operators, or a Born expectation of
    them, would overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.array((values, values * values))  # (2, ..., Y)
        moments = np.einsum("k...y,...yij->...kij", powers, effects)
        operators = np.concatenate((moments, _luders(moments, first_channel)), axis=-3)
        # |tr(rho X)| <= sum |X_ij| for a state rho, so a finite entry sum
        # keeps every expectation taken of these operators finite too.
        finite = np.isfinite(np.abs(operators).sum())
    if not finite:
        raise ValueError("outcome values too large: the moment operators overflow")
    return _read_only(operators)


def _clamped_variance(mean_sq: float, mean: float) -> float:
    """<y^2> - <y>^2 from the two moments; as in qubit._variances,
    round-off negatives above qubit._variance_floor (written out here for
    two floats) are clamped and anything below it, or NaN, is an error."""
    var = mean_sq - mean * mean
    if not var >= -CONSTRUCTION_TOL * max(mean_sq, 1.0):
        raise ValueError(f"variance evaluated to {var}")
    return max(var, 0.0)


def delta_v(state: QState, first: Observable, second: Observable) -> CriterionReport:
    """Variance-law violation of measuring second with/without a prior first.

    A nonzero delta_v (either sign: the classical law is an equality)
    certifies that the second measurement is coherent with respect to the
    first.  The report also carries the squared trace distance between
    the state and its dephased counterpart, and, when the first
    measurement is sharp, the off-diagonality witness of the second.
    """
    _check_same_dim(state, first)
    _check_same_dim(state, second)
    memo = second._moments
    operators = memo.get(first)
    if operators is None:
        operators = memo[first] = _moment_operators(
            second._values, second._matrices, first._channel
        )
    mean, mean_sq, mean_dephased, mean_sq_dephased = _born(state.matrix, operators).tolist()
    v_direct = _clamped_variance(mean_sq, mean)
    v_dephased = _clamped_variance(mean_sq_dephased, mean_dephased)
    distance = float(_trace_norm(state.matrix - _luders(state.matrix, first._channel)))
    witness = (
        measurement_coherence_witness(second, first)
        if first.is_sharp()
        else float("nan")
    )
    return CriterionReport(
        v_unperturbed=v_direct,
        v_perturbed=v_dephased,
        delta_v=v_dephased - v_direct,
        trace_norm_sq=distance * distance,
        witness=witness,
    )


def analytic_variance_unperturbed(p: float, gamma: float, theta: float) -> float:
    """Closed-form variance of y(theta) on the qubit state (p, gamma)."""
    _check_family_params(p, gamma)
    mean = (2.0 * p - 1.0) * math.cos(theta) + 2.0 * math.sqrt(
        p * (1.0 - p)
    ) * gamma * math.sin(theta)
    return 1.0 - mean * mean


def analytic_variance_perturbed(p: float, theta: float) -> float:
    """Closed-form variance of y(theta) after dephasing in the H/V basis."""
    _check_family_params(p, 0.0)
    cos = math.cos(theta)
    return 1.0 - (1.0 - 2.0 * p) ** 2 * cos * cos


def analytic_delta_v(p: float, gamma: float, theta: float) -> float:
    """Closed-form violation: perturbed minus unperturbed variance."""
    return analytic_variance_perturbed(p, theta) - analytic_variance_unperturbed(
        p, gamma, theta
    )


def law_of_total_variance_decomposition(
    joint: JointDistribution,
) -> tuple[float, float]:
    """Split the y-marginal variance into its two classical pieces.

    Returns (E_x[V[y|x]], V_x[E[y|x]]).  Their sum reproduces the variance
    of the y-marginal by construction; x outcomes with mass at most
    PROBABILITY_FLOOR have no defined conditional and are masked out.
    """
    x_mass = joint.table.sum(axis=1)
    live = x_mass > PROBABILITY_FLOOR
    masses = x_mass[live]
    conditionals = joint.table[live] / masses[:, None]
    y_values = np.asarray(joint.y_values)
    cond_means = conditionals @ y_values
    expected_cond_var = float(masses @ _variances(conditionals, y_values))
    overall = float(masses @ cond_means)
    var_of_means = float(masses @ (cond_means - overall) ** 2)
    return expected_cond_var, var_of_means


def moment_difference(
    state: QState, first: Observable, second: Observable, k: int
) -> float:
    """k-th central moment of P'(y) minus that of P(y); k=2 is delta_v."""
    if not (float(k).is_integer() and k >= 2):
        raise ValueError(f"moment order k={k} must be a whole number of at least 2")
    probabilities = _direct_and_dephased(state, first, second)
    with np.errstate(over="ignore", invalid="ignore"):
        deviations = second._values - (probabilities @ second._values)[:, None]
        direct, dephased = np.einsum("ry,ry->r", deviations**k, probabilities)
        difference = float(dephased - direct)
    if not math.isfinite(difference):
        raise ValueError(f"outcome values too large: the order-{k} central moments overflow")
    return difference


def entropy_difference(state: QState, first: Observable, second: Observable) -> float:
    """Shannon entropy (natural log) of P'(y) minus that of P(y)."""
    probabilities = _direct_and_dephased(state, first, second)
    logs = np.log(probabilities, out=np.zeros_like(probabilities), where=probabilities > 0.0)
    direct, dephased = -np.einsum("ry,ry->r", probabilities, logs)
    return float(dephased - direct)
