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
tr(rho' X) = tr(rho Phi(X)).  delta_v therefore builds, once per
(first, second) pair, a probe matrix of shape (d^2, 4 + d^2)
(_pair_probe) and the witness of the second measurement in the first
one's basis, and keeps both in one memo on second (Observable._pairs).
The probe's first four columns are B, A, Phi(B) and Phi(A), each
transposed and flattened, so that flat(rho) @ column is tr(rho X); the
last d^2 are I - Phi, which map flat(rho) to flat(rho - rho').  Per
state delta_v makes one dimension test (the two _check_same_dim calls
run only when it fails, to name the mismatch) and takes one product of
the flattened state with the probe: four moments for the variances and
the difference rho - rho', whose trace norm is taken in closed form at
d = 2 (inline, from three entries of the product) and by eigvalsh
above.  The variances are taken inline; qubit._checked_variances, the
library's one variance rule with its round-off floor and clamp, runs
only when one of them is negative or NaN, on the direct run and then on
the dephased one.  CriterionReport's own __init__ checks the difference
and fills its five fields in one step.  A pair used for a single state
pays the build on the call, of which the witness
(channels.measurement_coherence_witness) is one part.
"""

from __future__ import annotations

import math
import sys
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
    Observable,
    QState,
    _born,
    _check_family_params,
    _check_finite,
    _check_same_dim,
    _checked_variances,
    _read_only,
    _trace_norm,
    _variances,
)


@dataclass(frozen=True, init=False)
class CriterionReport:
    """Variance comparison between direct and measure-then-discard runs."""

    v_unperturbed: float  # variance of the second observable on rho
    v_perturbed: float  # same variance on the dephased state rho'
    delta_v: float  # v_perturbed - v_unperturbed
    trace_norm_sq: float  # squared (un-halved) trace distance rho vs rho'
    witness: float  # off-diagonality of the second measurement; NaN if
    # the first measurement is not sharp

    def __init__(self, v_unperturbed: float, v_perturbed: float, delta_v: float,
                 trace_norm_sq: float, witness: float):
        # The frozen dataclass __init__ would set each field through
        # object.__setattr__; one update of __dict__ fills all five.
        if not abs(delta_v - (v_perturbed - v_unperturbed)) <= 1e-12:
            raise ValueError("delta_v is not the difference of the variances")
        self.__dict__.update(v_unperturbed=v_unperturbed, v_perturbed=v_perturbed,
                             delta_v=delta_v, trace_norm_sq=trace_norm_sq, witness=witness)


def _direct_and_dephased(
    state: QState, first: Observable, second: Observable
) -> np.ndarray:
    """P(y) measured directly and P'(y) after measuring first unread,
    checked and stacked to shape (2, Y)."""
    _check_same_dim(state, first)
    _check_same_dim(state, second)
    rho = state.matrix
    pair = np.array((rho, _luders(rho, first._channel)))
    return _checked_probabilities(_born(pair, second._matrices))


def total_probability_residual(
    state: QState, first: Observable, second: Observable
) -> float:
    """Largest violation max_y |P(y) - P'(y)| of the total-probability law."""
    direct, dephased = _direct_and_dephased(state, first, second)
    return float(np.max(np.abs(direct - dephased)))


def _pair_probe(first: Observable, second: Observable) -> np.ndarray:
    """delta_v's read-only (d^2, 4 + d^2) probe for first, then second.

    Columns 0-3 are flat(X^T) for X = B, A, Phi(B) and Phi(A), where
    B = sum_y y E_y and A = sum_y y^2 E_y over second's effects and Phi is
    first's Lueders matrix (Observable._channel), so that flat(rho) @
    column is tr(rho X).  Phi is self-dual, tr(Phi(rho) X) = tr(rho Phi(X)),
    so these are the first and second moments of y on rho and on rho'.
    The last d^2 columns are I - Phi, which map flat(rho) to
    flat(rho - rho').  Raises ValueError when the outcome values are so
    large that the operators, or a Born expectation of them, would
    overflow.
    """
    values, channel = second._values, first._channel
    with np.errstate(over="ignore", invalid="ignore"):
        moments = np.einsum("ky,yij->kij", np.array((values, values * values)), second._matrices)
        operators = np.concatenate((moments, _luders(moments, channel)))
        # |tr(rho X)| <= sum |X_ij| for a state rho, so a finite entry sum
        # keeps every expectation taken of these operators finite too.
        finite = np.isfinite(np.abs(operators).sum())
    if not finite:
        raise ValueError("outcome values too large: the moment operators overflow")
    probe = np.concatenate((operators.T.reshape(-1, 4), np.eye(len(channel)) - channel), axis=1)
    return _read_only(probe)


def delta_v(state: QState, first: Observable, second: Observable) -> CriterionReport:
    """Variance-law violation of measuring second with/without a prior first.

    A nonzero delta_v (either sign: the classical law is an equality)
    certifies that the second measurement is coherent with respect to the
    first.  The report also carries the squared trace distance between
    the state and its dephased counterpart, and, when the first
    measurement is sharp, the off-diagonality witness of the second.
    """
    d = state.dim
    if not d == first.dim == second.dim:
        _check_same_dim(state, first)
        _check_same_dim(state, second)
    memo = second._pairs
    entry = memo.get(first)
    if entry is None:
        entry = memo[first] = (
            _pair_probe(first, second),
            measurement_coherence_witness(second, first) if first.is_sharp() else math.nan,
        )
    probe, witness = entry
    product = state.matrix.ravel().dot(probe)
    entries = product.tolist()
    # <B>, <A>, <Phi(B)>, <Phi(A)>: the moments of y on rho and on rho'.
    mean, mean_sq = entries[0].real, entries[1].real
    mean_dephased, mean_sq_dephased = entries[2].real, entries[3].real
    v_direct = mean_sq - mean * mean
    v_dephased = mean_sq_dephased - mean_dephased * mean_dephased
    # _checked_variances returns a variance that is >= 0.0 as it is (but
    # -0.0 as 0.0); only a negative or NaN one needs its checks and clamp,
    # run on the direct moments first, so that a failure names that run.
    if not (v_direct >= 0.0 and v_dephased >= 0.0):
        v_direct = float(_checked_variances(mean_sq, mean))
        v_dephased = float(_checked_variances(mean_sq_dephased, mean_dephased))
    if d == 2:
        # rho - rho' = [[a, .], [c, e]] is Hermitian, so its eigenvalues
        # are (a + e)/2 +- hypot(a - e, 2|c|)/2 and the sum of their
        # magnitudes is the larger of |a + e| and hypot(a - e, 2|c|).  This
        # reads the lower entry c, as eigvalsh does; hypot squares nothing,
        # so entries from 1e-150 to 1e150 keep full relative precision.
        a, e = entries[4].real, entries[7].real
        distance = max(abs(a + e), math.hypot(a - e, 2.0 * abs(entries[6])))
    else:
        distance = float(_trace_norm(product[4:].reshape(d, d)))
    return CriterionReport(
        v_direct, v_dephased, v_dephased - v_direct, distance * distance, witness
    )


def analytic_variance_unperturbed(p: float, gamma: float, theta: float) -> float:
    """Closed-form variance of y(theta) on the qubit state (p, gamma)."""
    _check_family_params(p, gamma)
    _check_finite("angle theta", theta)
    mean = (2.0 * p - 1.0) * math.cos(theta) + 2.0 * math.sqrt(
        p * (1.0 - p)
    ) * gamma * math.sin(theta)
    return 1.0 - mean * mean


def analytic_variance_perturbed(p: float, theta: float) -> float:
    """Closed-form variance of y(theta) after dephasing in the H/V basis."""
    _check_family_params(p, 0.0)
    _check_finite("angle theta", theta)
    cos = math.cos(theta)
    return 1.0 - (1.0 - 2.0 * p) ** 2 * cos * cos


def _family_delta_v(p, off, cos, sin):
    """delta_v of y(theta) on the family state with population p and
    coherence off, from cos(theta) and sin(theta); floats or arrays that
    broadcast.

    The mean of y is m = (2p - 1) cos + 2 off sin on rho and m' = (2p - 1) cos
    on rho', so delta_v = m^2 - m'^2 = (m - m')(m + m').  The factored form
    keeps a small violation that 1 - m'^2 - (1 - m^2) would round away.  The
    + 0.0 turns -0.0 into 0.0.
    """
    return 4.0 * off * sin * ((2.0 * p - 1.0) * cos + off * sin) + 0.0


def analytic_delta_v(p: float, gamma: float, theta: float) -> float:
    """Closed-form violation: perturbed minus unperturbed variance."""
    _check_family_params(p, gamma)
    _check_finite("angle theta", theta)
    return _family_delta_v(p, math.sqrt(p * (1.0 - p)) * gamma, math.cos(theta), math.sin(theta))


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
    expected_cond_var = float(masses @ _variances(conditionals, y_values))
    with np.errstate(over="ignore", invalid="ignore"):
        cond_means = conditionals @ y_values
        overall = float(masses @ cond_means)
        var_of_means = float(masses @ (cond_means - overall) ** 2)
    if not math.isfinite(var_of_means):
        raise ValueError("outcome values too large: the variance of the means overflows")
    return expected_cond_var, var_of_means


def moment_difference(
    state: QState, first: Observable, second: Observable, k: int
) -> float:
    """k-th central moment of P'(y) minus that of P(y); k=2 is delta_v."""
    # The bound comes first, so that float(k) cannot overflow.
    if not (2 <= k <= sys.float_info.max and float(k).is_integer()):
        raise ValueError(f"moment order k={k} must be a whole number from 2 to {sys.float_info.max}")
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
