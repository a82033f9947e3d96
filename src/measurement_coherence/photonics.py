"""Numerical model of the two-photon polarization experiment.

The setup couples a signal photon to an ancillary meter photon through a
probabilistic controlled-sign gate and certifies measurement coherence
from coincidence counts:

* State preparation: a half-wave plate at angle alpha turns H-polarized
  light into cos(2a)|H> + sin(2a)|V>; mixing the +alpha and -alpha
  settings with weights w+ and w- dials the off-diagonal coherence.
* Interaction: a beam splitter with polarization-dependent intensity
  transmittivities (T_H, T_V).  Only the V components of both photons
  interfere on it; retaining coincidences (one photon per output arm)
  leaves the two-V amplitude t_v^2 - r_v^2, a pi phase flip at the ideal
  T_V = 1/3.  One compensating splitter per arm, rotated by 90 degrees
  (transmittivities swapped), balances the polarization-dependent loss;
  after it all no-interference amplitudes are equal and the post-selected
  map is a controlled-sign gate at the ideal settings.
* Partial distinguishability: with two-photon interference visibility v
  the post-selected output is the convex mixture of the interfering map
  and the fully distinguishable one, where the transmit-transmit and
  reflect-reflect contributions to the two-V coincidence add
  incoherently.  v = 1 reproduces textbook interference, v = 0 none.
* Readout: the meter is injected as |H> (gate off: no coupling) or |+>
  (gate on) and is never analyzed, so discarding it realizes the
  measure-and-forget channel on the signal.  The signal is analyzed by a
  half-wave plate at a quarter of the analysis angle followed by a
  polarizing splitter; counts per output port are Poissonian.  The port
  probabilities are the Born rule of the y(theta) effects and are
  computed that way; hwp_jones, the plate's Jones matrix, is the
  physics reference a test ties them to.

Basis ordering for two-photon operators is signal-first:
(HH, HV, VH, VV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import OutcomeDistribution
from .qubit import QState, _born, _family_states, _tilted_effects

UNPERTURBED = "unperturbed"  # meter |H>, gate inactive
PERTURBED = "perturbed"  # meter |+>, gate active

SUCCESS_FLOOR = 1e-14


class PostSelectionError(ValueError):
    """Coincidence post-selection has (numerically) zero success probability."""


class EstimationError(ValueError):
    """Count record cannot support the requested estimate."""


@dataclass(frozen=True)
class PrepConfig:
    """Signal preparation: wave-plate angle, mixing weight, optional phase.

    The prepared state has V population p = sin^2(2*alpha) and coherence
    gamma = w_plus - (1 - w_plus).
    """

    alpha_deg: float
    w_plus: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.w_plus <= 1.0:
            raise ValueError(f"mixing weight w_plus={self.w_plus} outside [0, 1]")

    @property
    def p(self) -> float:
        return math.sin(2.0 * math.radians(self.alpha_deg)) ** 2

    @property
    def gamma(self) -> float:
        return 2.0 * self.w_plus - 1.0


@dataclass(frozen=True)
class GateParams:
    """Interaction-splitter intensity transmittivities and HOM visibility."""

    t_h: float = 1.0
    t_v: float = 1.0 / 3.0
    visibility: float = 1.0

    def __post_init__(self):
        for name in ("t_h", "t_v", "visibility"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


# Measured splitter values; the ideal gate is the GateParams default.
MEASURED_GATE = GateParams(t_h=0.985, t_v=0.324, visibility=1.0)


@dataclass(frozen=True)
class CountRecord:
    """Poisson coincidence counts for one analyzer setting."""

    values: tuple[float, ...]
    counts: np.ndarray
    mean_flux: float
    theta: float | None = None
    mode: str | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if counts.shape != (len(self.values),):
            raise ValueError("one count per outcome value required")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "counts", counts)

    def total(self) -> int:
        return int(self.counts.sum())


def hwp_jones(angle) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at `angle` (radians).

    An array of angles gives the matrices stacked, shape angle.shape + (2, 2).
    The analyzer's plate is hwp_jones(-theta/4); the diagonal of
    J rho J^dagger equals analyzer_distribution(rho, theta).
    """
    twice = 2.0 * np.asarray(angle)
    c = np.cos(twice)
    s = np.sin(twice)
    jones = np.empty(c.shape + (2, 2), dtype=np.complex128)
    jones[..., 0, 0] = c
    jones[..., 0, 1] = s
    jones[..., 1, 0] = s
    jones[..., 1, 1] = -c
    return jones


def prepare_signal(cfg: PrepConfig) -> QState:
    """Mixed signal state from the +-alpha wave-plate settings.

    The plates send H to cos(2a)|H> +- sin(2a)|V>; mixing the two with
    weights w+ and w- keeps the populations and scales the coherence
    cos(2a) sin(2a) by gamma = w+ - w-.  For 0 <= alpha <= 45 degrees
    this is the qubit family state with p = sin^2(2*alpha).
    """
    two_alpha = 2.0 * math.radians(cfg.alpha_deg)
    cos, sin = math.cos(two_alpha), math.sin(two_alpha)
    off = cfg.gamma * cos * sin * np.exp(1j * cfg.phi)
    return QState(_family_states(sin * sin, off))


def _gate_kraus_branches(params: GateParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal coincidence amplitudes of the three post-selected branches.

    Returns (interfering, transmit-only, reflect-reflect) amplitude
    vectors over the (HH, HV, VH, VV) basis.  Per-arm compensators
    multiply every H amplitude by sqrt(T_V) and every V amplitude by
    sqrt(T_H), which makes the three single-transmission products equal.
    """
    amp_th = math.sqrt(params.t_h)
    amp_tv = math.sqrt(params.t_v)
    amp_rv = math.sqrt(1.0 - params.t_v)
    comp_h = amp_tv
    comp_v = amp_th

    transmit = np.array(
        [
            amp_th * amp_th * comp_h * comp_h,
            amp_th * amp_tv * comp_h * comp_v,
            amp_tv * amp_th * comp_v * comp_h,
            amp_tv * amp_tv * comp_v * comp_v,
        ]
    )
    reflect = np.array([0.0, 0.0, 0.0, amp_rv * amp_rv * comp_v * comp_v])
    interfering = transmit - reflect  # two-V reflection carries the pi shift
    return interfering, transmit, reflect


def gate_channel(joint_in: QState, params: GateParams) -> tuple[QState, float]:
    """Coincidence-post-selected action of the gate on a two-photon state.

    Applies the visibility-weighted mixture of the interfering and
    distinguishable amplitude maps, renormalizes, and returns the output
    state with the pre-normalization trace (the success probability).
    """
    if joint_in.dim != 4:
        raise ValueError("gate acts on a two-photon (4x4) state, signal first")
    interfering, transmit, reflect = _gate_kraus_branches(params)
    rho = joint_in.matrix
    v = params.visibility

    def sandwich(amps: np.ndarray) -> np.ndarray:
        return (amps[:, None] * rho) * amps[None, :]

    out = v * sandwich(interfering) + (1.0 - v) * (
        sandwich(transmit) + sandwich(reflect)
    )
    success = float(np.trace(out).real)
    if success <= SUCCESS_FLOOR:
        raise PostSelectionError(
            f"coincidence success probability {success} vanishes"
        )
    return QState(out / success), success


# Meter diagonals of the two injections; the gate is diagonal and the
# meter is discarded right after it, so its coherences never matter.
_METER_WEIGHTS = {UNPERTURBED: (1.0, 0.0), PERTURBED: (0.5, 0.5)}


def _signal_multiplier(params: GateParams, meter_weights: tuple[float, float]) -> np.ndarray:
    """2x2 matrix K with tr_meter(gate(rho (x) meter)) = K o rho (entrywise).

    K = sum_m w_m (v a_m a_m^T + (1 - v)(t_m t_m^T + r_m r_m^T)), where
    a_m, t_m and r_m are the branch amplitudes at meter polarization m.
    gate_channel is the 4x4 reference this form reproduces.
    """
    interfering, transmit, reflect = (
        amps.reshape(2, 2) for amps in _gate_kraus_branches(params)
    )  # rows: signal, columns: meter
    v = params.visibility
    multiplier = np.zeros((2, 2))
    for m, weight in enumerate(meter_weights):
        a, t, r = interfering[:, m], transmit[:, m], reflect[:, m]
        multiplier += weight * (
            v * np.outer(a, a) + (1.0 - v) * (np.outer(t, t) + np.outer(r, r))
        )
    return multiplier


def analyzer_distribution(signal: QState, theta: float) -> OutcomeDistribution:
    """Analyze the signal with a wave plate at theta/4 and a polarizing splitter.

    The plate's rotation sense is fixed so that the H output port carries
    the -1 outcome of the tilted observable y(theta), so the port
    probabilities are the Born rule of the y(theta) effects.
    """
    return OutcomeDistribution((-1.0, +1.0), _born(signal.matrix, _tilted_effects(theta)))


def _coincidence_probabilities(
    signals: np.ndarray, multipliers: np.ndarray, effects: np.ndarray
) -> np.ndarray:
    """Analyzer probabilities (..., 2) after the post-selected gate, unchecked.

    signals (..., 2, 2), multipliers (..., 2, 2) from _signal_multiplier
    and the y(theta) effects (..., 2, 2, 2) from _tilted_effects broadcast
    together.  Each gated signal K o rho is renormalized by its
    coincidence success probability tr(K o rho).
    """
    gated = multipliers * signals
    success = np.trace(gated, axis1=-2, axis2=-1).real
    lowest = success.min()
    if lowest <= SUCCESS_FLOOR:
        raise PostSelectionError(
            f"coincidence success probability {lowest} vanishes"
        )
    return _born(gated / success[..., None, None], effects)


def run_setting(
    cfg: PrepConfig, params: GateParams, theta: float, mode: str
) -> OutcomeDistribution:
    """Exact outcome distribution of one experimental configuration.

    mode selects the meter injection: UNPERTURBED (|H>, no coupling) or
    PERTURBED (|+>, gate active).  Gating and then discarding the meter
    unanalyzed is the entrywise product K o rho with the 2x2 multiplier
    of _signal_multiplier, renormalized by the coincidence success
    probability; the signal is then read out at analysis angle theta.
    """
    if mode not in _METER_WEIGHTS:
        raise ValueError(f"unknown mode {mode!r}")
    multiplier = _signal_multiplier(params, _METER_WEIGHTS[mode])
    return OutcomeDistribution(
        (-1.0, +1.0),
        _coincidence_probabilities(
            prepare_signal(cfg).matrix, multiplier, _tilted_effects(theta)
        ),
    )


def _poisson_counts(rng: np.random.Generator, mean_flux: float, probabilities) -> np.ndarray:
    """Independent Poisson counts with means mean_flux * P, drawn in array order."""
    if mean_flux <= 0.0:
        raise ValueError(f"mean_flux={mean_flux} must be positive")
    return rng.poisson(mean_flux * probabilities)


def sample_counts(
    dist: OutcomeDistribution,
    mean_flux: float,
    seed: int,
    theta: float | None = None,
    mode: str | None = None,
) -> CountRecord:
    """Independent Poisson coincidence counts per outcome, mean flux * P(y).

    The seed fully determines the draw.
    """
    counts = _poisson_counts(np.random.default_rng(seed), mean_flux, dist.probabilities)
    return CountRecord(dist.values, counts, mean_flux, theta=theta, mode=mode)


def _estimate_delta_v(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in violation and its first-order standard error from stacked counts.

    counts has shape (..., 2, 2): (unperturbed, perturbed) runs by
    (-1, +1) outcomes.  Per run, with m = (n+ - n-)/N, the variance
    estimate is 1 - m^2; propagating independent Poisson fluctuations
    (variance = observed count) gives it the variance 16 m^2 n+ n- / N^3.
    """
    totals = counts.sum(axis=-1)
    if np.any(totals == 0):
        raise EstimationError("count record is empty")
    n_minus = counts[..., 0].astype(float)
    n_plus = counts[..., 1].astype(float)
    mean = (n_plus - n_minus) / totals
    var_est = 1.0 - mean * mean
    var_of_est = 16.0 * mean * mean * n_plus * n_minus / totals.astype(float) ** 3
    return (
        var_est[..., 1] - var_est[..., 0],
        np.sqrt(var_of_est[..., 0] + var_of_est[..., 1]),
    )


def _signed_counts(record: CountRecord) -> np.ndarray:
    """Counts of a +-1 record in (-1, +1) order."""
    if set(record.values) != {-1.0, +1.0}:
        raise EstimationError(f"expected +-1 outcomes, got {record.values}")
    return record.counts[[record.values.index(-1.0), record.values.index(+1.0)]]


def estimate_delta_v(
    unperturbed: CountRecord, perturbed: CountRecord
) -> tuple[float, float]:
    """Empirical variance-law violation and its propagated standard error."""
    value, std_err = _estimate_delta_v(
        np.array([_signed_counts(unperturbed), _signed_counts(perturbed)])
    )
    return float(value), float(std_err)
