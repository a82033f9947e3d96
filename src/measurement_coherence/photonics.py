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
  after it all no-interference amplitudes equal tau = T_H T_V, the two-V
  reflect-reflect one is r = T_H (1 - T_V), and the post-selected map is
  a controlled-sign gate at the ideal settings.
* Partial distinguishability: with two-photon interference visibility v
  the post-selected output is the convex mixture of the interfering map
  and the fully distinguishable one, where the transmit-transmit and
  reflect-reflect contributions to the two-V coincidence add
  incoherently.  v = 1 reproduces textbook interference, v = 0 none.
* Readout: the meter is injected as |H> (gate off: no coupling) or |+>
  (gate on) and is never analyzed, so discarding it realizes the
  measure-and-forget channel on the signal: rho -> K o rho, renormalized,
  with the 2x2 closed form K of _gate_multiplier (identity for
  |H>, exact dephasing for |+> at the ideal gate).  The signal is
  analyzed by a half-wave plate at a quarter of the analysis angle
  followed by a polarizing splitter; counts per output port are
  Poissonian.  The port
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

from .channels import PROBABILITY_FLOOR, OutcomeDistribution
from .qubit import (
    QState,
    _Value,
    _born,
    _check_finite,
    _check_outcome_values,
    _family_state,
    _read_only,
    _tilted_effects,
)

UNPERTURBED = "unperturbed"  # meter |H>, gate inactive
PERTURBED = "perturbed"  # meter |+>, gate active


class PostSelectionError(ValueError):
    """Coincidence post-selection has (numerically) zero success probability."""


class EstimationError(ValueError):
    """Count record cannot support the requested estimate."""


@dataclass(frozen=True)
class PrepConfig:
    """Signal preparation: wave-plate angle, mixing weight, optional phase.

    The prepared state has V population p = sin^2(2*alpha) and coherence
    gamma = w_plus - (1 - w_plus).  Every angle is accepted, but only for
    alpha in [0, 45] degrees (modulo 90) is the state the qubit family's
    make_state(p, gamma); in (45, 90) degrees modulo 90, such as 60 or
    -30, its coherence has the opposite sign to gamma.
    """

    alpha_deg: float
    w_plus: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        _check_finite("angle alpha_deg", self.alpha_deg)
        _check_finite("phase phi", self.phi)
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


# Largest mean flux the count sampler takes.  numpy's Poisson sampler
# rejects means above about 9.2e18, and at 1e18 the counts of both
# outcomes, about 1e18 each, still sum well inside int64.
MAX_FLUX = 1e18


def _check_flux(mean_flux: float, name: str = "mean_flux") -> None:
    """Raise ValueError unless 0 < mean_flux <= MAX_FLUX; NaN fails too."""
    if not (math.isfinite(mean_flux) and mean_flux > 0.0):
        raise ValueError(f"{name}={mean_flux} must be finite and positive")
    if not mean_flux <= MAX_FLUX:
        raise ValueError(f"{name}={mean_flux} exceeds MAX_FLUX={MAX_FLUX:g}")


@dataclass(frozen=True)
class CountRecord(_Value):
    """Poisson coincidence counts for one analyzer setting."""

    values: tuple[float, ...]
    counts: np.ndarray
    mean_flux: float

    def __post_init__(self):
        _check_flux(self.mean_flux)
        given = np.asarray(self.counts)
        if given.dtype.kind == "b":
            raise ValueError("counts must be whole numbers, not booleans")
        if not (np.isfinite(given).all() and (given == np.trunc(given)).all()):
            raise ValueError("counts must be whole numbers")
        # The int64 cast is checked first: out of range it warns and wraps.
        # An int64 input is in range, and on numpy 1.x comparing it with
        # 2**63 would go through float64.
        if given.dtype.kind != "i" and not ((given >= -(2**63)) & (given < 2**63)).all():
            raise ValueError("counts must lie in the int64 range [-2**63, 2**63)")
        counts = _read_only(given.astype(np.int64))
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if sum(counts.tolist()) >= 2**63:  # Python integers do not wrap
            raise ValueError("counts must sum to less than 2**63")
        values = _check_outcome_values(self.values)
        if counts.shape != (len(values),):
            raise ValueError("one count per outcome value required")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)


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
    # Hermitian, trace one, and PSD since |off| <= |cos sin|: PrepConfig
    # has checked every parameter.
    return QState._trusted(_family_state(sin * sin, cfg.gamma * cos * sin, cfg.phi))


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
    if success <= PROBABILITY_FLOOR:
        raise PostSelectionError(
            f"coincidence success probability {success} vanishes"
        )
    return QState(out / success), success


def analyzer_distribution(signal: QState, theta: float) -> OutcomeDistribution:
    """Analyze the signal with a wave plate at theta/4 and a polarizing splitter.

    The plate's rotation sense is fixed so that the H output port carries
    the -1 outcome of the tilted observable y(theta), so the port
    probabilities are the Born rule of the y(theta) effects.
    """
    if signal.dim != 2:
        raise ValueError(f"dimension mismatch: {signal.dim} vs 2")
    _check_finite("angle theta", theta)
    return OutcomeDistribution((-1.0, +1.0), _born(signal.matrix, _tilted_effects(theta)))


# Meter V weight of each run, in _RUNS order: |H> has none, |+> one half.
# The gate is diagonal and the meter is discarded right after it, so the
# meter's coherences never matter.
_RUNS = (UNPERTURBED, PERTURBED)
_METER_V = np.array([0.0, 0.5])


def _gate_multiplier(params: GateParams, meter_v) -> np.ndarray:
    """The 2x2 multiplier K of the gate, shape meter_v.shape + (2, 2).

    Gating and discarding the meter maps rho to K o rho (entrywise
    product).  After the compensators every branch amplitude is
    tau = T_H T_V except the reflect-reflect one of the two-V term,
    r = T_H (1 - T_V), so with visibility v and meter V weight w
        K = tau^2 J + w [[0, -v tau r], [-v tau r, r^2 - 2 v tau r]],
    J the all-ones matrix; gate_channel is the 4x4 reference it reproduces.
    """
    tau = params.t_h * params.t_v
    r = params.t_h * (1.0 - params.t_v)
    cross = params.visibility * tau * r
    coupling = np.array([[0.0, -cross], [-cross, r * r - 2.0 * cross]])
    return tau * tau + np.asarray(meter_v)[..., None, None] * coupling


def _check_success(lowest) -> None:
    """Raise PostSelectionError when the lowest coincidence success
    probability is at or below PROBABILITY_FLOOR."""
    if lowest <= PROBABILITY_FLOOR:
        raise PostSelectionError(f"coincidence success probability {lowest} vanishes")


def _gated_signals(signals: np.ndarray, params: GateParams, meter_v) -> np.ndarray:
    """Gated, renormalized signals K o rho / tr(K o rho), with K from
    _gate_multiplier; tr(K o rho) is the coincidence success probability.

    signals (..., 2, 2) and meter_v (...) broadcast; the gated array is
    new and is renormalized in place.  Raises PostSelectionError when any
    success probability is at or below PROBABILITY_FLOOR.
    """
    gated = _gate_multiplier(params, meter_v) * signals
    # The trace's real part as np.trace sums it: its sum starts at +0.0,
    # so two -0.0 entries give +0.0, which the trailing + 0.0 keeps.
    success = gated[..., 0, 0].real + gated[..., 1, 1].real + 0.0
    _check_success(np.minimum.reduce(success, axis=None))
    gated /= success[..., None, None]
    return gated


def run_setting(
    cfg: PrepConfig, params: GateParams, theta: float, mode: str
) -> OutcomeDistribution:
    """Exact outcome distribution of one experimental configuration.

    mode selects the meter injection: UNPERTURBED (|H>, no coupling) or
    PERTURBED (|+>, gate active).  The signal passes the post-selected
    gate of _gated_signals, which renormalizes it, the meter is discarded
    unanalyzed, and the signal is read out at analysis angle theta.
    """
    if mode not in _RUNS:
        raise ValueError(f"unknown mode {mode!r}")
    _check_finite("angle theta", theta)
    signal = _gated_signals(prepare_signal(cfg).matrix, params, _METER_V[_RUNS.index(mode)])
    return OutcomeDistribution((-1.0, +1.0), _born(signal, _tilted_effects(theta)))


def _snap_round_off(probabilities: np.ndarray) -> np.ndarray:
    """Set the probabilities at or below PROBABILITY_FLOOR to 0, in place,
    and return the array.

    Those are round-off, and the Poisson draw counts them as 0.  The
    generator draws no variate for a zero mean and at least one for a
    positive mean, so without the snap a round-off change in one cell
    would shift every later count of the sweep.
    """
    probabilities[probabilities <= PROBABILITY_FLOOR] = 0.0
    return probabilities


def _poisson_counts(rng: np.random.Generator, mean_flux: float, probabilities) -> np.ndarray:
    """Independent Poisson counts with means mean_flux * P, drawn in array
    order, with P snapped by _snap_round_off (on a copy)."""
    _check_flux(mean_flux)
    return rng.poisson(mean_flux * _snap_round_off(np.array(probabilities, dtype=float)))


def sample_counts(dist: OutcomeDistribution, mean_flux: float, seed: int) -> CountRecord:
    """Independent Poisson coincidence counts per outcome, mean flux * P(y).

    The seed fully determines the draw.
    """
    counts = _poisson_counts(np.random.default_rng(seed), mean_flux, dist.probabilities)
    return CountRecord(dist.values, counts, mean_flux)


def _estimate_delta_v(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in violation and its first-order standard error from stacked counts.

    counts has shape (..., 2, 2): (unperturbed, perturbed) runs by
    (-1, +1) outcomes.  Per run, with m = (n+ - n-)/N, the variance
    estimate is 1 - m^2; propagating independent Poisson fluctuations
    (variance = observed count) gives it the variance 16 m^2 n+ n- / N^3.
    """
    totals = counts[..., 0] + counts[..., 1]
    if not totals.all():
        raise EstimationError("count record is empty")
    # The sums stay exact in int64 and are rounded once.  16 m^2 is
    # 16 (m m) to the bit: the scaling is exact and m^2 >= N^-2 is normal.
    # Each step runs in place on the buffer it reads, in the order of
    # 1 - m^2 and 16 m^2 n+ n- / N^3 as written, so each rounds the same.
    counts, totals = counts.astype(float), totals.astype(float)
    n_minus, n_plus = counts[..., 0], counts[..., 1]
    mean_sq = n_plus - n_minus
    mean_sq /= totals
    mean_sq *= mean_sq  # m = (n+ - n-) / N, squared
    var_est = 1.0 - mean_sq
    var_of_est = mean_sq
    var_of_est *= 16.0
    var_of_est *= n_plus
    var_of_est *= n_minus
    totals **= 3
    var_of_est /= totals
    return var_est[..., 1] - var_est[..., 0], np.sqrt(var_of_est[..., 0] + var_of_est[..., 1])


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
