"""Command-line sweeps: violation surfaces, cuts, and simulated experiments.

Four subcommands emit one record per grid point as CSV or JSON:

* sweep-pure      pure states: grid over p and the analysis angle.
* sweep-mixed     mixed states: grid over gamma and the analysis angle at
                  a fixed preparation wave-plate angle.
* max-violation   analysis angle pinned to 90 degrees (so the theta flags
                  are usage errors); violation and squared trace
                  distance against p or gamma.
* simulate        full photonic model (gate imperfections, Poisson
                  counts) for both meter configurations per setting.

Angles are accepted in degrees and converted internally.  Each sweep
computes its whole grid at once on stacked 2x2 arrays and streams the
rows to the output.  Sampling uses one generator per sweep, seeded by
--seed and drawn in grid order, so output is byte-identical for
identical arguments.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import _checked_probabilities
from .criterion import _variance_law
from .photonics import (
    _METER_WEIGHTS,
    PERTURBED,
    UNPERTURBED,
    GateParams,
    MEASURED_GATE,
    _coincidence_probabilities,
    _estimate_delta_v,
    _poisson_counts,
    _signal_multiplier,
)
from .qubit import (
    _check_family_params,
    _family_states,
    _tilted_effects,
    _variances,
    observable_x,
)

CSV_FIELDS = ("axis1", "theta", "analytic_dv", "sampled_dv", "std_err", "z", "trdist_sq")


@dataclass(frozen=True)
class SweepSpec:
    """Grid description shared by all subcommands."""

    axis1: str  # "p" or "gamma"
    a1_min: float = 0.0
    a1_max: float = 1.0
    a1_steps: int = 50
    theta_min_deg: float = 0.0
    theta_max_deg: float = 180.0
    theta_steps: int = 50
    gamma: float = 1.0  # fixed coherence when axis1 = "p"
    alpha_deg: float = 12.0  # fixed wave-plate angle when axis1 = "gamma"
    gate: GateParams = field(default_factory=GateParams)
    flux: float = 1e5
    seed: int = 42
    out: str | None = None  # None writes to stdout
    fmt: str = "csv"

    def __post_init__(self):
        if self.axis1 not in ("p", "gamma"):
            raise ValueError(f"axis1 must be 'p' or 'gamma', got {self.axis1!r}")
        if self.a1_steps < 2 or self.theta_steps < 2:
            raise ValueError("grids need at least 2 steps per axis")
        if not self.a1_min < self.a1_max:
            raise ValueError("axis range must satisfy min < max")
        if not (math.isfinite(self.theta_min_deg) and math.isfinite(self.theta_max_deg)):
            raise ValueError(
                f"theta range [{self.theta_min_deg}, {self.theta_max_deg}] must be finite"
            )
        if not self.theta_min_deg < self.theta_max_deg:
            raise ValueError("theta range must satisfy min < max")
        low, high = (0.0, 1.0) if self.axis1 == "p" else (-1.0, 1.0)
        if self.a1_min < low or self.a1_max > high:
            raise ValueError(
                f"{self.axis1} range [{self.a1_min}, {self.a1_max}] leaves [{low}, {high}]"
            )
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [-1, 1]")
        if not math.isfinite(self.alpha_deg):
            raise ValueError(f"alpha={self.alpha_deg} must be finite")
        if not (math.isfinite(self.flux) and self.flux > 0.0):
            raise ValueError(f"flux={self.flux} must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be nonnegative")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep."""

    axis1: float
    theta: float  # degrees
    analytic_dv: float
    sampled_dv: float
    std_err: float
    z: float
    trdist_sq: float


_OUTCOME_VALUES = np.array([-1.0, +1.0])


def _grid_rows(
    spec: SweepSpec, theta_deg: np.ndarray, gate_model_analytic: bool = False
) -> np.ndarray:
    """Every grid point of a sweep at once, one row of CSV_FIELDS per point.

    Points run over the axis1 values, then theta_deg (degrees).  Both meter
    configurations are gated and analyzed for all points together, and
    one generator seeded by spec.seed draws all counts in grid order.
    """
    axis_values = np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
    axis1 = np.repeat(axis_values, len(theta_deg))
    theta_deg = np.tile(theta_deg, len(axis_values))
    theta = np.radians(theta_deg)
    if spec.axis1 == "p":
        p, gamma = axis1, np.full_like(axis1, spec.gamma)
    else:
        p = np.full_like(axis1, math.sin(2.0 * math.radians(spec.alpha_deg)) ** 2)
        gamma = axis1
    for extreme in (np.min, np.max):
        _check_family_params(float(extreme(p)), float(extreme(gamma)))
    states = _family_states(p, np.sqrt(p * (1.0 - p)) * gamma)
    effects = _tilted_effects(theta)

    v_direct, v_dephased, trdist_sq = _variance_law(
        states, observable_x()._channel, effects, _OUTCOME_VALUES
    )
    multipliers = np.stack(
        [_signal_multiplier(spec.gate, _METER_WEIGHTS[mode]) for mode in (UNPERTURBED, PERTURBED)]
    )
    probabilities = _checked_probabilities(  # (point, meter mode, outcome)
        _coincidence_probabilities(states[:, None], multipliers, effects[:, None])
    )
    if gate_model_analytic:  # the gate model's own noise-free prediction
        v_gated = _variances(probabilities, _OUTCOME_VALUES)
        analytic = v_gated[:, 1] - v_gated[:, 0]
    else:
        analytic = v_dephased - v_direct
    counts = _poisson_counts(np.random.default_rng(spec.seed), spec.flux, probabilities)
    sampled, std_err = _estimate_delta_v(counts)
    z = np.divide(sampled, std_err, out=np.zeros_like(sampled), where=std_err > 0.0)
    return np.column_stack((axis1, theta_deg, analytic, sampled, std_err, z, trdist_sq))


def _theta_grid(spec: SweepSpec) -> np.ndarray:
    return np.linspace(spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps)


def _sweep_rows(spec: SweepSpec) -> np.ndarray:
    return _grid_rows(spec, _theta_grid(spec))


def _max_violation_rows(spec: SweepSpec) -> np.ndarray:
    if spec.axis1 == "gamma":
        spec = replace(spec, alpha_deg=45.0 / 2.0)  # p = 1/2
    return _grid_rows(spec, np.array([90.0]))


def _simulate_rows(spec: SweepSpec) -> np.ndarray:
    return _grid_rows(spec, _theta_grid(spec), gate_model_analytic=True)


# Row templates: "%r" of a float is its shortest round-trip form, which is
# what str() and json.dumps write for finite floats.
_CSV_ROW = ",".join(["%r"] * len(CSV_FIELDS))
_JSON_ROW = "  {\n" + ",\n".join(f'    "{name}": %r' for name in CSV_FIELDS) + "\n  }"
_BLOCK_ROWS = 256


def _stream_rows(fmt: str, rows: np.ndarray, handle) -> None:
    """Write rows a block at a time: CSV with a header line, or JSON with
    the bytes json.dumps(records, indent=2) and a final newline would give."""
    if fmt == "csv":
        head, template, separator, tail = ",".join(CSV_FIELDS) + "\n", _CSV_ROW, "\n", "\n"
    else:
        head, template, separator, tail = "[\n", _JSON_ROW, ",\n", "\n]\n"
    handle.write(head)
    for start in range(0, len(rows), _BLOCK_ROWS):
        if start:
            handle.write(separator)
        block = rows[start : start + _BLOCK_ROWS].tolist()
        handle.write(separator.join([template % tuple(row) for row in block]))
    handle.write(tail)


def _write_rows(spec: SweepSpec, rows: np.ndarray) -> None:
    if spec.out is None:
        _stream_rows(spec.fmt, rows, sys.stdout)
    else:
        with open(spec.out, "w", encoding="utf-8") as handle:
            _stream_rows(spec.fmt, rows, handle)


def _emit(spec: SweepSpec, rows: np.ndarray) -> list[SweepRecord]:
    _write_rows(spec, rows)
    return [SweepRecord(*row) for row in rows.tolist()]


def cmd_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Violation surface over (axis1, theta): p at fixed gamma, or gamma at a
    fixed wave-plate angle."""
    return _emit(spec, _sweep_rows(spec))


def cmd_max_violation(spec: SweepSpec) -> list[SweepRecord]:
    """Violation at the maximally incompatible analysis angle (90 degrees).

    Sweeps p at fixed gamma, or gamma at fixed p = 1/2; the analytic
    violation column equals the squared trace distance column here.
    """
    return _emit(spec, _max_violation_rows(spec))


def cmd_simulate(spec: SweepSpec) -> list[SweepRecord]:
    """Full photonic Monte Carlo; the analytic column is the gate model's own
    noise-free prediction, so sampled vs analytic isolates shot noise."""
    return _emit(spec, _simulate_rows(spec))


def _add_common_flags(parser: argparse.ArgumentParser, gate_default: GateParams) -> None:
    parser.add_argument("--axis1", choices=("p", "gamma"), default=None,
                        help="swept state parameter")
    parser.add_argument("--a1-min", type=float, default=0.0, help="axis1 lower bound")
    parser.add_argument("--a1-max", type=float, default=1.0, help="axis1 upper bound")
    parser.add_argument("--a1-steps", type=int, default=50, help="axis1 grid points")
    parser.add_argument("--theta-min", type=float, default=None,
                        help="analysis angle lower bound (degrees, default 0)")
    parser.add_argument("--theta-max", type=float, default=None,
                        help="analysis angle upper bound (degrees, default 180)")
    parser.add_argument("--theta-steps", type=int, default=None,
                        help="analysis angle grid points (default 50)")
    parser.add_argument("--gamma", type=float, default=None,
                        help="fixed coherence (default 1) when sweeping p")
    parser.add_argument("--alpha", type=float, default=None,
                        help="fixed preparation wave-plate angle (degrees, default 12) "
                        "when sweeping gamma")
    parser.add_argument("--th", type=float, default=gate_default.t_h,
                        help="gate intensity transmittivity for H")
    parser.add_argument("--tv", type=float, default=gate_default.t_v,
                        help="gate intensity transmittivity for V")
    parser.add_argument("--visibility", type=float, default=gate_default.visibility,
                        help="two-photon interference visibility")
    parser.add_argument("--flux", type=float, default=1e5,
                        help="expected coincidences per setting")
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")


# name: (grid rows, accepted axis1 values with the default first, default gate)
_COMMANDS = {
    "sweep-pure": (_sweep_rows, ("p",), GateParams()),
    "sweep-mixed": (_sweep_rows, ("gamma",), GateParams()),
    "max-violation": (_max_violation_rows, ("p", "gamma"), GateParams()),
    "simulate": (_simulate_rows, ("p", "gamma"), MEASURED_GATE),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measurement-coherence",
        description="Grid sweeps of the variance-law violation for qubit measurements.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_func, _axes, gate_default) in _COMMANDS.items():
        sub = subparsers.add_parser(name)
        _add_common_flags(sub, gate_default)
    return parser


def _spec_from_args(args: argparse.Namespace, axes: tuple[str, ...]) -> SweepSpec:
    axis1 = args.axis1 or axes[0]
    if axis1 not in axes:
        raise ValueError(f"{args.command} sweeps axis1 = {' or '.join(axes)}")
    if axis1 == "gamma" and args.gamma is not None:
        raise ValueError("--gamma fixes the coherence when sweeping p; it cannot "
                         "be combined with --axis1 gamma")
    if axis1 == "p" and args.alpha is not None:
        raise ValueError("--alpha fixes the wave-plate angle when sweeping gamma; it "
                         "cannot be combined with --axis1 p")
    if args.command == "max-violation" and axis1 == "gamma" and args.alpha is not None:
        raise ValueError("max-violation --axis1 gamma fixes p = 1/2; drop --alpha")
    theta_grid = {name: value for name, value in zip(
        ("theta_min_deg", "theta_max_deg", "theta_steps"),
        (args.theta_min, args.theta_max, args.theta_steps),
    ) if value is not None}  # unset flags keep the SweepSpec defaults
    if args.command == "max-violation" and theta_grid:
        raise ValueError("--theta-min/--theta-max/--theta-steps set the analysis-angle "
                         "grid; max-violation pins theta at 90 degrees")
    return SweepSpec(
        axis1=axis1,
        a1_min=args.a1_min,
        a1_max=args.a1_max,
        a1_steps=args.a1_steps,
        **theta_grid,
        gamma=1.0 if args.gamma is None else args.gamma,
        alpha_deg=12.0 if args.alpha is None else args.alpha,
        gate=GateParams(t_h=args.th, t_v=args.tv, visibility=args.visibility),
        flux=args.flux,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    grid_rows, axes, _gate = _COMMANDS[args.command]
    try:
        spec = _spec_from_args(args, axes)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_rows(spec, grid_rows(spec))
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
