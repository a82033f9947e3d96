"""Command-line sweeps: violation surfaces, cuts, and simulated experiments.

Four subcommands emit one record per grid point as CSV or JSON:

* sweep-pure      pure states: grid over p and the analysis angle.
* sweep-mixed     mixed states: grid over gamma and the analysis angle at
                  a fixed preparation wave-plate angle.
* max-violation   analysis angle pinned to 90 degrees; violation and
                  squared trace distance against p or gamma.
* simulate        full photonic model (gate imperfections, Poisson
                  counts) for both meter configurations per setting.

Angles are accepted in degrees and converted internally.  All sampling
derives per-point seeds from (master seed, grid index), so output is
byte-identical for identical arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .criterion import delta_v
from .photonics import (
    PERTURBED,
    UNPERTURBED,
    GateParams,
    MEASURED_GATE,
    PrepConfig,
    estimate_delta_v,
    run_setting,
    sample_counts,
)
from .qubit import make_state, observable_x, observable_y

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
        if not self.theta_min_deg < self.theta_max_deg:
            raise ValueError("theta range must satisfy min < max")
        low, high = (0.0, 1.0) if self.axis1 == "p" else (-1.0, 1.0)
        if self.a1_min < low or self.a1_max > high:
            raise ValueError(
                f"{self.axis1} range [{self.a1_min}, {self.a1_max}] leaves [{low}, {high}]"
            )
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [-1, 1]")
        if self.flux <= 0.0:
            raise ValueError(f"flux={self.flux} must be positive")
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

    def as_row(self) -> tuple[float, ...]:
        return (
            self.axis1,
            self.theta,
            self.analytic_dv,
            self.sampled_dv,
            self.std_err,
            self.z,
            self.trdist_sq,
        )


def _resolve_point(spec: SweepSpec, axis_value: float) -> tuple[float, float]:
    """Map the swept axis value to the (p, gamma) pair of the grid point."""
    if spec.axis1 == "p":
        return axis_value, spec.gamma
    return math.sin(2.0 * math.radians(spec.alpha_deg)) ** 2, axis_value


def _prep_for(p: float, gamma: float) -> PrepConfig:
    alpha_deg = math.degrees(math.asin(math.sqrt(p)) / 2.0)
    return PrepConfig(alpha_deg=alpha_deg, w_plus=(1.0 + gamma) / 2.0)


def _child_seed(master: int, index: int, branch: int) -> int:
    seq = np.random.SeedSequence([master, index, branch])
    return int(seq.generate_state(1, np.uint64)[0])


def _make_record(
    spec: SweepSpec,
    index: int,
    axis_value: float,
    theta_deg: float,
    gate_model_analytic: bool,
) -> SweepRecord:
    p, gamma = _resolve_point(spec, axis_value)
    theta_rad = math.radians(theta_deg)
    prep = _prep_for(p, gamma)
    report = delta_v(make_state(p, gamma), observable_x(), observable_y(theta_rad))
    modes = (UNPERTURBED, PERTURBED)
    dists = [run_setting(prep, spec.gate, theta_rad, mode) for mode in modes]
    if gate_model_analytic:  # the gate model's own noise-free prediction
        analytic = dists[1].variance() - dists[0].variance()
    else:
        analytic = report.delta_v
    counts = [
        sample_counts(
            dist, spec.flux, _child_seed(spec.seed, index, branch), theta=theta_rad, mode=mode
        )
        for branch, (mode, dist) in enumerate(zip(modes, dists))
    ]
    sampled, std_err = estimate_delta_v(*counts)
    z = sampled / std_err if std_err > 0.0 else 0.0
    return SweepRecord(
        axis1=axis_value,
        theta=theta_deg,
        analytic_dv=analytic,
        sampled_dv=sampled,
        std_err=std_err,
        z=z,
        trdist_sq=report.trace_norm_sq,
    )


def _grid_records(spec: SweepSpec, gate_model_analytic: bool = False) -> list[SweepRecord]:
    axis_values = np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
    theta_values = np.linspace(spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps)
    records = []
    index = 0
    for axis_value in axis_values:
        for theta_deg in theta_values:
            records.append(
                _make_record(
                    spec, index, float(axis_value), float(theta_deg), gate_model_analytic
                )
            )
            index += 1
    return records


def _write_records(spec: SweepSpec, records: list[SweepRecord]) -> None:
    if spec.fmt == "csv":
        lines = [",".join(CSV_FIELDS)]
        lines += [",".join(str(v) for v in rec.as_row()) for rec in records]
        text = "\n".join(lines) + "\n"
    else:
        payload = [dict(zip(CSV_FIELDS, rec.as_row())) for rec in records]
        text = json.dumps(payload, indent=2) + "\n"
    if spec.out is None:
        sys.stdout.write(text)
    else:
        with open(spec.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Violation surface over (axis1, theta): p at fixed gamma, or gamma at a
    fixed wave-plate angle."""
    records = _grid_records(spec)
    _write_records(spec, records)
    return records


def cmd_max_violation(spec: SweepSpec) -> list[SweepRecord]:
    """Violation at the maximally incompatible analysis angle (90 degrees).

    Sweeps p at fixed gamma, or gamma at fixed p = 1/2; the analytic
    violation column equals the squared trace distance column here.
    """
    if spec.axis1 == "gamma":
        spec = replace(spec, alpha_deg=45.0 / 2.0)  # p = 1/2
    axis_values = np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
    records = [
        _make_record(spec, index, float(axis_value), 90.0, gate_model_analytic=False)
        for index, axis_value in enumerate(axis_values)
    ]
    _write_records(spec, records)
    return records


def cmd_simulate(spec: SweepSpec) -> list[SweepRecord]:
    """Full photonic Monte Carlo; the analytic column is the gate model's own
    noise-free prediction, so sampled vs analytic isolates shot noise."""
    records = _grid_records(spec, gate_model_analytic=True)
    _write_records(spec, records)
    return records


def _add_common_flags(parser: argparse.ArgumentParser, gate_default: GateParams) -> None:
    parser.add_argument("--axis1", choices=("p", "gamma"), default=None,
                        help="swept state parameter")
    parser.add_argument("--a1-min", type=float, default=0.0, help="axis1 lower bound")
    parser.add_argument("--a1-max", type=float, default=1.0, help="axis1 upper bound")
    parser.add_argument("--a1-steps", type=int, default=50, help="axis1 grid points")
    parser.add_argument("--theta-min", type=float, default=0.0,
                        help="analysis angle lower bound (degrees)")
    parser.add_argument("--theta-max", type=float, default=180.0,
                        help="analysis angle upper bound (degrees)")
    parser.add_argument("--theta-steps", type=int, default=50,
                        help="analysis angle grid points")
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="fixed coherence when sweeping p")
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


# name: (function, accepted axis1 values with the default first, default gate)
_COMMANDS = {
    "sweep-pure": (cmd_sweep, ("p",), GateParams()),
    "sweep-mixed": (cmd_sweep, ("gamma",), GateParams()),
    "max-violation": (cmd_max_violation, ("p", "gamma"), GateParams()),
    "simulate": (cmd_simulate, ("p", "gamma"), MEASURED_GATE),
}


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
    if args.command == "max-violation" and axis1 == "gamma" and args.alpha is not None:
        raise ValueError("max-violation --axis1 gamma fixes p = 1/2; drop --alpha")
    return SweepSpec(
        axis1=axis1,
        a1_min=args.a1_min,
        a1_max=args.a1_max,
        a1_steps=args.a1_steps,
        theta_min_deg=args.theta_min,
        theta_max_deg=args.theta_max,
        theta_steps=args.theta_steps,
        gamma=args.gamma,
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
    func, axes, _gate = _COMMANDS[args.command]
    try:
        spec = _spec_from_args(args, axes)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        func(spec)
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
