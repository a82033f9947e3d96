"""Command-line sweeps: violation surfaces, cuts, and simulated experiments.

Four subcommands emit one record per grid point as CSV or JSON:

* sweep-pure      pure states: grid over p and the analysis angle.
* sweep-mixed     mixed states: grid over gamma and the analysis angle at
                  a fixed preparation wave-plate angle.
* max-violation   analysis angle pinned to 90 degrees; violation and
                  squared trace distance against p or gamma.
* simulate        full photonic model (gate imperfections, Poisson
                  counts) for both meter configurations per setting.

A flag the command does not read is a usage error that names it:
max-violation reads neither --alpha nor the theta flags, and no command
reads the fixed value of the axis it sweeps (--gamma with --axis1 gamma,
--alpha with --axis1 p).  --alpha lies in [0, 45] degrees; with gamma in
[-1, 1] that reaches every state of the family.

Angles are accepted in degrees and converted internally.  Each sweep
computes its grid in engine blocks of up to 16384 points, each a
rectangle of the grid (whole theta rows, or a piece of one longer row),
and writes each block as it finishes.  What depends on the state alone,
the dephased state, the squared trace distance and the gated signals, is
computed once per sweep, for every axis value before the first block,
and broadcast over theta.  Applying the gate there is also its check.
Each block reaches the writer as its columns in the shapes they were
computed in: one entry per axis value, per theta, or per point.  The
writer formats a column broadcast over the block once per block, by its
shape, and every other column cell by cell.  Sampling uses one generator
per sweep, seeded by --seed and drawn in grid order, so output is
byte-identical for identical arguments and does not depend on the block
size.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .channels import _checked_probabilities, _luders
from .photonics import (
    _METER_V,
    GateParams,
    MEASURED_GATE,
    PrepConfig,
    _check_flux,
    _estimate_delta_v,
    _gated_signals,
    _poisson_counts,
)
from .qubit import (
    _born,
    _family_states,
    _tilted_effects,
    _trace_norm,
    _variances,
    observable_x,
)

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
    alpha_deg: float = 12.0  # fixed wave-plate angle in [0, 45] when axis1 = "gamma"
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
        if not 0.0 <= self.alpha_deg <= 45.0:
            raise ValueError(f"alpha={self.alpha_deg} outside [0, 45] degrees")
        _check_flux(self.flux, "flux")
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


CSV_FIELDS = tuple(f.name for f in fields(SweepRecord))
_OUTCOME_VALUES = np.array([-1.0, +1.0])


@functools.cache
def _x_channel() -> np.ndarray:
    """Lueders matrix of the x-observable, built once per process."""
    return observable_x()._channel


_ENGINE_POINTS = 16384  # grid points per engine block


def _grid_rows(
    spec: SweepSpec, theta_deg: np.ndarray, gate_model_analytic: bool = False
) -> Iterator[tuple[np.ndarray, ...]]:
    """Every grid point of a sweep, in blocks of at most _ENGINE_POINTS
    points.

    Points run over the axis1 values, then theta_deg (degrees).  A block is
    a rectangle of the grid: whole theta rows, or one piece of a theta row
    longer than _ENGINE_POINTS.  A block of a axis values by w angles is
    yielded as the columns of CSV_FIELDS in the shapes they broadcast
    from: axis1 and trdist_sq (a, 1), theta (w,) and the rest (a, w).
    Everything that depends on the state alone is computed once per sweep
    and broadcast over theta.  One
    generator seeded by spec.seed draws the counts block after block in
    grid order, which gives the counts of one draw over the whole grid.
    """
    axis_values = np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
    if spec.axis1 == "p":
        p, gamma = axis_values, np.full_like(axis_values, spec.gamma)
    else:
        p = np.full_like(axis_values, PrepConfig(spec.alpha_deg).p)
        gamma = axis_values
    # SweepSpec has range-checked p and gamma.
    states = _family_states(p, np.sqrt(p * (1.0 - p)) * gamma)
    dephased = _luders(states, _x_channel())
    distance = _trace_norm(states - dephased)
    trdist_sq = distance * distance
    # The gate depends on the state but not on theta: it is applied here
    # once per (axis value, meter mode), which is also its check, so a gate
    # that fails on some grid point fails before any block is yielded.
    signals = _gated_signals(states[:, None], spec.gate, _METER_V)
    theta_effects = _tilted_effects(np.radians(theta_deg))
    rng = np.random.default_rng(spec.seed)
    steps = len(theta_deg)
    rows, width = max(_ENGINE_POINTS // steps, 1), min(steps, _ENGINE_POINTS)
    for a, t in itertools.product(range(0, len(axis_values), rows), range(0, steps, width)):
        axis, cut = slice(a, a + rows), slice(t, t + width)
        effects = theta_effects[None, cut]
        probabilities = _checked_probabilities(  # (axis, theta, meter mode, outcome)
            _born(signals[axis, None], effects[:, :, None])
        )
        if gate_model_analytic:  # the gate model's own noise-free prediction
            v_gated = _variances(probabilities, _OUTCOME_VALUES)
            analytic = v_gated[..., 1] - v_gated[..., 0]
        else:
            pair = np.array((states[axis], dephased[axis]))
            runs = _born(pair[:, :, None], effects)  # (run, axis, theta, outcome)
            v_direct, v_dephased = _variances(runs, _OUTCOME_VALUES)
            analytic = v_dephased - v_direct
        counts = _poisson_counts(rng, spec.flux, probabilities)
        sampled, std_err = _estimate_delta_v(counts)
        z = np.divide(sampled, std_err, out=np.zeros_like(sampled), where=std_err > 0.0)
        yield (axis_values[axis, None], theta_deg[cut], analytic, sampled, std_err, z,
               trdist_sq[axis, None])


def _theta_grid(spec: SweepSpec) -> np.ndarray:
    return np.linspace(spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps)


def _sweep_rows(spec: SweepSpec) -> Iterator[tuple[np.ndarray, ...]]:
    return _grid_rows(spec, _theta_grid(spec))


def _max_violation_rows(spec: SweepSpec) -> Iterator[tuple[np.ndarray, ...]]:
    if spec.axis1 == "gamma":
        spec = replace(spec, alpha_deg=45.0 / 2.0)  # p = 1/2
    return _grid_rows(spec, np.array([90.0]))


def _simulate_rows(spec: SweepSpec) -> Iterator[tuple[np.ndarray, ...]]:
    return _grid_rows(spec, _theta_grid(spec), gate_model_analytic=True)


# Row templates over the texts of the cells.  repr of a float is its
# shortest round-trip form, which is what str() and json.dumps write for
# finite floats.
_CSV_ROW = ",".join(["%s"] * len(CSV_FIELDS))
_JSON_ROW = "  {\n" + ",\n".join(f'    "{name}": %s' for name in CSV_FIELDS) + "\n  }"
_BLOCK_ROWS = 256


def _row_texts(columns: tuple[np.ndarray, ...]) -> Iterator[Iterator[tuple[str, ...]]]:
    """The repr texts of the cells of one engine block, one iterator of row
    tuples per _BLOCK_ROWS rows.

    The rows are those of the columns broadcast together.  A column with
    one entry per row is formatted as it is written; a smaller one formats
    each of its entries once, and its texts are broadcast over the block.
    """
    block = np.broadcast(*columns)
    shape, size = block.shape, block.size
    cells = []  # (entries in row order, whether they are texts already) per column
    for column in columns:
        if column.size == size:
            cells.append((column.reshape(-1), False))
        else:
            texts = np.array(list(map(repr, column.ravel().tolist())), dtype=object)
            cells.append((np.broadcast_to(texts.reshape(column.shape), shape).flat, True))
    for start in range(0, size, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield zip(*(entries[start:stop].tolist() if is_text
                    else map(repr, entries[start:stop].tolist()) for entries, is_text in cells))


def _stream_rows(fmt: str, blocks: Iterable[tuple[np.ndarray, ...]], handle) -> None:
    """Write the rows of each engine block, _BLOCK_ROWS at a time: CSV with
    a header line, or JSON with the bytes json.dumps(records, indent=2) and
    a final newline would give."""
    if fmt == "csv":
        head, template, separator, tail = ",".join(CSV_FIELDS) + "\n", _CSV_ROW, "\n", "\n"
    else:
        head, template, separator, tail = "[\n", _JSON_ROW, ",\n", "\n]\n"
    handle.write(head)
    lead = ""
    for columns in blocks:
        for texts in _row_texts(columns):
            handle.write(lead)
            handle.write(separator.join([template % row for row in texts]))
            lead = separator
    handle.write(tail)


def _write_rows(spec: SweepSpec, blocks: Iterator[tuple[np.ndarray, ...]]) -> None:
    # The first block is computed before the output is opened, so a sweep
    # that fails there leaves no file behind.
    blocks = itertools.chain([next(blocks)], blocks)
    if spec.out is None:
        _stream_rows(spec.fmt, blocks, sys.stdout)
        return
    handle = open(spec.out, "w", encoding="utf-8")
    opened = os.fstat(handle.fileno())
    try:
        with handle:
            _stream_rows(spec.fmt, blocks, handle)
    except BaseException:
        # A sweep that fails in a later block leaves no --out file either.
        # Only the regular file this call opened goes: the path must still
        # name it, not through a link, so /dev/stdout and os.devnull stay.
        try:
            if os.path.samestat(os.lstat(spec.out), opened) and os.path.isfile(spec.out):
                os.remove(spec.out)
        except OSError:
            pass  # the sweep's own error is the one to report
        raise


def _emit(spec: SweepSpec, blocks: Iterator[tuple[np.ndarray, ...]]) -> list[SweepRecord]:
    blocks = list(blocks)  # the records hold the whole grid anyway
    _write_rows(spec, iter(blocks))
    return [SweepRecord(*row) for columns in blocks
            for row in zip(*(column.ravel().tolist() for column in np.broadcast_arrays(*columns)))]


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


# flag: (SweepSpec or GateParams field, type, help).  The parser sets only
# the flags given, so every default and value check lives in SweepSpec,
# GateParams and _COMMANDS.
_FLAGS = {
    "--axis1": ("axis1", str, "swept state parameter, p or gamma"),
    "--a1-min": ("a1_min", float, "axis1 lower bound"),
    "--a1-max": ("a1_max", float, "axis1 upper bound"),
    "--a1-steps": ("a1_steps", int, "axis1 grid points"),
    "--theta-min": ("theta_min_deg", float, "analysis angle lower bound in degrees"),
    "--theta-max": ("theta_max_deg", float, "analysis angle upper bound in degrees"),
    "--theta-steps": ("theta_steps", int, "analysis angle grid points"),
    "--gamma": ("gamma", float, "fixed coherence when sweeping p"),
    "--alpha": ("alpha_deg", float,
                "fixed preparation wave-plate angle (degrees, 0 to 45) when sweeping gamma"),
    "--th": ("t_h", float, "gate intensity transmittivity for H"),
    "--tv": ("t_v", float, "gate intensity transmittivity for V"),
    "--visibility": ("visibility", float, "two-photon interference visibility"),
    "--flux": ("flux", float, "expected coincidences per setting"),
    "--seed": ("seed", int, "master RNG seed"),
    "--out": ("out", str, "output path (default: stdout)"),
    "--format": ("fmt", str, "output format, csv or json"),
}

# name: (grid rows, accepted axis1 values with the default first, default
# gate, fields the command never reads)
_COMMANDS = {
    "sweep-pure": (_sweep_rows, ("p",), GateParams(), ()),
    "sweep-mixed": (_sweep_rows, ("gamma",), GateParams(), ()),
    "max-violation": (_max_violation_rows, ("p", "gamma"), GateParams(),
                      ("alpha_deg", "theta_min_deg", "theta_max_deg", "theta_steps")),
    "simulate": (_simulate_rows, ("p", "gamma"), MEASURED_GATE, ()),
}
# The fixed value of the other state parameter, which a sweep of this axis
# never reads: gamma for a sweep of p, the wave-plate angle for gamma.
_UNREAD_ON_AXIS = {"p": ("alpha_deg",), "gamma": ("gamma",)}
_GATE_FIELDS = frozenset(f.name for f in fields(GateParams))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measurement-coherence",
        description="Grid sweeps of the variance-law violation for qubit measurements.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    spec_defaults = {f.name: f.default for f in fields(SweepSpec)}
    for name, (_rows, axes, gate, _unread) in _COMMANDS.items():
        defaults = {**spec_defaults, **asdict(gate), "axis1": axes[0]}
        sub = subparsers.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag, (dest, kind, text) in _FLAGS.items():
            shown = "" if defaults[dest] is None else f" (default: {defaults[dest]})"
            sub.add_argument(flag, dest=dest, type=kind, help=text + shown,
                             metavar=flag[2:].replace("-", "_").upper())
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    given = vars(args).copy()  # only the flags on the command line
    command = given.pop("command")
    _rows, axes, gate, unread = _COMMANDS[command]
    axis1 = given.setdefault("axis1", axes[0])
    if axis1 not in axes:
        raise ValueError(f"{command} sweeps axis1 = {' or '.join(axes)}")
    unread += _UNREAD_ON_AXIS[axis1]
    for flag, (name, _type, _help) in _FLAGS.items():
        if name in given and name in unread:
            raise ValueError(f"{flag} is not read by {command} --axis1 {axis1}")
    gate = replace(gate, **{name: given.pop(name) for name in _GATE_FIELDS & given.keys()})
    return SweepSpec(gate=gate, **given)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_rows(spec, _COMMANDS[args.command][0](spec))
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
