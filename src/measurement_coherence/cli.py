"""Command-line sweeps: violation surfaces, cuts, and simulated experiments.

Four subcommands emit one record per grid point as CSV or JSON:

* sweep-pure      pure states: grid over p and the analysis angle.
* sweep-mixed     mixed states: grid over gamma and the analysis angle at
                  a fixed preparation wave-plate angle.
* max-violation   analysis angle pinned to 90 degrees; violation and
                  squared trace distance against p, or against gamma at
                  the wave-plate angle 22.5 degrees.
* simulate        full photonic model (gate imperfections, Poisson
                  counts) for both meter configurations per setting.

A flag the command does not read is a usage error that names it:
max-violation reads neither --alpha nor the theta flags, and no command
reads the fixed value of the axis it sweeps (--gamma with --axis1 gamma,
--alpha with --axis1 p).  --alpha lies in [0, 45] degrees; with gamma in
[-1, 1] that reaches every state of the family.

main(argv) runs a sweep, from the shell and from Python alike, and
returns the exit status; the records are the rows it writes.  It parses
an argv that starts with a command by that command's own subparser, the
one build_parser hands it to, and runs the top-level parser only for
help, no command or an unknown one; the namespace is the same, and an
unrecognized flag is reported under the command's usage line.

Angles are accepted in degrees and converted internally.  Each sweep
computes its grid in engine blocks of up to 16384 points (_ENGINE_POINTS), each a
rectangle of the grid (whole theta rows, or a piece of one longer row),
and writes each block as it finishes.  What depends on the state alone
is computed per block, for that block's axis values only, and broadcast
over theta: the coherence off of each family state, ||rho - rho'||_1
(twice the coherence's magnitude, so no sweep calls numpy.linalg) and
the gated signals.  So memory does not grow with the axis beyond the
axis values themselves.  A gate that vanishes anywhere on the axis still
fails before the first block: the coincidence rate tr(K o rho) reads
only the populations, and a sweep of more than one block of axis values
checks it over the whole axis first, in chunks of 16384 values.  The
analyzer effects are built per block, from that block's
angles, and the Born rule meets the block's signals with all of them as
one stack in one einsum, without broadcast axes or a BLAS call.  Every
command shares one block loop; _COMMANDS names each command's analytic
column.  That of sweep-pure, sweep-mixed and max-violation
is the family's closed form for delta_v (criterion._family_delta_v), so
no sweep builds the dephased state rho' or runs a second Born pass; that
of simulate is the gate model's own prediction, (m_H - m_+)(m_H + m_+)
from the means of its two gated runs, so no variance is taken.

Each engine block has a head and a tail.  The head is all that the sweep
computes without --seed or --flux: its axis1, theta, analytic_dv and
trdist_sq columns, and the Poisson means per unit flux, which are the
block's checked probabilities with round-off (at most PROBABILITY_FLOOR)
snapped to 0 once the analytic column is taken.  The tail is only what
reads --seed and --flux: the Poisson draw at flux times the means, the
estimator and z.  A sweep whose grid fits in one engine block keeps its
head in a one-entry memo, keyed on the numbers the head is built from:
the command's column, axis1, both step counts and the float64 bytes of
the axis and theta bounds, gamma, alpha and the gate.  The grids are
functions of those numbers, built only when the head is, so the key is
at least as fine as their bytes; the float bytes keep -0.0 apart from
0.0.  So the next sweep in the same process that differs only in --seed,
--flux, --out or --format reuses the head.  That sweep also turns the
head's four columns into their repr texts, kept in the memo, so from the
third sweep of a grid on the writer formats only the tail's three float
columns (sampled_dv, std_err, z); a grid swept once costs what it did
without the memo.  Repeating a grid this way is what
demos/06_calibration.py does, 40 seeds per flux.  The memo lives for the
process and holds at most one head, about 0.3 MB for the default 50x50
grid and under 2.5 MB for a full block; its arrays are read-only and a
head that raises is not kept.  A sweep of more than one block
builds each block's head in turn, with the same code, and keeps none.

The writer writes each chunk of rows as one join of the row template's
pieces and the cells' texts, and formats a column broadcast over a block
once per block.  Sampling uses one generator per sweep, seeded by --seed
and drawn in grid order, so output is byte-identical for identical
arguments, whether or not an earlier sweep in the same process filled
the memo, and does not depend on the block size.
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

from .channels import _checked_probabilities
from .criterion import _family_delta_v
from .photonics import (
    _METER_V,
    GateParams,
    MEASURED_GATE,
    PrepConfig,
    _check_flux,
    _check_success,
    _estimate_delta_v,
    _gate_multiplier,
    _gated_signals,
    _snap_round_off,
)
from .qubit import _born, _family_states, _read_only, _tilted_effects

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
        # The span is finite only when both bounds are; np.linspace needs it.
        if not math.isfinite(self.theta_max_deg - self.theta_min_deg):
            raise ValueError(
                f"theta range [{self.theta_min_deg}, {self.theta_max_deg}] must have a finite span"
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


# The columns of every record, in output order; theta is in degrees.
CSV_FIELDS = ("axis1", "theta", "analytic_dv", "sampled_dv", "std_err", "z", "trdist_sq")


_ENGINE_POINTS = 16384  # grid points per engine block


def _family(spec: SweepSpec, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population p and coherence off of the family states at these axis
    values; SweepSpec has range-checked p and gamma."""
    p, gamma = (values, spec.gamma) if spec.axis1 == "p" else (
        np.full_like(values, PrepConfig(spec.alpha_deg).p), values)
    return p, np.sqrt(p * (1.0 - p)) * gamma


def _family_column(p, off, angles, _probabilities) -> np.ndarray:
    """The family's closed form for delta_v."""
    return _family_delta_v(p[:, None], off[:, None], np.cos(angles), np.sin(angles))


def _gated_means_column(_p, _off, _angles, probabilities) -> np.ndarray:
    """The gate model's own noise-free prediction, V_+ - V_H = m_H^2 - m_+^2,
    taken factored from the means of the two gated runs (meter in H, meter
    in +)."""
    mean = probabilities[..., 1] - probabilities[..., 0]
    return (mean[..., 0] - mean[..., 1]) * (mean[..., 0] + mean[..., 1]) + 0.0


def _texts(column: np.ndarray) -> np.ndarray:
    """The repr texts of a float column, as a read-only object array of
    its shape."""
    texts = np.array(list(map(repr, column.ravel().tolist())), dtype=object)
    return _read_only(texts.reshape(column.shape))


def _grid_heads(spec: SweepSpec, theta: tuple[float, float, int],
                column) -> Iterator[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """The head of each engine block of a sweep: all that it computes
    without spec.seed or spec.flux.

    The grid is spec's axis1 values by the angles np.linspace(*theta)
    (degrees).  A block is a rectangle of it: whole theta rows, or one
    piece of a theta row longer than _ENGINE_POINTS.  The head of a block
    of a axis values by w angles is its axis1 and trdist_sq columns
    (a, 1), theta (w,) and the analytic column (a, w), with the block's
    Poisson means per unit flux (axis value, angle, meter mode, outcome):
    its checked probabilities, snapped by _snap_round_off once the
    analytic column is taken, and read-only.  It derives what depends on
    the state alone for the block's own axis values, from the qubit
    family's own parameters, and broadcasts it over theta; it builds the
    analyzer effects of its own angles.
    column(p, off, angles, probabilities) gives the analytic column.
    """
    axis_values = np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
    theta_deg = np.linspace(*theta)
    steps = len(theta_deg)
    rows, width = max(_ENGINE_POINTS // steps, 1), min(steps, _ENGINE_POINTS)
    if rows < len(axis_values):
        # Each block gates only its own axis values, so a gate that fails
        # anywhere is caught here, before the first block.  tr(K o rho)
        # reads only K's diagonal and the populations (1 - p, p); with one
        # block its own gating is the check.
        k = _gate_multiplier(spec.gate, _METER_V)
        _check_success(min((k[:, 0, 0] * (1.0 - p) + k[:, 1, 1] * p).min() for p in (
            _family(spec, axis_values[a:a + _ENGINE_POINTS])[0][:, None]
            for a in range(0, len(axis_values), _ENGINE_POINTS))))
    radians = np.radians(theta_deg)
    for a in range(0, len(axis_values), rows):
        p, off = _family(spec, axis_values[a:a + rows])
        signals = _gated_signals(_family_states(p, off)[:, None], spec.gate, _METER_V)
        # Measuring x and forgetting the outcome keeps the populations and
        # drops the coherence, so the eigenvalues of rho - rho' are +-|off|
        # and trdist_sq = ||rho - rho'||_1^2 = 4 off^2.
        axis1, trdist_sq = axis_values[a:a + rows, None], (4.0 * off * off)[:, None]
        for t in range(0, steps, width):
            angles = radians[t:t + width]
            # (axis, meter mode) signals against the (theta, outcome)
            # effects, read as (axis, theta, meter mode, outcome): grid
            # order for the draw.  Copied into that order, so that the
            # complex Born product is freed before the check, which is the
            # peak of the head.
            probabilities = _checked_probabilities(np.ascontiguousarray(
                _born(signals, _tilted_effects(angles).reshape(-1, 2, 2))
                .reshape(-1, 2, len(angles), 2).swapaxes(1, 2)))
            analytic = column(p, off, angles, probabilities)
            # The checked copy is the block's own: it becomes the means.
            probabilities.setflags(write=True)
            yield ((axis1, theta_deg[t:t + width], analytic, trdist_sq),
                   _read_only(_snap_round_off(probabilities)))


# The heads of the last one-block sweep, keyed by all that they read.
_HEADS: dict[tuple, tuple] = {}


def _grid_rows(spec: SweepSpec, theta: tuple[float, float, int],
               column) -> Iterator[tuple[np.ndarray, ...]]:
    """Every grid point of a sweep, in blocks of at most _ENGINE_POINTS
    points.

    Points run over the axis1 values, then the angles np.linspace(*theta)
    (degrees).  Each block is yielded as the columns of CSV_FIELDS in the
    shapes they broadcast from: its head's (_grid_heads) axis1, theta,
    analytic_dv and trdist_sq, and sampled_dv, std_err and z, (a, w), from
    its tail: the Poisson draw at spec.flux times the head's means, and
    the estimator.  One generator seeded by spec.seed draws the counts
    block after block in grid order, which gives the counts of one draw
    over the whole grid.  A grid of one block keeps its head in _HEADS,
    keyed on the numbers the head is built from, so that the next sweep
    of the same head, whatever its seed, flux, output or format, reuses
    it; a head that raises is not kept.  The first sweep keeps the head's
    floats, and the second turns its four columns into their texts for
    every later one.
    """
    if spec.a1_steps * theta[2] > _ENGINE_POINTS:
        heads = _grid_heads(spec, theta, column)
    else:
        # The grids are functions of these numbers, so the key is at least
        # as fine as their bytes; float64 bytes keep -0.0 apart from 0.0.
        key = (column, spec.axis1, spec.a1_steps, theta[2], np.array(
            (spec.a1_min, spec.a1_max, theta[0], theta[1], spec.gamma, spec.alpha_deg,
             *vars(spec.gate).values()), dtype=float).tobytes())
        heads = _HEADS.get(key)
        if heads is None:
            _HEADS.clear()
            heads = _HEADS[key] = tuple(
                (tuple(map(_read_only, columns)), means)
                for columns, means in _grid_heads(spec, theta, column))
        elif heads[0][0][0].dtype != object:
            # The grid repeats: keep the texts the writer would format again.
            heads = _HEADS[key] = tuple(
                (tuple(map(_texts, columns)), means) for columns, means in heads)
    rng = np.random.default_rng(spec.seed)
    for (axis1, theta_deg, analytic, trdist_sq), means in heads:
        # SweepSpec has checked the flux.
        sampled, std_err = _estimate_delta_v(rng.poisson(spec.flux * means))
        z = np.divide(sampled, std_err, out=np.zeros(sampled.shape), where=std_err > 0.0)
        yield axis1, theta_deg, analytic, sampled, std_err, z, trdist_sq


def _sweep_rows(spec: SweepSpec, column) -> Iterator[tuple[np.ndarray, ...]]:
    return _grid_rows(spec, (spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps), column)


def _max_violation_rows(spec: SweepSpec, column) -> Iterator[tuple[np.ndarray, ...]]:
    if spec.axis1 == "gamma":
        spec = replace(spec, alpha_deg=45.0 / 2.0)  # p = 0.4999999999999999
    # np.linspace(90.0, 90.0, 1) is np.array([90.0]) to the bit.
    return _grid_rows(spec, (90.0, 90.0, 1), column)


# Row templates over the texts of the cells.  repr of a float is its
# shortest round-trip form, which is what str() and json.dumps write for
# finite floats.
_CSV_ROW = ",".join(["%s"] * len(CSV_FIELDS))
_JSON_ROW = "  {\n" + ",\n".join(f'    "{name}": %s' for name in CSV_FIELDS) + "\n  }"
_BLOCK_ROWS = 256


def _cell_texts(entries: np.ndarray) -> list[str]:
    """The texts of a flat column's cells: a text column's own, or the
    reprs of a float column's entries."""
    cells = entries.tolist()
    return cells if entries.dtype == object else list(map(repr, cells))


def _stream_rows(fmt: str, blocks: Iterable[tuple[np.ndarray, ...]], handle) -> None:
    """Write the rows of each engine block, _BLOCK_ROWS at a time: CSV with
    a header line, or JSON with the bytes json.dumps(records, indent=2) and
    a final newline would give.

    The rows are those of a block's columns broadcast together.  A column
    holds floats, or their repr texts (an object array, as a sweep's head
    gives them), which are written as they are.  Each chunk of rows is one
    join of a list that repeats a row's pieces, the template's literals
    with a slot for each cell, and is written once.  A column with one
    entry per row fills its slots with the texts of the chunk's entries; a
    smaller one formats each of its entries once per block, and an
    iterator repeats its texts in row order, without listing them for the
    whole block.
    """
    if fmt == "csv":
        head, template, separator, tail = ",".join(CSV_FIELDS) + "\n", _CSV_ROW, "\n", "\n"
    else:
        head, template, separator, tail = "[\n", _JSON_ROW, ",\n", "\n]\n"
    literals = template.split("%s")
    row = [separator + literals[0]] + [None] * (2 * len(CSV_FIELDS))
    row[2::2] = literals[1:]
    stride = len(row)
    handle.write(head)
    lead = literals[0]  # the first row of the output has no separator
    for columns in blocks:
        # A block of a axis values by w angles has a * w rows, the size of
        # its per-point columns; a smaller column is (a, 1) or (w,).
        size, width = max((column.size, column.shape[-1]) for column in columns)
        cells = []  # per column: its entries in row order, or its texts' iterator
        for column in columns:
            if column.size == size:
                cells.append(column.reshape(-1))
                continue
            texts = _cell_texts(column.reshape(-1))
            if column.ndim == 1:  # one text per angle, on every axis value's row
                cells.append(itertools.chain.from_iterable(itertools.repeat(texts, size // width)))
            else:  # one text per axis value, for each of its angles
                cells.append(itertools.chain.from_iterable(
                    map(itertools.repeat, texts, itertools.repeat(width))))
        for start in range(0, size, _BLOCK_ROWS):
            count = min(_BLOCK_ROWS, size - start)
            chunk = row * count
            for slot, entries in enumerate(cells):
                chunk[2 * slot + 1::stride] = (
                    _cell_texts(entries[start:start + count])
                    if isinstance(entries, np.ndarray) else itertools.islice(entries, count))
            chunk[0] = lead
            lead = row[0]
            handle.write("".join(chunk))
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

# name: (grid rows, analytic column, accepted axis1 values with the default
# first, default gate, fields the command never reads)
_COMMANDS = {
    "sweep-pure": (_sweep_rows, _family_column, ("p",), GateParams(), ()),
    "sweep-mixed": (_sweep_rows, _family_column, ("gamma",), GateParams(), ()),
    "max-violation": (_max_violation_rows, _family_column, ("p", "gamma"), GateParams(),
                      ("alpha_deg", "theta_min_deg", "theta_max_deg", "theta_steps")),
    "simulate": (_sweep_rows, _gated_means_column, ("p", "gamma"), MEASURED_GATE, ()),
}
# The fixed value of the other state parameter, which a sweep of this axis
# never reads: gamma for a sweep of p, the wave-plate angle for gamma.
_UNREAD_ON_AXIS = {"p": ("alpha_deg",), "gamma": ("gamma",)}
_GATE_FIELDS = frozenset(f.name for f in fields(GateParams))


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own subparser, built once."""
    parser = argparse.ArgumentParser(
        prog="measurement-coherence",
        description="Grid sweeps of the variance-law violation for qubit measurements.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    spec_defaults = {f.name: f.default for f in fields(SweepSpec)}
    for name, (_rows, _column, axes, gate, _unread) in _COMMANDS.items():
        defaults = {**spec_defaults, **asdict(gate), "axis1": axes[0]}
        sub = subparsers.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag, (dest, kind, text) in _FLAGS.items():
            shown = "" if defaults[dest] is None else f" (default: {defaults[dest]})"
            sub.add_argument(flag, dest=dest, type=kind, help=text + shown,
                             metavar=flag[2:].replace("-", "_").upper())
    return parser, subparsers.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives, parsed by the command's
    own subparser when argv starts with one; the top-level parser runs only
    for help, no command or an unknown one.  An unrecognized flag is then
    reported under the command's usage line."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    given = vars(args).copy()  # only the flags on the command line
    command = given.pop("command")
    _rows, _column, axes, gate, unread = _COMMANDS[command]
    axis1 = given.setdefault("axis1", axes[0])
    if axis1 not in axes:
        raise ValueError(f"{command} sweeps axis1 = {' or '.join(axes)}")
    unread += _UNREAD_ON_AXIS[axis1]
    for flag, (name, _type, _help) in _FLAGS.items():
        if name in given and name in unread:
            raise ValueError(f"{flag} is not read by {command} --axis1 {axis1}")
    gate_flags = {name: given.pop(name) for name in _GATE_FIELDS & given.keys()}
    return SweepSpec(gate=replace(gate, **gate_flags) if gate_flags else gate, **given)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        rows, column, *_rest = _COMMANDS[args.command]
        _write_rows(spec, rows(spec, column))
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
