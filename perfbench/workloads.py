"""The three workloads: inputs from a seed, one op, and its correctness check.

Every workload exposes the same four steps, so the timed run and the traced
run drive them identically:

* ``prepare(i)`` builds the inputs of op ``i`` (untimed);
* ``clear()`` removes what the previous op left behind (untimed), so that an
  op that writes nothing cannot pass on its predecessor's output;
* ``execute(x)`` is the op itself (timed);
* ``check(x, result)`` reads the op's output and returns a ``Checked``
  (untimed). Output files are read and checked a record at a time, so the
  check adds little to the process's peak memory.

The library is always called through the package namespace at call time
(``self.mc.delta_v``, ``self.mc.cli.main``), so the tracer's wrappers apply.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np

CSV_FIELDS = ["axis1", "theta", "analytic_dv", "sampled_dv", "std_err", "z", "trdist_sq"]

# Gate parameters of the `simulate` defaults (measured splitter values).
MEASURED_GATE = (0.985, 0.324, 1.0)
# Meter diagonals: |H> for the unperturbed run, |+> for the perturbed one.
METER_H = (1.0, 0.0)
METER_PLUS = (0.5, 0.5)

IDENTITY_TOL = 1e-9  # trdist_sq, analytic_dv, gate model
CLOSED_FORM_TOL = 1e-12  # criterion-grid matrix path vs closed forms
MAX_PULL = 6.0  # |sampled - analytic| / std_err
CHUNK = 1 << 16  # bytes read at a time from a JSON output


class Checked(NamedTuple):
    """The outcome of checking one op."""

    error: str | None  # None when the output is correct
    digest: bytes = b""  # SHA-256 of the output, for the byte-identity checks
    zero_stderr: int = 0  # points whose std_err is 0
    size: int = 0  # bytes written


def closed_form_variances(p: float, gamma: float, theta: float) -> tuple[float, float]:
    """(V[y], V'[y]) of y(theta) on the qubit state (p, gamma) and its dephased twin."""
    mean = (2.0 * p - 1.0) * math.cos(theta) + 2.0 * math.sqrt(p * (1.0 - p)) * gamma * math.sin(
        theta
    )
    mean_dephased = (2.0 * p - 1.0) * math.cos(theta)
    return 1.0 - mean * mean, 1.0 - mean_dephased * mean_dephased


def gate_model_variance(p, gamma, theta, gate, meter) -> float:
    """Variance of y(theta) after the post-selected gate with the meter traced out.

    Independent of the library's 4x4 path: the gate is diagonal in
    (HH, HV, VH, VV) and the meter is discarded unread, so the signal picks
    up the entrywise factor K[s, u] = sum_m meter[m] * (v a[s,m] a[u,m] +
    (1 - v)(t[s,m] t[u,m] + r[s,m] r[u,m])) and is renormalized.
    """
    t_h, t_v, vis = gate
    trans = t_h * t_v  # every single-transmission product after compensation
    refl = (1.0 - t_v) * t_h  # two-V reflection, the only reflected branch
    transmit = ((trans, trans), (trans, trans))
    reflect = ((0.0, 0.0), (0.0, refl))
    interfering = ((trans, trans), (trans, trans - refl))

    def k(s, u):
        return sum(
            meter[m]
            * (
                vis * interfering[s][m] * interfering[u][m]
                + (1.0 - vis) * (transmit[s][m] * transmit[u][m] + reflect[s][m] * reflect[u][m])
            )
            for m in (0, 1)
        )

    off = math.sqrt(p * (1.0 - p)) * gamma
    h, v, c = k(0, 0) * (1.0 - p), k(1, 1) * p, k(0, 1) * off
    mean = (math.cos(theta) * (v - h) + 2.0 * math.sin(theta) * c) / (h + v)
    return max(1.0 - mean * mean, 0.0)


def gate_model_delta_v(p, gamma, theta, gate) -> float:
    return gate_model_variance(p, gamma, theta, gate, METER_PLUS) - gate_model_variance(
        p, gamma, theta, gate, METER_H
    )


def json_records(pieces):
    """The objects of one JSON array, parsed one at a time from pieces of its text."""
    decoder = json.JSONDecoder()
    buffer, state = "", "open"  # open -> first -> item/separator ... -> done
    for piece in pieces:
        buffer += piece
        pos = 0
        while True:
            while pos < len(buffer) and buffer[pos] in " \t\r\n":
                pos += 1
            if pos == len(buffer):
                break
            char = buffer[pos]
            if state == "open":
                if char != "[":
                    raise ValueError("JSON output is not an array")
                state, pos = "first", pos + 1
            elif state == "first" and char == "]":
                state, pos = "done", pos + 1
            elif state in ("first", "item"):
                try:
                    record, pos = decoder.raw_decode(buffer, pos)
                except json.JSONDecodeError:
                    break  # the object is not complete yet
                if not isinstance(record, dict):
                    raise ValueError(f"JSON array item {record!r} is not an object")
                yield record
                state = "separator"
            elif state == "separator" and char in ",]":
                state, pos = ("item" if char == "," else "done"), pos + 1
            else:
                raise ValueError(f"unexpected {char!r} in the JSON output")
        buffer = buffer[pos:]
    if state != "done" or buffer.strip():
        raise ValueError("JSON output ends inside the array")


def linspace(low: float, high: float, steps: int) -> list[float]:
    return [float(x) for x in np.linspace(low, high, steps)]


class CliSweep:
    """One CLI sweep per op, written to a file, with a fresh --seed per op."""

    def __init__(self, mc, seed: int, workdir: Path, argv: list[str], fmt: str,
                 axis1: list[float], thetas: list[float], point):
        self.mc = mc
        self.out = workdir / f"sweep.{fmt}"
        self.argv = argv + ["--format", fmt, "--out", str(self.out)]
        self.fmt = fmt
        self.grid = [(a, t) for a in axis1 for t in thetas]
        self.points_per_op = len(self.grid)
        self.point = point  # (axis1, theta_rad) -> (p, gamma, expected analytic_dv)
        self.seeds = random.Random(seed)

    def prepare(self, i: int) -> list[str]:
        return self.argv + ["--seed", str(self.seeds.randrange(2**31))]

    def execute(self, argv: list[str]) -> int:
        return self.mc.cli.main(argv)

    def clear(self) -> None:
        self.out.unlink(missing_ok=True)

    def pieces(self, handle, digest):
        """Decoded text of the output, hashed as it is read: lines of a CSV, chunks of a JSON."""
        source = iter(lambda: handle.read(CHUNK), b"") if self.fmt == "json" else handle
        decoder = codecs.getincrementaldecoder("utf-8")()
        for raw in source:
            digest.update(raw)
            yield decoder.decode(raw)
        decoder.decode(b"", final=True)  # raises on a truncated character

    def rows(self, pieces):
        if self.fmt == "json":
            for record in json_records(pieces):
                yield [float(record[f]) for f in CSV_FIELDS]
            return
        reader = csv.reader(pieces)
        if next(reader, None) != CSV_FIELDS:
            raise ValueError("CSV header differs from the documented fields")
        for row in reader:
            yield [float(x) for x in row]

    def check(self, argv, rc: int) -> Checked:
        if rc != 0:
            return Checked(f"sweep exited {rc}")
        digest, count, zero_stderr = hashlib.sha256(), 0, 0
        with open(self.out, "rb") as handle:
            for row in self.rows(self.pieces(handle, digest)):
                if count == self.points_per_op:
                    return Checked(f"more than {self.points_per_op} rows")
                a_exp, t_exp = self.grid[count]
                count += 1
                axis1, theta_deg, analytic, sampled, std_err, _z, trdist_sq = row
                if abs(axis1 - a_exp) > CLOSED_FORM_TOL or abs(theta_deg - t_exp) > CLOSED_FORM_TOL:
                    return Checked(f"grid point ({axis1}, {theta_deg}) out of order")
                p, gamma, expected = self.point(axis1, math.radians(theta_deg))
                if abs(trdist_sq - 4.0 * p * (1.0 - p) * gamma * gamma) > IDENTITY_TOL:
                    return Checked(f"trdist_sq {trdist_sq} at ({axis1}, {theta_deg})")
                if abs(analytic - expected) > IDENTITY_TOL:
                    return Checked(f"analytic_dv {analytic} != {expected} at ({axis1}, {theta_deg})")
                if std_err > 0.0 and abs(sampled - analytic) > MAX_PULL * std_err:
                    return Checked(f"pull {(sampled - analytic) / std_err:.1f} at ({axis1}, {theta_deg})")
                zero_stderr += std_err == 0.0
            size = handle.tell()
        if count != self.points_per_op:
            return Checked(f"{count} rows, expected {self.points_per_op}")
        return Checked(None, digest.digest(), zero_stderr, size)


def simulate_measured(mc, seed: int, workdir: Path) -> CliSweep:
    """`simulate` with the measured-gate defaults on a 10x10 grid, CSV output."""

    def point(p, theta):
        return p, 1.0, gate_model_delta_v(p, 1.0, theta, MEASURED_GATE)

    return CliSweep(mc, seed, workdir, ["simulate", "--a1-steps", "10", "--theta-steps", "10"],
                    "csv", linspace(0.0, 1.0, 10), linspace(0.0, 180.0, 10), point)


def sweep_mixed_json(mc, seed: int, workdir: Path) -> CliSweep:
    """`sweep-mixed` with the ideal gate on the default 50x50 grid, JSON output."""
    p = math.sin(2.0 * math.radians(12.0)) ** 2  # default --alpha 12 degrees

    def point(gamma, theta):
        v_direct, v_dephased = closed_form_variances(p, gamma, theta)
        return p, gamma, v_dephased - v_direct

    return CliSweep(mc, seed, workdir, ["sweep-mixed"], "json",
                    linspace(0.0, 1.0, 50), linspace(0.0, 180.0, 50), point)


class CriterionGrid:
    """Library loop: one (p, gamma, theta) point per op through `delta_v`.

    Points come in rows of ROW that share theta; each row's observable is
    built once in `prepare`, outside the op, and reused across the row.
    """

    ROW = 50
    points_per_op = 1

    def __init__(self, mc, seed: int, workdir: Path):
        self.mc = mc
        self.rng = random.Random(seed)
        self.first = mc.observable_x()
        self.theta = 0.0
        self.second = None

    def prepare(self, i: int):
        if i % self.ROW == 0:
            self.theta = self.rng.uniform(0.0, math.pi)
            self.second = self.mc.observable_y(self.theta)
        return (self.rng.random(), self.rng.uniform(-1.0, 1.0), self.theta, self.second)

    def execute(self, point):
        p, gamma, theta, second = point
        report = self.mc.delta_v(self.mc.make_state(p, gamma), self.first, second)
        return report, self.mc.analytic_delta_v(p, gamma, theta)

    def clear(self) -> None:
        pass  # nothing is written

    def check(self, point, result) -> Checked:
        p, gamma, theta, _ = point
        report, analytic = result
        v_direct, v_dephased, dv, trdist_sq = (report.v_unperturbed, report.v_perturbed,
                                               report.delta_v, report.trace_norm_sq)
        digest = hashlib.sha256(repr((v_direct, v_dephased, dv, trdist_sq, analytic)).encode())
        exp_direct, exp_dephased = closed_form_variances(p, gamma, theta)
        worst = max(abs(v_direct - exp_direct), abs(v_dephased - exp_dephased),
                    abs(dv - (exp_dephased - exp_direct)), abs(dv - analytic))
        if worst > CLOSED_FORM_TOL:
            return Checked(f"delta_v off the closed forms by {worst:.1e} at ({p}, {gamma}, {theta})")
        if abs(trdist_sq - 4.0 * p * (1.0 - p) * gamma * gamma) > IDENTITY_TOL:
            return Checked(f"trace_norm_sq {trdist_sq} at ({p}, {gamma})")
        return Checked(None, digest.digest())


WORKLOADS = {
    "simulate-measured": simulate_measured,
    "criterion-grid": CriterionGrid,
    "sweep-mixed-json": sweep_mixed_json,
}

# Fresh interpreters timed per run for setup_s; fewer where the warm-up op
# is a whole 2500-point sweep.
SETUP_STARTS = {"simulate-measured": 9, "criterion-grid": 15, "sweep-mixed-json": 3}
# Ops per traced cycle: whole rows on criterion-grid, whole sweeps elsewhere.
TRACE_OPS = {"simulate-measured": 5, "criterion-grid": 2 * CriterionGrid.ROW, "sweep-mixed-json": 1}
