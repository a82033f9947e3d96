#!/usr/bin/env python3
"""Benchmark of the measurement-coherence library and CLI.

    python3 perfbench/run.py --workload simulate-measured --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One process, one client, closed loop: each
op starts when the previous one has returned and been checked.

--trace 0 times the workload and prints the end-to-end metrics.
--trace 1 runs each op untraced and then traced, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md describes the
workloads and metrics.
"""

import time

START = time.perf_counter()  # setup_s of a fresh interpreter counts from here

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLOCK_S = 0.2  # op time scaled by one host-speed estimate
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it


class TimeSeries:
    """Op times at a fixed memory cost, so peak RSS does not grow with the op count.

    When the buffer is full every other sample is dropped and from then on
    only every `stride`-th op is kept: an evenly spaced subsample of the run.
    """

    CAPACITY = 1 << 14

    def __init__(self):
        self.values = array("d", bytes(8 * self.CAPACITY))
        self.size = 0
        self.stride = 1
        self.seen = 0

    def add(self, value: float) -> None:
        if self.seen % self.stride == 0:
            if self.size == self.CAPACITY:
                kept = self.values[::2]
                self.values[: len(kept)] = kept
                self.size = len(kept)
                self.stride *= 2
            if self.seen % self.stride == 0:
                self.values[self.size] = value
                self.size += 1
        self.seen += 1

    def kept(self) -> array:
        return self.values[: self.size]


def import_library():
    if not (SRC / "measurement_coherence" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import measurement_coherence
    import measurement_coherence.cli  # noqa: F401  (ops call mc.cli.main)

    return measurement_coherence


def run_op(workload, x, sampler=None):
    """Execute one op; returns (seconds, workloads.Checked).

    Time the sampler spent inside the op is not counted.
    """
    from workloads import Checked

    workload.clear()
    busy = sampler.busy_s if sampler else 0.0
    start = time.perf_counter()
    try:
        result = workload.execute(x)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed op
        result, error = None, f"raised {exc!r}"
    else:
        error = None
    elapsed = time.perf_counter() - start - ((sampler.busy_s - busy) if sampler else 0.0)
    if error:
        return elapsed, Checked(error)
    try:
        return elapsed, workload.check(x, result)
    except Exception as exc:  # noqa: BLE001 - unreadable output is a failed op
        return elapsed, Checked(f"output unreadable: {exc!r}")


def setup_probe(name: str, seed: int, workdir: Path) -> None:
    """Child mode: import, build inputs, one warm-up op; report the time taken."""
    mc = import_library()
    import speed
    import workloads

    with speed.SpeedSampler() as sampler:
        workload = workloads.WORKLOADS[name](mc, seed, workdir)
        error = run_op(workload, workload.prepare(0))[1].error
        setup_s = time.perf_counter() - START - sampler.busy_s
    for _ in range(5):  # imports ran before the sampler could start
        sampler.sample()
    print(json.dumps({"setup_s": setup_s, "speed": sampler.speed(), "error": error}))


def measure_setup(name: str, seed: int, workdir: Path, starts: int) -> tuple[list, list]:
    """Scaled and raw setup times of `starts` fresh interpreters, one at a time."""
    scaled, raw = [], []
    for _ in range(starts):
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--workdir", str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.exit(f"perfbench: setup probe failed:\n{child.stderr}")
        report = json.loads(lines[-1])
        if report["error"]:
            sys.exit(f"perfbench: setup warm-up op failed: {report['error']}")
        raw.append(report["setup_s"])
        scaled.append(report["setup_s"] * report["speed"])
    return scaled, raw


def timed_run(mc, workloads, name: str, seed: int, seconds: float, workdir: Path) -> dict:
    import speed

    setup_scaled, setup_raw = measure_setup(name, seed, workdir, workloads.SETUP_STARTS[name])
    workload = workloads.WORKLOADS[name](mc, seed, workdir)
    first = workload.prepare(0)
    first_checked = run_op(workload, first)[1]  # warm-up, op 0's arguments
    if first_checked.error:
        sys.exit(f"perfbench: warm-up op failed: {first_checked.error}")

    op_scaled, op_raw = TimeSeries(), TimeSeries()
    block_rates, speeds, errors = [], [], []
    index = 0
    with speed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + seconds
        while index == 0 or time.perf_counter() < deadline:
            block, block_s, first_sample = [], 0.0, len(sampler.samples)
            while block_s < BLOCK_S and (index == 0 or time.perf_counter() < deadline):
                x = first if index == 0 else workload.prepare(index)
                elapsed, checked = run_op(workload, x, sampler)
                error = checked.error
                if index == 0 and error is None and checked.digest != first_checked.digest:
                    error = "op 0 repeated with the same arguments gave different bytes"
                if error:
                    errors.append(f"op {index}: {error}")
                block.append(elapsed)
                block_s += elapsed
                index += 1
            host_speed = sampler.speed(first_sample)
            speeds.append(host_speed)
            for elapsed in block:
                op_raw.add(elapsed)
                op_scaled.add(elapsed * host_speed)
            block_rates.append(len(block) * workload.points_per_op / (block_s * host_speed))
    # Read before the statistics below, whose sorted copies of the op times
    # would otherwise set the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = index
    metrics = {
        "points_per_s": (statistics.median(block_rates), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_scaled.kept()), "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = dict(metrics)
    report["failed_frac"] = (len(errors) / attempted, "1")
    if attempted >= P90_MIN_OPS:
        report["op_ms_p90"] = (1e3 * statistics.quantiles(op_scaled.kept(), n=10)[-1], "ms")
    print(f"{name} seed {seed}: {attempted} ops, {attempted * workload.points_per_op} points, "
          f"{len(errors)} failed, {len(block_rates)} blocks, {len(sampler.samples)} speed samples")
    for key, (value, unit) in report.items():
        print(f"  {key:<14} {value:12.6g} {unit}")
    print(f"  unscaled: op_ms_p50 {1e3 * statistics.median(op_raw.kept()):.6g} ms, "
          f"setup_s {statistics.median(setup_raw):.6g} s; host speed vs reference: "
          f"median {statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    for error in errors[:5]:
        print(f"  FAILED {error}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}}


def traced_run(mc, workloads, name: str, seed: int, seconds: float, workdir: Path) -> dict:
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](mc, seed, workdir)
    inputs = [workload.prepare(i) for i in range(workloads.TRACE_OPS[name])]
    run_op(workload, inputs[0])  # warm-up
    tracer = Tracer(mc)
    untraced_s = traced_s = 0.0
    attempted, zero_stderr, out_bytes, errors = 0, 0, 0, []
    deadline = time.perf_counter() + seconds
    # Whole cycles over the same inputs, so every count per point repeats exactly.
    cycles = 0
    while cycles == 0 or time.perf_counter() < deadline:
        for x in inputs:
            elapsed, plain = run_op(workload, x)
            untraced_s += elapsed
            tracer.install()
            try:
                with tracer.op():
                    elapsed, traced = run_op(workload, x)
            finally:
                tracer.uninstall()
            traced_s += elapsed
            tracer.fold(keep=cycles == 0)
            error = plain.error or traced.error
            if error is None and traced.digest != plain.digest:
                error = "traced output differs from the untraced output"
            if error:
                errors.append(f"op {attempted}: {error}")
            else:
                zero_stderr += traced.zero_stderr
                out_bytes += traced.size
            attempted += 1
        cycles += 1

    points = attempted * workload.points_per_op
    self_ns, calls, inclusive_ns = tracer.self_ns, tracer.calls, tracer.inclusive_ns

    def per_point(count):
        return count / points

    constructions = sum(calls[f"qubit.{cls}.__post_init__"] for cls in ("QState", "Effect", "Observable"))
    metrics = {
        "qubit.constructions_per_point": (per_point(constructions), "count"),
        "qubit.self_us_per_point": (per_point(self_ns["qubit"] / 1e3), "us"),
        "channels.luders_calls_per_point": (per_point(calls["channels.luders_channel"]), "count"),
        "channels.self_us_per_point": (per_point(self_ns["channels"] / 1e3), "us"),
        "criterion.delta_v_calls_per_point": (per_point(calls["criterion.delta_v"]), "count"),
        "criterion.self_us_per_point": (per_point(self_ns["criterion"] / 1e3), "us"),
        "photonics.run_setting_calls_per_point": (per_point(calls["photonics.run_setting"]), "count"),
        "photonics.self_us_per_point": (per_point(self_ns["photonics"] / 1e3), "us"),
        "photonics.sample_us_per_point": (per_point(inclusive_ns["photonics.sample_counts"] / 1e3), "us"),
        "photonics.rng_setups_per_point": (per_point(tracer.counters["rng_setups"]), "count"),
        "photonics.gate_success_min": (
            tracer.gate_success_min if calls["photonics.gate_channel"] else 0.0, "1"),
        "photonics.zero_stderr_frac": (per_point(zero_stderr), "1"),
        "cli.seed_derivations_per_point": (per_point(tracer.counters["seed_derivations"]), "count"),
        "cli.self_us_per_point": (per_point(self_ns["cli"] / 1e3), "us"),
        "cli.bytes_per_point": (per_point(out_bytes), "B"),
        "trace.overhead_ratio": (traced_s / untraced_s, "1"),
    }
    spans_path = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    print(f"{name} seed {seed} traced: {attempted} ops, {points} points, {len(errors)} failed, "
          f"{len(tracer.kept)} spans of the first cycle written to {spans_path.relative_to(ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<38} {value:12.6g} {unit}")
    for error in errors[:5]:
        print(f"  FAILED {error}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0
    mc = import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        result = run(mc, workloads, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
