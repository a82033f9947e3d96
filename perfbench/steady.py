#!/usr/bin/env python3
"""Steadiness proof: repeated runs of the benchmark with fresh seeds.

    python3 perfbench/steady.py      # 2 sets x 10 seeds x every workload, about 40 minutes

Each run is the command in BENCHMARK.json with --trace 0. For every set,
workload and end-to-end metric it records in perfbench/steadiness.json the
median, the quartiles (as statistics.quantiles(values, n=4) gives them) and
the spread (Q3 - Q1) / median, and with every run the host: CPU model,
nproc, load average at start, Python and numpy versions and git SHA.

The benchmark is steady when no op failed and, for every workload and
metric, the spread is below a third of the metric's bound (below the bound
itself for setup_s, whose several fresh starts per run vary with the host
more than op times do) and each set's median differs from the first set's,
in either direction, by no more than the bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # seeds per workload and set
SETS = 2
RECORD = BENCH / "steadiness.json"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False)
    return result.stdout.strip() or "unknown"


def host() -> dict:
    return {"cpu_model": cpu_model(), "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
            "python": platform.python_version(), "numpy": np.__version__, "git_sha": git_sha()}


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    record = {"workload": workload, "seed": seed, "host": host()}
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300,
                            check=False)
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {result.returncode}:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    record["report"] = lines[:-1]
    record["result"] = json.loads(lines[-1])
    return record


def summarize(spec: dict, runs: list[dict], workloads: list[str]) -> dict:
    summary = {}
    for workload in workloads:
        rows = [r["result"] for r in runs if r["workload"] == workload]
        summary[workload] = {"failed": sum(r["failed"] for r in rows)}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "values": values,
            }
    return summary


def worse_by(metric: dict, first: float, later: float) -> float:
    """Relative change from first to later, positive when later is worse."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def spread_limit(metric: dict) -> float:
    return metric["bound"] if metric["name"] == "setup_s" else metric["bound"] / 3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for set_index in range(SETS):
        runs = []
        for run_index in range(RUNS):
            seed = 1000 * (set_index + 1) + run_index
            for workload in workloads:
                record = run_once(spec, workload, seed)
                metrics = record["result"]["metrics"]
                print(f"set {set_index + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.5g}" for k, v in metrics.items()), flush=True)
                runs.append(record)
        sets.append({"runs": runs, "summary": summarize(spec, runs, workloads)})

    ok = True
    print(f"\n{'set':<4}{'workload':<20}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>8}{'bound':>7}{'drift':>8}")
    for set_index, result in enumerate(sets):
        for workload in workloads:
            if result["summary"][workload]["failed"]:
                ok = False
            for metric in spec["end_to_end"]:
                row = result["summary"][workload][metric["name"]]
                first = sets[0]["summary"][workload][metric["name"]]["median"]
                drift = worse_by(metric, first, row["median"])
                row["drift_vs_set1"] = drift
                steady = row["spread"] < spread_limit(metric) and abs(drift) <= metric["bound"]
                ok = ok and steady
                print(f"{set_index + 1:<4}{workload:<20}{metric['name']:<14}{row['median']:>12.5g}"
                      f"{row['q1']:>12.5g}{row['q3']:>12.5g}{row['spread']:>8.3f}"
                      f"{metric['bound']:>7.2f}{drift:>8.3f}{'' if steady else '  NOT STEADY'}")
    RECORD.write_text(json.dumps({"benchmark": spec, "steady": ok, "sets": sets}, indent=1) + "\n")
    print(f"\n{'steady' if ok else 'NOT steady'}; record written to {RECORD.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
