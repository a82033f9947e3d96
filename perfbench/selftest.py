#!/usr/bin/env python3
"""Short self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes one short timed run and two
short traced runs with the same seed, exactly as the benchmark is invoked,
and checks that:

* the last line of output is the result object, with every op correct;
* every metric named in BENCHMARK.json is emitted, with its unit;
* every name matches [A-Za-z0-9_.-]+;
* the per-layer counts are identical between the two traced runs. Their
  values are not pinned: later changes to the library are meant to move them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = 1
# Per-layer metrics that are times; every other one is a count that must repeat.
TIMED = ("_us_per_point", "overhead_ratio")


def run(spec: dict, workload: str, trace: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
                                 "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300,
                            check=False)
    if result.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {result.returncode}:\n{result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result['failed']} ops failed"
    assert result["attempted"] >= 1, f"{label}: no ops attempted"
    emitted = result["metrics"]
    for metric in expected:
        assert metric["name"] in emitted, f"{label}: {metric['name']} not emitted"
        assert emitted[metric["name"]]["unit"] == metric["unit"], f"{label}: unit of {metric['name']}"
        assert isinstance(emitted[metric["name"]]["value"], (int, float)), f"{label}: {metric['name']}"
    assert set(emitted) == {m["name"] for m in expected}, f"{label}: extra metrics {set(emitted)}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[key]:
            assert NAME.fullmatch(entry["name"]), f"bad name {entry['name']!r}"
    counts = [m["name"] for m in spec["per_layer"] if not m["name"].endswith(TIMED)]
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(run(spec, workload, 0), spec["end_to_end"], f"{workload} timed")
        first, second = run(spec, workload, 1), run(spec, workload, 1)
        check_result(first, spec["per_layer"], f"{workload} traced")
        check_result(second, spec["per_layer"], f"{workload} traced again")
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between traced runs ({a} vs {b})"
        print(f"ok  {workload}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics, {len(counts)} counts repeat", flush=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
