"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that:

* BENCHMARK.json names the same workloads and metrics, with the same units,
  as the harness prints;
* every metric is printed by name with its unit, and the last line is the
  JSON result with exactly the expected keys;
* counts repeat exactly between two runs of the same seed;
* a solver wrapper that reports a wrong value, and one that crashes, are
  both counted as failed solves.

Exits 0 when every check passes.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import run
import workloads
from knapsub import InfeasibleQuery

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
README = Path(__file__).resolve().parent / "README.md"

TINY = {
    "offline-coverage": workloads.OfflineCoverage(n=150, attach=3, budgets=(3.0, 8.0)),
    "stream-movie": workloads.StreamMovie(movies=60, users=30, rank=3,
                                          observed=0.3, budgets=(3.0, 6.0)),
    "distributed-coverage": workloads.DistributedCoverage(
        n=300, attach=2, budget=4.0, mpc_seeds=(0, 1)),
}
TIMED = ("_s", "us_per_call", "trace_overhead", "peak_rss_mb")


def run_tiny(name, trace, seed=3):
    out = io.StringIO()
    result = run.report(TINY[name], seed, 0.0, trace, out=out)
    return result, out.getvalue().splitlines()


def check_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    readme = README.read_text()
    missing = [m for m in run.PER_LAYER if f"`{m}`" not in readme]
    assert not missing, f"no prediction in README.md for {missing}"


def check_printed(name, trace):
    result, lines = run_tiny(name, trace)
    assert json.loads(lines[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {**run.END_TO_END, **run.PRINTED_ONLY, **(run.PER_LAYER if trace else {})}
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for metric, unit in printed.items():
        assert table.get(metric) == unit, f"{name}: {metric} not printed with {unit}"
    return result


def check_counts_repeat(name, first):
    again, _ = run_tiny(name, True)
    for metric, entry in first["metrics"].items():
        if not metric.endswith(TIMED):
            assert entry == again["metrics"][metric], f"{name}: {metric} changed"


def check_failures_caught():
    real = workloads.greedy_plus_max

    def wrong_value(*args, **kwargs):
        result = real(*args, **kwargs)
        solution = result.report.solution
        wrong = replace(solution, value=solution.value + 0.5)
        return replace(result, report=replace(result.report, solution=wrong))

    def crash(*args, **kwargs):
        raise InfeasibleQuery("set of cost 14.2333 exceeds capacity 14.2333")

    try:
        for fake in (wrong_value, crash):
            workloads.greedy_plus_max = fake
            result, lines = run_tiny("offline-coverage", False)
            assert not result["correct"], fake.__name__
            assert result["failed"] == result["attempted"], fake.__name__
            assert any(line.startswith("FAILED") for line in lines), fake.__name__
    finally:
        workloads.greedy_plus_max = real


def main() -> int:
    check_benchmark_json()
    for name in TINY:
        check_printed(name, False)
        check_counts_repeat(name, check_printed(name, True))
    check_failures_caught()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
