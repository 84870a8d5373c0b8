"""knapsub benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload offline-coverage --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/`` of
the same checkout and nothing else.  Whole sweeps, each a fresh set-up
followed by one solve of every cell of the workload, repeat until about
``--seconds`` have passed; times are reported as medians, divided by the
run's host slowdown (see ``calibrate.py``).  Every solve is checked
afterwards, untimed; a solve that raised or failed a check counts in
``failed`` and is never retried.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
printed.  With ``--trace 1`` each solve runs twice in a row, once plain and
once with timing wrappers on the oracle, the instance's cost sum, the
objective, the solver entry points and the distributed round functions; the
per-layer metrics come from the wrapped solves, and the spans are written to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# each workload is single-threaded, BLAS included; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import knapsub  # noqa: E402
import knapsub.distributed  # noqa: E402
from knapsub import QueryLedger, SubmodularOracle, greedy, upper_bound_opt  # noqa: E402

from calibrate import REFERENCE_S, Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, untraced  # noqa: E402

# name -> unit; these are the end_to_end metrics of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s_p50": "s",
    "queries": "count",
    "value_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# printed next to END_TO_END but left out of the JSON result: each is 0 on
# some workload, and a bounded metric must never be 0.  failed_frac is the
# result's failed / attempted; the three counts reappear as per-layer metrics.
PRINTED_ONLY = {
    "passes": "count",
    "rounds": "count",
    "central_receipts": "count",
    "failed_frac": "ratio",
}
# units of the times that report() divides by the host slowdown
TIMES = ("s", "us")
# name -> unit; these are the per_layer metrics of BENCHMARK.json
PER_LAYER = {
    "core.evaluate.calls": "count",
    "core.evaluate.busy_s": "s",
    "core.evaluate.us_per_call": "us",
    "core.cost.calls": "count",
    "core.cost.busy_s": "s",
    "core.overhead_s": "s",
    "core.normalize_s": "s",
    "objectives.value.calls": "count",
    "objectives.value.busy_s": "s",
    "objectives.value.us_per_call": "us",
    "objectives.value.set_size_mean": "count",
    "objectives.build_s": "s",
    "bench.datasets.graph_s": "s",
    "offline.busy_s": "s",
    "offline.self_s": "s",
    "offline.queries_per_pick": "count",
    "streaming.estimate_lambda.busy_s": "s",
    "streaming.estimate_lambda.queries": "count",
    "streaming.estimate_lambda.peak_retained": "count",
    "streaming.sieve_plus_max.busy_s": "s",
    "streaming.sieve_plus_max.queries": "count",
    "streaming.self_s": "s",
    "streaming.accepted_per_query": "ratio",
    "streaming.passes": "count",
    "distributed.busy_s": "s",
    "distributed.self_s": "s",
    "distributed.simulate_round.busy_s": "s",
    "distributed.coordinator_s": "s",
    "distributed.greedy_order.busy_s": "s",
    "distributed.queries_per_round": "count",
    "distributed.sent_total": "count",
    "distributed.useful_receipt_ratio": "ratio",
    "distributed.rounds": "count",
    "distributed.central_receipts": "count",
    "harness.trace_overhead": "ratio",
}


@dataclass
class Solve:
    cell: object
    traced: bool
    seconds: float = 0.0
    outcome: object = None
    error: str | None = None
    profile: object = None


@dataclass
class Run:
    """Everything one measurement produced.

    ``failures`` pairs a solve's index with one problem found in it;
    ``bounds`` maps a cell to its (upper bound, value floor).
    """

    case: object
    solves: list
    failures: list
    setup_s: list
    phases: dict
    sweeps: int
    tracer: Tracer
    bounds: dict
    calibration: Calibration

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})


@contextmanager
def instrumented(tracer, instance, objective):
    """An oracle whose layers report to ``tracer``, for one solve."""
    oracle = SubmodularOracle(
        instance, tracer.wrap("objectives.value", objective.value, sized=True))
    oracle.evaluate = tracer.wrap("core.evaluate", oracle.evaluate)
    instance.cost = tracer.wrap("core.cost", instance.cost)
    module = knapsub.distributed
    saved = {name: getattr(module, name) for name in ("simulate_round", "greedy_order")}
    for name, fn in saved.items():
        setattr(module, name, tracer.wrap_span(f"distributed.{name}", fn))
    try:
        yield oracle
    finally:
        del instance.cost
        for name, fn in saved.items():
            setattr(module, name, fn)


def solve_once(workload, case, cell, tracer, solve_id, traced, clock) -> Solve:
    instance = case.instances[cell]
    ledger = QueryLedger()
    solve = Solve(cell, traced)
    if traced:
        tracer.begin_solve(solve_id)
        oracle_cm = instrumented(tracer, instance, case.objective)
    else:
        oracle_cm = nullcontext(SubmodularOracle(instance, case.objective))
    with oracle_cm as oracle:
        started = clock()
        try:
            with tracer.span("harness.solve") if traced else nullcontext():
                solve.outcome = workload.solve(
                    case, cell, oracle, ledger,
                    tracer.wrap_span if traced else untraced)
        except Exception as exc:  # a crash is a failed solve, reported later
            solve.error = f"{type(exc).__name__}: {exc}"
        solve.seconds = clock() - started
    if traced:
        solve.profile = tracer.end_solve()
    return solve


def reference_bounds(workload, case):
    """Per cell: the certified upper bound on the optimum and the floor."""
    bounds, by_instance = {}, {}
    for cell in case.cells:
        instance = case.instances[cell]
        if id(instance) not in by_instance:
            oracle = SubmodularOracle(instance, case.objective)
            trace = greedy(instance, oracle, QueryLedger()).report.trace
            by_instance[id(instance)] = upper_bound_opt(instance, oracle, trace)
        bounds[cell] = (by_instance[id(instance)], workload.value_floor(case, cell))
    return bounds


def problems(solve, case, bound, floor, first) -> list[str]:
    """Everything wrong with one solve; empty when it passed."""
    if solve.error is not None:
        return [solve.error]
    out = solve.outcome
    instance = case.instances[solve.cell]
    found = []
    unknown = out.ids - set(instance.element_ids())
    if unknown:
        return [f"ids {sorted(unknown)} are not elements of the instance"]
    cost = math.fsum(instance.cost_of(i) for i in out.ids)
    if cost > instance.capacity:
        found.append(f"cost {cost!r} exceeds capacity {instance.capacity!r}")
    fresh = case.objective.value(out.ids | instance.base_set)
    if not math.isclose(fresh, out.value, rel_tol=1e-9, abs_tol=1e-12):
        found.append(f"reported value {out.value!r}, fresh value {fresh!r}")
    if out.value > bound + 1e-9 * max(1.0, abs(bound)):
        found.append(f"value {out.value!r} above the upper bound {bound!r}")
    if out.value < floor:
        found.append(f"value {out.value!r} below the floor {floor!r}")
    if out.reported_queries != out.ledger_queries:
        found.append(f"report says {out.reported_queries} queries, "
                     f"ledger counted {out.ledger_queries}")
    if first is not None and (first.ids, first.value, first.counts) != \
            (out.ids, out.value, out.counts):
        found.append("differs from an earlier solve of the same cell")
    return found


def measure(workload, seed: int, seconds: float, trace: bool) -> Run:
    """Run sweeps for about ``seconds``, then check every solve.

    Each sweep starts with a fresh set-up from the same seed, so set-up
    times are sampled across the whole run, as solve times are, and not in
    one burst that a short stall of the machine could dominate.
    """
    calibration = Calibration()
    tracer = Tracer(calibration.clock)
    setup_s, phases, solves, case = [], {}, [], None
    modes = (False, True) if trace else (False,)
    started, sweep_s, sweeps = perf_counter(), 0.0, 0
    # the reference task samples the host only while sweeps run
    with calibration.sampling():
        # stop at the sweep boundary nearest to the deadline
        while sweeps == 0 or perf_counter() - started + sweep_s / 2 < seconds:
            sweep_started = perf_counter()
            case = None
            gc.collect()
            setup_started = calibration.clock()
            case = workload.setup(seed, tracer)
            setup_s.append(calibration.clock() - setup_started)
            for name, sec in case.phases.items():
                phases.setdefault(name, []).append(sec)
            gc.collect()
            for cell in case.cells:
                for traced in modes:
                    solves.append(solve_once(workload, case, cell, tracer,
                                             len(solves), traced, calibration.clock))
            sweep_s = perf_counter() - sweep_started
            sweeps += 1

    bounds = reference_bounds(workload, case)
    failures, first = [], {}
    for index, solve in enumerate(solves):
        bound, floor = bounds[solve.cell]
        for problem in problems(solve, case, bound, floor, first.get(solve.cell)):
            failures.append((index, problem))
        if solve.outcome is not None:
            first.setdefault(solve.cell, solve.outcome)
    return Run(case, solves, failures, setup_s, phases, sweeps, tracer, bounds,
               calibration)


def _cell_medians(run: Run, traced: bool, value) -> float:
    """Sum over cells of the median of ``value(solve)`` for that cell."""
    total = 0.0
    for cell in run.case.cells:
        samples = [value(s) for s in run.solves
                   if s.cell == cell and s.traced == traced and s.error is None]
        if samples:
            total += statistics.median(samples)
    return total


def _first(run: Run, traced: bool, attr: str) -> dict:
    """Per cell, ``attr`` of the first successful solve of that mode."""
    first = {}
    for s in run.solves:
        if s.traced == traced and s.error is None:
            first.setdefault(s.cell, getattr(s, attr))
    return first


def _total(outcomes, key):
    return sum(o.counts.get(key, 0) for o in outcomes)


def _peak(outcomes, key):
    return max((o.counts.get(key, 0) for o in outcomes), default=0)


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run: Run) -> dict:
    """The END_TO_END and PRINTED_ONLY metrics, from the untraced solves.

    Counts and value_ratio are those of one sweep, which every later sweep
    must repeat exactly; timings are medians.
    """
    first = _first(run, False, "outcome")
    outcomes = list(first.values())
    ratios = [o.value / run.bounds[cell][0] for cell, o in first.items()]
    return {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": _cell_medians(run, False, lambda s: s.seconds),
        "solve_s_p50": statistics.median(
            [s.seconds for s in run.solves if not s.traced and s.error is None]
            or [0.0]),
        "queries": _total(outcomes, "queries"),
        "value_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        - run.calibration.footprint_kb) / 1024,
        "passes": _total(outcomes, "passes"),
        "rounds": _total(outcomes, "rounds"),
        "central_receipts": _peak(outcomes, "central_receipts"),
        "failed_frac": run.failed / len(run.solves),
    }


def per_layer(run: Run) -> dict:
    """The PER_LAYER metrics of one sweep.

    Times sum each cell's median over its traced solves; call counts come
    from the first traced sweep and the other counts from public results.
    """
    once = list(_first(run, True, "profile").values())
    outcomes = list(_first(run, False, "outcome").values())

    def calls(name):
        return sum(p.names[name][0] for p in once)

    def busy(name):
        return _cell_medians(run, True, lambda s: s.profile.names[name][1])

    def layer(kind, name):
        return _cell_medians(run, True, lambda s: getattr(s.profile, kind)[name])

    def phase(name):
        return statistics.median(run.phases[name]) if name in run.phases else 0.0

    eval_calls, eval_busy = calls("core.evaluate"), busy("core.evaluate")
    value_calls, value_busy = calls("objectives.value"), busy("objectives.value")
    dist_busy = layer("layer_busy", "distributed")
    round_busy = busy("distributed.simulate_round")
    return {
        "core.evaluate.calls": eval_calls,
        "core.evaluate.busy_s": eval_busy,
        "core.evaluate.us_per_call": _ratio(eval_busy, eval_calls) * 1e6,
        "core.cost.calls": calls("core.cost"),
        "core.cost.busy_s": busy("core.cost"),
        "core.overhead_s": eval_busy - value_busy,
        "core.normalize_s": phase("core.normalize"),
        "objectives.value.calls": value_calls,
        "objectives.value.busy_s": value_busy,
        "objectives.value.us_per_call": _ratio(value_busy, value_calls) * 1e6,
        "objectives.value.set_size_mean": _ratio(
            sum(p.names["objectives.value"][3] for p in once), value_calls),
        "objectives.build_s": phase("objectives.build"),
        "bench.datasets.graph_s": phase("bench.datasets.graph"),
        "offline.busy_s": layer("layer_busy", "offline"),
        "offline.self_s": layer("layer_self", "offline"),
        "offline.queries_per_pick": _ratio(_total(outcomes, "queries"),
                                           _total(outcomes, "picks")),
        "streaming.estimate_lambda.busy_s": busy("streaming.estimate_lambda"),
        "streaming.estimate_lambda.queries": _total(outcomes, "estimator_queries"),
        "streaming.estimate_lambda.peak_retained": _peak(outcomes, "peak_retained"),
        "streaming.sieve_plus_max.busy_s": busy("streaming.sieve_plus_max"),
        "streaming.sieve_plus_max.queries": _total(outcomes, "sieve_queries"),
        "streaming.self_s": layer("layer_self", "streaming"),
        "streaming.accepted_per_query": _ratio(_total(outcomes, "accepted"),
                                               _total(outcomes, "sieve_queries")),
        "streaming.passes": _total(outcomes, "passes"),
        "distributed.busy_s": dist_busy,
        "distributed.self_s": layer("layer_self", "distributed"),
        "distributed.simulate_round.busy_s": round_busy,
        "distributed.coordinator_s": dist_busy - round_busy,
        "distributed.greedy_order.busy_s": busy("distributed.greedy_order"),
        "distributed.queries_per_round": _ratio(_total(outcomes, "round_queries"),
                                                _total(outcomes, "round_rows")),
        "distributed.sent_total": _total(outcomes, "sent_total"),
        "distributed.useful_receipt_ratio": _ratio(
            _total(outcomes, "t_added"), _total(outcomes, "threshold_receipts")),
        "distributed.rounds": _total(outcomes, "rounds"),
        "distributed.central_receipts": _peak(outcomes, "central_receipts"),
        "harness.trace_overhead": _ratio(
            _cell_medians(run, True, lambda s: s.seconds),
            _cell_medians(run, False, lambda s: s.seconds)),
    }


def report(workload, seed, seconds, trace, out=sys.stdout, trace_path=None) -> dict:
    """Run one workload, print the metric table, then the JSON result line."""
    run = measure(workload, seed, seconds, trace)
    values = end_to_end(run)
    units = {**END_TO_END, **PRINTED_ONLY}
    chosen = END_TO_END
    if trace:
        values.update(per_layer(run))
        units.update(PER_LAYER)
        chosen = PER_LAYER
    slowdown = run.calibration.slowdown
    for name, unit in units.items():
        if unit in TIMES:
            values[name] /= slowdown

    plain = sum(not s.traced for s in run.solves)
    print(f"workload {workload.name}  seed {seed}  sweeps {run.sweeps}  "
          f"cells {len(run.case.cells)}  solves {len(run.solves)}  "
          f"failed {run.failed}", file=out)
    print(f"setup_s is the median of {len(run.setup_s)} set-ups; wall_s sums "
          f"each cell's median solve time; solve_s_p50 is the median of {plain} "
          "untraced solves", file=out)
    samples = run.calibration.samples
    print(f"times are divided by the host slowdown {slowdown!r}: the mean of "
          f"{len(samples)} reference tasks, {statistics.fmean(samples)!r} s, "
          f"over {REFERENCE_S} s", file=out)
    for index, problem in run.failures:
        print(f"FAILED solve {index} (cell {run.solves[index].cell}): {problem}",
              file=out)
    for name, unit in units.items():
        print(f"{name:40s} {values[name]!r:>24} {unit}", file=out)
    if trace_path is not None:
        summaries = [{"solve": i, "cell": s.cell, "traced": s.traced,
                      "seconds": s.seconds, "error": s.error,
                      "names": None if s.profile is None else
                      {name: v for name, v in s.profile.names.items() if v[0]}}
                     for i, s in enumerate(run.solves)]
        run.tracer.write_jsonl(trace_path, summaries)
        print(f"spans written to {trace_path}", file=out)
    result = {"correct": run.failed == 0, "attempted": len(run.solves),
              "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in chosen.items()}}
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(knapsub.__file__).resolve().parent != (SRC / "knapsub").resolve():
        print(f"knapsub was imported from {knapsub.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    report(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
           trace_path=trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
