"""Alternating benchmark pairs between two checkouts, summarized as JSON.

    python3 tools/bench_pairs.py --base ../knapsub-parent --head . \\
        --workload stream-movie --seed 47 --seconds 30 --pairs 10 \\
        --out BENCH.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; the base runs first in even pairs and the head in odd
ones, so neither side always meets a warm or a cold host.  Every run is a
fresh process with its own set-up.  For each end-to-end metric named in
the head's ``BENCHMARK.json`` the output holds both sides' runs, medians
and quartiles, the relative change of the medians, and in how many pairs
the head was strictly better (a tie counts for neither); stdout gets one
line per workload and metric with the two medians, the change and the
head's wins.  A time (a metric in ``s``) is compared once more
undivided, each run's value times its own host-slowdown divisor, as
``undivided`` in the output and at the end of its stdout line.  Each
run's host-slowdown divisor, which perfbench prints and divides every
time by, is kept per side with its spread and printed
as one line per workload: a change that moves where the reference task's
samples land moves the divisor, and so every time, with it.  So are each
run's sweep and solve counts, from perfbench's first line, printed on the
line after: ``peak_rss_mb`` grows with the solves a run keeps, so a
faster set-up, which fits more sweeps into the same seconds, moves it
with no change to what one solve holds.  A workload
that the head's ``BENCHMARK.json`` does not list stops the script before
any run.  A time (a metric in ``s``) below 1/10 or above 10 times its
side's median is listed under ``implausible`` by pair index and reported
on stderr: such a run measured something broken, not the code.  Each
checkout's commit is recorded, whether its files differ from that
commit (``dirty``), and the Python and NumPy a run there imports
(``versions``): distributed outputs replay CPython's ``random`` algorithm,
so they hold only for the interpreter they were measured on.  Each
checkout's size is recorded and printed too, as ``src_lines``: the lines
of ``cat src/knapsub/*.py src/knapsub/bench/*.py | wc -l``, and as
``code_lines``: those of them that hold code, so neither blank, nor a
comment alone, nor in a docstring.  A change that deletes only
docstrings leaves ``code_lines`` where it was.  ``--tier1 N``
also times the test suite,
``python -m pytest -q``, in N alternating pairs.  A run that fails
prints the last 30 lines of its output to stderr and stops the script.

Run it from anywhere; only the two checkouts are read.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path


# a failed run's last this many lines of output go to stderr
FAILURE_TAIL = 30


def run_checked(args, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with captured text output; a failed run prints
    the last ``FAILURE_TAIL`` lines of its stdout and stderr to stderr
    before its ``CalledProcessError`` is raised."""
    try:
        return subprocess.run(args, capture_output=True, text=True, check=True,
                              **kwargs)
    except subprocess.CalledProcessError as exc:
        lines = (exc.stdout + exc.stderr).splitlines()[-FAILURE_TAIL:]
        print(f"{' '.join(map(str, args))} failed in {kwargs.get('cwd')}:",
              *lines, sep="\n", file=sys.stderr)
        raise


# the line on which perfbench states the divisor of every time it reports
SLOWDOWN = re.compile(r"times are divided by the host slowdown (\S+):")


def host_slowdown(stdout: str) -> float:
    """The host-slowdown divisor that a perfbench run printed."""
    match = SLOWDOWN.search(stdout)
    if match is None:
        raise ValueError("the run printed no host slowdown")
    return float(match[1])


# the first line of a run: "workload W  seed S  sweeps N  cells C  solves M ..."
COUNTS = re.compile(r"\bsweeps (\d+)\s.*\bsolves (\d+)")


def run_counts(stdout: str) -> dict:
    """The sweeps and solves that a perfbench run printed, as ints."""
    match = COUNTS.search(stdout)
    if match is None:
        raise ValueError("the run printed no sweep and solve counts")
    return {"sweeps": int(match[1]), "solves": int(match[2])}


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its final JSON line, plus its
    host-slowdown divisor as ``slowdown`` and its ``sweeps`` and
    ``solves``."""
    done = run_checked(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout)
    return {**json.loads(done.stdout.strip().splitlines()[-1]),
            "slowdown": host_slowdown(done.stdout), **run_counts(done.stdout)}


def tier1(checkout: Path) -> float:
    """Seconds the test suite takes in ``checkout``; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    started = time.perf_counter()
    run_checked([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                cwd=checkout, env=env)
    return time.perf_counter() - started


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


# a time this many times off its side's median is flagged as implausible
IMPLAUSIBLE_FACTOR = 10.0


def implausible(values: list[float]) -> list[int]:
    """Indices of the runs below 1/10 or above 10 times the median."""
    median = statistics.median(values)
    return [i for i, v in enumerate(values)
            if v * IMPLAUSIBLE_FACTOR < median or v > IMPLAUSIBLE_FACTOR * median]


def compare(base: list[float], head: list[float], better: str) -> dict:
    """Both sides' spread, the change of the medians and the head's wins."""
    sign = 1 if better == "higher" else -1
    b, h = spread(base), spread(head)
    return {"base": b, "head": h,
            "change": h["median"] / b["median"] - 1 if b["median"] else None,
            "head_wins": sum(sign * (y - x) > 0 for x, y in zip(base, head))}


def undivided(values: list[float], runs: list[dict]) -> list[float]:
    """Each run's time times its own host-slowdown divisor: the time as
    measured, before perfbench divided it."""
    return [value * run["slowdown"] for value, run in zip(values, runs)]


def summary(workload: str, name: str, compared: dict) -> str:
    """One stdout line: both medians, the change in percent and the
    head's wins out of the pairs, then, for a time, the change of the
    undivided medians and the head's wins on them."""
    def change(compared):
        change = compared["change"]
        return "n/a" if change is None else f"{100 * change:+.1f}%"

    pairs = len(compared["base"]["runs"])
    line = (f"{workload} {name}: base {compared['base']['median']:.6g} "
            f"head {compared['head']['median']:.6g} change {change(compared)} "
            f"head wins {compared['head_wins']}/{pairs}")
    if "undivided" in compared:
        line += (f"; undivided change {change(compared['undivided'])} "
                 f"head wins {compared['undivided']['head_wins']}/{pairs}")
    return line


def alternate(pairs: int, run):
    """``run(side)`` for both sides of every pair, base first in even pairs;
    returns each side's results in pair order."""
    out = {"base": [], "head": []}
    for i in range(pairs):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            out[side].append(run(side))
            print(f"pair {i} {side} done", file=sys.stderr)
    return out


# prints the interpreter and NumPy that a run in the checkout imports
VERSIONS = ("import json, platform, numpy; print(json.dumps({"
            "'python': platform.python_implementation() + ' '"
            " + platform.python_version(), 'numpy': numpy.__version__}))")


def versions(checkout: Path) -> dict:
    """The Python and NumPy versions a run in ``checkout`` uses."""
    return json.loads(run_checked([sys.executable, "-c", VERSIONS],
                                  cwd=checkout).stdout)


def modules(checkout: Path) -> list[Path]:
    """The package's modules: ``src/knapsub/*.py`` and
    ``src/knapsub/bench/*.py``."""
    package = checkout / "src" / "knapsub"
    return [*package.glob("*.py"), *(package / "bench").glob("*.py")]


def src_lines(checkout: Path) -> int:
    """The newlines in the package's modules, as ``cat src/knapsub/*.py
    src/knapsub/bench/*.py | wc -l`` counts them; 0 where there are none."""
    return sum(f.read_bytes().count(b"\n") for f in modules(checkout))


# the tokens that hold no code: what a blank or comment-only line holds
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(checkout: Path) -> int:
    """The lines of the package's modules that some token of code touches:
    blank lines, comment-only lines and docstrings (a string that opens a
    module, class or function body) are not counted."""
    total = 0
    for path in modules(checkout):
        source = path.read_text()
        docstrings = set()  # where each docstring starts
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.add((node.body[0].lineno, node.body[0].col_offset))
        lines = set()
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type not in NOT_CODE and token.start not in docstrings:
                lines.update(range(token.start[0], token.end[0] + 1))
        total += len(lines)
    return total


def git_state(checkout: Path) -> tuple[str | None, bool | None]:
    """The checkout's commit, and whether its files differ from it (``git
    status --porcelain`` lists anything); ``(None, None)`` outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout,
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None, None
    return head.stdout.strip(), bool(git("status", "--porcelain").stdout.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat for several workloads")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tier1", type=int, default=0, metavar="N",
                        help="also time the test suite in N pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.tier1 < 0:
        parser.error(f"--tier1 must not be negative, got {args.tier1}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; the head's "
                         f"BENCHMARK.json lists {', '.join(known)}")

    states = {side: git_state(path) for side, path in checkouts.items()}
    result = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
              "commits": {side: state[0] for side, state in states.items()},
              "dirty": {side: state[1] for side, state in states.items()},
              "versions": {side: versions(path)
                           for side, path in checkouts.items()},
              "src_lines": {side: src_lines(path)
                            for side, path in checkouts.items()},
              "code_lines": {side: code_lines(path)
                             for side, path in checkouts.items()},
              "workloads": {}}
    print("; ".join(
        f"{name.replace('_', ' ')}: base {lines['base']} head {lines['head']} "
        f"change {lines['head'] - lines['base']:+d}"
        for name in ("src_lines", "code_lines") for lines in [result[name]]))
    for workload in args.workload:
        runs = alternate(args.pairs, lambda side: perfbench(
            checkouts[side], workload, args.seed, args.seconds))
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in runs}
            metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                             **compare(values["base"], values["head"],
                                       metric["better"])}
            if metric["unit"] == "s":
                metrics[name]["undivided"] = compare(
                    *(undivided(values[side], runs[side])
                      for side in ("base", "head")), metric["better"])
            print(summary(workload, name, metrics[name]))
            if metric["unit"] == "s":
                flagged = {side: implausible(v) for side, v in values.items()}
                metrics[name]["implausible"] = flagged
                for side, at in flagged.items():
                    if at:
                        print(f"{workload} {name}: {side} runs {at} lie over "
                              f"{IMPLAUSIBLE_FACTOR:g}x from their median",
                              file=sys.stderr)
        kept = {name: {side: spread([r[name] for r in runs[side]])
                       for side in runs}
                for name in ("slowdown", "sweeps", "solves")}
        print(f"{workload} host slowdown: " + " ".join(
            f"{side} {s['median']:.4g} ({s['q1']:.4g}-{s['q3']:.4g})"
            for side, s in kept["slowdown"].items()))
        print(f"{workload} " + "; ".join(f"{name}: " + " ".join(
            f"{side} {s['median']:g} ({s['q1']:g}-{s['q3']:g})"
            for side, s in kept[name].items()) for name in ("sweeps", "solves")))
        result["workloads"][workload] = {
            "metrics": metrics, **kept,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "attempted": {side: sum(r["attempted"] for r in runs[side])
                          for side in runs}}
    if args.tier1:
        times = alternate(args.tier1, lambda side: tier1(checkouts[side]))
        result["tier1_s"] = compare(times["base"], times["head"], "lower")
        print(summary("tier-1", "tier1_s", result["tier1_s"]))

    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
