"""Every solver's outputs, pinned by one digest.

One sha256 over what each solver returns on the conftest corpus and on a
small coverage instance with a base set: sorted ids, values as
``float.hex``, query and infeasible-query counts, passes, rounds, round-log
rows, trace steps and greedy augmentation candidates.  Each run goes once
through the objective itself (coverage takes the incremental and batch
paths) and once through a plain lambda (the whole-set path).  Only coverage
and modular objectives run, whose values are exact integer ratios or
Python float sums, so no NumPy summation order enters the digest.

A change that keeps every paper quantity bit for bit leaves the digest as
it is; a change that moves one must say why and pin the new digest.
"""

import hashlib
import random

from knapsub import (
    CoverageObjective,
    KnapsubError,
    MpcConfig,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    distributed_sieve_plus_max,
    estimate_lambda,
    greedy,
    greedy_or_max,
    greedy_plus_max,
    normalize,
    partial_enum_greedy,
    sieve,
    sieve_or_max,
    sieve_plus_max,
)

from conftest import make_instance, random_adjacency

PINNED = "6beed30fb1ca0e64becb719257c4016cc7fb445f64ef81641fbe5c5acbfb90cd"

EPSILON = 0.2


def _hex(x):
    return float(x).hex()


def _report(report):
    rows = [sorted(report.solution.ids), _hex(report.solution.value),
            report.queries, report.passes, report.rounds,
            report.max_central_receipts]
    if report.trace is not None:
        rows.append([(_hex(s.cum_cost), _hex(s.value), _hex(s.next_density),
                      _hex(s.ub_density)) for s in report.trace.steps])
    return rows


def _runs(instance, fn):
    """Every solver once on ``instance`` through ``fn``, as printable rows."""
    oracle = SubmodularOracle(instance, fn)
    k = instance.capacity
    out = []

    def run(name, call):
        ledger = QueryLedger()
        try:
            got = call(ledger)
        except KnapsubError as exc:
            got = type(exc).__name__
        out.append((name, got, ledger.query_count,
                    ledger.infeasible_query_count))

    for solver in (greedy, greedy_or_max, greedy_plus_max):
        def offline(ledger, solver=solver):
            result = solver(instance, oracle, ledger)
            return _report(result.report), [
                (i, s, _hex(v)) for i, s, v in result.augmentations]
        run(solver.__name__, offline)
    for depth in (1, 2):
        run(f"partial_enum_greedy/{depth}", lambda ledger, depth=depth: _report(
            partial_enum_greedy(instance, oracle, depth, ledger).report))

    def estimate(ledger):
        return estimate_lambda(StreamSource.from_instance(instance), k, oracle,
                               ledger=ledger)
    def estimate_row(ledger):
        e = estimate(ledger)
        return (_hex(e.lam), _hex(e.alpha), _hex(e.max_singleton_density),
                e.peak_retained)
    est = estimate(QueryLedger())
    run("estimate_lambda", estimate_row)
    for solver in (sieve, sieve_or_max, sieve_plus_max):
        for cap in (None, est.max_singleton_density):
            run(f"{solver.__name__}/{cap is None}",
                lambda ledger, solver=solver, cap=cap: _report(solver(
                    StreamSource.from_instance(instance), k, oracle, est.lam,
                    est.alpha, EPSILON, ledger, density_cap=cap)))
    for machines in (1, 3):
        def distributed(ledger, machines=machines):
            config = MpcConfig(machines, 2 * instance.n, seed=machines)
            result = distributed_sieve_plus_max(
                instance, oracle, est.lam, est.alpha, EPSILON, config, ledger)
            return _report(result.report), [
                (r.round, _hex(r.threshold), r.gamma_size, r.sent_per_machine,
                 r.sent_total, r.t_size, r.queries)
                for r in result.round_log.records]
        run(f"distributed/{machines}", distributed)
    return out


def _cases():
    for idx in range(60):
        yield make_instance(idx)
    rng = random.Random(5)
    objective = CoverageObjective(random_adjacency(14, 0.25, rng))
    raw = [(i, rng.uniform(1.0, 4.0)) for i in range(12)] + [(12, 0.0), (13, 0.0)]
    yield normalize(raw, 6.0), objective


def test_pinned_outputs():
    digest = hashlib.sha256()
    for instance, objective in _cases():
        for fn in (objective, lambda ids, obj=objective: obj.value(ids)):
            for row in _runs(instance, fn):
                digest.update(repr(row).encode())
    assert digest.hexdigest() == PINNED
