"""The movie path's outputs, pinned by one digest.

``tests/test_pinned_outputs.py`` leaves NumPy summation out, so this digest
covers what it cannot: ``MovieObjective`` answering through the oracle's
incremental and batch paths, where a value is a NumPy sum over targets.
One sha256 over, for each small seeded instance (some with a base set, one
on a subset of targets): ``estimate_lambda``'s lam, alpha, max singleton
density and peak retained count; ``sieve_plus_max`` with and without the
density cap, ``greedy_plus_max`` and Distributed+Max on one and three
machines, as sorted ids, values and trace steps as ``float.hex``, query and
infeasible-query counts, passes and round-log rows.

A change that keeps every paper quantity bit for bit leaves the digest as
it is; a change that moves one must say why and pin the new digest.
"""

import hashlib

from knapsub import (
    MpcConfig,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    distributed_sieve_plus_max,
    estimate_lambda,
    greedy_plus_max,
    sieve_plus_max,
)

from helpers import movie_case

PINNED = "f08d854252a8bf844fb39c9e67e12c74da27c3ac40956f02960ce8386d0990d0"

EPSILON = 0.1


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


def _ledger(ledger):
    return ledger.query_count, ledger.infeasible_query_count


def _cases():
    yield movie_case(1, 30, 5.0)
    yield movie_case(2, 40, 3.0)
    yield movie_case(3, 40, 8.0, base=2)
    yield movie_case(4, 30, 5.0, base=3)
    yield movie_case(5, 40, 8.0, targets=range(0, 40, 3))


def _runs(instance, objective):
    oracle = SubmodularOracle(instance, objective)
    k = instance.capacity
    out = []

    ledger = QueryLedger()
    est = estimate_lambda(StreamSource.from_instance(instance), k, oracle,
                          ledger=ledger)
    out.append(("estimate_lambda", _hex(est.lam), _hex(est.alpha),
                _hex(est.max_singleton_density), est.peak_retained,
                _ledger(ledger)))
    for cap in (None, est.max_singleton_density):
        ledger = QueryLedger()
        report = sieve_plus_max(StreamSource.from_instance(instance), k, oracle,
                                est.lam, est.alpha, EPSILON, ledger,
                                density_cap=cap)
        out.append(("sieve_plus_max", cap is None, _report(report),
                    _ledger(ledger)))
    ledger = QueryLedger()
    result = greedy_plus_max(instance, oracle, ledger)
    out.append(("greedy_plus_max", _report(result.report),
                [(i, s, _hex(v)) for i, s, v in result.augmentations],
                _ledger(ledger)))
    for machines in (1, 3):
        ledger = QueryLedger()
        config = MpcConfig(machines, 2 * instance.n, seed=machines)
        result = distributed_sieve_plus_max(instance, oracle, est.lam, est.alpha,
                                            EPSILON, config, ledger)
        out.append((f"distributed/{machines}", _report(result.report),
                    [(r.round, _hex(r.threshold), r.gamma_size,
                      r.sent_per_machine, r.sent_total, r.t_size, r.queries)
                     for r in result.round_log.records],
                    _ledger(ledger)))
    return out


def test_pinned_movie_outputs():
    digest = hashlib.sha256()
    for instance, objective in _cases():
        for row in _runs(instance, objective):
            digest.update(repr(row).encode())
    assert digest.hexdigest() == PINNED
