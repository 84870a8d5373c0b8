"""The incremental query path of the oracle.

Coverage and movie objectives answer "f(S + e)" from a working set's state.
Every solver must return the same ids, bit-identical values and the same
counts, passes, rounds, round logs and traces as when the same objective is
hidden behind a plain callable, which takes the whole-set path.
"""

import random

import numpy as np
import pytest

from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    InfeasibleQuery,
    Instance,
    MovieObjective,
    MpcConfig,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    distributed_sieve_plus_max,
    estimate_lambda,
    greedy,
    greedy_or_max,
    greedy_plus_max,
    movie_costs,
    normalize,
    partial_enum_greedy,
    sieve,
    sieve_or_max,
    sieve_plus_max,
)

from conftest import random_adjacency


def movie_instance(seed, base=0):
    """A sparse rating matrix, so the similarity table holds exact zeros;
    ``base`` extra movies join at cost 0, i.e. into the base set."""
    rng = np.random.default_rng(seed)
    n = 6 + seed % 7
    vectors = rng.standard_normal((n + base, 5)) * (rng.random((n + base, 5)) < 0.5)
    objective = MovieObjective(vectors)
    costs = movie_costs(objective)
    raw = [(i, costs[i]) for i in range(n)] + [(n + i, 0.0) for i in range(base)]
    return normalize(raw, 2.0 + seed % 5), objective


def coverage_with_base(seed):
    rng = random.Random(seed)
    objective = CoverageObjective(random_adjacency(14, 0.25, rng))
    raw = [(i, rng.uniform(1.0, 4.0)) for i in range(12)] + [(12, 0.0), (13, 0.0)]
    return normalize(raw, 6.0), objective


def instances(kind, corpus):
    if kind == "coverage":
        for idx in range(0, 40, 2):
            instance, objective, _ = corpus(idx)
            yield instance, objective
        yield coverage_with_base(1)
    else:
        for seed in range(16):
            yield movie_instance(seed)
        yield movie_instance(3, base=2)


def hexes(values):
    return [float(v).hex() for v in values]


def report_key(report):
    trace = None if report.trace is None else [
        hexes((s.cum_cost, s.value, s.next_density, s.ub_density))
        for s in report.trace.steps]
    return (sorted(report.solution.ids), report.solution.value.hex(),
            report.queries, report.passes, report.rounds,
            report.max_central_receipts, trace)


def ledger_key(ledger):
    return ledger.query_count, ledger.infeasible_query_count


def every_solver(instance, oracle):
    """Each solver's observable output, floats as ``float.hex``."""
    out = {}
    for solver in (greedy, greedy_or_max, greedy_plus_max):
        ledger = QueryLedger()
        result = solver(instance, oracle, ledger)
        out[solver.__name__] = (report_key(result.report), ledger_key(ledger),
                                [(i, s, v.hex()) for i, s, v in result.augmentations])
    ledger = QueryLedger()
    result = partial_enum_greedy(instance, oracle, 1, ledger)
    out["partial_enum_greedy"] = report_key(result.report), ledger_key(ledger)

    ledger = QueryLedger()
    est = estimate_lambda(StreamSource.from_instance(instance), instance.capacity,
                          oracle, ledger=ledger)
    out["estimate_lambda"] = (hexes((est.lam, est.alpha, est.max_singleton_density)),
                              est.peak_retained, ledger_key(ledger))
    if est.lam <= 0:
        return out
    for solver in (sieve, sieve_or_max, sieve_plus_max):
        ledger = QueryLedger()
        report = solver(StreamSource.from_instance(instance), instance.capacity,
                        oracle, est.lam, est.alpha, 0.1, ledger,
                        density_cap=est.max_singleton_density)
        out[solver.__name__] = report_key(report), ledger_key(ledger)
    ledger = QueryLedger()
    config = MpcConfig(machines=2, memory_cap=10.0 * instance.n + 10.0, seed=5,
                       sample_factor=1.0)
    result = distributed_sieve_plus_max(instance, oracle, est.lam, est.alpha, 0.1,
                                        config, ledger)
    rounds = [(r.round, r.threshold.hex(), r.gamma_size, r.sent_per_machine,
               r.sent_total, r.t_size, r.queries) for r in result.round_log.records]
    out["distributed_sieve_plus_max"] = (report_key(result.report), rounds,
                                         ledger_key(ledger))
    return out


@pytest.mark.parametrize("kind", ["coverage", "movie"])
def test_incremental_path_matches_whole_set_path(kind, corpus):
    checked = 0
    for instance, objective in instances(kind, corpus):
        fast = every_solver(instance, SubmodularOracle(instance, objective))
        slow = every_solver(instance, SubmodularOracle(
            instance, lambda ids: objective.value(ids)))
        assert fast == slow, repr(instance)
        checked += "distributed_sieve_plus_max" in fast
    assert checked >= 10  # most instances reach the streaming solvers


def test_protocol_objectives_bypass_evaluate():
    objective = CoverageObjective([[1], [0, 2], [1]])
    instance = Instance([Element(i, 1.0) for i in range(3)], 2.0)

    def refuse(ids, ledger):
        raise AssertionError("whole-set evaluation")

    for fn in (objective, objective.value):
        oracle = SubmodularOracle(instance, fn)
        oracle.evaluate = refuse
        ws = oracle.working_set([0], 2 / 3)
        assert oracle.value_with(ws, 2, QueryLedger()) == 1.0

    # a plain callable is evaluated on the whole set, through ``evaluate``
    oracle = SubmodularOracle(instance, lambda ids: objective.value(ids))
    oracle.evaluate = refuse
    with pytest.raises(AssertionError, match="whole-set"):
        oracle.value_with(oracle.working_set([0], 2 / 3), 2, QueryLedger())


def test_value_with_is_value_bit_for_bit():
    # sparse rows give +0.0 and -0.0 similarities, whose max depends on order
    instance, objective = movie_instance(5)
    rng = random.Random(5)
    ids = [e.id for e in instance.elements]
    for _ in range(200):
        chosen = rng.sample(ids, rng.randint(0, len(ids) - 1))
        eid = rng.choice([i for i in ids if i not in chosen])
        state = objective.extend(None, chosen)
        assert objective.value_with(state, eid).hex() == \
            objective.value(frozenset(chosen) | {eid}).hex()
    # a table holding -0.0 (BLAS tends to return +0.0 for 0 * -1): the max of
    # two zeros depends on their order, the sign of the total must not
    zero = MovieObjective(np.zeros((3, 8)))
    zero._table = np.array([[-0.0] * 8, [1.0] * 8, [-0.0] * 8])
    assert zero.value({0, 2}).hex() == "0x0.0p+0"
    assert zero.value_with(zero.extend(None, [0]), 2).hex() == "0x0.0p+0"


def test_value_with_enforces_feasibility_and_budget():
    objective = CoverageObjective([[1], [0, 2], [1]])
    instance = Instance([Element(0, 1.0), Element(1, 2.0), Element(2, 1.0)], 3.0)
    oracle = SubmodularOracle(instance, objective)
    ws = oracle.add(oracle.working_set([0], 2 / 3), 2, 1.0)   # room 1 unit left

    ledger = QueryLedger()
    with pytest.raises(InfeasibleQuery):
        oracle.value_with(ws, 1, ledger)
    assert ledger.query_count == ledger.infeasible_query_count == 0

    relaxed = QueryLedger(enforce_feasible=False)
    assert oracle.value_with(ws, 1, relaxed) == 1.0
    assert relaxed.query_count == relaxed.infeasible_query_count == 1

    capped = QueryLedger(budget=2)
    empty = oracle.working_set((), 0.0)
    oracle.value_with(empty, 0, capped)
    oracle.value_with(empty, 1, capped)
    with pytest.raises(BudgetExceeded):
        oracle.value_with(empty, 2, capped)
    assert capped.query_count == 2
