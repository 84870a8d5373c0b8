"""The incremental and batch query paths of the oracle.

Coverage and movie objectives answer "f(S + e)" from a working set's state,
and coverage answers a greedy step's whole batch in one call.  Every solver
must return the same ids, bit-identical values and the same counts, passes,
rounds, round logs and traces as when the same objective is hidden behind a
plain callable, which takes the whole-set path one query at a time.
"""

import random
import sys
import threading

import numpy as np
import pytest

import knapsub.objectives
from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    InfeasibleQuery,
    Instance,
    MovieObjective,
    MpcConfig,
    NonFiniteValue,
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
from knapsub import streaming
from knapsub.objectives import _MOVIE_BATCH_FLOATS

from conftest import random_adjacency
from helpers import NONFINITE, movie_case, nan_probe


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


class PartialProtocol:
    """A coverage objective behind ``value``, ``extend`` and ``value_with``
    but no ``values_with``, counting the calls to each."""

    def __init__(self, objective):
        self.objective = objective
        self.calls = dict.fromkeys(("value", "extend", "value_with"), 0)

    def value(self, ids):
        self.calls["value"] += 1
        return self.objective.value(ids)

    def extend(self, state, ids):
        self.calls["extend"] += 1
        return self.objective.extend(state, ids)

    def value_with(self, state, eid):
        self.calls["value_with"] += 1
        return self.objective.value_with(state, eid)


def test_part_of_the_protocol_takes_the_whole_set_path(corpus):
    # every query is asked of ``value`` on the whole set, with the protocol
    # path's answers and counts
    for instance, objective in instances("coverage", corpus):
        partial = PartialProtocol(objective)
        oracle = SubmodularOracle(instance, partial)
        assert every_solver(instance, oracle) == every_solver(
            instance, SubmodularOracle(instance, objective)), repr(instance)
        assert partial.calls["extend"] == partial.calls["value_with"] == 0
        partial.calls["value"] = 0
        ledger = QueryLedger()
        greedy_plus_max(instance, oracle, ledger)
        assert partial.calls["value"] == ledger.query_count > 0


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


# ------------------------------------------------------------ batch protocol


def ragged_adjacency(n, seed):
    """A symmetric graph given with duplicate neighbors, self-loops and
    isolated vertices, the forms ``CoverageObjective`` must normalize."""
    rng = random.Random(seed)
    adjacency = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if u % 7 and v % 7 and rng.random() < 0.3:  # multiples of 7 isolated
                adjacency[u].append(v)
                adjacency[v].append(u)
                if rng.random() < 0.2:
                    adjacency[u].append(v)
        if rng.random() < 0.3:
            adjacency[u].append(u)
        rng.shuffle(adjacency[u])
    return adjacency


@pytest.mark.parametrize("n", [9, 40, 150])
def test_values_with_is_value_with_bit_for_bit(n):
    objective = CoverageObjective(ragged_adjacency(n, n))
    rng = random.Random(n)
    base = rng.sample(range(n), 2)
    raw = [(v, 0.0 if v in base else rng.uniform(1.0, 3.0)) for v in range(n)]
    instance = normalize(raw, 1e6)
    oracle = SubmodularOracle(instance, objective)
    assert oracle.working_set().state.count  # the base set is covered
    ids = [e.id for e in instance.elements]
    for _ in range(20):
        ws = oracle.working_set(rng.sample(ids, rng.randint(0, n // 2)))
        # all ids (one pass over the edges) and a few (their rows alone)
        for batch in (ids, [], *(ids[j:j + 3] for j in range(0, len(ids), 3))):
            got = oracle.values_with(ws, instance.locate(batch), QueryLedger())
            want = [oracle.value_with(ws, eid, QueryLedger()) for eid in batch]
            assert hexes(got) == hexes(want)
            assert hexes(objective.values_with(None, batch)) == \
                hexes(objective.value_with(None, eid) for eid in batch)


@pytest.mark.parametrize("n", [9, 40, 150])
def test_both_coverage_batch_paths_are_value_with_bit_for_bit(n):
    # every batch reads the counts of every row, which a state's first
    # batch builds in one pass over every edge and later batches reuse;
    # multiples of 7 are isolated vertices
    objective = CoverageObjective(ragged_adjacency(n, n))
    passes = []
    all_hits = objective._all_hits
    objective._all_hits = lambda bits: passes.append(len(bits)) or all_hits(bits)
    rng = random.Random(n)
    quarter = n // 4
    for state in (None, objective.extend(None, [0]),
                  objective.extend(None, rng.sample(range(n), n // 3)),
                  objective.extend(None, range(n))):
        for i, size in enumerate((0, 1, quarter - 1, quarter, quarter + 1, n)):
            ids = [0, *rng.sample(range(1, n), size - 1)] if size else []
            before = len(passes)
            got = objective.values_with(state, np.array(ids, dtype=np.intp))
            assert hexes(got) == hexes(objective.value_with(state, eid)
                                       for eid in ids)
            assert passes[before:] == ([n] if i == 0 else [])


def test_coverage_states_are_never_written():
    # one working set seeds many machines and threshold sets, so growing
    # it must leave its state as it was, and no array takes a write; the
    # parent keeps its counts and every child carries its own
    n = 40
    objective = CoverageObjective(ragged_adjacency(n, n))
    instance = normalize([(v, 1.0) for v in range(n)], 1e6)
    oracle = SubmodularOracle(instance, objective)
    parent = oracle.working_set([3, 8])
    state = parent.state
    assert state.hits is None  # a working set starts without counts
    oracle.values_with(parent, np.arange(instance.n), QueryLedger())
    covered, count, hits = state.covered, state.count, state.hits
    before = covered.copy(), hits.copy()
    children = [oracle.add(parent, eid) for eid in range(n)
                if eid not in parent.ids]
    assert parent.state is state and state.covered is covered
    assert state.count == count == np.count_nonzero(before[0])
    assert np.array_equal(covered, before[0])
    assert state.hits is hits and np.array_equal(hits, before[1])
    counts = [child.state.hits for child in children]
    assert all(c is not None and c is not hits for c in counts)
    assert len({id(c) for c in counts}) == len(children)
    for arr in (covered, hits, children[0].state.covered, counts[0],
                children[-1].state.covered, counts[-1],
                objective.extend(None, ()).covered):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize("n", [9, 40, 150])
def test_carried_counts_are_a_full_pass_at_every_step(n):
    # chains of 0 to 3 ids at a time, with repeats, covered vertices and
    # isolated ones (multiples of 7); at every step the parent keeps its
    # counts and a sibling grown beside the chain carries a full pass too
    objective = CoverageObjective(ragged_adjacency(n, n + 1))
    rng = random.Random(n)
    state = objective.extend(None, rng.sample(range(n), 2))
    objective.values_with(state, np.arange(n))
    for _ in range(n):
        kept = state.hits.tolist()
        sibling = objective.extend(state, [rng.randrange(n)])
        grown = objective.extend(state, [rng.randrange(n)
                                         for _ in range(rng.randint(0, 3))])
        assert state.hits.tolist() == kept
        for child in (sibling, grown):
            assert child.hits.dtype == objective._count_type
            assert child.hits.tolist() == \
                objective._all_hits(child.covered).tolist()
            assert child.count == np.count_nonzero(child.covered)
        state = grown


def test_siblings_answer_alike_from_their_parents_counts():
    # both children carry the parent's counts grown by their own rows, and
    # the parent, asked again, reads the counts it kept: one pass over the
    # edges per parent
    n = 150
    objective = CoverageObjective(ragged_adjacency(n, 3))
    passes = []
    all_hits = objective._all_hits
    objective._all_hits = lambda bits: passes.append(len(bits)) or all_hits(bits)
    everything = np.arange(n)
    want = {v: hexes(objective.value_with(objective.extend(None, [1, 2, v]), e)
                     for e in range(n)) for v in (5, 9)}
    for first, second in ((5, 9), (9, 5)):
        parent = objective.extend(None, [1, 2])
        asked = hexes(objective.values_with(parent, everything))
        took = objective.extend(parent, [first])
        late = objective.extend(parent, [second])
        assert took.hits is not None and late.hits is not None
        assert hexes(objective.values_with(took, everything)) == want[first]
        assert hexes(objective.values_with(late, everything)) == want[second]
        assert hexes(objective.values_with(parent, everything)) == asked
    assert passes == [n, n]


def test_one_parent_shared_by_threads_answers_exactly():
    # threads race to build the parent's counts and to grow children from
    # it; whoever wins, every answer is the one a full pass gives
    n = 150
    objective = CoverageObjective(ragged_adjacency(n, 5))
    everything = np.arange(n)
    want = {v: hexes(objective.value_with(objective.extend(None, [1, 2, v]), e)
                     for e in range(n)) for v in range(0, n, 10)}
    parent = objective.extend(None, [1, 2])
    wrong = []

    def work(offset):
        for v in list(want)[offset::3] * 5:
            objective.values_with(parent, everything)
            child = objective.extend(parent, [v])
            if hexes(objective.values_with(child, everything)) != want[v]:
                wrong.append(v)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 3,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_greedy_passes_over_the_edges_once():
    # one full pass on the first step; every later step of the sweep
    # reads counts carried from the step before
    n = 150
    objective = CoverageObjective(ragged_adjacency(n, 4))
    instance = normalize([(v, 1.0 + v % 4) for v in range(n)], 24.0)
    passes = []
    all_hits = objective._all_hits
    objective._all_hits = lambda bits: passes.append(len(bits)) or all_hits(bits)
    batches = []
    values_with = objective.values_with
    objective.values_with = lambda state, ids: (batches.append(len(ids))
                                                or values_with(state, ids))
    fast, slow = both_oracles(instance, objective)
    report = greedy_plus_max(instance, fast).report
    assert passes == [n]
    assert len(batches) >= 5
    assert report_key(report) == report_key(greedy_plus_max(instance, slow).report)



def test_augmentation_reads_the_counts_the_greedy_built(monkeypatch):
    # Sieve+Max reorders its collection greedily, one batch per prefix, and
    # the augmentation asks those prefixes again: it reads the counts each
    # kept, and the last prefix's carried ones, with no pass over the edges
    n = 150
    objective = CoverageObjective(ragged_adjacency(n, 6))
    instance = normalize([(v, 1.0 + 2 * (v % 5)) for v in range(n)], 10.0)
    oracle = SubmodularOracle(instance, objective)
    est = estimate_lambda(StreamSource.from_instance(instance), 10.0, oracle)
    phase, greedy_asked, augment = [None], set(), []
    passes = []
    all_hits, values_with = objective._all_hits, objective.values_with
    objective._all_hits = lambda bits: passes.append(phase[0]) or all_hits(bits)

    def ask(state, ids):
        if phase[0] == "greedy":
            greedy_asked.add(id(state))
        elif phase[0] == "augment":
            augment.append(id(state) in greedy_asked)
        return values_with(state, ids)

    objective.values_with = ask
    for name in ("greedy_order", "augment_pass"):
        kernel = getattr(streaming, name)

        def run(*args, kernel=kernel, name=name):
            phase[0] = name.split("_")[0]
            try:
                return kernel(*args)
            finally:
                phase[0] = None
        monkeypatch.setattr(streaming, name, run)
    report = sieve_plus_max(StreamSource.from_instance(instance), 10.0, oracle,
                            est.lam, est.alpha, 0.1)
    assert len(greedy_asked) >= 3 and sum(augment) >= 2
    assert passes == [None]  # the sieve's empty set, which is G_0, no more
    monkeypatch.undo()
    objective._all_hits, objective.values_with = all_hits, values_with
    assert report_key(report) == report_key(sieve_plus_max(
        StreamSource.from_instance(instance), 10.0,
        SubmodularOracle(instance, lambda ids: objective.value(ids)),
        est.lam, est.alpha, 0.1))


def both_oracles(instance, objective):
    """The batch path, and the same objective behind a plain callable."""
    return (SubmodularOracle(instance, objective),
            SubmodularOracle(instance, lambda ids: objective.value(ids)))


def outcome(call, ledger):
    try:
        result = hexes(call())
    except (BudgetExceeded, InfeasibleQuery, KeyError) as exc:
        result = type(exc).__name__
    return result, ledger.query_count, ledger.infeasible_query_count


@pytest.mark.parametrize("solver", ["greedy", "greedy_plus_max", "partial_enum_greedy"])
def test_budget_stops_both_paths_at_the_same_query(solver, corpus):
    run = {"greedy": greedy, "greedy_plus_max": greedy_plus_max,
           "partial_enum_greedy": lambda i, o, led: partial_enum_greedy(i, o, 1, led)
           }[solver]
    stopped = 0
    for idx in range(0, 12, 2):
        instance, objective, _ = corpus(idx)
        full = QueryLedger()
        run(instance, SubmodularOracle(instance, objective), full)
        # budgets that land inside a greedy step, not only at its end
        for budget in sorted({1, 2, full.query_count // 3, full.query_count - 1}):
            counts = []
            for oracle in both_oracles(instance, objective):
                ledger = QueryLedger(budget=budget)
                with pytest.raises(BudgetExceeded):
                    run(instance, oracle, ledger)
                counts.append(ledger.query_count)
            assert counts == [budget, budget]
            stopped += 1
    assert stopped >= 12


def test_batch_feasibility_matches_single_queries(corpus):
    """Members, over-capacity ids and budgets, enforced or not: the batch
    returns, raises and counts what the same single queries do."""
    rng = random.Random(3)
    checked = 0
    for idx in range(0, 20, 2):
        instance, objective, _ = corpus(idx)
        ids = [e.id for e in instance.elements]
        for _ in range(10):
            chosen = rng.sample(ids, rng.randint(0, len(ids)))
            batch = [rng.choice(ids) for _ in range(rng.randint(1, 2 * len(ids)))]
            enforce = rng.random() < 0.5
            budget = rng.choice([None, rng.randint(0, len(batch))])
            results = []
            for oracle in both_oracles(instance, objective):
                ws = oracle.working_set(chosen)
                ledger = QueryLedger(enforce_feasible=enforce, budget=budget)
                results.append(outcome(lambda: oracle.values_with(
                    ws, instance.locate(batch), ledger), ledger))
            assert results[0] == results[1]
            checked += results[0][2] > 0
    assert checked >= 10  # some batches held infeasible queries


def test_batch_stops_at_an_unknown_id_like_single_queries():
    """An id the instance does not hold, located at n + 1, raises KeyError
    at its place in the batch: the queries before it are counted, and an
    earlier infeasible id or budget stop wins."""
    objective = CoverageObjective(ragged_adjacency(9, 1))
    instance = Instance([Element(i, 2.5 if i == 7 else 1.0) for i in range(1, 8)],
                        3.0)  # 7 fits alone but not next to 1
    stops = set()
    for stranger in (-1, 0, 8):  # before, between and beyond the ids
        for batch in ([2, 3, stranger, 4], [stranger, 7], [7, stranger],
                      [1, 2, 7, 3, stranger]):
            for enforce in (True, False):
                for budget in (None, 1, 2, 3):
                    results = []
                    for oracle in both_oracles(instance, objective):
                        ws = oracle.working_set([1])
                        ledger = QueryLedger(enforce_feasible=enforce,
                                             budget=budget)
                        results.append(outcome(lambda: oracle.values_with(
                            ws, instance.locate(batch), ledger), ledger))
                    assert results[0] == results[1], (stranger, batch)
                    stops.add(results[0][0])
    assert stops == {"KeyError", "InfeasibleQuery", "BudgetExceeded"}


def test_relaxed_greedy_counts_alike_on_both_paths(corpus):
    for idx in range(0, 20, 2):
        instance, objective, _ = corpus(idx)
        counts = []
        for oracle in both_oracles(instance, objective):
            ledger = QueryLedger(enforce_feasible=False)
            greedy_plus_max(instance, oracle, ledger)
            counts.append((ledger.query_count, ledger.infeasible_query_count))
        assert counts[0] == counts[1]


def test_greedy_asks_a_few_batches_per_step():
    objective = CoverageObjective(ragged_adjacency(60, 2))
    instance = normalize([(v, 1.0 + v % 4) for v in range(60)], 12.0)
    calls = {"values_with": 0, "value_with": 0}

    def counted(name):
        method = getattr(objective, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        setattr(objective, name, counted(name))
    report = greedy_plus_max(instance, SubmodularOracle(instance, objective)).report
    steps = len(report.trace.steps) - 1
    assert steps >= 3
    # a lazy step computes its guessed items in one batch, and a second
    # when the guess lay too high; a dropped item is never asked: never one
    # id at a time
    assert calls["value_with"] == 0
    assert steps <= calls["values_with"] <= 2 * steps


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("path", ["protocol", "callable"])
def test_every_query_rejects_a_nonfinite_value_after_counting_it(path, bad):
    instance, oracle = nan_probe(bad, path)
    ws = oracle.working_set([0])
    for ask, counted in (
            (lambda ledger: oracle.evaluate([0, 2], ledger), 1),
            (lambda ledger: oracle.value_with(ws, 2, ledger), 1),
            # one objective call answers the whole batch of fitting ids,
            # and all of it is counted; single queries stop at id 2
            (lambda ledger: oracle.values_with(
                ws, instance.locate([1, 2, 3]), ledger),
             3 if path == "protocol" else 2)):
        ledger = QueryLedger()
        with pytest.raises(NonFiniteValue):
            ask(ledger)
        assert ledger.query_count == counted
    ledger = QueryLedger()
    assert oracle.values_with(ws, instance.locate([1, 3, 0]), ledger).tolist() == \
        [2 / 6, 2 / 6, 1 / 6]
    assert ledger.query_count == 3


def test_batch_shortcut_needs_every_id_to_fit():
    objective = CoverageObjective(ragged_adjacency(9, 1))
    instance = Instance([Element(i, 2.5 if i == 7 else 1.0) for i in range(1, 8)],
                        3.0)  # 7 fits alone but not next to 1
    calls = {"values_with": 0, "value_with": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        setattr(objective, name, counted(name, getattr(objective, name)))
    oracle = SubmodularOracle(instance, objective)
    ws = oracle.working_set([1])
    # a member fits too
    oracle.values_with(ws, instance.locate([2, 3, 1, 4]), QueryLedger())
    assert calls == {"values_with": 1, "value_with": 0}
    ledger = QueryLedger(enforce_feasible=False)
    oracle.values_with(ws, instance.locate([2, 7, 3]), ledger)
    assert calls == {"values_with": 1, "value_with": 3}
    assert (ledger.query_count, ledger.infeasible_query_count) == (3, 1)


# ---------------------------------------------------------- movie batch


def signed_zero_movie(movies=300, targets=24, seed=7):
    """A movie table holding -0.0 and +0.0 among values of both signs, a
    row of -0.0 alone (id 0), a row of negatives (id 1) and a row of +0.0
    (id 2); and states on it: the empty set, grown sets, and states whose
    zeros carry either sign."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((movies, targets))
    table[rng.random(table.shape) < 0.3] = 0.0
    table[rng.random(table.shape) < 0.3] = -0.0
    table[0], table[1], table[2] = -0.0, -1.0 - rng.random(targets), 0.0
    objective = MovieObjective(np.zeros((movies, 1)))
    objective._table = table
    states = [None, objective.extend(None, [0]), objective.extend(None, [1, 2]),
              np.where(rng.random(targets) < 0.5, -0.0, 0.0),
              np.where(rng.random(targets) < 0.5, -0.0, rng.random(targets))]
    states += [objective.extend(None, rng.choice(movies, 3)) for _ in range(4)]
    return objective, states


# one chunk of a movie batch on signed_zero_movie's 24 targets: 2,730 ids
BLOCK = _MOVIE_BATCH_FLOATS // 24


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257,
                                   BLOCK - 1, BLOCK, BLOCK + 1])
def test_movie_values_with_is_value_with_bit_for_bit(count):
    # BLOCK ids make one chunk of the batch; BLOCK + 1 cross into a second.
    # Past 300 the ids repeat, as a batch may.
    objective, states = signed_zero_movie()
    rng = np.random.default_rng(count)
    ids = np.resize(np.concatenate([[0, 1, 2],
                                    rng.permutation(np.arange(3, 300))]), count)
    for state in states:
        assert hexes(objective.values_with(state, ids)) == \
            hexes(objective.value_with(state, eid) for eid in ids.tolist())
    # a total of zeros alone is +0.0 on both paths
    assert hexes(objective.values_with(None, [0, 1, 2])) == ["0x0.0p+0"] * 3


def test_movie_batch_chunks_wide_tables_by_floats():
    # 2500 targets: 2**16 floats hold 26 rows, so 420 ids take 17 chunks;
    # 6 targets: 10,922 rows, so all 420 ids make one chunk
    rng = np.random.default_rng(3)
    for width in (2500, 6):
        objective = MovieObjective(rng.standard_normal((420, 6)),
                                   targets=rng.integers(0, 420, width))
        ids = rng.permutation(420)
        for state in (None, objective.extend(None, ids[:5])):
            assert hexes(objective.values_with(state, ids)) == \
                hexes(objective.value_with(state, eid) for eid in ids.tolist())


# a movie table of 2,000 targets: 2**16 floats hold 32 rows per block
WIDE = 2000
WIDE_STEP = _MOVIE_BATCH_FLOATS // WIDE


@pytest.mark.parametrize("ids, runs", [
    (range(3, 20), [True]),                    # inside one block
    (range(10, 80), [True, True, True]),       # across blocks
    (range(170, 200), [True]),                 # up to the table's last row
    ([*range(5, 20), *range(21, 30)], [False]),  # one gap
    ([*range(5, 20), *range(21, 60)], [False, True]),  # a gap, then a run
    (range(60, 20, -1), [False, False]),       # descending
    ([7, 7, 8, 8, 9], [False]),                # repeated
    ([3, 5, 4, 6], [False]),                   # a run's span, out of order
    ([42], [True]),                            # a single id
    ([-3, -2, -1], [False]),                   # negative ids index from the end
])
def test_movie_batches_read_runs_in_place(monkeypatch, ids, runs):
    # a block of consecutive ascending ids is read as a slice of the table,
    # any other block is gathered; both give value_with's floats, bit for
    # bit, on the empty state and on grown ones
    assert WIDE_STEP == 32
    rng = np.random.default_rng(11)
    objective = MovieObjective(rng.standard_normal((200, 6)),
                               targets=rng.integers(0, 200, WIDE))
    read = []
    run = knapsub.objectives._run

    def recorded(chunk):
        read.append(run(chunk) is not None)
        return run(chunk)

    monkeypatch.setattr(knapsub.objectives, "_run", recorded)
    grown = objective.extend(None, [3, 50, 120])
    for state in (None, grown, objective.extend(grown, [199])):
        read.clear()
        assert hexes(objective.values_with(state, list(ids))) == \
            hexes(objective.value_with(state, eid) for eid in ids)
        assert read == runs


def test_a_movie_batch_refuses_an_id_past_the_table():
    # as the single query's index does, whether the block is a run or not
    objective = MovieObjective(np.eye(4))
    for ids in ([2, 3, 4], [4, 1], [-5]):
        with pytest.raises(IndexError):
            objective.values_with(None, ids)
    with pytest.raises(IndexError):
        objective.value_with(None, 4)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 127, 128, 129, 1000, 2000])
def test_numpy_sums_a_contiguous_row_as_a_1d_array(width):
    # the movie batches rest on this: NumPy sums each contiguous row of a
    # 2-D array pairwise, exactly as it sums the same row alone.  Values
    # of mixed magnitude make the summation order show in the last bits.
    rng = np.random.default_rng(width)
    matrix = rng.standard_normal((40, width)) * 10.0 ** rng.integers(-8, 9, (40, width))
    picked = [5, 3, 3, 0, 39]
    assert hexes(matrix.sum(axis=1)) == hexes(row.sum() for row in matrix)
    assert hexes(matrix[picked].sum(axis=1)) == hexes(matrix[r].sum() for r in picked)
    out = np.empty(len(picked))
    np.maximum(matrix[picked], matrix[7]).sum(axis=1, out=out)
    assert hexes(out) == hexes(np.maximum(matrix[r], matrix[7]).sum() for r in picked)


@pytest.mark.parametrize("bad", NONFINITE)
def test_movie_batch_counts_whole_before_a_nonfinite_value(bad):
    # movie 4 rates one user ``bad`` and is no target, so only a set that
    # holds it answers a bad value
    vectors = np.random.default_rng(6).standard_normal((6, 4))
    vectors[4, 0] = bad
    with np.errstate(invalid="ignore"):
        objective = MovieObjective(vectors, targets=[0, 1, 2, 3, 5])
    instance = Instance([Element(i, 1.0) for i in range(6)], 3.0)
    oracle = SubmodularOracle(instance, objective)
    ledger = QueryLedger()
    with pytest.raises(NonFiniteValue):
        oracle.values_with(oracle.working_set(), instance.locate([1, 4, 5]),
                           ledger)
    assert ledger.query_count == 3


def test_movie_solvers_ask_batches():
    # greedy asks each step in a few batches and the augmentation pass each
    # prefix's items; the estimator asks its singletons in one batch and
    # each grid set's queries in batches of its own, and answers its empty
    # grid sets from the singleton query
    instance, objective = movie_case(3, 40, 8.0)
    calls = {"values_with": 0, "value_with": 0}

    def counted(name):
        method = getattr(objective, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        setattr(objective, name, counted(name))
    oracle = SubmodularOracle(instance, objective)
    ledger = QueryLedger()
    est = estimate_lambda(StreamSource.from_instance(instance), 8.0, oracle,
                          ledger=ledger)
    assert calls["value_with"] == 0
    assert 1 < calls["values_with"] < instance.n < ledger.query_count
    calls.update(values_with=0, value_with=0)
    report = greedy_plus_max(instance, oracle).report
    steps = len(report.trace.steps) - 1
    assert calls["value_with"] == 0
    assert steps <= calls["values_with"] <= 3 * steps
    calls.update(values_with=0)
    sieve_plus_max(StreamSource.from_instance(instance), 8.0, oracle, est.lam,
                   est.alpha, 0.1, density_cap=est.max_singleton_density)
    assert calls["values_with"] >= 1
