"""The lazy greedy sweep: the full sweep's picks, the heap pass's count.

``knapsub.offline._run_greedy`` asks only the items whose stale bounds
could still reach the best fresh density or gain.  Its ids, values and
Greedy+Max candidates must equal those of
:func:`helpers.full_sweep_greedy`, which asks every fitting item at every
step, and its ledger count and trace those of
:func:`helpers.heap_lazy_greedy`, the same lazy pass one query at a time,
on the protocol path and on the whole-set path alike.  A dropped item
keeps its stale density bound, so the trace's ``ub_density`` may lie above
the full sweep's exact one.
"""

import json
import math

import pytest

from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    Instance,
    NonFiniteValue,
    QueryLedger,
    SubmodularOracle,
    coverage_costs,
    greedy,
    greedy_or_max,
    greedy_plus_max,
    normalize,
    partial_enum_greedy,
)
from knapsub.bench import ExperimentConfig
from knapsub.bench.datasets import preferential_adjacency
from knapsub.bench.suite import build_dataset
from knapsub.offline import greedy_order

from helpers import _slack_floor, full_sweep_greedy, heap_lazy_greedy


def _paths(objective):
    """The objective as the protocol object and as a whole-set lambda."""
    return {"protocol": objective,
            "whole-set": lambda ids, obj=objective: obj.value(ids)}


def _trace(steps):
    return [(s.cum_cost, s.value, s.next_density, s.ub_density) for s in steps]


def _start(oracle, ledger, seed=()):
    return oracle.working_set(seed, oracle.evaluate(seed, ledger))


def _reference(oracle, seed=(), restrict_to=None):
    """The full sweep's prefixes and candidates, the heap pass's trace and
    the heap pass's query count from ``seed``, f(seed) included.  The two
    traces agree but for ``ub_density``, which the heap pass takes at or
    above the exact one, less the slack: a stale coverage density can sit
    ulps below the same item's fresh one."""
    ledger = QueryLedger()
    picks = full_sweep_greedy(oracle, ledger, _start(oracle, ledger, seed),
                              restrict_to)
    ledger = QueryLedger()
    lazy = heap_lazy_greedy(oracle, ledger, _start(oracle, ledger, seed),
                            restrict_to)
    assert [p.order for p in lazy[0]] == [p.order for p in picks[0]]
    assert lazy[1] == picks[1]
    assert [(s.cum_cost, s.value, s.next_density) for s in lazy[2]] == \
        [(s.cum_cost, s.value, s.next_density) for s in picks[2]]
    for stale, exact in zip(lazy[2], picks[2]):
        assert stale.ub_density >= _slack_floor(exact.ub_density)
    return (picks[0], picks[1], lazy[2]), ledger.query_count


def _check_all_entry_points(instance, objective):
    for fn in _paths(objective).values():
        oracle = SubmodularOracle(instance, fn)
        (prefixes, candidates, steps), count = _reference(oracle)
        final = prefixes[-1]
        for solver in (greedy, greedy_or_max, greedy_plus_max):
            ledger = QueryLedger()
            result = solver(instance, oracle, ledger)
            assert ledger.query_count == result.report.queries == count
            assert _trace(result.report.trace.steps) == _trace(steps)
            if solver is greedy:
                assert (result.report.solution.ids, result.report.solution.value) \
                    == (final.ids, final.value)
            elif solver is greedy_plus_max:
                assert result.augmentations == candidates
                i, s, v = max(candidates, key=lambda c: c[2])
                assert result.report.solution.value == v
                assert result.report.solution.ids == \
                    prefixes[i].ids | ({s} if s is not None else set())
            else:
                assert result.augmentations == candidates[:1] * (
                    candidates[0][1] is not None)

        members = instance.element_ids()[::2]
        (prefixes, _, _), count = _reference(oracle, restrict_to=members)
        ledger = QueryLedger()
        got = greedy_order(instance, oracle, members, ledger)
        assert [(p.order, p.value) for p in got] == \
            [(p.order, p.value) for p in prefixes]
        assert ledger.query_count == count

        seeds = [()] + [(e,) for e in instance.element_ids()]
        runs = [_reference(oracle, seed) for seed in seeds]
        best = max((run[0][0][-1] for run in runs), key=lambda p: p.value)
        ledger = QueryLedger()
        report = partial_enum_greedy(instance, oracle, 1, ledger).report
        assert (report.solution.ids, report.solution.value) == (best.ids, best.value)
        assert ledger.query_count == sum(count for _, count in runs)


def test_lazy_sweep_matches_both_references_on_the_corpus(corpus):
    for idx in range(60):
        instance, objective, _ = corpus(idx)
        _check_all_entry_points(instance, objective)


@pytest.mark.parametrize("model", ["gnp", "pa"])
def test_lazy_sweep_matches_both_references_on_the_pinned_configs(model):
    cfg = ExperimentConfig(dataset="", kind="synthetic", algorithms=["greedy"],
                           k_values=[3.0, 6.0, 12.0], model=model, n=60,
                           p=0.1, attach=3, seed=7)
    _, objective, raw = build_dataset(cfg)
    for k in cfg.k_values:
        _check_all_entry_points(normalize(raw, k), objective)


def test_stale_gains_a_few_ulps_low_do_not_change_the_picks():
    # coverage gains computed at an earlier prefix can sit ulps below the
    # same gains now; without the 1e-9 slack this cell picked other ids
    adjacency = preferential_adjacency(4000, 11, seed=613)
    objective = CoverageObjective(adjacency)
    instance = normalize(sorted(coverage_costs(adjacency).items()), 50.0)
    oracle = SubmodularOracle(instance, objective)
    ledger = QueryLedger()
    prefixes, candidates, _ = full_sweep_greedy(oracle, ledger,
                                                _start(oracle, ledger))
    result = greedy_plus_max(instance, oracle, QueryLedger())
    i, s, v = max(candidates, key=lambda c: c[2])
    assert result.report.solution.ids == prefixes[i].ids | {s}
    assert result.augmentations == candidates
    assert result.report.queries < ledger.query_count / 5


def _chain(n=12):
    """Coverage on a path with unit costs: every pick changes its
    neighbours' gains, so the lazy pass re-asks only some items."""
    adjacency = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    instance = Instance([Element(v, 1.0 + v % 3 / 2) for v in range(n)], 6.0)
    return instance, CoverageObjective(adjacency)


@pytest.mark.parametrize("path", ["protocol", "whole-set"])
def test_a_budget_stops_the_lazy_sweep_after_exactly_that_many_queries(path):
    instance, objective = _chain()
    oracle = SubmodularOracle(instance, _paths(objective)[path])
    total = greedy_plus_max(instance, oracle, QueryLedger()).report.queries
    first_steps = 1 + instance.n + instance.n  # f(empty), step 0, and then some
    assert total > first_steps
    for budget in range(first_steps + 1):
        ledger = QueryLedger(budget=budget)
        with pytest.raises(BudgetExceeded):
            greedy_plus_max(instance, oracle, ledger)
        assert ledger.query_count == budget


class _Poisoned(CoverageObjective):
    """Coverage that answers NaN for ``bad`` on every set that also holds
    ``holds``; every other value stays finite."""

    def __init__(self, adjacency, bad, holds):
        super().__init__(adjacency)
        self.bad, self.holds = bad, holds

    def value(self, ids):
        return math.nan if {self.bad, self.holds} <= set(ids) \
            else super().value(ids)

    def value_with(self, state, eid):
        poisoned = eid == self.bad and state.covered[self.holds]
        return math.nan if poisoned else super().value_with(state, eid)

    def values_with(self, state, ids):
        out = super().values_with(state, ids)
        out[(ids == self.bad) & bool(state.covered[self.holds])] = math.nan
        return out


def _isolated(n):
    """n isolated vertices: a vertex covers only itself, so f(S + e) is
    known before it is asked."""
    return [[] for _ in range(n)]


@pytest.mark.parametrize("path", ["protocol", "whole-set"])
def test_a_charged_nan_raises_once_counted(path):
    # unit costs, every gain 1/6: every item is re-asked at every step,
    # so id 3 is asked on {0} and raises there
    instance = Instance([Element(v, 1.0) for v in range(6)], 3.0)
    objective = _Poisoned(_isolated(6), bad=3, holds=0)
    oracle = SubmodularOracle(instance, _paths(objective)[path])
    ledger = QueryLedger()
    with pytest.raises(NonFiniteValue):
        greedy_plus_max(instance, oracle, ledger)
    # f(empty), the six singletons, then ids 1, 2 and 3 on {0}
    assert ledger.query_count == 1 + 6 + 3


def _stars(leaves):
    """Coverage on stars: vertex v, for each v in ``leaves``, joined to its
    own ``leaves[v]`` new leaves; every other vertex below them stands
    alone."""
    n = max(leaves) + 1
    adjacency = [[] for _ in range(n + sum(leaves.values()))]
    for v, count in leaves.items():
        for u in range(n, n + count):
            adjacency[v].append(u)
            adjacency[u].append(v)
        n += count
    return adjacency


def test_a_nan_only_among_speculative_values_never_raises():
    # after id 0 is picked the protocol path computes ahead the items whose
    # bounds reach the floors guessed from the first step, ids 1, 2, 3 and
    # 5; id 5 answers NaN with 0 in the set, so the step falls back to the
    # lazy pass one query at a time, which asks ids 1, 2 and 3 only.  Id 1's
    # pick drops ids 3 and 5, and a dropped item is never asked, so id 5 is
    # never asked on either path
    objective = _Poisoned(_stars({0: 0, 1: 0, 2: 9, 3: 9, 5: 7}), bad=5, holds=0)
    costs = {0: 0.5, 1: 0.6, 2: 10.0, 3: 19.0, 5: 19.0}
    instance = Instance([Element(v, c) for v, c in costs.items()], 20.0)
    reports = {}
    for path, fn in _paths(objective).items():
        reports[path] = greedy_plus_max(instance, SubmodularOracle(instance, fn),
                                        QueryLedger()).report
    assert reports["protocol"].solution == reports["whole-set"].solution
    assert reports["protocol"].solution.ids == frozenset({0, 1, 2})
    assert reports["protocol"].queries == reports["whole-set"].queries
    assert reports["protocol"].speculative_evaluations > 0
    assert reports["whole-set"].speculative_evaluations == 0


def test_a_guess_above_every_bound_computes_the_top_bound_items_once():
    # once id 0, covering 10 vertices, is picked, its density and gain lie
    # far above every other bound; the next step's batch still holds the
    # top-bound items, ids 1 and 2, whose values settle it with no second
    # batch.  Every item costs the same, so the third pick, id 2, leaves no
    # room for id 3: it is dropped unasked, and the trace's last density
    # bound is its bound from the first step, f({3}) - f({}) over its cost
    instance = Instance([Element(v, 1.0) for v in range(4)], 3.0)
    objective = CoverageObjective(_stars({0: 9, 1: 1, 2: 1, 3: 0}))
    oracle = SubmodularOracle(instance, objective)
    batches = []
    ahead = oracle.values_ahead

    def record(ws, positions, ledger):
        batches.append(instance.ids[positions].tolist())
        return ahead(ws, positions, ledger)

    oracle.values_ahead = record
    report = greedy_plus_max(instance, oracle, QueryLedger()).report
    assert report.solution.ids == frozenset({0, 1, 2})
    assert batches == [[1, 2], [2]]
    assert report.queries == 1 + 4 + 2 + 1
    assert report.speculative_evaluations == 0
    assert report.trace.steps[-1].ub_density == \
        objective.value({3}) / instance.costs[3]


def test_speculative_values_are_tallied_not_counted():
    instance, objective = _chain(40)
    ledger = QueryLedger()
    report = greedy_plus_max(instance, SubmodularOracle(instance, objective),
                             ledger).report
    whole = QueryLedger()
    greedy_plus_max(instance, SubmodularOracle(
        instance, _paths(objective)["whole-set"]), whole)
    assert report.queries == whole.query_count
    assert whole.speculative_evaluations == 0
    assert report.speculative_evaluations == ledger.speculative_evaluations


def test_query_counts_stay_python_ints():
    # a run's counts go to JSON as they are, and a NumPy integer would not:
    # here the lazy steps settle batches computed ahead, and picks drop
    # items
    adjacency = preferential_adjacency(300, 3, seed=5)
    objective = CoverageObjective(adjacency)
    instance = normalize(sorted(coverage_costs(adjacency).items()), 10.0)
    ledger = QueryLedger()
    report = greedy_plus_max(instance, SubmodularOracle(instance, objective),
                             ledger).report
    counts = [ledger.query_count, ledger.speculative_evaluations,
              report.queries, report.speculative_evaluations]
    assert [type(c) for c in counts] == [int] * 4
    assert json.loads(json.dumps(counts)) == counts
