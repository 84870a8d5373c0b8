"""Offline algorithms: frozen hand values, dominance, parity, guarantees."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    Instance,
    ModularObjective,
    NonFiniteValue,
    QueryLedger,
    SubmodularOracle,
    greedy,
    greedy_or_max,
    greedy_plus_max,
    partial_enum_greedy,
)
from knapsub.bench.datasets import preferential_adjacency
from knapsub.offline import greedy_order

from helpers import NONFINITE, nan_probe, tight_oracle, validate_trace


def test_greedy_tight_example_picks_the_spoiler():
    inst, oracle = tight_oracle()
    result = greedy(inst, oracle)
    assert result.report.solution.ids == frozenset({3})
    assert result.report.solution.value == 0.6
    steps = result.report.trace.steps
    assert [s.cum_cost for s in steps] == [0.0, 1.1]
    assert steps[0].next_density == pytest.approx(0.6 / 1.1)
    assert steps[1].next_density == 0.0
    assert steps[1].ub_density == pytest.approx(0.5)


def test_greedy_or_max_tight_example():
    inst, oracle = tight_oracle()
    result = greedy_or_max(inst, oracle)
    assert result.report.solution.value == 0.6


def test_greedy_plus_max_tight_example():
    inst, oracle = tight_oracle()
    result = greedy_plus_max(inst, oracle)
    assert result.report.solution.value == 0.6
    assert result.report.solution.ids == frozenset({3})


def test_partial_enum_depth_one_cracks_tight_example():
    inst, oracle = tight_oracle()
    result = partial_enum_greedy(inst, oracle, depth=1)
    assert result.report.solution.value == 1.0
    assert result.report.solution.ids == frozenset({1, 2})


def test_greedy_modular_unit_costs_takes_top_weights():
    inst = Instance([Element(i, 1.0) for i in range(3)], 2.0)
    oracle = SubmodularOracle(inst, ModularObjective({0: 3.0, 1: 2.0, 2: 1.0}).value)
    result = greedy(inst, oracle)
    assert result.report.solution.ids == frozenset({0, 1})
    assert result.report.solution.value == 5.0


def test_the_greedies_do_not_depend_on_the_build_order():
    # unit costs on a coverage graph tie often: ties go to the smallest id
    # whatever order the elements were built in
    objective = CoverageObjective(preferential_adjacency(80, 2, seed=3))
    elements = [Element(v, 1.0) for v in range(80)]
    shuffled = elements[:]
    random.Random(7).shuffle(shuffled)
    runs = []
    for order in (elements, shuffled):
        inst = Instance(order, 8.0)
        oracle = SubmodularOracle(inst, objective)
        run = [(r.solution.ids, r.solution.value, r.queries) for r in (
            solver(inst, oracle).report
            for solver in (greedy, greedy_or_max, greedy_plus_max))]
        ledger = QueryLedger()
        prefixes = greedy_order(inst, oracle, range(0, 80, 3), ledger)
        run.append(([p.order for p in prefixes], [p.value for p in prefixes],
                    ledger.query_count))
        runs.append(run)
    assert runs[0] == runs[1]


def test_greedy_single_element():
    inst = Instance([Element(7, 1.0)], 1.0)
    oracle = SubmodularOracle(inst, lambda s: 2.0 if 7 in s else 0.0)
    result = greedy(inst, oracle)
    assert result.report.solution.ids == frozenset({7})
    assert result.report.solution.value == 2.0


def test_greedy_empty_instance_returns_base_value():
    inst = Instance([], 2.0, base_set={1})
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    result = greedy(inst, oracle)
    assert result.report.solution.ids == frozenset()
    assert result.report.solution.value == 1.0


def test_greedy_or_max_prefers_big_singleton(corpus):
    # corpus instance 62: plain greedy ends at 0.5 but one feasible
    # singleton alone covers two thirds of the graph
    inst, objective, _ = corpus(62)
    oracle = SubmodularOracle(inst, objective.value)
    plain = greedy(inst, oracle, QueryLedger()).report.solution.value
    better = greedy_or_max(inst, oracle, QueryLedger()).report.solution.value
    assert plain == 0.5
    assert better == pytest.approx(2 / 3)


def test_dominance_chain(corpus):
    for idx in range(200):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        g = greedy(inst, oracle, QueryLedger()).report.solution.value
        gom = greedy_or_max(inst, oracle, QueryLedger()).report.solution.value
        gpm = greedy_plus_max(inst, oracle, QueryLedger()).report.solution.value
        assert gom >= g - 1e-12
        assert gpm >= gom - 1e-12


def test_query_parity(corpus):
    for idx in range(100):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        counts = set()
        for algo in (greedy, greedy_or_max, greedy_plus_max):
            ledger = QueryLedger()
            result = algo(inst, oracle, ledger)
            assert result.report.queries == ledger.query_count
            counts.add(ledger.query_count)
        assert len(counts) == 1


def test_greedy_plus_max_half_guarantee(corpus):
    for idx in range(150):
        inst, objective, opt = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        result = greedy_plus_max(inst, oracle, QueryLedger())
        assert result.report.solution.value >= 0.5 * opt.value - 1e-9


def test_greedy_plus_max_candidate_invariant(corpus):
    for idx in range(40):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        result = greedy_plus_max(inst, oracle, QueryLedger())
        assert result.augmentations
        assert result.report.solution.value == max(
            v for _, _, v in result.augmentations)
        # the chosen set must cost within budget
        assert inst.cost(result.report.solution.ids) <= inst.capacity + 1e-9


def test_offline_traces_validate(corpus):
    for idx in range(40):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        result = greedy(inst, oracle, QueryLedger())
        validate_trace(result.report.trace, offline=True)


def test_no_infeasible_queries(corpus):
    for idx in range(60):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        for algo in (greedy, greedy_or_max, greedy_plus_max):
            ledger = QueryLedger(enforce_feasible=True)
            algo(inst, oracle, ledger)  # InfeasibleQuery would raise here
            assert ledger.infeasible_query_count == 0


def test_partial_enum_depth_zero_equals_greedy(corpus):
    for idx in range(30):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        plain = greedy(inst, oracle, QueryLedger()).report
        enum0 = partial_enum_greedy(inst, oracle, 0, QueryLedger()).report
        assert enum0.solution.value == plain.solution.value


def test_partial_enum_value_nondecreasing_in_depth(corpus):
    for idx in range(20):
        inst, objective, opt = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        values = [partial_enum_greedy(inst, oracle, d, QueryLedger())
                  .report.solution.value for d in range(3)]
        assert values[1] >= values[0] - 1e-12
        assert values[2] >= values[1] - 1e-12
        assert values[2] <= opt.value + 1e-12


def test_partial_enum_rejects_bad_depth():
    inst, oracle = tight_oracle()
    with pytest.raises(ValueError):
        partial_enum_greedy(inst, oracle, -1)
    with pytest.raises(ValueError):
        partial_enum_greedy(inst, oracle, 4)
    # 1.5 passed the range check and raised TypeError from range
    with pytest.raises(ValueError, match="got 1.5"):
        partial_enum_greedy(inst, oracle, 1.5)


def test_partial_enum_budget_guard():
    inst, oracle = tight_oracle()
    ledger = QueryLedger(budget=3)
    with pytest.raises(BudgetExceeded):
        partial_enum_greedy(inst, oracle, 2, ledger)
    assert ledger.query_count == 3  # the refused query was never answered


def test_budget_exhaustion_propagates(corpus):
    inst, objective, _ = corpus(0)
    oracle = SubmodularOracle(inst, objective.value)
    with pytest.raises(BudgetExceeded):
        greedy(inst, oracle, QueryLedger(budget=2))


def test_reports_carry_metadata(corpus):
    inst, objective, _ = corpus(1)
    oracle = SubmodularOracle(inst, objective.value)
    report = greedy_plus_max(inst, oracle, QueryLedger()).report
    assert report.algorithm == "greedy_plus_max"
    assert report.queries > 0
    assert report.wall_time >= 0.0
    assert report.solution.cost == pytest.approx(
        inst.cost(report.solution.ids))


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10),
       st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_greedy_exact_on_unit_cost_modular(weights, k):
    inst = Instance([Element(i, 1.0) for i in range(len(weights))], float(k))
    oracle = SubmodularOracle(inst, ModularObjective(dict(enumerate(weights))).value)
    result = greedy(inst, oracle, QueryLedger())
    expect = sum(sorted(weights, reverse=True)[:min(len(weights), k)])
    assert result.report.solution.value == pytest.approx(expect)


def test_greedy_query_count_bounded(corpus):
    for idx in range(30):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        ledger = QueryLedger()
        greedy(inst, oracle, ledger)
        bound = 1 + inst.n * max(1, inst.k_tilde + 1)
        assert ledger.query_count <= bound


class PoisonedCoverage(CoverageObjective):
    """Coverage on a path graph that answers ``bad`` on every set holding 3."""

    def __init__(self, bad):
        super().__init__([[1], [0, 2], [1, 3], [2, 4], [3]])
        self.bad = bad

    def value(self, ids):
        return self.bad if 3 in ids else super().value(ids)

    def value_with(self, state, eid):
        return self.bad if eid == 3 else super().value_with(state, eid)

    def values_with(self, state, ids):
        out = super().values_with(state, ids)
        out[ids == 3] = self.bad
        return out


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path", ["batch", "callable"])
def test_greedy_rejects_nonfinite_values(bad, path):
    # max(0.0, nan) used to turn a NaN gain into density 0 without a word
    objective = PoisonedCoverage(bad)
    instance = Instance([Element(i, 1.0) for i in range(5)], 3.0)
    fn = objective if path == "batch" else (lambda ids: objective.value(ids))
    for solver in (greedy, greedy_plus_max):
        with pytest.raises(NonFiniteValue):
            solver(instance, SubmodularOracle(instance, fn))


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("path", ["protocol", "callable"])
@pytest.mark.parametrize("solver", ["greedy", "greedy_or_max", "greedy_plus_max",
                                    "partial_enum_greedy"])
def test_offline_solvers_reject_the_nan_probe(solver, path, bad):
    run = {"greedy": greedy, "greedy_or_max": greedy_or_max,
           "greedy_plus_max": greedy_plus_max,
           "partial_enum_greedy": lambda i, o: partial_enum_greedy(i, o, 1)}[solver]
    instance, oracle = nan_probe(bad, path)
    with pytest.raises(NonFiniteValue):
        run(instance, oracle)
