"""Streaming algorithms: stream plumbing, schedules, sieves, the estimator."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knapsub.streaming
from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    Instance,
    InvalidLambda,
    ModularObjective,
    MovieObjective,
    MpcConfig,
    NonFiniteValue,
    OptEstimate,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    brute_force_opt,
    coverage_costs,
    distributed_sieve_plus_max,
    estimate_lambda,
    greedy_plus_max,
    normalize,
    sieve,
    sieve_or_max,
    sieve_plus_max,
    threshold_levels,
)
from knapsub.bench.datasets import preferential_adjacency
from knapsub.streaming import (
    AUGMENT_CHUNK,
    MAX_LEVELS,
    _grid_indices,
    augment_pass,
    best_augmented,
    grid_size,
    threshold_pass,
)

from helpers import (
    NONFINITE,
    MovieNanProbe,
    NanProbe,
    movie_case,
    movie_vectors,
    nan_probe,
    recording,
    scalar_estimate_lambda,
    scalar_threshold_pass,
    tight_oracle,
)


def tight_stream(inst):
    return StreamSource.from_instance(inst)


# ---------------------------------------------------------------- streams


def test_stream_replays_in_order():
    s = StreamSource([3, 1, 2])
    first = list(s.scan())
    second = list(s.scan())
    assert first == [3, 1, 2]
    assert first == second
    assert s.pass_count == 2


# -------------------------------------------------------------- schedules


def test_threshold_levels_hand_example():
    levels = threshold_levels(1.0, 1.0, 0.5, 2.0)
    assert levels[0] == 0.5
    assert levels[1] == pytest.approx(1 / 3)
    assert len(levels) == 2  # the next grid point 2/9 sits below 1/4


def test_threshold_levels_rejects_bad_parameters():
    with pytest.raises(InvalidLambda):
        threshold_levels(0.0, 1.0, 0.5, 2.0)
    with pytest.raises(InvalidLambda):
        threshold_levels(-1.0, 1.0, 0.5, 2.0)
    for lam in (math.nan, math.inf, 1e308):  # 6e308 / k overflows
        with pytest.raises(InvalidLambda):
            threshold_levels(lam, 1 / 6, 0.1, 2.0)
    assert len(threshold_levels(1e307, 1 / 6, 0.1, 2.0)) == 27  # 2/alpha = 12
    with pytest.raises(ValueError):
        threshold_levels(1.0, 0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        threshold_levels(1.0, 1.5, 0.5, 2.0)
    with pytest.raises(ValueError):
        threshold_levels(1.0, 1.0, 0.0, 2.0)
    # NaN read "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="epsilon must be positive, got nan"):
        threshold_levels(1.0, 1.0, math.nan, 2.0)


@pytest.mark.parametrize("lam, eps", [(5e-324, 0.1), (1e-320, 1e-5)])
def test_threshold_levels_rejects_a_subnormal_floor(lam, eps):
    # 5e-324 / 1.1 == 5e-324 and 1e-320 / (1 + 1e-5) == 1e-320: tau stops
    # shrinking above the floor, and the grid would grow without end
    assert lam / (1 + eps) == lam
    with pytest.raises(InvalidLambda, match="normal float"):
        threshold_levels(lam, 1.0, eps, 1.0)


def test_threshold_levels_accepts_the_smallest_normal_floor():
    lam = 2 * sys.float_info.min  # the floor lam/(2k) is exactly the bound
    levels = threshold_levels(lam, 1.0, 0.1, 1.0)
    assert len(levels) == 8  # log(2)/log(1.1) = 7.3
    assert levels[0] == lam and levels[-1] > lam / 2 >= levels[-1] / 1.1
    # a floor just below the normal range still has floats fine enough
    # for steps of 1.1, so its grid is built as well
    assert len(threshold_levels(lam, 1.0, 0.1, 1.0 + 2**-52)) == 8


@pytest.mark.parametrize("value, n, k", [
    (2e-308, 4, 4.0),  # OPT 8e-308 is normal, the floor lam/(2k) is not
    (1e-320, 2, 10.0), (1e-310, 2, 10.0), (1e-300, 2, 10.0),
])
def test_the_sieves_accept_the_estimators_lambda_at_subnormal_scale(value, n, k):
    # every sieve and Distributed+Max used to refuse a subnormal floor,
    # and with it the estimator's own lam on these instances
    inst = Instance([Element(i, 1.0) for i in range(n)], k)
    oracle = SubmodularOracle(inst, ModularObjective(dict.fromkeys(range(n), value)))
    opt = brute_force_opt(inst, oracle).value
    est = estimate_lambda(tight_stream(inst), k, oracle)
    assert (1 / 3 - 1 / 6) * opt <= est.lam <= opt
    reports = [solver(tight_stream(inst), k, oracle, est.lam, est.alpha, 0.1)
               for solver in (sieve, sieve_or_max, sieve_plus_max)]
    reports += [distributed_sieve_plus_max(
        inst, oracle, est.lam, est.alpha, 0.1,
        MpcConfig(machines, 10.0 * n)).report for machines in (1, 2)]
    values = [report.solution.value for report in reports]
    assert all(inst.fits(report.solution.ids) for report in reports)
    assert values[0] <= values[1] <= values[2]
    assert min(values[2:]) >= (0.5 - 0.1) * opt


@given(st.floats(0.1, 50.0), st.floats(0.05, 1.0),
       st.floats(0.05, 2.0), st.floats(1.0, 40.0))
@settings(max_examples=200, deadline=None)
def test_threshold_levels_grid_properties(lam, alpha, eps, k):
    levels = threshold_levels(lam, alpha, eps, k)
    top, floor = lam / (alpha * k), lam / (2 * k)
    assert levels[0] == top
    assert all(levels[i] / levels[i + 1] == pytest.approx(1 + eps)
               for i in range(len(levels) - 1))
    assert all(t > floor for t in levels)
    assert levels[-1] / (1 + eps) <= floor
    bound = math.ceil(math.log(max(1.0, 2 / alpha)) / math.log(1 + eps)) + 1
    assert len(levels) <= bound


# ----------------------------------------------------------------- sieves


def test_sieve_tight_example():
    inst, oracle = tight_oracle()
    report = sieve(tight_stream(inst), inst.capacity, oracle, 1.0, 1.0, 0.5)
    assert report.solution.ids == frozenset({3})
    assert report.solution.value == 0.6
    assert report.passes == 2


def test_sieve_or_max_tight_example():
    inst, oracle = tight_oracle()
    report = sieve_or_max(tight_stream(inst), inst.capacity, oracle,
                          1.0, 1.0, 0.5)
    assert report.solution.value == 0.6


def test_sieve_plus_max_tight_example():
    inst, oracle = tight_oracle()
    report = sieve_plus_max(tight_stream(inst), inst.capacity, oracle,
                            1.0, 1.0, 0.5)
    assert report.solution.ids == frozenset({3})
    assert report.solution.value == 0.6
    assert report.passes == 3  # two executed thresholds plus augmentation


def test_first_pass_collects_only_the_spoiler():
    # replay the worked trace: at tau = 0.5 both halves miss the strict
    # threshold and the 0.6/1.1 item gets in, after which nothing fits
    inst, oracle = tight_oracle()
    report = sieve(tight_stream(inst), inst.capacity, oracle, 1.0, 1.0, 0.5)
    steps = report.trace.steps
    assert steps[0].cum_cost == 0.0
    assert steps[0].next_density == pytest.approx(0.6 / 1.1)
    assert steps[-1].cum_cost == pytest.approx(1.1)


def test_density_equal_to_threshold_waits_one_level():
    inst = Instance([Element(0, 1.0)], 2.0)
    oracle = SubmodularOracle(inst, ModularObjective({0: 0.5}).value)
    stream = StreamSource.from_instance(inst)
    report = sieve(stream, 2.0, oracle, 1.0, 1.0, 0.5)
    # density 0.5 does not strictly clear tau = 0.5; 1/3 admits it
    assert report.solution.ids == frozenset({0})
    assert report.passes == 2


def test_single_element_stream_two_passes():
    inst = Instance([Element(0, 1.0)], 2.0)
    oracle = SubmodularOracle(inst, ModularObjective({0: 2.0}).value)
    stream = StreamSource.from_instance(inst)
    report = sieve_plus_max(stream, 2.0, oracle, 2.0, 1.0, 0.5)
    assert report.solution.ids == frozenset({0})
    assert report.solution.value == 2.0
    # the collect pass leaves no rejected density, so every lower level is
    # certified idle and only the augmentation pass follows
    assert report.passes == 2


def test_every_level_under_the_density_cap_is_skipped():
    # the cap 0.1 lies below both levels, 10/3 and 20/9: no threshold pass
    # runs, sieve_or_max spends one pass on the singletons alone, and
    # sieve_plus_max augments the empty prefix in its one pass
    inst = Instance([Element(i, 1.0 + i / 10) for i in range(5)], 3.0)
    oracle = SubmodularOracle(
        inst, ModularObjective({i: (i + 1) / 10 for i in range(5)}).value)
    assert threshold_levels(10.0, 1.0, 0.5, 3.0) == [10 / 3, 10 / 3 / 1.5]
    # sieve_plus_max asks f(empty) once: its greedy reorder starts from
    # the stage's empty set, so both spend 6 queries
    for solver, queries in ((sieve_or_max, 6), (sieve_plus_max, 6)):
        report = solver(StreamSource.from_instance(inst), 3.0, oracle, 10.0,
                        1.0, 0.5, density_cap=0.1)
        assert report.solution.ids == frozenset({4})
        assert report.solution.value == 0.5
        assert report.queries == queries
        assert report.passes == 1


def test_empty_stream_returns_base_value():
    inst = Instance([], 2.0, base_set={5})
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    report = sieve_plus_max(StreamSource([]), 2.0, oracle, 1.0, 1.0, 0.5)
    assert report.solution.ids == frozenset()
    assert report.solution.value == 1.0


def test_base_ids_in_the_stream_are_skipped_without_a_query():
    # a base id costs 0, and the estimator and the threshold filter both
    # divided its gain by that cost
    inst = Instance([Element(i, 1.0) for i in range(4)], 2.0, base_set={9})
    oracle = SubmodularOracle(
        inst, ModularObjective({0: 0.5, 1: 0.25, 2: 0.125, 3: 1.0, 9: 2.0}).value)

    def run(ids):
        stream, ledger = StreamSource(ids), QueryLedger()
        est = estimate_lambda(stream, 2.0, oracle, ledger=ledger)
        runs = [(est, ledger.query_count, stream.pass_count)]
        for solver in (sieve, sieve_or_max, sieve_plus_max):
            report = solver(StreamSource(ids), 2.0, oracle, est.lam, est.alpha,
                            0.5)
            runs.append((report.solution, report.queries, report.passes))
        return runs

    assert run([0, 9, 1]) == run([0, 1])


def test_an_unknown_stream_id_raises_before_a_query_on_it():
    # id 7 has no cost: without a check the solvers met it inside
    # Instance.cost_of or the units by id as a bare KeyError: 7
    inst = Instance([Element(i, 1.0) for i in range(4)], 2.0)
    queried = []

    def value(ids):
        queried.append(ids)
        return float(len(ids))

    oracle = SubmodularOracle(inst, value)
    runs = [lambda stream: estimate_lambda(stream, 2.0, oracle)]
    runs += [lambda stream, solver=solver: solver(stream, 2.0, oracle, 1.0,
                                                  0.5, 0.5)
             for solver in (sieve, sieve_or_max, sieve_plus_max)]
    for run in runs:
        with pytest.raises(KeyError, match="stream id 7 is not in the instance"):
            run(StreamSource([0, 7, 1]))
    assert queried and not any(7 in ids for ids in queried)
    # a cap under every level skips them all, so augment_pass meets id 7
    # first, in its one pass over the raw stream, before asking id 0
    queried.clear()
    stream = StreamSource([0, 7, 1])
    with pytest.raises(KeyError, match="stream id 7 is not in the instance"):
        sieve_plus_max(stream, 2.0, oracle, 1.0, 0.5, 0.5, density_cap=0.0)
    assert queried == [frozenset()]  # f(empty) in _collect, G_0 of greedy_order
    assert stream.pass_count == 1


def test_sieve_or_max_returns_lone_big_singleton(corpus):
    # corpus instance 62 again: the collected set at lam = OPT stays weak
    # while one singleton covers 2/3
    inst, objective, opt = corpus(62)
    oracle = SubmodularOracle(inst, objective.value)
    plain = sieve(StreamSource.from_instance(inst), inst.capacity, oracle,
                  opt.value, 1.0, 0.1)
    better = sieve_or_max(StreamSource.from_instance(inst), inst.capacity,
                          oracle, opt.value, 1.0, 0.1)
    assert better.solution.value >= max(plain.solution.value, 2 / 3) - 1e-12


def test_dominance_chain(corpus):
    for idx in range(80):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        values = {}
        for algo in (sieve, sieve_or_max, sieve_plus_max):
            report = algo(StreamSource.from_instance(inst), inst.capacity,
                          oracle, opt.value, 1.0, 0.1, QueryLedger())
            values[algo.__name__] = report.solution.value
        assert values["sieve_or_max"] >= values["sieve"] - 1e-12
        assert values["sieve_plus_max"] >= values["sieve_or_max"] - 1e-12


def test_sieve_plus_max_half_minus_eps_at_exact_lambda(corpus):
    for idx in range(120):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        report = sieve_plus_max(StreamSource.from_instance(inst),
                                inst.capacity, oracle, opt.value, 1.0, 0.1,
                                QueryLedger())
        assert report.solution.value >= (0.5 - 0.1) * opt.value - 1e-9


def test_density_cap_skipping_preserves_output(corpus):
    for idx in range(60):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        cap = max((oracle.evaluate({e.id}, QueryLedger()) / e.cost
                   for e in inst.elements if inst.fits({e.id})),
                  default=0.0)
        bare = sieve_plus_max(StreamSource.from_instance(inst), inst.capacity,
                              oracle, opt.value, 1.0, 0.2, QueryLedger())
        capped = sieve_plus_max(StreamSource.from_instance(inst), inst.capacity,
                                oracle, opt.value, 1.0, 0.2, QueryLedger(),
                                density_cap=cap)
        assert capped.solution.value == bare.solution.value
        assert capped.solution.ids == bare.solution.ids
        assert capped.passes <= bare.passes


def test_collected_set_stays_feasible(corpus):
    for idx in range(60):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        report = sieve(StreamSource.from_instance(inst), inst.capacity, oracle,
                       opt.value, 1.0, 0.1)
        assert inst.cost(report.solution.ids) <= inst.capacity + 1e-9
        assert len(report.solution.ids) <= max(1, inst.k_tilde)


def test_streaming_trace_inequality(corpus):
    checked = 0
    for idx in range(100):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0 or not opt.ids:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        eps = 0.1
        report = sieve_plus_max(StreamSource.from_instance(inst),
                                inst.capacity, oracle, opt.value, 1.0, eps,
                                QueryLedger())
        c_opt = inst.cost(opt.ids)
        c_o1 = max(inst.cost_of(i) for i in opt.ids)
        for s in report.trace.steps:
            x = s.cum_cost / c_opt
            if x <= 1 - c_o1 / c_opt:
                checked += 1
                assert s.value / opt.value >= 1 - math.exp(-x / (1 + eps)) - 1e-9
    assert checked > 50


def test_k_must_equal_instance_capacity():
    # feasibility comes from oracle.instance alone; a second budget would
    # only move the threshold grid away from the capacity it is meant for
    inst, oracle = tight_oracle()
    for fn in (sieve, sieve_or_max, sieve_plus_max):
        with pytest.raises(ValueError, match="capacity"):
            fn(tight_stream(inst), inst.capacity + 0.5, oracle, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="capacity"):
        estimate_lambda(tight_stream(inst), inst.capacity - 0.5, oracle)


def test_invalid_lambda_propagates():
    # a NaN lam used to make an empty grid, and 1e308 / (k / 6) overflows
    # to inf, which a grid shrinking by 1 + epsilon never leaves
    inst, oracle = tight_oracle()
    for lam in (0.0, math.nan, math.inf, 1e308):
        ledger = QueryLedger()
        with pytest.raises(InvalidLambda):
            sieve_plus_max(tight_stream(inst), inst.capacity, oracle, lam,
                           1 / 6, 0.5, ledger)
        assert ledger.query_count == 0


def test_an_estimate_past_the_float_range_raises_a_value_error():
    # twice 1e308 overflows the window's floor: a ValueError names the
    # value, where a bare OverflowError used to come from its logarithm
    inst = Instance([Element(0, 1.0), Element(1, 1.0)], 2.0)

    def run(top):
        oracle = SubmodularOracle(inst, ModularObjective({0: top, 1: 1.0}))
        return estimate_lambda(tight_stream(inst), 2.0, oracle)

    with pytest.raises(ValueError, match=r"1e\+308"):
        run(1e308)
    # up to the largest float, 2*delta overflows before any base ** i
    for top in (1.7e308, sys.float_info.max):
        with pytest.raises(ValueError, match="too large for the grid"):
            run(top)
    assert run(1e307).lam == 1e307


def test_an_estimate_whose_floor_underflows_raises_a_value_error():
    # 2 * 5e-324 / 30 underflows the window's floor to 0: a ValueError
    # names the value, where its logarithm used to raise a bare
    # "math domain error"; subnormal values whose floor stays positive
    # keep their estimate
    inst = Instance([Element(0, 1.0), Element(1, 1.0)], 10.0)

    def run(value):
        oracle = SubmodularOracle(inst, ModularObjective({0: value, 1: value}))
        return estimate_lambda(tight_stream(inst), 10.0, oracle)

    with pytest.raises(ValueError, match="5e-324"):
        run(5e-324)
    for value, peak in ((1e-320, 38), (1e-310, 38), (1e-300, 36)):
        assert run(value) == OptEstimate(2 * value, 1 / 3 - 1 / 6, value, peak)


# ----------------------------------------------------------- augmentation


def augment_fixture():
    """Prefixes G_0..G_3 of the unit items 0, 1, 2 (weights 1, 0, 0, so
    G_1..G_3 tie at 1.0) under K=4, outside them items 3 and 4 (cost 2,
    weight 0.5) and item 5 (cost 3, weight 0)."""
    weights = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.5, 4: 0.5, 5: 0.0}
    costs = {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 2.0, 5: 3.0}
    inst = Instance([Element(i, c) for i, c in costs.items()], 4.0)
    oracle = SubmodularOracle(inst, ModularObjective(weights).value)
    prefixes = [oracle.working_set((), 0.0)]
    for eid in (0, 1, 2):
        prefixes.append(oracle.add(prefixes[-1], eid,
                                   prefixes[-1].value + weights[eid]))
    return oracle, prefixes


def test_best_bare_prefix_is_the_shortest_best():
    _, prefixes = augment_fixture()
    assert best_augmented(prefixes, []) == (frozenset({0}), 1.0)


def test_an_extension_equal_to_the_best_prefix_does_not_replace_it():
    oracle, prefixes = augment_fixture()
    # item 5 fits only G_0 and G_1, and adds nothing to G_1
    extensions = augment_pass(oracle, [5], prefixes, QueryLedger())
    assert extensions == [(1.0, 1, 5)]
    assert best_augmented(prefixes, extensions) == (frozenset({0}), 1.0)


def test_first_of_two_equal_better_extensions_wins():
    oracle, prefixes = augment_fixture()
    ledger = QueryLedger()
    # members are skipped without a query; 3 and 4 tie on G_2
    extensions = augment_pass(oracle, [0, 3, 4, 2], prefixes, ledger)
    assert extensions == [(1.5, 2, 3)]
    assert ledger.query_count == 2
    assert best_augmented(prefixes, extensions) == (frozenset({0, 1, 3}), 1.5)
    # across machines, the first extension listed wins
    ids, _ = best_augmented(prefixes, [(1.5, 2, 4), (1.5, 2, 3)])
    assert ids == frozenset({0, 1, 4})
    assert augment_pass(oracle, [0, 1, 2], prefixes, ledger) == []


def test_both_kernels_skip_base_ids_and_augment_pass_stops_at_an_unknown_id():
    weights = {0: 1.0, 1: 0.5, 7: 2.0}
    inst = Instance([Element(0, 1.0), Element(1, 1.0)], 2.0, base_set={7})
    oracle = SubmodularOracle(inst, ModularObjective(weights))
    prefixes = [oracle.working_set((), 2.0)]
    ledger = QueryLedger()
    # a base id is in every set already, so neither kernel asks it
    assert augment_pass(oracle, [7, 1, 7], prefixes, ledger) == [(2.5, 0, 1)]
    assert ledger.query_count == 1
    for count, kernel in ((2, threshold_pass), (3, scalar_threshold_pass)):
        _, accepted, _ = kernel(oracle, [7, 1, 7], 0.1, prefixes[0], ledger)
        assert accepted == [(1, 0.5)] and ledger.query_count == count
    # an id the instance does not hold stops its chunk before any query
    with pytest.raises(KeyError, match="99"):
        augment_pass(oracle, [0, 99], prefixes, ledger)
    assert ledger.query_count == 3


def test_an_item_that_exactly_fills_the_capacity_goes_on_the_deepest_fit():
    oracle, prefixes = augment_fixture()
    # G_2 costs 2, so item 3 (cost 2) fills K=4 exactly there; G_3 costs 3
    [(value, j, eid)] = augment_pass(oracle, [3], prefixes, QueryLedger())
    assert (value, j, eid) == (1.5, 2, 3)
    assert oracle.instance.room(prefixes[j].ids | {eid}) == 0


# -------------------------------------------------------------- estimator


def test_estimator_single_element_exact():
    inst = Instance([Element(0, 1.0)], 2.0)
    oracle = SubmodularOracle(inst, ModularObjective({0: 2.0}).value)
    stream = StreamSource.from_instance(inst)
    est = estimate_lambda(stream, 2.0, oracle)
    assert est.lam == 2.0
    assert est.alpha == pytest.approx(1 / 3 - 1 / 6)
    assert stream.pass_count == 1


def test_estimator_tight_example_hits_opt():
    inst, oracle = tight_oracle()
    est = estimate_lambda(tight_stream(inst), inst.capacity, oracle)
    assert est.lam == 1.0
    assert est.alpha == pytest.approx(1 / 6)
    assert est.max_singleton_density == pytest.approx(0.6 / 1.1)


def test_estimator_bounds_on_corpus(corpus):
    for idx in range(120):
        inst, objective, opt = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        stream = StreamSource.from_instance(inst)
        est = estimate_lambda(stream, inst.capacity, oracle)
        assert stream.pass_count == 1
        assert est.lam <= opt.value + 1e-9
        assert est.lam >= est.alpha * opt.value - 1e-9


def test_estimator_space_cap(corpus):
    for idx in range(80):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        est = estimate_lambda(StreamSource.from_instance(inst), inst.capacity,
                              oracle, 1 / 6)
        cap = math.ceil(3 * max(1, inst.k_tilde) / (1 / 6))
        assert est.peak_retained <= cap


def test_estimator_rejects_bad_epsilon():
    inst, oracle = tight_oracle()
    with pytest.raises(ValueError):
        estimate_lambda(tight_stream(inst), inst.capacity, oracle, 0.0)
    with pytest.raises(ValueError):
        estimate_lambda(tight_stream(inst), inst.capacity, oracle, 1 / 3)
    with pytest.raises(ValueError, match="epsilon_est must lie in .*got nan"):
        estimate_lambda(tight_stream(inst), inst.capacity, oracle, math.nan)


def test_estimator_rejects_an_epsilon_that_vanishes_beside_one():
    # 1 + 1e-20 == 1.0: log(base) was 0 and the window's indices divided
    # by it, a bare ZeroDivisionError after the first query
    inst = Instance([Element(0, 0.25), Element(1, 0.25)], 0.5)
    oracle = SubmodularOracle(inst, ModularObjective({0: 1.0, 1: 2.0}))
    ledger = QueryLedger()
    with pytest.raises(ValueError, match="epsilon_est .*got 1e-20"):
        estimate_lambda(StreamSource([0, 1]), inst.capacity, oracle, 1e-20,
                        ledger)
    assert ledger.query_count == 0


def test_estimator_seeds_working_pipeline(corpus):
    # end to end: estimator lambda feeding the sieve keeps the guarantee
    for idx in range(80):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        stream = StreamSource.from_instance(inst)
        ledger = QueryLedger()
        est = estimate_lambda(stream, inst.capacity, oracle, 1 / 6, ledger)
        report = sieve_plus_max(stream, inst.capacity, oracle, est.lam,
                                est.alpha, 0.1, ledger,
                                density_cap=est.max_singleton_density)
        assert report.solution.value >= (0.5 - 0.1) * opt.value - 1e-9
        assert stream.pass_count <= 14


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("path", ["protocol", "callable"])
@pytest.mark.parametrize("solver", ["estimate_lambda", "sieve", "sieve_or_max",
                                    "sieve_plus_max"])
def test_streaming_solvers_reject_the_nan_probe(solver, path, bad):
    # max(0.0, nan) is 0.0 in the threshold filter, and nan >= tau is False
    # in the estimator: these solvers used to answer 3 items without a word
    instance, oracle = nan_probe(bad, path)
    stream = StreamSource.from_instance(instance)
    with pytest.raises(NonFiniteValue):
        if solver == "estimate_lambda":
            estimate_lambda(stream, 3.0, oracle)
        else:
            run = {"sieve": sieve, "sieve_or_max": sieve_or_max,
                   "sieve_plus_max": sieve_plus_max}[solver]
            run(stream, 3.0, oracle, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("bad", NONFINITE)
def test_the_estimator_batch_rejects_the_movie_nan_probe(bad):
    # id 0's rows are all empty, so they take f({0}) and ask nothing more;
    # id 1 then asks every set id 0 started, and the bad value first shows
    # on id 2's first grid query; both paths ask the same queries in the
    # same order and stop at the same count
    # the window's floor max(2 lb, 2 delta) / 9 is 2/9 when id 1 arrives
    width = len(_grid_indices(2 / 9 / (7 / 6), 1.0, math.log(7 / 6)))
    assert width == 11
    for path in ("protocol", "callable"):
        instance, oracle = nan_probe(bad, path, kind="movie")
        ledger = QueryLedger()
        with pytest.raises(NonFiniteValue, match=r"on \[0, 1, 2\]") as info:
            estimate_lambda(StreamSource.from_instance(instance), 3.0, oracle,
                            ledger=ledger)
        # the scalar query that asks it, or the batch computed ahead that
        # holds it, settled once the value is read
        frame = "charge_ahead" if path == "protocol" else "value_with"
        assert frame in [entry.name for entry in info.traceback]
        # three singletons, id 1 on its whole window, and id 2's first grid
        # query
        assert ledger.query_count == 3 + width + 1 == 15


# unit costs: a late, much larger singleton moves the window past every
# non-empty set at once, and many equal items let LB, not delta, lift the
# floor; each pinned as its hex estimate and its queries
MODULAR_EDGES = [
    ({0: 1.0, 1: 1.0, 2: 1e6}, 3.0,
     (("0x1.e848000000000p+19", "0x1.5555555555555p-3",
       "0x1.e848000000000p+19", 22), 14)),
    (dict.fromkeys(range(30), 1.0), 10.0,
     (("0x1.4000000000000p+3", "0x1.5555555555555p-3",
       "0x1.0000000000000p+0", 54), 119))]


def estimator_cases(corpus):
    """The estimator's reference cases as ``(instance, objective)``: the
    first 60 corpus instances, the two unit-cost modular edge cases of
    :data:`MODULAR_EDGES` and three movie cases, one with a base set."""
    cases = [corpus(idx)[:2] for idx in range(60)]
    cases += [(Instance([Element(i, 1.0) for i in weights], k),
               ModularObjective(weights)) for weights, k, _ in MODULAR_EDGES]
    return cases + [movie_case(3, 120, 8.0), movie_case(5, 300, 30.0),
                    movie_case(2, 60, 5.0, base=4)]


def test_the_objective_is_asked_every_query_the_estimator_counts(corpus):
    # an empty grid set's query is f({e}), just asked as the singleton: it
    # is answered from that value and not counted again, so a wrapper on
    # the objective sees every query the ledger counts
    for instance, objective in estimator_cases(corpus):
        asked = []

        def counted(ids):
            asked.append(ids - instance.base_set)
            return objective.value(ids)

        ledger = QueryLedger()
        est = estimate_lambda(StreamSource.from_instance(instance),
                              instance.capacity,
                              SubmodularOracle(instance, counted), ledger=ledger)
        assert len(asked) == ledger.query_count
        singles = sorted(min(ids) for ids in asked if len(ids) == 1)
        assert singles == sorted(instance.element_ids())  # once per element
        # the protocol path makes the same queries to the same estimate
        protocol_ledger = QueryLedger()
        assert estimate_lambda(StreamSource.from_instance(instance),
                               instance.capacity,
                               SubmodularOracle(instance, objective),
                               ledger=protocol_ledger) == est
        assert protocol_ledger.query_count == ledger.query_count


def logged_estimate(estimator, instance, objective, path, budget=None,
                    ids=None):
    """``estimator`` on ``instance`` as ``(estimate, queries)`` with every
    float as hex, or ``(error type, queries)``, its log and its
    speculative tally.  The log holds each ledger admission's count and,
    on the callable path, each set the objective is asked, in order.
    ``ids``, when given, is the stream."""
    log = []

    def asked(ids):
        log.append(sorted(ids))
        return objective.value(ids)

    class Logged(QueryLedger):
        def _admit(self, count=1, infeasible=False, speculative=0):
            log.append(count)
            super()._admit(count, infeasible, speculative)

    ledger = Logged(budget=budget)
    fn = objective if path == "protocol" else asked
    stream = (StreamSource.from_instance(instance) if ids is None
              else StreamSource(ids))
    try:
        est = estimator(stream, instance.capacity, SubmodularOracle(instance, fn),
                        ledger=ledger)
    except (BudgetExceeded, NonFiniteValue, KeyError) as exc:
        return ((type(exc).__name__, ledger.query_count), log,
                ledger.speculative_evaluations)
    return (((est.lam.hex(), est.alpha.hex(), est.max_singleton_density.hex(),
              est.peak_retained), ledger.query_count), log,
            ledger.speculative_evaluations)


def assert_matches_the_reference(instance, objective, path, budget=None,
                                 ids=None):
    """The estimator's estimate or error and its query count are the
    reference's; on the callable path so are its admissions and the sets
    asked, one query each, and nothing is computed ahead.  On the protocol
    path each admission is one settled batch.  Returns the result."""
    run, log, spent = logged_estimate(estimate_lambda, instance, objective,
                                      path, budget, ids)
    ref, ref_log, _ = logged_estimate(scalar_estimate_lambda, instance,
                                      objective, path, budget, ids)
    assert run == ref
    if path == "callable":
        assert (log, spent) == (ref_log, 0)
        # no admission goes unanswered: the objective is asked each one
        assert all(a == 1 and type(b) is list
                   for a, b in zip(log[::2], log[1::2]))
    elif budget is None:
        assert sum(log) == run[1]
    return run


def repeated_streams(instance):
    """Streams with repeated ids and base ids: every id twice in a row, the
    whole stream twice, and the base ids spread through it."""
    ids = instance.element_ids()
    streams = [[x for eid in ids for x in (eid, eid)], ids + ids[::-1]]
    if instance.base_set:
        base = sorted(instance.base_set) * len(ids)
        streams.append([x for pair in zip(base, ids) for x in pair])
    return streams


@pytest.mark.parametrize("path", ["protocol", "callable"])
def test_the_estimator_matches_the_per_row_reference(corpus, path):
    # every grid set asks its queries ahead in one batch: the estimate,
    # the queries and, one query at a time, their order are the
    # reference's, bit for bit
    cases = estimator_cases(corpus)
    for instance, objective in cases:
        assert_matches_the_reference(instance, objective, path)
    for (instance, objective), (*_, pinned) in zip(cases[60:], MODULAR_EDGES):
        assert logged_estimate(estimate_lambda, instance, objective,
                               path)[0] == pinned


@pytest.mark.parametrize("path", ["protocol", "callable"])
def test_the_estimator_matches_the_reference_on_repeated_and_base_ids(
        corpus, path):
    # a repeated id is asked again of the sets that do not hold it; a
    # base id is skipped with no query
    cases = estimator_cases(corpus)
    for instance, objective in cases[:8] + cases[-5:]:
        for ids in repeated_streams(instance):
            assert_matches_the_reference(instance, objective, path, ids=ids)


# two small movie cases, each with its estimator's queries and then
# Sieve+Max's: at K = 3 no grid set has room for a later movie, so the
# estimator asks only the 22 singletons; at K = 5 it asks 35 singletons
# and 23 grid queries on non-empty sets
BUDGET_CASES = [((2, 40, 3.0), 22, 24), ((2, 40, 5.0), 58, 64)]


def test_budget_stops_the_estimator_where_the_reference_stops():
    for args, pinned, _ in BUDGET_CASES:
        instance, objective = movie_case(*args)
        full = assert_matches_the_reference(instance, objective, "protocol")
        total = full[1]
        assert total == pinned
        for budget in range(total + 2):
            run = assert_matches_the_reference(instance, objective, "protocol",
                                               budget)
            assert run == (("BudgetExceeded", budget) if budget < total
                           else full)


@pytest.mark.parametrize("path", ["protocol", "callable"])
def test_every_budget_stops_the_estimator_at_the_reference_count(corpus, path):
    # every budget from 0 past the total, on every fifth corpus case, the
    # other reference cases and streams with repeated and base ids; a run
    # of more than 300 queries
    # (the 300-movie case, 2,071) is swept at a stride of 97 and at its
    # last three budgets
    cases = estimator_cases(corpus)
    runs = [(instance, objective, None)
            for instance, objective in cases[:60:5] + cases[60:]]
    runs += [(instance, objective, ids) for instance, objective
             in (cases[0], cases[-1]) for ids in repeated_streams(instance)]
    for instance, objective, ids in runs:
        full = assert_matches_the_reference(instance, objective, path, ids=ids)
        total = full[1]
        budgets = range(total + 2)
        if total > 300:
            budgets = sorted({*budgets[::97], total - 1, total, total + 1})
        for budget in budgets:
            run, _, _ = logged_estimate(estimate_lambda, instance, objective,
                                        path, budget, ids)
            assert run == (("BudgetExceeded", budget) if budget < total
                           else full)


@pytest.mark.parametrize("path", ["protocol", "callable"])
@pytest.mark.parametrize("at", [0, 1, 7, 40])
def test_an_unknown_id_stops_the_estimator_after_the_ids_before_it(path, at):
    # the ids before it run, with every query they ask counted; it is
    # never asked, and the stream is read no further
    instance, objective = movie_case(3, 120, 8.0)
    ids = instance.element_ids()
    ids = ids[:at] + [999] + ids[at:]
    run = assert_matches_the_reference(instance, objective, path, ids=ids)
    prefix = logged_estimate(estimate_lambda, instance, objective, path,
                             ids=ids[:at])[0]
    assert run == ("KeyError", prefix[1])
    read = []

    class Recorded(StreamSource):
        def scan(self):
            for eid in super().scan():
                read.append(eid)
                yield eid

    oracle = SubmodularOracle(instance, objective)
    with pytest.raises(KeyError, match="999"):
        estimate_lambda(Recorded(ids), 8.0, oracle)
    assert read == ids[:at + 1]


def test_an_unknown_id_past_a_full_block_stops_the_estimator_there():
    # 4,096 ids fill the first block; the unknown id ends the second
    n = AUGMENT_CHUNK + 50
    instance = Instance([Element(i, 1.0) for i in range(n)], 3.0)
    objective = CoverageObjective([[] for _ in range(n)])
    for cut in (AUGMENT_CHUNK, AUGMENT_CHUNK + 1):
        ids = list(range(cut)) + [-1] + list(range(cut, n))
        for path in ("protocol", "callable"):
            run = assert_matches_the_reference(instance, objective, path,
                                               ids=ids)
            assert run[0] == "KeyError" and run[1] >= cut


@pytest.mark.parametrize("bad", NONFINITE)
def test_a_nonfinite_value_computed_ahead_and_never_read_never_raises(bad):
    # every grid set is {0} when id 1 arrives, and its batch computes ids 1
    # and 2 ahead; f({0, 2}) is bad, but each set takes id 1, after which
    # id 2 (2 units) no longer fits, so the bad value is never read
    objective = MovieNanProbe(bad)
    instance = Instance([Element(0, 1.0), Element(1, 1.0), Element(2, 2.0)],
                        3.0)
    runs = {path: logged_estimate(estimate_lambda, instance, objective, path)
            for path in ("protocol", "callable")}
    assert runs["protocol"][0] == runs["callable"][0]
    assert runs["protocol"][0][0][0] == (2.0).hex()  # f({0, 1})
    assert runs["callable"][2] == 0 < runs["protocol"][2]
    assert_matches_the_reference(instance, objective, "callable")


@pytest.mark.parametrize("bad", NONFINITE)
def test_a_nonfinite_movie_vector_stops_the_movie_pipeline(bad):
    # costs come from the clean vectors; movie x then gets one bad rating
    # and is no target, so only f(S + x) goes bad
    clean, objective = movie_case(2, 40, 3.0)
    x = clean.elements[5].id
    vectors = movie_vectors(2, 40)
    vectors[x, np.flatnonzero(vectors[x])[0]] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 in the table is NaN
        poisoned = MovieObjective(vectors, [t for t in range(40) if t != x])
    oracle = SubmodularOracle(clean, poisoned)
    assert not math.isfinite(poisoned.value_with(None, x))

    # the estimator's singleton batch meets row x first, and raises once
    # the value is read and counted: f({x}) is the sixth query
    ledger = QueryLedger()
    with pytest.raises(NonFiniteValue) as info:
        estimate_lambda(StreamSource.from_instance(clean), 3.0, oracle,
                        ledger=ledger)
    assert info.traceback[-1].name == "charge_ahead"
    assert ledger.query_count == 6
    # with every level skipped, the first query on x is in the augmentation
    # pass's batch on the empty prefix, counted whole
    ledger = QueryLedger()
    with pytest.raises(NonFiniteValue) as info:
        sieve_plus_max(StreamSource.from_instance(clean), 3.0, oracle, 1.0,
                       0.5, 0.5, ledger, density_cap=0.0)
    assert info.traceback[-1].name == "values_with"
    assert ledger.query_count == 1 + clean.n  # f(empty) once, then the batch
    # the greedy sweep's first step is one batch too
    ledger = QueryLedger()
    with pytest.raises(NonFiniteValue) as info:
        greedy_plus_max(clean, oracle, ledger)
    assert info.traceback[-1].name == "values_with"
    assert ledger.query_count == 1 + clean.n


def movie_pipeline(instance, oracle, ledger):
    """The estimator, then Sieve+Max under its density cap, on one ledger."""
    stream = StreamSource.from_instance(instance)
    est = estimate_lambda(stream, instance.capacity, oracle, ledger=ledger)
    report = sieve_plus_max(stream, instance.capacity, oracle, est.lam,
                            est.alpha, 0.1, ledger,
                            density_cap=est.max_singleton_density)
    return est, report


def test_budget_stops_the_movie_pipeline_at_its_count():
    # the budgets run through the estimator's singleton and grid queries,
    # the threshold passes, the greedy reorder and the augmentation pass
    for args, estimated, sieved in BUDGET_CASES:
        instance, objective = movie_case(*args)
        oracle = SubmodularOracle(instance, objective)
        full_ledger = QueryLedger()
        full_est, full = movie_pipeline(instance, oracle, full_ledger)
        total = full_ledger.query_count
        assert total == estimated + sieved == full.queries + estimated
        for budget in range(total + 2):
            ledger = QueryLedger(budget=budget)
            if budget < total:
                with pytest.raises(BudgetExceeded):
                    movie_pipeline(instance, oracle, ledger)
                assert ledger.query_count == budget
            else:
                est, report = movie_pipeline(instance, oracle, ledger)
                assert ledger.query_count == total
                assert est == full_est
                assert (report.solution, report.queries, report.passes,
                        report.trace) == (full.solution, full.queries,
                                          full.passes, full.trace)


# ------------------------------------------------------------ grid bounds


@given(st.floats(0.01, 1.0), st.floats(0.01, 2.0), st.floats(0.1, 10.0),
       st.floats(1.0, 50.0))
@settings(max_examples=300, deadline=None)
def test_grid_size_bounds_the_threshold_grid(alpha, eps, lam, k):
    levels = threshold_levels(lam, alpha, eps, k)
    assert len(levels) <= grid_size(2 / alpha, eps) <= len(levels) + 2


def test_grid_size_by_hand():
    assert grid_size(2.0, 1.0) == 2          # 1 level, and one for rounding
    assert grid_size(1024.0, 1.0) == 11
    assert grid_size(0.5, 1.0) == 1          # a range narrower than one step
    assert len(threshold_levels(1.0, 1.0, 1.0, 2.0)) == 1
    # the last grid under the cap, and the first over it, never built
    eps = math.expm1(math.log(2.0) / (MAX_LEVELS - 1))
    assert grid_size(2.0, eps * (1 + 1e-9)) == MAX_LEVELS
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        grid_size(2.0, eps * (1 - 1e-9))


@pytest.mark.parametrize("eps", [1e-7, 1e-17, 5e-324])
def test_threshold_grid_over_the_cap_raises_before_it_is_built(eps):
    # at eps=1e-7 the grid would hold 6.9 million levels; below 2**-53 the
    # loop dividing by 1 + eps would never end
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        threshold_levels(1.0, 1.0, eps, 3.0)
    inst, oracle = tight_oracle()
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        sieve(tight_stream(inst), inst.capacity, oracle, 1.0, 1.0, eps)


@given(st.floats(1e-3, 1 / 3 - 1e-3), st.floats(1.0, 1e4), st.floats(1e-6, 1e6),
       st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_grid_size_bounds_the_estimator_width(eps, k, delta, lb_ratio):
    # the estimator keeps the indices i with tau_min/base <= base^i <= delta
    base = 1 + eps
    tau_min = max(2 * lb_ratio * delta, 2 * delta) / (3 * k)
    active = _grid_indices(tau_min / base, delta, math.log(base))
    assert len(active) <= grid_size(1.5 * k * base, eps)


def test_estimator_over_the_cap_raises_before_any_query():
    inst = Instance([Element(0, 1.0)], 3.0)
    ledger = QueryLedger()
    oracle = SubmodularOracle(inst, lambda ids: float(len(ids)))
    # at k=3 the span is 4.5 * (1 + eps): the first eps is one level over
    for eps in (math.expm1(math.log(4.5) / (MAX_LEVELS - 1)), 1e-6):
        with pytest.raises(ValueError, match="MAX_LEVELS"):
            estimate_lambda(StreamSource.from_instance(inst), 3.0, oracle, eps,
                            ledger)
    assert ledger.query_count == 0
    wide = Instance([Element(0, 1.0)], 1e300)  # the width grows with log k
    wide_oracle = SubmodularOracle(wide, lambda ids: float(len(ids)))
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        estimate_lambda(StreamSource.from_instance(wide), 1e300, wide_oracle, 1e-3)
    assert estimate_lambda(StreamSource.from_instance(wide), 1e300,
                           wide_oracle).lam == 1.0


# ------------------------------------------------- speculative threshold kernel


def kernel_case(kind):
    """A stream long enough for the threshold chunks to grow past their
    first size, with accepts inside them: a sparse coverage graph with
    degree costs, or movies with singleton costs."""
    if kind == "coverage":
        adjacency = preferential_adjacency(600, 2, seed=4)
        costs = coverage_costs(adjacency)
        instance = normalize(sorted(costs.items()), 12.0)
        return instance, CoverageObjective(adjacency)
    return movie_case(5, 300, 30.0)


def sieve_run(solver, instance, oracle, ledger):
    stream = StreamSource.from_instance(instance)
    est = estimate_lambda(stream, instance.capacity, oracle, ledger=QueryLedger())
    run = {"sieve": sieve, "sieve_or_max": sieve_or_max,
           "sieve_plus_max": sieve_plus_max}[solver]
    return run(stream, instance.capacity, oracle, est.lam, est.alpha, 0.1,
               ledger, density_cap=est.max_singleton_density)


@pytest.mark.parametrize("path", ["protocol", "callable"])
@pytest.mark.parametrize("kind", ["coverage", "movie"])
@pytest.mark.parametrize("solver", ["sieve", "sieve_or_max", "sieve_plus_max"])
def test_the_chunked_kernel_matches_the_scalar_loop(monkeypatch, kind, solver,
                                                    path):
    # ids, values, queries, passes and the trace, and per pass the accepted
    # gains, seen and the singleton gains, bit for bit
    instance, objective = kernel_case(kind)
    fn = objective if path == "protocol" else (lambda ids: objective.value(ids))
    oracle = SubmodularOracle(instance, fn)
    runs = []
    spent = []
    reorder_spent = [0]  # what the lazy greedy reorder computes ahead
    real_order = knapsub.streaming.greedy_order

    def reorder(instance, oracle, members, ledger, empty):
        mark = ledger.speculative_evaluations
        prefixes = real_order(instance, oracle, members, ledger, empty)
        reorder_spent.append(ledger.speculative_evaluations - mark)
        return prefixes

    monkeypatch.setattr(knapsub.streaming, "greedy_order", reorder)
    for kernel in (threshold_pass, scalar_threshold_pass):
        log = []
        monkeypatch.setattr(knapsub.streaming, "threshold_pass",
                            recording(kernel, log))
        ledger = QueryLedger()
        report = sieve_run(solver, instance, oracle, ledger)
        runs.append((sorted(report.solution.ids), report.solution.value.hex(),
                     report.queries, ledger.query_count, report.passes,
                     report.trace, log))
        spent.append(report.speculative_evaluations)
    assert runs[0] == runs[1]
    assert sum(len(accepted) for accepted, _, _ in runs[0][-1]) >= 5
    # the reference never computes ahead; the greedy reorder may
    assert spent[1] == reorder_spent[-1] * (solver == "sieve_plus_max")
    if path == "callable":
        assert spent[0] == 0  # nor does the kernel on a plain callable


def test_the_chunked_kernel_computes_ahead_and_tallies_it():
    # chunks grow past 16 items and accepts fall inside them
    instance, objective = kernel_case("coverage")
    report = sieve_run("sieve", instance, SubmodularOracle(instance, objective),
                       QueryLedger())
    accepted = len(report.trace.steps) - 1
    assert accepted >= 5
    assert report.speculative_evaluations > 16


def counting(objective):
    """Count every id the objective evaluates, on every path."""
    asked = {"ids": 0}
    for name, size in (("value", lambda args: 1), ("value_with", lambda args: 1),
                       ("values_with", lambda args: len(args[1]))):
        method = getattr(objective, name)

        def wrapper(*args, method=method, size=size):
            asked["ids"] += size(args)
            return method(*args)
        setattr(objective, name, wrapper)
    return asked


@pytest.mark.parametrize("kind", ["coverage", "movie"])
@pytest.mark.parametrize("solver", ["sieve", "sieve_plus_max"])
def test_the_tally_is_what_was_evaluated_and_not_charged(kind, solver):
    instance, objective = kernel_case(kind)
    asked = counting(objective)
    oracle = SubmodularOracle(instance, objective)
    stream = StreamSource.from_instance(instance)
    est = estimate_lambda(stream, instance.capacity, oracle)
    asked["ids"] = 0
    ledger = QueryLedger()
    run = sieve if solver == "sieve" else sieve_plus_max
    report = run(stream, instance.capacity, oracle, est.lam, est.alpha, 0.1,
                 ledger, density_cap=est.max_singleton_density)
    assert report.speculative_evaluations == ledger.speculative_evaluations > 0
    assert asked["ids"] == report.queries + report.speculative_evaluations
    # a plain callable is asked one query at a time, never ahead
    plain = sieve_run(solver, instance,
                      SubmodularOracle(instance, lambda ids: objective.value(ids)),
                      QueryLedger())
    assert plain.speculative_evaluations == 0
    assert (plain.solution, plain.queries) == (report.solution, report.queries)


def test_budget_stops_both_kernels_at_every_count(monkeypatch):
    # every budget lands in a threshold pass, the greedy reorder or the
    # augmentation pass; both kernels stop exactly there
    adjacency = preferential_adjacency(150, 2, seed=4)
    instance = normalize(sorted(coverage_costs(adjacency).items()), 8.0)
    oracle = SubmodularOracle(instance, CoverageObjective(adjacency))
    est = estimate_lambda(StreamSource.from_instance(instance), 8.0, oracle)

    def run(ledger):
        return sieve_plus_max(StreamSource.from_instance(instance), 8.0, oracle,
                              est.lam, est.alpha, 0.1, ledger,
                              density_cap=est.max_singleton_density)

    full = run(QueryLedger())
    total = full.queries
    assert total == 239 and full.speculative_evaluations > 0
    for kernel in (threshold_pass, scalar_threshold_pass):
        monkeypatch.setattr(knapsub.streaming, "threshold_pass", kernel)
        for budget in range(total + 2):
            ledger = QueryLedger(budget=budget)
            if budget < total:
                with pytest.raises(BudgetExceeded):
                    run(ledger)
                assert ledger.query_count == budget
            else:
                assert run(ledger).solution == full.solution
                assert ledger.query_count == total


def test_a_plain_callable_stops_both_kernels_at_every_count(monkeypatch):
    # a budget or an unknown id stops the kernel on a plain callable where
    # it stops the scalar loop, and nothing is computed ahead
    adjacency = preferential_adjacency(150, 2, seed=4)
    instance = normalize(sorted(coverage_costs(adjacency).items()), 8.0)
    objective = CoverageObjective(adjacency)
    oracle = SubmodularOracle(instance, lambda ids: objective.value(ids))
    est = estimate_lambda(StreamSource.from_instance(instance), 8.0, oracle)

    def run(ledger):
        return sieve(StreamSource.from_instance(instance), 8.0, oracle,
                     est.lam, est.alpha, 0.1, ledger)

    full = run(QueryLedger())
    total = full.queries
    assert total == 211 and len(full.trace.steps) == 9
    assert full.speculative_evaluations == 0
    for kernel in (threshold_pass, scalar_threshold_pass):
        monkeypatch.setattr(knapsub.streaming, "threshold_pass", kernel)
        for budget in range(total + 2):
            ledger = QueryLedger(budget=budget)
            if budget < total:
                with pytest.raises(BudgetExceeded):
                    run(ledger)
                assert ledger.query_count == budget
            else:
                assert run(ledger).solution == full.solution
                assert ledger.query_count == total
        ledger = QueryLedger()
        with pytest.raises(KeyError, match="999"):
            kernel(oracle, [*instance.element_ids()[:2], 999], 10.0,
                   oracle.working_set((), 0.0), ledger)
        assert ledger.query_count == 2
        assert ledger.speculative_evaluations == 0


def probe_pass(bad, path, items, tau, capacity=3.0):
    """``threshold_pass`` on the NaN probe from S = {0}: every item gains
    1/6 at cost 1, and f(S + 2) is ``bad``.  Returns the pass's result or
    its error, the queries counted and the speculative tally."""
    objective = NanProbe(bad)
    instance = Instance([Element(i, 1.0) for i in range(6)], capacity)
    fn = objective if path == "protocol" else (lambda ids: objective.value(ids))
    oracle = SubmodularOracle(instance, fn)
    ws = oracle.working_set([0], 1 / 6)
    ledger = QueryLedger()
    try:
        _, accepted, seen = threshold_pass(oracle, items, tau, ws, ledger)
        result = ([eid for eid, _ in accepted], seen)
    except NonFiniteValue:
        result = "NonFiniteValue"
    return result, ledger.query_count, ledger.speculative_evaluations


@pytest.mark.parametrize("bad", NONFINITE)
def test_a_nonfinite_value_in_the_uncharged_tail_is_never_raised(bad):
    # 1 is accepted, after which 2 no longer fits K=2: the scalar loop never
    # asks f(S + 2), and the chunk that computed it ahead does not raise
    assert probe_pass(bad, "callable", [1, 2], 0.1, capacity=2.0) == \
        (([1], 0.0), 1, 0)
    assert probe_pass(bad, "protocol", [1, 2], 0.1, capacity=2.0) == \
        (([1], 0.0), 1, 1)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("items, tau, count", [
    ([3, 2, 1], 0.5, 2),  # after a reject, before an item the chunk holds
    ([2, 1], 0.1, 1),     # before an accept later in the chunk
    ([1, 2], 0.5, 2),     # after a reject, last in the chunk
])
def test_a_nonfinite_value_in_the_charged_prefix_raises_at_the_scalar_count(
        bad, items, tau, count):
    assert probe_pass(bad, "callable", items, tau) == \
        ("NonFiniteValue", count, 0)
    assert probe_pass(bad, "protocol", items, tau) == \
        ("NonFiniteValue", count, len(items) - count)


@pytest.mark.parametrize("ids, asked", [([0, 2, 99], 2), ([99, 0], 0)])
@pytest.mark.parametrize("lazy", [False, True])
def test_an_unknown_id_stops_both_kernels_at_the_same_count(ids, asked, lazy):
    # the items read before it are still asked, and it is never asked
    instance = Instance([Element(i, 1.0) for i in range(4)], 3.0)
    oracle = SubmodularOracle(instance, CoverageObjective([[1], [0], [3], [2]]))
    for kernel in (threshold_pass, scalar_threshold_pass):
        ledger = QueryLedger()
        with pytest.raises(KeyError, match="99"):
            kernel(oracle, iter(ids) if lazy else ids, 10.0,
                   oracle.working_set((), 0.0), ledger)
        assert ledger.query_count == asked


def test_a_threshold_pass_reads_one_chunk_at_a_time():
    # the pass never holds the whole stream: it reads at most the cap ahead
    instance, objective = kernel_case("coverage")
    oracle = SubmodularOracle(instance, objective)
    read = []

    def stream():
        for eid in instance.element_ids():
            read.append(eid)
            yield eid

    ws = oracle.working_set((), oracle.evaluate((), QueryLedger()))
    ledger = QueryLedger()
    # nothing clears an infinite level, so the chunks only grow
    seen_sizes = []
    items = stream()
    original = oracle.values_ahead

    def ahead(ws, positions, ledger):
        seen_sizes.append((len(positions), len(read)))
        return original(ws, positions, ledger)

    oracle.values_ahead = ahead
    threshold_pass(oracle, items, math.inf, ws, ledger)
    assert instance.n == 592
    assert [size for size, _ in seen_sizes] == [16, 32, 64, 128, 256, 96]
    # each chunk is read just before it is evaluated, never further ahead
    assert [total for _, total in seen_sizes] == [16, 48, 112, 240, 496, 592]
    assert ledger.query_count == instance.n
    assert ledger.speculative_evaluations == 0
