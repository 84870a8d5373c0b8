"""Streaming algorithms: stream plumbing, schedules, sieves, the estimator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapsub import (
    Element,
    Instance,
    InvalidLambda,
    ModularObjective,
    NonFiniteValue,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    estimate_lambda,
    sieve,
    sieve_or_max,
    sieve_plus_max,
    threshold_levels,
)
from knapsub.streaming import (
    MAX_LEVELS,
    _grid_indices,
    augment_pass,
    best_augmented,
    grid_size,
)

from helpers import NONFINITE, nan_probe, tight_oracle


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
    assert len(s) == 3


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
    with pytest.raises(ValueError):
        threshold_levels(1.0, 0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        threshold_levels(1.0, 1.5, 0.5, 2.0)
    with pytest.raises(ValueError):
        threshold_levels(1.0, 1.0, 0.0, 2.0)


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
    for solver, queries in ((sieve_or_max, 6), (sieve_plus_max, 7)):
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
    # Instance.cost_of or Instance.units as a bare KeyError: 7
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
    inst, oracle = tight_oracle()
    with pytest.raises(InvalidLambda):
        sieve_plus_max(tight_stream(inst), inst.capacity, oracle, 0.0, 1.0, 0.5)


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
    assert est.max_singleton_density == pytest.approx(0.6 / 1.1)


def test_estimator_unpacks_as_pair():
    inst, oracle = tight_oracle()
    lam, alpha = estimate_lambda(tight_stream(inst), inst.capacity, oracle)
    assert lam == 1.0
    assert alpha == pytest.approx(1 / 6)


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
