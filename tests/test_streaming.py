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
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    estimate_lambda,
    sieve,
    sieve_or_max,
    sieve_plus_max,
    threshold_levels,
)

from helpers import tight_oracle


def tight_stream(inst):
    return StreamSource.from_instance(inst)


# ---------------------------------------------------------------- streams


def test_stream_replays_in_order():
    s = StreamSource([(3, 1.0), (1, 2.0), (2, 1.5)])
    first = [e.id for e in s.scan()]
    second = [e.id for e in s.scan()]
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


def test_empty_stream_returns_base_value():
    inst = Instance([], 2.0, base_set={5})
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    report = sieve_plus_max(StreamSource([]), 2.0, oracle, 1.0, 1.0, 0.5)
    assert report.solution.ids == frozenset()
    assert report.solution.value == 1.0


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
