"""Round-based executor: config shapes, round accounting, parity, bounds."""

import math
import random

import pytest

import knapsub.distributed
from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    Instance,
    MemoryCapExceeded,
    ModularObjective,
    MpcConfig,
    NonFiniteValue,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    distributed_sieve_plus_max,
    greedy_order,
    normalize,
    sieve_plus_max,
    simulate_round,
    threshold_levels,
)
from knapsub.streaming import threshold_pass

from conftest import random_adjacency
from helpers import NONFINITE, nan_probe, tight_oracle


def wide_config(inst, machines, seed=0):
    """A cluster whose memory cap never binds, for logic-only tests."""
    return MpcConfig(machines=machines, memory_cap=10.0 * inst.n + 10.0,
                     seed=seed)


# ------------------------------------------------------------------ config


def test_config_defaults_at_benchmark_scale():
    inst = Instance([Element(i, 1.0) for i in range(10_000)], 10.0)
    cfg = MpcConfig.for_instance(inst)
    assert cfg.machines == round(math.sqrt(10_000 / 10))
    assert cfg.memory_cap == pytest.approx(8.0 * math.sqrt(10_000 * 10))
    assert cfg.machines * cfg.memory_cap >= inst.n


def test_config_validation():
    inst = Instance([Element(i, 1.0) for i in range(100)], 5.0)
    with pytest.raises(ValueError):
        MpcConfig(machines=0, memory_cap=1000.0).validate(inst)
    with pytest.raises(ValueError):
        MpcConfig(machines=2, memory_cap=10.0).validate(inst)
    MpcConfig(machines=2, memory_cap=50.0).validate(inst)


def test_config_machine_override():
    inst = Instance([Element(i, 1.0) for i in range(100)], 5.0)
    cfg = MpcConfig.for_instance(inst, machines=3, memory_factor=9.0)
    assert cfg.machines == 3
    assert cfg.memory_cap == pytest.approx(9.0 * math.sqrt(100 * 5))


# ----------------------------------------------------------- round executor


def test_simulate_round_keeps_machine_order():
    workers = [lambda xs, i=i: [i, len(xs)] for i in range(3)]
    outs = simulate_round(workers, [([1],), ([1, 2],), ([],)])
    assert outs == [[0, 1], [1, 2], [2, 0]]


def test_simulate_round_enforces_memory_cap():
    worker = lambda a, b: list(a) + list(b)
    assert simulate_round([worker], [([1, 2], [3])], memory_cap=3) == [[1, 2, 3]]
    with pytest.raises(MemoryCapExceeded):
        simulate_round([worker], [([1, 2], [3, 4])], memory_cap=3)


# ------------------------------------------------------------- greedy order


def test_greedy_order_singleton():
    inst, oracle = tight_oracle()
    prefixes = greedy_order(inst, oracle, {3}, QueryLedger())
    order, values = list(prefixes[-1].order), [p.value for p in prefixes]
    assert order == [3]
    assert [inst.cost(order[:j]) for j in range(2)] == [0.0, pytest.approx(1.1)]
    assert values == [0.0, 0.6]


def test_greedy_order_by_density():
    inst = Instance([Element(0, 1.0), Element(1, 1.0)], 2.0)
    oracle = SubmodularOracle(inst, ModularObjective({0: 0.4, 1: 0.6}).value)
    prefixes = greedy_order(inst, oracle, {0, 1}, QueryLedger())
    order, values = list(prefixes[-1].order), [p.value for p in prefixes]
    assert order == [1, 0]
    assert values == [0.0, 0.6, 1.0]


def test_greedy_order_matches_independent_replay(corpus):
    rng = random.Random(5)
    for idx in range(20):
        inst, objective, _ = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        ids = [e.id for e in inst.elements]
        members = set(rng.sample(ids, min(6, len(ids))))
        if not inst.fits(members):
            continue  # keep the sub-instance trivially within budget
        prefixes = greedy_order(inst, oracle, members, QueryLedger())
        order, values = list(prefixes[-1].order), [p.value for p in prefixes]
        assert set(order) == members  # everything fits, so all get picked
        # replay: repeatedly take the highest marginal density member
        picked, replay = set(), []
        ledger = QueryLedger()
        while len(picked) < len(members):
            base_v = oracle.evaluate(picked, ledger)
            best = max(
                sorted(members - picked),
                key=lambda e: (oracle.evaluate(picked | {e}, ledger) - base_v)
                / inst.cost_of(e))
            replay.append(best)
            picked.add(best)
        assert order == replay


# -------------------------------------------------------------- end to end


def test_tight_example_any_seed():
    inst, oracle = tight_oracle()
    for seed in range(6):
        result = distributed_sieve_plus_max(
            inst, oracle, 1.0, 1.0, 0.5, wide_config(inst, 1, seed))
        assert result.report.solution.value == 0.6
        assert result.report.rounds == 3  # two threshold rounds + augmentation


def test_single_machine_meets_guarantee(corpus):
    # one machine scans the shared sample and then a shuffled slice, not the
    # stream, so its value may differ from Sieve+Max; both keep 1/2 - eps
    cases = [(idx, wide_config(corpus(idx)[0], 1, seed=idx)) for idx in range(40)]
    # a smaller sample changes the machine's scan order; on this instance
    # Sieve+Max finds 1.0 = OPT and one machine 0.75
    inst36 = corpus(36)[0]
    cases.append((36, MpcConfig(machines=1, memory_cap=10.0 * inst36.n + 10.0,
                                seed=0, sample_factor=1.0)))
    for idx, config in cases:
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        stream_report = sieve_plus_max(
            StreamSource.from_instance(inst), inst.capacity, oracle,
            opt.value, 1.0, 0.1, QueryLedger())
        dist = distributed_sieve_plus_max(inst, oracle, opt.value, 1.0, 0.1,
                                          config, QueryLedger())
        for report in (stream_report, dist.report):
            assert report.solution.value >= (0.5 - 0.1) * opt.value - 1e-9
            assert inst.fits(report.solution.ids)


def test_two_machines_meet_guarantee(corpus):
    for idx in range(60):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        result = distributed_sieve_plus_max(
            inst, oracle, opt.value, 1.0, 0.1, wide_config(inst, 2, seed=idx),
            QueryLedger())
        assert result.report.solution.value >= (0.5 - 0.1) * opt.value - 1e-9
        assert inst.cost(result.report.solution.ids) <= inst.capacity + 1e-9


def test_same_seed_reproduces_everything(corpus):
    inst, objective, opt = corpus(2)
    oracle = SubmodularOracle(inst, objective.value)
    runs = [distributed_sieve_plus_max(inst, oracle, opt.value, 1.0, 0.2,
                                       wide_config(inst, 2, seed=9),
                                       QueryLedger())
            for _ in range(2)]
    assert runs[0].report.solution.ids == runs[1].report.solution.ids
    assert runs[0].report.solution.value == runs[1].report.solution.value
    assert runs[0].round_log.records == runs[1].round_log.records


def test_round_log_accounting(corpus):
    inst, objective, opt = corpus(4)
    oracle = SubmodularOracle(inst, objective.value)
    ledger = QueryLedger()
    result = distributed_sieve_plus_max(inst, oracle, opt.value, 1.0, 0.2,
                                        wide_config(inst, 2, seed=1), ledger)
    log = result.round_log
    levels = threshold_levels(opt.value, 1.0, 0.2, inst.capacity)
    assert len(log.records) == len(levels) + 1
    assert result.report.rounds == len(levels) + 1
    assert sum(r.queries for r in log.records) == ledger.query_count
    assert result.report.queries == ledger.query_count
    assert log.max_central_receipts == max(r.sent_total for r in log.records)
    for rec in log.records:
        assert rec.sent_total == sum(rec.sent_per_machine)
        assert rec.t_size <= max(1, inst.k_tilde)
    assert [r.round for r in log.records] == list(range(len(levels) + 1))
    # threshold rounds carry the schedule, the augmentation round is 0
    assert [r.threshold for r in log.records[:-1]] == levels
    assert log.records[-1].threshold == 0.0


def test_round_and_reorder_are_patchable_module_globals(monkeypatch, corpus):
    # tracing tools wrap these two names in the distributed module's globals
    calls = {"simulate_round": 0, "greedy_order": 0}
    for name in calls:
        real = getattr(knapsub.distributed, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(knapsub.distributed, name, counting)
    inst, objective, opt = corpus(4)
    oracle = SubmodularOracle(inst, objective.value)
    distributed_sieve_plus_max(inst, oracle, opt.value, 1.0, 0.2,
                               wide_config(inst, 2, seed=1))
    levels = threshold_levels(opt.value, 1.0, 0.2, inst.capacity)
    assert calls == {"simulate_round": len(levels) + 1, "greedy_order": 1}


def test_memory_cap_violation_raises():
    inst = Instance([Element(i, 1.0) for i in range(40)], 4.0)
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    cfg = MpcConfig(machines=8, memory_cap=5.0, seed=0)
    with pytest.raises(MemoryCapExceeded):
        distributed_sieve_plus_max(inst, oracle, 4.0, 1.0, 0.5, cfg)


def sparse_coverage():
    """80 vertices of a sparse random graph at costs 1-3, K=8: four machines
    with samples of 11 to 31 items make 587 queries over five rounds."""
    rng = random.Random(3)
    adj = random_adjacency(80, 0.06, rng)
    inst = normalize([(i, rng.uniform(1.0, 3.0)) for i in range(80)], 8.0)
    return inst, CoverageObjective(adj)


def sparse_run(oracle, ledger, memory_cap=800.0, machines=4, lam=0.4125):
    config = MpcConfig(machines=machines, memory_cap=memory_cap, seed=2,
                       sample_factor=1.0)
    return distributed_sieve_plus_max(oracle.instance, oracle, lam, 0.5, 0.5,
                                      config, ledger)


def test_budget_stops_at_its_count_in_every_pass():
    # every budget up to the full count lands in some machine's sample or
    # slice pass, or in the coordinator's; each stops exactly there
    inst, objective = sparse_coverage()
    oracle = SubmodularOracle(inst, objective)
    full = sparse_run(oracle, QueryLedger())
    total = full.report.queries
    assert total == 587
    assert [r.queries for r in full.round_log.records] == [165, 204, 122, 0, 96]
    for budget in range(total + 2):
        ledger = QueryLedger(budget=budget)
        if budget < total:
            with pytest.raises(BudgetExceeded):
                sparse_run(oracle, ledger)
            assert ledger.query_count == budget
        else:
            result = sparse_run(oracle, ledger)
            assert ledger.query_count == total
            assert result.report.solution.ids == full.report.solution.ids
            assert result.report.solution.value == full.report.solution.value
            assert result.round_log.records == full.round_log.records


def test_memory_cap_raises_before_the_round_queries():
    # round 1 loads 31 sample + 20 slice items on machine 0, the most of any
    # round; a cap of 50 lets round 0 run and stops round 1 before its first
    # query, so the ledger holds round 0's queries alone
    inst, objective = sparse_coverage()
    oracle = SubmodularOracle(inst, objective)
    ledger = QueryLedger()
    with pytest.raises(MemoryCapExceeded, match="machine 0 would hold 51"):
        sparse_run(oracle, ledger, memory_cap=50.0)
    assert ledger.query_count == 165


def test_the_shared_sample_is_filtered_once_per_round(monkeypatch):
    # a plain callable sees each query that runs: with m machines a round's
    # sample pass runs once, and the ledger is charged for it m times
    inst, objective = sparse_coverage()
    calls = 0

    def covered(ids):  # vertices covered, an exact integer
        return float(round(objective.value(ids) * inst.n))

    def counted(ids):
        nonlocal calls
        calls += 1
        return covered(ids)

    payloads = []
    real_round = knapsub.distributed.simulate_round

    def recording(workers, round_payloads, memory_cap=None):
        payloads.append(round_payloads[0])
        return real_round(workers, round_payloads, memory_cap)

    monkeypatch.setattr(knapsub.distributed, "simulate_round", recording)
    replay = SubmodularOracle(inst, covered)
    for machines, total, rows in [(1, 341, [102, 111, 32, 0, 96]),
                                  (4, 587, [165, 204, 122, 0, 96])]:
        calls = 0
        payloads.clear()
        ledger = QueryLedger()
        result = sparse_run(SubmodularOracle(inst, counted), ledger,
                            machines=machines, lam=0.4125 * inst.n)
        assert ledger.query_count == total
        assert [r.queries for r in result.round_log.records] == rows
        # replay each threshold round's sample pass from machine 0's payload
        sample_queries = 0
        threshold_rounds = zip(result.round_log.records, payloads[:-1])
        for rec, (t_list, gamma, _) in threshold_rounds:
            scratch = QueryLedger()
            ws_t = replay.working_set(t_list, replay.evaluate(t_list, scratch))
            mark = scratch.query_count
            threshold_pass(replay, gamma, rec.threshold, ws_t, scratch)
            sample_queries += scratch.query_count - mark
        assert sample_queries > 0
        assert calls == total - (machines - 1) * sample_queries


def test_empty_instance_returns_base_value():
    inst = Instance([], 3.0, base_set={2})
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    result = distributed_sieve_plus_max(inst, oracle, 1.0, 1.0, 0.5,
                                        MpcConfig(machines=1, memory_cap=8.0))
    assert result.report.solution.ids == frozenset()
    assert result.report.solution.value == 1.0


def test_fresh_evaluation_matches_reported_value(corpus):
    for idx in range(25):
        inst, objective, opt = corpus(idx)
        if opt.value <= 0:
            continue
        oracle = SubmodularOracle(inst, objective.value)
        result = distributed_sieve_plus_max(
            inst, oracle, opt.value, 1.0, 0.1, wide_config(inst, 2, seed=idx))
        fresh = objective.value(
            frozenset(result.report.solution.ids) | inst.base_set)
        assert fresh == pytest.approx(result.report.solution.value, abs=1e-12)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("path", ["protocol", "callable"])
@pytest.mark.parametrize("machines", [1, 3])
def test_distributed_rejects_the_nan_probe(machines, path, bad):
    instance, oracle = nan_probe(bad, path)
    with pytest.raises(NonFiniteValue):
        distributed_sieve_plus_max(instance, oracle, 0.5, 0.5, 0.5,
                                   wide_config(instance, machines))
