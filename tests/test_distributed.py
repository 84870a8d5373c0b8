"""Round-based executor: config shapes, round accounting, parity, bounds."""

import math
import random

import numpy as np
import pytest

import knapsub.distributed
from knapsub import (
    BudgetExceeded,
    CoverageObjective,
    Element,
    Instance,
    InvalidLambda,
    MemoryCapExceeded,
    ModularObjective,
    MpcConfig,
    NonFiniteValue,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    coverage_costs,
    distributed_sieve_plus_max,
    greedy_order,
    greedy_plus_max,
    normalize,
    sieve_plus_max,
    simulate_round,
    threshold_levels,
)
from knapsub.bench.datasets import preferential_adjacency
from knapsub.distributed import _partition, _sample
from knapsub.streaming import threshold_pass

from conftest import random_adjacency
from helpers import (
    NONFINITE,
    nan_probe,
    recording,
    scalar_threshold_pass,
    tight_oracle,
)


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


@pytest.mark.parametrize("field, value", [
    ("memory_cap", math.nan),     # never binds: the run used to finish
    ("sample_factor", math.nan),  # made p = 1, every id in every sample
    ("sample_factor", -1.0),      # made every sample empty
    ("machines", 2.5),            # used to die in the partition
])
def test_config_rejects_a_shape_that_changes_the_run(field, value):
    inst = Instance([Element(i, 1.0) for i in range(40)], 4.0)
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    shape = {"machines": 8, "memory_cap": 50.0, "seed": 0,
             "sample_factor": 4.0, field: value}
    ledger = QueryLedger()
    with pytest.raises(ValueError, match=field):
        distributed_sieve_plus_max(inst, oracle, 4.0, 1.0, 0.5,
                                   MpcConfig(**shape), ledger)
    assert ledger.query_count == 0


# ------------------------------------------------------------- randomness
# the solver replays CPython's random.shuffle and random() from
# getrandbits; an interpreter that changes either algorithm fails here


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 64, 65, 1000, 5000])
def test_partition_replays_random_shuffle(size):
    for seed in (0, 1, 1_000_003, 2**61 - 1):
        for drawn in (0, 3):  # a fresh generator, and one already used
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(drawn):
                rng.random(), ref.random()
            perm = list(range(size))
            ref.shuffle(perm)
            slices = _partition(size, 3, rng)
            assert [s.tolist() for s in slices] == [perm[i::3] for i in range(3)]
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
def test_sample_replays_random_draws(p):
    for seed in range(50):
        for size in (0, 1, 2, 7, 500):
            rng, ref = random.Random(seed), random.Random(seed)
            items = np.arange(size) * 3 + 5
            kept = [eid for eid in items.tolist() if ref.random() < p]
            assert _sample(items, p, rng).tolist() == kept
            assert rng.getstate() == ref.getstate()


# ----------------------------------------------------------- round executor


def test_simulate_round_keeps_machine_order():
    workers = [lambda xs, i=i: [i, len(xs)] for i in range(3)]
    outs = simulate_round(workers, [([1],), ([1, 2],), ([],)], math.inf)
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
    with samples of 11 to 31 items make 583 queries over five rounds."""
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
    assert total == 583
    assert [r.queries for r in full.round_log.records] == [165, 204, 122, 0, 92]
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
    for machines, total, rows in [(1, 334, [102, 111, 32, 0, 89]),
                                  (4, 583, [165, 204, 122, 0, 92])]:
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


@pytest.mark.parametrize("lam", [math.nan, math.inf, 1e308])
def test_distributed_rejects_a_nonfinite_or_overflowing_lambda(lam):
    # a NaN lam used to run no threshold round and answer from the
    # augmentation round alone; 1e308 / (k / 6) overflows to inf
    inst, oracle = tight_oracle()  # capacity 2
    ledger = QueryLedger()
    with pytest.raises(InvalidLambda):
        distributed_sieve_plus_max(inst, oracle, lam, 1 / 6, 0.1, ledger=ledger)
    assert ledger.query_count == 0


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("path", ["protocol", "callable"])
@pytest.mark.parametrize("machines", [1, 3])
def test_distributed_rejects_the_nan_probe(machines, path, bad):
    instance, oracle = nan_probe(bad, path)
    with pytest.raises(NonFiniteValue):
        distributed_sieve_plus_max(instance, oracle, 0.5, 0.5, 0.5,
                                   wide_config(instance, machines))


def greedy_plus_max_value(instance, oracle):
    return greedy_plus_max(instance, oracle, QueryLedger()).report.solution.value


@pytest.mark.parametrize("machines", [1, 4])
def test_the_chunked_kernel_matches_the_scalar_loop(monkeypatch, machines):
    # machines, the shared sample and the coordinator all filter through
    # the kernel; the coordinator's arrivals repeat every accepted sample id
    # once per machine, and each copy is charged as the scalar loop charges it
    adjacency = preferential_adjacency(600, 2, seed=4)
    instance = normalize(sorted(coverage_costs(adjacency).items()), 12.0)
    oracle = SubmodularOracle(instance, CoverageObjective(adjacency))
    lam = greedy_plus_max_value(instance, oracle)
    repeated = []
    runs = []
    reorder_spent = []  # what the lazy greedy reorder computes ahead
    real_order = knapsub.distributed.greedy_order

    def reorder(instance, oracle, members, ledger, empty):
        mark = ledger.speculative_evaluations
        prefixes = real_order(instance, oracle, members, ledger, empty)
        reorder_spent.append(ledger.speculative_evaluations - mark)
        return prefixes

    monkeypatch.setattr(knapsub.distributed, "greedy_order", reorder)
    for kernel in (threshold_pass, scalar_threshold_pass):
        log = []
        record = recording(kernel, log)

        def noting(oracle, items, *args, record=record):
            items = list(items)
            repeated.append(len(items) > len(set(items)))
            return record(oracle, items, *args)

        monkeypatch.setattr(knapsub.distributed, "threshold_pass", noting)
        ledger = QueryLedger()
        result = distributed_sieve_plus_max(instance, oracle, lam, 0.5, 0.25,
                                            wide_config(instance, machines), ledger)
        report = result.report
        runs.append((sorted(report.solution.ids), report.solution.value.hex(),
                     report.queries, ledger.query_count,
                     result.round_log.records, log))
        spent = report.speculative_evaluations
    assert runs[0] == runs[1]
    assert sum(len(accepted) for accepted, _, _ in runs[0][-1]) >= 5
    assert spent == reorder_spent[-1]  # the scalar loop never computes ahead
    assert any(repeated) == (machines > 1)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("machines", [1, 4])
def test_distributed_tallies_what_it_computes_ahead(machines, seed):
    # machines batch their whole slice on the protocol objective and read
    # a plain callable's queries one at a time: same run, nothing ahead
    adjacency = preferential_adjacency(600, 2, seed=4)
    instance = normalize(sorted(coverage_costs(adjacency).items()), 12.0)
    objective = CoverageObjective(adjacency)
    lam = greedy_plus_max_value(instance, SubmodularOracle(instance, objective))
    results = [distributed_sieve_plus_max(
        instance, SubmodularOracle(instance, fn), lam, 0.5, 0.25,
        wide_config(instance, machines, seed))
        for fn in (objective, lambda ids: objective.value(ids))]
    reports = [r.report for r in results]
    assert reports[0].speculative_evaluations > 0
    assert reports[1].speculative_evaluations == 0
    runs = [(sorted(r.report.solution.ids), r.report.solution.value.hex(),
             r.report.queries, r.round_log.records) for r in results]
    assert runs[0] == runs[1]


class SetProbe:
    """A protocol objective on unit items: the sum of integer ``weights``
    over S, except ``bad`` on the one set ``poison`` (none by default);
    its state is S."""

    def __init__(self, weights, poison=None, bad=math.nan):
        self.weights, self.poison, self.bad = weights, poison, bad
        self.asked = []  # the ids of each values_with call

    def value(self, ids):
        ids = frozenset(ids)
        return self.bad if ids == self.poison else float(
            sum(self.weights[eid] for eid in ids))

    def extend(self, state, ids):
        return (state or frozenset()) | frozenset(ids)

    def value_with(self, state, eid):
        return self.value((state or frozenset()) | {eid})

    def values_with(self, state, ids):
        self.asked.append(ids.tolist())
        return np.array([self.value_with(state, eid) for eid in ids.tolist()])


def probe_run(probe, path):
    """One machine, one level, K=2 on six unit items, and a sample that is
    empty: the machine's first batch is its whole slice against the empty
    set.  Returns the ledger and the result, or the error raised."""
    instance = Instance([Element(i, 1.0) for i in range(6)], 2.0)
    fn = probe if path == "protocol" else (lambda ids: probe.value(ids))
    config = MpcConfig(machines=1, memory_cap=100.0, seed=3,
                       sample_factor=1e-9)
    ledger = QueryLedger()
    try:
        return ledger, distributed_sieve_plus_max(
            instance, SubmodularOracle(instance, fn), 1.5, 1.0, 1.5, config,
            ledger)
    except NonFiniteValue as exc:
        return ledger, exc


@pytest.mark.parametrize("bad", NONFINITE)
def test_a_machine_raises_only_what_its_slice_asks(bad):
    probe = SetProbe(dict.fromkeys(range(6), 1))
    _, result = probe_run(probe, "protocol")
    assert result.round_log.records[0].gamma_size == 0
    order = probe.asked[0]  # the machine's slice, in scan order
    assert sorted(order) == list(range(6))
    # the first item clears the level, so the batch is charged up to it:
    # a bad singleton at the end of the slice is computed, never asked
    runs = []
    for path in ("protocol", "callable"):
        probe = SetProbe(dict.fromkeys(range(6), 1), {order[-1]}, bad)
        ledger, result = probe_run(probe, path)
        if path == "protocol":
            assert probe.asked[0] == order  # the bad value was computed
        runs.append((sorted(result.report.solution.ids),
                     result.report.solution.value.hex(), ledger.query_count,
                     result.round_log.records))
        assert (result.report.speculative_evaluations > 0) == (path == "protocol")
    assert runs[0] == runs[1]
    # the first three items weigh 0, so the charged prefix runs to the
    # fourth: a bad second item raises at the third query, f(empty) first
    weights = {eid: int(eid not in order[:3]) for eid in range(6)}
    for path in ("protocol", "callable"):
        ledger, error = probe_run(SetProbe(weights, {order[1]}, bad), path)
        assert isinstance(error, NonFiniteValue)
        assert ledger.query_count == 3
