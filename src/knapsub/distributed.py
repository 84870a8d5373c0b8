"""Round-based distributed variant of the threshold-plus-augmentation solver.

The coordinator walks the same descending threshold grid as the streaming
code, one synchronous round per level.  Each round every machine receives
the current collected set, a shared random sample of the ground set, and a
random slice of it, filters both through the threshold locally, and sends
the survivors up; the coordinator refilters arrivals in machine order.  A
final round reorders the collection greedily and lets machines race their
best single-element augmentation against the bare prefixes.

Machines and coordinator call the streaming module's ``threshold_pass``;
the last round calls its ``augment_pass`` and ``best_augmented`` on the
coordinator's greedy prefixes, which every machine shares.  With one
machine this is Sieve+Max's own code by construction, run in another scan
order (the sample, then a shuffled slice, instead of stream order).

The simulation runs machines sequentially in index order, so results are
reproducible and independent of any physical parallelism.  Per-machine
memory is asserted, never truncated.  Every machine would filter the
round's shared sample against the same collected set and get the same
answer, so the first machine filters it once and every later machine is
charged that pass's queries on the ledger before filtering its own slice:
ids, values, ledger counts, rounds and receipts are those of m separate
passes, but a wrapper on the objective sees the sample's queries only once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .core import AlgoReport, Instance, QueryLedger, RunMeter, SubmodularOracle
from .errors import MemoryCapExceeded
from .offline import greedy_order
from .streaming import (
    augment_pass,
    best_augmented,
    threshold_levels,
    threshold_pass,
)


@dataclass(frozen=True)
class MpcConfig:
    """Cluster shape for one simulated run.

    ``memory_cap`` bounds the number of items any one machine may hold in a
    round (collected set + sample + local slice).  ``sample_factor`` scales
    the elementwise probability min(1, factor * sqrt(k_tilde / n)) of the
    shared sample.
    """

    machines: int
    memory_cap: float
    seed: int = 0
    sample_factor: float = 4.0

    @classmethod
    def for_instance(cls, instance: Instance, machines: int | None = None,
                     memory_factor: float = 8.0, seed: int = 0,
                     sample_factor: float = 4.0) -> "MpcConfig":
        """Default shape: about sqrt(n / k_tilde) machines holding
        memory_factor * sqrt(n * k_tilde) items each."""
        n = max(1, instance.n)
        kt = max(1, instance.k_tilde)
        if machines is None:
            machines = max(1, round(math.sqrt(n / kt)))
        cfg = cls(machines, memory_factor * math.sqrt(n * kt), seed, sample_factor)
        cfg.validate(instance)
        return cfg

    def validate(self, instance: Instance) -> None:
        if self.machines < 1:
            raise ValueError("need at least one machine")
        if self.machines * self.memory_cap < instance.n:
            raise ValueError(
                f"{self.machines} machines with cap {self.memory_cap:.0f} "
                f"cannot hold {instance.n} elements")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    threshold: float
    gamma_size: int
    sent_per_machine: tuple[int, ...]
    sent_total: int
    t_size: int
    queries: int


@dataclass
class RoundLog:
    """Per-round communication and query accounting for one run."""

    records: list[RoundRecord] = field(default_factory=list)

    def add(self, **kw) -> None:
        self.records.append(RoundRecord(**kw))

    @property
    def max_central_receipts(self) -> int:
        return max((r.sent_total for r in self.records), default=0)


def simulate_round(workers, payloads, memory_cap: float | None = None):
    """Run one synchronous round, machines in index order.

    ``payloads[i]`` is a tuple of sequences handed to machine ``i``; their
    combined length is that machine's load for the round.  A load above
    ``memory_cap`` raises :class:`MemoryCapExceeded`.  Returns per-machine
    outputs in machine order.
    """
    outs = []
    for i, (worker, payload) in enumerate(zip(workers, payloads)):
        load = sum(len(part) for part in payload)
        if memory_cap is not None and load > memory_cap:
            raise MemoryCapExceeded(
                f"machine {i} would hold {load} items, cap {memory_cap:.0f}")
        outs.append(worker(*payload))
    return outs


@dataclass
class DistributedResult:
    report: AlgoReport
    round_log: RoundLog


def _partition(ids, machines: int, rng: random.Random):
    perm = list(ids)
    rng.shuffle(perm)
    return [perm[i::machines] for i in range(machines)]


def distributed_sieve_plus_max(instance: Instance, oracle: SubmodularOracle,
                               lam: float, alpha: float, epsilon: float,
                               config: MpcConfig | None = None,
                               ledger: QueryLedger | None = None) -> DistributedResult:
    """Distributed thresholding plus one augmentation round.

    Runs one round per threshold level (none are skipped; machines cannot
    certify emptiness for elements they never saw), then a final round where
    machines try their local elements against greedily reordered prefixes of
    the collection.  With one machine it runs Sieve+Max's kernels on the
    same grid, in a different scan order.
    """
    config = config or MpcConfig.for_instance(instance)
    config.validate(instance)
    ledger = ledger or QueryLedger()
    meter = RunMeter("distributed_sieve_plus_max", instance, ledger)
    q_mark = ledger.query_count

    n = instance.n
    m = config.machines
    all_ids = instance.element_ids()
    p = 1.0 if n == 0 else min(1.0, config.sample_factor * math.sqrt(instance.k_tilde / n))

    ws_t = oracle.working_set((), oracle.evaluate((), ledger))  # central collection
    log = RoundLog()
    levels = threshold_levels(lam, alpha, epsilon, instance.capacity)

    for rno, t in enumerate(levels):
        rng = random.Random(config.seed * 1_000_003 + rno)
        gamma = [eid for eid in all_ids if eid not in ws_t.ids and rng.random() < p]
        slices = _partition(all_ids, m, rng)

        sample = None  # (ws_g, accepted ids, queries) of the sample's pass

        def machine(t_list, gamma_items, local_items):
            # t_list counts toward the load.  The sample's pass is the same
            # on every machine: the first runs it, each later one is charged.
            nonlocal sample
            if sample is None:
                mark = ledger.query_count
                ws_g, accepted, _ = threshold_pass(oracle, gamma_items, t,
                                                   ws_t, ledger)
                sample = (ws_g, [eid for eid, _ in accepted],
                          ledger.query_count - mark)
            else:
                ledger._admit_batch(sample[2])
            ws_g, sample_ids, _ = sample
            _, accepted, _ = threshold_pass(oracle, local_items, t, ws_g, ledger)
            return sample_ids + [eid for eid, _ in accepted]

        payloads = [(ws_t.order, gamma, slices[i]) for i in range(m)]
        outputs = simulate_round([machine] * m, payloads, config.memory_cap)

        arrivals = [eid for out in outputs for eid in out]
        ws_t, _, _ = threshold_pass(oracle, arrivals, t, ws_t, ledger)
        log.add(round=rno, threshold=t, gamma_size=len(gamma),
                sent_per_machine=tuple(len(o) for o in outputs),
                sent_total=len(arrivals), t_size=len(ws_t.order),
                queries=ledger.query_count - q_mark)
        q_mark = ledger.query_count

    # augmentation round against greedily reordered prefixes
    rng = random.Random(config.seed * 1_000_003 + len(levels))
    prefixes = greedy_order(instance, oracle, ws_t.ids, ledger)
    slices = _partition(all_ids, m, rng)

    def aug_machine(t_list, local_items):
        # t_list counts toward the load; every machine augments the
        # coordinator's prefixes
        return augment_pass(oracle, local_items, prefixes, ledger)

    payloads = [(prefixes[-1].order, slices[i]) for i in range(m)]
    outputs = simulate_round([aug_machine] * m, payloads, config.memory_cap)
    ids, value = best_augmented(prefixes, [c for out in outputs for c in out])
    log.add(round=len(levels), threshold=0.0, gamma_size=0,
            sent_per_machine=tuple(len(o) for o in outputs),
            sent_total=sum(len(o) for o in outputs), t_size=len(ws_t.order),
            queries=ledger.query_count - q_mark)

    report = meter.report(ids, value, rounds=len(levels) + 1,
                          max_central_receipts=log.max_central_receipts)
    return DistributedResult(report, log)
