"""Round-based distributed variant of the threshold-plus-augmentation solver.

The coordinator walks the same descending threshold grid as the streaming
code, one synchronous round per level.  Each round every machine receives
the current collected set, a shared random sample of the ground set, and a
random slice of it, filters both through the threshold locally, and sends
the survivors up; the coordinator refilters arrivals in machine order.  A
final round reorders the collection greedily and lets machines race their
best single-element augmentation against the bare prefixes.

Every filter is the streaming module's one scan, ``first_accept``: the
sample's pass and the coordinator call ``threshold_pass``, and a machine
asks its fitting slice, as array-view positions, against the grown set G
in one batch and hands what follows its first accept, as ids, to
``threshold_pass``.  The last round calls ``augment_pass`` and
``best_augmented`` on the coordinator's greedy prefixes, which every
machine shares.

The simulation runs machines sequentially in index order, so results are
reproducible and independent of any physical parallelism.  Per-machine
memory is asserted, never truncated.  Every machine would filter the
round's shared sample against the same collected set and get the same
answer, so the first machine filters it once and every later machine is
charged that pass's queries on the ledger before filtering its own slice:
ids, values, ledger counts, rounds and receipts are those of m separate
passes, but a wrapper on the objective sees the sample's queries only once.
Machines index the instance's array view, and share one mask per round:
the elements outside G that fit its room, by ``Instance.fit_mask``.

Each round draws from one ``random.Random``: ``random() < p`` per id
outside the collection, then ``shuffle`` for the slices.  Both are
replayed word for word from ``getrandbits``, faster, so samples, slices
and the generator's final state are those of CPython's own calls.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AlgoReport,
    Instance,
    QueryLedger,
    RunMeter,
    SubmodularOracle,
)
from .errors import MemoryCapExceeded
from .offline import greedy_order
from .streaming import (
    augment_pass,
    best_augmented,
    first_accept,
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
    def for_instance(cls, instance: Instance, seed: int = 0) -> "MpcConfig":
        """Default shape: about sqrt(n / k_tilde) machines holding
        8 * sqrt(n * k_tilde) items each."""
        n = max(1, instance.n)
        kt = max(1, instance.k_tilde)
        return cls(max(1, round(math.sqrt(n / kt))), 8.0 * math.sqrt(n * kt), seed)

    def validate(self, instance: Instance) -> None:
        """``ValueError``, naming the field, on a shape that cannot run or
        would silently change the run: a machine count that is not a
        positive integer, a NaN or negative ``memory_cap`` (a NaN cap
        never binds), a ``sample_factor`` that is NaN or not positive (NaN
        samples everything, a negative factor nothing), or too little
        total memory for the instance."""
        if not isinstance(self.machines, numbers.Integral) or self.machines < 1:
            raise ValueError(f"machines must be a positive integer, "
                             f"got {self.machines!r}")
        if not self.memory_cap >= 0:
            raise ValueError(f"memory_cap must be a number >= 0, "
                             f"got {self.memory_cap!r}")
        if not self.sample_factor > 0:
            raise ValueError(f"sample_factor must be positive, "
                             f"got {self.sample_factor!r}")
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

    @property
    def max_central_receipts(self) -> int:
        return max((r.sent_total for r in self.records), default=0)


def simulate_round(workers, payloads, memory_cap: float):
    """Run one synchronous round, machines in index order.

    ``payloads[i]`` is a tuple of sequences handed to machine ``i``; their
    combined length is that machine's load for the round.  A load above
    ``memory_cap`` raises :class:`MemoryCapExceeded`.  Returns per-machine
    outputs in machine order.
    """
    outs = []
    for i, (worker, payload) in enumerate(zip(workers, payloads)):
        load = sum(len(part) for part in payload)
        if load > memory_cap:
            raise MemoryCapExceeded(
                f"machine {i} would hold {load} items, cap {memory_cap:.0f}")
        outs.append(worker(*payload))
    return outs


@dataclass
class DistributedResult:
    report: AlgoReport
    round_log: RoundLog


def _partition(n: int, machines: int, rng: random.Random) -> list[np.ndarray]:
    """The indices 0..n-1 in the order ``rng.shuffle`` leaves ``range(n)``,
    with ``rng`` in the same state afterwards, dealt round-robin to
    ``machines`` slices (position arrays).

    CPython's shuffle swaps x[i] with x[_randbelow(i + 1)] for i from the
    end down to 1, and ``_randbelow(b)`` redraws ``getrandbits(k)``, k the
    bit length of b, until it falls below b.  Both are inlined here, one
    band of equal k at a time.
    """
    perm = list(range(n))
    getrandbits = rng.getrandbits
    for k in range(n.bit_length(), 1, -1):
        for b in range(min(n, (1 << k) - 1), (1 << (k - 1)) - 1, -1):
            j = getrandbits(k)
            while j >= b:
                j = getrandbits(k)
            perm[b - 1], perm[j] = perm[j], perm[b - 1]
    perm = np.array(perm, dtype=np.intp)
    return [perm[i::machines] for i in range(machines)]


def _sample(items: np.ndarray, p: float, rng: random.Random) -> np.ndarray:
    """The entries of ``items`` that ``rng.random() < p`` keeps, one draw
    each in order, with ``rng`` left as those draws leave it.

    ``random()`` is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 on the next two
    32-bit words a, b; ``getrandbits(64 * c)`` yields the same 2c words,
    the first in its lowest bits, on every host.
    """
    c = len(items)
    if not c:
        return items
    words = np.frombuffer(rng.getrandbits(64 * c).to_bytes(8 * c, "little"),
                          dtype="<u4")
    draws = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) \
        * (1.0 / 9007199254740992.0)
    return items[draws < p]


def distributed_sieve_plus_max(instance: Instance, oracle: SubmodularOracle,
                               lam: float, alpha: float, epsilon: float,
                               config: MpcConfig | None = None,
                               ledger: QueryLedger | None = None) -> DistributedResult:
    """Distributed thresholding plus one augmentation round.

    Runs one round per threshold level (none are skipped; machines cannot
    certify emptiness for elements they never saw), then a final round in
    which machines try their local elements against greedily reordered
    prefixes of the collection.  With one machine it applies Sieve+Max's
    filter rule through the same scan helper on the same grid, in a
    different scan order.  A ``lam`` that
    :func:`~knapsub.streaming.threshold_levels` rejects raises
    ``InvalidLambda`` before any query.
    """
    config = config or MpcConfig.for_instance(instance)
    config.validate(instance)
    ledger = ledger or QueryLedger()
    meter = RunMeter("distributed_sieve_plus_max", instance, ledger)
    q_mark = ledger.query_count

    n = instance.n
    m = config.machines
    p = 1.0 if n == 0 else min(1.0, config.sample_factor * math.sqrt(instance.k_tilde / n))
    levels = threshold_levels(lam, alpha, epsilon, instance.capacity)
    ws_t = oracle.working_set((), oracle.evaluate((), ledger))  # central collection
    log = RoundLog()

    for rno, t in enumerate(levels):
        rng = random.Random(config.seed * 1_000_003 + rno)
        outside = np.ones(n, dtype=bool)
        outside[instance.locate(ws_t.order)] = False
        gamma = instance.ids[_sample(np.flatnonzero(outside), p, rng)].tolist()
        slices = _partition(n, m, rng)

        sample = None  # (ws_g, accepted ids, queries, fit mask outside G)

        def machine(t_list, gamma_items, local):
            # t_list counts toward the load.  The sample's pass is the same
            # on every machine: the first runs it, each later one is charged.
            nonlocal sample
            if sample is None:
                mark = ledger.query_count
                ws_g, accepted, _ = threshold_pass(oracle, gamma_items, t,
                                                   ws_t, ledger)
                fits = instance.fit_mask(np.arange(n), ws_g.room)
                fits[instance.locate(ws_g.order)] = False
                sample = (ws_g, [eid for eid, _ in accepted],
                          ledger.query_count - mark, fits)
            else:
                ledger._admit(sample[2])
            ws_g, sample_ids, _, fits = sample
            out = list(sample_ids)
            # the slice's fitting items against G in one batch; the pass
            # goes on from the first accept only if there is one
            local = local[fits[local]]
            if local.size:
                used, gain, _ = first_accept(oracle, ws_g, local, t, ledger)
                if gain is not None:
                    eid, *rest = instance.ids[local[used - 1:]].tolist()
                    out.append(eid)
                    ws = oracle.add(ws_g, eid, ws_g.value + gain)
                    _, accepted, _ = threshold_pass(oracle, rest, t, ws, ledger)
                    out += [eid for eid, _ in accepted]
            return out

        payloads = [(ws_t.order, gamma, slices[i]) for i in range(m)]
        outputs = simulate_round([machine] * m, payloads, config.memory_cap)

        arrivals = [eid for out in outputs for eid in out]
        ws_t, _, _ = threshold_pass(oracle, arrivals, t, ws_t, ledger)
        log.records.append(RoundRecord(
            round=rno, threshold=t, gamma_size=len(gamma),
            sent_per_machine=tuple(len(o) for o in outputs),
            sent_total=len(arrivals), t_size=len(ws_t.order),
            queries=ledger.query_count - q_mark))
        q_mark = ledger.query_count

    # augmentation round against greedily reordered prefixes
    rng = random.Random(config.seed * 1_000_003 + len(levels))
    prefixes = greedy_order(instance, oracle, ws_t.ids, ledger)
    slices = _partition(n, m, rng)

    def aug_machine(t_list, local_items):
        # t_list counts toward the load; every machine augments the
        # coordinator's prefixes
        return augment_pass(oracle, local_items, prefixes, ledger)

    payloads = [(prefixes[-1].order, instance.ids[slices[i]].tolist())
                for i in range(m)]
    outputs = simulate_round([aug_machine] * m, payloads, config.memory_cap)
    ids, value = best_augmented(prefixes, [c for out in outputs for c in out])
    log.records.append(RoundRecord(
        round=len(levels), threshold=0.0, gamma_size=0,
        sent_per_machine=tuple(len(o) for o in outputs),
        sent_total=sum(len(o) for o in outputs), t_size=len(ws_t.order),
        queries=ledger.query_count - q_mark))

    report = meter.report(ids, value, rounds=len(levels) + 1,
                          max_central_receipts=log.max_central_receipts)
    return DistributedResult(report, log)
