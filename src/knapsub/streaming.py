"""Multi-pass streaming algorithms built on descending density thresholds.

The thresholding stage walks a geometric grid of density thresholds from
lam/(alpha*K) down to lam/(2K), taking one pass per executed level and
collecting any element whose marginal density strictly clears the level
while still fitting the budget.  Because marginal densities only shrink as
the collected set grows, the largest density recorded during a pass is a
certificate that every level above it would collect nothing; such levels
are skipped without touching the stream.  Skipping never changes the
collected set, it only avoids provably idle traversals.

Distributed+Max shares its kernels with the sieves: ``first_accept``, the
one "clears the level" scan, on array-view positions, that
``threshold_pass`` runs on each chunk and a machine on its whole slice;
``threshold_pass``, the one "clears the level and still fits" filter; and
``augment_pass`` with ``best_augmented``, the one prefix-plus-one
augmentation and its final pick.  With one machine it therefore applies
Sieve+Max's filter rule, augmentation and tie rule; only its scan order
differs, and that alone can change the collected set.  Both augment the
prefixes, as working sets, that ``greedy_order`` returns.

A stream carries ids only and every cost comes from the instance.  Both
kernels read the raw stream: they skip base-set ids (cost 0, in every
evaluation already) without a query, and raise ``KeyError("stream id X is
not in the instance")`` on an id the instance does not hold, before any
query on it.  ``_scan``, a per-item generator that does the same, serves
only the estimator and ``sieve_or_max``'s singleton list.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import compress, islice

import numpy as np

from .core import (
    AlgoReport,
    GreedyTrace,
    Instance,
    QueryLedger,
    RunMeter,
    SubmodularOracle,
    TraceStep,
    WorkingSet,
)
from .errors import InvalidLambda
from .offline import greedy_order


class StreamSource:
    """Replayable sequence of element ids; every traversal bumps
    ``pass_count``.  It holds no costs: the solvers take every cost from
    their instance, and raise ``KeyError`` on an id the instance does not
    hold."""

    def __init__(self, ids):
        self._ids = list(ids)
        self.pass_count = 0

    @classmethod
    def from_instance(cls, instance: Instance) -> "StreamSource":
        return cls(instance.element_ids())

    def scan(self):
        self.pass_count += 1
        yield from self._ids


def _scan(stream: StreamSource, instance: Instance):
    """One pass over ``stream`` without the instance's base-set ids.

    An id the instance does not hold raises ``KeyError`` when the pass
    reaches it, before any query on it.
    """
    at, base = instance._at, instance.n  # every base id sits at position n
    for eid in stream.scan():
        p = at.get(eid)
        if p is None:
            raise _unknown(eid)
        if p != base:
            yield eid


def _unknown(eid) -> KeyError:
    return KeyError(f"stream id {eid!r} is not in the instance")


# a sieve may spend a stream pass per level and the estimator keeps a set
# per grid index: a wider grid comes from a mistaken epsilon
MAX_LEVELS = 100_000

# the augmentation pass holds at most this many stream items at once, and
# so does a threshold pass
AUGMENT_CHUNK = 4096

# a threshold pass first reads this many items ahead
FIRST_CHUNK = 16


def grid_size(ratio: float, epsilon: float) -> int:
    """At most how many levels of step 1+epsilon a range of factor ``ratio``
    holds, one for rounding included; ``ValueError`` above ``MAX_LEVELS``."""
    span = math.log(max(ratio, 1.0)) / math.log1p(epsilon)
    if span > MAX_LEVELS - 1:
        raise ValueError(f"a grid of step 1+{epsilon!r} over a factor {ratio:.3g} "
                         f"would exceed MAX_LEVELS={MAX_LEVELS} levels")
    return math.ceil(span) + 1


def threshold_levels(lam: float, alpha: float, epsilon: float, k: float):
    """Geometric threshold grid, highest first: lam/(alpha*k) shrinking by
    (1+epsilon) while still above lam/(2k), at most :func:`grid_size` of
    2/alpha levels.

    ``InvalidLambda`` rejects, before the first level, a ``lam`` that is
    not positive and finite (NaN included), whose top level lam/(alpha*k)
    overflows to inf, or whose floor lam/(2k) lies where floats are over
    epsilon*floor/4 apart, so far below the normal range that tau could
    round back to itself (5e-324/1.1 == 5e-324).  On any finer floor each
    division shrinks tau and rounds it by at most epsilon/8 of itself.
    """
    if not 0 < lam < math.inf:
        raise InvalidLambda(f"value estimate must be positive and finite, "
                            f"got {lam!r}")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    grid_size(2.0 / alpha, epsilon)
    levels = []
    tau = lam / (alpha * k)
    if math.isinf(tau):
        raise InvalidLambda(f"the top level lam/(alpha*k) overflows for "
                            f"lam={lam!r}, alpha={alpha!r}, k={k!r}")
    floor = lam / (2.0 * k)
    if math.ulp(floor) > epsilon * floor / 4:
        raise InvalidLambda(f"the floor lam/(2k) lies too far below the normal float "
                            f"range for lam={lam!r}, k={k!r}, epsilon={epsilon!r}")
    while tau > floor:
        levels.append(tau)
        tau /= 1.0 + epsilon
    return levels


def _grid_indices(lo: float, hi: float, log_base: float) -> range:
    """The i with lo <= base^i <= hi, give or take rounding."""
    return range(math.ceil(math.log(lo) / log_base - 1e-9),
                 math.floor(math.log(hi) / log_base + 1e-9) + 1)


@dataclass
class OptEstimate:
    """Result of the single-pass value estimator: ``lam`` and ``alpha``
    seed the sieves; the remaining fields are diagnostics used to seed
    later stages (the exact max singleton density) and to audit the space
    bound (peak retained element count across parallel sieves).
    """

    lam: float
    alpha: float
    max_singleton_density: float = 0.0
    peak_retained: int = 0


def first_accept(oracle: SubmodularOracle, ws: WorkingSet, positions,
                 tau: float, ledger: QueryLedger, singles: dict | None = None):
    """Ask f(S + e) of the elements at ``positions`` in the array view, all
    outside S and fitting it, in order up to and including the first whose
    clamped density max(0, gain)/c_e strictly clears ``tau``.  Returns
    ``(used, gain, seen)``: how many were asked, that item's gain
    (``None`` when none clears), and the highest density among the
    others.  ``singles``, when given and S is empty, receives each asked
    item's gain by id.

    The values come from :meth:`SubmodularOracle.values_ahead` and are
    settled with :meth:`SubmodularOracle.charge_ahead`, so exactly the
    ``used`` queries are counted, stopped by a budget and checked for
    NaN and infinities as single queries would be.  A protocol
    objective's array is scanned in a few NumPy passes; any other
    objective's values are read one lazy query at a time, so nothing is
    asked beyond the first item that clears.
    """
    inst = oracle.instance
    values = oracle.values_ahead(ws, positions, ledger)
    costs = inst.costs[positions]
    base = ws.value
    if isinstance(values, np.ndarray):
        gains = values - base
        density = np.maximum(gains, 0.0) / costs
        clears = density > tau
        hit = bool(clears.any())
        used = int(clears.argmax()) + 1 if hit else len(positions)
        rejected = density[:used - hit]
        seen = float(rejected.max()) if rejected.size else 0.0
        gains = gains[:used].tolist()
    else:
        gains, hit, seen = [], False, 0.0
        for value, cost in zip(values, costs):
            gain = value - base
            gains.append(gain)
            density = max(0.0, gain) / cost
            if density > tau:
                hit = True
                break
            if density > seen:
                seen = density
    oracle.charge_ahead(ws, positions, values, len(gains), ledger)
    if singles is not None and not ws.ids:
        singles.update(zip(inst.ids[positions[:len(gains)]].tolist(), gains))
    return len(gains), gains[-1] if hit else None, seen


def _skip_mask(inst, order) -> np.ndarray:
    """A bool mask by position, of ``inst.n + 2`` slots, set at each
    member in ``order`` and at n, every base id: what a pass skips."""
    skip = np.zeros(inst.n + 2, dtype=bool)
    skip[inst.locate(order)] = skip[inst.n] = True
    return skip


def threshold_pass(oracle: SubmodularOracle, items, tau: float,
                   ws: WorkingSet, ledger: QueryLedger, singles: dict | None = None):
    """One thresholding sweep of ``items`` against the working set ``ws``,
    whose ``value`` is f(S) on entry.

    Members, base ids and items that no longer fit are skipped, and an id
    the instance does not hold raises ``KeyError`` once the items read
    before it have run, with no query on it.  An item joins iff its
    clamped density max(0, gain)/c_e strictly clears ``tau``, and the
    set's value grows by its gain.  Returns ``(ws, accepted, seen)``:
    the grown working set, the accepted (id, gain) pairs in order, and the
    highest density among fitting items that were rejected, which bounds
    every density at the next lower level.  ``singles``, when given,
    receives the gain of each item evaluated while the set is empty, which
    is its singleton gain.

    The pass reads the fitting items a chunk at a time and asks each chunk,
    located as array-view positions, against the fixed S with
    :func:`first_accept`, up to and including the first accept, then
    resumes just after it, against the grown set.  Its member and fit
    filter works on the chunk's positions: :func:`_skip_mask`, shared with
    :func:`augment_pass`, and ``Instance.fit_mask``.  The chunk starts at
    ``FIRST_CHUNK`` items, doubles after a chunk without an accept up to
    ``AUGMENT_CHUNK``, and starts over after an accept.  A protocol
    objective computes each chunk ahead; what the pass never read
    is tallied in ``QueryLedger.speculative_evaluations``, not counted as
    queries.  Any other objective is asked one query per item read, so
    nothing is computed ahead.  Either way the pass asks, counts, stops at
    a budget or a non-finite value, and records ``seen`` and ``singles``
    exactly as one query at a time would.  ``items`` is read lazily and at
    most one chunk is held.
    """
    inst = oracle.instance
    skip = _skip_mask(inst, ws.order)
    size = FIRST_CHUNK
    accepted = []
    seen = 0.0
    items = iter(items)
    pending: list[int] = []  # read, not yet charged, in stream order
    failed = None            # an error raised by ``items`` while reading
    while True:
        if len(pending) < size and failed is None:
            try:
                for eid in islice(items, size - len(pending)):
                    if eid not in inst._at:
                        raise _unknown(eid)
                    pending.append(eid)
            except KeyError as exc:  # an unknown id: the items before it run
                failed = exc
        if not pending:
            if failed is not None:
                raise failed
            return ws, accepted, seen
        head = pending[:size]
        del pending[:size]
        at = inst.locate(head)
        keep = ~skip[at] & inst.fit_mask(at, ws.room)
        if not keep.any():
            size = min(2 * size, AUGMENT_CHUNK)
            continue
        chunk, at = list(compress(head, keep.tolist())), at[keep]
        used, gain, top = first_accept(oracle, ws, at, tau, ledger, singles)
        if top > seen:
            seen = top
        if gain is None:
            size = min(2 * size, AUGMENT_CHUNK)
        else:
            eid = chunk[used - 1]
            skip[at[used - 1]] = True
            ws = oracle.add(ws, eid, ws.value + gain)
            accepted.append((eid, gain))
            pending[:0] = chunk[used:]
            size = FIRST_CHUNK


def augment_pass(oracle: SubmodularOracle, items, prefixes,
                 ledger: QueryLedger):
    """Try every item outside ``prefixes[-1]`` on the deepest prefix that
    still fits it.

    ``prefixes`` are the working sets G_0 (empty) to G_m that
    ``greedy_order`` returns.  ``Instance`` admits only elements that fit
    alone, so G_0 fits every item.  Returns the best extension as
    ``[(value, j, id)]``, ``j`` the prefix length, the first item scanned
    winning ties, or ``[]`` when ``items`` hold nothing outside G_m.
    Base ids are skipped; an id not held raises ``KeyError`` before any
    query on its chunk.

    Items are read ``AUGMENT_CHUNK`` at a time.  The prefixes' rooms fall
    as they grow, so one ``searchsorted`` of the items' negated units
    (``Instance.unit_array``) over the prefixes' negated rooms finds each
    deepest fit.  The items on one prefix form one
    :meth:`SubmodularOracle.values_with` batch, asked prefix by prefix in
    the order the chunk first reaches them: the same queries, counted and
    stopped by a budget as single ones would be.
    """
    inst = oracle.instance
    # minus each prefix's room, which falls as the prefixes grow, clamped
    # as Instance.fit_mask clamps it
    rooms = -np.array([inst.clamp_room(p.room) for p in prefixes],
                      dtype=inst.unit_array.dtype)
    skip = _skip_mask(inst, prefixes[-1].order)
    best = None
    items = iter(items)
    while chunk := list(islice(items, AUGMENT_CHUNK)):
        at = inst.locate(chunk)
        if (at > inst.n).any():
            raise _unknown(chunk[int((at > inst.n).argmax())])
        at = at[~skip[at]]
        if not at.size:
            continue
        # deepest fit: the last prefix whose room is at least the item's units
        depth = np.searchsorted(rooms, -inst.unit_array[at], side="right") - 1
        values = np.empty(at.size)
        # items on one prefix share its state: one exact batch per prefix
        for j in depth[np.sort(np.unique(depth, return_index=True)[1])].tolist():
            on = depth == j
            values[on] = oracle.values_with(prefixes[j], at[on], ledger)
        k = int(values.argmax())  # the first scanned of equal values
        if best is None or values[k] > best[0]:
            best = (float(values[k]), int(depth[k]), int(inst.ids[at[k]]))
    return [] if best is None else [best]


def best_augmented(prefixes, extensions):
    """Final pick as ``(ids, value)``: the best bare prefix (shortest on
    ties), replaced by the first extension from ``augment_pass`` that is
    strictly better."""
    best = max(prefixes, key=lambda p: (p.value, -len(p.order)))
    ids, value = best.ids, best.value
    for v, j, eid in extensions:
        if v > value:
            ids, value = prefixes[j].ids | {eid}, v
    return ids, value


def _best_singleton(oracle, items, free, empty, ledger):
    """Best singleton as (value, id), the first scanned on ties.

    ``free`` maps ids to singleton gains already paid for; every other item
    costs one query against the ``empty`` working set.  ``Instance`` admits
    only elements that fit alone.
    """
    values = ((empty.value + free[eid] if eid in free
               else oracle.value_with(empty, eid, ledger), eid) for eid in items)
    return max(values, key=lambda c: c[0], default=None)


def _collect(stream, oracle, levels, ledger, density_cap, track_singletons):
    """Run the thresholding stage.  Returns the empty working set at f(∅),
    the collected working set, its trace and the best singleton as
    ``(value, id)`` (``None`` untracked).

    ``density_cap``, when given, must upper-bound every element's current
    marginal density (the estimator's exact singleton-density max serves);
    levels at or above the cap are skipped unexecuted.  During the first
    executed pass singleton values come for free while the set is empty and
    cost one extra query afterwards, which sieve_or_max uses.
    """
    inst = oracle.instance
    empty = oracle.working_set((), oracle.evaluate((), ledger))
    ws = empty
    cost_t = 0.0         # the trace's cumulative cost; fitting is decided in units
    value_t = empty.value
    steps: list[TraceStep] = []
    cap = math.inf if density_cap is None else density_cap
    best_single = None
    singles_pending = track_singletons

    for tau in levels:
        if tau >= cap:
            continue  # certificate: no remaining density clears this level
        if singles_pending:
            # the singleton pick revisits this pass's items in stream order
            items, singles, singles_pending = list(_scan(stream, inst)), {}, False
        else:
            items, singles = stream.scan(), None  # the kernel skips base ids
        ws, accepted, cap = threshold_pass(oracle, items, tau, ws, ledger,
                                           singles)
        for eid, gain in accepted:
            c_e = inst.cost_of(eid)
            steps.append(TraceStep(cost_t, value_t, max(0.0, gain) / c_e))
            cost_t += c_e
            value_t += gain
        if singles is not None:
            best_single = _best_singleton(oracle, items, singles, empty, ledger)

    if singles_pending:
        # every level was skipped; spend one dedicated singleton pass
        best_single = _best_singleton(oracle, _scan(stream, inst), {}, empty,
                                      ledger)

    steps.append(TraceStep(cost_t, ws.value, 0.0))
    return empty, ws, GreedyTrace(steps), best_single


def _check_k(k: float, oracle: SubmodularOracle) -> None:
    """``k`` only sets the threshold grid and the estimator's floor; what
    fits is decided by ``oracle.instance``, so the two budgets must agree."""
    if k != oracle.instance.capacity:
        raise ValueError(f"k={k!r} differs from the instance capacity "
                         f"{oracle.instance.capacity!r}")


def _threshold_stage(name, stream, k, oracle, lam, alpha, epsilon, ledger,
                     density_cap, track_singletons):
    """Shared start of the three sieves: checks, meter, and ``_collect``'s
    empty and collected working sets, trace and best singleton."""
    _check_k(k, oracle)
    ledger = ledger or QueryLedger()
    meter = RunMeter(name, oracle.instance, ledger, stream)
    levels = threshold_levels(lam, alpha, epsilon, k)
    return ledger, meter, _collect(stream, oracle, levels, ledger, density_cap,
                                   track_singletons)


def sieve(stream: StreamSource, k: float, oracle: SubmodularOracle,
          lam: float, alpha: float, epsilon: float,
          ledger: QueryLedger | None = None,
          density_cap: float | None = None) -> AlgoReport:
    """Thresholding stage alone: return the collected set.

    ``k`` must equal ``oracle.instance.capacity`` (``ValueError`` otherwise),
    and a stream id the instance does not hold raises ``KeyError`` when the
    pass reaches it; the same holds for ``sieve_or_max``, ``sieve_plus_max``
    and ``estimate_lambda``.  The three sieves raise ``InvalidLambda``
    before any query on a ``lam`` that :func:`threshold_levels` rejects.
    """
    _, meter, (_, ws, trace, _) = _threshold_stage(
        "sieve", stream, k, oracle, lam, alpha, epsilon, ledger, density_cap,
        False)
    return meter.report(ws.ids, ws.value, trace)


def sieve_or_max(stream: StreamSource, k: float, oracle: SubmodularOracle,
                 lam: float, alpha: float, epsilon: float,
                 ledger: QueryLedger | None = None,
                 density_cap: float | None = None) -> AlgoReport:
    """Better of the collected set and the best feasible singleton.

    The singleton pick revisits the first executed pass's items, so that
    pass is read into a list: unlike the other sieves, this one holds
    O(n) stream ids at once.
    """
    _, meter, (_, ws, trace, single) = _threshold_stage(
        "sieve_or_max", stream, k, oracle, lam, alpha, epsilon, ledger,
        density_cap, True)
    ids, value = ws.ids, ws.value
    if single is not None and single[0] > value:
        value, ids = single[0], [single[1]]
    return meter.report(ids, value, trace)


def sieve_plus_max(stream: StreamSource, k: float, oracle: SubmodularOracle,
                   lam: float, alpha: float, epsilon: float,
                   ledger: QueryLedger | None = None,
                   density_cap: float | None = None) -> AlgoReport:
    """Thresholding plus one augmentation pass over collected-set prefixes.

    The collection is reordered greedily in memory (it fits the budget, so
    this costs no stream pass, and G_0 is the empty set at the f(∅) the
    stage asked), then every outside element is tried on the deepest
    reordered prefix it still fits (one ``searchsorted`` over the
    prefixes' rooms); the answer is the best prefix-plus-one-item
    combination, bare prefixes included.
    """
    ledger, meter, (empty, ws, trace, _) = _threshold_stage(
        "sieve_plus_max", stream, k, oracle, lam, alpha, epsilon, ledger,
        density_cap, False)
    prefixes = greedy_order(oracle.instance, oracle, ws.ids, ledger, empty)
    extensions = augment_pass(oracle, stream.scan(), prefixes, ledger)
    ids, value = best_augmented(prefixes, extensions)
    return meter.report(ids, value, trace)


def estimate_lambda(stream: StreamSource, k: float, oracle: SubmodularOracle,
                    epsilon_est: float = 1 / 6,
                    ledger: QueryLedger | None = None) -> OptEstimate:
    """Single-pass constant-factor estimate of the optimal value.

    Maintains parallel threshold sets on the absolute geometric grid
    (1+epsilon_est)^i, keeping only indices between the adaptive floor
    max(2*LB, 2*best-singleton)/(3k) and the best singleton value.  Each
    arriving element joins every maintained set whose threshold its marginal
    density meets, provided the set stays within budget, so every set is
    feasible and the estimate never exceeds the optimum.  Returns an
    estimate ``lam`` with ``alpha`` = 1/3 - epsilon_est.
    ``k`` must equal ``oracle.instance.capacity``, 1 + epsilon_est must
    round above 1, and the indices' widest span, 3k(1+epsilon_est)/2, must
    pass :func:`grid_size` (or ``ValueError``, before any query).

    Per element, the singleton query f({e}) comes first, since it moves
    the window, which is recomputed only when LB or delta has changed.
    Then each non-empty window set that the element fits and is not in is
    one :meth:`SubmodularOracle.value_with` query, in index order.  An
    empty set's query would be f({e}) again: it is answered with the value
    just asked and counted once, as the singleton, so the ledger counts
    exactly the queries the objective is asked.  Only the sets that hold
    something are kept, and they fill the window's lowest rows; the empty
    rows above them whose threshold f({e})/c_e meets end at one ``bisect``
    of the ascending thresholds, and all take the same working set {e}.
    A value so large that the window's floor max(2*LB, 2*delta)/(3k)
    overflows a float, or so small that it underflows to 0, raises
    ``ValueError``, naming the value.
    """
    base = 1.0 + epsilon_est
    if not (0 < epsilon_est < 1 / 3 and base > 1.0):
        raise ValueError(f"epsilon_est must lie in (0, 1/3) with 1 + epsilon_est "
                         f"above 1, got {epsilon_est!r}")
    _check_k(k, oracle)
    grid_size(1.5 * k * base, epsilon_est)
    ledger = ledger or QueryLedger()
    inst = oracle.instance
    log_base = math.log(base)

    delta = 0.0          # best singleton value so far
    lb = 0.0             # best collected-set value so far
    max_density = 0.0
    # the empty set is recorded at 0 (the estimator never queries it)
    empty = oracle.working_set((), 0.0)
    window = range(0)    # the grid indices kept, ascending
    # the non-empty threshold sets, the window's lowest rows: e joins every
    # empty row up to its cut, and while a set is held neither end of the
    # window falls, so rows leave at the bottom and enter empty at the top
    sets: list[WorkingSet] = []
    taus: list[float] = []       # base ** i for each index in window
    floor_of = None      # the (lb, delta) that window was computed for
    retained = peak = 0

    for eid in _scan(stream, inst):
        c_e = inst.cost_of(eid)
        fe = oracle.value_with(empty, eid, ledger)
        if fe > delta:
            delta = fe
        density = fe / c_e
        max_density = max(max_density, density)
        if delta <= 0:
            continue

        if floor_of != (lb, delta):
            floor_of = lb, delta
            tau_min = max(2.0 * lb, 2.0 * delta) / (3.0 * k)
            if math.isinf(tau_min):
                raise ValueError(f"value {max(lb, delta)!r} is too large for the "
                                 f"grid: its floor max(2*LB, 2*delta)/(3k) overflows")
            if tau_min == 0:
                raise ValueError(f"value {max(lb, delta)!r} is too small for the "
                                 f"grid: its floor max(2*LB, 2*delta)/(3k) is 0")
            active = _grid_indices(tau_min / base, delta, log_base)
            lo, hi = active.start, active.stop
            if sets:
                lo, hi = max(lo, window.start), max(hi, window.stop)
            retained -= sum(len(ws.order) for ws in sets[:lo - window.start])
            del sets[:lo - window.start]
            window = range(lo, hi)
            taus = [base ** i for i in window]
        need = inst.unit_array.item(inst._at[eid])
        for r, ws in enumerate(sets):
            if eid in ws.ids or need > ws.room:
                continue
            gain = oracle.value_with(ws, eid, ledger) - ws.value
            if gain / c_e >= taus[r]:
                ws = sets[r] = oracle.add(ws, eid, ws.value + gain)
                lb = max(lb, ws.value)
                retained += 1
        # e joins every empty row whose threshold its density meets, all
        # alike: the taus ascend, so those rows end at one cut
        joined = bisect.bisect_right(taus, density) - len(sets)
        if joined > 0:
            sets += [oracle.add(empty, eid, fe)] * joined
            lb = max(lb, fe)
            retained += joined
        peak = max(peak, retained)

    return OptEstimate(max(lb, delta), 1 / 3 - epsilon_est, max_density, peak)
