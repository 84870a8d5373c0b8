"""Multi-pass streaming algorithms built on descending density thresholds.

The thresholding stage walks a geometric grid of density thresholds from
lam/(alpha*K) down to lam/(2K), taking one pass per executed level and
collecting any element whose marginal density strictly clears the level
while still fitting the budget.  Because marginal densities only shrink as
the collected set grows, the largest density recorded during a pass is a
certificate that every level above it would collect nothing; such levels
are skipped without touching the stream.  Skipping never changes the
collected set, it only avoids provably idle traversals.

Distributed+Max shares two kernels with the sieves: ``threshold_pass``,
the one "clears the level and still fits" filter, and ``augment_pass`` with
``best_augmented``, the one prefix-plus-one augmentation and its final
pick.  With one machine it therefore runs Sieve+Max's filter, augmentation
and tie rule by construction; only its scan order differs, and that alone
can change the collected set.  Both augment the prefixes, as working sets,
that ``greedy_order`` returns.

A stream carries ids only and every cost comes from the instance; ``_scan``
skips base-set ids (cost 0, in every evaluation already) without a query,
and raises ``KeyError`` on an id the instance does not hold.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

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

    def __len__(self):
        return len(self._ids)


def _scan(stream: StreamSource, instance: Instance):
    """One pass over ``stream`` without the instance's base-set ids.

    An id the instance does not hold raises ``KeyError`` when the pass
    reaches it, before any query on it.
    """
    units = instance.units  # base ids hold 0 units, elements more
    for eid in stream.scan():
        try:
            held = units[eid]
        except KeyError:
            raise KeyError(f"stream id {eid!r} is not in the instance") from None
        if held:
            yield eid


# a sieve may spend a stream pass per level and the estimator keeps a set
# per grid index: a wider grid comes from a mistaken epsilon
MAX_LEVELS = 100_000


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
    2/alpha levels."""
    if lam <= 0:
        raise InvalidLambda(f"value estimate must be positive, got {lam!r}")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grid_size(2.0 / alpha, epsilon)
    levels = []
    tau = lam / (alpha * k)
    floor = lam / (2.0 * k)
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
    """Result of the single-pass value estimator.

    Unpacks as ``(lam, alpha)``; the remaining fields are diagnostics used
    to seed later stages (the exact max singleton density) and to audit the
    space bound (peak retained element count across parallel sieves).
    """

    lam: float
    alpha: float
    max_singleton_density: float = 0.0
    peak_retained: int = 0

    def __iter__(self):
        return iter((self.lam, self.alpha))


def threshold_pass(oracle: SubmodularOracle, items, tau: float,
                   ws: WorkingSet, ledger: QueryLedger, singles: dict | None = None):
    """One thresholding sweep of ``items`` against the working set ``ws``,
    whose ``value`` is f(S) on entry.

    Members and items that no longer fit are skipped; an item joins the set
    iff its clamped density max(0, gain)/c_e strictly clears ``tau``, and
    the set's value grows by its gain.  Returns ``(ws, accepted, seen)``:
    the grown working set, the accepted (id, gain) pairs in order, and the
    highest density among fitting items that were rejected, which bounds
    every density at the next lower level.  ``singles``, when given,
    receives the gain of each item evaluated while the set is empty, which
    is its singleton gain.
    """
    inst = oracle.instance
    units = inst.units
    accepted = []
    seen = 0.0
    for eid in items:
        if eid in ws.ids or units[eid] > ws.room:
            continue
        gain = oracle.value_with(ws, eid, ledger) - ws.value
        if singles is not None and not ws.ids:
            singles[eid] = gain
        density = max(0.0, gain) / inst.cost_of(eid)
        if density > tau:
            ws = oracle.add(ws, eid, ws.value + gain)
            accepted.append((eid, gain))
        elif density > seen:
            seen = density
    return ws, accepted, seen


def augment_pass(oracle: SubmodularOracle, items, prefixes,
                 ledger: QueryLedger):
    """Try every item outside ``prefixes[-1]`` on the deepest prefix that
    still fits it.

    ``prefixes`` are the working sets G_0 (empty) to G_m that
    ``greedy_order`` returns.  ``Instance`` admits only elements that fit
    alone, so G_0 fits every item.  Returns the best extension as
    ``[(value, j, id)]``, ``j`` the prefix length, the first item scanned
    winning ties, or ``[]`` when ``items`` hold nothing outside G_m.
    """
    inst = oracle.instance
    # exact prefix costs, nondecreasing, so bisect finds the deepest fit
    prefix_units = [inst.unit_capacity - p.room for p in prefixes]
    members = prefixes[-1].ids
    best = None
    for eid in items:
        if eid in members:
            continue
        j = bisect.bisect_right(prefix_units, inst.room((eid,))) - 1
        v = oracle.value_with(prefixes[j], eid, ledger)
        if best is None or v > best[0]:
            best = (v, j, eid)
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
    """Run the thresholding stage.  Returns the collected working set, its
    trace and the best singleton as ``(value, id)`` (``None`` untracked).

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
        items = _scan(stream, inst)
        singles = None
        if singles_pending:
            # the singleton pick revisits this pass's items in stream order
            items, singles, singles_pending = list(items), {}, False
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
    return ws, GreedyTrace(steps), best_single


def _check_k(k: float, oracle: SubmodularOracle) -> None:
    """``k`` only sets the threshold grid and the estimator's floor; what
    fits is decided by ``oracle.instance``, so the two budgets must agree."""
    if k != oracle.instance.capacity:
        raise ValueError(f"k={k!r} differs from the instance capacity "
                         f"{oracle.instance.capacity!r}")


def _threshold_stage(name, stream, k, oracle, lam, alpha, epsilon, ledger,
                     density_cap, track_singletons):
    """Shared start of the three sieves: checks, meter, and ``_collect``'s
    working set, trace and best singleton."""
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
    and ``estimate_lambda``.
    """
    _, meter, (ws, trace, _) = _threshold_stage(
        "sieve", stream, k, oracle, lam, alpha, epsilon, ledger, density_cap,
        False)
    return meter.report(ws.ids, ws.value, trace)


def sieve_or_max(stream: StreamSource, k: float, oracle: SubmodularOracle,
                 lam: float, alpha: float, epsilon: float,
                 ledger: QueryLedger | None = None,
                 density_cap: float | None = None) -> AlgoReport:
    """Better of the collected set and the best feasible singleton."""
    _, meter, (ws, trace, single) = _threshold_stage(
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
    this costs no stream pass), then every outside element is tried on the
    deepest reordered prefix it still fits (binary search over the monotone
    prefix costs); the answer is the best prefix-plus-one-item combination,
    bare prefixes included.
    """
    ledger, meter, (ws, trace, _) = _threshold_stage(
        "sieve_plus_max", stream, k, oracle, lam, alpha, epsilon, ledger,
        density_cap, False)
    prefixes = greedy_order(oracle.instance, oracle, ws.ids, ledger)
    extensions = augment_pass(oracle, _scan(stream, oracle.instance), prefixes,
                              ledger)
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
    estimate unpacking as (lam, alpha) with alpha = 1/3 - epsilon_est.
    ``k`` must equal ``oracle.instance.capacity``, and the indices' widest
    span, 3k(1+epsilon_est)/2, must pass :func:`grid_size` (or ``ValueError``).
    """
    if epsilon_est <= 0 or epsilon_est >= 1 / 3:
        raise ValueError("epsilon_est must lie in (0, 1/3)")
    _check_k(k, oracle)
    base = 1.0 + epsilon_est
    grid_size(1.5 * k * base, epsilon_est)
    ledger = ledger or QueryLedger()
    inst = oracle.instance
    units = inst.units
    log_base = math.log(base)

    delta = 0.0          # best singleton value so far
    lb = 0.0             # best collected-set value so far
    max_density = 0.0
    # the empty set is recorded at 0 (the estimator never queries it)
    empty = oracle.working_set((), 0.0)
    sets: dict[int, WorkingSet] = {}   # grid index -> threshold set
    peak = 0

    for eid in _scan(stream, inst):
        c_e = inst.cost_of(eid)
        fe = oracle.value_with(empty, eid, ledger)
        if fe > delta:
            delta = fe
        max_density = max(max_density, fe / c_e)
        if delta <= 0:
            continue

        tau_min = max(2.0 * lb, 2.0 * delta) / (3.0 * k)
        active = _grid_indices(tau_min / base, delta, log_base)
        for i in [i for i in sets if i < active.start]:
            del sets[i]
        for i in active:
            ws = sets.setdefault(i, empty)
            if eid in ws.ids or units[eid] > ws.room:
                continue
            gain = oracle.value_with(ws, eid, ledger) - ws.value
            if gain / c_e >= base ** i:
                ws = sets[i] = oracle.add(ws, eid, ws.value + gain)
                lb = max(lb, ws.value)
        peak = max(peak, sum(len(ws.order) for ws in sets.values()))

    return OptEstimate(max(lb, delta), 1 / 3 - epsilon_est, max_density, peak)
