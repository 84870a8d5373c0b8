"""Offline algorithms: density greedy and its augmented variants.

All single-pass variants share one lazy sweep (Minoux's accelerated
greedy, with one bound for the density pick and one for the gain pick).
Each working item keeps its gain and its density from its last refresh;
submodularity keeps both upper bounds at every later prefix, so a step
asks again only the items whose bounds could still reach the best fresh
value, and reads both the best-density item (the greedy step) and the
best-gain item (the augmentation candidate) off those fresh values.  The
picks, prefixes and candidates are those of a sweep that asks every
fitting item at every step; plain greedy, greedy-or-max and
greedy-plus-max issue exactly the same oracle queries, so the stronger
outputs are free.  An item that stops fitting is never asked again: the
trace's ``ub_density`` takes its density bound from its last refresh, at
or above its density at the last prefix it fit, so it may lie above that
of the full sweep (or a few ulps below, as a stale coverage density can
sit ulps below a fresh one).  A protocol objective computes a step's
values ahead, a few more than the pass asks; those are tallied as
speculative, never counted as queries.  A run keeps its prefixes
G_0..G_m as working sets, each at its value; the answers and
:func:`greedy_order`'s callers read them directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

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

# a stale bound within this share of the best fresh value is asked again:
# a coverage gain computed at an earlier prefix can sit a few ulps below
# the same item's gain at a later one
SLACK = 1e-9
# a step first computes the items whose gain bound reaches this share of
# the previous step's best gain.  The best gain falls from step to step: a
# guess above the new one costs a second objective call (see _lazy_pass),
# one far below it values computed for nothing.  On the benchmark
# workloads 0.7 made a second call on 2 of 140 steps, 0.9 on 26, and 0.5
# on none but computed 30% more values on offline-coverage
GAIN_GUESS = 0.7


@dataclass
class OfflineResult:
    """Report plus the per-prefix augmentation candidates that were compared."""

    report: AlgoReport
    augmentations: list[tuple[int, int | None, float]] = field(default_factory=list)


@dataclass
class _GreedyRun:
    prefixes: list[WorkingSet]     # G_0..G_m, each recorded at its value
    candidates: list[tuple[int, int | None, float]]  # (i, best-gain id, f(G_i + s_i))
    trace: GreedyTrace


def _floor(best: float) -> float:
    """The lowest bound asked again beside the fresh ``best``."""
    return best * (1.0 - SLACK) if best > 0.0 else best * (1.0 + SLACK)


def _top(values) -> float:
    """The largest of ``values``, NaN first (by ``argmax``, which costs
    less than ``max``)."""
    return values.item(values.argmax())


def _fresh(instance: Instance, ws: WorkingSet, at, values):
    """The gains f(S + e) - f(S), e at ``at``, and the clamped densities
    max(0, gain) / c_e."""
    gains = values - ws.value
    return gains, np.maximum(gains, 0.0) / instance.costs[at]


def _reach(bounds, floors):
    """Whether each item's density or gain bound reaches that kind's floor."""
    return (bounds[0] >= floors[0]) | (bounds[1] >= floors[1])


def _lazy_pass(oracle: SubmodularOracle, ws: WorkingSet, at, bounds, guess,
               ledger: QueryLedger):
    """The values f(S + e), at the working set ``ws``, that a lazy pass
    over the items at positions ``at`` asks, all outside S and fitting it.

    ``bounds`` holds the items' density bounds and their gain bounds, -inf
    for an item out of the pass.  The pass asks the item with the highest
    bound of either kind while that bound is at least ``_floor`` of the
    best fresh value of that kind so far, which each answer may raise, so
    it asks exactly the items whose bound reaches the floor of the final
    best, in any order.

    A protocol objective computes, with
    :meth:`SubmodularOracle.values_ahead`, every item whose bound reaches
    the floor ``guess`` of its kind, each lowered to at most the floor of
    the top bound of its kind, so the batch holds the top-bound items.
    Where the floors of the bests it finds lie lower than ``guess`` and
    reach an item outside the batch, the batch is tallied as speculative
    and computed once more with every item those floors reach; that batch
    holds the bests found, so the floors of its own bests reach no item
    outside it.  Any other objective, or a batch holding a value that is
    not finite (tallied as speculative), runs the pass one counted query
    at a time, so it stops at a budget or a non-finite value where single
    queries would.

    Returns ``(idx, values, gains, densities, asked, ahead)``: the indices
    into ``at`` computed, ascending, their values, the gains and densities
    :func:`_fresh` gives them, a mask of those the pass asks, or ``None``
    where it asks them all, and the batch's positions where it was
    computed ahead, ``None`` where it was asked one query at a time.  The
    caller settles a batch computed ahead with
    :meth:`SubmodularOracle.charge_ahead`, counting the items asked.  A
    value computed and not asked lies below the best of both kinds.
    """
    guess = [min(g, _floor(_top(bound))) for g, bound in zip(guess, bounds)]
    reach = _reach(bounds, guess)
    for _ in range(2):
        idx = reach.nonzero()[0]
        pos = at[idx]
        values = oracle.values_ahead(ws, pos, ledger)
        if not (isinstance(values, np.ndarray) and math.isfinite(values.sum())):
            break
        gains, dens = _fresh(oracle.instance, ws, pos, values)
        floors = [_floor(_top(dens)), _floor(_top(gains))]
        if all(f >= g for f, g in zip(floors, guess)):
            asked = _reach([bound[idx] for bound in bounds], floors)
        else:  # the floors lie lower: may an item not computed reach them?
            reach = _reach(bounds, floors)
            asked = reach[idx]
            if np.count_nonzero(asked) < np.count_nonzero(reach):
                # computed again with every item the floors reach, which
                # hold the bests found, so their own floors reach no more
                oracle.charge_ahead(ws, pos, values, 0, ledger)
                guess = floors
                continue
        return (idx, values, gains, dens,
                None if asked.all() else asked, pos)
    if isinstance(values, np.ndarray):  # all speculative
        oracle.charge_ahead(ws, pos, values, 0, ledger)
    return (*_one_at_a_time(oracle, ws, at, bounds, ledger), None)


def _one_at_a_time(oracle: SubmodularOracle, ws: WorkingSet, at, bounds,
                   ledger: QueryLedger):
    """:func:`_lazy_pass` one counted :meth:`SubmodularOracle.value_with`
    query at a time, the highest bound first, the first on ties and a
    density bound before a gain bound."""
    inst = oracle.instance
    costs = inst.costs[at].tolist()
    ids = inst.ids[at].tolist()
    orders = [np.argsort(-bound, kind="stable").tolist() for bound in bounds]
    bounds = [bound.tolist() for bound in bounds]
    heads = [0, 0]
    best = [-math.inf, -math.inf]
    done = [False] * len(ids)
    asked = []
    while True:
        for k, order in enumerate(orders):
            while heads[k] < len(order) and done[order[heads[k]]]:
                heads[k] += 1
            if heads[k] < len(order) and bounds[k][order[heads[k]]] >= _floor(best[k]):
                j = order[heads[k]]
                break
        else:
            asked.sort()
            idx = np.array([j for j, _ in asked], dtype=np.intp)
            values = np.array([v for _, v in asked], dtype=float)
            return (idx, values, *_fresh(inst, ws, at[idx], values), None)
        value = oracle.value_with(ws, ids[j], ledger)
        gain = value - ws.value
        fresh = ((gain if gain > 0.0 else 0.0) / costs[j], gain)
        best = [max(b, f) for b, f in zip(best, fresh)]
        done[j] = True
        asked.append((j, value))


def _by_units(instance: Instance, working):
    """The indices of the items at positions ``working`` by units, largest
    first, and their units negated: the items a falling room no longer
    fits are a growing prefix, found by one search."""
    minus = -instance.unit_array[working]
    order = minus.argsort()
    return order, minus[order]


def _run_greedy(instance: Instance, oracle: SubmodularOracle, ledger: QueryLedger,
                seed_ids=(), restrict_to=None,
                start: WorkingSet | None = None) -> _GreedyRun:
    """Lazy density greedy from ``seed_ids``, harvesting augmentations and
    the trace.  ``start`` is the seed's working set where the caller holds
    it at its value; otherwise f(seed) is asked.

    The working elements are positions in the array view, in
    ``Instance.by_id`` order.  The first step asks them all in one
    :meth:`SubmodularOracle.values_with` batch; each then keeps its
    density and gain from its last refresh, -inf once it is picked or
    dropped.  A later step asks the items :func:`_lazy_pass` asks,
    computed first down to the previous step's best density, less twice
    the slack (a best that moved by a few ulps needs no second batch), and
    to ``GAIN_GUESS`` of its best gain.  The density pick and the gain pick
    (Greedy+Max's s_i) are read off the fresh values, the smallest id
    winning ties: an item not asked has bounds below both.

    Items that stop fitting the residual budget (the exact rule, on
    ``Instance.unit_array``) are dropped; they are found by one search of
    the items sorted by units, and never asked again.  The trace's
    ``ub_density`` keeps their highest density bound: for those asked at
    the prefix G_i they last fit, their density there; for the others,
    their bound from their last refresh, which submodularity keeps at or
    above their density at G_i.  The arrays are compacted once half their items
    are out.  ``restrict_to`` limits the pool to a subset of element ids.
    """
    ws = start
    if ws is None:
        ws = oracle.working_set(seed_ids, oracle.evaluate(seed_ids, ledger))
    cost_g = instance.cost(ws.order)
    pool = np.zeros(instance.n + 2, dtype=bool)  # by position
    if restrict_to is None:
        pool[:instance.n] = True
    else:
        pool[instance.locate(restrict_to)] = True
    pool[instance.locate(ws.order)] = False
    working = instance.by_id[pool[instance.by_id]]
    working = working[instance.fit_mask(working, ws.room)]
    cut = 0  # by_units[:cut] fit the room no more
    left = working.size

    prefixes = [ws]
    candidates: list[tuple[int, int | None, float]] = []
    steps: list[TraceStep] = []
    removed_max = 0.0
    step = 0

    while left:
        if step:
            batch, vals, gains, dens, asked, ahead = _lazy_pass(
                oracle, ws, working, [density_ub, gain_ub], guess, ledger)
        else:  # every bound is +inf: one batch asks them all
            batch, asked = np.arange(working.size), None
            vals = oracle.values_with(ws, working, ledger)
            gains, dens = _fresh(instance, ws, working, vals)
            density_ub, gain_ub = dens, gains
            by_units, minus_units = _by_units(instance, working)
        g, d = vals.argmax(), dens.argmax()
        value, best_value, top = vals.item(d), vals.item(g), dens.item(d)
        steps.append(TraceStep(cost_g, ws.value, top, max(top, removed_max)))
        guess = [_floor(_floor(top)), GAIN_GUESS * (best_value - ws.value)]
        g, d = batch.item(g), batch.item(d)
        if step:
            if asked is not None:
                batch, dens, gains = batch[asked], dens[asked], gains[asked]
            density_ub[batch], gain_ub[batch] = dens, gains
            if ahead is not None:
                oracle.charge_ahead(ws, ahead, vals, batch.size, ledger)
        density_ub[d] = gain_ub[d] = -np.inf
        left -= 1
        best_density = instance.ids.item(working.item(d))
        candidates.append((step, instance.ids.item(working.item(g)), best_value))

        ws = oracle.add(ws, best_density, value)
        cost_g += instance.cost_of(best_density)
        prefixes.append(ws)

        end = minus_units.searchsorted(-instance.clamp_room(ws.room))
        if end > cut:
            out = by_units[cut:end]
            bound = density_ub[out]  # -inf once picked
            left -= int(np.count_nonzero(bound > -np.inf))
            removed_max = max(removed_max, _top(bound))
            density_ub[out] = gain_ub[out] = -np.inf
            cut = end
        step += 1
        if 2 * left < working.size:
            kept = density_ub > -np.inf
            working, density_ub, gain_ub = working[kept], density_ub[kept], gain_ub[kept]
            by_units, minus_units = _by_units(instance, working)
            cut = 0

    steps.append(TraceStep(cost_g, ws.value, 0.0, removed_max))
    # terminal prefix competes with an empty augmentation
    candidates.append((len(prefixes) - 1, None, ws.value))
    return _GreedyRun(prefixes, candidates, GreedyTrace(steps))


def greedy_order(instance: Instance, oracle: SubmodularOracle, members,
                 ledger: QueryLedger, empty: WorkingSet | None = None
                 ) -> list[WorkingSet]:
    """Greedy prefixes over ``members`` only: the working sets G_0 (empty)
    to G_m, each recorded at its value; ``[-1].order`` is the pick order.
    ``empty`` is G_0 at f(∅) where the caller holds it; otherwise f(∅) is
    asked."""
    return _run_greedy(instance, oracle, ledger, restrict_to=members,
                       start=empty).prefixes


def greedy(instance: Instance, oracle: SubmodularOracle,
           ledger: QueryLedger | None = None) -> OfflineResult:
    """Marginal-density greedy under the knapsack budget."""
    ledger = ledger or QueryLedger()
    meter = RunMeter("greedy", instance, ledger)
    run = _run_greedy(instance, oracle, ledger)
    return OfflineResult(meter.report(run.prefixes[-1].ids,
                                      run.prefixes[-1].value, run.trace))


def greedy_or_max(instance: Instance, oracle: SubmodularOracle,
                  ledger: QueryLedger | None = None) -> OfflineResult:
    """The better of plain greedy and the best feasible singleton."""
    ledger = ledger or QueryLedger()
    meter = RunMeter("greedy_or_max", instance, ledger)
    run = _run_greedy(instance, oracle, ledger)
    ids, value = run.prefixes[-1].ids, run.prefixes[-1].value
    augmentations = []
    if run.candidates and run.candidates[0][1] is not None:
        # the first step asked every singleton
        s0, v0 = run.candidates[0][1], run.candidates[0][2]
        augmentations.append((0, s0, v0))
        if v0 > value:
            ids, value = [s0], v0
    return OfflineResult(meter.report(ids, value, run.trace), augmentations)


def greedy_plus_max(instance: Instance, oracle: SubmodularOracle,
                    ledger: QueryLedger | None = None) -> OfflineResult:
    """Greedy where every prefix may be completed by its best single item.

    The output is the best of f(G_i + s_i) over all prefixes i, with s_i the
    top-gain item available at prefix i, plus the bare final greedy set.  The
    sweep that drives greedy already found every s_i among the items it
    asked, so this dominates greedy and greedy-or-max at identical query
    cost.
    """
    ledger = ledger or QueryLedger()
    meter = RunMeter("greedy_plus_max", instance, ledger)
    run = _run_greedy(instance, oracle, ledger)
    # the first best candidate, as the oracle answers only finite values
    best_i, best_s, best_v = max(run.candidates, key=lambda c: c[2])
    ids = run.prefixes[best_i].ids
    if best_s is not None:
        ids |= {best_s}
    return OfflineResult(meter.report(ids, best_v, run.trace), run.candidates)


def partial_enum_greedy(instance: Instance, oracle: SubmodularOracle, depth: int,
                        ledger: QueryLedger | None = None) -> OfflineResult:
    """Greedy completion of every feasible seed of at most ``depth`` items.

    depth 0 degenerates to plain greedy.  The seed enumeration costs roughly
    n^(depth+1) * k_tilde queries; cap it with ``QueryLedger(budget=...)``,
    which raises :class:`BudgetExceeded` before the first query past the cap.
    """
    if not isinstance(depth, numbers.Integral) or not 0 <= depth <= 3:
        raise ValueError(f"depth must be an integer between 0 and 3, got {depth!r}")
    ledger = ledger or QueryLedger()
    meter = RunMeter("partial_enum_greedy", instance, ledger)

    ids = instance.ids[instance.by_id].tolist()
    seeds = [()]
    for size in range(1, depth + 1):
        seeds.extend(c for c in combinations(ids, size) if instance.fits(c))

    # the first best seed, as the oracle answers only finite values
    runs = (_run_greedy(instance, oracle, ledger, seed) for seed in seeds)
    best = max(runs, key=lambda run: run.prefixes[-1].value).prefixes[-1]
    return OfflineResult(meter.report(best.ids, best.value))
