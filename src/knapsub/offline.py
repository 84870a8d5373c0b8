"""Offline algorithms: density greedy and its augmented variants.

All three single-pass variants share one sweep: each iteration evaluates
f(G + e) for every still-fitting element, and both the best-gain item (the
augmentation candidate) and the best-density item (the greedy step) are read
off the same evaluations.  Plain greedy, greedy-or-max and greedy-plus-max
therefore issue exactly the same oracle queries; the stronger outputs are
free.  Every iteration is one batch query against a G_i that stays fixed
for the whole iteration, so batching never speculates and never changes a
query count.  A run keeps its prefixes G_0..G_m as working sets, each at
its value; the answers and :func:`greedy_order`'s callers read them directly.
"""

from __future__ import annotations

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


def _run_greedy(instance: Instance, oracle: SubmodularOracle, ledger: QueryLedger,
                seed_ids=(), restrict_to=None) -> _GreedyRun:
    """Density greedy from ``seed_ids``, harvesting augmentations and the trace.

    Each step asks the working elements in one batch,
    :meth:`SubmodularOracle.values_with`; they are positions in the array
    view, in ``Instance.by_id`` order, so both argmaxes go to the smallest
    id on ties.  Those that stop fitting the residual budget (the exact
    rule, ``Instance.fit_mask``) are dropped; their last known density
    still feeds the trace's ``ub_density`` field, which submodularity
    keeps an upper bound.  ``restrict_to`` limits the pool to a subset of
    element ids.  Every working id fits G, so each step takes the oracle's
    batch shortcut, which raises ``NonFiniteValue`` on a NaN or infinity.
    """

    ws = oracle.working_set(seed_ids, oracle.evaluate(seed_ids, ledger))
    cost_g = instance.cost(seed_ids)
    pool = np.zeros(instance.n + 2, dtype=bool)  # by position
    if restrict_to is None:
        pool[:instance.n] = True
    else:
        pool[instance.locate(restrict_to)] = True
    pool[instance.locate(ws.order)] = False
    working = instance.by_id[pool[instance.by_id]]
    working = working[instance.fit_mask(working, ws.room)]

    prefixes = [ws]
    candidates: list[tuple[int, int | None, float]] = []
    steps: list[TraceStep] = []
    removed_max = 0.0

    while working.size:
        value_g = ws.value
        vals = oracle.values_with(ws, working, ledger)
        gains = vals - value_g
        dens = np.where(gains > 0.0, gains, 0.0) / instance.costs[working]
        g, d = int(vals.argmax()), int(dens.argmax())
        best_gain, best_density = instance.ids[working[[g, d]]].tolist()
        candidates.append((len(prefixes) - 1, best_gain, float(vals[g])))
        top = float(dens[d])
        steps.append(TraceStep(cost_g, value_g, top, max(top, removed_max)))

        ws = oracle.add(ws, best_density, float(vals[d]))
        cost_g += instance.cost_of(best_density)
        prefixes.append(ws)

        kept = instance.fit_mask(working, ws.room)
        kept[d] = False
        dropped = ~kept
        dropped[d] = False
        if dropped.any():
            removed_max = max(removed_max, float(dens[dropped].max()))
        working = working[kept]

    steps.append(TraceStep(cost_g, ws.value, 0.0, removed_max))
    # terminal prefix competes with an empty augmentation
    candidates.append((len(prefixes) - 1, None, ws.value))
    return _GreedyRun(prefixes, candidates, GreedyTrace(steps))


def greedy_order(instance: Instance, oracle: SubmodularOracle, members,
                 ledger: QueryLedger) -> list[WorkingSet]:
    """Greedy prefixes over ``members`` only: the working sets G_0 (empty)
    to G_m, each recorded at its value; ``[-1].order`` is the pick order."""
    return _run_greedy(instance, oracle, ledger, restrict_to=members).prefixes


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
        # the first sweep already evaluated every singleton
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
    sweep that drives greedy already computed every f(G_i + e), so this
    dominates greedy and greedy-or-max at identical query cost.
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
    runs = (_run_greedy(instance, oracle, ledger, seed_ids=seed) for seed in seeds)
    best = max(runs, key=lambda run: run.prefixes[-1].value).prefixes[-1]
    return OfflineResult(meter.report(best.ids, best.value))
