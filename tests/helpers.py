"""Hand-built instances shared across test modules."""

import heapq
import math
import numbers
import random
import warnings

import numpy as np

from knapsub import (
    CoverageObjective,
    Element,
    EmptyInstanceWarning,
    Instance,
    ModularObjective,
    MovieObjective,
    QueryLedger,
    SubmodularOracle,
    movie_costs,
    normalize,
)
from knapsub.core import TraceStep, WorkingSet, _int_array
from knapsub.objectives import _COVERAGE_ALPHA
from knapsub.streaming import (
    OptEstimate,
    _check_k,
    _grid_indices,
    _scan,
    grid_size,
)

# Three items: two complementary halves and one slightly denser spoiler that
# blocks them.  The optimum {1, 2} is worth 1.0; density order grabs item 3.
TIGHT_VALUES = {1: 0.5, 2: 0.5, 3: 0.6}
TIGHT_RAW_COSTS = [(1, 0.5), (2, 0.5), (3, 0.55)]
TIGHT_CAPACITY = 1.0


def tight_instance():
    instance = normalize(TIGHT_RAW_COSTS, TIGHT_CAPACITY)
    objective = ModularObjective(TIGHT_VALUES)
    return instance, objective


def tight_oracle():
    instance, objective = tight_instance()
    return instance, SubmodularOracle(instance, objective.value)


class NanProbe(CoverageObjective):
    """|S|/6 on six isolated vertices, except ``bad`` (NaN or an infinity)
    on every set of two or more items that holds id 2.  Singletons stay
    finite, so only a query on a grown set meets the bad value."""

    def __init__(self, bad):
        super().__init__([[] for _ in range(6)])
        self.bad = bad

    def _answer(self, state, value: float) -> float:
        # an isolated vertex covers only itself: the cover is the set
        return self.bad if state.covered[2] and state.count >= 2 else value

    def value(self, ids):
        return self._answer(self.extend(None, ids), super().value(ids))

    def value_with(self, state, eid):
        return self._answer(self.extend(state, (eid,)),
                            super().value_with(state, eid))

    def values_with(self, state, ids):
        return np.array([self._answer(self.extend(state, (eid,)), v) for eid, v
                         in zip(ids.tolist(), super().values_with(state, ids))])


class MovieNanProbe(MovieObjective):
    """The movie twin of :class:`NanProbe`: six unit vectors, each movie its
    own target, so f(S) = |S| and a state marks the set's members; ``bad``
    on every set of two or more items that holds id 2, on every path."""

    def __init__(self, bad):
        super().__init__(np.eye(6))
        self.bad = bad

    def _answer(self, best, value: float) -> float:
        poisoned = best is not None and best[2] > 0 and np.count_nonzero(best) >= 2
        return self.bad if poisoned else value

    def value(self, ids):
        return self._answer(self.extend(None, ids), super().value(ids))

    def value_with(self, state, eid):
        return self._answer(self.extend(state, (eid,)),
                            super().value_with(state, eid))

    def values_with(self, state, ids):
        return np.array([self._answer(self.extend(state, (eid,)), v) for eid, v
                         in zip(ids.tolist(), super().values_with(state, ids))])


def nan_probe(bad, path, kind="coverage"):
    """The probe's six unit items with K=3, and its objective as the solver
    sees it: the protocol object (``"protocol"``) or a plain callable.
    ``kind`` picks :class:`NanProbe` or :class:`MovieNanProbe`."""
    objective = (NanProbe if kind == "coverage" else MovieNanProbe)(bad)
    instance = Instance([Element(i, 1.0) for i in range(6)], 3.0)
    fn = objective if path == "protocol" else (lambda ids: objective.value(ids))
    return instance, SubmodularOracle(instance, fn)


NONFINITE = (math.nan, math.inf, -math.inf)


def movie_vectors(seed, movies):
    """Low-rank 1..5 ratings, a quarter observed per movie and mean-centered,
    so the similarity table holds exact zeros."""
    rng = np.random.default_rng(seed)
    users, rank = 16, 3
    scores = (rng.standard_normal((movies, rank))
              @ rng.standard_normal((users, rank)).T / math.sqrt(rank))
    noise = 0.5 * rng.standard_normal(scores.shape)
    stars = np.clip(np.rint(3.5 + scores + noise), 1.0, 5.0)
    per_movie = np.arange(users) < users // 4
    seen = rng.permuted(np.tile(per_movie, (movies, 1)), axis=1)
    return np.where(seen, stars - stars[seen].mean(), 0.0)


def movie_case(seed, movies, capacity, base=0, targets=None):
    """An instance on :func:`movie_vectors` with singleton-proportional
    costs; the first ``base`` movies cost 0 and so join the base set."""
    objective = MovieObjective(movie_vectors(seed, movies), targets)
    costs = movie_costs(objective)
    raw = [(i, 0.0 if i < base else costs[i]) for i in range(movies)]
    return normalize(raw, capacity), objective


def scalar_threshold_pass(oracle, items, tau, ws, ledger, singles=None):
    """The reference for ``knapsub.streaming.threshold_pass``: one
    :meth:`SubmodularOracle.value_with` query per fitting item, in order,
    with the same ``(ws, accepted, seen)`` result and ``singles`` record."""
    inst = oracle.instance
    accepted = []
    seen = 0.0
    for eid in items:
        if eid in ws.ids or not 0 < inst.unit_array.item(inst._at[eid]) <= ws.room:
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


def scalar_estimate_lambda(stream, k, oracle, epsilon_est=1 / 6, ledger=None):
    """The reference for ``knapsub.streaming.estimate_lambda``: every
    window row is filtered and walked in index order for each element, and
    every empty set the element joins takes its own working set.  It asks
    the same queries in the same order and returns the same estimate."""
    if not 0 < epsilon_est < 1 / 3:
        raise ValueError(f"epsilon_est must lie in (0, 1/3), got {epsilon_est!r}")
    _check_k(k, oracle)
    base = 1.0 + epsilon_est
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
    sets: list[WorkingSet] = []  # the threshold set of each index in window
    taus: list[float] = []       # base ** i for each index in window
    retained = peak = 0

    for eid in _scan(stream, inst):
        c_e = inst.cost_of(eid)
        fe = oracle.value_with(empty, eid, ledger)
        if fe > delta:
            delta = fe
        max_density = max(max_density, fe / c_e)
        if delta <= 0:
            continue

        tau_min = max(2.0 * lb, 2.0 * delta) / (3.0 * k)
        if math.isinf(tau_min):
            raise ValueError(f"value {max(lb, delta)!r} is too large for the "
                             f"grid: its floor max(2*LB, 2*delta)/(3k) overflows")
        if tau_min == 0:
            raise ValueError(f"value {max(lb, delta)!r} is too small for the "
                             f"grid: its floor max(2*LB, 2*delta)/(3k) is 0")
        active = _grid_indices(tau_min / base, delta, log_base)
        # not active != window: two empty ranges are equal at any start
        if (active.start, active.stop) != (window.start, window.stop):
            kept = dict(zip(window, sets))
            retained -= sum(len(ws.order) for i, ws in kept.items()
                            if i not in active)
            window = active
            sets = [kept.get(i, empty) for i in window]
            taus = [base ** i for i in window]
        need = inst.unit_array.item(inst._at[eid])
        rows = [r for r, ws in enumerate(sets)
                if eid not in ws.ids and need <= ws.room]
        # f(empty + e) is fe, asked and counted once: ask only the others
        for r in rows:
            ws = sets[r]
            gain = (fe if ws is empty
                    else oracle.value_with(ws, eid, ledger)) - ws.value
            if gain / c_e >= taus[r]:
                ws = sets[r] = oracle.add(ws, eid, ws.value + gain)
                lb = max(lb, ws.value)
                retained += 1
        peak = max(peak, retained)

    return OptEstimate(max(lb, delta), 1 / 3 - epsilon_est, max_density, peak)


def validate_trace(trace, offline=False):
    """Assert a greedy trace's structural invariants: densities are
    non-negative, costs rise and values never fall; an offline trace's
    densities also never rise."""
    prev = None
    for s in trace.steps:
        assert s.next_density >= 0.0 and s.ub_density >= 0.0
        if prev is not None:
            assert s.cum_cost > prev.cum_cost
            assert s.value >= prev.value - 1e-12
            if offline:
                assert s.next_density <= prev.next_density + 1e-12
        prev = s


def recording(kernel, log):
    """``kernel`` that appends, per pass, its accepted pairs, ``seen`` and
    a copy of ``singles`` to ``log``, with every float as hex."""
    def run(oracle, items, tau, ws, ledger, singles=None):
        ws, accepted, seen = kernel(oracle, items, tau, ws, ledger, singles)
        log.append(([(eid, gain.hex()) for eid, gain in accepted], seen.hex(),
                    None if singles is None
                    else {eid: gain.hex() for eid, gain in singles.items()}))
        return ws, accepted, seen
    return run


def reference_preferential_adjacency(n: int, attach: int = 3,
                                     seed: int = 0) -> list[list[int]]:
    """The reference for ``knapsub.bench.datasets.preferential_adjacency``:
    one ``rng.choice`` call per draw and a sort of every row at the end."""
    if attach < 1 or n < attach:
        raise ValueError("need n >= attach >= 1")
    rng = random.Random(seed)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    repeated: list[int] = []

    def link(u: int, v: int) -> None:
        adjacency[u].append(v)
        adjacency[v].append(u)
        repeated.append(u)
        repeated.append(v)

    for i in range(attach):
        for j in range(i + 1, attach):
            link(i, j)
    if attach == 1:
        repeated.append(0)

    for v in range(attach, n):
        targets: set[int] = set()
        while len(targets) < min(attach, v):
            targets.add(rng.choice(repeated))
        for u in sorted(targets):
            link(u, v)
    for nb in adjacency:
        nb.sort()
    return adjacency


def reference_coverage_costs(adjacency) -> dict[int, float]:
    """The reference for ``knapsub.objectives.coverage_costs``: one scalar
    float operation at a time, in dicts."""
    n = len(adjacency)
    degs = {v: len({u for u in adjacency[v] if u != v}) for v in range(n)}
    raw = {v: (d - _COVERAGE_ALPHA) / n for v, d in degs.items() if d >= 1}
    if not raw:
        return {v: 1.0 for v in range(n)}
    unit = min(raw.values())
    return {v: (raw[v] / unit if v in raw else 1.0) for v in range(n)}


class ReferenceInstance:
    """The reference for ``knapsub.Instance``'s attributes: every check
    one element at a time, and the units from each number's
    ``as_integer_ratio`` scaled by the lcm of the denominators in big
    ints."""

    def __init__(self, elements, capacity, base_set=()):
        self._elements = tuple(elements)
        self.capacity = reference_capacity(capacity)
        self.base_set = frozenset(base_set)
        n = len(self.elements)
        self._at = {e.id: i for i, e in enumerate(self.elements)}
        if len(self._at) != n:
            raise ValueError("duplicate element ids")
        if self.base_set & self._at.keys():
            raise ValueError("base_set must be disjoint from elements")
        for e in self.elements:
            if not math.isfinite(e.cost) or e.cost <= 0:
                raise ValueError(f"element {e.id} must have finite positive "
                                 "cost (zero-cost items belong in base_set)")
            if e.cost > self.capacity:
                raise ValueError(f"element {e.id} does not fit the capacity")
        costs = [e.cost for e in self.elements]
        # every finite number is m / d: scaled by the lcm of the d among
        # them, all costs and the capacity become exact integers
        ratios = [c.as_integer_ratio() for c in (self.capacity, *costs)]
        scale = math.lcm(*(d for _, d in ratios))
        units = [m * (scale // d) for m, d in ratios]
        self.unit_capacity = units[0]
        # by position: each element's units, 0 for a base id, and more than
        # the largest element's for an id not held
        self.unit_array = _int_array([*units[1:], 0, max(units[1:], default=0) + 1])
        self.ids = _int_array(list(self._at))  # the map holds no base id yet
        self._at.update(dict.fromkeys(self.base_set, n))
        # one float buffer by position, 0.0 at n (a base id)
        self._cost_at = np.array([*costs, 0.0], dtype=float)
        self.costs = self._cost_at[:n]
        # no elements, no items
        self.k_tilde = n and min(n, self.unit_capacity // min(units[1:]))
        self.by_id = np.argsort(self.ids, kind="stable")

    @property
    def elements(self):
        return self._elements


def reference_capacity(capacity) -> float:
    """The reference for the capacity rule of ``Instance`` and
    ``normalize``: a real number, finite, positive and within a float."""
    if not isinstance(capacity, numbers.Real):
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    try:
        value = float(capacity)
    except OverflowError:  # past any float
        value = math.inf
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    return value


def reference_normalize(raw_elements, capacity, base_ids=()):
    """The reference for ``knapsub.normalize``: every rule decided one item
    at a time, in input order, and each kept Element built as it is
    rescaled, into a :class:`ReferenceInstance`."""
    pairs = []  # (id, cost), so each kept Element is built once, rescaled
    base = set(base_ids)
    seen = set()
    for item in raw_elements:
        if isinstance(item, Element):
            item = item.id, item.cost
        eid, cost = int(item[0]), float(item[1])
        if eid != item[0]:
            raise ValueError(f"element {item[0]!r} has an id that is not an integer")
        if eid in seen:
            raise ValueError(f"element id {eid} appears more than once")
        seen.add(eid)
        if not cost >= 0:
            raise ValueError(f"element {eid} has cost {cost!r}, not a number >= 0")
        if cost == 0.0:
            base.add(eid)
        elif cost < math.inf:  # an infinite cost fits no capacity
            pairs.append((eid, cost))

    reference_capacity(capacity)
    elems = []
    if pairs:
        unit = min(cost for _, cost in pairs)
        if math.isinf(capacity / unit):
            raise ValueError(f"capacity {capacity!r} over the cheapest cost "
                             f"{unit!r} overflows a float")
        capacity = capacity / unit
        elems = [Element(eid, scaled) for eid, cost in pairs
                 if (scaled := cost / unit) <= capacity]

    inst = ReferenceInstance(elems, capacity, base)
    if not inst.elements and not inst.base_set:
        warnings.warn("normalization produced an empty instance",
                      EmptyInstanceWarning, stacklevel=2)
    return inst


def _run_start(oracle, start, restrict_to):
    """The working items of a greedy run from ``start``: every element, or
    those of ``restrict_to``, outside the start set and fitting its room,
    by increasing id."""
    inst = oracle.instance
    pool = inst.element_ids() if restrict_to is None else restrict_to
    return sorted(e for e in set(pool) & set(inst.element_ids())
                  if e not in start.ids
                  and inst.unit_array.item(inst._at[e]) <= start.room)


def full_sweep_greedy(oracle, ledger, start, restrict_to=None):
    """The pick reference for ``knapsub.offline._run_greedy``: every step
    asks every still-fitting item in one batch.  Returns the prefixes
    G_0..G_m, the Greedy+Max candidates ``(i, best-gain id, f(G_i + s_i))``
    and the trace steps, with the same ties, to the smallest id.  Its
    ``ub_density`` takes the exact rule: the highest density a dropped item
    had at the last prefix it fit."""
    inst = oracle.instance
    ws = start
    cost_g = inst.cost(ws.order)
    working = inst.locate(_run_start(oracle, start, restrict_to))
    prefixes, candidates, steps = [ws], [], []
    removed_max = 0.0
    while working.size:
        vals = oracle.values_with(ws, working, ledger)
        gains = vals - ws.value
        dens = np.where(gains > 0.0, gains, 0.0) / inst.costs[working]
        g, d = int(vals.argmax()), int(dens.argmax())
        best_gain, best_density = inst.ids[working[[g, d]]].tolist()
        candidates.append((len(prefixes) - 1, best_gain, float(vals[g])))
        top = float(dens[d])
        steps.append(TraceStep(cost_g, ws.value, top, max(top, removed_max)))
        ws = oracle.add(ws, best_density, float(vals[d]))
        cost_g += inst.cost_of(best_density)
        prefixes.append(ws)
        kept = inst.fit_mask(working, ws.room)
        kept[d] = False
        dropped = ~kept
        dropped[d] = False
        if dropped.any():
            removed_max = max(removed_max, float(dens[dropped].max()))
        working = working[kept]
    steps.append(TraceStep(cost_g, ws.value, 0.0, removed_max))
    candidates.append((len(prefixes) - 1, None, ws.value))
    return prefixes, candidates, steps


def _slack_floor(best):
    return best * (1.0 - 1e-9) if best > 0.0 else best * (1.0 + 1e-9)


def heap_lazy_greedy(oracle, ledger, start, restrict_to=None):
    """The query-count reference for ``knapsub.offline._run_greedy``: a
    lazy greedy one :meth:`SubmodularOracle.value_with` query at a time.

    Every working item keeps its gain and its clamped density from its last
    refresh, +inf before the first, in two heaps keyed (-bound, id); one
    query refreshes both.  A step asks the top stale item of the density
    heap while its bound is at least a relative 1e-9 below the best fresh
    density, else the top of the gain heap while its bound is within that
    of the best fresh gain, and stops when neither is.  The picks and the
    trace are read off the fresh items.  The items the pick drops are never
    asked again: each raises ``removed_max`` by its density from its last
    refresh, fresh or stale.  Returns what :func:`full_sweep_greedy`
    returns, with ``ub_density`` at or above the full sweep's, less the
    slack."""
    inst = oracle.instance
    ws = start
    cost_g = inst.cost(ws.order)
    alive = set(_run_start(oracle, start, restrict_to))
    density = dict.fromkeys(alive, math.inf)
    gain = dict.fromkeys(alive, math.inf)
    heaps = ([(-math.inf, e) for e in alive], [(-math.inf, e) for e in alive])
    for heap in heaps:
        heapq.heapify(heap)
    prefixes, candidates, steps = [ws], [], []
    removed_max = 0.0

    def ask(ws, e):
        value = oracle.value_with(ws, e, ledger)
        g = value - ws.value
        density[e], gain[e] = (g if g > 0.0 else 0.0) / inst.cost_of(e), g
        return value

    def top(heap, bounds, fresh):
        while heap and (heap[0][1] not in alive or heap[0][1] in fresh
                        or -heap[0][0] != bounds[heap[0][1]]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    while alive:
        fresh = {}  # id -> f(G + e), asked at this prefix
        best = [-math.inf, -math.inf]
        while True:
            for k, (heap, bounds) in enumerate(zip(heaps, (density, gain))):
                entry = top(heap, bounds, fresh)
                if entry is not None and -entry[0] >= _slack_floor(best[k]):
                    e = entry[1]
                    break
            else:
                break
            fresh[e] = ask(ws, e)
            best = [max(best[0], density[e]), max(best[1], gain[e])]
        d = min(fresh, key=lambda e: (-density[e], e))
        g = min(fresh, key=lambda e: (-fresh[e], e))
        candidates.append((len(prefixes) - 1, g, fresh[g]))
        steps.append(TraceStep(cost_g, ws.value, density[d],
                               max(density[d], removed_max)))
        ws = oracle.add(ws, d, fresh[d])
        cost_g += inst.cost_of(d)
        prefixes.append(ws)
        alive.discard(d)
        dropped = [e for e in alive if inst.unit_array.item(inst._at[e]) > ws.room]
        removed_max = max([removed_max] + [density[e] for e in dropped])
        alive.difference_update(dropped)
        for e in fresh:
            if e in alive:
                heapq.heappush(heaps[0], (-density[e], e))
                heapq.heappush(heaps[1], (-gain[e], e))
    steps.append(TraceStep(cost_g, ws.value, 0.0, removed_max))
    candidates.append((len(prefixes) - 1, None, ws.value))
    return prefixes, candidates, steps
