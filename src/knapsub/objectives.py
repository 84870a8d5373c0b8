"""Objective functions and their cost rules.

All objectives are monotone and submodular on feasible sets, evaluate
deterministically on frozensets of ids, and keep no mutable state, so a
single objective may back many concurrent runs.

``CoverageObjective`` and ``MovieObjective`` also implement the protocol
of :class:`~knapsub.core.SubmodularOracle`: ``extend(state, ids)`` folds
ids into a new state and leaves the old one as it was (``None`` is the
empty set),
``value_with(state, eid)`` returns exactly the float ``value(S | {eid})``
returns for the set S behind ``state``, bit for bit, without touching S,
and ``values_with(state, ids)`` returns an array holding, for each id,
exactly the float ``value_with(state, id)`` returns.  The oracle asks
``values_with`` only for ids that all fit S.  A coverage state holds
the covered vertices as a read-only ``bool`` array, their count, and a
memo slot for every vertex's covered-neighbour count; the slot is the
only thing ever written on a state.  A coverage batch reads the
memoized counts, which the first batch on a state builds in one pass
over every edge and each state grown from it carries on in its own
array, in O(n + the new vertices' degrees), while the state keeps its
own.  The movie batch reads at most 2**16
floats (512 KB) of its table at a time, 32 rows of 2,000 targets: a run
of consecutive ascending ids in place, as a slice, and any other block
gathered, with the maxima written to one buffer that every block reuses.
``ModularObjective`` and ``HiddenPairObjective`` do not implement it: a
running float sum would differ from ``value`` in the last bits, and the
hidden pair needs the whole set.

No objective checks for NaN: the oracle raises
:class:`~knapsub.errors.NonFiniteValue` on it, after counting the whole
batch.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# a movie batch reads at most this many floats of the table at once:
# 512 KB, 32 rows of 2,000 targets, so a block stays in a core's L2 cache
_MOVIE_BATCH_FLOATS = 1 << 16
# the movie cost rule clamps this many columns of the table at a time
_MOVIE_SUM_COLUMNS = 64


class CoverState:
    """A set's state under :class:`CoverageObjective`.

    ``covered`` is a read-only ``bool`` array marking the union of the
    chosen closed neighborhoods and ``count`` its true entries.  ``hits``
    is ``None`` or the read-only count of covered vertices in every
    vertex's closed neighborhood: a memo slot, filled by the state's first
    batch and kept, so every state grown from this one starts its own
    counts from it.  It is the only attribute ever assigned after
    construction.  A state that holds counts holds n of them: 2 bytes each
    below 2**16 vertices.
    """

    __slots__ = ("covered", "count", "hits")

    def __init__(self, covered: np.ndarray, count: int,
                 hits: np.ndarray | None = None):
        self.covered, self.count, self.hits = covered, count, hits


class CoverageObjective:
    """Fraction of vertices dominated by the chosen set.

    f(Z) = |Z union N(Z)| / |V| on an undirected graph.  Closed
    neighborhoods are kept once, as a CSR array (self included, duplicates
    removed, checked symmetric), so the graph takes O(n + E) memory.  A
    set's state is a :class:`CoverState`: its covered vertices and their
    count, and a memo slot for ``hits[w] = |N[w] & covered|``.  One
    "f(S + e)" query reads e's row.  A batch of them reads ``hits``,
    which the first batch on a state builds in one pass over every edge.
    A state grown from one that holds ``hits`` carries them, plus the
    rows of the newly covered vertices U, in a new array, which is exact
    because the graph is symmetric: w gains one covered neighbour per row
    of U holding w.  So a greedy sweep passes over the edges once, not
    once per step.  The parent keeps its ``hits``: every child grown from
    it, and a later batch on it (an augmentation asking a greedy prefix
    again), reads them with no further pass.
    """

    def __init__(self, adjacency):
        """``adjacency`` maps vertex id (0..n-1) to a collection of neighbors.
        Edges must come symmetric; self-loops are ignored.  An empty graph
        raises ``ValueError``: f divides by |V|."""
        n = self.n_vertices = len(adjacency)
        if not n:
            raise ValueError("the graph has no vertices")
        rows, keys, self._indptr = _closed_neighbourhoods(adjacency)
        self._sizes = np.diff(self._indptr)
        transposed = keys % n
        transposed *= n
        transposed += keys // n
        transposed.sort()
        if not np.array_equal(keys, transposed):
            nbrs = [set(row) for row in rows]
            v, u = next((v, u) for v in range(n) for u in rows[v]
                        if u != v and v not in nbrs[u])
            raise ValueError(f"edge {v}-{u} is not symmetric")
        del transposed
        # intp, as NumPy indexes: an int32 row would be cast on every read
        self._indices = (keys % n).astype(np.intp)
        # wide enough for any row's count, narrow so a batch stays small
        self._count_type = np.uint16 if n < 2**16 else np.int32
        empty = np.zeros(n, dtype=bool)
        empty.flags.writeable = False
        self._empty = CoverState(empty, 0)

    def value(self, ids) -> float:
        return self.extend(None, ids).count / self.n_vertices

    def extend(self, state, ids) -> CoverState:
        """``state`` with the neighborhoods of ``ids`` covered.  One state
        seeds many sets and nothing on it is written: the new state's
        counts are its ``hits`` plus the newly covered vertices' rows, in
        a new array.  ``extend(None, ids)`` builds no ``hits``."""
        covered = (state or self._empty).covered.copy()
        indptr, indices = self._indptr, self._indices
        for v in ids:
            covered[indices[indptr[v]:indptr[v + 1]]] = True
        covered.flags.writeable = False
        hits = None if state is None else state.hits
        if hits is None:
            return CoverState(covered, int(np.count_nonzero(covered)))
        fresh = np.flatnonzero(covered > state.covered)
        grown = np.bincount(self._rows(fresh), minlength=self.n_vertices)
        grown = grown.astype(self._count_type)
        grown += hits  # into a new array, so no reader sees ``hits`` change
        grown.flags.writeable = False
        return CoverState(covered, state.count + fresh.size, grown)

    def value_with(self, state, eid: int) -> float:
        state = state or self._empty
        row = self._indices[self._indptr[eid]:self._indptr[eid + 1]]
        hits = int(np.count_nonzero(state.covered[row]))
        return (state.count + row.size - hits) / self.n_vertices

    def values_with(self, state, ids) -> np.ndarray:
        """(S's covered count + uncovered vertices of each row) / n, which
        is ``value_with(state, eid)`` for every id, bit for bit: both divide
        the same exactly representable integers once.

        Every batch reads the state's ``hits``, built on its first batch in
        one pass over every edge, or carried from the state it grew from."""
        ids = np.asarray(ids, dtype=np.intp)
        state = state or self._empty
        hits = state.hits
        if hits is None:
            hits = state.hits = self._all_hits(state.covered)
        return (state.count + (self._sizes[ids] - hits[ids])) / self.n_vertices

    def _rows(self, ids) -> np.ndarray:
        """Each id's row, back to back."""
        sizes = self._sizes[ids]
        # entry i of the gathered rows sits at indices[i + its row's shift]
        starts = np.cumsum(sizes) - sizes
        at = np.repeat(self._indptr[ids] - starts, sizes)
        at += np.arange(at.size)
        return self._indices[at]

    def _all_hits(self, covered) -> np.ndarray:
        """The covered vertices of every row, in one pass over the edges,
        read-only."""
        covered_in = covered.astype(self._count_type)[self._indices]
        # reduceat without ``out`` would allocate edge-sized scratch
        hits = np.empty(self.n_vertices, self._count_type)
        np.add.reduceat(covered_in, self._indptr[:-1], out=hits)
        hits.flags.writeable = False
        return hits


def _closed_neighbourhoods(adjacency):
    """``(rows, keys, indptr)``: the rows as given, every vertex's closed
    neighbourhood as sorted distinct keys row * n + col (self included,
    once, so a self-loop merges with it), and where each row's keys start,
    n + 1 offsets.  A neighbour outside 0..n-1 raises ``ValueError``."""
    n = len(adjacency)
    rows = [adjacency[v] for v in range(n)]
    sizes = np.fromiter(map(len, rows), np.intp, n)
    total = int(sizes.sum())
    # one key per entry, self included; int32 while n * n fits, and
    # updated in place, so no second edge-sized key array is built
    key_type = np.int32 if n * n < 2**31 else np.int64
    own = np.arange(n + 1, dtype=key_type)
    try:
        keys = np.fromiter(chain(chain.from_iterable(rows), range(n)),
                           key_type, total + n)
    except OverflowError:
        keys = None
    if keys is None or (total and (keys[:total].min() < 0
                                   or keys[:total].max() >= n)):
        u = next(u for row in rows for u in row if not 0 <= u < n)
        raise ValueError(f"vertex {u} out of range")
    keys[:total] += np.repeat(own[:-1] * n, sizes)
    keys[total:] *= n + 1
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return rows, keys, np.searchsorted(keys, own * n)


_COVERAGE_ALPHA = 1 / 20  # coverage_costs' degree offset: deg(v) - 1/20 > 0


def coverage_costs(adjacency) -> dict[int, float]:
    """Degree-proportional vertex costs, rescaled so the minimum is exactly 1.

    Raw cost of v is (deg(v) - 1/20) / |V|, deg(v) counting v's distinct
    neighbours other than v.  Vertices of degree zero are assigned the
    minimum cost directly so the rule stays positive.  Degrees are counted
    on the sorted keys :class:`CoverageObjective` builds, so a neighbour
    outside 0..n-1 raises ``ValueError`` here as there.  The arithmetic runs
    on arrays, one IEEE operation per scalar step, so every cost is the
    float the scalar rule gives.
    """

    n = len(adjacency)
    # a row's degree is its count of distinct keys, less the vertex itself
    degs = (np.diff(_closed_neighbourhoods(adjacency)[2]) - 1).astype(float)
    linked = degs >= 1
    if not linked.any():
        return dict.fromkeys(range(n), 1.0)
    raw = (degs - _COVERAGE_ALPHA) / n
    costs = np.where(linked, raw / raw[linked].min(), 1.0)
    return dict(zip(range(n), costs.tolist()))


class ModularObjective:
    """Additive objective: f(S) is the sum of fixed per-id weights."""

    def __init__(self, weights: dict[int, float]):
        if any(w < 0 for w in weights.values()):
            raise ValueError("weights must be non-negative")
        self.weights = dict(weights)

    def value(self, ids) -> float:
        return float(sum(self.weights[i] for i in ids))


class MovieObjective:
    """Recommendation utility over mean-centered rating vectors.

    For target movies X, f(Z) = sum over x in X of
    max(0, max over z in Z of <v_z, v_x>).  The inner products are cached in
    a read-only table at construction; the clamp at zero keeps the function
    monotone.  An empty Z scores 0.
    """

    def __init__(self, vectors: np.ndarray, targets=None):
        """``vectors`` holds one mean-centered row per movie."""
        vectors = np.asarray(vectors, dtype=float)
        sim = vectors @ vectors.T
        self.n_movies = vectors.shape[0]
        # row-major, so a query reads one contiguous row per movie it adds
        self._table = sim if targets is None else np.take(sim, list(targets), axis=1)

    def value(self, ids) -> float:
        if not ids:
            return 0.0
        return float(self.extend(None, ids).sum())

    def extend(self, state, ids):
        """The state is max(0, best similarity) per target.  Max is exact in
        any order; two orders can differ only in the sign of a zero entry,
        which the sum does not show (NumPy's sum starts from +0.0)."""
        ids = list(ids)
        if not ids:
            return state
        best = np.maximum(self._table[ids].max(axis=0), 0.0)
        return best if state is None else np.maximum(state, best)

    def value_with(self, state, eid: int) -> float:
        row = self._table[eid]
        best = np.maximum(row, 0.0) if state is None else np.maximum(state, row)
        return float(best.sum())

    def values_with(self, state, ids) -> np.ndarray:
        """``value_with(state, eid)`` for every id, bit for bit: the same
        elementwise maxima, in the same argument order, each row summed
        contiguously as the 1-D sum is.

        A block of consecutive ascending ids is a slice of the table, read
        in place; any other block is gathered.  The maxima go to one buffer
        that every block reuses.  An id past the table raises
        ``IndexError``, as the single query's index does."""
        ids = np.asarray(ids, dtype=np.intp)
        rows = len(self._table)
        if ids.size and not -rows <= ids.min() <= ids.max() < rows:
            raise IndexError(f"movie ids {ids.min()}..{ids.max()} are out of "
                             f"range for {rows} movies")
        out = np.empty(len(ids))
        step = max(1, _MOVIE_BATCH_FLOATS // max(1, self._table.shape[1]))
        buffer = np.empty((min(step, len(ids)), self._table.shape[1]))
        for a in range(0, len(ids), step):
            chunk = ids[a:a + step]
            block = buffer[:len(chunk)]
            run = _run(chunk)
            if run is None:
                # "raise" would gather through a temporary copy; the ids
                # are in range, where "wrap" indexes as NumPy does
                table = np.take(self._table, chunk, axis=0, out=block, mode="wrap")
            else:
                table = self._table[run]
            if state is None:
                np.maximum(table, 0.0, out=block)
            else:
                np.maximum(state, table, out=block)
            block.sum(axis=1, out=out[a:a + step])
        return out

    def singleton_values(self) -> np.ndarray:
        # each row's clamped entries added one column at a time, left to
        # right: that order fixes the rounding of every cost derived from
        # these values, and a row-major (pairwise) sum differs.  Columns are
        # clamped _MOVIE_SUM_COLUMNS at a time, so no table-sized copy is made.
        total = np.zeros(self._table.shape[0])
        for a in range(0, self._table.shape[1], _MOVIE_SUM_COLUMNS):
            block = np.maximum(self._table[:, a:a + _MOVIE_SUM_COLUMNS], 0.0)
            for column in block.T:
                total += column
        return total


def _run(ids: np.ndarray) -> slice | None:
    """``ids`` as a slice when they are consecutive, ascending and not
    negative; ``None`` otherwise."""
    first, last = int(ids[0]), int(ids[-1])
    if 0 <= first and last - first == len(ids) - 1 and (ids[1:] > ids[:-1]).all():
        return slice(first, last + 1)
    return None


def movie_costs(objective: MovieObjective) -> dict[int, float]:
    """Costs proportional to each movie's singleton value, minimum exactly 1.

    The scale is 1 over the smallest positive singleton value.  Movies
    whose singleton value is 0 get the minimum cost 1.
    """

    singles = objective.singleton_values()
    positive = singles[singles > 0]
    unit = float(positive.min()) if positive.size else 1.0
    # division keeps the cheapest positive cost at exactly 1.0
    return {x: (float(s) / unit if s > 0 else 1.0)
            for x, s in enumerate(singles)}


class HiddenPairObjective:
    """Worst-case objective hiding one valuable pair among look-alike sets.

    Every nonempty set scores 1/2 except the hidden pair itself, which
    scores 1.  The monotone variant also maps every set of more than two
    elements to 1, which restores monotonicity off the feasible region.
    Paired with per-element cost capacity/2, any algorithm that never
    evaluates the hidden pair cannot beat 1/2.
    """

    def __init__(self, n: int, pair: tuple[int, int] | None = None,
                 monotone: bool = False):
        self.n = n
        self.pair = frozenset(pair) if pair is not None else None
        if self.pair is not None and len(self.pair) != 2:
            raise ValueError("pair must contain two distinct ids")
        self.monotone = monotone

    def value(self, ids) -> float:
        ids = frozenset(ids)
        if not ids:
            return 0.0
        if self.monotone and len(ids) > 2:
            return 1.0
        if self.pair is not None and ids == self.pair:
            return 1.0
        return 0.5

    def elements(self, capacity: float):
        """The matching ground set: every id priced at capacity/2."""
        return [(i, capacity / 2.0) for i in range(self.n)]
