"""Core types and operations: instances, query accounting, exact baselines.

Every algorithm in this package talks to the objective through a
:class:`SubmodularOracle`, which counts queries on a :class:`QueryLedger`
and, when enforcement is on, refuses to evaluate sets that do not fit the
knapsack.  Costs are normalized so the cheapest purchasable element costs
exactly 1, which makes ``floor(capacity)`` an upper bound on solution size.
Every batch names its elements by position in the instance's array view,
found by :meth:`Instance.locate` in the instance's one id-to-position
dict.  The instance holds each cost twice, both by position: once as a
float, for densities and reported costs, and once as an exact integer on
one scale with the capacity, its units.  What fits is decided on the
units alone: :meth:`Instance.fits` sums them for a set, and
:meth:`Instance.fit_mask` compares a whole array of positions with a room
at once.

Solvers ask "f(S + e)" of a :class:`WorkingSet`: S with its exact integer
room and the objective's incremental state.  An objective that implements
the protocol, all three of ``extend(state, ids) -> state``,
``value_with(state, eid) -> float`` and ``values_with(state, ids) ->
ndarray``, answers such a query in time independent of |S|, and a batch of
them against one fixed S in one call.  Any other objective, one with only
part of the protocol included, is evaluated on the whole set, as by
:meth:`SubmodularOracle.evaluate`.  Both paths count the same queries and
return the same floats, bit for bit.  A batch of elements that do not all
fit S is asked one at a time, so it stops where, and with the error, single
queries would.  A NaN or an infinity raises :class:`NonFiniteValue` once
the query is counted; a batch answered in one call is counted whole before
that check.

A threshold pass may grow S after any query, so it reads its values with
:meth:`SubmodularOracle.values_ahead` and settles them with
:meth:`SubmodularOracle.charge_ahead`, which counts only the prefix that
single queries would have asked.  A protocol objective computes the batch
ahead and the rest is tallied in ``QueryLedger.speculative_evaluations``:
computed, never asked, and never a query.  Any other objective is asked
one counted query at a time as the pass reads the values, so nothing is
computed ahead.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
import time
import warnings
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptyInstanceWarning,
    InfeasibleQuery,
    NonFiniteValue,
    TooLarge,
)

# exact search is capped at this many elements (2^22 subsets)
BRUTE_FORCE_LIMIT = 22
_FIRST, _SECOND = operator.itemgetter(0), operator.itemgetter(1)


@dataclass(frozen=True, slots=True)
class Element:
    """One purchasable item: an integer id and a positive cost."""

    id: int
    cost: float


@dataclass(frozen=True)
class Solution:
    """A feasible answer: chosen element ids, oracle value, and total cost.

    ``ids`` never includes base-set members; the base set is implicitly part
    of every evaluation.
    """

    ids: frozenset[int]
    value: float
    cost: float


class Instance:
    """A normalized ground set with a knapsack capacity.

    Attributes
    ----------
    elements : tuple of Element, in construction order (stream order);
               the given tuple, or built from ``ids`` and the costs on
               first read for an instance :func:`normalize` made
    capacity : rescaled knapsack budget K
    base_set : ids of zero-cost items, absorbed into every evaluation
    k_tilde  : min(n, how many of the cheapest element fit), a bound on
               solution size; floor(capacity) once normalized
    costs    : every element's cost as a float64, by position
    unit_array : every element's cost as an exact integer, by position
    unit_capacity : the capacity on the same integer scale

    Feasibility is decided in these integers alone, by :meth:`fits` or by a
    solver that starts from :meth:`room` and subtracts an element's units,
    read by position as a Python int (``unit_array.item``, so no sum wraps
    as int64 would), or for a whole array of positions at once by
    :meth:`fit_mask`.  Integer sums are exact in any order, so no two
    callers disagree on one set.

    The units are the costs and the capacity times one scale that makes all
    of them integers.  For float costs it is 2**S, S the most binary places
    any of them has, computed on the cost array: ``np.frexp`` gives each
    value's places, and ``np.ldexp`` scales by 2**S exactly, then to int64.
    Where the scaled capacity does not fit int64 (a capacity of 2**63, or a
    5e-324 cost beside a 1e300 capacity), or a cost is not a float's value
    (an int past 2**53, a ``Fraction``), each number is m / d by its
    ``as_integer_ratio`` and the scale is the lcm of the d, in Python ints;
    on floats both give the same integers.

    The array view, built once, is the instance's record; it indexes the
    elements 0..n-1 in stream order: ``ids``, ``costs`` (the first n
    slots of one float64 buffer whose slot n, every base id, holds 0.0),
    ``unit_array``,
    which holds 0 at position n (every base id) and U + 1 at n + 1 (an id
    not held), U the largest element unit, and ``by_id``, the positions by
    increasing id.  ``ids`` and ``unit_array`` are int64 where every value
    they hold fits int64, the capacity's units aside, and object arrays of
    Python ints otherwise.  One dict, built with them, maps each id to its
    position (n for a base id): :meth:`locate`, :meth:`cost_of` and
    :meth:`room` read it, every batch kernel takes positions, and
    :meth:`fit_mask` decides which fit a room.  :meth:`cost_of` answers
    the float ``costs`` holds, 0.0 for a base id, whatever number type the
    cost was given in.

    A capacity that is not a real number (``numbers.Real``: not a string,
    not a ``Decimal``), not finite and positive, or too large for a float,
    raises ``ValueError``: no
    solver has a threshold grid or a size bound for an unbounded budget,
    and none has anything to buy with an empty or negative one.

    The constructor reads each element's ``id`` and ``cost`` into one
    build routine, which :func:`normalize` feeds its ids and rescaled
    cost array directly, with the same checks and no ``Element`` made;
    ``n``, ``empty`` and :meth:`element_ids` read ``ids``.
    """

    def __init__(self, elements, capacity, base_set=()):
        elements = tuple(elements)
        self._build([e.id for e in elements], [e.cost for e in elements],
                    capacity, base_set)
        self._elements = elements

    @classmethod
    def _of(cls, ids, costs, capacity, base_set=()) -> Instance:
        """The instance of ``ids``, a list of ints, at ``costs``, a float64
        array, checked as the constructor checks; its ``elements`` are
        built on first read."""
        self = cls.__new__(cls)
        self._build(ids, costs, capacity, base_set)
        return self

    def _build(self, ids, costs, capacity, base_set):
        """The one build routine: ``costs`` is a list of the costs as given,
        or a float64 array of them."""
        self._elements = None
        self.capacity = _checked_capacity(capacity)
        self.base_set = frozenset(base_set)
        n = len(ids)
        self._at = dict(zip(ids, range(n)))
        if len(self._at) != n:
            raise ValueError("duplicate element ids")
        if self.base_set & self._at.keys():
            raise ValueError("base_set must be disjoint from elements")
        if isinstance(costs, np.ndarray):
            self.costs, exact = costs, True
        else:
            try:
                self.costs = np.array(costs, dtype=float)
            except (TypeError, ValueError, OverflowError):
                self.costs = np.full(n, math.nan)  # the scalar rule names it
            exact = self.costs.tolist() == costs  # every cost a float's value
        if not (exact and ((self.costs > 0) & (self.costs <= self.capacity)).all()):
            for eid, cost in zip(ids, costs):  # the first offender names the error
                if not math.isfinite(cost) or cost <= 0:
                    raise ValueError(f"element {eid} must have finite positive "
                                     "cost (zero-cost items belong in base_set)")
                if cost > self.capacity:
                    raise ValueError(f"element {eid} does not fit the capacity")
        # the one float buffer, by position: n, a base id, costs 0.0
        self._cost_at = np.append(self.costs, 0.0)
        self.costs = self._cost_at[:n]
        units = _scaled_units(self.capacity, self.costs) if exact else None
        if units is None:
            # every finite number here is m / d: scaled by the lcm of the
            # d among them, all costs and the capacity become exact integers
            ratios = [c.as_integer_ratio() for c in (self.capacity, *costs)]
            scale = math.lcm(*(d for _, d in ratios))
            units = [m * (scale // d) for m, d in ratios]
        self.unit_capacity = int(units[0])
        units = _int_array(units[1:])  # int64 unless an element's units pass it
        # by position: n, a base id, takes no room; n + 1, an id not held,
        # holds U + 1, U the largest element unit, and so fits no room
        # clamped to U (see fit_mask)
        self.unit_array = np.append(units, _int_array([0, int(units.max(initial=0)) + 1]))
        self.ids = _int_array(ids)
        self._at.update(dict.fromkeys(self.base_set, n))
        # no elements, no items
        self.k_tilde = n and min(n, self.unit_capacity // int(units.min()))
        self.by_id = np.argsort(self.ids, kind="stable")

    @property
    def elements(self) -> tuple[Element, ...]:
        """The elements in stream order, built from ``ids`` and the costs on
        first read when none were given."""
        if self._elements is None:
            self._elements = tuple(map(Element, self.ids.tolist(),
                                       self.costs.tolist()))
        return self._elements

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def empty(self) -> bool:
        return not len(self.ids) and not self.base_set

    def element_ids(self):
        return self.ids.tolist()

    def cost_of(self, eid: int) -> float:
        """The float cost of ``eid``: 0.0 for a base id."""
        return self._cost_at.item(self._at[eid])

    def cost(self, ids) -> float:
        """Total cost, correctly rounded (``math.fsum``): a set that fits
        never reports a cost above the capacity."""
        return math.fsum(self.cost_of(i) for i in ids)

    def room(self, ids) -> int:
        """Exact capacity left after ``ids``, in units; negative if over."""
        return self.unit_capacity - sum(
            map(self.unit_array.item, map(self._at.__getitem__, ids)))

    def fits(self, ids) -> bool:
        """The one feasibility rule."""
        return self.room(ids) >= 0

    def locate(self, ids) -> np.ndarray:
        """The position of each id in ``ids``, any iterable: its index for
        an element, n for a base id and n + 1 for anything the instance
        does not hold (1.5 included)."""
        return np.fromiter(map(self._at.get, ids, repeat(self.n + 1)), np.intp)

    def fit_mask(self, positions, room: int) -> np.ndarray:
        """Whether ``unit_array`` at each of ``positions`` is at most
        ``room``, as a bool array: the one vectorized fit rule.  Position
        n, a base id, fits any room >= 0; n + 1, an id not held, fits none.
        The room is compared as :meth:`clamp_room` clamps it."""
        return self.unit_array[positions] <= self.clamp_room(room)

    def clamp_room(self, room: int) -> int:
        """``room`` clamped to U, the largest element unit, which
        ``unit_array`` holds one past at n + 1.  That is exact, as a room of
        U fits every element, and keeps a comparison with the units in
        int64 wherever the element units fit it, whatever the capacity's."""
        return min(room, self.unit_array.item(-1) - 1)

    def __repr__(self):
        return (f"Instance(n={self.n}, capacity={self.capacity:g}, "
                f"k_tilde={self.k_tilde}, base={len(self.base_set)})")


def _scaled_units(capacity: float, costs: np.ndarray) -> np.ndarray | None:
    """``[capacity, *costs]`` times 2**S as an int64 array, S the fewest
    binary places that make every one of them an integer, or ``None`` when
    the capacity times 2**S does not fit int64 (no cost exceeds the
    capacity).  The last float below 2**63 is 2**63 - 2**10, so the
    largest element unit plus one fits int64 too.

    ``np.frexp`` gives each value as f * 2**e with f in [0.5, 1), so
    m = f * 2**53 is an integer and the value is m * 2**(e - 53); its
    places are 53 - e less the trailing zeros of m.  Scaling by a power of
    two is exact, so the scaled floats are the integers themselves.
    """
    values = np.append(capacity, costs)
    fractions, exponents = np.frexp(values)
    mantissas = (fractions * 2.0**53).astype(np.int64)
    # the lowest set bit of m is 2**(its exponent - 1)
    _, low = np.frexp((mantissas & -mantissas).astype(float))
    places = max(0, int((54 - exponents - low).max()))
    top = int(exponents[0]) + places  # the scaled capacity lies below 2**top
    if top > 63:
        return None
    return np.ldexp(values, places).astype(np.int64)


def _checked_capacity(capacity) -> float:
    """``capacity`` as a float, or ``ValueError`` unless it is a real
    number (``numbers.Real``), finite, positive and within a float: the one
    capacity rule of :class:`Instance` and :func:`normalize`."""
    try:
        value = float(capacity) if isinstance(capacity, numbers.Real) else math.nan
    except OverflowError:  # past any float (10**400): not finite
        value = math.inf
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    return value


def _int_array(values) -> np.ndarray:
    """``values``, a list or an array of integers, as an int64 array, or as
    an object array of Python ints when one lies outside int64 (NumPy alone
    would make a float64 array of a mix such as ``[-1, 2**63]``)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _nonfinite(value: float, ids) -> NonFiniteValue:
    return NonFiniteValue(f"objective answered {value!r} on {sorted(ids)}")


class QueryLedger:
    """Thread-safe counter of oracle evaluations.

    With ``enforce_feasible`` on (the default), evaluating a set whose cost
    exceeds the capacity raises :class:`InfeasibleQuery` and counts nothing.
    With enforcement off the query is answered but tallied in
    ``infeasible_query_count`` for observability.  An optional ``budget``
    turns the ledger into a hard stop: a query that would push the count past
    the budget raises :class:`BudgetExceeded` before being evaluated; any
    budget but ``None`` or an integer >= 0 raises ``ValueError``.
    ``speculative_evaluations`` tallies objective evaluations computed ahead
    of a query and never asked (see :meth:`SubmodularOracle.values_ahead`);
    they are not queries.
    """

    def __init__(self, enforce_feasible: bool = True, budget: int | None = None):
        if not (budget is None or isinstance(budget, numbers.Integral) and budget >= 0):
            raise ValueError(f"budget must be None or an integer >= 0, "
                             f"got {budget!r}")
        self.enforce_feasible = enforce_feasible
        self.budget = budget
        self.query_count = 0
        self.infeasible_query_count = 0
        self.speculative_evaluations = 0
        self._lock = threading.Lock()

    def _admit(self, count: int = 1, infeasible: bool = False,
               speculative: int = 0):
        """Admit ``count`` queries under one lock.  A budget stops them where
        as many single queries would stop: those under it are counted, then
        :class:`BudgetExceeded` is raised.  The count never falls.

        ``speculative`` more evaluations were computed beside them and never
        asked: they go to ``speculative_evaluations``, never to
        ``query_count``, once the queries are admitted."""
        with self._lock:
            if self.budget is not None and self.query_count + count > self.budget:
                taken = max(0, self.budget - self.query_count)
                self.query_count += taken
                self.infeasible_query_count += taken if infeasible else 0
                raise BudgetExceeded(
                    f"query budget of {self.budget} oracle calls exhausted")
            self.query_count += count
            if infeasible:
                self.infeasible_query_count += count
            self.speculative_evaluations += speculative


@dataclass(frozen=True, slots=True)
class WorkingSet:
    """A set of element ids S, kept ready for "f(S + e)" queries.

    ``order`` holds the ids in insertion order and ``ids`` is
    ``frozenset(order)``: built from the insertion order, it iterates like
    a set grown one ``add`` at a time, so an order-sensitive float sum (a
    modular objective) sees the same order on every path.  ``room`` is the
    exact integer capacity left, in the units of ``Instance.unit_array``
    and negative if over; it is a Python int, which no sum wraps.
    ``value`` is f(S) as the caller recorded it, or ``None`` where nothing
    reads it; ``state`` is the objective's incremental state of S plus the
    base set, ``None`` on the whole-set path.  Make one with
    :meth:`SubmodularOracle.working_set` and grow it with
    :meth:`SubmodularOracle.add`; it is never mutated, so one working set
    may seed many machines or threshold sets.
    """

    order: tuple[int, ...]
    ids: frozenset[int]
    room: int
    value: float | None
    state: object


class SubmodularOracle:
    """Query-counted access to a set function on an instance.

    ``fn`` is either a callable on frozensets of ids or an object with a
    ``value(ids)`` method; a bound ``value`` method stands for its object.
    The base set is unioned into every evaluation, so base members
    contribute nothing as marginals.

    The protocol (optional, see the module docstring) promises that
    ``value_with(extend(None, S), eid)`` returns exactly the float
    ``value(S | {eid})`` returns, and ``values_with`` the same float for
    each id, bit for bit.  :class:`~knapsub.objectives.CoverageObjective`
    and :class:`~knapsub.objectives.MovieObjective` implement it.  Any other
    objective takes the whole-set path through :meth:`evaluate`, so a
    wrapper installed on ``evaluate`` sees every query the oracle answers,
    except the copies of Distributed+Max's shared sample, which each
    machine is charged with ``QueryLedger._admit`` but only the first asks.
    """

    def __init__(self, instance: Instance, fn):
        self.instance = instance
        owner = getattr(fn, "__self__", None)
        if owner is not None and fn == getattr(owner, "value", None):
            fn = owner
        self._fn = fn.value if hasattr(fn, "value") else fn
        protocol = all(hasattr(fn, name)
                       for name in ("extend", "value_with", "values_with"))
        self._protocol = fn if protocol else None

    def _infeasible(self, ids) -> InfeasibleQuery:
        return InfeasibleQuery(
            f"set of cost {self.instance.cost(ids):g} exceeds capacity "
            f"{self.instance.capacity:g}")

    def evaluate(self, ids, ledger: QueryLedger) -> float:
        ids = frozenset(ids)
        infeasible = not self.instance.fits(ids)
        if infeasible and ledger.enforce_feasible:
            raise self._infeasible(ids)
        ledger._admit(1, infeasible)
        value = float(self._fn(ids | self.instance.base_set))
        if not math.isfinite(value):
            raise _nonfinite(value, ids)
        return value

    def working_set(self, ids=(), value: float | None = None) -> WorkingSet:
        """A working set of ``ids`` whose value the caller already knows;
        spends no query."""
        order = tuple(ids)
        state = None
        if self._protocol is not None:
            state = self._protocol.extend(None, (*self.instance.base_set, *order))
        return WorkingSet(order, frozenset(order), self.instance.room(order),
                          value, state)

    def add(self, ws: WorkingSet, eid: int,
            value: float | None = None) -> WorkingSet:
        """``ws`` plus ``eid`` (not yet a member), recorded at ``value``;
        spends no query."""
        room = ws.room - self.instance.unit_array.item(self.instance._at[eid])
        order = (*ws.order, eid)
        state = None
        if self._protocol is not None:
            state = self._protocol.extend(ws.state, (eid,))
        return WorkingSet(order, frozenset(order), room, value, state)

    def value_with(self, ws: WorkingSet, eid: int, ledger: QueryLedger) -> float:
        """f(S + eid) for the working set S: one query, counted and checked
        for feasibility exactly as :meth:`evaluate` would."""
        obj = self._protocol
        if obj is None:
            return self.evaluate(ws.ids | {eid}, ledger)
        inst = self.instance  # a member takes no more room
        need = 0 if eid in ws.ids else inst.unit_array.item(inst._at[eid])
        infeasible = need > ws.room
        if infeasible and ledger.enforce_feasible:
            raise self._infeasible(ws.ids | {eid})
        ledger._admit(1, infeasible)
        value = obj.value_with(ws.state, eid)
        if not math.isfinite(value):
            raise _nonfinite(value, ws.ids | {eid})
        return value

    def values_with(self, ws: WorkingSet, positions,
                    ledger: QueryLedger) -> np.ndarray:
        """f(S + e) for the element e at each position of the array view
        (``Instance.ids``), in order, as a float array.

        When every position is an element's (below n) and fits S
        (:meth:`Instance.fit_mask`), a protocol objective answers in one
        call: ``len(positions)`` queries, all counted before a non-finite
        value raises, stopped at a budget where single queries would be.
        Any other batch is that many :meth:`value_with` calls, up to a
        position that is no element's (``Instance.locate``'s n or n + 1),
        where it raises ``KeyError``.
        """
        obj, inst = self._protocol, self.instance
        positions = np.asarray(positions, dtype=np.intp)
        if obj is None or positions.size and (
                positions.max() >= inst.n
                or not inst.fit_mask(positions, ws.room).all()):
            values = []
            for p in positions.tolist():
                if p >= inst.n:
                    raise KeyError(f"position {p} holds no element")
                values.append(self.value_with(ws, int(inst.ids[p]), ledger))
            return np.array(values, dtype=float)
        ids = inst.ids[positions]
        ledger._admit(len(ids))
        values = obj.values_with(ws.state, ids)
        finite = np.isfinite(values)
        if not finite.all():
            j = int(finite.argmin())
            raise _nonfinite(float(values[j]), ws.ids | {int(ids[j])})
        return values

    def values_ahead(self, ws: WorkingSet, positions, ledger: QueryLedger):
        """f(S + e) for the element e at each position of the array view,
        all outside S and fitting it, to be read in order up to a point and
        settled with :meth:`charge_ahead`.

        A protocol objective computes them all at once, as a float array:
        nothing is counted and nothing is checked until ``charge_ahead``.
        Any other objective gets a generator of :meth:`value_with` queries,
        each counted and checked when it is read, so nothing is computed
        ahead and ``charge_ahead`` has nothing left to charge.
        """
        ids = self.instance.ids[positions]
        if self._protocol is None:
            return (self.value_with(ws, eid, ledger) for eid in ids.tolist())
        return np.asarray(self._protocol.values_with(ws.state, ids), dtype=float)

    def charge_ahead(self, ws: WorkingSet, positions, values, used: int,
                     ledger: QueryLedger) -> None:
        """Settle a :meth:`values_ahead` batch of which the first ``used``
        were read: count them as the queries single ones would be, and the
        rest as speculative evaluations.  A non-finite value among the
        first ``used`` ends the count there and raises
        :class:`NonFiniteValue`, as a single query would; one beyond them
        is never raised."""
        if self._protocol is None:
            return  # each value read was a query, counted when read
        finite = np.isfinite(values[:used])
        if finite.all():
            ledger._admit(used, speculative=len(values) - used)
            return
        used = int(finite.argmin()) + 1
        ledger._admit(used, speculative=len(values) - used)
        eid = int(self.instance.ids[positions[used - 1]])
        raise _nonfinite(float(values[used - 1]), ws.ids | {eid})


@dataclass(frozen=True)
class TraceStep:
    """One prefix of a greedy or thresholding run.

    ``cum_cost`` and ``value`` describe the prefix itself; ``next_density``
    is the marginal density of the item taken next (0 at the terminal step);
    ``ub_density`` upper-bounds the marginal density of every element outside
    the prefix, using the last known density of items already discarded.
    """

    cum_cost: float
    value: float
    next_density: float
    ub_density: float = 0.0


@dataclass
class GreedyTrace:
    """Piecewise-linear performance curve of an incremental run.

    The curve passes through (cum_cost, value) of each step and climbs with
    slope ``next_density`` until the next step.
    """

    steps: list[TraceStep] = field(default_factory=list)


@dataclass
class AlgoReport:
    """Uniform result record produced by every algorithm."""

    algorithm: str
    solution: Solution
    queries: int
    passes: int = 0
    rounds: int = 0
    max_central_receipts: int = 0
    wall_time: float = 0.0
    trace: GreedyTrace | None = None
    speculative_evaluations: int = 0


class RunMeter:
    """Marks where one algorithm call starts and builds its :class:`AlgoReport`.

    Queries, speculative evaluations and stream passes are counted from the
    moment the meter is made, so work done earlier on a shared ledger or
    stream is not charged.
    """

    def __init__(self, name: str, instance: Instance, ledger: QueryLedger,
                 stream=None):
        self.name = name
        self.instance = instance
        self.ledger = ledger
        self.stream = stream
        self.q0 = ledger.query_count
        self.s0 = ledger.speculative_evaluations
        self.p0 = 0 if stream is None else stream.pass_count
        self.started = time.perf_counter()

    def report(self, ids, value: float, trace: GreedyTrace | None = None,
               rounds: int = 0, max_central_receipts: int = 0) -> AlgoReport:
        ids = frozenset(ids)
        return AlgoReport(
            algorithm=self.name,
            solution=Solution(ids, value, self.instance.cost(ids)),
            queries=self.ledger.query_count - self.q0,
            passes=0 if self.stream is None else self.stream.pass_count - self.p0,
            rounds=rounds,
            max_central_receipts=max_central_receipts,
            wall_time=time.perf_counter() - self.started,
            trace=trace,
            speculative_evaluations=self.ledger.speculative_evaluations - self.s0,
        )


def normalize(raw_elements, capacity, base_ids=()) -> Instance:
    """Rescale costs so the cheapest positive cost is exactly 1.

    Zero-cost items move into the base set, items costlier than the rescaled
    capacity are dropped (an infinite cost before the cheapest is picked),
    and the capacity is divided by the same factor.
    Normalizing an already-normalized instance changes nothing.  An instance
    with no purchasable elements and no base set is returned as-is but
    flagged with :class:`EmptyInstanceWarning`.  A cost that is not a
    number >= 0 (NaN included), an id that ``int`` would change (1.5) or
    an id given twice raises ``ValueError``, naming its element, before
    anything is dropped; then so does a capacity that :class:`Instance`
    refuses (not a real number, not finite and positive, or too large for
    a float), before it is rescaled, and one that overflows once
    rescaled.

    The items, ``(id, cost)`` pairs or :class:`Element` s, are read into
    an id list (``int`` of each) and a cost array (``float`` of each) in
    one pass, and every rule is decided on those.  Where one fails, or an
    item cannot be read, the items are scanned in input order and the first
    offender names the error.  The instance is built from the ids and the
    rescaled costs; its ``elements`` are made only when read.
    """

    items = list(raw_elements)
    base = set(base_ids)
    try:
        ids, costs = _columns(items)
        eids = list(map(int, ids))
        values = np.fromiter(map(float, costs), float, len(costs))
    except Exception:  # the scan names the first bad item, or this error stands
        _raise_first_bad_item(items)
        raise
    if eids != ids or len(set(eids)) != len(eids) or not (values >= 0).all():
        _raise_first_bad_item(items)
    _checked_capacity(capacity)

    zero = values == 0.0
    if zero.any():
        base.update(compress(eids, zero.tolist()))
    keep = (values > 0.0) & (values < math.inf)  # an infinite cost fits no capacity
    if keep.any():
        unit = float(values[keep].min())
        if math.isinf(capacity / unit):
            raise ValueError(f"capacity {capacity!r} over the cheapest cost "
                             f"{unit!r} overflows a float")
        capacity = capacity / unit
        values = values / unit
        if isinstance(capacity, float):
            keep &= values <= capacity
        else:  # NumPy would compare as float64, Python in the capacity's type
            keep &= np.array([v <= capacity for v in values.tolist()], dtype=bool)
    if not keep.all():
        eids = list(compress(eids, keep.tolist()))
    inst = Instance._of(eids, values[keep], capacity, base)
    if inst.empty:
        warnings.warn("normalization produced an empty instance",
                      EmptyInstanceWarning, stacklevel=2)
    return inst


def _columns(items) -> tuple[list, list]:
    """``item[0]`` and ``item[1]`` of every item, an Element read as
    ``(id, cost)``."""
    try:
        return list(map(_FIRST, items)), list(map(_SECOND, items))
    except TypeError:  # an Element is no pair
        pairs = [(e.id, e.cost) if isinstance(e, Element) else e for e in items]
        return list(map(_FIRST, pairs)), list(map(_SECOND, pairs))


def _raise_first_bad_item(items) -> None:
    """Raise the error of the first item, in input order, whose id or cost
    :func:`normalize` refuses, as reading the items one at a time would."""
    seen = set()
    for item in items:
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


def brute_force_opt(instance: Instance, oracle: SubmodularOracle) -> Solution:
    """Exact optimum by subset enumeration, guarded at 22 elements.

    Ties in value resolve to the lexicographically smallest sorted id tuple,
    so the result is deterministic across enumeration orders.
    """

    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} elements exceed the exact-search limit of "
                       f"{BRUTE_FORCE_LIMIT}")
    ledger = QueryLedger(enforce_feasible=True)
    ids = instance.ids[instance.by_id].tolist()
    units = instance.unit_array[instance.by_id].tolist()

    # exact subset costs share structure: cum(mask) = cum(mask - low bit) + low bit
    cum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        cum[mask] = cum[mask ^ low] + units[low.bit_length() - 1]

    best_value = oracle.evaluate((), ledger)
    best_ids: tuple[int, ...] = ()
    for mask in range(1, 1 << n):
        if cum[mask] > instance.unit_capacity:
            continue
        subset = frozenset(ids[i] for i in range(n) if mask >> i & 1)
        v = oracle.evaluate(subset, ledger)
        if v > best_value:
            best_value, best_ids = v, tuple(sorted(subset))
        elif v == best_value:
            key = tuple(sorted(subset))
            if best_ids and (not key or key < best_ids):
                best_ids = key
    chosen = frozenset(best_ids)
    return Solution(chosen, best_value, instance.cost(chosen))


def upper_bound_opt(instance: Instance, oracle: SubmodularOracle,
                    trace: GreedyTrace) -> float:
    """Certified upper bound on the optimum from one full greedy trace.

    Takes the minimum of the whole-ground-set value and, over every greedy
    prefix, prefix value plus capacity times the prefix's density bound.
    Monotonicity gives the first term; submodularity makes each recorded
    ``ub_density`` dominate the true marginal density of all outside
    elements, which bounds what the optimum can still add.  The ground-set
    evaluation may exceed the capacity, so it runs on a non-enforcing side
    ledger; no extra greedy passes are needed.

    Only an offline greedy's trace records ``ub_density``: a sieve's trace
    holds 0, so it bounds nothing.  On six unit-cost modular items of
    weights 1..6 with K = 3, a ``sieve`` trace gives 0.0; the sieve found 15.0.
    """

    side = QueryLedger(enforce_feasible=False)
    bound = oracle.evaluate(instance.element_ids(), side)
    for s in trace.steps:
        bound = min(bound, s.value + instance.capacity * s.ub_density)
    return bound
