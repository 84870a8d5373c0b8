"""Instance plumbing: normalization, ledger accounting, brute force, bounds."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapsub import (
    BudgetExceeded,
    Element,
    EmptyInstanceWarning,
    GreedyTrace,
    InfeasibleQuery,
    Instance,
    ModularObjective,
    MpcConfig,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    TooLarge,
    TraceStep,
    brute_force_opt,
    distributed_sieve_plus_max,
    estimate_lambda,
    normalize,
    sieve,
    sieve_or_max,
    sieve_plus_max,
    upper_bound_opt,
)
from knapsub.offline import greedy, greedy_plus_max

from knapsub import coverage_costs
from knapsub.bench.datasets import preferential_adjacency

from helpers import (
    ReferenceInstance,
    reference_normalize,
    tight_oracle,
    validate_trace,
)


def test_instance_rejects_nonpositive_cost():
    with pytest.raises(ValueError):
        Instance([Element(0, 0.0)], 2.0)
    with pytest.raises(ValueError):
        Instance([Element(0, -1.0)], 2.0)


def test_instance_rejects_duplicate_ids_and_an_overlapping_base_set():
    with pytest.raises(ValueError, match="duplicate element ids"):
        Instance([Element(0, 1.0), Element(0, 2.0)], 4.0)
    with pytest.raises(ValueError, match="base_set must be disjoint"):
        Instance([Element(0, 1.0), Element(1, 2.0)], 4.0, base_set={1})


def _instance_fields(inst):
    """Every attribute ``Instance.__init__`` builds, with each Python
    number's type and each array's dtype and bytes, so equal means bit for
    bit.  Only the capacity, the base set and the elements, compared by
    the callers, are left out, and no attribute goes unnamed: the costs
    are held once as floats, ``costs`` a view of the one buffer
    ``_cost_at``, and once as units, and a third copy fails."""
    def array(a):
        return a.dtype, a.shape, a.tolist() if a.dtype == object else a.tobytes()

    assert inst.costs.base is inst._cost_at
    fields = {"unit_capacity": (type(inst.unit_capacity), inst.unit_capacity),
              "unit_array": array(inst.unit_array),
              "k_tilde": (type(inst.k_tilde), inst.k_tilde),
              "_at": list(inst._at.items()), "ids": array(inst.ids),
              "by_id": array(inst.by_id), "costs": array(inst.costs),
              "_cost_at": array(inst._cost_at)}
    assert vars(inst).keys() == fields.keys() | {"capacity", "base_set",
                                                 "_elements"}
    return fields


def _reference_inputs(corpus):
    for idx in range(100):
        inst, _, _ = corpus(idx)
        yield inst.elements, inst.capacity, inst.base_set
    adjacency = preferential_adjacency(400, 3, seed=271)
    for k in (10.0, 30.0, 50.0):
        inst = normalize(sorted(coverage_costs(adjacency).items()), k)
        yield inst.elements, inst.capacity, inst.base_set
    # int costs, each a float's value or not (past 2**53, a Fraction)
    yield [Element(i, c) for i, c in enumerate([3, 1, 2, 2])], 5, ()
    yield [Element(i, c) for i, c in enumerate([3, 1, 2**60 + 1])], 2.0**61, ()
    yield [Element(0, Fraction(1, 3)), Element(1, 0.5)], 1, ()
    big = [-2**70, -2**63 - 1, -1, 2**63 - 1, 2**63, 2**70]
    costs = [2.0, 1.0, 3.0, 1.0, 1.0, 2.0]
    yield [Element(i, c) for i, c in zip(big, costs)], 4.0, ()
    yield [Element(i, 1.5 * i) for i in (5, 2, 9)], 14.0, {7, -3, 2**64}
    yield [], 3.5, {1, 2}
    # the capacity times 2**S: the last float below 2**63 (int64), then
    # 2**63, 1e20 and past a float (2,071 bits), each in Python ints
    for capacity in (2.0**63 - 1024, 2.0**63):
        yield [Element(0, 1.0), Element(1, 3.0)], capacity, ()
    yield [Element(0, 1.0), Element(1, 2.5)], 1e20, ()
    yield [Element(0, 5e-324), Element(1, 1e300)], 1e300, ()


def test_instance_matches_the_scalar_reference(corpus):
    seen = 0
    for elements, capacity, base in _reference_inputs(corpus):
        got = Instance(elements, capacity, base)
        want = ReferenceInstance(elements, capacity, base)
        assert _instance_fields(got) == _instance_fields(want), \
            (elements, capacity)
        assert got.elements == want.elements
        seen += 1
    assert seen == 113
    assert got.unit_capacity.bit_length() == 2071


def _normalize_inputs(corpus):
    """Every :func:`_reference_inputs` case, then raw pairs that only
    ``normalize`` takes, good and bad."""
    yield from _reference_inputs(corpus)
    yield [(np.int64(1), 1.0), (3, 2.0), (5.0, 2.0), (True, 3.0)], 4.0, ()
    yield [(1.5, 1.0), (3, 2.0)], 4.0, ()
    yield [(2**70, 1.0), (-2**63 - 1, 3.0), (2**63, 0.0), (7, 2.5)], 5.0, {-2**80}
    yield [(0, Fraction(1, 3)), (1, Fraction(2, 3)), (2, 1)], Fraction(5, 3), ()
    yield [(0, 2**60 + 1), (1, 3), (2, np.float32(0.1))], 2.0**61, ()
    yield [(0, "1.5"), (1, 1.0), (2, 0.5, "ignored")], 4.0, ()
    yield [(0, 0.0), (1, math.inf), (2, 2.0), (3, 4.0), (4, 9.0)], 8.0, ()
    yield [Element(0, 2.0), (1, 4.0), Element(2, 0.0)], 8.0, ()
    for bad in ([(0, 1.0), (1, math.nan)], [(1, math.nan), (0, 1.0)],
                [(0, 1.0), (1, -0.5)], [(1, 1.0), (1, math.inf)],
                [(1, 0.0), (1, 2.0)], [(0, 1.0), 5], [("a", 1.0)],
                [(1.5, 1.0), (2, "x")], [(0, "x"), (1.5, 1.0)],
                [(0, 1.0), (1,)], [(0, 10**400)], [(math.inf, 1.0)]):
        yield bad, 5.0, ()
    # the capacity overflows once rescaled, or is refused rescaled
    yield [(0, 1e-320), (1, 1.0)], 5.0, ()
    for capacity in (math.inf, math.nan, -1.0, 0.0, 10**400):
        yield [(0, 2.0), (1, 3.0)], capacity, ()
    yield [(0, 0.0)], 10**400, ()
    yield [(0, 1.0)], 2.0, {0}
    # a float32 capacity compares as float32, then fails the float64 check
    yield [(0, 3.0), (1, 5.0)], np.float32(5.0), ()
    yield [(0, 1.0), (1, 2.0)], np.float32(2.5), ()
    # empty instances, which warn
    for raw, capacity in (([(0, 9.0)], 4.0), ([(0, math.inf)], 5.0), ([], 1.0)):
        yield raw, capacity, ()


def _normalized(build, raw, capacity, base):
    """Everything ``build`` makes of the input, bit for bit, or its error,
    with every warning and the file it points at."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = build(raw, capacity, base)
        except Exception as exc:
            made = type(exc), str(exc)
        else:
            made = (_instance_fields(inst), inst.capacity.hex(),
                    list(inst.base_set),
                    [(type(e), type(e.id), e.id, type(e.cost), e.cost)
                     for e in inst.elements])
    return made, [(w.category, str(w.message), w.filename) for w in caught]


def test_normalize_matches_the_scalar_reference(corpus):
    kinds = set()
    for raw, capacity, base in _normalize_inputs(corpus):
        want = _normalized(reference_normalize, raw, capacity, base)
        for given in (raw, iter(raw)):
            assert _normalized(normalize, given, capacity, base) == want, \
                (raw, capacity)
        made, caught = want
        kinds.add(made[0] if isinstance(made[0], type) else "built")
        assert all(filename == __file__ for *_, filename in caught)
        kinds.update(category for category, *_ in caught)
    assert kinds == {"built", ValueError, TypeError, IndexError,
                     OverflowError, EmptyInstanceWarning}


@pytest.mark.parametrize("costs, capacity", [
    ([1.0, 2.0, math.nan, -1.0, 9.0], 5.0),
    ([1.0, -1.0, math.nan, 9.0], 5.0),
    ([1.0, 9.0, -1.0, math.nan], 5.0),
    ([2.0, 0.0, 9.0], 5.0),
    ([2.0, math.inf, 0.0], 5.0),
    ([2, 6, math.nan], 5.0),
    ([Fraction(11, 2), -1.0], 5.0),
])
def test_instance_names_the_first_bad_cost_as_the_scalar_reference(costs,
                                                                   capacity):
    elements = [Element(10 + i, c) for i, c in enumerate(costs)]
    with pytest.raises(ValueError) as want:
        ReferenceInstance(elements, capacity)
    with pytest.raises(ValueError) as got:
        Instance(elements, capacity)
    assert str(got.value) == str(want.value)


def test_instance_rejects_oversized_element():
    with pytest.raises(ValueError):
        Instance([Element(0, 3.0)], 2.0)


def test_instance_rejects_nonfinite_capacity():
    # an unbounded budget used to give three different answers across the
    # solvers, one of them a math-domain crash in the estimator, and one
    # too large for a float raised a bare OverflowError
    # a string or a Decimal, no numbers.Real, was read by float() in
    # Instance and raised a bare TypeError in normalize
    for capacity in (math.inf, math.nan, 10**400, "3", Decimal(3)):
        with pytest.raises(ValueError, match="capacity"):
            Instance([Element(i, 1.0) for i in range(4)], capacity)
        with pytest.raises(ValueError, match="capacity"):
            normalize([(0, 1.0)], capacity)
    with pytest.raises(ValueError, match="capacity"):
        normalize([(0, 0.0)], 10**400)
    # a budget of 0 divided by zero in the sieves' threshold grid, and a
    # negative one refused the empty set as an infeasible query
    for capacity in (0.0, -1.0):
        with pytest.raises(ValueError, match="capacity must be"):
            Instance([], capacity)
        with pytest.raises(ValueError, match="capacity must be"):
            normalize([(0, 1.0)], capacity)


def test_ids_beyond_int64_run_like_small_ids():
    # the solvers hold ids in arrays; ids past int64 must not round
    # through float64, which would merge 2**63 - 1 and 2**63
    big = [-2**70, -2**63 - 1, -1, 2**63 - 1, 2**63, 2**70]
    costs = [2.0, 1.0, 3.0, 1.0, 1.0, 2.0]
    weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]

    def runs(ids):
        inst = Instance([Element(i, c) for i, c in zip(ids, costs)], 4.0)
        oracle = SubmodularOracle(inst, ModularObjective(dict(zip(ids, weights))))
        est = estimate_lambda(StreamSource(ids), 4.0, oracle)
        reports = [greedy(inst, oracle).report]
        reports += [solver(StreamSource(ids), 4.0, oracle, est.lam, est.alpha,
                           0.1) for solver in (sieve, sieve_or_max, sieve_plus_max)]
        reports += [distributed_sieve_plus_max(
            inst, oracle, est.lam, est.alpha, 0.1,
            MpcConfig(machines, 100.0)).report for machines in (1, 2)]
        return est, [(sorted(map(ids.index, r.solution.ids)), r.solution.value,
                      r.queries) for r in reports]

    est, picks = runs(range(len(big)))
    assert runs(big) == (est, picks)
    # Sieve+Max and one machine
    assert picks[3][:2] == picks[4][:2] == ([1, 4, 5], 15.0)
    inst = Instance([Element(i, c) for i, c in zip(big, costs)], 4.0)
    at = inst.locate([2**63, 2**63 + 1, -1, -2**70])
    assert inst.fit_mask(at, 2).tolist() == [True, False, False, True]


def test_locate_reads_any_iterable_of_ids_alike():
    inst = Instance([Element(i, 1.0) for i in (5, 2, 9)], 4.0, base_set={7})
    ids = [9, 7, 2**70, 5, -2**70, 3, 2, 9]
    want = [2, 3, 4, 0, 4, 4, 1, 2]
    for given in (ids, tuple(ids), (i for i in ids),
                  np.array(ids, dtype=object)):
        assert inst.locate(given).tolist() == want
    small = [i for i in ids if abs(i) < 2**63]
    assert inst.locate(np.array(small, dtype=np.int64)).tolist() == \
        [w for i, w in zip(ids, want) if abs(i) < 2**63]
    # an id is held only as itself: 1.5 was truncated to id 1's position
    inst = Instance([Element(0, 1.0), Element(1, 1.0)], 2.0)
    assert inst.locate([1.5, 1]).tolist() == [3, 1]
    assert inst.locate([]).tolist() == []


def test_instance_accessors():
    inst = Instance([Element(0, 1.0), Element(1, 2.0)], 3.0, base_set={7})
    assert inst.n == 2
    assert inst.k_tilde == 2
    assert inst.cost_of(0) == 1.0
    assert inst.cost_of(7) == 0.0  # base items are free
    assert inst.cost({0, 1}) == 3.0
    assert inst.fits({0, 1})
    assert not inst.fits({0, 1, 7}) or inst.cost({0, 1, 7}) <= 3.0


def test_k_tilde_truncates_at_n():
    inst = Instance([Element(0, 1.0), Element(1, 1.0)], 100.0)
    assert inst.k_tilde == 2
    inst = Instance([Element(i, 1.0) for i in range(5)], 3.5)
    assert inst.k_tilde == 3
    assert Instance([], 3.0, base_set={1}).k_tilde == 0


def test_k_tilde_bounds_solutions_of_an_instance_not_normalized():
    # floor(capacity) read 2 here, yet four items of cost 0.5 fit
    inst = Instance([Element(i, 0.5) for i in range(10)], 2.0)
    assert inst.k_tilde == 4
    oracle = SubmodularOracle(inst, ModularObjective({i: 1.0 for i in range(10)}))
    assert len(greedy_plus_max(inst, oracle).report.solution.ids) == 4
    report = distributed_sieve_plus_max(inst, oracle, 4.0, 1 / 6, 0.1).report
    assert len(report.solution.ids) == 4
    # an odd capacity: 0.75 fits the cheapest 0.25 three times over
    inst = Instance([Element(0, 0.25), Element(1, 0.5)], 0.75)
    assert inst.k_tilde == 2


def test_normalize_moves_free_items_to_base():
    inst = normalize([(0, 0.0), (1, 2.0), (2, 4.0)], 8.0)
    assert inst.base_set == frozenset({0})
    assert sorted((e.id, e.cost) for e in inst.elements) == [(1, 1.0), (2, 2.0)]
    assert inst.capacity == 4.0


def test_normalize_identity_when_already_normalized():
    inst = normalize([(1, 1.0), (2, 1.0), (3, 1.1)], 2.0)
    assert sorted((e.id, e.cost) for e in inst.elements) == [
        (1, 1.0), (2, 1.0), (3, 1.1)]
    assert inst.capacity == 2.0


def test_normalize_rescales_fractional_costs():
    inst = normalize([(1, 0.5), (2, 0.5), (3, 0.55)], 1.0)
    assert sorted((e.id, e.cost) for e in inst.elements) == [
        (1, 1.0), (2, 1.0), (3, 1.1)]
    assert inst.capacity == 2.0


def test_normalize_drops_items_exceeding_capacity():
    inst = normalize([(0, 1.0), (1, 9.0)], 5.0)
    assert [e.id for e in inst.elements] == [0]


def test_normalize_rejects_negative_cost():
    with pytest.raises(ValueError):
        normalize([(0, -0.25)], 2.0)


@pytest.mark.parametrize("raw", [[(0, 1.0), (1, math.nan)],
                                 [(1, math.nan), (0, 1.0)]])
def test_normalize_rejects_a_nan_cost_in_any_order(raw):
    # last, it was dropped silently; first, it read as a NaN capacity
    with pytest.raises(ValueError, match="element 1 has cost nan"):
        normalize(raw, 5.0)


def test_normalize_rejects_an_id_that_int_would_change():
    # int() truncated 1.5 to id 1
    with pytest.raises(ValueError, match="element 1.5 has an id that is not"):
        normalize([(1.5, 1.0), (3, 2.0)], 4.0)
    inst = normalize([(np.int64(1), 1.0), (3, 2.0), (5.0, 2.0)], 4.0)
    assert [e.id for e in inst.elements] == [1, 3, 5]


@pytest.mark.parametrize("raw", [[(1, 1.0), (1, 100.0)],
                                 [(1, 1.0), (1, math.inf)],
                                 [(1, 0.0), (1, 0.0), (2, 1.0)],
                                 [(1, 0.0), (1, 2.0)]])
def test_normalize_names_an_id_given_twice(raw):
    # the first two kept element 1 at cost 1.0, the third put it in the
    # base set, and the last blamed the base set
    with pytest.raises(ValueError, match="element id 1 appears more than once"):
        normalize(raw, 5.0)


def test_normalize_drops_infinite_costs_before_picking_the_unit():
    # an infinite unit made the capacity 5 / inf = 0.0, and inf / inf = nan
    with pytest.warns(EmptyInstanceWarning):
        inst = normalize([(0, math.inf)], 5.0)
    assert inst.empty and inst.capacity == 5.0
    with pytest.raises(ValueError, match="got inf"):
        normalize([(0, math.inf)], math.inf)
    inst = normalize([(0, 2.0), (1, math.inf), (2, 4.0)], 8.0)
    assert [(e.id, e.cost) for e in inst.elements] == [(0, 1.0), (2, 2.0)]
    assert inst.capacity == 4.0


def test_normalize_names_a_rescaled_capacity_that_overflows():
    # it read "capacity must be finite and positive, got inf"
    with pytest.raises(ValueError, match="over the cheapest cost 1e-320 overflows"):
        normalize([(0, 1e-320), (1, 1.0)], 5.0)


def test_normalize_idempotent(corpus):
    for idx in range(10):
        inst, _, _ = corpus(idx)
        again = normalize(inst.elements, inst.capacity, inst.base_set)
        assert again.capacity == inst.capacity
        assert again.base_set == inst.base_set
        assert [(e.id, e.cost) for e in again.elements] == [
            (e.id, e.cost) for e in inst.elements]


def test_normalize_warns_on_empty_result():
    with pytest.warns(EmptyInstanceWarning):
        inst = normalize([(0, 9.0)], 4.0)
    assert inst.empty
    # a surviving base set is not empty, so no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normalize([(0, 0.0), (1, 9.0)], 4.0)


@given(st.lists(st.tuples(st.integers(0, 50),
                          st.one_of(st.just(0.0), st.just(math.inf),
                                    st.floats(1e-6, 40.0))),
                min_size=1, max_size=12, unique_by=lambda t: t[0]),
       st.floats(1.0, 60.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_normalize_properties(raw, capacity):
    assert _normalized(normalize, raw, capacity, ()) == \
        _normalized(reference_normalize, raw, capacity, ())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyInstanceWarning)
        inst = normalize(raw, capacity)
    if inst.elements:
        costs = [e.cost for e in inst.elements]
        assert min(costs) == 1.0
        assert all(c <= inst.capacity for c in costs)
    surviving = {e.id for e in inst.elements} | set(inst.base_set)
    assert surviving <= {i for i, _ in raw}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyInstanceWarning)
        again = normalize(inst.elements, inst.capacity, inst.base_set)
    assert again.capacity == inst.capacity
    assert [(e.id, e.cost) for e in again.elements] == [
        (e.id, e.cost) for e in inst.elements]


def test_ledger_counts_queries():
    inst = Instance([Element(0, 1.0)], 2.0)
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    ledger = QueryLedger()
    assert ledger.query_count == 0
    oracle.evaluate({0}, ledger)
    oracle.evaluate((), ledger)
    assert ledger.query_count == 2


def test_ledger_budget_stops_before_evaluation():
    inst = Instance([Element(0, 1.0)], 2.0)
    calls = []

    def fn(s):
        calls.append(set(s))
        return float(len(s))

    oracle = SubmodularOracle(inst, fn)
    ledger = QueryLedger(budget=2)
    oracle.evaluate({0}, ledger)
    oracle.evaluate((), ledger)
    with pytest.raises(BudgetExceeded):
        oracle.evaluate({0}, ledger)
    assert len(calls) == 2  # the refused query never reached the function
    assert ledger.query_count == 2


def test_ledger_refuses_a_budget_that_is_not_a_count():
    # a NaN budget never stopped a run, and 2.5 stopped at 2.5 queries
    for budget in (math.nan, 2.5, -1):
        with pytest.raises(ValueError, match=f"budget must be .*got {budget!r}"):
            QueryLedger(budget=budget)
    assert QueryLedger(budget=0).budget == 0
    assert QueryLedger(budget=np.int64(3)).budget == 3


def test_ledger_admits_a_batch_up_to_its_budget_and_never_lowers_the_count():
    ledger = QueryLedger(budget=5)
    ledger._admit()
    ledger._admit(2)
    ledger._admit(0)
    with pytest.raises(BudgetExceeded):
        ledger._admit(4)  # the two under the budget are counted
    assert ledger.query_count == 5
    ledger._admit(0)  # no query, so no stop, even at the budget
    with pytest.raises(BudgetExceeded):
        ledger._admit()
    assert ledger.query_count == 5
    ledger.budget = 2  # a budget below the count takes nothing back
    with pytest.raises(BudgetExceeded):
        ledger._admit(3)
    assert ledger.query_count == 5

    relaxed = QueryLedger(enforce_feasible=False, budget=1)
    relaxed._admit(1, True)
    with pytest.raises(BudgetExceeded):
        relaxed._admit(1, True)
    assert (relaxed.query_count, relaxed.infeasible_query_count) == (1, 1)


def test_ledger_enforces_feasibility():
    inst = Instance([Element(0, 1.0), Element(1, 2.0)], 2.0)
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    ledger = QueryLedger()
    with pytest.raises(InfeasibleQuery):
        oracle.evaluate({0, 1}, ledger)
    assert ledger.query_count == 0

    relaxed = QueryLedger(enforce_feasible=False)
    assert oracle.evaluate({0, 1}, relaxed) == 2.0
    assert relaxed.query_count == 1
    assert relaxed.infeasible_query_count == 1


def test_ledger_thread_exactness():
    inst = Instance([Element(0, 1.0)], 2.0)
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    ledger = QueryLedger()

    def worker():
        for _ in range(500):
            oracle.evaluate({0}, ledger)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.query_count == 8 * 500


def test_oracle_unions_base_set():
    inst = Instance([Element(0, 1.0)], 2.0, base_set={9})
    seen = []

    def fn(s):
        seen.append(frozenset(s))
        return float(len(s))

    oracle = SubmodularOracle(inst, fn)
    ledger = QueryLedger()
    assert oracle.evaluate({0}, ledger) == 2.0
    assert seen[-1] == frozenset({0, 9})
    assert oracle.evaluate((), ledger) == 1.0


def test_marginal_gain():
    inst = Instance([Element(0, 1.0), Element(1, 2.0)], 3.0)
    weights = ModularObjective({0: 1.0, 1: 3.0})
    oracle = SubmodularOracle(inst, weights.value)
    ledger = QueryLedger()
    ws = oracle.working_set({0}, oracle.evaluate({0}, ledger))
    gain = oracle.value_with(ws, 1, ledger) - ws.value
    assert gain == pytest.approx(3.0)
    assert ledger.query_count == 2  # the recorded base value costs nothing
    grown = oracle.add(ws, 1, ws.value + gain)
    assert grown.ids == {0, 1} and grown.room == 0 and grown.value == 4.0
    assert ledger.query_count == 2  # nor does growing the set


def independent_brute(instance, value_fn):
    """Reference optimum via itertools, coded without masks on purpose."""
    ids = sorted(e.id for e in instance.elements)
    best_v = value_fn(frozenset(instance.base_set))
    best_ids = ()
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if instance.cost(combo) > instance.capacity:
                continue
            v = value_fn(frozenset(combo) | frozenset(instance.base_set))
            if v > best_v or (v == best_v and best_ids and combo < best_ids):
                best_v, best_ids = v, combo
    return best_v, frozenset(best_ids)


def test_brute_force_matches_plain_enumeration(corpus):
    for idx in range(30):
        inst, objective, opt = corpus(idx)
        ref_v, ref_ids = independent_brute(inst, objective.value)
        assert opt.value == ref_v
        assert opt.ids == ref_ids
        assert opt.cost == pytest.approx(inst.cost(opt.ids))
        assert opt.cost <= inst.capacity + 1e-12


def test_brute_force_value_reproducible(corpus):
    for idx in range(10):
        inst, objective, opt = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        assert oracle.evaluate(opt.ids, QueryLedger()) == opt.value


def test_brute_force_tie_breaks_to_smallest_ids():
    inst = Instance([Element(i, 1.0) for i in range(4)], 1.0)
    oracle = SubmodularOracle(inst, lambda s: 1.0 if s else 0.0)
    opt = brute_force_opt(inst, oracle)
    assert opt.ids == frozenset({0})


def test_brute_force_size_guard():
    inst = Instance([Element(i, 1.0) for i in range(23)], 23.0)
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    with pytest.raises(TooLarge):
        brute_force_opt(inst, oracle)


def test_upper_bound_on_tight_example():
    inst, oracle = tight_oracle()
    result = greedy(inst, oracle)
    ub = upper_bound_opt(inst, oracle, result.report.trace)
    assert ub == 1.0909090909090908
    opt = brute_force_opt(inst, oracle)
    assert opt.value == 1.0
    assert ub >= opt.value


def test_upper_bound_sound_on_corpus(corpus):
    for idx in range(25):
        inst, objective, opt = corpus(idx)
        oracle = SubmodularOracle(inst, objective.value)
        result = greedy(inst, oracle)
        ub = upper_bound_opt(inst, oracle, result.report.trace)
        assert ub >= opt.value - 1e-9
        assert ub >= result.report.solution.value - 1e-12


def test_trace_validate_flags_violations():
    validate_trace(GreedyTrace([TraceStep(0.0, 0.0, 2.0, 2.0),
                                TraceStep(1.0, 2.0, 0.5, 1.0),
                                TraceStep(3.0, 3.0, 0.0, 0.0)]), offline=True)
    bad = GreedyTrace([TraceStep(0.0, 1.0, 1.0, 1.0),
                       TraceStep(1.0, 0.5, 0.0, 0.0)])
    with pytest.raises(AssertionError):
        validate_trace(bad)
    not_concave = GreedyTrace([TraceStep(0.0, 0.0, 1.0, 1.0),
                               TraceStep(1.0, 1.0, 2.0, 2.0)])
    validate_trace(not_concave)  # fine as a stream trace
    with pytest.raises(AssertionError):
        validate_trace(not_concave, offline=True)


def test_solution_value_matches_fresh_evaluation(corpus):
    for idx in range(8):
        inst, objective, opt = corpus(idx)
        assert objective.value(frozenset(opt.ids) | frozenset(inst.base_set)) \
            == opt.value


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_corpus_instances_well_formed(idx):
    from conftest import make_instance
    inst, objective = make_instance(idx)
    assert inst.capacity >= 1.0
    assert all(e.cost >= 1.0 for e in inst.elements)
    assert inst.k_tilde <= inst.n
    v = objective.value(frozenset(e.id for e in inst.elements))
    assert v >= 0.0
    assert math.isfinite(v)
