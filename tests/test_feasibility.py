"""One exact feasibility rule: boundary capacities that are float subset sums.

A capacity built by adding costs in one order can sit one ulp away from the
same costs added in another order.  Every solver and the oracle must agree
on such a set, so none may crash with InfeasibleQuery or return an answer
whose exact cost exceeds the capacity.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from knapsub import (
    CoverageObjective,
    Element,
    Instance,
    ModularObjective,
    MpcConfig,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    brute_force_opt,
    distributed_sieve_plus_max,
    estimate_lambda,
    greedy_plus_max,
    normalize,
    sieve_plus_max,
)

from knapsub.offline import greedy

from conftest import random_adjacency

# the float sum of these costs in order 0,6,1,2,3,5,4 is 14.233333333333334,
# while the sum in id order is 14.233333333333336
DRIFT_COSTS = [1.0, 1.2, 4 / 3, 3.3000000000000003, 2.7, 1.3, 3.4000000000000004]
DRIFT_ORDER = (0, 6, 1, 2, 3, 5, 4)


def naive_sum(costs, order):
    total = 0.0
    for i in order:
        total += costs[i]
    return total


def exact_cost(instance, ids):
    """The exact cost of ``ids`` at the costs the elements were given, not
    the floats the instance holds, 0 for a base id."""
    given = dict.fromkeys(instance.base_set, Fraction(0))
    given.update((e.id, Fraction(e.cost)) for e in instance.elements)
    return sum(given[i] for i in ids)


def drift_instance():
    capacity = naive_sum(DRIFT_COSTS, DRIFT_ORDER)
    return Instance([Element(i, c) for i, c in enumerate(DRIFT_COSTS)], capacity)


def test_fits_is_exact_in_any_order():
    inst = drift_instance()
    everything = sum(Fraction(c) for c in DRIFT_COSTS)
    expected = everything <= Fraction(inst.capacity)
    for order in itertools.islice(itertools.permutations(range(7)), 200):
        assert inst.fits(order) == expected
    # the integers are the exact costs, all on one scale
    for i, c in enumerate(DRIFT_COSTS):
        assert Fraction(inst.unit_array.item(i), inst.unit_capacity) == \
            Fraction(c) / Fraction(inst.capacity)
    assert inst.room(range(7)) == \
        inst.unit_capacity - sum(inst.unit_array[:7].tolist())


def test_room_is_exact_where_int64_units_would_wrap():
    # five units of 2**61 sum past 2**63: as an int64 sum the room wraps
    # to a positive number and the set fits
    inst = Instance([Element(k, 2.0**61) for k in range(5)], 2.0**62)
    assert inst.unit_array.dtype == np.int64
    assert not inst.fits(range(5))
    assert inst.room(range(5)) == -6917529027641081856 == 2**62 - 5 * 2**61
    assert type(inst.room(range(5))) is int
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    ws = oracle.working_set(range(4))
    assert oracle.add(ws, 4).room == inst.room(range(5))


def test_a_base_id_is_free_and_an_unknown_id_raises_key_error():
    inst = Instance([Element(0, 1.0), Element(1, 2.0)], 3.0, base_set={7})
    assert inst.cost_of(7) == 0.0
    assert inst.room([7]) == inst.unit_capacity
    assert inst.room([0, 1, 7]) == inst.room([0, 1]) == 0
    assert inst.fits([0, 1, 7])
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    ws = oracle.working_set([0])
    assert oracle.add(ws, 7).room == ws.room
    for unknown in (2, -1, 2**70, 1.5):
        with pytest.raises(KeyError):
            inst.room([0, unknown])
        with pytest.raises(KeyError):
            inst.fits([unknown])
        with pytest.raises(KeyError):
            inst.cost_of(unknown)
        with pytest.raises(KeyError):
            oracle.add(ws, unknown)


def test_drift_repro_greedy_plus_max():
    inst = drift_instance()
    oracle = SubmodularOracle(inst, lambda s: float(len(s)))
    report = greedy_plus_max(inst, oracle, QueryLedger()).report
    assert exact_cost(inst, report.solution.ids) <= Fraction(inst.capacity)
    assert report.solution.value == 7.0  # the whole set fits exactly
    # a float sum in set order reads 14.233333333333336 here
    assert report.solution.cost <= inst.capacity


def boundary_instance(seed):
    """Costs in [1, 4); the capacity is a random subset's naive float sum
    in a random order, then rescaled by normalize."""
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    costs = [rng.uniform(1.0, 4.0) for _ in range(n)]
    subset = rng.sample(range(n), rng.randint(2, n))
    instance = normalize(list(enumerate(costs)), naive_sum(costs, subset))
    if seed % 2:
        objective = ModularObjective({i: rng.random() for i in range(n)})
    else:
        objective = CoverageObjective(random_adjacency(n, 0.3, rng))
    return instance, SubmodularOracle(instance, objective.value)


def run_streaming(instance, oracle, solver, seed):
    stream = StreamSource.from_instance(instance)
    est = estimate_lambda(stream, instance.capacity, oracle)
    if est.lam <= 0:
        return frozenset()
    if solver == "sieve_plus_max":
        return sieve_plus_max(stream, instance.capacity, oracle, est.lam,
                              est.alpha, 0.1,
                              density_cap=est.max_singleton_density).solution.ids
    config = MpcConfig(machines=2, memory_cap=10.0 * instance.n + 10.0, seed=seed)
    return distributed_sieve_plus_max(instance, oracle, est.lam, est.alpha, 0.1,
                                      config).report.solution.ids


def star_adjacency():
    """14 vertices: vertex 2 covers 10 of them, vertex 1 covers 3 and
    vertex 0 only itself."""
    adjacency = [[] for _ in range(14)]
    for hub, leaves in ((2, range(3, 12)), (1, (12, 13))):
        for leaf in leaves:
            adjacency[hub].append(leaf)
            adjacency[leaf].append(hub)
    return adjacency


def exact_cost_instances():
    """Costs that are no float's value: 1/3 beside 1/3 + 1e-30, which
    round to one float, and halves beside a third, whose units need the
    lcm of the denominators; each under coverage and a modular objective."""
    third = Fraction(1, 3)
    for costs, weights in (([third, third + Fraction(1, 10**30), 2 * third],
                            {0: 0, 1: 10, 2: 100}),
                           ([Fraction(1, 2), Fraction(1, 2), third],
                            {0: 1, 1: 1, 2: 1})):
        instance = Instance([Element(i, c) for i, c in enumerate(costs)], 1.0)
        for objective in (CoverageObjective(star_adjacency()),
                          ModularObjective(weights)):
            yield instance, SubmodularOracle(instance, objective.value)


SOLVERS = {
    "greedy": lambda inst, oracle, seed:
        greedy(inst, oracle).report.solution.ids,
    "greedy_plus_max": lambda inst, oracle, seed:
        greedy_plus_max(inst, oracle).report.solution.ids,
    "sieve_plus_max": lambda inst, oracle, seed:
        run_streaming(inst, oracle, "sieve_plus_max", seed),
    "distributed_sieve_plus_max": lambda inst, oracle, seed:
        run_streaming(inst, oracle, "distributed", seed),
    "brute_force_opt": lambda inst, oracle, seed:
        brute_force_opt(inst, oracle).ids,
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_boundary_sweep_stays_feasible(solver):
    # when each caller kept its own float sums, these seeds crashed or
    # overran greedy_plus_max 12 times, each streaming solver 9 times and
    # brute force 49 times
    for seed in range(500):
        inst, oracle = boundary_instance(seed)
        ids = SOLVERS[solver](inst, oracle, seed)
        assert exact_cost(inst, ids) <= Fraction(inst.capacity), f"seed {seed}"
    # when float64 ranks decided vectorized fits, and units were scaled by
    # the largest denominator, every solver here overran or raised
    # InfeasibleQuery on at least one of these
    for inst, oracle in exact_cost_instances():
        ids = SOLVERS[solver](inst, oracle, 0)
        assert exact_cost(inst, ids) <= Fraction(inst.capacity), inst.elements


def test_exact_cost_reads_the_costs_as_given():
    # 1/3 + 1e-30 and 2/3 round to the floats of 1/3 and 2/3, which sum
    # to 1 - 2**-54: read as floats, {1, 2} fits a capacity of 1
    inst, _ = next(exact_cost_instances())
    floats = sum(Fraction(inst.cost_of(i)) for i in (1, 2))
    assert floats == 1 - Fraction(1, 2**54)
    assert exact_cost(inst, (1, 2)) == 1 + Fraction(1, 10**30) > Fraction(inst.capacity)
    assert not inst.fits((1, 2))


# units far beyond int64: the capacity is 1e300 on a 2**-52 grid; each
# case names the bits its unit capacity passes and the dtype of its units
WIDE = [1.0, 1.0 + 2**-52, 3.0, 7e299, 1e300], 1e300, 1000, object
# exact costs that round to one float: the ints in int64 units, the
# Fractions on a scale of 3 * 10**30; then element units of 11 bits
# beside a capacity of 74, which once made every unit a Python int
EXACT = {
    "shared-float-ints": ([2**60, 2**60 + 1, 2**60, 3, 2**61], 2**61, 60, np.int64),
    "shared-float-fractions": ([Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30),
                                Fraction(2, 3)], 1.0, 100, object),
    "capacity-past-int64": ([1.0 + k / 1024 for k in range(5)], 3 * 2.0**62, 72,
                            np.int64)}


@pytest.mark.parametrize("costs, capacity, bits, dtype, first_id, gap", [
    # dense, sparse and past-int64 ids
    *(pytest.param(*WIDE, first_id, gap, id=f"{first_id}-{gap}")
      for first_id in (0, 10**12, 2**63 - 7) for gap in (1000, 3)),
    *(pytest.param(*case, 0, 3, id=name) for name, case in EXACT.items())])
def test_fit_mask_is_the_exact_fit_rule(costs, capacity, bits, dtype, first_id, gap):
    n = len(costs)
    elements = [Element(first_id + gap * i, c) for i, c in enumerate(costs)]
    instance = Instance(elements, capacity, base_set=[first_id + 1])
    assert instance.unit_capacity > 2**bits
    assert instance.unit_array.dtype == dtype
    ids = [first_id + 1] + [e.id for e in elements] * 2
    # each element's units by id, in stream order, and the base id's 0
    unit = dict(zip([e.id for e in elements], instance.unit_array[:n].tolist()))
    unit[first_id + 1] = 0
    units = sorted(set(unit.values()))
    # each unit, its neighbours, and the room each element leaves
    rooms = [-1, *units, *(u - 1 for u in units), *(u + 1 for u in units),
             *(instance.unit_capacity - u for u in units)]
    for room in rooms:
        got = instance.fit_mask(instance.locate(ids), room).tolist()
        assert got == [unit[i] <= room for i in ids], room
    # ids between and beyond the instance's own, and outside int64, never fit
    strangers = [first_id - 1, first_id + 2, first_id + gap + 1,
                 first_id + gap * n + 1, -2**70, 2**70]
    assert not instance.fit_mask(instance.locate(strangers),
                                 instance.unit_capacity).any()
    # positions: each element's index, n for the base id, n + 1 for the rest
    assert instance.locate(ids + strangers).tolist() == \
        [n, *range(n), *range(n), *[n + 1] * len(strangers)]


def test_the_sieves_run_where_only_the_capacity_passes_int64():
    # augment_pass holds the prefixes' rooms in the unit array's dtype,
    # int64 here, so each is clamped to the largest element unit
    costs, capacity, *_ = EXACT["capacity-past-int64"]
    inst = Instance([Element(i, c) for i, c in enumerate(costs)], capacity)
    oracle = SubmodularOracle(inst, ModularObjective(dict.fromkeys(range(5), 1.0)))
    for solver in ("sieve_plus_max", "distributed"):
        assert run_streaming(inst, oracle, solver, 0) == frozenset(range(5))
