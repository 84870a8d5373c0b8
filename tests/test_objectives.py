"""Objective functions: hand values, cost rules, structural properties."""

import random
import tracemalloc

import numpy as np
import pytest

from knapsub import (
    CoverageObjective,
    HiddenPairObjective,
    ModularObjective,
    MovieObjective,
    coverage_costs,
    movie_costs,
)
from knapsub.bench.datasets import preferential_adjacency

from helpers import reference_coverage_costs

STAR = [[1, 2, 3], [0], [0], [0]]  # center 0, three leaves


def cycle(n):
    return [[(v - 1) % n, (v + 1) % n] for v in range(n)]


def test_coverage_star_values():
    f = CoverageObjective(STAR)
    assert f.value(frozenset()) == 0.0
    assert f.value({0}) == 1.0  # center dominates everything
    assert f.value({1}) == 0.5
    assert f.value({1, 2}) == 0.75
    assert f.value({0, 1, 2, 3}) == 1.0


def test_coverage_full_set_covers_everything(corpus):
    for idx in (0, 2, 4, 6):
        inst, objective, _ = corpus(idx)
        if isinstance(objective, CoverageObjective):
            everything = frozenset(range(objective.n_vertices))
            assert objective.value(everything) == 1.0


def test_coverage_against_set_arithmetic():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(3, 10)
        adj = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    adj[u].append(v)
                    adj[v].append(u)
        f = CoverageObjective(adj)
        ids = {v for v in range(n) if rng.random() < 0.5}
        covered = set(ids)
        for v in ids:
            covered.update(adj[v])
        assert f.value(frozenset(ids)) == pytest.approx(len(covered) / n)


def test_coverage_rejects_asymmetric_edges():
    with pytest.raises(ValueError):
        CoverageObjective([[1], []])
    with pytest.raises(ValueError):
        CoverageObjective([[5], []])


def test_coverage_names_the_bad_vertex_or_edge():
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        CoverageObjective([[1], [0, 5]])
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        CoverageObjective([[-1], []])
    with pytest.raises(ValueError, match=f"vertex {2**40} out of range"):
        CoverageObjective([[1], [0, 2**40]])
    with pytest.raises(ValueError, match="edge 1-2 is not symmetric"):
        CoverageObjective([[1], [0, 2, 0], [], []])


def test_coverage_rejects_an_empty_graph():
    # f = |Z union N(Z)| / |V| is undefined when |V| = 0; a solve on such a
    # graph used to crash with ZeroDivisionError
    with pytest.raises(ValueError, match="no vertices"):
        CoverageObjective([])


def test_coverage_builds_a_large_graph_in_linear_memory():
    # n-bit neighbourhood masks took n^2/8 bytes, 50 MB at this n, and
    # peaked near 42 MB; the CSR alone peaks near 3 MB
    n = 20_000
    adjacency = preferential_adjacency(n, 3)
    tracemalloc.start()
    try:
        objective = CoverageObjective(adjacency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert objective.value({0}) == (len(set(adjacency[0])) + 1) / n


def test_coverage_drops_duplicate_neighbors():
    f = CoverageObjective([[1, 1, 0], [0, 0], []])
    # f({v}) * n is v's closed neighbourhood, degree plus one
    assert [round(3 * f.value({v})) - 1 for v in range(3)] == [1, 1, 0]
    assert f.value({0}) == 2 / 3


def test_coverage_ignores_self_loops():
    f = CoverageObjective([[0, 1], [1, 0]])
    assert f.value({0}) == 1.0
    assert round(2 * f.value({1})) - 1 == 1  # the self-loop is no neighbour


def test_coverage_costs_star():
    costs = coverage_costs(STAR)
    assert costs[1] == 1.0
    assert costs[2] == 1.0
    assert costs[3] == 1.0
    assert costs[0] == pytest.approx(2.95 / 0.95)


def test_coverage_costs_regular_graph_all_one():
    costs = coverage_costs(cycle(6))
    assert all(c == 1.0 for c in costs.values())


def test_coverage_costs_isolated_vertex_gets_minimum():
    costs = coverage_costs([[1], [0], []])
    assert costs[2] == 1.0
    assert min(costs.values()) == 1.0


def test_coverage_costs_match_the_scalar_reference():
    rng = random.Random(5)
    noisy = [[rng.randrange(40) for _ in range(rng.randrange(6))] + [v] * (v % 3)
             for v in range(40)]  # self-loops, repeats, isolated vertices
    for adjacency in (preferential_adjacency(4000, 11, seed=271),
                      preferential_adjacency(300, 2, seed=613), noisy,
                      [[0], [], [2, 2]], [[]], []):
        want = reference_coverage_costs(adjacency)
        got = coverage_costs(adjacency)
        assert [(v, c.hex()) for v, c in got.items()] == \
            [(v, c.hex()) for v, c in want.items()]
    # a neighbour that is no vertex would share another row's keys; it is
    # refused, as CoverageObjective refuses it
    for bad in ([[1], [0, 2]], [[1], [0, -1]]):
        with pytest.raises(ValueError, match=f"vertex {bad[1][1]} out of range"):
            coverage_costs(bad)


def test_modular_sums_weights():
    f = ModularObjective({0: 1.5, 1: 2.0, 2: 0.0})
    assert f.value(frozenset()) == 0.0
    assert f.value({0, 1}) == 3.5
    assert f.value({0, 1, 2}) == 3.5


def test_modular_rejects_negative_weight():
    with pytest.raises(ValueError):
        ModularObjective({0: -0.1})


def test_movie_hand_example():
    ratings = np.array([[5.0, 1.0], [1.0, 5.0]])
    f = MovieObjective(ratings - 3.0)
    assert f.value(frozenset()) == 0.0
    assert f.value({0}) == 8.0
    assert f.value({1}) == 8.0
    assert f.value({0, 1}) == 16.0


def test_movie_clamp_keeps_monotone():
    # anti-correlated vectors: cross similarity is negative, clamp drops it
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    f = MovieObjective(vectors)
    assert f.value({0}) == 1.0
    assert f.value({0, 1}) == 2.0  # each target keeps its own best match
    assert f.value({0, 1, 2}) == 3.0


def test_movie_targets_subset():
    vectors = np.array([[2.0, 0.0], [0.0, 1.0]])
    f = MovieObjective(vectors, targets=[0])
    assert f.value({0}) == 4.0
    assert f.value({1}) == 0.0


def test_movie_costs_symmetric_pair():
    ratings = np.array([[5.0, 1.0], [1.0, 5.0]])
    f = MovieObjective(ratings - 3.0)
    assert movie_costs(f) == {0: 1.0, 1: 1.0}


def test_movie_costs_proportional():
    vectors = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    f = MovieObjective(vectors)
    costs = movie_costs(f)
    assert costs[2] == 1.0  # zero-value movie floors at the minimum
    assert min(costs.values()) == 1.0
    # singleton values are 1+2 and 2+4: costs stay proportional to them
    assert costs[1] / costs[0] == pytest.approx(2.0)


def test_hidden_pair_value_table():
    f = HiddenPairObjective(50, pair=(37, 42))
    assert f.value(frozenset()) == 0.0
    assert f.value({3}) == 0.5
    assert f.value({37}) == 0.5
    assert f.value({3, 42}) == 0.5
    assert f.value({37, 42}) == 1.0
    assert f.value({1, 2, 3}) == 0.5


def test_hidden_pair_without_pair_is_flat():
    f = HiddenPairObjective(10)
    assert f.value({1, 2}) == 0.5
    assert f.value({0}) == 0.5


def test_hidden_pair_monotone_variant():
    f = HiddenPairObjective(50, pair=(37, 42), monotone=True)
    assert f.value({37, 42}) == 1.0
    assert f.value({1, 2, 3}) == 1.0  # any triple caps out
    assert f.value({3, 42}) == 0.5


def test_hidden_pair_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        HiddenPairObjective(10, pair=(4, 4))


def test_hidden_pair_elements_price_half_capacity():
    f = HiddenPairObjective(6)
    elems = f.elements(3.0)
    assert len(elems) == 6
    assert all(c == 1.5 for _, c in elems)


def submodularity_spot_check(value_fn, universe, rng, trials=500, feasible=None):
    """Random (S subset of T, e outside T) triples; returns worst slack."""
    worst_sub = worst_mono = float("inf")
    universe = sorted(universe)
    for _ in range(trials):
        t_set = {v for v in universe if rng.random() < 0.4}
        outside = [v for v in universe if v not in t_set]
        if not outside:
            continue
        e = rng.choice(outside)
        s_set = {v for v in t_set if rng.random() < 0.6}
        if feasible is not None and not feasible(t_set | {e}):
            continue
        f_t, f_s = value_fn(frozenset(t_set)), value_fn(frozenset(s_set))
        gain_t = value_fn(frozenset(t_set) | {e}) - f_t
        gain_s = value_fn(frozenset(s_set) | {e}) - f_s
        worst_sub = min(worst_sub, gain_s - gain_t)
        worst_mono = min(worst_mono, f_t - f_s)
    return worst_sub, worst_mono


def test_coverage_submodular_and_monotone():
    rng = random.Random(11)
    adj = [[] for _ in range(12)]
    for u in range(12):
        for v in range(u + 1, 12):
            if rng.random() < 0.3:
                adj[u].append(v)
                adj[v].append(u)
    f = CoverageObjective(adj)
    worst_sub, worst_mono = submodularity_spot_check(f.value, range(12), rng)
    assert worst_sub >= -1e-9
    assert worst_mono >= -1e-9


def test_movie_submodular_and_monotone():
    rng = random.Random(12)
    vectors = np.array([[rng.gauss(0, 1) for _ in range(5)] for _ in range(10)])
    f = MovieObjective(vectors)
    worst_sub, worst_mono = submodularity_spot_check(f.value, range(10), rng)
    assert worst_sub >= -1e-9
    assert worst_mono >= -1e-9


def test_modular_submodular_and_monotone():
    rng = random.Random(13)
    f = ModularObjective({i: rng.random() for i in range(12)})
    worst_sub, worst_mono = submodularity_spot_check(f.value, range(12), rng)
    assert worst_sub >= -1e-9
    assert worst_mono >= -1e-9


def test_hidden_pair_submodular_on_feasible_sets():
    # cost K/2 each means feasible sets have at most two elements; the
    # plain variant is submodular and monotone there
    rng = random.Random(14)
    f = HiddenPairObjective(8, pair=(2, 5))
    worst_sub, worst_mono = submodularity_spot_check(
        f.value, range(8), rng, feasible=lambda s: len(s) <= 2)
    assert worst_sub >= -1e-9
    assert worst_mono >= -1e-9
