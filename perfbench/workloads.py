"""The benchmark's workloads: seeded inputs, one solve per cell, and the
per-workload parts of the correctness checks.

A workload's set-up turns the seed into inputs and hands only those to the
package.  A sweep solves every cell once; a cell is one budget K, or one
MPC seed for the distributed workload.  ``solve`` returns an
:class:`Outcome` whose ``counts`` come from public results only (reports,
round logs, estimator diagnostics, stream pass counts), so they repeat
exactly from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from knapsub import (
    CoverageObjective,
    MovieObjective,
    MpcConfig,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    coverage_costs,
    distributed_sieve_plus_max,
    estimate_lambda,
    greedy_plus_max,
    movie_costs,
    normalize,
    sieve_plus_max,
)
from knapsub.bench.datasets import preferential_adjacency


def untraced(name, fn):
    """The identity wrapper used when a solve is not traced."""
    return fn


@dataclass
class Case:
    """Inputs of one workload after set-up.

    ``objective`` is the plain objective, used untraced by the checks;
    ``phases`` maps each set-up step to its seconds.
    """

    objective: object
    instances: dict
    cells: list
    phases: dict
    lam: float = 0.0


@dataclass
class Outcome:
    """What one solve returned.

    ``reported_queries`` is the report's own count; ``ledger_queries`` is the
    ledger delta over the same call, and the two must agree.
    """

    ids: frozenset
    value: float
    reported_queries: int
    ledger_queries: int
    counts: dict


class Workload:
    name = ""

    def value_floor(self, case, cell) -> float:
        """A value every correct answer on ``cell`` reaches."""
        return -math.inf


class OfflineCoverage(Workload):
    """Greedy+Max on a preferential-attachment graph with degree costs."""

    name = "offline-coverage"

    def __init__(self, n=4000, attach=11, budgets=(10.0, 30.0, 50.0)):
        self.n, self.attach, self.budgets = n, attach, budgets

    def setup(self, seed, tracer) -> Case:
        with tracer.span("bench.datasets.graph") as graph:
            adjacency = preferential_adjacency(self.n, self.attach, seed=seed)
        with tracer.span("objectives.build") as build:
            objective = CoverageObjective(adjacency)
            raw = sorted(coverage_costs(adjacency).items())
        with tracer.span("core.normalize") as norm:
            instances = {k: normalize(raw, k) for k in self.budgets}
        return Case(objective, instances, list(self.budgets),
                    _durations(graph, build, norm))

    def solve(self, case, cell, oracle, ledger, wrap=untraced) -> Outcome:
        q0 = ledger.query_count
        report = wrap("offline.greedy_plus_max", greedy_plus_max)(
            case.instances[cell], oracle, ledger).report
        queries = ledger.query_count - q0
        return Outcome(report.solution.ids, report.solution.value,
                       report.queries, queries,
                       {"queries": queries, "picks": len(report.trace.steps) - 1})

    def value_floor(self, case, cell) -> float:
        """Greedy+Max must reach the best feasible singleton."""
        instance = case.instances[cell]
        return max((case.objective.value(instance.base_set | {e.id})
                    for e in instance.elements), default=0.0)


class StreamMovie(Workload):
    """estimate_lambda then Sieve+Max on a low-rank synthetic rating matrix."""

    name = "stream-movie"
    epsilon = 0.1

    def __init__(self, movies=2000, users=400, rank=8, observed=0.05,
                 budgets=(5.0, 10.0, 20.0)):
        self.movies, self.users, self.rank = movies, users, rank
        self.observed, self.budgets = observed, budgets

    def ratings(self, seed) -> np.ndarray:
        """Mean-centered 1..5 ratings, zero where unobserved.

        Every movie has the same number of ratings.  Costs are scaled by
        the smallest singleton value, so a movie with very few ratings
        would set the scale and swing the feasible set from seed to seed.
        """
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((self.movies, self.rank))
        right = rng.standard_normal((self.users, self.rank))
        scores = left @ right.T / math.sqrt(self.rank)
        noise = rng.standard_normal(scores.shape) * 0.5
        stars = np.clip(np.rint(3.5 + scores + noise), 1.0, 5.0)
        per_movie = np.arange(self.users) < round(self.observed * self.users)
        seen = rng.permuted(np.tile(per_movie, (self.movies, 1)), axis=1)
        return np.where(seen, stars - stars[seen].mean(), 0.0)

    def setup(self, seed, tracer) -> Case:
        with tracer.span("harness.ratings") as ratings:
            vectors = self.ratings(seed)
        with tracer.span("objectives.build") as build:
            objective = MovieObjective(vectors)
            raw = sorted(movie_costs(objective).items())
        with tracer.span("core.normalize") as norm:
            instances = {k: normalize(raw, k) for k in self.budgets}
        return Case(objective, instances, list(self.budgets),
                    _durations(ratings, build, norm))

    def solve(self, case, cell, oracle, ledger, wrap=untraced) -> Outcome:
        instance = case.instances[cell]
        stream = StreamSource.from_instance(instance)
        q0 = ledger.query_count
        est = wrap("streaming.estimate_lambda", estimate_lambda)(
            stream, instance.capacity, oracle, ledger=ledger)
        if est.lam <= 0:
            raise ValueError(f"estimator returned lambda {est.lam!r}")
        q1 = ledger.query_count
        report = wrap("streaming.sieve_plus_max", sieve_plus_max)(
            stream, instance.capacity, oracle, est.lam, est.alpha,
            self.epsilon, ledger=ledger,
            density_cap=est.max_singleton_density)
        q2 = ledger.query_count
        return Outcome(report.solution.ids, report.solution.value,
                       report.queries, q2 - q1,
                       {"queries": q2 - q0, "passes": stream.pass_count,
                        "estimator_queries": q1 - q0,
                        "peak_retained": est.peak_retained,
                        "sieve_queries": report.queries,
                        "accepted": len(report.trace.steps) - 1})


class DistributedCoverage(Workload):
    """Distributed+Max with unit costs, one cell per MPC seed.

    lambda is the Greedy+Max value, computed during set-up.
    """

    name = "distributed-coverage"
    alpha = 0.5
    epsilon = 0.25

    def __init__(self, n=5000, attach=3, budget=20.0, mpc_seeds=(0, 1)):
        self.n, self.attach, self.budget = n, attach, budget
        self.mpc_seeds = mpc_seeds

    def setup(self, seed, tracer) -> Case:
        with tracer.span("bench.datasets.graph") as graph:
            adjacency = preferential_adjacency(self.n, self.attach, seed=seed)
        with tracer.span("objectives.build") as build:
            objective = CoverageObjective(adjacency)
        with tracer.span("core.normalize") as norm:
            instance = normalize([(v, 1.0) for v in range(self.n)], self.budget)
        with tracer.span("harness.lambda") as lam_span:
            lam = greedy_plus_max(instance, SubmodularOracle(instance, objective),
                                  QueryLedger()).report.solution.value
        return Case(objective, {s: instance for s in self.mpc_seeds},
                    list(self.mpc_seeds), _durations(graph, build, norm, lam_span),
                    lam)

    def solve(self, case, cell, oracle, ledger, wrap=untraced) -> Outcome:
        instance = case.instances[cell]
        config = MpcConfig.for_instance(instance, seed=cell)
        q0 = ledger.query_count
        result = wrap("distributed.distributed_sieve_plus_max",
                      distributed_sieve_plus_max)(
            instance, oracle, case.lam, self.alpha, self.epsilon, config, ledger)
        report, rows = result.report, result.round_log.records
        queries = ledger.query_count - q0
        return Outcome(report.solution.ids, report.solution.value,
                       report.queries, queries,
                       {"queries": queries, "rounds": report.rounds,
                        "central_receipts": report.max_central_receipts,
                        "round_rows": len(rows),
                        "round_queries": sum(r.queries for r in rows),
                        "sent_total": sum(r.sent_total for r in rows),
                        # the last row is the augmentation round
                        "threshold_receipts": sum(r.sent_total for r in rows[:-1]),
                        "t_added": rows[-1].t_size})



WORKLOADS = {w.name: w for w in (OfflineCoverage, StreamMovie, DistributedCoverage)}


def _durations(*frames) -> dict:
    return {frame.name: frame.duration for frame in frames}
