"""Experiment driver: configs, result rows, CSV emission, determinism hash."""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, fields, replace

from ..core import (
    QueryLedger,
    RunMeter,
    SubmodularOracle,
    normalize,
    upper_bound_opt,
)
from ..distributed import MpcConfig, distributed_sieve_plus_max
from ..errors import BudgetExceeded, ParseError
from ..objectives import (
    CoverageObjective,
    MovieObjective,
    coverage_costs,
    movie_costs,
)
from ..offline import greedy, greedy_or_max, greedy_plus_max, partial_enum_greedy
from ..streaming import StreamSource, estimate_lambda, sieve, sieve_or_max, sieve_plus_max
from .datasets import gnp_adjacency, ingest_movielens, ingest_snap, preferential_adjacency

KNOWN_ALGORITHMS = (
    "greedy",
    "greedy_or_max",
    "greedy_plus_max",
    "partial_enum_greedy",
    "sieve",
    "sieve_or_max",
    "sieve_plus_max",
    "distributed_sieve_plus_max",
)
KNOWN_KINDS = ("snap-edgelist", "movielens-csv", "synthetic")
SYNTHETIC_MODELS = ("gnp", "pa")


# a config value's parser, by the type its field declares
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "int | None": lambda s: None if s.lower() in ("", "none") else int(s),
    "list[str]": lambda s: [a.strip() for a in s.split(",") if a.strip()],
    "list[float]": lambda s: [float(k) for k in s.split(",") if k.strip()],
}


@dataclass
class ExperimentConfig:
    """One benchmark run: a dataset, an algorithm list, and a K sweep."""

    dataset: str
    kind: str
    algorithms: list[str]
    k_values: list[float]
    epsilon: float = 0.1
    depth: int = 1
    seed: int = 0
    budget: int = 10 ** 9
    output: str = "results.csv"
    iterations: int = 1
    max_movies: int | None = None
    max_users: int | None = None
    model: str = "gnp"
    n: int = 100
    p: float = 0.1
    attach: int = 3

    def validate(self) -> None:
        """Raise :class:`ParseError` on a value no run can use."""
        if self.kind not in KNOWN_KINDS:
            raise ParseError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "synthetic" and self.model not in SYNTHETIC_MODELS:
            raise ParseError(f"unknown synthetic model {self.model!r}")
        if self.kind == "synthetic" and self.n < 1:
            raise ParseError(f"n must be at least 1, got {self.n!r}")
        if self.kind == "synthetic" and self.model == "gnp" and \
                not 0 <= self.p <= 1:
            raise ParseError(f"p must be between 0 and 1, got {self.p!r}")
        if self.kind == "synthetic" and self.model == "pa" and \
                not self.n >= self.attach >= 1:
            raise ParseError(f"a pa graph needs n >= attach >= 1, got "
                             f"n={self.n}, attach={self.attach}")
        for a in self.algorithms:
            if a not in KNOWN_ALGORITHMS:
                raise ParseError(f"unknown algorithm {a!r}")
        if not all(math.isfinite(k) and k > 0 for k in self.k_values):
            raise ParseError("K values must be positive and finite")
        if not self.epsilon > 0:
            raise ParseError(f"epsilon must be positive, got {self.epsilon!r}")
        if not 0 <= self.depth <= 3:
            raise ParseError(f"depth must be between 0 and 3, got {self.depth!r}")
        for name in ("max_movies", "max_users"):
            if (cap := getattr(self, name)) is not None and cap < 1:
                raise ParseError(f"{name} must be at least 1, got {cap!r}")
        if self.budget <= 0:
            raise ParseError("query budget must be positive")
        if self.iterations < 1:
            raise ParseError("iterations must be at least 1")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Flat ``key = value`` lines; '#' comments and blanks are skipped.

        Each key names a field (``k`` names ``k_values``) and is parsed by
        the field's type: lists are comma-separated, and an empty or
        ``none`` value leaves an optional integer unset.  A key left out
        takes the field's default; ``dataset`` defaults to "", ``kind`` to
        synthetic, and the two lists to empty.

        A line that is not ``key = value``, an unknown key or a value that
        does not parse raises :class:`ParseError` with its line number, and
        a value :meth:`validate` rejects raises it without one.
        """
        raw: dict[str, tuple[str, int]] = {}
        with open(path) as fh:
            for no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError("expected key = value", line_no=no)
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip(), no

        kw = {"dataset": "", "kind": "synthetic", "algorithms": [], "k_values": []}
        for f in fields(cls):
            key = "k" if f.name == "k_values" else f.name
            if key in raw:
                value, no = raw.pop(key)
                try:
                    kw[f.name] = _PARSERS[f.type](value)
                except ValueError:
                    raise ParseError(f"cannot read {key} = {value!r} as {f.type}",
                                     line_no=no) from None
        if raw:
            key, (_, no) = min(raw.items(), key=lambda item: item[1][1])
            raise ParseError(f"unknown config key {key!r}", line_no=no)
        cfg = cls(**kw)
        cfg.validate()
        return cfg


@dataclass
class ResultRow:
    """One (algorithm, K) cell.  Aborted cells leave the value fields empty
    and carry a non-ok status."""

    dataset: str
    algorithm: str
    k: float
    value: float | None
    upper_bound: float | None
    approx_ratio: float | None
    queries: int
    passes: int
    rounds: int
    wall_time_ms: float
    value_std: float | None = 0.0
    status: str = "ok"


_COLUMNS = [f.name for f in fields(ResultRow)]
_HEADER = ",".join("K" if c == "k" else c for c in _COLUMNS)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def row_lines(rows) -> list[str]:
    lines = [_HEADER]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, c)) for c in _COLUMNS))
    return lines


def write_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(row_lines(rows)) + "\n")


def csv_hash(rows) -> str:
    """Reproducibility digest: the CSV bytes with wall_time_ms blanked."""
    masked = [replace(row, wall_time_ms=0.0) for row in rows]
    return hashlib.sha256("\n".join(row_lines(masked)).encode()).hexdigest()


def build_dataset(cfg: ExperimentConfig):
    """Materialize the configured dataset: (label, objective, raw elements)."""
    if cfg.kind == "snap-edgelist":
        graph = ingest_snap(cfg.dataset)
        objective = CoverageObjective(graph.adjacency)
        costs = coverage_costs(graph.adjacency)
        label = cfg.dataset
    elif cfg.kind == "movielens-csv":
        data = ingest_movielens(cfg.dataset, cfg.max_movies, cfg.max_users)
        objective = MovieObjective(data.vectors)
        costs = movie_costs(objective)
        label = cfg.dataset
    else:
        if cfg.model == "gnp":
            adjacency = gnp_adjacency(cfg.n, cfg.p, cfg.seed)
        elif cfg.model == "pa":
            adjacency = preferential_adjacency(cfg.n, cfg.attach, cfg.seed)
        else:
            raise ValueError(f"unknown synthetic model {cfg.model!r}")
        objective = CoverageObjective(adjacency)
        costs = coverage_costs(adjacency)
        label = cfg.dataset or f"synthetic-{cfg.model}-n{cfg.n}-seed{cfg.seed}"
    raw = sorted(costs.items())
    return label, objective, raw


def _dispatch(name, instance, oracle, stream, ledger, cfg, seed):
    if name == "greedy":
        return greedy(instance, oracle, ledger).report
    if name == "greedy_or_max":
        return greedy_or_max(instance, oracle, ledger).report
    if name == "greedy_plus_max":
        return greedy_plus_max(instance, oracle, ledger).report
    if name == "partial_enum_greedy":
        return partial_enum_greedy(instance, oracle, cfg.depth, ledger=ledger).report
    distributed = name == "distributed_sieve_plus_max"
    # the distributed lane keeps the row's stream untouched: its passes are 0
    est_stream = StreamSource.from_instance(instance) if distributed else stream
    est = estimate_lambda(est_stream, instance.capacity, oracle, ledger=ledger)
    if est.lam <= 0:
        # a zero estimate certifies that no element adds value
        meter = RunMeter(name, instance, ledger)
        return meter.report((), oracle.evaluate((), ledger))
    if distributed:
        mpc = MpcConfig.for_instance(instance, seed=seed)
        return distributed_sieve_plus_max(
            instance, oracle, est.lam, est.alpha, cfg.epsilon, mpc, ledger).report
    runner = {"sieve": sieve, "sieve_or_max": sieve_or_max,
              "sieve_plus_max": sieve_plus_max}[name]
    return runner(stream, instance.capacity, oracle, est.lam, est.alpha,
                  cfg.epsilon, ledger=ledger,
                  density_cap=est.max_singleton_density)


def run_suite(cfg: ExperimentConfig):
    """Run every (algorithm, K) cell, write the rows to ``cfg.output`` and
    return them in config order.

    Each cell (and each iteration inside it) gets a fresh budgeted ledger
    and a fresh stream.  The upper bound comes from one greedy trace per K
    on a separate unbudgeted ledger.  A cell that exhausts its budget is
    flagged and the suite moves on.
    """
    cfg.validate()
    label, objective, raw = build_dataset(cfg)
    rows = run_cells(label, objective, raw, cfg)
    write_csv(rows, cfg.output)
    return rows


def run_cells(label, objective, raw, cfg: ExperimentConfig):
    """Drive the (algorithm, K) grid over an already materialized dataset."""
    rows: list[ResultRow] = []
    ub_cache: dict[float, float] = {}

    for k in cfg.k_values:
        instance = normalize(raw, k)
        oracle = SubmodularOracle(instance, objective)
        if k not in ub_cache:
            side = QueryLedger()
            trace = greedy(instance, oracle, side).report.trace
            ub_cache[k] = upper_bound_opt(instance, oracle, trace)
        ub = ub_cache[k]

        for name in cfg.algorithms:
            values: list[float] = []
            queries = passes = rounds = 0
            wall_ms: list[float] = []
            status = "ok"
            for it in range(cfg.iterations):
                ledger = QueryLedger(budget=cfg.budget)
                stream = StreamSource.from_instance(instance)
                try:
                    report = _dispatch(name, instance, oracle, stream, ledger,
                                       cfg, cfg.seed + it)
                except BudgetExceeded:
                    status = "budget_exceeded"
                    queries = ledger.query_count
                    break
                values.append(report.solution.value)
                wall_ms.append(report.wall_time * 1000.0)
                if it == 0:
                    queries = ledger.query_count
                    passes = stream.pass_count
                    rounds = report.rounds
            if status != "ok":
                rows.append(ResultRow(label, name, float(k), None, None, None,
                                      queries, 0, 0, 0.0, None, status))
                continue
            value = statistics.fmean(values)
            std = statistics.stdev(values) if len(values) > 1 else 0.0
            ratio = value / ub if ub > 0 else 0.0
            rows.append(ResultRow(label, name, float(k), value, ub, ratio,
                                  queries, passes, rounds,
                                  statistics.fmean(wall_ms), std))
    return rows
