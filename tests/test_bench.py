"""Benchmark harness: loaders, generators, config, suite driver, CLI."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from knapsub import (
    EmptyData,
    MovieObjective,
    ParseError,
    QueryLedger,
    StreamSource,
    SubmodularOracle,
    brute_force_opt,
    estimate_lambda,
    movie_costs,
    normalize,
)
from knapsub.bench import (
    ExperimentConfig,
    csv_hash,
    gnp_adjacency,
    ingest_movielens,
    ingest_snap,
    preferential_adjacency,
    run_cells,
    run_suite,
    write_csv,
)
from knapsub.bench.cli import main as cli_main
from knapsub.bench.suite import KNOWN_ALGORITHMS, row_lines

from helpers import (
    TIGHT_CAPACITY,
    TIGHT_RAW_COSTS,
    reference_preferential_adjacency,
    tight_instance,
)

# ----------------------------------------------------------------- loaders


def test_ingest_snap_path_graph(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = ingest_snap(p)
    assert len(g.adjacency) == 3
    assert sum(map(len, g.adjacency)) // 2 == 2
    assert g.adjacency == [[1], [0, 2], [1]]
    assert g.original_ids == [0, 1, 2]


def test_ingest_snap_dedup_comments_selfloops(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n0 1\n1 0\n0 1\n2 2\n\n0\t2\n")
    g = ingest_snap(p)
    # duplicate edge collapsed, self-loop dropped
    assert sum(map(len, g.adjacency)) // 2 == 2
    assert g.adjacency[0] == [1, 2]


def test_ingest_snap_compacts_by_first_appearance(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("5 9\n9 2\n")
    g = ingest_snap(p)
    assert g.original_ids == [5, 9, 2]
    assert g.adjacency == [[1], [0, 2], [1]]


def test_ingest_snap_parse_errors(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2 3\n")
    with pytest.raises(ParseError) as err:
        ingest_snap(p)
    assert err.value.line_no == 2

    p.write_text("0 one\n")
    with pytest.raises(ParseError) as err:
        ingest_snap(p)
    assert err.value.line_no == 1


@pytest.mark.parametrize("text", ["", "# comments only\n\n", "1 1\n2 2\n"])
def test_ingest_snap_without_an_edge_is_empty_data(tmp_path, text):
    # a 0-vertex graph reached CoverageObjective, which raised ValueError
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(EmptyData):
        ingest_snap(p)


MOVIE_CSV = "userId,movieId,rating,timestamp\n1,10,5.0,111\n2,10,1.0,112\n1,20,1.0,113\n2,20,5.0,114\n"


def test_ingest_movielens_hand_example(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text(MOVIE_CSV)
    data = ingest_movielens(p)
    assert data.global_mean == 3.0
    assert data.movie_ids == [10, 20]
    assert data.user_ids == [1, 2]
    assert np.array_equal(data.vectors, np.array([[2.0, -2.0], [-2.0, 2.0]]))


def test_ingest_movielens_header_must_match(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("user,movie,rating,ts\n1,10,5.0,111\n")
    with pytest.raises(ParseError) as err:
        ingest_movielens(p)
    assert err.value.line_no == 1


def test_ingest_movielens_empty_inputs(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("")
    with pytest.raises(EmptyData):
        ingest_movielens(p)
    p.write_text("userId,movieId,rating,timestamp\n")
    with pytest.raises(EmptyData):
        ingest_movielens(p)


def test_ingest_movielens_bad_row(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("userId,movieId,rating,timestamp\n1,10,five,111\n")
    with pytest.raises(ParseError) as err:
        ingest_movielens(p)
    assert err.value.line_no == 2
    # a blank row is skipped but still numbered; three fields are refused
    p.write_text("userId,movieId,rating,timestamp\n\n1,10,5.0\n")
    with pytest.raises(ParseError, match="expected 4 comma-separated fields") as err:
        ingest_movielens(p)
    assert err.value.line_no == 3


def test_ingest_movielens_truncates_to_most_rated(tmp_path):
    p = tmp_path / "ratings.csv"
    rows = ["userId,movieId,rating,timestamp"]
    rows += ["1,10,4.0,1", "2,10,4.0,2", "3,10,4.0,3"]
    rows += ["1,20,2.0,4", "2,20,2.0,5"]
    rows += ["1,30,1.0,6"]
    p.write_text("\n".join(rows) + "\n")
    data = ingest_movielens(p, max_movies=2)
    assert data.movie_ids == [10, 20]
    # the global mean still sees the dropped movie's rating
    assert data.global_mean == pytest.approx((4.0 * 3 + 2.0 * 2 + 1.0) / 6)


# -------------------------------------------------------------- generators


def check_undirected(adjacency):
    for v, nbs in enumerate(adjacency):
        assert v not in nbs
        assert len(set(nbs)) == len(nbs)
        for u in nbs:
            assert v in adjacency[u]


def test_gnp_generator_is_seeded_and_undirected():
    a = gnp_adjacency(30, 0.2, seed=7)
    b = gnp_adjacency(30, 0.2, seed=7)
    c = gnp_adjacency(30, 0.2, seed=8)
    assert a == b
    assert a != c
    check_undirected(a)


def test_preferential_generator_shape():
    adj = preferential_adjacency(50, attach=3, seed=1)
    assert adj == preferential_adjacency(50, attach=3, seed=1)
    check_undirected(adj)
    # the clique plus attach links per later vertex
    edges = sum(len(nb) for nb in adj) // 2
    assert edges == 3 + 47 * 3
    with pytest.raises(ValueError):
        preferential_adjacency(2, attach=3)


def test_preferential_generator_single_attach():
    adj = preferential_adjacency(10, attach=1, seed=0)
    check_undirected(adj)
    assert sum(len(nb) for nb in adj) // 2 == 9  # a tree


@pytest.mark.parametrize("n, attach", [(1, 1), (12, 1), (5, 5), (60, 4),
                                       (4000, 11), (5000, 3)])
@pytest.mark.parametrize("seed", [0, 271, 613])
def test_preferential_generator_matches_the_choice_reference(n, attach, seed):
    assert preferential_adjacency(n, attach, seed) == \
        reference_preferential_adjacency(n, attach, seed)


# ------------------------------------------------------------------ config


def test_config_from_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# benchmark\n"
        "kind = synthetic\n"
        "model = gnp\n"
        "n = 40\n"
        "p = 0.2\n"
        "algorithms = greedy, greedy_plus_max\n"
        "k = 3, 4\n"
        "output = out.csv\n")
    cfg = ExperimentConfig.from_file(p)
    assert cfg.kind == "synthetic"
    assert cfg.algorithms == ["greedy", "greedy_plus_max"]
    assert cfg.k_values == [3.0, 4.0]
    assert cfg.epsilon == 0.1  # default
    assert cfg.output == "out.csv"


def test_config_from_file_parses_every_field_by_its_type(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "dataset = d.txt\nkind = snap-edgelist\nalgorithms = greedy,sieve\n"
        "k = 2.5\nepsilon = 0.2\ndepth = 2\nseed = 9\nbudget = 77\n"
        "output = o.csv\niterations = 3\nmax_movies = none\nmax_users = 5\n"
        "model = pa\nn = 12\np = 0.5\nattach = 2\n")
    assert ExperimentConfig.from_file(p) == ExperimentConfig(
        "d.txt", "snap-edgelist", ["greedy", "sieve"], [2.5], epsilon=0.2,
        depth=2, seed=9, budget=77, output="o.csv", iterations=3,
        max_movies=None, max_users=5, model="pa", n=12, p=0.5, attach=2)
    # every key left out takes the dataclass default
    p.write_text("algorithms = greedy\nk = 3\n")
    assert ExperimentConfig.from_file(p) == ExperimentConfig(
        "", "synthetic", ["greedy"], [3.0])
    p.write_text("k_values = 3\n")  # the key is k
    with pytest.raises(ParseError, match="k_values"):
        ExperimentConfig.from_file(p)


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("kind = synthetic\nalgorithms = greedy\nk = 3\nwat = 1\n")
    with pytest.raises(ParseError, match="wat") as err:
        ExperimentConfig.from_file(p)
    assert err.value.line_no == 4


def test_config_rejects_missing_equals(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("kind synthetic\n")
    with pytest.raises(ParseError) as err:
        ExperimentConfig.from_file(p)
    assert err.value.line_no == 1


def test_config_validation_errors():
    with pytest.raises(ParseError):
        ExperimentConfig("d", "nope", ["greedy"], [3.0]).validate()
    with pytest.raises(ParseError):
        ExperimentConfig("d", "synthetic", ["wat"], [3.0]).validate()
    with pytest.raises(ParseError):
        ExperimentConfig("d", "synthetic", ["greedy"], [0.0]).validate()
    with pytest.raises(ParseError):
        ExperimentConfig("d", "synthetic", ["greedy"], [3.0],
                         iterations=0).validate()
    with pytest.raises(ParseError, match="model"):
        ExperimentConfig("d", "synthetic", ["greedy"], [3.0],
                         model="er").validate()


@pytest.mark.parametrize("field, value", [
    ("epsilon", 0.0), ("epsilon", -0.1), ("epsilon", float("nan")),
    ("depth", -1), ("depth", 4),
    # a gnp graph of no vertices raised ValueError; -1 dropped a movie
    ("n", 0), ("n", -2), ("max_movies", 0), ("max_movies", -1),
    ("max_users", -1),
    # gnp_adjacency clamped these: 2.0 built the complete graph
    ("p", 2.0), ("p", -0.5), ("p", float("nan"))])
def test_config_rejects_bad_epsilon_and_depth(field, value):
    with pytest.raises(ParseError, match=f"{field} must be"):
        ExperimentConfig("d", "synthetic", ["greedy"], [3.0],
                         **{field: value}).validate()


def test_config_rejects_nonfinite_k():
    for k in (float("inf"), float("nan")):
        with pytest.raises(ParseError, match="K values"):
            ExperimentConfig("d", "synthetic", ["greedy"], [3.0, k]).validate()


# ------------------------------------------------------------------- suite


def grid_config(**kw):
    base = dict(dataset="", kind="synthetic", model="gnp", n=30, p=0.15,
                algorithms=["greedy", "greedy_plus_max", "sieve_plus_max"],
                k_values=[3.0, 5.0], seed=4, output="unused.csv")
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_cells_tight_example_ratios():
    inst, objective = tight_instance()
    cfg = grid_config(algorithms=["greedy", "greedy_plus_max",
                                  "partial_enum_greedy"],
                      k_values=[TIGHT_CAPACITY])
    rows = run_cells("tight", objective, TIGHT_RAW_COSTS, cfg)
    by_algo = {r.algorithm: r for r in rows}
    ub = 1.0909090909090908
    assert by_algo["greedy"].upper_bound == ub
    assert by_algo["greedy"].value == 0.6
    assert by_algo["greedy"].approx_ratio == 0.6 / ub
    assert by_algo["greedy_plus_max"].value == 0.6
    assert by_algo["partial_enum_greedy"].value == 1.0
    assert by_algo["partial_enum_greedy"].approx_ratio == 1.0 / ub
    for row in rows:
        assert row.status == "ok"
        assert 0.0 < row.approx_ratio <= 1.0 + 1e-9


def test_zero_estimate_rows_report_the_empty_set():
    # an all-zero objective makes the estimator answer lam = 0: each
    # threshold lane reports the empty set after one f(empty) query
    objective = MovieObjective(np.zeros((6, 4)))
    raw = sorted(movie_costs(objective).items())
    lanes = ["sieve", "sieve_or_max", "sieve_plus_max",
             "distributed_sieve_plus_max"]
    rows = run_cells("zero", objective, raw,
                     grid_config(algorithms=lanes, k_values=[3.0]))
    inst = normalize(raw, 3.0)
    ledger = QueryLedger()
    est = estimate_lambda(StreamSource.from_instance(inst), 3.0,
                          SubmodularOracle(inst, objective), ledger=ledger)
    assert est.lam == 0.0 and ledger.query_count == 6
    assert [r.algorithm for r in rows] == lanes
    for row in rows:
        assert (row.status, row.value, row.approx_ratio) == ("ok", 0.0, 0.0)
        assert row.queries == ledger.query_count + 1
        # the estimator read the row's stream; distributed made its own
        distributed = row.algorithm == "distributed_sieve_plus_max"
        assert row.passes == (0 if distributed else 1)


def test_suite_roundtrip_and_determinism(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = grid_config(output=str(out))
    rows = run_suite(cfg)
    again = run_suite(grid_config(output=str(out)))
    assert csv_hash(rows) == csv_hash(again)
    assert out.read_text().splitlines() == row_lines(again)
    for row in rows:
        assert row.status == "ok"
        assert row.queries > 0
        assert 0.0 < row.approx_ratio <= 1.0 + 1e-9


def test_suite_rows_cover_grid(tmp_path):
    cfg = grid_config(output=str(tmp_path / "r.csv"))
    rows = run_suite(cfg)
    assert [(r.algorithm, r.k) for r in rows] == [
        (a, k) for k in (3.0, 5.0)
        for a in ("greedy", "greedy_plus_max", "sieve_plus_max")]
    assert all(r.dataset == "synthetic-gnp-n30-seed4" for r in rows)


def test_streaming_row_records_passes(tmp_path):
    cfg = grid_config(output=str(tmp_path / "r.csv"),
                      algorithms=["sieve_plus_max",
                                  "distributed_sieve_plus_max",
                                  "greedy_plus_max"])
    rows = run_suite(cfg)
    for row in rows:
        if row.algorithm == "sieve_plus_max":
            assert 2 <= row.passes <= 14
        elif row.algorithm == "distributed_sieve_plus_max":
            assert row.rounds >= 2
    # the two lanes need not agree in value, but each keeps 1/2 - eps of
    # OPT, so of every feasible value found at the same K
    for k in (3.0, 5.0):
        found = max(r.value for r in rows if r.k == k)
        for r in rows:
            if r.k == k:
                assert r.value >= (0.5 - cfg.epsilon) * found - 1e-9


def test_empty_algorithm_list_gives_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    cfg = grid_config(algorithms=[], output=str(out))
    rows = run_suite(cfg)
    assert rows == []
    text = out.read_text()
    assert text.startswith("dataset,algorithm,K,value,upper_bound")
    assert len(text.strip().split("\n")) == 1


def test_budget_abort_flags_row_and_continues(tmp_path):
    out = tmp_path / "flag.csv"
    cfg = grid_config(algorithms=["partial_enum_greedy", "greedy"],
                      k_values=[4.0], depth=2, budget=40, output=str(out))
    rows = run_suite(cfg)
    flagged = {r.algorithm: r for r in rows}
    assert flagged["partial_enum_greedy"].status == "budget_exceeded"
    assert flagged["partial_enum_greedy"].value is None
    assert flagged["partial_enum_greedy"].approx_ratio is None
    assert flagged["greedy"].status == "ok"  # the suite kept going
    assert out.read_text().splitlines() == row_lines(rows)


def test_iterations_mean_and_std(tmp_path):
    cfg = grid_config(algorithms=["greedy"], k_values=[3.0], iterations=3,
                      output=str(tmp_path / "it.csv"))
    rows = run_suite(cfg)
    assert len(rows) == 1
    assert rows[0].value_std == 0.0  # deterministic algorithm, zero spread


def test_csv_hash_ignores_wall_time(tmp_path):
    cfg = grid_config(output=str(tmp_path / "a.csv"))
    rows = run_suite(cfg)
    import dataclasses
    bumped = [dataclasses.replace(r, wall_time_ms=r.wall_time_ms + 5.0)
              for r in rows]
    assert csv_hash(rows) == csv_hash(bumped)
    assert csv_hash(rows) != csv_hash(rows[:-1])


PINNED_HASHES = {
    "gnp": "9743c1228604275828598df9f6d0d80833d23b7bf7dc0089b93cc9ab0e0e8f95",
    "pa": "9448103ee81aca238fbc475e5e2f689d26422644fe14602de800dae4977032bc",
}


@pytest.mark.parametrize("model", sorted(PINNED_HASHES))
def test_pinned_csv_hash(model, tmp_path):
    # every algorithm's value, ratio, query, pass and round count on a fixed
    # grid; a refactor that keeps behaviour keeps these digests
    cfg = ExperimentConfig(dataset="", kind="synthetic",
                           algorithms=list(KNOWN_ALGORITHMS),
                           k_values=[3.0, 6.0, 12.0], model=model, n=60,
                           p=0.1, attach=3, seed=7, iterations=2,
                           output=str(tmp_path / "pinned.csv"))
    assert csv_hash(run_suite(cfg)) == PINNED_HASHES[model]


# --------------------------------------------------------------------- cli


def write_graph(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text("0 1\n0 2\n0 3\n")
    return p


def test_cli_run_success(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(
        f"dataset = {write_graph(tmp_path)}\n"
        "kind = snap-edgelist\n"
        "algorithms = greedy_plus_max, sieve_plus_max\n"
        "k = 2, 3\n"
        f"output = {out}\n")
    code = cli_main(["run", "--config", str(cfgp)])
    assert code == 0
    assert "4 cells" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 1 + 4  # header and 4 cells
    # --iterations overrides the file's count, and is validated as it is
    assert cli_main(["run", "--config", str(cfgp), "--iterations", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: iterations must be at least 1")


def test_cli_run_budget_flag_exit_code(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(
        "kind = synthetic\nn = 25\np = 0.2\n"
        "algorithms = partial_enum_greedy\nk = 4\n"
        "depth = 2\nbudget = 30\n"
        f"output = {out}\n")
    code = cli_main(["run", "--config", str(cfgp)])
    assert code == 2
    assert "flagged" in capsys.readouterr().out


def test_cli_brute(tmp_path, capsys):
    graph = write_graph(tmp_path)
    code = cli_main(["brute", "--dataset", str(graph), "--k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "optimum" in out
    # verify the printed number against a direct run
    from knapsub.bench.suite import build_dataset
    cfg = ExperimentConfig(dataset=str(graph), kind="snap-edgelist",
                           algorithms=[], k_values=[2.0])
    _, objective, raw = build_dataset(cfg)
    inst = normalize(raw, 2.0)
    from knapsub import SubmodularOracle
    opt = brute_force_opt(inst, SubmodularOracle(inst, objective))
    assert repr(opt.value) in out


@pytest.mark.parametrize("flags, message", [
    (["--k", "-1"], "error: K values must be positive and finite"),
    (["--k", "2", "--max-movies", "-1"],
     "error: max_movies must be at least 1, got -1"),
])
def test_cli_brute_reports_a_bad_flag_and_exits_one(tmp_path, capsys, flags,
                                                    message):
    # --k -1 escaped main as a ValueError traceback from Instance
    graph = write_graph(tmp_path)
    assert cli_main(["brute", "--dataset", str(graph), *flags]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_cli_verify_sniffs_kind(tmp_path, capsys):
    graph = write_graph(tmp_path)
    assert cli_main(["datasets", "verify", str(graph)]) == 0
    assert "snap-edgelist" in capsys.readouterr().out

    ratings = tmp_path / "ratings.csv"
    ratings.write_text(MOVIE_CSV)
    assert cli_main(["datasets", "verify", str(ratings)]) == 0
    assert "movielens-csv" in capsys.readouterr().out


def test_cli_verify_refuses_the_synthetic_kind(tmp_path, capsys):
    # a synthetic kind read no file: verify summarized a generated graph
    # and exited 0 for a path that does not exist
    with pytest.raises(SystemExit) as exit_:
        cli_main(["datasets", "verify", str(tmp_path / "missing.txt"),
                  "--kind", "synthetic"])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # a value that does not parse, with its line
    ("kind = synthetic\nn = ten\nalgorithms = greedy\nk = 3\n",
     "error: line 2: cannot read n = 'ten'"),
    # a key no field has, with its line
    ("kind = synthetic\nalgorithms = greedy\nk = 3\nwat = 1\n",
     "error: line 4: unknown config key 'wat'"),
    # values that parse but that validate rejects
    ("kind = synthetic\nalgorithms = greedy\nk = 3\niterations = 0\n",
     "error: iterations must be at least 1"),
    ("kind = synthetic\nalgorithms = gredy\nk = 3\n",
     "error: unknown algorithm 'gredy'"),
    # the solvers raised ValueError mid-run on these
    ("kind = synthetic\nalgorithms = sieve\nk = 3\nepsilon = nan\n",
     "error: epsilon must be positive, got nan"),
    ("kind = synthetic\nalgorithms = partial_enum_greedy\nk = 3\ndepth = 5\n",
     "error: depth must be between 0 and 3, got 5"),
    # the generator raised ValueError on a graph smaller than its attach
    ("kind = synthetic\nmodel = pa\nn = 2\nattach = 3\nalgorithms = greedy\n"
     "k = 3\n", "error: a pa graph needs n >= attach >= 1"),
    ("kind = synthetic\nmodel = gnp\nn = 0\nalgorithms = greedy\nk = 3\n",
     "error: n must be at least 1, got 0"),
    ("kind = synthetic\nmodel = gnp\np = 2.0\nalgorithms = greedy\nk = 3\n",
     "error: p must be between 0 and 1, got 2.0"),
    ("kind = synthetic\nalgorithms = greedy\nk = 3\nbudget = 0\n",
     "error: query budget must be positive"),
])
def test_cli_run_reports_a_bad_config_and_exits_one(tmp_path, capsys, text,
                                                    message):
    # these escaped main as a bare ValueError traceback
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(text + f"output = {tmp_path / 'out.csv'}\n")
    assert cli_main(["run", "--config", str(cfgp)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out.csv").exists()


def test_cli_errors_return_one(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    assert cli_main(["datasets", "verify", str(bad)]) == 1
    # a self-loop alone printed a traceback, not an error line
    loop = tmp_path / "loop.txt"
    loop.write_text("1 1\n")
    capsys.readouterr()
    assert cli_main(["datasets", "verify", str(loop)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# --------------------------------------------------------------- perfbench


def test_perfbench_selftest_passes():
    # the harness calls solvers and patches distributed-module globals; a
    # package change that breaks either should fail here, not in a bench run
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("selftest passed")


def _bench_pairs():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_spread_and_wins():
    tool = _bench_pairs()
    assert tool.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 4.0, 2.0, 3.0]}
    assert tool.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                  "runs": [7.0]}
    # pair by pair: the head wins the first pair when lower is better and
    # the last when higher is; the tie in the middle counts for neither
    base, head = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
    lower = tool.compare(base, head, "lower")
    assert (lower["head_wins"], lower["change"]) == (1, 0.0)
    assert tool.compare(base, head, "higher")["head_wins"] == 1
    assert tool.compare(base, base, "lower")["head_wins"] == 0
    assert tool.compare([0.0], [1.0], "higher")["change"] is None


@pytest.mark.parametrize("flags", [["--pairs", "0"], ["--tier1", "-1"],
                                   ["--seconds", "0"], ["--seconds", "nan"],
                                   ["--workload", "offline-coverag"]])
def test_bench_pairs_rejects_bad_counts_before_any_run(tmp_path, monkeypatch,
                                                       flags):
    # --pairs 0 crashed in spread, after the version probes had run, and a
    # misspelt workload inside the first perfbench run
    tool = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}, {"name": "offline-coverage"}]}))

    def no_run(*args, **kwargs):
        raise AssertionError("a subprocess started")

    monkeypatch.setattr(tool.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--base", str(tmp_path), "--head", str(tmp_path),
                   "--workload", "w", "--seed", "1", "--out",
                   str(tmp_path / "pairs.json"), *flags])
    assert exit_.value.code == 2
    assert not (tmp_path / "pairs.json").exists()


def test_bench_pairs_reads_the_host_slowdown_a_run_printed():
    tool = _bench_pairs()
    out = ("setup_s is the median of 9 set-ups; wall_s sums ...\n"
           "times are divided by the host slowdown 1.0730118491: the mean "
           "of 61 reference tasks, 0.0021460236982 s, over 0.002 s\n"
           "wall_s                    0.0149 s\n")
    assert tool.host_slowdown(out) == 1.0730118491
    with pytest.raises(ValueError, match="no host slowdown"):
        tool.host_slowdown("wall_s 0.0149 s\n")


def test_bench_pairs_reads_the_sweeps_and_solves_a_run_printed():
    tool = _bench_pairs()
    out = ("workload offline-coverage  seed 271  sweeps 183  cells 3  "
           "solves 549  failed 0\n"
           "setup_s is the median of 183 set-ups; wall_s sums each cell's "
           "median solve time; solve_s_p50 is the median of 549 untraced "
           "solves\n")
    assert tool.run_counts(out) == {"sweeps": 183, "solves": 549}
    with pytest.raises(ValueError, match="no sweep and solve counts"):
        tool.run_counts("setup_s is the median of 183 set-ups\n")


def test_bench_pairs_flags_implausible_times():
    tool = _bench_pairs()
    # the stream-movie run that read 0.0015 s among 0.36-0.48 s
    assert tool.implausible([0.36, 0.48, 0.0015, 0.41, 0.44]) == [2]
    # exactly 1/10 and 10 times the median are plausible, beyond is not
    assert tool.implausible([1.0, 1.0, 0.1, 10.0, 1.0]) == []
    assert tool.implausible([1.0, 1.0, 0.09, 10.5, 1.0]) == [2, 3]


def test_bench_pairs_reports_implausible_times(tmp_path, monkeypatch, capsys):
    tool = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}], "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "queries", "unit": "count", "better": "lower"}]}))
    walls = iter([0.4, 0.4, 0.0015, 0.4, 0.41, 0.39])

    def fake_run(checkout, workload, seed, seconds):
        return {"metrics": {"wall_s": {"value": next(walls)},
                            "queries": {"value": 1}},
                "failed": 0, "attempted": 1, "slowdown": 1.0, "sweeps": 1,
                "solves": 1}

    monkeypatch.setattr(tool, "perfbench", fake_run)
    out = tmp_path / "pairs.json"
    assert tool.main(["--base", str(tmp_path), "--head", str(tmp_path),
                      "--workload", "w", "--seed", "1", "--pairs", "3",
                      "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    # pair 1 runs the head first: the third run is the head's second
    assert metrics["wall_s"]["implausible"] == {"base": [], "head": [1]}
    assert "implausible" not in metrics["queries"]
    assert "w wall_s: head runs [1]" in capsys.readouterr().err


def test_bench_pairs_counts_only_lines_that_hold_code(tmp_path):
    tool = _bench_pairs()
    package = tmp_path / "src" / "knapsub"
    (package / "bench").mkdir(parents=True)
    (package / "core.py").write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment alone\n"
        "import math  # a comment after code\n"
        "\n"
        "\n"
        "class A:\n"
        "    'One line.'\n"
        "\n"
        "    def f(self, x):\n"
        '        """Two\n        lines."""\n'
        '        text = """a string that is\n        no docstring"""\n'
        "        return (x +\n"
        "                1)\n"
        "\n"
        "\n"
        'def g(): """on the def line"""\n')
    (package / "bench" / "cli.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "src" / "setup.py").write_text("y = 2\n")
    # 21 lines in core.py and 3 in cli.py; the code: the import, the class,
    # the def, the two-line string, the two-line return, g's def line and
    # cli.py's x
    assert tool.src_lines(tmp_path) == 24
    assert tool.code_lines(tmp_path) == 9


def test_bench_pairs_compares_times_undivided(tmp_path, monkeypatch, capsys):
    # the head's times read 10% lower, but its host slowdown is 20% higher:
    # undivided, as measured, it is 8% slower and wins no pair
    for side in ("base", "head"):
        (tmp_path / side / "src" / "knapsub").mkdir(parents=True)
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}], "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "queries", "unit": "count", "better": "lower"}]}))
    tool = _bench_pairs()

    def fake_run(checkout, workload, seed, seconds):
        head = checkout.name == "head"
        return {"metrics": {"wall_s": {"value": 0.9 if head else 1.0},
                            "queries": {"value": 5}},
                "failed": 0, "attempted": 1, "slowdown": 1.2 if head else 1.0,
                "sweeps": 1, "solves": 1}

    monkeypatch.setattr(tool, "perfbench", fake_run)
    out = tmp_path / "pairs.json"
    assert tool.main(["--base", str(tmp_path / "base"),
                      "--head", str(tmp_path / "head"), "--workload", "a",
                      "--seed", "1", "--pairs", "2", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["a"]["metrics"]
    wall = metrics["wall_s"]
    assert (round(wall["change"], 9), wall["head_wins"]) == (-0.1, 2)
    assert wall["undivided"]["head"]["runs"] == [0.9 * 1.2] * 2
    assert (round(wall["undivided"]["change"], 9),
            wall["undivided"]["head_wins"]) == (0.08, 0)
    assert "undivided" not in metrics["queries"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [
        "a wall_s: base 1 head 0.9 change -10.0% head wins 2/2; "
        "undivided change +8.0% head wins 0/2",
        "a queries: base 5 head 5 change +0.0% head wins 0/2"]


def test_bench_pairs_prints_one_line_per_workload_and_metric(tmp_path,
                                                             monkeypatch, capsys):
    tool = _bench_pairs()
    # fake checkouts: the head's package is three lines shorter, and files
    # outside src/knapsub and src/knapsub/bench are not counted
    sizes = {"base": {"core.py": 4, "bench/cli.py": 3, "bench/data/x.py": 9},
             "head": {"core.py": 2, "bench/cli.py": 2, "../setup.py": 5}}
    for side, files in sizes.items():
        for name, count in files.items():
            path = tmp_path / side / "src" / "knapsub" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x = 1\n" * count)
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "value_ratio", "unit": "ratio", "better": "higher"}]}))
    # base, head, then head, base: the head is faster in both pairs and
    # scores 0.0 once, so its median ratio is 0.5 and it never wins; the
    # base's host slowdowns are 1.0 and 1.5, the head's 1.25 and 1.125; the
    # base made 4 and 6 sweeps, the head 8 both times, 3 solves a sweep
    runs = iter([(0.4, 1.0, 1.0, 4), (0.2, 1.0, 1.25, 8), (0.1, 0.0, 1.125, 8),
                 (0.3, 1.0, 1.5, 6)] * 2)

    def fake_run(checkout, workload, seed, seconds):
        wall, ratio, slowdown, sweeps = next(runs)
        return {"metrics": {"wall_s": {"value": wall},
                            "value_ratio": {"value": ratio}},
                "failed": 0, "attempted": 1, "slowdown": slowdown,
                "sweeps": sweeps, "solves": 3 * sweeps}

    monkeypatch.setattr(tool, "perfbench", fake_run)
    out = tmp_path / "pairs.json"
    assert tool.main(["--base", str(tmp_path / "base"),
                      "--head", str(tmp_path / "head"),
                      "--workload", "a", "--workload", "b", "--seed", "1",
                      "--pairs", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["src_lines"] == result["code_lines"] == {"base": 7, "head": 4}
    assert result["workloads"]["b"]["slowdown"] == {
        "base": {"median": 1.25, "q1": 1.125, "q3": 1.375, "runs": [1.0, 1.5]},
        "head": {"median": 1.1875, "q1": 1.15625, "q3": 1.21875,
                 "runs": [1.25, 1.125]}}
    assert result["workloads"]["a"]["solves"]["base"] == {
        "median": 15, "q1": 13.5, "q3": 16.5, "runs": [12, 18]}
    counts = ("sweeps: base 5 (4.5-5.5) head 8 (8-8); "
              "solves: base 15 (13.5-16.5) head 24 (24-24)")
    assert capsys.readouterr().out.splitlines() == [
        "src lines: base 7 head 4 change -3; "
        "code lines: base 7 head 4 change -3",
        "a wall_s: base 0.35 head 0.15 change -57.1% head wins 2/2; "
        "undivided change -57.4% head wins 2/2",
        "a value_ratio: base 1 head 0.5 change -50.0% head wins 0/2",
        "a host slowdown: base 1.25 (1.125-1.375) head 1.188 (1.156-1.219)",
        f"a {counts}",
        "b wall_s: base 0.35 head 0.15 change -57.1% head wins 2/2; "
        "undivided change -57.4% head wins 2/2",
        "b value_ratio: base 1 head 0.5 change -50.0% head wins 0/2",
        "b host slowdown: base 1.25 (1.125-1.375) head 1.188 (1.156-1.219)",
        f"b {counts}"]
    assert tool.summary("t", "m", tool.compare([0.0], [1.0], "lower")) == \
        "t m: base 0 head 1 change n/a head wins 0/1"
