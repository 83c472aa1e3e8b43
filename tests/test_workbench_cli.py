import random

import pytest

import sensconn.incremental_sensitivity as incs
import sensconn.verify as verify_mod
import sensconn.workbench_cli as cli_mod
from sensconn.connectivity_oracle import oracle_names
from sensconn.fully_dynamic_sensitivity import fd_rollback, fd_update
from sensconn.generators import gnp_graph
from sensconn.graph_core import StatePartition, dump_graph
from sensconn.incremental_sensitivity import INDEX_BYTES_MAX
from sensconn.workbench_cli import EXHAUSTIVE_N_MAX, RANDOM_N_MAX, main

from conftest import FIXTURES, KEEPS_DELETION, index_without_off_edges
from reference import brute_connected


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


P5_HEAD = "n=5 m=4 n_on=4 n_off=1 deactivations=0 activations=1 batch_size=1 queries=3"
MIXED_HEAD = "n=6 m=6 n_on=5 n_off=1 deactivations=1 activations=1 batch_size=2 queries=4"
# (fixture, algo) -> exit code and every report line but the wall_* timings
REPORTS = {
    ("p5", "inc"): (0, f"algorithm=inc oracle=- {P5_HEAD} preprocess_edge_probes=2 preprocess_or_words=2 "
                       "update_pair_probes=0 query_probes_total=4 query_probes_max=2 errors=0 results=111"),
    ("p5", "fd"): (0, f"algorithm=fd oracle=rebuild {P5_HEAD} preprocess_oracle_count=2 preprocess_probes=18 "
                      "update_delete_calls=2 update_pair_queries=0 query_calls_total=7 query_calls_max=3 "
                      "errors=0 results=111"),
    ("p5", "bf"): (0, f"algorithm=bf oracle=- {P5_HEAD} errors=0 results=111"),
    ("mixed", "fd"): (3, f"algorithm=fd oracle=rebuild {MIXED_HEAD} preprocess_oracle_count=2 "
                         "preprocess_probes=24 update_delete_calls=2 update_pair_queries=0 "
                         "query_calls_total=7 query_calls_max=3 errors=1 results=111E"),
    ("mixed", "bf"): (3, f"algorithm=bf oracle=- {MIXED_HEAD} errors=1 results=111E"),
}


class TestRun:
    def test_bridged_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "p5.graph"),
            "--update", str(FIXTURES / "p5.update"),
            "--query", str(FIXTURES / "p5.query"),
            "--algo", "inc",
        )
        assert code == 0
        assert out.splitlines() == ["1", "1", "1"]

    def test_an_index_above_the_cap_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        def labeled(g, mask):
            raise AssertionError("the base was labeled")

        monkeypatch.setattr(incs, "component_labels", labeled)
        n, n_off = 80_000, 70_000  # edgeless: the off_reach masks alone exceed the cap
        graph = tmp_path / "g.txt"
        graph.write_text(f"{n} 0\nOFF {n_off}\n" + "\n".join(map(str, range(n_off))) + "\n")
        (tmp_path / "u.txt").write_text("+0\n")
        (tmp_path / "q.txt").write_text("0 0\n")
        code, out, err = run_cli(capsys, "run", "--graph", str(graph), "--update", str(tmp_path / "u.txt"),
                                 "--query", str(tmp_path / "q.txt"), "--algo", "inc")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the activation index of n=80000, n_off=70000 ")
        assert err.rstrip().endswith(f"above the cap of {INDEX_BYTES_MAX >> 20} MiB (INDEX_BYTES_MAX)")
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert f"above {INDEX_BYTES_MAX >> 20} MiB (INDEX_BYTES_MAX)" in " ".join(capsys.readouterr().out.split())

    def test_empty_update(self, capsys):
        code, out, _ = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "p5.graph"),
            "--update", str(FIXTURES / "p5_empty.update"),
            "--query", str(FIXTURES / "p5.query"),
            "--algo", "inc",
        )
        assert code == 0
        assert out.splitlines() == ["0", "1", "0"]

    def test_mixed_fixture_fd(self, capsys):
        code, out, _ = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "mixed.graph"),
            "--update", str(FIXTURES / "mixed.update"),
            "--query", str(FIXTURES / "mixed.query"),
            "--algo", "fd",
        )
        # last query touches the deactivated vertex 2
        assert code == 3
        assert out.splitlines() == ["1", "1", "1", "E"]

    @pytest.mark.parametrize("algo", ["inc", "fd", "bf"])
    def test_all_algorithms_stream_identically(self, capsys, algo):
        code, out, _ = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "p5.graph"),
            "--update", str(FIXTURES / "p5.update"),
            "--query", str(FIXTURES / "p5.query"),
            "--algo", algo,
        )
        assert code == 0
        assert out.splitlines() == ["1", "1", "1"]

    @pytest.mark.parametrize("algo", ["fd", "bf"])
    def test_mixed_fixture_streams_match(self, capsys, algo):
        code, out, _ = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "mixed.graph"),
            "--update", str(FIXTURES / "mixed.update"),
            "--query", str(FIXTURES / "mixed.query"),
            "--algo", algo,
        )
        assert code == 3
        assert out.splitlines() == ["1", "1", "1", "E"]

    def test_streams_match_the_reference_on_random_instances(self, capsys, tmp_path):
        """Seeded random instances: every algorithm that takes the batch gives
        the same result stream and exit code, each answer the reference's.
        Queries also name out-of-range, deactivated and never-activated
        vertices, which every algorithm answers with E."""
        rng = random.Random(11)
        graph, update, query = (tmp_path / name for name in ("g.graph", "u.update", "q.query"))
        for trial in range(20):
            n = rng.randint(3, 12)
            g = gnp_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
            p = StatePartition.from_off(n, rng.sample(range(n), rng.randint(1, n - 1)))
            graph.write_text(dump_graph(g, p))
            on = [v for v in range(n) if p.is_on(v)]
            up = rng.sample(p.off_vertices, rng.randint(1, p.n_off))
            mixed_down = rng.sample(on, rng.randint(1, len(on)))
            for algos, down in ((("inc", "fd", "bf"), []), (("fd", "bf"), mixed_down)):
                active = (set(on) - set(down)) | set(up)
                pool = [*range(n), n, n + 3]  # active, deactivated, never activated, out of range
                queries = [(rng.choice(pool), rng.choice(pool)) for _ in range(15)]
                update.write_text(" ".join([*(f"-{v}" for v in down), *(f"+{v}" for v in up)]) + "\n")
                query.write_text("".join(f"{u} {v}\n" for u, v in queries))
                expected = ["E" if not {u, v} <= active else "1" if brute_connected(g, active, u, v) else "0"
                            for u, v in queries]
                streams = {}
                for algo in algos:
                    code, out, _ = run_cli(capsys, "run", "--graph", str(graph), "--update", str(update),
                                           "--query", str(query), "--algo", algo)
                    streams[algo] = code, out
                assert len(set(streams.values())) == 1, (trial, down, streams)
                code, out = streams["fd"]
                assert (code, out.split()) == (3 if "E" in expected else 0, expected), (trial, down)

    def test_incremental_rejects_deactivation(self, capsys):
        code, _, err = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "mixed.graph"),
            "--update", str(FIXTURES / "mixed.update"),
            "--query", str(FIXTURES / "mixed.query"),
            "--algo", "inc",
        )
        assert code == 2
        assert "cannot deactivate" in err

    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("not a header\n")
        code, _, err = run_cli(
            capsys, "run",
            "--graph", str(bad),
            "--update", str(FIXTURES / "p5.update"),
            "--query", str(FIXTURES / "p5.query"),
        )
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("which", ["--graph", "--update", "--query"])
    @pytest.mark.parametrize("problem", ["missing", "directory", "not utf-8"])
    def test_unreadable_input_file_is_one_error_line(self, capsys, tmp_path, which, problem):
        bad = tmp_path / "bad.txt"
        if problem == "directory":
            bad.mkdir()
        elif problem == "not utf-8":
            bad.write_bytes(b"\xff\xfe\n")
        files = {
            "--graph": str(FIXTURES / "p5.graph"),
            "--update": str(FIXTURES / "p5.update"),
            "--query": str(FIXTURES / "p5.query"),
            which: str(bad),
        }
        code, out, err = run_cli(capsys, "run", *(x for kv in files.items() for x in kv))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {bad}: ")

    def test_non_ascii_digit_in_update_is_one_error_line(self, capsys, tmp_path):
        update = tmp_path / "sup.update"
        update.write_text("+\u00b2\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "p5.graph"),
            "--update", str(update),
            "--query", str(FIXTURES / "p5.query"),
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 1:")

    @pytest.mark.parametrize("which, text", [
        ("--graph", "1" * 5000 + " 0\nOFF 0\n"),
        ("--update", "+" + "1" * 5000 + "\n"),
        ("--query", "1" * 5000 + " 0\n"),
    ], ids=["graph", "update", "query"])
    def test_overlong_integer_is_one_short_error_line(self, capsys, tmp_path, which, text):
        # int() refuses more than 4,300 digits; the error must not echo them
        bad = tmp_path / "long.txt"
        bad.write_text(text)
        files = {
            "--graph": str(FIXTURES / "p5.graph"),
            "--update": str(FIXTURES / "p5.update"),
            "--query": str(FIXTURES / "p5.query"),
            which: str(bad),
        }
        code, out, err = run_cli(capsys, "run", *(x for kv in files.items() for x in kv))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 1:")
        assert len(err) < 200

    def test_report_is_deterministic_modulo_wall_times(self, capsys, tmp_path):
        reports = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "run",
                "--graph", str(FIXTURES / "mixed.graph"),
                "--update", str(FIXTURES / "mixed.update"),
                "--query", str(FIXTURES / "mixed.query"),
                "--algo", "fd",
                "--report", str(path),
            )
            assert code == 3
            lines = [l for l in path.read_text().splitlines() if not l.startswith("wall_")]
            reports.append(lines)
        assert reports[0] == reports[1]
        assert "results=111E" in reports[0]
        assert any(l.startswith("update_delete_calls=") for l in reports[0])

    @pytest.mark.parametrize("fixture, algo", list(REPORTS), ids=[f"{f}-{a}" for f, a in REPORTS])
    def test_report_pins_every_counter(self, capsys, tmp_path, fixture, algo):
        expected_code, expected = REPORTS[fixture, algo]
        path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / f"{fixture}.graph"),
            "--update", str(FIXTURES / f"{fixture}.update"),
            "--query", str(FIXTURES / f"{fixture}.query"),
            "--algo", algo,
            "--report", str(path),
        )
        assert code == expected_code
        results = expected.rpartition("results=")[2]
        assert out == "".join(f"{r}\n" for r in results)
        lines = path.read_text().splitlines()
        assert [l for l in lines if not l.startswith("wall_")] == expected.split()
        assert [l.partition("=")[0] for l in lines if l.startswith("wall_")] == [
            "wall_preprocess_s", "wall_update_s", "wall_query_s", "wall_rollback_s"]

    def test_fd_rolls_back_its_update(self, capsys, monkeypatch):
        handles, rollbacks = [], []

        def update(s, deactivate, activate):
            handles.append(fd_update(s, deactivate, activate))
            return handles[-1]

        def rollback(s, a):
            rollbacks.append(a)
            fd_rollback(s, a)

        monkeypatch.setattr(cli_mod, "fd_update", update)
        monkeypatch.setattr(cli_mod, "fd_rollback", rollback)
        run_cli(
            capsys, "run",
            "--graph", str(FIXTURES / "mixed.graph"),
            "--update", str(FIXTURES / "mixed.update"),
            "--query", str(FIXTURES / "mixed.query"),
            "--algo", "fd",
        )
        assert len(handles) == len(rollbacks) == 1
        assert rollbacks[0] is handles[0]


class TestVerifyCommand:
    def test_random_mode_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "random", "--trials", "25",
            "--n-max", "16", "--seed", "3",
        )
        assert code == 0
        # the four engine suites, then conformance and rollback of the oracle
        assert out.count("PASS") == 6

    @pytest.mark.parametrize("factory", ["rebuild", KEEPS_DELETION])
    def test_any_registered_oracle_is_checked(self, capsys, keeps_deletion, factory):
        code, out, _ = run_cli(capsys, "verify", "--mode", "random", "--trials", "25", "--oracle", factory)
        if factory == keeps_deletion:
            assert code == 1
            assert "conformance: FAIL" in out
            assert "rollback: FAIL" in out
            assert "first counterexample" in out
        else:
            assert code == 0
            assert out.count("PASS") == 6

    def test_exhaustive_mode_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "exhaustive", "--n-max", "3")
        assert code == 0
        assert "fully_dynamic: PASS" in out

    def test_injected_bug_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(verify_mod, "build_incremental", index_without_off_edges)
        code, out, _ = run_cli(capsys, "verify", "--mode", "exhaustive", "--n-max", "3")
        assert code == 1
        assert "incremental: FAIL" in out
        assert "first counterexample" in out

    @pytest.mark.parametrize("flag, value, bound", [
        ("--trials", "-3", "at least 1"),
        ("--trials", "0", "at least 1"),
        ("--n-max", "1", "at least 2"),
        ("--batch-max", "-1", "non-negative"),
    ])
    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_out_of_range_count_is_one_error_line(self, capsys, mode, flag, value, bound):
        code, out, err = run_cli(capsys, "verify", "--mode", mode, flag, value)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {flag} must be {bound}, got {value}"]

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
    def test_edge_prob_outside_the_unit_interval_is_one_error_line(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--mode", "random", "--trials", "2",
                                 "--edge-prob", "0.3", "--edge-prob", value)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: --edge-prob must lie in [0, 1], got {float(value)}"]

    def test_exhaustive_n_max_above_the_cap_is_one_error_line(self, capsys, monkeypatch):
        import sensconn.verify as verify_mod

        def enumerated(n):
            raise AssertionError("a graph was enumerated")

        monkeypatch.setattr(verify_mod, "iter_all_graphs", enumerated)
        too_big = EXHAUSTIVE_N_MAX + 1
        code, out, err = run_cli(capsys, "verify", "--mode", "exhaustive", "--n-max", str(too_big))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: --n-max must be at most {EXHAUSTIVE_N_MAX} in exhaustive mode, got {too_big}"
        ]
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert f"at most {EXHAUSTIVE_N_MAX}" in " ".join(capsys.readouterr().out.split())

    def test_random_n_max_above_the_cap_is_one_error_line(self, capsys, monkeypatch):
        import sensconn.verify as verify_mod

        def drawn(n, p, rng):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(verify_mod, "gnp_graph", drawn)
        too_big = RANDOM_N_MAX + 1
        code, out, err = run_cli(capsys, "verify", "--mode", "random", "--n-max", str(too_big))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: --n-max must be at most {RANDOM_N_MAX} in random mode, got {too_big}"
        ]
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert f"at most {RANDOM_N_MAX}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["run", "bench"])
def test_unwritable_output_file_is_one_error_line(capsys, tmp_path, command):
    target = tmp_path / "missing-dir" / "out.txt"
    if command == "run":
        args = ("run", "--graph", str(FIXTURES / "p5.graph"), "--update", str(FIXTURES / "p5.update"),
                "--query", str(FIXTURES / "p5.query"), "--report", str(target))
    else:
        args = ("bench", "--graph", str(FIXTURES / "mixed.graph"), "--batch-sizes", "1",
                "--out", str(target))
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out  # the answers or the table came first
    assert err.splitlines()[-1] == f"error: cannot write {target}: No such file or directory"


class TestBenchCommand:
    @pytest.fixture
    def bench_graph(self, tmp_path):
        rng = random.Random(0)
        g = gnp_graph(40, 0.12, rng)
        p = StatePartition.from_off(40, rng.sample(range(40), 10))
        path = tmp_path / "bench.graph"
        path.write_text(dump_graph(g, p))
        return path

    def test_counters_follow_the_formulas(self, capsys, bench_graph, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--graph", str(bench_graph),
            "--batch-sizes", "2,4,8", "--repeats", "2", "--queries", "10",
            "--out", str(out_csv),
        )
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().splitlines()]
        header, data = rows[0], rows[1:]
        pair_col = header.index("update_pair_queries")
        size_col = header.index("batch_size")
        for row in data:
            size = int(row[size_col])
            assert int(row[pair_col]) == size * (size - 1) // 2
        assert {r[size_col] for r in data} == {"2", "4", "8"}
        # every factory reported
        assert {r[0] for r in data} == set(oracle_names())

    def test_oversized_batch_skipped_with_warning(self, capsys, bench_graph):
        code, out, err = run_cli(
            capsys, "bench", "--graph", str(bench_graph),
            "--batch-sizes", "4,32", "--repeats", "1", "--queries", "5",
        )
        assert code == 0
        assert "skipped" in err
        assert " 32 " not in out

    def test_size_warning_is_printed_once_for_every_factory(self, capsys, tmp_path, rebuild_twin):
        graph = tmp_path / "all_on.graph"
        graph.write_text("3 2\n0 1\n1 2\nOFF 0\n")
        code, out, err = run_cli(capsys, "bench", "--graph", str(graph), "--batch-sizes", "1,1")
        assert len(oracle_names()) == 2  # both default factories would have warned, twice each
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["warning: batch size 1 exceeds the 0 inactive vertices, skipped",
                                    "nothing to benchmark"]

    @pytest.mark.parametrize("sizes", ["1,x", "-1", "\u0663", pytest.param("1" * 5000, id="5000 digits")])
    def test_bad_batch_size_is_one_error_line(self, capsys, bench_graph, sizes):
        code, out, err = run_cli(capsys, "bench", "--graph", str(bench_graph), "--batch-sizes", sizes)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_default_factories_are_every_registered_one(self, capsys, bench_graph, tmp_path,
                                                         rebuild_twin):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--graph", str(bench_graph),
            "--batch-sizes", "2", "--repeats", "1", "--queries", "5", "--out", str(out_csv),
        )
        assert code == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert sorted(r.split(",")[0] for r in rows) == oracle_names()
        assert rebuild_twin in oracle_names()

    @pytest.mark.parametrize("sizes, oracles, rows", [
        ("2,2", ["rebuild"], [("rebuild", "2")]),
        ("4,2,4", ["rebuild", "rebuild"], [("rebuild", "4"), ("rebuild", "2")]),
    ])
    def test_repeated_sizes_and_factories_run_once(self, capsys, tmp_path, sizes, oracles, rows):
        # a size's second occurrence would draw new batches, whose answers
        # differ on this sparse graph from those its first occurrence gave
        rng = random.Random(0)
        graph = tmp_path / "sparse.graph"
        graph.write_text(dump_graph(gnp_graph(40, 0.06, rng), StatePartition.from_off(40, rng.sample(range(40), 10))))
        out_csv = tmp_path / "bench.csv"
        code, _, err = run_cli(
            capsys, "bench", "--graph", str(graph), "--batch-sizes", sizes,
            *(x for name in oracles for x in ("--oracle", name)),
            "--repeats", "2", "--queries", "10", "--out", str(out_csv),
        )
        assert (code, err) == (0, "")
        assert [tuple(r.split(",")[:2]) for r in out_csv.read_text().splitlines()[1:]] == rows

    def test_update_columns_are_measured(self, capsys, bench_graph, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--graph", str(bench_graph), "--oracle", "rebuild",
            "--batch-sizes", "4", "--repeats", "0", "--out", str(out_csv),
        )
        assert code == 0
        header, row = (line.split(",") for line in out_csv.read_text().splitlines())
        got = dict(zip(header, row))
        # no batch ran, so nothing was measured; the formulas still read as such
        assert (got["update_delete_calls"], got["update_pair_queries"]) == ("0", "0")
        assert (got["formula_delete_calls"], got["formula_pair_queries"]) == ("11", "6")

    def test_missing_graph_is_one_error_line(self, capsys, tmp_path):
        missing = tmp_path / "missing.graph"
        code, out, err = run_cli(capsys, "bench", "--graph", str(missing))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: cannot read {missing}: No such file or directory"]

    @pytest.mark.parametrize("flag, value", [("--repeats", "-2"), ("--queries", "-1")])
    def test_negative_count_is_one_error_line(self, capsys, bench_graph, flag, value):
        code, out, err = run_cli(capsys, "bench", "--graph", str(bench_graph), flag, value)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {flag} must be non-negative, got {value}"]

    def test_nothing_active_is_one_error_line(self, capsys, tmp_path):
        graph = tmp_path / "all_off.graph"
        graph.write_text("1 0\nOFF 1\n0\n")
        code, out, err = run_cli(capsys, "bench", "--graph", str(graph), "--batch-sizes", "0")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
