"""Command-line interface: subcommands, exit codes, output shapes."""

import json
import subprocess
import sys

import pytest

from tempclique import analytics
from tempclique import experiments
from tempclique import solver as solver_module
from tempclique.cli import main
from tempclique.experiments import EXACT_SWEEP_MAX_N
from tempclique.io import read_temporal_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- generate


def test_generate_writes_k5(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "generate", "--n", "5", "--seed", "7", "--out", str(out))
    assert code == 0
    tg = read_temporal_graph(out)
    assert tg.n == 5 and tg.m == 10


def test_generate_round_trip_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, "generate", "--n", "6", "--seed", "3", "--out", str(a))[0] == 0
    from tempclique.io import write_temporal_graph

    write_temporal_graph(read_temporal_graph(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_stdout_and_fresh_seed(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "3")
    assert code == 0
    assert "seed:" in err
    doc = json.loads(out)
    assert doc["n"] == 3 and len(doc["edges"]) == 3


def test_generate_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "0", "--seed", "1")
    assert code == 1


# -------------------------------------------------------------------- solve


def test_solve_full_delta_returns_all_vertices(tmp_path, capsys):
    path = tmp_path / "g.json"
    run_cli(capsys, "generate", "--n", "5", "--seed", "7", "--out", str(path))
    code, out, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", "1.0", "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 5 and doc["optimal"] is True


def test_solve_modes_agree_on_fixtures(tmp_path, capsys):
    for n, seed in ((6, 1), (9, 2), (12, 3)):
        path = tmp_path / f"g{n}.json"
        run_cli(capsys, "generate", "--n", str(n), "--seed", str(seed), "--out", str(path))
        for delta in ("0.2", "0.6"):
            _, out_e, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", delta, "--mode", "exact")
            _, out_b, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", delta, "--mode", "bruteforce")
            assert json.loads(out_e)["size"] == json.loads(out_b)["size"]


def test_solve_reads_text_format(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1 0.1\n0 2 0.15\n1 2 0.9\n")
    code, out, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.85")
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_solve_exit_codes(tmp_path, capsys):
    path = tmp_path / "g.json"
    run_cli(capsys, "generate", "--n", "25", "--seed", "1", "--out", str(path))
    code, _, err = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.5", "--mode", "bruteforce")
    assert code == 2
    assert "n=25" in err
    code, _, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", "1.5")
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [[0, 1]]}')
    code, _, err = run_cli(capsys, "solve", "--in", str(bad), "--delta", "0.5")
    assert code == 1
    assert "edges[0]" in err
    code, _, _ = run_cli(capsys, "solve", "--in", str(tmp_path / "nope.json"), "--delta", "0.5")
    assert code == 1


@pytest.mark.parametrize(
    "name, text",
    [
        ("g.json", '{"n": 3, "edges": [[0, 1, 0.0], [0, 2, NaN], [1, 2, 1.0]]}'),
        ("g.json", '{"n": 2, "edges": [[0, 1, Infinity]]}'),
        ("g.txt", "0 1 0.0\n0 2 nan\n1 2 1.0\n"),
        ("g.txt", "0 1 inf\n"),
    ],
)
def test_solve_rejects_non_finite_labels(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error:") and "finite" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("g.json", '{"n": 3, "edges": [[Infinity, 1, 0.5]]}'),
        ("g.json", '{"n": 3, "edges": [[1e300, 1, 0.5]]}'),
        ("g.txt", "0 99999999999999999999 0.5\n"),
        ("g.json", '{"n": 99999999999999999999, "edges": [[0, 1, 0.5]]}'),
    ],
)
def test_solve_rejects_overflowing_vertex_ids(tmp_path, capsys, name, text):
    """Ids or n beyond 64-bit range are input errors, not tracebacks."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")


def test_exact_solve_is_sized_by_the_vertices_that_carry_an_edge(tmp_path, capsys):
    """n = 2**62 with two edges: the exact search must not allocate per vertex."""
    path = tmp_path / "g.json"
    path.write_text('{"n": 4611686018427387904, "edges": [[1, 2, 0.5], [3, 4, 0.5]]}')
    code, out, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.3", "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [1, 2] and doc["optimal"] is True


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "solve", "--delta", "0.5")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "solve", "--in", "x", "--delta", "0.5", "--mode", "magic")[0] == 1


# ------------------------------------------------------------------ analyze


def test_analyze_k0_value(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--what", "k0", "--n", "1000", "--delta", "0.5")
    assert code == 0
    assert round(json.loads(out)["value"], 4) == 19.9316


def test_analyze_window_prob_and_expected_count(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--what", "window-prob", "--h", "2", "--delta", "0.5")
    assert json.loads(out)["value"] == 0.75
    _, out, _ = run_cli(capsys, "analyze", "--what", "expected-count", "--n", "4", "--k", "3", "--delta", "0.5")
    assert json.loads(out)["value"] == 2.0


def test_analyze_density_variants(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--what", "density", "--m", "5", "--x", "0.5")
    assert json.loads(out)["value"] == pytest.approx(0.3125)
    _, out, _ = run_cli(capsys, "analyze", "--what", "density", "--m", "2", "--x", "0.2", "--y", "0.8")
    assert json.loads(out)["value"] == 2.0


def test_analyze_overlap_bound(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--what", "overlap-bound", "--n", "10", "--k", "2", "--delta", "0.3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(32 / 63, rel=1e-12)


def test_analyze_overlap_bound_past_double_range_returns_at_once(capsys, monkeypatch):
    """At k = 10^8 the t = k - 1 term is past double range, so the bound is
    inf without a loop over t: only three log binomials are taken."""
    calls = []
    log_choose = analytics.log_choose

    def counted(n, k):
        calls.append((n, k))
        assert len(calls) <= 3, "the bound loops over t"
        return log_choose(n, k)

    monkeypatch.setattr(analytics, "log_choose", counted)
    code, out, err = run_cli(
        capsys, "analyze", "--what", "overlap-bound", "--n", "200000000", "--k", "100000000", "--delta", "0.5"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == float("inf")


# stdout of one run of each `analyze --what` variant, byte for byte: the
# params keys, their order and the value's repr are all part of the output.
PINNED_ANALYZE = [
    (
        "--what k0 --n 1000 --delta 0.5",
        '{"what": "k0", "params": {"n": 1000, "delta": 0.5}, "value": 19.931568569324174}',
    ),
    (
        "--what window-prob --h 7 --delta 0.35",
        '{"what": "window-prob", "params": {"h": 7, "delta": 0.35}, "value": 0.009007501562499997}',
    ),
    (
        "--what expected-count --n 100 --k 6 --delta 0.3",
        '{"what": "expected-count", "params": {"n": 100, "k": 6, "delta": 0.3}, "value": 615.7673649621644}',
    ),
    (
        "--what overlap-bound --n 200 --k 8 --delta 0.4",
        '{"what": "overlap-bound", "params": {"n": 200, "k": 8, "delta": 0.4}, "value": 0.6763627435517489}',
    ),
    (
        "--what density --m 5 --x 0.5",
        '{"what": "density", "params": {"m": 5, "x": 0.5}, "value": 0.3125}',
    ),
    (
        "--what density --m 4 --x 0.3 --y 0.9",
        '{"what": "density", "params": {"m": 4, "x": 0.3, "y": 0.9}, "value": 4.320000000000001}',
    ),
]


def test_analyze_output_is_pinned(capsys):
    for args, line in PINNED_ANALYZE:
        code, out, err = run_cli(capsys, "analyze", *args.split())
        assert (code, out, err) == (0, line + "\n", ""), args


@pytest.mark.parametrize(
    "what, flags, unread",
    [
        ("k0", ["--n", "100", "--delta", "0.5", "--k", "3", "--x", "0.2"], "--k, --x"),
        ("k0", ["--n", "100", "--delta", "0.5", "--h", "2"], "--h"),
        ("window-prob", ["--h", "2", "--delta", "0.5", "--n", "10"], "--n"),
        ("expected-count", ["--n", "10", "--k", "3", "--delta", "0.5", "--y", "0.9"], "--y"),
        ("overlap-bound", ["--n", "10", "--k", "3", "--delta", "0.5", "--m", "4"], "--m"),
        ("density", ["--m", "4", "--x", "0.3", "--delta", "0.5"], "--delta"),
        ("density", ["--m", "4", "--x", "0.3", "--y", "0.9", "--n", "5", "--k", "2"], "--n, --k"),
    ],
)
def test_analyze_rejects_flags_it_does_not_read(capsys, what, flags, unread):
    code, out, err = run_cli(capsys, "analyze", "--what", what, *flags)
    assert (code, out, err) == (1, "", f"usage error: {what} does not read {unread}\n")


def test_analyze_rejects_out_of_range_parameters(capsys):
    """The closed forms validate their own parameters; the CLI reports them."""
    for argv in (
        ("--what", "expected-count", "--n", "10", "--k", "11", "--delta", "0.5"),
        ("--what", "expected-count", "--n", "10", "--k", "-1", "--delta", "0.5"),
        ("--what", "expected-count", "--n", "10", "--k", "3", "--delta", "1.5"),
        ("--what", "overlap-bound", "--n", "10", "--k", "11", "--delta", "0.5"),
        ("--what", "window-prob", "--h", "-1", "--delta", "0.5"),
        ("--what", "window-prob", "--h", "2", "--delta", "1.5"),
    ):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:")


def test_analyze_out_of_range_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--what", "k0", "--n", "10", "--delta", "1.5")
    assert code == 1
    code, _, _ = run_cli(capsys, "analyze", "--what", "window-prob", "--h", "2")
    assert code == 1


# --------------------------------------------------------------- experiment


def test_experiment_writes_files_and_prints_json(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "experiment", "--name", "window-prob", "--h", "2", "--delta", "0.5",
        "--trials", "500", "--seed", "5", "--outdir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 500
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2
    assert files[0].startswith("window_prob_") and files[0].endswith("_5.csv")
    assert files[1].endswith("_5.json")


def test_experiment_csv_format_prints_table(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment", "--name", "clique-count", "--n", "6", "--k", "3", "--delta", "0.4",
        "--trials", "5", "--seed", "2", "--outdir", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,seed,value"
    assert len(lines) == 6


def test_experiment_threads_flag_does_not_change_output(tmp_path, capsys):
    argv = [
        "experiment", "--name", "threshold", "--ns", "15,25", "--delta", "0.4",
        "--trials", "2", "--seed", "9", "--format", "csv",
    ]
    _, out1, _ = run_cli(capsys, *argv, "--threads", "1", "--outdir", str(tmp_path / "a"))
    _, out4, _ = run_cli(capsys, *argv, "--threads", "4", "--outdir", str(tmp_path / "b"))
    assert out1 == out4
    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--threads THREADS ignored: trials run one at a time" in help_text
    csv_a = next((tmp_path / "a").glob("*.csv")).read_bytes()
    csv_b = next((tmp_path / "b").glob("*.csv")).read_bytes()
    assert csv_a == csv_b


def test_experiment_json_is_strict_when_no_endpoint_normalizes(tmp_path, capsys):
    """At n = 2 every optimum is one edge of width 0, so no trial has a
    normalized endpoint and the KS statistic is undefined: it must print as
    null, never as a bare NaN that strict JSON parsers reject."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out, _ = run_cli(
        capsys,
        "experiment", "--name", "conjecture2", "--n", "2", "--delta", "0.1",
        "--trials", "3", "--seed", "0", "--outdir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    assert doc["extras"]["ks_statistic"] is None
    assert doc["extras"]["normalized_count"] == 0
    written = next(tmp_path.glob("*.json")).read_text()
    assert json.loads(written, parse_constant=reject) == doc


@pytest.mark.parametrize("ns, problem", [("30,30", "distinct"), (",", "at least one n")])
def test_experiment_rejects_repeated_or_missing_n(tmp_path, capsys, ns, problem):
    """A repeated n would run every trial twice on the same seeds, so the
    standard error would count copies; no n leaves nothing to aggregate."""
    code, out, err = run_cli(
        capsys,
        "experiment", "--name", "threshold", "--ns", ns, "--delta", "0.3",
        "--trials", "2", "--seed", "1", "--outdir", str(tmp_path),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and problem in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_infeasible_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "experiment", "--name", "threshold", "--ns", str(EXACT_SWEEP_MAX_N + 1), "--delta", "0.3",
        "--trials", "2", "--seed", "1", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "infeasible" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, flags, unread",
    [
        ("window-prob", ["--h", "2", "--delta", "0.5", "--n", "6"], "--n"),
        ("window-prob", ["--h", "2", "--delta", "0.5", "--ns", "20,30"], "--ns"),
        ("window-prob", ["--h", "2", "--delta", "0.5", "--mode", "heuristic"], "--mode"),
        ("clique-count", ["--n", "6", "--k", "3", "--delta", "0.4", "--mode", "exact"], "--mode"),
        ("clique-count", ["--n", "6", "--k", "3", "--delta", "0.4", "--h", "2"], "--h"),
        ("threshold", ["--ns", "20", "--n", "30", "--delta", "0.3"], "--n"),
        ("threshold", ["--ns", "20", "--h", "2", "--delta", "0.3"], "--h"),
        ("reduction", ["--n", "20", "--k", "3", "--delta", "0.3"], "--k"),
        ("conjecture2", ["--n", "20", "--ns", "20,30", "--delta", "0.3"], "--ns"),
    ],
)
def test_experiment_rejects_flags_it_does_not_read(tmp_path, capsys, name, flags, unread):
    code, out, err = run_cli(
        capsys,
        "experiment", "--name", name, *flags, "--trials", "100", "--seed", "1",
        "--outdir", str(tmp_path),
    )
    assert (code, out, err) == (1, "", f"usage error: {name} does not read {unread}\n")
    assert list(tmp_path.iterdir()) == []


def test_solve_without_gcc_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    run_cli(capsys, "generate", "--n", "10", "--seed", "1", "--out", str(path))
    monkeypatch.setattr(solver_module, "_kernel", None)
    monkeypatch.setattr(solver_module, "_CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(solver_module, "_COMPILER", ("tempclique-no-such-cc", "-O2", "-shared", "-fPIC"))
    code, out, err = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.3")
    assert (code, out) == (2, "")
    assert err.startswith("infeasible: the exact and heuristic solvers' kernel _sweep.c needs gcc")
    code, out, err = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.3", "--mode", "heuristic")
    assert (code, out) == (2, "") and err.startswith("infeasible:")
    code, out, _ = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.3", "--mode", "bruteforce")
    assert code == 0 and json.loads(out)["mode"] == "bruteforce"


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError("Unable to allocate 745. GiB for an array"), "Unable to allocate 745. GiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_running_out_of_memory_is_infeasible(tmp_path, capsys, monkeypatch, error, message):
    """An allocation that fails, numpy's or the kernel's, exits 2 with one
    line and no traceback, and writes no file."""

    def exhausted(*args):
        raise error

    monkeypatch.setattr(experiments, "uniform_block", exhausted)
    code, out, err = run_cli(
        capsys,
        "experiment", "--name", "window-prob", "--h", "1000000", "--delta", "0.5",
        "--trials", "100000", "--seed", "1", "--outdir", str(tmp_path),
    )
    assert (code, out, err) == (2, "", f"infeasible: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_experiment_requires_flags(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--name", "window-prob", "--trials", "200",
        "--seed", "1", "--outdir", str(tmp_path),
    )
    assert code == 1
    assert "requires" in err


@pytest.mark.parametrize("name", ["threshold", "reduction", "conjecture2"])
def test_experiment_rejects_n_below_two_by_name(tmp_path, capsys, name):
    size = "--ns" if name == "threshold" else "--n"
    code, out, err = run_cli(
        capsys,
        "experiment", "--name", name, size, "1", "--delta", "0.3",
        "--trials", "2", "--seed", "1", "--outdir", str(tmp_path),
    )
    assert (code, out, err) == (1, "", f"error: {name} needs n >= 2\n")
    assert list(tmp_path.iterdir()) == []


def test_experiment_threshold_lists_every_missing_flag(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--name", "threshold", "--trials", "2",
        "--seed", "1", "--outdir", str(tmp_path),
    )
    assert (code, err) == (1, "usage error: threshold requires --ns, --delta\n")


def test_solve_rejects_nan_budget(tmp_path, capsys):
    """NaN compares false against everything, so it would read as no budget."""
    path = tmp_path / "g.json"
    run_cli(capsys, "generate", "--n", "10", "--seed", "1", "--out", str(path))
    code, out, err = run_cli(capsys, "solve", "--in", str(path), "--delta", "0.3", "--budget-secs", "nan")
    assert (code, out, err) == (1, "", "error: time_budget must be nonnegative\n")


def test_solve_bruteforce_takes_no_budget(tmp_path, capsys):
    """Subset enumeration never reads the clock, so a budget would be ignored."""
    path = tmp_path / "g.json"
    run_cli(capsys, "generate", "--n", "10", "--seed", "1", "--out", str(path))
    code, out, err = run_cli(
        capsys, "solve", "--in", str(path), "--delta", "0.3", "--mode", "bruteforce", "--budget-secs", "1"
    )
    assert (code, out, err) == (1, "", "error: the bruteforce solver takes no time budget\n")


@pytest.mark.parametrize(
    "name, flags",
    [
        pytest.param("threshold", ["--ns", "20", "--delta", "0.3"], id="threshold"),
        pytest.param("window-prob", ["--h", "2", "--delta", "0.5"], id="window-prob"),
    ],
)
@pytest.mark.parametrize("budget", ["1", "-1", "nan"])
def test_experiment_takes_no_budget(tmp_path, capsys, name, flags, budget):
    """A budget would make records depend on wall time, and it is not in the
    params that name the output files."""
    code, out, err = run_cli(
        capsys,
        "experiment", "--name", name, *flags, "--trials", "100", "--seed", "1",
        "--outdir", str(tmp_path), "--budget-secs", budget,
    )
    assert (code, out) == (1, "")
    assert err == f"usage error: unrecognized arguments: --budget-secs {budget}\n"
    assert list(tmp_path.iterdir()) == []


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "tempclique", "analyze", "--what", "k0", "--n", "100", "--delta", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["what"] == "k0"


def test_cli_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with it blocked, the CLI imports and
    runs the one experiment that reports a KS statistic, and loads none of
    scipy."""
    argv = ["experiment", "--name", "conjecture2", "--n", "20", "--delta", "0.4",
            "--trials", "3", "--seed", "31", "--outdir", str(tmp_path)]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tempclique.cli import main\n"
        f"code = main({argv!r})\n"
        "assert sys.modules['scipy'] is None\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads(proc.stdout)["extras"]["ks_statistic"], float)
