"""Command-line interface: instance generation, Hamiltonicity checking,
experiment runs, plotting, and the documented exit codes (0 success,
1 input error, 2 capability error)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from itertools import combinations

import pytest

from weakham import (ExperimentConfig, Hypergraph, dump_hypergraph, expansion, harness,
                     load_hypergraph, load_table)
from weakham.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def tri_file(tmp_path):
    path = os.fspath(tmp_path / "tri.txt")
    dump_hypergraph(Hypergraph.from_edges(3, 3, [(0, 1, 2)]), path)
    return path


@pytest.fixture
def big_file(tmp_path):
    chain = [tuple(range(i, i + 3)) for i in range(19)]
    path = os.fspath(tmp_path / "big.txt")
    dump_hypergraph(Hypergraph.from_edges(21, 3, chain), path)
    return path


# ------------------------------------------------------------------------ gen


def test_gen_gnp_with_c(tmp_path, capsys):
    out = os.fspath(tmp_path / "h.txt")
    rc = run_cli("gen", "--n", "30", "--d", "3", "--model", "gnp",
                 "--c", "0", "--seed", "7", "--out", out)
    assert rc == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: n=30 d=3 m=")
    H = load_hypergraph(out)
    assert H.n == 30 and H.d == 3


def test_gen_gnm_with_m(tmp_path):
    out = os.fspath(tmp_path / "h.txt")
    rc = run_cli("gen", "--n", "12", "--d", "3", "--model", "gnm",
                 "--m", "10", "--seed", "1", "--out", out)
    assert rc == 0
    assert load_hypergraph(out).m == 10


def test_gen_is_deterministic(tmp_path):
    a = os.fspath(tmp_path / "a.txt")
    b = os.fspath(tmp_path / "b.txt")
    for out in (a, b):
        assert run_cli("gen", "--n", "20", "--d", "4", "--model", "gnp",
                       "--p", "0.05", "--seed", "3", "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_rejects_ambiguous_density(tmp_path, capsys):
    out = os.fspath(tmp_path / "h.txt")
    rc = run_cli("gen", "--n", "10", "--d", "3", "--model", "gnp",
                 "--p", "0.1", "--c", "0", "--out", out)
    assert rc == 1
    assert "exactly one of --p or --c" in capsys.readouterr().err
    rc = run_cli("gen", "--n", "10", "--d", "3", "--model", "gnp", "--out", out)
    assert rc == 1
    rc = run_cli("gen", "--n", "10", "--d", "3", "--model", "gnm",
                 "--m", "4", "--p", "0.1", "--out", out)
    assert rc == 1
    assert "--p applies to gnp only" in capsys.readouterr().err


def test_gen_rejects_bad_flags(capsys):
    assert run_cli("gen", "--n", "10", "--model", "gnp") == 1  # missing --d
    assert run_cli("frobnicate") == 1
    capsys.readouterr()


def test_negative_seed_is_input_error(tmp_path, capsys):
    out = os.fspath(tmp_path / "h.txt")
    rc = run_cli("gen", "--n", "10", "--d", "3", "--model", "gnp",
                 "--p", "0.1", "--seed", "-1", "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == "error: seed and stream must be >= 0, got seed=-1, stream=0\n"
    assert not os.path.exists(out)
    rc = run_cli("exp", "threshold", "--n", "12", "--trials", "2", "--c-grid=0",
                 "--seed=-1", "--out", out)
    assert rc == 1
    assert "error: seed and stream must be >= 0, got seed=-1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_oracle_cutoff_is_input_error(tmp_path, capsys):
    out = os.fspath(tmp_path / "t.csv")
    rc = run_cli("exp", "threshold", "--n", "30", "--c-grid=1", "--trials", "6",
                 "--oracle-cutoff", "-3", "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == "error: oracle_cutoff must be >= 0, got -3\n"
    assert not os.path.exists(out)


def test_gen_beyond_sampler_capability_is_exit_2(tmp_path, capsys):
    out = os.fspath(tmp_path / "h.txt")
    rc = run_cli("gen", "--n", "231", "--d", "3", "--model", "gnp",
                 "--p", "0.9", "--out", out)
    assert rc == 2
    assert "enumeration limit" in capsys.readouterr().err
    rc = run_cli("gen", "--n", str(2**21), "--d", "3", "--model", "gnm",
                 "--m", "5", "--out", out)
    assert rc == 2
    assert "packed sampling" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_binomial_count_overflow_is_exit_2(tmp_path, capsys):
    # C(10**7, 3) >= 2**63 does not fit the binomial draw of the edge count
    out = os.fspath(tmp_path / "t.csv")
    rc = run_cli("exp", "poisson", "--n", "10000000", "--c-grid=0", "--trials", "2",
                 "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("capability error:") and "binomial" in err
    assert not os.path.exists(out)
    rc = run_cli("gen", "--n", "10000000", "--d", "3", "--model", "gnp",
                 "--c", "0", "--out", out)
    assert rc == 2
    assert "binomial" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_finite_c_is_input_error(tmp_path, capsys):
    out = os.fspath(tmp_path / "h.txt")
    for model, c in (("gnm", "nan"), ("gnp", "inf")):
        rc = run_cli("gen", "--n", "30", "--d", "3", "--model", model, "--c", c, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == f"error: c must be finite, got {c}\n"
    rc = run_cli("exp", "gnm", "--n", "30", "--c-grid=inf", "--trials", "2", "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == "error: c must be finite, got inf\n"
    assert not os.path.exists(out)


def test_huge_finite_c_is_clamped(tmp_path):
    out = os.fspath(tmp_path / "h.txt")
    with pytest.warns(UserWarning, match="= inf clamped to 120"):
        rc = run_cli("gen", "--n", "10", "--d", "3", "--model", "gnm", "--c", "1e308",
                     "--out", out)
    assert rc == 0
    assert load_hypergraph(out).m == 120
    out = os.fspath(tmp_path / "t.csv")
    with pytest.warns(UserWarning, match="= inf clamped to 4060"):
        rc = run_cli("exp", "gnm", "--n", "30", "--c-grid=1e308", "--trials", "2",
                     "--out", out)
    assert rc == 0
    assert load_table(out).column("m") == ["4060"]


def test_pab_beyond_64_b_vertices(tmp_path):
    out = os.fspath(tmp_path / "p.csv")
    rc = run_cli("exp", "pab", "--a-grid", "40", "--b-grid", "70", "--p-grid", "0.9",
                 "--trials", "5", "--out", out)
    assert rc == 0
    assert load_table(out).column("successes") == ["5"]


# ---------------------------------------------------------------------- check


def test_check_exact_yes(tri_file, capsys):
    rc = run_cli("check", "--in", tri_file)
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "yes"
    assert doc["method"] == "dp"


def test_check_exact_above_cutoff_is_capability_exit(big_file, capsys):
    rc = run_cli("check", "--in", big_file, "--mode", "exact")
    assert rc == 2
    assert "capability error:" in capsys.readouterr().err


def test_check_heuristic_complete(tmp_path, capsys):
    path = os.fspath(tmp_path / "k6.txt")
    dump_hypergraph(
        Hypergraph.from_edges(6, 3, list(combinations(range(6), 3))), path
    )
    rc = run_cli("check", "--in", path, "--mode", "heuristic", "--seed", "5")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "yes"
    assert doc["method"] == "heuristic"
    assert doc["witness"]["kind"] == "cycle"
    assert doc["rotations"] >= 0


def test_check_heuristic_isolated_vertex(tmp_path, capsys):
    path = os.fspath(tmp_path / "iso.txt")
    dump_hypergraph(Hypergraph.from_edges(5, 3, [(0, 1, 2)]), path)
    rc = run_cli("check", "--in", path, "--mode", "heuristic")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "no"
    assert "is isolated" in doc["note"]


def test_check_heuristic_tiny_n_output_is_pinned(tmp_path, capsys):
    path = os.fspath(tmp_path / "n2.txt")
    with open(path, "w") as f:
        f.write("2 2 1\n0 1\n")
    rc = run_cli("check", "--in", path, "--mode", "heuristic")
    assert rc == 0
    assert capsys.readouterr().out == (
        '{"answer":"no","method":"heuristic","note":"n = 2 < 3",'
        '"rotations":0,"witness":null}\n'
    )


def test_check_heuristic_forced_edges_certify_no(tmp_path, capsys):
    path = os.fspath(tmp_path / "chain.txt")
    dump_hypergraph(Hypergraph.from_edges(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)]), path)
    rc = run_cli("check", "--in", path, "--mode", "heuristic")
    assert rc == 0
    out = capsys.readouterr().out
    assert '"answer":"no"' in out
    doc = json.loads(out)
    assert doc["note"] == "vertex 2 lies on 3 forced shadow edges (a spanning cycle uses 2)"
    assert doc["rotations"] == 0


def test_check_heuristic_big_instance_is_answerable(big_file, capsys):
    # the heuristic path has no size cap, unlike exact mode
    rc = run_cli("check", "--in", big_file, "--mode", "heuristic", "--seed", "1")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] in ("yes", "no", "unknown")


def test_check_missing_file(tmp_path, capsys):
    rc = run_cli("check", "--in", os.fspath(tmp_path / "absent.txt"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_check_malformed_file(tmp_path, capsys):
    path = os.fspath(tmp_path / "junk.txt")
    with open(path, "w") as f:
        f.write("not a hypergraph\n")
    rc = run_cli("check", "--in", path)
    assert rc == 1
    capsys.readouterr()


@pytest.fixture
def not_utf8(tmp_path):
    path = os.fspath(tmp_path / "bad.txt")
    with open(path, "wb") as f:
        f.write(b"\xff\xfe")
    return path


def _assert_not_utf8_error(rc, capsys, path):
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text")


def test_check_non_utf8_file_is_input_error(not_utf8, capsys):
    _assert_not_utf8_error(run_cli("check", "--in", not_utf8), capsys, not_utf8)


# ------------------------------------------------------------------------ exp


def test_exp_threshold_with_negative_c_grid(tmp_path, capsys):
    out = os.fspath(tmp_path / "t.csv")
    rc = run_cli("exp", "threshold", "--n", "12", "--trials", "5",
                 "--c-grid=-1,0,1", "--seed", "2", "--out", out)
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out}: 3 rows\n"
    tab = load_table(out)
    assert tab.kind == "threshold"
    assert [float(x) for x in tab.column("c")] == [-1.0, 0.0, 1.0]


def test_exp_config_file_with_flag_override(tmp_path):
    cfgfile = os.fspath(tmp_path / "exp.cfg")
    with open(cfgfile, "w") as f:
        f.write("# tiny run\nn = 12\ntrials = 4\nc_grid = 0\nseed = 5\n")
    out1 = os.fspath(tmp_path / "a.csv")
    out2 = os.fspath(tmp_path / "b.csv")
    assert run_cli("exp", "threshold", "--config", cfgfile, "--out", out1) == 0
    assert run_cli("exp", "threshold", "--config", cfgfile, "--trials", "4",
                   "--out", out2) == 0
    assert open(out1).read() == open(out2).read()
    assert load_table(out1).column("trials") == ["4"]


def test_exp_out_in_config_file_picks_the_table_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("exp.cfg", "w") as f:
        f.write("n = 6\ntrials = 2\nseed = 1\nout = from_config.csv\n")
    assert run_cli("exp", "process", "--config", "exp.cfg") == 0
    assert load_table("from_config.csv").kind == "process"
    assert run_cli("exp", "process", "--config", "exp.cfg", "--out", "flag.csv") == 0
    assert open("flag.csv").read() == open("from_config.csv").read()
    assert not os.path.exists("process.csv")


def test_exp_out_defaults_into_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run_cli("exp", "process", "--n", "6", "--trials", "2", "--seed", "1")
    assert rc == 0
    assert capsys.readouterr().out == "wrote process.csv: 2 rows\n"
    assert load_table("process.csv").kind == "process"


def test_exp_pab_grid(tmp_path):
    out = os.fspath(tmp_path / "p.csv")
    rc = run_cli("exp", "pab", "--a-grid", "4", "--b-grid", "1,2",
                 "--p-grid", "0.001", "--trials", "100", "--seed", "3",
                 "--out", out)
    assert rc == 0
    tab = load_table(out)
    assert tab.kind == "pab"
    assert len(tab.rows) == 2


def test_exp_rejects_bad_config(tmp_path, capsys):
    out = os.fspath(tmp_path / "x.csv")
    assert run_cli("exp", "threshold", "--out", out) == 1  # no n / c_grid
    assert run_cli("exp", "wibble", "--out", out) == 1
    cfgfile = os.fspath(tmp_path / "bad.cfg")
    with open(cfgfile, "w") as f:
        f.write("nonsense line\n")
    assert run_cli("exp", "threshold", "--config", cfgfile, "--out", out) == 1
    capsys.readouterr()


def test_exp_has_one_flag_per_config_field(capsys):
    with pytest.raises(SystemExit):
        run_cli("exp", "--help")
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    keys = [f"--{f.name.replace('_', '-')}" for f in fields(ExperimentConfig)[1:]]
    assert flags == ["--config", *keys, "--out"]


def test_exp_process_bounds_exit_before_writing(tmp_path, capsys):
    out = os.fspath(tmp_path / "p.csv")
    assert run_cli("exp", "process", "--n", "2", "--d", "2", "--out", out) == 1
    assert capsys.readouterr().err == "error: process needs n >= 3 for cycles, got 2\n"
    assert run_cli("exp", "process", "--n", "61", "--out", out) == 2
    assert capsys.readouterr().err == (
        "capability error: process experiment handles n <= 60, got n = 61\n"
    )
    assert not os.path.exists(out)


def test_exp_pab_beyond_the_probe_limit_is_exit_2(tmp_path, capsys, monkeypatch):
    # a = 4, b = 3, d = 3 has 30 mixed candidates
    monkeypatch.setattr(expansion, "_PROBE_ENUM_LIMIT", 29)
    out = os.fspath(tmp_path / "p.csv")
    rc = run_cli("exp", "pab", "--a-grid", "4", "--b-grid", "3", "--p-grid", "0.5",
                 "--trials", "2", "--out", out)
    assert rc == 2
    assert "exceeds the in-memory enumeration limit 29" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_exp_pab_grid_beyond_the_probe_limit_runs_no_cell(tmp_path, capsys, monkeypatch):
    def run_nothing(*args):
        raise AssertionError("a pab cell ran before the grid was refused")

    monkeypatch.setattr(harness, "_map_tasks", run_nothing)
    out = os.fspath(tmp_path / "p.csv")
    rc = run_cli("exp", "pab", "--a-grid", "300", "--trials", "1", "--p-grid", "0.001",
                 "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        "capability error: greedy probe over 80820000 mixed 3-sets of a=300, b=600 "
        "exceeds the in-memory enumeration limit 2000000\n"
    )
    assert not os.path.exists(out)


def test_exp_flags_are_parsed_by_make_config(tmp_path, capsys):
    out = os.fspath(tmp_path / "x.csv")
    rc = run_cli("exp", "threshold", "--n", "x", "--c-grid=0", "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == "error: config key n: expected integer, got 'x'\n"
    assert not os.path.exists(out)


def test_exp_non_utf8_config_is_input_error(tmp_path, not_utf8, capsys):
    rc = run_cli("exp", "threshold", "--config", not_utf8,
                 "--out", os.fspath(tmp_path / "x.csv"))
    _assert_not_utf8_error(rc, capsys, not_utf8)


def test_exp_worker_error_keeps_its_exit_code(tmp_path, capsys):
    # c = 30000 clamps p to 1, and drawing all C(231, 3) d-sets raises
    # CapabilityError inside a fork-pool worker
    out = os.fspath(tmp_path / "t.csv")
    with pytest.warns(UserWarning, match="clamped to 1"):
        rc = run_cli("exp", "threshold", "--n", "231", "--d", "3", "--c-grid=30000",
                     "--trials", "2", "--workers", "2", "--out", out)
    assert rc == 2
    assert "enumeration limit" in capsys.readouterr().err
    assert not os.path.exists(out)


# ----------------------------------------------------------------------- plot


def test_plot_command(tmp_path, capsys):
    csv_in = os.path.join(os.path.dirname(__file__), "data", "threshold_gold.csv")
    out = os.fspath(tmp_path / "plot.svg")
    rc = run_cli("plot", "--in", csv_in, "--out", out)
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    with open(out) as f:
        assert f.read().startswith("<svg ")


def test_plot_wrong_schema(tmp_path, capsys):
    out = os.fspath(tmp_path / "p.csv")
    assert run_cli("exp", "process", "--n", "6", "--trials", "2",
                   "--seed", "1", "--out", out) == 0
    rc = run_cli("plot", "--in", out, "--out", os.fspath(tmp_path / "p.svg"))
    assert rc == 1
    assert "expects a threshold or gnm table" in capsys.readouterr().err


def test_plot_missing_input(tmp_path, capsys):
    rc = run_cli("plot", "--in", os.fspath(tmp_path / "absent.csv"),
                 "--out", os.fspath(tmp_path / "x.svg"))
    assert rc == 1
    capsys.readouterr()


def test_plot_non_utf8_input_is_input_error(tmp_path, not_utf8, capsys):
    rc = run_cli("plot", "--in", not_utf8, "--out", os.fspath(tmp_path / "x.svg"))
    _assert_not_utf8_error(rc, capsys, not_utf8)
    assert not os.path.exists(tmp_path / "x.svg")


# ------------------------------------------------------------------ module run


def test_module_entry_point(tmp_path):
    out = os.fspath(tmp_path / "h.txt")
    proc = subprocess.run(
        [sys.executable, "-m", "weakham", "gen", "--n", "10", "--d", "3",
         "--model", "gnp", "--c", "0", "--seed", "1", "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"wrote {out}")
    assert load_hypergraph(out).n == 10
