"""Experiment harness: Wilson intervals, config parsing and validation, the
canonical CSV table form, deterministic parallel execution, and the six
experiment kinds run through run_experiment on small inputs."""

from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

from weakham import expansion, harness, hypercore, oracle
from weakham import (
    CapabilityError,
    ExperimentConfig,
    Hypergraph,
    InputError,
    SeededRng,
    decide_weak_hamiltonian,
    edge_process,
    estimate_mindeg_probability,
    exact_weak_hamiltonian,
    limiting_probability,
    load_table,
    m_from_c,
    make_config,
    p_from_c,
    parse_config_text,
    read_table,
    run_experiment,
    wilson_interval,
)
from weakham.randmodels import _process_order

Z95 = 1.959963984540054


# ------------------------------------------------------------------ intervals


def test_wilson_interval_frozen_values():
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.49016247153664183, rel=1e-12)
    assert hi == pytest.approx(0.9433178485456247, rel=1e-12)


def test_wilson_interval_extremes():
    lo0, hi0 = wilson_interval(0, 10)
    assert lo0 == 0.0
    assert 0.2 < hi0 < 0.35
    lo1, hi1 = wilson_interval(10, 10)
    assert 0.65 < lo1 < 0.8
    assert hi1 <= 1.0


def test_wilson_interval_contains_point_estimate():
    for s, t in ((1, 7), (3, 9), (50, 100), (999, 1000)):
        lo, hi = wilson_interval(s, t)
        assert 0.0 <= lo <= s / t <= hi <= 1.0


def test_wilson_interval_narrows_with_trials():
    w100 = wilson_interval(50, 100)
    w1000 = wilson_interval(500, 1000)
    assert w1000[1] - w1000[0] < w100[1] - w100[0]


def test_wilson_interval_custom_z():
    lo95, hi95 = wilson_interval(5, 10)
    lo99, hi99 = wilson_interval(5, 10, z=2.5758293035489004)
    assert lo99 < lo95 and hi99 > hi95


# -------------------------------------------------------------------- configs


def test_parse_config_text():
    text = "# comment\n\nn = 100\ntrials=7\nc_grid = -1,0,1\n"
    assert parse_config_text(text) == {
        "n": "100",
        "trials": "7",
        "c_grid": "-1,0,1",
    }


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(InputError, match="config line 1.*key = value"):
        parse_config_text("just words\n")
    with pytest.raises(InputError, match="empty key"):
        parse_config_text("= 3\n")


def test_make_config_parses_types():
    cfg = make_config(
        "threshold",
        {"n": "20", "trials": "9", "c_grid": "-1,0,1", "seed": "4",
         "workers": "2"},
    )
    assert cfg.experiment == "threshold"
    assert cfg.n == 20
    assert cfg.trials == 9
    assert cfg.c_grid == (-1.0, 0.0, 1.0)
    assert cfg.seed == 4
    assert cfg.workers == 2
    # every field, set away from its default, comes back from its string form
    every = ExperimentConfig(
        "pab", n=7, d=4, c_grid=(-1.5, 2.0), trials=3, seed=8, workers=2, budget=9,
        oracle_cutoff=12, samples=5, a_grid=(5, 9), b_grid=(2, 3), p_grid=(0.25, 0.5),
    )
    keys = fields(ExperimentConfig)[1:]
    assert all(getattr(every, f.name) != f.default for f in keys)
    options = {f.name: getattr(every, f.name) for f in keys}
    options = {k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
               for k, v in options.items()}
    assert make_config("pab", options) == every


def test_make_config_budget_zero_means_default():
    base = {"n": "10", "c_grid": "0"}
    cfg = make_config("threshold", dict(base, budget="0"))
    assert cfg.budget is None
    cfg = make_config("threshold", dict(base, budget="50"))
    assert cfg.budget == 50


def test_make_config_rejections():
    with pytest.raises(InputError, match="unknown config key 'c-grid'"):
        make_config("threshold", {"c-grid": "0"})
    with pytest.raises(InputError, match="expected integer"):
        make_config("threshold", {"n": "ten"})
    with pytest.raises(InputError, match="unknown experiment"):
        make_config("sprinkle", {})
    with pytest.raises(InputError, match="says experiment='gnm'"):
        make_config("threshold", {"experiment": "gnm"})
    with pytest.raises(InputError, match="samples must be >= 0"):
        make_config("expansion", {"n": "20", "c_grid": "0", "samples": "-5"})
    with pytest.raises(InputError, match="oracle_cutoff must be >= 0, got -3"):
        make_config("threshold", {"n": "30", "c_grid": "1", "oracle_cutoff": "-3"})
    # make_config reads budget <= 0 as the default; the config itself refuses it
    for budget in (0, -5):
        with pytest.raises(InputError, match=f"budget must be >= 1 .*got {budget}"):
            ExperimentConfig("threshold", n=30, c_grid=(1.0,), budget=budget)


def test_process_config_bounds():
    # n >= 3 is checked with the config, not when the table runs
    with pytest.raises(InputError, match="process needs n >= 3 for cycles, got 2"):
        make_config("process", {"n": "2", "d": "2"})
    assert harness.PROCESS_HEURISTIC_MAX_N == 60
    assert make_config("process", {"n": "60"}).n == 60
    with pytest.raises(CapabilityError, match="handles n <= 60, got n = 61"):
        make_config("process", {"n": "61"})


def test_pab_config_refuses_a_grid_beyond_the_probe_limit(monkeypatch):
    # b = 1..600 for a = 300: the grid is refused at its largest b, before
    # any cell runs, not at b = 40 after the 39 cells below it
    with pytest.raises(CapabilityError, match="mixed 3-sets of a=300, b=600 exceeds"):
        make_config("pab", {"a_grid": "300", "trials": "1", "p_grid": "0.001"})
    # a = 4, b = 3, d = 3 has 30 mixed candidates, b = 1 has 6
    monkeypatch.setattr(expansion, "_PROBE_ENUM_LIMIT", 29)
    with pytest.raises(CapabilityError, match="30 mixed 3-sets of a=4, b=3 exceeds"):
        make_config("pab", {"a_grid": "4", "b_grid": "1,3", "p_grid": "0.5"})
    assert make_config("pab", {"a_grid": "4", "b_grid": "1,2", "p_grid": "0.5"}).b_grid == (1, 2)


# --------------------------------------------------------------------- tables


def _tiny_threshold():
    cfg = make_config(
        "threshold", {"n": "12", "trials": "6", "c_grid": "0", "seed": "3"}
    )
    return run_experiment(cfg)


def test_table_csv_magic_and_shape():
    tab = _tiny_threshold()
    text = tab.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "# weak-ham-lab v1 threshold"
    assert lines[1].startswith("c,n,d,p,trials,")
    assert len(lines) == 2 + len(tab.rows)
    assert text.endswith("\n")
    assert "\r" not in text


def test_table_reemission_is_byte_identical():
    tab = _tiny_threshold()
    text = tab.to_csv_text()
    assert read_table(text).to_csv_text() == text


def test_table_save_and_load(tmp_path):
    tab = _tiny_threshold()
    path = os.fspath(tmp_path / "out.csv")
    tab.save(path)
    raw = open(path, "rb").read()
    assert raw.startswith(b"# weak-ham-lab v1 threshold\n")
    assert b"\r" not in raw
    assert load_table(path).to_csv_text() == tab.to_csv_text()


def test_table_column_lookup():
    tab = _tiny_threshold()
    assert [float(x) for x in tab.column("c")] == [0.0]
    with pytest.raises(InputError, match="no column"):
        tab.column("nope")


def test_read_table_rejects_foreign_csv():
    with pytest.raises(InputError, match="missing '# weak-ham-lab v1"):
        read_table("a,b\n1,2\n")
    with pytest.raises(InputError, match="unrecognized CSV schema kind"):
        read_table("# weak-ham-lab v1 wibble\na,b\n")
    with pytest.raises(InputError, match="row width"):
        read_table("# weak-ham-lab v1 threshold\na,b\n1,2,3\n")


# ------------------------------------------------------------------ execution


def test_rerun_is_byte_identical():
    a = _tiny_threshold().to_csv_text()
    b = _tiny_threshold().to_csv_text()
    assert a == b


def test_workers_do_not_change_output():
    base = {"n": "14", "trials": "20", "c_grid": "-1,0,1", "seed": "9"}
    one = run_experiment(make_config("threshold", dict(base, workers="1")))
    two = run_experiment(make_config("threshold", dict(base, workers="2")))
    assert one.to_csv_text() == two.to_csv_text()


def test_workers_do_not_change_expansion_output():
    # at n = 60 every trial has more than 22 non-isolated vertices, so each
    # runs the sampled checks, whose draws are replayed chunk by chunk
    base = {"n": "60", "trials": "6", "c_grid": "-1,0,1", "samples": "600", "seed": "4"}
    one = run_experiment(make_config("expansion", dict(base, workers="1")))
    two = run_experiment(make_config("expansion", dict(base, workers="2")))
    assert one.to_csv_text() == two.to_csv_text()
    exhaustive = one.columns.index("u_exhaustive")
    assert not any(row[exhaustive] for row in one.rows)


def test_expansion_trial_packs_the_shadow_once(monkeypatch):
    # components and both sampled checks read the words of one hypergraph
    packed = []
    pack = hypercore._bit_words
    monkeypatch.setattr(hypercore, "_bit_words", lambda *a: packed.append(a[3]) or pack(*a))
    cfg = make_config("expansion", {"n": "200", "trials": "2", "c_grid": "0", "samples": "200"})
    p = p_from_c(200, 3, 0)
    for t in range(2):
        row = harness._expansion_trial((cfg, 0, p, t, t))
        assert not row[6]  # the sampled checks ran
    assert packed == [201, 201]


def _napping_square(x):
    time.sleep(0.3)
    return x * x


def test_pool_forks_at_most_one_process_per_item():
    # a side thread polls the live children while 2 items map on 4 workers
    peak = []
    done = threading.Event()

    def watch():
        while not done.is_set():
            peak.append(len(multiprocessing.active_children()))
            time.sleep(0.01)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        assert harness._map_tasks(_napping_square, [2, 3], 4) == [4, 9]
    finally:
        done.set()
        watcher.join()
    assert 0 < max(peak) <= 2


def test_estimate_mindeg_probability_deterministic_across_workers():
    a = estimate_mindeg_probability(60, 3, 0.0, trials=200, seed=11, workers=1)
    b = estimate_mindeg_probability(60, 3, 0.0, trials=200, seed=11, workers=2)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_estimate_mindeg_probability_is_the_poisson_zero_share():
    phat = estimate_mindeg_probability(80, 3, 0.5, trials=150, seed=4)
    tab = run_experiment(make_config(
        "poisson", {"n": "80", "d": "3", "c_grid": "0.5", "trials": "150", "seed": "4"}
    ))
    assert tab.column("k")[0] == "0"
    assert phat == float(tab.column("phat")[0])


@pytest.mark.parametrize("workers", [0, -5])
def test_estimate_mindeg_probability_rejects_bad_workers(workers):
    with pytest.raises(InputError, match=f"workers must be >= 1, got {workers}"):
        estimate_mindeg_probability(60, 3, 0.0, trials=10, seed=1, workers=workers)


@pytest.mark.parametrize(
    "kind, opts, items",
    [
        ("threshold", {"n": "12", "c_grid": "-1,0,1"}, 12),
        ("gnm", {"n": "12", "c_grid": "-1,0,1"}, 12),
        ("poisson", {"n": "30", "c_grid": "-1,0,1"}, 12),
        ("expansion", {"n": "14", "c_grid": "-1,0,1", "samples": "20"}, 12),
        ("process", {"n": "6"}, 4),
        ("pab", {"a_grid": "3", "p_grid": "0.1"}, 6),  # b = 1..6, one cell each
    ],
)
def test_each_table_is_one_map(kind, opts, items, monkeypatch):
    calls = []
    real = harness._map_tasks

    def counting(fn, tasks, workers):
        tasks = list(tasks)
        calls.append(len(tasks))
        return real(fn, tasks, workers)

    monkeypatch.setattr(harness, "_map_tasks", counting)
    tab = run_experiment(make_config(kind, dict(opts, trials="4", seed="2")))
    assert tab.kind == kind
    assert calls == [items]


# ------------------------------------------------------------- experiment runs


def _col(tab, name):
    return [float(x) for x in tab.column(name)]


def test_threshold_run_invariants():
    cfg = make_config(
        "threshold",
        {"n": "12", "trials": "15", "c_grid": "-1,0,8", "seed": "5"},
    )
    tab = run_experiment(cfg)
    assert tab.kind == "threshold"
    assert len(tab.rows) == 3
    for c, p, pm, ph, th, unk in zip(
        _col(tab, "c"), _col(tab, "p"), _col(tab, "phat_mindeg"),
        _col(tab, "phat_ham"), _col(tab, "theory"), _col(tab, "unknown_rate")
    ):
        assert p == p_from_c(12, 3, c)
        assert ph <= pm  # min degree 1 is necessary for a weak Hamilton cycle
        assert th == pytest.approx(limiting_probability(c), rel=1e-12)
        assert unk == 0.0  # n=12 is within exact-oracle range
    # denser graphs succeed far more often than sparse ones
    ham = _col(tab, "phat_ham")
    assert ham[2] >= 0.8
    assert ham[2] >= ham[0]


def test_gnm_run_matches_m_formula():
    cfg = make_config(
        "gnm", {"n": "12", "trials": "6", "c_grid": "0,1", "seed": "3"}
    )
    tab = run_experiment(cfg)
    assert tab.kind == "gnm"
    assert [int(x) for x in tab.column("m")] == [
        m_from_c(12, 3, 0.0), m_from_c(12, 3, 1.0)
    ]
    for pm, ph in zip(_col(tab, "phat_mindeg"), _col(tab, "phat_ham")):
        assert ph <= pm


def test_poisson_run_distribution_shape():
    cfg = make_config(
        "poisson", {"n": "30", "trials": "40", "c_grid": "0", "seed": "3"}
    )
    tab = run_experiment(cfg)
    assert tab.kind == "poisson"
    ks = [int(x) for x in tab.column("k")]
    assert ks == sorted(ks)
    counts = [int(x) for x in tab.column("count")]
    assert sum(counts) == 40
    phats = _col(tab, "phat")
    assert all(
        ph == pytest.approx(cnt / 40, abs=1e-12)
        for ph, cnt in zip(phats, counts)
    )
    # per-c summary columns are constant across the k rows
    for name in ("tv", "mean_hat", "mean_theory", "mean_sigma"):
        assert len(set(tab.column(name))) == 1
    tv = _col(tab, "tv")[0]
    assert 0.0 <= tv <= 1.0
    mean_th = _col(tab, "mean_theory")[0]
    assert mean_th == pytest.approx(math.exp(0.0), rel=1e-12)


def test_poisson_pvalue_equals_scipy_stats_chi2_sf():
    from scipy.stats import chi2

    checked = 0
    for seed in ("1", "2"):
        cfg = make_config(
            "poisson", {"n": "100", "trials": "300", "c_grid": "-1,0,1,2", "seed": seed}
        )
        tab = run_experiment(cfg)
        for stat, dof, pvalue in zip(*(tab.column(name) for name in
                                       ("chisq_stat", "chisq_dof", "chisq_pvalue"))):
            if dof:  # an empty cell when too few bins expect 5 samples
                assert float(pvalue) == chi2.sf(float(stat), int(dof))
                checked += 1
    assert checked >= 8


def test_process_run_necessary_condition_never_violated():
    cfg = make_config("process", {"n": "8", "trials": "10", "seed": "3"})
    tab = run_experiment(cfg)
    assert tab.kind == "process"
    assert len(tab.rows) == 10
    taus = [int(x) for x in tab.column("tau")]
    tham = [int(x) for x in tab.column("t_ham")]
    gaps = [int(x) for x in tab.column("gap")]
    equal = [x == "1" for x in tab.column("equal")]
    for a, b, g, e in zip(taus, tham, gaps, equal):
        assert 1 <= a <= b  # cover time never exceeds the cycle hitting time
        assert g == b - a
        assert e == (a == b)


def _exact_process_times(n, d, seed, trial):
    """(tau, t_ham) of one process trial with the exact oracle on every
    prefix: trial t draws its edge order from stream t."""
    edges = edge_process(n, d, SeededRng(seed, trial))
    covered: set[int] = set()
    for tau, e in enumerate(edges, 1):
        covered.update(e)
        if len(covered) == n:
            break
    t_ham = next(
        i for i in range(1, len(edges) + 1)
        if exact_weak_hamiltonian(Hypergraph.from_edges(n, d, edges[:i])).yes
    )
    return tau, t_ham


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_process_matches_the_exact_oracle_on_every_prefix(n, d):
    for seed in (1, 2, 3):
        exact = [_exact_process_times(n, d, seed, t) for t in range(4)]
        # a budget of 1 rotation leaves many prefixes to the oracle
        for budget in ("0", "1"):
            opts = {"n": str(n), "d": str(d), "trials": "4", "seed": str(seed),
                    "budget": budget}
            tab = run_experiment(make_config("process", opts))
            times = [(int(a), int(b)) for a, b in zip(tab.column("tau"), tab.column("t_ham"))]
            assert times == exact
            # with no oracle only a search witness counts: tau is unchanged
            # and t_ham can only come later
            heur = run_experiment(make_config("process", dict(opts, oracle_cutoff="0")))
            assert heur.column("tau") == tab.column("tau")
            assert all(int(h) >= e for h, (_, e) in zip(heur.column("t_ham"), exact))


def test_process_n16_table_leaves_few_prefixes_to_the_dp_oracle(monkeypatch):
    # of 200 trials, 11 prefixes reach the dp oracle; reading the shadow
    # degrees alone, without pruning or the cut test, left 36
    calls = []
    real = oracle.exact_weak_hamiltonian

    def counting(H):
        calls.append(H.m)
        return real(H)

    monkeypatch.setattr(oracle, "exact_weak_hamiltonian", counting)
    run_experiment(make_config("process", {"n": "16", "trials": "200", "seed": "0"}))
    assert len(calls) == 11


@pytest.mark.parametrize("trial, idx, note", [
    (5, 35, "vertex 13 lies on 3 forced shadow edges once forced edges are pruned "
            "(a spanning cycle uses 2)"),
    (5, 36, "vertex 13 lies on 3 forced shadow edges once forced edges are pruned "
            "(a spanning cycle uses 2)"),
    (16, 31, "forced shadow edges close a cycle through 3 of 30 non-isolated vertices "
             "once forced edges are pruned"),
])
def test_n30_process_prefixes_the_search_gave_up_on_are_certified(trial, idx, note):
    # the three prefixes in [tau, t_ham) of a 40-trial n=30 process at seed 1
    # that five searches (300-500 rotations) left "unknown"
    rng = SeededRng(1, trial)
    allsets, order = _process_order(30, 3, rng)
    H = Hypergraph(30, 3, allsets[np.sort(order[:idx])])
    v = decide_weak_hamiltonian(H, rng=rng.shifted(harness._SEARCH_LANE + idx))
    assert (v.answer, v.method, v.note) == ("no", "search", note)
    assert v.search.rotations == 0


def test_n30_threshold_table_leaves_no_trial_unknown():
    # reading the shadow degrees alone left 4 of these 1000 trials
    # "unknown"; pruning and the cut test certify all 4, and no "yes" moves
    tab = run_experiment(make_config(
        "threshold", {"n": "30", "c_grid": "0", "trials": "1000", "seed": "3"}))
    counts = [tab.column(name) for name in ("ham_yes", "ham_no", "ham_unknown")]
    assert counts == [["230"], ["770"], ["0"]]


_YES_WITHOUT_WITNESS_RUN = """
import sys
from weakham import harness, make_config, run_experiment
from weakham.oracle import OracleVerdict
if not sys.flags.optimize:
    sys.exit("expected python -O")
harness.decide_weak_hamiltonian = lambda H, **kw: OracleVerdict("yes", None, "search")
cfg = make_config("threshold", {"n": "30", "c_grid": "-2", "trials": "20"})
print(run_experiment(cfg).column("ham_yes"))
"""


def test_table_checks_hold_under_python_O():
    # python -O strips assert statements; a "yes" on a graph with an
    # isolated vertex must still stop the table rather than count 20 yes
    proc = subprocess.run([sys.executable, "-O", "-c", _YES_WITHOUT_WITNESS_RUN],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0, proc.stdout
    assert ("AssertionError: a weak Hamilton cycle reported on a graph with an "
            "isolated vertex") in proc.stderr, proc.stderr


def test_process_tiny_universe_is_degenerate():
    # n = 3, d = 3: the single possible edge makes the process hit both
    # targets simultaneously at the first step
    cfg = make_config("process", {"n": "3", "trials": "4", "seed": "1"})
    tab = run_experiment(cfg)
    for row_tau, row_t in zip(tab.column("tau"), tab.column("t_ham")):
        assert int(row_tau) == int(row_t) == 1


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "kind, name, opts",
    [
        # the sparse G(n,p) sampler and the rotation engine, unmasked
        ("threshold", "threshold_n200_gold.csv",
         {"n": "200", "d": "3", "c_grid": "-1,0,1,2", "trials": "64"}),
        ("gnm", "gnm_n200_gold.csv",
         {"n": "200", "d": "3", "c_grid": "-1,0,1,2", "trials": "64"}),
        # the edge process decided exactly on every prefix from tau on
        ("process", "process_gold.csv", {"n": "16", "d": "3", "trials": "24"}),
        # the greedy probe on 32 cells, two a values
        ("pab", "pab_gold.csv",
         {"d": "3", "a_grid": "3,5", "p_grid": "0.02,0.1", "trials": "2000"}),
    ],
)
def test_table_matches_gold_file(kind, name, opts):
    # written by `weakham exp <kind>` with these options and --seed 20261018
    cfg = make_config(kind, dict(opts, seed="20261018"))
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        assert run_experiment(cfg).to_csv_text() == fh.read()


def test_expansion_run_reports():
    cfg = make_config(
        "expansion",
        {"n": "14", "trials": "5", "c_grid": "0", "seed": "3", "samples": "50"},
    )
    tab = run_experiment(cfg)
    assert tab.kind == "expansion"
    assert len(tab.rows) == 5
    for r in tab.rows:
        row = dict(zip(tab.columns, r))
        assert row["u_exhaustive"] is True
        assert 1 <= int(row["u"]) <= int(row["v1_size"]) // 3 + 1
        assert row["nontrivial_components"] >= 1


def test_pab_run_zero_violations_on_tiny_grid():
    cfg = make_config(
        "pab",
        {"a_grid": "4", "b_grid": "1,2", "p_grid": "0.001", "trials": "200",
         "seed": "3"},
    )
    tab = run_experiment(cfg)
    assert tab.kind == "pab"
    assert len(tab.rows) == 2
    for r in tab.rows:
        row = dict(zip(tab.columns, r))
        assert row["violation_exact"] is False
        assert row["violation_simple"] is False
        assert row["phat"] <= row["bound_exact"] + 3 * max(row["stderr"], 1e-9)


def test_pab_run_derives_b_grid_when_empty():
    cfg = make_config(
        "pab", {"a_grid": "4", "p_grid": "0.001", "trials": "50", "seed": "1"}
    )
    tab = run_experiment(cfg)
    bs = sorted({int(x) for x in tab.column("b")})
    assert bs == list(range(1, 9))  # b ranges over 1..2a for a = 4
