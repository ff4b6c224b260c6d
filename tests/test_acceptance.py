"""End-to-end acceptance checks: structural soundness of the path machinery
on random inputs, agreement of independent deciders, and the statistical
behavior of the full experiment pipeline at committed seeds and tolerances.

Each check prints one `ACCEPTANCE NN <name>: PASS/FAIL` line so a run of
this file doubles as a sign-off report."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from weakham import (
    GnpParams,
    Hypergraph,
    SeededRng,
    estimate_mindeg_probability,
    exact_weak_hamiltonian,
    limiting_probability,
    make_config,
    p_from_c,
    run_experiment,
    sample_gnp,
    u_exact,
    validate,
)
from weakham.hypercore import neighbors

from proof_checks import (audit_rotations, booster_edges, booster_lower_bound,
                          direct_weak_hamiltonian, has_weak_cycle_of_length, posa_set,
                          stalled_path, weak_cycle_of_length)

SEED = 20260815  # committed acceptance seed; results below are pinned to it


def _report(capsys, num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {num:02d} {name} failed: {detail}"


def _gnp(n, d, p, seed):
    return sample_gnp(GnpParams(n, d, p), SeededRng(seed))


def _cols(tab, *names):
    return zip(*([float(x) for x in tab.column(n)] for n in names))


# --------------------------------------------------------------- shared scans


@pytest.fixture(scope="module")
def posa_scan():
    """One pass over 200 random hypergraphs (n <= 40, d in {3,4}): stalled
    paths, their closures, and an audit of every closure representative as
    a rotation of another."""
    rotation_faults = []
    closure_faults = []
    rotations = 0
    instances = 0
    s = 0
    while instances < 200:
        s += 1
        n = (10, 20, 30, 40)[s % 4]
        d = 3 if s % 2 else 4
        c = (-1.0, 0.0, 1.0)[s % 3]
        H = _gnp(n, d, p_from_c(n, d, c), SEED + s)
        if H.m == 0:
            continue
        instances += 1
        P = stalled_path(H, rng=SeededRng(SEED, s))
        ps = posa_set(H, P, P.vertices[0])
        rotations += len(ps.representatives) - 1  # one per non-base endpoint
        rotation_faults.extend((s, f) for f in audit_rotations(H, P, ps))
        S = frozenset(ps.endpoints)
        N = neighbors(H, S)
        if not ps.saturated:
            closure_faults.append((s, "stalled path closure not saturated"))
        if not ps.posa_inequality or not len(N) < 2 * len(S):
            closure_faults.append((s, "expansion inequality violated"))
        if not (N | S) <= set(P.vertices):
            closure_faults.append((s, "closure neighborhood leaves the path"))
    return {
        "instances": instances,
        "rotations": rotations,
        "rotation_faults": rotation_faults,
        "closure_faults": closure_faults,
    }


@pytest.fixture(scope="module")
def threshold_table():
    cfg = make_config(
        "threshold",
        {"n": "1000", "d": "3", "trials": "1000", "c_grid": "-1,0,1,2",
         "seed": str(SEED), "workers": "8"},
    )
    t0 = time.monotonic()
    tab = run_experiment(cfg)
    return tab, time.monotonic() - t0


@pytest.fixture(scope="module")
def gnm_table():
    cfg = make_config(
        "gnm",
        {"n": "1000", "d": "3", "trials": "1000", "c_grid": "-1,0,1,2",
         "seed": str(SEED), "workers": "8"},
    )
    return run_experiment(cfg)


# ------------------------------------------------------------------- criteria


def test_criterion_01_independent_deciders_agree(capsys):
    t0 = time.monotonic()
    p_grid = [0.05 * k for k in range(1, 11)]
    yes = no = 0
    for s in range(500):
        n = 4 + s % 7  # 4..10
        d = 3 if s % 2 else 4
        H = _gnp(n, d, p_grid[s % 10], SEED + 10_000 + s)
        a = exact_weak_hamiltonian(H)
        b = direct_weak_hamiltonian(H)
        if a.answer != b.answer:
            _report(capsys, 1, "independent-deciders-agree", False,
                    f"disagreement at instance {s}: dp={a.answer} "
                    f"direct={b.answer}")
        if a.answer == "yes":
            yes += 1
            assert validate(a.witness, H).ok
            assert validate(b.witness, H).ok
        else:
            no += 1
    dt = time.monotonic() - t0
    _report(capsys, 1, "independent-deciders-agree", dt < 120 and yes and no,
            f"500 instances, {yes} yes / {no} no, {dt:.1f}s")


def test_criterion_02_closures_are_saturated_and_small(capsys, posa_scan):
    faults = posa_scan["closure_faults"]
    _report(capsys, 2, "stalled-closures-saturated", not faults,
            f"{posa_scan['instances']} hypergraphs, "
            f"{len(faults)} violations" + (f"; first: {faults[0]}" if faults else ""))


def test_criterion_03_rotations_are_sound(capsys, posa_scan):
    faults = posa_scan["rotation_faults"]
    _report(capsys, 3, "rotations-sound", not faults,
            f"{posa_scan['rotations']} rotations checked, "
            f"{len(faults)} violations" + (f"; first: {faults[0]}" if faults else ""))


def test_criterion_04_boosters_close_longer_cycles(capsys):
    instances = 0
    s = 0
    while instances < 100:
        s += 1
        if s > 3000:
            _report(capsys, 4, "boosters-close-longer-cycles", False,
                    f"only {instances} usable instances in 3000 draws")
        n = 10 + s % 5  # 10..14
        c = -0.5 + 0.5 * (s % 3)
        H = _gnp(n, 3, p_from_c(n, 3, c), SEED + 20_000 + s)
        if H.m < 2:
            continue
        P = stalled_path(H, rng=SeededRng(SEED + 1, s))
        h = len(P.edges)
        if h < 2 or has_weak_cycle_of_length(H, h + 1):
            continue
        instances += 1
        out = booster_edges(H, P)
        bound = booster_lower_bound(n, 3, u_exact(H).u)
        if Fraction(len(out)) < bound:
            _report(capsys, 4, "boosters-close-longer-cycles", False,
                    f"instance {s}: {len(out)} boosters < bound {bound}")
        for e in sorted(out)[:20]:
            H2 = Hypergraph.from_edges(n, 3, list(H.edges) + [e])
            C = weak_cycle_of_length(H2, h + 1)
            if C is None or not validate(C, H2).ok:
                _report(capsys, 4, "boosters-close-longer-cycles", False,
                        f"instance {s}: booster {e} fails to close an "
                        f"{h + 1}-cycle")
    _report(capsys, 4, "boosters-close-longer-cycles", True,
            "100 stalled instances, every booster set large enough, "
            "20 sampled boosters each verified")


def test_criterion_05_threshold_tracks_min_degree(capsys, threshold_table):
    tab, dt = threshold_table
    worst_pair = worst_theory = worst_unknown = 0.0
    for c, pm, ph, th, unk in _cols(
        tab, "c", "phat_mindeg", "phat_ham", "theory", "unknown_rate"
    ):
        worst_pair = max(worst_pair, abs(ph - pm))
        worst_theory = max(worst_theory, abs(pm - th))
        worst_unknown = max(worst_unknown, unk)
    gaps = []
    for n in (250, 500, 1000):
        phat = estimate_mindeg_probability(
            n, 3, 0.0, trials=100_000, seed=SEED + 5, workers=8
        )
        gaps.append(abs(phat - limiting_probability(0.0)))
    ok = (
        worst_pair <= 0.05
        and worst_theory <= 0.10
        and worst_unknown <= 0.02
        and gaps[0] > gaps[1] > gaps[2]
        and dt < 1800
    )
    _report(capsys, 5, "threshold-tracks-min-degree", ok,
            f"max|ham-mindeg|={worst_pair:.4f}, max|mindeg-limit|="
            f"{worst_theory:.4f}, max unknown={worst_unknown:.4f}, "
            f"limit gaps {gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f}, "
            f"{dt:.0f}s")


def test_criterion_05_control_bound_fails_below_the_cycle_threshold():
    # negative control: at d = 2 the window of the isolated-vertex threshold
    # lies below the Hamilton-cycle threshold, so the |ham - mindeg| bound of
    # criterion 05 must fail there; a bound that held here would show nothing
    cfg = make_config(
        "threshold",
        {"n": "300", "d": "2", "c_grid": "-1,0,1,2", "trials": "100", "seed": "7"},
    )
    rows = {c: (ph, pm, unk) for c, ph, pm, unk in _cols(
        run_experiment(cfg), "c", "phat_ham", "phat_mindeg", "unknown_rate")}
    ph, pm, unk = rows[0.0]
    assert unk == 0.0
    assert ph - pm < -0.2


def test_criterion_06_gnm_matches_gnp(capsys, threshold_table, gnm_table):
    gnp_tab, _ = threshold_table
    worst = 0.0
    for (c1, ph_gnp), (c2, ph_gnm) in zip(
        _cols(gnp_tab, "c", "phat_ham"), _cols(gnm_table, "c", "phat_ham")
    ):
        assert c1 == c2
        worst = max(worst, abs(ph_gnm - ph_gnp))
    _report(capsys, 6, "edge-count-model-matches", worst <= 0.06,
            f"max|phat_gnm-phat_gnp|={worst:.4f} over c in (-1,0,1,2)")


def test_criterion_07_isolated_counts_are_poisson(capsys):
    cfg = make_config(
        "poisson",
        {"n": "2000", "d": "3", "trials": "5000", "c_grid": "0",
         "seed": str(SEED), "workers": "8"},
    )
    tab = run_experiment(cfg)
    tv = float(tab.column("tv")[0])
    mean_hat = float(tab.column("mean_hat")[0])
    mean_sigma = float(tab.column("mean_sigma")[0])
    mean_err = abs(mean_hat - 1.0)
    ok = tv <= 0.05 and mean_err <= 3 * mean_sigma
    _report(capsys, 7, "isolated-counts-poisson", ok,
            f"TV={tv:.4f}, |mean-1|={mean_err:.4f} vs 3sigma="
            f"{3 * mean_sigma:.4f}")


def test_criterion_08_greedy_probe_respects_bounds(capsys):
    cfg = make_config("pab", {"trials": "10000", "seed": str(SEED)})
    tab = run_experiment(cfg)
    bad = []
    for r in tab.rows:
        row = dict(zip(tab.columns, r))
        if row["violation_exact"] or (row["hypothesis_ok"] and row["violation_simple"]):
            bad.append((row["a"], row["b"], row["p"]))
    _report(capsys, 8, "greedy-probe-within-bounds", not bad,
            f"{len(tab.rows)} grid points x 10000 trials, "
            f"{len(bad)} violations" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_09_cover_time_precedes_cycle_time(capsys):
    cfg = make_config(
        "process", {"n": "16", "trials": "500", "seed": str(SEED)}
    )
    tab = run_experiment(cfg)
    taus = [int(x) for x in tab.column("tau")]
    thams = [int(x) for x in tab.column("t_ham")]
    bad = sum(1 for a, b in zip(taus, thams) if a > b)
    gaps = [b - a for a, b in zip(taus, thams)]
    equal = sum(1 for g in gaps if g == 0)
    _report(capsys, 9, "cover-time-precedes-cycle-time", bad == 0,
            f"500 runs, {bad} orderings violated; gap mean "
            f"{sum(gaps) / len(gaps):.2f}, max {max(gaps)}, equal {equal}")


def test_criterion_10_one_nontrivial_component(capsys):
    cfg = make_config(
        "expansion",
        {"n": "200", "d": "3", "trials": "200", "c_grid": "0",
         "seed": str(SEED), "samples": "2000", "workers": "8"},
    )
    tab = run_experiment(cfg)
    single = [x == "1" for x in tab.column("single_nontrivial")]
    frac = sum(single) / len(single)
    _report(capsys, 10, "single-nontrivial-component", frac >= 0.9,
            f"{sum(single)}/{len(single)} trials has exactly one "
            f"non-trivial component (frac {frac:.3f})")


def test_criterion_11_reruns_are_byte_identical(capsys):
    small = {
        "threshold": {"n": "40", "trials": "30", "c_grid": "-1,0,1",
                      "seed": str(SEED)},
        "gnm": {"n": "40", "trials": "30", "c_grid": "0,1", "seed": str(SEED)},
        "poisson": {"n": "100", "trials": "200", "c_grid": "0",
                    "seed": str(SEED)},
        "process": {"n": "10", "trials": "40", "seed": str(SEED)},
        "expansion": {"n": "30", "trials": "20", "c_grid": "0",
                      "seed": str(SEED), "samples": "200"},
        "pab": {"a_grid": "4", "b_grid": "1,2,3", "p_grid": "0.001,0.002",
                "trials": "500", "seed": str(SEED)},
    }
    bad = []
    for kind, opts in small.items():
        first = run_experiment(make_config(kind, dict(opts))).to_csv_text()
        again = run_experiment(make_config(kind, dict(opts))).to_csv_text()
        wide = run_experiment(
            make_config(kind, dict(opts, workers="8"))
        ).to_csv_text()
        narrow = run_experiment(
            make_config(kind, dict(opts, workers="1"))
        ).to_csv_text()
        if not (first == again == wide == narrow):
            bad.append(kind)
    _report(capsys, 11, "deterministic-reruns", not bad,
            f"6 experiment kinds, rerun and workers 1 vs 8"
            + (f"; mismatched: {bad}" if bad else " all byte-identical"))
