"""Outside-in traced rebuild of a workload's trials, and the per-layer metrics.

Each ``rebuild_<kind>`` repeats, trial by trial, what the matching runner in
``weakham.harness`` does, but through the public functions of each module
and with one span around every call. Before the search or the oracle runs,
the rebuild warms the Hypergraph's cached fields (degrees, shadow, adjacency
masks, cover index) in spans of their own, so that rotation_extension_search
and exact_weak_hamiltonian are timed on their own work.

Every rebuild returns the facts it observed; ``table_facts`` reads the same
facts from the untraced table. If the two differ, the rebuild no longer
matches the harness and its per-layer numbers are stale.
"""

from __future__ import annotations

import math
from collections import Counter

from weakham import (
    GnpParams,
    Hypergraph,
    SeededRng,
    components,
    edge_process,
    exact_weak_hamiltonian,
    is_connected_on,
    isolated_vertices,
    lift_cycle,
    lift_path,
    minimal_nonexpanding_connected,
    non_isolated_vertices,
    p_from_c,
    rotation_extension_search,
    sample_gnp,
    sampled_covered_vertices,
    u_exact,
    u_sampled_check,
    validate,
)
from weakham.expansion import U_EXACT_MAX_V1

from spans import Tracer, parallel_efficiency, ratio, self_time, timing_metrics

# a trial's search stream is its sampling stream shifted by 2**48 (the
# harness's private _SEARCH_LANE); a drift shows up as stale facts
SEARCH_LANE = 1 << 48

TIMED_LAYERS = (
    "randmodels.sample", "hypercore.validate", "hypercore.from_edges",
    "hypercore.degrees", "hypercore.shadow", "hypercore.adj_masks",
    "hypercore.connectivity", "hypercore.cover_index", "hypercore.components",
    "weakpaths.search", "weakpaths.lift", "weakpaths.validate",
    "oracle.decide", "expansion.check", "harness.csv",
)

def _warm(tr: Tracer, H: Hypergraph, cover: bool) -> None:
    shadow = tr.call("hypercore.shadow", lambda: H.shadow)
    tr.note(pairs=shadow.edge_count())
    tr.call("hypercore.adj_masks", lambda: shadow.adj_masks)
    if cover:
        tr.call("hypercore.cover_index", lambda: H.cover_index)


def _sample_gnp(tr: Tracer, cfg, p: float, rng: SeededRng) -> Hypergraph:
    H = tr.call("randmodels.sample", sample_gnp, GnpParams(cfg.n, cfg.d, p), rng)
    tr.note(edges=H.m)
    tr.call("hypercore.validate", Hypergraph, cfg.n, cfg.d, H.edges, probe=True)
    return H


def rebuild_threshold(tr: Tracer, cfg) -> list:
    """Mirror of harness._threshold_trial over a G(n,p) table; returns the
    (yes, no, unknown) counts per c."""
    facts = []
    for i, c in enumerate(sorted(cfg.c_grid)):
        p = p_from_c(cfg.n, cfg.d, c)
        verdicts = Counter()
        for t in range(cfg.trials):
            with tr.span("harness.trial", trial=True):
                rng = SeededRng(cfg.seed, i * cfg.trials + t)
                H = _sample_gnp(tr, cfg, p, rng)
                if tr.call("hypercore.degrees", isolated_vertices, H):
                    verdicts["no"] += 1
                    continue
                _warm(tr, H, cover=True)
                v1 = non_isolated_vertices(H)
                tr.call("hypercore.connectivity", is_connected_on, H, v1, probe=True)
                out = tr.call(
                    "weakpaths.search", rotation_extension_search, H,
                    budget=cfg.budget, rng=rng.shifted(SEARCH_LANE),
                )
                tr.note(rotations=out.rotations, complete=out.complete,
                        exhausted=out.exhausted)
                if out.complete:
                    tr.call("weakpaths.lift", lift_cycle, H, out.cycle.vertices, probe=True)
                    check = tr.call("weakpaths.validate", validate, out.cycle, H)
                    if not check.ok:
                        raise AssertionError(f"invalid witness: {check.violation}")
                    verdicts["yes"] += 1
                    continue
                if out.path is not None:
                    tr.call("weakpaths.lift", lift_path, H, out.path.vertices, probe=True)
                if out.impossible is not None:
                    verdicts["no"] += 1
                elif cfg.n <= cfg.oracle_cutoff:
                    verdict = tr.call("oracle.decide", exact_weak_hamiltonian, H, method="dp")
                    tr.note(yes=verdict.yes)
                    verdicts[verdict.answer] += 1
                else:
                    verdicts["unknown"] += 1
        facts.append((verdicts["yes"], verdicts["no"], verdicts["unknown"]))
    return facts


def rebuild_process(tr: Tracer, cfg) -> list:
    """Mirror of harness._process_trial with the exact oracle (n at or below
    the cutoff); returns (tau, t_ham) per trial."""
    if cfg.n > cfg.oracle_cutoff:
        raise ValueError("the process rebuild covers exact tables only")
    facts = []
    for t in range(cfg.trials):
        with tr.span("harness.trial", trial=True):
            edges = tr.call("randmodels.sample", edge_process, cfg.n, cfg.d, SeededRng(cfg.seed, t))
            tr.note(edges=len(edges))
            covered = set()
            for tau, e in enumerate(edges, start=1):
                covered.update(e)
                if len(covered) == cfg.n:
                    break
            for idx in range(tau, len(edges) + 1):
                H = tr.call("hypercore.from_edges", Hypergraph.from_edges, cfg.n, cfg.d, edges[:idx])
                tr.call("hypercore.degrees", isolated_vertices, H)
                # the oracle skips the shadow only on a disconnected prefix,
                # where building it here costs microseconds at this n
                _warm(tr, H, cover=False)
                verdict = tr.call("oracle.decide", exact_weak_hamiltonian, H, method="dp")
                tr.note(yes=verdict.yes)
                if verdict.yes:
                    facts.append((tau, idx))
                    break
    return facts


def _edge_count(params: GnpParams, rng: SeededRng) -> int:
    # sampled_covered_vertices draws its edge count first, from a fresh
    # generator of the same stream
    return int(rng.generator().binomial(math.comb(params.n, params.d), params.p))


def rebuild_poisson(tr: Tracer, cfg) -> list:
    """Mirror of harness._poisson_trial; returns the isolated-count
    histogram per c."""
    facts = []
    for i, c in enumerate(sorted(cfg.c_grid)):
        params = GnpParams(cfg.n, cfg.d, p_from_c(cfg.n, cfg.d, c))
        hist = Counter()
        for t in range(cfg.trials):
            with tr.span("harness.trial", trial=True):
                rng = SeededRng(cfg.seed, i * cfg.trials + t)
                covered = tr.call("randmodels.sample", sampled_covered_vertices, params, rng)
                k = tr.call("randmodels.edge_count", _edge_count, params, rng, probe=True)
                tr.note(edges=k)
                hist[int(covered.size) - int(covered.sum())] += 1
        facts.append(dict(hist))
    return facts


def rebuild_expansion(tr: Tracer, cfg) -> list:
    """Mirror of harness._expansion_trial; returns (u, samples_used) per trial."""
    facts = []
    for i, c in enumerate(sorted(cfg.c_grid)):
        p = p_from_c(cfg.n, cfg.d, c)
        for t in range(cfg.trials):
            with tr.span("harness.trial", trial=True):
                rng = SeededRng(cfg.seed, i * cfg.trials + t)
                H = _sample_gnp(tr, cfg, p, rng)
                v1 = tr.call("hypercore.degrees", non_isolated_vertices, H)
                tr.call("hypercore.components", components, H)
                _warm(tr, H, cover=False)
                if len(v1) <= U_EXACT_MAX_V1:
                    rep = u_exact(H)
                    if rep.witness is not None:
                        minimal_nonexpanding_connected(H, rep.witness)
                    facts.append((rep.u, 0))
                    continue
                used = 0
                for lane, target in ((1, math.floor(cfg.n**0.25) + 1),
                                     (2, math.ceil(cfg.n / 3**cfg.d))):
                    chk = tr.call("expansion.check", u_sampled_check, H, target,
                                  cfg.samples, rng=rng.shifted(lane * SEARCH_LANE))
                    tr.note(samples=chk.samples_used, hit=not chk.ok)
                    used += chk.samples_used
                facts.append((None, used))
    return facts


REBUILDS = {
    "threshold": rebuild_threshold,
    "process": rebuild_process,
    "poisson": rebuild_poisson,
    "expansion": rebuild_expansion,
}


def table_facts(table) -> list:
    """The facts a rebuild must reproduce, read from the untraced Table."""
    col = {name: i for i, name in enumerate(table.columns)}
    rows = table.rows
    if table.kind == "threshold":
        return [(r[col["ham_yes"]], r[col["ham_no"]], r[col["ham_unknown"]]) for r in rows]
    if table.kind == "process":
        return [(r[col["tau"]], r[col["t_ham"]]) for r in rows]
    if table.kind == "poisson":
        hists: dict = {}
        for r in rows:
            hist = hists.setdefault(r[col["c"]], {})
            if r[col["count"]]:
                hist[r[col["k"]]] = r[col["count"]]
        return list(hists.values())
    if table.kind == "expansion":
        return [(r[col["u"]], r[col["samples_used"]]) for r in rows]
    raise ValueError(f"no rebuild for {table.kind!r} tables")


def per_layer_metrics(spans, trials: int, untraced_serial_s: float,
                      untraced_wall_s: float, workers: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run of `trials` trials.

    untraced_serial_s: wall time of the same tables run untraced on one
    worker; untraced_wall_s: their wall time at the workload's worker count.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def secs(name):
        return [sp.seconds for sp in by_name.get(name, ())]

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in by_name.get(name, ()))

    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out.update(timing_metrics(f"{layer}_ms", secs(layer)))

    trial_spans = by_name.get("harness.trial", [])
    layer_s = sum(self_time(sp, children.get(sp.id, []))
                  for trial in trial_spans for sp in children.get(trial.id, [])
                  if not sp.probe)
    probe_s = sum(sp.seconds for sp in spans if sp.probe)
    traced_tables_s = sum(sp.seconds for sp in by_name.get("harness.table", ()))

    searches = by_name.get("weakpaths.search", [])
    rotations = attr_sum("weakpaths.search", "rotations")
    # engine time: the search minus the connectivity check, witness lift and
    # validation it runs internally, each timed on its own by a span
    engine_s = (sum(secs("weakpaths.search")) - sum(secs("hypercore.connectivity"))
                - sum(secs("weakpaths.lift")) - sum(secs("weakpaths.validate")))
    checks = by_name.get("expansion.check", [])
    samples = attr_sum("expansion.check", "samples")
    oracle = by_name.get("oracle.decide", [])

    out.update({
        "randmodels.edges": (attr_sum("randmodels.sample", "edges")
                             + attr_sum("randmodels.edge_count", "edges"), "count"),
        "hypercore.builds": (len(by_name.get("hypercore.from_edges", ())), "count"),
        "hypercore.shadow_pairs": (attr_sum("hypercore.shadow", "pairs"), "count"),
        "weakpaths.searches": (len(searches), "count"),
        "weakpaths.rotations": (rotations, "count"),
        "weakpaths.us_per_rotation": (ratio(engine_s * 1e6, rotations), "us"),
        "weakpaths.complete_ratio": (ratio(attr_sum("weakpaths.search", "complete"),
                                           len(searches)), "ratio"),
        "weakpaths.exhausted": (attr_sum("weakpaths.search", "exhausted"), "count"),
        "oracle.calls": (len(oracle), "count"),
        "oracle.yes_ratio": (ratio(attr_sum("oracle.decide", "yes"), len(oracle)), "ratio"),
        "expansion.checks": (len(checks), "count"),
        "expansion.samples_used": (samples, "count"),
        "expansion.us_per_sample": (ratio(sum(secs("expansion.check")) * 1e6, samples), "us"),
        "expansion.hit_ratio": (ratio(attr_sum("expansion.check", "hit"), len(checks)), "ratio"),
        "harness.self_s": (untraced_serial_s - layer_s, "s"),
        "harness.wall_trials_per_s": (ratio(trials, untraced_wall_s), "1/s"),
        "harness.parallel_efficiency": (
            parallel_efficiency(sum(sp.seconds for sp in trial_spans) - probe_s,
                                workers, untraced_wall_s),
            "ratio"),
        "trace.overhead": (ratio(traced_tables_s - probe_s, untraced_serial_s) - 1.0, "ratio"),
    })
    return out
