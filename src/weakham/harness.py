"""Reproducible Monte Carlo experiments over the random hypergraph models.

run_experiment(cfg) is the one way to run an experiment: it maps a fixed
config to a CSV table. The threshold scans (G(n,p) and G(n,m)) estimate
P(weak Hamiltonian) and P(min degree >= 1) against the limit law
exp(-exp(-c)), the isolated-count experiment compares against its Poisson
limit, the edge-process experiment measures the gap between losing the last
isolated vertex and becoming weakly Hamiltonian, the expansion experiment
surveys non-expanding sets, and the pab experiment stress-tests the greedy
covering bounds. Each table is one parallel map over its trials; every
trial reads what it needs from the config it is handed.

Determinism contract: every trial is keyed by (master seed, stream) and is
computed independently, workers merge results by trial order, and floats are
serialized with repr(), so a config + seed pair yields byte-identical CSV
regardless of worker count.

Verdict policy: threshold and process trials are decided by
oracle.decide_weak_hamiltonian at the config's oracle_cutoff. A "no" is
certified or decided by the exact oracle at or below its cutoff. The
certificates are: n < 3, an isolated vertex, disconnected V1, forced shadow
edges ruling out a spanning cycle (read off the shadow degrees, or once the
edges they exclude are pruned to a fixpoint), and, after a failed search, a
pruned shadow graph that is disconnected on V1 or has a cut vertex. Search
failures above the cutoff are "unknown", a separate column never folded
into the "no" count: the search ran out of rotation budget or restarts on
a graph with no such certificate. Point estimates use decided trials only;
unknown-rates are reported alongside.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Mapping, Sequence, get_type_hints

import numpy as np

from .errors import CapabilityError, InputError
from .expansion import (
    _probe_candidates,
    greedy_probe,
    minimal_nonexpanding_connected,
    pab_bound_exact,
    pab_bound_simple,
    u_exact,
    u_sampled_check,
    U_EXACT_MAX_V1,
)
from .hypercore import (Hypergraph, _read_text, components, isolated_vertices,
                        non_isolated_vertices)
from .oracle import DP_MAX_VERTICES, decide_weak_hamiltonian
from .randmodels import (
    GnmParams,
    GnpParams,
    SeededRng,
    _process_order,
    limiting_probability,
    m_from_c,
    p_from_c,
    sample_gnm,
    sample_gnp,
    sampled_covered_vertices,
)

__all__ = [
    "ExperimentConfig",
    "Table",
    "parse_config_text",
    "make_config",
    "wilson_interval",
    "run_experiment",
    "estimate_mindeg_probability",
    "read_table",
    "load_table",
]

Z95 = 1.959963984540054
CSV_MAGIC = "# weak-ham-lab v1"

# offset separating the sampling stream of a trial from the stream its
# heuristic search consumes; trial streams are dense integers, so the lane
# must dwarf any conceivable trial count
_SEARCH_LANE = 1 << 48
PROCESS_HEURISTIC_MAX_N = 60

_DEFAULT_P_GRID = (2.0**-10, 2.0**-9, 2.0**-8, 2.0**-7, 2.0**-6)


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of one experiment run. budget=None means the
    search default; b_grid=() means b in 1..2a per a."""

    experiment: str
    n: int = 0
    d: int = 3
    c_grid: tuple[float, ...] = ()
    trials: int = 100
    seed: int = 0
    workers: int = 1
    budget: int | None = None
    oracle_cutoff: int = DP_MAX_VERTICES
    samples: int = 2000
    a_grid: tuple[int, ...] = (4, 6, 8)
    b_grid: tuple[int, ...] = ()
    p_grid: tuple[float, ...] = _DEFAULT_P_GRID

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InputError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise InputError(f"workers must be >= 1, got {self.workers}")
        if self.samples < 0:
            raise InputError(f"samples must be >= 0, got {self.samples}")
        if self.d < 2:
            raise InputError(f"d must be >= 2, got {self.d}")
        if self.budget is not None and self.budget < 1:
            raise InputError(f"budget must be >= 1 (None for the default), got {self.budget}")
        if self.oracle_cutoff < 0:
            raise InputError(f"oracle_cutoff must be >= 0, got {self.oracle_cutoff}")
        if self.oracle_cutoff > DP_MAX_VERTICES:
            raise InputError(
                f"oracle_cutoff cannot exceed {DP_MAX_VERTICES}, got {self.oracle_cutoff}"
            )
        if self.experiment in ("threshold", "gnm", "poisson", "expansion"):
            if self.n < 1:
                raise InputError(f"{self.experiment} needs n >= 1, got {self.n}")
            if not self.c_grid:
                raise InputError(f"{self.experiment} needs a non-empty c_grid")
        if self.experiment == "process":
            if self.n < self.d:
                raise InputError(
                    f"process needs n >= d, got n={self.n}, d={self.d}"
                )
            if self.n < 3:
                raise InputError(f"process needs n >= 3 for cycles, got {self.n}")
            if self.n > PROCESS_HEURISTIC_MAX_N:
                raise CapabilityError(
                    f"process experiment handles n <= {PROCESS_HEURISTIC_MAX_N}, "
                    f"got n = {self.n}"
                )
        if self.experiment == "pab":
            if not self.a_grid or not self.p_grid:
                raise InputError("pab needs non-empty a_grid and p_grid")
            for a in self.a_grid:
                if a < 1:
                    raise InputError(f"a values must be >= 1, got {a}")
            for b in self.b_grid:
                if b < 1:
                    raise InputError(f"b values must be >= 1, got {b}")
            for p in self.p_grid:
                if not (0.0 <= p <= 1.0):
                    raise InputError(f"p values must lie in [0, 1], got {p}")
            # the largest b of each a has the most candidates; refuse the
            # grid before any cell runs
            for a in self.a_grid:
                _probe_candidates(a, max(self.b_grid, default=2 * a), self.d)


# --- config parsing -----------------------------------------------------------

# the config keys and their types, read off the fields of ExperimentConfig
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise InputError(f"config line {lineno}: empty key")
        out[key] = val.strip()
    return out


def _parse_scalar_list(val: str, convert: Callable) -> tuple:
    items = [x.strip() for x in val.split(",")]
    items = [x for x in items if x]
    if not items:
        raise InputError(f"empty list value {val!r}")
    try:
        return tuple(convert(x) for x in items)
    except ValueError as exc:
        raise InputError(f"bad list value {val!r}: {exc}") from exc


def make_config(experiment: str, options: Mapping[str, str]) -> ExperimentConfig:
    """Build a validated config from string options (config file and/or CLI
    flags), each parsed by the declared type of its ExperimentConfig field.
    budget <= 0 means 'use the search default'."""
    kwargs: dict = {"experiment": experiment}
    for key, val in options.items():
        if key == "experiment":
            if val != experiment:
                raise InputError(
                    f"config says experiment={val!r} but {experiment!r} was requested"
                )
            continue
        hint = _FIELD_TYPES.get(key)
        if hint in (tuple[float, ...], tuple[int, ...]):
            kwargs[key] = _parse_scalar_list(val, hint.__args__[0])
        elif hint in (int, int | None):
            try:
                parsed = int(val)
            except ValueError as exc:
                raise InputError(f"config key {key}: expected integer, got {val!r}") from exc
            kwargs[key] = parsed if hint is int or parsed > 0 else None
        else:
            raise InputError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


# --- CSV tables ---------------------------------------------------------------


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    s = str(x)
    if any(ch in s for ch in ",\n\r\""):
        raise InputError(f"cell value {s!r} would need quoting; schema forbids it")
    return s


@dataclass(frozen=True)
class Table:
    """One experiment's output: a versioned kind tag, fixed column order, and
    homogeneous rows. to_csv_text() is the canonical byte form."""

    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"{CSV_MAGIC} {self.kind}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InputError(
                    f"row width {len(row)} != column count {len(self.columns)}"
                )
            writer.writerow([_cell(x) for x in row])
        return buf.getvalue()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())

    def column(self, name: str) -> list[str]:
        try:
            idx = self.columns.index(name)
        except ValueError as exc:
            raise InputError(f"no column {name!r} in {self.kind} table") from exc
        return [_cell(row[idx]) for row in self.rows]


def read_table(text: str) -> Table:
    """Parse the canonical CSV form back into a Table of string cells."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(CSV_MAGIC + " "):
        raise InputError(f"unrecognized CSV schema: missing '{CSV_MAGIC} <kind>' line")
    kind = lines[0][len(CSV_MAGIC) + 1 :].strip()
    if kind not in EXPERIMENTS:
        raise InputError(f"unrecognized CSV schema kind {kind!r}")
    body = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not body:
        raise InputError("CSV has no header row")
    columns = tuple(body[0])
    rows = tuple(tuple(r) for r in body[1:])
    for r in rows:
        if len(r) != len(columns):
            raise InputError("CSV row width does not match header")
    return Table(kind=kind, columns=columns, rows=rows)


def load_table(path: str) -> Table:
    return read_table(_read_text(path))


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise InputError(f"bad counts: {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    ph = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# --- deterministic parallel map -------------------------------------------------


def _map_tasks(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(it) for it in items], in order, on a fork pool of at most one
    process per item."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    ctx = get_context("fork")
    chunk = max(1, len(items) // (workers * 8))
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=chunk)


def _grid_map(
    cfg: ExperimentConfig, trial: Callable, param: Callable = p_from_c
) -> list[tuple[float, float | int, list]]:
    """Every trial of a c-grid table in one map. The i-th c in ascending
    order gets x = param(n, d, c), computed here once (so a clamp warns once
    per c), and trials t = 0..trials-1 on streams i*trials + t; `trial`
    receives (cfg, c, x, t, stream). Returns (c, x, results) per c."""
    cells = [(c, param(cfg.n, cfg.d, c)) for c in sorted(cfg.c_grid)]
    items = [
        (cfg, c, x, t, i * cfg.trials + t)
        for i, (c, x) in enumerate(cells)
        for t in range(cfg.trials)
    ]
    results = _map_tasks(trial, items, cfg.workers)
    return [
        (c, x, results[i * cfg.trials:(i + 1) * cfg.trials])
        for i, (c, x) in enumerate(cells)
    ]


# --- threshold experiments ------------------------------------------------------


def _threshold_trial(args) -> tuple[bool, str]:
    """(min degree >= 1, verdict) of one sampled graph, the verdict "yes",
    "no" or "unknown" as decide_weak_hamiltonian answers it."""
    cfg, _, x, _, stream = args
    rng = SeededRng(cfg.seed, stream)
    if cfg.experiment == "threshold":
        H = sample_gnp(GnpParams(cfg.n, cfg.d, x), rng)
    else:
        H = sample_gnm(GnmParams(cfg.n, cfg.d, x), rng)
    mindeg_ok = not isolated_vertices(H)
    verdict = decide_weak_hamiltonian(
        H, budget=cfg.budget, rng=rng.shifted(_SEARCH_LANE), oracle_cutoff=cfg.oracle_cutoff
    )
    if verdict.yes and not mindeg_ok:
        raise AssertionError("a weak Hamilton cycle reported on a graph with an isolated vertex")
    return mindeg_ok, verdict.answer


_THRESHOLD_COLUMNS = (
    "c", "n", "d", "p", "trials",
    "mindeg_yes", "phat_mindeg", "lo_mindeg", "hi_mindeg",
    "ham_yes", "ham_no", "ham_unknown",
    "phat_ham", "lo_ham", "hi_ham",
    "theory", "unknown_rate",
)

_GNM_COLUMNS = _THRESHOLD_COLUMNS[:3] + ("m",) + _THRESHOLD_COLUMNS[4:]


def _threshold_table(cfg: ExperimentConfig) -> Table:
    """Per c: estimate P(weak Hamiltonian) and P(min degree >= 1) against
    exp(-exp(-c)), under G(n,p) at p = (d-1)!(ln n + c)/n^(d-1) for
    "threshold", or under G(n,m) at m = m_from_c for "gnm"."""
    gnp = cfg.experiment == "threshold"
    rows = []
    for c, x, results in _grid_map(cfg, _threshold_trial, p_from_c if gnp else m_from_c):
        mindeg_yes = sum(ok for ok, _ in results)
        answers = [answer for _, answer in results]
        yes, no, unknown = (answers.count(a) for a in ("yes", "no", "unknown"))
        if yes + no + unknown != cfg.trials:
            raise AssertionError(
                f"c={c}: {yes} yes, {no} no and {unknown} unknown of {cfg.trials} trials"
            )
        lo_m, hi_m = wilson_interval(mindeg_yes, cfg.trials)
        decided = yes + no
        if decided:
            phat_ham = yes / decided
            lo_h, hi_h = wilson_interval(yes, decided)
        else:
            phat_ham, lo_h, hi_h = None, None, None
        rows.append(
            (
                c, cfg.n, cfg.d, x, cfg.trials,
                mindeg_yes, mindeg_yes / cfg.trials, lo_m, hi_m,
                yes, no, unknown,
                phat_ham, lo_h, hi_h,
                limiting_probability(c), unknown / cfg.trials,
            )
        )
    return Table(cfg.experiment, _THRESHOLD_COLUMNS if gnp else _GNM_COLUMNS, tuple(rows))


def estimate_mindeg_probability(
    n: int, d: int, c: float, trials: int, seed: int, workers: int = 1
) -> float:
    """Fast Monte Carlo of P(min degree >= 1) only — no search, no oracle:
    the share of zero isolated-vertex counts in the poisson table's trials
    for the same n, d, c, trials and seed. Worker-count independent."""
    cfg = ExperimentConfig(
        "poisson", n=n, d=d, c_grid=(c,), trials=trials, seed=seed, workers=workers
    )
    ((_, _, isolated),) = _grid_map(cfg, _poisson_trial)
    return isolated.count(0) / trials


# --- isolated-count distribution -------------------------------------------------


def _poisson_trial(args) -> int:
    cfg, _, p, _, stream = args
    covered = sampled_covered_vertices(GnpParams(cfg.n, cfg.d, p), SeededRng(cfg.seed, stream))
    return int(covered.size) - int(covered.sum())


_POISSON_COLUMNS = (
    "c", "n", "d", "p", "trials", "k", "count", "phat", "poisson_p",
    "tv", "chisq_stat", "chisq_dof", "chisq_pvalue",
    "mean_hat", "mean_theory", "mean_sigma",
)


def _poisson_pmf(lam: float, k: int) -> float:
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else (
        1.0 if k == 0 else 0.0
    )


def _poisson_table(cfg: ExperimentConfig) -> Table:
    """Histogram of the isolated-vertex count per c, with total-variation
    distance and a tail-pooled chi-square against Poisson(exp(-c))."""
    from scipy.special import chdtrc  # the chi-square survival function

    rows = []
    for c, p, counts in _grid_map(cfg, _poisson_trial):
        kmax = max(counts)
        hist = [0] * (kmax + 1)
        for k in counts:
            hist[k] += 1
        lam = math.exp(-c)
        pmf = [_poisson_pmf(lam, k) for k in range(kmax + 1)]
        tail = 1.0 - sum(pmf)
        tv = 0.5 * (
            sum(abs(hist[k] / cfg.trials - pmf[k]) for k in range(kmax + 1)) + max(tail, 0.0)
        )
        # chi-square with tail pooling: merge bins upward until every pooled
        # bin expects at least 5 samples; the final bin absorbs the tail mass
        edges: list[tuple[float, int]] = []  # (expected, observed)
        acc_e, acc_o = 0.0, 0
        for k in range(kmax + 1):
            acc_e += pmf[k] * cfg.trials
            acc_o += hist[k]
            if acc_e >= 5.0:
                edges.append((acc_e, acc_o))
                acc_e, acc_o = 0.0, 0
        tail_e = acc_e + max(tail, 0.0) * cfg.trials
        if edges:
            e0, o0 = edges[-1]
            edges[-1] = (e0 + tail_e, o0 + acc_o)
        if len(edges) >= 2:
            stat = sum((o - e) ** 2 / e for e, o in edges)
            dof = len(edges) - 1
            pvalue = float(chdtrc(dof, stat))
        else:
            stat, dof, pvalue = None, None, None
        mean_hat = sum(counts) / cfg.trials
        sigma = math.sqrt(lam / cfg.trials)
        for k in range(kmax + 1):
            rows.append(
                (
                    c, cfg.n, cfg.d, p, cfg.trials, k, hist[k],
                    hist[k] / cfg.trials, pmf[k],
                    tv, stat, dof, pvalue,
                    mean_hat, lam, sigma,
                )
            )
    return Table("poisson", _POISSON_COLUMNS, tuple(rows))


# --- edge process ----------------------------------------------------------------


def _process_trial(args) -> tuple[int, int]:
    """(tau, t_ham) of one edge process: the first edge count with no
    isolated vertex and the first with a weak Hamilton cycle."""
    cfg, trial = args
    n, d = cfg.n, cfg.d
    rng = SeededRng(cfg.seed, trial)
    allsets, order = _process_order(n, d, rng)
    # tau is the step of the edge holding the last first appearance of a vertex
    _, first = np.unique(allsets[order].ravel(), return_index=True)
    if first.size != n:
        raise AssertionError(f"the full process covers {first.size} of {n} vertices")
    tau = int(first.max()) // d + 1
    t_ham = None
    for idx in range(tau, len(order) + 1):
        H = Hypergraph(n, d, allsets[np.sort(order[:idx])])
        verdict = decide_weak_hamiltonian(
            H, budget=cfg.budget, rng=rng.shifted(_SEARCH_LANE + idx),
            oracle_cutoff=cfg.oracle_cutoff,
        )
        if verdict.yes:
            t_ham = idx
            break
    if t_ham is None:
        raise AssertionError("the complete hypergraph was not found weakly Hamiltonian")
    return tau, t_ham


_PROCESS_COLUMNS = ("trial", "n", "d", "tau", "t_ham", "gap", "equal")


def _process_table(cfg: ExperimentConfig) -> Table:
    """Random edge process: per trial, the first edge count tau with no
    isolated vertex and the first count t_ham with a weak Hamilton cycle.
    tau <= t_ham is checked per row; the gap distribution is exploratory.
    Prefixes are decided by decide_weak_hamiltonian: exactly up to the
    oracle cutoff, above it by search witnesses only (t_ham an upper bound)."""
    items = [(cfg, t) for t in range(cfg.trials)]
    rows = []
    for trial, (tau, t_ham) in enumerate(_map_tasks(_process_trial, items, cfg.workers)):
        if tau > t_ham:
            raise AssertionError(f"trial {trial}: tau {tau} > t_ham {t_ham}")
        rows.append((trial, cfg.n, cfg.d, tau, t_ham, t_ham - tau, tau == t_ham))
    return Table("process", _PROCESS_COLUMNS, tuple(rows))


# --- expansion survey --------------------------------------------------------------


def _expansion_trial(args):
    cfg, c, p, trial, stream = args
    n, d = cfg.n, cfg.d
    rng = SeededRng(cfg.seed, stream)
    H = sample_gnp(GnpParams(n, d, p), rng)
    v1 = non_isolated_vertices(H)
    has_iso = len(v1) < n
    small_target = math.floor(n**0.25)  # set of size <= n^(1/4) exists?
    floor_target = n / 3**d  # u < n/3^d would contradict the lower bound
    nontrivial = sum(1 for comp in components(H) if len(comp) >= 2)
    if len(v1) <= U_EXACT_MAX_V1:
        rep = u_exact(H)
        u: int | None = rep.u
        exhaustive = True
        below_small = rep.u <= small_target and rep.witness is not None
        below_floor = rep.witness is not None and rep.u < floor_target
        minimal_connected = (
            minimal_nonexpanding_connected(H, rep.witness)
            if rep.witness is not None
            else None
        )
        used = 0
    else:
        u = None
        exhaustive = False
        chk_small = u_sampled_check(
            H, small_target + 1, cfg.samples, rng=rng.shifted(_SEARCH_LANE)
        )
        chk_floor = u_sampled_check(
            H, math.ceil(floor_target), cfg.samples, rng=rng.shifted(2 * _SEARCH_LANE)
        )
        below_small = not chk_small.ok
        below_floor = not chk_floor.ok
        minimal_connected = None
        used = chk_small.samples_used + chk_floor.samples_used
    u_relaxed = 1 if has_iso else u
    return (
        trial, n, d, c, len(v1), u, exhaustive, u_relaxed, has_iso,
        below_small, below_floor, nontrivial, nontrivial == 1,
        minimal_connected, used,
    )


_EXPANSION_COLUMNS = (
    "trial", "n", "d", "c", "v1_size", "u", "u_exhaustive", "u_relaxed",
    "has_isolated", "below_small_target", "below_floor_target",
    "nontrivial_components", "single_nontrivial",
    "minimal_witness_connected", "samples_used",
)


def _expansion_table(cfg: ExperimentConfig) -> Table:
    """Per trial: u(H) exactly when |V1| <= 22 (with a connectivity audit of
    the minimal witness), otherwise one-sided sampled checks against the
    size-n^(1/4) and n/3^d targets; plus the count of non-trivial shadow
    components. u_relaxed additionally admits isolated vertices, where a
    singleton is trivially non-expanding — reported, not interpreted."""
    rows = [row for _, _, results in _grid_map(cfg, _expansion_trial) for row in results]
    return Table("expansion", _EXPANSION_COLUMNS, tuple(rows))


# --- greedy covering bounds ---------------------------------------------------------


def _pab_cell(args) -> int:
    cfg, a, b, p, idx = args
    return greedy_probe(a, b, cfg.d, p, cfg.trials, rng=SeededRng(cfg.seed, idx))


_PAB_COLUMNS = (
    "a", "b", "d", "p", "trials", "successes", "phat", "stderr",
    "bound_exact", "bound_simple", "hypothesis_ok",
    "violation_exact", "violation_simple",
)


def _pab_table(cfg: ExperimentConfig) -> Table:
    """Greedy-probe P̂(a,b) against the closed-form exact bound and, where
    its hypothesis (a >= d, b <= 2a, 2a p^(1/(d-1)) <= 1) holds, the simple
    product-form bound. A violation means P̂ - 3*stderr still exceeds the bound;
    hypothesis-violating cells keep bound_simple empty and are flagged."""
    d, trials = cfg.d, cfg.trials
    cells = [
        (a, b, p)
        for a in cfg.a_grid
        for b in (cfg.b_grid or range(1, 2 * a + 1))
        for p in cfg.p_grid
    ]
    items = [(cfg, a, b, p, idx) for idx, (a, b, p) in enumerate(cells)]
    rows = []
    for (a, b, p), successes in zip(cells, _map_tasks(_pab_cell, items, cfg.workers)):
        phat = successes / trials
        stderr = math.sqrt(phat * (1.0 - phat) / trials)
        exact = pab_bound_exact(a, b, d, 1.0 - p)
        try:
            simple: float | None = pab_bound_simple(a, b, d, p)
            hypothesis_ok = True
        except InputError:
            simple = None
            hypothesis_ok = False
        violation_exact = phat - 3.0 * stderr > exact
        violation_simple = (
            (phat - 3.0 * stderr > simple) if hypothesis_ok else None
        )
        rows.append(
            (
                a, b, d, p, trials, successes, phat, stderr,
                exact, simple, hypothesis_ok,
                violation_exact, violation_simple,
            )
        )
    return Table("pab", _PAB_COLUMNS, tuple(rows))


_RUNNERS = {
    "threshold": _threshold_table,
    "gnm": _threshold_table,
    "poisson": _poisson_table,
    "process": _process_table,
    "expansion": _expansion_table,
    "pab": _pab_table,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> Table:
    """Run the experiment cfg names and return its table; the one entry
    point for every experiment kind."""
    return _RUNNERS[cfg.experiment](cfg)
