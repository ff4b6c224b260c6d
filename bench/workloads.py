"""The four experiment-table workloads and their correctness gates.

A run of a workload is a sequence of tables. Table r of a run with seed s
is built from master seed ``s * TABLE_SEED_STRIDE + r``, so a seed fixes
every input of the run; the package receives only the built config.

Gates, applied to every table:
  * invariants that hold for any seed (``invariant_problems``);
  * at ``DEFAULT_SEED``, a SHA-256 digest of the table's canonical text
    (``canonical_text``) against reference_digests.json. A threshold table at
    n=1000 is decided by the heuristic engine, so its digest masks the
    engine-dependent split of ham_yes / ham_unknown and keeps their sum.

This module uses only the standard library, so the gates can be tested
without importing weakham.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
TABLE_SEED_STRIDE = 1000

# threshold columns a faster or different rotation engine may move; every
# other column (ham_no, the min-degree columns, ...) must not drift
ENGINE_COLUMNS = ("ham_yes", "ham_unknown", "phat_ham", "lo_ham", "hi_ham", "unknown_rate")


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch job: a single experiment table at a fixed size,
    repeated with fresh seeds for the length of a run. BENCHMARK.json says
    why each workload is in the set."""

    name: str
    kind: str
    options: dict
    workers: int

    def config_options(self, table_seed: int, workers: int | None = None) -> dict[str, str]:
        opts = dict(self.options)
        opts["seed"] = str(table_seed)
        opts["workers"] = str(self.workers if workers is None else workers)
        return opts

    @property
    def cells(self) -> int:
        """Number of c values; a process table has one implicit cell."""
        return len(self.options["c_grid"].split(",")) if "c_grid" in self.options else 1

    @property
    def trials_per_table(self) -> int:
        return int(self.options["trials"]) * self.cells


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "threshold-n1000", "threshold",
            {"n": "1000", "d": "3", "c_grid": "-1,0,1,2", "trials": "8"}, 1,
        ),
        Workload(
            "process-n16", "process",
            {"n": "16", "d": "3", "trials": "32"}, 1,
        ),
        Workload(
            "poisson-n2000", "poisson",
            {"n": "2000", "d": "3", "c_grid": "0", "trials": "2000"}, 2,
        ),
        Workload(
            "expansion-n200", "expansion",
            {"n": "200", "d": "3", "c_grid": "0", "trials": "32"}, 1,
        ),
    )
}

# digests of canonical_text for tables r = 0, 1, ... of a run at DEFAULT_SEED,
# made from workers=1 tables: for poisson-n2000, which runs on two workers,
# they also pin the rule that a table does not depend on the worker count
REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")


def reference_digests() -> dict[str, list[str]]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE_FILE.name} is for seed {doc['seed']}, not {DEFAULT_SEED}")
    return doc["digests"]


def table_seed(seed: int, r: int) -> int:
    return seed * TABLE_SEED_STRIDE + r


def parse_csv(text: str) -> tuple[str, list[dict[str, str]]]:
    """(kind, rows as column -> cell) of a canonical weak-ham-lab CSV."""
    head, _, body = text.partition("\n")
    kind = head.rsplit(" ", 1)[-1]
    return kind, list(csv.DictReader(io.StringIO(body)))


def canonical_text(text: str) -> str:
    """The bytes a reference digest covers: the whole CSV, except that a
    threshold table drops ENGINE_COLUMNS and appends ham_yes + ham_unknown."""
    kind, rows = parse_csv(text)
    if kind != "threshold":
        return text
    head = text.partition("\n")[0]
    out = io.StringIO()
    out.write(head + "\n")
    writer = csv.writer(out, lineterminator="\n")
    columns = [c for c in rows[0] if c not in ENGINE_COLUMNS] if rows else []
    writer.writerow(columns + ["ham_yes_plus_unknown"])
    for row in rows:
        total = int(row["ham_yes"]) + int(row["ham_unknown"])
        writer.writerow([row[c] for c in columns] + [str(total)])
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(canonical_text(text).encode("utf-8")).hexdigest()


def invariant_problems(workload: Workload, text: str) -> list[str]:
    """Checks that hold for every seed; an empty list means the table passes."""
    kind, rows = parse_csv(text)
    if kind != workload.kind:
        return [f"table kind {kind!r}, expected {workload.kind!r}"]
    trials = int(workload.options["trials"])
    problems = []
    if kind == "threshold":
        if len(rows) != workload.cells:
            problems.append(f"{len(rows)} rows, expected one per c")
        for row in rows:
            yes, no, unknown = (int(row[k]) for k in ("ham_yes", "ham_no", "ham_unknown"))
            if yes + no + unknown != trials or int(row["trials"]) != trials:
                problems.append(f"c={row['c']}: yes+no+unknown = {yes + no + unknown} != {trials}")
            if yes > int(row["mindeg_yes"]):
                problems.append(f"c={row['c']}: ham_yes {yes} > mindeg_yes {row['mindeg_yes']}")
    elif kind == "process":
        if len(rows) != trials:
            problems.append(f"{len(rows)} rows, expected {trials}")
        for row in rows:
            if int(row["tau"]) > int(row["t_ham"]):
                problems.append(f"trial {row['trial']}: tau {row['tau']} > t_ham {row['t_ham']}")
    elif kind == "poisson":
        totals: dict[str, int] = {}
        for row in rows:
            totals[row["c"]] = totals.get(row["c"], 0) + int(row["count"])
        if len(totals) != workload.cells:
            problems.append(f"{len(totals)} c values, expected one per c")
        for c, total in totals.items():
            if total != trials:
                problems.append(f"c={c}: counts sum to {total}, expected {trials}")
    elif kind == "expansion":
        if len(rows) != workload.trials_per_table:
            problems.append(f"{len(rows)} rows, expected {workload.trials_per_table}")
        for row in rows:
            isolated = int(row["v1_size"]) < int(row["n"])
            if row["has_isolated"] != ("1" if isolated else "0"):
                problems.append(f"trial {row['trial']}: has_isolated disagrees with v1_size")
    return problems


def gate(workload: Workload, seed: int, r: int, text: str, refs: list[str]) -> list[str]:
    """All problems with table r of a run at `seed`; `refs` are the
    workload's reference digests."""
    problems = invariant_problems(workload, text)
    if seed == DEFAULT_SEED and r < len(refs) and digest(text) != refs[r]:
        problems.append(f"table {r}: digest differs from the reference for seed {seed}")
    return problems


def unknown_verdicts(text: str) -> int:
    """Trials that ended undecided: the ham_unknown verdicts of a threshold table."""
    kind, rows = parse_csv(text)
    if kind != "threshold":
        return 0
    return sum(int(row["ham_unknown"]) for row in rows)
