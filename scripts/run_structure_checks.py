#!/usr/bin/env python3
"""Structural checks used by the sparse-regime analysis: sizes of smallest
non-expanding vertex sets (with connectivity of minimal witnesses) and the
Monte-Carlo success rate of the greedy absent-edge probe against its
closed-form bounds.

Writes expansion.csv and pab.csv into --out-dir. Full-scale run:
  python3 scripts/run_structure_checks.py --expansion-n 200 \
      --expansion-trials 200 --pab-trials 10000
"""

from __future__ import annotations

import argparse
import os

from weakham import make_config, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--expansion-n", type=int, default=100)
    ap.add_argument("--expansion-trials", type=int, default=100)
    ap.add_argument("--c-grid", default="0")
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--pab-trials", type=int, default=2000)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    expansion = run_experiment(make_config("expansion", {
        "n": str(args.expansion_n), "d": str(args.d),
        "trials": str(args.expansion_trials), "c_grid": args.c_grid,
        "seed": str(args.seed), "samples": str(args.samples),
        "workers": str(args.workers),
    }))
    path = os.path.join(args.out_dir, "expansion.csv")
    expansion.save(path)
    single = [x == "1" for x in expansion.column("single_nontrivial")]
    print(f"wrote {path}: {len(expansion.rows)} rows")
    print(f"  single non-trivial component in {sum(single)}/{len(single)} trials")

    pab = run_experiment(make_config("pab", {
        "trials": str(args.pab_trials), "seed": str(args.seed),
        "workers": str(args.workers),
    }))
    path = os.path.join(args.out_dir, "pab.csv")
    pab.save(path)
    bad = [r for r in pab.rows
           if dict(zip(pab.columns, r))["violation_exact"]]
    print(f"wrote {path}: {len(pab.rows)} grid points, "
          f"{len(bad)} bound violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
