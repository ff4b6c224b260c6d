"""weak-ham-lab benchmark: experiment tables through the public weakham API.

    python3 bench/run.py --workload threshold-n1000 --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 10      # every workload, both modes

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy. A run repeats its workload's table
(see workloads.py) with fresh seeds until --seconds have gone, checks every
table, and prints a report followed, on the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. "failed" counts the trials of
tables whose run_experiment raised; an "unknown" verdict is a valid answer
of the heuristic above the oracle cutoff and shows in decided_rate instead.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  trials_per_ref_s  trials decided by run_experiment per reference second:
                    CPU time of this process and its pool workers, over all
                    tables, rescaled by the reference loop (reference.py)
  decided_rate      1 - unknown_rate, where unknown_rate counts unknown verdicts
                    and the trials of a table that raised, over all attempted
  setup_s           median CPU time of fresh interpreters that import weakham
                    and build the validated ExperimentConfig
  peak_rss_mb       peak RSS of this process plus, when the workload uses a
                    pool, workers x the largest child's peak (pool workers and
                    reference-loop copies are forks of this process; shared
                    pages count in each)
Times are CPU times: on a virtual machine whose cores are shared, wall time
of identical work swings by a third between runs (stolen time). The CPU time
of a table also drifts, by up to a half within minutes, and the reference
loop drifts with it, so the rate is rescaled by that loop. The set-up time,
mostly imports, does not drift with the loop and is left as it is. The
report also prints the wall-clock and the plain CPU rate; --trace 1 reports
the wall-clock rate as harness.wall_trials_per_s.

--trace 1 runs each table untraced, then rebuilds its trials through
rebuild.py with a span around every layer call, and reports the per-layer
metrics. The spans go to .bench_out/trace-<workload>-seed<seed>.jsonl. If the
rebuild's verdicts differ from the untraced table's, the per-layer numbers
are stale and the run fails without printing them.

Exit status: 0 when every table passes its gate; 1 otherwise, or when the
checkout holds no weakham sources; 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import children_cpu, loop_seconds, scaled_seconds
from workloads import (
    DEFAULT_SEED, WORKLOADS, gate, reference_digests, table_seed, unknown_verdicts,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import weakham; "
    "weakham.make_config(sys.argv[2], json.loads(sys.argv[3]))"
)


def import_weakham():
    init = SRC / "weakham" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no weakham sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import weakham

    if Path(weakham.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported weakham from {weakham.__file__}, not {init}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        # without numba, _bitdp runs its pure-Python mirrors
        "numba": importlib.util.find_spec("numba") is not None,
    }


def setup_seconds(workload, seed: int) -> float:
    opts = json.dumps(workload.config_options(table_seed(seed, 0)))
    times = []
    for _ in range(SETUP_PROBES):
        before = children_cpu()
        subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), workload.kind, opts],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(children_cpu() - before)
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def trace_table(tracer, workload, cfg, table, text: str, dt: float):
    """Rebuild one untraced table under the tracer. Returns (wall time of the
    table on one worker, problems, stale facts)."""
    from weakham import make_config, run_experiment
    from rebuild import REBUILDS, table_facts

    problems, stale = [], []
    serial_dt = dt
    if workload.workers > 1:
        one = make_config(workload.kind, workload.config_options(cfg.seed, workers=1))
        t0 = time.perf_counter()
        text_one = run_experiment(one).to_csv_text()
        serial_dt = time.perf_counter() - t0
        if text_one != text:
            problems.append(f"seed {cfg.seed}: workers=1 and workers={workload.workers} "
                            "tables differ")
    with tracer.span("harness.table"):
        facts = REBUILDS[workload.kind](tracer, cfg)
    tracer.call("harness.csv", table.to_csv_text)
    if facts != table_facts(table):
        stale.append(f"seed {cfg.seed}: rebuilt {facts}, table has {table_facts(table)}")
    return serial_dt, problems, stale


def run(workload, seed: int, seconds: float, trace: bool):
    """Tables until the time is up. Returns (result, problems, stale, report)."""
    from weakham import make_config, run_experiment
    from rebuild import per_layer_metrics
    from spans import Tracer

    tracer = Tracer()
    refs = reference_digests()[workload.name]
    problems: list[str] = []
    stale: list[str] = []
    attempted = failed = undecided = trials = 0
    wall = serial = 0.0
    # CPU seconds of each table (0 for one that raised) and, untraced, of
    # the reference loop run before each table and after the last
    table_cpu: list[float] = []
    loops: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        if not trace:
            loops.append(loop_seconds(workload.workers))
        cfg = make_config(workload.kind, workload.config_options(table_seed(seed, r)))
        attempted += workload.trials_per_table
        t0, c0 = time.perf_counter(), time.process_time() + children_cpu()
        try:
            table = run_experiment(cfg)
        except Exception as exc:  # a raising trial fails its whole table
            problems.append(f"table {r}: {type(exc).__name__}: {exc}")
            failed += workload.trials_per_table
            undecided += workload.trials_per_table
            table = None
        dt = time.perf_counter() - t0
        dc = time.process_time() + children_cpu() - c0
        table_cpu.append(0.0 if table is None else dc)
        if table is not None:
            text = table.to_csv_text()
            undecided += unknown_verdicts(text)
            problems += gate(workload, seed, r, text, refs)
            wall += dt
            trials += workload.trials_per_table
            if trace:
                serial_dt, more_problems, more_stale = trace_table(
                    tracer, workload, cfg, table, text, dt)
                serial += serial_dt
                problems += more_problems
                stale += more_stale
        r += 1
        spent = time.perf_counter() - start
        if spent + 0.5 * spent / r >= seconds:  # stop nearest to the time asked
            break

    if trace:
        metrics = per_layer_metrics(tracer.spans, trials, serial, wall, workload.workers)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl",
                     {"workload": workload.name, "seed": seed, "tables": r,
                      "env": environment()})
    else:
        loops.append(loop_seconds(workload.workers))
        ref_s = scaled_seconds(table_cpu, loops)
        metrics = {
            "trials_per_ref_s": (trials / ref_s if ref_s else 0.0, "1/s"),
            "decided_rate": (1.0 - undecided / attempted, "ratio"),
            # read before the setup probes, which are child processes too
            "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
        }
        metrics["setup_s"] = (setup_seconds(workload, seed), "s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    cpu = sum(table_cpu)
    report = [f"workload {workload.name} seed {seed} trace {int(trace)}: "
              f"{r} tables, {attempted} trials, {time.perf_counter() - start:.1f} s",
              f"  wall-clock rate {trials / wall if wall else 0.0:.6g} trials/s; "
              f"CPU rate {trials / cpu if cpu else 0.0:.6g} trials/s"]
    if loops:
        report.append(f"  reference loop {1e3 * statistics.mean(loops):.4g} ms, "
                      f"{workload.workers} at once")
    report.append(f"  unknown_rate {undecided / attempted:.6g} ({undecided} undecided, "
                  f"{failed} in tables that raised)")
    return result, problems, stale, "\n".join(report)


def print_result(report: str, result: dict) -> None:
    print(report)
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(environment(), sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, untraced and traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                combined["correct"] = False
                continue
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for metric, m in res["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_weakham()
    if args.workload == "all":
        return run_all(args)
    result, problems, stale, report = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    if stale:
        for s in stale:
            print(f"STALE TRACE: {s}", file=sys.stderr)
        print("per-layer numbers are stale: the rebuild no longer matches the "
              "harness; not printing them", file=sys.stderr)
        return 1
    print_result(report, result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
