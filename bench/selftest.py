"""Self-tests of the benchmark's own arithmetic and gates.

    python3 bench/selftest.py

Needs no pytest. Every test but the last uses the standard library only;
the last imports weakham from the checkout's src directory to list the
per-layer metrics a traced run emits.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

from reference import REFERENCE_SECONDS, scaled_seconds
from spans import Span, Tracer, parallel_efficiency, self_time, tail_percentile
from workloads import WORKLOADS, digest, invariant_problems

THRESHOLD = WORKLOADS["threshold-n1000"]

# a threshold table in the canonical form; cells are arbitrary but
# consistent with 8 trials per c
HEADER = ("# weak-ham-lab v1 threshold\n"
          "c,n,d,p,trials,mindeg_yes,phat_mindeg,lo_mindeg,hi_mindeg,"
          "ham_yes,ham_no,ham_unknown,phat_ham,lo_ham,hi_ham,theory,unknown_rate\n")
ROW = "{c},1000,3,1.3e-05,8,{m},0.5,0.2,0.8,{y},{n},{u},{ph},0.2,0.8,0.36,{ur}\n"


def threshold_text(rows) -> str:
    return HEADER + "".join(
        ROW.format(c=c, m=m, y=y, n=n, u=u, ph=y / max(1, y + n), ur=u / 8)
        for c, m, y, n, u in rows)


BASE = [(-1.0, 1, 1, 7, 0), (0.0, 4, 3, 4, 1), (1.0, 6, 6, 2, 0), (2.0, 7, 7, 1, 0)]


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 10_001))
    assert tail_percentile(xs) == (99.9, 9990)
    assert tail_percentile(xs[:9999]) == (99.0, 9900)
    assert tail_percentile(xs[:1000]) == (99.0, 990)
    assert tail_percentile(xs[:200]) == (95.0, 190)
    assert tail_percentile(xs[:100]) == (90.0, 90)
    assert tail_percentile(xs[:40]) == (75.0, 30)
    assert tail_percentile(xs[:39]) == (50.0, 20)
    assert tail_percentile(reversed(xs[:100])) == (90.0, 90)


def test_self_time_subtracts_union_of_children():
    parent = Span(0, "p", None, 0, 0.0, 10.0)
    kids = [Span(i + 1, "c", 0, 0, s, e) for i, (s, e) in
            enumerate([(1, 3), (2, 5), (7, 8), (9, 12), (11, 12)])]
    # covered: [1,5] + [7,8] + [9,10] = 6; the last child lies outside
    assert self_time(parent, kids) == 4.0
    assert self_time(parent, []) == 10.0


def test_tracer_records_parents_trials_and_probes():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("harness.table"):
        with tr.span("harness.trial", trial=True):
            assert tr.call("a", lambda x: x + 1, 1) == 2
            tr.note(edges=3)
        with tr.span("harness.trial", trial=True):
            tr.call("b", lambda: None, probe=True)
    table, t0, a, t1, b = tr.spans
    assert (a.parent, a.trial, a.attrs, a.probe) == (t0.id, 0, {"edges": 3}, False)
    assert (b.parent, b.trial, b.probe) == (t1.id, 1, True)
    assert t0.parent == table.id and table.trial is None
    assert self_time(t0, [a]) == t0.seconds - a.seconds


def test_parallel_efficiency():
    assert parallel_efficiency(6.0, 2, 4.0) == 0.75
    assert parallel_efficiency(3.0, 1, 4.0) == 0.75
    assert parallel_efficiency(1.0, 2, 0.0) == 0.0


def test_scaled_seconds_uses_the_loops_around_each_table():
    ref = REFERENCE_SECONDS
    # a table on a machine at reference speed counts as it is; one run while
    # the loop took twice as long counts half, and one that raised counts 0
    assert scaled_seconds([1.0], [ref, ref]) == 1.0
    assert abs(scaled_seconds([1.0, 0.0, 3.0], [ref, ref, 2 * ref, 2 * ref]) - 2.5) < 1e-12
    try:
        scaled_seconds([1.0], [ref])
    except ValueError:
        pass
    else:
        raise AssertionError("a table without a loop sample after it must be refused")


def test_threshold_mask_allows_engine_split_only():
    ref = digest(threshold_text(BASE))
    # the engine decides one more trial: yes moves to unknown, sum kept
    engine = [(-1.0, 1, 1, 7, 0), (0.0, 4, 4, 4, 0), (1.0, 6, 5, 2, 1), (2.0, 7, 7, 1, 0)]
    assert digest(threshold_text(engine)) == ref
    # a yes turning into a no, or a min-degree count drifting, must fail
    for doctored in (
        [(-1.0, 1, 1, 7, 0), (0.0, 4, 2, 5, 1), (1.0, 6, 6, 2, 0), (2.0, 7, 7, 1, 0)],
        [(-1.0, 2, 1, 7, 0), (0.0, 4, 3, 4, 1), (1.0, 6, 6, 2, 0), (2.0, 7, 7, 1, 0)],
    ):
        assert digest(threshold_text(doctored)) != ref
    assert invariant_problems(THRESHOLD, threshold_text(BASE)) == []


def test_invariants_catch_broken_tables():
    # yes + no + unknown != trials, and ham_yes > mindeg_yes
    bad = threshold_text([(-1.0, 1, 1, 6, 0), (0.0, 2, 3, 4, 1),
                          (1.0, 6, 6, 2, 0), (2.0, 7, 7, 1, 0)])
    assert len(invariant_problems(THRESHOLD, bad)) == 2
    process = ("# weak-ham-lab v1 process\ntrial,n,d,tau,t_ham,gap,equal\n"
               "0,16,3,40,38,-2,0\n" + "".join(f"{t},16,3,40,41,1,0\n" for t in range(1, 32)))
    assert invariant_problems(WORKLOADS["process-n16"], process) == [
        "trial 0: tau 40 > t_ham 38"]
    poisson = ("# weak-ham-lab v1 poisson\nc,k,count\n"
               "0.0,0,700\n0.0,1,700\n0.0,2,599\n")
    assert invariant_problems(WORKLOADS["poisson-n2000"], poisson) == [
        "c=0.0: counts sum to 1999, expected 2000"]


def test_traced_run_emits_the_declared_per_layer_metrics():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from rebuild import per_layer_metrics

    declared = {m["name"]: m["unit"] for m in
                json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
    emitted = {name: unit for name, (_, unit) in per_layer_metrics([], 0, 0.0, 0.0, 1).items()}
    assert emitted == declared, set(emitted.items()) ^ set(declared.items())


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
