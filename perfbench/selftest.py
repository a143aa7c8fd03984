#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Failure accounting.  One untraced measurement of the reproducer g = x0^5 - x0, f = 50,
   T = 5, branching from the zero u = 1, where an IntegrationError escapes
   ``cmd_branch``.  The untraced measurement must finish with every
   end-to-end metric, and the gate must count each such branch command as
   a failed operation.  This case is not a workload.
2. Counter determinism and tracing overhead.  OVERHEAD_PAIRS pairs of
   rounds (set-up, analyze, branch, verify in one process) of each
   workload (seed 0), one traced and one untraced, in alternating order.
   Every traced round must give exactly the same value for every
   per-layer metric whose unit is ``count``.  The tracing overhead is the
   median over the pairs of traced minus untraced wall time of analyze +
   branch + verify; it is unresolved when the quartile spread of those
   differences is larger than their median.
3. Speed scaling.  SCALING_ROUNDS rounds of branch samples of ``example``,
   each round one sample without and one with each of the EXTRA_WORK
   changes (a fixed amount of NumPy or interpreter work added to every
   ``orbit.solve_ivp`` call), in rotating order.  For each change, the
   median over the rounds of the scaled time ratio (changed over
   unchanged) must equal that of the unscaled wall time ratio within
   SCALING_TOLERANCE, the share by which the benchmark lets a timing get
   worse: scaling may not hide or invent a change of that size.

The last line of standard output is a JSON summary; the exit code is 0 when
every check holds.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

import run

REPRODUCER_SEED_ZERO = 2  # zeros of u^5 - u on (-1.5, 1.5) are -1, 0, 1
OVERHEAD_PAIRS = 5
SCALING_ROUNDS = 20
EXTRA_WORK = {"numpy": {"kind": "numpy", "amount": 70},
              "python": {"kind": "python", "amount": 9000}}
SCALING_TOLERANCE = 0.25   # the timing bounds of BENCHMARK.json


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def failure_accounting(work) -> dict:
    config = run.make_config("example", 0, g="x0^5 - x0", interval=(-1.5, 1.5, 200))
    config["problem"].update(f="50", T=5.0)
    work.mkdir()
    start = time.perf_counter()
    runner = run.Runner(work, config, REPRODUCER_SEED_ZERO, start + run.TIME_LIMIT_S)
    gate = run.Gate(None, work, 0)
    values = run.measure(runner, gate, until=start)
    escaped = [f for f in gate.failures if f.split(": ", 1)[1].startswith("IntegrationError")]
    ok = (bool(escaped) and all(f.startswith("branch") for f in gate.failures)
          and all(values.get(name) is not None for name in run.declared_metrics(trace=False)))
    return {"ok": ok, "attempted": gate.attempted, "failed": len(gate.failures),
            "failures": gate.failures, "metrics": values}


def determinism(workload: str, work) -> dict:
    units = run.declared_metrics(trace=True)
    ref_dir = run.REFERENCE / workload
    gate = run.Gate(json.loads((ref_dir / "expected.json").read_text()), ref_dir, 0)
    wdir = work / workload
    wdir.mkdir()
    runner = run.Runner(wdir, run.make_config(workload, 0),
                        run.WORKLOADS[workload]["seed_zero"],
                        time.perf_counter() + OVERHEAD_PAIRS * 2 * run.TIME_LIMIT_S)
    counts, overheads = [], []
    for pair in range(OVERHEAD_PAIRS):
        wall = {}
        for trace in (True, False) if pair % 2 == 0 else (False, True):
            out = wdir / f"out-{runner.count + 1}"
            res, err = runner.run(run.COMMANDS, out, trace=trace,
                                  spans=str(wdir / "spans.json.gz"),
                                  meta={"workload": workload, "seed": 0})
            if res is None:
                return {"ok": False, "failures": gate.failures + [err]}
            gate.round(res)
            wall[trace] = (res["analyze"]["wall_s"] + res["branch"]["wall_s"]
                           + sum(c["wall_s"] for c in res["verify"]))
            if trace:
                counts.append({name: value for name, value in res["layers"].items()
                               if units[name] == "count"})
        overheads.append(wall[True] - wall[False])
    differing = sorted(name for name in counts[0]
                       if any(c[name] != counts[0][name] for c in counts[1:]))
    overhead = _spread(overheads)
    return {"ok": not differing and not gate.failures, "differing_counts": differing,
            "counts": counts[0], "failures": gate.failures,
            "overhead_s": overhead, "overheads_s": overheads,
            "overhead_resolved": overhead["q3"] - overhead["q1"] < abs(overhead["median"])}


def scaling(work) -> dict:
    ref_dir = run.REFERENCE / "example"
    gate = run.Gate(json.loads((ref_dir / "expected.json").read_text()), ref_dir, 0)
    work.mkdir()
    runner = run.Runner(work, run.make_config("example", 0),
                        run.WORKLOADS["example"]["seed_zero"],
                        time.perf_counter() + SCALING_ROUNDS * run.TIME_LIMIT_S)
    arms = [None, *EXTRA_WORK]
    times = {arm: [] for arm in arms}
    for r in range(SCALING_ROUNDS):
        for arm in arms[r % len(arms):] + arms[:r % len(arms)]:
            out = work / f"out-{runner.count + 1}"
            res, err = runner.run(["branch"], out, extra_work=EXTRA_WORK.get(arm))
            if res is None:
                return {"ok": False, "failures": gate.failures + [err]}
            gate.branch(f"branch {arm or 'unchanged'}", res["branch"], out)
            times[arm].append(res["branch"])
    summary = {"ok": not gate.failures, "failures": gate.failures,
               "unchanged_wall_s": [c["wall_s"] for c in times[None]]}
    for arm in EXTRA_WORK:
        ratio = {key: statistics.median(
                    c[key] / base[key] for c, base in zip(times[arm], times[None]))
                 for key in ("s", "wall_s")}
        ok = abs(ratio["s"] - ratio["wall_s"]) <= SCALING_TOLERANCE
        summary[arm] = {"ok": ok, "scaled_ratio": ratio["s"], "wall_ratio": ratio["wall_s"],
                        "changed_wall_s": [c["wall_s"] for c in times[arm]]}
        summary["ok"] = summary["ok"] and ok
    return summary


def main() -> int:
    if not (run.SRC / "gammachain" / "__init__.py").is_file():
        print(f"error: no gammachain sources under {run.SRC}", file=sys.stderr)
        return 2
    run.prepare_environment()
    work = run.OUT / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    summary = {}
    try:
        summary["failure_accounting"] = failure_accounting(work / "reproducer")
        print(f"failure accounting: {summary['failure_accounting']}", flush=True)
        for workload in sorted(run.WORKLOADS):
            det = summary[f"determinism.{workload}"] = determinism(workload, work)
            if "overhead_s" in det:
                o = det["overhead_s"]
                print(f"{workload}: counts equal: {not det['differing_counts']}, "
                      f"tracing overhead {o['median']:.2f} s (quartiles {o['q1']:.2f} "
                      f"to {o['q3']:.2f} s, resolved: {det['overhead_resolved']})",
                      flush=True)
        summary["scaling"] = scaling(work / "scaling")
        for arm in EXTRA_WORK:
            if arm in summary["scaling"]:
                arm_summary = summary["scaling"][arm]
                print(f"scaling, {arm} work: scaled ratio {arm_summary['scaled_ratio']:.3f}, "
                      f"wall ratio {arm_summary['wall_ratio']:.3f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = all(v["ok"] for v in summary.values())
    print(json.dumps({"ok": ok, **summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
