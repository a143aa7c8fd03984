#!/usr/bin/env python3
"""gammachain benchmark: wall time of analyze / branch / verify, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload example --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.

Load: a closed loop with one client.  Commands run one after another, each
in a process whose library caches start cold, as in a fresh CLI call, so
no in-process cache outlives a timed command.  BLAS is pinned to one thread.

Untraced runs (--trace 0): every command runs in a fresh interpreter
(worker.py) that first sets up (``import gammachain``, ``load_config``,
``chain.expand``): one analyze, one branch, one verify on the CSVs that
branch wrote, then more analyze and branch samples up to MIN_SAMPLES, and
more while --seconds are not used up.  A run thus lasts --seconds or the
minimum samples, whichever is longer.  Each timing is the median of its
samples (setup_s over every worker); verify_s is one sample; peak_rss_mb
is the largest worker's.  Timings are wall times scaled to a reference
machine speed (worker.Speedometer); the line before the result holds the
unscaled medians.

Traced runs (--trace 1): one fresh interpreter sets up and runs analyze,
branch and verify under tracing.py, and writes its spans to .bench_out/.

Inputs: seed 0 is the nominal config of the workload; any other seed
perturbs the rate ``a`` and the forcing amplitude by up to 2 % and the
forcing phase by up to 0.2 rad.  Neither moves the zeros of Phi or the
certification verdicts, and both branch ends still reach lambda = 0.

Every output is checked (see ``Gate``); each mismatch is a failed
operation, and ``failed``/``attempted`` of the result is the fail ratio.

``--write-reference`` runs one seed-0 round in one process and stores its
outputs under perfbench/reference/ as the reference the gate compares to.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".bench_out"

COMMANDS = ["analyze", "branch", "verify"]
MIN_SAMPLES = {"analyze": 3, "branch": 2}   # whatever --seconds says
TIME_LIMIT_S = 170.0   # every process ends before this, counted from start
CSV_TOL = 1e-8
ZERO_TOL = 1e-8
A_JITTER = 0.02
AMPLITUDE_JITTER = 0.02
PHASE_JITTER = 0.2

SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Every workload shares g, phi and the interval of configs/example.json.
# seed_zero: the zero to branch from, None for all of them.
WORKLOADS = {
    "example": {"a": 2.0, "b": 2, "T": 1.0, "arg": "2*pi*t", "seed_zero": None},
    "long_chain": {"a": 8.0, "b": 8, "T": 1.0, "arg": "2*pi*t", "seed_zero": 0},
    "long_period": {"a": 8.0, "b": 4, "T": 4.0, "arg": "2*pi*t/4", "seed_zero": 0},
}


def make_config(workload: str, seed: int, g="-x0*(1+x2)",
                interval=(-0.5, 1.5, 200)) -> dict:
    """The workload's config; seed 0 is nominal, others are perturbed."""
    w = WORKLOADS[workload]
    a = w["a"]
    f = f"1+x*sin({w['arg']})"
    if seed != 0:
        rng = random.Random(seed)
        a = round(a * (1.0 + rng.uniform(-A_JITTER, A_JITTER)), 6)
        amplitude = 1.0 + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER)
        phase = rng.uniform(-PHASE_JITTER, PHASE_JITTER)
        sign = "+" if phase >= 0 else "-"
        f = f"{amplitude:.6f}*(1+x*sin({w['arg']}{sign}{abs(phase):.6f}))"
    alpha, beta, grid_n = interval
    return {"problem": {"g": g, "phi": "q-p", "f": f, "a": a, "b": w["b"], "T": w["T"]},
            "interval": {"alpha": alpha, "beta": beta, "grid_n": grid_n},
            "certify": {"radius": 0.1}}


# -- worker processes ---------------------------------------------------------

class Runner:
    """Starts worker processes one at a time inside a work directory."""

    def __init__(self, work: Path, config: dict, seed_zero, deadline: float):
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2))
        self.seed_zero = seed_zero
        self.deadline = deadline  # perf_counter time by which every process has ended
        self.count = 0

    def run(self, commands: list[str], out: Path, trace: bool = False, **job):
        """One worker process running ``commands`` with output directory
        ``out``; returns (result or None, error or None).  The result has
        the set-up time (``setup_s``, and unscaled ``setup_wall_s``) and
        the process's wall time from spawn to exit (``process_s``)."""
        self.count += 1
        wdir = self.work / f"{'-'.join(commands)}-{self.count}"
        wdir.mkdir()
        job.update(src=str(SRC), config=str(self.config_path), out=str(out),
                   commands=commands, trace=trace, seed_zero=self.seed_zero,
                   result=str(wdir / "result.json"))
        job_path = wdir / "job.json"
        job_path.write_text(json.dumps(job))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return None, "no time left"
        spawn_at, spawn_counter = time.time(), time.perf_counter()
        # own session, so that a timeout also ends anything the worker started
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"{'+'.join(commands)} worker timed out after {timeout:.0f} s"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        result_path = wdir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"{'+'.join(commands)} worker exited with code {proc.returncode}"
        res = json.loads(result_path.read_text())
        res["out"] = str(out)
        res["process_s"] = time.perf_counter() - spawn_counter
        res["setup_wall_s"] = res["ready_at"] - spawn_at
        res["setup_s"] = res["setup_wall_s"] * res.get("speed_scale", 1.0)
        return res, None


# -- output gate ----------------------------------------------------------------

def analyze_facts(value: dict) -> dict:
    deg, mult = value["degree"], value["multiplicity"]
    return {"zeros": [z["u"] for z in deg["zeros"]], "deg_phi": deg["deg_phi"],
            "deg_G": deg["deg_G"], "n": mult["n"], "verdict": mult["verdict"]}


def _close(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def _compare_analyze(facts: dict, ref: dict, label: str) -> list[str]:
    problems = [f"{key} {facts[key]!r} != {label} {ref[key]!r}"
                for key in ("deg_phi", "deg_G", "n", "verdict") if facts[key] != ref[key]]
    if (len(facts["zeros"]) != len(ref["zeros"])
            or not all(_close(u, r, ZERO_TOL) for u, r in zip(facts["zeros"], ref["zeros"]))):
        problems.append(f"zeros {facts['zeros']} != {label} {ref['zeros']}")
    return problems


def _compare_csv(path: Path, ref_path: Path, label: str) -> list[str]:
    def rows(p):
        lines = p.read_text().split()
        return lines[0], [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    head, data = rows(path)
    ref_head, ref_data = rows(ref_path)
    if head != ref_head or len(data) != len(ref_data):
        return [f"{path.name}: shape differs from {label}"]
    worst = max((abs(v - r) / max(1.0, abs(r))
                 for row, ref_row in zip(data, ref_data) for v, r in zip(row, ref_row)),
                default=0.0)
    if worst > CSV_TOL:
        return [f"{path.name}: differs from {label} by {worst:.3e} > {CSV_TOL:g}"]
    return []


def _compare_seed(entry: dict, ref: dict, csv: Path, ref_csv: Path, label: str) -> list[str]:
    problems = []
    if entry["points"] != ref["points"]:
        problems.append(f"points {entry['points']} != {label} {ref['points']}")
    folds, ref_folds = entry["fold_lambdas"], ref["fold_lambdas"]
    if len(folds) != len(ref_folds) or not all(
            _close(x, r, CSV_TOL) for x, r in zip(folds, ref_folds)):
        problems.append(f"fold_lambdas {folds} != {label} {ref_folds}")
    if not problems:
        problems += _compare_csv(csv, ref_csv, label)
    return problems


class Gate:
    """Checks command outputs and counts operations.

    An operation is a command, a branch seed or a verify row; each one whose
    command raised, or whose output fails a check, is a failed operation.
    Checks: analyze gives the reference zeros, deg_phi/deg_G, n and verdict;
    every branch seed ends with status lambda_zero at both ends and has the
    reference number of folds; every verify row passes 1e-4/1e-3; and every
    later analyze or branch sample repeats the first one (CSVs within 1e-8).
    On seed 0, each seed's point count, fold_lambdas and CSV also match the
    reference.
    """

    def __init__(self, expected: dict | None, ref_dir: Path, seed: int):
        self.expected = expected
        self.ref_dir = ref_dir
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first_analyze: dict | None = None
        self.first_branch: tuple[dict, Path] | None = None

    def op(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def round(self, res: dict):
        self.analyze("analyze", res["analyze"])
        self.branch("branch", res["branch"], Path(res["out"]))
        self.verify("verify", res["verify"])

    def analyze(self, label: str, cmd: dict):
        if cmd["error"]:
            self.op(label, [cmd["error"]])
            return
        facts = analyze_facts(cmd["value"])
        problems = []
        if self.expected:
            problems += _compare_analyze(facts, self.expected["analyze"], "reference")
        if self.first_analyze:
            problems += _compare_analyze(facts, self.first_analyze, "first sample")
        else:
            self.first_analyze = facts
        self.op(label, problems)

    def branch(self, label: str, cmd: dict, out: Path):
        if cmd["error"]:
            self.op(label, [cmd["error"]])
            return
        seeds = {str(e["index"]): e for e in cmd["value"]["seeds"]}
        problems = []
        if self.expected and sorted(seeds) != sorted(self.expected["seeds"]):
            problems.append(f"seeds {sorted(seeds)} != reference "
                            f"{sorted(self.expected['seeds'])}")
        self.op(label, problems)
        first_seeds, first_out = self.first_branch or ({}, None)
        for idx, entry in seeds.items():
            problems = []
            if set(entry["status"].values()) != {"lambda_zero"}:
                problems.append(f"status {entry['status']}")
            csv = out / str(entry["csv"])
            ref = self.expected["seeds"].get(idx) if self.expected else None
            if ref is not None:
                if len(entry["fold_lambdas"]) != len(ref["fold_lambdas"]):
                    problems.append(f"{len(entry['fold_lambdas'])} folds != "
                                    f"reference {len(ref['fold_lambdas'])}")
                elif self.seed == 0:
                    problems += _compare_seed(entry, ref, csv,
                                              self.ref_dir / ref["csv"], "reference")
            if idx in first_seeds:
                problems += _compare_seed(entry, first_seeds[idx], csv,
                                          first_out / first_seeds[idx]["csv"],
                                          "first sample")
            self.op(f"{label} seed {idx}", problems)
        if self.first_branch is None:
            self.first_branch = (seeds, out)

    def verify(self, label: str, cmds: list[dict]):
        for cmd in cmds:
            clabel = f"{label} {cmd['csv']}"
            if cmd["error"]:
                self.op(clabel, [cmd["error"]])
                continue
            self.op(clabel, [])
            for i, row in enumerate(cmd["value"]["rows"]):
                self.op(f"{clabel} row {i}", [] if row["pass"] else [
                    f"lift {row['verify_lift']:.3e}, residual {row['direct_residual']:.3e}"])


# -- measurement -------------------------------------------------------------------

def measure(runner: Runner, gate: Gate, until: float) -> dict:
    """End-to-end metrics of one untraced run; ``until`` is a perf_counter time.

    Every command runs in a fresh worker: analyze, branch, and verify on
    the CSVs that branch wrote; then more analyze and branch samples, up
    to MIN_SAMPLES and after that while ``until`` leaves room for another
    worker as long as the last one of its kind.  The command with less
    sampled time goes next.  Every worker also gives a set-up sample.
    """
    workers = []
    samples = {"analyze": [], "branch": [], "verify": []}
    tries = dict.fromkeys(samples, 0)
    cost = dict.fromkeys(samples, 0.0)   # wall time of the kind's last worker

    def sample(kind: str, out: Path):
        tries[kind] += 1
        label = f"{kind} {tries[kind]}"
        res, err = runner.run([kind], out)
        if res is None:
            gate.op(f"{label} worker", [err])
            return
        workers.append(res)
        if kind == "analyze":
            gate.analyze(label, res[kind])
        elif kind == "branch":
            gate.branch(label, res[kind], out)
        else:
            gate.verify(label, res[kind])
        samples[kind].append(res[kind])
        cost[kind] = res["process_s"]

    first_out = runner.work / "out-1"
    for kind in samples:
        sample(kind, first_out)
    while True:
        short = [k for k in MIN_SAMPLES if tries[k] < MIN_SAMPLES[k]]
        if short:
            kind = short[0]
        elif gate.failures:
            break
        else:
            kind = min(MIN_SAMPLES, key=lambda k: sum(c["s"] for c in samples[k]))
            if time.perf_counter() + cost[kind] > until:
                break
        sample(kind, runner.work / f"out-{tries['branch'] + 1}" if kind == "branch"
               else first_out)
    if not workers:
        return {}

    def median(cmds, key="s"):
        values = [c[key] for c in cmds]
        return statistics.median(values) if values else None

    def verify_sum(cmds, key="s"):
        return sum(c[key] for c in cmds[0]) if cmds else None

    wall = {"setup_s": median(workers, "setup_wall_s"),
            "analyze_s": median(samples["analyze"], "wall_s"),
            "branch_s": median(samples["branch"], "wall_s"),
            "verify_s": verify_sum(samples["verify"], "wall_s")}
    print("samples: " + ", ".join(f"{k} {len(v)}" for k, v in
                                  {"setup": workers, **samples}.items()))
    return {"unscaled_wall_s": wall, "setup_s": median(workers, "setup_s"),
            "analyze_s": median(samples["analyze"]),
            "branch_s": median(samples["branch"]),
            "verify_s": verify_sum(samples["verify"]),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers)}


def write_reference(ref_dir: Path, res: dict):
    """Store a round's outputs as the workload's seed-0 reference."""
    shutil.rmtree(ref_dir, ignore_errors=True)
    ref_dir.mkdir(parents=True)
    seeds = {}
    for entry in res["branch"]["value"]["seeds"]:
        shutil.copy(Path(res["out"]) / entry["csv"], ref_dir / entry["csv"])
        seeds[str(entry["index"])] = {k: entry[k] for k in
                                      ("csv", "status", "points", "fold_lambdas")}
    expected = {"analyze": analyze_facts(res["analyze"]["value"]), "seeds": seeds}
    (ref_dir / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


def declared_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def prepare_environment():
    os.environ.update(SINGLE_THREAD)
    os.environ["PYTHONHASHSEED"] = "0"
    OUT.mkdir(exist_ok=True)


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "gammachain" / "__init__.py").is_file():
        print(f"error: no gammachain sources under {SRC}", file=sys.stderr)
        return 2
    prepare_environment()
    # on SIGTERM, unwind through the finally blocks that end the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ref_dir = REFERENCE / args.workload
    expected = None
    if not args.write_reference:
        expected = json.loads((ref_dir / "expected.json").read_text())
    units = declared_metrics(bool(args.trace))

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    gate = Gate(expected, ref_dir, args.seed)
    try:
        runner = Runner(work, make_config(args.workload, args.seed),
                        WORKLOADS[args.workload]["seed_zero"], start + TIME_LIMIT_S)
        if args.trace or args.write_reference:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            res, err = runner.run(COMMANDS, work / "out", trace=bool(args.trace),
                                  spans=str(spans),
                                  meta={"workload": args.workload, "seed": args.seed})
            if res is None:
                gate.op("round worker", [err])
                values = {}
            else:
                gate.round(res)
                values = res.get("layers", {})
            if args.write_reference:
                for failure in gate.failures:
                    print(f"FAILED {failure}", file=sys.stderr)
                if res is None or gate.failures:
                    return 1
                write_reference(ref_dir, res)
                print(f"reference written to {ref_dir.relative_to(ROOT)}")
                return 0
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            values = measure(runner, gate, start + args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in gate.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        print(f"{args.workload} seed {args.seed}: {name} = {values[name]:.6g} {unit}")
    print(f"fail_ratio = {len(gate.failures)}/{gate.attempted}")
    if "unscaled_wall_s" in values:
        print(json.dumps({"unscaled_wall_s": values["unscaled_wall_s"]}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
