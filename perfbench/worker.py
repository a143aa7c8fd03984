"""Benchmark worker: runs gammachain commands in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the gammachain source tree, a config file, an output
directory, the commands to run and a result file.  The worker sets up
(``import gammachain``, ``load_config``, ``chain.expand``) and reports
the wall-clock time at which that was done; then it runs the job's
commands one after another, each timed: ``analyze`` (``cmd_analyze``),
``branch`` (``cmd_branch`` into the output directory) and ``verify``
(``cmd_verify`` on every CSV in the output directory).  With ``trace``
set, the commands run under tracing.py; otherwise a Speedometer samples
the machine's speed throughout.

``extra_work`` adds a fixed amount of work to every ``orbit.solve_ivp``
call: ``{"kind": "numpy", "amount": n}`` finds the eigenvalues of an
n × n matrix, ``{"kind": "python", "amount": n}`` runs an n-step
interpreter loop.  selftest.py uses it as a known change to check the
speed scaling against.

Command exceptions are recorded as errors, not raised; run.py
checks every output.
"""
from __future__ import annotations

import bisect
import functools
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np


PROBE_EVERY_S = 0.02   # process CPU time between two speed probes
PROBE_REF_S = 31e-6    # duration of one probe at the reference speed
SMOOTH = 2             # neighbours on each side in a probe's running median
_PROBE_VECTOR = np.linspace(0.0, 1.0, 64)


def _probe_loop():
    """Interpreter work and small NumPy operations, as the library mixes them."""
    acc = 0
    for i in range(250):
        acc += i * i
    x = _PROBE_VECTOR
    for _ in range(6):
        x = np.sin(x) * 0.5 + _PROBE_VECTOR
    return acc


class Speedometer:
    """Samples the speed this process gets from the machine while it runs.

    A shared machine switches between speeds about 1.6x apart, for CPU
    time as well as wall time, every second or so.  Every PROBE_EVERY_S of
    CPU time a SIGPROF handler times a fixed piece of work (after one
    untimed warm-up pass), so the probes run interleaved with
    the command and see the same switches.  ``scale`` integrates over
    them: each stretch of wall time up to a probe counts at the speed that
    probe saw (the running median of it and SMOOTH neighbours on each side,
    so that one probe hit by an interrupt does not count).  Every stretch
    counts by its length, so a probe that fires late, after a long NumPy
    call, stands for the whole call.  PROBE_REF_S fixes the reference
    speed: scaled times are wall times at the speed at which a probe takes
    PROBE_REF_S, between the duration in the fast state (about 25 us) and
    in the slow state (about 40 us) of the machine the benchmark was
    defined on.
    """

    def __init__(self):
        self.started = time.perf_counter()
        self.at = array("d")
        self.took = array("d")
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self, signum, frame):
        # untimed pass first, so that the timed one depends less on how
        # long ago the previous probe ran
        _probe_loop()
        start = time.perf_counter()
        _probe_loop()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def _slowness(self, j: int) -> float:
        j = min(j, len(self.took) - 1)
        return statistics.median(self.took[max(j - SMOOTH, 0):j + SMOOTH + 1])

    def scale(self, t0: float, t1: float) -> float:
        """Wall time at reference speed per wall second from t0 to t1."""
        if not self.took or t1 <= t0:
            return 1.0
        lo, hi = bisect.bisect_right(self.at, t0), bisect.bisect_right(self.at, t1)
        total, prev = 0.0, t0
        for j in range(lo, hi):
            total += (self.at[j] - prev) / self._slowness(j)
            prev = self.at[j]
        total += (t1 - prev) / self._slowness(hi)
        return PROBE_REF_S * total / (t1 - t0)


def _timed(fn, speed: Speedometer | None):
    """Run one command; an exception is recorded as its error, not raised.

    ``s`` is the wall time at reference speed, ``wall_s`` the wall time.
    """
    start = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # the run goes on; run.py counts the failure
        traceback.print_exc()
        value, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    scale = speed.scale(start, end) if speed else 1.0
    return {"s": (end - start) * scale, "wall_s": end - start,
            "value": value, "error": error}


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _add_extra_work(kind: str, amount: int):
    from gammachain import orbit

    matrix = np.random.default_rng(0).standard_normal((amount, amount))

    def extra():
        if kind == "numpy":  # one C call, no bytecode runs until it returns
            np.linalg.eigvals(matrix)
        else:
            acc = 0
            for i in range(amount):
                acc += i * i

    solve_ivp = orbit.solve_ivp

    @functools.wraps(solve_ivp)
    def slower(*args, **kwargs):
        extra()
        return solve_ivp(*args, **kwargs)

    orbit.solve_ivp = slower


def run(job: dict, speed: Speedometer | None, tracer) -> dict:
    if tracer is not None:
        tracer.install()
    from gammachain import chain, cli
    cfg = cli.load_config(job["config"])
    chain.expand(cfg.problem)
    result = {"ready_at": time.time()}
    if speed:
        result["speed_scale"] = speed.scale(speed.started, time.perf_counter())
    if job.get("extra_work"):
        _add_extra_work(**job["extra_work"])
    out = Path(job["out"])
    for command in job["commands"]:
        if command == "analyze":
            result["analyze"] = _timed(lambda: cli.cmd_analyze(cfg), speed)
        elif command == "branch":
            result["branch"] = _timed(
                lambda: cli.cmd_branch(cfg, out, job["seed_zero"]), speed)
        else:
            result["verify"] = [
                dict(_timed(lambda p=csv: cli.cmd_verify(cfg, p), speed), csv=csv.name)
                for csv in sorted(out.glob("branch_*.csv"))]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["layers"].update(_output_metrics(result, tracer))
        tracer.write_spans(job["spans"], job["meta"])
    return result


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    speed, tracer = None, None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
    else:
        speed = Speedometer()
    try:
        result = run(job, speed, tracer)
    finally:
        # stop probing before shutdown restores the default SIGPROF action
        signal.setitimer(signal.ITIMER_PROF, 0)
    Path(job["result"]).write_text(json.dumps(result, default=_json_default))
    return 0


def _output_metrics(result: dict, tracer) -> dict:
    """Per-layer metrics read from the command outputs of a traced round."""
    analysis = result["analyze"]["value"] or {}
    certified = analysis.get("multiplicity", {}).get("certified", [])
    seeds = (result["branch"]["value"] or {}).get("seeds", [])
    points = sum(entry["points"] for entry in seeds)
    rows = [row for cmd in result["verify"] if cmd["value"]
            for row in cmd["value"]["rows"]]
    integrations = tracer.counts["orbit.branch_integrations"]
    return {
        "certify.certified_zeros": sum(1 for c in certified if c["ejecting_certified"]),
        "orbit.points_per_integration": points / integrations if integrations else 0.0,
        "oracle.max_verify_lift": max((r["verify_lift"] for r in rows), default=0.0),
        "oracle.max_direct_residual": max((r["direct_residual"] for r in rows), default=0.0),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
