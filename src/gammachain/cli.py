"""Configuration loading, subcommand dispatch, and report serialization.

Subcommands: ``analyze`` (degree + multiplicity reports as JSON),
``branch`` (trace starting-point branches from every zero the scan finds,
certified or not, one CSV per seed plus a summary JSON), ``verify``
(oracle cross-check of a branch CSV).  Exit codes: 1 config, usage or
output, 2 admissibility, 3 numerical, 4 CSV schema mismatch.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, certify, chain, expr, oracle, orbit

__all__ = ["RunConfig", "ConfigError", "SchemaError", "load_config",
           "cmd_analyze", "cmd_branch", "cmd_verify", "main"]

EXIT_CONFIG = 1
EXIT_ADMISSIBILITY = 2
EXIT_NUMERICAL = 3
EXIT_SCHEMA = 4

LIFT_THRESHOLD = 1e-4
RESIDUAL_THRESHOLD = 1e-3
# rows per oracle pass in ``verify``.  A pass of 4 rows holds 0.06-0.16 MB
# per row (tracemalloc peak, dense samples included, on the example,
# long_period and long_chain benchmark reference CSVs); over row-by-row
# checks, chunks of 4 rows added 0.09-0.24 MB to the peak RSS of a cold
# verify of the example and long_chain reference CSVs, chunks of 8
# 0.11-0.76 MB and chunks of 16 0.48-1.8 MB (medians of 5, x86)
VERIFY_CHUNK = 4


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


class SchemaError(ValueError):
    """Branch CSV does not match the expected schema."""


class RunConfig:
    __slots__ = ("problem", "alpha", "beta", "grid_n", "continuation", "cert_radius",
                 "cert_grid")

    def __init__(self, problem: chain.ProblemSpec, alpha: float, beta: float, grid_n: int,
                 continuation: orbit.ContinuationParams, cert_radius: Optional[float],
                 cert_grid: int):
        self.problem = problem
        self.alpha = alpha
        self.beta = beta
        self.grid_n = grid_n
        self.continuation = continuation
        self.cert_radius = cert_radius
        self.cert_grid = cert_grid


_PROBLEM_KEYS = {"g", "phi", "f", "a", "b", "T"}
_INTERVAL_KEYS = {"alpha", "beta", "grid_n"}
_CONTINUATION_KEYS = set(orbit.ContinuationParams.__slots__)
_CERTIFY_KEYS = {"radius", "grid_per_axis"}
_TOP_KEYS = {"problem", "interval", "continuation", "certify"}


def _require_keys(d, allowed: set, required: set, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _number(d: dict, key: str, path: str) -> float:
    v = d[key]
    if not orbit.finite_number(v):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {orbit.shown(v)}")
    return float(v)


def _integer(d: dict, key: str, path: str) -> int:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {orbit.shown(v)}")
    if v > sys.maxsize:  # no array can be that long
        raise ConfigError(f"{path}.{key}: must be at most {sys.maxsize}, got {orbit.shown(v)}")
    return v


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, ValueError) as exc:
        # undecodable text, or an integer literal of more digits than int converts
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require_keys(raw, _TOP_KEYS, {"problem", "interval"}, "top level")

    prob = raw["problem"]
    _require_keys(prob, _PROBLEM_KEYS, _PROBLEM_KEYS, "problem")
    b = _integer(prob, "b", "problem")
    a = _number(prob, "a", "problem")
    T = _number(prob, "T", "problem")
    for key in ("g", "phi", "f"):
        if not isinstance(prob[key], str):
            raise ConfigError(f"problem.{key}: expected an expression string")
    try:
        # refuses a tree deeper than the walks of the commands can go
        problem = chain.ProblemSpec.from_strings(prob["g"], prob["phi"], prob["f"],
                                                 a, b, T)
    except (expr.ParseError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc
    except RecursionError as exc:  # the parser recurses
        raise ConfigError(f"problem: an expression is nested too deeply ({exc})") from exc

    interval = raw["interval"]
    _require_keys(interval, _INTERVAL_KEYS, _INTERVAL_KEYS, "interval")
    alpha = _number(interval, "alpha", "interval")
    beta = _number(interval, "beta", "interval")
    grid_n = _integer(interval, "grid_n", "interval")
    if not alpha < beta:
        raise ConfigError("interval: need alpha < beta")
    if grid_n < 2:
        raise ConfigError("interval.grid_n: must be >= 2")

    cont_raw = raw.get("continuation", {})
    _require_keys(cont_raw, _CONTINUATION_KEYS, set(), "continuation")
    try:
        continuation = orbit.ContinuationParams(**cont_raw)
    except (TypeError, ValueError) as exc:
        # the failure of one key reads "key: ...", as _number's does
        key = str(exc).partition(":")[0]
        raise ConfigError(f"continuation{'.' if key in cont_raw else ': '}{exc}") from exc

    cert_raw = raw.get("certify", {})
    _require_keys(cert_raw, _CERTIFY_KEYS, set(), "certify")
    cert_radius = None
    if "radius" in cert_raw:
        cert_radius = _number(cert_raw, "radius", "certify")
        if cert_radius <= 0:
            raise ConfigError("certify.radius: must be positive")
    cert_grid = certify.DEFAULT_GRID
    if "grid_per_axis" in cert_raw:
        cert_grid = _integer(cert_raw, "grid_per_axis", "certify")
        if cert_grid < 2:
            raise ConfigError("certify.grid_per_axis: must be >= 2")

    return RunConfig(problem=problem, alpha=alpha, beta=beta, grid_n=grid_n,
                     continuation=continuation, cert_radius=cert_radius,
                     cert_grid=cert_grid)


def cmd_analyze(cfg: RunConfig) -> dict:
    """Degree + multiplicity reports for the configured interval."""
    degree = analysis.degree_G(cfg.problem, cfg.alpha, cfg.beta, cfg.grid_n)
    mult = certify.multiplicity_report(cfg.problem, degree, cfg.cert_radius,
                                       cfg.cert_grid)
    return {"degree": degree.to_dict(), "multiplicity": mult.to_dict()}


def _csv_header(b: int) -> str:
    ps = ",".join(f"p{i}" for i in range(b + 1))
    return f"lambda,q,{ps},sup_norm,diameter,arclength,residual"


def write_branch_csv(path, b: int, points: list[orbit.BranchPoint]):
    lines = [_csv_header(b)]
    for bp in points:
        vals = ([bp.sp.lam] + [float(v) for v in bp.sp.xi0]
                + [bp.sup_norm, bp.diameter, bp.arclength, bp.sp.residual])
        lines.append(",".join(f"{v:.17g}" for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def read_branch_csv(path, b: int) -> list[orbit.BranchPoint]:
    """Parse a branch CSV; raises :class:`SchemaError` on mismatch."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SchemaError(f"branch CSV not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read branch CSV {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _csv_header(b):
        raise SchemaError(f"unexpected CSV header in {path}")
    n_cols = b + 2 + 5
    points = []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise SchemaError(f"{path}:{idx}: expected {n_cols} columns")
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise SchemaError(f"{path}:{idx}: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise SchemaError(f"{path}:{idx}: non-finite value")
        sp = orbit.StartingPoint(lam=vals[0], xi0=np.array(vals[1:b + 3]),
                                 residual=vals[-1])
        points.append(orbit.BranchPoint(sp=sp, sup_norm=vals[-4],
                                        diameter=vals[-3], arclength=vals[-2]))
    return points


def cmd_branch(cfg: RunConfig, out_dir, seed_index: int | None = None) -> dict:
    """Trace a branch from each zero of the scan; one CSV per seed.

    Per-seed failures are reported in the summary without aborting the
    other seeds.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    zeros = analysis.scan_zeros(cfg.problem, cfg.alpha, cfg.beta, cfg.grid_n)
    if seed_index is not None and not 0 <= seed_index < len(zeros):
        found = (f"{len(zeros)} zeros, valid indices are 0 to {len(zeros) - 1}"
                 if zeros else "no zeros")
        raise ConfigError(f"--seed-zero {seed_index}: the scan found {found}")
    field = chain.expand(cfg.problem)
    b = cfg.problem.kernel.b
    summary = {"seeds": [], "lambda_star_hint": None}
    best_lambda = None
    for idx, z in enumerate(zeros):
        if seed_index is not None and idx != seed_index:
            continue
        entry = {"index": idx, "zero": z.u_bar, "csv": None, "points": 0,
                 "status": None, "max_lambda": None, "fold_lambdas": []}
        trace = orbit.trace_from_zero(field, z.u_bar, cfg.continuation)
        points = trace.points
        entry["status"] = {"backward": trace.status_backward,
                           "forward": trace.status_forward}
        if trace.reason:
            entry["reason"] = trace.reason
        csv_path = out / f"branch_{idx}.csv"
        write_branch_csv(csv_path, b, points)
        entry["csv"] = csv_path.name
        entry["points"] = len(points)
        if points:
            mx = max(bp.sp.lam for bp in points)
            entry["max_lambda"] = mx
            entry["fold_lambdas"] = orbit.fold_lambdas(points)
            best_lambda = mx if best_lambda is None else max(best_lambda, mx)
        summary["seeds"].append(entry)
    summary["lambda_star_hint"] = best_lambda
    (out / "branch_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def cmd_verify(cfg: RunConfig, csv_path) -> dict:
    """Oracle cross-check of every row of a branch CSV, ``VERIFY_CHUNK``
    rows per pass of the oracle's array calls: each row's solve is sampled
    once on ``orbit.DENSE_SAMPLES`` points of the period and dropped, its
    x and xdot samples the tracks and the rest the chain coordinates."""
    p = cfg.problem
    points = read_branch_csv(csv_path, p.kernel.b)
    field = chain.expand(p)
    rows = []
    for start in range(0, len(points), VERIFY_CHUNK):
        chunk = points[start:start + VERIFY_CHUNK]
        Y = np.array([orbit.dense_samples(orbit.integrate(field, bp.sp.lam, bp.sp.xi0,
                                                          0.0, p.T)) for bp in chunk])
        x_track, xdot_track = (oracle.PeriodicTrack(Y[:, k], p.T) for k in (0, 1))
        lifts = oracle.verify_lift(p, Y[:, 2:], x_track, xdot_track)
        dres = oracle.direct_residual(p, [bp.sp.lam for bp in chunk], x_track)
        for bp, lift, res in zip(chunk, lifts.tolist(), dres.tolist()):
            rows.append({"lambda": bp.sp.lam, "verify_lift": lift, "direct_residual": res,
                         "pass": lift <= LIFT_THRESHOLD and res <= RESIDUAL_THRESHOLD})
    return {"rows": rows, "all_pass": all(row["pass"] for row in rows),
            "thresholds": {"verify_lift": LIFT_THRESHOLD,
                           "direct_residual": RESIDUAL_THRESHOLD}}


def _emit(doc: dict, out_dir, name: str):
    text = json.dumps(doc, indent=2)
    if out_dir is not None:
        (Path(out_dir) / name).write_text(text + "\n")
    print(text)


_NUMERICAL_ERRORS = (orbit.IntegrationError, orbit.NoConvergenceError,
                     orbit.SingularJacobianError, ArithmeticError)


def main(argv=None) -> int:
    import argparse  # only main parses arguments, so importing cli does not load it

    parser = argparse.ArgumentParser(
        prog="gammachain",
        description="Chain-trick reduction, degree certificates, and periodic "
                    "branch tracing for gamma-delay equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="degree and multiplicity reports")
    pa.add_argument("--config", required=True)
    pa.add_argument("--out", default=None, help="directory for JSON output")

    pb = sub.add_parser("branch", help="trace starting-point branches")
    pb.add_argument("--config", required=True)
    pb.add_argument("--out", default=".", help="directory for CSV/JSON output")
    pb.add_argument("--seed-zero", type=int, default=None,
                    help="restrict branching to the zero with this index")

    pv = sub.add_parser("verify", help="oracle cross-check of a branch CSV")
    pv.add_argument("csv", help="branch CSV produced by the branch command")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out", default=None, help="directory for JSON output")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # -h
            raise
        # argparse printed the usage error; its code 2 is the admissibility code
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        if args.out is not None:  # before any work, so that a bad --out wastes none
            Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.command == "analyze":
            _emit(cmd_analyze(cfg), args.out, "analysis.json")
        elif args.command == "branch":
            summary = cmd_branch(cfg, args.out, args.seed_zero)
            print(json.dumps(summary, indent=2))
        elif args.command == "verify":
            _emit(cmd_verify(cfg, args.csv), args.out, "verify.json")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read as ConfigError or SchemaError
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except analysis.AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
