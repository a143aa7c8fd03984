"""In-memory spans and counters for one traced benchmark round.

The tracer measures gammachain from outside.  It replaces public functions
on the library's modules with wrappers that record a span around each call.
No file under ``src/`` changes: the modules call one another through module
attributes (``orbit.solve_ivp``, ``orbit.period_map``,
``oracle.history_convolution``, ``oracle.gamma_eval``, ``analysis.jacobian_fd``,
``chain.expand`` ...), so a patched attribute is seen by every caller,
callers inside the same module included.

A span is (name, start, end, parent).  The layer of a span is the part of
its name before the first dot, and a layer's self time is the time of its
spans minus the time of their child spans.  The field callables ``G`` and
``F`` run hundreds of thousands of times per round, so they are counted and
timed without a span record; their time still counts as child time of the
enclosing span, and as self time of the ``chain`` layer.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "expr", "chain", "kernel", "analysis", "certify", "orbit",
          "oracle")

# (module name, attribute) wrapped with a span named "<module>.<attribute>"
_SPANS = (
    ("cli", "load_config"), ("cli", "write_branch_csv"),
    ("cli", "read_branch_csv"), ("cli", "cmd_analyze"), ("cli", "cmd_branch"),
    ("cli", "cmd_verify"),
    ("expr", "compile_expr"),
    ("analysis", "degree_G"), ("analysis", "scan_zeros"),
    ("certify", "multiplicity_report"), ("certify", "certify_ejecting"),
    ("certify", "lipschitz_estimate"),
    ("orbit", "period_map"), ("orbit", "integrate"),
    ("orbit", "newton_periodic"), ("orbit", "trace_from_zero"),
    ("oracle", "history_convolution"), ("oracle", "verify_lift"),
    ("oracle", "direct_residual"),
)


class Tracer:
    """Span recorder; ``install`` patches gammachain, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []      # [span index, child seconds] per open span
        self._open = defaultdict(int)     # open spans per name
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)  # inclusive seconds per name
        self.self_seconds = defaultdict(float)  # per layer
        self.counts = defaultdict(int)
        self._patches: list[tuple] = []
        self._fields: dict[int, tuple] = {}

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call records a span; ``after(result, args)``
        runs on each successful return."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            self._stack.append(frame)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.span_start[idx] = start
                self.span_end[idx] = end
                self._account(name, layer, end - start, frame[1])
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Count and time ``fn`` without a span record."""
        layer = name.split(".", 1)[0]

        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self._account(name, layer, time.perf_counter() - start, 0.0)

        return wrapper

    def _account(self, name, layer, duration, child):
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        from gammachain import (analysis, certify, chain, cli, expr, kernel,
                                oracle, orbit)
        modules = {"cli": cli, "expr": expr, "analysis": analysis,
                   "certify": certify, "orbit": orbit, "oracle": oracle}
        for mod, attr in _SPANS:
            owner = modules[mod]
            self._patch(owner, attr,
                        self.span(f"{mod}.{attr}", getattr(owner, attr)))

        self._patch(analysis, "jacobian_fd",
                    self.span("analysis.jacobian_fd", analysis.jacobian_fd,
                              after=self._after_jacobian))
        gamma_eval = self.span("kernel.gamma_eval", kernel.gamma_eval)
        self._patch(kernel, "gamma_eval", gamma_eval)
        self._patch(oracle, "gamma_eval", gamma_eval)
        self._patch(oracle, "tail_horizon",
                    self.span("kernel.tail_horizon", oracle.tail_horizon))
        self._patch(oracle.PeriodicTrack, "value",
                    self.span("oracle.track_value", oracle.PeriodicTrack.value,
                              after=self._after_track_value))
        self._patch(orbit, "solve_ivp",
                    self.span("orbit.solve_ivp", self._counted_solver(orbit.solve_ivp)))
        self._patch(chain, "expand", self.span("chain.expand",
                                               self._counted_expand(chain.expand)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_jacobian(self, result, args):
        if self._open["certify.lipschitz_estimate"]:
            self.counts["certify.lipschitz_samples"] += 1

    def _after_track_value(self, result, args):
        self.counts["oracle.track_value.points"] += int(getattr(args[1], "size", 1))

    def _counted_solver(self, solve_ivp):
        import numpy as np

        def solve(*args, **kwargs):
            if self._open["cli.cmd_branch"]:
                self.counts["orbit.branch_integrations"] += 1
            try:
                sol = solve_ivp(*args, **kwargs)
            except Exception:
                self.counts["orbit.integration_errors"] += 1
                raise
            self.counts["orbit.rhs_evals"] += int(sol.nfev)
            self.counts["orbit.steps"] += max(int(sol.t.size) - 1, 0)
            if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
                self.counts["orbit.integration_errors"] += 1
            return sol

        return solve

    def _counted_expand(self, expand):
        def counted(p):
            field = expand(p)
            if id(field) not in self._fields:
                counted_field = dataclasses.replace(
                    field, G=self.leaf("chain.G", field.G),
                    F=self.leaf("chain.F", field.F))
                # keep the original alive so its id is not reused
                self._fields[id(field)] = (field, counted_field)
            return self._fields[id(field)][1]

        return counted

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics gathered from spans and counters."""
        c, s, n = self.calls, self.seconds, self.counts
        m = {
            "cli.load_config.s": s["cli.load_config"],
            "cli.write_branch_csv.s": s["cli.write_branch_csv"],
            "cli.read_branch_csv.s": s["cli.read_branch_csv"],
            "expr.compile_expr.calls": c["expr.compile_expr"],
            "expr.compile_expr.s": s["expr.compile_expr"],
            "chain.G.evals": c["chain.G"],
            "chain.G.s": s["chain.G"],
            "chain.F.evals": c["chain.F"],
            "certify.lipschitz_samples": n["certify.lipschitz_samples"],
            "orbit.integrations": c["orbit.solve_ivp"],
            "orbit.rhs_evals": n["orbit.rhs_evals"],
            "orbit.steps": n["orbit.steps"],
            "orbit.solve_s": s["orbit.solve_ivp"],
            "orbit.trace_from_zero.s": s["orbit.trace_from_zero"],
            "orbit.integration_errors": n["orbit.integration_errors"],
            "oracle.verify_lift.s": s["oracle.verify_lift"],
            "oracle.direct_residual.s": s["oracle.direct_residual"],
            "oracle.track_value.points": n["oracle.track_value.points"],
        }
        for name in ("kernel.gamma_eval", "kernel.tail_horizon",
                     "analysis.scan_zeros", "analysis.jacobian_fd",
                     "certify.lipschitz_estimate", "orbit.period_map",
                     "orbit.integrate", "orbit.newton_periodic",
                     "oracle.history_convolution", "oracle.track_value"):
            m[f"{name}.calls"] = c[name]
            m[f"{name}.s"] = s[name]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_seconds[layer]
        return m

    def write_spans(self, path, meta: dict):
        """Write every recorded span, gzip-compressed JSON, columns by name."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        doc = {"meta": meta, "names": self.names,
               "name": list(self.span_name),
               "start": [t - t0 for t in self.span_start],
               "end": [t - t0 for t in self.span_end],
               "parent": list(self.span_parent)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
