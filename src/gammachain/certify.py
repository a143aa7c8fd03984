"""Lipschitz estimation, the 2*pi/L period bound, and multiplicity verdicts.

Any nonconstant periodic orbit of a field with Lipschitz constant L has
period at least 2*pi/L, so a forcing period T < 2*pi/L rules out
nonconstant unforced T-periodic orbits near a zero: the zero is then an
ejecting point and a branch of genuinely forced solutions emanates from
it.  The Lipschitz constant is estimated as the sampled maximum of the
Jacobian operator 2-norm over a box; this is a lower estimate, so the
certification comparison applies a safety factor on top of it.  The
samples are taken in chunks of ``SAMPLE_CHUNK`` points, and each chunk's
central-difference Jacobians come from one call of the column-batched
field ``G_batch``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, chain

__all__ = ["CertReport", "MultiplicityReport", "lipschitz_estimate",
           "yorke_check", "certify_ejecting", "multiplicity_report"]

SAFETY_FACTOR = 1.1
DEFAULT_GRID = 7
DENSE_AXES_CAP = 5
MC_POINTS = 10_000
MC_SEED = 0x5EED
SAMPLE_CHUNK = 128  # box samples per batched Jacobian call


@dataclass(frozen=True)
class CertReport:
    """Certification data for one zero."""

    zero: analysis.ZeroRecord
    box_radius: float
    lipschitz: float
    yorke_period_bound: float
    T: float
    ejecting_certified: bool
    notes: str

    def to_dict(self) -> dict:
        return {
            "zero": self.zero.to_dict(),
            "box_radius": self.box_radius,
            "lipschitz": self.lipschitz,
            "yorke_period_bound": self.yorke_period_bound,
            "T": self.T,
            "ejecting_certified": self.ejecting_certified,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class MultiplicityReport:
    alpha: float
    beta: float
    certified_zeros: tuple[CertReport, ...]
    n: int
    verdict: str

    def to_dict(self) -> dict:
        return {
            "interval": [self.alpha, self.beta],
            "certified": [c.to_dict() for c in self.certified_zeros],
            "n": self.n,
            "verdict": self.verdict,
        }


def _box_samples(center: np.ndarray, radius: float, grid_per_axis: int):
    """The samples of the box center +- radius as (dim, k) column chunks
    of at most ``SAMPLE_CHUNK`` points: the tensor grid in
    ``itertools.product`` order up to ``DENSE_AXES_CAP`` axes, else
    ``MC_POINTS`` uniform draws from a generator seeded with ``MC_SEED``."""
    dim = center.size
    if dim <= DENSE_AXES_CAP:
        axes = [np.linspace(c - radius, c + radius, grid_per_axis) for c in center]
        total = grid_per_axis ** dim
        for start in range(0, total, SAMPLE_CHUNK):
            flat = np.arange(start, min(start + SAMPLE_CHUNK, total))
            idx = np.unravel_index(flat, (grid_per_axis,) * dim)
            yield np.stack([ax[i] for ax, i in zip(axes, idx)])
    else:
        rng = np.random.default_rng(MC_SEED)
        for start in range(0, MC_POINTS, SAMPLE_CHUNK):
            k = min(SAMPLE_CHUNK, MC_POINTS - start)
            yield center[:, None] + rng.uniform(-radius, radius, size=(k, dim)).T


def lipschitz_estimate(field: chain.ExpandedField, center, radius: float,
                       grid_per_axis: int = DEFAULT_GRID) -> float:
    """Sampled lower estimate of the local Lipschitz constant of G.

    Maximum of the operator 2-norm of the finite-difference Jacobian over
    the box center +- radius: a full tensor grid up to 5 axes, Monte Carlo
    with 10^4 points (fixed seed) beyond.  The Jacobians of each chunk of
    at most ``SAMPLE_CHUNK`` samples come from one ``analysis.jacobian_fd``
    call on ``field.G_batch``.  Raises ``ArithmeticError`` naming the
    first sample whose Jacobian has a non-finite entry (a pole of the
    field in the box, or overflow).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    center = chain.as_state(center, field.dim)
    best = 0.0
    for X in _box_samples(center, radius, grid_per_axis):
        with np.errstate(all="ignore"):
            J = analysis.jacobian_fd(field.G_batch, X)
        bad = ~np.all(np.isfinite(J), axis=(1, 2))
        if np.any(bad):
            raise ArithmeticError(
                "non-finite Jacobian of G at box sample "
                f"{X[:, np.argmax(bad)].tolist()}")
        best = max(best, float(np.max(np.linalg.norm(J, 2, axis=(1, 2)))))
    return best


def yorke_check(L: float, T: float) -> tuple[float, bool]:
    """Return (2*pi/L, T < bound); the bound is +inf for L = 0."""
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if T <= 0:
        raise ValueError("period must be positive")
    bound = math.inf if L == 0.0 else 2.0 * math.pi / L
    return bound, T < bound


def certify_ejecting(p: chain.ProblemSpec, z: analysis.ZeroRecord,
                     radius: float | None = None,
                     grid_per_axis: int = DEFAULT_GRID) -> CertReport:
    """Certify a zero as ejecting: a nondegenerate sign-changing zero with
    forcing period strictly below the (safety-scaled) period bound."""
    field = chain.expand(p)
    if radius is None:
        radius = 0.1 * (1.0 + float(np.linalg.norm(z.lifted, np.inf)))
    L = lipschitz_estimate(field, z.lifted, radius, grid_per_axis)
    bound, _ = yorke_check(L, p.T)
    _, passes_safe = yorke_check(SAFETY_FACTOR * L, p.T)
    certified = passes_safe and z.nondegenerate and z.sign_change
    notes = (f"Lipschitz value is a sampled lower estimate "
             f"(grid {grid_per_axis} per axis, radius {radius:.6g}); "
             f"certification compares T against 2*pi/({SAFETY_FACTOR}*L).")
    return CertReport(zero=z, box_radius=float(radius), lipschitz=L,
                      yorke_period_bound=bound, T=p.T,
                      ejecting_certified=certified, notes=notes)


def multiplicity_report(p: chain.ProblemSpec, alpha: float, beta: float,
                        grid_n: int = 256, radius: float | None = None,
                        grid_per_axis: int = DEFAULT_GRID) -> MultiplicityReport:
    """Scan, certify every zero, and count the certified sign changers.

    When n of them certify, the equation has at least n T-periodic
    solutions with pairwise disjoint images for every sufficiently small
    positive forcing amplitude.
    """
    zeros = analysis.scan_zeros(p, alpha, beta, grid_n)
    certs = tuple(certify_ejecting(p, z, radius, grid_per_axis) for z in zeros)
    n = sum(1 for c in certs if c.ejecting_certified and c.zero.sign_change)
    if n > 0:
        verdict = (f"at least {n} T-periodic solutions with pairwise disjoint "
                   f"x-images exist for all sufficiently small lambda > 0 "
                   f"({n} certified ejecting sign-changing zeros)")
    else:
        verdict = ""
    return MultiplicityReport(alpha=float(alpha), beta=float(beta),
                              certified_zeros=certs, n=n, verdict=verdict)
