"""Lipschitz estimation, the 2*pi/L period bound, and multiplicity verdicts.

Any nonconstant periodic orbit of a field with Lipschitz constant L has
period at least 2*pi/L, so a forcing period T < 2*pi/L rules out
nonconstant unforced T-periodic orbits near a zero: the zero is then an
ejecting point and a branch of genuinely forced solutions emanates from
it.  The multiplicity verdict certifies the zeros of an
``analysis.DegreeReport``: it counts among the zeros whose degree was
computed, without scanning Phi again.  The Lipschitz constant is estimated
as the sampled maximum of the Jacobian operator 2-norm over a box; this is
a lower estimate, so the certification comparison applies a safety factor
on top of it.  The Jacobian of a chain field varies only with (u, v0, vb),
so the box is sampled on a tensor grid over those three axes alone
(``ExpandedField.jacobian_axes``).  The samples are taken in chunks of
``SAMPLE_CHUNK`` points up to dim 40, fewer above it so that a chunk holds
no more floats than at dim 40, and each chunk's central-difference
Jacobians come from one call of the column-batched field ``G_batch``.
"""
from __future__ import annotations

import math

import numpy as np

from . import analysis, chain

__all__ = ["CertReport", "MultiplicityReport", "lipschitz_estimate",
           "yorke_check", "certify_ejecting", "multiplicity_report"]

SAFETY_FACTOR = 1.1
DEFAULT_GRID = 7
SAMPLE_CHUNK = 128  # box samples per batched Jacobian call, up to dim 40


class CertReport:
    """Certification data for one zero."""

    __slots__ = ("zero", "box_radius", "lipschitz", "yorke_period_bound", "T",
                 "ejecting_certified", "notes")

    def __init__(self, zero: analysis.ZeroRecord, box_radius: float, lipschitz: float,
                 yorke_period_bound: float, T: float, ejecting_certified: bool,
                 notes: str):
        self.zero = zero
        self.box_radius = box_radius
        self.lipschitz = lipschitz
        self.yorke_period_bound = yorke_period_bound
        self.T = T
        self.ejecting_certified = ejecting_certified
        self.notes = notes

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


class MultiplicityReport:
    __slots__ = ("alpha", "beta", "certified_zeros", "n", "verdict")

    def __init__(self, alpha: float, beta: float, certified_zeros: tuple[CertReport, ...],
                 n: int, verdict: str):
        self.alpha = alpha
        self.beta = beta
        self.certified_zeros = certified_zeros
        self.n = n
        self.verdict = verdict

    def to_dict(self) -> dict:
        return {
            "interval": [self.alpha, self.beta],
            "certified": [c.to_dict() for c in self.certified_zeros],
            "n": self.n,
            "verdict": self.verdict,
        }


def _box_samples(center: np.ndarray, radius: float, grid_per_axis: int, axes):
    """The samples of the box center +- radius as (dim, k) column chunks:
    the tensor grid over ``axes`` in ``itertools.product`` order, every
    other coordinate at the center.  A chunk takes ``SAMPLE_CHUNK`` points
    up to dim 40 and ``SAMPLE_CHUNK`` * (40 / dim)^2 (at least 1) above it,
    so that its finite differences (2 dim shifted states and a dim x dim
    Jacobian per sample) hold no more floats than at dim 40."""
    dim = center.size
    chunk = min(SAMPLE_CHUNK, max(1, SAMPLE_CHUNK * 40**2 // dim**2))
    values = [np.linspace(center[i] - radius, center[i] + radius, grid_per_axis)
              for i in axes]
    total = grid_per_axis ** len(values)
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        idx = np.unravel_index(flat, (grid_per_axis,) * len(values))
        X = np.repeat(center[:, None], flat.size, axis=1)
        for i, v, j in zip(axes, values, idx):
            X[i] = v[j]
        yield X


def lipschitz_estimate(field: chain.ExpandedField, center, radius: float,
                       grid_per_axis: int = DEFAULT_GRID) -> float:
    """Sampled lower estimate of the local Lipschitz constant of G.

    Maximum of the operator 2-norm of the finite-difference Jacobian over
    the box center +- radius.  The Jacobian of a chain field varies only
    with (u, v0, vb), so the samples are the tensor grid of
    ``grid_per_axis`` points on each of those three axes, the other
    coordinates at the center: the same Jacobians as the full-box grid, up
    to finite-difference rounding.  The Jacobians of each chunk of at most
    ``SAMPLE_CHUNK`` samples come from one ``analysis.jacobian_fd`` call
    on ``field.G_batch``, which raises ``ArithmeticError`` naming the
    first sample whose Jacobian has a non-finite entry (a pole of the
    field in the box, or overflow).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    center = chain.as_state(center, field.dim)
    best = 0.0
    for X in _box_samples(center, radius, grid_per_axis, field.jacobian_axes):
        J = analysis.jacobian_fd(field.G_batch, X)
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
             f"(grid {grid_per_axis} per axis on (u, v0, vb), radius {radius:.6g}); "
             f"certification compares T against 2*pi/({SAFETY_FACTOR}*L).")
    return CertReport(zero=z, box_radius=float(radius), lipschitz=L,
                      yorke_period_bound=bound, T=p.T,
                      ejecting_certified=certified, notes=notes)


def multiplicity_report(p: chain.ProblemSpec, degree: analysis.DegreeReport,
                        radius: float | None = None,
                        grid_per_axis: int = DEFAULT_GRID) -> MultiplicityReport:
    """Certify every zero of a degree report and count the ejecting ones.

    When n of them certify, the equation has at least n T-periodic
    solutions with pairwise disjoint images for every sufficiently small
    positive forcing amplitude.
    """
    certs = tuple(certify_ejecting(p, z, radius, grid_per_axis)
                  for z in degree.zeros)
    n = sum(c.ejecting_certified for c in certs)
    if n > 0:
        verdict = (f"at least {n} T-periodic solutions with pairwise disjoint "
                   f"x-images exist for all sufficiently small lambda > 0 "
                   f"({n} certified ejecting sign-changing zeros)")
    else:
        verdict = ""
    return MultiplicityReport(alpha=degree.alpha, beta=degree.beta,
                              certified_zeros=certs, n=n, verdict=verdict)
