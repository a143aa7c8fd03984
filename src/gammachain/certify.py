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
on top of it.  The Jacobian DG of a chain field varies only with (u, v0,
vb), and only in rows 1 and 2, so DG^T DG = C + W W^T, with C fixed by the
other rows (``ExpandedField.constant_jacobian``) and W = [row 1, row 2];
sigma_max^2 is the largest root of a 2 x 2 secular equation in C's
eigenbasis (Golub, SIAM Review 15, 1973; Bunch, Nielsen and Sorensen,
Numer. Math. 31, 1978), O(dim) per sample.
"""
from __future__ import annotations

import math

import numpy as np

from . import analysis, chain

__all__ = ["CertReport", "MultiplicityReport", "lipschitz_estimate",
           "yorke_check", "certify_ejecting", "multiplicity_report"]

SAFETY_FACTOR = 1.1
DEFAULT_GRID = 7
SECULAR_MAX_ITER = 100  # safeguarded Newton steps per sample, at most
_TINY = np.finfo(float).tiny


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


def _largest_roots(lams: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of diag(lams) + U_s^T U_s for each (2, dim)
    slice U_s of the stack U: above top = lams.max(), the root of the least
    eigenvalue mu(x) of I - sum_k u_k u_k^T / (x - lams[k]) (u_k column k
    of U_s), which increases on (top, top + ||U_s||_F^2].  Newton steps on
    (x - top) mu(x), exact for a lone pole at the top, run from the upper
    end until a step is at most 4 ulp, bisecting where one leaves the
    bracket; where U_s has no weight on the top eigenvectors and mu >= 0
    down to the top, the root is the top."""
    w = np.stack((U[:, 0] * U[:, 0], U[:, 1] * U[:, 1], U[:, 0] * U[:, 1]), axis=1)
    top = lams.max()
    with np.errstate(all="ignore"):
        is_top = lams == top
        r = np.broadcast_to(np.where(is_top, 0.0, 1.0 / (top - lams)), w[:, 0].shape)
        clamped = ~np.any(U[:, :, is_top], axis=(1, 2)) & (_mu(w, r, r)[0] >= 0.0)
        roots = np.full(len(U), top)
        idx = np.flatnonzero(~clamped)
        w, lo = w[idx], roots[idx]
        x = hi = lo + w[:, 0].sum(axis=1) + w[:, 1].sum(axis=1)
        for _ in range(SECULAR_MAX_ITER):
            if not idx.size:
                break
            r = 1.0 / (x[:, None] - lams)
            f, slope = _mu(w, r, r * r)
            lo, hi = np.where(f < 0.0, x, lo), np.where(f < 0.0, hi, x)
            nxt = x - (x - top) * f / (f + (x - top) * slope)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            roots[idx] = nxt
            going = np.abs(nxt - x) > 4.0 * np.spacing(x)
            idx, w, lo, hi, x = (v[going] for v in (idx, w, lo, hi, nxt))
    return roots


def _mu(w, r, r2):
    """mu of ``_largest_roots`` and its slope, from w, the squares and
    product of U_s's rows, r = 1 / (x - lams) and r2 = r * r."""
    s11, s22, s12 = np.einsum("nkd,nd->kn", w, r)
    t11, t22, t12 = np.einsum("nkd,nd->kn", w, r2)
    half = 0.5 * (s22 - s11)
    rad = np.hypot(half, s12)
    slope = 0.5 * (t11 + t22) - (0.5 * half * (t11 - t22) - s12 * t12) / np.maximum(rad, _TINY)
    return 1.0 - 0.5 * (s11 + s22) - rad, slope


def lipschitz_estimate(field: chain.ExpandedField, center, radius: float,
                       grid_per_axis: int = DEFAULT_GRID) -> float:
    """Sampled lower estimate of the local Lipschitz constant of G.

    Maximum of the operator 2-norm of DG over the box center +- radius, on
    the tensor grid of ``grid_per_axis`` points on each of the axes (u,
    v0, vb) that DG varies with, the other coordinates at the center: the
    Jacobians of the full-box grid.  A sample's DG is
    ``field.constant_jacobian`` plus rows 1 and 2 in those columns, their
    central differences at every sample from one ``analysis.jacobian_fd``
    call, which raises ``ArithmeticError`` naming the first sample with a
    non-finite entry (a pole of the field in the box, or overflow).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    center = chain.as_state(center, field.dim)
    axes = list(field.jacobian_axes)
    points = np.array(np.meshgrid(
        *(np.linspace(center[i] - radius, center[i] + radius, grid_per_axis) for i in axes),
        indexing="ij")).reshape(len(axes), -1)

    def rows_1_2(P):
        X = np.repeat(center[:, None], P.shape[1], axis=1)
        X[axes] = P
        return field.G(X)[1:3]

    D = analysis.jacobian_fd(rows_1_2, points)
    K = field.constant_jacobian
    rows = np.delete(K, (1, 2), axis=0)
    lams, Q = np.linalg.eigh(rows.T @ rows)
    # rows 1 and 2 of DG in C's eigenbasis, O(dim) a sample
    U = K[1:3] @ Q + D @ Q[axes]
    L = math.sqrt(float(_largest_roots(lams, U).max()))
    if not math.isfinite(L):
        raise ArithmeticError(f"the Lipschitz estimate overflows around {center.tolist()}")
    return L


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
