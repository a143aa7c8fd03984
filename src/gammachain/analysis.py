"""Bifurcation function, zero scanning and topological degree counting.

Phi(u) = g(u, 0, phi(u, 0)); its transversal zeros carry the degree data.
The degree of the expanded field over a slab (alpha, beta) x R^(b+1) is
obtained from the sign count of Phi' and cross-checked against
finite-difference Jacobian determinants of the modified chain field, whose
determinant at a lifted zero equals (-1)^(b-1) * a^b * Phi'(u).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import chain, expr

__all__ = ["ZeroRecord", "DegreeReport", "AdmissibilityError",
           "DegenerateZeroError", "CrossCheckError",
           "phi_eval", "phi_prime", "scan_zeros", "degree_phi", "degree_G",
           "jacobian_fd", "modified_jacobian_det"]

ZERO_TOL = 1e-10
DEGENERACY_TOL = 1e-8
FD_STEP = 1e-6
MERGE_TOL = 1e-9
DET_CHECK_TOL = 1e-4


class AdmissibilityError(ValueError):
    """Phi vanishes at an interval endpoint; the degree is undefined there."""


class DegenerateZeroError(ArithmeticError):
    """A zero with |Phi'| below the degeneracy threshold."""


class CrossCheckError(ArithmeticError):
    """The two independent degree/determinant paths disagree."""


@dataclass(frozen=True)
class ZeroRecord:
    """A refined zero of Phi with its lifted point and Jacobian data."""

    u_bar: float
    phi_prime: float
    lifted: np.ndarray
    det_fd: float
    det_formula: float
    nondegenerate: bool
    sign_change: bool

    def to_dict(self) -> dict:
        return {
            "u": self.u_bar,
            "phi_prime": self.phi_prime,
            "lifted": [float(v) for v in self.lifted],
            "det_fd": self.det_fd,
            "det_formula": self.det_formula,
            "nondegenerate": self.nondegenerate,
            "sign_change": self.sign_change,
        }


@dataclass(frozen=True)
class DegreeReport:
    alpha: float
    beta: float
    zeros: tuple[ZeroRecord, ...]
    deg_phi: int
    deg_G: int
    admissible: bool

    def to_dict(self) -> dict:
        return {
            "interval": [self.alpha, self.beta],
            "zeros": [z.to_dict() for z in self.zeros],
            "deg_phi": self.deg_phi,
            "deg_G": self.deg_G,
            "admissible": self.admissible,
        }


def phi_eval(p: chain.ProblemSpec, u: float) -> float:
    """Phi(u) = g(u, 0, phi(u, 0))."""
    g, phi, _ = chain._compiled(p)
    return g(float(u), 0.0, phi(float(u), 0.0))


@lru_cache(maxsize=128)
def _phi_prime_parts(p: chain.ProblemSpec):
    """Compiled partials for Phi'(u) = d1 g + d3 g * d1 phi, or None if the
    symbolic derivative is unavailable."""
    try:
        dg0 = expr.compile_expr(expr.diff(p.g, "x0"), chain.G_VARS)
        dg2 = expr.compile_expr(expr.diff(p.g, "x2"), chain.G_VARS)
        dphi = expr.compile_expr(expr.diff(p.phi, "p"), chain.PHI_VARS)
    except expr.DifferentiationError:
        return None
    return dg0, dg2, dphi


def phi_prime(p: chain.ProblemSpec, u: float) -> float:
    """Phi'(u), symbolic where possible, central finite difference otherwise."""
    u = float(u)
    parts = _phi_prime_parts(p)
    if parts is not None:
        dg0, dg2, dphi = parts
        _, phi, _ = chain._compiled(p)
        try:
            w = phi(u, 0.0)
            val = dg0(u, 0.0, w) + dg2(u, 0.0, w) * dphi(u, 0.0)
            if np.isfinite(val):
                return float(val)
        except (ZeroDivisionError, ValueError, OverflowError):
            pass  # kink (e.g. abs at 0); fall through to finite differences
    h = FD_STEP
    return (phi_eval(p, u + h) - phi_eval(p, u - h)) / (2.0 * h)


def jacobian_fd(fun, X: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobians at the N columns of ``X``.

    ``fun`` is column-batched: it maps an (n, M) array of states to the
    (m, M) array of their images.  All 2nN shifted states x +- h e_j
    (h = ``FD_STEP``) go through one call of ``fun``; the result is the
    (N, m, n) stack whose column j is (fun(x + h e_j) - fun(x - h e_j)) / 2h.
    """
    X = np.asarray(X, dtype=float)
    n, N = X.shape
    steps = FD_STEP * np.eye(n)[:, :, None]
    shifted = np.concatenate((X[:, None, :] + steps, X[:, None, :] - steps),
                             axis=1)
    images = np.asarray(fun(shifted.reshape(n, 2 * n * N)), dtype=float)
    images = images.reshape(-1, 2, n, N)
    return ((images[:, 0] - images[:, 1]) / (2.0 * FD_STEP)).transpose(2, 0, 1)


def modified_jacobian_det(p: chain.ProblemSpec, point: np.ndarray) -> float:
    """det of the finite-difference Jacobian of the modified chain field."""
    field = chain.expand(p)
    column = np.asarray(point, dtype=float).reshape(-1, 1)
    J = jacobian_fd(chain.columnwise(field.G_modified), column)[0]
    return float(np.linalg.det(J))


def _bisect(fun, lo: float, hi: float, flo: float) -> float:
    """Bisection on a sign-change bracket to width 1e-12 * (1 + |u|).

    Refinement continues below that width while the residual still exceeds
    the zero tolerance, so records honor |Phi(u_bar)| <= 1e-10 even for
    steep crossings (float resolution permitting).
    """
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if width <= 1e-12 * (1.0 + abs(mid)) and abs(fm) <= ZERO_TOL:
            return mid
        if width <= 8.0 * np.finfo(float).eps * (1.0 + abs(mid)):
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return mid


def _make_record(p: chain.ProblemSpec, u: float) -> ZeroRecord:
    a = p.kernel.a
    b = p.kernel.b
    dphi = phi_prime(p, u)
    lifted = chain.lifted_zero(p, u)
    det_formula = (-1.0) ** (b - 1) * a**b * dphi
    det_fd = modified_jacobian_det(p, lifted)
    nondeg = abs(dphi) > DEGENERACY_TOL
    delta = 1e-6 * (1.0 + abs(u))
    sign_change = phi_eval(p, u - delta) * phi_eval(p, u + delta) < 0.0
    if nondeg and abs(det_fd - det_formula) > DET_CHECK_TOL * (1.0 + abs(det_formula)):
        raise CrossCheckError(
            f"determinant mismatch at u={u:.12g}: fd={det_fd:.6e} "
            f"formula={det_formula:.6e}")
    return ZeroRecord(u_bar=float(u), phi_prime=float(dphi), lifted=lifted,
                      det_fd=det_fd, det_formula=det_formula,
                      nondegenerate=nondeg, sign_change=sign_change)


def scan_zeros(p: chain.ProblemSpec, alpha: float, beta: float,
               grid_n: int = 256) -> list[ZeroRecord]:
    """Grid scan of Phi on [alpha, beta] with bisection refinement.

    Raises :class:`AdmissibilityError` when Phi vanishes at an endpoint.
    Zeros closer than 1e-9 after refinement are merged.
    """
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    us = np.linspace(alpha, beta, grid_n + 1)
    vals = np.array([phi_eval(p, u) for u in us])
    if abs(vals[0]) <= ZERO_TOL or abs(vals[-1]) <= ZERO_TOL:
        raise AdmissibilityError(
            f"Phi vanishes at an endpoint of ({alpha}, {beta})")

    f = lambda u: phi_eval(p, u)
    roots: list[float] = []
    for k in range(1, grid_n):
        if abs(vals[k]) <= ZERO_TOL:
            # the grid point already satisfies the zero tolerance; keep it
            roots.append(float(us[k]))
    for k in range(grid_n):
        flo, fhi = vals[k], vals[k + 1]
        if abs(flo) > ZERO_TOL and abs(fhi) > ZERO_TOL and flo * fhi < 0:
            roots.append(_bisect(f, float(us[k]), float(us[k + 1]), flo))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= MERGE_TOL * (1.0 + abs(r)):
            continue
        merged.append(r)
    return [_make_record(p, r) for r in merged]


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _degree_from_records(p, alpha, beta, records) -> int:
    degenerate = [z.u_bar for z in records if not z.nondegenerate]
    if degenerate:
        raise DegenerateZeroError(
            f"degenerate zeros (|Phi'| <= {DEGENERACY_TOL}): {degenerate}")
    total = sum(_sign(z.phi_prime) for z in records)
    boundary = (_sign(phi_eval(p, beta)) - _sign(phi_eval(p, alpha))) // 2
    if total != boundary:
        raise CrossCheckError(
            f"sign-count degree {total} disagrees with boundary formula {boundary}")
    return total


def degree_phi(p: chain.ProblemSpec, alpha: float, beta: float,
               grid_n: int = 256) -> int:
    """deg(Phi, (alpha, beta)): sum of sign(Phi') over the interior zeros,
    cross-checked against (sign Phi(beta) - sign Phi(alpha)) / 2."""
    records = scan_zeros(p, alpha, beta, grid_n)
    return _degree_from_records(p, alpha, beta, records)


def degree_G(p: chain.ProblemSpec, alpha: float, beta: float,
             grid_n: int = 256) -> DegreeReport:
    """Degree of the chain field over (alpha, beta) x R^(b+1).

    Computed as (-1)^(b-1) * deg(Phi) and verified independently by summing
    Jacobian-determinant signs of the modified field at the lifted zeros.
    """
    records = scan_zeros(p, alpha, beta, grid_n)
    dphi = _degree_from_records(p, alpha, beta, records)
    b = p.kernel.b
    deg_g = (-1) ** (b - 1) * dphi
    jac_sum = sum(_sign(z.det_fd) for z in records)
    if jac_sum != deg_g:
        raise CrossCheckError(
            f"Jacobian-sign degree {jac_sum} disagrees with "
            f"(-1)^(b-1)*deg_phi = {deg_g}")
    return DegreeReport(alpha=float(alpha), beta=float(beta),
                        zeros=tuple(records), deg_phi=dphi, deg_G=deg_g,
                        admissible=True)
