"""Bifurcation function, zero scanning and topological degree counting.

Phi(u) = g(u, 0, phi(u, 0)); its transversal zeros carry the degree data.
The degree of the expanded field G over a slab (alpha, beta) x R^(b+1) is
obtained from the sign count of Phi' and cross-checked against
finite-difference Jacobian determinants of G itself: expanding det DG
along its first row gives (-1)^(b-1) * a^b * Phi'(u) at a lifted zero.
``jacobian_fd`` is the one central-difference Jacobian of the package; it
raises ``ArithmeticError`` on a non-finite entry, for the determinants
and the Lipschitz sampler alike.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import chain, expr

__all__ = ["ZeroRecord", "DegreeReport", "AdmissibilityError",
           "DegenerateZeroError", "CrossCheckError",
           "phi_eval", "phi_prime", "scan_zeros", "degree_G",
           "jacobian_fd"]

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


class ZeroRecord:
    """A refined zero of Phi with its lifted point and Jacobian data;
    ``det_sign`` is the sign of det DG, which the degree count reads, as
    ``det_fd`` may be a string (:func:`_det`)."""

    __slots__ = ("u_bar", "phi_prime", "lifted", "det_fd", "det_formula",
                 "det_sign", "nondegenerate", "sign_change")

    def __init__(self, u_bar: float, phi_prime: float, lifted: np.ndarray,
                 det_fd: float | str, det_formula: float | str, det_sign: int,
                 nondegenerate: bool, sign_change: bool):
        self.u_bar = u_bar
        self.phi_prime = phi_prime
        self.lifted = lifted
        self.det_fd = det_fd
        self.det_formula = det_formula
        self.det_sign = det_sign
        self.nondegenerate = nondegenerate
        self.sign_change = sign_change

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


class DegreeReport:
    __slots__ = ("alpha", "beta", "zeros", "deg_phi", "deg_G", "admissible")

    def __init__(self, alpha: float, beta: float, zeros: tuple[ZeroRecord, ...],
                 deg_phi: int, deg_G: int, admissible: bool):
        self.alpha = alpha
        self.beta = beta
        self.zeros = zeros
        self.deg_phi = deg_phi
        self.deg_G = deg_G
        self.admissible = admissible

    def to_dict(self) -> dict:
        return {
            "interval": [self.alpha, self.beta],
            "zeros": [z.to_dict() for z in self.zeros],
            "deg_phi": self.deg_phi,
            "deg_G": self.deg_G,
            "admissible": self.admissible,
        }


def phi_eval(p: chain.ProblemSpec, u: float) -> float:
    """Phi(u) = g(u, 0, phi(u, 0)); math-domain errors raise EvalError."""
    g, phi, _ = chain._compiled(p)
    try:
        return g(float(u), 0.0, phi(float(u), 0.0))
    except ValueError as exc:
        raise expr.EvalError(f"Phi({float(u)!r}): {exc}") from exc


@lru_cache(maxsize=128)
def _phi_prime_parts(p: chain.ProblemSpec):
    """Compiled partials for Phi'(u) = d1 g + d3 g * d1 phi, or None if a
    symbolic derivative is unavailable or too deep (``chain._too_deep``;
    that of a product chain is about twice as deep as the chain)."""
    try:
        trees = (expr.diff(p.g, "x0"), expr.diff(p.g, "x2"), expr.diff(p.phi, "p"))
    except expr.DifferentiationError:
        return None
    if any(map(chain._too_deep, trees)):
        return None
    return tuple(expr.compile_expr(tree, names)
                 for tree, names in zip(trees, (chain.G_VARS, chain.G_VARS, chain.PHI_VARS)))


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
    ``fun`` runs with floating-point warnings silenced; a Jacobian with a
    non-finite entry (a pole within one step of its state, or overflow)
    raises ``ArithmeticError`` naming the first such state.
    """
    X = np.asarray(X, dtype=float)
    n, N = X.shape
    steps = FD_STEP * np.eye(n)[:, :, None]
    shifted = np.concatenate((X[:, None, :] + steps, X[:, None, :] - steps),
                             axis=1)
    with np.errstate(all="ignore"):
        images = np.asarray(fun(shifted.reshape(n, 2 * n * N)), dtype=float)
        images = images.reshape(-1, 2, n, N)
        J = ((images[:, 0] - images[:, 1]) / (2.0 * FD_STEP)).transpose(2, 0, 1)
    bad = ~np.all(np.isfinite(J), axis=(1, 2))
    if np.any(bad):
        raise ArithmeticError(
            f"non-finite Jacobian at state {X[:, np.argmax(bad)].tolist()}")
    return J


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


def _det(value: float, sign: float, log_abs: float):
    """A determinant as the JSON reports it: ``value`` where it is a finite
    normal float or the determinant is 0, otherwise, where it overflows or
    underflows, the string ``"<sign>d.ddddddddddde<exponent>"`` of
    ``sign * exp(log_abs)`` to 12 significant digits."""
    if sign == 0:
        return value if math.isfinite(value) else 0.0
    if math.isfinite(value) and abs(value) >= np.finfo(float).tiny:
        return value
    exponent = math.floor(log_abs / math.log(10))
    mantissa = math.exp(log_abs - exponent * math.log(10))
    if round(mantissa, 11) >= 10.0:
        mantissa, exponent = mantissa / 10.0, exponent + 1
    return f"{'-' if sign < 0 else ''}{mantissa:.11f}e{exponent:+d}"


def _make_record(p: chain.ProblemSpec, u: float) -> ZeroRecord:
    """The record of the zero ``u`` of Phi.  det DG and its formula
    (-1)^(b-1) * a^b * Phi'(u) are cross-checked as floats where both are
    finite normal floats; where either overflows or underflows, as a^b
    does for large b, by their signs and log|det| (``np.linalg.slogdet``
    against b log a + log|Phi'|)."""
    a = p.kernel.a
    b = p.kernel.b
    dphi = phi_prime(p, u)
    lifted = chain.lifted_zero(p, u)
    J = jacobian_fd(chain.expand(p).G_batch, lifted[:, None])[0]
    sign_fd, log_fd = np.linalg.slogdet(J)
    sign_formula = (-1) ** (b - 1) * _sign(dphi)
    log_formula = b * math.log(a) + (math.log(abs(dphi)) if dphi else -math.inf)
    try:
        det_formula = (-1.0) ** (b - 1) * a**b * dphi
    except OverflowError:
        det_formula = math.inf
    with np.errstate(over="ignore", under="ignore"):
        det_fd = float(np.linalg.det(J))
    det_fd = _det(det_fd, sign_fd, log_fd)
    det_formula = _det(det_formula, sign_formula, log_formula)
    nondeg = abs(dphi) > DEGENERACY_TOL
    delta = 1e-6 * (1.0 + abs(u))
    sign_change = phi_eval(p, u - delta) * phi_eval(p, u + delta) < 0.0
    if isinstance(det_fd, float) and isinstance(det_formula, float):
        mismatch = abs(det_fd - det_formula) > DET_CHECK_TOL * (1.0 + abs(det_formula))
    else:
        mismatch = sign_fd != sign_formula or abs(log_fd - log_formula) > DET_CHECK_TOL
    if nondeg and mismatch:
        raise CrossCheckError(
            f"determinant mismatch at u={u:.12g}: fd={det_fd} formula={det_formula}")
    return ZeroRecord(u_bar=float(u), phi_prime=float(dphi), lifted=lifted,
                      det_fd=det_fd, det_formula=det_formula, det_sign=int(sign_fd),
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


def degree_G(p: chain.ProblemSpec, alpha: float, beta: float,
             grid_n: int = 256) -> DegreeReport:
    """The zeros of Phi on (alpha, beta) and the degree of the chain field
    over (alpha, beta) x R^(b+1).

    deg(Phi) is the sum of sign(Phi') over the zeros, cross-checked against
    (sign Phi(beta) - sign Phi(alpha)) / 2.  deg G = (-1)^(b-1) * deg(Phi)
    is verified independently by summing the signs of the finite-difference
    Jacobian determinants of G at the lifted zeros.
    """
    records = scan_zeros(p, alpha, beta, grid_n)
    degenerate = [z.u_bar for z in records if not z.nondegenerate]
    if degenerate:
        raise DegenerateZeroError(
            f"degenerate zeros (|Phi'| <= {DEGENERACY_TOL}): {degenerate}")
    dphi = sum(_sign(z.phi_prime) for z in records)
    boundary = (_sign(phi_eval(p, beta)) - _sign(phi_eval(p, alpha))) // 2
    if dphi != boundary:
        raise CrossCheckError(
            f"sign-count degree {dphi} disagrees with boundary formula {boundary}")
    deg_g = (-1) ** (p.kernel.b - 1) * dphi
    jac_sum = sum(z.det_sign for z in records)
    if jac_sum != deg_g:
        raise CrossCheckError(
            f"Jacobian-sign degree {jac_sum} disagrees with "
            f"(-1)^(b-1)*deg_phi = {deg_g}")
    return DegreeReport(alpha=float(alpha), beta=float(beta),
                        zeros=tuple(records), deg_phi=dphi, deg_G=deg_g,
                        admissible=True)
