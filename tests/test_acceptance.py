"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.

Criterion 4's Lipschitz clause has its own test.  It pins the sampled
estimate on each radius-0.1 box of the worked example to the exact 2-norm
Lipschitz constant, computed from the Jacobian written out by hand, and
checks that this constant leaves room for certification at T = 1.  The
literal bound "< 2" is not attainable in any norm: at the origin the
Jacobian has the defective eigenvalue -2, so every induced norm there is
strictly above 2, and at u = 1 the spectral radius is already 3.27.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

import helpers
from gammachain import analysis, certify, chain, expr, kernel, oracle, orbit


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kernel_mass():
    kernel.tail_horizon.cache_clear()
    start = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 8.0):
        for b in (1, 2, 3, 5, 10):
            k = kernel.GammaKernel(a, b)
            mass = helpers.quadrature_mass(k, kernel.tail_horizon(k, 1e-12))
            worst = max(worst, abs(mass - 1.0))
    elapsed = time.perf_counter() - start
    report("1 kernel mass", worst <= 1e-8 and elapsed < 1.0,
           f"worst |mass-1| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_determinant_formula():
    suite = helpers.transversal_suite(20)
    start = time.perf_counter()
    worst = 0.0
    n_zeros = 0
    for problem, roots, slopes in suite:
        a, b = problem.kernel.a, problem.kernel.b
        for rec in analysis.scan_zeros(problem, -2.5, 2.5, 400):
            want = (-1.0) ** (b - 1) * a**b * rec.phi_prime
            rel = abs(rec.det_fd - want) / (1.0 + abs(want))
            worst = max(worst, rel)
            n_zeros += 1
    elapsed = time.perf_counter() - start
    report("2 determinant formula", worst <= 1e-4 and elapsed < 5.0,
           f"{n_zeros} lifted zeros, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_degree_product_formula():
    suite = helpers.transversal_suite(20)
    start = time.perf_counter()
    ok = True
    for problem, roots, slopes in suite:
        b = problem.kernel.b
        expected_phi = int(np.sum(np.sign(slopes)))
        rep = analysis.degree_G(problem, -2.5, 2.5, 400)
        ok = ok and rep.deg_phi == expected_phi
        ok = ok and rep.deg_G == (-1) ** (b - 1) * expected_phi
    elapsed = time.perf_counter() - start
    report("3 degree product formula", ok and elapsed < 5.0,
           f"20 problems, b in {{1,2,3,5}}, {elapsed:.2f}s")


def test_criterion_04_example_analysis(example_problem):
    start = time.perf_counter()
    recs = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
    ok = len(recs) == 2
    ok = ok and abs(recs[0].u_bar - 0.0) <= 1e-10
    ok = ok and abs(recs[1].u_bar - 1.0) <= 1e-10
    # derivative values at the zeros, as a set
    primes = sorted(z.phi_prime for z in recs)
    ok = ok and abs(primes[0] - (-1.0)) <= 1e-6 and abs(primes[1] - 1.0) <= 1e-6
    ok = ok and np.array_equal(recs[0].lifted, np.array([0.0, 0.0, 0.0, 0.0]))
    ok = ok and np.array_equal(recs[1].lifted, np.array([1.0, 0.0, -1.0, -1.0]))
    certs = [certify.certify_ejecting(example_problem, z, radius=0.1)
             for z in recs]
    ok = ok and all(c.ejecting_certified for c in certs)
    elapsed = time.perf_counter() - start
    detail = (f"zeros {[z.u_bar for z in recs]}, primes {primes}, "
              f"L = {[round(c.lipschitz, 3) for c in certs]}, both certified, "
              f"{elapsed:.2f}s")
    report("4 example analysis", ok and elapsed < 10.0, detail)


def _example_jacobian(x: float, y2: float) -> np.ndarray:
    """Jacobian of the worked example's chain field at state (x, v, y1, y2).

    G = (v, g(x, v, y2), a*(phi(x, v) - y1), a*(y1 - y2)) with
    g = -x0*(1+x2), phi = q - p, a = 2, b = 2.
    """
    a = 2.0
    return np.array([[0.0, 1.0, 0.0, 0.0],
                     [-(1.0 + y2), 0.0, 0.0, -x],
                     [-a, a, -a, 0.0],
                     [0.0, 0.0, a, -a]])


def test_criterion_04_lipschitz_below_two(example_problem):
    # The example's Jacobian is affine in (x, y2) and constant in (v, y1),
    # so its 2-norm is convex on a box and peaks at one of the four
    # (x, y2) corners; the 7-point grid of lipschitz_estimate contains
    # them, so the sampled estimate must equal the exact constant.
    #
    # Why a bound of 2 cannot hold in any norm: J(0) has
    # eigenvalues +-i and -2, -2 with rank(J(0) + 2I) = 3, so -2 is a
    # defective eigenvalue of maximal modulus and every induced norm of
    # J(0) is strictly above the spectral radius 2 (otherwise ||J^k|| would
    # stay <= 2^k, but it grows like k*2^(k-1)).  At u = 1 the spectral
    # radius alone is 3.27.  The threshold the method does use is the
    # certification bound 2*pi/(SAFETY_FACTOR*T).
    recs = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
    certs = [certify.certify_ejecting(example_problem, z, radius=0.1)
             for z in recs]
    exact = []
    for c in certs:
        x, _, _, y2 = c.zero.lifted
        r = c.box_radius
        corners = [_example_jacobian(x + sx * r, y2 + sy * r)
                   for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
        exact.append(max(float(np.linalg.norm(J, 2)) for J in corners))
    estimates = [c.lipschitz for c in certs]
    limit = 2.0 * math.pi / (certify.SAFETY_FACTOR * example_problem.T)
    ok = len(certs) == 2
    ok = ok and all(abs(L - Lx) <= 1e-6 for L, Lx in zip(estimates, exact))
    ok = ok and all(L < limit for L in estimates)
    report("4 Lipschitz estimates exact and below 2*pi/(1.1*T)", ok,
           f"estimates {[round(L, 6) for L in estimates]}, exact corner maxima "
           f"{[round(L, 6) for L in exact]}, limit {limit:.4f}; the literal "
           f"'< 2' is unattainable (defective eigenvalue -2 at the origin, "
           f"spectral radius 3.27 at u = 1)")


def test_criterion_05_chain_trick_equivalence(example_problem, example_field,
                                              example_traces):
    points = [bp for trace in example_traces["traces"].values()
              for bp in trace.points]
    assert len(points) <= 200
    start = time.perf_counter()
    worst_lift = 0.0
    worst_res = 0.0
    for bp in points:
        traj = orbit.integrate(example_field, bp.sp.lam, bp.sp.xi0, 0.0, 1.0)
        coords, x, xd = helpers.sampled_tracks(traj)
        worst_lift = max(worst_lift, oracle.verify_lift(example_problem, coords, x, xd))
        worst_res = max(worst_res, oracle.direct_residual(example_problem,
                                                          bp.sp.lam, x))
    elapsed = time.perf_counter() - start
    budget = elapsed * 200.0 / max(1, len(points))
    ok = worst_lift <= 1e-4 and worst_res <= 1e-3 and elapsed < 60.0
    report("5 chain-trick equivalence", ok,
           f"{len(points)} points, worst lift {worst_lift:.2e}, worst residual "
           f"{worst_res:.2e}, {elapsed:.1f}s ({budget:.1f}s per 200 points)")


def test_criterion_06_branch_reproduction(example_problem, example_field,
                                          example_traces):
    start = time.perf_counter()
    traces = example_traces["traces"]
    ok = True
    details = []
    for u, trace in traces.items():
        lams = [bp.sp.lam for bp in trace.points]
        ok = ok and max(lams) >= 0.2
        details.append(f"seed {u}: max lambda {max(lams):.4f}")
    union = [bp for t in traces.values() for bp in t.points]
    max_lambda = max(bp.sp.lam for bp in union)
    folds = sorted(set(orbit.fold_lambdas(traces[0.0].points)
                       + orbit.fold_lambdas(traces[1.0].points)))
    ok = ok and 0.15 <= max_lambda <= 0.35
    ok = ok and any(0.15 <= f <= 0.35 for f in folds)
    details.append(f"fold near {max_lambda:.3f}")

    # two solutions at lambda = 0.05 with disjoint x-images
    images = []
    for u in (0.0, 1.0):
        sp = orbit.newton_periodic(example_field, 1e-3,
                                   chain.lifted_zero(example_problem, u))
        for lam in np.linspace(0.01, 0.05, 5):
            sp = orbit.newton_periodic(example_field, float(lam), sp.xi0)
        x = orbit.dense_samples(orbit.integrate(example_field, 0.05, sp.xi0, 0.0, 1.0))[0]
        images.append((float(x.min()), float(x.max())))
    gap = images[1][0] - images[0][1]
    ok = ok and gap > 0.0
    details.append(f"image gap at lambda=0.05: {gap:.3f}")

    # the two traced curves approach each other in (lambda, xi)
    A = np.array([np.concatenate(([bp.sp.lam], bp.sp.xi0))
                  for bp in traces[0.0].points])
    B = np.array([np.concatenate(([bp.sp.lam], bp.sp.xi0))
                  for bp in traces[1.0].points])
    dmin = float(np.min(np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)))
    ok = ok and dmin <= 1e-3
    details.append(f"curve distance {dmin:.1e}")

    elapsed = time.perf_counter() - start + example_traces["elapsed"]
    ok = ok and elapsed < 300.0
    report("6 branch reproduction", ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_07_yorke_saturation():
    start = time.perf_counter()
    omega = 1.0
    field = chain.expand(helpers.rotation_problem())
    L = certify.lipschitz_estimate(field, np.zeros(field.dim), radius=0.5)
    T_rot = 2 * math.pi / omega
    xi0 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = orbit.integrate(field, 0.0, xi0, 0.0, T_rot)
    return_err = float(np.linalg.norm(traj.y_end - xi0, np.inf))
    inner = orbit.dense_samples(traj)[:, 32:-32]
    interior = float(np.min(np.linalg.norm(inner - xi0[:, None], axis=0)))
    bound, _ = certify.yorke_check(L, T_rot)
    ok = (abs(L - omega) <= 1e-6 and return_err <= 1e-6 and interior > 0.1
          and abs(bound - T_rot) <= 1e-6)

    resonant = chain.ProblemSpec.from_strings("-x0", "0*p", "sin(t)", 1.0, 1,
                                              2 * math.pi)
    trace = orbit.trace_from_zero(chain.expand(resonant), 0.0,
                                  orbit.ContinuationParams())
    ok = ok and trace.status_forward == "degenerate_slice"
    ok = ok and len(trace.points) == 1 and trace.points[0].sp.lam == 0.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report("7 Yorke saturation", ok,
           f"L = {L:.8f} = rate, return error {return_err:.1e}, bound-period "
           f"gap {abs(bound - T_rot):.1e}, resonant case degenerate, {elapsed:.1f}s")


def test_criterion_08_expression_fuzz():
    rng = np.random.default_rng(0xACCE55)
    variables = ("u", "v")
    start = time.perf_counter()
    cases = 0
    checks = 0
    while cases < 100:
        tree = helpers.random_expr(rng, variables)
        text = expr.to_string(tree)
        reparsed = expr.parse(text, variables)
        case_checked = False
        for var in variables:
            if var not in expr.free_vars(reparsed):
                continue
            try:
                d = expr.diff(reparsed, var)
            except expr.DifferentiationError:
                continue
            for bindings, fd in helpers.smooth_sample_points(reparsed, variables,
                                                             rng, var, want=3):
                try:
                    sym = expr.evaluate(d, bindings)
                except expr.EvalError:
                    continue
                assert abs(sym - fd) <= 1e-5 * (1.0 + abs(fd)), text
                checks += 1
                case_checked = True
        if case_checked:
            cases += 1
    elapsed = time.perf_counter() - start
    report("8 expression fuzz", cases == 100 and elapsed < 5.0,
           f"{cases} expressions, {checks} derivative checks, {elapsed:.2f}s")
