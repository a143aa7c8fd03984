"""The Dormand-Prince 5(4) pair, and one attempt of it as float code.

The tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.5) is written out with the dense-output matrix ``P`` of
Shampine (1986), as in SciPy's ``RK45``.  ``float_stages`` turns a field
given as one Python expression per component into straight-line float code
for one RK45 attempt.  ``orbit`` runs the step control and the NumPy
stages; ``chain.expand`` compiles the float stages of each problem's field.
"""
from __future__ import annotations

import math
import sys

__all__ = ["C", "A", "B", "E", "P", "StageError", "tolerances", "float_stages"]

C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
A = ((),
     (1 / 5,),
     (3 / 40, 9 / 40),
     (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# error weights of the 7 stages, the last one being f at the new state
E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
     1 / 40)
P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432),
     (0.0, 0.0, 0.0, 0.0),
     (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799),
     (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072),
     (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632),
     (0.0, -282668133 / 205662961, 2019193451 / 616988883,
      -1453857185 / 822651844),
     (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))


def tolerances(tol: float) -> tuple[float, float]:
    """(rtol, atol) of a solve at rtol = atol = ``tol``, as SciPy sets
    them: rtol is raised to at least 100 machine epsilons."""
    return max(tol, 100 * sys.float_info.epsilon), tol


class StageError(ArithmeticError):
    """A field evaluation of a float attempt raised (the ``__cause__``);
    ``time`` is the time of its stage."""

    def __init__(self, time: float):
        super().__init__(f"field evaluation failed at t={time}")
        self.time = time


def _combination(coefs, i, zeros=False):
    """Source of sum_j coefs[j] * k<j>_<i> in stage order, over the nonzero
    coefs unless ``zeros``."""
    return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coefs) if c or zeros)


def float_stages(derivatives: list[str], namespace: dict):
    """Compile the float stages of y' = F(t, y) into a factory
    ``(lam, tol) -> (rhs, attempt)``.

    ``derivatives[i]`` is a Python expression for component i of F over
    the stage state ``w0 .. w<n-1>``, the stage time ``s`` and ``lam``;
    ``namespace`` holds the functions it calls.  ``rhs(s, y)`` is the tuple
    F(s, y) for any sequence y.  ``attempt(t, y, f, h)`` takes the state y
    and f = F(t, y) as float tuples or lists and makes one RK45 attempt of
    step h with SciPy's arithmetic written out per component (sums in
    stage order; zero coefficients skipped, except that the error keeps
    0 * k1, so a non-finite stage still gives a non-finite error).  It
    returns (y_new, f_new, the 7n stages stage after stage, the RMS norm of
    the error relative to atol + max(|y|, |y_new|) * rtol), with (rtol,
    atol) = ``tolerances(tol)``.  A field evaluation that raises
    OverflowError or ValueError raises :class:`StageError` at its stage
    time; ZeroDivisionError propagates.
    """
    n = len(derivatives)
    w = ", ".join(f"w{i}" for i in range(n)) + ","
    lines = ["def make(lam, tol):",
             "    rtol, atol = tolerances(tol)",
             "    def rhs(s, y):",
             f"        {w} = y",
             f"        return ({', '.join(derivatives)},)",
             "    def attempt(t, y, f, h):",
             f"        {', '.join(f'y{i}' for i in range(n))}, = y",
             f"        {', '.join(f'k0_{i}' for i in range(n))}, = f",
             "        try:"]
    for st in range(1, 7):
        if st < 6:
            lines.append(f"            s = t + {C[st]!r} * h")
            lines += [f"            w{i} = y{i} + ({_combination(A[st], i)}) * h"
                      for i in range(n)]
        else:
            lines.append("            s = t + h")
            lines += [f"            w{i} = y{i} + h * ({_combination(B, i)})"
                      for i in range(n)]
        lines += [f"            k{st}_{i} = {d}" for i, d in enumerate(derivatives)]
    lines += ["        except (OverflowError, ValueError) as exc:",
              "            raise StageError(s) from exc"]
    for i in range(n):
        lines += [f"        a{i} = abs(y{i})",
                  f"        b{i} = abs(w{i})",
                  f"        e{i} = (({_combination(E, i, zeros=True)}) * h)"
                  f" / (atol + (a{i} if a{i} > b{i} else b{i}) * rtol)"]
    stages = ", ".join(f"k{st}_{i}" for st in range(7) for i in range(n))
    lines += [f"        return ({w}), ({', '.join(f'k6_{i}' for i in range(n))},), ({stages},), "
              f"sqrt({' + '.join(f'e{i} * e{i}' for i in range(n))}) / {n ** 0.5!r}",
              "    return rhs, attempt"]
    ns = dict(namespace, StageError=StageError, tolerances=tolerances,
              OverflowError=OverflowError, ValueError=ValueError, abs=abs,
              sqrt=math.sqrt, __builtins__={})
    exec("\n".join(lines), ns)  # codegen from our own expressions only
    return ns["make"]
