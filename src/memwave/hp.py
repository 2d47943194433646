"""Extended-precision spectral table and the precision-ladder moment solve.

The moment Gram couples branch-2/3 exponentials whose time factors grow like
e^{|M| T}, so its natural scale spread exceeds what double precision can
resolve at the residual levels the terminal-state test needs; the synthesis
and the terminal evaluation therefore share one extended-precision table.
That table is the configured moving spectrum itself, whichever eigenvalue
backend built it: its double-precision kappa and rho are taken as exact
mpmath values and only the real cubic root is polished at the working
precision, so the moments the control satisfies are exactly the moments the
propagator integrates.  It answers the accessors of ``MovingSpectrum``
(``eigenvalue``, ``kappa``, ``rho``, ``mu_of``, ``M``, ``c``), and
``mode_arrays`` reads either spectrum in any arithmetic (``dd.lift``).

Above the table, the moment solve and the terminal check run in one of
two extended arithmetics, picked per run by ``choose_arithmetic`` from an a
priori estimate of the digits they need: double-double (``dd.DD``, about
31 digits in vectorised float64 operations) when that keeps both six
digits clear, mpmath at the table's precision otherwise, and mpmath again
if double-double refinement stalls.  The solve climbs a two-rung ladder in
either: one double-precision LU factor refined against residuals taken in
the extended arithmetic, and, for mpmath values only, one mpmath LU factor
when that refinement stalls or the matrix does not fit in doubles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
import numpy as np
import scipy.linalg

from . import dd
from .cubic import complex_root, real_root
from .moving import MovingSpectrum

__all__ = ["MpSpectrum", "mode_arrays", "LadderSolve", "RefinementStalled", "choose_arithmetic", "matvec",
           "hermitian_solve"]


class MpSpectrum:
    """A MovingSpectrum's frequencies and cubic roots at working precision dps."""

    def __init__(self, ms: MovingSpectrum, dps: int = 50):
        self.dps = int(dps)
        with mp.workdps(self.dps):
            self.M, self.c = mp.mpf(ms.M), mp.mpf(ms.c)
            self.kappa_pos = [mp.mpf(float(k)) for k in ms.kappa_pos]
            self.rho_pos = [mp.mpf(float(r)) for r in ms.rho_pos]
            self.mu = []  # (mu1, mu2, mu3) per level
            tol = mp.mpf(10) ** (-self.dps + 2)
            for rho, seed in zip(self.rho_pos, ms.mu[1].real):
                mu1 = real_root(rho, self.M, start=mp.mpf(float(seed)), steps=60, tol=tol)
                mu2 = complex_root(mu1, rho, mp.sqrt)
                self.mu.append((mp.mpc(mu1), mu2, mp.conj(mu2)))

    def kappa(self, n: int):
        k = self.kappa_pos[abs(n) - 1]
        return k if n > 0 else -k

    def rho(self, n: int):
        return self.rho_pos[abs(n) - 1]

    def mu_of(self, n: int, j: int):
        return self.mu[abs(n) - 1][j - 1]

    def eigenvalue(self, n: int, j: int):
        """True eigenvalue mu_{|n|}^j + i c kappa_n (no relabeling)."""
        return self.mu_of(n, j) + 1j * self.c * self.kappa(n)


def mode_arrays(spec, modes, arithmetic: str = "float64"):
    """(lam, kap, rho): the eigenvalues, signed frequencies and rho of the
    modes (n, j) on a ``MovingSpectrum`` or an ``MpSpectrum``, as arrays in
    an arithmetic (see ``dd.lift``)."""
    return (dd.lift([spec.eigenvalue(n, j) for n, j in modes], arithmetic),
            dd.lift([spec.kappa(n) for n, _ in modes], arithmetic),
            dd.lift([spec.rho(n) for n, _ in modes], arithmetic))


class LadderSolve(NamedTuple):
    """A solve's iterate, its max residual, the rung that produced it and
    the max residual of every iterate per rung tried, in order."""

    x: object
    residual: float
    rung: str
    history: dict


class RefinementStalled(ArithmeticError):
    """Double-double refinement stopped above its floor; ``history`` holds its steps."""

    def __init__(self, history: dict):
        super().__init__("double-double refinement stalled above its target")
        self.history = history


# Digits the moment solve and the terminal check must keep below what they
# report (see ``choose_arithmetic``).
MARGIN_DIGITS = 6
COND_TRUSTED = 1e14


def choose_arithmetic(cond_scaled: float, m: int, growth: float, terminal_tol: float) -> tuple[str, dict]:
    """"dd" (double-double) or "mp" for the moment solve and the terminal check.

    Two requirements, each with ``MARGIN_DIGITS`` digits to spare:

    - **The solve.**  Refinement with one float64 LU factor shrinks the
      error by about cond_scaled u64 per step, so it converges only while
      that is well below 1; this is also where the float64 estimate of
      cond_scaled stops being round-off, so past ``COND_TRUSTED`` = 1e14 the
      number is not read and the choice is "mp".  Once it converges it
      stops at the floor m u max|A| max|x| <= m u cond_scaled |b| of the
      scaled system, and ``residual_ok`` wants 1e-10 |b| of the unscaled
      one (the rho scaling moves this by at most rho_max / rho_min, about
      N^(2s), which the margin covers for N up to about 10^3).  That takes
      log10(m cond_scaled) + 10 + MARGIN_DIGITS digits.
    - **The terminal check.**  The terminal coordinates are differences of
      terms as large as e^{|M| T} times the data (``growth`` = |M| T), so
      rounding at u leaves about u e^{|M| T} of the data, which must sit
      MARGIN_DIGITS digits below ``terminal_tol``: growth / ln 10 +
      log10(1 / terminal_tol) + MARGIN_DIGITS digits.

    "dd" if both fit in the ``dd.DIGITS`` (about 31.3) digits of
    ``dd.EPS``, else "mp".  Returns the choice and the record of it.
    """
    estimate = {
        "cond_scaled": cond_scaled, "m": m, "growth": growth, "terminal_tol": terminal_tol,
        "dd_digits": round(dd.DIGITS, 2), "solve_digits": None,
        "terminal_digits": round(growth / math.log(10) - math.log10(terminal_tol) + MARGIN_DIGITS, 2),
    }
    if cond_scaled <= COND_TRUSTED:
        estimate["solve_digits"] = round(math.log10(m * max(cond_scaled, 1.0)) + 10 + MARGIN_DIGITS, 2)
    fits = estimate["solve_digits"] is not None and max(estimate["solve_digits"], estimate["terminal_digits"]) <= dd.DIGITS
    return ("dd" if fits else "mp"), estimate


def matvec(A, x):
    """A x in the values' arithmetic: pairwise double-double sums, or
    ``mp.fdot`` row by row for mpmath values."""
    if isinstance(A, dd.DD):
        return A @ x
    return np.array([mp.fdot(row, x) for row in A], dtype=object)


def hermitian_solve(A, b) -> LadderSolve:
    """Solve A x = b at the values' precision by a two-rung precision ladder.

    A and b are ``dd.DD`` arrays, or mpmath values as object arrays; x comes
    back in the same arithmetic.

    Rung "float64": A is rounded to complex128 and LU-factored once; each
    correction is solved with that factor, added to x in the values'
    arithmetic, and the residual b - A x is recomputed there (mixed-precision
    iterative refinement).  It continues while each step shrinks max |r|
    at least tenfold.  Its floor is m u max|A| max|x|, with u = ``dd.EPS``
    or 10^(-dps): the residual that rounding A x alone can leave, so no
    factorization can promise less.  A double-double system must also
    reach 10^-(10 + MARGIN_DIGITS) max|b|, the solve requirement
    ``choose_arithmetic`` chose it for (a diverged iterate is so large that
    its own floor promises nothing); one that stalls above either raises
    ``RefinementStalled``: its entries are only accurate to u, so the
    caller rebuilds it in mpmath.  Rung "mp" runs for mpmath
    values when A does not fit in double precision or rung 1 stalls above
    the floor: one mpmath LU factorization at 10 extra bits, as
    ``mp.lu_solve`` uses, serves the solve and three refinement steps.
    """
    history = {}
    A64 = dd.leading(A)
    if np.all(np.isfinite(A64)):
        factor = scipy.linalg.lu_factor(A64, check_finite=False)
        x, r, res = b * 0, b, _max_abs(b)
        steps = history["float64"] = [float(res)]
        while res > 0:
            # the residual is normalized before rounding so it cannot underflow
            d = scipy.linalg.lu_solve(factor, _normalized(r, res), check_finite=False)
            if not np.all(np.isfinite(d)):
                break
            x_new = x + dd.lift(d, "dd" if isinstance(A, dd.DD) else "mp") * res
            r_new = b - matvec(A, x_new)
            res_new = _max_abs(r_new)
            if not res_new < res:
                break
            contracted = 10 * res_new <= res
            x, r, res = x_new, r_new, res_new
            steps.append(float(res))
            if not contracted:
                break
        floor = len(A) * _unit_roundoff(A) * float(np.max(np.abs(A64))) * _max_abs(x)
        if isinstance(A, dd.DD):  # the target ``choose_arithmetic`` chose double-double for
            floor = min(floor, 10.0 ** -(10 + MARGIN_DIGITS) * _max_abs(b))
        if res <= floor:
            return LadderSolve(x, float(res), "float64", history)
    if isinstance(A, dd.DD):
        raise RefinementStalled(history)

    with mp.extraprec(10):
        LU, p = mp.mp.LU_decomp(mp.matrix(A.tolist()), overwrite=True)

    def lu_apply(v):
        with mp.extraprec(10):
            return np.array(mp.mp.U_solve(LU, mp.mp.L_solve(LU, mp.matrix(v.tolist()), p)).tolist(),
                            dtype=object).reshape(-1)

    x = lu_apply(b)
    r = b - matvec(A, x)
    steps = history["mp"] = [float(_max_abs(r))]
    for _ in range(3):
        x = x + lu_apply(r)
        r = b - matvec(A, x)
        steps.append(float(_max_abs(r)))
    return LadderSolve(x, steps[-1], "mp", history)


def _max_abs(v):
    if isinstance(v, dd.DD):
        return float(np.max(np.abs(dd.leading(v))))
    return max(abs(e) for e in v)


def _normalized(r, res) -> np.ndarray:
    if isinstance(r, dd.DD):
        return dd.leading(r) / res
    return np.array([complex(v / res) for v in r])


def _unit_roundoff(A) -> float:
    return dd.EPS if isinstance(A, dd.DD) else 10.0 ** (-mp.mp.dps)
