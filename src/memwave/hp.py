"""Extended-precision spectral table and the precision-ladder moment solve.

The moment Gram couples branch-2/3 exponentials whose time factors grow like
e^{|M| T}, so its natural scale spread exceeds what double precision can
resolve at the residual levels the terminal-state test needs; the synthesis
and the terminal evaluation therefore share one extended-precision table.
That table is the configured moving spectrum itself, whichever eigenvalue
backend built it: its double-precision kappa and rho are taken as exact
mpmath values and only the real cubic root is polished at the working
precision, so the moments the control satisfies are exactly the moments the
propagator integrates.

The solve climbs a two-rung ladder: one double-precision LU factor refined
against residuals taken at the working precision, and one mpmath LU factor
only when that refinement stalls or the matrix does not fit in doubles.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp
import numpy as np
import scipy.linalg

from .cubic import complex_root, real_root
from .moving import MovingSpectrum

__all__ = ["MpSpectrum", "LadderSolve", "hermitian_solve"]


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

    def lam(self, n: int, j: int):
        """True eigenvalue mu_{|n|}^j + i c kappa_n (no relabeling)."""
        return self.mu[abs(n) - 1][j - 1] + 1j * self.c * self.kappa(n)


class LadderSolve(NamedTuple):
    """A solve's iterate, its max residual, the rung that produced it and
    the max residual of every iterate per rung tried, in order."""

    x: mp.matrix
    residual: float
    rung: str
    history: dict


def hermitian_solve(A: mp.matrix, b: mp.matrix) -> LadderSolve:
    """Solve A x = b at the working precision by a two-rung precision ladder.

    Rung "float64": A is rounded to complex128 and LU-factored once; each
    correction is solved with that factor, added to x in mpmath, and the
    residual b - A x is recomputed at the working precision (mixed-precision
    iterative refinement).  It continues while each step shrinks max |r|
    at least tenfold.  Rung "mp" runs when A does not fit in double
    precision or rung 1 stalls above the floor m 10^(-dps) max|A| max|x|,
    the residual that rounding A x at the working precision alone can
    leave, so no factorization can promise less: one mpmath LU
    factorization at 10 extra bits, as ``mp.lu_solve`` uses, serves the
    solve and three refinement steps.
    """
    history = {}
    A64 = np.array(A.tolist(), dtype=complex)
    if np.all(np.isfinite(A64)):
        factor = scipy.linalg.lu_factor(A64, check_finite=False)
        x, r, res = mp.matrix(A.rows, 1), b, _max_abs(b)
        steps = history["float64"] = [float(res)]
        while res > 0:
            # the residual is normalized before rounding so it cannot underflow
            d = scipy.linalg.lu_solve(factor, [complex(v / res) for v in r], check_finite=False)
            if not np.all(np.isfinite(d)):
                break
            x_new = x + mp.matrix(d.tolist()) * res
            r_new = b - A * x_new
            res_new = _max_abs(r_new)
            if not res_new < res:
                break
            contracted = 10 * res_new <= res
            x, r, res = x_new, r_new, res_new
            steps.append(float(res))
            if not contracted:
                break
        floor = A.rows * mp.mpf(10) ** (-mp.mp.dps) * float(np.max(np.abs(A64))) * _max_abs(x)
        if res <= floor:
            return LadderSolve(x, float(res), "float64", history)

    with mp.extraprec(10):
        LU, p = mp.mp.LU_decomp(A.copy(), overwrite=True)

    def lu_apply(v):
        with mp.extraprec(10):
            return mp.mp.U_solve(LU, mp.mp.L_solve(LU, v, p))

    x = lu_apply(b)
    r = b - A * x
    steps = history["mp"] = [float(_max_abs(r))]
    for _ in range(3):
        x = x + lu_apply(r)
        r = b - A * x
        steps.append(float(_max_abs(r)))
    return LadderSolve(x, steps[-1], "mp", history)


def _max_abs(v: mp.matrix):
    return max(abs(v[i]) for i in range(v.rows))
