"""Extended-precision spectral table and Hermitian solves via mpmath.

The moment Gram couples branch-2/3 exponentials whose time factors grow like
e^{|M| T}, so its natural scale spread exceeds what double precision can
resolve at the residual levels the terminal-state test needs; the synthesis
and the terminal evaluation therefore share one extended-precision table.
That table is the configured moving spectrum itself, whichever eigenvalue
backend built it: its double-precision kappa and rho are taken as exact
mpmath values and only the real cubic root is polished at the working
precision, so the moments the control satisfies are exactly the moments the
propagator integrates.
"""

from __future__ import annotations

import mpmath as mp

from .moving import MovingSpectrum

__all__ = ["MpSpectrum", "hermitian_solve"]


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
                mu1 = mp.mpf(float(seed))
                for _ in range(60):
                    step = (mu1**3 + rho * mu1 - self.M * rho) / (3 * mu1**2 + rho)
                    mu1 -= step
                    if abs(step) < tol * max(abs(mu1), 1):
                        break
                mu2 = mp.mpc(-mu1 / 2, mp.sqrt(3 * (mu1 / 2) ** 2 + rho))
                self.mu.append((mp.mpc(mu1), mu2, mp.conj(mu2)))

    def kappa(self, n: int):
        k = self.kappa_pos[abs(n) - 1]
        return k if n > 0 else -k

    def rho(self, n: int):
        return self.rho_pos[abs(n) - 1]

    def lam(self, n: int, j: int):
        """True eigenvalue mu_{|n|}^j + i c kappa_n (no relabeling)."""
        return self.mu[abs(n) - 1][j - 1] + 1j * self.c * self.kappa(n)


def hermitian_solve(A: mp.matrix, b: mp.matrix):
    """LU solve with three steps of iterative refinement; returns (x, max residual)."""
    x = mp.lu_solve(A, b)
    for _ in range(3):
        x = x - mp.lu_solve(A, A * x - b)
    r = A * x - b
    return x, max(abs(r[i]) for i in range(A.rows))
