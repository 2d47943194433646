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
two extended arithmetics, picked per run by ``choose_arithmetic`` from the
digits the terminal check needs: double-double (``dd.DD``, about 31 digits
in vectorised float64 operations) when that keeps the check six digits
clear, mpmath at the table's precision otherwise.  The solve climbs a
two-rung ladder in either: double-precision LU solves refined against
residuals taken in the extended arithmetic, and, for mpmath values only,
one mpmath LU factor when that refinement stalls or the matrix does not
fit in doubles.  A double-double solve is not chosen on an a priori
condition estimate but accepted a posteriori, by a componentwise bound on
its residual (``LadderSolve.certificate``); a solve that misses it is
rebuilt in mpmath.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
import numpy as np

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
    """A solve's iterate, its max residual, the rung that produced it, the
    max residual of every iterate per rung tried, in order, and for
    double-double values the ``certificate`` that accepted the iterate."""

    x: object
    residual: float
    rung: str
    history: dict
    certificate: dict | None = None


class RefinementStalled(ArithmeticError):
    """A double-double solve missed its certificate; ``history`` holds its
    refinement steps and ``certificate`` the bound it missed (None if the
    matrix does not fit in double precision)."""

    def __init__(self, history: dict, certificate: dict | None):
        super().__init__("double-double solve not certified")
        self.history, self.certificate = history, certificate


# Digits the moment solve and the terminal check must keep below what they
# report (see ``choose_arithmetic`` and ``hermitian_solve``).
MARGIN_DIGITS = 6
# Units of dd.EPS, relative to |A| |x| entrywise, between the computed and
# the true residual of a double-double system: the Gram's own entries are
# accurate to 100 EPS (``test_separable_mp_gram_matches_entrywise_closed_form``)
# and its matrix-vector product to 32 EPS (``test_dd``).
ROUNDING_ULPS = 100 + 32


def choose_arithmetic(growth: float, terminal_tol: float) -> tuple[str, dict]:
    """"dd" (double-double) or "mp" for the moment solve and the terminal check.

    The terminal coordinates are differences of terms as large as
    e^{|M| T} times the data (``growth`` = |M| T), so rounding at u leaves
    about u e^{|M| T} of the data, which must sit ``MARGIN_DIGITS`` digits
    below ``terminal_tol``: growth / ln 10 + log10(1 / terminal_tol) +
    MARGIN_DIGITS digits.  "dd" if they fit in the ``dd.DIGITS`` (about
    31.3) digits of ``dd.EPS``, else "mp".  The solve is not estimated
    here: a double-double solve carries its own certificate, and
    ``hermitian_solve`` raises ``RefinementStalled`` where it fails.
    Returns the choice and the record of it.
    """
    estimate = {
        "growth": growth, "terminal_tol": terminal_tol, "dd_digits": round(dd.DIGITS, 2),
        "terminal_digits": round(growth / math.log(10) - math.log10(terminal_tol) + MARGIN_DIGITS, 2),
    }
    return ("dd" if estimate["terminal_digits"] <= dd.DIGITS else "mp"), estimate


def _certificate(A64, x, res: float, b) -> dict:
    """The a posteriori bound that accepts a double-double iterate x of A x = b,
    given A's leading doubles ``A64``.

    The true residual of the system A stands for differs from the computed
    one ``res`` by at most ``ROUNDING_ULPS`` dd.EPS (|A| |x|) entrywise
    (|A| |x| from the leading doubles, one float64 product), so the
    iterate is certified when res + that ``rounding_bound`` is at most the
    ``target`` 10^-(10 + MARGIN_DIGITS) max|b|: ``residual_ok`` wants
    1e-10 |b| of the unscaled system, and the margin covers the rho
    scaling (at most rho_max / rho_min, about N^(2s)) for N up to about
    10^3.  This is Oettli and Prager's componentwise backward error turned
    into a forward residual bound (Rump, "Verification methods", Acta
    Numerica 2010).  Returns the three figures.
    """
    bound = ROUNDING_ULPS * dd.EPS * float(np.max(np.abs(A64) @ np.abs(dd.leading(x))))
    target = 10.0 ** -(10 + MARGIN_DIGITS) * _max_abs(b)
    return {"residual": float(res), "rounding_bound": bound, "target": target}


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

    Rung "float64": A is rounded to complex128 and each correction is
    solved with it in double precision (``np.linalg.solve``, which factors
    it again at each step: 60 us at m = 48, 15 ms at m = 576 on 2 cores),
    added to x in the values' arithmetic, and the residual b - A x is
    recomputed there (mixed-precision iterative refinement); a matrix that
    is singular in double precision ends the rung.  It continues while each
    step shrinks max |r| at least tenfold.

    A double-double iterate is accepted only with its certificate
    (``_certificate``): the computed residual plus the componentwise
    bound ``ROUNDING_ULPS`` dd.EPS max(|A| |x|) on what rounding hides
    from it must reach 10^-(10 + MARGIN_DIGITS) max|b|.  Otherwise
    ``RefinementStalled`` is raised: the entries are only accurate to
    about dd.EPS, so the caller rebuilds the system in mpmath.  An mpmath
    iterate is accepted at the floor m 10^-dps max|A| max|x|, the residual
    that rounding A x alone can leave, so no factorization can promise
    less.  Rung "mp" runs for mpmath values when A does not fit in double
    precision or rung 1 stalls above that floor: one mpmath LU
    factorization at 10 extra bits, as ``mp.lu_solve`` uses, serves the
    solve and three refinement steps.
    """
    history, cert, is_dd = {}, None, isinstance(A, dd.DD)
    A64 = dd.leading(A)
    if np.all(np.isfinite(A64)):
        x, r, res = b * 0, b, _max_abs(b)
        steps = history["float64"] = [float(res)]
        while res > 0:
            # the residual is normalized before rounding so it cannot underflow
            try:
                d = np.linalg.solve(A64, _normalized(r, res))
            except np.linalg.LinAlgError:  # singular in double precision
                break
            if not np.all(np.isfinite(d)):
                break
            x_new = x + dd.lift(d, "dd" if is_dd else "mp") * res
            r_new = b - matvec(A, x_new)
            res_new = _max_abs(r_new)
            if not res_new < res:
                break
            contracted = 10 * res_new <= res
            x, r, res = x_new, r_new, res_new
            steps.append(float(res))
            if not contracted:
                break
        if is_dd:
            cert = _certificate(A64, x, res, b)
            if cert["residual"] + cert["rounding_bound"] <= cert["target"]:
                return LadderSolve(x, float(res), "float64", history, cert)
        elif res <= len(A) * 10.0 ** (-mp.mp.dps) * float(np.max(np.abs(A64))) * _max_abs(x):
            return LadderSolve(x, float(res), "float64", history)
    if is_dd:
        raise RefinementStalled(history, cert)

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
