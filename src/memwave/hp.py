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
digits the terminal check needs, which also set the table's precision:
double-double (``dd.DD``, about 31 digits in vectorised float64
operations) when that keeps the check six digits clear, mpmath at those
digits otherwise.  The solve climbs a two-rung ladder in either:
double-precision LU solves refined against residuals taken in the extended
arithmetic, and, for mpmath values only, one mpmath LU factor when that
refinement stalls above its floor.  No
solve is accepted or rejected here: the caller judges the unscaled
system by ``certificate``, a componentwise bound on what rounding hides
from its residual, in whichever arithmetic ran.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import dd
from .cubic import complex_root, real_root
from .moving import MovingSpectrum

__all__ = ["MpSpectrum", "mode_arrays", "LadderSolve", "choose_arithmetic", "certificate", "matvec",
           "hermitian_solve"]


class MpSpectrum:
    """A MovingSpectrum's frequencies and cubic roots at working precision dps."""

    def __init__(self, ms: MovingSpectrum, dps: int):
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
    """A solve's iterate, its max residual, the rung that produced it, and
    the max residual of every iterate per rung tried, in order."""

    x: object
    residual: float
    rung: str
    history: dict


# Digits the terminal check must keep below what it reports (see
# ``choose_arithmetic``).
MARGIN_DIGITS = 6
# Units of roundoff u, relative to |A| |x| entrywise, between the computed and
# the true residual of an extended-precision system: the Gram's own entries are
# accurate to 100 u (``test_separable_mp_gram_matches_entrywise_closed_form``)
# and its matrix-vector product to 32 u (``test_dd``).
ROUNDING_ULPS = 100 + 32


def choose_arithmetic(growth: float, terminal_tol: float) -> tuple[str, int, dict]:
    """"dd" (double-double) or "mp" for the moment solve and the terminal
    check, and the working precision dps of the run.

    The terminal coordinates are differences of terms as large as
    e^{|M| T} times the data (``growth`` = |M| T), so rounding at u leaves
    about u e^{|M| T} of the data, which must sit ``MARGIN_DIGITS`` digits
    below ``terminal_tol``: growth / ln 10 + log10(1 / terminal_tol) +
    MARGIN_DIGITS digits.  "dd" if they fit in the ``dd.DIGITS`` (about
    31.3) digits of ``dd.EPS``, else "mp".  dps is those digits, never
    fewer than 40, the precision a double-double run polishes its spectrum
    to.  The solve is not estimated here: its residual is judged
    afterwards, with the rounding bound of ``certificate``.  Returns the
    choice, dps and the record of the choice.
    """
    estimate = {
        "growth": growth, "terminal_tol": terminal_tol, "dd_digits": round(dd.DIGITS, 2),
        "terminal_digits": round(growth / math.log(10) - math.log10(terminal_tol) + MARGIN_DIGITS, 2),
    }
    digits = estimate["terminal_digits"]
    return ("dd" if digits <= dd.DIGITS else "mp"), max(40, math.ceil(digits)), estimate


def _unit(A):
    """The unit roundoff u of the values' arithmetic: ``dd.EPS`` for ``dd.DD``
    values, 10^-dps as an mpf (which cannot underflow) for mpmath values."""
    return dd.EPS if isinstance(A, dd.DD) else mp.mpf(10) ** -mp.mp.dps


def certificate(A, x, r, target: float) -> dict:
    """What the residual r = A x - b of an extended-precision system shows.

    The true residual of the system A stands for differs from the computed
    one by at most ``ROUNDING_ULPS`` u (|A| |x|) entrywise, u the unit of
    the values' arithmetic (``dd.EPS``, or 10^-dps in mpmath), and |A| |x|
    one float64 product of the leading doubles.  So x solves that system to
    ``target`` when ``residual`` max|r| plus that ``rounding_bound`` is at
    most ``target``.  This is Oettli and Prager's componentwise backward
    error turned into a forward residual bound (Rump, "Verification
    methods", Acta Numerica 2010).  Returns the three figures.
    """
    bound = ROUNDING_ULPS * _unit(A) * float(np.max(np.abs(dd.leading(A)) @ np.abs(dd.leading(x))))
    return {"residual": float(_max_abs(r)), "rounding_bound": float(bound), "target": float(target)}


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
    recomputed there (mixed-precision iterative refinement).  A matrix that
    is singular in double precision ends the rung at once, and so does one
    that does not fit in it (its correction is not finite).  It continues
    while each step shrinks max |r| at least tenfold.

    A double-double iterate is returned as it stands; the caller judges it
    (``certificate``).  An mpmath iterate is accepted at the floor
    m u max|A| max|x|, u = 10^-dps, the residual that rounding A x alone
    can leave, so no factorization can promise less.  Rung "mp" runs for
    mpmath values when rung 1 stalls above that floor: one mpmath LU
    factorization at 10 extra bits, as ``mp.lu_solve`` uses, serves the
    solve and three refinement steps.
    """
    history, is_dd = {}, isinstance(A, dd.DD)
    A64 = dd.leading(A)
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
    # a non-finite A64 leaves x = 0, and the floor inf * 0 is nan: no accept
    if is_dd or res <= len(A) * _unit(A) * float(np.max(np.abs(A64))) * _max_abs(x):
        return LadderSolve(x, float(res), "float64", history)

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
