"""Per-mode characteristic cubic of the memory coupling.

Each eigenvalue rho of the fractional Laplacian contributes the cubic
``K(mu) = mu^3 + rho*mu - M*rho`` whose three roots drive one mode of the
coupled wave/memory system: a real root ``mu1`` strictly between 0 and the
memory strength M, and a conjugate pair ``mu2 = -mu1/2 + i*sqrt(3*(mu1/2)^2
+ rho)``, ``mu3 = conj(mu2)``.  The real branch accumulates at M from
inside, which is the structural reason a fixed-support control cannot work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractional import EigenvalueTable, write_csv

__all__ = [
    "SpectralTriple",
    "check_memory_coefficient",
    "solve_cubic",
    "real_root",
    "complex_root",
    "spectral_triples",
    "mu1_bounds",
    "Mu1AsymptoticsReport",
    "verify_mu1_asymptotics",
    "Mu1MonotoneReport",
    "verify_mu1_monotone",
    "triples_to_csv",
]

RESIDUAL_SCALE_TOL = 1e-10  # residual <= tol * (|M| rho + |M|^3)


def check_memory_coefficient(M: float) -> float:
    """Memory strength must be nonzero; M = 0 reduces to the plain wave model."""
    M = float(M)
    if M == 0.0:
        raise ValueError("memory coefficient M must be nonzero")
    return M


def _cubic(mu, rho, M):
    return mu**3 + rho * mu - M * rho


@dataclass(frozen=True)
class SpectralTriple:
    """Roots of one mode's cubic, with the residual actually achieved."""

    rho: float
    M: float
    mu1: float
    mu2: complex
    mu3: complex
    residual: float
    n: int | None = None

    @property
    def residual_scale(self) -> float:
        return abs(self.M) * self.rho + abs(self.M) ** 3


def solve_cubic(rho: float, M: float, n: int | None = None) -> SpectralTriple:
    """Solve mu^3 + rho*mu - M*rho = 0: the real root by Newton from M
    (``real_root``, which converges for every rho > 0), the complex pair in
    closed form.
    """
    rho = float(rho)
    M = check_memory_coefficient(M)
    if rho <= 0:
        raise ValueError("rho must be positive")
    mu1 = float(real_root(rho, M))
    mu2 = complex(complex_root(mu1, rho))
    mu3 = np.conj(mu2)
    residual = max(abs(_cubic(m, rho, M)) for m in (mu1, mu2, mu3))
    return SpectralTriple(rho=rho, M=M, mu1=float(mu1), mu2=complex(mu2), mu3=complex(mu3), residual=float(residual), n=n)


def real_root(rho, M, start=None, steps: int = 24, tol: float = 1e-17):
    """Newton iteration for the real root of mu^3 + rho*mu - M*rho, elementwise in
    rho (numpy arrays, or mpmath numbers at the working precision), from ``start``
    or else from M; stops after ``steps`` or once no step reaches tol*|mu|.

    From M the iteration converges for every rho > 0: K(M) = M^3 has the sign
    of M and K is convex on that side of 0, so |mu| decreases monotonically
    onto the root (the first step already gives M - M^3/(rho + 3 M^2)).
    """
    mu = M if start is None else start
    for _ in range(steps):
        step = _cubic(mu, rho, M) / (3 * mu * mu + rho)
        mu = mu - step
        if np.all(np.abs(step) < tol * np.maximum(np.abs(mu), 1e-300)):
            break
    return mu


def complex_root(mu1, rho, sqrt=np.sqrt):
    """mu2 = -mu1/2 + i*sqrt(3*(mu1/2)^2 + rho) from the real root; mu3 = conj(mu2)."""
    return -mu1 / 2.0 + 1j * sqrt(3.0 * (mu1 / 2.0) ** 2 + rho)


def spectral_triples(table: EigenvalueTable, M: float) -> list[SpectralTriple]:
    return [solve_cubic(rho, M, n=i + 1) for i, rho in enumerate(table.rho)]


def mu1_bounds(rho1: float, M: float) -> tuple[float, float]:
    """Lower/upper bounds |M|/(M^2/rho1 + 1) <= |mu1_n| < |M|, valid for all n."""
    M = check_memory_coefficient(M)
    return abs(M) / (M * M / rho1 + 1.0), abs(M)


@dataclass(frozen=True)
class Mu1AsymptoticsReport:
    """Envelope fit of r_n = mu1_n - M + M^3/rho_n.

    The residual decays like 1/rho_n^2 (the next iterate of mu = M - mu^3/rho
    brings in 3 M^5 / rho^2); ``exponent_fitted`` is the measured log-log
    slope against n, whose theoretical value is -4 s for tables of order s.
    """

    c_fitted: float
    exponent_fitted: float
    envelope_stable: bool
    approach_monotone: bool
    passed: bool
    residuals: np.ndarray


def verify_mu1_asymptotics(table: EigenvalueTable, M: float) -> Mu1AsymptoticsReport:
    if table.n_max < 16:
        raise ValueError("need n_max >= 16 for a meaningful envelope fit")
    triples = spectral_triples(table, M)
    mu1 = np.array([t.mu1 for t in triples])
    rho = table.rho
    r = mu1 - M + M**3 / rho
    n = np.arange(1, table.n_max + 1, dtype=float)
    top = slice(table.n_max // 2, None)
    scaled = np.abs(r) * rho**2
    c_fit = float(np.max(scaled[top]))
    ratio = scaled[top].max() / max(scaled[top].min(), 1e-300)
    envelope_stable = bool(ratio < 50.0)
    with np.errstate(divide="ignore"):
        mask = np.abs(r) > 0
    exponent = float(np.polyfit(np.log(n[mask][-table.n_max // 2 :]), np.log(np.abs(r)[mask][-table.n_max // 2 :]), 1)[0])
    gap_to_M = np.abs(mu1 - M)
    approach = bool(np.all(np.diff(gap_to_M) < 0))
    all_below = bool(np.all(np.abs(r) <= c_fit / rho**2 * (1 + 1e-9) + 1e-300))
    return Mu1AsymptoticsReport(
        c_fitted=c_fit, exponent_fitted=exponent, envelope_stable=envelope_stable,
        approach_monotone=approach, passed=envelope_stable and approach and all_below,
        residuals=r,
    )


@dataclass(frozen=True)
class Mu1MonotoneReport:
    passed: bool
    first_violation: int | None
    bounds_ok: bool
    lower_bound: float
    upper_bound: float


def verify_mu1_monotone(table: EigenvalueTable, M: float) -> Mu1MonotoneReport:
    """|mu1_n| strictly increasing, pinched between |M|/(M^2/rho_1+1) and |M|."""
    triples = spectral_triples(table, M)
    mu1_abs = np.abs([t.mu1 for t in triples])
    diffs = np.diff(mu1_abs)
    viol = np.nonzero(diffs <= 0)[0]
    lower, upper = mu1_bounds(table.rho[0], M)
    bounds_ok = bool(np.all(mu1_abs >= lower - 1e-12) and np.all(mu1_abs < upper))
    return Mu1MonotoneReport(
        passed=bool(viol.size == 0 and bounds_ok),
        first_violation=int(viol[0]) + 1 if viol.size else None,
        bounds_ok=bounds_ok, lower_bound=lower, upper_bound=upper,
    )


def triples_to_csv(triples: list[SpectralTriple], path) -> None:
    write_csv(path, "n,rho,mu1,re_mu2,im_mu2,residual", "%s,%r,%r,%r,%r,%r", (
        ("" if t.n is None else t.n, *(float(v) for v in (t.rho, t.mu1, t.mu2.real, t.mu2.imag, t.residual)))
        for t in triples))
