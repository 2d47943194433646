"""Fractional Dirichlet Laplacian on (-1, 1).

Two complementary views of the operator (-d^2)^s, 0 < s < 1:

* eigenvalue tables ``rho_n`` of the Dirichlet realization, either from the
  closed-form large-n approximation ``rho_n = (n*pi/2 - (1-s)*pi/4)^(2s)`` or
  from a dense collocation of the singular integral with zero exterior values;

* direct numerical evaluation of the principal-value singular integral on a
  sampled function, which is what makes the plane-wave symbol relation
  ``(-d^2)^s e^{i k x} = |k|^(2s) e^{i k x}`` checkable rather than assumed.

The collocation matrix on the midpoint grid is symmetric and commutes with
the index reversal J, so its eigenvalues come from two half-size blocks, one
on even and one on odd grid vectors (see ``_collocation_eigenvalues_raw``).

The tables carry the root-gap diagnostics used downstream: the quantity that
matters for control horizons is the spacing of ``rho_n^(1/(2s))``, which
settles at ``pi/2``.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, toeplitz
from scipy.special import gamma as gamma_fn

__all__ = [
    "normalization_constant",
    "asymptotic_kappa",
    "asymptotic_level",
    "asymptotic_eigenvalues",
    "discretized_eigenvalues",
    "EigenvalueTable",
    "build_eigenvalue_table",
    "OperatorSample",
    "apply_fractional_laplacian",
    "SymbolCheck",
    "verify_symbol_identity",
    "BackendAgreement",
    "compare_backends",
    "GAP_TARGET",
    "GAP_SLACK",
    "gauss_legendre",
]

# Root-gap floor pi/2, checked with a desk-scale slack.
GAP_TARGET = math.pi / 2.0
GAP_SLACK = 1.0e-3


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _check_order(s: float) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")
    return s


def normalization_constant(s: float) -> float:
    """Normalization C_s = s * 2^(2s) * Gamma((1+2s)/2) / (sqrt(pi) * Gamma(1-s))."""
    s = _check_order(s)
    return s * 2.0 ** (2 * s) * gamma_fn((1 + 2 * s) / 2.0) / (math.sqrt(math.pi) * gamma_fn(1 - s))


def asymptotic_kappa(s: float, k):
    """Closed-form frequency kappa_k = k*pi/2 - (1-s)*pi/4, for real (also fractional) k."""
    return np.asarray(k, dtype=float) * math.pi / 2.0 - (1.0 - s) * math.pi / 4.0


def asymptotic_level(s: float, kappa):
    """The real level k at which asymptotic_kappa(s, k) equals kappa."""
    return (np.asarray(kappa, dtype=float) + (1.0 - s) * math.pi / 4.0) / (math.pi / 2.0)


def asymptotic_eigenvalues(s: float, n_max: int) -> np.ndarray:
    """Closed-form approximation rho_n = (n*pi/2 - (1-s)*pi/4)^(2s), n = 1..n_max.

    This is an approximation with an O(1/n) defect, never ground truth; the
    collocation backend is the cross-check.
    """
    s = _check_order(s)
    return asymptotic_kappa(s, np.arange(1, n_max + 1)) ** (2.0 * s)


def _cell_kernel_weights(s: float, a: np.ndarray, h: float):
    """Exact kernel moments over a cell of width h centered at signed offset a.

    Returns (W, M1, M2) with W = int |z|^(-1-2s) dz, M1 = int (z-a) K dz,
    M2 = int (z-a)^2 K dz over [a-h/2, a+h/2]; requires |a| >= h.
    """
    aa = np.abs(a)
    lo = aa - h / 2.0
    hi = aa + h / 2.0
    W = (lo ** (-2 * s) - hi ** (-2 * s)) / (2 * s)
    if abs(s - 0.5) < 1e-14:
        p1 = np.log(hi) - np.log(lo)
    else:
        p1 = (hi ** (1 - 2 * s) - lo ** (1 - 2 * s)) / (1 - 2 * s)
    p2 = (hi ** (2 - 2 * s) - lo ** (2 - 2 * s)) / (2 - 2 * s)
    # moments about the cell center, on the positive side; M1 is odd in a
    m1_pos = p1 - aa * W
    m2 = p2 - 2 * aa * p1 + aa * aa * W
    return W, np.sign(a) * m1_pos, m2


def collocation_matrix(s: float, grid_points: int) -> np.ndarray:
    """Dense symmetric collocation of (-d^2)^s on (-1, 1), zero exterior values.

    Midpoint grid; exact per-cell kernel integrals; singular cell handled by a
    second-difference Taylor correction; exterior tails added analytically on
    the diagonal.
    """
    s = _check_order(s)
    m = int(grid_points)
    h = 2.0 / m
    x = -1.0 + h / 2.0 + h * np.arange(m)
    cs = normalization_constant(s)

    offsets = h * np.arange(1, m)
    W = (np.abs(offsets - h / 2.0) ** (-2 * s) - (offsets + h / 2.0) ** (-2 * s)) / (2 * s)

    A = -toeplitz(np.concatenate([[0.0], W]))
    idx = np.arange(m)
    # row i couples to offsets 1..i on the left and 1..m-1-i on the right
    cum = np.concatenate([[0.0], np.cumsum(W)])
    row_sums = cum[idx] + cum[m - 1 - idx]
    tail = ((1.0 + x) ** (-2 * s) + (1.0 - x) ** (-2 * s)) / (2 * s)
    A[idx, idx] = row_sums + tail

    # singular cell: -u''(x_i) * (h/2)^(2-2s) / (2-2s), with the standard
    # second difference; exterior samples are zero so boundary rows just drop
    # the outside neighbor, keeping symmetry.
    beta = (h / 2.0) ** (2 - 2 * s) / (2 - 2 * s)
    A[idx, idx] += 2.0 * beta / h**2
    A[idx[:-1], idx[1:]] -= beta / h**2
    A[idx[1:], idx[:-1]] -= beta / h**2
    return cs * A


def _collocation_eigenvalues_raw(s: float, n_max: int, grid_points: int) -> np.ndarray:
    """Lowest n_max collocation eigenvalues from the even and odd half-blocks.

    The midpoint grid is symmetric about 0, so A = J A J with J the index
    reversal.  In the basis of even vectors (u, J u)/sqrt(2) and odd vectors
    (u, -J u)/sqrt(2) A is block diagonal, with blocks A11 + A12 J and
    A11 - A12 J; an odd grid's centre point joins the even block, coupled
    through sqrt(2) times its column.  The spectrum of A is the union of the
    two blocks' spectra, and two half-size eigen-solves cost about a quarter
    of one full-size solve.
    """
    if n_max > grid_points // 4:
        raise ValueError(
            f"n_max={n_max} too large for grid_points={grid_points}; "
            "need at least 4 collocation cells per requested mode"
        )
    A = collocation_matrix(s, grid_points)
    m = A.shape[0]
    p = m // 2
    A11, A12J = A[:p, :p], A[:p, m - p:][:, ::-1]
    even, odd = A11 + A12J, A11 - A12J
    if m % 2:
        col = math.sqrt(2.0) * A[:p, p:p + 1]
        even = np.block([[even, col], [col.T, A[p:p + 1, p:p + 1]]])
    try:
        halves = [eigh(B, eigvals_only=True, subset_by_index=(0, min(n_max, len(B)) - 1), overwrite_a=True)
                  for B in (even, odd)]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"collocation eigen-solve did not converge: {exc}") from exc
    vals = np.sort(np.concatenate(halves))[:n_max]
    if not np.all(np.diff(vals) > 0) or vals[0] <= 0:
        raise RuntimeError(
            "collocation eigenvalues not positive and strictly increasing; "
            f"first values {vals[: min(5, len(vals))]}"
        )
    return vals


def discretized_eigenvalues(s: float, n_max: int, grid_points: int = 2400) -> np.ndarray:
    """Lowest n_max eigenvalues of the dense collocation operator.

    The scheme's leading eigenvalue error is a clean h^(2-2s) term; the
    two-grid Richardson extrapolation at that rate removes it, which is what
    brings every desk-scale mode into the closed-form approximation's own
    O(1/n) band.
    """
    vals_fine = _collocation_eigenvalues_raw(s, n_max, grid_points)
    vals_coarse = _collocation_eigenvalues_raw(s, n_max, grid_points // 2)
    r = 2.0 ** (-(2.0 - 2.0 * s))
    vals = vals_fine + (vals_fine - vals_coarse) * r / (1.0 - r)
    if not np.all(np.diff(vals) > 0) or vals[0] <= 0:
        raise RuntimeError("extrapolated eigenvalues lost monotonicity; refine the grid")
    return vals


@dataclass(frozen=True)
class EigenvalueTable:
    """Eigenvalue approximations with gap diagnostics.

    ``gap_gamma`` is the measured lower bound on consecutive spacings of
    ``rho_n^(1/(2s))`` over ``n >= gap_threshold``; ``gap_certified`` records
    whether that bound clears pi/2 - 1e-3.  The closed-form backend attains
    the pi/2 spacing exactly for every n.
    """

    s: float
    n_max: int
    rho: np.ndarray
    backend: str
    gap_gamma: float = field(init=False)
    gap_threshold: int | None = field(init=False)
    gap_certified: bool = field(init=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim != 1 or len(rho) != self.n_max:
            raise ValueError("rho must be a 1-D array of length n_max")
        if rho[0] <= 0 or not np.all(np.diff(rho) > 0):
            raise ValueError("eigenvalues must be positive and strictly increasing")
        object.__setattr__(self, "rho", rho)
        gaps = np.diff(self.rho_root)
        threshold = None
        best = -np.inf
        # largest certified tail bound and the earliest index achieving it
        suffix_min = np.minimum.accumulate(gaps[::-1])[::-1]
        ok = np.nonzero(suffix_min >= GAP_TARGET - GAP_SLACK)[0]
        if ok.size:
            threshold = int(ok[0]) + 1  # 1-based mode index
            best = float(suffix_min[ok[0]])
        object.__setattr__(self, "gap_threshold", threshold)
        object.__setattr__(self, "gap_certified", threshold is not None)
        object.__setattr__(self, "gap_gamma", best if threshold is not None else float(gaps.min(initial=np.inf)))

    @property
    def rho_root(self) -> np.ndarray:
        """rho_n^(1/(2s)), the plane-wave frequencies kappa_n for n >= 1."""
        return self.rho ** (1.0 / (2.0 * self.s))

    def gaps(self) -> np.ndarray:
        return np.diff(self.rho_root)

    def rho_of(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"mode index {n} outside 1..{self.n_max}")
        return float(self.rho[n - 1])

    def to_csv(self, path) -> None:
        gaps = self.gaps()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "rho", "rho_root", "gap", "backend"])
            for i in range(self.n_max):
                gap = gaps[i] if i < len(gaps) else float("nan")
                writer.writerow([i + 1, repr(self.rho[i]), repr(self.rho_root[i]), repr(float(gap)), self.backend])


def build_eigenvalue_table(
    s: float, n_max: int, backend: str = "asymptotic", grid_points: int = 2400
) -> EigenvalueTable:
    """Build an EigenvalueTable with the requested backend."""
    s = _check_order(s)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if backend == "asymptotic":
        rho = asymptotic_eigenvalues(s, n_max)
    elif backend == "discretized":
        rho = discretized_eigenvalues(s, n_max, grid_points)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return EigenvalueTable(s=s, n_max=n_max, rho=rho, backend=backend)


@dataclass
class OperatorSample:
    """Function samples on a uniform grid, prepared for operator evaluation.

    ``epsilon`` is the half-width of the principal-value cell around each
    evaluation point; it must not fall below the grid resolution h/2.
    """

    grid: np.ndarray
    values: np.ndarray
    s: float
    epsilon: float | None = None
    c_s: float = field(init=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        dx = np.diff(self.grid)
        if len(dx) < 8 or dx.min() <= 0 or (dx.max() - dx.min()) > 1e-9 * dx.mean():
            raise ValueError("grid must be uniform and increasing with at least 9 points")
        self.s = _check_order(self.s)
        h = float(dx.mean())
        if self.epsilon is None:
            self.epsilon = h / 2.0
        if self.epsilon < h / 2.0 - 1e-12 * h:
            raise ValueError(f"epsilon={self.epsilon} below grid resolution h/2={h/2}")
        self.c_s = normalization_constant(self.s)

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])


_NEAR_RADIUS = 0.5   # physical half-width of the moment-corrected band
_NEAR_MIN_CELLS = 12  # never correct fewer cells than this on each side


def apply_fractional_laplacian(sample: OperatorSample, eval_indices=None):
    """Evaluate (-d^2)^s on the sample by principal-value quadrature.

    Symmetric cell quadrature with exact kernel integrals, a Taylor correction
    of the singular cell, and first/second-moment corrections on nearby cells.
    The part of the integral beyond the sampled window gets an analytic tail
    correction whose model is picked from the sample itself: if the values are
    flat at both window edges the exterior is continued with the edge value
    (so constants map to zero identically); otherwise the exterior difference
    is modeled as u(x) alone, which is the right truncation for decaying or
    rapidly oscillating bounded samples.  Returns ``(x_eval, values)``.
    Evaluation indices must keep a margin of grid on both sides; the default
    takes the central third of the grid.
    """
    s, h = sample.s, sample.h
    u = sample.values
    m = len(u)
    near_cells = max(_NEAR_MIN_CELLS, int(round(_NEAR_RADIUS / h)))
    near_cells = min(near_cells, m // 4)
    if eval_indices is None:
        eval_indices = np.arange(m // 3, m - m // 3)
    eval_indices = np.asarray(eval_indices, dtype=int)
    if eval_indices.min(initial=m) < near_cells + 2 or eval_indices.max(initial=-1) > m - near_cells - 3:
        raise ValueError("evaluation indices too close to the grid edge for the tail truncation")

    # fourth-order derivative stencils, used only at interior cells
    up = np.zeros_like(u)
    upp = np.zeros_like(u)
    up[2:-2] = (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4]) / (12 * h)
    upp[2:-2] = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2] + 16 * u[1:-3] - u[:-4]) / (12 * h * h)

    beta = (h / 2.0) ** (2 - 2 * s) / (2 - 2 * s)
    left_edge = sample.grid[0] - h / 2.0
    right_edge = sample.grid[-1] + h / 2.0

    # tail model selection: flat edges => continue by the edge value
    edge = max(4, m // 50)
    scale = np.abs(u).max()
    flat_left = np.abs(u[:edge] - u[0]).max() <= 1e-10 * max(scale, 1e-300)
    flat_right = np.abs(u[-edge:] - u[-1]).max() <= 1e-10 * max(scale, 1e-300)

    out = np.empty(len(eval_indices), dtype=complex)
    for k, i in enumerate(eval_indices):
        a = sample.grid - sample.grid[i]
        mask = np.arange(m) != i
        W, M1, M2 = _cell_kernel_weights(s, a[mask], h)
        acc = np.sum((u[i] - u[mask]) * W)
        near = np.nonzero(np.abs(a[mask]) <= near_cells * h + h / 2)[0]
        jn = np.nonzero(mask)[0][near]
        acc -= np.sum(up[jn] * M1[near] + 0.5 * upp[jn] * M2[near])
        acc -= upp[i] * beta
        L = sample.grid[i] - left_edge
        R = right_edge - sample.grid[i]
        u_ext_l = u[0] if flat_left else 0.0
        u_ext_r = u[-1] if flat_right else 0.0
        acc += (u[i] - u_ext_l) * L ** (-2 * s) / (2 * s)
        acc += (u[i] - u_ext_r) * R ** (-2 * s) / (2 * s)
        out[k] = acc
    return sample.grid[eval_indices], sample.c_s * out


@dataclass(frozen=True)
class SymbolCheck:
    kappa: float
    s: float
    tol: float
    max_rel_error: float
    passed: bool
    window: float
    h: float


def verify_symbol_identity(
    kappa: float, s: float, tol: float = 1.0e-3, window: float = 40.0, h: float = 0.01
) -> SymbolCheck:
    """Check (-d^2)^s e^{i kappa x} = |kappa|^(2s) e^{i kappa x} by quadrature."""
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero; the zero frequency is excluded")
    s = _check_order(s)
    grid = np.arange(-window, window + h / 2, h)
    sample = OperatorSample(grid=grid, values=np.exp(1j * kappa * grid), s=s)
    center = len(grid) // 2
    idx = center + np.arange(-3, 4) * max(1, len(grid) // 64)
    x_eval, got = apply_fractional_laplacian(sample, eval_indices=idx)
    want = np.abs(kappa) ** (2 * s) * np.exp(1j * kappa * x_eval)
    rel = np.max(np.abs(got - want) / np.abs(want))
    return SymbolCheck(
        kappa=float(kappa), s=s, tol=float(tol), max_rel_error=float(rel),
        passed=bool(rel <= tol), window=float(window), h=float(h),
    )


@dataclass(frozen=True)
class BackendAgreement:
    """Per-mode asymptotic/discretized disagreement.

    ``c_fitted`` is the O(1/n) band fitted to the low modes, where the
    closed form's own defect dominates the comparison; deeper in the table
    the collocation residual takes over, so the band check is restricted to
    the fit range.  ``passed`` is the blanket relative criterion (1e-2 by
    default) over the shared range.
    """

    n: np.ndarray
    delta: np.ndarray
    rel: np.ndarray
    c_fitted: float
    flagged: np.ndarray
    max_rel: float
    passed: bool


def compare_backends(
    table_asym: EigenvalueTable,
    table_disc: EigenvalueTable,
    rel_tol: float = 1.0e-2,
    band_factor: float = 5.0,
) -> BackendAgreement:
    if table_asym.s != table_disc.s:
        raise ValueError("tables must share the fractional order")
    n_cmp = min(table_asym.n_max, table_disc.n_max)
    n = np.arange(1, n_cmp + 1, dtype=float)
    delta = np.abs(table_asym.rho[:n_cmp] - table_disc.rho[:n_cmp])
    rel = delta / table_asym.rho[:n_cmp]
    fit_range = max(3, n_cmp // 3)
    c_fit = float(np.median((delta * n)[:fit_range]))
    flagged = np.zeros(n_cmp, dtype=bool)
    flagged[:fit_range] = (delta * n)[:fit_range] > band_factor * max(c_fit, 1e-300)
    max_rel = float(rel.max())
    return BackendAgreement(
        n=n.astype(int), delta=delta, rel=rel, c_fitted=c_fit,
        flagged=flagged, max_rel=max_rel,
        passed=bool(max_rel <= rel_tol and not flagged.any()),
    )
