"""Fractional Dirichlet Laplacian on (-1, 1).

Two complementary views of the operator (-d^2)^s, 0 < s < 1:

* eigenvalue tables ``rho_n`` of the Dirichlet realization, either from the
  closed-form large-n approximation ``rho_n = (n*pi/2 - (1-s)*pi/4)^(2s)`` or
  from a Jacobi-Galerkin solve in the basis (1-x^2)^s P_k^(s,s), whose
  stiffness matrix is diagonal in closed form, so the table is exact up to
  truncation (``discretized_eigenvalues``);

* direct numerical evaluation of the principal-value singular integral on a
  sampled function, which is what makes the plane-wave symbol relation
  ``(-d^2)^s e^{i k x} = |k|^(2s) e^{i k x}`` checkable rather than assumed.

The tables carry the root-gap diagnostics used downstream: the quantity that
matters for control horizons is the spacing of ``rho_n^(1/(2s))``, which
settles at ``pi/2``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

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
    "gauss_interval",
    "gauss_jacobi",
    "sorted_unique",
    "write_csv",
    "write_json",
]

# Root-gap floor pi/2, checked with a desk-scale slack.
GAP_TARGET = math.pi / 2.0
GAP_SLACK = 1.0e-3


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: ``gauss_jacobi(n, 0)``,
    computed once per n.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = gauss_jacobi(n, 0.0)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_interval(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on (a, b).

    The ends broadcast: for arrays a and b of shape (k, 1) the result is one
    row of n nodes and weights per interval (a[i], b[i]).
    """
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return half * (x + 1.0) + a, half * w


def sorted_unique(v) -> np.ndarray:
    """``np.unique`` of a 1-D array without NaNs, by one sort; ``np.unique``
    imports ``numpy.ma`` on its first call."""
    v = np.sort(v)
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def write_csv(path, header: str, row_format: str, rows) -> None:
    """Rows as CSV, byte for byte what ``csv.writer`` writes with floats as
    ``repr`` (``%r`` for Python floats, ``%d`` ints, ``%s`` text); one ``%``
    operation formats all rows, which keeps many float reprs cheap."""
    rows = list(rows)
    body = ((row_format + "\r\n") * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n" + body)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys; complex numbers become
    {"re", "im"} objects and numpy scalars and arrays plain numbers and lists."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)


def _check_order(s: float) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")
    return s


def normalization_constant(s: float) -> float:
    """Normalization C_s = s * 2^(2s) * Gamma((1+2s)/2) / (sqrt(pi) * Gamma(1-s))."""
    s = _check_order(s)
    return s * 2.0 ** (2 * s) * math.gamma((1 + 2 * s) / 2.0) / (math.sqrt(math.pi) * math.gamma(1 - s))


def asymptotic_kappa(s: float, k):
    """Closed-form frequency kappa_k = k*pi/2 - (1-s)*pi/4, for real (also fractional) k."""
    return np.asarray(k, dtype=float) * math.pi / 2.0 - (1.0 - s) * math.pi / 4.0


def asymptotic_level(s: float, kappa):
    """The real level k at which asymptotic_kappa(s, k) equals kappa."""
    return (np.asarray(kappa, dtype=float) + (1.0 - s) * math.pi / 4.0) / (math.pi / 2.0)


def asymptotic_eigenvalues(s: float, n_max: int) -> np.ndarray:
    """Closed-form approximation rho_n = (n*pi/2 - (1-s)*pi/4)^(2s), n = 1..n_max.

    This is an approximation with an O(1/n) defect, never ground truth; the
    Galerkin table (``discretized_eigenvalues``) is the cross-check.
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


def _jacobi_b(a: float, k_max: int) -> np.ndarray:
    """Recurrence coefficients b_1..b_{k_max-1} of the polynomials orthonormal
    for the weight (1-x^2)^a on (-1, 1); b[k-1] = b_k."""
    k = np.arange(1.0, k_max)
    return np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))


def _jacobi_rows(s: float, k_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal polynomials p_0..p_{k_max-1} for the weight (1-x^2)^s on
    (-1, 1), one row each, sampled at x, from the three-term recurrence
    x p_k = b_{k+1} p_{k+1} + b_k p_{k-1} of the symmetric Jacobi family."""
    b = _jacobi_b(s, k_max)
    p = np.empty((k_max, len(x)))
    p[0] = math.sqrt(math.gamma(s + 1.5) / (math.sqrt(math.pi) * math.gamma(s + 1.0)))
    if k_max > 1:
        p[1] = x * p[0] / b[0]
    for j in range(1, k_max - 1):
        p[j + 1] = (x * p[j] - b[j - 1] * p[j - 1]) / b[j]
    return p


# Newton on the nodes' angles stops once rho |dtheta| is this small: the step
# then leaves only round-off, and second-order terms of the weight are ~1e-17.
_NEWTON_TOL = 1.0e-8
# Quadratic convergence takes a step this small to _NEWTON_TOL in one more step
# (measured: rho |dtheta| 4e-6 -> 4e-12 at the end nodes).
_NEWTON_LAST = 1.0e-4
_NEWTON_PASSES = 30


def _scaled_recurrence(x: np.ndarray, gamma: list, derivative: bool):
    """q_n, q_{n-1} and, with ``derivative``, q_n'/2 (else ones) at x, where
    q_{k+1} = 2x q_k - gamma_k q_{k-1}, q_0 = 1, q_1 = 2x and n = len(gamma) + 1.

    With gamma_k = 4 b_k^2, q_k = p_k prod_{j<=k} 2 b_j / p_0 is the
    orthonormal p_k rescaled so that no division is left in the step; the
    products converge, so q_k stays within a constant factor of p_k.  One
    vectorized step per degree, no n x n array.
    """
    x2 = 2.0 * x
    q0, q1, t = np.ones_like(x), x2.copy(), np.empty_like(x)
    r0, r1, u = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    for g in gamma:
        if derivative:  # r = q'/2: r_{k+1} = 2x r_k + q_k - gamma_k r_{k-1}
            np.multiply(x2, r1, out=u)
            u += q1
            r0 *= g
            np.subtract(u, r0, out=r0)
            r0, r1 = r1, r0
        np.multiply(x2, q1, out=t)
        q0 *= g
        np.subtract(t, q0, out=q0)
        q0, q1 = q1, q0
    return q1, q0, r1


def gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi nodes and weights for the weight (1-x^2)^a on (-1, 1),
    a >= 0; ``gauss_legendre`` is its a = 0 case.

    The nodes x = cos(theta) of the non-negative half start from Tricomi-type
    asymptotic angles, theta ~ phi + (1/4 - a^2) cot(phi) / (2 rho^2) with
    phi = (k + a/2 - 1/4) pi / rho and rho = n + a + 1/2, and a vectorized
    Newton iteration on p_n(cos theta), the orthonormal polynomial evaluated
    by its three-term recurrence, runs until the step is round-off; the rule
    is made exactly odd.  cos(theta) rounds the node, and near the ends,
    where 1 - x is exact, the iteration adds back the part
    2 sin^2(theta/2) - (1 - x) that the rounding dropped, so theta is the
    angle of the true node.

    The weights are Christoffel-Darboux's 1 / (b_n p_n'(x) p_{n-1}(x)) with
    p_{n-1} eliminated by (1-x^2) p_n' = (2n+2a+1) b_n p_{n-1} at a zero:
    w = (2n+2a+1) / ((1-x^2) p_n'(x)^2), with 1 - x^2 = sin^2(theta) and p_n'
    from the last Newton pass, moved to the final node to first order by
    p_n'' = (2a+2) x p_n' / (1-x^2).  (Taking p_{n-1} itself costs 3e-7
    relative at the end nodes of n = 3831: it is small there and moves fast.)
    Neither nodes nor weights need an eigensolve or an n x n array.
    """
    if n < 1 or not a >= 0.0:
        raise ValueError(f"need n >= 1 and a >= 0, got n = {n}, a = {a}")
    # gamma_k = 4 b_k^2 = 1 - c_k, k = 1..n, to within an ulp, where
    # squaring _jacobi_b's square roots would be a few ulps off
    gamma = 1.0 - (4.0 * a * a - 1.0) / ((2.0 * np.arange(1, n + 1) + 2.0 * a) ** 2 - 1.0)
    rho = n + a + 0.5
    phi = (np.arange(1, (n + 1) // 2 + 1) + 0.5 * a - 0.25) * (math.pi / rho)
    theta = phi + (0.25 - a * a) / (2.0 * rho * rho) / np.tan(phi)
    steps, derivative = gamma[:-1].tolist(), False
    for _ in range(_NEWTON_PASSES):
        x, sin = np.cos(theta), np.sin(theta)
        lost = np.where(x >= 0.5, (1.0 - x) - 2.0 * np.sin(0.5 * theta) ** 2, 0.0)
        qn, qm, rn = _scaled_recurrence(x, steps, derivative)
        # q_n' from the last pass, or from (1-x^2) q_n' = -n x q_n + (2n+2a+1) 2 b_n^2 q_{n-1}
        dq = 2.0 * rn if derivative else ((2 * n + 2 * a + 1) * 0.5 * gamma[-1] * qm - n * x * qn) / sin**2
        step = (qn / dq + lost) / sin  # Newton on p_n at the exact cos(theta) = x + lost
        theta = theta + step
        size = rho * float(np.max(np.abs(step)))
        if derivative and size <= _NEWTON_TOL:
            break
        derivative = size <= _NEWTON_LAST
    else:
        raise RuntimeError(f"Gauss-Jacobi Newton iteration did not converge at n = {n}, a = {a}")
    sin = np.sin(theta)
    moved = lost - sin * step  # cos(theta) - x, theta the final angle
    # p_n' = 2 r_n p_0 / prod 2 b_k with p_0^2 = 1 / int (1-x^2)^a; the product
    # of the rounded gamma_k the recurrence used, summed as exact logs, cancels
    # their rounding in r_n
    scale = (2 * n + 2 * a + 1) * math.sqrt(math.pi) * math.gamma(a + 1.0) / (4.0 * math.gamma(a + 1.5))
    dr = rn * (1.0 + (2 * a + 2) * x * moved / sin**2)
    w = scale * math.exp(float(np.sum(np.log1p(gamma - 1.0)))) / (sin * dr) ** 2
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    return np.concatenate((-x, x[::-1][n % 2:])), np.concatenate((w, w[::-1][n % 2:]))


def _stiffness(s: float, k_max: int) -> np.ndarray:
    """Gamma(k+1+2s)/k!, k = 0..k_max-1: the diagonal of (-d^2)^s in the basis
    (1-x^2)^s p_k.  A running product of (k+2s)/k from Gamma(1+2s) keeps it
    within 1e-14 relative at k = 336, where exp(lgamma - lgamma) is 5e-13 off."""
    k = np.arange(1.0, k_max)
    return math.gamma(1.0 + 2 * s) * np.cumprod(np.concatenate(([1.0], (k + 2 * s) / k)))


def _ritz_values(s: float, per_parity: int) -> np.ndarray:
    """All Ritz values, ascending, of (-d^2)^s with zero exterior values in the
    span of phi_k = (1-x^2)^s p_k, k < 2 per_parity.

    (-d^2)^s phi_k = Gamma(2s+k+1)/k! p_k (Acosta, Borthagaray, Bruno and
    Maas, Math. Comp. 2018), so the stiffness matrix is diagonal, L.  The mass
    matrix G = int (1-x^2)^(2s) p_j p_k is exact under ``gauss_jacobi``, the
    Gauss-Jacobi rule for the weight (1-x^2)^(2s), and even and odd k
    decouple.  The Ritz values are the reciprocals of the eigenvalues of
    L^(-1/2) G L^(-1/2), whose largest eigenvalues (the lowest modes) the
    symmetric solve gets to full relative accuracy.  Being Ritz values, they bound the eigenvalues from
    above and do not increase as the basis grows.
    """
    k_max = 2 * per_parity
    x, w = gauss_jacobi(k_max, 2 * s)
    q = _jacobi_rows(s, k_max, x) * np.sqrt(w) / np.sqrt(_stiffness(s, k_max))[:, None]
    mu = [np.linalg.eigvalsh(half @ half.T) for half in (q[0::2], q[1::2])]
    return np.sort(1.0 / np.concatenate(mu))


def discretized_eigenvalues(s: float, n_max: int) -> np.ndarray:
    """Lowest n_max eigenvalues of the Dirichlet fractional Laplacian by a
    Jacobi-Galerkin (Rayleigh-Ritz) solve with max(n_max, 32) + 8 basis
    functions per parity; the lowest 32 agree with a basis four times larger
    to about 1e-9 relative over 0.55 <= s <= 0.95."""
    return _ritz_values(_check_order(s), max(int(n_max), 32) + 8)[:n_max]


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
        """One row per mode; floats as shortest round-trip decimals, the last gap nan."""
        write_csv(path, "n,rho,rho_root,gap,backend", "%d,%r,%r,%r,%s",
                  zip(range(1, self.n_max + 1), self.rho.tolist(), self.rho_root.tolist(),
                      np.append(self.gaps(), np.nan).tolist(), [self.backend] * self.n_max))


def build_eigenvalue_table(s: float, n_max: int, backend: str = "asymptotic") -> EigenvalueTable:
    """Build an EigenvalueTable with the requested backend."""
    s = _check_order(s)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if backend == "asymptotic":
        rho = asymptotic_eigenvalues(s, n_max)
    elif backend == "discretized":
        rho = discretized_eigenvalues(s, n_max)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return EigenvalueTable(s=s, n_max=n_max, rho=rho, backend=backend)


@dataclass
class OperatorSample:
    """Function samples on a uniform grid, prepared for operator evaluation."""

    grid: np.ndarray
    values: np.ndarray
    s: float
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
        self.c_s = normalization_constant(self.s)

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])


_NEAR_RADIUS = 0.5   # physical half-width of the moment-corrected band
_NEAR_MIN_CELLS = 12  # never correct fewer cells than this on each side


def apply_fractional_laplacian(sample: OperatorSample, eval_indices):
    """Evaluate (-d^2)^s on the sample by principal-value quadrature.

    Symmetric cell quadrature with exact kernel integrals, a Taylor correction
    of the singular cell, and first/second-moment corrections on nearby cells.
    The part of the integral beyond the sampled window gets an analytic tail
    correction whose model is picked from the sample itself: if the values are
    flat at both window edges the exterior is continued with the edge value
    (so constants map to zero identically); otherwise the exterior difference
    is modeled as u(x) alone, which is the right truncation for decaying or
    rapidly oscillating bounded samples.  Returns ``(x_eval, values)``.
    Evaluation indices must keep a margin of grid on both sides.
    """
    s, h = sample.s, sample.h
    u = sample.values
    m = len(u)
    near_cells = max(_NEAR_MIN_CELLS, int(round(_NEAR_RADIUS / h)))
    near_cells = min(near_cells, m // 4)
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
    """Per-mode disagreement of the closed form with the Galerkin table.

    The Galerkin table is exact to about 1e-9, so ``delta`` is the closed
    form's own O(1/n) defect.  ``c_fitted`` is that band, fitted to the low
    modes; ``flagged`` marks a low mode more than ``_BAND_FACTOR`` times
    above it.  ``passed`` is the blanket relative criterion ``_REL_TOL``
    over the shared range with no mode flagged.
    """

    n: np.ndarray
    delta: np.ndarray
    rel: np.ndarray
    c_fitted: float
    flagged: np.ndarray
    max_rel: float
    passed: bool


_REL_TOL = 1.0e-2     # blanket relative agreement of the two tables
_BAND_FACTOR = 5.0    # a low mode this many times above the fitted band is flagged


def _median(v) -> float:
    """``np.median`` of a 1-D array without NaNs, by one sort; ``np.median``
    imports ``numpy.ma`` on its first call."""
    v = np.sort(v)
    mid = len(v) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0)


def compare_backends(table_asym: EigenvalueTable, table_disc: EigenvalueTable) -> BackendAgreement:
    """Compare a closed-form table with a Galerkin table of the same order over
    their shared modes; relative errors are taken against the closed form."""
    if table_asym.s != table_disc.s:
        raise ValueError("tables must share the fractional order")
    n_cmp = min(table_asym.n_max, table_disc.n_max)
    n = np.arange(1, n_cmp + 1, dtype=float)
    delta = np.abs(table_asym.rho[:n_cmp] - table_disc.rho[:n_cmp])
    rel = delta / table_asym.rho[:n_cmp]
    fit_range = max(3, n_cmp // 3)
    c_fit = _median((delta * n)[:fit_range])
    flagged = np.zeros(n_cmp, dtype=bool)
    flagged[:fit_range] = (delta * n)[:fit_range] > _BAND_FACTOR * max(c_fit, 1e-300)
    max_rel = float(rel.max())
    return BackendAgreement(
        n=n.astype(int), delta=delta, rel=rel, c_fitted=c_fit,
        flagged=flagged, max_rel=max_rel,
        passed=bool(max_rel <= _REL_TOL and not flagged.any()),
    )
