"""Canonical infinite product over the moving-frame spectrum.

``P(z) = z^3 * prod over modes (1 + z / (i conj(lam(n,j))))`` vanishes exactly
at z = -i conj(lam(n,j)) and at a triple zero in the origin; its restriction
to the real axis is the Fourier-side object from which the biorthogonal family
is read off.  A bare truncation of the product is useless on any interesting
window (the missing factors near the truncation edge distort the modulus by
many orders of magnitude), so the evaluator has three layers:

* exact factors for every mode of the supplied spectrum (the relabeling
  convention at a critical velocity included);
* direct blocks for levels beyond the table: level k contributes the six
  factors 1 + z/a with a = i mu^j -+ c kappa_k, from the closed-form
  frequency extension kappa_k = k*pi/2 - (1-s)*pi/4 and the per-level
  cubic, out to where all remaining levels are safely non-resonant.  Exact
  and block factors are summed as log(1 + z/a) by one routine of local
  expansions: every zero farther than twice the batch's max|z| through the
  power series -sum_k (-z)^k S_k / k about z = 0 with S_k = sum a^(-k); the
  nearer zeros per panel of points about its centre z_c, as the constant
  sum [log(a + z_c) - log a] plus the same series in z - z_c with
  S_k = sum (a + z_c)^(-k).  Only the zeros within twice a panel's radius
  of -z_c (and weighted near zeros) stay explicit logs, so the cost is a few
  dozen series terms per point plus a few dozen logs, exact to round-off;
  with unit weights the phase is defined mod 2 pi i;
* the far tail summed by Euler-Maclaurin: the block log is a smooth,
  non-oscillatory function of the continuous level index once
  c*kappa_k dominates |z|, so sum_{k>K} f(k) = int f + f/2 - f'/12 + ...
  with the integral taken by quadrature on the compactified variable.
  Every term of that formula is a level's six zeros with a weight (the
  quadrature weight, 1/2, or the difference weight of f'), so the tail goes
  through the same sum as the other zeros; lying past the direct blocks,
  its zeros land among the far ones, where they only add w a^(-k) to the
  power sums and cost nothing per point beyond the series.

One structural fact matters downstream: for 1/2 < s < 1 the dispersive comb
offset beta_n ~ kappa_n^s makes the zero counting irregular at order
r^(2s-1), so log|P| carries a genuine subexponential growth trend
~ d*|x|^(2s-1) along the real axis (at s = 1 the offset is linear in kappa
and the trend vanishes, which is where the flat-modulus expectation comes
from).  The growth is o(|x|) and can therefore be cancelled at zero cost in
exponential type by a sparse real-zero multiplier whose counting function
matches the measured trend; ``growth_compensator`` builds it (its explicit
zeros go through the same expansions), and the Fourier-side constructions
evaluate the compensated product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .cubic import complex_root, real_root
from .fractional import asymptotic_kappa, asymptotic_level, gauss_interval
from .moving import MovingSpectrum, BRANCHES, horizon_threshold, pair_distances

__all__ = [
    "ProductFunction",
    "build_product",
    "GrowthFit",
    "fit_axis_growth",
    "GrowthCompensator",
    "growth_compensator",
    "zero_abscissas",
    "ProductReport",
    "verify_product_properties",
]

_CHUNK = 1 << 20    # points x zeros in one block of explicit logs
_PANEL = 256        # points per panel of the near-zero expansions
_SAFETY = 4.0      # direct blocks run out to c*kappa >= _SAFETY * max|z|
_MAX_LEVEL = 1 << 20  # six direct zeros per level: 6.3e6 zeros, ~100 MB per array
_NEAR_RATIO = 2.0  # a zero is expanded about z_c once |a + z_c| > _NEAR_RATIO * radius


def _expansion(a: np.ndarray, w: np.ndarray, zc: complex, u: np.ndarray) -> np.ndarray:
    """sum over a of w * log(1 + (z_c + u)/a) by the expansion about z_c:
    the constant sum w [log(a + z_c) - log a] plus -sum_k (-u)^k S_k / k with
    S_k = sum w (a + z_c)^(-k).  Needs r = max|u| / min|a + z_c| < 1; K terms
    with r^K <= 1e-17 leave a truncation below round-off."""
    out = np.zeros(len(u), dtype=complex)
    if not len(a):
        return out
    inv = 1.0 / (a + zc)
    if zc != 0.0:
        out += w @ (np.log(a + zc) - np.log(a))
    r = float(np.max(np.abs(u), initial=0.0)) * float(np.max(np.abs(inv)))
    if r > 0.0:
        K = max(1, math.ceil(-17.0 / math.log10(r)))
        coef = np.empty(K, dtype=complex)  # (-1)^(k+1) S_k / k, k = 1..K
        power = inv.copy()
        for k in range(1, K + 1):
            coef[k - 1] = (-1) ** (k + 1) * (power @ w) / k
            power *= inv
        series = 0.0
        for c_k in coef[::-1]:  # Horner in u
            series = (series + c_k) * u
        out += series
    return out


def _explicit_logs(a: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum over a of w * log(1 + z/a) as explicit logs log(a + z) - log(a),
    brought back to (-pi, pi]; vanishes identically when z sits on a zero."""
    out = np.zeros(len(z), dtype=complex)
    step = max(1, _CHUNK // max(len(z), 1))
    with np.errstate(divide="ignore"):
        for start in range(0, len(a), step):
            chunk, w_chunk = a[start : start + step], w[start : start + step]
            terms = chunk[None, :] + z[:, None]
            np.log(terms, out=terms)
            terms -= np.log(chunk)[None, :]
            turns = terms.imag / (2.0 * math.pi)
            np.round(turns, out=turns)
            turns *= 2.0 * math.pi
            terms.imag -= turns
            # real and imaginary parts apart, so a -inf at an exact zero stays -inf
            out += terms.real @ w_chunk + 1j * (terms.imag @ w_chunk)
    return out


def _log_factor_sum(a: np.ndarray, z: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum over a of w * log(1 + z/a) at each z (w = 1 by default).

    Each zero enters through a local expansion about the centre z_c of a group
    of points of radius rho (``_expansion``) wherever |a + z_c| >
    _NEAR_RATIO * rho, so the truncation is below round-off with r <= 1/2:

    * far zeros, |a| > _NEAR_RATIO * max|z|, about z_c = 0 for every point:
      the constant vanishes and the series is the principal log(1 + z/a);
    * near zeros of weight 1 per panel: the points sorted by real part and
      cut into panels of _PANEL consecutive points, each about the centre of
      its bounding box.

    The rest stay explicit logs (``_explicit_logs``): near zeros within
    _NEAR_RATIO * rho of -z_c, so a z that sits on a zero gives -inf, and
    near zeros whose weight is not 1, so a weighted term is on the principal
    branch.  A panel's constant log(a + z_c) - log a carries the phase only
    mod 2 pi i, so with unit weights the sum is defined mod 2 pi i, which
    exp() does not see.
    """
    zmax = float(np.max(np.abs(z), initial=0.0))
    w = np.ones(len(a)) if weights is None else np.asarray(weights, dtype=float)
    near = np.abs(a) <= _NEAR_RATIO * zmax
    acc = _expansion(a[~near], w[~near], 0.0, z)
    a_near, w_near = a[near], w[near]
    unit = w_near == 1.0
    order = np.lexsort((z.imag, z.real))
    for start in range(0, len(z), _PANEL):
        idx = order[start : start + _PANEL]
        zp = z[idx]
        zc = complex(0.5 * (zp.real.min() + zp.real.max()), 0.5 * (zp.imag.min() + zp.imag.max()))
        rho = float(np.max(np.abs(zp - zc)))
        local = unit & (np.abs(a_near + zc) > _NEAR_RATIO * rho)
        acc[idx] += _expansion(a_near[local], w_near[local], zc, zp - zc)
        acc[idx] += _explicit_logs(a_near[~local], w_near[~local], zp)
    return acc


class ProductFunction:
    """Evaluator for P and P' built over a moving spectrum.

    Every mode of the spectrum is an exact factor; direct blocks run out to
    c*kappa >= _SAFETY * max|z| of the batch, and on until every remainder
    zero lies beyond _NEAR_RATIO * max|z|, where the analytic remainder takes
    over.
    """

    def __init__(self, ms: MovingSpectrum):
        self.ms = ms
        self.modes = list(ms.modes())
        self.zeta_factor = np.array([1j * np.conj(ms.lam(n, j)) for n, j in self.modes])
        self.zeros = -self.zeta_factor
        if pair_distances(self.zeros).min() <= 0.0:
            raise ValueError("zero set is not simple; apply the critical-velocity relabeling first")

    # -- extension ----------------------------------------------------------
    def _mu_tuple(self, k_real):
        """Cubic roots along the extension for (possibly fractional) levels k."""
        kap = asymptotic_kappa(self.ms.s, k_real)
        rho = kap ** (2.0 * self.ms.s)
        mu1 = real_root(rho, self.ms.M)
        mu2 = complex_root(mu1, rho)
        return kap, mu1.astype(complex), mu2, np.conj(mu2)

    def _direct_cutoff(self, zmax: float) -> int:
        """Last level handled by direct blocks: beyond it |w_j| <= ~0.2, and
        every remainder zero lies beyond _NEAR_RATIO * max|z|.

        The branch-2/3 zeros i mu2 -+ c kappa sit Im mu2 ~ kappa^s closer to the
        origin than c kappa, and c kappa - Im mu2 stays negative up to
        kappa ~ c^(-1/(1-s)) (about 1e6 at s = 0.95, c = 0.5), where those
        zeros cross the window.  So the cutoff grows by a quarter until
        g = c kappa - sqrt(3 M^2/4 + kappa^(2s)) exceeds _NEAR_RATIO * max|z| at
        the lowest remainder level.  g is a lower bound of c kappa - Im mu2
        (|mu1| < |M|), and once positive it only grows with kappa (c kappa >
        kappa^s there), so every remainder zero has |Re a| > _NEAR_RATIO * max|z|.
        """
        c, s = abs(self.ms.c), self.ms.s
        zmax = max(zmax, 1.0)
        kap_need = max(
            _SAFETY * zmax / c,
            (10.0 * zmax / c**2) ** (1.0 / (2.0 - s)),
        )
        k = max(int(math.ceil(asymptotic_level(s, kap_need))), self.ms.N + 1)
        while True:
            kap = asymptotic_kappa(s, self._remainder_levels(k)[0].min())
            if c * kap - complex_root(abs(self.ms.M), kap ** (2.0 * s)).imag > _NEAR_RATIO * zmax:
                return k
            k = math.ceil(1.25 * k)
            if k > _MAX_LEVEL:
                raise ValueError(
                    f"direct blocks would run past level {_MAX_LEVEL}: the branch-2/3 zeros "
                    f"i mu2 -+ c kappa are still within {_NEAR_RATIO:g} max|z| there (s = {s}, c = {c})"
                )

    def _level_zeros(self, k_real) -> np.ndarray:
        """The zeros a = i mu^j -+ c kappa_k of level k's six factors 1 + z/a, shape (6, len(k))."""
        kap, m1, m2, m3 = self._mu_tuple(k_real)
        ims = 1j * np.stack([m1, m2, m3])
        ck = abs(self.ms.c) * kap
        return np.concatenate([ims - ck, ims + ck])

    def _factor_zeros(self, k_cut: int, skip: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Every zero a of a factor 1 + z/a with its weight: the spectrum's
        modes (but ``skip``) and the six zeros of each direct-block level
        k <= k_cut with weight 1, then the weighted remainder zeros."""
        exact = self.zeta_factor if skip is None else np.delete(self.zeta_factor, skip)
        levels = self._level_zeros(np.arange(self.ms.N + 1, k_cut + 1, dtype=float)).ravel()
        tail, w_tail = self._remainder_zeros(k_cut)
        return np.concatenate([exact, levels, tail]), np.concatenate([np.ones(len(exact) + len(levels)), w_tail])

    _GAUSS_N = 48  # Gauss nodes on (0, 1) of the compactified remainder integral

    def _remainder_levels(self, k_cut: int) -> tuple[np.ndarray, np.ndarray]:
        """Levels and weights whose weighted level log sums are the
        Euler-Maclaurin sum over the levels k > k_cut.

        Past the direct cutoff a level's log sum f(k) is smooth and
        non-oscillatory in the continuous level index and decays like k^{-2},
        so sum_{k>K} f(k) = int_{K1}^inf f dk + f(K1)/2 - f'(K1)/12 + ...,
        K1 = K + 1, with the integral K1 * int_0^1 f(K1/t) / t^2 dt on Gauss
        nodes and f' a central difference of step h.  Each term is f at one
        level times a weight, and f is a sum over the level's six zeros.
        """
        K1 = float(k_cut + 1)
        t, w = gauss_interval(0.0, 1.0, self._GAUSS_N)
        h = 1e-3 * K1
        levels = np.concatenate([K1 / t, [K1, K1 + h, K1 - h]])
        weights = np.concatenate([K1 * w / t**2, [0.5, -1.0 / (24.0 * h), 1.0 / (24.0 * h)]])
        return levels, weights

    def _remainder_zeros(self, k_cut: int) -> tuple[np.ndarray, np.ndarray]:
        """The remainder levels' six zeros each, with their level's weight."""
        levels, weights = self._remainder_levels(k_cut)
        return self._level_zeros(levels).ravel(), np.tile(weights, 6)

    # -- evaluation ---------------------------------------------------------
    def log_eval(self, z) -> np.ndarray:
        """log P(z) on an array of points (phase defined mod 2 pi i)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.where(z == 0, -np.inf + 0j, 3.0 * np.log(np.where(z == 0, 1.0, z)))
        out = out.astype(complex)
        nz = z != 0
        out[nz] += self._log_factors(z[nz])
        return out

    def eval(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        res = np.zeros_like(z)
        nz = z != 0
        res[nz] = np.exp(self.log_eval(z[nz]))
        return res

    def _log_factors(self, z: np.ndarray, skip: int | None = None) -> np.ndarray:
        """log of every factor but z^3: exact modes, direct blocks, remainder."""
        k_cut = self._direct_cutoff(float(np.max(np.abs(z), initial=1.0)))
        a, w = self._factor_zeros(k_cut, skip)
        return _log_factor_sum(a, z, w)

    # -- derivatives --------------------------------------------------------
    def derivative_at_mode(self, n: int, j: int) -> complex:
        """P'(z0) at the mode's zero z0 = -i conj(lam(n,j)), factored form."""
        try:
            idx = self.modes.index((n, j))
        except ValueError:
            raise KeyError(f"mode {(n, j)} is not an included factor") from None
        z0 = self.zeros[idx]
        log_rest = self._log_factors(np.array([z0]), skip=idx)[0]
        return complex(z0**3 / self.zeta_factor[idx] * np.exp(log_rest))


def build_product(ms: MovingSpectrum) -> ProductFunction:
    return ProductFunction(ms)


@dataclass
class GrowthFit:
    """Trend fit log|P(x)| ~ d1 * |x|^(2s-1) + d0 on the real axis."""

    d1: float
    d0: float
    alpha: float
    residual_spread: float


def zero_abscissas(pf: ProductFunction, x_max: float) -> np.ndarray:
    """Real parts of the zeros on the positive axis, table and extension."""
    ms = pf.ms
    c = abs(ms.c)
    k_hi = int(math.ceil(asymptotic_level(ms.s, x_max / c))) + 2
    kap, _, m2, _ = pf._mu_tuple(np.arange(ms.N + 1, k_hi + 1, dtype=float))
    xs = np.concatenate([np.abs(pf.zeros.real), c * kap, c * kap + m2.imag, np.abs(c * kap - m2.imag)])
    return np.sort(np.unique(xs[(xs > 0.0) & (xs <= x_max)]))


def fit_axis_growth(pf: ProductFunction, x_max: float, samples: int = 160) -> GrowthFit:
    """Fit the subexponential modulus trend at midpoints between real zeros."""
    alpha = 2.0 * pf.ms.s - 1.0
    xr = zero_abscissas(pf, x_max)
    xr = xr[xr > 1.0]
    mids = 0.5 * (xr[1:] + xr[:-1])
    if len(mids) > samples:
        mids = mids[np.linspace(0, len(mids) - 1, samples).astype(int)]
    vals = pf.log_eval(mids.astype(complex)).real
    basis = np.vstack([mids**alpha, np.ones_like(mids)]).T
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    resid = vals - basis @ coef
    return GrowthFit(d1=float(coef[0]), d0=float(coef[1]), alpha=alpha,
                     residual_spread=float(resid.max() - resid.min()))


class GrowthCompensator:
    """Real-zero multiplier of small exponential type with a counting deficit.

    Classical multiplier construction: a regular comb of slope B has counting
    N(t) = B t and a bounded sine-type modulus; thinning it to
    N(t) = B t - omega(t)/pi with omega(t) = d1 (t^alpha - t0^alpha)_+ makes
    the log-modulus on the real axis track -omega(|x|) on top of the bounded
    baseline.  Since omega is o(t), the deficit costs nothing beyond the
    comb's own type pi*B.  Zeros are placed explicitly (drift included) out to
    ``reach`` times the working window; past them the comb is linear and its
    product has a closed gamma-function form.
    """

    def __init__(
        self, d1: float, alpha: float, x_max: float,
        t0: float = 1.0, reach: float = 30.0, offset: float = 0.75,
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        self.alpha = float(alpha)
        self.d1 = max(float(d1), 0.0)
        self.t0 = float(t0)
        self.offset = float(offset)
        # slope keeps the counting strictly increasing through the deficit
        self.B = max(0.6, 1.3 * self.d1 * alpha / math.pi)
        self.type = math.pi * self.B
        # zeros come in conjugate pairs t_j +- i*offset, so they stay clear of
        # the product's near-axis zeros; each abscissa carries two zeros and
        # the per-chain counting uses half the slope and half the deficit
        L = reach * max(x_max, 10.0)
        J = int(math.floor((self.B * L - self._omega(L) / math.pi) / 2.0))
        j = np.arange(1, J + 2, dtype=float)
        t = 2.0 * j / self.B
        for _ in range(12):
            t = (2.0 * j + self._omega(t) / math.pi) / self.B
        self.t = t[:-1]
        self._m0 = J + 1 + (self.B * t[-1] / 2.0 - (J + 1))

    def _omega(self, t):
        tt = np.maximum(np.asarray(t, dtype=float), self.t0)
        return self.d1 * (tt**self.alpha - self.t0**self.alpha)

    def log_eval(self, z) -> np.ndarray:
        from scipy.special import loggamma

        z = np.atleast_1d(np.asarray(z, dtype=complex))
        zeta = self.t + 1j * self.offset
        acc = _log_factor_sum(np.concatenate([zeta, -zeta, np.conj(zeta), -np.conj(zeta)]), z)
        # two linear chains beyond the explicit zeros, spacing 2/B each
        w = z * self.B / 2.0
        acc += 2.0 * (2.0 * loggamma(self._m0) - loggamma(self._m0 + w) - loggamma(self._m0 - w))
        return acc


def growth_compensator(pf: ProductFunction, x_max: float) -> tuple[GrowthCompensator, GrowthFit]:
    fit = fit_axis_growth(pf, x_max)
    comp = GrowthCompensator(fit.d1, fit.alpha, x_max)
    return comp, fit


@dataclass
class ProductReport:
    """Audit of the product's analytic properties at desk scale.

    The exponential type, derivative envelope, and zero density refer to the
    literal product; the strip bound and decay envelope are properties of the
    compensated product (the literal one carries the measured |x|^(2s-1)
    modulus trend recorded in ``growth``, so a flat strip bound holds only
    after compensation).
    """

    type_theoretical: float
    type_empirical: float
    type_ok: bool
    type_lower_reference: float
    growth: GrowthFit
    strip_sup: float
    strip_sup_half_range: float
    strip_stable: bool
    c1_hat: float
    envelope_slope: float
    c2_hat: float
    c2_per_mode: dict
    zero_density: float
    zero_density_reference: float
    passed: bool


def verify_product_properties(
    pf: ProductFunction, strip_delta: float = 1.0, family_N: int | None = None,
    scan_radius: float | None = None,
) -> ProductReport:
    """Numerical audit of type, growth/boundedness, and zero derivatives."""
    ms = pf.ms
    c, gamma = abs(ms.c), ms.gamma
    tau = horizon_threshold(c, gamma) / 2.0
    N_fam = family_N if family_N is not None else max(1, ms.N // 4)
    x_hi = scan_radius if scan_radius is not None else 2.0 * c * float(ms.kappa_pos[-1])

    # exponential type along the imaginary axis (literal product)
    y_hi = 0.6 * c * float(ms.kappa_pos[-1])
    ys = np.linspace(0.4 * y_hi, y_hi, 9)
    vals = pf.log_eval(1j * ys).real
    type_emp = float(np.polyfit(ys, vals, 1)[0])
    type_ok = bool(type_emp <= 1.1 * tau)

    # modulus trend and its compensator
    comp, fit = growth_compensator(pf, x_hi)

    # strip bound of the compensated product; stability = the sup on each
    # horizontal line is not driven by the outer half of the scan range
    xs = np.linspace(-x_hi, x_hi, 4001)
    inner = np.abs(xs) <= x_hi / 2.0
    sup_full, sup_half = 0.0, 0.0
    strip_stable = True
    for yline in (0.0, strip_delta / 2.0, strip_delta):
        logm = (pf.log_eval(xs + 1j * yline) + comp.log_eval(xs + 1j * yline)).real
        line_full = float(np.exp(logm.max()))
        line_half = float(np.exp(logm[inner].max()))
        strip_stable = strip_stable and line_full <= 5.0 * line_half
        sup_full = max(sup_full, line_full)
        if yline == 0.0:
            sup_half = line_half
            logmod_axis = logm

    # decay envelope of compensated P(x)/(x - z_m) for a few family modes
    c1_hat = 0.0
    slopes = []
    mod_axis = np.exp(logmod_axis)
    for n in (1, max(1, N_fam // 2), N_fam):
        for j in (1, 2):
            z_m = -1j * np.conj(ms.lam(n, j))
            env = mod_axis / np.abs(xs - z_m) * (1.0 + np.abs(xs - z_m.real))
            c1_hat = max(c1_hat, float(env.max()))
            half = len(xs) // 2
            slopes.append(float(np.log(max(env[half:].max(), 1e-300) / max(env[:half].max(), 1e-300))))
    envelope_slope = float(np.mean(slopes))

    # derivative lower envelope over the family modes (literal product)
    c2: dict = {}
    for n in [m for m in ms.mode_indices() if abs(m) <= N_fam]:
        for j in BRANCHES:
            c2[(n, j)] = abs(ms.rho(n) * pf.derivative_at_mode(n, j))
    c2_hat = float(min(c2.values()))

    # zero counting (reported, not asserted): per-unit density of zeros and
    # the per-unit density tau/pi the quoted type would imply
    r = 0.8 * c * float(ms.kappa_pos[-1])
    re_zeros = np.abs(pf.zeros.real)
    density = float(np.count_nonzero(re_zeros <= r) / (2.0 * r))
    return ProductReport(
        type_theoretical=tau, type_empirical=type_emp, type_ok=type_ok,
        type_lower_reference=math.pi / c, growth=fit,
        strip_sup=sup_full, strip_sup_half_range=sup_half, strip_stable=strip_stable,
        c1_hat=c1_hat, envelope_slope=envelope_slope,
        c2_hat=c2_hat, c2_per_mode={f"{k}": v for k, v in c2.items()},
        zero_density=density, zero_density_reference=tau / math.pi,
        passed=bool(type_ok and strip_stable and c2_hat > 0.0),
    )
