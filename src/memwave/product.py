"""Canonical infinite product over the moving-frame spectrum.

``P(z) = z^3 * prod over modes (1 + z / (i conj(lam(n,j))))`` vanishes exactly
at z = -i conj(lam(n,j)) and at a triple zero in the origin; its restriction
to the real axis is the Fourier-side object from which the biorthogonal family
is read off.  A bare truncation of the product is useless on any interesting
window (the missing factors near the truncation edge distort the modulus by
many orders of magnitude).  So each product builds one zero table for the
points |z| <= radius it serves, and every evaluation reads it (P is then a
function of z alone, whichever points share a call).  It has three layers:

* exact factors for every mode of the supplied spectrum (the relabeling
  convention at a critical velocity included);
* direct blocks for levels beyond the table: level k contributes the six
  factors 1 + z/a with a = i mu^j -+ c kappa_k, from the closed-form
  frequency extension kappa_k = k*pi/2 - (1-s)*pi/4 and the per-level
  cubic, out to where all remaining levels are safely non-resonant;
* the far tail summed by Euler-Maclaurin: the block log is a smooth,
  non-oscillatory function of the continuous level index once
  c*kappa_k dominates the radius, so sum_{k>K} f(k) = int f + f/2 - f'/12 + ...
  with the integral taken by quadrature on the compactified variable.
  Every term of that formula is a level's six zeros with a weight (the
  quadrature weight, 1/2, or the difference weight of f').

All of these zeros, weighted or not, go through one routine of local power
series expansions, ``_log_factor_sum``, exact to round-off at a few dozen
series terms per point.  The far zeros share one expansion about 0; the
near ones are expanded about the centres of panels of points, all panels in
one pass, and the few too close to a panel's centre are explicit factors,
multiplied sixteen at a time before one complex log.  The tail's weighted
zeros lie past the direct blocks among the far ones, where they cost nothing
per point; only far zeros may carry a weight other than 1.

One structural fact matters downstream: for 1/2 < s < 1 the dispersive comb
offset beta_n ~ kappa_n^s makes the zero counting irregular at order
r^(2s-1), so log|P| carries a genuine subexponential growth trend
~ d*|x|^(2s-1) along the real axis (at s = 1 the offset is linear in kappa
and the trend vanishes).  The growth is o(|x|), so a sparse real-zero
multiplier M whose counting function matches the measured trend cancels it
at no cost in exponential type (``growth_compensator``).  The Fourier-side
constructions use the compensated product P~ = P M as one object: with a
compensator, ``log_eval`` sums the zeros of P and M in one call and adds M's
closed-form chain term, and ``derivative_at_modes`` takes P' or P~' at a
whole list of modes from one zero set, the other exact factors entering as
one explicit (modes x exact zeros) log matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .cubic import complex_root, real_root
from .fractional import asymptotic_kappa, asymptotic_level, gauss_interval, sorted_unique
from .moving import MovingSpectrum, BRANCHES, horizon_threshold, pair_distances

__all__ = [
    "ProductFunction",
    "GrowthFit",
    "fit_axis_growth",
    "GrowthCompensator",
    "growth_compensator",
    "zero_abscissas",
    "ProductReport",
    "verify_product_properties",
]

_CHUNK = 1 << 15    # points x zeros in one block of explicit logs (512 kB)
_GROUP = 16         # factors per complex log: 16 moduli in [1e-19, 1e19] stay in float64's range
_PANEL = 256        # points per panel of the near-zero expansions
_SAFETY = 4.0      # direct blocks run out to c*kappa >= _SAFETY * max|z|
_MAX_LEVEL = 1 << 20  # six direct zeros per level: 6.3e6 zeros, ~100 MB per array
_NEAR_RATIO = 2.0  # a zero is expanded about z_c once |a + z_c| > _NEAR_RATIO * radius
_GROWTH_SAMPLES = 160  # midpoints between real zeros in the modulus trend fit
_STRIP_DELTA = 1.0     # half-width of the strip |Im z| <= delta the strip bound scans


def _series(inv: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row p of the local expansions about centres z_p: sum over a of
    w * log(1 + u/(a + z_p)) = -sum_k (-u)^k S_pk / k at the offsets u[p], with
    the power sums S_pk = sum w inv[p]^k of inv[p] = 1/(a + z_p) (0 for a zero
    row p does not expand).  Needs r_p = max|u[p]| * max|inv[p]| < 1; row p
    keeps its own K_p terms with r_p^K_p <= 1e-17, so its truncation is below
    round-off.  One recurrence of max K_p steps serves every row."""
    r = np.max(np.abs(u), axis=1, initial=0.0) * np.max(np.abs(inv), axis=1, initial=0.0)
    with np.errstate(divide="ignore"):
        K = np.where(r > 0.0, np.maximum(1.0, np.ceil(-17.0 / np.log10(r))), 0.0)
    coef = np.zeros((int(K.max(initial=0.0)), len(u)), dtype=complex)  # (-1)^(k+1) S_k / k
    power = inv.copy()
    for k in range(1, len(coef) + 1):
        # S_k as one stacked real product: w against each row's interleaved (re, im) pairs
        sums = w @ power.view(np.float64).reshape(len(power), -1, 2)
        coef[k - 1] = (-1) ** (k + 1) * (sums[:, 0] + 1j * sums[:, 1]) / k
        power *= inv
    coef[np.arange(len(coef))[:, None] >= K[None, :]] = 0.0
    series = np.zeros(u.shape, dtype=complex)
    for c_k in coef[::-1]:  # Horner in u
        series += c_k[:, None]
        series *= u
    return series


def _grouped_log_sum(factors: np.ndarray, divisor=1.0) -> np.ndarray:
    """sum over the leading axis, whose length is a multiple of _GROUP, of
    log(factors), as one complex log per product of _GROUP factors divided by
    ``divisor`` (one value per group); defined mod 2 pi i.  A factor 0 gives
    -inf; factors of 1 pad a group."""
    groups = factors.reshape(-1, _GROUP, *factors.shape[1:]).prod(axis=1)
    groups /= divisor
    with np.errstate(divide="ignore"):
        return np.log(groups).sum(axis=0)


def _panel_sums(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum over the unit-weight near zeros a of log(1 + z/a), mod 2 pi i, in
    one pass over all panels.

    The points, sorted by real part, are cut into P panels of _PANEL (the
    last padded with its last point), each with the centre z_c of its
    bounding box and radius rho.  In the P x len(a) matrix a + z_c a zero is
    expanded about z_c where |a + z_c| > _NEAR_RATIO * rho: its constant
    log(1 + z_c/a) and its power sums enter every panel at once
    (``_series``).  The rest are explicit: per panel a padded list of its
    explicit zeros, whose factors a + z at the panel's points are multiplied
    _GROUP at a time and divided by the product of the same _GROUP zeros
    before one log (``_grouped_log_sum``), in blocks of at most _CHUNK
    factors.  Dividing per group keeps each log the size of the terms it
    sums; subtracting sum log a once would cost eps * sum |log a|, about
    1e-12 on a few thousand near zeros.  A z that sits on a zero gives -inf.
    """
    P = -(-len(z) // _PANEL)
    order = np.lexsort((z.imag, z.real))
    zs = z[np.concatenate([order, np.full(P * _PANEL - len(z), order[-1])])].reshape(P, _PANEL)
    zc = 0.5 * (zs.real.min(axis=1) + zs.real.max(axis=1)) + 0.5j * (zs.imag.min(axis=1) + zs.imag.max(axis=1))
    u = zs - zc[:, None]
    rho = np.max(np.abs(u), axis=1)
    shifted = a[None, :] + zc[:, None]
    local = np.abs(shifted) > _NEAR_RATIO * rho[:, None]

    ratios = np.ones((_GROUP * -(-len(a) // _GROUP), P), dtype=complex)  # 1 + z_c/a, local or 1
    np.divide(shifted, a, out=ratios[: len(a)].T, where=local)
    const = _grouped_log_sum(ratios)
    inv = np.divide(1.0, shifted, out=shifted, where=local)
    inv[~local] = 0.0
    out = _series(inv, np.ones(len(a)), u)
    out += const[:, None]

    # the explicit zeros of panel p fill column p of an E x P table, padded
    p_idx, j_idx = np.nonzero(~local)
    counts = np.bincount(p_idx, minlength=P)
    E = _GROUP * -(-int(counts.max(initial=0)) // _GROUP)
    if E:
        slot = np.arange(len(p_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
        a_exp = np.ones((E, P), dtype=complex)
        a_exp[slot, p_idx] = a[j_idx]
        pad = np.ones((E, P), dtype=bool)
        pad[slot, p_idx] = False
        a_groups = a_exp.reshape(-1, _GROUP, P).prod(axis=1)
        step = max(1, _CHUNK // (E * _PANEL))
        for start in range(0, P, step):
            sl = slice(start, start + step)
            factors = a_exp[:, sl, None] + zs[None, sl, :]
            np.copyto(factors, 1.0, where=pad[:, sl, None])
            out[sl] += _grouped_log_sum(factors, a_groups[:, sl, None])
    acc = np.empty(len(z), dtype=complex)
    acc[order] = out.ravel()[: len(z)]
    return acc


def _log_factor_sum(a: np.ndarray, z: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum over a of w * log(1 + z/a) at each z (w = 1 by default).

    Each zero enters through a local expansion about the centre z_c of a group
    of points of radius rho (``_series``) wherever |a + z_c| >
    _NEAR_RATIO * rho, so the truncation is below round-off with r <= 1/2:

    * far zeros, |a| > _NEAR_RATIO * max|z|, about z_c = 0 for every point:
      the constant vanishes and the series is the principal log(1 + z/a);
    * near zeros, all of weight 1, about the centres of panels of _PANEL points,
      all panels in one pass (``_panel_sums``), the few within
      _NEAR_RATIO * rho of -z_c as explicit factors multiplied _GROUP at a
      time before one log, so a z that sits on a zero gives -inf.

    A weight other than 1 is taken on far zeros only (the Euler-Maclaurin
    remainder lies beyond _NEAR_RATIO * radius by construction); a near one
    raises ``ValueError``.  Products and panel constants carry the phase
    only mod 2 pi i, so the sum is defined mod 2 pi i, which exp() does not
    see.
    """
    zmax = float(np.max(np.abs(z), initial=0.0))
    w = np.ones(len(a)) if weights is None else np.asarray(weights, dtype=float)
    near = np.abs(a) <= _NEAR_RATIO * zmax
    if np.any(w[near] != 1.0):
        raise ValueError(f"a zero of weight other than 1 lies within {_NEAR_RATIO:g} max|z| of the origin")
    acc = _series((1.0 / a[~near])[None, :], w[~near], z[None, :])[0]
    if len(z):
        acc += _panel_sums(a[near], z)
    return acc


class ProductFunction:
    """Evaluator for P and P' over a moving spectrum, at points |z| <= radius.

    The constructor builds the zero table: every mode is an exact factor,
    direct blocks run out to c*kappa >= _SAFETY * radius and on until every
    remainder zero lies beyond _NEAR_RATIO * radius, where the analytic
    remainder takes over.  A point beyond the radius raises ``ValueError``.
    """

    def __init__(self, ms: MovingSpectrum, radius: float):
        self.ms = ms
        self.modes = list(ms.modes())
        self.zeta_factor = np.array([1j * np.conj(ms.lam(n, j)) for n, j in self.modes])
        self.zeros = -self.zeta_factor
        if pair_distances(self.zeros).min() <= 0.0:
            raise ValueError("zero set is not simple; apply the critical-velocity relabeling first")
        self.radius = float(radius)
        k_cut = self._direct_cutoff(self.radius)
        self.levels = self._level_zeros(np.arange(ms.N + 1, k_cut + 1, dtype=float))
        self._tail, self._w_tail = self._remainder_zeros(k_cut)

    # -- extension ----------------------------------------------------------
    def _mu_tuple(self, k_real):
        """Cubic roots along the extension for (possibly fractional) levels k."""
        kap = asymptotic_kappa(self.ms.s, k_real)
        rho = kap ** (2.0 * self.ms.s)
        mu1 = real_root(rho, self.ms.M)
        mu2 = complex_root(mu1, rho)
        return kap, mu1.astype(complex), mu2, np.conj(mu2)

    def _direct_cutoff(self, zmax: float) -> int:
        """Last level handled by direct blocks for points |z| <= zmax: beyond
        it |w_j| <= ~0.2, and every remainder zero lies beyond _NEAR_RATIO * zmax.

        The branch-2/3 zeros i mu2 -+ c kappa sit Im mu2 ~ kappa^s closer to the
        origin than c kappa, and c kappa - Im mu2 stays negative up to
        kappa ~ c^(-1/(1-s)) (about 1e6 at s = 0.95, c = 0.5), where those
        zeros cross the window.  So the cutoff grows by a quarter until
        g = c kappa - sqrt(3 M^2/4 + kappa^(2s)) exceeds _NEAR_RATIO * zmax at
        the lowest remainder level.  g is a lower bound of c kappa - Im mu2
        (|mu1| < |M|), and once positive it only grows with kappa (c kappa >
        kappa^s there), so every remainder zero has |Re a| > _NEAR_RATIO * zmax.
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
                    f"i mu2 -+ c kappa are still within {_NEAR_RATIO:g} zmax there (s = {s}, c = {c})"
                )

    def _level_zeros(self, k_real) -> np.ndarray:
        """The zeros a = i mu^j -+ c kappa_k of level k's six factors 1 + z/a, shape (6, len(k))."""
        kap, m1, m2, m3 = self._mu_tuple(k_real)
        ims = 1j * np.stack([m1, m2, m3])
        ck = abs(self.ms.c) * kap
        return np.concatenate([ims - ck, ims + ck])

    def _zero_set(self, comp: GrowthCompensator | None, modes: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Zeros and weights of one log sum: the modes (with ``modes``), the direct
        levels and the explicit zeros of ``comp`` with weight 1, then the
        weighted remainder zeros."""
        a = np.concatenate([self.zeta_factor if modes else [], self.levels.ravel(),
                            [] if comp is None else comp.zeros, self._tail])
        return a, np.concatenate([np.ones(len(a) - len(self._tail)), self._w_tail])

    def _check_radius(self, zmax: float) -> None:
        if zmax > self.radius:
            raise ValueError(f"|z| = {zmax:g} lies beyond the product's radius {self.radius:g}")

    _GAUSS_N = 96  # Gauss nodes on (0, 1) of the compactified remainder integral

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
    def log_eval(self, z, comp: GrowthCompensator | None = None) -> np.ndarray:
        """log P(z) on an array of points, or with ``comp`` log P~(z) = log P(z) M(z):
        one log sum over both zero sets plus the compensator's chain term
        (phase defined mod 2 pi i)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        self._check_radius(float(np.max(np.abs(z), initial=0.0)))
        out = np.where(z == 0, -np.inf + 0j, 3.0 * np.log(np.where(z == 0, 1.0, z)))
        out = out.astype(complex)
        nz = z != 0
        a, w = self._zero_set(comp)
        out[nz] += _log_factor_sum(a, z[nz], w)
        if comp is not None:
            out += comp.chain_log(z)
        return out

    def eval(self, z) -> np.ndarray:
        return np.exp(self.log_eval(z))  # exp(-inf) = 0 on the zeros

    # -- derivatives --------------------------------------------------------
    def derivative_at_modes(self, modes, comp: GrowthCompensator | None = None) -> np.ndarray:
        """P'(z0) at each mode's zero z0 = -i conj(lam(n,j)), or with ``comp``
        P~'(z0) = P'(z0) M(z0), in factored form from one zero set: z0^3 / zeta
        of the mode's own factor, the other exact factors as explicit logs, and
        one log sum over the blocks, the remainder and the compensator."""
        idx = np.array([self.modes.index(m) for m in modes])
        z0 = self.zeros[idx]
        self._check_radius(float(np.max(np.abs(z0))))
        with np.errstate(divide="ignore"):
            exact = np.log(self.zeta_factor + z0[:, None]) - np.log(self.zeta_factor)
        exact[np.arange(len(idx)), idx] = 0.0  # the factor that vanishes at z0
        log_d = 3.0 * np.log(z0) - np.log(self.zeta_factor[idx]) + exact.sum(axis=1)
        a, w = self._zero_set(comp, modes=False)
        log_d += _log_factor_sum(a, z0, w)
        if comp is not None:
            log_d += comp.chain_log(z0)
        return np.exp(log_d)


@dataclass
class GrowthFit:
    """Trend fit log|P(x)| ~ d1 * |x|^(2s-1) + d0 on the real axis."""

    d1: float
    d0: float
    alpha: float


def zero_abscissas(pf: ProductFunction, x_max: float) -> np.ndarray:
    """|Re a| of the zeros in (0, x_max]: the modes and the product's direct
    levels up to two past the one where c kappa reaches x_max."""
    pf._check_radius(x_max)
    ms = pf.ms
    k_hi = int(math.ceil(asymptotic_level(ms.s, x_max / abs(ms.c)))) + 2
    xs = np.abs(np.concatenate([pf.zeros.real, pf.levels[:, : k_hi - ms.N].real.ravel()]))
    return sorted_unique(xs[(xs > 0.0) & (xs <= x_max)])


def fit_axis_growth(pf: ProductFunction, x_max: float) -> GrowthFit:
    """Fit the subexponential modulus trend at midpoints between real zeros."""
    alpha = 2.0 * pf.ms.s - 1.0
    xr = zero_abscissas(pf, x_max)
    xr = xr[xr > 1.0]
    mids = 0.5 * (xr[1:] + xr[:-1])
    if len(mids) > _GROWTH_SAMPLES:
        mids = mids[np.linspace(0, len(mids) - 1, _GROWTH_SAMPLES).astype(int)]
    vals = pf.log_eval(mids.astype(complex)).real
    basis = np.vstack([mids**alpha, np.ones_like(mids)]).T
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    return GrowthFit(d1=float(coef[0]), d0=float(coef[1]), alpha=alpha)


# B_2k / (2k (2k - 1)), k = 1..6: the Stirling series of log Gamma
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0, -691.0 / 360360.0)


def _loggamma(z) -> np.ndarray:
    """log Gamma(z), the branch continuous from the positive axis, by the
    Stirling series with six Bernoulli terms.  For Re z >= 20 the first term
    left out is below 1e-19; smaller Re z raises ``ValueError``."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 20.0):
        raise ValueError("the Stirling series needs Re z >= 20")
    inv = 1.0 / z
    inv2 = inv * inv
    series = 0.0
    for c in _STIRLING[::-1]:
        series = series * inv2 + c
    return (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series * inv


class GrowthCompensator:
    """Real-zero multiplier of small exponential type with a counting deficit.

    Classical multiplier construction: a regular comb of slope B has counting
    N(t) = B t and a bounded sine-type modulus; thinning it to
    N(t) = B t - omega(t)/pi with omega(t) = d1 (t^alpha - T0^alpha)_+ makes
    the log-modulus on the real axis track -omega(|x|) on top of the bounded
    baseline.  Since omega is o(t), the deficit costs nothing beyond the
    comb's own type pi*B.  Zeros are placed explicitly (drift included) out to
    ``REACH`` times the working window; past them the comb is linear and its
    product has a closed gamma-function form.
    """

    T0 = 1.0       # onset of the counting deficit
    REACH = 30.0   # explicit zeros out to REACH * max(x_max, 10)
    OFFSET = 0.75  # distance of the zeros t_j +- i OFFSET from the real axis

    def __init__(self, d1: float, alpha: float, x_max: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        self.alpha = float(alpha)
        self.d1 = max(float(d1), 0.0)
        # slope keeps the counting strictly increasing through the deficit
        self.B = max(0.6, 1.3 * self.d1 * alpha / math.pi)
        self.type = math.pi * self.B
        # zeros come in conjugate pairs t_j +- i*OFFSET, so they stay clear of
        # the product's near-axis zeros; each abscissa carries two zeros and
        # the per-chain counting uses half the slope and half the deficit
        L = self.REACH * max(x_max, 10.0)
        J = int(math.floor((self.B * L - self._omega(L) / math.pi) / 2.0))
        j = np.arange(1, J + 2, dtype=float)
        t = 2.0 * j / self.B
        for _ in range(12):
            t = (2.0 * j + self._omega(t) / math.pi) / self.B
        self.t = t[:-1]
        zeta = self.t + 1j * self.OFFSET
        self.zeros = np.concatenate([zeta, -zeta, np.conj(zeta), -np.conj(zeta)])
        self._m0 = J + 1 + (self.B * t[-1] / 2.0 - (J + 1))

    def _omega(self, t):
        tt = np.maximum(np.asarray(t, dtype=float), self.T0)
        return self.d1 * (tt**self.alpha - self.T0**self.alpha)

    def log_eval(self, z) -> np.ndarray:
        """log M(z) of the multiplier alone; the compensated product sums these
        zeros together with the product's (``ProductFunction.log_eval``)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return _log_factor_sum(self.zeros, z) + self.chain_log(z)

    def chain_log(self, z) -> np.ndarray:
        """log of the two linear chains beyond the explicit zeros, spacing 2/B
        each, in closed form; the explicit ``zeros`` enter the product's sum."""
        w = z * self.B / 2.0
        return 2.0 * (2.0 * _loggamma(self._m0) - _loggamma(self._m0 + w) - _loggamma(self._m0 - w))


def growth_compensator(pf: ProductFunction, x_max: float) -> tuple[GrowthCompensator, GrowthFit]:
    fit = fit_axis_growth(pf, x_max)
    comp = GrowthCompensator(fit.d1, fit.alpha, x_max)
    return comp, fit


@dataclass
class ProductReport:
    """Audit of the product's analytic properties at desk scale.

    The exponential type, derivative envelope, and zero density refer to the
    literal product; the strip stability is a property of the compensated
    product (the literal one carries the measured |x|^(2s-1) modulus trend
    recorded in ``growth``, so a flat strip bound holds only after
    compensation).
    """

    type_theoretical: float
    type_empirical: float
    type_ok: bool
    growth: GrowthFit
    strip_stable: bool
    c2_hat: float
    zero_density: float
    zero_density_reference: float
    passed: bool


def verify_product_properties(ms: MovingSpectrum, family_N: int, scan_radius: float | None = None) -> ProductReport:
    """Numerical audit of type, growth/boundedness, and zero derivatives, on
    one product whose radius holds every point the audit evaluates."""
    c, gamma = abs(ms.c), ms.gamma
    tau = horizon_threshold(c, gamma) / 2.0
    x_hi = scan_radius if scan_radius is not None else 2.0 * c * float(ms.kappa_pos[-1])
    y_hi = 0.6 * c * float(ms.kappa_pos[-1])
    fam = [(n, j) for n in ms.mode_indices() if abs(n) <= family_N for j in BRANCHES]
    xs = np.linspace(-x_hi, x_hi, 4001)
    lines = np.array([0.0, _STRIP_DELTA / 2.0, _STRIP_DELTA])
    strip = (xs[None, :] + 1j * lines[:, None]).ravel()  # the strip bound's points: they size the radius
    pf = ProductFunction(ms, max(float(np.max(np.abs(strip))), y_hi, *(abs(ms.lam(n, j)) for n, j in fam)))

    # exponential type along the imaginary axis (literal product)
    ys = np.linspace(0.4 * y_hi, y_hi, 9)
    type_emp = float(np.polyfit(ys, pf.log_eval(1j * ys).real, 1)[0])
    type_ok = bool(type_emp <= 1.1 * tau)

    # modulus trend and its compensator
    comp, fit = growth_compensator(pf, x_hi)

    # strip bound of the compensated product; stability = the sup on each
    # horizontal line is not driven by the outer half of the scan range
    inner = np.abs(xs) <= x_hi / 2.0
    logm = pf.log_eval(strip, comp).real.reshape(len(lines), -1)
    strip_stable = bool(np.all(np.exp(logm.max(axis=1)) <= 5.0 * np.exp(logm[:, inner].max(axis=1))))

    # derivative lower envelope over the family modes (literal product)
    rho = np.array([ms.rho(n) for n, _ in fam])
    c2_hat = float(np.min(np.abs(rho * pf.derivative_at_modes(fam))))

    # zero counting (reported, not asserted): per-unit density of zeros and
    # the per-unit density tau/pi the quoted type would imply
    r = 0.8 * c * float(ms.kappa_pos[-1])
    re_zeros = np.abs(pf.zeros.real)
    density = float(np.count_nonzero(re_zeros <= r) / (2.0 * r))
    return ProductReport(
        type_theoretical=tau, type_empirical=type_emp, type_ok=type_ok, growth=fit,
        strip_stable=strip_stable, c2_hat=c2_hat,
        zero_density=density, zero_density_reference=tau / math.pi,
        passed=bool(type_ok and strip_stable and c2_hat > 0.0),
    )
