"""Infinite-product evaluator: zeros, growth, type, derivative envelopes."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave import product as pr
from memwave.cubic import complex_root, real_root
from memwave.fractional import asymptotic_kappa, build_eigenvalue_table, gauss_interval
from memwave.moving import build_moving_spectrum


@pytest.fixture(scope="module")
def pf():
    table = build_eigenvalue_table(0.75, 48)
    ms = build_moving_spectrum(table, 0.5, 1.0, 48)
    return pr.ProductFunction(ms, 300.0)


def test_triple_zero_at_origin(pf):
    assert pf.eval(0.0)[0] == 0.0
    for eps in (1e-3, 1e-4):
        ratio = abs(pf.eval(eps))[0] / eps**3
        assert ratio == pytest.approx(1.0, rel=1e-2)


def test_every_mode_zero_is_exact(pf):
    # the factor 1 + z/zeta vanishes identically at z = -zeta
    vals = np.abs(pf.eval(pf.zeros[::17]))
    assert np.all(vals == 0.0)


def test_zero_set_is_simple(pf):
    d = np.abs(pf.zeros[:, None] - pf.zeros[None, :])
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0


def test_block_extension_agrees_with_exact_factors():
    # the same spectrum built at two truncations: with the asymptotic table
    # the direct-block extension reproduces the dropped exact factors
    table = build_eigenvalue_table(0.75, 32)
    ms_small = build_moving_spectrum(table, 0.5, 1.0, 16)
    ms_large = build_moving_spectrum(table, 0.5, 1.0, 32)
    z = np.array([3.0 + 0.2j, 12.5 - 0.1j, 0.5 + 4j])
    radius = float(np.max(np.abs(z)))
    pa, pb = pr.ProductFunction(ms_small, radius), pr.ProductFunction(ms_large, radius)
    la, lb = pa.log_eval(z), pb.log_eval(z)
    diff = la - lb
    # the log phase is only defined mod 2 pi
    winding = np.round(diff.imag / (2 * np.pi))
    assert np.max(np.abs(diff.real)) < 1e-6
    assert np.max(np.abs(diff.imag - 2 * np.pi * winding)) < 1e-6


def _remainder(pf, z, k_cut):
    a, w = pf._remainder_zeros(k_cut)
    return pr._log_factor_sum(a, z, w)


def test_remainder_model_against_direct_blocks(pf):
    # direct block summation over (k_cut, span k_cut] + far remainder must match
    # the remainder model at k_cut, for the fixture (s = 0.75, c = 1) and at
    # s = 0.95 with c = 1 and c = 0.5; there the cutoff sits past the crossing
    # of the branch-2/3 zeros (k_cut ~ 7e5), so the span is 2
    z = np.array([250 + 0.3j, 100 + 0.5j, 40j, 10 + 0.1j])
    table = build_eigenvalue_table(0.95, 48)
    cases = [(pf, 40)] + [(pr.ProductFunction(build_moving_spectrum(table, 0.5, c, 48), 1.0), span)
                          for c, span in ((1.0, 40), (0.5, 2))]
    for p, span in cases:
        k_cut = p._direct_cutoff(float(np.max(np.abs(z))))
        model = _remainder(p, z, k_cut)
        c = abs(p.ms.c)
        acc = np.zeros(len(z), dtype=complex)
        ks = np.arange(k_cut + 1, span * k_cut)
        for start in range(0, len(ks), 1 << 16):
            kk = ks[start : start + (1 << 16)]
            kap, m1, m2, m3 = p._mu_tuple(kk.astype(float))
            mus = np.stack([m1, m2, m3], axis=1)
            ck2 = (c * kap)[:, None] ** 2
            num = (z[:, None, None] + 1j * mus[None, :, :]) ** 2 - ck2[None, :, :]
            den = (1j * mus[None, :, :]) ** 2 - ck2[None, :, :]
            acc += np.sum(np.log(num / den), axis=(1, 2))
        acc += _remainder(p, z, int(ks[-1]))
        assert np.max(np.abs(model - acc)) < 2e-3, (p.ms.s, c)


@pytest.mark.parametrize("s, c, zmax", [(0.95, 1.0, 3.0), (0.95, 0.5, 1000.0), (0.75, 0.5, 3.0), (0.75, 1.0, 150.0)])
def test_remainder_zeros_lie_beyond_the_near_ratio(s, c, zmax):
    # the branch-2/3 zeros i mu2 -+ c kappa sit ~kappa^s inside c kappa; past the
    # cutoff every level, not only the Euler-Maclaurin nodes, must clear the window
    pf = pr.ProductFunction(build_moving_spectrum(build_eigenvalue_table(s, 16), 0.5, c, 16), zmax)
    k_cut = pf._direct_cutoff(zmax)
    tail, _ = pf._remainder_zeros(k_cut)
    assert np.min(np.abs(tail)) > pr._NEAR_RATIO * zmax
    levels = np.geomspace(k_cut + 1, 1e4 * (k_cut + 1), 20000)
    assert np.min(np.abs(pf._level_zeros(levels))) > pr._NEAR_RATIO * zmax
    if (s, c) == (0.75, 1.0):  # the family configuration: the first estimate is already clear
        assert k_cut == 383


def test_direct_cutoff_refuses_a_crossing_past_the_level_cap():
    # at s = 0.95, c = 0.3 the branch-2/3 zeros cross the window near kappa ~ 3e10,
    # far beyond any direct-block array that fits in memory; the product refuses
    # to be built, before any point is evaluated
    ms = build_moving_spectrum(build_eigenvalue_table(0.95, 16), 0.5, 0.3, 16)
    with pytest.raises(ValueError, match="direct blocks would run past level"):
        pr.ProductFunction(ms, 1.0)


def test_evaluation_beyond_the_radius_is_refused():
    # the zero table serves |z| <= radius; a point past it is an error, not a
    # silently shorter truncation
    pf = pr.ProductFunction(build_moving_spectrum(build_eigenvalue_table(0.75, 16), 0.5, 1.0, 16), 10.0)
    assert np.all(np.isfinite(pf.log_eval(np.array([10.0, -6.0 + 8.0j, 0.5j]))))
    near = [m for m in pf.modes if abs(pf.ms.lam(*m)) <= 10.0]
    far = [m for m in pf.modes if abs(pf.ms.lam(*m)) > 10.0]
    assert near and far and np.all(np.isfinite(pf.derivative_at_modes(near)))
    for call in (lambda: pf.log_eval(np.array([1.0, 10.5j])), lambda: pf.derivative_at_modes(near + far[:1]),
                 lambda: pr.zero_abscissas(pf, 12.0)):
        with pytest.raises(ValueError, match="beyond the product's radius"):
            call()


def _per_level_euler_maclaurin(pf, z, k_cut):
    """sum_{k > k_cut} f(k) ~ int_{K1}^inf f + f(K1)/2 - f'(K1)/12, K1 = k_cut + 1,
    with f(k) the sum of level k's six log factors, level by level.  Each f is
    taken at 30 digits: in float64 the six logs of a far level cancel to
    ~1e-8 of their size, which leaves this sum ~1e-10 off."""

    def f(levels):
        a = pf._level_zeros(np.asarray(levels, dtype=float))
        with mp.workdps(30):
            return np.array([[complex(mp.fsum(mp.log(1 + mp.mpc(x) / mp.mpc(b)) for b in a[:, i]))
                              for i in range(a.shape[1])] for x in z])

    K1 = float(k_cut + 1)
    t, w = gauss_interval(0.0, 1.0, pf._GAUSS_N)
    integral = K1 * f(K1 / t) @ (w / t**2)
    h = 1e-3 * K1
    f0, f_up, f_down = f([K1, K1 + h, K1 - h]).T
    return integral + 0.5 * f0 - (f_up - f_down) / (2.0 * h) / 12.0


def test_weighted_remainder_is_the_euler_maclaurin_sum(pf):
    # the remainder as weighted zeros in the far power sums is the per-level
    # Euler-Maclaurin formula, term for term
    z = np.array([250 + 0.3j, 100 + 0.5j, 40j, 10 + 0.1j, -3.0 + 0.0j])
    k_cut = pf._direct_cutoff(float(np.max(np.abs(z))))
    want = _per_level_euler_maclaurin(pf, z, k_cut)
    got = _remainder(pf, z, k_cut)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_axis_growth_trend_and_compensation(pf):
    comp, fit = pr.growth_compensator(pf, 300.0)
    # the uncompensated modulus trend is real and matches |x|^(2s-1)
    assert fit.alpha == pytest.approx(0.5)
    assert fit.d1 > 1.0
    xs = np.linspace(0.5, 300, 800)
    logm = pf.log_eval(xs.astype(complex), comp).real
    # one sum over both zero sets is the product's sum plus the multiplier's
    apart = (pf.log_eval(xs.astype(complex)) + comp.log_eval(xs.astype(complex))).real
    assert np.max(np.abs(logm - apart)) < 1e-10
    # compensated modulus flat: no order-of-magnitude growth across the window
    basis = np.vstack([np.sqrt(xs), np.ones_like(xs)]).T
    slope = np.linalg.lstsq(basis, logm, rcond=None)[0][0]
    assert abs(slope) < 0.15 * fit.d1
    assert logm.max() - np.median(logm) < 6.0


def test_derivative_at_mode_matches_finite_difference():
    # the batched P' and P~' at every mode |n| <= 12 against a batched central
    # difference of log_eval, off the tuned point as well
    h = 1e-6
    for s in (0.6, 0.75, 0.95):
        table = build_eigenvalue_table(s, 16)
        for c in (1.0, 1.4):
            pf = pr.ProductFunction(build_moving_spectrum(table, 0.5, c, 16), 150.0)
            comp, _ = pr.growth_compensator(pf, 150.0)
            modes = [m for m in pf.modes if abs(m[0]) <= 12]
            z0 = -1j * np.conj(np.array([pf.ms.lam(*m) for m in modes]))
            steps = np.concatenate([z0 + h, z0 - h])
            for m in (None, comp):
                up, down = np.split(np.exp(pf.log_eval(steps, m)), 2)
                fd = (up - down) / (2 * h)
                assert pf.derivative_at_modes(modes, m) == pytest.approx(fd, rel=1e-5), (s, c, m)


def test_product_report(pf):
    rep = pr.verify_product_properties(pf.ms, 12, scan_radius=200.0)
    assert rep.passed, rep
    assert rep.type_empirical <= 1.1 * rep.type_theoretical
    # lower sanity: at least the branch-1 comb density must show up
    assert rep.type_empirical >= math.pi / abs(pf.ms.c) - 1.0
    assert rep.c2_hat > 0
    assert rep.strip_stable
    # growth trend recorded
    assert rep.growth.d1 > 0


def _explicit_log_sum(a, z):
    return np.sum(np.log(a[None, :] + z[:, None]) - np.log(a)[None, :], axis=1)


def _draw_zeros(kind, count, rng):
    if kind == "product":
        # the six zeros i mu^j +- c kappa_k of consecutive extension levels
        s, M, c = rng.uniform(0.55, 0.95), rng.uniform(0.2, 2.0), rng.uniform(0.5, 1.4)
        kap = asymptotic_kappa(s, np.arange(1, count + 1))
        rho = kap ** (2.0 * s)
        mu1 = real_root(rho, M)
        mu2 = complex_root(mu1, rho)
        ims = 1j * np.concatenate([mu1, mu2, np.conj(mu2)])
        cks = np.tile(c * kap, 3)
        return np.concatenate([ims - cks, ims + cks])
    # conjugate pairs t_j +- i*offset and their mirror images
    zeta = np.cumsum(rng.uniform(0.3, 3.0, count)) + 1j * rng.uniform(0.1, 1.0)
    return np.concatenate([zeta, -zeta, np.conj(zeta), -np.conj(zeta)])


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["product", "compensator"]),
    count=st.integers(1, 300),
    window=st.floats(0.5, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_factor_sum_matches_explicit_sum(kind, count, window, seed):
    rng = np.random.default_rng(seed)
    a = _draw_zeros(kind, count, rng)
    z = rng.uniform(-window, window, 48) + 1j * rng.uniform(-1.0, 1.0, 48)
    got = pr._log_factor_sum(a, z)
    want = _explicit_log_sum(a, z)
    diff = got - want
    diff -= 2j * np.pi * np.round(diff.imag / (2 * np.pi))
    scale = 1.0 + np.sum(np.abs(np.log(a[None, :] + z[:, None]) - np.log(a)[None, :]), axis=1)
    assert np.all(np.abs(diff) <= 1e-12 * scale)


def _principal_log_sum(a, z, w):
    # w * log(1 + z/a) on the principal branch, as log(a + z) - log(a) brought into (-pi, pi]
    terms = np.log(a[None, :] + z[:, None]) - np.log(a)[None, :]
    terms.imag -= 2 * np.pi * np.round(terms.imag / (2 * np.pi))
    return terms @ w, np.sum(np.abs(terms * w[None, :]), axis=1)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["product", "compensator"]),
    count=st.integers(1, 300),
    window=st.floats(0.5, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_log_factor_sum_matches_explicit_sum(kind, count, window, seed):
    rng = np.random.default_rng(seed)
    a = _draw_zeros(kind, count, rng)
    # real weights of either sign and any size, near zeros and far zeros alike
    w = rng.uniform(-3.0, 3.0, len(a)) * 10.0 ** rng.uniform(-2.0, 3.0, len(a))
    z = rng.uniform(-window, window, 48) + 1j * rng.uniform(-1.0, 1.0, 48)
    got = pr._log_factor_sum(a, z, w)
    want, scale = _principal_log_sum(a, z, w)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + scale))


def _compare_in_blocks(a, z, w, got, mod_2pi):
    """got against the explicit principal sum, 512 points at a time; with
    mod_2pi the difference is taken mod 2 pi i (unit-weight panel constants)."""
    for start in range(0, len(z), 512):
        want, scale = _principal_log_sum(a, z[start : start + 512], w)
        diff = got[start : start + 512] - want
        if mod_2pi:
            diff -= 2j * np.pi * np.round(diff.imag / (2 * np.pi))
        assert np.all(np.abs(diff) <= 1e-12 * (1.0 + scale))


@settings(max_examples=30)
@given(
    kind=st.sampled_from(["product", "compensator"]),
    count=st.integers(1, 300),
    shape=st.sampled_from(["line", "cloud"]),
    points=st.integers(200, 5000),
    window=st.floats(0.5, 200.0),
    weights=st.sampled_from(["unit", "real", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_panel_expansions_match_explicit_sum(kind, count, shape, points, window, weights, seed):
    # point sets spanning many panels of _PANEL points, in no particular order
    rng = np.random.default_rng(seed)
    a = _draw_zeros(kind, count, rng)
    x = rng.uniform(-window, window, points)
    if shape == "line":
        z = x + 1j * rng.uniform(-1.0, 1.0)
    else:
        z = x + 1j * rng.uniform(-1.0, 1.0, points) * rng.uniform(0.01, 1.0) * window
    w = rng.uniform(-3.0, 3.0, len(a)) * 10.0 ** rng.uniform(-2.0, 3.0, len(a))
    if weights == "unit":
        w[:] = 1.0
    elif weights == "mixed":  # the product's case: unit weights with weighted zeros among them
        w[rng.random(len(a)) < 0.7] = 1.0
    got = pr._log_factor_sum(a, z, None if weights == "unit" else w)
    # real weights stay explicit or in the far series, so their sum is principal
    _compare_in_blocks(a, z, w, got, mod_2pi=weights != "real")


def test_point_on_a_zero_gives_minus_infinity():
    # two points of a long line moved exactly onto near zeros
    rng = np.random.default_rng(5)
    a = _draw_zeros("product", 200, rng)
    z = np.linspace(-100.0, 100.0, 3000) + 0.3j
    z[[700, 2100]] = -a[np.argsort(np.abs(a))[[3, 40]]]
    got = pr._log_factor_sum(a, z)
    assert np.all(got.real[[700, 2100]] == -np.inf)
    rest = np.isfinite(got.real)
    assert np.count_nonzero(rest) == len(z) - 2
    _compare_in_blocks(a, z[rest], np.ones(len(a)), got[rest], mod_2pi=True)


def test_far_zero_sum_holds_few_bytes_per_zero():
    # 1e6 far zeros: the far expansion holds a mask, a weight, the inverse and
    # its running power per zero (49 bytes), no interleaved weight pairs on top
    # (81 bytes); its values agree with a direct sum of accurate logs
    rng = np.random.default_rng(2)
    n = 1_000_000
    z = rng.uniform(-100.0, 100.0, 8) + 1j * rng.uniform(-1.0, 1.0, 8)
    a = 2.5 * np.max(np.abs(z)) * 10.0 ** rng.uniform(0.0, 4.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    tracemalloc.start()
    try:
        got = pr._log_factor_sum(a, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 64.0, peak / n
    for zi, gi in zip(z, got):
        # log(1 + x) as log|1 + x| from log1p of 2 Re x + |x|^2, and arg(1 + x)
        x = zi / a
        log_modulus = 0.5 * np.log1p(2.0 * x.real + x.real**2 + x.imag**2)
        want = np.sum(log_modulus) + 1j * np.sum(np.arctan2(x.imag, 1.0 + x.real))
        assert abs(gi - want) <= 1e-13 * abs(want)


@pytest.fixture(scope="module")
def family_product():
    # the family configuration's product spectrum (N = 16) and its compensator,
    # on a radius that holds the square |Re z|, |Im z| <= 150 the tests sample
    pf = pr.ProductFunction(build_moving_spectrum(build_eigenvalue_table(0.75, 16), 0.5, 1.0, 16),
                            np.hypot(150.0, 150.0))
    comp, _ = pr.growth_compensator(pf, 150.0)
    return pf, comp


def test_family_configuration_takes_far_branch(family_product, monkeypatch):
    # the benchmark's family configuration: product spectrum N = 16, window 150,
    # on a line as dense as the family's Gauss nodes (~5000 points)
    pf, comp = family_product
    calls, series, explicit_pairs = [], [], []
    helper, expansion, grouped = pr._log_factor_sum, pr._series, pr._grouped_log_sum
    monkeypatch.setattr(pr, "_log_factor_sum",
                        lambda a, z, weights=None: calls.append((a, z, weights)) or helper(a, z, weights))
    monkeypatch.setattr(pr, "_series", lambda inv, w, u: series.append(u) or expansion(inv, w, u))
    # the explicit factors (a + z) of every panel's points, padding included
    monkeypatch.setattr(pr, "_grouped_log_sum", lambda factors, divisor=1.0: (
        factors.ndim == 3 and explicit_pairs.append(factors.size)) or grouped(factors, divisor))
    z = np.linspace(-150.0, 150.0, 5001) + 0.5j

    def far_zeros(a, z):
        return int(np.count_nonzero(np.abs(a) > pr._NEAR_RATIO * np.max(np.abs(z))))

    def check_panels(a, z):
        # one expansion about 0 for the far zeros, then one pass over all panels
        # for the near ones, and explicit factors for at most a tenth of the near
        # point-zero pairs
        panels = -(-len(z) // pr._PANEL)
        far, near = series
        assert far.shape == (1, len(z)) and np.array_equal(far[0], z)
        assert near.shape == (panels, pr._PANEL)
        assert 0 < sum(explicit_pairs) <= 0.1 * len(z) * (len(a) - far_zeros(a, z))

    pf.log_eval(z)
    (a, zz, w), = calls
    # exact modes plus six zeros per direct-block level and per remainder level
    assert len(a) > len(pf.zeros) and (len(a) - len(pf.zeros)) % 6 == 0
    assert far_zeros(a, zz) > 0
    check_panels(a, zz)
    # weight 1 but on the remainder zeros, which are all far
    tail = 6 * (pf._GAUSS_N + 3)
    assert np.all(w[:-tail] == 1.0) and np.all(np.abs(a[-tail:]) > pr._NEAR_RATIO * np.max(np.abs(zz)))
    for log in (calls, series, explicit_pairs):
        log.clear()
    # the compensated product: the same zero set and the compensator's zeros in one sum
    pf.log_eval(z, comp)
    (b, zz, v), = calls
    assert len(comp.zeros) == 4 * len(comp.t)
    assert np.array_equal(b, np.concatenate([a[:-tail], comp.zeros, a[-tail:]]))
    assert np.array_equal(v, np.concatenate([w[:-tail], np.ones(len(comp.zeros)), w[-tail:]]))
    assert far_zeros(comp.zeros, zz) > len(comp.zeros) // 2
    check_panels(b, zz)


@settings(max_examples=200, deadline=None)
@given(re=st.floats(20.0, 5000.0), im=st.floats(-3000.0, 3000.0))
def test_loggamma_matches_scipy(re, im):
    from scipy.special import loggamma

    z = complex(re, im)
    assert abs(pr._loggamma(z) - loggamma(z)) <= 1e-15 * abs(loggamma(z))


def test_loggamma_refuses_arguments_below_its_series_range():
    with pytest.raises(ValueError):
        pr._loggamma(np.array([30.0, 19.5 + 40j]))
    # the compensator's chains stay far inside the range across its window
    comp = pr.GrowthCompensator(2.0, 0.5, 300.0)
    assert comp._m0 - comp.B * 300.0 / 2.0 >= 20.0
    assert np.all(np.isfinite(comp.chain_log(np.array([-300.0, 300.0]) + 1j)))


def _log_eval_scale(pf, comp, z):
    """sum over the zero set of |w log(1 + z/a)|: exact on the near zeros, and
    the bound 2 |w z/a| >= |w log(1 + z/a)| on the far ones (|z/a| < 1/2)."""
    a, w = pf._zero_set(comp)
    near = np.abs(a) <= pr._NEAR_RATIO * np.max(np.abs(z), initial=0.0)
    scale = 2.0 * np.abs(z) * np.sum(np.abs(w[~near] / a[~near]))
    for start in range(0, len(z), 256):
        scale[start : start + 256] += _principal_log_sum(a[near], z[start : start + 256], np.abs(w[near]))[1]
    return scale


@settings(max_examples=15, deadline=None)
@given(
    shape=st.sampled_from(["line", "cloud"]),
    points=st.integers(1, 3000),
    on_zeros=st.integers(0, 3),
    split=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_eval_does_not_depend_on_the_batching(family_product, shape, points, on_zeros, split, seed):
    # a permutation of the points, and the same points split into two calls
    # anywhere, give the same values mod 2 pi i: every call reads the product's
    # one zero table, whatever the batch's max|z|
    pf, comp = family_product
    rng = np.random.default_rng(seed)
    x = rng.uniform(-150.0, 150.0, points)
    if shape == "line":
        z = x + 1j * rng.uniform(-1.0, 1.0)
    else:
        z = x + 1j * rng.uniform(-1.0, 1.0, points) * rng.uniform(0.01, 1.0) * 150.0
    # exactly on zeros of P (the spectrum's modes) and of the compensator
    inside = comp.zeros[np.abs(comp.zeros) <= 150.0]
    targets = np.concatenate([pf.zeros, inside])
    hit = rng.choice(points, min(on_zeros, points), replace=False)
    z[hit] = targets[rng.integers(0, len(targets), len(hit))]
    want = pf.log_eval(z, comp)
    assert np.all(want.real[hit] == -np.inf)
    perm = rng.permutation(points)
    permuted = np.empty_like(want)
    permuted[perm] = pf.log_eval(z[perm], comp)
    cut = int(split * points)
    halves = np.empty_like(want)
    for idx in (np.arange(cut), np.arange(cut, points)):
        halves[idx] = pf.log_eval(z[idx], comp)
    finite = np.isfinite(want.real)
    scale = _log_eval_scale(pf, comp, z[finite])
    for got in (permuted, halves):
        assert np.array_equal(np.isfinite(got.real), finite)
        diff = got[finite] - want[finite]
        diff -= 2j * np.pi * np.round(diff.imag / (2 * np.pi))
        assert np.all(np.abs(diff) <= 1e-12 * (1.0 + scale))


def test_grouped_logs_stay_in_range_and_keep_exact_zeros():
    # _GROUP factors of modulus 1e19 or 1e-19 neither overflow nor underflow
    rng = np.random.default_rng(3)
    phases = rng.uniform(-np.pi, np.pi, (2 * pr._GROUP, 2))
    for modulus in (1e19, 1e-19):
        factors = modulus * np.exp(1j * phases)
        got = pr._grouped_log_sum(factors)
        want = np.log(factors).sum(axis=0)
        diff = got - want
        diff -= 2j * np.pi * np.round(diff.imag / (2 * np.pi))
        assert np.all(np.abs(diff) <= 1e-12 * np.abs(want))
    # one exact zero makes its column -inf and leaves the other alone
    factors = np.exp(1j * phases)
    factors[5, 1] = 0.0
    got = pr._grouped_log_sum(factors)
    assert got.real[1] == -np.inf and np.isfinite(got[0])
