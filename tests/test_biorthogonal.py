"""Biorthogonal family construction and the lower summation inequality."""

import csv
import dataclasses
import io

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave import biorthogonal as bio
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum
from memwave.product import build_product


@pytest.fixture(scope="module")
def family():
    table = build_eigenvalue_table(0.75, 24)
    ms = build_moving_spectrum(table, 0.5, 1.0, 24)
    pf = build_product(ms)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    return bio.build_biorthogonal(pf, T, family_N=6)


def test_horizon_threshold_value():
    # 2 pi (1 + 1/(1+gamma) + 1/|1-gamma|) at c=1, gamma=pi/2
    import math

    g = math.pi / 2
    want = 2 * math.pi * (1 + 1 / (1 + g) + 1 / (g - 1))
    assert bio.horizon_threshold(1.0, g) == pytest.approx(want)
    assert bio.horizon_threshold(-1.0, g) == pytest.approx(want)


def test_short_horizon_rejected():
    table = build_eigenvalue_table(0.75, 8)
    ms = build_moving_spectrum(table, 0.5, 1.0, 8)
    pf = build_product(ms)
    with pytest.raises(ValueError):
        bio.build_biorthogonal(pf, 5.0, family_N=2)


def test_family_gram_identity(family):
    assert family.gram_deviation <= 1e-3
    # diagonal normalization of the shipped family
    assert np.max(np.abs(np.diag(family.gram) - 1.0)) <= 1e-4
    # off-diagonal annihilation
    off = family.gram - np.eye(len(family.modes))
    assert np.max(np.abs(off)) <= 1e-3


def test_norm_ratio_single_constant(family):
    C = family.norm_ratio_bound()
    assert np.isfinite(C) and C > 0
    assert np.all(family.norms <= C * family.rho + 1e-12)


def test_raw_construction_reported(family):
    # pre-polish numbers stay visible; the diagonal of the raw family is
    # already right to quadrature-window accuracy
    assert family.raw_diag_error < 5e-2
    assert family.raw_deviation >= family.gram_deviation


def test_conjugation_symmetry_without_shortcut():
    table = build_eigenvalue_table(0.75, 12)
    ms = build_moving_spectrum(table, 0.5, 1.0, 12)
    pf = build_product(ms)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    bf = bio.build_biorthogonal(pf, T, family_N=3, symmetrize=False)
    for n in (1, 2, 3):
        a = bf.theta[bf.index(-n, 3)]
        b = np.conj(bf.theta[bf.index(n, 2)])
        scale = max(np.abs(a).max(), 1e-30)
        assert np.max(np.abs(a - b)) / scale < 1e-6
        # branch-1 members pair across the sign of n
        a1 = bf.theta[bf.index(-n, 1)]
        b1 = np.conj(bf.theta[bf.index(n, 1)])
        assert np.max(np.abs(a1 - b1)) / max(np.abs(a1).max(), 1e-30) < 1e-6


def test_truncation_stability_under_spectrum_doubling():
    # doubling the exact-mode truncation of the product changes the sampled
    # family only at the level where the extension already modeled the tail
    table = build_eigenvalue_table(0.75, 24)
    T = None
    thetas = []
    for N_prod in (12, 24):
        ms = build_moving_spectrum(table, 0.5, 1.0, N_prod)
        pf = build_product(ms)
        T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
        bf = bio.build_biorthogonal(pf, T, family_N=3, x_window=160.0)
        thetas.append(bf.theta)
    sup = np.max(np.abs(thetas[0] - thetas[1]))
    scale = np.max(np.abs(thetas[1]))
    assert sup / scale < 1e-4, sup / scale


def test_lower_summation(family):
    rep = bio.verify_lower_summation(family, trials=120, seed=7)
    assert rep.passed, rep
    assert rep.failures == 0
    assert rep.c46_hat > 0
    # single-mode inequality is directly computable
    i = family.index(2, 1)
    lam, rho = family.lam[i], family.rho[i]
    G = bio.time_gram(np.array([lam]), family.T)
    lhs = 1.0 / rho**2
    rhs = float(G[0, 0].real)
    assert lhs <= rep.c46_hat * rhs


def test_lower_summation_can_fail(family):
    # a family scaled down fits a constant too small for the exponential sums
    shrunk = dataclasses.replace(family, theta=1e-6 * family.theta, norms=1e-6 * family.norms)
    rep = bio.verify_lower_summation(shrunk, trials=120, seed=7)
    assert not rep.passed and rep.failures > 0


def test_time_gram_closed_form(family):
    # against direct quadrature for a 2x2 block
    lam = family.lam[[3, 10]]
    G = bio.time_gram(lam, family.T)
    t = np.linspace(-family.T / 2, family.T / 2, 40001)
    for a in range(2):
        for b in range(2):
            val = np.trapezoid(np.exp(-lam[a] * t) * np.conj(np.exp(-lam[b] * t)), t)
            assert G[a, b] == pytest.approx(val, rel=1e-4)


def test_export(tmp_path, family):
    family.export_manifest(tmp_path / "family.json")
    family.export_samples(tmp_path / "samples")
    import json

    man = json.loads((tmp_path / "family.json").read_text())
    assert man["gram_deviation"] <= 1e-3
    files = list((tmp_path / "samples").glob("theta_*.csv"))
    assert len(files) == len(family.modes)
    header = files[0].read_text().splitlines()[0]
    assert header == "t,re_theta,im_theta"


def test_export_samples_match_csv_writer(tmp_path, family):
    # the shared time column writes the bytes csv.writer writes with floats as repr
    family.export_samples(tmp_path)
    for (n, j), theta in zip(family.modes, family.theta):
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["t", "re_theta", "im_theta"])
        writer.writerows([repr(t), repr(z.real), repr(z.imag)]
                         for t, z in zip(family.t_grid.tolist(), theta.tolist()))
        assert (tmp_path / f"theta_{n}_{j}.csv").read_bytes() == ref.getvalue().encode("utf-8")


@pytest.mark.parametrize("window", [150.0, 300.0])
def test_separable_sampling_matches_direct_exponentials(window):
    # e^{ixt} = e^{ix t_c} e^{ix delta} over every grid the construction samples on
    rng = np.random.default_rng(5)
    T = 20.7
    x = np.sort(rng.uniform(-window, window, 2000))
    weighted = rng.standard_normal((4, len(x))) + 1j * rng.standard_normal((4, len(x)))
    grids = [bio._time_quadrature(T, window)[0], bio._export_grid(T, 640), bio._export_grid(T, 7)]
    for grid in grids:
        t = grid.nodes()
        got = bio._inverse_transform(weighted, x, grid)
        want = weighted @ np.exp(1j * np.outer(x, t)) / (2 * np.pi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 640, 641])
def test_export_grid_is_equally_spaced(n):
    T = 20.7
    grid = bio._export_grid(T, n).nodes()[:n]
    assert len(grid) == n
    assert np.max(np.abs(grid - np.linspace(-T / 2, T / 2, n)), initial=0.0) <= 1e-14 * T


def test_time_quadrature_integrates_exponentials():
    # the centers (+) offsets layout is still a Gauss rule on [-T/2, T/2]
    T, lam = 20.7, 0.3 + 12.0j
    grid, weights = bio._time_quadrature(T, 150.0)
    t = grid.nodes()
    assert len(t) == len(weights) and np.all(np.diff(t) > 0)
    got = weights @ np.exp(-lam * t)
    assert got == pytest.approx(2 * np.sinh(lam * T / 2) / lam, rel=1e-12)


def test_window_attempts_are_recorded(tmp_path):
    import json

    table = build_eigenvalue_table(0.75, 12)
    ms = build_moving_spectrum(table, 0.5, 1.0, 12)
    pf = build_product(ms)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    first = bio.build_biorthogonal(pf, T, family_N=2, x_window=20.0)
    assert first.window_attempts == [{"window": 20.0, "gram_deviation": first.gram_deviation}]
    # a tolerance just below the first window's deviation forces one enlargement
    again = bio.build_biorthogonal(pf, T, family_N=2, x_window=20.0, tol=0.99 * first.gram_deviation)
    assert [a["window"] for a in again.window_attempts] == [20.0, 30.0]
    assert again.window_attempts[0] == first.window_attempts[0]
    assert again.window_attempts[-1]["gram_deviation"] == again.gram_deviation and again.window == 30.0
    again.export_manifest(tmp_path / "family.json")
    assert json.loads((tmp_path / "family.json").read_text())["window_attempts"] == again.window_attempts
    with pytest.raises(RuntimeError, match=r"windows 20, 30, 45"):
        bio.build_biorthogonal(pf, T, family_N=2, x_window=20.0, tol=1e-30)


def test_zero_set_builds_do_not_grow_with_the_family(monkeypatch):
    # every P~ and P~' of one window attempt comes from a fixed number of zero
    # sets, however many modes the family has
    from memwave.product import ProductFunction

    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 16), 0.5, 1.0, 16)
    pf = build_product(ms)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    builds = []
    factor_zeros = ProductFunction._factor_zeros
    monkeypatch.setattr(ProductFunction, "_factor_zeros",
                        lambda self, *args: builds.append(args) or factor_zeros(self, *args))
    counts = []
    for family_N in (2, 4):
        builds.clear()
        bf = bio.build_biorthogonal(pf, T, family_N=family_N)
        assert len(bf.window_attempts) == 1
        counts.append(len(builds))
    assert counts[0] == counts[1]


# real parts at and around the scale where a difference form 2 sinh(wT/2)/w loses its digits
_NEAR_ZERO = st.sampled_from([0.0, 1e-16, -1e-15, 1e-14, -1e-14, 2e-14, -1e-13, 1e-10, -1e-4])


@settings(max_examples=80)
@given(re=st.one_of(_NEAR_ZERO, st.floats(-3.0, 3.0)), im=st.one_of(_NEAR_ZERO, st.floats(-300.0, 300.0)),
       T=st.floats(1.0, 40.0))
def test_interval_integral_matches_mpmath(re, im, T):
    # int_{-T/2}^{T/2} e^{-wt} dt with w = re + i im, against 40 digits; the
    # bound is the envelope of the kernel, 2 cosh(Re z) / |w| with z = wT/2
    got = bio._interval_integral(np.array([re]), np.array([1j * im]), T)[0, 0]
    with mpmath.workdps(40):
        w = mpmath.mpc(re, im)
        want = complex(2 * mpmath.sinh(w * T / 2) / w) if w != 0 else T
    z = abs(complex(re, im)) * T / 2
    scale = T * np.cosh(re * T / 2) / max(1.0, z)
    assert abs(got - want) <= 1e-14 * (1.0 + z) * scale


@settings(max_examples=30)
@given(T=st.floats(8.0, 30.0), window=st.floats(5.0, 60.0), symmetrize=st.booleans(), data=st.data())
def test_raw_gram_matches_dense_time_quadrature(T, window, symmetrize, data):
    # the closed-form raw Gram is the Gram of the sampled raw family: rows
    # theta_k = sum_x weighted e^{ixt} / (2 pi) and, with symmetrize, their
    # conjugates, integrated against e^{-conj(lam) t} on a dense Gauss rule
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x0, xw = np.polynomial.legendre.leggauss(48)
    x = window * x0
    n_primary = 2 if symmetrize else 4
    weighted = (rng.standard_normal((n_primary, len(x))) + 1j * rng.standard_normal((n_primary, len(x)))) * xw
    lam = np.array([
        complex(data.draw(st.one_of(_NEAR_ZERO, st.floats(-0.8, 0.8))),
                # on a node, w = conj(lam) - ix is as small as the real part
                data.draw(st.one_of(st.floats(-window, window), st.sampled_from(list(-x[[0, 20, 47]])))))
        for _ in range(4)
    ])
    primaries = list(range(n_primary))
    partners = [2, 3] if symmetrize else []
    got = bio._raw_gram(weighted, x, lam, T, primaries, partners)

    omega = window + float(np.max(np.abs(lam.imag)))
    panels = int(np.ceil(omega * T / 2.0))
    t0, tw = np.polynomial.legendre.leggauss(16)
    h = T / (2.0 * panels)
    t = (-T / 2 + h * (2.0 * np.arange(panels) + 1.0)[:, None] + h * t0[None, :]).ravel()
    theta = np.empty((4, len(t)), dtype=complex)
    theta[primaries] = weighted @ np.exp(1j * np.outer(x, t)) / (2 * np.pi)
    theta[partners] = np.conj(theta[primaries[:len(partners)]])
    want = theta @ (np.exp(-np.conj(lam)[:, None] * t[None, :]) * np.tile(h * tw, panels)).T
    scale = np.abs(weighted).sum() / (2 * np.pi) * T * np.exp(np.max(np.abs(lam.real)) * T / 2)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_family_at_strong_memory_first_window():
    # at M = 2 the drift nearly cancels the oscillation of the lowest modes, so
    # the raw Gram is ill-conditioned and inv(gram_raw) amplifies any error in
    # it; with the exact raw Gram the first window already passes
    table = build_eigenvalue_table(0.75, 200)
    ms = build_moving_spectrum(table, 2.0, 1.0, 16)
    pf = build_product(ms)
    T = 1.05 * bio.horizon_threshold(1.0, table.gap_gamma)
    bf = bio.build_biorthogonal(pf, T, family_N=4)
    assert [a["window"] for a in bf.window_attempts] == [150.0]
    assert bf.gram_deviation <= 1e-3
