"""Biorthogonal family construction and the lower summation inequality."""

import dataclasses

import numpy as np
import pytest

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


@pytest.mark.parametrize("window", [150.0, 300.0])
def test_separable_sampling_matches_direct_exponentials(window):
    # e^{ixt} = e^{ix t_c} e^{ix delta} over every grid the construction samples on
    rng = np.random.default_rng(5)
    T = 20.7
    x = np.sort(rng.uniform(-window, window, 2000))
    weighted = rng.standard_normal((4, len(x))) + 1j * rng.standard_normal((4, len(x)))
    grids = [bio._time_quadrature(T, window, per_panel=12)[:2],
             bio._time_quadrature(T, window, per_panel=10, density=1.37)[:2],
             bio._export_grid(T, 640), bio._export_grid(T, 7)]
    for centers, offsets in grids:
        t = bio._grid(centers, offsets)
        got = bio._inverse_transform(weighted, x, centers, offsets)
        want = weighted @ np.exp(1j * np.outer(x, t)) / (2 * np.pi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 640, 641])
def test_export_grid_is_equally_spaced(n):
    T = 20.7
    grid = bio._grid(*bio._export_grid(T, n))[:n]
    assert len(grid) == n
    assert np.max(np.abs(grid - np.linspace(-T / 2, T / 2, n)), initial=0.0) <= 1e-14 * T


def test_time_quadrature_integrates_exponentials():
    # the centers (+) offsets layout is still a Gauss rule on [-T/2, T/2]
    T, lam = 20.7, 0.3 + 12.0j
    centers, offsets, weights = bio._time_quadrature(T, 150.0)
    t = bio._grid(centers, offsets)
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
