"""Biorthogonal family construction and the lower summation inequality."""

import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave import biorthogonal as bio
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum


@pytest.fixture(scope="module")
def family():
    table = build_eigenvalue_table(0.75, 24)
    ms = build_moving_spectrum(table, 0.5, 1.0, 24)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    return bio.build_biorthogonal(ms, T, family_N=6)


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
    with pytest.raises(ValueError):
        bio.build_biorthogonal(ms, 5.0, family_N=2)


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
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    bf = bio.build_biorthogonal(ms, T, family_N=3, symmetrize=False)
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
        T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
        bf = bio.build_biorthogonal(ms, T, family_N=3, x_window=160.0)
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
    import json

    man = json.loads((tmp_path / "family.json").read_text())
    assert man["gram_deviation"] <= 1e-3


@pytest.mark.parametrize("window", [150.0, 300.0])
def test_separable_sampling_matches_direct_exponentials(window):
    # e^{ixt} = e^{ix t_c} e^{ix delta} over the verification rule; T = 20.7
    # gives 178 and 355 panels at the two windows, T = 13.4 gives 115 and 230,
    # so each window meets an odd and an even panel count
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(-window, window, 2000))
    weighted = rng.standard_normal((4, len(x))) + 1j * rng.standard_normal((4, len(x)))
    for T in (20.7, 13.4):
        grid = bio._time_quadrature(T, window)[0]
        t = grid.nodes()
        got = bio._inverse_transform(weighted, x, grid)
        want = weighted @ np.exp(1j * np.outer(x, t)) / (2 * np.pi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _spy_block_lengths(monkeypatch):
    """(block length, lengths of the blocks) of every ``_node_blocks`` call, in call order."""
    calls, node_blocks = [], bio._node_blocks

    def spy(n_nodes, per_node):
        blocks = node_blocks(n_nodes, per_node)
        calls.append((blocks[0].stop - blocks[0].start, [len(range(n_nodes)[b]) for b in blocks]))
        return blocks

    monkeypatch.setattr(bio, "_node_blocks", spy)
    return calls


@pytest.mark.parametrize("blocks", [2.5, 0.5])
def test_blocked_node_sums_match_unblocked_references(blocks, monkeypatch):
    # both sums over frequency nodes run in blocks; at 2.5 blocks of nodes the
    # last block is ragged, at half a block there is one, and either way the
    # sums agree with one unblocked product
    rng = np.random.default_rng(13)
    T, window = 20.7, 150.0
    grid = bio._time_quadrature(T, window)[0]
    lam = rng.uniform(-0.8, 0.8, 4) + 1j * rng.uniform(-window, window, 4)
    calls = _spy_block_lengths(monkeypatch)

    def transform(n):
        x = np.sort(rng.uniform(-window, window, n))
        weighted = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        want = weighted @ np.exp(1j * np.outer(x, grid.nodes())) / (2 * np.pi)
        return bio._inverse_transform(weighted, x, grid), want

    def raw_gram(n):
        x = np.sort(rng.uniform(-window, window, n))
        weighted = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * (2 * window / n)
        want = np.concatenate([weighted @ bio._interval_integral(-1j * x, np.conj(lam), T),
                               np.conj(weighted @ bio._interval_integral(-1j * x, lam, T))]) / (2 * np.pi)
        return bio._raw_gram(weighted, x, lam, T, [0, 1], [2, 3]), want

    for kernel in (transform, raw_gram):
        kernel(1)  # the block length the kernel picks at these shapes
        step = calls[-1][0]
        n = int(blocks * step)
        got, want = kernel(n)
        taken = calls[-1][1]
        assert len(taken) == math.ceil(blocks) and sum(taken) == n and taken[-1] < step
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_family_working_set_does_not_grow_with_the_window():
    # the benchmark's family configuration (family_N = 4), at its own window
    # and at 337.5: summing over blocks of frequency nodes keeps the build's
    # traced peak at 6.1 and 10.5 MB, where whole nodes x centers and nodes x
    # modes matrices took 38.3 and 155 MB
    table = build_eigenvalue_table(0.75, 200)
    ms = build_moving_spectrum(table, 0.5, 1.0, 16)
    T = 1.05 * bio.horizon_threshold(1.0, table.gap_gamma)
    for window in (None, 337.5):
        tracemalloc.start()
        try:
            bio.build_biorthogonal(ms, T, family_N=4, x_window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, (window, peak)


def test_family_figures_come_from_one_rule(family):
    # theta, norms and the lower summation's constant all live on the verification quadrature
    assert family.theta.shape == (len(family.modes), len(family.t_nodes))
    assert np.array_equal(family.norms, np.sqrt(np.abs(family.theta) ** 2 @ family.weights))
    assert family.weights.sum() == pytest.approx(family.T, rel=1e-13)
    rep = bio.verify_lower_summation(family, trials=20, seed=7)
    # c46 is sup ||sum beta theta||^2 / sum rho^2 |beta|^2 on the rule: the top
    # squared singular value of the dense matrix theta_k(t) sqrt(w_t) / rho_k,
    # attained by its top right singular vector, and above every single mode
    dense = family.theta / family.rho[:, None] * np.sqrt(family.weights)[None, :]
    u, sv, _ = np.linalg.svd(dense, full_matrices=False)
    assert rep.c46_hat == pytest.approx(sv[0] ** 2, rel=1e-10)
    beta = np.conj(u[:, 0]) / family.rho
    num = float(np.abs(beta @ family.theta) ** 2 @ family.weights)
    assert num / float(np.sum(family.rho**2 * np.abs(beta) ** 2)) == pytest.approx(rep.c46_hat, rel=1e-10)
    assert rep.c46_hat >= np.max(family.norms**2 / family.rho**2) * (1 - 1e-12)


def test_time_quadrature_integrates_exponentials():
    # the centers (+) offsets layout is still a Gauss rule on [-T/2, T/2]
    T, lam = 20.7, 0.3 + 12.0j
    grid, weights = bio._time_quadrature(T, 150.0)
    t = grid.nodes()
    assert len(t) == len(weights) and np.all(np.diff(t) > 0)
    got = weights @ np.exp(-lam * t)
    assert got == pytest.approx(2 * np.sinh(lam * T / 2) / lam, rel=1e-12)


def test_family_records_rule_error_and_inverse_residual(tmp_path, monkeypatch):
    import json

    table = build_eigenvalue_table(0.75, 12)
    ms = build_moving_spectrum(table, 0.5, 1.0, 12)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    first = bio.build_biorthogonal(ms, T, family_N=2, x_window=20.0)
    assert first.window == 20.0
    first.export_manifest(tmp_path / "family.json")
    manifest = json.loads((tmp_path / "family.json").read_text())
    assert "window_attempts" not in manifest
    assert manifest["rule_error"] == first.rule_error and manifest["inverse_residual"] == first.inverse_residual
    # a tolerance just below the deviation fails at the one window, and the
    # message names both terms of the deviation
    builds = []
    compensator = bio.growth_compensator
    monkeypatch.setattr(bio, "growth_compensator", lambda *a, **kw: builds.append(1) or compensator(*a, **kw))
    with pytest.raises(bio.FamilyConstructionError, match=r"at window 20: rule error .*, inverse residual "):
        bio.build_biorthogonal(ms, T, family_N=2, x_window=20.0, tol=0.99 * first.gram_deviation)
    assert len(builds) == 1


def test_zero_table_is_built_once_per_product(tmp_path, monkeypatch):
    # the cubic roots of a product's levels are taken in its constructor only,
    # once for the direct blocks and once for the remainder levels, never by an
    # evaluation; a default biorthogonal run builds one product for the audit
    # and one for the family's window
    from memwave.product import ProductFunction
    from memwave.runner import load_config, run_pipeline

    products, passes, building = [], [], []
    init, level_zeros = ProductFunction.__init__, ProductFunction._level_zeros

    def spy_init(self, *args, **kwargs):
        building.append(self)
        init(self, *args, **kwargs)
        building.pop()
        products.append(self)

    monkeypatch.setattr(ProductFunction, "__init__", spy_init)
    monkeypatch.setattr(ProductFunction, "_level_zeros",
                        lambda self, k: passes.append(building[-1:] == [self]) or level_zeros(self, k))
    manifest, passed = run_pipeline(load_config(None, {}), "biorthogonal", outdir=tmp_path)
    assert passed, manifest["failures"]
    assert len(products) == 2
    assert len(passes) == 2 * len(products) and all(passes)


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


@pytest.fixture(scope="module")
def table_200():
    return build_eigenvalue_table(0.75, 200)


def test_family_at_strong_memory_first_window(table_200):
    # at M = 2 the drift nearly cancels the oscillation of the lowest modes, so
    # the raw Gram is ill-conditioned and inv(gram_raw) amplifies any error in
    # it; with the exact raw Gram the one window passes
    ms = build_moving_spectrum(table_200, 2.0, 1.0, 16)
    T = 1.05 * bio.horizon_threshold(1.0, table_200.gap_gamma)
    bf = bio.build_biorthogonal(ms, T, family_N=4)
    assert bf.window == 150.0
    assert bf.gram_deviation <= 1e-3


@pytest.mark.parametrize("M", [-2.0, 0.5, 1.75, 2.0])
def test_gram_deviation_is_rule_error_plus_inverse_residual(M, table_200):
    # the shipped Gram is C G_rule with C = inv(G_raw), so its deviation is
    # C (G_rule - G_raw) + (C G_raw - I), bounded by the two recorded terms
    T = 1.05 * bio.horizon_threshold(1.0, table_200.gap_gamma)
    bf = bio.build_biorthogonal(build_moving_spectrum(table_200, M, 1.0, 48), T, family_N=12)
    assert bf.gram_deviation <= bf.rule_error + bf.inverse_residual + 1e-12
    assert max(bf.rule_error, bf.inverse_residual) <= 1e-3


def test_ten_node_rule_fails_at_strong_memory(table_200, monkeypatch):
    # a 10-node rule does not resolve the integrand at M = 2: the
    # family fails at its one window, and the rule's error is the larger term
    monkeypatch.setattr(bio, "_TIME_PER_PANEL", 10)
    T = 1.05 * bio.horizon_threshold(1.0, table_200.gap_gamma)
    with pytest.raises(bio.FamilyConstructionError, match=r"at window 150:") as err:
        bio.build_biorthogonal(build_moving_spectrum(table_200, 2.0, 1.0, 48), T, family_N=12)
    rule, inverse = (float(v) for v in re.search(r"rule error (\S+), inverse residual (\S+)$", str(err.value)).groups())
    assert rule > 1e-3 and rule > 10 * inverse
