"""Root solver and branch-structure checks for the memory cubic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave import cubic
from memwave.fractional import build_eigenvalue_table


def bisect_oracle(f, lo, hi, tol=1e-12):
    """Plain bisection, independent of the production solver."""
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_unit_case_against_bisection_oracle():
    # mu^3 + mu - 1 = 0; oracle frozen from independent bisection
    want = bisect_oracle(lambda x: x**3 + x - 1.0, 0.0, 1.0)
    assert want == pytest.approx(0.6823278038280193, abs=1e-12)
    t = cubic.solve_cubic(1.0, 1.0)
    assert t.mu1 == pytest.approx(want, abs=1e-11)


def test_memoryless_reduction():
    # as M -> 0 the complex pair approaches +-i sqrt(rho)
    rho = 7.3
    t = cubic.solve_cubic(rho, 1e-9)
    assert abs(t.mu2 - 1j * np.sqrt(rho)) < 1e-8
    assert abs(t.mu3 + 1j * np.sqrt(rho)) < 1e-8


def test_zero_memory_rejected():
    with pytest.raises(ValueError):
        cubic.solve_cubic(1.0, 0.0)


def test_negative_memory_sign_bracketing():
    t = cubic.solve_cubic(4.0, -2.0)
    assert -2.0 < t.mu1 < 0.0
    # bracket signs: K(0) = -M rho > 0, K(M) = M^3 < 0
    assert cubic._cubic(0.0, 4.0, -2.0) > 0
    assert cubic._cubic(-2.0, 4.0, -2.0) < 0


@pytest.mark.parametrize("seed", [0, 1])
def test_random_residuals_and_vieta(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        rho = float(10 ** rng.uniform(-1, 4))
        M = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1))
        t = cubic.solve_cubic(rho, M)
        assert t.residual <= 1e-10 * t.residual_scale
        roots = np.array([t.mu1, t.mu2, t.mu3])
        assert abs(roots.sum()) <= 1e-9 * max(1.0, np.abs(roots).max())
        assert abs(roots.prod() - M * rho) <= 1e-9 * abs(M) * rho
        # conjugacy is exact as computed
        assert t.mu3 == np.conj(t.mu2)
        assert t.mu2.real == pytest.approx(-t.mu1 / 2.0, rel=1e-14)
        assert np.sign(t.mu1) == np.sign(M) and 0 < abs(t.mu1) < abs(M)


def test_branch_continuity_matches_implicit_derivative():
    # d mu/d rho = -(mu - M)/(3 mu^2 + rho) from implicit differentiation
    rho, M = 3.7, 0.8
    t = cubic.solve_cubic(rho, M)
    d_analytic = -(t.mu1 - M) / (3 * t.mu1**2 + rho)
    h = 1e-6 * rho
    d_fd = (cubic.solve_cubic(rho + h, M).mu1 - cubic.solve_cubic(rho - h, M).mu1) / (2 * h)
    assert d_fd == pytest.approx(d_analytic, abs=1e-6 * max(1.0, abs(d_analytic)))


def test_mu1_monotone_and_bounds_s06():
    table = build_eigenvalue_table(0.6, 128)
    rep = cubic.verify_mu1_monotone(table, 1.0)
    assert rep.passed and rep.bounds_ok
    assert rep.lower_bound == pytest.approx(1.0 / (1.0 / table.rho[0] + 1.0))


def test_mu1_bounds_hold_at_n1():
    table = build_eigenvalue_table(0.75, 4)
    t = cubic.solve_cubic(table.rho[0], 0.5)
    lower, upper = cubic.mu1_bounds(table.rho[0], 0.5)
    assert lower <= abs(t.mu1) < upper


@settings(max_examples=40)
@given(
    s=st.floats(0.55, 0.95),
    magnitude=st.floats(0.05, 5.0),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(1, 64),
)
def test_mu1_bounds_hold_over_random_tables(s, magnitude, sign, n):
    # |M|/(M^2/rho_1 + 1) <= |mu1_n| < |M| for every mode of the table
    M = sign * magnitude
    table = build_eigenvalue_table(s, n)
    lower, upper = cubic.mu1_bounds(table.rho[0], M)
    mu1 = np.abs([t.mu1 for t in cubic.spectral_triples(table, M)])
    assert np.all(lower <= mu1) and np.all(mu1 < upper)


def test_mu1_asymptotics_envelope():
    table = build_eigenvalue_table(0.75, 64)
    rep = cubic.verify_mu1_asymptotics(table, 1.0)
    assert rep.passed, rep
    # |mu1_n - M| decreasing in n (accumulation at M)
    assert rep.approach_monotone
    # the decay measured against n should be close to 1/rho^2 = n^{-4s}
    assert rep.exponent_fitted == pytest.approx(-4 * 0.75, abs=0.3)


def test_csv_export(tmp_path):
    table = build_eigenvalue_table(0.75, 4)
    triples = cubic.spectral_triples(table, 0.5)
    path = tmp_path / "triples.csv"
    cubic.triples_to_csv(triples, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["n", "rho", "mu1", "re_mu2", "im_mu2", "residual"]
    assert len(lines) == 5


@settings(max_examples=60)
@given(
    log_rho=st.lists(st.floats(-2.0, 10.0), min_size=1, max_size=64),
    magnitude=st.floats(0.05, 5.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_vectorised_roots_over_raw_rho(log_rho, magnitude, sign):
    # real_root and complex_root as _level_zeros calls them: an array of rho, no start;
    # rho in [1e-2, 1e10] covers the remainder levels and rho < M^2 alike
    M = sign * magnitude
    rho = 10.0 ** np.array(log_rho)
    mu1 = cubic.real_root(rho, M)
    mu2 = cubic.complex_root(mu1, rho)
    eps = np.finfo(float).eps
    for mu in (mu1, mu2):
        residual = np.abs(cubic._cubic(mu, rho, M))
        assert np.all(residual <= 8 * eps * rho * (np.abs(mu) + abs(M)))
    assert np.all(np.sign(mu1) == np.sign(M))
    # |M|/(M^2/rho + 1) <= |mu1| < |M|; the lower bound is within round-off of
    # mu1 once rho >> M^2 (the gap is 2 M^5/rho^2)
    lower = abs(M) / (M * M / rho + 1.0)
    assert np.all(np.abs(mu1) >= lower * (1.0 - 4 * eps)) and np.all(np.abs(mu1) < abs(M))
    assert np.all(np.abs(mu1 + 2.0 * mu2.real) <= eps * np.abs(mu1))
