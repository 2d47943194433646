"""Operator and eigenvalue-table checks for the fractional Laplacian module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from memwave import fractional as fr


def test_normalization_constant_half():
    # closed form at s = 1/2: C_{1/2} = (1/2) * 2 * Gamma(1) / (sqrt(pi) Gamma(1/2)) = 1/pi
    assert fr.normalization_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_order_validation():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            fr.normalization_constant(bad)


def test_constant_maps_to_zero():
    g = np.arange(-30, 30, 0.02)
    sample = fr.OperatorSample(grid=g, values=np.full_like(g, 2.7, dtype=complex), s=0.7)
    _, out = fr.apply_fractional_laplacian(sample, eval_indices=[len(g) // 2, len(g) // 2 + 7])
    assert np.max(np.abs(out)) < 1e-12


def test_epsilon_below_resolution_rejected():
    g = np.arange(-5, 5, 0.1)
    with pytest.raises(ValueError):
        fr.OperatorSample(grid=g, values=np.exp(1j * g), s=0.6, epsilon=0.01)


def test_symbol_identity_kappa2_s_half():
    # |kappa|^{2s} = 2 exactly; quadrature vs symbol within 1e-4 relative.
    # The 1e-4 target needs the wide window (tail ~ W^{-2}) and a fine grid
    # (cell error ~ h at s = 1/2).
    chk = fr.verify_symbol_identity(2.0, 0.5, tol=1e-4, window=150.0, h=0.005)
    assert chk.passed, chk


@pytest.mark.parametrize("kappa", [1.0, math.pi / 2, 3.0])
@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_symbol_identity_grid(kappa, s):
    chk = fr.verify_symbol_identity(kappa, s, tol=1e-3)
    assert chk.passed, chk


def test_symbol_identity_sign_symmetry():
    a = fr.verify_symbol_identity(3.0, 0.55)
    b = fr.verify_symbol_identity(-3.0, 0.55)
    # the symbol depends on |kappa| only
    assert a.max_rel_error < 1e-3 and b.max_rel_error < 1e-3


def test_symbol_identity_zero_kappa_rejected():
    with pytest.raises(ValueError):
        fr.verify_symbol_identity(0.0, 0.75)


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_symbol_error_first_order_refinement(s):
    # wide fixed window keeps the tail subdominant; the fitted slope of
    # log err vs log h should be at least first order (measured: ~2)
    kappa = math.pi / 2
    hs, errs = [], []
    for h in (0.04, 0.02, 0.01):
        chk = fr.verify_symbol_identity(kappa, s, tol=1.0, window=120.0, h=h)
        hs.append(h)
        errs.append(chk.max_rel_error)
    assert errs[0] > errs[1] > errs[2], errs
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.0, (slope, errs)


def test_asymptotic_table_s075():
    table = fr.build_eigenvalue_table(0.75, 8)
    # rho_1 = (pi/2 - pi/16)^{1.5}, evaluated directly
    want = (math.pi / 2 - math.pi / 16) ** 1.5
    assert table.rho[0] == pytest.approx(want, rel=1e-14)
    assert table.gap_threshold == 1
    assert table.gap_gamma == pytest.approx(math.pi / 2, abs=1e-12)


def test_gap_root_spacing_is_exactly_pi_half_for_asymptotic():
    # the closed form has rho_n^{1/(2s)} = n pi/2 - (1-s) pi/4, so the local
    # gap bound pi/2 is attained with equality at every n
    for s in (0.55, 0.75, 0.95):
        table = fr.build_eigenvalue_table(s, 16)
        assert np.allclose(table.gaps(), math.pi / 2, atol=1e-12)


def test_table_monotone_and_positive():
    for backend in ("asymptotic",):
        t = fr.build_eigenvalue_table(0.6, 200, backend=backend)
        assert t.rho[0] > 0
        assert np.all(np.diff(t.rho) > 0)


def test_gap_scan_s06_both_backends():
    ta = fr.build_eigenvalue_table(0.6, 200)
    gaps = ta.gaps()
    assert np.min(gaps[ta.gap_threshold - 1 :]) >= math.pi / 2 - 1e-3
    td = fr.build_eigenvalue_table(0.6, 200, backend="discretized", grid_points=2400)
    assert td.gap_certified, "discretized table failed to certify the root gap"
    gd = td.gaps()
    assert np.min(gd[td.gap_threshold - 1 :]) >= math.pi / 2 - 1e-3


def test_discretized_cross_checks_asymptotic_rho1():
    ta = fr.build_eigenvalue_table(0.75, 4)
    td = fr.build_eigenvalue_table(0.75, 4, backend="discretized", grid_points=1600)
    # agreement to 2 significant digits at n=1
    assert abs(td.rho[0] - ta.rho[0]) / ta.rho[0] < 5e-2
    assert round(td.rho[0], 1) == round(ta.rho[0], 1)


def test_backend_agreement_band():
    ta = fr.build_eigenvalue_table(0.75, 32)
    td = fr.build_eigenvalue_table(0.75, 32, backend="discretized", grid_points=2400)
    agr = fr.compare_backends(ta, td)
    assert agr.passed, f"flagged modes: {np.nonzero(agr.flagged)[0] + 1}"
    rel = agr.delta / ta.rho[:32]
    # 1e-2 relative once past the lowest modes, where the closed form's own
    # O(1/n) defect is the larger of the two errors
    assert np.max(rel[3:]) <= 1e-2, np.max(rel[3:])


def test_table_csv_roundtrip(tmp_path):
    t = fr.build_eigenvalue_table(0.75, 6)
    path = tmp_path / "table.csv"
    t.to_csv(path)
    rows = path.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "n,rho,rho_root,gap,backend"
    assert len(rows) == 7
    assert rows[1].endswith("asymptotic")


def test_n_max_validation():
    with pytest.raises(ValueError):
        fr.build_eigenvalue_table(0.75, 0)
    with pytest.raises(ValueError):
        fr.build_eigenvalue_table(0.75, 10, backend="bogus")


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_collocation_matrix_matches_loop_assembly(s):
    # reference: the kernel part assembled one diagonal at a time, with the
    # row sums accumulated the same way; only the summation order differs
    m = 240
    A = fr.collocation_matrix(s, m)
    h = 2.0 / m
    x = -1.0 + h / 2.0 + h * np.arange(m)
    offsets = h * np.arange(1, m)
    W = (np.abs(offsets - h / 2.0) ** (-2 * s) - (offsets + h / 2.0) ** (-2 * s)) / (2 * s)
    ref = np.zeros((m, m))
    row_sums = np.zeros(m)
    for d in range(1, m):
        ref[np.arange(m - d), np.arange(d, m)] = -W[d - 1]
        row_sums[:-d] += W[d - 1]
        row_sums[d:] += W[d - 1]
    ref = ref + ref.T
    ref[np.diag_indices(m)] = row_sums + ((1.0 + x) ** (-2 * s) + (1.0 - x) ** (-2 * s)) / (2 * s)
    beta = (h / 2.0) ** (2 - 2 * s) / (2 - 2 * s)
    ref[np.diag_indices(m)] += 2.0 * beta / h**2
    ref[np.arange(m - 1), np.arange(1, m)] -= beta / h**2
    ref[np.arange(1, m), np.arange(m - 1)] -= beta / h**2
    ref *= fr.normalization_constant(s)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=30)
@given(s=st.floats(0.55, 0.95), half=st.integers(32, 200), odd=st.booleans())
def test_even_odd_split_matches_full_eigen_solve(s, half, odd):
    # reference: one dense eigen-solve of the full collocation matrix, on
    # even and odd grid sizes (an odd grid has a centre point)
    grid_points = 2 * half + odd
    n_max = min(16, grid_points // 4)
    ref = eigh(fr.collocation_matrix(s, grid_points), eigvals_only=True, subset_by_index=(0, n_max - 1))
    got = fr._collocation_eigenvalues_raw(s, n_max, grid_points)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref) / ref) <= 1e-10


def test_gauss_legendre_nodes_are_cached_and_read_only():
    x, w = fr.gauss_legendre(33)
    ref_x, ref_w = np.polynomial.legendre.leggauss(33)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert fr.gauss_legendre(33)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
