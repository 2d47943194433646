"""Operator and eigenvalue-table checks for the fractional Laplacian module."""

import csv
import io
import math
import pathlib
import tempfile

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, gammaln, roots_jacobi

import gauss_oracle
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
    td = fr.build_eigenvalue_table(0.6, 200, backend="discretized")
    assert td.gap_certified, "discretized table failed to certify the root gap"
    gd = td.gaps()
    assert np.min(gd[td.gap_threshold - 1 :]) >= math.pi / 2 - 1e-3


def test_discretized_cross_checks_asymptotic_rho1():
    ta = fr.build_eigenvalue_table(0.75, 4)
    td = fr.build_eigenvalue_table(0.75, 4, backend="discretized")
    # agreement to 2 significant digits at n=1
    assert abs(td.rho[0] - ta.rho[0]) / ta.rho[0] < 5e-2
    assert round(td.rho[0], 1) == round(ta.rho[0], 1)


@pytest.mark.parametrize(("s", "passes"), [(0.6, False), (0.75, True), (0.9, True), (0.95, True)])
def test_backend_agreement_band(s, passes):
    # the Galerkin table is exact to ~1e-9, so the comparison measures the
    # closed form's own O(1/n) defect, worst at n = 1: 1.40e-2 at s = 0.6,
    # past the 1e-2 bound, and 8.6e-3, 3.3e-3 and 1.6e-3 above it
    ta = fr.build_eigenvalue_table(s, 32)
    td = fr.build_eigenvalue_table(s, 32, backend="discretized")
    agr = fr.compare_backends(ta, td)
    assert agr.passed == passes, (agr.max_rel, np.nonzero(agr.flagged)[0] + 1)
    assert not agr.flagged.any()
    rel = agr.delta / ta.rho[:32]
    # 1e-2 relative once past the lowest modes, where the defect has decayed
    assert np.max(rel[3:]) <= 1e-2, np.max(rel[3:])


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_jacobi_rows_match_normalized_eval_jacobi(s):
    # reference: scipy's P_k^(s,s) divided by its norm under (1-x^2)^s
    k = np.arange(24)
    x = np.linspace(-0.99, 0.99, 37)
    norm2 = (2.0 ** (2 * s + 1) * np.exp(2 * gammaln(k + s + 1) - gammaln(k + 1) - gammaln(k + 2 * s + 1))
             / (2 * k + 2 * s + 1))
    ref = eval_jacobi(k[:, None], s, s, x) / np.sqrt(norm2)[:, None]
    assert np.max(np.abs(fr._jacobi_rows(s, 24, x) - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([1, 2, 7, 80, 320]), a=st.floats(0.0, 1.9))
def test_gauss_jacobi_nodes_match_scipy(n, a):
    x, w = fr.gauss_jacobi(n, a)
    x_ref, w_ref = roots_jacobi(n, a, a)
    assert np.max(np.abs(x - x_ref)) <= 1e-14
    assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(s=st.floats(0.5, 0.95), n=st.sampled_from([80, 320]))
def test_gauss_jacobi_rule_keeps_the_rows_orthonormal(s, n):
    # exact for degree 2n - 1, so the n-point rule integrates p_j p_k to delta_jk
    # (scipy's own rule misses by 3.9e-12 at n = 320)
    for a in (s, 2 * s):
        x, w = fr.gauss_jacobi(n, a)
        p = fr._jacobi_rows(a, n, x)
        assert np.max(np.abs((p * w) @ p.T - np.eye(n))) <= 1e-12


def test_gauss_jacobi_rejects_an_empty_rule_or_a_singular_weight():
    for n, a in ((0, 0.5), (4, -0.5), (4, float("nan"))):
        with pytest.raises(ValueError):
            fr.gauss_jacobi(n, a)


@settings(max_examples=10, deadline=None)
@given(s=st.floats(0.5, 0.95))
def test_stiffness_is_the_gamma_ratio(s):
    with mp.workdps(30):
        ref = [float(mp.gamma(k + 1 + 2 * mp.mpf(s)) / mp.factorial(k)) for k in range(336)]
    assert np.max(np.abs(fr._stiffness(s, 336) / ref - 1.0)) <= 1e-13


# finite floats without -0.0: equal elements may come out in either order
_finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)


@given(v=st.lists(_finite, min_size=1, max_size=40))
@example(v=[3.0, 1.0, 2.0])
@example(v=[4.0, 1.0, 3.0, 2.0])
def test_median_is_np_median_bit_for_bit(v):
    v = np.array(v)
    assert np.float64(fr._median(v)).tobytes() == np.median(v).tobytes()


@given(v=st.lists(_finite | st.sampled_from([0.0, 1.0, -2.5]), max_size=40))
def test_sorted_unique_is_np_unique(v):
    v = np.array(v, dtype=float)
    assert fr.sorted_unique(v).tobytes() == np.unique(v).tobytes()


def test_galerkin_matches_the_half_order_anchor():
    # lambda_1 of (-d^2)^(1/2) on (-1, 1) is 1.1577738836977 (Kulczycki,
    # Kwasnicki, Malecki and Stos, Proc. LMS 2010), an independent value
    rho1 = fr.build_eigenvalue_table(0.5, 32, backend="discretized").rho[0]
    assert abs(rho1 / 1.1577738836977 - 1.0) <= 1e-9, rho1


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.55, 0.95))
@example(s=0.55)
@example(s=0.6)
@example(s=0.65)
@example(s=0.75)
@example(s=0.9)
@example(s=0.95)
def test_galerkin_table_converges_in_nested_bases(s):
    # the derived basis against one four times larger: the lowest 32 modes
    # agree to 1e-8, and Ritz values of nested spaces never increase (up to
    # the symmetric solve's round-off, measured at most ~20 ulp)
    got = fr.discretized_eigenvalues(s, 32)
    ref = fr._ritz_values(s, 4 * (32 + 8))[:32]
    assert np.max(np.abs(got - ref) / ref) <= 1e-8
    assert np.all(ref <= got * (1.0 + 1e-13)), np.max(ref / got - 1.0)


@pytest.mark.parametrize("rho", [[1.0, 1.0, 2.0], [1.0, 3.0, 2.0], [0.0, 1.0, 2.0], [-1.0, 1.0, 2.0]],
                         ids=["repeated", "decreasing", "zero_rho1", "negative_rho1"])
def test_table_rejects_unordered_or_nonpositive_rho(rho):
    with pytest.raises(ValueError):
        fr.EigenvalueTable(s=0.75, n_max=3, rho=np.array(rho), backend="asymptotic")


def test_table_csv_roundtrip(tmp_path):
    t = fr.build_eigenvalue_table(0.75, 6)
    path = tmp_path / "table.csv"
    t.to_csv(path)
    rows = path.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "n,rho,rho_root,gap,backend"
    assert len(rows) == 7
    assert rows[1].endswith("asymptotic")


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e308])


@settings(max_examples=60)
@given(rows=st.lists(st.tuples(
    st.integers(-10**6, 10**6), st.one_of(_SPECIAL_FLOATS, st.floats()),
    st.one_of(_SPECIAL_FLOATS, st.floats(allow_subnormal=True)), st.sampled_from(["asymptotic", "x", ""]),
), max_size=12))
def test_write_csv_matches_csv_writer(rows):
    # the bytes csv.writer writes with floats as repr, for nan, +-inf, -0.0
    # and subnormals alike
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["n", "a", "b", "tag"])
    writer.writerows([n, repr(a), repr(b), tag] for n, a, b, tag in rows)
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "rows.csv"
        fr.write_csv(path, "n,a,b,tag", "%d,%r,%r,%s", rows)
        assert path.read_bytes() == ref.getvalue().encode("utf-8")


def test_n_max_validation():
    with pytest.raises(ValueError):
        fr.build_eigenvalue_table(0.75, 0)
    with pytest.raises(ValueError):
        fr.build_eigenvalue_table(0.75, 10, backend="bogus")


def _weight_bounds(n: int) -> tuple[float, float, float]:
    """Relative weight error allowed at the end, sixth and middle node of an
    n-point rule.  The forward recurrence's round-off grows like n^1.5 eps
    toward the ends; at n = 3831, a = 0 the rule reads 2.4e-11, 5.8e-12 and
    2.6e-15, and numpy's ``leggauss`` 3.3e-7, 6.9e-9 and 4.8e-14."""
    return 1e-14 + 4e-16 * n**1.5, 1e-14 + 1e-16 * n**1.5, 2e-15 + 4e-16 * math.sqrt(n)


def _assert_matches_mp(x, w, n, a, extra=()):
    # end, sixth and middle node (and any extra ones) against a 40-digit
    # mpmath Newton reference started from the rule's own nodes
    idx = [0, min(5, n - 1), n // 2, *extra]
    x_mp, w_mp = gauss_oracle.gauss_jacobi_mp(n, a, x[idx])
    node_err = [float(abs(x[i] - r)) for i, r in zip(idx, x_mp)]
    weight_err = [float(abs(w[i] - r) / r) for i, r in zip(idx, w_mp)]
    end, sixth, middle = _weight_bounds(n)
    assert max(node_err) <= 2e-16, node_err
    assert weight_err[0] <= end and weight_err[1] <= sixth and weight_err[2] <= middle, weight_err
    assert all(e <= end for e in weight_err[3:]), weight_err


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 600), a=st.one_of(st.just(0.0), st.floats(0.0, 1.9)), u=st.floats(0.0, 1.0))
@example(n=1994, a=0.0, u=0.3)
@example(n=3831, a=0.0, u=0.01)
@example(n=3831, a=1.9, u=0.2)
def test_gauss_jacobi_matches_mpmath(n, a, u):
    x, w = fr.gauss_jacobi(n, a)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exact on even monomials of degree <= 2n - 1, so no zero is missing or found twice
    for j in range(min(4, n)):
        moment = math.gamma(j + 0.5) * math.gamma(a + 1.0) / math.gamma(j + a + 1.5)
        assert abs(np.sum(w * x ** (2 * j)) - moment) <= 1e-13 * moment
    _assert_matches_mp(x, w, n, a, extra=[int(u * (n - 1))])


def test_gauss_legendre_nodes_are_cached_and_read_only():
    x, w = fr.gauss_legendre(33)
    assert np.array_equal(x, fr.gauss_jacobi(33, 0.0)[0]) and np.array_equal(w, fr.gauss_jacobi(33, 0.0)[1])
    _assert_matches_mp(x, w, 33, 0.0, extra=range(33))
    assert fr.gauss_legendre(33)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


@pytest.mark.parametrize("n", [48, 320, 480])
def test_gauss_legendre_oracle_matches_mpmath(n):
    # the tests' float64 reference rule, polished from leggauss, is itself
    # checked against the 40-digit one: 1.9e-12 at the ends of n = 320, where
    # leggauss is 2.3e-10 off
    x, w = gauss_oracle.gauss_legendre(n)
    idx = [0, 5, n // 2, n - 1]
    x_mp, w_mp = gauss_oracle.gauss_jacobi_mp(n, 0.0, x[idx])
    assert max(float(abs(x[i] - r)) for i, r in zip(idx, x_mp)) <= 2e-16
    assert max(float(abs(w[i] - r) / r) for i, r in zip(idx, w_mp)) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(
    breaks=st.lists(st.integers(-400, 400), min_size=2, max_size=8, unique=True),
    n=st.integers(1, 8),
    data=st.data(),
)
def test_gauss_interval_broadcasts_over_panels(breaks, n, data):
    # one call over a column of panel ends integrates every polynomial of
    # degree <= 2n - 1 exactly on every panel
    b = np.sort(np.array(breaks)) / 100.0  # panels at least 0.01 wide in [-4, 4]
    coef = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
    x, w = fr.gauss_interval(b[:-1, None], b[1:, None], n)
    assert x.shape == w.shape == (len(b) - 1, n)
    quad = np.sum(w * np.polynomial.polynomial.polyval(x, coef), axis=1)
    anti = np.polynomial.polynomial.polyint(coef)
    exact = np.polynomial.polynomial.polyval(b[1:], anti) - np.polynomial.polynomial.polyval(b[:-1], anti)
    scale = np.sum(np.abs(coef) * 4.0 ** np.arange(1, 2 * n + 1))
    assert np.all(np.abs(quad - exact) <= 1e-13 * scale)
    # each row is the scalar call on its own panel
    for i in range(len(b) - 1):
        xi, wi = fr.gauss_interval(b[i], b[i + 1], n)
        assert np.array_equal(x[i], xi) and np.array_equal(w[i], wi)
