"""Moment assembly, Gram closed forms, minimum-norm synthesis, observability."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gauss_oracle
from memwave import control as ctl
from memwave import dd, hp
from memwave.hp import MpSpectrum
from memwave.biorthogonal import horizon_threshold
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum
from memwave.simulate import GalerkinSimulator

OMEGA0 = (-0.3, 0.3)


@pytest.fixture(scope="module")
def setup():
    table = build_eigenvalue_table(0.75, 8)
    ms = build_moving_spectrum(table, 0.5, 1.0, 8)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    return ms, T, gram


def test_moment_rhs_literal(setup):
    ms, T, _ = setup
    ns = np.array(ms.mode_indices())
    rho = np.array([ms.rho(n) for n in ns])
    y0 = np.zeros(len(ns), dtype=complex)
    y1 = np.zeros(len(ns), dtype=complex)
    y0[np.nonzero(ns == 1)[0][0]] = 1.0
    data = ctl.InitialData(ns=ns, y0=y0, y1=y1, rho=rho)
    msys = ctl.assemble_moments(data, ms)
    for j in (1, 2, 3):
        assert msys.rhs_of(1, j) == pytest.approx(-2.0 * np.conj(ms.mu_of(1, j)))
        assert msys.rhs_of(2, j) == 0.0
        assert msys.rhs_of(-1, j) == 0.0


def test_zero_data_zero_control(setup):
    ms, T, gram = setup
    ns = np.array(ms.mode_indices())
    rho = np.array([ms.rho(n) for n in ns])
    data = ctl.InitialData(ns, np.zeros(len(ns), complex), np.zeros(len(ns), complex), rho)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    assert cf.norm == 0.0 and np.all(cf.a == 0)


def test_gram_diagonal_closed_form(setup):
    ms, T, gram = setup
    i = gram.modes.index((3, 2))
    lam = ms.eigenvalue(3, 2)
    w = 2 * lam.real
    want = 0.6 * (1 - np.exp(-w * T)) / w
    assert gram.G[i, i] == pytest.approx(want, rel=1e-12)


def test_gram_full_domain_sinc(setup):
    # omega0 = whole interval: the space factor is 2 sin(dk)/dk times a phase
    ms, T, _ = setup
    g2 = ctl.assemble_gram(ms, (-1.0, 1.0), T)
    i = g2.modes.index((1, 1))
    k = g2.modes.index((2, 1))
    dk = ms.kappa(2) - ms.kappa(1)
    space = 2 * np.sin(dk) / dk
    lam1, lam2 = ms.eigenvalue(1, 1), ms.eigenvalue(2, 1)
    want = space * (1 - np.exp(-(lam2 + np.conj(lam1)) * T)) / (lam2 + np.conj(lam1))
    assert g2.G[i, k] == pytest.approx(want, rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    M=st.floats(0.2, 2.0),
    negative=st.booleans(),
    c=st.floats(0.5, 1.4),
    N=st.integers(1, 6),
)
def test_gram_hermitian_psd(M, negative, c, N):
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 6), -M if negative else M, c, N)
    gram = ctl.assemble_gram(ms, OMEGA0, 1.05 * horizon_threshold(c, ms.gamma))
    scale = np.max(np.abs(gram.G))
    assert np.max(np.abs(gram.G - gram.G.conj().T)) < 1e-14 * scale
    assert np.linalg.eigvalsh(gram.G)[0] >= -1e-12 * scale


def test_gram_quadrature_crosscheck(setup):
    # closed forms against Gauss-Legendre on a couple of entries
    ms, T, gram = setup
    tg, tw = gauss_oracle.gauss_legendre(220)
    t = 0.5 * T * (tg + 1)
    tw = 0.5 * T * tw
    xg, xw = np.polynomial.legendre.leggauss(40)
    x = 0.3 * xg
    xw = 0.3 * xw
    for a, b in [((1, 1), (2, 3)), ((-3, 2), (3, 2))]:
        ia, ib = gram.modes.index(a), gram.modes.index(b)
        lam_a, lam_b = ms.eigenvalue(*a), ms.eigenvalue(*b)
        ka, kb = ms.kappa(a[0]), ms.kappa(b[0])
        Ea = np.exp(-1j * ka * x)[None, :] * np.exp(-np.conj(lam_a) * t)[:, None]
        Eb = np.exp(-1j * kb * x)[None, :] * np.exp(-np.conj(lam_b) * t)[:, None]
        # G[row, col] pairs conj(E_col) with E_row, so this integrand is G[ib, ia]
        val = np.einsum("tx,t,x->", np.conj(Ea) * Eb, tw, xw)
        assert gram.G[ib, ia] == pytest.approx(val, rel=1e-10)


def test_synthesis_and_moment_feasibility(setup):
    ms, T, gram = setup
    data = ctl.random_initial_data(ms, seed=11)
    msys = ctl.assemble_moments(data, ms)
    cf = ctl.synthesize_control(msys, gram)
    assert cf.residual <= 1e-10 * cf.rhs_norm
    qm = ctl.quadrature_moments(cf, ms)
    rel = np.abs(qm - msys.b) / np.maximum(np.abs(msys.b), 1e-300)
    assert np.max(rel) < 1e-6


def test_ladder_float64_rung(setup):
    # at M = 0.5 float64 solves refined against extended residuals suffice
    ms, T, gram = setup
    cf = ctl.synthesize_control(ctl.assemble_moments(ctl.random_initial_data(ms, seed=11), ms), gram)
    assert cf.gram_condition["rung"] == "float64"
    history = cf.gram_condition["refinement"]
    assert list(history) == ["float64"]
    steps = history["float64"]
    assert len(steps) >= 3 and all(b < a for a, b in zip(steps, steps[1:]))
    assert cf.residual <= 1e-10 * cf.rhs_norm


def test_ladder_escalates_to_one_mp_factorization(monkeypatch):
    # at M = 5 the scaled Gram (condition ~1e38) is beyond float64
    # solves: rung 1 stalls, and rung 2 factors in mpmath exactly once
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 8), 5.0, 1.0, 8)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    data = ctl.random_initial_data(ms, seed=11)
    factorizations = []
    real_decomp = mp.mp.LU_decomp

    def counting_decomp(*args, **kwargs):
        factorizations.append(args[0].rows)
        return real_decomp(*args, **kwargs)

    monkeypatch.setattr(mp.mp, "LU_decomp", counting_decomp)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    assert cf.gram_condition["rung"] == "mp"
    assert len(factorizations) == 1
    assert list(cf.gram_condition["refinement"]) == ["float64", "mp"]
    assert cf.residual <= 1e-10 * cf.rhs_norm
    _, report = GalerkinSimulator(ms, OMEGA0).run_to_T(data, cf, T, tol_rel=1e-6, precision="mp")
    assert report.passed, report.ratios


def test_ladder_overflowing_matrix_goes_to_mp():
    # entries beyond the float64 range skip rung 1 altogether
    with mp.workdps(30):
        scale = mp.mpf("1e400")
        A = np.array([[2 * scale, scale], [scale, 2 * scale]], dtype=object)
        b = np.array([3 * scale, 3 * scale], dtype=object)
        solve = hp.hermitian_solve(A, b)
        assert solve.rung == "mp" and list(solve.history) == ["mp"]
        assert solve.residual <= 1e-25 * 3 * scale
        assert max(abs(solve.x[i] - 1) for i in range(2)) < 1e-25


def test_ladder_matrix_singular_in_double_precision():
    # rounded to float64 the matrix is exactly singular: rung 1 stops at once,
    # mpmath values go to the mp rung and double-double ones to the fallback
    with mp.workdps(50):
        eps = mp.mpf("1e-20")
        A = np.array([[1, 1], [1, 1 + eps]], dtype=object) * mp.mpf(1)
        b = np.array([2, 2 + eps], dtype=object)
        solve = hp.hermitian_solve(A, b)
        assert solve.rung == "mp" and list(solve.history) == ["float64", "mp"]
        assert len(solve.history["float64"]) == 1
        assert max(abs(solve.x[i] - 1) for i in range(2)) < 1e-25
    with pytest.raises(hp.RefinementStalled):
        hp.hermitian_solve(dd.lift(A, "dd"), dd.lift(b, "dd"))


def test_ladder_stays_on_float64_where_the_mp_rung_gains_nothing():
    # at M = 3, N = 16 (dps 61) rung 1 stalls near 1e-50, which is what the
    # mp rung reaches there too; the floor m 10^-dps max|A| max|x| keeps the
    # solve on rung 1, and the result passes both downstream checks
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 16), 3.0, 1.0, 16)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    data = ctl.random_initial_data(ms, seed=11)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    assert cf.gram_condition["dps"] == 61
    assert cf.gram_condition["rung"] == "float64"
    assert list(cf.gram_condition["refinement"]) == ["float64"]
    assert cf.residual <= 1e-10 * cf.rhs_norm
    _, report = GalerkinSimulator(ms, OMEGA0).run_to_T(data, cf, T, tol_rel=1e-6, precision="mp")
    assert report.passed, report.ratios


def _gram_entry_reference(lam_r, kap_r, lam_c, kap_c, x0, x1, T):
    # one entry from the exponentials of the differences, not of the modes
    d = kap_c - kap_r
    space = x1 - x0 if abs(d) < 1e-14 else (mp.exp(1j * d * x1) - mp.exp(1j * d * x0)) / (1j * d)
    w = lam_c + mp.conj(lam_r)
    return space * (T if abs(w) < 1e-14 else (1 - mp.exp(-w * T)) / w)


@pytest.mark.parametrize("M", [0.5, -1.5])
@pytest.mark.parametrize("dps", [40, 60])
def test_separable_mp_gram_matches_entrywise_closed_form(M, dps):
    # the reference runs 20 digits above the Gram on the same mp spectrum;
    # what remains is the Gram's own rounding of the exponents lam T, at
    # 10^-dps in mpmath and at dd.EPS in double-double
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 4), M, 1.0, 4)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    spec = MpSpectrum(ms, dps=dps)
    for arithmetic, unit in (("mp", mp.mpf(10) ** (-dps)), ("dd", dd.EPS)):
        with mp.workdps(dps):
            G = ctl._assemble_gram_mp(spec, modes, OMEGA0, T, arithmetic)
            G = dd.to_mp(G) if arithmetic == "dd" else G
            lam = [spec.eigenvalue(n, j) for n, j in modes]
            kap = [spec.kappa(n) for n, _ in modes]
            m = len(modes)
            assert all(G[r, c] == mp.conj(G[c, r]) for r in range(m) for c in range(m))
        with mp.workdps(dps + 20):
            x0, x1, T_mp = mp.mpf(OMEGA0[0]), mp.mpf(OMEGA0[1]), mp.mpf(T)
            worst = max(
                abs(G[r, c] - ref) / abs(ref)
                for r in range(m) for c in range(m)
                for ref in [_gram_entry_reference(lam[r], kap[r], lam[c], kap[c], x0, x1, T_mp)]
            )
        assert worst <= 100 * unit, arithmetic


@pytest.mark.parametrize("M, N, want", [(0.5, 8, "dd"), (0.5, 16, "dd"), (2.0, 8, "dd"), (3.0, 16, "mp"),
                                        (5.0, 8, "mp")])
def test_arithmetic_choice(M, N, want):
    # double-double where the terminal check keeps six digits to spare; the
    # solve's conditioning is not read (the solve certifies itself)
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, N), M, 1.0, N)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    got, estimate = hp.choose_arithmetic(abs(M) * T, 1e-6)
    assert got == want
    assert (estimate["terminal_digits"] <= estimate["dd_digits"]) == (want == "dd")
    # a tighter terminal tolerance moves it to mpmath
    assert hp.choose_arithmetic(abs(M) * T, 1e-25)[0] == "mp"


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("M", [1.0, -1.0, -1.5, 2.0])
def test_certificate_bounds_the_true_residual(M, N):
    # wherever double-double is accepted, its coefficients' residual against
    # the Gram and moments rebuilt 20 digits higher stays within the target
    # the certificate claims, 10^-(10 + MARGIN_DIGITS) max|b| of the scaled system
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, N), M, 1.0, N)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    data = ctl.random_initial_data(ms, seed=11)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    cond = cf.gram_condition
    assert cond["arithmetic"] == "dd" or M != 2.0  # strong memory is certified in double-double
    if cond["arithmetic"] != "dd":
        assert cond["fallback"]["from"] == "dd" and cond["certificate"] is None
        return
    cert = cond["certificate"]
    assert cert["residual"] + cert["rounding_bound"] <= cert["target"]
    dps = cond["dps"] + 20
    spec = MpSpectrum(ms, dps=dps)
    with mp.workdps(dps):
        G = ctl._assemble_gram_mp(spec, gram.modes, OMEGA0, T, "mp")
        b = ctl._moments(spec, gram.modes, data, "mp")
        rho = hp.mode_arrays(spec, gram.modes, "mp")[2]
        true = max(abs(r * v) for r, v in zip(rho, hp.matvec(G, dd.to_mp(cf.a_hp)) - b))
        target = mp.mpf(10) ** -(10 + hp.MARGIN_DIGITS) * max(abs(r * v) for r, v in zip(rho, b))
    assert true <= target and true <= cert["target"]


@pytest.mark.parametrize("log2_delta, accepted", [(-43, False), (-30, True)])
def test_certificate_rejects_what_rounding_could_hide(log2_delta, accepted):
    # A = [[1, -1], [-1, 1 + delta]], b = [0, delta]: x = [1, 1] exactly, so
    # refinement ends at a computed residual of 0, but |A| |x| = 2 + delta,
    # and entries accurate only to ~1e-30 leave room for a true residual of
    # ROUNDING_ULPS EPS (2 + delta).  At delta = 2^-43 that exceeds the
    # target 1e-16 delta (it would not with 100 ulps, nor with the target
    # 1e-10 delta); at 2^-30 it does not
    delta = 2.0**log2_delta
    A = dd.array([[1.0, -1.0], [-1.0, 1.0 + delta]])
    b = dd.array([0.0, delta])
    bound = hp.ROUNDING_ULPS * dd.EPS * (2 + delta)
    if accepted:
        solve = hp.hermitian_solve(A, b)
        assert solve.residual == 0.0 and np.all(dd.leading(solve.x) == 1.0)
        assert solve.certificate == {"residual": 0.0, "rounding_bound": bound,
                                     "target": 10.0 ** -(10 + hp.MARGIN_DIGITS) * delta}
        return
    with pytest.raises(hp.RefinementStalled) as stall:
        hp.hermitian_solve(A, b)
    cert = stall.value.certificate
    assert cert["residual"] == 0.0 and cert["rounding_bound"] == bound
    assert cert["target"] == 10.0 ** -(10 + hp.MARGIN_DIGITS) * delta < bound


def test_stalled_double_double_solve_falls_back_to_mpmath(monkeypatch):
    # forced onto double-double at M = 5 (scaled condition ~1e38), the
    # refinement stalls above its floor and the solve is rebuilt in mpmath
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 8), 5.0, 1.0, 8)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    monkeypatch.setattr(ctl, "choose_arithmetic", lambda *args: ("dd", {}))
    cf = ctl.synthesize_control(ctl.assemble_moments(ctl.random_initial_data(ms, seed=11), ms), gram)
    cond = cf.gram_condition
    assert cond["arithmetic"] == "mp" and cf.arithmetic == "mp"
    assert cond["fallback"]["from"] == "dd" and list(cond["fallback"]["refinement"]) == ["float64"]
    assert cond["rung"] == "mp"
    assert cf.residual <= 1e-10 * cf.rhs_norm


def test_linearity_scaling(setup):
    ms, T, gram = setup
    data = ctl.random_initial_data(ms, seed=5)
    cf1 = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    cf2 = ctl.synthesize_control(ctl.assemble_moments(data.scaled(2.0), ms), gram)
    assert np.allclose(cf2.a, 2.0 * cf1.a, rtol=1e-12, atol=1e-300)
    assert cf2.norm == pytest.approx(2.0 * cf1.norm, rel=1e-10)


def test_support_masking(setup):
    ms, T, gram = setup
    data = ctl.random_initial_data(ms, seed=5)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    t = np.array([-0.5, 0.5, T + 1.0])
    x = np.array([-0.9, 0.0, 0.8])
    vals = cf.evaluate(t, x)
    assert vals[0, 1] == 0 and vals[2, 1] == 0  # outside (0,T)
    assert vals[1, 0] == 0 and vals[1, 2] == 0  # outside omega0
    assert vals[1, 1] != 0


def test_minimum_norm_first_order(setup):
    # directions with vanishing moments cannot reduce the norm to first order
    ms, T, gram = setup
    data = ctl.random_initial_data(ms, seed=7)
    msys = ctl.assemble_moments(data, ms)
    cf = ctl.synthesize_control(msys, gram)
    rng = np.random.default_rng(0)
    tg, tw = gauss_oracle.gauss_legendre(260)
    t = 0.5 * T * (tg + 1)
    tw = 0.5 * T * tw
    xg, xw = np.polynomial.legendre.leggauss(40)
    x = 0.3 * xg
    xw = 0.3 * xw
    lam = np.array([ms.eigenvalue(n, j) for n, j in cf.modes])
    kap = np.array([ms.kappa(n) for n, _ in cf.modes])
    K = np.einsum("mt,mx->mtx", np.exp(-np.conj(lam)[:, None] * t[None, :]), np.exp(-1j * kap[:, None] * x[None, :]))
    u = np.einsum("m,mtx->tx", cf.a, np.conj(K))
    for _ in range(6):
        w = np.einsum("a,atx->tx", rng.standard_normal(4) + 1j * rng.standard_normal(4),
                      np.array([np.outer(np.sin((i + 1) * np.pi * t / T), np.cos(i * x)) for i in range(4)]), )
        mom_w = np.einsum("tx,mtx,t,x->m", w, K, tw, xw)
        coef = np.linalg.solve(gram.G, mom_w)
        v = w - np.einsum("m,mtx->tx", coef, np.conj(K))
        inner = np.einsum("tx,tx,t,x->", v, np.conj(u), tw, xw)
        norm_u = np.sqrt(abs(np.einsum("tx,tx,t,x->", u, np.conj(u), tw, xw)))
        norm_v = np.sqrt(abs(np.einsum("tx,tx,t,x->", v, np.conj(v), tw, xw)))
        assert abs(inner) <= 1e-8 * norm_u * norm_v


def test_n2_brute_force_oracle():
    # dense elimination of the Lagrange system on a quadrature grid, compared
    # against the closed-form synthesis, both as coefficients and pointwise
    table = build_eigenvalue_table(0.75, 2)
    ms = build_moving_spectrum(table, 0.5, 1.0, 2)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    data = ctl.random_initial_data(ms, seed=9)
    msys = ctl.assemble_moments(data, ms)
    cf = ctl.synthesize_control(msys, gram)

    tg, tw = gauss_oracle.gauss_legendre(320)
    t = 0.5 * T * (tg + 1)
    tw = 0.5 * T * tw
    xg, xw = np.polynomial.legendre.leggauss(48)
    x = 0.3 * xg
    xw = 0.3 * xw
    lam = np.array([ms.eigenvalue(n, j) for n, j in gram.modes])
    kap = np.array([ms.kappa(n) for n, _ in gram.modes])
    K = np.einsum("mt,mx->mtx", np.exp(-np.conj(lam)[:, None] * t[None, :]), np.exp(-1j * kap[:, None] * x[None, :]))
    W = np.einsum("t,x->tx", tw, xw)
    # eliminating u from [2W I ; M 0] gives the quadrature Gram system
    Ghat = np.einsum("mtx,ntx,tx->mn", np.conj(K), K, W)
    a_oracle = np.linalg.solve(Ghat.T, msys.b)  # Ghat[m,n] = G[n,m]
    assert np.max(np.abs(a_oracle - cf.a)) <= 1e-8 * max(np.max(np.abs(cf.a)), 1.0)
    u_oracle = np.einsum("m,mtx->tx", a_oracle, np.conj(K))
    u_direct = np.einsum("m,mtx->tx", cf.a, np.conj(K))
    assert np.max(np.abs(u_oracle - u_direct)) <= 1e-8 * np.max(np.abs(u_direct))


def test_observability_certificate(setup):
    ms, T, gram = setup
    rep = ctl.certify_observability(ms, OMEGA0, T, trials=150, seed=4, gram=gram)
    assert rep.passed and rep.c_obs_hat > 0 and rep.min_rhs > 0
    # single mode: the reciprocal ratio is rho^2 times the diagonal entry
    i = gram.modes.index((2, 2))
    rho = ms.rho(2)
    a = np.zeros(len(gram.modes), dtype=complex)
    a[i] = 1.0
    rhs = float(np.real(np.conj(a) @ gram.G @ a))
    assert rhs == pytest.approx(gram.G[i, i].real)
    assert (1 / rho**2) / rhs <= rep.c_obs_hat + 1e-12


@pytest.mark.parametrize("M, N", [(0.5, 16), (2.0, 8)])
def test_observability_constant_matches_scipy_generalized_eigh(M, N):
    # the default configuration, and strong memory, against LAPACK's hegv
    from scipy.linalg import eigh

    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 200), M, 1.0, N)
    gram = ctl.assemble_gram(ms, OMEGA0, 1.05 * horizon_threshold(1.0, ms.gamma))
    rho = np.array([ms.rho(n) for n, _ in gram.modes])
    ref = eigh(np.diag(1.0 / rho**2), gram.G, eigvals_only=True)[-1]
    assert abs(ctl._top_generalized_eigenvalue(1.0 / rho, gram.G) / ref - 1.0) <= 1e-10


def test_control_exports(tmp_path, setup):
    ms, T, gram = setup
    data = ctl.random_initial_data(ms, seed=1)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    cf.to_json(tmp_path / "control.json")
    cf.sample_csv(tmp_path / "u.csv", nt=8, nx=6)
    import json

    man = json.loads((tmp_path / "control.json").read_text())
    assert len(man["coefficients"]) == len(gram.modes)
    assert (tmp_path / "u.csv").read_text().splitlines()[0] == "t,x,re_u,im_u"


@settings(max_examples=12, deadline=None)
@given(
    M=st.floats(0.2, 2.0),
    negative=st.booleans(),
    c=st.floats(0.5, 1.4),
    N=st.integers(1, 4),
)
def test_mp_table_is_the_moving_spectrum(M, negative, c, N):
    # the extended-precision table carries the configured kappa and rho
    # exactly, and its Gram is the float64 Gram at higher precision
    M = -M if negative else M
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 4), M, c, N)
    spec = MpSpectrum(ms, dps=30)
    for n in ms.mode_indices():
        assert spec.kappa(n) == mp.mpf(ms.kappa(n))
        assert spec.rho(n) == mp.mpf(ms.rho(n))
    T = 1.05 * horizon_threshold(c, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    with mp.workdps(30):
        G_mp = ctl._assemble_gram_mp(spec, gram.modes, OMEGA0, T)
        G = np.array(G_mp.tolist(), dtype=complex)
    assert np.max(np.abs(G - gram.G)) <= 1e-12 * np.max(np.abs(gram.G))


def test_observability_certificate_can_fail(setup, monkeypatch):
    # below the exact constant the inequality must break on the trial vectors
    ms, T, gram = setup
    top = ctl._top_generalized_eigenvalue
    monkeypatch.setattr(ctl, "_top_generalized_eigenvalue", lambda *a, **k: 1e-6 * top(*a, **k))
    rep = ctl.certify_observability(ms, OMEGA0, T, trials=150, seed=4, gram=gram)
    assert rep.c_obs_hat > 0 and rep.min_rhs > 0
    assert not rep.passed and rep.failures > 0


_TOL = {"float64": 1e-14, "dd": 1e-29}


def _small_complex():
    # |z| from 1e-16 to 5 at any phase: series, crossover and closed form
    return st.builds(lambda m, phase: 10.0**m * complex(np.cos(phase), np.sin(phase)),
                     st.floats(-16.0, 0.7), st.floats(0.0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(z=_small_complex(), T=st.floats(0.5, 30.0), arithmetic=st.sampled_from(["float64", "dd"]))
def test_time_factor_keeps_its_digits_near_zero(z, T, arithmetic):
    # (1 - e^{-wT}) / w loses digits as wT -> 0 (5.2e-6 relative at w = 1e-13,
    # T = 20.7 before its Taylor branch); against 60-digit mpmath
    w = np.array([z / T, 0.0, 1.0 + 2j])
    W, TT = dd.lift(w, arithmetic), dd.lift(T, arithmetic)
    got = ctl._time_factor(W, TT, ctl._exp(-W * TT))
    got = dd.to_mp(got) if arithmetic == "dd" else got
    with mp.workdps(60):
        for g, wk in zip(got, w):
            ref = mp.mpf(T) if wk == 0 else (1 - mp.exp(-mp.mpc(wk) * T)) / mp.mpc(wk)
            assert abs(mp.mpc(g) - ref) <= _TOL[arithmetic] * abs(ref)


@settings(max_examples=60, deadline=None)
@given(z=_small_complex(), x0=st.floats(-1.0, 0.9), length=st.floats(1e-3, 1.0),
       arithmetic=st.sampled_from(["float64", "dd"]))
@example(z=complex(math.pi / 2), x0=0.5, length=1e-3, arithmetic="float64")
def test_space_factor_keeps_its_digits_near_zero(z, x0, length, arithmetic):
    # a short support away from the origin: the difference of the endpoint
    # terms (e^{i delta x1} - e^{i delta x0}) / (i delta) was 3.4e-14 relative
    # off at x0 = 0.5, length 1e-3, delta = pi/2
    x1 = min(x0 + length, 1.0)
    delta = np.array([z.real, 0.0, 3.0])  # real, as kap_c - kap_r is
    D, X0, X1 = dd.lift(delta, arithmetic), dd.lift(x0, arithmetic), dd.lift(x1, arithmetic)
    got = ctl._space_factor(D, X1 - X0, ctl._exp(1j * D * X0), ctl._exp(1j * D * (X1 - X0)))
    got = dd.to_mp(got) if arithmetic == "dd" else got
    with mp.workdps(60):
        for g, d in zip(got, delta):
            ref = (mp.mpf(x1) - mp.mpf(x0) if d == 0
                   else (mp.exp(1j * mp.mpf(d) * x1) - mp.exp(1j * mp.mpf(d) * x0)) / (1j * mp.mpf(d)))
            assert abs(mp.mpc(g) - ref) <= _TOL[arithmetic] * abs(ref)


def test_series_branch_runs_in_mp():
    # the same branch on mpmath values, at the working precision
    w = np.array([mp.mpc("1e-20", "3e-21"), mp.mpc(0), mp.mpc("0.5")], dtype=object)
    with mp.workdps(50):
        got = ctl._time_factor(w, mp.mpf(7), ctl._exp(-w * 7))
        with mp.workdps(120):
            ref = [(1 - mp.exp(-mp.mpc(wk) * 7)) / mp.mpc(wk) if wk else mp.mpf(7) for wk in w]
        assert all(abs(g - r) <= mp.mpf(10) ** -48 * abs(r) for g, r in zip(got, ref))
