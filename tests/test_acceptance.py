"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
captured summary) and asserts the criterion.  The configuration of record
is s = 0.75, M = 0.5, c = 1.0, omega0 = (-0.3, 0.3), horizon 1.05x the
working threshold, truncation N = 16; the constructions are deterministic
given the seeds below.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from memwave import biorthogonal as bio
from memwave import control as ctl
from memwave import cubic
from memwave import fractional as fr
from memwave import moving
from memwave import product as pr
from memwave import simulate as sim

OMEGA0 = (-0.3, 0.3)
SEED = 2026


def verdict(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num}] {status} {name} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def headline():
    """Shared configuration of record at N = 16."""
    table = fr.build_eigenvalue_table(0.75, 16)
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 16)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    data = ctl.random_initial_data(ms, seed=SEED)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    return table, ms, T, gram, data, cf


def test_criterion_1_end_to_end_controllability(headline):
    table, ms, T, gram, data, cf = headline
    t0 = time.time()
    simulator = sim.GalerkinSimulator(ms, OMEGA0)
    _, report = simulator.run_to_T(data, cf, T, tol_rel=1e-6, precision="mp")
    elapsed = time.time() - t0
    ok = report.passed and all(r <= 1e-6 for r in report.ratios.values())
    detail = "terminal ratios " + ", ".join(f"{k}={v:.2e}" for k, v in report.ratios.items())
    detail += f"; runtime {elapsed:.0f}s"
    verdict(1, "end-to-end null control", ok and elapsed < 120.0, detail)


def test_default_quadrature_resolves_headline(headline):
    # the default time-node count follows the fastest moment oscillation
    table, ms, T, gram, data, cf = headline
    b = ctl.assemble_moments(data, ms).b
    rel = np.abs(ctl.quadrature_moments(cf, ms) - b) / np.abs(b)
    assert np.max(rel) < 1e-6


def test_criterion_2_cubic_spectrum():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(500):
        rho = float(10 ** rng.uniform(-1, 4))
        M = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1))
        t = cubic.solve_cubic(rho, M)
        worst = max(worst, t.residual / t.residual_scale)
    residual_ok = worst <= 1e-10
    violations = 0
    for s in (0.6, 0.75, 0.9):
        table = fr.build_eigenvalue_table(s, 200)
        for M in (0.5, -1.0):
            rep = cubic.verify_mu1_monotone(table, M)
            if not rep.passed:
                violations += 1
    verdict(2, "cubic spectrum", residual_ok and violations == 0,
            f"max residual ratio {worst:.2e}; bound/monotone violations {violations}")


def test_criterion_3_gap_lemmas():
    combos = [(s, M, c) for s in (0.6, 0.75, 0.9) for M in (0.5, -1.0) for c in (0.7, 2.2)]
    assert len(combos) == 12
    failed = []
    for s, M, c in combos:
        table = fr.build_eigenvalue_table(s, 48)
        ms = moving.build_moving_spectrum(table, M, c, 48)
        rep = moving.gap_diagnostics(ms)
        if not rep.passed:
            failed.append(((s, M, c), [cl.name for cl in rep.clauses if cl.passed is False]))
    # one critical-velocity case exhibiting the exact double eigenvalue
    table = fr.build_eigenvalue_table(0.75, 32)
    vels = moving.critical_velocities(table, 0.5, range(1, 9))
    n_c, v = vels[2]
    ms_crit = moving.build_moving_spectrum(table, 0.5, v, 32)
    collision = abs(ms_crit.eigenvalue(-n_c, 2) - ms_crit.eigenvalue(n_c, 3))
    rep_crit = moving.gap_diagnostics(ms_crit)
    ok = not failed and collision <= 1e-9 and rep_crit.passed
    verdict(3, "gap lemmas clause-by-clause", ok,
            f"12 combos; critical collision |lam(-n_c,2)-lam(n_c,3)| = {collision:.2e}; failures {failed}")


def test_criterion_4_biorthogonality():
    table = fr.build_eigenvalue_table(0.75, 48)
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 48)
    pf = pr.build_product(ms)
    T = 1.05 * bio.horizon_threshold(1.0, ms.gamma)
    bf = bio.build_biorthogonal(pf, T, family_N=12)
    gram_ok = bf.gram_deviation <= 1e-3
    C = bf.norm_ratio_bound()
    norm_ok = np.isfinite(C) and np.all(bf.norms <= C * bf.rho + 1e-12)
    modes = [(n, j) for n in ms.mode_indices() if abs(n) <= 12 for j in (1, 2, 3)]
    c2 = np.abs(np.array([ms.rho(n) for n, _ in modes]) * pf.derivative_at_modes(modes))
    c2_hat = float(c2.min())
    env_ok = c2_hat > 0 and bool(np.all(c2 >= c2_hat))
    verdict(4, "biorthogonality at N=12", gram_ok and norm_ok and env_ok,
            f"gram deviation {bf.gram_deviation:.2e}; norm constant {C:.3g}; C2 {c2_hat:.3g}")


def test_criterion_5_observability(headline):
    table, ms, T, gram, data, cf = headline
    rep16 = ctl.certify_observability(ms, OMEGA0, T, trials=200, seed=SEED, gram=gram)
    ms8 = moving.build_moving_spectrum(table, 0.5, 1.0, 8)
    rep8 = ctl.certify_observability(ms8, OMEGA0, T, trials=200, seed=SEED)
    ratio = rep16.c_obs_hat / rep8.c_obs_hat
    ok = (
        rep16.passed and rep8.passed
        and rep16.failures == 0
        and rep16.c_obs_hat > 0
        and 0.5 <= ratio <= 2.0
    )
    verdict(5, "observability inequality", ok,
            f"C_obs(8) = {rep8.c_obs_hat:.4g}, C_obs(16) = {rep16.c_obs_hat:.4g}, ratio {ratio:.3f}; "
            f"201 vectors, {rep16.failures} failures")


def test_criterion_6_duality_identity(headline):
    table, ms, T, gram, data, cf = headline
    rng = np.random.default_rng(SEED + 6)
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    worst = 0.0
    for _ in range(50):
        coeffs = {mk: complex(rng.standard_normal(), rng.standard_normal()) for mk in modes}
        worst = max(worst, sim.verify_duality(data, cf, coeffs, T, ms))
    verdict(6, "duality identity", worst <= 1e-5, f"50 adjoint draws, max relative residual {worst:.2e}")


def test_criterion_7_symbol_identity():
    worst = 0.0
    for kappa in (1.0, math.pi / 2, 3.0):
        for s in (0.55, 0.75, 0.95):
            chk = fr.verify_symbol_identity(kappa, s, tol=1e-3)
            worst = max(worst, chk.max_rel_error)
    slopes = []
    for s in (0.55, 0.95):
        errs = [
            fr.verify_symbol_identity(math.pi / 2, s, tol=1.0, window=120.0, h=h).max_rel_error
            for h in (0.04, 0.02, 0.01)
        ]
        slopes.append(np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(errs), 1)[0])
    ok = worst <= 1e-3 and all(p >= 1.0 for p in slopes)
    verdict(7, "plane-wave symbol identity", ok,
            f"max rel error {worst:.2e}; refinement orders {[f'{p:.2f}' for p in slopes]}")


def test_criterion_8_oracle_equivalence(headline):
    table, ms, T, gram, data, cf = headline
    simulator = sim.GalerkinSimulator(ms, OMEGA0)
    forcing = simulator.bind_forcing(cf)
    rng = np.random.default_rng(SEED + 8)
    worst_ode = 0.0
    for _ in range(20):
        n = int(rng.choice(simulator.ns))
        x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        i = int(np.nonzero(simulator.ns == n)[0][0])
        state = sim.GalerkinState(
            t=0.0, ns=simulator.ns.copy(),
            xi=np.zeros(len(simulator.ns), complex),
            xi_dot=np.zeros(len(simulator.ns), complex),
            zeta=np.zeros(len(simulator.ns), complex),
        )
        state.xi[i], state.xi_dot[i], state.zeta[i] = x0
        out = simulator.step_exact(state, forcing, 4.0)
        amps, expos = forcing.amps[i], forcing.expos[i]
        rho, kap, M, c = ms.rho(n), ms.kappa(n), ms.M, ms.c

        def rhs(t, y):
            xi, xid, zeta = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]
            g = np.sum(amps * np.exp(expos * t))
            xidd = -(rho - c**2 * kap**2) * xi - 2j * c * kap * xid + M * zeta + g
            zetad = rho * xi - 1j * c * kap * zeta
            return [xid.real, xid.imag, xidd.real, xidd.imag, zetad.real, zetad.imag]

        y0 = [x0[0].real, x0[0].imag, x0[1].real, x0[1].imag, x0[2].real, x0[2].imag]
        sol = solve_ivp(rhs, (0, 4.0), y0, method="DOP853", rtol=1e-12, atol=1e-13)
        want = sol.y[:, -1]
        got = np.array([
            out.xi[i].real, out.xi[i].imag, out.xi_dot[i].real,
            out.xi_dot[i].imag, out.zeta[i].real, out.zeta[i].imag,
        ])
        worst_ode = max(worst_ode, np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))

    # brute-force constrained minimizer on the N = 2 system
    table2 = fr.build_eigenvalue_table(0.75, 2)
    ms2 = moving.build_moving_spectrum(table2, 0.5, 1.0, 2)
    T2 = 1.05 * bio.horizon_threshold(1.0, ms2.gamma)
    gram2 = ctl.assemble_gram(ms2, OMEGA0, T2)
    data2 = ctl.random_initial_data(ms2, seed=SEED)
    msys2 = ctl.assemble_moments(data2, ms2)
    cf2 = ctl.synthesize_control(msys2, gram2)
    tg, tw = np.polynomial.legendre.leggauss(320)
    t = 0.5 * T2 * (tg + 1)
    tw = 0.5 * T2 * tw
    xg, xw = np.polynomial.legendre.leggauss(48)
    x = 0.3 * xg
    xw = 0.3 * xw
    lam = np.array([ms2.eigenvalue(n, j) for n, j in gram2.modes])
    kap = np.array([ms2.kappa(n) for n, _ in gram2.modes])
    K = np.einsum("mt,mx->mtx", np.exp(-np.conj(lam)[:, None] * t[None, :]), np.exp(-1j * kap[:, None] * x[None, :]))
    Ghat = np.einsum("mtx,ntx,t,x->mn", np.conj(K), K, tw, xw)
    a_oracle = np.linalg.solve(Ghat.T, msys2.b)
    dev = np.max(np.abs(a_oracle - cf2.a)) / max(np.max(np.abs(cf2.a)), 1.0)
    ok = worst_ode <= 1e-8 and dev <= 1e-8
    verdict(8, "oracle equivalence", ok, f"ODE max dev {worst_ode:.2e}; N=2 synthesis dev {dev:.2e}")
