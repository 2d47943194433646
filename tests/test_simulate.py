"""Exact modal propagation, forcing projection, duality, and the ODE oracle."""

import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import gauss_oracle
from memwave import control as ctl
from memwave import dd, hp
from memwave import simulate as sim
from memwave.biorthogonal import horizon_threshold
from memwave.fractional import build_eigenvalue_table
from memwave.moving import build_moving_spectrum

OMEGA0 = (-0.3, 0.3)


@pytest.fixture(scope="module")
def world():
    table = build_eigenvalue_table(0.75, 8)
    ms = build_moving_spectrum(table, 0.5, 1.0, 8)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    gram = ctl.assemble_gram(ms, OMEGA0, T)
    data = ctl.random_initial_data(ms, seed=3)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), gram)
    simulator = sim.GalerkinSimulator(ms, OMEGA0)
    return ms, T, data, cf, simulator


def mode_rhs(ms, n, amps, expos):
    rho, kap, M, c = ms.rho(n), ms.kappa(n), ms.M, ms.c

    def rhs(t, y):
        xi, xid, zeta = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]
        g = np.sum(amps * np.exp(expos * t)) if len(amps) else 0.0
        xidd = -(rho - c**2 * kap**2) * xi - 2j * c * kap * xid + M * zeta + g
        zetad = rho * xi - 1j * c * kap * zeta
        return [xid.real, xid.imag, xidd.real, xidd.imag, zetad.real, zetad.imag]

    return rhs


@functools.cache
def _world_at(c):
    # the world fixture's construction at another velocity
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, 8), 0.5, c, 8)
    T = 1.05 * horizon_threshold(c, ms.gamma)
    data = ctl.random_initial_data(ms, seed=3)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), ctl.assemble_gram(ms, OMEGA0, T))
    return ms, cf, sim.GalerkinSimulator(ms, OMEGA0)


def test_step_exact_vs_ode_oracle():
    # 20 random single-mode problems against an adaptive high-order integrator, per
    # velocity and per support: the synthesized one and the frozen one (shift -i c kappa),
    # so the oracle sees every transport term of the propagation and of the forcing
    for c in (1.0, -1.4, 0.6):
        ms, cf, simulator = _world_at(c)
        synthesized = simulator.bind_forcing(cf)
        for forcing in (synthesized, synthesized._replace(shift=-1j * c * simulator.kappa)):
            _check_against_ode_oracle(ms, simulator, forcing)


def _check_against_ode_oracle(ms, simulator, forcing):
    rng = np.random.default_rng(12)
    horizon = 4.0
    for trial in range(20):
        n = int(rng.choice(simulator.ns))
        x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        state = sim.GalerkinState(
            t=0.0, ns=simulator.ns.copy(),
            xi=np.zeros(len(simulator.ns), complex),
            xi_dot=np.zeros(len(simulator.ns), complex),
            zeta=np.zeros(len(simulator.ns), complex),
        )
        i = int(np.nonzero(simulator.ns == n)[0][0])
        state.xi[i], state.xi_dot[i], state.zeta[i] = x0
        # in two steps, so the forcing's phase at a nonzero start time is checked too
        out = simulator.step_exact(simulator.step_exact(state, forcing, horizon / 2), forcing, horizon / 2)
        amps, expos = forcing.amps[i], forcing.expos[i]
        y0 = [x0[0].real, x0[0].imag, x0[1].real, x0[1].imag, x0[2].real, x0[2].imag]
        sol = solve_ivp(mode_rhs(ms, n, amps, expos), (0, horizon), y0,
                        method="DOP853", rtol=1e-12, atol=1e-13)
        want = sol.y[:, -1]
        got = np.array([
            out.xi[i].real, out.xi[i].imag,
            out.xi_dot[i].real, out.xi_dot[i].imag,
            out.zeta[i].real, out.zeta[i].imag,
        ])
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= 1e-8 * scale, (ms.c, forcing.shift[0], trial, n)


def test_step_is_dt_free(world):
    ms, T, data, cf, simulator = world
    forcing = simulator.bind_forcing(cf)
    s0 = simulator.initial_state(data)
    one = simulator.step_exact(s0, forcing, 3.0)
    many = s0
    for _ in range(4):
        many = simulator.step_exact(many, forcing, 0.75)
    for field in ("xi", "xi_dot", "zeta"):
        a, b = getattr(one, field), getattr(many, field)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(a)), 1e-30)


def test_homogeneous_reversibility(world):
    # branch spreads grow like e^{1.5|M| t}, so the 1e-9 round-trip demand is
    # representable in doubles up to t ~ 20; check it over half the horizon
    ms, T, data, cf, simulator = world
    zero_forcing = simulator.bind_forcing(None)
    s0 = simulator.initial_state(data)
    t_rev = T / 2.0
    fwd = simulator.step_exact(s0, zero_forcing, t_rev)
    back = simulator.step_exact(fwd, zero_forcing, -t_rev)
    scale = max(np.max(np.abs(v)) for v in (s0.xi, s0.xi_dot, fwd.xi, fwd.zeta))
    for field in ("xi", "xi_dot", "zeta"):
        a, b = getattr(back, field), getattr(s0, field)
        assert np.max(np.abs(a - b)) <= 1e-9 * scale


def test_memory_consistency(world):
    # zeta_n(t) equals the transport-phased time integral of rho xi_n
    ms, T, data, cf, simulator = world
    forcing = simulator.bind_forcing(cf)
    t_end = 5.0
    nodes, weights = gauss_oracle.gauss_legendre(180)
    tau = 0.5 * t_end * (nodes + 1)
    wq = 0.5 * t_end * weights
    s0 = simulator.initial_state(data)
    xi_at = {}
    for tv in tau:
        st = simulator.step_exact(s0, forcing, float(tv))
        xi_at[tv] = st.xi.copy()
    end = simulator.step_exact(s0, forcing, t_end)
    for i, n in enumerate(simulator.ns[:6]):
        rho, kap = ms.rho(int(n)), ms.kappa(int(n))
        integrand = np.array([
            np.exp(-1j * ms.c * kap * (t_end - tv)) * rho * xi_at[tv][i] for tv in tau
        ])
        want = np.sum(wq * integrand)
        assert end.zeta[i] == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_spectral_consistency(world):
    # eigenvalues of the assembled per-mode block match mu - i c kappa
    ms, T, data, cf, simulator = world
    for n in (-5, 2, 8):
        rho, kap, M, c = ms.rho(n), ms.kappa(n), ms.M, ms.c
        A = np.array([
            [0, 1, 0],
            [-(rho - c**2 * kap**2), -2j * c * kap, M],
            [rho, 0, -1j * c * kap],
        ])
        got = np.sort_complex(np.linalg.eigvals(A))
        nu = simulator.modal.nu[int(np.nonzero(simulator.ns == n)[0][0])]
        want = np.sort_complex(nu)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
        mu = nu + 1j * c * kap
        assert np.max(np.abs(mu**3 + rho * mu - M * rho)) <= 1e-10 * (abs(M) * rho + abs(M) ** 3)


def test_plane_wave_gram_properties(world):
    ms, T, data, cf, simulator = world
    g = simulator.gram
    assert np.allclose(np.diag(g.entries), 2.0)
    assert np.max(np.abs(g.entries - g.entries.T)) < 1e-14
    assert g.deviation > 0.5  # the family is far from orthogonal


def test_null_control_terminal(world):
    ms, T, data, cf, simulator = world
    _, rep = simulator.run_to_T(data, cf, T, precision="mp")
    assert rep.passed
    assert all(r <= 1e-6 for r in rep.ratios.values())
    # float64 path agrees at its own accuracy
    _, repf = simulator.run_to_T(data, cf, T)
    assert all(r <= 1e-6 for r in repf.ratios.values())


@settings(max_examples=12)
@given(sigma0=st.floats(0.0, 6.0), sigma1=st.floats(0.0, 6.0))
def test_terminal_ratios_use_the_configured_sigma(world, sigma0, sigma1):
    # uncontrolled and with T ~ 0 the terminal xi is y0, so its norm is at
    # most the data norm taken at the simulator's own weights
    ms, _, data, _, _ = world
    simulator = sim.GalerkinSimulator(ms, OMEGA0, sigma_weights=(sigma0, sigma1, 1.0))
    _, report = simulator.run_to_T(data, None, 1e-9)
    assert report.data_norm == data.weighted_norm(sigma0, sigma1)
    assert report.ratios["xi"] <= 1.0, report.ratios


def test_double_double_terminal_check(world):
    # at M = 0.5 the synthesis and the terminal check run in double-double,
    # and the terminal state sits twenty digits below the data, far under
    # the 1e-6 tolerance
    ms, T, data, cf, simulator = world
    assert cf.gram_condition["arithmetic"] == "dd"
    _, rep = simulator.run_to_T(data, cf, T, precision="mp")
    assert rep.arithmetic == "dd" and rep.passed
    assert all(r <= 1e-20 for r in rep.ratios.values()), rep.ratios


@pytest.mark.parametrize("N, seed", [(8, 0), (16, 0), (16, 5)], ids=["8", "16", "16-seed5"])
def test_double_double_terminal_check_at_strong_memory(N, seed):
    # at M = 2 the double-double solve and its terminal check stand in for
    # mpmath: the check on the same coefficients evaluated in mpmath agrees
    # to 1e-3 of the terminal tolerance, and both pass (at N = 16, seed 5
    # the solve scaled by rho instead of the Gram's diagonal read 4.7e-6)
    tol = 1e-6
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, N), 2.0, 1.0, N)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    data = ctl.random_initial_data(ms, seed=seed)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), ctl.assemble_gram(ms, OMEGA0, T), terminal_tol=tol)
    assert cf.arithmetic == "dd"
    simulator = sim.GalerkinSimulator(ms, OMEGA0)
    data_norm = data.weighted_norm()
    got = simulator._terminal_norms_mp(data, cf, T)
    want = simulator._terminal_norms_mp(data, dataclasses.replace(cf, a_hp=dd.to_mp(cf.a_hp)), T)
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-3 * tol * data_norm, key
        assert max(got[key], want[key]) <= tol * data_norm, key


@functools.cache
def _table6():
    return build_eigenvalue_table(0.75, 6)


def _advance_by_mode(modal, X, t, dt, forcing):
    """``simulate._advance`` with the Duhamel sums taken one mode at a time:
    the reference for its one contraction over (mode, branch, control mode)."""
    e_nu, e_lam = ctl._exp(modal.nu * dt), ctl._exp(-forcing.lam * dt)
    rel, e_rel = modal.nu - forcing.shift[:, None], ctl._exp(forcing.shift * dt)[:, None] / e_nu
    at_t = forcing.S * (forcing.a * ctl._exp(-forcing.lam * t) / 2)
    duhamel = np.stack([
        (at_t[i] * ctl._time_factor(rel[i][:, None] + forcing.lam, dt, e_rel[i][:, None] * e_lam)).sum(axis=1)
        for i in range(len(rel))
    ]) * ctl._exp(forcing.shift * t)[:, None]
    coords = ((modal.W * X[:, None, :]).sum(axis=2) + duhamel) * e_nu / modal.wv
    return (modal.V * coords[:, None, :]).sum(axis=2)


def _advance_pairs(N, c, t, dt, arithmetic, seed):
    # _advance and the per-mode reference from a random state under a random
    # control, with the synthesized support and the frozen one (shift -i c kappa)
    ms = build_moving_spectrum(_table6(), 0.5, c, N)
    setup = sim._ModalSetup(ms if arithmetic == "float64" else hp.MpSpectrum(ms, dps=40), arithmetic,
                            ms.mode_indices())
    rng = np.random.default_rng(seed)
    modes = list(ms.modes())
    a = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    X = dd.lift(rng.standard_normal((2 * N, 3)) + 1j * rng.standard_normal((2 * N, 3)), arithmetic)
    t, dt = dd.lift(t, arithmetic), dd.lift(dt, arithmetic)
    synthesized = setup.forcing(modes, a, OMEGA0)
    for forcing in (synthesized, synthesized._replace(shift=-setup.ick)):
        yield sim._advance(setup.modal, X, t, dt, forcing), _advance_by_mode(setup.modal, X, t, dt, forcing)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 6), c=st.floats(0.2, 1.8), negative=st.booleans(),
    t=st.floats(0.1, 20.0), dt=st.one_of(st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0)),
    arithmetic=st.sampled_from(["float64", "dd"]), seed=st.integers(0, 2**16),
)
def test_advance_matches_the_per_mode_loop(N, c, negative, t, dt, arithmetic, seed):
    # bit for bit in float64, and to 1e-28 relative in double-double, at a
    # nonzero start time so the frozen support's phase e^{shift t} is exercised
    assume(abs(c - _table6().gap_gamma) > 1e-6)
    for got, want in _advance_pairs(N, -c if negative else c, t, dt, arithmetic, seed):
        if arithmetic == "float64":
            assert np.array_equal(got, want)
        else:
            scale = np.max(np.abs(dd.leading(want)))
            assert np.max(np.abs(dd.leading(got - want))) <= 1e-28 * scale


def test_advance_matches_the_per_mode_loop_in_mpmath():
    with mp.workdps(40):
        for got, want in _advance_pairs(3, 1.0, 1.7, 2.3, "mp", 5):
            scale = max(abs(v) for v in want.ravel())
            assert max(abs(v) for v in (got - want).ravel()) <= mp.mpf(10) ** -35 * scale


def test_double_double_run_takes_space_exponentials_per_level(world, monkeypatch):
    # the three branches of a level n share kappa_n, and e^{-i kappa x} is the
    # conjugate of e^{i kappa x}: at N = 8 (16 levels, 48 modes) the dd Gram
    # takes 2 x 16 + 48 = 80 mpmath exponentials and the terminal check 144
    # (2 x 16 space, 48 each for e^{nu dt} and e^{-lam dt}, 16 for e^{shift dt};
    # e^{-lam t} and e^{shift t} are skipped at t = 0), 224 in all where one
    # exponential per mode and sign took 144 + 304 = 448
    ms, T, data, cf, simulator = world
    assert cf.arithmetic == "dd" and len(cf.modes) == 48
    exp, counted = dd._MP_EXP, []
    monkeypatch.setattr(dd, "_MP_EXP", lambda x: counted.append(np.size(x)) or exp(x))
    with mp.workdps(cf.spec_mp.dps):
        ctl._assemble_gram_mp(cf.spec_mp, cf.modes, OMEGA0, T, "dd")
    gram = sum(counted)
    simulator._terminal_norms_mp(data, cf, T)
    assert (gram, sum(counted)) == (80, 224)


def _random_control(ms, T, rng):
    # random coefficients on every mode, for identities that hold for any control: no synthesis
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    return ctl.ControlField(
        modes=modes, a=rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes)), omega0=OMEGA0,
        T=T, residual=np.nan, rhs_norm=np.nan, norm=np.nan, method="random", gram_condition={}, ms=ms,
    )


@settings(max_examples=40)
@given(
    c=st.floats(0.5, 1.4).flatmap(lambda v: st.sampled_from([v, -v])),
    frac=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_forcing_is_the_projection_of_the_control(c, frac, seed):
    # the synthesized forcing at time t is the factor-1/2 projection of the control on
    # omega0, by quadrature; the frozen support's forcing (shift -i c kappa) is that
    # projection times e^{-i kappa c t}, the phase between the frames
    ms = build_moving_spectrum(_table6(), 0.5, c, 6)
    T = 1.05 * horizon_threshold(c, ms.gamma)
    t = frac * T
    control = _random_control(ms, T, np.random.default_rng(seed))
    simulator = sim.GalerkinSimulator(ms, OMEGA0)
    xg, xw = np.polynomial.legendre.leggauss(48)
    x = 0.5 * (OMEGA0[1] - OMEGA0[0]) * (xg + 1.0) + OMEGA0[0]
    xw = 0.5 * (OMEGA0[1] - OMEGA0[0]) * xw
    kappa = simulator.kappa
    want = 0.5 * np.exp(-1j * kappa[:, None] * x[None, :]) @ (xw * control.evaluate(np.array([t]), x)[0])
    synthesized = simulator.bind_forcing(control)
    frozen = synthesized._replace(shift=-1j * c * kappa)
    for forcing, phase in ((synthesized, 1.0), (frozen, np.exp(-1j * kappa * c * t))):
        got = (forcing.amps * np.exp(forcing.expos * t)).sum(axis=1)
        assert np.max(np.abs(got - phase * want)) <= 1e-10 * np.max(np.abs(want)), forcing is frozen


def test_duality_identity(world):
    ms, T, data, cf, simulator = world
    rng = np.random.default_rng(77)
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    for _ in range(10):
        coeffs = {mk: complex(rng.standard_normal(), rng.standard_normal()) for mk in modes}
        res = sim.verify_duality(data, cf, coeffs, T, ms)
        assert res <= 1e-5, res


def test_batched_duality_matches_single_calls(world):
    # one routine for every coefficient set; the residuals are already
    # relative to the pairing's size, so 1e-13 is 1e-13 of it
    ms, T, data, cf, simulator = world
    rng = np.random.default_rng(78)
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    sets = [{mk: complex(rng.standard_normal(), rng.standard_normal()) for mk in modes} for _ in range(5)]
    sets.append({(2, 3): 1.0})
    batched = sim.duality_residuals(data, cf, sets, T, ms)
    single = np.array([sim.verify_duality(data, cf, coeffs, T, ms) for coeffs in sets])
    assert batched.shape == (len(sets),)
    assert np.max(np.abs(batched - single)) <= 1e-13, (batched, single)


def test_duality_single_mode_matches_moment(world):
    # adjoint data on a single eigenvector reduces the identity to one moment
    ms, T, data, cf, simulator = world
    msys = ctl.assemble_moments(data, ms)
    mk = (2, 3)
    lam = ms.eigenvalue(*mk)
    res = sim.verify_duality(data, cf, {mk: 1.0}, T, ms)
    assert res <= 1e-6
    # and the left side equals e^{conj(lam) T} times the moment value
    qm = ctl.quadrature_moments(cf, ms)
    i = cf.modes.index(mk)
    lhs_expected = np.exp(np.conj(lam) * T) * msys.b[i]
    assert qm[i] == pytest.approx(msys.b[i], rel=1e-7)
    assert np.isfinite(lhs_expected)


def _duality_reference(data, control, adjoint_coeffs, T, ms, nt=480, nx=48):
    # the same identity with fresh nodes and three-operand einsums
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    bcoef = np.array([adjoint_coeffs.get(mk, 0.0) for mk in modes], dtype=complex)
    lam = np.array([ms.eigenvalue(n, j) for n, j in modes])
    kap = np.array([ms.kappa(n) for n, _ in modes])
    tg, tw = gauss_oracle.gauss_legendre(nt)
    t, tw = 0.5 * T * (tg + 1.0), 0.5 * T * tw
    xg, xw = gauss_oracle.gauss_legendre(nx)
    x0, x1 = control.omega0
    x, xw = 0.5 * (x1 - x0) * (xg + 1.0) + x0, 0.5 * (x1 - x0) * xw
    lam_u = np.array([ms.eigenvalue(n, j) for n, j in control.modes])
    kap_u = np.array([ms.kappa(n) for n, _ in control.modes])
    u = np.einsum("m,mt,mx->tx", control.a, np.exp(-lam_u[:, None] * t), np.exp(1j * kap_u[:, None] * x))
    phi = np.einsum("m,mt,mx->tx", bcoef, np.exp(lam[:, None] * (T - t)), np.exp(1j * kap[:, None] * x))
    lhs = complex(np.einsum("tx,t,x->", u * np.conj(phi), tw, xw))
    rhs = 0.0
    for n in ms.mode_indices():
        y0n, y1n = data.coeff(n)
        sel = [k for k, (nn, _) in enumerate(modes) if nn == n]
        phi_n0 = np.sum(bcoef[sel] * np.exp(lam[sel] * T))
        phi_t_n0 = np.sum(bcoef[sel] * (-lam[sel]) * np.exp(lam[sel] * T))
        rhs += 2.0 * (y0n * np.conj(phi_t_n0) - (y1n + 1j * ms.c * ms.kappa(n) * y0n) * np.conj(phi_n0))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


@pytest.mark.parametrize("M, c, N", [(0.5, 1.0, 8), (2.0, 1.0, 4), (-0.5, -1.4, 3), (0.5, 0.6, 1)])
def test_duality_matches_einsum_reference(M, c, N):
    # with the synthesized control the residual is round-off; with random
    # control coefficients the identity fails at O(1), so agreement there
    # checks the quadrature itself
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, N), M, c, N)
    T = 1.05 * horizon_threshold(c, ms.gamma)
    data = ctl.random_initial_data(ms, seed=3)
    cf = ctl.synthesize_control(ctl.assemble_moments(data, ms), ctl.assemble_gram(ms, OMEGA0, T))
    rng = np.random.default_rng(5)
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    coeffs = {mk: complex(rng.standard_normal(), rng.standard_normal()) for mk in modes}
    wrong = ctl.ControlField(
        modes=cf.modes, a=cf.a * (1 + 0.5 * rng.standard_normal(len(cf.a))), omega0=cf.omega0, T=cf.T,
        residual=np.nan, rhs_norm=cf.rhs_norm, norm=np.nan, method="perturbed", gram_condition={}, ms=ms,
    )
    for control in (cf, wrong):
        got = sim.verify_duality(data, control, coeffs, T, ms)
        want = _duality_reference(data, control, coeffs, T, ms)
        assert abs(got - want) <= 1e-12 * max(want, 1.0)
    assert want > 1e-3


def test_duality_rejects_a_control_on_other_modes(world):
    # the pairing indexes the control's moments by the adjoint's modes
    ms, T, data, cf, simulator = world
    modes = list(ms.modes())
    coeffs = {mk: 1.0 for mk in modes}
    for order in (np.arange(len(modes) - 3), np.roll(np.arange(len(modes)), 1)):
        other = ctl.ControlField(
            modes=[modes[i] for i in order], a=cf.a[order], omega0=cf.omega0, T=cf.T, residual=cf.residual,
            rhs_norm=cf.rhs_norm, norm=cf.norm, method=cf.method, gram_condition={}, ms=ms,
        )
        with pytest.raises(ValueError, match="modes"):
            sim.verify_duality(data, other, coeffs, T, ms)
        with pytest.raises(ValueError, match="modes"):
            sim.duality_residuals(data, other, [coeffs], T, ms)


def test_energy_envelope_report(world):
    # uncontrolled runs stay under C (1 + C|M| e^{C|M| t}) times the data norm
    ms, T, data, cf, simulator = world
    s0 = simulator.initial_state(data)
    zero_forcing = simulator.bind_forcing(None)
    base = sum(simulator.weighted_norms(s0).values())
    times = np.linspace(0.5, T, 12)
    sups = []
    for tv in times:
        st = simulator.step_exact(s0, zero_forcing, float(tv))
        sups.append(sum(simulator.weighted_norms(st).values()))
    M = abs(ms.M)
    fit = None
    for C in np.linspace(0.1, 50, 400):
        env = C * (1 + C * M * np.exp(C * M * times)) * base
        if np.all(np.array(sups) <= env):
            fit = C
            break
    assert fit is not None and fit < 50.0


def test_terminal_report_json(tmp_path, world):
    ms, T, data, cf, simulator = world
    _, rep = simulator.run_to_T(data, cf, T, n_checkpoints=6)
    rep.to_json(tmp_path / "terminal.json")
    rep.trajectory_csv(tmp_path / "trajectory.csv")
    import json

    d = json.loads((tmp_path / "terminal.json").read_text())
    assert "ratios" in d and d["precision"] == "float64" and d["gram_deviation"] > 0.5
    assert d["arithmetic"] is None
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,norm_xi,norm_xi_dot,norm_zeta"
    assert len(lines) == 7


def test_discretized_backend_control_nulls_state():
    # synthesis runs on the configured Galerkin spectrum, not on the
    # closed form, so the float64 quadrature moments, float64 propagation
    # and the mp terminal check all see the same system
    table = build_eigenvalue_table(0.75, 8, backend="discretized")
    closed = build_eigenvalue_table(0.75, 8)
    assert np.max(np.abs(table.rho / closed.rho - 1)) > 1e-3
    ms = build_moving_spectrum(table, 0.5, 1.0, 8)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    data = ctl.random_initial_data(ms, seed=3)
    msys = ctl.assemble_moments(data, ms)
    cf = ctl.synthesize_control(msys, ctl.assemble_gram(ms, OMEGA0, T))
    qm = ctl.quadrature_moments(cf, ms)
    assert np.linalg.norm(qm - msys.b) <= 1e-6 * np.linalg.norm(msys.b)
    simulator = sim.GalerkinSimulator(ms, OMEGA0)
    for precision in ("float64", "mp"):
        _, report = simulator.run_to_T(data, cf, T, tol_rel=1e-6, precision=precision)
        assert report.passed, (precision, report.ratios)


@pytest.mark.parametrize("N", [8, 32])
def test_duality_nodes_follow_the_fastest_period(monkeypatch, N):
    # three Gauss nodes per period of the fastest integrand, never fewer than
    # 480: the floor at N = 8, about 3 x 454 at N = 32
    ms = build_moving_spectrum(build_eigenvalue_table(0.75, N), 0.5, 1.0, N)
    T = 1.05 * horizon_threshold(1.0, ms.gamma)
    modes = [(n, j) for n in ms.mode_indices() for j in (1, 2, 3)]
    rng = np.random.default_rng(N)
    control = _random_control(ms, T, rng)
    data = ctl.random_initial_data(ms, seed=N)
    coeffs = {mk: complex(rng.standard_normal(), rng.standard_normal()) for mk in modes}
    counts = []
    gauss = ctl.gauss_interval
    monkeypatch.setattr(ctl, "gauss_interval", lambda a, b, n: counts.append(n) or gauss(a, b, n))
    res = sim.verify_duality(data, control, coeffs, T, ms)
    nt = counts[0]
    fastest = max(abs(ms.eigenvalue(n, j).imag) for n, j in modes)
    assert nt == max(480, math.ceil(3.0 * T * 2.0 * fastest / (2.0 * math.pi)))
    assert (nt == 480) == (N == 8)
    # the default is resolved: doubling the nodes moves nothing
    assert abs(res - sim.verify_duality(data, control, coeffs, T, ms, nt=2 * nt)) <= 1e-10 * max(res, 1.0)
