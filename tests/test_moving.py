"""Moving-frame spectrum: structure, critical velocities, gaps, frame bounds."""

import math

import numpy as np
import pytest

from memwave import moving
from memwave.fractional import build_eigenvalue_table


@pytest.fixture(scope="module")
def table():
    return build_eigenvalue_table(0.75, 64)


def test_requires_s_above_half():
    t = build_eigenvalue_table(0.45, 8)
    with pytest.raises(ValueError):
        moving.build_moving_spectrum(t, 0.5, 1.0, 8)


def test_forbidden_velocities_rejected(table):
    for c in (0.0, table.gap_gamma, -table.gap_gamma, table.gap_gamma + 1e-10):
        with pytest.raises(ValueError):
            moving.build_moving_spectrum(table, 0.5, c, 8)


def test_lambda_formula_and_real_parts(table):
    ms = moving.build_moving_spectrum(table, 1.0, 1.0, 32)
    for n in (-7, 3, 32):
        mu1 = ms.mu_of(n, 1).real
        assert ms.eigenvalue(n, 1) == pytest.approx(mu1 + 1j * ms.c * ms.kappa(n))
        # real parts per branch: mu1 and -mu1/2
        assert ms.eigenvalue(n, 2).real == pytest.approx(-mu1 / 2)
        assert ms.eigenvalue(n, 3).real == pytest.approx(-mu1 / 2)
        for j in (1, 2, 3):
            assert abs(ms.eigenvalue(n, j).real) < abs(ms.M)


def test_conjugate_symmetry_exact(table):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 16)
    for n in ms.mode_indices():
        assert ms.eigenvalue(-n, 3) == np.conj(ms.eigenvalue(n, 2))


def test_eigenvector_third_component_identity(table):
    # 1/(lam - i sgn(n) c kappa) equals 1/mu to high accuracy
    ms = moving.build_moving_spectrum(table, 0.8, 1.3, 16)
    for n in (-16, -1, 5):
        for j in (1, 2, 3):
            lam = ms.eigenvalue(n, j)
            direct = 1.0 / (lam - 1j * math.copysign(1, n) * ms.c * abs(ms.kappa(n)))
            assert abs(direct - 1.0 / ms.mu_of(n, j)) <= 1e-9 * abs(direct)


def test_critical_velocity_collision(table):
    vels = moving.critical_velocities(table, 0.5, range(1, 9))
    n_c, v = vels[1]  # n = 2
    ms = moving.build_moving_spectrum(table, 0.5, v, 16)
    assert ms.critical is not None and ms.critical.n_c == n_c
    # exact double eigenvalue before the relabeling
    assert abs(ms.eigenvalue(-n_c, 2) - ms.eigenvalue(n_c, 3)) <= 1e-9
    # the stored value is moved off the collision by the convention
    conv = ms.lam(-n_c, 2)
    assert conv.real == pytest.approx(ms.mu_of(n_c, 1).real / 2)
    assert conv.imag == pytest.approx(ms.eigenvalue(-n_c, 2).imag - 0.5)
    # uniqueness of the matching index in range
    hits = [n for n, u in vels if abs(v - u) < moving.VELOCITY_TOL]
    assert hits == [n_c]


def test_critical_velocities_decreasing_toward_limit(table):
    # v_n = sqrt(3 (mu1/(2 kappa))^2 + rho^(1 - 1/s)) decreases with n
    vels = [v for _, v in moving.critical_velocities(table, 0.5, range(1, 33))]
    assert all(a > b for a, b in zip(vels, vels[1:]))
    # direct formula evaluation cross-check
    s = table.s
    from memwave.cubic import solve_cubic

    n = 5
    t = solve_cubic(table.rho_of(n), 0.5)
    kappa = table.rho_of(n) ** (1 / (2 * s))
    want = math.sqrt(3 * (t.mu1 / (2 * kappa)) ** 2 + table.rho_of(n) ** (1 - 1 / s))
    assert vels[n - 1] == pytest.approx(want, rel=1e-12)


def test_gap_report_clauses_pass(table):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 32)
    rep = moving.gap_diagnostics(ms)
    assert rep.passed, [c.name for c in rep.clauses if c.passed is False]
    cl = rep.clause("branch1_separation")
    assert cl.measured["min_distance"] >= cl.bound - 1e-9
    assert rep.clause("pair_coverage").passed
    # self distances never enter the minima
    assert rep.clause("branch23_finite_minimum").measured["upsilon"] > 0


def test_pair_coverage_fails_on_coinciding_branch23_pair(table, monkeypatch):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 8)
    true = ms.eigenvalue
    monkeypatch.setattr(ms, "eigenvalue", lambda n, j: true(3, 2) if (n, j) == (2, 3) else true(n, j))
    rep = moving.gap_diagnostics(ms)
    cl = rep.clause("pair_coverage")
    assert cl.passed is False
    assert cl.measured["covered"] == cl.measured["total_pairs"] - 1
    assert not rep.passed


def test_gap_report_negative_velocity_matches_positive(table):
    ms_p = moving.build_moving_spectrum(table, 0.5, 1.1, 16)
    ms_m = moving.build_moving_spectrum(table, 0.5, -1.1, 16)
    rp, rm = moving.gap_diagnostics(ms_p), moving.gap_diagnostics(ms_m)
    assert rm.passed == rp.passed
    a = rp.clause("branch23_finite_minimum").measured["upsilon"]
    b = rm.clause("branch23_finite_minimum").measured["upsilon"]
    assert a == pytest.approx(b, rel=1e-12)


def test_near_resonant_pairing_present(table):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 48)
    rep = moving.gap_diagnostics(ms)
    assert rep.pair_map
    low = rep.clause("near_resonant_lower")
    assert low.measured["delta_prime"] > 0
    up = rep.clause("near_resonant_upper")
    assert up.passed


def test_gap_report_json(tmp_path, table):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 12)
    rep = moving.gap_diagnostics(ms)
    path = tmp_path / "gaps.json"
    rep.to_json(path)
    import json

    data = json.loads(path.read_text())
    assert data["N"] == 12 and "clauses" in data


def test_frame_bounds_sandwich(table):
    ms = moving.build_moving_spectrum(table, 1.0, 1.0, 8)
    rep = moving.frame_bounds(ms, sigma=0.0, trials=150, seed=3)
    assert rep.passed
    assert rep.sandwich_failures == 0
    assert rep.det_min > 0
    assert 0 < rep.a1_hat < rep.a2_hat
    assert not rep.degenerate
    # the reference limit matrix is reported, not asserted
    assert rep.b_tilde_distance >= 0 and np.isfinite(rep.b_tilde_distance)


def test_frame_bounds_requires_trials(table):
    ms = moving.build_moving_spectrum(table, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        moving.frame_bounds(ms, trials=10)


def test_lambda_csv(tmp_path, table):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 4)
    path = tmp_path / "lam.csv"
    moving.lambda_table_to_csv(ms, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,j,re,im,nearest_distance"
    assert len(lines) == 1 + 8 * 3
