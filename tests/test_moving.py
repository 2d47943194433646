"""Moving-frame spectrum: structure, critical velocities, gaps, frame bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# each case reads one or two eigenvalues off another mode, which breaks one clause's claim
@pytest.mark.parametrize("clause, moved, pairwise", [
    ("branch1_separation", {(2, 1): (3, 2)}, True),             # a branch-1 value on a branch-2 one
    ("branch1_internal_gap", {(2, 1): (3, 1)}, True),           # two branch-1 values coincide
    ("branch23_finite_minimum", {(2, 3): (3, 2)}, True),        # the coinciding branch-2/3 pair
    ("aligned_branches_monotone", {(1, 2): (2, 2), (2, 2): (1, 2)}, False),  # two levels swapped
])
def test_every_gap_clause_can_fail(table, monkeypatch, clause, moved, pairwise):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 8)
    assert moving.gap_diagnostics(ms).passed
    true = ms.eigenvalue
    monkeypatch.setattr(ms, "eigenvalue", lambda n, j: true(*moved.get((n, j), (n, j))))
    rep = moving.gap_diagnostics(ms)
    assert rep.clause(clause).passed is False and not rep.passed
    # a swap keeps every distance, so only the pairwise cases leave a pair uncovered
    assert rep.clause("pair_coverage").passed is not pairwise


# one branch-2 eigenvalue moved along the imaginary axis, toward its next
# level: the increment to that level falls below c gamma - eps (aligned
# branch) or below c gamma - eps - (sqrt(rho_6) - sqrt(rho_5)) (drifting
# branch), while both branches stay monotone and every other clause holds
@pytest.mark.parametrize("mode, shift", [((5, 2), 1.0), ((-5, 2), -0.5)])
def test_tail_spacing_can_fail(table, monkeypatch, mode, shift):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 8)
    assert moving.gap_diagnostics(ms).clause("tail_spacing").passed
    true = ms.eigenvalue
    monkeypatch.setattr(ms, "eigenvalue", lambda n, j: true(n, j) + (1j * shift if (n, j) == mode else 0))
    rep = moving.gap_diagnostics(ms)
    assert [cl.name for cl in rep.clauses if cl.passed is False] == ["tail_spacing"] and not rep.passed


def _failing(rep):
    return [cl.name for cl in rep.clauses if cl.passed is False]


# near_resonant_lower asserts rho_m times the distance of (m, 2) to its nearest
# branch-2/3 mode is positive.  That partner is never the critical pair, so the
# claim is implied by branch23_finite_minimum's, and the clause fails only with
# it and the coverage audit: here (m, 2) is read off its partner
def test_near_resonant_lower_can_fail(table, monkeypatch):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 16)
    rep = moving.gap_diagnostics(ms)
    assert rep.clause("near_resonant_lower").passed
    m = min(rep.pair_map)
    partner = tuple(rep.pair_map[m]["partner"])
    true = ms.eigenvalue
    monkeypatch.setattr(ms, "eigenvalue", lambda n, j: true(*partner) if (n, j) == (m, 2) else true(n, j))
    rep = moving.gap_diagnostics(ms)
    assert _failing(rep) == ["branch23_finite_minimum", "near_resonant_lower", "pair_coverage"] and not rep.passed


# the drifting branch's last level read level with the one below it: the last
# increment is then zero, so no level past the threshold is left inside the
# truncation, at every N with an increment at all (N = 2 has only this one);
# the tail-spacing audit past that threshold is then empty, not failed
@pytest.mark.parametrize("N", [2, 3, 8, 16])
def test_drifting_branches_eventually_monotone_can_fail(table, monkeypatch, N):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, N)
    assert moving.gap_diagnostics(ms).clause("drifting_branches_eventually_monotone").passed
    true = ms.eigenvalue
    level = true(-(N - 1), 2).imag
    monkeypatch.setattr(ms, "eigenvalue",
                        lambda n, j: complex(true(n, j).real, level) if (n, j) == (-N, 2) else true(n, j))
    rep = moving.gap_diagnostics(ms)
    assert rep.clause("drifting_branches_eventually_monotone").measured["threshold"] == N
    assert _failing(rep) == ["drifting_branches_eventually_monotone"] and not rep.passed
    assert rep.clause("tail_spacing").passed is None


# non_paired_separation asserts that the second-nearest branch-2/3 mode of each
# near-resonant target is at a positive distance; the nearest is no farther, so
# the clause fails only with near_resonant_lower, and with the finite minimum
# and the coverage audit: here the partner and the next branch-3 mode are both
# read off the target
def test_non_paired_separation_can_fail(table, monkeypatch):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 16)
    rep = moving.gap_diagnostics(ms)
    assert rep.clause("non_paired_separation").passed
    m = min(rep.pair_map)
    n, j = rep.pair_map[m]["partner"]
    true = ms.eigenvalue
    monkeypatch.setattr(ms, "eigenvalue", lambda *mode: true(m, 2) if mode in ((n, j), (n + 1, j)) else true(*mode))
    rep = moving.gap_diagnostics(ms)
    assert rep.clause("non_paired_separation").measured["delta_hat"] == 0
    assert _failing(rep) == ["branch23_finite_minimum", "near_resonant_lower", "non_paired_separation",
                             "pair_coverage"] and not rep.passed


# a near-resonant target moved 10 further along its own side of the real axis:
# its nearest partner is then farther than the largest hole of the imaginary
# comb plus |M|, while every imaginary part, sign and other distance bound holds
def test_near_resonant_upper_can_fail(table, monkeypatch):
    ms = moving.build_moving_spectrum(table, 0.5, 1.0, 16)
    rep = moving.gap_diagnostics(ms)
    assert rep.clause("near_resonant_upper").passed
    m = min(rep.pair_map)
    true = ms.eigenvalue
    shift = 10.0 * math.copysign(1.0, true(m, 2).real)
    monkeypatch.setattr(ms, "eigenvalue", lambda n, j: true(n, j) + (shift if (n, j) == (m, 2) else 0))
    rep = moving.gap_diagnostics(ms)
    assert _failing(rep) == ["near_resonant_upper"] and not rep.passed


# at a critical velocity the double eigenvalue is there, but the configured
# velocity no longer matches level n_c's critical velocity
def test_critical_double_eigenvalue_can_fail(table, monkeypatch):
    n_c, v = moving.critical_velocities(table, 0.5, range(1, 9))[1]
    ms = moving.build_moving_spectrum(table, 0.5, v, 8)
    rep = moving.gap_diagnostics(ms)
    assert ms.critical.n_c == n_c and rep.clause("critical_double_eigenvalue").passed and rep.passed
    true = moving.critical_velocities
    monkeypatch.setattr(moving, "critical_velocities",
                        lambda *args: [(n, u + 1e3 * moving.VELOCITY_TOL) for n, u in true(*args)])
    rep = moving.gap_diagnostics(ms)
    assert rep.clause("critical_double_eigenvalue").measured["matches"] == []
    assert _failing(rep) == ["critical_double_eigenvalue"] and not rep.passed


def _brute_force_gaps(ms):
    """The gap audit's pairwise figures by a loop over pairs with scalar abs()."""
    sign = ms.c >= 0
    lam = {(n, j): ms.eigenvalue(n, j) if sign else np.conj(ms.eigenvalue(n, moving.j_conj(j)))
           for n, j in ms.modes()}
    modes, c = list(lam), abs(ms.c)
    crit = None if ms.critical is None else {(-ms.critical.n_c, 2), (ms.critical.n_c, 3)}
    bound_1 = 3.0 * abs(ms.M) / (2.0 * ms.M**2 / abs(ms.mu_of(1, 1).real) + 2.0)
    d1 = min(abs(lam[a] - lam[b]) for a in modes for b in modes if a[1] == 1 and b[1] != 1)
    upsilon, pair, covered, d11, margin = np.inf, None, 0, np.inf, np.inf
    for i, a in enumerate(modes):
        for b in modes[i + 1 :]:
            d = abs(lam[a] - lam[b])
            if a[1] == 1 and b[1] == 1:
                gap = d - c * abs(ms.kappa(a[0]) - ms.kappa(b[0]))
                d11, margin = min(d11, d), min(margin, gap)
                covered += gap >= -1e-12
            elif a[1] == 1 or b[1] == 1:
                covered += d >= bound_1 - 1e-9
            elif crit is not None and {a, b} == crit:
                covered += d <= 1e-9
            else:
                covered += d > 0
                if d < upsilon:
                    upsilon, pair = d, [list(a), list(b)]
    return lam, d1, {"min_distance": d11, "worst_margin": margin}, upsilon, pair, covered


@settings(max_examples=40)
@given(s=st.floats(0.55, 0.95), M=st.floats(0.3, 2.5), c=st.floats(0.2, 1.5),
       signs=st.tuples(st.booleans(), st.booleans()), N=st.integers(1, 12))
def test_gap_audit_matches_a_loop_over_pairs(s, M, c, signs, N):
    ms = moving.build_moving_spectrum(build_eigenvalue_table(s, N), M * (-1) ** signs[0], c * (-1) ** signs[1], N)
    rep = moving.gap_diagnostics(ms)
    lam, d1, internal, upsilon, pair, covered = _brute_force_gaps(ms)
    assert rep.clause("branch1_separation").measured["min_distance"] == d1
    assert rep.clause("branch1_internal_gap").measured == internal
    assert rep.clause("branch23_finite_minimum").measured == {"upsilon": upsilon, "pair": pair}
    m = len(lam)
    assert rep.clause("pair_coverage").measured["total_pairs"] == m * (m - 1) // 2
    assert rep.clause("pair_coverage").measured["covered"] == covered
    modes23 = [mk for mk in lam if mk[1] != 1]
    seconds = []
    for n, rec in rep.pair_map.items():
        others = {mk: abs(lam[(n, 2)] - lam[mk]) for mk in modes23 if mk != (n, 2)}
        partner = min(others, key=others.get)   # the first nearest in mode order
        assert (rec["partner"], rec["distance"]) == (partner, others.pop(partner))
        seconds.append(min(others.values()))
    if seconds:
        assert rep.clause("non_paired_separation").measured["delta_hat"] == min(seconds)


@pytest.mark.parametrize("seed", range(3))
def test_pair_distances_equal_scalar_abs(seed):
    # bit for bit, at magnitudes from 1e-3 to 1e3; numpy's vectorised complex
    # abs differs from scalar abs() in the last bit on a good share of these
    rng = np.random.default_rng(seed)
    lam = (rng.standard_normal(120) + 1j * rng.standard_normal(120)) * 10.0 ** rng.uniform(-3, 3, 120)
    D = moving.pair_distances(lam)
    want = np.array([[abs(a - b) for b in lam.tolist()] for a in lam.tolist()])
    np.fill_diagonal(want, np.inf)
    assert np.array_equal(D, want)


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
    rep = moving.frame_bounds(ms, trials=150, seed=3)
    assert rep.passed
    assert rep.sandwich_failures == 0
    assert rep.det_min > 0
    assert 0 < rep.a1_hat < rep.a2_hat
    assert not rep.degenerate
    # the reference limit matrix is reported, not asserted
    assert rep.b_tilde_distance >= 0 and np.isfinite(rep.b_tilde_distance)


@pytest.mark.parametrize("M, N", [(0.5, 8), (0.5, 16), (2.0, 8)])
def test_frame_bounds_match_the_per_mode_loop(table, M, N):
    # the stacked blocks give the per-mode loop's constants bit for bit
    ms = moving.build_moving_spectrum(table, M, 1.0, N)
    mats = [moving.frame_matrix(ms, n) for n in ms.mode_indices()]
    eig = [np.linalg.eigvalsh(B.conj().T @ B) for B in mats]
    rep = moving.frame_bounds(ms, trials=120, seed=5)
    assert rep.a1_hat == min(w[0] for w in eig) and rep.a2_hat == max(w[-1] for w in eig)
    assert rep.det_min == min(abs(np.linalg.det(B)) for B in mats)
    H_last, H_prev = (B.conj().T @ B for B in mats[:-3:-1])
    assert rep.b_limit_distance == np.linalg.norm(H_last - H_prev)
    assert rep.sandwich_failures == 0


def test_weighted_inequality_matches_per_vector_forms():
    rng = np.random.default_rng(2)
    m = 7
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    G = X.conj().T @ X + np.eye(m)
    rho = rng.uniform(1.0, 5.0, m)
    lam = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    vectors = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
    lhs, rhs, (i, j) = moving.weighted_inequality(G, rho, lam, vectors)
    assert lhs.shape == rhs.shape == (6,)
    for k, a in enumerate(vectors):
        assert lhs[k] == pytest.approx(np.sum(np.abs(a) ** 2 / rho**2), rel=1e-14)
        assert rhs[k] == pytest.approx(np.real(np.conj(a) @ G @ a), rel=1e-12)
    # the last entry is the closest pair's least-energy unit vector
    dist = {(p, q): abs(lam[p] - lam[q]) for p in range(m) for q in range(m) if p < q}
    assert (i, j) == min(dist, key=dist.get)
    sub = G[np.ix_([i, j], [i, j])]
    assert rhs[-1] == pytest.approx(np.linalg.eigvalsh(sub)[0], rel=1e-12)


def test_frame_bounds_can_fail(table, monkeypatch):
    # with both frame constants shrunk tenfold the random trials leave the sandwich
    ms = moving.build_moving_spectrum(table, 1.0, 1.0, 8)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: 0.1 * eigvalsh(H))
    rep = moving.frame_bounds(ms, trials=150, seed=3)
    assert rep.det_min > 0 and not rep.degenerate
    assert not rep.passed and rep.sandwich_failures > 0


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
