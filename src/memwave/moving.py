"""Spectrum of the memory-wave generator in the co-moving frame.

After the change of variables that freezes the control support, the modal
eigenvalues become ``lam(n, j) = mu_{|n|}^j + i*sgn(n)*c*kappa_{|n|}`` over
the index set S = {(n, j) : n nonzero integer, j in 1..3}, with
``kappa_n = rho_n^(1/(2s))``.  This module builds the truncated spectrum,
locates the critical velocities at which two branches collide, runs the
pairwise gap diagnostics the moment method rests on, and estimates the frame
bounds of the weighted eigenvector family through the per-mode 3x3 matrices.

Desk-scale caveat baked into the diagnostics: for 1/2 < s < 1 the transport
rate ``c*kappa_n ~ n`` outruns the dispersive rate ``sqrt(rho_n) ~ n^s``, so
the two branch-2/3 sequences whose imaginary parts combine both rates are
eventually monotone in the direction set by the transport term, with an
explicitly measured threshold, and the near-resonant partner of a mode is
found by direct minimization over the truncated spectrum.  The fixed-velocity
constants quoted alongside each clause are recorded for comparison.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .cubic import check_memory_coefficient, solve_cubic
from .fractional import EigenvalueTable

__all__ = [
    "VELOCITY_TOL",
    "CriticalMode",
    "MovingSpectrum",
    "build_moving_spectrum",
    "critical_velocities",
    "ClauseCheck",
    "GapReport",
    "gap_diagnostics",
    "FrameReport",
    "frame_bounds",
    "lambda_table_to_csv",
]

VELOCITY_TOL = 1e-9  # rejection tolerance around {0, +-gamma}; detection tolerance for V

BRANCHES = (1, 2, 3)


@dataclass(frozen=True)
class CriticalMode:
    n_c: int
    velocity: float
    mode: tuple  # the (n, j) whose stored value is relabeled off the collision
    lambda_conventional: complex


class MovingSpectrum:
    """Truncated moving-frame spectrum with per-mode eigenvector data.

    ``lam(n, j)`` returns the stored value, which for a critical velocity has
    the branch (-n_c, 2) relabeled off the collision; ``eigenvalue(n, j)``
    always returns the true (pre-relabel) eigenvalue.
    """

    def __init__(self, table: EigenvalueTable, M: float, c: float, N: int):
        if table.s <= 0.5:
            raise ValueError("moving spectrum requires s > 1/2 (simple eigenvalues)")
        if N > table.n_max:
            raise ValueError(f"N={N} exceeds table n_max={table.n_max}")
        self.table = table
        self.s = table.s
        self.M = check_memory_coefficient(M)
        self.c = float(c)
        self.N = int(N)
        self.gamma = float(table.gap_gamma)
        for forbidden, name in ((0.0, "0"), (self.gamma, "+gamma"), (-self.gamma, "-gamma")):
            if abs(self.c - forbidden) < VELOCITY_TOL:
                raise ValueError(f"velocity c={c} is within {VELOCITY_TOL} of the excluded value {name}")

        self.kappa_pos = table.rho_root[:N]          # kappa_n for n >= 1
        self.rho_pos = table.rho[:N]
        triples = [solve_cubic(r, self.M, n=i + 1) for i, r in enumerate(self.rho_pos)]
        self.mu = {
            1: np.array([t.mu1 for t in triples], dtype=complex),
            2: np.array([t.mu2 for t in triples]),
            3: np.array([t.mu3 for t in triples]),
        }
        self.beta = self.mu[2].imag.copy()           # sqrt(3 (mu1/2)^2 + rho)

        self.critical: CriticalMode | None = None
        vels = critical_velocities(table, M, range(1, N + 1))
        hits = [(n, v) for n, v in vels if abs(abs(self.c) - v) < VELOCITY_TOL]
        if hits:
            if len(hits) > 1:
                raise RuntimeError(f"velocity {c} matches several critical values: {hits}")
            n_c, v = hits[0]
            i = n_c - 1
            # collision lam(-n_c,2) = lam(n_c,3) (for c > 0); the (-n_c, 2)
            # branch is relabeled: imaginary part shifted down by 1/2 and the
            # real part flipped to +mu1/2.  For c < 0 the colliding pair and
            # the relabeled value are the complex-conjugate mirror.
            mu1 = float(self.mu[1][i].real)
            val = complex(mu1 / 2.0, self.beta[i] - abs(self.c) * self.kappa_pos[i] - 0.5)
            if self.c > 0:
                mode, lam_new = (-n_c, 2), val
            else:
                mode, lam_new = (-n_c, 3), np.conj(val)
            self.critical = CriticalMode(n_c=n_c, velocity=v, mode=mode, lambda_conventional=complex(lam_new))

    # -- accessors ---------------------------------------------------------
    def kappa(self, n: int) -> float:
        """Signed plane-wave frequency kappa_n = sgn(n) * rho_{|n|}^{1/(2s)}."""
        self._check_mode(n)
        return math.copysign(1.0, n) * float(self.kappa_pos[abs(n) - 1])

    def rho(self, n: int) -> float:
        self._check_mode(n)
        return float(self.rho_pos[abs(n) - 1])

    def mu_of(self, n: int, j: int) -> complex:
        self._check_mode(n, j)
        return complex(self.mu[j][abs(n) - 1])

    def eigenvalue(self, n: int, j: int) -> complex:
        """True eigenvalue mu_{|n|}^j + i sgn(n) c kappa_{|n|} (no relabeling)."""
        self._check_mode(n, j)
        return self.mu_of(n, j) + 1j * math.copysign(1.0, n) * self.c * self.kappa_pos[abs(n) - 1]

    def lam(self, n: int, j: int) -> complex:
        if self.critical is not None and (n, j) == self.critical.mode:
            return self.critical.lambda_conventional
        return self.eigenvalue(n, j)

    def modes(self):
        for n in self.mode_indices():
            for j in BRANCHES:
                yield (n, j)

    def mode_indices(self):
        return [n for n in range(-self.N, self.N + 1) if n != 0]

    def _check_mode(self, n: int, j: int = 1):
        if n == 0 or abs(n) > self.N:
            raise IndexError(f"mode n={n} outside the truncation |n| <= {self.N}")
        if j not in BRANCHES:
            raise IndexError(f"branch j={j} not in {BRANCHES}")


def build_moving_spectrum(table: EigenvalueTable, M: float, c: float, N: int) -> MovingSpectrum:
    return MovingSpectrum(table, M, c, N)


def critical_velocities(table: EigenvalueTable, M: float, n_range) -> list[tuple[int, float]]:
    """Velocities v_n = beta_n / kappa_n at which lam(-n, 2) collides with lam(n, 3)."""
    out = []
    for n in n_range:
        rho = table.rho_of(n)
        t = solve_cubic(rho, M, n=n)
        kappa = rho ** (1.0 / (2.0 * table.s))
        out.append((n, float(t.mu2.imag / kappa)))
    return out


# --------------------------------------------------------------------------
# gap diagnostics
# --------------------------------------------------------------------------


@dataclass
class ClauseCheck:
    name: str
    passed: bool | None          # None = recorded only, not asserted
    measured: dict
    bound: float | None = None
    note: str = ""


@dataclass
class GapReport:
    s: float
    M: float
    c: float
    gamma: float
    N: int
    epsilon: float
    N_eps: int | None
    clauses: list[ClauseCheck]
    pair_map: dict
    passed: bool

    def clause(self, name: str) -> ClauseCheck:
        for cl in self.clauses:
            if cl.name == name:
                return cl
        raise KeyError(name)

    def to_json(self, path) -> None:
        payload = asdict(self)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def default_epsilon(c: float, gamma: float) -> float:
    """Keeps every clause's lower bound strictly positive at desk scale."""
    return min(abs(c) * gamma, abs(1.0 - abs(c) / gamma) * gamma) / 10.0


def gap_diagnostics(ms: MovingSpectrum, epsilon: float | None = None) -> GapReport:
    """Clause-by-clause pairwise separation audit of the truncated spectrum.

    Asserted clauses are the ones provable for 1/2 < s < 1 at finite
    truncation; constants stated for the dispersion-dominated case are
    recorded next to their measured counterparts without being asserted.
    """
    c = abs(ms.c)  # the spectrum for -c is the mirror image
    gamma = ms.gamma
    eps = default_epsilon(c, gamma) if epsilon is None else float(epsilon)
    N = ms.N
    ns = ms.mode_indices()
    clauses: list[ClauseCheck] = []

    # a sign flip of c conjugates the spectrum branch-wise
    # (eigenvalue_{-c}(n, j) = conj(eigenvalue_c(n, j_conj))), so the
    # diagnostics work with the |c| spectrum throughout
    lam = {(n, j): ms.eigenvalue(n, j) if ms.c >= 0 else np.conj(ms.eigenvalue(n, j_conj(j)))
           for n in ns for j in BRANCHES}
    kappa = {n: abs(ms.kappa(n)) * math.copysign(1.0, n) for n in ns}
    mu1_abs = np.abs(ms.mu[1].real)

    # ---- branch 1 against branches 2, 3 ----------------------------------
    d_min = min(
        abs(lam[(n, 1)] - lam[(m, k)]) for n in ns for m in ns for k in (2, 3)
    )
    bound_1 = 3.0 * abs(ms.M) / (2.0 * ms.M**2 / mu1_abs[0] + 2.0)
    clauses.append(ClauseCheck(
        name="branch1_separation", passed=bool(d_min >= bound_1 - 1e-9),
        measured={"min_distance": d_min}, bound=bound_1,
        note="real parts of branch 1 and branches 2,3 have opposite signs",
    ))

    # ---- branch 1 internal ------------------------------------------------
    worst_margin = np.inf
    min_d11 = np.inf
    for i, n in enumerate(ns):
        for m in ns[i + 1 :]:
            d = abs(lam[(n, 1)] - lam[(m, 1)])
            b = c * abs(kappa[n] - kappa[m])
            worst_margin = min(worst_margin, d - b)
            min_d11 = min(min_d11, d)
    clauses.append(ClauseCheck(
        name="branch1_internal_gap", passed=bool(worst_margin >= -1e-12),
        measured={"min_distance": float(min_d11), "worst_margin": float(worst_margin)},
        bound=0.0, note="distance dominated by c*|kappa_n - kappa_m|",
    ))

    # ---- branches 2,3: finite-truncation minimum --------------------------
    modes23 = [(n, j) for n in ns for j in (2, 3)]
    upsilon = np.inf
    upsilon_pair = None
    crit_pair = None
    if ms.critical is not None:
        crit_pair = frozenset({(-ms.critical.n_c, 2), (ms.critical.n_c, 3)})
    for i, a in enumerate(modes23):
        for b in modes23[i + 1 :]:
            if crit_pair is not None and frozenset({a, b}) == crit_pair:
                continue
            d = abs(lam[a] - lam[b])
            if d < upsilon:
                upsilon, upsilon_pair = d, (a, b)
    clauses.append(ClauseCheck(
        name="branch23_finite_minimum", passed=bool(upsilon > 0),
        measured={"upsilon": float(upsilon), "pair": list(map(list, upsilon_pair))},
        bound=0.0,
        note="critical collision excluded" if crit_pair else "",
    ))

    # ---- critical velocity double eigenvalue ------------------------------
    if ms.critical is not None:
        n_c = ms.critical.n_c
        d_crit = abs(ms.eigenvalue(-n_c, 2) - ms.eigenvalue(n_c, 3))
        vels = critical_velocities(ms.table, ms.M, range(1, N + 1))
        hits = [n for n, v in vels if abs(c - v) < VELOCITY_TOL]
        clauses.append(ClauseCheck(
            name="critical_double_eigenvalue",
            passed=bool(d_crit <= 1e-9 and hits == [n_c]),
            measured={"n_c": n_c, "collision_distance": float(d_crit), "matches": hits},
            bound=1e-9,
        ))
    else:
        clauses.append(ClauseCheck(
            name="critical_double_eigenvalue", passed=None,
            measured={}, note="velocity not critical; nothing to check",
        ))

    # ---- monotone branches with transport and dispersion aligned ----------
    im_2_pos = np.array([lam[(n, 2)].imag for n in range(1, N + 1)])
    im_3_neg = np.array([lam[(-n, 3)].imag for n in range(1, N + 1)])
    lower = (1.0 + c) * math.sqrt(ms.rho_pos[0])
    clauses.append(ClauseCheck(
        name="aligned_branches_monotone",
        passed=bool(
            np.all(np.diff(im_2_pos) > 0) and np.all(im_2_pos >= lower - 1e-12)
            and np.all(np.diff(im_3_neg) < 0) and np.all(im_3_neg <= -lower + 1e-12)
        ),
        measured={
            "min_im_lam2_plus": float(im_2_pos.min()),
            "max_im_lam3_minus": float(im_3_neg.max()),
        },
        bound=lower,
        note="Im lam(n,2) increasing above (1+c) sqrt(rho_1); mirror branch decreasing",
    ))

    # ---- drifting branches: empirical monotonicity threshold --------------
    im_2_neg = np.array([lam[(-n, 2)].imag for n in range(1, N + 1)])   # beta - c kappa
    inc = np.diff(im_2_neg)
    tail_dir = math.copysign(1.0, inc[-1])
    wrong = np.nonzero(np.sign(inc) != tail_dir)[0]
    n_star = int(wrong[-1]) + 2 if wrong.size else 1
    tail_monotone = bool(n_star < N)
    direction = "decreasing" if tail_dir < 0 else "increasing"
    clauses.append(ClauseCheck(
        name="drifting_branches_eventually_monotone",
        passed=tail_monotone,
        measured={
            "direction": direction,
            "threshold": n_star,
            "expected_direction_fractional": "decreasing",
            "sup": float(im_2_neg.max()),
            "fixed_velocity_interval_bound": (1.0 - c / gamma) * math.sqrt(ms.rho_pos[0]),
            "fixed_velocity_claim_matches": bool(
                direction == ("increasing" if c < gamma else "decreasing")
            ),
        },
        note="Im lam(-n,2) = beta_n - c kappa_n; Im lam(n,3) is its negative",
    ))

    # ---- tail spacing -----------------------------------------------------
    slack = 0.75 * ms.mu[1].real**2 / (ms.beta + np.sqrt(ms.rho_pos))
    idx_eps = np.nonzero(slack <= eps)[0]
    N_eps = int(idx_eps[0]) + 1 if idx_eps.size else None
    if N_eps is not None and N_eps < N:
        start = max(N_eps, n_star) - 1
        inc_aligned = np.diff(im_2_pos)[start:]
        ok_aligned = bool(np.all(inc_aligned >= c * gamma - eps - 1e-12))
        d_sqrt_rho = np.diff(np.sqrt(ms.rho_pos))[start:]
        inc_drift = np.abs(np.diff(im_2_neg))[start:]
        bound_drift = c * gamma - eps - d_sqrt_rho
        ok_drift = bool(np.all(inc_drift - bound_drift >= -1e-12))
        clauses.append(ClauseCheck(
            name="tail_spacing",
            passed=bool(ok_aligned and ok_drift),
            measured={
                "N_eps": N_eps,
                "min_aligned_increment": float(inc_aligned.min()),
                "aligned_bound": c * gamma - eps,
                "min_drift_increment": float(inc_drift.min()),
                "min_drift_bound": float(bound_drift.min()),
            },
            bound=c * gamma - eps,
        ))
    else:
        clauses.append(ClauseCheck(
            name="tail_spacing", passed=None, measured={"N_eps": N_eps},
            note="epsilon threshold not inside the truncation; enlarge N or epsilon",
        ))

    # ---- near-resonant pairing -------------------------------------------
    # lam(m,2) sits 2*beta_m above the branch-3 comb, so its resonant partner
    # lives several buckets higher; keep only the m whose imaginary-part
    # matching argmin over the branch-3 comb is interior to the truncation,
    # then fit over the top half of those.
    pair_map = {}
    kappa_arr = ms.kappa_pos
    qualifying = []
    for m in range((N_eps or 1), N + 1):
        im_mismatch = np.abs(c * (kappa_arr - kappa_arr[m - 1]) - (ms.beta + ms.beta[m - 1]))
        if int(np.argmin(im_mismatch)) + 1 <= N - 2:
            qualifying.append(m)
    top = qualifying[len(qualifying) // 2 :]
    prim_rows = []
    for m in top:
        target = lam[(m, 2)]
        best, best_mode = np.inf, None
        for cand in modes23:
            if cand == (m, 2):
                continue
            d = abs(target - lam[cand])
            if d < best:
                best, best_mode = d, cand
        # the fixed-velocity matching objective, minimized directly
        obj = np.abs(abs(1.0 - c / gamma) * np.sqrt(ms.rho_pos) - (1.0 + c) * math.sqrt(ms.rho_pos[m - 1]))
        n_m_obj = int(np.argmin(obj)) + 1
        pair_map[m] = {"partner": best_mode, "distance": best, "objective_partner": n_m_obj}
        prim_rows.append((m, best_mode, best))
    if prim_rows:
        dist = np.array([r[2] for r in prim_rows])
        rho_m = np.array([ms.rho_pos[r[0] - 1] for r in prim_rows])
        delta_prime = float(np.min(rho_m * dist))
        # nearest-mode distance cannot exceed the largest hole of the merged
        # branch-2/3 imaginary comb around the targets, plus the real spread
        im_all = np.sort([lam[mk].imag for mk in modes23])
        targets = np.array([lam[(m, 2)].imag for m in top])
        lo = np.searchsorted(im_all, targets.min() - 1e-9) - 2
        hi = np.searchsorted(im_all, targets.max() + 1e-9) + 2
        window = im_all[max(lo, 0) : min(hi, len(im_all))]
        upper_desk = float(np.diff(window).max()) + abs(ms.M)
        paper_const = (abs(1.0 - c) / 2.0 if c < gamma else (c - 1.0) / 2.0) + 3.0 * eps
        second = []
        for m, best_mode, best in prim_rows:
            ds = sorted(
                abs(lam[(m, 2)] - lam[cand])
                for cand in modes23 if cand not in ((m, 2), best_mode)
            )
            second.append(ds[0])
        delta_hat = float(min(second))
        paper_delta = min(2.0 - eps, abs(gamma - c) / 2.0 - 2.0 * eps)
        clauses.append(ClauseCheck(
            name="near_resonant_lower",
            passed=bool(delta_prime > 0),
            measured={
                "delta_prime": delta_prime,
                "stability_ratio": float(np.max(rho_m * dist) / max(np.min(rho_m * dist), 1e-300)),
            },
            bound=0.0, note="rho_m * nearest-distance, minimized over the top half",
        ))
        clauses.append(ClauseCheck(
            name="near_resonant_upper",
            passed=bool(np.all(dist <= upper_desk + 1e-12)),
            measured={
                "max_pair_distance": float(dist.max()),
                "fixed_velocity_constant": paper_const,
                "fixed_velocity_constant_covers": bool(dist.max() <= paper_const),
            },
            bound=upper_desk,
        ))
        clauses.append(ClauseCheck(
            name="non_paired_separation",
            passed=bool(delta_hat > 0),
            measured={
                "delta_hat": delta_hat,
                "fixed_velocity_delta": paper_delta,
                "fixed_velocity_delta_covers": bool(paper_delta <= delta_hat),
            },
            bound=0.0,
        ))
    else:
        for name in ("near_resonant_lower", "near_resonant_upper", "non_paired_separation"):
            clauses.append(ClauseCheck(
                name=name, passed=None, measured={},
                note="no mode has its resonant partner inside the truncation; enlarge N",
            ))
    # ---- coverage audit ----------------------------------------------------
    # every pair is counted only when its distance meets the bound of the
    # clause that claims it; the near-resonant pairs are branch-2/3 pairs
    total_pairs = 0
    covered = 0
    all_modes = [(n, j) for n in ns for j in BRANCHES]
    paired = {frozenset({(m, 2), rec["partner"]}) for m, rec in pair_map.items()}
    for i, a in enumerate(all_modes):
        for b in all_modes[i + 1 :]:
            total_pairs += 1
            d = abs(lam[a] - lam[b])
            if a[1] == 1 and b[1] == 1:
                ok = d - c * abs(kappa[a[0]] - kappa[b[0]]) >= -1e-12
            elif a[1] == 1 or b[1] == 1:
                ok = d >= bound_1 - 1e-9
            elif crit_pair is not None and frozenset({a, b}) == crit_pair:
                ok = d <= 1e-9
            else:
                ok = d > 0
            covered += bool(ok)
    clauses.append(ClauseCheck(
        name="pair_coverage", passed=bool(covered == total_pairs),
        measured={"total_pairs": total_pairs, "covered": covered, "near_resonant_pairs": len(paired)},
    ))

    asserted = [cl for cl in clauses if cl.passed is not None]
    return GapReport(
        s=ms.s, M=ms.M, c=ms.c, gamma=gamma, N=N, epsilon=eps, N_eps=N_eps,
        clauses=clauses, pair_map=pair_map, passed=bool(all(cl.passed for cl in asserted)),
    )


def j_conj(j: int) -> int:
    """Branch of the complex-conjugate eigenvalue: 1<->1, 2<->3."""
    return {1: 1, 2: 3, 3: 2}[j]


# --------------------------------------------------------------------------
# frame bounds
# --------------------------------------------------------------------------


@dataclass
class FrameReport:
    a1_hat: float
    a2_hat: float
    det_min: float
    trials: int
    sandwich_failures: int
    b_tilde_distance: float
    b_limit_distance: float
    degenerate: bool
    passed: bool


def frame_matrix(ms: MovingSpectrum, n: int) -> np.ndarray:
    """Per-mode 3x3 matrix with rows (1, lam/rho, 1/mu) across branches."""
    lam = [ms.eigenvalue(n, j) for j in BRANCHES]
    mu = [ms.mu_of(n, j) for j in BRANCHES]
    rho = ms.rho(n)
    return np.array([
        [1.0, 1.0, 1.0],
        [lam[0] / rho, lam[1] / rho, lam[2] / rho],
        [1.0 / mu[0], 1.0 / mu[1], 1.0 / mu[2]],
    ])


def b_tilde_reference(M: float, c: float) -> np.ndarray:
    return np.array([
        [1 + c**2 + 1.0 / M**2, 1 + c * (c + 1), 1 + c * (c - 1)],
        [1 + c * (c + 1), 1 + (c + 1) ** 2, 1 + (c + 1) * (c - 1)],
        [1 + c * (c - 1), 1 + (c + 1) * (c - 1), 1 + (c - 1) ** 2],
    ], dtype=complex)


def frame_bounds(ms: MovingSpectrum, sigma: float = 0.0, trials: int = 200, seed: int = 0) -> FrameReport:
    """Frame constants of the weighted eigenvector family.

    The weighted norm is realized on coefficients: for each mode block,
    ``|sum_j a_j Psi(n,j) * rho^sigma|^2 = 2 |B_n a|^2`` with the plane-wave
    factor contributing the 2; sigma cancels between the weight and the dual
    norm, so the sandwich constants do not depend on it.  Randomized
    coefficient trials verify the two-sided bound realized by the extreme
    eigenvalues of B_n^* B_n.
    """
    if trials < 100:
        raise ValueError("need at least 100 randomized trials")
    rng = np.random.default_rng(seed)
    ns = ms.mode_indices()
    eig_lo, eig_hi, dets = [], [], []
    mats = {}
    for n in ns:
        B = frame_matrix(ms, n)
        mats[n] = B
        H = B.conj().T @ B
        w = np.linalg.eigvalsh(H)
        eig_lo.append(w[0])
        eig_hi.append(w[-1])
        dets.append(abs(np.linalg.det(B)))
    a1, a2 = float(min(eig_lo)), float(max(eig_hi))

    failures = 0
    for _ in range(trials):
        a = rng.standard_normal((len(ns), 3)) + 1j * rng.standard_normal((len(ns), 3))
        norm2 = 2.0 * sum(np.linalg.norm(mats[n] @ a[i]) ** 2 for i, n in enumerate(ns))
        total = 2.0 * np.sum(np.abs(a) ** 2)
        if not (a1 * total - 1e-9 <= norm2 <= a2 * total + 1e-9):
            failures += 1

    B_last = mats[ns[-1]]
    H_last = B_last.conj().T @ B_last
    dist_paper = float(np.linalg.norm(H_last - b_tilde_reference(ms.M, ms.c)))
    B_prev = mats[ns[-2]] if len(ns) > 1 else B_last
    dist_emp = float(np.linalg.norm(H_last - B_prev.conj().T @ B_prev))
    degenerate = a1 < 1e-8
    return FrameReport(
        a1_hat=a1, a2_hat=a2, det_min=float(min(dets)), trials=trials,
        sandwich_failures=failures, b_tilde_distance=dist_paper,
        b_limit_distance=dist_emp, degenerate=degenerate,
        passed=bool(failures == 0 and min(dets) > 0 and not degenerate),
    )


def lambda_table_to_csv(ms: MovingSpectrum, path) -> None:
    """Columns n, j, Re, Im, and the distance to the nearest other mode."""
    modes = list(ms.modes())
    vals = {mk: ms.lam(*mk) for mk in modes}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "re", "im", "nearest_distance"])
        for mk in modes:
            others = (abs(vals[mk] - vals[other]) for other in modes if other != mk)
            writer.writerow([mk[0], mk[1], repr(vals[mk].real), repr(vals[mk].imag), repr(min(others))])
