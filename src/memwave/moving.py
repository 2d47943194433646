"""Spectrum of the memory-wave generator in the co-moving frame.

After the change of variables that freezes the control support, the modal
eigenvalues become ``lam(n, j) = mu_{|n|}^j + i*sgn(n)*c*kappa_{|n|}`` over
the index set S = {(n, j) : n nonzero integer, j in 1..3}, with
``kappa_n = rho_n^(1/(2s))``.  This module builds the truncated spectrum,
locates the critical velocities at which two branches collide, runs the
pairwise gap diagnostics the moment method rests on, and estimates the frame
bounds of the weighted eigenvector family through the per-mode 3x3 matrices,
stacked into one (modes, 3, 3) array.  It also holds the horizon threshold
and ``weighted_inequality``, the one audit of sum |a|^2/rho^2 <= C a^H G a
on random and closest-pair vectors behind both ``control``'s observability
certificate and ``biorthogonal``'s lower summation.

Every distance between two modes is an entry of one matrix,
``pair_distances``: each pairwise gap clause is a masked reduction of it,
and the lambda table's nearest distances, the closest pair of
``weighted_inequality`` and the product's simple-zero check read it too.

Desk-scale caveat baked into the diagnostics: for 1/2 < s < 1 the transport
rate ``c*kappa_n ~ n`` outruns the dispersive rate ``sqrt(rho_n) ~ n^s``, so
the two branch-2/3 sequences whose imaginary parts combine both rates are
eventually monotone in the direction set by the transport term, with an
explicitly measured threshold, and the near-resonant partner of a mode is
found by direct minimization over the truncated spectrum.  The fixed-velocity
constants quoted alongside each clause are recorded for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from numpy.random import default_rng

from .cubic import check_memory_coefficient, solve_cubic
from .fractional import EigenvalueTable, write_csv, write_json

__all__ = [
    "VELOCITY_TOL",
    "CriticalMode",
    "MovingSpectrum",
    "build_moving_spectrum",
    "critical_velocities",
    "horizon_threshold",
    "ClauseCheck",
    "GapReport",
    "gap_diagnostics",
    "FrameReport",
    "frame_bounds",
    "weighted_inequality",
    "pair_distances",
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
        # v_n = beta_n / kappa_n, as ``critical_velocities`` computes them
        hits = [(n, float(v)) for n, v in enumerate(self.beta / self.kappa_pos, 1)
                if abs(abs(self.c) - v) < VELOCITY_TOL]
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
    kappa = table.rho_root
    return [(n, float(solve_cubic(table.rho_of(n), M, n=n).mu2.imag / kappa[n - 1])) for n in n_range]


def horizon_threshold(c: float, gamma: float) -> float:
    """2 pi (1/|c| + 1/|c+gamma| + 1/|c-gamma|), the working horizon floor."""
    return 2.0 * math.pi * (1.0 / abs(c) + 1.0 / abs(c + gamma) + 1.0 / abs(c - gamma))


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
        write_json(path, asdict(self))


def pair_distances(lam) -> np.ndarray:
    """|lam_a - lam_b| for every pair of modes, +inf on the diagonal.

    Taken as hypot(Re, Im) of the differences, bit for bit what scalar
    ``abs()`` of a complex returns; numpy's vectorised complex ``abs`` can
    differ from it in the last bit.
    """
    d = np.subtract.outer(lam, lam)
    D = np.hypot(d.real, d.imag)
    np.fill_diagonal(D, np.inf)
    return D


def default_epsilon(c: float, gamma: float) -> float:
    """Keeps every clause's lower bound strictly positive at desk scale."""
    return min(abs(c) * gamma, abs(1.0 - abs(c) / gamma) * gamma) / 10.0


def gap_diagnostics(ms: MovingSpectrum, epsilon: float | None = None) -> GapReport:
    """Clause-by-clause pairwise separation audit of the truncated spectrum.

    Asserted clauses are the ones provable for 1/2 < s < 1 at finite
    truncation; constants stated for the dispersion-dominated case are
    recorded next to their measured counterparts without being asserted.
    Every pairwise clause is a masked reduction of one distance matrix.
    """
    c = abs(ms.c)  # the spectrum for -c is the mirror image
    gamma = ms.gamma
    eps = default_epsilon(c, gamma) if epsilon is None else float(epsilon)
    N = ms.N
    clauses: list[ClauseCheck] = []

    # a sign flip of c conjugates the spectrum branch-wise
    # (eigenvalue_{-c}(n, j) = conj(eigenvalue_c(n, j_conj(j)))), so the
    # diagnostics work with the |c| spectrum throughout, in ``ms.modes()`` order
    modes = list(ms.modes())
    lam = np.array([ms.eigenvalue(n, j) if ms.c >= 0 else np.conj(ms.eigenvalue(n, j_conj(j)))
                    for n, j in modes])
    kappa = np.array([ms.kappa(n) for n, _ in modes])
    one = np.array([j == 1 for _, j in modes])
    D = pair_distances(lam)
    margin11 = D - c * np.abs(kappa[:, None] - kappa[None, :])
    upper = np.triu(np.ones(D.shape, dtype=bool), 1)
    both1, mixed = one[:, None] & one[None, :], one[:, None] ^ one[None, :]
    pairs11, pairs23 = upper & both1, upper & ~(both1 | mixed)
    crit = np.zeros(D.shape, dtype=bool)
    if ms.critical is not None:
        crit[modes.index((-ms.critical.n_c, 2)), modes.index((ms.critical.n_c, 3))] = True

    # ---- branch 1 against branches 2, 3 ----------------------------------
    d_min = float(D[np.ix_(one, ~one)].min())
    bound_1 = 3.0 * abs(ms.M) / (2.0 * ms.M**2 / abs(ms.mu[1][0].real) + 2.0)
    clauses.append(ClauseCheck(
        name="branch1_separation", passed=bool(d_min >= bound_1 - 1e-9),
        measured={"min_distance": d_min}, bound=bound_1,
        note="real parts of branch 1 and branches 2,3 have opposite signs",
    ))

    # ---- branch 1 internal ------------------------------------------------
    worst_margin = float(margin11[pairs11].min())
    clauses.append(ClauseCheck(
        name="branch1_internal_gap", passed=bool(worst_margin >= -1e-12),
        measured={"min_distance": float(D[pairs11].min()), "worst_margin": worst_margin},
        bound=0.0, note="distance dominated by c*|kappa_n - kappa_m|",
    ))

    # ---- branches 2,3: finite-truncation minimum --------------------------
    # argmin takes the first minimum in row-major order, i.e. the first pair
    # (a, b), a before b in mode order, at the smallest distance
    a, b = np.unravel_index(np.argmin(np.where(pairs23 & ~crit, D, np.inf)), D.shape)
    clauses.append(ClauseCheck(
        name="branch23_finite_minimum", passed=bool(D[a, b] > 0),
        measured={"upsilon": float(D[a, b]), "pair": [list(modes[a]), list(modes[b])]},
        bound=0.0,
        note="critical collision excluded" if crit.any() else "",
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
    rows = lam.reshape(-1, 3)
    pos, neg = rows[N:], rows[N - 1 :: -1]   # n = 1..N and n = -1..-N
    im_2_pos, im_3_neg = pos[:, 1].imag, neg[:, 2].imag
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
    im_2_neg = neg[:, 1].imag   # beta - c kappa
    inc = np.diff(im_2_neg)
    n_star = 1
    if inc.size:
        tail_dir = math.copysign(1.0, inc[-1])
        wrong = np.nonzero(np.sign(inc) != tail_dir)[0]
        n_star = int(wrong[-1]) + 2 if wrong.size else 1
        direction = "decreasing" if tail_dir < 0 else "increasing"
        clauses.append(ClauseCheck(
            name="drifting_branches_eventually_monotone",
            passed=bool(n_star < N),
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
    else:
        clauses.append(ClauseCheck(
            name="drifting_branches_eventually_monotone", passed=None, measured={},
            note="a single level has no increments to inspect; enlarge N",
        ))

    # ---- tail spacing -----------------------------------------------------
    slack = 0.75 * ms.mu[1].real**2 / (ms.beta + np.sqrt(ms.rho_pos))
    idx_eps = np.nonzero(slack <= eps)[0]
    N_eps = int(idx_eps[0]) + 1 if idx_eps.size else None
    if N_eps is not None and max(N_eps, n_star) < N:
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
            note="epsilon threshold not inside the truncation; enlarge N or epsilon"
            if N_eps is None or N_eps >= N else "drifting branches not monotone inside the truncation",
        ))

    # ---- near-resonant pairing -------------------------------------------
    # lam(m,2) sits 2*beta_m above the branch-3 comb, so its resonant partner
    # lives several buckets higher; keep only the m whose imaginary-part
    # matching argmin over the branch-3 comb is interior to the truncation,
    # then fit over the top half of those.
    kap, beta = ms.kappa_pos, ms.beta
    cand = np.arange(N_eps or 1, N + 1)
    im_mismatch = np.abs(c * (kap[None, :] - kap[cand - 1, None]) - (beta[None, :] + beta[cand - 1, None]))
    qualifying = cand[np.argmin(im_mismatch, axis=1) + 1 <= N - 2]
    top = qualifying[len(qualifying) // 2 :]
    pair_map = {}
    if top.size:
        targets = [modes.index((m, 2)) for m in top.tolist()]
        near = np.where(~one, D[targets], np.inf)   # (m, 2) to every branch-2/3 mode but itself
        at = np.arange(top.size)
        partner = np.argmin(near, axis=1)
        dist = near[at, partner]
        near[at, partner] = np.inf
        delta_hat = float(near.min())
        # the fixed-velocity matching objective, minimized directly
        obj = np.abs(abs(1.0 - c / gamma) * np.sqrt(ms.rho_pos)[None, :]
                     - (1.0 + c) * np.sqrt(ms.rho_pos[top - 1])[:, None])
        for m, k, d, n_m in zip(top.tolist(), partner.tolist(), dist.tolist(), np.argmin(obj, axis=1).tolist()):
            pair_map[m] = {"partner": modes[k], "distance": d, "objective_partner": n_m + 1}
        rho_m = ms.rho_pos[top - 1]
        delta_prime = float(np.min(rho_m * dist))
        # nearest-mode distance cannot exceed the largest hole of the merged
        # branch-2/3 imaginary comb around the targets, plus the real spread
        im_all = np.sort(lam[~one].imag)
        im_targets = lam[targets].imag
        lo = np.searchsorted(im_all, im_targets.min() - 1e-9) - 2
        hi = np.searchsorted(im_all, im_targets.max() + 1e-9) + 2
        window = im_all[max(lo, 0) : min(hi, len(im_all))]
        upper_desk = float(np.diff(window).max()) + abs(ms.M)
        paper_const = (abs(1.0 - c) / 2.0 if c < gamma else (c - 1.0) / 2.0) + 3.0 * eps
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
    covered = np.select([both1, mixed, crit], [margin11 >= -1e-12, D >= bound_1 - 1e-9, D <= 1e-9], D > 0)
    paired = {frozenset({(m, 2), rec["partner"]}) for m, rec in pair_map.items()}
    clauses.append(ClauseCheck(
        name="pair_coverage", passed=bool(np.all(covered[upper])),
        measured={"total_pairs": int(upper.sum()), "covered": int(np.count_nonzero(covered[upper])),
                  "near_resonant_pairs": len(paired)},
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


def frame_bounds(ms: MovingSpectrum, trials: int = 200, seed: int = 0) -> FrameReport:
    """Frame constants of the weighted eigenvector family.

    The weighted norm is realized on coefficients: for each mode block,
    ``|sum_j a_j Psi(n,j) * rho^sigma|^2 = 2 |B_n a|^2`` with the plane-wave
    factor contributing the 2; sigma cancels between the weight and the dual
    norm, so the sandwich constants do not depend on it.  Randomized
    coefficient trials verify the two-sided bound realized by the extreme
    eigenvalues of B_n^* B_n.  The blocks are stacked (modes, 3, 3), so the
    eigenvalues, the determinants and every trial's norm are one array
    operation each.
    """
    if trials < 100:
        raise ValueError("need at least 100 randomized trials")
    rng = default_rng(seed)
    B = np.stack([frame_matrix(ms, n) for n in ms.mode_indices()])
    H = B.conj().transpose(0, 2, 1) @ B
    w = np.linalg.eigvalsh(H)
    a1, a2 = float(w[:, 0].min()), float(w[:, -1].max())
    det_min = float(np.abs(np.linalg.det(B)).min())

    # trial t draws its real then its imaginary parts, as one draw per trial would
    x = rng.standard_normal((trials, 2) + B.shape[:2])
    a = x[:, 0] + 1j * x[:, 1]
    norm2 = 2.0 * np.sum(np.abs(np.einsum("nij,tnj->tni", B, a)) ** 2, axis=(1, 2))
    total = 2.0 * np.sum(np.abs(a) ** 2, axis=(1, 2))
    failures = int(np.count_nonzero(~((a1 * total - 1e-9 <= norm2) & (norm2 <= a2 * total + 1e-9))))

    dist_paper = float(np.linalg.norm(H[-1] - b_tilde_reference(ms.M, ms.c)))
    dist_emp = float(np.linalg.norm(H[-1] - H[-2 if len(H) > 1 else -1]))
    degenerate = a1 < 1e-8
    return FrameReport(
        a1_hat=a1, a2_hat=a2, det_min=det_min, trials=trials,
        sandwich_failures=failures, b_tilde_distance=dist_paper,
        b_limit_distance=dist_emp, degenerate=degenerate,
        passed=bool(failures == 0 and det_min > 0 and not degenerate),
    )


def weighted_inequality(G: np.ndarray, rho: np.ndarray, lam: np.ndarray, vectors: np.ndarray):
    """Both sides of sum |a|^2 / rho^2 <= C Re(a^H G a) on a stack of vectors.

    Returns (lhs, rhs, pair): lhs and rhs hold one entry per row of
    ``vectors`` and a last one for the closest-pair vector, which sits on
    the modes pair = (i, j) minimizing |lam_i - lam_j| and is phased by the
    lowest eigenvector of the 2x2 sub-Gram, the two-mode combination of least
    energy.  The constant C and the comparison are the caller's.
    """
    m = len(lam)
    D = pair_distances(lam)
    i, j = np.unravel_index(np.argmin(D), D.shape)
    closest = np.zeros((1, m), dtype=complex)
    closest[0, [i, j]] = np.linalg.eigh(G[np.ix_([i, j], [i, j])])[1][:, 0]
    a = np.concatenate([np.asarray(vectors, dtype=complex).reshape(-1, m), closest])
    lhs = np.sum(np.abs(a) ** 2 / rho**2, axis=1)
    rhs = np.real(np.sum(np.conj(a) * (a @ G.T), axis=1))
    return lhs, rhs, (int(i), int(j))


def lambda_table_to_csv(ms: MovingSpectrum, path) -> None:
    """Columns n, j, Re, Im, and the distance to the nearest other mode."""
    modes = list(ms.modes())
    vals = np.array([ms.lam(*mk) for mk in modes])
    nearest = pair_distances(vals).min(axis=1)
    write_csv(path, "n,j,re,im,nearest_distance", "%d,%d,%r,%r,%r",
              ((n, j, v.real, v.imag, d) for (n, j), v, d in zip(modes, vals.tolist(), nearest.tolist())))
