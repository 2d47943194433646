"""Minimum-norm control from the truncated moment problem.

Nulling the truncated state at time T is equivalent to a finite set of
moment constraints on the control: for each mode pair (n, j),

    int_0^T int_{omega0} u(t,x) e^{-i kappa_n x} e^{-conj(lam_n^j) t} dx dt
        = -2 ( conj(mu_|n|^j) y0_n + y1_n ).

The minimum-L2-norm control solving them lives in the span of the conjugated
constraint kernels, and its coefficients solve the Hermitian positive
semidefinite Gram system G a = b whose entries factor into closed-form space
and time integrals.  Those closed forms take exponential values and
broadcast over numpy arrays of doubles, of double-double values or of
mpmath values, so one implementation serves every Gram and the propagator;
the pairwise exponentials are products of one per-mode table, so a Gram
costs 3m exponentials instead of 3m^2.  Branch-2/3 kernels grow like
e^{|M| T/2} in time, so the Gram's scale spread is extreme; the solve runs
in extended precision (double-double or mpmath, see ``hp``) on the
configured spectrum (``hp.MpSpectrum``) with the rho-weighted prescaling,
and the solved coefficients are kept both as doubles (exports,
diagnostics) and at full precision (terminal-state evaluation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import dd
from .fractional import gauss_legendre
from .hp import MpSpectrum, RefinementStalled, choose_arithmetic, hermitian_solve, matvec
from .moving import BRANCHES, MovingSpectrum

__all__ = [
    "InitialData",
    "random_initial_data",
    "MomentSystem",
    "assemble_moments",
    "ControlGram",
    "assemble_gram",
    "ControlField",
    "synthesize_control",
    "ObservabilityReport",
    "certify_observability",
    "quadrature_moments",
]


@dataclass
class InitialData:
    """Plane-wave coefficients of displacement and velocity, |n| <= N."""

    ns: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    rho: np.ndarray  # rho_{|n|} aligned with ns

    def __post_init__(self):
        if not (len(self.ns) == len(self.y0) == len(self.y1) == len(self.rho)):
            raise ValueError("misaligned coefficient arrays")

    def weighted_norm(self, sigma0: float = 3.0, sigma1: float = 2.0) -> float:
        a = np.sum(self.rho ** (2 * sigma0) * np.abs(self.y0) ** 2)
        b = np.sum(self.rho ** (2 * sigma1) * np.abs(self.y1) ** 2)
        return float(math.sqrt(a + b))

    def scaled(self, factor: complex) -> "InitialData":
        return InitialData(self.ns, factor * self.y0, factor * self.y1, self.rho)

    def coeff(self, n: int) -> tuple[complex, complex]:
        i = int(np.nonzero(self.ns == n)[0][0])
        return complex(self.y0[i]), complex(self.y1[i])


def random_initial_data(ms: MovingSpectrum, seed: int = 0, sigma0: float = 3.0, sigma1: float = 2.0) -> InitialData:
    """Coefficients y0_n = rho^-sigma0 * unit, y1_n = rho^-sigma1 * unit."""
    rng = np.random.default_rng(seed)
    ns = np.array(ms.mode_indices())
    rho = np.array([ms.rho(n) for n in ns])
    u0 = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
    u1 = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
    return InitialData(ns=ns, y0=rho ** (-sigma0) * u0, y1=rho ** (-sigma1) * u1, rho=rho)


@dataclass
class MomentSystem:
    modes: list
    b: np.ndarray
    data: InitialData

    def rhs_of(self, n: int, j: int) -> complex:
        return complex(self.b[self.modes.index((n, j))])


def assemble_moments(data: InitialData, ms: MovingSpectrum) -> MomentSystem:
    """Right-hand sides b_nj = -2 (conj(mu) y0_n + y1_n), literally."""
    modes = [(n, j) for n in ms.mode_indices() for j in BRANCHES]
    if set(data.ns.tolist()) != set(ms.mode_indices()):
        raise ValueError("initial data index set does not match the spectrum truncation")
    b = np.empty(len(modes), dtype=complex)
    for i, (n, j) in enumerate(modes):
        y0n, y1n = data.coeff(n)
        b[i] = -2.0 * (np.conj(ms.mu_of(n, j)) * y0n + y1n)
    return MomentSystem(modes=modes, b=b, data=data)


_MP_EXP = np.frompyfunc(mp.exp, 1, 1)  # elementwise mpmath exp for object arrays


def _exp(x):
    """e^x entrywise on doubles, on ``dd.DD`` values (one ``mp.exp`` per
    entry, rounded) or on mpmath values (dtype object)."""
    return _MP_EXP(x) if getattr(x, "dtype", None) == object else np.exp(x)


_MPMATHIFY = np.frompyfunc(mp.mpmathify, 1, 1)


def _lift(values, arithmetic: str):
    """mpmath or Python numbers (a scalar or any nesting) in an arithmetic:
    ``dd.DD`` values for "dd", mpmath values for "mp" (scalars stay scalars)."""
    if arithmetic == "dd":
        return dd.array(values)
    if np.ndim(values) == 0:
        return mp.mpmathify(values)
    return _MPMATHIFY(np.array(values, dtype=object))


def _space_factor(delta, x0, x1, e0, e1):
    """int_{x0}^{x1} e^{i delta x} dx from e0 = e^{i delta x0}, e1 = e^{i delta x1}.

    Like every closed form here it broadcasts over numpy arrays of complex
    doubles, ``dd.DD`` values or mpmath values (dtype object).  The
    smallness guard reads the leading double only.
    """
    small = np.abs(dd.leading(delta)) < 1e-14
    return np.where(small, x1 - x0, (e1 - e0) / (1j * np.where(small, 1, delta)))


def _time_factor(w, T, e):
    """int_0^T e^{-w t} dt from e = e^{-w T}."""
    small = np.abs(dd.leading(w)) < 1e-14
    return np.where(small, T, (1 - e) / np.where(small, 1, w))


def _mode_exponentials(lam, kap, x0, x1, T):
    """Per-mode table (e^{i kap x0}, e^{i kap x1}, e^{-lam T}), shape (3, m).

    Every pairwise factor of the Gram is a product of two entries, since
    kap, x0, x1 and T are real:
    e^{i (kap_c - kap_r) x} = e^{i kap_c x} conj(e^{i kap_r x}) and
    e^{-(lam_c + conj(lam_r)) T} = e^{-lam_c T} conj(e^{-lam_r T}).
    """
    return np.stack([_exp(1j * kap * x0), _exp(1j * kap * x1), _exp(-lam * T)])


def _gram_entry(lam_r, kap_r, tab_r, lam_c, kap_c, tab_c, x0, x1, T):
    """G[r, c]: the restricted space-time pairing of kernels c and r.

    ``tab_r`` and ``tab_c`` are the kernels' ``_mode_exponentials`` columns.
    """
    (r0, r1, rT), (c0, c1, cT) = tab_r, tab_c
    space = _space_factor(kap_c - kap_r, x0, x1, c0 * np.conj(r0), c1 * np.conj(r1))
    return space * _time_factor(lam_c + np.conj(lam_r), T, cT * np.conj(rT))


@dataclass
class ControlGram:
    """Closed-form Gram of the restricted space-time exponentials."""

    ms: MovingSpectrum
    omega0: tuple
    T: float
    modes: list
    G: np.ndarray
    cond_raw: float
    cond_scaled: float

    def rho_weights(self) -> np.ndarray:
        return np.array([self.ms.rho(n) for n, _ in self.modes])


def assemble_gram(ms: MovingSpectrum, omega0, T: float) -> ControlGram:
    x0, x1 = float(omega0[0]), float(omega0[1])
    if not x1 > x0:
        raise ValueError("omega0 must be a nonempty interval")
    modes = [(n, j) for n in ms.mode_indices() for j in BRANCHES]
    lam = np.array([ms.eigenvalue(n, j) for n, j in modes])
    kap = np.array([ms.kappa(n) for n, _ in modes])
    tab = _mode_exponentials(lam, kap, x0, x1, T)
    G = _gram_entry(lam[:, None], kap[:, None], tab[:, :, None], lam, kap, tab[:, None, :], x0, x1, T)
    herm = np.max(np.abs(G - G.conj().T))
    if herm > 1e-12 * np.max(np.abs(G)):
        raise RuntimeError(f"assembly lost Hermitian symmetry: deviation {herm:.2e}")
    G = 0.5 * (G + G.conj().T)
    rho = np.array([ms.rho(n) for n, _ in modes])
    D = np.diag(rho)
    cond_raw = float(np.linalg.cond(G))
    cond_scaled = float(np.linalg.cond(D @ G @ D))
    return ControlGram(ms=ms, omega0=(x0, x1), T=float(T), modes=modes, G=G,
                       cond_raw=cond_raw, cond_scaled=cond_scaled)


def _assemble_gram_mp(spec: MpSpectrum, modes, omega0, T, arithmetic: str = "mp"):
    """The Gram in an extended arithmetic ("dd" or "mp", see ``_lift``) on
    the spectrum ``spec``: 3m exponentials, the upper triangle from their
    products and the lower triangle by conjugation, so the matrix is
    Hermitian by construction."""
    x0, x1, T = (_lift(mp.mpf(v), arithmetic) for v in (omega0[0], omega0[1], T))
    lam = _lift([spec.lam(n, j) for n, j in modes], arithmetic)
    kap = _lift([spec.kappa(n) for n, _ in modes], arithmetic)
    tab = _mode_exponentials(lam, kap, x0, x1, T)
    r, c = np.triu_indices(len(modes))
    G = _lift(np.zeros((len(modes), len(modes))), arithmetic)
    upper = _gram_entry(lam[r], kap[r], tab[:, r], lam[c], kap[c], tab[:, c], x0, x1, T)
    G[c, r] = np.conj(upper)
    G[r, c] = upper
    return G


def _moments_mp(spec: MpSpectrum, modes, data: InitialData, arithmetic: str = "mp"):
    """b_nj = -2 (conj(mu) y0_n + y1_n), formed in mpmath and then lifted."""
    b = []
    for n, j in modes:
        y0n, y1n = data.coeff(n)
        b.append(-2 * (mp.conj(spec.mu[abs(n) - 1][j - 1]) * mp.mpc(y0n) + mp.mpc(y1n)))
    return _lift(b, arithmetic)


@dataclass
class ControlField:
    """Synthesized control u = sum a_mk conj(E_mk) on (0,T) x omega0."""

    modes: list
    a: np.ndarray
    omega0: tuple
    T: float
    residual: float
    rhs_norm: float
    norm: float
    method: str
    gram_condition: dict
    ms: MovingSpectrum = field(repr=False)
    a_hp: object = field(default=None, repr=False)  # ``a`` in the solve's arithmetic
    spec_mp: MpSpectrum | None = field(default=None, repr=False)

    @property
    def arithmetic(self) -> str:
        """The arithmetic of ``a_hp``: "dd" for ``dd.DD`` values, else "mp"."""
        return "dd" if isinstance(self.a_hp, dd.DD) else "mp"

    def evaluate(self, t, x) -> np.ndarray:
        """Pointwise values, zero outside (0,T) x omega0 by construction."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        lam = np.array([self.ms.eigenvalue(n, j) for n, j in self.modes])
        kap = np.array([self.ms.kappa(n) for n, _ in self.modes])
        vals = np.exp(-lam[:, None] * t[None, :]).T @ (self.a[:, None] * np.exp(1j * kap[:, None] * x[None, :]))
        mask = ((t >= 0) & (t <= self.T))[:, None] & ((x >= self.omega0[0]) & (x <= self.omega0[1]))[None, :]
        return np.where(mask, vals, 0.0)

    def to_json(self, path) -> None:
        payload = {
            "omega0": list(self.omega0),
            "T": self.T,
            "method": self.method,
            "residual": self.residual,
            "rhs_norm": self.rhs_norm,
            "control_norm": self.norm,
            "gram_condition": self.gram_condition,
            "coefficients": [
                {"n": n, "j": j, "re": v.real, "im": v.imag}
                for (n, j), v in zip(self.modes, self.a)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    def sample_csv(self, path, nt: int = 64, nx: int = 32) -> None:
        t = np.linspace(0, self.T, nt)
        x = np.linspace(self.omega0[0], self.omega0[1], nx)
        vals = self.evaluate(t, x)
        import csv as _csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["t", "x", "re_u", "im_u"])
            for i, tv in enumerate(t):
                for k, xv in enumerate(x):
                    writer.writerow([repr(float(tv)), repr(float(xv)), repr(vals[i, k].real), repr(vals[i, k].imag)])


def synthesize_control(msys: MomentSystem, gram: ControlGram, terminal_tol: float = 1.0e-6) -> ControlField:
    """Solve G a = b in extended precision by a precision ladder.

    The Gram and the right-hand sides are rebuilt on the gram's own moving
    spectrum, taken at dps = max(40, log10(cond_scaled) + 30) digits
    (``hp.MpSpectrum``), and prescaled by the rho weights.  The arithmetic
    of the rebuild, the solve's residuals, the scaling and the reported
    residual is chosen a priori by ``hp.choose_arithmetic`` from
    cond_scaled, m, |M| T and ``terminal_tol``, the tolerance of the
    terminal check the control must pass: double-double (``dd.DD``) where
    it keeps both the solve and that check six digits clear, mpmath at dps
    otherwise.  ``hermitian_solve`` then refines a single float64 LU factor
    against residuals taken in that arithmetic; in mpmath it factors once
    more only when that stalls above the floor or the Gram does not fit in
    double precision.  If double-double refinement stalls above its floor,
    the system is rebuilt and solved in mpmath, and ``gram_condition``
    records that ``fallback``.

    ``gram_condition`` also records ``arithmetic`` ("dd" or "mp"), the
    ``estimate`` behind it (inputs and the digits each requirement needs),
    the rung that produced the coefficients (``rung``: "float64" or "mp")
    and the max residual of the scaled system after every step of every
    rung tried (``refinement``).  The reported residual is max |G a - b| of
    the unscaled system; callers judge it (the runner's ``residual_ok``
    verdict requires <= 1e-10 |b|).
    """
    ms = gram.ms
    modes = gram.modes
    rhs_norm = float(np.linalg.norm(msys.b))
    if rhs_norm == 0.0:
        return ControlField(
            modes=modes, a=np.zeros(len(modes), dtype=complex), omega0=gram.omega0, T=gram.T,
            residual=0.0, rhs_norm=0.0, norm=0.0, method="direct",
            gram_condition={"raw": gram.cond_raw, "scaled": gram.cond_scaled}, ms=ms,
        )

    dps = max(40, int(math.log10(max(gram.cond_scaled, 10.0))) + 30)
    arithmetic, estimate = choose_arithmetic(gram.cond_scaled, len(modes), abs(ms.M) * gram.T, terminal_tol)
    spec = MpSpectrum(ms, dps=dps)
    fallback = None
    with mp.workdps(dps):
        if arithmetic == "dd":
            try:
                a_hp, residual, norm, solve = _solve_moments(spec, gram, msys.data, "dd")
            except RefinementStalled as stall:
                arithmetic, fallback = "mp", {"from": "dd", "refinement": stall.history}
        if arithmetic == "mp":
            a_hp, residual, norm, solve = _solve_moments(spec, gram, msys.data, "mp")

    return ControlField(
        modes=modes, a=dd.leading(a_hp), omega0=gram.omega0, T=gram.T,
        residual=residual, rhs_norm=rhs_norm, norm=norm, method="direct",
        gram_condition={"raw": gram.cond_raw, "scaled": gram.cond_scaled, "dps": dps,
                        "arithmetic": arithmetic, "estimate": estimate, "fallback": fallback,
                        "rung": solve.rung, "refinement": solve.history},
        ms=ms, a_hp=a_hp, spec_mp=spec,
    )


def _solve_moments(spec: MpSpectrum, gram: ControlGram, data: InitialData, arithmetic: str):
    """The rho-scaled moment solve in one arithmetic: the coefficients,
    max |G a - b|, the control norm sqrt(a^H G a) and the ladder's record."""
    G = _assemble_gram_mp(spec, gram.modes, gram.omega0, gram.T, arithmetic)
    b = _moments_mp(spec, gram.modes, data, arithmetic)
    rho = _lift([spec.rho(n) for n, _ in gram.modes], arithmetic)
    solve = hermitian_solve(rho[:, None] * G * rho, rho * b)
    a = rho * solve.x
    Ga = matvec(G, a)
    residual = float(np.max(np.abs(dd.leading(Ga - b))))
    norm = math.sqrt(abs(dd.leading((np.conj(a) * Ga).sum()).real))
    return a, residual, norm, solve


def _time_nodes(T: float, lam: np.ndarray, floor: int) -> int:
    """Gauss-Legendre nodes on (0, T) for products e^{-lam t} conj(e^{-lam' t}):
    three per period of the fastest one (frequency 2 max|Im lam|), never
    fewer than ``floor``."""
    periods = T * 2.0 * float(np.max(np.abs(np.imag(lam)))) / (2.0 * math.pi)
    return max(floor, math.ceil(3.0 * periods))


def quadrature_moments(control: ControlField, ms: MovingSpectrum, nt: int | None = None, nx: int = 48) -> np.ndarray:
    """Recompute every moment by Gauss-Legendre quadrature, not closed forms.

    The moment integrands oscillate at up to 2 max|Im lam| over (0, T); the
    default ``nt`` puts three time nodes on each such period, never fewer
    than 360.
    """
    lam = np.array([ms.eigenvalue(n, j) for n, j in control.modes])
    kap = np.array([ms.kappa(n) for n, _ in control.modes])
    tg, tw = gauss_legendre(nt if nt is not None else _time_nodes(control.T, lam, 360))
    xg, xw = gauss_legendre(nx)
    t = 0.5 * control.T * (tg + 1.0)
    tw = 0.5 * control.T * tw
    x0, x1 = control.omega0
    x = 0.5 * (x1 - x0) * (xg + 1.0) + x0
    xw = 0.5 * (x1 - x0) * xw
    u = np.exp(-lam[:, None] * t[None, :]).T @ (control.a[:, None] * np.exp(1j * kap[:, None] * x[None, :]))
    E_t = np.exp(-np.conj(lam)[:, None] * t[None, :]) * tw[None, :]
    E_x = np.exp(-1j * kap[:, None] * x[None, :]) * xw[None, :]
    return np.sum((E_t @ u) * E_x, axis=1)


@dataclass
class ObservabilityReport:
    c_obs_hat: float
    c_obs_random: float
    trials: int
    failures: int
    min_rhs: float
    adversarial_ratio: float
    adversarial_pair: tuple
    passed: bool


def certify_observability(
    ms: MovingSpectrum, omega0, T: float, trials: int = 200, seed: int = 0,
    gram: ControlGram | None = None,
) -> ObservabilityReport:
    """Empirical constant in sum |a|^2/rho^2 <= C * a^H G a.

    The extremal constant is the top generalized eigenvalue of the weight
    matrix against the Gram, computed exactly; random trials plus the
    near-resonant two-mode vector then verify the inequality at that
    constant and report their own worst ratio.
    """
    from scipy.linalg import eigh as generalized_eigh

    if gram is None:
        gram = assemble_gram(ms, omega0, T)
    G = gram.G
    rho = gram.rho_weights()
    m = len(gram.modes)
    Wmat = np.diag(1.0 / rho**2)
    c_exact = float(generalized_eigh(Wmat, G, eigvals_only=True)[-1])

    rng = np.random.default_rng(seed)
    worst_random, min_rhs, failures = 0.0, np.inf, 0
    for _ in range(trials):
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rhs = float(np.real(np.conj(a) @ G @ a))
        lhs = float(np.sum(np.abs(a) ** 2 / rho**2))
        min_rhs = min(min_rhs, rhs)
        worst_random = max(worst_random, lhs / rhs)
        if lhs > c_exact * rhs * (1 + 1e-9):
            failures += 1
    # adversarial: the closest spectral pair, phased to minimize the energy
    lam = np.array([ms.eigenvalue(n, j) for n, j in gram.modes])
    D = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(m, np.inf))
    i, j = np.unravel_index(np.argmin(D), D.shape)
    sub = G[np.ix_([i, j], [i, j])]
    vec = np.linalg.eigh(sub)[1][:, 0]
    a = np.zeros(m, dtype=complex)
    a[[i, j]] = vec
    rhs = float(np.real(np.conj(a) @ G @ a))
    lhs = float(np.sum(np.abs(a) ** 2 / rho**2))
    adv = lhs / rhs if rhs > 0 else np.inf
    if lhs > c_exact * rhs * (1 + 1e-9):
        failures += 1
    return ObservabilityReport(
        c_obs_hat=c_exact, c_obs_random=float(worst_random), trials=trials,
        failures=failures, min_rhs=float(min_rhs),
        adversarial_ratio=float(adv), adversarial_pair=(gram.modes[i], gram.modes[j]),
        passed=bool(np.isfinite(c_exact) and c_exact > 0 and min_rhs > 0 and failures == 0),
    )
