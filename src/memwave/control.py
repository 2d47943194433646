"""Minimum-norm control from the truncated moment problem.

Nulling the truncated state at time T is equivalent to a finite set of
moment constraints on the control: for each mode pair (n, j),

    int_0^T int_{omega0} u(t,x) e^{-i kappa_n x} e^{-conj(lam_n^j) t} dx dt
        = -2 ( conj(mu_|n|^j) y0_n + y1_n ).

The minimum-L2-norm control solving them lives in the span of the conjugated
constraint kernels, and its coefficients solve the Hermitian positive
semidefinite Gram system G a = b whose entries factor into closed-form space
and time integrals.  Both are one closed form, ``_time_factor``, the
integral of e^{-wt} over [0, T]: the space factor over omega0 = (x0, x1)
is its shift by e^{i delta x0} with w = -i delta and T = x1 - x0, and the
biorthogonal family's integral over [-T/2, T/2] is its shift by e^{wT/2}.
The Gram (``_assemble_gram_mp``) and the moments
(``_moments``) are each one routine taking a spectrum (``MovingSpectrum``
or ``hp.MpSpectrum``) and an arithmetic ("float64", "dd" or "mp", see
``dd.lift``); their closed forms broadcast over arrays of any of the three
and also serve the propagator.  A Gram costs 2 x levels + m exponentials
(the branches of a level n share kap_n); only its upper triangle is
computed, the lower one is its conjugate.  Branch-2/3 kernels grow like
e^{|M| T/2} in time, so the Gram's scale spread is extreme; the float64
Gram gives the condition numbers, and the solve rebuilds it in extended
precision (double-double or mpmath, see ``hp``) on the configured spectrum
with the rho-weighted prescaling.  The solved coefficients are kept both as
doubles (exports, diagnostics) and at full precision (terminal-state
evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from numpy.random import default_rng

from . import dd
from .fractional import gauss_interval, write_csv, write_json
from .hp import MpSpectrum, RefinementStalled, choose_arithmetic, hermitian_solve, matvec, mode_arrays
from .moving import MovingSpectrum, weighted_inequality

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

SIGMA_WEIGHTS = (3.0, 2.0, 1.0)  # default Sobolev weights of the norms of (xi, xi_t, zeta)


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

    def weighted_norm(self, sigma0: float = SIGMA_WEIGHTS[0], sigma1: float = SIGMA_WEIGHTS[1]) -> float:
        a = np.sum(self.rho ** (2 * sigma0) * np.abs(self.y0) ** 2)
        b = np.sum(self.rho ** (2 * sigma1) * np.abs(self.y1) ** 2)
        return float(math.sqrt(a + b))

    def scaled(self, factor: complex) -> "InitialData":
        return InitialData(self.ns, factor * self.y0, factor * self.y1, self.rho)

    def coeff(self, n: int) -> tuple[complex, complex]:
        i = int(np.nonzero(self.ns == n)[0][0])
        return complex(self.y0[i]), complex(self.y1[i])


def random_initial_data(ms: MovingSpectrum, seed: int = 0, sigma0: float = SIGMA_WEIGHTS[0],
                        sigma1: float = SIGMA_WEIGHTS[1]) -> InitialData:
    """Coefficients y0_n = rho^-sigma0 * unit, y1_n = rho^-sigma1 * unit."""
    rng = default_rng(seed)
    ns = np.array(ms.mode_indices())
    rho = mode_arrays(ms, [(n, 1) for n in ns])[2]
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
    if set(data.ns.tolist()) != set(ms.mode_indices()):
        raise ValueError("initial data index set does not match the spectrum truncation")
    modes = list(ms.modes())
    return MomentSystem(modes=modes, b=_moments(ms, modes, data, "float64"), data=data)


def _moments(spec, modes, data: InitialData, arithmetic: str):
    """b_nj = -2 (conj(mu_|n|^j) y0_n + y1_n) over the modes, on a spectrum
    and in an arithmetic (see ``hp.mode_arrays``)."""
    mu = dd.lift([spec.mu_of(n, j) for n, j in modes], arithmetic)
    y0, y1 = (dd.lift([data.coeff(n)[k] for n, _ in modes], arithmetic) for k in (0, 1))
    return -2 * (np.conj(mu) * y0 + y1)


def _exp(x):
    """e^x entrywise on doubles, on ``dd.DD`` values (one ``mp.exp`` per
    entry, rounded) or on mpmath values (dtype object)."""
    return dd._MP_EXP(x) if getattr(x, "dtype", None) == object else np.exp(x)


# Under this |z|, (e^z - 1)/z is summed as its Taylor series: the closed form
# (1 - e^{-wT}) / w cancels to a relative error of about one unit of the
# arithmetic over |z| = |w| T, T the interval's length.  A default run does not
# reach it: its smallest nonzero |w| T is 0.174 in time, 0.942 in space
# (|delta| (x1 - x0)) and 4.18 on the family's [-T/2, T/2]; omega0 = (0.5, 0.6)
# brings space down to 0.157.  Exact zeros keep the limit.
_SERIES_BELOW = 0.1


def _digits(x) -> float:
    """Decimal digits carried by the arithmetic of x (see ``dd.lift``)."""
    if isinstance(x, dd.DD):
        return dd.DIGITS
    return mp.mp.dps if getattr(x, "dtype", None) == object else 16.0


def _exprel(z):
    """(e^z - 1) / z = sum_k z^k / (k+1)! for |z| < _SERIES_BELOW, by Horner
    in the arithmetic of z, with as many terms as its digits need."""
    terms = 1
    while _SERIES_BELOW**terms / math.factorial(terms + 1) > 10.0 ** -(_digits(z) + 1):
        terms += 1
    out = 1
    for k in range(terms, 0, -1):
        out = 1 + z * out / (k + 1)
    return out


def _time_factor(w, T, e):
    """int_0^T e^{-w t} dt from e = e^{-w T}: (1 - e) / w, or T S(-wT) with
    S = ``_exprel`` on the entries where |wT| < _SERIES_BELOW; w = 0 gives T.

    The package's one closed form of the integral of an exponential: any
    other interval is a shift of it, int_{t0}^{t0+T} e^{-w t} dt =
    e^{-w t0} _time_factor(w, T, e^{-w T}), so the series switch reads |w|
    times the interval's length, not its distance from the origin.  Like
    every closed form here it broadcasts over numpy arrays of complex
    doubles, ``dd.DD`` values or mpmath values (dtype object); the smallness
    test reads the leading double only.
    """
    lead = dd.leading(w)
    near = np.abs(lead) * abs(complex(dd.leading(T))) < _SERIES_BELOW
    out = np.where(near, T, (1 - e) / np.where(near, 1, w))
    near &= lead != 0
    if near.any():
        out[near] = T * _exprel(-w[near] * T)
    return out


def _space_factor(delta, length, e0, e_len):
    """int_{x0}^{x0+length} e^{i delta x} dx from e0 = e^{i delta x0} and
    e_len = e^{i delta length}: the shift e0 _time_factor(-i delta, length, e_len)."""
    return e0 * _time_factor(-1j * delta, length, e_len)


def _mode_exponentials(lam, kap, ns, x0, length, T):
    """Per-mode table (e^{i kap x0}, e^{i kap length}, e^{-lam T}), shape (3, m),
    from 2 x levels + m exponentials: the branches of a level n share kap_n.

    Every pairwise factor of the Gram is a product of two entries, since
    kap, x0, length and T are real:
    e^{i (kap_c - kap_r) x} = e^{i kap_c x} conj(e^{i kap_r x}) and
    e^{-(lam_c + conj(lam_r)) T} = e^{-lam_c T} conj(e^{-lam_r T}).
    """
    _, first, level = np.unique(ns, return_index=True, return_inverse=True)
    return np.stack([*(_exp(1j * kap[first] * x)[level] for x in (x0, length)), _exp(-lam * T)])


def _gram_entry(lam_r, kap_r, tab_r, lam_c, kap_c, tab_c, length, T):
    """G[r, c]: the restricted space-time pairing of kernels c and r.

    ``tab_r`` and ``tab_c`` are the kernels' ``_mode_exponentials`` columns.
    """
    (r0, rL, rT), (c0, cL, cT) = tab_r, tab_c
    space = _space_factor(kap_c - kap_r, length, c0 * np.conj(r0), cL * np.conj(rL))
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


def assemble_gram(ms: MovingSpectrum, omega0, T: float) -> ControlGram:
    """The float64 Gram on ``ms`` and its raw and rho-scaled condition numbers."""
    x0, x1 = float(omega0[0]), float(omega0[1])
    if not x1 > x0:
        raise ValueError("omega0 must be a nonempty interval")
    modes = list(ms.modes())
    G = _assemble_gram_mp(ms, modes, (x0, x1), T, "float64")
    D = np.diag(mode_arrays(ms, modes)[2])
    cond_raw = float(np.linalg.cond(G))
    cond_scaled = float(np.linalg.cond(D @ G @ D))
    return ControlGram(ms=ms, omega0=(x0, x1), T=float(T), modes=modes, G=G,
                       cond_raw=cond_raw, cond_scaled=cond_scaled)


def _assemble_gram_mp(spec, modes, omega0, T, arithmetic: str = "mp"):
    """The Gram of the modes on a spectrum, in an arithmetic ("float64", "dd"
    or "mp", see ``hp.mode_arrays``): one ``_mode_exponentials`` table, the
    upper triangle from its products and the lower triangle by conjugation,
    so the matrix is Hermitian by construction."""
    x0, x1, T = (dd.lift(v, arithmetic) for v in (omega0[0], omega0[1], T))
    length = x1 - x0
    lam, kap, _ = mode_arrays(spec, modes, arithmetic)
    tab = _mode_exponentials(lam, kap, [n for n, _ in modes], x0, length, T)
    r, c = np.triu_indices(len(modes))
    G = dd.lift(np.zeros((len(modes), len(modes)), dtype=complex), arithmetic)
    upper = _gram_entry(lam[r], kap[r], tab[:, r], lam[c], kap[c], tab[:, c], length, T)
    G[c, r] = np.conj(upper)
    G[r, c] = upper
    return G


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
        lam, kap, _ = mode_arrays(self.ms, self.modes)
        mask = ((t >= 0) & (t <= self.T))[:, None] & ((x >= self.omega0[0]) & (x <= self.omega0[1]))[None, :]
        return np.where(mask, _field(lam, kap, self.a, t, x), 0.0)

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
        write_json(path, payload)

    def sample_csv(self, path, nt: int = 64, nx: int = 32) -> None:
        t = np.linspace(0, self.T, nt)
        x = np.linspace(self.omega0[0], self.omega0[1], nx)
        vals = self.evaluate(t, x)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        write_csv(path, "t,x,re_u,im_u", "%r,%r,%r,%r",
                  zip(*(v.ravel().tolist() for v in (tt, xx, vals.real, vals.imag))))


def synthesize_control(msys: MomentSystem, gram: ControlGram, terminal_tol: float = 1.0e-6) -> ControlField:
    """Solve G a = b in extended precision by a precision ladder.

    The Gram and the right-hand sides are rebuilt on the gram's own moving
    spectrum, taken at dps = max(40, log10(cond_scaled) + 30) digits
    (``hp.MpSpectrum``), and prescaled by the rho weights.  The arithmetic
    of the rebuild, the solve's residuals, the scaling and the reported
    residual is chosen a priori by ``hp.choose_arithmetic`` from |M| T and
    ``terminal_tol``, the tolerance of the terminal check the control must
    pass: double-double (``dd.DD``) where it keeps that check six digits
    clear, mpmath at dps otherwise.  ``hermitian_solve`` then refines
    float64 LU solves against residuals taken in that arithmetic; in
    mpmath it takes one mpmath LU factorization only when that stalls
    above the floor or the Gram does not fit in double precision.  A
    double-double solve must pass its a posteriori certificate; if it
    does not, the system is rebuilt and solved in mpmath, and
    ``gram_condition`` records that ``fallback`` with the refinement and
    the certificate it missed.

    ``gram_condition`` also records ``arithmetic`` ("dd" or "mp"), the
    ``estimate`` behind it (its inputs, the digits the terminal check
    needs and the digits double-double has), the ``certificate`` of a
    double-double solve (``residual``, ``rounding_bound`` and ``target``
    of the scaled system; None in mpmath), the rung that produced the
    coefficients (``rung``: "float64" or "mp") and the max residual of the
    scaled system after every step of every rung tried (``refinement``).
    The reported residual is max |G a - b| of the unscaled system; callers
    judge it (the runner's ``residual_ok`` verdict requires <= 1e-10 |b|).
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
    arithmetic, estimate = choose_arithmetic(abs(ms.M) * gram.T, terminal_tol)
    spec = MpSpectrum(ms, dps=dps)
    fallback = None
    with mp.workdps(dps):
        if arithmetic == "dd":
            try:
                a_hp, residual, norm, solve = _solve_moments(spec, gram, msys.data, "dd")
            except RefinementStalled as stall:
                arithmetic = "mp"
                fallback = {"from": "dd", "refinement": stall.history, "certificate": stall.certificate}
        if arithmetic == "mp":
            a_hp, residual, norm, solve = _solve_moments(spec, gram, msys.data, "mp")

    return ControlField(
        modes=modes, a=dd.leading(a_hp), omega0=gram.omega0, T=gram.T,
        residual=residual, rhs_norm=rhs_norm, norm=norm, method="direct",
        gram_condition={"raw": gram.cond_raw, "scaled": gram.cond_scaled, "dps": dps,
                        "arithmetic": arithmetic, "estimate": estimate, "fallback": fallback,
                        "certificate": solve.certificate, "rung": solve.rung, "refinement": solve.history},
        ms=ms, a_hp=a_hp, spec_mp=spec,
    )


def _solve_moments(spec: MpSpectrum, gram: ControlGram, data: InitialData, arithmetic: str):
    """The rho-scaled moment solve in one arithmetic: the coefficients,
    max |G a - b|, the control norm sqrt(a^H G a) and the ladder's record."""
    G = _assemble_gram_mp(spec, gram.modes, gram.omega0, gram.T, arithmetic)
    b = _moments(spec, gram.modes, data, arithmetic)
    rho = mode_arrays(spec, gram.modes, arithmetic)[2]
    solve = hermitian_solve(rho[:, None] * G * rho, rho * b)
    a = rho * solve.x
    Ga = matvec(G, a)
    residual = float(np.max(np.abs(dd.leading(Ga - b))))
    norm = math.sqrt(abs(dd.leading((np.conj(a) * Ga).sum()).real))
    return a, residual, norm, solve


def _field(lam, kap, a, t, x) -> np.ndarray:
    """sum_k a_k e^{-lam_k t} e^{i kap_k x} on the grid t x x, unmasked."""
    return np.exp(-lam[:, None] * t[None, :]).T @ (a[:, None] * np.exp(1j * kap[:, None] * x[None, :]))


def _nodes(length: float, frequency: float, floor: int) -> int:
    """Gauss-Legendre nodes for an integrand oscillating at up to
    ``frequency`` over an interval of ``length``: three per period, never
    fewer than ``floor``."""
    return max(floor, math.ceil(3.0 * length * frequency / (2.0 * math.pi)))


def _time_nodes(T: float, lam: np.ndarray, floor: int) -> int:
    """Time nodes on (0, T) for products e^{-lam t} conj(e^{-lam' t}), whose
    fastest frequency is 2 max|Im lam|."""
    return _nodes(T, 2.0 * float(np.max(np.abs(np.imag(lam)))), floor)


def _space_nodes(omega0, kap: np.ndarray) -> int:
    """Space nodes on omega0 for products e^{i kap x} e^{-i kap' x}, whose
    fastest frequency is 2 max|kap|; the floor of 48 resolves every N up
    to about 50."""
    return _nodes(omega0[1] - omega0[0], 2.0 * float(np.max(np.abs(kap))), 48)


def quadrature_moments(control: ControlField, ms: MovingSpectrum, nt: int | None = None) -> np.ndarray:
    """Recompute every moment by Gauss-Legendre quadrature, not closed forms:
    int_0^T int_omega0 u(t,x) e^{-i kap_k x} e^{-conj(lam_k) t} dx dt for
    each of the control's modes k.

    The moment integrands oscillate at up to 2 max|Im lam| over (0, T) and
    2 max|kap| over omega0; the default ``nt`` puts three time nodes on
    each period in time, never fewer than 360, and the space rule three on
    each period in space, never fewer than 48.  This is the one space-time
    quadrature of a control: the duality check pairs these moments with its
    adjoint coefficients.
    """
    lam, kap, _ = mode_arrays(ms, control.modes)
    t, tw = gauss_interval(0.0, control.T, nt if nt is not None else _time_nodes(control.T, lam, 360))
    x, xw = gauss_interval(*control.omega0, _space_nodes(control.omega0, kap))
    u = _field(lam, kap, control.a, t, x)
    E_t = np.exp(-np.conj(lam)[:, None] * t[None, :]) * tw[None, :]
    E_x = np.exp(-1j * kap[:, None] * x[None, :]) * xw[None, :]
    return np.sum((E_t @ u) * E_x, axis=1)


def _top_generalized_eigenvalue(w: np.ndarray, G: np.ndarray) -> float:
    """Largest c with diag(w^2) v = c G v for a positive definite G, reduced
    as LAPACK's hegv does: with G = L L^H it is the top eigenvalue of
    Y Y^H, Y = L^-1 diag(w)."""
    Y = np.linalg.solve(np.linalg.cholesky(G), np.diag(w))
    return float(np.linalg.eigvalsh(Y @ Y.conj().T)[-1])


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
    if gram is None:
        gram = assemble_gram(ms, omega0, T)
    G = gram.G
    lam, _, rho = mode_arrays(ms, gram.modes)
    c_exact = _top_generalized_eigenvalue(1.0 / rho, G)

    # random trials, then the closest spectral pair phased to minimize the energy
    x = default_rng(seed).standard_normal((trials, 2, len(lam)))
    lhs, rhs, (i, j) = weighted_inequality(G, rho, lam, x[:, 0] + 1j * x[:, 1])
    failures = int(np.count_nonzero(lhs > c_exact * rhs * (1 + 1e-9)))
    worst_random = float(np.max(lhs[:-1] / rhs[:-1], initial=0.0))
    min_rhs = float(np.min(rhs[:-1], initial=np.inf))
    adv = lhs[-1] / rhs[-1] if rhs[-1] > 0 else np.inf
    return ObservabilityReport(
        c_obs_hat=c_exact, c_obs_random=worst_random, trials=trials,
        failures=failures, min_rhs=min_rhs,
        adversarial_ratio=float(adv), adversarial_pair=(gram.modes[i], gram.modes[j]),
        passed=bool(np.isfinite(c_exact) and c_exact > 0 and min_rhs > 0 and failures == 0),
    )
