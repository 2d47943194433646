"""Exact propagation of the truncated moving-frame system with memory.

States, data and forcing all live in the frame co-moving with the control's
support; a support frozen in the original frame is the forcing phase
``Forcing.shift = -i c kappa``, not a second frame.

Per plane-wave mode the displacement/velocity/memory triple obeys a 3x3
linear system whose eigenvalues are the memory-cubic roots shifted by the
transport phase, nu_j = mu_j - i c kappa_n, so propagation is exact modal
exponentials and control forcing enters through closed-form Duhamel terms
(the forcing is itself a finite sum of space-time exponentials).  There is no
time-stepping error: what remains is truncation plus synthesis residual.
Precision is a parameter: one set-up (``_ModalSetup``) builds the modal
table, the control forcing and the initial state from a spectrum in an
arithmetic, and one routine (``_advance``) propagates them, on doubles,
double-double values or mpmath values.  The float64 steps run it on the
configured ``MovingSpectrum``; the extended-precision terminal check runs
it on the control's ``hp.MpSpectrum`` in the control's arithmetic and at
its working precision, both chosen once by ``hp.choose_arithmetic``.

The control forcing is projected on the modes with the factor-1/2 plane-wave
convention, which is exactly the pairing under which the moment right-hand
sides -2(conj(mu) y0 + y1) null the state.  The exact non-orthogonal Gram of
the plane waves on the length-2 interval is computed and reported only: its
off-diagonal mass quantifies the convention's deviation from the exact
L2-projection.  Every closed-form integral here is the control's one,
``control._time_factor``: the Duhamel terms take it directly, the forcing's
projection and the plane-wave Gram through its shift ``control._space_factor``,
from per-level exponentials e^{i kappa x0} and e^{i kappa (x1 - x0)}.

The duality check builds no adjoint flow on a grid: an adjoint solution
with terminal coefficients b pairs with the control as sum_k conj(b_k
e^{lam_k T}) times the control's k-th moment, so it reuses the control's
one space-time quadrature, ``control.quadrature_moments``, and checks it
against the adjoint pairing of the initial data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import dd
from .control import (
    SIGMA_WEIGHTS, ControlField, InitialData, _exp, _space_factor, _time_factor, _time_nodes, quadrature_moments,
)
from .fractional import write_csv, write_json
from .hp import mode_arrays
from .moving import BRANCHES, MovingSpectrum

__all__ = [
    "GalerkinState",
    "Forcing",
    "ModalTable",
    "PlaneWaveGram",
    "GalerkinSimulator",
    "TerminalReport",
    "verify_duality",
    "duality_residuals",
]

@dataclass
class GalerkinState:
    t: float
    ns: np.ndarray
    xi: np.ndarray
    xi_dot: np.ndarray
    zeta: np.ndarray


class ModalTable(NamedTuple):
    """Eigen-structure of every mode's companion system, stacked by mode.

    Row i holds mode i's forward exponents ``nu`` (3 branches), right
    eigenvectors ``V[i, :, j]``, left eigenvectors ``W[i, j, :]`` and
    normalizers ``wv[i, j]``, as doubles or as mpmath values.
    """

    nu: np.ndarray
    V: np.ndarray
    W: np.ndarray
    wv: np.ndarray

    @classmethod
    def build(cls, mu, rho, M, ick) -> "ModalTable":
        """From the cubic roots ``mu`` (modes x 3) and per-mode rho and ick = i c kappa."""
        v, w, wv = _eigen_rows(mu, rho[:, None], M, ick[:, None])
        return cls(nu=v[1], V=np.stack(np.broadcast_arrays(*v), axis=1),
                   W=np.stack(np.broadcast_arrays(*w), axis=2), wv=wv)


class Forcing(NamedTuple):
    """Control forcing sum_k amps[i, k] e^{expos[i, k] t} on mode i.

    It is the factor-1/2 projection of the control sum_k a_k e^{-lam_k t}
    e^{i kap_k x} on omega0 onto the plane wave e^{i kappa_i x}, so
    amps[i, k] = a_k S[i, k] / 2 with S[i, k] = int_omega0 e^{i (kap_k -
    kappa_i) x} dx from e^{i kappa x0} and e^{i kappa (x1 - x0)} once per level n.
    The exponents separate as expos[i, k] = shift[i] - lam[k], so every
    exponential the propagation needs is a product of two per-mode tables.
    ``shift`` is zero for the synthesized support, fixed at omega0 in the
    co-moving frame; a support pinned at omega0 in the original frame is the
    same projection times e^{-i c kappa_i t}, i.e. shift = -i c kappa.
    """

    a: np.ndarray
    S: np.ndarray
    lam: np.ndarray
    shift: np.ndarray

    @property
    def amps(self) -> np.ndarray:
        return self.a * self.S / 2

    @property
    def expos(self) -> np.ndarray:
        return self.shift[:, None] - self.lam[None, :]


def _advance(modal: ModalTable, X, t, dt, forcing: Forcing):
    """States X (modes x (xi, xi_dot, zeta)) advanced from t to t + dt.

    Exact modal exponentials plus the closed-form Duhamel term: with
    expos = shift - lam and w = nu - shift + lam,
    int_0^dt e^{nu (dt - s)} e^{expos (t + s)} ds
        = e^{shift t} e^{-lam t} e^{nu dt} _time_factor(w, dt, e^{-lam dt} e^{-(nu - shift) dt}),
    so every exponential comes from a per-mode table, and the sum over the
    control modes is one contraction over (mode, branch, control mode).
    Doubles, ``dd.DD`` values or mpmath values (dtype object) in, the same out.
    """
    e_nu, e_lam = _exp(modal.nu * dt), _exp(-forcing.lam * dt)
    rel, e_rel = modal.nu - forcing.shift[:, None], _exp(forcing.shift * dt)[:, None] / e_nu
    # e^{-lam t} and e^{shift t} are 1 at t = 0, where the terminal check and the first step start
    a_t = forcing.a if t == 0 else forcing.a * _exp(-forcing.lam * t)
    at_t = forcing.S * (a_t / 2)
    duhamel = (at_t[:, None, :] * _time_factor(rel[:, :, None] + forcing.lam, dt, e_rel[:, :, None] * e_lam)
               ).sum(axis=2)
    if t != 0:
        duhamel = duhamel * _exp(forcing.shift * t)[:, None]
    coords = ((modal.W * X[:, None, :]).sum(axis=2) + duhamel) * e_nu / modal.wv
    return (modal.V * coords[:, None, :]).sum(axis=2)


def _weighted_norms(rho, X, sigma_weights) -> dict:
    """sqrt(sum_n rho_n^(2 sigma) |X_n|^2) per column (xi, xi_dot, zeta) of X.

    It reads the leading double of each value: whatever cancels has
    cancelled in computing X, and a sum of positive terms needs no more.
    Each column is divided by its largest modulus before squaring, so a
    state far below 1e-154 keeps its norm instead of underflowing to 0.
    """
    rho, X = dd.leading(rho).real, np.abs(dd.leading(X))
    scale = X.max(axis=0)
    scale[scale == 0] = 1.0
    sq = (rho[:, None] ** (2 * np.asarray(sigma_weights)) * (X / scale) ** 2).sum(axis=0)
    return {name: float(f * v ** 0.5) for name, f, v in zip(("xi", "xi_dot", "zeta"), scale, sq)}


class _ModalSetup:
    """The modal table of the modes ``ns`` of a spectrum (``MovingSpectrum``
    or ``hp.MpSpectrum``) in an arithmetic (see ``dd.lift``), with the
    transport shift ick = i c kappa of the frame; binds forcing and data."""

    def __init__(self, spec, arithmetic: str, ns):
        self.spec, self.arithmetic, self.ns = spec, arithmetic, ns
        self.level = {n: i for i, n in enumerate(ns)}
        _, self.kappa, self.rho = mode_arrays(spec, [(n, 1) for n in ns], arithmetic)
        self.zeros = dd.lift(np.zeros(len(ns)), arithmetic)
        self.ick = 1j * dd.lift(spec.c, arithmetic) * self.kappa
        mu = dd.lift([[spec.mu_of(n, j) for j in BRANCHES] for n in ns], arithmetic)
        self.modal = ModalTable.build(mu, self.rho, dd.lift(spec.M, arithmetic), self.ick)

    def forcing(self, modes, a, omega0) -> Forcing:
        """The forcing of the control sum_k a_k e^{-lam_k t} e^{i kap_k x} on omega0 (modes on ``ns``)."""
        arithmetic, kappa = self.arithmetic, self.kappa
        lam, kap, _ = mode_arrays(self.spec, modes, arithmetic)
        x0, x1 = (dd.lift(v, arithmetic) for v in omega0)
        length = x1 - x0
        level = [self.level[n] for n, _ in modes]
        e0, e_len = (e[level][None, :] * np.conj(e)[:, None] for e in (_exp(1j * kappa * x) for x in (x0, length)))
        S = _space_factor(kap[None, :] - kappa[:, None], length, e0, e_len)
        return Forcing(dd.lift(a, arithmetic), S, lam, self.zeros)

    def initial_state(self, data: InitialData):
        """Moving-frame data as states (modes x (xi, xi_dot, zeta)):
        xi = y0, xi_dot = y1 - i c kappa y0, zeta = 0."""
        y0, y1 = (dd.lift([data.coeff(n)[k] for n in self.ns], self.arithmetic) for k in (0, 1))
        return np.stack([y0, y1 - self.ick * y0, self.zeros], axis=1)


@dataclass
class PlaneWaveGram:
    """Exact Gram of {e^{i kappa_n x}} on the unit-length-2 interval.

    Off-diagonal entries int_{-1}^{1} e^{i (kappa_m - kappa_n) x} dx (the
    control's ``_space_factor``, real here) do not vanish, so the family is
    only asymptotically orthogonal; the deviation report carries the
    measured off-diagonal mass.
    """

    ns: np.ndarray
    kappa: np.ndarray
    entries: np.ndarray
    deviation: float

    @classmethod
    def build(cls, ns, kappa) -> "PlaneWaveGram":
        d = kappa[None, :] - kappa[:, None]
        e = np.exp(1j * d)
        core = _space_factor(d, 2.0, np.conj(e), e * e).real
        off = core - np.diag(np.diag(core))
        return cls(ns=np.asarray(ns), kappa=kappa, entries=core, deviation=float(np.max(np.abs(off))))


class GalerkinSimulator:
    """Exact modal propagator in the co-moving frame.  A support frozen in
    the original frame is ``bind_forcing(cf)._replace(shift=-1j * ms.c * self.kappa)``."""

    def __init__(self, ms: MovingSpectrum, omega0, sigma_weights=SIGMA_WEIGHTS):
        self.ms = ms
        self.sigma_weights = tuple(float(v) for v in sigma_weights)
        self.omega0 = (float(omega0[0]), float(omega0[1]))
        self.ns = np.array(ms.mode_indices())
        self._setup = setup = _ModalSetup(ms, "float64", ms.mode_indices())
        self.kappa, self.rho, self.modal = setup.kappa, setup.rho, setup.modal
        self.gram = PlaneWaveGram.build(self.ns, self.kappa)
        root, rho = self.modal.nu + setup.ick[:, None], self.rho[:, None]
        res = np.abs(root**3 + rho * root - ms.M * rho) / (abs(ms.M) * rho + abs(ms.M) ** 3)
        if np.max(res) > 1e-10:
            n = self.ns[np.argmax(res) // 3]
            raise RuntimeError(f"propagator exponent residual {np.max(res):.2e} (relative) too large for mode {n}")

    # -- states --------------------------------------------------------------
    def initial_state(self, data: InitialData) -> GalerkinState:
        return GalerkinState(0.0, self.ns.copy(), *self._setup.initial_state(data).T)

    def weighted_norms(self, state: GalerkinState) -> dict:
        return _weighted_norms(self.rho, np.stack([state.xi, state.xi_dot, state.zeta], axis=1), self.sigma_weights)

    # -- forcing --------------------------------------------------------------
    def bind_forcing(self, control: ControlField | None) -> Forcing:
        """The control's forcing on every mode, one row per mode, with the
        support fixed at omega0 in the co-moving frame (zero shift)."""
        if control is not None and control.omega0 != self.omega0:
            raise ValueError("control support differs from the simulator's omega0")
        modes = control.modes if control is not None else []
        a = control.a if control is not None else np.zeros(0, dtype=complex)
        return self._setup.forcing(modes, a, self.omega0)

    # -- propagation -----------------------------------------------------------
    def step_exact(self, state: GalerkinState, forcing: Forcing, dt: float) -> GalerkinState:
        """Advance by dt with exact exponentials and closed-form Duhamel."""
        X = _advance(self.modal, np.stack([state.xi, state.xi_dot, state.zeta], axis=1), state.t, dt, forcing)
        return GalerkinState(state.t + dt, state.ns.copy(), *X.T)

    def run_to_T(
        self,
        data: InitialData,
        control: ControlField | None,
        T: float,
        tol_rel: float = 1.0e-6,
        n_checkpoints: int = 0,
        precision: str = "float64",
    ):
        """Propagate to T and report terminal weighted norms and the verdict.

        At ``precision="mp"`` the terminal norms of a controlled run come
        from ``_terminal_norms_mp``; an uncontrolled run has nothing to
        cancel, so its float64 norms stand and ``arithmetic`` is None.
        """
        forcing = self.bind_forcing(control)
        state = self.initial_state(data)
        trajectory = []
        if n_checkpoints > 0:
            times = np.linspace(0.0, T, n_checkpoints + 1)
            for t_next in times[1:]:
                state = self.step_exact(state, forcing, float(t_next) - state.t)
                trajectory.append((state.t, self.weighted_norms(state)))
        else:
            state = self.step_exact(state, forcing, T)
        norms, arithmetic = self.weighted_norms(state), None
        if precision == "mp" and control is not None:
            norms, arithmetic = self._terminal_norms_mp(data, control, T), control.arithmetic
        data_norm = data.weighted_norm(*self.sigma_weights[:2])
        ratios = {k: (v / data_norm if data_norm > 0 else v) for k, v in norms.items()}
        report = TerminalReport(
            T=T, norms=norms, data_norm=data_norm, ratios=ratios,
            tol_rel=tol_rel, passed=bool(all(r <= tol_rel for r in ratios.values())),
            precision=precision, arithmetic=arithmetic, gram_deviation=self.gram.deviation,
            trajectory=trajectory,
        )
        return state, report

    def _terminal_norms_mp(self, data: InitialData, control: ControlField, T: float) -> dict:
        """Terminal weighted norms with the cancellation done in extended precision.

        The same set-up and propagation as ``step_exact``, from 0 to T, in
        the arithmetic the control was solved in (``ControlField.arithmetic``:
        double-double or mpmath) at its working precision: the modal table
        from the spectral table the synthesis used, the forcing from the
        solved coefficients at full precision.  The terminal coordinates are
        where fourteen-plus digits cancel.
        """
        spec, arithmetic = control.spec_mp, control.arithmetic
        with mp.workdps(spec.dps):
            setup = _ModalSetup(spec, arithmetic, self._setup.ns)
            X = _advance(setup.modal, setup.initial_state(data), 0, dd.lift(T, arithmetic),
                         setup.forcing(control.modes, control.a_hp, self.omega0))
            return _weighted_norms(setup.rho, X, self.sigma_weights)


def _eigen_rows(mu, rho, M, ick):
    """One branch of a mode's companion system, for doubles or mpmath values.

    With mu a cubic root and ick = i c kappa the transport shift, returns the
    right eigenvector V_j = (1, nu, rho/mu) (nu = mu - ick is the forward
    exponent), the left eigenvector W_j = (mu + ick, 1, M/mu) and the
    normalizer W_j . V_j = 2 mu + M rho / mu^2.  Broadcasts over arrays.
    """
    return (1, mu - ick, rho / mu), (mu + ick, 1, M / mu), 2 * mu + M * rho / mu**2


@dataclass
class TerminalReport:
    T: float
    norms: dict
    data_norm: float
    ratios: dict
    tol_rel: float
    passed: bool
    precision: str
    arithmetic: str | None  # of the extended-precision check: "dd", "mp", or None at float64 or uncontrolled
    gram_deviation: float
    trajectory: list = field(default_factory=list)

    def to_json(self, path) -> None:
        write_json(path, {k: v for k, v in self.__dict__.items() if k != "trajectory"})

    def trajectory_csv(self, path) -> None:
        write_csv(path, "t,norm_xi,norm_xi_dot,norm_zeta", "%r,%r,%r,%r",
                  ((t, norms["xi"], norms["xi_dot"], norms["zeta"]) for t, norms in self.trajectory))


def verify_duality(
    data: InitialData,
    control: ControlField,
    adjoint_coeffs: dict,
    T: float,
    ms: MovingSpectrum,
    nt: int | None = None,
) -> float:
    """Relative duality residual for one set of adjoint terminal coefficients;
    the one-element case of ``duality_residuals``."""
    return float(duality_residuals(data, control, [adjoint_coeffs], T, ms, nt=nt)[0])


def duality_residuals(
    data: InitialData,
    control: ControlField,
    coeff_sets: list,
    T: float,
    ms: MovingSpectrum,
    nt: int | None = None,
) -> np.ndarray:
    """Relative residuals between the quadrature and coefficient evaluations,
    one per set of adjoint terminal coefficients.

    Left side: int_0^T int_omega0 u * conj(phi) with phi = sum_k b_k
    e^{lam_k (T - t)} e^{i kappa_k x} the adjoint flow of the terminal
    coefficients b.  By linearity it is sum_k conj(b_k e^{lam_k T}) times the
    control's k-th moment, and the moments come from the one space-time
    Gauss quadrature of a control, ``control.quadrature_moments``; the
    default ``nt`` puts three time nodes on each period of the fastest
    integrand, never fewer than 480.
    Right side: the coefficient pairing 2 sum_n [ y0_n conj(phi_t,n(0)) -
    (y1_n + i c kappa_n y0_n) conj(phi_n(0)) ], an independent derivation of
    the moment targets (not ``control._moments``).
    The control must be on the spectrum's modes in their order, since the
    pairing indexes its moments by them.
    """
    modes = list(ms.modes())
    if list(control.modes) != modes:
        raise ValueError("the control's modes differ from the spectrum's modes")
    bcoef = np.array([[coeffs.get(mk, 0.0) for mk in modes] for coeffs in coeff_sets], dtype=complex)
    lam, kap, _ = mode_arrays(ms, modes)
    grow = bcoef * np.exp(lam * T)
    lhs = np.conj(grow) @ quadrature_moments(control, ms, nt if nt is not None else _time_nodes(T, lam, 480))

    # per mode n, sum over the branches of the adjoint flow at t = 0
    phi_0 = grow.reshape(len(coeff_sets), -1, len(BRANCHES)).sum(axis=2)
    phi_t0 = (grow * -lam).reshape(len(coeff_sets), -1, len(BRANCHES)).sum(axis=2)
    y0, y1 = np.array([data.coeff(n) for n in ms.mode_indices()]).T
    drift = 1j * ms.c * kap[::len(BRANCHES)] * y0
    rhs = 2.0 * (np.conj(phi_t0) @ y0 - np.conj(phi_0) @ (y1 + drift))
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return np.abs(lhs - rhs) / scale
