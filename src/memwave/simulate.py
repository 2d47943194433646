"""Exact propagation of the truncated moving-frame system with memory.

Per plane-wave mode the displacement/velocity/memory triple obeys a 3x3
linear system whose eigenvalues are the memory-cubic roots shifted by the
transport phase, nu_j = mu_j - i c kappa_n, so propagation is exact modal
exponentials and control forcing enters through closed-form Duhamel terms
(the forcing is itself a finite sum of space-time exponentials).  There is no
time-stepping error: what remains is truncation plus synthesis residual.
One routine does the propagation, on doubles, double-double values or
mpmath values: the float64 steps and the extended-precision terminal check
run the same code.

The control forcing is projected on the modes with the factor-1/2 plane-wave
convention, which is exactly the pairing under which the moment right-hand
sides -2(conj(mu) y0 + y1) null the state.  The exact non-orthogonal Gram of
the plane waves on the length-2 interval is computed and reported only: its
off-diagonal mass quantifies the convention's deviation from the exact
L2-projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import dd
from .control import (
    ControlField, InitialData, _exp, _lift, _space_factor, _time_factor, _time_nodes,
)
from .fractional import gauss_legendre
from .hp import MpSpectrum
from .moving import BRANCHES, MovingSpectrum

__all__ = [
    "GalerkinState",
    "Forcing",
    "ModalTable",
    "PlaneWaveGram",
    "GalerkinSimulator",
    "TerminalReport",
    "verify_duality",
    "map_frames",
]

SIGMA_WEIGHTS = (3.0, 2.0, 1.0)  # weighted norms for (xi, xi_t, zeta)


@dataclass
class GalerkinState:
    t: float
    ns: np.ndarray
    xi: np.ndarray
    xi_dot: np.ndarray
    zeta: np.ndarray
    frame: str = "moving"

    def copy(self) -> "GalerkinState":
        return GalerkinState(self.t, self.ns.copy(), self.xi.copy(), self.xi_dot.copy(), self.zeta.copy(), self.frame)


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
    kappa_i) x} dx.  The exponents separate as expos[i, k] = shift[i] -
    lam[k], so every exponential the propagation needs is a product of two
    per-mode tables.
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

    @classmethod
    def bind(cls, a, lam_c, kap_c, kappa, omega0, shift) -> "Forcing":
        x0, x1 = omega0
        e0 = _exp(1j * kap_c * x0)[None, :] * _exp(-1j * kappa * x0)[:, None]
        e1 = _exp(1j * kap_c * x1)[None, :] * _exp(-1j * kappa * x1)[:, None]
        return cls(a, _space_factor(kap_c[None, :] - kappa[:, None], x0, x1, e0, e1), lam_c, shift)


def _advance(modal: ModalTable, X, t, dt, forcing: Forcing):
    """States X (modes x (xi, xi_dot, zeta)) advanced from t to t + dt.

    Exact modal exponentials plus the closed-form Duhamel term: with
    expos = shift - lam and w = nu - shift + lam,
    int_0^dt e^{nu (dt - s)} e^{expos (t + s)} ds
        = e^{shift t} e^{-lam t} e^{nu dt} _time_factor(w, dt, e^{-lam dt} e^{-(nu - shift) dt}),
    so every exponential comes from a per-mode table.  Doubles, ``dd.DD``
    values or mpmath values (dtype object) in, the same out.
    """
    e_nu, e_lam = _exp(modal.nu * dt), _exp(-forcing.lam * dt)
    rel, e_rel = modal.nu - forcing.shift[:, None], _exp(forcing.shift * dt)[:, None] / e_nu
    at_t = forcing.S * (forcing.a * _exp(-forcing.lam * t) / 2)
    # one mode at a time: holding the mpmath temporaries of every (mode, branch,
    # control mode) triple at once costs the garbage collector more than the arithmetic
    duhamel = np.stack([
        (at_t[i] * _time_factor(rel[i][:, None] + forcing.lam, dt, e_rel[i][:, None] * e_lam)).sum(axis=1)
        for i in range(len(rel))
    ]) * _exp(forcing.shift * t)[:, None]
    coords = ((modal.W * X[:, None, :]).sum(axis=2) + duhamel) * e_nu / modal.wv
    return (modal.V * coords[:, None, :]).sum(axis=2)


def _weighted_norms(rho, X, sigma_weights) -> dict:
    """sqrt(sum_n rho_n^(2 sigma) |X_n|^2) per column (xi, xi_dot, zeta) of X.

    It reads the leading double of each value: whatever cancels has
    cancelled in computing X, and a sum of positive terms needs no more.
    """
    rho, X = dd.leading(rho).real, dd.leading(X)
    sq = (rho[:, None] ** (2 * np.asarray(sigma_weights)) * np.abs(X) ** 2).sum(axis=0)
    return {name: float(v ** 0.5) for name, v in zip(("xi", "xi_dot", "zeta"), sq)}


@dataclass
class PlaneWaveGram:
    """Exact Gram of {e^{i kappa_n x}} on the unit-length-2 interval.

    Off-diagonal entries 2 sin(kappa_m - kappa_n)/(kappa_m - kappa_n) do not
    vanish, so the family is only asymptotically orthogonal; the deviation
    report carries the measured off-diagonal mass.
    """

    ns: np.ndarray
    kappa: np.ndarray
    entries: np.ndarray
    deviation: float

    @classmethod
    def build(cls, ns, kappa) -> "PlaneWaveGram":
        d = kappa[None, :] - kappa[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            core = np.where(np.abs(d) < 1e-14, 2.0, 2.0 * np.sin(d) / np.where(np.abs(d) < 1e-14, 1.0, d))
        off = core - np.diag(np.diag(core))
        return cls(ns=np.asarray(ns), kappa=kappa, entries=core, deviation=float(np.max(np.abs(off))))


class GalerkinSimulator:
    """Exact modal propagator for the moving- or fixed-frame system."""

    def __init__(self, ms: MovingSpectrum, omega0, frame: str = "moving", sigma_weights=SIGMA_WEIGHTS):
        if frame not in ("moving", "fixed"):
            raise ValueError("frame must be 'moving' or 'fixed'")
        self.ms = ms
        self.sigma_weights = tuple(float(v) for v in sigma_weights)
        self.omega0 = (float(omega0[0]), float(omega0[1]))
        self.frame = frame
        self.ns = np.array(ms.mode_indices())
        self.kappa = np.array([ms.kappa(n) for n in self.ns])
        self.rho = np.array([ms.rho(n) for n in self.ns])
        self.gram = PlaneWaveGram.build(self.ns, self.kappa)
        mu = np.array([[ms.mu_of(int(n), j) for j in BRANCHES] for n in self.ns])
        ick = 1j * (ms.c if frame == "moving" else 0.0) * self.kappa
        self.modal = ModalTable.build(mu, self.rho, ms.M, ick)
        root, rho = self.modal.nu + ick[:, None], self.rho[:, None]
        res = np.abs(root**3 + rho * root - ms.M * rho) / (abs(ms.M) * rho + abs(ms.M) ** 3)
        if np.max(res) > 1e-10:
            n = self.ns[np.argmax(res) // 3]
            raise RuntimeError(f"propagator exponent residual {np.max(res):.2e} (relative) too large for mode {n}")

    # -- states --------------------------------------------------------------
    def initial_state(self, data: InitialData) -> GalerkinState:
        if self.frame != "moving":
            raise ValueError("initial data is given in the moving frame")
        y0 = np.array([data.coeff(int(n))[0] for n in self.ns])
        y1 = np.array([data.coeff(int(n))[1] for n in self.ns])
        xi = y0
        xi_dot = y1 - 1j * self.ms.c * self.kappa * y0
        zeta = np.zeros_like(xi)
        return GalerkinState(t=0.0, ns=self.ns.copy(), xi=xi, xi_dot=xi_dot, zeta=zeta, frame="moving")

    def weighted_norms(self, state: GalerkinState) -> dict:
        return _weighted_norms(self.rho, np.stack([state.xi, state.xi_dot, state.zeta], axis=1), self.sigma_weights)

    # -- forcing --------------------------------------------------------------
    def bind_forcing(self, control: ControlField | None, support_frame: str = "moving") -> Forcing:
        """The control's forcing on every mode, one row per mode.

        ``support_frame`` says where the control's support lives: "moving"
        is the synthesized situation (support fixed at omega0 in the
        co-moving frame); "frozen" pins the support at omega0 in the
        original frame instead, the diagnostic configuration in which the
        memory cannot be shut down.
        """
        if support_frame not in ("moving", "frozen"):
            raise ValueError("support_frame must be 'moving' or 'frozen'")
        if control is not None and control.omega0 != self.omega0:
            raise ValueError("control support differs from the simulator's omega0")
        if support_frame == "frozen" and self.frame != "fixed":
            raise ValueError("the frozen-support diagnostic runs in the fixed frame")
        modes = control.modes if control is not None else []
        a = control.a if control is not None else np.zeros(0, dtype=complex)
        lam = np.array([self.ms.eigenvalue(n, j) for n, j in modes], dtype=complex)
        kap_c = np.array([self.ms.kappa(n) for n, _ in modes])
        transported = self.frame == "fixed" and support_frame == "moving"
        shift = 1j * self.ms.c * self.kappa if transported else np.zeros(len(self.ns), dtype=complex)
        return Forcing.bind(a, lam, kap_c, self.kappa, self.omega0, shift)

    # -- propagation -----------------------------------------------------------
    def step_exact(self, state: GalerkinState, forcing: Forcing, dt: float) -> GalerkinState:
        """Advance by dt with exact exponentials and closed-form Duhamel."""
        X = _advance(self.modal, np.stack([state.xi, state.xi_dot, state.zeta], axis=1), state.t, dt, forcing)
        return GalerkinState(state.t + dt, state.ns.copy(), *X.T, frame=state.frame)

    def run_to_T(
        self,
        data: InitialData,
        control: ControlField | None,
        T: float,
        tol_rel: float = 1.0e-6,
        n_checkpoints: int = 0,
        precision: str = "float64",
    ):
        """Propagate to T and report terminal weighted norms and the verdict."""
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
        if precision == "mp":
            norms = self._terminal_norms_mp(data, control, T)
            arithmetic = control.arithmetic if control is not None else "mp"
        data_norm = data.weighted_norm()
        ratios = {k: (v / data_norm if data_norm > 0 else v) for k, v in norms.items()}
        report = TerminalReport(
            T=T, norms=norms, data_norm=data_norm, ratios=ratios,
            tol_rel=tol_rel, passed=bool(all(r <= tol_rel for r in ratios.values())),
            precision=precision, arithmetic=arithmetic, gram_deviation=self.gram.deviation,
            trajectory=trajectory,
        )
        return state, report

    def _terminal_norms_mp(self, data: InitialData, control: ControlField | None, T: float) -> dict:
        """Terminal weighted norms with the cancellation done in extended precision.

        The same propagation as ``step_exact``, from 0 to T, in the
        arithmetic the control was solved in (``ControlField.arithmetic``:
        double-double or mpmath; mpmath at 50 digits without a control): the
        modal table from the spectral table the synthesis used, the forcing
        from the solved coefficients at full precision.  The terminal
        coordinates are where fourteen-plus digits cancel.
        """
        if self.frame != "moving":
            raise ValueError("the extended-precision path covers the moving frame")
        spec = control.spec_mp if (control is not None and control.spec_mp is not None) else None
        dps = spec.dps if spec is not None else 50
        arithmetic = control.arithmetic if control is not None else "mp"
        with mp.workdps(dps):
            if spec is None:
                spec = MpSpectrum(self.ms, dps=dps)
            ns = [int(n) for n in self.ns]
            modes, a = [], _lift([], arithmetic)
            if control is not None:
                modes = control.modes
                a = control.a_hp if control.a_hp is not None else _lift(control.a, arithmetic)
            kappa = _lift([spec.kappa(n) for n in ns], arithmetic)
            rho = _lift([spec.rho(n) for n in ns], arithmetic)
            ick = 1j * _lift(spec.c, arithmetic) * kappa
            mu = _lift([spec.mu[abs(n) - 1] for n in ns], arithmetic)
            modal = ModalTable.build(mu, rho, _lift(spec.M, arithmetic), ick)
            zeros = _lift(np.zeros(len(ns)), arithmetic)
            forcing = Forcing.bind(
                a, _lift([spec.lam(n, j) for n, j in modes], arithmetic),
                _lift([spec.kappa(n) for n, _ in modes], arithmetic), kappa,
                tuple(_lift(mp.mpf(v), arithmetic) for v in self.omega0), zeros,
            )
            y0, y1 = (_lift([data.coeff(n)[k] for n in ns], arithmetic) for k in (0, 1))
            X0 = np.stack([y0, y1 - ick * y0, zeros], axis=1)
            return _weighted_norms(rho, _advance(modal, X0, 0, _lift(mp.mpf(T), arithmetic), forcing),
                                   self.sigma_weights)


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
    arithmetic: str | None  # of the extended-precision check: "dd", "mp", or None at float64
    gram_deviation: float
    trajectory: list = field(default_factory=list)

    def to_json(self, path) -> None:
        payload = {k: v for k, v in self.__dict__.items() if k != "trajectory"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    def trajectory_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["t", "norm_xi", "norm_xi_dot", "norm_zeta"])
            for t, norms in self.trajectory:
                writer.writerow([repr(t), repr(norms["xi"]), repr(norms["xi_dot"]), repr(norms["zeta"])])


def map_frames(state: GalerkinState, ms: MovingSpectrum, direction: str) -> GalerkinState:
    """Phase conjugation between the co-moving and fixed frames.

    moving->fixed:  y_n = xi_n e^{i kappa_n c t},
                    (y_t)_n = (xi_dot_n + i c kappa_n xi_n) e^{i kappa_n c t}.
    """
    kappa = np.array([ms.kappa(int(n)) for n in state.ns])
    phase = np.exp(1j * kappa * ms.c * state.t)
    out = state.copy()
    if direction == "moving_to_fixed":
        if state.frame != "moving":
            raise ValueError("state is not in the moving frame")
        out.xi = state.xi * phase
        out.xi_dot = (state.xi_dot + 1j * ms.c * kappa * state.xi) * phase
        out.zeta = state.zeta * phase
        out.frame = "fixed"
    elif direction == "fixed_to_moving":
        if state.frame != "fixed":
            raise ValueError("state is not in the fixed frame")
        out.xi = state.xi / phase
        out.xi_dot = state.xi_dot / phase - 1j * ms.c * kappa * (state.xi / phase)
        out.zeta = state.zeta / phase
        out.frame = "moving"
    else:
        raise ValueError("direction must be 'moving_to_fixed' or 'fixed_to_moving'")
    return out


def verify_duality(
    data: InitialData,
    control: ControlField,
    adjoint_coeffs: dict,
    T: float,
    ms: MovingSpectrum,
    nt: int | None = None,
    nx: int = 48,
) -> float:
    """Relative residual between the quadrature and coefficient evaluations.

    Left side: space-time Gauss quadrature of u * conj(phi) over (0,T) x
    omega0 with phi the adjoint flow of the given terminal coefficients; the
    default ``nt`` puts three time nodes on each period of the fastest
    integrand, never fewer than 480.
    Right side: the coefficient pairing 2 sum_n [ y0_n conj(phi_t,n(0)) -
    (y1_n + i c kappa_n y0_n) conj(phi_n(0)) ].
    """
    modes = [(n, j) for n in ms.mode_indices() for j in BRANCHES]
    bcoef = np.array([adjoint_coeffs.get(mk, 0.0) for mk in modes], dtype=complex)
    lam = np.array([ms.eigenvalue(n, j) for n, j in modes])
    kap = np.array([ms.kappa(n) for n, _ in modes])

    tg, tw = gauss_legendre(nt if nt is not None else _time_nodes(T, lam, 480))
    t = 0.5 * T * (tg + 1.0)
    tw = 0.5 * T * tw
    x0, x1 = control.omega0
    xg, xw = gauss_legendre(nx)
    x = 0.5 * (x1 - x0) * (xg + 1.0) + x0
    xw = 0.5 * (x1 - x0) * xw

    lam_u = np.array([ms.eigenvalue(n, j) for n, j in control.modes])
    kap_u = np.array([ms.kappa(n) for n, _ in control.modes])
    u = np.exp(-lam_u[:, None] * t[None, :]).T @ (control.a[:, None] * np.exp(1j * kap_u[:, None] * x[None, :]))
    phi = np.exp(lam[:, None] * (T - t[None, :])).T @ (bcoef[:, None] * np.exp(1j * kap[:, None] * x[None, :]))
    lhs = complex(tw @ (u * np.conj(phi)) @ xw)

    rhs = 0.0 + 0.0j
    for i, n in enumerate(np.array(ms.mode_indices())):
        y0n, y1n = data.coeff(int(n))
        sel = [k for k, (nn, _) in enumerate(modes) if nn == n]
        phi_n0 = np.sum(bcoef[sel] * np.exp(lam[sel] * T))
        phi_t_n0 = np.sum(bcoef[sel] * (-lam[sel]) * np.exp(lam[sel] * T))
        kn = ms.kappa(int(n))
        rhs += 2.0 * (y0n * np.conj(phi_t_n0) - (y1n + 1j * ms.c * kn * y0n) * np.conj(phi_n0))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)
