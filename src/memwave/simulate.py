"""Exact propagation of the truncated moving-frame system with memory.

Per plane-wave mode the displacement/velocity/memory triple obeys a 3x3
linear system whose eigenvalues are the memory-cubic roots shifted by the
transport phase, nu_j = mu_j - i c kappa_n, so propagation is exact modal
exponentials and control forcing enters through closed-form Duhamel terms
(the forcing is itself a finite sum of space-time exponentials).  There is no
time-stepping error: what remains is truncation plus synthesis residual.

The control forcing is projected on the modes with the factor-1/2 plane-wave
convention, which is exactly the pairing under which the moment right-hand
sides -2(conj(mu) y0 + y1) null the state; the exact non-orthogonal Gram of
the plane waves on the length-2 interval is computed and reported (its
off-diagonal mass quantifies the convention's deviation from the exact
L2-projection), and an ``exact_gram`` projection is available for comparative
runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .control import (
    _MP_EXP, ControlField, InitialData, _mode_exponentials, _space_factor, _time_factor, _time_nodes,
)
from .fractional import gauss_legendre
from .hp import MpSpectrum
from .moving import BRANCHES, MovingSpectrum

__all__ = [
    "GalerkinState",
    "ModePropagator",
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


@dataclass
class ModePropagator:
    """Eigen-structure of one mode's companion system."""

    n: int
    rho: float
    kappa: float
    nu: np.ndarray       # three forward exponents
    V: np.ndarray        # right eigenvectors as columns
    W: np.ndarray        # left eigenvectors as rows
    wv: np.ndarray       # W_j . V_j normalizers
    kappa_transport: float = 0.0

    def characteristic_residual(self, M: float) -> float:
        """Max residual of (nu + i c kappa)^3 + rho (.) - M rho over branches."""
        res = 0.0
        for j in range(3):
            mu = self.nu[j] + 1j * self.kappa_transport
            res = max(res, abs(mu**3 + self.rho * mu - M * self.rho))
        return float(res)


@dataclass
class PlaneWaveGram:
    """Exact Gram of {e^{i kappa_n x}} on the unit-length-2 interval.

    Off-diagonal entries 2 sin(kappa_m - kappa_n)/(kappa_m - kappa_n) do not
    vanish, so the family is only asymptotically orthogonal; the deviation
    report carries the measured mass and conditioning.  On the moving
    interval the entries pick up the conjugation phase exp(i (kappa_m -
    kappa_n) c t) around the same core matrix.
    """

    ns: np.ndarray
    kappa: np.ndarray
    entries: np.ndarray
    deviation: float
    eig_min: float
    eig_max: float

    @classmethod
    def build(cls, ns, kappa) -> "PlaneWaveGram":
        d = kappa[None, :] - kappa[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            core = np.where(np.abs(d) < 1e-14, 2.0, 2.0 * np.sin(d) / np.where(np.abs(d) < 1e-14, 1.0, d))
        w = np.linalg.eigvalsh(core)
        off = core - np.diag(np.diag(core))
        return cls(ns=np.asarray(ns), kappa=kappa, entries=core,
                   deviation=float(np.max(np.abs(off))), eig_min=float(w[0]), eig_max=float(w[-1]))

    def entries_at(self, t: float, c: float) -> np.ndarray:
        phase = np.exp(1j * self.kappa * c * t)
        return np.conj(phase)[:, None] * self.entries * phase[None, :]


class GalerkinSimulator:
    """Exact modal propagator for the moving- or fixed-frame system."""

    def __init__(
        self, ms: MovingSpectrum, omega0, frame: str = "moving",
        projection: str = "orthogonal", sigma_weights=SIGMA_WEIGHTS,
    ):
        if frame not in ("moving", "fixed"):
            raise ValueError("frame must be 'moving' or 'fixed'")
        if projection not in ("orthogonal", "exact_gram"):
            raise ValueError("projection must be 'orthogonal' or 'exact_gram'")
        self.ms = ms
        self.sigma_weights = tuple(float(v) for v in sigma_weights)
        self.omega0 = (float(omega0[0]), float(omega0[1]))
        self.frame = frame
        self.projection = projection
        self.ns = np.array(ms.mode_indices())
        self.kappa = np.array([ms.kappa(n) for n in self.ns])
        self.rho = np.array([ms.rho(n) for n in self.ns])
        self.gram = PlaneWaveGram.build(self.ns, self.kappa)
        self.props = {int(n): self._propagator(int(n)) for n in self.ns}
        if projection == "exact_gram":
            cond = self.gram.eig_max / max(self.gram.eig_min, 1e-300)
            if cond > 1e12:
                import warnings

                warnings.warn(
                    f"plane-wave Gram condition {cond:.2e} exceeds 1e12; the exact_gram "
                    "projection still inverts it in float64, so its forcing amplitudes "
                    "are not reliable"
                )

    def _propagator(self, n: int) -> ModePropagator:
        ms = self.ms
        rho, kap = ms.rho(n), ms.kappa(n)
        c_eff = ms.c if self.frame == "moving" else 0.0
        rows = [_eigen_rows(ms.mu_of(n, j), rho, ms.M, 1j * c_eff * kap) for j in BRANCHES]
        V = np.array([v for v, _, _ in rows]).T
        W = np.array([w for _, w, _ in rows])
        wv = np.array([d for _, _, d in rows])
        nu = V[1].copy()
        prop = ModePropagator(n=n, rho=rho, kappa=kap, nu=nu, V=V, W=W, wv=wv, kappa_transport=c_eff * kap)
        for j in range(3):
            m = nu[j] + 1j * c_eff * kap
            res = abs(m**3 + rho * m - ms.M * rho)
            if res > 1e-10 * (abs(ms.M) * rho + abs(ms.M) ** 3):
                raise RuntimeError(f"propagator exponent residual {res:.2e} too large for mode {n}")
        return prop

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
        s_xi, s_v, s_z = self.sigma_weights
        return {
            "xi": float(np.sqrt(np.sum(self.rho ** (2 * s_xi) * np.abs(state.xi) ** 2))),
            "xi_dot": float(np.sqrt(np.sum(self.rho ** (2 * s_v) * np.abs(state.xi_dot) ** 2))),
            "zeta": float(np.sqrt(np.sum(self.rho ** (2 * s_z) * np.abs(state.zeta) ** 2))),
        }

    # -- forcing --------------------------------------------------------------
    def bind_forcing(self, control: ControlField | None, support_frame: str = "moving"):
        """Per-mode exponential forcing terms (amplitude, exponent).

        ``support_frame`` says where the control's support lives: "moving"
        is the synthesized situation (support fixed at omega0 in the
        co-moving frame); "frozen" pins the support at omega0 in the
        original frame instead, the diagnostic configuration in which the
        memory cannot be shut down.
        """
        if support_frame not in ("moving", "frozen"):
            raise ValueError("support_frame must be 'moving' or 'frozen'")
        if control is None:
            return {int(n): (np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)) for n in self.ns}
        if control.omega0 != self.omega0:
            raise ValueError("control support differs from the simulator's omega0")
        if support_frame == "frozen" and self.frame != "fixed":
            raise ValueError("the frozen-support diagnostic runs in the fixed frame")
        lam = np.array([self.ms.eigenvalue(n, j) for n, j in control.modes])
        kap_c = np.array([self.ms.kappa(n) for n, _ in control.modes])
        x0, x1 = self.omega0
        d = kap_c[None, :] - self.kappa[:, None]
        S = _space_factor(d, x0, x1, np.exp(1j * d * x0), np.exp(1j * d * x1))
        out = {}
        if self.projection == "orthogonal":
            for i, n in enumerate(self.ns):
                amps = 0.5 * S[i] * control.a
                expos = -lam.copy()
                if self.frame == "fixed" and support_frame == "moving":
                    expos = expos + 1j * self.ms.c * self.kappa[i]
                out[int(n)] = (amps, expos)
        else:
            Ginv = np.linalg.inv(self.gram.entries)
            for i, n in enumerate(self.ns):
                amps = []
                expos = []
                for p in range(len(self.ns)):
                    w = Ginv[i, p]
                    if abs(w) < 1e-16:
                        continue
                    amps.append(w * S[p] * control.a)
                    shift = 1j * self.ms.c * (self.kappa[i] - self.kappa[p])
                    expos.append(-lam - shift)
                amps = np.concatenate(amps)
                expos = np.concatenate(expos)
                if self.frame == "fixed":
                    expos = expos + 1j * self.ms.c * self.kappa[i]
                out[int(n)] = (amps, expos)
        return out

    # -- propagation -----------------------------------------------------------
    def step_exact(self, state: GalerkinState, forcing, dt: float) -> GalerkinState:
        """Advance by dt with exact exponentials and closed-form Duhamel."""
        new = state.copy()
        new.t = state.t + dt
        for i, n in enumerate(self.ns):
            prop = self.props[int(n)]
            X = np.array([state.xi[i], state.xi_dot[i], state.zeta[i]])
            coords = (prop.W @ X) / prop.wv
            grow = np.exp(prop.nu * dt)
            coords = coords * grow
            amps, expos = forcing[int(n)]
            if len(amps):
                num = np.exp(expos[None, :] * state.t) * amps[None, :]
                d = expos[None, :] - prop.nu[:, None]
                small = np.abs(d) < 1e-12
                d_safe = np.where(small, 1.0, d)
                phi = (np.exp(expos[None, :] * dt) - np.exp(prop.nu[:, None] * dt)) / d_safe
                phi = np.where(small, dt * np.exp(prop.nu[:, None] * dt), phi)
                coords = coords + (num * phi).sum(axis=1) / prop.wv
            X_new = prop.V @ coords
            new.xi[i], new.xi_dot[i], new.zeta[i] = X_new
        return new

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
        norms = self.weighted_norms(state)
        if precision == "mp":
            norms = self._terminal_norms_mp(data, control, T)
        data_norm = data.weighted_norm()
        ratios = {k: (v / data_norm if data_norm > 0 else v) for k, v in norms.items()}
        report = TerminalReport(
            T=T, norms=norms, data_norm=data_norm, ratios=ratios,
            tol_rel=tol_rel, passed=bool(all(r <= tol_rel for r in ratios.values())),
            projection=self.projection, precision=precision,
            gram_deviation=self.gram.deviation,
            trajectory=trajectory,
        )
        return state, report

    def _terminal_norms_mp(self, data: InitialData, control: ControlField | None, T: float) -> dict:
        """Terminal weighted norms with the cancellation done at high precision.

        In eigen-coordinates the terminal value is e^{nu T} times a bracket
        combining the initial coordinate with the Duhamel sums; the bracket is
        where fourteen-plus digits cancel, so it is evaluated under mpmath
        with the same spectral table the synthesis used.
        """
        if self.frame != "moving" or self.projection != "orthogonal":
            raise ValueError("the extended-precision path covers the moving frame, factor-1/2 projection")
        spec = control.spec_mp if (control is not None and control.spec_mp is not None) else None
        dps = spec.dps if spec is not None else 50
        with mp.workdps(dps):
            if spec is None:
                spec = MpSpectrum(self.ms, dps=dps)
            T_mp = mp.mpf(T)
            x0, x1 = mp.mpf(self.omega0[0]), mp.mpf(self.omega0[1])
            modes, a_mp = [], []
            if control is not None:
                modes = control.modes
                a_mp = control.a_mp if control.a_mp is not None else [mp.mpc(v) for v in control.a]
            a_mp = np.array(a_mp, dtype=object)
            lam_c = np.array([spec.lam(n, j) for n, j in modes], dtype=object)
            kap_c = np.array([spec.kappa(n) for n, _ in modes], dtype=object)
            c0, c1, cT = _mode_exponentials(lam_c, kap_c, x0, x1, T_mp, _MP_EXP)
            sq = [mp.mpf(0), mp.mpf(0), mp.mpf(0)]
            for n in [int(v) for v in self.ns]:
                kap, rho = spec.kappa(n), spec.rho(n)
                ick = 1j * spec.c * kap
                y0n, y1n = (mp.mpc(v) for v in data.coeff(n))
                X0 = (y0n, y1n - ick * y0n, 0)
                e0, e1 = mp.conj(mp.exp(1j * kap * x0)), mp.conj(mp.exp(1j * kap * x1))
                amps = a_mp * _space_factor(kap_c - kap, x0, x1, c0 * e0, c1 * e1) / 2
                XT = [mp.mpc(0), mp.mpc(0), mp.mpc(0)]
                for mu in spec.mu[abs(n) - 1]:
                    v, w, wv = _eigen_rows(mu, rho, spec.M, ick)
                    nu = v[1]
                    bracket = sum(wk * xk for wk, xk in zip(w, X0))
                    bracket += sum(amps * _time_factor(lam_c + nu, T_mp, cT * mp.exp(-nu * T_mp)))
                    coord_T = mp.exp(nu * T_mp) * bracket / wv
                    for comp in range(3):
                        XT[comp] += v[comp] * coord_T
                for comp, sigma in enumerate(self.sigma_weights):
                    sq[comp] += rho ** (2 * mp.mpf(sigma)) * abs(XT[comp]) ** 2
            return {
                "xi": float(mp.sqrt(sq[0])),
                "xi_dot": float(mp.sqrt(sq[1])),
                "zeta": float(mp.sqrt(sq[2])),
            }


def _eigen_rows(mu, rho, M, ick):
    """One branch of a mode's companion system, for doubles or mpmath values.

    With mu a cubic root and ick = i c kappa the transport shift, returns the
    right eigenvector V_j = (1, nu, rho/mu) (nu = mu - ick is the forward
    exponent), the left eigenvector W_j = (mu + ick, 1, M/mu) and the
    normalizer W_j . V_j = 2 mu + M rho / mu^2.
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
    projection: str
    precision: str
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
