"""Biorthogonal family to the moving-spectrum exponentials on [-T/2, T/2].

The Fourier transform of the family member attached to mode (m,k) is the
compensated product divided by its derivative at the mode's zero and the
linear factor vanishing there:

    theta_hat(x) = P~(x) / ( P~'(z_mk) * (x - z_mk) ),   z_mk = -i conj(lam),

so theta_hat equals 1 at z_mk and 0 at every other mode zero.  Sampling the
inverse transform over a finite frequency window gives a band-limited raw
family whose biorthogonality defect reflects the window truncation; a final
within-span recombination against the measured Gram (the constructive
realization of the horizon-extension step) makes the produced family
biorthogonal to quadrature accuracy.  The reported figures keep both stages
visible: ``raw_deviation`` for the analytic construction, ``gram_deviation``
for the shipped family measured on an independent quadrature, and
``window_attempts`` for every frequency window tried on the way.

Every time grid is uniform blocks: the Gauss panels of both time quadratures
partition [-T/2, T/2] evenly, and the export grid is equally spaced, so each
node is a block center plus an offset and e^{ixt} = e^{ix t_c} e^{ix delta}.
The inverse transform therefore takes exponentials per center and per offset
instead of per node, and samples a whole grid with one matrix product.

The closed forms are shared, not re-derived: the frequency panels come from
``fractional.gauss_interval`` broadcast over the panel ends, ``time_gram`` is
``control._time_factor`` shifted to [-T/2, T/2], ``horizon_threshold`` lives
in ``moving`` (re-exported here), and the lower summation runs the same
``moving.weighted_inequality`` audit as the observability certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import _time_factor
from .fractional import gauss_interval, gauss_legendre, write_csv, write_json
from .moving import BRANCHES, horizon_threshold, j_conj, weighted_inequality
from .product import ProductFunction, growth_compensator, zero_abscissas

__all__ = [
    "BiorthogonalFamily",
    "build_biorthogonal",
    "horizon_threshold",
    "LowerSummationReport",
    "verify_lower_summation",
    "time_gram",
]

def _time_quadrature(T: float, x_window: float, per_panel: int = 12, density: float = 1.0):
    """Gauss panels on a uniform partition of [-T/2, T/2].

    Returns (centers, offsets, weights): the nodes are
    centers[:, None] + offsets[None, :] raveled, one row per panel.
    """
    n_panels = max(8, int(math.ceil(density * T * x_window / (1.5 * per_panel))))
    half = T / (2.0 * n_panels)
    x0, w0 = gauss_legendre(per_panel)
    centers = -T / 2.0 + half * (2.0 * np.arange(n_panels) + 1.0)
    return centers, half * x0, np.tile(half * w0, n_panels)


def _export_grid(T: float, n: int):
    """n equally spaced points on [-T/2, T/2] as blocks of about sqrt(n)
    consecutive points: (centers, offsets), of which the first n of
    centers[:, None] + offsets[None, :] raveled are the grid."""
    dt = T / max(n - 1, 1)
    block = max(1, math.ceil(math.sqrt(n)))
    centers = -T / 2.0 + dt * block * np.arange(math.ceil(n / block))
    return centers, dt * np.arange(block)


def _grid(centers: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return (centers[:, None] + offsets[None, :]).ravel()


def _cis_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """e^{i a_j b_k} as a len(a) x len(b) matrix, the same values as
    np.exp(1j * np.outer(a, b)): the phases are formed in the real part, the
    sine is taken from them into the imaginary part and the cosine in place,
    so no real or complex temporary of that size is made."""
    out = np.empty((len(a), len(b)), dtype=complex)
    np.multiply.outer(a, b, out=out.real)
    np.sin(out.real, out=out.imag)
    np.cos(out.real, out=out.real)
    return out


def _inverse_transform(weighted: np.ndarray, x_nodes: np.ndarray, centers: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
    """sum_x weighted[:, x] e^{ixt} / (2 pi) at t = centers[:, None] + offsets[None, :]
    (raveled).

    With e^{ixt} = e^{ix delta} e^{ix t_c} the offsets fold into the left
    factor, L[(k, o), x] = weighted[k, x] e^{ix delta_o} / (2 pi), and the
    whole grid is one product L @ e^{ix t_c}, (rows * offsets) x nx times
    nx x centers: exponentials are taken per offset and per center, never
    per node, and no nx x nodes matrix is formed.
    """
    left = (weighted[:, None, :] / (2.0 * math.pi)) * _cis_outer(offsets, x_nodes)[None, :, :]
    out = left.reshape(-1, len(x_nodes)) @ _cis_outer(x_nodes, centers)
    out = out.reshape(len(weighted), len(offsets), len(centers)).transpose(0, 2, 1)
    return out.reshape(len(weighted), -1)


@dataclass
class BiorthogonalFamily:
    modes: list
    lam: np.ndarray
    rho: np.ndarray
    T: float
    window: float
    t_grid: np.ndarray
    theta: np.ndarray            # samples on t_grid, polished family
    norms: np.ndarray
    gram: np.ndarray             # final family vs exponentials, independent quadrature
    gram_deviation: float
    raw_deviation: float
    raw_diag_error: float
    tail_estimate: float
    window_attempts: list        # {"window", "gram_deviation"} of each window tried, in order

    def index(self, n: int, j: int) -> int:
        return self.modes.index((n, j))

    def norm_ratio_bound(self) -> float:
        """Fitted uniform constant in the norm bound ||theta| | <= C rho."""
        return float(np.max(self.norms / self.rho))

    def export_samples(self, directory) -> None:
        import pathlib

        d = pathlib.Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        t_grid = self.t_grid.tolist()
        for (n, j), theta in zip(self.modes, self.theta):
            write_csv(d / f"theta_{n}_{j}.csv", "t,re_theta,im_theta", "%r,%r,%r",
                      zip(t_grid, theta.real.tolist(), theta.imag.tolist()))

    def export_manifest(self, path) -> None:
        payload = {
            "T": self.T,
            "window": self.window,
            "modes": [list(m) for m in self.modes],
            "norms": self.norms.tolist(),
            "norm_ratio_bound": self.norm_ratio_bound(),
            "gram_deviation": self.gram_deviation,
            "raw_deviation": self.raw_deviation,
            "tail_estimate": self.tail_estimate,
            "window_attempts": self.window_attempts,
            "polished": True,
        }
        write_json(path, payload)


def build_biorthogonal(
    pf: ProductFunction,
    T: float,
    family_N: int,
    x_window: float | None = None,
    per_panel: int = 8,
    n_export: int = 640,
    symmetrize: bool | None = None,
    tol: float = 1.0e-3,
) -> BiorthogonalFamily:
    """Construct the sampled family for all modes |n| <= family_N."""
    ms = pf.ms
    if family_N > ms.N:
        raise ValueError("family_N exceeds the product's spectrum truncation")
    if T <= horizon_threshold(ms.c, ms.gamma):
        raise ValueError("T must exceed the horizon threshold for this velocity")
    modes = [(n, j) for n in ms.mode_indices() if abs(n) <= family_N for j in BRANCHES]
    lam = np.array([ms.lam(n, j) for n, j in modes])
    rho = np.array([ms.rho(n) for n, _ in modes])
    zeros = -1j * np.conj(lam)

    if symmetrize is None:
        symmetrize = ms.critical is None

    x_max_im = float(np.max(np.abs(lam.imag)))
    X = float(x_window) if x_window is not None else max(150.0, 5.0 * x_max_im)

    attempts = []
    for _ in range(3):
        comp, fit = growth_compensator(pf, X)
        # exponential-type budget: product plus multiplier must fit T/2
        y_probe = np.linspace(0.3, 0.55, 6) * abs(ms.c) * float(ms.kappa_pos[-1])
        tvals = (pf.log_eval(1j * y_probe) + comp.log_eval(1j * y_probe)).real
        type_total = float(np.polyfit(y_probe, tvals, 1)[0])
        if type_total > 0.98 * T / 2.0:
            raise ValueError(
                f"combined exponential type {type_total:.3f} does not fit the horizon T/2 = {T/2:.3f}"
            )

        xr = zero_abscissas(pf, X)
        breaks = np.unique(np.concatenate(
            [-xr[::-1], [0.0], xr, comp.t[comp.t <= X], -comp.t[comp.t <= X], [-X, X]]
        ))
        breaks = breaks[(breaks >= -X) & (breaks <= X)]
        x_nodes, x_weights = (v.ravel() for v in gauss_interval(breaks[:-1, None], breaks[1:, None], per_panel))

        logP = pf.log_eval(x_nodes.astype(complex)) + comp.log_eval(x_nodes.astype(complex))
        Pvals = np.exp(logP)
        # P~'(z) = P'(z) * M(z) at a zero of P
        dP = np.array([pf.derivative_at_mode(n, j) for (n, j) in modes]) * np.exp(comp.log_eval(zeros))

        theta_hat = Pvals[None, :] / ((x_nodes[None, :] - zeros[:, None]) * dP[:, None])

        # boundary-term estimate for the window truncation of the Gram rows,
        # with the exact kernel K_n(x) = 2 sinh((ix-conj lam) T/2)/(ix-conj lam)
        edge_rows = np.abs(theta_hat[:, [0, -1]]).max(axis=1)
        kmax = float(np.max(
            2.0 * np.exp(np.abs(lam.real) * T / 2.0) / np.abs(1j * X - np.conj(lam))
        ))
        tail_est = float(np.max(edge_rows) * kmax / (2.0 * math.pi) / (T / 2.0))

        primaries = [i for i, (n, j) in enumerate(modes) if (not symmetrize) or n > 0]
        partners = [modes.index((-modes[i][0], j_conj(modes[i][1]))) for i in primaries]
        weighted = theta_hat[primaries] * x_weights[None, :]

        def sample(centers, offsets):
            out = np.empty((len(modes), len(centers) * len(offsets)), dtype=complex)
            out[primaries] = _inverse_transform(weighted, x_nodes, centers, offsets)
            if symmetrize:
                out[partners] = np.conj(out[primaries])
            return out

        c1, o1, w1 = _time_quadrature(T, X, per_panel=12, density=1.0)
        theta_raw = sample(c1, o1)
        E1 = np.exp(-np.conj(lam)[:, None] * _grid(c1, o1)[None, :])
        gram_raw = theta_raw @ (E1 * w1[None, :]).T
        eye = np.eye(len(modes))
        raw_dev = float(np.max(np.abs(gram_raw - eye)))
        raw_diag = float(np.max(np.abs(np.diag(gram_raw) - 1.0)))

        C = np.linalg.inv(gram_raw)

        # independent verification quadrature (different panel layout)
        c2, o2, w2 = _time_quadrature(T, X, per_panel=10, density=1.37)
        theta2 = C @ sample(c2, o2)
        E2 = np.exp(-np.conj(lam)[:, None] * _grid(c2, o2)[None, :])
        gram = theta2 @ (E2 * w2[None, :]).T
        dev = float(np.max(np.abs(gram - eye)))
        attempts.append({"window": X, "gram_deviation": dev})
        if dev <= tol:
            break
        X *= 1.5
    else:
        tried = ", ".join(f"{a['window']:g}" for a in attempts)
        raise RuntimeError(
            f"window enlargement failed: family deviation {dev:.2e} > {tol:.0e} (windows {tried})"
        )

    norms = np.sqrt(np.abs((np.abs(theta2) ** 2 @ w2)))
    ce, oe = _export_grid(T, n_export)
    t_grid = _grid(ce, oe)[:n_export]
    theta_exp = C @ sample(ce, oe)[:, :n_export]

    return BiorthogonalFamily(
        modes=modes, lam=lam, rho=rho, T=T, window=X,
        t_grid=t_grid, theta=theta_exp, norms=norms,
        gram=gram, gram_deviation=dev, raw_deviation=raw_dev,
        raw_diag_error=raw_diag, tail_estimate=tail_est, window_attempts=attempts,
    )


def time_gram(lam: np.ndarray, T: float) -> np.ndarray:
    """Closed-form Gram of the exponentials e^{-lam t} on [-T/2, T/2]:
    with w = lam_r + conj(lam_c), the integral of e^{-w t} over [-T/2, T/2]
    is e^{w T/2} times the control's integral over [0, T]."""
    w = lam[:, None] + np.conj(lam)[None, :]
    return np.exp(w * T / 2.0) * _time_factor(w, T, np.exp(-w * T))


@dataclass
class LowerSummationReport:
    c46_hat: float
    trials: int
    failures: int
    min_margin: float
    adversarial_margin: float
    adversarial_pair: tuple
    passed: bool


def verify_lower_summation(bf: BiorthogonalFamily, trials: int = 200, seed: int = 0) -> LowerSummationReport:
    """Weighted coefficient sums against exponential-sum norms.

    First fits the family constant C in ||sum beta theta||^2 <= C sum rho^2
    |beta|^2 from single modes and random combinations, then checks
    sum |a|^2 / rho^2 <= C * ||sum a e^{-lam t}||^2 on random vectors plus an
    adversarial vector concentrated on the closest spectral pair.
    """
    rng = np.random.default_rng(seed)
    lam, rho = bf.lam, bf.rho
    m = len(bf.modes)
    # family constant from the produced samples
    dt = bf.t_grid[1] - bf.t_grid[0]
    c46 = float(np.max(bf.norms**2 / rho**2))
    for _ in range(64):
        beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        comb = beta @ bf.theta
        num = float(np.sum(np.abs(comb) ** 2) * dt)
        c46 = max(c46, num / float(np.sum(rho**2 * np.abs(beta) ** 2)))

    vectors = np.zeros((trials, m), dtype=complex)
    for a in vectors:
        support = rng.choice(m, size=min(50, m), replace=False)
        a[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    # random trials, then the closest pair in the spectrum phased to minimize the norm
    lhs, rhs, (i, j) = weighted_inequality(time_gram(lam, bf.T), rho, lam, vectors)
    margin = c46 * rhs - lhs
    failures = int(np.count_nonzero(margin[:-1] < -1e-9 * lhs[:-1]))
    relative = margin / np.maximum(lhs, 1e-300)
    min_margin, adv_margin = float(np.min(relative[:-1], initial=np.inf)), float(relative[-1])
    passed = failures == 0 and adv_margin >= -1e-9
    return LowerSummationReport(
        c46_hat=c46, trials=trials, failures=failures,
        min_margin=min_margin, adversarial_margin=adv_margin,
        adversarial_pair=(bf.modes[i], bf.modes[j]), passed=bool(passed),
    )
