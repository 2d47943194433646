"""Biorthogonal family to the moving-spectrum exponentials on [-T/2, T/2].

The Fourier transform of the family member attached to mode (m,k) is the
compensated product divided by its derivative at the mode's zero and the
linear factor vanishing there:

    theta_hat(x) = P~(x) / ( P~'(z_mk) * (x - z_mk) ),   z_mk = -i conj(lam),

so theta_hat equals 1 at z_mk and 0 at every other mode zero.  Sampling the
inverse transform over a finite frequency window gives a band-limited raw
family theta_k(t) = sum_x w_k(x) e^{ixt} / (2 pi), whose biorthogonality
defect reflects the window truncation.  Its Gram against the exponentials
is exact, sum_x w_k(x) K(x, lam) / (2 pi) with K the closed-form integral of
e^{ixt} e^{-conj(lam) t} over [-T/2, T/2], so no time grid is sampled for
it.  A within-span recombination by the inverse of that Gram (the
constructive realization of the horizon-extension step) makes the produced
family biorthogonal up to round-off amplified by that Gram's conditioning.  The reported figures keep both
stages visible: ``raw_deviation`` for the analytic construction,
``gram_deviation`` for the shipped family measured on an independent Gauss
quadrature, and ``window_attempts`` for every frequency window tried on the
way.

The family is sampled on one time rule, the verification quadrature: its
samples are ``theta``, and its nodes and weights give ``norms``, ``gram``
and the lower summation's family constant.  The Gauss panels partition
[-T/2, T/2] evenly, so each node is a panel center plus an offset and
e^{ixt} = e^{ix t_c} e^{ix delta}.  The inverse transform therefore takes
exponentials per center and per offset instead of per node, and samples
the rule with one matrix product per block of frequency nodes, summed into
a (rows * offsets) x centers accumulator.  The centers are an arithmetic
progression, so their exponentials are in turn a coarse factor times a
fine one.  The raw Gram sums its closed form over the same kind of blocks,
so neither builds a frequency nodes x centers or nodes x modes matrix: the
working set of both sums is set by _BLOCK_BYTES, not by the window or the
rule's panel count.

The closed forms are shared, not re-derived: the frequency panels come from
``fractional.gauss_interval`` broadcast over the panel ends, the integral of
e^{-wt} over [-T/2, T/2] (``_interval_integral``) is the control's one closed
form shifted, e^{wT/2} ``control._time_factor``(w, T, e^{-wT}), and gives the
raw Gram and the exponentials' ``time_gram``, its envelope
2 cosh(Re w T/2) / |w| bounds the window's tail estimate,
``horizon_threshold`` lives in ``moving`` (re-exported here), and the lower
summation runs the same ``moving.weighted_inequality`` audit as the
observability certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .control import _time_factor
from .fractional import gauss_interval, gauss_legendre, sorted_unique, write_json
from .moving import BRANCHES, MovingSpectrum, horizon_threshold, j_conj, weighted_inequality
from .product import ProductFunction, growth_compensator, zero_abscissas

__all__ = [
    "BiorthogonalFamily",
    "FamilyConstructionError",
    "build_biorthogonal",
    "horizon_threshold",
    "LowerSummationReport",
    "verify_lower_summation",
    "time_gram",
]

_FREQ_PER_PANEL = 8  # Gauss nodes per frequency panel of the inverse transform
_TIME_PER_PANEL = 10  # Gauss nodes per panel of the verification time quadrature
_BLOCK_BYTES = 1 << 22  # complex temporaries per block of frequency nodes in the sums over x (4 MB)


class _Blocks(NamedTuple):
    """Time nodes centers[:, None] + offsets[None, :] raveled, one row per
    block; the centers are an arithmetic progression with exact step ``step``."""

    centers: np.ndarray
    step: float
    offsets: np.ndarray

    def nodes(self) -> np.ndarray:
        return (self.centers[:, None] + self.offsets[None, :]).ravel()


def _time_quadrature(T: float, x_window: float):
    """Gauss panels on a uniform partition of [-T/2, T/2]: (blocks, weights).

    ceil(1.37 T x_window / 15) panels (at least 8) of 10 nodes put about 5.7
    nodes in each period of e^{i x_window t}."""
    n_panels = max(8, int(math.ceil(1.37 * T * x_window / (1.5 * _TIME_PER_PANEL))))
    half = T / (2.0 * n_panels)
    x0, w0 = gauss_legendre(_TIME_PER_PANEL)
    centers = -T / 2.0 + half * (2.0 * np.arange(n_panels) + 1.0)
    return _Blocks(centers, 2.0 * half, half * x0), np.tile(half * w0, n_panels)


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


def _cis_progression(x: np.ndarray, centers: np.ndarray, step: float) -> np.ndarray:
    """e^{i x_j c_k} for centers c_k = c_0 + k step, as coarse (x) fine.

    With B = ceil(sqrt(K)) and k = pB + q, e^{ix c_k} = e^{ix c_pB} e^{ixq step}:
    sines and cosines of len(x) (K/B + B) phases and one complex product per
    entry, instead of len(x) K phases.  The returned matrix is a column slice
    of a len(x) x ceil(K/B) B buffer.
    """
    K = len(centers)
    B = math.ceil(math.sqrt(K))
    coarse = _cis_outer(x, centers[::B])
    fine = _cis_outer(x, step * np.arange(B))
    out = np.empty((len(x), coarse.shape[1] * B), dtype=complex)
    np.multiply(coarse[:, :, None], fine[:, None, :], out=out.reshape(len(x), -1, B))
    return out[:, :K]


def _node_blocks(n_nodes: int, per_node: int) -> list[slice]:
    """Consecutive blocks of the frequency nodes, each short enough that its
    ``per_node`` complex values per node stay within _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (16 * per_node))
    return [slice(start, start + step) for start in range(0, n_nodes, step)]


def _inverse_transform(weighted: np.ndarray, x_nodes: np.ndarray, grid: _Blocks) -> np.ndarray:
    """sum_x weighted[:, x] e^{ixt} / (2 pi) at the nodes t of ``grid``.

    With e^{ixt} = e^{ix delta} e^{ix t_c} the offsets fold into the left
    factor, L[(k, o), x] = weighted[k, x] e^{ix delta_o}, and the grid is the
    product L @ e^{ix t_c}, (rows * offsets) x nx times nx x centers:
    exponentials are taken per offset and per center, never per node.  The
    product is summed over blocks of frequency nodes (``_node_blocks``) into
    a (rows * offsets) x centers accumulator, so only one block's left factor
    and e^{ix t_c} are held at a time, whatever the window or the rule.
    """
    centers, step, offsets = grid
    rows, n_off = len(weighted), len(offsets)
    out = np.zeros((rows * n_off, len(centers)), dtype=complex)
    # per node: a column of L, and one of e^{ix t_c} held about twice while it is built
    for block in _node_blocks(len(x_nodes), rows * n_off + 2 * len(centers)):
        xs = x_nodes[block]
        left = weighted[:, None, block] * _cis_outer(offsets, xs)[None, :, :]
        out += left.reshape(-1, len(xs)) @ _cis_progression(xs, centers, step)
    out /= 2.0 * math.pi
    return out.reshape(rows, n_off, len(centers)).transpose(0, 2, 1).reshape(rows, -1)


def _interval_integral(a: np.ndarray, b: np.ndarray, T: float) -> np.ndarray:
    """int_{-T/2}^{T/2} e^{-(a_i + b_j) t} dt as a len(a) x len(b) matrix: the
    shift e^{w T/2} ``control._time_factor``(w, T, e^{-w T}), w = a_i + b_j,
    with both exponentials products of per-row and per-column ones, so
    O(len(a) + len(b)) exponentials."""
    out = _time_factor(np.add.outer(a, b), T, np.multiply.outer(np.exp(-a * T), np.exp(-b * T)))
    out *= np.multiply.outer(np.exp(a * (T / 2.0)), np.exp(b * (T / 2.0)))
    return out


def _raw_gram(weighted: np.ndarray, x_nodes: np.ndarray, lam: np.ndarray, T: float,
              primaries: list, partners: list) -> np.ndarray:
    """Exact Gram of the raw family against e^{-conj(lam_m) t} on [-T/2, T/2].

    Row primaries[k] is theta_k = sum_x weighted[k, x] e^{ixt} / (2 pi), whose
    integral against e^{-conj(lam_m) t} is sum_x weighted[k, x] K(x, conj lam_m)
    / (2 pi) with K(x, mu) the integral of e^{-(mu - ix) t}; row partners[k]
    (if any) is conj(theta_k), whose Gram row is conj(sum_x weighted[k, x]
    K(x, lam_m)) / (2 pi).  The sums over x run over blocks of frequency
    nodes (``_node_blocks``), each block's K columns taken and dropped in
    turn.  No time sampling is involved.
    """
    own = np.zeros((len(primaries), len(lam)), dtype=complex)
    mirrored = np.zeros((len(partners), len(lam)), dtype=complex)
    # _interval_integral holds at most six nodes x modes arrays at once
    for block in _node_blocks(len(x_nodes), 6 * len(lam)):
        a = -1j * x_nodes[block]
        own += weighted[:, block] @ _interval_integral(a, np.conj(lam), T)
        if partners:
            mirrored += weighted[:, block] @ _interval_integral(a, lam, T)
    gram = np.empty((len(lam), len(lam)), dtype=complex)
    gram[primaries] = own / (2.0 * math.pi)
    gram[partners] = np.conj(mirrored) / (2.0 * math.pi)
    return gram


@dataclass
class BiorthogonalFamily:
    modes: list
    lam: np.ndarray
    rho: np.ndarray
    T: float
    window: float
    t_nodes: np.ndarray          # nodes of the verification quadrature
    weights: np.ndarray          # its weights, summing to T
    theta: np.ndarray            # polished family sampled at t_nodes
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


class FamilyConstructionError(RuntimeError):
    """The family has no construction at this configuration: the compensated
    product's exponential type does not fit the horizon, or no frequency
    window brought the family's Gram deviation within tolerance."""


def build_biorthogonal(
    ms: MovingSpectrum,
    T: float,
    family_N: int,
    x_window: float | None = None,
    symmetrize: bool | None = None,
    tol: float = 1.0e-3,
) -> BiorthogonalFamily:
    """Construct the sampled family for all modes |n| <= family_N; each window attempt builds its product."""
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
    # exponential-type budget: product plus multiplier must fit T/2, probed up the imaginary axis
    y_probe = np.linspace(0.3, 0.55, 6) * abs(ms.c) * float(ms.kappa_pos[-1])

    attempts = []
    for _ in range(3):
        pf = ProductFunction(ms, max(X, y_probe[-1], float(np.max(np.abs(zeros)))))
        comp, fit = growth_compensator(pf, X)
        tvals = pf.log_eval(1j * y_probe, comp).real
        type_total = float(np.polyfit(y_probe, tvals, 1)[0])
        if type_total > 0.98 * T / 2.0:
            raise FamilyConstructionError(
                f"combined exponential type {type_total:.3f} does not fit the horizon T/2 = {T/2:.3f}"
            )

        xr = zero_abscissas(pf, X)
        breaks = sorted_unique(np.concatenate(
            [-xr[::-1], [0.0], xr, comp.t[comp.t <= X], -comp.t[comp.t <= X], [-X, X]]
        ))
        breaks = breaks[(breaks >= -X) & (breaks <= X)]
        x_nodes, x_weights = (v.ravel() for v in gauss_interval(breaks[:-1, None], breaks[1:, None], _FREQ_PER_PANEL))

        Pvals = np.exp(pf.log_eval(x_nodes.astype(complex), comp))
        dP = pf.derivative_at_modes(modes, comp)

        theta_hat = Pvals[None, :] / ((x_nodes[None, :] - zeros[:, None]) * dP[:, None])

        # boundary-term estimate for the window truncation of the Gram rows:
        # at the window edges x = +-X the kernel K_n(x) = int e^{ixt} e^{-conj(lam) t} dt
        # and its antiderivative's boundary term are both bounded by the sum
        # of its endpoint terms, (|e^{wT/2}| + |e^{-wT/2}|) / |w| = 2 cosh(Re w T/2) / |w|
        edge_rows = np.abs(theta_hat[:, [0, -1]]).max(axis=1)
        w = np.add.outer(np.array([-1j * X, 1j * X]), np.conj(lam))
        kmax = float(np.max(2.0 * np.cosh(w.real * (T / 2.0)) / np.abs(w)))
        tail_est = float(np.max(edge_rows) * kmax / (2.0 * math.pi) / (T / 2.0))

        primaries = [i for i, (n, j) in enumerate(modes) if (not symmetrize) or n > 0]
        partners = [modes.index((-modes[i][0], j_conj(modes[i][1]))) for i in primaries] if symmetrize else []
        weighted = theta_hat[primaries] * x_weights[None, :]
        del theta_hat  # modes x frequency nodes, the largest array left: not held through the sums below

        gram_raw = _raw_gram(weighted, x_nodes, lam, T, primaries, partners)
        eye = np.eye(len(modes))
        raw_dev = float(np.max(np.abs(gram_raw - eye)))
        raw_diag = float(np.max(np.abs(np.diag(gram_raw) - 1.0)))

        C = np.linalg.inv(gram_raw)

        # independent verification quadrature, the one rule the family is sampled on
        grid2, w2 = _time_quadrature(T, X)
        t2 = grid2.nodes()
        theta2 = np.empty((len(modes), len(t2)), dtype=complex)
        theta2[primaries] = _inverse_transform(weighted, x_nodes, grid2)
        if partners:
            theta2[partners] = np.conj(theta2[primaries])
        theta2 = C @ theta2
        E2 = np.exp(-np.conj(lam)[:, None] * t2[None, :])
        gram = theta2 @ (E2 * w2[None, :]).T
        dev = float(np.max(np.abs(gram - eye)))
        attempts.append({"window": X, "gram_deviation": dev})
        if dev <= tol:
            break
        X *= 1.5
    else:
        tried = ", ".join(f"{a['window']:g}" for a in attempts)
        raise FamilyConstructionError(
            f"window enlargement failed: family deviation {dev:.2e} > {tol:.0e} (windows {tried})"
        )

    norms = np.sqrt(np.abs(theta2) ** 2 @ w2)

    return BiorthogonalFamily(
        modes=modes, lam=lam, rho=rho, T=T, window=X,
        t_nodes=t2, weights=w2, theta=theta2, norms=norms,
        gram=gram, gram_deviation=dev, raw_deviation=raw_dev,
        raw_diag_error=raw_diag, tail_estimate=tail_est, window_attempts=attempts,
    )


def time_gram(lam: np.ndarray, T: float) -> np.ndarray:
    """Closed-form Gram of the exponentials e^{-lam t} on [-T/2, T/2]: entry
    (r, c) is the integral of e^{-w t} with w = lam_r + conj(lam_c)."""
    return _interval_integral(lam, np.conj(lam), T)


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
    |beta|^2 from single modes and 64 random combinations, their norms taken
    on the family's own quadrature, then checks
    sum |a|^2 / rho^2 <= C * ||sum a e^{-lam t}||^2 on random vectors plus an
    adversarial vector concentrated on the closest spectral pair.
    """
    rng = default_rng(seed)
    lam, rho = bf.lam, bf.rho
    m = len(bf.modes)
    # family constant from the produced samples; draw i holds the real then
    # the imaginary parts of combination i
    draws = rng.standard_normal((64, 2, m))
    beta = draws[:, 0] + 1j * draws[:, 1]
    num = np.abs(beta @ bf.theta) ** 2 @ bf.weights
    den = np.sum(rho**2 * np.abs(beta) ** 2, axis=1)
    c46 = float(max(np.max(bf.norms**2 / rho**2), np.max(num / den)))

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
