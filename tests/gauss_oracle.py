"""A 40-digit Gauss-Jacobi oracle for the tests, independent of memwave.

Newton's method on the orthonormal three-term recurrence for the weight
(1-x^2)^a, in mpmath, from float64 starting nodes; the weights are the
Christoffel numbers 1 / sum_{k<n} p_k(x)^2 at the polished nodes.  Each
recurrence step is one object-array operation over all requested nodes.
"""

import functools

import mpmath as mp
import numpy as np

_MPF = np.frompyfunc(mp.mpf, 1, 1)


def gauss_jacobi_mp(n: int, a: float, start, dps: int = 40, newton_steps: int = 2):
    """The zeros of p_n nearest ``start`` and their weights, as object arrays
    of mpmath numbers at ``dps`` digits.  From float64 starts one Newton step
    reaches about 1e-32 and the second the working precision."""
    with mp.workdps(dps):
        a = mp.mpf(a)
        b = [mp.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1))) for k in range(1, n + 1)]
        p_zero = mp.sqrt(mp.gamma(a + 1.5) / (mp.sqrt(mp.pi) * mp.gamma(a + 1)))
        x = _MPF(np.asarray(start, dtype=float))
        for step in range(newton_steps + 1):
            newton = step < newton_steps
            p_prev, p = 0 * x, p_zero + 0 * x
            d_prev, d = 0 * x, 0 * x
            christoffel = p * p
            for k in range(n):
                b_k = b[k - 1] if k else 0
                if newton:
                    d_prev, d = d, (x * d + p - b_k * d_prev) / b[k]
                elif k:
                    christoffel = christoffel + p * p
                p_prev, p = p, (x * p - b_k * p_prev) / b[k]
            if newton:
                x = x - p / d
        return x, 1 / christoffel


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule: numpy's ``leggauss`` nodes polished by
    one float64 Newton step on the Legendre recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, and the weights
    2 / ((1-x)(1+x) P_n'(x)^2) at the polished nodes.  ``leggauss``'s own end
    weights are 5.7e-10 off at n = 480; these are checked against
    ``gauss_jacobi_mp`` in test_fractional.  Cached per session."""
    x = np.polynomial.legendre.leggauss(n)[0]
    for polished in (False, True):  # a Newton step, then the derivative at the polished nodes
        p_prev, p, d_prev, d = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
        for k in range(n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            d_prev, d = d, ((2 * k + 1) * (x * d + p_prev) - k * d_prev) / (k + 1)
        if not polished:
            x = x - p / d
    x = 0.5 * (x - x[::-1])
    d = 0.5 * (d + d[::-1] * (-1) ** (n - 1))
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * d * d)
