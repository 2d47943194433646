"""Double-double arithmetic against mpmath at 60 digits."""

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave import dd

REF_DPS = 60
BOUND = 8 * dd.EPS  # a small multiple of 2^-104 times the operands' magnitudes


@st.composite
def dd_values(draw, size=6):
    """Complex values with 107 significant bits, real and imaginary parts of
    independent magnitude in 1e-30..1e30, or exponentials up to e^{+-45}."""
    values = []
    for _ in range(size):
        if draw(st.booleans()):
            parts = []
            for _ in range(2):
                mant = draw(st.floats(1.0, 10.0)) * draw(st.sampled_from([-1, 1]))
                tail = draw(st.floats(-1.0, 1.0))
                parts.append(mp.mpf(mant) * (1 + mp.mpf(tail) * mp.mpf(2) ** -60) * mp.mpf(10) ** draw(st.integers(-30, 29)))
            values.append(mp.mpc(*parts))
        else:
            values.append(mp.exp(mp.mpc(draw(st.floats(-45.0, 45.0)), draw(st.floats(-1e3, 1e3)))))
    return values


def _pair(draw_a, draw_b, cancel):
    """Operands as DD, and their exact values; with ``cancel`` set, b is
    -a to within a relative 2^-cancel so that a + b cancels."""
    a = dd.from_mp(draw_a)
    b = dd.from_mp(draw_b) if cancel is None else -a * (1 + dd.array(2.0**-cancel))
    return a, b, dd.to_mp(a), dd.to_mp(b)


exponents = st.lists(st.tuples(st.floats(-45.0, 45.0), st.floats(-1e3, 1e3)), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(x=dd_values(), y=dd_values(), cancel=st.one_of(st.none(), st.integers(1, 100)), z=exponents)
def test_arithmetic_matches_mpmath(x, y, cancel, z):
    a, b, am, bm = _pair(x, y, cancel)
    z = dd.array([complex(*p) for p in z])
    with mp.workdps(REF_DPS):
        zm = dd.to_mp(z)
        cases = {
            "add": (dd.to_mp(a + b), am + bm, abs(am) + abs(bm)),
            "sub": (dd.to_mp(a - b), am - bm, abs(am) + abs(bm)),
            "mul": (dd.to_mp(a * b), am * bm, abs(am) * abs(bm)),
            "div": (dd.to_mp(a / b), am / bm, abs(am) / abs(bm)),
            "conj": (dd.to_mp(np.conj(a)), np.array([mp.conj(v) for v in am]), 0 * abs(am)),
            "exp": (dd.to_mp(np.exp(z)), [mp.exp(v) for v in zm], [abs(mp.exp(v)) for v in zm]),
        }
        for name, (got, want, scale) in cases.items():
            for g, w, s in zip(got, want, scale):
                assert abs(g - w) <= BOUND * s, (name, g, w)


@settings(max_examples=20, deadline=None)
@given(x=dd_values(size=7), y=dd_values(size=7))
def test_reductions_and_structure(x, y):
    # pairwise sums and the matrix-vector product keep DD accuracy relative
    # to the sum of magnitudes; indexing, where and stack move values exactly
    A = dd.from_mp([[u * v for v in y] for u in x])
    v = dd.from_mp(y)
    Am, vm = dd.to_mp(A), dd.to_mp(v)
    with mp.workdps(REF_DPS):
        got = dd.to_mp(A @ v)
        for i in range(len(x)):
            want = mp.fsum(Am[i, k] * vm[k] for k in range(len(y)))
            scale = mp.fsum(abs(Am[i, k] * vm[k]) for k in range(len(y)))
            assert abs(got[i] - want) <= 4 * BOUND * scale
    picked = dd.to_mp(np.where(np.arange(len(y)) % 2 == 0, v, 2 * v))
    assert all(picked[k] == (vm[k] if k % 2 == 0 else 2 * vm[k]) for k in range(len(y)))
    stacked = dd.to_mp(np.stack([v, -v], axis=1))
    assert stacked.shape == (len(y), 2) and all(stacked[k, 1] == -vm[k] for k in range(len(y)))
    assert dd.to_mp(A[:, None, 1])[3, 0] == Am[3, 1]
