"""Complex double-double arithmetic on numpy arrays.

A ``DD`` holds each complex value as an unevaluated sum hi + lo of two
complex doubles, real and imaginary parts separately normalized
(|lo| <= ulp(hi)/2), which carries about 32 significant digits at the
cost of a few dozen vectorised float64 operations per product.  The
operations are the error-free transformations of Dekker (1971) and Knuth,
TwoSum and TwoProd (the latter by Dekker's splitting, since numpy has no
fused multiply-add), combined as in the QD library (Hida, Li and Bailey
2001); Joldes, Muller and Popescu (TOMS 2017) bound their errors by a few
units of 2^-106 relative.  ``EPS`` = 2^-104 is the unit roundoff callers
should assume for one operation.

The type broadcasts, indexes and reduces like an ndarray and answers the
numpy calls the closed forms of ``control`` and ``simulate`` make
(``np.conj``, ``np.where``, ``np.stack``, ``np.broadcast_arrays``), so
the same code runs on doubles, on ``DD`` values and on mpmath values;
``lift`` puts numbers into whichever of the three a caller names.
``np.exp`` is not vectorised: each entry is exponentiated once by
``mp.exp`` and rounded back, which is why every caller takes its
exponentials from per-mode tables, and e^{i kappa x} once per level n.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from mpmath import libmp

__all__ = ["EPS", "DD", "array", "lift", "from_mp", "to_mp", "leading"]

EPS = 2.0**-104
DIGITS = -math.log10(EPS)  # about 31.3
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for 53-bit doubles
_PREC = 128  # mpmath bits for conversions and exponentials, above the 107 a DD holds
_SIGN = np.array([-1.0, 1.0])


# -- error-free transformations on float64 arrays ---------------------------
def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """TwoSum for |a| >= |b| (or a = 0)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# -- double-double operations on (hi, lo) pairs of float64 arrays -----------
# A complex DD stores [re, im] along a trailing axis of length 2, so sums and
# real scalings act on both parts at once.
def _add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    t, f = _two_sum(al, bl)
    s, e = _fast_two_sum(s, e + t)
    return _fast_two_sum(s, e + f)


def _mul_real(ah, al, bh, bl):
    p, e = _two_prod(ah, bh)
    return _fast_two_sum(p, e + (ah * bl + al * bh))


def _mul(ah, al, bh, bl):
    """Complex product: re = ar br - ai bi, im = ar bi + ai br."""
    ph, pl = _mul_real(ah[..., :1], al[..., :1], bh, bl)  # ar [br, bi]
    qh, ql = _mul_real(ah[..., 1:], al[..., 1:], bh[..., ::-1], bl[..., ::-1])  # ai [bi, br]
    return _add(ph, pl, qh * _SIGN, ql * _SIGN)


def _div_real(ah, al, bh, bl):
    """a / b for real b, componentwise (Joldes et al., DWDivDW2)."""
    th = ah / bh
    rh, rl = _mul_real(bh, bl, th, 0.0)
    tl = ((ah - rh) + (al - rl)) / bh
    return _fast_two_sum(th, tl)


class DD:
    """An array of complex double-double values (see the module docstring).

    ``hi`` and ``lo`` are float64 arrays of shape ``shape + (2,)`` holding
    [real, imaginary] parts.  Build one with ``array`` (from doubles) or
    ``from_mp`` (from mpmath values).
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    # -- shape and indexing ---------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.hi.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.hi.ndim - 1

    def __len__(self) -> int:
        return self.hi.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        return DD(self.hi[key], self.lo[key])

    def __setitem__(self, key, value):
        value = _coerce(value)
        self.hi[key] = value.hi
        self.lo[key] = value.lo

    def __repr__(self) -> str:
        return f"DD({leading(self)!r})"

    # -- arithmetic -------------------------------------------------------------
    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def conj(self):
        return DD(self.hi * _SIGN[::-1], self.lo * _SIGN[::-1])

    def __add__(self, other):
        other = _coerce(other)
        return DD(*_add(self.hi, self.lo, other.hi, other.lo))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_coerce(other)

    def __rsub__(self, other):
        return _coerce(other) + -self

    def __mul__(self, other):
        other = _coerce(other)
        return DD(*_mul(self.hi, self.lo, other.hi, other.lo))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _divide(self, _coerce(other))

    def __rtruediv__(self, other):
        return _divide(_coerce(other), self)

    def __pow__(self, k: int):
        if not (isinstance(k, int) and k >= 1):
            return NotImplemented
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def sum(self, axis=None):
        """Pairwise sum over ``axis`` (all entries if None), one DD addition per pair."""
        if axis is None:
            hi, lo, axis = self.hi.reshape(-1, 2), self.lo.reshape(-1, 2), 0
        else:
            hi, lo, axis = self.hi, self.lo, axis % self.ndim
        hi, lo = np.moveaxis(hi, axis, 0), np.moveaxis(lo, axis, 0)
        if len(hi) == 0:
            return DD(np.zeros(hi.shape[1:]), np.zeros(hi.shape[1:]))
        while len(hi) > 1:
            half = len(hi) // 2
            sh, sl = _add(hi[:half], lo[:half], hi[half:2 * half], lo[half:2 * half])
            if len(hi) % 2:
                sh, sl = np.concatenate([sh, hi[-1:]]), np.concatenate([sl, lo[-1:]])
            hi, lo = sh, sl
        return DD(hi[0], lo[0])

    def __matmul__(self, x):
        """Matrix-vector product of a 2-d DD with a 1-d DD."""
        return (self * _coerce(x)[None, :]).sum(axis=1)

    # -- numpy protocols ------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc is np.exp:
            (x,) = inputs
            with mp.workprec(_PREC):
                return from_mp(_MP_EXP(to_mp(x)))
        if ufunc is np.conjugate:
            return inputs[0].conj()
        if ufunc is np.negative:
            return -inputs[0]
        binary = {np.add: DD.__add__, np.subtract: DD.__sub__, np.multiply: DD.__mul__,
                  np.true_divide: DD.__truediv__}
        if ufunc in binary:
            a, b = inputs
            return binary[ufunc](_coerce(a), b)
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func is np.where:
            cond, x, y = args
            cond, x, y = np.asarray(cond)[..., None], _coerce(x), _coerce(y)
            return DD(np.where(cond, x.hi, y.hi), np.where(cond, x.lo, y.lo))
        if func is np.stack:
            arrays = [_coerce(a) for a in args[0]]
            axis = kwargs.get("axis", args[1] if len(args) > 1 else 0)
            axis = axis if axis >= 0 else axis - 1
            return DD(np.stack([a.hi for a in arrays], axis), np.stack([a.lo for a in arrays], axis))
        if func is np.broadcast_arrays:
            arrays = [_coerce(a) for a in args]
            his = np.broadcast_arrays(*(a.hi for a in arrays))
            los = np.broadcast_arrays(*(a.lo for a in arrays))
            return [DD(h, l) for h, l in zip(his, los)]
        return NotImplemented


def _divide(a: DD, b: DD) -> DD:
    """a / b = a conj(b) / |b|^2, the squared modulus and the quotient in DD."""
    c = b.conj()
    nh, nl = _mul(a.hi, a.lo, c.hi, c.lo)
    sh, sl = _mul_real(b.hi, b.lo, b.hi, b.lo)
    dh, dl = _add(sh[..., :1], sl[..., :1], sh[..., 1:], sl[..., 1:])
    return DD(*_div_real(nh, nl, dh, dl))


def array(z) -> DD:
    """Numbers as DD values: doubles (real or complex, any shape) exactly,
    an object array or nesting of mpmath values through ``from_mp``."""
    z = np.asarray(z)
    if z.dtype == object:
        return from_mp(z)
    z = z.astype(complex)
    hi = np.stack([z.real, z.imag], axis=-1)
    return DD(hi, np.zeros_like(hi))


def _coerce(x) -> DD:
    return x if isinstance(x, DD) else array(x)


_MPMATHIFY = np.frompyfunc(mp.mpmathify, 1, 1)


def lift(values, arithmetic: str):
    """Numbers (a scalar or any nesting) as numpy doubles for "float64", ``DD``
    values for "dd" or mpmath values for "mp"; only "dd" and "mp" take mpmath
    input.  Scalars stay scalars except as ``DD``."""
    if arithmetic == "dd":
        return _coerce(values)
    if np.ndim(values) == 0:
        return mp.mpmathify(values) if arithmetic == "mp" else values
    if arithmetic == "mp":
        return _MPMATHIFY(np.array(values, dtype=object))
    return np.asarray(values)


def _split_mpf(x):
    """An mpf tuple as (hi, lo): hi the nearest double, lo the nearest double to the exact rest."""
    sign, man, exp, _ = x
    if not man:  # zero, or an infinity or nan
        return libmp.to_float(x), 0.0
    hi = float(man)  # round to nearest; exact scaling by 2^exp below
    sign = -1.0 if sign else 1.0
    return sign * math.ldexp(hi, exp), sign * math.ldexp(float(man - int(hi)), exp)


def _split_mp(v):
    if isinstance(v, mp.mpf):
        re, im = v._mpf_, libmp.fzero
    elif isinstance(v, mp.mpc):
        re, im = v._mpc_
    else:  # a Python number, exact at any precision
        re, im = mp.mpc(v)._mpc_
    return (*_split_mpf(re), *_split_mpf(im))


def _join_mp(rh, rl, ih, il):
    """hi + lo exactly, as an mpc."""
    def part(h, lo):
        return libmp.mpf_add(libmp.from_float(h), libmp.from_float(lo), 0)

    return mp.mp.make_mpc((part(rh, rl), part(ih, il)))


_SPLIT_MP = np.frompyfunc(_split_mp, 1, 4)
_JOIN_MP = np.frompyfunc(_join_mp, 4, 1)
_MP_EXP = np.frompyfunc(mp.exp, 1, 1)


def from_mp(values) -> DD:
    """mpmath (or Python) numbers, any nesting, rounded to the nearest DD values."""
    parts = _SPLIT_MP(np.array(values, dtype=object))
    rh, rl, ih, il = (np.asarray(p, dtype=float) for p in parts)
    return DD(np.stack([rh, ih], axis=-1), np.stack([rl, il], axis=-1))


def to_mp(x: DD) -> np.ndarray:
    """The exact mpmath values of a DD, as an object array."""
    return _JOIN_MP(x.hi[..., 0], x.lo[..., 0], x.hi[..., 1], x.lo[..., 1])


def leading(x) -> np.ndarray:
    """The complex doubles nearest x: a DD's hi part, mpmath values rounded,
    arrays of doubles as they are."""
    if isinstance(x, DD):
        return x.hi[..., 0] + 1j * x.hi[..., 1]
    x = np.asarray(x)
    return x.astype(complex) if x.dtype == object else x
