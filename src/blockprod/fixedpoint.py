"""Integer fixed-point kernels for transcendental functions.

Every routine here works on plain Python integers interpreted as fixed-point
reals: the integer ``v`` stands for the real number ``v / 2**F`` where ``F``
(the *scale*, in bits) is passed alongside.  Keeping everything in exact
integer arithmetic makes results bit-for-bit reproducible across platforms
and across the pure-Python / compiled kernel backends; there is no libm and
no platform float rounding anywhere in the evaluation path.

Accuracy contract: each function returns its mathematical value with an
absolute error of a few hundred units in the last place at scale ``F``.
Callers that need ``p`` good bits therefore evaluate at ``F = p + GUARD``
(see :mod:`blockprod.bigreal`) and round once at the end.

Series used (all with exact rational term generation):

* ``log``: ``log m = 2*atanh((m-1)/(m+1))`` after normalising ``m`` to
  ``[1, 2)``, plus the cached ``log 2`` correction.
* ``exp``: argument reduction ``x = k*log 2 + r`` with ``|r| <= log(2)/2``,
  then the Taylor series of ``exp(r)``.
* ``pi``: Machin's formula ``pi = 16*atan(1/5) - 4*atan(1/239)`` with exact
  integer arctangent series.  This is the library's only source of ``pi``
  and is independent of the Gamma machinery.
* ``sin``: Taylor series after folding into ``[0, pi/2]``.
"""

from __future__ import annotations

from math import isqrt

__all__ = [
    "rshift_round",
    "fx_mul",
    "fx_div",
    "fx_sqrt",
    "fx_log",
    "fx_log_frac",
    "fx_exp_reduced",
    "fx_exp",
    "fx_sin",
    "fx_atan_inv",
    "log2_fixed",
    "pi_fixed",
    "sqrt2pi_fixed",
]


def rshift_round(x: int, n: int) -> int:
    """Shift ``x`` right by ``n`` bits, rounding to nearest (ties toward +inf).

    Accepts any sign of ``x``; ``n <= 0`` degrades to an exact left shift.
    """
    if n <= 0:
        return x << (-n)
    return (x + (1 << (n - 1))) >> n


def fx_mul(a: int, b: int, F: int) -> int:
    """Fixed-point product ``a*b / 2**F``, rounded to nearest."""
    return rshift_round(a * b, F)


def fx_div(a: int, b: int, F: int) -> int:
    """Fixed-point quotient ``(a/b) * 2**F``, rounded to nearest."""
    if b < 0:
        a, b = -a, -b
    if a >= 0:
        return ((a << (F + 1)) // b + 1) >> 1
    return -((((-a) << (F + 1)) // b + 1) >> 1)


def fx_sqrt(a: int, F: int) -> int:
    """Square root of a nonnegative fixed-point value (floor of the exact root)."""
    if a < 0:
        raise ValueError("fx_sqrt of negative value")
    return isqrt(a << F)


# --------------------------------------------------------------------------
# cached constants
# --------------------------------------------------------------------------

_LOG2_CACHE: dict[int, int] = {}
_PI_CACHE: dict[int, int] = {}
_SQRT2PI_CACHE: dict[int, int] = {}


def log2_fixed(F: int) -> int:
    """``log 2`` at scale ``F``, computed as ``2*atanh(1/3)`` (exact series).

    The series runs 16 guard bits deep so the cached constant is within one
    unit in the last place; ``exp``/``log`` multiply this constant by binary
    exponents, which would otherwise amplify the series' floor bias.
    """
    v = _LOG2_CACHE.get(F)
    if v is None:
        w = F + 16
        u = (2 << w) // 3
        s = 0
        k = 1
        while u:
            s += u // k
            u //= 9
            k += 2
        v = _LOG2_CACHE[F] = rshift_round(s, 16)
    return v


def fx_atan_inv(c: int, F: int) -> int:
    """``atan(1/c)`` for an integer ``c >= 2``, by the exact alternating series."""
    if c < 2:
        raise ValueError("fx_atan_inv needs c >= 2")
    c2 = c * c
    u = (1 << F) // c
    s = 0
    j = 0
    while u:
        t = u // (2 * j + 1)
        s += -t if (j & 1) else t
        u //= c2
        j += 1
    return s


def pi_fixed(F: int) -> int:
    """``pi`` at scale ``F`` via Machin's two-arctangent formula."""
    v = _PI_CACHE.get(F)
    if v is None:
        w = F + 16  # absorb the 16x/4x magnification of series truncation
        v = 16 * fx_atan_inv(5, w) - 4 * fx_atan_inv(239, w)
        v = _PI_CACHE[F] = rshift_round(v, 16)
    return v


def sqrt2pi_fixed(F: int) -> int:
    """``sqrt(2*pi)`` at scale ``F``."""
    v = _SQRT2PI_CACHE.get(F)
    if v is None:
        v = _SQRT2PI_CACHE[F] = fx_sqrt(2 * pi_fixed(F), F)
    return v


# --------------------------------------------------------------------------
# log / exp / sin
# --------------------------------------------------------------------------


def fx_log(a: int, F: int) -> int:
    """Natural log of a positive fixed-point value, any magnitude."""
    if a <= 0:
        raise ValueError("fx_log of nonpositive value")
    e = a.bit_length() - 1 - F
    m = rshift_round(a, e) if e >= 0 else a << (-e)
    # m is a/2**e scaled into [2**F, 2**(F+1)); rounding may push it to the
    # boundary 2**(F+1), which the atanh series tolerates (t <= 1/3).
    t = fx_div(m - (1 << F), m + (1 << F), F)
    t2 = rshift_round(t * t, F)
    u = t
    s = 0
    k = 1
    while u:
        s += u // k
        u = rshift_round(u * t2, F)
        k += 2
    return 2 * s + e * log2_fixed(F)


def fx_log_frac(p: int, q: int, F: int) -> int:
    """``log(p/q)`` for positive integers ``p, q`` of any relative size."""
    if p <= 0 or q <= 0:
        raise ValueError("fx_log_frac needs positive integers")
    if q == 1:
        return fx_log(p << F, F)
    return fx_log(p << F, F) - fx_log(q << F, F)


def fx_exp_reduced(r: int, F: int) -> int:
    """``exp(r)`` for ``|r| <= log(2)/2 + 1`` at scale ``F`` (Taylor series)."""
    acc = 1 << F
    term = 1 << F
    j = 1
    while term:
        term = rshift_round(term * r, F) // j
        acc += term
        j += 1
    return acc


def exp_split(x: int, F: int) -> tuple[int, int]:
    """Return ``(m, k)`` with ``exp(x/2**F) = (m/2**F) * 2**k`` and ``m ~ 2**F``.

    The mantissa ``m`` is ``exp(r)`` for the reduced argument and stays within
    ``[0.6, 1.7] * 2**F``; the binary exponent ``k`` carries the magnitude, so
    the caller never sees fixed-point overflow or underflow.
    """
    ln2 = log2_fixed(F)
    k = (2 * x + ln2) // (2 * ln2)  # nearest integer to x/log2 (floor on ties)
    # k*log2 scales the constant's error by k, so reduce with log 2 carried
    # bitlen(k) + 2 bits deeper
    extra = k.bit_length() + 2
    r = rshift_round((x << extra) - k * log2_fixed(F + extra), extra)
    return fx_exp_reduced(r, F), int(k)


def fx_exp(x: int, F: int) -> int:
    """``exp(x)`` as a plain fixed-point value (may be huge for large ``x``)."""
    m, k = exp_split(x, F)
    return m << k if k >= 0 else rshift_round(m, -k)


def fx_sin(x: int, F: int) -> int:
    """``sin(x)`` for ``0 <= x <= pi`` at scale ``F``."""
    pi_f = pi_fixed(F)
    if x < 0 or x > pi_f + 2:
        raise ValueError("fx_sin argument outside [0, pi]")
    if 2 * x > pi_f:
        x = pi_f - x
    x2 = rshift_round(x * x, F)
    u = x
    s = x
    j = 1
    sign = -1
    while u:
        u = rshift_round(u * x2, F) // ((2 * j) * (2 * j + 1))
        s += sign * u
        sign = -sign
        j += 1
    return s
