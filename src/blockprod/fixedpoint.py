"""Integer fixed-point kernels for transcendental functions.

Every routine here works on plain Python integers interpreted as fixed-point
reals: the integer ``v`` stands for the real number ``v / 2**F`` where ``F``
(the *scale*, in bits) is passed alongside.  Keeping everything in exact
integer arithmetic makes results bit-for-bit reproducible across platforms;
there is no libm and no platform float rounding anywhere in the evaluation
path.

Accuracy contract: ``fx_log`` and ``fx_exp_reduced`` return their
mathematical value within one unit in the last place at scale ``F`` (the
largest error measured against mpmath at ``F`` in {160, 288, 1056, 1900}
is 0.5 units, and Tier-1 holds them to 1; ``fx_log`` of ``a >= 2**(F+2**14)``
may add ``log2(a) * 2**-17`` units through its ``log 2`` constant), and the
mantissa ``m`` of ``exp_split(x, F)`` is within two units of
``exp(x/2**F) * 2**(F-k)``.  The other functions err by at most a few
hundred units.  Callers that need ``p`` good bits therefore evaluate at
``F = p + GUARD`` (see :mod:`blockprod.bigreal`) and round once at the end.

Series used (all with exact rational term generation):

* ``log`` and ``exp`` share one cached ladder per scale, the constants
  ``L_i = log(1 + 2**-i)`` for ``i = 0..R`` (``L_0 = log 2``), each from the
  small-integer series ``2*atanh(1/(2**(i+1) + 1))``; ``R = max(24, W // 16)``
  at working scale ``W``.  Both functions work at ``W = F + 16`` and round
  once, so the ladder's ``R`` truncated shifts cost far less than a unit.
* ``log``: normalise ``m`` to ``[1, 2]``; for ``i = 1..R`` multiply ``m`` by
  ``1 + 2**-i`` (a shift and an add) wherever the product stays ``<= 2`` and
  subtract ``L_i``.  Then ``2/(1 + 2**-R) < m <= 2``, and
  ``log(m/2) = 2*atanh((m-2)/(m+2))`` runs on ``|t| < 2**-(R+1)``, so each
  term gains ``2R + 2`` bits.
* ``exp``: whole ``log 2`` steps bring ``r`` into ``[0, log 2)`` and become a
  final shift; subtracting each ``L_i`` that fits leaves less than
  ``L_R < 2**-R`` for the Taylor series, whose sum is multiplied back by
  each ``1 + 2**-i`` as ``acc += acc >> i``.  ``exp_split`` first reduces
  ``x = k*log 2 + r`` with ``|r| <= log(2)/2``.
* ``pi``: Machin's formula ``pi = 16*atan(1/5) - 4*atan(1/239)`` with exact
  integer arctangent series.  This is the library's only source of ``pi``
  and is independent of the Gamma machinery.
"""

from __future__ import annotations

from functools import cache

__all__ = [
    "rshift_round",
    "fx_div",
    "fx_log",
    "fx_exp_reduced",
    "fx_atan_inv",
    "log2_fixed",
    "pi_fixed",
]


def rshift_round(x: int, n: int) -> int:
    """Shift ``x`` right by ``n`` bits, rounding to nearest (ties toward +inf).

    Accepts any sign of ``x``; ``n <= 0`` degrades to an exact left shift.
    """
    if n <= 0:
        return x << (-n)
    return (x + (1 << (n - 1))) >> n


def fx_div(a: int, b: int, F: int) -> int:
    """Fixed-point quotient ``(a/b) * 2**F``, rounded to nearest."""
    if b < 0:
        a, b = -a, -b
    if a >= 0:
        return ((a << (F + 1)) // b + 1) >> 1
    return -((((-a) << (F + 1)) // b + 1) >> 1)


# --------------------------------------------------------------------------
# cached constants
# --------------------------------------------------------------------------

_WORK_GUARD = 16  # extra bits of the working scale of fx_log / fx_exp_reduced


def _log1p_pow2(i: int, F: int) -> int:
    """``log(1 + 2**-i)`` at scale ``F`` for an integer ``i >= 0``.

    Exact small-integer series ``2*atanh(1/c) = 2*sum c**-(2j+1)/(2j+1)``
    with ``c = 2**(i+1) + 1``, run 16 guard bits deep and rounded once, so
    the result is within one unit in the last place.
    """
    w = F + 16
    c = (2 << i) + 1
    c2 = c * c
    u = (2 << w) // c
    s = 0
    k = 1
    while u:
        s += u // k
        u //= c2
        k += 2
    return rshift_round(s, 16)


@cache
def log2_fixed(F: int) -> int:
    """``log 2`` at scale ``F``, computed as ``2*atanh(1/3)`` (exact series).

    The series runs 16 guard bits deep so the cached constant is within one
    unit in the last place; ``exp``/``log`` multiply this constant by binary
    exponents, which would otherwise amplify the series' floor bias.
    """
    return _log1p_pow2(0, F)


@cache
def _ladder(F: int) -> tuple[int, ...]:
    """``(log(1 + 2**-i) for i in 0..R)`` at scale ``F`` (entry 0 is ``log 2``).

    ``R = max(24, F // 16)``: each rung is one shift-and-add, each series
    term one full-width product, and the series needs about ``F / R`` terms
    after the ladder, so the best ``R`` grows with ``F``.
    """
    depth = max(24, F // 16)
    return (log2_fixed(F), *(_log1p_pow2(i, F) for i in range(1, depth + 1)))


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


@cache
def pi_fixed(F: int) -> int:
    """``pi`` at scale ``F`` via Machin's two-arctangent formula."""
    w = F + 16  # absorb the 16x/4x magnification of series truncation
    return rshift_round(16 * fx_atan_inv(5, w) - 4 * fx_atan_inv(239, w), 16)


# --------------------------------------------------------------------------
# log / exp
# --------------------------------------------------------------------------


def fx_log(a: int, F: int) -> int:
    """Natural log of a positive fixed-point value, any magnitude."""
    if a <= 0:
        raise ValueError("fx_log of nonpositive value")
    W = F + _WORK_GUARD
    table = _ladder(W)
    e = a.bit_length() - 1 - F
    # m is a/2**e scaled into [2**W, 2**(W+1)]; rounding may reach the top
    m = rshift_round(a, e - _WORK_GUARD)
    # climb towards 2 by factors 1 + 2**-i: a shift and an add per rung,
    # where dividing m by them would cost a division per rung
    two = 2 << W
    s = (e + 1) * table[0]
    for i in range(1, len(table)):
        n = m + (m >> i)
        if n <= two:
            m = n
            s -= table[i]
    # now 2/(1 + 2**-R) < m <= 2, so |t| < 2**-(R+1)
    t = fx_div(m - two, m + two, W)
    t2 = rshift_round(t * t, W)
    u = t
    k = 1
    series = 0
    while u:
        series += u // k
        u = rshift_round(u * t2, W)
        k += 2
    return rshift_round(s + 2 * series, _WORK_GUARD)


def fx_exp_reduced(r: int, F: int) -> int:
    """``exp(r)`` for ``|r| <= log(2)/2 + 1`` at scale ``F``."""
    W = F + _WORK_GUARD
    table = _ladder(W)
    x = r << _WORK_GUARD
    k = x // table[0]  # whole log 2 steps, undone by the final shift
    x -= k * table[0]
    rungs = []
    for i in range(1, len(table)):
        if x >= table[i]:
            x -= table[i]
            rungs.append(i)
    # now 0 <= x < log(1 + 2**-R), so each Taylor term gains about R bits
    acc = term = 1 << W
    j = 1
    while term:
        term = rshift_round(term * x, W) // j
        acc += term
        j += 1
    for i in rungs:
        acc += acc >> i
    return rshift_round(acc, _WORK_GUARD - k)


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
