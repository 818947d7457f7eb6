"""Arbitrary-precision dyadic reals with explicit per-value precision.

A :class:`BigReal` stores ``man * 2**exp`` with the mantissa normalised to
exactly ``prec`` bits (round half to even), so every value is an exact
dyadic rational and identical inputs always produce bit-identical results.
A ``BigReal`` is an immutable value with no arithmetic operators; equality
is structural (same ``man``, ``exp`` and ``prec``).  The few results the
library derives from finished values (a gap ``|x - y|``, a ratio, a
rational prefactor product) are computed exactly on the integers and
rounded once, by :func:`_abs_gap` and :func:`_round_ratio`.

Transcendental evaluation does not happen on :class:`BigReal` directly:
higher layers compute in integer fixed-point at ``prec + GUARD_BITS`` bits
(:mod:`blockprod.fixedpoint`) and round once into a ``BigReal`` at the end.
``GUARD_BITS = 32`` keeps the documented ``2**(8 - prec)`` relative-error
budget honest with a wide margin.
"""

from __future__ import annotations

import math
from fractions import Fraction

from blockprod.fixedpoint import exp_split, pi_fixed, rshift_round

__all__ = [
    "BigReal",
    "GUARD_BITS",
    "MIN_PRECISION",
    "MAX_DECIMAL_EXP",
    "default_decimal_digits",
    "pi_value",
]

GUARD_BITS = 32
MIN_PRECISION = 64
# Largest |exp| that to_decimal renders and to_fraction converts: their
# exact integers grow with the value's magnitude (about 0.06 s at 2**20, 0.5 s at 2**22, 1.4 s at 2**23).
MAX_DECIMAL_EXP = 1 << 22


def _check_precision(prec: int) -> int:
    if not isinstance(prec, int) or prec < MIN_PRECISION:
        raise ValueError(f"precision_bits must be an integer >= {MIN_PRECISION}, got {prec!r}")
    return prec


def default_decimal_digits(prec: int) -> int:
    """Significant decimal digits printed for a ``prec``-bit value.

    ``ceil(prec * log10(2)) - 2``: never prints digits beyond what the
    precision guarantees.  Integer arithmetic only (30103/100000 is an upper
    approximation of log10(2), exact enough for any realistic ``prec``).
    """
    return (prec * 30103 + 99999) // 100000 - 2


def _round_half_even(man: int, shift: int) -> int:
    """Drop ``shift`` low bits of a positive mantissa, rounding half to even."""
    if shift <= 0:
        return man << (-shift)
    t = man >> (shift - 1)
    if t & 1 and ((t & 2) or (man & ((1 << (shift - 1)) - 1))):
        return (t >> 1) + 1
    return t >> 1


class BigReal:
    """An exact dyadic real ``man * 2**exp`` carrying its working precision."""

    __slots__ = ("man", "exp", "prec")

    def __init__(self, man: int, exp: int, prec: int):
        prec = _check_precision(prec)
        if man == 0:
            object.__setattr__(self, "man", 0)
            object.__setattr__(self, "exp", 0)
            object.__setattr__(self, "prec", prec)
            return
        sign = -1 if man < 0 else 1
        m = abs(man)
        shift = m.bit_length() - prec
        if shift:
            m = _round_half_even(m, shift)
            exp += shift
            if m.bit_length() > prec:  # rounding carried into a new bit
                m >>= 1
                exp += 1
        object.__setattr__(self, "man", sign * m)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("BigReal instances are immutable")

    def __reduce__(self):
        # the stored mantissa already has its precision, so rebuilding rounds nothing
        return BigReal, (self.man, self.exp, self.prec)

    # ---- constructors ----

    @classmethod
    def from_int(cls, n: int, prec: int) -> "BigReal":
        return cls(n, 0, prec)

    @classmethod
    def from_fraction(cls, value, prec: int) -> "BigReal":
        """Round any rational (Fraction or int) to ``prec`` bits."""
        prec = _check_precision(prec)
        fr = Fraction(value)
        return _round_ratio(fr.numerator, fr.denominator, 0, prec)

    @classmethod
    def from_fixed(cls, value: int, scale: int, prec: int) -> "BigReal":
        """Interpret ``value / 2**scale`` as a BigReal at ``prec`` bits."""
        return cls(value, -scale, prec)

    @classmethod
    def exp_of_fixed(cls, log_value: int, scale: int, prec: int) -> "BigReal":
        """``exp(log_value / 2**scale)`` rounded to ``prec`` bits.

        The binary exponent of the result is split off as an integer, so any
        magnitude is representable without fixed-point overflow.
        """
        m, k = exp_split(log_value, scale)
        return cls(m, k - scale, prec)

    # ---- conversions ----

    def to_fraction(self) -> Fraction:
        """The exact value ``man * 2**exp`` as a Fraction.

        Raises ``ValueError`` when ``|exp| > MAX_DECIMAL_EXP``, as
        :meth:`to_decimal` does: the integer built would be as large as the
        value itself (or its reciprocal).
        """
        if abs(self.exp) > MAX_DECIMAL_EXP:
            raise ValueError(f"|exp| must be at most {MAX_DECIMAL_EXP} to convert, got {self.exp}")
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << (-self.exp))

    def __float__(self) -> float:
        m = self.man
        e = self.exp
        bl = abs(m).bit_length()
        if bl > 53:
            m = rshift_round(m, bl - 53)
            e += bl - 53
        try:
            return math.ldexp(m, e)
        except OverflowError:
            return math.inf if m > 0 else -math.inf

    def __eq__(self, other):
        # structural: records holding BigReals compare field by field
        if not isinstance(other, BigReal):
            return NotImplemented
        return (self.man, self.exp, self.prec) == (other.man, other.exp, other.prec)

    # ---- rendering ----

    def to_decimal(self, sig_digits: int | None = None) -> str:
        """Deterministic decimal string with ``sig_digits`` significant digits.

        Defaults to :func:`default_decimal_digits` of the value's precision.
        Exact integer arithmetic end to end; round half up on the last digit.
        Raises ``ValueError`` when ``|exp| > MAX_DECIMAL_EXP``, since the
        exact integers involved are as large as the value itself (or its
        reciprocal).
        """
        sig = default_decimal_digits(self.prec) if sig_digits is None else sig_digits
        if sig < 1:
            raise ValueError("sig_digits must be >= 1")
        if abs(self.exp) > MAX_DECIMAL_EXP:
            raise ValueError(f"|exp| must be at most {MAX_DECIMAL_EXP} to render, got {self.exp}")
        if self.man == 0:
            return "0"
        v = abs(self.man)
        e10 = ((v.bit_length() - 1 + self.exp) * 30103) // 100000
        while True:
            t = e10 - sig + 1
            num, den = v, 1
            if t >= 0:
                den = 10**t
            else:
                num = v * 10 ** (-t)
            if self.exp >= 0:
                num <<= self.exp
            else:
                den <<= -self.exp
            q = (2 * num + den) // (2 * den)
            if q >= 10**sig:
                e10 += 1
            elif q < 10 ** (sig - 1):
                e10 -= 1
            else:
                break
        digits = str(q)
        sign = "-" if self.man < 0 else ""
        if -4 <= e10 < sig:
            if e10 >= 0:
                head, tail = digits[: e10 + 1], digits[e10 + 1 :]
                body = head + ("." + tail if tail else "")
            else:
                body = "0." + "0" * (-e10 - 1) + digits
        else:
            body = digits[0] + "." + digits[1:] + f"e{e10:+d}"
        return sign + body

    def __repr__(self) -> str:
        if abs(self.exp) > MAX_DECIMAL_EXP:  # beyond to_decimal: the exact dyadic form
            return f"BigReal(man={self.man}, exp={self.exp}, prec={self.prec})"
        return f"BigReal({self.to_decimal(min(24, default_decimal_digits(self.prec)))!r}, prec={self.prec})"


def _round_ratio(n: int, d: int, exp: int, prec: int) -> BigReal:
    """``n / d * 2**exp`` rounded once to ``prec`` bits, for ``d > 0`` (``d = 0`` raises
    ``ZeroDivisionError``).

    The quotient ``q = floor(|n| * 2**s / d)`` keeps ``prec + 2`` or ``prec + 3``
    bits; an inexact one gets its low bit set (a sticky bit), which keeps the
    round-to-nearest decision of the constructor exact.
    """
    if n == 0:
        return BigReal(0, 0, prec)
    m = abs(n)
    s = prec + 2 - (m.bit_length() - d.bit_length())
    if s >= 0:
        q, r = divmod(m << s, d)
    else:
        q, r = divmod(m, d << (-s))
    if r:
        q |= 1
    return BigReal(q if n > 0 else -q, exp - s, prec)


def _abs_gap(x: BigReal, y: BigReal) -> BigReal:
    """``|x - y|`` rounded once to the larger of the two precisions."""
    prec = max(x.prec, y.prec)
    (am, ae), (bm, be) = (x.man, x.exp), (y.man, y.exp)
    if am == 0 or (bm != 0 and ae < be):  # |x - y| = |y - x|: make a the larger side
        (am, ae), (bm, be) = (bm, be), (am, ae)
    if bm == 0 or ae - be > 2 * prec + 16:
        # b is zero or below the rounding horizon, far under half the result's ulp: the
        # gap rounds to |a|, and no 2**(ae - be)-sized integer is built
        return BigReal(abs(am), ae, prec)
    return BigReal(abs((am << (ae - be)) - bm), be, prec)


def pi_value(prec: int) -> BigReal:
    """``pi`` to ``prec`` bits via Machin's arctangent formula.

    Independent of the Gamma machinery, so identities that reduce to ``pi``
    through Euler reflection are never checked against themselves.
    """
    prec = _check_precision(prec)
    F = prec + GUARD_BITS
    return BigReal.from_fixed(pi_fixed(F), F, prec)
