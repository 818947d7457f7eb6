"""Shared test helpers: conversions to the mpmath oracle, tolerance asserts,
the per-digit block-count recurrence that the chunked ``count_block`` is
checked against, the per-term log-sums that the library's Gamma-ratio
sums are checked against (the 4/pi family and the balanced ratio product),
and the plain forms of the log-Gamma and of the summation lemma's left
side that the library's faster forms must equal exactly."""

from __future__ import annotations

from fractions import Fraction
from math import prod

import mpmath

from blockprod._kernels_py import fx_log1p_inv, fx_log_ratio
from blockprod.bigreal import BigReal
from blockprod.fixedpoint import fx_log, rshift_round
from blockprod.gammafn import _SERIES_GUARD, _series_threshold, _stirling_series
from blockprod.identities import FiniteSupportFn
from blockprod.words import Word, count_block, word_value


def to_mpf(x: BigReal) -> mpmath.mpf:
    """Conversion of a BigReal into the current mpmath context.

    Goes through ``man * 2**exp``, never an exact rational, so huge values
    such as ``Gamma(1e12)`` convert cheaply.
    """
    return mpmath.ldexp(mpmath.mpf(x.man), x.exp)


def rel_err(got: BigReal, want) -> mpmath.mpf:
    """Relative error of ``got`` against an mpmath reference value."""
    return abs(to_mpf(got) - want) / abs(want)


def assert_close(got: BigReal, want, bound) -> None:
    """Assert relative error below ``bound``."""
    err = rel_err(got, want)
    assert err <= bound, f"relative error {err} exceeds {bound}"


def frac_rel_err(got: Fraction, want: Fraction) -> Fraction:
    return abs(got - want) / abs(want)


def count_block_recurrence(w: Word, n: int) -> int:
    """``N_w(n)`` by the counting recurrence, one digit of ``n`` per step."""
    modulus = w.base ** len(w.digits)
    v = word_value(w)
    c = 0
    while n:
        c += n % modulus == v
        n //= w.base
    return c


def loggamma_fixed_oracle(x: Fraction, F: int) -> int:
    """``gammafn._loggamma_fixed`` with the shift product as one ``math.prod`` and no cached ``log q``."""
    half_log_2pi, coeffs = _stirling_series(F)
    p, q = x.numerator, x.denominator
    M = max(0, (_series_threshold(F) * q - p + q - 1) // q)  # ceil(X0 - x)
    Z = p + M * q
    H = max(_SERIES_GUARD, (Z // q).bit_length() + 4)
    E = F + H
    acc = (2 * Z - q) * fx_log(Z << E, E)
    if q > 1:
        acc += (q - 2 * p) * fx_log(q << E, E)
    acc = acc // (2 * q) - (Z << E) // q
    if M:
        acc -= fx_log(prod(range(p, Z, q)) << E, E)
    q2, Z2 = q * q, Z * Z
    s = 0
    for c in reversed(coeffs):
        s = c + s * q2 // Z2
    s = s * q // Z + half_log_2pi
    return rshift_round(acc + (s << (H - _SERIES_GUARD)), H)


def lemma1_lhs_oracle(f: FiniteSupportFn, w: Word, base: int) -> Fraction:
    """``sum_{n>=1} N_w(n) * (f(n) - sum_{k<B} f(Bn+k))`` term by term in ``Fraction`` arithmetic."""
    candidates = set(f.support)
    for m in f.support:
        t = m // base
        if t >= 1:
            candidates.add(t)
    total = Fraction(0)
    for n in sorted(candidates):
        inner = f(n)
        for k in range(base):
            inner -= f(base * n + k)
        if inner:
            c = count_block(w, n)
            if c:
                total += c * inner
    return total


# --------------------------------------------------------------------------
# per-term log-sums of the 4/pi family
# --------------------------------------------------------------------------


def logsum_rivoal_original(lo: int, hi: int, F: int) -> int:
    """Log-sum of ``(1 + 1/(k+1))^(2*rho(k)*(bitlen(k)-2))`` for ``k`` in ``[lo, hi]``.

    ``rho`` is the 4-periodic sequence 1, -1, 0, 0 and ``bitlen(k) - 2`` is
    the exact integer value of ``floor(log2(k) - 1)`` for ``k >= 2``.
    """
    total = 0
    for k in range(max(lo, 2), hi + 1):
        r = k & 3
        if r > 1:
            continue
        e = 2 * (k.bit_length() - 2)
        if e == 0:
            continue
        if r == 1:
            e = -e
        total += e * fx_log1p_inv(k + 1, F)
    return total


def logsum_rivoal_grouped(lo: int, hi: int, F: int) -> int:
    """Log-sum of ``((4k+2)^2/((4k+1)(4k+3)))^(2*bitlen(k))`` for ``k`` in ``[lo, hi]``.

    ``bitlen(k)`` equals the number of binary digits of ``k``, i.e. the total
    digit-block count ``N_0(k) + N_1(k)``.
    """
    total = 0
    for k in range(max(lo, 1), hi + 1):
        total += (2 * k.bit_length()) * fx_log1p_inv((4 * k + 1) * (4 * k + 3), F)
    return total


def logsum_alternating(lo: int, hi: int, F: int) -> int:
    """Same factors with exponent ``2*(-1)^k*(N_0(k) + N_1(k))``."""
    total = 0
    for k in range(max(lo, 1), hi + 1):
        e = 2 * k.bit_length()
        if k & 1:
            e = -e
        total += e * fx_log1p_inv((4 * k + 1) * (4 * k + 3), F)
    return total


def logsum_companion(lo: int, hi: int, F: int) -> int:
    """Log-sum of ``((4k+2)^2/((4k+1)(4k+3)))^(2*(N_0(k) - N_1(k)))`` for ``k`` in ``[lo, hi]``.

    The exponent is ``2*(bitlen(k) - 2*popcount(k))``, the signed digit balance.
    """
    total = 0
    for k in range(max(lo, 1), hi + 1):
        e = 2 * (k.bit_length() - 2 * k.bit_count())
        if e:
            total += e * fx_log1p_inv((4 * k + 1) * (4 * k + 3), F)
    return total


def logsum_ratio_product(a: tuple, b: tuple, lo: int, hi: int, F: int) -> int:
    """Sum of ``log(prod_i (n+a_i)/(n+b_i))`` for ``n`` in ``[lo, hi]``, one series per term."""
    total = 0
    for n in range(lo, hi + 1):
        p = q = Fraction(1)
        for ai, bi in zip(a, b):
            p *= n + ai
            q *= n + bi
        r = p / q
        total += fx_log_ratio(r.numerator, r.denominator, F)
    return total
