"""Shared test helpers: conversions to the mpmath oracle, tolerance asserts,
the per-digit block-count recurrence that the chunked ``count_block`` is
checked against, the per-term log-sums that the library's Gamma-ratio
sums are checked against (the 4/pi family, the balanced ratio product and
word products, with their fixed-point log series), and the plain forms of
the log-Gamma and of the summation lemma's left side that the library's
faster forms must equal exactly."""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import mpmath

from blockprod.bigreal import BigReal
from blockprod.fixedpoint import fx_log, rshift_round
from blockprod.gammafn import (
    _SERIES_GUARD,
    _balanced_threshold,
    _series_threshold,
    _stirling_series,
    _terms_at,
)
from blockprod.identities import FiniteSupportFn, _word_guard_bits, word_edge_plan
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
    half_log_2pi, coeffs, cuts = _stirling_series(F)
    p, q = x.numerator, x.denominator
    M = max(0, (_series_threshold(F) * q - p + q - 1) // q)  # ceil(X0 - x)
    Z = p + M * q
    H = -(-((Z // q).bit_length() + 4) // 16) * 16
    E = F + H
    acc = (2 * Z - q) * fx_log(Z << E, E)
    if q > 1:
        acc += (q - 2 * p) * fx_log(q << E, E)
    acc = acc // (2 * q) - (Z << E) // q
    if M:
        acc -= fx_log(prod(range(p, Z, q)) << E, E)
    q2, Z2 = q * q, Z * Z
    s = 0
    for c in reversed(coeffs[: _terms_at(cuts, Z // q)]):
        s = c + s * q2 // Z2
    s = s * q // Z + half_log_2pi
    return rshift_round(acc + (s << (H - _SERIES_GUARD)), H)


def mstar_cuts(spec, lo: int, hi: int, F: int, limit: int = 2) -> list[int]:
    """The first ``limit`` prefix lengths ``N`` in ``[lo, hi]`` at which a piece reaches ``m*``.

    ``m*`` is the first point of a piece at or above its series threshold.
    At such an ``N`` the plan has a piece whose last point is its ``m*``
    (one point on the series, the rest exact products) and the plan at
    ``N - 1`` has none.
    """
    B, L = spec.base, len(spec.word.digits)
    D = lcm(*(x.denominator for x in spec.a + spec.b))
    A = tuple(sorted(int(x * D) for x in spec.a))
    T = tuple(sorted(int(x * D) for x in spec.b))

    def reaches(N: int) -> bool:
        Fs = F + _word_guard_bits(B, N) - _SERIES_GUARD
        for _, Q, first, end in word_edge_plan(B, L, word_value(spec.word), len(A), N, Fs):
            lim = _balanced_threshold(A, T, D * B * Q, Fs) * Q
            if first < lim <= end - Q < lim + Q:
                return True
        return False

    cuts, before = [], reaches(lo - 1)
    for N in range(lo, hi + 1):
        now = reaches(N)
        if now and not before:
            cuts.append(N)
            if len(cuts) == limit:
                break
        before = now
    return cuts


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
# fixed-point logs of rationals near 1
# --------------------------------------------------------------------------
#
# Each is an exact-integer atanh series, floored term by term, so it sits
# below the exact log by a few units of 2**-F; the per-term sums below add
# one per term and drift by as many units per term.


def fx_log_ratio(p: int, q: int, F: int) -> int:
    """``log(p/q)`` for positive integers, by ``log(p/q) = 2*atanh((p-q)/(p+q))``."""
    if p <= 0 or q <= 0:
        raise ValueError("fx_log_ratio needs positive integers")
    if p == q:
        return 0
    if p < q:
        return -fx_log_ratio(q, p, F)
    t = ((p - q) << F) // (p + q)
    t2 = (t * t) >> F
    u = t
    s = 0
    k = 1
    while u:
        s += u // k
        u = (u * t2) >> F
        k += 2
    return 2 * s


def fx_log1p_inv(q: int, F: int) -> int:
    """``log(1 + 1/q)`` for a positive integer ``q``: ``2 * sum_{j>=0} (2q+1)^-(2j+1)/(2j+1)``."""
    if q <= 0:
        raise ValueError("fx_log1p_inv needs a positive integer")
    c = 2 * q + 1
    c2 = c * c
    u = (2 << F) // c
    s = 0
    k = 1
    while u:
        s += u // k
        u //= c2
        k += 2
    return s


def logsum_word_product(spec, counts, lo: int, hi: int, F: int) -> int:
    """Sum of ``N_w(n) * log(term_n)`` for ``n`` in ``[lo, hi]``, one log per term with nonzero count.

    ``counts[n - lo] = N_w(n)`` (see ``words.block_counts``) and ``term_n =
    spec.factor(n)``; the canonical base-2 parameters ``a = (1, 1)``, ``b =
    (0, 2)`` give ``((4n+2)^2/((4n+1)(4n+3)))^2``, a ``log(1 + 1/q)`` each.
    """
    if len(counts) != hi - lo + 1:
        raise ValueError("counts must hold one entry per index in [lo, hi]")
    total = 0
    if spec.base == 2 and spec.a == (1, 1) and spec.b == (0, 2):
        for n, c in enumerate(counts, lo):
            if c:
                total += (2 * c) * fx_log1p_inv((4 * n + 1) * (4 * n + 3), F)
        return total
    B = spec.base
    pairs = [(a.numerator, a.denominator, b.numerator, b.denominator) for a, b in zip(spec.a, spec.b)]
    for n, c in enumerate(counts, lo):
        if not c:
            continue
        bn = B * n
        p = q = 1  # term_n = p/q, unreduced
        for an, ad, bnum, bd in pairs:
            p *= (bn * ad + an) * bd
            q *= (bn * bd + bnum) * ad
            for k in range(B):
                x = B * bn + B * k
                p *= (x * bd + bnum) * ad
                q *= (x * ad + an) * bd
        total += c * fx_log_ratio(p, q, F)
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
