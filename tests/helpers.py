"""Shared test helpers: conversions to the mpmath oracle, tolerance asserts,
the per-digit block-count recurrence that the chunked ``count_block`` is
checked against, expansions in power-of-two bases read off Python's binary
string and a lookahead-regex occurrence count, the per-term log-sums that
the library's Gamma-ratio sums are checked against (the 4/pi family, the
balanced ratio product and word products, with their fixed-point log
series), the plain forms of the log-Gamma and of the summation lemma's left
side that the library's faster forms must equal exactly, the lemma's right
side and the general closed form with one case per kind of word, which the
one congruence rule must reproduce, the word-product engine before
Euler-Maclaurin runs, which the runs are checked against, and the
digit-weighted log-sum that the word sums of one length add up to."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from typing import Iterator

import mpmath

from blockprod.bigreal import BigReal
from blockprod.fixedpoint import fx_log, rshift_round
from blockprod.gammafn import (
    _SERIES_GUARD,
    GammaExpr,
    _balanced_lgamma,
    _balanced_series,
    _balanced_threshold,
    _integer_shifts,
    _series_cuts,
    _series_threshold,
    _stirling_series,
    _terms_at,
)
from blockprod.identities import FiniteSupportFn, ProductSpec, _word_plan
from blockprod.words import Word, count_block, word_value


def to_mpf(x: BigReal) -> mpmath.mpf:
    """Conversion of a BigReal into the current mpmath context.

    Goes through ``man * 2**exp``, never an exact rational, so huge values
    such as ``Gamma(1e12)`` convert cheaply.
    """
    return mpmath.ldexp(mpmath.mpf(x.man), x.exp)


def sin_pi_ref(z: Fraction, prec: int) -> BigReal:
    """``sin(pi z)`` from mpmath at ``prec + 64`` bits, rounded to a ``prec``-bit BigReal."""
    with mpmath.workprec(prec + 64):
        man, exp = mpmath.sin(mpmath.pi * z.numerator / z.denominator).man_exp
    return BigReal(man, exp, prec)


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


def pow2_digits(n: int, base: int) -> str:
    """The base-``2^s`` expansion of ``n >= 1`` as a digit string, ``s`` bits per digit of ``format(n, "b")``."""
    s = base.bit_length() - 1
    assert base == 1 << s and base <= 36
    bits = format(n, "b")
    bits = "0" * (-len(bits) % s) + bits
    return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[int(bits[i : i + s], 2)] for i in range(0, len(bits), s))


def regex_count(word: str, text: str) -> int:
    """Possibly overlapping occurrences of ``word`` in ``text``, padded by ``len(word) - 1``
    zeros when ``word`` starts with 0 and is not all zeros (the counting rule's padding)."""
    if word[0] == "0" and word.strip("0"):
        text = "0" * (len(word) - 1) + text
    return len(re.findall(f"(?={word})", text))


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
    def reaches(N: int) -> bool:
        pieces = _word_plan(spec, N, F)[2]
        return any(h == 1 and first < mstar == end - Q for _, Q, first, mstar, end, h in pieces)

    cuts, before = [], reaches(lo - 1)
    for N in range(lo, hi + 1):
        now = reaches(N)
        if now and not before:
            cuts.append(N)
            if len(cuts) == limit:
                break
        before = now
    return cuts


def run_cuts(spec, lo: int, hi: int, F: int, limit: int = 2) -> tuple[list[int], list[int]]:
    """``(switches, edges)``: the first ``limit`` prefix lengths ``N`` in ``[lo, hi]`` of each kind.

    A run is a piece with ``h > 1`` (whole blocks summed by Euler-Maclaurin).
    At a switch a level goes between a run and pieces: the levels that take
    a run differ from those at ``N - 1``.  At an edge a run's first block
    starts at the first index ``N + 1``, or its last block ends at the last,
    ``B N + B - 1``.
    """
    def runs(N: int) -> tuple[set[int], bool]:
        pieces = _word_plan(spec, N, F)[2]
        top = spec.base * (N + 1) - 1
        levels, edge = set(), False
        for _, Q, first, _, end, h in pieces:
            if h > 1:
                levels.add(h)
                edge |= first == N + 1 or end - Q + h - 1 == top
        return levels, edge

    switches, edges = [], []
    before, _ = runs(lo - 1)
    for N in range(lo, hi + 1):
        now, edge = runs(N)
        if now != before and len(switches) < limit:
            switches.append(N)
        if edge and len(edges) < limit:
            edges.append(N)
        if len(switches) == len(edges) == limit:
            break
        before = now
    return switches, edges


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


def lemma1_rhs_by_class(f: FiniteSupportFn, w: Word, base: int, misrange: bool = False) -> Fraction:
    """``sum f(B^L n + v(w))`` over ``n >= 1`` for an all-zeros word and ``n >= 0`` otherwise.

    ``misrange=True`` swaps the two ranges, so an all-zeros word reads
    ``f(0)`` and any other word drops its ``n = 0`` term.
    """
    v = word_value(w)
    step = base ** len(w.digits)
    start = 1 if not any(w.digits) else 0
    if misrange:
        start = 1 - start
    total = Fraction(0)
    for m in f.support:
        r = m - v
        if r >= 0 and r % step == 0 and r // step >= start:
            total += f(m)
    if start == 0 and v == 0:
        total += f.value_at_zero
    return total


def closed_form_baseB_by_class(spec: ProductSpec) -> GammaExpr:
    """The closed form with arguments ``1 + x/B^(j+1)`` for an all-zeros word of length ``j``
    and ``v/B^L + x/B^(L+1)`` for any other, ``x`` from ``b`` above and ``a`` below."""
    B = spec.base
    L = len(spec.word.digits)
    if not any(spec.word.digits):
        m = Fraction(1, B ** (L + 1))
        num = tuple(1 + bi * m for bi in spec.b)
        den = tuple(1 + ai * m for ai in spec.a)
    else:
        head = Fraction(word_value(spec.word), B**L)
        m = Fraction(1, B ** (L + 1))
        num = tuple(head + bi * m for bi in spec.b)
        den = tuple(head + ai * m for ai in spec.a)
    return GammaExpr(Fraction(1), num=num, den=den)


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


# --------------------------------------------------------------------------
# the word-product engine before runs
# --------------------------------------------------------------------------
#
# identities.logsum_word with block and class pieces only, as it stood
# before whole-block runs were summed by Euler-Maclaurin: O(sqrt N) pieces,
# each an exact product below the series threshold and two series edges
# above it.


def block_class_plan(
    base: int, length: int, v: int, d: int, N: int, F: int
) -> Iterator[tuple[int, int, int, int]]:
    """``identities.word_edge_plan`` before runs: pieces ``(sign, Q, first, end)`` of ``S(N)``.

    At each level the cheaper of one piece per block and one per residue
    class, priced by the same counts; about ``2 sqrt((B-1) N / B^L)``
    pieces in all.
    """
    B = base
    X0 = _series_threshold(F)
    cuts = _series_cuts(F, d)
    QL = B**length
    first = v or QL
    if first <= N:
        yield 1, QL, first, first + QL * ((N - first) // QL + 1)
    lo, hi = N + 1, B * N + B - 1
    Bj = B
    while Bj <= hi:
        a = max(lo, Bj)  # m // B^j >= 1
        Q = Bj * QL
        head = v * Bj

        def covered(c: int) -> int:
            """Indices below ``c`` with ``m // B^j = v (mod B^L)``."""
            return c // Q * Bj + min(Bj, max(0, c % Q - head))

        def blocks_meeting(x: int) -> int:
            """Blocks ``t = v (mod B^L)`` that meet ``[x, hi]``."""
            t = x // Bj
            t += (v - t) % QL
            return (hi // Bj - t) // QL + 1 if t * Bj <= hi else 0

        def cost(pieces: int, high: int, low_end: int, z: int) -> int:
            low = covered(min(low_end, hi + 1)) - covered(a) if a < low_end else 0
            return 2 * _terms_at(cuts, z) * high + 2 * d * (low + pieces)

        blocks = blocks_meeting(a)
        classes = min(Bj, covered(hi + 1) - covered(a))
        high = min(Bj, max(0, covered(hi + 1) - covered(max(a, X0 * Q))))
        if cost(blocks, blocks_meeting(max(a, X0)), X0, max(a, X0)) \
                <= cost(classes, high, X0 * Q, max(a, X0 * Q) // Q):
            for t in range(a // Bj + (v - a // Bj) % QL, hi // Bj + 1, QL):
                yield -1, 1, max(a, t * Bj), min(hi, t * Bj + Bj - 1) + 1
        else:
            for r in range(head, head + Bj):
                m0 = a + (r - a) % Q
                if m0 <= hi:
                    yield -1, Q, m0, hi - (hi - r) % Q + Q
        Bj *= B


def block_class_guard_bits(B: int, N: int) -> int:
    """The guard bits of :func:`logsum_word_oracle`: ``8 B(N+1) bitlen(B(N+1))`` rounded up to a multiple of 8."""
    top = B * (N + 1)
    return -(-(8 * top * top.bit_length()).bit_length() // 8) * 8


def _oracle_log_ratio(p: int, q: int, E: int) -> int:
    """``log(p/q)`` at scale ``E`` for positive integers: one floored quotient, one ``fx_log``."""
    if p < q:
        return -_oracle_log_ratio(q, p, E)
    return fx_log((p << E) // q, E)


def logsum_word_oracle(spec, N: int, F: int) -> int:
    """``identities.logsum_word`` before runs, bit for bit: block and class pieces only.

    Pieces of :func:`block_class_plan` at ``E = F + block_class_guard_bits``,
    exact low products in chunks of about ``8E`` bits, series edges above
    the threshold, one rounding.  The runs of the library engine are checked
    against it.
    """
    if N < 1:
        return 0
    B = spec.base
    g = block_class_guard_bits(B, N)
    E = F + g
    Fs = E - _SERIES_GUARD  # the series' nominal scale: their Horner sums land at E
    D = lcm(*(x.denominator for x in spec.a + spec.b))
    A = tuple(sorted(int(x * D) for x in spec.a))
    T = tuple(sorted(int(x * D) for x in spec.b))
    DB, d = D * B, len(A)
    chunk_bits = 8 * E
    limits: dict[int, int] = {}
    memo: dict[tuple[int, int], int] = {}

    def G(Q: int, m: int) -> int:
        v = memo.get((Q, m))
        if v is None:
            v = memo[Q, m] = _balanced_series(A, T, DB * Q, DB * m, Fs)
        return v

    total = 0
    num = den = 1  # the low products since the last chunk log
    shape = (B, len(spec.word.digits), word_value(spec.word), d)
    for sign, Q, first, end in block_class_plan(*shape, N, Fs):
        lim = limits.get(Q)
        if lim is None:
            lim = limits[Q] = _balanced_threshold(A, T, DB * Q, Fs) * Q
        mstar = first
        if first < lim:
            mstar = min(end, first + (lim - first + Q - 1) // Q * Q)
            step, stop = DB * Q, DB * mstar
            span = step * max(1, chunk_bits // (d * stop.bit_length()))
            for u in range(DB * first, stop, span):
                u1 = min(u + span, stop)
                p = q = 1
                for x in A:
                    p *= prod(range(u + x, u1 + x, step))
                for x in T:
                    q *= prod(range(u + x, u1 + x, step))
                if sign < 0:
                    p, q = q, p
                num *= p
                den *= q
                if num.bit_length() > chunk_bits:
                    total += _oracle_log_ratio(num, den, E)
                    num = den = 1
        if mstar < end:
            total += sign * (G(Q, end) - G(Q, mstar))
    if num != den:
        total += _oracle_log_ratio(num, den, E)
    return rshift_round(total, g)


# --------------------------------------------------------------------------
# the sum rule of one word length
# --------------------------------------------------------------------------


def digit_logsum(base: int, a, b, N: int, F: int) -> int:
    """``D_B(N) = sum_{n<=N} digits_B(n) log term_n`` at scale ``F``, ``term_n`` the factor of the
    product with parameters ``a`` and ``b`` in base ``B``.

    Every level ``j`` of a number's digits matches exactly one word of each
    length, so the word sums ``S_w(N)`` of one length add up to ``D_B(N)``.
    Its digit count is ``j + 1`` on ``[B^j, B^(j+1))``, and with ``f(m) =
    sum_i log((Bm + a_i)/(Bm + b_i))`` a range of ``log term_n = f(n) -
    sum_{k<B} f(Bn + k)`` is ``Phi(hi+1) - Phi(lo) - Phi(B(hi+1)) +
    Phi(B lo)``, ``Phi(m) = sum_i lgG(m + a_i/B) - lgG(m + b_i/B)``: four
    balanced log-Gammas per level, no plan, run or class series.  Each is
    taken 16 bits deeper, which keeps their digit-weighted errors below half
    a unit of ``2**-F`` for ``N`` up to ``2^120``, and the total is rounded once.
    """
    A, T, D = _integer_shifts(a, b)
    DB, E = D * base, F + 16

    def phi(m: int) -> int:
        return _balanced_lgamma(A, T, DB, DB * m, E)

    total, lo, digits = 0, 1, 1
    while lo <= N:
        hi = min(base * lo - 1, N)
        total += digits * (phi(hi + 1) - phi(lo) - phi(base * (hi + 1)) + phi(base * lo))
        lo, digits = base * lo, digits + 1
    return rshift_round(total, 16)
