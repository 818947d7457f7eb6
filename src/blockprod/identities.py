"""The paper-level identities as executable objects.

Four families live here:

* the exact summation identity relating block counts to a shifted sum
  (:func:`lemma1_lhs` / :func:`lemma1_rhs` / :func:`lemma1_residual`),
  evaluated end-to-end in exact rational arithmetic for finitely supported
  functions;
* the closed-form constructors for block-exponent products
  (:func:`closed_form_base2` for the canonical base-2 family and
  :func:`closed_form_baseB` for general base and parameter vectors);
* the truncated log-sum of a general block-exponent product, telescoped by
  the same identity into levels of blocks: the whole blocks of a level from
  block index ``X1`` on as one Euler-Maclaurin run over a balanced
  Gamma-ratio series, and a few dozen pieces, each an exact product below
  the series threshold and the series above it (:func:`logsum_word`);
* the concrete 4/pi product family: the original four-periodic form, the
  grouped form with digit-count exponents, the companion form with signed
  digit-count exponents, and the numerically estimated alternating form.
  The forms whose exponent depends on ``bitlen(k)`` alone are summed on
  the word products' balanced series (:func:`logsum_rivoal_grouped` and its
  siblings); the companion form, whose exponent also depends on
  ``popcount(k)``, as the grouped log-sum minus twice the word product of
  the base-2 word ``1`` (:func:`logsum_companion`).

Floor-log exponents are always derived from integer bit length
(``floor(log2 k - 1) = bitlen(k) - 2`` and ``floor(log2 k + 1) = bitlen(k)``
for ``k >= 1``), never from floating logarithms, so powers of two are exact.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cache
from math import lcm, prod

from blockprod.bigreal import GUARD_BITS, BigReal, _check_precision
from blockprod.fixedpoint import rshift_round
from blockprod.gammafn import (
    _SERIES_GUARD,
    BalanceError,
    GammaExpr,
    _balanced_lgammas,
    _balanced_series,
    _balanced_threshold,
    _integer_shifts,
    _largest_shift,
    _log_ratio,
    _run_bounds,
    _run_counts,
    _run_rows,
    _series,
    _series_cuts,
    _series_threshold,
    _terms_at,
)
from blockprod.words import Word, _Record, count_block, word_value

__all__ = [
    "rho",
    "FiniteSupportFn",
    "DEFAULT_PARAMS",
    "ProductSpec",
    "lemma1_lhs",
    "lemma1_rhs",
    "lemma1_residual",
    "closed_form_base2",
    "closed_form_baseB",
    "companion_closed_form",
    "rivoal_original_partial",
    "rivoal_grouped_partial",
    "companion_partial",
    "alternating_product_estimate",
    "logsum_rivoal_original",
    "logsum_rivoal_grouped",
    "logsum_alternating",
    "logsum_companion",
    "logsum_word",
    "word_edge_plan",
    "rivoal_original_factors",
    "rivoal_grouped_factors",
    "grouping_identity_holds",
]

_RHO = (1, -1, 0, 0)


def rho(k: int) -> int:
    """The 4-periodic sequence with values 1, -1, 0, 0 starting at ``rho(0) = 1``."""
    if k < 0:
        raise ValueError("rho is defined for k >= 0")
    return _RHO[k & 3]


# --------------------------------------------------------------------------
# exact summation identity
# --------------------------------------------------------------------------


class FiniteSupportFn(_Record):
    """A rational-valued function on the nonnegative integers, zero a.e.

    ``entries`` maps positive integers to nonzero rational values; the value
    at 0 is carried separately because the summation identity never reads it
    (only the deliberately mis-ranged debug variant does — that is exactly
    what makes the range split observable).
    """

    _fields = ("entries", "value_at_zero")

    def __init__(self, entries: Mapping[int, Fraction], value_at_zero: Fraction = Fraction(0)) -> None:
        clean = {}
        for k, v in dict(entries).items():
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"support keys must be integers >= 1, got {k!r}")
            fv = Fraction(v)
            if fv:
                clean[k] = fv
        vars(self).update(entries=clean, value_at_zero=Fraction(value_at_zero))

    def __call__(self, n: int) -> Fraction:
        if n == 0:
            return self.value_at_zero
        return self.entries.get(n, Fraction(0))

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)


def _check_lemma_args(f: FiniteSupportFn, w: Word, base: int) -> None:
    if w.is_empty:
        raise ValueError("the summation identity needs a nonempty word")
    if w.base != base:
        raise ValueError(f"word base {w.base} does not match base {base}")


def lemma1_lhs(f: FiniteSupportFn, w: Word, base: int) -> Fraction:
    """Exact value of ``sum_{n>=1} N_w(n) * (f(n) - sum_{k<B} f(Bn+k))``.

    The values of ``f`` are scaled to their least common denominator ``D``
    as integers ``g``, grouped by block: each support point ``m`` adds
    ``g(m)`` to ``inner[m]`` and subtracts it from ``inner[m // B]``, so
    ``inner[n] = g(n) - sum_{k<B} g(Bn+k)`` for every ``n`` that can
    contribute, in O(|support|) steps for any base.  The sum of
    ``N_w(n) * inner[n]`` runs in integers and is divided by ``D`` once at
    the end.
    """
    _check_lemma_args(f, w, base)
    D = lcm(*(v.denominator for v in f.entries.values()))
    inner: dict[int, int] = {}
    for m, v in f.entries.items():
        g = v.numerator * (D // v.denominator)
        inner[m] = inner.get(m, 0) + g
        if m >= base:
            inner[m // base] = inner.get(m // base, 0) - g
    total = 0
    for n, x in inner.items():
        if x:
            total += count_block(w, n) * x
    return Fraction(total, D)


def lemma1_rhs(f: FiniteSupportFn, w: Word, base: int, misrange: bool = False) -> Fraction:
    """Exact value of ``sum f(m)`` over ``m >= 1`` with ``m == v(w) (mod B^L)``.

    One rule for every word: the shifted sum runs over the integers ``m >= 1``
    congruent to ``v(w)`` modulo ``B^L``, so its first term is ``f(v(w))``,
    and ``f(B^L)`` for the word of value 0.  The support keys are ``>= 1``,
    so they give that range as they stand.  ``misrange=True`` deliberately
    starts the range one block off; this is a debug/negative-control hook:
    it adds ``f(0)``, which the correct identity never reads, when
    ``v(w) = 0``, and drops ``f(v(w))`` otherwise.
    """
    _check_lemma_args(f, w, base)
    v = word_value(w)
    step = base ** len(w.digits)
    total = sum((x for m, x in f.entries.items() if m % step == v), Fraction(0))
    if misrange:
        total += f.value_at_zero if v == 0 else -f(v)
    return total


def lemma1_residual(f: FiniteSupportFn, w: Word, base: int, misrange: bool = False) -> Fraction:
    """``lemma1_lhs - lemma1_rhs``; exactly zero for every finite-support ``f``."""
    return lemma1_lhs(f, w, base) - lemma1_rhs(f, w, base, misrange=misrange)


# --------------------------------------------------------------------------
# product specifications and closed forms
# --------------------------------------------------------------------------


# The parameter vectors ``a = (1, 1)``, ``b = (0, 2)`` that yield the base-2 family.
DEFAULT_PARAMS = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))


class ProductSpec(_Record):
    """One block-exponent infinite product: base, word, parameter vectors.

    The parameter sums must balance exactly (rational check); that is the
    hypothesis making the product converge and collapse to a Gamma ratio.
    """

    _fields = ("base", "word", "a", "b")

    def __init__(self, base: int, word: Word, a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> None:
        if base < 2:
            raise ValueError("base must be >= 2")
        if word.is_empty:
            raise ValueError("word must be nonempty")
        if word.base != base:
            raise ValueError(f"word base {word.base} != spec base {base}")
        a = tuple(Fraction(x) for x in a)
        b = tuple(Fraction(x) for x in b)
        if len(a) != len(b) or not a:
            raise ValueError("parameter vectors must have equal nonzero length")
        if any(x < 0 for x in a + b):
            raise ValueError("parameters must be nonnegative rationals")
        if sum(a) != sum(b):
            raise BalanceError(f"sum(a) = {sum(a)} != sum(b) = {sum(b)}")
        vars(self).update(base=base, word=word, a=a, b=b)

    @classmethod
    def canonical_base2(cls, word: Word) -> "ProductSpec":
        """The word's product with :data:`DEFAULT_PARAMS`, the base-2 family."""
        return cls(2, word, *DEFAULT_PARAMS)

    def factor(self, n: int) -> Fraction:
        """Exact value of the n-th product term (before the block exponent)."""
        if n < 1:
            raise ValueError("terms are indexed from n = 1")
        B = self.base
        t = Fraction(1)
        for ai, bi in zip(self.a, self.b):
            t *= (B * n + ai) / (B * n + bi)
            for k in range(B):
                x = B * B * n + B * k
                t *= (x + bi) / (x + ai)
        return t

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "word": self.word.render(),
            "a": [str(x) for x in self.a],
            "b": [str(x) for x in self.b],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ProductSpec":
        base = int(obj["base"])
        return cls(
            base,
            Word.parse(obj["word"], base),
            tuple(Fraction(s) for s in obj["a"]),
            tuple(Fraction(s) for s in obj["b"]),
        )


def closed_form_base2(w: Word) -> GammaExpr:
    """Closed form of the canonical base-2 product with exponent ``2 N_w(n)``.

    It is :func:`closed_form_baseB` at ``a = (1, 1)``, ``b = (0, 2)``, each
    argument ``x > 1`` moved down by ``G(x) = (x - 1) G(x - 1)`` with ``x - 1``
    put into the prefactor.  Only the all-zeros words have such arguments, so
    the word of value 0 and length ``L`` gives ``2^(L+2) G(1/2^L) /
    G(1/2^(L+1))^2`` and a word of value ``v > 0`` gives
    ``G(v/2^L) G((v+1)/2^L) / G((2v+1)/2^(L+1))^2``.
    """
    form = closed_form_baseB(ProductSpec.canonical_base2(w))
    up = [x - 1 for x in form.num if x > 1]
    down = [x - 1 for x in form.den if x > 1]
    return GammaExpr(
        form.prefactor * prod(up, start=Fraction(1)) / prod(down, start=Fraction(1)),
        num=[x for x in form.num if x <= 1] + up,
        den=[x for x in form.den if x <= 1] + down,
    )


def closed_form_baseB(spec: ProductSpec) -> GammaExpr:
    """Closed form of a general block-exponent product (prefactor 1).

    Numerator arguments come from ``b``, denominator arguments from ``a``:
    ``x/B^(L+1)`` plus ``m0/B^L``, where ``m0`` is the first ``m >= 1`` with
    ``m == v (mod B^L)`` (the congruence rule of :func:`lemma1_rhs`): ``v``
    itself, or ``B^L`` for the word of value 0.
    """
    B = spec.base
    L = len(spec.word.digits)
    head = Fraction(word_value(spec.word) or B**L, B**L)
    m = Fraction(1, B ** (L + 1))
    num = tuple(head + bi * m for bi in spec.b)
    den = tuple(head + ai * m for ai in spec.a)
    return GammaExpr(Fraction(1), num=num, den=den)


@cache
def companion_closed_form() -> GammaExpr:
    """``8 G(3/4)^2 / G(1/4)^2``, the value of the signed-exponent companion product.

    The companion's exponent ``2(N_0 - N_1)`` is the base-2 word ``0``'s
    exponent minus the word ``1``'s, and both word products converge, so the
    product is the quotient of their closed forms (:func:`closed_form_base2`),
    ``8 G(1/2) / G(1/4)^2`` over ``G(1/2) / G(3/4)^2``, whose ``G(1/2)``
    cancels.  Via reflection this equals ``16 pi^2 / G(1/4)^4``; the package
    checks the two renditions against each other rather than against any
    decimal literal.  The form is built once per process.
    """
    zero = closed_form_base2(Word.parse("0", 2))
    one = closed_form_base2(Word.parse("1", 2))
    return GammaExpr(zero.prefactor / one.prefactor, num=zero.num + one.den, den=zero.den + one.num)


# --------------------------------------------------------------------------
# bit-length family log-sums on the balanced series
# --------------------------------------------------------------------------
#
# A family is (M, W, classes).  Class r is (sign, A, T): the factor of index
# k = M*m + r is prod_i (W*m + A_i)/(W*m + T_i) with exponent
# 2 * sign * bitlen(k), so its log summed over m = a..b is Phi_r(b + 1) -
# Phi_r(a), Phi_r(m) = gammafn._balanced_lgamma(A, T, W, W*m); translated,
# every class has the shape (1, 1)/(0, 2) of the base-2 word products.  The
# exponent is constant on a class within a dyadic block, so with x_j the
# class's first m in block j (x_(J+1) the first past N, J = bitlen(N)) the
# prefix telescopes to P(N) = sum_r 2 sign_r (J Phi_r(x_(J+1)) - sum_{j<=J}
# Phi_r(x_j)).  A class's Phi come from one gammafn._balanced_lgammas call:
# its edges below the series threshold, all multiples of W, share one series
# point, whose series is summed once, and one nested chain of shift products,
# and each Phi is the integer it is alone.  Each Phi is within one unit of
# 2**-E and the weights add up to 4J per class: with two classes (or the
# original form's extra log, weight 2J) P is within 8J units of 2**-E.  So P
# is summed at E = F + g, g = max(16, bitlen(16J - 1)) the least g from 16
# on with 2**g >= 16J, and rounded once is within one unit of 2**-F for
# every N (g = 16 for every N below 2**4096).  P is an integer fixed by
# (N, F), so a range is P(hi) - P(lo - 1) and ranges add up exactly.
_GROUPED = (1, 4, ((1, (2, 2), (1, 3)),))
_ALTERNATING = (2, 8, ((1, (2, 2), (1, 3)), (-1, (6, 6), (5, 7))))


def _family_prefix(family, N: int, E: int) -> int:
    """``P(N)``: the log-sum over ``1 <= k <= N`` at scale ``E``, unrounded."""
    if N < 1:
        return 0
    M, W, classes = family
    J = N.bit_length()
    total = 0
    for r, (sign, A, T) in enumerate(classes):
        edges = [-((r - (1 << j)) // M) for j in range(J)]  # first m with M*m + r >= 2^j
        last = (N - r) // M + 1
        phi = _balanced_lgammas(A, T, W, {W * m for m in (*edges, last)}, E)
        total += 2 * sign * (J * phi[W * last] - sum(phi[W * m] for m in edges))
    return total


def _original_prefix(K: int, E: int) -> int:
    """The original form's ``P(K)`` from the grouped one, by the paper's block grouping.

    ``k = 4m`` and ``4m + 1`` carry ``(4m+2)/(4m+1)`` and ``(4m+3)/(4m+2)``
    with exponents ``2 bitlen(m)`` and ``-2 bitlen(m)``, together the grouped
    factor of ``m``; ``k = 2, 3 (mod 4)`` carry none.  A lone ``k = K = 4m``
    is added as one log.
    """
    total = _family_prefix(_GROUPED, (K - 1) // 4, E)
    if K > 0 and K % 4 == 0:
        total += 2 * (K // 4).bit_length() * _log_ratio(K + 2, K + 1, E)
    return total


def _prefix_range(prefix, lo: int, hi: int, F: int) -> int:
    """``P(hi) - P(lo - 1)`` at scale ``F``, each prefix ``P(N)`` summed at ``F + g(N)`` and rounded once."""
    if lo > hi:
        return 0
    total = 0
    for N, sign in ((hi, 1), (lo - 1, -1)):
        g = max(16, (16 * N.bit_length() - 1).bit_length())
        total += sign * rshift_round(prefix(N, F + g), g)
    return total


def logsum_rivoal_original(lo: int, hi: int, F: int) -> int:
    """Log-sum of ``(1 + 1/(k+1))^(2*rho(k)*(bitlen(k)-2))`` for ``k`` in ``[max(lo, 2), hi]``.

    ``rho`` is the 4-periodic sequence 1, -1, 0, 0 and ``bitlen(k) - 2`` is
    the exact integer value of ``floor(log2(k) - 1)`` for ``k >= 2``.  The
    prefixes come from the grouped form's (:func:`_original_prefix`).
    """
    return _prefix_range(_original_prefix, max(lo, 2), hi, F)


def logsum_rivoal_grouped(lo: int, hi: int, F: int) -> int:
    """Log-sum of ``((4k+2)^2/((4k+1)(4k+3)))^(2*bitlen(k))`` for ``k`` in ``[max(lo, 1), hi]``.

    ``bitlen(k)`` equals the number of binary digits of ``k``, i.e. the total
    digit-block count ``N_0(k) + N_1(k)``.
    """
    return _prefix_range(lambda N, E: _family_prefix(_GROUPED, N, E), max(lo, 1), hi, F)


def logsum_alternating(lo: int, hi: int, F: int) -> int:
    """Same factors as the grouped form with exponent ``2*(-1)^k*bitlen(k)``.

    With ``k = 2m + r`` the factor is
    ``(8m + 4r + 2)^2 / ((8m + 4r + 1)(8m + 4r + 3))``.
    """
    return _prefix_range(lambda N, E: _family_prefix(_ALTERNATING, N, E), max(lo, 1), hi, F)


# --------------------------------------------------------------------------
# word products by the telescoping lemma
# --------------------------------------------------------------------------
#
# With f(m) = sum_i log((Bm + a_i)/(Bm + b_i)) the n-th term's log is
# f(n) - sum_{k<B} f(Bn + k), and the recurrence N_w(m) - N_w(m // B) =
# [m mod B^L = v] telescopes the truncated log-sum (Allouche-Shallit) into
#
#   S(N) = sum_{1<=m<=N, m = v mod B^L} f(m)
#          - sum_{m=N+1}^{BN+B-1} N_w(m // B) f(m).
#
# The weight N_w(m // B) counts the levels j >= 1 with m // B^j = v mod B^L
# and m // B^j >= 1: at level j those m form blocks of B^j consecutive
# indices, one block per B^(j+L), and equally B^j residue classes modulo
# B^(j+L).  Each block, each class and the first sum's progression adds up
# f over an arithmetic progression m = first, first + Q, ... < end, which is
# G_Q(end) - G_Q(first) with G_Q(m) = sum_i lgG((m + a_i/B)/Q) -
# lgG((m + b_i/B)/Q), a balanced log-Gamma sum.  Its series
# (gammafn._balanced_series) holds from m = X0 Q on; the points below are
# summed as the log of the exact rational prod_i (Bm + a_i)/(Bm + b_i).


_RUN_STEPS = 128  # price of a run's fx_log and set-up, in Horner steps
_RUN_ROW_STEPS = 6  # price of one kept Euler-Maclaurin term at four endpoints, with its row's scalings


def word_edge_plan(
    base: int, length: int, v: int, d: int, N: int, F: int, big: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """Pieces ``(sign, Q, first, end, h)`` of ``S(N)`` for a word of value ``v`` and length ``length``.

    ``S(N)`` is the sum over the pieces of ``sign`` times ``f`` summed over
    the blocks ``[first + sQ, first + sQ + h)`` with ``first + sQ < end``.
    A piece with ``h = 1`` is summed point by point (exact products below
    the series threshold ``X0 Q``, series edges above), a piece with
    ``h > 1`` is a run of whole blocks summed by Euler-Maclaurin.  At each
    level the plan takes the cheapest of one piece per block (``Q = 1``),
    one per residue class (``Q = B^(j+L)``), and one per block below
    ``X1`` or cut by the range's ends with a run over the rest, priced by
    counts taken without building a piece.  A piece costs a Horner step per
    series term for each edge at or above the threshold, and ``2d`` factors
    for each point below it and for the piece itself; the term count is the
    one the series keeps at the level's lowest edge, ``z = max(a, X0)`` for
    blocks and ``max(a, X0 Q) // Q`` for classes (``gammafn._terms_at``).
    A run costs its Horner steps at four endpoints: one per term for the
    series and its integral at the count of its least point ``y``, and one
    and a half per term of the Euler-Maclaurin rows of
    ``gammafn._run_counts``, for the scaling of each row; its ``fx_log``
    and set-up add ``_RUN_STEPS``.  ``big`` is the largest shift of the
    series (``gammafn._largest_shift``), 0 when every shift lies in
    ``[0, 1]``.  So a level costs about one run plus the blocks below
    ``X1`` and at its ends.  The plan depends on its arguments alone.
    """
    B = base
    X0 = _series_threshold(F, big)
    cuts = _series_cuts(F, d, big)
    lx = ly = None  # where runs may start, from gammafn._run_bounds once a level asks
    QL = B**length
    first = v or QL
    if first <= N:
        yield 1, QL, first, first + QL * ((N - first) // QL + 1), 1
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
        high = blocks_meeting(max(a, X0))
        best = cost(blocks, high, X0, max(a, X0))
        classes = min(Bj, covered(hi + 1) - covered(a))
        high_classes = min(Bj, max(0, covered(hi + 1) - covered(max(a, X0 * Q))))
        class_cost = cost(classes, high_classes, X0 * Q, max(a, X0 * Q) // Q)
        run = None
        if high > 2:
            if lx is None:
                lx, ly = _run_bounds(F, d, big)[:2]
            need = max(-(-a // Bj), QL << lx, -(-max(X0, 1 << ly) // Bj))
            t0 = need + (v - need) % QL  # the run's first block
            t1 = (hi + 1) // Bj - 1
            t1 -= (t1 - v) % QL  # its last: the last whole block
            n = (t1 - t0) // QL + 1
            if n > 1:
                y = t0 * Bj
                counts = _run_counts(F, d, big, y.bit_length() - 1, (t0 // QL).bit_length() - 1)
                steps = 8 * _terms_at(cuts, y) + _RUN_ROW_STEPS * sum(counts) + _RUN_STEPS
                if cost(blocks - n, high - n, X0, max(a, X0)) + steps < min(best, class_cost):
                    run = t0, t1, n
        if run is not None:
            t0, t1, n = run
            for t in range(a // Bj + (v - a // Bj) % QL, t0, QL):
                yield -1, 1, max(a, t * Bj), t * Bj + Bj, 1
            yield -1, Q, t0 * Bj, t0 * Bj + n * Q, Bj
            for t in range(t1 + QL, hi // Bj + 1, QL):
                yield -1, 1, t * Bj, min(hi, t * Bj + Bj - 1) + 1, 1
        elif best <= class_cost:
            for t in range(a // Bj + (v - a // Bj) % QL, hi // Bj + 1, QL):
                yield -1, 1, max(a, t * Bj), min(hi, t * Bj + Bj - 1) + 1, 1
        else:
            # the class residues r in [head, head + Bj) of the m in [a, hi]: all
            # of them, or when [a, hi] is shorter than Q the at most two runs
            # of residues it covers, in increasing order
            if hi - a + 1 >= Q:
                spans = ((0, Q),)
            elif a % Q <= hi % Q:
                spans = ((a % Q, hi % Q + 1),)
            else:
                spans = ((0, hi % Q + 1), (a % Q, Q))
            for r0, r1 in spans:
                for r in range(max(r0, head), min(r1, head + Bj)):
                    yield -1, Q, a + (r - a) % Q, hi - (hi - r) % Q + Q, 1
        Bj *= B


def _series_shifts(spec: ProductSpec) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(A, T, DB)``: ``f(m) = sum_i log((DBm + A_i)/(DBm + T_i))`` in integers, ``D`` the parameters' common denominator."""
    A, T, D = _integer_shifts(spec.a, spec.b)
    return A, T, D * spec.base


# The log-sum adds up, at the working scale E = F + g, values that are each
# within two units of 2**-E: the series edges of the pieces (at most two per
# piece; gammafn._balanced_series), one log per chunk of the exact low
# products (a floored quotient and an fx_log), and the floors of each run.
# A chunk closes once its numerator passes 8E bits, so there are at most
# bits // 8E + 1 chunk logs, bits the size of all low factors together
# (d factors per low point, none above bitlen(DB top + max shift), top above
# every point of the plan).
# A run is within 16 + m + 2|c_1|/P units (_run_sum; m <= the rows of
# gammafn._run_bounds, |c_1| <= d (1 + big^2) 2**E, P >= 4), so it counts as
# 16 + m + d (1 + big^2) values.  With V values in all the sum drifts by
# less than 2V units, which 2**g >= 4V keeps below half a unit of 2**-F;
# the rounding to F adds the other half.  g is the least multiple of 8 from
# 16 on that passes for the plan made at its own scale (at 128 bits, 16
# passes at once for every N measured up to 10^30), so that nearby N share
# one scale, and with it their series coefficients and log ladders.  V is
# counted in the one pass that fixes each piece's m*, which the sum reads.
def _word_plan(spec: ProductSpec, N: int, F: int) -> tuple[int, int, list[tuple[int, int, int, int, int, int]]]:
    """``(g, V, pieces)``: the guard bits of :func:`logsum_word` at ``(spec, N, F)``, the values counted
    above, and the plan made at ``E = F + g``: each piece of :func:`word_edge_plan` with its ``m*``, the
    first point at or above the series threshold of its modulus (``first`` for a run), as
    ``(sign, Q, first, m*, end, h)``."""
    A, T, DB = _series_shifts(spec)
    d, big = len(A), _largest_shift(A, T, DB)
    shape = (spec.base, len(spec.word.digits), word_value(spec.word), d)
    g = 16
    while True:
        Fs = F + g - _SERIES_GUARD
        X0 = _series_threshold(Fs)
        pieces = []
        values = low = runs = top = 0
        for sign, Q, first, end, h in word_edge_plan(*shape, N, Fs, big):
            mstar = first
            if h > 1:
                runs += 1
            else:
                lim = (_balanced_threshold(A, T, DB * Q, Fs) if big else X0) * Q  # shifts shrink as Q grows
                if first < lim:
                    mstar = min(end, first + (lim - first + Q - 1) // Q * Q)
                    low += (mstar - first) // Q
                values += 2 * (mstar < end)
            top = max(top, end)  # above every point
            pieces.append((sign, Q, first, mstar, end, h))
        if runs:
            values += runs * (16 + len(_run_bounds(Fs, d, big)[2]) + d * (1 + big * big))
        values += low * (d * (DB * top + max(A + T)).bit_length()) // (8 * (F + g)) + 1
        if 4 * values <= 1 << g:
            return g, values, pieces
        g += 8


def logsum_word(spec: ProductSpec, N: int, F: int) -> int:
    """``S(N) = sum_{n=1}^N N_w(n) * log(term_n)`` at scale ``F``, within one unit of ``2**-F``.

    Sums the pieces of :func:`word_edge_plan` at the working scale
    ``E = F + g`` (``g`` counted from the plan; see the comment above) and
    rounds the total once.  A run of whole blocks is one Euler-Maclaurin
    sum (:func:`_run_sum`).  A piece's points below the series threshold
    ``X0 * Q`` (those before ``m*``, the first point at or above it) enter
    as the log of the exact product ``prod (DBm + A_i)/(DBm + T_i)``,
    multiplied across pieces into chunks of about ``8E`` bits with one log
    per chunk; the rest is ``G_Q(end) - G_Q(m*)`` on the series of
    :func:`gammafn._balanced_series`, an edge shared by two pieces evaluated
    once.  ``S(N)`` is an integer fixed by the spec, ``N`` and ``F``, so
    ``S(hi) - S(lo - 1)`` is the log-sum of any range ``[lo, hi]`` and
    ranges taken that way add up exactly.
    """
    return _logsum_word(spec, N, F, {})


# Values that the word sums of one corpus share.  Words of one base and
# parameter vectors sum one series (A, T, DB), at nearby N at one scale Fs,
# over blocks that tile the same levels, so neighbouring words meet at the
# same series edges and run ends.  ``shared`` maps the kind of a value and
# all it depends on but its own argument to a table of such values:
#
#   ("edges", A, T, DB, Fs)                   (Q, m) -> the series edge G(Q, m)
#   ("integral", A, T, DB, Fs)                y -> I(y) at a run end (_run_sum)
#   ("corrections", A, T, DB, Fs, P, counts)  y -> EM(y) at a run end
#
# Each entry is the integer the word would compute alone, so a sum that
# draws on the tables is bit for bit the sum made without them.


def _logsum_word(spec: ProductSpec, N: int, F: int, shared: dict) -> int:
    """:func:`logsum_word`, its series edges and run ends read from and added to the tables of ``shared``."""
    if N < 1:
        return 0
    g, _, pieces = _word_plan(spec, N, F)
    E = F + g
    Fs = E - _SERIES_GUARD  # the series' nominal scale: their Horner sums land at E
    A, T, DB = _series_shifts(spec)
    d = len(A)
    chunk_bits = 8 * E
    edges = shared.setdefault(("edges", A, T, DB, Fs), {})

    def G(Q: int, m: int) -> int:
        v = edges.get((Q, m))
        if v is None:
            v = edges[Q, m] = _balanced_series(A, T, DB * Q, DB * m, Fs)
        return v

    total = 0
    num = den = 1  # the low products since the last chunk log
    for sign, Q, first, mstar, end, h in pieces:
        if h > 1:
            total += sign * _run_sum(A, T, DB, Fs, Q, first, end, h, G, shared)
            continue
        if first < mstar:
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
                    total += _log_ratio(num, den, E)
                    num = den = 1
        if mstar < end:
            total += sign * (G(Q, end) - G(Q, mstar))
    if num != den:
        total += _log_ratio(num, den, E)
    return rshift_round(total, g)


def _run_sum(A, T, DB: int, Fs: int, P: int, ya: int, yc: int, h: int, G, shared: dict) -> int:
    """``sum_s G_1(y_s + h) - G_1(y_s)`` over ``y_s = ya, ya + P, ... < yc``, at scale ``E = Fs + 16``.

    Euler-Maclaurin over ``s`` gives ``Omega(yd) - Omega(yb) - Omega(yc) +
    Omega(ya)`` with ``yb = ya + h``, ``yd = yc + h`` and ``Omega(y) =
    (c_1 log y - I(y))/P - psi(y)/2 - EM(y)``: ``psi = G_1`` is the series
    (the edges ``G(1, y)``), ``I`` the rest of its integral and ``EM(y) =
    sum_p (P/y)^(2p-1) sum_k row_p[k] y^-k`` the corrections (see
    ``gammafn._run_bounds``), as many as ``gammafn._run_counts`` keeps at
    ``ya``.  The four ``c_1 log`` terms fold into one log of
    ``yd ya / (yb yc)``.  With ``m`` rows it is within ``16 + m +
    2|c_1|/P`` units of ``2**-E`` (``c_1`` in units of ``2**-E``): the log
    within ``1 + 2|c_1|/P``, the integral within 3, the series' four edges
    within 2 each and one floor for their half, and at each end the
    corrections within one floor (``P/y^2`` scales down every error of
    their Horner sums) plus what they drop: below ``2**-3`` units per row
    and end, and a remainder below twice the last row's.  The per-end terms
    ``I(y)`` and ``EM(y)`` are read from and added to the tables of
    ``shared`` (see :func:`_logsum_word`).
    """
    E = Fs + _SERIES_GUARD
    coeffs, cuts = _series(A, T, DB, Fs)
    counts = _run_counts(Fs, len(A), _largest_shift(A, T, DB), ya.bit_length() - 1, (ya // P).bit_length() - 1)
    integral, rows = _run_rows(A, T, DB, Fs)
    em_rows = [row[:n] for row, n in zip(rows[: len(counts)], counts)]
    P2 = P * P
    yb, yd = ya + h, yc + h
    integrals = shared.setdefault(("integral", A, T, DB, Fs), {})
    corrected = shared.setdefault(("corrections", A, T, DB, Fs, P, counts), {})

    def integral_part(y: int) -> int:
        s = integrals.get(y)
        if s is None:
            s = 0
            for c in reversed(integral[: _terms_at(cuts, y) - 1]):
                s = c + s // y
            s = integrals[y] = s // y
        return s

    def corrections(y: int) -> int:
        acc = corrected.get(y)
        if acc is None:
            y2 = y * y
            acc = 0
            for row in reversed(em_rows):
                s = 0
                for c in reversed(row):
                    s = c + s // y
                acc = s + acc * P2 // y2
            acc = corrected[y] = acc * P // y2
        return acc

    ends = ((yd, 1), (yb, -1), (yc, -1), (ya, 1))
    log_part = coeffs[0] * _log_ratio(yd * ya, yb * yc, E) // (P << E)
    integral_sum = sum(e * integral_part(y) for y, e in ends) // P
    series_sum = sum(e * G(1, y) for y, e in ends) // 2
    em_sum = sum(e * corrections(y) for y, e in ends)
    return log_part - integral_sum - series_sum - em_sum


# --------------------------------------------------------------------------
# the companion form through the word-product log-sum
# --------------------------------------------------------------------------
#
# The companion exponent 2(N_0(k) - N_1(k)) = 2 bitlen(k) - 4 N_1(k) splits
# the log-sum into the grouped form's (exponent 2 bitlen(k), O(log N)
# balanced series) minus twice that of the canonical base-2 product for
# the word 1, whose term ((4k+2)^2/((4k+1)(4k+3)))^2 carries exponent
# N_1(k).  Both are prefix sums fixed by (N, F), so a range is a difference
# of prefixes and splits exactly.
_WORD_ONE = ProductSpec.canonical_base2(Word.parse("1", 2))


def _companion_prefix(N: int, F: int) -> int:
    return logsum_rivoal_grouped(1, N, F) - 2 * logsum_word(_WORD_ONE, N, F)


def logsum_companion(lo: int, hi: int, F: int) -> int:
    """Log-sum of ``((4k+2)^2/((4k+1)(4k+3)))^(2*(N_0(k) - N_1(k)))`` for ``k`` in ``[max(lo, 1), hi]``.

    The exponent is ``2*(bitlen(k) - 2*popcount(k))``, the signed digit
    balance.  The log-sum is ``P(hi) - P(lo - 1)`` with ``P(N)`` the grouped
    form's log-sum minus twice the word-``1`` log-sum (:func:`logsum_word`):
    ``O(log N)`` balanced series plus about one Euler-Maclaurin run per level
    and a few dozen pieces, the points below the series threshold as exact
    products.
    """
    lo = max(lo, 1)
    if lo > hi:
        return 0
    return _companion_prefix(hi, F) - _companion_prefix(lo - 1, F)


# --------------------------------------------------------------------------
# the 4/pi product family
# --------------------------------------------------------------------------


def _family_partial(logsum, K: int, least: int, precision_bits: int) -> BigReal:
    """``exp`` of ``logsum(least, K, F)``, the partial product over ``least <= k <= K``."""
    prec = _check_precision(precision_bits)
    if K < least:
        raise ValueError(f"K must be >= {least}")
    F = prec + GUARD_BITS
    return BigReal.exp_of_fixed(logsum(least, K, F), F, prec)


def rivoal_original_partial(K: int, precision_bits: int) -> BigReal:
    """Product of ``(1 + 1/(k+1))^(2 rho(k) (bitlen(k)-2))`` over ``2 <= k <= K``."""
    return _family_partial(logsum_rivoal_original, K, 2, precision_bits)


def rivoal_grouped_partial(K: int, precision_bits: int) -> BigReal:
    """Product of ``((4k+2)^2/((4k+1)(4k+3)))^(2(N_0(k)+N_1(k)))`` over ``1 <= k <= K``.

    The exponent is twice the binary digit count of ``k``.
    """
    return _family_partial(logsum_rivoal_grouped, K, 1, precision_bits)


def companion_partial(K: int, precision_bits: int) -> BigReal:
    """Same factors with exponent ``2(N_0(k) - N_1(k))`` (signed digit balance)."""
    return _family_partial(logsum_companion, K, 1, precision_bits)


def alternating_product_estimate(K: int, precision_bits: int) -> BigReal:
    """Partial product with exponent ``2(-1)^k (N_0(k)+N_1(k))``.

    No closed form is known for the limit; this is a numeric estimator only,
    to be used with the Cauchy self-consistency report of the CLI.
    """
    return _family_partial(logsum_alternating, K, 1, precision_bits)


# --------------------------------------------------------------------------
# exact grouping identity
# --------------------------------------------------------------------------


def _bump(factors: dict[int, int], base: int, exponent: int) -> None:
    e = factors.get(base, 0) + exponent
    if e:
        factors[base] = e
    else:
        factors.pop(base, None)


def rivoal_original_factors(K: int) -> dict[int, int]:
    """The partial product over ``2 <= k <= K`` as a map ``integer -> exponent``.

    Each factor ``(1 + 1/(k+1))^e`` contributes ``(k+2)^e (k+1)^-e``; this
    factored form is the exact "rational-exponent log" representation.
    """
    factors: dict[int, int] = {}
    for k in range(2, K + 1):
        r = k & 3
        if r > 1:
            continue
        e = 2 * (k.bit_length() - 2)
        if not e:
            continue
        if r == 1:
            e = -e
        _bump(factors, k + 2, e)
        _bump(factors, k + 1, -e)
    return factors


def rivoal_grouped_factors(K: int) -> dict[int, int]:
    """The grouped partial product over ``1 <= k <= K`` in the same factored form."""
    factors: dict[int, int] = {}
    for k in range(1, K + 1):
        e = 2 * k.bit_length()
        _bump(factors, 4 * k + 2, 2 * e)
        _bump(factors, 4 * k + 1, -e)
        _bump(factors, 4 * k + 3, -e)
    return factors


def _original_exponent(m: int, top: int) -> int:
    """The exponent of ``m`` in ``rivoal_original_factors(top)``.

    The factor for ``k`` puts ``e(k)`` on ``k + 2`` and ``-e(k)`` on ``k + 1``,
    so ``m`` carries ``e(m - 2) - e(m - 1)``, where ``e(k)`` is ``2 (bitlen(k) -
    2)`` on ``k = 0``, its negative on ``k = 1 (mod 4)``, and 0 on the other
    classes and outside ``2 <= k <= top``.
    """

    def e(k: int) -> int:
        if not 2 <= k <= top or k & 3 > 1:
            return 0
        return (2 - 4 * (k & 3)) * (k.bit_length() - 2)

    return e(m - 2) - e(m - 1)


def _grouped_exponent(m: int, K: int) -> int:
    """The exponent of ``m`` in ``rivoal_grouped_factors(K)``.

    With ``m = 4q + r`` and ``1 <= q <= K`` it is ``4 bitlen(q)`` at ``r = 2``,
    ``-2 bitlen(q)`` at ``r = 1, 3``, and 0 otherwise.
    """
    q, r = divmod(m, 4)
    if not 1 <= q <= K or not r:
        return 0
    return (4 if r == 2 else -2) * q.bit_length()


def _factors_agree(top: int, K: int) -> bool:
    """Whether ``rivoal_original_factors(top)`` equals ``rivoal_grouped_factors(K)``.

    Both exponents vanish outside ``[3, max(top + 3, 4K + 4))``.  Inside,
    each is a function of ``m mod 4`` between cuts: the ends of the two
    ranges (``3``, ``4``, ``top + 2``, ``top + 3`` and ``4K + 4``) and the
    bit-length changes of ``m - 1``, ``m - 2`` and ``m // 4`` (``2^j + 1``,
    ``2^j + 2`` and ``4 * 2^j``).  So the first four integers of every
    interval between consecutive cuts stand for the whole interval, and
    ``O(log K)`` integers are compared.
    """
    end = max(top + 3, 4 * K + 4)
    cuts = {3, 4, top + 2, top + 3, 4 * K + 4}
    for j in range(end.bit_length()):
        cuts.update((2**j + 1, 2**j + 2, 4 << j))
    cuts = sorted(c for c in cuts if 3 <= c <= end)
    return all(_original_exponent(m, top) == _grouped_exponent(m, K)
               for s, t in zip(cuts, cuts[1:]) for m in range(s, min(s + 4, t)))


def grouping_identity_holds(K: int) -> bool:
    """Whether the original partial up to ``4K+3`` equals the grouped partial up to ``K`` exactly.

    Compares the exponent of every integer in both factored forms without
    building either map: both are constant on each residue class mod 4
    between ``O(log K)`` cuts, so a few integers per run stand for all of
    them (:func:`_factors_agree`).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return _factors_agree(4 * K + 3, K)
