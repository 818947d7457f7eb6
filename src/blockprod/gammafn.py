"""Gamma function at arbitrary precision, and symbolic Gamma-ratio closed forms.

The log-Gamma evaluator is Stirling's series over the exact Bernoulli
numbers (Johansson, "Arbitrary-precision computation of the gamma
function", arXiv:2109.08392), summed at ``z >= X0 = F/2`` for working scale
``F``; a smaller argument ``x`` is first raised by ``M = ceil(X0 - x)`` with
one integer product.  The series keeps the first term count ``K``
whose first omitted term at ``X0`` is below ``2**-(F + 18)``, which bounds
the remainder for real ``z > 0``.  Larger arguments need fewer terms: with
each series comes a table of cuts ``z_1 >= ... >= z_K = X0``, ``z_n`` the
least power of two at which the same integer test passes with ``n`` terms,
and an argument ``z`` keeps the fewest ``n`` with ``z >= z_n``
(:func:`_terms_at`).

Everything is computed in exact integer fixed point (deterministic across
platforms).  Against mpmath the log-Gamma is within one unit of ``2**-F``
(0.49 measured at ``F`` from 160 to 2080, arguments from 1/997 to 1.1·10^12);
the public error contract is a relative error of at most
``2**(8 - precision_bits)``.

Balanced sums of log-Gammas, whose shifts add up to the same total on both
sides, have a Stirling series with exact rational coefficients and no
``log`` term; :func:`_balanced_series` sums it at large arguments, as many
terms as its own cuts give for ``u/W``.  :func:`_balanced_lgammas` raises
a smaller argument past the threshold by whole steps and subtracts one
``log`` of the floored ratio of the two sides' shift products
(:func:`_shift_log_ratios`).  Long products are kept to the bits that
``log`` reads, and one rule certifies every such ``log``, the single
log-Gamma's too: the quotient floored from both ends of the brackets must
read the same to ``fx_log`` (:func:`_certified_log_ratio`).  The
points below the threshold of one residue class mod ``W`` share one series
point, summed once, and one nested chain of shift products, each point's
the next larger one's times a segment; every value is the integer the
point gives alone, and :func:`_balanced_lgamma` is the one-point call.
The word-product log-sums take differences of the series above the
threshold, and the 4/pi bit-length families take each class's block edges
in one :func:`_balanced_lgammas` call; :func:`gamma_ratio_product` takes
``G(N + 1) - G(0)``, and :func:`eval_gamma_expr` evaluates every balanced
closed form as one ``G(0)``: one series and one ``log``, within one unit
of ``2**-F`` (0.50 measured over the 185-word corpus at ``F`` = 160, 288
and 1056, where the sum of single log-Gammas is off by up to 1.72).  The
single log-Gamma :func:`_loggamma_fixed`, whose shift product is the
one-point chain of :func:`_shift_log_ratios` over one shift of count 1,
is left to :func:`gamma`, :func:`log_gamma` and :func:`_loggamma_sum`,
which takes the expressions that are not balanced or whose arguments spread
wider than 1, one log-Gamma per distinct argument.
"""

from __future__ import annotations

from _thread import allocate_lock
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import lcm, prod
from operator import neg, sub
from weakref import WeakValueDictionary

from blockprod.bigreal import GUARD_BITS, BigReal, _check_precision, _round_ratio
from blockprod.fixedpoint import _WORK_GUARD, fx_log, pi_fixed, rshift_round
from blockprod.words import _Record

__all__ = [
    "PoleError",
    "BalanceError",
    "GammaExpr",
    "gamma",
    "log_gamma",
    "eval_gamma_expr",
    "gamma_ratio_product",
]


class PoleError(ValueError):
    """Gamma evaluated at a pole (0 or a negative integer)."""


class BalanceError(ValueError):
    """Parameter vectors whose sums differ where equality is required."""


def _as_rational(x) -> Fraction:
    if isinstance(x, BigReal):
        return x.to_fraction()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected a rational or BigReal argument, got {type(x).__name__}")


def _check_gamma_arg(x: Fraction) -> Fraction:
    if x <= 0:
        if x.denominator == 1:
            raise PoleError(f"Gamma pole at {x}")
        raise ValueError(f"Gamma argument must be positive, got {x}")
    return x


# --------------------------------------------------------------------------
# Bernoulli numbers and the series threshold
# --------------------------------------------------------------------------


class _LazyTable:
    """The items of a generator, drawn once, only as far as a read asks, and shared.

    ``table[:n]`` draws the first ``n`` items under the table's lock (from
    ``_thread``: ``threading.Lock``'s, without importing ``threading`` at
    start) and returns them as a tuple.  A generator that ends first, or
    that an exception ended, raises ``IndexError``: no read gets fewer.
    """

    def __init__(self, source: Iterator):
        self._items, self._source, self._lock = [], source, allocate_lock()

    def __getitem__(self, s: slice) -> tuple:
        items = self._items
        if len(items) < s.stop:  # items only grow, under the lock: a drawn prefix needs none
            with self._lock:
                items.extend(islice(self._source, max(0, s.stop - len(items))))
                if len(items) < s.stop:
                    raise IndexError(f"a table of {len(items)} items read to {s.stop}")
        return tuple(items[s])


def _bernoulli_numbers() -> Iterator[Fraction]:
    """``B_0, B_1, ...`` (``B_1 = -1/2``), ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))``.

    The tangent numbers ``T_k``, ``tan x = sum T_k x^(2k-1)/(2k-1)!``, come
    from the triangle ``t_j <- (j - i) t_(j-1) + (j - i + 2) t_j`` for
    passes ``i = 2..j``, from ``t_j = (j-1)!``, walked one column at a time
    (integer-only, O(k) each): column ``k`` holds ``t_k = T_k`` after each
    pass and needs only column ``k - 1``, so the sequence extends without
    starting over.
    """
    yield Fraction(1)
    yield Fraction(-1, 2)
    col: list[int] = []
    for k in count(1):
        x = (k - 1) * col[0] if col else 1
        new = [x]
        for i, prev in enumerate(col[1:], 2):
            x = (k - i) * prev + (k - i + 2) * x
            new.append(x)
        if k > 1:
            x *= 2  # pass i = k reads t_(k-1) with weight 0
            new.append(x)
        col = new
        q = 4**k
        yield Fraction((-1) ** (k - 1) * 2 * k * x, q * (q - 1))
        yield Fraction(0)


_BERNOULLI = _LazyTable(_bernoulli_numbers())  # shared by every caller


def _bernoulli(n: int) -> tuple[Fraction, ...]:
    """``B_0..B_n``."""
    return _BERNOULLI[: n + 1]


_SERIES_GUARD = 16  # extra fraction bits of the series coefficients and Horner sums


def _series_threshold(F: int, big: int = 0) -> int:
    """Smallest ``z`` at which the Stirling series are summed at scale ``F``.

    :func:`_loggamma_fixed` shifts smaller arguments up to ``F // 2``; a
    balanced series whose largest shift rounds up to ``big > 1`` starts at
    ``4 big`` if that is larger (see :func:`_series_cuts`).
    """
    return max(F // 2, 4 * big)


# --------------------------------------------------------------------------
# term-count cuts
# --------------------------------------------------------------------------
#
# Each series below keeps its first K terms at z = X0, K the fewest whose
# first omitted term passes an integer test there.  The omitted term after
# n < K terms is a constant over a power of z, so its test passes from some
# z on; the cut z_n is the least power of two at which it passes (found from
# bit lengths, at most two comparisons per n), and z_K = X0.  At z >= z_n the
# first omitted term after n terms meets the bound it meets at X0 after K.


def _least_exponent(L: int, R: int, k: int) -> int:
    """The least ``e >= 0`` with ``L < R * 2**(e*k)``, for ``R, k >= 1``.

    ``e = (bitlen(L) - bitlen(R)) // k`` is never too large, and one step
    up always passes.
    """
    e = max(0, (L.bit_length() - R.bit_length()) // k)
    while L >= R << (e * k):
        e += 1
    return e


def _cuts(exponents: list[int], X0: int) -> tuple[int, ...]:
    """``(z_1, ..., z_K)`` from the least passing exponents ``e_1..e_(K-1)``; ``z_K = X0``.

    ``z_n`` is ``2**e_n``, or ``z_(n+1)`` if that is larger, so the cuts
    never increase with ``n`` and each test passes at and above its cut.
    """
    cuts = [X0]
    for e in reversed(exponents):
        cuts.append(max(1 << e, cuts[-1]))
    return tuple(reversed(cuts))


def _terms_at(cuts: tuple[int, ...], z: int) -> int:
    """Terms a series keeps at ``z >= X0``: the fewest ``n`` with ``z >= z_n``.

    The evaluators and ``identities.word_edge_plan``'s price both read
    their count here.
    """
    return bisect_left(cuts, -z, key=neg) + 1


# --------------------------------------------------------------------------
# log-Gamma by a shifted Stirling series
# --------------------------------------------------------------------------
#
# For real z > 0 Stirling's series
#
#     lgG(z) = (z - 1/2) log z - z + log(2 pi)/2 + sum_{k<=K} B_2k / (2k (2k-1) z^(2k-1)) + R_K(z)
#
# has a remainder R_K(z) below its first omitted term in absolute value, and
# the terms shrink with z.  An argument x = p/q below X0 is raised to
# z = Z/q = x + M >= X0 by lgG(x) = lgG(z) - log prod_{k<M} (x + k), whose
# product is the exact integer prod_{k<M} (p + kq) over q^M.  Writing
# log z = log Z - log q folds the q^M into one log q term:
#
#     lgG(x) = (z - 1/2) log Z + (1/2 - x) log q - z + log(2 pi)/2
#              + sum_{k<=K} B_2k / (2k (2k-1)) (q/Z)^(2k-1) - log prod_{k<M} (p + kq).


@lru_cache(maxsize=8)
def _stirling_series(F: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``(log(2 pi)/2, (c_1..c_K), (z_1..z_K))``, ``c_k = B_2k/(2k (2k-1))`` at scale ``F + _SERIES_GUARD``.

    ``K`` is the fewest terms whose first omitted term at ``z = X0``,
    ``|B_(2K+2)| / ((2K+2)(2K+1) X0^(2K+1))``, is below
    ``2**-(F + _SERIES_GUARD + 2)``, compared in integers; ``z_n`` is the
    least power of two at which the omitted term after ``n`` terms passes
    the same test (see :func:`_cuts`).
    """
    X0 = _series_threshold(F)
    S = F + _SERIES_GUARD
    lim = 1 << (S + 2)
    K = 0
    exponents = []
    while True:
        m = 2 * K + 2  # index of the first omitted Bernoulli number
        b = _bernoulli(m)[m]
        L, R = abs(b.numerator) * lim, b.denominator * m * (m - 1)
        if L < R * X0 ** (m - 1):
            break
        if K:
            exponents.append(_least_exponent(L, R, m - 1))
        K += 1
    coeffs = tuple((b.numerator << S) // (b.denominator * 2 * k * (2 * k - 1))
                   for k, b in enumerate(_bernoulli(2 * K)[2::2], 1))
    half_log_2pi = rshift_round(fx_log(pi_fixed(S) << 1, S), 1)
    return half_log_2pi, coeffs, _cuts(exponents, X0)


_SPLIT_FACTORS = 128  # above this many factors a shift product splits in halves


def _floor_to(x: int, e: int, n: int, cap: int) -> tuple[int, int, int]:
    """``(x, e, n)`` with ``x`` floored to its top ``cap`` bits and the floor counted in ``n``; as it is when ``cap`` is 0 or ``x`` fits."""
    k = x.bit_length() - cap
    if cap and k > 0:
        return x >> k, e + k, n + 1
    return x, e, n


def _capped_product(p: int, q: int, M: int, cap: int = 0) -> tuple[int, int, int]:
    """``(x, e, n)`` with ``x 2**e <= prod_{k<M} (p + kq) <= (x + 4n) 2**e``; exact (``e = n = 0``) when ``cap`` is 0.

    Binary splitting above ``_SPLIT_FACTORS`` factors: one ``math.prod``
    over ``M`` factors multiplies a growing product by a small one ``M``
    times, quadratic in ``M``; halves of balanced size keep the large
    multiplications few.  With a cap, every node longer than ``cap`` bits
    is floored to its top ``cap`` bits and counted in ``n``.  A floored
    ``x`` keeps at least ``2**(cap-1)``, so each floor lowers its node by a
    factor above ``1/(1 + 2**(1-cap))``; the ``n`` floors below the root
    leave it within ``(1 + 2**(1-cap))**n <= 1 + 4n 2**-cap`` (as ``n <=
    2**(cap-1)``) of the product, and ``x < 2**cap`` makes that at most
    ``(x + 4n) 2**e``.
    """
    if M <= _SPLIT_FACTORS:
        x = prod(range(p, p + M * q, q))
        return _floor_to(x, 0, 0, cap) if cap else (x, 0, 0)
    h = M // 2
    x1, e1, n1 = _capped_product(p, q, h, cap)
    x2, e2, n2 = _capped_product(p + h * q, q, M - h, cap)
    return _floor_to(x1 * x2, e1 + e2, n1 + n2, cap)


def _log_ratio(p: int, q: int, E: int) -> int:
    """``log(p/q)`` at scale ``E`` for positive integers: one floored quotient, one ``fx_log``."""
    if p < q:
        return -_log_ratio(q, p, E)
    return fx_log((p << E) // q, E)


# Capping the shift products of a balanced log-Gamma pays only once a side's
# products are several times the cap: below that they are cheap to multiply
# whole, and the floors and the second quotient of the bracket cost more than
# the shorter multiplications save.  Measured on one pinned CPU (x86-64,
# Python 3.11.7), in us per log ratio, exact / capped at E + 64 bits, over
# the shapes (0,2)/(1,1), (1,2)/(0,3) and (1,1,1)/(0,0,3), W from 4 to 10^6:
#
#     E      break-even        below it               above it
#     192    1,250-1,700 bits  1,152 bits: 15.0/16.0  4,752 bits: 28.1/22.1
#     304    1,600-2,000       960: 18.6/18.8         8,064: 55.6/33.5
#     560    2,200-3,500       2,816: 41.0/43.4       15,776: 144/64
#     1072   3,800-4,100       3,200: 49.8/53.9       16,896: 204/123
#     2096   5,500-6,800       5,440: 124/133         35,360: 651/328
#
# So a side is capped from max(_CAP_FROM, 4 cap) bits on, never below a
# measured break-even band.
_CAP_FROM = 3072  # a side is capped only above this many bits and above four caps
_CAP_GUARD = 64  # bits a capped product keeps beyond the scale of its log


def _sides(
    counts: tuple[tuple[int, int], ...], u: int, W: int, M: int, cap: int,
    start=((1, 0, 0), (1, 0, 0)),
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The two sides ``start`` times ``(prod_(c>0) P(u + a)**c, prod_(c<0) P(u + a)**-c)``, ``P(p) = prod_{k<M} (p + kW)``, capped, each as ``(x, e, n)`` of :func:`_capped_product`.

    ``counts`` pairs each distinct shift ``a`` with its count ``c``.  With
    ``cap`` 0 the sides stay exact: ``(x, 0, 0)`` and ``(y, 0, 0)``.
    Raising a bracketed product to the power ``|c|`` raises its bound to
    ``(1 + 2**(1-cap))**(|c| n)``, so its floors count ``|c|`` times.
    """
    (x, e, n), (y, f, m) = start
    for a, c in counts:
        if c:
            px, pe, pn = _capped_product(u + a, W, M, cap)
            if c > 0:
                x *= px**c
                if cap:
                    x, e, n = _floor_to(x, e + c * pe, n + c * pn, cap)
            else:
                y *= px**-c
                if cap:
                    y, f, m = _floor_to(y, f - c * pe, m - c * pn, cap)
    return (x, e, n), (y, f, m)


def _quotient(x: int, e: int, y: int, f: int, E: int) -> int:
    """``floor(x 2**e / (y 2**f) * 2**E)``."""
    s = e + E - f
    return (x << s) // y if s >= 0 else x // (y << -s)


def _certified_log_ratio(sides, E: int) -> int | None:
    """``log`` of the ratio of two bracketed sides ``((x, e, n), (y, f, m))`` at scale ``E``, or ``None`` where the brackets leave it open.

    ``fx_log`` reads its argument ``a`` only through ``bitlen(a)`` and
    ``rshift_round(a, bitlen(a) - E - 1 - _WORK_GUARD)``, both monotone in
    ``a``.  The exact quotient of the larger side by the smaller, floored at
    scale ``E``, lies between the quotients floored from the two ends of the
    brackets; where both ends (the lower at least ``2**E``) have one bit
    length and one such rounded mantissa, the exact quotient reads the same,
    and the lower end's ``fx_log`` is the value.  For a ratio below
    ``2**_WORK_GUARD`` the rounding keeps every bit, so the two ends must be
    one integer.  Exact sides (``n = m = 0``) always pass, with the value of
    :func:`_log_ratio`.
    """
    for sign in (1, -1):
        (x, e, n), (y, f, m) = sides[::sign]
        low = _quotient(x, e, y + 4 * m, f, E)
        if low >> E:  # this side is the larger
            high = _quotient(x + 4 * n, e, y, f, E)
            k = low.bit_length() - E - 1 - _WORK_GUARD
            if high.bit_length() == low.bit_length() and rshift_round(low, k) == rshift_round(high, k):
                return sign * fx_log(low, E)
            break
    return None


def _shift_log_ratios(
    counts: tuple[tuple[int, int], ...], z: int, W: int, Ms: list[int], E: int
) -> Iterator[int]:
    """For each ``M`` of the ascending ``Ms``, ``log(prod_(c>0) P(u + a)**c / prod_(c<0) P(u + a)**-c)`` at scale ``E``, ``u = z - M W``, ``P(p) = prod_{k<M} (p + kW)``.

    ``counts`` pairs each distinct shift ``a`` with its count ``c``: a
    balanced shape's (see :func:`_balanced_shape`), whose counts add up to
    0, or ``((0, 1),)`` for the single product of :func:`_loggamma_fixed`.
    Each value is :func:`_log_ratio` of the exact products: one floored
    quotient of the larger side by the smaller at scale ``E``, one
    ``fx_log``.  The points share one nested chain of products: as ``u``
    walks down by ``W (M - M')`` from the previous point's ``M'``, each side
    is the previous point's side times the products of the new segment,
    ``prod_{k<M-M'} (u + a + kW)`` (:func:`_sides`).  Once a side of
    ``ceil(sum |c| / 2)`` products is longer than ``_CAP_FROM`` bits and
    four caps, the running sides are kept capped at ``cap = E + _CAP_GUARD``
    bits and every floor counted, so each side lies in its bracket ``[x
    2**e, (x + 4n) 2**e]``.  A capped point takes its value from
    :func:`_certified_log_ratio`, or, where its brackets leave it open, from
    its own exact products, the ``cap = 0`` sides.  Either way each integer
    is the one the exact products give.
    """
    side = -(-sum(abs(c) for _, c in counts) // 2)  # products a side
    bits = (z + max(counts)[0]).bit_length()  # of the largest factor of every point
    crossover = max(_CAP_FROM, 4 * (E + _CAP_GUARD))
    cap = 0  # exact, until a side passes the crossover
    sides = (1, 0, 0), (1, 0, 0)
    done = 0  # factors a shift already in the running sides
    for M in Ms:
        u = z - M * W
        if not cap and side * M * bits > crossover:
            cap = E + _CAP_GUARD  # the exact sides are floored as the first capped segment joins them
        sides = _sides(counts, u, W, M - done, cap, sides)
        done = M
        r = _certified_log_ratio(sides, E) if cap else None
        if r is None:  # the exact sides, or the point's own where its brackets leave the quotient open
            (p, _, _), (q, _, _) = _sides(counts, u, W, M, 0) if cap else sides
            r = _log_ratio(p, q, E) if p != q else 0
        yield r


@lru_cache(maxsize=128)
def _log_denominator(q: int, E: int) -> int:
    """``log q`` at scale ``E``: closed forms reuse a few denominators, mostly powers of the base."""
    return fx_log(q << E, E)


def _loggamma_fixed(x: Fraction, F: int) -> int:
    """``log Gamma(x)`` for rational ``x > 0`` at fixed-point scale ``F``, within one unit of ``2**-F``.

    Three ``fx_log`` calls (``log Z``, ``log q`` and the shift product, the
    one-point chain ``counts = ((0, 1),)`` of :func:`_shift_log_ratios`,
    capped and certified past the crossover as a balanced side is) run
    ``H`` bits deeper, ``bitlen(z) + 4`` rounded up to a multiple of
    ``_SERIES_GUARD`` (16), where the factors ``z - 1/2`` and ``1/2 - x``
    keep their error below ``2**-4`` units; arguments whose sizes round
    alike share one ``fx_log`` ladder.  The
    series is a Horner sum in ``q^2/Z^2`` over the terms that ``z >= Z //
    q`` needs (:func:`_terms_at`): all ``K`` for a shifted argument, which
    lands in ``[X0, X0 + 1)``.  Everything is added up at that scale and rounded
    once, so the value is an integer fixed by ``(x, F)`` alone.
    """
    half_log_2pi, coeffs, cuts = _stirling_series(F)
    p, q = x.numerator, x.denominator
    M = max(0, (_series_threshold(F) * q - p + q - 1) // q)  # ceil(X0 - x)
    Z = p + M * q
    H = -(-((Z // q).bit_length() + 4) // _SERIES_GUARD) * _SERIES_GUARD
    E = F + H
    acc = (2 * Z - q) * fx_log(Z << E, E)
    if q > 1:
        acc += (q - 2 * p) * _log_denominator(q, E)
    acc = acc // (2 * q) - (Z << E) // q
    if M:
        acc -= next(_shift_log_ratios(((0, 1),), Z, q, [M], E))
    q2, Z2 = q * q, Z * Z
    s = 0
    for c in reversed(coeffs[: _terms_at(cuts, Z // q)]):
        s = c + s * q2 // Z2
    s = s * q // Z + half_log_2pi
    return rshift_round(acc + (s << (H - _SERIES_GUARD)), H)


def _loggamma_sum(num, den, F: int) -> int:
    """``sum lgG(num_i) - sum lgG(den_j)`` at scale ``F``, one :func:`_loggamma_fixed` per distinct argument.

    Only Gamma expressions that are not balanced come here (see
    :func:`_gamma_expr_log`), such as the all-zeros base-2 closed forms and
    the companion's, and balanced ones whose arguments spread wider than 1.
    A repeated argument costs one call times its multiplicity, which is the
    same integer as the calls added one by one.
    """
    counts = Counter(num)
    counts.subtract(den)
    return sum(c * _loggamma_fixed(x, F) for x, c in counts.items() if c)


# --------------------------------------------------------------------------
# balanced log-Gamma sums by an exact-coefficient Stirling series
# --------------------------------------------------------------------------
#
# For integer shifts A, T with sum(A) == sum(T) and len(A) == len(T) let
#
#     G(u) = sum_i lgG((u + A_i)/W) - lgG((u + T_i)/W).
#
# In Stirling's expansion of lgG(z + x) in z = u/W the (z + x - 1/2) log z,
# -z and log(2 pi)/2 terms cancel between the two sides, leaving
#
#     G(u) ~ sum_{k>=1} c_k / z^k,
#     c_k = (-1)^(k+1) / (k(k+1)) * sum_i [B_{k+1}(A_i/W) - B_{k+1}(T_i/W)],
#
# with B_n(x) the Bernoulli polynomial.  Expanding B_n(x) = sum_j C(n,j) B_j
# x^(n-j) writes the bracket through the power sums p_m = sum A_i^m -
# sum T_i^m (p_0 = p_1 = 0) as sum_j C(n,j) B_j p_(n-j) / W^(n-j), so every
# c_k is an exact rational.  Term bound: |B_n(x)| <= 2 zeta(n) n!/(2 pi)^n on
# [0, 1], and B_n(x + 1) = B_n(x) + n x^(n-1) adds n floor(x) x^(n-1) above.


@lru_cache(maxsize=64)
def _series_cuts(F: int, d: int, big: int = 0) -> tuple[int, ...]:
    """Cuts ``(z_1..z_K)`` of the balanced series: after ``n`` terms, at ``z >= z_n``, the first omitted term is below ``2**-(F + _SERIES_GUARD + 4)``.

    ``K`` is the fewest terms that pass at ``z = X0``, the
    :func:`_series_threshold` of ``(F, big)`` (``z_K = X0``), and ``d`` the
    number of shifts on each side.  Bounds the omitted ``c_k/z^k`` by
    ``8d (k-1)!/(6^(k+1) z^k)`` for shifts in ``[0, 1]`` plus
    ``2d big^(k+1)/(k z^k)`` when the largest shift rounds up to ``big > 1``
    (a conservative rendering of the term bound above); integer comparisons
    only, the cuts by :func:`_cuts`.
    """
    X0 = _series_threshold(F, big)
    lim = 1 << (F + _SERIES_GUARD + 4)
    k = 1
    fact = 1  # (k - 1)!
    exponents = []
    while True:
        k += 1  # test the term after k - 1 kept terms
        fact *= k - 1
        den = X0**k
        L1, R1 = 8 * d * fact * lim, 6 ** (k + 1)
        L2 = 2 * d * big ** (k + 1) * lim
        if L1 < R1 * den and L2 < k * den:
            return _cuts(exponents, X0)
        exponents.append(max(_least_exponent(L1, R1, k), _least_exponent(L2, k, k)))


def _largest_shift(A: tuple[int, ...], T: tuple[int, ...], W: int) -> int:
    """The largest shift ``max(A + T)/W`` rounded up, or 0 when every shift lies in ``[0, 1]``."""
    big = -(-max(A + T) // W)
    return big if big > 1 else 0


def _balanced_threshold(A: tuple[int, ...], T: tuple[int, ...], W: int, F: int) -> int:
    """``X0`` of :func:`_series`, found without building its coefficients."""
    return _series_threshold(F, _largest_shift(A, T, W))


_SERIES_BUILDS: WeakValueDictionary = WeakValueDictionary()  # key -> its build, while a caller holds it
_SERIES_BUILDS_LOCK = allocate_lock()


@lru_cache(maxsize=64)
def _series(
    A: tuple[int, ...], T: tuple[int, ...], W: int, F: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(coefficients, cuts)`` of :func:`_build_series`, built once per key also when threads miss at once.

    A miss takes the key's one build: a :class:`_LazyTable` of one item,
    drawn under its own lock, which the first caller fills while the others
    wait.  A build lives only as long as a caller reads it, so a key the
    cache evicted or cleared is built anew; only a miss that lands in the
    instant between the last reader letting go and the cache storing the
    value builds it again, to an equal value.
    """
    key = (A, T, W, F)
    with _SERIES_BUILDS_LOCK:
        build = _SERIES_BUILDS.get(key)
        if build is None:
            build = _SERIES_BUILDS[key] = _LazyTable(_build_series(*key) for _ in (key,))
    return build[:1][0]


def _build_series(
    A: tuple[int, ...], T: tuple[int, ...], W: int, F: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(coefficients, cuts)``: ``c_1..c_K`` of ``G`` at scale ``F + _SERIES_GUARD``, from power sums, and their :func:`_series_cuts`.

    ``c_k`` is ``(-1)^(k+1) y_n / (k n lam W^n)`` with ``n = k + 1``, ``lam``
    the lcm of the denominators of ``B_0..B_(K+1)`` and ``y_n = W^n lam
    sum_i [B_n(A_i/W) - B_n(T_i/W)] = sum_j C(n, j) lam B_j p_(n-j) W^j``
    over ``j <= n - 2``.  As ``B_j = 0`` for odd ``j > 1``, ``y_n`` is a
    Horner sum in ``W^2`` over the even ``j`` plus its ``j = 1`` term, each
    entry formed as the sum runs from one row of Pascal's triangle; so only
    ``O(K)`` integers are alive at a time, where a table of every entry
    would hold ``O(K^2)``.
    """
    cuts = _series_cuts(F, len(A), _largest_shift(A, T, W))
    K = len(cuts)
    bern = _bernoulli(K + 1)
    lam = lcm(*(b.denominator for b in bern))
    b = [x.numerator * (lam // x.denominator) for x in bern]
    p = [sum(a**m for a in A) - sum(t**m for t in T) for m in range(K + 2)]
    S = F + _SERIES_GUARD
    W2 = W * W
    coeffs = []
    binom = [1, 2, 1]  # C(n, j) for n = 2
    w_n = W2
    for k in range(1, K + 1):
        n = k + 1
        y = 0
        for j in range(n - 2 - (n & 1), -1, -2):
            y = y * W2 + binom[j] * p[n - j] * b[j]
        y += n * p[n - 1] * b[1] * W
        if k & 1 == 0:
            y = -y
        coeffs.append((y << S) // (k * n * lam * w_n))
        w_n *= W
        binom = [1, *[x + z for x, z in zip(binom, binom[1:])], 1]
    return tuple(coeffs), cuts


def _balanced_series(A: tuple[int, ...], T: tuple[int, ...], W: int, u: int, F: int) -> int:
    """The series of ``G(u)`` at scale ``F + _SERIES_GUARD``, unrounded, for ``u >= X0 * W``.

    An integer Horner sum in ``W/u`` over the terms that ``u // W`` needs
    (:func:`_terms_at`): with its floored coefficients and steps and the
    omitted terms it is within two units of its scale of the exact ``G(u)``.
    """
    coeffs, cuts = _series(A, T, W, F)
    acc = 0
    for c in reversed(coeffs[: _terms_at(cuts, u // W)]):
        acc = c + acc * W // u
    return acc * W // u


# --------------------------------------------------------------------------
# Euler-Maclaurin rows of the balanced series
# --------------------------------------------------------------------------
#
# identities.logsum_word sums psi(y) = sum_k c_k y^-k (the series of G at
# z = y, W the series' own modulus) over runs of points y_s = y_a + sP by
# Euler-Maclaurin.  Its correction of order 2p needs the derivative
# psi^(2p-1)(y) = -sum_k c_k (k)_(2p-1) y^-(k+2p-1), (k)_n the rising
# factorial, times B_2p/(2p)! P^(2p-1); row p holds B_2p/(2p)! c_k (k)_(2p-1).
# Written with x = y/P the term of row p and index k is that coefficient
# over P^k x^(k+2p-1), so a run whose least point has x >= 2**lx and
# y >= 2**ly bounds every term by bit lengths.  |B_2p|/(2p)! = 2 zeta(2p)/
# (2 pi)^(2p), so keeping rows 1..m leaves a remainder of at most twice the
# magnitude of row m at the least point (the integral of |psi^(2m)| from y_a
# on): the rows are summed until one is negligible there.  The rows of one
# series (_run_rows) are a _LazyTable of _LazyTable rows, shared by every run
# over it and grown, under their locks, only as far as a run asks.

_RUN_TOL = 4  # a run drops Euler-Maclaurin terms below 2**-_RUN_TOL units of its scale


@lru_cache(maxsize=64)
def _run_bounds(F: int, d: int, big: int = 0) -> tuple:
    """``(lx, ly, beta, fact, col)``: where runs over the balanced series of :func:`_series_cuts` ``(F, d, big)`` may start, and their term bounds.

    The term of row ``p`` and index ``k`` is below ``2**ub`` units of
    ``2**-(F + _SERIES_GUARD)`` over ``P^k x^(k+2p-1)``, with ``ub =
    beta[p-1] + fact[k+2p-2] + col[k-1]`` read off bit lengths alone:
    ``|B_2p|/(2p)! = 2 zeta(2p)/(2 pi)^(2p) < 4/39^p`` gives ``beta``,
    ``fact[n]`` is ``bitlen(n!)`` and ``col`` carries the bound on ``c_k``
    that :func:`_series_cuts` uses.  A run starts at block index
    ``x >= X1 = 2**lx``, ``lx`` the least exponent from
    ``bitlen(0.11 (F + 32))`` on at which some row's first term falls below
    ``2**-_RUN_TOL`` at ``x = X1`` and ``y = 4 X1`` (the least ``y`` of a
    run, as ``P >= 4``); ``beta`` stops at that row.  From ``y >= 2**ly``
    on, every row's bounds fall by at least one bit per ``k``, so the terms
    a row omits add up to less than twice its first omitted one.
    """
    S = F + _SERIES_GUARD
    K = len(_series_cuts(F, d, big))
    col = [(8 * d).bit_length() + 1 - (6 ** (k + 1)).bit_length() for k in range(1, K + 1)]
    fact, fact_bits = 1, [1]  # bitlen(n!) for n = 0, 1, ...
    if big:
        for k in range(1, K + 1):
            fact *= k
            fact_bits.append(fact.bit_length())
        col = [max(c, (2 * d).bit_length() + (k + 1) * big.bit_length() - fact_bits[k]) + 2
               for k, c in enumerate(col, 1)]
    lx = (-(-11 * (S + 16) // 100) - 1).bit_length()
    while True:
        beta, last = [], None
        while True:
            p = len(beta) + 1
            while len(fact_bits) < K + 2 * p:
                fact *= len(fact_bits)
                fact_bits.append(fact.bit_length())
            beta.append(S + 3 - (39**p).bit_length())
            first = beta[-1] + fact_bits[2 * p - 1] + col[0] - (lx + 2) - (2 * p - 1) * lx
            if first <= -_RUN_TOL:
                step = (K + 2 * p).bit_length() + 1 + max(map(sub, col[1:], col), default=0)
                return lx, max(lx + 2, step) + 1, tuple(beta), tuple(fact_bits), tuple(col)
            if last is not None and first >= last:
                break  # the rows grow again before one is negligible: start further out
            last = first
        lx += 1


@lru_cache(maxsize=1024)
def _run_counts(F: int, d: int, big: int, ly: int, lx: int) -> tuple[int, ...]:
    """Terms ``(K_1, ..., K_m)`` a run keeps of rows ``1..m`` at ``y >= 2**ly``, ``x >= 2**lx``.

    Row ``p`` keeps its leading terms whose bound (see :func:`_run_bounds`
    ``(F, d, big)``) is at least ``2**-_RUN_TOL``; the first row none of
    whose terms passes ends the list.  ``ly`` and ``lx`` must be at least
    those of the bounds.
    """
    _, _, beta, fact, col = _run_bounds(F, d, big)
    counts = []
    for p, b in enumerate(beta):
        lim = (2 * p + 1) * lx - _RUN_TOL - b
        n = 0
        for c in col:
            n += 1
            if fact[n + 2 * p] + c - n * ly <= lim:
                n -= 1
                break
        if not n:
            break
        counts.append(n)
    return tuple(counts)


def _run_row(coeffs: tuple[int, ...], p: int) -> Iterator[int]:
    """Row ``p`` of the corrections: ``B_2p/(2p)! (k)_(2p-1) c_k`` for ``k = 1..K``, floored."""
    b = _bernoulli(2 * p)[2 * p]
    fact = prod(range(1, 2 * p))  # (2p - 1)! = (1)_(2p-1)
    den, m = b.denominator * fact * 2 * p, b.numerator * fact
    for k, c in enumerate(coeffs, 1):
        yield c * m // den
        m = m * (k + 2 * p - 1) // k


@lru_cache(maxsize=8)
def _run_rows(A: tuple[int, ...], T: tuple[int, ...], W: int, F: int) -> tuple[tuple[int, ...], _LazyTable]:
    """``(integral, rows)``: the coefficients of runs over the series of :func:`_series` ``(A, T, W, F)``, at its scale.

    ``integral[j-1] = c_(j+1) // j`` gives ``int psi = c_1 log y - sum_j
    integral[j-1] y^-j``; ``rows[:p][p-1]`` is the :class:`_LazyTable` of
    row ``p`` (:func:`_run_row`), each row built only as far as a run asks.
    """
    coeffs = _series(A, T, W, F)[0]
    integral = tuple(c // j for j, c in enumerate(coeffs[1:], 1))
    return integral, _LazyTable(_LazyTable(_run_row(coeffs, p)) for p in count(1))


@lru_cache(maxsize=128)
def _balanced_shape(A: tuple[int, ...], T: tuple[int, ...], W: int, F: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(X0 W, counts)`` of shifts whose least is 0: the threshold in units of ``1/W``, and each distinct shift paired with its multiplicity in ``A`` less that in ``T``.

    Kept per key, as :func:`_series` is, so a one-point call pays for
    neither again.
    """
    counts = dict.fromkeys(A + T, 0)
    for a in A:
        counts[a] += 1
    for t in T:
        counts[t] -= 1
    return _balanced_threshold(A, T, W, F) * W, tuple(counts.items())


def _balanced_lgammas(A: tuple[int, ...], T: tuple[int, ...], W: int, us, F: int) -> dict[int, int]:
    """``{u: sum_i lgG((u + A_i)/W) - lgG((u + T_i)/W)}`` at fixed-point scale ``F``, for every ``u`` of ``us``.

    ``A`` and ``T`` are integer shifts of equal length and equal sum, and
    every argument must be positive.  The shifts are first translated so
    that the least is 0, ``u`` taking up the difference, so sums that differ
    only by a translation share one :func:`_series` and one
    :func:`_balanced_shape`.  At ``u/W >= X0`` (see
    :func:`_balanced_threshold`) the value is :func:`_balanced_series`;
    below, it is the series at ``u + M W``, ``M = ceil(X0 - u/W)``, minus
    the log of the ratio ``prod_i P(u + A_i) / prod_i P(u + T_i)`` of the
    shift products ``P(p) = prod_{k<M} (p + kW)`` (their ``W^M`` cancel, as
    the sides have equal length), each distinct shift's product raised to
    its multiplicity: one ``fx_log`` of the floored quotient of the exact
    products at scale ``F + _SERIES_GUARD``.  The points below ``X0`` of one
    residue class mod ``W`` share the series point ``u + M W``: it is summed
    once, and their shift products are one nested chain, each point's the
    next larger one's times a segment (:func:`_shift_log_ratios`).  Sides
    longer than ``max(_CAP_FROM, 4 cap)`` bits are kept only to the ``cap``
    bits that quotient reads, and the quotient is certified from their
    brackets by the one rule of :func:`_certified_log_ratio`, or taken
    from the point's exact products where the brackets leave it open.  Both
    parts are added at scale ``F + _SERIES_GUARD`` and rounded once, so
    each value is an integer fixed by ``(A, T, W, u, F)`` alone, within one
    unit of ``2**-F`` of the exact sum, whichever other points share the
    call.
    """
    s = min(A + T)
    A = tuple(a - s for a in A)
    T = tuple(t - s for t in T)
    X0W, counts = _balanced_shape(A, T, W, F)
    chains: dict[int, dict[int, int]] = {}  # series point -> {M: u}
    for u in us:
        M = max(0, (X0W - u - s + W - 1) // W)  # ceil(X0 - u/W)
        chains.setdefault(u + s + M * W, {})[M] = u
    out = {}
    for z, points in chains.items():
        acc = _balanced_series(A, T, W, z, F)
        if 0 in points:  # the point is its own series point
            out[points.pop(0)] = rshift_round(acc, _SERIES_GUARD)
        if points:
            Ms = sorted(points)
            for M, r in zip(Ms, _shift_log_ratios(counts, z, W, Ms, F + _SERIES_GUARD)):
                out[points[M]] = rshift_round(acc - r, _SERIES_GUARD)
    return out


def _balanced_lgamma(A: tuple[int, ...], T: tuple[int, ...], W: int, u: int, F: int) -> int:
    """``sum_i lgG((u + A_i)/W) - lgG((u + T_i)/W)`` at fixed-point scale ``F``: :func:`_balanced_lgammas` at the one point ``u``."""
    return _balanced_lgammas(A, T, W, (u,), F)[u]


def _integer_shifts(a, b) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(A, T, D)``: the rationals ``a`` and ``b`` as sorted numerators over the lcm ``D`` of their denominators."""
    D = lcm(*(x.denominator for x in (*a, *b)))
    return (tuple(sorted(x.numerator * (D // x.denominator) for x in a)),
            tuple(sorted(x.numerator * (D // x.denominator) for x in b)), D)


def _ratio_log(a, b, n: int, F: int) -> int:
    """``sum lgG(a_i + n) - sum lgG(b_i + n)`` at scale ``F``, for ``a`` and ``b`` of equal length and sum.

    When every argument lies within one of the least it is one
    :func:`_balanced_lgamma`; a wider spread would raise the series'
    threshold to four times the spread and its term bound with the spread's
    powers (:func:`_series_cuts`), so it is :func:`_loggamma_sum`.
    """
    A, T, D = _integer_shifts(a, b)
    if max(A + T) - min(A + T) <= D:  # _largest_shift of the translated shifts is 0
        return _balanced_lgamma(A, T, D, D * n, F)
    return _loggamma_sum([x + n for x in a], [x + n for x in b], F)


def gamma(x, precision_bits: int) -> BigReal:
    """``Gamma(x)`` for a positive rational (or BigReal) ``x``.

    Relative error at most ``2**(8 - precision_bits)``; poles and
    nonpositive arguments raise, as does a BigReal argument beyond the
    ``to_fraction`` cap (``|exp| > MAX_DECIMAL_EXP``).
    """
    prec = _check_precision(precision_bits)
    fr = _check_gamma_arg(_as_rational(x))
    F = prec + GUARD_BITS
    return BigReal.exp_of_fixed(_loggamma_fixed(fr, F), F, prec)


def log_gamma(x, precision_bits: int) -> BigReal:
    """``log Gamma(x)``; ``exp(log_gamma(x))`` matches ``gamma(x)`` to precision."""
    prec = _check_precision(precision_bits)
    fr = _check_gamma_arg(_as_rational(x))
    F = prec + GUARD_BITS
    return BigReal.from_fixed(_loggamma_fixed(fr, F), F, prec)


# --------------------------------------------------------------------------
# symbolic closed forms
# --------------------------------------------------------------------------


def _normalize_args(args) -> list[Fraction]:
    out = []
    for arg in args:
        fr = Fraction(arg)
        if fr <= 0:
            raise PoleError(f"Gamma-expression argument must be positive, got {fr}")
        out.append(fr)
    return out


class GammaExpr(_Record):
    """``prefactor * prod Gamma(num_i) / prod Gamma(den_j)`` with rational args.

    Arguments are kept as sorted multisets with common numerator/denominator
    occurrences cancelled, so structurally equal values compare equal.
    """

    _fields = ("prefactor", "num", "den")
    prefactor: Fraction
    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def __init__(self, prefactor, num=(), den=()):
        # drop unit factors (Gamma(1) = 1 exactly), then cancel shared args
        nums = [a for a in _normalize_args(num) if a != 1]
        dens = [a for a in _normalize_args(den) if a != 1]
        for arg in list(nums):
            if arg in dens:
                nums.remove(arg)
                dens.remove(arg)
        vars(self).update(prefactor=Fraction(prefactor), num=tuple(sorted(nums)), den=tuple(sorted(dens)))

    @staticmethod
    def _render_side(args: tuple[Fraction, ...]) -> str:
        parts = []
        i = 0
        while i < len(args):
            j = i
            while j < len(args) and args[j] == args[i]:
                j += 1
            factor = f"G({args[i]})"
            if j - i > 1:
                factor += f"^{j - i}"
            parts.append(factor)
            i = j
        return " * ".join(parts)

    def text(self) -> str:
        """Canonical text form, e.g. ``8 * G(1/2) / (G(1/4)^2)``."""
        head_parts = []
        if self.prefactor != 1 or not self.num:
            head_parts.append(str(self.prefactor))
        if self.num:
            head_parts.append(self._render_side(self.num))
        out = " * ".join(head_parts)
        if self.den:
            out += f" / ({self._render_side(self.den)})"
        return out

    def __str__(self) -> str:
        return self.text()

    def to_json_dict(self) -> dict:
        return {
            "prefactor": str(self.prefactor),
            "num": [str(x) for x in self.num],
            "den": [str(x) for x in self.den],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GammaExpr":
        return cls(
            Fraction(obj["prefactor"]),
            tuple(Fraction(s) for s in obj["num"]),
            tuple(Fraction(s) for s in obj["den"]),
        )


def _gamma_expr_log(expr: GammaExpr, F: int) -> int:
    """``log`` of the Gamma ratio of ``expr`` (without its prefactor) at scale ``F``.

    The shorter side is padded with ``Gamma(1) = 1``, which
    :class:`GammaExpr` drops.  When the sides then have equal length and
    equal sums, as every closed form of a balanced product does, and every
    argument lies within one of the least, the log is one
    :func:`_balanced_lgamma` at ``u = 0``: one series, and one ``fx_log``
    below its threshold.  A wider spread (see :func:`_ratio_log`), like any
    other expression, is :func:`_loggamma_sum`.
    """
    pad = len(expr.den) - len(expr.num)
    num = [*expr.num, *[Fraction(1)] * pad]
    den = [*expr.den, *[Fraction(1)] * -pad]
    if num and sum(num) == sum(den):
        return _ratio_log(num, den, 0, F)
    return _loggamma_sum(expr.num, expr.den, F)


def eval_gamma_expr(expr: GammaExpr, precision_bits: int) -> BigReal:
    """Evaluate a :class:`GammaExpr` numerically.

    The Gamma ratio is rounded once from log space; a prefactor other than 1
    then multiplies it exactly, and the product is rounded once.

    A balanced expression is one shifted balanced series (see
    :func:`_gamma_expr_log`), any other one log-Gamma per distinct argument.
    """
    prec = _check_precision(precision_bits)
    F = prec + GUARD_BITS
    value = BigReal.exp_of_fixed(_gamma_expr_log(expr, F), F, prec)
    if expr.prefactor == 1:
        return value
    # on the integers: to_fraction would refuse a value beyond MAX_DECIMAL_EXP
    p = expr.prefactor
    return _round_ratio(value.man * p.numerator, p.denominator, value.exp, prec)


# --------------------------------------------------------------------------
# Gamma-ratio products
# --------------------------------------------------------------------------


def _ratio_params(args) -> tuple[Fraction, ...]:
    frs = tuple(Fraction(x) for x in args)
    for fr in frs:
        if fr <= 0:
            raise PoleError(f"product parameters must be positive rationals, got {fr}")
    return frs


def gamma_ratio_product(a, b, N: int, precision_bits: int) -> tuple[BigReal, BigReal]:
    """Partial and closed value of ``prod_{n>=0} (n+a_1)...(n+a_d)/((n+b_1)...(n+b_d))``.

    Returns ``(partial, closed)`` where ``partial`` is the product over
    ``n = 0..N`` and ``closed`` is ``Gamma(b_1)...Gamma(b_d) /
    (Gamma(a_1)...Gamma(a_d))``, the limit when the parameter sums balance.
    The partial's log is ``G(N+1) - G(0)`` with ``G(x) = sum_i lgG(x + a_i)
    - lgG(x + b_i)`` (:func:`_ratio_log`), and ``closed`` is
    ``exp(-G(0))``: the one ``G(0)`` serves both.  The balance check is
    exact rational arithmetic; mismatched sums raise :class:`BalanceError`.
    """
    prec = _check_precision(precision_bits)
    a_fr = _ratio_params(a)
    b_fr = _ratio_params(b)
    if len(a_fr) != len(b_fr) or not a_fr:
        raise ValueError("parameter vectors must have equal nonzero length")
    if sum(a_fr) != sum(b_fr):
        raise BalanceError(f"sum(a) = {sum(a_fr)} != sum(b) = {sum(b_fr)}")
    if N < 0:
        raise ValueError("N must be >= 0")
    F = prec + GUARD_BITS
    g0 = _ratio_log(a_fr, b_fr, 0, F)
    partial = BigReal.exp_of_fixed(_ratio_log(a_fr, b_fr, N + 1, F) - g0, F, prec)
    return partial, BigReal.exp_of_fixed(-g0, F, prec)
