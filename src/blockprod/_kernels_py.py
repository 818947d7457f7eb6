"""Per-term log-sum loop in exact integer fixed point.

For each index ``n`` the loop adds an integer fixed-point logarithm (scale
``F`` bits, see :mod:`blockprod.fixedpoint`) times a digit-block count
handed in by the caller.  It is the direct word-product sum, which
``identities.logsum_word_direct`` runs for small ``N`` at high precision
(larger ``N`` go to the telescoped sum
:func:`blockprod.identities.logsum_word`); the companion form reaches it
through the word ``1`` in base 2.  The accumulated log-sum is a plain
integer addition, so splitting a range ``[lo, hi]`` into disjoint chunks
and adding the partial sums gives *exactly* the whole-range result.  Each
term's log is floored, so a sum drifts from the exact value by a few units
of ``2**-F`` per term; ``logsum_word_direct`` runs it with guard bits and
rounds once.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# fixed-point logs of rationals near 1
# --------------------------------------------------------------------------


def fx_log_ratio(p: int, q: int, F: int) -> int:
    """``log(p/q)`` for positive integers, exact-integer atanh series.

    Uses ``log(p/q) = 2*atanh((p-q)/(p+q))``; fast when ``p`` is close to
    ``q`` (every product term in this package converges to 1) but correct
    for any positive pair.
    """
    if p <= 0 or q <= 0:
        raise ValueError("fx_log_ratio needs positive integers")
    if p == q:
        return 0
    if p < q:
        return -fx_log_ratio(q, p, F)
    num = p - q
    den = p + q
    t = (num << F) // den
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
    """``log(1 + 1/q)`` for a positive integer ``q``, exact-integer series.

    ``log((q+1)/q) = 2*atanh(1/(2q+1)) = 2 * sum_{j>=0} (2q+1)^-(2j+1)/(2j+1)``.
    """
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


# --------------------------------------------------------------------------
# log-sum accumulators
# --------------------------------------------------------------------------

# (base, a_num, a_den, b_num, b_den) of the canonical base-2 parameters
# a = (1, 1), b = (0, 2), which logsum_word_product sums by a fast path
FAST_PATH_ARGS = (2, (1, 1), (1, 1), (0, 2), (1, 1))


def logsum_word_product(
    base: int,
    counts,
    a_num: tuple,
    a_den: tuple,
    b_num: tuple,
    b_den: tuple,
    lo: int,
    hi: int,
    F: int,
) -> int:
    """Sum of ``N_w(n) * log(term_n)`` for ``n`` in ``[lo, hi]``.

    ``counts`` is a bytes-like buffer with ``counts[n - lo] = N_w(n)`` (see
    :func:`blockprod.words.block_counts`).
    ``term_n = prod_i (Bn+a_i)/(Bn+b_i) * prod_{k<B} (B^2 n+Bk+b_i)/(B^2 n+Bk+a_i)``
    with rational parameters ``a_i = a_num[i]/a_den[i]`` etc.  For the
    canonical base-2 parameters ``a = (1,1)``, ``b = (0,2)``
    (:data:`FAST_PATH_ARGS`) the term telescopes to
    ``((4n+2)^2 / ((4n+1)(4n+3)))^2`` and a fast path is used.
    """
    if len(counts) != hi - lo + 1:
        raise ValueError("counts must hold one entry per index in [lo, hi]")
    total = 0
    if (base, a_num, a_den, b_num, b_den) == FAST_PATH_ARGS:
        for n, c in enumerate(counts, lo):
            if c:
                total += (2 * c) * fx_log1p_inv((4 * n + 1) * (4 * n + 3), F)
        return total
    for n, c in enumerate(counts, lo):
        if not c:
            continue
        bn = base * n
        b2n = base * bn
        p = 1
        q = 1
        for i in range(len(a_num)):
            p *= bn * a_den[i] + a_num[i]
            q *= a_den[i]
            q *= bn * b_den[i] + b_num[i]
            p *= b_den[i]
            for k in range(base):
                x = b2n + base * k
                p *= x * b_den[i] + b_num[i]
                q *= b_den[i]
                q *= x * a_den[i] + a_num[i]
                p *= a_den[i]
        total += c * fx_log_ratio(p, q, F)
    return total

