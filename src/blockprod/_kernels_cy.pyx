# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels: bit-identical twins of ``blockprod._kernels_py``.

Loop indices, digit extraction, and the small machine-word products run as
C integers; the fixed-point accumulators remain Python ints (they exceed 64
bits by design).  Every arithmetic step mirrors the pure-Python kernel
exactly, and index ranges that could overflow the C fast paths fall back to
the identical object-arithmetic loop, so both backends return the same
integers for every input.  The test suite asserts this equivalence.
"""

BACKEND = "cython"

# C fast paths are used only below these bounds (object loops otherwise):
# (4k+3)^2 must fit in int64 for the companion form, and base^2*n + base*k
# must fit for the word-product family.
DEF FAST_K = 1 << 29
DEF FAST_N = 1 << 40
DEF FAST_BASE = 1 << 10


cdef inline int _bitlen_ll(unsigned long long v) noexcept:
    cdef int n = 0
    while v:
        v >>= 1
        n += 1
    return n


cdef inline int _popcount_ll(unsigned long long v) noexcept:
    cdef int c = 0
    while v:
        v &= v - 1
        c += 1
    return c


# --------------------------------------------------------------------------
# fixed-point logs of rationals near 1
# --------------------------------------------------------------------------


def fx_log_ratio(p, q, F):
    """``log(p/q)`` for positive integers; see the pure twin for the series."""
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
    cdef long long k = 1
    while u:
        s += u // k
        u = (u * t2) >> F
        k += 2
    return 2 * s


def fx_log1p_inv(q, F):
    """``log(1 + 1/q)`` for a positive integer ``q``; exact-integer series."""
    if q <= 0:
        raise ValueError("fx_log1p_inv needs a positive integer")
    c = 2 * q + 1
    c2 = c * c
    u = (2 << F) // c
    s = 0
    cdef long long k = 1
    while u:
        s += u // k
        u //= c2
        k += 2
    return s


# --------------------------------------------------------------------------
# log-sum accumulators
# --------------------------------------------------------------------------


def logsum_word_product(base, counts, a_num, a_den, b_num, b_den, lo, hi, F):
    """Sum of ``N_w(n) * log(term_n)``; see the pure twin for the term shape."""
    if len(counts) != hi - lo + 1:
        raise ValueError("counts must hold one entry per index in [lo, hi]")
    cdef const unsigned char[:] cv = counts
    cdef int d = len(a_num)
    cdef bint canonical = (
        base == 2
        and d == 2
        and a_num == (1, 1)
        and b_num == (0, 2)
        and a_den == (1, 1)
        and b_den == (1, 1)
    )
    cdef int cbase = base
    cdef int i, k, c
    cdef Py_ssize_t j, size = len(cv)
    cdef long long n, n0, bn, b2n, x
    total = 0
    if canonical and hi <= FAST_K:
        n0 = lo
        for j in range(size):
            c = cv[j]
            if c:
                n = n0 + j
                total += (2 * c) * fx_log1p_inv((4 * n + 1) * (4 * n + 3), F)
        return total
    if canonical:
        for j in range(size):
            c = cv[j]
            if c:
                nn = lo + j
                total += (2 * c) * fx_log1p_inv((4 * nn + 1) * (4 * nn + 3), F)
        return total
    if cbase <= FAST_BASE and hi <= FAST_N:
        n0 = lo
        for j in range(size):
            c = cv[j]
            if not c:
                continue
            n = n0 + j
            bn = (<long long> cbase) * n
            b2n = (<long long> cbase) * bn
            p = 1
            q = 1
            for i in range(d):
                p *= bn * a_den[i] + a_num[i]
                q *= a_den[i]
                q *= bn * b_den[i] + b_num[i]
                p *= b_den[i]
                for k in range(cbase):
                    x = b2n + cbase * k
                    p *= x * b_den[i] + b_num[i]
                    q *= b_den[i]
                    q *= x * a_den[i] + a_num[i]
                    p *= a_den[i]
            total += c * fx_log_ratio(p, q, F)
        return total
    # object fallback, identical to the pure kernel
    for j in range(size):
        c = cv[j]
        if not c:
            continue
        nn = lo + j
        obn = base * nn
        ob2n = base * obn
        p = 1
        q = 1
        for i in range(d):
            p *= obn * a_den[i] + a_num[i]
            q *= a_den[i]
            q *= obn * b_den[i] + b_num[i]
            p *= b_den[i]
            for k in range(base):
                ox = ob2n + base * k
                p *= ox * b_den[i] + b_num[i]
                q *= b_den[i]
                q *= ox * a_den[i] + a_num[i]
                p *= a_den[i]
        total += c * fx_log_ratio(p, q, F)
    return total


def logsum_ratio_product(a_num, a_den, b_num, b_den, lo, hi, F):
    """Sum of ``log(prod_i (n+a_i)/(n+b_i))`` for ``n`` in ``[lo, hi]``."""
    cdef int d = len(a_num)
    cdef int i
    total = 0
    for nn in range(lo, hi + 1):
        p = 1
        q = 1
        for i in range(d):
            p *= nn * a_den[i] + a_num[i]
            q *= a_den[i]
            q *= nn * b_den[i] + b_num[i]
            p *= b_den[i]
        total += fx_log_ratio(p, q, F)
    return total


def logsum_companion(lo, hi, F):
    """Exponent ``2*(N_0(k) - N_1(k))`` (digit balance) on the 4/pi factors."""
    cdef long long k, k0, k1, e
    total = 0
    if hi <= FAST_K:
        k0 = lo if lo > 1 else 1
        k1 = hi
        for k in range(k0, k1 + 1):
            e = 2 * (_bitlen_ll(k) - 2 * _popcount_ll(k))
            if e:
                total += e * fx_log1p_inv((4 * k + 1) * (4 * k + 3), F)
        return total
    for kk in range(max(lo, 1), hi + 1):
        ee = 2 * (kk.bit_length() - 2 * kk.bit_count())
        if ee:
            total += ee * fx_log1p_inv((4 * kk + 1) * (4 * kk + 3), F)
    return total
