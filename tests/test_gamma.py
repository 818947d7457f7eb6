"""Gamma evaluation quality, closed-form expressions, and ratio products."""

import hashlib
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import helpers
import mpmath
import pytest
from helpers import assert_close, sin_pi_ref, to_mpf

from blockprod import fixedpoint, gammafn, identities
from blockprod.bigreal import GUARD_BITS, BigReal, pi_value
from blockprod.gammafn import (
    BalanceError,
    GammaExpr,
    _SERIES_GUARD,
    PoleError,
    _balanced_lgamma,
    _balanced_lgammas,
    _balanced_series,
    _balanced_threshold,
    _bernoulli,
    _capped_product,
    _gamma_expr_log,
    _loggamma_fixed,
    _run_rows,
    _log_ratio,
    _series,
    _series_cuts,
    _series_threshold,
    _stirling_series,
    _terms_at,
    eval_gamma_expr,
    gamma,
    gamma_ratio_product,
    log_gamma,
)
from blockprod.identities import (
    DEFAULT_PARAMS,
    ProductSpec,
    closed_form_base2,
    closed_form_baseB,
    companion_closed_form,
    logsum_word,
)
from blockprod.words import Word


def contract(prec: int) -> mpmath.mpf:
    return mpmath.mpf(2) ** (8 - prec)


class TestGammaValues:
    @pytest.mark.parametrize("prec", [128, 256])
    def test_half_is_sqrt_pi(self, prec, mp_prec):
        with mp_prec(prec):
            assert_close(gamma(Fraction(1, 2), prec), mpmath.sqrt(mpmath.pi), contract(prec))

    def test_gamma_one(self):
        g = gamma(1, 128)
        assert abs(g.to_fraction() - 1) <= Fraction(1, 2**120)

    @pytest.mark.parametrize("prec", [128, 256])
    def test_quarter_reflection_product(self, prec, mp_prec):
        with mp_prec(prec):
            prod = gamma(Fraction(1, 4), prec).to_fraction() * gamma(Fraction(3, 4), prec).to_fraction()
            assert_close(BigReal.from_fraction(prod, prec), mpmath.pi * mpmath.sqrt(2), contract(prec))

    def test_accepts_bigreal_argument(self, mp_prec):
        x = BigReal.from_fraction(Fraction(7, 2), 128)
        with mp_prec(128):
            assert_close(gamma(x, 128), mpmath.gamma(mpmath.mpf(7) / 2), contract(128))

    def test_poles_and_domain(self):
        with pytest.raises(PoleError):
            gamma(0, 128)
        with pytest.raises(PoleError):
            gamma(-3, 128)
        with pytest.raises(ValueError):
            gamma(Fraction(-1, 2), 128)
        with pytest.raises(ValueError):
            gamma(Fraction(1, 2), 32)  # precision too low

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize(
        "x", [Fraction(3_000_001, 3), Fraction(3_210_000_001, 3), Fraction(3_300_000_000_001, 3)]
    )
    def test_large_arguments(self, x, prec, mp_prec):
        """The contract holds where (z + 1/2) log(z + a) and k log 2 are of size 2^45."""
        with mp_prec(prec):
            want = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
            # no BigReal is left in a frame: rendering one near 2^(4e13) in a
            # failure report would build integers of that size
            err = abs(to_mpf(gamma(x, prec)) - want) / want
            assert err <= contract(prec)

    @pytest.mark.parametrize(
        "x", [Fraction(1, 64), Fraction(5, 8), Fraction(7, 4), Fraction(3_000_001, 3)]
    )
    def test_1024_bits(self, x, mp_prec):
        """The contract at 1024 bits, as run by ``--precision 1024``."""
        with mp_prec(1024):
            want = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
            err = abs(to_mpf(gamma(x, 1024)) - want) / want
            assert err <= contract(1024)

    def test_oracle_sweep(self, mp_prec):
        rng = random.Random(7)
        with mp_prec(192):
            for _ in range(40):
                x = Fraction(rng.randrange(1, 4000), rng.randrange(1, 400))
                want = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
                assert_close(gamma(x, 192), want, contract(192))


class TestLogGamma:
    def test_log_gamma_one_and_two(self):
        for x in (1, 2):
            lg = log_gamma(x, 128)
            assert abs(lg.to_fraction()) <= Fraction(1, 2**110)

    def test_log_gamma_half(self, mp_prec):
        with mp_prec(128):
            assert_close(log_gamma(Fraction(1, 2), 128), mpmath.log(mpmath.pi) / 2, contract(128))

    def test_exp_consistency(self, mp_prec):
        """exp(log_gamma(x)) agrees with gamma(x) to target precision."""
        with mp_prec(160):
            for num, den in ((5, 3), (1, 7), (19, 4)):
                lg = log_gamma(Fraction(num, den), 160)
                g = gamma(Fraction(num, den), 160)
                assert abs(mpmath.exp(to_mpf(lg)) - to_mpf(g)) <= abs(to_mpf(g)) * contract(160)


# working scales of Gamma: F = precision + 32 at 128, 256, 1024 and 2048 bits
STIRLING_SCALES = [160, 288, 1056, 2080]


@pytest.mark.parametrize("F", STIRLING_SCALES)
class TestStirlingLogGamma:
    """The shifted Stirling evaluator ``_loggamma_fixed`` at the scales Gamma runs at."""

    @staticmethod
    def arguments(F):
        X0 = _series_threshold(F)
        small = [Fraction(1, 997), Fraction(1, 64), Fraction(1, 4), Fraction(253, 256), Fraction(7, 81)]
        # X0 - 1/q is shifted once, X0 not at all (the remainder bound's worst case)
        edges = [X0 - Fraction(1, 997), X0 - Fraction(1, 64), Fraction(X0), X0 + Fraction(1, 3)]
        large = [10**6 + Fraction(1, 3), 11 * 10**11 + Fraction(1, 3)]
        return small + edges + large

    def test_within_one_unit_of_mpmath(self, F):
        for x in self.arguments(F):
            # lgG(x) has bitlen(x) + bitlen(bitlen(x)) integer bits
            with mpmath.workprec(F + 64 + 2 * int(x).bit_length()):
                want = mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator) * mpmath.mpf(2) ** F
                assert abs(_loggamma_fixed(x, F) - want) <= 1, x

    def test_first_omitted_term_below_guard(self, F):
        """``|B_(2K+2)| / ((2K+2)(2K+1) X0^(2K+1)) < 2**-(F + G + 2)``, and ``K`` is the fewest such terms."""
        X0 = _series_threshold(F)
        K = len(_stirling_series(F)[1])
        bern = _bernoulli(2 * K + 2)

        def below(m):
            b = bern[m]
            return abs(b.numerator) << (F + _SERIES_GUARD + 2) < b.denominator * m * (m - 1) * X0 ** (m - 1)

        assert below(2 * K + 2)
        assert not below(2 * K)

    def test_equals_plain_form(self, F):
        """The split shift product and the cached ``log q`` give the integer of the plain form,
        also at 127, 128, 129 and 257 shift factors (where ``X0`` allows them)."""
        X0 = _series_threshold(F)
        shifted = [X0 - M + Fraction(1, 3) for M in (127, 128, 129, 257) if M <= X0]
        for x in self.arguments(F) + shifted:
            want = helpers.loggamma_fixed_oracle(x, F)
            assert _loggamma_fixed(x, F) == want, x
            assert _loggamma_fixed(x, F) == want, x  # log q from the cache

    def test_cold_and_warm_calls_agree(self, F, monkeypatch):
        """The value depends on ``(x, F)`` alone: a call that builds the series equals a cached one."""
        for x in (Fraction(1, 4), Fraction(253, 256), 10**6 + Fraction(1, 3)):
            _stirling_series.cache_clear()
            fresh_bernoulli_table(monkeypatch)
            cold = _loggamma_fixed(x, F)
            assert _stirling_series.cache_info().currsize == 1
            assert _loggamma_fixed(x, F) == cold, x


def fresh_bernoulli_table(monkeypatch) -> None:
    """Give ``_bernoulli`` an empty table for the rest of the test."""
    monkeypatch.setattr(gammafn, "_BERNOULLI", gammafn._LazyTable(gammafn._bernoulli_numbers()))


def bernoulli_recurrence(n: int) -> list[Fraction]:
    """``B_0..B_n`` from ``sum_{k<=m} C(m+1, k) B_k = 0`` in ``Fraction`` arithmetic."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(math.comb(m + 1, k) * out[k] for k in range(m)) / (m + 1))
    return out


def test_bernoulli_table_in_any_order(monkeypatch):
    """``B_0..B_n`` for ``n <= 200``, asked in shuffled order from an empty table, equal the recurrence."""
    want = bernoulli_recurrence(200)
    fresh_bernoulli_table(monkeypatch)
    order = list(range(201))
    random.Random(18).shuffle(order)
    for n in order:
        assert _bernoulli(n) == tuple(want[: n + 1]), n


def in_threads(target, args) -> None:
    """``target(arg)`` for each of ``args`` in a thread of its own, all at once, with a short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(arg,)) for arg in args]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_bernoulli_table_across_threads(monkeypatch):
    """Eight threads growing one empty table at once, with a short switch interval, all read the recurrence."""
    want = bernoulli_recurrence(120)
    fresh_bernoulli_table(monkeypatch)
    got = {}

    def ask(seed):
        order = list(range(121))
        random.Random(seed).shuffle(order)
        got[seed] = all(_bernoulli(n) == tuple(want[: n + 1]) for n in order)

    in_threads(ask, range(8))
    assert got == dict.fromkeys(range(8), True)


def cold_run_tables(monkeypatch) -> None:
    """Empty the Bernoulli table and the caches of the series and their run rows."""
    fresh_bernoulli_table(monkeypatch)
    _series.cache_clear()
    _run_rows.cache_clear()


def test_run_rows_across_threads(monkeypatch):
    """Eight threads reading rows ``p`` to ``n`` terms of one cold table, each in its own shuffled
    order and with a short switch interval, all read ``floor(B_2p/(2p)! (k)_(2p-1) c_k)``."""
    key = ((1, 1), (0, 2), 10, 544)  # the series of the runs of base-10 words at F = 544
    P = 68  # the most rows those runs keep at N = 10**8
    coeffs = _series(*key)[0]
    bern = bernoulli_recurrence(2 * P)
    want = [[math.floor(c * bern[2 * p] * Fraction(math.prod(range(k, k + 2 * p - 1)), math.factorial(2 * p)))
             for k, c in enumerate(coeffs, 1)] for p in range(1, P + 1)]
    cold_run_tables(monkeypatch)
    integral, rows = _run_rows(*key)
    assert integral == tuple(c // j for j, c in enumerate(coeffs[1:], 1))
    asks = [(p, n) for p in range(1, P + 1) for n in range(1, len(coeffs) + 1, 7)]
    got = {}

    def ask(seed):
        order = asks[:]
        random.Random(seed).shuffle(order)
        rows = _run_rows(*key)[1]
        got[seed] = all(rows[:p][p - 1][:n] == tuple(want[p - 1][:n]) for p, n in order)

    in_threads(ask, range(8))
    assert got == dict.fromkeys(range(8), True)
    with pytest.raises(IndexError):
        rows[:1][0][: len(coeffs) + 1]


def test_word_logsums_across_threads(monkeypatch):
    """Four threads summing base-10 words from cold tables at once equal the words summed one by one."""
    specs = [ProductSpec(10, Word.parse(w, 10), *DEFAULT_PARAMS) for w in "01234567"]
    N, F = 10**8, 544
    cold_run_tables(monkeypatch)
    want = [logsum_word(spec, N, F) for spec in specs]
    cold_run_tables(monkeypatch)
    got = {}

    def ask(seed):
        got[seed] = [logsum_word(spec, N, F) for spec in specs[seed:] + specs[:seed]]

    in_threads(ask, range(4))
    assert got == {seed: want[seed:] + want[:seed] for seed in range(4)}


def test_lazy_table_never_reads_short():
    """A read past the items a generator can give raises, also after the generator was interrupted."""
    table = gammafn._LazyTable(iter(range(3)))
    assert table[:2] == (0, 1)
    with pytest.raises(IndexError):
        table[:4]
    assert table[:3] == (0, 1, 2)

    def interrupted():
        yield 0
        raise KeyboardInterrupt

    table = gammafn._LazyTable(interrupted())
    with pytest.raises(KeyboardInterrupt):
        table[:2]
    with pytest.raises(IndexError):
        table[:2]
    assert table[:1] == (0,)


def test_series_built_once_across_threads(monkeypatch):
    """Four threads reading three cold series keys at once build each key once and read equal values."""
    keys = [((1, 1), (0, 2), W, 1056) for W in (10, 100, 1000)]
    want = [gammafn._build_series(*key) for key in keys]
    builds = Counter()
    build = gammafn._build_series

    def counted(*key):
        builds[key] += 1
        return build(*key)

    monkeypatch.setattr(gammafn, "_build_series", counted)
    _series.cache_clear()
    start = threading.Barrier(4)
    got = {}

    def ask(seed):
        start.wait()
        got[seed] = [_series(*key) for key in keys]

    in_threads(ask, range(4))
    assert builds == Counter(keys)
    assert got == dict.fromkeys(range(4), want)
    assert _series(*keys[0]) == want[0] and builds == Counter(keys)  # a warm read builds nothing


@pytest.mark.parametrize("M", [1, 127, 128, 129, 257, 1040])
def test_shift_product_is_plain_product(M):
    """Uncapped, the product is ``math.prod``; capped, its bracket ``[x 2**e, (x + 4n) 2**e]`` holds it."""
    for p, q in ((1, 1), (25, 32), (7, 81)):
        exact = math.prod(range(p, p + M * q, q))
        assert _capped_product(p, q, M) == (exact, 0, 0), (p, q)
        for cap in (64, 300):
            x, e, n = _capped_product(p, q, M, cap)
            assert x.bit_length() <= cap, (p, q, cap)
            assert x << e <= exact <= (x + 4 * n) << e, (p, q, cap)
            assert n or (x, e) == (exact, 0), (p, q, cap)


def exact_shift_log_ratio(counts, u, W, M, E):
    """The log ratio of the exact shift products, as the plain products give it."""
    num = math.prod(math.prod(range(u + a, u + a + M * W, W)) ** c for a, c in counts.items() if c > 0)
    den = math.prod(math.prod(range(u + a, u + a + M * W, W)) ** -c for a, c in counts.items() if c < 0)
    return _log_ratio(num, den, E) if num != den else 0


def shift_log_ratio(counts, u, W, M, E):
    """The chain of :func:`gammafn._shift_log_ratios` at the one point ``u``, ``M`` steps below its series point."""
    (r,) = gammafn._shift_log_ratios(tuple(counts.items()), u + M * W, W, [M], E)
    return r


def is_capped(counts, u, W, M, E):
    """Whether the shift products of the point ``u`` are past the crossover, where they are kept capped."""
    side = sum(c for c in counts.values() if c > 0)
    cap = E + gammafn._CAP_GUARD
    return side * M * (u + max(counts) + M * W).bit_length() > max(gammafn._CAP_FROM, 4 * cap)


def exact_log_ratio_calls(monkeypatch):
    """Record the scale of every exact quotient the log ratios take."""
    calls = []

    def exact(p, q, E):
        calls.append(E)
        return _log_ratio(p, q, E) if p >= q else -_log_ratio(q, p, E)

    monkeypatch.setattr(gammafn, "_log_ratio", exact)
    return calls


def translated(A, T, W, F):
    """``(A, T, counts, X0)`` of the shifts translated so the least is 0, as the balanced log-Gammas take them."""
    s = min(A + T)
    A, T = tuple(a - s for a in A), tuple(t - s for t in T)
    counts = Counter(A)
    counts.subtract(T)
    return A, T, counts, _balanced_threshold(A, T, W, F), s


def balanced_lgamma_oracle(A, T, W, u, F):
    """The balanced log-Gamma of one point made apart: its own series point's series, less the
    log ratio of its plain exact shift products, rounded once."""
    A, T, counts, X0, s = translated(A, T, W, F)
    u += s
    M = max(0, -(-(X0 * W - u) // W))
    r = exact_shift_log_ratio(counts, u, W, M, F + _SERIES_GUARD) if M else 0
    return fixedpoint.rshift_round(_balanced_series(A, T, W, u + M * W, F) - r, _SERIES_GUARD)


class TestCertifiedLogRatio:
    """The log of the shift-product ratio, certified from capped products, is the integer of
    the exact products, and takes the exact products where the brackets leave it open."""

    # the closed forms' (0,2)/(1,1), the grouped and alternating 4/pi prefixes' (W = 4, 8),
    # and three shifts a side
    SHAPES = [((0, 2), (1, 1)), ((2, 2), (1, 3)), ((6, 6), (5, 7)), ((1, 1, 1), (0, 0, 3))]

    @staticmethod
    def cases(F):
        for A, T in TestCertifiedLogRatio.SHAPES:
            counts = Counter(A)
            counts.subtract(T)
            for W in (4, 8, 64, 81, 256):
                X0 = _balanced_threshold(A, T, W, F)
                for u in (1, W, X0 * W - 1):
                    yield counts, u, W, -(-(X0 * W - u) // W)

    @pytest.mark.parametrize("F", [176, 288, 1056, 2080])
    def test_equals_exact_log_ratio(self, F, monkeypatch):
        """Products past the crossover are certified without the exact quotient; the others
        take it, once."""
        calls = exact_log_ratio_calls(monkeypatch)
        E = F + _SERIES_GUARD
        certified = 0
        for counts, u, W, M in self.cases(F):
            want = exact_shift_log_ratio(counts, u, W, M, E)
            calls.clear()
            assert shift_log_ratio(counts, u, W, M, E) == want, (dict(counts), u, W, M)
            capped = is_capped(counts, u, W, M, E)
            assert calls == ([] if capped else [E]), (dict(counts), u, W, M)
            certified += capped
        assert certified >= {176: 6, 288: 34, 1056: 40, 2080: 40}[F], certified

    @pytest.mark.parametrize("F", [1056, 2080])
    def test_open_bracket_takes_the_exact_products(self, F, monkeypatch):
        """With a guard of two bits the brackets straddle the quotient: the exact products
        decide it, and neither the log ratio nor the balanced sum moves, also for the points
        of one chain, whose running products are capped and whose floors add up."""
        A, T, W = (0, 2), (1, 1), 64
        counts = Counter(A)
        counts.subtract(T)
        E = F + _SERIES_GUARD
        X0 = _balanced_threshold(A, T, W, F)
        M = X0 - 1
        want = shift_log_ratio(counts, 1, W, M, E)
        want_sum = _balanced_lgamma(A, T, W, 1, F)
        # one class's points below the threshold, down from its series point X0 W + 1
        us = [1 + W * m for m in (0, 1, 2, 5, 17, 60, X0 // 2, X0 - 3, X0 - 1)]
        want_chain = _balanced_lgammas(A, T, W, us, F)
        capped = sum(is_capped(counts, u, W, X0 - (u - 1) // W, E) for u in us)
        assert 0 < capped < len(us)
        calls = exact_log_ratio_calls(monkeypatch)
        assert _balanced_lgammas(A, T, W, us, F) == want_chain
        assert calls == [E] * (len(us) - capped)  # the capped points are certified
        calls.clear()
        monkeypatch.setattr(gammafn, "_CAP_GUARD", 2)
        assert shift_log_ratio(counts, 1, W, M, E) == want
        assert calls == [E]
        assert _balanced_lgamma(A, T, W, 1, F) == want_sum
        assert calls == [E, E]
        calls.clear()
        assert _balanced_lgammas(A, T, W, us, F) == want_chain
        assert calls == [E] * len(us)  # every capped point fell back to its exact products
        assert want == exact_shift_log_ratio(counts, 1, W, M, E)
        assert want_chain == {u: balanced_lgamma_oracle(A, T, W, u, F) for u in us}


class TestBalancedLgammas:
    """Many points in one call: each class below the threshold sums its series once and walks
    one nested chain of shift products, and every point keeps the integer it has alone."""

    # the grouped and alternating 4/pi classes, and the closed forms' shape at three moduli
    CLASSES = [((2, 2), (1, 3), 4), ((2, 2), (1, 3), 8), ((6, 6), (5, 7), 8),
               ((0, 2), (1, 1), 4), ((0, 2), (1, 1), 27), ((0, 2), (1, 1), 256)]

    @staticmethod
    def points(A, T, W, F, seed):
        """Points on both sides of the threshold, in two residue classes and one other, and at random below it."""
        X0 = translated(A, T, W, F)[3]
        rng = random.Random(seed)
        us = {1, 2, 3, W - 1, W, W + 1, 5 * W + 3, X0 * W - W - 1, X0 * W - W, X0 * W - 1, X0 * W,
              X0 * W + 1, X0 * W + W, 3 * X0 * W + 7}
        us.update(W * rng.randrange(1, X0) for _ in range(8))
        us.update(rng.randrange(1, X0 * W) for _ in range(8))
        return sorted(u for u in us if u + min(A + T) > 0)

    @pytest.mark.parametrize("F", [160, 1056, 2080])
    def test_equals_independent_oracle(self, F):
        """Each value is the series at its own series point less the log ratio of its own
        exact shift products, rounded once, and the one-point call's value."""
        for i, (A, T, W) in enumerate(self.CLASSES):
            us = self.points(A, T, W, F, seed=F + i)
            got = _balanced_lgammas(A, T, W, us, F)
            assert sorted(got) == us
            for u in us:
                assert got[u] == balanced_lgamma_oracle(A, T, W, u, F), (A, T, W, u)
                if u % 5 == 0:
                    assert got[u] == _balanced_lgamma(A, T, W, u, F), (A, T, W, u)

    @pytest.mark.parametrize("F", [160, 2080])
    def test_one_series_per_series_point(self, F, monkeypatch):
        """A class's points below the threshold share one series, and each point above it has its own."""
        calls = Counter()
        series = gammafn._balanced_series

        def counted(A, T, W, u, F):
            calls[A, T, W, u] += 1
            return series(A, T, W, u, F)

        monkeypatch.setattr(gammafn, "_balanced_series", counted)
        A, T, W = (0, 2), (1, 1), 27
        X0 = _balanced_threshold(A, T, W, F)
        us = [1, 2, 28, 29, 55, W * X0 - 1, W * X0 + 2, 5 * W * X0]
        _balanced_lgammas(A, T, W, us, F)
        assert calls == Counter({(A, T, W, u): 1 for u in (W * X0 + 1, W * X0 + 2, W * X0 + W - 1, 5 * W * X0)})


class TestCappedShiftProduct:
    """The single log-Gamma's shift product past the crossover is kept to the bits its ``log``
    reads, and every value is the one the exact product gives."""

    # (exp, sha256 of the decimal mantissa), as the exact shift products gave them
    PINS = {
        (gamma, Fraction(1, 3), 2048): (-2046, "f1b9da11b2482fac22db5f311903bb62bbec914d4ac2c2879c1fbead20a80461"),
        (log_gamma, Fraction(1, 3), 1024): (-1024, "405c6a2d0ee45ffa30dfe461188c0cc8b39bacaa7cae9bf96e21bdbede43c5c3"),
        (log_gamma, Fraction(1, 3), 2048): (-2048, "dc09807fed48d9de991ed2ed26b4009f9bcb5e02465ca4a5040c2bb7eec513eb"),
        (log_gamma, Fraction(253, 256), 2048): (-2055, "635646a214c2c345b0ef103670fb9249ea8fc2e7a58c9c28cf2f720ca68b7da7"),
    }

    @staticmethod
    def exact_products(monkeypatch):
        """Record ``(p, q, M)`` of every shift product built whole, without a cap."""
        built = []

        def recorded(p, q, M, cap=0):
            if not cap:
                built.append((p, q, M))
            return _capped_product(p, q, M, cap)

        monkeypatch.setattr(gammafn, "_capped_product", recorded)
        return built

    @staticmethod
    def pinned(fn, x, prec):
        v = fn(x, prec)
        return v.exp, hashlib.sha256(str(v.man).encode()).hexdigest()

    @staticmethod
    def shift(x, prec):
        """``(p, q, M)`` of the shift product of ``x`` at ``precision``."""
        X0 = _series_threshold(prec + GUARD_BITS)
        return x.numerator, x.denominator, -(-(X0 * x.denominator - x.numerator) // x.denominator)

    @pytest.mark.parametrize("key", list(PINS), ids=lambda k: f"{k[0].__name__}-{k[1]}-{k[2]}")
    def test_certified_and_pinned(self, key, monkeypatch):
        """The value is pinned, and the product's bracket fixes what ``fx_log`` reads."""
        built = self.exact_products(monkeypatch)
        fn, x, prec = key
        assert self.pinned(fn, x, prec) == self.PINS[key]
        assert self.shift(x, prec) not in built

    @pytest.mark.parametrize("key", list(PINS)[:2], ids=lambda k: f"{k[0].__name__}-{k[1]}-{k[2]}")
    def test_open_bracket_takes_the_exact_product(self, key, monkeypatch):
        """With a guard of two bits the bracket cannot fix the rounded mantissa: the exact
        product is built once, and the value does not move."""
        built = self.exact_products(monkeypatch)
        monkeypatch.setattr(gammafn, "_CAP_GUARD", 2)
        fn, x, prec = key
        assert self.pinned(fn, x, prec) == self.PINS[key]
        assert built.count(self.shift(x, prec)) == 1

    def test_short_products_stay_exact(self, monkeypatch):
        """Below the crossover (Gamma at 128 and 256 bits) the product is built whole."""
        built = self.exact_products(monkeypatch)
        for prec in (128, 256):
            gamma(Fraction(1, 3), prec)
            assert self.shift(Fraction(1, 3), prec) in built


@pytest.mark.parametrize("x", [Fraction(1, 997), Fraction(253, 256), 10**6 + Fraction(1, 3)])
def test_gamma_at_precision_cap(x, mp_prec):
    """The ``2**(8 - p)`` contract at 2048 bits, the ``--precision`` cap."""
    with mp_prec(2048):
        want = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
        err = abs(to_mpf(gamma(x, 2048)) - want) / want
        assert err <= contract(2048)


class TestIdentities:
    def test_recurrence(self, mp_prec):
        """Gamma(1+x) = x Gamma(x) over random rationals in (0, 10)."""
        rng = random.Random(11)
        for prec in (128, 256):
            for _ in range(25):
                x = Fraction(rng.randrange(1, 1000), rng.randrange(100, 1000))
                lhs = gamma(1 + x, prec).to_fraction()
                rhs = gamma(x, prec).to_fraction() * x
                defect = abs(lhs / rhs - 1)
                assert defect <= Fraction(2) ** (8 - prec)

    def test_reflection(self, mp_prec):
        """Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 over random z in (0, 1), the sine from mpmath."""
        rng = random.Random(13)
        for prec in (128, 256):
            pi = pi_value(prec).to_fraction()
            for _ in range(25):
                z = Fraction(rng.randrange(1, 997), 997)
                value = (gamma(z, prec).to_fraction() * gamma(1 - z, prec).to_fraction()
                         * sin_pi_ref(z, prec).to_fraction() / pi)
                assert abs(value - 1) <= Fraction(2) ** (8 - prec)

    def test_precision_scaling(self):
        """Doubling precision shrinks identity defects by at least 2**(p/2)."""
        z = Fraction(3, 7)
        defects = {}
        for prec in (128, 256):
            value = (gamma(z, prec).to_fraction() * gamma(1 - z, prec).to_fraction()
                     * sin_pi_ref(z, prec).to_fraction() / pi_value(prec).to_fraction())
            defects[prec] = abs(value - 1)
        assert defects[256] > 0
        assert defects[128] / defects[256] >= Fraction(2) ** 64


class TestGammaExpr:
    def test_canonical_text(self):
        e = GammaExpr(8, num=(Fraction(1, 2),), den=(Fraction(1, 4), Fraction(1, 4)))
        assert e.text() == "8 * G(1/2) / (G(1/4)^2)"
        e2 = GammaExpr(1, num=(Fraction(1, 2),), den=(Fraction(3, 4), Fraction(3, 4)))
        assert e2.text() == "G(1/2) / (G(3/4)^2)"
        assert GammaExpr(1).text() == "1"
        assert GammaExpr(Fraction(3, 4)).text() == "3/4"

    def test_unit_arguments_normalize_away(self):
        e = GammaExpr(1, num=(Fraction(1, 2), Fraction(1)), den=(Fraction(3, 4),) * 2)
        assert e.num == (Fraction(1, 2),)

    def test_cancellation_normalization(self):
        e = GammaExpr(2, num=(Fraction(1, 3), Fraction(1, 2)), den=(Fraction(1, 3),))
        assert e.num == (Fraction(1, 2),)
        assert e.den == ()

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(PoleError):
            GammaExpr(1, num=(Fraction(0),))
        with pytest.raises(PoleError):
            GammaExpr(1, den=(Fraction(-1, 2),))

    def test_json_round_trip(self):
        e = GammaExpr(Fraction(16), num=(Fraction(1, 4),), den=(Fraction(1, 8), Fraction(1, 8)))
        d = e.to_json_dict()
        assert d == {"prefactor": "16", "num": ["1/4"], "den": ["1/8", "1/8"]}
        assert GammaExpr.from_json_dict(d) == e

    def test_eval_empty_is_one(self):
        v = eval_gamma_expr(GammaExpr(1), 128)
        assert v.to_fraction() == 1

    def test_eval_examples(self, mp_prec):
        with mp_prec(128):
            e = GammaExpr(8, num=(Fraction(1, 2),), den=(Fraction(1, 4), Fraction(1, 4)))
            want = 8 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(1) / 4) ** 2
            assert_close(eval_gamma_expr(e, 128), want, contract(128))
            wallis = GammaExpr(1, num=(Fraction(1, 2), Fraction(3, 2)))
            assert_close(eval_gamma_expr(wallis, 128), mpmath.pi / 2, contract(128))

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_eval_repeated_arguments_equal_unrolled_sum(self, prec):
        """One log-Gamma per distinct argument, times its multiplicity, is the one-by-one sum."""
        F = prec + GUARD_BITS
        exprs = [
            GammaExpr(3, num=(Fraction(1, 3),) * 3 + (Fraction(5, 4),),
                      den=(Fraction(1, 4),) * 2 + (Fraction(7, 8),)),
            closed_form_baseB(ProductSpec(2, Word.parse("0", 2), (1, 1), (0, 2))),  # den (5/4, 5/4)
        ]
        for expr in exprs:
            ln = (sum(helpers.loggamma_fixed_oracle(x, F) for x in expr.num)
                  - sum(helpers.loggamma_fixed_oracle(x, F) for x in expr.den))
            exact = BigReal.exp_of_fixed(ln, F, prec).to_fraction() * expr.prefactor
            want = BigReal.from_fraction(exact, prec)
            got = eval_gamma_expr(expr, prec)
            assert (got.man, got.exp) == (want.man, want.exp), expr

    def test_eval_closed_form_1024_bits(self, mp_prec):
        """The closed form of base 3, word 12 (G(5/9) G(17/27) / G(16/27)^2) at 1024 bits."""
        spec = ProductSpec(3, Word.parse("12", 3), (1, 1), (0, 2))
        expr = closed_form_baseB(spec)
        with mp_prec(1024):
            want = mpmath.mpf(1)
            for arg in expr.num:
                want *= mpmath.gamma(mpmath.mpf(arg.numerator) / arg.denominator)
            for arg in expr.den:
                want /= mpmath.gamma(mpmath.mpf(arg.numerator) / arg.denominator)
            assert_close(eval_gamma_expr(expr, 1024), want, contract(1024))


def expr_log_mpmath(expr: GammaExpr) -> mpmath.mpf:
    """``sum lgG(num) - sum lgG(den)`` of ``expr`` in the current mpmath precision."""
    return (mpmath.fsum(mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator) for x in expr.num)
            - mpmath.fsum(mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator) for x in expr.den))


class TestBalancedClosedForms:
    """A balanced closed form is one shifted balanced series and one log; any other form
    keeps one log-Gamma per distinct argument."""

    # corpus forms of the canonical base-B spec (base 4 word 00 drops its Gamma(1)), the
    # non-integer base-3 spec, and the base-2 word-1 form G(1/2)/G(3/4)^2, which needs padding
    FORMS = [
        closed_form_baseB(ProductSpec(2, Word.parse("110", 2), (1, 1), (0, 2))),
        closed_form_baseB(ProductSpec(2, Word.parse("01101", 2), (1, 1), (0, 2))),
        closed_form_baseB(ProductSpec(3, Word.parse("12", 3), (1, 1), (0, 2))),
        closed_form_baseB(ProductSpec(4, Word.parse("00", 4), (1, 1), (0, 2))),
        closed_form_baseB(ProductSpec(3, Word.parse("12", 3), (Fraction(1, 2), Fraction(3, 2)),
                                      (Fraction(1, 3), Fraction(5, 3)))),
        closed_form_base2(Word.parse("1", 2)),
    ]

    @pytest.mark.parametrize("F", [160, 288, 1056, 2080])
    def test_logs_against_mpmath(self, F):
        """Each balanced form within one unit of ``2**-F``; so is the companion (0.90 units at
        ``F = 160``), which is not balanced and keeps its single log-Gammas."""
        for expr in self.FORMS + [companion_closed_form()]:
            with mpmath.workprec(F + 64):
                assert abs(_gamma_expr_log(expr, F) - mpmath.ldexp(expr_log_mpmath(expr), F)) <= 1, expr

    def test_padded_form_takes_the_balanced_path(self, monkeypatch):
        expr = closed_form_base2(Word.parse("1", 2))
        assert (expr.num, expr.den) == ((Fraction(1, 2),), (Fraction(3, 4),) * 2)
        want = _balanced_lgamma((2, 4), (3, 3), 4, 0, 160)

        def unbalanced(num, den, F):
            raise AssertionError("a balanced form reached the single log-Gammas")

        monkeypatch.setattr(gammafn, "_loggamma_sum", unbalanced)
        assert _gamma_expr_log(expr, 160) == want

    @pytest.mark.parametrize("F", [160, 1056])
    def test_unbalanced_forms_equal_single_log_gammas(self, F):
        exprs = [
            companion_closed_form(),  # 8 G(3/4)^2 / G(1/4)^2: sums 3/2 and 1/2
            closed_form_base2(Word.parse("00", 2)),
            GammaExpr(3, num=(Fraction(1, 3),) * 3 + (Fraction(5, 4),),
                      den=(Fraction(1, 4),) * 2 + (Fraction(7, 8),)),
        ]
        for expr in exprs:
            want = (sum(helpers.loggamma_fixed_oracle(x, F) for x in expr.num)
                    - sum(helpers.loggamma_fixed_oracle(x, F) for x in expr.den))
            assert _gamma_expr_log(expr, F) == want, expr

    def test_translates_share_one_series(self):
        """Base 3 words 11 and 12 give G(12/27) G(14/27) / G(13/27)^2 and the same shapes
        moved by 3/27: one series serves both."""
        gammafn._series.cache_clear()
        for w in ("11", "12"):
            _gamma_expr_log(closed_form_baseB(ProductSpec(3, Word.parse(w, 3), (1, 1), (0, 2))), 160)
        info = gammafn._series.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_wide_spread_takes_single_log_gammas(self, monkeypatch):
        """Base 2 word 1 with ``a = (1000, 1)``, ``b = (1001, 0)`` is balanced, but its
        arguments spread over 250, which would raise the balanced series' threshold and term
        bound with the spread: it takes the single log-Gammas, within one unit at 2048 bits."""
        expr = closed_form_baseB(ProductSpec(2, Word.parse("1", 2), (1000, 1), (1001, 0)))

        def refuse(*args):
            raise AssertionError("a wide spread reached the balanced series")

        monkeypatch.setattr(gammafn, "_balanced_lgamma", refuse)
        F = 2048 + GUARD_BITS
        with mpmath.workprec(F + 64):
            assert abs(_gamma_expr_log(expr, F) - mpmath.ldexp(expr_log_mpmath(expr), F)) <= 1

    @pytest.mark.parametrize("F", [160, 1056, 2080])
    def test_one_log_per_balanced_form(self, F, monkeypatch):
        """Counted, not timed: a single-log-Gamma evaluation of these forms takes four to seven."""
        calls = []

        def counting_log(a, E):
            calls[-1] += 1
            return fixedpoint.fx_log(a, E)

        monkeypatch.setattr(gammafn, "fx_log", counting_log)
        for expr in self.FORMS:
            calls.append(0)
            _gamma_expr_log(expr, F)
        assert max(calls) <= 1, calls


class TestRatioProduct:
    def test_wallis(self, mp_prec):
        """a=(1/2,3/2), b=(1,1): partial converges to 2/pi like C/N."""
        partial, closed = gamma_ratio_product(
            (Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1)), 10**5, 128
        )
        with mp_prec(128):
            want = 2 / mpmath.pi
            assert_close(closed, want, contract(128))
            assert abs(to_mpf(partial) - want) / want < mpmath.mpf("1e-4")

    def test_reciprocal_direction(self, mp_prec):
        partial, closed = gamma_ratio_product(
            (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2)), 10**5, 128
        )
        with mp_prec(128):
            want = mpmath.pi / 2
            assert abs(to_mpf(partial) - want) / want < mpmath.mpf("1e-4")
            assert_close(closed, want, contract(128))

    def test_identical_vectors_give_one(self):
        partial, closed = gamma_ratio_product((Fraction(1),), (Fraction(1),), 1000, 128)
        assert partial.to_fraction() == 1
        assert closed.to_fraction() == 1

    def test_balance_error(self):
        with pytest.raises(BalanceError):
            gamma_ratio_product((Fraction(1),), (Fraction(2),), 10, 128)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            gamma_ratio_product((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)), 10, 128)

    @pytest.mark.parametrize("a,b", [
        ((Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1))),
        ((Fraction(1, 3), Fraction(2), Fraction(7, 6)), (Fraction(1, 2), Fraction(1), Fraction(2))),
    ])
    @pytest.mark.parametrize("N", [0, 5, 3000])
    def test_partial_against_oracles(self, a, b, N, mp_prec):
        """``G(N+1) - G(0)`` against the per-term loop and against mpmath log-Gammas."""
        prec = 128
        F = prec + GUARD_BITS
        partial, _ = gamma_ratio_product(a, b, N, prec)
        per_term = helpers.logsum_ratio_product(a, b, 0, N, F)
        assert abs(partial.to_fraction() / BigReal.exp_of_fixed(per_term, F, prec).to_fraction() - 1) \
            <= Fraction(2) ** (8 - prec)
        with mp_prec(prec):
            want = mpmath.exp(mpmath.fsum(
                mpmath.loggamma(N + 1 + mpmath.mpf(x.numerator) / x.denominator)
                - mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator) for x in a
            ) - mpmath.fsum(
                mpmath.loggamma(N + 1 + mpmath.mpf(x.numerator) / x.denominator)
                - mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator) for x in b
            ))
            assert_close(partial, want, contract(prec))

    def test_wide_spread_takes_single_log_gammas(self, monkeypatch):
        """Parameters spread over 10^5 would raise the balanced series' threshold and term bound
        with the spread: ``G(0)`` and ``G(N+1)`` take single log-Gammas, and both values meet the
        contract against mpmath."""
        a, b, N, prec = (Fraction(10**5), Fraction(2)), (Fraction(10**5 + 1), Fraction(1)), 10, 128

        def refuse(*args):
            raise AssertionError("a wide spread reached the balanced series")

        monkeypatch.setattr(gammafn, "_balanced_lgamma", refuse)
        partial, closed = gamma_ratio_product(a, b, N, prec)
        with mpmath.workprec(prec + 64):
            n = mpmath.mpf
            assert_close(partial, mpmath.fprod((k + 10**5) * (k + 2) / (n(k + 10**5 + 1) * (k + 1))
                                               for k in range(N + 1)), contract(prec))
            want = mpmath.fprod(mpmath.gamma(x) for x in b) / mpmath.fprod(mpmath.gamma(x) for x in a)
            assert_close(closed, want, contract(prec))

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_partial_and_closed_share_g0(self, prec):
        """``closed`` is ``exp(-G(0))`` of the ``G(0)`` in the partial's log; both meet the
        contract against mpmath."""
        F = prec + GUARD_BITS
        N = 1000
        for a, b in (((Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 3), Fraction(5, 3))),
                     ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2)))):
            partial, closed = gamma_ratio_product(a, b, N, prec)
            D = math.lcm(*(x.denominator for x in a + b))
            g0 = _balanced_lgamma(tuple(int(x * D) for x in a), tuple(int(x * D) for x in b), D, 0, F)
            want = BigReal.exp_of_fixed(-g0, F, prec)
            assert (closed.man, closed.exp) == (want.man, want.exp)
            with mpmath.workprec(prec + 64):
                lg = mpmath.loggamma
                args = [(mpmath.mpf(x.numerator) / x.denominator, c) for xs, c in ((a, 1), (b, -1)) for x in xs]
                assert_close(partial, mpmath.exp(mpmath.fsum(c * (lg(N + 1 + x) - lg(x)) for x, c in args)),
                             contract(prec))
                assert_close(closed, mpmath.exp(-mpmath.fsum(c * lg(x) for x, c in args)), contract(prec))

    def test_convergence_slope(self, mp_prec):
        """The relative gap between partial and closed shrinks like C/N."""
        a = (Fraction(1, 2), Fraction(3, 2))
        b = (Fraction(1), Fraction(1))
        gaps = {}
        for N in (10**3, 10**4, 10**5):
            partial, closed = gamma_ratio_product(a, b, N, 128)
            gaps[N] = abs(partial.to_fraction() / closed.to_fraction() - 1)
        assert Fraction(4) <= gaps[10**3] / gaps[10**4] <= Fraction(25)
        assert Fraction(4) <= gaps[10**4] / gaps[10**5] <= Fraction(25)


def per_modulus_series(A, T, W, F):
    """``gammafn._series`` with every ``C(n, j) B_j p_(n-j)`` from ``math.comb``, in a Horner sum in ``W`` over every ``j``."""
    big = -(-max(A + T) // W)
    if big <= 1:
        big = 0
    cuts = _series_cuts(F, len(A), big)
    K = len(cuts)
    bern = _bernoulli(K + 1)
    lam = math.lcm(*(b.denominator for b in bern))
    bern_int = [b.numerator * (lam // b.denominator) for b in bern]
    p = [sum(a**m for a in A) - sum(t**m for t in T) for m in range(K + 2)]
    coeffs = []
    for k in range(1, K + 1):
        n = k + 1
        y = 0
        for j in range(n - 2, -1, -1):
            y *= W
            if j < 2 or not j & 1:
                y += math.comb(n, j) * bern_int[j] * p[n - j]
        if k & 1 == 0:
            y = -y
        coeffs.append((y << (F + _SERIES_GUARD)) // (k * n * lam * W**n))
    return tuple(coeffs), cuts


class TestBalancedSeries:
    """The exact-coefficient Stirling series of balanced log-Gamma sums at its threshold."""

    # (A, T, W): canonical base-2 blocks and classes, the non-integer base-3
    # spec, three shifts per side, and shifts above 1
    SHIFTS = [
        ((1, 1), (0, 2), 2),
        ((1, 1), (0, 2), 2 * 27),
        ((3, 9), (2, 10), 18 * 9),
        ((1, 1, 1), (0, 0, 3), 3 * 7),
        ((80, 2), (0, 82), 2),
    ]

    @pytest.mark.parametrize("prec", [128, 1024, 2048])
    def test_series_at_threshold_matches_log_gamma(self, prec):
        """At ``u/W = X0``, the worst case of the series, it agrees with single log-Gammas."""
        F = prec + GUARD_BITS
        shifts = self.SHIFTS if prec < 2048 else self.SHIFTS[1:3]
        for A, T, W in shifts:
            X0 = _balanced_threshold(A, T, W, F)
            for u in (X0 * W, X0 * W + 1):
                single = (sum(_loggamma_fixed(Fraction(u + x, W), F) for x in A)
                          - sum(_loggamma_fixed(Fraction(u + x, W), F) for x in T))
                assert abs(_balanced_lgamma(A, T, W, u, F) - single) <= 16, (A, T, W, u)

    @pytest.mark.parametrize("F", [160, 1056])
    def test_fallback_against_mpmath(self, F):
        """Below the threshold, the series at ``u + M W`` less one log of the exact shift-product
        ratio is within one unit of ``2**-F`` of the exact sum."""
        shifts = self.SHIFTS if F < 1056 else self.SHIFTS[:2]
        for A, T, W in shifts:
            X0 = _balanced_threshold(A, T, W, F)
            for u in (1, W, X0 * W - 1):
                with mpmath.workprec(F + 64):
                    want = mpmath.fsum(mpmath.loggamma(mpmath.mpf(u + x) / W) for x in A) \
                        - mpmath.fsum(mpmath.loggamma(mpmath.mpf(u + x) / W) for x in T)
                    assert abs(_balanced_lgamma(A, T, W, u, F) - mpmath.ldexp(want, F)) <= 1, (A, T, W, u)

    def test_series_against_mpmath(self, mp_prec):
        F = 160
        A, T, W = (3, 9), (2, 10), 18
        X0 = _balanced_threshold(A, T, W, F)
        with mp_prec(F):
            for u in (X0 * W, 10**6 + 7, 10**15 + 3):
                want = mpmath.fsum(mpmath.loggamma(mpmath.mpf(u + x) / W) for x in A) \
                    - mpmath.fsum(mpmath.loggamma(mpmath.mpf(u + x) / W) for x in T)
                assert abs(_balanced_lgamma(A, T, W, u, F) - want * 2**F) <= 2

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_coefficients_equal_per_modulus_build(self, prec):
        """The coefficients, summed in ``W^2`` over the even ``j`` from a running Pascal row,
        are the integers of a plain build over every ``j``."""
        F = prec + GUARD_BITS
        for A, T, W in self.SHIFTS + [((1, 1), (0, 2), 2 * 2**j) for j in range(1, 12, 5)]:
            assert _series(A, T, W, F) == per_modulus_series(A, T, W, F), (A, T, W)

    def test_equal_shifts_give_zero(self):
        assert _balanced_lgamma((1, 2), (2, 1), 3, 10**6, 160) == 0
        assert _balanced_lgamma((1, 2), (2, 1), 3, 5, 160) == 0


# (A, T, W) of the term-cut tests: a canonical base-2 block, the non-integer
# base-3 spec, three shifts per side, and shifts above 1
CUT_SHIFTS = [((1, 1), (0, 2), 2), ((3, 9), (2, 10), 18), ((1, 1, 1), (0, 0, 3), 21), ((80, 2), (0, 82), 2)]


def full_terms(cuts, z):
    """A stand-in for ``gammafn._terms_at`` that keeps every term."""
    return len(cuts)


@pytest.mark.parametrize("F", [160, 1056, 2080])
class TestTermCuts:
    """Each series keeps the fewest terms its argument needs: ``n`` terms at ``z >= z_n``."""

    @staticmethod
    def stirling_passes(F, n, z):
        """The first omitted term after ``n`` terms of Stirling's series, at ``z``, is below ``2**-(F + 18)``."""
        b = _bernoulli(2 * n + 2)[2 * n + 2]
        m = 2 * n + 2
        return abs(b.numerator) << (F + 18) < b.denominator * m * (m - 1) * z ** (m - 1)

    @staticmethod
    def balanced_passes(F, d, big, n, z):
        """The bound of ``_series_cuts`` on the term after ``n`` terms, at ``z``, is below ``2**-(F + 20)``."""
        k = n + 1
        return (8 * d * math.factorial(k - 1) << (F + 20)) < 6 ** (k + 1) * z**k \
            and (2 * d * big ** (k + 1) << (F + 20)) < k * z**k

    def test_stirling_cuts(self, F):
        """The cuts do not increase with ``n``, ``z_K = X0``, and each is the least power of two
        at which the omitted-term bound holds."""
        X0 = _series_threshold(F)
        _, coeffs, cuts = _stirling_series(F)
        assert len(cuts) == len(coeffs) and cuts[-1] == X0
        assert all(a >= b for a, b in zip(cuts, cuts[1:]))
        for n, z in enumerate(cuts[:-1], 1):
            assert z & (z - 1) == 0 and z > X0
            assert self.stirling_passes(F, n, z) and not self.stirling_passes(F, n, z // 2), n

    def test_balanced_cuts(self, F):
        for A, T, W in CUT_SHIFTS:
            coeffs, cuts = _series(A, T, W, F)
            big = -(-max(A + T) // W)
            big = big if big > 1 else 0
            X0 = max(F // 2, 4 * big)
            assert len(cuts) == len(coeffs) and cuts[-1] == X0
            assert all(a >= b for a, b in zip(cuts, cuts[1:]))
            assert self.balanced_passes(F, len(A), big, len(cuts), X0)
            for n, z in enumerate(cuts[:-1], 1):
                assert z & (z - 1) == 0 and z > X0
                assert self.balanced_passes(F, len(A), big, n, z), (A, n)
                assert not self.balanced_passes(F, len(A), big, n, z // 2), (A, n)

    def test_terms_at_reads_the_cuts(self, F):
        cuts = _stirling_series(F)[2]
        K = len(cuts)
        assert _terms_at(cuts, cuts[-1]) == K
        for n, z in enumerate(cuts, 1):
            assert _terms_at(cuts, z) <= n
            assert _terms_at(cuts, z - 1) > n or n == K or cuts[n] == z
        assert _terms_at(cuts, cuts[0] * 8) == 1

    def test_truncated_log_gamma_within_one_unit(self, F, monkeypatch):
        """At every cut and one below it, ``_loggamma_fixed`` is within one unit of its
        scale of the same evaluation with all ``K`` terms."""
        X0 = _series_threshold(F)
        zs = sorted({z - i for z in _stirling_series(F)[2] for i in (0, 1)} - {X0 - 1})
        xs = [Fraction(z) for z in zs] + [Fraction(3 * z + 1, 3) for z in zs[:: max(1, len(zs) // 8)]]
        got = [_loggamma_fixed(x, F) for x in xs]
        monkeypatch.setattr(gammafn, "_terms_at", full_terms)
        for x, g in zip(xs, got):
            assert abs(g - _loggamma_fixed(x, F)) <= 1, x

    def test_truncated_balanced_series_within_one_unit(self, F, monkeypatch):
        """At every cut and one below it, ``_balanced_series`` (unrounded, scale ``F + 16``) is
        within one unit of the same sum over all ``K`` terms."""
        points = []
        for A, T, W in CUT_SHIFTS if F < 2080 else CUT_SHIFTS[:2]:
            X0, cuts = _balanced_threshold(A, T, W, F), _series(A, T, W, F)[1]
            points += [(A, T, W, (z - i) * W) for z in cuts for i in (0, 1) if z - i >= X0]
        got = [_balanced_series(*pt, F) for pt in points]
        monkeypatch.setattr(gammafn, "_terms_at", full_terms)
        for pt, g in zip(points, got):
            assert abs(g - _balanced_series(*pt, F)) <= 1, pt

    def test_balanced_series_against_mpmath(self, F):
        """Within two units of ``2**-(F + 16)`` of the exact sum at ``u/W`` far above ``X0``."""
        for A, T, W in CUT_SHIFTS[:3]:
            for z in (10**6, 10**15, 2**200):
                u = z * W + 1
                with mpmath.workprec(F + 2 * z.bit_length() + 64):
                    want = mpmath.fsum(mpmath.loggamma(mpmath.mpf(u + x) / W) for x in A) \
                        - mpmath.fsum(mpmath.loggamma(mpmath.mpf(u + x) / W) for x in T)
                    assert abs(_balanced_series(A, T, W, u, F) - mpmath.ldexp(want, F + _SERIES_GUARD)) <= 2, (A, z)

    def test_log_gamma_at_huge_arguments(self, F):
        for x in (10**30 + Fraction(1, 3), 2**1000 + Fraction(1, 3)):
            with mpmath.workprec(F + 64 + 2 * int(x).bit_length()):
                want = mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator)
                assert abs(_loggamma_fixed(x, F) - mpmath.ldexp(want, F)) <= 1, x


def test_plan_and_evaluators_share_the_count(monkeypatch):
    """``word_edge_plan`` prices each series edge, and the series and integral of each run,
    by the count the evaluators keep: all call the one ``gammafn._terms_at``."""
    assert identities._terms_at is gammafn._terms_at
    callers = set()

    def spy(cuts, z):
        callers.add(sys._getframe(1).f_code.co_name)
        return _terms_at(cuts, z)

    monkeypatch.setattr(gammafn, "_terms_at", spy)
    monkeypatch.setattr(identities, "_terms_at", spy)
    logsum_word(ProductSpec.canonical_base2(Word.parse("1", 2)), 10**4, 160)
    _loggamma_fixed(10**6 + Fraction(1, 3), 160)
    assert callers == {"cost", "word_edge_plan", "_balanced_series", "integral_part", "_loggamma_fixed"}


def test_log_gamma_sizes_share_a_ladder():
    """``bitlen(z) + 4`` rounds up to a multiple of 16: ``z`` of 20 and 28 bits share one
    ``fx_log`` ladder, and ``z`` of 29 bits takes the next."""
    F = 160
    _stirling_series(F)
    fixedpoint._ladder.cache_clear()
    _loggamma_fixed(10**6 + Fraction(1, 3), F)
    _loggamma_fixed(2**27 + Fraction(1, 3), F)
    assert fixedpoint._ladder.cache_info().currsize == 1
    _loggamma_fixed(2**28 + Fraction(1, 3), F)
    assert fixedpoint._ladder.cache_info().currsize == 2
