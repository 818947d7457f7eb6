"""Truncated evaluation, tail bounds, verification reports, and the word sweep."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import helpers
import mpmath
import pytest
from helpers import to_mpf

from blockprod import identities, products
from blockprod.bigreal import GUARD_BITS, BigReal
from blockprod.fixedpoint import rshift_round
from blockprod.gammafn import (
    _SERIES_GUARD,
    _balanced_series,
    _balanced_threshold,
    _largest_shift,
    _log_ratio,
    _run_bounds,
    _run_counts,
    _series,
    eval_gamma_expr,
)
from blockprod.identities import (
    ProductSpec,
    _run_sum,
    _series_shifts,
    _word_plan,
    closed_form_baseB,
    logsum_word,
)
from blockprod.products import (
    NAMED_FORMULAS,
    TAIL_FACTOR,
    default_corpus,
    enumerate_words,
    eval_lhs_partial,
    tail_estimate,
    verify,
)
from blockprod.words import Word, all_words, block_counts, count_block


def mp_product(spec: ProductSpec, N: int):
    """Independent truncated-product oracle: direct mpmath multiplication."""
    total = mpmath.mpf(1)
    for n in range(1, N + 1):
        c = count_block(spec.word, n)
        if c:
            fr = spec.factor(n)
            total *= mpmath.mpf(fr.numerator) ** c / mpmath.mpf(fr.denominator) ** c
    return total


def mp_logsum(spec: ProductSpec, N: int):
    """Independent log-sum oracle: ``sum N_w(n) log1p(term_n - 1)`` in the current mpmath context."""
    terms = []
    for n in range(1, N + 1):
        c = count_block(spec.word, n)
        if c:
            fr = spec.factor(n)
            terms.append(c * mpmath.log1p(mpmath.mpf(fr.numerator - fr.denominator) / fr.denominator))
    return mpmath.fsum(terms)


def make_spec(base, text, a=("1", "1"), b=("0", "2")) -> ProductSpec:
    return ProductSpec(base, Word.parse(text, base), tuple(map(Fraction, a)), tuple(map(Fraction, b)))


def direct_logsum(spec: ProductSpec, lo: int, hi: int, F: int) -> int:
    """The direct per-term sum over ``[lo, hi]``."""
    return helpers.logsum_word_product(spec, block_counts(spec.word, lo, hi), lo, hi, F)


class TestEvalLhsPartial:
    def test_single_factor(self):
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        got = eval_lhs_partial(spec, 1, 128).to_fraction()
        want = Fraction(36, 35) ** 2
        assert abs(got - want) <= want * Fraction(1, 2**110)

    def test_equal_vectors_give_one(self):
        spec = ProductSpec(3, Word.parse("1", 3), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
        assert eval_lhs_partial(spec, 500, 128).to_fraction() == 1

    def test_matches_direct_product_oracle(self):
        """At N = 300 the partial product meets ``2^(8-p)`` against direct mpmath multiplication."""
        with mpmath.workprec(300):
            for base, text, a, b in (
                (2, "1", ("1", "1"), ("0", "2")),
                (2, "01", ("1", "1"), ("0", "2")),
                (3, "0", ("1", "1"), ("0", "2")),
                (3, "12", ("1", "1"), ("0", "2")),
                (10, "7", ("1", "1"), ("0", "2")),
                (3, "12", ("1/2", "3/2"), ("1/3", "5/3")),
            ):
                spec = make_spec(base, text, a, b)
                got = to_mpf(eval_lhs_partial(spec, 300, 128))
                want = mp_product(spec, 300)
                assert abs(got - want) / want < mpmath.mpf(2) ** (8 - 128)

    def test_word_one_converges(self, mp_prec):
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        with mp_prec(128):
            want = mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(3) / 4) ** 2
            got = to_mpf(eval_lhs_partial(spec, 10**5, 128))
            assert abs(got - want) / want < mpmath.mpf("1e-3")

    def test_rejects_bad_terms(self):
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        with pytest.raises(ValueError):
            eval_lhs_partial(spec, 0, 128)


class TestTailEstimate:
    def test_functional_form_halving(self):
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        t1 = tail_estimate(spec, 10**4).to_fraction()
        t2 = tail_estimate(spec, 2 * 10**4).to_fraction()
        assert t2 < t1
        assert t1 / t2 < 3  # halves up to the log factor

    def test_monotone_decreasing(self):
        spec = ProductSpec.canonical_base2(Word.parse("0", 2))
        values = [tail_estimate(spec, N).to_fraction() for N in (10**2, 10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rivoal_tail_at_1e6(self):
        """The digit-count tail at N=1e6 is below 1e-5 (integral oracle)."""
        from blockprod.products import _tail_fraction_bitlen_form

        assert _tail_fraction_bitlen_form(10**6) <= Fraction(1, 10**5)

    def test_bounds_actual_gap_across_corpus(self, mp_prec):
        """tail_estimate is a true upper bound and within 10x of the actual gap."""
        words = [Word.parse(t, 2) for t in ("0", "1", "00", "01", "11", "101", "0011")]
        words += [Word.parse(t, 3) for t in ("0", "2", "12")]
        words += [Word.parse(t, 4) for t in ("0", "3", "10")]
        with mp_prec(160):
            for word in words:
                spec = (
                    ProductSpec.canonical_base2(word)
                    if word.base == 2
                    else ProductSpec(word.base, word, (Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))
                )
                N = 10**4
                lhs = to_mpf(eval_lhs_partial(spec, N, 160))
                rhs = to_mpf(eval_gamma_expr(closed_form_baseB(spec), 160))
                actual_log_gap = abs(mpmath.log(lhs / rhs))
                bound = to_mpf(tail_estimate(spec, N))
                assert actual_log_gap <= 10 * bound, word.render()
                assert actual_log_gap <= bound, word.render()  # bound is rigorous
                if word.base == 2 and len(word.digits) <= 2:
                    # the digit-count exponent bound is near-sharp only when the
                    # word is short and the alphabet small
                    assert bound <= 10 * actual_log_gap, word.render()

    def test_rounded_to_nearest_and_verdict_reads_the_exact_bound(self):
        """The reported tail is the exact bound rounded to nearest, so it can sit below it;
        the verdict compares the relative gap with the exact rational bound."""
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        for N in (10**3, 10**4):
            exact = products._tail_fraction(spec, N)
            assert tail_estimate(spec, N) == BigReal.from_fraction(exact, 64)
            assert tail_estimate(spec, N).to_fraction() < exact
        rivoal = verify("rivoal_eq1", 10**3).tail_estimate
        assert rivoal.to_fraction() < products._tail_fraction_bitlen_form(10**3)
        cases = [(spec, N, products._tail_fraction(spec, N)) for N in (10**3, 10**4)]
        cases += [(name, N, products._tail_fraction_bitlen_form(N))
                  for name in NAMED_FORMULAS for N in (10**3, 10**4)]
        for target, N, exact in cases:
            for tol in (Fraction(1, 10**40), Fraction(1, 1000)):
                r = verify(target, N, tolerance=tol)
                assert r.passed == (r.rel_gap.to_fraction() <= max(tol, TAIL_FACTOR * exact))

    def test_requires_enough_terms(self):
        spec = ProductSpec(2, Word.parse("1", 2), (Fraction(40), Fraction(1)), (Fraction(0), Fraction(41)))
        with pytest.raises(ValueError):
            tail_estimate(spec, 2)


class TestVerify:
    def test_rivoal_eq1(self):
        report = verify("rivoal_eq1", N=10**5, precision_bits=128, tolerance=Fraction(1, 1000))
        assert report.passed
        assert report.rel_gap.to_fraction() <= Fraction(1, 1000)
        with mpmath.workprec(192):
            assert abs(to_mpf(report.rhs_closed) - 4 / mpmath.pi) < mpmath.mpf(2) ** -120

    def test_companion_eq2(self):
        report = verify("companion_eq2", N=10**5, precision_bits=128, tolerance=Fraction(1, 1000))
        assert report.passed
        with mpmath.workprec(192):
            want = 16 * mpmath.pi**2 / mpmath.gamma(mpmath.mpf(1) / 4) ** 4
            assert abs(to_mpf(report.rhs_closed) - want) / want < mpmath.mpf(2) ** -120

    def test_word_spec(self):
        spec = ProductSpec.canonical_base2(Word.parse("0", 2))
        report = verify(spec, N=10**4, precision_bits=128, tolerance=Fraction(1, 1000))
        assert report.passed
        assert report.terms_used == 10**4
        assert report.abs_gap.to_fraction() >= 0

    def test_truncation_never_fails_verdict(self):
        """The tail allowance keeps honest truncation from producing 'fail'."""
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        report = verify(spec, N=50, precision_bits=128, tolerance=Fraction(1, 10**9))
        assert report.passed  # rel_gap exceeds tolerance but not 2*tail

    def test_fail_verdict_not_exception(self, monkeypatch):
        """With the tail allowance off, an unmet tolerance reports fail."""
        import blockprod.products as products_mod

        monkeypatch.setattr(products_mod, "TAIL_FACTOR", 0)
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        report = verify(spec, N=50, precision_bits=128, tolerance=Fraction(1, 10**9))
        assert not report.passed
        assert report.verdict == "fail"

    def test_monotone_gap(self):
        spec = ProductSpec.canonical_base2(Word.parse("01", 2))
        gaps = [
            verify(spec, N=N, precision_bits=128).rel_gap.to_fraction()
            for N in (10**3, 10**4, 10**5)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_closed_form_consistency_w0_w1(self, mp_prec):
        """Product of the w=0 and w=1 closed forms equals 4/pi."""
        r0 = verify(ProductSpec.canonical_base2(Word.parse("0", 2)), N=10**3, precision_bits=192)
        r1 = verify(ProductSpec.canonical_base2(Word.parse("1", 2)), N=10**3, precision_bits=192)
        with mp_prec(192):
            prod = to_mpf(r0.rhs_closed) * to_mpf(r1.rhs_closed)
            assert abs(prod - 4 / mpmath.pi) * mpmath.pi / 4 < mpmath.mpf(2) ** -180

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            verify("nonsense", N=10)

    def test_small_n_refused_before_either_side(self, monkeypatch):
        """An ``N`` below what the tail bound needs is refused before the word sum or the
        closed form starts, so a wide parameter spread cannot stall the refusal."""
        import blockprod.products as products_mod

        def refuse(*args):
            raise AssertionError("a side was evaluated before the tail bound")

        monkeypatch.setattr(products_mod, "logsum_word", refuse)
        monkeypatch.setattr(products_mod, "eval_gamma_expr", refuse)
        spec = ProductSpec(2, Word.parse("1", 2), (10**6, 1), (10**6 + 1, 0))
        with pytest.raises(ValueError, match="tail bound needs N >= 1000001"):
            verify(spec, N=10, precision_bits=2048)
        with pytest.raises(ValueError, match="tail bound needs N >= 2"):
            verify("companion_eq2", N=1)

    def test_exponent_sum_identity(self):
        """Grouped exponent = 2*(N0+N1) = 2*bitlen, checked via digit counts."""
        w0, w1 = Word.parse("0", 2), Word.parse("1", 2)
        for k in list(range(1, 300)) + [2**10, 2**10 + 1, 10**5]:
            total = count_block(w0, k) + count_block(w1, k)
            assert 2 * total == 2 * k.bit_length()


class TestSplitting:
    def test_range_split_is_exact(self):
        """Ranges taken as ``S(hi) - S(lo - 1)`` add up exactly, with cuts at block and class
        edges and where a piece's first point on the series, ``m*``, comes or goes."""
        F = 128 + GUARD_BITS
        spec = ProductSpec.canonical_base2(Word.parse("011", 2))
        N = 5000
        # word value 3, length 3: level-j blocks start at (8t + 3) 2^j, e.g. 24
        # (j = 3), 48 (j = 4) and 1408 (j = 7); residue classes at 3 * 2^j + r
        mstar = helpers.mstar_cuts(spec, 1, N - 1, F, limit=3)
        assert len(mstar) == 3
        cuts = sorted({0, 23, 24, 47, 48, 1234, 1407, 1408, 3 * 2**10 - 1, 4000, N,
                       *mstar, *(c - 1 for c in mstar)})
        S = {c: logsum_word(spec, c, F) for c in cuts}
        parts = [S[hi] - S[lo] for lo, hi in zip(cuts, cuts[1:])]
        assert sum(parts) == S[N]
        for (lo, hi), part in zip(zip(cuts, cuts[1:]), parts):
            assert abs(part - direct_logsum(spec, lo + 1, hi, F)) <= 1 << (F + 8 - 128), (lo, hi)


class TestChunkedEvaluation:
    # (man, exp) of eval_lhs_partial(spec, 70000, 128) from the per-index
    # counting kernel that range counting replaced, whose block counts came
    # in chunks of 2**16 indices (N = 70000 straddles the first boundary).
    # The telescoped sum rounds to the same 128-bit values, so these pins
    # hold the rendered output fixed across every change of method.
    PINNED = [
        (2, "101", ("1", "1"), ("0", "2"), 172096108265096079877282546574125500697),
        (3, "12", ("1", "1"), ("0", "2"), 171010692051314929451791053426491242590),
        (3, "012", ("1", "1"), ("0", "2"), 170841404349786099353654764126514464346),
        (4, "00", ("1", "1"), ("0", "2"), 170207950649409326669216602032450447697),
        (3, "12", ("1/2", "3/2"), ("1/3", "5/3"), 170309828216921900382440098714549034341),
    ]

    @pytest.mark.parametrize("base,text,a,b,man", PINNED)
    def test_straddling_chunk_matches_pinned(self, base, text, a, b, man):
        value = eval_lhs_partial(make_spec(base, text, a, b), 70000, 128)
        assert (value.man, value.exp) == (man, -127)


# bases 2, 3, 4 and 10, and a non-integer balanced spec
ORACLE_SPECS = [
    (2, "101", ("1", "1"), ("0", "2")),
    (3, "12", ("1", "1"), ("0", "2")),
    (3, "012", ("1", "1"), ("0", "2")),
    (4, "00", ("1", "1"), ("0", "2")),
    (10, "7", ("1", "1"), ("0", "2")),
    (3, "12", ("1/2", "3/2"), ("1/3", "5/3")),
]


# the six specs the word log-sum's one-unit contract is held to: bases 2, 3,
# 4 and 10, the base-2 word 1 of the companion form, and a non-integer spec
ROUNDING_SPECS = [
    (2, "101", ("1", "1"), ("0", "2")),
    (3, "12", ("1", "1"), ("0", "2")),
    (10, "7", ("1", "1"), ("0", "2")),
    (2, "1", ("1", "1"), ("0", "2")),
    (4, "00", ("1", "1"), ("0", "2")),
    (3, "12", ("1/2", "3/2"), ("1/3", "5/3")),
]

# the word sums pinned bit for bit: bases 2, 3, 4 and 10 with a zero-leading
# and an all-zeros word, the non-integer spec, and shifts above 1 (big > 0)
GOLDEN_SPECS = [
    (2, "1", ("1", "1"), ("0", "2")),
    (3, "012", ("1", "1"), ("0", "2")),
    (4, "00", ("1", "1"), ("0", "2")),
    (10, "7", ("1", "1"), ("0", "2")),
    (3, "12", ("1/2", "3/2"), ("1/3", "5/3")),
    (2, "1", ("32", "1"), ("33", "0")),
]
GOLDEN_F = (160, 544, 1056)


def golden_ns(base: int) -> tuple[int, ...]:
    return 7, 2000, base**12 - 1, base**12, 10**30


class TestWordEngine:
    """The telescoped log-sum ``identities.logsum_word``: exact low products, series edges, one rounding."""

    PREC = 128
    F = PREC + GUARD_BITS

    @pytest.mark.parametrize("base,text,a,b", ORACLE_SPECS)
    def test_partial_against_mpmath(self, base, text, a, b, mp_prec):
        """At N = 10^4 the log-sum is within one unit of ``2^-F`` (measured: at most 0.42) and
        ``eval_lhs_partial`` meets ``2^(8-p)``."""
        spec = make_spec(base, text, a, b)
        N = 10**4
        with mp_prec(self.F + 32):
            want = mp_logsum(spec, N)
            got = logsum_word(spec, N, self.F)
            assert abs(got - want * 2**self.F) <= 1
            rel = abs(to_mpf(eval_lhs_partial(spec, N, self.PREC)) / mpmath.exp(want) - 1)
            assert rel <= mpmath.mpf(2) ** (8 - self.PREC)

    @pytest.mark.parametrize("base,text,a,b", [ORACLE_SPECS[i] for i in (0, 1, 5)])
    def test_engine_against_per_term_oracle(self, base, text, a, b):
        spec = make_spec(base, text, a, b)
        N = 10**5
        assert abs(logsum_word(spec, N, self.F) - direct_logsum(spec, 1, N, self.F)) \
            <= 1 << (self.F + 8 - self.PREC)

    @pytest.mark.parametrize("base,text,a,b", ROUNDING_SPECS)
    @pytest.mark.parametrize("prec", [128, 1024, 2048])
    def test_within_one_unit_of_mpmath(self, prec, base, text, a, b):
        """At N = 30, 100, 1000 and 3000 the log-sum is within one unit of ``2^-F`` of
        mpmath (measured: at most 0.50).  At 2048 bits the series threshold is about
        1044, so at N <= 100 the exact low products carry the whole sum."""
        spec = make_spec(base, text, a, b)
        F = prec + GUARD_BITS
        Ns = (30, 100, 1000, 3000)
        with mpmath.workprec(F + 32):
            acc, want = mpmath.mpf(0), {}
            for n in range(1, Ns[-1] + 1):
                c = count_block(spec.word, n)
                if c:
                    fr = spec.factor(n)
                    acc += c * mpmath.log1p(mpmath.mpf(fr.numerator - fr.denominator) / fr.denominator)
                if n in Ns:
                    want[n] = mpmath.ldexp(acc, F)
            for N in Ns:
                assert abs(logsum_word(spec, N, F) - want[N]) <= 1, N


class TestWordRuns:
    """Whole blocks of a level summed as one Euler-Maclaurin run, against the engine before runs."""

    PREC = 128
    F = PREC + GUARD_BITS

    @pytest.mark.parametrize("base,text,a,b", ORACLE_SPECS)
    @pytest.mark.parametrize("prec,N", [(128, 10**5), (128, 10**6), (128, 10**7), (256, 10**5)])
    def test_against_block_class_oracle(self, prec, N, base, text, a, b):
        """Within one unit of ``helpers.logsum_word_oracle``, the block and class engine
        (measured: equal at every point)."""
        spec = make_spec(base, text, a, b)
        F = prec + GUARD_BITS
        assert abs(logsum_word(spec, N, F) - helpers.logsum_word_oracle(spec, N, F)) <= 1

    @pytest.mark.parametrize("base,text,a,b", [ORACLE_SPECS[i] for i in (0, 4, 5)])
    @pytest.mark.parametrize("far", [1, 64])
    def test_run_against_its_blocks(self, base, text, a, b, far):
        """A run of 40 blocks starting at the least block index ``X1`` (``far = 1``) and at
        ``64 X1`` is within its bound, ``16 + m + 2|c_1|/P`` units of ``2^-E`` for ``m`` rows,
        of its blocks' series edges summed 24 bits deeper (measured: at most 1.8)."""
        spec = make_spec(base, text, a, b)
        A, T, DB = _series_shifts(spec)
        Fs = self.F + 16 - _SERIES_GUARD
        E, X = Fs + _SERIES_GUARD, 24
        X0, coeffs = _balanced_threshold(A, T, DB, Fs), _series(A, T, DB, Fs)[0]
        lx, ly = _run_bounds(Fs, len(A))[:2]
        B, QL, v = spec.base, spec.base ** len(spec.word.digits), helpers.word_value(spec.word)
        for j in (1, 4):
            h = B**j
            P = h * QL
            need = max(far * QL << lx, -(-max(X0, 1 << ly) // h))
            ya = (need + (v - need) % QL) * h
            yc = ya + 40 * P
            got = _run_sum(A, T, DB, Fs, P, ya, yc, h, lambda Q, m: _balanced_series(A, T, DB * Q, DB * m, Fs), {})
            deep = sum(_balanced_series(A, T, DB, DB * (y + h), Fs + X) - _balanced_series(A, T, DB, DB * y, Fs + X)
                       for y in range(ya, yc, P))
            m = len(_run_counts(Fs, len(A), 0, ya.bit_length() - 1, (ya // P).bit_length() - 1))
            bound = 16 + m + 2 * abs(coeffs[0]) // (P << E) + 1
            assert abs((got << X) - deep) <= bound << X, (j, far)

    def test_run_ends_keyed_by_modulus_and_rows(self):
        """Runs summed through one set of shared tables each equal the run summed alone when
        they meet at the same ends with another modulus ``P`` or another least point, so other
        kept rows: a run end's corrections are keyed by ``P`` and the rows as well as ``y``."""
        A, T, DB = _series_shifts(make_spec(2, "1"))
        Fs = self.F + 16 - _SERIES_GUARD
        lx = _run_bounds(Fs, len(A))[0]

        def G(Q, m):
            return _balanced_series(A, T, DB * Q, DB * m, Fs)

        yc, h, shared = 1 << 40, 2, {}
        runs = [(P, yc - n * P) for P, n in ((4, 40), (8, 20), (8, 40), (4, (yc >> 2) - (1 << lx)))]
        for P, ya in runs:
            alone = _run_sum(A, T, DB, Fs, P, ya, yc, h, G, {})
            assert _run_sum(A, T, DB, Fs, P, ya, yc, h, G, shared) == alone, (P, ya)
        assert len({key for key in shared if key[0] == "corrections"}) == 3

    @pytest.mark.parametrize("base,text", [(2, "1"), (10, "7")])
    def test_range_splits_at_run_cuts(self, base, text):
        """``S(hi) - S(lo - 1)`` splits exactly with cuts on both sides of each ``N`` at which a
        level switches between a run and pieces, and at which a run's first block starts at
        ``N + 1`` or its last block ends at ``B N + B - 1`` (``helpers.run_cuts``)."""
        spec = make_spec(base, text)
        F = self.F
        lo, hi = 1001, 9000
        switches, edges = helpers.run_cuts(spec, lo + 1, hi - 1, F, limit=2)
        assert len(switches) == len(edges) == 2
        cuts = sorted({*switches, *edges, *(N - 1 for N in switches + edges)})
        bounds = (lo - 1, *cuts, hi)
        S = {c: logsum_word(spec, c, F) for c in bounds}
        parts = [S[b] - S[a] for a, b in zip(bounds, bounds[1:])]
        assert sum(parts) == S[hi] - S[lo - 1]
        for (a, b), part in zip(zip(bounds, bounds[1:]), parts):
            assert abs(part - direct_logsum(spec, a + 1, b, F)) <= 1 << (F + 8 - self.PREC), (a, b)

    @pytest.mark.parametrize("base,text", [(10, "7"), (2, "1")])
    @pytest.mark.parametrize("N", [10**12, 10**12 + 7, 10**30, 7 * 10**29 + 77777])
    def test_last_term_at_sizes_only_runs_reach(self, base, text, N):
        """``S(N) - S(N - 1)`` is ``N_w(N) log(term_N)``, that log taken directly with ``_log_ratio``
        8 bits deeper, within 2 units (at ``10^30`` the term's log is below ``2^-190``)."""
        spec = make_spec(base, text)
        F = self.F
        fr = spec.factor(N)
        want = rshift_round(count_block(spec.word, N) * _log_ratio(fr.numerator, fr.denominator, F + 8), 8)
        assert abs(logsum_word(spec, N, F) - logsum_word(spec, N - 1, F) - want) <= 2

    @pytest.mark.parametrize("base,text", [(10, "7"), (2, "1")])
    def test_block_pieces_at_1e30(self, base, text):
        """The plan for ``N = 10^30``, counted but not summed, has at most ``(X1 + 2) J`` block
        pieces over its ``J`` levels (``c = 1``): a level takes whole blocks below ``X1``,
        one block index apart, and at most two blocks cut by the range's ends."""
        spec = make_spec(base, text)
        N = 10**30
        g, _, pieces = _word_plan(spec, N, self.F)
        Fs = self.F + g - _SERIES_GUARD
        X1 = 1 << _run_bounds(Fs, 2)[0]
        levels = (base * N + base - 1).bit_length()
        blocks = sum(1 for _, Q, _, _, _, h in pieces if Q == 1 and h == 1)
        assert sum(1 for piece in pieces if piece[5] > 1) > 0
        assert blocks <= (X1 + 2) * levels, (blocks, X1, levels)

    @pytest.mark.parametrize("base,text,a,b", ORACLE_SPECS)
    @pytest.mark.parametrize("N", [10**3, 10**6, 10**30])
    def test_guard_counts_every_rounded_value(self, monkeypatch, base, text, a, b, N):
        """The guard bits ``g`` come from a count of the values rounded at ``E = F + g``
        (counted by ``identities._word_plan``, ``2^g >= 4`` times it); the count is at least the
        series edges and chunk logs the sum takes, and each run's ``16 + m + d (1 + big^2)``
        with ``m`` the rows it keeps."""
        spec = make_spec(base, text, a, b)
        g, counted, _ = _word_plan(spec, N, self.F)
        seen = {"values": 0, "inner": False}  # inner: inside a run, or a log inside a log

        def edge(*args):
            seen["values"] += not seen["inner"]
            return _balanced_series(*args)

        def log_ratio(*args):
            seen["values"] += not seen["inner"]
            seen["inner"], was = True, seen["inner"]  # _log_ratio calls itself for p < q
            try:
                return log_ratio_plain(*args)
            finally:
                seen["inner"] = was

        def run_sum(A_, T_, DB_, Fs, P, ya, yc, h, G, shared):
            big = _largest_shift(A_, T_, DB_)
            counts = _run_counts(Fs, len(A_), big, ya.bit_length() - 1, (ya // P).bit_length() - 1)
            seen["values"] += 16 + len(counts) + len(A_) * (1 + big**2)
            seen["inner"] = True
            try:
                return run_sum_plain(A_, T_, DB_, Fs, P, ya, yc, h, G, shared)
            finally:
                seen["inner"] = False

        log_ratio_plain, run_sum_plain = identities._log_ratio, identities._run_sum
        monkeypatch.setattr(identities, "_balanced_series", edge)
        monkeypatch.setattr(identities, "_log_ratio", log_ratio)
        monkeypatch.setattr(identities, "_run_sum", run_sum)
        logsum_word(spec, N, self.F)
        assert seen["values"] <= counted and 4 * counted <= 1 << g

    @pytest.mark.parametrize("base,text,a,b", GOLDEN_SPECS)
    def test_mstar_is_first_point_at_threshold(self, base, text, a, b):
        """Each point piece's ``m*`` is the first of its points ``first, first + Q, ... < end``
        at or above the series threshold ``X0 Q`` of its modulus, or ``end`` if none is;
        each run's is its ``first``."""
        spec = make_spec(base, text, a, b)
        A, T, DB = _series_shifts(spec)
        for F, N in ((F, N) for F in GOLDEN_F for N in golden_ns(base)):
            g, _, pieces = _word_plan(spec, N, F)
            Fs = F + g - _SERIES_GUARD
            for _, Q, first, mstar, end, h in pieces:
                if h > 1:
                    assert mstar == first
                    continue
                lim = _balanced_threshold(A, T, DB * Q, Fs) * Q
                assert first <= mstar <= end and (mstar - first) % Q == 0, (F, N, Q, first)
                assert mstar == end or mstar >= lim, (F, N, Q, first)
                assert mstar == first or mstar - Q < lim, (F, N, Q, first)

    def test_golden_integers(self):
        """The word sums over ``GOLDEN_SPECS`` x ``GOLDEN_F`` x ``golden_ns``, whose plans hold
        runs, class and block pieces and guards of 16 and 24 bits, are the integers pinned by
        the sha256 of their decimal texts joined by commas."""
        sums = [logsum_word(make_spec(base, text, a, b), N, F)
                for base, text, a, b in GOLDEN_SPECS for F in GOLDEN_F for N in golden_ns(base)]
        digest = hashlib.sha256(",".join(map(str, sums)).encode()).hexdigest()
        assert digest == "5fecc83bb79ae1d0346dbb1bda4218171996178a5f953eac3d1dd3349839cc02"


def exact_report(r):
    """A report's numbers bit for bit, its verdict and its spec."""
    fields = (r.lhs_partial, r.rhs_closed, r.abs_gap, r.rel_gap, r.tail_estimate)
    return [(x.man, x.exp, x.prec) for x in fields] + [r.passed, r.spec]


class TestEnumerate:
    def test_base2_len1(self):
        reports = enumerate_words(2, 1, N=10**4, precision_bits=128)
        assert len(reports) == 2
        assert [r.spec.word.render() for r in reports] == ["0", "1"]
        assert all(r.passed for r in reports)

    def test_base2_len2_count(self):
        reports = enumerate_words(2, 2, N=10**3, precision_bits=128)
        assert len(reports) == 6

    def test_base3_defaults(self):
        reports = enumerate_words(3, 1, N=10**4, precision_bits=128)
        assert len(reports) == 3
        assert all(r.passed for r in reports)
        assert all(r.spec.a == (Fraction(1), Fraction(1)) for r in reports)
        assert all(r.spec.b == (Fraction(0), Fraction(2)) for r in reports)

    def test_corpus_guards(self):
        with pytest.raises(ValueError):
            enumerate_words(2, 9)
        with pytest.raises(ValueError):
            enumerate_words(10, 3)  # 1110 words

    @pytest.mark.parametrize("base,max_len,N,prec,a,b", [
        (2, 3, 10**4, 128, None, None),
        (2, 3, 10**7, 1024, None, None),
        (3, 2, 10**6, 1024, None, None),
        (3, 2, 10**5, 128, ("1/2", "3/2"), ("1/3", "5/3")),
    ])
    def test_reports_equal_per_word_verify(self, base, max_len, N, prec, a, b):
        """A corpus computes its shared series edges, run ends and tail bound once, and each
        report is still exactly the one ``verify`` gives for its word alone: lhs, rhs, gaps,
        tail and verdict, bit for bit.  Every corpus here sums Euler-Maclaurin runs."""
        reports = enumerate_words(base, max_len, N=N, precision_bits=prec, a=a, b=b)
        assert len(reports) == sum(base**ell for ell in range(1, max_len + 1))
        for r in reports:
            assert exact_report(r) == exact_report(verify(r.spec, N, prec)), r.spec.word

    def test_corpus_evaluates_each_edge_once(self, monkeypatch):
        """On the base-2 corpus of words up to length 3 at ``N = 10^4`` and 128 bits, the 14
        words summed one by one evaluate 2143 series edges, 591 of them distinct;
        ``enumerate_words`` evaluates each of the 591 once."""
        calls = Counter()
        plain = identities._balanced_series

        def counting(*args):
            calls[args] += 1
            return plain(*args)

        monkeypatch.setattr(identities, "_balanced_series", counting)
        for w in all_words(2, 3):
            logsum_word(ProductSpec.canonical_base2(w), 10**4, 128 + GUARD_BITS)
        assert (sum(calls.values()), len(calls)) == (2143, 591)
        alone = set(calls)
        calls.clear()
        enumerate_words(2, 3, N=10**4, precision_bits=128)
        assert set(calls) == alone and sum(calls.values()) == 591

    def test_shared_tables_key_all_they_depend_on(self):
        """Reports made through one set of shared tables across bases, parameters, words,
        ``N`` and precisions each equal ``verify``'s alone: a table's key holds all that its
        values depend on (shape, scale, modulus and rows), so no value leaks between them."""
        shared = {}
        cases = [(make_spec(base, text, *params), N, prec)
                 for prec in (128, 192)
                 for N in (10**4, 10**4 + 5, 10**6)
                 for params in ((), (("3", "0"), ("1", "2")), (("1/2", "3/2"), ("1/3", "5/3")))
                 for base, text in ((2, "1"), (2, "01"), (2, "101"), (3, "2"), (3, "12"))]
        for spec, N, prec in cases:
            got = products._verify(spec, N, prec, Fraction(1, 1000), shared)
            assert exact_report(got) == exact_report(verify(spec, N, prec)), (spec, N, prec)

    def test_default_corpus_shape(self):
        corpus = default_corpus()
        assert len(corpus) == 62 + 39 + 84
        assert all(not w.is_empty for w in corpus)


class TestVerifyReport:
    def test_json_schema_and_round_trip(self):
        spec = ProductSpec.canonical_base2(Word.parse("10", 2))
        report = verify(spec, N=10**3, precision_bits=128)
        obj = json.loads(json.dumps(report.to_json_dict()))
        assert set(obj) == {
            "spec", "terms_used", "precision_bits", "lhs", "rhs",
            "abs_gap", "rel_gap", "tail_estimate", "tolerance", "tail_factor", "verdict",
        }
        assert ProductSpec.from_json_dict(obj["spec"]) == spec
        assert obj["verdict"] in ("pass", "fail")
        float(obj["lhs"])  # decimal strings parse as numbers

    def test_csv_row(self):
        report = verify("rivoal_eq1", N=10**3, precision_bits=128)
        row = report.fields()
        assert list(row) == [
            "spec", "terms_used", "precision_bits", "lhs", "rhs",
            "abs_gap", "rel_gap", "tail_estimate", "verdict",
        ]
        assert row["spec"] == "rivoal_eq1"
        assert row["verdict"] in ("pass", "fail")
        obj = report.to_json_dict()
        assert [k for k in obj if k in row] == list(row)
        assert all(obj[k] == row[k] for k in row if k != "spec")

    def test_all_fields_same_precision(self):
        report = verify("rivoal_eq1", N=10**3, precision_bits=192)
        for field in (report.lhs_partial, report.rhs_closed, report.abs_gap,
                      report.rel_gap, report.tail_estimate):
            assert field.prec == 192
