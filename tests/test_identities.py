"""Summation identity (exact), closed-form builders, and the 4/pi product family."""

import collections
import hashlib
import json
import math
import random
from fractions import Fraction

import helpers
import mpmath
import pytest
from helpers import assert_close, to_mpf

from blockprod.bigreal import GUARD_BITS
from blockprod import gammafn, identities
from blockprod.gammafn import BalanceError, GammaExpr, eval_gamma_expr
from blockprod.identities import (
    _WORD_ONE,
    DEFAULT_PARAMS,
    FiniteSupportFn,
    ProductSpec,
    alternating_product_estimate,
    closed_form_base2,
    closed_form_baseB,
    companion_closed_form,
    companion_partial,
    grouping_identity_holds,
    lemma1_lhs,
    lemma1_residual,
    lemma1_rhs,
    logsum_alternating,
    logsum_companion,
    logsum_rivoal_grouped,
    logsum_rivoal_original,
    _logsum_word,
    logsum_word,
    rho,
    rivoal_grouped_factors,
    rivoal_grouped_partial,
    rivoal_original_factors,
    rivoal_original_partial,
)
from blockprod.words import Word, all_words, word_value


def random_fn(rng: random.Random, max_support: int = 10, key_bound: int = 300) -> FiniteSupportFn:
    entries = {}
    for _ in range(rng.randrange(1, max_support + 1)):
        num = rng.randrange(-60, 61)
        entries[rng.randrange(1, key_bound)] = Fraction(num if num else 1, rng.randrange(1, 40))
    return FiniteSupportFn(entries)


def random_word(rng: random.Random, base: int, max_len: int = 6) -> Word:
    return Word(base, tuple(rng.randrange(base) for _ in range(rng.randrange(1, max_len + 1))))


def balanced_params(rng: random.Random) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Nonnegative ``a`` and ``b`` of one to three entries with ``sum(a) == sum(b)``."""
    size = rng.randrange(1, 4)
    a = tuple(Fraction(rng.randrange(0, 33), rng.randrange(1, 9)) for _ in range(size))
    weights = [rng.randrange(1, 10) for _ in range(size)]
    b = tuple(sum(a) * w / sum(weights) for w in weights)
    return a, b


class TestRho:
    def test_period(self):
        assert [rho(k) for k in range(8)] == [1, -1, 0, 0, 1, -1, 0, 0]
        with pytest.raises(ValueError):
            rho(-1)


class TestFiniteSupportFn:
    def test_rejects_nonpositive_keys(self):
        with pytest.raises(ValueError):
            FiniteSupportFn({0: Fraction(1)})

    def test_drops_zero_values(self):
        f = FiniteSupportFn({3: Fraction(0), 4: Fraction(2)})
        assert f.support == [4]

    def test_value_at_zero(self):
        f = FiniteSupportFn({1: Fraction(1)}, value_at_zero=Fraction(9))
        assert f(0) == 9 and f(1) == 1 and f(2) == 0


class TestLemma1:
    def test_single_point_starts_nonzero(self):
        f = FiniteSupportFn({1: Fraction(1)})
        w = Word.parse("1", 2)
        assert lemma1_lhs(f, w, 2) == 1
        assert lemma1_rhs(f, w, 2) == 1
        assert lemma1_residual(f, w, 2) == 0

    def test_single_point_zero_word(self):
        f = FiniteSupportFn({1: Fraction(1)})
        assert lemma1_lhs(f, Word.parse("0", 2), 2) == 0

    def test_rhs_range_examples(self):
        f = FiniteSupportFn({2: Fraction(5)})
        assert lemma1_rhs(f, Word.parse("10", 2), 2) == 5  # n = 0 hits f(2)
        assert lemma1_rhs(f, Word.parse("00", 2), 2) == 0  # all-zeros range starts at 1

    def test_block_support(self):
        f = FiniteSupportFn({n: Fraction(1) for n in range(1, 51)})
        w = Word.parse("11", 2)
        assert lemma1_lhs(f, w, 2) == lemma1_rhs(f, w, 2)

    def test_harmonic_support(self):
        f = FiniteSupportFn({n: Fraction(1, n) for n in range(1, 101)})
        assert lemma1_residual(f, Word.parse("01", 2), 2) == 0

    def test_f0_never_read(self):
        """Perturbing f(0) changes nothing: the identity does not involve it."""
        rng = random.Random(5)
        for _ in range(20):
            entries = dict(random_fn(rng).entries)
            w = random_word(rng, 2)
            plain = lemma1_residual(FiniteSupportFn(entries), w, 2)
            bent = lemma1_residual(FiniteSupportFn(entries, value_at_zero=Fraction(17)), w, 2)
            assert plain == bent == 0

    def test_misrange_breaks_all_zeros(self):
        """Negative control: the range one block off reads f(0) for the word of value 0."""
        f = FiniteSupportFn({4: Fraction(3)}, value_at_zero=Fraction(7))
        w = Word.parse("00", 2)
        assert lemma1_residual(f, w, 2) == 0
        assert lemma1_residual(f, w, 2, misrange=True) == -7

    def test_misrange_breaks_nonzero_lead(self):
        f = FiniteSupportFn({1: Fraction(2)})
        w = Word.parse("1", 2)
        assert lemma1_residual(f, w, 2, misrange=True) == 2  # dropped n=0 term f(v)

    def test_random_campaign(self):
        rng = random.Random(2024)
        for _ in range(300):
            base = rng.choice([2, 3, 4, 10])
            f = random_fn(rng)
            w = random_word(rng, base)
            assert lemma1_residual(f, w, base) == 0

    def test_lhs_matches_fraction_oracle(self):
        """The integer left side has the value of the term-by-term Fraction sum."""
        rng = random.Random(1010)
        primes = [p for p in range(2, 998) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for i in range(300):
            base = (2, 3, 4, 10)[i % 4]
            entries = {}
            for _ in range(1 if i % 10 == 0 else rng.randrange(2, 13)):  # a single point every tenth f
                num = rng.randrange(-60, 61) or -1
                entries[rng.randrange(1, 400)] = Fraction(num, rng.choice(primes) if i & 1 else rng.randrange(1, 40))
            f = FiniteSupportFn(entries)
            shape = i % 3  # all zeros, zero-leading, any digits
            if shape == 0:
                w = Word(base, (0,) * rng.randrange(1, 4))
            elif shape == 1:
                w = Word(base, (0,) + tuple(rng.randrange(base) for _ in range(rng.randrange(0, 4))))
            else:
                w = random_word(rng, base, 4)
            assert lemma1_lhs(f, w, base) == helpers.lemma1_lhs_oracle(f, w, base), (entries, w)

    def test_lhs_hand_worked(self):
        """Base 3, word 2, f = {2: 1/2, 7: -1/5, 8: 1/7}; 7 = 21_3 and 8 = 22_3.

        n = 2: N = 1, f(2) - f(6) - f(7) - f(8) = 1/2 + 1/5 - 1/7 = 39/70
        n = 7: N = 1, f(7) = -1/5 = -14/70
        n = 8: N = 2, f(8) = 1/7, twice: 20/70
        sum 45/70 = 9/14 = f(2) + f(8), the right side (the m = 2 mod 3).
        """
        f = FiniteSupportFn({2: Fraction(1, 2), 7: Fraction(-1, 5), 8: Fraction(1, 7)})
        w = Word.parse("2", 3)
        assert lemma1_lhs(f, w, 3) == Fraction(9, 14)
        assert lemma1_rhs(f, w, 3) == Fraction(9, 14)

    def test_huge_base(self):
        """Base 10^9: the left side groups the support by block, so its cost does not grow with the base."""
        B = 10**9
        rng = random.Random(9)
        for digits in ((7,), (0,), (B - 1, 0), (0, 5), (0, 0), (3, 0, 2)):
            w = Word(B, digits)
            step = B ** len(digits)
            first = word_value(w) or step
            entries = {first: Fraction(3), first + step: Fraction(-1, 7), B * first + 5: Fraction(2, 3)}
            for _ in range(8):
                entries[rng.randrange(1, 4 * B * B)] = Fraction(rng.randrange(1, 60), rng.randrange(1, 40))
            f = FiniteSupportFn(entries)
            assert lemma1_rhs(f, w, B) == Fraction(20, 7)
            assert lemma1_lhs(f, w, B) == Fraction(20, 7)

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            lemma1_lhs(FiniteSupportFn({1: Fraction(1)}), Word.parse("1", 2), 3)


class TestClosedFormBase2:
    def test_word_zero(self):
        assert closed_form_base2(Word.parse("0", 2)).text() == "8 * G(1/2) / (G(1/4)^2)"

    def test_word_one(self):
        assert closed_form_base2(Word.parse("1", 2)).text() == "G(1/2) / (G(3/4)^2)"

    def test_word_double_zero(self):
        assert closed_form_base2(Word.parse("00", 2)).text() == "16 * G(1/4) / (G(1/8)^2)"

    def test_general_branch(self):
        e = closed_form_base2(Word.parse("101", 2))  # v=5, L=3
        assert e.num == (Fraction(5, 8), Fraction(6, 8))
        assert e.den == (Fraction(11, 16), Fraction(11, 16))

    def test_forms_pinned(self):
        """Built from ``closed_form_baseB``, the 510 words up to length 8 render, as JSON, byte for
        byte as the two-branch formula of the paper gave them."""
        forms = [closed_form_base2(w).to_json_dict() for w in all_words(2, 8)]
        digest = hashlib.sha256(json.dumps(forms, separators=(",", ":")).encode()).hexdigest()
        assert len(forms) == 510
        assert digest == "72c144d3fb20308fac48e4403ffd2edfd522a1052d607d8c16a9a3b3d499bd78"

    def test_rejects_wrong_base_or_empty(self):
        with pytest.raises(ValueError):
            closed_form_base2(Word.parse("2", 3))
        with pytest.raises(ValueError):
            closed_form_base2(Word(2, ()))


class TestClosedFormBaseB:
    def test_reduction_to_base2(self, mp_prec):
        """B=2, a=(1,1), b=(0,2) reproduces the base-2 closed forms numerically."""
        with mp_prec(128):
            for text in ("0", "1", "00", "011", "10101"):
                w = Word.parse(text, 2)
                general = eval_gamma_expr(closed_form_baseB(ProductSpec.canonical_base2(w)), 128)
                special = eval_gamma_expr(closed_form_base2(w), 128)
                assert abs(general.to_fraction() / special.to_fraction() - 1) <= Fraction(1, 2**100)

    def test_trivial_parameters(self):
        spec = ProductSpec(3, Word.parse("2", 3), (Fraction(1),), (Fraction(1),))
        e = closed_form_baseB(spec)
        assert e.num == () and e.den == () and e.prefactor == 1
        assert eval_gamma_expr(e, 128).to_fraction() == 1

    def test_balance_enforced(self):
        with pytest.raises(BalanceError):
            ProductSpec(3, Word.parse("2", 3), (Fraction(1),), (Fraction(2),))

    def test_all_zeros_branch_args(self):
        spec = ProductSpec.canonical_base2(Word.parse("0", 2))
        e = closed_form_baseB(spec)
        # num: 1 + 0/4 (dropped as unit), 1 + 2/4; den: (1 + 1/4)^2
        assert e.num == (Fraction(3, 2),)
        assert e.den == (Fraction(5, 4), Fraction(5, 4))


class TestOneRule:
    """The congruence rule ``m == v(w) (mod B^L)``, ``m >= 1``, equals the per-class formulas
    of ``helpers`` on every word of length <= 3 in bases 2..10 (<= 4 in bases 2..4): the
    all-zeros words, whose value is 0, start their range at ``B^L``."""

    WORDS = [w for base in range(2, 11) for w in all_words(base, 4 if base <= 4 else 3)]

    def test_rhs_matches_per_class_ranges(self):
        rng = random.Random(18)
        for w in self.WORDS:
            step = w.base ** len(w)
            v = word_value(w)
            for _ in range(2):
                entries = dict(random_fn(rng, 6).entries)
                for k in range(3):  # m = v + k B^L near the range's start; m = 0 is value_at_zero
                    if v + k * step:
                        entries[v + k * step] = Fraction(rng.randrange(1, 50), rng.randrange(1, 9))
                f = FiniteSupportFn(entries, value_at_zero=Fraction(rng.randrange(1, 9)))
                for misrange in (False, True):
                    want = helpers.lemma1_rhs_by_class(f, w, w.base, misrange)
                    assert lemma1_rhs(f, w, w.base, misrange) == want, (w, entries, misrange)

    def test_closed_form_matches_per_class_formulas(self):
        rng = random.Random(19)
        for w in self.WORDS:
            for _ in range(2):
                spec = ProductSpec(w.base, w, *balanced_params(rng))
                assert closed_form_baseB(spec) == helpers.closed_form_baseB_by_class(spec), spec

    def test_words_of_value_zero(self):
        for base in range(2, 11):
            for L in (1, 2, 3):
                w = Word(base, (0,) * L)
                spec = ProductSpec(base, w, (Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))
                m = Fraction(1, base ** (L + 1))
                assert closed_form_baseB(spec) == GammaExpr(1, num=(1 + 2 * m,), den=(1 + m, 1 + m))
        spec = ProductSpec(3, Word.parse("00", 3), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))
        assert closed_form_baseB(spec).text() == "G(29/27) / (G(28/27)^2)"


class TestProductSpec:
    def test_json_round_trip(self):
        spec = ProductSpec(3, Word.parse("021", 3), (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2)))
        d = spec.to_json_dict()
        assert d == {"base": 3, "word": "021", "a": ["1", "1"], "b": ["1/2", "3/2"]}
        assert ProductSpec.from_json_dict(d) == spec

    def test_factor_value(self):
        spec = ProductSpec.canonical_base2(Word.parse("1", 2))
        # the canonical parameters telescope to ((4n+2)^2/((4n+1)(4n+3)))^2
        for n in (1, 2, 17):
            want = Fraction((4 * n + 2) ** 2, (4 * n + 1) * (4 * n + 3)) ** 2
            assert spec.factor(n) == want

    def test_summability(self):
        """sum |log f(n)| log n over n <= 1e6 is bounded with Cauchy partial sums."""
        for spec in (
            ProductSpec(3, Word.parse("12", 3), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(2))),
            ProductSpec.canonical_base2(Word.parse("01", 2)),
            ProductSpec(4, Word.parse("3", 4), (Fraction(1, 2), Fraction(3, 2)), (Fraction(0), Fraction(2))),
        ):
            B = spec.base
            af = [float(x) for x in spec.a]
            bf = [float(x) for x in spec.b]
            partial = 0.0
            checkpoints = {}
            for n in range(1, 10**6 + 1):
                f = 0.0
                for ai, bi in zip(af, bf):
                    f += math.log((B * n + ai) / (B * n + bi))
                partial += abs(f) * math.log(max(n, 2))
                if n in (10**4, 10**5, 10**6):
                    checkpoints[n] = partial
            assert checkpoints[10**5] - checkpoints[10**4] > checkpoints[10**6] - checkpoints[10**5]
            assert checkpoints[10**6] < 2.0


class TestRivoalForms:
    def test_original_small(self):
        assert rivoal_original_partial(3, 128).to_fraction() == 1  # rho(2)=rho(3)=0

    def test_grouped_first_term(self):
        got = rivoal_grouped_partial(1, 128)
        want = Fraction(36, 35) ** 2
        assert abs(got.to_fraction() - want) <= want * Fraction(1, 2**110)

    def test_exponent_at_six(self):
        """k = 6 = 110_2 has 3 digits, so the grouped exponent is 2*3."""
        inc = rivoal_grouped_partial(6, 256).to_fraction() / rivoal_grouped_partial(5, 256).to_fraction()
        want = Fraction(26**2, 25 * 27) ** 6
        assert abs(inc - want) <= want * Fraction(1, 2**200)

    def test_block_grouping_exact(self):
        for K in (1, 37, 1000, 10**5, 10**7, 10**30):
            assert grouping_identity_holds(K), K

    def test_factored_forms_match(self):
        assert rivoal_original_factors(4 * 50 + 3) == rivoal_grouped_factors(50)
        # cutting at 4K leaves the k = 4K factor unpaired (4K+2, 4K+3 are inert)
        assert rivoal_original_factors(4 * 50) != rivoal_grouped_factors(50)

    def test_run_exponents_match_factor_maps(self):
        """The per-integer exponents that grouping_identity_holds compares are those of both
        factor maps at every integer, for every K up to 200 and for 4K+3 next to a power of two."""
        near_powers = [((1 << j) - 3) // 4 + d for j in range(4, 15) for d in (-1, 0, 1)]
        for K in sorted(set(range(1, 201)) | set(near_powers)):
            original, grouped = rivoal_original_factors(4 * K + 3), rivoal_grouped_factors(K)
            for m in range(4 * K + 10):
                assert identities._original_exponent(m, 4 * K + 3) == original.get(m, 0), (K, m)
                assert identities._grouped_exponent(m, K) == grouped.get(m, 0), (K, m)

    def test_runs_answer_as_the_factor_maps(self):
        """Compared on runs, the two forms agree exactly when the full factor maps do, for every
        original length up to 4K + 11, not only the grouping's 4K + 3."""
        for K in range(1, 41):
            grouped = rivoal_grouped_factors(K)
            for top in range(4 * K + 12):
                want = rivoal_original_factors(top) == grouped
                assert identities._factors_agree(top, K) == want, (K, top)

    @pytest.mark.parametrize("K", [1, 5, 300, 2**20 + 7, 10**30])
    def test_cut_ranges_fail(self, K):
        """Grouped blocks that stop at K - 1, or an original range cut at 4K, make the check fail."""
        assert identities._factors_agree(4 * K + 3, K)
        assert not identities._factors_agree(4 * K + 3, K - 1)
        assert not identities._factors_agree(4 * K, K)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_one_dyadic_block_off_fails(self, monkeypatch, r, delta):
        """One class carrying bitlen(q) + delta in a single dyadic block of q makes the check
        fail, whichever block it is, the last one (cut by K) included."""
        K = 300
        exact = identities._grouped_exponent
        assert grouping_identity_holds(K)
        for j in range(1, K.bit_length() + 1):

            def perturbed(m, K, j=j):
                q, rm = divmod(m, 4)
                if rm == r and 1 <= q <= K and q.bit_length() == j:
                    return (4 if r == 2 else -2) * (j + delta)
                return exact(m, K)

            monkeypatch.setattr(identities, "_grouped_exponent", perturbed)
            assert not grouping_identity_holds(K), j

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_one_original_block_off_fails(self, monkeypatch, c, delta):
        """The same on the original side: ``e(k)`` of one class ``k = c (mod 4)`` carrying
        ``bitlen(k) - 2 + delta`` in a single dyadic block of ``k``."""
        K = 300
        exact = identities._original_exponent
        for j in range(3, (4 * K + 3).bit_length() + 1):

            def off(k, top, j=j):
                return 2 * delta * (1 - 2 * c) * (2 <= k <= top and k & 3 == c and k.bit_length() == j)

            def perturbed(m, top, off=off):
                return exact(m, top) + off(m - 2, top) - off(m - 1, top)

            monkeypatch.setattr(identities, "_original_exponent", perturbed)
            assert not grouping_identity_holds(K), j

    def test_numeric_agreement(self):
        a = rivoal_original_partial(4 * 200 + 3, 128)
        b = rivoal_grouped_partial(200, 128)
        assert abs(a.to_fraction() / b.to_fraction() - 1) <= Fraction(1, 2**110)

    def test_grouped_converges_to_4_over_pi(self, mp_prec):
        with mp_prec(128):
            got = rivoal_grouped_partial(10**4, 128)
            assert abs(to_mpf(got) - 4 / mpmath.pi) * mpmath.pi / 4 < mpmath.mpf("1e-3")

    def test_original_converges_to_4_over_pi(self, mp_prec):
        with mp_prec(128):
            got = rivoal_original_partial(4 * 10**5 + 3, 128)
            assert abs(to_mpf(got) - 4 / mpmath.pi) * mpmath.pi / 4 < mpmath.mpf("1e-4")


BLOCK_SUMS = {
    "rivoal_original": logsum_rivoal_original,
    "rivoal_grouped": logsum_rivoal_grouped,
    "alternating": logsum_alternating,
}


def mp_loggamma(x: Fraction) -> mpmath.mpf:
    return mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator)


def mp_bitlen_logsum(family, N: int, lo: int = 1, lg=mp_loggamma) -> mpmath.mpf:
    """mpmath log-sum over ``lo <= k <= N`` of a bit-length family, block by block.

    ``family`` is ``(M, classes)`` with classes ``(r, e, shape)``: index ``k = M m + r`` has
    the factor ``prod (m + d)^c`` over the pairs ``(c, d)`` of ``shape`` and the exponent
    ``e(bitlen(k))``.  Over a dyadic block a class's factors telescope to ``Phi(b + 1) -
    Phi(a)`` with ``Phi(x) = sum c lgG(x + d)``; ``lg`` takes a rational argument.
    """
    M, classes = family
    total = mpmath.mpf(0)
    while lo <= N:
        j = lo.bit_length()
        end = min(N, 2**j - 1)
        for r, e, shape in classes:
            a, b = -((r - lo) // M), (end - r) // M
            if e(j) and a <= b:
                total += e(j) * sum(c * (lg(b + 1 + d) - lg(a + d)) for c, d in shape)
        lo = end + 1
    return total


def cached_loggamma():
    """:func:`mp_loggamma` remembering its values, for oracles that meet an argument twice."""
    cache = {}

    def lg(x: Fraction) -> mpmath.mpf:
        if x not in cache:
            cache[x] = mp_loggamma(x)
        return cache[x]

    return lg


Q = Fraction
# the families by their definitions: the grouped factor (4k+2)^2/((4k+1)(4k+3)) with exponent
# 2 bitlen(k) and with 2 (-1)^k bitlen(k), and the original factor (k+2)/(k+1) with exponent
# 2 rho(k) (bitlen(k) - 2), each written in m = k // M with its denominators divided out
MP_GROUPED = (1, [(0, lambda j: 2 * j, ((2, Q(1, 2)), (-1, Q(1, 4)), (-1, Q(3, 4))))])
MP_ALTERNATING = (2, [(0, lambda j: 2 * j, ((2, Q(1, 4)), (-1, Q(1, 8)), (-1, Q(3, 8)))),
                      (1, lambda j: -2 * j, ((2, Q(3, 4)), (-1, Q(5, 8)), (-1, Q(7, 8))))])
MP_ORIGINAL = (4, [(0, lambda j: 2 * (j - 2), ((1, Q(1, 2)), (-1, Q(1, 4)))),
                   (1, lambda j: -2 * (j - 2), ((1, Q(3, 4)), (-1, Q(1, 2))))])


def mp_grouped_logsum(N: int) -> mpmath.mpf:
    """mpmath log of the grouped partial product over ``1 <= k <= N``, block by block."""
    return mp_bitlen_logsum(MP_GROUPED, N)


FAMILY_NS = [2030, 2**30 + 12345, 2**100 + 7, 2**140 + 3, 2**400 + 1, 2**1000 + 5]


class TestBlockSums:
    """The Gamma-ratio block sums of the bit-length families."""

    PREC = 128
    F = PREC + GUARD_BITS

    @pytest.mark.parametrize("N", [1, 2, 7, 2030, 10**5])
    @pytest.mark.parametrize("family", sorted(BLOCK_SUMS))
    def test_matches_per_term_oracle(self, family, N):
        """Within ``2^(8-p)`` of the per-term log-sum; at N = 1, 2, 7 a block holds a term or two."""
        got = BLOCK_SUMS[family](1, N, self.F)
        want = getattr(helpers, "logsum_" + family)(1, N, self.F)
        assert abs(got - want) <= 1 << (self.F + 8 - self.PREC)

    @pytest.mark.parametrize("N", [10**6, 10**30])
    def test_grouped_partial_against_mpmath(self, N):
        with mpmath.workprec(self.PREC + 2 * N.bit_length() + 64):
            want = mpmath.exp(mp_grouped_logsum(N))
            got = rivoal_grouped_partial(N, self.PREC)
            assert_close(got, want, mpmath.mpf(2) ** (8 - self.PREC))

    @pytest.mark.parametrize("F", [160, 1056])
    @pytest.mark.parametrize("N", FAMILY_NS, ids=lambda N: str(N) if N < 10**4 else f"2^{N.bit_length() - 1}")
    def test_families_against_mpmath(self, F, N):
        """Each family within one unit of ``2^-F`` of mpmath as ``N`` grows to ``2^1000``; the
        original form at ``K = 4N ... 4N + 3``, so every ``K mod 4`` is met.  (Block sums of
        single log-Gammas were off by up to 1943 units.)"""
        lg = cached_loggamma()
        with mpmath.workprec(F + N.bit_length() + 64):
            grouped = mpmath.ldexp(mp_bitlen_logsum(MP_GROUPED, N, lg=lg), F)
            alternating = mpmath.ldexp(mp_bitlen_logsum(MP_ALTERNATING, N, lg=lg), F)
            assert abs(logsum_rivoal_grouped(1, N, F) - grouped) <= 1
            assert abs(logsum_alternating(1, N, F) - alternating) <= 1
            original = mp_bitlen_logsum(MP_ORIGINAL, 4 * N - 1, lo=2, lg=lg)
            for K in range(4 * N, 4 * N + 4):
                if K & 3 < 2:
                    e = 2 * rho(K) * (K.bit_length() - 2)
                    original += e * mpmath.log(mpmath.mpf(K + 2) / (K + 1))
                assert abs(logsum_rivoal_original(2, K, F) - mpmath.ldexp(original, F)) <= 1, K

    def test_no_single_log_gammas(self, monkeypatch):
        """The families sum on the balanced series alone: ``identities`` holds no
        ``_loggamma_fixed`` of its own, and ``gammafn``'s is never called."""

        def refuse(*args):
            raise AssertionError("a single log-Gamma was evaluated")

        assert not hasattr(identities, "_loggamma_fixed")
        monkeypatch.setattr(gammafn, "_loggamma_fixed", refuse)
        for fn in BLOCK_SUMS.values():
            fn(1, 10**6 + 3, self.F)
            fn(5, 2**100 + 4, 1024 + GUARD_BITS)

    @pytest.mark.parametrize("M", [1, 2, 2030, 2**40 + 3])
    def test_original_is_grouped_by_blocks(self, M):
        """Indices ``4m`` and ``4m + 1`` carry the grouped factor of ``m`` and ``4m + 2``,
        ``4m + 3`` none: the original prefixes to ``4M + 1`` and ``4M + 3`` are the grouped
        prefix to ``M``, bit for bit."""
        grouped = logsum_rivoal_grouped(1, M, self.F)
        assert logsum_rivoal_original(2, 4 * M + 1, self.F) == grouped
        assert logsum_rivoal_original(2, 4 * M + 3, self.F) == grouped

    # sha256 of the prefixes over FAMILY_GRID, as the per-edge balanced log-Gammas gave them
    FAMILY_DIGESTS = {
        "_GROUPED": "6ca17888821819b2d69be5c6aa055a29c8b4138536402bda9d015eabb96dcded",
        "_ALTERNATING": "7904733e12f1cd3dd07c1cd43441ce07548e7b8137e6b73a92c9415bce068196",
    }
    FAMILY_GRID = ((96, 176, 304, 560, 1072, 2112),
                   (1, 2, 3, 7, 8, 1000, 2000, 2**20 - 1, 2**20, 2**20 + 1, 10**6, 10**30, 3**200))

    @pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
    def test_family_prefix_digest(self, family):
        """The prefixes of both families, at scales from 96 to 2112 bits and ``N`` from 1 to
        ``3^200``, are the integers each edge's own balanced log-Gamma gave, bit for bit."""
        Es, Ns = self.FAMILY_GRID
        values = [identities._family_prefix(getattr(identities, family), N, E) for E in Es for N in Ns]
        assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == self.FAMILY_DIGESTS[family]

    def test_guard_grows_with_N(self, monkeypatch):
        """Each ``Phi`` moved by its one unit with the sign of its weight (``+`` on a class's last
        edge, ``-`` on its other edges, times the class sign) drifts a prefix by ``8J`` units of
        ``2^-E``: 2.44 units of ``2^-F`` at a fixed 16-bit guard for ``J = 20001``, 0.31 at the
        guard ``g(N)``, so the rounded log-sum moves by at most one unit."""
        N, F = 2**20000 + 5, 160
        exact = logsum_alternating(1, N, F)
        lgammas = identities._balanced_lgammas
        signs = {(A, T): sign for sign, A, T in identities._ALTERNATING[2]}

        def moved(A, T, W, us, E):
            phi = lgammas(A, T, W, us, E)
            last, sign = max(phi), signs[A, T]
            return {u: v + (sign if u == last else -sign) for u, v in phi.items()}

        monkeypatch.setattr(identities, "_balanced_lgammas", moved)
        assert abs(logsum_alternating(1, N, F) - exact) <= 1

    def test_one_series_per_point(self, monkeypatch):
        """A prefix sums each series point's series once: the edges of a class below the
        threshold share one, where each edge used to sum it again."""
        calls = collections.Counter()
        series = gammafn._balanced_series

        def counted(A, T, W, u, F):
            calls[A, T, W, u] += 1
            return series(A, T, W, u, F)

        monkeypatch.setattr(gammafn, "_balanced_series", counted)
        identities._family_prefix(identities._ALTERNATING, 10**6, 176)
        assert calls and max(calls.values()) == 1, calls.most_common(2)

    @pytest.mark.parametrize("family", sorted(BLOCK_SUMS))
    def test_range_splits_exactly(self, family):
        """Cuts inside a dyadic block, at block edges, and off multiples of 4 add up bit for bit."""
        fn = BLOCK_SUMS[family]
        lo, hi = 5, 20002
        cuts = (6, 1023, 1024, 4095, 4096, 4098, 7777, 10001, 16383)
        whole = fn(lo, hi, self.F)
        edges = (lo - 1, *cuts, hi)
        assert whole == sum(fn(a + 1, b, self.F) for a, b in zip(edges, edges[1:]))
        assert fn(1, hi, self.F) == fn(1, lo - 1, self.F) + whole


def mp_companion_logsum(lo: int, hi: int, H: int = 10) -> mpmath.mpf:
    """mpmath log of the companion partial product over ``lo <= k <= hi``.

    Indices below ``M = 2^H`` are summed term by term.  Above, ``k = X*M + r``
    has exponent ``E(X) - 4 popcount(r)`` with ``E(X) = 2(bitlen(X) + H) -
    4 popcount(X)``: ``E(X)`` weighs the aligned block ``[X*M, X*M + M - 1]``
    and ``-4 popcount(r)`` the residue class of ``r``, each summed as one
    log-Gamma ratio.  The identity holds for every ``H``, and this oracle uses
    its own.
    """
    lg = mpmath.loggamma
    M = 2**H
    total = mpmath.fsum(
        e * mpmath.log(mpmath.mpf((4 * k + 2) ** 2) / ((4 * k + 1) * (4 * k + 3)))
        for k in range(max(lo, 1), min(hi, M - 1) + 1)
        if (e := 2 * k.bit_length() - 4 * bin(k).count("1"))
    )
    lo = max(lo, M)

    def ratio(d2, d1, d3, a, b):
        """log of prod_{t=a..b} (t + d2)^2 / ((t + d1)(t + d3))."""
        def G(x):
            return 2 * lg(x + d2) - lg(x + d1) - lg(x + d3)

        return G(mpmath.mpf(b + 1)) - G(mpmath.mpf(a))

    quarter = mpmath.mpf(1) / 4
    for X in range(lo // M, hi // M + 1):
        e = 2 * (X.bit_length() + H) - 4 * bin(X).count("1")
        a, b = max(lo, X * M), min(hi, X * M + M - 1)
        if e and a <= b:
            total += e * ratio(2 * quarter, quarter, 3 * quarter, a, b)
    for r in range(1, M):
        a, b = -((r - lo) // M), (hi - r) // M
        if a <= b:
            d = [mpmath.mpf(4 * r + i) / (4 * M) for i in (2, 1, 3)]
            total -= 4 * bin(r).count("1") * ratio(*d, a, b)
    return total


class TestSumRules:
    """Each level of a number's digits matches one word of each length, so the word sums of
    one length add up to a sum that needs no plan: a check of every word engine at any ``N``
    and precision with no oracle library."""

    @pytest.mark.parametrize(
        "k, F",
        [(k, F) for k in (1, 2, 10, 40, 100, 300, 1000) for F in (160, 544)] + [(40, 2080), (1000, 2080)],
    )
    def test_grouped_form_is_words_zero_and_one(self, k, F):
        """The paper's proof: the grouped 4/pi form, exponent ``2 bitlen(n) = 2 (N_0(n) + N_1(n))``,
        is the base-2 product of word ``0`` times that of word ``1``.  The family sums dyadic
        blocks, the words their plans and runs; they share only the balanced series."""
        w0, w1 = (ProductSpec(2, Word(2, (d,)), *DEFAULT_PARAMS) for d in (0, 1))
        for N in (2**k - 1, 2**k, 2**k + 1) if F < 2080 else (2**k,):
            gap = logsum_rivoal_grouped(1, N, F) - logsum_word(w0, N, F) - logsum_word(w1, N, F)
            assert abs(gap) <= 3, (N, gap)

    @pytest.mark.parametrize(
        "params", [DEFAULT_PARAMS, ((Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 3), Fraction(5, 3)))]
    )
    @pytest.mark.parametrize("base, lengths", [(2, (1, 2, 3)), (3, (1, 2)), (4, (1, 2)), (10, (1,))])
    def test_words_of_one_length_sum_to_digit_logsum(self, base, lengths, params):
        """For each length ``L`` the ``B^L`` word sums add up to ``D_B(N)`` within one unit per
        word and two more, at ``N = B^12`` and its neighbour as well as round ``N``."""
        for F, Ns in ((160, (10**4, base**12 - 1, base**12, 10**30)), (1056, (base**12,))):
            for N in Ns:
                want = helpers.digit_logsum(base, *params, N, F)
                for L in lengths:
                    shared = {}
                    words = [w for w in all_words(base, L) if len(w) == L]
                    got = sum(_logsum_word(ProductSpec(base, w, *params), N, F, shared) for w in words)
                    assert abs(got - want) <= base**L + 2, (F, N, L, got - want)


class TestCompanionSum:
    """The companion log-sum: the grouped log-sum minus twice the word-``1`` log-sum."""

    PREC = 128
    F = PREC + GUARD_BITS

    @pytest.mark.parametrize(
        "prec, N",
        [(128, 7), (128, 2030), (128, 3000), (128, 10**5), (128, 10**6), (256, 10**6), (1024, 10**4)],
    )
    def test_logsum_against_mpmath(self, prec, N):
        """Within 2 units of ``2^-F`` of mpmath (measured: +0.26, +0.44, -1.20, +0.54, -0.69,
        -0.49, +0.24), the grouped prefix and the word-``1`` prefix each being within one
        unit.  (With block sums of single log-Gammas these read up to -29.7.)"""
        F = prec + GUARD_BITS
        with mpmath.workprec(F + 2 * N.bit_length() + 64):
            want = mpmath.ldexp(mp_companion_logsum(1, N), F)
        assert abs(logsum_companion(1, N, F) - want) <= 2

    def test_range_splits_exactly(self):
        """Cuts where a block of the telescoped plan starts at the first index ``N + 1`` it
        sums, and on both sides of each ``N`` at which a piece of the word-``1`` sum
        reaches ``m*``, its first point on the series.  The plan at ``F`` does so four
        times in the range (153, 306, 322 and 644), and the fifth is the first ``N`` at
        which the 256-bit plan (``F = 288``) does."""
        F = self.F
        lo, hi = 100, 5200
        mstar = helpers.mstar_cuts(_WORD_ONE, lo + 1, hi - 1, F, limit=4)
        mstar += helpers.mstar_cuts(_WORD_ONE, lo + 1, hi - 1, 256 + GUARD_BITS, limit=1)
        assert len(mstar) == 5
        # word 1: level-j blocks start at (2t + 1) 2^j, so the plan for N = 3071
        # starts a block at m = 3 * 2^10; likewise 2047, 3583 and 5119
        cuts = sorted({2047, 2048, 3071, 3072, 3583, 5119, *mstar, *(N - 1 for N in mstar)})
        whole = logsum_companion(lo, hi, F)
        edges = (lo - 1, *cuts, hi)
        assert whole == sum(logsum_companion(a + 1, b, F) for a, b in zip(edges, edges[1:]))
        assert logsum_companion(1, hi, F) == logsum_companion(1, lo - 1, F) + whole
        per_term = helpers.logsum_companion(lo, hi, F)
        assert abs(whole - per_term) <= 1 << (F + 8 - self.PREC)

    @pytest.mark.parametrize("lo, hi", [(1, 3000), (2**17 - 100, 2**17 + 2**11 + 7)])
    def test_mpmath_split_matches_per_term(self, lo, hi):
        """The oracle's block and class split against plain per-term mpmath."""
        with mpmath.workprec(self.PREC + 2 * hi.bit_length() + 64):
            per_term = mpmath.fsum(
                (2 * k.bit_length() - 4 * bin(k).count("1"))
                * mpmath.log(mpmath.mpf((4 * k + 2) ** 2) / ((4 * k + 1) * (4 * k + 3)))
                for k in range(lo, hi + 1)
            )
            assert abs(mp_companion_logsum(lo, hi) - per_term) <= mpmath.mpf(2) ** -(self.PREC + 32)

    def test_partial_against_mpmath(self):
        """At N = 10^6 the product meets ``2^(8-p)``."""
        N = 10**6
        with mpmath.workprec(self.PREC + 2 * N.bit_length() + 64):
            assert_close(companion_partial(N, self.PREC), mpmath.exp(mp_companion_logsum(1, N)),
                         mpmath.mpf(2) ** (8 - self.PREC))


class TestCompanion:
    def test_closed_form_shape(self):
        e = companion_closed_form()
        assert e.prefactor == 8
        assert e.num == (Fraction(3, 4), Fraction(3, 4))
        assert e.den == (Fraction(1, 4), Fraction(1, 4))

    def test_built_once(self):
        assert companion_closed_form() is companion_closed_form()

    def test_equals_pi_gamma_rendition(self, mp_prec):
        """8 G(3/4)^2/G(1/4)^2 equals 16 pi^2 / G(1/4)^4 via reflection."""
        with mp_prec(256):
            got = eval_gamma_expr(companion_closed_form(), 256)
            want = 16 * mpmath.pi**2 / mpmath.gamma(mpmath.mpf(1) / 4) ** 4
            assert_close(got, want, mpmath.mpf(2) ** -248)

    def test_quotient_of_base2_instances(self):
        """Exponent N0 - N1 is the quotient of the w=0 and w=1 products."""
        zero = eval_gamma_expr(closed_form_base2(Word.parse("0", 2)), 192).to_fraction()
        one = eval_gamma_expr(closed_form_base2(Word.parse("1", 2)), 192).to_fraction()
        comp = eval_gamma_expr(companion_closed_form(), 192).to_fraction()
        assert abs(zero / one / comp - 1) <= Fraction(1, 2**180)

    def test_partial_tracks_closed_form(self, mp_prec):
        with mp_prec(128):
            got = companion_partial(10**4, 128)
            want = 16 * mpmath.pi**2 / mpmath.gamma(mpmath.mpf(1) / 4) ** 4
            assert abs(to_mpf(got) - want) / want < mpmath.mpf("1e-3")


class TestAlternating:
    def test_first_terms(self):
        est1 = alternating_product_estimate(1, 128).to_fraction()
        want1 = Fraction(35 * 35, 36 * 36)
        assert abs(est1 - want1) <= want1 * Fraction(1, 2**110)
        est2 = alternating_product_estimate(2, 128).to_fraction()
        want2 = want1 * Fraction(100, 99) ** 4
        assert abs(est2 - want2) <= want2 * Fraction(1, 2**110)

    def test_cauchy_self_consistency(self):
        e4 = alternating_product_estimate(10**4, 128).to_fraction()
        e5 = alternating_product_estimate(10**5, 128).to_fraction()
        e6 = alternating_product_estimate(10**6, 128).to_fraction()
        gap_coarse = abs(e5 - e4)
        gap_fine = abs(e6 - e5)
        assert gap_fine > 0
        assert gap_coarse >= 5 * gap_fine


class TestClassPieces:
    """``word_edge_plan``'s class pieces: a level visits only the residues of the indices it holds."""

    @staticmethod
    def every_residue(B, QL, v, N, Q):
        """A class level's pieces found by walking all ``B^j`` residues of the level, as the
        plan did before; fine at small ``N``, but about ``B N`` steps at ``N = B^k``."""
        Bj, hi = Q // QL, B * N + B - 1
        a, head = max(N + 1, Bj), v * Bj
        return [(-1, Q, a + (r - a) % Q, hi - (hi - r) % Q + Q, 1)
                for r in range(head, head + Bj) if a + (r - a) % Q <= hi]

    def test_equals_the_walk_over_every_residue(self):
        """Bases 2, 3, 4 and 10, words of length 1 and 2, at ``N = B^k`` and ``B^k ± 1`` below
        ``3·10^5`` and at random ``N`` there: every class level equals the walk, including the
        levels whose index range is shorter than ``Q``."""
        rng = random.Random(0)
        levels = short = 0
        for B, lengths in ((2, (1, 2)), (3, (1, 2)), (4, (1,)), (10, (1,))):
            Ns = {B**k + e for k in range(1, 30) if B**k < 3 * 10**5 for e in (-1, 0, 1)}
            Ns |= {rng.randrange(1, 3 * 10**5) for _ in range(8)}
            for length in lengths:
                QL = B**length
                for v in range(QL):
                    for F, big in ((160, 0), (544, 3)):
                        for N in sorted(Ns):
                            plan = list(identities.word_edge_plan(B, length, v, 2, N, F, big))
                            classes = {Q for sign, Q, _, _, h in plan if sign < 0 and h == 1 and Q > 1}
                            for Q in classes:
                                got = [p for p in plan if p[0] < 0 and p[1] == Q and p[4] == 1]
                                assert got == self.every_residue(B, QL, v, N, Q), (B, length, v, N, F)
                                levels += 1
                                short += B * N + B - max(N + 1, Q // QL) < Q
        assert levels > 1000 and short > 100
