"""Fixed-point primitive accuracy, and exact range splitting of the per-term test oracles."""

import random
from fractions import Fraction

import helpers
import mpmath
import pytest

from blockprod.fixedpoint import (
    fx_atan_inv,
    exp_split,
    fx_div,
    fx_exp_reduced,
    fx_log,
    log2_fixed,
    pi_fixed,
    rshift_round,
)
from blockprod.identities import ProductSpec
from blockprod.words import Word, block_counts

F = 192
ULPS = 512  # generous absolute error budget for the primitives, in 2**-F units


def fx_err(got: int, want: mpmath.mpf) -> mpmath.mpf:
    return abs(got - want * 2**F)


class TestFixedPointPrimitives:
    def setup_method(self):
        mpmath.mp.prec = F + 64

    def test_rounding_helpers(self):
        assert rshift_round(13, 2) == 3  # 3.25
        assert rshift_round(14, 2) == 4  # 3.5 ties toward +inf
        assert rshift_round(-14, 2) == -3  # -3.5 ties toward +inf
        assert fx_div(1 << F, 3 << F, F) == rshift_round((1 << (2 * F + 1)) // 3, F + 1)
        assert abs(fx_div(1 << F, 3 << F, F) - (2**F) / mpmath.mpf(3)) < 1

    def test_constants(self):
        assert fx_err(log2_fixed(F), mpmath.log(2)) < ULPS
        assert fx_err(pi_fixed(F), mpmath.pi) < ULPS
        assert fx_err(fx_atan_inv(5, F), mpmath.atan(mpmath.mpf(1) / 5)) < ULPS

    def test_log_exp(self):
        rng = random.Random(3)
        for _ in range(30):
            fr = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
            x = (fr.numerator << F) // fr.denominator
            want = mpmath.log(mpmath.mpf(fr.numerator) / fr.denominator)
            assert fx_err(fx_log(x, F), want) < ULPS
        for value in (-5, -1, 0, 1, 3, 20):
            m, k = exp_split(value << F, F)
            assert fx_err(m, mpmath.e**value * mpmath.mpf(2) ** -k) < ULPS

    def test_exp_log_round_trip(self):
        x = 7 << (F - 2)  # 1.75
        m, k = exp_split(x, F)
        assert abs(fx_log(m << k, F) - x) < ULPS

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fx_log(0, F)


# working scales of Gamma: F = precision + 32 at 128, 256 and 1024 bits, and
# 1900, between the 1024- and 2048-bit scales
GAMMA_SCALES = [160, 288, 1056, 1900]
LOG_EXP_ULPS = 1  # fx_log, fx_exp_reduced: absolute error, in units of 2**-F
EXP_SPLIT_ULPS = 2  # exp_split: absolute error of the mantissa, in units of 2**-F


@pytest.mark.parametrize("F", GAMMA_SCALES)
class TestLogExpAtGammaScales:
    """``fx_log``/``exp_split`` against mpmath at the scales the Gamma code runs at."""

    @staticmethod
    def log_err(a, F):
        scale = mpmath.mpf(2) ** F
        return abs(fx_log(a, F) - mpmath.log(mpmath.mpf(a) / scale) * scale)

    def test_log_random_and_integer_arguments(self, F, mp_prec):
        rng = random.Random(F)
        args = [rng.getrandbits(F + 1) | (1 << F) for _ in range(30)]  # mantissas in [1, 2)
        args += [rng.getrandbits(rng.randrange(1, 3 * F)) | 1 for _ in range(30)]
        args += [n << F for n in (2, 3, 10, 12345, 10**6, 2**61 - 1, 10**30, 3**200)]
        with mp_prec(F):
            for a in args:
                assert self.log_err(a, F) <= LOG_EXP_ULPS, a

    def test_log_near_ladder_thresholds(self, F, mp_prec):
        one = 1 << F
        args = []
        for i in range(1, F // 8):
            # 1 + 2**-i, and 2 / (1 + 2**-i), where a rung of the ladder starts to apply
            for c in (one + (one >> i), (2 * one << i) // ((1 << i) + 1)):
                args += [c - 1, c, c + 1]
        for d in (1, 2, 1 << (F // 2)):
            args += [one - d, one + d, 2 * one - d, 2 * one + d]
        with mp_prec(F):
            for a in args:
                assert self.log_err(a, F) <= LOG_EXP_ULPS, a

    def test_exp_reduced_whole_domain(self, F, mp_prec):
        rng = random.Random(-F)
        ln2 = log2_fixed(F)
        lim = ln2 // 2 + (1 << F)  # |r| <= log(2)/2 + 1
        args = [rng.randrange(-lim, lim + 1) for _ in range(30)] + [-lim, lim, 0, -1, 1]
        for k in (-1, 1):  # near the multiples of log 2 inside the domain
            args += [k * ln2 + d for d in (-2, -1, 0, 1, 2)]
        scale = mpmath.mpf(2) ** F
        with mp_prec(F):
            for r in args:
                want = mpmath.exp(mpmath.mpf(r) / scale) * scale
                assert abs(fx_exp_reduced(r, F) - want) <= LOG_EXP_ULPS, r

    def test_exp(self, F, mp_prec):
        rng = random.Random(F + 1)
        args = [rng.randrange(-60 << F, 60 << F) for _ in range(30)]
        args += [-(1000 << F), -(1 << F), 0, 1 << F, 1000 << F]
        scale = mpmath.mpf(2) ** F
        with mp_prec(F):
            for x in args:
                m, k = exp_split(x, F)
                want = mpmath.exp(mpmath.mpf(x) / scale) * mpmath.mpf(2) ** (F - k)
                assert abs(m - want) <= EXP_SPLIT_ULPS, x

    def test_round_trips(self, F):
        rng = random.Random(F + 2)
        for _ in range(20):
            x = rng.randrange(0, 20 << F)  # exp(x) >= 1, so k >= 0
            m, k = exp_split(x, F)
            assert abs(fx_log(m << k, F) - x) <= LOG_EXP_ULPS + EXP_SPLIT_ULPS
            a = rng.getrandbits(F + 8) | (1 << F)
            m, k = exp_split(fx_log(a, F), F)
            assert abs((m << k) - a) <= (LOG_EXP_ULPS + EXP_SPLIT_ULPS) * (a >> F)


class TestSplitting:
    def test_all_accumulators_split_exactly(self):
        """The per-term companion oracle; the library's sums are split in ``TestBlockSums`` and ``TestCompanionSum``."""
        fn = helpers.logsum_companion
        whole = fn(1, 20000, F)
        assert whole == fn(1, 7777, F) + fn(7778, 20000, F)

    @pytest.mark.parametrize("base,text", [(2, "011"), (3, "12"), (4, "00")])
    def test_word_product_chunks_add_up(self, base, text):
        """The per-term word-product oracle over per-chunk block counts adds up to the whole range exactly."""
        spec = ProductSpec(base, Word.parse(text, base), (1, 1), (0, 2))

        def logsum(lo, hi):
            return helpers.logsum_word_product(spec, block_counts(spec.word, lo, hi), lo, hi, F)

        chunks = ((1, 1), (2, 1000), (1001, 1023), (1024, 4097), (4098, 6000))
        assert logsum(1, 6000) == sum(logsum(lo, hi) for lo, hi in chunks)
