"""BigReal arithmetic, precision semantics, and decimal rendering."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockprod.bigreal import MAX_DECIMAL_EXP, BigReal, default_decimal_digits, pi_value
from blockprod.gammafn import gamma

fractions_st = st.fractions(
    min_value=Fraction(-(10**12)), max_value=Fraction(10**12), max_denominator=10**9
)
nonzero_fractions_st = fractions_st.filter(lambda f: f != 0)


def err_vs_exact(x: BigReal, exact: Fraction) -> Fraction:
    if exact == 0:
        return abs(x.to_fraction())
    return abs(x.to_fraction() - exact) / abs(exact)


class TestConstruction:
    def test_from_int_exact(self):
        x = BigReal.from_int(12345, 128)
        assert x.to_fraction() == 12345

    def test_zero(self):
        z = BigReal.from_int(0, 128)
        assert z.man == 0 and z.exp == 0 and not z

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            BigReal.from_int(1, 32)

    @given(fractions_st, st.sampled_from([64, 128, 256]))
    def test_from_fraction_accurate(self, fr, prec):
        x = BigReal.from_fraction(fr, prec)
        assert err_vs_exact(x, fr) <= Fraction(1, 2 ** (prec - 1))

    @given(fractions_st)
    def test_deterministic(self, fr):
        assert BigReal.from_fraction(fr, 128).to_fraction() == BigReal.from_fraction(fr, 128).to_fraction()

    def test_mantissa_width_is_precision(self):
        x = BigReal.from_int(1, 128)
        assert abs(x.man).bit_length() == 128


class TestArithmetic:
    @given(fractions_st, fractions_st)
    def test_add(self, a, b):
        x = BigReal.from_fraction(a, 128) + BigReal.from_fraction(b, 128)
        got = x.to_fraction()
        want = a + b
        assert abs(got - want) <= Fraction(max(abs(a), abs(b), 1), 2**120)

    @given(fractions_st, fractions_st)
    def test_mul(self, a, b):
        x = BigReal.from_fraction(a, 128) * BigReal.from_fraction(b, 128)
        assert abs(x.to_fraction() - a * b) <= Fraction(abs(a * b) + 1, 2**120)

    @given(fractions_st, nonzero_fractions_st)
    def test_div(self, a, b):
        x = BigReal.from_fraction(a, 128) / BigReal.from_fraction(b, 128)
        want = a / b
        assert abs(x.to_fraction() - want) <= Fraction(abs(want) + 1, 2**120)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            BigReal.from_int(1, 128) / BigReal.from_int(0, 128)

    def test_result_precision_is_max(self):
        a = BigReal.from_int(3, 64)
        b = BigReal.from_int(5, 256)
        assert (a + b).prec == 256
        assert (a * b).prec == 256
        assert (a / b).precision_bits == 256

    def test_int_and_fraction_operands(self):
        x = BigReal.from_int(10, 128)
        assert (x + 1).to_fraction() == 11
        assert abs((4 / x).to_fraction() - Fraction(2, 5)) <= Fraction(1, 2**126)
        assert abs((x * Fraction(1, 3) * 3).to_fraction() - 10) <= Fraction(1, 2**120)

    @given(nonzero_fractions_st)
    def test_mul_fraction_single_rounding(self, fr):
        x = BigReal.from_int(7, 128)
        got = (x * fr).to_fraction()
        assert abs(got - 7 * fr) <= abs(7 * fr) * Fraction(1, 2**126)

    def test_far_apart_addition_rounds_to_big_operand(self):
        big = BigReal.from_int(1, 64)
        tiny = BigReal.from_fraction(Fraction(1, 2**500), 64)
        assert (big + tiny) == big
        assert (big - tiny) == big


class TestComparisons:
    @given(fractions_st, fractions_st)
    def test_matches_fraction_order(self, a, b):
        xa = BigReal.from_fraction(a, 192)
        xb = BigReal.from_fraction(b, 192)
        if abs(a - b) > (abs(a) + abs(b) + 1) * Fraction(1, 2**180):
            assert (xa < xb) == (a < b)
            assert (xa == xb) == (a == b)

    def test_mixed_precision_compare_exact(self):
        assert BigReal.from_int(1, 64) == BigReal.from_int(1, 256)


class TestDecimalRendering:
    def test_default_digit_rule(self):
        assert default_decimal_digits(128) == 37
        assert default_decimal_digits(256) == 76

    def test_simple_values(self):
        assert BigReal.from_fraction(Fraction(1, 8), 64).to_decimal(3) == "0.125"
        assert BigReal.from_int(0, 64).to_decimal() == "0"
        assert BigReal.from_int(-3, 64).to_decimal(2) == "-3.0"
        assert BigReal.from_int(1000, 64).to_decimal(4) == "1000"

    def test_scientific_form(self):
        tiny = BigReal.from_fraction(Fraction(1, 10**9), 64)
        assert tiny.to_decimal(4) == "1.000e-9"
        huge = BigReal.from_int(10**30, 64)
        assert huge.to_decimal(3) == "1.00e+30"

    def test_pi_digits(self):
        s = pi_value(256).to_decimal(50)
        assert s.startswith("3.1415926535897932384626433832795028841971693993751")

    def test_exponent_cap(self):
        # the largest and smallest renderable exponents, digits as mpmath prints them
        assert BigReal((1 << 63) + 1, MAX_DECIMAL_EXP, 64).to_decimal(5) == "1.9047e+1262630"
        assert BigReal((1 << 63) + 1, -MAX_DECIMAL_EXP, 64).to_decimal(5) == "4.4664e-1262593"
        for exp in (MAX_DECIMAL_EXP + 1, -MAX_DECIMAL_EXP - 1):
            x = BigReal((1 << 63) + 1, exp, 64)
            with pytest.raises(ValueError, match="must be at most"):
                x.to_decimal()
            assert repr(x) == f"BigReal(man={(1 << 63) + 1}, exp={exp}, prec=64)"

    def test_repr_of_huge_gamma_value_is_prompt(self):
        """``Gamma(1.1e12 + 1/3)`` is about ``2**(4.2e13)``; its decimal form would take hours."""
        g = gamma(Fraction(3_300_000_000_001, 3), 128)
        start = time.perf_counter()
        text = repr(g)
        assert time.perf_counter() - start < 1.0
        assert text == f"BigReal(man={g.man}, exp={g.exp}, prec=128)"
        assert g.exp > MAX_DECIMAL_EXP

    def test_to_fraction_of_huge_gamma_value_raises_at_once(self):
        """``to_fraction`` is capped like ``to_decimal``: no 2**(4.2e13) integer is built."""
        g = gamma(Fraction(3_300_000_000_001, 3), 128)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_DECIMAL_EXP|at most"):
            g.to_fraction()
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError):
            BigReal(1 << 63, -MAX_DECIMAL_EXP - 1, 64).to_fraction()
        assert BigReal(1 << 63, -MAX_DECIMAL_EXP, 64).to_fraction() == Fraction(2**63, 2**MAX_DECIMAL_EXP)

    @given(nonzero_fractions_st, st.integers(2, 40))
    def test_round_trip_through_decimal(self, fr, sig):
        x = BigReal.from_fraction(fr, 192)
        back = Fraction(x.to_decimal(sig))
        assert abs(back - fr) <= abs(fr) * Fraction(2, 10 ** (sig - 1))


class TestPi:
    def test_against_mpmath(self, mp_prec):
        import mpmath

        from helpers import assert_close

        with mp_prec(256):
            assert_close(pi_value(256), mpmath.pi, mpmath.mpf(2) ** -248)
