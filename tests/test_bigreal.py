"""BigReal construction, the once-rounded gap and ratio, equality, and decimal rendering."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockprod.bigreal import (
    MAX_DECIMAL_EXP,
    BigReal,
    _abs_gap,
    _round_ratio,
    default_decimal_digits,
    pi_value,
)
from blockprod.gammafn import GammaExpr, eval_gamma_expr, gamma

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
        assert (z.man, z.exp) == (0, 0)

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


def nearest(value: Fraction, prec: int) -> tuple[int, int]:
    """``(man, exp)`` of ``value`` rounded to ``prec`` bits, half to even, found on Fractions."""
    if value == 0:
        return 0, 0
    mag = abs(value)
    e = mag.numerator.bit_length() - mag.denominator.bit_length() - prec
    while mag >= Fraction(2) ** (e + prec):
        e += 1
    while mag < Fraction(2) ** (e + prec - 1):
        e -= 1
    m = round(mag / Fraction(2) ** e)  # round() on a Fraction rounds half to even
    if m == 1 << prec:
        m, e = m >> 1, e + 1
    return (m if value > 0 else -m), e


class TestArithmetic:
    """The gap and the ratio that ``verify``, ``eval_gamma_expr`` and ``alternating`` report
    are their exact values rounded once."""

    @given(fractions_st, fractions_st)
    def test_add(self, a, b):
        x, y = BigReal.from_fraction(a, 128), BigReal.from_fraction(b, 128)
        g = _abs_gap(x, y)
        assert (g.man, g.exp, g.prec) == (*nearest(abs(x.to_fraction() - y.to_fraction()), 128), 128)

    @given(fractions_st, st.integers(-(10**6), 10**6))
    def test_mul(self, a, k):
        """An integer prefactor (denominator 1)."""
        x = BigReal.from_fraction(a, 128)
        got = _round_ratio(x.man * k, 1, x.exp, 128)
        assert (got.man, got.exp) == nearest(x.to_fraction() * k, 128)

    @given(fractions_st, nonzero_fractions_st)
    def test_div(self, a, b):
        x, y = BigReal.from_fraction(a, 128), BigReal.from_fraction(b, 128)
        got = _round_ratio(x.man, abs(y.man), x.exp - y.exp, 128)
        assert (got.man, got.exp) == nearest(x.to_fraction() / abs(y.to_fraction()), 128)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _round_ratio(1, 0, 0, 128)

    def test_result_precision_is_max(self):
        a = BigReal.from_int(3, 64)
        b = BigReal.from_int(5, 256)
        assert _abs_gap(a, b).prec == _abs_gap(b, a).prec == 256
        assert _abs_gap(a, b) == BigReal.from_int(2, 256)

    def test_mixed_precision_gap_beyond_the_horizon(self):
        """A 64-bit side and a 256-bit side far below the horizon: the gap is the larger
        side, at 256 bits, not a value moved by a nudge placed at 64 bits."""
        one = BigReal.from_int(1, 64)
        tiny = BigReal.from_fraction(Fraction(1, 2**628), 256)
        for x, y in ((one, tiny), (tiny, one)):
            assert _abs_gap(x, y) == BigReal.from_int(1, 256)
            assert _abs_gap(x, y) == BigReal.from_fraction(1 - tiny.to_fraction(), 256)

    @given(nonzero_fractions_st, fractions_st)
    def test_mul_fraction_single_rounding(self, fr, a):
        x = BigReal.from_fraction(a, 128)
        got = _round_ratio(x.man * fr.numerator, fr.denominator, x.exp, 128)
        assert (got.man, got.exp) == nearest(x.to_fraction() * fr, 128)

    def test_far_apart_addition_rounds_to_big_operand(self):
        big = BigReal.from_int(1, 64)
        tiny = BigReal.from_fraction(Fraction(1, 2**500), 64)
        assert _abs_gap(big, tiny) == big
        assert _abs_gap(big, BigReal(-tiny.man, tiny.exp, 64)) == big
        assert _abs_gap(tiny, big) == big

    # (x, y) as (man, exp) pairs at 64 bits and the pinned (man, exp) of |x - y|; the
    # exponents differ by 64 or 65 (near ties, a borrow), by 144 (the last difference that is
    # shifted in full), by 145 and by 10**9 (beyond the horizon: the larger side)
    GAPS = [
        ((2**63 + 1, -63), (-(2**63 + 1), -127), (2**63 + 2, -63)),
        ((2**63 + 1, -63), (2**63 + 1, -127), (2**63, -63)),
        ((2**63 + 1, -63), (3 << 62, -128), (2**63 + 1, -63)),
        ((-(2**63), -63), (-(2**63 + 1), -127), (2**64 - 1, -64)),
        ((2**63 + 1, -63), (-(2**63 + 1), -207), (2**63 + 1, -63)),
        ((2**63 + 1, -63), (2**63 + 1, -207), (2**63 + 1, -63)),
        ((2**63 + 1, -63), (-(2**63 + 1), -208), (2**63 + 1, -63)),
        ((2**63 + 1, -63), (2**63 + 1, -63 - 10**9), (2**63 + 1, -63)),
    ]

    @pytest.mark.parametrize("x, y, want", GAPS)
    def test_gap_on_both_sides_of_the_horizon(self, x, y, want):
        x, y = BigReal(*x, 64), BigReal(*y, 64)
        start = time.perf_counter()
        g = _abs_gap(x, y)
        assert time.perf_counter() - start < 1.0
        assert (g.man, g.exp, g.prec) == (*want, 64)
        if abs(x.exp - y.exp) <= MAX_DECIMAL_EXP:
            assert g == BigReal.from_fraction(abs(x.to_fraction() - y.to_fraction()), 64)

    # GammaExpr(3/7, (10**7,)) and its reciprocal: values about 2**(+-2.2e8), whose
    # exponents are far past MAX_DECIMAL_EXP, so to_fraction would refuse them
    @pytest.mark.parametrize("num, den, want", [
        ((10**7,), (), (278285443777379446907227884309102190963, 218107877)),
        ((), (10**7,), (305699564723020939403193659779034784339, -218108135)),
    ])
    def test_prefactor_of_a_huge_gamma_value(self, num, den, want):
        start = time.perf_counter()
        v = eval_gamma_expr(GammaExpr(Fraction(3, 7), num, den), 128)
        assert time.perf_counter() - start < 1.0
        assert (v.man, v.exp, v.prec) == (*want, 128)
        assert abs(v.exp) > MAX_DECIMAL_EXP


class TestEquality:
    def test_structural(self):
        x = BigReal.from_int(1, 64)
        assert x == BigReal(1 << 63, -63, 64)
        assert x != BigReal.from_int(1, 256)  # the same number at another precision
        assert x != 1 and x != Fraction(1)
        with pytest.raises(TypeError):
            hash(x)


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
