"""Oracles made apart from blockprod: mpmath values and a string-search counter.

Nothing here imports blockprod.  Every value is derived from the definitions
in the project docs: block counts by scanning the digit string, Gamma values
and pi from mpmath, the Gamma arguments of the paper's closed forms, the tail
bounds, and truncated products term by term.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp, mpf

# --------------------------------------------------------------------------
# block counting by string search
# --------------------------------------------------------------------------


def expansion(n: int, base: int) -> str:
    """Digits of ``n`` in ``base``, most significant first; 0 has none."""
    if base == 2:
        return format(n, "b") if n else ""
    out = []
    while n:
        n, r = divmod(n, base)
        out.append("0123456789"[r])
    return "".join(reversed(out))


def count_in(word: str, digits: str) -> int:
    """Occurrences of ``word`` in the expansion ``digits`` (overlaps count).

    Words that start with 0 and hold a nonzero digit are counted in the
    expansion padded with ``len(word) - 1`` zeros; no other word is padded.
    """
    if not digits:
        return 0
    if word[0] == "0" and word.strip("0"):
        digits = "0" * (len(word) - 1) + digits
    count = 0
    i = digits.find(word)
    while i >= 0:
        count += 1
        i = digits.find(word, i + 1)
    return count


def count_block(word: str, base: int, n: int) -> int:
    return count_in(word, expansion(n, base))


# --------------------------------------------------------------------------
# numbers
# --------------------------------------------------------------------------


def rational(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def dyadic(v) -> mpf:
    """A program value sent as ``[mantissa, exponent, precision]``, exactly."""
    man, exp = v[0], v[1]
    with mp.workprec(max(abs(man).bit_length(), 1) + 8):
        return mpmath.ldexp(mpf(man), exp)


def from_rational(x, bits: int) -> mpf:
    x = rational(x)
    with mp.workprec(bits):
        return mpf(x.numerator) / x.denominator


def _arg_bits(x: Fraction) -> int:
    # the argument's rounding error is amplified by about x*log(x)
    return 2 * max(x.numerator.bit_length(), x.denominator.bit_length())


def gamma(x, bits: int) -> mpf:
    """Gamma(x) with ample guard bits over ``bits``."""
    x = rational(x)
    prec = bits + 64 + _arg_bits(x)
    with mp.workprec(prec):
        return mpmath.gamma(from_rational(x, prec))


def four_over_pi(bits: int) -> mpf:
    with mp.workprec(bits + 64):
        return 4 / mp.pi


def closed_form_args(base: int, word: str, a, b) -> tuple[list, list]:
    """Gamma arguments of a block-exponent product's closed form (prefactor 1).

    The paper's formula: numerator ``v/B^L + b_i/B^(L+1)`` and denominator
    ``v/B^L + a_i/B^(L+1)`` for a word of value v and length L; for the
    all-zeros word of length j, ``1 + b_i/B^(j+1)`` over ``1 + a_i/B^(j+1)``.
    """
    L = len(word)
    step = Fraction(1, base ** (L + 1))
    head = Fraction(1) if not word.strip("0") else Fraction(int(word, base), base**L)
    return ([head + rational(x) * step for x in b], [head + rational(x) * step for x in a])


# --------------------------------------------------------------------------
# tail bounds
# --------------------------------------------------------------------------


def tail_bitlen(N: int) -> mpf:
    """Log-gap bound of the 4/pi family after N terms: (log2 N + 1 + 1/ln 2)/(8N)."""
    with mp.workprec(96):
        return (mpmath.log(N, 2) + 1 + 1 / mpmath.log(2)) / (8 * N)


def tail_spec(base: int, a, b, N: int) -> mpf:
    """Log-gap bound ``C(N) (log_B N + 1 + 1/ln B) / N`` of a balanced product.

    ``C(N) = |sum_i (a_i-b_i)(B-1)(1-(a_i+b_i)/B)/(2B^2)| + D3/N`` with
    ``D3 = sum_i |a_i-b_i|/(3B) + |a_i^2-b_i^2|/B^3 + 4(a_i^3+b_i^3)/B^3``,
    from expanding ``log((x+a)/(x+b))`` to second order.
    """
    B = base
    c_main = Fraction(0)
    d3 = Fraction(0)
    for ai, bi in zip(map(rational, a), map(rational, b)):
        c_main += (ai - bi) * (B - 1) * (1 - (ai + bi) / B) / (2 * B * B)
        d3 += abs(ai - bi) / (3 * B) + abs(ai * ai - bi * bi) / B**3 + 4 * (ai**3 + bi**3) / B**3
    c = abs(c_main) + d3 / N
    with mp.workprec(96):
        return from_rational(c, 96) * (mpmath.log(N, B) + 1 + 1 / mpmath.log(B)) / N


# --------------------------------------------------------------------------
# truncated products, term by term
# --------------------------------------------------------------------------


def _bitlen(k: int) -> int:
    return len(expansion(k, 2))  # N_0(k) + N_1(k)


def _quarter_term(k: int) -> Fraction:
    return Fraction((4 * k + 2) ** 2, (4 * k + 1) * (4 * k + 3))


def _family_terms(family: str, N: int):
    """(exponent, term) pairs of the 4/pi family products up to N."""
    if family == "original":  # (1 + 1/(k+1))^(2 rho(k) floor(log2 k - 1)), 2 <= k <= N
        rho = (1, -1, 0, 0)
        for k in range(2, N + 1):
            e = 2 * rho[k % 4] * (_bitlen(k) - 2)
            if e:
                yield e, Fraction(k + 2, k + 1)
        return
    for k in range(1, N + 1):
        digits = expansion(k, 2)
        n0, n1 = digits.count("0"), digits.count("1")
        if family == "grouped":
            e = 2 * (n0 + n1)
        elif family == "companion":
            e = 2 * (n0 - n1)
        elif family == "alternating":
            e = 2 * (n0 + n1) * (-1) ** k
        else:
            raise ValueError(family)
        if e:
            yield e, _quarter_term(k)


def _spec_terms(base: int, word: str, a, b, N: int):
    B = base
    a = [rational(x) for x in a]
    b = [rational(x) for x in b]
    for n in range(1, N + 1):
        c = count_block(word, B, n)
        if not c:
            continue
        t = Fraction(1)
        for ai, bi in zip(a, b):
            t *= (B * n + ai) / (B * n + bi)
            for k in range(B):
                x = B * B * n + B * k
                t *= (x + bi) / (x + ai)
        yield c, t


def _product(terms, bits: int) -> mpf:
    prec = bits + 64
    with mp.workprec(prec):
        s = mpf(0)
        for e, t in terms:
            s += e * mpmath.log(mpf(t.numerator) / t.denominator)
        return mpmath.exp(s)


def family_partial(family: str, N: int, bits: int) -> mpf:
    return _product(_family_terms(family, N), bits)


def spec_partial(base: int, word: str, a, b, N: int, bits: int) -> mpf:
    return _product(_spec_terms(base, word, a, b, N), bits)
