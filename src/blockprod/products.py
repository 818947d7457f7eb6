"""Truncated product evaluation, tail bounds, and verification reports.

Every partial product is the exponential of an integer fixed-point log-sum
at scale ``F = precision + GUARD_BITS``.  Word products take the
telescoped sum of the paper's lemma (:func:`blockprod.identities.logsum_word`):
about one Euler-Maclaurin run per level over a balanced Gamma-ratio series
plus a few dozen pieces, each an exact product below the series threshold
and the series above it, summed with guard bits and rounded once to within
one unit of ``2**-F``.  The left side of ``rivoal_eq1``
(the grouped 4/pi form) adds one balanced series per dyadic block edge
(:func:`blockprod.identities.logsum_rivoal_grouped`), summed with 16 guard
bits and rounded once to within one unit of ``2**-F``.  The
left side of ``companion_eq2`` is that grouped log-sum minus twice the
word product of the base-2 word ``1``
(:func:`blockprod.identities.logsum_companion`).  Each log-sum is
built from integers fixed by their own index, edge or prefix length and by
``F``, so a range taken as a difference of prefixes, or disjoint ranges
summed in any order, reproduce the whole-range result exactly (the
documented contract allows 4 ulps; this implementation gives 0).

Tail bound.  For a product with balanced parameter vectors the n-th term
satisfies ``|log term_n| <= C(N)/n^2`` for all ``n > N`` (derivation in
:func:`tail_estimate`), and the block count of an L-digit window never
exceeds the digit count ``floor(log_B n) + 1``.  Hence

    |log full - log partial_N|  <=  C(N) * integral_N^inf (log_B t + 1)/t^2 dt
                                 =  C(N) * (log_B N + 1 + 1/ln B) / N.

All constants are computed from the parameter vectors with exact rational
arithmetic (no fitted factors); the only non-rational inputs, ``log_B N``
and ``1/ln B``, are rounded *upward* with explicit slack.  The verdict reads
this exact rational bound; ``tail_estimate`` reports it rounded to nearest,
which may sit a last bit below it.
"""

from __future__ import annotations

from fractions import Fraction

from blockprod.bigreal import GUARD_BITS, BigReal, _abs_gap, _check_precision, _round_ratio, pi_value
from blockprod.fixedpoint import fx_div, fx_log
from blockprod.gammafn import eval_gamma_expr
from blockprod.identities import (
    DEFAULT_PARAMS,
    ProductSpec,
    _logsum_word,
    closed_form_baseB,
    companion_closed_form,
    logsum_companion,
    logsum_rivoal_grouped,
    logsum_word,
)
from blockprod.words import Word, _Record, all_words

__all__ = [
    "VerifyReport",
    "eval_lhs_partial",
    "tail_estimate",
    "verify",
    "enumerate_words",
    "default_corpus",
    "NAMED_FORMULAS",
    "TAIL_FACTOR",
    "MAX_WORDS",
]

NAMED_FORMULAS = ("rivoal_eq1", "companion_eq2")

# verdict threshold is max(tolerance, TAIL_FACTOR * exact tail bound): a partial
# product cannot be expected to sit closer to the limit than its own tail.
TAIL_FACTOR = 2

# enumerate_words refuses a larger corpus: the word count bounds its run time
# and memory (at 2048 bits a word of a full corpus takes 0.06-0.12 s, and
# the values it shares with the others about 0.2 MiB).
MAX_WORDS = 512


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def eval_lhs_partial(spec: ProductSpec, N: int, precision_bits: int) -> BigReal:
    """First ``N`` factors of the block-exponent product, in log space.

    Exponents are the block-occurrence counts of ``spec.word``.  The log-sum
    is :func:`blockprod.identities.logsum_word`, the telescoped sum of
    about one Euler-Maclaurin run per level and a few dozen pieces, within
    one unit of ``2**-F`` of the exact log-sum.
    """
    prec = _check_precision(precision_bits)
    if N < 1:
        raise ValueError("N must be >= 1")
    F = prec + GUARD_BITS
    return BigReal.exp_of_fixed(logsum_word(spec, N, F), F, prec)


# --------------------------------------------------------------------------
# tail bounds
# --------------------------------------------------------------------------

_TAIL_F = 96  # fixed-point scale for the two logarithms entering the bound
_TAIL_SLACK = 1 << (_TAIL_F - 64)  # generous upper slack for their rounding


def _log_ratio_upper(N: int, B: int) -> Fraction:
    """Upper bound on ``log_B N`` as an exact rational."""
    t = fx_div(fx_log(N << _TAIL_F, _TAIL_F), fx_log(B << _TAIL_F, _TAIL_F), _TAIL_F)
    return Fraction(t + _TAIL_SLACK, 1 << _TAIL_F)


def _inv_ln_upper(B: int) -> Fraction:
    """Upper bound on ``1 / ln B``."""
    t = fx_div(1 << _TAIL_F, fx_log(B << _TAIL_F, _TAIL_F), _TAIL_F)
    return Fraction(t + _TAIL_SLACK, 1 << _TAIL_F)


def _tail_fraction(spec: ProductSpec, N: int) -> Fraction:
    """Rigorous upper bound on ``|log full - log partial_N|`` (see module docstring).

    Per-term bound: write ``g_i(x) = log((x+a_i)/(x+b_i))``, so that

        log term_n = sum_i [ g_i(Bn) - sum_{k<B} g_i(B^2 n + Bk) ].

    Expanding ``g_i(x) = (a-b)/x - (a^2-b^2)/(2x^2) + O(x^-3)`` and using the
    exact harmonic sums of the inner k-average gives, for ``Bn >= 2*max(a,b,1)``,

        log term_n = Cmain / n^2 + R_n,   |R_n| <= D3 / n^3,

        Cmain = sum_i (a_i-b_i)(B-1)(1 - (a_i+b_i)/B) / (2 B^2),
        D3    = sum_i [ |a_i-b_i|/(3B) + |a_i^2-b_i^2|/B^3 + 4(a_i^3+b_i^3)/B^3 ].

    For n > N this yields ``|log term_n| <= (|Cmain| + D3/N)/n^2``.
    """
    B = spec.base
    biggest = max([Fraction(1), *spec.a, *spec.b])
    n_min = max(2, -(-2 * biggest.numerator // (biggest.denominator * B)))
    if N < n_min:
        raise ValueError(f"tail bound needs N >= {n_min} for these parameters")
    c_main = Fraction(0)
    d3 = Fraction(0)
    for ai, bi in zip(spec.a, spec.b):
        c_main += (ai - bi) * (B - 1) * (1 - (ai + bi) / B) / (2 * B * B)
        d3 += abs(ai - bi) / (3 * B) + abs(ai * ai - bi * bi) / B**3
        d3 += 4 * (ai**3 + bi**3) / B**3
    c_t = abs(c_main) + d3 / N
    return c_t * (_log_ratio_upper(N, B) + 1 + _inv_ln_upper(B)) / N


def tail_estimate(spec: ProductSpec, N: int) -> BigReal:
    """The tail bound on the log-gap left after ``N`` terms, rounded to nearest at 64 bits.

    The exact rational bound is rigorous and decreasing in ``N``; the rounded
    value may sit a last bit below it.
    """
    return BigReal.from_fraction(_tail_fraction(spec, N), 64)


def _tail_fraction_bitlen_form(N: int) -> Fraction:
    """Tail bound for the 4/pi family (exponent magnitude <= 2 * digit count).

    ``|log((4k+2)^2/((4k+1)(4k+3)))| = log(1 + 1/((4k+1)(4k+3))) <= 1/(16k^2)``
    and the exponent magnitude is at most ``2 (log2 k + 1)``, so the tail is
    bounded by ``integral_N^inf (log2 t + 1)/(8 t^2) dt = (log2 N + 1 + 1/ln 2)/(8N)``.
    """
    if N < 2:
        raise ValueError("tail bound needs N >= 2")
    return (_log_ratio_upper(N, 2) + 1 + _inv_ln_upper(2)) / (8 * N)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


class VerifyReport(_Record):
    """Outcome of comparing a truncated product against its closed form."""

    _fields = ("spec", "terms_used", "precision_bits", "lhs_partial", "rhs_closed", "abs_gap",
               "rel_gap", "tail_estimate", "tolerance", "tail_factor", "passed")

    def __init__(
        self,
        spec: ProductSpec | str,
        terms_used: int,
        precision_bits: int,
        lhs_partial: BigReal,
        rhs_closed: BigReal,
        abs_gap: BigReal,
        rel_gap: BigReal,
        tail_estimate: BigReal,
        tolerance: Fraction,
        tail_factor: int,
        passed: bool,
    ) -> None:
        vars(self).update(
            spec=spec, terms_used=terms_used, precision_bits=precision_bits,
            lhs_partial=lhs_partial, rhs_closed=rhs_closed, abs_gap=abs_gap, rel_gap=rel_gap,
            tail_estimate=tail_estimate, tolerance=tolerance, tail_factor=tail_factor, passed=passed,
        )

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def fields(self) -> dict:
        """The report's columns in order, with the spec as its label (text and CSV output)."""
        spec = self.spec
        if not isinstance(spec, str):
            a = ",".join(str(x) for x in spec.a)
            b = ",".join(str(x) for x in spec.b)
            spec = f"base={spec.base} word={spec.word.render()} a={a} b={b}"
        return {
            "spec": spec,
            "terms_used": self.terms_used,
            "precision_bits": self.precision_bits,
            "lhs": self.lhs_partial.to_decimal(),
            "rhs": self.rhs_closed.to_decimal(),
            "abs_gap": self.abs_gap.to_decimal(),
            "rel_gap": self.rel_gap.to_decimal(),
            "tail_estimate": self.tail_estimate.to_decimal(),
            "verdict": self.verdict,
        }

    def to_json_dict(self) -> dict:
        """:meth:`fields` with the spec as an object, and the verdict's threshold inputs."""
        obj = self.fields()
        obj["spec"] = {"formula": self.spec} if isinstance(self.spec, str) else self.spec.to_json_dict()
        verdict = obj.pop("verdict")
        obj.update(tolerance=str(self.tolerance), tail_factor=self.tail_factor, verdict=verdict)
        return obj


def _as_tolerance(tolerance) -> Fraction:
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def verify(
    target,
    N: int = 10**5,
    precision_bits: int = 128,
    tolerance=Fraction(1, 1000),
) -> VerifyReport:
    """Compare a truncated product with its closed form and report the gaps.

    ``target`` is a :class:`ProductSpec` or one of the named formulas
    ``"rivoal_eq1"`` (grouped digit-count product vs ``4/pi``; the product
    is a Gamma-ratio block sum, while the reference ``pi`` comes from the
    arctangent series, *not* from Gamma values) and
    ``"companion_eq2"`` (signed digit-count product vs its Gamma closed
    form).  The verdict is ``pass`` iff the relative gap is at most
    ``max(tolerance, TAIL_FACTOR * tail)`` for the exact rational tail bound
    (the report's ``tail_estimate`` is it rounded to nearest); invalid input
    raises instead of reporting a failure.
    """
    return _verify(target, N, precision_bits, tolerance, {})


def _verify(target, N: int, precision_bits: int, tolerance, shared: dict) -> VerifyReport:
    """:func:`verify`, a word's sums and tail bound read from and added to the tables of ``shared``.

    ``shared`` holds the word sums' tables (``identities._logsum_word``) and
    one more, ``("tail",)``: ``(base, a, b, N) -> _tail_fraction``.
    """
    prec = _check_precision(precision_bits)
    tol = _as_tolerance(tolerance)
    if N < 1:
        raise ValueError("N must be >= 1")
    F = prec + GUARD_BITS
    if isinstance(target, str):
        if target not in NAMED_FORMULAS:
            raise ValueError(f"unknown formula {target!r}; expected one of {NAMED_FORMULAS}")
        tail = _tail_fraction_bitlen_form(N)
        if target == "rivoal_eq1":
            logsum = logsum_rivoal_grouped(1, N, F)
            pi = pi_value(prec)
            rhs = _round_ratio(4, pi.man, -pi.exp, prec)
        else:
            logsum = logsum_companion(1, N, F)
            rhs = eval_gamma_expr(companion_closed_form(), prec)
        lhs = BigReal.exp_of_fixed(logsum, F, prec)
    elif isinstance(target, ProductSpec):
        tails = shared.setdefault(("tail",), {})
        key = (target.base, target.a, target.b, N)
        tail = tails.get(key)
        if tail is None:  # refuses a too small N before either side is summed
            tail = tails[key] = _tail_fraction(target, N)
        lhs = BigReal.exp_of_fixed(_logsum_word(target, N, F, shared), F, prec)
        rhs = eval_gamma_expr(closed_form_baseB(target), prec)
    else:
        raise TypeError(f"target must be a ProductSpec or formula name, got {type(target).__name__}")
    abs_gap = _abs_gap(lhs, rhs)
    # the rounded gap is divided, so rel_gap is the quotient of the reported values
    rel_gap = _round_ratio(abs_gap.man, abs(rhs.man), abs_gap.exp - rhs.exp, prec)
    threshold = max(tol, TAIL_FACTOR * tail)
    return VerifyReport(
        spec=target,
        terms_used=N,
        precision_bits=prec,
        lhs_partial=lhs,
        rhs_closed=rhs,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        tail_estimate=BigReal.from_fraction(tail, prec),
        tolerance=tol,
        tail_factor=TAIL_FACTOR,
        passed=rel_gap.to_fraction() <= threshold,
    )


def enumerate_words(
    base: int,
    max_len: int,
    N: int = 10**5,
    precision_bits: int = 128,
    tolerance=Fraction(1, 1000),
    a=None,
    b=None,
) -> list[VerifyReport]:
    """One verification report per nonempty word of length <= ``max_len``.

    Words are processed in lexicographic order of their rendered form.  The
    parameter vectors default to ``a = (1, 1)``, ``b = (0, 2)``.  The corpus
    is capped: ``max_len`` at 8, and the word count at :data:`MAX_WORDS`.

    The words share one base, parameter vectors and ``N``, so the call
    computes once what they share: the tail bound, and the values where
    their telescoped sums meet, as their blocks tile the same levels (the
    series edges ``G(Q, m)`` and the two per-end terms of each
    Euler-Maclaurin run end).  These live for the call alone; each is the
    integer a word computes alone, so every report equals :func:`verify`'s
    for its word.
    """
    if not 1 <= max_len <= 8:
        raise ValueError("max_len must be between 1 and 8")
    count = sum(base**ell for ell in range(1, max_len + 1))
    if count > MAX_WORDS:
        raise ValueError(f"corpus of {count} words exceeds the maximum of {MAX_WORDS}")
    a = DEFAULT_PARAMS[0] if a is None else tuple(Fraction(x) for x in a)
    b = DEFAULT_PARAMS[1] if b is None else tuple(Fraction(x) for x in b)
    shared: dict = {}
    return [
        _verify(ProductSpec(base, w, a, b), N, precision_bits, tolerance, shared)
        for w in all_words(base, max_len)
    ]


def default_corpus() -> list[Word]:
    """The desk-scale word corpus: base 2 up to length 5, bases 3 and 4 up to length 3."""
    words = all_words(2, 5)
    words += all_words(3, 3)
    words += all_words(4, 3)
    return words
