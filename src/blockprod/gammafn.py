"""Gamma function at arbitrary precision, and symbolic Gamma-ratio closed forms.

The Gamma evaluator is a Spouge-style rational approximation whose term
count is chosen from the target precision:

    Gamma(z+1) = (z+a)^(z+1/2) * exp(-(z+a)) * (c_0 + sum_{k<a} c_k/(z+k) + eps)

with ``c_0 = sqrt(2*pi)``, ``c_k = (-1)^(k-1) (a-k)^(k-1/2) e^(a-k) / (k-1)!``
and relative truncation error below ``a^(-1/2) (2*pi)^(-(a+1/2))`` for
``z >= 0``, so ``a ~ (precision + guard) / log2(2*pi)`` terms suffice.
Arguments below 1 are raised with the recurrence ``Gamma(x) = Gamma(x+1)/x``.

Everything is computed in exact integer fixed point (deterministic across
platforms).  The coefficient sum suffers cancellation that grows with ``a``
(the largest ``|c_k|`` is about ``2^(1.7 a)`` while the sum stays moderate),
so coefficients and the sum are carried at ``2a + 32`` extra fraction bits
on top of the usual working scale; the public error contract is a relative
error of at most ``2**(8 - precision_bits)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from blockprod import _kernels
from blockprod.bigreal import GUARD_BITS, BigReal, _check_precision
from blockprod.fixedpoint import (
    fx_div,
    fx_exp,
    fx_log,
    fx_log_frac,
    fx_sin,
    fx_sqrt,
    pi_fixed,
    rshift_round,
    sqrt2pi_fixed,
)

__all__ = [
    "PoleError",
    "BalanceError",
    "GammaExpr",
    "gamma",
    "log_gamma",
    "eval_gamma_expr",
    "gamma_ratio_product",
    "sin_pi",
]


class PoleError(ValueError):
    """Gamma evaluated at a pole (0 or a negative integer)."""


class BalanceError(ValueError):
    """Parameter vectors whose sums differ where equality is required."""


def _as_rational(x) -> Fraction:
    if isinstance(x, BigReal):
        return x.to_fraction()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected a rational or BigReal argument, got {type(x).__name__}")


def _check_gamma_arg(x: Fraction) -> Fraction:
    if x <= 0:
        if x.denominator == 1:
            raise PoleError(f"Gamma pole at {x}")
        raise ValueError(f"Gamma argument must be positive, got {x}")
    return x


# --------------------------------------------------------------------------
# Spouge kernel
# --------------------------------------------------------------------------

_SPOUGE_CACHE: dict[int, tuple[int, int, list[int]]] = {}


def _spouge_coefficients(F: int) -> tuple[int, int, list[int]]:
    """Return ``(a, FS, coeffs)`` for working scale ``F``.

    ``coeffs[k]`` is ``c_k`` at the inflated scale ``FS = F + 2a + 32`` used
    for the cancellation-prone sum; 1000/2651 is a lower approximation of
    ``1/log2(2*pi)`` so the chosen ``a`` errs on the large (safe) side.
    """
    cached = _SPOUGE_CACHE.get(F)
    if cached is not None:
        return cached
    a = (F + 16) * 1000 // 2651 + 2
    FS = F + 2 * a + 32
    coeffs = [sqrt2pi_fixed(FS)]
    fact = 1  # (k-1)!
    for k in range(1, a):
        m = a - k
        num = (m**k * fx_exp(m << FS, FS)) // fact
        ck = fx_div(num, fx_sqrt(m << FS, FS), FS)
        coeffs.append(ck if (k & 1) else -ck)
        fact *= k
    result = (a, FS, coeffs)
    _SPOUGE_CACHE[F] = result
    return result


def _loggamma_fixed(x: Fraction, F: int) -> int:
    """``log Gamma(x)`` for rational ``x > 0`` at fixed-point scale ``F``."""
    a, FS, coeffs = _spouge_coefficients(F)
    p, q = x.numerator, x.denominator
    reduction = 0
    while p < q:  # Gamma(x) = Gamma(x+1)/x
        reduction += fx_log_frac(p, q, F)
        p += q
    zp, zq = p - q, q  # z = x - 1 >= 0
    S = coeffs[0]
    for k in range(1, a):
        S += coeffs[k] * zq // (zp + k * zq)
    if S <= 0:
        raise ArithmeticError("Spouge sum collapsed; guard bits insufficient")
    ln_s = rshift_round(fx_log(S, FS), FS - F)
    # (z + 1/2) log(z + a): the product scales the log's error by z, so the
    # log is carried bitlen(z) + 8 bits deeper and rounded after multiplying
    extra = (zp // zq).bit_length() + 8
    ln_za = fx_log_frac(zp + a * zq, zq, F + extra)
    t1 = rshift_round((2 * zp + zq) * ln_za // (2 * zq), extra)
    t2 = ((zp + a * zq) << F) // zq  # z + a
    return t1 - t2 + ln_s - reduction


def gamma(x, precision_bits: int) -> BigReal:
    """``Gamma(x)`` for a positive rational (or BigReal) ``x``.

    Relative error at most ``2**(8 - precision_bits)``; poles and
    nonpositive arguments raise.
    """
    prec = _check_precision(precision_bits)
    fr = _check_gamma_arg(_as_rational(x))
    F = prec + GUARD_BITS
    return BigReal.exp_of_fixed(_loggamma_fixed(fr, F), F, prec)


def log_gamma(x, precision_bits: int) -> BigReal:
    """``log Gamma(x)``; ``exp(log_gamma(x))`` matches ``gamma(x)`` to precision."""
    prec = _check_precision(precision_bits)
    fr = _check_gamma_arg(_as_rational(x))
    F = prec + GUARD_BITS
    return BigReal.from_fixed(_loggamma_fixed(fr, F), F, prec)


def sin_pi(z, precision_bits: int) -> BigReal:
    """``sin(pi * z)`` for rational ``0 < z < 1`` (used by reflection checks)."""
    prec = _check_precision(precision_bits)
    fr = _as_rational(z)
    if not 0 < fr < 1:
        raise ValueError(f"sin_pi expects 0 < z < 1, got {fr}")
    F = prec + GUARD_BITS
    x = pi_fixed(F) * fr.numerator // fr.denominator
    return BigReal.from_fixed(fx_sin(x, F), F, prec)


# --------------------------------------------------------------------------
# symbolic closed forms
# --------------------------------------------------------------------------


def _normalize_args(args) -> list[Fraction]:
    out = []
    for arg in args:
        fr = Fraction(arg)
        if fr <= 0:
            raise PoleError(f"Gamma-expression argument must be positive, got {fr}")
        out.append(fr)
    return out


@dataclass(frozen=True)
class GammaExpr:
    """``prefactor * prod Gamma(num_i) / prod Gamma(den_j)`` with rational args.

    Arguments are kept as sorted multisets with common numerator/denominator
    occurrences cancelled, so structurally equal values compare equal.
    """

    prefactor: Fraction
    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def __init__(self, prefactor, num=(), den=()):
        # drop unit factors (Gamma(1) = 1 exactly), then cancel shared args
        nums = [a for a in _normalize_args(num) if a != 1]
        dens = [a for a in _normalize_args(den) if a != 1]
        for arg in list(nums):
            if arg in dens:
                nums.remove(arg)
                dens.remove(arg)
        object.__setattr__(self, "prefactor", Fraction(prefactor))
        object.__setattr__(self, "num", tuple(sorted(nums)))
        object.__setattr__(self, "den", tuple(sorted(dens)))

    @staticmethod
    def _render_side(args: tuple[Fraction, ...]) -> str:
        parts = []
        i = 0
        while i < len(args):
            j = i
            while j < len(args) and args[j] == args[i]:
                j += 1
            factor = f"G({args[i]})"
            if j - i > 1:
                factor += f"^{j - i}"
            parts.append(factor)
            i = j
        return " * ".join(parts)

    def text(self) -> str:
        """Canonical text form, e.g. ``8 * G(1/2) / (G(1/4)^2)``."""
        head_parts = []
        if self.prefactor != 1 or not self.num:
            head_parts.append(str(self.prefactor))
        if self.num:
            head_parts.append(self._render_side(self.num))
        out = " * ".join(head_parts)
        if self.den:
            out += f" / ({self._render_side(self.den)})"
        return out

    def __str__(self) -> str:
        return self.text()

    def to_json_dict(self) -> dict:
        return {
            "prefactor": str(self.prefactor),
            "num": [str(x) for x in self.num],
            "den": [str(x) for x in self.den],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GammaExpr":
        return cls(
            Fraction(obj["prefactor"]),
            tuple(Fraction(s) for s in obj["num"]),
            tuple(Fraction(s) for s in obj["den"]),
        )


def eval_gamma_expr(expr: GammaExpr, precision_bits: int) -> BigReal:
    """Evaluate a :class:`GammaExpr` numerically (log space, one final rounding)."""
    prec = _check_precision(precision_bits)
    F = prec + GUARD_BITS
    ln = 0
    for arg in expr.num:
        ln += _loggamma_fixed(arg, F)
    for arg in expr.den:
        ln -= _loggamma_fixed(arg, F)
    value = BigReal.exp_of_fixed(ln, F, prec)
    if expr.prefactor == 1:
        return value
    return value * expr.prefactor


# --------------------------------------------------------------------------
# Gamma-ratio products
# --------------------------------------------------------------------------


def _ratio_params(args) -> tuple[tuple[Fraction, ...], tuple[int, ...], tuple[int, ...]]:
    frs = tuple(Fraction(x) for x in args)
    for fr in frs:
        if fr <= 0:
            raise PoleError(f"product parameters must be positive rationals, got {fr}")
    return frs, tuple(f.numerator for f in frs), tuple(f.denominator for f in frs)


def gamma_ratio_product(a, b, N: int, precision_bits: int) -> tuple[BigReal, BigReal]:
    """Partial and closed value of ``prod_{n>=0} (n+a_1)...(n+a_d)/((n+b_1)...(n+b_d))``.

    Returns ``(partial, closed)`` where ``partial`` is the product over
    ``n = 0..N`` (accumulated in log space) and ``closed`` is
    ``Gamma(b_1)...Gamma(b_d) / (Gamma(a_1)...Gamma(a_d))``, the limit when
    the parameter sums balance.  The balance check is exact rational
    arithmetic; mismatched sums raise :class:`BalanceError`.
    """
    prec = _check_precision(precision_bits)
    a_fr, a_num, a_den = _ratio_params(a)
    b_fr, b_num, b_den = _ratio_params(b)
    if len(a_fr) != len(b_fr) or not a_fr:
        raise ValueError("parameter vectors must have equal nonzero length")
    if sum(a_fr) != sum(b_fr):
        raise BalanceError(f"sum(a) = {sum(a_fr)} != sum(b) = {sum(b_fr)}")
    if N < 0:
        raise ValueError("N must be >= 0")
    F = prec + GUARD_BITS
    logsum = _kernels.logsum_ratio_product(a_num, a_den, b_num, b_den, 0, N, F)
    partial = BigReal.exp_of_fixed(logsum, F, prec)
    closed = eval_gamma_expr(GammaExpr(1, num=b_fr, den=a_fr), prec)
    return partial, closed
