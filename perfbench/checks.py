"""Checks of blockprod's outputs against the oracles, and their self-test.

Each workload's checker takes the outputs of one pass (as the worker sends
them) and returns the failed operations.  A failure on an input that
``workloads.KNOWN_GAMMA_FAULTS`` names is marked ``known``: it counts as a
failed operation without making the run incorrect.  ``selftest()`` feeds
every checker a perturbed output and fails if one is accepted, so a check
that can never fail is caught.  Run ``python3 perfbench/checks.py`` to run
the self-test alone.
"""

from __future__ import annotations

import csv
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

import oracles
from workloads import KNOWN_GAMMA_FAULTS, digest_counts


@dataclass
class Failure:
    op: str
    message: str
    ops: int = 1  # operations this failure stands for
    known: bool = False


gamma = lru_cache(maxsize=None)(oracles.gamma)


def expr_value(prefactor, num, den, bits: int) -> mpf:
    """``prefactor * prod Gamma(num) / prod Gamma(den)`` by mpmath."""
    with mp.workprec(bits + 64):
        value = oracles.from_rational(prefactor, bits + 64)
        for x in num:
            value *= gamma(Fraction(x), bits)
        for x in den:
            value /= gamma(Fraction(x), bits)
        return +value


def form_value(form: dict, bits: int) -> mpf:
    return expr_value(form["prefactor"], form["num"], form["den"], bits)


def spec_value(base, word, a, b, bits: int) -> mpf:
    num, den = oracles.closed_form_args(base, word, a, b)
    return expr_value(1, num, den, bits)


# --------------------------------------------------------------------------
# elementary checks: each returns True when the output is acceptable
# --------------------------------------------------------------------------


CHECK_PREC = 2200  # bits; over twice the widest value checked (1024 bits + guard)


def rel_err(got, ref) -> mpf:
    with mp.workprec(CHECK_PREC):
        return abs(got / ref - 1)


def gamma_ok(got, ref, p: int) -> bool:
    """Relative error within the documented 2^(8-p)."""
    return rel_err(got, ref) <= mpmath.ldexp(1, 8 - p)


partial_ok = gamma_ok  # small-N products carry the same 2^(8-p) budget


def counts_ok(digest: str, counts) -> bool:
    return digest == digest_counts(counts)


def residual_ok(residual: str, expected: Fraction = Fraction(0)) -> bool:
    return Fraction(residual) == expected


def below_within(lhs, limit, tail, factor: int = 2) -> bool:
    """A partial that increases to ``limit`` sits below it, within ``factor * tail``."""
    with mp.workprec(300):
        return lhs < limit and (limit - lhs) <= factor * tail * limit


def log_gap_ok(lhs, ref, bound) -> bool:
    with mp.workprec(300):
        return abs(mpmath.log(lhs / ref)) <= bound


def ulps_ok(a, b, p: int, ulps: int) -> bool:
    with mp.workprec(2 * p + 64):
        ulp = mpmath.ldexp(1, int(mpmath.floor(mpmath.log(abs(b), 2))) - p + 1)
        return abs(a - b) <= ulps * ulp


def shrink_ok(estimates, factor: int = 5) -> bool:
    """Cauchy gaps between successive estimates shrink by ``factor`` or more."""
    with mp.workprec(300):
        gaps = [abs(y - x) for x, y in zip(estimates, estimates[1:])]
        return all(g1 > 0 and g0 >= factor * g1 for g0, g1 in zip(gaps, gaps[1:]))


def decimal(text: str) -> mpf:
    with mp.workprec(4 * len(text) + 64):
        return mpf(text)


def sig_digits(text: str) -> int:
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def decimal_ok(text: str, value, p: int) -> bool:
    """A rendered decimal is within its last digit (plus 2^(8-p)) of ``value``."""
    with mp.workprec(4 * len(text) + 64):
        tol = mpf(10) ** (1 - sig_digits(text)) + mpmath.ldexp(1, 8 - p)
        return rel_err(decimal(text), value) <= tol


# --------------------------------------------------------------------------
# per-workload checkers
# --------------------------------------------------------------------------


class Checker:
    def __init__(self):
        self.failures: list[Failure] = []

    def expect(self, ok: bool, op: str, message: str, ops: int = 1, known: bool = False):
        if not ok:
            self.failures.append(Failure(op, message, ops, known))
        return ok

    def verify_report(self, op: str, r: dict, limit_ok, p: int):
        """Verdict, rendered decimals, and the caller's numeric condition on a verify report."""
        lhs, rhs = oracles.dyadic(r["lhs"]), oracles.dyadic(r["rhs"])
        ok = r["verdict"] == "pass" and r["json"]["verdict"] == "pass"
        ok = ok and decimal_ok(r["json"]["lhs"], lhs, p) and decimal_ok(r["json"]["rhs"], rhs, p)
        return self.expect(ok and limit_ok(lhs, rhs), op, "verdict, rendering or gap wrong")


def check_pi_family(out: dict, inp: dict) -> list[Failure]:
    c = Checker()
    p = 128
    N, K, n = inp["verify_N"], inp["blocks"], inp["small_N"]
    limit = oracles.four_over_pi(p)
    c.verify_report("verify rivoal_eq1", out["rivoal"],
             lambda lhs, rhs: below_within(lhs, limit, oracles.tail_bitlen(N))
             and gamma_ok(rhs, limit, p), p)
    ref = form_value(out["companion"]["form"], p)
    c.verify_report("verify companion_eq2", out["companion"],
             lambda lhs, rhs: gamma_ok(rhs, ref, p)
             and log_gap_ok(lhs, ref, oracles.tail_bitlen(N) + mpmath.ldexp(1, 8 - p)), p)
    shrinks = shrink_ok([oracles.dyadic(v) for v in out["alternating"]])
    for k in inp["alt_N"]:
        c.expect(shrinks, f"alternating_product_estimate({k})", "Cauchy gaps do not shrink 5x")
    original, grouped = oracles.dyadic(out["original"]), oracles.dyadic(out["grouped"])
    ok = ulps_ok(original, grouped, p, 4) and below_within(grouped, limit, oracles.tail_bitlen(K))
    c.expect(ok, f"rivoal_original_partial({4 * K + 3})", "original and grouped partials differ")
    c.expect(ok, f"rivoal_grouped_partial({K})", "original and grouped partials differ")
    for family, v in out["small"].items():
        c.expect(partial_ok(oracles.dyadic(v), oracles.family_partial(family, n, p), p),
                 f"{family} partial({n})", "differs from the mpmath product")
    return c.failures


def _spec_report(c: Checker, op: str, r: dict, spec: dict, N: int, p: int):
    base, word, a, b = spec["base"], spec["word"], spec["a"], spec["b"]
    ref = spec_value(base, word, a, b, p)
    bound = oracles.tail_spec(base, a, b, N) + mpmath.ldexp(1, 8 - p)
    c.verify_report(op, r, lambda lhs, rhs: gamma_ok(rhs, ref, p) and gamma_ok(form_value(r["form"], p), ref, p)
             and log_gap_ok(lhs, ref, bound), p)


def check_word_products(out: dict, inp: dict) -> list[Failure]:
    c = Checker()
    p = 128
    e = inp["enumerate"]
    for r in out["enumerate"]:
        _spec_report(c, f"enumerate_words word {r['spec']['word']}", r, r["spec"], e["N"], p)
    if len(out["enumerate"]) != sum(e["base"] ** k for k in range(1, e["max_len"] + 1)):
        c.expect(False, "enumerate_words", "wrong number of reports")
    n = inp["small_N"]
    for spec, r, v in zip(inp["specs"], out["verify"], out["small"]):
        label = f"base {spec['base']} word {spec['word']} a={','.join(spec['a'])}"
        _spec_report(c, f"verify {label}", r, spec, inp["N"], p)
        ref = oracles.spec_partial(spec["base"], spec["word"], spec["a"], spec["b"], n, p)
        c.expect(partial_ok(oracles.dyadic(v), ref, p), f"eval_lhs_partial {label}",
                 "differs from the mpmath product")
    return c.failures


def count_ns(inp: dict) -> list[int]:
    return list(range(inp["range"])) + [int(x) for x in inp["big"]]


def check_digit_counts(out: dict, inp: dict) -> list[Failure]:
    c = Checker()
    ns = count_ns(inp)
    expansions = {}
    for (base, word), digest in zip(inp["words"], out["digests"]):
        if base not in expansions:
            expansions[base] = [oracles.expansion(n, base) for n in ns]
        counts = [oracles.count_in(word, s) for s in expansions[base]]
        c.expect(counts_ok(digest, counts), f"count_block base {base} word {word}",
                 "counts differ from the string-search oracle", ops=len(ns))
    return c.failures


def check_closed_forms(out: dict, inp: dict) -> list[Failure]:
    c = Checker()
    top = max(inp["precisions"])
    refs = {}
    for (base, word), form in zip(inp["words"], out["forms"]):
        refs[base, word] = {p: spec_value(base, word, (1, 1), (0, 2), p) for p in inp["precisions"]}
        c.expect(gamma_ok(form_value(form, top), refs[base, word][top], top),
                 f"closed_form_baseB base {base} word {word}", "not the paper's closed form")
    for p in inp["precisions"]:
        for (base, word), (v, text) in zip(inp["words"], out["values"][str(p)]):
            value = oracles.dyadic(v)
            ok = gamma_ok(value, refs[base, word][p], p) and decimal_ok(text, value, p)
            c.expect(ok, f"eval_gamma_expr base {base} word {word} at {p} bits",
                     "value or decimal rendering off the mpmath closed form")
    args = [Fraction(x) for x in inp["gamma_args"] + inp["gamma_large"]]
    cases = [(x, p) for p in inp["gamma_precisions"] for x in args]
    for (x, p), v in zip(cases, out["gamma"]):
        err = rel_err(oracles.dyadic(v), gamma(x, p))
        c.expect(err <= mpmath.ldexp(1, 8 - p), f"gamma({x}) at {p} bits",
                 f"relative error 2^{float(mpmath.log(err, 2)):.1f} > 2^{8 - p}",
                 known=x in KNOWN_GAMMA_FAULTS)
    for i, r in enumerate(out["residuals"]):
        c.expect(residual_ok(r), f"lemma1_residual trial {i}", f"residual {r} != 0")
    for i, (d, r) in enumerate(zip(inp["controls"], out["controls"])):
        c.expect(residual_ok(r, -Fraction(d["f0"])), f"lemma1_residual mis-ranged control {i}",
                 f"residual {r} != -f(0) = {-Fraction(d['f0'])}")
    c.expect(out["grouping"] is True, f"grouping_identity_holds({inp['grouping_K']})",
             "grouping identity does not hold")
    return c.failures


CHECKERS = {
    "pi-family": check_pi_family,
    "word-products": check_word_products,
    "digit-counts": check_digit_counts,
    "closed-forms": check_closed_forms,
}


# --------------------------------------------------------------------------
# CLI output
# --------------------------------------------------------------------------


def fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


_FACTOR = re.compile(r"G\(([^)]+)\)(?:\^(\d+))?")


def parse_gamma_text(text: str) -> tuple[Fraction, list, list]:
    """Read a closed form's canonical text, e.g. ``8 * G(1/2) / (G(1/4)^2)``."""
    head, _, tail = text.partition(" / ")
    prefactor = Fraction(1)
    num = []
    for part in head.split(" * "):
        m = _FACTOR.fullmatch(part)
        if m:
            num += [Fraction(m.group(1))] * int(m.group(2) or 1)
        else:
            prefactor *= Fraction(part)
    den = []
    for m in _FACTOR.finditer(tail):
        den += [Fraction(m.group(1))] * int(m.group(2) or 1)
    return prefactor, num, den


def _verify_cli(f: dict, ref, tail, p: int) -> bool:
    lhs, rhs = decimal(f["lhs"]), decimal(f["rhs"])
    return (f["verdict"] == "pass" and decimal_ok(f["rhs"], ref, p)
            and log_gap_ok(lhs, ref, tail + mpf(10) ** (1 - sig_digits(f["lhs"])))
            and rhs > 0)


def check_cli(argv: list[str], stdout: str) -> bool:
    """Whether one CLI command's output is right (its exit code is checked apart)."""
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    f = fields(stdout)
    if cmd == "count":
        base, word, n = int(opts["--base"]), opts["--word"], int(argv[-1])
        return stdout.strip() == str(oracles.count_block(word, base, n))
    if cmd == "closed-form":
        pre, num, den = parse_gamma_text(stdout.strip())
        ref = spec_value(int(opts["--base"]), opts["--word"], (1, 1), (0, 2), 256)
        return gamma_ok(expr_value(pre, num, den, 256), ref, 256)
    if cmd == "lemma1-fuzz":
        return stdout.strip() == "1000/1000 exact"
    if cmd == "rivoal-forms":
        K = int(f["blocks"])
        original, grouped = decimal(f["original_partial"]), decimal(f["grouped_partial"])
        tol = mpf(10) ** (2 - sig_digits(f["grouped_partial"]))
        return ("exact match" in stdout.splitlines() and rel_err(original, grouped) <= tol
                and below_within(grouped, oracles.four_over_pi(128), oracles.tail_bitlen(K)))
    if cmd == "alternating":
        coarse, fine = decimal(f["cauchy_gap_coarse"]), decimal(f["cauchy_gap_fine"])
        return fine > 0 and coarse >= 5 * fine
    if cmd == "verify" and argv[1] == "rivoal":
        N, p = int(f["terms_used"]), int(f["precision_bits"])
        limit = oracles.four_over_pi(p)
        return (f["verdict"] == "pass" and decimal_ok(f["rhs"], limit, p)
                and below_within(decimal(f["lhs"]), limit, oracles.tail_bitlen(N)))
    if cmd == "verify":
        base, word = int(opts["--base"]), opts["--word"]
        N, p = int(f["terms_used"]), int(f["precision_bits"])
        ref = spec_value(base, word, (1, 1), (0, 2), p)
        return _verify_cli(f, ref, oracles.tail_spec(base, (1, 1), (0, 2), N), p)
    if cmd == "enumerate":
        rows = list(csv.reader(stdout.strip().splitlines()))[1:]
        base, max_len = int(opts["--base"]), int(opts["--max-len"])
        ok = len(rows) == sum(base**k for k in range(1, max_len + 1))
        for row in rows:
            word = dict(part.split("=") for part in row[0].split(" "))["word"]
            N, p = int(row[1]), int(row[2])
            ref = spec_value(base, word, (1, 1), (0, 2), p)
            row_fields = {"lhs": row[3], "rhs": row[4], "verdict": row[8]}
            ok = ok and _verify_cli(row_fields, ref, oracles.tail_spec(base, (1, 1), (0, 2), N), p)
        return ok
    raise ValueError(f"no check for CLI command {argv}")


# --------------------------------------------------------------------------
# self-test
# --------------------------------------------------------------------------


def selftest() -> list[str]:
    """Each check must accept the oracle's own value and reject a perturbed one."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    # hand-worked values from the project docs
    expect(oracles.count_block("11", 2, 15) == 3, "counter: 11 in 15 should be 3")
    expect(oracles.count_block("001", 2, 4) == 1, "counter: 001 in 4 should be 1")
    expect(oracles.count_block("0", 4, 4) == 1, "counter: 0 in base-4 4 should be 1")
    expect(oracles.count_block("00", 2, 0) == 0, "counter: 0 has the empty expansion")

    counts = [oracles.count_block("101", 2, n) for n in range(256)]
    off = list(counts)
    off[37] += 1
    expect(counts_ok(digest_counts(counts), counts), "counts check rejects the oracle")
    expect(not counts_ok(digest_counts(off), counts), "counts check accepts a count off by one")

    p = 128
    ref = oracles.family_partial("grouped", 100, p)
    with mp.workprec(p):
        rounded = +ref
    with mp.workprec(p + 64):
        scaled = ref * (1 + mpmath.ldexp(1, -100))
    expect(partial_ok(rounded, ref, p), "partial check rejects the oracle")
    expect(not partial_ok(scaled, ref, p), "partial check accepts a product scaled by 1+2^-100")

    for bits in (128, 256):
        g = gamma(Fraction(1, 3), bits)
        with mp.workprec(bits + 64):
            off_g = g * (1 + mpmath.ldexp(1, 10 - bits))
        expect(gamma_ok(g, g, bits), f"gamma check rejects the oracle at {bits} bits")
        expect(not gamma_ok(off_g, g, bits), f"gamma check accepts an error of 2^(10-{bits})")

    expect(residual_ok("0"), "residual check rejects 0")
    expect(not residual_ok("1"), "residual check accepts a residual of 1")

    limit = oracles.four_over_pi(p)
    tail = oracles.tail_bitlen(1000)
    with mp.workprec(p + 64):
        expect(below_within(limit * (1 - tail), limit, tail), "4/pi check rejects a partial in range")
        expect(not below_within(limit * (1 + tail), limit, tail), "4/pi check accepts a partial above 4/pi")
        expect(not below_within(limit * (1 - 3 * tail), limit, tail), "4/pi check accepts 3x the tail")
        expect(not shrink_ok([mpf(1), mpf(2), mpf(2.5)]), "Cauchy check accepts a 2x shrink")
        expect(ulps_ok(limit, limit, p, 4), "ulp check rejects equal values")
        expect(not ulps_ok(limit * (1 + mpmath.ldexp(1, -120)), limit, p, 4),
               "ulp check accepts values 2^8 ulps apart")
        text = mpmath.nstr(limit, 37, strip_zeros=False)
        bad = text[:-1] + str((int(text[-1]) + 5) % 10)
        expect(decimal_ok(text, limit, p), "decimal check rejects a right rendering")
        expect(not decimal_ok(bad, limit, p), "decimal check accepts a wrong last digit")
    expect(parse_gamma_text("8 * G(1/2) / (G(1/4)^2)") ==
           (Fraction(8), [Fraction(1, 2)], [Fraction(1, 4)] * 2), "closed-form text parser")
    return problems


if __name__ == "__main__":
    found = selftest()
    for line in found:
        print(f"FAIL {line}")
    print("checks self-test:", "ok" if not found else f"{len(found)} problems")
    sys.exit(1 if found else 0)
