"""Command-line frontend: counting, closed forms, verification, enumeration, fuzzing.

Exit codes: 0 success / verified pass, 1 verified failure (a check that ran
and did not hold), 2 usage or validation error, 3 internal error (any other
exception; its traceback goes to stderr), 141 when the reader of stdout
closes the pipe early (128 + SIGPIPE, as a shell reports a writer that
signal stopped; nothing is printed).  All randomized behaviour
flows from the explicit ``--seed``; identical invocations produce
byte-identical output.  Each command takes only the options it reads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction

from blockprod import __version__
from blockprod.bigreal import _abs_gap, default_decimal_digits
from blockprod.identities import (
    DEFAULT_PARAMS,
    FiniteSupportFn,
    ProductSpec,
    alternating_product_estimate,
    closed_form_base2,
    closed_form_baseB,
    grouping_identity_holds,
    lemma1_residual,
    rivoal_grouped_partial,
    rivoal_original_partial,
)
from blockprod.products import enumerate_words, verify
from blockprod.words import _MAX_RENDER_BASE, Word, count_block

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
DEFAULT_PRECISION = 128
DEFAULT_TERMS = 10**5
DEFAULT_TOLERANCE = "1/1000"
FORMATS = ("text", "json", "csv")

# Input caps, so that a mistyped size is refused rather than hanging the
# process.  The first log-Gamma builds its Stirling coefficients and log
# tables, about 0.03 s cold at 2048 bits and 0.2 s at 4096.  The 4/pi
# bit-length families sum O(log N) Gamma-ratio blocks; word products and the
# companion form sum about one Euler-Maclaurin run per level plus the blocks
# below the run threshold, so they share the 10^30 cap (cold verify
# companion at 10^30 terms: 0.14 s, 0.93 s at 2048 bits; the slowest word
# seen at 2048 bits, base 10 word 7 at N = 10^8, took 1.0 s).  enumerate
# shares it too: its words share their series edges, run ends and tail
# bound (products.enumerate_words), so at 2048 bits a word of a full corpus
# costs 0.06-0.12 s at any N.  Cold, the corpora at its cap of
# products.MAX_WORDS = 512 words (base 2 to length 8, base 22 to length 2,
# base 7 to length 3) took 30-62 s at 10^7 and at 10^30 in at most 107 MiB,
# the shared values peaking at about 200,000 integers; base 2 to length 8
# took 118 s at 10^7 with each word summed alone.  rivoal-forms shares the
# 10^30 cap:
# its grouping check compares O(log N) runs and its two partials are 4/pi
# family sums.  One lemma1-fuzz trial at the default sizes costs about 0.1 ms,
# so 10^5 trials take about 8 s.  Its support points are drawn from
# [1, 400), so more than 400 draws add no new point; at both size caps a
# trial takes about 1 ms.  Its bases need no cap: the left side of the
# identity groups the support by block, O(|support|) for any base.  A word
# sum grows with the parameters' spread and
# denominators: cold verify of base 2 word 1 at N = 10^6 and 2048 bits took
# 7.9 s at a = 400, 1, b = 401, 0 and 1.5 s at the default a = 1, 1, and a
# denominator of 10^300 did not finish in two minutes.  At the caps below
# (8 parameters, each at most 32 over at most 64) the worst seen took 2.6 s
# there (a = 1892/61, 60/61, 1, ..., b = 32, 0, 0, 2, ...).  A --tolerance,
# --a or --b text longer than MAX_RATIONAL_TEXT, or with a decimal exponent
# beyond it, is refused unparsed: Fraction("1e-99999999") builds 10^99999999.
MAX_PRECISION = 2048
MAX_BLOCK_SUM_TERMS = 10**30
MAX_TRIALS = 10**5
MAX_SUPPORT = 400
MAX_WORD_LEN = 64
MAX_PARAMS = 8
MAX_PARAM = 32
MAX_PARAM_DENOMINATOR = 64
MAX_RATIONAL_TEXT = 1000


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _parse_rational(flag: str, text: str) -> Fraction:
    """``Fraction(text)``, once the text and its decimal exponent are within ``MAX_RATIONAL_TEXT``."""
    _check_cap(f"the length of {flag}", len(text), MAX_RATIONAL_TEXT)
    _, e, exponent = text.lower().partition("e")
    try:
        size = abs(int(exponent)) if e else 0
    except ValueError:  # not a decimal exponent: Fraction refuses the text
        size = 0
    _check_cap(f"the decimal exponent of {flag}", size, MAX_RATIONAL_TEXT)
    return Fraction(text)


def _parse_fraction_list(flag: str, text: str) -> tuple[Fraction, ...]:
    _check_cap(f"the length of {flag}", len(text), MAX_RATIONAL_TEXT)
    try:
        return tuple(_parse_rational(flag, part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational list {text!r}: {exc}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


def _cell(value) -> str:
    """A string as it is; any other value as its compact JSON text."""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def _lines(record: dict) -> list[str]:
    return [f"{key}: {_cell(value)}" for key, value in record.items()]


def _csv(records: list[dict]) -> str:
    """A header of the first record's keys, then one row per record."""
    import csv  # only --format csv needs it; keeps it off every CLI start

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0])
    writer.writerows([_cell(value) for value in record.values()] for record in records)
    return buf.getvalue().rstrip("\n")


def _emit(fmt: str, record: dict, text: list[str] | None = None, indent: int | None = 2) -> None:
    """Print one command's record as JSON, as a CSV header and row, or as text:
    the given lines, else one ``key: value`` line per field."""
    if fmt == "json":
        print(json.dumps(record, indent=indent))
    elif fmt == "csv":
        print(_csv([record]))
    else:
        print("\n".join(_lines(record) if text is None else text))


def _make_spec(args) -> ProductSpec:
    if args.base is None or args.word is None:
        raise ValueError("--base and --word are required when no formula name is given")
    word = Word.parse(args.word, args.base)
    a = _parse_fraction_list("--a", args.a) if args.a else None
    b = _parse_fraction_list("--b", args.b) if args.b else None
    if (a is None) != (b is None):
        raise ValueError("give both --a and --b or neither")
    if a is None:
        a, b = DEFAULT_PARAMS
    for flag, params in (("--a", a), ("--b", b)):
        _check_cap(f"the number of {flag} parameters", len(params), MAX_PARAMS)
        for x in params:
            _check_cap(f"each {flag} parameter", x, MAX_PARAM)
            _check_cap(f"each {flag} denominator", x.denominator, MAX_PARAM_DENOMINATOR)
    return ProductSpec(args.base, word, a, b)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_count(args) -> int:
    word = Word.parse(args.word, args.base)
    n = args.n
    c = count_block(word, n)
    _emit(args.format, {"base": args.base, "word": word.render(), "n": n, "count": c},
          [str(c)], indent=None)
    return 0


def cmd_closed_form(args) -> int:
    spec = _make_spec(args)
    if spec.base == 2 and (sorted(spec.a), sorted(spec.b)) == tuple(map(sorted, DEFAULT_PARAMS)):
        expr = closed_form_base2(spec.word)  # the paper's form of the base-2 family
    else:
        expr = closed_form_baseB(spec)
    record = {"base": args.base, "word": spec.word.render(), "text": expr.text()}
    if args.format == "json":
        record.update(expr.to_json_dict())
    _emit(args.format, record, [expr.text()], indent=None)
    return 0


_FORMULA_ALIASES = {"rivoal": "rivoal_eq1", "rivoal_eq1": "rivoal_eq1",
                    "companion": "companion_eq2", "companion_eq2": "companion_eq2"}


def cmd_verify(args) -> int:
    if args.formula:
        target = _FORMULA_ALIASES.get(args.formula)
        if target is None:
            raise ValueError(f"unknown formula {args.formula!r}; expected rivoal or companion")
        if any(x is not None for x in (args.base, args.word, args.a, args.b)):
            raise ValueError("a named formula takes no --base, --word, --a or --b")
    else:
        target = _make_spec(args)
    _check_cap("--terms", args.terms, MAX_BLOCK_SUM_TERMS)
    report = verify(target, N=args.terms, precision_bits=args.precision,
                    tolerance=_parse_rational("--tolerance", args.tolerance))
    _emit(args.format, report.to_json_dict() if args.format == "json" else report.fields())
    return 0 if report.passed else 1


def cmd_enumerate(args) -> int:
    # every output format prints the words as digit strings
    _check_cap("--base", args.base, _MAX_RENDER_BASE)
    _check_cap("--terms", args.terms, MAX_BLOCK_SUM_TERMS)
    reports = enumerate_words(
        args.base,
        args.max_len,
        N=args.terms,
        precision_bits=args.precision,
        tolerance=_parse_rational("--tolerance", args.tolerance),
    )
    if args.format == "text":
        for r in reports:
            print(f"{r.spec.word.render():<{args.max_len}}  {r.verdict:4}  "
                  f"rel_gap={r.rel_gap.to_decimal(12)}  tail={r.tail_estimate.to_decimal(12)}")
    elif args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        print(_csv([r.fields() for r in reports]))
    return 0 if all(r.passed for r in reports) else 1


def cmd_lemma1_fuzz(args) -> int:
    bases = _parse_int_list(args.bases)
    for b in bases:
        if b < 2:
            raise ValueError(f"bases must be >= 2, got {b}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    _check_cap("--trials", args.trials, MAX_TRIALS)
    for flag, value, cap in (("--max-support", args.max_support, MAX_SUPPORT),
                             ("--max-word-len", args.max_word_len, MAX_WORD_LEN)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
        _check_cap(flag, value, cap)
    import random  # only lemma1-fuzz needs it; keeps it off every CLI start

    rng = random.Random(args.seed)
    exact = 0
    counterexample = None
    words = {}  # one Word per drawn (base, digits), so each builds its count table once
    for trial in range(args.trials):
        base = bases[rng.randrange(len(bases))]
        length = rng.randrange(1, args.max_word_len + 1)
        if args.misrange and rng.randrange(2):
            digits = (0,) * length  # the word of value 0, whose range starts at B^L
        else:
            digits = tuple(rng.randrange(base) for _ in range(length))
        word = words.get((base, digits))
        if word is None:
            word = words[base, digits] = Word(base, digits)
        entries = {}
        for _ in range(rng.randrange(1, args.max_support + 1)):
            key = rng.randrange(1, 400)
            num = rng.randrange(-50, 51)
            entries[key] = Fraction(num if num else 1, rng.randrange(1, 30))
        value_at_zero = Fraction(rng.randrange(1, 9), 1) if args.misrange else Fraction(0)
        f = FiniteSupportFn(entries, value_at_zero=value_at_zero)
        residual = lemma1_residual(f, word, base, misrange=args.misrange)
        if residual == 0:
            exact += 1
        elif counterexample is None:
            counterexample = (trial, base, word, f, residual)
    record = {"trials": args.trials, "exact": exact, "seed": args.seed,
              "misrange": bool(args.misrange)}
    text = [f"{exact}/{args.trials} exact"]
    if counterexample:
        trial, base, word, f, residual = counterexample
        c = record["counterexample"] = {
            # a base above 36 has no digit characters: its word is its digit list
            "trial": trial, "base": base,
            "word": word.render() if base <= _MAX_RENDER_BASE else list(word.digits),
            "f": {str(k): str(v) for k, v in sorted(f.entries.items())},
            "f0": str(f.value_at_zero), "residual": str(residual),
        }
        text.append(f"counterexample at trial {trial}: base={base} word={c['word']} "
                    f"f0={c['f0']} residual={c['residual']}")
    _emit(args.format, record, text)
    return 0 if exact == args.trials else 1


def cmd_alternating(args) -> int:
    K = args.terms
    if K < 100:
        raise ValueError("--terms must be at least 100 for a Cauchy report")
    _check_cap("--terms", K, MAX_BLOCK_SUM_TERMS)
    prec = args.precision
    k0, k1 = K // 100, K // 10
    e0, e1, e2 = (alternating_product_estimate(k, prec) for k in (k0, k1, K))
    gap1 = _abs_gap(e1, e0)
    gap2 = _abs_gap(e2, e1)
    # a zero gap means every printed digit is stable
    digits = default_decimal_digits(prec)
    stable = 0
    g = gap2.to_fraction()
    while stable < digits and g < Fraction(1, 10 ** (stable + 1)):
        stable += 1
    _emit(args.format, {
        "terms": K,
        "estimate": e2.to_decimal(),
        f"estimate_at_{k1}": e1.to_decimal(),
        f"estimate_at_{k0}": e0.to_decimal(),
        "cauchy_gap_coarse": gap1.to_decimal(12),
        "cauchy_gap_fine": gap2.to_decimal(12),
        "stable_digits": stable,
    })
    return 0


def cmd_rivoal_forms(args) -> int:
    K = args.blocks
    if K < 1:
        raise ValueError("--blocks must be >= 1")
    _check_cap("--blocks", K, MAX_BLOCK_SUM_TERMS)
    exact = grouping_identity_holds(K)
    original = rivoal_original_partial(4 * K + 3, args.precision)
    grouped = rivoal_grouped_partial(K, args.precision)
    record = {
        "blocks": K,
        "original_terms": 4 * K + 3,
        "exact_match": exact,
        "original_partial": original.to_decimal(),
        "grouped_partial": grouped.to_decimal(),
    }
    text = _lines(record)
    text[2] = "exact match" if exact else "MISMATCH"
    _emit(args.format, record, text)
    return 0 if exact else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, precision: bool = False, terms: bool = False,
                tolerance: bool = False) -> None:
    if precision:
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                       help=f"working precision in bits (default {DEFAULT_PRECISION})")
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    if terms:
        p.add_argument("--terms", "-N", type=int, default=DEFAULT_TERMS,
                       help=f"number of product terms (default {DEFAULT_TERMS})")
    if tolerance:
        p.add_argument("--tolerance", default=DEFAULT_TOLERANCE,
                       help="relative tolerance as a rational or decimal string")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockprod",
        description="Digit-block products: counting, Gamma closed forms, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count block occurrences in a base-B expansion")
    p.add_argument("n", type=int, help="the integer whose expansion is scanned")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--word", required=True, help="digit word, e.g. 0010")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("closed-form", help="print the Gamma closed form for a word")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--a", help="comma-separated rationals, e.g. 1,1")
    p.add_argument("--b", help="comma-separated rationals, e.g. 0,2")
    _add_common(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("verify", help="verify a product against its closed form")
    p.add_argument("formula", nargs="?",
                   help="named formula: rivoal (4/pi) or companion; omit to use --base/--word")
    p.add_argument("--base", type=int)
    p.add_argument("--word")
    p.add_argument("--a")
    p.add_argument("--b")
    _add_common(p, precision=True, terms=True, tolerance=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="verify every word up to a length bound")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    _add_common(p, precision=True, terms=True, tolerance=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("lemma1-fuzz", help="exact randomized checks of the summation identity")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bases", default="2,3,4,10", help="comma-separated bases")
    p.add_argument("--max-word-len", type=int, default=6)
    p.add_argument("--max-support", type=int, default=12)
    p.add_argument("--misrange", action="store_true",
                   help="debug: deliberately swap the summation ranges (negative control)")
    _add_common(p)
    p.set_defaults(func=cmd_lemma1_fuzz)

    p = sub.add_parser("alternating", help="Cauchy self-consistency estimate of the alternating product")
    _add_common(p, precision=True, terms=True)
    p.set_defaults(func=cmd_alternating)

    p = sub.add_parser("rivoal-forms", help="exact block-grouping identity between the two 4/pi forms")
    p.add_argument("--blocks", type=int, default=1000)
    _add_common(p, precision=True)
    p.set_defaults(func=cmd_rivoal_forms)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if "precision" in args:
            _check_cap("--precision", args.precision, MAX_PRECISION)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): not a crash.  Point stdout at
        # devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a verified failure
        import traceback  # only a crash needs it; keeps it off every CLI start

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
