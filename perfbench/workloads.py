"""Workload definitions: seeded inputs and the fixed CLI command sets.

This module is imported by the orchestrator (``run.py``) and by the measured
worker (``worker.py``), so it imports neither blockprod nor mpmath.  Inputs
are plain JSON-able data made from the seed; the worker turns them into
blockprod objects before any timing starts.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

WORKLOADS = ("pi-family", "word-products", "digit-counts", "closed-forms")
DEFAULT_SEED = 0

# Gamma at this argument misses the 2^(8-p) contract at 128 and 256 bits:
# (z+1/2)*log(z+a) in the Spouge evaluation multiplies the log's error by z.
# Operations on it are counted as failed, never dropped.
KNOWN_GAMMA_FAULTS = frozenset({Fraction(3_300_000_000_001, 3)})  # 1.1e12 + 1/3

# Large Gamma arguments, fixed so that the failing share never depends on the seed.
LARGE_GAMMA_ARGS = (
    Fraction(3_001, 3),  # 1e3 + 1/3
    Fraction(3_000_001, 3),  # 1e6 + 1/3
    Fraction(3_210_000_001, 3),  # 1.07e9 + 1/3
    Fraction(3_300_000_000_001, 3),  # 1.1e12 + 1/3
)

SMALL_N = 2000  # length of the products checked term by term against mpmath
COUNT_RANGE = 2048  # digit-counts queries every n in [0, COUNT_RANGE)
COUNT_BIG = 64  # ... plus this many seeded integers of 100 decimal digits


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def digest_counts(counts) -> str:
    """Order-sensitive digest of a count sequence, shared by worker and checker."""
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()


def corpus() -> list[tuple[int, str]]:
    """``default_corpus()`` rebuilt from its documented definition.

    Base 2 up to length 5, bases 3 and 4 up to length 3, in lexicographic
    order of the rendered word; 185 words.
    """
    words = []
    for base, max_len in ((2, 5), (3, 3), (4, 3)):
        stack = [str(d) for d in range(base - 1, -1, -1)]
        while stack:
            w = stack.pop()
            words.append((base, w))
            if len(w) < max_len:
                stack.extend(w + str(d) for d in range(base - 1, -1, -1))
    return words


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def _spec(base, word, a=("1", "1"), b=("0", "2")) -> dict:
    return {"base": base, "word": word, "a": list(a), "b": list(b)}


def _pi_family(rng: random.Random) -> dict:
    return {
        "verify_N": 10**6,
        "alt_N": [10**4, 10**5, 10**6],
        "blocks": 10**5,
        "small_N": SMALL_N + rng.randrange(64),
    }


def _word_products(rng: random.Random) -> dict:
    return {
        "enumerate": {"base": 2, "max_len": 3, "N": 10**4},
        "specs": [
            _spec(2, "101"),
            _spec(3, "12"),
            _spec(3, "012"),  # zero-leading mixed word
            _spec(4, "00"),  # all-zeros word
            _spec(3, "12", ("1/2", "3/2"), ("1/3", "5/3")),  # non-integer balanced
        ],
        "N": 10**5,
        "small_N": SMALL_N + rng.randrange(64),
    }


def _digit_counts(rng: random.Random) -> dict:
    big = [rng.randrange(10**99, 10**100) for _ in range(COUNT_BIG)]
    return {"words": corpus(), "range": COUNT_RANGE, "big": big}


def _random_entries(rng: random.Random) -> dict:
    """Support and values of a finitely supported f, as ``lemma1-fuzz`` draws them."""
    entries = {}
    for _ in range(rng.randrange(1, 13)):
        num = rng.randrange(-50, 51)
        entries[rng.randrange(1, 400)] = frac(Fraction(num or 1, rng.randrange(1, 30)))
    return entries


def _closed_forms(rng: random.Random) -> dict:
    small = []
    while len(small) < 24:
        q = rng.randrange(2, 98)
        small.append(frac(Fraction(rng.randrange(1, 10 * q), q)))
    trials = []
    for _ in range(1000):
        base = rng.choice((2, 3, 4, 10))
        digits = [rng.randrange(base) for _ in range(rng.randrange(1, 7))]
        trials.append({"base": base, "digits": digits, "entries": _random_entries(rng)})
    controls = []
    for _ in range(20):
        base = rng.choice((2, 3, 4, 10))
        entries = _random_entries(rng)
        f0 = frac(Fraction(rng.randrange(1, 9), rng.randrange(1, 5)))
        # an all-zeros word with f(0) != 0: the mis-ranged sum must be off by -f(0)
        controls.append({"base": base, "digits": [0] * rng.randrange(1, 4),
                         "entries": entries, "f0": f0})
    return {
        "words": corpus(),
        "precisions": [256, 1024],
        "gamma_args": small,
        "gamma_large": [frac(x) for x in LARGE_GAMMA_ARGS],
        "gamma_precisions": [128, 256],
        "lemma1": trials,
        "controls": controls,
        "grouping_K": 10**5,
    }


_MAKERS = {
    "pi-family": _pi_family,
    "word-products": _word_products,
    "digit-counts": _digit_counts,
    "closed-forms": _closed_forms,
}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)


# --------------------------------------------------------------------------
# CLI commands (fixed; not seeded)
# --------------------------------------------------------------------------

BIG_COUNT_N = 3**200 + 12345  # a fixed 96-digit integer for the CLI count checks

CLI_COMMANDS = {
    "pi-family": [
        ["verify", "rivoal"],
        ["rivoal-forms"],
        ["alternating"],
    ],
    "word-products": [
        ["verify", "--base", "2", "--word", "101"],
        ["enumerate", "--base", "2", "--max-len", "2", "--terms", "10000", "--format", "csv"],
    ],
    "digit-counts": [
        ["count", "--base", "2", "--word", "11", "15"],
        ["count", "--base", "2", "--word", "001", "4"],
        ["count", "--base", "4", "--word", "0", "4"],
        ["count", "--base", "3", "--word", "012", str(BIG_COUNT_N)],
    ],
    "closed-forms": [
        ["closed-form", "--base", "2", "--word", "0"],
        ["verify", "--base", "3", "--word", "12", "--precision", "1024", "--terms", "10000"],
        ["lemma1-fuzz"],
    ],
}
