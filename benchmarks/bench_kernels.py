#!/usr/bin/env python3
"""Measure where the telescoped word-product engine overtakes the direct sum.

``identities.logsum_word_priced`` takes a word product's log-sum (for
``eval_lhs_partial`` and the companion form) by whichever of two paths
``identities.path_costs`` prices cheaper:
the Gamma-ratio engine ``identities.logsum_word`` or the direct per-term
sum ``identities.logsum_word_direct``.  For each (base, word, d, precision)
this script times both paths on a geometric grid of N and prints the
measured break-even N (the first N from which the engine stays faster)
next to the N where the pricing rule switches, which is the evidence for
the rule's constants.  The engine is timed with a cold coefficient cache
(the rule prices it cold) after one log-Gamma warm-up at that precision.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--precision 128 1024] [--max-terms N]
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from blockprod import gammafn
from blockprod.bigreal import GUARD_BITS
from blockprod.identities import ProductSpec, logsum_word, logsum_word_direct, path_costs
from blockprod.words import Word

# (base, word, a, b): d = len(a); base 2 word 1 is the companion form's
CASES = [
    (2, "1", (1, 1), (0, 2)),
    (2, "101", (1, 1), (0, 2)),
    (3, "12", (1, 1), (0, 2)),
    (4, "00", (1, 1), (0, 2)),
    (10, "7", (1, 1), (0, 2)),
    (3, "12", (1, 1, 1), (0, 0, 3)),
]


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def engine_time(spec: ProductSpec, N: int, F: int) -> float:
    gammafn._series.cache_clear()
    gammafn._series_numerators.cache_clear()
    gammafn._bernoulli.cache_clear()
    return timed(logsum_word, spec, N, F)


def direct_time(spec: ProductSpec, N: int, F: int) -> float:
    return timed(logsum_word_direct, spec, N, F)


def grid(max_terms: int) -> list[int]:
    out, N = [], 64
    while N <= max_terms:
        out.append(N)
        N = N * 5 // 4
    return out


def rule_switch(spec: ProductSpec, F: int, ns: list[int]) -> int | None:
    """First N of the grid from which the rule keeps choosing the engine."""
    picks = []
    for N in ns:
        engine, direct = path_costs(spec, N, F)
        picks.append(engine < direct)
    for i in range(len(ns)):
        if all(picks[i:]):
            return ns[i]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--precision", type=int, nargs="+", default=[128, 1024])
    parser.add_argument("--max-terms", type=int, default=60_000)
    args = parser.parse_args()

    ns = grid(args.max_terms)
    header = (f"{'base':>4s} {'word':>5s} {'d':>2s} {'bits':>5s} {'measured N*':>12s} "
              f"{'rule N*':>8s} {'engine [s]':>11s} {'direct [s]':>11s}")
    print(header)
    print("-" * len(header))
    for prec in args.precision:
        F = prec + GUARD_BITS
        gammafn._loggamma_fixed(Fraction(7, 3), F)  # Stirling coefficients and log ladder
        for base, text, a, b in CASES:
            spec = ProductSpec(base, Word.parse(text, base),
                               tuple(map(Fraction, a)), tuple(map(Fraction, b)))
            measured, streak, te, td = None, 0, 0.0, 0.0
            for N in ns:
                te, td = engine_time(spec, N, F), direct_time(spec, N, F)
                if te < td:
                    streak += 1
                    measured = measured or N
                    if streak == 3:
                        break
                else:
                    measured, streak = None, 0
            found = f"{measured}" if streak == 3 else f">{ns[-1]}"
            switch = rule_switch(spec, F, ns)
            print(f"{base:4d} {text:>5s} {len(a):2d} {prec:5d} {found:>12s} {str(switch):>8s} "
                  f"{te:11.4f} {td:11.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
