#!/usr/bin/env python3
"""Benchmark the pure-Python kernels against the compiled extension.

Both backends compute bit-identical integers (asserted here); only the
throughput differs.  The Gamma-ratio block sums of the 4/pi bit-length
families have a single pure-Python implementation and are timed alone.  The
companion form is timed at N = 10^6 twice: per-term on each backend, and as
the library sums it (per-term below 2^17, Gamma ratios above).
Run from the repository root:

    python benchmarks/bench_kernels.py [--terms N] [--precision BITS]
"""

from __future__ import annotations

import argparse
import time

from blockprod import _kernels_py as pure
from blockprod.identities import (
    logsum_alternating,
    logsum_companion,
    logsum_rivoal_grouped,
    logsum_rivoal_original,
)
from blockprod.words import Word, block_counts

try:
    from blockprod import _kernels_cy as compiled
except ImportError:
    compiled = None


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_case(name, fn, args):
    """Time the kernel named ``fn`` on both backends, or the callable ``fn`` alone."""
    if callable(fn):
        return [(name, timed(fn, *args)[1], None, None)]
    rows = []
    value_p, t_pure = timed(getattr(pure, fn), *args)
    if compiled is not None:
        value_c, t_comp = timed(getattr(compiled, fn), *args)
        assert value_p == value_c, f"backend mismatch in {fn}"
        rows.append((name, t_pure, t_comp, t_pure / t_comp))
    else:
        rows.append((name, t_pure, None, None))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terms", type=int, default=200_000)
    parser.add_argument("--precision", type=int, default=128)
    args = parser.parse_args()

    N = args.terms
    F = args.precision + 32
    # block counts are built once, outside the timed kernel calls
    n_b3 = max(N // 4, 1)
    counts_101 = block_counts(Word(2, (1, 0, 1)), 1, N)
    counts_b3 = block_counts(Word(3, (1, 2)), 1, n_b3)
    word_101 = (2, counts_101, (1, 1), (1, 1), (0, 2), (1, 1), 1, N, F)
    word_b3 = (3, counts_b3, (1, 1), (1, 1), (0, 2), (1, 1), 1, n_b3, F)
    ratio = ((1, 3), (2, 2), (1, 1), (1, 1), 0, N, F)
    companion = (1, 10**6, F)

    cases = [
        ("rivoal grouped (Gamma-ratio blocks)", logsum_rivoal_grouped, (1, N, F)),
        ("rivoal original (Gamma-ratio blocks)", logsum_rivoal_original, (2, 4 * N, F)),
        ("companion per-term, N=1e6", "logsum_companion", companion),
        ("companion Gamma ratios above 2^17, N=1e6", logsum_companion, companion),
        ("alternating (Gamma-ratio blocks)", logsum_alternating, (1, N, F)),
        ("word product, base 2, w=101", "logsum_word_product", word_101),
        ("word product, base 3, w=12 (generic)", "logsum_word_product", word_b3),
        ("balanced ratio product (Wallis)", "logsum_ratio_product", ratio),
    ]

    if compiled is None:
        print("compiled extension not available; timing the pure backend only\n")
    header = f"{'kernel':42s} {'pure [s]':>9s} {'cython [s]':>11s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for name, fn, fn_args in cases:
        for label, t_pure, t_comp, speedup in run_case(name, fn, fn_args):
            if t_comp is None:
                print(f"{label:42s} {t_pure:9.3f} {'-':>11s} {'-':>8s}")
            else:
                print(f"{label:42s} {t_pure:9.3f} {t_comp:11.3f} {speedup:7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
