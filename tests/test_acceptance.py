"""Acceptance suite: one test per acceptance criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, straight from the criteria; nothing is
calibrated at runtime.

Criterion 9 carries a documented erratum: a reference value of 2 circulates
for the zero-count of 4 in base 4, but 4 in base 4 is the two-digit string
"10", which contains exactly one zero (the value 2 matches the *base-2*
expansion "100" instead).  The value 2 is inconsistent with the definition
of the count, with the naive-scan oracle required by this same criterion,
and with the exactness of the summation identity (criterion 6, which
exercises base-4 words).  The wrong literal is therefore encoded as a
strict xfail — visible, not silently patched — and the corrected value 1
is asserted alongside.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import add, ne

import pytest
from helpers import sin_pi_ref

from blockprod.bigreal import pi_value
from blockprod.gammafn import eval_gamma_expr, gamma
from blockprod.identities import (
    FiniteSupportFn,
    ProductSpec,
    alternating_product_estimate,
    closed_form_base2,
    closed_form_baseB,
    companion_closed_form,
    companion_partial,
    grouping_identity_holds,
    lemma1_residual,
)
from blockprod.products import default_corpus, eval_lhs_partial, verify
from blockprod.words import Word, all_words, count_block

SEED = 20240


def report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def naive_digits(base: int, n: int) -> str:
    """Digit string of ``n`` in ``base`` (empty for ``n = 0``), built without blockprod."""
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"
    text = ""
    while n:
        text = chars[n % base] + text
        n //= base
    return text


def window_tallies(text: str, lengths) -> tuple[Counter, Counter]:
    """The windows of ``text`` of the given lengths, and those that start in its zero padding, tallied.

    A window of length ``l`` that starts in the padding of ``l - 1`` zeros
    before ``text`` is counted only in the second tally.  An overlapping
    scan of a word counts the windows equal to it, so the first tally is
    :func:`naive_padded_scan` of every unpadded word of those lengths, and
    the sum of both that of every padded one.
    """
    windows = Counter([text[i : i + ell] for ell in lengths for i in range(len(text) - ell + 1)])
    lead = Counter([("0" * (ell - 1) + text)[i : i + ell]
                    for ell in lengths for i in range(min(ell - 1, len(text)))])
    return windows, lead


def naive_padded_scan(word: str, text: str) -> int:
    """Independent counting oracle: overlapping scan of the padded digit string ``text``."""
    if not text:
        return 0
    if word[0] == "0" and any(c != "0" for c in word):
        text = "0" * (len(word) - 1) + text
    count = 0
    start = 0
    while True:
        i = text.find(word, start)
        if i < 0:
            return count
        count += 1
        start = i + 1


def test_criterion_1_rivoal_reproduction():
    """Grouped 4/pi product vs independently computed pi, at 1e5 and 1e6 terms."""
    r5 = verify("rivoal_eq1", N=10**5, precision_bits=128, tolerance=Fraction(1, 1000))
    gap5 = r5.rel_gap.to_fraction()
    r6 = verify("rivoal_eq1", N=10**6, precision_bits=128, tolerance=Fraction(1, 10**5))
    gap6 = r6.rel_gap.to_fraction()
    ok = r5.passed and gap5 <= Fraction(1, 1000) and r6.passed and gap6 <= Fraction(1, 10**5)
    report("1", ok, f"rel_gap(1e5)={float(gap5):.3e} <= 1e-3, rel_gap(1e6)={float(gap6):.3e} <= 1e-5")
    assert r5.passed and gap5 <= Fraction(1, 1000)
    assert r6.passed and gap6 <= Fraction(1, 10**5)


def test_criterion_2_closed_form_product_is_4_over_pi():
    """eval(base2(0)) * eval(base2(1)) = 4/pi to 50 decimal digits at 256 bits."""
    prod = (eval_gamma_expr(closed_form_base2(Word.parse("0", 2)), 256).to_fraction()
            * eval_gamma_expr(closed_form_base2(Word.parse("1", 2)), 256).to_fraction())
    target = 4 / pi_value(256).to_fraction()
    rel = abs(prod - target) / target
    ok = rel <= Fraction(1, 10**50)
    report("2", ok, f"|G-product - 4/pi|/(4/pi) = {float(rel):.3e} <= 1e-50")
    assert ok


def test_criterion_3_companion_formula():
    """Companion closed form equals 16 pi^2 / G(1/4)^4; partial matches at 1e5."""
    closed = eval_gamma_expr(companion_closed_form(), 256).to_fraction()
    pi = pi_value(256).to_fraction()
    g4 = gamma(Fraction(1, 4), 256).to_fraction()
    rendition = 16 * pi * pi / g4**4
    rel_exact = abs(closed - rendition) / rendition
    partial = companion_partial(10**5, 128).to_fraction()
    closed128 = eval_gamma_expr(companion_closed_form(), 128).to_fraction()
    rel_partial = abs(partial - closed128) / closed128
    ok = rel_exact <= Fraction(1, 10**50) and rel_partial <= Fraction(1, 1000)
    report(
        "3",
        ok,
        f"closed-vs-pi-rendition rel={float(rel_exact):.3e} <= 1e-50, "
        f"partial(1e5) rel={float(rel_partial):.3e} <= 1e-3",
    )
    assert rel_exact <= Fraction(1, 10**50)
    assert rel_partial <= Fraction(1, 1000)


def test_criterion_4_all_zeros_branch():
    """w = 0^j for j in {1, 2}: partial at 1e5 matches the closed form to 1e-3."""
    gaps = {}
    for j, text in ((1, "0"), (2, "00")):
        w = Word.parse(text, 2)
        partial = eval_lhs_partial(ProductSpec.canonical_base2(w), 10**5, 128).to_fraction()
        closed = eval_gamma_expr(closed_form_base2(w), 128).to_fraction()
        gaps[j] = abs(partial - closed) / closed
    ok = all(gap <= Fraction(1, 1000) for gap in gaps.values())
    report("4", ok, f"rel_gap(j=1)={float(gaps[1]):.3e}, rel_gap(j=2)={float(gaps[2]):.3e} <= 1e-3")
    assert all(gap <= Fraction(1, 1000) for gap in gaps.values())


def test_criterion_5_general_builder_reduction():
    """B=2, a=(1,1), b=(0,2) evaluates equal to the base-2 closed form, all |w| <= 5."""
    words = all_words(2, 5)
    assert len(words) == 62
    worst = Fraction(0)
    for w in words:
        general = eval_gamma_expr(closed_form_baseB(ProductSpec.canonical_base2(w)), 128).to_fraction()
        special = eval_gamma_expr(closed_form_base2(w), 128).to_fraction()
        gap = abs(general - special) / special
        worst = max(worst, gap)
    ok = worst <= Fraction(1, 2**100)
    report("5", ok, f"worst relative gap over 62 words = {float(worst):.3e} <= 2^-100")
    assert ok


def test_criterion_6_summation_identity_exactness():
    """1000 seeded random finite-support f x words x bases give residual exactly 0."""
    rng = random.Random(SEED)
    bases = (2, 3, 4, 10)
    failures = 0
    for _ in range(1000):
        base = bases[rng.randrange(4)]
        length = rng.randrange(1, 7)
        word = Word(base, tuple(rng.randrange(base) for _ in range(length)))
        entries = {}
        for _ in range(rng.randrange(1, 13)):
            num = rng.randrange(-60, 61)
            entries[rng.randrange(1, 500)] = Fraction(num if num else 1, rng.randrange(1, 40))
        if lemma1_residual(FiniteSupportFn(entries), word, base) != 0:
            failures += 1
    control = lemma1_residual(
        FiniteSupportFn({5: Fraction(2)}, value_at_zero=Fraction(3)),
        Word.parse("00", 2),
        2,
        misrange=True,
    )
    ok = failures == 0 and control != 0
    report("6", ok, f"1000/1000 residuals exactly 0; mis-ranged control residual = {control}")
    assert failures == 0
    assert control != 0


def test_criterion_7_grouping_identity_exact():
    """Original partial at 4K+3 equals grouped partial at K, exactly, K <= 1000."""
    ok = all(grouping_identity_holds(K) for K in range(1, 1001))
    report("7", ok, "factored forms identical for every K in 1..1000")
    assert ok


def test_criterion_8_gamma_quality():
    """Recurrence and reflection hold within 2^(8-p) at p = 128 and 256 bits (the sine from mpmath)."""
    rng = random.Random(SEED + 1)
    worst = {128: Fraction(0), 256: Fraction(0)}
    for prec in (128, 256):
        bound = Fraction(2) ** (8 - prec)
        pi = pi_value(prec).to_fraction()
        for _ in range(500):
            x = Fraction(rng.randrange(1, 10**4), rng.randrange(10**3, 10**4))  # (0, 10)
            defect = abs(gamma(1 + x, prec).to_fraction() / (gamma(x, prec).to_fraction() * x) - 1)
            worst[prec] = max(worst[prec], defect)
            assert defect <= bound
        for _ in range(500):
            z = Fraction(rng.randrange(1, 9973), 9973)
            value = (gamma(z, prec).to_fraction() * gamma(1 - z, prec).to_fraction()
                     * sin_pi_ref(z, prec).to_fraction() / pi)
            defect = abs(value - 1)
            worst[prec] = max(worst[prec], defect)
            assert defect <= bound
    ok = worst[128] <= Fraction(2) ** -120 and worst[256] <= Fraction(2) ** -248
    report(
        "8",
        ok,
        f"worst defect: 2^{float(worst[128]).hex().split('p')[-1]} at 128 bits, "
        f"2^{float(worst[256]).hex().split('p')[-1]} at 256 bits (bounds 2^-120 / 2^-248)",
    )
    assert ok


def test_criterion_9_counting_oracle():
    """count_block matches the naive padded scan for all n <= 1e5 over the corpus."""
    corpus = default_corpus()
    by_base: dict[int, list] = {}
    for w in corpus:
        by_base.setdefault(w.base, []).append((w, w.render()))
    mismatches = 0
    for base, words in sorted(by_base.items()):
        lengths = sorted({len(text) for _, text in words})
        # zero-leading mixed words are scanned padded (see naive_padded_scan)
        padded = [text[0] == "0" and text.strip("0") != "" for _, text in words]
        plain_words = [w for (w, _), pad in zip(words, padded) if not pad]
        padded_words = [w for (w, _), pad in zip(words, padded) if pad]
        plain_texts = [text for (_, text), pad in zip(words, padded) if not pad]
        padded_texts = [text for (_, text), pad in zip(words, padded) if pad]
        zeros = [0] * len(words)
        for n in range(0, 10**5 + 1):
            digits = naive_digits(base, n)
            windows, lead = window_tallies(digits, lengths)  # once per (base, n), read for every word
            want = [*map(windows.get, plain_texts, zeros),
                    *map(add, map(windows.get, padded_texts, zeros), map(lead.get, padded_texts, zeros))]
            got = [*map(count_block, plain_words, repeat(n)), *map(count_block, padded_words, repeat(n))]
            if got != want:
                mismatches += sum(map(ne, got, want))
            if n % 1009 == 0:  # the tallies are the scan, spot-checked
                assert want == [naive_padded_scan(text, digits) for text in plain_texts + padded_texts]
    unit_ok = (
        count_block(Word.parse("11", 2), 15) == 3
        and count_block(Word.parse("001", 2), 4) == 1
        and count_block(Word.parse("0", 4), 4) == 1  # corrected value; see module docstring
    )
    ok = mismatches == 0 and unit_ok
    report(
        "9",
        ok,
        f"{mismatches} mismatches over {len(corpus)} words x 100001 integers; "
        "unit values 3, 1, and (corrected) 1 hold",
    )
    assert mismatches == 0
    assert unit_ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known-wrong reference value: 2 contradicts the count's definition "
        "(4 = '10' in base 4 has one zero), the naive-scan oracle of criterion 9, "
        "and the exact summation identity of criterion 6; the true value is 1"
    ),
)
def test_criterion_9_erratum_literal():
    assert count_block(Word.parse("0", 4), 4) == 2


def test_criterion_10_alternating_cauchy():
    """Alternating-product estimates at 1e4/1e5/1e6 are Cauchy, gaps shrinking 5x."""
    e4 = alternating_product_estimate(10**4, 128).to_fraction()
    e5 = alternating_product_estimate(10**5, 128).to_fraction()
    e6 = alternating_product_estimate(10**6, 128).to_fraction()
    gap_coarse = abs(e5 - e4)
    gap_fine = abs(e6 - e5)
    ok = gap_fine > 0 and gap_coarse >= 5 * gap_fine
    report(
        "10 (alternating)",
        ok,
        f"gaps {float(gap_coarse):.3e} -> {float(gap_fine):.3e}, "
        f"shrink factor {float(gap_coarse / gap_fine):.1f} >= 5",
    )
    assert gap_fine > 0
    assert gap_coarse >= 5 * gap_fine
