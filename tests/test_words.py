"""Expansions, word values, and block counting."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_block_recurrence, pow2_digits, regex_count
from blockprod.products import default_corpus
from blockprod.words import (
    _BITWISE_BITS,
    Word,
    all_words,
    block_counts,
    count_block,
    word_value,
)


def render(n: int, base: int) -> str:
    """Independent expansion oracle: string form via repeated division."""
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"
    s = ""
    while n:
        s = chars[n % base] + s
        n //= base
    return s


def scan(text: str, word: str) -> int:
    """Possibly overlapping occurrences of ``word`` in ``text``."""
    count = 0
    start = 0
    while True:
        i = text.find(word, start)
        if i < 0:
            return count
        count += 1
        start = i + 1


def naive_count(word: str, base: int, n: int) -> int:
    """Overlapping substring scan on the (padded) rendered expansion."""
    if n == 0:
        return 0
    text = render(n, base)
    if word[0] == "0" and any(c != "0" for c in word):
        text = "0" * (len(word) - 1) + text
    return scan(text, word)


class TestWordValue:
    def test_leading_zeros_inert(self):
        assert word_value(Word.parse("0010", 2)) == 2
        assert word_value(Word.parse("10", 2)) == 2

    def test_empty(self):
        assert word_value(Word(2, ())) == 0

    def test_base4(self):
        assert word_value(Word.parse("13", 4)) == 7

    @given(st.integers(2, 36), st.data())
    def test_round_trip(self, base, data):
        text = data.draw(st.text("0123456789abcdefghijklmnopqrstuvwxyz"[:base], min_size=1, max_size=20))
        assert word_value(Word.parse(text, base)) == int(text, base)


class TestCountBlock:
    def test_examples(self):
        assert count_block(Word.parse("11", 2), 15) == 3
        assert count_block(Word.parse("001", 2), 4) == 1
        assert count_block(Word.parse("101", 2), 21) == 2  # scan of "10101"

    def test_zero_maps_to_zero(self):
        for text, base in (("001", 2), ("0", 4), ("11", 2)):
            assert count_block(Word.parse(text, base), 0) == 0

    def test_all_zeros_counts_unpadded(self):
        # 4 = "10" in base 4: a single zero digit, no padding for 0^j words
        assert count_block(Word.parse("0", 4), 4) == 1
        assert count_block(Word.parse("0", 2), 4) == 2  # "100"

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            count_block(Word(2, ()), 5)

    def test_digit_count_identity(self):
        w0, w1 = Word.parse("0", 2), Word.parse("1", 2)
        for n in range(1, 2000):
            total = count_block(w0, n) + count_block(w1, n)
            assert total == n.bit_length()

    @pytest.mark.parametrize("base", [2, 3, 4, 10])
    def test_counts_of_one_length_sum_to_digit_count(self, base):
        """Each level ``j`` with ``n // B^j >= 1`` matches exactly one word of each length ``L``,
        so the counts of the ``B^L`` words of length ``L`` add up to the digit count of ``n``."""
        rng = random.Random(base)
        ns = list(range(1000)) + [rng.randrange(10**40) for _ in range(100)]
        for L in (1, 2, 3):
            words = [w for w in all_words(base, L) if len(w) == L]
            for n in ns:
                assert sum(count_block(w, n) for w in words) == len(render(n, base)), (L, n)

    @given(st.integers(0, 10**6))
    def test_oracle_equivalence_base2(self, n):
        for text in ("0", "1", "01", "11", "001", "100", "0010", "101"):
            assert count_block(Word.parse(text, 2), n) == naive_count(text, 2, n)

    @given(st.integers(2, 16), st.integers(0, 10**6), st.data())
    def test_oracle_equivalence_any_base(self, base, n, data):
        length = data.draw(st.integers(1, 4))
        digits = tuple(data.draw(st.integers(0, base - 1)) for _ in range(length))
        w = Word(base, digits)
        assert count_block(w, n) == naive_count(w.render(), base, n)

    @settings(max_examples=30)
    @given(st.integers(1, 10**5))
    def test_padding_stabilization(self, n):
        """Zero-mixed words: counts stop changing once padding reaches len-1."""
        for text in ("01", "001", "0101", "010"):
            w = Word.parse(text, 2)
            assert text[0] == "0" and "1" in text
            base_pad = len(text) - 1
            expansion = render(n, 2)
            want = count_block(w, n)
            for extra in range(0, 9):
                padded = "0" * (base_pad + extra) + expansion
                got = sum(
                    padded[i : i + len(text)] == text
                    for i in range(len(padded) - len(text) + 1)
                )
                assert got == want

    @settings(max_examples=30)
    @given(st.integers(1, 10**5))
    def test_padding_irrelevance_nonzero_lead(self, n):
        """Nonzero-leading words: any amount of padding leaves the count alone."""
        for text in ("1", "10", "110", "1001"):
            expansion = render(n, 2)
            want = count_block(Word.parse(text, 2), n)
            for pad in range(0, 6):
                padded = "0" * pad + expansion
                got = sum(
                    padded[i : i + len(text)] == text
                    for i in range(len(padded) - len(text) + 1)
                )
                assert got == want

    def test_padding_for(self):
        """The recurrence equals a scan padded by 2 zeros for 001 and by none for 00 and 11."""
        for text, pad in (("001", 2), ("00", 0), ("11", 0)):
            w = Word.parse(text, 2)
            for n in range(1, 600):
                assert count_block(w, n) == scan("0" * pad + render(n, 2), text)


def chunk_digits(w: Word) -> int:
    """The ``c`` of chunked counting: the largest ``c`` with ``B^(c+L-1) <= 2^10`` (0 if none)."""
    c = 0
    while w.base ** (c + len(w)) <= 2**10:
        c += 1
    return c


def cap_words() -> list[Word]:
    """Words with ``B^L`` at the table cap and one step above it, of each kind."""
    rng = random.Random(5)
    words = []
    for base, length in ((2, 10), (2, 11), (10, 3), (10, 4), (32, 2)):
        lead = (rng.randrange(1, base),)
        rest = tuple(rng.randrange(base) for _ in range(length - 1))
        words += [Word(base, (0,) * length), Word(base, (0,) * (length - 1) + (1,)),
                  Word(base, lead + rest), Word(base, (base - 1,) * length)]
    return words


def edge_values(w: Word) -> list[int]:
    """Integers at the edges of the chunked recurrence for ``w``, and two huge ones.

    The window ``B^(c+L-1)`` is the first ``n`` that takes a chunk step, and
    ``B^(2c+L-1)`` the first that takes two.
    """
    B, L, c = w.base, len(w), max(chunk_digits(w), 1)
    window = B ** (c + L - 1)
    ns = {0, 1, B**c - 1, B**c, B**c + 1, window - 1, window, window + 1,
          window * B**c - 1, window * B**c,
          3**200 + 12345, random.Random(9).randrange(10**999, 10**1000)}
    for k in range(1, 41):
        ns |= {B**k - 1, B**k + 1}
    return sorted(ns)


class TestChunkedCounting:
    """count_block against the per-digit recurrence and the padded scan."""

    @pytest.mark.parametrize("words", ["corpus", "cap"])
    def test_matches_recurrence_and_scan(self, words):
        words = default_corpus() if words == "corpus" else cap_words()
        for w in words:
            text = w.render()
            for n in edge_values(w):
                want = count_block_recurrence(w, n)
                assert count_block(w, n) == want == naive_count(text, w.base, n), (text, n)

    def test_tables_within_cap(self):
        """Step B^c and window B^(c+L-1) as in the module docstring; no table above 2^10."""
        for w in default_corpus() + cap_words() + [Word(1024, (5,)), Word(1025, (5,))]:
            count_block(w, 2**20)  # above every window, below the bit-parallel path
            (window, top), (step, chunk_window, full) = w._counter, w._chunk
            c = chunk_digits(w)
            if c == 0:
                assert (window, top) == (0, None) and w.base ** len(w) > 2**10
                assert (step, chunk_window, full) == (w.base, w.base ** len(w), word_value(w))
                continue
            assert (step, window) == (w.base**c, w.base ** (c + len(w) - 1)) and chunk_window == window
            assert len(full) == window <= 2**10 and len(top) == window
            assert top == bytes(block_counts(w, 0, window - 1))
            # full_w[r] counts the windows reading w that end at the low c digits of r
            v, modulus = word_value(w), w.base ** len(w)
            assert list(full) == [sum((r // w.base**i) % modulus == v for i in range(c))
                                  for r in range(window)]

    def test_below_window_builds_no_chunk_table(self):
        """A word counted only below its window holds ``top_w`` and no chunk table."""
        for w in default_corpus() + cap_words():
            if not chunk_digits(w):
                continue
            word = Word(w.base, w.digits)
            window = w.base ** (chunk_digits(w) + len(w) - 1)
            for n in (0, 1, window - 1):
                assert count_block(word, n) == count_block_recurrence(word, n)
            assert "_counter" in vars(word) and "_chunk" not in vars(word)
            count_block(word, window)
            assert "_chunk" in vars(word)

    def test_counts_agree_whichever_table_comes_first(self):
        """The same counts whether a word is first counted below its window, above it, or its chunk step is built first."""
        for w in default_corpus() + cap_words():
            ns = edge_values(w)
            want = [count_block_recurrence(w, n) for n in ns]
            ascending, descending, chunk_first = (Word(w.base, w.digits) for _ in range(3))
            chunk_first._chunk  # builds the chunk step before any count
            assert [count_block(ascending, n) for n in ns] == want
            assert [count_block(descending, n) for n in reversed(ns)][::-1] == want
            assert [count_block(chunk_first, n) for n in ns] == want

    def test_empty_word_raises_on_every_call(self):
        """The empty word has no tables: each count raises, the first and any repeat alike."""
        empty = Word(2, ())
        for n in (0, 5, 3**200):
            with pytest.raises(ValueError, match="nonempty word"):
                count_block(empty, n)
        assert "_counter" not in vars(empty) and "_chunk" not in vars(empty)

    def test_tables_leave_word_identity_alone(self):
        """A word that holds its tables still equals, hashes, reprs and pickles as a fresh one."""
        for text, base in (("101", 2), ("0", 4), ("0000000000", 2), ("1234", 10)):
            built, fresh = Word.parse(text, base), Word.parse(text, base)
            count_block(built, 3**200)
            assert "_counter" in vars(built) and "_counter" not in vars(fresh)
            assert "_bit_plan" in vars(built) and "_bit_plan" not in vars(fresh)
            assert built == fresh and hash(built) == hash(fresh)
            assert repr(built) == repr(fresh)
            assert pickle.dumps(built) == pickle.dumps(fresh)
            copy = pickle.loads(pickle.dumps(built))
            assert copy == fresh and count_block(copy, 3**200) == count_block(built, 3**200)
        assert Word._fields == ("base", "digits")

    def test_bit_plan_reads_the_word(self):
        """The bit plan splits the ``sL`` bit offsets of ``v(w)`` into ones and zeros; None off powers of two."""
        for w in default_corpus() + cap_words() + [Word(1024, (5,)), Word(1025, (5,)), Word(8, (0, 7))]:
            s = w.base.bit_length() - 1
            if w.base != 1 << s:
                assert w._bit_plan is None
                continue
            width, ones, zeros = w._bit_plan
            assert width == s and sorted(ones + zeros) == list(range(s * len(w)))
            assert sum(1 << t for t in ones) == word_value(w)


POW2_BASES = (2, 4, 8, 16, 32)


def pow2_words(base: int) -> list[Word]:
    """Every word of length <= 3 (<= 2 for bases 16 and 32) and the cap words of ``base``."""
    return all_words(base, 3 if base <= 8 else 2) + [w for w in cap_words() if w.base == base]


class TestBitParallelCounting:
    """count_block for ``n >= 2^_BITWISE_BITS`` in power-of-two bases, against the recurrence and the scan."""

    @pytest.mark.parametrize("base", POW2_BASES)
    def test_matches_recurrence_and_scan(self, base):
        around = [2**_BITWISE_BITS - 1, 2**_BITWISE_BITS, 2**_BITWISE_BITS + 1]
        for w in pow2_words(base):
            text = w.render()
            for n in edge_values(w) + around:
                want = count_block_recurrence(w, n)
                assert count_block(w, n) == want == naive_count(text, base, n), (text, n)

    @pytest.mark.parametrize("base", POW2_BASES + (3, 10))
    def test_huge_n(self, base):
        """Seeded n of 3000 and 10^4 decimal digits; bases 3 and 10 pin the chunk loop."""
        rng = random.Random(base)
        top = (base - 1, 0, 1) if base <= 10 else (base - 1, 1)
        words = [Word(base, (0, 0)), Word(base, (0, 1)), Word(base, (0, base - 1, 0)), Word(base, top)]
        for digits in (3000, 10**4):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            text = render(n, base)
            for w in words:
                want = count_block_recurrence(w, n)
                assert count_block(w, n) == want == regex_count(w.render(), text), (w.render(), digits)
        assert all((w._bit_plan is None) == (base in (3, 10)) for w in words)


class TestNearLinearCounting:
    """count_block at ``n = 7^100000`` (280,736 bits) against string oracles made apart from blockprod."""

    def test_base2(self):
        n = 7**100000
        bits = format(n, "b")
        assert count_block(Word.parse("1", 2), n) == bits.count("1")
        assert count_block(Word.parse("0", 2), n) == bits.count("0")
        for word in ("101", "00", "0011", "1100"):
            assert count_block(Word.parse(word, 2), n) == regex_count(word, bits), word

    def test_base4(self):
        n = 7**100000
        text = pow2_digits(n, 4)  # the binary string padded to even length, read in pairs
        for word in ("0", "00", "000", "03", "003", "123", "30", "3"):
            assert count_block(Word.parse(word, 4), n) == regex_count(word, text), word


RANGE_CHUNK = 1 << 16  # some ranges below straddle its multiples


class TestBlockCounts:
    def test_matches_point_counts_and_oracle(self):
        """Range counts equal count_block and the padded scan, for every corpus word."""
        rng = random.Random(11)
        fixed = [(0, 0), (0, 40), (7, 7), (1, 300), (RANGE_CHUNK - 6, RANGE_CHUNK + 9)]
        for w in default_corpus():
            text = w.render()
            ranges = fixed + [(lo, lo + rng.randrange(120)) for lo in (
                rng.randrange(5000),
                rng.randrange(2 * RANGE_CHUNK - 60, 2 * RANGE_CHUNK),
                rng.randrange(10**12),
            )]
            for lo, hi in ranges:
                got = block_counts(w, lo, hi)
                assert len(got) == hi - lo + 1
                for n, c in zip(range(lo, hi + 1), got):
                    assert c == count_block(w, n) == naive_count(text, w.base, n), (text, n)

    def test_huge_start(self):
        for text, base in (("0", 2), ("101", 2), ("012", 3), ("00", 4)):
            w = Word.parse(text, base)
            lo = 7**60
            assert list(block_counts(w, lo, lo + 50)) == [
                naive_count(text, base, n) for n in range(lo, lo + 51)
            ]

    def test_rejects_bad_ranges(self):
        w = Word.parse("1", 2)
        with pytest.raises(ValueError):
            block_counts(w, 5, 4)
        with pytest.raises(ValueError):
            block_counts(w, -1, 4)
        with pytest.raises(ValueError):
            block_counts(Word(2, ()), 1, 4)
        with pytest.raises(ValueError):  # counts of 256 would not fit in a byte
            block_counts(w, 2**255, 2**255)
        assert list(block_counts(w, 2**255 - 1, 2**255 - 1)) == [255]


class TestParsing:
    def test_parse_render_round_trip(self):
        for text, base in (("0010", 2), ("a9z", 36), ("120", 3)):
            assert Word.parse(text, base).render() == text

    def test_parse_rejects_digit_out_of_range(self):
        with pytest.raises(ValueError):
            Word.parse("2", 2)
        with pytest.raises(ValueError):
            Word.parse("a", 10)
        with pytest.raises(ValueError):
            Word.parse("1 0", 2)

    def test_parse_case_insensitive(self):
        assert Word.parse("A", 11).digits == (10,)

    def test_base_mismatch_is_hard_error(self):
        with pytest.raises(ValueError):
            Word(2, (2,))

    def test_empty_parse(self):
        assert Word.parse("", 2).is_empty


class TestAllWords:
    def test_count_and_order_base2(self):
        words = [w.render() for w in all_words(2, 2)]
        assert words == ["0", "00", "01", "1", "10", "11"]
        assert len(all_words(2, 3)) == 14

    def test_lexicographic(self):
        words = [w.render() for w in all_words(3, 2)]
        assert words == sorted(words)
        assert len(words) == 3 + 9

    @pytest.mark.parametrize("base", [1, 0, -2, -3])
    def test_base_below_two_raises(self, base):
        """An empty corpus would read as a verified pass to ``enumerate``."""
        with pytest.raises(ValueError, match="base must be >= 2"):
            all_words(base, 3)
