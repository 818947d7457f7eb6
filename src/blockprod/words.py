"""Base-B expansions, digit words, and block-occurrence counting.

A :class:`Word` is a finite digit sequence over ``{0, ..., base-1}`` with
leading zeros significant (``0010`` is a different word from ``10``).  The
integer 0 has the *empty* expansion in every base.

Counting rule.  For a nonempty word ``w`` of length ``L`` and value ``v(w)``
(its digits read in base ``B``), the block count ``N_w`` is defined by the
recurrence that the summation identity telescopes:

    N_w(0) = 0,    N_w(n) = N_w(n // B) + [n mod B^L == v(w)]   (n >= 1).

So ``N_w(n)`` counts the ``L``-digit windows of the zero-padded expansion of
``n`` that end at a digit of ``n`` and read ``w``.  :func:`count_block`
evaluates it for one ``n``; :func:`block_counts` for a whole range.

Chunked evaluation.  :func:`count_block` applies the recurrence ``c`` digits
per step, where ``c`` is the largest integer with ``B^(c+L-1) <= 2^10``:

    N_w(n) = N_w(n // B^c) + full_w[n mod B^(c+L-1)]    (n >= B^(c+L-1)),
    N_w(n) = top_w[n]                                     (n <  B^(c+L-1)),

with ``full_w[r] = sum_{i<c} [(r // B^i) mod B^L == v(w)]`` and
``top_w = block_counts(w, 0, B^(c+L-1) - 1)``.  The first line holds for
every ``n >= B^c``, because every window ending at one of the low ``c``
digits of such an ``n`` lies inside ``n``; it is used only from the window
``B^(c+L-1)`` up, so every ``n`` below it takes one lookup.  ``top_w`` is built
on a word's first count, and ``full_w`` only when a count first takes a chunk
step; both are kept on the word and each has at most ``2^10`` one-byte
entries.  Words with ``B^L > 2^10`` have no tables and are counted one digit
per step.

Bit-parallel evaluation.  In a base ``B = 2^s`` the window ending at digit
``i`` of ``n`` is the ``sL`` bits of ``n`` from bit ``si`` up, so all windows
are compared at once with whole-integer bit operations:

    N_w(n) = popcount(D & AND_{t < sL} (n >> t if bit t of v(w) is 1 else ~n >> t)),

where ``D`` has bits ``0, s, ..., s(d-1)`` set and ``d`` is the number of
base-``B`` digits of ``n``.  Bit ``p`` of the ``AND`` is 1 exactly when the
``sL`` bits of ``n`` from bit ``p`` read ``v(w)``.  Python's ``~n`` flips the
infinitely many zero bits above ``n`` as well, so bits above ``n`` are read as
zeros: this is the zero padding of the recurrence.  ``D`` then keeps the
windows that end at a digit of ``n`` and start on a digit boundary; without
it an all-zeros word would match at every bit above ``n``.  So one rule covers
every kind of word.  The cost is ``2sL + 3`` integer operations whatever the
size of ``n``, each linear in its length.  :func:`count_block` takes this path
for ``n >= 2^_BITWISE_BITS``; below it, the chunked loop's few steps on small
integers are cheaper.

Remark (agreement with substring counting).  A window that reaches into the
padding starts with a padding zero, and if it also covers the leading digit
of ``n`` it is not all zeros.  Hence:

* words that start with a nonzero digit, and words consisting entirely of
  zeros, are counted as plain (possibly overlapping) substrings of the
  canonical expansion;
* words that start with 0 but contain a nonzero digit are counted as
  substrings of the expansion left-padded with ``len(w) - 1`` zeros.
  Padding with exactly ``len(w) - 1`` zeros is equivalent to padding with
  arbitrarily many: an occurrence of such a word must cover a nonzero digit
  of the expansion, so it cannot begin more than ``len(w) - 1`` positions
  before the expansion starts.
"""

from __future__ import annotations

from functools import cached_property

__all__ = [
    "Word",
    "word_value",
    "count_block",
    "block_counts",
    "all_words",
]

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_VALUES = {c: i for i, c in enumerate(_DIGIT_CHARS)}
_MAX_RENDER_BASE = len(_DIGIT_CHARS)


class _Record:
    """Base of the package's immutable records, which behave as frozen dataclasses.

    A subclass names its fields in order in ``_fields``, and its ``__init__``
    stores them in that order with ``vars(self).update``.  Records are equal
    only to records of the same class with equal field tuples, hash as that
    tuple and repr as ``Name(field=value, ...)``.  Assigning or deleting an
    attribute raises ``AttributeError``.  The fields live in the instance
    ``__dict__``, so records pickle by it and ``cached_property`` can store
    into it.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Word(_Record):
    """An immutable digit word; digits are most-significant first."""

    _fields = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]) -> None:
        if not isinstance(base, int) or base < 2:
            raise ValueError(f"base must be an integer >= 2, got {base!r}")
        digits = tuple(digits)
        for d in digits:
            if not isinstance(d, int) or not 0 <= d < base:
                raise ValueError(f"digit {d!r} out of range for base {base}")
        vars(self).update(base=base, digits=digits)

    @classmethod
    def parse(cls, text: str, base: int) -> "Word":
        """Parse a digit string (0-9 then a-z, case-insensitive) into a Word."""
        if base < 2 or base > _MAX_RENDER_BASE:
            raise ValueError(f"parsable bases are 2..{_MAX_RENDER_BASE}, got {base}")
        digits = []
        for ch in text:
            v = _CHAR_VALUES.get(ch.lower())
            if v is None or v >= base:
                raise ValueError(f"invalid base-{base} digit {ch!r} in {text!r}")
            digits.append(v)
        return cls(base, tuple(digits))

    def render(self) -> str:
        """Plain digit-string form (lowercase letters for digits 10-35)."""
        if self.base > _MAX_RENDER_BASE:
            raise ValueError(f"cannot render digits for base {self.base} > {_MAX_RENDER_BASE}")
        return "".join(_DIGIT_CHARS[d] for d in self.digits)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def is_empty(self) -> bool:
        return not self.digits

    @cached_property
    def _counter(self) -> tuple:
        """The below-window table of :func:`count_block`, built on the word's first count.

        ``(B^(c+L-1), top_w)``, or ``(0, None)`` when ``B^L`` exceeds the
        table cap (see the module docstring).  Raises ``ValueError`` for the
        empty word, on every call.
        """
        return _build_counter(self)

    @cached_property
    def _chunk(self) -> tuple:
        """The chunk step of :func:`count_block`, built when a count of the word first takes one.

        ``(B^c, B^(c+L-1), full_w)``, or ``(B, B^L, v(w))`` when ``B^L``
        exceeds the table cap (see the module docstring).
        """
        return _build_chunk(self)

    @cached_property
    def _bit_plan(self) -> tuple | None:
        """The constants of bit-parallel :func:`count_block`, built on first use.

        ``(s, ones, zeros)`` for a base ``B = 2^s``: the offsets ``t < sL`` of
        the one bits and of the zero bits of ``v(w)``.  ``None`` for a base
        that is not a power of two (see the module docstring).
        """
        return _build_bit_plan(self)

    def __getstate__(self):
        # pickle the fields alone, never the tables cached by count_block
        return {"base": self.base, "digits": self.digits}


def word_value(w: Word) -> int:
    """Integer value of ``w`` read as base-``w.base`` digits (leading zeros inert)."""
    v = 0
    for d in w.digits:
        v = v * w.base + d
    return v


def count_block(w: Word, n: int) -> int:
    """``N_w(n)``: possibly overlapping occurrences of ``w`` in the expansion of ``n``.

    One table lookup for every ``n`` below the word's window ``B^(c+L-1)``,
    and above it one lookup per ``c`` digits (module docstring, "Chunked
    evaluation"); words with ``B^L > 2^10`` take one digit per step.  In a
    power-of-two base, ``n >= 2^_BITWISE_BITS`` is counted with ``2sL + 3``
    whole-integer bit operations instead ("Bit-parallel evaluation"), so the
    time is near-linear in the digit count of ``n``; in other bases it is
    quadratic.  The count for ``n = 0`` is 0 for every word.
    """
    # checks inlined (the empty word fails in the table build): this is
    # called once per integer in counting sweeps
    window, top = w._counter
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n < window:
        return top[n]
    if n >> _BITWISE_BITS and (plan := w._bit_plan):
        s, ones, zeros = plan
        width = -(-n.bit_length() // s) * s  # s bits for each digit of n
        m = ((1 << width) - 1) // ((1 << s) - 1)  # D: bit s*i for each digit i
        for t in ones:
            m &= n >> t
        if zeros:
            n = ~n
            for t in zeros:
                m &= n >> t
        return m.bit_count()
    step, window, full = w._chunk
    c = 0
    if top is None:  # step = B, window = B^L, full = v(w)
        while n:
            c += n % window == full
            n //= step
        return c
    while n >= window:
        c += full[n % window]
        n //= step
    return c + top[n]


# adds 1 to every byte of a count buffer (overflow is ruled out by the caller)
_INCREMENT = bytes(range(1, 256)) + b"\x00"


def block_counts(w: Word, lo: int, hi: int) -> bytearray:
    """``N_w(n)`` for every ``n`` in ``[lo, hi]``; entry ``i`` is ``N_w(lo + i)``.

    Builds the counts level by level from the counting recurrence: level
    ``k`` holds ``N_w`` on ``[lo // B^k, hi // B^k]``, and each entry is the
    entry of its quotient by ``B`` one level up plus the indicator of
    ``n mod B^L == v(w)``.  The result equals :func:`count_block` point by
    point for any ``lo``.  A count never exceeds the digit count of ``n``, so
    ``hi`` may have at most 255 base-``B`` digits.
    """
    if w.is_empty:
        raise ValueError("block counting needs a nonempty word")
    if not isinstance(lo, int) or not isinstance(hi, int) or not 0 <= lo <= hi:
        raise ValueError(f"need integers 0 <= lo <= hi, got lo={lo!r}, hi={hi!r}")
    base = w.base
    modulus = base ** len(w.digits)
    v = word_value(w)
    bounds = []
    a, b = lo, hi
    while b:
        bounds.append((a, b))
        a, b = a // base, b // base
    if len(bounds) > 255:
        raise ValueError("block_counts needs hi below base**255")
    counts = bytearray(1)  # N_w(0) at the level above the last nonzero quotient
    parent_lo = 0
    for a, b in reversed(bounds):
        size = b - a + 1
        level = bytearray(size)
        for r in range(min(base, size)):
            # n = a + r + t*base has quotient (a + r) // base + t
            q = (a + r) // base - parent_lo
            level[r::base] = counts[q : q + (size - r + base - 1) // base]
        first = max(a, 1)
        first += (v - first) % modulus
        if first <= b:
            i = first - a
            level[i::modulus] = level[i::modulus].translate(_INCREMENT)
        counts, parent_lo = level, a
    return counts


# the largest table count_block builds for one word (entries of one byte)
_TABLE_CAP = 2**10


def _build_counter(w: Word) -> tuple:
    """:attr:`Word._counter`: the window and ``top_w`` of :func:`count_block`."""
    if not w.digits:
        raise ValueError("block counting needs a nonempty word")
    base, window = w.base, w.base ** len(w.digits)
    if window > _TABLE_CAP:
        return 0, None
    while window * base <= _TABLE_CAP:
        window *= base
    return window, bytes(block_counts(w, 0, window - 1))


def _build_chunk(w: Word) -> tuple:
    """:attr:`Word._chunk`: the step, window and ``full_w`` of :func:`count_block`."""
    base, length = w.base, len(w.digits)
    modulus, v = base**length, word_value(w)
    window, top = w._counter
    if top is None:
        return base, modulus, v
    # full_k[r] = full_(k-1)[r // B] + [r mod B^L == v] on r < B^(k+L-1), from
    # the all-zero full_0 on r < B^(L-1); full_c, on r < window, is full_w
    full = bytearray(base ** (length - 1))
    while len(full) < window:
        level = bytearray(len(full) * base)
        for r in range(base):
            level[r::base] = full
        level[v::modulus] = level[v::modulus].translate(_INCREMENT)
        full = level
    return window // base ** (length - 1), window, bytes(full)


# count_block counts n >= 2^_BITWISE_BITS bit-parallel in a power-of-two base;
# the chunk loop was faster up to 48-54 bits on the corpus (BENCH_17.json)
_BITWISE_BITS = 54


def _build_bit_plan(w: Word) -> tuple | None:
    """:attr:`Word._bit_plan`: the digit width and bit offsets of bit-parallel counting."""
    s = w.base.bit_length() - 1
    if w.base != 1 << s:
        return None
    v = word_value(w)
    offsets = range(s * len(w.digits))
    return s, tuple(t for t in offsets if v >> t & 1), tuple(t for t in offsets if not v >> t & 1)


def all_words(base: int, max_len: int) -> list[Word]:
    """All nonempty words over ``base`` of length <= ``max_len``, lexicographic.

    Ordering is plain string lexicographic on the rendered form, so e.g.
    ``0 < 00 < 01 < 1 < 10`` for base 2.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    words = []
    stack = [(d,) for d in range(base - 1, -1, -1)]
    while stack:
        digits = stack.pop()
        words.append(Word(base, digits))
        if len(digits) < max_len:
            stack.extend(digits + (d,) for d in range(base - 1, -1, -1))
    return words
