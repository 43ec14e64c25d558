"""Words, l-grams, weight-restricted gram sets, profiles and distances.

A word is a q-ary sequence; its l-gram profile counts how often each
length-l substring occurs, with grams ranked by their base-q value,
rolled along a word as r <- (r*q + s) mod q^l (Karp-Rabin without a
hash modulus, so exact).  Gram sets may be the full cube [q]^l, a
weight-restricted subset (the GC-content style constraint) or an
explicit list.  All values here are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from math import comb, inf
from operator import sub

DNA_LETTERS = "ATGC"
MAX_DIGIT_ALPHABET = 9
MAX_CUBE = 2**20


class CubeTooLarge(RuntimeError):
    """A gram cube [q]^ell too large to list."""


class OutOfSetGramError(ValueError):
    """A word contains an l-gram outside the gram set in force."""

    def __init__(self, gram, position):
        self.gram = tuple(gram)
        self.position = position
        super().__init__(
            f"gram {''.join(map(str, gram))} at position {position} is not in the gram set"
        )


@dataclass(frozen=True)
class Word:
    """A q-ary word: symbols in [0, q-1], length >= 1."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.q < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.q}")
        if len(self.symbols) < 1:
            raise ValueError("empty word")
        for s in self.symbols:
            if not 0 <= s < self.q:
                raise ValueError(f"symbol {s} out of range for q={self.q}")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


def word(text: str, q: int) -> Word:
    """Parse a digit string into a Word over [q].  q is capped at 9."""
    if q > MAX_DIGIT_ALPHABET:
        raise ValueError(f"digit rendering supports q <= {MAX_DIGIT_ALPHABET}")
    if not text:
        raise ValueError("empty word text")
    if not text.isdigit():
        raise ValueError(f"invalid word text {text!r}")
    return Word(tuple(int(c) for c in text), q)


def word_text(x: Word) -> str:
    """Render a word as a digit string (q <= 9)."""
    if x.q > MAX_DIGIT_ALPHABET:
        raise ValueError(f"digit rendering supports q <= {MAX_DIGIT_ALPHABET}")
    return "".join(str(s) for s in x.symbols)


def dna_string(x: Word) -> str:
    """Render a quaternary word as DNA text, 0123 -> ATGC."""
    if x.q != 4:
        raise ValueError("DNA rendering requires q = 4")
    return "".join(DNA_LETTERS[s] for s in x.symbols)


def parse_dna(text: str) -> Word:
    """Parse DNA text (ATGC) into a quaternary word."""
    if not text:
        raise ValueError("empty DNA text")
    try:
        symbols = tuple(DNA_LETTERS.index(c) for c in text.upper())
    except ValueError:
        raise ValueError(f"invalid DNA text {text!r}") from None
    return Word(symbols, 4)


def q_weight(symbols, q: int, q_star: int) -> int:
    """Number of symbols lying in the top band [q - q_star, q - 1]."""
    if not 1 <= q_star <= q - 1:
        raise ValueError(f"q_star must be in [1, q-1], got {q_star}")
    low = q - q_star
    return sum(1 for s in symbols if s >= low)


def gram_values(symbols, q: int, ell: int) -> list[int]:
    """Base-q values of the ell-grams of a symbol sequence, in position order.

    A gram's value is its rank in the full cube [q]^ell.
    """
    modulus = q**ell
    rolled = []
    r = 0
    for s in symbols:
        r = (r * q + s) % modulus
        rolled.append(r)
    return rolled[ell - 1 :]


@dataclass(frozen=True)
class GramSet:
    """An ordered subset of [q]^ell with positional (lexicographic) indexing.

    Sorted grams have increasing base-q values, and `positions` maps
    values to their grams' positions: each value itself over the full cube.
    """

    q: int
    ell: int
    grams: tuple[tuple[int, ...], ...]
    _positions: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("gram length must be >= 1")
        if not self.grams:
            raise ValueError("empty gram set")
        prev = None
        for g in self.grams:
            if len(g) != self.ell:
                raise ValueError(f"gram {g} has length != {self.ell}")
            for s in g:
                if not 0 <= s < self.q:
                    raise ValueError(f"symbol {s} out of range for q={self.q}")
            if prev is not None and g <= prev:
                raise ValueError("grams must be strictly sorted")
            prev = g
        if not self.is_full():
            positions = {gram_values(g, self.q, self.ell)[0]: i for i, g in enumerate(self.grams)}
            object.__setattr__(self, "_positions", positions)

    def __len__(self):
        return len(self.grams)

    def __contains__(self, gram):
        gram = tuple(gram)
        valid = len(gram) == self.ell and all(s in range(self.q) for s in gram)
        return valid and self.positions(gram_values(gram, self.q, self.ell))[0] is not None

    @property
    def values(self):
        """The base-q value of each gram, in order."""
        return range(len(self)) if self._positions is None else self._positions.keys()

    def positions(self, values) -> list[int | None]:
        """Position of the gram with each base-q value; None where absent."""
        if self._positions is None:
            return [v if 0 <= v < len(self) else None for v in values]
        return list(map(self._positions.get, values))

    def is_full(self) -> bool:
        return len(self.grams) == self.q**self.ell

    def label(self, i: int) -> str:
        return "".join(map(str, self.grams[i]))


def check_cube(q: int, ell: int):
    """Refuse the cube [q]^ell above MAX_CUBE grams, before anything sized by it is built."""
    # q >= 2 puts q**ell above MAX_CUBE once ell reaches its bit length
    if q ** min(ell, MAX_CUBE.bit_length()) > MAX_CUBE:
        raise CubeTooLarge(f"{q}**{ell} grams exceed the cube guard of {MAX_CUBE}")


def _cube(q: int, ell: int):
    """All of [q]^ell in lexicographic order, refused above MAX_CUBE grams."""
    check_cube(q, ell)
    return product(range(q), repeat=ell)


@cache
def full_gram_set(q: int, ell: int) -> GramSet:
    """The unrestricted gram set [q]^ell, built once per (q, ell)."""
    return GramSet(q, ell, tuple(_cube(q, ell)))


def build_weight_set(q: int, ell: int, q_star: int, w1: int, w2: int) -> GramSet:
    """All ell-grams whose q_star-weight lies in [w1, w2], sorted."""
    if not 0 <= w1 <= w2 <= ell:
        raise ValueError(f"need 0 <= w1 <= w2 <= ell, got [{w1}, {w2}]")
    grams = tuple(
        g for g in _cube(q, ell) if w1 <= q_weight(g, q, q_star) <= w2
    )
    if not grams:
        raise ValueError("weight constraints admit no grams")
    return GramSet(q, ell, grams)


def explicit_gram_set(q: int, ell: int, grams) -> GramSet:
    """Gram set from an explicit collection; sorts and rejects duplicates."""
    tup = sorted(tuple(g) for g in grams)
    for a, b in zip(tup, tup[1:]):
        if a == b:
            raise ValueError(f"duplicate gram {a}")
    return GramSet(q, ell, tuple(tup))


@dataclass(frozen=True)
class ProfileVector:
    """Occurrence counts, positionally aligned with a GramSet."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if min(self.counts, default=0) < 0:
            first = next(c for c in self.counts if c < 0)
            raise ValueError(f"negative count {first}")

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    @property
    def total(self) -> int:
        return sum(self.counts)


def profile(x: Word, s: GramSet) -> ProfileVector:
    """Profile of x over s.  Strict: any out-of-set gram is an error.

    The count vector sums to len(x) - ell + 1.
    """
    ell = s.ell
    if len(x) < ell:
        raise ValueError(f"word of length {len(x)} has no {ell}-grams")
    values = gram_values(x.symbols, s.q, ell)
    stop = len(values)
    if x.q > s.q:  # a symbol outside [s.q] would alias another value: stop at its first window
        stop = next((max(i - ell + 1, 0) for i, c in enumerate(x) if c >= s.q), stop)
    counts = [0] * len(s)
    for pos, i in enumerate(s.positions(values[:stop])):
        if i is None:
            raise OutOfSetGramError(x.symbols[pos : pos + ell], pos)
        counts[i] += 1
    if stop < len(values):
        raise OutOfSetGramError(x.symbols[stop : stop + ell], stop)
    return ProfileVector(tuple(counts))


def nearest_row(rows, v):
    """The first of the rows nearest v in asymmetric distance, the larger
    of the one-sided sums of max(u_i - v_i, 0) and of max(v_i - u_i, 0).

    Returns (index, distance, tie), tie saying whether a later row is
    at the same distance; with no rows it is (-1, inf, False).  Each
    row's one-sided sums stop as soon as one exceeds the best distance
    so far, so a beaten row costs only the prefix that beats it; a row
    that ties is measured in full.  The rows all have v's length, which
    is checked once, on the first.
    """
    if rows and len(rows[0]) != len(v):
        raise ValueError(f"length mismatch {len(rows[0])} != {len(v)}")
    best, index, tie = inf, -1, False
    for i, u in enumerate(rows):
        up = down = 0
        for d in map(sub, u, v):
            if d > 0:
                up += d
                if up > best:
                    break
            else:
                down -= d
                if down > best:
                    break
        else:
            dist = up if up > down else down
            if dist < best:
                best, index, tie = dist, i, False
            elif dist == best:
                tie = True
    return index, best, tie


@dataclass(frozen=True)
class ChannelBudget:
    """Error budget: synthesis substitutions, coverage losses, gram substitutions."""

    s_syn: int = 0
    t: int = 0
    s_seq: int = 0

    def __post_init__(self):
        if min(self.s_syn, self.t, self.s_seq) < 0:
            raise ValueError("channel budgets must be nonnegative")


# --- gram-set / profile text formats -------------------------------------
#
# Profile file: a header line "q ell <set-spec> n" followed by one line of
# space-separated counts.  <set-spec> is "full", "weight q* w1 w2", or
# "explicit g1 g2 ..." (digit strings).

def gram_set_spec(s: GramSet) -> str:
    """The shortest spec naming s: full, weight (smallest q*), or explicit.

    s lies inside the weight set spanning its own weights, so equal
    sizes mean equal sets.
    """
    if s.is_full():
        return "full"
    q, ell = s.q, s.ell
    for q_star in range(1, q):
        weights = [q_weight(g, q, q_star) for g in s.grams]
        span = range(min(weights), max(weights) + 1)
        if len(s) == sum(comb(ell, w) * q_star**w * (q - q_star) ** (ell - w) for w in span):
            return f"weight {q_star} {span.start} {span.stop - 1}"
    return "explicit " + " ".join(s.label(i) for i in range(len(s)))


def parse_gram_set_spec(q: int, ell: int, tokens: list[str]) -> GramSet:
    """Build a gram set from header tokens (see module format notes)."""
    if not tokens:
        raise ValueError("missing gram set spec")
    if ell < 2:
        raise ValueError("gram length must be >= 2")
    kind = tokens[0]
    if kind == "full":
        if len(tokens) != 1:
            raise ValueError("full spec takes no arguments")
        return full_gram_set(q, ell)
    if kind == "weight":
        if len(tokens) != 4:
            raise ValueError("weight spec needs: weight q* w1 w2")
        q_star, w1, w2 = (int(t) for t in tokens[1:])
        return build_weight_set(q, ell, q_star, w1, w2)
    if kind == "explicit":
        grams = [tuple(int(c) for c in tok) for tok in tokens[1:]]
        return explicit_gram_set(q, ell, grams)
    raise ValueError(f"unknown gram set spec {kind!r}")


def format_profile_file(counts, s: GramSet, n: int) -> str:
    header = f"{s.q} {s.ell} {gram_set_spec(s)} {n}"
    return header + "\n" + " ".join(str(c) for c in counts) + "\n"


def parse_profile_file(text: str):
    """Parse a profile file; returns (gram_set, n, counts)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("profile file needs a header line and a counts line")
    head = lines[0].split()
    if len(head) < 4:
        raise ValueError("profile header needs: q ell <set-spec> n")
    q, ell = int(head[0]), int(head[1])
    n = int(head[-1])
    s = parse_gram_set_spec(q, ell, head[2:-1])
    counts = ProfileVector(int(t) for t in lines[1].split()).counts
    if len(counts) != len(s):
        raise ValueError(f"expected {len(s)} counts, got {len(counts)}")
    return s, n, counts
