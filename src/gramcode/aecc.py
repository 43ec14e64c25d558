"""Varshamov-style asymmetric error-correcting codes over Z/pZ.

A code is the set of nonnegative integer vectors u with H u = beta
(mod p), where row j of H holds the (j+1)-th powers of N distinct
nonzero residues: a CongruenceBlock, as the lattice scan takes it.
With d rows the code corrects any asymmetric error of L1-weight at
most d (its asymmetric distance is d+1).  Decoding up to weight d is
algebraic, after Varshamov (1973) and Klove (1981): the syndrome gives
the power sums of the error locators, Newton's identities the locator
polynomial, and its roots among the alphas the error.  Only weights
past d, where two codewords can tie, are searched pattern by pattern.
Membership and sizing are plain modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from math import comb
from operator import mul

from .grams import MAX_CUBE, CubeTooLarge

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DecodeFailure(RuntimeError):
    """No codeword lies within the allowed error weight."""


class AmbiguousDecode(DecodeFailure):
    """Two codewords at equal error weight: the distance guarantee was exceeded."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers.

    Trial division by the witnesses, primes up to 37, settles every
    n < 41**2: a composite below that has a prime factor at most 37.
    """
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    if n < 41 * 41:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def choose_prime(n_symbols: int, d: int) -> int:
    """Smallest prime strictly greater than both N and d."""
    p = max(n_symbols, d) + 1
    while not is_prime(p):
        p += 1
    return p


@dataclass(frozen=True)
class CongruenceBlock:
    """Rows H, prime modulus p and residues beta: keep only H u = beta (mod p)."""

    rows: tuple[tuple[int, ...], ...]
    p: int
    beta: tuple[int, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("congruence block needs at least one row")
        if len({len(row) for row in self.rows}) != 1:
            raise ValueError("congruence rows must have equal lengths")
        if not is_prime(self.p):
            raise ValueError(f"congruence modulus must be prime, got {self.p}")
        object.__setattr__(
            self, "rows", tuple(tuple(h % self.p for h in row) for row in self.rows)
        )
        object.__setattr__(self, "beta", tuple(b % self.p for b in self.beta))
        if len(self.beta) != len(self.rows):
            raise ValueError("one beta residue per row required")

    @property
    def length(self) -> int:
        return len(self.rows[0])

    def syndrome(self, u) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, u)) % self.p for row in self.rows)

    def is_member(self, u) -> bool:
        if len(u) != self.length:
            raise ValueError(f"vector length {len(u)} != {self.length}")
        if any(c < 0 for c in u):
            return False
        return self.syndrome(u) == self.beta


@dataclass(frozen=True)
class VarshamovCode(CongruenceBlock):
    """A block whose row j holds the (j+1)-th powers of the alphas."""

    alphas: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def design_distance(self) -> int:
        """Asymmetric distance guaranteed by d parity rows."""
        return self.d + 1


def build_code(p: int, alphas, d: int, beta=None) -> VarshamovCode:
    """The code with H[j][i] = alphas[i]**(j+1) mod p; its block checks p and beta."""
    n = len(alphas)
    if p <= n or p <= d:
        raise ValueError(f"need p > N and p > d, got p={p}, N={n}, d={d}")
    alphas = tuple(a % p for a in alphas)
    if not alphas or len(set(alphas)) != n or 0 in alphas:
        raise ValueError("alphas must be nonempty, distinct and nonzero mod p")
    return VarshamovCode(_power_rows(p, alphas, d), p, (0,) * d if beta is None else beta, alphas)


@cache
def _power_rows(p: int, alphas: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..d of alphas' powers mod p, shared by every coset of one code."""
    return tuple(tuple(pow(a, j + 1, p) for a in alphas) for j in range(d))


def code_size_ambient(code: CongruenceBlock, m: int) -> int:
    """Number of members of [m]^N, by dynamic programming over partial syndromes."""
    if m < 0:
        raise ValueError("ambient alphabet size must be nonnegative")
    p = code.p
    table = {(0,) * len(code.rows): 1}
    for col in zip(*code.rows):
        nxt = {}
        for state, ways in table.items():
            for value in range(m):
                key = tuple((s + h * value) % p for s, h in zip(state, col))
                nxt[key] = nxt.get(key, 0) + ways
        table = nxt
    return table.get(code.beta, 0)


def decode_bounded(code: VarshamovCode, received, max_weight: int):
    """Recover the codeword from an asymmetric (all-decreasing) error.

    Returns the codeword received + e for the error e >= 0 of least
    L1 weight.  Up to weight d the decoding is algebraic: the syndrome
    difference beta - H received gives the power sums s_1..s_d of the
    error locators (alpha_i repeated e_i times), Newton's identities
    turn them into the elementary symmetric functions e_1..e_d, the last
    nonzero one gives the weight w and the locator polynomial, and its
    roots among the alphas, with multiplicity, give e.  So there is at
    most one candidate up to weight d, kept only if w <= max_weight and
    it is a member.  Past d the error patterns of each weight are
    searched, and two hits at the same weight raise AmbiguousDecode (the
    error exceeded the design guarantee); exhausting max_weight raises
    DecodeFailure.  A weight that would take the patterns searched past d
    above MAX_CUBE raises CubeTooLarge before it is searched.
    """
    received = tuple(received)
    if len(received) != code.length:
        raise ValueError(f"vector length {len(received)} != {code.length}")
    if max_weight < 0:
        raise ValueError(f"error weight bound must be nonnegative, got {max_weight}")
    p = code.p
    sums = [(b - s) % p for b, s in zip(code.beta, code.syndrome(received))]
    # elementary symmetric functions of the locators by Newton's identities,
    # k e_k = sum_i (-1)^(i-1) e_(k-i) s_i with k <= d < p invertible mod p
    elementary = [1]
    for k in range(1, code.d + 1):
        total = sum((-1) ** (i - 1) * elementary[k - i] * sums[i - 1] for i in range(1, k + 1))
        elementary.append(total * pow(k, -1, p) % p)
    # a weight-w error has e_w != 0, a product of nonzero alphas, and e_k = 0
    # past w, so w is the last nonzero e_k; its locator x^w - e_1 x^(w-1) +
    # ... + (-1)^w e_w, highest degree first, has the error's locators as
    # roots, each divided out by synthetic division at an alpha
    w = max(k for k, e in enumerate(elementary) if e)
    locator = [(-1) ** k * elementary[k] % p for k in range(w + 1)]
    candidate = list(received)
    for i, a in enumerate(code.alphas):
        while len(locator) > 1:
            quotient = []
            remainder = 0
            for c in locator:
                remainder = (remainder * a + c) % p
                quotient.append(remainder)
            if quotient.pop():
                break
            locator = quotient
            candidate[i] += 1
    if w <= max_weight and len(locator) == 1 and code.is_member(candidate):
        return tuple(candidate)
    for w in range(code.d + 1, max_weight + 1):
        patterns = comb(code.length + w, w) - comb(code.length + code.d, code.d)
        if patterns > MAX_CUBE:
            raise CubeTooLarge(f"{patterns} error patterns from weight {code.d + 1} to {w} "
                               f"exceed the cube guard of {MAX_CUBE}")
        hit = _search_weight(code, received, w)
        if hit is not None:
            return hit
    raise DecodeFailure(f"no codeword within error weight {max_weight}")


def _search_weight(code: VarshamovCode, received, w: int):
    """The codeword received + e over the errors e of weight w, or None; two raise AmbiguousDecode.

    Each e is its support, a multiset of positions in
    combinations_with_replacement order.  received + e is a member when
    the support's columns of H add up to beta - H received mod p, row by
    row, the first row checked alone first, and every negative entry of
    received is raised to 0 or more by the support.  Only a hit is built.
    """
    p = code.p
    (first, need), *rest = [(row, (b - s) % p) for row, b, s
                            in zip(code.rows, code.beta, code.syndrome(received))]
    short = [i for i, r in enumerate(received) if r < 0]
    hits = []
    for support in combinations_with_replacement(range(code.length), w):
        if sum(map(first.__getitem__, support)) % p != need:
            continue
        if any(sum(map(row.__getitem__, support)) % p != r for row, r in rest):
            continue
        if any(received[i] + support.count(i) < 0 for i in short):
            continue
        candidate = list(received)
        for i in support:
            candidate[i] += 1
        hits.append(tuple(candidate))
        if len(hits) > 1:
            raise AmbiguousDecode(
                f"two codewords at error weight {w}: {hits[0]} and {hits[1]}"
            )
    return hits[0] if hits else None


# --- code spec files -------------------------------------------------------
#
# Line-oriented: "p <int>", "d <int>", "beta b1 .. bd", "alphas a1 .. aN".

def format_code_file(code: VarshamovCode) -> str:
    return (
        f"p {code.p}\n"
        f"d {code.d}\n"
        f"beta {' '.join(map(str, code.beta))}\n"
        f"alphas {' '.join(map(str, code.alphas))}\n"
    )


def parse_code_file(text: str) -> VarshamovCode:
    fields = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        fields[parts[0]] = parts[1:]
    try:
        p = int(fields["p"][0])
        d = int(fields["d"][0])
        beta = tuple(int(x) for x in fields["beta"])
        alphas = tuple(int(x) for x in fields["alphas"])
    except KeyError as missing:
        raise ValueError(f"code file is missing the {missing} line") from None
    except IndexError:
        raise ValueError("code file p and d lines need a value") from None
    return build_code(p, alphas, d, beta)
