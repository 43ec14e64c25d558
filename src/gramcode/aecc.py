"""Varshamov-style asymmetric error-correcting codes over Z/pZ.

A code is the set of nonnegative integer vectors u with H u = beta
(mod p), where row j of H holds the (j+1)-th powers of N distinct
nonzero residues.  With d rows the code corrects any asymmetric error
of L1-weight at most d (its asymmetric distance is d+1).  Decoding here
is exhaustive bounded-weight search, exact at the scales this package
targets; membership and sizing are plain modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DecodeFailure(RuntimeError):
    """No codeword lies within the allowed error weight."""


class AmbiguousDecode(DecodeFailure):
    """Two codewords at equal error weight: the distance guarantee was exceeded."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
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
class VarshamovCode:
    """Parity structure H u = beta (mod p) with power-of-alpha rows."""

    p: int
    alphas: tuple[int, ...]
    d: int
    beta: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.alphas)

    @property
    def design_distance(self) -> int:
        """Asymmetric distance guaranteed by d parity rows."""
        return self.d + 1

    def syndrome(self, u) -> tuple[int, ...]:
        return tuple(sum(h * c for h, c in zip(row, u)) % self.p for row in self.rows)

    def is_member(self, u) -> bool:
        if len(u) != self.length:
            raise ValueError(f"vector length {len(u)} != {self.length}")
        if any(c < 0 for c in u):
            return False
        return self.syndrome(u) == self.beta


def build_code(p: int, alphas, d: int, beta=None) -> VarshamovCode:
    """Materialize the parity matrix H[j][i] = alphas[i]**(j+1) mod p."""
    alphas = tuple(a % p for a in alphas)
    n = len(alphas)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= n or p <= d:
        raise ValueError(f"need p > N and p > d, got p={p}, N={n}, d={d}")
    if d < 1:
        raise ValueError("need at least one parity row")
    if len(set(alphas)) != n or 0 in alphas:
        raise ValueError("alphas must be distinct and nonzero mod p")
    if beta is None:
        beta = (0,) * d
    beta = tuple(b % p for b in beta)
    if len(beta) != d:
        raise ValueError(f"beta must have {d} entries")
    rows = tuple(
        tuple(pow(a, j + 1, p) for a in alphas) for j in range(d)
    )
    return VarshamovCode(p, alphas, d, beta, rows)


def default_code(n_symbols: int, d: int, beta=None) -> VarshamovCode:
    """Code with the canonical choices: p just above max(N, d), alphas 1..N."""
    p = choose_prime(n_symbols, d)
    return build_code(p, tuple(range(1, n_symbols + 1)), d, beta)


def code_size_ambient(code: VarshamovCode, m: int) -> int:
    """Number of members of [m]^N, via dynamic programming over syndromes."""
    if m < 0:
        raise ValueError("ambient alphabet size must be nonnegative")
    p, d = code.p, code.d
    space = p**d
    table = [0] * space
    table[0] = 1
    for i in range(code.length):
        col = [code.rows[j][i] for j in range(d)]
        nxt = [0] * space
        for state, ways in enumerate(table):
            if not ways:
                continue
            digits = []
            st = state
            for _ in range(d):
                st, r = divmod(st, p)
                digits.append(r)
            for value in range(m):
                key = 0
                for j in range(d - 1, -1, -1):
                    key = key * p + (digits[j] + col[j] * value) % p
                nxt[key] += ways
        table = nxt
    key = 0
    for j in range(d - 1, -1, -1):
        key = key * p + code.beta[j]
    return table[key]


def decode_bounded(code: VarshamovCode, received, max_weight: int):
    """Recover the codeword from an asymmetric (all-decreasing) error.

    Tries error patterns e >= 0 in increasing L1 weight, each as the
    multiset of coordinates it raises, and returns the unique codeword
    received + e.  Two hits at the same weight raise AmbiguousDecode
    (the error exceeded the design guarantee); exhausting max_weight
    raises DecodeFailure.
    """
    received = tuple(received)
    if len(received) != code.length:
        raise ValueError(f"vector length {len(received)} != {code.length}")
    if max_weight < 0:
        raise ValueError(f"error weight bound must be nonnegative, got {max_weight}")
    for w in range(max_weight + 1):
        hits = []
        for support in combinations_with_replacement(range(code.length), w):
            candidate = list(received)
            for i in support:
                candidate[i] += 1
            if code.is_member(candidate):
                hits.append(tuple(candidate))
                if len(hits) > 1:
                    raise AmbiguousDecode(
                        f"two codewords at error weight {w}: {hits[0]} and {hits[1]}"
                    )
        if hits:
            return hits[0]
    raise DecodeFailure(f"no codeword within error weight {max_weight}")


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
