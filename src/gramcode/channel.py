"""Seeded simulation of the synthesis/coverage/sequencing channel.

A transmission applies, in order: exactly s_syn symbol substitutions at
distinct positions of the word, loss of t of its gram occurrences, and
a single-symbol substitution inside s_seq of the surviving occurrences.
The observation counts each occurrence's base-q value over the full gram
cube (refused above grams.MAX_CUBE grams) without listing the cube.
Every random draw comes from a splitmix64 stream seeded explicitly, so
traces replay bit-exactly anywhere.  `inject` applies a trace verbatim;
`transmit` draws one and applies it through the same helpers, building
the survivors once for both the draws and the count.

Draw order, for reproducibility: (with --at-most, one draw per budget
entry first, each uniform on 0..budget) synthesis positions as a
k-of-n sample, then one new symbol per position in ascending position
order; dropped occurrence indices as a k-of-n sample; substituted
occurrence indices (relative to the survivors in position order) as a
k-of-n sample, then per occurrence in ascending order a position in the
gram and a different symbol there.  k-of-n sampling is a partial
Fisher-Yates over range(n), and every bounded draw uses rejection on
64-bit splitmix output, so a bound above 2**64 is refused.

Also here: the support-only and rank-only readout helpers, the exact
count of distinct gram supports for short binary words, and the
arc-disjoint decomposition of the full graph into q equal trails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .grams import (
    ChannelBudget, GramSet, ProfileVector, Word, check_cube, full_gram_set, gram_values,
)
from .graphs import SearchBudgetExceeded, build_graph, eulerian_walk

_MASK = (1 << 64) - 1
TRAIL_SEARCH_BUDGET = 5_000_000


class Splitmix64:
    """splitmix64: z += 0x9E3779B97F4A7C15; mix via xorshift-multiply."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (no modulo bias); n <= 2**64."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n > _MASK + 1:
            raise ValueError(f"below() bound {n} exceeds 2**64")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            x = self.next64()
            if x < limit:
                return x % n

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n): partial Fisher-Yates, sorted.

        The pool range(n) is kept as the entries its swaps moved, so a
        sample costs O(k) whatever n is.
        """
        if k > n:
            raise ValueError(f"cannot sample {k} of {n}")
        moved: dict[int, int] = {}
        picked = []
        for i in range(k):
            j = i + self.below(n - i)
            picked.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return sorted(picked)


@dataclass(frozen=True)
class ChannelTrace:
    """Everything a transmission did, sufficient for bit-exact replay.

    synthesis: (position, new symbol) pairs, distinct ascending positions.
    dropped: distinct indices into the synthesized word's gram occurrences.
    gram_subs: (survivor index, new gram) pairs, distinct indices that
    count the occurrences left after drops, in position order.
    """

    seed: int | None
    synthesis: tuple[tuple[int, int], ...]
    dropped: tuple[int, ...]
    gram_subs: tuple[tuple[int, tuple[int, ...]], ...]


def _survivors(x: Word, ell: int, synthesis, dropped) -> list[int]:
    """x's gram occurrences as base-q values, in position order, after synthesis and drops."""
    n = len(x)
    if len({pos for pos, _ in synthesis}) < len(synthesis):
        raise ValueError("synthesis positions must be distinct")
    symbols = list(x.symbols)
    for pos, new in synthesis:
        if not 0 <= pos < n:
            raise ValueError(f"synthesis position {pos} out of range")
        if new not in range(x.q):
            raise ValueError(f"symbol {new} out of range for q={x.q}")
        if symbols[pos] == new:
            raise ValueError("substitution must change the symbol")
        symbols[pos] = new
    n_grams = n - ell + 1
    drops = set(dropped)
    if len(drops) < len(dropped):
        raise ValueError("dropped indices must be distinct")
    if any(not 0 <= i < n_grams for i in drops):
        raise ValueError("dropped index out of range")
    return [v for i, v in enumerate(gram_values(symbols, x.q, ell)) if i not in drops]


def _observe(survivors: list[int], gram_subs, q: int, ell: int) -> ProfileVector:
    """Substitute grams in the survivors and count their values over the full cube."""
    if len({idx for idx, _ in gram_subs}) < len(gram_subs):
        raise ValueError("substitution indices must be distinct")
    for idx, new_gram in gram_subs:
        if not 0 <= idx < len(survivors):
            raise ValueError(f"substitution index {idx} out of range")
        new_gram = tuple(new_gram)
        if len(new_gram) != ell or any(s not in range(q) for s in new_gram):
            raise ValueError(f"gram {new_gram} lies outside [{q}]^{ell}")
        value = gram_values(new_gram, q, ell)[0]
        if value == survivors[idx]:
            raise ValueError("gram substitution must change the gram")
        survivors[idx] = value
    counts = [0] * q**ell
    for value in survivors:
        counts[value] += 1
    return ProfileVector(tuple(counts))


def _check_gram_length(x: Word, ell: int) -> None:
    """Refuse ell outside 1..len(x), or a cube [q]^ell above MAX_CUBE grams."""
    if not 1 <= ell <= len(x):
        raise ValueError(f"gram length must lie in 1..{len(x)}, the word length; got {ell}")
    check_cube(x.q, ell)


def inject(x: Word, ell: int, trace: ChannelTrace) -> ProfileVector:
    """Apply a trace to a word; the observation over the full gram cube."""
    _check_gram_length(x, ell)
    survivors = _survivors(x, ell, trace.synthesis, trace.dropped)
    return _observe(survivors, trace.gram_subs, x.q, ell)


def transmit(
    x: Word,
    ell: int,
    budget: ChannelBudget,
    seed: int,
    at_most: bool = False,
):
    """One seeded channel use; returns (observation, trace).

    Budgets are used exactly unless at_most is set, in which case each
    actual count is drawn uniformly from 0..budget first (worst-case
    testing wants saturated budgets; the channel definition only
    promises "at most").
    """
    _check_gram_length(x, ell)
    n = len(x)
    rng = Splitmix64(seed)
    s_syn, t, s_seq = budget.s_syn, budget.t, budget.s_seq
    if at_most:
        s_syn = rng.below(s_syn + 1)
        t = rng.below(t + 1)
        s_seq = rng.below(s_seq + 1)
    n_grams = n - ell + 1
    if t + s_seq > n_grams:
        raise ValueError(f"t + s_seq = {t + s_seq} exceeds the {n_grams} occurrences")
    if s_syn > n:
        raise ValueError(f"cannot substitute {s_syn} of {n} positions")

    q = x.q
    synthesis = tuple(
        (pos, (x.symbols[pos] + 1 + rng.below(q - 1)) % q) for pos in rng.sample(n, s_syn)
    )
    dropped = tuple(rng.sample(n_grams, t))
    survivors = _survivors(x, ell, synthesis, dropped)
    gram_subs = []
    for idx in rng.sample(len(survivors), s_seq):
        old = tuple(survivors[idx] // q**k % q for k in reversed(range(ell)))  # the survivor's gram
        inside = rng.below(ell)
        new_symbol = (old[inside] + 1 + rng.below(q - 1)) % q
        gram_subs.append((idx, old[:inside] + (new_symbol,) + old[inside + 1 :]))
    trace = ChannelTrace(seed, synthesis, dropped, tuple(gram_subs))
    return _observe(survivors, trace.gram_subs, q, ell), trace


def trace_to_json(trace: ChannelTrace) -> str:
    return json.dumps(
        {
            "seed": trace.seed,
            "synthesis": [list(pair) for pair in trace.synthesis],
            "dropped": list(trace.dropped),
            "gram_subs": [[idx, list(gram)] for idx, gram in trace.gram_subs],
        },
        indent=2,
    )


def trace_from_json(text: str) -> ChannelTrace:
    data = json.loads(text)
    return ChannelTrace(
        data.get("seed"),
        tuple((int(p), int(s)) for p, s in data["synthesis"]),
        tuple(int(i) for i in data["dropped"]),
        tuple((int(i), tuple(int(c) for c in g)) for i, g in data["gram_subs"]),
    )


# --- support-only readout ----------------------------------------------------

def support_readout(counts, s: GramSet):
    """The grams with positive count: all a presence/absence reader sees."""
    counts = tuple(counts)
    if len(counts) != len(s):
        raise ValueError(f"expected {len(s)} counts, got {len(counts)}")
    return tuple(g for g, c in zip(s.grams, counts) if c > 0)


def star_distance(x: Word, y: Word, ell: int) -> int:
    """Size of the symmetric difference of the words' gram supports."""
    q = max(x.q, y.q)
    return len(set(gram_values(x.symbols, q, ell)) ^ set(gram_values(y.symbols, q, ell)))


def star_identification_bound(n: int, ell: int, d: int) -> int:
    """How many observed grams pin down a codeword at support distance d."""
    return n - ell + 1 - (d - 1) // 2


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def tan_shallit_count(n: int, ell: int) -> int:
    """Distinct gram supports among binary words of length n, for n < 2*ell.

    2^n minus a correction summing (k-1)/k * sum_{d|k} mobius(k/d) 2^d
    over k = 1..n-ell+1; the inner sum is k times a whole number, so the
    arithmetic stays exact.
    """
    if not ell <= n < 2 * ell:
        raise ValueError(f"count valid only for ell <= n < 2*ell, got n={n}, ell={ell}")
    total = 2**n
    for k in range(1, n - ell + 2):
        inner = sum(_mobius(k // d) * 2**d for d in range(1, k + 1) if k % d == 0)
        total -= (k - 1) * inner // k
    return total


# --- equal trail decomposition -----------------------------------------------

def cycle_decomposition(q: int, ell: int):
    """Split all q^ell arcs of the full graph into q trails of q^(ell-1) arcs.

    Each trail is a list of arc indices into the full gram set,
    consecutive arcs chaining head to tail with no arc repeated.  The
    first decomposition into closed trails (walks returning to their
    start) in search order is returned; when none exists the Eulerian
    circuit of the graph is cut into q consecutive open trails.  The
    closed-trail search gives up after TRAIL_SEARCH_BUDGET arc
    placements with SearchBudgetExceeded.
    """
    if q**ell > 64:
        raise ValueError("decomposition search is desk-scale only (q^ell <= 64)")
    graph = build_graph(full_gram_set(q, ell))
    length = q ** (ell - 1)
    arcs = _closed_trails(graph, length)
    if arcs is None:
        walk = eulerian_walk(graph, [1] * graph.n_arcs)
        arcs = [graph.arc_of[u, v] for u, v in zip(walk, walk[1:])]
    return [arcs[i : i + length] for i in range(0, len(arcs), length)]


def _closed_trails(graph, length):
    """All arcs in one list that consecutive `length`-arc slices split into
    closed trails, the first such in search order; None if there is none.

    Depth-first over arc slots: a slot starting a trail takes the first
    unused arc (a closed trail can be rotated to start there), every
    other slot an unused arc out of the previous arc's head, ascending,
    and a trail's last slot only an arc back to the trail's start.
    """
    budget = TRAIL_SEARCH_BUDGET
    used = [False] * graph.n_arcs
    path: list[int] = []

    def options():
        i = len(path) % length
        if i == 0:
            return iter([used.index(False)])
        start = graph.arc_init[path[-i]]
        head = graph.arc_term[path[-1]]
        return iter([
            a for a in graph.out_adj[head]
            if not used[a] and (i < length - 1 or graph.arc_term[a] == start)
        ])

    stack = [options()]
    steps = 0
    while stack:
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
            if path:
                used[path.pop()] = False
            continue
        steps += 1
        if steps > budget:
            raise SearchBudgetExceeded(f"trail search exceeded {budget} steps")
        used[a] = True
        path.append(a)
        if len(path) == graph.n_arcs:
            return path
        stack.append(options())
    return None
