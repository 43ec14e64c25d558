"""Code constructions and the profile <-> word pipeline.

Two ways to build an l-gram reconstruction code: intersect a Varshamov
code with the realizable profiles of length-n words (interior flow
points, all of which a single Eulerian walk realizes, so one strong
component check of the graph certifies the whole book), or extend short
message vectors into profiles with a systematic encoder built on a
Hamiltonian cycle plus a loop.  The deterministic Euler map turns any
feasible profile back into its canonical word, which is also how noisy
observations are decoded after a minimum-distance scan of the codebook;
the scan drops each row once it is beaten and measures a row that ties
in full.
Rank-modulation messages ride the same systematic encoder: permutations
go in as info counts and come back out as the relative order of counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .aecc import VarshamovCode
from .grams import (
    GramSet,
    ProfileVector,
    Word,
    full_gram_set,
    gram_set_spec,
    nearest_row,
    parse_gram_set_spec,
)
from .graphs import (
    DeBruijnGraph,
    build_graph,
    eulerian_walk,
    hamiltonian_cycle,
    net_outflow,
    strongly_connected_components,
)
from .lattice import enumerate_points, flow_system_for_words


def euler_word(counts, s: GramSet, graph: DeBruijnGraph | None = None) -> Word:
    """The canonical word realizing a profile, via the deterministic walk.

    Valid for balanced (closed-word) profiles and for profiles with a
    single source/sink imbalance pair (open words); the multiset's
    support must be connected.  The result has profile exactly `counts`
    and length sum(counts) + ell - 1.
    """
    graph = graph or build_graph(s)
    walk = eulerian_walk(graph, counts)
    nodes = graph.nodes
    return Word(nodes[walk[0]] + tuple(nodes[v][-1] for v in walk[1:]), s.q)


def rotation_start(values) -> int:
    """First index whose rotation has all running prefix sums nonnegative.

    Requires sum(values) == 0; the index right after the first minimal
    prefix sum always works and is the deterministic choice.
    """
    values = list(values)
    if sum(values) != 0:
        raise ValueError("rotation requires values summing to zero")
    best_idx = 0
    best = 0
    running = 0
    for i, r in enumerate(values[:-1]):
        running += r
        if running < best:
            best = running
            best_idx = i + 1
    return best_idx


@dataclass(frozen=True)
class SystematicLayout:
    """Coordinates of the systematic encoder on one graph.

    The arcs split three ways: a Hamiltonian cycle (flow repair), one
    loop (sum slack), and the info positions I carrying the message.
    m bounds the per-symbol message alphabet.
    """

    graph: DeBruijnGraph
    ham_cycle: tuple[int, ...]
    loop_arc: int
    info_positions: tuple[int, ...]
    m: int

    @property
    def gram_set(self) -> GramSet:
        return self.graph.gram_set


def message_bound(graph: DeBruijnGraph, n: int) -> int:
    """Largest safe message alphabet for words of length n on this graph."""
    s = graph.gram_set
    denom = comb(graph.n_nodes, 2) * (s.q - 1) + graph.n_arcs - graph.n_nodes - 1
    if denom <= 0:
        raise ValueError("graph has no info positions")
    return (n - s.ell + 1) // denom


def systematic_layout(graph: DeBruijnGraph, m: int) -> SystematicLayout:
    """Build the encoder layout: Hamiltonian cycle, smallest loop, info rest.

    The cheap checks (two nodes, a loop, m >= 1) run before the cycle
    search, whose budget can take seconds to run out.
    """
    if graph.n_nodes < 2:
        raise ValueError("layout needs at least two nodes")
    loops = graph.loops()
    if not loops:
        raise ValueError("layout needs a loop arc")
    if m < 1:
        raise ValueError("message alphabet must be positive")
    ham_cycle = tuple(hamiltonian_cycle(graph))
    cycle_arcs = [graph.arc_of[u, v] for u, v in zip(ham_cycle, ham_cycle[1:] + ham_cycle[:1])]
    loop_arc = loops[0]
    info = tuple(
        a for a in range(graph.n_arcs) if a != loop_arc and a not in cycle_arcs
    )
    return SystematicLayout(graph, ham_cycle, loop_arc, info, m)


def systematic_encode(
    layout: SystematicLayout, message, n: int, override: bool = False
) -> ProfileVector:
    """Extend a message over the info positions into a profile of length-n words.

    Info arcs carry the message verbatim; the cycle arcs absorb the node
    imbalances the message creates (each at least 1, via the rotation
    trick); the loop takes the leftover sum.  With override=True the
    alphabet bound is skipped and only the final leftover >= 0 check
    guards validity.
    """
    graph = layout.graph
    s = graph.gram_set
    message = tuple(message)
    if len(message) != len(layout.info_positions):
        raise ValueError(
            f"message length {len(message)} != {len(layout.info_positions)} info positions"
        )
    if any(v < 0 or v >= layout.m for v in message):
        raise ValueError(f"message symbols must lie in [0, {layout.m - 1}]")
    if not override and layout.m > message_bound(graph, n):
        raise ValueError(
            f"alphabet {layout.m} exceeds the bound {message_bound(graph, n)} for n={n}"
        )

    total = n - s.ell + 1
    counts = [0] * graph.n_arcs
    for a, v in zip(layout.info_positions, message):
        counts[a] = v
    outflow = net_outflow(graph, counts)

    cycle = layout.ham_cycle
    k = len(cycle)
    start = rotation_start([-outflow[c] for c in cycle])
    order = [cycle[(start + i) % k] for i in range(k)]
    running = 0
    for i, node in enumerate(order):
        arc = graph.arc_of[order[i - 1], node]
        counts[arc] = 1 + running
        running -= outflow[node]

    leftover = total - sum(counts)
    if leftover < 0:
        raise ValueError(
            f"message too heavy for n={n}: loop count would be {leftover}"
        )
    counts[layout.loop_arc] += leftover
    if sum(counts) != total or any(net_outflow(graph, counts)):
        raise AssertionError("systematic encoding broke the sum or flow conservation")
    return ProfileVector(tuple(counts))


@dataclass(frozen=True)
class GrcCodebook:
    """A reconstruction code: realizable profiles at pairwise distance >= d."""

    n: int
    gram_set: GramSet
    codewords: tuple[tuple[int, ...], ...]
    distance: int
    provenance: str

    def __len__(self):
        return len(self.codewords)

    @cached_property
    def graph(self) -> DeBruijnGraph:
        """D(S), built once per book for the words of its decodes."""
        return build_graph(self.gram_set)


def grc_intersect(code: VarshamovCode, n: int, s: GramSet) -> GrcCodebook:
    """Codebook of Varshamov members among the profiles of length-n words.

    The enumeration restricted by the code is the codebook, certified for
    every point at once by one strong component check of D(S).  A point
    is balanced with every count >= 1, so on a strongly connected
    D(S) it is Eulerian and a closed word realizes it (Euler's theorem).
    An arc between components lies on no cycle, so there is no point
    and the book is empty; components with no arc between them give
    every point a disconnected support, which is refused.
    """
    if code.length != len(s):
        raise ValueError("code length must match the gram set size")
    graph = build_graph(s)
    points = enumerate_points(flow_system_for_words(graph, n, "E", code))
    if points and len(strongly_connected_components(graph)) > 1:
        raise ValueError("arc support is disconnected; no single walk covers it")
    return GrcCodebook(n, s, tuple(points), code.design_distance, "intersection")


def systematic_grc(
    aecc_words, layout: SystematicLayout, n: int, distance: int
) -> GrcCodebook:
    """Image of an AECC, within the layout's alphabet bound for n, under the
    systematic encoder.  Restricting a codeword to the info positions
    recovers its word, so the words' asymmetric distance `distance` holds."""
    codewords = tuple(systematic_encode(layout, v, n).counts for v in aecc_words)
    return GrcCodebook(n, layout.gram_set, codewords, distance, "systematic")


@dataclass(frozen=True)
class DecodeResult:
    index: int
    codeword: tuple[int, ...]
    word: Word
    distance: int
    foreign_mass: int
    tie: bool


def project_observed(observed, s: GramSet):
    """Split a full-cube observation into (counts over S, foreign mass)."""
    observed = tuple(observed)
    if len(observed) == len(s):
        return observed, 0
    if len(observed) != s.q**s.ell:
        raise ValueError(
            f"observation length {len(observed)} matches neither |S| nor q^ell"
        )
    projected = tuple(observed[value] for value in s.values)
    return projected, sum(observed) - sum(projected)


def decode_profile(codebook: GrcCodebook, observed) -> DecodeResult:
    """Minimum asymmetric-distance decoding against an explicit codebook.

    Out-of-set observation mass is reported but never matched: S-indexed
    codewords have no foreign coordinates.  Ties keep the first codeword
    in codebook order and set the tie flag.  One grams.nearest_row scan
    bounds each row's distance by the best so far, so a row stops once
    it is beaten; a row that ties is measured in full, so the winner,
    its distance and the tie flag are those of the full scan.  The
    winner's word is walked on the book's own D(S).
    """
    if not codebook.codewords:
        raise ValueError("empty codebook")
    s = codebook.gram_set
    projected, foreign = project_observed(observed, s)
    index, dist, tie = nearest_row(codebook.codewords, projected)
    winner = codebook.codewords[index]
    return DecodeResult(index, winner, euler_word(winner, s, codebook.graph), dist, foreign, tie)


# --- rank modulation --------------------------------------------------------

def rank_modulation_layout(q: int, ell: int) -> SystematicLayout:
    """Layout on the full graph sized so permutations fit the info positions."""
    graph = build_graph(full_gram_set(q, ell))
    m = q**ell - q ** (ell - 1) - 1
    return systematic_layout(graph, m)


def rank_encode(layout: SystematicLayout, perm, n: int) -> ProfileVector:
    """Embed a permutation of [m] into a profile via the systematic encoder.

    The info counts are the permutation values themselves, so a reader
    that only recovers the relative order of those counts recovers the
    permutation.  The generic alphabet bound is deliberately bypassed
    (the leftover check still protects validity).
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("rank input must be a permutation of 0..m-1")
    return systematic_encode(layout, perm, n, override=True)


def rank_readout_decode(layout: SystematicLayout, observed):
    """Permutation read off the relative order of the info counts.

    Returns (permutation, had_ties); ties rank by gram order and raise
    the flag instead of failing.
    """
    s = layout.gram_set
    projected, _ = project_observed(observed, s)
    info_counts = [projected[a] for a in layout.info_positions]
    order = sorted(range(len(info_counts)), key=lambda i: (info_counts[i], i))
    perm = [0] * len(info_counts)
    for rank, i in enumerate(order):
        perm[i] = rank
    had_ties = len(set(info_counts)) != len(info_counts)
    return tuple(perm), had_ties


# --- codebook files ---------------------------------------------------------
#
# Header "n q ell <set-spec> d provenance", then one profile per line.  A
# parsed row must be one a length-n word can have: |S| nonnegative counts
# summing to n - ell + 1.  In-memory books are not held to the sum.

def format_codebook_file(book: GrcCodebook) -> str:
    s = book.gram_set
    lines = [f"{book.n} {s.q} {s.ell} {gram_set_spec(s)} {book.distance} {book.provenance}"]
    for u in book.codewords:
        lines.append(" ".join(map(str, u)))
    return "\n".join(lines) + "\n"


def parse_codebook_file(text: str) -> GrcCodebook:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) < 6:
        raise ValueError("codebook header needs: n q ell <set-spec> d provenance")
    n, q, ell = int(head[0]), int(head[1]), int(head[2])
    provenance = head[-1]
    distance = int(head[-2])
    s = parse_gram_set_spec(q, ell, head[3:-2])
    total = n - ell + 1
    words = []
    for ln in lines[1:]:
        u = tuple(map(int, ln.split()))
        if len(u) != len(s):
            raise ValueError(f"profile has {len(u)} counts, expected {len(s)}")
        if min(u) < 0:
            raise ValueError(f"negative count {min(u)}")
        if sum(u) != total:
            raise ValueError(f"profile sums to {sum(u)}, but a length-{n} word has {total} grams")
        words.append(u)
    return GrcCodebook(n, s, tuple(words), distance, provenance)
