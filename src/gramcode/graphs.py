"""Restricted de Bruijn graphs and their structural analyses.

The graph D(S) has the (l-1)-grams occurring in S as nodes and the
grams of S as arcs (a gram is an arc from its prefix to its suffix).
Everything here is exact integer combinatorics: connectivity, degree
balance, Eulerian walks with a fixed deterministic tie-break, simple
cycle lengths and their lcm, Hamiltonian cycles, and two readings of
the condensation, whose components Tarjan's search closes in reverse
topological order: the growth exponent of profile counts, and the
dimension of the flow polytope when every arc lies on a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .grams import GramSet

CYCLE_SEARCH_BUDGET = 10_000_000


class NotHamiltonianError(ValueError):
    """The graph provably has no Hamiltonian cycle."""


class SearchBudgetExceeded(RuntimeError):
    """A backtracking search ran out of its step budget."""


@dataclass(frozen=True)
class DeBruijnGraph:
    """D(S): nodes are the (l-1)-grams of S, arcs are the grams themselves."""

    gram_set: GramSet
    nodes: tuple[tuple[int, ...], ...]
    arc_init: tuple[int, ...]
    arc_term: tuple[int, ...]
    # Adjacency built once by build_graph: the arcs leaving each node, in
    # gram order (ascending terminal node), and the arc joining each node pair.
    out_adj: tuple = field(repr=False, compare=False, hash=False, default=None)
    arc_of: dict = field(repr=False, compare=False, hash=False, default=None)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_arcs(self):
        return len(self.gram_set)

    def loops(self) -> list[int]:
        return [self.arc_of[v, v] for v in range(self.n_nodes) if (v, v) in self.arc_of]

    def successors(self, v: int) -> list[int]:
        """Terminal nodes of the arcs leaving v, ascending."""
        return [self.arc_term[a] for a in self.out_adj[v]]


def build_graph(s: GramSet) -> DeBruijnGraph:
    """Construct D(S): its nodes are the (ell-1)-grams, in lexicographic order."""
    if s.ell < 2:
        raise ValueError("gram length must be >= 2")
    node_set = set()
    for g in s.grams:
        node_set.add(g[:-1])
        node_set.add(g[1:])
    nodes = tuple(sorted(node_set))
    index = {v: i for i, v in enumerate(nodes)}
    arc_init = tuple(index[g[:-1]] for g in s.grams)
    arc_term = tuple(index[g[1:]] for g in s.grams)
    out_adj = [[] for _ in nodes]
    arc_of = {}
    for a, (u, v) in enumerate(zip(arc_init, arc_term)):
        out_adj[u].append(a)
        arc_of[u, v] = a
    return DeBruijnGraph(
        s, nodes, arc_init, arc_term, tuple(map(tuple, out_adj)), arc_of
    )


def _tarjan(graph: DeBruijnGraph) -> list[list[int]]:
    """Tarjan's strongly connected components, in the order they close.

    A component closes only after every component it reaches, so an arc
    leaving a component enters one listed earlier: the list is a reverse
    topological order of the condensation.  Node lists are unsorted.
    """
    n = graph.n_nodes
    index = [-1] * n  # a closed node gets n, which lowers no low-link
    low = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # Iterative Tarjan: (node, iterator position) frames.
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            succ = graph.successors(v)
            for i in range(pi, len(succ)):
                w = succ[i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    break
                low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n
                    comps.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comps


def strongly_connected_components(graph: DeBruijnGraph) -> list[list[int]]:
    """Tarjan SCCs, returned as sorted node-index lists, sorted by least node."""
    return sorted(sorted(comp) for comp in _tarjan(graph))


def net_outflow(graph: DeBruijnGraph, counts) -> list[int]:
    """Per node, the counts on the arcs leaving it minus those entering it.

    A loop leaves and enters the same node, so it cancels itself.  Counts
    are a circulation (a closed word's profile) iff every entry is 0.
    """
    net = [0] * graph.n_nodes
    for u, v, c in zip(graph.arc_init, graph.arc_term, counts):
        net[u] += c
        net[v] -= c
    return net


def is_eulerian(graph: DeBruijnGraph) -> bool:
    """True iff the graph is strongly connected and balanced at every node."""
    balanced = not any(net_outflow(graph, [1] * graph.n_arcs))
    return balanced and len(strongly_connected_components(graph)) == 1


def eulerian_walk(graph: DeBruijnGraph, multiplicities) -> list[int]:
    """Deterministic Eulerian walk over a multigraph on D(S), as node indices.

    `multiplicities[a]` is how many times arc a must be traversed.  The
    multiset must be balanced (closed walk) or have exactly one node of
    out-surplus 1 and one of in-surplus 1 (open walk).  Hierholzer's
    walk with a fixed tie-break: each node gets a successor stack, the
    terminals of its out-arcs each repeated by its multiplicity, largest
    on the bottom, so a pop takes the arc with the lexicographically
    smallest terminal node among those still unused.  A path stack
    seeded with the start node follows popped successors until its top
    has none left, then moves that top to the output; the reversed
    output is the walk.  For a closed walk the start is the smallest
    node with positive out-degree; for an open walk it is the
    out-surplus node.
    """
    mult = list(multiplicities)
    if len(mult) != graph.n_arcs:
        raise ValueError("one multiplicity per arc required")
    if any(m < 0 for m in mult):
        raise ValueError("negative multiplicity")
    total = sum(mult)
    if total == 0:
        raise ValueError("empty multigraph")

    # The nodes with nonzero surplus, as (surplus, node) pairs.
    ends = sorted((s, v) for v, s in enumerate(net_outflow(graph, mult)) if s)
    if not ends:
        start = min(graph.arc_init[a] for a, m in enumerate(mult) if m)
    elif [s for s, _v in ends] == [-1, 1]:
        start = ends[1][1]
    else:
        raise ValueError("arc multiset is neither balanced nor a single open walk")

    term = graph.arc_term
    left = [
        [term[a] for a in reversed(arcs) for _ in range(mult[a])] for arcs in graph.out_adj
    ]
    stack = [start]
    output: list[int] = []
    while stack:
        succ = left[stack[-1]]
        while succ:
            v = succ.pop()
            stack.append(v)
            succ = left[v]
        output.append(stack.pop())
    if len(output) != total + 1:
        raise ValueError("arc support is disconnected; no single walk covers it")
    output.reverse()
    return output


def hamiltonian_cycle(graph: DeBruijnGraph) -> list[int]:
    """A cycle visiting every node exactly once, as node indices.

    The same search serves every gram set: after a strong-connectivity
    check, the first cycle of length |V| that the rooted search from node
    0 closes, so the cycle starts at node 0.  Exhausting the search space
    raises NotHamiltonianError while running past CYCLE_SEARCH_BUDGET
    steps raises SearchBudgetExceeded (the two are distinguishable on
    purpose).
    """
    if len(strongly_connected_components(graph)) != 1:
        raise NotHamiltonianError("graph is not strongly connected")
    for path in _rooted_cycles(graph, 0, CYCLE_SEARCH_BUDGET):
        if len(path) == graph.n_nodes:
            return path[:]
    raise NotHamiltonianError("no Hamiltonian cycle exists")


def _rooted_cycles(graph: DeBruijnGraph, root: int, budget: int):
    """Yield every simple cycle through root whose other nodes exceed root.

    Each cycle comes as its node path from root (the closing arc back to
    root is implied), in depth-first order with successors ascending.
    Every node pushed onto the path is one step; more than budget steps
    raise SearchBudgetExceeded.  The yielded list is shared.
    """
    on_path = [False] * graph.n_nodes
    on_path[root] = True
    path = [root]
    stack = [iter(graph.successors(root))]
    steps = 0
    while stack:
        for w in stack[-1]:
            if w == root:
                yield path
            elif w > root and not on_path[w]:
                steps += 1
                if steps > budget:
                    raise SearchBudgetExceeded(f"cycle search exceeded {budget} steps")
                on_path[w] = True
                path.append(w)
                stack.append(iter(graph.successors(w)))
                break
        else:
            stack.pop()
            on_path[path.pop()] = False


def simple_cycle_lengths(graph: DeBruijnGraph) -> set[int]:
    """Lengths of all simple cycles (closed walks with distinct nodes).

    Each cycle is found once, from its smallest node, by the rooted
    search; each root's search is bounded by CYCLE_SEARCH_BUDGET steps.
    Stops early once all lengths 1..|V| have been seen.
    """
    n = graph.n_nodes
    lengths: set[int] = set()
    for root in range(n):
        for path in _rooted_cycles(graph, root, CYCLE_SEARCH_BUDGET):
            lengths.add(len(path))
            if len(lengths) == n:
                return lengths
    return lengths


def cycle_length_lcm(graph: DeBruijnGraph):
    """(lcm of simple cycle lengths, sorted lengths).  Needs strong connectivity."""
    if len(strongly_connected_components(graph)) != 1:
        raise ValueError("cycle lcm requires a strongly connected graph")
    lengths = simple_cycle_lengths(graph)
    return math.lcm(*lengths), sorted(lengths)


def _components(graph: DeBruijnGraph):
    """Tarjan's components in closing order, and each node's position there."""
    comps = _tarjan(graph)
    comp_of = [0] * graph.n_nodes
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    return comps, comp_of


def growth_exponent(graph: DeBruijnGraph):
    """(Delta, Delta_bar) read off the condensation of D(S).

    Each component C weighs delta_C = (arcs inside C) - |C|, and each arc
    between components weighs 1.  Delta, the polynomial growth degree of
    the number of achievable profiles, is the heaviest path of the
    condensation; Delta_bar, the closed-word analogue, is the largest
    delta_C.  In closing order every successor of C is already done, so
    one pass gives the heaviest path from C as delta_C plus
    max(0, 1 + the heaviest path from each successor).
    """
    comps, comp_of = _components(graph)
    deltas = []
    heaviest = []
    for i, comp in enumerate(comps):
        delta = -len(comp)
        tail = 0
        for v in comp:
            for w in graph.successors(v):
                j = comp_of[w]
                if j == i:
                    delta += 1
                else:
                    tail = max(tail, 1 + heaviest[j])
        deltas.append(delta)
        heaviest.append(delta + tail)
    return max(heaviest), max(deltas)


def flow_dimension(graph: DeBruijnGraph):
    """Dimension D of the flow polytope of D(S), or None if an arc is on no cycle.

    The polytope is {u >= 0 on the arcs : inflow = outflow at every
    node, sum u = 1}.  When every arc's two ends share a component, every
    arc lies on a cycle and the sum of those cycles is a positive flow,
    so the relative interior is {u > 0}, and the affine hull, cut by the
    |V| - (components) independent balance rows and the sum, has
    dimension |E| - |V| + (components) - 1.  An arc between components
    carries no flow in any point, and None is returned.
    """
    comps, comp_of = _components(graph)
    for u, v in zip(graph.arc_init, graph.arc_term):
        if comp_of[u] != comp_of[v]:
            return None
    return graph.n_arcs - graph.n_nodes + len(comps) - 1
