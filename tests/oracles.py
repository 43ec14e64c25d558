"""Exhaustive reference scans and exact helpers that tests compare the library against."""

from fractions import Fraction
from itertools import product

from gramcode.aecc import AmbiguousDecode, DecodeFailure
from gramcode.grams import explicit_gram_set
from gramcode.graphs import build_graph, net_outflow, strongly_connected_components
from gramcode.lattice import FitMismatch, FlowSystem, QuasiPolynomial, count_points


def brute_force_support_count(n: int, ell: int) -> int:
    """Oracle: enumerate all binary words, collect distinct gram supports."""
    supports = set()
    for v in range(2**n):
        bits = tuple((v >> i) & 1 for i in range(n))
        supports.add(frozenset(bits[i : i + ell] for i in range(n - ell + 1)))
    return len(supports)


def word_profiles(n, s, closed_only=False):
    """Oracle: the profiles of every length-n word whose grams all lie in s.

    Scans all q**n words; closed_only keeps the words whose first and
    last ell-1 symbols agree.  A word shorter than ell has no profile.
    """
    index = {g: i for i, g in enumerate(s.grams)}
    found = set()
    if n < s.ell:
        return found
    for w in product(range(s.q), repeat=n):
        grams = [w[i : i + s.ell] for i in range(n - s.ell + 1)]
        if any(g not in index for g in grams):
            continue
        if closed_only and w[: s.ell - 1] != w[n - s.ell + 1 :]:
            continue
        counts = [0] * len(s.grams)
        for g in grams:
            counts[index[g]] += 1
        found.add(tuple(counts))
    return found


def cube_index(q, ell):
    """Oracle: each gram of [q]^ell mapped to its lexicographic position."""
    return {g: i for i, g in enumerate(product(range(q), repeat=ell))}


def slice_profile(symbols, s):
    """Oracle: (counts over s, None) for a symbol sequence read as tuple
    slices, or (None, (gram, position)) for its first gram outside s."""
    index = {g: i for i, g in enumerate(s.grams)}
    counts = [0] * len(s.grams)
    for pos in range(len(symbols) - s.ell + 1):
        gram = tuple(symbols[pos : pos + s.ell])
        if gram not in index:
            return None, (gram, pos)
        counts[index[gram]] += 1
    return tuple(counts), None


def asym_distance(u, v) -> int:
    """Oracle: the asymmetric distance, the larger of the one-sided
    difference sums, of two vectors of one length."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch {len(u)} != {len(v)}")
    up = sum(a - b for a, b in zip(u, v) if a > b)
    down = sum(b - a for a, b in zip(u, v) if b > a)
    return max(up, down)


def verify_min_distance(codebook):
    """Minimum pairwise asymmetric distance by exhaustive scan.

    A single codeword has no pair; the distance is +infinity then.
    """
    words = [tuple(u) for u in codebook]
    if len(words) < 2:
        return float("inf")
    best = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            dist = asym_distance(words[i], words[j])
            if best is None or dist < best:
                best = dist
                if best == 0:
                    return 0
    return best


def scan_decode(codewords, observed):
    """Oracle: minimum-distance decoding by the full scan, as (index, distance, tie).

    Measures the whole asymmetric distance to every row; the first row in
    order at the minimum wins, and the tie flag is set when another row
    shares that minimum.
    """
    dists = [asym_distance(u, observed) for u in codewords]
    best = min(dists)
    return dists.index(best), best, dists.count(best) > 1


def growth_exponent_by_paths(graph):
    """(Delta, Delta_bar) by listing every path of the condensation.

    A path's weight is the sum of (internal arcs - nodes) over its
    components plus one per arc between them.  Delta is the heaviest
    path, Delta_bar the heaviest path with a single component.
    """
    comps = strongly_connected_components(graph)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    deltas = [-len(comp) for comp in comps]
    succ = [set() for _ in comps]
    for u, v in zip(graph.arc_init, graph.arc_term):
        if comp_of[u] == comp_of[v]:
            deltas[comp_of[u]] += 1
        else:
            succ[comp_of[u]].add(comp_of[v])
    heaviest = None
    paths = [[i] for i in range(len(comps))]
    while paths:
        path = paths.pop()
        weight = sum(deltas[i] for i in path) + len(path) - 1
        heaviest = weight if heaviest is None else max(heaviest, weight)
        paths.extend(path + [j] for j in succ[path[-1]])
    return heaviest, max(deltas)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def flow_points(graph, m_total, mode):
    """Oracle: every point of FlowSystem(graph, m_total, mode), in lex order.

    Scans all compositions of the total over the arcs (each part at least
    1 in mode E) and keeps those with zero net outflow at every node.
    """
    base = int(mode == "E")
    extra = m_total - base * graph.n_arcs
    if extra < 0:
        return []
    points = (tuple(c + base for c in comp) for comp in _compositions(extra, graph.n_arcs))
    return [u for u in points if not any(net_outflow(graph, u))]


def lagrange(xs, ys):
    """Oracle: exact interpolation through (xs[i], ys[i]); ascending coefficients."""
    k = len(xs)
    coeffs = [Fraction(0)] * k
    for i in range(k):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(k):
            if j == i:
                continue
            # multiply num by (x - xs[j])
            num = [Fraction(0)] + num
            for d in range(len(num) - 1):
                num[d] -= num[d + 1] * xs[j]
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for d in range(len(num)):
            coeffs[d] += num[d] * scale
    return tuple(coeffs)


def same_mode_fit(s, degree, lam, mode="F", residue=0):
    """Oracle: the count polynomial fitted from counts in one mode only.

    Interpolates the counts at M = lam*t + residue for t = 1..degree+1
    and checks the count at t = degree+2, raising FitMismatch on a
    miss; no reciprocity, no graph dimension.
    """
    graph = build_graph(s)

    def count(t):
        return count_points(FlowSystem(graph, lam * t + residue, mode))

    xs = range(1, degree + 2)
    poly = QuasiPolynomial(
        degree, lam, residue, mode, lagrange(xs, [count(t) for t in xs]), degree + 2
    )
    if poly.evaluate(degree + 2) != count(degree + 2):
        raise FitMismatch(f"held-out count at t={degree + 2} misses the fit")
    return poly


def cycle_arcs(s):
    """The grams of s whose two ends share a strongly connected component,
    as an explicit set, or None when there are none."""
    graph = build_graph(s)
    comp_of = {v: i for i, comp in enumerate(strongly_connected_components(graph)) for v in comp}
    kept = [
        g for g, u, v in zip(s.grams, graph.arc_init, graph.arc_term) if comp_of[u] == comp_of[v]
    ]
    return explicit_gram_set(s.q, s.ell, kept) if kept else None


def flow_dimension_by_rank(s):
    """Oracle: |E| - rank(incidence) - 1 over the arcs of s that lie on a cycle.

    The dimension of the polytope of nonnegative unit-sum flows; 0 when
    no arc lies on a cycle (only the zero flow, at M = 0).
    """
    cyclic = cycle_arcs(s)
    if cyclic is None:
        return 0
    graph = build_graph(cyclic)
    rows = [[0] * graph.n_arcs for _ in range(graph.n_nodes)]
    for a, (u, v) in enumerate(zip(graph.arc_init, graph.arc_term)):
        rows[u][a] += 1
        rows[v][a] -= 1
    return graph.n_arcs - integer_rank(rows) - 1


def exhaustive_decode(code, received, max_weight):
    """Reference decoder: every error vector of each weight, by composition."""
    for w in range(max_weight + 1):
        hits = []
        for e in _compositions(w, code.length):
            candidate = tuple(r + x for r, x in zip(received, e))
            if code.is_member(candidate):
                hits.append(candidate)
                if len(hits) > 1:
                    raise AmbiguousDecode(f"two codewords at error weight {w}")
        if hits:
            return hits[0]
    raise DecodeFailure(f"no codeword within error weight {max_weight}")


def decode_outcome(decode, code, received, max_weight):
    """A decoder's codeword, or "ambiguous" or "failure" for its exception."""
    try:
        return decode(code, received, max_weight)
    except AmbiguousDecode:
        return "ambiguous"
    except DecodeFailure:
        return "failure"


def integer_rank(matrix) -> int:
    """Exact rank of an integer matrix via fraction-free elimination."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        pivot = rows[row][col]
        for r in range(row + 1, len(rows)):
            # Bareiss update keeps all entries integral.
            factor = rows[r][col]
            for c in range(col, ncols):
                rows[r][c] = (rows[r][c] * pivot - factor * rows[row][c]) // prev_pivot
        prev_pivot = pivot
        row += 1
        rank += 1
        if row == len(rows):
            break
    return rank


def node_label(graph, v) -> str:
    """Node v of D(S) as its (ell-1)-gram's digit string."""
    return "".join(map(str, graph.nodes[v]))


def cursor_walk(graph, multiplicities) -> list[int]:
    """Oracle: the Eulerian walk by a cursor scan over each node's out-arcs.

    Same contract and tie-break as graphs.eulerian_walk: at the top of
    the path stack, follow the first arc in out_adj order (ascending
    terminal node) with a traversal left, else pop the node to the
    output; any arc left over means a disconnected support.
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

    out = graph.out_adj
    cursor = [0] * graph.n_nodes

    stack = [start]
    output: list[int] = []
    remaining = mult[:]
    while stack:
        v = stack[-1]
        arcs = out[v]
        i = cursor[v]
        while i < len(arcs) and remaining[arcs[i]] == 0:
            i += 1
        cursor[v] = i
        if i < len(arcs):
            a = arcs[i]
            remaining[a] -= 1
            stack.append(graph.arc_term[a])
        else:
            output.append(stack.pop())
    if any(remaining):
        raise ValueError("arc support is disconnected; no single walk covers it")
    output.reverse()
    return output


def list_sample(rng, n, k) -> list[int]:
    """Oracle: k of range(n) by a partial Fisher-Yates over the whole list,
    drawing from rng.below exactly as Splitmix64.sample does; sorted."""
    if k > n:
        raise ValueError(f"cannot sample {k} of {n}")
    pool = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])
