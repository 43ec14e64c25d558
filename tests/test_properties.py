"""Property checks on random inputs.

Hypothesis runs derandomized and without its example database, so every
run draws the same cases and writes nothing to disk.
"""

from itertools import count
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramcode.aecc import build_code, decode_bounded
from gramcode.channel import inject, trace_from_json, trace_to_json, transmit
from gramcode.codec import (
    GrcCodebook,
    decode_profile,
    euler_word,
    message_bound,
    project_observed,
    systematic_encode,
    systematic_layout,
)
from gramcode.grams import (
    ChannelBudget,
    OutOfSetGramError,
    Word,
    build_weight_set,
    explicit_gram_set,
    full_gram_set,
    nearest_row,
    profile,
)
from gramcode.graphs import (
    build_graph,
    flow_dimension,
    growth_exponent,
    net_outflow,
    simple_cycle_lengths,
)
from gramcode.lattice import (
    CongruenceBlock,
    FitMismatch,
    FlowSystem,
    _count_frontier,
    _count_samples,
    _fold_tail,
    _interpolate,
    _plan,
    _scan,
    brute_force_profiles,
    count_points,
    enumerate_points,
    fit_quasipolynomial,
)
from oracles import (
    asym_distance,
    cube_index,
    cycle_arcs,
    decode_outcome,
    exhaustive_decode,
    flow_dimension_by_rank,
    flow_points,
    growth_exponent_by_paths,
    lagrange,
    same_mode_fit,
    scan_decode,
    slice_profile,
    word_profiles,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]
CHANNEL_SIZES = SIZES + [(2, 1), (3, 1), (4, 1), (4, 3)]  # the channel takes l = 1
PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@st.composite
def words(draw, sizes=SIZES):
    """(word, ell) with q, ell from sizes and ell <= len(word) <= ell + 20."""
    q, ell = draw(st.sampled_from(sizes))
    n = draw(st.integers(ell, ell + 20))
    symbols = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    return Word(tuple(symbols), q), ell


@st.composite
def gram_sets(draw):
    """An explicit gram set of 1 to 30 grams with q <= 4 and q**ell <= 32."""
    q, ell = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]))
    picks = draw(st.sets(st.integers(0, q**ell - 1), min_size=1, max_size=30))
    return explicit_gram_set(q, ell, [full_gram_set(q, ell).grams[i] for i in picks])


@st.composite
def rank_sets(draw):
    """A full, weight or explicit gram set with q <= 4 and q**ell <= 64."""
    q, ell = draw(st.sampled_from(
        [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
    ))
    kind = draw(st.sampled_from(["full", "weight", "explicit"]))
    if kind == "full":
        return full_gram_set(q, ell)
    if kind == "weight":
        w1 = draw(st.integers(0, ell))
        return build_weight_set(q, ell, draw(st.integers(1, q - 1)), w1, draw(st.integers(w1, ell)))
    picks = draw(st.sets(st.integers(0, q**ell - 1), min_size=1, max_size=q**ell))
    return explicit_gram_set(q, ell, [full_gram_set(q, ell).grams[i] for i in picks])


def _walk(data, s):
    """A word that starts on a gram of s and mostly steps to grams of s;
    the other steps take any symbol, over q or q + 1 letters."""
    xq = data.draw(st.sampled_from([s.q, s.q, s.q + 1]))
    inside = set(s.grams)
    symbols = list(data.draw(st.sampled_from(s.grams)))
    for _ in range(data.draw(st.integers(0, 14))):
        tail = tuple(symbols[len(symbols) - s.ell + 1 :])
        steps = [c for c in range(s.q) if tail + (c,) in inside]
        if steps and data.draw(st.integers(0, 5)):
            symbols.append(data.draw(st.sampled_from(steps)))
        else:
            symbols.append(data.draw(st.integers(0, xq - 1)))
    return Word(tuple(symbols), xq)


@settings(PROPERTY, max_examples=300)
@given(rank_sets(), st.data())
def test_profile_matches_the_slice_scan(s, data):
    x = _walk(data, s)
    counts, outside = slice_profile(x.symbols, s)
    if outside is None:
        assert profile(x, s).counts == counts
    else:
        with pytest.raises(OutOfSetGramError) as err:
            profile(x, s)
        assert (err.value.gram, err.value.position) == outside
    # membership refuses bad symbols and wrong lengths
    gram = data.draw(st.one_of(
        st.sampled_from(s.grams),
        st.lists(st.integers(-1, s.q), min_size=s.ell - 1, max_size=s.ell + 1).map(tuple),
    ))
    assert (gram in s) == (gram in set(s.grams))


@PROPERTY
@given(rank_sets(), st.data())
def test_project_observed_matches_the_cube_scan(s, data):
    size = s.q**s.ell
    observed = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    cube = cube_index(s.q, s.ell)
    projected = tuple(observed[cube[g]] for g in s.grams)
    assert project_observed(observed, s) == (projected, sum(observed) - sum(projected))


@settings(PROPERTY, max_examples=300)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    st.integers(0, 8),
    st.booleans(),
    st.data(),
)
def test_brute_force_profiles_match_the_word_scan(size, n, closed_only, data):
    q, ell = size
    picks = data.draw(st.sets(st.integers(0, q**ell - 1), min_size=1, max_size=q**ell))
    s = explicit_gram_set(q, ell, [full_gram_set(q, ell).grams[i] for i in picks])
    assert brute_force_profiles(n, s, closed_only) == word_profiles(n, s, closed_only)


@PROPERTY
@given(words())
def test_euler_word_realizes_the_profile(case):
    x, ell = case
    s = full_gram_set(x.q, ell)
    counts = profile(x, s).counts
    y = euler_word(counts, s)
    assert len(y) == len(x)
    assert profile(y, s).counts == counts


@PROPERTY
@given(words())
def test_profile_outflow_marks_the_word_ends(case):
    # a word's profile is a flow from its first (l-1)-gram to its last
    x, ell = case
    s = full_gram_set(x.q, ell)
    graph = build_graph(s)
    first = graph.nodes.index(x.symbols[: ell - 1])
    last = graph.nodes.index(x.symbols[len(x) - ell + 1 :])
    expected = [0] * graph.n_nodes
    if first != last:
        expected[first], expected[last] = 1, -1
    assert net_outflow(graph, profile(x, s).counts) == expected


@PROPERTY
@given(words(CHANNEL_SIZES), st.integers(0, 2**64 - 1), st.data())
def test_inject_replays_transmit(case, seed, data):
    x, ell = case
    n_grams = len(x) - ell + 1
    t = data.draw(st.integers(0, n_grams))
    budget = ChannelBudget(
        data.draw(st.integers(0, len(x))), t, data.draw(st.integers(0, n_grams - t))
    )
    at_most = data.draw(st.booleans())
    observed, trace = transmit(x, ell, budget, seed, at_most=at_most)
    assert inject(x, ell, trace) == observed
    assert inject(x, ell, trace_from_json(trace_to_json(trace))) == observed
    assert trace.seed == seed
    if not at_most:
        assert len(trace.synthesis) == budget.s_syn
        assert len(trace.dropped) == budget.t
        assert len(trace.gram_subs) == budget.s_seq
    # every sequencing error changes exactly one symbol of a survivor
    symbols = list(x.symbols)
    for pos, new in trace.synthesis:
        symbols[pos] = new
    survivors = [
        tuple(symbols[i : i + ell]) for i in range(n_grams) if i not in trace.dropped
    ]
    for idx, gram in trace.gram_subs:
        assert sum(a != b for a, b in zip(survivors[idx], gram)) == 1
        survivors[idx] = gram
    # the observation counts the survivors over the cube, read as slices
    cube = cube_index(x.q, ell)
    expected = [0] * len(cube)
    for gram in survivors:
        expected[cube[gram]] += 1
    assert observed.counts == tuple(expected)


@PROPERTY
@given(st.sampled_from([(2, 3), (3, 2), (2, 4)]), st.integers(1, 3), st.data())
def test_systematic_encode_keeps_flow_and_sum(size, m, data):
    q, ell = size
    graph = build_graph(full_gram_set(q, ell))
    layout = systematic_layout(graph, m)
    shortest = next(k for k in count(ell) if message_bound(graph, k) >= m)
    n = data.draw(st.integers(shortest, shortest + 200))
    message = data.draw(
        st.lists(st.integers(0, m - 1), min_size=len(layout.info_positions),
                 max_size=len(layout.info_positions))
    )
    counts = systematic_encode(layout, message, n).counts
    assert sum(counts) == n - ell + 1
    assert min(counts) >= 0
    assert [counts[a] for a in layout.info_positions] == message
    balance = [0] * graph.n_nodes
    for a, c in enumerate(counts):
        balance[graph.arc_term[a]] += c
        balance[graph.arc_init[a]] -= c
    assert not any(balance)


@PROPERTY
@given(gram_sets())
def test_growth_exponent_is_the_heaviest_condensation_path(s):
    graph = build_graph(s)
    assert growth_exponent(graph) == growth_exponent_by_paths(graph)


@PROPERTY
@given(gram_sets())
def test_flow_dimension_is_the_rank_dimension(s):
    expected = flow_dimension_by_rank(s) if cycle_arcs(s) == s else None
    assert flow_dimension(build_graph(s)) == expected


@st.composite
def fit_cases(draw):
    """(s, degree, lam, residue, mode) for an explicit set with q, ell <= 3.

    Half the draws trim the set to its arcs on cycles, so reciprocity
    applies; the others keep an arc on no cycle, so the fit falls back.
    The degree is the true dimension, lam the lcm of the simple cycle
    lengths (at most 12), the residue and mode random.
    """
    q, ell = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    cube = full_gram_set(q, ell).grams
    s = explicit_gram_set(q, ell, draw(st.sets(st.sampled_from(cube), min_size=1, max_size=8)))
    cyclic = cycle_arcs(s)
    if draw(st.booleans()):
        assume(cyclic is not None)
        s = cyclic
    else:
        assume(cyclic != s)
    lam = lcm(*simple_cycle_lengths(build_graph(s)))
    assume(lam <= 12)
    residue = draw(st.integers(0, lam - 1))
    return s, flow_dimension_by_rank(s), lam, residue, draw(st.sampled_from("FE"))


@PROPERTY
@given(fit_cases())
def test_fit_matches_the_same_mode_fit(case):
    s, degree, lam, residue, mode = case
    fitted = fit_quasipolynomial(s, degree, lam, mode, residue)
    assert fitted.coeffs == same_mode_fit(s, degree, lam, mode, residue).coeffs


@PROPERTY
@given(fit_cases(), st.integers(1, 12), st.data())
def test_every_accepted_fit_matches_the_counts(case, lam, data):
    """Whatever lam is, a fit that is not refused is the count at t = 1..7."""
    s, degree, _, _, mode = case
    residue = data.draw(st.integers(0, lam - 1))
    try:
        poly = fit_quasipolynomial(s, degree, lam, mode, residue)
    except FitMismatch:
        return
    graph = build_graph(s)
    for t in range(1, 8):
        assert poly.evaluate(t) == count_points(FlowSystem(graph, lam * t + residue, mode))


@PROPERTY
@given(st.integers(-6, 2), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=11))
def test_forward_differences_match_lagrange(t0, ys):
    assert _interpolate(t0, ys) == lagrange(range(t0, t0 + len(ys)), ys)


@PROPERTY
@given(st.integers(0, 12), st.data())
def test_asym_distance_is_the_larger_one_sided_sum(n, data):
    u = data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    v = data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    up = sum(a - b for a, b in zip(u, v) if a > b)
    down = sum(b - a for a, b in zip(u, v) if b > a)
    assert asym_distance(u, v) == max(up, down)
    # the library measures it as nearest_row on one row
    assert nearest_row([u], v) == (0, max(up, down), False)
    with pytest.raises(ValueError, match="length mismatch"):
        nearest_row([u], v + [0])


# Word profiles of each length over two small sets: rows that
# decode_profile can turn back into words.
DECODE_POOLS = [
    (s, {n: sorted(word_profiles(n, s)) for n in range(s.ell, 9)})
    for s in (full_gram_set(2, 2), full_gram_set(2, 3))
]


@st.composite
def decode_books(draw):
    """(gram set, rows, observed) for decode_profile against the full scan.

    The rows are word profiles of one length (one sum) or of mixed
    lengths (unequal sums); the observation is any count vector.  At
    times the scan's winner is repeated later in the book, which forces
    a tie at the minimum.
    """
    s, pools = draw(st.sampled_from(DECODE_POOLS))
    lengths = sorted(pools)
    if draw(st.booleans()):
        row = st.sampled_from(pools[draw(st.sampled_from(lengths))])
    else:
        row = st.sampled_from(lengths).flatmap(lambda n: st.sampled_from(pools[n]))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    observed = tuple(draw(st.lists(st.integers(0, 6), min_size=len(s), max_size=len(s))))
    if draw(st.booleans()):
        first = scan_decode(rows, observed)[0]
        rows.insert(draw(st.integers(first + 1, len(rows))), rows[first])
    return s, rows, observed


@PROPERTY
@given(decode_books())
def test_decode_profile_matches_the_full_scan(case):
    s, rows, observed = case
    result = decode_profile(GrcCodebook(0, s, tuple(rows), 1, "external"), observed)
    assert (result.index, result.distance, result.tie) == scan_decode(rows, observed)
    assert result.codeword == rows[result.index]


@st.composite
def decode_cases(draw):
    """(code, received, max_weight, sent, error) on a random code with d <= 4.

    The received vector is uniform (entries from -1, so some are negative),
    or a codeword minus an error of weight <= d, at times all on one
    coordinate; beta is chosen so that the drawn codeword is a member.
    """
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, min(8, p - 1)))
    d = draw(st.integers(1, min(4, p - 1)))
    alphas = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n, unique=True))
    max_weight = draw(st.integers(0, d + 1))
    if draw(st.booleans()):
        beta = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        received = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        return build_code(p, alphas, d, beta), tuple(received), max_weight, None, None
    sent = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    error = [0] * n
    if draw(st.booleans()):
        error[draw(st.integers(0, n - 1))] = draw(st.integers(1, d))
    else:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=d)):
            error[i] += 1
    code = build_code(p, alphas, d, build_code(p, alphas, d).syndrome(sent))
    received = tuple(c - x for c, x in zip(sent, error))
    return code, received, max_weight, tuple(sent), error


@settings(PROPERTY, max_examples=400)
@given(decode_cases())
def test_decode_bounded_matches_the_exhaustive_oracle(case):
    code, received, max_weight, sent, error = case
    outcome = decode_outcome(decode_bounded, code, received, max_weight)
    assert outcome == decode_outcome(exhaustive_decode, code, received, max_weight)
    if sent is not None and sum(error) <= min(code.d, max_weight):
        assert outcome == sent


@st.composite
def congruence_systems(draw):
    """A flow system with a random congruence block on a small polytope.

    Full, weight, explicit or cyclic-word gram sets with q, ell <= 3; 1
    to 3 rows of random residues mod a prime below 30, so a row's sum is
    often nonzero mod p and mode E's shift of beta matters; a random
    beta; modes F and E; and a total small enough for the composition
    oracle.  Unbalanced graphs in mode E give the pinned level a nonzero
    constant.  Two shapes are drawn on purpose: p dividing the pinned
    level's weight, where the total cannot remove the pinned decision
    from the rows, and an extra row whose residue contradicts the first
    row's, which makes the block infeasible.
    """
    q, ell = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    kind = draw(st.sampled_from(["full", "weight", "explicit", "cyclic"]))
    if kind == "full":
        s = full_gram_set(q, ell)
    elif kind == "weight":
        w1 = draw(st.integers(0, ell))
        s = build_weight_set(q, ell, draw(st.integers(1, q - 1)), w1, draw(st.integers(w1, ell)))
    elif kind == "explicit":
        picks = draw(st.sets(st.integers(0, q**ell - 1), min_size=1, max_size=q**ell))
        s = explicit_gram_set(q, ell, [full_gram_set(q, ell).grams[i] for i in picks])
    else:
        # the grams of a cyclic word: every arc lies on a cycle, so mode E
        # has points, and repeated nodes often leave the graph unbalanced
        word = draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=12))
        wrapped = word * (ell + 1)
        s = explicit_gram_set(q, ell, {tuple(wrapped[i : i + ell]) for i in range(len(word))})
    graph = build_graph(s)
    n = graph.n_arcs
    mode = draw(st.sampled_from("FE"))
    extra_max = max(e for e in range(13) if comb(e + n - 1, n - 1) <= 20000)
    m = draw(st.integers(0, extra_max)) + (n if mode == "E" else 0)
    shape = draw(st.sampled_from(["random", "pin weight", "infeasible"]))
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    if shape == "pin weight":
        # full and weight sets have pin weight 1; explicit and cyclic sets
        # often have 2 to 4
        weight = _plan(FlowSystem(graph, m, mode)).pin_weight
        primes = [p for p in primes if weight and weight % p == 0] or primes
    p = draw(st.sampled_from(primes))
    d = draw(st.integers(1, 3))
    residues = st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(residues, min_size=n, max_size=n), min_size=d, max_size=d))
    beta = draw(st.lists(residues, min_size=d, max_size=d))
    if shape == "infeasible":
        c = draw(residues)
        rows.append([c * h for h in rows[0]])
        beta.append(c * beta[0] + draw(st.integers(1, p - 1)))
    block = CongruenceBlock(tuple(map(tuple, rows)), p, tuple(beta))
    return FlowSystem(graph, m, mode, block)


@settings(PROPERTY, max_examples=400)
@given(congruence_systems())
def test_congruence_scan_filters_the_plain_scan(system):
    plain = enumerate_points(FlowSystem(system.graph, system.m_total, system.mode))
    assert plain == flow_points(system.graph, system.m_total, system.mode)
    block = system.congruence
    kept = [
        u for u in plain
        if all(sum(h * c for h, c in zip(row, u)) % block.p == b
               for row, b in zip(block.rows, block.beta))
    ]
    assert enumerate_points(system) == kept
    assert count_points(system) == len(kept)


def _small_system(s, mode, data):
    """A system on s whose total, past mode E's one unit per arc, is at
    most 14 and small enough that the arcs' compositions of it stay few."""
    graph = build_graph(s)
    n = graph.n_arcs
    extra_max = max(e for e in range(15) if comb(e + n - 1, n - 1) <= 10**5)
    m = data.draw(st.integers(0, extra_max)) + (n if mode == "E" else 0)
    return FlowSystem(graph, m, mode)


@settings(PROPERTY, max_examples=300)
@given(gram_sets(), st.sampled_from("FE"), st.data())
def test_frontier_count_matches_the_scan(s, mode, data):
    system = _small_system(s, mode, data)
    frontier = _frontier_count(system)
    if frontier is None:
        # the frontier stops at the outer level, so a plan without one is never narrow or a tie
        plan = _plan(system)
        assert not plan.narrow and not plan.tie
    else:
        assert frontier == len(enumerate_points(system))


def _folded_count(system):
    """The count of the scan stopped at the outer level, or None without a fold level."""
    plan = _plan(system)
    return sum(_scan(plan, _fold_tail(plan))) if plan.fold >= 0 else None


def _frontier_count(system):
    """The frontier's count, whatever the plan's engine, or None without a fold level."""
    plan = _plan(system)
    if plan.fold < 0:
        return None
    [count] = _count_frontier(plan, _fold_tail(plan), [(plan.total, *plan.targets)])
    return count


@st.composite
def sample_lists(draw):
    """(graph, samples): a set with q, ell <= 3 and at most 12 grams, and
    1 to 11 (m, mode) samples with m <= |E| + 12.

    The set is 3 to 12 explicit grams or the grams of a cyclic word of 4
    to 12 symbols; both are often unbalanced, so the modes' targets
    differ.  The modes are mixed, some samples are repeats of others,
    and a mode E total below |E| or at it leaves a negative or zero
    shifted total.
    """
    q, ell = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    cube = full_gram_set(q, ell).grams
    if draw(st.booleans()):
        grams = draw(st.lists(st.sampled_from(cube), min_size=3, max_size=12, unique=True))
    else:
        word = draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=12))
        wrapped = word * (ell + 1)
        grams = {tuple(wrapped[i : i + ell]) for i in range(len(word))}
    graph = build_graph(explicit_gram_set(q, ell, grams))
    sample = st.tuples(st.integers(0, graph.n_arcs + 12), st.sampled_from("FE"))
    samples = draw(st.lists(sample, min_size=1, max_size=8))
    samples += draw(st.lists(st.sampled_from(samples), max_size=3))
    return graph, draw(st.permutations(samples))


@settings(PROPERTY, max_examples=300)
@given(sample_lists())
def test_every_sample_counts_as_its_own_system(case):
    # one pass over every sample, whichever engine the plan picks, and
    # the frontier seeded with every sample whenever there is a fold level
    graph, samples = case
    counts = [count_points(FlowSystem(graph, m, mode)) for m, mode in samples]
    assert _count_samples(graph, samples) == counts
    plans = [_plan(FlowSystem(graph, m, mode)) for m, mode in samples]
    if plans[0].fold >= 0:
        seeds = [(p.total, *p.targets) for p in plans]
        assert _count_frontier(plans[0], _fold_tail(plans[0]), seeds) == counts


# (gram set, pin weight, outer level, fold level, pinned level) for each
# tail shape the fold solves, -1 standing for no such level.  The fold
# level is never the last level: a decision there is pinned with weight 1.
# Each shape is counted in both modes; mode E gives "negative pin weight"
# and "no pinned level" nonzero targets at nodes their tails read.
FOLD_SHAPES = {
    # a + 3b = M: the pin's residue class mod 3, a loop folded, and the
    # fold level the one free decision, so it is also the outer level
    "pin weight 3": (explicit_gram_set(2, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]),
                     3, 0, 0, 1),
    "negative pin weight": (explicit_gram_set(2, 4, [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1),
                                                     (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0)]),
                            -2, 0, 0, 1),
    # the loop 111 is pinned, and forced levels lie between fold and pin
    "pinned loop": (full_gram_set(2, 3), 1, 2, 3, 7),
    # two loops: one free decision, just before the pinned last level
    "fold next to the pin": (explicit_gram_set(2, 2, [(0, 0), (1, 1)]), 1, 0, 0, 1),
    # cycles of lengths 2 and 4 through a shared arc: the last decision
    # moves no total, so nothing is pinned and the sum is a row
    "no pinned level": (explicit_gram_set(3, 3, [(0, 1, 0), (1, 0, 1), (1, 0, 2), (0, 2, 0),
                                                 (2, 0, 1)]),
                        0, 1, 2, -1),
    # 01 is the outer level and closes node 0 with the forced 10 before
    # the loop 11 is folded
    "forced between outer and fold": (explicit_gram_set(3, 2, [(0, 1), (1, 0), (1, 1), (2, 2)]),
                                      1, 0, 2, 3),
    # three disjoint loops: the outer, the fold and the pinned level
    "loop outer": (explicit_gram_set(3, 3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)]), 1, 0, 1, 2),
    # a + b + 2c = M over the loops 00, 11 and the 2-cycle 12 21: the
    # residue of the fold value mod 2 moves with the outer value
    "pin residue moves with the outer value": (explicit_gram_set(3, 2, [(0, 0), (1, 1), (1, 2),
                                                                        (2, 1)]),
                                               2, 0, 1, 2),
    # one 2-cycle: its only decision is pinned, so there is nothing to fold
    "no free decision": (explicit_gram_set(2, 2, [(0, 1), (1, 0)]), 2, -1, -1, 0),
}


@settings(PROPERTY, max_examples=400)
@given(st.one_of(st.sampled_from([shape[0] for shape in FOLD_SHAPES.values()]), gram_sets()),
       st.sampled_from("FE"), st.data())
def test_fold_count_matches_the_scan(s, mode, data):
    system = _small_system(s, mode, data)
    folded = _folded_count(system)
    if folded is not None:
        assert folded == len(enumerate_points(system))


def test_two_level_tails_have_their_shapes():
    def plan(shape):
        return _plan(FlowSystem(build_graph(FOLD_SHAPES[shape][0]), 0, "F"))

    levels = plan("forced between outer and fold").levels
    a, b, a_in, a_out, b_in, b_out = levels[1]
    assert a != b and a_in and a_out  # 10 closes node 0
    loops = plan("loop outer")
    assert loops.levels[loops.outer][0] == loops.levels[loops.outer][1]
    moving = plan("pin residue moves with the outer value")
    *_, p_alpha, g, m, inv = _fold_tail(moving)[1]
    assert p_alpha and m == 2


@pytest.mark.parametrize("shape", FOLD_SHAPES)
@pytest.mark.parametrize("mode", "FE")
def test_fold_count_on_each_tail_shape(shape, mode):
    s, weight, outer, level, pinned = FOLD_SHAPES[shape]
    graph = build_graph(s)
    plan = _plan(FlowSystem(graph, 0, mode))
    assert (plan.pin_weight, plan.outer, plan.fold, plan.pinned) == (weight, outer, level, pinned)
    for m in range(graph.n_arcs + 16):
        system = FlowSystem(graph, m, mode)
        points = len(enumerate_points(system))
        assert count_points(system) == points
        assert _folded_count(system) == (points if level >= 0 else None)
        assert _frontier_count(system) == (points if level >= 0 else None)
