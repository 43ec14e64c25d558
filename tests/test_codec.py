from itertools import permutations, product

import pytest

from gramcode import codec
from gramcode.aecc import build_code, code_size_ambient
from gramcode.codec import (
    GrcCodebook,
    decode_profile,
    euler_word,
    format_codebook_file,
    grc_intersect,
    message_bound,
    parse_codebook_file,
    project_observed,
    rank_encode,
    rank_modulation_layout,
    rank_readout_decode,
    rotation_start,
    systematic_encode,
    systematic_grc,
    systematic_layout,
)
from gramcode.grams import (
    build_weight_set,
    explicit_gram_set,
    full_gram_set,
    gram_values,
    profile,
    word,
    word_text,
)
from gramcode.graphs import build_graph, net_outflow
from gramcode.lattice import brute_force_profiles, enumerate_points, flow_system_for_words
from oracles import verify_min_distance

S22 = full_gram_set(2, 2)
S23 = full_gram_set(2, 3)

SYSTEMATIC_PROFILES = {
    (0, 0, 0): (14, 1, 0, 1, 1, 0, 1, 0),
    (0, 0, 1): (13, 1, 0, 1, 1, 0, 1, 1),
    (0, 1, 0): (11, 1, 0, 2, 1, 1, 2, 0),
    (0, 1, 1): (10, 1, 0, 2, 1, 1, 2, 1),
    (1, 0, 0): (11, 2, 1, 1, 2, 0, 1, 0),
    (1, 0, 1): (10, 2, 1, 1, 2, 0, 1, 1),
    (1, 1, 0): (12, 1, 1, 1, 1, 1, 1, 0),
    (1, 1, 1): (11, 1, 1, 1, 1, 1, 1, 1),
}


def test_euler_word_known_value():
    w = euler_word((14, 1, 0, 1, 1, 0, 1, 0), S23)
    assert word_text(w) == "0" * 16 + "1100"


def test_euler_word_unique_realization():
    assert word_text(euler_word((3, 0, 0, 0), S22)) == "0000"


@pytest.mark.parametrize("s", [S22, S23])
def test_euler_round_trip_exhaustive(s):
    g = build_graph(s)
    for n in range(s.ell, 11):
        for u in brute_force_profiles(n, s):
            w = euler_word(u, s, g)
            assert len(w) == n
            assert profile(w, s).counts == u


def test_euler_word_on_weight_window_profile():
    # the length-12 reference profile on the weight window is realizable;
    # the canonical word may differ from the original but shares its profile
    sw = build_weight_set(2, 4, 1, 2, 3)
    target = profile(word("011001101011", 2), sw).counts
    w = euler_word(target, sw)
    assert len(w) == 12
    assert profile(w, sw).counts == target


def test_euler_word_rejects_unrealizable():
    with pytest.raises(ValueError):
        euler_word((1, 0, 0, 1), S22)  # two disconnected loops
    with pytest.raises(ValueError):
        euler_word((0, 2, 0, 0), S22)  # imbalance two at a node pair


def test_rotation_start():
    assert rotation_start([0, 1, -1, 0]) == 0
    assert rotation_start([-1, 1]) == 1
    assert rotation_start([0, 0, 0]) == 0
    with pytest.raises(ValueError):
        rotation_start([1, 1])


def test_rotation_start_makes_prefixes_nonnegative():
    import random

    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 8)
        values = [rng.randint(-4, 4) for _ in range(k - 1)]
        values.append(-sum(values))
        j = rotation_start(values)
        rotated = values[j:] + values[:j]
        running = 0
        for r in rotated:
            running += r
            assert running >= 0


def test_systematic_layout_structure():
    layout = systematic_layout(build_graph(S23), 2)
    s = layout.gram_set
    assert s.label(layout.loop_arc) == "000"
    assert [s.label(a) for a in layout.info_positions] == ["010", "101", "111"]
    assert len(layout.info_positions) == 8 - 4 - 1


def test_message_bound():
    assert message_bound(build_graph(S23), 20) == 2
    assert message_bound(build_graph(S23), 14) == 1


def test_systematic_layout_rejects_bad_pieces():
    g = build_graph(S23)
    with pytest.raises(ValueError):
        systematic_layout(g, 0)


def test_systematic_layout_checks_before_the_cycle_search(monkeypatch):
    def no_search(graph):
        raise AssertionError("the Hamiltonian search ran")

    monkeypatch.setattr(codec, "hamiltonian_cycle", no_search)
    with pytest.raises(ValueError, match="message alphabet must be positive"):
        systematic_layout(build_graph(S23), 0)
    # weight 3 5 2 1 3 has 65 nodes, no loop and no Hamiltonian cycle
    loopless = build_graph(build_weight_set(3, 5, 2, 1, 3))
    assert loopless.loops() == []
    for m in (0, 1):
        with pytest.raises(ValueError, match="layout needs a loop arc"):
            systematic_layout(loopless, m)


def test_systematic_encode_reference_profiles():
    layout = systematic_layout(build_graph(S23), 2)
    for message, expected in SYSTEMATIC_PROFILES.items():
        assert systematic_encode(layout, message, 20).counts == expected


def test_systematic_encode_invariants():
    graph = build_graph(S23)
    layout = systematic_layout(graph, 3)
    cycle_arcs = [
        graph.arc_of[u, v]
        for u, v in zip(layout.ham_cycle, layout.ham_cycle[1:] + layout.ham_cycle[:1])
    ]
    for message in product(range(3), repeat=3):
        u = systematic_encode(layout, message, 40)
        assert u.total == 38
        assert tuple(u[a] for a in layout.info_positions) == message
        assert all(u[a] >= 1 for a in cycle_arcs)
        assert not any(net_outflow(graph, u))


def test_systematic_encode_bound_enforcement():
    layout = systematic_layout(build_graph(S23), 2)
    with pytest.raises(ValueError):
        systematic_encode(layout, (1, 1, 1), 10)  # bound gives m=1 at n=10
    # the tighter override path still validates the leftover
    u = systematic_encode(layout, (1, 1, 1), 12, override=True)
    assert u.total == 10


def test_systematic_encode_rejects_bad_messages():
    layout = systematic_layout(build_graph(S23), 2)
    with pytest.raises(ValueError):
        systematic_encode(layout, (0, 2, 0), 20)
    with pytest.raises(ValueError):
        systematic_encode(layout, (0, 0), 20)


def test_grc_intersect_small_oracle():
    code = build_code(11, tuple(range(1, 9)), 1)
    book = grc_intersect(code, 20, S23)
    plain = enumerate_points(flow_system_for_words(build_graph(S23), 20, "E"))
    kept = [u for u in plain if code.is_member(u)]
    assert len(book) == 25
    assert list(book.codewords) == kept
    assert book.distance == 2
    assert book.provenance == "intersection"
    # exhaustive pairwise check: the declared distance really holds
    assert verify_min_distance(book.codewords) >= book.distance


def assert_realized_by_walks(book):
    """Each row is the profile of the closed word its Euler walk spells."""
    s = book.gram_set
    graph = build_graph(s)
    for u in book.codewords:
        w = euler_word(u, s, graph)
        assert len(w) == book.n and profile(w, s).counts == u
        assert w.symbols[: s.ell - 1] == w.symbols[book.n - s.ell + 1 :]


def test_grc_intersect_books_are_realized_by_their_walks(headline_codebook):
    # the bench's codebook (n=120) and the headline one (n=158)
    code = build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    book = grc_intersect(code, 120, S23)
    assert len(book) == 3510
    assert_realized_by_walks(book)
    assert_realized_by_walks(headline_codebook)


def test_grc_intersect_refuses_a_disconnected_support():
    # two loops and no arc between them: every point's support is disconnected
    s = explicit_gram_set(2, 2, [(0, 0), (1, 1)])
    code = build_code(5, (1, 2), 1)
    assert enumerate_points(flow_system_for_words(build_graph(s), 12, "E", code))
    with pytest.raises(ValueError, match="arc support is disconnected"):
        grc_intersect(code, 12, s)


def test_grc_intersect_arc_between_components_gives_an_empty_book():
    # the arc 01 lies on no cycle, so no closed word uses every gram
    s = explicit_gram_set(2, 2, [(0, 0), (0, 1), (1, 1)])
    book = grc_intersect(build_code(5, (1, 2, 3), 1), 12, s)
    assert book.codewords == ()


def test_grc_intersect_beta_classes_are_disjoint():
    base = build_code(5, (1, 2, 3, 4), 2)
    shifted = build_code(5, (1, 2, 3, 4), 2, beta=(1, 0))
    book0 = grc_intersect(base, 21, S22)
    book1 = grc_intersect(shifted, 21, S22)
    assert set(book0.codewords).isdisjoint(book1.codewords)


def test_systematic_grc_preserves_size_and_restriction():
    code = build_code(5, (1, 2, 3), 2)
    layout = systematic_layout(build_graph(S23), 17)
    assert message_bound(layout.graph, 158) == 17
    aecc_words = [u for u in product(range(17), repeat=3) if code.is_member(u)]
    assert len(aecc_words) == code_size_ambient(code, 17) == 199
    book = systematic_grc(aecc_words, layout, 158, distance=3)
    assert len(book) == 199
    for u, v in zip(book.codewords[::97], aecc_words[::97]):
        assert tuple(u[a] for a in layout.info_positions) == v


def test_decode_profile_noiseless():
    code = build_code(11, tuple(range(1, 9)), 1)
    book = grc_intersect(code, 20, S23)
    target = book.codewords[3]
    w = euler_word(target, S23)
    observed = profile(w, S23).counts
    result = decode_profile(book, observed)
    assert result.codeword == target
    assert result.distance == 0
    assert not result.tie
    assert result.foreign_mass == 0
    assert profile(result.word, S23).counts == target


def test_decodes_of_one_book_build_its_graph_once(monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return build_graph(s)

    monkeypatch.setattr(codec, "build_graph", counted)
    built = grc_intersect(build_code(11, tuple(range(1, 9)), 1), 20, S23)
    book = parse_codebook_file(format_codebook_file(built))
    calls.clear()
    for u in book.codewords[:5]:
        assert decode_profile(book, u).codeword == u
    assert calls == [S23]


def test_decode_profile_projects_foreign_mass():
    sw = build_weight_set(2, 3, 1, 1, 2)
    g = build_graph(sw)
    points = enumerate_points(flow_system_for_words(g, 11, "E"))
    book = GrcCodebook(11, sw, tuple(points), 1, "external")
    target = book.codewords[0]
    observed = [0] * 8
    for i, gram in enumerate(sw.grams):
        observed[gram_values(gram, 2, 3)[0]] = target[i]
    observed[0] = 2  # mass on a gram outside the set
    result = decode_profile(book, observed)
    assert result.foreign_mass == 2
    assert result.codeword == target


def test_project_observed_shapes():
    sw = build_weight_set(2, 3, 1, 1, 2)
    with pytest.raises(ValueError):
        project_observed((1, 2, 3), sw)
    projected, foreign = project_observed((5, 1, 1, 1, 1, 1, 1, 7), sw)
    assert projected == (1, 1, 1, 1, 1, 1)
    assert foreign == 12


def test_rank_modulation_reference_case():
    layout = rank_modulation_layout(2, 3)
    u = rank_encode(layout, (0, 1, 2), 14)
    assert u.counts == (3, 1, 0, 2, 1, 1, 2, 2)
    assert word_text(euler_word(u.counts, layout.gram_set)) == "00000110111100"
    perm, ties = rank_readout_decode(layout, u.counts)
    assert perm == (0, 1, 2) and not ties


def test_rank_round_trip_all_permutations():
    layout = rank_modulation_layout(2, 3)
    for perm in permutations(range(3)):
        u = rank_encode(layout, perm, 14)
        decoded, ties = rank_readout_decode(layout, u.counts)
        assert decoded == perm and not ties


def test_rank_readout_tie_flag():
    layout = rank_modulation_layout(2, 3)
    u = systematic_encode(layout, (1, 1, 1), 20, override=True)
    _perm, ties = rank_readout_decode(layout, u.counts)
    assert ties


def test_rank_readout_survives_in_gap_perturbation():
    layout = rank_modulation_layout(2, 3)
    u = list(rank_encode(layout, (2, 0, 1), 16).counts)
    # adding mass to the largest info count keeps the order
    biggest = max(layout.info_positions, key=lambda a: u[a])
    u[biggest] += 1
    perm, ties = rank_readout_decode(layout, tuple(u))
    assert perm == (2, 0, 1) and not ties


def test_rank_encode_validation():
    layout = rank_modulation_layout(2, 3)
    with pytest.raises(ValueError):
        rank_encode(layout, (0, 1, 1), 14)
    with pytest.raises(ValueError):
        rank_encode(layout, (0, 1), 14)


def test_decode_beyond_budget_is_best_effort():
    # A maximally noisy observation of 0110100 (one symbol flip, one lost
    # occurrence, two misread grams) carries more error than a distance-1
    # codebook can absorb; decoding still returns the nearest codeword and
    # reports its distance, it just carries no guarantee.
    x_profile = profile(word("0110100", 2), S22).counts
    book = GrcCodebook(7, S22, (x_profile, (2, 1, 1, 1)), 1, "external")
    observed = (1, 2, 0, 2)
    result = decode_profile(book, observed)
    assert result.distance >= 1
    assert result.codeword in book.codewords


def test_codebook_file_round_trip():
    code = build_code(11, tuple(range(1, 9)), 1)
    book = grc_intersect(code, 20, S23)
    assert len(book) > 0
    back = parse_codebook_file(format_codebook_file(book))
    assert back.codewords == book.codewords
    assert back.n == book.n and back.distance == book.distance
    assert back.gram_set.grams == book.gram_set.grams
    sw = build_weight_set(2, 4, 1, 2, 3)
    text = format_codebook_file(grc_intersect(build_code(11, tuple(range(1, 11)), 1), 30, sw))
    assert text.startswith("30 2 4 weight 1 2 3 2 intersection\n")
    assert parse_codebook_file(text).gram_set.grams == sw.grams
    with pytest.raises(ValueError):
        parse_codebook_file("")
