import random

import pytest

from gramcode import grams
from gramcode.codec import project_observed
from gramcode.grams import (
    ChannelBudget,
    CubeTooLarge,
    OutOfSetGramError,
    build_weight_set,
    dna_string,
    explicit_gram_set,
    full_gram_set,
    gram_values,
    parse_dna,
    profile,
    q_weight,
    word,
    word_text,
)
from oracles import asym_distance


def rank(s, gram):
    return s.positions(gram_values(gram, s.q, s.ell))[0]


def test_lex_index_examples():
    # a gram's position in the full cube is its base-q value
    assert rank(full_gram_set(2, 2), (0, 0)) == 0
    assert rank(full_gram_set(2, 2), (1, 1)) == 3
    assert rank(full_gram_set(2, 4), (0, 1, 0, 1)) == 5
    assert rank(full_gram_set(3, 3), (2, 0, 1)) == 19
    assert rank(full_gram_set(2, 1), (1,)) == 1  # the channel's cube at l = 1


def test_lex_index_matches_sorted_order():
    s = full_gram_set(2, 4)
    assert [rank(s, g) for g in sorted(s.grams)] == list(range(16))
    assert list(s.values) == list(range(16))
    w = build_weight_set(2, 4, 1, 2, 3)
    assert [rank(w, g) for g in sorted(w.grams)] == list(range(len(w)))
    assert list(w.values) == sorted(w.values) == [gram_values(g, 2, 4)[0] for g in w.grams]
    assert w.positions([0, 15, 3]) == [None, None, 0]  # 0000 and 1111 lie outside


@pytest.mark.parametrize("q,ell", [(2, 5), (3, 4), (4, 5), (4, 3)])
def test_gram_at_is_inverse_of_lex_index(q, ell):
    s = full_gram_set(q, ell)
    for i in range(q**ell):
        assert rank(s, s.grams[i]) == i
        assert int("".join(map(str, s.grams[i])), q) == i


def test_lex_index_rejects_bad_symbols():
    s = full_gram_set(2, 2)
    assert s.positions([-1, 4, 3]) == [None, None, 3]
    assert (0, 2) not in s and (2, 0) not in s and (-1, 1) not in s
    assert (0, 1, 0) not in s and (0,) not in s
    w = build_weight_set(2, 4, 1, 2, 3)
    assert (0, 0, 1, 2) not in w and (0, 0, 1) not in w and (0, 0, 1, 1) in w


def test_full_gram_set_is_built_once():
    assert full_gram_set(3, 2) is full_gram_set(3, 2)


def test_cube_guard_refuses_before_listing(monkeypatch):
    with pytest.raises(CubeTooLarge):
        full_gram_set(2, 21)
    with pytest.raises(CubeTooLarge):
        build_weight_set(4, 10**9, 2, 1, 3)
    monkeypatch.setattr(grams, "MAX_CUBE", 16)
    assert len(build_weight_set(2, 4, 1, 0, 4)) == 16  # q**ell at the guard still builds
    with pytest.raises(CubeTooLarge):
        build_weight_set(2, 5, 1, 2, 3)


def test_q_weight():
    assert q_weight((0, 0, 1, 1), 2, 1) == 2
    assert q_weight((0, 0, 0, 0), 2, 1) == 0
    assert q_weight((0, 1, 2, 3), 4, 2) == 2
    with pytest.raises(ValueError):
        q_weight((0, 1), 2, 2)


def test_weight_window_set():
    s = build_weight_set(2, 4, 1, 2, 3)
    labels = [s.label(i) for i in range(len(s))]
    assert labels == [
        "0011", "0101", "0110", "0111", "1001",
        "1010", "1011", "1100", "1101", "1110",
    ]


def test_weight_window_trivial_cases():
    assert len(build_weight_set(2, 2, 1, 0, 2)) == 4
    s = build_weight_set(2, 3, 1, 1, 2)
    assert [s.label(i) for i in range(len(s))] == ["001", "010", "011", "100", "101", "110"]


@pytest.mark.parametrize("q,ell", [(2, 3), (3, 3), (4, 2)])
def test_unrestricted_window_gives_full_cube(q, ell):
    assert len(build_weight_set(q, ell, q - 1, 0, ell)) == q**ell


def test_weight_window_membership_is_exact():
    s = build_weight_set(3, 3, 2, 1, 2)
    for g in full_gram_set(3, 3).grams:
        assert (g in s) == (1 <= q_weight(g, 3, 2) <= 2)


def test_profile_known_values():
    s2 = full_gram_set(2, 2)
    assert profile(word("0000", 2), s2).counts == (3, 0, 0, 0)
    assert profile(word("0101", 2), s2).counts == (0, 2, 1, 0)
    s3 = full_gram_set(2, 3)
    assert profile(word("0001000", 2), s3).counts == (2, 1, 1, 0, 1, 0, 0, 0)


def test_profile_on_weight_window():
    s = build_weight_set(2, 4, 1, 2, 3)
    counts = profile(word("011001101011", 2), s).counts
    named = {s.label(i): c for i, c in enumerate(counts)}
    assert named == {
        "0011": 1, "0101": 1, "0110": 2, "0111": 0, "1001": 1,
        "1010": 1, "1011": 1, "1100": 1, "1101": 1, "1110": 0,
    }


def test_profile_strict_reports_gram_and_position():
    s = build_weight_set(2, 3, 1, 1, 2)
    with pytest.raises(OutOfSetGramError) as err:
        profile(word("001000", 2), s)
    assert err.value.gram == (0, 0, 0)
    assert err.value.position == 3


def test_full_profile_projection_counts_foreign_mass():
    # a word's grams outside s are counted as foreign mass, the rest over s
    s = build_weight_set(2, 3, 1, 1, 2)
    counts, foreign = project_observed(profile(word("001000", 2), full_gram_set(2, 3)).counts, s)
    assert foreign == 1
    assert sum(counts) == 3


def test_profile_sum_exhaustive_small_words():
    # Every binary word of length up to 12 has gram counts summing to n-ell+1.
    for ell, s in ((2, full_gram_set(2, 2)), (3, full_gram_set(2, 3))):
        for n in range(ell, 13):
            for v in range(2**n):
                bits = tuple((v >> i) & 1 for i in range(n))
                assert profile(grams.Word(bits, 2), s).total == n - ell + 1


def test_asym_distance_values():
    assert asym_distance((3, 0), (3, 0)) == 0
    assert asym_distance((3, 0), (1, 2)) == 2
    assert grams.nearest_row([(3, 0)], (1, 2)) == (0, 2, False)
    with pytest.raises(ValueError):
        asym_distance((1, 2), (1, 2, 3))


def test_asym_distance_is_metric_on_equal_sum_vectors():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        total = rng.randint(0, 12)

        def draw():
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            parts = []
            prev = 0
            for c in cuts + [total]:
                parts.append(c - prev)
                prev = c
            return tuple(parts)

        u, v, w = draw(), draw(), draw()
        assert asym_distance(u, v) == asym_distance(v, u)
        assert asym_distance(u, w) <= asym_distance(u, v) + asym_distance(v, w)
        assert (asym_distance(u, v) == 0) == (u == v)
        # equal-sum vectors: the distance is half the L1 difference
        l1 = sum(abs(a - b) for a, b in zip(u, v))
        assert asym_distance(u, v) * 2 == l1


def test_gram_distance():
    # the asymmetric distance of two words' profiles: a pseudometric on words
    s2 = full_gram_set(2, 2)

    def gram_distance(x, y):
        return asym_distance(profile(word(x, 2), s2), profile(word(y, 2), s2))

    assert gram_distance("0010", "1001") == 0
    assert gram_distance("011010", "011010") == 0
    assert gram_distance("0000", "0101") == 3


def test_dna_round_trip():
    assert dna_string(grams.Word((0, 1, 2, 3), 4)) == "ATGC"
    assert parse_dna("AATT").symbols == (0, 0, 1, 1)
    assert parse_dna(dna_string(parse_dna("GATTACA"))).symbols == parse_dna("GATTACA").symbols
    with pytest.raises(ValueError):
        parse_dna("")
    with pytest.raises(ValueError):
        parse_dna("AXT")
    with pytest.raises(ValueError):
        dna_string(word("011", 2))


def test_word_text_digits():
    w = word("0123", 4)
    assert word_text(w) == "0123"
    with pytest.raises(ValueError):
        word("", 2)
    with pytest.raises(ValueError):
        word("012", 2)


def test_word_validation():
    with pytest.raises(ValueError):
        grams.Word((0, 5), 4)
    with pytest.raises(ValueError):
        grams.Word((), 2)
    with pytest.raises(ValueError):
        grams.Word((0,), 1)


def test_explicit_gram_set_sorts_and_rejects_duplicates():
    s = explicit_gram_set(2, 2, [(1, 0), (0, 1)])
    assert s.grams == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        explicit_gram_set(2, 2, [(0, 1), (0, 1)])


def test_channel_budget_validation():
    assert ChannelBudget().s_syn == 0
    with pytest.raises(ValueError):
        ChannelBudget(s_syn=-1)


def test_profile_file_round_trip(tmp_path):
    s = build_weight_set(2, 4, 1, 2, 3)
    counts = profile(word("011001101011", 2), s).counts
    text = grams.format_profile_file(counts, s, 12)
    assert text.splitlines()[0] == "2 4 weight 1 2 3 12"
    s2, n, counts2 = grams.parse_profile_file(text)
    assert (s2.grams, n, counts2) == (s.grams, 12, counts)
    full = full_gram_set(2, 2)
    text = grams.format_profile_file((3, 0, 0, 0), full, 4)
    s3, n3, c3 = grams.parse_profile_file(text)
    assert s3.is_full() and n3 == 4 and c3 == (3, 0, 0, 0)
    # a cycle of six grams is no weight window, so it stays an explicit list
    cycle = explicit_gram_set(
        2, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 0), (1, 0, 0)]
    )
    counts = profile(word("0001110", 2), cycle).counts
    explicit = grams.format_profile_file(counts, cycle, 7)
    assert explicit.splitlines()[0] == "2 3 explicit 000 001 011 100 110 111 7"
    s4, n4, c4 = grams.parse_profile_file(explicit)
    assert (s4.grams, n4, c4) == (cycle.grams, 7, counts)
    with pytest.raises(ValueError):
        grams.parse_profile_file("2\n1 2 3\n")
    with pytest.raises(ValueError):
        grams.parse_profile_file("2 2 full 9 4\n3 0 0 0\n")


# Every gram set the test suite builds, plus the storage set of the benchmark.
SPEC_CASES = [
    full_gram_set(2, 2),
    full_gram_set(2, 3),
    full_gram_set(2, 4),
    full_gram_set(3, 2),
    full_gram_set(3, 3),
    build_weight_set(2, 2, 1, 0, 2),
    build_weight_set(2, 3, 1, 1, 2),
    build_weight_set(2, 4, 1, 2, 3),
    build_weight_set(2, 5, 1, 2, 3),
    build_weight_set(3, 3, 2, 1, 2),
    build_weight_set(4, 3, 2, 1, 3),
    explicit_gram_set(2, 2, [(0, 0)]),
    explicit_gram_set(2, 2, [(1, 0), (0, 1)]),
    explicit_gram_set(3, 2, [(0, 1), (1, 0), (1, 2), (2, 0)]),
    explicit_gram_set(4, 2, [(0, 0), (0, 1), (1, 0)]),
    explicit_gram_set(4, 2, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 3)]),
    explicit_gram_set(3, 3, full_gram_set(3, 3).grams[:20]),
    explicit_gram_set(2, 4, build_weight_set(2, 4, 1, 2, 3).grams),
] + [
    build_weight_set(q, ell, q_star, w1, w2)
    for q in (2, 3)
    for ell in (3, 4, 5)
    for q_star in range(1, q)
    for w1 in range(1, ell)
    for w2 in range(w1 + 1, ell + 1)
]


def test_gram_set_spec_round_trip():
    for s in SPEC_CASES:
        spec = grams.gram_set_spec(s)
        assert grams.parse_gram_set_spec(s.q, s.ell, spec.split()).grams == s.grams


def test_gram_set_spec_is_shortest():
    assert grams.gram_set_spec(full_gram_set(2, 3)) == "full"
    assert grams.gram_set_spec(build_weight_set(2, 2, 1, 0, 2)) == "full"
    assert grams.gram_set_spec(build_weight_set(4, 3, 2, 1, 3)) == "weight 2 1 3"
    assert grams.gram_set_spec(build_weight_set(2, 4, 1, 2, 3)) == "weight 1 2 3"
    sw = build_weight_set(2, 4, 1, 2, 3)
    assert grams.gram_set_spec(explicit_gram_set(2, 4, sw.grams)) == "weight 1 2 3"
    assert grams.gram_set_spec(explicit_gram_set(2, 2, [(0, 0)])) == "weight 1 0 0"
    assert grams.gram_set_spec(explicit_gram_set(2, 2, [(1, 0), (0, 1)])) == "weight 1 1 1"
    assert grams.gram_set_spec(explicit_gram_set(2, 2, [(0, 0), (0, 1)])) == "explicit 00 01"
