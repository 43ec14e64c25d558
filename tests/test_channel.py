import tracemalloc

import pytest

from gramcode import channel
from gramcode.channel import (
    ChannelTrace,
    Splitmix64,
    cycle_decomposition,
    inject,
    star_distance,
    star_identification_bound,
    support_readout,
    tan_shallit_count,
    trace_from_json,
    trace_to_json,
    transmit,
)
from gramcode.grams import ChannelBudget, CubeTooLarge, full_gram_set, parse_dna, profile, word
from gramcode.graphs import SearchBudgetExceeded, build_graph
from oracles import brute_force_support_count, list_sample


def full_profile(x, ell):
    return profile(x, full_gram_set(x.q, ell)).counts


def test_rng_determinism_and_range():
    a, b = Splitmix64(12345), Splitmix64(12345)
    assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]
    rng = Splitmix64(0)
    draws = {rng.below(3) for _ in range(100)}
    assert draws == {0, 1, 2}
    assert Splitmix64(1).sample(5, 5) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        Splitmix64(1).sample(3, 4)


def test_sample_matches_the_list_fisher_yates():
    cases = [(n, k) for n in range(9) for k in range(n + 1)]
    cases += [(260, 0), (259, 2), (200, 200), (1000, 37)]
    for seed, (n, k) in enumerate(cases):
        a, b = Splitmix64(seed), Splitmix64(seed)
        assert a.sample(n, k) == list_sample(b, n, k)
        assert a.state == b.state  # the same draws, in the same order


def test_below_refuses_bounds_past_2_64():
    # 2**64 takes one 64-bit draw as it is; past it no rejection limit exists
    assert Splitmix64(5).below(2**64) == Splitmix64(5).next64()
    rng = Splitmix64(5)
    with pytest.raises(ValueError, match="exceeds 2"):
        rng.below(2**64 + 1)
    assert rng.state == 5


def test_reference_error_pattern():
    # one synthesis flip at the front, one lost occurrence, two misread grams
    x = word("0110100", 2)
    trace = ChannelTrace(None, ((0, 1),), (4,), ((1, (0, 1)), (2, (1, 1))))
    observed = inject(x, 2, trace)
    assert observed.counts == (1, 2, 0, 2)
    assert observed.total == 5
    assert max(observed.counts) <= 6


def test_inject_empty_trace_is_identity():
    x = word("0110100", 2)
    empty = ChannelTrace(None, (), (), ())
    assert inject(x, 2, empty).counts == full_profile(x, 2)


def test_observation_at_ell_10_lists_no_cube():
    # 4^10 grams: the observation is one count list, not the cube's grams
    x = parse_dna("ATGCATGCAATTGGCCATGCA")
    tracemalloc.start()
    try:
        for seed in range(3):
            observed, _ = transmit(x, 10, ChannelBudget(1, 2, 2), seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(observed) == 4**10 and observed.total == 10
    assert peak < 40 * 10**6


def test_observation_past_the_cube_guard_is_refused():
    # 4^11 grams exceed the cube guard of 2^20, which no gram set can pass either
    x = parse_dna("ATGCATGCAATTGGCCATGCA")
    with pytest.raises(CubeTooLarge):
        transmit(x, 11, ChannelBudget(0, 0, 0), 1)
    with pytest.raises(CubeTooLarge):
        inject(x, 11, ChannelTrace(None, (), (), ()))


def test_inject_validation():
    x = word("0101", 2)
    with pytest.raises(ValueError):
        inject(x, 2, ChannelTrace(None, ((0, 0),), (), ()))  # same symbol
    with pytest.raises(ValueError):
        inject(x, 2, ChannelTrace(None, (), (9,), ()))
    with pytest.raises(ValueError):
        inject(x, 2, ChannelTrace(None, (), (), ((5, (1, 1)),)))
    # a substituted or synthesized gram outside the cube [2]^2
    with pytest.raises(ValueError):
        inject(x, 2, ChannelTrace(None, (), (), ((0, (1, 1, 0)),)))  # wrong length
    with pytest.raises(ValueError):
        inject(x, 2, ChannelTrace(None, (), (), ((0, (1, 2)),)))  # symbol >= q
    with pytest.raises(ValueError):
        inject(x, 2, ChannelTrace(None, ((1, 5),), (), ()))
    # a repeated loss, synthesis position or substitution index
    y = word("0110100", 2)
    for trace in (
        ChannelTrace(None, (), (0, 0), ()),
        ChannelTrace(None, ((1, 0), (1, 1)), (), ()),
        ChannelTrace(None, (), (), ((0, (1, 1)), (0, (0, 0)))),
    ):
        with pytest.raises(ValueError):
            inject(y, 2, trace)


def test_transmit_replay_and_determinism():
    x = word("01102201", 3)
    budget = ChannelBudget(2, 1, 2)
    obs1, trace1 = transmit(x, 2, budget, seed=42)
    obs2, trace2 = transmit(x, 2, budget, seed=42)
    assert obs1 == obs2 and trace1 == trace2
    assert inject(x, 2, trace1) == obs1
    # a different seed yields a different trace here (seeds may collide in
    # general; replay identity above is the actual contract)
    _, trace3 = transmit(x, 2, budget, seed=43)
    assert trace3 != trace1


def test_transmit_pinned_traces():
    # pinned values: the draw order and the trace format must not change
    observed, trace = transmit(word("01102201", 3), 2, ChannelBudget(2, 1, 2), seed=42)
    assert trace.synthesis == ((5, 0), (6, 1))
    assert trace.dropped == (6,)
    assert trace.gram_subs == ((0, (2, 1)), (1, (0, 1)))
    assert observed.counts == (0, 2, 1, 1, 0, 0, 1, 1, 0)

    x = parse_dna("GATTACAGATTACA")
    observed, trace = transmit(x, 3, ChannelBudget(2, 2, 2), seed=5, at_most=True)
    assert trace == ChannelTrace(
        5, ((6, 2), (9, 2)), (3,), ((4, (1, 2, 2)), (6, (1, 0, 2)))
    )
    expected = [0] * 64
    for i in (5, 9, 12, 14, 18, 19, 20, 26, 33, 36, 40):
        expected[i] = 1
    assert observed.counts == tuple(expected)

    # single-symbol grams: the observation is the symbol composition
    observed, trace = transmit(word("0110", 2), 1, ChannelBudget(1, 1, 1), seed=1)
    assert trace == ChannelTrace(1, ((1, 0),), (2,), ((2, (1,)),))
    assert observed.counts == (2, 1)


def test_transmit_budget_shapes():
    x = word("0110100110", 2)
    for seed in range(25):
        observed, trace = transmit(x, 3, ChannelBudget(1, 2, 1), seed=seed)
        assert observed.total == (10 - 3 + 1) - 2
        assert len(trace.synthesis) == 1
        assert len(trace.dropped) == 2
        assert len(trace.gram_subs) == 1


def test_transmit_zero_budget():
    x = word("0110100", 2)
    observed, trace = transmit(x, 2, ChannelBudget(), seed=7)
    assert observed.counts == full_profile(x, 2)
    assert trace == ChannelTrace(7, (), (), ())


def test_coverage_only_is_one_sided():
    x = word("001101001101", 2)
    base = full_profile(x, 3)
    for seed in range(20):
        observed, _ = transmit(x, 3, ChannelBudget(t=3), seed=seed)
        diff = [b - o for b, o in zip(base, observed.counts)]
        assert all(d >= 0 for d in diff)
        assert sum(diff) == 3


def test_synthesis_only_l1_bound():
    x = word("001101001101", 2)
    base = full_profile(x, 3)
    for seed in range(20):
        observed, _ = transmit(x, 3, ChannelBudget(s_syn=2), seed=seed)
        l1 = sum(abs(b - o) for b, o in zip(base, observed.counts))
        assert l1 <= 2 * 2 * 3


def test_at_most_mode_and_bad_budgets():
    x = word("0101", 2)
    with pytest.raises(ValueError):
        transmit(x, 2, ChannelBudget(t=2, s_seq=2), seed=1)
    with pytest.raises(ValueError):
        transmit(x, 2, ChannelBudget(s_syn=5), seed=1)
    observed, trace = transmit(x, 2, ChannelBudget(1, 1, 1), seed=9, at_most=True)
    assert len(trace.dropped) <= 1 and len(trace.synthesis) <= 1


def test_trace_json_round_trip(tmp_path):
    x = word("0110100", 2)
    _, trace = transmit(x, 2, ChannelBudget(1, 1, 2), seed=5)
    back = trace_from_json(trace_to_json(trace))
    assert back == trace
    assert inject(x, 2, back) == inject(x, 2, trace)


def test_support_readout():
    s3 = full_gram_set(2, 3)
    x = word("00000110111100", 2)
    sup = support_readout(profile(x, s3).counts, s3)
    labels = {"".join(map(str, g)) for g in sup}
    assert labels == {"000", "001", "011", "100", "101", "110", "111"}


def test_star_distance():
    x = word("0101", 2)
    assert star_distance(x, x, 2) == 0
    assert star_distance(word("0101", 2), word("1010", 2), 2) == 0
    assert star_distance(word("0000", 2), word("1111", 2), 2) == 2


def test_star_identification_bound_formula():
    assert star_identification_bound(10, 3, 5) == 6
    assert star_identification_bound(9, 4, 1) == 9 - 4 + 1


def test_star_identification_bound_on_greedy_codebook():
    # greedy support-distance-4 codebook over binary words of length 8
    n, ell, d = 8, 3, 4
    words = []
    supports = []
    for v in range(2**n):
        bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        sup = frozenset(bits[i : i + ell] for i in range(n - ell + 1))
        if all(len(sup ^ other) >= d for other in supports):
            supports.append(sup)
            words.append(bits)
    assert len(supports) >= 2
    bound = star_identification_bound(n, ell, d)
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert len(supports[i] & supports[j]) < bound


def test_tan_shallit_reference_values():
    assert tan_shallit_count(4, 3) == 15
    assert tan_shallit_count(3, 3) == 8
    assert tan_shallit_count(5, 5) == 32


def test_tan_shallit_matches_brute_force():
    for ell in (3, 4):
        for n in range(ell, 2 * ell):
            assert tan_shallit_count(n, ell) == brute_force_support_count(n, ell)


def test_tan_shallit_range_validation():
    with pytest.raises(ValueError):
        tan_shallit_count(6, 3)
    with pytest.raises(ValueError):
        tan_shallit_count(2, 3)


@pytest.mark.parametrize("q,ell", [(2, 2), (2, 3), (3, 2)])
def test_trail_decomposition(q, ell):
    trails = cycle_decomposition(q, ell)
    graph = build_graph(full_gram_set(q, ell))
    assert len(trails) == q
    assert all(len(tr) == q ** (ell - 1) for tr in trails)
    flat = sorted(a for tr in trails for a in tr)
    assert flat == list(range(q**ell))
    for tr in trails:
        for a, b in zip(tr, tr[1:]):
            assert graph.arc_term[a] == graph.arc_init[b]


def test_trail_decomposition_closed_when_possible():
    graph = build_graph(full_gram_set(2, 3))
    trails = cycle_decomposition(2, 3)
    for tr in trails:
        assert graph.arc_init[tr[0]] == graph.arc_term[tr[-1]]


def test_trail_decomposition_pinned():
    # (2, 2) has no closed decomposition: its Eulerian circuit is cut in two
    assert cycle_decomposition(2, 2) == [[0, 1], [3, 2]]
    assert cycle_decomposition(2, 3) == [[0, 1, 2, 4], [3, 7, 6, 5]]
    assert cycle_decomposition(3, 2) == [[0, 1, 3], [2, 8, 6], [4, 5, 7]]


def test_trail_decomposition_budget(monkeypatch):
    # giving up is reported, not mistaken for "no closed decomposition"
    monkeypatch.setattr(channel, "TRAIL_SEARCH_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded):
        cycle_decomposition(2, 3)


def test_trail_decomposition_guard():
    with pytest.raises(ValueError):
        cycle_decomposition(4, 4)
