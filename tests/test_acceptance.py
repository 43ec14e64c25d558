"""Acceptance suite: one check per headline requirement, one line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.  Everything asserts exact equality; there are no
tolerances anywhere.
"""

from fractions import Fraction
from itertools import permutations, product

from gramcode import aecc, channel, codec, grams, graphs, lattice
from oracles import brute_force_support_count, same_mode_fit, verify_min_distance

S22 = grams.full_gram_set(2, 2)
S23 = grams.full_gram_set(2, 3)
SW43 = grams.build_weight_set(2, 4, 1, 2, 3)
TWO_COMPONENT_SET = grams.explicit_gram_set(
    4, 2, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 3)]
)
TABLE_FIT_SETS = {"2,2": S22, "2,3": S23, "3,2": grams.full_gram_set(3, 2), "2,4w": SW43}


def check(num, description, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_profile_conformance():
    ok = grams.profile(grams.word("0000", 2), S22).counts == (3, 0, 0, 0)
    ok &= grams.profile(grams.word("0101", 2), S22).counts == (0, 2, 1, 0)
    ok &= grams.profile(grams.word("0001000", 2), S23).counts == (2, 1, 1, 0, 1, 0, 0, 0)
    named = {
        SW43.label(i): c
        for i, c in enumerate(grams.profile(grams.word("011001101011", 2), SW43).counts)
    }
    ok &= named == {
        "0011": 1, "0101": 1, "0110": 2, "0111": 0, "1001": 1,
        "1010": 1, "1011": 1, "1100": 1, "1101": 1, "1110": 0,
    }
    check(1, "reference profiles match exactly", ok)


def test_criterion_02_eulerian_grid():
    ok = True
    for q in (2, 3):
        for ell in (3, 4, 5):
            for q_star in range(1, q):
                for w1 in range(1, ell):
                    for w2 in range(w1 + 1, ell + 1):
                        s = grams.build_weight_set(q, ell, q_star, w1, w2)
                        ok &= graphs.is_eulerian(graphs.build_graph(s))
    check(2, "every weight-window graph on the grid is Eulerian", ok)


def test_criterion_03_two_component_counts():
    ok = True
    for n in range(4, 11):
        counted = len(lattice.brute_force_profiles(n, TWO_COMPONENT_SET))
        expected = (
            2 * (n + n // 2)
            + 2 * (n - 2)
            + sum(n1 * (n - 2 - n1) for n1 in range(1, n - 2))
        )
        ok &= counted == expected
    delta, delta_bar = graphs.growth_exponent(graphs.build_graph(TWO_COMPONENT_SET))
    ok &= (delta, delta_bar) == (3, 1)
    check(3, "two-component profile counts and growth exponents", ok)


def test_criterion_04_sandwich_inclusions():
    ok = True
    for s in (S22, S23, SW43):
        g = graphs.build_graph(s)
        for n in range(s.ell, 13):
            feasible = set(lattice.enumerate_points(lattice.flow_system_for_words(g, n, "F")))
            interior = set(lattice.enumerate_points(lattice.flow_system_for_words(g, n, "E")))
            closed = lattice.brute_force_profiles(n, s, closed_only=True)
            ok &= interior <= closed <= feasible
    check(4, "interior points <= closed-word profiles <= feasible points, n <= 12", ok)


def test_criterion_05_leading_coefficients(table_fits):
    expected = {
        "2,2": Fraction(1, 4),
        "2,3": Fraction(1, 288),
        "3,2": Fraction(1, 8640),
        "2,4w": Fraction(1, 360),
    }
    ok = all(table_fits[key][0].leading_in_n == expected[key] for key in expected)
    check(5, "count-polynomial leading coefficients 1/4, 1/288, 1/8640, 1/360", ok)


def test_criterion_06_reciprocity(table_fits):
    # The fits sample t <= 0 by reciprocity, so each must also equal the
    # fit from counts of its own mode alone: then the identity below is
    # shown by counts, not by the method that assumes it.
    ok = all(
        lattice.reciprocity_check(f_poly, e_poly)
        for f_poly, e_poly in table_fits.values()
    )
    for key, s in TABLE_FIT_SETS.items():
        for poly in table_fits[key]:
            oracle = same_mode_fit(s, poly.degree, poly.period, poly.mode)
            ok &= poly.coeffs == oracle.coeffs
    check(6, "feasible/interior count polynomials satisfy reciprocity", ok)


def test_criterion_07_monotonicity():
    ok = lattice.monotonicity_check(S22, 40) and lattice.monotonicity_check(S23, 40)
    check(7, "feasible counts nondecreasing for totals 1..40", ok)


def test_criterion_08_headline_codebook_size(headline_codebook):
    check(8, "mod-13 distance-3 codebook at n=158 has 11036 codewords",
          len(headline_codebook) == 11036)


def test_criterion_08_deep_doubled_length():
    code = aecc.build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    count = lattice.count_points(
        lattice.flow_system_for_words(graphs.build_graph(S23), 314, "E", code)
    )
    check(8, "codebook count at the doubled length n=314 equals 185197", count == 185197)


def test_criterion_09_cycle_lcms():
    from math import lcm

    ok = True
    lam, lengths = graphs.cycle_length_lcm(graphs.build_graph(S23))
    ok &= lam == 12 and lengths == [1, 2, 3, 4]
    ok &= lcm(lam, 11) == 132 and lcm(lam, 13) == 156
    lam24, _ = graphs.cycle_length_lcm(graphs.build_graph(grams.full_gram_set(2, 4)))
    ok &= lam24 == 840 and lcm(lam24, 17) == 14280
    ok &= graphs.cycle_length_lcm(graphs.build_graph(SW43))[0] == 60
    ok &= graphs.cycle_length_lcm(
        graphs.build_graph(grams.build_weight_set(2, 5, 1, 2, 3))
    )[0] == 120
    check(9, "cycle-length lcms 12, 840, 60, 120 and code periods 132/156/14280", ok)


def test_criterion_10_systematic_encoder():
    layout = codec.systematic_layout(graphs.build_graph(S23), 2)
    reference = {
        (0, 0, 0): (14, 1, 0, 1, 1, 0, 1, 0),
        (0, 0, 1): (13, 1, 0, 1, 1, 0, 1, 1),
        (0, 1, 0): (11, 1, 0, 2, 1, 1, 2, 0),
        (0, 1, 1): (10, 1, 0, 2, 1, 1, 2, 1),
        (1, 0, 0): (11, 2, 1, 1, 2, 0, 1, 0),
        (1, 0, 1): (10, 2, 1, 1, 2, 0, 1, 1),
        (1, 1, 0): (12, 1, 1, 1, 1, 1, 1, 0),
        (1, 1, 1): (11, 1, 1, 1, 1, 1, 1, 1),
    }
    ok = True
    for message in product(range(2), repeat=3):
        u = codec.systematic_encode(layout, message, 20)
        ok &= u.counts == reference[message]
        ok &= u.total == 18
        ok &= tuple(u[a] for a in layout.info_positions) == message
        ok &= grams.profile(codec.euler_word(u.counts, S23), S23).counts == u.counts
    first = codec.euler_word(reference[(0, 0, 0)], S23)
    ok &= grams.word_text(first) == "0" * 16 + "1100"
    check(10, "systematic encoder reproduces all eight reference profiles", ok)


def test_criterion_11_varshamov():
    code = aecc.build_code(5, (1, 2, 3), 2)
    ok = aecc.code_size_ambient(code, 39) == 2368
    codewords = [u for u in product(range(6), repeat=3) if code.is_member(u)]
    ok &= len(codewords) > 0
    for u in codewords:
        for e in product(range(3), repeat=3):
            if sum(e) > 2:
                continue
            received = tuple(c - x for c, x in zip(u, e))
            if min(received) < 0:
                continue
            ok &= aecc.decode_bounded(code, received, 2) == u
    check(11, "ambient size 2368 and exhaustive bounded decoding", ok)


def _channel_trials(book, budgets, trials):
    s = book.gram_set
    g = graphs.build_graph(s)
    words = [codec.euler_word(u, s, g) for u in book.codewords]
    failures = 0
    seed = 0
    for budget in budgets:
        for trial in range(trials):
            seed += 1
            target = trial % len(book.codewords)
            observed, _trace = channel.transmit(words[target], s.ell, budget, seed)
            result = codec.decode_profile(book, observed.counts)
            if result.index != target or result.tie:
                failures += 1
    return failures


def test_criterion_12_channel_correction_property():
    # distance 3: two parity rows over the 2-gram cube
    code3 = aecc.build_code(5, (1, 2, 3, 4), 2)
    book3 = codec.grc_intersect(code3, 41, S22)
    assert verify_min_distance(book3.codewords) >= 3
    budgets3 = [
        grams.ChannelBudget(0, 0, 0),
        grams.ChannelBudget(0, 1, 0),
        grams.ChannelBudget(0, 2, 0),
        grams.ChannelBudget(0, 0, 1),
    ]
    for b in budgets3:
        assert 2 * b.s_syn * 2 + 2 * b.s_seq + b.t < 3

    # distance 5: four parity rows force every count into 5Z
    code5 = aecc.build_code(5, (1, 2, 3, 4), 4)
    book5 = codec.grc_intersect(code5, 51, S22)
    assert verify_min_distance(book5.codewords) >= 5
    budgets5 = [
        grams.ChannelBudget(1, 0, 0),
        grams.ChannelBudget(0, 4, 0),
        grams.ChannelBudget(0, 2, 1),
        grams.ChannelBudget(0, 0, 2),
    ]
    for b in budgets5:
        assert 2 * b.s_syn * 2 + 2 * b.s_seq + b.t < 5

    failures = _channel_trials(book3, budgets3, 1000)
    failures += _channel_trials(book5, budgets5, 1000)
    check(12, "1000 seeded trials per budget point decode without failure",
          failures == 0)


def test_criterion_13_euler_round_trip():
    ok = True
    for s in (S22, S23):
        g = graphs.build_graph(s)
        for n in range(s.ell, 11):
            for u in lattice.brute_force_profiles(n, s):
                ok &= grams.profile(codec.euler_word(u, s, g), s).counts == u
    check(13, "profile -> word -> profile is the identity for n <= 10", ok)


def test_criterion_14_support_count_formula():
    ok = True
    for ell in (3, 4, 5):
        for n in range(ell, 2 * ell):
            ok &= channel.tan_shallit_count(n, ell) == brute_force_support_count(n, ell)
    ok &= channel.tan_shallit_count(4, 3) == 15
    check(14, "support-count formula matches brute force on the short grid", ok)


def test_criterion_15_trail_decompositions():
    ok = True
    for q, ell in ((2, 2), (2, 3), (3, 2)):
        trails = channel.cycle_decomposition(q, ell)
        g = graphs.build_graph(grams.full_gram_set(q, ell))
        ok &= len(trails) == q
        ok &= all(len(tr) == q ** (ell - 1) for tr in trails)
        ok &= sorted(a for tr in trails for a in tr) == list(range(q**ell))
        for tr in trails:
            ok &= all(g.arc_term[a] == g.arc_init[b] for a, b in zip(tr, tr[1:]))
    check(15, "q arc-disjoint equal trails cover the full graphs", ok)


def test_criterion_16_rank_modulation_round_trip():
    layout = codec.rank_modulation_layout(2, 3)
    u = codec.rank_encode(layout, (0, 1, 2), 14)
    ok = u.counts == (3, 1, 0, 2, 1, 1, 2, 2)
    w = codec.euler_word(u.counts, layout.gram_set)
    ok &= grams.word_text(w) == "00000110111100"
    perm, ties = codec.rank_readout_decode(layout, grams.profile(w, S23).counts)
    ok &= perm == (0, 1, 2) and not ties
    for perm_in in permutations(range(3)):
        v = codec.rank_encode(layout, perm_in, 14)
        decoded, ties = codec.rank_readout_decode(layout, v.counts)
        ok &= decoded == perm_in and not ties
    check(16, "permutation -> profile -> word -> readout round trip", ok)
