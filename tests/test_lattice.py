import random
import time
from fractions import Fraction
from itertools import product

import pytest

from gramcode import graphs, lattice
from gramcode.aecc import build_code
from gramcode.cli import TABLE_I, TABLE_II
from gramcode.grams import build_weight_set, explicit_gram_set, full_gram_set
from gramcode.graphs import build_graph
from gramcode.lattice import (
    CongruenceBlock,
    FitMismatch,
    FlowSystem,
    GuardExceeded,
    _plan,
    brute_force_profiles,
    count_points,
    enumerate_points,
    fit_quasipolynomial,
    flow_system_for_words,
    monotonicity_check,
    reciprocity_check,
)
from oracles import flow_points

S22 = full_gram_set(2, 2)
S23 = full_gram_set(2, 3)
S32 = full_gram_set(3, 2)
SW = build_weight_set(2, 4, 1, 2, 3)
TWO_COMPONENT_SET = explicit_gram_set(
    4, 2, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 3)]
)


def test_small_flow_count():
    g = build_graph(S22)
    points = enumerate_points(FlowSystem(g, 3))
    assert len(points) == 6
    assert count_points(FlowSystem(g, 3)) == 6
    for u in points:
        assert sum(u) == 3 and u[1] == u[2]


@pytest.mark.parametrize("s", [S23, SW, S32], ids=["S23", "SW", "S32"])
def test_enumeration_is_duplicate_free_and_exhaustive(s):
    g = build_graph(s)
    for m in range(0, 16):
        for mode in ("F", "E"):
            pts = enumerate_points(FlowSystem(g, m, mode))
            assert len(pts) == len(set(pts)) == count_points(FlowSystem(g, m, mode))
            # the DFS emits points in ascending lexicographic order
            assert pts == sorted(pts)
            for u in pts:
                assert sum(u) == m
                if mode == "E":
                    assert min(u) >= 1


def test_unbalanced_graph_matches_composition_scan():
    # In-degree differs from out-degree here, so mode E gives the nodes
    # nonzero targets and the forced and pinned levels nonzero constants.
    g = build_graph(explicit_gram_set(3, 2, [(0, 1), (1, 0), (1, 2), (2, 0)]))
    for mode in "FE":
        for m in range(0, 13):
            assert enumerate_points(FlowSystem(g, m, mode)) == flow_points(g, m, mode)


def test_wide_full_cube_counts_binary_words():
    # B(2,9) has 1024 arcs, so the scan runs 1024 levels deep.  Its cycles
    # of length <= 5 are node-disjoint, one per Lyndon word of that length,
    # so a circulation of total M <= 3 is a multiset of Lyndon words of total
    # length M; by Lyndon factorization these biject with binary words.
    g = build_graph(full_gram_set(2, 10))
    for m in (1, 2, 3):
        assert count_points(FlowSystem(g, m)) == 2**m
        assert len(enumerate_points(FlowSystem(g, m))) == 2**m


@pytest.mark.parametrize("mode", ["F", "E"])
def test_count_engine_follows_the_plan(monkeypatch, mode):
    # widest frontier against the DFS's search dimension: 3 vs 6 on
    # full 3 2, 4 vs 4 on full 2 3, 6 vs 3 on weight 2 4 1 2 3
    shapes = [(p.narrow, p.tie) for p in (_plan(FlowSystem(build_graph(s), 12, mode))
                                          for s in (S32, full_gram_set(4, 2), S23, SW))]
    assert shapes == [(True, False), (True, False), (False, True), (False, False)]
    # a congruence block always keeps the DFS
    g = build_graph(S32)
    block = CongruenceBlock((tuple(range(1, g.n_arcs + 1)),), 5, (2,))
    plan = _plan(FlowSystem(g, 12, mode, block))
    assert not plan.narrow and not plan.tie
    # one count goes to the frontier when narrow, two or more samples on a tie too
    seeded = []
    frontier = lattice._count_frontier

    def recorded(plan, tail, seeds):
        seeded.append(len(seeds))
        return frontier(plan, tail, seeds)

    monkeypatch.setattr(lattice, "_count_frontier", recorded)
    for s, one, two in ((S32, [1], [2]), (S23, [], [2]), (SW, [], [])):
        graph = build_graph(s)
        seeded.clear()
        count_points(FlowSystem(graph, 12, mode))
        lattice._count_samples(graph, [(12, mode)])
        assert seeded == one + one, s
        seeded.clear()
        lattice._count_samples(graph, [(12, mode), (13, "F")])
        assert seeded == two, s


def test_count_plans_once(monkeypatch):
    # one frontier system (full 3 2) and one DFS system (full 2 3)
    calls = []

    def counted(system):
        calls.append(system)
        return _plan(system)

    monkeypatch.setattr(lattice, "_plan", counted)
    for s, points in ((S32, 21), (S23, 8)):
        system = FlowSystem(build_graph(s), 3)
        calls.clear()
        assert count_points(system) == points
        assert calls == [system]


def test_count_stops_at_the_outer_level(monkeypatch):
    # weight 2 4 1 2 3 at M = 180: the DFS meets 91 prefixes at the outer
    # level, where stopping at the fold level would meet 4,186
    calls = []
    fold_count = lattice._fold_count

    def counted(*args):
        calls.append(args)
        return fold_count(*args)

    monkeypatch.setattr(lattice, "_fold_count", counted)
    assert count_points(FlowSystem(build_graph(SW), 180)) == 17599
    assert len(calls) == 91


@pytest.mark.parametrize("s, samples", [(S32, [(24, "E"), (24, "F"), (18, "E"), (24, "E")]),
                                        (full_gram_set(4, 2), [(12, "F"), (20, "E")])],
                         ids=["full 3 2", "full 4 2"])
def test_frontier_merges_exactly_the_scan_states(monkeypatch, s, samples):
    # each merged state reaches the outer level once, whichever samples
    # it comes from, and the states are the (rem, miss) with which the
    # DFS's prefixes of every sample enter it
    calls = []
    fold_count = lattice._fold_count

    def recorded(tail, rem, miss, pivot=None):
        calls.append((rem, tuple(miss)))
        return fold_count(tail, rem, miss, pivot)

    monkeypatch.setattr(lattice, "_fold_count", recorded)
    graph = build_graph(s)
    plans = [_plan(FlowSystem(graph, m, mode)) for m, mode in samples]
    assert plans[0].narrow
    tail = lattice._fold_tail(plans[0])
    counts = lattice._count_frontier(plans[0], tail, [(p.total, *p.targets) for p in plans])
    merged = list(calls)
    calls.clear()
    assert counts == [sum(lattice._scan(p, tail)) for p in plans]
    assert len(set(merged)) == len(merged)
    assert set(merged) == set(calls)


def test_wide_system_is_counted_without_visiting_its_points():
    # the DFS walks all 785,715 points of this system
    start = time.process_time()
    assert count_points(FlowSystem(build_graph(S32), 48, "E")) == 785715
    assert time.process_time() - start < 1.0


def test_folded_counts_match_the_reference():
    # the largest counts of two fit rows in bench/reference.json, where
    # the DFS alone visits every point
    for s, m, counts in ((SW, 300, (78831, 71329)), (S23, 72, (115801, 74209))):
        g = build_graph(s)
        assert [count_points(FlowSystem(g, m, mode)) for mode in "FE"] == list(counts)


def test_infeasible_systems_are_empty():
    g = build_graph(S23)
    assert enumerate_points(FlowSystem(g, 3, "E")) == []
    assert count_points(FlowSystem(g, 0, "E")) == 0


def test_brute_force_profile_counts():
    # distinct 2-gram count vectors over all binary words of length 4;
    # hand enumeration: 4 closed plus 8 open walk profiles
    expected = {
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1),
        (0, 2, 1, 0), (0, 1, 1, 1), (0, 1, 0, 2), (2, 0, 1, 0),
        (0, 1, 2, 0), (1, 0, 1, 1), (0, 0, 1, 2), (0, 0, 0, 3),
    }
    assert brute_force_profiles(4, S22) == expected
    closed = brute_force_profiles(4, S22, closed_only=True)
    assert closed == {(3, 0, 0, 0), (1, 1, 1, 0), (0, 1, 1, 1), (0, 0, 0, 3)}


def test_brute_force_two_component_counts():
    # the first component alone: closed profiles ceil(n/2), all profiles n + n//2
    s1 = explicit_gram_set(4, 2, [(0, 0), (0, 1), (1, 0)])
    for n in range(2, 9):
        assert len(brute_force_profiles(n, s1, closed_only=True)) == (n + 1) // 2
        assert len(brute_force_profiles(n, s1)) == n + n // 2


def test_brute_force_long_words():
    # past the property's reach; counts from a scan of all 2**22 and 3**14 words
    assert len(brute_force_profiles(22, S23)) == 9060
    assert len(brute_force_profiles(22, S23, closed_only=True)) == 622
    assert len(brute_force_profiles(14, S32, closed_only=True)) == 2775


def test_brute_force_guard():
    with pytest.raises(GuardExceeded):
        brute_force_profiles(40, S22)
    with pytest.raises(ValueError):
        brute_force_profiles(-1, S22)
    assert brute_force_profiles(1, S22) == set()


@pytest.mark.parametrize("s", [S22, S23, SW])
def test_interior_closed_feasible_sandwich(s):
    g = build_graph(s)
    for n in range(s.ell, 13):
        feasible = set(enumerate_points(flow_system_for_words(g, n, "F")))
        interior = set(enumerate_points(flow_system_for_words(g, n, "E")))
        closed = brute_force_profiles(n, s, closed_only=True)
        assert interior <= closed <= feasible


def block_filtered(system):
    """The points of system without its block that satisfy the block."""
    block = system.congruence
    plain = enumerate_points(FlowSystem(system.graph, system.m_total, system.mode))
    return [
        u for u in plain
        if all(sum(h * c for h, c in zip(row, u)) % block.p == b
               for row, b in zip(block.rows, block.beta))
    ]


@pytest.mark.parametrize("mode", ["F", "E"])
@pytest.mark.parametrize(
    "s", [S23, S32, SW, TWO_COMPONENT_SET], ids=["S23", "S32", "SW", "TWO_COMPONENT"]
)
def test_congruence_count_matches_filtering(s, mode):
    g = build_graph(s)
    rows = (tuple(range(1, g.n_arcs + 1)),)
    block = CongruenceBlock(rows, 5, (2,))
    shift = g.n_arcs if mode == "E" else 0
    for m in (6 + shift, 9 + shift, 12 + shift):
        system = FlowSystem(g, m, mode, block)
        filtered = block_filtered(system)
        assert count_points(system) == len(filtered)
        assert enumerate_points(system) == filtered


def test_congruence_count_interior_mode():
    g = build_graph(S23)
    rows = ((1, 2, 3, 5, 8, 10, 11, 12), (1, 4, 9, 12, 12, 9, 4, 1))
    block = CongruenceBlock(rows, 13, (0, 0))
    for m in (12, 24):
        system = FlowSystem(g, m, "E", block)
        assert enumerate_points(system) == block_filtered(system)
    with pytest.raises(ValueError):
        CongruenceBlock((rows[0], rows[1][:-1]), 13, (0, 0))  # ragged rows
    for p in (0, 4):  # the elimination needs inverses mod p
        with pytest.raises(ValueError):
            CongruenceBlock(rows, p, (0, 0))


def test_congruence_pin_is_solved_from_every_level():
    # Solving the pinned decision from the global total instead of the
    # sum of all level forms finds no point here.
    system = FlowSystem(build_graph(S22), 1, "F", CongruenceBlock(((2, 10, 10, 5),), 11, (2,)))
    assert enumerate_points(system) == block_filtered(system) == [(1, 0, 0, 0)]


@pytest.mark.parametrize("mode", ["F", "E"])
def test_congruence_every_residue_class(mode):
    # Over all 25 classes the pivot levels' first and last admissible
    # values sit at every offset from their bounds, so a residue start or
    # end that is off by one loses or adds points.
    g = build_graph(S23)
    rows = ((1, 2, 3, 4, 0, 1, 2, 3), (0, 1, 1, 2, 3, 0, 3, 1))
    m = 10 + (g.n_arcs if mode == "E" else 0)
    sizes = []
    for beta in product(range(5), repeat=2):
        system = FlowSystem(g, m, mode, CongruenceBlock(rows, 5, beta))
        assert enumerate_points(system) == block_filtered(system)
        sizes.append(count_points(system))
    assert min(sizes) > 0
    assert sum(sizes) == count_points(FlowSystem(g, m, mode))


def test_congruence_pin_weight_divisible_by_p():
    # The arcs 01 and 10 form a 2-cycle, so the pinned level has weight 2,
    # which has no inverse mod 2: the total cannot remove the pinned
    # decision, which stays a column of the elimination and becomes a pivot.
    g = build_graph(explicit_gram_set(3, 2, [(0, 0), (0, 1), (1, 0)]))
    for mode, m in (("F", 6), ("E", 9)):
        for beta in (0, 1):
            system = FlowSystem(g, m, mode, CongruenceBlock(((1, 1, 0),), 2, (beta,)))
            plan = _plan(system)
            pinned, pin_weight, pivots = plan.pinned, plan.pin_weight, plan.pivots
            assert pin_weight == 2 and pinned in pivots
            points = enumerate_points(system)
            assert len(points) == 2 and points == block_filtered(system)


# Gram sets whose plans have a fold level, with pin weights 1 to 4: the
# fold level is the one free decision, or follows an outer one.
BLOCK_FOLD_SETS = {
    "full 2 3": S23,
    "three loops": explicit_gram_set(3, 2, [(0, 0), (1, 1), (2, 2)]),
    "weight 2": explicit_gram_set(2, 2, [(0, 0), (0, 1), (1, 0)]),
    "weight 2, two free": explicit_gram_set(3, 2, [(0, 0), (1, 1), (1, 2), (2, 1)]),
    "weight 3": explicit_gram_set(2, 3, [(0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]),
    "weight 3, two free": explicit_gram_set(3, 2, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)]),
    "weight 4": explicit_gram_set(2, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0),
                                         (1, 1, 0)]),
}


def block_fold_grid():
    """A seeded grid of random blocks on the sets above, as systems."""
    rng = random.Random(12)
    for s in BLOCK_FOLD_SETS.values():
        g = build_graph(s)
        n = g.n_arcs
        for p, mode, _ in product((2, 3, 5, 13), "FE", range(20)):
            rows = tuple(tuple(rng.randrange(p) for _ in range(n))
                         for _ in range(rng.randint(1, 2)))
            block = CongruenceBlock(rows, p, tuple(rng.randrange(p) for _ in rows))
            yield FlowSystem(g, rng.randint(0, 20) + (n if mode == "E" else 0), mode, block)


def test_block_counts_fold_exactly():
    # The grid meets each way a block count can go: the fold level a
    # pivot (so the one pass), with the pin's class coprime to p or not;
    # a block-free tail after the pivots, folded at two levels; and a
    # pinned level that is a pivot, which scans every point.
    shapes = set()
    for system in block_fold_grid():
        p = system.congruence.p
        assert count_points(system) == len(enumerate_points(system))
        plan = _plan(system)
        pivots = plan.pivots or {}
        if plan.fold in pivots:
            shapes.add(("fold pivot", plan.pin_weight % p == 0))
        elif plan.fold >= 0:
            shapes.add(("block-free tail", plan.outer != plan.fold))
        shapes.add(("pinned pivot", plan.pinned in pivots))
        shapes.add(("pin weight", abs(plan.pin_weight)))
    assert shapes >= {("fold pivot", False), ("fold pivot", True), ("block-free tail", True),
                      ("pinned pivot", True)}
    assert {w for shape, w in shapes if shape == "pin weight"} == {1, 2, 3, 4}


def test_block_fold_with_incompatible_classes_counts_zero():
    # a + b + 2c = M over the loops 00, 11 and the 2-cycle 12 21.  The
    # pin gives b = M - a (mod 2) and the block's one row b = beta - a,
    # both at the fold level b: the classes agree on every point when
    # beta = M (mod 2) and on none otherwise.
    g = build_graph(BLOCK_FOLD_SETS["weight 2, two free"])
    for m in (10, 11):
        plain = count_points(FlowSystem(g, m))
        for beta in (0, 1):
            system = FlowSystem(g, m, "F", CongruenceBlock(((1, 1, 0, 0),), 2, (beta,)))
            plan = _plan(system)
            assert plan.fold == plan.outer == 1 and plan.fold in plan.pivots
            count = count_points(system)
            assert count == len(enumerate_points(system))
            assert count == (plain if (m - beta) % 2 == 0 else 0)


def holds_in_every_state(plan, row, component):
    """Whether a _fold_tail row holds whatever state enters the outer level.

    Only the identities that every state meets are assumed: a node with
    no non-loop arc from the outer level on is closed, so its missing
    balance is 0; each weak component's balances sum to 0; and 0 <= c1,
    c with c1 + c <= rem.  The row's miss terms are then constant when
    their coefficients agree on the other nodes of each component, and
    its rest, linear in rem, c1 and c, is >= 0 on that triangle when it
    is at the corners.
    """
    k_rem, terms, alpha, beta = row
    coefficient = dict(terms)
    live = {v for a, b, *_ in plan.levels[plan.outer:] if a != b for v in (a, b)}
    parts = {}
    for v in live:
        parts.setdefault(component[v], set()).add(coefficient.get(v, 0))
    flat = all(len(ks) == 1 for ks in parts.values())
    return flat and min(k_rem, k_rem + alpha, k_rem + beta) >= 0


def weak_components(graph):
    """Each node's weak component of D(S), as its smallest node."""
    component = list(range(graph.n_nodes))
    for _ in range(graph.n_nodes):
        for a, b in zip(graph.arc_init, graph.arc_term):
            component[a] = component[b] = min(component[a], component[b])
    return component


def test_no_tail_row_holds_in_every_state():
    # the bench's four fit tails, its mod-13 block tail, the two-component
    # set and the seeded fold grid; each bench tail keeps these rows free of c
    code = build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    bench = [FlowSystem(build_graph(s), 0) for s in (S22, S23, SW, S32)]
    bench.append(flow_system_for_words(build_graph(S23), 120, "E",
                                       CongruenceBlock(code.rows, code.p, code.beta)))
    two = FlowSystem(build_graph(explicit_gram_set(4, 2, [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])), 0)
    c_free = []
    for system in [*bench, two, *block_fold_grid()]:
        plan = _plan(system)
        if plan.fold < 0:
            continue
        rows, _ = lattice._fold_tail(plan)
        component = weak_components(system.graph)
        assert not [row for row in rows if holds_in_every_state(plan, row, component)]
        c_free.append(sum(not row[3] for row in rows))
    assert c_free[:6] == [2, 4, 9, 3, 5, 2]


def test_congruence_infeasible_beta_is_empty():
    # The second row is twice the first but its residue is not, so the
    # elimination ends in 0 = c with c != 0.
    g = build_graph(S23)
    row = (1, 2, 3, 5, 8, 10, 11, 12)
    block = CongruenceBlock((row, tuple(2 * h for h in row)), 13, (1, 3))
    for mode, m in (("F", 12), ("E", 20)):
        system = FlowSystem(g, m, mode, block)
        assert count_points(FlowSystem(g, m, mode)) > 0
        assert enumerate_points(system) == block_filtered(system) == []
        assert count_points(system) == 0


def test_fit_known_leading_coefficients(table_fits):
    expected = {
        "2,2": Fraction(1, 4),
        "2,3": Fraction(1, 288),
        "3,2": Fraction(1, 8640),
        "2,4w": Fraction(1, 360),
    }
    for key, (f_poly, _e_poly) in table_fits.items():
        assert f_poly.leading_in_n == expected[key]


def test_fit_polynomial_evaluates_to_counts():
    poly = fit_quasipolynomial(S22, 2, 2)
    g = build_graph(S22)
    for t in range(1, 6):
        assert poly.evaluate(t) == count_points(FlowSystem(g, 2 * t))


def test_fit_rejects_wrong_degree():
    with pytest.raises(FitMismatch):
        fit_quasipolynomial(S23, 3, 12)


def test_fit_rejects_a_wrong_period():
    # counts 1, 2, 4 at M = 0, 1, 2: the line through t = 0, 1 misses t = 2
    with pytest.raises(FitMismatch):
        fit_quasipolynomial(S22, 1, 1)


# full 3 2 less the gram 12: D = 5, simple cycles of lengths 1, 2 and 3
S32_LESS_12 = explicit_gram_set(3, 2, [g for g in S32.grams if g != (1, 2)])


def test_fit_proves_its_period():
    # The period is 6, and at lambda 5 the six classes mod 6 are not one
    # polynomial, though the 7 samples lie on one: the held-out check
    # alone returns a fit that gives 2724 at t = 3, where the count is 2730.
    assert count_points(FlowSystem(build_graph(S32_LESS_12), 16)) == 2730
    with pytest.raises(FitMismatch, match="lambda 5 is not a period"):
        fit_quasipolynomial(S32_LESS_12, 5, 5, "F", 1)
    # one 4-cycle: an odd total has no point, so lambda 2 is a period of
    # residue 1 (the classes 1 and 3 mod 4 are both 0) but not of residue 0
    cycle = explicit_gram_set(2, 3, [(0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0)])
    for mode in "FE":
        assert fit_quasipolynomial(cycle, 0, 2, mode, 1).coeffs == (0,)
        with pytest.raises(FitMismatch):
            fit_quasipolynomial(cycle, 0, 2, mode, 0)


def test_fit_without_a_proven_period_keeps_the_held_out_check(monkeypatch):
    # the cycle search gives up, so L is unknown and the held-out count,
    # which these samples pass, is the fit's only check of the period
    monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 0)
    assert fit_quasipolynomial(S32_LESS_12, 5, 5, "F", 1).evaluate(3) == 2724


def test_fit_samples_the_smallest_dilations(table_fits):
    # degree+2 dilations around zero, one step lower in mode F, and the
    # largest held out
    for f_poly, e_poly in table_fits.values():
        assert f_poly.verified_at == f_poly.degree // 2
        assert e_poly.verified_at == e_poly.degree // 2 + 1
    # an arc on no cycle: the fit samples t = 1..degree+1 and checks degree+2
    assert fit_quasipolynomial(TWO_COMPONENT_SET, 3, 2).verified_at == 5


def record_builds(monkeypatch):
    """Record each _plan and _fold_tail call and each _count_samples call's (m, mode, count)s."""
    builds = {"_plan": [], "_fold_tail": [], "samples": []}
    for name in ("_plan", "_fold_tail"):
        build = getattr(lattice, name)

        def recorded(plan_or_system, build=build, calls=builds[name]):
            calls.append(plan_or_system)
            return build(plan_or_system)

        monkeypatch.setattr(lattice, name, recorded)
    count_samples = lattice._count_samples

    def recorded_samples(graph, samples):
        counts = count_samples(graph, samples)
        builds["samples"].append([(graph, m, mode, n) for (m, mode), n in zip(samples, counts)])
        return counts

    monkeypatch.setattr(lattice, "_count_samples", recorded_samples)
    return builds


@pytest.mark.parametrize("mode", ["F", "E"])
def test_fit_plans_each_mode_once(monkeypatch, mode):
    # c(2,3): the fit's own samples and the other mode's past reciprocity
    # are counted in one call, with one plan per mode and one tail; at
    # lambda 8, which L = 12 does not divide, the three class fits at
    # period 12 are counted in that same call
    builds = record_builds(monkeypatch)
    fit_quasipolynomial(S23, 4, 12, mode)
    assert [s.mode for s in builds["_plan"]] == (["E", "F"] if mode == "F" else ["F", "E"])
    assert len(builds["_fold_tail"]) == 1
    [fit_samples] = builds["samples"]
    assert len(fit_samples) == 6
    for calls in builds.values():
        calls.clear()
    with pytest.raises(FitMismatch, match="lambda 8 is not a period"):
        fit_quasipolynomial(S23, 4, 8, mode)
    assert sorted(s.mode for s in builds["_plan"]) == ["E", "F"]
    assert len(builds["_fold_tail"]) == 1
    [class_samples] = builds["samples"]
    assert len(class_samples) == 4 * 6
    monkeypatch.undo()
    for graph, m, sample_mode, count in fit_samples + class_samples:
        assert count == count_points(FlowSystem(graph, m, sample_mode))


def test_monotonicity_check_plans_once(monkeypatch):
    builds = record_builds(monkeypatch)
    assert monotonicity_check(S23, 12)
    assert len(builds["_plan"]) == len(builds["_fold_tail"]) == 1
    [samples] = builds["samples"]
    assert [(m, mode) for _, m, mode, _ in samples] == [(m, "F") for m in range(1, 13)]


def invariance_sets():
    """The Table I/II sets and 300 seeded explicit sets with q, ell <= 3."""
    sets = [full_gram_set(q, ell) for q, ell, *_ in TABLE_I]
    sets += [build_weight_set(2, ell, 1, w1, w2) for ell, w1, w2, *_ in TABLE_II]
    rng = random.Random(35)
    for _ in range(300):
        q, ell = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        cube = full_gram_set(q, ell).grams
        sets.append(explicit_gram_set(q, ell, rng.sample(cube, rng.randint(1, min(len(cube), 12)))))
    return sets


def test_plans_and_tails_do_not_depend_on_the_mode():
    # a block-free plan's levels, decisions and tail are the graph's, so
    # _count_samples plans each mode once and shares one tail
    folded = 0
    for s in invariance_sets():
        graph = build_graph(s)
        f_plan, e_plan = (_plan(FlowSystem(graph, 0, mode)) for mode in "FE")
        for field in ("levels", "pinned", "pin_weight", "pin_terms", "outer", "fold", "narrow",
                      "tie"):
            assert getattr(f_plan, field) == getattr(e_plan, field), (s, field)
        if f_plan.fold >= 0:
            assert lattice._fold_tail(f_plan) == lattice._fold_tail(e_plan), s
            folded += 1
        top = 16 if graph.n_arcs <= 12 else 8  # the larger Table sets to M = 7
        samples = [(m, mode) for m in range(top) for mode in "FE"]
        counts = lattice._count_samples(graph, samples)
        for (m, mode), count in zip(samples, counts):
            assert count == count_points(FlowSystem(graph, m, mode)), (s, m, mode)
    assert folded >= 150


def test_fit_refuses_a_degree_above_the_arc_count():
    # full 2 2 has 4 arcs: its flow polytopes have dimension at most 3
    assert fit_quasipolynomial(S22, 3, 2).coeffs == (1, 2, 1, 0)
    with pytest.raises(ValueError, match="degree"):
        fit_quasipolynomial(S22, 4, 2)
    with pytest.raises(ValueError, match="degree"):
        fit_quasipolynomial(S22, 10**18, 2)


def test_fit_below_the_dimension_is_refused():
    # the count at M = 14 is 362, while t = -1 and 0 both count 4
    with pytest.raises(FitMismatch, match="below the polytope's dimension 4"):
        fit_quasipolynomial(S23, 0, 12, residue=2)
    # D = 2: the class is 2 + 6t + 6t^2, whose counts at t = 0, 1 are 2 and 14
    s = explicit_gram_set(2, 3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)])
    assert fit_quasipolynomial(s, 2, 12, residue=3).coeffs == (2, 6, 6)
    for degree in (0, 1):
        with pytest.raises(FitMismatch, match=r"t\^2 coefficient 6"):
            fit_quasipolynomial(s, degree, 12, residue=3)
    # D = 1 on two 2-cycles through node 0: an odd total has no points,
    # so its class is identically 0 and fits at any degree
    twin = explicit_gram_set(3, 2, [(0, 1), (1, 0), (0, 2), (2, 0)])
    for mode in "FE":
        assert fit_quasipolynomial(twin, 0, 2, mode, residue=1).coeffs == (0,)
        with pytest.raises(FitMismatch):
            fit_quasipolynomial(twin, 0, 2, mode, residue=0)


def test_reciprocity(table_fits):
    for f_poly, e_poly in table_fits.values():
        assert reciprocity_check(f_poly, e_poly)


def test_reciprocity_degenerate_loop():
    s = explicit_gram_set(2, 2, [(0, 0)])
    f_poly = fit_quasipolynomial(s, 0, 1)
    e_poly = fit_quasipolynomial(s, 0, 1, mode="E")
    assert f_poly.coeffs == (Fraction(1),)
    assert e_poly.coeffs == (Fraction(1),)
    assert reciprocity_check(f_poly, e_poly)


def test_loop_gives_constant_leading_coefficient_across_residues():
    # with a loop present the top coefficient cannot oscillate with the residue
    fits = [fit_quasipolynomial(S23, 4, 12, residue=r) for r in range(0, 4)]
    leads = {poly.leading for poly in fits}
    assert len(leads) == 1


def test_monotonicity_small():
    assert monotonicity_check(S22, 40)
    assert monotonicity_check(explicit_gram_set(2, 2, [(0, 0)]), 20)


def test_two_component_graph_enumeration():
    g = build_graph(TWO_COMPONENT_SET)
    for n in range(2, 9):
        feasible = set(enumerate_points(flow_system_for_words(g, n, "F")))
        interior = set(enumerate_points(flow_system_for_words(g, n, "E")))
        closed = brute_force_profiles(n, TWO_COMPONENT_SET, closed_only=True)
        assert interior <= closed <= feasible
        # the bridge arc admits no fully positive balanced assignment
        assert interior == set()
