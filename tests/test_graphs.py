import random
from itertools import product

import pytest

from gramcode import graphs
from gramcode.grams import build_weight_set, explicit_gram_set, full_gram_set
from gramcode.graphs import (
    NotHamiltonianError,
    SearchBudgetExceeded,
    build_graph,
    cycle_length_lcm,
    eulerian_walk,
    growth_exponent,
    hamiltonian_cycle,
    is_eulerian,
    net_outflow,
    simple_cycle_lengths,
    strongly_connected_components,
)
from oracles import cursor_walk, integer_rank, node_label

TWO_COMPONENT_SET = explicit_gram_set(
    4, 2, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 3)]
)


def test_build_graph_full_cube():
    g = build_graph(full_gram_set(2, 3))
    assert g.n_nodes == 4 and g.n_arcs == 8
    assert [node_label(g, v) for v in range(4)] == ["00", "01", "10", "11"]


def test_build_graph_weight_window():
    g = build_graph(build_weight_set(2, 4, 1, 2, 3))
    assert g.n_nodes == 7 and g.n_arcs == 10
    assert [node_label(g, v) for v in range(7)] == [
        "001", "010", "011", "100", "101", "110", "111"
    ]


def test_build_graph_single_loop():
    g = build_graph(explicit_gram_set(2, 2, [(0, 0)]))
    assert g.n_nodes == 1 and g.n_arcs == 1 and g.arc_init[0] == g.arc_term[0]


@pytest.mark.parametrize(
    "s",
    [full_gram_set(2, 3), full_gram_set(3, 2), build_weight_set(2, 4, 1, 2, 3),
     TWO_COMPONENT_SET],
    ids=["full23", "full32", "weight", "two_component"],
)
def test_adjacency_matches_arc_scan(s):
    g = build_graph(s)
    ends = list(zip(g.arc_init, g.arc_term))
    for u in range(g.n_nodes):
        assert list(g.out_adj[u]) == [a for a, (i, _t) in enumerate(ends) if i == u]
        assert g.successors(u) == sorted({t for i, t in ends if i == u})
        for v in range(g.n_nodes):
            scan = [a for a, pair in enumerate(ends) if pair == (u, v)]
            assert g.arc_of.get((u, v)) == (scan[0] if scan else None)
    assert g.loops() == [a for a, (i, t) in enumerate(ends) if i == t]


def unit_outflows(g):
    """The columns of the node-arc incidence matrix, as net outflows of unit flows."""
    return [net_outflow(g, [int(a == b) for b in range(g.n_arcs)]) for a in range(g.n_arcs)]


def test_incidence_structure():
    g = build_graph(full_gram_set(2, 2))
    cols = unit_outflows(g)
    # arc 00 is a loop: zero column; arc 01 runs node 0 -> node 1
    assert cols[0] == [0, 0]
    assert cols[1] == [1, -1]
    assert all(sum(col) == 0 for col in cols)


def test_incidence_rank():
    g = build_graph(full_gram_set(2, 3))
    assert integer_rank(unit_outflows(g)) == g.n_nodes - 1


def test_integer_rank_plain():
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0]]) == 0


def test_scc_two_components():
    g = build_graph(TWO_COMPONENT_SET)
    comps = strongly_connected_components(g)
    names = [[node_label(g, v) for v in comp] for comp in comps]
    assert names == [["0", "1"], ["2", "3"]]


def test_scc_connected_cases():
    assert len(strongly_connected_components(build_graph(full_gram_set(2, 3)))) == 1
    loop = build_graph(explicit_gram_set(2, 2, [(0, 0)]))
    assert strongly_connected_components(loop) == [[0]]


def test_eulerian_checks():
    assert is_eulerian(build_graph(build_weight_set(2, 4, 1, 2, 3)))
    assert not is_eulerian(build_graph(TWO_COMPONENT_SET))
    for q in (2, 3):
        for ell in (2, 3, 4):
            assert is_eulerian(build_graph(full_gram_set(q, ell)))


def test_balanced_degrees_on_weight_windows():
    # Weight-window graphs balance in and out degree at every node, for
    # every valid window on the whole small grid.
    for q in (2, 3):
        for ell in (3, 4, 5):
            for q_star in range(1, q):
                for w1 in range(1, ell):
                    for w2 in range(w1 + 1, ell + 1):
                        g = build_graph(build_weight_set(q, ell, q_star, w1, w2))
                        assert not any(net_outflow(g, [1] * g.n_arcs))


def test_eulerian_walk_closed_covers_multiplicities():
    g = build_graph(full_gram_set(2, 3))
    mult = (14, 1, 0, 1, 1, 0, 1, 0)
    walk = eulerian_walk(g, mult)
    assert walk[0] == walk[-1]
    assert len(walk) == sum(mult) + 1
    traversed = [0] * g.n_arcs
    for u, v in zip(walk, walk[1:]):
        traversed[g.arc_of[u, v]] += 1
    assert tuple(traversed) == mult


def test_eulerian_walk_closed_single_loop():
    g = build_graph(explicit_gram_set(2, 2, [(0, 0)]))
    walk = eulerian_walk(g, [5])
    assert walk[0] == walk[-1]
    assert walk == [0] * 6


def test_eulerian_walk_open():
    g = build_graph(full_gram_set(2, 2))
    # one copy of arc 01: open walk from node 0 to node 1
    walk = eulerian_walk(g, [0, 1, 0, 0])
    assert walk == [0, 1]


def test_eulerian_walk_rejects_bad_multisets():
    g = build_graph(full_gram_set(2, 2))
    with pytest.raises(ValueError):
        eulerian_walk(g, [0, 2, 0, 0])  # imbalance 2 at one pair
    with pytest.raises(ValueError):
        eulerian_walk(g, [1, 0, 0, 1])  # two loops, disconnected support
    with pytest.raises(ValueError):
        eulerian_walk(g, [0, 0, 0, 0])


def _walk_profile(graph, rng, mult):
    """Add to mult the arcs of a random walk of up to 12 steps from a random node."""
    v = rng.randrange(graph.n_nodes)
    for _ in range(rng.randint(0, 12)):
        if not graph.out_adj[v]:
            break
        a = rng.choice(graph.out_adj[v])
        mult[a] += 1
        v = graph.arc_term[a]


def _outcome(walk, graph, mult):
    try:
        return walk(graph, mult)
    except ValueError as exc:
        return str(exc)


def test_eulerian_walk_matches_the_cursor_scan():
    # random explicit sets (q, ell in {2, 3}, at most 10 grams) with
    # multiplicities drawn uniformly (mostly refused), from one random
    # walk (closed or open) or from two (often disconnected)
    rng = random.Random(34)
    seen = {"closed": 0, "open": 0, "disconnected": 0, "refused": 0}
    for _ in range(6000):
        q, ell = rng.choice((2, 3)), rng.choice((2, 3))
        cube = list(product(range(q), repeat=ell))
        grams = rng.sample(cube, rng.randint(1, min(10, len(cube))))
        graph = build_graph(explicit_gram_set(q, ell, grams))
        mult = [0] * graph.n_arcs
        kind = rng.randrange(3)
        if kind == 0:
            mult = [rng.randint(0, 3) for _ in mult]
        for _ in range(kind):
            _walk_profile(graph, rng, mult)
        expected = _outcome(cursor_walk, graph, mult)
        assert _outcome(eulerian_walk, graph, mult) == expected
        if isinstance(expected, list):
            seen["closed" if expected[0] == expected[-1] else "open"] += 1
        else:
            seen["disconnected" if "disconnected" in expected else "refused"] += 1
    assert min(seen.values()) >= 100, seen


def test_hamiltonian_full_cube():
    g = build_graph(full_gram_set(2, 3))
    cycle = hamiltonian_cycle(g)
    assert [node_label(g, v) for v in cycle] == ["00", "01", "11", "10"]
    g2 = build_graph(full_gram_set(2, 2))
    assert hamiltonian_cycle(g2) == [0, 1]
    pinned = {
        (2, 4): "000 001 010 101 011 111 110 100",
        (3, 3): "00 01 10 02 21 11 12 22 20",
    }
    for (q, ell), labels in pinned.items():
        graph = build_graph(full_gram_set(q, ell))
        assert [node_label(graph, v) for v in hamiltonian_cycle(graph)] == labels.split()
    # every full cube with q <= 16 and at most 512 nodes: the cycle starts
    # at node 0, visits every node once and follows arcs of the graph
    for q in range(2, 17):
        for ell in range(2, 11):
            if q ** (ell - 1) > 512:
                break
            graph = build_graph(full_gram_set(q, ell))
            cyc = hamiltonian_cycle(graph)
            assert cyc[0] == 0
            assert sorted(cyc) == list(range(graph.n_nodes))
            for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                assert (u, v) in graph.arc_of


def test_hamiltonian_absent():
    with pytest.raises(NotHamiltonianError):
        hamiltonian_cycle(build_graph(TWO_COMPONENT_SET))


def test_hamiltonian_budget(monkeypatch):
    g = build_graph(full_gram_set(3, 3))
    # general-position search on a reduced set with a tiny budget
    reduced = explicit_gram_set(3, 3, [gr for gr in full_gram_set(3, 3).grams][:20])
    monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 3)
    with pytest.raises((SearchBudgetExceeded, NotHamiltonianError, ValueError)):
        hamiltonian_cycle(build_graph(reduced))
    # 1022 nodes: the search gives up on its budget, whatever the path depth
    monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 5000)
    with pytest.raises(SearchBudgetExceeded):
        hamiltonian_cycle(build_graph(build_weight_set(2, 11, 1, 2, 9)))


def test_cycle_incidence_annihilation():
    # The net outflow of any cycle's arc counts is zero at every node.
    for s in (full_gram_set(2, 3), build_weight_set(2, 4, 1, 2, 3)):
        g = build_graph(s)
        cycle = hamiltonian_cycle(g) if s.is_full() else None
        walks = []
        if cycle:
            walks.append(cycle + cycle[:1])
        walks.append(eulerian_walk(g, [1] * g.n_arcs) if is_eulerian(g) else None)
        for walk in walks:
            if walk is None:
                continue
            chi = [0] * g.n_arcs
            for u, v in zip(walk, walk[1:]):
                chi[g.arc_of[u, v]] += 1
            assert net_outflow(g, chi) == [0] * g.n_nodes


def test_cycle_length_lcm_values():
    lam, lengths = cycle_length_lcm(build_graph(full_gram_set(2, 3)))
    assert (lam, lengths) == (12, [1, 2, 3, 4])
    lam, _ = cycle_length_lcm(build_graph(build_weight_set(2, 4, 1, 2, 3)))
    assert lam == 60
    lam, _ = cycle_length_lcm(build_graph(build_weight_set(2, 5, 1, 2, 3)))
    assert lam == 120


def test_cycle_lengths_by_brute_force():
    # all simple cycles of the 2-cube graph, checked against a direct walk scan
    g = build_graph(full_gram_set(2, 2))
    assert simple_cycle_lengths(g) == {1, 2}


def test_cycle_lengths_budget(monkeypatch):
    g = build_graph(build_weight_set(2, 5, 1, 2, 3))
    monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 5)
    with pytest.raises(SearchBudgetExceeded):
        simple_cycle_lengths(g)
    with pytest.raises(SearchBudgetExceeded):
        cycle_length_lcm(g)


def test_growth_exponent_two_components():
    g = build_graph(TWO_COMPONENT_SET)
    delta, delta_bar = growth_exponent(g)
    assert (delta, delta_bar) == (3, 1)


def test_growth_exponent_three_component_chain():
    # {0,1}: 3 arcs on 2 nodes, delta 1; {2}: no loop, delta -1;
    # {3,4}: 4 arcs on 2 nodes, delta 2.  The chain 0,1 -> 2 -> 3,4 weighs
    # 1 + 1 + (-1) + 1 + 2 = 4, more than {3,4} alone.
    s = explicit_gram_set(
        5, 2, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4)]
    )
    g = build_graph(s)
    assert strongly_connected_components(g) == [[0, 1], [2], [3, 4]]
    assert growth_exponent(g) == (4, 2)


def test_growth_exponent_strongly_connected():
    for s in (full_gram_set(2, 3), build_weight_set(2, 4, 1, 2, 3)):
        g = build_graph(s)
        delta, delta_bar = growth_exponent(g)
        assert delta == g.n_arcs - g.n_nodes
        assert delta_bar == delta
