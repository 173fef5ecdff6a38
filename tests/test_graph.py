import random
from itertools import combinations

import pytest

from bmlab import catalog
from bmlab.errors import BoundExceeded, NotACycle
from bmlab.graph import Cycle, MultiGraph, OrientedEdge, find_subdivision, graph_isomorphisms


def k4():
    return MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def two_c3():
    return MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])


def tube():
    return MultiGraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])


def test_spanning_forest_connected():
    g = two_c3()
    f = g.spanning_forest()
    assert len(f) == g.n - 1
    assert g.is_forest_edge_set(f)


def test_spanning_forest_two_components():
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    f = g.spanning_forest()
    assert len(f) == 4  # two per triangle


def test_spanning_forest_k4_is_tree():
    f = k4().spanning_forest()
    assert len(f) == 3 and k4().is_forest_edge_set(f)


def test_k4_has_seven_cycles():
    cyc = k4().cycles()
    assert len(cyc) == 7
    assert sorted(len(c) for c in cyc) == [3, 3, 3, 3, 4, 4, 4]


def test_2c3_has_eleven_cycles():
    cyc = two_c3().cycles()
    assert len(cyc) == 11
    assert sorted(len(c) for c in cyc) == [2, 2, 2] + [3] * 8


def test_single_loop_is_a_cycle():
    g = MultiGraph(1, [(0, 0)])
    cyc = g.cycles()
    assert len(cyc) == 1 and len(cyc[0]) == 1


def test_cycles_deterministic_order():
    a = two_c3().cycles()
    b = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)]).cycles()
    assert [c.edges for c in a] == [c.edges for c in b]


def test_cycles_are_2_regular_connected():
    for g in (k4(), two_c3(), tube()):
        for c in g.cycles():
            # Cycle.from_edges revalidates 2-regularity and connectivity
            Cycle.from_edges(g, c.edges)


def _cycles_by_subsets(g):
    """Brute force: every edge set that Cycle.from_edges accepts, with its
    walk, in the order cycles() promises."""
    out = []
    for k in range(1, g.m + 1):
        for es in combinations(range(g.m), k):
            try:
                out.append(Cycle.from_edges(g, es))
            except NotACycle:
                pass
    out.sort(key=lambda c: (len(c.edges), tuple(sorted(c.edges))))
    return out


def test_cycles_match_every_edge_subset():
    rng = random.Random(7)
    graphs = list(catalog.multigraphs_up_to_iso(4, 6))
    graphs += [nb.omega.graph for nb in catalog.base_graphs()]
    for _ in range(40):
        n = rng.randint(1, 5)
        graphs.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randint(0, 8))]))
    total = 0
    for g in graphs:
        got = g.cycles()
        assert list(got) == _cycles_by_subsets(g)
        total += len(got)
    assert (len(graphs), total) == (86, 429)


def test_cycle_bound():
    g = MultiGraph(2, [(0, 1)] * 5)
    with pytest.raises(BoundExceeded):
        g.cycles(max_edges=4)


def test_cycle_bound_checked_after_memo():
    g = MultiGraph(2, [(0, 1)] * 5)
    assert len(g.cycles()) == 10
    with pytest.raises(BoundExceeded):
        g.cycles(max_edges=4)


def _acyclic_link_subsets(g):
    """Brute force: every subset of links that is a forest, in
    lexicographic order of sorted edge ids."""
    links = [e for e in range(g.m) if not g.is_loop(e)]
    subsets = [c for k in range(len(links) + 1) for c in combinations(links, k)]
    return [frozenset(c) for c in sorted(subsets) if g.is_forest_edge_set(c)]


@pytest.mark.parametrize("g", [
    k4(), two_c3(), MultiGraph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)]),
], ids=["k4", "2c3", "loops"])
def test_link_forests_brute_force(g):
    forests = _acyclic_link_subsets(g)
    assert g.link_forests() == forests
    for k in range(g.n):
        assert g.link_forests(k) == [F for F in forests if len(F) <= k]


def test_not_a_cycle():
    with pytest.raises(NotACycle):
        Cycle.from_edges(k4(), {0, 1})


def test_oriented_edge_reverse_involution():
    oe = OrientedEdge(3)
    assert oe.reverse().reverse() == oe
    g = k4()
    assert g.tail(oe.reverse()) == g.head(oe)


def test_vertical_connectivity_k4():
    ok, w = k4().is_vertically_k_connected(3)
    assert ok and w is None


def test_vertical_connectivity_path():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    ok, w = g.is_vertically_k_connected(2)
    assert not ok
    a, b = w
    # witness is a vertical 1-separation at the cut vertex
    assert set(a) | set(b) == {"e1", "e2"} and not set(a) & set(b)


def test_vertical_connectivity_tube():
    # derived by exhaustive separation search
    ok, _ = tube().is_vertically_k_connected(2)
    assert ok
    ok3, w = tube().is_vertically_k_connected(3)
    assert not ok3
    A, B = w
    g = tube()
    VA = g.vertices_of(g.edge_set(A))
    VB = g.vertices_of(g.edge_set(B))
    assert len(VA & VB) == 2 and VA - VB and VB - VA


def test_vertical_connectivity_matches_connectivity_check():
    # is_vertically_k_connected(g, 1) equals a direct connectivity check
    graphs = [
        k4(),
        two_c3(),
        MultiGraph(4, [(0, 1), (2, 3)]),
        MultiGraph(3, [(0, 1), (1, 2)]),
        MultiGraph(2, [(0, 1), (0, 1)]),
    ]
    for g in graphs:
        ok, _ = g.is_vertically_k_connected(1)
        assert ok == g.is_connected()


def test_two_vertex_graphs():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert g.is_vertically_k_connected(2)[0]


def test_minor_contract_triangle_edge():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    m, vmap, emap = g.minor({0}, set())
    assert m.n == 2 and m.m == 2
    assert set(m.edges) == {(0, 1), (1, 0)} or set(m.edges) == {(0, 1)}


def test_minor_k4_contract_matching_edge():
    m, _, _ = k4().minor({5}, set())  # edge (2,3)
    assert m.n == 3 and m.m == 5
    pairs = [tuple(sorted(e)) for e in m.edges]
    assert pairs.count((0, 2)) == 2  # doubled edge appears


def test_minor_tube_contract_single_link():
    # contracting a non-doubled link of the tube gives the 2C3-minus-e shape
    m, _, _ = tube().minor({2}, set())
    assert m.n == 3 and m.m == 5
    pairs = sorted(tuple(sorted(e)) for e in m.edges)
    from collections import Counter

    mult = sorted(Counter(pairs).values())
    assert mult == [1, 2, 2]


def test_minor_loop_contraction_is_deletion():
    g = MultiGraph(2, [(0, 0), (0, 1)])
    a, _, _ = g.minor({0}, set())
    b, _, _ = g.minor(set(), {0})
    assert a.edges == b.edges and a.n == b.n


def test_minor_overlap_rejected():
    with pytest.raises(ValueError):
        k4().minor({0}, {0})


def test_contract_joint_rewrites_links_at_the_loop():
    g = MultiGraph(3, [(0, 0), (0, 0), (0, 1), (2, 0), (1, 2)])
    h, emap = g.contract_joint(0)
    assert h.edges == ((0, 0), (1, 1), (2, 2), (1, 2))
    assert h.edge_names == ("e2", "e3", "e4", "e5")
    assert emap == {1: 0, 2: 1, 3: 2, 4: 3}
    with pytest.raises(ValueError):
        g.contract_joint(2)


def test_acyclic_contraction_normal_form():
    g = two_c3()
    K = {0, 1, 2}  # contains the 2-cycle {0,1}
    K2, D2 = g.acyclic_contraction_form(K, frozenset())
    assert g.is_forest_edge_set(K2)
    a, _, _ = g.minor(K, set())
    b, _, _ = g.minor(K2, D2)
    assert a.edges == b.edges and a.n == b.n and a.edge_names == b.edge_names


def test_isolated_vertices_retained():
    g = MultiGraph(3, [(0, 1), (0, 1)])
    m, vmap, _ = g.minor({0}, set())
    assert m.n == 2  # merged pair plus the isolated vertex
    d, _ = m.drop_isolated()
    assert d.n == 1


def test_find_subdivision_identity():
    g = k4()
    emb = find_subdivision(g, g)
    assert emb is not None
    assert all(len(p) == 1 for p in emb.edge_paths.values())


def test_find_subdivision_subdivided_k4():
    host = MultiGraph(
        5, [(0, 1), (0, 2), (0, 4), (4, 3), (1, 2), (1, 3), (2, 3)]
    )  # K4 with edge (0,3) subdivided through 4
    emb = find_subdivision(host, k4())
    assert emb is not None
    assert sorted(len(p) for p in emb.edge_paths.values()) == [1, 1, 1, 1, 1, 2]


def test_find_subdivision_theta_in_tube():
    theta = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    emb = find_subdivision(tube(), theta)
    assert emb is not None


def test_find_subdivision_absent():
    assert find_subdivision(two_c3(), k4()) is None


def test_graph_isomorphism_count_k4():
    assert sum(1 for _ in graph_isomorphisms(k4(), k4())) == 24


def test_graph_isomorphism_respects_multiplicity():
    g = tube()
    h = MultiGraph(4, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (2, 3)])
    assert not any(True for _ in graph_isomorphisms(g, h))


def test_edge_components():
    g = MultiGraph(6, [(0, 1), (1, 2), (3, 4)])
    comps = g.edge_components({0, 1, 2})
    assert sorted(len(c) for c in comps) == [1, 2]
