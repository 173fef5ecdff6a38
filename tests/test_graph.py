import random
from collections import Counter
from itertools import combinations

import pytest

from bmlab import catalog
from bmlab.bias import BiasedGraph
from bmlab.errors import BoundExceeded, NotACycle
from bmlab.graph import (
    Cycle,
    CycleMasks,
    MultiGraph,
    OrientedEdge,
    find,
    graph_isomorphisms,
    iter_subdivisions,
)
import oracles
from oracles import (
    count_builds,
    edge_components,
    graph_isomorphisms_by_permutations,
    relabel,
    sweep_graphs,
    with_loops,
)


def reverse(oe):
    return OrientedEdge(oe.edge, not oe.forward)


def cycle_from_edges(g, edge_ids):
    """The Cycle on an edge set, walked from its least vertex along the
    smaller edge first; NotACycle unless the set is a connected 2-regular
    subgraph or a single loop."""
    edge_ids = frozenset(edge_ids)
    if len(edge_ids) == 1:
        (e,) = edge_ids
        if not g.is_loop(e):
            raise NotACycle("single non-loop edge is not a cycle")
        return Cycle(edge_ids, (OrientedEdge(e, True),))
    deg = {}
    for e in edge_ids:
        if g.is_loop(e):
            raise NotACycle("loop inside a longer edge set")
        u, v = g.endpoints(e)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        raise NotACycle("edge set is not 2-regular")
    if len(edge_components(g, edge_ids)) != 1:
        raise NotACycle("edge set is not connected")
    start = min(deg)
    walk = []
    current = start
    remaining = set(edge_ids)
    while remaining:
        e = min(x for x in remaining if current in g.endpoints(x))
        u, v = g.endpoints(e)
        walk.append(OrientedEdge(e, forward=(u == current)))
        current = v if u == current else u
        remaining.discard(e)
    if current != start:
        raise NotACycle("edge set does not close up")
    return Cycle(edge_ids, tuple(walk))


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
    assert g.spanning_forest(f) == f


def test_spanning_forest_two_components():
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    f = g.spanning_forest()
    assert len(f) == 4  # two per triangle


def test_spanning_forest_k4_is_tree():
    f = k4().spanning_forest()
    assert len(f) == 3 and k4().spanning_forest(f) == f


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
            # cycle_from_edges revalidates 2-regularity and connectivity
            cycle_from_edges(g, c.edges)


def _cycles_by_subsets(g):
    """Brute force: every edge set that cycle_from_edges accepts, with its
    walk, in the order cycles() promises."""
    out = []
    for k in range(1, g.m + 1):
        for es in combinations(range(g.m), k):
            try:
                out.append(cycle_from_edges(g, es))
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


def test_cycle_masks_build_the_vertex_masks_on_first_read():
    # the theta check reads only the index, and the theta backtrack the
    # theta triples, which read the edge and vertex masks; the cycles
    # through each vertex wait for their first read, and each table is
    # built once.  Each graph is built afresh so that nothing of it is
    # memoised yet
    graphs = list(catalog.multigraphs_up_to_iso(4, 6))
    graphs += [nb.omega.graph for nb in catalog.base_graphs()]
    graphs.append(MultiGraph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)]))
    tables = [getattr(CycleMasks, name).fget
              for name in ("edge_masks", "vertex_masks", "by_edges", "thetas", "through")]
    for old in graphs:
        g = MultiGraph(old.n, old.edges)
        first = frozenset(c.edges for c in g.cycles()[:1])
        with count_builds(*tables) as builds:
            BiasedGraph(g, first)
            assert builds == {}
            for _ in range(2):
                catalog.theta_closed_subsets(g)
            assert builds == {"edge_masks": 1, "vertex_masks": 1, "by_edges": 1, "thetas": 1}
            masks = g.cycle_masks()
            assert masks.through == tuple(
                sum(1 << i for i, c in enumerate(g.cycles()) if v in g.vertices_of(c.edges))
                for v in range(g.n))
            assert masks.through is g.cycle_masks().through
            assert builds["through"] == 1
        assert masks.edge_masks == tuple(sum(1 << e for e in c.edges) for c in g.cycles())
        assert masks.vertex_masks == tuple(
            sum(1 << v for v in g.vertices_of(c.edges)) for c in g.cycles())
        assert all(masks.by_edges[e] == i for i, e in enumerate(masks.edge_masks))


def test_cycle_bound():
    assert len(MultiGraph(2, [(0, 1)] * 24).cycles()) == 276
    g = MultiGraph(2, [(0, 1)] * 25)
    for _ in range(2):
        with pytest.raises(BoundExceeded):
            g.cycles()


def _acyclic_link_subsets(g):
    """Brute force: every subset of links that is a forest, in
    lexicographic order of sorted edge ids."""
    links = [e for e in range(g.m) if not g.is_loop(e)]
    subsets = [c for k in range(len(links) + 1) for c in combinations(links, k)]
    return [frozenset(c) for c in sorted(subsets) if len(g.spanning_forest(c)) == len(c)]


@pytest.mark.parametrize("g", [
    k4(), two_c3(), MultiGraph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)]),
], ids=["k4", "2c3", "loops"])
def test_link_forests_brute_force(g):
    forests = _acyclic_link_subsets(g)
    assert g.link_forests() == forests
    for k in range(-1, g.n):
        assert g.link_forests(k) == [F for F in forests if len(F) <= k]


def test_not_a_cycle():
    with pytest.raises(NotACycle):
        cycle_from_edges(k4(), {0, 1})


def test_oriented_edge_reverse_involution():
    oe = OrientedEdge(3)
    assert reverse(reverse(oe)) == oe
    g = k4()
    assert g.tail(reverse(oe)) == g.head(oe)


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


def test_contract_loops_rewrites_links_at_a_joint():
    g = MultiGraph(3, [(0, 0), (0, 0), (0, 1), (2, 0), (1, 2)])
    h, emap, joints, rewritten = g.contract_loops({0}, set())
    assert h.edges == ((0, 0), (1, 1), (2, 2), (1, 2))
    assert h.edge_names == ("e2", "e3", "e4", "e5")
    assert emap == {1: 0, 2: 1, 3: 2, 4: 3}
    assert joints == (0,)
    assert rewritten == {0: True, 1: False, 2: False}
    with pytest.raises(ValueError):
        g.contract_loops({2}, set())


def test_acyclic_contraction_normal_form():
    g = two_c3()
    K = {0, 1, 2}  # contains the 2-cycle {0,1}
    K2 = frozenset(g.spanning_forest(K))
    assert K2 == {0, 2}
    a, _, _ = g.minor(K, set())
    b, _, _ = g.minor(K2, K - K2)
    assert a.edges == b.edges and a.n == b.n and a.edge_names == b.edge_names


def test_isolated_vertices_retained():
    g = MultiGraph(3, [(0, 1), (0, 1)])
    m, vmap, _ = g.minor({0}, set())
    assert m.n == 2  # merged pair plus the isolated vertex
    d, _ = m.drop_isolated()
    assert d.n == 1


def test_find_subdivision_identity():
    g = k4()
    emb = next(iter_subdivisions(g, g), None)
    assert emb is not None
    assert all(len(p) == 1 for p in emb.edge_paths.values())


def test_find_subdivision_subdivided_k4():
    host = MultiGraph(
        5, [(0, 1), (0, 2), (0, 4), (4, 3), (1, 2), (1, 3), (2, 3)]
    )  # K4 with edge (0,3) subdivided through 4
    emb = next(iter_subdivisions(host, k4()), None)
    assert emb is not None
    assert sorted(len(p) for p in emb.edge_paths.values()) == [1, 1, 1, 1, 1, 2]


def test_find_subdivision_theta_in_tube():
    theta = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    emb = next(iter_subdivisions(tube(), theta), None)
    assert emb is not None


def test_find_subdivision_absent():
    assert next(iter_subdivisions(two_c3(), k4()), None) is None


def test_graph_isomorphism_count_k4():
    assert sum(1 for _ in graph_isomorphisms(k4(), k4())) == 24


def test_graph_isomorphism_respects_multiplicity():
    g = tube()
    h = MultiGraph(4, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (2, 3)])
    assert not any(True for _ in graph_isomorphisms(g, h))


def test_graph_isomorphisms_match_the_permutation_filter():
    # each sweep graph, and each with a balanced loop and a joint added,
    # against a seeded relabelled copy of itself and against every graph
    # of its size: the same bijections in the same order
    rng = random.Random(40)
    graphs = sweep_graphs()
    graphs += [with_loops(BiasedGraph(g, [])).graph for g in graphs]
    by_size = {}
    for g in graphs:
        by_size.setdefault((g.n, g.m), []).append(g)
    pairs = Counter()
    for g in graphs:
        copy = relabel(BiasedGraph(g, []), rng.sample(range(g.n), g.n),
                       rng.sample(range(g.m), g.m)).graph
        for h in [copy] + by_size[g.n, g.m]:
            got = list(graph_isomorphisms(g, h))
            assert got == list(graph_isomorphisms_by_permutations(g, h)), (g.edges, h.edges)
            pairs[bool(got)] += 1
            pairs["bijections"] += len(got)
    assert pairs == {True: 310, False: 1946, "bijections": 752}


def test_graph_tables_match_their_oracles():
    # every (5, 8) graph, each also with a balanced loop and a joint added,
    # and seeded random multigraphs with loops: each table equals the
    # function that builds it from the edge list, and cannot be changed
    graphs = list(catalog.multigraphs_up_to_iso(5, 8))
    graphs += [with_loops(BiasedGraph(g, [])).graph for g in graphs] + _graphs_with_loops()
    loops = 0
    for g in graphs:
        assert g.degrees == tuple(oracles.degrees(g))
        assert g.links == tuple(map(tuple, oracles.links(g)))
        assert g.profiles == tuple((at, tuple(mult)) for at, mult in
                                   (oracles.adjacency_profile(g, v) for v in range(g.n)))
        assert g.multiplicity == tuple(map(tuple, oracles.multiplicities(g)))
        assert dict(g.parallel_classes) == {
            key: tuple(es) for key, es in oracles.parallel_classes(g).items()}
        assert list(g.parallel_classes) == list(oracles.parallel_classes(g))
        for v in range(g.n):
            assert g.degree(v) == g.degrees[v]
            assert g.links_at(v) == tuple(e for e, _ in g.links[v])
        loops += any(u == v for u, v in g.edges)
        with pytest.raises(TypeError):
            g.parallel_classes[0, 0] = ()
    assert (len(graphs), loops) == (493, 253)


def test_edge_components():
    g = MultiGraph(6, [(0, 1), (1, 2), (3, 4)])
    comps = edge_components(g, {0, 1, 2})
    assert sorted(len(c) for c in comps) == [1, 2]


# -- the routines that spanning_forest, components and the vertical
# separation search replaced, kept as oracles ---------------------------------

def _kruskal_all_edges(g):
    """spanning_forest() before it took edge_ids: Kruskal over every edge."""
    parent = list(range(g.n))
    forest = []
    for e, (u, v) in enumerate(g.edges):
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            forest.append(e)
    return tuple(forest)


def _is_forest_edge_set(g, edge_ids):
    parent = list(range(g.n))
    for e in edge_ids:
        u, v = g.edges[e]
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _acyclic_contraction_form(g, contract, delete):
    contract = frozenset(contract)
    delete = frozenset(delete)
    parent = list(range(g.n))
    keep = []
    moved = []
    for e in sorted(contract):
        u, v = g.edges[e]
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            moved.append(e)
        else:
            parent[ru] = rv
            keep.append(e)
    return frozenset(keep), delete | frozenset(moved)


def _graphs_with_loops():
    rng = random.Random(11)
    graphs = [MultiGraph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)]),
              MultiGraph(2, [(0, 0), (1, 1), (0, 1), (0, 1)]),
              MultiGraph(4, [(0, 1), (2, 3), (3, 3)])]
    for _ in range(20):
        n = rng.randint(1, 5)
        graphs.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randint(0, 7))]))
    return graphs


def test_spanning_forest_matches_the_three_kruskal_loops_on_every_edge_subset():
    graphs = list(catalog.multigraphs_up_to_iso(4, 6)) + _graphs_with_loops()
    subsets = 0
    for g in graphs:
        assert g.spanning_forest() == _kruskal_all_edges(g)
        for k in range(g.m + 1):
            for es in combinations(range(g.m), k):
                forest = g.spanning_forest(es)
                assert (len(forest) == len(es)) == _is_forest_edge_set(g, es)
                assert frozenset(forest) == _acyclic_contraction_form(g, es, ())[0]
                subsets += 1
    assert (len(graphs), subsets) == (56, 2235)


def _components_brute_force(g, avoid):
    """Components of G - avoid by repeated closure of an edge relation."""
    rest = [v for v in range(g.n) if v not in avoid]
    comp = {v: {v} for v in rest}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            if u in comp and v in comp and comp[u] is not comp[v]:
                merged = comp[u] | comp[v]
                for w in merged:
                    comp[w] = merged
                changed = True
    return sorted({frozenset(c) for c in comp.values()}, key=min)


def test_components_match_brute_force_on_every_vertex_subset():
    graphs = list(catalog.multigraphs_up_to_iso(4, 6)) + _graphs_with_loops()
    for g in graphs:
        for k in range(g.n + 1):
            for avoid in combinations(range(g.n), k):
                assert g.components(avoid) == _components_brute_force(g, set(avoid))
        assert g.components() == g.components(())


def _parent_vertical(g, k):
    """The separation search that is_vertically_k_connected's vertex-cut
    test replaced, as it stood before components(avoid): with its own
    component search and a separate _any_vertical_separation."""
    def components(avoid):
        comp_of, cid = {}, 0
        for s in range(g.n):
            if s in avoid or s in comp_of:
                continue
            stack = [s]
            comp_of[s] = cid
            while stack:
                v = stack.pop()
                for e in g.incident_edges(v):
                    w = g.other_end(e, v)
                    if w not in avoid and w not in comp_of:
                        comp_of[w] = cid
                        stack.append(w)
            cid += 1
        return comp_of, cid

    def separation(r):
        for S in combinations(range(g.n), r):
            comp_of, cid = components(set(S))
            edges_of_comp = [[] for _ in range(cid)]
            flexible = []
            for e, (u, v) in enumerate(g.edges):
                c = comp_of.get(u)
                if c is None:
                    c = comp_of.get(v)
                if c is None:
                    flexible.append(e)
                else:
                    edges_of_comp[c].append(e)
            live = [c for c in range(cid) if edges_of_comp[c]]
            if len(live) < 2:
                continue
            for size in range(1, len(live)):
                for group in combinations(live, size):
                    forced_a = [e for c in group for e in edges_of_comp[c]]
                    forced_b = [e for c in live if c not in group for e in edges_of_comp[c]]
                    need_a = max(0, r - len(forced_a))
                    if need_a > len(flexible):
                        continue
                    if len(forced_b) + len(flexible) - need_a < r:
                        continue
                    A = set(forced_a) | set(flexible[:need_a])
                    B = set(forced_b) | set(flexible[need_a:])
                    VA, VB = g.vertices_of(A), g.vertices_of(B)
                    cut = VA & VB
                    if len(cut) > r or len(A) < len(cut) or len(B) < len(cut):
                        continue
                    if VA - VB and VB - VA:
                        return (g.names_of(A), g.names_of(B))
        return None

    def any_separation():
        comps = g.components()
        if len(comps) > 1:
            withedges = [c for c in comps if any(g.incident_edges(v) for v in c)]
            if len(withedges) >= 2:
                a = {e for v in withedges[0] for e in g.incident_edges(v)}
                b = set(range(g.m)) - a
                if b:
                    return (g.names_of(a), g.names_of(b))
            return None
        for r in range(1, k):
            sep = separation(r)
            if sep is not None:
                return sep
        return None

    comps = g.components()
    if g.n < k + 2:
        complete = all(
            any(set(g.edges[e]) == {u, v} for e in g.incident_edges(u))
            for u, v in combinations(range(g.n), 2)
        )
        if len(comps) <= 1 and complete and g.n >= 1:
            return True, None
        return False, any_separation()
    if len(comps) > 1:
        return False, any_separation()
    for r in range(1, k):
        sep = separation(r)
        if sep is not None:
            return False, sep
    return True, None


def test_vertical_connectivity_matches_the_parent_routine():
    # full (answer, witness) pairs for every k up to 5, on the (5, 8)
    # multigraphs, graphs with loops, and a seeded corpus of multigraphs
    # with loops and parallel edges on 0-7 vertices
    graphs = list(catalog.multigraphs_up_to_iso(5, 8)) + _graphs_with_loops()
    graphs += [MultiGraph(0, []), MultiGraph(1, []), MultiGraph(3, [(0, 1)])]
    rng = random.Random(48)
    corpus = []
    for _ in range(300):
        n = rng.randint(0, 7)
        corpus.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randint(0, 10) if n else 0)]))

    def outcomes(graphs, ks):
        count = Counter()
        for g in graphs:
            for k in ks:
                got = g.is_vertically_k_connected(k)
                assert got == _parent_vertical(g, k), (g.n, g.edges, k)
                count[got[0], got[1] is None] += 1
        return count

    assert len(graphs) == 261
    assert outcomes(graphs, (1, 2, 3)) == {(True, True): 420, (False, False): 339,
                                           (False, True): 24}
    assert outcomes(graphs, (4, 5)) == {(True, True): 84, (False, False): 422,
                                        (False, True): 16}
    assert sum(any(u == v for u, v in g.edges) for g in corpus) == 173
    assert outcomes(corpus, range(1, 6)) == {(True, True): 483, (False, False): 447,
                                             (False, True): 570}


def test_vertical_connectivity_memo_matches_a_fresh_graph():
    # each answer is memoised per graph and per k: asked for k = 1, 2, 3 in
    # turn, then again, a graph answers as a fresh copy of itself does
    graphs = differ = 0
    for g in sweep_graphs():
        for h in (MultiGraph(g.n, g.edges), with_loops(BiasedGraph(g, [])).graph):
            answers = [MultiGraph(h.n, h.edges).is_vertically_k_connected(k) for k in (1, 2, 3)]
            for _ in range(2):
                assert [h.is_vertically_k_connected(k) for k in (1, 2, 3)] == answers, h.edges
            graphs += 1
            differ += len(set(answers)) > 1
    assert (graphs, differ) == (144, 90)  # 90 answer differently for some two k
