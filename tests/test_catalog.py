import hashlib
import json
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from bmlab import catalog
from bmlab.bias import (
    BiasedGraph,
    biased_isomorphic,
    biased_minor,
    check_theta_property,
    classify_balance,
    is_tangled,
    theta_subgraphs,
)
from bmlab.errors import BadGlue, BmlabError, BoundExceeded
from bmlab.graph import MultiGraph, edge_bijections, graph_isomorphisms
from bmlab.matroid import frame_matroid, lift_matroid, matroids_equal, uniform_matroid
from oracles import (
    automorphism_generators_by_edge_bijections,
    bias_set_orbits_by_burnside,
    drop_isolated,
    mask_edge_sets,
    multigraph_classes_by_burnside,
    multigraph_key,
    orbit_masks_by_closure,
    relabel,
    sweep_graphs,
    theta_closed_edge_sets,
    theta_closed_subsets_by_theta_test,
    with_loops,
)


def test_seven_dwarves():
    dwarves = catalog.classify_k4()
    assert len(dwarves) == 7
    names = {nb.name for nb in dwarves}
    assert names == {"D_{0,0}", "D_{0,1}", "D_{0,2}", "D_{0,3}",
                     "D_{1,0}", "D_{2,1}", "D_{4,3}"}


def test_dwarf_counts_are_the_defining_predicate():
    for nb in catalog.classify_k4():
        t = sum(1 for c in nb.omega.balanced if len(c) == 3)
        q = sum(1 for c in nb.omega.balanced if len(c) == 4)
        assert nb.name == "D_{%d,%d}" % (t, q)


def test_six_proper_2c3():
    assert {nb.name for nb in catalog.classify_2c3_proper()} == {
        "T_0", "T_1", "T_2", "T_2'", "T_3", "T_4"
    }


def test_t2_split_by_delta_image():
    from bmlab.bias import delta_y

    t2 = catalog.biased_2c3("T_2").omega
    t2p = catalog.biased_2c3("T_2'").omega
    img2 = delta_y(t2, min(t2.balanced, key=sorted))
    img2p = delta_y(t2p, min(t2p.balanced, key=sorted))
    assert biased_isomorphic(img2, catalog.dwarf("D_{0,1}").omega)
    assert biased_isomorphic(img2p, catalog.dwarf("D_{1,0}").omega)


def test_three_tubes():
    tubes = catalog.classify_tube_proper()
    assert [nb.name for nb in tubes] == ["B_0", "B_1", "B_2"]
    # pinned by generation: 0, 1 and 2 balanced quadrilaterals
    for nb, count in zip(tubes, (0, 1, 2)):
        assert len(nb.omega.balanced) == count


def test_thirteen_base_graphs():
    base = catalog.base_graphs()
    assert len(base) == 13
    for nb in base:
        assert catalog.properly_unbalanced(nb.omega)
        assert catalog.vertically_2_connected(nb.omega.graph)
        assert check_theta_property(nb.omega.graph, nb.omega.balanced) is None


def test_base_graphs_link_minor_minimal():
    # single-edge deletions and link contractions lose the defining property
    for nb in catalog.base_graphs():
        om = nb.omega
        for e in range(om.graph.m):
            for op in ("delete", "contract"):
                mn = biased_minor(
                    om, {e} if op == "contract" else set(),
                    {e} if op == "delete" else set(), check=False,
                )
                g, _ = mn.omega.graph.drop_isolated()
                still = (catalog.properly_unbalanced(mn.omega)
                         and catalog.vertically_2_connected(g))
                assert not still, (nb.name, op, e)


def test_u2_u3_matroids():
    u2, u3 = catalog.u2().omega, catalog.u3().omega
    u24f = uniform_matroid(2, u2.graph.edge_names)
    assert matroids_equal(frame_matroid(u2), u24f)[0]
    u24 = uniform_matroid(2, u3.graph.edge_names)
    assert matroids_equal(frame_matroid(u3), u24)[0]
    assert matroids_equal(lift_matroid(u3), u24)[0]


def test_u3_contrabalanced_theta():
    u3 = catalog.u3().omega
    links = [e for e in range(u3.graph.m) if not u3.graph.is_loop(e)]
    assert len(links) == 3
    assert not any(c in u3.balanced for c in
                   [frozenset(c.edges) for c in u3.graph.cycles()])


def test_t2_prime_splits():
    for i in (1, 2, 3):
        nb = catalog.t2_prime_split(i)
        assert is_tangled(nb.omega)[0], nb.name
        assert len(nb.omega.balanced) == 2
    prism = catalog.t2_prime_split(3).omega
    mn = biased_minor(prism, {6, 7, 8}, set())
    assert biased_isomorphic(mn.omega, catalog.biased_2c3("T_2'").omega)


def test_contracted_tubes_shape():
    shape = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])  # 2C_3 minus an edge
    for nb in catalog.contracted_tubes():
        g, _ = nb.omega.graph.drop_isolated()
        assert any(True for _ in graph_isomorphisms(g, shape)), nb.name
        assert classify_balance(nb.omega).tag == "almost-balanced"


def test_fat_theta_single_edges():
    k2 = MultiGraph(2, [(0, 1)])
    ft = catalog.fat_theta([k2, k2, k2])
    assert ft.graph.n == 2 and ft.graph.m == 3
    assert not ft.balanced  # contrabalanced theta


def test_fat_theta_balancing_vertices():
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    ft = catalog.fat_theta([p2, p2, p2])
    from bmlab.bias import balancing_vertices

    assert balancing_vertices(ft) == (0, 1)


def test_fat_theta_needs_two_parts():
    with pytest.raises(BadGlue):
        catalog.fat_theta([MultiGraph(2, [(0, 1)])])


def test_fat_theta_parts_need_two_hub_vertices():
    with pytest.raises(BadGlue, match="two distinct vertices"):
        catalog.fat_theta([MultiGraph(2, [(0, 1)]), MultiGraph(1, [(0, 0)])])


def test_by_name_unknown():
    with pytest.raises(BmlabError):
        catalog.by_name("nonsense")


def test_tangled_family_small():
    fam = catalog.tangled_family(3, 6)
    # the six proper 2C3 biases are the only tangled graphs there
    assert len(fam) == 6
    targets = [nb.omega for nb in catalog.classify_2c3_proper()]
    for om in fam:
        assert any(biased_isomorphic(om, t) for t in targets)


def test_tangled_family_caches_only_a_complete_build(monkeypatch):
    cache = catalog._tangled_family
    real = catalog.bias_sets_up_to_aut
    calls = []

    def third_call_fails(g, predicate=None):
        calls.append(g)
        if len(calls) == 3:
            raise BoundExceeded("injected")
        return real(g, predicate)

    cache.cache_clear()
    monkeypatch.setattr(catalog, "bias_sets_up_to_aut", third_call_fails)
    with pytest.raises(BoundExceeded):
        catalog.tangled_family(4, 6)
    # the graph filter runs first: no bias set is built on the 2-vertex graphs
    assert all(catalog.can_be_tangled(g) for g in calls)
    monkeypatch.setattr(catalog, "bias_sets_up_to_aut", real)
    assert cache.cache_info().currsize == 0
    assert len(catalog.tangled_family(4, 6)) == 10
    assert cache.cache_info().currsize == 1


def test_tangled_family_caches_only_the_latest_bounds():
    cache = catalog._tangled_family
    for bounds in [(3, 6), (4, 6), (3, 6)]:
        fam = catalog.tangled_family(*bounds)
    info = cache.cache_info()
    assert info.currsize == 1
    # the one entry is (3, 6): asking again is a hit that returns its list
    assert catalog.tangled_family(3, 6) is fam
    assert cache.cache_info().misses == info.misses


def test_tangled_family_cache_is_keyed_by_the_bound_values():
    cache = catalog._tangled_family
    cache.cache_clear()
    fam = catalog.tangled_family()
    assert catalog.tangled_family(5, 8) is fam
    assert catalog.tangled_family(max_vertices=5, max_edges=8) is fam
    assert cache.cache_info().misses == 1


@pytest.mark.parametrize("family, count, digest", [
    (lambda: catalog.tangled_family(4, 7), 60, "3d84198e54716f0e"),
    (lambda: catalog.tangled_family(5, 8), 536, "e4b458a38458d8eb"),
    (lambda: catalog.biased_family(4, 7, catalog.vertically_2_connected), 485,
     "54b75e8adb8b5763"),
    (lambda: catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                   catalog.properly_unbalanced), 87, "7a63fd68b1dbbb22"),
], ids=["tangled-4-7", "tangled-5-8", "v2c-4-7", "v2c-proper-4-7"])
def test_family_members_keep_their_order(family, count, digest):
    """Each member's graph (n, edges) and its sorted balanced edge sets, in
    member order, hash to the digest of the nested loops that
    biased_family replaced."""
    rows = [[om.graph.n, om.graph.edges, sorted(sorted(c) for c in om.balanced)]
            for om in family()]
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == digest


def test_named_graphs_lists_every_family_once_in_table_order():
    names = [nb.name for nb in catalog.named_graphs()]
    assert names == [
        "D_{0,0}", "D_{0,1}", "D_{0,2}", "D_{0,3}", "D_{1,0}", "D_{2,1}", "D_{4,3}",
        "T_0", "T_1", "T_2", "T_2'", "T_3", "T_4",
        "B_0", "B_1", "B_2", "B_0'", "B_1'", "B_2'",
        "U_2", "U_3", "T_{2,1}'", "T_{2,2}'", "T_{2,3}'",
    ]
    for nb in catalog.named_graphs():
        assert catalog.by_name(nb.name) is nb


def _normalized(om):
    """om without balanced loops, pendant edges, balanced components and
    isolated vertices, each removal repeated until none applies."""
    while True:
        g = om.graph
        unbalanced = set().union(*(c.edges for c in om.unbalanced_cycles()))
        drop = {e for e in range(g.m) if frozenset((e,)) in om.balanced}
        drop.update(e for v in range(g.n) if g.degree(v) == 1 for e in g.incident_edges(v))
        for comp in g.components():
            edges = {e for e in range(g.m) if g.edges[e][0] in comp}
            if not edges & unbalanced:
                drop |= edges
        if not drop:
            return drop_isolated(om)
        om = biased_minor(om, set(), drop, check=False).omega


def test_tangled_family_is_closed_under_normalized_one_step_minors():
    """Each single-edge deletion or link contraction of a member, once
    normalized, is either not tangled or isomorphic to a member."""
    family = catalog.tangled_family(4, 7)
    tangled = Counter()
    for om in family:
        for e in range(om.graph.m):
            for op, contract, delete in (("delete", set(), {e}), ("contract", {e}, set())):
                mn = _normalized(biased_minor(om, contract, delete, check=False).omega)
                if is_tangled(mn)[0]:
                    assert any(biased_isomorphic(mn, m) for m in family), (om, op, e)
                    tangled[op] += 1
    assert tangled == {"delete": 81, "contract": 35}


def test_multigraph_generation_counts():
    gs = catalog.multigraphs_up_to_iso(3, 4)
    # derived by brute force: connected min-degree-2 loopless multigraphs
    # on <= 3 vertices with <= 4 edges: 2K2, 3K2, 4K2, the triangle, the
    # triangle with one doubled edge, and the doubled 2-path
    assert len(gs) == 6
    assert sorted((g.n, g.m) for g in gs) == [
        (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 4)
    ]


def _vector_scan_oracle(max_vertices, max_edges, key_of):
    """The generator before degree-sorted pruning: every multiplicity
    vector, keyed by key_of(nv, mult), in the order of each class's first
    vector.  With `_full_scan_key` it is the generator before degree
    classes, whose key is the least relabeling over all nv! vertex
    permutations."""
    out = []
    seen = set()
    for nv in range(1, max_vertices + 1):
        pairs = list(combinations(range(nv), 2))
        if not pairs:
            continue

        def rec(idx, left, mult):
            if idx == len(pairs):
                if sum(mult) == 0:
                    return
                deg = [0] * nv
                for (u, v), m in zip(pairs, mult):
                    deg[u] += m
                    deg[v] += m
                if any(d < 2 for d in deg):
                    return
                key = key_of(nv, [(p, m) for p, m in zip(pairs, mult) if m])
                if key in seen:
                    return
                seen.add(key)
                edges = []
                for (u, v), m in key:
                    edges.extend([(u, v)] * m)
                g = MultiGraph(nv, edges)
                if not g.is_connected():
                    return
                if g.n != len(g.vertices_of(range(g.m))) and g.m:
                    return
                out.append(g)
                return
            for m in range(0, left + 1):
                mult[idx] = m
                rec(idx + 1, left - m, mult)
            mult[idx] = 0

        rec(0, max_edges, [0] * len(pairs))
    return out


def _full_scan_key(nv, mult):
    key = None
    for p in permutations(range(nv)):
        cand = tuple(sorted(((min(p[u], p[v]), max(p[u], p[v])), m) for (u, v), m in mult))
        if key is None or cand < key:
            key = cand
    return key


def _mult(g):
    """g's ((u, v), multiplicity) items, u < v, in sorted order."""
    return sorted(Counter((min(u, v), max(u, v)) for u, v in g.edges).items())


@pytest.mark.parametrize("max_vertices", [1, 2, 3, 4, 5])
def test_multigraphs_match_full_scan_oracle(max_vertices):
    for max_edges in range(8):
        got = catalog.multigraphs_up_to_iso(max_vertices, max_edges)
        want = _vector_scan_oracle(max_vertices, max_edges, _full_scan_key)
        assert len(got) == len(want)
        for g, h in zip(got, want):
            assert g.n == h.n
            assert _full_scan_key(g.n, _mult(g)) == tuple(_mult(h))


@pytest.mark.parametrize("max_vertices", [1, 2, 3, 4, 5])
def test_multigraphs_match_degree_class_oracle(max_vertices):
    for max_edges in range(9):
        got = catalog.multigraphs_up_to_iso(max_vertices, max_edges)
        want = _vector_scan_oracle(max_vertices, max_edges, multigraph_key)
        assert [(g.n, g.edges) for g in got] == [(h.n, h.edges) for h in want]


def test_multigraphs_at_5_9():
    got = catalog.multigraphs_up_to_iso(5, 9)
    assert len(got) == 528
    assert [(g.n, g.edges) for g in got] == [
        (h.n, h.edges) for h in _vector_scan_oracle(5, 9, multigraph_key)]


def test_multigraph_generation_keys_degree_sorted_vectors_only(monkeypatch):
    # every keyed class builds its graph, disconnected or not, on its key's
    # labels: one of the class's degree-sorted vectors
    real = catalog.MultiGraph
    built = []

    def leaf(n, edges):
        built.append((n, tuple(edges)))
        return real(n, edges)

    monkeypatch.setattr(catalog, "MultiGraph", leaf)
    catalog._latest_multigraphs.cache_clear()
    assert len(catalog.multigraphs_up_to_iso(5, 8)) == 235
    for n, edges in built:
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert deg == sorted(deg, reverse=True) and deg[-1] >= 2
    # one build per class: the 235 connected ones and 30 disconnected ones
    assert len(built) == 265
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("max_vertices, max_edges, count", [
    (3, 4, 6), (4, 6, 33), (5, 8, 235), (5, 9, 528), (6, 8, 311)])
def test_multigraph_classes_match_the_burnside_count(max_vertices, max_edges, count):
    assert multigraph_classes_by_burnside(max_vertices, max_edges) == count
    assert len(catalog.multigraphs_up_to_iso(max_vertices, max_edges)) == count


@pytest.mark.parametrize("max_vertices, max_edges, graph_ok, predicate, count", [
    (4, 7, catalog.vertically_2_connected, catalog.properly_unbalanced, 87),
    (5, 8, catalog.can_be_tangled, catalog.tangled, 536),
], ids=["v2c-proper-4-7", "tangled-5-8"])
def test_bias_set_orbits_match_the_burnside_count(max_vertices, max_edges, graph_ok,
                                                  predicate, count):
    assert bias_set_orbits_by_burnside(max_vertices, max_edges, graph_ok, predicate) == count
    family = catalog.biased_family(max_vertices, max_edges, graph_ok, predicate)
    assert sum(1 for _ in family) == count


@pytest.mark.parametrize("max_vertices, max_edges, digest", [
    (5, 8, "c19cf1da1280f162"), (6, 8, "09e61099da41e846")])
def test_multigraphs_keep_their_labels_and_order(max_vertices, max_edges, digest):
    """The graphs (n, edges), in order, hash to the digest of the generator
    that keyed every degree-sorted vector."""
    rows = [[g.n, g.edges] for g in catalog.multigraphs_up_to_iso(max_vertices, max_edges)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == digest


def _rows(graphs):
    return [(g.n, g.edges) for g in graphs]


def test_shared_multigraph_build_serves_every_bound_it_covers(monkeypatch):
    fresh = {(nv, ne): _rows(catalog._build_multigraphs(nv, ne))
             for nv in range(1, 6) for ne in range(9)}
    catalog._latest_multigraphs.cache_clear()
    shared = catalog.multigraphs_up_to_iso(5, 8)
    assert _rows(shared) == fresh[5, 8]

    def no_build(max_vertices, max_edges):
        raise AssertionError("built again")

    with monkeypatch.context() as m:
        m.setattr(catalog, "_build_multigraphs", no_build)
        for bounds, want in fresh.items():
            got = catalog.multigraphs_up_to_iso(*bounds)
            assert _rows(got) == want, bounds
            assert all(any(g is h for h in shared) for g in got)
            # a fresh list: changing it leaves the shared build alone
            got.clear()
        assert _rows(catalog.multigraphs_up_to_iso(5, 8)) == fresh[5, 8]
    # bounds beyond the latest build are built, and replace it
    wider = catalog.multigraphs_up_to_iso(6, 9)
    assert list(catalog._latest_multigraphs()) == [(6, 9)]
    for bounds in [(6, 8), (5, 9), (4, 7)]:
        assert _rows(catalog.multigraphs_up_to_iso(*bounds)) == _rows(
            catalog._build_multigraphs(*bounds))
    assert len(wider) == 880


def test_failed_multigraph_build_keeps_the_latest_build(monkeypatch):
    catalog._latest_multigraphs.cache_clear()
    catalog.multigraphs_up_to_iso(4, 6)
    real = catalog.MultiGraph
    calls = []

    def third_leaf_fails(n, edges):
        calls.append(n)
        if len(calls) == 3:
            raise BoundExceeded("injected")
        return real(n, edges)

    monkeypatch.setattr(catalog, "MultiGraph", third_leaf_fails)
    with pytest.raises(BoundExceeded):
        catalog.multigraphs_up_to_iso(4, 7)
    assert len(calls) == 3
    assert list(catalog._latest_multigraphs()) == [(4, 6)]
    monkeypatch.setattr(catalog, "MultiGraph", real)
    assert len(catalog.multigraphs_up_to_iso(4, 7)) == 63
    assert list(catalog._latest_multigraphs()) == [(4, 7)]


def test_multigraph_key_is_a_relabeling_invariant():
    # the oracle's key is the same under relabelings, and each generated
    # graph carries its own key as its labels
    rng = random.Random(11)
    keys = set()
    graphs = catalog.multigraphs_up_to_iso(5, 7)
    for g in graphs:
        key = multigraph_key(g.n, _mult(g))
        assert tuple(_mult(g)) == key
        for _ in range(5):
            perm = rng.sample(range(g.n), g.n)
            edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
                     for u, v in g.edges]
            rng.shuffle(edges)
            assert multigraph_key(g.n, _mult(MultiGraph(g.n, edges))) == key
        keys.add(key)
    assert len(keys) == len(graphs) == 98
    graphs = catalog.multigraphs_up_to_iso(6, 8)
    assert len(graphs) == 311
    assert all(tuple(_mult(g)) == multigraph_key(g.n, _mult(g)) for g in graphs)


def _theta_closed_subsets_oracle(g, candidate_cycles=None):
    """Brute force: every subset of the pool (default: every cycle) as a
    cycle-index mask, by size then index tuple in pool order, kept when no
    theta has exactly two of its cycles in it."""
    index = {c.edges: i for i, c in enumerate(g.cycles())}
    if candidate_cycles is None:
        pool = [1 << i for i in index.values()]
    else:
        pool = [1 << index[frozenset(c)] for c in candidate_cycles]
    thetas = [sum(1 << index[c] for c in inside) for _, inside in theta_subgraphs(g)]
    out = []
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            mask = sum(combo)
            if all((mask & t).bit_count() != 2 for t in thetas):
                out.append(mask)
    return out


def test_theta_closed_subsets_matches_oracle_on_small_graphs():
    graphs = catalog.multigraphs_up_to_iso(4, 7)
    assert len(graphs) == 63
    for g in graphs:
        assert catalog.theta_closed_subsets(g) == _theta_closed_subsets_oracle(g)


@pytest.mark.parametrize("g", [
    catalog.graph_k4(), catalog.graph_2c3(), catalog.graph_tube(),
], ids=["k4", "2c3", "tube"])
def test_theta_closed_subsets_matches_oracle_on_catalog_pools(g):
    assert catalog.theta_closed_subsets(g) == _theta_closed_subsets_oracle(g)


def test_theta_closed_subsets_matches_the_per_node_theta_test():
    """The per-level choice tables give the masks of the backtrack that
    tests every theta at every node, in order, on the (4, 7) graphs and the
    catalog graphs, each also with a balanced loop and a joint added (a
    loop lies in no theta, so each loop doubles the sets)."""
    graphs = sweep_graphs()
    assert len(graphs) == 72
    sizes = Counter()
    for g in graphs:
        for h in (g, with_loops(BiasedGraph(g, [])).graph):
            got = catalog.theta_closed_subsets(h)
            assert got == theta_closed_subsets_by_theta_test(h), h.edges
            sizes[h is g] += len(got)
    assert sizes == {True: 4086, False: 16344}


def _iso_classes(g, bias_sets):
    """The pairwise classifier that bias_sets_up_to_aut replaced: one
    representative per biased-isomorphism class, first in input order."""
    reps = []
    for bal in bias_sets:
        om = BiasedGraph(g, bal, check=False)
        if not any(biased_isomorphic(om, r) for r in reps):
            reps.append(om)
    return reps


@pytest.mark.parametrize("classify,g,length", [
    (catalog.classify_k4, catalog.graph_k4(), None),
    (catalog.classify_2c3_proper, catalog.graph_2c3(), 3),
    (catalog.classify_tube_proper, catalog.graph_tube(), 4),
], ids=["k4", "2c3", "tube"])
def test_classifiers_return_the_pairwise_iso_classes_in_order(classify, g, length):
    """The classifiers once ran _iso_classes over the theta-closed subsets
    of all cycles (K_4), of the triangles (2C_3) or of the quadrilaterals
    (the tube); they now take the orbits of bias_sets_up_to_aut, with no
    balanced 2-cycle for 2C_3 and the tube."""
    pool = None if length is None else [c.edges for c in g.cycles() if len(c) == length]
    sets = [mask_edge_sets(g, m) for m in _theta_closed_subsets_oracle(g, pool)]
    want = [om.balanced for om in _iso_classes(g, sets)]
    predicate = None if length is None else catalog._no_balanced_2_cycle
    got = [om.balanced for om in catalog.bias_sets_up_to_aut(g, predicate)]
    assert got == want
    assert {nb.omega.balanced for nb in classify()} == set(want)


def graph_automorphism_maps(g):
    """All (vertex permutation, edge map) automorphisms of a multigraph."""
    out = []
    for perm in graph_isomorphisms(g, g):
        for emap in edge_bijections(g, g, perm):
            out.append((perm, emap))
    return out


def _bias_sets_up_to_aut_oracle(g):
    """The orbit loop before generators: each orbit is the set of images of
    its first theta-closed set under every automorphism."""
    auts = graph_automorphism_maps(g)
    reps = []
    seen = set()
    for bal in theta_closed_edge_sets(g):
        if bal in seen:
            continue
        seen |= {frozenset(frozenset(emap[e] for e in c) for c in bal) for _, emap in auts}
        reps.append(bal)
    return reps


# parallel links, and parallel loops at both ends of a parallel class
_PARALLEL_GRAPHS = [MultiGraph(2, [(0, 1)] * k) for k in range(1, 7)] + [
    MultiGraph(3, [(0, 0), (0, 0), (0, 1), (0, 1), (1, 2), (1, 2), (2, 2), (2, 2)]),
]


def test_bias_sets_up_to_aut_matches_every_automorphism_oracle():
    family_graphs = [g for g in catalog.multigraphs_up_to_iso(5, 8) if catalog.can_be_tangled(g)]
    assert len(family_graphs) == 122
    graphs = catalog.multigraphs_up_to_iso(4, 7) + _PARALLEL_GRAPHS + family_graphs
    for g in graphs:
        got = catalog.bias_sets_up_to_aut(g)
        assert all(om.graph is g for om in got)
        assert [om.balanced for om in got] == _bias_sets_up_to_aut_oracle(g)


def test_bias_sets_up_to_aut_keeps_orbits_that_no_predicate_filtered():
    # the orbits kept on a graph are those before any predicate: on one
    # graph object, a call with one predicate and then one with another
    # each give what a fresh copy of the graph gives, in order
    predicates = [None, catalog.tangled, catalog.properly_unbalanced]
    sizes = Counter()
    for g in catalog.multigraphs_up_to_iso(4, 7):
        want = {p: [om.balanced for om in catalog.bias_sets_up_to_aut(MultiGraph(g.n, g.edges), p)]
                for p in predicates}
        for pair in permutations(predicates, 2):
            shared = MultiGraph(g.n, g.edges)
            for p in pair:
                assert [om.balanced for om in catalog.bias_sets_up_to_aut(shared, p)] == want[p]
        sizes.update({p: len(want[p]) for p in predicates})
    assert [sizes[p] for p in predicates] == [724, 60, 122]


def _closure(gens, m):
    """Every edge map that a composition of the generators gives."""
    group = {tuple(range(m))}
    todo = list(group)
    while todo:
        a = todo.pop()
        for t in gens:
            b = tuple(t[a[e]] for e in range(m))
            if b not in group:
                group.add(b)
                todo.append(b)
    return group


@pytest.mark.parametrize("g", [
    catalog.graph_k4(), catalog.graph_2c3(), catalog.graph_tube(), catalog.graph_u2(),
    catalog.graph_prism(), *_PARALLEL_GRAPHS[-3:],
], ids=["k4", "2c3", "tube", "u2", "prism", "5K2", "6K2", "loops"])
def test_automorphism_generators_generate_every_automorphism(g):
    auts = graph_automorphism_maps(g)
    group = _closure(catalog.automorphism_generators(g), g.m)
    assert group == {tuple(emap[e] for e in range(g.m)) for _, emap in auts}
    # the automorphisms that fix every edge (the swap of kK2's two ends)
    kernel = sum(1 for _, emap in auts if all(emap[e] == e for e in range(g.m)))
    assert len(group) * kernel == len(auts)
    assert kernel == (2 if g.n == 2 and not any(map(g.is_loop, range(g.m))) else 1)


def test_automorphism_generators_match_the_edge_bijection_oracle():
    # the sweep graphs, the parallel classes with loops and the graphs that
    # tangled_family(5, 8) draws from, each also under a seeded relabelling
    rng = random.Random(40)
    family_graphs = [g for g in catalog.multigraphs_up_to_iso(5, 8) if catalog.can_be_tangled(g)]
    total = Counter()
    for g in sweep_graphs() + _PARALLEL_GRAPHS + family_graphs:
        copy = relabel(BiasedGraph(g, []), rng.sample(range(g.n), g.n),
                       rng.sample(range(g.m), g.m)).graph
        for h in (g, copy):
            got = catalog.automorphism_generators(h)
            assert got == automorphism_generators_by_edge_bijections(h), h.edges
            total[h is g] += len(got)
    assert total == {True: 837, False: 837}


def test_images_permute_the_bits_of_masks_of_any_width():
    # _images against the bit-by-bit definition, on seeded masks that fill
    # part of a byte, one 64-bit word, or three
    rng = random.Random(55)
    for bits in (0, 5, 8, 63, 64, 65, 150):
        perm = rng.sample(range(bits), bits)
        masks = [rng.getrandbits(bits) for _ in range(20)] + [0, (1 << bits) - 1]
        want = [sum(1 << perm[i] for i in range(bits) if m >> i & 1) for m in masks]
        got = catalog._images(perm, catalog._byte_columns(masks, bits))
        assert list(got) == want, bits


def test_orbits_match_the_closure_on_every_5_8_graph():
    # every graph of multigraphs_up_to_iso(5, 8) and a seeded relabelling
    # of each: the orbits are those closed one at a time by the generators'
    # byte tables, with the same first masks in the same order
    rng = random.Random(55)
    graphs = catalog.multigraphs_up_to_iso(5, 8)
    orbits = 0
    for g in graphs:
        copy = relabel(BiasedGraph(g, []), rng.sample(range(g.n), g.n),
                       rng.sample(range(g.m), g.m)).graph
        for h in (g, copy):
            got = catalog._orbit_masks(h)
            assert got == orbit_masks_by_closure(h), h.edges
            orbits += len(got)
    assert (len(graphs), orbits) == (235, 8850)


def test_orbits_take_one_edge_bijection_per_vertex_automorphism():
    # the two vertex automorphisms of 8 parallel links each map the class
    # onto itself in order, which is the identity, so the generators are
    # the 7 neighbouring transpositions, as the edge-bijection search gives
    g = MultiGraph(2, [(0, 1)] * 8)
    gens = catalog.automorphism_generators(g)
    assert gens == automorphism_generators_by_edge_bijections(g)
    assert len(gens) == 7 and all(sum(t[e] != e for e in range(8)) == 2 for t in gens)
    # theta-closed sets on k parallel links are the set partitions of the
    # links, so the orbits are the 22 integer partitions of 8
    assert len(catalog.bias_sets_up_to_aut(g)) == 22
