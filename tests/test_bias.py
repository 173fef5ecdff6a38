import random
from collections import Counter
from functools import partial
from itertools import combinations, product

import pytest

from bmlab import bias, catalog, verify
from bmlab import graph as graph_module
from bmlab.bias import (
    BiasedGraph,
    BiasedMinor,
    balancing_vertices,
    biased_equal_unoriented,
    biased_isomorphic,
    biased_isomorphisms,
    biased_minor,
    check_theta_property,
    classify_balance,
    delta_y,
    double_roll_up,
    fat_theta_parts,
    find_biased_subdivision,
    find_link_minor,
    is_tangled,
    link_minors,
    roll_up,
    theta_subgraphs,
    unbalancing_classes,
    unroll,
    y_delta,
)
from bmlab.errors import (
    BmlabError,
    BoundExceeded,
    NotACycle,
    NotBalancedTriangle,
    ThetaViolation,
)
from bmlab.gains import CyclicGroup, GainGraph, induced_bias
from bmlab.graph import MultiGraph, graph_isomorphisms, iter_subdivisions
from bmlab.matroid import extend_with_joint, frame_matroid, matroids_equal
import oracles
from oracles import classify_balance_by_minor, edge_components


def k4():
    return catalog.graph_k4()


def triangles(g):
    return [frozenset(c.edges) for c in g.cycles() if len(c) == 3]


def is_balanced_set(omega, edge_ids):
    """A set is balanced when every cycle inside it is balanced."""
    edge_ids = frozenset(edge_ids)
    return all(
        frozenset(c.edges) in omega.balanced
        for c in omega.cycles()
        if frozenset(c.edges) <= edge_ids
    )


def test_k4_has_six_thetas():
    # brute force: the complement of each edge is a theta
    assert len(theta_subgraphs(k4())) == 6


def _theta_subgraphs_oracle(g):
    """The listing that scanned every cycle for each candidate union and
    tested it for connectivity (the oracle for the degree test)."""
    masks = [frozenset(c.edges) for c in g.cycles()]
    seen = set()
    out = []
    for i, j in combinations(range(len(masks)), 2):
        union = masks[i] | masks[j]
        if union in seen or len(union) == len(masks[i]) + len(masks[j]):
            continue
        degs = sorted(Counter(v for e in union for v in g.endpoints(e)).values())
        if (any(g.is_loop(e) for e in union) or degs.count(3) != 2
                or any(d not in (2, 3) for d in degs)
                or len(edge_components(g, union)) != 1):
            continue
        inside = tuple(m for m in masks if m <= union)
        if len(inside) != 3:
            continue
        seen.add(union)
        out.append((union, inside))
    return out


def test_theta_subgraphs_match_the_cycle_scan_oracle():
    graphs = [g for bound in ((5, 8), (5, 9), (4, 7))
              for g in catalog.multigraphs_up_to_iso(*bound)]
    graphs += [nb.omega.graph for nb in catalog.base_graphs()]
    thetas = 0
    for g in graphs:
        got = theta_subgraphs(g)
        assert got == _theta_subgraphs_oracle(g), g.edges
        thetas += len(got)
    assert (len(graphs), thetas) == (839, 9904)


def test_theta_property_empty_ok():
    assert check_theta_property(k4(), []) is None


def test_theta_property_two_triangles_violates():
    tris = triangles(k4())
    violation = check_theta_property(k4(), tris[:2])
    assert violation is not None
    theta, cycles = violation
    assert len(cycles) == 3
    assert sum(1 for c in cycles if c in set(tris[:2])) == 2


def test_theta_property_d21_ok():
    d21 = catalog.dwarf("D_{2,1}")
    assert check_theta_property(d21.omega.graph, d21.omega.balanced) is None


def test_constructor_rejects_violations():
    tris = triangles(k4())
    with pytest.raises(ThetaViolation):
        BiasedGraph(k4(), tris[:2])


def _check_theta_property_oracle(g, balanced):
    """The listing check that the balanced-pair walk replaced: the first
    theta of theta_subgraphs with exactly two balanced cycles."""
    balanced = frozenset(frozenset(c) for c in balanced)
    cycle_sets = {frozenset(c.edges) for c in g.cycles()}
    for c in balanced:
        if c not in cycle_sets:
            raise NotACycle("balanced set member %s is not a cycle" % (sorted(c),))
    for union, inside in theta_subgraphs(g):
        if sum(1 for c in inside if c in balanced) == 2:
            return union, inside
    return None


def test_balanced_member_must_be_cycle():
    for check in (check_theta_property, _check_theta_property_oracle):
        with pytest.raises(NotACycle, match=r"\[0, 1\] is not a cycle"):
            check(k4(), triangles(k4())[:1] + [frozenset({0, 1})])


def _theta_check_agrees(g, balanced):
    got = check_theta_property(g, balanced)
    assert got == _check_theta_property_oracle(g, balanced)
    return got is not None


@pytest.mark.parametrize("bound, max_cycles, inputs, violations", [
    ((4, 6), 8, 978, 680),
    ((4, 7), 10, 13810, 12550),
])
def test_theta_check_matches_listing_oracle_on_every_cycle_subset(
        bound, max_cycles, inputs, violations):
    seen = []
    for g in catalog.multigraphs_up_to_iso(*bound):
        cycles = [frozenset(c.edges) for c in g.cycles()]
        if len(cycles) <= max_cycles:
            seen += [_theta_check_agrees(g, bal)
                     for r in range(len(cycles) + 1)
                     for bal in combinations(cycles, r)]
    assert (len(seen), sum(seen)) == (inputs, violations)


def test_theta_check_matches_listing_oracle_on_seeded_subsets():
    # larger graphs: seeded random subsets, and induced biases (theta-closed)
    # with one cycle added or removed, which often breaks a single theta
    rng = random.Random(15)
    graphs = [g for g in catalog.multigraphs_up_to_iso(5, 8) if len(g.cycles()) > 10]
    omegas = [induced_bias(GainGraph(g, CyclicGroup(3), {e: rng.randrange(3) for e in range(g.m)}))
              for g in rng.sample(graphs, 40)]
    omegas += [om for om in _random_gain_graphs(15, 60) if om.cycles()]  # loops included
    kinds = Counter()
    for om in omegas:
        g = om.graph
        cycles = [frozenset(c.edges) for c in g.cycles()]
        kinds["closed", _theta_check_agrees(g, om.balanced)] += 1
        for _ in range(5):
            bal = [c for c in cycles if rng.random() < 0.5]
            kinds["random", _theta_check_agrees(g, bal)] += 1
            flipped = om.balanced ^ {rng.choice(cycles)}
            kinds["flipped", _theta_check_agrees(g, flipped)] += 1
    assert kinds["closed", True] == 0
    assert min(kinds[k, v] for k in ("random", "flipped") for v in (False, True)) > 0


def test_theta_check_matches_listing_oracle_on_the_catalog():
    for nb in catalog.named_graphs():
        assert not _theta_check_agrees(nb.omega.graph, nb.omega.balanced), nb.name


def test_classify_d10_unique_balancing_vertex():
    d10 = catalog.dwarf("D_{1,0}").omega
    cls = classify_balance(d10)
    assert cls.tag == "almost-balanced"
    assert len(cls.balancing_vertices) == 1
    # the balancing vertex is the one off the balanced triangle
    (tri,) = d10.balanced
    off = set(range(4)) - d10.graph.vertices_of(tri)
    assert set(cls.balancing_vertices) == off


def test_classify_d00_properly_unbalanced():
    assert classify_balance(catalog.dwarf("D_{0,0}").omega).tag == "properly-unbalanced"


def test_classify_balanced_triangle():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    om = BiasedGraph(g, [frozenset({0, 1, 2})])
    assert classify_balance(om).tag == "balanced"


def test_joints_force_almost_balanced():
    g = MultiGraph(2, [(0, 1), (0, 0)])
    om = BiasedGraph(g, [])
    assert classify_balance(om).tag == "almost-balanced"


def test_classify_balance_matches_loop_deleted_minor_on_small_bias_sets():
    tags = Counter()
    for om in catalog.biased_family(4, 6):
        assert classify_balance(om) == classify_balance_by_minor(om), om
        tags[classify_balance(om).tag] += 1
    assert tags == {"balanced": 33, "almost-balanced": 164, "properly-unbalanced": 20}


def test_classify_balance_matches_loop_deleted_minor_with_loops():
    # the contracted tubes and D_{1,0} are loopless, so their roll-ups and
    # their joint extensions carry the loops, with the base graphs'
    # joint extensions and random theta-closed sets on random multigraphs
    almost = list(catalog.contracted_tubes()) + [catalog.dwarf("D_{1,0}")]
    cases = [roll_up(nb.omega, u, cls)
             for nb in almost
             for u in balancing_vertices(nb.omega)
             for cls in unbalancing_classes(nb.omega, u).classes
             if not any(nb.omega.graph.is_loop(e) for e in cls)]
    cases += [extend_with_joint(nb.omega, vertex=v, name="e0")
              for nb in almost + list(catalog.base_graphs())
              for v in range(nb.omega.graph.n)]
    rng = random.Random(0)
    for _ in range(300):
        g = verify._random_multigraph(rng, 5, 8, allow_loops=True)
        cases.append(BiasedGraph(g, rng.choice(oracles.theta_closed_edge_sets(g))))
    tags = Counter()
    for om in cases:
        assert classify_balance(om) == classify_balance_by_minor(om), om
        g = om.graph
        if any(g.is_loop(e) for e in range(g.m)):
            tags[classify_balance(om).tag] += 1
    assert tags == {"balanced": 37, "almost-balanced": 194, "properly-unbalanced": 48}


def test_tangled_d00():
    flag, witness = is_tangled(catalog.dwarf("D_{0,0}").omega)
    assert flag and witness is None


def test_tangled_b0_false_with_witness():
    b0 = catalog.tube("B_0").omega
    flag, witness = is_tangled(b0)
    assert not flag
    c1, c2 = witness
    assert len(c1) == 2 and len(c2) == 2
    assert not (b0.graph.vertices_of(c1) & b0.graph.vertices_of(c2))


def test_tangled_balanced_graph_false():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    om = BiasedGraph(g, [frozenset({0, 1, 2})])
    assert is_tangled(om) == (False, None)


def test_balance_and_tangledness_match_the_span_oracles():
    """classify_balance, balancing_vertices and is_tangled, which read the
    graph's cycle masks, against the routines that rebuild every
    unbalanced cycle's vertex set: every theta-closed set of the (4, 7)
    graphs and the catalog graphs, each also with a balanced loop and a
    joint added (the balancing-vertex test of classify_balance skips
    loops, balancing_vertices does not)."""
    seen = Counter()
    for g in oracles.sweep_graphs():
        for bal in oracles.theta_closed_edge_sets(g):
            om = BiasedGraph(g, bal, check=False)
            for x in (om, oracles.with_loops(om)):
                want = classify_balance_by_minor(x)
                assert classify_balance(x) == want, x
                assert balancing_vertices(x) == oracles.balancing_vertices_by_spans(x), x
                flag, witness = is_tangled(x)
                assert (flag, witness) == oracles.is_tangled_by_spans(x), x
                seen[x is om, want.tag, flag, witness is not None] += 1
    # (without loops, tag, tangled, has a disjoint unbalanced pair): count
    assert seen == {
        (True, "balanced", False, False): 72,
        (True, "almost-balanced", False, False): 3179,
        (True, "almost-balanced", False, True): 2,
        (True, "properly-unbalanced", False, True): 291,
        (True, "properly-unbalanced", True, False): 542,
        (False, "almost-balanced", False, False): 1403,
        (False, "almost-balanced", False, True): 1850,
        (False, "properly-unbalanced", False, True): 833,
    }


def _remapped_balanced(om):
    """The balanced set carried over by edge names onto the graph without
    isolated vertices (the remap oracles.drop_isolated replaces)."""
    g, _ = om.graph.drop_isolated()
    emap = {om.graph.edge_index(nm): g.edge_index(nm) for nm in g.edge_names}
    return {frozenset(emap[e] for e in c) for c in om.balanced}


def test_drop_isolated_keeps_edge_ids():
    graphs = [nb.omega for nb in catalog.named_graphs()]
    graphs.append(BiasedGraph(MultiGraph(5, [(4, 2), (2, 4), (2, 0)]), [{0, 1}]))
    assert any(om.graph.n > len(om.graph.vertices_of(range(om.graph.m))) for om in graphs)
    for om in graphs:
        dropped = oracles.drop_isolated(om)
        assert dropped.graph == om.graph.drop_isolated()[0]
        assert dropped.balanced == _remapped_balanced(om)


# -- minors ---------------------------------------------------------------

def test_contract_balanced_triangle_edge():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    om = BiasedGraph(g, [frozenset({0, 1, 2})])
    mn = biased_minor(om, {0}, set())
    assert mn.is_link_minor
    assert mn.omega.balanced == {frozenset({0, 1})}  # balanced 2-cycle


def test_link_forest_recipes_need_no_guards():
    # find_link_minor and verify._localization_certificate contract a link
    # forest K and delete some D of the rest: K holds no cycle, so it is
    # balanced, and contracting it never contracts a joint
    recipes = 0
    for om in catalog.biased_family(4, 5):
        for K in om.graph.link_forests():
            rest = [e for e in range(om.graph.m) if e not in K]
            for keep in range(len(rest) + 1):
                for kept in combinations(rest, keep):
                    D = frozenset(rest) - frozenset(kept)
                    assert is_balanced_set(om, K)
                    assert biased_minor(om, K, D, check=False).is_link_minor
                    recipes += 1
    assert recipes == 8296


# The one-link-at-a-time biased minor that biased_minor replaced, kept as
# the reference: every contraction step re-enumerates the cycles of the new
# graph and decides each one from its preimage.

def _ref_contract_link(omega, e):
    g, vmap, emap = omega.graph.minor({e}, set())
    new_cycles = {frozenset(c.edges) for c in g.cycles()}
    old_of_new = {ne: oe for oe, ne in emap.items()}
    balanced = set()
    for c in new_cycles:
        old = frozenset(old_of_new[x] for x in c)
        if old in omega.balanced or (old | {e}) in omega.balanced:
            balanced.add(c)
    return BiasedGraph(g, balanced, check=False), vmap, emap


def _ref_contract_joint(omega, e):
    g0 = omega.graph
    (v,) = set(g0.endpoints(e))
    new_edges = []
    new_names = []
    emap = {}
    jointified = []
    for f, (a, b) in enumerate(g0.edges):
        if f == e:
            continue
        if a == v and b == v:
            na, nb = v, v
        elif a == v or b == v:
            w = b if a == v else a
            na, nb = w, w
            jointified.append(f)
        else:
            na, nb = a, b
        emap[f] = len(new_edges)
        new_edges.append((na, nb))
        new_names.append(g0.edge_names[f])
    g = MultiGraph(g0.n, new_edges, new_names, g0.vertex_names)
    balanced = set()
    for c in g.cycles():
        ce = frozenset(c.edges)
        old = frozenset(o for o, nn in emap.items() if nn in ce)
        if len(ce) == 1:
            (old_x,) = old
            if old_x in jointified:
                continue  # new joints stay unbalanced
            a, b = g0.endpoints(old_x)
            if a == v and b == v:
                balanced.add(ce)  # loops at v become balanced
            elif old in omega.balanced:
                balanced.add(ce)
        elif old in omega.balanced:
            balanced.add(ce)
    vmap = {u: u for u in range(g0.n)}
    return BiasedGraph(g, balanced, check=False), vmap, emap


def _reference_biased_minor(omega, contract, delete):
    contract = set(contract)
    delete = set(delete)
    gg, vmap, emap = omega.graph.minor(set(), delete)
    balanced = {
        frozenset(emap[x] for x in c)
        for c in omega.balanced
        if all(x in emap for x in c)
    }
    current = BiasedGraph(gg, balanced, check=False)
    total_vmap = vmap
    total_emap = dict(emap)
    pending = {total_emap[e] for e in contract}
    link_minor = True
    while pending:
        links = sorted(e for e in pending if not current.graph.is_loop(e))
        if links:
            e = links[0]
            nxt, vm, em = _ref_contract_link(current, e)
        else:
            bal_loops = sorted(
                e for e in pending if frozenset((e,)) in current.balanced
            )
            if bal_loops:
                e = bal_loops[0]
                gg, vm, em = current.graph.minor(set(), {e})
                bal = {
                    frozenset(em[x] for x in c)
                    for c in current.balanced
                    if all(x in em for x in c)
                }
                nxt = BiasedGraph(gg, bal, check=False)
            else:
                e = sorted(pending)[0]
                nxt, vm, em = _ref_contract_joint(current, e)
                link_minor = False
        pending = {em[x] for x in pending if x != e and x in em}
        total_vmap = {v: vm[total_vmap[v]] for v in total_vmap}
        total_emap = {x: em[y] for x, y in total_emap.items() if y in em}
        current = nxt
    return BiasedMinor(current, total_vmap, total_emap, link_minor)


def _minor_key(mn):
    g = mn.omega.graph
    return (g.n, g.edges, g.edge_names, g.vertex_names, mn.omega.balanced,
            mn.vertex_map, mn.edge_map, mn.is_link_minor)


def _random_gain_graphs(seed, count):
    """Induced biases of seeded random Z_3-gain graphs, loops included."""
    rng = random.Random(seed)
    group = CyclicGroup(3)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 3), rng.randint(2, 6)
        g = MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        out.append(induced_bias(GainGraph(g, group, {e: rng.randrange(3) for e in range(m)})))
    return out


def test_biased_minor_matches_one_link_at_a_time():
    # every contract / delete / keep labelling of the edges
    graphs = [
        BiasedGraph(g, bal, check=False)
        for g in catalog.multigraphs_up_to_iso(4, 4)
        for bal in oracles.theta_closed_edge_sets(g)
    ]
    graphs += [nb.omega for nb in (catalog.u2(), catalog.u3())]  # the ones with joints
    graphs += _random_gain_graphs(1, 40)
    assert any(om.joints() for om in graphs[-40:])
    pairs = joints = 0
    for om in graphs:
        for labels in product((None, "contract", "delete"), repeat=om.graph.m):
            K = {e for e, x in enumerate(labels) if x == "contract"}
            D = {e for e, x in enumerate(labels) if x == "delete"}
            want = _reference_biased_minor(om, K, D)
            assert _minor_key(biased_minor(om, K, D, check=False)) == _minor_key(want)
            pairs += 1
            joints += not want.is_link_minor
    assert pairs > 10000 and joints > 3000


def _parent_pairs(omega, m, minor=_reference_biased_minor):
    """(K, D, minor without isolated vertices) for every (K, D) pair that
    keeps m edges, in search order, each minor built by `minor` (the
    reference routine by default)."""
    g = omega.graph
    for K in sorted(g.link_forests(), key=lambda f: (len(f), sorted(f))):
        remaining = [e for e in range(g.m) if e not in K]
        for keep in combinations(remaining, m):
            D = frozenset(remaining) - frozenset(keep)
            yield K, D, oracles.drop_isolated(minor(omega, K, D).omega)


def _parent_link_minors(omega, pattern, pairs=None):
    """The search before link_minors took a pattern: every (K, D) pair of
    `pairs` (by default _parent_pairs for the pattern's edge count), kept
    when its minor has the pattern's vertex count and a biased isomorphism
    to it; yields (K, D, first iso) in search order."""
    pat = oracles.drop_isolated(pattern)
    for K, D, minor in _parent_pairs(omega, pat.graph.m) if pairs is None else pairs:
        if minor.graph.n != pat.graph.n:
            continue
        for iso in biased_isomorphisms(minor, pat):
            yield K, D, iso
            break


def _parent_find_link_minor(omega, pattern):
    return next(_parent_link_minors(omega, pattern), None)


def _link_minor_patterns():
    """The tangled targets, U_3 and the unbalanced 2-cycle: the patterns
    that find_link_minor and verify._localization_certificate search."""
    two_cycle = BiasedGraph(MultiGraph(2, [(0, 1), (0, 1)]), [])
    targets = [nb.omega for nb in verify.FAMILIES["tangled-targets"]()]
    return targets + [catalog.u3().omega, two_cycle]


def test_link_minors_recipe_for_recipe():
    # each tangled target is a member with 6 edges; the 3-vertex members
    # with 7 edges add contractions and deletions
    hosts = [catalog.tube("B_0").omega]
    hosts += catalog.tangled_family(4, 6) + catalog.tangled_family(3, 7)
    patterns = _link_minor_patterns()
    found = [0] * len(patterns)
    for om in hosts:
        for k, pat in enumerate(patterns):
            got = [(r.contract, r.delete, r.iso) for r in link_minors(om, pat)]
            assert got == list(_parent_link_minors(om, pat))
            found[k] += len(got)
    assert all(found)


def _memo_patterns():
    """Every tangled target, base graph, U_3 and the unbalanced 2-cycle:
    25 patterns on 5 graphs (K4, 2C3, the B graph, U_3's, the 2-cycle)."""
    patterns = _link_minor_patterns()
    return patterns[:-2] + [nb.omega for nb in catalog.base_graphs()] + patterns[-2:]


def _memo_host():
    """K4 with its edges 01 and 23 doubled: every pattern graph of
    _memo_patterns is a link minor of it."""
    return MultiGraph(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 3)])


def _brute_force_memo(host, h):
    """The graph stage's entry for the pattern graph h, pair by pair:
    (K, D, minor, isos, emap) for every (K, D) in search order whose minor
    without isolated vertices has a graph isomorphism onto h, emap
    numbering the kept edges (those outside K and D) in id order."""
    out = []
    for K in sorted(host.link_forests(), key=lambda f: (len(f), sorted(f))):
        rest = [e for e in range(host.m) if e not in K]
        for keep in combinations(rest, h.m):
            D = frozenset(rest) - frozenset(keep)
            minor = host.minor(K, D)[0].drop_isolated()[0]
            isos = tuple(graph_isomorphisms(minor, h))
            if isos:
                out.append((K, D, minor, isos, {e: i for i, e in enumerate(keep)}))
    return out


def test_link_minor_memo_matches_the_parent_search():
    # one bias set in four of the host's classes, each on one shared host
    # per order; in reversed order the base graphs and the 2-cycle fill the
    # memo, forward the tangled targets do, each with another bias.  The
    # parent search builds its minors by biased_minor, which
    # test_biased_minor_matches_one_link_at_a_time checks.
    patterns = _memo_patterns()
    sets = [om.balanced for om in catalog.bias_sets_up_to_aut(_memo_host())[::4]]
    want = {}
    for i, bal in enumerate(sets):
        om = BiasedGraph(_memo_host(), bal, check=False)
        pairs = {m: list(_parent_pairs(om, m, partial(biased_minor, check=False)))
                 for m in {p.graph.m for p in patterns}}
        for k, pat in enumerate(patterns):
            want[i, k] = list(_parent_link_minors(om, pat, pairs[pat.graph.m]))
    assert sum(map(bool, want.values())) == 109
    for order in (list(enumerate(patterns)), list(enumerate(patterns))[::-1]):
        host = _memo_host()
        omegas = [BiasedGraph(host, bal, check=False) for bal in sets]
        for k, pat in order:
            for i, om in enumerate(omegas):
                got = [(r.contract, r.delete, r.iso) for r in link_minors(om, pat)]
                assert got == want[i, k]
        # the graph stage keeps exactly the pairs whose graph minor is
        # isomorphic to the pattern's graph, each with that minor, all its
        # isomorphisms and the host-to-minor edge map
        with oracles.count_builds(MultiGraph.link_minor_pairs) as builds:
            for h in dict.fromkeys(p.graph for p in patterns):
                assert host.link_minor_pairs(h) == _brute_force_memo(host, h)
        assert not builds


def test_link_minor_memo_holds_one_entry_per_pattern_graph():
    host = _memo_host()
    patterns = _memo_patterns()
    with oracles.count_builds(MultiGraph.link_minor_pairs) as builds:
        for bal in oracles.theta_closed_edge_sets(host)[:20]:
            om = BiasedGraph(host, bal, check=False)
            for pat in patterns:
                list(link_minors(om, pat))
    graphs = {(p.graph.n, p.graph.edges) for p in patterns}
    assert len(graphs) == 5
    assert builds == {"link_minor_pairs": len(graphs)}


def test_link_minors_builds_only_pairs_with_the_vertex_count(monkeypatch):
    # the last 8-edge (4, 8) member with a target minor: each filter of the
    # two stages drops pairs there.  The bias stage builds no biased minor
    # and tries edge bijections only on the graph stage's minors whose
    # balanced images have the pattern's sorted lengths.
    target = verify.FAMILIES["tangled-targets"]()[0].omega
    om = [
        om for om in catalog.tangled_family(4, 8)
        if om.graph.m == 8 and find_link_minor(om, target)
    ][-1]
    g = om.graph
    pairs = [
        (K, frozenset(rest) - frozenset(keep))
        for K in sorted(g.link_forests(), key=lambda f: (len(f), sorted(f)))
        for rest in [[e for e in range(g.m) if e not in K]]
        for keep in combinations(rest, target.graph.m)
    ]

    def shape(h):
        """Vertex count and sorted degrees, a loop counting twice."""
        return h.n, sorted(Counter(v for e in h.edges for v in e).values())

    minors = [oracles.drop_isolated(biased_minor(om, K, D).omega) for K, D in pairs]
    with_n = [mn for mn in minors if mn.graph.n == target.graph.n]
    with_shape = [mn for mn in with_n if shape(mn.graph) == shape(target.graph)]
    with_graph = [mn for mn in with_shape if next(graph_isomorphisms(mn.graph, target.graph), None)]
    with_lengths = [mn for mn in with_graph
                    if sorted(map(len, mn.balanced)) == sorted(map(len, target.balanced))]
    assert 0 < len(with_lengths) < len(with_graph) < len(with_shape) < len(with_n) < len(pairs)

    def no_minor(*args, **kwargs):
        raise AssertionError("the bias stage built a biased minor")

    tried = {}
    real = bias.edge_bijections

    def recording(g, h, perm):
        tried.setdefault(id(g), g)
        return real(g, h, perm)

    monkeypatch.setattr(bias, "biased_minor", no_minor)
    monkeypatch.setattr(bias, "edge_bijections", recording)
    assert list(link_minors(om, target))
    assert list(tried.values()) == [mn.graph for mn in with_lengths]


def test_link_minors_on_a_filled_memo_only_checks_bias(monkeypatch):
    # once the host's memo is filled, no bias set on it builds a minor or
    # searches a graph isomorphism: the graph stage's minors and vertex
    # maps are reused as they are
    host = _memo_host()
    patterns = _memo_patterns()
    sets = [om.balanced for om in catalog.bias_sets_up_to_aut(host)[::8]]
    omegas = [BiasedGraph(host, bal, check=False) for bal in sets]
    want = [[(r.contract, r.delete, r.iso) for r in link_minors(om, pat)] for om in omegas
            for pat in patterns]
    assert sum(map(bool, want)) > 20

    def forbidden(*args, **kwargs):
        raise AssertionError("link_minors rebuilt what the memo holds")

    monkeypatch.setattr(graph_module, "graph_isomorphisms", forbidden)
    monkeypatch.setattr(bias, "graph_isomorphisms", forbidden)
    monkeypatch.setattr(bias, "biased_minor", forbidden)
    monkeypatch.setattr(MultiGraph, "drop_isolated", forbidden)
    got = [[(r.contract, r.delete, r.iso) for r in link_minors(om, pat)] for om in omegas
           for pat in patterns]
    assert got == want


def test_link_minors_rejects_a_pattern_with_an_isolated_vertex():
    host = catalog.tube("B_0").omega
    pattern = BiasedGraph(MultiGraph(3, [(0, 1), (0, 1)]), [])
    with pytest.raises(ValueError):
        list(link_minors(host, pattern))
    with pytest.raises(ValueError):
        find_link_minor(host, pattern)


def test_link_minors_checks_its_bound_at_the_first_step():
    # above LINK_MINOR_BOUND in vertices (a cycle of 11) and in edges (a
    # path of 2 links with 19 loops), both searches small enough to finish
    k4 = catalog.base_graphs()[0].omega
    for g in (MultiGraph(11, [(v, (v + 1) % 11) for v in range(11)]),
              MultiGraph(3, [(0, 1), (1, 2)] + [(0, 0)] * 19)):
        assert g.n > bias.LINK_MINOR_BOUND[0] or g.m > bias.LINK_MINOR_BOUND[1]
        recipes = link_minors(BiasedGraph(g, []), k4)
        with pytest.raises(BoundExceeded):
            next(recipes)
        with pytest.raises(BoundExceeded):
            find_link_minor(BiasedGraph(g, []), k4)


def test_find_link_minor_matches_parent_loop():
    targets = [nb.omega for nb in verify.FAMILIES["tangled-targets"]()]
    found = 0
    for om in catalog.tangled_family(4, 7):
        for t in targets:
            rec = find_link_minor(om, t)
            want = _parent_find_link_minor(om, t)
            assert (rec and (rec.contract, rec.delete, rec.iso)) == want
            found += rec is not None
    assert found == 87


def test_biased_minor_enumerates_no_cycles(monkeypatch):
    # a link, a balanced loop and a joint, built before cycles() is disabled
    k4 = catalog.dwarf("D_{1,0}").omega
    loops = BiasedGraph(MultiGraph(2, [(0, 0), (0, 1), (0, 1), (1, 1)]), [{0}, {1, 2}])
    u2 = catalog.u2().omega

    def no_cycles(self):
        raise AssertionError("cycles() called")

    monkeypatch.setattr(MultiGraph, "cycles", no_cycles)
    assert biased_minor(k4, {0}, set(), check=False).is_link_minor
    assert biased_minor(loops, {0, 1, 2}, set(), check=False).is_link_minor
    assert not biased_minor(loops, {3}, set(), check=False).is_link_minor
    assert not biased_minor(u2, set(u2.joints()), set(), check=False).is_link_minor


def test_contract_joint_moves_links():
    g = MultiGraph(2, [(0, 0), (0, 1)])
    om = BiasedGraph(g, [])
    mn = biased_minor(om, {0}, set())
    assert not mn.is_link_minor
    assert mn.omega.graph.is_loop(0)
    assert mn.omega.joints() == (0,)


def test_contract_joint_balances_other_loops():
    g = MultiGraph(1, [(0, 0), (0, 0)])
    om = BiasedGraph(g, [])
    mn = biased_minor(om, {0}, set())
    assert mn.omega.balanced == {frozenset({0})}


def test_prism_contraction_is_t2_prime():
    prism = catalog.t2_prime_split(3).omega
    mn = biased_minor(prism, {6, 7, 8}, set())
    assert biased_isomorphic(mn.omega, catalog.biased_2c3("T_2'").omega)


def test_minor_bias_formula_cross_check():
    # B|_{G/e} built by the contraction rule equals the formula recomputed
    # from scratch on the contracted graph
    for nb in (catalog.biased_2c3("T_2'"), catalog.tube("B_1")):
        om = nb.omega
        for e in range(om.graph.m):
            if om.graph.is_loop(e):
                continue
            mn = biased_minor(om, {e}, set())
            emap = mn.edge_map
            inv = {v: k for k, v in emap.items()}
            for c in mn.omega.graph.cycles():
                old = frozenset(inv[x] for x in c.edges)
                want = old in om.balanced or (old | {e}) in om.balanced
                assert (frozenset(c.edges) in mn.omega.balanced) == want


# -- Delta-Y --------------------------------------------------------------

def test_delta_t2_prime_is_d10():
    t2p = catalog.biased_2c3("T_2'").omega
    X = min(t2p.balanced, key=sorted)
    img = delta_y(t2p, X)
    assert biased_isomorphic(img, catalog.dwarf("D_{1,0}").omega)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_delta_ti_is_d0i(i):
    ti = catalog.biased_2c3("T_%d" % i).omega
    img = delta_y(ti, min(ti.balanced, key=sorted))
    assert biased_isomorphic(img, catalog.dwarf("D_{0,%d}" % (i - 1)).omega)


def test_delta_requires_balanced_triangle():
    t0 = catalog.biased_2c3("T_0").omega
    tri = triangles(t0.graph)[0]
    with pytest.raises(NotBalancedTriangle):
        delta_y(t0, tri)


def test_wye_then_delta_round_trip():
    d02 = catalog.dwarf("D_{0,2}").omega
    img, vmap = y_delta(d02, 3)
    # the new triangle is balanced in the image; delta on it returns an
    # isomorphic biased graph
    X = frozenset(d02.graph.incident_edges(3))
    back = delta_y(img, X)
    assert biased_isomorphic(back, d02)


# -- unbalancing classes and rolling ---------------------------------------

def test_unbalancing_classes_d10():
    d10 = catalog.dwarf("D_{1,0}").omega
    u = classify_balance(d10).balancing_vertices[0]
    part = unbalancing_classes(d10, u)
    assert len(part.classes) >= 2
    assert frozenset().union(*part.classes) == frozenset(d10.graph.links_at(u))


def test_unbalancing_classes_balanced_graph_single_class():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    om = BiasedGraph(g, [frozenset({0, 1, 2})])
    part = unbalancing_classes(om, 0)
    assert len(part.classes) == 1


def test_unbalancing_classes_fat_theta():
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    ft = catalog.fat_theta([p2, p2, p2])
    part = unbalancing_classes(ft, 0)
    x, y, parts = fat_theta_parts(ft)
    expect = {frozenset(e for e in p if 0 in ft.graph.endpoints(e)) for p in parts}
    assert set(part.classes) == expect


def test_roll_up_preserves_frame_matroid():
    for name in ("D_{1,0}", "D_{2,1}"):
        om = catalog.dwarf(name).omega
        for u in classify_balance(om).balancing_vertices:
            for cls in unbalancing_classes(om, u).classes:
                rolled = roll_up(om, u, cls)
                eq, _ = matroids_equal(frame_matroid(rolled), frame_matroid(om))
                assert eq, (name, u, sorted(cls))


def test_unroll_inverts_roll_up():
    om = catalog.dwarf("D_{1,0}").omega
    u = classify_balance(om).balancing_vertices[0]
    cls = unbalancing_classes(om, u).classes[0]
    rolled = roll_up(om, u, cls)
    assert biased_equal_unoriented(unroll(rolled, u), unroll(om, u))
    assert unroll(om, u) == om  # no joints to unroll


def test_double_roll_up_preserves_frame():
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    ft = catalog.fat_theta([p2, p2, p2])
    dr = double_roll_up(ft, 0, 1)
    eq, _ = matroids_equal(frame_matroid(dr), frame_matroid(ft))
    assert eq


def _same_edit(edit, reference, *args):
    """edit(*args) equals reference(*args), or raises the same exception
    type; returns edit's result, or None where both raise."""
    try:
        want = reference(*args)
    except (BmlabError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            edit(*args)
        assert type(info.value) is type(exc), (edit.__name__, args[1:])
        return None
    got = edit(*args)
    if edit is y_delta:
        assert got[1] == want[1]  # vertex map
        om, want = got[0], want[0]
    else:
        om = got
    assert om == want and om.graph.vertex_names == want.graph.vertex_names, (
        edit.__name__, args[1:])
    return got


# fat-theta parts, hubs at vertices 0 and 1: an edge, a path, a 2-cycle
# and a triangle through both hubs
K2 = MultiGraph(2, [(0, 1)])
P2 = MultiGraph(3, [(0, 2), (2, 1)])
C2 = MultiGraph(2, [(0, 1), (0, 1)])
C3 = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
FAT_THETA_PARTS = ([P2], [P2] * 2, [P2] * 3, [P2] * 4, [K2] * 3, [K2, P2, P2, K2],
                   [C2, P2, C3], [C3, C3, K2, P2], [K2, MultiGraph(1, [(0, 0)])])


def test_edits_match_their_by_hand_rebuilds():
    """Delta-Y, Y-Delta, roll-ups, unrolling and fat thetas, each through
    BiasedGraph.of_cycles but the roll step (which reads omega's bias),
    give the biased graph (and vertex map) of the by-hand rebuilds they
    replace, and raise where those raise."""
    named = [nb.omega for nb in catalog.classify_k4() + catalog.classify_2c3_proper()
             + catalog.classify_tube_proper() + catalog.contracted_tubes()]
    fat = [catalog.fat_theta(parts) for parts in FAT_THETA_PARTS[1:-1]]
    omegas = [BiasedGraph(g, bal, check=False) for g in catalog.multigraphs_up_to_iso(4, 6)
              for bal in oracles.theta_closed_edge_sets(g)]
    omegas += named + [oracles.with_loops(om) for om in named] + fat
    built = Counter()

    def same(edit, reference, *args):
        result = _same_edit(edit, reference, *args)
        built[edit.__name__, result is not None] += 1
        return result

    for om in omegas:
        g = om.graph
        for X in (frozenset(c.edges) for c in g.cycles() if len(c) == 3):
            same(delta_y, oracles.delta_y_by_transfer, om, X)
        for v in range(g.n):
            same(y_delta, oracles.y_delta_by_cases, om, v)
            same(unroll, oracles.unroll_by_cases, om, v)
        for u in balancing_vertices(om):
            # the classes, and the whole star at u (no class when split)
            for cls in unbalancing_classes(om, u).classes + (frozenset(g.links_at(u)),):
                rolled = same(roll_up, oracles.roll_up_by_cases, om, u, cls)
                if rolled is not None:
                    same(unroll, oracles.unroll_by_cases, rolled, u)
    for ft in fat + [catalog.dwarf("D_{1,0}").omega]:
        for i, j in product(range(4), repeat=2):
            same(double_roll_up, oracles.double_roll_up_by_cases, ft, i, j)
    for parts in FAT_THETA_PARTS:
        same(catalog.fat_theta, oracles.fat_theta_by_cases, parts)
    assert built == {  # (edit, built): cases; built False where both raise
        ("delta_y", True): 471, ("delta_y", False): 1142,
        ("y_delta", True): 145, ("y_delta", False): 2084,
        ("roll_up", True): 3753, ("roll_up", False): 1195,
        ("unroll", True): 5058, ("unroll", False): 924,
        ("double_roll_up", True): 54, ("double_roll_up", False): 74,
        ("fat_theta", True): 7, ("fat_theta", False): 2,
    }


# -- searches ----------------------------------------------------------------

def test_find_link_minor_identity():
    t0 = catalog.biased_2c3("T_0").omega
    rec = find_link_minor(t0, t0)
    assert rec is not None and not rec.contract and not rec.delete


def test_find_link_minor_subdivision_inverse():
    b0 = catalog.tube("B_0").omega
    # subdivide an edge, then the pattern is recovered by contraction
    g = b0.graph
    edges = list(g.edges)
    u, v = edges[2]
    edges[2] = (u, 4)
    edges.append((4, v))
    g2 = MultiGraph(5, edges, list(g.edge_names) + ["e7"])
    balanced = {(c | {6}) if 2 in c else c for c in b0.balanced}
    om = BiasedGraph(g2, balanced)
    rec = find_link_minor(om, b0)
    assert rec is not None
    assert rec.contract and is_balanced_set(om, rec.contract)


def test_small_tangled_has_base_link_minor():
    # tangled on <= 4 vertices: check a couple of instances directly
    t0 = catalog.biased_2c3("T_0").omega
    targets = [nb.omega for nb in catalog.classify_2c3_proper()]
    assert any(find_link_minor(t0, t) for t in targets)


def test_find_biased_subdivision_b0_in_itself():
    b0 = catalog.tube("B_0").omega
    assert find_biased_subdivision(b0, b0) is not None
    b1 = catalog.tube("B_1").omega
    assert find_biased_subdivision(b0, b1) is None  # bias must match


def _host_cycle_edges(emb, pattern_cycle_edges):
    out = set()
    for e in pattern_cycle_edges:
        out.update(emb.edge_paths[e])
    return frozenset(out)


def _find_biased_subdivision_oracle(omega, pattern):
    """The search before the early bias checks: every embedding of the
    underlying graphs, filtered afterwards on the bias of each pattern
    cycle."""
    for emb in iter_subdivisions(omega.graph, pattern.graph):
        ok = True
        for c in pattern.graph.cycles():
            host_edges = _host_cycle_edges(emb, c.edges)
            want = frozenset(c.edges) in pattern.balanced
            if (host_edges in omega.balanced) != want:
                ok = False
                break
        if ok:
            return emb
    return None


def _embedding_items(emb):
    return None if emb is None else (emb.vertex_map, emb.edge_paths)


def test_find_biased_subdivision_matches_filter_oracle_on_tangled_members():
    patterns = [nb.omega for nb in verify.FAMILIES["subdivision-patterns"]()]
    assert len(patterns) == 16
    members = [om for om in catalog.tangled_family(4, 7)
               if om.is_vertically_k_connected(2)[0]]
    found = 0
    for om in members:
        for pattern in patterns:
            got = find_biased_subdivision(om, pattern)
            want = _find_biased_subdivision_oracle(om, pattern)
            assert _embedding_items(got) == _embedding_items(want)
            found += got is not None
    assert (len(members), found) == (60, 73)


def test_find_biased_subdivision_matches_filter_oracle_on_unique_balancing_instances(
        monkeypatch):
    compared = []

    def both(omega, pattern):
        got = find_biased_subdivision(omega, pattern)
        want = _find_biased_subdivision_oracle(omega, pattern)
        compared.append((_embedding_items(got) == _embedding_items(want), got is not None))
        return got

    monkeypatch.setattr(verify, "find_biased_subdivision", both)
    rep = verify.run_claim("unique-balancing-subdivision", max_vertices=4, max_edges=6)
    assert rep.status == "pass"
    assert all(same for same, _ in compared)
    # the claim calls the search on every pattern, the two with more edges
    # than their host too, which _holds_cycles rejects at once
    assert (len(compared), sum(f for _, f in compared)) == (39, 16)


def test_find_biased_subdivision_prunes_by_biased_automorphisms_only(monkeypatch):
    # a member of tangled_family(4, 7): K4 with one balanced 4-cycle holds
    # D_{0,1} (one balanced 4-cycle) only through vertex maps that are not
    # the least of their orbits under the plain automorphisms of K4
    g = MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    om = BiasedGraph(g, [frozenset({0, 1, 4, 5})])
    assert om in catalog.tangled_family(4, 7)
    pattern = catalog.dwarf("D_{0,1}").omega
    emb = find_biased_subdivision(om, pattern)
    assert emb is not None
    assert _embedding_items(emb) == _embedding_items(_find_biased_subdivision_oracle(om, pattern))
    # with every graph automorphism counted as a symmetry, it is lost
    plain = BiasedGraph(pattern.graph, pattern.balanced)
    monkeypatch.setattr(bias, "biased_isomorphisms", lambda g, h: (
        (perm, None) for perm in graph_isomorphisms(g.graph, h.graph)))
    assert find_biased_subdivision(om, plain) is None
    assert len(bias.biased_automorphisms(plain)) == 24 > len(bias.biased_automorphisms(pattern))


def test_iter_subdivisions_prunes_rejected_placements():
    b0 = catalog.tube("B_0").omega.graph
    every = list(iter_subdivisions(b0, b0))
    placed = []

    def reject_host_edge_0_for_edge_0(e, edge_paths):
        placed.append(e)
        return not (e == 0 and edge_paths[0] == (0,))

    kept = list(iter_subdivisions(b0, b0, accept=reject_host_edge_0_for_edge_0))
    assert [emb.edge_paths for emb in kept] == [
        emb.edge_paths for emb in every if emb.edge_paths[0] != (0,)]
    assert 0 < len(kept) < len(every)
    assert set(placed) == set(range(b0.m))


def _closing_bias_test(omega, pattern):
    """An accept for iter_subdivisions that rejects a placement closing a
    pattern cycle onto a host cycle of the other bias."""
    closing = {}
    for c in pattern.graph.cycles():
        closing.setdefault(max(c.edges), []).append((c.edges, c.edges in pattern.balanced))

    def accept(e, edge_paths):
        return all((frozenset(x for f in edges for x in edge_paths[f]) in omega.balanced) == bal
                   for edges, bal in closing.get(e, ()))
    return accept


def test_iter_subdivisions_matches_the_two_generator_search():
    # full embedding sequences, vertex maps and paths in order, with and
    # without pruning and symmetry breaking
    hosts = list(catalog.tangled_family(4, 7)) + [nb.omega for nb in catalog.base_graphs()]
    patterns = [nb.omega for nb in verify.FAMILIES["subdivision-patterns"]()]
    assert len(patterns) == 16
    seen = Counter()
    for pattern in patterns:
        auts = tuple({perm for perm, _ in biased_isomorphisms(pattern, pattern)})
        for om in hosts:
            for accept, automorphisms in product((None, _closing_bias_test(om, pattern)),
                                                 ((), auts)):
                args = (om.graph, pattern.graph, accept, automorphisms)
                got = [(list(emb.vertex_map.items()), list(emb.edge_paths.items()))
                       for emb in iter_subdivisions(*args)]
                want = [(list(emb.vertex_map.items()), list(emb.edge_paths.items()))
                        for emb in oracles.iter_subdivisions_two_step(*args)]
                assert got == want
                seen[accept is None, automorphisms == ()] += len(got)
    assert len(hosts) == 73 and sum(seen.values()) == 35192
    assert seen[True, True] > max(seen[True, False], seen[False, True]) > seen[False, False] > 0


def _fewer_cycles(host, pattern):
    """The cycle-count test, restated: host has fewer edges, balanced
    cycles or unbalanced cycles than pattern."""
    if host.graph.m < pattern.graph.m:
        return True
    def counts(om):
        balanced = sum(c.edges in om.balanced for c in om.cycles())
        return balanced, len(om.cycles()) - balanced
    return any(h < p for h, p in zip(counts(host), counts(pattern)))


def _shorter_cycles(host, pattern):
    """The cycle-length test, restated for a host that passes the count
    test: for some bias, the host's i-th longest cycle is shorter than the
    pattern's."""
    def lengths(om, balanced):
        return sorted((len(c.edges) for c in om.cycles() if (c.edges in om.balanced) == balanced),
                      reverse=True)
    return any(h < p for balanced in (True, False)
               for h, p in zip(lengths(host, balanced), lengths(pattern, balanced)))


def _degrees_undominated(host, pattern):
    """The degree test, restated: the host's degrees, largest first, fall
    short of the pattern's at some entry."""
    hd = sorted((host.degree(v) for v in range(host.n)), reverse=True)
    pd = sorted((pattern.degree(v) for v in range(pattern.n)), reverse=True)
    return any(h < p for h, p in zip(hd, pd))


def _cut_hosts():
    return list(catalog.tangled_family(4, 7)) + [nb.omega for nb in catalog.base_graphs()]


def test_subdivision_cuts_reject_only_fruitless_searches(monkeypatch):
    # every pair the tangled-subgraph claim would search; a search that
    # passes both cuts reads the pattern's automorphisms when it starts
    # its vertex maps, and one that a cut rejects never does
    patterns = [nb.omega for nb in verify.FAMILIES["subdivision-patterns"]()]
    started = []
    real = bias.iter_subdivisions

    def probed(host, pattern, accept, automorphisms):
        def read():
            started.append(True)
            yield from automorphisms
        return real(host, pattern, accept, read())

    monkeypatch.setattr(bias, "iter_subdivisions", probed)
    cut = Counter()
    for om in _cut_hosts():
        for pattern in patterns:
            if pattern.graph.m > om.graph.m or pattern.graph.n > om.graph.n:
                continue
            started.clear()
            got = find_biased_subdivision(om, pattern)
            rule = ("cycles" if _fewer_cycles(om, pattern)
                    else "lengths" if _shorter_cycles(om, pattern)
                    else "degrees" if _degrees_undominated(om.graph, pattern.graph) else None)
            assert bool(started) == (rule is None), (om, pattern, rule)
            if rule is not None:
                assert got is None
                search = oracles.iter_subdivisions_two_step(
                    om.graph, pattern.graph, _closing_bias_test(om, pattern))
                assert next(search, None) is None
            cut[rule] += 1
    assert cut == {"cycles": 390, "lengths": 107, "degrees": 68, None: 198}


def test_link_minor_cut_rejects_only_fruitless_searches(monkeypatch):
    # the tangled targets and inequivalence-localized's patterns on the
    # same hosts; a search that passes the cut asks the graph stage for
    # its pairs, and one that the cut rejects never does
    patterns = _memo_patterns()
    asked = []
    real = MultiGraph.link_minor_pairs
    monkeypatch.setattr(MultiGraph, "link_minor_pairs",
                        lambda g, h: asked.append(h) or real(g, h))
    cut = Counter()
    for om in _cut_hosts():
        for pattern in patterns:
            asked.clear()
            got = list(link_minors(om, pattern))
            rule = ("cycles" if _fewer_cycles(om, pattern)
                    else "lengths" if _shorter_cycles(om, pattern) else None)
            assert bool(asked) == (rule is None), (om, pattern)
            if rule is not None:
                assert got == []
                with monkeypatch.context() as m:
                    m.setattr(bias, "_holds_cycles", lambda omega, pattern: True)
                    assert list(link_minors(om, pattern)) == []
            cut[rule] += 1
    assert cut == {"cycles": 762, "lengths": 430, None: 633}


def test_cuts_come_after_the_argument_checks():
    # each host has fewer cycles than the pattern, so a cut ahead of the
    # checks would answer None or nothing where the search must raise
    b0 = catalog.tube("B_0").omega
    long_cycle = BiasedGraph(MultiGraph(13, [(v, (v + 1) % 13) for v in range(13)]), [])
    assert long_cycle.graph.n > graph_module.SUBDIVISION_BOUND[0]
    with pytest.raises(BoundExceeded):
        find_biased_subdivision(long_cycle, b0)
    triangle = BiasedGraph(MultiGraph(3, [(0, 1), (1, 2), (2, 0)]), [])
    with pytest.raises(ValueError):
        find_biased_subdivision(triangle, catalog.u3().omega)
    for host in (long_cycle, triangle):
        assert _fewer_cycles(host, b0) and _fewer_cycles(host, catalog.u3().omega)
    eleven = BiasedGraph(MultiGraph(11, [(v, (v + 1) % 11) for v in range(11)]), [])
    with pytest.raises(BoundExceeded):
        find_link_minor(eleven, b0)
    # a pattern with more edges than the host fits neither search, and its
    # cycles, beyond the enumeration bound here, are not listed
    huge = BiasedGraph(MultiGraph(2, [(0, 1)] * 25), [], check=False)
    assert find_biased_subdivision(triangle, huge) is None
    assert list(link_minors(triangle, huge)) == []
    isolated = BiasedGraph(MultiGraph(4, [(0, 1), (1, 2), (2, 0)] * 2), [])
    assert _fewer_cycles(triangle, isolated)
    with pytest.raises(ValueError):
        find_link_minor(triangle, isolated)


def test_fat_theta_shape():
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    ft = catalog.fat_theta([p2, p2, p2])
    assert balancing_vertices(ft) == (0, 1)
    shape = fat_theta_parts(ft)
    assert shape is not None and len(shape[2]) == 3
