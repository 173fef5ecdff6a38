import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bmlab import catalog
from bmlab.bias import BiasedGraph, biased_minor
from bmlab.canonical import FRAME, LIFT, gain_classes
from bmlab.errors import BmlabError, GraphMismatch, GroupMismatch
from bmlab.gains import (
    AdditiveGroup,
    CyclicGroup,
    GainGraph,
    MultiplicativeGroup,
    induced_bias,
    induced_gain,
    normalize,
    normalized_gain_functions,
    realizations,
    switch,
    switching_equivalent,
    switching_scaling_equivalent,
    walk_gain,
)
from bmlab.graph import MultiGraph, OrientedEdge
from oracles import (
    normalize_by_dfs,
    scale_gains,
    scaling_orbits,
    sweep_graphs,
    switching_equivalent_by_dfs,
    switching_scaling_equivalent_by_dfs,
    switching_scaling_equivalent_per_scalar,
)

AXIOM_CHECK_ORDER = 257


def group_axioms_hold(group):
    """Exhaustive associativity/identity/inverse/commutativity check, for
    groups of order at most AXIOM_CHECK_ORDER."""
    els = group.elements
    if len(els) > AXIOM_CHECK_ORDER:
        raise BmlabError("group too large for exhaustive axiom check")
    e = group.identity
    for a in els:
        if group.op(a, e) != a or group.op(e, a) != a:
            return False
        if group.op(a, group.inv(a)) != e:
            return False
        for b in els:
            if group.op(a, b) != group.op(b, a):
                return False
            for c in els:
                if group.op(group.op(a, b), c) != group.op(a, group.op(b, c)):
                    return False
    return True


def is_realization(gg, omega):
    if gg.graph != omega.graph:
        raise GraphMismatch("gain graph and biased graph differ")
    return induced_bias(gg).balanced == omega.balanced


def two_c3():
    return catalog.graph_2c3()


GROUPS = [
    MultiplicativeGroup(2),
    MultiplicativeGroup(4),
    MultiplicativeGroup(5),
    MultiplicativeGroup(9),
    MultiplicativeGroup(25),
    AdditiveGroup(3),
    AdditiveGroup(4),
    AdditiveGroup(8),
    AdditiveGroup(27),
    CyclicGroup(1),
    CyclicGroup(6),
    CyclicGroup(12),
    CyclicGroup(30),
]


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_group_axioms(group):
    assert group_axioms_hold(group)


def test_scalar_action_is_automorphism():
    g = AdditiveGroup(4)
    for a in g.scalars:
        for x, y in product(g.elements, repeat=2):
            assert g.scale(a, g.op(x, y)) == g.op(g.scale(a, x), g.scale(a, y))


def test_walk_gain_identity():
    g = two_c3()
    gg = GainGraph(g, MultiplicativeGroup(5), {e: 1 for e in range(6)})
    walk = [OrientedEdge(0), OrientedEdge(2), OrientedEdge(4)]
    assert walk_gain(gg, walk) == 1


def test_walk_gain_single_edge_and_inverse():
    g = MultiGraph(2, [(0, 1)])
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 3})
    assert walk_gain(gg, [OrientedEdge(0)]) == 3
    assert walk_gain(gg, [OrientedEdge(0, False)]) == 2  # 3^-1 mod 5


def test_walk_gain_figure_triangle():
    # e1 e3 e5^-1 with the display labeling: gains 1, 1, c on the declared
    # orientations; e5 is declared v3 -> v1 so e5 itself closes the walk
    g = two_c3()
    a, b, c, d = 2, 3, 2, 4
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 1, 1: a, 2: 1, 3: b, 4: c, 5: d})
    walk = [OrientedEdge(0), OrientedEdge(2), OrientedEdge(4)]
    assert walk_gain(gg, walk) == c


def test_walk_gain_concatenation():
    g = two_c3()
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 2, 1: 3, 2: 4, 3: 1, 4: 2, 5: 3})
    w1 = [OrientedEdge(0)]
    w2 = [OrientedEdge(2)]
    assert walk_gain(gg, w1 + w2) == gg.group.op(walk_gain(gg, w1), walk_gain(gg, w2))


def test_induced_bias_identity_gains_all_balanced():
    g = two_c3()
    gg = GainGraph(g, MultiplicativeGroup(4), {e: 1 for e in range(6)})
    om = induced_bias(gg)
    assert len(om.balanced) == 11


def test_induced_bias_z2_parallel_negation_is_t4():
    g = two_c3()
    gg = GainGraph(g, CyclicGroup(2), {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1})
    om = induced_bias(gg)
    assert sum(1 for c in om.balanced if len(c) == 3) == 4
    assert sum(1 for c in om.balanced if len(c) == 2) == 0
    from bmlab.bias import biased_isomorphic

    assert biased_isomorphic(om, catalog.biased_2c3("T_4").omega)


def test_induced_bias_gf5_no_balanced_two_cycle():
    g = two_c3()
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 4})
    om = induced_bias(gg)
    assert not any(len(c) == 2 for c in om.balanced)


def test_switch_identity_noop():
    g = two_c3()
    gg = GainGraph(g, MultiplicativeGroup(5), {e: 2 for e in range(6)})
    assert switch(gg, {}).gains == gg.gains


def test_loop_gains_fixed_by_switching():
    g = MultiGraph(1, [(0, 0)])
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 3})
    assert switch(gg, {0: 4}).gains == gg.gains


def test_switch_then_inverse_restores():
    g = two_c3()
    gg = GainGraph(g, AdditiveGroup(5), {e: e % 5 for e in range(6)})
    eta = {0: 1, 1: 3, 2: 2}
    inv = {v: gg.group.inv(x) for v, x in eta.items()}
    assert switch(switch(gg, eta), inv).gains == gg.gains


def test_switch_composition_law():
    g = two_c3()
    gg = GainGraph(g, CyclicGroup(6), {e: e % 6 for e in range(6)})
    rng = random.Random(1)
    for _ in range(20):
        e1 = {v: rng.randrange(6) for v in range(3)}
        e2 = {v: rng.randrange(6) for v in range(3)}
        combined = {v: (e1[v] + e2[v]) % 6 for v in range(3)}
        assert switch(switch(gg, e1), e2).gains == switch(gg, combined).gains


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5 ** 9 - 1), st.integers(0, 124))
def test_bias_invariant_under_switching(gain_code, eta_code):
    # property: B_phi = B_{phi^eta} for arbitrary gains and switchings
    g = catalog.graph_2c3()
    group = MultiplicativeGroup(5)
    gains = {}
    for e in range(6):
        gains[e] = group.elements[gain_code % 4]
        gain_code //= 5
    eta = {}
    for v in range(3):
        eta[v] = group.elements[eta_code % 4]
        eta_code //= 5
    gg = GainGraph(g, group, gains)
    assert induced_bias(switch(gg, eta)).balanced == induced_bias(gg).balanced


def test_normalize_path():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 2, 1: 3})
    ngg, eta = normalize(gg)
    assert ngg.gains == {0: 1, 1: 1}
    assert switch(gg, eta).gains == ngg.gains


def test_normalize_already_normalized():
    g = two_c3()
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 1, 1: 2, 2: 1, 3: 3, 4: 4, 5: 2})
    ngg, eta = normalize(gg)
    assert ngg.gains == gg.gains
    assert all(x == 1 for x in eta.values())


def test_normalize_idempotent():
    g = two_c3()
    gg = GainGraph(g, AdditiveGroup(4), {e: e % 4 for e in range(6)})
    n1, _ = normalize(gg)
    n2, _ = normalize(n1)
    assert n1.gains == n2.gains


def _normalize_and_decide_as_the_reference(gg, rng):
    """normalize on gg, and the equivalence decisions on gg paired with a
    switched copy (scaled too over an additive field group) and with a
    copy that differs on one edge, each as the DFS reference gives it;
    returns the number of decisions compared."""
    assert normalize(gg) == normalize_by_dfs(gg)
    group, g = gg.group, gg.graph
    copy = gg
    if group.is_additive_field_group:
        copy = scale_gains(gg, rng.choice(group.scalars))
    copy = switch(copy, {v: rng.choice(group.elements) for v in range(g.n)})
    e = rng.randrange(g.m)
    bumped = gg.with_gains({**gg.gains, e: rng.choice(
        [x for x in group.elements if x != gg.gains[e]])})
    decisions = 0
    for other in (copy, bumped):
        assert switching_equivalent(gg, other) == switching_equivalent_by_dfs(gg, other)
        decisions += 1
        if group.is_additive_field_group:
            assert (switching_scaling_equivalent(gg, other)
                    == switching_scaling_equivalent_by_dfs(gg, other))
            decisions += 1
    return decisions


def test_normalize_and_switching_match_the_dfs_reference():
    # every gain function over Z_3 on the graphs of multigraphs_up_to_iso(4, 5)
    # and on each with a loop added at vertex 0; then seeded gain functions
    # over GF(5)^x and GF(4)^+ on the sweep graphs
    rng = random.Random(11)
    functions = decisions = 0
    z3 = CyclicGroup(3)
    for g in catalog.multigraphs_up_to_iso(4, 5):
        for graph in (g, MultiGraph(g.n, g.edges + ((0, 0),))):
            for values in product(z3.elements, repeat=graph.m):
                gg = GainGraph(graph, z3, dict(enumerate(values)))
                decisions += _normalize_and_decide_as_the_reference(gg, rng)
                functions += 1
    for group in (MultiplicativeGroup(5), AdditiveGroup(4)):
        for g in sweep_graphs():
            for _ in range(4):
                gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})
                decisions += _normalize_and_decide_as_the_reference(gg, rng)
                functions += 1
    assert (functions, decisions) == (9900, 20376)


def test_switching_equivalent_recovers_witness():
    g = two_c3()
    group = MultiplicativeGroup(5)
    gg = GainGraph(g, group, {0: 2, 1: 3, 2: 4, 3: 1, 4: 2, 5: 3})
    eta = {0: 2, 1: 4, 2: 3}
    other = switch(gg, eta)
    found = switching_equivalent(gg, other)
    assert found is not None
    assert switch(gg, found).gains == other.gains


def test_normalized_unequal_means_inequivalent():
    g = two_c3()
    group = MultiplicativeGroup(5)
    base = {0: 1, 1: 2, 2: 1, 3: 3, 4: 1, 5: 4}
    other = dict(base)
    other[5] = 2
    assert switching_equivalent(
        GainGraph(g, group, base), GainGraph(g, group, other)
    ) is None


def test_switching_equivalent_matches_brute_force():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    group = CyclicGroup(3)
    gfs = list(normalized_gain_functions(g, group))[:8]
    for g1 in gfs:
        for g2 in gfs:
            fast = switching_equivalent(g1, g2) is not None
            brute = any(
                switch(g1, dict(zip(range(3), vals))).gains == g2.gains
                for vals in product(group.elements, repeat=3)
            )
            assert fast == brute


def test_switching_counts_2c3_gf5():
    # the number of switching classes equals the number of normalized
    # realizations (computed: frozen from exhaustive enumeration)
    t0 = catalog.biased_2c3("T_0").omega
    assert len(realizations(t0, MultiplicativeGroup(5))) == 2


def test_scaling_equivalence_trivial():
    g = two_c3()
    group = AdditiveGroup(5)
    gg = GainGraph(g, group, {0: 0, 1: 1, 2: 0, 3: 2, 4: 3, 5: 1})
    res = switching_scaling_equivalent(gg, scale_gains(gg, 3))
    assert res is not None and res[0] == 3


def test_scaling_ratio_inconsistency():
    g = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    group = AdditiveGroup(5)
    a = GainGraph(g, group, {0: 0, 1: 1, 2: 1})
    b = GainGraph(g, group, {0: 0, 1: 1, 2: 2})
    assert switching_scaling_equivalent(a, b) is None


def test_scaling_against_brute_force():
    g = two_c3()
    group = AdditiveGroup(5)
    rng = random.Random(5)
    gfs = list(normalized_gain_functions(g, group))
    picks = [gfs[rng.randrange(len(gfs))] for _ in range(6)]
    for g1 in picks[:3]:
        for g2 in picks[3:]:
            fast = switching_scaling_equivalent(g1, g2) is not None
            brute = False
            for a in group.scalars:
                scaled = scale_gains(g1, a)
                for vals in product(group.elements, repeat=3):
                    if switch(scaled, dict(zip(range(3), vals))).gains == g2.gains:
                        brute = True
                        break
                if brute:
                    break
            assert fast == brute


def test_switching_scaling_matches_the_per_scalar_oracle():
    # every gain function of the base graphs' underlying graphs over GF(4)^+
    # and GF(5)^+, paired with itself (the zero function matches every
    # scalar, so the first one must be returned), with a scaled switched
    # copy and with a random function; then every pair of one base graph's
    # realizations
    rng = random.Random(41)
    graphs = []
    for nb in catalog.base_graphs():
        if nb.omega.graph not in graphs:
            graphs.append(nb.omega.graph)
    decisions = equivalent = 0
    for q in (4, 5):
        group = AdditiveGroup(q)
        pairs = []
        for g in graphs:
            gfs = list(normalized_gain_functions(g, group))
            for gg in gfs:
                eta = {v: rng.choice(group.elements) for v in range(g.n)}
                copy = switch(scale_gains(gg, rng.choice(group.scalars)), eta)
                pairs += [(gg, gg), (gg, copy), (gg, rng.choice(gfs))]
        for nb in catalog.base_graphs():
            reps = realizations(nb.omega, group)
            pairs += list(product(reps, repeat=2))
        for g1, g2 in pairs:
            got = switching_scaling_equivalent(g1, g2)
            assert got == switching_scaling_equivalent_per_scalar(g1, g2), (g1.gains, g2.gains)
            decisions += 1
            equivalent += got is not None
    assert (decisions, equivalent) == (5828, 3162)


def _scaling_orbits_pairwise(reps):
    """The pairwise grouping `scaling_orbits` replaced: each rep joins the
    orbit of the first earlier rep that switching_scaling_equivalent
    relates it to."""
    orbits = []
    seen = set()
    for i, gg in enumerate(reps):
        if i in seen:
            continue
        orbit = [i]
        seen.add(i)
        for j in range(i + 1, len(reps)):
            if j not in seen and switching_scaling_equivalent(gg, reps[j]) is not None:
                orbit.append(j)
                seen.add(j)
        orbits.append([reps[k] for k in orbit])
    return orbits


def test_scaling_orbits_match_pairwise_grouping():
    cases = [list(normalized_gain_functions(two_c3(), AdditiveGroup(3)))]
    cases.append(list(normalized_gain_functions(MultiGraph(2, [(0, 1)] * 3 + [(0, 0)]),
                                                AdditiveGroup(4))))
    for q in (4, 5):
        for nb in catalog.base_graphs():
            cases.append(realizations(nb.omega, AdditiveGroup(q)))
    orbits = 0
    for reps in cases:
        got = scaling_orbits(reps)
        want = _scaling_orbits_pairwise(reps)
        assert [[id(gg) for gg in o] for o in got] == [[id(gg) for gg in o] for o in want]
        orbits += len(got)
    assert orbits > 50


def test_scaling_orbits_need_one_additive_group():
    # the refusals scaling_orbits made, now gain_classes', plus its
    # precondition that every input is normalized on the spanning forest
    gg = GainGraph(two_c3(), MultiplicativeGroup(5), {e: 1 for e in range(6)})
    with pytest.raises(GroupMismatch):
        gain_classes(LIFT, [gg])
    assert gain_classes(FRAME, [gg]) == [0]
    a = GainGraph(two_c3(), AdditiveGroup(5), {e: 0 for e in range(6)})
    b = GainGraph(catalog.graph_k4(), AdditiveGroup(5), {e: 0 for e in range(6)})
    with pytest.raises(GraphMismatch):
        gain_classes(LIFT, [a, b])
    with pytest.raises(GroupMismatch):
        gain_classes(FRAME, [gg, a])  # one group for every kind
    forest_edge = two_c3().spanning_forest()[0]
    for kind, base in ((LIFT, a), (FRAME, gg)):
        off = base.with_gains({**base.gains, forest_edge: 2})
        with pytest.raises(BmlabError, match="not normalized"):
            gain_classes(kind, [base, off])


def test_is_realization():
    g = two_c3()
    group = MultiplicativeGroup(4)
    ident = GainGraph(g, group, {e: 1 for e in range(6)})
    all_bal = BiasedGraph(g, [frozenset(c.edges) for c in g.cycles()])
    t0 = catalog.biased_2c3("T_0").omega
    assert is_realization(ident, all_bal)
    assert not is_realization(ident, t0)


def test_is_realization_z2_t4():
    g = two_c3()
    gg = GainGraph(g, CyclicGroup(2), {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1})
    om = induced_bias(gg)
    assert is_realization(gg, om)


def test_induced_gain_restriction():
    g = two_c3()
    group = MultiplicativeGroup(5)
    gg = GainGraph(g, group, {0: 1, 1: 2, 2: 1, 3: 3, 4: 2, 5: 4})
    mg, vmap, emap = induced_gain(gg, set(), {1, 3})
    assert mg.graph.m == 4
    for old, new in emap.items():
        assert mg.gains[new] == gg.gains[old]


def test_induced_gain_contract_identity_triangle():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    group = MultiplicativeGroup(5)
    gg = GainGraph(g, group, {0: 1, 1: 1, 2: 1})
    mg, _, _ = induced_gain(gg, {0}, set())
    om = induced_bias(mg)
    assert om.balanced == {frozenset(om.graph.edge_set(["e2", "e3"]))}


def test_induced_gain_realizes_biased_minor():
    # the commuting square: the gain minor and the biased minor of the
    # induced bias have the same graph, vertex map and edge map, and the
    # gain minor induces the biased minor's bias; every contract / delete /
    # keep labelling of the edges
    cases = [(realizations(catalog.by_name(name).omega, MultiplicativeGroup(5))[0], K, D)
             for name in ("T_2'", "B_1") for K, D in [({2}, set()), (set(), {0}), ({2}, {0})]]
    rng = random.Random(2)
    graphs = list(catalog.multigraphs_up_to_iso(3, 4))
    for _ in range(10):  # loops from the start
        n, m = rng.randint(1, 3), rng.randint(4, 5)
        graphs.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]))
    for g in graphs:
        for group in (CyclicGroup(3), MultiplicativeGroup(5), AdditiveGroup(4)):
            gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})
            for labels in product((None, "contract", "delete"), repeat=g.m):
                K = {e for e, x in enumerate(labels) if x == "contract"}
                D = {e for e, x in enumerate(labels) if x == "delete"}
                cases.append((gg, K, D))
    joints = 0
    for gg, K, D in cases:
        mg, vmap, emap = induced_gain(gg, K, D)
        bm = biased_minor(induced_bias(gg), K, D, check=False)
        assert mg.graph == bm.omega.graph
        assert mg.graph.vertex_names == bm.omega.graph.vertex_names
        assert induced_bias(mg).balanced == bm.omega.balanced
        assert (vmap, emap) == (bm.vertex_map, bm.edge_map)
        joints += not bm.is_link_minor
    assert len(cases) > 4000 and joints > 2000


# The one-link-at-a-time induced_gain that the one-minor version replaced,
# kept as the reference: deletions first, then each contracted link is
# switched to identity gain and contracted by its own minor call.

def _reference_induced_gain(gg, contract, delete):
    contract = set(contract)
    delete = set(delete)
    group = gg.group

    def delete_edges(cur, dels):
        g2, vmap, emap = cur.graph.minor(set(), dels)
        gains = {emap[e]: cur.gains[e] for e in emap}
        return GainGraph(g2, group, gains), vmap, emap

    current, total_vmap, total_emap = delete_edges(gg, delete)
    pending = {total_emap[e] for e in contract}
    while pending:
        links = sorted(e for e in pending if not current.graph.is_loop(e))
        if links:
            e = links[0]
            u, v = current.graph.endpoints(e)
            switched = switch(current, {v: group.inv(current.gains[e])})
            g2, vmap, emap = current.graph.minor({e}, set())
            nxt = GainGraph(g2, group, {emap[x]: switched.gains[x] for x in emap})
        else:
            loops_bal = sorted(e for e in pending if current.gains[e] == group.identity)
            if loops_bal:
                e = loops_bal[0]
                nxt, vmap, emap = delete_edges(current, {e})
            else:
                e = sorted(pending)[0]
                (v,) = set(current.graph.endpoints(e))
                new_edges, new_names, emap, gains = [], [], {}, {}
                for f, (a, b) in enumerate(current.graph.edges):
                    if f == e:
                        continue
                    emap[f] = len(new_edges)
                    if a == v and b == v:
                        new_edges.append((v, v))
                        gains[emap[f]] = group.identity
                    elif a == v or b == v:
                        w = b if a == v else a
                        new_edges.append((w, w))
                        gains[emap[f]] = group.smallest_non_identity()
                    else:
                        new_edges.append((a, b))
                        gains[emap[f]] = current.gains[f]
                    new_names.append(current.graph.edge_names[f])
                g2 = MultiGraph(current.graph.n, new_edges, new_names, current.graph.vertex_names)
                nxt = GainGraph(g2, group, gains)
                vmap = {u: u for u in range(current.graph.n)}
        pending = {emap[x] for x in pending if x != e and x in emap}
        total_vmap = {v: vmap[total_vmap[v]] for v in total_vmap}
        total_emap = {x: emap[y] for x, y in total_emap.items() if y in emap}
        current = nxt
    return current, total_vmap, total_emap


def _gain_minor_key(result):
    mg, vmap, emap = result
    g = mg.graph
    return (g.n, g.edges, g.edge_names, g.vertex_names, mg.gains, vmap, emap)


def test_induced_gain_matches_one_link_at_a_time(monkeypatch):
    # every contract / delete / keep labelling of the edges
    joint_calls = []
    contract_loops = MultiGraph.contract_loops

    def counting(self, pending, balanced):
        result = contract_loops(self, pending, balanced)
        joint_calls.extend(result[2])
        return result

    monkeypatch.setattr(MultiGraph, "contract_loops", counting)
    rng = random.Random(1)
    graphs = list(catalog.multigraphs_up_to_iso(4, 5))
    for _ in range(10):  # loops from the start
        n, m = rng.randint(1, 3), rng.randint(4, 5)
        graphs.append(MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]))
    pairs = joints = 0
    for g in graphs:
        for group in (CyclicGroup(3), MultiplicativeGroup(5), AdditiveGroup(4)):
            gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})
            for labels in product((None, "contract", "delete"), repeat=g.m):
                K = {e for e, x in enumerate(labels) if x == "contract"}
                D = {e for e, x in enumerate(labels) if x == "delete"}
                before = len(joint_calls)
                got = _gain_minor_key(induced_gain(gg, K, D))
                assert got == _gain_minor_key(_reference_induced_gain(gg, K, D))
                pairs += 1
                joints += len(joint_calls) > before
    assert pairs > 10000 and joints > 1000


def test_induced_gain_contracts_a_link_forest_in_one_minor(monkeypatch):
    calls = []
    minor = MultiGraph.minor

    def counting(self, contract, delete):
        calls.append((contract, delete))
        return minor(self, contract, delete)

    monkeypatch.setattr(MultiGraph, "minor", counting)
    k4 = catalog.graph_k4()
    gg = GainGraph(k4, CyclicGroup(3), {e: e % 3 for e in range(k4.m)})
    mg, _, _ = induced_gain(gg, k4.spanning_forest(), set())
    assert len(calls) == 1
    assert mg.graph.n == 1 and mg.graph.m == 3


def test_contraction_preserves_inequivalence():
    g = two_c3()
    group = CyclicGroup(3)
    gfs = list(normalized_gain_functions(g, group))
    rng = random.Random(9)
    forest = g.spanning_forest()
    for _ in range(15):
        i, j = rng.randrange(len(gfs)), rng.randrange(len(gfs))
        if i == j:
            continue
        m1, _, _ = induced_gain(gfs[i], set(forest), set())
        m2, _, _ = induced_gain(gfs[j], set(forest), set())
        assert switching_equivalent(m1, m2) is None


def test_group_mismatch_errors():
    g = two_c3()
    a = GainGraph(g, MultiplicativeGroup(5), {e: 1 for e in range(6)})
    b = GainGraph(g, MultiplicativeGroup(4), {e: 1 for e in range(6)})
    with pytest.raises(GroupMismatch):
        switching_equivalent(a, b)
    with pytest.raises(GroupMismatch):
        switching_scaling_equivalent(a, a)  # not additive


def test_graph_mismatch_errors():
    a = GainGraph(two_c3(), CyclicGroup(2), {e: 0 for e in range(6)})
    b = GainGraph(catalog.graph_k4(), CyclicGroup(2), {e: 0 for e in range(6)})
    with pytest.raises(GraphMismatch):
        switching_equivalent(a, b)


def _realizations_by_induced_bias(omega, group):
    """The filter `realizations` replaced: the whole induced bias of every
    normalized gain function, compared as a set."""
    return [gg for gg in normalized_gain_functions(omega.graph, group)
            if induced_bias(gg).balanced == omega.balanced]


def test_realizations_match_the_induced_bias_filter():
    cases = list(catalog.biased_family(4, 6))
    cases += [nb.omega for nb in catalog.base_graphs() + catalog.contracted_tubes()]
    compared = found = 0
    for group in (MultiplicativeGroup(3), MultiplicativeGroup(4), AdditiveGroup(3)):
        for om in cases:
            g = om.graph
            if len(group.elements) ** (g.m - len(g.spanning_forest())) > 3000:
                continue
            fast = realizations(om, group)
            assert [gg.gains for gg in fast] == [
                gg.gains for gg in _realizations_by_induced_bias(om, group)]
            compared += 1
            found += len(fast)
    assert (compared, found) == (699, 960)


def test_realizations_do_not_revalidate_cycle_walks(monkeypatch):
    # cycle walks come from graph.cycles and chain by construction
    calls = []
    real_check_walk = MultiGraph.check_walk

    def counted_check_walk(self, walk):
        calls.append(walk)
        return real_check_walk(self, walk)

    monkeypatch.setattr(MultiGraph, "check_walk", counted_check_walk)
    b0 = catalog.tube("B_0").omega
    reps = realizations(b0, MultiplicativeGroup(5))
    assert reps and calls == []
    assert induced_bias(reps[0]).balanced == b0.balanced and calls == []
    walk_gain(reps[0], b0.graph.cycles()[0].walk)
    assert len(calls) == 1  # the public walk_gain still validates


def test_realizations_of_a_non_cycle_balanced_set_are_empty():
    g = two_c3()
    om = BiasedGraph(g, [frozenset([0])], check=False)  # one link is no cycle
    assert _realizations_by_induced_bias(om, CyclicGroup(2)) == []
    assert realizations(om, CyclicGroup(2)) == []


def _fresh(omega):
    """The same biased graph as a new object, with nothing built on it yet."""
    return BiasedGraph(omega.graph, omega.balanced, check=False)


@pytest.mark.parametrize("group", [MultiplicativeGroup(5), AdditiveGroup(5)], ids=repr)
def test_realizations_memo_matches_a_fresh_build(group):
    for nb in catalog.base_graphs():
        om = nb.omega
        first = realizations(om, group)
        assert realizations(om, group) == first == realizations(_fresh(om), group), nb.name
        first.clear()  # a caller's list is its own
        assert realizations(om, group) == realizations(_fresh(om), group), nb.name
    assert sum(len(realizations(nb.omega, group)) for nb in catalog.base_graphs()) > 0


def test_realizations_memo_does_not_outlive_its_biased_graph():
    om = _fresh(catalog.tube("B_0").omega)
    reps = realizations(om, MultiplicativeGroup(5))
    ref = weakref.ref(om)
    del om
    assert ref() is None
    assert reps and induced_bias(reps[0]).balanced == catalog.tube("B_0").omega.balanced
