import dataclasses
import inspect
import json
import random
from collections import Counter
from itertools import combinations, product

import pytest

from bmlab import canonical, catalog, formats, verify
from bmlab.bias import (
    BiasedGraph,
    biased_isomorphic,
    biased_minor,
    find_biased_subdivision,
    is_tangled,
)
from bmlab.canonical import (
    FRAME,
    LIFT,
    CanonicalizeResult,
    frame_matrix,
    gain_classes,
    kind_parts,
    lift_matrix,
)
from bmlab.errors import StructureMissing, UnknownClaim
from bmlab.fields import gf
from bmlab.gains import (
    AdditiveGroup,
    CyclicGroup,
    GainGraph,
    MultiplicativeGroup,
    fundamental_walks,
    induced_bias,
    induced_gain,
    normalized_gain_functions,
    realizations,
    switch,
    switching_equivalent,
    walk_gain,
)
from bmlab.graph import MultiGraph, OrientedEdge
from bmlab.linalg import FieldMatrix, ProjWitness, rref, vector_matroid
from bmlab.matroid import (
    extend_with_joint,
    frame_equals_lift,
    frame_matroid,
    lift_matroid,
    matroids_equal,
    rank_table,
)
from bmlab.verify import _contraction_failures, all_claims, run_claim
from oracles import (
    biconditional_by_loop,
    biconditional_cross_by_loop,
    contraction_classes_by_minors,
    criterion_by_loop,
    drop_isolated,
    extension_over_every_cut_set,
    joint_extension,
    main3_round_trips_by_loop,
    main4_round_trips_by_loop,
    subdivide_edge_by_hand,
)


def test_registry_names():
    names = all_claims()
    assert len(names) == 35
    for expected in ("seven-dwarves", "main2", "main3-roundtrip",
                     "tangled-minor", "allreps-2c3", "rollup-frame"):
        assert expected in names


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        run_claim("not-a-claim")


def test_report_json_round_trip():
    rep = run_claim("base-count")
    blob = json.loads(formats.dumps(rep.to_json()))
    assert blob["status"] == "pass"
    assert blob["claim"] == "base-count"


def test_seeded_claims_deterministic():
    a = run_claim("canonical-frame", samples=25, seed=99)
    b = run_claim("canonical-frame", samples=25, seed=99)
    assert a.status == b.status == "pass"
    assert a.counts == b.counts


FIELDS = verify.DEFAULT_FIELDS
SEED = verify.DEFAULT_SEED
# every claim's options, in order, with their defaults: `bmlab verify` and
# the benchmark read them off the signature
CLAIM_OPTIONS = {
    **dict.fromkeys(["seven-dwarves", "2c3-proper-count", "tube-count", "base-count",
                     "contraction-inequiv", "deltawye-gains", "inequivalence-localized",
                     "rollup-frame"], {}),
    **dict.fromkeys(["canonical-frame", "canonical-lift"], {"seed": SEED, "samples": 200, "q": 5}),
    **dict.fromkeys(["lemma-2c3-frame", "lemma-k4-frame", "lemma-tube-frame"],
                    {"fields": FIELDS, "seed": SEED}),
    **dict.fromkeys(["lemma-2c3-lift", "lemma-2c3-frame-vs-lift", "lemma-k4-lift",
                     "lemma-k4-frame-vs-lift", "lemma-tube-lift", "u2-criterion",
                     "u3-lift-criterion"], {"fields": FIELDS}),
    **dict.fromkeys(["allreps-2c3", "allreps-k4", "allreps-tube-frame", "allreps-tube-lift",
                     "subdivision-classes"], {"q": 4}),
    **dict.fromkeys(["tangled-minor", "tangled-subgraph"], {"max_vertices": 5, "max_edges": 8}),
    **dict.fromkeys(["tangled-no-extend", "deltawye-matroid"], {"fields": (4, 5)}),
    "main2": {"fields": (4, 5), "seed": SEED},
    "main3-roundtrip": {"seed": SEED, "samples": 100, "q": 5},
    "main4-samples": {"seed": SEED, "samples": 30, "q": 5},
    "allreps-contracted-tube": {"q": 5},
    "allreps-t2prime-splits": {"q": 4, "seed": SEED, "samples": 12},
    "unique-balancing-subdivision": {"max_vertices": 4, "max_edges": 7, "seed": SEED,
                                     "samples": 40},
}


def test_claims_declare_their_options():
    assert sorted(CLAIM_OPTIONS) == all_claims()
    for name, fn in verify.CLAIMS.items():
        params = inspect.signature(fn).parameters.values()
        assert all(p.kind == inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params), name
        assert [(p.name, p.default) for p in params] == list(CLAIM_OPTIONS[name].items()), name


def test_undeclared_option_is_an_error():
    for name in all_claims():
        with pytest.raises(TypeError):
            run_claim(name, bogus=1)


def test_fail_reports_carry_witnesses(monkeypatch):
    monkeypatch.setattr(verify, "CLAIMS", dict(verify.CLAIMS))

    @verify.claim("twelve-failures")
    def twelve_failures():
        return [{"k": k} for k in range(12)], {"checked": 12}

    rep = run_claim("twelve-failures")
    assert rep.status == "fail"
    assert rep.witnesses == [{"k": k} for k in range(10)]
    assert rep.counts == {"checked": 12}


def test_tangled_subgraph_counts_the_members_it_checks(monkeypatch):
    real = catalog.tangled_family
    # two 2-cycles sharing vertex 1: a cut vertex, so not vertically 2-connected
    bowtie = BiasedGraph(MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)]), [])
    assert not bowtie.is_vertically_k_connected(2)[0]
    family = real(4, 6)
    assert all(om.is_vertically_k_connected(2)[0] for om in family)
    monkeypatch.setattr(catalog, "tangled_family", lambda mv, me: real(mv, me) + [bowtie])
    rep = run_claim("tangled-subgraph", max_vertices=4, max_edges=6)
    assert rep.status == "pass"
    assert rep.counts["tangled_2connected"] == len(family) == 10


def test_tangled_minor_negative_control(monkeypatch):
    # without the 2C3 targets some tangled graphs have no target minor
    k4_targets = [nb for nb in verify.FAMILIES["tangled-targets"]() if nb.omega.graph.n == 4]
    assert 0 < len(k4_targets) < len(verify.FAMILIES["tangled-targets"]())
    monkeypatch.setitem(verify.FAMILIES, "tangled-targets", lambda: k4_targets)
    rep = run_claim("tangled-minor", max_vertices=4, max_edges=6)
    assert rep.status == "fail"
    assert len(rep.witnesses) == 6
    assert all(w["edges"] and "balanced" in w for w in rep.witnesses)


def test_tangled_subgraph_negative_control(monkeypatch):
    # without the biased 2C3 patterns the 2C3 members contain no pattern
    patterns = verify.FAMILIES["subdivision-patterns"]()
    kept = [nb for nb in patterns if nb.omega.graph.n > 3]
    assert 0 < len(kept) < len(patterns)
    monkeypatch.setitem(verify.FAMILIES, "subdivision-patterns", lambda: kept)
    rep = run_claim("tangled-subgraph", max_vertices=4, max_edges=6)
    assert rep.status == "fail"
    assert len(rep.witnesses) == 6
    assert all(w["edges"] and "balanced" in w for w in rep.witnesses)
    assert all(len(w["edges"]) == 6 and max(map(max, w["edges"])) == 2
               for w in rep.witnesses)


def test_tube_minor_property_sampled():
    """Vertically 2-connected biased graphs with two vertex-disjoint
    non-loop unbalanced cycles contain a subdivision of B_0, B_1 or B_2
    (seeded sampled property over random gain-graph biases)."""
    rng = random.Random(424)
    tubes = [nb.omega for nb in catalog.classify_tube_proper()]
    checked = 0
    tried = 0
    while checked < 25 and tried < 4000:
        tried += 1
        n = rng.randint(4, 8)
        m = rng.randint(n, min(11, n + 5))
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            edges.append((u, v))
        g = MultiGraph(n, edges)
        if not g.is_vertically_k_connected(2)[0]:
            continue
        group = CyclicGroup(rng.choice((2, 3)))
        gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(m)})
        om = induced_bias(gg)
        _, witness = is_tangled(om)
        if witness is None:
            continue
        checked += 1
        found = any(
            nb.graph.m <= g.m and find_biased_subdivision(om, nb) is not None
            for nb in tubes
        )
        assert found, (g.edges, sorted(map(sorted, om.balanced)))
    assert checked >= 10  # the sampler actually exercised the hypothesis


def _pairwise_equivalent(g, gfs):
    """Brute force: (forest, i, j) for every nonempty link forest and pair
    whose contracted gain functions are switching equivalent."""
    out = set()
    for F in g.link_forests():
        if not F:
            continue
        for i, j in combinations(range(len(gfs)), 2):
            m1, _, _ = induced_gain(gfs[i], F, set())
            m2, _, _ = induced_gain(gfs[j], F, set())
            if switching_equivalent(m1, m2) is not None:
                out.add((tuple(sorted(F)), i, j))
    return out


def _found(failures):
    return {(tuple(f["forest"]), f["i"], f["j"]) for f in failures}


def test_contraction_failures_agree_with_pairwise_decisions():
    g = catalog.tube("B_0").omega.graph
    gfs = list(normalized_gain_functions(g, CyclicGroup(2)))
    pairs, failures = _contraction_failures(g, gfs)
    forests = sum(1 for F in g.link_forests() if F)
    assert pairs == forests * len(gfs) * (len(gfs) - 1) // 2
    assert _found(failures) == _pairwise_equivalent(g, gfs) == set()


def test_contraction_failures_negative_control():
    """A switched copy of one gain function is equivalent to it on every
    contraction; each such pair is reported with a checked witness."""
    g = catalog.tube("B_0").omega.graph
    gfs = list(normalized_gain_functions(g, CyclicGroup(3)))[:6]
    gfs.append(switch(gfs[4], {1: 2, 3: 1}))
    assert gfs[6].gains != gfs[4].gains
    pairs, failures = _contraction_failures(g, gfs)
    assert failures
    assert _found(failures) == _pairwise_equivalent(g, gfs)
    assert {(f["i"], f["j"]) for f in failures} == {(4, 6)}
    for f in failures:
        m1, _, _ = induced_gain(gfs[f["i"]], f["forest"], set())
        m2, _, _ = induced_gain(gfs[f["j"]], f["forest"], set())
        assert switch(m1, f["eta"]).gains == m2.gains


def test_contraction_classes_match_the_minor_oracle_on_every_base_graph():
    # every base graph (K_4, 2C_3 and the tube), Z_2 and Z_3, every link
    # forest (the empty one too)
    cases = 0
    for g in dict.fromkeys(nb.omega.graph for nb in catalog.base_graphs()):
        for group in (CyclicGroup(2), CyclicGroup(3)):
            gfs = list(normalized_gain_functions(g, group))
            for F in g.link_forests():
                got = verify._contraction_classes(g, gfs, F)
                assert got == contraction_classes_by_minors(gfs, F), (g, group, F)
                cases += 1
    assert cases == 178


def test_contraction_classes_match_the_minor_oracle_on_random_gains():
    # gain functions that are not normalized, on random multigraphs with
    # loops and parallel edges; each also switched, so blocks are nontrivial
    rng = random.Random(23)
    groups = (CyclicGroup(2), CyclicGroup(4), MultiplicativeGroup(5), AdditiveGroup(4))
    shapes = {"loops": 0, "parallel": 0, "merged": 0}
    for _ in range(80):
        g = verify._random_multigraph(rng, max_vertices=5, max_edges=7)
        group = rng.choice(groups)
        gfs = []
        for _ in range(4):
            gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})
            eta = {v: rng.choice(group.elements) for v in range(g.n)}
            gfs += [gg, switch(gg, eta)]
        rng.shuffle(gfs)
        for F in g.link_forests():
            got = verify._contraction_classes(g, gfs, F)
            assert got == contraction_classes_by_minors(gfs, F), (g.edges, group, F)
            shapes["merged"] += len(got) < len(gfs) // 2
        shapes["loops"] += any(u == v for u, v in g.edges)
        shapes["parallel"] += len(set(g.edges)) < g.m
    assert min(shapes.values()) > 10, shapes


def test_fundamental_walks_are_closed_walks_around_one_edge_outside_the_forest():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 2), (3, 1), (1, 3), (0, 3)])
    walks = fundamental_walks(g, {0, 6})
    tree = {0, 6, 1}  # the forest first, then the other edges in id order
    assert [w[0] for w in walks] == [OrientedEdge(e) for e in (2, 3, 4, 5)]
    for w in walks:
        g.check_walk(w)
        assert g.tail(w[0]) == g.head(w[-1])
        assert {oe.edge for oe in w[1:]} <= tree
    assert walks[1] == [OrientedEdge(3)]  # a loop alone
    with pytest.raises(ValueError):
        fundamental_walks(g, {0, 1, 2})


def test_inequivalence_localized_negative_control(monkeypatch):
    """A switched copy is equivalent to its original on every minor, so the
    localization certificate finds no inequivalence on any route."""
    minor_sizes = []

    def recording(gg, contract, delete):
        result = induced_gain(gg, contract, delete)
        minor_sizes.append(result[0].graph.m)
        return result

    monkeypatch.setattr(verify, "induced_gain", recording)
    rng = random.Random(3)
    group = CyclicGroup(3)
    tangled = []
    for om in catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                    catalog.properly_unbalanced):
        for phi in realizations(om, group)[:1]:
            psi = switch(phi, {v: rng.choice(group.elements) for v in range(om.graph.n)})
            assert psi.gains != phi.gains
            assert not verify._localization_certificate(om, phi, psi)
            tangled.append(is_tangled(om)[0])
    assert len(tangled) >= 5 and True in tangled and False in tangled
    assert 6 in minor_sizes and 4 in minor_sizes  # base and U_3 routes ran


def _all_link_minors(om, keep_edges):
    """Every (K, D, minor) with keep_edges kept edges, in link_minors' order."""
    g = om.graph
    for K in sorted(g.link_forests(), key=lambda f: (len(f), sorted(f))):
        rest = [e for e in range(g.m) if e not in K]
        for keep in combinations(rest, keep_edges):
            D = frozenset(rest) - frozenset(keep)
            yield K, D, biased_minor(om, K, D, check=False)


def _parent_localization_certificate(om, phi, psi):
    """The certificate that filtered every built minor itself: by vertex
    count and isomorphism, or for U_2 by two parallel links."""
    for nb in catalog.base_graphs():
        for K, D, mres in _all_link_minors(om, nb.omega.graph.m):
            minor = drop_isolated(mres.omega)
            if minor.graph.n != nb.omega.graph.n:
                continue
            if not biased_isomorphic(minor, drop_isolated(nb.omega)):
                continue
            mphi, _, _ = induced_gain(phi, K, D)
            mpsi, _, _ = induced_gain(psi, K, D)
            if switching_equivalent(mphi, mpsi) is None:
                return True
    if is_tangled(om)[0]:
        return False
    u3 = catalog.u3().omega
    found_u3 = False
    for K, D, mres in _all_link_minors(om, 4):
        if not biased_isomorphic(drop_isolated(mres.omega), drop_isolated(u3)):
            continue
        mphi, _, _ = induced_gain(phi, K, D)
        mpsi, _, _ = induced_gain(psi, K, D)
        mg = mres.omega.graph
        links = [e for e in range(mg.m) if not mg.is_loop(e)]
        th = MultiGraph(mg.n, [mg.edges[e] for e in links], [mg.edge_names[e] for e in links])
        tphi = GainGraph(th, mphi.group, {k: mphi.gains[e] for k, e in enumerate(links)})
        tpsi = GainGraph(th, mpsi.group, {k: mpsi.gains[e] for k, e in enumerate(links)})
        if switching_equivalent(tphi, tpsi) is None:
            found_u3 = True
            break
    if not found_u3:
        return False
    for K, D, mres in _all_link_minors(om, 2):
        mg = mres.omega.graph
        if mg.is_loop(0) or mg.is_loop(1) or set(mg.edges[0]) != set(mg.edges[1]):
            continue
        mphi, _, _ = induced_gain(phi, K, D)
        mpsi, _, _ = induced_gain(psi, K, D)
        cyc = mg.cycles()[0]
        if walk_gain(mphi, cyc.walk) != walk_gain(mpsi, cyc.walk):
            return True
    return False


def test_localization_certificate_matches_parent(monkeypatch):
    """The claim's (4, 7) instances, each inequivalent pair and each
    (phi, phi), certified as the filtering loops did; without the base
    graphs only the U_3 and U_2 routes can certify."""
    instances = []
    for om in catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                    catalog.properly_unbalanced):
        for group in (CyclicGroup(2), CyclicGroup(3)):
            reps = realizations(om, group)
            instances += [(om, phi, psi) for phi, psi in combinations(reps, 2)]
            instances += [(om, phi, phi) for phi in reps]
    assert len(instances) == 101
    certified = []
    for base in (True, False):
        if not base:
            monkeypatch.setattr(catalog, "base_graphs", lambda: ())
        got = [verify._localization_certificate(*x) for x in instances]
        assert got == [_parent_localization_certificate(*x) for x in instances]
        certified.append(sum(got))
    assert certified == [30, 10]


def test_u3_and_u2_route_certifies_the_non_tangled_pairs_at_4_8(monkeypatch):
    """The route the claim never reaches (at (4, 7) the base graphs certify
    every pair), run alone on every pair of Z_2 and Z_3 realizations at
    (4, 8): it certifies only on non-tangled graphs, as the theorem needs."""
    family = list(catalog.biased_family(4, 8, catalog.vertically_2_connected,
                                        catalog.properly_unbalanced))
    pairs = [(is_tangled(om)[0], om, phi, psi)
             for om in family
             for group in (CyclicGroup(2), CyclicGroup(3))
             for phi, psi in combinations(realizations(om, group), 2)]
    monkeypatch.setattr(catalog, "base_graphs", lambda: ())
    certified = {True: 0, False: 0}
    for tangled, om, phi, psi in pairs:
        certified[tangled] += verify._localization_certificate(om, phi, psi)
    assert len(family) == 649 and len(pairs) == 161
    assert sum(not tangled for tangled, *_ in pairs) == 83
    assert certified == {True: 0, False: 66}


def test_inequivalence_localized_negative_control_claim(monkeypatch):
    """Every instance a pair (phi, phi): no minor tells them apart."""
    real = verify.realizations
    monkeypatch.setattr(verify, "realizations", lambda om, group: real(om, group)[:1] * 2)
    rep = run_claim("inequivalence-localized")
    assert rep.status == "fail"
    assert rep.counts == {"pairs_checked": 41}
    assert len(rep.witnesses) == 10
    assert all(w["phi"] == w["psi"] and w["edges"] for w in rep.witnesses)


@pytest.mark.parametrize("name, q", [("D_{0,0}", 5), ("D_{0,2}", 4)])
def test_extension_exists_positive_control(name, q):
    # a joint column at vertex 0 extends a frame matrix to the frame matroid
    om = catalog.dwarf(name).omega
    A = frame_matrix(realizations(om, MultiplicativeGroup(q))[0]).matrix
    ext = extend_with_joint(om, vertex=0, name="l1")
    assert verify._extension_exists(A, frame_matroid(ext), gf(q))


def _extension_exists_brute(A, target_oracle, f):
    """The exhaustive search: every nonzero column v, each compared with
    the target on all subsets (the oracle for `verify._extension_exists`)."""
    labels = list(A.col_labels) + ["l1"]
    for vec in product(range(f.q), repeat=A.nrows):
        if all(x == 0 for x in vec):
            continue
        rows = [list(r) + [vec[i]] for i, r in enumerate(A.rows)]
        B = FieldMatrix(f, rows, A.row_labels, labels)
        if matroids_equal(vector_matroid(B), target_oracle)[0]:
            return True
    return False


def test_extension_exists_matches_brute_force():
    """Frame and lift matrices of every tangled target over GF(3), a joint
    at either vertex: none extends to the other kind's matroid, and each
    extends to its own kind's."""
    f = gf(3)
    answers = []
    for nb in verify.FAMILIES["tangled-targets"]():
        om = nb.omega
        frames = [frame_matrix(gg).matrix for gg in realizations(om, MultiplicativeGroup(3))[:2]]
        lifts = [lift_matrix(gg).matrix for gg in realizations(om, AdditiveGroup(3))[:2]]
        for vertex in (0, 1):
            ext = extend_with_joint(om, vertex=vertex, name="l1")
            F, L = frame_matroid(ext), lift_matroid(ext)
            cases = [(A, L, F) for A in frames] + [(A, F, L) for A in lifts]
            for A, other, same in cases:
                for target, expected in ((other, False), (same, True)):
                    found = verify._extension_exists(A, target, f)
                    assert found == _extension_exists_brute(A, target, f) == expected
                    answers.append(found)
    assert answers.count(False) == answers.count(True) == 16


def _row_space(f, rows):
    """The nonzero rows of the reduced echelon form of rows: one tuple per
    subspace, () for the zero space."""
    if not rows:
        return ()
    R, _, piv = rref(FieldMatrix(f, rows))
    return R.rows[:len(piv)]


def test_cut_span_and_answer_match_every_set_of_the_cut():
    """_cut_span keeps only the inclusion-minimal sets of the modular cut:
    its W spans the space that every set of the cut gives, and
    _extension_exists answers as the extension over every set does.  On
    the first two realizations per kind of every tangled target, a joint
    at either vertex, over GF(3), GF(4) and GF(5), each matrix extended
    towards its own kind's matroid (it extends) and the other's (never)."""
    seen = Counter()
    for nb in verify.FAMILIES["tangled-targets"]():
        om = nb.omega
        for q in (3, 4, 5):
            f = gf(q)
            mats = {kind: [kind_parts(kind).matrix(gg).matrix
                           for gg in realizations(om, kind_parts(kind).group(q))[:2]]
                    for kind in (FRAME, LIFT)}
            for vertex in (0, 1):
                ext = extend_with_joint(om, vertex=vertex, name="l1")
                for kind, other in product((FRAME, LIFT), repeat=2):
                    target = kind_parts(other).matroid(ext)
                    for A in mats[kind]:
                        want, W = extension_over_every_cut_set(A, target, f)
                        got = verify._extension_exists(A, target, f)
                        cut = verify._cut_span(A, rank_table(vector_matroid(A)),
                                               rank_table(target), f)
                        assert got == want, (nb.name, q, vertex, kind, other)
                        assert _row_space(f, cut) == _row_space(f, W), (nb.name, q, kind, other)
                        seen[kind == other, got, len(W)] += 1
    # W is a line, except for frame matrices towards the lift matroid,
    # where it is 0 (no column but zero lies in every span of the cut)
    assert seen == {(True, True, 1): 120, (False, False, 1): 68, (False, False, 0): 52}


def test_extension_to_a_loop_does_not_exist():
    # a balanced loop l1 is a loop of the frame matroid: only v = 0 gives it
    om = catalog.dwarf("D_{0,2}").omega
    A = frame_matrix(realizations(om, MultiplicativeGroup(4))[0]).matrix
    ext = extend_with_joint(om, vertex=0, name="l1")
    loop = BiasedGraph(ext.graph, set(ext.balanced) | {frozenset([om.graph.m])})
    target = frame_matroid(loop)
    assert target.rank(["l1"]) == 0
    assert not verify._extension_exists(A, target, gf(4))
    assert not _extension_exists_brute(A, target, gf(4))


def test_tangled_no_extend_negative_control(monkeypatch):
    # with the frame matroid as the lift target, every frame matrix extends
    monkeypatch.setattr(canonical, "lift_matroid", frame_matroid)
    rep = run_claim("tangled-no-extend", fields=(3,))
    assert rep.status == "fail"
    assert rep.counts["extensions_checked"] == 16
    assert len(rep.witnesses) == 4
    assert all(w["why"] == "frame extended to lift" for w in rep.witnesses)


def _drop_last_class(M, q, **kwargs):
    """An enumerator that loses the last class of every matroid."""
    return canonical.enumerate_representations(M, q, **kwargs)[:-1]


def _drop_last_subdivided_class(M, q, **kwargs):
    """An enumerator that loses the last class of a one-edge subdivision
    only: the new edge's label is the old one's with a trailing b."""
    classes = canonical.enumerate_representations(M, q, **kwargs)
    return classes[:-1] if M.labels[-1].endswith("b") else classes


ALLREPS_COUNT_WITNESS = [{"graph", "q", "classes", "expected"}]


def _repeat_first_function(graph, group):
    """normalized_gain_functions with its first function listed twice."""
    gfs = list(normalized_gain_functions(graph, group))
    return gfs[:1] + gfs


def _drop_last_realization_on_odd_order(omega, group):
    """realizations that loses its last one on an odd number of vertices."""
    reps = realizations(omega, group)
    return reps[:-1] if omega.graph.n % 2 else reps


def _drop_last_member(builder):
    """A catalog builder that loses its last member."""
    return lambda: builder()[:-1]


NEGATIVE_CONTROLS = [
    # (claim, (owner, attribute, replacement), witness key sets it must produce)
    ("canonical-frame", (canonical, "frame_matroid", lift_matroid),
     [{"sample", "edges", "gains", "subset"}]),
    ("canonical-lift",
     (canonical, "complete_lift_matroid", lambda om: frame_matroid(joint_extension(om))),
     [{"sample", "edges", "gains", "subset"}]),
    ("deltawye-matroid", (verify, "delta_y_matrix", lambda A, X: A),
     [{"graph", "q", "kind", "subset"}]),
    ("main3-roundtrip", (canonical, "switching_scaling_equivalent", lambda a, b: None),
     [{"graph", "kind", "why"}]),
    ("main4-samples", (ProjWitness, "verify", lambda self, A, B: False),
     [{"graph", "kind", "got", "status", "reason"}]),
    ("allreps-contracted-tube",
     (verify, "canonicalize_representation",
      lambda A, om, hint: CanonicalizeResult(status="undecided", reason="sabotaged")),
     [{"graph", "class", "why"}]),
    ("allreps-t2prime-splits", (verify, "y_delta", lambda om, v: (om, None)),
     [{"graph", "why", "subset"}]),
    # the star of a triad is no triangle of the unchanged matrix
    ("allreps-t2prime-splits", (verify, "y_delta_matrix", lambda A, star: A),
     [{"graph", "why", "subset"}, {"graph", "why", "reason"}]),
    # D_{1,0} alone leaves instances with no subdivision to find
    ("unique-balancing-subdivision", (catalog, "contracted_tubes", lambda: []),
     [{"edges", "balanced"}]),
    # the independent count of gain-function classes catches a lost class
    ("allreps-2c3", (verify, "enumerate_representations", _drop_last_class),
     ALLREPS_COUNT_WITNESS),
    ("allreps-k4", (verify, "enumerate_representations", _drop_last_class),
     ALLREPS_COUNT_WITNESS),
    ("allreps-tube-lift", (verify, "enumerate_representations", _drop_last_class),
     ALLREPS_COUNT_WITNESS),
    ("subdivision-classes", (verify, "enumerate_representations", _drop_last_subdivided_class),
     [{"graph", "q", "counts"}]),
    # a repeated function is equivalent to itself on every contraction
    ("contraction-inequiv", (verify, "normalized_gain_functions", _repeat_first_function),
     [{"edges", "forest", "group", "i", "j", "phi", "psi", "eta"}]),
    ("seven-dwarves", (catalog, "classify_k4", _drop_last_member(catalog.classify_k4)),
     [{"got"}]),
    ("2c3-proper-count",
     (catalog, "classify_2c3_proper", _drop_last_member(catalog.classify_2c3_proper)),
     [{"got"}]),
    ("tube-count", (catalog, "classify_tube_proper", _drop_last_member(catalog.classify_tube_proper)),
     [{"got"}]),
    ("base-count", (catalog, "base_graphs", _drop_last_member(catalog.base_graphs)),
     [{"got"}]),
    # Delta-Y adds a vertex, so one side of each compared pair loses a realization
    ("deltawye-gains", (verify, "realizations", _drop_last_realization_on_odd_order),
     [{"graph", "group", "classes"}]),
    ("rollup-frame", (verify, "unroll", lambda om, u: om), [{"graph", "class", "why"}]),
]


@pytest.mark.parametrize("name, sabotage, keys", NEGATIVE_CONTROLS,
                         ids=["%s-%s" % (row[0], row[1][1]) for row in NEGATIVE_CONTROLS])
def test_rewritten_claims_fail_under_sabotage(monkeypatch, name, sabotage, keys):
    monkeypatch.setattr(*sabotage)
    rep = run_claim(name)
    assert rep.status == "fail"
    assert {frozenset(w) for w in rep.witnesses} == set(map(frozenset, keys))


def test_allreps_negative_control(monkeypatch):
    # an enumerator that loses one class per graph is caught by the
    # independent count of gain-function classes
    real = verify.enumerate_representations
    monkeypatch.setattr(verify, "enumerate_representations",
                        lambda *args, **kwargs: real(*args, **kwargs)[:-1])
    rep = run_claim("allreps-tube-frame")
    assert rep.status == "fail"
    assert [w["graph"] for w in rep.witnesses] == ["B_1", "B_2"]  # B_0 has none
    assert all(w["classes"] == w["expected"] - 1 for w in rep.witnesses)


def test_theorem_2_on_every_biased_graph_with_5_vertices_and_8_edges():
    # every properly unbalanced, vertically 2-connected biased graph on 5
    # vertices and 8 edges, up to isomorphism: rank-5 frame matroids, 41 of
    # them 3-connected.  Over GF(4) every representation is canonical, and
    # the classes are as many as the gain classes
    family = list(catalog.biased_family(
        5, 8, lambda g: g.n == 5 and g.m == 8 and catalog.vertically_2_connected(g),
        catalog.properly_unbalanced))
    assert len(family) == 280
    named = [catalog.NamedBiasedGraph("G%d" % i, om, "") for i, om in enumerate(family)]
    failures, counts = verify._allreps(named, 4)
    assert failures == []
    assert sum(c["classes"] for c in counts["per_graph"].values()) == 342
    # the lift side, where the 138 graphs with F = L have frame forms too
    failures, counts = verify._allreps(named, 4, canonical.LIFT)
    assert failures == []
    per_graph = counts["per_graph"].values()
    assert sum(c["classes"] for c in per_graph) == 411
    assert sum("frame_classes" in c for c in per_graph) == 138


@pytest.mark.parametrize("q", [4, 5])
def test_allreps_counts_the_other_kind_on_both_sides_where_frame_equals_lift(q):
    # F = L on some proper 2C3s and K4s: their lift classes canonicalize as
    # frame forms too, which the lift side counts as the frame side does
    named = list(catalog.classify_2c3_proper()) + list(verify.FAMILIES["proper-k4"]())
    frame_failures, frame_counts = verify._allreps(named, q)
    lift_failures, lift_counts = verify._allreps(named, q, canonical.LIFT)
    assert frame_failures == [] and lift_failures == []
    frame, lift = frame_counts["per_graph"], lift_counts["per_graph"]
    assert {k: c["classes"] for k, c in lift.items()} == {k: c["classes"] for k, c in frame.items()}
    both = {k for k, c in lift.items() if "frame_classes" in c}
    assert both and all(frame[k]["lift_classes"] == lift[k]["lift_classes"] for k in both)


def _no_nabla(om, v):
    raise StructureMissing("sabotaged")


def test_t2prime_splits_reports_each_graph_without_a_usable_vertex(monkeypatch):
    monkeypatch.setattr(verify, "y_delta", _no_nabla)
    rep = run_claim("allreps-t2prime-splits")
    assert rep.status == "fail"
    assert rep.witnesses == [{"graph": catalog.t2_prime_split(i).name,
                              "why": "no usable degree-3 vertex"} for i in (1, 2, 3)]


def test_t2prime_splits_without_a_realization_check_only_the_vertex():
    # GF(3)^x = {1, 2} realizes no T'_{2,i}: no matrix to exchange, no
    # round trip, and the nabla vertex is still there
    rep = run_claim("allreps-t2prime-splits", q=3)
    assert rep.status == "pass"
    assert all(c == {"frame_classes": 0} for c in rep.counts["per_graph"].values())


ROUND_TRIP_LOOPS = {"main3-roundtrip": main3_round_trips_by_loop,
                    "main4-samples": main4_round_trips_by_loop}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_LOOPS))
def test_round_trips_scramble_what_the_claims_own_loops_did(monkeypatch, name):
    # the (graph, kind, gains) of every round trip, in order, as the loop
    # each claim ran before its cases went through _round_trips
    real = verify._round_trip
    calls = []

    def recording(rng, f, graph, om, kind, gg):
        calls.append((graph, kind, gg.gains))
        return real(rng, f, graph, om, kind, gg)

    monkeypatch.setattr(verify, "_round_trip", recording)
    samples = CLAIM_OPTIONS[name]["samples"]
    kinds = set()
    for seed, q in product((SEED, 3, 11), (3, 5, 7)):
        assert run_claim(name, seed=seed, q=q).status == "pass"
        got = calls[:]
        del calls[:]
        ROUND_TRIP_LOOPS[name](recording, seed, samples, q)
        assert got == calls and len(got) == samples, (seed, q)
        kinds |= {kind for _, kind, _ in got}
        del calls[:]
    assert kinds == {FRAME, LIFT}


def test_round_trips_draw_nothing_without_a_realization():
    # GF(2)^x is trivial and GF(2)^+ realizes none of B_0, D_{0,2}, T_0
    rep = run_claim("main3-roundtrip", q=2)
    assert rep.status == "pass"
    assert rep.counts == {"samples": 0, "q": 2}


def test_subdivide_edge_matches_the_hand_rebuild():
    omegas = [nb.omega for nb in catalog.classify_k4() + catalog.base_graphs()
              + catalog.contracted_tubes()]
    cases = [(om, e) for om in omegas for e in range(om.graph.m) if not om.graph.is_loop(e)]
    for om, e in cases:
        assert verify._subdivide_edge(om, e) == subdivide_edge_by_hand(om, e), (om, e)
    assert len(cases) == 135


def test_allreps_reports_why_a_class_has_no_canonical_form():
    # over GF(2), F of a link with a joint at each end is U_{2,3}; its one
    # class has no frame form, as GF(2)^x makes no loop unbalanced
    g = MultiGraph(2, [(0, 0), (0, 1), (1, 1)])
    nb = catalog.NamedBiasedGraph("joint-link-joint", BiasedGraph(g, []), "")
    failures, _ = verify._allreps([nb], 2)
    assert failures == [
        {"graph": nb.name, "q": 2, "classes": 1, "expected": 0},
        {"graph": nb.name, "q": 2, "class": 0, "why": "not canonicalizable",
         "kind": None, "reason": "frame: no frame shaping found"},
    ]
    assert verify._allreps([nb], 3)[0] == []  # GF(3)^x has -1


def test_theorem_2_fails_by_count_without_vertical_2_connectivity():
    # Theorem 2's hypothesis as its negative control: four parallel links,
    # then a link to a 2-cycle (cut vertices 0 and 2), no balanced cycle.  Over GF(4) its frame
    # matroid has 2 projective classes but no frame gain class, and F != L,
    # so none of its 6 lift gain classes counts on the frame side
    g = MultiGraph(4, [(0, 1)] * 4 + [(0, 2), (2, 3), (2, 3)])
    om = BiasedGraph(g, [])
    assert not catalog.vertically_2_connected(g)
    assert catalog.properly_unbalanced(om)
    assert not frame_equals_lift(om)
    assert verify._gain_class_count(om, 4, canonical.FRAME) == 0
    assert verify._gain_class_count(om, 4, canonical.LIFT) == 6
    nb = catalog.NamedBiasedGraph("surplus", om, "")
    failures, counts = verify._allreps([nb], 4)
    # the count is the evidence; the refusals after it are canonical's guard
    assert failures[0] == {"graph": "surplus", "q": 4, "classes": 2, "expected": 0}
    assert {w.get("reason") for w in failures[1:]} == {
        "canonicalization needs vertical 2-connectivity"}
    assert counts["per_graph"]["surplus"] == {"classes": 2, "frame_classes": 0,
                                              "lift_classes": 0}


def test_allreps_reports_a_class_of_the_wrong_kind(monkeypatch):
    # every lift class of the tubes relabelled as a frame class: the count
    # still matches, but each class is reported as being of the wrong kind
    real = verify.enumerate_representations
    monkeypatch.setattr(verify, "enumerate_representations", lambda *args, **kwargs: [
        dataclasses.replace(cls, kind="frame") for cls in real(*args, **kwargs)])
    rep = run_claim("allreps-tube-lift")
    assert rep.status == "fail"
    assert [(w["graph"], w["class"]) for w in rep.witnesses] == [
        ("B_0", 0), ("B_0", 1), ("B_1", 0), ("B_1", 1), ("B_2", 0)]
    assert all(w == {"graph": w["graph"], "q": 4, "class": w["class"], "why": "wrong kind",
                     "kind": "frame"} for w in rep.witnesses)


def _disagreements_oracle(keys, classes):
    """The pair loop that _disagreements replaced: every pair compared."""
    return [(i, j) for i, j in combinations(range(len(keys)), 2)
            if (keys[i] == keys[j]) != (classes[i] == classes[j])]


def test_disagreements_match_the_pair_loop_on_every_small_labelling():
    inputs = differ = 0
    for n in range(6):
        for keys in product(range(3), repeat=n):
            for classes in product("abc", repeat=n):
                got = verify._disagreements(keys, classes)
                assert got == _disagreements_oracle(keys, classes), (keys, classes)
                inputs += 1
                differ += bool(got)
    assert inputs == sum(9 ** n for n in range(6)) and 0 < differ < inputs


# q = 7 adds a field where every partition is larger than at the defaults
PARTITION_FIELDS = (2, 3, 4, 5, 7)


def _recording(switcher, calls):
    """switcher, recording the gains of each realization it switches and eta."""
    def recording(gg, eta):
        calls.append((gg.gains, eta))
        return switcher(gg, eta)
    return recording


def _corrupt_switch(gg, eta):
    """switch, then the first edge's gain replaced by another element."""
    out = switch(gg, eta)
    other = next(x for x in gg.group.elements if x != out.gains[0])
    return GainGraph(out.graph, out.group, {**out.gains, 0: other})


@pytest.mark.parametrize("kind", [FRAME, LIFT])
@pytest.mark.parametrize("family", ["2c3", "proper-k4", "tube", "base"])
def test_partitions_check_what_the_parent_loops_did(monkeypatch, family, kind):
    # equal failures and counts, and, for frame, the same (realization, eta)
    # draws for the switched copies, whether each copy is sound or corrupted
    graphs = verify.FAMILIES[family]()
    for switcher in (switch, _corrupt_switch):
        got, want = [], []
        monkeypatch.setattr(verify, "switch", _recording(switcher, got))
        assert verify._biconditional(graphs, PARTITION_FIELDS, kind, SEED) == biconditional_by_loop(
            graphs, PARTITION_FIELDS, kind, SEED, _recording(switcher, want))
        assert got == want and bool(got) == (kind == FRAME)
    if kind == FRAME:
        assert verify._biconditional_cross(graphs, PARTITION_FIELDS) == \
            biconditional_cross_by_loop(graphs, PARTITION_FIELDS)


@pytest.mark.parametrize("kind", [FRAME, LIFT])
@pytest.mark.parametrize("name", ["u2", "u3"])
def test_criterion_checks_what_the_parent_loop_did(name, kind):
    # the claim's class rule (U_3's on the kind's classes), the kind's gain
    # classes, and one class for all, which disagrees with distinct keys
    nb = getattr(catalog, name)()
    two_cycle = next(c for c in catalog.u2().omega.graph.cycles() if len(c) == 2)
    own = {"u2": lambda reps: [walk_gain(gg, two_cycle.walk) for gg in reps],
           "u3": lambda reps: gain_classes(kind, [verify._links_only(gg) for gg in reps])}
    rules = [own[name], lambda reps: gain_classes(kind, reps), lambda reps: [0] * len(reps)]
    failing = 0
    for rule in rules:
        got = verify._criterion(nb, PARTITION_FIELDS, kind, rule)
        assert got == criterion_by_loop(nb, PARTITION_FIELDS, kind, rule)
        failing += bool(got[0])
    assert failing


def test_frame_biconditional_fails_when_a_switched_copy_is_not_equivalent(monkeypatch):
    monkeypatch.setattr(verify, "switch", _corrupt_switch)
    rep = run_claim("lemma-2c3-frame")
    assert rep.status == "fail" and rep.witnesses
    assert all(set(w) == {"graph", "q", "rep", "why"}
               and w["why"] == "switched copy not equivalent" for w in rep.witnesses)


def test_t2prime_splits_run_samples_round_trips_per_graph(monkeypatch):
    real = verify._round_trip
    calls = []

    def recording(rng, f, graph, om, kind, gg):
        calls.append((graph, kind))
        return real(rng, f, graph, om, kind, gg)

    monkeypatch.setattr(verify, "_round_trip", recording)
    for q in (2, 3):  # no realization over GF(q)^x
        assert run_claim("allreps-t2prime-splits", q=q).status == "pass"
    assert calls == []
    assert run_claim("allreps-t2prime-splits", q=4).status == "pass"
    assert len(calls) == 36
    assert Counter(calls) == {(catalog.t2_prime_split(i).name, FRAME): 12 for i in (1, 2, 3)}


PAIR_WITNESS = {"graph", "q", "pair", "same_class", "proj_equiv"}
BICONDITIONAL_CLAIMS = [
    "lemma-2c3-frame", "lemma-2c3-lift", "lemma-2c3-frame-vs-lift",
    "lemma-k4-frame", "lemma-k4-lift", "lemma-k4-frame-vs-lift",
    "lemma-tube-frame", "lemma-tube-lift", "u2-criterion", "u3-lift-criterion", "main2",
]


@pytest.mark.parametrize("name", BICONDITIONAL_CLAIMS)
def test_biconditional_claims_fail_when_every_key_is_equal(monkeypatch, name):
    # one projective key for every matrix: inequivalent gain classes now
    # look projectively equivalent (and frame forms equivalent to lift forms)
    monkeypatch.setattr(verify, "projective_key", lambda A: 0)
    rep = run_claim(name)
    assert rep.status == "fail" and rep.witnesses
    if name.endswith("-frame-vs-lift"):
        assert all(w["why"] == "frame and lift forms equivalent" for w in rep.witnesses)
        return
    assert set(rep.witnesses[0]) == PAIR_WITNESS
    for w in rep.witnesses:
        if set(w) == PAIR_WITNESS:
            assert w["proj_equiv"] and not w["same_class"]
        else:  # main2 lists its frame and lift pairs before its cross check
            assert name == "main2" and w == {"graph": w["graph"], "q": w["q"],
                                             "why": "frame and lift forms equivalent"}


# claims whose negative control is a test of its own
DEDICATED_CONTROLS = {
    **dict.fromkeys(BICONDITIONAL_CLAIMS, test_biconditional_claims_fail_when_every_key_is_equal),
    "tangled-minor": test_tangled_minor_negative_control,
    "tangled-subgraph": test_tangled_subgraph_negative_control,
    "inequivalence-localized": test_inequivalence_localized_negative_control_claim,
    "tangled-no-extend": test_tangled_no_extend_negative_control,
    "allreps-tube-frame": test_allreps_negative_control,
}


def test_every_claim_has_a_negative_control():
    in_table = {row[0] for row in NEGATIVE_CONTROLS}
    assert not in_table & set(DEDICATED_CONTROLS)
    assert in_table | set(DEDICATED_CONTROLS) == set(verify.CLAIMS)


GOLDEN_COUNTS = {
    "seven-dwarves": {"classes": 7},
    "2c3-proper-count": {"classes": 6},
    "tube-count": {"classes": 3},
    "base-count": {"classes": 13},
    "canonical-frame": {"q": 5, "samples": 200},
    "canonical-lift": {"q": 5, "samples": 200},
    "allreps-2c3": {"q": 4, "per_graph": {
        "T_0": {"classes": 2, "frame_classes": 0, "lift_classes": 2},
        "T_1": {"classes": 0, "frame_classes": 0, "lift_classes": 0},
        "T_2": {"classes": 2, "frame_classes": 0, "lift_classes": 2},
        "T_2'": {"classes": 4, "frame_classes": 2, "lift_classes": 2},
        "T_3": {"classes": 2, "frame_classes": 2, "lift_classes": 0},
        "T_4": {"classes": 1, "frame_classes": 0, "lift_classes": 1}}},
    "allreps-k4": {"q": 4, "per_graph": {
        "D_{0,0}": {"classes": 0, "frame_classes": 0, "lift_classes": 0},
        "D_{0,1}": {"classes": 2, "frame_classes": 0, "lift_classes": 2},
        "D_{0,2}": {"classes": 2, "frame_classes": 2, "lift_classes": 0},
        "D_{0,3}": {"classes": 1, "frame_classes": 0, "lift_classes": 1}}},
    "allreps-tube-frame": {"q": 4, "per_graph": {
        "B_0": {"classes": 0, "frame_classes": 0, "lift_classes": 0},
        "B_1": {"classes": 2, "frame_classes": 2, "lift_classes": 0},
        "B_2": {"classes": 2, "frame_classes": 2, "lift_classes": 0}}},
    "allreps-tube-lift": {"q": 4, "per_graph": {
        "B_0": {"classes": 2, "lift_classes": 2},
        "B_1": {"classes": 2, "lift_classes": 2},
        "B_2": {"classes": 1, "lift_classes": 1}}},
    "lemma-2c3-frame": {"fields": [2, 3, 4, 5], "graphs": 6, "pairs": 26, "realizations": 22},
    "lemma-2c3-lift": {"fields": [2, 3, 4, 5], "graphs": 6, "pairs": 390, "realizations": 82},
    "lemma-2c3-frame-vs-lift": {"cross_pairs": 188, "fields": [2, 3, 4, 5], "graphs": 6},
    "lemma-k4-frame": {"fields": [2, 3, 4, 5], "graphs": 4, "pairs": 9, "realizations": 12},
    "lemma-k4-lift": {"fields": [2, 3, 4, 5], "graphs": 4, "pairs": 173, "realizations": 40},
    "lemma-k4-frame-vs-lift": {"cross_pairs": 72, "fields": [2, 3, 4, 5], "graphs": 4},
    "lemma-tube-frame": {"fields": [2, 3, 4, 5], "graphs": 3, "pairs": 35, "realizations": 20},
    "lemma-tube-lift": {"fields": [2, 3, 4, 5], "graphs": 3, "pairs": 383, "realizations": 60},
    "u2-criterion": {"fields": [2, 3, 4, 5], "pairs": 379},
    "u3-lift-criterion": {"fields": [2, 3, 4, 5], "pairs": 1287},
    "main2": {
        "frame": {"fields": [4, 5], "graphs": 13, "pairs": 70, "realizations": 51},
        "lift": {"fields": [4, 5], "graphs": 13, "pairs": 941, "realizations": 169},
        "cross": {"cross_pairs": 506, "fields": [4, 5], "graphs": 13},
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
def test_claim_counts_at_default_options(name):
    rep = run_claim(name)
    assert rep.status == "pass"
    assert json.loads(json.dumps(rep.counts)) == GOLDEN_COUNTS[name]
