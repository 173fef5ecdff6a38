import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from bmlab import catalog, verify
from bmlab.bias import BiasedGraph, biased_minor
from bmlab.canonical import COMPLETE_LIFT, KINDS, complete_lift_matrix, frame_matrix, kind_parts
from bmlab.errors import BoundExceeded, GroundSetMismatch
from bmlab.fields import QQ, gf
from bmlab.gains import AdditiveGroup, GainGraph, MultiplicativeGroup, realizations
from bmlab.graph import MultiGraph
from bmlab.linalg import FieldMatrix, vector_matroid
from bmlab.matroid import (
    complete_lift_matroid,
    explicit_matroid,
    extend_with_joint,
    frame_equals_lift,
    frame_matroid,
    lift_matroid,
    matroids_equal,
    r_subset_bases,
    rank_table,
    uniform_matroid,
)
from oracles import (
    column_rank_matroid,
    contract,
    delete,
    edge_components,
    formula_matroid,
    graphic_matroid,
    joint_extension,
    matroids_equal_by_bases,
    matroids_equal_on_all_subsets,
    ranks_by_greedy,
    sweep_graphs,
    theta_closed_edge_sets,
    tutte_connectivity,
    tutte_connectivity_by_partitions,
    with_loops,
)

CIRCUIT_BOUND = 14


def is_independent_mask(M, mask):
    return M.rank_mask(mask) == bin(mask).count("1")


def circuits(M):
    """Minimal dependent sets of an oracle, as sorted label tuples."""
    n = M.size
    if n > CIRCUIT_BOUND:
        raise BoundExceeded("circuit listing bound exceeded")
    circuits = []
    circuit_masks = []
    by_size = sorted(range(1, 1 << n), key=lambda m: bin(m).count("1"))
    for mask in by_size:
        if is_independent_mask(M, mask):
            continue
        if any(cm & mask == cm for cm in circuit_masks):
            continue
        circuit_masks.append(mask)
        circuits.append(M.subset_of(mask))
    return circuits


def is_circuit_mask(M, mask):
    if is_independent_mask(M, mask):
        return False
    for i in range(M.size):
        if mask >> i & 1 and not is_independent_mask(M, mask & ~(1 << i)):
            return False
    return True


# -- graphical circuit characterizations (Zaslavsky, Biased graphs. II) -------

def _subgraph_shape(omega, edge_set):
    """Classify G|X for the circuit characterizations.

    Returns one of: 'balanced-cycle', 'contrabalanced-theta',
    'tight-handcuff', 'loose-handcuff', 'disjoint-pair', or None.
    """
    g = omega.graph
    X = frozenset(edge_set)
    comps = edge_components(g, X)
    cycles_in = [
        frozenset(c.edges) for c in g.cycles() if frozenset(c.edges) <= X
    ]
    balanced_in = [c for c in cycles_in if c in omega.balanced]
    if len(comps) == 1:
        if len(cycles_in) == 1 and cycles_in[0] == X:
            return "balanced-cycle" if balanced_in else "unbalanced-cycle"
        if balanced_in:
            return None
        deg = {}
        for e in X:
            u, v = g.endpoints(e)
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        degs = sorted(deg.values(), reverse=True)
        if len(cycles_in) == 3 and degs.count(3) == 2 and all(
            d in (2, 3) for d in degs
        ):
            union = cycles_in[0] | cycles_in[1] | cycles_in[2]
            if union == X:
                return "contrabalanced-theta"
        if len(cycles_in) == 2:
            c1, c2 = cycles_in
            v1 = g.vertices_of(c1)
            v2 = g.vertices_of(c2)
            if not (c1 & c2):
                shared = v1 & v2
                if len(shared) == 1 and c1 | c2 == X:
                    return "tight-handcuff"
                if not shared and c1 | c2 != X:
                    rest = X - (c1 | c2)
                    deg_rest = {}
                    for e in rest:
                        u, v = g.endpoints(e)
                        deg_rest[u] = deg_rest.get(u, 0) + 1
                        deg_rest[v] = deg_rest.get(v, 0) + 1
                    # the connector must be a path meeting each cycle once
                    ends = [v for v, d in deg_rest.items() if d == 1]
                    if (
                        len(ends) == 2
                        and all(d in (1, 2) for d in deg_rest.values())
                        and sum(1 for v in ends if v in v1) == 1
                        and sum(1 for v in ends if v in v2) == 1
                        and all(
                            v not in v1 and v not in v2
                            for v, d in deg_rest.items()
                            if d == 2
                        )
                    ):
                        return "loose-handcuff"
        return None
    if len(comps) == 2:
        if balanced_in:
            return None
        if (
            len(cycles_in) == 2
            and frozenset(comps[0]) in (cycles_in[0], cycles_in[1])
            and frozenset(comps[1]) in (cycles_in[0], cycles_in[1])
        ):
            return "disjoint-pair"
    return None


def is_frame_circuit(omega, edge_set):
    shape = _subgraph_shape(omega, edge_set)
    return shape in ("balanced-cycle", "contrabalanced-theta", "tight-handcuff", "loose-handcuff")


def is_lift_circuit(omega, edge_set):
    shape = _subgraph_shape(omega, edge_set)
    return shape in ("balanced-cycle", "contrabalanced-theta", "tight-handcuff", "disjoint-pair")


def is_circuit(omega, kind, edge_set):
    """Graphical circuit test; kind is 'frame' or 'lift'."""
    if kind == "frame":
        return is_frame_circuit(omega, edge_set)
    if kind == "lift":
        return is_lift_circuit(omega, edge_set)
    raise ValueError("kind must be 'frame' or 'lift'")


def triangle_biased(balanced):
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    return BiasedGraph(g, [frozenset({0, 1, 2})] if balanced else [])


def test_frame_rank_triangle():
    assert frame_matroid(triangle_biased(True)).rank(["e1", "e2", "e3"]) == 2
    assert frame_matroid(triangle_biased(False)).rank(["e1", "e2", "e3"]) == 3


def test_frame_rank_d00_full():
    d00 = catalog.dwarf("D_{0,0}").omega
    assert d00.graph.m == 6
    assert frame_matroid(d00).full_rank() == 4


def test_lift_rank_disjoint_two_cycles():
    g = MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    om = BiasedGraph(g, [])
    assert lift_matroid(om).full_rank() == 3  # 4 - 2 + 1


def test_lift_rank_balanced_forest():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    om = BiasedGraph(g, [])
    assert lift_matroid(om).full_rank() == 3  # |V|-c, eps=0


def test_lift_rank_b0_full():
    b0 = catalog.tube("B_0").omega
    assert b0.graph.m == 6
    assert lift_matroid(b0).full_rank() == 4  # 4 - 1 + 1


def test_complete_lift_b0():
    # rank 4 on 7 elements by the rank formula (|V|=5, c=2, eps=1)
    L0 = complete_lift_matroid(catalog.tube("B_0").omega)
    assert L0.size == 7 and L0.full_rank() == 4


def test_complete_lift_balanced():
    om = triangle_biased(True)
    L0 = complete_lift_matroid(om)
    assert L0.full_rank() == graphic_matroid(om.graph).full_rank() + 1


def test_complete_lift_identities():
    for name in ("B_0", "T_2'", "D_{0,1}"):
        om = catalog.by_name(name).omega
        L0 = complete_lift_matroid(om)
        eq, _ = matroids_equal(delete(L0, ["e0"]), lift_matroid(om))
        assert eq
        eq, _ = matroids_equal(contract(L0, ["e0"]), graphic_matroid(om.graph))
        assert eq


def test_complete_lift_is_the_lift_of_the_joint_extension():
    # L0 is built from omega's step data, not from G_0's cycles
    omegas = [om for _, oms in _small_biased_graphs() for om in oms]
    omegas += [nb.omega for nb in catalog.base_graphs()]
    for om in omegas:
        L0, L = complete_lift_matroid(om), lift_matroid(joint_extension(om))
        assert matroids_equal_on_all_subsets(L0, L) == (True, None), om.graph.edges


def test_u2_frame_circuits():
    u2 = catalog.u2().omega
    F = frame_matroid(u2)
    assert ("e1", "e2", "e3") in circuits(F)  # joint-link-joint loose handcuff
    eq, _ = matroids_equal(F, uniform_matroid(2, u2.graph.edge_names))
    assert eq


def test_u2_lift_circuit_disjoint_pair():
    u2 = catalog.u2().omega
    L = lift_matroid(u2)
    assert L.rank(["e1", "e2"]) == 1
    assert ("e1", "e2") in circuits(L)


def test_u3_represents_u24():
    u3 = catalog.u3().omega
    for M in (frame_matroid(u3), lift_matroid(u3)):
        eq, _ = matroids_equal(M, uniform_matroid(2, u3.graph.edge_names))
        assert eq


def test_balanced_cycles_are_circuits_of_both():
    t2p = catalog.biased_2c3("T_2'").omega
    F, L = frame_matroid(t2p), lift_matroid(t2p)
    for c in t2p.balanced:
        mask_labels = t2p.graph.names_of(c)
        assert is_circuit_mask(F, F.mask_of(mask_labels))
        assert is_circuit_mask(L, L.mask_of(mask_labels))


def test_rank_axioms_on_catalog():
    for name in ("D_{0,0}", "T_0", "B_2", "U_2", "U_3"):
        om = catalog.by_name(name).omega
        for kind, matroid in (("frame", frame_matroid), ("lift", lift_matroid),
                              ("lift0", complete_lift_matroid)):
            assert matroid(om).rank_axiom_violation() is None, (name, kind)


def test_frame_equals_lift_iff_no_disjoint_unbalanced_pair():
    """frame_equals_lift, decided on the graph, against a walk of F against
    L: the base graphs and every theta-closed set of the sweep graphs,
    each also with a balanced loop and a joint added."""
    omegas = [nb.omega for nb in catalog.base_graphs()]
    for g in sweep_graphs():
        for bal in theta_closed_edge_sets(g):
            om = BiasedGraph(g, bal, check=False)
            omegas += [om, with_loops(om)]
    seen = Counter()
    for om in omegas:
        eq, witness = matroids_equal(frame_matroid(om), lift_matroid(om))
        assert frame_equals_lift(om) == eq, om.graph.edges
        assert frame_equals_lift(om) == eq  # the kept answer
        assert eq == (witness is None)
        seen[eq] += 1
    assert seen == {True: 5206, False: 2979}


def test_rank_table_matches_the_per_subset_ranks():
    """rank_table against one greedy per subset (ranks_by_greedy) and the
    oracle's rank_mask: F, L and L0 of each sweep graph with no cycle
    balanced, every cycle balanced and its middle theta-closed set, and the
    vector matroids of seeded frame matrices over GF(4) and complete lift
    matrices over GF(3) on those graphs."""
    rng = random.Random(7)
    subsets = 0
    for g in sweep_graphs():
        closed = theta_closed_edge_sets(g)
        for bal in (closed[0], closed[-1], closed[len(closed) // 2]):
            om = BiasedGraph(g, bal, check=False)
            for M in (frame_matroid(om), lift_matroid(om), complete_lift_matroid(om)):
                table = rank_table(M)
                assert table == ranks_by_greedy(M), (g.edges, bal)
                assert table == [M.rank_mask(mask) for mask in range(1 << M.size)]
                subsets += len(table)
        for group, matrix in ((MultiplicativeGroup(4), frame_matrix),
                              (AdditiveGroup(3), complete_lift_matrix)):
            A = matrix(GainGraph(g, group, {e: rng.choice(group.elements)
                                            for e in range(g.m)})).matrix
            M = vector_matroid(A)
            table = rank_table(M)
            assert table == ranks_by_greedy(M), A.rows
            assert table == [M.rank_mask(mask) for mask in range(1 << M.size)]
            subsets += len(table)
    assert subsets == 97260


def _bases_by_rank(M):
    """(S, whether S is a basis) for every r-subset S, by one rank call each."""
    r = M.full_rank()
    return [(S, M.rank_mask(sum(1 << i for i in S)) == r)
            for S in combinations(range(M.size), r)]


def test_r_subset_bases_match_the_rank_of_each_subset():
    """The prefix walk's (subset, is basis) sequence against a rank call
    per r-subset, in combinations order: F, L and L0 of each sweep graph
    with no cycle balanced, every cycle balanced and its middle
    theta-closed set; explicit copies of the frame ones, which have no
    step of their own; and every uniform matroid on up to six elements."""
    seen = Counter()
    for g in sweep_graphs():
        closed = theta_closed_edge_sets(g)
        for bal in (closed[0], closed[-1], closed[len(closed) // 2]):
            om = BiasedGraph(g, bal, check=False)
            F = frame_matroid(om)
            copy = explicit_matroid(F.labels, {F.subset_of(mask): r
                                               for mask, r in enumerate(rank_table(F))})
            for M in (F, lift_matroid(om), complete_lift_matroid(om), copy):
                got = list(r_subset_bases(M))
                assert got == _bases_by_rank(M), (g.edges, bal)
                seen.update(is_basis for _, is_basis in got)
    for n in range(7):
        for r in range(n + 1):
            M = uniform_matroid(r, ["e%d" % i for i in range(n)])
            assert list(r_subset_bases(M)) == _bases_by_rank(M)
    assert seen == {True: 14463, False: 10473}


def test_circuits_match_graphical_characterization():
    for name in ("B_0", "B_2", "T_0", "T_2'", "D_{0,2}", "U_2", "U_3"):
        om = catalog.by_name(name).omega
        g = om.graph
        F, L = frame_matroid(om), lift_matroid(om)
        full = 1 << g.m
        for mask in range(1, full):
            edges = [e for e in range(g.m) if mask >> e & 1]
            assert is_circuit_mask(F, mask) == is_frame_circuit(om, edges), (name, edges)
            assert is_circuit_mask(L, mask) == is_lift_circuit(om, edges), (name, edges)


def test_is_circuit_kind_dispatch():
    u2 = catalog.u2().omega
    assert is_circuit(u2, "lift", [0, 1])
    assert not is_circuit(u2, "frame", [0, 1])
    with pytest.raises(ValueError):
        is_circuit(u2, "graphic", [0])


def test_minor_commutation_frame():
    for name in ("B_0", "T_1", "D_{0,1}"):
        om = catalog.by_name(name).omega
        F = frame_matroid(om)
        for e in range(om.graph.m):
            lbl = om.graph.edge_names[e]
            mn = biased_minor(om, set(), {e})
            eq, w = matroids_equal(frame_matroid(mn.omega), delete(F, [lbl]))
            assert eq, (name, "delete", lbl, w)
            mn = biased_minor(om, {e}, set())
            eq, w = matroids_equal(frame_matroid(mn.omega), contract(F, [lbl]))
            assert eq, (name, "contract", lbl, w)


def test_minor_commutation_complete_lift():
    for name in ("B_0", "T_2"):
        om = catalog.by_name(name).omega
        L0 = complete_lift_matroid(om)
        for e in range(om.graph.m):
            lbl = om.graph.edge_names[e]
            mn = biased_minor(om, set(), {e})
            eq, w = matroids_equal(complete_lift_matroid(mn.omega), delete(L0, [lbl]))
            assert eq, (name, "delete", lbl, w)
            if not om.graph.is_loop(e):
                mn = biased_minor(om, {e}, set())
                eq, w = matroids_equal(
                    complete_lift_matroid(mn.omega), contract(L0, [lbl])
                )
                assert eq, (name, "contract", lbl, w)


def test_joint_contraction_commutation():
    # frame matroids commute with contraction of unbalanced loops too
    om = extend_with_joint(catalog.biased_2c3("T_0").omega, vertex=0, name="l1")
    F = frame_matroid(om)
    mn = biased_minor(om, {om.graph.edge_index("l1")}, set())
    eq, w = matroids_equal(frame_matroid(mn.omega), contract(F, ["l1"]))
    assert eq, w


def test_matroids_equal_requires_same_labels():
    a = uniform_matroid(1, ("x", "y"))
    b = uniform_matroid(1, ("y", "x"))
    with pytest.raises(GroundSetMismatch):
        matroids_equal(a, b)


def test_matroids_equal_bound():
    a = uniform_matroid(2, tuple("abcdefghijklmnopqrstu"))
    with pytest.raises(BoundExceeded):
        matroids_equal(a, a)


def _perturbed(rng, A):
    """A with one entry, chosen by rng, moved to another field element."""
    f = A.field
    i, j = rng.randrange(A.nrows), rng.randrange(A.ncols)
    rows = [list(row) for row in A.rows]
    rows[i][j] = rng.choice([x for x in f.elements if x != rows[i][j]])
    return FieldMatrix(f, rows, A.row_labels, A.col_labels)


def _base_graph_pairs():
    """For every base graph and kind with a realization over GF(5), the
    vector matroid of the first one's matrix (and of two copies with one
    entry perturbed), each paired with the frame and lift matroids on its
    ground set: of omega for frame and lift matrices, of G_0 (omega with
    the joint e0) for complete lift ones."""
    rng = random.Random(5)
    for nb in catalog.base_graphs():
        for kind in KINDS:
            parts = kind_parts(kind)
            reps = realizations(nb.omega, parts.group(5))
            if not reps:  # D_{0,3} and T_4 have no additive realization
                continue
            A = parts.matrix(reps[0]).matrix
            host = joint_extension(nb.omega) if kind == COMPLETE_LIFT else nb.omega
            for B in [A, _perturbed(rng, A), _perturbed(rng, A)]:
                for target in (frame_matroid(host), lift_matroid(host)):
                    yield vector_matroid(B), target


def _claim_pairs(monkeypatch, name, samples):
    """The pairs that the claim hands to matroids_equal."""
    pairs = []

    def recording(m1, m2):
        pairs.append((m1, m2))
        return matroids_equal(m1, m2)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "matroids_equal", recording)
        assert verify.run_claim(name, samples=samples).status == "pass"
    return pairs


def test_bases_rule_matches_the_subset_scan(monkeypatch):
    labels = tuple("abcd")
    cases = [(uniform_matroid(r1, labels), uniform_matroid(r2, labels))
             for r1 in range(5) for r2 in range(5)]
    cases += _base_graph_pairs()
    cases += _claim_pairs(monkeypatch, "canonical-frame", 30)
    cases += _claim_pairs(monkeypatch, "canonical-lift", 30)
    outcomes = Counter()
    for m1, m2 in cases:
        eq, witness = matroids_equal(m1, m2)
        assert eq == matroids_equal_on_all_subsets(m1, m2)[0]
        assert (eq, witness) == matroids_equal_by_bases(m1, m2)
        if eq:
            assert witness is None
        else:
            # the ground set when the ranks differ, else an r-subset that is
            # a basis of exactly one
            assert witness == m1.labels or len(witness) == m1.full_rank()
            assert m1.rank(witness) != m2.rank(witness)
        outcomes[eq] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def _same_as_by_bases(pairs):
    """Counter of the walk's outcomes over pairs, each asserted identical
    (result and witness) to the r-subset scan of matroids_equal_by_bases."""
    outcomes = Counter()
    for m1, m2 in pairs:
        got = matroids_equal(m1, m2)
        assert got == matroids_equal_by_bases(m1, m2), (m1.labels, got)
        outcomes[got[0]] += 1
    return outcomes


def _small_biased_graphs():
    """Every theta-closed bias set on every graph of multigraphs_up_to_iso(3, 5)."""
    for g in catalog.multigraphs_up_to_iso(3, 5):
        yield g, [BiasedGraph(g, bal, check=False) for bal in theta_closed_edge_sets(g)]


def test_walk_matches_bases_oracle_on_every_small_biased_graph():
    # F and L of every bias set on a graph, all pairs; and on E + e0, the
    # frame matroid of G_0 against the complete lift, all pairs
    outcomes = Counter()
    for g, omegas in _small_biased_graphs():
        on_e = [m(om) for om in omegas for m in (frame_matroid, lift_matroid)]
        on_e0 = [m for om in omegas
                 for m in (frame_matroid(joint_extension(om)), complete_lift_matroid(om))]
        for ms in (on_e, on_e0):
            outcomes += _same_as_by_bases(product(ms, ms))
    assert outcomes[True] >= 700 and outcomes[False] >= 20000, outcomes


def _column_changed(A, j, new):
    return FieldMatrix(A.field, [row[:j] + (new[i],) + row[j + 1:] for i, row in enumerate(A.rows)],
                       A.row_labels, A.col_labels)


def test_walk_matches_bases_oracle_on_matrices_of_small_biased_graphs():
    # each frame and lift matrix over GF(3) against its matroid, and a copy
    # with one column zeroed or made parallel to the one before as a control
    outcomes = Counter()
    for g, omegas in _small_biased_graphs():
        for om in omegas:
            for kind in ("frame", "lift"):
                parts = kind_parts(kind)
                target = parts.matroid(om)
                for gg in realizations(om, parts.group(3)):
                    A = parts.matrix(gg).matrix
                    j = g.m - 1
                    zeroed = _column_changed(A, j, [0] * A.nrows)
                    parallel = _column_changed(A, j, A.column(j - 1))
                    outcomes += _same_as_by_bases(
                        [(vector_matroid(B), target) for B in (A, zeroed, parallel)]
                        + [(vector_matroid(A), vector_matroid(B)) for B in (zeroed, parallel)])
    assert outcomes[True] >= 300 and outcomes[False] >= 300, outcomes


@pytest.mark.parametrize("field", [gf(4), gf(5), QQ], ids=repr)
def test_walk_matches_bases_oracle_on_seeded_matrices(field):
    rng = random.Random(25)
    values = [Fraction(x) for x in range(-2, 3)] if field is QQ else list(field.elements)
    pairs = []
    for _ in range(400):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
        rows = [[rng.choice(values) if rng.random() < 0.7 else field.zero for _ in range(ncols)]
                for _ in range(nrows)]
        A = FieldMatrix(field, rows)
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = rng.choice(values)
        M = vector_matroid(A)
        pairs += [(M, vector_matroid(FieldMatrix(field, rows))),
                  (M, uniform_matroid(rng.randint(0, nrows), A.col_labels))]
    outcomes = _same_as_by_bases(pairs)
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def _step_agrees_with_rank(M, reference):
    """Along every chain of increasing indices that stays independent, the
    oracle's step from the chain's state X says "independent" for X + i
    exactly when the reference's rank_mask gives |X| + 1, for every i
    outside X (not only the larger ones that extend the chain); returns
    the number of steps checked."""
    start, extend = M.independence_step()
    checked = 0
    stack = [(start, 0, 0)]  # (state, mask, next index of the chain)
    while stack:
        state, mask, lo = stack.pop()
        for i in range(M.size):
            if mask >> i & 1:
                continue
            grown = extend(state, i)
            independent = reference.rank_mask(mask | 1 << i) == mask.bit_count() + 1
            assert (grown is not None) == independent, (M.labels, M.subset_of(mask), i)
            checked += 1
            if grown is not None and i >= lo:
                stack.append((grown, mask | 1 << i, i + 1))
    return checked


def _rank_formula_pairs(omega):
    """F, L and L0 of omega, each beside its rank-formula reference."""
    return [(frame_matroid(omega), formula_matroid(omega, True)),
            (lift_matroid(omega), formula_matroid(omega, False)),
            (complete_lift_matroid(omega), formula_matroid(joint_extension(omega), False))]


def test_independence_step_agrees_with_rank_on_every_chain():
    # the vector and biased-graph steps against ranks computed without
    # them; uniform and explicit oracles step by their own rank tables
    f = gf(2)
    pairs = []
    for k, entries in enumerate(product(f.elements, repeat=8)):
        A = FieldMatrix(f, [entries[:4], entries[4:]])
        M = vector_matroid(A)
        pairs.append((M, column_rank_matroid(A)))
        if k % 16 == 0:  # a sample as explicit rank tables
            table = {frozenset(M.subset_of(m)): M.rank_mask(m) for m in range(16)}
            E = explicit_matroid(M.labels, table)
            pairs.append((E, E))
    pairs += [(U, U) for U in (uniform_matroid(r, "abcde") for r in range(6))]
    for nb in catalog.base_graphs():
        pairs += _rank_formula_pairs(nb.omega)
    assert sum(_step_agrees_with_rank(M, ref) for M, ref in pairs) > 10000


def test_step_ranks_match_the_rank_formulas_on_every_subset():
    # F, L and L0 take every rank from their independence step; the rank
    # formulas |V(X)| - b(X) and |V(X)| - c(X) + eps(X) are the reference.
    # The greedy rank steps through X in index order, so a link that joins
    # two unbalanced components only after both cycles is first met on four
    # vertices: (4, 6) holds such graphs
    small = [om for _, oms in _small_biased_graphs() for om in oms]
    named = [nb.omega for nb in catalog.base_graphs() + catalog.contracted_tubes()]
    omegas = small + [BiasedGraph(g, bal, check=False) for g in catalog.multigraphs_up_to_iso(4, 6)
                      for bal in theta_closed_edge_sets(g)] + named
    # none of these graphs has a loop of its own: the (3, 5) and named ones
    # are swept again with a balanced loop and a joint added
    omegas += [with_loops(om) for om in small + named]
    subsets = 0
    for om in omegas:
        for M, ref in _rank_formula_pairs(om):
            assert matroids_equal_on_all_subsets(M, ref) == (True, None), om.graph.edges
            subsets += 1 << M.size
    assert (len(omegas), subsets) == (865 + 141, 181504 + 69120)


def _seeded_matrices(field, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
        yield FieldMatrix(field, [[rng.choice(field.elements) if rng.random() < 0.7
                                   else field.zero for _ in range(ncols)]
                                  for _ in range(nrows)])


def test_vector_ranks_match_elimination_on_every_subset():
    f = gf(2)
    matrices = [FieldMatrix(f, [entries[:4], entries[4:]])
                for entries in product(f.elements, repeat=8)]
    matrices += [A for q in (4, 5) for A in _seeded_matrices(gf(q), 26, 200)]
    for A in matrices:
        assert matroids_equal_on_all_subsets(vector_matroid(A), column_rank_matroid(A)) == (
            True, None), A.rows
    assert len(matrices) == 656


def test_explicit_matroid_round_trip():
    u2 = uniform_matroid(2, ("a", "b", "c"))
    table = {}
    for mask in range(8):
        table[frozenset(u2.subset_of(mask))] = u2.rank_mask(mask)
    again = explicit_matroid(("a", "b", "c"), table)
    eq, _ = matroids_equal(u2, again)
    assert eq


def test_rank_data_does_not_outlive_its_biased_graph():
    om = triangle_biased(False)
    F = frame_matroid(om)
    ref = weakref.ref(om)
    del om
    assert ref() is None
    assert F.rank_mask(0b111) == 3


def test_tutte_connectivity_matches_every_partition():
    """tutte_connectivity, read off rank_table, against trying every
    partition for k = 1, 2, ...: F, L and L0 (at most six elements) of
    every biased graph of multigraphs_up_to_iso(4, 5), one per
    automorphism orbit of bias sets, M(K_4), and every uniform matroid on
    up to six elements."""
    seen = Counter()
    matroids = [graphic_matroid(catalog.graph_k4())]
    matroids += [uniform_matroid(r, ["e%d" % i for i in range(n)])
                 for n in range(7) for r in range(n + 1)]
    for g in catalog.multigraphs_up_to_iso(4, 5):
        for om in catalog.bias_sets_up_to_aut(g):
            matroids += [frame_matroid(om), lift_matroid(om), complete_lift_matroid(om)]
    for M in matroids:
        k = tutte_connectivity(M)
        assert k == tutte_connectivity_by_partitions(M), M.labels
        seen[k] += 1
    assert seen == {None: 27, 1: 94, 2: 90, 3: 7}
