import weakref
from itertools import combinations

import pytest

from bmlab import catalog
from bmlab.bias import BiasedGraph, biased_minor
from bmlab.errors import BoundExceeded, GroundSetMismatch
from bmlab.graph import MultiGraph
from bmlab.matroid import (
    complete_lift_matroid,
    explicit_matroid,
    extend_with_joint,
    frame_matroid,
    frame_rank,
    graphic_matroid,
    is_circuit,
    is_frame_circuit,
    is_lift_circuit,
    lift_matroid,
    lift_rank,
    matroids_equal,
    uniform_matroid,
)


def triangle_biased(balanced):
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    return BiasedGraph(g, [frozenset({0, 1, 2})] if balanced else [])


def test_frame_rank_triangle():
    assert frame_rank(triangle_biased(True), [0, 1, 2]) == 2
    assert frame_rank(triangle_biased(False), [0, 1, 2]) == 3


def test_frame_rank_d00_full():
    d00 = catalog.dwarf("D_{0,0}").omega
    assert frame_rank(d00, range(6)) == 4


def test_lift_rank_disjoint_two_cycles():
    g = MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    om = BiasedGraph(g, [])
    assert lift_rank(om, range(4)) == 3  # 4 - 2 + 1


def test_lift_rank_balanced_forest():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    om = BiasedGraph(g, [])
    assert lift_rank(om, range(3)) == 3  # |V|-c, eps=0


def test_lift_rank_b0_full():
    b0 = catalog.tube("B_0").omega
    assert lift_rank(b0, range(6)) == 4  # 4 - 1 + 1


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
        eq, _ = matroids_equal(L0.delete(["e0"]), lift_matroid(om))
        assert eq
        eq, _ = matroids_equal(L0.contract(["e0"]), graphic_matroid(om.graph))
        assert eq


def test_u2_frame_circuits():
    u2 = catalog.u2().omega
    F = frame_matroid(u2)
    circuits = F.circuits()
    assert ("e1", "e2", "e3") in circuits  # joint-link-joint loose handcuff
    eq, _ = matroids_equal(F, uniform_matroid(2, u2.graph.edge_names))
    assert eq


def test_u2_lift_circuit_disjoint_pair():
    u2 = catalog.u2().omega
    L = lift_matroid(u2)
    assert L.rank(["e1", "e2"]) == 1
    assert ("e1", "e2") in L.circuits()


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
        assert F.is_circuit_mask(F.mask_of(mask_labels))
        assert L.is_circuit_mask(L.mask_of(mask_labels))


def test_rank_axioms_on_catalog():
    for name in ("D_{0,0}", "T_0", "B_2", "U_2", "U_3"):
        om = catalog.by_name(name).omega
        for M in (frame_matroid(om), lift_matroid(om), complete_lift_matroid(om)):
            assert M.rank_axiom_violation() is None, (name, M.name)


def test_frame_equals_lift_iff_no_disjoint_unbalanced_pair():
    from bmlab.bias import is_tangled

    for nb in catalog.base_graphs():
        om = nb.omega
        eq, witness = matroids_equal(frame_matroid(om), lift_matroid(om))
        has_pair = is_tangled(om)[1] is not None
        assert eq == (not has_pair), nb.name
        if not eq:
            assert witness is not None


def test_circuits_match_graphical_characterization():
    for name in ("B_0", "B_2", "T_0", "T_2'", "D_{0,2}", "U_2", "U_3"):
        om = catalog.by_name(name).omega
        g = om.graph
        F, L = frame_matroid(om), lift_matroid(om)
        full = 1 << g.m
        for mask in range(1, full):
            edges = [e for e in range(g.m) if mask >> e & 1]
            assert F.is_circuit_mask(mask) == is_frame_circuit(om, edges), (name, edges)
            assert L.is_circuit_mask(mask) == is_lift_circuit(om, edges), (name, edges)


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
            eq, w = matroids_equal(frame_matroid(mn.omega), F.delete([lbl]))
            assert eq, (name, "delete", lbl, w)
            mn = biased_minor(om, {e}, set())
            eq, w = matroids_equal(frame_matroid(mn.omega), F.contract([lbl]))
            assert eq, (name, "contract", lbl, w)


def test_minor_commutation_complete_lift():
    for name in ("B_0", "T_2"):
        om = catalog.by_name(name).omega
        L0 = complete_lift_matroid(om)
        for e in range(om.graph.m):
            lbl = om.graph.edge_names[e]
            mn = biased_minor(om, set(), {e})
            eq, w = matroids_equal(complete_lift_matroid(mn.omega), L0.delete([lbl]))
            assert eq, (name, "delete", lbl, w)
            if not om.graph.is_loop(e):
                mn = biased_minor(om, {e}, set())
                eq, w = matroids_equal(
                    complete_lift_matroid(mn.omega), L0.contract([lbl])
                )
                assert eq, (name, "contract", lbl, w)


def test_joint_contraction_commutation():
    # frame matroids commute with contraction of unbalanced loops too
    om = extend_with_joint(catalog.biased_2c3("T_0").omega, vertex=0, name="l1")
    F = frame_matroid(om)
    mn = biased_minor(om, {om.graph.edge_index("l1")}, set())
    eq, w = matroids_equal(frame_matroid(mn.omega), F.contract(["l1"]))
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
