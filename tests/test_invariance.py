"""Relabelling invariance: renumbering the vertices and edges of a biased
graph leaves every answer that belongs to the biased graph, and not to its
labels, unchanged."""

import random
from collections import Counter

from bmlab import catalog, verify
from bmlab.bias import BiasedGraph, classify_balance
from bmlab.canonical import (
    FRAME,
    LIFT,
    canonicalize_representation,
    enumerate_representations,
    kind_parts,
)
from bmlab.fields import gf
from bmlab.linalg import FieldMatrix, projective_key
from oracles import multigraph_key, relabel, sweep_graphs


def test_balance_and_gain_class_counts_survive_a_relabelling():
    # one seeded relabelling of each vertically 2-connected, properly
    # unbalanced (4, 7) graph: its balance tag, and its frame and lift gain
    # class counts over GF(4) and GF(5)
    rng = random.Random(16)
    total = moved = 0
    for om in catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                    catalog.properly_unbalanced):
        g = om.graph
        other = relabel(om, rng.sample(range(g.n), g.n), rng.sample(range(g.m), g.m))
        moved += other.graph.edges != g.edges
        assert classify_balance(other).tag == classify_balance(om).tag
        for kind in (FRAME, LIFT):
            for q in (4, 5):
                count = verify._gain_class_count(om, q, kind)
                assert verify._gain_class_count(other, q, kind) == count, (g.edges, kind, q)
                total += count
    assert total == 632
    assert moved == 87  # every relabelling changed the edge list


def _multiplicities(g):
    return sorted(Counter((min(u, v), max(u, v)) for u, v in g.edges).items())


def test_multigraph_key_and_orbit_counts_survive_a_relabelling():
    # one seeded relabelling of each sweep graph: its oracle multigraph_key
    # (the loopless ones) and its number of theta-closed bias sets up to
    # automorphism
    rng = random.Random(16)
    keyed = orbits = 0
    for g in sweep_graphs():
        other = relabel(BiasedGraph(g, []), rng.sample(range(g.n), g.n),
                        rng.sample(range(g.m), g.m)).graph
        if not any(map(g.is_loop, range(g.m))):
            key = multigraph_key(g.n, _multiplicities(g))
            assert multigraph_key(g.n, _multiplicities(other)) == key, g.edges
            keyed += 1
        count = len(catalog.bias_sets_up_to_aut(g))
        assert len(catalog.bias_sets_up_to_aut(other)) == count, g.edges
        orbits += count
    assert (keyed, orbits) == (70, 859)


def _claim_graphs():
    """The biased graphs of allreps-2c3, allreps-k4 and the tube claims."""
    return (list(catalog.classify_2c3_proper()) + list(verify.FAMILIES["proper-k4"]())
            + list(catalog.classify_tube_proper()))


def test_representation_classes_survive_a_column_permutation():
    # one seeded relabelling of each claim graph permutes the columns of its
    # frame and lift matroids: over GF(4), GF(5) and GF(7) the class count
    # and the multiset of class sizes stay the same, and each class, its
    # columns permuted alike, canonicalizes with the same status and kind
    rng = random.Random(16)
    classes = Counter()
    for nb in _claim_graphs():
        om, g = nb.omega, nb.omega.graph
        order = rng.sample(range(g.m), g.m)
        other = relabel(om, rng.sample(range(g.n), g.n), order)
        for kind in (FRAME, LIFT):
            for q in (4, 5, 7):
                want = enumerate_representations(kind_parts(kind).matroid(om), q, om, kind)
                got = enumerate_representations(kind_parts(kind).matroid(other), q, other, kind)
                assert len(got) == len(want), (nb.name, kind, q)
                assert Counter(c.count for c in got) == Counter(c.count for c in want)
                for cls in want:
                    A = cls.matrix
                    B = FieldMatrix(A.field, [[row[e] for e in order] for row in A.rows],
                                    A.row_labels, other.graph.edge_names)
                    res = canonicalize_representation(B, other, hint=kind)
                    assert (res.status, res.kind) == (cls.canonical.status, cls.kind)
                    classes[res.status, res.kind] += 1
    assert classes == {("ok", FRAME): 652, ("ok", LIFT): 293}


def test_frobenius_permutes_the_representation_classes():
    # over GF(8) and GF(9), x -> x^p applied to every entry maps a
    # representation of M to one of M, so it permutes M's classes: the
    # image keys are the class keys, each once.  Over GF(8) each class is
    # also canonicalized, and its image's class has the same kind
    classes = moved = 0
    for q in (8, 9):
        f = gf(q)
        frobenius = []
        for a in f.elements:
            power = f.one
            for _ in range(f.p):
                power = f.mul(power, a)
            frobenius.append(power)
        for nb in _claim_graphs():
            om = nb.omega
            for kind in (FRAME, LIFT):
                reps = enumerate_representations(kind_parts(kind).matroid(om), q,
                                                 om if q == 8 else None, kind)
                kinds = {projective_key(cls.matrix): cls.kind for cls in reps}
                images = set()
                for cls in reps:
                    A = cls.matrix
                    image = projective_key(FieldMatrix(
                        f, [[frobenius[x] for x in row] for row in A.rows],
                        A.row_labels, A.col_labels))
                    assert kinds.get(image, "missing") == cls.kind, (nb.name, kind, q)
                    images.add(image)
                    moved += image != projective_key(A)
                assert len(images) == len(reps), (nb.name, kind, q)
                classes += len(reps)
    assert (classes, moved) == (4884, 4866)  # 18 classes are fixed
