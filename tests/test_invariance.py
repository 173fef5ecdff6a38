"""Relabelling invariance: renumbering the vertices and edges of a biased
graph leaves every answer that belongs to the biased graph, and not to its
labels, unchanged."""

import random

from bmlab import catalog, verify
from bmlab.bias import classify_balance
from bmlab.canonical import FRAME, LIFT
from oracles import relabel


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
