"""Relabelling invariance: renumbering the vertices and edges of a biased
graph leaves every answer that belongs to the biased graph, and not to its
labels, unchanged."""

import random
from collections import Counter

from bmlab import catalog, verify
from bmlab.bias import BiasedGraph, classify_balance
from bmlab.canonical import FRAME, LIFT
from oracles import relabel, sweep_graphs


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
    # one seeded relabelling of each sweep graph: its multigraph_key (the
    # loopless ones) and its number of theta-closed bias sets up to
    # automorphism
    rng = random.Random(16)
    keyed = orbits = 0
    for g in sweep_graphs():
        other = relabel(BiasedGraph(g, []), rng.sample(range(g.n), g.n),
                        rng.sample(range(g.m), g.m)).graph
        if not any(map(g.is_loop, range(g.m))):
            key = catalog.multigraph_key(g.n, _multiplicities(g))
            assert catalog.multigraph_key(g.n, _multiplicities(other)) == key, g.edges
            keyed += 1
        count = len(catalog.bias_sets_up_to_aut(g))
        assert len(catalog.bias_sets_up_to_aut(other)) == count, g.edges
        orbits += count
    assert (keyed, orbits) == (70, 859)
