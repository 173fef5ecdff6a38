"""Acceptance gate: one test per criterion, exact (tolerance zero), each
printing a pass/fail line with its wall time against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time

from bmlab import catalog
from bmlab.bias import biased_minor
from bmlab.canonical import enumerate_representations
from bmlab.gains import GainGraph, MultiplicativeGroup, induced_bias, switch
from bmlab.graph import MultiGraph
from bmlab.linalg import vector_matroid
from bmlab.matroid import (
    complete_lift_matroid,
    frame_matroid,
    lift_matroid,
    matroids_equal,
    uniform_matroid,
)
from bmlab.verify import run_claim
from oracles import contract, delete


def _line(name, ok, seconds, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %-28s %s  %6.1fs (budget %ds) %s" % (name, status, seconds, budget, detail),
          flush=True)


def _claims(names, budget, label, **kw):
    t0 = time.time()
    reports = [run_claim(n, **kw) for n in names]
    dt = time.time() - t0
    ok = all(r.status == "pass" for r in reports) and dt < budget
    _line(label, ok, dt, budget,
          " ".join("%s=%s" % (r.claim, r.status) for r in reports))
    assert all(r.status == "pass" for r in reports), [
        (r.claim, r.witnesses[:1]) for r in reports if r.status != "pass"
    ]
    assert dt < budget, "budget exceeded: %.1fs" % dt


def test_criterion_1_catalog_counts():
    _claims(["seven-dwarves", "2c3-proper-count", "tube-count", "base-count"],
            5, "1-catalog-counts")


def test_criterion_2_canonical_correctness():
    _claims(["canonical-frame", "canonical-lift"], 60, "2-canonical-correctness")


def test_criterion_3_biconditionals():
    _claims(
        ["lemma-2c3-frame", "lemma-2c3-lift", "lemma-2c3-frame-vs-lift",
         "lemma-k4-frame", "lemma-k4-lift", "lemma-k4-frame-vs-lift",
         "lemma-tube-frame", "lemma-tube-lift"],
        600, "3-biconditionals", fields=(4, 5),
    )


def test_criterion_4_allreps_2c3():
    _claims(["allreps-2c3"], 600, "4-allreps-2c3", q=4)


def test_criterion_5_roundtrip():
    _claims(["main3-roundtrip"], 60, "5-roundtrip")


def test_criterion_6_structure_theorems():
    _claims(["tangled-minor", "tangled-subgraph"], 600, "6-structure-theorems")


def test_criterion_7_invariant_suites():
    t0 = time.time()
    failures = []

    # rank axioms over the catalog
    for nb in catalog.base_graphs():
        for M in (frame_matroid(nb.omega), lift_matroid(nb.omega),
                  complete_lift_matroid(nb.omega)):
            v = M.rank_axiom_violation()
            if v is not None:
                failures.append(("rank-axioms", nb.name, v))

    # minor commutation: F\e, F/e, L0\e, L0/e (links) over the catalog
    for nb in catalog.base_graphs():
        om = nb.omega
        F = frame_matroid(om)
        L0 = complete_lift_matroid(om)
        for e in range(om.graph.m):
            lbl = om.graph.edge_names[e]
            dm = biased_minor(om, set(), {e}, check=False).omega
            if not matroids_equal(frame_matroid(dm), delete(F, [lbl]))[0]:
                failures.append(("F-delete", nb.name, lbl))
            if not matroids_equal(complete_lift_matroid(dm), delete(L0, [lbl]))[0]:
                failures.append(("L0-delete", nb.name, lbl))
            cm = biased_minor(om, {e}, set(), check=False).omega
            if not matroids_equal(frame_matroid(cm), contract(F, [lbl]))[0]:
                failures.append(("F-contract", nb.name, lbl))
            if not om.graph.is_loop(e):
                if not matroids_equal(
                    complete_lift_matroid(cm), contract(L0, [lbl])
                )[0]:
                    failures.append(("L0-contract", nb.name, lbl))

    # bias invariance under switching: 200 seeded random pairs
    rng = random.Random(7)
    group = MultiplicativeGroup(5)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(1, 9)
        g = MultiGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(m)})
        eta = {v: rng.choice(group.elements) for v in range(n)}
        if induced_bias(switch(gg, eta)).balanced != induced_bias(gg).balanced:
            failures.append(("switching-invariance", g.edges, eta))

    # Delta-Y matroid identities, roll-up invariance, contraction
    # inequivalence, subdivision class transfer
    for claim in ("deltawye-matroid", "rollup-frame", "contraction-inequiv",
                  "subdivision-classes"):
        rep = run_claim(claim)
        if rep.status != "pass":
            failures.append((claim, rep.witnesses[:1]))

    dt = time.time() - t0
    ok = not failures and dt < 300
    _line("7-invariant-suites", ok, dt, 300, "%d checks failed" % len(failures))
    assert not failures, failures[:5]
    assert dt < 300


def test_criterion_8_u24_class_counts():
    t0 = time.time()
    u24 = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    got4 = len(enumerate_representations(u24, 4))
    got5 = len(enumerate_representations(u24, 5))

    # independent brute force: all 2x4 full-support matrices up to
    # projective equivalence decided pairwise by the raw definition
    def brute(q):
        from bmlab.fields import gf
        from bmlab.linalg import FieldMatrix, projectively_equivalent

        f = gf(q)
        mats = []
        for g in f.nonzero:
            for h in f.nonzero:
                A = FieldMatrix(f, [[1, 0, 1, g], [0, 1, 1, h]], None,
                                ("e1", "e2", "e3", "e4"))
                if matroids_equal(vector_matroid(A), u24)[0]:
                    mats.append(A)
        classes = []
        for A in mats:
            if not any(projectively_equivalent(A, B) is not None for B in classes):
                classes.append(A)
        return len(classes)

    ok = got4 == brute(4) == 2 and got5 == brute(5) == 3
    dt = time.time() - t0
    _line("8-u24-class-counts", ok and dt < 10, dt, 10,
          "gf4=%d gf5=%d" % (got4, got5))
    assert got4 == 2 and got5 == 3
    assert dt < 10
