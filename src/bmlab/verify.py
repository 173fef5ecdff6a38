"""The claim registry behind `bmlab verify`: one registered claim per paper
result, each an exhaustive or seeded desk-scale computation that returns its
failures and counts; run_claim turns them into a VerifyReport.  Fail reports
always carry a concrete counterexample object.
"""

import random
import time
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from math import comb

from . import catalog
from .bias import (
    ALMOST_BALANCED,
    BiasedGraph,
    balancing_vertices,
    biased_equal_unoriented,
    classify_balance,
    delta_y,
    fat_theta_parts,
    find_biased_subdivision,
    find_link_minor,
    is_tangled,
    link_minors,
    roll_up,
    theta_subgraphs,
    unbalancing_classes,
    unroll,
    double_roll_up,
    y_delta,
)
from .canonical import (
    COMPLETE_LIFT,
    FRAME,
    LIFT,
    _roll_reachable,
    canonicalize_representation,
    delta_y_matrix,
    enumerate_representations,
    frame_matrix,
    gain_classes,
    kind_parts,
    y_delta_matrix,
)
from .errors import BmlabError, BoundExceeded, GroundSetMismatch, NotTriangle, UnknownClaim
from .fields import gf
from .gains import (
    AdditiveGroup,
    CyclicGroup,
    GainGraph,
    MultiplicativeGroup,
    fundamental_gains,
    fundamental_walks,
    induced_bias,
    induced_gain,
    normalized_gain_functions,
    realizations,
    switch,
    switching_equivalent,
    walk_gain,
)
from .graph import MultiGraph
from .linalg import (
    FieldMatrix,
    invert,
    left_null_space,
    projective_key,
    projectively_equivalent,
    vector_matroid,
)
from .matroid import extend_with_joint, frame_equals_lift, frame_matroid, matroids_equal, rank_table

DEFAULT_SEED = 20240
DEFAULT_FIELDS = (2, 3, 4, 5)


@dataclass
class VerifyReport:
    claim: str
    status: str  # pass / fail / undecided
    counts: dict = dc_field(default_factory=dict)
    witnesses: list = dc_field(default_factory=list)
    seconds: float = 0.0

    def to_json(self):
        return {
            "claim": self.claim,
            "status": self.status,
            "counts": self.counts,
            "witnesses": self.witnesses,
            "seconds": round(self.seconds, 3),
        }


# -- registry ---------------------------------------------------------------------------

MAX_WITNESSES = 10

CLAIMS = dict()  # claim id -> function, filled only by @claim


def claim(name):
    """Register the decorated function, unchanged, as CLAIMS[name].

    A claim takes its options as declared parameters and returns
    (failures, counts); run_claim times it and builds the report."""

    def register(fn):
        CLAIMS[name] = fn
        return fn

    return register


def run_claim(name, **options):
    """Run one claim.  An option the claim does not declare raises
    TypeError; a search bound hit inside the claim gives `undecided`."""
    try:
        fn = CLAIMS[name]
    except KeyError:
        raise UnknownClaim("no claim registered under %r" % name)
    t0 = time.perf_counter()
    try:
        failures, counts = fn(**options)
    except BoundExceeded as exc:
        return VerifyReport(name, "undecided", {"undecided": str(exc)}, [],
                            time.perf_counter() - t0)
    return VerifyReport(name, "fail" if failures else "pass", counts,
                        failures[:MAX_WITNESSES], time.perf_counter() - t0)


def all_claims():
    return sorted(CLAIMS)


# -- section 3 counts ------------------------------------------------------------

def _count(members, expected):
    """A count claim: members must number expected."""
    names = [nb.name for nb in members]
    return ([] if len(names) == expected else [{"got": names}]), {"classes": len(names)}


@claim("seven-dwarves")
def claim_seven_dwarves():
    return _count(catalog.classify_k4(), 7)


@claim("2c3-proper-count")
def claim_2c3_proper_count():
    return _count(catalog.classify_2c3_proper(), 6)


@claim("tube-count")
def claim_tube_count():
    return _count(catalog.classify_tube_proper(), 3)


@claim("base-count")
def claim_base_count():
    return _count(catalog.base_graphs(), 13)


# -- canonical representation theorems -------------------------------------------

def _random_multigraph(rng, max_vertices=6, max_edges=10, allow_loops=True):
    n = rng.randint(2, max_vertices)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not allow_loops:
            while v == u:
                v = rng.randrange(n)
        edges.append((u, v))
    return MultiGraph(n, edges)


@claim("canonical-frame")
def claim_canonical_frame(seed=DEFAULT_SEED, samples=200, q=5):
    """Thm: vector matroid of the frame matrix equals the frame matroid."""
    return _canonical_samples(seed, samples, q, FRAME)


@claim("canonical-lift")
def claim_canonical_lift(seed=DEFAULT_SEED, samples=200, q=5):
    """Thm: vector matroid of the complete lift matrix equals L0."""
    return _canonical_samples(seed, samples, q, COMPLETE_LIFT)


def _canonical_samples(seed, samples, q, kind):
    """Seeded random gain graphs over the kind's group: does the vector
    matroid of the kind's matrix equal the kind's matroid of the induced
    bias?"""
    parts = kind_parts(kind)
    group = parts.group(q)
    rng = random.Random(seed)
    failures = []
    for k in range(samples):
        g = _random_multigraph(rng)
        gains = {e: rng.choice(group.elements) for e in range(g.m)}
        gg = GainGraph(g, group, gains)
        eq, w = matroids_equal(vector_matroid(parts.matrix(gg).matrix),
                               parts.matroid(induced_bias(gg)))
        if not eq:
            failures.append({"sample": k, "edges": list(g.edges), "gains": gains, "subset": w})
    return failures, {"samples": samples, "q": q}


# -- section 4.1 biconditionals ----------------------------------------------------

def _reps_with_matrices(om, q, kind):
    """The normalized realizations of om over the kind's group of GF(q),
    each with its canonical matrix of that kind."""
    parts = kind_parts(kind)
    return [(gg, parts.matrix(gg).matrix) for gg in realizations(om, parts.group(q))]


def _disagreements(keys, classes):
    """The pairs (i, j), i < j, in that order, that one partition of the
    indices puts in one block and the other does not: the partition by keys
    and the partition by classes.  The partition by (key, class) refines
    both, so they are equal iff all three have as many blocks; only
    otherwise are pairs compared."""
    if len(set(keys)) == len(set(classes)) == len(set(zip(keys, classes))):
        return []
    return [(i, j) for i, j in combinations(range(len(keys)), 2)
            if (keys[i] == keys[j]) != (classes[i] == classes[j])]


def _partition_failures(name, q, keys, classes):
    """A failure for each pair of realizations of the named graph over GF(q)
    whose matrices' projective keys and whose gain classes disagree."""
    return [{"graph": name, "q": q, "pair": (i, j), "same_class": classes[i] == classes[j],
             "proj_equiv": keys[i] == keys[j]} for i, j in _disagreements(keys, classes)]


def _biconditional(graphs, fields, kind, seed=None):
    """Exhaustive: two realizations have projectively equivalent canonical
    matrices iff they are in one gain class, switching classes for frame
    (distinct normalized realizations are distinct classes),
    switching-and-scaling orbits for lift.  The projective key decides
    equivalence, so the pairs are compared by key; for frame, switched
    copies drawn with `seed` must stay equivalent (exact witnesses)."""
    rng = random.Random(seed) if kind == FRAME else None
    failures = []
    pairs = reps_total = 0
    for nb in graphs:
        om = nb.omega
        for q in fields:
            reps = _reps_with_matrices(om, q, kind)
            reps_total += len(reps)
            keys = [projective_key(A) for _, A in reps]
            classes = gain_classes(kind, [gg for gg, _ in reps])
            pairs += comb(len(reps), 2)
            failures += _partition_failures(nb.name, q, keys, classes)
            if kind != FRAME:
                continue
            for i in _sample_indices(rng, len(reps), 3):
                gg, A = reps[i]
                eta = {v: rng.choice(gg.group.elements) for v in range(om.graph.n)}
                if projectively_equivalent(A, frame_matrix(switch(gg, eta)).matrix) is None:
                    failures.append({"graph": nb.name, "q": q, "rep": i,
                                     "why": "switched copy not equivalent"})
    return failures, {"graphs": len(graphs), "fields": list(fields),
                      "realizations": reps_total, "pairs": pairs}


def _biconditional_cross(graphs, fields):
    """Frame forms are never projectively equivalent to lift forms."""
    failures = []
    checked = 0
    for nb in graphs:
        om = nb.omega
        for q in fields:
            fr = _reps_with_matrices(om, q, FRAME)
            lf = _reps_with_matrices(om, q, LIFT)
            fkeys = {projective_key(A) for _, A in fr}
            lkeys = {projective_key(A) for _, A in lf}
            checked += len(fr) * len(lf)
            both = fkeys & lkeys
            if both:
                failures.append({"graph": nb.name, "q": q,
                                 "why": "frame and lift forms equivalent"})
    return failures, {"graphs": len(graphs), "fields": list(fields), "cross_pairs": checked}


def _sample_indices(rng, n, k):
    if n == 0:
        return []
    return sorted({rng.randrange(n) for _ in range(k)})


@claim("lemma-2c3-frame")
def claim_lemma_2c3_frame(fields=DEFAULT_FIELDS, seed=DEFAULT_SEED):
    return _biconditional(catalog.classify_2c3_proper(), fields, FRAME, seed)


@claim("lemma-2c3-lift")
def claim_lemma_2c3_lift(fields=DEFAULT_FIELDS):
    return _biconditional(catalog.classify_2c3_proper(), fields, LIFT)


@claim("lemma-2c3-frame-vs-lift")
def claim_lemma_2c3_cross(fields=DEFAULT_FIELDS):
    return _biconditional_cross(catalog.classify_2c3_proper(), fields)


def _proper_k4():
    """The biased K4's with no balanced triangle, as base_graphs has them."""
    return list(catalog.base_graphs()[:4])


@claim("lemma-k4-frame")
def claim_lemma_k4_frame(fields=DEFAULT_FIELDS, seed=DEFAULT_SEED):
    return _biconditional(_proper_k4(), fields, FRAME, seed)


@claim("lemma-k4-lift")
def claim_lemma_k4_lift(fields=DEFAULT_FIELDS):
    return _biconditional(_proper_k4(), fields, LIFT)


@claim("lemma-k4-frame-vs-lift")
def claim_lemma_k4_cross(fields=DEFAULT_FIELDS):
    return _biconditional_cross(_proper_k4(), fields)


@claim("lemma-tube-frame")
def claim_lemma_tube_frame(fields=DEFAULT_FIELDS, seed=DEFAULT_SEED):
    return _biconditional(catalog.classify_tube_proper(), fields, FRAME, seed)


@claim("lemma-tube-lift")
def claim_lemma_tube_lift(fields=DEFAULT_FIELDS):
    return _biconditional(catalog.classify_tube_proper(), fields, LIFT)


def _criterion(nb, fields, kind, classes_of):
    """A lemma "two realizations of nb have projectively equivalent
    canonical matrices iff classes_of puts them in one class", checked
    exhaustively over each field."""
    failures = []
    pairs = 0
    for q in fields:
        reps = _reps_with_matrices(nb.omega, q, kind)
        pairs += comb(len(reps), 2)
        failures += _partition_failures(nb.name, q, [projective_key(A) for _, A in reps],
                                        classes_of([gg for gg, _ in reps]))
    return failures, {"fields": list(fields), "pairs": pairs}


@claim("u2-criterion")
def claim_u2_criterion(fields=DEFAULT_FIELDS):
    """Lemma: A_F(U_2,phi) ~ A_F(U_2,psi) iff the 2-cycle gains agree."""
    u2 = catalog.u2()
    two_cycle = next(c for c in u2.omega.graph.cycles() if len(c) == 2)
    return _criterion(u2, fields, FRAME,
                      lambda reps: [walk_gain(gg, two_cycle.walk) for gg in reps])


@claim("u3-lift-criterion")
def claim_u3_lift_criterion(fields=DEFAULT_FIELDS):
    """Lemma: A_L(U_3,phi) ~ A_L(U_3,psi) iff the restrictions to the theta
    links are switching-and-scaling equivalent."""
    return _criterion(catalog.u3(), fields, LIFT,
                      lambda reps: gain_classes(LIFT, [_links_only(gg) for gg in reps]))


def _links_only(gg):
    """gg with its loops deleted: the minor that keeps the links."""
    g = gg.graph
    return induced_gain(gg, (), [e for e in range(g.m) if g.is_loop(e)])[0]


# -- section 4.2: all representations are canonical --------------------------------

def _gain_class_count(om, q, kind):
    """The number of gain classes of om over the kind's group of GF(q)."""
    return len(set(gain_classes(kind, realizations(om, kind_parts(kind).group(q)))))


def _allreps(named_graphs, q, kind=FRAME):
    """Enumerate all representations of the kind's matroid of omega (hinting
    that kind); every class must canonicalize, and the class count must
    equal the independent count of gain-function classes (switching for
    frame, switching-and-scaling for lift).  The matroid has forms of the
    other kind too only where F = L, the one case where canonicalization
    can return the other kind; then its gain classes count too.  Frame
    counts always carry lift_classes (0 where F != L); lift counts carry
    frame_classes only where F = L."""
    failures = []
    counts = {}
    other = LIFT if kind == FRAME else FRAME
    for nb in named_graphs:
        om = nb.omega
        M = kind_parts(kind).matroid(om)
        classes = enumerate_representations(M, q, biased_graph=om, hint=kind)
        n = {kind: _gain_class_count(om, q, kind)}
        count = counts[nb.name] = {"classes": len(classes), "%s_classes" % kind: n[kind]}
        if kind == FRAME:
            count["lift_classes"] = 0
        if frame_equals_lift(om):
            n[other] = count["%s_classes" % other] = _gain_class_count(om, q, other)
        expected = sum(n.values())
        if len(classes) != expected:
            failures.append({"graph": nb.name, "q": q, "classes": len(classes),
                             "expected": expected})
        for k, cls in enumerate(classes):
            if cls.kind is None:
                failures.append({"graph": nb.name, "q": q, "class": k, "why": "not canonicalizable",
                                 "kind": None, "reason": cls.canonical.reason})
            elif cls.kind not in n:
                failures.append({"graph": nb.name, "q": q, "class": k, "why": "wrong kind",
                                 "kind": cls.kind})
    return failures, {"q": q, "per_graph": counts}


@claim("allreps-2c3")
def claim_allreps_2c3(q=4):
    return _allreps(catalog.classify_2c3_proper(), q)


@claim("allreps-k4")
def claim_allreps_k4(q=4):
    return _allreps(_proper_k4(), q)


@claim("allreps-tube-frame")
def claim_allreps_tube_frame(q=4):
    return _allreps(catalog.classify_tube_proper(), q)


@claim("allreps-tube-lift")
def claim_allreps_tube_lift(q=4):
    """Every representation of L(2C4'',B) is a unique canonical lift."""
    return _allreps(catalog.classify_tube_proper(), q, LIFT)


@claim("allreps-contracted-tube")
def claim_allreps_contracted_tube(q=5):
    """Lemma: every representation of F(2C3-e,B) is projectively equivalent
    to a frame matrix particular to the graph or one of its roll-ups, and
    to a lift matrix particular to the graph."""
    failures = []
    counts = {}
    for nb in catalog.contracted_tubes():
        om = nb.omega
        FO = frame_matroid(om)
        classes = enumerate_representations(FO, q)
        counts[nb.name] = {"classes": len(classes)}
        for k, cls in enumerate(classes):
            for kind, may_roll in ((FRAME, True), (LIFT, False)):
                res = canonicalize_representation(cls.matrix, om, hint=kind)
                if res.status != "ok" or res.kind != kind:
                    failures.append({"graph": nb.name, "class": k, "why": "no %s form" % kind})
                elif res.rolled_edges and not (may_roll and _roll_reachable(om, res.variant)):
                    failures.append({"graph": nb.name, "class": k,
                                     "why": "%s form on a disallowed variant" % kind})
    return failures, {"q": q, "per_graph": counts}


@claim("allreps-t2prime-splits")
def claim_allreps_t2prime_splits(q=4, seed=DEFAULT_SEED, samples=12):
    """Lemma L:SplitsOf2C3, verified the way the paper proves it: nabla_Y
    reduces each T'_{2,i} to a smaller graph whose representations are
    exhaustively canonical, Whittle's exchange bijection is checked on
    matrix representatives, and scrambles of canonical T'_{2,i} matrices
    round-trip."""
    rng = random.Random(seed)
    failures = []
    counts = {}
    for i in (1, 2, 3):
        nb = catalog.t2_prime_split(i)
        om = nb.omega
        reported = len(failures)
        reps = realizations(om, MultiplicativeGroup(q))
        # nabla at a degree-3 vertex whose star is a genuine triad
        done = False
        g = om.graph
        for v in range(g.n):
            if g.degree(v) != 3 or len(set(g.links_at(v))) != 3:
                continue
            try:
                img, _ = y_delta(om, v)
            except BmlabError:
                continue
            star = [g.edge_names[e] for e in g.incident_edges(v)]
            # matrix-level exchange on a canonical representative
            if not reps:
                break
            A = frame_matrix(reps[0]).matrix
            try:
                NA = y_delta_matrix(A, star)
            except BmlabError as exc:
                failures.append({"graph": nb.name, "why": "nabla failed: %s" % exc})
                break
            eq, w = matroids_equal(vector_matroid(NA), frame_matroid(img))
            if not eq:
                failures.append({"graph": nb.name, "why": "nabla matroid mismatch",
                                 "subset": w})
            try:
                back = delta_y_matrix(NA, star)
            except NotTriangle as exc:  # the star is no triangle of NA
                failures.append({"graph": nb.name, "why": "exchange not involutive",
                                 "reason": str(exc)})
            else:
                if projectively_equivalent(A, back) is None:
                    failures.append({"graph": nb.name, "why": "exchange not involutive"})
            done = True
            break
        if not done and len(failures) == reported:
            failures.append({"graph": nb.name, "why": "no usable degree-3 vertex"})
        # scramble round-trips directly on T'_{2,i}
        counts[nb.name] = {"frame_classes": len(reps)}
        f = gf(q)
        for k in range(samples if reps else 0):
            failures += _round_trip(rng, f, nb.name, om, FRAME, reps[k % len(reps)])
    return failures, {"q": q, "per_graph": counts}


def _scramble(rng, f, A):
    n = A.nrows
    while True:
        T = FieldMatrix(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
        try:
            invert(T)
            break
        except ValueError:
            continue
    S = FieldMatrix.diagonal(
        f, [rng.choice(range(1, f.q)) for _ in range(A.ncols)], A.col_labels
    )
    return (
        T.with_labels(col_labels=A.row_labels)
        .mul(A)
        .mul(S)
        .with_labels(row_labels=["r%d" % k for k in range(n)])
    )


# -- structure theorems -------------------------------------------------------------

def _bias_witness(om):
    """The failure record of a structure claim: the biased graph itself."""
    return {"edges": list(om.graph.edges), "balanced": [sorted(c) for c in om.balanced]}


def _tangled_targets():
    return _proper_k4() + list(catalog.classify_2c3_proper())


@claim("tangled-minor")
def claim_tangled_minor(max_vertices=5, max_edges=8):
    """Thm: every tangled biased graph has a link minor that is a biased K4
    with no balanced triangle or a biased 2C3 with no balanced 2-cycle."""
    family = catalog.tangled_family(max_vertices, max_edges)
    targets = _tangled_targets()
    failures = []
    for om in family:
        if not any(find_link_minor(om, nb.omega) is not None for nb in targets):
            failures.append(_bias_witness(om))
    return failures, {"tangled_graphs": len(family),
                      "bounds": [max_vertices, max_edges]}


def _subdivision_patterns():
    return list(catalog.base_graphs()) + [catalog.t2_prime_split(i) for i in (1, 2, 3)]


@claim("tangled-subgraph")
def claim_tangled_subgraph(max_vertices=5, max_edges=8):
    """Thm: every vertically 2-connected properly unbalanced biased graph
    contains a subdivision of a base biased graph or of T'_{2,i}.

    Checked on the tangled family (the non-tangled case is P:TubeMinor,
    covered by its own property test)."""
    family = catalog.tangled_family(max_vertices, max_edges)
    patterns = _subdivision_patterns()
    failures = []
    checked = 0
    for om in family:
        if not catalog.vertically_2_connected(om.graph):
            continue
        checked += 1
        if not any(find_biased_subdivision(om, nb.omega) is not None for nb in patterns):
            failures.append(_bias_witness(om))
    return failures, {"tangled_2connected": checked,
                      "bounds": [max_vertices, max_edges]}


@claim("tangled-no-extend")
def claim_tangled_no_extend(fields=(4, 5)):
    """Lemma: a frame matrix of a tangled base graph never extends by a
    joint column to a representation of the lift matroid, and vice versa."""
    failures = []
    checked = 0
    for nb in _tangled_targets():
        om = nb.omega
        g = om.graph
        for q in fields:
            f = gf(q)
            reps = {kind: realizations(om, kind_parts(kind).group(q))[:2]
                    for kind in (FRAME, LIFT)}
            for vertex in range(min(g.n, 2)):  # joint position (up to symmetry)
                ext = extend_with_joint(om, vertex=vertex, name="l1")
                for kind, other in ((FRAME, LIFT), (LIFT, FRAME)):
                    target = kind_parts(other).matroid(ext)
                    for gg in reps[kind]:
                        checked += 1
                        if _extension_exists(kind_parts(kind).matrix(gg).matrix, target, f):
                            failures.append({"graph": nb.name, "q": q,
                                             "why": "%s extended to %s" % (kind, other)})
    return failures, {"fields": list(fields), "extensions_checked": checked}


def _extension_exists(A, target_oracle, f):
    """Does some extra column l1 make M([A | v]) equal the target oracle?

    A single-element extension is fixed by its modular cut (Oxley, *Matroid
    Theory*, 2nd ed., 7.2): v must lie in span(A_S) for every S with
    r(S + l1) = r(S).  Only one v per projective point of the intersection
    W of those spans is tried, and each is still checked on every subset.
    The ranks of M(A) and of the target on all subsets are read off one
    rank_table each."""
    n = A.ncols
    labels = A.col_labels + ("l1",)
    if target_oracle.labels != labels:
        raise GroundSetMismatch("the target's ground set must be A's columns, then l1")
    ranks = rank_table(vector_matroid(A))
    target = rank_table(target_oracle)
    if target[:1 << n] != ranks:
        return False
    H = []  # rows whose common null space is W; W = {0} when l1 is a loop
    for S in range(1 << n):
        if target[S | 1 << n] == ranks[S]:
            H += left_null_space(A.submatrix_cols([j for j in range(n) if S >> j & 1]))
    W = left_null_space(FieldMatrix(f, [[h[i] for h in H] for i in range(A.nrows)]))
    for lead in range(len(W)):
        for tail in product(range(f.q), repeat=len(W) - lead - 1):
            vec = W[lead]
            for c, w in zip(tail, W[lead + 1:]):
                vec = f.axpy(c, w, vec)
            rows = [list(r) + [vec[i]] for i, r in enumerate(A.rows)]
            B = FieldMatrix(f, rows, A.row_labels, labels)
            if matroids_equal(vector_matroid(B), target_oracle)[0]:
                return True
    return False


@claim("unique-balancing-subdivision")
def claim_unique_balancing_subdivision(max_vertices=4, max_edges=7,
                                       seed=DEFAULT_SEED, samples=40):
    """Prop: a vertically 2-connected biased graph with a contrabalanced
    theta, a unique balancing vertex, and no joints elsewhere contains a
    subdivision of D_{1,0}, B_0', B_1' or B_2'.

    Exhaustive on small loopless graphs plus seeded random instances."""
    patterns = [catalog.dwarf("D_{1,0}")] + list(catalog.contracted_tubes())
    failures = []
    hypotheses = 0

    def check(om):
        nonlocal hypotheses
        if len(balancing_vertices(om)) != 1:
            return
        if not any(
            all(c not in om.balanced for c in inside)
            for _, inside in theta_subgraphs(om.graph)
        ):
            return
        hypotheses += 1
        if not any(find_biased_subdivision(om, nb.omega) is not None for nb in patterns):
            failures.append(_bias_witness(om))

    # vertical 2-connectivity depends only on the graph: test it first
    for om in catalog.biased_family(max_vertices, max_edges, catalog.vertically_2_connected):
        check(om)
    rng = random.Random(seed)
    tried = 0
    while tried < samples:
        g = _random_multigraph(rng, 6, 9, allow_loops=False)
        group = CyclicGroup(rng.choice((2, 3)))
        gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})
        tried += 1
        if catalog.vertically_2_connected(g):
            check(induced_bias(gg))
    return failures, {"hypothesis_instances": hypotheses}


@claim("inequivalence-localized")
def claim_inequivalence_localized():
    """Thm: switching-inequivalent realizations of a vertically 2-connected
    loopless properly unbalanced biased graph stay inequivalent on a base
    link minor, or on a U_3 link minor (theta part) together with a U_2
    minor (2-cycle part), the latter only when not tangled.  Every pair
    of realizations at (4, 7), in generation order."""
    failures = []
    pairs = 0
    for om in catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                    catalog.properly_unbalanced):
        for group in (CyclicGroup(2), CyclicGroup(3)):
            for phi, psi in combinations(realizations(om, group), 2):
                pairs += 1
                if not _localization_certificate(om, phi, psi):
                    failures.append(dict(_bias_witness(om), phi=phi.gains, psi=psi.gains))
    return failures, {"pairs_checked": pairs}


# U_2 without its joints, the unbalanced 2-cycle; a balanced one has identity
# gain under both realizations, so it never certifies
_TWO_CYCLE = BiasedGraph(MultiGraph(2, [(0, 1), (0, 1)]), [])


def _gain_minors(om, phi, psi, pattern):
    """(phi's minor, psi's minor) for each of om's link minors isomorphic
    to pattern, in link_minors' order."""
    for rec in link_minors(om, pattern):
        yield tuple(induced_gain(gg, rec.contract, rec.delete)[0] for gg in (phi, psi))


def _localization_certificate(om, phi, psi):
    if any(switching_equivalent(mphi, mpsi) is None
           for nb in catalog.base_graphs()
           for mphi, mpsi in _gain_minors(om, phi, psi, nb.omega)):
        return True
    # U_3 + U_2 route (only when not tangled)
    if is_tangled(om)[0] or all(
            switching_equivalent(_links_only(mphi), _links_only(mpsi)) is not None
            for mphi, mpsi in _gain_minors(om, phi, psi, catalog.u3().omega)):
        return False
    for mphi, mpsi in _gain_minors(om, phi, psi, _TWO_CYCLE):
        cyc = mphi.graph.cycles()[0]
        if walk_gain(mphi, cyc.walk) != walk_gain(mpsi, cyc.walk):
            return True
    return False


# -- main theorems -------------------------------------------------------------------

@claim("main2")
def claim_main2(fields=(4, 5), seed=DEFAULT_SEED):
    """Thm T:ProjectiveIsSwitching bundled over all 13 base graphs."""
    base = list(catalog.base_graphs())
    parts = {
        "frame": _biconditional(base, fields, FRAME, seed),
        "lift": _biconditional(base, fields, LIFT),
        "cross": _biconditional_cross(base, fields),
    }
    failures = [w for found, _ in parts.values() for w in found]
    return failures, {key: counts for key, (_, counts) in parts.items()}


@claim("main3-roundtrip")
def claim_main3_roundtrip(seed=DEFAULT_SEED, samples=100, q=5):
    """Thm T:MainTheorem1 mechanics: seeded scrambles of canonical matrices
    on B_0, D_{0,2}, T_0 are recovered with the correct kind and
    equivalent gains."""
    rng = random.Random(seed)
    f = gf(q)
    graphs = [catalog.tube("B_0"), catalog.dwarf("D_{0,2}"), catalog.biased_2c3("T_0")]
    jobs = []
    for nb in graphs:
        for kind in (FRAME, LIFT):
            reps = realizations(nb.omega, kind_parts(kind).group(q))
            if reps:
                jobs.append((nb.name, nb.omega, kind, reps))
    failures = []
    for k in range(samples):
        name, om, kind, reps = jobs[k % len(jobs)]
        failures += _round_trip(rng, f, name, om, kind, reps[rng.randrange(len(reps))])
    return failures, {"samples": samples, "q": q}


@claim("main4-samples")
def claim_main4_samples(seed=DEFAULT_SEED, samples=30, q=5):
    """Thm on almost-balanced graphs: scrambles canonicalize to a form
    particular to the graph or to a roll-up variant (reported)."""
    rng = random.Random(seed)
    f = gf(q)
    instances = [(nb.name, nb.omega) for nb in catalog.contracted_tubes()]
    instances.append(("D_{1,0}", catalog.dwarf("D_{1,0}").omega))
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    instances.append(("fat-theta-3x2", catalog.fat_theta([p2, p2, p2])))
    failures = []
    done = 0
    k = 0
    reps_of = {}
    while done < samples:
        name, om = instances[k % len(instances)]
        k += 1
        kind = (FRAME, LIFT)[k % 2]
        if (name, kind) not in reps_of:
            reps_of[name, kind] = realizations(om, kind_parts(kind).group(q))
        reps = reps_of[name, kind]
        if not reps:
            continue
        failures += _round_trip(rng, f, name, om, kind, reps[rng.randrange(len(reps))])
        done += 1
    return failures, {"samples": done, "q": q}


def _round_trip(rng, f, name, om, kind, gg):
    """The failures of one seeded scramble of gg's canonical matrix of the
    kind: canonicalizing it must give that kind back, particular to om or
    to a roll-up variant of it, with an exact witness, and, when om is
    properly unbalanced, with gains equivalent to gg's."""
    parts = kind_parts(kind)
    scr = _scramble(rng, f, parts.matrix(gg).matrix)
    res = canonicalize_representation(scr, om, hint=kind)
    if res.status != "ok" or res.kind != kind:
        return [{"graph": name, "kind": kind, "got": res.kind, "status": res.status,
                 "reason": res.reason}]
    failures = []
    if res.rolled_edges and not _roll_reachable(om, res.variant):
        failures.append({"graph": name, "kind": kind, "why": "variant not roll-reachable"})
    if (catalog.properly_unbalanced(om)
            and parts.equivalent(res.form.gain_graph, gg) is None):
        failures.append({"graph": name, "kind": kind, "why": "gains not equivalent"})
    if not res.witness.verify(scr, res.form.matrix):
        failures.append({"graph": name, "kind": kind, "why": "witness inexact"})
    return failures


# -- gains / operations propositions ---------------------------------------------------

@claim("contraction-inequiv")
def claim_contraction_inequiv():
    """Prop: switching-inequivalent gain functions stay inequivalent after
    contracting any forest.  Exhaustive over catalog graphs, all nonempty
    link forests, all pairs of normalized gain functions over Z_2 and Z_3.
    Pairs are decided by grouping each forest's functions by their
    fundamental-cycle gains (_contraction_failures); `pairs` still counts
    every (forest, pair) decided."""
    failures = []
    pairs_checked = 0
    seen = set()
    for nb in catalog.base_graphs():
        g = nb.omega.graph
        if (g.n, g.edges) in seen:
            continue
        seen.add((g.n, g.edges))
        for group in (CyclicGroup(2), CyclicGroup(3)):
            pairs, found = _contraction_failures(g, list(normalized_gain_functions(g, group)))
            pairs_checked += pairs
            failures += found
    return failures, {"pairs": pairs_checked}


def _contraction_failures(g, gfs):
    """Decide, for every nonempty link forest F of g, which pairs of the gain
    functions gfs become switching equivalent once F is contracted.

    Pairs are grouped by _contraction_classes; only a pair in one class
    builds its two minors, for the witness eta of switching_equivalent.
    Returns (pairs decided, failures), a failure for each equivalent pair."""
    pairs = 0
    failures = []
    for F in g.link_forests():
        if not F:
            continue
        pairs += len(gfs) * (len(gfs) - 1) // 2
        for members in _contraction_classes(g, gfs, F):
            if len(members) < 2:
                continue
            minors = {i: induced_gain(gfs[i], F, set())[0] for i in members}
            for i, j in combinations(members, 2):
                eta = switching_equivalent(minors[i], minors[j])
                failures.append({
                    "edges": list(g.edges), "forest": sorted(F),
                    "group": repr(gfs[i].group), "i": i, "j": j,
                    "phi": gfs[i].gains, "psi": gfs[j].gains, "eta": eta,
                })
    return pairs, failures


def _contraction_classes(g, gfs, F):
    """The indices of the gain functions gfs on g, in blocks that are
    switching equivalent on g/F, each block and the blocks in order of first
    member.  Each function is keyed by its gains on the fundamental cycles of
    one maximal forest T of g containing F (fundamental_walks): equal keys
    are exactly the functions equivalent on g/F, with no minor built."""
    walks = fundamental_walks(g, F)
    blocks = {}
    for i, gg in enumerate(gfs):
        blocks.setdefault(fundamental_gains(gg, walks), []).append(i)
    return list(blocks.values())


def _deltawye_instances():
    """(named graph, X, Delta_X omega) for each biased K4 and proper biased
    2C3 with a balanced triangle, X the least one by sorted edges."""
    for nb in list(catalog.classify_k4()) + list(catalog.classify_2c3_proper()):
        tris = [c for c in nb.omega.balanced if len(c) == 3]
        if tris:
            X = min(tris, key=sorted)
            yield nb, X, delta_y(nb.omega, X)


@claim("deltawye-matroid")
def claim_deltawye_matroid(fields=(4, 5)):
    """Prop: F(Delta_X omega) and L0(Delta_X omega) agree with the
    matrix-level exchange of the canonical representations."""
    failures = []
    checked = 0
    for nb, X, img in _deltawye_instances():
        om = nb.omega
        Xlabels = [om.graph.edge_names[e] for e in sorted(X)]
        for q in fields:
            for kind in (FRAME, COMPLETE_LIFT):
                parts = kind_parts(kind)
                reps = realizations(om, parts.group(q))
                if not reps:
                    continue
                DA = delta_y_matrix(parts.matrix(reps[0]).matrix, Xlabels)
                eq, w = matroids_equal(vector_matroid(DA), parts.matroid(img))
                checked += 1
                if not eq:
                    failures.append({"graph": nb.name, "q": q, "kind": kind, "subset": w})
    return failures, {"checked": checked}


@claim("deltawye-gains")
def claim_deltawye_gains():
    """Prop: realizations of omega correspond to realizations of
    Delta_X omega, up to switching (counts compared; the identity-on-X
    normalized realizations literally coincide)."""
    failures = []
    checked = 0
    groups = [CyclicGroup(2), CyclicGroup(3), MultiplicativeGroup(4),
              MultiplicativeGroup(5), AdditiveGroup(4), AdditiveGroup(5)]
    for nb, _, img in _deltawye_instances():
        for group in groups:
            n1 = len(realizations(nb.omega, group))
            n2 = len(realizations(img, group))
            checked += 1
            if n1 != n2:
                failures.append({"graph": nb.name, "group": repr(group),
                                 "classes": (n1, n2)})
    return failures, {"checked": checked}


@claim("rollup-frame")
def claim_rollup_frame():
    """Funk's proposition: rolling preserves the frame matroid; unrolling a
    roll-up restores the graph; double roll-ups preserve F on fat thetas."""
    failures = []
    checked = 0
    instances = [catalog.dwarf("D_{1,0}"), catalog.dwarf("D_{2,1}")]
    instances += catalog.contracted_tubes()
    for nb in instances:
        om = nb.omega
        cls = classify_balance(om)
        if cls.tag != ALMOST_BALANCED:
            continue
        for u in cls.balancing_vertices:
            part = unbalancing_classes(om, u)
            for c in part.classes:
                if any(om.graph.is_loop(e) for e in c):
                    continue
                rolled = roll_up(om, u, c)
                eq, w = matroids_equal(frame_matroid(rolled), frame_matroid(om))
                checked += 1
                if not eq:
                    failures.append({"graph": nb.name, "class": sorted(c), "subset": w})
                if not biased_equal_unoriented(unroll(rolled, u), unroll(om, u)):
                    failures.append({"graph": nb.name, "class": sorted(c),
                                     "why": "unroll does not invert"})
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    for parts in ([p2, p2, p2], [p2, p2, p2, p2]):
        ft = catalog.fat_theta(parts)
        shape = fat_theta_parts(ft)
        if shape is None:
            failures.append({"why": "fat theta not detected"})
            continue
        for i, j in combinations(range(len(shape[2])), 2):
            dr = double_roll_up(ft, i, j)
            eq, w = matroids_equal(frame_matroid(dr), frame_matroid(ft))
            checked += 1
            if not eq:
                failures.append({"fat_theta": len(parts), "pair": (i, j), "subset": w})
    return failures, {"checked": checked}


@claim("subdivision-classes")
def claim_subdivision_classes(q=4):
    """Prop: representation class counts transfer to one-edge subdivisions."""
    failures = []
    counts = {}
    for name in ("T_2'", "T_4"):
        nb = catalog.biased_2c3(name)
        om = nb.omega
        base_classes = enumerate_representations(frame_matroid(om), q)
        sub = _subdivide_edge(om, 0)
        sub_classes = enumerate_representations(frame_matroid(sub), q)
        counts[name] = {"base": len(base_classes), "subdivided": len(sub_classes)}
        if len(base_classes) != len(sub_classes):
            failures.append({"graph": name, "q": q, "counts": counts[name]})
    return failures, {"q": q, "per_graph": counts}


def _subdivide_edge(om, e):
    """om with its edge e = uv replaced by the path u w v through a new
    vertex w: a cycle is balanced iff it is balanced in om once the new
    edge wv is taken off (and uw read as e)."""
    g = om.graph
    u, v = g.endpoints(e)
    edges = list(g.edges)
    edges[e] = (u, g.n)
    g2 = MultiGraph(g.n + 1, edges + [(g.n, v)], g.edge_names + (g.edge_names[e] + "b",))
    return BiasedGraph.of_cycles(g2, lambda c: c - {g.m} in om.balanced)
