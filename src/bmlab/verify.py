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
    has_contrabalanced_theta,
    is_tangled,
    link_minors,
    roll_up,
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


# -- graph families --------------------------------------------------------------

# The families the claims run on, by name.  Each is called when a claim runs,
# never at import, so a replaced catalog builder or entry reaches every claim
# that reads it.
FAMILIES = {
    "k4": lambda: catalog.classify_k4(),
    "2c3": lambda: catalog.classify_2c3_proper(),
    "tube": lambda: catalog.classify_tube_proper(),
    "base": lambda: catalog.base_graphs(),
    "contracted-tube": lambda: catalog.contracted_tubes(),
    # the biased K4's with no balanced triangle, as base_graphs has them
    "proper-k4": lambda: list(catalog.base_graphs()[:4]),
    # what tangled-minor finds as link minors, and tangled-no-extend's graphs
    "tangled-targets": lambda: FAMILIES["proper-k4"]() + list(FAMILIES["2c3"]()),
    # what tangled-subgraph finds as subdivisions
    "subdivision-patterns": lambda: (list(FAMILIES["base"]())
                                     + [catalog.t2_prime_split(i) for i in (1, 2, 3)]),
    # what unique-balancing-subdivision finds as subdivisions
    "balancing-patterns": lambda: ([catalog.dwarf("D_{1,0}")]
                                   + list(FAMILIES["contracted-tube"]())),
    # the graphs whose canonical matrices main3-roundtrip scrambles
    "roundtrip": lambda: [catalog.tube("B_0"), catalog.dwarf("D_{0,2}"),
                          catalog.biased_2c3("T_0")],
    # unnamed: the vertically 2-connected properly unbalanced biased graphs
    # with at most 4 vertices and 7 edges, in generation order
    "proper-4-7": lambda: catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                                catalog.properly_unbalanced),
}


# -- the claim table: one check kind, one family, one argument per claim --------
#
# Each check kind is a factory (family name, argument) -> claim, and the claim
# declares that kind's options as its parameters.

def _count_check(family, expected):
    """The family must number `expected` members."""
    def count():
        names = [nb.name for nb in FAMILIES[family]()]
        return ([] if len(names) == expected else [{"got": names}]), {"classes": len(names)}
    return count


def _canonical_check(_, kind):
    """Seeded random gain graphs over the kind's group (no family): does the
    vector matroid of the kind's matrix equal the kind's matroid of the
    induced bias?"""
    def canonical_samples(seed=DEFAULT_SEED, samples=200, q=5):
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
                failures.append({"sample": k, "edges": list(g.edges), "gains": gains,
                                 "subset": w})
        return failures, {"samples": samples, "q": q}
    return canonical_samples


def _biconditional_check(family, kind):
    """Only the frame side draws at random (switched copies), so only it
    takes a seed."""
    if kind == FRAME:
        return lambda fields=DEFAULT_FIELDS, seed=DEFAULT_SEED: _biconditional(
            FAMILIES[family](), fields, FRAME, seed)
    return lambda fields=DEFAULT_FIELDS: _biconditional(FAMILIES[family](), fields, kind)


def _cross_check(family, _):
    return lambda fields=DEFAULT_FIELDS: _biconditional_cross(FAMILIES[family](), fields)


def _allreps_check(family, kind):
    return lambda q=4: _allreps(FAMILIES[family](), q, kind)


TABLE = [
    # (claim id, check kind, family, argument)
    # section 3: the catalog, generated and classified up to isomorphism, has
    # 7 biased K4's, 6 proper biased 2C3's, 3 proper tubes and 13 base graphs
    ("seven-dwarves", _count_check, "k4", 7),
    ("2c3-proper-count", _count_check, "2c3", 6),
    ("tube-count", _count_check, "tube", 3),
    ("base-count", _count_check, "base", 13),
    # Thm: vector matroid of the frame matrix equals the frame matroid
    ("canonical-frame", _canonical_check, None, FRAME),
    # Thm: vector matroid of the complete lift matrix equals L0
    ("canonical-lift", _canonical_check, None, COMPLETE_LIFT),
    # Lemmas (section 4.1), per family: canonical frame matrices are
    # projectively equivalent iff the gains are switching equivalent, lift
    # matrices iff switching-and-scaling equivalent, and no frame form is
    # equivalent to a lift form
    ("lemma-2c3-frame", _biconditional_check, "2c3", FRAME),
    ("lemma-2c3-lift", _biconditional_check, "2c3", LIFT),
    ("lemma-2c3-frame-vs-lift", _cross_check, "2c3", None),
    ("lemma-k4-frame", _biconditional_check, "proper-k4", FRAME),
    ("lemma-k4-lift", _biconditional_check, "proper-k4", LIFT),
    ("lemma-k4-frame-vs-lift", _cross_check, "proper-k4", None),
    ("lemma-tube-frame", _biconditional_check, "tube", FRAME),
    ("lemma-tube-lift", _biconditional_check, "tube", LIFT),
    # Thm (section 4.2): every representation of F(omega) is a unique
    # canonical frame matrix, or a lift matrix where F = L
    ("allreps-2c3", _allreps_check, "2c3", FRAME),
    ("allreps-k4", _allreps_check, "proper-k4", FRAME),
    ("allreps-tube-frame", _allreps_check, "tube", FRAME),
    # Every representation of L(2C4'',B) is a unique canonical lift
    ("allreps-tube-lift", _allreps_check, "tube", LIFT),
]

for _name, _check, _family, _argument in TABLE:
    claim(_name)(_check(_family, _argument))


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


# -- section 4.1 biconditionals ----------------------------------------------------

def _keyed_realizations(om, q, kind):
    """The normalized realizations of om over the kind's group of GF(q),
    and the projective keys of their canonical matrices of that kind."""
    parts = kind_parts(kind)
    reps = realizations(om, parts.group(q))
    return reps, [projective_key(parts.matrix(gg).matrix) for gg in reps]


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


def _partitions(graphs, fields, kind, classes_of, rng=None):
    """Theorem 1 over each named graph and GF(q), exhaustively: two
    realizations have projectively equivalent canonical matrices of the kind
    iff classes_of(realizations) puts them in one class.  The projective key
    decides equivalence, so the partitions are compared by key.  With rng
    (frame), up to three realizations per graph and field are switched by a
    drawn eta, and each switched copy must stay equivalent (exact witness).
    Returns (failures, realizations, pairs)."""
    failures = []
    total = pairs = 0
    for nb in graphs:
        for q in fields:
            reps, keys = _keyed_realizations(nb.omega, q, kind)
            classes = classes_of(reps)
            total += len(reps)
            pairs += comb(len(reps), 2)
            failures += [{"graph": nb.name, "q": q, "pair": (i, j),
                          "same_class": classes[i] == classes[j], "proj_equiv": keys[i] == keys[j]}
                         for i, j in _disagreements(keys, classes)]
            if rng is None:
                continue
            for i in _sample_indices(rng, len(reps), 3):
                gg = reps[i]
                eta = {v: rng.choice(gg.group.elements) for v in range(nb.omega.graph.n)}
                if projectively_equivalent(frame_matrix(gg).matrix,
                                           frame_matrix(switch(gg, eta)).matrix) is None:
                    failures.append({"graph": nb.name, "q": q, "rep": i,
                                     "why": "switched copy not equivalent"})
    return failures, total, pairs


def _biconditional(graphs, fields, kind, seed=None):
    """Theorem 1 for the kind: gain classes are switching classes for frame
    (distinct normalized realizations are distinct classes),
    switching-and-scaling orbits for lift.  Only frame draws switched
    copies, with `seed`."""
    rng = random.Random(seed) if kind == FRAME else None
    failures, total, pairs = _partitions(graphs, fields, kind,
                                         lambda reps: gain_classes(kind, reps), rng)
    return failures, {"graphs": len(graphs), "fields": list(fields),
                      "realizations": total, "pairs": pairs}


def _biconditional_cross(graphs, fields):
    """Frame forms are never projectively equivalent to lift forms."""
    failures = []
    checked = 0
    for nb in graphs:
        for q in fields:
            _, fkeys = _keyed_realizations(nb.omega, q, FRAME)
            _, lkeys = _keyed_realizations(nb.omega, q, LIFT)
            checked += len(fkeys) * len(lkeys)
            if set(fkeys) & set(lkeys):
                failures.append({"graph": nb.name, "q": q,
                                 "why": "frame and lift forms equivalent"})
    return failures, {"graphs": len(graphs), "fields": list(fields), "cross_pairs": checked}


def _sample_indices(rng, n, k):
    if n == 0:
        return []
    return sorted({rng.randrange(n) for _ in range(k)})


def _criterion(nb, fields, kind, classes_of):
    """A lemma "two realizations of nb have projectively equivalent
    canonical matrices iff classes_of puts them in one class", checked
    exhaustively over each field."""
    failures, _, pairs = _partitions([nb], fields, kind, classes_of)
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


@claim("allreps-contracted-tube")
def claim_allreps_contracted_tube(q=5):
    """Lemma: every representation of F(2C3-e,B) is projectively equivalent
    to a frame matrix particular to the graph or one of its roll-ups, and
    to a lift matrix particular to the graph."""
    failures = []
    counts = {}
    for nb in FAMILIES["contracted-tube"]():
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
    round-trip, `samples` per graph.  With no realization over GF(q)^x,
    only the vertex is sought."""
    splits = [catalog.t2_prime_split(i) for i in (1, 2, 3)]
    failures = []
    counts = {}
    for nb in splits:
        reps = realizations(nb.omega, MultiplicativeGroup(q))
        counts[nb.name] = {"frame_classes": len(reps)}
        nabla = _nabla_star(nb.omega)
        if nabla is None:
            failures.append({"graph": nb.name, "why": "no usable degree-3 vertex"})
        elif reps:
            failures += _exchange_failures(nb.name, frame_matrix(reps[0]).matrix, *nabla)
    # scramble round-trips directly on T'_{2,i}
    failures += _round_trips(seed, 3 * samples, q,
                             [(nb.name, nb.omega, FRAME) for nb in splits])[0]
    return failures, {"q": q, "per_graph": counts}


def _nabla_star(om):
    """(the edge names of the star, nabla_Y om) at the first degree-3
    vertex whose star is a genuine triad and where y_delta applies, or None
    when no vertex qualifies."""
    g = om.graph
    for v in range(g.n):
        if g.degree(v) != 3 or len(set(g.links_at(v))) != 3:
            continue
        try:
            img, _ = y_delta(om, v)
        except BmlabError:
            continue
        return [g.edge_names[e] for e in g.incident_edges(v)], img
    return None


def _exchange_failures(name, A, star, img):
    """The failures of Whittle's exchange on the frame matrix A at the
    star whose nabla_Y image is img: nabla A must represent F(img), and
    Delta nabla A must be projectively equivalent to A."""
    try:
        NA = y_delta_matrix(A, star)
    except BmlabError as exc:
        return [{"graph": name, "why": "nabla failed: %s" % exc}]
    failures = []
    eq, w = matroids_equal(vector_matroid(NA), frame_matroid(img))
    if not eq:
        failures.append({"graph": name, "why": "nabla matroid mismatch", "subset": w})
    try:
        back = delta_y_matrix(NA, star)
    except NotTriangle as exc:  # the star is no triangle of NA
        failures.append({"graph": name, "why": "exchange not involutive", "reason": str(exc)})
    else:
        if projectively_equivalent(A, back) is None:
            failures.append({"graph": name, "why": "exchange not involutive"})
    return failures


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


def _uncovered(members, patterns, search):
    """The failure record of each member in which search(member, pattern)
    finds none of the named patterns."""
    return [_bias_witness(om) for om in members
            if not any(search(om, nb.omega) is not None for nb in patterns)]


@claim("tangled-minor")
def claim_tangled_minor(max_vertices=5, max_edges=8):
    """Thm: every tangled biased graph has a link minor that is a biased K4
    with no balanced triangle or a biased 2C3 with no balanced 2-cycle."""
    family = catalog.tangled_family(max_vertices, max_edges)
    failures = _uncovered(family, FAMILIES["tangled-targets"](), find_link_minor)
    return failures, {"tangled_graphs": len(family),
                      "bounds": [max_vertices, max_edges]}


@claim("tangled-subgraph")
def claim_tangled_subgraph(max_vertices=5, max_edges=8):
    """Thm: every vertically 2-connected properly unbalanced biased graph
    contains a subdivision of a base biased graph or of T'_{2,i}.

    Checked on the tangled family (the non-tangled case is P:TubeMinor,
    covered by its own property test)."""
    family = [om for om in catalog.tangled_family(max_vertices, max_edges)
              if catalog.vertically_2_connected(om.graph)]
    failures = _uncovered(family, FAMILIES["subdivision-patterns"](), find_biased_subdivision)
    return failures, {"tangled_2connected": len(family),
                      "bounds": [max_vertices, max_edges]}


@claim("tangled-no-extend")
def claim_tangled_no_extend(fields=(4, 5)):
    """Lemma: a frame matrix of a tangled base graph never extends by a
    joint column to a representation of the lift matroid, and vice versa."""
    failures = []
    checked = 0
    for nb in FAMILIES["tangled-targets"]():
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
    W of those spans (_cut_span) is tried, and each is still checked on
    every subset.  The ranks of M(A) and of the target on all subsets are
    read off one rank_table each."""
    n = A.ncols
    labels = A.col_labels + ("l1",)
    if target_oracle.labels != labels:
        raise GroundSetMismatch("the target's ground set must be A's columns, then l1")
    ranks = rank_table(vector_matroid(A))
    target = rank_table(target_oracle)
    if target[:1 << n] != ranks:
        return False
    W = _cut_span(A, ranks, target, f)
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


def _cut_span(A, ranks, target, f):
    """A basis of W, the intersection of span(A_S) over the S with
    r(S + l1) = r(S), from the ranks of M(A) and the target's (l1 the
    target's last element); W = {0} when l1 is a loop.  The cut is closed
    upward and span(A_S) lies in span(A_S') when S is a subset of S', so
    the inclusion-minimal S of the cut fix W: the subsets are walked by
    size, and a superset of a kept S is skipped before its rank test."""
    n = A.ncols
    kept, H = [], []  # H: rows whose common null space is W
    for S in sorted(range(1 << n), key=int.bit_count):
        if any(K & S == K for K in kept):
            continue
        if target[S | 1 << n] == ranks[S]:
            kept.append(S)
            H += left_null_space(A.submatrix_cols([j for j in range(n) if S >> j & 1]))
    return left_null_space(FieldMatrix(f, [[h[i] for h in H] for i in range(A.nrows)]))


@claim("unique-balancing-subdivision")
def claim_unique_balancing_subdivision(max_vertices=4, max_edges=7,
                                       seed=DEFAULT_SEED, samples=40):
    """Prop: a vertically 2-connected biased graph with a contrabalanced
    theta, a unique balancing vertex, and no joints elsewhere contains a
    subdivision of D_{1,0}, B_0', B_1' or B_2'.

    Exhaustive on small loopless graphs plus seeded random instances."""

    def hypothesis(om):
        return len(balancing_vertices(om)) == 1 and has_contrabalanced_theta(om)

    # vertical 2-connectivity depends only on the graph: test it first
    instances = [om for om in catalog.biased_family(max_vertices, max_edges,
                                                    catalog.vertically_2_connected)
                 if hypothesis(om)]
    rng = random.Random(seed)
    for _ in range(samples):
        g = _random_multigraph(rng, 6, 9, allow_loops=False)
        group = CyclicGroup(rng.choice((2, 3)))
        gg = GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})
        if catalog.vertically_2_connected(g):
            om = induced_bias(gg)
            if hypothesis(om):
                instances.append(om)
    failures = _uncovered(instances, FAMILIES["balancing-patterns"](), find_biased_subdivision)
    return failures, {"hypothesis_instances": len(instances)}


@claim("inequivalence-localized")
def claim_inequivalence_localized():
    """Thm: switching-inequivalent realizations of a vertically 2-connected
    loopless properly unbalanced biased graph stay inequivalent on a base
    link minor, or on a U_3 link minor (theta part) together with a U_2
    minor (2-cycle part), the latter only when not tangled.  Every pair
    of realizations at (4, 7), in generation order."""
    failures = []
    pairs = 0
    for om in FAMILIES["proper-4-7"]():
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
           for nb in FAMILIES["base"]()
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
    base = list(FAMILIES["base"]())
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
    return _round_trips(seed, samples, q, [(nb.name, nb.omega, kind)
                                           for nb in FAMILIES["roundtrip"]()
                                           for kind in (FRAME, LIFT)])


@claim("main4-samples")
def claim_main4_samples(seed=DEFAULT_SEED, samples=30, q=5):
    """Thm on almost-balanced graphs: scrambles canonicalize to a form
    particular to the graph or to a roll-up variant (reported)."""
    instances = [(nb.name, nb.omega) for nb in FAMILIES["contracted-tube"]()]
    instances.append(("D_{1,0}", catalog.dwarf("D_{1,0}").omega))
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    instances.append(("fat-theta-3x2", catalog.fat_theta([p2, p2, p2])))
    n = len(instances)
    # instance and kind alternate together, so the order repeats after 2n
    return _round_trips(seed, samples, q, [instances[k % n] + ((LIFT, FRAME)[k % 2],)
                                           for k in range(2 * n)])


def _round_trips(seed, samples, q, cases):
    """Seeded round trips over the (name, omega, kind) cases that have
    realizations over the kind's group of GF(q), kept in order as jobs: the
    k-th of the samples scrambles a realization, drawn at random, of job
    k mod their number.  With no job none is drawn, and `samples` reads 0."""
    jobs = []
    for name, om, kind in cases:
        reps = realizations(om, kind_parts(kind).group(q))
        if reps:
            jobs.append((name, om, kind, reps))
    drawn = samples if jobs else 0
    rng = random.Random(seed)
    f = gf(q)
    failures = []
    for k in range(drawn):
        name, om, kind, reps = jobs[k % len(jobs)]
        failures += _round_trip(rng, f, name, om, kind, reps[rng.randrange(len(reps))])
    return failures, {"samples": drawn, "q": q}


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
    for nb in FAMILIES["base"]():
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
    for nb in list(FAMILIES["k4"]()) + list(FAMILIES["2c3"]()):
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
    instances += FAMILIES["contracted-tube"]()
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
