"""The `structure` workload: the combinatorial side of bmlab (catalog,
graph, bias, gains).

Timed phase:
  1. catalog.multigraphs_up_to_iso(5, 8);
  2. on every graph tangled_family would keep that has at most CYCLE_CAP
     cycles, relabeled by a seeded permutation, the tangled bias sets up to
     automorphism (one unit for all graphs, so that the many small searches
     do not outnumber the members among the units);
  3. on every resulting member, the loops of `tangled-minor` and
     `tangled-subgraph` (one unit per member);
  4. ten claims through verify.run_claim (one unit per claim).
"""

import random

from bmlab import bias, catalog
from bmlab.graph import MultiGraph

from workloads.claims import reduced, run_claim_unit

BOUNDS = (5, 8)
CYCLE_CAP = 11

# (claim, keyword arguments); "seed" is added for claims that take one
CLAIMS = [
    ("tangled-minor", {"max_vertices": 5, "max_edges": 7}),
    ("tangled-subgraph", {"max_vertices": 5, "max_edges": 7}),
    ("inequivalence-localized", {}),
    ("unique-balancing-subdivision", {"max_vertices": 4, "max_edges": 6}),
    ("contraction-inequiv", {}),
    ("deltawye-gains", {}),
    ("seven-dwarves", {}),
    ("2c3-proper-count", {}),
    ("tube-count", {}),
    ("base-count", {}),
]

SIZES = {"bounds": list(BOUNDS), "cycle_cap": CYCLE_CAP, "reduced_claims": reduced(CLAIMS)}


def setup(seed, workdir, expected):
    """Seeded inputs: one (vertex, edge) permutation pair per family graph."""
    rng = random.Random(seed)
    n, m = BOUNDS
    perms = [(rng.sample(range(n), n), rng.sample(range(m), m)) for _ in range(512)]
    return {"seed": seed, "perms": perms}


def relabel(g, vperm, eperm):
    """g with vertices and edges renumbered by permutations of range(5) and
    range(8), restricted to g's own vertex and edge ranges."""
    vmap = [v for v in vperm if v < g.n]
    order = [e for e in eperm if e < g.m]
    return MultiGraph(g.n, [(vmap[g.edges[e][0]], vmap[g.edges[e][1]]) for e in order])


def family_graph(g):
    """Would tangled_family keep g, and does g have at most CYCLE_CAP cycles?
    (n >= 3, some cycle, no vertex on every cycle.)"""
    if g.n < 3:
        return False
    cycles = g.cycles()
    if not cycles or len(cycles) > CYCLE_CAP:
        return False
    return not any(
        all(v in g.vertices_of(c.edges) for c in cycles) for v in range(g.n)
    )


def is_tangled(om):
    return bias.is_tangled(om)[0]


def check_member(om, targets, patterns):
    """The theorem checks of tangled-minor and tangled-subgraph on one
    member; returns a failure reason or None."""
    if not any(
        om.graph.m >= nb.omega.graph.m and bias.find_link_minor(om, nb.omega) is not None
        for nb in targets
    ):
        return "no tangled link minor"
    ok2, _ = om.is_vertically_k_connected(2)
    if ok2 and not any(
        nb.omega.graph.m <= om.graph.m
        and nb.omega.graph.n <= om.graph.n
        and bias.find_biased_subdivision(om, nb.omega) is not None
        for nb in patterns
    ):
        return "no base subdivision"
    return None


def tangled_targets():
    """K4's without a balanced triangle and the proper 2C3's."""
    out = [nb for nb in catalog.classify_k4()
           if not any(len(c) == 3 for c in nb.omega.balanced)]
    return out + list(catalog.classify_2c3_proper())


def subdivision_patterns():
    return list(catalog.base_graphs()) + [catalog.t2_prime_split(i) for i in (1, 2, 3)]


def run_members(members, units, targets, patterns):
    for i, om in enumerate(members):
        units.run("member", str(i), lambda om=om: check_member(om, targets, patterns))


def run(inputs, units, expected):
    exp = expected["structure"]
    perms = inputs["perms"]
    graphs = []

    def generate():
        graphs.extend(catalog.multigraphs_up_to_iso(*BOUNDS))
        if len(graphs) != exp["graphs"]:
            return "%d graphs, recorded %d" % (len(graphs), exp["graphs"])
        return None

    units.run("family", "multigraphs", generate)

    members = []
    orbits = {}

    def bias_sets():
        for i, g in enumerate(graphs):
            h = relabel(g, *perms[i])
            if family_graph(h):
                found = catalog.bias_sets_up_to_aut(h, predicate=is_tangled)
                members.extend(found)
                orbits[str(i)] = len(found)
        if orbits != exp["orbits"]:
            diff = sorted(set(orbits.items()) ^ set(exp["orbits"].items()))
            return "tangled orbits per kept graph differ from the recorded ones: %s" % diff[:10]
        return None

    units.run("family", "bias-sets", bias_sets)
    run_members(members, units, tangled_targets(), subdivision_patterns())
    for name, kwargs in CLAIMS:
        run_claim_unit(units, name, kwargs, inputs["seed"], expected["claims"])
    return {"members": len(members), "graphs_kept": len(orbits)}
