"""The `requests` workload: the `bmlab` CLI as a person uses it.

One client in a closed loop sends at least REQUESTS_PER_PASS requests,
each one subcommand called in-process through cli.main(argv) with its
output captured.  No recorded traffic says how often each subcommand is
used, so every subcommand gets the same share of the stream; `bmlab --help`
lists each once.  Inputs are files written during set-up, from seeded
random gain graphs and from the catalog graphs.  Every request's exit code
is checked, and its answer too where the generator knows it by
construction.
"""

import contextlib
import io
import math
import os
import random
import time

from bmlab import bias, canonical, catalog, cli, formats, gains
from bmlab.gains import AdditiveGroup, CyclicGroup, GainGraph, MultiplicativeGroup
from bmlab.graph import MultiGraph

from metric_names import SUBCOMMANDS

REQUESTS_PER_PASS = 1000
RANDOM_GRAPHS = 24
GROUPS = (("zn", 2), ("zn", 3), ("mul", 3), ("mul", 5), ("add", 3), ("add", 5))
ENUM_Q = 3
CANON_Q = 5

SIZES = {"requests_per_pass": REQUESTS_PER_PASS, "random_graphs": RANDOM_GRAPHS,
         "enumerate_q": ENUM_Q, "canonicalize_q": CANON_Q}


def _group(kind, order):
    return {"zn": CyclicGroup, "mul": MultiplicativeGroup, "add": AdditiveGroup}[kind](order)


def random_gain_graph(rng, kind, order):
    """A connected loopless gain graph: a random spanning tree on 3..5
    vertices (edges e1.. e(n-1)) plus two or three random links."""
    n = rng.randint(3, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(2, 3))]
    group = _group(kind, order)
    g = MultiGraph(n, edges)
    return GainGraph(g, group, {e: rng.choice(group.elements) for e in range(g.m)})


def switched(rng, gg):
    """gg switched by a random switching function: equivalent to gg."""
    grp = gg.group
    eta = [rng.choice(grp.elements) for _ in range(gg.graph.n)]
    return gg.with_gains({
        e: grp.op(grp.op(grp.inv(eta[u]), gg.gains[e]), eta[v])
        for e, (u, v) in enumerate(gg.graph.edges)
    })


def scrambled(rng, A):
    """T*A*S for random row operations T and a random nonzero column
    scaling S: projectively equivalent to A."""
    f = A.field
    rows = [list(r) for r in A.rows]
    for _ in range(3 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice(f.elements)
        rows[j] = [f.add(x, f.mul(c, y)) for x, y in zip(rows[j], rows[i])]
    for i in range(len(rows)):
        s = rng.choice(f.nonzero)
        rows[i] = [f.mul(s, x) for x in rows[i]]
    scale = [rng.choice(f.nonzero) for _ in range(A.ncols)]
    rows = [[f.mul(x, s) for x, s in zip(r, scale)] for r in rows]
    return type(A)(f, rows, A.row_labels, A.col_labels)


def shape_of(text):
    """(vertices, edges) of an emitted graph file."""
    n = m = None
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "vertices":
            n = int(parts[1])
            m = 0
        elif parts and parts[0] == "edge":
            m += 1
    return n, m


def check(t, code, out):
    """Failure reason for one request's exit code and output, or None."""
    if code != t["code"]:
        return "exit %s, expected %s" % (code, t["code"])
    if "prefix" in t and not out.startswith(t["prefix"]):
        return "output %r, expected prefix %r" % (out[:60], t["prefix"])
    if "shape" in t and list(shape_of(out)) != list(t["shape"]):
        return "shape %s, expected %s" % (shape_of(out), t["shape"])
    return None


def _triangles(om):
    return sorted(sorted(c) for c in om.balanced if len(c) == 3)


def setup(seed, workdir, expected):
    """Write the input files and return the seeded request stream, with
    "catalog_s", the seconds spent on the inputs made from catalog graphs,
    catalog builds included, which set-up time leaves out.  Of `expected`
    it reads the recorded enumerate-reps class counts."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    templates = {sub: [] for sub in SUBCOMMANDS}

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def add(argv, code=0, **expect):
        templates[argv[0]].append(dict(argv=argv, code=code, **expect))

    for i in range(RANDOM_GRAPHS):
        kind, order = GROUPS[i % len(GROUPS)]
        gg = random_gain_graph(rng, kind, order)
        g = gg.graph
        tree = list(g.edge_names[: g.n - 1])
        om = gains.induced_bias(gg)
        p_gg = write("gg%d.txt" % i, formats.emit_gain_graph(gg))
        p_sw = write("gg%d_sw.txt" % i, formats.emit_gain_graph(switched(rng, gg)))
        grp = gg.group
        bad = dict(gg.gains)
        bad[g.n - 1] = grp.op(bad[g.n - 1], grp.smallest_non_identity())  # first non-tree link
        p_bad = write("gg%d_bad.txt" % i, formats.emit_gain_graph(gg.with_gains(bad)))
        p_bg = write("bg%d.txt" % i, formats.emit_biased_graph(om))

        add(["classify", p_bg])
        add(["check-theta", p_bg], prefix="ok")
        thetas = bias.theta_subgraphs(g)
        if thetas:
            _, inside = rng.choice(thetas)
            doctored = bias.BiasedGraph(g, inside[:2], check=False)
            add(["check-theta", write("bgv%d.txt" % i, formats.emit_biased_graph(doctored))],
                code=1, prefix="violation")
        add(["rank", rng.choice(("frame", "lift")), p_bg] + tree, prefix="%d\n" % (g.n - 1))
        add(["bias", p_gg], shape=(g.n, g.m))
        if kind == "mul":
            add(["matrix", "frame", p_gg], prefix="rows %d cols %d " % (g.n, g.m))
        if kind == "add":
            add(["matrix", "lift", p_gg], prefix="rows %d cols %d " % (g.n + 1, g.m))
            add(["matrix", "lift0", p_gg], prefix="rows %d cols %d " % (g.n + 1, g.m + 1))
            a = rng.choice([x for x in grp.scalars if x != grp.field.one])
            sc = switched(rng, gg)
            sc = sc.with_gains({e: grp.scale(a, x) for e, x in sc.gains.items()})
            p_sc = write("gg%d_sc.txt" % i, formats.emit_gain_graph(sc))
            add(["switch-equiv", "--scaling", p_gg, p_sc], prefix="equivalent")
        add(["switch-equiv", p_gg, p_sw], prefix="equivalent")
        add(["switch-equiv", p_gg, p_bad], code=1, prefix="not equivalent")
        add(["minor", p_bg, "--contract", tree[0], "--delete", g.edge_names[-1]],
            shape=(g.n - 1, g.m - 2))

    t0 = time.perf_counter()
    tangled = {nb.name for nb in catalog.classify_k4()
               if not any(len(c) == 3 for c in nb.omega.balanced)}
    tangled |= {nb.name for nb in catalog.classify_2c3_proper()}
    for k, nb in enumerate(catalog.base_graphs()):
        om, g = nb.omega, nb.omega.graph
        p_bg = write("base%d.txt" % k, formats.emit_biased_graph(om))
        add(["classify", p_bg], prefix="properly-unbalanced;")
        forms = {}
        for kind, group, build in (("frame", MultiplicativeGroup(CANON_Q), canonical.frame_matrix),
                                   ("lift", AdditiveGroup(CANON_Q), canonical.lift_matrix)):
            reps = gains.realizations(om, group)
            if not reps:
                continue
            A = build(rng.choice(reps)).matrix
            forms[kind] = write("base%d_%s.txt" % (k, kind), formats.emit_matrix(A))
            p_scr = write("base%d_%s_scr.txt" % (k, kind),
                          formats.emit_matrix(scrambled(rng, A)))
            add(["proj-equiv", forms[kind], p_scr], prefix="projectively equivalent")
            add(["canonicalize", p_scr, p_bg, "--kind", kind], prefix=kind + " form")
        if nb.name in tangled and len(forms) == 2:
            add(["proj-equiv", forms["frame"], forms["lift"]], code=1,
                prefix="not projectively equivalent")
        if nb.name in tangled:
            p_m = write("base%d_frame.matroid" % k,
                        "source %s\nkind frame\n" % os.path.basename(p_bg))
            want = expected["requests"]["enumerate-reps"][nb.name]
            add(["enumerate-reps", p_m, "--q", str(ENUM_Q), "--biased-graph", p_bg],
                prefix="%d classes" % want)

    pool = [catalog.dwarf("D_{1,0}"), catalog.dwarf("D_{2,1}"), catalog.dwarf("D_{4,3}")]
    pool += [nb for nb in catalog.classify_2c3_proper() if _triangles(nb.omega)]
    for k, nb in enumerate(pool):
        om, g = nb.omega, nb.omega.graph
        p_bg = write("tri%d.txt" % k, formats.emit_biased_graph(om))
        X = rng.choice(_triangles(om))
        add(["deltawye", p_bg, "--at"] + list(g.names_of(X)), shape=(g.n + 1, g.m))
        star = bias.delta_y(om, frozenset(X))
        p_star = write("tri%d_star.txt" % k, formats.emit_biased_graph(star))
        add(["wyedelta", p_star, "--vertex", str(g.n)], shape=(g.n, g.m))

    for k, name in enumerate(("D_{1,0}", "D_{2,1}")):
        om = catalog.dwarf(name).omega
        g = om.graph
        p_bg = write("ab%d.txt" % k, formats.emit_biased_graph(om))
        for u in bias.classify_balance(om).balancing_vertices:
            add(["rollup", p_bg, "--vertex", str(u)], shape=(g.n, g.m))
            cls = rng.choice(bias.unbalancing_classes(om, u).classes)
            rolled = bias.roll_up(om, u, cls)
            p_r = write("ab%d_rolled%d.txt" % (k, u), formats.emit_biased_graph(rolled))
            add(["unroll", p_r, "--vertex", str(u)], shape=(g.n, g.m))

    catalog_s = time.perf_counter() - t0

    # every subcommand gets the same number of requests: whole cycles
    # through its inputs plus a seeded sample of them
    share = math.ceil(REQUESTS_PER_PASS / len(SUBCOMMANDS))
    stream = []
    for ts in templates.values():
        stream += ts * (share // len(ts)) + rng.sample(ts, share % len(ts))
    rng.shuffle(stream)
    return {"stream": stream, "templates": templates, "catalog_s": catalog_s}


def run_request(units, t, sink):
    def go():
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(t["argv"]))
        return check(t, code, sink.getvalue())

    return units.run("request", t["argv"][0], go)


def run(inputs, units, expected):
    sink = io.StringIO()
    for t in inputs["stream"]:
        run_request(units, t, sink)
    return {"requests": len(inputs["stream"])}
