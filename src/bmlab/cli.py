"""Command-line front end.

Exit codes: 0 pass/success, 1 fail/negative answer, 2 usage or parse
error, 3 bound exhausted / undecided, 141 (128 + SIGPIPE) stdout closed
before the output was written.  Every subcommand takes --json.
The BMLAB_BOUNDS environment variable scales the default search bounds
(for `enumerate-reps`, canonical.ENUMERATION_WORK_BOUND; for `verify`, each
claim's own max_vertices/max_edges defaults).
"""

import argparse
import functools
import inspect
import json
import math
import os
import sys

from . import catalog, formats, verify
from .bias import (
    biased_minor,
    check_theta_property,
    classify_balance,
    delta_y,
    is_tangled,
    roll_up,
    unbalancing_classes,
    unroll,
    y_delta,
)
from .canonical import (
    ENUMERATION_WORK_BOUND,
    FRAME,
    KINDS,
    LIFT,
    canonicalize_representation,
    enumerate_representations,
    kind_parts,
)
from .errors import BmlabError, BoundExceeded, NotACycle, ParseError
from .fields import gf
from .formats import read_text
from .gains import induced_bias, switching_equivalent, switching_scaling_equivalent
from .linalg import projectively_equivalent

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_CLOSED_PIPE = 141


def bounds_scale():
    """The BMLAB_BOUNDS factor; anything but a finite number >= 1 is a
    usage error, since the variable only raises the bounds."""
    text = os.environ.get("BMLAB_BOUNDS", "1")
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not 1 <= scale < math.inf:
        raise ParseError("BMLAB_BOUNDS must be a finite number >= 1, got %r" % text)
    return scale


def _field_order(q):
    """--q, checked: a q that GF(q) rejects is a usage error."""
    try:
        return gf(q).q
    except BmlabError as exc:
        raise ParseError("--q: %s" % exc)


def _to_devnull(stream):
    """Point stream's descriptor at os.devnull: its reader is gone, and
    what is still buffered must not fail again at exit."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _complain(text):
    """Print text on stderr.  A closed stderr loses it but changes no exit
    code."""
    try:
        print(text, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _emit(payload, as_json, text):
    print(formats.dumps(payload) if as_json else text)


def _emit_file(text, as_json, **fields):
    """A file in one of the text formats: the file as it is, or under --json
    {"file": text, **fields}."""
    if as_json:
        print(formats.dumps({"file": text, **fields}))
    else:
        sys.stdout.write(text)


def cmd_catalog(args):
    if args.all == bool(args.name):
        _complain("catalog: need a name or --all, not both")
        return EXIT_USAGE
    if args.all:
        table = []
        for nb in catalog.named_graphs():
            om = nb.omega
            table.append({
                "name": nb.name,
                "vertices": om.graph.n,
                "edges": om.graph.m,
                "balanced_cycles": len(om.balanced),
                "balance": classify_balance(om).tag,
                "tangled": is_tangled(om)[0],
                "note": nb.note,
            })
        _emit({"catalog": table}, args.json,
              "\n".join("%-9s n=%d m=%d |B|=%d %s" % (
                  r["name"], r["vertices"], r["edges"], r["balanced_cycles"], r["balance"])
                  for r in table))
        return EXIT_PASS
    try:
        nb = catalog.by_name(args.name)
    except BmlabError:
        _complain("unknown catalog name %r; known: %s" % (
            args.name, ", ".join(known.name for known in catalog.named_graphs())))
        return EXIT_USAGE
    _emit_file(formats.emit_biased_graph(nb.omega), args.json, name=nb.name)
    return EXIT_PASS


def cmd_check_theta(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph), check=False)
    try:
        violation = check_theta_property(om.graph, om.balanced)
    except NotACycle as exc:  # a malformed file, as every other subcommand reports it
        raise ParseError(str(exc))
    if violation is None:
        _emit({"status": "ok"}, args.json, "ok: theta property holds")
        return EXIT_PASS
    theta, cycles = violation
    payload = {
        "status": "violation",
        "theta": formats.edge_names_json(om.graph, theta),
        "cycles": [formats.edge_names_json(om.graph, c) for c in cycles],
    }
    _emit(payload, args.json,
          "violation: theta %s" % " ".join(payload["theta"]))
    return EXIT_FAIL


def cmd_classify(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    cls = classify_balance(om)
    tangled, witness = is_tangled(om)
    payload = {
        "balance": cls.tag,
        "balancing_vertices": list(cls.balancing_vertices),
        "tangled": tangled,
    }
    if witness is not None:
        payload["disjoint_unbalanced_pair"] = [
            formats.edge_names_json(om.graph, c) for c in witness
        ]
    _emit(payload, args.json,
          "%s; balancing vertices %s; tangled=%s" % (
              cls.tag, list(cls.balancing_vertices), tangled))
    return EXIT_PASS


def cmd_rank(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    M = kind_parts(args.kind).matroid(om)
    r = M.rank(args.subset) if args.subset else M.full_rank()
    _emit({"kind": args.kind, "rank": r}, args.json, str(r))
    return EXIT_PASS


def cmd_matrix(args):
    gg = formats.parse_gain_graph(read_text(args.gain_graph))
    form = kind_parts(args.kind).matrix(gg)
    text = formats.emit_matrix(form.matrix)
    if args.json:
        print(formats.dumps({"kind": args.kind, "matrix": text,
                             "rows": list(form.matrix.row_labels)}))
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_bias(args):
    gg = formats.parse_gain_graph(read_text(args.gain_graph))
    om = induced_bias(gg)
    _emit_file(formats.emit_biased_graph(om), args.json, balanced=[
        formats.edge_names_json(om.graph, c) for c in sorted(om.balanced, key=sorted)])
    return EXIT_PASS


def cmd_switch_equiv(args):
    g1 = formats.parse_gain_graph(read_text(args.gg1))
    g2 = formats.parse_gain_graph(read_text(args.gg2))
    if not args.scaling:
        eta = switching_equivalent(g1, g2)
        res = None if eta is None else (None, eta)
    elif g1.group.is_additive_field_group:
        res = switching_scaling_equivalent(g1, g2)
    else:
        _complain("switch-equiv: --scaling needs additive gains (group add q)")
        return EXIT_USAGE
    if res is None:
        _emit({"equivalent": False}, args.json, "not equivalent")
        return EXIT_FAIL
    a, eta = res
    scalar = {} if a is None else {"scalar": a}
    _emit({"equivalent": True, **scalar, "switching": {str(v): x for v, x in eta.items()}},
          args.json, "equivalent" if a is None else "equivalent (scalar %s)" % a)
    return EXIT_PASS


def cmd_proj_equiv(args):
    A = formats.parse_matrix(read_text(args.mat1))
    B = formats.parse_matrix(read_text(args.mat2))
    w = projectively_equivalent(A, B)
    if w is None:
        _emit({"equivalent": False}, args.json, "not projectively equivalent")
        return EXIT_FAIL
    _emit({"equivalent": True, "witness": formats.witness_to_json(w)},
          args.json, "projectively equivalent")
    return EXIT_PASS


def cmd_canonicalize(args):
    A = formats.parse_matrix(read_text(args.matrix))
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    res = canonicalize_representation(A, om, hint=args.kind)
    if res.status != "ok":
        _emit({"status": res.status, "reason": res.reason}, args.json,
              "undecided: %s" % res.reason)
        return EXIT_UNDECIDED
    payload = {
        "status": "ok",
        "kind": res.kind,
        "rolled_edges": formats.edge_names_json(om.graph, res.rolled_edges),
        "gains": {om.graph.edge_names[e]: v
                  for e, v in res.form.gain_graph.gains.items()},
        "matrix": formats.emit_matrix(res.form.matrix),
        "witness": formats.witness_to_json(res.witness),
        "other_kind": res.other_kind,
    }
    _emit(payload, args.json,
          "%s form%s" % (res.kind,
                         "" if not res.rolled_edges else
                         " (rolled: %s)" % ",".join(payload["rolled_edges"])))
    return EXIT_PASS


def cmd_enumerate_reps(args):
    q = _field_order(args.q)
    # a source that is the --biased-graph file is parsed once, so M is
    # that graph's own kept matroid
    graphs = {}
    M = formats.parse_matroid(read_text(args.matroid),
                              base_dir=os.path.dirname(args.matroid) or ".", graphs=graphs)
    om = None
    if args.biased_graph:
        om = graphs.get(os.path.realpath(args.biased_graph))
        if om is None:
            om = formats.parse_biased_graph(read_text(args.biased_graph))
    classes = enumerate_representations(
        M, q, biased_graph=om,
        max_work=int(ENUMERATION_WORK_BOUND * bounds_scale()),
    )
    payload = {
        "q": q,
        "classes": [
            {"matrix": formats.emit_matrix(c.matrix), "kind": c.kind,
             "standard_forms": c.count}
            for c in classes
        ],
    }
    _emit(payload, args.json, "%d classes" % len(classes))
    return EXIT_PASS


def cmd_minor(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    contract = om.graph.edge_set(args.contract or [])
    delete = om.graph.edge_set(args.delete or [])
    if contract & delete:
        _complain("minor: --contract and --delete share %s"
                  % " ".join(om.graph.names_of(contract & delete)))
        return EXIT_USAGE
    res = biased_minor(om, contract, delete)
    _emit_file(formats.emit_biased_graph(res.omega), args.json, link_minor=res.is_link_minor)
    return EXIT_PASS


def cmd_deltawye(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    X = om.graph.edge_set(args.at)
    _emit_file(formats.emit_biased_graph(delta_y(om, X)), args.json)
    return EXIT_PASS


def cmd_wyedelta(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    out, _ = y_delta(om, args.vertex)
    _emit_file(formats.emit_biased_graph(out), args.json)
    return EXIT_PASS


def cmd_rollup(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    if args.cls:
        cls = om.graph.edge_set(args.cls)
    else:
        part = unbalancing_classes(om, args.vertex)
        cls = part.classes[0]
    _emit_file(formats.emit_biased_graph(roll_up(om, args.vertex, cls)), args.json)
    return EXIT_PASS


def cmd_unroll(args):
    om = formats.parse_biased_graph(read_text(args.biased_graph))
    _emit_file(formats.emit_biased_graph(unroll(om, args.vertex)), args.json)
    return EXIT_PASS


def _claim_kwargs(claim, kwargs, scale):
    """The options among kwargs that the claim declares; with scale > 1,
    also the claim's own max_vertices/max_edges defaults times scale."""
    params = inspect.signature(claim).parameters
    out = {k: v for k, v in kwargs.items() if k in params}
    if scale > 1:
        for k in ("max_vertices", "max_edges"):
            if k in params:
                out[k] = int(params[k].default * scale)
    return out


def cmd_verify(args):
    if args.all == bool(args.claim):
        _complain("verify: need a claim id or --all, not both")
        return EXIT_USAGE
    names = verify.all_claims() if args.all else [args.claim]
    if not args.all and args.claim not in verify.CLAIMS:
        _complain("unknown claim %r; known: %s" % (args.claim, ", ".join(verify.all_claims())))
        return EXIT_USAGE
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.q is not None:
        kwargs["q"] = _field_order(args.q)
    if not args.all:
        params = inspect.signature(verify.CLAIMS[args.claim]).parameters
        refused = [k for k in kwargs if k not in params]
        if refused:
            _complain("verify: %s takes no %s; its options: %s" % (
                args.claim, " ".join("--" + k for k in refused),
                " ".join("--" + k for k in ("seed", "q") if k in params) or "none"))
            return EXIT_USAGE
    scale = bounds_scale()
    reports = []
    worst = EXIT_PASS
    for name in names:
        rep = verify.run_claim(name, **_claim_kwargs(verify.CLAIMS[name], kwargs, scale))
        reports.append(rep)
        line = "%-30s %-10s %6.2fs %s" % (
            rep.claim, rep.status.upper(), rep.seconds,
            "" if args.json else json.dumps(rep.counts, sort_keys=True))
        if not args.json:
            print(line)
        if rep.status == "fail":
            worst = EXIT_FAIL
        elif rep.status == "undecided" and worst == EXIT_PASS:
            worst = EXIT_UNDECIDED
    if args.json:
        print(formats.dumps({"reports": [r.to_json() for r in reports]}))
    return worst


@functools.lru_cache(maxsize=1)
def build_parser():
    """The bmlab argument parser, built once per process: parse_args keeps
    no state between calls, so every main() call shares it.  Its
    `subcommands` attribute is argparse's own table from each subcommand
    name to that subcommand's parser."""
    p = argparse.ArgumentParser(
        prog="bmlab",
        description="biased graphs, gain graphs, frame/lift matroids, and "
                    "canonical matrix representations over finite fields",
    )
    sub = p.add_subparsers(dest="command")

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true")
        return sp

    sp = add("catalog", cmd_catalog, help="dump a named biased graph")
    sp.add_argument("name", nargs="?")
    sp.add_argument("--all", action="store_true")

    sp = add("check-theta", cmd_check_theta, help="validate the theta property")
    sp.add_argument("biased_graph")

    sp = add("classify", cmd_classify, help="balance classification")
    sp.add_argument("biased_graph")

    sp = add("rank", cmd_rank, help="frame or lift rank of an edge subset")
    sp.add_argument("kind", choices=(FRAME, LIFT))
    sp.add_argument("biased_graph")
    sp.add_argument("subset", nargs="*")

    sp = add("matrix", cmd_matrix, help="canonical matrix of a gain graph")
    sp.add_argument("kind", choices=KINDS)
    sp.add_argument("gain_graph")

    sp = add("bias", cmd_bias, help="induced bias of a gain graph")
    sp.add_argument("gain_graph")

    sp = add("switch-equiv", cmd_switch_equiv, help="switching equivalence")
    sp.add_argument("gg1")
    sp.add_argument("gg2")
    sp.add_argument("--scaling", action="store_true",
                    help="allow scaling (additive gains)")

    sp = add("proj-equiv", cmd_proj_equiv, help="projective equivalence")
    sp.add_argument("mat1")
    sp.add_argument("mat2")

    sp = add("canonicalize", cmd_canonicalize,
             help="canonicalize a representation")
    sp.add_argument("matrix")
    sp.add_argument("biased_graph")
    sp.add_argument("--kind", choices=(FRAME, LIFT))

    sp = add("enumerate-reps", cmd_enumerate_reps,
             help="representation classes of a matroid")
    sp.add_argument("matroid")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--biased-graph")

    sp = add("minor", cmd_minor, help="biased minor")
    sp.add_argument("biased_graph")
    sp.add_argument("--contract", nargs="*")
    sp.add_argument("--delete", nargs="*")

    sp = add("deltawye", cmd_deltawye, help="Delta-Y exchange")
    sp.add_argument("biased_graph")
    sp.add_argument("--at", nargs=3, required=True,
                    help="edge names of a balanced triangle")

    sp = add("wyedelta", cmd_wyedelta, help="Y-Delta exchange")
    sp.add_argument("biased_graph")
    sp.add_argument("--vertex", type=int, required=True)

    sp = add("rollup", cmd_rollup, help="roll up an unbalancing class")
    sp.add_argument("biased_graph")
    sp.add_argument("--vertex", type=int, required=True)
    sp.add_argument("--class", dest="cls", nargs="*")

    sp = add("unroll", cmd_unroll, help="unroll the joints at a vertex")
    sp.add_argument("biased_graph")
    sp.add_argument("--vertex", type=int, required=True)

    sp = add("verify", cmd_verify, help="run a registered paper claim")
    sp.add_argument("claim", nargs="?")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--q", type=int)
    p.subcommands = sub.choices
    return p


def main(argv=None):
    """Run the bmlab command line argv (default sys.argv[1:]) and return its
    exit code.  An argv that starts with a subcommand name is parsed once,
    by that subcommand's parser, with leftover arguments the top-level
    parser's "unrecognized arguments" error, as parse_args reports them.
    Any other argv (empty, -h, an unknown word) goes through the top-level
    parser, which answers those."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)  # any iterable, as parse_args takes
    sp = parser.subcommands.get(argv[0]) if argv else None
    if sp is None:
        args = parser.parse_args(argv)
    else:
        args, extras = sp.parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: %s" % " ".join(extras))
        args.command = argv[0]
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # flush at exit reports nothing either
        _to_devnull(sys.stdout)
        return EXIT_CLOSED_PIPE
    except ParseError as exc:
        _complain("parse error: %s" % exc)
        return EXIT_USAGE
    except BoundExceeded as exc:
        _complain("bound exceeded: %s" % exc)
        return EXIT_UNDECIDED
    except BmlabError as exc:
        _complain("error: %s" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
