import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bmlab import catalog, cli, formats, verify
from bmlab.cli import main
from bmlab.errors import BoundExceeded
from bmlab.graph import MultiGraph
from bmlab.matroid import AXIOM_CHECK_BOUND, uniform_matroid
from oracles import count_builds, drop_isolated, witness_from_json


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def b0_file(tmp_path):
    return write(tmp_path, "b0.bg", formats.emit_biased_graph(catalog.tube("B_0").omega))


@pytest.fixture
def gain_file(tmp_path):
    text = formats.emit_graph(catalog.graph_2c3())
    text += "group mul 5\n"
    for i, val in enumerate((1, 2, 1, 3, 2, 4), 1):
        text += "gain e%d %d\n" % (i, val)
    return write(tmp_path, "g.gg", text)


def test_catalog_dump(capsys):
    assert main(["catalog", "B_0"]) == 0
    out = capsys.readouterr().out
    assert "vertices 4" in out


def test_catalog_all_json(capsys):
    assert main(["catalog", "--all", "--json"]) == 0
    table = json.loads(capsys.readouterr().out)["catalog"]
    assert len(table) == 24  # 7 + 6 + 3 + 3 contracted + U2/U3 + 3 splits


def test_catalog_unknown_name_is_a_usage_error(capsys):
    assert main(["catalog", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("unknown catalog name 'nosuch'; known: ")
    assert err.rstrip("\n").split("known: ")[1].split(", ") == [
        nb.name for nb in catalog.named_graphs()]


def test_check_theta_ok(capsys, b0_file):
    assert main(["check-theta", b0_file]) == 0


def test_check_theta_violation(tmp_path, capsys):
    g = catalog.graph_k4()
    cyc = [c for c in g.cycles() if len(c) == 3]
    text = formats.emit_graph(g)
    for c in cyc[:2]:
        text += "balanced %s\n" % " ".join(g.names_of(c.edges))
    path = write(tmp_path, "bad.bg", text)
    assert main(["check-theta", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "violation"
    assert len(payload["cycles"]) == 3


def test_classify(capsys, b0_file):
    assert main(["classify", b0_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["balance"] == "properly-unbalanced"
    assert payload["tangled"] is False


def test_rank(capsys, b0_file):
    assert main(["rank", "frame", b0_file]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["rank", "lift", b0_file, "e1", "e2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_matrix_and_bias(capsys, gain_file):
    assert main(["matrix", "frame", gain_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rows 3 cols 6 field gf 5")
    assert main(["matrix", "frame", gain_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "frame", "matrix": out,
                                                   "rows": ["v1", "v2", "v3"]}
    assert main(["bias", gain_file]) == 0
    out = capsys.readouterr().out
    assert "balanced" in out


def test_switch_equiv(tmp_path, capsys, gain_file):
    from bmlab.gains import GainGraph, MultiplicativeGroup, switch

    gg = formats.parse_gain_graph(open(gain_file).read())
    other = switch(gg, {0: 2, 1: 3, 2: 1})
    other_file = write(tmp_path, "h.gg", formats.emit_gain_graph(other))
    assert main(["switch-equiv", gain_file, other_file]) == 0
    bad = GainGraph(gg.graph, gg.group, {**gg.gains, 5: 1})
    bad_file = write(tmp_path, "bad.gg", formats.emit_gain_graph(bad))
    assert main(["switch-equiv", gain_file, bad_file]) == 1


def test_switch_equiv_scaling(tmp_path, capsys, gain_file):
    from bmlab.gains import AdditiveGroup, GainGraph, switch

    # --scaling asks a question multiplicative gains cannot answer: two
    # `group mul 5` files that differ on one edge are a usage error, not
    # "not equivalent" by plain switching
    gg = formats.parse_gain_graph(open(gain_file).read())
    bad = GainGraph(gg.graph, gg.group, {**gg.gains, 5: 1})
    bad_file = write(tmp_path, "bad.gg", formats.emit_gain_graph(bad))
    assert main(["switch-equiv", "--scaling", gain_file, bad_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "--scaling" in captured.err
    # additive gains: a scaled switched copy is found with its scalar
    add = GainGraph(gg.graph, AdditiveGroup(5), {0: 0, 1: 1, 2: 0, 3: 2, 4: 3, 5: 1})
    copy = switch(add.with_gains({e: add.group.scale(3, x) for e, x in add.gains.items()}),
                  {0: 1, 1: 4, 2: 2})
    add_file = write(tmp_path, "add.gg", formats.emit_gain_graph(add))
    copy_file = write(tmp_path, "copy.gg", formats.emit_gain_graph(copy))
    assert main(["switch-equiv", "--scaling", add_file, copy_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True and payload["scalar"] == 3
    assert main(["switch-equiv", add_file, copy_file]) == 1
    assert capsys.readouterr().out == "not equivalent\n"
    # an additive file against a multiplicative one is a group mismatch,
    # with or without --scaling
    for extra in ([], ["--scaling"]):
        assert main(["switch-equiv", *extra, add_file, gain_file]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_proj_equiv_identity(tmp_path, capsys):
    from bmlab.fields import gf
    from bmlab.linalg import FieldMatrix

    A = FieldMatrix(gf(5), [[1, 2], [0, 3]], None, ("a", "b"))
    path = write(tmp_path, "a.mat", formats.emit_matrix(A))
    assert main(["proj-equiv", path, path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    w = witness_from_json(payload["witness"])
    assert w.verify(A, A)


def test_proj_equiv_of_inequivalent_matrices(tmp_path, capsys):
    # the two classes of U_{2,4} over GF(4): exit 1, and no witness
    from bmlab.fields import gf
    from bmlab.linalg import FieldMatrix

    paths = [write(tmp_path, "%d.mat" % x, formats.emit_matrix(
        FieldMatrix(gf(4), [[1, 0, 1, 1], [0, 1, 1, x]], None, ("a", "b", "c", "d"))))
        for x in (2, 3)]
    assert main(["proj-equiv", *paths]) == 1
    assert capsys.readouterr().out == "not projectively equivalent\n"
    assert main(["proj-equiv", *paths, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"equivalent": False}


def test_canonicalize_cli(tmp_path, capsys, b0_file):
    from bmlab.canonical import frame_matrix
    from bmlab.gains import MultiplicativeGroup, realizations

    b0 = catalog.tube("B_0").omega
    gg = realizations(b0, MultiplicativeGroup(5))[0]
    A = frame_matrix(gg).matrix
    mat = write(tmp_path, "a.mat", formats.emit_matrix(A))
    assert main(["canonicalize", mat, b0_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "frame"


def test_canonicalize_cli_reports_the_rolled_edges(tmp_path, capsys):
    # a GF(4) frame class of B_0' canonicalizes only to a form particular
    # to a roll-up: the text names the rolled edge, the JSON lists it, and
    # the witness carries the matrix onto the form
    from bmlab.canonical import enumerate_representations
    from bmlab.matroid import frame_matroid

    b0p = drop_isolated(catalog.by_name("B_0'").omega)
    A = enumerate_representations(frame_matroid(b0p), 4)[0].matrix
    mat = write(tmp_path, "a.mat", formats.emit_matrix(A))
    bg = write(tmp_path, "b0p.bg", formats.emit_biased_graph(b0p))
    assert main(["canonicalize", mat, bg, "--kind", "frame"]) == 0
    assert capsys.readouterr().out == "frame form (rolled: e1)\n"
    assert main(["canonicalize", mat, bg, "--kind", "frame", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["rolled_edges"]) == ("frame", ["e1"])
    w = witness_from_json(payload["witness"])
    assert w.verify(A, formats.parse_matrix(payload["matrix"]))


def test_canonicalize_cli_without_a_form_is_undecided(tmp_path, capsys):
    # F and L of a balanced K_4 have rank |V| - 1, so neither kind has a
    # canonical form of its representations: exit 3 with the reasons
    from bmlab.bias import BiasedGraph
    from bmlab.canonical import frame_matrix
    from bmlab.gains import GainGraph, MultiplicativeGroup

    k4 = catalog.graph_k4()
    om = BiasedGraph(k4, [c.edges for c in k4.cycles()])
    gg = GainGraph(k4, MultiplicativeGroup(5), dict.fromkeys(range(k4.m), 1))
    mat = write(tmp_path, "k4.mat", formats.emit_matrix(frame_matrix(gg).matrix))
    bg = write(tmp_path, "k4.bg", formats.emit_biased_graph(om))
    reason = "frame: rank != |V|; lift: rank != |V|"
    assert main(["canonicalize", mat, bg]) == 3
    assert capsys.readouterr().out == "undecided: %s\n" % reason
    assert main(["canonicalize", mat, bg, "--json"]) == 3
    assert json.loads(capsys.readouterr().out) == {"status": "undecided", "reason": reason}


def test_enumerate_reps_cli(tmp_path, capsys):
    from bmlab.matroid import uniform_matroid

    M = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    path = write(tmp_path, "u24.matroid", formats.emit_matroid(M))
    assert main(["enumerate-reps", path, "--q", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 2
    # one class per U_{2,4} over GF(4) is 3^3 = 27 standard forms
    assert [c["standard_forms"] for c in payload["classes"]] == [27, 27]
    assert [c["matrix"] for c in payload["classes"]] == [
        "rows 2 cols 4 field gf 4\nlabels e1 e2 e3 e4\n1 0 1 1\n0 1 1 %d\n" % x
        for x in (2, 3)
    ]
    # no field cap: GF(7) gives U_{2,4} its q - 2 = 5 classes
    assert main(["enumerate-reps", path, "--q", "7"]) == 0
    assert capsys.readouterr().out == "5 classes\n"


def test_minor_cli(capsys, b0_file):
    assert main(["minor", b0_file, "--contract", "e3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["link_minor"] is True
    assert "vertices 3" in payload["file"]


def test_deltawye_cli(tmp_path, capsys):
    t2p = catalog.biased_2c3("T_2'").omega
    path = write(tmp_path, "t2p.bg", formats.emit_biased_graph(t2p))
    X = min(t2p.balanced, key=sorted)
    names = [t2p.graph.edge_names[e] for e in sorted(X)]
    assert main(["deltawye", path, "--at"] + names) == 0
    out = capsys.readouterr().out
    assert "vertices 4" in out


def test_rollup_unroll_cli(tmp_path, capsys):
    d10 = catalog.dwarf("D_{1,0}").omega
    from bmlab.bias import classify_balance

    u = classify_balance(d10).balancing_vertices[0]
    path = write(tmp_path, "d10.bg", formats.emit_biased_graph(d10))
    assert main(["rollup", path, "--vertex", str(u)]) == 0
    rolled = capsys.readouterr().out
    rolled_path = write(tmp_path, "rolled.bg", rolled)
    assert main(["unroll", rolled_path, "--vertex", str(u)]) == 0


def test_rollup_cli_rolls_the_named_class(tmp_path, capsys):
    # D_{1,0} has three one-edge classes at its balancing vertex: --class
    # picks one, where no --class takes the first
    from bmlab.bias import classify_balance, roll_up, unbalancing_classes

    d10 = catalog.dwarf("D_{1,0}").omega
    u = classify_balance(d10).balancing_vertices[0]
    path = write(tmp_path, "d10.bg", formats.emit_biased_graph(d10))
    classes = unbalancing_classes(d10, u).classes
    assert len(classes) == 3
    for cls in classes:
        assert main(["rollup", path, "--vertex", str(u), "--class",
                     *d10.graph.names_of(cls)]) == 0
        assert capsys.readouterr().out == formats.emit_biased_graph(roll_up(d10, u, cls))
    assert main(["rollup", path, "--vertex", str(u)]) == 0
    assert capsys.readouterr().out == formats.emit_biased_graph(roll_up(d10, u, classes[0]))


def test_file_outputs_take_json(tmp_path, capsys):
    # each output in the text format is, under --json, the "file" field
    from bmlab.bias import classify_balance

    t2p = catalog.biased_2c3("T_2'").omega
    d10 = catalog.dwarf("D_{1,0}").omega
    u = str(classify_balance(d10).balancing_vertices[0])
    p_t2p = write(tmp_path, "t2p.bg", formats.emit_biased_graph(t2p))
    p_d10 = write(tmp_path, "d10.bg", formats.emit_biased_graph(d10))
    X = t2p.graph.names_of(min(t2p.balanced, key=sorted))
    assert main(["deltawye", p_t2p, "--at", *X]) == 0
    p_wye = write(tmp_path, "wye.bg", capsys.readouterr().out)
    for argv, fields in [
        (["deltawye", p_t2p, "--at", *X], {}),
        (["wyedelta", p_wye, "--vertex", str(t2p.graph.n)], {}),
        (["rollup", p_d10, "--vertex", u], {}),
        (["unroll", p_d10, "--vertex", u], {}),
        (["catalog", "B_0"], {"name": "B_0"}),
    ]:
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"file": text, **fields}, argv


@pytest.mark.parametrize("argv", [["verify", "no-such-claim", "--all"],
                                  ["verify", "base-count", "--all"], ["verify"],
                                  ["catalog", "--all", "T_0"], ["catalog"]])
def test_all_and_a_name_exclude_each_other(monkeypatch, capsys, argv):
    ran = []
    monkeypatch.setattr(verify, "run_claim", lambda name, **kwargs: ran.append(name))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and ran == []
    assert err == "%s: need a %s or --all, not both\n" % (
        argv[0], "claim id" if argv[0] == "verify" else "name")


def test_rollup_without_a_class_partitions_the_links_once(tmp_path, capsys):
    """rollup picks the first unbalancing class and roll_up checks it: both
    read the one partition kept on the parsed graph."""
    from bmlab.bias import classify_balance, unbalancing_classes

    runs = 0
    for nb in catalog.classify_k4() + catalog.contracted_tubes():
        path = write(tmp_path, "om.bg", formats.emit_biased_graph(nb.omega))
        for u in classify_balance(nb.omega).balancing_vertices:
            with count_builds(unbalancing_classes) as builds:
                assert main(["rollup", path, "--vertex", str(u)]) == 0
            assert builds == {"unbalancing_classes": 1}, (nb.name, u)
            runs += 1
    assert runs >= 10
    capsys.readouterr()


def test_verify_cli(capsys):
    assert main(["verify", "seven-dwarves"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_unknown_claim(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_verify_json(capsys):
    assert main(["verify", "base-count", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["status"] == "pass"


def test_verify_all_over_gf2_reports_every_claim(capsys):
    # GF(2)^x is trivial, so claims over it may find no realization; each
    # still reports, and only allreps-contracted-tube may fail
    assert main(["verify", "--all", "--q", "2", "--json"]) in (0, 1)
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["claim"] for r in reports] == verify.all_claims()
    assert {r["claim"] for r in reports if r["status"] != "pass"} <= {"allreps-contracted-tube"}


def test_python_dash_m_bmlab_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "bmlab", "verify", "base-count", "--json"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reports"][0]["status"] == "pass"


def test_verify_bounds_scale_each_claims_own_defaults(monkeypatch, capsys):
    calls = {}

    def fake(name, **kwargs):
        calls[name] = kwargs
        return verify.VerifyReport(name, "pass")

    monkeypatch.setattr(verify, "run_claim", fake)
    monkeypatch.setenv("BMLAB_BOUNDS", "2")
    assert main(["verify", "--all", "--seed", "7"]) == 0
    assert calls["unique-balancing-subdivision"] == {
        "max_vertices": 8, "max_edges": 14, "seed": 7}
    assert calls["tangled-minor"] == {"max_vertices": 10, "max_edges": 16}
    assert calls["contraction-inequiv"] == {}
    assert calls["canonical-frame"] == {"seed": 7}
    monkeypatch.delenv("BMLAB_BOUNDS")
    assert main(["verify", "unique-balancing-subdivision"]) == 0
    assert calls["unique-balancing-subdivision"] == {}


@pytest.mark.parametrize("argv, message", [
    (["main2", "--q", "7"], "verify: main2 takes no --q; its options: --seed\n"),
    (["base-count", "--seed", "3"], "verify: base-count takes no --seed; its options: none\n"),
    (["base-count", "--seed", "3", "--q", "4"],
     "verify: base-count takes no --seed --q; its options: none\n"),
    (["allreps-k4", "--q", "5", "--seed", "2"],
     "verify: allreps-k4 takes no --seed; its options: --q\n"),
])
def test_verify_refuses_an_option_the_claim_does_not_declare(monkeypatch, capsys, argv,
                                                              message):
    ran = []
    monkeypatch.setattr(verify, "run_claim", lambda name, **kwargs: ran.append(name))
    assert main(["verify"] + argv) == 2
    assert capsys.readouterr().err == message
    assert ran == []


@pytest.mark.parametrize("value", ["nan", "inf", "abc", "0"])
def test_bad_bounds_scale_is_a_usage_error(tmp_path, monkeypatch, capsys, value):
    from bmlab.matroid import uniform_matroid

    M = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    path = write(tmp_path, "u24.matroid", formats.emit_matroid(M))
    monkeypatch.setenv("BMLAB_BOUNDS", value)
    for argv in (["verify", "base-count"], ["enumerate-reps", path, "--q", "4"]):
        assert main(argv) == 2
        assert "BMLAB_BOUNDS" in capsys.readouterr().err


def test_verify_all_reports_a_bound_hit_as_undecided(monkeypatch, capsys):
    def passing():
        return [], {}

    def bounded():
        raise BoundExceeded("link-minor search bound exceeded")

    for name in verify.all_claims():
        monkeypatch.setitem(verify.CLAIMS, name, passing)
    monkeypatch.setitem(verify.CLAIMS, "base-count", bounded)
    assert main(["verify", "--all", "--json"]) == 3
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == 35
    undecided = [r for r in reports if r["status"] != "pass"]
    assert [(r["claim"], r["status"]) for r in undecided] == [("base-count", "undecided")]
    assert undecided[0]["counts"] == {"undecided": "link-minor search bound exceeded"}


def test_a_failed_internal_check_is_raised_not_reported(monkeypatch):
    # an AssertionError from a product self-check is a fault of the
    # program, not a claim that fails (exit 1): main lets it through
    def broken():
        raise AssertionError("witness reassembly failed")

    monkeypatch.setitem(verify.CLAIMS, "base-count", broken)
    with pytest.raises(AssertionError, match="witness reassembly failed"):
        main(["verify", "base-count"])


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["verify"]) == 2


def test_parse_error_exit(tmp_path):
    path = write(tmp_path, "bad.bg", "vertices x\n")
    assert main(["check-theta", path]) == 2


GAIN_HEAD = "vertices 2\nedge e1 0 1\n"


@pytest.mark.parametrize("command, text, message", [
    ("proj-equiv", "rows x cols 2 field gf 3\n1 0\n",
     "line 1: row count must be an integer, got 'x'"),
    ("proj-equiv", "rows 1 cols 2 field gf\n1 0\n", "line 1: field gf takes its order q"),
    ("proj-equiv", "rows 1 cols 2 field gf 6\n1 0\n", "line 1: 6 is not a prime power"),
    ("proj-equiv", "rows 1 cols 2 field gf 3\n1 3\n", "line 2: element 3 out of range for GF(3)"),
    ("bias", GAIN_HEAD + "group mul 5\ngain e1 x\n", "line 4: gain must be an integer, got 'x'"),
    ("bias", GAIN_HEAD + "group mul 5\ngain e9 1\n", "line 4: no edge named 'e9'"),
    ("bias", GAIN_HEAD + "group mul 6\ngain e1 1\n", "line 3: 6 is not a prime power"),
    ("bias", GAIN_HEAD + "group zn y\ngain e1 0\n", "line 3: group order must be an integer"),
    ("classify", GAIN_HEAD + "balanced e2\n", "line 3: no edge named 'e2'"),
    ("classify", GAIN_HEAD + "balanced e1\n", "balanced set member [0] is not a cycle"),
    ("check-theta", GAIN_HEAD + "balanced e1\n", "balanced set member [0] is not a cycle"),
    # a file of the other format: no contrabalanced answer for a gain graph
    ("classify", GAIN_HEAD + "group mul 5\ngain e1 1\n", "line 3: unknown declaration 'group'"),
    ("bias", GAIN_HEAD + "edge e2 0 1\nbalanced e1 e2\ngroup mul 5\ngain e1 1\ngain e2 1\n",
     "line 4: unknown declaration 'balanced'"),
    ("enumerate-reps", "ground a\nrank - x\nrank a 1\n", "line 2: rank must be an integer"),
    ("enumerate-reps", "source missing.bg\nkind frame\n",
     "line 1: cannot read source 'missing.bg'"),
    ("enumerate-reps", "source\nkind frame\n", "line 1: source takes one argument"),
    ("enumerate-reps", "ground a b\nrank - 0\nrank a 1\nrank b 1\nrank a,b 0\n",
     "not a matroid: unit increase fails at ('a',) + b"),
    ("enumerate-reps", "ground a b\nrank - 0\nrank a 1\nrank b 1\nrank a,c 2\n",
     "line 5: rank label 'c' not in ground"),
    ("enumerate-reps", "ground a a\nrank - 0\nrank a 1\n", "line 1: repeated ground label"),
    ("enumerate-reps", "ground a\nrank - 0\nrank a 5\n",
     "not a matroid: unit increase fails at () + a"),
    ("proj-equiv", "rows 1 cols 2 field gf 3\nlabels a a\n1 0\n", "line 2: repeated column label"),
    ("proj-equiv", "rows 0 cols 2 field gf 3\nlabels a b\n",
     "line 1: row and column counts must be >= 1"),
])
def test_malformed_input_is_a_parse_error(tmp_path, capsys, command, text, message):
    path = write(tmp_path, "bad.txt", text)
    extra = {"proj-equiv": [path], "enumerate-reps": ["--q", "3"]}.get(command, [])
    assert main([command, path] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and message in err


@pytest.mark.parametrize("q, message", [
    ("6", "6 is not a prime power"),
    ("1", "GF(q) supported for 2 <= q <= 256, got 1"),
    ("0", "GF(q) supported for 2 <= q <= 256, got 0"),
    ("300", "GF(q) supported for 2 <= q <= 256, got 300"),
])
def test_bad_field_order_is_a_usage_error(tmp_path, capsys, q, message):
    path = write(tmp_path, "u24.matroid",
                 formats.emit_matroid(uniform_matroid(2, ("e1", "e2", "e3", "e4"))))
    for argv in (["enumerate-reps", path, "--q", q], ["verify", "allreps-k4", "--q", q]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "parse error: --q: %s\n" % message


def test_enumerate_reps_beyond_the_work_bound_is_undecided(tmp_path, capsys):
    # U_{3,7} over GF(251) has millions of classes; the bound trips first
    M = uniform_matroid(3, ["x%d" % i for i in range(7)])
    path = write(tmp_path, "u37.matroid", formats.emit_matroid(M))
    assert main(["enumerate-reps", path, "--q", "251"]) == 3
    assert capsys.readouterr().err == (
        "bound exceeded: representation enumeration work bound exceeded\n")


def _counting_parses(monkeypatch):
    """A list that grows by one on each formats.parse_biased_graph call."""
    calls = []
    real = formats.parse_biased_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(formats, "parse_biased_graph", counting)
    return calls


def test_enumerate_reps_parses_a_shared_source_once(tmp_path, monkeypatch, capsys):
    # the source named as the --biased-graph file, or through a symlink to
    # it, is parsed once; a second file with the same text is parsed again
    # and gives the same answer; a file with another bias is parsed again
    # and leaves every class undecided
    om = catalog.dwarf("D_{0,2}").omega
    text = formats.emit_biased_graph(om)
    bg = write(tmp_path, "d02.bg", text)
    copy = write(tmp_path, "copy.bg", text)
    other = write(tmp_path, "other.bg", formats.emit_biased_graph(
        catalog.dwarf("D_{0,0}").omega))
    (tmp_path / "link.bg").symlink_to("d02.bg")
    mat = write(tmp_path, "d02.matroid", "source d02.bg\nkind frame\n")
    mat_link = write(tmp_path, "link.matroid", "source link.bg\nkind frame\n")
    calls = _counting_parses(monkeypatch)
    answers = []
    for matroid, graph in ((mat, bg), (mat_link, bg), (mat, copy), (mat, other)):
        del calls[:]
        assert main(["enumerate-reps", matroid, "--q", "3", "--biased-graph", graph,
                     "--json"]) == 0
        answers.append((len(calls), [c["kind"] for c in
                                     json.loads(capsys.readouterr().out)["classes"]]))
    assert answers == [(1, ["lift"]), (1, ["lift"]), (2, ["lift"]), (2, [None])]


def test_enumerate_reps_reports_the_matroid_file_first(tmp_path, capsys):
    # a malformed matroid file is reported, not the malformed biased graph
    # named after it, whether or not its source is that graph
    bad_bg = write(tmp_path, "bad.bg", "vertices x\n")
    for text, message in (("ground a\nrank - x\nrank a 1\n", "line 2: rank must be an integer"),
                          ("source bad.bg\nkind lift1\n", "kind must be frame, lift or lift0")):
        mat = write(tmp_path, "m.matroid", text)
        assert main(["enumerate-reps", mat, "--q", "3", "--biased-graph", bad_bg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err


def test_bounds_scale_multiplies_the_enumeration_work_bound(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "enumerate_representations",
                        lambda M, q, biased_graph, max_work: seen.append(max_work) or [])
    path = write(tmp_path, "u24.matroid",
                 formats.emit_matroid(uniform_matroid(2, ("e1", "e2", "e3", "e4"))))
    assert main(["enumerate-reps", path, "--q", "7"]) == 0
    monkeypatch.setenv("BMLAB_BOUNDS", "2.5")
    assert main(["enumerate-reps", path, "--q", "7"]) == 0
    assert seen == [cli.ENUMERATION_WORK_BOUND, int(2.5 * cli.ENUMERATION_WORK_BOUND)]


def test_explicit_matroid_beyond_the_axiom_check_bound_is_undecided(tmp_path, capsys):
    M = uniform_matroid(2, ["x%d" % i for i in range(AXIOM_CHECK_BOUND + 1)])
    path = write(tmp_path, "big.matroid", formats.emit_matroid(M))
    assert main(["enumerate-reps", path, "--q", "3"]) == 3
    assert capsys.readouterr().err == "bound exceeded: rank axiom check bound exceeded\n"


@pytest.mark.parametrize("argv, message", [
    (["wyedelta", "{bg}", "--vertex", "99"], "no vertex 99"),
    (["wyedelta", "{bg}", "--vertex", "-1"], "no vertex -1"),
    (["rank", "frame", "{bg}", "e1", "e9"], "label 'e9' not in ground set"),
])
def test_missing_vertex_or_edge_is_an_error(capsys, b0_file, argv, message):
    assert main([b0_file if arg == "{bg}" else arg for arg in argv]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("argv, shared", [
    (["--contract", "e1", "--delete", "e1"], "e1"),
    (["--contract", "e3", "e1", "e2", "--delete", "e2", "e4", "e1"], "e1 e2"),
])
def test_minor_with_overlapping_contract_and_delete_is_a_usage_error(capsys, b0_file, argv,
                                                                      shared):
    assert main(["minor", b0_file] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "minor: --contract and --delete share %s\n" % shared


@pytest.mark.parametrize("argv", [
    ["classify", "{missing}"],
    ["check-theta", "{missing}"],
    ["matrix", "frame", "{missing}"],
    ["proj-equiv", "{missing}", "{missing}"],
    ["enumerate-reps", "{missing}", "--q", "3"],
    ["classify", "{dir}"],
    ["classify", "{binary}"],
], ids=["classify", "check-theta", "matrix", "proj-equiv", "enumerate-reps", "directory",
        "binary"])
def test_unreadable_input_path_is_a_parse_error(tmp_path, capsys, argv):
    binary = tmp_path / "binary.bg"
    binary.write_bytes(b"vertices 2\n\xff\n")
    paths = {"missing": str(tmp_path / "nothere.bg"), "dir": str(tmp_path),
             "binary": str(binary)}
    reasons = {"missing": "No such file or directory", "dir": "Is a directory",
               "binary": "not UTF-8 text"}
    (key,) = {arg[1:-1] for arg in argv if arg.startswith("{")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: cannot read %s: %s\n" % (paths[key], reasons[key])


@pytest.mark.parametrize("text, ok", [
    ("vertices -2\n", False),
    ("vertices -1\nedge e1 0 0\n", False),
    ("vertices 0\n", True),
])
def test_vertex_count_must_not_be_negative(tmp_path, capsys, text, ok):
    assert main(["classify", write(tmp_path, "g.bg", text)]) == (0 if ok else 2)
    err = capsys.readouterr().err
    assert err == ("" if ok else "parse error: line 1: vertex count must be >= 0, got %s\n"
                   % text.split()[1])
    if not ok:
        with pytest.raises(ValueError, match="vertex count must be >= 0"):
            MultiGraph(int(text.split()[1]), [])


@pytest.mark.parametrize("command", [["check-theta"], ["classify"], ["rank", "frame"]])
def test_cycle_bound_in_a_biased_graph_file_is_undecided(tmp_path, capsys, command):
    text = "vertices 2\n" + "".join("edge e%d 0 1\n" % k for k in range(1, 26))
    assert main(command + [write(tmp_path, "big.bg", text)]) == 3
    assert capsys.readouterr().err.startswith("bound exceeded: cycle enumeration bound")


def test_build_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_answers_like_a_fresh_one(monkeypatch, capsys, b0_file):
    # options set by one call must not leak into the next: --contract and
    # --json before a bare call, usage errors (from main and from argparse)
    # before valid calls
    argvs = [
        ["minor", b0_file, "--contract", "e3", "--json"],
        ["minor", b0_file],
        ["verify", "nonsense"],
        ["check-theta", b0_file],
        ["rank", "frame", b0_file, "--json"],
        ["rank", "lift", b0_file, "e1", "e2"],
        ["rank", "nonsense", b0_file],
        ["classify", b0_file],
        [],
        ["minor", b0_file, "--delete", "e1"],
    ]

    def answers():
        out = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    shared = answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert answers() == shared
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 0, 2, 0]


@pytest.mark.parametrize("argv", [["catalog", "--all"], ["verify", "base-count"]])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # the read end is closed before the command starts, so its output meets
    # a pipe with no reader, as under `bmlab catalog --all | true`
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "bmlab", *argv], stdout=w,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_PIPE, "")
    assert cli.EXIT_CLOSED_PIPE == 128 + 13  # SIGPIPE


@pytest.mark.parametrize("argv, code", [
    (["classify", "{missing}"], 2),
    (["catalog", "nosuch"], 2),
    (["wyedelta", "{bg}", "--vertex", "99"], 1),
    (["enumerate-reps", "{u37}", "--q", "251"], 3),
], ids=["parse-error", "usage", "error", "bound"])
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, argv, code):
    # as under `bmlab classify missing 2>&1 | head -c0`: the message meets a
    # pipe with no reader, and the exit code is still the error's own
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    files = {"{missing}": str(tmp_path / "missing.bg"),
             "{bg}": write(tmp_path, "b0.bg", formats.emit_biased_graph(
                 catalog.tube("B_0").omega)),
             "{u37}": write(tmp_path, "u37.matroid", formats.emit_matroid(
                 uniform_matroid(3, ["x%d" % i for i in range(7)])))}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "bmlab", *[files.get(a, a) for a in argv]],
                              stdout=w, stderr=w, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == code


def test_canonicalize_over_the_rationals_is_an_error_not_a_crash(tmp_path, capsys):
    # a frame matrix of D_{0,0} over Q with gains 2, 11, 13, 5, 7, 3 on
    # e1-e6: it represents F(omega), but the gain groups need an order q
    om = catalog.dwarf("D_{0,0}").omega
    g = om.graph
    rows = [[0] * g.m for _ in range(g.n)]
    for e, ((u, v), gain) in enumerate(zip(g.edges, (2, 11, 13, 5, 7, 3))):
        rows[u][e], rows[v][e] = 1, -gain
    text = "rows %d cols %d field rational\nlabels %s\n" % (g.n, g.m, " ".join(g.edge_names))
    text += "".join(" ".join(map(str, row)) + "\n" for row in rows)
    mat = write(tmp_path, "q.mat", text)
    bg = write(tmp_path, "d00.bg", formats.emit_biased_graph(om))
    assert main(["canonicalize", mat, bg]) == 1
    err = capsys.readouterr().err
    assert err == "error: canonicalization needs a finite field GF(q), got QQ\n"
