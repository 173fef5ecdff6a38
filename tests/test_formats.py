import json

import pytest

from bmlab import catalog, formats
from bmlab.errors import ParseError
from bmlab.fields import QQ, gf
from bmlab.gains import MultiplicativeGroup
from bmlab.linalg import FieldMatrix, projectively_equivalent
from bmlab.matroid import matroids_equal, uniform_matroid
from oracles import witness_from_json


GRAPH_TEXT = """\
# a biased double triangle
vertices 3
edge e1 0 1
edge e2 0 1
edge e3 1 2
edge e4 1 2
edge e5 2 0
edge e6 2 0
balanced e1 e3 e5
balanced e2 e4 e5
"""


def test_graph_round_trip():
    g = formats.parse_graph(GRAPH_TEXT)
    assert g.n == 3 and g.m == 6
    again = formats.parse_graph(formats.emit_graph(g))
    assert again == g


def test_biased_graph_round_trip():
    om = formats.parse_biased_graph(GRAPH_TEXT)
    assert len(om.balanced) == 2
    again = formats.parse_biased_graph(formats.emit_biased_graph(om))
    assert again == om


def test_biased_graph_rejects_non_cycle():
    bad = GRAPH_TEXT + "balanced e1 e3\n"
    with pytest.raises(ParseError):
        formats.parse_biased_graph(bad)


def test_gain_graph_round_trip():
    text = GRAPH_TEXT.replace("balanced e1 e3 e5\n", "").replace(
        "balanced e2 e4 e5\n", ""
    )
    text += "group mul 5\n"
    for i, val in enumerate((1, 2, 1, 3, 2, 4), 1):
        text += "gain e%d %d\n" % (i, val)
    gg = formats.parse_gain_graph(text)
    assert gg.group == MultiplicativeGroup(5)
    again = formats.parse_gain_graph(formats.emit_gain_graph(gg))
    assert again.gains == gg.gains and again.group == gg.group


def test_gain_graph_missing_gain():
    text = "vertices 2\nedge e1 0 1\ngroup add 5\n"
    with pytest.raises(ParseError):
        formats.parse_gain_graph(text)


def test_gain_graph_element_range():
    text = "vertices 2\nedge e1 0 1\ngroup mul 5\ngain e1 0\n"
    with pytest.raises(ParseError):
        formats.parse_gain_graph(text)  # 0 not in GF(5)^x


def test_matrix_round_trip_gf():
    f = gf(4)
    A = FieldMatrix(f, [[1, 2, 3], [0, 1, 2]], None, ("a", "b", "c"))
    again = formats.parse_matrix(formats.emit_matrix(A))
    assert again.rows == A.rows and again.col_labels == A.col_labels
    assert again.field == f


def test_matrix_round_trip_rational():
    A = FieldMatrix(QQ, [[QQ.parse("1/2"), QQ.parse("-3")]])
    again = formats.parse_matrix(formats.emit_matrix(A))
    assert again.rows == A.rows


def test_matrix_bad_entry_count():
    with pytest.raises(ParseError):
        formats.parse_matrix("rows 1 cols 3 field gf 5\n1 2\n")


def test_parse_error_carries_line():
    try:
        formats.parse_graph("vertices 2\nedge e1 0 5\n")
    except ParseError as exc:
        assert "range" in str(exc)
    else:
        raise AssertionError("expected ParseError")


def test_matroid_explicit_round_trip():
    u = uniform_matroid(2, ("a", "b", "c"))
    text = formats.emit_matroid(u)
    again = formats.parse_matroid(text)
    assert matroids_equal(u, again)[0]


def test_matroid_from_biased_source(tmp_path):
    om = catalog.tube("B_0").omega
    bg = tmp_path / "b0.bg"
    bg.write_text(formats.emit_biased_graph(om))
    text = "source b0.bg\nkind frame\n"
    M = formats.parse_matroid(text, base_dir=str(tmp_path))
    from bmlab.matroid import frame_matroid

    assert matroids_equal(M, frame_matroid(om))[0]


def test_matroid_source_that_is_not_text_is_a_parse_error(tmp_path):
    (tmp_path / "bin.bg").write_bytes(b"vertices 2\n\xff\n")
    with pytest.raises(ParseError, match="line 1: cannot read source 'bin.bg': not UTF-8 text"):
        formats.parse_matroid("source bin.bg\nkind frame\n", base_dir=str(tmp_path))


def test_witness_json_round_trip():
    f = gf(5)
    A = FieldMatrix(f, [[1, 2], [3, 4]], None, ("x", "y"))
    w = projectively_equivalent(A, A)
    blob = json.loads(formats.dumps(formats.witness_to_json(w)))
    again = witness_from_json(blob)
    assert again.verify(A, A)
