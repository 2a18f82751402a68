import contextlib
import copy
import functools
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliquewidth import Graph, realize_text, to_edge_list_text, to_graph6, verify_expression
from cliquewidth import parse_spec, realize
from cliquewidth import certify as certify_module
from cliquewidth import recognition as recognition_module
from cliquewidth import search as search_module
from cliquewidth.certificate import (
    DELETE_RULES,
    BaseLeaf,
    Certificate,
    SplitComponentsStep,
    certificate_from_json,
    certificate_root,
    certificate_to_json,
    verify_certificate,
)
from cliquewidth.certify import InternalContradictionError
from cliquewidth.cli import main
from cliquewidth.kexpr import Create, Join, Rename, Union, parse_expression, print_expression
from cliquewidth.namedgraphs import BaseGraph, ComplementOf, NamedGraphSpec, print_spec, spec_size


def write_graph(tmp_path, name, text_graph):
    path = tmp_path / name
    path.write_text(to_edge_list_text(realize_text(text_graph)))
    return str(path)


def test_check_free_exit_codes(tmp_path, capsys):
    k4 = write_graph(tmp_path, "k4.el", "K4")
    assert main(["check-free", k4, "--spec", "diamond"]) == 0
    assert "free" in capsys.readouterr().out
    d = write_graph(tmp_path, "d.el", "diamond")
    assert main(["check-free", d, "--spec", "diamond"]) == 1
    out = capsys.readouterr().out
    assert "contains" in out and "co(2P1+P2)" in out
    assert main(["check-free", str(tmp_path / "missing.el"), "--spec", "diamond"]) == 2


def test_check_free_skips_named_graphs_larger_than_the_host(tmp_path, capsys, monkeypatch):
    # Building 60000P1 or P99999999 would take minutes; their vertex count
    # alone shows that a 4-vertex host is free of them.
    built = []

    def spy(spec):
        built.append(spec)
        if spec_size(spec)[0] > 4:
            raise AssertionError(f"realized {spec}")
        return realize(spec)

    monkeypatch.setattr(search_module, "realize", spy)
    p4 = write_graph(tmp_path, "p4.el", "P4")
    for spec in ("60000P1", "P99999999", "co(5P1)"):
        assert main(["check-free", p4, "--spec", spec]) == 0
        assert capsys.readouterr().out == "free\n"
    assert built == []
    assert main(["check-free", p4, "--spec", "P99999999", "--spec", "P3"]) == 1
    assert capsys.readouterr().out == "contains P3 on vertices [0, 1, 2]\n"
    assert built == [parse_spec("P3")]


def test_check_free_skips_named_graphs_with_more_edges_or_non_edges(tmp_path, capsys, monkeypatch):
    # K1500 has more edges than an edgeless host and 4P1 more non-edges than
    # K3+P1; building K1500 alone takes about a second and 500 MB.
    def spy(spec):
        raise AssertionError(f"realized {spec}")

    monkeypatch.setattr(search_module, "realize", spy)
    edgeless = tmp_path / "e1500.el"
    edgeless.write_text("1500 0\n")
    for spec in ("K1500", "co(1500P1)"):
        assert main(["check-free", str(edgeless), "--spec", spec]) == 0
        assert capsys.readouterr().out == "free\n"
    k3p1 = write_graph(tmp_path, "k3p1.el", "K3+P1")
    assert main(["check-free", k3p1, "--spec", "4P1"]) == 0
    assert capsys.readouterr().out == "free\n"


def test_check_free_c7_examples(tmp_path, capsys):
    c7 = write_graph(tmp_path, "c7.el", "C7")
    assert main(["check-free", c7, "--spec", "2P1+P3"]) == 0
    assert main(["check-free", c7, "--spec", "P2+P3"]) == 1
    capsys.readouterr()


def test_check_free_graph6(tmp_path, capsys):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(realize_text("C5")) + "\n")
    assert main(["check-free", str(path), "--format", "graph6", "--spec", "K3"]) == 0
    capsys.readouterr()


def test_clique_width_command(tmp_path, capsys):
    p4 = write_graph(tmp_path, "p4.el", "P4")
    out_path = tmp_path / "expr.txt"
    assert main(["clique-width", p4, "--out", str(out_path)]) == 0
    assert "clique-width 3" in capsys.readouterr().out
    expr = parse_expression(out_path.read_text().strip())
    assert verify_expression(expr, realize_text("P4"))

    k1 = write_graph(tmp_path, "k1.el", "P1")
    assert main(["clique-width", k1]) == 0
    assert "clique-width 1" in capsys.readouterr().out

    k5 = write_graph(tmp_path, "k5.el", "K5")
    assert main(["clique-width", k5]) == 0
    assert "clique-width 2" in capsys.readouterr().out


def test_clique_width_kmax_and_limits(tmp_path, capsys):
    c7 = write_graph(tmp_path, "c7.el", "C7")
    assert main(["clique-width", c7, "--kmax", "3"]) == 1
    assert "exceeds" in capsys.readouterr().out
    big = write_graph(tmp_path, "big.el", "11P1")
    assert main(["clique-width", big]) == 2
    capsys.readouterr()
    assert main(["clique-width", big, "--unsafe-size"]) == 0
    assert "clique-width 1" in capsys.readouterr().out


def test_certify_command(tmp_path, capsys):
    star = write_graph(tmp_path, "star.el", "K1,3")
    out_path = tmp_path / "cert.json"
    assert main(["certify", star, "P2+P3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    cert = certificate_from_json(out_path.read_text())
    assert verify_certificate(realize_text("K1,3"), cert).ok
    assert main(["verify-certificate", star, str(out_path)]) == 0
    assert "valid" in capsys.readouterr().out

    # certificate against the wrong graph fails verification
    c6 = write_graph(tmp_path, "c6.el", "C6")
    assert main(["verify-certificate", c6, str(out_path)]) == 1
    capsys.readouterr()


def test_certify_not_in_class(tmp_path, capsys):
    d = write_graph(tmp_path, "d.el", "diamond")
    assert main(["certify", d, "3P1+P2"]) == 1
    assert "not in class" in capsys.readouterr().out


def test_certify_deterministic(tmp_path, capsys):
    g = write_graph(tmp_path, "g.el", "C6")
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    assert main(["certify", g, "2P1+P3", "--out", str(a_path)]) == 0
    assert main(["certify", g, "2P1+P3", "--out", str(b_path)]) == 0
    capsys.readouterr()
    assert a_path.read_bytes() == b_path.read_bytes()
    json.loads(a_path.read_text())


def test_construct_commands(tmp_path, capsys):
    out_path = tmp_path / "wall.el"
    assert main(["construct", "wall", "2", "--out", str(out_path)]) == 0
    assert "16 vertices" in capsys.readouterr().out

    out_path = tmp_path / "cwall.txt"
    assert main(["construct", "complemented-wall", "2", "--out", str(out_path)]) == 0
    assert "35 vertices" in capsys.readouterr().out
    assert "PART A:" in out_path.read_text()

    p3 = write_graph(tmp_path, "p3.el", "P3")
    out_path = tmp_path / "gi.txt"
    assert main(["construct", "gi-reduce", p3, "--out", str(out_path)]) == 0
    assert "profile ok" in capsys.readouterr().out

    assert main(["construct", "wall", "x"]) == 2
    capsys.readouterr()


def test_construct_complemented_wall_rejects_graph6(tmp_path, capsys):
    out_path = tmp_path / "cwall.g6"
    argv = ["construct", "complemented-wall", "2", "--format", "graph6", "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, graph, err",
    [
        (["construct", "wall", "1"], None, "error: wall height must be at least 2\n"),
        (["construct", "complemented-wall", "1"], None, "error: wall height must be at least 2\n"),
        (["clique-width"], "11P1", "error: solver limited to 10 vertices, got 11\n"),
        (
            ["construct", "complemented-wall", "60"],
            None,
            "error: complemented wall height 60 gives 13860478 edges, above the limit of 1000000\n",
        ),
        (["certify", "3P1+P2"], "K25", "error: clique_cover_exact limited to 24 vertices, got 25\n"),
        (
            ["construct", "wall", "100000"],
            None,
            "error: wall height 100000 gives 20000400000 vertices, above the limit of 1000000\n",
        ),
        (
            ["construct", "complemented-wall", "2000"],
            None,
            "error: complemented wall height 2000 gives 20015999 vertices, above the limit of 1000000\n",
        ),
        (["construct", "complemented-wall", "-10000"], None, "error: wall height must be at least 2\n"),
    ],
)
def test_value_errors_print_one_line_and_exit_2(tmp_path, capsys, argv, graph, err):
    if graph is not None:
        argv = [argv[0], write_graph(tmp_path, "g.el", graph), *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize(
    "graph, spec",
    [
        # realize's cache hashes the nested spec.
        ("4P1", "co(" * 300 + "P1" + ")" * 300),
        # The parser recurses once per co(.
        ("4P1", "co(" * 2000 + "P1" + ")" * 2000),
        # The search recurses once per pattern vertex.
        ("P1300", "P1200"),
    ],
)
def test_recursion_limit_prints_one_line_and_exits_2(tmp_path, capsys, monkeypatch, graph, spec):
    # A fresh plan cache, so the P1200 plan is not kept after the test.
    monkeypatch.setattr(search_module, "_plan", functools.cache(search_module._plan.__wrapped__))
    path = write_graph(tmp_path, "g.el", graph)
    assert main(["check-free", path, "--spec", spec]) == 2
    assert capsys.readouterr() == ("", "error: input is nested too deeply or too large to process\n")
    assert main(["check-free", path, "--spec", "co(co(co(P1)))"]) == 1


def test_edge_list_over_vertex_limit_exits_2(tmp_path, capsys):
    # An 11-byte file must not make the reader allocate ten million vertices.
    path = tmp_path / "huge.el"
    path.write_text("10000000 0\n")
    assert main(["check-free", str(path), "--spec", "P3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot parse {path}: edge list declares 10000000 vertices, above the limit of 1000000\n"
    )


def test_gi_reduce_over_edge_limit_exits_2(tmp_path, capsys):
    # 130,022 vertices are within the limit; the 400,380,048 edges are not,
    # and are refused before anything is built.
    path = tmp_path / "edgeless.el"
    path.write_text("10000 0\n")
    assert main(["construct", "gi-reduce", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: reduction of a graph on 10000 vertices and 0 edges gives 400380048 edges, "
        "above the limit of 1000000\n"
    )


def test_certify_3p1p2_above_sixteen_vertices(tmp_path, capsys):
    k17 = write_graph(tmp_path, "k17.el", "K17")
    out_path = tmp_path / "cert.json"
    assert main(["certify", k17, "3P1+P2", "--out", str(out_path)]) == 0
    assert capsys.readouterr() == (f"certificate written to {out_path} (self-verified)\n", "")
    assert main(["verify-certificate", k17, str(out_path)]) == 0
    assert capsys.readouterr().out == "certificate valid (1 leaves)\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["clique-width", "{graph}", "--out", "{missing}"], "clique-width 2\n"),
        (["certify", "{graph}", "P2+P3", "--out", "{directory}"], ""),
        (["construct", "wall", "2", "--out", "{missing}"], ""),
    ],
    ids=["clique-width", "certify", "construct"],
)
def test_unwritable_out_prints_one_line_and_exits_2(tmp_path, capsys, argv, out):
    paths = {
        "graph": write_graph(tmp_path, "p3.el", "P3"),
        "missing": str(tmp_path / "nodir" / "x.txt"),
        "directory": str(tmp_path),
    }
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == out
    path = argv[-1]
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_internal_contradiction_exit_code(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise InternalContradictionError("cover vanished")

    monkeypatch.setattr(certify_module, "certify_diamond_p2p3", broken)
    star = write_graph(tmp_path, "star.el", "K1,3")
    assert main(["certify", star, "P2+P3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: cover vanished\n"


def test_plain_assertion_error_propagates(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise AssertionError("not a certifier contradiction")

    monkeypatch.setattr(certify_module, "certify_diamond_p2p3", broken)
    star = write_graph(tmp_path, "star.el", "K1,3")
    with pytest.raises(AssertionError, match="not a certifier contradiction") as info:
        main(["certify", star, "P2+P3"])
    assert type(info.value) is AssertionError
    assert capsys.readouterr().err == ""


def test_construct_output_feeds_graph_commands(tmp_path, capsys):
    out_path = tmp_path / "cwall.txt"
    assert main(["construct", "complemented-wall", "2", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check-free", str(out_path), "--spec", "diamond", "--spec", "P2+P4"]) == 0
    assert capsys.readouterr().out == "free\n"


@pytest.mark.parametrize(
    "step",
    [
        {"op": "prune_degree_one", "children": 5},
        {
            "op": "delete_vertices",
            "vertices": [0],
            "justification": "pendant",
            "stated_bound": "1",
            "children": [{"base": "disjoint_cliques"}],
        },
        {"base": 5},
        {"op": "prune_degree_one", "children": [{"base": "max_degree_2"}, {"base": "bogus"}]},
        {"base": "max_degree_2", "children": [{"base": "bogus"}]},
    ],
    ids=[
        "children-not-a-list",
        "string-stated-bound",
        "integer-leaf-base",
        "single-child-step-with-two-children",
        "leaf-with-children",
    ],
)
def test_verify_certificate_malformed(tmp_path, capsys, step):
    c5 = write_graph(tmp_path, "c5.el", "C5")
    bad = tmp_path / "bad.json"
    root = {"n": 5, "m": 5, "hash": "0" * 16}
    bad.write_text(json.dumps({"version": "v1", "root": root, "step": step}))
    assert main(["verify-certificate", c5, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "h, code, out",
    [
        ("60000P1", 0, "certificate valid (1 leaves)\n"),
        ("60000P1+P2", 1, "step: 60000P1+P2-free bipartite graphs are not a bounded class\n"),
    ],
    ids=["edgeless", "with-an-edge"],
)
def test_verify_certificate_large_bipartite_leaf(tmp_path, capsys, monkeypatch, h, code, out):
    # Building H would take minutes; its name alone decides the leaf.
    def spy(spec):
        raise AssertionError(f"realized {spec}")

    monkeypatch.setattr(recognition_module, "realize", spy)
    p4 = write_graph(tmp_path, "p4.el", "P4")
    cert = tmp_path / "cert.json"
    leaf = BaseLeaf("bipartite_h_free", h=h)
    cert.write_text(certificate_to_json(Certificate(certificate_root(realize_text("P4")), leaf)))
    assert main(["verify-certificate", p4, str(cert)]) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("h", ["x", "K3,3", "P"], ids=["no-name", "not-a-star", "no-order"])
def test_verify_certificate_malformed_bipartite_leaf(tmp_path, capsys, h):
    # A forbidden graph that does not parse is the certificate's fault: a
    # failure line with the leaf's path and exit 1, like any other bad leaf.
    g = realize_text("P4+P2")
    graph_path, cert_path = tmp_path / "g.el", tmp_path / "c.json"
    graph_path.write_text(to_edge_list_text(g))
    step = SplitComponentsStep(
        ((0, 1, 2, 3), (4, 5)), (BaseLeaf("forest"), BaseLeaf("bipartite_h_free", h=h))
    )
    cert_path.write_text(certificate_to_json(Certificate(certificate_root(g), step)))
    assert main(["verify-certificate", str(graph_path), str(cert_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"step.children[1]: bad forbidden graph {h!r}: ")
    assert captured.out.count("\n") == 1
    assert captured.err == ""


def _write_explicit_certificate(tmp_path, g, expression):
    """The graph file of ``g`` and a certificate of one explicit leaf."""
    graph_path, cert_path = tmp_path / "g.el", tmp_path / "c.json"
    graph_path.write_text(to_edge_list_text(g))
    leaf = BaseLeaf("explicit_expression", expression=expression)
    cert_path.write_text(certificate_to_json(Certificate(certificate_root(g), leaf)))
    return str(graph_path), str(cert_path)


def test_verify_certificate_deep_expression(tmp_path, capsys):
    # An explicit leaf for 1100 isolated vertices nested 1100 unions deep
    # is read and checked like a shallow one: it verifies, and on the same
    # graph plus an edge it is one failure line, with no traceback.
    expression = "v1"
    for _ in range(1099):
        expression = f"(v1 | {expression})"
    paths = _write_explicit_certificate(tmp_path, Graph(range(1100), []), expression)
    assert main(["verify-certificate", *paths]) == 0
    captured = capsys.readouterr()
    assert captured.out == "certificate valid (1 leaves)\n"
    assert captured.err == ""
    paths = _write_explicit_certificate(tmp_path, Graph(range(1100), [(0, 1)]), expression)
    assert main(["verify-certificate", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out == "step: expression does not evaluate to the leaf graph\n"
    assert captured.err == ""


def test_verify_certificate_deep_bipartite_name(tmp_path, capsys):
    # A forbidden graph named 3000 complements deep is one failure line at
    # the leaf, not an error.
    g = realize_text("P2")
    graph_path, cert_path = tmp_path / "g.el", tmp_path / "c.json"
    graph_path.write_text("2 1\n0 1\n")
    leaf = BaseLeaf("bipartite_h_free", h="co(" * 3000 + "P1" + ")" * 3000)
    cert_path.write_text(certificate_to_json(Certificate(certificate_root(g), leaf)))
    assert main(["verify-certificate", str(graph_path), str(cert_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "step: forbidden graph is nested too deeply to check\n"
    assert captured.err == ""


def test_verify_certificate_expression_that_does_not_evaluate(tmp_path, capsys):
    # j(1,1,v1) parses but joins a label to itself: the certificate's fault,
    # so a failure line with the leaf's path and exit 1, like text that does
    # not parse.
    paths = _write_explicit_certificate(tmp_path, realize_text("P1"), "j(1,1,v1)")
    assert main(["verify-certificate", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out == "step: bad expression: join requires two distinct labels, got (1,1)\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check-free", "g.el", "--spec", "K3", "--seed", "1"],
        ["check-free", "g.el", "--spec", "K3", "--out", "x"],
        ["certify", "g.el", "P2+P3", "--unsafe-size"],
        ["verify-certificate", "g.el", "c.json", "--out", "x"],
        ["classify-pair", "2", "3", "--format", "graph6"],
    ],
)
def test_options_only_where_they_apply(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_classify_pair_command(capsys):
    assert main(["classify-pair", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Bounded"
    assert main(["classify-pair", "3", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Unbounded"
    assert main(["classify-pair", "0", "9"]) == 0
    assert capsys.readouterr().out.strip() == "Bounded"
    assert main(["classify-pair", "-1", "2"]) == 2
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def _run_quietly(argv):
    """Exit code, stdout and stderr of an in-process run of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "error:" not in out


# Heights that build a small graph, or that lie beyond every limit.
_HEIGHTS = st.one_of(st.integers(-3, 8), st.integers(min_value=10**4), st.integers(max_value=-1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_construct_integer_arguments_fuzz(tmp_path, data):
    # Complemented walls of height 32 to 446 are within the vertex limit
    # and above the edge limit.
    kind = data.draw(st.sampled_from(["wall", "complemented-wall"]))
    heights = _HEIGHTS if kind == "wall" else st.one_of(_HEIGHTS, st.integers(32, 446))
    height = data.draw(heights)
    argv = ["construct", kind, str(height), "--out", str(tmp_path / "out.txt")]
    code, out, err = _run_quietly(argv)
    _assert_clean_exit(code, out, err)
    assert code == (0 if 2 <= height <= 8 else 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(), st.integers())
def test_classify_pair_integer_arguments_fuzz(s, t):
    code, out, err = _run_quietly(["classify-pair", str(s), str(t)])
    _assert_clean_exit(code, out, err)
    assert code == (0 if s >= 0 and t >= 0 else 2)


@functools.cache
def _valid_certificates():
    """(edge-list text, vertex ids, certificate JSON object) for members
    whose certificates hold deletions, complementations, splits, pruning and
    every leaf kind but the explicit one."""
    k5_with_path = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 6), (5, 6)]
    k5_with_detached = [(0, 1), (0, 4), (0, 8), (1, 3), (1, 4), (3, 5), (3, 6), (3, 7), (3, 8)]
    k5_with_detached += [(4, 6), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
    double_attachment = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 1), (4, 3), (5, 0), (5, 2)]
    double_attachment += [(6, 4), (6, 5), (4, 5)]
    cases = [
        (realize_text("C5"), certify_module.certify_diamond_3p1p2),
        (realize_text("C5+K3"), certify_module.certify_diamond_3p1p2),
        (realize_text("K10"), certify_module.certify_diamond_3p1p2),
        (realize_text("C6"), certify_module.certify_diamond_2p1p3),
        (realize_text("K1,3"), certify_module.certify_diamond_2p1p3),
        (Graph(range(7), double_attachment), certify_module.certify_diamond_p2p3),
        (Graph(range(7), k5_with_path), certify_module.certify_diamond_p2p3),
        (Graph(range(9), k5_with_detached), certify_module.certify_diamond_p2p3),
    ]
    return [
        (to_edge_list_text(g), list(g.vertices), json.loads(certificate_to_json(certifier(g))))
        for g, certifier in cases
    ]


def _dicts(value):
    """Every JSON object inside ``value``, outermost first."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _dicts(item)


# Copied on each draw: a later change to a drawn list or object must not
# reach the next example.
_ODD_VALUES = st.sampled_from(
    [None, True, 0, -1, 1.5, "x", [], [0], [[0]], {}, {"base": "forest"}]
).map(copy.deepcopy)
_BIG_INTS = st.one_of(st.integers(min_value=2**63), st.integers(max_value=-1))


def _mutate(data, obj, vertices):
    """One change to some object inside ``obj``: a field dropped or given a
    value of another type, children duplicated, an integer made huge or
    negative, a justification swapped, or a ``cycle-vertices`` deletion of
    drawn vertices, perhaps with one repeated or unknown, put above it."""
    kind = data.draw(
        st.sampled_from(["drop", "retype", "children", "integer", "justification", "cycle"])
    )
    nodes = list(_dicts(obj))
    if kind == "justification":
        nodes = [d for d in nodes if d.get("op") == "delete_vertices"]
    elif kind == "cycle":
        nodes = [d for d in nodes if "op" in d or "base" in d]
    if not nodes:
        return
    node = data.draw(st.sampled_from(nodes))
    keys = sorted(node)
    if kind in ("drop", "retype") and keys:
        key = data.draw(st.sampled_from(keys))
        if kind == "drop":
            del node[key]
        else:
            node[key] = data.draw(_ODD_VALUES)
    elif kind == "children" and isinstance(node.get("children"), list):
        node["children"] = node["children"] * 2
    elif kind == "integer":
        ints = [k for k in keys if isinstance(node[k], int)]
        lists = [k for k in keys if isinstance(node[k], list) and node[k]]
        if ints:
            node[data.draw(st.sampled_from(ints))] = data.draw(_BIG_INTS)
        elif lists:
            values = node[data.draw(st.sampled_from(lists))]
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(_BIG_INTS)
    elif kind == "justification":
        names = sorted(DELETE_RULES) + ["made-up"]
        node["justification"] = data.draw(st.sampled_from(names))
    elif kind == "cycle":
        vs = data.draw(st.lists(st.sampled_from(vertices), min_size=3, max_size=7))
        vs += data.draw(st.sampled_from([[], vs[:1], [-1], [len(vertices) + 7]]))
        inner = dict(node)
        node.clear()
        node.update(
            op="delete_vertices",
            justification="cycle-vertices",
            vertices=vs,
            stated_bound=data.draw(st.integers(len(vs) - 1, len(vs) + 1)),
            children=[inner],
        )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_verify_certificate_json_fuzz(tmp_path, data):
    text, vertices, valid = data.draw(st.sampled_from(_valid_certificates()))
    obj = copy.deepcopy(valid)
    # The forbidden graph of a bipartite leaf may be renamed first.
    leaves = [d for d in _dicts(obj) if d.get("base") == "bipartite_h_free"]
    name = data.draw(st.one_of(st.none(), _BIPARTITE_NAMES)) if leaves else None
    if name is not None:
        data.draw(st.sampled_from(leaves))["h"] = name
    mutations = data.draw(st.integers(0 if name is not None else 1, 3))
    for _ in range(mutations):
        _mutate(data, obj, vertices)
    graph_path, cert_path = tmp_path / "g.el", tmp_path / "c.json"
    graph_path.write_text(text)
    cert_path.write_text(json.dumps(obj))
    code, out, err = _run_quietly(["verify-certificate", str(graph_path), str(cert_path)])
    _assert_clean_exit(code, out, err)
    if name is not None and not mutations and _malformed_spec(name):
        # A name is the certificate's to get right: one that does not parse
        # fails its leaf, with the leaf's path.
        assert code == 1 and err == ""
        bad = ("bad forbidden graph", "forbidden graph is nested too deeply")
        assert any(line.startswith("step") and any(b in line for b in bad) for line in out.splitlines())


def _malformed_spec(text):
    try:
        parse_spec(text)
    except (ValueError, RecursionError):
        return True
    return False


# Text grammars: runs of their tokens, and printed random trees.
_INTEGER_TEXT = st.one_of(
    st.integers(0, 12).map(str), st.integers(min_value=10**6).map(str), st.just("9" * 5000)
)
_SPACE = st.sampled_from([" ", "\t", "\n"])


def _token_text(tokens):
    return st.lists(st.one_of(st.sampled_from(tokens), _INTEGER_TEXT, _SPACE), max_size=12).map("".join)


# Mostly well-formed; C1, C2 and S(h,i,j) with 0 are not.
_SPEC_BASES = st.one_of(
    st.builds(lambda k, r: BaseGraph(k, (r,)), st.sampled_from(["P", "C", "K", "K1s"]), st.integers(1, 6)),
    st.lists(st.integers(0, 3), min_size=3, max_size=3).map(lambda hij: BaseGraph("S", tuple(sorted(hij)))),
)
_MULTIPLICITIES = st.one_of(st.integers(1, 3), st.integers(min_value=10**6))


def _specs_of(bases):
    terms = st.lists(st.tuples(_MULTIPLICITIES, bases), min_size=1, max_size=3)
    return terms.map(lambda terms: NamedGraphSpec(tuple(terms)))


_SPECS = st.recursive(
    _specs_of(_SPEC_BASES),
    lambda inner: _specs_of(st.one_of(_SPEC_BASES, inner.map(ComplementOf))),
    max_leaves=6,
)
_SPEC_TEXT = st.one_of(
    _token_text(["P", "C", "K", "K1,", "S(", "co(", "diamond", "+", ",", ")"]),
    _SPECS.map(print_spec),
    st.builds(
        lambda depth, spec: "co(" * depth + spec + ")" * depth,
        st.one_of(st.integers(1, 5), st.integers(250, 3000)),
        st.sampled_from(["P1", "diamond", "2P1+P2"]),
    ),
)
# Names for bipartite leaves: the spec texts, and more of the names
# nested deeper than the parser recurses.
_BIPARTITE_NAMES = st.one_of(
    _SPEC_TEXT, st.integers(250, 3000).map(lambda depth: "co(" * depth + "P1" + ")" * depth)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_SPEC_TEXT)
def test_check_free_spec_fuzz(tmp_path, text):
    graph_path = tmp_path / "g.el"
    graph_path.write_text(to_edge_list_text(realize_text("C5+P3")))
    code, out, err = _run_quietly(["check-free", str(graph_path), "--spec", text])
    _assert_clean_exit(code, out, err)
    try:
        parse_spec(text)
    except ValueError as exc:
        # A spec that does not parse is reported as it was raised.
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    except RecursionError:
        assert code == 2


# Tokens of the edge-list reader: small ids, ids past every limit, a
# 5000-digit integer, and words that are no integer.
_READER_TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.integers(min_value=2**31).map(str),
    st.just("9" * 5000),
    st.sampled_from(["x", "\u00b2", "1.5", "-"]),
)
_PART_LINES = st.builds(
    "PART {}{} {}".format,
    st.sampled_from(["a", "a", "b", "", "a b"]),
    st.sampled_from([":", ":", ""]),
    st.lists(_READER_TOKENS, max_size=4).map(" ".join),
)
_SMALL_GRAPHS = st.sampled_from(["P1", "P3", "C5", "K4", "2P2+P4", "K1,3+3P1"]).map(realize_text)
_EDGE_LIST_TEXT = st.one_of(
    st.lists(
        st.one_of(st.lists(_READER_TOKENS, max_size=3).map(" ".join), _PART_LINES, st.just("")),
        max_size=8,
    ).map("\n".join),
    st.builds(
        lambda g, parts: to_edge_list_text(g) + "\n".join(parts),
        _SMALL_GRAPHS,
        st.lists(_PART_LINES, max_size=3),
    ),
)
# graph6 text: encodings of small graphs, whole or cut, behind a header
# or a near miss of one, with stray characters; and arbitrary characters.
_GRAPH6_CHARS = st.characters(min_codepoint=0, max_codepoint=200, exclude_categories=["Cs"])
_GRAPH6_TEXT = st.one_of(
    st.builds(
        lambda header, text, cut, extra: header + text[:cut] + extra,
        st.sampled_from(["", ">>graph6<<", ">>graph6<", " "]),
        st.one_of(st.just(Graph([], [])), _SMALL_GRAPHS).map(to_graph6),
        st.one_of(st.none(), st.integers(0, 12)),
        st.text(_GRAPH6_CHARS, max_size=3),
    ),
    st.text(_GRAPH6_CHARS, max_size=12),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.tuples(st.just("edgelist"), _EDGE_LIST_TEXT),
    st.tuples(st.just("graph6"), _GRAPH6_TEXT),
))
def test_check_free_graph_reader_fuzz(tmp_path, fmt_text):
    fmt, text = fmt_text
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(text, encoding="utf-8")
    code, out, err = _run_quietly(["check-free", str(graph_path), "--spec", "P3", "--format", fmt])
    _assert_clean_exit(code, out, err)


_LABELS = st.integers(1, 3)
_EXPRESSIONS = st.recursive(
    st.builds(Create, _LABELS),
    lambda inner: st.one_of(
        st.builds(Union, inner, inner),
        st.builds(Join, _LABELS, _LABELS, inner),
        st.builds(Rename, _LABELS, _LABELS, inner),
    ),
    max_leaves=8,
)
_EXPRESSION_TEXT = st.one_of(
    _token_text(["v", "(", "|", ")", "j(", "r(", ",", "->"]),
    _EXPRESSIONS.map(print_expression),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["P1", "K2", "2P1", "P3"]), _EXPRESSION_TEXT)
def test_verify_certificate_expression_fuzz(tmp_path, graph, text):
    paths = _write_explicit_certificate(tmp_path, realize_text(graph), text)
    code, out, err = _run_quietly(["verify-certificate", *paths])
    # An explicit leaf is the certificate's to get right: whatever its text,
    # the verdict is valid or a failure line at the leaf, never an error.
    assert (code, err) in ((0, ""), (1, ""))
    if code == 0:
        assert out == "certificate valid (1 leaves)\n"
    else:
        assert out.startswith("step: ") and out.count("\n") == 1
