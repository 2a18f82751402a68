import json

import pytest

from cliquewidth import Graph, realize_text, to_edge_list_text, to_graph6, verify_expression
from cliquewidth import cli, parse_spec, realize
from cliquewidth import search as search_module
from cliquewidth.certify import (
    BaseLeaf,
    Certificate,
    InternalContradictionError,
    certificate_from_json,
    certificate_root,
    certificate_to_json,
    verify_certificate,
)
from cliquewidth.cli import main
from cliquewidth.kexpr import parse_expression
from cliquewidth.namedgraphs import spec_order


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
        if spec_order(spec) > 4:
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


def test_internal_contradiction_exit_code(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise InternalContradictionError("cover vanished")

    monkeypatch.setitem(cli._CERTIFIERS, "P2+P3", broken)
    star = write_graph(tmp_path, "star.el", "K1,3")
    assert main(["certify", star, "P2+P3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: cover vanished\n"


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
    ],
    ids=["children-not-a-list", "string-stated-bound", "integer-leaf-base"],
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


def test_verify_certificate_deep_expression(tmp_path, capsys):
    # A correct explicit leaf for 1100 isolated vertices, nested deeper than
    # the parser can recurse: one failure line, no traceback.
    g = Graph(range(1100), [])
    expression = "v1"
    for _ in range(g.n - 1):
        expression = f"(v1 | {expression})"
    graph_path, cert_path = tmp_path / "g.el", tmp_path / "c.json"
    graph_path.write_text(to_edge_list_text(g))
    leaf = BaseLeaf("explicit_expression", expression=expression)
    cert_path.write_text(certificate_to_json(Certificate(certificate_root(g), leaf)))
    assert main(["verify-certificate", str(graph_path), str(cert_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "step: expression is nested too deeply to check\n"
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
