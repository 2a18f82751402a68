import pytest

from cliquewidth import (
    Graph,
    NamedGraphSpec,
    SpecSyntaxError,
    are_isomorphic,
    complement,
    disjoint_union,
    parse_spec,
    print_spec,
    realize,
    realize_text,
)
from cliquewidth.namedgraphs import BaseGraph, ComplementOf, spec_size

CORPUS = [
    "P1",
    "P2+P4",
    "3P1+P2",
    "2P1+P3",
    "P2+P3",
    "2P2+P4",
    "co(P1+P3)",
    "co(2P1+P2)",
    "K1,3+3P1",
    "K1,3+P2",
    "P1+S(1,1,3)",
    "S(1,2,3)",
    "2co(K2)+C5",
    "K3+C4+K1,4",
]


def test_parse_terms():
    spec = parse_spec("P2+P4")
    assert spec.terms == (
        (1, BaseGraph("P", (2,))),
        (1, BaseGraph("P", (4,))),
    )
    spec = parse_spec("3P1+P2")
    assert spec.terms == (
        (3, BaseGraph("P", (1,))),
        (1, BaseGraph("P", (2,))),
    )
    spec = parse_spec("co(P1+P3)")
    assert isinstance(spec.terms[0][1], ComplementOf)


def test_parse_whitespace_insensitive():
    assert parse_spec(" 2P1 + P2 ") == parse_spec("2P1+P2")
    assert parse_spec("S( 1 , 2 , 3 )") == parse_spec("S(1,2,3)")


def test_diamond_alias_expands():
    assert print_spec(parse_spec("diamond")) == "co(2P1+P2)"


def test_print_parse_identity_on_corpus():
    for text in CORPUS:
        printed = print_spec(parse_spec(text))
        assert print_spec(parse_spec(printed)) == printed


def test_realize_corpus_stable_under_print(rng):
    for text in CORPUS:
        spec = parse_spec(text)
        again = parse_spec(print_spec(spec))
        assert are_isomorphic(realize(spec), realize(again)) is not None


@pytest.mark.parametrize(
    "bad",
    ["C2", "S(2,1,1)", "K0", "P0", "0P2", "K2,3", "", "P2+", "co(P2", "diam", "P2)"],
)
def test_parse_errors(bad):
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(bad)
    assert err.value.position >= 0


def test_realize_examples():
    g = realize_text("2P1+P2")
    assert g.n == 4 and g.m == 1
    diamond = realize_text("co(2P1+P2)")
    assert diamond.n == 4 and diamond.m == 5
    assert are_isomorphic(realize_text("S(1,1,1)"), realize_text("K1,3")) is not None


def test_realize_component_order_and_fresh_ids():
    g = realize_text("P2+K3")
    assert g.vertices == (0, 1, 2, 3, 4)
    # first component is the P2 on ids 0,1
    assert g.has_edge(0, 1) and g.degree(0) == 1
    assert g.degree(2) == 2


def _realize_by_unions(spec):
    """``realize`` as a fold of ``disjoint_union`` over every copy of every
    term: the reference for the one-pass build."""
    result = Graph([], [])
    for mult, base in spec.terms:
        if isinstance(base, ComplementOf):
            piece = complement(_realize_by_unions(base.inner))
        else:
            piece = realize(NamedGraphSpec(((1, base),)))
        for _ in range(mult):
            result = disjoint_union(result, piece)
    return result


def test_realize_matches_fold_of_disjoint_unions():
    for text in CORPUS + ["co(co(P3)+P1)", "3co(K3+P2)+K4", "2co(P3+2co(K2+P1))+P5", "12P1+3C4"]:
        spec = parse_spec(text)
        assert realize(spec) == _realize_by_unions(spec), text


def test_realize_subdivided_claw():
    s123 = realize_text("S(1,2,3)")
    assert s123.n == 7 and s123.m == 6
    assert s123.degree(0) == 3  # the centre
    assert sorted(s123.degree_sequence()) == [1, 1, 1, 2, 2, 2, 3]


def test_realize_star():
    star = realize_text("K1,5")
    assert star.n == 6 and star.m == 5 and star.degree(0) == 5


def test_spec_type_is_hashable_value():
    a = parse_spec("2P1+P2")
    b = parse_spec("2P1 + P2")
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, NamedGraphSpec)


def test_realize_is_cached():
    assert realize(parse_spec("P2+P4")) is realize(parse_spec("P2+P4"))


def test_parse_spec_is_cached():
    assert parse_spec("P2+P4") is parse_spec("P2+P4")


@pytest.mark.parametrize("bad", ["P2+", "co(P2", "K0"])
def test_parse_spec_errors_are_not_cached(bad):
    for _ in range(3):
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)


def test_spec_order_matches_realized_order():
    for text in CORPUS + ["diamond", "K5", "C3+2K1,1", "co(P2+co(3P1))", "2S(1,1,1)+K1,2"]:
        spec = parse_spec(text)
        g = realize(spec)
        assert spec_size(spec) == (g.n, g.m), text
    assert spec_size(parse_spec("60000P1+P99999999")) == (60000 + 99999999, 99999998)
