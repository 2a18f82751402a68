import random

import pytest

import cliquewidth.kexpr as kexpr_module
from cliquewidth import (
    Create,
    ExpressionPreconditionError,
    Graph,
    Join,
    KExprEvalError,
    KExprSyntaxError,
    Rename,
    SizeLimitError,
    Union,
    are_isomorphic,
    build_graph,
    clique_width_exact,
    components,
    contains_induced,
    eval_expression,
    expr_disjoint_cliques,
    expr_forest,
    expr_max_degree_2,
    induced_subgraph,
    parse_expression,
    print_expression,
    realize_text,
    to_edge_list_text,
    verify_expression,
    width,
)
from cliquewidth.cli import main
from cliquewidth.graphs import bit_adjacency
from brute import brute_has_module, random_graph
from cw_oracle import naive_clique_width


def k4_two_label_expression():
    e = Create(1)
    for _ in range(3):
        e = Rename(2, 1, Join(1, 2, Union(e, Create(2))))
    return e


def test_eval_examples():
    e = Join(1, 2, Union(Create(1), Create(2)))
    lg = eval_expression(e)
    assert are_isomorphic(lg.graph, realize_text("K2")) is not None
    lg = eval_expression(Create(1))
    assert lg.graph.n == 1 and lg.labels == {0: 1}
    e = k4_two_label_expression()
    assert are_isomorphic(eval_expression(e).graph, realize_text("K4")) is not None
    assert width(e) == 2


def test_eval_rejects_equal_join_labels():
    e = parse_expression("j(1,1,v1)")  # parses fine, fails at evaluation
    with pytest.raises(KExprEvalError):
        eval_expression(e)


def test_parse_print_round_trip():
    texts = [
        "j(1,2,(v1 | v2))",
        "v1",
        "r(2->1,j(1,2,(v1 | (v2 | v3))))",
        "(j(1,2,(v1 | v2)) | v3)",
    ]
    for text in texts:
        e = parse_expression(text)
        printed = print_expression(e)
        assert print_expression(parse_expression(printed)) == printed
    assert print_expression(parse_expression("j( 1 , 2 , ( v1 | v2 ) )")) == "j(1,2,(v1 | v2))"


@pytest.mark.parametrize("bad", ["", "v", "j(1,2)", "(v1|)", "r(1-2,v1)", "v0", "x3", "v1 v2"])
def test_parse_errors(bad):
    with pytest.raises(KExprSyntaxError) as err:
        parse_expression(bad)
    assert err.value.position >= 0


def test_verify_expression_examples():
    e = k4_two_label_expression()
    assert verify_expression(e, realize_text("K4"))
    assert verify_expression(Create(1), realize_text("P1"))
    assert not verify_expression(e, realize_text("C4"))


def test_clique_width_known_values():
    assert clique_width_exact(realize_text("P1"))[0] == 1
    for n in range(2, 7):
        assert clique_width_exact(realize_text(f"K{n}"))[0] == 2
    assert clique_width_exact(realize_text("P4"))[0] == 3
    assert clique_width_exact(realize_text("C5"))[0] == 3
    assert clique_width_exact(realize_text("C7"))[0] == 4
    assert clique_width_exact(Graph([], []))[0] == 0


def test_clique_width_kmax_cutoff():
    # C7 needs four labels; with k_max=3 the solver reports unreachable.
    assert clique_width_exact(realize_text("C7"), k_max=3) is None


def test_clique_width_size_limit():
    with pytest.raises(SizeLimitError):
        clique_width_exact(build_graph(11, []))
    big = build_graph(11, [])
    assert clique_width_exact(big, size_limit=11)[0] == 1
    with pytest.raises(ValueError):
        clique_width_exact(realize_text("P2"), k_max=7)


def test_clique_width_returns_verified_witness(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        k, expr = clique_width_exact(g)
        if g.n:
            assert width(expr) == k
            assert verify_expression(expr, g)


def test_clique_width_deterministic():
    g = realize_text("C6")
    k1, e1 = clique_width_exact(g)
    k2, e2 = clique_width_exact(g)
    assert k1 == k2 and print_expression(e1) == print_expression(e2)


def test_clique_width_isomorphism_invariant(rng):
    for _ in range(15):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(range(n), [(perm[u], perm[v]) for u, v in g.edges()])
        assert clique_width_exact(g)[0] == clique_width_exact(h)[0]


def test_clique_width_monotone_under_induced_subgraphs(rng):
    for _ in range(12):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5]))
        k_full = clique_width_exact(g)[0]
        keep = rng.sample(list(g.vertices), rng.randint(1, n - 1))
        sub = induced_subgraph(g, keep)
        assert clique_width_exact(sub)[0] <= k_full


def test_clique_width_agrees_with_naive_oracle(rng):
    # the exhaustive n <= 6 comparison runs in the acceptance suite
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        assert clique_width_exact(g)[0] == naive_clique_width(g)


def test_expr_disjoint_cliques():
    g = realize_text("3P1")
    e = expr_disjoint_cliques(g)
    assert width(e) == 1 and verify_expression(e, g)
    g = realize_text("K3+K2")
    e = expr_disjoint_cliques(g)
    assert width(e) == 2 and verify_expression(e, g)
    with pytest.raises(ExpressionPreconditionError) as err:
        expr_disjoint_cliques(realize_text("P3"))
    witness = err.value.witness
    assert witness.validate(realize_text("P3"), realize_text("P3"))


def test_expr_forest(rng):
    e = expr_forest(realize_text("P1"))
    assert width(e) == 1
    e = expr_forest(realize_text("P4"))
    assert width(e) <= 3 and verify_expression(e, realize_text("P4"))
    for _ in range(30):
        n = rng.randint(1, 10)
        edges = []
        for i in range(1, n):
            if rng.random() < 0.8:
                edges.append((rng.randrange(i), i))
        forest = build_graph(n, edges)
        e = expr_forest(forest)
        assert width(e) <= 3
        assert verify_expression(e, forest)
    with pytest.raises(ExpressionPreconditionError) as err:
        expr_forest(realize_text("C4"))
    assert len(err.value.witness) >= 3


def test_expr_max_degree_2(rng):
    e = expr_max_degree_2(realize_text("C6"))
    assert width(e) <= 4 and verify_expression(e, realize_text("C6"))
    e = expr_max_degree_2(realize_text("P5"))
    assert width(e) <= 3 and verify_expression(e, realize_text("P5"))
    with pytest.raises(ExpressionPreconditionError) as err:
        expr_max_degree_2(realize_text("K1,3"))
    assert err.value.witness == 0  # the star centre
    for _ in range(30):
        pieces = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["path", "cycle", "point"])
            if kind == "point":
                pieces.append("P1")
            elif kind == "path":
                pieces.append(f"P{rng.randint(2, 5)}")
            else:
                pieces.append(f"C{rng.randint(3, 6)}")
        g = realize_text("+".join(pieces))
        if g.n > 12:
            continue
        e = expr_max_degree_2(g)
        assert width(e) <= 4
        assert verify_expression(e, g)


def test_builders_match_solver_bounds(rng):
    # every construction is at least as wide as the true clique-width
    for text in ("K3+K2", "P4", "C6", "P5+C3"):
        g = realize_text(text)
        k, _ = clique_width_exact(g)
        for builder in (expr_disjoint_cliques, expr_forest, expr_max_degree_2):
            try:
                e = builder(g)
            except ExpressionPreconditionError:
                continue
            assert width(e) >= k


# --- decomposition -------------------------------------------------------

def substitute(quotient: Graph, parts: list[Graph]) -> Graph:
    """quotient[parts]: quotient vertex i replaced by parts[i], whose
    vertices are 0..n-1; the result numbers the parts one after another."""
    start, n = [], 0
    for part in parts:
        start.append(n)
        n += part.n
    edges = [(start[i] + u, start[i] + v) for i, part in enumerate(parts) for u, v in part.edges()]
    edges += [
        (start[a] + x, start[b] + y)
        for a, b in quotient.edges()
        for x in range(parts[a].n)
        for y in range(parts[b].n)
    ]
    return build_graph(n, edges)


def connected_piece(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
        if len(components(g)) == 1:
            return g


def random_cograph(rng: random.Random, n: int, join: bool | None = None) -> Graph:
    if n == 1:
        return build_graph(1, [])
    cut = rng.randint(1, n - 1)
    if join is None:
        join = rng.random() < 0.5
    top = build_graph(2, [(0, 1)] if join else [])
    return substitute(top, [random_cograph(rng, cut), random_cograph(rng, n - cut)])


def blow_up(rng: random.Random, quotient: Graph, n: int) -> Graph:
    """Substitute random modules into a prime quotient, n vertices in all."""
    sizes = [1] * quotient.n
    for _ in range(n - quotient.n):
        sizes[rng.randrange(quotient.n)] += 1
    return substitute(quotient, [random_graph(rng, s, rng.choice([0.3, 0.7])) for s in sizes])


DECOMPOSABLE_KINDS = ("union", "cograph", "P4", "C5", "C6", "C7", "nested")


def decomposable_graph(rng: random.Random, kind: str, n: int) -> Graph:
    """A graph on n vertices with a nontrivial module; n >= 7, and n >= 8
    for C7 and nested."""
    if kind == "union":
        sizes = rng.choice([(n // 2, n - n // 2), (3, 3, n - 6)])
        return substitute(build_graph(len(sizes), []), [connected_piece(rng, s) for s in sizes])
    if kind == "cograph":
        return random_cograph(rng, n, join=True)
    if kind == "nested":
        inner = blow_up(rng, realize_text(rng.choice(["P4", "C5"])), n - 3)
        return substitute(realize_text("P4"), [inner, build_graph(1, []), build_graph(1, []), build_graph(1, [])])
    return blow_up(rng, realize_text(kind), n)


def graph_of_masks(masks: list[int], n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1])


def test_solver_searches_only_prime_graphs(monkeypatch, rng):
    searched = set()
    search = kexpr_module._search

    def recording(masks, n, k):
        searched.add((tuple(masks), n))
        return search(masks, n, k)

    monkeypatch.setattr(kexpr_module, "_search", recording)
    assert clique_width_exact(realize_text("K3+7P1"))[0] == 2
    assert max(n for _, n in searched) == 2
    graphs = [
        decomposable_graph(rng, kind, rng.randint(8, 10))
        for kind in DECOMPOSABLE_KINDS
        for _ in range(3)
    ]
    for g in graphs:
        assert brute_has_module(g)
        k, expr = clique_width_exact(g)
        assert width(expr) == k and verify_expression(expr, g)
    for masks, n in searched:
        assert not brute_has_module(graph_of_masks(list(masks), n))


def test_solver_starts_prime_parts_at_width_three(monkeypatch, rng):
    levels = []
    search = kexpr_module._search

    def recording(masks, n, k):
        levels.append((n, k))
        return search(masks, n, k)

    monkeypatch.setattr(kexpr_module, "_search", recording)
    graphs = [realize_text(t) for t in ("P4", "C5", "C7", "K3+7P1", "P1")]
    graphs += [decomposable_graph(rng, kind, rng.randint(8, 10)) for kind in DECOMPOSABLE_KINDS]
    graphs += [random_graph(rng, rng.randint(4, 8), 0.5) for _ in range(20)]
    for g in graphs:
        k, expr = clique_width_exact(g)
        assert width(expr) == k and verify_expression(expr, g)
    assert any(n > 2 for n, _ in levels) and any(n <= 2 for n, _ in levels)
    assert all(k >= 3 for n, k in levels if n > 2)


def undecomposed_width(g: Graph) -> int:
    """Least k for which the subset search on the whole graph reaches it."""
    _, _, masks = bit_adjacency(g)
    return next(k for k in range(1, 7) if kexpr_module._search(masks, g.n, k) is not None)


def test_decomposed_width_matches_whole_graph_search():
    rng = random.Random(8)
    for i in range(40):
        kind = DECOMPOSABLE_KINDS[i % len(DECOMPOSABLE_KINDS)]
        g = decomposable_graph(rng, kind, rng.randint(8 if kind in ("C7", "nested") else 7, 10))
        k, expr = clique_width_exact(g)
        assert k == undecomposed_width(g)
        assert width(expr) == k and verify_expression(expr, g)


# Witnesses of prime graphs, as printed before decomposition was added.
PRIME_WITNESSES = {
    "P4": "j(3,1,((v1 | j(1,2,(v1 | v2))) | v3))",
    "C5": "j(3,1,(r(3->2,j(3,2,(j(1,2,(v1 | v2)) | j(1,3,(v1 | v3))))) | v3))",
    "C7": "j(1,4,(r(1->4,j(4,3,(r(4->2,j(3,4,(r(3->2,j(4,3,(j(3,2,(j(1,2,(v1 | v2)) | v3)) | v4))) | v3))) | v4))) | v1))",
}

# clique-width stdout on a prime 7-vertex graph and on a relabelled C7.
PRIME_CLI_OUTPUTS = [
    (
        [(0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 3), (3, 5)],
        "clique-width 4\n"
        "j(1,3,(j(1,3,(j(4,3,j(1,4,(j(1,3,(j(1,2,(v1 | v2)) | v3)) | j(2,4,(v2 | v4))))) | v3)) | v1))\n",
    ),
    (
        [(0, 2), (0, 3), (1, 2), (1, 4), (3, 6), (4, 5), (5, 6)],
        "clique-width 4\n"
        "j(1,4,j(1,3,(r(1->2,j(1,3,(r(3->2,j(4,3,(r(4->2,j(4,2,j(1,4,(j(3,2,((v1 | v2) | v3)) | v4)))) | v4))) | v3))) | v1)))\n",
    ),
]


def test_prime_witnesses_match_golden(tmp_path, capsys):
    for text, expected in PRIME_WITNESSES.items():
        g = realize_text(text)
        assert not brute_has_module(g)
        assert print_expression(clique_width_exact(g)[1]) == expected
    for i, (edges, expected) in enumerate(PRIME_CLI_OUTPUTS):
        g = build_graph(7, edges)
        assert not brute_has_module(g)
        path = tmp_path / f"prime{i}.el"
        path.write_text(to_edge_list_text(g))
        assert main(["clique-width", str(path)]) == 0
        assert capsys.readouterr().out == expected
