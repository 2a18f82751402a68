import hashlib
import random
import re

import pytest

import cliquewidth.kexpr as kexpr_module
from cliquewidth import (
    Create,
    ExpressionPreconditionError,
    Graph,
    Join,
    KExprEvalError,
    KExpression,
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
    is_forest,
    parse_expression,
    print_expression,
    realize_text,
    substitute_labels,
    to_edge_list_text,
    verify_expression,
    width,
)
from cliquewidth.cli import main
from cliquewidth.graphs import bit_adjacency
from cliquewidth.kexpr import expr_labels
from conftest import atlas_catalog
from brute import brute_has_module, brute_twin_classes, brute_twin_partition, random_graph
import oracles
from oracles import naive_clique_width


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
    # The first invalid node in preorder is the one reported.
    for text, labels in (("j(1,1,j(2,2,v1))", "(1,1)"), ("(j(2,2,v1) | j(1,1,v1))", "(2,2)")):
        with pytest.raises(KExprEvalError, match=re.escape(f"got {labels}") + "$"):
            eval_expression(parse_expression(text))


def test_eval_rejects_non_positive_labels():
    # The parser refuses v0; an expression built in code reaches the evaluator.
    for label in (0, -3):
        with pytest.raises(KExprEvalError, match=f"^labels must be positive, got {label}$"):
            eval_expression(Union(Create(1), Create(label)))


@pytest.mark.parametrize("builder", [expr_disjoint_cliques, expr_forest, expr_max_degree_2])
def test_builders_reject_the_empty_graph(builder):
    with pytest.raises(ExpressionPreconditionError, match="^empty graph has no expression$"):
        builder(build_graph(0, []))


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


def linear_path(n: int) -> KExpression:
    """P_n: 1 = retired, 2 = the end, 3 = the incoming vertex."""
    e: KExpression = Create(2)
    for _ in range(n - 1):
        e = Rename(3, 2, Rename(2, 1, Join(2, 3, Union(e, Create(3)))))
    return e


def linear_star(n: int) -> KExpression:
    """K1,n: 1 = the centre, 2 = the incoming leaf, 3 = retired leaves."""
    e: KExpression = Create(1)
    for _ in range(n):
        e = Rename(2, 3, Join(1, 2, Union(e, Create(2))))
    return e


def linear_clique(n: int) -> KExpression:
    """K_n: 1 = placed vertices, 2 = the incoming vertex."""
    e: KExpression = Create(1)
    for _ in range(n - 1):
        e = Rename(2, 1, Join(1, 2, Union(e, Create(2))))
    return e


@pytest.mark.parametrize(
    "build, n, k, edges",
    [
        (linear_path, 10**4, 3, lambda n: {(v, v + 1) for v in range(n - 1)}),
        (linear_star, 10**4, 3, lambda n: {(0, v) for v in range(1, n + 1)}),
        (linear_clique, 1000, 2, lambda n: {(u, v) for v in range(n) for u in range(v)}),
    ],
    ids=["P_n", "K1,n", "K_n"],
)
def test_linear_expressions_at_any_depth(build, n, k, edges):
    # About four nodes per vertex: far deeper than recursion could go.
    e = build(n)
    assert set(eval_expression(e).graph.edges()) == edges(n)
    assert width(e) == k
    text = print_expression(e)
    assert print_expression(parse_expression(text)) == text
    swapped = substitute_labels(e, {1: 2, 2: 1})
    assert print_expression(swapped) == text.translate(str.maketrans("12", "21"))
    # Equality, hashing and repr read the printed text, at any depth too.
    again = build(n)
    assert e == again and hash(e) == hash(again) and e != swapped
    assert repr(e) == f"parse_expression({text!r})"


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


def test_clique_width_checks_the_witness_through_its_leaf_map(monkeypatch):
    # Swapping two leaves of P4's map leaves the built graph a P4, so an
    # isomorphism check passes it; no single swap is an automorphism of P4.
    solve = kexpr_module._solve

    def swapped(masks, domain, k_max):
        k, expr, leaves, roots = solve(masks, domain, k_max)
        return k, expr, [leaves[1], leaves[0], *leaves[2:]], roots

    monkeypatch.setattr(kexpr_module, "_solve", swapped)
    with pytest.raises(AssertionError, match="does not build the graph"):
        clique_width_exact(realize_text("P4"))


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
        assert clique_width_exact(g)[0] == naive_clique_width(g.n, g.edges())


@pytest.mark.parametrize(
    "text, expected",
    [("P1", 1), ("3P1", 1)]
    + [(t, 2) for t in ("P3", "C4", "K4", "K1,3", "2P2", "diamond")]
    + [(t, 3) for t in ("P4", "P5", "C5", "C6")],
)
def test_naive_oracle_known_widths(text, expected):
    g = realize_text(text)
    assert naive_clique_width(g.n, g.edges()) == expected


def test_naive_oracle_rejects_more_than_six_vertices():
    g = realize_text("P7")
    with pytest.raises(ValueError):
        naive_clique_width(g.n, g.edges())


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
    non_forests = [realize_text(text) for text in ("C4", "K3", "diamond", "C7+P2")]
    non_forests += [random_graph(rng, rng.randint(3, 10), rng.choice([0.3, 0.5, 0.8])) for _ in range(40)]
    for g in non_forests:
        if is_forest(g):
            continue
        with pytest.raises(ExpressionPreconditionError) as err:
            expr_forest(g)
        cycle = err.value.witness
        # The witness is a cycle of the graph: distinct vertices, each
        # adjacent to the next and the last to the first.
        assert len(set(cycle)) == len(cycle) >= 3
        assert all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
        assert str(err.value) == f"graph has a cycle {list(cycle)}"
    # A path far longer than recursion could follow.
    path = build_graph(3000, [(v, v + 1) for v in range(2999)])
    e = expr_forest(path)
    assert width(e) <= 3 and verify_expression(e, path)


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

    def recording(masks, n, k, twins):
        searched.add((tuple(masks), n))
        return search(masks, n, k, twins)

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

    def recording(masks, n, k, twins):
        levels.append((n, k))
        return search(masks, n, k, twins)

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
    twins = kexpr_module._twin_counts(masks, g.n)
    return next(k for k in range(1, 7) if kexpr_module._search(masks, g.n, k, twins) is not None)


def test_decomposed_width_matches_whole_graph_search():
    rng = random.Random(8)
    for i in range(40):
        kind = DECOMPOSABLE_KINDS[i % len(DECOMPOSABLE_KINDS)]
        g = decomposable_graph(rng, kind, rng.randint(8 if kind in ("C7", "nested") else 7, 10))
        k, expr = clique_width_exact(g)
        assert k == undecomposed_width(g)
        assert width(expr) == k and verify_expression(expr, g)


def test_twin_counts_match_brute_force():
    rng = random.Random(12)
    for n in range(1, 11):
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        _, _, masks = bit_adjacency(g)
        twins = kexpr_module._twin_counts(masks, n)
        assert len(twins) == 1 << n
        for s in range(1 << n):
            assert twins[s] == brute_twin_classes(g, {v for v in range(n) if s >> v & 1})


def test_search_states_are_twin_classes():
    # Every class of a stored state on S is a set of twins towards V - S,
    # so a state on S has at least t(S) classes and none is stored where
    # t(S) > k.  The search skips those subsets on this ground alone.  Where
    # t(S) = k the twin partition is the only state S can have, which is
    # what lets the scan of S's splits stop at its first state.
    rng = random.Random(11)
    skipped = tight = 0
    for _ in range(16):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        _, _, masks = bit_adjacency(g)
        twins = kexpr_module._twin_counts(masks, n)
        for k in range(1, kexpr_module.KMAX_LIMIT + 1):
            found = kexpr_module._search(masks, n, k, twins)
            if found is None:
                continue
            _, states, _ = found
            for s in range(1, 1 << n):
                subset = {v for v in range(n) if s >> v & 1}
                parts = states.get(s)
                t = brute_twin_classes(g, subset)
                if t > k:
                    skipped += 1
                    assert not parts
                    continue
                if t == k and parts:
                    tight += 1
                    [part] = parts
                    assert {frozenset(v for v in subset if c >> v & 1) for c in part} == brute_twin_partition(g, subset)
                for part in parts or ():
                    classes = [[v for v in subset if c >> v & 1] for c in part]
                    assert t <= len(classes) <= k
                    assert sorted(v for members in classes for v in members) == sorted(subset)
                    for members in classes:
                        assert len({g.neighbors(v) - subset for v in members}) == 1
    assert skipped > 0 and tight > 0


def test_union_fusions_stay_within_the_pair_bound():
    # A union on S = S1 | S2 fuses a class of S1 with one of S2 only when they
    # hold a non-adjacent pair (u in S1, v in S2) with equal neighbourhoods
    # outside S, where no vertex of S2 sees u but not v and no vertex of S1
    # sees v but not u (the fused class takes every cross join of either),
    # and distinct fusions use distinct u and distinct v.  So a product
    # fuses at most min(|U|, |V|) class pairs, U and V the S1-ends and
    # S2-ends of such pairs.  The search skips splits and state pairs by
    # this bound; here it is recomputed from the neighbour sets alone.
    rng = random.Random(33)
    unions = tight = 0
    for _ in range(24):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        _, _, masks = bit_adjacency(g)
        twins = kexpr_module._twin_counts(masks, n)
        for k in range(1, kexpr_module.KMAX_LIMIT + 1):
            found = kexpr_module._search(masks, n, k, twins)
            if found is None:
                continue
            for parts in found[1].values():
                for part, record in parts.items():
                    if record[0] != "union":
                        continue
                    _, s1, p1, s2, p2 = record
                    side1 = {v for v in range(n) if s1 >> v & 1}
                    side2 = {v for v in range(n) if s2 >> v & 1}
                    subset = side1 | side2
                    cross = [
                        (u, v)
                        for u in side1
                        for v in side2
                        if v not in g.neighbors(u)
                        and g.neighbors(u) - subset == g.neighbors(v) - subset
                        and not (g.neighbors(u) - g.neighbors(v)) & side2
                        and not (g.neighbors(v) - g.neighbors(u)) & side1
                    ]
                    bound = min(len({u for u, _ in cross}), len({v for _, v in cross}))
                    fused = len(p1) + len(p2) - len(part)
                    assert fused <= bound
                    unions += 1
                    tight += fused == bound > 0 and len(part) == k
    # Products with k classes that fuse exactly min(|U|, |V|) pairs: a
    # bound one lower would have skipped them.
    assert unions > 0 and tight > 0


# (graph, width, subsets with states built at that width).  The counts are
# ceilings: the search builds a subset only when a split of a larger one asks
# for it before the goal is found, and building fewer is never wrong.
ON_DEMAND_CASES = [
    ("C7", 4, 50),
    ("rook-3x3", 5, 59),
    ("P10", 3, 64),
]


def rook_3x3() -> Graph:
    """K3 x K3: adjacent when in one row or one column of a 3x3 grid."""
    return build_graph(9, [(a, b) for a in range(9) for b in range(a) if a // 3 == b // 3 or a % 3 == b % 3])


def test_search_builds_subsets_on_demand():
    for name, k, ceiling in ON_DEMAND_CASES:
        g = rook_3x3() if name == "rook-3x3" else realize_text(name)
        _, _, masks = bit_adjacency(g)
        twins = kexpr_module._twin_counts(masks, g.n)
        assert kexpr_module._search(masks, g.n, k - 1, twins) is None
        goal, states, rep = kexpr_module._search(masks, g.n, k, twins)
        allowed = sum(1 for s in range(1, 1 << g.n) if twins[s] <= k)
        built = [s for s in states if twins[s] <= k]
        assert len(built) <= ceiling < allowed
        for s, parts in states.items():
            for record in parts.values():
                if record[0] == "union":
                    _, s1, p1, s2, p2 = record
                    assert p1 in states[s1] and p2 in states[s2]
                elif record[0] == "merge":
                    assert record[1] in states[s]
        expr, leaves, roots = kexpr_module._reconstruct(goal, states, rep, k)
        assert sorted(leaves) == list(range(g.n))
        assert roots == set(eval_expression(expr).labels.values())
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


def golden_corpus() -> list[Graph]:
    """Seeded prime and decomposable graphs on 5..9 vertices."""
    rng = random.Random(2014)
    graphs = []
    for n, count in zip(range(5, 10), (4, 6, 10, 16, 16)):
        primes = 0
        while primes < count:
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            if not brute_has_module(g):
                graphs.append(g)
                primes += 1
        if n < 7:
            graphs += [blow_up(rng, realize_text(q), n) for q in ("P4", "C5", "P4")]
            graphs.append(random_cograph(rng, n))
        else:
            kinds = [k for k in DECOMPOSABLE_KINDS if n >= 8 or k not in ("C7", "nested")]
            graphs += [decomposable_graph(rng, rng.choice(kinds), n) for _ in range(4)]
    return graphs


# SHA-256 of every result and printed witness over golden_corpus() at
# k_max = 2, 3 and 6, recorded before the solver's union kernel was rewritten.
SOLVER_GOLDEN_DIGEST = "e6bc01fc8eec9f488ae28a181e6d7a734552a2ecd0294bd2fe1b6f9eb3a579ad"


def test_solver_witnesses_match_golden_digest():
    lines = []
    for g in golden_corpus():
        for k_max in (2, 3, 6):
            found = clique_width_exact(g, k_max)
            shown = "None" if found is None else f"{found[0]} {print_expression(found[1])}"
            lines.append(f"{g.n} {sorted(g.edges())} k_max={k_max}: {shown}")
    assert any(line.endswith("None") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SOLVER_GOLDEN_DIGEST


def large_prime_corpus() -> list[Graph]:
    """P10, C9, C10, the 3x3 rook's graph and six seeded prime G(10, p): prime
    graphs of width 3 to 5, where the search builds the most subsets."""
    rng = random.Random(2024)
    graphs = [realize_text(t) for t in ("P10", "C9", "C10")] + [rook_3x3()]
    while len(graphs) < 10:
        g = random_graph(rng, 10, rng.choice([0.3, 0.5, 0.7]))
        if not brute_has_module(g):
            graphs.append(g)
    return graphs


# SHA-256 of every result and printed witness over large_prime_corpus() at
# k_max = 4 and 6, recorded before subsets with t(S) = k stopped their split
# scan at their first state.
LARGE_PRIME_GOLDEN_DIGEST = "60ff7a24c7143ee4fb58826f563177e22a3a094d9c48439f661269381420e883"


def test_large_prime_witnesses_match_golden_digest():
    lines = []
    for g in large_prime_corpus():
        assert not brute_has_module(g)
        for k_max in (4, 6):
            found = clique_width_exact(g, k_max)
            shown = "None" if found is None else f"{found[0]} {print_expression(found[1])}"
            lines.append(f"{g.n} {sorted(g.edges())} k_max={k_max}: {shown}")
    assert {line.split(": ")[1].split()[0] for line in lines} == {"None", "3", "4", "5"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LARGE_PRIME_GOLDEN_DIGEST


def above_limit_corpus() -> list[Graph]:
    """G(n, 0.5) for n = 11 and 12, seeds 1-3, then C11 and its complement:
    graphs above SOLVER_LIMIT, where the subset search does the most work."""
    graphs = [random_graph(random.Random(seed), n, 0.5) for n in (11, 12) for seed in (1, 2, 3)]
    return graphs + [realize_text("C11"), realize_text("co(C11)")]


# SHA-256 of every result and printed witness over above_limit_corpus() with
# the size limit raised to each graph's order, recorded on the parent commit
# before the search skipped splits by the number of pairs that may fuse.
ABOVE_LIMIT_GOLDEN_DIGEST = "95fd8e1c75d66fd6dc1963c0aa5b4f059ad0656f492b509f1b947a533763c6b7"


def test_witnesses_above_solver_limit_match_golden_digest():
    lines = []
    for g in above_limit_corpus():
        assert g.n > kexpr_module.SOLVER_LIMIT
        found = clique_width_exact(g, size_limit=g.n)
        shown = "None" if found is None else f"{found[0]} {print_expression(found[1])}"
        lines.append(f"{g.n} {sorted(g.edges())}: {shown}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ABOVE_LIMIT_GOLDEN_DIGEST


def threshold_graph(rng: random.Random, n: int) -> Graph:
    """Vertex v joined to all of 0..v-1 with probability 1/2, else to none."""
    return build_graph(n, [(u, v) for v in range(1, n) if rng.random() < 0.5 for u in range(v)])


def shuffled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def nested_atlas(rng: random.Random, atlas: list[Graph], n: int) -> Graph:
    """Atlas graphs substituted into one another until at least n vertices:
    the graph so far replaces one vertex of a fresh atlas quotient, and
    further atlas graphs replace the others."""
    g = rng.choice(atlas)
    while g.n < n:
        quotient = rng.choice(atlas)
        parts = [rng.choice(atlas) for _ in range(quotient.n)]
        parts[rng.randrange(quotient.n)] = g
        g = substitute(quotient, parts)
    return g


def decomposable_scale_corpus() -> list[Graph]:
    """Decomposable graphs on 20..300 vertices: nP1, K_n, K1,n, seeded
    random cographs, threshold graphs in id order and shuffled, and atlas
    graphs substituted into one another, in id order and shuffled."""
    rng = random.Random(1100)
    graphs = [realize_text(f"{n}P1") for n in (20, 100)]
    graphs += [realize_text(f"K{n}") for n in (20, 100)]
    graphs += [realize_text(f"K1,{n}") for n in (20, 100)]
    graphs += [random_cograph(rng, n) for n in (40, 120, 200)]
    graphs += [threshold_graph(rng, n) for n in (60, 300)]
    graphs += [shuffled(rng, threshold_graph(rng, n)) for n in (60, 200)]
    atlas = atlas_catalog(1, 7)
    graphs += [nested_atlas(rng, atlas, n) for n in (20, 60, 150)]
    graphs += [shuffled(rng, nested_atlas(rng, atlas, n)) for n in (40, 100)]
    return graphs


# SHA-256 of every result and printed witness over decomposable_scale_corpus()
# with the size limit raised to each graph's order, recorded before the
# solver peeled modules in one loop over vertex sets.
SCALE_GOLDEN_DIGEST = "960b05ab81fd1435e0f40a37bca562bf45a1dcf462f11f68170d03c14fe17d4c"


def test_decomposable_witnesses_at_scale_match_golden_digest():
    corpus = decomposable_scale_corpus()
    assert min(g.n for g in corpus) >= 20
    lines = []
    for g in corpus:
        found = clique_width_exact(g, size_limit=g.n)
        shown = "None" if found is None else f"{found[0]} {print_expression(found[1])}"
        lines.append(f"{g.n} {sorted(g.edges())}: {shown}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SCALE_GOLDEN_DIGEST


def test_solver_recursion_follows_module_nesting(monkeypatch):
    # The solver peels modules in a loop and recurses only into a module, so
    # its depth is the nesting depth of the modules it finds, not their
    # number.  In nP1, K_n and a threshold graph in id order, every later
    # vertex sees both or neither of 0 and v, so each module found is a pair
    # {0, v} with no module inside: depth 2, where recursing on each
    # quotient would go one level per module, 299 deep here.
    solve = kexpr_module._solve
    depth = deepest = 0

    def counted(masks, domain, k_max):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return solve(masks, domain, k_max)
        finally:
            depth -= 1

    monkeypatch.setattr(kexpr_module, "_solve", counted)
    for g in (realize_text("300P1"), realize_text("K300"), threshold_graph(random.Random(300), 300)):
        deepest = 0
        k, expr = clique_width_exact(g, size_limit=g.n)
        assert deepest == 2
        assert width(expr) == k and verify_expression(expr, g)


def random_expression(rng: random.Random) -> KExpression:
    """A valid expression on labels 1..4: random pairs of a pool of leaves
    are united, and each union or last leaf gets up to three joins and
    renames on top."""
    pool: list[KExpression] = [Create(rng.randint(1, 4)) for _ in range(rng.randint(2, 12))]
    while True:
        e = pool.pop(rng.randrange(len(pool)))
        if pool:
            e = Union(e, pool.pop(rng.randrange(len(pool))))
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.7:
                e = Join(*rng.sample(range(1, 5), 2), e)
            else:
                e = Rename(rng.randint(1, 4), rng.randint(1, 4), e)
        if not pool:
            return e
        pool.append(e)


# SHA-256 of eval_expression (vertex count, sorted edges, labels),
# print_expression, width and substitute_labels over 1000 random_expression
# draws, recorded before the walkers lost their recursion.
WALKER_GOLDEN_DIGEST = "782a9899ba82f33e12122b986a1173bc77abc616e488ee0803fa4467248b70b1"


def test_walkers_match_golden_digest():
    rng = random.Random(2001)
    lines = []
    for _ in range(1000):
        e = random_expression(rng)
        text = print_expression(e)
        lg = eval_expression(e)
        edges = sorted(lg.graph.edges())
        count, oracle_edges, oracle_labels = oracles.eval_kexpr(oracles.parse_kexpr(text))
        assert (count, set(edges), oracle_labels) == (lg.graph.n, oracle_edges, expr_labels(e))
        mapping = {label: rng.randint(1, 4) for label in rng.sample(range(1, 5), 3)}
        lines.append(
            f"{lg.graph.n} {edges} {sorted(lg.labels.items())} {text} {width(e)} "
            f"{print_expression(substitute_labels(e, mapping))}"
        )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WALKER_GOLDEN_DIGEST
