import ast
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from cliquewidth import (
    Graph,
    GraphError,
    are_isomorphic,
    bipartite_complement,
    build_graph,
    complement,
    components,
    disjoint_union,
    from_edge_list_text,
    from_graph6,
    induced_subgraph,
    is_bipartite,
    is_forest,
    prune_degree_one,
    realize_text,
    subgraph_complement,
    to_edge_list_text,
    to_graph6,
)
from cliquewidth.graphs import (
    bit_adjacency,
    delete_vertices,
    find_hole,
    find_induced_p3,
    parse_edge_list_text,
    subdivide,
)
from brute import random_graph, two_core


def graphs_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1 if pairs else 0))
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        return build_graph(n, edges)

    return build()


@st.composite
def sparse_id_graphs(draw):
    """Vertex ids drawn from 0..29, edges as plain pairs (u < v)."""
    verts = sorted(draw(st.sets(st.integers(min_value=0, max_value=29), max_size=8)))
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    edges = [p for p in pairs if draw(st.booleans())]
    return verts, edges


def _subset(draw, verts):
    return [v for v in verts if draw(st.booleans())]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derived_operations_match_edge_lists(data):
    # Every derived operation must give the graph that the validating
    # constructor builds from an edge list computed here in plain Python.
    verts, edges = data.draw(sparse_id_graphs())
    h_verts, h_edges = data.draw(sparse_id_graphs())
    s = _subset(data.draw, verts)
    xs = _subset(data.draw, verts)
    ys = [v for v in _subset(data.draw, verts) if v not in xs]
    g, h = Graph(verts, edges), Graph(h_verts, h_edges)
    edge_set = set(edges)
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]

    def crosses(u, v):
        return (u in xs and v in ys) or (u in ys and v in xs)

    base = verts[-1] + 1 if verts else 0
    fresh = {v: base + i for i, v in enumerate(h_verts)}
    cases = [
        (complement(g), verts, [p for p in pairs if p not in edge_set]),
        (
            disjoint_union(g, h),
            verts + [fresh[v] for v in h_verts],
            edges + [(fresh[u], fresh[v]) for u, v in h_edges],
        ),
        (induced_subgraph(g, s), s, [(u, v) for u, v in edges if u in s and v in s]),
        (
            delete_vertices(g, s),
            [v for v in verts if v not in s],
            [(u, v) for u, v in edges if u not in s and v not in s],
        ),
        (
            subgraph_complement(g, s),
            verts,
            [p for p in pairs if (p in edge_set) != (p[0] in s and p[1] in s)],
        ),
        (
            bipartite_complement(g, xs, ys),
            verts,
            [p for p in pairs if (p in edge_set) != crosses(*p)],
        ),
    ]
    for got, exp_verts, exp_edges in cases:
        expected = Graph(exp_verts, exp_edges)
        assert got == expected and hash(got) == hash(expected)
        assert got.m == len(exp_edges)
        assert got.edges() == tuple(sorted(exp_edges))
        assert got.degree_sequence() == expected.degree_sequence()
        order, idx, masks = bit_adjacency(got)
        own = [0] * len(order)
        for u, v in exp_edges:
            own[idx[u]] |= 1 << idx[v]
            own[idx[v]] |= 1 << idx[u]
        assert order == sorted(exp_verts) and masks == own


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_edge_and_non_edge_match_brute_force(data):
    # Each query gives the least pair that a plain scan of every pair in
    # sorted order finds, inside one set and between two disjoint sets.
    verts, edges = data.draw(sparse_id_graphs())
    g, edge_set = Graph(verts, edges), set(edges)
    xs = _subset(data.draw, verts)
    ys = [v for v in _subset(data.draw, verts) if v not in xs]

    def least(pairs, adjacent):
        hits = (p for p in pairs if (tuple(sorted(p)) in edge_set) == adjacent)
        return next(hits, None)

    inside = list(itertools.combinations(sorted(xs), 2))
    between = list(itertools.product(sorted(xs), sorted(ys)))
    assert g.first_edge(xs) == least(inside, True)
    assert g.first_non_edge(xs) == least(inside, False)
    assert g.first_edge(xs, ys) == least(between, True)
    assert g.first_non_edge(xs, ys) == least(between, False)
    assert g.first_edge(ys, xs) == least(itertools.product(sorted(ys), sorted(xs)), True)
    unknown = max(verts, default=-1) + 1
    for query in (g.first_edge, g.first_non_edge):
        assert query([]) is None and query([], ys) is None and query(xs, []) is None
        with pytest.raises(GraphError, match=f"unknown vertex {unknown}"):
            query(xs + [unknown])
        with pytest.raises(GraphError, match=f"unknown vertex {unknown}"):
            query(xs, ys + [unknown])


def test_unvalidated_construction_stays_in_graphs():
    # Only graphs.py may build a graph from a raw adjacency map or read one.
    package = Path(__file__).resolve().parent.parent / "src" / "cliquewidth"
    for path in sorted(package.glob("*.py")):
        if path.name == "graphs.py":
            continue
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert not names & {"_adj", "_from_adj"}, path.name


def test_build_graph_empty():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0


def test_build_graph_p4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert are_isomorphic(g, realize_text("P4")) is not None


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(4, [(0, 1), (0, 0)])


def test_build_graph_rejects_duplicates_and_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 0)], "duplicate edge (1,0)"),
        ([(0, 3)], "edge (0,3) out of range for n=3"),
        ([(-1, 2)], "edge (-1,2) out of range for n=3"),
        # Per edge: the loop before the range, the range before a duplicate.
        ([(5, 5)], "self-loop at vertex 5"),
        ([(0, 1), (1, 0), (5, 5)], "duplicate edge (1,0)"),
        ([(0, 1), (4, 1), (0, 1)], "edge (4,1) out of range for n=3"),
    ],
)
def test_build_graph_reports_the_first_bad_edge(edges, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build_graph(3, edges)


def test_build_graph_matches_the_validating_constructor():
    rng = random.Random(168)
    for n in range(12):
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in itertools.combinations(range(n), 2)]
        edges = [e for e in edges if rng.random() < 0.4]
        rng.shuffle(edges)
        g = build_graph(n, edges)
        assert g == Graph(range(n), edges) and g.m == len(edges)
        assert g.vertices == tuple(range(n))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph([2, -1], []), "negative vertex id -1"),
        (lambda: Graph([0, 1], [(1, 1)]), "self-loop at vertex 1"),
        (lambda: Graph([0, 1], [(0, 5)]), r"edge \(0,5\) references unknown vertex"),
        (lambda: build_graph(-1, []), "vertex count must be non-negative"),
        (lambda: subdivide(realize_text("P2"), -1), "subdivision count must be non-negative"),
        (lambda: from_graph6("A!"), "invalid graph6 character '!'"),
    ],
    ids=[
        "negative-id",
        "self-loop",
        "unknown-end",
        "negative-count",
        "negative-subdivision",
        "graph6-char",
    ],
)
def test_outside_input_is_rejected(build, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        build()


def test_complement_k4():
    g = complement(realize_text("K4"))
    assert g.n == 4 and g.m == 0


def test_complement_diamond():
    assert (
        are_isomorphic(complement(realize_text("2P1+P2")), realize_text("diamond"))
        is not None
    )


@settings(max_examples=60, deadline=None)
@given(graphs_strategy())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_disjoint_union_counts():
    g = disjoint_union(realize_text("P2"), realize_text("P3"))
    assert g.n == 5 and g.m == 3
    assert are_isomorphic(g, realize_text("P2+P3")) is not None
    empty = Graph([], [])
    h = realize_text("C5")
    assert are_isomorphic(disjoint_union(empty, h), h) is not None
    two = disjoint_union(realize_text("P1"), realize_text("P1"))
    assert two.n == 2 and two.m == 0


def test_induced_subgraph():
    c5 = realize_text("C5")
    p4 = induced_subgraph(c5, [0, 1, 2, 3])
    assert are_isomorphic(p4, realize_text("P4")) is not None
    assert induced_subgraph(c5, c5.vertices) == c5
    d = realize_text("diamond")
    hubs = [v for v in d.vertices if d.degree(v) == 3]
    other = [v for v in d.vertices if d.degree(v) == 2][:1]
    tri = induced_subgraph(d, hubs + other)
    assert are_isomorphic(tri, realize_text("K3")) is not None
    with pytest.raises(GraphError):
        induced_subgraph(c5, [0, 99])


def test_subgraph_complement():
    k5 = realize_text("K5")
    assert subgraph_complement(k5, k5.vertices).m == 0
    p3 = realize_text("P3")
    assert are_isomorphic(subgraph_complement(p3, [0, 2]), realize_text("K3")) is not None


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(), st.integers(min_value=0, max_value=255))
def test_subgraph_complement_involution(g, mask):
    inside = [v for i, v in enumerate(g.vertices) if mask >> i & 1]
    assert subgraph_complement(subgraph_complement(g, inside), inside) == g


def test_bipartite_complement():
    g = realize_text("K1,3")  # star = complete bipartite K_{1,3}
    centre = [0]
    leaves = [1, 2, 3]
    flipped = bipartite_complement(g, centre, leaves)
    assert flipped.m == 0
    with pytest.raises(GraphError):
        bipartite_complement(g, [0, 1], [1, 2])


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(), st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_bipartite_complement_involution(g, mask_x, mask_y):
    xs = [v for i, v in enumerate(g.vertices) if mask_x >> i & 1]
    ys = [v for i, v in enumerate(g.vertices) if (mask_y >> i & 1) and v not in set(xs)]
    assert bipartite_complement(bipartite_complement(g, xs, ys), xs, ys) == g


def test_find_induced_p3_first_in_scan_order(rng):
    assert find_induced_p3(realize_text("K3+K2+P1")) is None
    # The paw 0-1-2 triangle with pendant 3 on 2: vertex 2 is the first
    # with two non-adjacent neighbours.
    assert find_induced_p3(build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])) == (0, 2, 3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        p3 = find_induced_p3(g)
        cliques = all(g.has_edge(u, v) for c in components(g) for u in c for v in c if u < v)
        assert (p3 is None) == cliques
        if p3 is not None:
            u, mid, v = p3
            assert g.has_edge(u, mid) and g.has_edge(mid, v) and not g.has_edge(u, v)


@settings(max_examples=150, deadline=None)
@given(sparse_id_graphs())
def test_find_hole_is_an_induced_cycle_exactly_off_chordal_graphs(graph):
    verts, edges = graph
    g = Graph(verts, edges)
    reference = nx.Graph(edges)
    reference.add_nodes_from(verts)
    hole = find_hole(g)
    assert (hole is None) == nx.is_chordal(reference)
    if hole is not None:
        assert len(set(hole)) == len(hole) >= 4
        assert all(g.has_edge(hole[i - 1], hole[i]) for i in range(len(hole)))
        assert induced_subgraph(g, hole).m == len(hole)


@st.composite
def pendant_heavy_graphs(draw):
    """Up to 14 vertices with ids from 0..40 and at most n + 2 edges, so that
    trees, pendant paths and K2 components are common."""
    verts = sorted(draw(st.sets(st.integers(min_value=0, max_value=40), max_size=14)))
    edges = set()
    if len(verts) >= 2:
        ends = st.sampled_from(verts)
        for u, v in draw(st.lists(st.tuples(ends, ends), max_size=len(verts) + 2)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph(verts, edges)


def _prune_by_rounds(g):
    """``prune_degree_one`` as a round loop that builds a new graph per
    round: the reference for the degree-map version."""
    cur = g
    while True:
        drop = [v for v in cur.vertices if cur.degree(v) == 1]
        if not drop:
            return cur
        cur = delete_vertices(cur, drop)


@settings(max_examples=200, deadline=None)
@given(pendant_heavy_graphs())
def test_prune_degree_one_matches_round_loop(g):
    pruned, reference = prune_degree_one(g), _prune_by_rounds(g)
    assert pruned == reference
    assert (pruned is g) == (reference is g)


def test_prune_degree_one_examples():
    assert prune_degree_one(realize_text("P4")).n == 0
    assert prune_degree_one(realize_text("K1,3")).n == 1
    c5 = realize_text("C5")
    assert prune_degree_one(c5) == c5
    k1 = realize_text("P1")
    assert prune_degree_one(k1) == k1


def test_prune_degree_one_trees_collapse(rng):
    # Any tree prunes down to the empty graph or a single vertex.
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        t = build_graph(n, edges)
        assert prune_degree_one(t).n <= 1


def test_prune_degree_one_matches_two_core(rng):
    # The pruned graph and any order of single-vertex deletions agree on
    # everything except isolated remnants of collapsed tree parts; the
    # non-isolated remainder is exactly the 2-core.
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.2, 0.3, 0.5]))
        fixed = prune_degree_one(g)
        assert all(fixed.degree(v) != 1 for v in fixed.vertices)
        core = two_core(g)
        non_isolated = {v for v in fixed.vertices if fixed.degree(v) >= 1}
        assert non_isolated == set(core)
        # one-at-a-time deletion in a random order reaches the same 2-core
        cur = g
        while True:
            deg1 = [v for v in cur.vertices if cur.degree(v) == 1]
            if not deg1:
                break
            pick = rng.choice(deg1)
            cur = induced_subgraph(cur, set(cur.vertices) - {pick})
        assert {v for v in cur.vertices if cur.degree(v) >= 1} == non_isolated


def test_components_and_forest():
    g = realize_text("P3+K3+P1")
    comps = components(g)
    assert sorted(len(c) for c in comps) == [1, 3, 3]
    assert is_forest(realize_text("P4+K1,3"))
    assert not is_forest(realize_text("C4"))


def test_is_bipartite():
    ok, classes = is_bipartite(realize_text("C6"))
    assert ok and {len(c) for c in classes} == {3}
    ok, _ = is_bipartite(realize_text("C5"))
    assert not ok


def test_edge_list_round_trip():
    text = "5 4\n0 1\n0 2\n1 3\n2 4\n"
    g = from_edge_list_text(text)
    assert to_edge_list_text(g) == text
    with pytest.raises(GraphError):
        from_edge_list_text("3 2\n0 1\n")
    with pytest.raises(GraphError):
        from_edge_list_text("")


def test_edge_list_part_trailer():
    g, parts = parse_edge_list_text("3 1\n0 1\n\nPART A: 0 2\nPART B: 1\n")
    assert g == build_graph(3, [(0, 1)])
    assert parts == {"A": frozenset({0, 2}), "B": frozenset({1})}
    assert from_edge_list_text("3 1\n0 1\nPART A: 0 1 2\n") == g
    for bad in (
        "3 1\n0 1\nPART A: 3\n",  # id out of range
        "3 1\nPART A: 0\n0 1\n",  # edge line after the trailer
        "3 1\n0 1\nPART A: 0\nPART A: 1\n",  # part named twice
        "3 1\n0 1\nPART A 0\n",  # no colon
    ):
        with pytest.raises(GraphError):
            parse_edge_list_text(bad)
    # Ids are runs of ASCII digits, the integers of the text grammars.
    for bad, line in (
        ("1_0 0\n", "header"),
        ("\uff13 1\n0 1\n", "header"),  # fullwidth 3
        ("3 -1\n", "header"),
        ("3 1\n0 \u0662\n", "edge"),  # Arabic-Indic 2
        ("3 1\n0 +1\n", "edge"),
        ("3 1\n0 -1\n", "edge"),
        ("3 1\n0 " + "1" * 4301 + "\n", "edge"),
        ("3 1\n0 1\nPART a: 0 \uff10\n", "PART"),  # fullwidth 0
        ("3 1\n0 1\nPART a: -1\n", "PART"),
    ):
        with pytest.raises(GraphError, match=f"^bad {line} line "):
            parse_edge_list_text(bad)


@settings(max_examples=80, deadline=None)
@given(graphs_strategy(max_n=8))
def test_edge_list_write_read(g):
    assert from_edge_list_text(to_edge_list_text(g)) == g


@settings(max_examples=80, deadline=None)
@given(graphs_strategy(max_n=8))
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_against_networkx(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        encoded = to_graph6(g)
        back = nx.from_graph6_bytes(encoded.encode())
        assert back.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges())
        # and our reader accepts networkx's writer
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert from_graph6(theirs) == g


def test_graph6_rejects_oversize():
    with pytest.raises(GraphError):
        to_graph6(build_graph(63, []))
