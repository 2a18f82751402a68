import random

import pytest

import cliquewidth.constructions as constructions
from cliquewidth import (
    Graph,
    GraphError,
    are_isomorphic,
    bipartite_complement,
    build_graph,
    is_bipartite,
    is_free,
    realize_text,
)
from cliquewidth.constructions import (
    PartitionedGraph,
    complemented_wall,
    gi_reduce,
    subdivide,
    to_partitioned_text,
    verify_complemented_wall,
    verify_gi_profile,
    wall,
)
from cliquewidth.graphs import parse_edge_list_text
from brute import random_graph


def test_wall_counts_match_the_drawings():
    w2 = wall(2)
    assert (w2.n, w2.m) == (16, 19)
    assert wall(3).n == 30
    assert wall(4).n == 48
    for h in (2, 3, 4, 5, 6):
        w = wall(h)
        assert w.n == (h + 1) * (2 * h + 2) - 2
        ok, _ = is_bipartite(w)
        assert ok
        assert w.max_degree() == 3
        assert all(w.degree(v) >= 2 for v in w.vertices)
    with pytest.raises(GraphError):
        wall(1)


def test_subdivide_examples():
    c6 = subdivide(realize_text("K3"), 1)
    assert are_isomorphic(c6, realize_text("C6")) is not None
    g = realize_text("C5")
    assert subdivide(g, 0) == g
    assert are_isomorphic(subdivide(realize_text("P2"), 2), realize_text("P4")) is not None


def test_subdivide_counts(rng):
    for _ in range(20):
        n = rng.randint(1, 8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = build_graph(n, edges)
        for k in (1, 2, 3):
            s = subdivide(g, k)
            assert s.n == g.n + k * g.m
            assert s.m == (k + 1) * g.m


def subdivide_reference(g: Graph, times: int) -> Graph:
    """Subdivision through the validating constructor, fresh ids in
    edge-list order: the construction ``subdivide`` must reproduce."""
    if times == 0:
        return g
    verts = list(g.vertices)
    nxt = (verts[-1] + 1) if verts else 0
    edges = []
    for u, v in g.edges():
        chain = [u] + [nxt + i for i in range(times)] + [v]
        nxt += times
        verts.extend(chain[1:-1])
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(verts, edges)


def test_subdivide_matches_validating_reference(monkeypatch):
    rng = random.Random("subdivide-reference")
    seeds = [random_graph(rng, rng.randint(0, 7), rng.choice([0.3, 0.6])) for _ in range(15)]
    seeds.append(Graph([2, 5, 9], [(2, 9), (5, 9)]))
    for g in seeds + [wall(h) for h in (2, 3, 4)]:
        for times in (1, 2, 3):
            assert subdivide(g, times) == subdivide_reference(g, times)
    fast = [complemented_wall(h) for h in (2, 3)] + [gi_reduce(g) for g in seeds]
    monkeypatch.setattr(constructions, "subdivide", subdivide_reference)
    slow = [complemented_wall(h) for h in (2, 3)] + [gi_reduce(g) for g in seeds]
    for a, b in zip(fast, slow):
        assert a.graph == b.graph and a.parts == b.parts


def test_subdivide_of_bipartite_keeps_sides_apart():
    base = wall(2)
    ok, (a_part, c_part) = is_bipartite(base)
    assert ok
    once = subdivide(base, 1)
    assert not any(
        once.has_edge(u, v) for u in a_part for v in c_part
    )
    flipped = bipartite_complement(once, a_part, c_part)
    cross = sum(1 for u in a_part for v in c_part if flipped.has_edge(u, v))
    assert cross == len(a_part) * len(c_part)


def test_complemented_wall_counts():
    pg = complemented_wall(2)
    a_part, b_part, c_part = pg.parts["A"], pg.parts["B"], pg.parts["C"]
    assert len(a_part) + len(c_part) == 16
    assert len(b_part) == 19
    assert pg.graph.n == 35
    assert pg.graph.m == 2 * 19 + len(a_part) * len(c_part)


@pytest.mark.parametrize(
    "build, arg, order",
    [(wall, h, n) for h, n in ((2, 16), (3, 30), (4, 48))]
    + [(complemented_wall, h, n) for h, n in ((2, 35), (3, 68), (4, 111))]
    + [(lambda text: gi_reduce(realize_text(text)), text, n) for text, n in (("P1", 35), ("C6", 118))],
)
def test_constructions_check_the_vertex_limit_on_their_exact_order(monkeypatch, build, arg, order):
    # A construction refuses an order above the limit before building it,
    # and the order it checks is the order it builds.  The dense
    # constructions have more edges than vertices, and the limit bounds
    # those too, so the build runs under the default limit.
    built = build(arg)
    assert (built if isinstance(built, Graph) else built.graph).n == order
    monkeypatch.setattr(constructions, "VERTEX_LIMIT", order - 1)
    with pytest.raises(GraphError, match=f"gives {order} vertices"):
        build(arg)


@pytest.mark.parametrize(
    "build, arg, size",
    [(complemented_wall, h, m) for h, m in ((2, 102), (3, 301), (4, 702), (5, 1413), (6, 2566))]
    + [
        (lambda text: gi_reduce(realize_text(text)), text, m)
        for text, m in (("P1", 90), ("P3", 220), ("C6", 504), ("10P1", 828))
    ],
)
def test_dense_constructions_check_the_limit_on_their_exact_size(monkeypatch, build, arg, size):
    # A complemented wall has 2 m_wall + |A||C| edges and a reduction of a
    # graph on n vertices and m edges (n + 8)(m + 4n + 6); both are refused
    # above the limit before they are built, and the size checked is the
    # size built.
    monkeypatch.setattr(constructions, "VERTEX_LIMIT", size)
    assert build(arg).graph.m == size
    monkeypatch.setattr(constructions, "VERTEX_LIMIT", size - 1)
    with pytest.raises(GraphError, match=f"gives {size} edges"):
        build(arg)


def test_complemented_wall_observations():
    for h in (2, 3):
        report = verify_complemented_wall(complemented_wall(h))
        assert report.ok, report.failures


def test_complemented_wall_mutations_fail():
    pg = complemented_wall(2)
    b1, b2 = sorted(pg.parts["B"])[:2]
    with_bb = Graph(pg.graph.vertices, list(pg.graph.edges()) + [(b1, b2)])
    report = verify_complemented_wall(PartitionedGraph(with_bb, pg.parts))
    assert not report.ok
    # give two B vertices identical neighbourhoods
    n1 = sorted(pg.graph.neighbors(b1))
    edges = [
        e for e in pg.graph.edges() if b2 not in e
    ] + [(b2, x) for x in n1]
    twin = Graph(pg.graph.vertices, edges)
    report = verify_complemented_wall(PartitionedGraph(twin, pg.parts))
    assert not report.ok
    assert any("neighbourhood" in f for f in report.failures)


def test_complemented_wall_freeness_small():
    pg = complemented_wall(2)
    assert is_free(pg.graph, ["diamond", "P2+P4"])[0]


def test_gi_reduce_k1_counts():
    out = gi_reduce(realize_text("P1"))
    assert len(out.parts["A"]) == 5
    assert len(out.parts["C"]) == 10
    assert len(out.parts["B"]) == 20
    assert verify_gi_profile(out).ok


def test_gi_reduce_profile_examples():
    for text in ("C5", "P3", "K3"):
        out = gi_reduce(realize_text(text))
        report = verify_gi_profile(out)
        assert report.ok, report.failures


def test_gi_reduce_dominating_vertices_are_appended():
    g = realize_text("P3")
    out = gi_reduce(g)
    assert {0, 1, 2, 3, 4, 5, 6} <= out.parts["A"]
    assert len(out.parts["A"]) == 7


def test_gi_reduce_profile_mutation_fails():
    out = gi_reduce(realize_text("P2"))
    a = min(out.parts["A"])
    c_nbr = min(out.graph.neighbors(a) & out.parts["C"])
    edges = [e for e in out.graph.edges() if e != (min(a, c_nbr), max(a, c_nbr))]
    broken = Graph(out.graph.vertices, edges)
    report = verify_gi_profile(PartitionedGraph(broken, out.parts))
    assert not report.ok


def test_gi_reduce_distinguishes_p3_from_p1_p2():
    g1 = realize_text("P3")
    g2 = realize_text("P1+P2")
    assert are_isomorphic(g1, g2) is None
    assert are_isomorphic(gi_reduce(g1).graph, gi_reduce(g2).graph) is None


def test_gi_reduce_preserves_isomorphism(rng):
    g = realize_text("C5")
    perm = [3, 0, 4, 1, 2]
    h = Graph(range(5), [(perm[u], perm[v]) for u, v in g.edges()])
    assert are_isomorphic(gi_reduce(g).graph, gi_reduce(h).graph) is not None


def test_gi_reduce_output_freeness_small():
    out = gi_reduce(realize_text("P1+P2"))
    assert is_free(out.graph, ["diamond", "P2+P4"])[0]


def test_wall_truncation_widths_non_decreasing():
    # Growing induced prefixes of wall-like graphs cannot lose clique-width;
    # no fixed bound is asserted, only monotone growth at solver scale.
    from cliquewidth import clique_width_exact, induced_subgraph

    for base in (wall(2), subdivide(wall(2), 1)):
        order = [min(base.vertices)]
        seen = set(order)
        queue = list(order)
        while queue:
            u = queue.pop(0)
            for w in sorted(base.neighbors(u)):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        previous = 0
        for size in range(1, 11):
            prefix = induced_subgraph(base, order[:size])
            k, _ = clique_width_exact(prefix)
            assert k >= previous
            previous = k
        assert previous >= 2


def test_partitioned_text_round_trip():
    pg = complemented_wall(2)
    text = to_partitioned_text(pg)
    again = PartitionedGraph(*parse_edge_list_text(text))
    assert to_partitioned_text(again) == text
    assert again.graph.n == pg.graph.n
    assert {len(p) for p in again.parts.values()} == {
        len(p) for p in pg.parts.values()
    }
