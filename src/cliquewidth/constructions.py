"""Wall graphs, the complemented-wall family, and the graph-isomorphism
reduction into the (diamond, P2+P4)-free class, all built by edge
subdivision (``graphs.subdivide``) and bipartite complementation.

The wall convention: height h spans rows 0..h of a grid with columns
0..2h+1, rows are paths, vertical rungs between rows y and y+1 sit at
columns of parity (y+1) mod 2, and the two degree-1 corners of that pattern
are trimmed.  wall(2), wall(3), wall(4) have 16, 30 and 48 vertices; the
pattern for larger heights extrapolates the same brick layout.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    VERTEX_LIMIT,
    Graph,
    GraphError,
    bipartite_complement,
    is_bipartite,
    subdivide,
    to_edge_list_text,
)


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph with named disjoint vertex parts covering all vertices."""

    graph: Graph
    parts: dict[str, frozenset[int]]

    def __post_init__(self) -> None:
        everything: set[int] = set()
        for name, part in self.parts.items():
            if everything & part:
                raise GraphError(f"part {name} overlaps another part")
            everything |= part
        if everything != set(self.graph.vertices):
            raise GraphError("parts must cover the vertex set exactly")


@dataclass
class StructureReport:
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_size(what: str, n: int, m: int = 0) -> None:
    """Refuse a construction of ``n`` vertices and ``m`` edges before it is
    built, if either count is above ``VERTEX_LIMIT``."""
    for count, unit in ((n, "vertices"), (m, "edges")):
        if count > VERTEX_LIMIT:
            raise GraphError(f"{what} gives {count} {unit}, above the limit of {VERTEX_LIMIT}")


def _check_height(height: int) -> None:
    if height < 2:
        raise GraphError("wall height must be at least 2")


def wall(height: int) -> Graph:
    """The brick-wall graph of the given height (>= 2)."""
    _check_height(height)
    _check_size(f"wall height {height}", (height + 1) * (2 * height + 2) - 2)
    cols = 2 * height + 2
    drop = {(0, 0), (0, height) if height % 2 else (cols - 1, height)}
    coords = [
        (x, y)
        for y in range(height + 1)
        for x in range(cols)
        if (x, y) not in drop
    ]
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for (x, y), i in index.items():
        if (x + 1, y) in index:
            edges.append((i, index[(x + 1, y)]))
        if (x, y + 1) in index and x % 2 == (y + 1) % 2:
            edges.append((i, index[(x, y + 1)]))
    g = Graph(range(len(coords)), edges)
    ok, _ = is_bipartite(g)
    if not ok or g.max_degree() > 3:
        raise AssertionError("wall construction lost its defining properties")
    return g


def complemented_wall(height: int) -> PartitionedGraph:
    """The unbounded-family member of the given height.

    Take a wall, subdivide every edge once (the fresh vertices form part B),
    then complement between the wall's two bipartition classes A and C.
    """
    # The wall's vertices plus one per edge: (h+1)(2h+1) - 2 in the rows and
    # h(h+1) rungs.  Each wall edge becomes two, and A and C, the colour
    # classes of the wall, have h(h+2) vertices each and become complete to
    # each other.  The height is checked first: the formulas hold for h >= 2.
    _check_height(height)
    wall_edges = (height + 1) * (3 * height + 1) - 2
    _check_size(
        f"complemented wall height {height}",
        (height + 1) * (5 * height + 3) - 4,
        2 * wall_edges + (height * (height + 2)) ** 2,
    )
    base = wall(height)
    ok, classes = is_bipartite(base)
    if not ok or classes is None:
        raise AssertionError("wall is not bipartite")
    a_part, c_part = classes
    sub = subdivide(base, 1)
    b_part = frozenset(set(sub.vertices) - set(base.vertices))
    result = bipartite_complement(sub, a_part, c_part)
    return PartitionedGraph(result, {"A": a_part, "B": b_part, "C": c_part})


def verify_complemented_wall(pg: PartitionedGraph) -> StructureReport:
    """Check the three structural facts the family's freeness rests on:
    A and C are independent and complete to each other, every B vertex has
    exactly one neighbour in each of A and C, and no two B vertices share a
    neighbourhood."""
    g = pg.graph
    a_part, b_part, c_part = pg.parts["A"], pg.parts["B"], pg.parts["C"]
    failures: list[str] = []
    for name, part in (("A", a_part), ("C", c_part), ("B", b_part)):
        if edge := g.first_edge(part):
            failures.append(f"{name} is not independent: {edge[0]} ~ {edge[1]}")
    if pair := g.first_non_edge(a_part, c_part):
        failures.append(f"A vertex {pair[0]} is not complete to C")
    for u in sorted(b_part):
        if len(g.neighbors(u) & a_part) != 1 or len(g.neighbors(u) & c_part) != 1:
            failures.append(f"B vertex {u} lacks its unique A and C neighbours")
            break
    seen: dict[frozenset[int], int] = {}
    for u in sorted(b_part):
        nb = g.neighbors(u)
        if nb in seen:
            failures.append(f"B vertices {seen[nb]} and {u} share a neighbourhood")
            break
        seen[nb] = u
    return StructureReport(failures)


def gi_reduce(g: Graph) -> PartitionedGraph:
    """Isomorphism-preserving reduction into the (diamond, P2+P4)-free class.

    Add four dominating vertices (part A is everything at this stage),
    subdivide once (fresh vertices form C), subdivide again (fresh vertices
    form B), then complement between A and C.
    """
    # n + 4 vertices and M = m + 4n + 6 edges before subdividing; the two
    # subdivisions add M and then 2M vertices and leave 4M edges, and A
    # (n + 4 vertices) becomes complete to C (M vertices).
    _check_size(
        f"reduction of a graph on {g.n} vertices and {g.m} edges",
        13 * g.n + 3 * g.m + 22,
        (g.n + 8) * (g.m + 4 * g.n + 6),
    )
    verts = list(g.vertices)
    base = (verts[-1] + 1) if verts else 0
    doms = [base, base + 1, base + 2, base + 3]
    edges = list(g.edges())
    for i, d in enumerate(doms):
        edges.extend((d, v) for v in verts)
        edges.extend((d, doms[j]) for j in range(i + 1, len(doms)))
    stage_a = Graph(verts + doms, edges)
    if stage_a.n > 4 and min(stage_a.degree(v) for v in stage_a.vertices) < 3:
        raise AssertionError("dominating vertices failed to lift the minimum degree")
    a_part = frozenset(stage_a.vertices)
    once = subdivide(stage_a, 1)
    c_part = frozenset(set(once.vertices) - a_part)
    twice = subdivide(once, 1)
    b_part = frozenset(set(twice.vertices) - a_part - c_part)
    result = bipartite_complement(twice, a_part, c_part)
    return PartitionedGraph(result, {"A": a_part, "B": b_part, "C": c_part})


def verify_gi_profile(pg: PartitionedGraph) -> StructureReport:
    """Degree profile and recovery predicates of the reduction output:
    B vertices have degree exactly 2 with adjacent endpoints, A and C
    vertices have degree at least 3, and the parts are recoverable (A is
    exactly the set of vertices with at least three degree-2 neighbours)."""
    g = pg.graph
    a_part, b_part, c_part = pg.parts["A"], pg.parts["B"], pg.parts["C"]
    failures: list[str] = []
    for u in sorted(a_part):
        if g.degree(u) < 3:
            failures.append(f"A vertex {u} has degree {g.degree(u)} < 3")
    for u in sorted(c_part):
        if g.degree(u) < 3:
            failures.append(f"C vertex {u} has degree {g.degree(u)} < 3")
    for u in sorted(b_part):
        if g.degree(u) != 2:
            failures.append(f"B vertex {u} has degree {g.degree(u)} != 2")
            continue
        x, y = sorted(g.neighbors(u))
        if not g.has_edge(x, y):
            failures.append(f"B vertex {u} joins non-adjacent endpoints {x},{y}")
    degree_two = {v for v in g.vertices if g.degree(v) == 2}
    if degree_two != b_part:
        failures.append("degree-2 recovery does not single out part B")
    recovered_a = {
        v for v in g.vertices if len(g.neighbors(v) & degree_two) >= 3
    }
    if recovered_a != a_part:
        failures.append("three-degree-2-neighbours recovery does not single out part A")
    return StructureReport(failures)


# ---------------------------------------------------------------------------
# Serialization: edge-list body plus a PART trailer.
# ---------------------------------------------------------------------------

def to_partitioned_text(pg: PartitionedGraph) -> str:
    idx = {v: i for i, v in enumerate(pg.graph.vertices)}
    body = to_edge_list_text(pg.graph)
    lines = [body.rstrip("\n")]
    for name in sorted(pg.parts):
        ids = " ".join(str(idx[v]) for v in sorted(pg.parts[name]))
        lines.append(f"PART {name}: {ids}".rstrip())
    return "\n".join(lines) + "\n"
