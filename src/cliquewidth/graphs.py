"""Immutable simple graphs with stable vertex identities.

Vertex ids are arbitrary non-negative integers.  Operations that derive a new
graph never renumber surviving vertices, so reduction certificates and
witnesses can keep naming vertices across a whole chain of operations.

``Graph(vertices, edges)`` validates its input and is the way in for graphs
from outside the program.  The derived operations below work on the
adjacency sets of a graph that already passed that check and build their
result with the private ``Graph._from_adj``, which checks nothing.
"""
from __future__ import annotations

from collections.abc import Iterable


class GraphError(ValueError):
    """Raised for invalid graph constructions or vertex references."""


class Graph:
    """An immutable, simple, undirected graph.

    Equality and hashing are id-sensitive: two graphs are equal when they
    have the same vertex ids and the same edges, not merely when isomorphic.
    """

    __slots__ = ("_verts", "_adj", "_m")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        verts = tuple(sorted(set(vertices)))
        adj: dict[int, set[int]] = {v: set() for v in verts}
        for v in verts:
            if v < 0:
                raise GraphError(f"negative vertex id {v}")
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._verts = verts
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        self._m = sum(map(len, adj.values())) // 2

    @classmethod
    def _from_adj(cls, adj: dict[int, frozenset[int]]) -> Graph:
        """Wrap the adjacency map of a graph derived from a validated one.

        The map must be symmetric and loop-free over non-negative ids;
        nothing is checked.
        """
        g = object.__new__(cls)
        g._verts = tuple(sorted(adj))
        g._adj = adj
        g._m = sum(map(len, adj.values())) // 2
        return g

    @property
    def n(self) -> int:
        return len(self._verts)

    @property
    def m(self) -> int:
        return self._m

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._verts

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in self._verts:
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        return tuple(sorted(out))

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(nb) for nb in self._adj.values()), default=0)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, frozenset())

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(nb) for nb in self._adj.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._verts == other._verts and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset(self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 0..n-1, rejecting malformed edge lists."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    edges = list(edges)
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
    return Graph(range(n), edges)


def _require(g: Graph, vs: Iterable[int]) -> None:
    """Reject the first id of ``vs`` that is not a vertex of ``g``."""
    for v in vs:
        if v not in g._adj:
            raise GraphError(f"unknown vertex {v}")


def complement(g: Graph) -> Graph:
    """Complement on the same vertex ids."""
    everyone = frozenset(g._adj)
    return Graph._from_adj({v: everyone - nb - {v} for v, nb in g._adj.items()})


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; ids of ``g`` are kept, ids of ``h`` are freshened."""
    base = (g.vertices[-1] + 1) if g.n else 0
    remap = {v: base + i for i, v in enumerate(h.vertices)}
    adj = dict(g._adj)
    for v, nb in h._adj.items():
        adj[remap[v]] = frozenset(remap[w] for w in nb)
    return Graph._from_adj(adj)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Induced subgraph on ``keep``; surviving ids are preserved."""
    keep_set = set(keep)
    _require(g, keep_set)
    return Graph._from_adj({v: nb & keep_set for v, nb in g._adj.items() if v in keep_set})


def delete_vertices(g: Graph, drop: Iterable[int]) -> Graph:
    drop_set = set(drop)
    _require(g, drop_set)
    return Graph._from_adj({v: nb - drop_set for v, nb in g._adj.items() if v not in drop_set})


def subgraph_complement(g: Graph, inside: Iterable[int]) -> Graph:
    """Flip every adjacency between pairs of vertices of ``inside``."""
    s = set(inside)
    _require(g, sorted(s))
    return Graph._from_adj({v: (nb ^ s) - {v} if v in s else nb for v, nb in g._adj.items()})


def bipartite_complement(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> Graph:
    """Flip every adjacency with one end in ``xs`` and the other in ``ys``."""
    x_set, y_set = set(xs), set(ys)
    if x_set & y_set:
        raise GraphError(f"sets overlap on {sorted(x_set & y_set)}")
    _require(g, x_set | y_set)
    return Graph._from_adj(
        {v: nb ^ y_set if v in x_set else nb ^ x_set if v in y_set else nb for v, nb in g._adj.items()}
    )


def subdivide(g: Graph, times: int) -> Graph:
    """Replace every edge by a path with ``times`` fresh internal vertices.

    Fresh ids are assigned in edge-list order, so derived partitions are
    reproducible.
    """
    if times < 0:
        raise GraphError("subdivision count must be non-negative")
    if times == 0:
        return g
    nxt = (g.vertices[-1] + 1) if g.n else 0
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges():
        prev = u
        for w in range(nxt, nxt + times):
            adj[w] = {prev}
            adj[prev].add(w)
            prev = w
        nxt += times
        adj[prev].add(v)
        adj[v].add(prev)
    return Graph._from_adj({v: frozenset(nb) for v, nb in adj.items()})


def prune_degree_one(g: Graph) -> Graph:
    """Repeatedly delete all current degree-1 vertices until none remain.

    Each round removes every degree-1 vertex simultaneously; vertices of
    degree 0 are kept.  The result is the unique fixed point of this process.
    """
    cur = g
    while True:
        drop = [v for v in cur.vertices if cur.degree(v) == 1]
        if not drop:
            return cur
        cur = delete_vertices(cur, drop)


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by least contained vertex id."""
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def is_bipartite(g: Graph) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """2-colourability check; on success returns the two colour classes.

    The class containing the least vertex of each component goes left, so the
    returned bipartition is deterministic.
    """
    colour: dict[int, int] = {}
    for start in g.vertices:
        if start in colour:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in g.neighbors(u):
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False, None
    left = frozenset(v for v, c in colour.items() if c == 0)
    right = frozenset(v for v, c in colour.items() if c == 1)
    return True, (left, right)


def is_forest(g: Graph) -> bool:
    return g.m == g.n - len(components(g))


def find_cycle(g: Graph) -> list[int] | None:
    """Some cycle as a vertex list, or None in a forest (not necessarily induced)."""
    parent: dict[int, int | None] = {}
    for start in g.vertices:
        if start in parent:
            continue
        parent[start] = None
        stack = [(start, None)]
        while stack:
            u, p = stack.pop()
            for w in sorted(g.neighbors(u)):
                if w == p:
                    continue
                if w in parent:
                    # Back edge: walk both endpoints up to their meeting point.
                    path_u = [u]
                    x: int | None = u
                    while x is not None:
                        x = parent[x]
                        if x is not None:
                            path_u.append(x)
                    anc = set(path_u)
                    cyc = [w]
                    y: int | None = w
                    while y not in anc:
                        y = parent[y]
                        assert y is not None
                        cyc.append(y)
                    meet = cyc[-1]
                    cyc_u = path_u[: path_u.index(meet)]
                    return cyc + list(reversed(cyc_u))
                parent[w] = u
                stack.append((w, u))
    return None


def bit_adjacency(g: Graph) -> tuple[list[int], dict[int, int], list[int]]:
    """Vertex list, id->index map, and neighbour bitmasks (index-based)."""
    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    masks = [sum(1 << idx[w] for w in g._adj[v]) for v in verts]
    return verts, idx, masks


# ---------------------------------------------------------------------------
# Serialization: plain edge-list text and graph6.
# ---------------------------------------------------------------------------

def to_edge_list_text(g: Graph) -> str:
    """Edge-list format: first line ``n m``, then one ``u v`` line per edge.

    Vertex ids are compacted to 0..n-1 in sorted-id order on write.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted((idx[u], idx[v]) for u, v in g.edges()):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> tuple[Graph, dict[str, frozenset[int]]]:
    """Read the edge-list format plus an optional trailing block of
    ``PART name: ids`` lines; returns the graph and its named parts.

    Blank lines are ignored.  Edge ends and part ids must lie in 0..n-1.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"bad header line {lines[0]!r}") from None
    body = lines[1:]
    trailer = next((i for i, ln in enumerate(body) if ln.startswith("PART ")), len(body))
    if trailer != m:
        raise GraphError(f"expected {m} edge lines, found {trailer}")
    edges = []
    for ln in body[:trailer]:
        ends = ln.split()
        if len(ends) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(ends[0]), int(ends[1])))
    g = build_graph(n, edges)
    named: dict[str, frozenset[int]] = {}
    for ln in body[trailer:]:
        label, colon, ids = ln.partition(":")
        name = label[len("PART ") :].strip()
        if not ln.startswith("PART ") or not colon or not name:
            raise GraphError(f"bad PART line {ln!r}")
        if name in named:
            raise GraphError(f"part {name} is given twice")
        members = [int(tok) for tok in ids.split()]
        for v in members:
            if not 0 <= v < n:
                raise GraphError(f"part {name} id {v} out of range for n={n}")
        named[name] = frozenset(members)
    return g, named


def from_edge_list_text(text: str) -> Graph:
    """The graph of :func:`parse_edge_list_text`; any PART block is dropped."""
    return parse_edge_list_text(text)[0]


def to_graph6(g: Graph) -> str:
    """graph6 encoding (printable ASCII) for graphs on at most 62 vertices."""
    n = g.n
    if n > 62:
        raise GraphError("graph6 writer supports n <= 62 only")
    verts = g.vertices
    bits = [int(g.has_edge(verts[i], verts[j])) for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphError("empty graph6 input")
    n = ord(s[0]) - 63
    if not (0 <= n <= 62):
        raise GraphError("graph6 reader supports n <= 62 only")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise GraphError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return build_graph(n, edges)
