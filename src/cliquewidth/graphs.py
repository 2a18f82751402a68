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

from collections import deque
from collections.abc import Iterable, Iterator


class GraphError(ValueError):
    """Raised for invalid graph constructions or vertex references."""


class SizeLimitError(ValueError):
    """Raised when an exact routine is asked to exceed its size limit."""


# Most vertices that a graph read from input or built by a construction may
# have, and most edges that a construction may build, both checked before
# anything is allocated.  It is above every input of the tests, the
# benchmark and the README; an edgeless graph of this order is read and
# searched in seconds, and a construction of this many edges is built in a
# few hundred megabytes.
VERTEX_LIMIT = 1_000_000


class Graph:
    """An immutable, simple, undirected graph.

    Equality and hashing are id-sensitive: two graphs are equal when they
    have the same vertex ids and the same edges, not merely when isomorphic.

    The ``_tables`` slot starts empty.  ``search`` fills it on a graph's
    first induced-subgraph search with the bitmask tables later searches of
    the same graph reuse; equality and hashing ignore it.
    """

    __slots__ = ("_verts", "_adj", "_m", "_tables")

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
        self._tables = None

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
        g._tables = None
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
    The rounds are peeled from a map of current degrees, in linear time.
    """
    degree = {v: len(nb) for v, nb in g._adj.items()}
    layer = [v for v, d in degree.items() if d == 1]
    drop: set[int] = set()
    while layer:
        drop.update(layer)
        touched = set()
        for v in layer:
            for w in g._adj[v] - drop:
                degree[w] -= 1
                touched.add(w)
        layer = [w for w in touched if degree[w] == 1]
    return delete_vertices(g, drop) if drop else g


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
        queue = deque([start])
        while queue:
            u = queue.popleft()
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


def _induced_p3s(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Every induced P3 ``(u, mid, v)``: a vertex ``mid`` with two
    non-adjacent neighbours ``u < v``, scanning ``mid`` in vertex order and
    then ``u`` and ``v`` in ascending order."""
    for mid in g.vertices:
        nbrs = sorted(g._adj[mid])
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1 :]:
                if v not in g._adj[u]:
                    yield u, mid, v


def find_induced_p3(g: Graph) -> tuple[int, int, int] | None:
    """The first induced P3 of :func:`_induced_p3s`.  None exactly when
    every component is a clique."""
    return next(_induced_p3s(g), None)


def find_hole(g: Graph) -> tuple[int, ...] | None:
    """Some induced cycle on >= 4 vertices, or None when ``g`` is chordal.

    For each induced P3 ``(u, mid, v)`` in scan order, a shortest u-v path
    avoiding the rest of N[mid] closes an induced cycle through ``mid``; the
    first one found is returned as ``(mid, u, ..., v)``.  The path is found
    by breadth-first search with neighbours taken in ascending order.
    """
    for u, mid, v in _induced_p3s(g):
        banned = (g._adj[mid] | {mid}) - {u, v}
        prev: dict[int, int] = {u: u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in sorted(g._adj[x]):
                if w in banned or w in prev:
                    continue
                prev[w] = x
                if w == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    return (mid, *reversed(path))
                queue.append(w)
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

# Integers in all text input are runs of ASCII digits, at most _MAX_DIGITS.
_DIGITS = frozenset("0123456789")
_MAX_DIGITS = 4300  # int() refuses longer decimal strings by default


def _is_integer(token: str) -> bool:
    return 0 < len(token) <= _MAX_DIGITS and _DIGITS.issuperset(token)


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
    if len(head) != 2 or not all(map(_is_integer, head)):
        raise GraphError(f"bad header line {lines[0]!r}")
    n, m = map(int, head)
    if n > VERTEX_LIMIT:
        raise GraphError(f"edge list declares {n} vertices, above the limit of {VERTEX_LIMIT}")
    body = lines[1:]
    trailer = next((i for i, ln in enumerate(body) if ln.startswith("PART ")), len(body))
    if trailer != m:
        raise GraphError(f"expected {m} edge lines, found {trailer}")
    edges = []
    for ln in body[:trailer]:
        ends = ln.split()
        if len(ends) != 2 or not all(map(_is_integer, ends)):
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(ends[0]), int(ends[1])))
    g = build_graph(n, edges)
    named: dict[str, frozenset[int]] = {}
    for ln in body[trailer:]:
        label, colon, ids = ln.partition(":")
        name = label[len("PART ") :].strip()
        tokens = ids.split()
        if not ln.startswith("PART ") or not colon or not name or not all(map(_is_integer, tokens)):
            raise GraphError(f"bad PART line {ln!r}")
        if name in named:
            raise GraphError(f"part {name} is given twice")
        members = [int(tok) for tok in tokens]
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
