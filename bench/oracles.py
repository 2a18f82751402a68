"""Independent oracles for the benchmark.

Nothing here calls the package's checkers.  Graphs are plain
``(vertices, edges)`` data or networkx graphs, every named pattern is built
by hand, and k-expressions are parsed and evaluated by this module's own
code.  A check returns a list of failure strings; an empty list means the
output was accepted.

networkx is imported lazily, so that a run can read its peak memory before
the oracles load it.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

# ---------------------------------------------------------------------------
# Hand-built patterns.  Vertex numbering follows the named-graph grammar:
# ids 0..n-1, components in term order, a path numbered along the path, a
# star's centre first.  Keys are the printed spec texts the package uses in
# its witnesses ("diamond" prints as co(2P1+P2)).
# ---------------------------------------------------------------------------

PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "co(2P1+P2)": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
    "3P1+P2": (5, ((3, 4),)),
    "2P1+P3": (5, ((2, 3), (3, 4))),
    "P2+P3": (5, ((0, 1), (2, 3), (3, 4))),
    "2P1+P2": (4, ((2, 3),)),
    "P2+P4": (6, ((0, 1), (2, 3), (3, 4), (4, 5))),
    "2P2+P4": (8, ((0, 1), (2, 3), (4, 5), (5, 6), (6, 7))),
    "K3": (3, ((0, 1), (0, 2), (1, 2))),
    "K1,3+P2": (6, ((0, 1), (0, 2), (0, 3), (4, 5))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
}
DIAMOND = "co(2P1+P2)"

# The forbidden pair of each certifier's class, as printed specs.
CLASS_FORBIDDEN = {
    "3P1+P2": (DIAMOND, "3P1+P2"),
    "2P1+P3": (DIAMOND, "2P1+P3"),
    "P2+P3": (DIAMOND, "P2+P3"),
}

# H graphs whose H-free bipartite graphs have bounded clique-width (each is
# an induced subgraph of K1,3+3P1 or K1,3+P2), as leaves may name them.
BOUNDED_BIPARTITE_H = ("2P1+P2", "2P1+P3", "P2+P3")

# Justifications the certifiers write on vertex deletions.
KNOWN_JUSTIFICATIONS = frozenset(
    {
        "cover-clique-below-size-threshold",
        "cross-complete-vertices",
        "common-neighbours-of-nonconsecutive-cycle-pair",
        "cycle-vertices",
        "clique-independent-separators",
        "clique-vertices-with-outside-neighbours",
        "consecutive-pair-common-neighbours",
        "single-cycle-neighbour-vertices",
        "small-class",
        "opposite-pendant-pair",
        "shared-attachment-hub",
        "cross-attached-pendants",
    }
)


def adjacency(vertices, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Plain-Python induced-subgraph search (used to make inputs).
# ---------------------------------------------------------------------------

def _masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def has_induced(n: int, edges, spec: str) -> bool:
    """True iff the graph on 0..n-1 contains the named pattern induced."""
    k, pedges = PATTERNS[spec]
    if k > n:
        return False
    hm = _masks(n, edges)
    pm = _masks(k, pedges)
    full = (1 << n) - 1
    assign = [0] * k

    def rec(i: int, used: int) -> bool:
        if i == k:
            return True
        cand = full & ~used
        for j in range(i):
            if pm[i] >> j & 1:
                cand &= hm[assign[j]]
            else:
                cand &= ~hm[assign[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            assign[i] = low.bit_length() - 1
            if rec(i + 1, used | low):
                return True
        return False

    return rec(0, 0)


def is_member(n: int, edges, forbidden: tuple[str, ...]) -> bool:
    return not any(has_induced(n, edges, spec) for spec in forbidden)


# ---------------------------------------------------------------------------
# networkx helpers.
# ---------------------------------------------------------------------------

def nx_graph(vertices, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return g


def nx_pattern(spec: str):
    k, pedges = PATTERNS[spec]
    return nx_graph(range(k), pedges)


def nx_contains(g, spec: str) -> bool:
    """Node-induced containment, decided with networkx.

    A triangle is found by ``networkx.triangles``.  A diamond exists exactly
    when some edge has two non-adjacent common neighbours.  Any other
    pattern goes to the VF2 matcher; a disconnected one is matched as its
    complement in the host's complement (the same question), where VF2
    prunes far better.
    """
    import networkx as nx
    from networkx.algorithms import isomorphism

    if spec == "K3":
        return any(nx.triangles(g).values())
    if spec == DIAMOND:
        for u, v in g.edges():
            common = list(nx.common_neighbors(g, u, v))
            if any(not g.has_edge(a, b) for a, b in itertools.combinations(common, 2)):
                return True
        return False
    pattern = nx_pattern(spec)
    if pattern.number_of_nodes() > g.number_of_nodes():
        return False
    if not nx.is_connected(pattern):
        g, pattern = nx.complement(g), nx.complement(pattern)
    return isomorphism.GraphMatcher(g, pattern).subgraph_is_isomorphic()


def check_embedding(adj: dict[int, set[int]], spec: str, mapping: dict[int, int]) -> list[str]:
    """``mapping`` must be an injective induced embedding of the pattern."""
    k, pedges = PATTERNS[spec]
    if sorted(mapping) != list(range(k)):
        return [f"{spec}: embedding domain {sorted(mapping)} is not 0..{k - 1}"]
    images = list(mapping.values())
    if len(set(images)) != k:
        return [f"{spec}: embedding is not injective"]
    if any(h not in adj for h in images):
        return [f"{spec}: embedding leaves the host"]
    pset = {edge_key(u, v) for u, v in pedges}
    for a, b in itertools.combinations(range(k), 2):
        if ((a, b) in pset) != (mapping[b] in adj[mapping[a]]):
            return [f"{spec}: pair ({a},{b}) is not induced"]
    return []


def check_isomorphism_map(adj_g, adj_h, mapping: dict[int, int]) -> list[str]:
    """``mapping`` must be a bijection from g's vertices onto h's that
    preserves adjacency and non-adjacency."""
    if sorted(mapping) != sorted(adj_g) or sorted(mapping.values()) != sorted(adj_h):
        return ["isomorphism map is not a bijection between the vertex sets"]
    for u in adj_g:
        image = {mapping[w] for w in adj_g[u]}
        if image != adj_h[mapping[u]]:
            return [f"isomorphism map breaks the neighbourhood of {u}"]
    return []


# ---------------------------------------------------------------------------
# Modules and primality (plain Python).
# ---------------------------------------------------------------------------

def module_closure(adj: dict[int, set[int]], seed: set[int]) -> set[int]:
    """Least module containing ``seed``."""
    mod = set(seed)
    changed = True
    while changed:
        changed = False
        for x in list(adj):
            if x in mod:
                continue
            seen = adj[x] & mod
            if seen and seen != mod:
                mod.add(x)
                changed = True
    return mod


def reachable(adj: dict[int, set[int]], start: int) -> set[int]:
    """Vertices reachable from ``start``."""
    seen = {start}
    todo = [start]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return seen


def is_prime(adj: dict[int, set[int]]) -> bool:
    """No module other than the trivial ones (needs at least 3 vertices)."""
    verts = list(adj)
    if len(verts) < 3:
        return False
    return all(
        len(module_closure(adj, {u, v})) == len(verts)
        for u, v in itertools.combinations(verts, 2)
    )


# ---------------------------------------------------------------------------
# k-expressions: own parser and evaluator for the printed text form
#   v<l> | (<e> | <e>) | j(<i>,<j>,<e>) | r(<i>-><j>,<e>)
# ---------------------------------------------------------------------------

def parse_kexpr(text: str):
    """Parse into nested tuples: ("v", l), ("u", a, b), ("j", i, j, e),
    ("r", i, j, e).  Raises ValueError on malformed text."""
    pos = 0

    def skip() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(tok: str) -> None:
        nonlocal pos
        skip()
        if not text.startswith(tok, pos):
            raise ValueError(f"expected {tok!r} at {pos}")
        pos += len(tok)

    def number() -> int:
        nonlocal pos
        skip()
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"expected a label at {start}")
        return int(text[start:pos])

    def expr():
        nonlocal pos
        skip()
        ch = text[pos : pos + 1]
        if ch == "v":
            pos += 1
            return ("v", number())
        if ch == "(":
            pos += 1
            left = expr()
            expect("|")
            right = expr()
            expect(")")
            return ("u", left, right)
        if ch in ("j", "r"):
            pos += 1
            expect("(")
            i = number()
            expect("," if ch == "j" else "->")
            j = number()
            expect(",")
            child = expr()
            expect(")")
            return (ch, i, j, child)
        raise ValueError(f"unexpected {ch!r} at {pos}")

    tree = expr()
    skip()
    if pos != len(text):
        raise ValueError("trailing text after the expression")
    return tree


def eval_kexpr(tree) -> tuple[int, set[tuple[int, int]], set[int]]:
    """(vertex count, edge set, labels used) of an expression tree."""
    labels_used: set[int] = set()
    edges: set[tuple[int, int]] = set()
    count = 0

    def rec(node) -> dict[int, int]:
        nonlocal count
        tag = node[0]
        if tag == "v":
            labels_used.add(node[1])
            count += 1
            return {count - 1: node[1]}
        if tag == "u":
            left = rec(node[1])
            left.update(rec(node[2]))
            return left
        _, i, j, child = node
        labels_used.update((i, j))
        lab = rec(child)
        if tag == "r":
            return {v: (j if l == i else l) for v, l in lab.items()}
        if i == j:
            raise ValueError("join of a label with itself")
        side_i = [v for v, l in lab.items() if l == i]
        side_j = [v for v, l in lab.items() if l == j]
        edges.update(edge_key(a, b) for a in side_i for b in side_j)
        return lab

    rec(tree)
    return count, edges, labels_used


def drop_join(tree, index: int):
    """The tree with its ``index``-th join (pre-order) replaced by its child."""
    counter = [0]

    def rec(node):
        tag = node[0]
        if tag == "v":
            return node
        if tag == "u":
            return ("u", rec(node[1]), rec(node[2]))
        if tag == "j":
            here = counter[0]
            counter[0] += 1
            if here == index:
                return rec(node[3])
        return (tag, node[1], node[2], rec(node[3]))

    return rec(tree)


def count_joins(tree) -> int:
    if tree[0] == "v":
        return 0
    if tree[0] == "u":
        return count_joins(tree[1]) + count_joins(tree[2])
    return (tree[0] == "j") + count_joins(tree[3])


def print_kexpr(tree) -> str:
    tag = tree[0]
    if tag == "v":
        return f"v{tree[1]}"
    if tag == "u":
        return f"({print_kexpr(tree[1])} | {print_kexpr(tree[2])})"
    if tag == "j":
        return f"j({tree[1]},{tree[2]},{print_kexpr(tree[3])})"
    return f"r({tree[1]}->{tree[2]},{print_kexpr(tree[3])})"


# ---------------------------------------------------------------------------
# Naive clique-width for at most six vertices.  States are (partition of a
# vertex subset into label classes, edges built so far); closure under
# join and rename, and disjoint union with any fusion of label classes.
# The only pruning is legality: a join may not add a non-edge.
# ---------------------------------------------------------------------------

NAIVE_LIMIT = 6


def _canonical(n: int, edges) -> tuple[int, tuple[tuple[int, int], ...]]:
    eset = {edge_key(u, v) for u, v in edges}
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(edge_key(perm[u], perm[v]) for u, v in eset))
        if best is None or key < best:
            best = key
    return n, best or ()


def naive_clique_width(n: int, edges) -> int:
    """Least k with a k-expression for the graph on 0..n-1 (n <= 6)."""
    if n > NAIVE_LIMIT:
        raise ValueError(f"naive oracle limited to {NAIVE_LIMIT} vertices")
    return _naive_cached(*_canonical(n, edges))


@lru_cache(maxsize=None)
def _naive_cached(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    if n == 0:
        return 0
    target = frozenset(edges)
    k = 1
    while not _buildable(n, target, k):
        k += 1
    return k


def _buildable(n: int, target: frozenset, k: int) -> bool:
    def cross(a: int, b: int) -> frozenset:
        return frozenset(
            edge_key(i, j)
            for i in range(n)
            if a >> i & 1
            for j in range(n)
            if b >> j & 1
        )

    def close(states: set) -> set:
        todo = list(states)
        while todo:
            part, built = todo.pop()
            for x, y in itertools.combinations(range(len(part)), 2):
                pairs = cross(part[x], part[y])
                if pairs <= target and not pairs <= built:
                    st = (part, built | pairs)
                    if st not in states:
                        states.add(st)
                        todo.append(st)
                rest = [c for z, c in enumerate(part) if z not in (x, y)]
                st = (tuple(sorted(rest + [part[x] | part[y]])), built)
                if st not in states:
                    states.add(st)
                    todo.append(st)
        return states

    def fusions(p1: tuple, p2: tuple):
        # Every partial matching between the classes of p1 and of p2.
        def rec(j: int, free1: tuple, acc: list):
            if j == len(p2):
                yield acc + list(free1)
                return
            yield from rec(j + 1, free1, acc + [p2[j]])
            for x, c in enumerate(free1):
                yield from rec(j + 1, free1[:x] + free1[x + 1 :], acc + [c | p2[j]])

        yield from rec(0, p1, [])

    reach: dict[int, set] = {}
    full = (1 << n) - 1
    for s in sorted(range(1, full + 1), key=lambda s: (bin(s).count("1"), s)):
        states: set = set()
        if s & (s - 1) == 0:
            states.add(((s,), frozenset()))
        low = s & -s
        sub = (s - 1) & s
        while sub:
            if sub & low:
                for p1, e1 in reach[sub]:
                    for p2, e2 in reach[s ^ sub]:
                        for classes in fusions(p1, p2):
                            if len(classes) <= k:
                                states.add((tuple(sorted(classes)), e1 | e2))
            sub = (sub - 1) & s
        reach[s] = close(states)
    return any(built == target for _, built in reach[full])


def is_p4_free(n: int, edges) -> bool:
    return not has_induced(n, edges, "P4")


# ---------------------------------------------------------------------------
# Solver outputs.
# ---------------------------------------------------------------------------

def check_expression(n: int, edges, k: int, text: str) -> list[str]:
    """The printed expression must use at most k labels and evaluate to a
    graph networkx finds isomorphic to the input."""
    import networkx as nx

    try:
        count, built, labels = eval_kexpr(parse_kexpr(text))
    except ValueError as exc:
        return [f"expression rejected: {exc}"]
    if len(labels) > k:
        return [f"expression uses {len(labels)} labels, width claimed {k}"]
    if not nx.is_isomorphic(nx_graph(range(n), edges), nx_graph(range(count), built)):
        return ["expression does not evaluate to the input graph"]
    return []


def known_width(item: dict) -> int | None:
    """The exact clique-width where a family fact or the max rule over small
    pieces gives it, else None.

    Facts used: an edgeless graph has width 1, a cograph with an edge 2, a
    path on at least 4 vertices 3, C5 and C6 3, a longer cycle 4; a disjoint
    union and a module substitution take the maximum over their parts.
    """
    family = item.get("family")
    if family == "cograph":
        return 2 if item["edges"] else 1
    if family == "path":
        return 3
    if family == "cycle":
        return 4 if item["n"] >= 7 else 3
    pieces = item.get("pieces")
    if not pieces:
        return None
    widths = [naive_clique_width(pn, pe) for pn, pe in pieces]
    if family and family.startswith("cycle"):
        widths.append(4 if int(family[5:]) >= 7 else 3)
    return max(widths)


def check_width(item: dict, k: int) -> list[str]:
    """Lower-bound facts that hold for every graph, then the known width."""
    n, edges = item["n"], item["edges"]
    fails = []
    if (k == 1) != (not edges):
        fails.append(f"width {k} but the graph has {len(edges)} edges")
    if (k <= 2) != is_p4_free(n, edges):
        fails.append(f"width {k} disagrees with P4-freeness")
    expected = known_width(item)
    if expected is not None and k != expected:
        fails.append(f"width {k}, expected {expected}")
    return fails


# ---------------------------------------------------------------------------
# Certificates: replay of the JSON form ("v1") with networkx.
# ---------------------------------------------------------------------------

def replay_certificate(vertices, edges, text: str) -> tuple[list[str], dict]:
    """Replay every step from the root graph and re-check every leaf's
    class.  Returns (failures, summary of leaves, justifications, nodes)."""
    import json

    import networkx as nx

    summary = {"leaves": [], "justifications": [], "nodes": 0}
    fails: list[str] = []
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return [f"certificate is not JSON: {exc}"], summary
    if obj.get("version") != "v1":
        return ["certificate version is not v1"], summary
    g = nx_graph(vertices, edges)
    root = obj.get("root", {})
    if root.get("n") != g.number_of_nodes() or root.get("m") != g.number_of_edges():
        return ["root n/m do not match the graph"], summary

    def ids(node: dict, key: str, g) -> list[int] | None:
        vs = node.get(key)
        if not isinstance(vs, list) or len(set(vs)) != len(vs):
            fails.append(f"{key} is not a list of distinct vertices")
            return None
        if any(v not in g for v in vs):
            fails.append(f"{key} names vertices absent from the graph")
            return None
        return vs

    def leaf(g, node: dict) -> None:
        kind = node["base"]
        summary["leaves"].append(kind if kind != "bipartite_h_free" else f"{kind}:{node.get('h')}")
        if kind == "disjoint_cliques":
            for comp in nx.connected_components(g):
                c = len(comp)
                if g.subgraph(comp).number_of_edges() != c * (c - 1) // 2:
                    fails.append("disjoint_cliques leaf has a non-clique component")
                    return
        elif kind == "max_degree_2":
            if any(d > 2 for _, d in g.degree()):
                fails.append("max_degree_2 leaf has a vertex of degree above 2")
        elif kind == "forest":
            if g.number_of_nodes() and not nx.is_forest(g):
                fails.append("forest leaf has a cycle")
        elif kind == "bipartite_h_free":
            h = node.get("h")
            if h not in BOUNDED_BIPARTITE_H:
                fails.append(f"bipartite leaf names {h!r}, not a bounded H")
            elif not nx.is_bipartite(g):
                fails.append("bipartite leaf is not bipartite")
            elif nx_contains(g, h):
                fails.append(f"bipartite leaf contains {h}")
        elif kind == "chordal_diamond_free":
            if g.number_of_nodes() and not nx.is_chordal(g):
                fails.append("chordal leaf is not chordal")
            elif nx_contains(g, DIAMOND):
                fails.append("chordal leaf contains a diamond")
        elif kind == "k3_k13p2_free":
            if nx_contains(g, "K3") or nx_contains(g, "K1,3+P2"):
                fails.append("k3_k13p2_free leaf contains K3 or K1,3+P2")
        elif kind == "explicit_expression":
            try:
                count, built, _ = eval_kexpr(parse_kexpr(node.get("expression") or ""))
            except ValueError as exc:
                fails.append(f"explicit leaf expression rejected: {exc}")
                return
            if not nx.is_isomorphic(g, nx_graph(range(count), built)):
                fails.append("explicit leaf expression does not build the leaf graph")
        else:
            fails.append(f"unknown leaf kind {kind!r}")

    def step(g, node: dict) -> None:
        summary["nodes"] += 1
        if "base" in node:
            leaf(g, node)
            return
        op = node.get("op")
        children = node.get("children")
        if not isinstance(children, list) or not children:
            fails.append(f"{op}: children is not a non-empty list")
            return
        if op != "split_components" and len(children) != 1:
            fails.append(f"{op}: expected one child")
            return
        g = g.copy()
        if op == "delete_vertices":
            vs = ids(node, "vertices", g)
            if vs is None:
                return
            just, bound = node.get("justification"), node.get("stated_bound")
            summary["justifications"].append(just)
            if just not in KNOWN_JUSTIFICATIONS:
                fails.append(f"unknown justification {just!r}")
                return
            if not isinstance(bound, int) or len(vs) > bound:
                fails.append(f"deletes {len(vs)} vertices over stated bound {bound!r}")
                return
            g.remove_nodes_from(vs)
        elif op == "subgraph_complement":
            vs = ids(node, "vertices", g)
            if vs is None:
                return
            _flip(g, [(a, b) for a, b in itertools.combinations(vs, 2)])
        elif op == "bipartite_complement":
            xs, ys = ids(node, "x", g), ids(node, "y", g)
            if xs is None or ys is None:
                return
            if set(xs) & set(ys):
                fails.append("bipartite complement sides overlap")
                return
            _flip(g, [(a, b) for a in xs for b in ys])
        elif op == "prune_degree_one":
            while True:
                drop = [v for v, d in g.degree() if d == 1]
                if not drop:
                    break
                g.remove_nodes_from(drop)
        elif op == "split_components":
            parts = node.get("parts")
            if not isinstance(parts, list) or len(parts) != len(children):
                fails.append("split parts do not match children")
                return
            flat = [v for part in parts for v in part]
            if sorted(flat) != sorted(g.nodes) or len(set(flat)) != len(flat):
                fails.append("split parts do not partition the graph")
                return
            where = {v: i for i, part in enumerate(parts) for v in part}
            if any(where[a] != where[b] for a, b in g.edges()):
                fails.append("an edge crosses the split")
                return
            for part, child in zip(parts, children):
                step(g.subgraph(part).copy(), child)
            return
        else:
            fails.append(f"unknown step {op!r}")
            return
        step(g, children[0])

    step(g, obj.get("step", {}))
    return fails, summary


def _flip(g, pairs) -> None:
    for a, b in pairs:
        if g.has_edge(a, b):
            g.remove_edge(a, b)
        else:
            g.add_edge(a, b)


# ---------------------------------------------------------------------------
# The complemented wall and the GI reduction, from their definitions.
# ---------------------------------------------------------------------------

def wall_counts(h: int) -> tuple[int, int]:
    """(|V|, |E|) of the height-h wall: a (2h+2) x (h+1) grid of vertices
    less two corners; rows are paths, h(h+1) rungs."""
    return (2 * h + 2) * (h + 1) - 2, (h + 1) * (2 * h + 1) - 2 + h * (h + 1)


def complemented_wall_own(h: int) -> tuple[int, list[tuple[int, int]], dict[str, set[int]]]:
    """The family member built from the definition: wall, subdivide every
    edge once (part B), complement between the wall's colour classes."""
    cols = 2 * h + 2
    drop = {(0, 0), (0, h) if h % 2 else (cols - 1, h)}
    coords = [(x, y) for y in range(h + 1) for x in range(cols) if (x, y) not in drop]
    index = {c: i for i, c in enumerate(coords)}
    wall_edges = []
    for (x, y), i in index.items():
        if (x + 1, y) in index:
            wall_edges.append((i, index[(x + 1, y)]))
        if (x, y + 1) in index and x % 2 == (y + 1) % 2:
            wall_edges.append((i, index[(x, y + 1)]))
    a_part = {i for (x, y), i in index.items() if (x + y) % 2 == 0}
    c_part = set(index.values()) - a_part
    n = len(coords)
    edges = []
    b_part = set()
    for u, v in wall_edges:
        edges += [(u, n), (v, n)]
        b_part.add(n)
        n += 1
    edges += [(a, c) for a in a_part for c in c_part]
    return n, edges, {"A": a_part, "B": b_part, "C": c_part}


def check_three_parts(adj: dict[int, set[int]], parts: dict[str, set[int]]) -> list[str]:
    """Facts shared by both constructions: A, B, C partition the vertices
    and are independent, A is complete to C, and every B vertex has exactly
    one neighbour in A and one in C."""
    a_part, b_part, c_part = parts["A"], parts["B"], parts["C"]
    if a_part | b_part | c_part != set(adj) or len(a_part) + len(b_part) + len(c_part) != len(adj):
        return ["parts do not partition the vertices"]
    for name, part in parts.items():
        if any(adj[v] & part for v in part):
            return [f"part {name} is not independent"]
    if any(adj[a] & c_part != c_part for a in a_part):
        return ["A is not complete to C"]
    for b in b_part:
        if len(adj[b]) != 2 or len(adj[b] & a_part) != 1 or len(adj[b] & c_part) != 1:
            return [f"B vertex {b} lacks one neighbour in each of A and C"]
    return []


def check_complemented_wall(h: int, vertices, edges, parts: dict[str, set[int]]) -> list[str]:
    n = len(vertices)
    v_count, e_count = wall_counts(h)
    if n != v_count + e_count:
        return [f"n = {n}, expected |V| + |E| = {v_count + e_count}"]
    if len(edges) != 2 * e_count + (v_count // 2) ** 2:
        return [f"m = {len(edges)}, expected 2|E| + |A||C| = {2 * e_count + (v_count // 2) ** 2}"]
    if [len(parts[p]) for p in "ABC"] != [v_count // 2, e_count, v_count // 2]:
        return ["part sizes differ from |A| = |C| = |V|/2, |B| = |E|"]
    adj = adjacency(vertices, edges)
    fails = check_three_parts(adj, parts)
    if fails:
        return fails
    seen = set()
    for b in parts["B"]:
        key = frozenset(adj[b])
        if key in seen:
            return ["two B vertices share a neighbourhood"]
        seen.add(key)
    return []


def gi_counts(n: int, m: int) -> tuple[int, int, int, int]:
    """(|A|, |C|, n, m) of the GI reduction of a graph with n vertices and
    m edges: four dominating vertices, two subdivisions, then the A-C
    complement."""
    a_size = n + 4
    c_size = m + 4 * n + 6
    return a_size, c_size, a_size + 3 * c_size, 4 * c_size + a_size * c_size


def check_gi_output(n: int, edges, out_vertices, out_edges, parts: dict[str, set[int]]) -> list[str]:
    """Closed forms, the three-part facts, and recovery of the input plus
    four dominating vertices from the C vertices' two B paths."""
    import networkx as nx

    a_size, c_size, want_n, want_m = gi_counts(n, len(edges))
    if (len(out_vertices), len(out_edges)) != (want_n, want_m):
        return [f"n, m = {len(out_vertices)}, {len(out_edges)}, expected {want_n}, {want_m}"]
    if [len(parts[p]) for p in "ABC"] != [a_size, 2 * c_size, c_size]:
        return ["part sizes differ from the closed forms"]
    adj = adjacency(out_vertices, out_edges)
    fails = check_three_parts(adj, parts)
    if fails:
        return fails
    recovered = nx.Graph()
    recovered.add_nodes_from(parts["A"])
    for c in parts["C"]:
        ends = [next(iter(adj[b] & parts["A"])) for b in adj[c] & parts["B"]]
        if len(ends) != 2 or ends[0] == ends[1]:
            return [f"C vertex {c} does not subdivide an edge of two A vertices"]
        recovered.add_edge(*ends)
    expected = nx_graph(range(n + 4), list(edges))
    for i in range(4):
        expected.add_edges_from((n + i, v) for v in range(n + 4) if v != n + i)
    if not nx.is_isomorphic(recovered, expected):
        return ["recovered graph is not the input plus four dominating vertices"]
    return []


def first_step(node: dict, op: str) -> dict | None:
    """The first node of the given op, in pre-order, of a certificate step."""
    if node.get("op") == op:
        return node
    for child in node.get("children", []):
        found = first_step(child, op)
        if found is not None:
            return found
    return None


def corrupt_first_deletion(text: str, absent_vertex: int) -> str | None:
    """The certificate with the first deleted vertex changed to one the
    graph does not have, or None when nothing is deleted."""
    import json

    obj = json.loads(text)
    node = first_step(obj["step"], "delete_vertices")
    if node is None:
        return None
    node["vertices"][0] = absent_vertex
    return json.dumps(obj)


def count_cert_nodes(text: str) -> int:
    """Steps and leaves in a certificate's JSON form."""
    import json

    def walk(node: dict) -> int:
        return 1 + sum(walk(c) for c in node.get("children", []))

    return walk(json.loads(text)["step"])
