"""Induced-subgraph and isomorphism engines.

Both engines are deterministic for fixed inputs.  The induced-subgraph
search returns the lexicographically least embedding (image sequence over
pattern vertices in id order).  Isomorphism is individualise-and-refine on
one partition of the vertices of both graphs, refined from a queue of
splitter cells (McKay & Piperno, *Practical graph isomorphism II*, 2014);
it returns the first embedding found by its fixed search order.
``colour_refinement`` recolours a whole graph per round and serves
``fingerprint`` alone, whose colour ids are hashed into certificate roots.
"""
from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass

from .graphs import Graph, bit_adjacency
from .namedgraphs import NamedGraphSpec, parse_spec, print_spec, realize


@dataclass(frozen=True)
class Embedding:
    """An injective map from pattern vertices to host vertices."""

    mapping: tuple[tuple[int, int], ...]  # (pattern vertex, host vertex), sorted

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    def image(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.mapping)

    def validate(self, host: Graph, pattern: Graph) -> bool:
        """Re-check injectivity and the induced condition from scratch."""
        m = self.as_dict()
        if sorted(m) != list(pattern.vertices):
            return False
        if len(set(m.values())) != len(m):
            return False
        if any(not host.has_vertex(v) for v in m.values()):
            return False
        pv = pattern.vertices
        for i, u in enumerate(pv):
            for w in pv[i + 1 :]:
                if pattern.has_edge(u, w) != host.has_edge(m[u], m[w]):
                    return False
        return True


@dataclass(frozen=True)
class FreenessWitness:
    """Witness that a host contains a forbidden induced subgraph."""

    spec_text: str
    embedding: Embedding


def _search_order(pattern: Graph) -> list[int]:
    """Connectivity-aware static order: big components first, BFS from the
    highest-degree vertex inside each.  Used for fast absence proofs."""
    comps: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v)):
        if start in seen:
            continue
        order = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in sorted(pattern.neighbors(u), key=lambda x: (-pattern.degree(x), x)):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        comps.append(order)
    comps.sort(key=lambda c: (-len(c), c))
    return [v for comp in comps for v in comp]


def _backtrack(host: Graph, pattern: Graph, order: list[int]) -> dict[int, int] | None:
    hv, _, hmask = bit_adjacency(host)
    pv = list(pattern.vertices)
    p_idx = {v: i for i, v in enumerate(pv)}
    nh = len(hv)
    full = (1 << nh) - 1

    # Degree-compatible starting domains.
    h_deg = [bin(mk).count("1") for mk in hmask]
    domains = []
    for u in pv:
        du = pattern.degree(u)
        dom = 0
        for i in range(nh):
            if h_deg[i] >= du:
                dom |= 1 << i
        domains.append(dom)

    pos_of = {u: k for k, u in enumerate(order)}
    adj_in_pattern = [
        [p_idx[w] for w in pattern.neighbors(u)] for u in pv
    ]

    assignment: list[int] = [-1] * len(pv)

    def rec(k: int, doms: list[int], used: int) -> bool:
        if k == len(order):
            return True
        u = order[k]
        ui = p_idx[u]
        cand = doms[ui] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            hi = low.bit_length() - 1
            assignment[ui] = hi
            new_doms = list(doms)
            ok = True
            for w_idx in range(len(pv)):
                if assignment[w_idx] != -1 or w_idx == ui:
                    continue
                if w_idx in adj_in_pattern[ui]:
                    new_doms[w_idx] &= hmask[hi]
                else:
                    new_doms[w_idx] &= full & ~hmask[hi]
                new_doms[w_idx] &= ~low
                if new_doms[w_idx] == 0:
                    ok = False
                    break
            if ok and rec(k + 1, new_doms, used | low):
                return True
            assignment[ui] = -1
        return False

    if any(d == 0 for d in domains):
        return None
    if rec(0, domains, 0):
        return {pv[i]: hv[assignment[i]] for i in range(len(pv))}
    return None


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """Find an induced copy of ``pattern`` in ``host``.

    Presence is decided with a connectivity-aware order; when a copy exists a
    second pass in plain id order recovers the lexicographically least
    embedding.
    """
    if pattern.n == 0:
        return Embedding(())
    if pattern.n > host.n or pattern.m > host.m:
        return None
    # An induced copy also needs enough non-edges.
    co_p = pattern.n * (pattern.n - 1) // 2 - pattern.m
    co_h = host.n * (host.n - 1) // 2 - host.m
    if co_p > co_h:
        return None
    found = _backtrack(host, pattern, _search_order(pattern))
    if found is None:
        return None
    lex = _backtrack(host, pattern, list(pattern.vertices))
    assert lex is not None
    emb = Embedding(tuple(sorted(lex.items())))
    assert emb.validate(host, pattern)
    return emb


def is_free(
    host: Graph, specs: list[NamedGraphSpec | str]
) -> tuple[bool, FreenessWitness | None]:
    """True iff none of the named graphs occurs induced; else a witness."""
    for spec in specs:
        parsed = spec if isinstance(spec, NamedGraphSpec) else parse_spec(spec)
        pattern = realize(parsed)
        emb = contains_induced(host, pattern)
        if emb is not None:
            return False, FreenessWitness(print_spec(parsed), emb)
    return True, None


# ---------------------------------------------------------------------------
# Colour refinement, isomorphism and fingerprints.
# ---------------------------------------------------------------------------

def colour_refinement(
    adj: dict[int, frozenset[int]], init: dict[int, int]
) -> dict[int, int]:
    """Iterated neighbourhood refinement; colour ids are assigned in sorted
    signature order so the result is comparable across graphs."""
    colours = dict(init)
    while True:
        sigs = {
            v: (colours[v], tuple(sorted(Counter(colours[w] for w in adj[v]).items())))
            for v in adj
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        new = {v: palette[sigs[v]] for v in adj}
        if len(set(new.values())) == len(set(colours.values())):
            return new
        colours = new


def _split(
    n: int,
    cell_of: list[int],
    cells: list[list[int] | None],
    cid: int,
    parts: list[list[int]],
    queue: deque[int],
    queued: set[int],
) -> bool:
    """Replace cell ``cid`` by ``parts``, which take the next free ids in
    order.  False if a part holds unequal numbers of g- and h-vertices."""
    cells[cid] = None
    ids = []
    for vs in parts:
        if 2 * sum(v < n for v in vs) != len(vs):
            return False
        new_id = len(cells)
        cells.append(vs)
        for v in vs:
            cell_of[v] = new_id
        ids.append(new_id)
    if cid in queued:
        queued.discard(cid)
    else:
        # The counts into the largest part follow from those into the old
        # cell and into the other parts (Hopcroft).
        ids.remove(max(ids, key=lambda i: len(cells[i])))
    queue.extend(ids)
    queued.update(ids)
    return True


def _refine(
    adj: list[list[int]],
    n: int,
    cell_of: list[int],
    cells: list[list[int] | None],
    queue: deque[int],
    queued: set[int],
) -> bool:
    """Split cells until each vertex of a cell has as many neighbours in
    every cell as the others; False once a cell is unbalanced.

    Vertices 0..n-1 belong to one graph and n..2n-1 to the other.  Every
    decision depends on cell ids and neighbour counts only, never on vertex
    ids, so an isomorphism that respects the starting partition also
    respects the result.
    """
    while queue:
        splitter = queue.popleft()
        if splitter not in queued:
            continue
        queued.discard(splitter)
        count: dict[int, int] = {}
        for v in cells[splitter]:
            for w in adj[v]:
                count[w] = count.get(w, 0) + 1
        touched: dict[int, dict[int, list[int]]] = {}
        for w, c in count.items():
            touched.setdefault(cell_of[w], {}).setdefault(c, []).append(w)
        for cid in sorted(touched):
            by_count = touched[cid]
            cell = cells[cid]
            hit = sum(len(vs) for vs in by_count.values())
            if hit < len(cell):
                by_count[0] = [v for v in cell if v not in count]
            elif len(by_count) == 1:
                continue
            parts = [by_count[c] for c in sorted(by_count)]
            if not _split(n, cell_of, cells, cid, parts, queue, queued):
                return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> Embedding | None:
    """Bijective induced embedding of ``g`` onto ``h`` if one exists.

    Individualisation-refinement backtracking on one partition of the
    vertices of both graphs.  The root is refined once; each child copies
    its parent's partition, pins the least g-vertex of the smallest cell
    that holds more than one vertex of each graph together with one
    h-vertex of that cell, and refines from the pinned pair.  A branch dies
    as soon as a cell holds unequal numbers of g- and h-vertices.
    Deterministic for fixed inputs: cells and candidates are always scanned
    in a fixed order.
    """
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return None
    n = g.n
    gv, hv = g.vertices, h.vertices
    g_index = {v: i for i, v in enumerate(gv)}
    h_index = {v: n + i for i, v in enumerate(hv)}
    adj = [[g_index[w] for w in g.neighbors(v)] for v in gv]
    adj += [[h_index[w] for w in h.neighbors(v)] for v in hv]

    cell_of, cells = [0] * (2 * n), [list(range(2 * n))]
    if not _refine(adj, n, cell_of, cells, deque([0]), {0}):
        return None
    # Depth-first search with an explicit stack, so that deep chains of
    # individualisations need no recursion.  A frame holds a refined
    # partition, its branching cell, the pinned g-vertex and the h-vertices
    # not yet tried.
    stack: list[tuple[list[int], list[list[int] | None], int, int, Iterator[int]]] = []
    while True:
        open_cells = [i for i, vs in enumerate(cells) if vs is not None and len(vs) > 2]
        if not open_cells:
            break
        cid = min(open_cells, key=lambda i: (len(cells[i]), i))
        u = min(v for v in cells[cid] if v < n)
        stack.append((cell_of, cells, cid, u, iter(sorted(v for v in cells[cid] if v >= n))))
        refined = False
        while not refined:
            if not stack:
                return None
            parent_of, parent, cid, u, candidates = stack[-1]
            w = next(candidates, None)
            if w is None:
                stack.pop()
                continue
            cell_of, cells = parent_of[:], parent[:]
            queue: deque[int] = deque()
            queued: set[int] = set()
            rest = [v for v in parent[cid] if v != u and v != w]
            _split(n, cell_of, cells, cid, [[u, w], rest], queue, queued)
            refined = _refine(adj, n, cell_of, cells, queue, queued)
    # Every cell is one g-vertex and one h-vertex.  The partition is
    # equitable, so each g-vertex has a neighbour in a cell exactly when its
    # partner has one there: the pairs form an isomorphism.
    mapping = {gv[a]: hv[b - n] for a, b in (sorted(vs) for vs in cells if vs)}
    emb = Embedding(tuple(sorted(mapping.items())))
    assert emb.validate(h, g)
    return emb


def fingerprint(g: Graph) -> tuple[int, int, str]:
    """(n, m, hash) identity for a graph.

    The hash is an iterated-refinement invariant (stable under isomorphism),
    not a complete canonical form; together with n and m it serves as the
    root fingerprint of certificates.
    """
    # Imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory
    # that a process which never fingerprints a graph need not carry.
    import hashlib

    init = {v: g.degree(v) for v in g.vertices}
    colours = colour_refinement({v: g.neighbors(v) for v in g.vertices}, init)
    hist = tuple(sorted(Counter(colours.values()).items()))
    edge_sig = tuple(
        sorted(tuple(sorted((colours[u], colours[v]))) for u, v in g.edges())
    )
    payload = repr((g.n, g.m, hist, edge_sig)).encode()
    return g.n, g.m, hashlib.sha256(payload).hexdigest()[:16]
