"""Induced-subgraph and isomorphism engines.

Both engines are deterministic for fixed inputs.  The induced-subgraph
search returns the lexicographically least embedding (image sequence over
pattern vertices in id order).  It works on host bitmasks and computes
candidates for the next pattern vertex only, from the images of its
earlier-placed neighbours and non-neighbours; the last component of a
disconnected pattern, when it has one or two vertices, is decided by a
bitmask test on the common non-neighbourhood of the other images and never
enumerated.  Isomorphism is individualise-and-refine on one partition of
the vertices of both graphs, refined from a queue of splitter cells and
undone from a trail (McKay & Piperno, *Practical graph isomorphism II*,
2014); it returns the first embedding found by its fixed search order.
``colour_refinement`` recolours a whole graph per round and serves
``fingerprint`` alone, whose colour ids are hashed into certificate roots.

Each engine re-checks its embedding from scratch with ``Embedding.validate``
before returning it.  That check compares, per pattern vertex, the image of
its neighbourhood with the image's part of its host neighbourhood, so it is
linear in the sizes of the two graphs.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter

from .graphs import Graph, bit_adjacency
from .namedgraphs import NamedGraphSpec, parse_spec, print_spec, realize, spec_order


@dataclass(frozen=True)
class Embedding:
    """An injective map from pattern vertices to host vertices."""

    mapping: tuple[tuple[int, int], ...]  # (pattern vertex, host vertex), sorted

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    def image(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.mapping)

    def validate(self, host: Graph, pattern: Graph) -> bool:
        """Re-check injectivity and the induced condition from scratch.

        The map is induced exactly when each pattern vertex's neighbourhood
        maps onto the part of its image's host neighbourhood that lies in
        the image, so the check is one set comparison per pattern vertex:
        linear in the sizes of the two graphs, with no test per vertex pair.
        """
        m = self.as_dict()
        if sorted(m) != list(pattern.vertices):
            return False
        image = frozenset(m.values())
        if len(image) != len(m):
            return False
        if any(not host.has_vertex(v) for v in image):
            return False
        return all(
            {m[w] for w in pattern.neighbors(u)} == host.neighbors(v) & image
            for u, v in m.items()
        )


@dataclass(frozen=True)
class FreenessWitness:
    """Witness that a host contains a forbidden induced subgraph."""

    spec_text: str
    embedding: Embedding


def _search_order(pattern: Graph) -> list[list[int]]:
    """Connectivity-aware static order: the components, big ones first, each
    in BFS order from its highest-degree vertex.  Used for fast absence
    proofs."""
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
    return comps


def _backtrack(
    hmask: list[int], pattern: Graph, order: list[int], tail: int = 0
) -> list[int] | None:
    """Host indices for ``order[:len(order) - tail]`` that extend to an
    induced copy of ``pattern``, or None if there is no copy.

    ``hmask`` holds the host's neighbour bitmasks.  Candidates are found for
    the next pattern vertex only: its degree domain, minus the used host
    vertices, ANDed with the neighbour mask of each earlier-placed
    neighbour's image and the non-neighbour mask of each earlier-placed
    non-neighbour's image.  Candidates are tried in ascending index, so the
    first copy found is the least image sequence in the given order.

    ``tail`` > 0 says that the last ``tail`` vertices of ``order`` form a
    component of one or two vertices.  The tail must then fit in ``room``,
    the unused common non-neighbourhood of the images placed so far, which
    only shrinks down the search: a branch is cut as soon as it does not
    fit, and the tail itself is never enumerated.
    """
    full = (1 << len(hmask)) - 1
    comask = [full ^ mk for mk in hmask]
    by_degree: dict[int, int] = {}
    for d in {pattern.degree(u) for u in order}:
        by_degree[d] = sum(1 << i for i, mk in enumerate(hmask) if mk.bit_count() >= d)
    if not all(by_degree.values()):
        return None
    stop = len(order) - tail
    doms = [by_degree[pattern.degree(u)] for u in order]
    # Earlier positions whose images must be adjacent / non-adjacent.
    nbrs = [[j for j in range(k) if pattern.has_edge(order[j], u)] for k, u in enumerate(order)]
    nons = [[j for j in range(k) if not pattern.has_edge(order[j], u)] for k, u in enumerate(order)]

    def fit(room: int, seen: int) -> int:
        """A placement of the tail inside ``room`` as a mask, or 0.  The
        placement ``seen`` one level up is kept while it still fits."""
        if seen and seen & room == seen:
            return seen
        if tail == 1:
            return room & -room
        # A two-vertex component is an edge: scan for a vertex of the room
        # with a higher-indexed neighbour there.
        rest = room
        while rest:
            low = rest & -rest
            rest ^= low
            nb = hmask[low.bit_length() - 1] & rest
            if nb:
                return low | (nb & -nb)
        return 0

    img = [0] * stop

    def rec(k: int, used: int, room: int, seen: int) -> bool:
        if k == stop:
            return True
        cand = doms[k] & ~used
        for j in nbrs[k]:
            cand &= hmask[img[j]]
        for j in nons[k]:
            cand &= comask[img[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            img[k] = i
            if tail:
                now = room & comask[i]
                placed = fit(now & ~(used | low), seen)
                if placed and rec(k + 1, used | low, now, placed):
                    return True
            elif rec(k + 1, used | low, 0, 0):
                return True
        return False

    return img if rec(0, 0, full, 0) else None


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """Find an induced copy of ``pattern`` in ``host``.

    Presence is decided first by ``_backtrack`` in the order of
    ``_search_order``.  When the pattern is disconnected and its last
    component there has one or two vertices, that component is not searched:
    it only has to fit among the host vertices adjacent to no image placed
    before it, which is checked by bitmask at every step.  Only when a copy
    exists does a second pass in plain id order recover the
    lexicographically least embedding (image sequence over pattern vertices
    in id order).
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
    hv, _, hmask = bit_adjacency(host)
    comps = _search_order(pattern)
    tail = len(comps[-1]) if len(comps) > 1 and len(comps[-1]) <= 2 else 0
    if _backtrack(hmask, pattern, [v for comp in comps for v in comp], tail) is None:
        return None
    order = list(pattern.vertices)
    lex = _backtrack(hmask, pattern, order)
    assert lex is not None
    emb = Embedding(tuple(zip(order, (hv[i] for i in lex))))
    assert emb.validate(host, pattern)
    return emb


def is_free(
    host: Graph, specs: list[NamedGraphSpec | str]
) -> tuple[bool, FreenessWitness | None]:
    """True iff none of the named graphs occurs induced; else a witness.

    A named graph with more vertices than the host cannot occur, and is
    skipped without being built.
    """
    for spec in specs:
        parsed = spec if isinstance(spec, NamedGraphSpec) else parse_spec(spec)
        if spec_order(parsed) > host.n:
            continue
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
    trail: list[tuple[int, int]],
) -> bool:
    """Replace cell ``cid`` by ``parts``, which take the next free ids in
    order, and record the split on ``trail``.  False, with nothing changed,
    if a part holds unequal numbers of g- and h-vertices."""
    for vs in parts:
        if 2 * sum(map(n.__gt__, vs)) != len(vs):
            return False
    trail.append((cid, len(cells)))
    cells[cid] = None
    ids = []
    for vs in parts:
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


def _undo(
    cell_of: list[int],
    cells: list[list[int] | None],
    trail: list[tuple[int, int]],
    mark: int,
) -> None:
    """Merge back every split recorded on ``trail`` after ``mark``, newest
    first.  The newest split's parts are always the last cells."""
    while len(trail) > mark:
        cid, first = trail.pop()
        merged = [v for vs in cells[first:] for v in vs]
        del cells[first:]
        for v in merged:
            cell_of[v] = cid
        cells[cid] = merged


def _refine(
    adj: list[list[int]],
    n: int,
    cell_of: list[int],
    cells: list[list[int] | None],
    queue: deque[int],
    queued: set[int],
    trail: list[tuple[int, int]],
) -> bool:
    """Split cells until each vertex of a cell has as many neighbours in
    every cell as the others; False once a cell is unbalanced.

    Vertices 0..n-1 belong to one graph and n..2n-1 to the other.  Every
    decision depends on cell ids and neighbour counts only, never on vertex
    ids or on the order of the vertices inside a cell, so an isomorphism
    that respects the starting partition also respects the result.
    """
    while queue:
        splitter = queue.popleft()
        if splitter not in queued:
            continue
        queued.discard(splitter)
        count = Counter(chain.from_iterable([adj[v] for v in cells[splitter]]))
        groups: dict[tuple[int, int], list[int]] = {}
        for w, c in count.items():
            key = (cell_of[w], c)
            vs = groups.get(key)
            if vs is None:
                groups[key] = [w]
            else:
                vs.append(w)
        # Sorted keys list each touched cell once, its counts ascending.
        for cid, keys in groupby(sorted(groups), itemgetter(0)):
            parts = [groups[key] for key in keys]
            cell = cells[cid]
            if len(parts) == 1 and len(parts[0]) == len(cell):
                continue
            if sum(map(len, parts)) < len(cell):
                parts.insert(0, [v for v in cell if v not in count])
            if not _split(n, cell_of, cells, cid, parts, queue, queued, trail):
                return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> Embedding | None:
    """Bijective induced embedding of ``g`` onto ``h`` if one exists.

    Individualisation-refinement backtracking on one partition of the
    vertices of both graphs.  The root is refined once; each child pins the
    least g-vertex of the smallest cell that holds more than one vertex of
    each graph together with one h-vertex of that cell, and refines from the
    pinned pair.  A branch dies as soon as a cell holds unequal numbers of
    g- and h-vertices.  All frames share one partition: every split is
    recorded on a trail, and a frame undoes the splits made after it before
    it tries its next candidate (McKay & Piperno 2014).  Deterministic for
    fixed inputs: cells and candidates are always scanned in a fixed order.
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
    trail: list[tuple[int, int]] = []
    if not _refine(adj, n, cell_of, cells, deque([0]), {0}, trail):
        return None
    # Depth-first search with an explicit stack, so that deep chains of
    # individualisations need no recursion.  A frame holds its branching
    # cell, the pinned g-vertex, the last h-vertex tried and the trail
    # length at which its partition was stable.  Undoing to that length
    # restores the cell, so the next candidate is its least h-vertex above
    # the last one tried: candidates come in ascending order, and a frame
    # holds no list of them.
    stack: list[tuple[int, int, int, int]] = []
    while True:
        open_cells = [i for i, vs in enumerate(cells) if vs is not None and len(vs) > 2]
        if not open_cells:
            break
        cid = min(open_cells, key=lambda i: (len(cells[i]), i))
        u = min(v for v in cells[cid] if v < n)
        stack.append((cid, u, n - 1, len(trail)))
        refined = False
        while not refined:
            if not stack:
                return None
            cid, u, last, mark = stack[-1]
            _undo(cell_of, cells, trail, mark)
            w = min((v for v in cells[cid] if v > last), default=None)
            if w is None:
                stack.pop()
                continue
            stack[-1] = (cid, u, w, mark)
            queue: deque[int] = deque()
            queued: set[int] = set()
            rest = [v for v in cells[cid] if v != u and v != w]
            _split(n, cell_of, cells, cid, [[u, w], rest], queue, queued, trail)
            refined = _refine(adj, n, cell_of, cells, queue, queued, trail)
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
