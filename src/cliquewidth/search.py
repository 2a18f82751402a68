"""Induced-subgraph and isomorphism engines.

Both engines are deterministic for fixed inputs.  The induced-subgraph
search returns the lexicographically least embedding (image sequence over
pattern vertices in id order).  It works on host bitmasks and computes
candidates for the next pattern vertex only, from the images of its
earlier-placed neighbours and non-neighbours; the last component of a
disconnected pattern, when it has one or two vertices, is decided by a
bitmask test on the common non-neighbourhood of the other images and never
enumerated.  What depends on the pattern alone (its search orders, and per
position the degree, the earlier neighbours and non-neighbours and the
earlier twin) is planned once per pattern by ``_plan``, and a host's
bitmasks are built once per graph object by ``_host_tables``, so a search
does host work only.
Twins of the pattern (equal open or closed neighbourhoods) take ascending
images, which keeps both the answer and the least witness.  When the
presence order is the id order, a hit takes one pass instead of two.
The same search finds the induced cycles of ``recognition``.  Isomorphism
is individualise-and-refine on one partition of the vertices of both
graphs, refined from a queue of splitter cells and undone from a trail
(McKay & Piperno, *Practical graph isomorphism II*, 2014); it returns the
first embedding found by its fixed search order.
``colour_refinement`` recolours a whole graph per round and serves
``fingerprint`` alone, whose colour ids are hashed into certificate roots.

Each engine re-checks its embedding from scratch with ``Embedding.validate``
before returning it, and raises ``AssertionError`` if the check fails (an
explicit raise, so ``python -O`` keeps it).  That check compares, per
pattern vertex, the image of its neighbourhood with the image's part of its
host neighbourhood, so it is linear in the sizes of the two graphs.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cache
from itertools import chain, filterfalse, groupby

from .graphs import Graph, bit_adjacency
from .namedgraphs import NamedGraphSpec, parse_spec, print_spec, realize, spec_size


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
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in sorted(pattern.neighbors(u), key=lambda x: (-pattern.degree(x), x)):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        comps.append(order)
    comps.sort(key=lambda c: (-len(c), c))
    return comps


def _walk(pattern: Graph, order: list[int], tail: int) -> tuple:
    """``_backtrack``'s arguments after the host tables for one order of the
    pattern's vertices: per position, the vertex's degree, the earlier
    positions that hold its neighbours and its non-neighbours, and the
    earlier position of the previous member of its twin class (-1 if there
    is none).  True twins have equal closed neighbourhoods and false twins
    equal open ones."""
    degrees = [pattern.degree(u) for u in order]
    nbrs = [[j for j in range(k) if pattern.has_edge(order[j], u)] for k, u in enumerate(order)]
    nons = [[j for j in range(k) if not pattern.has_edge(order[j], u)] for k, u in enumerate(order)]
    opened = [pattern.neighbors(u) for u in order]
    closed = [nb | {u} for nb, u in zip(opened, order)]
    twins = [
        max((j for j in range(k) if opened[j] == opened[k] or closed[j] == closed[k]), default=-1)
        for k in range(len(order))
    ]
    return (
        tuple(order), tail, tuple(degrees), tuple(map(tuple, nbrs)), tuple(map(tuple, nons)),
        tuple(twins),
    )


@cache
def _plan(pattern: Graph) -> tuple[tuple, tuple]:
    """The walk of ``pattern`` in the order of ``_search_order``, whose last
    component is the tail when it has one or two vertices, and its walk in
    plain id order; the same object twice when the two walks are equal.
    Built once per pattern and kept for the whole run, as
    ``namedgraphs.realize`` keeps the named graphs the package searches for."""
    comps = _search_order(pattern)
    tail = len(comps[-1]) if len(comps) > 1 and len(comps[-1]) <= 2 else 0
    presence = _walk(pattern, [v for comp in comps for v in comp], tail)
    by_id = _walk(pattern, list(pattern.vertices), 0)
    return presence, presence if by_id == presence else by_id


def _host_tables(host: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The host's neighbour bitmasks, by index in ``host.vertices``, and for
    each degree d < n the mask of the vertices of degree at least d.

    Built on the first search of a graph object and kept in its ``_tables``
    slot, which nothing else writes, so later searches of that graph (the
    next named graph of ``is_free``, the next cycle length of a certifier)
    reuse them.  A derived graph is a new object with tables of its own.
    """
    tables = host._tables
    if tables is None:
        _, _, masks = bit_adjacency(host)
        at_least = [0] * host.n
        for i, mk in enumerate(masks):
            at_least[mk.bit_count()] |= 1 << i
        for d in range(host.n - 2, -1, -1):
            at_least[d] |= at_least[d + 1]
        tables = host._tables = (tuple(masks), tuple(at_least))
    return tables


def _backtrack(
    hmask: tuple[int, ...], at_least: tuple[int, ...], order: tuple[int, ...], tail: int,
    degrees: tuple[int, ...], nbrs: tuple[tuple[int, ...], ...], nons: tuple[tuple[int, ...], ...],
    twins: tuple[int, ...],
) -> list[int] | None:
    """Host indices for ``order[:len(order) - tail]`` that extend to an
    induced copy of ``pattern``, or None if there is no copy.

    ``hmask`` and ``at_least`` are the host's tables from ``_host_tables``.
    Candidates are found for the next pattern vertex only: its degree
    domain, minus the used host vertices, ANDed with the neighbour mask of
    each earlier-placed neighbour's image and the non-neighbour mask of each
    earlier-placed non-neighbour's image.  Candidates are tried in ascending
    index, so the first copy found is the least image sequence in the given
    order.

    Twin bound: a vertex whose twin class has a member at an earlier
    position ``twins[k]`` only takes images above that member's image.
    Permuting the images inside a twin class maps an induced copy to an
    induced copy, so some copy meets the bound whenever any copy exists
    (the twin case of Grochow & Kellis's symmetry breaking, RECOMB 2007).
    The least copy in id order meets it too: swapping the images of two
    twins that are out of order gives a smaller sequence.  So the bound
    keeps both the answer and the least witness.

    ``tail`` > 0 says that the last ``tail`` vertices of ``order`` form a
    component of one or two vertices.  The tail must then fit in ``room``,
    the unused common non-neighbourhood of the images placed so far, which
    only shrinks down the search: a branch is cut as soon as it does not
    fit, and the tail itself is never enumerated.
    """
    doms = [at_least[d] for d in degrees]
    if not all(doms):
        return None
    stop = len(order) - tail

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
        t = twins[k]
        if t >= 0:
            cand &= -(2 << img[t])
        for j in nbrs[k]:
            cand &= hmask[img[j]]
        for j in nons[k]:
            cand &= ~hmask[img[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            img[k] = i
            if tail:
                now = room & ~hmask[i]
                placed = fit(now & ~(used | low), seen)
                if placed and rec(k + 1, used | low, now, placed):
                    return True
            elif rec(k + 1, used | low, 0, 0):
                return True
        return False

    return img if rec(0, 0, (1 << len(hmask)) - 1, 0) else None


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """Find an induced copy of ``pattern`` in ``host``.

    Presence is decided first by ``_backtrack`` in the order of
    ``_search_order``.  When the pattern is disconnected and its last
    component there has one or two vertices, that component is not searched:
    it only has to fit among the host vertices adjacent to no image placed
    before it, which is checked by bitmask at every step.  Only when a copy
    exists does a second pass in plain id order recover the
    lexicographically least embedding (image sequence over pattern vertices
    in id order); when the two orders are the same walk, the first pass
    already found it.
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
    tables = _host_tables(host)
    presence, by_id = _plan(pattern)
    lex = _backtrack(*tables, *presence)
    if lex is None:
        return None
    if by_id is not presence:
        lex = _backtrack(*tables, *by_id)
        if lex is None:
            raise AssertionError("the id-order search missed a copy the presence search found")
    hv = host.vertices
    emb = Embedding(tuple(zip(by_id[0], (hv[i] for i in lex))))
    if not emb.validate(host, pattern):
        raise AssertionError("induced-subgraph search returned an invalid embedding")
    return emb


def is_free(
    host: Graph, specs: list[NamedGraphSpec | str]
) -> tuple[bool, FreenessWitness | None]:
    """True iff none of the named graphs occurs induced; else a witness.

    A named graph with more vertices, more edges or more non-edges than the
    host cannot occur, and is skipped without being built.
    """
    co_h = host.n * (host.n - 1) // 2 - host.m
    for spec in specs:
        parsed = spec if isinstance(spec, NamedGraphSpec) else parse_spec(spec)
        r, m = spec_size(parsed)
        if r > host.n or m > host.m or r * (r - 1) // 2 - m > co_h:
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
        sigs = {}
        for v, nb in adj.items():
            counts: dict[int, int] = {}
            for c in map(colours.__getitem__, nb):
                counts[c] = counts.get(c, 0) + 1
            sigs[v] = (colours[v], tuple(sorted(counts.items())))
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
        count = Counter(chain.from_iterable(map(adj.__getitem__, cells[splitter])))
        # Touched cells in ascending id, each one's vertices by ascending
        # count; the stable sorts keep ``count``'s order within a count, and
        # no step runs Python code per touched vertex.  A split relabels only
        # its own cell's vertices, and ``groupby`` has read no further than
        # the first vertex of the next cell, so it sees the ids from before.
        by_cell = sorted(count, key=cell_of.__getitem__)
        for cid, group in groupby(by_cell, cell_of.__getitem__):
            touched = list(group)
            cell = cells[cid]
            if len(set(map(count.__getitem__, touched))) == 1:
                if len(touched) == len(cell):
                    continue
                parts = [touched]
            else:
                touched.sort(key=count.__getitem__)
                parts = [list(vs) for _, vs in groupby(touched, count.__getitem__)]
            if len(touched) < len(cell):
                parts.insert(0, list(filterfalse(count.__contains__, cell)))
            if not _split(n, cell_of, cells, cid, parts, queue, queued, trail):
                return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> Embedding | None:
    """Bijective induced embedding of ``g`` onto ``h`` if one exists.

    Individualisation-refinement backtracking on one partition of the
    vertices of both graphs.  The root is refined once; each child pins the
    least g-vertex of the first open cell by id (the first cell that holds
    more than one vertex of each graph) together with one h-vertex of that
    cell, and refines from the pinned pair.  A branch dies as soon as a cell
    holds unequal numbers of g- and h-vertices.  All frames share one
    partition: every split is recorded on a trail, and a frame undoes the
    splits made after it before it tries its next candidate (McKay &
    Piperno 2014).

    Any open cell would do: if an isomorphism respects the partition, it
    sends the pinned g-vertex to some h-vertex of the same cell, every one
    of which is tried, and refinement keeps it respected.  The rule only
    sets the speed.  The root refinement numbers the degree classes by
    ascending degree, and in a ``gi_reduce`` output the four added
    dominating vertices have the highest degree, so cells of the original
    graph's vertices get the lower ids.  The dominating vertices' cell is
    the smallest open one, the usual choice: pinning one of them splits
    nothing else, so branching there first fails a pair that refinement
    cannot tell apart once for each of their 4! orders.  Deterministic for
    fixed inputs: cell ids come from neighbour counts, never from vertex
    ids, and candidates are tried in ascending order.
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
        cid = next((i for i, vs in enumerate(cells) if vs is not None and len(vs) > 2), None)
        if cid is None:
            break
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
    if not emb.validate(h, g):
        raise AssertionError("isomorphism search returned an invalid mapping")
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
    pairs = []
    for u in g.vertices:
        cu = colours[u]
        for v in g.neighbors(u):
            if u < v:
                cv = colours[v]
                pairs.append((cu, cv) if cu <= cv else (cv, cu))
    payload = repr((g.n, g.m, hist, tuple(sorted(pairs)))).encode()
    return g.n, g.m, hashlib.sha256(payload).hexdigest()[:16]
