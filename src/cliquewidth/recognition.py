"""Exact small-scale invariants and class recognizers.

Everything here is exact and deterministic: the independence number by
branch and bound, minimum clique covers by exact colouring of the
complement (both up to 24 vertices), and chordality by simplicial
elimination with a hole from ``graphs.find_hole`` when it fails.
"""
from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence

from .graphs import (
    Graph,
    SizeLimitError,
    bit_adjacency,
    build_graph,
    complement,
    find_hole,
    induced_subgraph,
)
from .namedgraphs import (
    NamedGraphSpec,
    parse_spec,
    realize,
    realize_text,
    spec_size,
)
from .search import contains_induced, is_free

EXACT_SCALE_LIMIT = 24
SAMPLING_LIMIT = 16


class GenerationBudgetError(RuntimeError):
    """Rejection sampling ran out of attempts; carries the partial yield."""

    def __init__(self, wanted: int, produced: int, attempts: int):
        super().__init__(
            f"sampling budget exhausted: produced {produced}/{wanted} "
            f"graphs in {attempts} attempts"
        )
        self.produced = produced


def _check_limit(g: Graph, limit: int, what: str) -> None:
    if g.n > limit:
        raise SizeLimitError(f"{what} limited to {limit} vertices, got {g.n}")


def _max_independent_set(masks: list[int], cand: int) -> tuple[int, int]:
    """Largest independent set inside ``cand`` (bitmask), with its mask."""
    if cand == 0:
        return 0, 0
    # Pick the candidate vertex of maximum degree within cand as pivot.
    pivot, pivot_deg = -1, -1
    c = cand
    while c:
        low = c & -c
        c ^= low
        i = low.bit_length() - 1
        d = bin(masks[i] & cand).count("1")
        if d > pivot_deg:
            pivot, pivot_deg = i, d
    if pivot_deg == 0:
        # cand is independent.
        return bin(cand).count("1"), cand
    take_size, take_set = _max_independent_set(masks, cand & ~masks[pivot] & ~(1 << pivot))
    take_size += 1
    take_set |= 1 << pivot
    skip_size, skip_set = _max_independent_set(masks, cand & ~(1 << pivot))
    if take_size >= skip_size:
        return take_size, take_set
    return skip_size, skip_set


def alpha(g: Graph) -> int:
    """Exact independence number."""
    _check_limit(g, EXACT_SCALE_LIMIT, "alpha")
    if g.n == 0:
        return 0
    _, _, masks = bit_adjacency(g)
    size, _ = _max_independent_set(masks, (1 << g.n) - 1)
    return size


def clique_cover_exact(g: Graph) -> list[frozenset[int]]:
    """Minimum partition of the vertices into cliques.

    Computed as an exact colouring of the complement: colour classes of the
    complement are cliques here.  Deterministic branch and bound.
    """
    _check_limit(g, EXACT_SCALE_LIMIT, "clique_cover_exact")
    if g.n == 0:
        return []
    co = complement(g)
    verts, _, masks = bit_adjacency(co)
    n = len(verts)
    order = sorted(range(n), key=lambda i: (-bin(masks[i]).count("1"), i))

    def colourable(k: int) -> list[int] | None:
        """The colour classes, as bitmasks, of a k-colouring, or None."""
        classes = [0] * k

        def rec(pos: int, used: int) -> bool:
            if pos == n:
                return True
            v = order[pos]
            for c in range(min(used + 1, k)):
                if not classes[c] & masks[v]:
                    classes[c] |= 1 << v
                    if rec(pos + 1, max(used, c + 1)):
                        return True
                    classes[c] ^= 1 << v
            return False

        return classes if rec(0, 0) else None

    lower = alpha(g)  # a clique of the complement
    for k in range(max(lower, 1), n + 1):
        classes = colourable(k)
        if classes is not None:
            cover = sorted(
                (frozenset(verts[i] for i in range(n) if cls >> i & 1) for cls in classes if cls),
                key=min,
            )
            for part in cover:
                for u in part:
                    for v in part:
                        if u < v and not g.has_edge(u, v):
                            raise AssertionError("cover part is not a clique")
            return cover
    raise AssertionError("unreachable: n colours always suffice")


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Perfect-elimination test; on failure returns an induced hole (>= 4).

    A simplicial vertex stays simplicial when other vertices are deleted, so
    the vertices left when none is simplicial do not depend on the order of
    elimination.  Each vertex is checked once, and again only after one of
    its neighbours is eliminated.
    """
    remaining = set(g.vertices)

    def simplicial(v: int) -> bool:
        nbrs = [w for w in g.neighbors(v) if w in remaining]
        return all(
            g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
        )

    queue, queued = deque(g.vertices), set(g.vertices)
    while queue:
        v = queue.popleft()
        queued.remove(v)
        if simplicial(v):
            remaining.remove(v)
            fresh = [w for w in g.neighbors(v) if w in remaining and w not in queued]
            queue.extend(fresh)
            queued.update(fresh)
    if remaining:
        hole = find_hole(induced_subgraph(g, remaining))
        if hole is None:
            raise AssertionError("a graph left after simplicial elimination has no hole")
        return False, hole
    return True, None


# Containers whose H-free bipartite graphs form bounded-clique-width classes,
# and the order of the largest one.
_BIPARTITE_CONTAINERS = ("K1,3+3P1", "K1,3+P2", "P1+S(1,1,3)", "S(1,2,3)")
_LARGEST_CONTAINER = 7


def bipartite_class_bounded(h: NamedGraphSpec | str | Graph) -> bool:
    """True iff H-free bipartite graphs form a bounded-clique-width class.

    Holds exactly when H is an edgeless graph or an induced subgraph of one
    of: K1,3+3P1, K1,3+P2, P1+S(1,1,3), S(1,2,3).
    """
    if isinstance(h, Graph):
        pattern = h
    else:
        spec = h if isinstance(h, NamedGraphSpec) else parse_spec(h)
        order, edges = spec_size(spec)
        if order > _LARGEST_CONTAINER:
            # Too large for any container: only an edgeless H qualifies, and
            # a named graph from outside the program may be huge, so it is
            # judged from its name without being built.
            return edges == 0
        pattern = realize(spec)
    if pattern.m == 0 and pattern.n >= 1:
        return True
    for container_text in _BIPARTITE_CONTAINERS:
        if contains_induced(realize_text(container_text), pattern) is not None:
            return True
    return False


def generate_free(
    sizes: Sequence[int],
    specs: list[NamedGraphSpec | str],
    sample_count: int,
    seed: int,
) -> list[Graph]:
    """Rejection-sample graphs avoiding all named patterns.

    Each attempt draws its vertex count n from ``sizes`` and then an
    Erdos-Renyi graph on n vertices, with the edge probability swept over
    0.1..0.9 by attempt, so both sparse and dense target classes get hit.
    Deterministic for a fixed seed; raises GenerationBudgetError after
    max(2000, 500 * sample_count) attempts.
    """
    if max(sizes) > SAMPLING_LIMIT:
        raise SizeLimitError(f"generate_free limited to {SAMPLING_LIMIT} vertices")
    rng = random.Random(seed)
    sweep = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    budget = max(2000, 500 * sample_count)
    out: list[Graph] = []
    attempts = 0
    while len(out) < sample_count:
        if attempts >= budget:
            raise GenerationBudgetError(sample_count, len(out), attempts)
        attempts += 1
        n = rng.choice(sizes)
        p = sweep[attempts % len(sweep)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = build_graph(n, edges)
        free, _ = is_free(g, specs)
        if free:
            out.append(g)
    return out
