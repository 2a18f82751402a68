"""Brute-force oracles used to cross-check library routines.

Everything here enumerates: subsets, permutations, assignments.  These are
the independent reference implementations for the fast engines under test.
"""
from __future__ import annotations

import itertools
import random

from cliquewidth import Graph, build_graph
from cliquewidth.graphs import find_hole, induced_subgraph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def brute_contains_induced(host: Graph, pattern: Graph) -> dict[int, int] | None:
    """Enumerate all |V(pattern)|-subsets and all bijections onto them."""
    pv = list(pattern.vertices)
    if len(pv) > host.n:
        return None
    for subset in itertools.combinations(host.vertices, len(pv)):
        for image in itertools.permutations(subset):
            mapping = dict(zip(pv, image))
            if all(
                pattern.has_edge(a, b) == host.has_edge(mapping[a], mapping[b])
                for i, a in enumerate(pv)
                for b in pv[i + 1 :]
            ):
                return mapping
    return None


def brute_least_induced(host: Graph, pattern: Graph) -> dict[int, int] | None:
    """The lexicographically least induced embedding: the first image
    sequence, over pattern vertices in id order, among all permutations of
    the sorted host vertices."""
    pv = list(pattern.vertices)
    for image in itertools.permutations(sorted(host.vertices), len(pv)):
        mapping = dict(zip(pv, image))
        if all(
            pattern.has_edge(a, b) == host.has_edge(mapping[a], mapping[b])
            for i, a in enumerate(pv)
            for b in pv[i + 1 :]
        ):
            return mapping
    return None


def brute_alpha(g: Graph) -> int:
    best = 0
    vs = list(g.vertices)
    for r in range(len(vs), 0, -1):
        for subset in itertools.combinations(vs, r):
            if all(
                not g.has_edge(a, b)
                for i, a in enumerate(subset)
                for b in subset[i + 1 :]
            ):
                return r
    return best


def brute_chromatic(g: Graph) -> int:
    """Exact chromatic number by enumerating colour assignments (n <= 10)."""
    vs = list(g.vertices)
    if not vs:
        return 0

    def colourable(k: int) -> bool:
        def rec(i: int, assign: dict[int, int]) -> bool:
            if i == len(vs):
                return True
            v = vs[i]
            used = {assign[w] for w in g.neighbors(v) if w in assign}
            cap = min(k, max(assign.values(), default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    assign[v] = c
                    if rec(i + 1, assign):
                        return True
                    del assign[v]
            return False

        return rec(0, {})

    for k in range(1, len(vs) + 1):
        if colourable(k):
            return k
    raise AssertionError("unreachable")


def brute_induced_cycles(g: Graph, min_len: int = 4) -> list[frozenset[int]]:
    """All vertex sets inducing a cycle of length >= min_len."""
    out = []
    vs = list(g.vertices)
    for r in range(min_len, len(vs) + 1):
        for subset in itertools.combinations(vs, r):
            sub = {v: [w for w in g.neighbors(v) if w in subset] for v in subset}
            if any(len(nb) != 2 for nb in sub.values()):
                continue
            # connected 2-regular on r vertices = a single r-cycle
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                u = stack.pop()
                for w in sub[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == r:
                out.append(frozenset(subset))
    return out


def resorting_is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Simplicial elimination that re-sorts the remaining vertices every
    round and eliminates the least simplicial one; on failure, the hole
    ``find_hole`` returns from the vertices left."""
    remaining = set(g.vertices)

    def simplicial(v: int) -> bool:
        nbrs = [w for w in g.neighbors(v) if w in remaining]
        return all(g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :])

    while remaining:
        pick = next((v for v in sorted(remaining) if simplicial(v)), None)
        if pick is None:
            return False, find_hole(induced_subgraph(g, remaining))
        remaining.remove(pick)
    return True, None


def two_core(g: Graph) -> frozenset[int]:
    """Vertices surviving repeated deletion of degree <= 1 vertices."""
    alive = set(g.vertices)
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if sum(1 for w in g.neighbors(v) if w in alive) <= 1:
                alive.remove(v)
                changed = True
    return frozenset(alive)


def brute_has_module(g: Graph) -> bool:
    """Some vertex subset S with 1 < |S| < n that no outside vertex splits:
    every vertex outside S sees all of S or none of it."""
    vs = list(g.vertices)
    for r in range(2, len(vs)):
        for subset in itertools.combinations(vs, r):
            inside = set(subset)
            if all(
                len(g.neighbors(z) & inside) in (0, r) for z in vs if z not in inside
            ):
                return True
    return False


def brute_is_induced_embedding(host: Graph, pattern: Graph, mapping: dict[int, int]) -> bool:
    """An injective map of exactly the pattern's vertices into the host's
    that preserves adjacency and non-adjacency on every vertex pair."""
    pv = list(pattern.vertices)
    if sorted(mapping) != pv or len(set(mapping.values())) != len(mapping):
        return False
    if any(not host.has_vertex(v) for v in mapping.values()):
        return False
    return all(
        pattern.has_edge(a, b) == host.has_edge(mapping[a], mapping[b])
        for i, a in enumerate(pv)
        for b in pv[i + 1 :]
    )


def brute_twin_partition(g: Graph, subset: set[int]) -> set[frozenset[int]]:
    """The vertices of ``subset`` grouped by their neighbourhood outside it:
    the classes of twins towards the rest."""
    inside = set(subset)
    classes: dict[frozenset[int], set[int]] = {}
    for v in inside:
        classes.setdefault(frozenset(g.neighbors(v) - inside), set()).add(v)
    return {frozenset(members) for members in classes.values()}


def brute_twin_classes(g: Graph, subset: set[int]) -> int:
    """How many distinct neighbourhoods outside ``subset`` its vertices
    have: the least number of classes of twins towards the rest."""
    return len(brute_twin_partition(g, subset))
