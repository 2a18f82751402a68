from __future__ import annotations

import random

import pytest

from cliquewidth import Graph, build_graph


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20240817)


def cliques_graph(sizes, cross=()):
    """Disjoint cliques of the given sizes on consecutive vertices, plus the
    ``cross`` edges, with the vertex set of each clique."""
    edges = []
    offset = 0
    parts = []
    for s in sizes:
        parts.append(frozenset(range(offset, offset + s)))
        edges += [(offset + i, offset + j) for i in range(s) for j in range(i + 1, s)]
        offset += s
    edges += list(cross)
    return build_graph(offset, edges), parts


def atlas_catalog(n_lo: int, n_hi: int) -> list[Graph]:
    """Every graph with n_lo <= n <= n_hi vertices, one per isomorphism
    class, from the networkx atlas (independent of this package)."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for ag in graph_atlas_g():
        n = ag.number_of_nodes()
        if n_lo <= n <= n_hi:
            out.append(Graph(range(n), [(u, v) for u, v in ag.edges()]))
    return out
