import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest

from cliquewidth import (
    Embedding,
    Graph,
    are_isomorphic,
    build_graph,
    contains_induced,
    delete_vertices,
    disjoint_union,
    fingerprint,
    is_free,
    realize_text,
)
from cliquewidth import search
from cliquewidth.constructions import complemented_wall, gi_reduce
from brute import (
    brute_contains_induced,
    brute_is_induced_embedding,
    brute_least_induced,
    random_graph,
)


def _permuted(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(range(g.n), [(perm[u], perm[v]) for u, v in g.edges()])


def _cayley_z4z4(connection) -> Graph:
    def vid(a, b):
        return 4 * (a % 4) + b % 4

    cells = [(a, b) for a in range(4) for b in range(4)]
    return Graph(
        range(16), [(vid(a, b), vid(a + x, b + y)) for a, b in cells for x, y in connection]
    )


# Both are strongly regular with parameters (16, 6, 2, 2), so colour
# refinement leaves each in a single cell.
SHRIKHANDE = _cayley_z4z4([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
ROOK_4X4 = Graph(
    range(16),
    [(u, v) for u in range(16) for v in range(u + 1, 16) if u // 4 == v // 4 or u % 4 == v % 4],
)


def test_contains_induced_examples():
    c5 = realize_text("C5")
    emb = contains_induced(c5, realize_text("P4"))
    assert emb is not None and emb.validate(c5, realize_text("P4"))
    assert contains_induced(realize_text("K4"), realize_text("diamond")) is None


def test_contains_induced_empty_pattern():
    assert contains_induced(realize_text("P2"), Graph([], [])) is not None


def test_witness_is_lexicographically_least():
    host = build_graph(6, [(1, 2), (3, 4), (4, 5)])
    emb = contains_induced(host, realize_text("P2"))
    # pattern vertices 0,1 in id order; least image sequence is (1, 2)
    assert emb.image() == (1, 2)
    emb = contains_induced(host, realize_text("P3"))
    assert emb.image() == (3, 4, 5)


def test_pattern_seen_before_is_not_planned_again(monkeypatch):
    calls = []

    def counting(pattern):
        calls.append(pattern)
        return original(pattern)

    original = search._search_order
    monkeypatch.setattr(search, "_search_order", counting)
    # Ids no other test uses, so the pattern is new to the plan cache.
    pattern = Graph([1001, 1002, 1003, 1004], [(1001, 1002), (1002, 1003)])
    hosts = [realize_text("C6"), realize_text("P2+P4"), realize_text("C5")]
    found = [contains_induced(h, pattern) for h in hosts]
    # An equal pattern built again is the same pattern to the plan cache.
    again = Graph([1001, 1002, 1003, 1004], [(1001, 1002), (1002, 1003)])
    assert contains_induced(realize_text("C6"), again) == found[0]
    assert len(calls) == 1
    assert [emb is not None for emb in found] == [True, True, False]


def test_host_tables_are_built_once_per_graph(monkeypatch):
    builds, passes = [], []

    def counting_tables(g):
        builds.append(g)
        return original_tables(g)

    def counting_backtrack(*args):
        passes.append(args)
        return original_backtrack(*args)

    original_tables, original_backtrack = search.bit_adjacency, search._backtrack
    monkeypatch.setattr(search, "bit_adjacency", counting_tables)
    monkeypatch.setattr(search, "_backtrack", counting_backtrack)
    # A fresh C7: free of all four named graphs, then searched for C4-C7.
    c7 = Graph(range(7), [(i, (i + 1) % 7) for i in range(7)])
    assert is_free(c7, ["diamond", "3P1+P2", "K3", "K1,3"]) == (True, None)
    cycles = [contains_induced(c7, realize_text(f"C{length}")) for length in (4, 5, 6, 7)]
    assert cycles[:3] == [None, None, None] and cycles[3].image() == c7.vertices
    assert builds == [c7]
    # A derived graph is a new object, searched on tables of its own.
    p6 = delete_vertices(c7, [0])
    free, witness = is_free(p6, ["K3", "P4"])
    assert not free and witness.embedding.validate(p6, realize_text("P4"))
    assert builds == [c7, p6]
    # The presence and id walks of diamond are one walk, so a hit runs one
    # pass; those of C5 differ, so a hit runs two.
    passes.clear()
    host = Graph(range(6), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (4, 5)])
    assert contains_induced(host, realize_text("diamond")).image() == (0, 1, 2, 3)
    assert len(passes) == 1
    passes.clear()
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    assert contains_induced(c5, realize_text("C5")).image() == c5.vertices
    assert len(passes) == 2


# Connected patterns; disconnected ones whose last component in search
# order has one or two vertices, which the search decides by bitmask alone;
# 2P3, whose three-vertex last component is searched; and patterns rich in
# twins, whose images the search keeps in ascending order.
LEAST_WITNESS_PATTERNS = [
    "P3", "C4", "diamond", "K1,3",
    "P1+P2", "2P2", "P2+P3", "P2+P4", "2P1+P3", "3P1+P2", "P1+P4",
    "2P3",
    "K4", "4P1", "K1,3+P1", "K3+P1", "C5",
]


@pytest.mark.parametrize("spec", LEAST_WITNESS_PATTERNS)
def test_witness_matches_brute_least(spec):
    rng = random.Random(f"least-witness-{spec}")
    pattern = realize_text(spec)
    hits = 0
    for _ in range(60):
        n = rng.randint(pattern.n - 2, 8)
        ids = sorted(rng.sample(range(12), n))
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        host = Graph(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < p])
        emb = contains_induced(host, pattern)
        least = brute_least_induced(host, pattern)
        assert (emb is None) == (least is None), host.edges()
        if emb is not None:
            hits += 1
            assert emb.as_dict() == least, host.edges()
    assert hits > 0


def test_witness_planted_in_complemented_wall():
    # The wall is (diamond, P2+P4)-free; one disjoint edge plants a P2+P4.
    host = disjoint_union(complemented_wall(3).graph, build_graph(2, [(0, 1)]))
    emb = contains_induced(host, realize_text("P2+P4"))
    assert emb.mapping == ((0, 68), (1, 69), (2, 0), (3, 1), (4, 2), (5, 33))


def test_is_free_examples():
    assert is_free(realize_text("K4"), ["diamond"]) == (True, None)
    d = realize_text("diamond")
    free, witness = is_free(d, ["diamond"])
    assert not free
    # identity embedding: the least image of the pattern into itself
    assert witness.embedding.image() == d.vertices
    assert witness.spec_text == "co(2P1+P2)"
    # C7 has no induced 2P1+P3 (its 5-subsets induce P5, P1+P4 or P2+P3)
    c7 = realize_text("C7")
    assert is_free(c7, ["2P1+P3"])[0]
    free, witness = is_free(c7, ["P2+P3"])
    assert not free and witness.embedding.validate(c7, realize_text("P2+P3"))


def test_brute_force_agreement(rng):
    patterns = ["P3", "P4", "K3", "C4", "2P1+P2", "diamond", "K1,3", "P2+P3"]
    for trial in range(250):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.4, 0.6, 0.8]))
        pat = realize_text(patterns[trial % len(patterns)])
        fast = contains_induced(g, pat)
        slow = brute_contains_induced(g, pat)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.validate(g, pat)


def test_brute_force_agreement_exhaustive_small():
    pat = realize_text("P3")
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert (contains_induced(g, pat) is None) == (
                brute_contains_induced(g, pat) is None
            )


def test_are_isomorphic_examples():
    p4 = realize_text("P4")
    shuffled = Graph(range(4), [(2, 0), (0, 3), (3, 1)])
    emb = are_isomorphic(p4, shuffled)
    assert emb is not None and emb.validate(shuffled, p4)
    assert are_isomorphic(realize_text("K3+P1"), realize_text("P4")) is None
    assert are_isomorphic(realize_text("C6"), realize_text("2K3")) is None


def test_are_isomorphic_random_permutations(rng):
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(range(n), [(perm[u], perm[v]) for u, v in g.edges()])
        emb = are_isomorphic(g, h)
        assert emb is not None and emb.validate(h, g)


def test_are_isomorphic_against_networkx(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5]))
        h = random_graph(rng, g.n, rng.choice([0.3, 0.5]))
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(g.vertices)
        nxh = nx.Graph(list(h.edges()))
        nxh.add_nodes_from(h.vertices)
        assert (are_isomorphic(g, h) is not None) == nx.is_isomorphic(nxg, nxh)


def test_are_isomorphic_deterministic():
    g = realize_text("C6")
    h = Graph(range(6), [(1, 3), (3, 5), (5, 0), (0, 2), (2, 4), (4, 1)])
    first = are_isomorphic(g, h)
    second = are_isomorphic(g, h)
    assert first == second


def test_are_isomorphic_refinement_equivalent_pairs():
    c6 = gi_reduce(realize_text("C6")).graph
    two_k3 = gi_reduce(realize_text("2K3")).graph
    assert are_isomorphic(c6, two_k3) is None
    assert are_isomorphic(SHRIKHANDE, ROOK_4X4) is None


def _cone(g: Graph) -> Graph:
    apex = max(g.vertices) + 1
    return Graph([*g.vertices, apex], [*g.edges(), *((v, apex) for v in g.vertices)])


def _counting_refine(monkeypatch) -> list[int]:
    calls = [0]
    refine = search._refine

    def counting(*args):
        calls[0] += 1
        return refine(*args)

    monkeypatch.setattr(search, "_refine", counting)
    return calls


K33 = Graph(range(6), [(a, b) for a in range(3) for b in range(3, 6)])
PRISM = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize(
    "g, h",
    [
        (realize_text("C6"), realize_text("2K3")),
        (realize_text("C8"), realize_text("2C4")),
        (K33, PRISM),
        (_cone(realize_text("C6")), _cone(realize_text("2K3"))),
        (realize_text("C10"), realize_text("2C5")),
    ],
    ids=["C6-2K3", "C8-2C4", "K33-prism", "cone-C6-2K3", "C10-2C5"],
)
def test_are_isomorphic_reduced_pairs_need_few_refinements(monkeypatch, g, h):
    # Colour refinement cannot tell these reductions apart (equal
    # fingerprints).  Branching on the first open cell pins the original
    # graphs' vertices at once; pinning the four added dominating vertices
    # first would fail once for each of their 4! orders (185 to 926
    # refinements).
    rg, rh = gi_reduce(g).graph, gi_reduce(h).graph
    assert fingerprint(rg) == fingerprint(rh)
    calls = _counting_refine(monkeypatch)
    assert are_isomorphic(rg, rh) is None
    assert calls[0] <= 15


def test_are_isomorphic_reduced_strongly_regular_pair(monkeypatch):
    # 374 vertices a side; about 465 refinements, where branching on the
    # smallest open cell took 2729.
    expected = nx.is_isomorphic(nx.Graph(SHRIKHANDE.edges()), nx.Graph(ROOK_4X4.edges()))
    calls = _counting_refine(monkeypatch)
    emb = are_isomorphic(gi_reduce(SHRIKHANDE).graph, gi_reduce(ROOK_4X4).graph)
    assert not expected and emb is None
    assert calls[0] <= 600


def test_witness_rechecks_run_under_python_O():
    # ``python -O`` strips assert statements (the first line below shows it
    # is on); the engines' re-checks must raise all the same.
    code = (
        "assert False\n"
        "from cliquewidth import realize_text, search\n"
        "search.Embedding.validate = lambda self, host, pattern: False\n"
        "c5, p4 = realize_text('C5'), realize_text('P4')\n"
        "for run in (lambda: search.contains_induced(c5, p4), lambda: search.are_isomorphic(c5, c5)):\n"
        "    try:\n"
        "        run()\n"
        "        print('returned')\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\nraised\n"


def test_are_isomorphic_deep_search():
    # Refinement cannot split an edgeless graph, so the search pins one
    # pair per level, more levels than the interpreter allows recursion.
    # Splits are undone from a trail and a frame keeps only the last
    # candidate it tried, so the frames hold no copies of the partition and
    # no candidate lists.
    g, h = Graph(range(1100), []), Graph(range(7, 1107), [])
    tracemalloc.start()
    try:
        emb = are_isomorphic(g, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emb is not None and emb.validate(h, g)
    assert peak < 2_000_000


@pytest.mark.parametrize("g", [SHRIKHANDE, ROOK_4X4], ids=["shrikhande", "rook-4x4"])
def test_are_isomorphic_strongly_regular_permuted(rng, g):
    h = _permuted(g, rng)
    emb = are_isomorphic(g, h)
    assert emb is not None and emb.validate(h, g)


def test_are_isomorphic_cubic_against_networkx():
    for n in range(8, 21, 2):
        for seed in range(3):
            nxg = nx.random_regular_graph(3, n, seed=100 * n + seed)
            nxh = nx.random_regular_graph(3, n, seed=100 * n + seed + 50)
            g, h = Graph(range(n), nxg.edges()), Graph(range(n), nxh.edges())
            emb = are_isomorphic(g, h)
            assert (emb is not None) == nx.is_isomorphic(nxg, nxh)
            if emb is not None:
                assert emb.validate(h, g)


def test_fingerprint_isomorphism_invariant(rng):
    for _ in range(40):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(range(n), [(perm[u], perm[v]) for u, v in g.edges()])
        assert fingerprint(g) == fingerprint(h)
    assert fingerprint(realize_text("C5")) != fingerprint(realize_text("P5"))
    assert fingerprint(realize_text("K3+P1")) != fingerprint(realize_text("P4"))


PETERSEN = Graph(
    range(10),
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


@pytest.mark.parametrize(
    "g, expected",
    [
        (realize_text("P4"), (4, 3, "c07b09e6941da8e7")),
        (realize_text("C5"), (5, 5, "364afa46d72572b2")),
        (PETERSEN, (10, 15, "d006d2ebaf3e5b49")),
        (complemented_wall(2).graph, (35, 102, "40386ad6d9fc4ac6")),
        (gi_reduce(realize_text("P3")).graph, (67, 220, "b5a6d07f3c04fa94")),
        (realize_text("K3+P1"), (4, 3, "580b8b347390698c")),
    ],
    ids=["P4", "C5", "petersen", "complemented-wall-2", "gi-reduce-P3", "K3+P1"],
)
def test_fingerprint_golden(g, expected):
    # Certificate roots carry this hash; a change here breaks stored certificates.
    assert fingerprint(g) == expected


def _mutated_maps(host: Graph, pattern: Graph, base: dict[int, int], rng) -> list[dict[int, int]]:
    """``base`` and its corruptions: two images swapped, two pattern
    vertices sent to one host vertex, a pattern vertex missing, an extra
    vertex outside the pattern, and an image outside the host."""
    out = [dict(base)]
    pv = sorted(base)
    if len(pv) >= 2:
        a, b = rng.sample(pv, 2)
        swapped = dict(base)
        swapped[a], swapped[b] = base[b], base[a]
        merged = dict(base)
        merged[a] = base[b]
        out += [swapped, merged]
    if pv:
        missing = dict(base)
        del missing[rng.choice(pv)]
        off_host = dict(base)
        off_host[rng.choice(pv)] = max(host.vertices) + 1
        out += [missing, off_host]
    extra = dict(base)
    extra[max(pattern.vertices, default=-1) + 1] = rng.choice(host.vertices)
    out.append(extra)
    return out


def test_validate_agrees_with_pairwise_oracle(rng):
    kinds = {True: 0, False: 0}
    for _ in range(300):
        host = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        pattern = random_graph(rng, rng.randint(0, host.n), rng.choice([0.2, 0.5, 0.8]))
        found = contains_induced(host, pattern)
        # A valid map when one exists, else a random injective one.
        base = found.as_dict() if found else dict(zip(pattern.vertices, rng.sample(host.vertices, pattern.n)))
        for mapping in _mutated_maps(host, pattern, base, rng):
            emb = Embedding(tuple(sorted(mapping.items())))
            expected = brute_is_induced_embedding(host, pattern, mapping)
            assert emb.validate(host, pattern) == expected, (host.edges(), pattern.edges(), mapping)
            kinds[expected] += 1
    assert min(kinds.values()) > 100


def test_embedding_revalidation_always_passes(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
        for pat_text in ("P3", "C4", "K3"):
            pat = realize_text(pat_text)
            emb = contains_induced(g, pat)
            if emb is not None:
                assert emb.validate(g, pat)


def _degree_swapped(g: Graph, rng) -> Graph | None:
    """A graph with g's degree sequence, one double-edge swap away and not
    isomorphic to g by brute force; None when no tried swap gives one."""
    edges = list(g.edges())
    for _ in range(50):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.has_edge(a, d) or g.has_edge(c, b):
            continue
        swapped = [e for e in edges if e not in ((a, b), tuple(sorted((c, d))))]
        h = Graph(g.vertices, swapped + [(a, d), (c, b)])
        if brute_contains_induced(h, g) is None:
            return h
    return None


def _random_cubic(rng, n: int) -> Graph:
    """A simple cubic graph on 0..n-1 from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return Graph(range(n), pairs)


def golden_iso_corpus() -> list[tuple[Graph, Graph]]:
    rng = random.Random("iso-golden")
    pairs = [
        (realize_text("C6"), realize_text("2K3")),
        (gi_reduce(realize_text("C6")).graph, gi_reduce(realize_text("2K3")).graph),
        (SHRIKHANDE, ROOK_4X4),
        (SHRIKHANDE, _permuted(SHRIKHANDE, rng)),
        (ROOK_4X4, _permuted(ROOK_4X4, rng)),
    ]
    for i in range(12):
        g = random_graph(rng, 5 + i % 2, 0.5)
        pairs.append((gi_reduce(g).graph, gi_reduce(_permuted(g, rng)).graph))
        if g.m >= 2:
            h = _degree_swapped(g, rng)
            if h is not None:
                pairs.append((gi_reduce(g).graph, gi_reduce(_permuted(h, rng)).graph))
    for n in range(8, 21, 2):
        g = _random_cubic(rng, n)
        pairs.append((g, _permuted(g, rng)))
    return pairs


# Taken with the search branching on the first open cell by id: a faster
# engine must make every decision the same.  Only a change of the branching
# rule may move it, and it must leave ``GOLDEN_ISO_VERDICTS`` as it is.
GOLDEN_ISO_DIGEST = "ee7c732720b0b44aa997c9aafbec0b8bc12246552a97d5d16705774a7cf15612"
# The corpus's edges and yes/no verdicts only: no engine change, whatever
# mapping it finds first, may move this one.
GOLDEN_ISO_VERDICTS = "3801a3a613982429ea5d0a28d7b9ddb690da61d8c2ce9c66368ec90ebadd594a"


def test_are_isomorphic_outcomes_match_golden_digest():
    digest, verdicts = hashlib.sha256(), hashlib.sha256()
    outcomes = []
    for g, h in golden_iso_corpus():
        emb = are_isomorphic(g, h)
        outcomes.append(emb is not None)
        digest.update(f"{g.edges()} {h.edges()} {emb.mapping if emb else None}\n".encode())
        verdicts.update(f"{g.edges()} {h.edges()} {emb is not None}\n".encode())
    assert True in outcomes and False in outcomes
    assert verdicts.hexdigest() == GOLDEN_ISO_VERDICTS
    assert digest.hexdigest() == GOLDEN_ISO_DIGEST
