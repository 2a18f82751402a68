"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
fixtures (graph catalog, class member samples) are session-scoped.
"""
import itertools
import random

import pytest

from cliquewidth import (
    FreenessWitness,
    Graph,
    alpha,
    are_isomorphic,
    build_graph,
    clique_cover_exact,
    clique_width_exact,
    complement,
    expr_forest,
    expr_max_degree_2,
    fingerprint,
    from_edge_list_text,
    from_graph6,
    generate_free,
    is_chordal,
    is_free,
    parse_expression,
    print_expression,
    realize_text,
    to_edge_list_text,
    to_graph6,
    verify_expression,
    width,
)
from cliquewidth.certificate import (
    Certificate,
    LEAF_WIDTH_BOUNDS,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from cliquewidth.certify import (
    certify_diamond_2p1p3,
    certify_diamond_3p1p2,
    certify_diamond_p2p3,
    reduce_by_clique_cover,
)
from cliquewidth.classify import classify_pair
from cliquewidth.constructions import (
    complemented_wall,
    gi_reduce,
    verify_complemented_wall,
    verify_gi_profile,
)
from conftest import atlas_catalog, cliques_graph
from brute import brute_induced_cycles, random_graph
from oracles import naive_clique_width


CERTIFIERS = {
    "3P1+P2": certify_diamond_3p1p2,
    "2P1+P3": certify_diamond_2p1p3,
    "P2+P3": certify_diamond_p2p3,
}


@pytest.fixture(scope="session")
def catalog():
    return atlas_catalog(1, 6)


@pytest.fixture(scope="session")
def class_members():
    return {
        h2: generate_free(range(4, 13), ["diamond", h2], 100, seed=101 + i)
        for i, h2 in enumerate(sorted(CERTIFIERS))
    }


def test_criterion_01_solver_ground_truth(catalog):
    """Exact solver agrees with the naive construction-sequence enumerator
    on the exhaustive catalog of graphs with at most six vertices."""
    assert len(catalog) == 208
    for g in catalog:
        fast = clique_width_exact(g)
        assert fast is not None
        assert fast[0] == naive_clique_width(g.n, g.edges()), g.edges()
    print(f"ACCEPTANCE 1: PASS - solver matches naive oracle on {len(catalog)} graphs")


def test_criterion_02_constructive_bounds():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 10)
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.85]
        forest = build_graph(n, edges)
        e = expr_forest(forest)
        assert width(e) <= 3
        assert verify_expression(e, forest)
    for _ in range(200):
        pieces = []
        total = 0
        while total < 3:
            kind = rng.choice(["path", "cycle", "point"])
            size = 1 if kind == "point" else rng.randint(2 if kind == "path" else 3, 6)
            if total + size > 12:
                break
            pieces.append((kind, size))
            total += size
        edges = []
        offset = 0
        for kind, size in pieces:
            if kind == "path":
                edges += [(offset + i, offset + i + 1) for i in range(size - 1)]
            elif kind == "cycle":
                edges += [(offset + i, offset + (i + 1) % size) for i in range(size)]
            offset += size
        g = build_graph(offset, edges)
        e = expr_max_degree_2(g)
        assert width(e) <= 4
        assert verify_expression(e, g)
    print("ACCEPTANCE 2: PASS - 200 forests width <= 3, 200 degree-2 graphs width <= 4")


def test_criterion_03_chordal_diamond_free_width():
    rng = random.Random(3)
    produced = 0
    while produced < 200:
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.15, 0.25, 0.35, 0.5]))
        if not is_chordal(g)[0] or not is_free(g, ["diamond"])[0]:
            continue
        produced += 1
        result = clique_width_exact(g)
        assert result is not None and result[0] <= 3, g.edges()
    print("ACCEPTANCE 3: PASS - 200 chordal diamond-free graphs have clique-width <= 3")


def test_criterion_04_perfect_cover_identity():
    rng = random.Random(4)
    produced = 0
    while produced < 200:
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6, 0.8]))
        # Perfect by the Strong Perfect Graph Theorem: no odd hole and no odd
        # antihole, found by enumerating every vertex subset.
        if any(len(c) % 2 for h in (g, complement(g)) for c in brute_induced_cycles(h, 5)):
            continue
        produced += 1
        assert len(clique_cover_exact(g)) == alpha(g), g.edges()
    print("ACCEPTANCE 4: PASS - 200 perfect graphs satisfy cover size == alpha")


def _random_cross_matching(rng, parts, density):
    """Sparse cross edges: every vertex gets at most one in total."""
    used = set()
    cross = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in sorted(parts[a]):
                if u in used or rng.random() > density:
                    continue
                candidates = [v for v in sorted(parts[b]) if v not in used]
                if not candidates:
                    continue
                v = rng.choice(candidates)
                cross.append((u, v))
                used.add(u)
                used.add(v)
    return cross


def test_criterion_05_clique_cover_pipeline():
    rng = random.Random(5)
    produced = 0
    while produced < 100:
        k = rng.choice([1, 1, 2, 2, 3, 3, 3, 4])
        if k == 4:
            sizes = [rng.randint(4, 10) for _ in range(4)]
            cross = []
        else:
            sizes = [rng.randint(k + 7, min(13, 40 // k)) for _ in range(k)]
            cross = _random_cross_matching(rng, cliques_graph(sizes)[1], rng.choice([0.0, 0.2, 0.4]))
        g, parts = cliques_graph(sizes, cross)
        if g.n > 40 or not is_free(g, ["diamond", "2P2+P4"])[0]:
            continue
        produced += 1
        cert = reduce_by_clique_cover(g, parts)
        assert isinstance(cert, Certificate), (sizes, cross)
        assert verify_certificate(g, cert).ok
    pattern = realize_text("2P2+P4")
    for trial in range(100):
        rng2 = random.Random(500 + trial)
        count = rng2.randint(4, 5)
        sizes = [rng2.randint(count + 7, count + 9) for _ in range(count)]
        g, parts = cliques_graph(sizes)
        a, b = rng2.sample(range(count), 2)
        planted = [
            (min(parts[a]) + i, min(parts[b]) + i)
            for i in range(rng2.randint(1, 3))
        ]
        g, parts = cliques_graph(sizes, planted)
        witness = reduce_by_clique_cover(g, parts)
        assert isinstance(witness, FreenessWitness), (sizes, planted)
        assert witness.embedding.validate(g, pattern)
    print("ACCEPTANCE 5: PASS - 100 pipeline certificates verified, 100 witnesses re-validated")


def test_criterion_06_theorem_certifiers(class_members):
    total_leaves = 0
    for h2, certifier in sorted(CERTIFIERS.items()):
        for g in class_members[h2]:
            cert = certifier(g)
            result = verify_certificate(g, cert)
            assert result.ok, (h2, g.edges(), result.failures)
            if g.n <= 10:
                for leaf, leaf_graph in result.leaves:
                    bound = LEAF_WIDTH_BOUNDS.get(leaf.kind)
                    if bound is not None:
                        solved = clique_width_exact(leaf_graph)
                        assert solved is not None and solved[0] <= bound
                        total_leaves += 1
    print(
        "ACCEPTANCE 6: PASS - 300 class members certified and verified; "
        f"{total_leaves} leaf width bounds checked exactly"
    )


def test_criterion_07_unbounded_family():
    for height in (2, 3, 4):
        pg = complemented_wall(height)
        report = verify_complemented_wall(pg)
        assert report.ok, report.failures
        free, witness = is_free(pg.graph, ["diamond", "P2+P4"])
        assert free, (height, witness)
    print("ACCEPTANCE 7: PASS - heights 2..4 satisfy the observations and freeness")


def test_criterion_08_gi_reduction():
    small = atlas_catalog(1, 4)
    assert len(small) == 18
    rng = random.Random(8)
    bigger = atlas_catalog(5, 6)
    pool = small + rng.sample(bigger, 24)

    def permuted(g, seed):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        verts = list(g.vertices)
        relabel = dict(zip(verts, (verts[i] for i in perm)))
        return Graph(g.vertices, [(relabel[u], relabel[v]) for u, v in g.edges()])

    pairs = [(a, b) for a, b in itertools.combinations_with_replacement(range(len(small)), 2)]
    pairs = [(small[a], small[b]) for a, b in pairs]
    while len(pairs) < 440:
        a, b = rng.sample(range(len(pool)), 2)
        pairs.append((pool[a], pool[b]))
    while len(pairs) < 500:
        g = pool[rng.randrange(len(pool))]
        pairs.append((g, permuted(g, len(pairs))))
    assert len(pairs) == 500

    outputs = {}

    def reduced(g):
        key = (g.vertices, g.edges())
        if key not in outputs:
            outputs[key] = gi_reduce(g)
        return outputs[key]

    checked_free = set()
    for g1, g2 in pairs:
        r1, r2 = reduced(g1), reduced(g2)
        seeds_iso = are_isomorphic(g1, g2) is not None
        outputs_iso = are_isomorphic(r1.graph, r2.graph) is not None
        assert seeds_iso == outputs_iso, (g1.edges(), g2.edges())
        for pg in (r1, r2):
            assert verify_gi_profile(pg).ok
            key = fingerprint(pg.graph)
            if key not in checked_free:
                checked_free.add(key)
                assert is_free(pg.graph, ["diamond", "P2+P4"])[0]
    print(
        "ACCEPTANCE 8: PASS - 500 pairs preserve isomorphism; "
        f"{len(checked_free)} distinct outputs pass profile and freeness"
    )


def test_criterion_09_pair_classification_table():
    for s in range(7):
        for t in range(7):
            expected = "Bounded" if (s <= 1 or t <= 1 or s + t <= 5) else "Unbounded"
            assert classify_pair(s, t).status == expected
    print("ACCEPTANCE 9: PASS - all 49 pair classifications match")


def test_criterion_10_format_round_trips(class_members):
    rng = random.Random(10)
    graphs = [random_graph(rng, rng.randint(0, 30), rng.random()) for _ in range(50)]
    for g in graphs:
        text = to_edge_list_text(g)
        assert to_edge_list_text(from_edge_list_text(text)) == text
        g6 = to_graph6(g)
        assert to_graph6(from_graph6(g6)) == g6

    expressions = []
    for g in [random_graph(rng, rng.randint(1, 6), rng.random()) for _ in range(46)]:
        expressions.append(clique_width_exact(g)[1])
    expressions += [
        expr_forest(realize_text("P4+K1,3")),
        expr_max_degree_2(realize_text("C6+P3")),
        parse_expression("r(2->1,j(1,2,(v1 | v2)))"),
        parse_expression("v7"),
    ]
    expressions = [e for e in expressions if e is not None][:50]
    assert len(expressions) == 50
    for e in expressions:
        text = print_expression(e)
        assert print_expression(parse_expression(text)) == text

    certs = []
    for h2, certifier in sorted(CERTIFIERS.items()):
        for g in class_members[h2][:17]:
            certs.append(certifier(g))
    certs = certs[:50]
    assert len(certs) == 50
    for cert in certs:
        text = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text
    print("ACCEPTANCE 10: PASS - 50-item round-trips for all four formats")
