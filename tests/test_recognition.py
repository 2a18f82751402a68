import pytest

from cliquewidth import (
    Graph,
    GenerationBudgetError,
    SizeLimitError,
    alpha,
    bipartite_class_bounded,
    build_graph,
    clique_cover_exact,
    complement,
    contains_induced,
    delete_vertices,
    generate_free,
    is_chordal,
    is_free,
    parse_spec,
    print_spec,
    realize,
    realize_text,
)
from cliquewidth import recognition
from cliquewidth.namedgraphs import spec_size
from brute import (
    brute_alpha,
    brute_chromatic,
    brute_contains_induced,
    brute_induced_cycles,
    brute_least_induced,
    random_graph,
    resorting_is_chordal,
)


def test_alpha_examples():
    c5 = realize_text("C5")
    assert alpha(c5) == 2
    k5 = realize_text("K5")
    assert alpha(k5) == 1
    d = realize_text("diamond")
    assert alpha(d) == brute_alpha(d) == 2


def test_alpha_limit():
    with pytest.raises(SizeLimitError):
        alpha(build_graph(25, []))


def test_alpha_matches_brute_force(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        assert alpha(g) == brute_alpha(g)


def test_clique_cover_examples():
    assert len(clique_cover_exact(realize_text("C4"))) == 2
    assert len(clique_cover_exact(realize_text("K5"))) == 1
    assert len(clique_cover_exact(realize_text("C5"))) == 3


def test_clique_cover_matches_brute_chromatic(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        cover = clique_cover_exact(g)
        assert sorted(v for part in cover for v in part) == list(g.vertices)
        for part in cover:
            for u in part:
                for v in part:
                    assert u == v or g.has_edge(u, v)
        assert len(cover) == brute_chromatic(complement(g))


def test_is_chordal_examples(rng):
    for _ in range(10):
        n = rng.randint(1, 9)
        tree = build_graph(n, [(rng.randrange(i), i) for i in range(1, n)])
        assert is_chordal(tree) == (True, None)
    ok, witness = is_chordal(realize_text("C4"))
    assert not ok and len(witness) == 4
    assert is_chordal(realize_text("diamond")) == (True, None)


def test_is_chordal_agrees_with_cycle_enumeration(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6]))
        holes = brute_induced_cycles(g, 4)
        ok, witness = is_chordal(g)
        assert ok == (not holes)
        if witness is not None:
            assert frozenset(witness) in set(holes)


def test_is_chordal_matches_resorting_elimination(rng):
    # Ids spread out and out of order: the queue must not lean on them.
    for _ in range(200):
        n = rng.randint(1, 14)
        ids = rng.sample(range(10 * n), n)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i) if rng.random() < p]
        g = Graph(ids, edges)
        assert is_chordal(g) == resorting_is_chordal(g)


def induced_cycle(g: Graph, length: int) -> tuple[int, ...] | None:
    """The image of ``contains_induced``'s least copy of C_length, or None."""
    emb = contains_induced(g, realize_text(f"C{length}"))
    return None if emb is None else emb.image()


def test_find_induced_cycle(rng):
    g = realize_text("C6")
    assert induced_cycle(g, 6) == (0, 1, 2, 3, 4, 5)
    assert induced_cycle(g, 4) is None
    assert induced_cycle(g, 5) is None
    assert induced_cycle(g, 7) is None
    # Random hosts, hosts with a planted C5, C6 or C7, and hosts whose ids
    # are not 0..n-1, since the cycle is read back from host indices.
    hosts = [random_graph(rng, rng.randint(4, 7), 0.4) for _ in range(25)]
    for length in (5, 6, 7):
        for _ in range(3):
            cyc = rng.sample(range(8), length)
            ring = set(zip(cyc, cyc[1:] + cyc[:1]))
            extra = {(u, v) for u, v in random_graph(rng, 8, 0.3).edges() if {u, v} - set(cyc)}
            spare = min(set(range(8)) - set(cyc))
            hosts.append(delete_vertices(Graph(range(8), ring | extra), [spare]))
    hosts += [
        delete_vertices(random_graph(rng, 10, rng.choice([0.3, 0.5])), rng.sample(range(10), 3))
        for _ in range(10)
    ]
    for g in hosts:
        for length in range(3, 8):
            least = brute_least_induced(g, realize_text(f"C{length}"))
            expected = None if least is None else tuple(least[i] for i in range(length))
            assert induced_cycle(g, length) == expected


def test_bipartite_class_bounded_examples():
    # derived by embedding into the bounded containers with the brute oracle
    container = realize_text("K1,3+3P1")
    assert brute_contains_induced(container, realize_text("2P1+P3")) is not None
    assert bipartite_class_bounded("2P1+P3")
    container = realize_text("K1,3+P2")
    assert brute_contains_induced(container, realize_text("P2+P3")) is not None
    assert bipartite_class_bounded("P2+P3")
    for container_text in ("K1,3+3P1", "K1,3+P2", "P1+S(1,1,3)", "S(1,2,3)"):
        assert brute_contains_induced(
            realize_text(container_text), realize_text("C4")
        ) is None
    assert not bipartite_class_bounded("C4")
    assert bipartite_class_bounded("5P1")
    assert bipartite_class_bounded("2P1+P2")
    assert bipartite_class_bounded(realize_text("P4"))
    assert not bipartite_class_bounded("K3")


def _base_names(k):
    """Every base graph name with k vertices."""
    names = [f"P{k}", f"K{k}"] + [f"C{k}"] * (k >= 3) + [f"K1,{k - 1}"] * (k >= 2)
    for h in range(1, k):
        for i in range(h, k):
            if k - 1 - h - i >= i:
                names.append(f"S({h},{i},{k - 1 - h - i})")
    return names


def _union_names(n):
    """Every union of base graphs with n vertices in total, each multiset once."""
    pieces = [name for k in range(1, n + 1) for name in _base_names(k)]
    orders = [spec_size(parse_spec(name))[0] for name in pieces]
    out = []

    def extend(start, left, chosen):
        if left == 0:
            out.append("+".join(chosen))
        for i in range(start, len(pieces)):
            if orders[i] <= left:
                extend(i, left - orders[i], chosen + [pieces[i]])

    extend(0, n, [])
    return out


def test_bipartite_class_bounded_from_the_name_matches_the_realized_graph():
    # Above seven vertices (the largest container) the answer is read off
    # the name; a Graph argument always takes the realize-and-embed path.
    unions = [name for n in range(1, 10) for name in _union_names(n)]
    picked = ["co(K8)", "co(K9)", "co(co(8P1))", "2co(K4)", "co(K3)+co(K5)", "co(K4)+P1+K1",
              "co(K8)+P2", "co(co(K2)+P1)+5P1", "co(P2)+co(C3)+co(K1,1)", "co(4P1+co(4P1))"]
    for text in unions + [f"co({name})" for name in unions] + picked:
        spec = parse_spec(text)
        assert (spec_size(spec)[1] == 0) == (realize(spec).m == 0), text
        assert bipartite_class_bounded(spec) == bipartite_class_bounded(realize(spec)), text
    assert bipartite_class_bounded("co(K8)") and not bipartite_class_bounded("co(8P1)")


def test_bipartite_class_bounded_does_not_build_large_named_graphs(monkeypatch):
    # Building any of these would take minutes.
    def spy(spec):
        raise AssertionError(f"realized {print_spec(spec)}")

    monkeypatch.setattr(recognition, "realize", spy)
    assert bipartite_class_bounded("60000P1")
    assert not bipartite_class_bounded("60000P1+P2")
    assert bipartite_class_bounded("co(K60000)")


def test_generate_free_postconditions():
    graphs = generate_free([5], ["diamond"], 10, seed=7)
    assert len(graphs) == 10
    assert all(g.n == 5 and is_free(g, ["diamond"])[0] for g in graphs)
    cographs = generate_free([4], ["P4", "co(P4)"], 6, seed=3)
    assert all(is_free(g, ["P4"])[0] for g in cographs)
    members = generate_free(range(4, 9), ["diamond", "P2+P3"], 12, seed=11)
    assert all(is_free(g, ["diamond", "P2+P3"])[0] for g in members)
    assert {g.n for g in members} <= set(range(4, 9))
    assert len({g.n for g in members}) > 1


def test_generate_free_deterministic():
    a = generate_free(range(4, 13), ["diamond"], 8, seed=99)
    b = generate_free(range(4, 13), ["diamond"], 8, seed=99)
    assert [g.edges() for g in a] == [g.edges() for g in b]


def test_generate_free_budget_error():
    with pytest.raises(GenerationBudgetError) as err:
        generate_free([4], ["P1"], 3, seed=1)
    assert err.value.produced == 0
    assert str(err.value) == "sampling budget exhausted: produced 0/3 graphs in 2000 attempts"


def test_generate_free_size_limit():
    with pytest.raises(SizeLimitError):
        generate_free([17], ["diamond"], 1, seed=0)
    with pytest.raises(SizeLimitError):
        generate_free(range(4, 18), ["diamond"], 1, seed=0)


def test_c6_invariants_consistency():
    c6 = realize_text("C6")
    assert alpha(c6) == 3
    assert not is_chordal(c6)[0]
    assert len(clique_cover_exact(c6)) == 3
