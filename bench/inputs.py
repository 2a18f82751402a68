"""Seeded input generation for the four workloads.

Every generator takes a ``random.Random`` and returns plain data: a graph
is ``(n, edges)`` on vertices 0..n-1.  Membership while generating is
decided by the plain-Python search in ``oracles``; the package only ever
sees the finished inputs.
"""
from __future__ import annotations

import itertools
import random

import oracles

Edges = list[tuple[int, int]]


def gnp(rng: random.Random, n: int, p: float) -> Edges:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(oracles.edge_key(perm[u], perm[v]) for u, v in edges)


def disjoint(*pieces: tuple[int, Edges]) -> tuple[int, Edges]:
    n, out = 0, []
    for pn, pe in pieces:
        out += [(u + n, v + n) for u, v in pe]
        n += pn
    return n, out


def complete(n: int) -> Edges:
    return list(itertools.combinations(range(n), 2))


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> Edges:
    return path(n) + [(0, n - 1)]


def substitute(q: int, q_edges: Edges, modules: list[tuple[int, Edges]]) -> tuple[int, Edges]:
    """Replace quotient vertex i by module i; returns the composed graph."""
    n, inside = disjoint(*modules)
    start = list(itertools.accumulate([0] + [m for m, _ in modules]))
    out = list(inside)
    for a, b in q_edges:
        out += [
            (u, v)
            for u in range(start[a], start[a + 1])
            for v in range(start[b], start[b + 1])
        ]
    return n, sorted(oracles.edge_key(u, v) for u, v in out)


# ---------------------------------------------------------------------------
# exact-width
# ---------------------------------------------------------------------------

def random_prime(rng: random.Random, n: int, p: float) -> Edges:
    while True:
        edges = gnp(rng, n, p)
        if oracles.is_prime(oracles.adjacency(range(n), edges)):
            return edges


def random_cograph(rng: random.Random, n: int, join: bool | None = None) -> Edges:
    """A random cotree: split the vertex range, join or union the halves
    (``join`` fixes the choice at the top)."""
    if n == 1:
        return []
    cut = rng.randint(1, n - 1)
    left, right = random_cograph(rng, cut), random_cograph(rng, n - cut)
    _, edges = disjoint((cut, left), (n - cut, right))
    if join or (join is None and rng.random() < 0.5):
        edges += [(u, v) for u in range(cut) for v in range(cut, n)]
    return edges


def connected_piece(rng: random.Random, n: int) -> tuple[int, Edges]:
    while True:
        edges = gnp(rng, n, rng.choice((0.4, 0.6, 0.8)))
        adj = oracles.adjacency(range(n), edges)
        if len(oracles.reachable(adj, 0)) == n:
            return n, edges


def rook_3x3() -> Edges:
    """K3 x K3: vertices of a 3x3 grid, adjacent when in one row or column."""
    return [(a, b) for a, b in complete(9) if a // 3 == b // 3 or a % 3 == b % 3]


def modular_slot(rng: random.Random, q_edges: Edges, sizes: list[int]) -> tuple[int, Edges, list]:
    """Substitute seeded modules of the given sizes (in seeded positions)
    into the quotient; returns (n, edges, modules)."""
    sizes = sizes[:]
    rng.shuffle(sizes)
    modules = [(s, gnp(rng, s, rng.choice((0.3, 0.7)))) for s in sizes]
    n, edges = substitute(len(sizes), q_edges, modules)
    return n, edges, modules


def small_batch(rng: random.Random) -> list[dict]:
    """Nine cheap 8-9 vertex inputs: random prime graphs, unions of connected
    pieces, a connected cograph."""
    items = [{"kind": "prime", "n": 8, "edges": random_prime(rng, 8, p)} for p in (0.35, 0.5, 0.65, 0.5)]
    for sizes in ((4, 4), (3, 5), (3, 3, 3)):
        pieces = [connected_piece(rng, s) for s in sizes]
        items.append({"kind": "union", "n": sum(sizes), "edges": disjoint(*pieces)[1], "pieces": pieces})
    for _ in range(2):
        items.append({"kind": "cograph", "n": 8, "edges": random_cograph(rng, 8, join=True), "family": "cograph"})
    return items


def exact_width_batch(rng: random.Random) -> list[dict]:
    """Fourteen solver inputs in fixed slots, each with a fixed size and
    construction.

    Prime: random prime G(n,p) graphs, P10 and C9.  Decomposable: unions of
    connected pieces, a cograph, module substitutions into a random prime
    quotient and into C6.  Each item carries what the width oracle needs: a
    family with a known width, or the small pieces whose naive widths give
    the width by the max rule.
    """
    items: list[dict] = []
    for p in (0.3, 0.45, 0.6, 0.75):
        items.append({"kind": "prime", "n": 8, "edges": random_prime(rng, 8, p)})
    # Unions of connected pieces and a connected cograph: isolated vertices
    # make the solver's time jump by an order of magnitude (see CHANGES.md).
    for sizes in ((4, 4), (3, 3, 3)):
        pieces = [connected_piece(rng, s) for s in sizes]
        items.append({"kind": "union", "n": sum(sizes), "edges": disjoint(*pieces)[1], "pieces": pieces})
    items.append({"kind": "cograph", "n": 8, "edges": random_cograph(rng, 8, join=True), "family": "cograph"})

    items.append({"kind": "prime", "n": 10, "edges": path(10), "family": "path"})

    for p in (0.4, 0.6):
        items.append({"kind": "prime", "n": 9, "edges": random_prime(rng, 9, p)})
    items.append({"kind": "prime", "n": 9, "edges": cycle(9), "family": "cycle"})
    q_edges = random_prime(rng, 4, 0.5)
    n, edges, modules = modular_slot(rng, q_edges, [3, 2, 2, 2])
    items.append({"kind": "modular", "n": n, "edges": edges, "pieces": [(4, q_edges)] + modules})
    n, edges, modules = modular_slot(rng, cycle(6), [2, 2, 2, 2, 1, 1])
    items.append({"kind": "modular", "n": n, "edges": edges, "family": "cycle6", "pieces": modules})
    q_edges = random_prime(rng, 5, 0.5)
    n, edges, modules = modular_slot(rng, q_edges, [2, 2, 2, 2, 2])
    items.append({"kind": "modular", "n": n, "edges": edges, "pieces": [(5, q_edges)] + modules})
    for item in items:
        item["edges"] = relabel(rng, item["n"], item["edges"])
    return items


# ---------------------------------------------------------------------------
# class-members
# ---------------------------------------------------------------------------

PLANTED_KINDS = ("kst", "blowup", "matched-cliques", "union", "clique-pendants")


def planted(rng: random.Random, kind: str) -> tuple[int, Edges]:
    """A structured graph of the given kind: K_{s,t}, a cycle blow-up, cliques
    joined by sparse matchings, a disjoint union of small cliques and paths,
    or a clique with pendant vertices."""
    if kind == "kst":
        s = rng.randint(1, 7)
        t = rng.randint(1, 16 - s)
        return s + t, [(u, s + v) for u in range(s) for v in range(t)]
    if kind == "blowup":
        c = rng.choice((4, 5, 6, 7))
        sizes = [rng.choice((1, 1, 2)) for _ in range(c)]
        modules = [(sz, complete(sz) if rng.random() < 0.3 else []) for sz in sizes]
        return substitute(c, cycle(c), modules)
    if kind == "matched-cliques":
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
        n, edges = disjoint(*[(sz, complete(sz)) for sz in sizes])
        start = list(itertools.accumulate([0] + sizes))
        for a, b in itertools.combinations(range(len(sizes)), 2):
            xs = list(range(start[a], start[a + 1]))
            ys = list(range(start[b], start[b + 1]))
            rng.shuffle(xs)
            rng.shuffle(ys)
            for x, y in list(zip(xs, ys))[: rng.randint(0, 2)]:
                edges.append((x, y))
        return n, edges
    if kind == "clique-pendants":
        k = rng.randint(3, 12)
        extra = rng.randint(1, 16 - k)
        edges = complete(k) + [(rng.randrange(k), k + i) for i in range(extra)]
        return k + extra, edges
    pieces = []
    total = 0
    while total < 6 or (total < 14 and rng.random() < 0.5):
        sz = rng.randint(1, 4)
        pieces.append((sz, complete(sz) if rng.random() < 0.6 else path(sz)))
        total += sz
    return disjoint(*pieces)


MEMBER_SIZES = (6, 7, 8, 9)
NON_MEMBER_SIZES = tuple(range(6, 17))


def class_members_pool(rng: random.Random, random_per_size: int, planted_per_kind: int, non_per_size: int) -> list[dict]:
    """Certifier inputs in fixed strata per class: random members of each
    size in MEMBER_SIZES, planted members of each kind (6-16 vertices), and
    random non-members of each size in NON_MEMBER_SIZES."""
    pool: list[dict] = []
    sweep = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    for h2, forbidden in oracles.CLASS_FORBIDDEN.items():
        for n in MEMBER_SIZES:
            made = 0
            while made < random_per_size:
                edges = gnp(rng, n, rng.choice(sweep))
                if oracles.is_member(n, edges, forbidden):
                    pool.append({"certifier": h2, "origin": "random", "n": n, "edges": edges})
                    made += 1
        for kind in PLANTED_KINDS:
            made = 0
            while made < planted_per_kind:
                n, edges = planted(rng, kind)
                if 6 <= n <= 16 and oracles.is_member(n, edges, forbidden):
                    edges = relabel(rng, n, edges)
                    pool.append({"certifier": h2, "origin": kind, "n": n, "edges": edges})
                    made += 1
        for n in NON_MEMBER_SIZES:
            made = 0
            while made < non_per_size:
                edges = gnp(rng, n, rng.choice(sweep))
                if not oracles.is_member(n, edges, forbidden):
                    pool.append({"certifier": h2, "origin": "non-member", "n": n, "edges": edges})
                    made += 1
    return pool


def clique_cover_inputs(rng: random.Random, count: int) -> list[dict]:
    """Diamond-free graphs of at most 40 vertices with a planted cover by
    cliques: big cliques above the size threshold, small ones below it,
    sparse matchings, and now and then a fused pair or a cross-complete
    vertex."""
    out: list[dict] = []
    styles = ("matching", "matching", "fused", "cross-complete")
    while len(out) < count:
        big = 1 + len(out) % 3
        style = styles[len(out) // 3 % len(styles)]
        small = 1 if big == 3 else 2
        k = big + small
        sizes = [k + 7] * big + [1 + i for i in range(small)]
        rng.shuffle(sizes)
        n, edges = disjoint(*[(sz, complete(sz)) for sz in sizes])
        start = list(itertools.accumulate([0] + sizes))
        parts = [list(range(start[i], start[i + 1])) for i in range(len(sizes))]
        pairs = list(itertools.combinations(range(len(parts)), 2))
        special = rng.choice(pairs) if pairs and style != "matching" else None
        for a, b in pairs:
            if (a, b) == special:
                if style == "fused":
                    edges += [(x, y) for x in parts[a] for y in parts[b]]
                else:
                    x = rng.choice(parts[a])
                    edges += [(x, y) for y in parts[b]]
                continue
            xs, ys = parts[a][:], parts[b][:]
            rng.shuffle(xs)
            rng.shuffle(ys)
            edges += list(zip(xs, ys))[: rng.randint(0, 3)]
        if oracles.has_induced(n, edges, oracles.DIAMOND):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted(oracles.edge_key(perm[u], perm[v]) for u, v in edges)
        cover = [sorted(perm[v] for v in part) for part in parts]
        out.append({"certifier": "cover", "origin": style, "n": n, "edges": edges, "cover": cover})
    return out


# ---------------------------------------------------------------------------
# unbounded-family
# ---------------------------------------------------------------------------

def random_graph_nm(rng: random.Random, n: int, m: int) -> Edges:
    return sorted(rng.sample(complete(n), m))


def isomorphic_plain(n: int, e1: Edges, e2: Edges) -> bool:
    """Brute force over all permutations; for the tiny seed graphs only."""
    if len(e1) != len(e2):
        return False
    target = {oracles.edge_key(u, v) for u, v in e2}
    return any(
        all(oracles.edge_key(perm[u], perm[v]) in target for u, v in e1)
        for perm in itertools.permutations(range(n))
    )


def refinement_ties(n: int, e1: Edges, e2: Edges) -> bool:
    """True when colour refinement run on both graphs together ends with
    equal colour-class sizes on each side (it cannot tell them apart)."""
    adj = oracles.adjacency(range(2 * n), list(e1) + [(u + n, v + n) for u, v in e2])
    colours = {v: 0 for v in adj}
    while True:
        sigs = {v: (colours[v], tuple(sorted(colours[w] for w in adj[v]))) for v in adj}
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        new = {v: palette[sigs[v]] for v in adj}
        if len(palette) == len(set(colours.values())):
            break
        colours = new
    return sorted(new[v] for v in range(n)) == sorted(new[v] for v in range(n, 2 * n))


def degree_swap(rng: random.Random, n: int, edges: Edges) -> Edges | None:
    """A double-edge swap keeping every degree, or None when none applies."""
    eset = {oracles.edge_key(u, v) for u, v in edges}
    options = []
    for (a, b), (c, d) in itertools.combinations(sorted(eset), 2):
        for x, y, z, w in ((a, c, b, d), (a, d, b, c)):
            if len({a, b, c, d}) == 4:
                e_new1, e_new2 = oracles.edge_key(x, y), oracles.edge_key(z, w)
                if e_new1 not in eset and e_new2 not in eset:
                    options.append(((a, b), (c, d), e_new1, e_new2))
    if not options:
        return None
    old1, old2, new1, new2 = rng.choice(options)
    return sorted((eset - {old1, old2}) | {new1, new2})


# (n, m) of the seed graphs of isomorphism pairs; their reductions have
# 13n + 3m + 22 vertices, 102 to 121 here.
PAIR_SLOTS = ((5, 5), (5, 6), (6, 5), (6, 6), (6, 7))


def iso_pairs(rng: random.Random, count: int) -> list[dict]:
    """C6 against 2K3, then pairs cycling through PAIR_SLOTS: two permuted
    copies for every non-isomorphic graph with the same degree sequence
    (one double-edge swap away).  Isomorphic pairs cost more to decide, so
    two to one keeps the median latency inside one kind of pair."""
    out = [{"n": 6, "e1": cycle(6), "e2": disjoint((3, complete(3)), (3, complete(3)))[1], "origin": "C6-2K3"}]
    while len(out) < count:
        n, m = PAIR_SLOTS[(len(out) // 3) % len(PAIR_SLOTS)]
        e1 = random_graph_nm(rng, n, m)
        if len(out) % 3:
            out.append({"n": n, "e1": e1, "e2": relabel(rng, n, e1), "origin": "permuted"})
            continue
        e2 = degree_swap(rng, n, e1)
        # Pairs that colour refinement cannot split (C6 against 2K3 again,
        # say) cost seconds each; the fixed C6/2K3 pair already shows that
        # once per round, so seeds do not get to add more of them.
        if e2 is None or isomorphic_plain(n, e1, e2) or refinement_ties(n, e1, e2):
            continue
        out.append({"n": n, "e1": e1, "e2": relabel(rng, n, e2), "origin": "degree-swap"})
    return out
