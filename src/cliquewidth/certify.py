"""Certifiers: boundedness certificates for three diamond-free classes.

Each certifier follows the paper's proof for its class and records the
reduction steps it takes as a certificate (see ``certificate``), which the
independent verifier there replays.
"""
from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from itertools import combinations, permutations

# certificate_from_json, certificate_to_json and verify_certificate are
# re-exported: bench/ calls them through this module.
from .certificate import (  # noqa: F401
    BIPARTITE_H_FREE,
    CHORDAL_DIAMOND_FREE,
    DELETE_RULES,
    DISJOINT_CLIQUES,
    FOREST,
    K3_K13P2_FREE,
    MAX_DEGREE_2,
    BaseLeaf,
    BipartiteComplementStep,
    Certificate,
    DeleteVerticesStep,
    Node,
    PruneDegreeOneStep,
    SplitComponentsStep,
    SubgraphComplementStep,
    certificate_from_json,
    certificate_root,
    certificate_to_json,
    verify_certificate,
)
from .graphs import (
    Graph,
    bipartite_complement,
    components,
    delete_vertices,
    find_induced_p3,
    induced_subgraph,
    is_bipartite,
    is_forest,
    prune_degree_one,
    subgraph_complement,
)
from .namedgraphs import realize_text
from .recognition import clique_cover_exact, is_chordal
from .search import Embedding, FreenessWitness, contains_induced, is_free


class NotInClassError(ValueError):
    """The input graph is outside the certifier's hereditary class."""

    def __init__(self, witness: FreenessWitness):
        super().__init__(f"input contains an induced {witness.spec_text}")
        self.witness = witness


def _require_free(g: Graph, specs: list[str]) -> None:
    """Raise NotInClassError with the witness if ``g`` contains one of ``specs``."""
    free, witness = is_free(g, specs)
    if not free:
        raise NotInClassError(witness)


class InternalContradictionError(AssertionError):
    """A structure mandated by the reduction failed to materialise.

    Reaching this on an input that passed the class membership check means
    the implementation (not the input) is wrong."""


# ---------------------------------------------------------------------------
# Reduction by bounded clique cover.
# ---------------------------------------------------------------------------

def _contradiction(msg: str) -> InternalContradictionError:
    return InternalContradictionError(
        f"{msg}; this indicates an implementation bug, not a bad input"
    )


def _two_p2_p4_witness(
    g: Graph, cliques: list[frozenset[int]], a: int, b: int, x6: int, x7: int
) -> FreenessWitness:
    """Assemble the induced 2P2+P4 forced by a surviving cross edge."""
    za, zb = cliques[a], cliques[b]
    x5 = min(v for v in za if v != x6 and not g.has_edge(v, x7))
    x8 = min(
        v
        for v in zb
        if v != x7 and not g.has_edge(v, x5) and not g.has_edge(v, x6)
    )
    rest = [i for i in range(len(cliques)) if i not in (a, b)]
    zc, zd = cliques[rest[0]], cliques[rest[1]]
    cand_c = sorted(
        v for v in zc if all(not g.has_edge(v, x) for x in (x5, x6, x7, x8))
    )
    x3, x4 = cand_c[0], cand_c[1]
    cand_d = sorted(
        v for v in zd if all(not g.has_edge(v, x) for x in (x3, x4, x5, x6, x7, x8))
    )
    x1, x2 = cand_d[0], cand_d[1]
    # Pattern 2P2+P4: vertices 0-1 and 2-3 are the two edges, 4-5-6-7 the path.
    emb = Embedding(
        ((0, x1), (1, x2), (2, x3), (3, x4), (4, x5), (5, x6), (6, x7), (7, x8))
    )
    if not emb.validate(g, realize_text("2P2+P4")):
        raise _contradiction("constructed 2P2+P4 witness failed validation")
    return FreenessWitness("2P2+P4", emb)


class _Steps:
    """Reduction steps applied to a working graph, in order.

    Each method applies one operation to ``work`` and records it; ``close``
    folds the record into a certificate node that ends in ``terminal``.
    """

    def __init__(self, g: Graph):
        self.work = g
        self._made: list[tuple] = []

    def delete(self, vs, justification: str, **facts: int) -> None:
        """Delete ``vs``, stating the bound of ``justification`` at ``facts``."""
        rule = DELETE_RULES[justification]
        bound = rule(**facts) if callable(rule) else rule
        if len(vs) > bound:
            raise _contradiction(f"{len(vs)} {justification} exceed their bound {bound}")
        vs = tuple(sorted(vs))
        self.work = delete_vertices(self.work, vs)
        self._made.append((DeleteVerticesStep, vs, justification, bound))

    def complement(self, vs) -> None:
        vs = tuple(sorted(vs))
        self.work = subgraph_complement(self.work, vs)
        self._made.append((SubgraphComplementStep, vs))

    def bipartite_complement(self, xs, ys) -> None:
        xs, ys = tuple(sorted(xs)), tuple(sorted(ys))
        self.work = bipartite_complement(self.work, xs, ys)
        self._made.append((BipartiteComplementStep, xs, ys))

    def prune(self) -> None:
        self.work = prune_degree_one(self.work)
        self._made.append((PruneDegreeOneStep,))

    def close(self, terminal: Node) -> Node:
        node = terminal
        for kind, *args in reversed(self._made):
            node = kind(*args, node)
        return node


def _reduce_steps(
    steps: _Steps, cover: list[frozenset[int]]
) -> Node | FreenessWitness:
    """Clique-cover reduction of ``steps.work``, recorded on ``steps``.

    Returns the terminal node or, when four big cliques keep a cross edge,
    the induced 2P2+P4 that such an edge forces.
    """
    g = steps.work
    covered = sorted(v for part in cover for v in part)
    if covered != list(g.vertices) or len(set(covered)) != len(covered):
        raise ValueError("cover must partition the vertex set")
    for part in cover:
        for u in part:
            for v in part:
                if u < v and not g.has_edge(u, v):
                    raise ValueError(f"cover part {sorted(part)} is not a clique")

    cliques = sorted((frozenset(p) for p in cover if p), key=min)
    k_start = len(cliques)

    # Normalise: drop the cliques below the size threshold k+7 (k the size
    # of the given cover), then fuse completely adjacent pairs until none
    # is left; a fused clique is never small.
    for c in cliques:
        if len(c) < k_start + 7:
            steps.delete(c, "cover-clique-below-size-threshold", k=k_start)
    cliques = [c for c in cliques if len(c) >= k_start + 7]
    work = steps.work
    while pair := next(
        (
            (a, b)
            for a, b in combinations(cliques, 2)
            if all(work.has_edge(u, v) for u in a for v in b)
        ),
        None,
    ):
        cliques = sorted([c for c in cliques if c not in pair] + [pair[0] | pair[1]], key=min)

    k_final = len(cliques)

    # Drop the at most one vertex per ordered clique pair that is completely
    # adjacent to the other clique.
    exceptional: set[int] = set()
    for ci, cj in permutations(cliques, 2):
        full_adj = [x for x in ci if cj <= work.neighbors(x)]
        if len(full_adj) > 1:
            raise _contradiction("two vertices of one cover clique are complete to another")
        exceptional.update(full_adj)
    if exceptional:
        steps.delete(exceptional, "cross-complete-vertices", k=k_final)
        work = steps.work
        cliques = [c - exceptional for c in cliques]

    if any(len(c) < 8 for c in cliques):
        raise _contradiction("a reduced cover clique fell below 8 vertices")

    if k_final == 0:
        return BaseLeaf(DISJOINT_CLIQUES)

    if k_final >= 4:
        # The least (i, j, u, v) with u in clique i adjacent to v in clique j.
        cross = min(
            (
                (i, j, u, v)
                for i, j in combinations(range(k_final), 2)
                for u in cliques[i]
                for v in work.neighbors(u) & cliques[j]
            ),
            default=None,
        )
        if cross is None:
            return BaseLeaf(DISJOINT_CLIQUES)
        return _two_p2_p4_witness(work, cliques, *cross)

    # k' <= 3: complementing inside each clique leaves maximum degree <= 2.
    for c in cliques:
        steps.complement(c)
    if steps.work.max_degree() > 2:
        raise _contradiction("complemented cover did not reach maximum degree 2")
    return BaseLeaf(MAX_DEGREE_2)


def _close_by_cover(steps: _Steps, cover: list[frozenset[int]]) -> Node:
    """``steps`` closed by the clique-cover reduction of a class member, in
    which a 2P2+P4 cannot occur."""
    terminal = _reduce_steps(steps, cover)
    if isinstance(terminal, FreenessWitness):
        raise _contradiction("clique-cover reduction found a forbidden graph")
    return steps.close(terminal)


def reduce_by_clique_cover(
    g: Graph, cover: list[frozenset[int] | set[int]]
) -> Certificate | FreenessWitness:
    """Certificate for a diamond-free graph with the given clique cover, or
    the induced 2P2+P4 witness that the class membership fails."""
    _require_free(g, ["diamond"])
    steps = _Steps(g)
    terminal = _reduce_steps(steps, [frozenset(p) for p in cover])
    if isinstance(terminal, FreenessWitness):
        return terminal
    return Certificate(certificate_root(g), steps.close(terminal))


# ---------------------------------------------------------------------------
# Separator for a clique / independent-set pair.
# ---------------------------------------------------------------------------

def clique_independent_separator(
    g: Graph, clique: set[int] | frozenset[int], indep: set[int] | frozenset[int]
) -> frozenset[int]:
    """At most four vertices hitting every edge between a clique and an
    independent set, in a (diamond, 2P1+P3)-free graph."""
    c, i_set = frozenset(clique), frozenset(indep)
    if c & i_set:
        raise ValueError("clique and independent set must be disjoint")
    for u in c:
        for v in c:
            if u < v and not g.has_edge(u, v):
                raise ValueError("first argument is not a clique")
    for u in i_set:
        for v in i_set:
            if u < v and g.has_edge(u, v):
                raise ValueError("second argument is not independent")
    _require_free(g, ["diamond", "2P1+P3"])

    cross = [(u, v) for u in c for v in i_set if g.has_edge(u, v)]
    if not cross:
        return frozenset()
    if min(len(i_set), len(c)) <= 4:
        return c if len(c) <= len(i_set) else i_set

    sep: set[int] = set()
    complete = sorted(v for v in i_set if c <= g.neighbors(v))
    if len(complete) > 1:
        raise _contradiction("two independent vertices are complete to the clique")
    rest = i_set - set(complete)
    sep.update(complete)
    for v in rest:
        if len(g.neighbors(v) & c) > 1:
            raise _contradiction(
                "an independent vertex has several but not all clique neighbours"
            )
    heavy = next(
        (
            x
            for x in sorted(c)
            if len(g.neighbors(x) & rest) >= len(rest) - 1
        ),
        None,
    )
    if heavy is not None:
        sep.add(heavy)
        leftover = [v for v in rest if not g.has_edge(heavy, v)]
        for v in leftover:
            nbr = sorted(g.neighbors(v) & c)
            if nbr:
                sep.add(nbr[0])
        if len(sep) > 4:
            raise _contradiction("separator exceeded four vertices")
        return frozenset(sep)
    for x in c:
        if len(g.neighbors(x) & rest) > 1:
            raise _contradiction("a clique vertex keeps two independent neighbours")
    remaining = [(u, v) for u in c for v in rest if g.has_edge(u, v)]
    if remaining:
        raise _contradiction("a matching between clique and independent set survived")
    return frozenset(sep)


# ---------------------------------------------------------------------------
# Clique-or-independence branching.
# ---------------------------------------------------------------------------

class Branch(Enum):
    K_FREE = "KFree"
    INDEPENDENCE_BOUND = "IndepBound"


def clique_or_independence_branch(g: Graph, s: int, t: int) -> Branch:
    """Every (co(sP1+P2), tP1+P2)-free graph is K_{s+1}-free or has
    independence number below s^2(t-1)+2; report which branch holds."""
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    co_spec = f"co({s}P1+P2)" if s >= 1 else "co(P2)"
    t_spec = f"{t}P1+P2" if t >= 1 else "P2"
    _require_free(g, [co_spec, t_spec])
    if contains_induced(g, realize_text(f"K{s + 1}")) is None:
        return Branch.K_FREE
    bound = s * s * (t - 1) + 2
    if not is_free(g, [f"{bound}P1"])[0]:
        raise _contradiction(
            f"graph contains K{s + 1} and an independent set of size {bound}"
        )
    return Branch.INDEPENDENCE_BOUND


# ---------------------------------------------------------------------------
# Lemma steps shared by the theorem certifiers.
#
# Each certifier branch works around an induced cycle.  ``_cycle_classes``
# groups the off-cycle vertices of a working graph by the set of cycle
# vertices each one sees, so every class the lemmas name is one lookup.  A
# step that several branches take is written once here, and each deletion
# justification has one call site; only ``cycle-vertices`` is deleted by
# every cycle branch on its own.  A call site passes the facts (a cycle
# length, a per-pair limit, a cover size) that ``certificate.DELETE_RULES``
# turns into its bound, and ``_Steps.delete`` raises above that bound.
# ---------------------------------------------------------------------------

def _cycle_pairs(cyc: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(consecutive, non-consecutive) vertex pairs of an induced cycle."""
    k = len(cyc)
    consecutive = [(cyc[i], cyc[(i + 1) % k]) for i in range(k)]
    non_consecutive = []
    for i in range(k):
        for j in range(i + 1, k):
            if j - i not in (1, k - 1):
                non_consecutive.append((cyc[i], cyc[j]))
    return consecutive, non_consecutive


def _assert_clique(g: Graph, vs: set[int] | frozenset[int], what: str) -> None:
    for u in vs:
        for v in vs:
            if u < v and not g.has_edge(u, v):
                raise _contradiction(f"{what} is not a clique ({u} !~ {v})")


def _assert_independent(g: Graph, vs: set[int] | frozenset[int], what: str) -> None:
    for u in vs:
        for v in vs:
            if u < v and g.has_edge(u, v):
                raise _contradiction(f"{what} is not independent ({u} ~ {v})")


def _cycle_classes(g: Graph, cyc: tuple[int, ...]) -> dict[frozenset[int], set[int]]:
    """The off-cycle vertices of ``g`` grouped by the set of cycle vertices
    each one sees; only non-empty classes are keys."""
    on_cycle = frozenset(cyc)
    classes: dict[frozenset[int], set[int]] = {}
    for v in g.vertices:
        if v not in on_cycle:
            classes.setdefault(g.neighbors(v) & on_cycle, set()).add(v)
    return classes


def _seeing(classes: dict[frozenset[int], set[int]], *seen: int) -> set[int]:
    """The class of the vertices that see exactly the cycle vertices ``seen``."""
    return classes.get(frozenset(seen), set())


def _split(work: Graph, a: frozenset[int], a_node: Node, b: frozenset[int], b_node: Node) -> Node:
    """Split ``work`` into parts ``a`` and ``b`` with their nodes, listed by
    least vertex; no edge of ``work`` may cross."""
    for u, v in work.edges():
        if (u in a) != (v in a):
            raise _contradiction(f"edge ({u},{v}) crosses a component split")
    if min(b) < min(a):
        a, a_node, b, b_node = b, b_node, a, a_node
    return SplitComponentsStep((tuple(sorted(a)), tuple(sorted(b))), (a_node, b_node))


def _delete_nonconsecutive_common_neighbours(
    steps: _Steps, cyc: tuple[int, ...], per_pair: int
) -> None:
    """Delete the common neighbours of every non-consecutive cycle pair: at
    most ``per_pair`` for each pair, and independent, as two adjacent ones
    would form a diamond with the pair."""
    _, non_consecutive = _cycle_pairs(cyc)
    work, on_cycle = steps.work, set(cyc)
    doomed: set[int] = set()
    for a, b in non_consecutive:
        common = (work.neighbors(a) & work.neighbors(b)) - on_cycle
        _assert_independent(work, common, "a non-consecutive common neighbourhood")
        if len(common) > per_pair:
            raise _contradiction(
                f"a non-consecutive cycle pair has over {per_pair} common neighbours"
            )
        doomed |= common
    if doomed:
        steps.delete(
            doomed,
            "common-neighbours-of-nonconsecutive-cycle-pair",
            per_pair=per_pair,
            length=len(cyc),
        )


def _consecutive_cover(
    work: Graph, cyc: tuple[int, ...], isolated_joins_first: bool
) -> list[frozenset[int]]:
    """Clique cover of the off-cycle vertices once none sees a
    non-consecutive cycle pair: one class per consecutive pair, one per
    cycle vertex seen alone, and the vertices that see none, which with
    ``isolated_joins_first`` join the class of ``cyc[0]``."""
    classes = _cycle_classes(work, cyc)
    consecutive, _ = _cycle_pairs(cyc)
    seen = [frozenset(p) for p in consecutive] + [frozenset((a,)) for a in cyc]
    seen.append(frozenset())
    if not classes.keys() <= set(seen):
        raise _contradiction("a vertex sees non-consecutive cycle vertices")
    parts = [classes.get(s, set()) for s in seen]
    if isolated_joins_first:
        parts[len(cyc)] = parts[len(cyc)] | parts.pop()
    for part in parts:
        _assert_clique(work, part, "a cycle-neighbourhood class")
    return [frozenset(p) for p in parts if p]


def _delete_consecutive_common_neighbours(steps: _Steps, cyc: tuple[int, ...]) -> None:
    """Per consecutive cycle pair, delete their common neighbourhood (a
    clique of at most four vertices when K5-free)."""
    consecutive, _ = _cycle_pairs(cyc)
    on_cycle = set(cyc)
    for a, b in consecutive:
        work = steps.work
        common = (work.neighbors(a) & work.neighbors(b)) - on_cycle
        if not common:
            continue
        _assert_clique(work, common, "a consecutive-pair common neighbourhood")
        steps.delete(common, "consecutive-pair-common-neighbours")


def _c4_classes(
    work: Graph, order: tuple[int, ...]
) -> tuple[dict[int, set[int]], dict[int, set[int]], set[int]]:
    """Pendant classes ``W[i]`` (seeing ``order[i - 1]`` only), opposite-pair
    classes ``V[1]`` (seeing ``order[1]`` and ``order[3]``) and ``V[2]``
    (``order[0]`` and ``order[2]``), and the class that sees no vertex of
    the C4 ``order``, once no vertex sees a consecutive pair."""
    classes = _cycle_classes(work, order)
    if any(len(seen) >= 3 for seen in classes):
        raise _contradiction("a vertex sees three vertices of the C4")
    consecutive, _ = _cycle_pairs(order)
    if any(frozenset(p) in classes for p in consecutive):
        raise _contradiction("a consecutive-pair neighbour survived deletion")
    a1, a2, a3, a4 = order
    w_sets = {i: _seeing(classes, order[i - 1]) for i in (1, 2, 3, 4)}
    v_sets = {1: _seeing(classes, a2, a4), 2: _seeing(classes, a1, a3)}
    return w_sets, v_sets, _seeing(classes)


def _first_case(
    g: Graph, cases: list[tuple[str, Callable[[Graph, tuple[int, ...]], Node]]]
) -> Node:
    """The node of the first case whose pattern ``g`` contains, built from
    the image of its least copy.  A case list holds every hole a member of
    its class can contain, so with no case ``g`` is chordal."""
    for spec, branch in cases:
        emb = contains_induced(g, realize_text(spec))
        if emb is not None:
            return branch(g, emb.image())
    chordal, hole = is_chordal(g)
    if not chordal:
        raise _contradiction(f"unexpected induced hole {hole}")
    return BaseLeaf(CHORDAL_DIAMOND_FREE)


# ---------------------------------------------------------------------------
# Certifier for (diamond, 3P1+P2)-free graphs.
# ---------------------------------------------------------------------------

def certify_diamond_3p1p2(g: Graph) -> Certificate:
    """Certificate for a (diamond, 3P1+P2)-free graph.

    A triangle-free member is a base leaf.  A member with a triangle is
    10P1-free (``clique_or_independence_branch``), so alpha <= 9.  Around an
    induced C5 or C7, common neighbours of non-consecutive cycle vertices
    are deleted and the rest falls into cliques by the cycle vertices each
    one sees.  With no induced C5 or C7 the graph is perfect: an odd hole on
    9 or more vertices contains 3P1+P2, an odd antihole on 7 or more
    contains a diamond, and C5 is its own complement, so by the Strong
    Perfect Graph Theorem (Chudnovsky, Robertson, Seymour and Thomas, Ann.
    of Math. 2006) a minimum clique cover has alpha <= 9 parts.  That cover
    is computed exactly, up to 24 vertices (``clique_cover_exact``).
    """
    # The branch checks membership: co(2P1+P2) is the diamond.
    branch = clique_or_independence_branch(g, 2, 3)
    if branch is Branch.K_FREE:
        return Certificate(certificate_root(g), BaseLeaf(K3_K13P2_FREE))

    emb = contains_induced(g, realize_text("C5")) or contains_induced(g, realize_text("C7"))
    steps = _Steps(g)
    if emb is not None:
        cyc = emb.image()
        _delete_nonconsecutive_common_neighbours(steps, cyc, 9)
        # Survivors see at most two, necessarily consecutive, cycle vertices.
        cover = _consecutive_cover(steps.work, cyc, isolated_joins_first=False)
        steps.delete(cyc, "cycle-vertices", length=len(cyc))
    else:
        cover = clique_cover_exact(g)
        if len(cover) > 9:
            raise _contradiction("a perfect member needs over 9 cover cliques")

    return Certificate(certificate_root(g), _close_by_cover(steps, cover))


# ---------------------------------------------------------------------------
# Certifier for (diamond, 2P1+P3)-free graphs.
# ---------------------------------------------------------------------------

def certify_diamond_2p1p3(g: Graph) -> Certificate:
    _require_free(g, ["diamond", "2P1+P3"])
    cases = [("C4", _certify_2p1p3_around_c4)]
    cases += [(f"C{length}", _certify_2p1p3_around_long_cycle) for length in (5, 6, 7)]
    return Certificate(certificate_root(g), _first_case(g, cases))


def _certify_2p1p3_around_c4(g: Graph, cyc: tuple[int, ...]) -> Node:
    v1, v2, v3, v4 = cyc
    classes = _cycle_classes(g, cyc)
    if any(len(seen) >= 3 for seen in classes):
        raise _contradiction("a vertex sees three vertices of an induced C4")

    consecutive, _ = _cycle_pairs(cyc)
    cliques = [_seeing(classes) | _seeing(classes, v1)]
    cliques += [_seeing(classes, a) for a in (v2, v3, v4)]
    cliques += [_seeing(classes, a, b) for a, b in consecutive]
    for part in cliques:
        _assert_clique(g, part, "a C4 neighbourhood class")
    indeps = [_seeing(classes, v2, v4), _seeing(classes, v1, v3)]
    for part in indeps:
        _assert_independent(g, part, "an opposite-pair class")

    separators: set[int] = set()
    for c_part in cliques:
        if not c_part:
            continue
        for i_part in indeps:
            if not i_part:
                continue
            separators |= clique_independent_separator(g, c_part, i_part)
    steps = _Steps(g)
    if separators:
        steps.delete(separators, "clique-independent-separators")
    steps.delete(cyc, "cycle-vertices", length=len(cyc))
    work = steps.work

    bip_part = frozenset((indeps[0] | indeps[1]) - separators)
    clique_part = frozenset(work.vertices) - bip_part
    cover = [frozenset(p - separators) for p in cliques if p - separators]

    if bip_part and clique_part:
        clique_node = _close_by_cover(_Steps(induced_subgraph(work, clique_part)), cover)
        return steps.close(
            _split(work, clique_part, clique_node, bip_part, BaseLeaf(BIPARTITE_H_FREE, h="2P1+P3"))
        )
    if bip_part:
        return steps.close(BaseLeaf(BIPARTITE_H_FREE, h="2P1+P3"))
    return _close_by_cover(steps, cover)


def _certify_2p1p3_around_long_cycle(g: Graph, cyc: tuple[int, ...]) -> Node:
    steps = _Steps(g)
    _delete_nonconsecutive_common_neighbours(steps, cyc, 1)
    # The vertices that see no cycle vertex and those that see cyc[0] alone
    # form one clique.
    cover = _consecutive_cover(steps.work, cyc, isolated_joins_first=True)
    steps.delete(cyc, "cycle-vertices", length=len(cyc))
    return _close_by_cover(steps, cover)


# ---------------------------------------------------------------------------
# Certifier for (diamond, P2+P3)-free graphs.
# ---------------------------------------------------------------------------

def certify_diamond_p2p3(g: Graph) -> Certificate:
    _require_free(g, ["diamond", "P2+P3"])
    cases = [
        ("K5", _certify_p2p3_with_k5),
        ("C5", _certify_p2p3_with_c5),
        ("C4", _certify_p2p3_with_c4),
        ("C6", _certify_p2p3_with_c6),
    ]
    return Certificate(certificate_root(g), _first_case(g, cases))


def _certify_p2p3_with_k5(g: Graph, _: tuple[int, ...]) -> Node:
    # The K5 the branch builds on is found in the pruned graph it works on.
    steps = _Steps(g)
    steps.prune()
    work = steps.work
    k5 = contains_induced(work, realize_text("K5"))
    if k5 is None:
        raise _contradiction("pruning destroyed every K5")
    x_clique = set(k5.image())
    for v in sorted(work.vertices):
        if v not in x_clique and x_clique <= work.neighbors(v):
            x_clique.add(v)
    outside = set(work.vertices) - x_clique
    for v in outside:
        if len(work.neighbors(v) & x_clique) > 1:
            raise _contradiction("an outside vertex sees two maximal-clique vertices")
    rest = induced_subgraph(work, outside)
    if find_induced_p3(rest) is not None:
        raise _contradiction("the graph minus the clique holds a P3")
    comps = components(rest)
    if len(comps) == 0:
        return steps.close(BaseLeaf(DISJOINT_CLIQUES))
    if len(comps) == 1:
        steps.complement(work.vertices)
        return steps.close(BaseLeaf(BIPARTITE_H_FREE, h="2P1+P2"))
    attached = [x for x in x_clique if any(v in outside for v in work.neighbors(x))]
    if len(attached) > 2:
        # Components that never touch the clique split off as cliques; the
        # clique with the one component that touches it complements as in
        # the one-component case.
        touching = [c for c in comps if any(work.neighbors(v) & x_clique for v in c)]
        if len(touching) > 1:
            raise _contradiction("three clique vertices keep outside neighbours")
        core = frozenset(x_clique | touching[0])
        core_steps = _Steps(induced_subgraph(work, core))
        core_steps.complement(core)
        core_node = core_steps.close(BaseLeaf(BIPARTITE_H_FREE, h="2P1+P2"))
        detached = frozenset(work.vertices) - core
        return steps.close(_split(work, core, core_node, detached, BaseLeaf(DISJOINT_CLIQUES)))
    if attached:
        steps.delete(attached, "clique-vertices-with-outside-neighbours")
    return steps.close(BaseLeaf(DISJOINT_CLIQUES))


def _certify_p2p3_with_c5(g: Graph, cyc: tuple[int, ...]) -> Node:
    steps = _Steps(g)
    _delete_consecutive_common_neighbours(steps, cyc)

    # Every pair of C5 vertices is consecutive or at distance two, so the
    # vertices left see one cycle vertex, a distance-two pair, or none.
    classes = _cycle_classes(steps.work, cyc)
    if any(len(seen) >= 3 for seen in classes):
        raise _contradiction("a vertex still sees three cycle vertices")
    singles = [vs for seen, vs in classes.items() if len(seen) == 1]
    if any(len(vs) > 1 for vs in singles):
        raise _contradiction("two vertices hang off one cycle vertex")
    if singles:
        steps.delete(set().union(*singles), "single-cycle-neighbour-vertices")

    work = steps.work
    k = len(cyc)
    v_sets = [_seeing(classes, cyc[i - 1], cyc[(i + 1) % k]) for i in range(k)]
    x_set = _seeing(classes)
    for part in v_sets:
        _assert_independent(work, part, "a distance-two class")
    _assert_independent(work, x_set, "the cycle-free class")

    small_parts = [p for p in [x_set, *v_sets] if p and len(p) < 3]
    for part in sorted(small_parts, key=min):
        steps.delete(part, "small-class")
    steps.delete(cyc, "cycle-vertices", length=len(cyc))

    survivors = [frozenset(v for v in p if steps.work.has_vertex(v)) for p in v_sets]
    for i in range(k):
        a, b = survivors[i], survivors[(i + 1) % k]
        if a and b:
            steps.bipartite_complement(a, b)
    if steps.work.max_degree() > 2:
        raise _contradiction("complemented C5 decomposition kept degree above 2")
    return steps.close(BaseLeaf(MAX_DEGREE_2))


def _certify_p2p3_with_c6(g: Graph, cyc: tuple[int, ...]) -> Node:
    steps = _Steps(g)
    _delete_consecutive_common_neighbours(steps, cyc)
    _delete_nonconsecutive_common_neighbours(steps, cyc, 1)
    # What is left is the C6 and isolated vertices.
    classes = _cycle_classes(steps.work, cyc)
    if classes.keys() - {frozenset()}:
        raise _contradiction("an off-cycle vertex still touches the C6")
    _assert_independent(steps.work, _seeing(classes), "the off-cycle class")
    return steps.close(BaseLeaf(MAX_DEGREE_2))


def _certify_p2p3_with_c4(g: Graph, cyc: tuple[int, ...]) -> Node:
    steps = _Steps(g)
    _delete_consecutive_common_neighbours(steps, cyc)
    w_sets, _, _ = _c4_classes(steps.work, cyc)

    # Opposite pendant classes cannot both be populated; when they are, each
    # holds a single vertex and both go.
    for a, b in ((1, 3), (2, 4)):
        if w_sets[a] and w_sets[b]:
            steps.delete(w_sets[a] | w_sets[b], "opposite-pendant-pair")
    # Rotate the cycle labelling so pendant classes sit at positions 1, 2.
    v1, v2, v3, v4 = cyc
    candidates = [
        (v1, v2, v3, v4), (v2, v3, v4, v1), (v3, v4, v1, v2), (v4, v1, v2, v3),
        (v1, v4, v3, v2), (v4, v3, v2, v1), (v3, v2, v1, v4), (v2, v1, v4, v3),
    ]
    work = steps.work
    for order in candidates:
        w_sets, v_sets, x_set = _c4_classes(work, order)
        if not w_sets[3] and not w_sets[4]:
            break
    else:
        raise _contradiction("no cycle labelling clears both far pendant classes")

    for i in (1, 2, 3, 4):
        _assert_independent(work, w_sets[i], "a pendant class")
    for i in (1, 2):
        _assert_independent(work, v_sets[i], "an opposite-pair class")
    _assert_independent(work, x_set, "the cycle-free class")
    for i in (1, 2, 3, 4):
        for x in x_set:
            if work.neighbors(x) & w_sets[i]:
                raise _contradiction("cycle-free class touches a pendant class")

    # Pendants of one side adjacent to pendants of the other side split off
    # as a bipartite piece after two complementations.
    star = {s: {v for v in w_sets[s] if work.neighbors(v) & w_sets[3 - s]} for s in (1, 2)}
    if not (star[1] or star[2]):
        return steps.close(_certify_p2p3_c4_core(work, order))
    for side in (1, 2):
        for v in sorted(star[side]):
            if not (v_sets[side] <= work.neighbors(v)):
                raise _contradiction("a crossing pendant misses part of its far pair class")
            if work.neighbors(v) & (v_sets[3 - side] | x_set):
                raise _contradiction("a crossing pendant touches the wrong side")
    for side in (1, 2):
        if star[side]:
            steps.bipartite_complement(star[side], v_sets[side] | {order[side - 1]})
    work = steps.work
    star_part = frozenset(star[1] | star[2])
    rest_part = frozenset(work.vertices) - star_part
    rest_node = _certify_p2p3_c4_core(induced_subgraph(work, rest_part), order)
    return steps.close(
        _split(work, rest_part, rest_node, star_part, BaseLeaf(BIPARTITE_H_FREE, h="P2+P3"))
    )


def _certify_p2p3_c4_core(work: Graph, order: tuple[int, ...]) -> Node:
    """The C4 decomposition after pendant classes 3, 4 and the crossing
    pendants have been cleared."""
    steps = _Steps(work)
    w_sets, v_sets, x_set = _c4_classes(work, order)

    isolated = {
        x for x in x_set if not (work.neighbors(x) & (v_sets[1] | v_sets[2]))
    }
    if isolated:
        main_part = frozenset(work.vertices) - isolated
        main_node = _certify_p2p3_c4_core(induced_subgraph(work, main_part), order)
        return _split(
            work, main_part, main_node, frozenset(isolated), BaseLeaf(DISJOINT_CLIQUES)
        )

    x0 = {
        x
        for x in x_set
        if work.neighbors(x) & v_sets[1] and work.neighbors(x) & v_sets[2]
    }
    x1 = {x for x in x_set if work.neighbors(x) & v_sets[1] and x not in x0}
    x2 = {x for x in x_set if work.neighbors(x) & v_sets[2] and x not in x0}

    if not x0:
        steps.delete(order, "cycle-vertices", length=len(order))
        ok, _ = is_bipartite(steps.work)
        if not ok:
            raise _contradiction("expected a bipartite remainder around the C4")
        return steps.close(BaseLeaf(BIPARTITE_H_FREE, h="P2+P3"))

    for side in (1, 2):
        for y in sorted(v_sets[side]):
            if work.neighbors(y) & x_set and not (v_sets[3 - side] <= work.neighbors(y)):
                raise _contradiction("a pair vertex with an outside neighbour misses its twin class")
    for x in sorted(x0):
        if len(work.neighbors(x) & v_sets[1]) != 1 or len(work.neighbors(x) & v_sets[2]) != 1:
            raise _contradiction("a doubly attached vertex lacks unique attachments")

    # A pair vertex with two doubly-attached neighbours forces every doubly
    # attached vertex onto it; deleting it empties the class.
    for side in (1, 2):
        hub = next(
            (
                y
                for y in sorted(v_sets[side])
                if len(work.neighbors(y) & x0) >= 2
            ),
            None,
        )
        if hub is not None:
            for x in x0:
                if not work.has_edge(hub, x):
                    raise _contradiction("a doubly attached vertex avoids the shared hub")
            steps.delete((hub,), "shared-attachment-hub")
            return steps.close(_certify_p2p3_c4_core(steps.work, order))

    cross_w2 = [v for v in w_sets[2] if work.neighbors(v) & v_sets[1]]
    cross_w1 = [v for v in w_sets[1] if work.neighbors(v) & v_sets[2]]
    if len(cross_w2) > 1 or len(cross_w1) > 1:
        raise _contradiction("two pendants reach across the C4 decomposition")
    if cross_w1 or cross_w2:
        steps.delete(cross_w1 + cross_w2, "cross-attached-pendants")
        return steps.close(_certify_p2p3_c4_core(steps.work, order))

    v1p = {y for y in v_sets[1] if work.neighbors(y) & x0}
    v2p = {y for y in v_sets[2] if work.neighbors(y) & x0}
    pend: dict[int, set[int]] = {}
    comp: dict[int, set[int]] = {}
    for side, vp in ((1, v1p), (2, v2p)):
        attach = {
            wx
            for wx in (w_sets[side] | (x1 if side == 1 else x2))
            if work.neighbors(wx) & vp
        }
        pend[side] = {
            wx
            for wx in attach
            if len(work.neighbors(wx) & v_sets[side]) == 1
            and (work.neighbors(wx) & v_sets[side]) <= vp
        }
        comp[side] = attach - pend[side]
        for wx in comp[side]:
            if not (vp <= work.neighbors(wx)):
                raise _contradiction(
                    "an attached vertex is neither single-attached nor complete"
                )

    steps.delete(order, "cycle-vertices", length=len(order))
    for side, vp in ((1, v1p), (2, v2p)):
        if vp and comp[side]:
            steps.bipartite_complement(vp, comp[side])
    for vp, other_v, other_vp in ((v1p, v_sets[2], v2p), (v2p, v_sets[1], v1p)):
        far = other_v - other_vp
        if vp and far:
            steps.bipartite_complement(vp, far)
    work = steps.work

    tree_part = frozenset(pend[1] | pend[2] | v1p | v2p | x0)
    rest_part = frozenset(work.vertices) - tree_part

    def tree_terminal(sub: Graph) -> Node:
        inner = _Steps(sub)
        if v1p and v2p:
            inner.bipartite_complement(v1p, v2p)
        if not is_forest(inner.work):
            raise _contradiction("the attachment part is not a forest")
        return inner.close(BaseLeaf(FOREST))

    if rest_part:
        tree_node = tree_terminal(induced_subgraph(work, tree_part))
        return steps.close(
            _split(work, tree_part, tree_node, rest_part, BaseLeaf(BIPARTITE_H_FREE, h="P2+P3"))
        )
    return steps.close(tree_terminal(work))
