"""k-expressions: AST, grammar, evaluator, verifier, and an exact solver.

A k-expression builds a labelled graph with four operations: create a
labelled vertex, disjoint union, join two label classes, rename a label.
No reader of an expression recurses, so any depth works: ``_walk``'s explicit
stack serves labels, evaluation and rewriting; printer and parser keep their own.
The exact solver searches the space of reachable labelled-graph states.

Solver normal form.  Every buildable graph has an optimal construction in
which, after each operation, the evaluated labelled graph equals the target
graph induced on the vertices created so far:

* joins never add a pair that is a non-edge of the target (such an edge can
  never be removed), so a join on classes (A, B) is only possible when A is
  complete to B in the target;
* once two vertices share a label they receive the same edges forever, so a
  target edge pending between two classes forces those classes to be joined
  eventually, and all pairs between them must be target edges anyway --
  performing the join immediately is harmless;
* therefore a state is fully described by (vertex subset S, label partition
  of S), with the edge set implicitly equal to the target's edges inside S.

States are evaluated on demand, top-down from the full vertex set: the
states of a subset are built, and memoised, the first time a split of a
larger subset asks for them.  Singletons are created, two states on disjoint
subsets are combined by disjoint union (same-label classes of the two
operands fuse, which is expressed by a partial matching between their
classes), forced joins are applied, and renames merge classes whose members
agree on their neighbourhood outside S.

Twin classes.  Every class of a state on S is therefore a set of twins
towards V - S: a created singleton trivially, and fusion and renames only
join classes with equal signatures outside S.  So a state on S has at least
t(S) classes, where t(S) counts the distinct neighbourhoods outside S among
the vertices of S, and the search skips every S with t(S) > k.  For the same
reason each class of one union operand is complete or anticomplete to each
class of the other, so only a fused class can make a forced join fail.

Decomposition.  Clique-width survives substitution: the width of Q[M1..Mk]
is the maximum of the widths of Q and of the Mi (Courcelle & Olariu, *Upper
bounds to the clique width of graphs*, 2000).  So before searching, the
solver looks for a nontrivial module M, solves G[M] and the quotient G/M
(M contracted to its least vertex) apart, and composes the witnesses: the
representative's Create(l) leaf becomes the module's expression followed by
renames of its labels onto l.  Only prime graphs and graphs on at most two
vertices reach the subset search; a disjoint union or a join of smaller
graphs is never searched whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import (
    Graph, SizeLimitError, bit_adjacency, components, find_hole, find_induced_p3, is_forest
)
from .namedgraphs import Scanner, realize_text
from .search import Embedding, are_isomorphic, contains_induced

SOLVER_LIMIT = 10
KMAX_LIMIT = 6


class KExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class KExprEvalError(ValueError):
    """Raised when evaluating a structurally invalid expression."""


class ExpressionPreconditionError(ValueError):
    """A constructive builder was fed a graph outside its class."""

    def __init__(self, message: str, witness: object):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Create:
    label: int


@dataclass(frozen=True)
class Union:
    left: "KExpression"
    right: "KExpression"


@dataclass(frozen=True)
class Join:
    i: int
    j: int
    child: "KExpression"


@dataclass(frozen=True)
class Rename:
    i: int
    j: int
    child: "KExpression"


KExpression = Create | Union | Join | Rename


@dataclass(frozen=True)
class LabelledGraph:
    graph: Graph
    labels: dict[int, int]


def _walk(e: KExpression) -> Iterator[tuple[KExpression, bool]]:
    """Each node of ``e`` as (node, False) before its children and as
    (node, True) after them, children left to right, from an explicit stack."""
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        yield node, done
        if not done:
            stack.append((node, True))
            if isinstance(node, Union):
                stack += ((node.right, False), (node.left, False))
            elif not isinstance(node, Create):
                stack.append((node.child, False))


def expr_labels(e: KExpression) -> set[int]:
    """All labels appearing anywhere in the expression."""
    labels: set[int] = set()
    for node, done in _walk(e):
        if isinstance(node, Create):
            labels.add(node.label)
        elif not done and not isinstance(node, Union):
            labels.update((node.i, node.j))
    return labels


def width(e: KExpression) -> int:
    return len(expr_labels(e))


def _rebuild(e: KExpression, mapping: dict[int, int], leaf: Callable) -> KExpression:
    """``e`` with every label rewritten through ``mapping`` (identity when
    absent) and then each Create leaf c, left to right, replaced by leaf(c)."""
    built: list[KExpression] = []
    for node in (node for node, done in _walk(e) if done):
        if isinstance(node, Union):
            built[-2:] = [Union(*built[-2:])]
        elif isinstance(node, Create):
            built.append(leaf(Create(mapping.get(node.label, node.label))))
        else:
            i, j = mapping.get(node.i, node.i), mapping.get(node.j, node.j)
            built.append(type(node)(i, j, built.pop()))
    return built[0]


def substitute_labels(e: KExpression, mapping: dict[int, int]) -> KExpression:
    """Rewrite every label through ``mapping`` (identity when absent)."""
    return _rebuild(e, mapping, lambda c: c)


def eval_expression(e: KExpression) -> LabelledGraph:
    """Evaluate to a labelled graph; vertex ids follow creation order.  An
    operand keeps its vertices by label, so a union merges the smaller operand
    into the larger, a join adds the pairs it connects and a rename moves one
    list; the first invalid node in preorder raises."""
    adj: list[set[int]] = []
    operands: list[dict[int, list[int]]] = []
    for node, done in _walk(e):
        if not done:
            if isinstance(node, Create) and node.label < 1:
                raise KExprEvalError(f"labels must be positive, got {node.label}")
            if isinstance(node, Join) and node.i == node.j:
                raise KExprEvalError(f"join requires two distinct labels, got ({node.i},{node.j})")
        elif isinstance(node, Create):
            operands.append({node.label: [len(adj)]})
            adj.append(set())
        elif isinstance(node, Union):
            small, large = sorted((operands.pop(), operands.pop()), key=len)
            for label, vs in small.items():
                _merge(large, label, vs)
            operands.append(large)
        elif isinstance(node, Join):
            ci, cj = operands[-1].get(node.i, ()), operands[-1].get(node.j, ())
            for side, other in ((ci, cj), (cj, ci)):
                for u in side:
                    adj[u].update(other)
        elif node.i in operands[-1]:
            _merge(operands[-1], node.j, operands[-1].pop(node.i))
    labels = {v: label for label, vs in operands[0].items() for v in vs}
    edges = ((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)
    return LabelledGraph(Graph(range(len(adj)), edges), dict(sorted(labels.items())))


def _merge(by_label: dict[int, list[int]], label: int, vs: list[int]) -> None:
    """Add ``vs`` to the class ``label``, extending the longer list by the shorter."""
    shorter, longer = sorted((by_label.get(label, []), vs), key=len)
    longer.extend(shorter)
    by_label[label] = longer


# ---------------------------------------------------------------------------
# Text grammar.
# ---------------------------------------------------------------------------

def print_expression(e: KExpression) -> str:
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Create):
            out.append(f"v{node.label}")
        elif isinstance(node, Union):
            stack += (")", node.right, " | ", node.left, "(")
        elif isinstance(node, Join):
            stack += (")", node.child, f"j({node.i},{node.j},")
        else:
            stack += (")", node.child, f"r({node.i}->{node.j},")
    return "".join(out)


def _label(s: Scanner) -> int:
    s.peek()
    start = s.pos
    label = s.integer()
    if label < 1:
        raise KExprSyntaxError("labels must be positive", start)
    return label


def _expr(s: Scanner) -> KExpression:
    # The nodes open above the one being read: None for a union before its
    # "|", then its left operand; (Join or Rename, i, j) for the others.
    above: list = []
    while True:
        ch = s.peek()
        if ch not in ("v", "(", "j", "r"):
            raise KExprSyntaxError("expected an expression", s.pos)
        s.pos += 1
        if ch == "(":
            above.append(None)
        elif ch != "v":
            # j(i,j,e) and r(i->j,e) differ only in the separator and the node.
            s.expect("(")
            i = _label(s)
            s.expect("," if ch == "j" else "->")
            j = _label(s)
            s.expect(",")
            above.append((Join if ch == "j" else Rename, i, j))
        else:
            node: KExpression = Create(_label(s))
            while above and above[-1] is not None:
                s.expect(")")
                top = above.pop()
                node = top[0](top[1], top[2], node) if isinstance(top, tuple) else Union(top, node)
            if not above:
                return node
            s.expect("|")
            above[-1] = node


def parse_expression(text: str) -> KExpression:
    return Scanner(text, KExprSyntaxError, "a label").read_all(_expr)


def verify_expression(e: KExpression, g: Graph) -> bool:
    """True iff the expression evaluates to a graph isomorphic to ``g``."""
    labelled = eval_expression(e)
    return are_isomorphic(labelled.graph, g) is not None


# ---------------------------------------------------------------------------
# Exact solver.
# ---------------------------------------------------------------------------

def _twin_counts(masks: list[int], n: int) -> bytes:
    """t(S) for every vertex subset S: the number of distinct neighbourhoods
    outside S among the vertices of S."""
    return bytes(len({masks[v] & ~s for v in range(n) if s >> v & 1}) for s in range(1 << n))


def _matchings(open_js: list[tuple[int, list[int]]], least: int, x: int, used: int,
               pairs: list[tuple[int, int]], out: list[list[tuple[int, int]]]) -> None:
    """Append to ``out`` every extension of ``pairs`` that gives each j of
    open_js[x:] nothing or one of its i, no i twice (``used`` holds the i
    already taken), and has at least ``least`` pairs.  Depth first, trying
    nothing before each i in turn."""
    # Even matching every remaining j cannot reach ``least``.
    if len(pairs) + len(open_js) - x < least:
        return
    if x == len(open_js):
        out.append(pairs)
        return
    _matchings(open_js, least, x + 1, used, pairs, out)
    j, found = open_js[x]
    for i in found:
        if not used >> i & 1:
            _matchings(open_js, least, x + 1, used | 1 << i, pairs + [(i, j)], out)


def _search(masks: list[int], n: int, k: int, twins: bytes):
    """Reachability over (subset, partition) states with at most k classes.

    Returns ((S, goal), states, rep), or None when the goal is unreachable.
    S is the full vertex set and goal the first partition reached on it;
    states maps each subset that was built to a dict from partition to the
    record of how it was first reached; rep[m] is the neighbour mask of the
    least vertex of m.  A subset is built when a split of a larger one first
    asks for it, starting from the full set, so subsets that no split asks
    for before the goal is found are never built.  Deterministic: the states
    of S depend only on those of its proper subsets, splits are walked in a
    fixed order, partitions are sorted tuples of class bitmasks, and
    insertion order fixes the records.

    Every class of a state on S is a set of twins towards V - S, so subsets
    with t(S) > k get no states (see the module docstring).  ``twins`` is
    ``_twin_counts(masks, n)``, which one prime part shares across its k
    levels.
    """
    full = (1 << n) - 1
    common_cache: dict[int, int] = {}

    def common_mask(m: int) -> int:
        r = common_cache.get(m)
        if r is None:
            r, t = full, m
            while t:
                low = t & -t
                t ^= low
                r &= masks[low.bit_length() - 1]
            common_cache[m] = r
        return r

    # The neighbour mask of each class's least vertex.  Every class is a
    # set of twins towards the vertices outside its subset, so this mask
    # stands for all of the class there.
    rep = [0] * (full + 1)
    for v in range(n):
        rep[1 << v :: 2 << v] = [masks[v]] * (1 << (n - 1 - v))

    def union_products(p1, sig1, p2, sig2, s1: int, s2: int) -> list[tuple]:
        """The partitions of s1 | s2 that the union of p1 and p2 reaches
        with at most k classes, in matching order.  sig1 and sig2 hold each
        class's signature outside s1 | s2."""
        p, q = len(p1), len(p2)
        least = p + q - k  # fused class pairs needed to fit in k classes
        open_js = []
        if not set(sig1).isdisjoint(sig2):
            if least > 0:
                # Only classes with equal signatures fuse, so at most the
                # multiset intersection of the two signature lists does.
                unmatched = list(sig2)
                fusable = 0
                for x in sig1:
                    if x in unmatched:
                        unmatched.remove(x)
                        fusable += 1
                if fusable < least:
                    return []
            # Class i of p1 can fuse with class j of p2 when their
            # signatures agree, no edge joins them, and the fused class is
            # complete to the cross neighbours that its fresh edges reach.
            # A class of p1 is a set of twins towards s2, so its cross
            # neighbours are whole classes of p2, and the reverse; a pair
            # that fails here fails in every matching.
            for j, (y, c) in enumerate(zip(sig2, p2)):
                found = []
                for i in range(p):
                    if sig1[i] == y:
                        a = p1[i]
                        cross = rep[a] & s2 | rep[c] & s1
                        if not rep[a] & c and not cross & ~common_mask(a | c):
                            found.append(i)
                if found:
                    open_js.append((j, found))
        if not open_js:
            # Nothing fuses.  By the same twin argument each cross pair of
            # classes is complete or anticomplete, so no forced join fails.
            return [tuple(sorted(p1 + p2))] if least <= 0 else []
        matchings: list[list[tuple[int, int]]] = []
        _matchings(open_js, least, 0, 0, [], matchings)
        out = []
        for pairs in matchings:
            fused = [(p1[i] | p2[j], rep[p1[i]] & s2 | rep[p2[j]] & s1) for i, j in pairs]
            # Forced joins: two fused classes with a fresh cross edge must
            # be completely adjacent in the target, else the state is dead.
            if len(fused) > 1 and not all(
                not cross & y or common_mask(x) & y == y for x, cross in fused for y, _ in fused
            ):
                continue
            matched1 = {i for i, _ in pairs}
            matched2 = {j for _, j in pairs}
            classes = [x for x, _ in fused]
            classes += [p1[i] for i in range(p) if i not in matched1]
            classes += [p2[j] for j in range(q) if j not in matched2]
            out.append(tuple(sorted(classes)))
        return out

    states: dict[int, dict[tuple, tuple]] = {}

    def reach(s: int) -> dict[tuple, tuple]:
        """Build and memoise the states of s from those of its splits; {}
        when t(s) > k or nothing reaches s.  On the full set, stops at the
        first product.  Callers look in ``states`` first."""
        cur = states[s] = {}
        if twins[s] > k:
            return cur
        if s & (s - 1) == 0:
            cur[(s,)] = ("create", s.bit_length() - 1)
            return cur
        outside = ~s
        # Splits s = s1 | s2 with the least vertex in s1, s1 descending.
        low = s & -s
        rest = x = s ^ low
        while x:
            x = (x - 1) & rest
            s1, s2 = low | x, rest ^ x
            d1 = states.get(s1)
            if d1 is None:
                d1 = reach(s1)
            d2 = d1 and states.get(s2)
            if d2 is None:
                d2 = reach(s2)
            if not d2:
                continue
            side2 = [(p2, [rep[c] & outside for c in p2]) for p2 in d2]
            for p1 in d1:
                sig1 = [rep[c] & outside for c in p1]
                for p2, sig2 in side2:
                    for prod in union_products(p1, sig1, p2, sig2, s1, s2):
                        if prod not in cur:
                            cur[prod] = ("union", s1, p1, s2, p2)
                            if s == full:
                                return cur
        # Closure under renames: merge classes whose members look the same
        # from outside s.
        queue = list(cur.keys())
        qi = 0
        while qi < len(queue):
            part = queue[qi]
            qi += 1
            sg = [rep[c] & outside for c in part]
            if len(set(sg)) == len(sg):
                continue
            lst = list(part)
            for a in range(len(lst)):
                for b in range(a + 1, len(lst)):
                    if sg[a] == sg[b]:
                        merged = tuple(
                            sorted(
                                [lst[x] for x in range(len(lst)) if x not in (a, b)]
                                + [lst[a] | lst[b]]
                            )
                        )
                        if merged not in cur:
                            cur[merged] = ("merge", part, lst[a], lst[b])
                            queue.append(merged)
        return cur

    goals = reach(full)
    # reach refers to itself; dropping it frees the search states with the
    # caller's reference rather than at the next cycle collection.
    del reach
    if not goals:
        return None
    return (full, next(iter(goals))), states, rep


def _reconstruct(goal_key, states, rep, k: int) -> tuple[KExpression, list[int]]:
    """The witness expression of a reached goal, and the vertex each of its
    Create leaves stands for, in left-to-right order.

    Each class of a union operand is a set of twins towards the other
    operand, so its least vertex's neighbour mask (``rep``) decides which
    classes of the other side a fresh edge reaches.
    """
    leaves: list[int] = []

    def build(s: int, part: tuple) -> tuple[KExpression, dict[int, int]]:
        record = states[s][part]
        if record[0] == "create":
            leaves.append(record[1])
            return Create(1), {part[0]: 1}
        if record[0] == "merge":
            _, parent, a, b = record
            e, labels = build(s, parent)
            la, lb = labels[a], labels[b]
            out = {c: lab for c, lab in labels.items() if c not in (a, b)}
            out[a | b] = lb
            return Rename(la, lb, e), out
        _, s1, p1, s2, p2 = record
        e1, m1 = build(s1, p1)
        e2, m2 = build(s2, p2)
        set1, set2 = set(p1), set(p2)
        live1 = set(m1.values())
        sigma: dict[int, int] = {}
        taken = set(live1)
        out: dict[int, int] = {}
        for c in part:
            if c in set1 and not (c & s2):
                out[c] = m1[c]
            elif c in set2 and not (c & s1):
                target = next(t for t in range(1, k + 1) if t not in taken)
                sigma[m2[c]] = target
                taken.add(target)
                out[c] = target
            else:
                a, b = c & s1, c & s2
                sigma[m2[b]] = m1[a]
                out[c] = m1[a]
        # Labels of e2 that are dead at its root can map anywhere, as long
        # as the substitution stays injective on labels actually present.
        targets = set(sigma.values())
        for dead in sorted(expr_labels(e2) - set(sigma)):
            target = next(t for t in range(1, k + 1) if t not in targets)
            sigma[dead] = target
            targets.add(target)
        e = Union(e1, substitute_labels(e2, sigma))
        lst = list(part)
        for a in range(len(lst)):
            xa = lst[a]
            x1, x2 = xa & s1, xa & s2
            for b in range(a + 1, len(lst)):
                yb = lst[b]
                y1, y2 = yb & s1, yb & s2
                if rep[x1] & y2 or rep[x2] & y1:
                    e = Join(out[xa], out[yb], e)
        return e, out

    expr, _ = build(*goal_key)
    # build refers to itself; dropping it frees the search states now rather
    # than at the next cycle collection.
    del build
    return expr, leaves


def _module(masks: list[int], n: int) -> int:
    """A module M with 1 < |M| < n, as a bitmask, or 0 when there is none.

    Grows each vertex pair by its splitters (vertices outside that see some
    but not all of it) until none is left; the first pair whose closure
    misses a vertex gives M.
    """
    full = (1 << n) - 1
    for u in range(n):
        for v in range(u + 1, n):
            m = 1 << u | 1 << v
            some, every = masks[u] | masks[v], masks[u] & masks[v]
            split = some & ~every & ~m
            while split:
                m |= split
                while split:
                    low = split & -split
                    split ^= low
                    w = masks[low.bit_length() - 1]
                    some |= w
                    every &= w
                split = some & ~every & ~m
            if m != full:
                return m
    return 0


def _induced_masks(masks: list[int], verts: list[int]) -> list[int]:
    """Neighbour bitmasks of the subgraph induced on ``verts``, indexed by
    position in ``verts``."""
    out = []
    for v in verts:
        m = 0
        for i, w in enumerate(verts):
            if masks[v] >> w & 1:
                m |= 1 << i
        out.append(m)
    return out


def _substitute_leaf(e: KExpression, pos: int, piece: KExpression) -> KExpression:
    """Replace the pos-th Create leaf of ``e`` (left to right) by ``piece``
    with every root label of ``piece`` renamed onto that leaf's label."""
    leaves = [node for node, done in _walk(e) if done and isinstance(node, Create)]
    out = piece
    for label in sorted(set(eval_expression(piece).labels.values()) - {leaves[pos].label}):
        out = Rename(label, leaves[pos].label, out)
    index = iter(range(len(leaves)))
    return _rebuild(e, {}, lambda c: out if next(index) == pos else c)


def _solve(masks: list[int], n: int, k_max: int) -> tuple[int, KExpression, list[int]] | None:
    """Least width k <= k_max of the graph on vertices 0..n-1, a witness of
    width k, and the vertex of each of its Create leaves, left to right.

    A nontrivial module M is solved apart from the quotient G/M, in which M
    is contracted to min(M); the width is the larger of the two, and the
    witness substitutes the module's expression for the representative's
    leaf.  Only prime graphs and graphs on at most 2 vertices are searched.
    """
    module = _module(masks, n)
    if module:
        inside = [v for v in range(n) if module >> v & 1]
        outside = [v for v in range(n) if v == inside[0] or not module >> v & 1]
        sub = _solve(_induced_masks(masks, inside), len(inside), k_max)
        if sub is None:
            return None
        quo = _solve(_induced_masks(masks, outside), len(outside), k_max)
        if quo is None:
            return None
        k_sub, e_sub, leaves_sub = sub
        k_quo, e_quo, leaves_quo = quo
        pos = leaves_quo.index(outside.index(inside[0]))
        expr = _substitute_leaf(e_quo, pos, e_sub)
        leaves = (
            [outside[v] for v in leaves_quo[:pos]]
            + [inside[v] for v in leaves_sub]
            + [outside[v] for v in leaves_quo[pos + 1 :]]
        )
        return max(k_sub, k_quo), expr, leaves
    # Prime on n > 2 vertices: connected and co-connected, so an induced P4
    # and width >= 3 (Corneil, Perl & Stewart 1985; Courcelle & Olariu 2000).
    twins = _twin_counts(masks, n)
    for k in range(3 if n > 2 else 1, k_max + 1):
        found = _search(masks, n, k, twins)
        if found is not None:
            return k, *_reconstruct(*found, k)
    return None


def clique_width_exact(
    g: Graph, k_max: int = KMAX_LIMIT, *, size_limit: int = SOLVER_LIMIT
) -> tuple[int, KExpression | None] | None:
    """Least k <= k_max admitting a k-expression for ``g``, with a verified
    witness expression; None when the clique-width exceeds k_max.

    The empty graph gets (0, None).  Deterministic for fixed inputs.
    """
    if g.n > size_limit:
        raise SizeLimitError(f"solver limited to {size_limit} vertices, got {g.n}")
    if not 1 <= k_max <= KMAX_LIMIT:
        raise ValueError(f"k_max must be between 1 and {KMAX_LIMIT}")
    if g.n == 0:
        return 0, None
    verts, _, masks = bit_adjacency(g)
    solved = _solve(masks, g.n, k_max)
    if solved is None:
        return None
    k, expr, leaves = solved
    if width(expr) != k:
        raise AssertionError(f"reconstructed width {width(expr)} != solver width {k}")
    # The i-th Create leaf builds vertex i and stands for verts[leaves[i]],
    # so the witness must build exactly g's edges through that map.
    to_g = [verts[i] for i in leaves]
    built = {tuple(sorted((to_g[u], to_g[v]))) for u, v in eval_expression(expr).graph.edges()}
    if sorted(leaves) != list(range(g.n)) or built != set(g.edges()):
        raise AssertionError("reconstructed expression does not build the graph")
    return k, expr


# ---------------------------------------------------------------------------
# Constructive expressions for the bounded base classes.
# ---------------------------------------------------------------------------

def _fold_union(parts: list[KExpression]) -> KExpression:
    expr = parts[0]
    for piece in parts[1:]:
        expr = Union(expr, piece)
    return expr


def expr_disjoint_cliques(g: Graph) -> KExpression:
    """Width <= 2 expression for a disjoint union of cliques (width 1 when
    edgeless).  Raises with an induced-P3 witness otherwise."""
    if g.n == 0:
        raise ExpressionPreconditionError("empty graph has no expression", None)
    p3 = find_induced_p3(g)
    if p3 is not None:
        u, mid, v = p3
        witness = Embedding(((0, u), (1, mid), (2, v)))
        raise ExpressionPreconditionError(
            f"component is not a clique: P3 on {u},{mid},{v}", witness
        )
    parts = []
    for comp in components(g):
        e: KExpression = Create(1)
        for _ in range(len(comp) - 1):
            e = Rename(2, 1, Join(1, 2, Union(e, Create(2))))
        parts.append(e)
    return _fold_union(parts)


def expr_forest(g: Graph) -> KExpression:
    """Width <= 3 expression for a forest.  Raises with a hole or a triangle."""
    if g.n == 0:
        raise ExpressionPreconditionError("empty graph has no expression", None)
    if not is_forest(g):
        cyc = find_hole(g) or contains_induced(g, realize_text("K3")).image()
        raise ExpressionPreconditionError(f"graph has a cycle {list(cyc)}", cyc)

    # Bottom-up: the subtree root keeps label 1, retired vertices hold 3;
    # each child root is renamed to 2, joined to the root, then retired.
    def tree(v: int, parent: int | None) -> KExpression:
        e: KExpression = Create(1)
        for child in sorted(g.neighbors(v)):
            if child == parent:
                continue
            sub: KExpression = Rename(1, 2, tree(child, v))
            e = Rename(2, 3, Join(1, 2, Union(e, sub)))
        return e

    parts = [tree(min(comp), None) for comp in components(g)]
    return _fold_union(parts)


def expr_max_degree_2(g: Graph) -> KExpression:
    """Width <= 4 expression for a graph of maximum degree at most 2.

    Components are paths or cycles; paths need 3 labels, cycles 4.
    Raises with the least vertex of degree >= 3 as witness."""
    if g.n == 0:
        raise ExpressionPreconditionError("empty graph has no expression", None)
    for v in g.vertices:
        if g.degree(v) > 2:
            raise ExpressionPreconditionError(f"vertex {v} has degree {g.degree(v)}", v)

    def walk(comp: frozenset[int]) -> tuple[list[int], bool]:
        ends = sorted(v for v in comp if g.degree(v) <= 1)
        is_cycle = not ends
        start = min(comp) if is_cycle else ends[0]
        order = [start]
        prev = None
        cur = start
        while len(order) < len(comp):
            nxt = min(w for w in g.neighbors(cur) if w != prev)
            order.append(nxt)
            prev, cur = cur, nxt
        return order, is_cycle

    parts: list[KExpression] = []
    for comp in components(g):
        order, is_cycle = walk(comp)
        m = len(order)
        if m == 1:
            parts.append(Create(1))
            continue
        if not is_cycle:
            # Path: 1 = retired, 2 = current end, 3 = incoming vertex.
            e: KExpression = Join(1, 2, Union(Create(1), Create(2)))
            for _ in order[2:]:
                e = Rename(3, 2, Rename(2, 1, Join(2, 3, Union(e, Create(3)))))
            parts.append(e)
        else:
            # Cycle: 1 = first vertex (kept alive), 2 = retired interior,
            # 3 = current end, 4 = incoming vertex; close with a final join.
            e = Join(1, 3, Union(Create(1), Create(3)))
            for _ in order[2:]:
                e = Rename(4, 3, Rename(3, 2, Join(3, 4, Union(e, Create(4)))))
            e = Join(1, 3, e)
            parts.append(e)
    return _fold_union(parts)
