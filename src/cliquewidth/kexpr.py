"""k-expressions: AST, grammar, evaluator, verifier, and an exact solver.

A k-expression builds a labelled graph with four operations: create a
labelled vertex, disjoint union, join two label classes, rename a label.
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

States are explored bottom-up over vertex subsets: singletons are created,
two states on disjoint subsets are combined by disjoint union (same-label
classes of the two operands fuse, which is expressed by a partial matching
between their classes), forced joins are applied, and renames merge classes
whose members agree on their neighbourhood outside S.

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

from .graphs import Graph, bit_adjacency, components, find_cycle
from .recognition import SizeLimitError
from .search import Embedding, are_isomorphic

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


def expr_labels(e: KExpression) -> set[int]:
    """All labels appearing anywhere in the expression."""
    if isinstance(e, Create):
        return {e.label}
    if isinstance(e, Union):
        return expr_labels(e.left) | expr_labels(e.right)
    return {e.i, e.j} | expr_labels(e.child)


def width(e: KExpression) -> int:
    return len(expr_labels(e))


def substitute_labels(e: KExpression, mapping: dict[int, int]) -> KExpression:
    """Rewrite every label through ``mapping`` (identity when absent)."""

    def f(label: int) -> int:
        return mapping.get(label, label)

    if isinstance(e, Create):
        return Create(f(e.label))
    if isinstance(e, Union):
        return Union(substitute_labels(e.left, mapping), substitute_labels(e.right, mapping))
    if isinstance(e, Join):
        return Join(f(e.i), f(e.j), substitute_labels(e.child, mapping))
    return Rename(f(e.i), f(e.j), substitute_labels(e.child, mapping))


def eval_expression(e: KExpression) -> LabelledGraph:
    """Evaluate to a labelled graph; vertex ids follow creation order."""
    counter = [0]

    def rec(node: KExpression) -> tuple[list[int], list[tuple[int, int]], dict[int, int]]:
        if isinstance(node, Create):
            if node.label < 1:
                raise KExprEvalError(f"labels must be positive, got {node.label}")
            v = counter[0]
            counter[0] += 1
            return [v], [], {v: node.label}
        if isinstance(node, Union):
            lv, le, ll = rec(node.left)
            rv, re_, rl = rec(node.right)
            return lv + rv, le + re_, {**ll, **rl}
        if isinstance(node, Join):
            if node.i == node.j:
                raise KExprEvalError(f"join requires two distinct labels, got ({node.i},{node.j})")
            vs, es, ls = rec(node.child)
            have = {(min(u, v), max(u, v)) for u, v in es}
            for u in vs:
                if ls[u] != node.i:
                    continue
                for v in vs:
                    if ls[v] == node.j and (min(u, v), max(u, v)) not in have:
                        es.append((u, v))
                        have.add((min(u, v), max(u, v)))
            return vs, es, ls
        vs, es, ls = rec(node.child)
        return vs, es, {v: (node.j if lab == node.i else lab) for v, lab in ls.items()}

    vs, es, ls = rec(e)
    return LabelledGraph(Graph(vs, es), ls)


# ---------------------------------------------------------------------------
# Text grammar.
# ---------------------------------------------------------------------------

def print_expression(e: KExpression) -> str:
    if isinstance(e, Create):
        return f"v{e.label}"
    if isinstance(e, Union):
        return f"({print_expression(e.left)} | {print_expression(e.right)})"
    if isinstance(e, Join):
        return f"j({e.i},{e.j},{print_expression(e.child)})"
    return f"r({e.i}->{e.j},{print_expression(e.child)})"


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, tok: str) -> None:
        self._skip()
        if not self.text.startswith(tok, self.pos):
            raise KExprSyntaxError(f"expected {tok!r}", self.pos)
        self.pos += len(tok)

    def _int(self) -> int:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise KExprSyntaxError("expected a label", start)
        val = int(self.text[start : self.pos])
        if val < 1:
            raise KExprSyntaxError("labels must be positive", start)
        return val

    def parse(self) -> KExpression:
        e = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise KExprSyntaxError("trailing input", self.pos)
        return e

    def _expr(self) -> KExpression:
        ch = self._peek()
        if ch == "v":
            self.pos += 1
            return Create(self._int())
        if ch == "(":
            self.pos += 1
            left = self._expr()
            self._expect("|")
            right = self._expr()
            self._expect(")")
            return Union(left, right)
        if ch == "j":
            self.pos += 1
            self._expect("(")
            i = self._int()
            self._expect(",")
            j = self._int()
            self._expect(",")
            child = self._expr()
            self._expect(")")
            return Join(i, j, child)
        if ch == "r":
            self.pos += 1
            self._expect("(")
            i = self._int()
            self._expect("->")
            j = self._int()
            self._expect(",")
            child = self._expr()
            self._expect(")")
            return Rename(i, j, child)
        raise KExprSyntaxError("expected an expression", self.pos)


def parse_expression(text: str) -> KExpression:
    return _ExprParser(text).parse()


def verify_expression(e: KExpression, g: Graph) -> bool:
    """True iff the expression evaluates to a graph isomorphic to ``g``."""
    labelled = eval_expression(e)
    return are_isomorphic(labelled.graph, g) is not None


# ---------------------------------------------------------------------------
# Exact solver.
# ---------------------------------------------------------------------------

def _search(masks: list[int], n: int, k: int):
    """Reachability over (subset, partition) states with at most k classes.

    Returns (goal_key, parents) where parents maps (S, P) to the record of
    how the state was first reached, or None when the goal is unreachable.
    Deterministic: subsets ascend by (popcount, value), partitions are
    sorted tuples of class bitmasks, and insertion order fixes parents.
    """
    full = (1 << n) - 1
    or_cache: dict[int, int] = {}
    common_cache: dict[int, int] = {}

    def or_mask(m: int) -> int:
        r = or_cache.get(m)
        if r is None:
            r, t = 0, m
            while t:
                low = t & -t
                t ^= low
                r |= masks[low.bit_length() - 1]
            or_cache[m] = r
        return r

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

    def sig(cmask: int, s: int) -> int:
        return masks[(cmask & -cmask).bit_length() - 1] & ~s

    def union_products(p1: tuple, p2: tuple, s1: int, s2: int, s: int):
        c1, c2 = list(p1), list(p2)
        p, q = len(c1), len(c2)
        # Only classes with equal outside signatures can fuse, so at most
        # the multiset intersection of the two signature lists fuses.
        sig1 = [sig(c, s) for c in c1]
        sig2 = [sig(c, s) for c in c2]
        unmatched = list(sig2)
        fusable = 0
        for x in sig1:
            if x in unmatched:
                unmatched.remove(x)
                fusable += 1
        if p + q - fusable > k:
            return
        compat = [
            [sig1[i] == sig2[j] and (or_mask(c1[i]) & c2[j]) == 0 for j in range(q)]
            for i in range(p)
        ]

        def compose(pairs: list[tuple[int, int]]) -> tuple | None:
            used1 = used2 = 0
            classes = []
            for i, j in pairs:
                classes.append(c1[i] | c2[j])
                used1 |= 1 << i
                used2 |= 1 << j
            classes += [c1[i] for i in range(p) if not used1 >> i & 1]
            classes += [c2[j] for j in range(q) if not used2 >> j & 1]
            if len(classes) > k:
                return None
            # Forced joins: a class pair with a fresh cross edge must be
            # completely adjacent in the target, else the state is dead.
            for a in range(len(classes)):
                xa = classes[a]
                x1, x2 = xa & s1, xa & s2
                for b in range(a + 1, len(classes)):
                    yb = classes[b]
                    y1, y2 = yb & s1, yb & s2
                    fresh = (x1 and y2 and (or_mask(x1) & y2)) or (
                        x2 and y1 and (or_mask(x2) & y1)
                    )
                    if fresh and (common_mask(xa) & yb) != yb:
                        return None
            return tuple(sorted(classes))

        out = []

        def enum(j: int, used1: int, matched: int, pairs: list[tuple[int, int]]):
            # Even matching every remaining class cannot fit the budget.
            if p + q - matched - (q - j) > k:
                return
            if j == q:
                prod = compose(pairs)
                if prod is not None:
                    out.append(prod)
                return
            enum(j + 1, used1, matched, pairs)
            for i in range(p):
                if not used1 >> i & 1 and compat[i][j]:
                    enum(j + 1, used1 | 1 << i, matched + 1, pairs + [(i, j)])

        enum(0, 0, 0, [])
        yield from out

    states: dict[int, dict[tuple, tuple]] = {}
    subsets = sorted(range(1, full + 1), key=lambda s: (bin(s).count("1"), s))
    for s in subsets:
        cur: dict[tuple, tuple] = {}
        if bin(s).count("1") == 1:
            cur[(s,)] = ("create", s.bit_length() - 1)
        else:
            low = s & -s
            s1 = (s - 1) & s
            while s1:
                if s1 & low:
                    s2 = s ^ s1
                    d1, d2 = states.get(s1), states.get(s2)
                    if d1 and d2:
                        for p1 in d1:
                            for p2 in d2:
                                for prod in union_products(p1, p2, s1, s2, s):
                                    if prod not in cur:
                                        cur[prod] = ("union", s1, p1, s2, p2)
                        if s == full and cur:
                            break
                s1 = (s1 - 1) & s
        if s == full:
            if cur:
                goal = next(iter(cur))
                states[s] = cur
                return (s, goal), states, or_mask
            return None
        # Closure under renames: merge classes whose members look the same
        # from outside s.
        queue = list(cur.keys())
        qi = 0
        while qi < len(queue):
            part = queue[qi]
            qi += 1
            lst = list(part)
            for a in range(len(lst)):
                for b in range(a + 1, len(lst)):
                    if sig(lst[a], s) == sig(lst[b], s):
                        merged = tuple(
                            sorted(
                                [lst[x] for x in range(len(lst)) if x not in (a, b)]
                                + [lst[a] | lst[b]]
                            )
                        )
                        if merged not in cur:
                            cur[merged] = ("merge", part, lst[a], lst[b])
                            queue.append(merged)
        states[s] = cur
    return None


def _reconstruct(goal_key, states, or_mask, k: int) -> tuple[KExpression, list[int]]:
    """The witness expression of a reached goal, and the vertex each of its
    Create leaves stands for, in left-to-right order."""
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
                fresh = (x1 and y2 and (or_mask(x1) & y2)) or (
                    x2 and y1 and (or_mask(x2) & y1)
                )
                if fresh:
                    e = Join(out[xa], out[yb], e)
        return e, out

    expr, _ = build(*goal_key)
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


def _root_labels(e: KExpression) -> set[int]:
    """Labels carried by some vertex at the root of the expression."""
    if isinstance(e, Create):
        return {e.label}
    if isinstance(e, Union):
        return _root_labels(e.left) | _root_labels(e.right)
    below = _root_labels(e.child)
    if isinstance(e, Rename) and e.i in below:
        return (below - {e.i}) | {e.j}
    return below


def _substitute_leaf(e: KExpression, pos: int, piece: KExpression) -> KExpression:
    """Replace the pos-th Create leaf of ``e`` (left to right) by ``piece``
    with every root label of ``piece`` renamed onto that leaf's label."""
    seen = [0]

    def rec(node: KExpression) -> KExpression:
        if isinstance(node, Create):
            seen[0] += 1
            if seen[0] != pos + 1:
                return node
            out = piece
            for label in sorted(_root_labels(piece) - {node.label}):
                out = Rename(label, node.label, out)
            return out
        if isinstance(node, Union):
            return Union(rec(node.left), rec(node.right))
        return type(node)(node.i, node.j, rec(node.child))

    return rec(e)


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
    for k in range(3 if n > 2 else 1, k_max + 1):
        found = _search(masks, n, k)
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
    _, _, masks = bit_adjacency(g)
    solved = _solve(masks, g.n, k_max)
    if solved is None:
        return None
    k, expr, _ = solved
    if width(expr) != k:
        raise AssertionError(f"reconstructed width {width(expr)} != solver width {k}")
    if not verify_expression(expr, g):
        raise AssertionError("reconstructed expression failed verification")
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
    # A component that is not a clique has a vertex with two non-adjacent
    # neighbours, which is an induced P3.
    for mid in g.vertices:
        nbrs = sorted(g.neighbors(mid))
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1 :]:
                if not g.has_edge(u, v):
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
    """Width <= 3 expression for a forest.  Raises with a cycle witness."""
    if g.n == 0:
        raise ExpressionPreconditionError("empty graph has no expression", None)
    cyc = find_cycle(g)
    if cyc is not None:
        raise ExpressionPreconditionError(f"graph has a cycle {cyc}", tuple(cyc))

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
