"""Boundedness certificates: the model, its JSON codec and the verifier.

A certificate is a tree of clique-width-boundedness-preserving reduction
steps (bounded vertex deletions, subgraph / bipartite complementations,
degree-1 pruning, splitting along component boundaries) whose leaves land
in base classes of known bounded clique-width.  The verifier replays every
step from the root graph and re-checks every leaf membership from scratch.

This module is the trusted checker: it imports no certifier code, so an
answer of ``certify`` is only as good as what this module re-validates.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, fields

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
from .recognition import bipartite_class_bounded, is_chordal
from .search import fingerprint, is_free

# Every justification the certifiers write on a vertex deletion, with the
# bound its lemma puts on the number of vertices deleted: a constant, or a
# function of named facts (a cycle length, a cover size, a per-pair limit).
# The certifiers state these bounds and the verifier checks them; it rejects
# any other justification, so a certificate cannot delete vertices on a
# made-up ground.
DELETE_RULES: dict[str, int | Callable[..., int]] = {
    # An induced cycle on ``length`` vertices, one of CYCLE_LENGTHS.
    "cycle-vertices": lambda length: length,
    # The cover cliques below k + 7 vertices, k the size of the given cover.
    "cover-clique-below-size-threshold": lambda k: k + 6,
    # At most one vertex per ordered pair of the k fused cover cliques.
    "cross-complete-vertices": lambda k: k * (k - 1),
    # At most ``per_pair`` for each non-consecutive pair of an induced cycle
    # on ``length`` vertices.
    "common-neighbours-of-nonconsecutive-cycle-pair": (
        lambda per_pair, length: per_pair * length * (length - 3) // 2
    ),
    "clique-independent-separators": 48,
    "consecutive-pair-common-neighbours": 4,
    "clique-vertices-with-outside-neighbours": 2,
    "opposite-pendant-pair": 2,
    "cross-attached-pendants": 2,
    "shared-attachment-hub": 1,
    "single-cycle-neighbour-vertices": 5,
    "small-class": 2,
}

# The lengths of the induced cycles the certifiers work around.
CYCLE_LENGTHS = range(4, 8)


# ---------------------------------------------------------------------------
# Certificate model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    n: int
    m: int
    hash: str


@dataclass(frozen=True)
class BaseLeaf:
    kind: str
    h: str | None = None
    expression: str | None = None


@dataclass(frozen=True)
class DeleteVerticesStep:
    vertices: tuple[int, ...]
    justification: str
    stated_bound: int
    child: "Node"


@dataclass(frozen=True)
class SubgraphComplementStep:
    vertices: tuple[int, ...]
    child: "Node"


@dataclass(frozen=True)
class BipartiteComplementStep:
    x: tuple[int, ...]
    y: tuple[int, ...]
    child: "Node"


@dataclass(frozen=True)
class PruneDegreeOneStep:
    child: "Node"


@dataclass(frozen=True)
class SplitComponentsStep:
    parts: tuple[tuple[int, ...], ...]
    children: tuple["Node", ...]


Node = (
    BaseLeaf
    | DeleteVerticesStep
    | SubgraphComplementStep
    | BipartiteComplementStep
    | PruneDegreeOneStep
    | SplitComponentsStep
)


@dataclass(frozen=True)
class Certificate:
    root: Fingerprint
    step: Node


DISJOINT_CLIQUES = "disjoint_cliques"
MAX_DEGREE_2 = "max_degree_2"
FOREST = "forest"
BIPARTITE_H_FREE = "bipartite_h_free"
CHORDAL_DIAMOND_FREE = "chordal_diamond_free"
K3_K13P2_FREE = "k3_k13p2_free"
EXPLICIT_EXPRESSION = "explicit_expression"

# Numeric clique-width bounds for the leaf kinds that have one.
LEAF_WIDTH_BOUNDS = {
    DISJOINT_CLIQUES: 2,
    FOREST: 3,
    MAX_DEGREE_2: 4,
    CHORDAL_DIAMOND_FREE: 3,
}


def certificate_root(g: Graph) -> Fingerprint:
    return Fingerprint(*fingerprint(g))


# --- JSON -------------------------------------------------------------------

# Each step kind by its JSON "op".  A step's fields are its JSON keys, except
# that its ``child`` or ``children`` go under "children".
_STEPS = {
    "delete_vertices": DeleteVerticesStep,
    "subgraph_complement": SubgraphComplementStep,
    "bipartite_complement": BipartiteComplementStep,
    "prune_degree_one": PruneDegreeOneStep,
    "split_components": SplitComponentsStep,
}
_OPS = {step: op for op, step in _STEPS.items()}


def _node_to_obj(node: Node) -> dict:
    if isinstance(node, BaseLeaf):
        optional = {"h": node.h, "expression": node.expression}
        return {"base": node.kind, **{k: v for k, v in optional.items() if v is not None}}
    obj: dict = {"op": _OPS[type(node)]}
    for f in fields(node):
        value = getattr(node, f.name)
        if f.name == "child":
            obj["children"] = [_node_to_obj(value)]
        elif f.name == "children":
            obj["children"] = [_node_to_obj(c) for c in value]
        else:
            obj[f.name] = value
    return obj


# The JSON kind of each certificate field: a type, or [kind] for a list.
_FIELD_KINDS = {
    **dict.fromkeys(("root", "step"), (dict, "an object")),
    **dict.fromkeys(("n", "m", "stated_bound"), (int, "an integer")),
    **dict.fromkeys(("hash", "op", "justification", "base", "h", "expression"), (str, "a string")),
    **dict.fromkeys(("vertices", "x", "y"), ([int], "a list of integers")),
    "parts": ([[int]], "a list of integer lists"),
    "children": ([dict], "a list of objects"),
}


def _is_kind(value: object, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_kind(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(obj: dict, key: str, optional: bool = False):
    """``obj[key]`` checked against its kind; an optional field may be
    absent or null."""
    if obj.get(key) is None and optional:
        return None
    if key not in obj:
        raise ValueError(f"certificate field {key!r} is missing")
    kind, name = _FIELD_KINDS[key]
    if not _is_kind(obj[key], kind):
        raise ValueError(f"certificate field {key!r} must be {name}")
    return obj[key]


def _frozen(value):
    """A JSON value with every list turned into a tuple."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _node_from_obj(obj: dict) -> Node:
    if "base" in obj:
        kind = _field(obj, "base")
        if "children" in obj:
            raise ValueError(f"certificate {kind} leaf has children")
        return BaseLeaf(
            kind,
            _field(obj, "h", optional=True),
            _field(obj, "expression", optional=True),
        )
    op = _field(obj, "op")
    children = [_node_from_obj(c) for c in _field(obj, "children")]
    step = _STEPS.get(op)
    if step is None:
        raise ValueError(f"unknown certificate op {op!r}")
    names = [f.name for f in fields(step)]
    if "child" in names and not children:
        raise ValueError(f"certificate {op} step has no child")
    if "child" in names and len(children) > 1:
        raise ValueError(f"certificate {op} step has {len(children)} children, not one")
    args = []
    for name in names:
        if name == "child":
            args.append(children[0])
        elif name == "children":
            args.append(tuple(children))
        else:
            args.append(_frozen(_field(obj, name)))
    return step(*args)


def certificate_to_json(cert: Certificate) -> str:
    obj = {
        "version": "v1",
        "root": {"n": cert.root.n, "m": cert.root.m, "hash": cert.root.hash},
        "step": _node_to_obj(cert.step),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> Certificate:
    """Parse a ``"v1"`` certificate; malformed input raises ValueError."""
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("certificate must be a JSON object")
        if obj.get("version") != "v1":
            raise ValueError(f"unsupported certificate version {obj.get('version')!r}")
        root = _field(obj, "root")
        return Certificate(
            Fingerprint(_field(root, "n"), _field(root, "m"), _field(root, "hash")),
            _node_from_obj(_field(obj, "step")),
        )
    except RecursionError:
        raise ValueError("certificate is nested too deeply") from None


# ---------------------------------------------------------------------------
# Verifier.
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    ok: bool
    failures: list[str]
    leaves: list[tuple[BaseLeaf, Graph]]


def _check_leaf(g: Graph, leaf: BaseLeaf, path: str, failures: list[str]) -> None:
    if leaf.kind == DISJOINT_CLIQUES:
        p3 = find_induced_p3(g)
        if p3 is not None:
            failures.append(f"{path}: component is not a clique near {p3[1]}")
    elif leaf.kind == MAX_DEGREE_2:
        if g.max_degree() > 2:
            failures.append(f"{path}: maximum degree {g.max_degree()} exceeds 2")
    elif leaf.kind == FOREST:
        if not is_forest(g):
            failures.append(f"{path}: leaf graph has a cycle")
    elif leaf.kind == BIPARTITE_H_FREE:
        if leaf.h is None:
            failures.append(f"{path}: bipartite leaf missing its forbidden graph")
            return
        ok, _ = is_bipartite(g)
        if not ok:
            failures.append(f"{path}: leaf graph is not bipartite")
            return
        try:
            bounded = bipartite_class_bounded(leaf.h)
        except ValueError as exc:
            # A name that does not parse (SpecSyntaxError).
            failures.append(f"{path}: bad forbidden graph {leaf.h!r}: {exc}")
            return
        except RecursionError:
            failures.append(f"{path}: forbidden graph is nested too deeply to check")
            return
        if not bounded:
            failures.append(f"{path}: {leaf.h}-free bipartite graphs are not a bounded class")
            return
        free, witness = is_free(g, [leaf.h])
        if not free:
            failures.append(f"{path}: leaf graph contains an induced {witness.spec_text}")
    elif leaf.kind == CHORDAL_DIAMOND_FREE:
        chordal, _ = is_chordal(g)
        if not chordal:
            failures.append(f"{path}: leaf graph is not chordal")
            return
        free, _ = is_free(g, ["diamond"])
        if not free:
            failures.append(f"{path}: leaf graph contains a diamond")
    elif leaf.kind == K3_K13P2_FREE:
        free, witness = is_free(g, ["K3", "3P1+P2"])
        if not free:
            failures.append(f"{path}: leaf graph contains an induced {witness.spec_text}")
    elif leaf.kind == EXPLICIT_EXPRESSION:
        from .kexpr import parse_expression, verify_expression

        if leaf.expression is None:
            failures.append(f"{path}: explicit leaf missing its expression")
            return
        try:
            if not verify_expression(parse_expression(leaf.expression), g):
                failures.append(f"{path}: expression does not evaluate to the leaf graph")
        except ValueError as exc:
            # Text that does not parse (KExprSyntaxError), or an expression
            # that does not evaluate, such as j(1,1,v1) (KExprEvalError).
            failures.append(f"{path}: bad expression: {exc}")
    else:
        failures.append(f"{path}: unknown leaf kind {leaf.kind!r}")


def _is_induced_cycle(g: Graph, vs: tuple[int, ...]) -> bool:
    """True iff ``vs`` lists, once each, the vertices of an induced cycle."""
    inside = set(vs)
    if len(inside) != len(vs) or any(len(g.neighbors(v) & inside) != 2 for v in inside):
        return False
    return len(components(induced_subgraph(g, inside))) == 1


def _check_delete_rule(g: Graph, step: DeleteVerticesStep) -> str | None:
    """Why ``step`` breaks its justification's rule in ``g``, or None.

    The bound of ``cycle-vertices`` and of each constant rule is recomputed
    here and caps the stated bound.  The other rules take their facts from
    earlier or later steps, so only the stated bound caps them.
    """
    rule = DELETE_RULES.get(step.justification)
    if rule is None:
        return f"unknown justification {step.justification!r}"
    if step.justification == "cycle-vertices":
        if len(step.vertices) not in CYCLE_LENGTHS or not _is_induced_cycle(g, step.vertices):
            return (
                f"cycle-vertices {list(step.vertices)} are not an induced cycle of "
                f"{CYCLE_LENGTHS[0]} to {CYCLE_LENGTHS[-1]} vertices"
            )
        rule = rule(length=len(step.vertices))
    if isinstance(rule, int) and step.stated_bound > rule:
        return f"stated bound {step.stated_bound} exceeds the {step.justification} bound {rule}"
    return None


def _replay(
    g: Graph, node: Node, path: str, failures: list[str], leaves: list[tuple[BaseLeaf, Graph]]
) -> None:
    if isinstance(node, BaseLeaf):
        _check_leaf(g, node, path, failures)
        leaves.append((node, g))
        return
    if isinstance(node, SplitComponentsStep):
        fuse = [v for part in node.parts for v in part]
        if sorted(fuse) != list(g.vertices):
            failures.append(f"{path}: parts do not partition the current vertex set")
            return
        if len(node.parts) != len(node.children):
            failures.append(f"{path}: {len(node.parts)} parts but {len(node.children)} children")
            return
        part_of: dict[int, int] = {}
        for i, part in enumerate(node.parts):
            for v in part:
                part_of[v] = i
        for u, v in g.edges():
            if part_of[u] != part_of[v]:
                failures.append(f"{path}: edge ({u},{v}) crosses the component split")
                return
        for i, (part, child) in enumerate(zip(node.parts, node.children)):
            _replay(induced_subgraph(g, part), child, f"{path}.children[{i}]", failures, leaves)
        return
    if isinstance(node, DeleteVerticesStep):
        missing = [v for v in node.vertices if not g.has_vertex(v)]
        if missing:
            failures.append(f"{path}: deleted vertices {missing} do not exist")
            return
        if len(node.vertices) > node.stated_bound:
            failures.append(
                f"{path}: deletes {len(node.vertices)} vertices, stated bound {node.stated_bound}"
            )
            return
        failure = _check_delete_rule(g, node)
        if failure:
            failures.append(f"{path}: {failure}")
            return
        g = delete_vertices(g, node.vertices)
    elif isinstance(node, SubgraphComplementStep):
        missing = [v for v in node.vertices if not g.has_vertex(v)]
        if missing:
            failures.append(f"{path}: complemented vertices {missing} do not exist")
            return
        g = subgraph_complement(g, node.vertices)
    elif isinstance(node, BipartiteComplementStep):
        missing = [v for v in (*node.x, *node.y) if not g.has_vertex(v)]
        if missing:
            failures.append(f"{path}: complemented vertices {missing} do not exist")
            return
        if set(node.x) & set(node.y):
            failures.append(f"{path}: bipartite complement sets overlap")
            return
        g = bipartite_complement(g, node.x, node.y)
    else:
        g = prune_degree_one(g)
    _replay(g, node.child, path + ".child", failures, leaves)


def verify_certificate(g: Graph, cert: Certificate) -> VerificationResult:
    """Replay all steps from the root graph and re-check every leaf."""
    failures: list[str] = []
    leaves: list[tuple[BaseLeaf, Graph]] = []
    root = certificate_root(g)
    if root != cert.root:
        failures.append(
            f"root fingerprint mismatch: graph {root}, certificate {cert.root}"
        )
        return VerificationResult(False, failures, leaves)
    _replay(g, cert.step, "step", failures, leaves)
    return VerificationResult(not failures, failures, leaves)
