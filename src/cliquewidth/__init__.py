"""Clique-width toolkit.

Immutable graphs and a named-graph grammar, induced-subgraph and
isomorphism engines, exact desk-scale invariants, an exact clique-width
solver with verified k-expression witnesses, boundedness certificates for
three diamond-free hereditary classes, and the wall-based unbounded family
with its graph-isomorphism reduction.

The public names below are exported lazily: ``import cliquewidth`` loads no
submodule, and the first use of a name imports the module that defines it.
"""

import importlib

# Public names by the module that defines them.
_EXPORTS = {
    "graphs": (
        "Graph",
        "GraphError",
        "SizeLimitError",
        "bipartite_complement",
        "build_graph",
        "complement",
        "components",
        "delete_vertices",
        "disjoint_union",
        "from_edge_list_text",
        "from_graph6",
        "induced_subgraph",
        "is_bipartite",
        "is_forest",
        "prune_degree_one",
        "subgraph_complement",
        "to_edge_list_text",
        "to_graph6",
    ),
    "namedgraphs": (
        "NamedGraphSpec",
        "SpecSyntaxError",
        "parse_spec",
        "print_spec",
        "realize",
        "realize_text",
    ),
    "search": (
        "Embedding",
        "FreenessWitness",
        "are_isomorphic",
        "contains_induced",
        "fingerprint",
        "is_free",
    ),
    "recognition": (
        "GenerationBudgetError",
        "alpha",
        "bipartite_class_bounded",
        "clique_cover_exact",
        "generate_free",
        "is_chordal",
    ),
    "kexpr": (
        "Create",
        "ExpressionPreconditionError",
        "Join",
        "KExpression",
        "KExprEvalError",
        "KExprSyntaxError",
        "LabelledGraph",
        "Rename",
        "Union",
        "clique_width_exact",
        "eval_expression",
        "expr_disjoint_cliques",
        "expr_forest",
        "expr_max_degree_2",
        "parse_expression",
        "print_expression",
        "substitute_labels",
        "verify_expression",
        "width",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
