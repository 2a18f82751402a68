"""What each entry point loads, which modules the package may import, and
which statements its source may hold.

A test process has already imported every module, so loading is checked
in fresh interpreters.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquewidth
from cliquewidth import realize_text, to_edge_list_text
from cliquewidth.certificate import certificate_to_json
from cliquewidth.certify import certify_diamond_2p1p3

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cliquewidth"

# The package's exports before they became lazy, less the deleted
# ``ClassProfile``, ``class_profile`` and ``omega``.
EXPORTS = [
    "Graph", "GraphError", "bipartite_complement", "build_graph", "complement",
    "components", "delete_vertices", "disjoint_union", "from_edge_list_text",
    "from_graph6", "induced_subgraph", "is_bipartite", "is_forest",
    "prune_degree_one", "subgraph_complement", "to_edge_list_text", "to_graph6",
    "NamedGraphSpec", "SpecSyntaxError", "parse_spec", "print_spec", "realize",
    "realize_text", "Embedding", "FreenessWitness", "are_isomorphic",
    "contains_induced", "fingerprint", "is_free",
    "GenerationBudgetError", "SizeLimitError", "alpha", "bipartite_class_bounded",
    "clique_cover_exact", "generate_free", "is_chordal",
    "Create",
    "ExpressionPreconditionError", "Join", "KExpression", "KExprEvalError",
    "KExprSyntaxError", "LabelledGraph", "Rename", "Union", "clique_width_exact",
    "eval_expression", "expr_disjoint_cliques", "expr_forest", "expr_max_degree_2",
    "parse_expression", "print_expression", "substitute_labels",
    "verify_expression", "width",
]

# Prints the package modules loaded once the code has run.
LOADED = 'print(" ".join(sorted(m for m in sys.modules if m.startswith("cliquewidth"))))'


def run_python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_import_loads_no_submodule():
    proc = run_python(f"import sys, cliquewidth\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "cliquewidth\n"


def test_submodules_import_through_the_package():
    code = (
        "import sys\n"
        "from cliquewidth import Graph, search\n"
        "import cliquewidth.graphs, cliquewidth.search\n"
        "assert Graph is cliquewidth.graphs.Graph and search is cliquewidth.search\n"
        f"{LOADED}"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    loaded = ["cliquewidth", "cliquewidth.graphs", "cliquewidth.namedgraphs", "cliquewidth.search"]
    assert proc.stdout.split() == loaded


def test_exports_match_their_home_modules():
    assert sorted(cliquewidth.__all__) == sorted(EXPORTS)
    assert len(set(cliquewidth.__all__)) == len(cliquewidth.__all__)
    for module, names in cliquewidth._EXPORTS.items():
        home = importlib.import_module(f"cliquewidth.{module}")
        for name in names:
            assert getattr(cliquewidth, name) is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cliquewidth.no_such_name
    with pytest.raises(ImportError):
        from cliquewidth import no_such_name  # noqa: F401


# Runs one CLI command, then prints the package modules it loaded.
RUN_CLI = (
    "import sys\n"
    "from cliquewidth.cli import main\n"
    "status = main(sys.argv[1:])\n"
    f"{LOADED}\n"
    "sys.exit(status)"
)
VERIFY = ["certificate", "namedgraphs", "recognition", "search"]


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("construct wall 3", ["constructions"]),
        ("construct complemented-wall 2", ["constructions"]),
        ("construct gi-reduce small.el", ["constructions"]),
        ("check-free member.el --spec diamond", ["namedgraphs", "search"]),
        ("clique-width member.el", ["kexpr", "namedgraphs", "search"]),
        ("certify member.el 2P1+P3", ["certify", *VERIFY]),
        ("verify-certificate member.el cert.json", VERIFY),
        ("classify-pair 2 3", ["classify"]),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, command, loaded):
    member = realize_text("P2+P3")
    (tmp_path / "member.el").write_text(to_edge_list_text(member))
    (tmp_path / "small.el").write_text(to_edge_list_text(realize_text("P3")))
    (tmp_path / "cert.json").write_text(certificate_to_json(certify_diamond_2p1p3(member)))
    proc = run_python(RUN_CLI, *command.split(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    expected = ["cliquewidth"] + [f"cliquewidth.{m}" for m in sorted(["cli", "graphs", *loaded])]
    assert proc.stdout.splitlines()[-1].split() == expected


def _module_level_imports(tree):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _package_imports(tree):
    """The package modules a module imports anywhere, function bodies
    included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            found.update(n.partition(".")[2] for n in names if n.startswith("cliquewidth."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module.split(".")[0] != "cliquewidth":
                    continue
                module = node.module.partition(".")[2]
            else:
                module = node.module
            # "from . import graphs" names the module in its aliases.
            found.update([module] if module else [alias.name for alias in node.names])
    return found


@pytest.mark.parametrize(
    "name, allowed",
    [
        # The trusted checker; kexpr only for explicit_expression leaves.
        ("certificate.py", {"graphs", "kexpr", "recognition", "search"}),
        ("classify.py", set()),
    ],
)
def test_checker_modules_import_no_certifier_code(name, allowed):
    imported = _package_imports(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
    assert "certify" not in imported
    assert imported <= allowed, f"{name} imports {sorted(imported - allowed)}"


def test_certify_reexports_the_checker_itself():
    import cliquewidth.certificate as certificate
    import cliquewidth.certify as certify

    for name in ("verify_certificate", "certificate_to_json", "certificate_from_json"):
        assert getattr(certify, name) is getattr(certificate, name), name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            where = f"{path.name}:{node.lineno}"
            assert name.split(".")[0] in sys.stdlib_module_names, f"{where} imports {name}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements; a check must raise on its own.
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} has an assert statement"


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_entry_points_import_only_graphs_at_module_level(name):
    for node in _module_level_imports(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute = [alias.name for alias in node.names]
        elif node.level == 0:
            absolute = [node.module]
        else:
            # "from .graphs import ..." or "from . import graphs"
            relative = [node.module] if node.module else [alias.name for alias in node.names]
            assert relative == ["graphs"], f"{name}:{node.lineno} imports {relative}"
            continue
        for module in absolute:
            assert module.split(".")[0] != "cliquewidth", f"{name}:{node.lineno} imports {module}"
