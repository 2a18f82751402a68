import ast
import hashlib
import inspect
import json

import pytest

from cliquewidth import (
    FreenessWitness,
    SizeLimitError,
    build_graph,
    clique_width_exact,
    complement,
    contains_induced,
    generate_free,
    is_free,
    realize_text,
    to_edge_list_text,
)
import cliquewidth.certify as certify_module
from cliquewidth.certificate import (
    BaseLeaf,
    Certificate,
    DELETE_RULES,
    DeleteVerticesStep,
    LEAF_WIDTH_BOUNDS,
    SplitComponentsStep,
    SubgraphComplementStep,
    PruneDegreeOneStep,
    certificate_from_json,
    certificate_root,
    certificate_to_json,
    verify_certificate,
)
from cliquewidth.certify import (
    Branch,
    InternalContradictionError,
    NotInClassError,
    certify_diamond_2p1p3,
    certify_diamond_3p1p2,
    certify_diamond_p2p3,
    clique_independent_separator,
    clique_or_independence_branch,
    reduce_by_clique_cover,
)
from cliquewidth.classify import PairStatus, classify_pair
from cliquewidth.cli import main
from conftest import cliques_graph


def iter_steps(node):
    yield node
    for child in getattr(node, "children", ()) or (
        (node.child,) if hasattr(node, "child") else ()
    ):
        yield from iter_steps(child)


# --- verifier -----------------------------------------------------------


def test_verify_simple_leaf_certificates():
    g = realize_text("K3+K2")
    cert = Certificate(certificate_root(g), BaseLeaf("disjoint_cliques"))
    assert verify_certificate(g, cert).ok
    p3 = realize_text("P3")
    cert = Certificate(certificate_root(p3), BaseLeaf("disjoint_cliques"))
    result = verify_certificate(p3, cert)
    assert not result.ok and "clique" in result.failures[0]


def test_verify_rejects_wrong_root():
    g = realize_text("K3+K2")
    other = realize_text("P5")
    cert = Certificate(certificate_root(other), BaseLeaf("disjoint_cliques"))
    result = verify_certificate(g, cert)
    assert not result.ok and "fingerprint" in result.failures[0]


def test_verify_rejects_bound_violation():
    g = realize_text("K5")
    step = DeleteVerticesStep((0, 1, 2), "too-many", 2, BaseLeaf("disjoint_cliques"))
    result = verify_certificate(g, Certificate(certificate_root(g), step))
    assert not result.ok and "stated bound" in result.failures[0]


def test_verify_rejects_unknown_vertex():
    g = realize_text("K3")
    step = DeleteVerticesStep((7,), "ghost", 5, BaseLeaf("disjoint_cliques"))
    result = verify_certificate(g, Certificate(certificate_root(g), step))
    assert not result.ok and "do not exist" in result.failures[0]


def test_verify_rejects_unknown_justification():
    g = realize_text("C9")
    step = DeleteVerticesStep(g.vertices, "made-up", 9, BaseLeaf("disjoint_cliques"))
    result = verify_certificate(g, Certificate(certificate_root(g), step))
    assert not result.ok and "unknown justification 'made-up'" in result.failures[0]


def test_delete_justifications_are_the_certifier_literals():
    tree = ast.parse(inspect.getsource(certify_module))
    calls = [
        call
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "delete"
    ]
    written = {call.args[1].value for call in calls}
    assert written == DELETE_RULES.keys() == ALLOWED_BOUNDS.keys()
    # Each site passes its facts by keyword; the bound comes from the rule.
    assert all(len(call.args) == 2 for call in calls)


@pytest.mark.parametrize(
    "justification, chunks, failure",
    [
        (
            "cycle-vertices",
            [(0, 1, 2, 3, 4), (5, 6, 7, 8)],
            "step: cycle-vertices [0, 1, 2, 3, 4] are not an induced cycle of 4 to 7 vertices",
        ),
        (
            "shared-attachment-hub",
            [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
            "step: stated bound 3 exceeds the shared-attachment-hub bound 1",
        ),
    ],
    ids=["path-chunks-as-cycles", "hub-over-its-constant"],
)
def test_verify_rejects_c9_forgeries(justification, chunks, failure):
    # C9 deleted in chunks, each stating its own size as bound, over an
    # empty leaf.
    g = realize_text("C9")
    node = BaseLeaf("disjoint_cliques")
    for chunk in reversed(chunks):
        node = DeleteVerticesStep(chunk, justification, len(chunk), node)
    assert verify_certificate(g, Certificate(certificate_root(g), node)).failures == [failure]


@pytest.mark.parametrize(
    "vertices, stated, failure",
    [
        ((0, 1, 2, 3), 4, None),
        ((0, 1, 2, 3), 5, "stated bound 5 exceeds the cycle-vertices bound 4"),
        ((0, 1, 2, 3, 3), 5, "cycle-vertices [0, 1, 2, 3, 3] are not an induced cycle"),
        ((0, 5, 6), 3, "cycle-vertices [0, 5, 6] are not an induced cycle"),
        ((0, 1, 2, 4), 4, "cycle-vertices [0, 1, 2, 4] are not an induced cycle"),
    ],
    ids=["c4", "bound-above-length", "duplicate-vertex", "triangle", "not-a-cycle"],
)
def test_verify_cycle_vertices_bound_is_the_cycle_length(vertices, stated, failure):
    # An induced C4 0-1-2-3, a pendant vertex 4 on 3, and a triangle 0-5-6.
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (0, 5), (0, 6), (5, 6)])
    step = DeleteVerticesStep(vertices, "cycle-vertices", stated, BaseLeaf("forest"))
    result = verify_certificate(g, Certificate(certificate_root(g), step))
    if failure is None:
        assert result.ok
    else:
        assert len(result.failures) == 1 and result.failures[0].startswith(f"step: {failure}")


def test_verify_rejects_crossing_split():
    g = realize_text("P2")
    step = SplitComponentsStep(
        ((0,), (1,)), (BaseLeaf("disjoint_cliques"), BaseLeaf("disjoint_cliques"))
    )
    result = verify_certificate(g, Certificate(certificate_root(g), step))
    assert not result.ok and "crosses" in result.failures[0]


def test_verify_rejects_bad_bipartite_leaf():
    g = realize_text("C4")  # bipartite, but C4-free bipartite is unbounded
    cert = Certificate(certificate_root(g), BaseLeaf("bipartite_h_free", h="C4"))
    result = verify_certificate(g, cert)
    assert not result.ok and "not a bounded class" in result.failures[0]
    cert = Certificate(certificate_root(g), BaseLeaf("bipartite_h_free", h="2P1+P3"))
    assert verify_certificate(g, cert).ok


def test_verify_explicit_expression_leaf():
    g = realize_text("C5")
    cert = Certificate(
        certificate_root(g), BaseLeaf("explicit_expression", expression="v1")
    )
    assert not verify_certificate(g, cert).ok
    k1 = realize_text("P1")
    cert = Certificate(
        certificate_root(k1), BaseLeaf("explicit_expression", expression="v1")
    )
    assert verify_certificate(k1, cert).ok


def test_verify_step_replay_chain():
    # delete one vertex of a paw to leave a triangle, then complement it
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    step = DeleteVerticesStep(
        (3,),
        "shared-attachment-hub",
        1,
        SubgraphComplementStep((0, 1, 2), BaseLeaf("disjoint_cliques")),
    )
    assert verify_certificate(g, Certificate(certificate_root(g), step)).ok


def test_verify_prune_step():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)])
    step = PruneDegreeOneStep(BaseLeaf("max_degree_2"))
    assert verify_certificate(g, Certificate(certificate_root(g), step)).ok


# --- JSON ----------------------------------------------------------------


def test_certificate_json_round_trip():
    g = realize_text("C6")
    cert = certify_diamond_2p1p3(g)
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert json.loads(text)["version"] == "v1"


def test_certificate_json_rejects_unknown_version():
    with pytest.raises(ValueError):
        certificate_from_json('{"version": "v2", "root": {}, "step": {}}')


def test_certificate_json_rejects_deep_nesting():
    step = '{"base": "disjoint_cliques"}'
    for _ in range(3000):
        step = '{"op": "prune_degree_one", "children": [%s]}' % step
    text = '{"version": "v1", "root": {"n": 1, "m": 0, "hash": "x"}, "step": %s}' % step
    with pytest.raises(ValueError, match="nested too deeply"):
        certificate_from_json(text)


# --- reduction by clique cover -------------------------------------------


def test_reduce_four_k8s_all_below_threshold():
    g, parts = cliques_graph([8, 8, 8, 8])
    cert = reduce_by_clique_cover(g, parts)
    assert isinstance(cert, Certificate)
    result = verify_certificate(g, cert)
    assert result.ok
    assert result.leaves[0][0].kind == "disjoint_cliques"


def test_reduce_cross_edge_yields_witness():
    g, parts = cliques_graph([12, 12, 12, 12], cross=[(0, 12)])
    witness = reduce_by_clique_cover(g, parts)
    assert isinstance(witness, FreenessWitness)
    assert witness.spec_text == "2P2+P4"
    assert witness.embedding.validate(g, realize_text("2P2+P4"))


def test_reduce_matching_between_big_cliques():
    cross = [(i, 10 + i) for i in range(10)]
    g, parts = cliques_graph([10, 10, 10], cross=cross)
    cert = reduce_by_clique_cover(g, parts)
    assert isinstance(cert, Certificate)
    result = verify_certificate(g, cert)
    assert result.ok
    assert result.leaves[0][0].kind == "max_degree_2"
    leaf_graph = result.leaves[0][1]
    assert leaf_graph.max_degree() <= 2


def test_reduce_cross_complete_vertex():
    # Two 9-cliques, with vertex 0 also joined to all of the second: the
    # one justification that no certifier reaches on small members.
    g, parts = cliques_graph([9, 9], cross=[(0, v) for v in range(9, 18)])
    cert = reduce_by_clique_cover(g, parts)
    assert isinstance(cert, Certificate)
    first = cert.step
    assert isinstance(first, DeleteVerticesStep)
    assert (first.vertices, first.justification, first.stated_bound) == (
        (0,), "cross-complete-vertices", 2
    )
    assert_allowed_bounds(cert)
    assert verify_certificate(g, cert).ok


def test_reduce_rejects_bad_cover():
    g, parts = cliques_graph([4, 4])
    with pytest.raises(ValueError):
        reduce_by_clique_cover(g, [parts[0]])  # not a partition
    with pytest.raises(ValueError):
        reduce_by_clique_cover(g, [parts[0] | {4}, parts[1] - {4}])


def test_reduce_rejects_diamond():
    g = realize_text("diamond")
    with pytest.raises(NotInClassError):
        reduce_by_clique_cover(g, [frozenset(g.vertices)])


# --- separator ------------------------------------------------------------


def test_separator_anticomplete_is_empty():
    g, parts = cliques_graph([5])
    g = build_graph(10, list(g.edges()))  # 5 isolated vertices alongside K5
    sep = clique_independent_separator(g, parts[0], frozenset(range(5, 10)))
    assert sep == frozenset()


def test_separator_small_clique_returned():
    # K3 matched to a 3-vertex independent set stays in the class
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]
    g = build_graph(6, edges)
    assert is_free(g, ["diamond", "2P1+P3"])[0]
    sep = clique_independent_separator(g, {0, 1, 2}, {3, 4, 5})
    assert sep == frozenset({0, 1, 2})


def test_separator_complete_vertex():
    # z complete to the clique, the rest of I isolated from it
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5, i) for i in range(5)]
    g = build_graph(11, edges)
    assert is_free(g, ["diamond", "2P1+P3"])[0]
    sep = clique_independent_separator(g, set(range(5)), set(range(5, 11)))
    assert sep == frozenset({5})


def test_separator_hits_all_edges_on_members(rng):
    members = generate_free(range(4, 13), ["diamond", "2P1+P3"], 40, seed=5)
    for g in members:
        clique = set()
        for v in sorted(g.vertices, key=lambda v: (-g.degree(v), v)):
            if all(g.has_edge(v, u) for u in clique):
                clique.add(v)
        indep = set()
        for v in sorted(set(g.vertices) - clique):
            if not g.neighbors(v) & indep:
                indep.add(v)
        sep = clique_independent_separator(g, clique, indep)
        assert len(sep) <= 4
        for u in clique - sep:
            for v in indep - sep:
                assert not g.has_edge(u, v)


def test_separator_input_validation():
    g = realize_text("C4")
    with pytest.raises(ValueError):
        clique_independent_separator(g, {0, 1}, {1, 2})
    with pytest.raises(ValueError):
        clique_independent_separator(g, {0, 2}, {1})  # not a clique
    with pytest.raises(NotInClassError):
        clique_independent_separator(realize_text("diamond"), {0}, {1})


# --- branching -------------------------------------------------------------


def test_branch_examples():
    assert clique_or_independence_branch(realize_text("C5"), 2, 3) is Branch.K_FREE
    assert (
        clique_or_independence_branch(realize_text("K3"), 2, 3)
        is Branch.INDEPENDENCE_BOUND
    )
    assert (
        clique_or_independence_branch(realize_text("K4+K4"), 2, 3)
        is Branch.INDEPENDENCE_BOUND
    )
    with pytest.raises(NotInClassError):
        clique_or_independence_branch(realize_text("diamond"), 2, 3)
    # The bound 4 * 10**9 - 2 exceeds the host's order, so its edgeless
    # pattern is ruled out by size and never built.
    assert (
        clique_or_independence_branch(realize_text("K3"), 2, 10**9)
        is Branch.INDEPENDENCE_BOUND
    )


def test_branch_never_hits_internal_error_on_members():
    members = generate_free(range(4, 13), ["diamond", "3P1+P2"], 1000, seed=23)
    for g in members:
        assert clique_or_independence_branch(g, 2, 3) in (
            Branch.K_FREE,
            Branch.INDEPENDENCE_BOUND,
        )


def test_branch_facts_make_members_perfect():
    # With no induced C5 or C7, a (diamond, 3P1+P2)-free graph has no odd
    # hole, since every longer odd hole contains 3P1+P2, and no odd antihole,
    # since C5 is its own complement and every longer odd antihole contains
    # a diamond.  By the Strong Perfect Graph Theorem (Chudnovsky,
    # Robertson, Seymour and Thomas, Ann. of Math. 2006) it is then perfect,
    # and certify_diamond_3p1p2 relies on that.
    cases = [(realize_text(f"C{k}"), "3P1+P2") for k in (9, 11, 13, 15)]
    cases += [(complement(realize_text(f"C{k}")), "diamond") for k in (7, 9, 11, 13, 15)]
    for host, spec in cases:
        pattern = realize_text(spec)
        emb = contains_induced(host, pattern)
        assert emb is not None and emb.validate(host, pattern)
    assert contains_induced(complement(realize_text("C5")), realize_text("C5")) is not None


# --- theorem certifiers -----------------------------------------------------


def test_certify_3p1p2_k10():
    g = realize_text("K10")
    cert = certify_diamond_3p1p2(g)
    result = verify_certificate(g, cert)
    assert result.ok
    # clique-cover path with a single clique: one complementation step
    kinds = [type(s).__name__ for s in iter_steps(cert.step)]
    assert "SubgraphComplementStep" in kinds
    assert result.leaves[0][0].kind == "max_degree_2"


def test_certify_3p1p2_triangle_free():
    g = realize_text("C5")
    cert = certify_diamond_3p1p2(g)
    assert isinstance(cert.step, BaseLeaf) and cert.step.kind == "k3_k13p2_free"
    assert verify_certificate(g, cert).ok


def test_certify_3p1p2_cycle_paths():
    g = realize_text("C5+K3")
    cert = certify_diamond_3p1p2(g)
    result = verify_certificate(g, cert)
    assert result.ok
    justs = [
        s.justification for s in iter_steps(cert.step) if isinstance(s, DeleteVerticesStep)
    ]
    assert "cycle-vertices" in justs


@pytest.mark.parametrize("text", ["K17", "K24", "C5+K20"])
def test_certify_3p1p2_above_sixteen_vertices(text):
    # K17 and K24 take the branch with no C5 or C7 and its exact cover;
    # C5+K20 takes the cycle branch, which has no size limit.
    g = realize_text(text)
    assert verify_certificate(g, certify_diamond_3p1p2(g)).ok


def test_certify_3p1p2_cover_limit():
    with pytest.raises(SizeLimitError, match="^clique_cover_exact limited to 24 vertices, got 25$"):
        certify_diamond_3p1p2(realize_text("K25"))


def test_certify_2p1p3_chordal():
    g = realize_text("K1,3")
    cert = certify_diamond_2p1p3(g)
    assert isinstance(cert.step, BaseLeaf) and cert.step.kind == "chordal_diamond_free"
    assert verify_certificate(g, cert).ok


def test_certify_2p1p3_c6():
    g = realize_text("C6")
    cert = certify_diamond_2p1p3(g)
    result = verify_certificate(g, cert)
    assert result.ok
    assert result.leaves[0][0].kind == "disjoint_cliques"


def test_certify_p2p3_k6():
    g = realize_text("K6")
    cert = certify_diamond_p2p3(g)
    result = verify_certificate(g, cert)
    assert result.ok
    assert result.leaves[0][0].kind == "disjoint_cliques"


def test_certify_p2p3_c5():
    g = realize_text("C5")
    cert = certify_diamond_p2p3(g)
    result = verify_certificate(g, cert)
    assert result.ok
    assert result.leaves[0][0].kind == "max_degree_2"


def test_certify_p2p3_c4_with_double_attachment():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 1), (4, 3), (5, 0), (5, 2)]
    edges += [(6, 4), (6, 5), (4, 5)]
    g = build_graph(7, edges)
    assert is_free(g, ["diamond", "P2+P3"])[0]
    cert = certify_diamond_p2p3(g)
    result = verify_certificate(g, cert)
    assert result.ok
    assert {leaf.kind for leaf, _ in result.leaves} <= {
        "forest",
        "bipartite_h_free",
        "disjoint_cliques",
    }
    assert any(leaf.kind == "forest" for leaf, _ in result.leaves)


def test_certify_p2p3_k5_with_detached_component(tmp_path, capsys):
    # K5 on {3,5,6,7,8}, the triangle {0,1,4} matched to 3, 8 and 6, and an
    # isolated vertex 2 that touches no clique vertex.
    edges = [(0, 1), (0, 4), (0, 8), (1, 3), (1, 4), (3, 5), (3, 6), (3, 7), (3, 8)]
    edges += [(4, 6), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
    g = build_graph(9, edges)
    assert is_free(g, ["diamond", "P2+P3"])[0]
    cert = certify_diamond_p2p3(g)
    assert verify_certificate(g, cert).ok
    path = tmp_path / "g.el"
    path.write_text(to_edge_list_text(g))
    assert main(["certify", str(path), "P2+P3"]) == 0
    capsys.readouterr()


def test_certifiers_reject_non_members():
    d = realize_text("diamond")
    for certifier in (
        certify_diamond_3p1p2,
        certify_diamond_2p1p3,
        certify_diamond_p2p3,
    ):
        with pytest.raises(NotInClassError) as err:
            certifier(d)
        assert err.value.witness.embedding.validate(d, realize_text("diamond"))
    with pytest.raises(NotInClassError):
        certify_diamond_3p1p2(realize_text("3P1+P2"))
    with pytest.raises(NotInClassError):
        certify_diamond_2p1p3(realize_text("2P1+P3"))
    with pytest.raises(NotInClassError):
        certify_diamond_p2p3(realize_text("P2+P3"))


CERTIFIERS = {
    "3P1+P2": certify_diamond_3p1p2,
    "2P1+P3": certify_diamond_2p1p3,
    "P2+P3": certify_diamond_p2p3,
}

# The bounds each justification's lemma allows, written apart from
# DELETE_RULES: every stated bound a certifier writes must be one of them.
ALLOWED_BOUNDS = {
    "common-neighbours-of-nonconsecutive-cycle-pair": {45, 126, 5, 9, 14},
    # k + 6 for a cover of k <= 15 cliques; the most is 2 * 7 + 1, around a C7.
    "cover-clique-below-size-threshold": set(range(7, 22)),
    "clique-independent-separators": {48},
    "cycle-vertices": {4, 5, 6, 7},
    "consecutive-pair-common-neighbours": {4},
    "clique-vertices-with-outside-neighbours": {2},
    "cross-complete-vertices": {k * (k - 1) for k in range(2, 7)},
    "opposite-pendant-pair": {2},
    "cross-attached-pendants": {2},
    "shared-attachment-hub": {1},
    "single-cycle-neighbour-vertices": {5},
    "small-class": {2},
}


MEMBER_SEEDS = {"2P1+P3": 1, "3P1+P2": 2, "P2+P3": 3}


def assert_allowed_bounds(cert):
    for step in iter_steps(cert.step):
        if isinstance(step, DeleteVerticesStep):
            assert len(step.vertices) <= step.stated_bound
            assert step.stated_bound in ALLOWED_BOUNDS[step.justification], (
                step.justification,
                step.stated_bound,
            )


@pytest.mark.parametrize("h2", sorted(CERTIFIERS))
def test_certify_random_members_end_to_end(h2, rng):
    members = generate_free(range(4, 13), ["diamond", h2], 60, seed=MEMBER_SEEDS[h2])
    for g in members:
        cert = CERTIFIERS[h2](g)
        result = verify_certificate(g, cert)
        assert result.ok, (g.edges(), result.failures)
        assert_allowed_bounds(cert)


def step_names(cert):
    """Justifications of the deletions and names of the other steps; a
    subgraph complementation of every root vertex reads "whole-graph"."""
    names = set()
    for step in iter_steps(cert.step):
        if isinstance(step, DeleteVerticesStep):
            names.add(step.justification)
        elif isinstance(step, SubgraphComplementStep) and len(step.vertices) == cert.root.n:
            names.add("whole-graph subgraph_complement")
        elif not isinstance(step, BaseLeaf):
            names.add(type(step).__name__)
    return names


K5_WITH_PATH = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5), (1, 6), (5, 6)]

# Small members whose certificates reach the rarer step sites.  Sampled
# members reach the first three at most once in 150 certificates, and the
# outside-neighbour, cross-attached and hub sites not at all.
STEP_SITES = [
    ("single-cycle-neighbours", "P2+P3", 6,
     [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4)],
     {"single-cycle-neighbour-vertices"}),
    ("opposite-pendants", "P2+P3", 7,
     [(0, 1), (0, 3), (0, 6), (1, 2), (2, 3), (2, 5)],
     {"opposite-pendant-pair"}),
    ("separators", "2P1+P3", 6,
     [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (4, 5)],
     {"clique-independent-separators"}),
    ("outside-neighbours", "P2+P3", 9,
     [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4),
      (2, 5), (2, 8), (3, 4), (5, 6)],
     {"clique-vertices-with-outside-neighbours"}),
    ("cross-attached", "P2+P3", 8,
     [(0, 1), (0, 3), (0, 5), (0, 6), (1, 2), (1, 7), (2, 3), (2, 5), (3, 7), (4, 5),
      (4, 7), (5, 6), (5, 7)],
     {"cross-attached-pendants", "BipartiteComplementStep"}),
    ("hub", "P2+P3", 9,
     [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4), (0, 5), (2, 5), (0, 6), (2, 6),
      (4, 7), (5, 7), (4, 8), (6, 8), (4, 5), (4, 6)],
     {"shared-attachment-hub"}),
    ("k5-prune-complement", "P2+P3", 7, K5_WITH_PATH,
     {"PruneDegreeOneStep", "whole-graph subgraph_complement"}),
]


@pytest.mark.parametrize(
    "h2, n, edges, wanted", [pytest.param(*rest, id=name) for name, *rest in STEP_SITES]
)
def test_certifier_step_sites(h2, n, edges, wanted):
    g = build_graph(n, edges)
    cert = CERTIFIERS[h2](g)
    assert verify_certificate(g, cert).ok
    assert wanted <= step_names(cert)


@pytest.mark.parametrize("h2", sorted(CERTIFIERS))
def test_soundness_harness_leaf_widths(h2):
    members = generate_free(range(4, 11), ["diamond", h2], 25, seed=len(h2))
    for g in members:
        cert = CERTIFIERS[h2](g)
        result = verify_certificate(g, cert)
        assert result.ok
        for leaf, leaf_graph in result.leaves:
            bound = LEAF_WIDTH_BOUNDS.get(leaf.kind)
            if bound is not None and leaf_graph.n <= 10:
                got = clique_width_exact(leaf_graph)
                assert got is not None and got[0] <= bound


# Digest of every certifier's outcome on ``golden_corpus()``: the certificate
# JSON, the forbidden graph and embedding of a rejection, or the name of the
# error that stopped the certifier.  Refactors of the certifiers keep it; a change that means to
# alter a certificate or a witness updates it and says why.
GOLDEN_DIGEST = "a3ec57e2c6f37fa5cdfda64f3b2d5086a378151c147ff9b487977cebc8d8bd0d"


def golden_corpus():
    """The step-site graphs, named non-members, and seeded members of each
    class.  Every certifier runs on every graph, so the members of one class
    add non-members of the others.  Together they reach every deletion
    justification except ``cross-complete-vertices``, which needs cover
    cliques above the size threshold; ``test_reduce_cross_complete_vertex``
    reaches that one, outside this corpus."""
    graphs = [build_graph(n, edges) for _, _, n, edges, _ in STEP_SITES]
    graphs += [realize_text(t) for t in ("diamond", "2P2+P4", "3P1+P2", "2P1+P3", "P2+P3", "P7")]
    for seed, h2 in enumerate(sorted(CERTIFIERS), start=128):
        graphs += generate_free(range(4, 13), ["diamond", h2], 60, seed=seed)
    return graphs


def test_certifier_outcomes_match_golden_digest():
    digest = hashlib.sha256()
    for g in golden_corpus():
        for h2 in sorted(CERTIFIERS):
            try:
                cert = CERTIFIERS[h2](g)
                assert_allowed_bounds(cert)
                outcome = certificate_to_json(cert)
            except NotInClassError as err:
                outcome = f"{err.witness.spec_text} {err.witness.embedding.mapping}"
            except (InternalContradictionError, SizeLimitError) as err:
                outcome = type(err).__name__
            digest.update(f"{h2} {sorted(g.edges())} {outcome}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


# --- pair classification -----------------------------------------------------


def test_classify_pair_examples():
    assert classify_pair(2, 3) == PairStatus(2, 3, "Bounded")
    assert classify_pair(1, 100).status == "Bounded"
    assert classify_pair(3, 3).status == "Unbounded"
    assert classify_pair(0, 9).status == "Bounded"
    with pytest.raises(ValueError):
        classify_pair(-1, 2)
