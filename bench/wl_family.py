"""unbounded-family: complemented walls and GI-reduction outputs, all
(diamond, P2+P4)-free, plus isomorphism pairs of reduced outputs.

Each host goes through its structure verifier and ``is_free(diamond,
P2+P4)``: absence proofs on hosts of 35-110 vertices.  Each pair runs two
reductions and ``are_isomorphic``: colour refinement and
individualisation on graphs of about 100 vertices.  One perturbed wall,
with an edge added inside part A, must yield a diamond witness.
"""
from __future__ import annotations

import inputs
import oracles
from wl_members import swapped_embedding_rejected

FAMILY_SPECS = ["diamond", "P2+P4"]
WALL_HEIGHTS = (2, 3)
# (n, m) of the GI-host seed graphs: a path P3 under a seeded labelling,
# whose reduction has 67 vertices.
GI_HOSTS = ((3, 2),)
# Enough pairs that the hosts (and the slow C6/2K3 pair) stay under a tenth
# of a round's operations, so the 90th percentile is a pair latency.
PAIRS_PER_ROUND = 60
PAIR_SETS = 3


def _graph_record(pg):
    parts = tuple((name, tuple(sorted(part))) for name, part in sorted(pg.parts.items()))
    return pg.graph.vertices, pg.graph.edges(), parts


def _free_record(graph):
    from cliquewidth import search

    free, witness = search.is_free(graph, FAMILY_SPECS)
    if free:
        return (True, None, None)
    return (False, witness.spec_text, witness.embedding.mapping)


class UnboundedFamily:
    name = "unbounded-family"
    imports = ("cliquewidth.constructions",)

    def __init__(self, rng) -> None:
        from cliquewidth import constructions, graphs

        ops: list[dict] = [{"op": "wall", "h": h} for h in WALL_HEIGHTS]
        n, edges, parts = oracles.complemented_wall_own(2)
        a1, a2 = rng.sample(sorted(parts["A"]), 2)
        edges = edges + [(a1, a2)]
        ops.append(
            {
                "op": "perturbed",
                "n": n,
                "edges": edges,
                "pg": constructions.PartitionedGraph(
                    graphs.Graph(range(n), edges), {k: frozenset(v) for k, v in parts.items()}
                ),
            }
        )
        for n, m in GI_HOSTS:
            edges = inputs.random_graph_nm(rng, n, m)
            ops.append({"op": "gi-host", "n": n, "edges": edges, "graph": graphs.build_graph(n, edges)})
        self.rounds = []
        for _ in range(PAIR_SETS):
            pairs = []
            for pair in inputs.iso_pairs(rng, PAIRS_PER_ROUND):
                pair["op"] = "pair"
                pair["g1"] = graphs.build_graph(pair["n"], pair["e1"])
                pair["g2"] = graphs.build_graph(pair["n"], pair["e2"])
                pairs.append(pair)
            self.rounds.append(ops + pairs)
        key = 0
        for op in ops:
            op["key"] = key
            key += 1
        for round_ops in self.rounds:
            for op in round_ops[len(ops):]:
                op["key"] = key
                key += 1

    def execute(self, op):
        from cliquewidth import constructions, search

        kind = op["op"]
        if kind == "pair":
            r1 = constructions.gi_reduce(op["g1"])
            r2 = constructions.gi_reduce(op["g2"])
            emb = search.are_isomorphic(r1.graph, r2.graph)
            mapping = emb.mapping if emb is not None else None
            return ("pair", _graph_record(r1), _graph_record(r2), mapping)
        if kind == "wall":
            pg = constructions.complemented_wall(op["h"])
            report = constructions.verify_complemented_wall(pg)
        elif kind == "perturbed":
            pg = op["pg"]
            report = constructions.verify_complemented_wall(pg)
        else:
            pg = constructions.gi_reduce(op["graph"])
            report = constructions.verify_gi_profile(pg)
        return ("host", _graph_record(pg), report.ok, _free_record(pg.graph))

    def check(self, op, out) -> list[str]:
        import networkx as nx

        kind = op["op"]
        if kind == "pair":
            _, r1, r2, mapping = out
            fails = oracles.check_gi_output(op["n"], op["e1"], r1[0], r1[1], {k: set(v) for k, v in r1[2]})
            fails += oracles.check_gi_output(op["n"], op["e2"], r2[0], r2[1], {k: set(v) for k, v in r2[2]})
            expected = nx.is_isomorphic(
                oracles.nx_graph(range(op["n"]), op["e1"]), oracles.nx_graph(range(op["n"]), op["e2"])
            )
            fails += verdict_failures(expected, mapping, r1, r2)
            return fails
        _, (vertices, edges, parts), report_ok, (free, spec, mapping) = out
        parts = {k: set(v) for k, v in parts}
        if kind == "perturbed":
            if report_ok:
                return ["structure verifier accepted a wall with an edge inside A"]
            if free or spec != oracles.DIAMOND:
                return [f"perturbed wall gave {spec!r}, expected a diamond witness"]
            return oracles.check_embedding(oracles.adjacency(vertices, edges), spec, dict(mapping))
        if kind == "wall":
            fails = oracles.check_complemented_wall(op["h"], vertices, edges, parts)
            if op["h"] == 2 and not fails:
                g = oracles.nx_graph(vertices, edges)
                own_n, own_edges, _ = oracles.complemented_wall_own(2)
                if not nx.is_isomorphic(g, oracles.nx_graph(range(own_n), own_edges)):
                    fails.append("height-2 wall differs from the definition")
                if any(oracles.nx_contains(g, s) for s in (oracles.DIAMOND, "P2+P4")):
                    fails.append("networkx finds a diamond or P2+P4 in the height-2 wall")
        else:
            fails = oracles.check_gi_output(op["n"], op["edges"], vertices, edges, parts)
        if not report_ok:
            fails.append("structure verifier rejected a correct output")
        if not free:
            fails.append(f"host reported to contain {spec}")
        return fails

    def stratum(self, op) -> str:
        return "pair" if op["op"] == "pair" else "host"

    def describe(self, ops) -> dict:
        out: dict = {}
        for op in ops:
            key = op["op"] if op["op"] != "pair" else f"pair:{op['origin']}"
            out[key] = out.get(key, 0) + 1
        return out

    def selftest(self, outputs: dict) -> dict[str, bool]:
        """A flipped isomorphism verdict and an isomorphism map with two
        images swapped must both be rejected."""
        import networkx as nx

        result = {}
        for op in (op for ops in self.rounds for op in ops if op["op"] == "pair"):
            out = outputs.get(op["key"])
            if out is None:
                continue
            _, r1, r2, mapping = out
            expected = nx.is_isomorphic(
                oracles.nx_graph(range(op["n"]), op["e1"]), oracles.nx_graph(range(op["n"]), op["e2"])
            )
            if mapping is not None and "isomorphism map with two images swapped" not in result:
                adj1 = oracles.adjacency(r1[0], r1[1])
                bad = dict(mapping)
                a = next(
                    (a, b) for a in adj1 for b in adj1 if a < b and adj1[a] - {b} != adj1[b] - {a}
                )
                bad[a[0]], bad[a[1]] = bad[a[1]], bad[a[0]]
                result["isomorphism map with two images swapped"] = bool(
                    verdict_failures(expected, tuple(bad.items()), r1, r2)
                )
            if "flipped isomorphism verdict" not in result:
                flipped = None if mapping is not None else tuple((v, v) for v in r1[0])
                result["flipped isomorphism verdict"] = bool(verdict_failures(expected, flipped, r1, r2))
            if len(result) == 2:
                break
        for op in self.rounds[0]:
            out = outputs.get(op["key"])
            if op["op"] == "perturbed" and out is not None:
                _, (vertices, edges, _), _, (_, spec, mapping) = out
                result["embedding with two images swapped"] = swapped_embedding_rejected(
                    oracles.adjacency(vertices, edges), spec, dict(mapping)
                )
        return result


def verdict_failures(expected: bool, mapping, r1, r2) -> list[str]:
    """The verdict must equal networkx's on the seed graphs, and a returned
    map must be an isomorphism between the reduced graphs."""
    if (mapping is not None) != expected:
        return [f"isomorphism verdict {mapping is not None}, networkx says {expected}"]
    if mapping is None:
        return []
    return oracles.check_isomorphism_map(
        oracles.adjacency(r1[0], r1[1]), oracles.adjacency(r2[0], r2[1]), dict(mapping)
    )
