"""class-members: the three certifiers, then ``verify_certificate`` and a
JSON round trip, on seeded graphs of 6-16 vertices, plus
``reduce_by_clique_cover`` on planted covers of up to 40 vertices.

Thousands of sub-millisecond calls hit ``search`` on small hosts: both its
hit path (two backtracking passes) and its miss path run, along with
``realize``, ``recognition`` and ``certify``.  The solver sits idle.
"""
from __future__ import annotations

import inputs
import oracles

# Per class: 4 sizes x 18 random members, 5 kinds x 10 planted members and
# 11 sizes x 6 non-members, so 122 of 188 inputs are members.
RANDOM_PER_SIZE = 18
PLANTED_PER_KIND = 10
NON_MEMBERS_PER_SIZE = 6
COVER_INPUTS = 24
CERTIFIERS = {
    "3P1+P2": "certify_diamond_3p1p2",
    "2P1+P3": "certify_diamond_2p1p3",
    "P2+P3": "certify_diamond_p2p3",
}


class ClassMembers:
    name = "class-members"
    imports = ("cliquewidth.certify",)

    def __init__(self, rng) -> None:
        from cliquewidth import graphs

        pool = inputs.class_members_pool(rng, RANDOM_PER_SIZE, PLANTED_PER_KIND, NON_MEMBERS_PER_SIZE)
        pool += inputs.clique_cover_inputs(rng, COVER_INPUTS)
        rng.shuffle(pool)
        for key, item in enumerate(pool):
            item["key"] = key
            item["graph"] = graphs.build_graph(item["n"], item["edges"])
        self.rounds = [pool]
        self.summaries: dict[int, dict] = {}

    def execute(self, op):
        from cliquewidth import certify, search

        g = op["graph"]
        if op["certifier"] == "cover":
            result = certify.reduce_by_clique_cover(g, op["cover"])
            if isinstance(result, search.FreenessWitness):
                return ("reject", result.spec_text, result.embedding.mapping)
        else:
            try:
                result = getattr(certify, CERTIFIERS[op["certifier"]])(g)
            except certify.NotInClassError as exc:
                return ("reject", exc.witness.spec_text, exc.witness.embedding.mapping)
        verdict = certify.verify_certificate(g, result)
        text = certify.certificate_to_json(result)
        again = certify.certificate_to_json(certify.certificate_from_json(text))
        return ("cert", text, verdict.ok, len(verdict.leaves), again == text)

    def check(self, op, out) -> list[str]:
        n, edges = op["n"], op["edges"]
        g = oracles.nx_graph(range(n), edges)
        if op["certifier"] == "cover":
            forbidden = (oracles.DIAMOND, "2P2+P4")
            member = not oracles.nx_contains(g, oracles.DIAMOND)
        else:
            forbidden = oracles.CLASS_FORBIDDEN[op["certifier"]]
            member = not any(oracles.nx_contains(g, spec) for spec in forbidden)
        if out[0] == "reject":
            _, spec, mapping = out
            if spec not in forbidden:
                return [f"rejected with {spec}, not a forbidden graph of the class"]
            fails = oracles.check_embedding(oracles.adjacency(range(n), edges), spec, dict(mapping))
            if not fails and member and spec != "2P2+P4":
                fails.append("networkx labels the graph a member, yet it was rejected")
            return fails
        _, text, ok, leaves, round_trip = out
        if not member:
            return ["networkx labels the graph a non-member, yet it was certified"]
        if not ok:
            return ["the package's own verifier rejected its certificate"]
        if not round_trip:
            return ["JSON round trip changed the certificate"]
        fails, summary = oracles.replay_certificate(range(n), edges, text)
        if not fails and len(summary["leaves"]) != leaves:
            fails.append(f"{leaves} leaves reported, {len(summary['leaves'])} replayed")
        self.summaries[op["key"]] = summary
        return fails

    def stratum(self, op) -> str:
        return "member" if op["origin"] != "non-member" else "non-member"

    def describe(self, ops) -> dict:
        """Sizes, member share and branch mix (leaf kinds, justifications)
        per certifier, from the replayed certificates."""
        out: dict = {}
        for op in ops:
            entry = out.setdefault(
                op["certifier"],
                {"inputs": 0, "members": 0, "n_min": 99, "n_max": 0, "origins": {}, "leaves": {}, "justifications": {}},
            )
            entry["inputs"] += 1
            entry["n_min"] = min(entry["n_min"], op["n"])
            entry["n_max"] = max(entry["n_max"], op["n"])
            entry["origins"][op["origin"]] = entry["origins"].get(op["origin"], 0) + 1
            summary = self.summaries.get(op["key"])
            if summary is None:
                continue
            entry["members"] += 1
            for name in ("leaves", "justifications"):
                for item in summary[name]:
                    entry[name][item] = entry[name].get(item, 0) + 1
        return out

    def selftest(self, outputs: dict) -> dict[str, bool]:
        """A certificate with one deleted vertex changed, and a witness
        embedding with two images swapped, must both be rejected."""
        result = {}
        for op in self.rounds[0]:
            out = outputs.get(op["key"])
            bad = oracles.corrupt_first_deletion(out[1], op["n"]) if out and out[0] == "cert" else None
            if bad is not None:
                fails, _ = oracles.replay_certificate(range(op["n"]), op["edges"], bad)
                result["certificate with one deleted vertex changed"] = bool(fails)
                break
        for op in self.rounds[0]:
            out = outputs.get(op["key"])
            if out is None or out[0] != "reject":
                continue
            result["embedding with two images swapped"] = swapped_embedding_rejected(
                oracles.adjacency(range(op["n"]), op["edges"]), out[1], dict(out[2])
            )
            break
        return result


def swapped_embedding_rejected(adj, spec: str, mapping: dict[int, int]) -> bool:
    """Swap the images of two pattern vertices that are not twins (so the
    swap cannot be an automorphism); the embedding check must fail."""
    k, pedges = oracles.PATTERNS[spec]
    padj = oracles.adjacency(range(k), pedges)
    for a in range(k):
        for b in range(a + 1, k):
            if padj[a] - {b} != padj[b] - {a}:
                bad = dict(mapping)
                bad[a], bad[b] = bad[b], bad[a]
                return bool(oracles.check_embedding(adj, spec, bad))
    return False
