"""exact-width: ``clique_width_exact`` on a catalogue of 8-10 vertex graphs.

The solver's subset search and its k = 1..k_max restarts take nearly all
of the time here; search and certify sit idle.  21 of the 38 graphs of a
round are prime (random prime G(n,p), paths, cycles, the rook's graph)
and 17 decomposable (disjoint unions, module substitutions, cographs), so
that a gain from decomposition shows on one part and not on the other.
"""
from __future__ import annotations

import random

import inputs
import oracles

# The solver's time is set by a graph's structure and spans a factor of ten
# between graphs of one size, while a run solves only about a hundred.  So
# every round solves the same catalogue of structures, drawn once from
# STRUCTURE_SEED: two batches of fourteen slots, nine more cheap graphs and
# the 3x3 rook's graph.  --seed draws a fresh vertex labelling of every
# graph in every round.  Runs then compare like with like.  Most of the
# catalogue is cheap 8-vertex graphs whose cost hardly depends on the
# labelling, so the median latency falls among them; paths, cycles and
# module substitutions, whose cost moves by up to a third with the
# labelling, sit well above it.
STRUCTURE_SEED = 1
# Pre-labelled rounds; a run cycles through them.
ROUNDS = 8


class ExactWidth:
    name = "exact-width"
    imports = ("cliquewidth.kexpr",)

    def __init__(self, rng) -> None:
        from cliquewidth import graphs

        structures = random.Random(STRUCTURE_SEED)
        catalogue = inputs.exact_width_batch(structures) + inputs.exact_width_batch(structures)
        catalogue += inputs.small_batch(structures)
        catalogue.append({"kind": "prime", "n": 9, "edges": inputs.rook_3x3(), "family": "rook"})
        self.rounds = []
        key = 0
        for _ in range(ROUNDS):
            ops = []
            for item in catalogue:
                item = dict(item, key=key, edges=inputs.relabel(rng, item["n"], item["edges"]))
                item["graph"] = graphs.build_graph(item["n"], item["edges"])
                ops.append(item)
                key += 1
            self.rounds.append(ops)

    def execute(self, op):
        from cliquewidth import kexpr

        k, expr = kexpr.clique_width_exact(op["graph"])
        return ("width", k, kexpr.print_expression(expr))

    def check(self, op, out) -> list[str]:
        _, k, text = out
        return oracles.check_expression(op["n"], op["edges"], k, text) + oracles.check_width(op, k)

    def stratum(self, op) -> str:
        return "prime" if op["kind"] == "prime" else "decomposable"

    def describe(self, ops) -> dict:
        out: dict = {}
        for op in ops:
            key = f"{op['kind']}:{op.get('family', 'random')}:n{op['n']}"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def selftest(self, outputs: dict) -> dict[str, bool]:
        """A width witness with one join dropped must be rejected."""
        for op in (op for ops in self.rounds for op in ops):
            out = outputs.get(op["key"])
            if out is None or out[0] != "width":
                continue
            tree = oracles.parse_kexpr(out[2])
            _, edges, _ = oracles.eval_kexpr(tree)
            for i in range(oracles.count_joins(tree)):
                broken = oracles.drop_join(tree, i)
                if oracles.eval_kexpr(broken)[1] != edges:
                    text = oracles.print_kexpr(broken)
                    rejected = bool(oracles.check_expression(op["n"], op["edges"], out[1], text))
                    return {"expression with one join dropped": rejected}
        return {"expression with one join dropped": False}
