"""Per-layer tracing from the benchmark's side.

The tracer wraps the measured functions of the package.  Each wrapper is
installed on every ``cliquewidth`` module attribute bound to the original
function, because modules import functions such as ``is_free`` and
``are_isomorphic`` by name, and on every value of a module-level dict bound
to it.  Every call records a span (layer, parent span,
start, end) in flat arrays kept in memory; self time is a span's duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

# Measured functions per module; metric names are <module>.<function>.
MEASURED = {
    "graphs": (
        "induced_subgraph",
        "delete_vertices",
        "subgraph_complement",
        "bipartite_complement",
        "complement",
        "disjoint_union",
    ),
    "namedgraphs": ("realize", "parse_spec"),
    "search": ("contains_induced", "is_free", "are_isomorphic", "colour_refinement", "fingerprint"),
    "recognition": ("alpha", "clique_cover_exact", "is_chordal", "find_induced_cycle", "is_perfect_desk"),
    "kexpr": ("clique_width_exact", "_search", "_reconstruct", "verify_expression"),
    "certify": (
        "certify_diamond_3p1p2",
        "certify_diamond_2p1p3",
        "certify_diamond_p2p3",
        "reduce_by_clique_cover",
        "verify_certificate",
        "certificate_to_json",
        "certificate_from_json",
    ),
    "constructions": ("complemented_wall", "gi_reduce", "verify_complemented_wall", "verify_gi_profile"),
    "cli": ("main",),
}
LAYERS = [f"{mod}.{fn}" for mod, fns in MEASURED.items() for fn in fns]
# Layers whose non-None results are counted as hits.
HIT_LAYERS = ("search.contains_induced",)


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.absent: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.hits: dict[str, int] = {name: 0 for name in HIT_LAYERS}
        self._stack = [-1]
        self._installed: list[tuple[dict, object, object]] = []

    def install(self) -> None:
        """Wrap every measured function that the loaded modules define."""
        loaded = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "cliquewidth" or name.startswith("cliquewidth.")
        ]
        for mod_name, funcs in MEASURED.items():
            home = sys.modules.get(f"cliquewidth.{mod_name}")
            for fn_name in funcs:
                layer = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None) if home is not None else None
                if not callable(original):
                    self.absent.append(layer)
                    continue
                wrapper = self._wrap(layer, original)
                for mod in loaded:
                    # Module attributes, and the values of module-level
                    # dicts (the CLI keeps its certifiers in one).
                    tables = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
                    for table in tables:
                        for key, value in list(table.items()):
                            if value is original:
                                self._installed.append((table, key, original))
                                table[key] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._installed):
            table[key] = original
        self._installed.clear()

    def _wrap(self, layer: str, fn):
        index = len(self.layers)
        self.layers.append(layer)
        stack = self._stack
        layers, parents = self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end
        hits = self.hits
        perf = time.perf_counter
        count_hits = layer in hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            layers.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()
            if count_hits and result is not None:
                hits[layer] += 1
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, self time and hits per layer, from the recorded spans."""
        count = len(self.span_start)
        child = array("d", bytes(8 * count))
        for sid in range(count):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in self.layers}
        for sid in range(count):
            entry = out[self.layers[self.span_layer[sid]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[sid] - self.span_start[sid] - child[sid]
        for layer, n_hits in self.hits.items():
            if layer in out:
                out[layer]["hits"] = n_hits
        return out

    def span_count(self) -> int:
        return len(self.span_start)


def merge_totals(into: dict, more: dict) -> None:
    for layer, entry in more.items():
        slot = into.setdefault(layer, {"calls": 0, "self_s": 0.0})
        for key, value in entry.items():
            slot[key] = slot.get(key, 0) + value
