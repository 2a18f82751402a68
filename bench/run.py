"""Benchmark of the cliquewidth package, end to end and per layer.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-width, class-members, unbounded-family, cli-session (see
README.md).  Each is a closed loop with one client that runs whole rounds
of operations until ``--seconds`` have passed.  Inputs come from
``--seed``.  After the timed phase every distinct operation's output is
checked by the independent oracles in ``oracles.py`` (an operation that
repeats must give the same output every time), and a self-test shows that
the oracles reject corrupted outputs.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the same rounds run a second time
with every measured function wrapped (``tracer.py``), and the last line
carries the per-layer metrics.  Details go to ``bench/out/``.

The package is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11


def load_package() -> None:
    if not (SRC / "cliquewidth" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cliquewidth

    if Path(cliquewidth.__file__).resolve().parent != (SRC / "cliquewidth").resolve():
        raise SystemExit("error: cliquewidth was imported from outside this checkout")


def make_workload(name: str, seed: int):
    import wl_cli
    import wl_exact
    import wl_family
    import wl_members

    rng = random.Random(seed)
    if name == "exact-width":
        return wl_exact.ExactWidth(rng)
    if name == "class-members":
        return wl_members.ClassMembers(rng)
    if name == "unbounded-family":
        return wl_family.UnboundedFamily(rng)
    return wl_cli.CliSession(rng, ROOT)


def fresh_import_seconds(modules: tuple[str, ...]) -> float:
    """Median wall time of a fresh interpreter that imports ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Phase:
    """One pass of the closed loop: whole rounds, one operation at a time."""

    def __init__(self) -> None:
        self.outputs: dict[int, object] = {}
        self.ops: dict[int, dict] = {}
        self.executions: dict[int, int] = {}
        self.latencies: list[float] = []
        self.by_stratum: dict[str, list[float]] = {}
        self.changed: set[int] = set()
        self.rounds = 0
        self.wall = 0.0

    def run(self, workload, seconds: float | None = None, rounds: int | None = None) -> None:
        # Keep the benchmark's own inputs out of the collector's scans, so
        # that a large pool does not slow every collection the program runs.
        gc.collect()
        gc.freeze()
        perf = time.perf_counter
        start = perf()
        while True:
            for op in workload.rounds[self.rounds % len(workload.rounds)]:
                t0 = perf()
                try:
                    out = workload.execute(op)
                except Exception:  # one failed operation must not end the run
                    out = ("error", traceback.format_exc(limit=3))
                latency = perf() - t0
                self.latencies.append(latency)
                key = op["key"]
                if key in self.outputs:
                    if out != self.outputs[key]:
                        self.changed.add(key)
                else:
                    self.outputs[key] = out
                    self.ops[key] = op
                self.executions[key] = self.executions.get(key, 0) + 1
                self.by_stratum.setdefault(workload.stratum(op), []).append(latency)
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    break
            elif perf() - start >= seconds:
                break
        self.wall = perf() - start
        gc.unfreeze()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_outputs(workload, phase: Phase) -> tuple[int, list[str]]:
    """(failed executions, oracle failures) over every distinct operation."""
    failed = 0
    errors: list[str] = []
    for key in sorted(phase.ops):
        op, out = phase.ops[key], phase.outputs[key]
        if out[0] == "error":
            is_failed = True
        else:
            is_failed = hasattr(workload, "failed") and workload.failed(op, out)
        if is_failed:
            failed += phase.executions[key]
            continue
        for msg in workload.check(op, out):
            errors.append(f"op {key}: {msg}")
    for key in sorted(phase.changed):
        errors.append(f"op {key}: a repeat gave a different output")
    return failed, errors


def traced_phase(workload, rounds: int) -> tuple[Phase, dict, list[str], int]:
    import tracer

    if workload.name == "cli-session":
        workload.trace_dir = OUT
        phase = Phase()
        phase.run(workload, rounds=rounds)
        workload.trace_dir = None
        return phase, workload.trace_totals, workload.absent, -1
    import cliquewidth.cli  # noqa: F401  (so that cli.main is a measured layer)

    t = tracer.Tracer()
    t.install()
    try:
        phase = Phase()
        phase.run(workload, rounds=rounds)
    finally:
        t.uninstall()
    return phase, t.totals(), t.absent, t.span_count()


def cert_nodes(phase: Phase) -> int:
    """Nodes of the certificates produced, over every execution."""
    import oracles

    total = 0
    for key, out in phase.outputs.items():
        text = None
        if out[0] == "cert":
            text = out[1]
        elif out[0] == "cli" and phase.ops[key]["argv"][0] == "certify" and out[1] == 0:
            text = (ROOT / phase.ops[key]["argv"][-1]).read_text()
        if text is not None:
            total += oracles.count_cert_nodes(text) * phase.executions[key]
    return total


def layer_metrics(totals: dict, phase: Phase, untraced: Phase) -> dict:
    import tracer

    metrics = {}
    for layer in tracer.LAYERS:
        entry = totals.get(layer, {})
        metrics[f"{layer}.calls"] = {"value": entry.get("calls", 0), "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": entry.get("self_s", 0.0), "unit": "s"}
    contains = totals.get("search.contains_induced", {})
    hits, calls = contains.get("hits", 0), contains.get("calls", 0)
    metrics["search.contains_induced.hits"] = {"value": hits, "unit": "count"}
    metrics["search.contains_induced.hit_ratio"] = {"value": hits / calls if calls else 0.0, "unit": "ratio"}
    metrics["certify.cert_nodes"] = {"value": cert_nodes(phase), "unit": "count"}
    metrics["cli.startup_s"] = {"value": fresh_import_seconds(("cliquewidth.cli",)), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": phase.wall - untraced.wall, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("exact-width", "class-members", "unbounded-family", "cli-session"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_package()
    OUT.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    setup_s = fresh_import_seconds(workload.imports) if not args.trace else None

    for _ in range(getattr(workload, "warmup_rounds", 0)):
        Phase().run(workload, rounds=1)
    phase = Phase()
    phase.run(workload, seconds=args.seconds)
    rss = peak_rss_mb(children=workload.name == "cli-session")

    failed, errors = check_outputs(workload, phase)
    selftest = workload.selftest(phase.outputs)
    errors += [f"self-test: {name} was accepted" for name, ok in selftest.items() if not ok]
    attempted = len(phase.latencies)
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": phase.rounds,
        "wall_s": phase.wall,
        "inputs": workload.describe(list(phase.ops.values())),
        "strata_p50_ms": {
            name: [len(lat), statistics.median(lat) * 1000] for name, lat in phase.by_stratum.items()
        },
        "selftest": selftest,
    }

    if args.trace:
        traced, totals, absent, spans = traced_phase(workload, phase.rounds)
        same = getattr(workload, "comparable", lambda out: out)
        for key, out in traced.outputs.items():
            if same(out) != same(phase.outputs[key]) or key in traced.changed:
                errors.append(f"op {key}: traced output differs from the untraced output")
        metrics = layer_metrics(totals, traced, phase)
        if absent:
            print(f"absent layers: {', '.join(absent)}", file=sys.stderr)
        detail["trace"] = {"spans": spans, "absent": absent, "wall_s": traced.wall, "layers": totals}
    else:
        lat_ms = sorted(x * 1000 for x in phase.latencies)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": attempted / phase.wall, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    detail["metrics"] = metrics
    detail["errors"] = errors[:50]
    for msg in errors[:10]:
        print(msg, file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
