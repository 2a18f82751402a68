"""cli-session: a fixed sequence of ``cliquewidth`` commands, each in a
fresh process, on files the benchmark writes.

This is how users drive the tool; it measures interpreter start, imports
and argparse, which no in-process workload sees.  Two commands fail today
and are kept, counted as failed: ``check-free`` on the file written by
``construct complemented-wall --out`` (the reader rejects the PART
trailer), and ``verify-certificate`` on a certificate whose ``children``
is a number (a traceback and exit 1, not exit 2 with a one-line message).
Both use inputs that do not depend on the seed, and both would cost about
what their neighbours cost once fixed.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import inputs
import oracles
import tracer

CLI_ENTRY = "import sys; from cliquewidth.cli import main; sys.exit(main())"


def classify_expected(s: int, t: int) -> str:
    """The paper's table for (sP1+P2, co(tP1+P2))-free graphs."""
    return "Bounded" if s <= 1 or t <= 1 or s + t <= 5 else "Unbounded"


def edge_list_text(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in sorted(edges)])


def parse_edge_list(text: str):
    """Own reader for the edge-list body plus optional PART lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, m = map(int, lines[0].split())
    body = [ln for ln in lines[1:] if not ln.startswith("PART ")]
    edges = [tuple(map(int, ln.split())) for ln in body]
    parts = {}
    for ln in lines[1:]:
        if ln.startswith("PART "):
            name, _, ids = ln[5:].partition(":")
            parts[name.strip()] = set(map(int, ids.split()))
    if len(edges) != m:
        raise ValueError("edge count differs from the header")
    return n, edges, parts


def witness_failures(stdout: str, prefix: str, adj, allowed) -> list[str]:
    """A printed witness ("contains SPEC on vertices [...]") must name an
    allowed graph and be an injective induced embedding of it."""
    match = re.fullmatch(re.escape(prefix) + r"contains (\S+) on vertices \[([\d, ]*)\]", stdout.strip())
    if match is None or match.group(1) not in allowed:
        return [f"unexpected witness output {stdout!r}"]
    images = [int(x) for x in match.group(2).split(",")]
    return oracles.check_embedding(adj, match.group(1), dict(enumerate(images)))


class CliSession:
    name = "cli-session"
    imports = ("cliquewidth.cli",)
    # One untimed round first: the first run of each command after its files
    # are written reads them and the interpreter from a cold cache.
    warmup_rounds = 1

    def __init__(self, rng, root: Path) -> None:
        self.root = root
        self.work = root / "bench" / "out" / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.trace_dir: Path | None = None
        self.trace_totals: dict = {}
        self.absent: list[str] = []
        self.files: dict[str, tuple[int, list]] = {}
        self.stdout_by_argv: dict[tuple, str] = {}
        self.cert_summary: dict = {"leaves": []}

        def write(name: str, n: int, edges) -> str:
            self.files[name] = (n, list(edges))
            path = self.work / name
            path.write_text(edge_list_text(n, edges))
            return self.rel(path)

        while True:
            n, edges = inputs.planted(rng, "matched-cliques")
            if n >= 8 and oracles.is_member(n, edges, oracles.CLASS_FORBIDDEN["2P1+P3"]):
                break
        member = write("member.txt", n, inputs.relabel(rng, n, edges))
        while True:
            edges = inputs.gnp(rng, 10, 0.4)
            if not oracles.is_member(10, edges, oracles.CLASS_FORBIDDEN["P2+P3"]):
                break
        nonmember = write("nonmember.txt", 10, edges)
        # Small solver inputs keep every command near interpreter start-up
        # cost, so no seeded graph decides the latency percentiles.
        width = write("width.txt", 7, inputs.random_prime(rng, 7, 0.5))
        family = write("family.txt", 7, inputs.relabel(rng, 7, inputs.cycle(7)))
        small = write("small.txt", 3, inputs.random_graph_nm(rng, 3, 2))
        # Seed-independent inputs of the two commands that fail today.
        c5 = write("c5.txt", 5, inputs.cycle(5))
        bad = self.work / "bad_cert.json"
        bad.write_text(
            json.dumps(
                {
                    "version": "v1",
                    "root": {"n": 5, "m": 5, "hash": "0" * 16},
                    "step": {"op": "prune_degree_one", "children": 5},
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        cert = self.rel(self.work / "cert.json")
        cw2 = self.rel(self.work / "cw2.txt")
        gi = self.rel(self.work / "gi.txt")
        pairs = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(2)]
        commands = [
            ("classify-pair", [*map(str, pairs[0])]),
            ("clique-width", [width]),
            ("certify", [member, "2P1+P3", "--out", cert]),
            ("verify-certificate", [member, cert]),
            ("certify", [nonmember, "P2+P3"]),
            ("check-free", [member, "--spec", "diamond", "--spec", "2P1+P3"]),
            ("check-free", [nonmember, "--spec", "diamond", "--spec", "P2+P3"]),
            ("construct", ["wall", "3"]),
            ("construct", ["complemented-wall", "2", "--out", cw2]),
            ("check-free", [cw2, "--spec", "diamond", "--spec", "P2+P4"]),
            ("construct", ["gi-reduce", small, "--out", gi]),
            ("verify-certificate", [c5, self.rel(bad)]),
            ("clique-width", [family]),
            ("classify-pair", [*map(str, pairs[1])]),
            ("clique-width", [width]),
        ]
        self.rounds = [
            [{"key": i, "argv": [cmd, *args]} for i, (cmd, args) in enumerate(commands)]
        ]

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def execute(self, op):
        if self.trace_dir is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *op["argv"]]
        else:
            spans = self.trace_dir / "child.json"
            argv = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(spans), *op["argv"]]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        if self.trace_dir is not None:
            data = json.loads(spans.read_text())
            tracer.merge_totals(self.trace_totals, data["totals"])
            self.absent = data["absent"]
        return ("cli", proc.returncode, proc.stdout.decode(), proc.stderr.decode())

    def comparable(self, out):
        return out[:3]

    def _load(self, name: str):
        n, edges = self.files[name]
        return n, edges, oracles.adjacency(range(n), edges)

    def failed(self, op, out) -> bool:
        """True when the command did not do its job: the two kept faults
        today, or any command that exits with an unexpected code."""
        _, rc, stdout, stderr = out
        cmd = op["argv"][0]
        if cmd == "verify-certificate" and op["argv"][2].endswith("bad_cert.json"):
            return not (rc == 2 and stdout == "" and stderr.startswith("error:") and stderr.count("\n") == 1)
        if cmd == "check-free" and op["argv"][1].endswith("cw2.txt"):
            return rc == 2
        wanted = {"certify": (0, 1), "check-free": (0, 1)}.get(cmd, (0,))
        return rc not in wanted

    def check(self, op, out) -> list[str]:
        _, rc, stdout, _ = out
        cmd, args = op["argv"][0], op["argv"][1:]
        earlier = self.stdout_by_argv.setdefault(tuple(op["argv"]), stdout)
        if earlier != stdout:
            return [f"{cmd} repeated gave different stdout"]
        lines = stdout.splitlines()
        if cmd == "classify-pair":
            want = classify_expected(int(args[0]), int(args[1]))
            return [] if stdout == want + "\n" else [f"classify-pair {args}: {stdout!r}, expected {want}"]
        if cmd == "clique-width":
            name = Path(args[0]).name
            n, edges, _ = self._load(name)
            match = re.fullmatch(r"clique-width (\d+)", lines[0]) if lines else None
            if match is None or len(lines) != 2:
                return [f"clique-width output {stdout!r}"]
            k = int(match.group(1))
            item = {"n": n, "edges": edges, "family": "cycle" if name == "family.txt" else None}
            return oracles.check_expression(n, edges, k, lines[1]) + oracles.check_width(item, k)
        if cmd == "certify":
            n, edges, adj = self._load(Path(args[0]).name)
            forbidden = oracles.CLASS_FORBIDDEN[args[1]]
            member = not any(oracles.nx_contains(oracles.nx_graph(range(n), edges), s) for s in forbidden)
            if rc == 1:
                if member:
                    return [f"certify rejected a member: {stdout!r}"]
                return witness_failures(stdout, "not in class: ", adj, forbidden)
            if not member or stdout != f"certificate written to {args[3]} (self-verified)\n":
                return [f"certify accepted: {stdout!r}"]
            fails, self.cert_summary = oracles.replay_certificate(
                range(n), edges, (self.root / args[3]).read_text()
            )
            return fails
        if cmd == "verify-certificate":
            if args[1].endswith("bad_cert.json"):
                return []
            leaves = len(self.cert_summary["leaves"])
            want = f"certificate valid ({leaves} leaves)\n"
            return [] if stdout == want else [f"verify-certificate: {stdout!r}, expected {want!r}"]
        if cmd == "check-free":
            if args[0].endswith("cw2.txt"):
                return [] if stdout == "free\n" else [f"check-free on the wall: {stdout!r}"]
            n, edges, adj = self._load(Path(args[0]).name)
            specs = [oracles.DIAMOND if s == "diamond" else s for s in args[2::2]]
            present = [s for s in specs if oracles.nx_contains(oracles.nx_graph(range(n), edges), s)]
            if not present:
                return [] if stdout == "free\n" else [f"check-free: {stdout!r}, expected free"]
            return witness_failures(stdout, "", adj, specs)
        # construct
        kind, param = args[0], args[1]
        if kind == "wall":
            h = int(param)
            v_count, e_count = oracles.wall_counts(h)
            n, edges, _ = parse_edge_list("\n".join(lines[:-1]))
            if lines[-1] != f"wall height {h}: {v_count} vertices, {e_count} edges":
                return [f"construct wall: {lines[-1]!r}"]
            if (n, len(edges)) != (v_count, e_count):
                return ["wall edge list disagrees with the closed form"]
            return []
        text = (self.root / args[3]).read_text()
        n, edges, parts = parse_edge_list(text)
        if kind == "complemented-wall":
            h = int(param)
            summary = f"complemented wall height {h}: {n} vertices, {len(edges)} edges, structure ok\n"
            fails = [] if stdout == summary else [f"construct complemented-wall: {stdout!r}"]
            return fails + oracles.check_complemented_wall(h, range(n), edges, parts)
        sn, sedges, _ = self._load(Path(param).name)
        summary = f"reduction output: {n} vertices, {len(edges)} edges, profile ok\n"
        fails = [] if stdout == summary else [f"construct gi-reduce: {stdout!r}"]
        return fails + oracles.check_gi_output(sn, sedges, range(n), edges, parts)

    def stratum(self, op) -> str:
        return op["argv"][0]

    def describe(self, ops) -> dict:
        return {"commands": [" ".join(op["argv"]) for op in ops]}

    def selftest(self, outputs: dict) -> dict[str, bool]:
        """A certificate written by ``certify`` with one deleted vertex
        changed must be rejected."""
        path = self.work / "cert.json"
        n, edges = self.files["member.txt"]
        bad = oracles.corrupt_first_deletion(path.read_text(), n) if path.exists() else None
        if bad is None:
            return {}
        fails, _ = oracles.replay_certificate(range(n), edges, bad)
        return {"certificate with one deleted vertex changed": bool(fails)}
