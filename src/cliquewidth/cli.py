"""Command-line interface.

Exit codes: 0 success (or domain answer "yes"), 1 domain answer "no"
(forbidden graph found, not in class, verification failed, unbounded), 2
usage or I/O errors, 3 internal error (a certifier reached a contradiction
that a correct implementation cannot reach on a class member).  All output
is deterministic for fixed inputs.

Each command imports the modules it uses when it runs, so one process loads
only what its command needs.
"""
from __future__ import annotations

import argparse
import sys

from .graphs import (
    Graph,
    from_edge_list_text,
    from_graph6,
    to_edge_list_text,
    to_graph6,
)


class CliError(Exception):
    pass


def _read_graph(path: str, fmt: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return from_edge_list_text(text) if fmt == "edgelist" else from_graph6(text)
    except ValueError as exc:
        raise CliError(f"cannot parse {path}: {exc}") from exc


def _write_out(out: str | None, text: str) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_check_free(args: argparse.Namespace) -> int:
    from .search import is_free

    g = _read_graph(args.graph, args.format)
    if not args.spec:
        raise CliError("at least one --spec is required")
    free, witness = is_free(g, args.spec)
    if free:
        print("free")
        return 0
    print(f"contains {witness.spec_text} on vertices {list(witness.embedding.image())}")
    return 1


def _cmd_clique_width(args: argparse.Namespace) -> int:
    from .kexpr import KMAX_LIMIT, SOLVER_LIMIT, clique_width_exact, print_expression

    g = _read_graph(args.graph, args.format)
    kmax = KMAX_LIMIT if args.kmax is None else args.kmax
    limit = g.n if args.unsafe_size else SOLVER_LIMIT
    result = clique_width_exact(g, kmax, size_limit=limit)
    if result is None:
        print(f"clique-width exceeds {kmax}")
        return 1
    k, expr = result
    print(f"clique-width {k}")
    if expr is not None:
        _write_out(args.out, print_expression(expr) + "\n")
    return 0


# Second forbidden graph -> name of its certifier in ``certify``.
_CERTIFIERS = {
    "3P1+P2": "certify_diamond_3p1p2",
    "2P1+P3": "certify_diamond_2p1p3",
    "P2+P3": "certify_diamond_p2p3",
}


def _cmd_certify(args: argparse.Namespace) -> int:
    from . import certify as cert
    from .certificate import certificate_to_json, verify_certificate

    g = _read_graph(args.graph, args.format)
    certifier = getattr(cert, _CERTIFIERS[args.forbidden])
    try:
        certificate = certifier(g)
    except cert.NotInClassError as exc:
        w = exc.witness
        print(
            f"not in class: contains {w.spec_text} on vertices {list(w.embedding.image())}"
        )
        return 1
    verdict = verify_certificate(g, certificate)
    if not verdict.ok:
        for failure in verdict.failures:
            print(f"self-verification failed: {failure}", file=sys.stderr)
        return 2
    _write_out(args.out, certificate_to_json(certificate))
    if args.out:
        print(f"certificate written to {args.out} (self-verified)")
    return 0


def _cmd_verify_certificate(args: argparse.Namespace) -> int:
    from .certificate import certificate_from_json, verify_certificate

    g = _read_graph(args.graph, args.format)
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            certificate = certificate_from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load certificate: {exc}") from exc
    verdict = verify_certificate(g, certificate)
    if verdict.ok:
        print(f"certificate valid ({len(verdict.leaves)} leaves)")
        return 0
    for failure in verdict.failures:
        print(failure)
    return 1


def _cmd_construct(args: argparse.Namespace) -> int:
    from .constructions import (
        complemented_wall,
        gi_reduce,
        to_partitioned_text,
        verify_complemented_wall,
        verify_gi_profile,
        wall,
    )

    kind = args.kind
    if kind in ("wall", "complemented-wall"):
        try:
            height = int(args.param)
        except ValueError:
            raise CliError(f"{kind} expects an integer height") from None
    if kind == "wall":
        g = wall(height)
        text = to_edge_list_text(g) if args.format == "edgelist" else to_graph6(g) + "\n"
        _write_out(args.out, text)
        print(f"wall height {height}: {g.n} vertices, {g.m} edges")
        return 0
    if kind == "complemented-wall":
        if args.format == "graph6":
            raise CliError("complemented-wall output is partitioned and has no graph6 form")
        pg = complemented_wall(height)
        report = verify_complemented_wall(pg)
        _write_out(args.out, to_partitioned_text(pg))
        print(
            f"complemented wall height {height}: {pg.graph.n} vertices, "
            f"{pg.graph.m} edges, structure {'ok' if report.ok else 'BROKEN'}"
        )
        return 0 if report.ok else 2
    # gi-reduce
    g = _read_graph(args.param, args.format)
    pg = gi_reduce(g)
    report = verify_gi_profile(pg)
    _write_out(args.out, to_partitioned_text(pg))
    print(
        f"reduction output: {pg.graph.n} vertices, {pg.graph.m} edges, "
        f"profile {'ok' if report.ok else 'BROKEN'}"
    )
    return 0 if report.ok else 2


def _cmd_classify_pair(args: argparse.Namespace) -> int:
    from .classify import classify_pair

    status = classify_pair(args.s, args.t)
    print(status.status)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquewidth",
        description="Clique-width recognizers, exact solver, certificates and constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("check-free", parents=[fmt], help="test forbidden induced subgraphs")
    p.add_argument("graph")
    p.add_argument("--spec", action="append", default=[], help="forbidden graph name")
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser(
        "clique-width", parents=[fmt, out], help="exact clique-width with a witness"
    )
    p.add_argument("graph")
    # None stands for kexpr.KMAX_LIMIT, read when the command runs.
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument(
        "--unsafe-size", action="store_true", help="lift the solver's size limit"
    )
    p.set_defaults(func=_cmd_clique_width)

    p = sub.add_parser(
        "certify", parents=[fmt, out], help="boundedness certificate for a class member"
    )
    p.add_argument("graph")
    p.add_argument(
        "forbidden",
        choices=sorted(_CERTIFIERS),
        help="second forbidden graph of the diamond-free class",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "verify-certificate", parents=[fmt], help="replay and check a certificate"
    )
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify_certificate)

    p = sub.add_parser(
        "construct", parents=[fmt, out], help="wall, complemented-wall, or gi-reduce"
    )
    p.add_argument("kind", choices=("wall", "complemented-wall", "gi-reduce"))
    p.add_argument("param", help="height, or a graph file for gi-reduce")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("classify-pair", help="boundedness of the (sP1+P2, co(tP1+P2)) family")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=_cmd_classify_pair)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # A deeply nested --spec, or a pattern with more vertices than the
        # recursive search can place.
        print("error: input is nested too deeply or too large to process", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # Only a certifier raises InternalContradictionError, so when one is
        # raised its module is loaded; any other assertion propagates.
        cert = sys.modules.get(f"{__package__}.certify")
        if cert is None or not isinstance(exc, cert.InternalContradictionError):
            raise
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
