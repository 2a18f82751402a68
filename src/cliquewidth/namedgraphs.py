"""The named-graph grammar: parse, print and realize forbidden-graph names.

Grammar (whitespace insignificant)::

    expr := term { "+" term }
    term := [int] base
    base := "P"int | "C"int | "K"int | "K1,"int | "S("int","int","int")"
          | "co(" expr ")" | "diamond"

``diamond`` is an alias that expands to ``co(2P1+P2)`` at parse time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graphs import Graph, build_graph, complement, disjoint_union


class SpecSyntaxError(ValueError):
    """Syntax or well-formedness error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class BaseGraph:
    """A primitive named graph: P_r, C_r, K_r, K_{1,s} or S_{h,i,j}."""

    kind: str  # "P" | "C" | "K" | "K1s" | "S"
    params: tuple[int, ...]


@dataclass(frozen=True)
class ComplementOf:
    inner: "NamedGraphSpec"


@dataclass(frozen=True)
class NamedGraphSpec:
    """A disjoint union of multiplied base terms."""

    terms: tuple[tuple[int, BaseGraph | ComplementOf], ...]


def _check_base(kind: str, params: tuple[int, ...], pos: int) -> None:
    if kind == "P" and params[0] < 1:
        raise SpecSyntaxError("P_r requires r >= 1", pos)
    if kind == "K" and params[0] < 1:
        raise SpecSyntaxError("K_r requires r >= 1", pos)
    if kind == "C" and params[0] < 3:
        raise SpecSyntaxError("C_r requires r >= 3", pos)
    if kind == "K1s" and params[0] < 1:
        raise SpecSyntaxError("K_{1,s} requires s >= 1", pos)
    if kind == "S":
        h, i, j = params
        if not (1 <= h <= i <= j):
            raise SpecSyntaxError("S_{h,i,j} requires 1 <= h <= i <= j", pos)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise SpecSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def parse(self) -> NamedGraphSpec:
        spec = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise SpecSyntaxError("trailing input", self.pos)
        return spec

    def _expr(self) -> NamedGraphSpec:
        terms = [self._term()]
        while self._peek() == "+":
            self.pos += 1
            terms.append(self._term())
        return NamedGraphSpec(tuple(terms))

    def _term(self) -> tuple[int, BaseGraph | ComplementOf]:
        self._skip_ws()
        mult = 1
        if self._peek().isdigit():
            pos = self.pos
            mult = self._int()
            if mult < 1:
                raise SpecSyntaxError("multiplicity must be positive", pos)
        return mult, self._base()

    def _base(self) -> BaseGraph | ComplementOf:
        ch = self._peek()
        pos = self.pos
        if ch in "PCK":
            self.pos += 1
            r = self._int()
            if ch == "K" and self._peek() == ",":
                if r != 1:
                    raise SpecSyntaxError("only K1,s stars are supported", pos)
                self.pos += 1
                s = self._int()
                base = BaseGraph("K1s", (s,))
                _check_base("K1s", (s,), pos)
                return base
            _check_base(ch, (r,), pos)
            return BaseGraph(ch, (r,))
        if ch == "S":
            self.pos += 1
            self._expect("(")
            h = self._int()
            self._expect(",")
            i = self._int()
            self._expect(",")
            j = self._int()
            self._expect(")")
            _check_base("S", (h, i, j), pos)
            return BaseGraph("S", (h, i, j))
        if ch == "c":
            if self.text[self.pos : self.pos + 3] != "co(":
                raise SpecSyntaxError("expected 'co('", self.pos)
            self.pos += 3
            inner = self._expr()
            self._expect(")")
            return ComplementOf(inner)
        if ch == "d":
            if self.text[self.pos : self.pos + 7] != "diamond":
                raise SpecSyntaxError("expected 'diamond'", self.pos)
            self.pos += 7
            return ComplementOf(NamedGraphSpec(((2, BaseGraph("P", (1,))), (1, BaseGraph("P", (2,))))))
        raise SpecSyntaxError("expected a graph name", self.pos)


@cache
def parse_spec(text: str) -> NamedGraphSpec:
    """Parse a named-graph string into its AST.

    Cached per string, like ``realize``: specs are frozen values.  A
    malformed string is not cached and raises on every call.
    """
    return _Parser(text).parse()


def print_spec(spec: NamedGraphSpec) -> str:
    """Canonical rendering; ``print_spec(parse_spec(t))`` normalises spacing."""
    parts = []
    for mult, base in spec.terms:
        prefix = str(mult) if mult != 1 else ""
        if isinstance(base, ComplementOf):
            parts.append(f"{prefix}co({print_spec(base.inner)})")
        elif base.kind == "K1s":
            parts.append(f"{prefix}K1,{base.params[0]}")
        elif base.kind == "S":
            h, i, j = base.params
            parts.append(f"{prefix}S({h},{i},{j})")
        else:
            parts.append(f"{prefix}{base.kind}{base.params[0]}")
    return "+".join(parts)


def spec_order(spec: NamedGraphSpec) -> int:
    """The number of vertices of the denoted graph, read off the AST
    without building it."""
    total = 0
    for mult, base in spec.terms:
        if isinstance(base, ComplementOf):
            size = spec_order(base.inner)
        elif base.kind == "K1s":
            size = base.params[0] + 1
        elif base.kind == "S":
            size = sum(base.params) + 1
        else:
            size = base.params[0]
        total += mult * size
    return total


def _realize_base(base: BaseGraph) -> Graph:
    kind, params = base.kind, base.params
    if kind == "P":
        r = params[0]
        return build_graph(r, [(i, i + 1) for i in range(r - 1)])
    if kind == "C":
        r = params[0]
        return build_graph(r, [(i, (i + 1) % r) for i in range(r)])
    if kind == "K":
        r = params[0]
        return build_graph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
    if kind == "K1s":
        s = params[0]
        return build_graph(s + 1, [(0, i) for i in range(1, s + 1)])
    if kind == "S":
        # Subdivided claw: a centre vertex with three attached paths of
        # h, i and j vertices.
        h, i, j = params
        edges = []
        nxt = 1
        for leg in (h, i, j):
            prev = 0
            for _ in range(leg):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return build_graph(nxt, edges)
    raise AssertionError(f"unknown base kind {kind}")


@cache
def realize(spec: NamedGraphSpec) -> Graph:
    """Build the denoted graph with fresh ids 0..n-1, components in term order.

    Cached per spec: specs are frozen values and graphs are immutable, so
    every caller can share one result.
    """
    result = Graph([], [])
    for mult, base in spec.terms:
        piece = complement(realize(base.inner)) if isinstance(base, ComplementOf) else _realize_base(base)
        for _ in range(mult):
            result = disjoint_union(result, piece)
    return result


def realize_text(text: str) -> Graph:
    return realize(parse_spec(text))
