"""The named-graph grammar: parse, print and realize forbidden-graph names.

Grammar (whitespace insignificant)::

    expr := term { "+" term }
    term := [int] base
    base := "P"int | "C"int | "K"int | "K1,"int | "S("int","int","int")"
          | "co(" expr ")" | "diamond"

``diamond`` is an alias that expands to ``co(2P1+P2)`` at parse time.

``Scanner`` is the one scanner of the package's two text grammars: this
one and the k-expressions of ``kexpr``, which reads its text through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, TypeVar

from .graphs import _DIGITS, _MAX_DIGITS, Graph, build_graph, complement


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


_T = TypeVar("_T")


class Scanner:
    """The scanning that both text grammars share: whitespace, fixed
    tokens, unsigned integers of ASCII digits and the end of the text.

    A grammar passes the syntax error class it raises and the noun its
    integers go by in "expected ..." messages; its rules read the text
    through ``peek``, ``expect`` and ``integer`` and advance ``pos`` past a
    character they have peeked at.
    """

    def __init__(self, text: str, error: type[ValueError], noun: str):
        self.text = text
        self.pos = 0
        self.error = error
        self.noun = noun

    def peek(self) -> str:
        """Skip whitespace and return the next character, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def expect(self, token: str) -> None:
        self.peek()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {self.noun}", start)
        if self.pos - start > _MAX_DIGITS:
            raise self.error(f"expected {self.noun} of at most {_MAX_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def read_all(self, rule: Callable[[Scanner], _T]) -> _T:
        """``rule(self)``, which must consume the whole text."""
        result = rule(self)
        if self.peek():
            raise self.error("trailing input", self.pos)
        return result


def _expr(s: Scanner) -> NamedGraphSpec:
    terms = [_term(s)]
    while s.peek() == "+":
        s.pos += 1
        terms.append(_term(s))
    return NamedGraphSpec(tuple(terms))


def _term(s: Scanner) -> tuple[int, BaseGraph | ComplementOf]:
    mult = 1
    if s.peek() in _DIGITS:
        pos = s.pos
        mult = s.integer()
        if mult < 1:
            raise SpecSyntaxError("multiplicity must be positive", pos)
    return mult, _base(s)


def _base(s: Scanner) -> BaseGraph | ComplementOf:
    ch = s.peek()
    pos = s.pos
    if ch in ("P", "C", "K"):
        s.pos += 1
        r = s.integer()
        if ch == "K" and s.peek() == ",":
            if r != 1:
                raise SpecSyntaxError("only K1,s stars are supported", pos)
            s.pos += 1
            ch, r = "K1s", s.integer()
        _check_base(ch, (r,), pos)
        return BaseGraph(ch, (r,))
    if ch == "S":
        s.pos += 1
        s.expect("(")
        h = s.integer()
        s.expect(",")
        i = s.integer()
        s.expect(",")
        j = s.integer()
        s.expect(")")
        _check_base("S", (h, i, j), pos)
        return BaseGraph("S", (h, i, j))
    if ch == "c":
        s.expect("co(")
        inner = _expr(s)
        s.expect(")")
        return ComplementOf(inner)
    if ch == "d":
        s.expect("diamond")
        return ComplementOf(NamedGraphSpec(((2, BaseGraph("P", (1,))), (1, BaseGraph("P", (2,))))))
    raise SpecSyntaxError("expected a graph name", s.pos)


@cache
def parse_spec(text: str) -> NamedGraphSpec:
    """Parse a named-graph string into its AST.

    Cached per string, like ``realize``: specs are frozen values.  A
    malformed string is not cached and raises on every call.
    """
    return Scanner(text, SpecSyntaxError, "an integer").read_all(_expr)


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


def spec_size(spec: NamedGraphSpec) -> tuple[int, int]:
    """The numbers of vertices and edges of the denoted graph, read off the
    AST without building it."""
    order = edges = 0
    for mult, base in spec.terms:
        if isinstance(base, ComplementOf):
            r, m = spec_size(base.inner)
            m = r * (r - 1) // 2 - m
        elif base.kind in ("K1s", "S"):
            # Trees: a centre and legs of the given lengths.
            r = sum(base.params) + 1
            m = r - 1
        else:
            r = base.params[0]
            m = {"P": r - 1, "C": r, "K": r * (r - 1) // 2}[base.kind]
        order += mult * r
        edges += mult * m
    return order, edges


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
    """Build the denoted graph with fresh ids 0..n-1, components in term order,
    from one list of all the terms' edges.

    Cached per spec: specs are frozen values and graphs are immutable, so
    every caller can share one result.
    """
    n = 0
    edges: list[tuple[int, int]] = []
    for mult, base in spec.terms:
        piece = complement(realize(base.inner)) if isinstance(base, ComplementOf) else _realize_base(base)
        piece_edges = piece.edges()
        for _ in range(mult):
            edges.extend((n + u, n + v) for u, v in piece_edges)
            n += piece.n
    return build_graph(n, edges)


def realize_text(text: str) -> Graph:
    return realize(parse_spec(text))
