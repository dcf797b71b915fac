"""Parsing, printing and plain evaluation of phi(r, s) expression strings.

Grammar (infix, ``^`` right-associative, unary minus binds the atom):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | 'r' | 's' | ident '(' expr ')' | '(' expr ')'

The variables are ``r`` and ``s``, the functions those of :data:`FUNCTIONS`; input
nested deeper than :data:`MAX_DEPTH` parentheses, calls, signs and operators fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

FUNCTIONS = ("sqrt", "exp", "ln", "sin", "cos", "abs")

VARIABLES = ("r", "s")
MAX_DEPTH = 100  # parse's nesting bound: its readers recurse a few frames per level


class ParseError(ValueError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the admissible domain (division by zero, sqrt of a
    negative, ln of a non-positive, abs at zero, ...)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            offset = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[offset]!r}", offset)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Node:
        kind, _, offset = self.peek()
        if kind == "end":
            raise ParseError("empty input", offset)
        node, _ = self.expr(0)  # each rule parses at a depth, returning its node and deepest level
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return node

    def level(self, n: int, offset: int) -> int:
        if n > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return n

    def expr(self, depth: int) -> tuple[Node, int]:
        node, reach = self.term(depth)
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right, rreach = self.term(depth)
                node, reach = BinOp(value, node, right), self.level(1 + max(reach, rreach), offset)
            else:
                return node, reach

    def term(self, depth: int) -> tuple[Node, int]:
        node, reach = self.factor(depth)
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right, rreach = self.factor(depth)
                node, reach = BinOp(value, node, right), self.level(1 + max(reach, rreach), offset)
            else:
                return node, reach

    def factor(self, depth: int) -> tuple[Node, int]:
        node, reach = self.unary(depth)
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            right, rreach = self.factor(self.level(depth + 1, offset))
            node, reach = BinOp("^", node, right), self.level(max(reach + 1, rreach), offset)
        return node, reach

    def unary(self, depth: int) -> tuple[Node, int]:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node, reach = self.atom(self.level(depth + 1, offset))
            return Neg(node), reach
        return self.atom(depth)

    def atom(self, depth: int) -> tuple[Node, int]:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value)), depth
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg, reach = self.expr(self.level(depth + 1, offset))
                self.expect_op(")")
                return Call(value, arg), reach
            if value in VARIABLES:
                return Var(value), depth
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr(self.level(depth + 1, offset))
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str) -> Node:
    """Parse an expression string over (r, s) into an AST."""
    return _Parser(text).parse()


def to_string(e: Node) -> str:
    """Print an AST back to text; parse(to_string(e)) == e if e is <= MAX_DEPTH // 2 deep."""
    if isinstance(e, Num):
        v = e.value
        if math.isinf(v):
            return "1e309" if v > 0 else "(-1e309)"  # parse reads 1e309 as inf
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_string(e.left)} {e.op} {to_string(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


_MATH = {
    "sqrt": math.sqrt, "exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos, "abs": abs
}


def eval_value(e: Node, r: float, s: float) -> float:
    """Evaluate an AST to a plain float at (r, s)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return r if e.name == "r" else s
    if isinstance(e, Neg):
        return -eval_value(e.arg, r, s)
    if isinstance(e, BinOp):
        a = eval_value(e.left, r, s)
        b = eval_value(e.right, r, s)
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                if b == 0.0:
                    raise DomainError(f"division by zero in {to_string(e)}")
                return a / b
            if e.op == "^":
                out = a**b
                if isinstance(out, complex):
                    raise DomainError(f"complex power in {to_string(e)}")
                return out
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{exc} in {to_string(e)}") from exc
        raise TypeError(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        v = eval_value(e.arg, r, s)
        if e.func not in _MATH:
            raise TypeError(f"unknown function {e.func!r}")
        try:
            return _MATH[e.func](v)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{exc} in {to_string(e)}") from exc
    raise TypeError(f"not an expression node: {e!r}")
