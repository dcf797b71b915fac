"""Parsing and printing of phi(r, s) expression strings.

Grammar (infix; ``^`` is right-associative and binds tighter than unary minus, as in Python):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | 'r' | 's' | ident '(' expr ')' | '(' expr ')'

``_Parser`` reads it by precedence climbing over the binding powers of ``_BINDING``.
The variables are ``r`` and ``s``, the functions those of :data:`FUNCTIONS`; the text
is ASCII (any other character is unexpected, and only ASCII blanks separate); input
nested deeper than :data:`MAX_DEPTH` parentheses, calls, signs and operators fails.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Union

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


# Immutable nodes that compare and hash by value.  Two kinds never compare equal:
# Call and BinOp alone have 2 and 3 fields, and Num, Var, Neg hold a float, str, node.
class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: Node


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: Node
    right: Node


class Call(NamedTuple):
    func: str
    arg: Node


Node = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))",
    re.ASCII,  # digits are 0-9 and blanks are ASCII: the text sympy reads
)

_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}  # ^ alone chains to the right


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN_RE.finditer(text)]
    for kind, value, offset in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", offset)
    return [*tokens, ("end", "", len(text))]


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
        node, _ = self.binary(0)  # each rule parses at a depth, returning its node and deepest level
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return node

    def level(self, n: int, offset: int) -> int:
        if n > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return n

    def binary(self, depth: int, floor: int = 1) -> tuple[Node, int]:
        """Operators binding at least floor: + - * / keep their operands at depth,
        an exponent sits a level deeper."""
        node, reach = self.unary(depth)
        while _BINDING.get(self.peek()[1], 0) >= floor:
            _, value, offset = self.advance()
            if value == "^":
                right, rreach = self.binary(self.level(depth + 1, offset), _BINDING[value])
                node, reach = BinOp(value, node, right), self.level(max(reach + 1, rreach), offset)
            else:
                right, rreach = self.binary(depth, _BINDING[value] + 1)
                node, reach = BinOp(value, node, right), self.level(1 + max(reach, rreach), offset)
        return node, reach

    def unary(self, depth: int) -> tuple[Node, int]:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node, reach = self.binary(self.level(depth + 1, offset), _BINDING["^"])
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
                arg, reach = self.binary(self.level(depth + 1, offset))
                self.expect_op(")")
                return Call(value, arg), reach
            if value in VARIABLES:
                return Var(value), depth
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.binary(self.level(depth + 1, offset))
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
        if not math.isfinite(v):  # parse reads 1e309 as inf; no text parses to a NaN literal
            return "nan" if math.isnan(v) else "1e309" if v > 0 else "(-1e309)"
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
