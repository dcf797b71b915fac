"""Reference evaluators the tests check the jet engine against.

``eval_value`` walks an AST to a plain float, and ``fd_partials`` takes
central differences over it.  Neither touches the jet tape, so they stay an
independent check on it; ``conftest.sympy_partial`` is the symbolic one.
"""

import math

from finslerlab.expr import BinOp, Call, DomainError, Neg, Node, Num, Var, to_string
from finslerlab.jet import DEGREE

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


# Central stencils of second-order accuracy; offsets paired with weights,
# denominator h**order.
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}

# Base step per total derivative order.  1e-4 is fine through order 2; the
# higher orders need larger steps to keep 1/h^k roundoff amplification
# below the advertised tolerances.
_STEP = {0: 1e-4, 1: 1e-4, 2: 1e-4, 3: 4e-3, 4: 2e-2}


def _fd_once(e: Node, r: float, s: float, a: int, b: int, h: float) -> float:
    offs_r, w_r = _STENCILS[a]
    offs_s, w_s = _STENCILS[b]
    acc = 0.0
    for oi, wi in zip(offs_r, w_r):
        for oj, wj in zip(offs_s, w_s):
            acc += wi * wj * eval_value(e, r + oi * h, s + oj * h)
    return acc / h ** (a + b)


def fd_partials(e: Node, r: float, s: float, a: int, b: int) -> float:
    """Central-difference estimate of (d/dr)^a (d/ds)^b e at (r, s).

    One Richardson refinement of the second-order central stencils; the
    point must be interior to the domain by at least 4h in each direction.
    """
    if a < 0 or b < 0 or a + b > DEGREE:
        raise ValueError(f"partial order ({a},{b}) outside supported range")
    if a + b == 0:
        return eval_value(e, r, s)
    h = _STEP[a + b] * max(1.0, abs(r), abs(s))
    coarse = _fd_once(e, r, s, a, b, h)
    fine = _fd_once(e, r, s, a, b, h / 2)
    return (4.0 * fine - coarse) / 3.0
