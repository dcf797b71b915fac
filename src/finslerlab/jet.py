"""Degree-4 bivariate truncated Taylor jets in (r, s).

A :class:`Jet` holds the Taylor-normalized coefficients

    c[a][b] = (d/dr)^a (d/ds)^b f / (a! b!),   a + b <= 4,

of a function at a fixed base point.  Arithmetic is exact truncated
polynomial arithmetic: products are Cauchy products cut at total degree 4,
and smooth functions are applied by composing their univariate Taylor
expansion with the jet.  Coefficients of total degree > 4 are identically
zero and never consulted.

The product is one index-map kernel, not a loop over coefficients: the 70
index triples of the truncated Cauchy product over the flattened 5x5 array
are tabulated at import and list only entries of total degree <= 4, so the
kernel relies on the zero invariant above.  Each output bin sums its terms
in the order of the textbook quadruple loop, so products match it bit for bit.

Taking ``d_r``/``d_s`` of a degree-4 jet yields a jet whose coefficients
are exact only up to total degree 3 (resp. 2 after two derivatives);
truncated arithmetic never propagates high-order error downward, so
values and low-order partials of downstream expressions stay exact.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import BinOp, Call, DomainError, Neg, Node, Num, Var, eval_value, to_string

DEGREE = 4

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

# abs() is rejected this close to the kink, sqrt/ln this close to zero.
SINGULAR_TOL = 1e-12

_N = DEGREE + 1
_LOW = [(a, b) for a in range(_N) for b in range(_N - a)]  # total degree <= 4
_LOW3 = [(a, b) for a, b in _LOW if a + b < DEGREE]

# Cauchy product: out[K] += x[I] * y[J] over the flattened 5x5 layout.
_MUL_I, _MUL_J, _MUL_K = np.array(
    [(i * _N + j, (a - i) * _N + b - j, a * _N + b)
     for a, b in _LOW for i in range(a + 1) for j in range(b + 1)]
).T.copy()
# d_r, d_s: out[DST] = c[SRC] * W on the targets of total degree <= 3.
_DR = tuple(np.array([((a + 1) * _N + b, a * _N + b, a + 1) for a, b in _LOW3]).T.copy())
_DS = tuple(np.array([(a * _N + b + 1, a * _N + b, b + 1) for a, b in _LOW3]).T.copy())


class Jet:
    """Bivariate Taylor jet of total degree 4."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    @classmethod
    def constant(cls, v: float) -> "Jet":
        c = np.zeros((DEGREE + 1, DEGREE + 1))
        c[0, 0] = v
        return cls(c)

    @classmethod
    def variable_r(cls, r0: float) -> "Jet":
        c = np.zeros((DEGREE + 1, DEGREE + 1))
        c[0, 0] = r0
        c[1, 0] = 1.0
        return cls(c)

    @classmethod
    def variable_s(cls, s0: float) -> "Jet":
        c = np.zeros((DEGREE + 1, DEGREE + 1))
        c[0, 0] = s0
        c[0, 1] = 1.0
        return cls(c)

    @property
    def value(self) -> float:
        return float(self.c[0, 0])

    def partial(self, a: int, b: int) -> float:
        """The mixed partial (d/dr)^a (d/ds)^b at the base point."""
        if a < 0 or b < 0 or a + b > DEGREE:
            raise ValueError(f"partial order ({a},{b}) outside the jet degree")
        return float(self.c[a, b] * _FACT[a] * _FACT[b])

    def d_r(self) -> "Jet":
        """Jet of df/dr (exact to one total degree less)."""
        return self._shift(*_DR)

    def d_s(self) -> "Jet":
        """Jet of df/ds (exact to one total degree less)."""
        return self._shift(*_DS)

    def _shift(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> "Jet":
        c = np.zeros(_N * _N)
        c[dst] = self.c.ravel()[src] * w
        return Jet(c.reshape(_N, _N))

    # -- ring operations ---------------------------------------------------
    # A float operand gives exactly the constant-jet result: that route adds
    # +0.0 to every entry (turning -0.0 into 0.0) and starts each sum at 0.0.

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        return _with_value(self.c + 0.0, self.c[0, 0] + float(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.c - other.c)
        return _with_value(self.c - 0.0, self.c[0, 0] - float(other))

    def __rsub__(self, other) -> "Jet":
        return _with_value(0.0 - self.c, float(other) - self.c[0, 0])

    def __neg__(self) -> "Jet":
        return Jet(-self.c)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.c * float(other) + 0.0)
        terms = self.c.ravel()[_MUL_I] * other.c.ravel()[_MUL_J]
        return Jet(np.bincount(_MUL_K, terms, minlength=_N * _N).reshape(_N, _N))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            other = Jet.constant(float(other))
        return self * _reciprocal(other)

    def __rtruediv__(self, other) -> "Jet":
        return _reciprocal(self) * float(other)

    def __repr__(self) -> str:
        return f"Jet(value={self.value!r})"


def _with_value(c: np.ndarray, v: float) -> Jet:
    c[0, 0] = v
    return Jet(c)


def _compose(derivs: tuple[float, ...], g: Jet) -> Jet:
    """Truncated composition f(g) from f's derivatives at g.value.

    ``derivs[k]`` is the k-th derivative of f at g.value, k = 0..4.
    """
    h = g - g.value
    acc = h * (derivs[DEGREE] / _FACT[DEGREE]) + derivs[DEGREE - 1] / _FACT[DEGREE - 1]
    for k in range(DEGREE - 2, -1, -1):
        acc = acc * h + derivs[k] / _FACT[k]
    return acc


def _reciprocal(g: Jet) -> Jet:
    v = g.value
    if v == 0.0:
        raise DomainError("division by a jet with zero value")
    try:
        derivs = tuple((-1.0) ** k * _FACT[k] / v ** (k + 1) for k in range(DEGREE + 1))
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"reciprocal of jet value {v!r} is out of float range") from exc
    return _compose(derivs, g)


def jet_sqrt(g: Jet) -> Jet:
    v = g.value
    if v <= SINGULAR_TOL:
        raise DomainError(f"sqrt of non-positive jet value {v!r}")
    f0 = math.sqrt(v)
    derivs = (f0, 0.5 * f0 / v, -0.25 * f0 / v**2, 0.375 * f0 / v**3, -0.9375 * f0 / v**4)
    return _compose(derivs, g)


def jet_exp(g: Jet) -> Jet:
    try:
        f0 = math.exp(g.value)
    except OverflowError as exc:
        raise DomainError(f"exp of jet value {g.value!r} overflows") from exc
    return _compose((f0,) * (DEGREE + 1), g)


def jet_ln(g: Jet) -> Jet:
    v = g.value
    if v <= SINGULAR_TOL:
        raise DomainError(f"ln of non-positive jet value {v!r}")
    return _compose((math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4), g)


def jet_sin(g: Jet) -> Jet:
    sv, cv = math.sin(g.value), math.cos(g.value)
    return _compose((sv, cv, -sv, -cv, sv), g)


def jet_cos(g: Jet) -> Jet:
    sv, cv = math.sin(g.value), math.cos(g.value)
    return _compose((cv, -sv, -cv, sv, cv), g)


def jet_abs(g: Jet) -> Jet:
    if abs(g.value) <= SINGULAR_TOL:
        raise DomainError("abs of a jet with value at the kink (|value| <= 1e-12)")
    return g if g.value > 0 else -g


def jet_ipow(g: Jet, n: int) -> Jet:
    """Integer power by repeated squaring."""
    if n == 0:
        return Jet.constant(1.0)
    if n < 0:
        return _reciprocal(jet_ipow(g, -n))
    out: Jet | None = None
    base = g
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    assert out is not None
    return out


def _is_constant(g: Jet) -> bool:
    return bool(np.max(np.abs(g.c.ravel()[1:])) < 1e-14)


def jet_pow(base: Jet, expo: Jet) -> Jet:
    """base^expo: integer constant exponents by squaring, else exp(e*ln(b))."""
    if _is_constant(expo):
        p = expo.value
        if p == round(p) and abs(p) <= 1024:
            return jet_ipow(base, int(round(p)))
    if base.value <= 0.0:
        raise DomainError(
            f"non-integer power of non-positive base {base.value!r}"
        )
    return jet_exp(expo * jet_ln(base))


_JET_FUNCS = {
    "sqrt": jet_sqrt,
    "exp": jet_exp,
    "ln": jet_ln,
    "sin": jet_sin,
    "cos": jet_cos,
    "abs": jet_abs,
}


def eval_jet(e: Node, r: float, s: float) -> Jet:
    """Evaluate an expression AST as a degree-4 Taylor jet at (r, s)."""

    def rec(node: Node) -> Jet:
        if isinstance(node, Num):
            return Jet.constant(node.value)
        if isinstance(node, Var):
            return Jet.variable_r(r) if node.name == "r" else Jet.variable_s(s)
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a = rec(node.left)
            if node.op == "^":
                b = rec(node.right)
                try:
                    return jet_pow(a, b)
                except DomainError as exc:
                    raise DomainError(f"{exc} in {to_string(node)}") from exc
            b = rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                try:
                    return a / b
                except DomainError as exc:
                    raise DomainError(f"{exc} in {to_string(node)}") from exc
            raise TypeError(f"unknown operator {node.op!r}")
        if isinstance(node, Call):
            g = rec(node.arg)
            try:
                return _JET_FUNCS[node.func](g)
            except DomainError as exc:
                raise DomainError(f"{exc} in {to_string(node)}") from exc
        raise TypeError(f"not an expression node: {node!r}")

    out = rec(e)
    if not np.isfinite(out.c).all():
        raise DomainError(f"non-finite jet coefficient in {to_string(e)}")
    return out


# -- finite-difference oracle ----------------------------------------------

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
