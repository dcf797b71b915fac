"""Bivariate truncated Taylor jets in (r, s), over batches of points.

A :class:`Jet` of degree d holds the Taylor-normalized coefficients

    c[a, b] = (d/dr)^a (d/ds)^b f / (a! b!),   a + b <= d,

of a function at one base point, or at a batch of them: ``c`` has shape
(d+1, d+1, *batch), so the degree is the shape of the array.  ``eval_jet``
works at degree 4 by default, the P/Q jets (``spray.pq_jets`` and the
candidates of ``metrize``) at degree 2, ``metrize``'s phi at degree 1.
Products are Cauchy products cut at total degree d, and smooth functions
compose their univariate Taylor expansion with the jet.  Coefficients of
total degree > d are identically zero and never consulted.  A coefficient of
degree <= k of a product or a composition reads only inputs of degree <= k,
so evaluating at degree k keeps it bit for bit where the Taylor seeds are
finite and ``jet_pow`` takes the same route (it reads the exponent's
coefficients up to the degree).  ``eval_jet`` runs an AST as a tape
(``_Tape``) that evaluates equal subtrees once.

Every jet operation is one numpy call over the whole batch, and the batch
columns never mix, so each row of a batched result equals the one-point
result bit for bit.  The product is one index-map kernel: the index triples
of the truncated Cauchy product over the flattened array (70 at degree 4,
15 at degree 2) list only entries of total degree <= d, so the kernel
relies on the zero invariant above.  One bincount over keys offset by the
batch column sums each output bin in the order of the textbook quadruple
loop, so products match that loop bit for bit.

The Taylor seeds (the derivatives of sqrt, exp, ln, sin, cos and 1/x at the
jet's value) are numpy columns over the batch, and every domain guard is a
mask over a column, the same at every degree (v^5 for 1/x, v^4 for sqrt
and ln).  ``fail_where`` tests the batch in one numpy call and builds an
error only for the points that fail, with the type and message a one-point
evaluation gives; a point keeps its first error, in the order a one-point
evaluation meets them, under its flat batch index in an ``errors`` dict,
and the rest of the batch runs on.  The batched entry points (the jet
functions, ``eval_jet``, ``spray.pq_jets`` and the packs built on the jets)
run under numpy's ``errstate``, so overflow in a failing column is not
warned about; called without ``errors``, they raise the first failing
point's error (``batched``).  A scan in grid order that stops early raises
only the errors up to its stop (``raise_first``).  ``GridJets`` holds one
expression's jets over the columns (r, s) of a grid and hands each point
its column's jet and error.

``d_r``/``d_s`` of a degree-d jet are exact only up to total degree d - 1;
truncated arithmetic never propagates high-order error downward, so values
and low-order partials of downstream expressions stay exact.
"""

from __future__ import annotations

import errno
import functools
import math
import operator
import os

import numpy as np

from .expr import BinOp, Call, DomainError, Neg, Node, Num, Var, eval_value, to_string

DEGREE = 4

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

# abs() is rejected this close to the kink, sqrt/ln this close to zero.
SINGULAR_TOL = 1e-12


@functools.lru_cache
def _tables(d: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The index tables of degree d over the flattened (d+1)x(d+1) layout:
    the Cauchy product out[K] += x[I] * y[J], and d_r, d_s as
    out[DST] = c[SRC] * W on the targets of total degree < d."""
    n, low = d + 1, [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    mul = [(i * n + j, (a - i) * n + b - j, a * n + b)
           for a, b in low for i in range(a + 1) for j in range(b + 1)]
    dr = [((a + 1) * n + b, a * n + b, a + 1) for a, b in low if a + b < d]
    ds = [(a * n + b + 1, a * n + b, b + 1) for a, b in low if a + b < d]
    return tuple(tuple(np.array(t).T.copy()) for t in (mul, dr, ds))


def _cols(c: np.ndarray) -> np.ndarray:
    """The coefficients as a ((d+1)^2, points) array, points in flat batch order."""
    return c.reshape(len(c) * len(c), -1)


_MUL_INDEX: dict = {}  # (side, size) -> the indices of _mul_index, oldest first


def _mul_index(side: int, size: int) -> tuple[np.ndarray, ...]:
    """Flat indices of the product terms of jets of size coefficients,
    side = d + 1, term-major: term t of point k multiplies x[I[t], k] by
    y[J[t], k] into bin K[t] of point k.

    The indices are cached.  The oldest entries leave while the cache holds
    more than 8 MiB: 24 bytes a product term, so one batch of up to 4993
    columns at degree 4."""
    out = _MUL_INDEX.get((side, size))
    if out is None:
        n = size // (side * side)
        index = (np.array(_tables(side - 1)[0])[:, :, None] * n + np.arange(n)).reshape(3, -1)
        index.flags.writeable = False  # shared by every caller through the cache
        out = _MUL_INDEX[side, size] = tuple(index)  # I, J, K: rows of one array, fewer heap holes
        while len(_MUL_INDEX) > 1 and sum(3 * v[0].nbytes for v in _MUL_INDEX.values()) > 8 << 20:
            del _MUL_INDEX[next(iter(_MUL_INDEX))]
    return out


class Jet:
    """Bivariate Taylor jet of total degree d, at one point or a batch."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    @classmethod
    def constant(cls, v, batch: tuple = (), degree: int = DEGREE) -> "Jet":
        c = np.zeros((degree + 1, degree + 1, *batch))
        c[0, 0] = v
        return cls(c)

    @classmethod
    def variable(cls, name: str, v0, degree: int = DEGREE) -> "Jet":
        """The jet of the variable name, "r" or "s", at the points v0."""
        out = cls.constant(np.asarray(v0, dtype=float), np.shape(v0), degree)
        out.c[(1, 0) if name == "r" else (0, 1)] = 1.0
        return out

    @property
    def degree(self) -> int:
        return self.c.shape[0] - 1

    def cut(self, d: int) -> "Jet":
        """The degree-d jet of this jet's coefficients of total degree <= d."""
        c = self.c[: d + 1, : d + 1].copy()
        for a in range(1, d + 1):
            c[a, d + 1 - a :] = 0.0  # total degree > d
        return Jet(c)

    @property
    def batch(self) -> tuple:
        return self.c.shape[2:]

    @property
    def value(self):
        """The value at the base point: a float, or an array over the batch."""
        v = self.c[0, 0]
        return float(v) if v.ndim == 0 else v

    def partial(self, a: int, b: int):
        """The mixed partial (d/dr)^a (d/ds)^b at the base point(s)."""
        if a < 0 or b < 0 or a + b > self.degree:
            raise ValueError(f"partial order ({a},{b}) outside the jet degree")
        v = self.c[a, b] * (_FACT[a] * _FACT[b])
        return float(v) if v.ndim == 0 else v

    def d_r(self) -> "Jet":
        """Jet of df/dr (exact to one total degree less)."""
        return self._shift(*_tables(self.degree)[1])

    def d_s(self) -> "Jet":
        """Jet of df/ds (exact to one total degree less)."""
        return self._shift(*_tables(self.degree)[2])

    def _shift(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> "Jet":
        x = _cols(self.c)
        c = np.zeros(x.shape)
        c[dst] = x[src] * w[:, None]
        return Jet(c.reshape(self.c.shape))

    # -- ring operations ---------------------------------------------------
    # A float operand gives exactly the constant-jet result: that route adds
    # +0.0 to every entry (turning -0.0 into 0.0) and starts each sum at 0.0.
    # An array operand holds one such float per point of the batch.

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        return _with_value(self.c + 0.0, self.c[0, 0] + other)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.c - other.c)
        return _with_value(self.c - 0.0, self.c[0, 0] - other)

    def __rsub__(self, other) -> "Jet":
        return _with_value(0.0 - self.c, other - self.c[0, 0])

    def __neg__(self) -> "Jet":
        return Jet(-self.c)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.c * other + 0.0)
        x, y = self.c, other.c
        i, j, k = _mul_index(len(x), x.size)
        return Jet(np.bincount(k, x.ravel()[i] * y.ravel()[j], minlength=x.size).reshape(x.shape))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.batch, self.degree)
        return self * jet_reciprocal(other)

    def __rtruediv__(self, other) -> "Jet":
        return jet_reciprocal(self) * other

    def __repr__(self) -> str:
        return f"Jet(value={self.value!r})"


def _with_value(c: np.ndarray, v) -> Jet:
    c[0, 0] = v
    return Jet(c)


def batched(fn):
    """Decorator for a batched entry point ``fn(..., errors=dict)``.

    fn runs with numpy's floating-point warnings silenced, because a failing
    point's columns turn NaN or infinite and its error is recorded instead.
    Called without ``errors``, the entry point records into a fresh dict and
    raises the first failing point's error."""

    @functools.wraps(fn)
    def entry(*args, errors: dict | None = None, **kwargs):
        sink = {} if errors is None else errors
        with np.errstate(all="ignore"):
            out = fn(*args, errors=sink, **kwargs)
        if errors is None:
            raise_first(sink)
        return out

    return entry


def fail_where(mask, errors: dict, error, *columns) -> None:
    """Record error(*values) at each point where mask holds, unless the point
    has failed already.

    The test is one numpy call over the batch; only the failing points build
    their error, from their entries of the columns as Python scalars."""
    for i in np.asarray(mask).ravel().nonzero()[0].tolist():
        if i not in errors:
            errors[i] = error(*(np.ravel(c)[i].item() for c in columns))


def fail_nonfinite(errors: dict, columns: dict) -> None:
    """A DomainError where a column of {name: values, ...} is not finite, naming the first."""
    names, values = list(columns), np.array(list(columns.values())).reshape(len(columns), -1)
    finite = np.isfinite(values)
    if not finite.all():
        error = lambda j, i: DomainError(f"non-finite {names[j]} = {values[j, i]}")
        fail_where(~finite.all(0), errors, error, finite.argmin(0), np.arange(values.shape[1]))


def first_true(mask) -> int | None:
    """The flat index of the first True entry of mask, or None."""
    hits = np.asarray(mask).ravel().nonzero()[0]
    return int(hits[0]) if hits.size else None


def raise_first(errors: dict, stop: int | None = None) -> None:
    """Raise the error of the first failed point, in flat batch order, if it
    comes no later than the point stop where a scan in that order ends
    (None: the scan runs to the end)."""
    if errors and (stop is None or min(errors) <= stop):
        raise errors[min(errors)]


def _compose(derivs, g: Jet) -> Jet:
    """Truncated composition f(g) from f's derivatives at g's value.

    ``derivs[k]`` is the k-th derivative of f at g's value, a column over
    the batch; k = 0..d for g of degree d, and later entries are not read.
    """
    h, d = g - g.c[0, 0], len(g.c) - 1
    acc = h * (derivs[d] / _FACT[d]) + derivs[d - 1] / _FACT[d - 1]
    for k in range(d - 2, -1, -1):
        acc = acc * h + derivs[k] / _FACT[k]
    return acc


def _fail(mask, errors: dict, v, message: str) -> None:
    """A DomainError with message, formatted with the point's value v, at
    each point where mask holds."""
    fail_where(mask, errors, lambda v: DomainError(message.format(v=v)), v)


def _positive_powers(g: Jet, errors: dict, name: str) -> list:
    """v, v^2, v^3, v^4 at g's value v, for sqrt or ln (name): a point fails
    where v is not positive, then where a power overflows, with the
    OverflowError of Python's float power.  np.power with a float exponent
    takes one path for a 0-d value and a batch, so rows match bit for bit."""
    v = g.c[0, 0]
    _fail(v <= SINGULAR_TOL, errors, v, name + " of non-positive jet value {v!r}")
    pw = [v, *(np.power(v, float(k)) for k in (2, 3, 4))]
    overflow = OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    fail_where(np.isfinite(v) & np.isinf(pw[3]), errors, lambda: overflow)
    return pw


@batched
def jet_reciprocal(g: Jet, *, errors: dict) -> Jet:
    v = g.c[0, 0]
    pw = [np.power(v, float(k + 1)) for k in range(DEGREE + 1)]
    _fail(v == 0.0, errors, v, "division by a jet with zero value")
    out_of_range = np.isfinite(v) & (np.isinf(pw[DEGREE]) | (pw[DEGREE] == 0.0))
    _fail(out_of_range, errors, v, "reciprocal of jet value {v!r} is out of float range")
    return _compose([(-1.0) ** k * _FACT[k] / pw[k] for k in range(len(g.c))], g)


@batched
def jet_sqrt(g: Jet, *, errors: dict) -> Jet:
    v, v2, v3, v4 = _positive_powers(g, errors, "sqrt")
    f0 = np.sqrt(v)
    return _compose((f0, 0.5 * f0 / v, -0.25 * f0 / v2, 0.375 * f0 / v3, -0.9375 * f0 / v4), g)


@batched
def jet_exp(g: Jet, *, errors: dict) -> Jet:
    v = g.c[0, 0]
    f0 = np.exp(v)
    _fail(np.isfinite(v) & np.isinf(f0), errors, v, "exp of jet value {v!r} overflows")
    return _compose((f0,) * len(g.c), g)


@batched
def jet_ln(g: Jet, *, errors: dict) -> Jet:
    v, v2, v3, v4 = _positive_powers(g, errors, "ln")
    return _compose((np.log(v), 1.0 / v, -1.0 / v2, 2.0 / v3, -6.0 / v4), g)


def _trig(g: Jet, errors: dict, name: str, shift: int) -> Jet:
    """sin (shift 0) or cos (shift 1): the seeds cycle sin, cos, -sin, -cos."""
    v = g.c[0, 0]
    _fail(np.isinf(v), errors, v, name + " of infinite jet value {v!r}")
    sv, cv = np.sin(v), np.cos(v)
    cycle = (sv, cv, -sv, -cv)
    return _compose([cycle[(shift + k) % 4] for k in range(len(g.c))], g)


@batched
def jet_sin(g: Jet, *, errors: dict) -> Jet:
    return _trig(g, errors, "sin", 0)


@batched
def jet_cos(g: Jet, *, errors: dict) -> Jet:
    return _trig(g, errors, "cos", 1)


@batched
def jet_abs(g: Jet, *, errors: dict) -> Jet:
    v = g.c[0, 0]
    kink = "abs of a jet with value at the kink (|value| <= 1e-12)"
    _fail(np.abs(v) <= SINGULAR_TOL, errors, v, kink)
    return Jet(np.where(v > 0, g.c, -g.c))


def jet_ipow(g: Jet, n: int, errors: dict | None = None) -> Jet:
    """Integer power by repeated squaring."""
    if n == 0:
        return Jet.constant(1.0, g.batch, g.degree)
    if n < 0:
        return jet_reciprocal(jet_ipow(g, -n), errors=errors)
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


def _take(g: Jet, idx: list[int]) -> Jet:
    """The jet at the points idx (flat batch order), as a 1-D batch."""
    return Jet(_cols(g.c)[:, idx].reshape(*g.c.shape[:2], len(idx)))


@batched
def jet_pow(base: Jet, expo: Jet, *, errors: dict) -> Jet:
    """base^expo: integer constant exponents by squaring, else exp(e*ln(b)).

    The route is chosen per point by masks, and the points of each route
    are evaluated as one sub-batch."""
    e, b = np.ravel(expo.c[0, 0]), np.ravel(base.c[0, 0])
    constant = np.abs(_cols(expo.c)[1:]).max(axis=0) < 1e-14
    integer = constant & np.isfinite(e) & (e == np.trunc(e)) & (np.abs(e) <= 1024)
    _fail(~integer & (b <= 0.0), errors, b, "non-integer power of non-positive base {v!r}")
    live = np.ones(b.size, dtype=bool)
    live[list(errors)] = False
    out = np.full(_cols(base.c).shape, math.nan)
    for route in [None, *set(e[integer & live].tolist())]:
        on_route = ~integer if route is None else integer & (e == route)
        idx, part = np.flatnonzero(live & on_route).tolist(), {}
        if not idx:
            continue
        if route is None:
            sub = jet_exp(_take(expo, idx) * jet_ln(_take(base, idx), errors=part), errors=part)
        else:
            sub = jet_ipow(_take(base, idx), int(route), errors=part)
        out[:, idx] = _cols(sub.c)
        errors.update((idx[k], exc) for k, exc in part.items())
    return Jet(out.reshape(base.c.shape))


def _divide(a: Jet, b: Jet, errors: dict) -> Jet:
    return a * jet_reciprocal(b, errors=errors)


_RING = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_FAILING = {"/": _divide, "^": jet_pow}  # the operators that can fail at a point
_JET_FUNCS = {
    "sqrt": jet_sqrt,
    "exp": jet_exp,
    "ln": jet_ln,
    "sin": jet_sin,
    "cos": jet_cos,
    "abs": jet_abs,
}


def _named(node: Node, errors: dict, fn, *args) -> Jet:
    """fn(*args, errors), naming node in each DomainError it records.

    A point records only its first error, so the errors fn records are the
    keys it appends."""
    known = len(errors)
    out = fn(*args, errors=errors)
    for i in list(errors)[known:]:
        if isinstance(errors[i], DomainError):
            cause = errors[i]
            errors[i] = DomainError(f"{cause} in {to_string(node)}")
            errors[i].__cause__ = cause
    return out


class _Tape:
    """An expression compiled for one evaluation at degree d: operations
    (slot, fn, node naming its errors or None, argument slots) in post-order.
    A node's key is its kind and its children's slots, so equal subtrees share
    a slot and no AST node is hashed.  A literal beside a non-literal operand
    of + - * or as numerator of / is a float (its route gives the constant
    jet's bits); x / c is x * (1/c) where the jet of 1/c records no error."""

    def __init__(self, e: Node, r: np.ndarray, s: np.ndarray, degree: int):
        self.variables = {"r": Jet.variable("r", r, degree), "s": Jet.variable("s", s, degree)}
        self.batch = r.shape
        self.degree = degree
        self.slots = {}  # key -> slot
        self.values = []  # slot -> its jet, float or int
        self.ops = []
        self.compile(e)  # the root takes the last slot

    def slot(self, key: tuple, value=None, fn=None, node: Node | None = None) -> int:
        """The slot of key; a new one holds value, or fn's result on the slots key[1:]."""
        slot = self.slots.setdefault(key, len(self.values))
        if slot == len(self.values):
            self.values.append(value)
            if fn is not None:
                self.ops.append((slot, fn, node, key[1:]))
        return slot

    def compile(self, node: Node, literal: bool = False) -> int:
        """The slot of node's value; literal: a Num is a Python float."""
        if type(node) is Num:
            v = float(node.value) if literal else Jet.constant(node.value, self.batch, self.degree)
            return self.slot((literal, repr(node.value)), v)
        if type(node) is Var:  # popped: the slot alone holds it, until its last reader
            return self.slot((node.name,), self.variables.pop(node.name, None))
        if type(node) is Neg:
            return self.slot(("-", self.compile(node.arg)), fn=operator.neg)
        if type(node) is Call:
            a = self.compile(node.arg)
            return self.slot((node.func, a), fn=_JET_FUNCS[node.func], node=node)
        if type(node) is not BinOp:
            raise TypeError(f"not an expression node: {node!r}")
        op, left, right = node.op, node.left, node.right
        # an integer literal exponent (n or -n): jet_pow's squaring route at every point
        lit, sign = (right.arg, -1) if type(right) is Neg else (right, 1)
        if op == "^" and type(lit) is Num and abs(lit.value) <= 1024 and lit.value % 1 == 0:
            a, n = self.compile(left), sign * int(lit.value)
            return self.slot(("^", a, self.slot(("int", n), n)), fn=jet_ipow, node=node)
        if op == "/" and type(right) is Num:
            c = jet_reciprocal(Jet.constant(right.value, (), self.degree), errors=(failed := {})).c
            if not failed:  # where a seed overflows, 1/c is NaN: x * NaN fails as x / c does
                return self.compile(BinOp("*", left, Num(float(c[0, 0]))))
        a = self.compile(left, op in "+-*/" and type(right) is not Num)
        b = self.compile(right, op in _RING and type(left) is not Num)
        if op in _RING:
            return self.slot((op, a, b), fn=_RING[op])
        if op in _FAILING:
            return self.slot((op, a, b), fn=_FAILING[op], node=node)
        raise TypeError(f"unknown operator {op!r}")


@batched
def eval_jet(e: Node, r, s, *, degree: int = DEGREE, errors: dict) -> Jet:
    """Evaluate an expression AST as degree-d Taylor jets at the points (r, s).

    r and s are floats, or arrays whose broadcast shape becomes the jet's
    batch shape.  The AST is compiled once into a ``_Tape``.  Each point gets
    the error a one-point evaluation raises, in the same post-order: with an
    ``errors`` dict it is recorded there under the point's flat batch index;
    without one, the first failing point's error is raised.
    """
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    tape = _Tape(e, r, s, degree)
    values = tape.values
    last = {i: k for k, op in enumerate(tape.ops) for i in op[3]}  # slot -> its last reader
    for k, (slot, fn, node, args) in enumerate(tape.ops):
        x = [values[i] for i in args]
        values[slot] = fn(*x) if node is None else _named(node, errors, fn, *x)
        for i in args:
            if last[i] == k:  # no later operation reads slot i
                values[i] = None
    out = values[-1]  # the root's
    fail_where(
        ~np.isfinite(_cols(out.c)).all(axis=0),
        errors,
        lambda: DomainError(f"non-finite jet coefficient in {to_string(e)}"),
    )
    return out


class GridJets:
    """The jets of one expression at a batch of points, from one batched
    ``eval_jet`` over the columns (r, s) the points share.

    ``index`` maps each point to its column of ``jets``; ``rows`` hands the
    jets out one per point, with the errors their columns recorded.
    """

    def __init__(self, r: np.ndarray, s: np.ndarray, index: np.ndarray, jets: Jet, errors: dict):
        self.r, self.s = r, s  # the (r, s) of the columns
        self.index = index
        self.jets = jets
        self.errors = errors  # column -> its recorded error

    @classmethod
    def evaluate(cls, e: Node, r, s, index: np.ndarray, *, degree: int = DEGREE) -> "GridJets":
        """e as degree-d jets at the columns (r, s), 1-D arrays, for the
        points that index maps to them."""
        errors = {}
        return cls(r, s, index, eval_jet(e, r, s, degree=degree, errors=errors), errors)

    def with_jets(self, jets: Jet, errors: dict) -> "GridJets":
        """Other jets on the same columns."""
        return GridJets(self.r, self.s, self.index, jets, errors)

    def take(self, rows: list[int]) -> "GridJets":
        """The same jets at the points rows only, in that order."""
        return GridJets(self.r, self.s, self.index[rows], self.jets, self.errors)

    def rows(self, errors: dict) -> Jet:
        """The jets at the points, one batch row each.  A point whose column
        failed gets that column's error in errors, unless it has one."""
        for row, k in enumerate(self.index.tolist()):
            if k in self.errors and row not in errors:
                errors[row] = self.errors[k]
        return Jet(self.jets.c[:, :, self.index])


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
