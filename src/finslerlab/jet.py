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
of the truncated Cauchy product (70 at degree 4, 15 at degree 2) gather rows
of the ((d+1)^2, points) layout and list only entries of total degree <= d,
so the kernel relies on the zero invariant above.  One bincount over keys
offset by the batch column sums each output bin in the order of the textbook
quadruple loop, so products match that loop bit for bit.

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
only the errors up to its stop (``raise_first``).

``Jet.derivatives`` reads the jets of partials of a jet, cut to a lower
degree, in one gather; truncated arithmetic never propagates high-order
error downward, so values and low-order partials of downstream expressions
stay exact.
"""

from __future__ import annotations

import errno
import functools
import math
import operator
import os

import numpy as np

from .expr import BinOp, Call, DomainError, Neg, Node, Num, Var, to_string

DEGREE = 4
MAX_INT_EXPONENT = 1024  # base^n with |n| at most this is taken by squaring, at any base

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

# abs() is rejected this close to the kink, sqrt/ln this close to zero.
SINGULAR_TOL = 1e-12


@functools.lru_cache
def _product_table(d: int) -> tuple[np.ndarray, ...]:
    """The index table of the Cauchy product of degree d over the flattened
    (d+1)x(d+1) layout: out[K] += x[I] * y[J]."""
    n, low = d + 1, [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    mul = [(i * n + j, (a - i) * n + b - j, a * n + b)
           for a, b in low for i in range(a + 1) for j in range(b + 1)]
    return tuple(np.array(mul).T.copy())


@functools.lru_cache
def _derivative_table(d: int, orders: tuple, degree: int) -> tuple[np.ndarray, ...]:
    """The gather of ``Jet.derivatives``: out[DST] = c[SRC] * W[0] * W[1] ... over
    the flattened layouts of a degree-d jet and of the stacked degree-`degree`
    outputs.  The factors of (d/dr)^a (d/ds)^b at (i, j) are those d/dr then
    d/ds apply one at a time, in that order: i+a, ..., i+1, j+b, ..., j+1."""
    n, m = d + 1, degree + 1
    rows = [((i + a) * n + j + b, (k * m + i) * m + j, [*range(i + a, i, -1), *range(j + b, j, -1)])
            for k, (a, b) in enumerate(orders) for i in range(m) for j in range(m - i)]
    width = max(len(w) for *_, w in rows)
    weights = np.array([w + [1] * (width - len(w)) for *_, w in rows], dtype=float).T.copy()
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), weights


def _cols(c: np.ndarray) -> np.ndarray:
    """The coefficients as a ((d+1)^2, points) array, points in flat batch order."""
    return c.reshape(len(c) * len(c), -1)


_MUL_INDEX: dict = {}  # (side, size) -> the keys of _mul_index, oldest first


def _mul_index(side: int, size: int) -> np.ndarray:
    """The bincount keys of the product terms of jets of size coefficients,
    side = d + 1, term-major: term t of point k, x[I[t], k] * y[J[t], k] in
    the rows I, J of ``_product_table``, falls in bin K[t] of point k.

    The keys are cached in ``_MUL_INDEX``, which ``Jet.__mul__`` reads first.
    The oldest entries leave while the cache holds more than 8 MiB: 8 bytes a
    product term, so one batch of up to 14979 columns at degree 4."""
    n = size // (side * side)
    out = (_product_table(side - 1)[2][:, None] * n + np.arange(n)).ravel()
    out.flags.writeable = False  # shared by every caller through the cache
    _MUL_INDEX[side, size] = out
    while len(_MUL_INDEX) > 1 and sum(v.nbytes for v in _MUL_INDEX.values()) > 8 << 20:
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

    def derivatives(self, orders: tuple, degree: int) -> list["Jet"]:
        """The degree-`degree` jets of (d/dr)^a (d/ds)^b of this jet for (a, b) in
        orders, a + b + degree <= this jet's degree, in one gather.  Their bits are
        those of shifting the coefficients a times in r, b times in s, and cutting."""
        if max(a + b for a, b in orders) + degree > self.degree:
            raise ValueError(f"derivatives {orders} at degree {degree} outside the jet degree")
        src, dst, weights = _derivative_table(self.degree, orders, degree)
        x = _cols(self.c)[src]
        for w in weights:
            x = x * w[:, None]
        out = np.zeros((len(orders) * (degree + 1) ** 2, x.shape[1]))
        out[dst] = x
        return [Jet(c) for c in out.reshape(len(orders), degree + 1, degree + 1, *self.batch)]

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
        x, y, side = self.c, other.c, len(self.c)
        i, j, _ = _product_table(side - 1)
        keys = _MUL_INDEX.get((side, x.size))
        if keys is None:
            keys = _mul_index(side, x.size)
        terms = x.reshape(side * side, -1).take(i, 0) * y.reshape(side * side, -1).take(j, 0)
        return Jet(np.bincount(keys, terms.ravel(), minlength=x.size).reshape(x.shape))

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


def _reciprocal_seeds(v, count: int, errors: dict) -> list:
    """The first count derivatives of 1/x at v, a column over the batch: a point
    fails where v is 0 or v^5 is out of float range, at every degree."""
    pw = [np.power(v, float(k + 1)) for k in range(count)]  # v^1..v^count, each seed's
    top = pw[DEGREE] if count > DEGREE else np.power(v, DEGREE + 1.0)
    _fail(v == 0.0, errors, v, "division by a jet with zero value")
    out_of_range = np.isfinite(v) & (np.isinf(top) | (top == 0.0))
    _fail(out_of_range, errors, v, "reciprocal of jet value {v!r} is out of float range")
    return [(-1.0) ** k * _FACT[k] / pw[k] for k in range(count)]


@batched
def jet_reciprocal(g: Jet, *, errors: dict) -> Jet:
    return _compose(_reciprocal_seeds(g.c[0, 0], len(g.c), errors), g)


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


def _take(g: Jet, idx) -> Jet:
    """The jet at the points idx (flat batch order), as a batch of idx's shape."""
    return Jet(_cols(g.c)[:, idx].reshape(*g.c.shape[:2], *np.shape(idx)))


@batched
def jet_pow(base: Jet, expo: Jet, *, errors: dict) -> Jet:
    """base^expo: integer constant exponents by squaring, else exp(e*ln(b)).

    The route is chosen per point by masks, and the points of each route
    are evaluated as one sub-batch."""
    e, b = np.ravel(expo.c[0, 0]), np.ravel(base.c[0, 0])
    constant = np.abs(_cols(expo.c)[1:]).max(axis=0) < 1e-14
    integer = constant & np.isfinite(e) & (e == np.trunc(e)) & (np.abs(e) <= MAX_INT_EXPONENT)
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
    jet's bits); x / c is x * (1/c), 1/c taken from the seeds of ``jet_reciprocal``
    as scalars, where the jet of 1/c records no error."""

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
        if (op == "^" and type(lit) is Num and abs(lit.value) <= MAX_INT_EXPONENT
                and lit.value % 1 == 0):
            a, n = self.compile(left), sign * int(lit.value)
            return self.slot(("^", a, self.slot(("int", n), n)), fn=jet_ipow, node=node)
        if op == "/" and type(right) is Num:
            v = np.float64(right.value)
            seeds = _reciprocal_seeds(v, self.degree + 1, failed := {})
            if not failed:  # where c or a seed is not finite, the jet's NaN: (c - c) * inf
                inv = seeds[0] if np.isfinite([v, *seeds]).all() else (v - v) * math.inf
                return self.compile(BinOp("*", left, Num(float(inv))))
        a = self.compile(left, op in "+-*/" and type(right) is not Num)
        b = self.compile(right, op in _RING and type(left) is not Num)
        if op in _RING:
            return self.slot((op, a, b), fn=_RING[op])
        if op in _FAILING:
            return self.slot((op, a, b), fn=_FAILING[op], node=node)
        raise TypeError(f"unknown operator {op!r}")


@batched
def eval_jet(e: Node, r, s, *, degree: int = DEGREE, errors: dict) -> Jet:
    """Evaluate an expression AST as degree-d Taylor jets, 1 <= d <= DEGREE, at (r, s).

    r and s are floats, or arrays whose broadcast shape becomes the jet's
    batch shape.  The AST is compiled once into a ``_Tape``.  Each point gets
    the error a one-point evaluation raises, in the same post-order: with an
    ``errors`` dict it is recorded there under the point's flat batch index;
    without one, the first failing point's error is raised.
    """
    if type(degree) is not int or not 1 <= degree <= DEGREE:
        raise ValueError(f"degree must be an integer in 1..{DEGREE}, got {degree!r}")
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
