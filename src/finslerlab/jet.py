"""Degree-4 bivariate truncated Taylor jets in (r, s), over batches of points.

A :class:`Jet` holds the Taylor-normalized coefficients

    c[a, b] = (d/dr)^a (d/ds)^b f / (a! b!),   a + b <= 4,

of a function at one base point, or at a batch of them: ``c`` has shape
(5, 5, *batch), with the batch axes trailing, so a one-point jet is a 5x5
array and ``c[a, b]`` is a float or an array over the batch.  Arithmetic is
exact truncated polynomial arithmetic: products are Cauchy products cut at
total degree 4, and smooth functions are applied by composing their
univariate Taylor expansion with the jet.  Coefficients of total degree > 4
are identically zero and never consulted.

Every jet operation is one numpy call over the whole batch, and the batch
columns never mix, so each row of a batched result equals the one-point
result bit for bit.  The product is one index-map kernel: the 70 index
triples of the truncated Cauchy product over the flattened 5x5 array are
tabulated at import and list only entries of total degree <= 4, so the kernel
relies on the zero invariant above.  One bincount over keys offset by the
batch column sums each output bin in the order of the textbook quadruple
loop, so products match that loop bit for bit.

The Taylor seeds (the derivatives of sqrt, exp, ln, sin, cos and 1/x at the
jet's value) are numpy columns over the batch, and every domain guard is a
mask over a column.  ``fail_where`` tests the batch in one numpy call and
builds an error only for the points that fail, with the type and message a
one-point evaluation gives; a point keeps its first error, in the order a
one-point evaluation meets them, under its flat batch index in an
``errors`` dict, and the rest of the batch runs on.  The batched entry
points (the jet functions, ``eval_jet``, ``spray.pq_jets`` and the packs
built on the jets) run under numpy's ``errstate``, so overflow in a failing
column is not warned about; called without ``errors``, they raise the first
failing point's error (``batched``).  A scan in grid order that stops early
raises only the errors up to its stop (``raise_first``).  ``GridJets``
holds one expression's jets over a grid's unique (r, s) and hands each point
its column's jet and error.

Taking ``d_r``/``d_s`` of a degree-4 jet yields a jet whose coefficients
are exact only up to total degree 3 (resp. 2 after two derivatives);
truncated arithmetic never propagates high-order error downward, so
values and low-order partials of downstream expressions stay exact.
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


def _cols(c: np.ndarray) -> np.ndarray:
    """The coefficients as a (25, points) array, points in flat batch order."""
    return c.reshape(_N * _N, -1)


@functools.lru_cache(maxsize=64)
def _mul_index(n: int) -> tuple[np.ndarray, ...]:
    """Flat indices of the product terms of n points, term-major: term t of
    point k multiplies x[I[t], k] by y[J[t], k] into bin K[t] of point k."""
    k = np.arange(n)
    out = tuple((idx[:, None] * n + k).ravel() for idx in (_MUL_I, _MUL_J, _MUL_K))
    for idx in out:
        idx.flags.writeable = False  # shared by every caller through the cache
    return out


class Jet:
    """Bivariate Taylor jet of total degree 4, at one point or a batch."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    @classmethod
    def constant(cls, v, batch: tuple = ()) -> "Jet":
        c = np.zeros((_N, _N, *batch))
        c[0, 0] = v
        return cls(c)

    @classmethod
    def variable_r(cls, r0) -> "Jet":
        r0 = np.asarray(r0, dtype=float)
        c = np.zeros((_N, _N, *r0.shape))
        c[0, 0] = r0
        c[1, 0] = 1.0
        return cls(c)

    @classmethod
    def variable_s(cls, s0) -> "Jet":
        s0 = np.asarray(s0, dtype=float)
        c = np.zeros((_N, _N, *s0.shape))
        c[0, 0] = s0
        c[0, 1] = 1.0
        return cls(c)

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
        if a < 0 or b < 0 or a + b > DEGREE:
            raise ValueError(f"partial order ({a},{b}) outside the jet degree")
        v = self.c[a, b] * (_FACT[a] * _FACT[b])
        return float(v) if v.ndim == 0 else v

    def d_r(self) -> "Jet":
        """Jet of df/dr (exact to one total degree less)."""
        return self._shift(*_DR)

    def d_s(self) -> "Jet":
        """Jet of df/ds (exact to one total degree less)."""
        return self._shift(*_DS)

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
        i, j, k = _mul_index(x.size // (_N * _N))
        return Jet(np.bincount(k, x.ravel()[i] * y.ravel()[j], minlength=x.size).reshape(x.shape))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.batch)
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
    their error, from their entries of the columns as Python floats."""
    for i in np.asarray(mask).ravel().nonzero()[0].tolist():
        if i not in errors:
            errors[i] = error(*(np.ravel(c)[i].item() for c in columns))


def fail_nonfinite(errors: dict, name: str, values) -> None:
    """A DomainError naming the value at each point where values is not finite."""
    fail_where(
        ~np.isfinite(values), errors, lambda v: DomainError(f"non-finite {name} = {v}"), values
    )


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

    ``derivs[k]`` is the k-th derivative of f at g's value, k = 0..4, a
    column over the batch.
    """
    h = g - g.c[0, 0]
    acc = h * (derivs[DEGREE] / _FACT[DEGREE]) + derivs[DEGREE - 1] / _FACT[DEGREE - 1]
    for k in range(DEGREE - 2, -1, -1):
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
    pw = [np.power(v, float(k + 1)) for k in range(_N)]
    _fail(v == 0.0, errors, v, "division by a jet with zero value")
    out_of_range = np.isfinite(v) & (np.isinf(pw[DEGREE]) | (pw[DEGREE] == 0.0))
    _fail(out_of_range, errors, v, "reciprocal of jet value {v!r} is out of float range")
    return _compose([(-1.0) ** k * _FACT[k] / pw[k] for k in range(_N)], g)


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
    return _compose((f0,) * _N, g)


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
    return _compose([cycle[(shift + k) % 4] for k in range(_N)], g)


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
        return Jet.constant(1.0, g.batch)
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
    return Jet(_cols(g.c)[:, idx].reshape(_N, _N, len(idx)))


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


@batched
def eval_jet(e: Node, r, s, *, errors: dict) -> Jet:
    """Evaluate an expression AST as degree-4 Taylor jets at the points (r, s).

    r and s are floats, or arrays whose broadcast shape becomes the jet's
    batch shape.  Each point gets the error a one-point evaluation raises,
    in the same post-order: with an ``errors`` dict it is recorded there
    under the point's flat batch index; without one, the first failing
    point's error is raised.
    """
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    batch = r.shape

    def rec(node: Node) -> Jet:
        if isinstance(node, Num):
            return Jet.constant(node.value, batch)
        if isinstance(node, Var):
            return Jet.variable_r(r) if node.name == "r" else Jet.variable_s(s)
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a, b = rec(node.left), rec(node.right)
            if node.op in _RING:
                return _RING[node.op](a, b)
            if node.op in _FAILING:
                return _named(node, errors, _FAILING[node.op], a, b)
            raise TypeError(f"unknown operator {node.op!r}")
        if isinstance(node, Call):
            return _named(node, errors, _JET_FUNCS[node.func], rec(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    out = rec(e)
    fail_where(
        ~np.isfinite(_cols(out.c)).all(axis=0),
        errors,
        lambda: DomainError(f"non-finite jet coefficient in {to_string(e)}"),
    )
    return out


class GridJets:
    """The jets of one expression at a batch of points, from one batched
    ``eval_jet`` over the points' unique (r, s).

    ``index`` maps each point to its column of ``jets``; ``rows`` hands the
    jets out one per point, with the errors their columns recorded.
    """

    def __init__(self, r: np.ndarray, s: np.ndarray, index: np.ndarray, jets: Jet, errors: dict):
        self.r, self.s = r, s  # the (r, s) of the columns
        self.index = index
        self.jets = jets
        self.errors = errors  # column -> its recorded error

    @classmethod
    def evaluate(cls, e: Node, r: np.ndarray, s: np.ndarray) -> "GridJets":
        """e at the points (r, s); points share a column when their (r, s)
        match, sign of zero included."""
        r, s = np.ravel(r), np.ravel(s)
        keys = list(zip(r.tolist(), s.tolist(), np.signbit(s).tolist()))
        column, first = {}, []
        for row, key in enumerate(keys):
            if key not in column:
                column[key] = len(first)
                first.append(row)
        index = np.array([column[key] for key in keys], dtype=int)
        errors = {}
        jets = eval_jet(e, r[first], s[first], errors=errors)
        return cls(r[first], s[first], index, jets, errors)

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
