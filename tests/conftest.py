import numpy as np
import pytest

from finslerlab import Jet, canonical_point, eval_jet, parse, random_rotation


def make_grid(n, r_values, s_fracs, u_values=(1.0,)):
    """Cartesian grid of canonical points with s = frac * r."""
    return [
        canonical_point(n, r, frac * r, u)
        for r in r_values
        for frac in s_fracs
        for u in u_values
    ]


def make_batch(n, r_values, s_fracs, u_values=(1.0,)):
    """The points of ``make_grid`` as one batch, rows in the same order."""
    axes = np.meshgrid(r_values, s_fracs, u_values, indexing="ij")
    r, frac, u = (np.array(a, dtype=float).ravel() for a in axes)
    return canonical_point(n, r, frac * r, u)


def rotated_batch(text, n, seed=5):
    """A rotated grid of 24 points, one at a time and as one batch, with
    phi's jets: (points, batch, batched jet, one-point jets)."""
    rotation = random_rotation(n, np.random.default_rng(seed))
    axes = np.meshgrid((0.7, 1.1, 1.6), (-0.6, 0.0, 0.35, 0.7), (0.8, 1.9), indexing="ij")
    r, frac, u = (a.ravel() for a in axes)
    batch = canonical_point(n, r, frac * r, u, rotation=rotation)
    points = [canonical_point(n, *rsu, rotation=rotation) for rsu in zip(r, frac * r, u)]
    e = parse(text)
    return points, batch, eval_jet(e, batch.r, batch.s), [eval_jet(e, p.r, p.s) for p in points]


def assert_row_matches(batched, single, k):
    """Row k of a batched result equals the one-point result: scalars bit
    for bit, vectors, matrices and tensors to 1e-15 relative, ints equal."""
    if isinstance(single, tuple):  # a pack, field by field
        for b, s in zip(batched, single, strict=True):
            assert_row_matches(b, s, k)
    elif type(single) is int:  # a count such as the dimension of a pack's points
        assert batched == single
    else:
        row, single = np.asarray(batched)[k], np.asarray(single)
        assert row.shape == single.shape
        if single.ndim == 0:
            assert row.tobytes() == single.tobytes(), (k, row, single)
        else:
            scale = max(1.0, float(np.max(np.abs(single))))
            assert np.max(np.abs(row - single)) <= 1e-15 * scale, k


def shift_jet(j, axis):
    """The jet of d/dr (axis 0) or d/ds (axis 1) of j, exact to one degree
    less: the route Jet.d_r and Jet.d_s took, kept as the reference of
    ``Jet.derivatives``.  Each coefficient is its source times its index."""
    d, c = j.degree, np.zeros(j.c.shape)
    for a in range(d + 1):
        for b in range(d - a):
            src = (a + 1, b) if axis == 0 else (a, b + 1)
            c[a, b] = j.c[src] * np.array(src[axis])
    return Jet(c)


def cut_jet(j, d):
    """The degree-d jet of j's coefficients of total degree <= d: the route
    Jet.cut took, kept as the reference of ``Jet.derivatives``."""
    c = j.c[: d + 1, : d + 1].copy()
    for a in range(1, d + 1):
        c[a, d + 1 - a :] = 0.0
    return Jet(c)


@pytest.fixture
def grid2():
    """A generic 16-point surface grid away from the |s| = r cone."""
    return make_grid(2, (0.6, 0.9, 1.2, 1.5), (-0.6, -0.2, 0.3, 0.7))


def sympy_partial(text, r0, s0, a, b):
    """Symbolic mixed partial of an expression string, as a float."""
    import sympy as sp

    r, s = sp.symbols("r s", real=True)
    expr = sp.sympify(
        text.replace("^", "**"),
        locals={
            "r": r,
            "s": s,
            "ln": sp.log,
            "sqrt": sp.sqrt,
            "exp": sp.exp,
            "sin": sp.sin,
            "cos": sp.cos,
            "abs": sp.Abs,
        },
    )
    d = sp.diff(expr, r, a, s, b)
    return float(d.subs({r: r0, s: s0}).evalf(30))


def rel_close(value, expected, rel=1e-8, abs_tol=0.0):
    return abs(value - expected) <= max(abs_tol, rel * abs(expected))


ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
