import itertools
import math
import re

import numpy as np
import pytest

from conftest import cut_jet, shift_jet, sympy_partial
from finslerlab import DomainError, eval_jet, fd_partials, parse
from finslerlab.expr import to_string
from finslerlab.jet import (
    Jet,
    jet_abs,
    jet_cos,
    jet_exp,
    jet_ipow,
    jet_ln,
    jet_pow,
    jet_reciprocal,
    jet_sin,
    jet_sqrt,
)
from finslerlab.spray import pq_jets

ORDERS = [(a, b) for a in range(5) for b in range(5 - a)]

EX45 = "1/r^5 * sqrt(r^2-s^2) * exp(2*s/sqrt(r^2-s^2))"


def fd_tol(value, order):
    if order <= 3:
        return max(1e-6, 1e-4 * abs(value))
    return max(1e-4, 1e-3 * abs(value))


def test_linear_variable_jet():
    j = eval_jet(parse("s"), 2.0, 1.0)
    assert j.partial(0, 0) == 1.0
    assert j.partial(0, 1) == 1.0
    for a, b in ORDERS:
        if (a, b) not in ((0, 0), (0, 1)):
            assert j.partial(a, b) == 0.0


def test_sqrt_jet_at_origin_slice():
    j = eval_jet(parse("sqrt(1+s^2)"), 1.0, 0.0)
    assert j.partial(0, 0) == pytest.approx(1.0, abs=1e-15)
    assert j.partial(0, 1) == pytest.approx(0.0, abs=1e-15)
    assert j.partial(0, 2) == pytest.approx(1.0, rel=1e-14)


def test_constant_jet():
    j = Jet.constant(3.5)
    assert j.partial(0, 0) == 3.5
    assert np.count_nonzero(j.c) == 1


def test_product_is_cauchy_truncation():
    # (1 + r + s)^2 has known Taylor-normalized coefficients at (0, 0)
    j = eval_jet(parse("(1 + r + s)^2"), 0.0, 0.0)
    assert j.c[0, 0] == 1.0
    assert j.c[1, 0] == 2.0 and j.c[0, 1] == 2.0
    assert j.c[2, 0] == 1.0 and j.c[0, 2] == 1.0 and j.c[1, 1] == 2.0
    assert abs(j.c[3, 0]) == 0.0 and abs(j.c[2, 1]) == 0.0


def test_example45_jet_vs_fd_oracle():
    e = parse(EX45)
    j = eval_jet(e, 1.0, 0.3)
    for a, b in ORDERS:
        fd = fd_partials(e, 1.0, 0.3, a, b)
        assert abs(j.partial(a, b) - fd) <= fd_tol(fd, a + b), (a, b)


def test_fd_polynomial_examples():
    e = parse("s^2")
    assert fd_partials(e, 1.0, 0.5, 0, 1) == pytest.approx(1.0, abs=1e-10)
    assert fd_partials(e, 1.0, 0.5, 0, 2) == pytest.approx(2.0, abs=1e-6)


def test_fd_exp_third_order():
    assert fd_partials(parse("exp(s)"), 1.0, 0.0, 0, 3) == pytest.approx(1.0, abs=1e-6)


def test_fd_rejects_bad_order():
    with pytest.raises(ValueError):
        fd_partials(parse("s"), 1.0, 0.0, 3, 2)


def test_random_polynomials_match_symbolic():
    # fixed-seed random polynomials of total degree <= 4: jets are exact
    rng = np.random.default_rng(42)
    monomials = [(a, b) for a in range(5) for b in range(5 - a)]
    for _ in range(8):
        coeffs = {m: rng.integers(-5, 6) for m in monomials if rng.random() < 0.5}
        if not coeffs:
            continue
        text = " + ".join(f"{c}*r^{a}*s^{b}" for (a, b), c in coeffs.items())
        e = parse(text)
        r0, s0 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        j = eval_jet(e, r0, s0)
        for a, b in monomials:
            exact = sympy_partial(text, r0, s0, a, b)
            assert abs(j.partial(a, b) - exact) <= 1e-12 * max(1.0, abs(exact)), (a, b)


@pytest.mark.parametrize(
    "text,point",
    [
        ("exp(r*s)", (0.7, 0.4)),
        ("ln(1 + r + s^2)", (0.5, 0.8)),
        ("sin(r + s)", (1.1, -0.4)),
        ("cos(r*s)", (0.9, 0.6)),
        ("sqrt(1 + r^2 + s^2)", (1.3, -0.7)),
        ("1/(r + s)", (1.0, 0.5)),
        ("r^2.5", (1.7, 0.0)),
        ("(1 + s^2)^(1/2)", (1.0, 0.4)),
        ("abs(s - 2)", (1.0, 0.5)),
        (EX45, (1.2, -0.5)),
    ],
)
def test_compositions_match_symbolic(text, point):
    r0, s0 = point
    j = eval_jet(parse(text), r0, s0)
    for a, b in ORDERS:
        exact = sympy_partial(text, r0, s0, a, b)
        assert abs(j.partial(a, b) - exact) <= 1e-11 * max(1.0, abs(exact)), (a, b)


@pytest.mark.parametrize(
    "text,point",
    [
        ("exp(s/10) + r^2*s", (1.2, 0.5)),
        ("sqrt(1 + s^2)*r", (0.8, -0.3)),
        ("sin(s)*cos(r)", (1.0, 0.2)),
    ],
)
def test_fd_agrees_with_jet_on_smooth_functions(text, point):
    e = parse(text)
    j = eval_jet(e, *point)
    for a, b in ORDERS:
        fd = fd_partials(e, point[0], point[1], a, b)
        jv = j.partial(a, b)
        if a + b <= 3:
            assert abs(jv - fd) <= max(1e-6, 1e-4 * abs(jv)), (a, b)
        else:
            assert abs(jv - fd) <= max(1e-4, 1e-3 * abs(jv)), (a, b)


def test_domain_violations():
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(s)"), 1.0, -1.0)
    with pytest.raises(DomainError):
        eval_jet(parse("ln(s)"), 1.0, 0.0)
    with pytest.raises(DomainError):
        eval_jet(parse("1/s"), 1.0, 0.0)
    with pytest.raises(DomainError):
        eval_jet(parse("abs(s)"), 1.0, 1e-15)
    with pytest.raises(DomainError):
        eval_jet(parse("s^0.5"), 1.0, -2.0)


def test_domain_error_names_the_node():
    with pytest.raises(DomainError, match="sqrt"):
        eval_jet(parse("1 + sqrt(s - 10)"), 1.0, 0.0)


def test_integer_powers_of_negative_base():
    j = eval_jet(parse("s^3"), 1.0, -2.0)
    assert j.partial(0, 0) == -8.0
    assert j.partial(0, 1) == 12.0
    assert j.partial(0, 2) == -12.0
    assert j.partial(0, 3) == 6.0


def test_derivative_jets_shift_coefficients():
    j = eval_jet(parse("r^2*s^2"), 2.0, 3.0)
    (ds,) = j.derivatives(((0, 1),), 3)
    # d/ds (r^2 s^2) = 2 r^2 s
    assert ds.degree == 3
    assert ds.partial(0, 0) == pytest.approx(24.0)
    assert ds.partial(1, 1) == pytest.approx(8.0)  # d^2/drds of 2 r^2 s = 4r


# -- index-map kernel against the loop it replaced ---------------------------


def cauchy_reference(x, y):
    """The truncated Cauchy product as the textbook quadruple loop."""
    out = np.zeros((5, 5))
    for a in range(5):
        for b in range(5 - a):
            acc = 0.0
            for i in range(a + 1):
                for j in range(b + 1):
                    acc += x[i, j] * y[a - i, b - j]
            out[a, b] = acc
    return out


def random_jet(rng):
    """A jet with random coefficients through degree 4, some of them +-0.0."""
    c = np.zeros((5, 5))
    for a, b in ORDERS:
        c[a, b] = rng.choice([rng.normal() * 10.0 ** rng.integers(-3, 4), 0.0, -0.0])
    return Jet(c)


def same_bits(j, k):
    return j.c.tobytes() == k.c.tobytes()


def high_order_is_zero(j):
    d = j.degree
    return all((j.c[a, b] == 0.0).all() for a in range(d + 1) for b in range(d + 1) if a + b > d)


def test_product_matches_reference_loop_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        x, y = random_jet(rng), random_jet(rng)
        assert (x * y).c.tobytes() == cauchy_reference(x.c, y.c).tobytes()


def test_float_operands_match_constant_jet_route():
    rng = np.random.default_rng(7)
    for _ in range(20):
        j = random_jet(rng)
        for v in (2.0, -0.5, 0.0, 3):
            k = Jet.constant(float(v))
            assert same_bits(j * v, j * k)
            assert same_bits(v * j, k * j)
            assert same_bits(j + v, j + k)
            assert same_bits(v + j, k + j)
            assert same_bits(j - v, j - k)
            assert same_bits(v - j, k - j)
            if v:
                assert same_bits(j / v, j / k)
            if j.value:
                assert same_bits(v / j, k / j)


def test_derivative_jets_match_explicit_shift():
    rng = np.random.default_rng(11)
    for _ in range(20):
        j = random_jet(rng)
        dr, ds = np.zeros((4, 4)), np.zeros((4, 4))
        for a in range(4):
            for b in range(4 - a):
                dr[a, b] = j.c[a + 1, b] * (a + 1)
                ds[a, b] = j.c[a, b + 1] * (b + 1)
        assert [d.c.tobytes() for d in j.derivatives(((1, 0), (0, 1)), 3)] == [
            dr.tobytes(), ds.tobytes()
        ]


# the non-finite and signed-zero coefficients of test_derivative_jets_are_the_shifts_cut
_SPECIAL = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 1e308, 5e-324]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_derivative_jets_are_the_shifts_cut(degree):
    # the gather against the shift-then-cut route it replaced, bit for bit: each
    # order (a, b) and target degree k alone and all of them in one gather, on a
    # batch of jets some of whose coefficients are infinite, NaN, -0.0 or extreme
    rng = np.random.default_rng(degree)
    c = np.zeros((degree + 1, degree + 1, 40))
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c[a, b] = rng.normal(size=40) * 10.0 ** rng.integers(-5, 6, 40)
            special = rng.random(40) < 0.2
            c[a, b, special] = rng.choice(_SPECIAL, special.sum())
    jets = [Jet(c), Jet(c[:, :, 7].copy())]  # a batch, and one point
    for k in range(degree + 1):
        orders = tuple((a, b) for a in range(degree + 1 - k) for b in range(degree + 1 - k - a))
        for j in jets:
            reference = []
            for a, b in orders:
                ref = j
                for axis in [0] * a + [1] * b:
                    ref = shift_jet(ref, axis)
                reference.append(cut_jet(ref, k).c.tobytes())
            assert [g.c.tobytes() for o in orders for g in j.derivatives((o,), k)] == reference
            gathered = j.derivatives(orders, k)
            assert [g.c.shape for g in gathered] == [(k + 1, k + 1, *j.batch)] * len(orders)
            assert [g.c.tobytes() for g in gathered] == reference
    with pytest.raises(ValueError, match="outside the jet degree"):
        Jet(c).derivatives(((0, 1),), degree)


def test_high_order_coefficients_stay_zero():
    rng = np.random.default_rng(5)
    x = random_jet(rng)
    x.c[0, 0] = 1.5
    y = random_jet(rng)
    y.c[0, 0] = -0.7
    results = [
        x * y, x * 2.0, 2.0 * x, x + y, x + 1.0, 1.0 - x, x - y, -x, x / y, x / 2.0, 2.0 / x,
        *x.derivatives(((1, 0), (0, 1)), 3),
        jet_sqrt(x), jet_exp(x), jet_ln(x), jet_sin(x), jet_cos(x),
        jet_ipow(x, 5), jet_ipow(x, -2), jet_pow(x, y + 0.3),
    ]
    for j in results:
        assert high_order_is_zero(j)
    assert high_order_is_zero(eval_jet(parse(EX45), 1.2, -0.5))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "text,point,match",
    [
        ("exp(1000*s)", (1.0, 0.9), "exp of jet value"),
        ("1/(1e-70 + 0*s)", (1.0, 0.5), "reciprocal of jet value"),
        ("1/(1e70 + s)", (1.0, 0.5), "reciprocal of jet value"),
        ("exp(s)^800", (1.0, 0.9), "non-finite jet coefficient in"),
        ("sin(1e308*10)", (1.0, 0.5), r"^sin of infinite jet value inf in sin\(\(1e\+308 \* 10"),
        ("cos(s-1e308*10)", (1.0, 0.5), r"^cos of infinite jet value -inf in cos\("),
    ],
)
def test_float_range_failures_raise_domain_error(text, point, match):
    with pytest.raises(DomainError, match=match):
        eval_jet(parse(text), *point)


# -- batches: every row equals the one-point evaluation ------------------------

FLAT = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"
BASIS_COMBINATION = (
    "1.2 + 0.1*s + 0.05*s^2 + 0.2*sqrt(1+s^2) + 0.1*exp(s/10) + 0.03*r^2 + 0.07*r*s"
)
COMPOSITION_CASES = [
    ("exp(r*s)", (0.7, 0.4)),
    ("ln(1 + r + s^2)", (0.5, 0.8)),
    ("sin(r + s)", (1.1, -0.4)),
    ("cos(r*s)", (0.9, 0.6)),
    ("sqrt(1 + r^2 + s^2)", (1.3, -0.7)),
    ("1/(r + s)", (1.0, 0.5)),
    ("r^2.5", (1.7, 0.0)),
    ("(1 + s^2)^(1/2)", (1.0, 0.4)),
    ("abs(s - 2)", (1.0, 0.5)),
    (EX45, (1.2, -0.5)),
]
GRID_R = np.repeat([0.6, 0.9, 1.2, 1.7], 5)
GRID_S = GRID_R * np.tile([-0.7, -0.3, 0.0, 0.4, 0.8], 4)


def batch_cases():
    for text in (FLAT, "1+s", BASIS_COMBINATION, EX45):
        yield text, GRID_R, GRID_S
    for text, (r0, s0) in COMPOSITION_CASES:
        yield text, r0 + np.array([0.0, 0.05, 0.1]), s0 + np.array([0.0, -0.05, 0.05])
    # the exponent's jet is constant only at r = 1: squaring there, exp(e ln b) elsewhere
    yield "s^((r-1)^5+2)", np.array([1.0, 1.2, 1.0, 0.8]), np.array([0.3, 0.3, -0.4, 0.5])


@pytest.mark.parametrize("text, r, s", list(batch_cases()))
def test_batch_rows_match_single_point_bits(text, r, s):
    e = parse(text)
    batch = eval_jet(e, r, s)
    assert batch.c.shape == (5, 5, len(r))
    for k in range(len(r)):
        assert batch.c[:, :, k].tobytes() == eval_jet(e, r[k], s[k]).c.tobytes(), k


@pytest.mark.parametrize(
    "text, s, r",
    [
        ("sqrt(s-0.3)", (0.5, 0.3, -0.2, 0.9), None),
        ("ln(s)", (0.4, 0.0, -0.3, 0.7), None),
        ("1/(s-0.2)", (0.5, 0.2, -0.1, 0.2), None),
        ("exp(1000*s)", (-0.5, 0.9, 0.1, 0.2), None),
        ("s^0.5", (0.25, -0.5, 0.0, 0.6), None),
        ("abs(s)", (0.3, 1e-15, -0.4, 0.0), None),
        # at s = -0.2 both ln and sqrt fail; the point keeps the ln error
        ("ln(s) + sqrt(s-0.3)", (0.5, -0.2, 0.1, 0.8), None),
        # 1/s^2 at r = 1, which fails at s = 0; exp(e ln b) elsewhere, which fails for s < 0
        ("s^((r-1)^5-2)", (0.0, -0.3, 0.5, 0.2), (1.0, 1.2, 1.2, 1.0)),
    ],
)
def test_failing_points_keep_their_single_point_error(text, s, r):
    e = parse(text)
    r = np.ones(len(s)) if r is None else np.array(r)
    errors = {}
    batch = eval_jet(e, r, np.array(s), errors=errors)
    failed = 0
    for k, s0 in enumerate(s):
        try:
            single = eval_jet(e, r[k], s0)
        except Exception as exc:
            failed += 1
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc), k
        else:
            assert k not in errors
            assert batch.c[:, :, k].tobytes() == single.c.tobytes(), k
    assert 0 < failed < len(s)
    # without an error list, the first failing point's error is raised
    first = errors[min(errors)]
    with pytest.raises(type(first), match="^" + re.escape(str(first)) + "$"):
        eval_jet(e, r, np.array(s))


def test_first_error_in_post_order_wins():
    # both ln and sqrt fail at s = -0.2; evaluation stops being meaningful at ln
    errors = {}
    eval_jet(parse("ln(s) + sqrt(s-0.3)"), np.ones(2), np.array([-0.2, 0.1]), errors=errors)
    assert str(errors[0]) == "ln of non-positive jet value -0.2 in ln(s)"
    assert str(errors[1]).startswith("sqrt of non-positive jet value -0.")
    with pytest.raises(DomainError, match=r"^ln of non-positive jet value -0\.2 in ln\(s\)$"):
        eval_jet(parse("ln(s) + sqrt(s-0.3)"), 1.0, -0.2)


def test_power_routes_record_their_own_errors():
    # 1/s^2 fails inside the squaring route, the base guard before exp(e ln b)
    errors = {}
    eval_jet(parse("s^((r-1)^5-2)"), np.array([1.0, 1.2]), np.array([0.0, -0.3]), errors=errors)
    assert str(errors[0]) == "division by a jet with zero value in (s ^ (((r - 1) ^ 5) - 2))"
    assert str(errors[1]).startswith("non-integer power of non-positive base -0.3 in ")


def test_equal_exponent_values_keep_their_own_power_route():
    # at r = 1.0001 the exponent's value rounds to exactly 2, but its jet is
    # not constant: that point takes exp(e ln b), the r = 1 point squares
    e = parse("s^((r-1)^5+2)")
    r, s = np.array([1.0, 1.0001]), np.array([0.5, 0.5])
    batch = eval_jet(e, r, s)
    for k in range(2):
        assert batch.c[:, :, k].tobytes() == eval_jet(e, r[k], s[k]).c.tobytes(), k


@pytest.mark.parametrize(
    "text", ["r^5", "s^2", "(s-0.5)^-1", "ln(s)^-2", "(s+r)^0", "(s-0.5)^-1024", "s^1e300"]
)
def test_integer_literal_powers_match_the_masked_route(text):
    # eval_jet squares an integer literal exponent at every point; jet_pow's
    # route masks give the same rows and, named after the node, the same
    # errors in the same order, and a point that failed earlier keeps its error
    e = parse(text)
    r = np.array([1.0, 1.0, 0.6, 1.2, 1.7, 0.9, 1.0])
    s = np.array([0.5, -0.3, 0.0, 0.48, 0.9, 0.7, 0.5000000000000001])
    errors = {}
    fast = eval_jet(e, r, s, errors=errors)
    base_errors = {}
    base = eval_jet(e.left, r, s, errors=base_errors)
    routed = dict(base_errors)
    masked = jet_pow(base, eval_jet(e.right, r, s), errors=routed)
    want = [
        (k, type(exc), str(exc) if k in base_errors else f"{exc} in {to_string(e)}")
        for k, exc in routed.items()
    ]
    assert [(k, type(exc), str(exc)) for k, exc in errors.items()] == want
    for k in range(len(r)):
        if k not in errors:
            assert fast.c[:, :, k].tobytes() == masked.c[:, :, k].tobytes(), k


def test_batched_product_matches_reference_loop_exactly():
    rng = np.random.default_rng(99)
    for size in (1, 7, 48):
        x = np.stack([random_jet(rng).c for _ in range(size)], axis=-1)
        y = np.stack([random_jet(rng).c for _ in range(size)], axis=-1)
        product = (Jet(x) * Jet(y)).c
        for k in range(size):
            want = cauchy_reference(x[:, :, k], y[:, :, k])
            assert product[:, :, k].tobytes() == want.tobytes(), (size, k)



@pytest.mark.parametrize("text", ["sqrt(s + 1)", "ln(s + 1)"])
def test_overflowing_seed_powers_raise_the_float_power_error(text):
    # the seeds divide by v^2..v^4: where v^4 overflows (s = 1e100), the point
    # fails with the OverflowError of Python's float power; s = 0.5 runs on
    with pytest.raises(OverflowError) as python:
        1e100**4
    e, errors = parse(text), {}
    batch = eval_jet(e, np.ones(2), np.array([1e100, 0.5]), errors=errors)
    assert list(errors) == [0]
    assert type(errors[0]) is OverflowError and str(errors[0]) == str(python.value)
    assert batch.c[:, :, 1].tobytes() == eval_jet(e, 1.0, 0.5).c.tobytes()
    with pytest.raises(OverflowError, match="^" + re.escape(str(python.value)) + "$"):
        eval_jet(e, 1.0, 1e100)


# -- degree: a jet's degree is the shape of its array ---------------------------


LOW2 = [(a, b) for a in range(3) for b in range(3 - a)]


def truncated(j):
    """The degree-2 jet of j's coefficients of total degree <= 2."""
    c = np.zeros((3, 3, *j.batch))
    for a, b in LOW2:
        c[a, b] = j.c[a, b]
    return Jet(c)


def low_block(j, points):
    """The coefficients of total degree <= 2 at points, as bytes."""
    return b"".join(j.c[a, b, points].tobytes() for a, b in LOW2)


# jet values at which the seeds fail their guards: zero and -0.0 (1/x, sqrt, ln),
# negative (sqrt, ln), the abs kink, v^5 underflow (1/x), v^4 overflow (sqrt, ln),
# exp overflow, and infinity (sin, cos); the other points pass every guard
VALUES = [1.5, -0.7, 0.0, -0.0, 1e-13, 1e-70, 1e100, 800.0, math.inf, 2.0, 0.3, -2.5]


def value_batch(rng):
    """Random degree-4 jets, some coefficients +-0.0, one per entry of VALUES."""
    c = np.stack([random_jet(rng).c for _ in VALUES], axis=-1)
    c[0, 0] = VALUES
    return Jet(c)


# An exponent jet that is constant through degree 2 but not through degree 4
# takes another jet_pow route once truncated, so the exponents here are
# constant at every degree (the squaring route) or have a linear term.
TRUNCATION_OPS = {
    "mul": lambda x, y, errors: x * y,
    "add": lambda x, y, errors: x + y,
    "sub": lambda x, y, errors: x - y,
    "neg": lambda x, y, errors: -x,
    "float operands": lambda x, y, errors: (2.5 * x - 0.5) * (1.0 - x / 4.0 + 3) + 0.0 * x,
    "reciprocal": lambda x, y, errors: jet_reciprocal(x, errors=errors),
    "float over jet": lambda x, y, errors: 2.0 * jet_reciprocal(x, errors=errors),
    "sqrt": lambda x, y, errors: jet_sqrt(x, errors=errors),
    "exp": lambda x, y, errors: jet_exp(x, errors=errors),
    "ln": lambda x, y, errors: jet_ln(x, errors=errors),
    "sin": lambda x, y, errors: jet_sin(x, errors=errors),
    "cos": lambda x, y, errors: jet_cos(x, errors=errors),
    "abs": lambda x, y, errors: jet_abs(x, errors=errors),
    "ipow 3": lambda x, y, errors: jet_ipow(x, 3, errors),
    "ipow -3": lambda x, y, errors: jet_ipow(x, -3, errors),
    "ipow 0": lambda x, y, errors: jet_ipow(x, 0, errors),
    "pow, both routes": lambda x, y, errors: jet_pow(x, y, errors=errors),
}


@pytest.mark.parametrize("name", sorted(TRUNCATION_OPS))
def test_degree_2_block_depends_only_on_degree_2_inputs(name):
    # the same errors, and at every point that did not fail the degree-2
    # block of the result bit for bit (a failed point's columns are never read)
    op = TRUNCATION_OPS[name]
    rng = np.random.default_rng(sorted(TRUNCATION_OPS).index(name))
    for _ in range(5):
        x = value_batch(rng)
        y = Jet.constant(rng.choice([2.0, -3.0, 0.5], size=len(VALUES)), (len(VALUES),))
        y.c[1, 0, ::2] = rng.normal(size=(len(VALUES) + 1) // 2)  # the exp(e ln b) route
        full_errors, cut_errors = {}, {}
        with np.errstate(all="ignore"):  # the ring operators on the failing points
            full = op(x, y, full_errors)
            cut = op(truncated(x), truncated(y), cut_errors)
        assert [(k, type(e), str(e)) for k, e in cut_errors.items()] == [
            (k, type(e), str(e)) for k, e in full_errors.items()
        ]
        live = [k for k in range(len(VALUES)) if k not in full_errors]
        assert cut.c.shape == (3, 3, len(VALUES)) and high_order_is_zero(Jet(cut.c[..., live]))
        assert low_block(cut, live) == low_block(full, live)


def test_degree_2_jets_keep_their_degree():
    full = eval_jet(parse("1 + r*s + s^2 + r^2*s"), np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    (x,) = full.derivatives(((0, 0),), 2)
    assert x.c.tobytes() == truncated(full).c.tobytes() and high_order_is_zero(x)
    x = Jet(x.c[:, :, 0])
    for j in (x / 2.0, 2.0 / x, jet_ipow(x, 0), Jet.variable("s", 0.5, 2) * x):
        assert j.degree == 2 and j.c.shape == (3, 3)
    assert [j.c.shape for j in x.derivatives(((1, 0), (0, 1)), 1)] == [(2, 2)] * 2
    assert x.partial(0, 2) == 2.0 and x.partial(1, 1) == 3.0  # 1 + 2r at r = 1


def test_partial_checks_the_jets_own_degree():
    x = truncated(eval_jet(parse("exp(r + s)"), 1.0, 0.5))
    for a, b in [(3, 0), (0, 3), (2, 1), (-1, 0)]:
        message = rf"^partial order \({a},{b}\) outside the jet degree$"
        with pytest.raises(ValueError, match=message):
            x.partial(a, b)


def degree_4_pq(phi, r, s):
    """P and Q by pq_jets' formulas on degree-4 jets, without the cut."""
    phi_r, phi_s = shift_jet(phi, 0), shift_jet(phi, 1)
    phi_ss, phi_rs = shift_jet(phi_s, 1), shift_jet(phi_r, 1)
    rj, sj = Jet.variable("r", r), Jet.variable("s", s)
    w = rj * rj - sj * sj
    denom = phi - sj * phi_s + w * phi_ss
    q = (-phi_r + sj * phi_rs + rj * phi_ss) * jet_reciprocal(2.0 * rj * denom)
    p = -(q * jet_reciprocal(phi)) * (sj * phi + w * phi_s)
    return p + (sj * phi_r + rj * phi_s) * jet_reciprocal(2.0 * rj * phi), q


@pytest.mark.parametrize("text", [FLAT, "1+s", BASIS_COMBINATION, "sqrt(1+s^2)"])
def test_pq_jets_are_the_degree_4_jets_cut_to_degree_2(text):
    phi = eval_jet(parse(text), GRID_R, GRID_S)
    everywhere = slice(None)
    for cut, full in zip(pq_jets(phi, GRID_R, GRID_S), degree_4_pq(phi, GRID_R, GRID_S)):
        assert cut.c.shape == (3, 3, len(GRID_R)) and high_order_is_zero(cut)
        assert low_block(cut, everywhere) == low_block(full, everywhere)


# -- the compiled tape against a plain tree walk ---------------------------------

FLAT_P = "-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)"
FLAT_Q = "7/(8*r^2) - 3*s^2/(8*r^4) - 3*s*sqrt(r^2-s^2)/(4*r^4)"


def tree_walk(e, r, s, degree=4):
    """eval_jet as a tree walk: every literal a constant jet, and every
    subtree evaluated where it occurs.  Returns the jet and its errors."""
    from finslerlab.expr import BinOp, Call, Neg, Num, Var
    from finslerlab.jet import _named, fail_where

    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    errors = {}
    funcs = {"sqrt": jet_sqrt, "exp": jet_exp, "ln": jet_ln, "sin": jet_sin, "cos": jet_cos}
    funcs["abs"] = jet_abs

    def divide(a, b, errors):
        return a * jet_reciprocal(b, errors=errors)

    def walk(node):
        if isinstance(node, Num):
            return Jet.constant(node.value, r.shape, degree)
        if isinstance(node, Var):
            return Jet.variable(node.name, r if node.name == "r" else s, degree)
        if isinstance(node, Neg):
            return -walk(node.arg)
        if isinstance(node, Call):
            return _named(node, errors, funcs[node.func], walk(node.arg))
        a, b = walk(node.left), node.right
        lit, sign = (b.arg, -1) if isinstance(b, Neg) else (b, 1)
        if node.op == "^" and isinstance(lit, Num) and abs(lit.value) <= 1024:
            if lit.value % 1 == 0:
                return _named(node, errors, jet_ipow, a, sign * int(lit.value))
        b = walk(b)
        ring = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b}
        if node.op in ring:
            return ring[node.op]()
        return _named(node, errors, divide if node.op == "/" else jet_pow, a, b)

    with np.errstate(all="ignore"):
        out = walk(e)
        fail_where(
            ~np.isfinite(out.c.reshape(len(out.c) ** 2, -1)).all(axis=0),
            errors,
            lambda: DomainError(f"non-finite jet coefficient in {to_string(e)}"),
        )
    return out, errors


def error_list(errors):
    """The errors in insertion order, by key, type, message and cause."""
    return [
        (k, type(exc), str(exc), type(exc.__cause__), str(exc.__cause__))
        for k, exc in errors.items()
    ]


def count_products(monkeypatch):
    """Count Jet x Jet products from here on; returns the one-entry counter."""
    counter, product = [0], Jet.__mul__

    def counting(x, y):
        counter[0] += isinstance(y, Jet)
        return product(x, y)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    return counter


def test_flat_phi_tape_shares_its_repeated_subtree(monkeypatch):
    # the tree walk makes 27 products; sqrt(r^2-s^2) runs once, 2*s and
    # the numerator of 1/r^5 take the float-operand route
    e, r, s = parse(EX45), GRID_R, GRID_S
    products = count_products(monkeypatch)
    tape = eval_jet(e, r, s)
    assert products[0] <= 20
    products[0] = 0
    walked, _ = tree_walk(e, r, s)
    assert products[0] == 27
    assert same_bits(tape, walked)


# Repeated subtrees that fail at some points, literal divisors whose
# reciprocal jet fails (0, 1e-70) or overflows in its degree-4 seed (1e-63),
# literal operands beside literals, and negated literals and variables
# (zero signs); on a grid with s = 0, s < 0 and s > 0.
TAPE_CASES = [
    EX45,
    FLAT_P,
    FLAT_Q,
    BASIS_COMBINATION,
    "sqrt(s) + sqrt(s)",
    "ln(s) * ln(s) + sqrt(s) * (2 - ln(s))",
    "s/0 + r",
    "s/1e-70 + r",
    "(r + s)/1e-63",
    "s/1e309 + r",
    "1/(1e-63 + s^2)",
    "s/4 + s*0.25 + (s/4)/(r - 1.2)",
    "1/2*s + 2*3*s + (0 - 1)*0 + 2^(1e309 - 1e309)*0 + 1/1e-63",
    "-2*s + s*(-0) - (-0) + (-0)*s + 0*(-s) + (-s)*0",
    "-s - (-r) + s - 0 + (0 - s) - (-s)*(-0)",
    "-s - (-0)",
    "(-0) - s",
    "s^2 + s^-2 + (s + 2)^0.5 + 2^s + (r + s)^(2 + 0*r) + s^0",
    "abs(s) + exp(-s)/sin(r + s) + cos(s)^3",
    "(1 + s)^r + sqrt(r^2 - s^2)/sqrt(r^2 - s^2)",
    "sin(1e308*10) + s",
]


def signed_zero_tree():
    """-(0*s) + (-0.0): a literal -0.0, which parse never makes, after a
    literal 0.0; the root's value is -0.0 + -0.0 = -0.0 at every point."""
    from finslerlab.expr import BinOp, Neg, Num, Var

    return BinOp("+", Neg(BinOp("*", Num(0.0), Var("s"))), Num(-0.0))


@pytest.mark.parametrize("degree", [4, 2])
@pytest.mark.parametrize("text", [*TAPE_CASES, None])
def test_tape_matches_the_tree_walk_bit_for_bit(text, degree):
    # the same errors, in the same order with the same causes, and at every
    # point that did not fail the same bits
    e, r, s = parse(text) if text else signed_zero_tree(), GRID_R, GRID_S
    errors = {}
    tape = eval_jet(e, r, s, degree=degree, errors=errors)
    walked, walked_errors = tree_walk(e, r, s, degree)
    assert error_list(errors) == error_list(walked_errors)
    live = [k for k in range(len(r)) if k not in errors]
    assert tape.c.shape == walked.c.shape == (degree + 1, degree + 1, len(r))
    assert tape.c[..., live].tobytes() == walked.c[..., live].tobytes()


def test_literal_divisors_keep_their_errors():
    # x / 0 and x / 1e-70 fail in the reciprocal of the literal at every
    # point; x / 1e-63 overflows only in the degree-4 seed 24/c^5
    for text, degree, reason in [
        ("s/0", 4, "division by a jet with zero value in (s / 0)"),
        ("s/1e-70", 2, "reciprocal of jet value 1e-70 is out of float range in (s / 1e-70)"),
        ("s/1e-63", 4, "non-finite jet coefficient in (s / 1e-63)"),
    ]:
        errors = {}
        eval_jet(parse(text), GRID_R, GRID_S, degree=degree, errors=errors)
        assert sorted(errors) == list(range(len(GRID_R)))
        assert {str(exc) for exc in errors.values()} == {reason}
    errors = {}
    out = eval_jet(parse("s/1e-63"), GRID_R, GRID_S, degree=2, errors=errors)
    assert not errors and (out.partial(0, 1) == 1 / 1e-63).all()


# the literal divisors of test_literal_divisor_folds_to_the_reciprocal_jets_value:
# ordinary ones, 0, a fifth power out of float range (5e-324, 1e62, 1e300), ones
# whose degree-3 or degree-4 seed overflows (+-1e-62, 1e-64), and non-finite ones
LITERAL_DIVISORS = [10.0, 3.0, -3.0, 0.0, 1e-62, -1e-62, 1e-64, 5e-324, 1e62, 1e300,
                    math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("c", LITERAL_DIVISORS)
def test_literal_divisor_folds_to_the_reciprocal_jets_value(c, degree):
    # the tape compiles x / c to x * (1/c) where the jet of 1/c at the degree
    # records no error, with that jet's value bit for bit (NaN where a seed
    # overflows); where it fails, x / c divides by the jet at every point
    from finslerlab.expr import BinOp, Num, Var
    from finslerlab.jet import _divide, _Tape

    e = BinOp("/", Var("s"), Num(c))
    with np.errstate(all="ignore"):
        reference = jet_reciprocal(Jet.constant(c, (), degree), errors=(failed := {}))
        tape = _Tape(e, GRID_R, GRID_S, degree)
    literals = [v for v in tape.values if type(v) is float]
    if failed:
        assert literals == [] and [op[1] for op in tape.ops] == [_divide]
    else:
        assert [np.float64(v).tobytes() for v in literals] == [reference.c[0, 0].tobytes()]
        assert math.isnan(literals[0]) == (degree == 4 and abs(c) < 1e-60 or not math.isfinite(c))
    if math.isnan(c):  # to_string, which names the failure, prints no NaN literal
        return
    with np.errstate(all="ignore"):
        out = eval_jet(e, GRID_R, GRID_S, degree=degree, errors=(errors := {}))
        walked, walked_errors = tree_walk(e, GRID_R, GRID_S, degree)
    assert error_list(errors) == error_list(walked_errors)
    live = [k for k in range(len(GRID_R)) if k not in errors]
    assert out.c[..., live].tobytes() == walked.c[..., live].tobytes()


# expressions in s, at r = 1 and the s of VALUES, for the operations of
# test_degree_2_block_depends_only_on_degree_2_inputs
TRUNCATION_EXPRESSIONS = {
    "mul": "s*(r + s)",
    "add": "s + (r*s + 1)",
    "sub": "s - (r*s + 1)",
    "neg": "-s",
    "float operands": "(2.5*s - 0.5)*(1.0 - s/4.0 + 3) + 0.0*s",
    "reciprocal": "1/s",
    "float over jet": "2/s",
    "sqrt": "sqrt(s)",
    "exp": "exp(s)",
    "ln": "ln(s)",
    "sin": "sin(s)",
    "cos": "cos(s)",
    "abs": "abs(s)",
    "ipow 3": "s^3",
    "ipow -3": "s^-3",
    "ipow 0": "s^0",
    "pow, both routes": "s^(2 + 0*r) + s^(r*0.5)",
}


@pytest.mark.parametrize("name", sorted(TRUNCATION_EXPRESSIONS))
def test_degree_2_tape_is_the_degree_4_tape_cut(name):
    e, r, s = parse(TRUNCATION_EXPRESSIONS[name]), np.ones(len(VALUES)), np.array(VALUES)
    full_errors, cut_errors = {}, {}
    full = eval_jet(e, r, s, errors=full_errors)
    cut = eval_jet(e, r, s, degree=2, errors=cut_errors)
    assert error_list(cut_errors) == error_list(full_errors)
    live = [k for k in range(len(VALUES)) if k not in full_errors]
    assert cut.c.shape == (3, 3, len(VALUES)) and high_order_is_zero(Jet(cut.c[..., live]))
    assert low_block(cut, live) == low_block(full, live)


def test_product_index_cache_keeps_at_most_8_mib():
    # the oldest cached product indices leave once the cache holds more than
    # 8 MiB, the newest entry always stays, and products keep the bits of the
    # reference loop whatever the cache held
    from finslerlab.jet import _MUL_INDEX

    rng = np.random.default_rng(3)
    high = np.add.outer(range(5), range(5)) > 4
    for columns in (300, 3000, 5000, 300):  # 0.5, 5.0, 8.4 and 0.5 MB of indices
        x, y = rng.normal(size=(2, 5, 5, columns)) * 10.0 ** rng.integers(-3, 4, (2, 5, 5, columns))
        x[rng.random(x.shape) < 0.2], y[rng.random(y.shape) < 0.2] = -0.0, 0.0
        x[high], y[high] = 0.0, 0.0
        product = (Jet(x) * Jet(y)).c
        assert (5, x.size) in _MUL_INDEX
        held = sum(3 * index[0].nbytes for index in _MUL_INDEX.values())
        assert held <= 8 << 20 or len(_MUL_INDEX) == 1
        for k in (0, columns // 2, columns - 1):
            assert product[:, :, k].tobytes() == cauchy_reference(x[:, :, k], y[:, :, k]).tobytes()
            assert product[:, :, k].tobytes() == (Jet(x[:, :, k]) * Jet(y[:, :, k])).c.tobytes()


@pytest.mark.parametrize("degree", [0, -1, 5, 2.0])
def test_unsupported_degree_is_a_value_error(degree):
    # not an IndexError or TypeError from deep inside the jet code, nor a value
    message = re.escape(f"degree must be an integer in 1..4, got {degree!r}")
    for e in (parse("sqrt(s)"), parse("1/s"), parse("s*s")):
        with pytest.raises(ValueError, match=message):
            eval_jet(e, 1.0, 0.5, degree=degree)
