import itertools
import math
import re

import numpy as np
import pytest

from conftest import sympy_partial
from finslerlab import DomainError, eval_jet, fd_partials, parse
from finslerlab.jet import Jet, jet_cos, jet_exp, jet_ipow, jet_ln, jet_pow, jet_sin, jet_sqrt

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
    ds = j.d_s()
    # d/ds (r^2 s^2) = 2 r^2 s
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
    return all(j.c[a, b] == 0.0 for a in range(5) for b in range(5) if a + b > 4)


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
        dr, ds = np.zeros((5, 5)), np.zeros((5, 5))
        for a in range(4):
            for b in range(4 - a):
                dr[a, b] = j.c[a + 1, b] * (a + 1)
                ds[a, b] = j.c[a, b + 1] * (b + 1)
        assert j.d_r().c.tobytes() == dr.tobytes()
        assert j.d_s().c.tobytes() == ds.tobytes()


def test_high_order_coefficients_stay_zero():
    rng = np.random.default_rng(5)
    x = random_jet(rng)
    x.c[0, 0] = 1.5
    y = random_jet(rng)
    y.c[0, 0] = -0.7
    results = [
        x * y, x * 2.0, 2.0 * x, x + y, x + 1.0, 1.0 - x, x - y, -x, x / y, x / 2.0, 2.0 / x,
        x.d_r(), x.d_s(), jet_sqrt(x), jet_exp(x), jet_ln(x), jet_sin(x), jet_cos(x),
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
