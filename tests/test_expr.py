import math

import pytest
from hypothesis import given, strategies as st

from finslerlab import DomainError, ParseError, eval_jet, eval_value, parse, to_string
from finslerlab.expr import BinOp, Call, Neg, Num, Var


def test_parse_sqrt_example():
    ast = parse("sqrt(1+s^2)")
    assert ast == Call("sqrt", BinOp("+", Num(1.0), BinOp("^", Var("s"), Num(2.0))))


def test_parse_single_variable():
    assert parse("s") == Var("s")
    assert parse("r") == Var("r")


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("r +")
    assert exc.value.offset == 3


def test_empty_input():
    with pytest.raises(ParseError) as exc:
        parse("")
    assert exc.value.offset == 0
    with pytest.raises(ParseError):
        parse("   ")


def test_unknown_identifier():
    with pytest.raises(ParseError) as exc:
        parse("x + 1")
    assert exc.value.offset == 0


def test_unknown_function():
    with pytest.raises(ParseError) as exc:
        parse("1 + tan(s)")
    assert exc.value.offset == 4


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(1 + s")
    with pytest.raises(ParseError):
        parse("1 + s)")
    with pytest.raises(ParseError):
        parse("sqrt(1 + s")


def test_precedence_and_associativity():
    # ^ binds above * and is right-associative
    assert parse("2*s^3") == BinOp("*", Num(2.0), BinOp("^", Var("s"), Num(3.0)))
    assert parse("s^2^3") == BinOp("^", Var("s"), BinOp("^", Num(2.0), Num(3.0)))
    # left-assoc chains
    assert parse("1-2-3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    assert parse("r/s/2") == BinOp("/", BinOp("/", Var("r"), Var("s")), Num(2.0))


def test_unary_minus_binds_atom():
    # per the grammar, -s^2 is (-s)^2
    assert parse("-s^2") == BinOp("^", Neg(Var("s")), Num(2.0))


def test_eval_value_basics():
    assert eval_value(parse("r^2 + 3*s"), 2.0, 1.0) == 7.0
    assert eval_value(parse("sqrt(r^2-s^2)"), 1.0, 0.6) == pytest.approx(0.8)
    assert eval_value(parse("exp(0*r)"), 5.0, 5.0) == 1.0
    assert eval_value(parse("ln(r)"), math.e, 0.0) == pytest.approx(1.0)
    assert eval_value(parse("abs(s)"), 0.0, -2.5) == 2.5


_numbers = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.floats(min_value=0.001, max_value=1000.0, allow_nan=False, allow_infinity=False),
)

_ast = st.recursive(
    st.one_of(_numbers.map(Num), st.sampled_from([Var("r"), Var("s")])),
    lambda children: st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(["sqrt", "exp", "ln", "sin", "cos", "abs"]), children),
    ),
    max_leaves=25,
)


@given(_ast)
def test_print_parse_round_trip(ast):
    assert parse(to_string(ast)) == ast


def test_infinite_number_prints_and_parses_back():
    inf = float("inf")
    assert to_string(Num(inf)) == "1e309"
    assert parse(to_string(Num(inf))) == Num(inf)
    assert parse(to_string(Num(-inf))) == Neg(Num(inf))


def test_domain_error_names_an_expression_with_an_infinite_number():
    e = parse("sqrt(s - 1e309)+1")
    with pytest.raises(DomainError, match=r"in sqrt\(\(s - 1e309\)\)"):
        eval_jet(e, 1.0, 0.2)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 101 + "s" + ")" * 101, 100),  # the 101st parenthesis
        ("(" * 100 + "2+s" + ")" * 100, 101),  # its sum, inside 100
        ("s+" * 101 + "3", 201),  # the 101st plus
        ("s*" * 101 + "3", 201),
        ("-(" * 51 + "s" + ")" * 51, 100),  # a minus and a parenthesis per level
        ("^".join(["s"] * 102), 201),  # the 101st exponent
        ("exp(" * 101 + "s" + ")" * 101, 400),
    ],
)
def test_nesting_deeper_than_max_depth_is_a_parse_error(text, offset):
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text",
    [
        "(" * 99 + "2+s" + ")" * 99,
        "s+" * 100 + "3",
        "s" + "/2" * 100,
        "-(" * 50 + "s" + ")" * 50,
        "^".join(["s"] * 101),
        "sin(" * 100 + "s" + ")" * 100,
    ],
)
def test_nesting_at_max_depth_is_read_everywhere(text):
    # parse, print, evaluate and compile stay inside the recursion limit at the bound
    e = parse(text)
    to_string(e)
    eval_value(e, 1.0, 0.3)
    eval_jet(e, 1.0, 0.3, errors={})


def test_printed_text_parses_back_up_to_half_the_bound():
    # to_string parenthesizes every level, so its text nests up to twice as deep
    e = parse("s+" * 50 + "3")
    assert parse(to_string(e)) == e
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse(to_string(parse("s+" * 51 + "3")))
