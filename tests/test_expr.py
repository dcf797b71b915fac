import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import eval_value

from finslerlab import DomainError, ParseError, eval_jet, parse, to_string
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


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("1+$", "unexpected character '$'", 2),
        ("1+ $", "unexpected character '$'", 3),
        ("1+)", "unexpected token ')'", 2),
        # the text is ASCII, as sympy reads it: no other digits, and no other blanks
        ("\u0663+s", "unexpected character '\u0663'", 0),  # an Arabic-Indic three
        ("\uff11+s", "unexpected character '\uff11'", 0),  # a fullwidth one
        ("1+\x1cs", "unexpected character '\\x1c'", 2),  # a file separator
        ("1+\x85s", "unexpected character '\\x85'", 2),  # a next-line character
    ],
)
def test_stray_character_and_token_name_their_offset(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (at offset {offset})"
    assert exc.value.offset == offset


def test_tab_and_newline_are_blanks():
    assert parse("1+\ts") == parse("1\n+ s\r\n") == BinOp("+", Num(1.0), Var("s"))


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


def test_unary_minus_binds_below_power():
    # as in Python and sympy, -s^2 is -(s^2): ^ binds tighter than a unary minus, which
    # binds tighter than * and /, and an exponent may carry its own sign
    s, r, two = Var("s"), Var("r"), Num(2.0)
    assert parse("-s^2") == Neg(BinOp("^", s, two))
    assert parse("exp(-r^2)") == Call("exp", Neg(BinOp("^", r, two)))
    assert parse("-2^2") == Neg(BinOp("^", two, two))
    assert parse("--s") == Neg(Neg(s))
    assert parse("r^-2") == BinOp("^", r, Neg(two))
    assert parse("(2+s)^-3") == BinOp("^", BinOp("+", two, s), Neg(Num(3.0)))
    assert parse("-s*2") == BinOp("*", Neg(s), two)
    assert parse("-s/r^2") == BinOp("/", Neg(s), BinOp("^", r, two))
    assert parse("2^-3^2") == BinOp("^", two, Neg(BinOp("^", Num(3.0), two)))


@pytest.mark.parametrize("text, r, s", [
    ("-s^2", 1.0, 0.5), ("exp(-r^2)", 1.5, 0.0), ("-2^2", 1.0, 0.0), ("--s", 1.0, 0.3),
    ("r^-2", 2.0, 0.0), ("(2+s)^-3", 1.0, 0.5), ("-s/r^2", 2.0, 0.5), ("2^-3^2", 1.0, 0.0),
])
def test_signed_powers_evaluate_as_python_reads_them(text, r, s):
    python = eval(text.replace("^", "**"), {"exp": math.exp, "r": r, "s": s})
    assert eval_value(parse(text), r, s) == pytest.approx(python, rel=1e-15)


def test_eval_value_basics():
    assert eval_value(parse("r^2 + 3*s"), 2.0, 1.0) == 7.0
    assert eval_value(parse("sqrt(r^2-s^2)"), 1.0, 0.6) == pytest.approx(0.8)
    assert eval_value(parse("exp(0*r)"), 5.0, 5.0) == 1.0
    assert eval_value(parse("ln(r)"), math.e, 0.0) == pytest.approx(1.0)
    assert eval_value(parse("abs(s)"), 0.0, -2.5) == 2.5


@pytest.mark.parametrize(
    "text", ["s/0", "(-1)^0.5", "exp(1000)", "sqrt(-1)", "ln(0)", "10^400", "s^0.5"]
)
def test_eval_value_domain_errors_name_the_node(text):
    # the oracle and the jet engine both reject the point
    e = parse(text)
    with pytest.raises(DomainError) as info:
        eval_value(e, 1.0, -0.3)
    assert to_string(e) in str(info.value)
    errors = {}
    eval_jet(e, 1.0, -0.3, errors=errors)
    assert list(errors) == [0]


def test_eval_value_rejects_a_non_node():
    with pytest.raises(TypeError, match="not an expression node"):
        eval_value("s", 1.0, 0.3)


def test_printer_and_tape_reject_what_is_not_a_tree():
    with pytest.raises(TypeError, match="^not an expression node: 's'$"):
        to_string("s")
    with pytest.raises(TypeError, match="^not an expression node: 's'$"):
        eval_jet("s", 1.0, 0.5)
    with pytest.raises(TypeError, match="^unknown operator '%'$"):
        eval_jet(BinOp("%", Var("r"), Var("s")), 1.0, 0.5)


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


# the grammar's tokens, some glued to a neighbour, plus characters it has no token for
# and whitespace that only Unicode calls whitespace
_TEXT_PIECES = ["r", "s", "1", "2.5", ".5", "3e2", "1e309", "+", "-", "*", "/", "^", "(",
                ")", "sqrt(", "abs", "x", " ", "$", ".", "\u00e9", "\u0663", "\t", "\n",
                "\u00a0", "\u2003", "\u001c", "\u0085"]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=14).map("".join))
def test_parse_returns_a_printable_tree_or_raises_parse_error(text):
    # 14 pieces nest at most 14 levels, inside the MAX_DEPTH // 2 that printing allows
    try:
        e = parse(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert parse(to_string(e)) == e


def _subtrees(e):
    yield e
    for child in e:
        if isinstance(child, tuple):  # a node; the other fields are str and float
            yield from _subtrees(child)


@given(_ast)
def test_nodes_are_immutable(ast):
    for node in _subtrees(ast):
        with pytest.raises(AttributeError):
            setattr(node, node._fields[0], Num(0.0))


@given(_ast)
def test_equal_trees_compare_and_hash_equal(ast):
    again = parse(to_string(ast))  # a tree equal to ast and built apart from it
    assert again == ast and hash(again) == hash(ast)
    assert {ast: 1}[again] == 1


@given(_ast, _ast)
def test_nodes_of_different_kinds_never_compare_equal(a, b):
    nodes = [*_subtrees(a), *_subtrees(b)]
    for x in nodes:
        for y in nodes:
            if type(x) is not type(y):
                assert x != y


def test_nodes_of_different_kinds_never_compare_equal_examples():
    kinds = [Num(1.0), Var("s"), Neg(Num(1.0)), Neg(Var("s")), Call("sqrt", Var("s")),
             BinOp("+", Num(1.0), Var("s")), BinOp("*", Var("s"), Var("s"))]
    for x in kinds:
        for y in kinds:
            assert (x == y) is (x is y)


def test_node_repr_names_its_fields():
    assert repr(parse("1+s")) == "BinOp(op='+', left=Num(value=1.0), right=Var(name='s'))"
    assert repr(parse("-sqrt(r)")) == "Neg(arg=Call(func='sqrt', arg=Var(name='r')))"


def test_importing_the_cli_generates_no_dataclass():
    # a dataclass decorator compiles its methods with exec at every import: start-up cost
    code = ("import sys; sys.modules.pop('dataclasses', None); import numpy, finslerlab.cli; "
            "print('dataclasses' in sys.modules)")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("rotate, imported", [([], False), (["--rotate"], True)])
def test_only_a_rotated_run_imports_numpy_random(rotate, imported):
    # numpy.random's first import costs milliseconds and megabytes of a fresh process;
    # only --rotate draws from it
    code = ("import sys, finslerlab.cli; "
            f"code = finslerlab.cli.main(['report', '--phi', '1+s', *{rotate!r}]); "
            "print(code, 'numpy.random' in sys.modules, file=sys.stderr)")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"0 {imported}\n"


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
