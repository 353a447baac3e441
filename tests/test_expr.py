"""Tokenizer, parser, compiler and reference interpreter for arithmetic
and predicate expressions."""

import copy
import math
import os
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maptmc import codegen, expr, mc
from maptmc.errors import (DivisionByZero, Overflow, ParseError, PredicateError,
                           UnknownReference)
from maptmc.model import dumps_model, loads_model, model_from_dict, model_to_dict
from maptmc.semantics import Kernel, State


def ev(text, **values):
    return expr.eval_arith(expr.parse_arith(text), values)


def kernel_number(value):
    """Is value a number in kernel form: an int, or a (numerator,
    denominator) pair of coprime ints with the denominator above 1?"""
    if type(value) is int:
        return True
    return (type(value) is tuple and len(value) == 2
            and all(type(part) is int for part in value)
            and value[1] > 1 and math.gcd(*value) == 1)


def kernel_args(values):
    return tuple(map(expr.to_kernel, values))


def fixture_state(m):
    """two_tasks with task_a at a_end, clocks 3 and 0, load 4, count 1."""
    return State(("a_end", "b_start"), (3, 0), (Fraction(4), Fraction(1)))


def state_expr(m, node, boolean=False, final=None):
    """node compiled over the entries of a kernel of m, as a function of
    a State."""
    kernel = Kernel(m, "original")
    read = mc.compile_entry_expr(kernel, node, boolean, final)
    return lambda s: read(kernel.entry(s))


def evb(m, text, final=False):
    """A predicate compiled over two_tasks, read at fixture_state."""
    holds = state_expr(m, expr.parse_predicate(text), True, lambda e: final)
    return holds(fixture_state(m))


def test_tokenize_positions():
    toks = expr.tokenize("a +\n  b1")
    kinds = [(t.kind, t.text, t.line, t.column) for t in toks if t.kind != "EOF"]
    assert kinds == [
        ("NAME", "a", 1, 1),
        ("+", "+", 1, 3),
        ("NAME", "b1", 2, 3),
    ]


def test_tokenize_leads_to_arrow():
    toks = expr.tokenize("p --> q")
    assert [t.kind for t in toks] == ["NAME", "-->", "NAME", "EOF"]


ARITH_CASES = [
    ("1 + 2 * 3", {}, Fraction(7)),
    ("(1 + 2) * 3", {}, Fraction(9)),
    ("2 - 3 - 4", {}, Fraction(-5)),
    ("12 / 8", {}, Fraction(3, 2)),
    ("-x + 5", {"x": Fraction(2)}, Fraction(3)),
    ("--x", {"x": Fraction(2)}, Fraction(2)),
    ("3/4 + 1/4", {}, Fraction(1)),
    ("2.5 * 2", {}, Fraction(5)),
    ("0.1 + 0.2", {}, Fraction(3, 10)),
    ("min(3, x)", {"x": Fraction(4)}, Fraction(3)),
    ("max(3, x)", {"x": Fraction(7)}, Fraction(7)),
    ("min(max(x, 0), 10)", {"x": Fraction(-2)}, Fraction(0)),
    ("ite(x > 0, x, -x)", {"x": Fraction(-3)}, Fraction(3)),
    ("ite(x > 0, x, -x)", {"x": Fraction(3)}, Fraction(3)),
]
# ite under each comparison, with x below, at and above 2
ARITH_CASES += [(f"ite(x {op} 2, 1, 0)", {"x": Fraction(x)}, Fraction(int(x in holds)))
                for op, holds in (("<", (1,)), ("<=", (1, 2)), ("=", (2,)), (">=", (2, 3)),
                                  (">", (3,)))
                for x in (1, 2, 3)]


@pytest.mark.parametrize("text,env,expected", ARITH_CASES)
def test_arith_eval(text, env, expected):
    node = expr.parse_arith(text)
    assert expr.eval_arith(node, env) == expected
    names = sorted(env)
    compiled = codegen.compile_arith(node, {n: i for i, n in enumerate(names)})
    got = compiled(kernel_args(env[n] for n in names))
    assert kernel_number(got)
    assert expr.from_kernel(got) == expected


def test_exact_decimals_stay_fractions():
    # 1.3 must parse to 13/10 exactly, not to the nearest binary float
    assert ev("x + 1.3", x=Fraction(1, 2)) == Fraction(9, 5)


@settings(derandomize=True, max_examples=500)
@given(st.text(alphabet="0123456789.eE+-/ ", max_size=12))
@example("1e65536")
@example("1e70000")
@example("1e999999999")
@example("1e-70000")
@example("0e99999")
@example("1e9999")
@example(" 3/2 ")
@example("1/0")
def test_rational_reads_what_fraction_reads_under_the_cap(text):
    # every text of number characters is read as Fraction reads it, or
    # refused with a ParseError; Fraction itself is asked only where each
    # exponent has at most 4 digits, since it builds 10 ** exponent
    def bits(number):
        return max(part.bit_length() for part in number.as_integer_ratio())

    try:
        value = expr.rational(text, "n")
        assert bits(value) <= expr.MAGNITUDE_BITS
    except ParseError:
        value = None
    if all(len(digits) <= 4 for digits in re.findall(r"[eE][-+]?(\d*)", text)):
        try:
            want = expr.exact(Fraction(text))
        except (ValueError, ZeroDivisionError):
            want = None
        if want is None or bits(want) > expr.MAGNITUDE_BITS:
            assert value is None
        else:
            assert (value, type(value)) == (want, type(want))


def test_whole_literals_are_ints():
    two = expr.parse_arith("2.0")
    assert two == expr.Num(2) and type(two.value) is int
    half = expr.parse_arith("2.5")
    assert type(half.value) is Fraction and half.value == Fraction(5, 2)
    # a tree built through the API is canonical once compiled
    compiled = codegen.compile_arith(expr.Num(Fraction(6, 3)), {})
    assert type(compiled(())) is int
    compiled = codegen.compile_arith(expr.Num(Fraction(-6, 4)), {})
    assert compiled(()) == (-3, 2)


PRED_CASES = [
    ("1 < 2", True),
    ("2 <= 2", True),
    ("3 = 3", True),
    ("!(3 = 3)", False),
    ("2 >= 3", False),
    ("1 < 2 && 2 < 3", True),
    ("1 < 2 && 3 < 2", False),
    ("3 < 2 || 2 < 3", True),
    ("!(1 < 2)", False),
    ("!(1 < 2) || true", True),
    ("false || !false", True),
    # && binds tighter than ||
    ("true || false && false", True),
    ("(true || false) && false", False),
]


@pytest.mark.parametrize("text,expected", PRED_CASES)
def test_predicate_eval(two_tasks, text, expected):
    assert evb(two_tasks, text) is expected


def test_predicate_state_atoms(two_tasks):
    assert evb(two_tasks, "load = 4 && count = 1")
    assert evb(two_tasks, "at(task_a, a_end)")
    assert not evb(two_tasks, "at(task_a, a_start)")
    assert evb(two_tasks, "at(task_b, b_start)")
    assert evb(two_tasks, "clock(task_a) = 3 && clock(task_b) = 0")
    assert evb(two_tasks, "final", final=True)
    assert not evb(two_tasks, "!final", final=True)
    assert not evb(two_tasks, "final")


def test_clock_rejected_outside_predicates(two_tasks):
    with pytest.raises(ParseError):
        expr.parse_arith("clock(task_a) + 1")
    # opt-in flag used by indicator expressions
    node = expr.parse_arith("clock(task_a) / 2 + 1", allow_clock=True)
    value = state_expr(two_tasks, node)(fixture_state(two_tasks))
    assert value == (5, 2)
    assert expr.from_kernel(value) == Fraction(5, 2)


@pytest.mark.parametrize("text", ["clock(task_a) / clock(task_b)", "clock(task_a) / 2"])
def test_clock_division_is_exact(two_tasks, text):
    s = fixture_state(two_tasks)
    s = State(s.localities, (3, 2), s.values)
    read = state_expr(two_tasks, expr.parse_arith(text, allow_clock=True))
    value = read(s)
    assert value == (3, 2)
    assert expr.from_kernel(value) == Fraction(3, 2)
    holds = state_expr(two_tasks, expr.parse_predicate(f"{text} = 3/2"), True,
                       lambda e: False)
    assert holds(s)


def test_clock_division_by_a_zero_clock(two_tasks):
    read = state_expr(
        two_tasks, expr.parse_arith("clock(task_a) / clock(task_b)", allow_clock=True))
    with pytest.raises(DivisionByZero, match="division by zero"):
        read(fixture_state(two_tasks))


STATE_NAME_ERRORS = [
    ("nothing > 1", UnknownReference, "unknown component 'nothing'"),
    ("clock(nobody) > 1", PredicateError, "unknown agent 'nobody' in clock(...)"),
    ("at(nobody, x)", PredicateError, "unknown agent 'nobody' in at(...)"),
    ("at(task_a, b_end)", PredicateError,
     "'b_end' is not a locality of agent 'task_a'"),
    # a branch that is never taken is resolved all the same
    ("true || at(nobody, x)", PredicateError, "unknown agent 'nobody' in at(...)"),
    ("false && ite(load > 0, 1, nothing) = 1", UnknownReference,
     "unknown component 'nothing'"),
]


@pytest.mark.parametrize("text,error,message", STATE_NAME_ERRORS)
def test_state_names_resolved_when_compiled(two_tasks, text, error, message):
    with pytest.raises(error) as err:
        state_expr(two_tasks, expr.parse_predicate(text), True, lambda e: False)
    assert str(err.value) == message


def test_final_refused_without_a_final_test(two_tasks):
    with pytest.raises(PredicateError) as err:
        state_expr(two_tasks, expr.parse_predicate("!final"), True)
    assert str(err.value) == "'final' is not available in an indicator"


PARSE_ERROR_CASES = [
    ("", "arith"),
    ("1 +", "arith"),
    ("(1 + 2", "arith"),
    ("1 ++ 2", "arith"),
    ("min()", "arith"),
    ("min(1, 2, 3)", "arith"),
    ("ite(1, 2, 3)", "arith"),  # condition must be a comparison
    ("EF", "arith"),  # reserved word
    ("true", "arith"),  # boolean literal is not arithmetic
    ("1 < 2 <", "pred"),
    ("x + 1", "pred"),  # bare arithmetic is not a predicate
    ("x && y", "pred"),  # names are not boolean atoms
    ("a --> b", "pred"),  # query-level operator
    ("at(task_a)", "pred"),
    ("3 != 3", "pred"),  # negation wraps predicates, not comparisons
    ("1 @ 2", "arith"),
    ("ite((x > 1), 1, 2)", "arith"),  # the condition is one bare comparison
    ("min(x > 1, 2)", "arith"),
    ("(x > 1) + 1", "pred"),  # a predicate is no operand of arithmetic
    ("-(x > 1)", "arith"),
    ("!x", "pred"),
    ("x = true", "pred"),
    ("1 < 2 < 3", "pred"),  # a comparison is no side of a comparison
]


@pytest.mark.parametrize("text,rendered", [
    ("(x + 1) > 2", "x + 1 > 2"),
    ("((x > 1))", "x > 1"),
    ("!(x > 1) && (y) < 2", "!x > 1 && y < 2"),
    ("!x + 1 > 2", "!x + 1 > 2"),
])
def test_parenthesised_operands_of_either_kind(text, rendered):
    assert expr.to_text(expr.parse_predicate(text)) == rendered
    # after EF the same text starts a predicate, also where its '(' opens
    # the first operand rather than the nested form
    query = mc.parse_query(f"EF {text} || final")
    assert expr.to_text(query.p) == f"{rendered} || final"


@pytest.mark.parametrize("text,kind", PARSE_ERROR_CASES)
def test_parse_errors(text, kind):
    parse = expr.parse_arith if kind == "arith" else expr.parse_predicate
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        expr.parse_arith("1 +\n* 2")
    assert err.value.line == 2
    assert err.value.column == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero) as err:
        ev("1 / (x - 2)", x=Fraction(2))
    assert str(err.value) == "division by zero in '1 / (x - 2)'"


def test_overflow_guard():
    big = Fraction(2) ** 40000
    with pytest.raises(Overflow) as err:
        ev("x * x", x=big)
    assert str(err.value) == "value in x * x exceeds 65536 bits"
    with pytest.raises(Overflow) as err:
        ev("-(x + 1) / 3 - x * x", x=big)
    assert str(err.value) == "value in x * x exceeds 65536 bits"
    # the cap holds for whole values, which are plain ints
    with pytest.raises(Overflow) as err:
        ev("x * x", x=2 ** 40000)
    assert str(err.value) == "value in x * x exceeds 65536 bits"


def test_eval_arith_unknown_component():
    node = expr.parse_arith("y + 1")
    with pytest.raises(PredicateError):
        expr.eval_arith(node, {"x": Fraction(1)})


def test_compile_rejects_wrong_node_kind(two_tasks):
    with pytest.raises(PredicateError) as err:
        state_expr(two_tasks, expr.parse_arith("1 + 1"), True)
    assert str(err.value).startswith("not a boolean node: ")
    with pytest.raises(PredicateError) as err:
        state_expr(two_tasks, expr.parse_predicate("1 < 2"))
    assert str(err.value).startswith("not an arithmetic node: ")
    with pytest.raises(PredicateError) as err:
        expr.eval_arith(expr.parse_predicate("1 < 2"), {})
    assert str(err.value).startswith("not an arithmetic node: ")


def names():
    return st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
        lambda s: s not in expr.RESERVED
    )


def arith_trees():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=50).map(lambda n: expr.Num(Fraction(n))),
        names().map(expr.Ref),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: expr.Bin(t[0], t[1], t[2])
            ),
            children.map(expr.Neg),
            st.tuples(st.sampled_from(("min", "max")), children, children).map(
                lambda t: expr.Call(t[0], (t[1], t[2]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(arith_trees())
def test_to_text_round_trip(tree):
    text = expr.to_text(tree)
    assert expr.parse_arith(text) == tree


@given(st.data())
def test_trees_are_equal_exactly_when_their_texts_are(data):
    # few leaves, so equal trees, and chains one link or one operand
    # apart, are drawn often; 1 and Fraction(1) are one number
    sums = st.recursive(
        st.sampled_from((expr.Num(1), expr.Num(Fraction(1)), expr.Ref("x"))),
        lambda c: st.tuples(st.sampled_from("+*"), c, c).map(lambda t: expr.Bin(*t))
        | c.map(expr.Neg), max_leaves=5)
    conjunctions = st.recursive(
        st.sampled_from((expr.Cmp("<", expr.Ref("x"), expr.Num(1)), expr.FinalTest())),
        lambda c: st.tuples(st.sampled_from(("&&", "||")), c, c).map(lambda t: expr.BoolBin(*t))
        | c.map(expr.Not), max_leaves=5)
    trees = data.draw(st.sampled_from((sums, conjunctions)))
    a, b = data.draw(trees), data.draw(trees)
    assert (a == b) == (expr.to_text(a) == expr.to_text(b))
    if a == b:
        assert hash(a) == hash(b)


COMPONENTS = ("a", "b", "c")
HUGE = Fraction(2) ** 40000


def small_fractions():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


def transform_trees():
    """Every node kind a transform can hold."""
    leaves = st.one_of(
        small_fractions().map(expr.Num),
        st.sampled_from(COMPONENTS).map(expr.Ref),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: expr.Bin(t[0], t[1], t[2])
            ),
            children.map(expr.Neg),
            st.tuples(st.sampled_from(("min", "max")), children, children).map(
                lambda t: expr.Call(t[0], (t[1], t[2]))
            ),
            st.tuples(st.sampled_from(("<", "<=", "=", ">=", ">")),
                      children, children, children, children).map(
                lambda t: expr.Ite(expr.Cmp(t[0], t[1], t[2]), t[3], t[4])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def outcome(evaluate):
    try:
        return ("value", evaluate())
    except (DivisionByZero, Overflow) as e:
        return (type(e), str(e))


@example(expr.parse_arith("a / (b - b)"), (Fraction(1), Fraction(2), Fraction(0)), False)
@example(expr.parse_arith("a / 0 / (b / 0)"), (Fraction(1), Fraction(2), Fraction(0)), False)
@example(expr.parse_arith("-(a * 2) + c * c"), (Fraction(1), Fraction(0), Fraction(0)), True)
# a negative divisor moves its sign to the numerator
@example(expr.parse_arith("a / (0 - 3)"), (Fraction(1, 2), Fraction(0), Fraction(0)), False)
@example(expr.parse_arith("b / (c - 2) - a / (0 - 3)"),
         (Fraction(1, 2), Fraction(-5, 4), Fraction(1)), False)
# = between a whole and a non-whole value, and between a pair product
# that is whole and an int
@example(expr.parse_arith("ite(a = b, 1, ite(a = b * 2, 2, 3))"),
         (Fraction(1), Fraction(1, 2), Fraction(0)), False)
@example(expr.parse_arith("min(-b, -a) + max(a, -c / 3)"),
         (Fraction(-3, 2), Fraction(2), Fraction(7, 4)), False)
# a pair whose product outgrows the cap
@example(expr.parse_arith("(c + 1 / 3) * (c - 1 / 3)"),
         (Fraction(0), Fraction(0), Fraction(0)), True)
# a division by zero and an overflow inside a chain, each named by the
# link that raised it
@example(expr.parse_arith("a * 2 / (b - b) * 3"), (Fraction(1), Fraction(2), Fraction(0)), False)
@example(expr.parse_arith("c * 2 * c * 3 - a"), (Fraction(1), Fraction(2), Fraction(0)), True)
@given(transform_trees(), st.tuples(small_fractions(), small_fractions(),
                                    small_fractions()), st.booleans())
def test_compile_arith_matches_eval_arith(tree, values, huge):
    # zeros reach DivisionByZero, and a product of HUGE with itself Overflow;
    # HUGE is set here because its repr exceeds Python's int-to-text limit
    if huge:
        values = values[:2] + (HUGE,)
    # component values are canonical, as in every state
    values = tuple(map(expr.exact, values))
    env = dict(zip(COMPONENTS, values))
    compiled = codegen.compile_arith(tree, {n: i for i, n in enumerate(COMPONENTS)})
    # the compiled function computes in kernel form, eval_arith over Fractions
    kernel_got = outcome(lambda: compiled(kernel_args(values)))
    got = kernel_got
    if got[0] == "value":
        got = ("value", expr.from_kernel(got[1]))
    assert got == outcome(lambda: expr.eval_arith(tree, env))
    if got[0] == "value":
        reference = expr.eval_arith(tree, env)
        assert type(got[1]) is type(reference)
        assert type(reference) is (int if reference.denominator == 1 else Fraction)
        assert kernel_number(kernel_got[1])
        assert kernel_got[1] == expr.to_kernel(reference)


@pytest.mark.parametrize("text", ["y + 1", "clock(task_a) + 1"])
def test_compile_arith_refuses_non_transform_nodes(text):
    with pytest.raises(PredicateError):
        codegen.compile_arith(expr.parse_arith(text, allow_clock=True), {"x": 0})


PRED_ROUND_TRIP = [
    "x + 13/10 < y * 2",
    "!(a <= b) && (c = 0 || final)",
    "at(task_a, a_end) || clock(task_b) >= 4",
    "ite(x > 0, x, -x) = 3",
    "true && !(false || x < 1)",
]


@pytest.mark.parametrize("text", PRED_ROUND_TRIP)
def test_predicate_to_text_round_trip(text):
    tree = expr.parse_predicate(text)
    assert expr.parse_predicate(expr.to_text(tree)) == tree


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
def test_min_max_agree_with_python(a, b):
    got = ev("min(a, b) + max(a, b)", a=a, b=b)
    assert got == a + b


@given(st.lists(st.tuples(small_fractions(), small_fractions()), max_size=12))
def test_kernel_numbers_sort_as_fractions(rows):
    # pairs and ints do not compare, so kernel numbers sort on from_kernel:
    # alone and in tuples, as layers.clusters and sweep sort them, in the
    # order their Fractions sort, equal numbers keeping their places
    kernel = [tuple(map(expr.to_kernel, row)) for row in rows]
    assert all(kernel_number(v) for row in kernel for v in row)
    positions = range(len(rows))
    assert (sorted(positions, key=lambda i: expr.from_kernel(kernel[i][0]))
            == sorted(positions, key=lambda i: rows[i][0]))
    assert (sorted(positions, key=lambda i: tuple(map(expr.from_kernel, kernel[i])))
            == sorted(positions, key=lambda i: rows[i]))


def test_refs():
    node = expr.parse_predicate("x + clock(task_a) < y && at(task_b, b_end)")
    assert expr.refs(node) == {"x", "y"}


def test_parser_caps_nesting():
    # 200 levels parse; one more is a ParseError at the opener that passes
    # the cap, not a RecursionError, whatever opens the levels
    deep = "(" * 200 + "x >= 1" + ")" * 200
    assert expr.parse_predicate(deep) == expr.parse_predicate("x >= 1")
    too_deep = [
        (expr.parse_predicate, "(" * 201 + "x >= 1" + ")" * 201, 201),
        (expr.parse_arith, "(" * 300 + "x" + ")" * 300, 201),
        (expr.parse_arith, "-" * 201 + "x", 201),
        (expr.parse_predicate, "!" * 201 + "x > 1", 201),
        (expr.parse_arith, "min(x, " * 201 + "x" + ")" * 201, 7 * 200 + 1),
        (expr.parse_arith, "ite(" * 101 + "x" + " > 0, 1, 2)" * 101, 4 * 100 + 1),
        (expr.parse_predicate, "x > 1 && (" * 201 + "x > 1" + ")" * 201, 10 * 200 + 10),
    ]
    for parse, text, column in too_deep:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == (f"expression nested more than {expr.MAX_NESTING} "
                                  f"levels deep (line 1, column {column})")
    # a query backtracks from its nested form and meets the cap all the same
    for text in ("EF " + "(" * 300 + "x >= 1" + ")" * 300,
                 "EF (" + "(" * 300 + "x >= 1" + ")" * 300 + " && EF x > 1)"):
        with pytest.raises(ParseError, match="nested more than 200 levels deep"):
            mc.parse_query(text)


def test_backtracking_restores_the_nesting_depth():
    # a parenthesis opens a level only until its ')': 150 of these
    # operands in a row open 300 levels, at most 2 of them at once, and
    # would pass the cap if a closed level stayed open
    text = " && ".join(["((x >= 1) && y < 2)"] * 150)
    node = expr.parse_predicate(text)
    assert expr.parse_predicate(expr.to_text(node)) == node


def test_parser_reads_each_token_once(monkeypatch):
    # precedence climbing never backtracks: a parenthesised predicate 200
    # deep, or 150 operands that each open one, read each token once
    reads = []
    read = expr.Parser.next

    def counted(parser):
        reads.append(parser.pos)
        return read(parser)

    monkeypatch.setattr(expr.Parser, "next", counted)
    for text in (" && ".join(["((x >= 1) && y < 2)"] * 150),
                 "(" * 200 + "x >= 1" + ")" * 200):
        reads.clear()
        expr.parse_predicate(text)
        assert reads == list(range(len(expr.tokenize(text))))


def test_long_trees_compare_and_hash_in_a_loop(two_tasks):
    # a sum or a conjunction as deep as it is long down its left side
    # compares, hashes, prints, pickles and copies without recursing down
    # that side
    data = model_to_dict(two_tasks)
    data["transforms"]["halve"]["load"] = "load / 2" + " + 1 - 1" * 750
    m = model_from_dict(data)
    assert loads_model(dumps_model(m)) == m
    effect = expr.parse_arith("load / 2" + " + 1 - 1" * 750)
    assert hash(effect) == hash(expr.parse_arith(expr.to_text(effect)))
    assert effect != expr.parse_arith("load / 3" + " + 1 - 1" * 750)
    text = "EF (" + " && ".join(["load > 1"] * 1500) + ")"
    assert hash(mc.parse_query(text)) == hash(mc.parse_query(text))
    assert mc.parse_query(text) != mc.parse_query(text.replace("(load > 1", "(load > 2"))
    for tree in (m, mc.parse_query(text)):
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree
        assert repr(tree)
    # 1501 in the long effect, 5 in the other transforms
    assert repr(m).count("Bin(") == 1506
    # the repr is the dataclasses' own
    assert repr(expr.parse_predicate("x - 1 / 2 > 0 && !final || true")) == (
        "BoolBin(op='||', left=BoolBin(op='&&', left=Cmp(op='>', left=Bin(op='-', "
        "left=Ref(name='x'), right=Bin(op='/', left=Num(value=1), right=Num(value=2))), "
        "right=Num(value=0)), right=Not(operand=FinalTest())), right=BoolLit(value=True))")


# two_tasks' agents and their localities, and its components
AGENTS = {"task_a": ("a_start", "a_end"), "task_b": ("b_start", "b_end")}
LOAD_COUNT = ("load", "count")


def entry_trees():
    """(tree, boolean) pairs over two_tasks: indicators and predicates of
    every node kind a check or a sweep compiles, conditions of ite
    included."""
    numbers = st.one_of(
        small_fractions().map(expr.Num),
        st.sampled_from(LOAD_COUNT).map(expr.Ref),
        st.sampled_from(sorted(AGENTS)).map(expr.ClockRef),
    )
    truths = st.one_of(
        st.booleans().map(expr.BoolLit),
        st.just(expr.FinalTest()),
        st.sampled_from([expr.At(a, loc) for a, locs in sorted(AGENTS.items())
                         for loc in locs]),
    )
    arith = st.deferred(lambda: st.one_of(
        numbers,
        st.tuples(st.sampled_from("+-*/"), arith, arith).map(
            lambda t: expr.Bin(t[0], t[1], t[2])),
        arith.map(expr.Neg),
        st.tuples(st.sampled_from(("min", "max")), arith, arith).map(
            lambda t: expr.Call(t[0], (t[1], t[2]))),
        st.tuples(pred, arith, arith).map(lambda t: expr.Ite(*t)),
    ))
    pred = st.deferred(lambda: st.one_of(
        truths,
        st.tuples(st.sampled_from(("<", "<=", "=", ">=", ">")), arith, arith).map(
            lambda t: expr.Cmp(t[0], t[1], t[2])),
        pred.map(expr.Not),
        st.tuples(st.sampled_from(("&&", "||")), pred, pred).map(
            lambda t: expr.BoolBin(t[0], t[1], t[2])),
    ))
    return st.one_of(arith.map(lambda n: (n, False)), pred.map(lambda n: (n, True)))


def reference(node, state, final):
    """A plain recursive reading of node at a State of two_tasks, with the
    messages of the compiled checks."""
    def read(node):
        if isinstance(node, expr.Num):
            return node.value
        if isinstance(node, expr.Ref):
            return state.values[LOAD_COUNT.index(node.name)]
        if isinstance(node, expr.ClockRef):
            return state.clocks[sorted(AGENTS).index(node.agent)]
        if isinstance(node, expr.At):
            return state.localities[sorted(AGENTS).index(node.agent)] == node.locality
        if isinstance(node, expr.FinalTest):
            return final
        if isinstance(node, expr.BoolLit):
            return node.value
        if isinstance(node, expr.Neg):
            return -read(node.operand)
        if isinstance(node, expr.Not):
            return not read(node.operand)
        if isinstance(node, expr.Bin):
            left, right = Fraction(read(node.left)), Fraction(read(node.right))
            if node.op == "/":
                if right == 0:
                    raise DivisionByZero(f"division by zero in {expr.to_text(node)!r}")
                value = left / right
            else:
                value = {"+": left + right, "-": left - right,
                         "*": left * right}[node.op]
            if max(value.numerator.bit_length(),
                   value.denominator.bit_length()) > 1 << 16:
                raise Overflow(f"value in {expr.to_text(node)} exceeds 65536 bits")
            return int(value) if value.denominator == 1 else value
        if isinstance(node, expr.Cmp):
            left, right = read(node.left), read(node.right)
            return {"<": left < right, "<=": left <= right, "=": left == right,
                    ">=": left >= right, ">": left > right}[node.op]
        if isinstance(node, expr.BoolBin):
            if node.op == "&&":
                return read(node.left) and read(node.right)
            return read(node.left) or read(node.right)
        if isinstance(node, expr.Call):
            args = [read(arg) for arg in node.args]
            return min(args) if node.fn == "min" else max(args)
        if isinstance(node, expr.Ite):
            return read(node.then) if read(node.cond) else read(node.orelse)
        raise AssertionError(node)

    return read(node)


SHORT_CIRCUITS = [
    (expr.parse_predicate("false && 1 / 0 > 0"), True),
    (expr.parse_predicate("true || 1 / 0 > 0"), True),
    (expr.parse_arith("ite(count = 0, 0, 1 / count)"), False),
    (expr.parse_arith("ite(count > 0, 1 / count, 0)", allow_clock=True), False),
]


@pytest.fixture(scope="module")
def kernel(two_tasks):
    return Kernel(two_tasks, "original")


@example(SHORT_CIRCUITS[0], ("a_end", "b_start"), (3, 0), (0, 0), False, False)
@example(SHORT_CIRCUITS[1], ("a_end", "b_start"), (3, 0), (0, 0), False, False)
@example(SHORT_CIRCUITS[2], ("a_end", "b_start"), (3, 0), (0, 0), False, False)
@example(SHORT_CIRCUITS[3], ("a_end", "b_start"), (3, 0), (0, 0), False, False)
@example((expr.parse_arith("count * count", allow_clock=True), False),
         ("a_end", "b_start"), (3, 0), (0, 0), False, True)
@example((expr.parse_arith("clock(task_a) / clock(task_b)", allow_clock=True), False),
         ("a_end", "b_start"), (3, 0), (0, 0), False, False)
@given(entry_trees(),
       st.tuples(*(st.sampled_from(locs) for _, locs in sorted(AGENTS.items()))),
       st.tuples(st.integers(0, 6), st.integers(0, 6)),
       st.tuples(small_fractions(), small_fractions()), st.booleans(), st.booleans())
def test_compile_entry_expr_matches_reference(kernel, tree, localities, clocks,
                                              values, final, huge):
    node, boolean = tree
    # component values are canonical, as in every state; HUGE squared
    # overflows
    values = tuple(map(expr.exact, values[:1] + ((HUGE,) if huge else values[1:])))
    state = State(localities, clocks, values)
    read = mc.compile_entry_expr(kernel, node, boolean, lambda e: final)
    got = outcome(lambda: read(kernel.entry(state)))
    if got[0] == "value":
        if boolean:
            assert type(got[1]) is bool
        else:
            assert kernel_number(got[1])
        got = ("value", expr.from_kernel(got[1]))
    assert got == outcome(lambda: reference(node, state, final))


# a sum of 900 terms, x + 1 in all; x + 150 nested 150 deep on the right
SUM_900 = "x" + " + 1 - 1" * 449 + " + 1"
RIGHT_150 = "x + (" + "1 + (" * 149 + "1" + ")" * 150


@pytest.mark.parametrize("text,gain", [(SUM_900, 1), (RIGHT_150, 150)])
def test_long_and_deep_transforms_compile(text, gain):
    node = expr.parse_arith(text)
    compiled = codegen.compile_arith(node, {"x": 0})
    apply = codegen.compile_transform({"x": node}, {"w": 1, "x": 0})
    for x in (0, 7, Fraction(1, 3), Fraction(-5, 2)):
        value = compiled((expr.to_kernel(x),))
        assert expr.from_kernel(value) == expr.eval_arith(node, {"x": x}) == x + gain
        assert kernel_number(value)
        assert type(value) is type(expr.to_kernel(x))
        assert apply((expr.to_kernel(x), "w")) == (value, "w")


def test_generated_code_is_labelled_for_profiles():
    # each compile makes its own function, named apart, in the file name
    # that profiles count as this module's
    node = expr.parse_arith("x + 1")
    first, second = (codegen.compile_arith(node, {"x": 0}) for _ in range(2))
    assert first.__code__.co_filename == codegen.GENERATED_FILE
    assert os.path.splitext(os.path.basename(codegen.GENERATED_FILE))[0] == "expr"
    assert first.__code__.co_firstlineno != second.__code__.co_firstlineno
    assert first((1,)) == second((1,)) == 2


# 3000 terms down the left side: a sum, and a sum scaled past the
# magnitude cap by a product whose fifth factor overflows before the
# division by zero after it is reached
SUM_3000 = "x" + " + 2 * x - 1" * 1499 + " + 1 / 3"
OVERFLOW_3000 = "(x" + " + 0" * 2999 + ")" + (" * 1" + "0" * 4000) * 5 + " + 1 / (x - x)"


def test_eval_arith_walks_long_chains():
    for text in (SUM_3000, OVERFLOW_3000):
        node = expr.parse_arith(text)
        compiled = codegen.compile_arith(node, {"x": 0})
        for x in (0, 7, Fraction(1, 3), Fraction(-5, 2)):
            got = outcome(lambda: expr.eval_arith(node, {"x": x}))
            assert got == outcome(lambda: expr.from_kernel(compiled((expr.to_kernel(x),))))
            if text is SUM_3000:
                assert got == ("value", x + 1499 * (2 * x - 1) + Fraction(1, 3))
        assert expr.to_text(node) == text
