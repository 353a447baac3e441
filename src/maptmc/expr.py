"""Small expression language used by transforms, predicates and indicators.

Arithmetic is exact, and every number has one canonical form: an int when
it is whole, a fractions.Fraction otherwise (see exact).  Literals,
component values, clocks and the result of every operation keep that
form, so the values of an all-integer model stay ints.  The grammar is
deliberately tiny:

    arith  := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | NAME | 'clock' '(' NAME ')'
            | 'min' '(' arith ',' arith ')' | 'max' '(' arith ',' arith ')'
            | 'ite' '(' compare ',' arith ',' arith ')' | '(' arith ')'

    pred   := conj ('||' conj)*
    conj   := lit ('&&' lit)*
    lit    := '!' lit | 'true' | 'false' | 'final'
            | 'at' '(' NAME ',' NAME ')' | compare | '(' pred ')'
    compare := arith ('<' | '<=' | '=' | '>=' | '>') arith

NUMBER literals may be integers, decimals (kept exact) or p/q rationals.
Transforms use plain arith with component names only; indicator and
predicate arithmetic may also read agent clocks via clock(agent).

Every expression is compiled once by compile_expr into a closure; the
caller supplies how a name, clock, at or final is read.  eval_arith, a
plain interpreter of transform arithmetic, is kept only as the reference
the compiled transforms are checked against.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, Overflow, ParseError, PredicateError

# Cap on numerator/denominator size; rationals are arbitrary precision, the
# cap only stops runaway growth with a clear error instead of a hang.
MAGNITUDE_BITS = 1 << 16

RESERVED = {
    "true", "false", "final", "at", "clock", "min", "max", "ite",
    "EF", "EG", "AF", "AG",
}


@dataclass(frozen=True)
class Num:
    value: int | Fraction


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class ClockRef:
    agent: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Ite:
    cond: object
    then: object
    orelse: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class BoolBin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class At:
    agent: str
    locality: str


@dataclass(frozen=True)
class FinalTest:
    pass


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


_TWO_CHAR = ("&&", "||", "<=", ">=")
_ONE_CHAR = "+-*/(),<>=!"


def tokenize(text):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("-->", i):
            tokens.append(Token("-->", "-->", line, col))
            i += 3
            col += 3
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Parser:
    """Recursive-descent parser over a token list; literal backtracks from
    a comparison to a parenthesised predicate."""

    def __init__(self, text, allow_clock=False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_clock = allow_clock

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.next()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    # arithmetic

    def arith(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            try:
                return Num(exact(Fraction(tok.text)))
            except ValueError:
                raise ParseError(f"bad number {tok.text!r}", tok.line, tok.column)
        if tok.kind == "(":
            self.next()
            node = self.arith()
            self.expect(")")
            return node
        if tok.kind == "NAME":
            name = tok.text
            if name in ("min", "max"):
                self.next()
                self.expect("(")
                first = self.arith()
                self.expect(",")
                second = self.arith()
                self.expect(")")
                return Call(name, (first, second))
            if name == "ite":
                self.next()
                self.expect("(")
                cond = self.compare()
                self.expect(",")
                then = self.arith()
                self.expect(",")
                orelse = self.arith()
                self.expect(")")
                return Ite(cond, then, orelse)
            if name == "clock":
                if not self.allow_clock:
                    raise ParseError("clock(...) is not allowed here", tok.line, tok.column)
                self.next()
                self.expect("(")
                agent = self.expect("NAME").text
                self.expect(")")
                return ClockRef(agent)
            if name in RESERVED:
                raise ParseError(f"{name!r} cannot be used as a component name",
                                 tok.line, tok.column)
            self.next()
            return Ref(name)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def compare(self):
        left = self.arith()
        tok = self.peek()
        if tok.kind not in ("<", "<=", "=", ">=", ">"):
            self.fail("expected a comparison operator")
        self.next()
        return Cmp(tok.kind, left, self.arith())

    # predicates

    def pred(self):
        node = self.conj()
        while self.peek().kind == "||":
            self.next()
            node = BoolBin("||", node, self.conj())
        return node

    def conj(self):
        # stop before '&& EF' and '&& EG', which only a query's nested
        # form can hold; the token list always ends in EOF
        node = self.literal()
        while (self.peek().kind == "&&"
               and self.tokens[self.pos + 1].text not in ("EF", "EG")):
            self.next()
            node = BoolBin("&&", node, self.literal())
        return node

    def literal(self):
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Not(self.literal())
        if tok.kind == "NAME":
            if tok.text == "true":
                self.next()
                return BoolLit(True)
            if tok.text == "false":
                self.next()
                return BoolLit(False)
            if tok.text == "final":
                self.next()
                return FinalTest()
            if tok.text == "at":
                self.next()
                self.expect("(")
                agent = self.expect("NAME").text
                self.expect(",")
                locality = self.expect("NAME").text
                self.expect(")")
                return At(agent, locality)
        save = self.pos
        try:
            return self.compare()
        except ParseError:
            self.pos = save
        if tok.kind == "(":
            self.next()
            node = self.pred()
            self.expect(")")
            return node
        self.fail(f"expected a predicate, found {tok.text or 'end of input'!r}")


def parse_arith(text, allow_clock=False):
    parser = Parser(text, allow_clock=allow_clock)
    node = parser.arith()
    parser.expect("EOF")
    return node


def parse_predicate(text):
    parser = Parser(text, allow_clock=True)
    node = parser.pred()
    parser.expect("EOF")
    return node


def exact(value):
    """The canonical form of an int or Fraction: an int when it is whole.
    A whole value compares, hashes and prints alike in either type; as an
    int it keeps arithmetic and hashing off the slow Fraction path."""
    return value.numerator if value.denominator == 1 else value


def _checked(value, node):
    """value in canonical form, unless it outgrew the cap; node is the
    operation that made it and is rendered only for the error message."""
    if value.numerator.bit_length() > MAGNITUDE_BITS or \
            value.denominator.bit_length() > MAGNITUDE_BITS:
        raise Overflow(f"value in {to_text(node)} exceeds {MAGNITUDE_BITS} bits")
    return exact(value)


def _divide(left, right, node):
    if right == 0:
        raise DivisionByZero(f"division by zero in {to_text(node)!r}")
    if type(right) is int:
        # int / int would be a float
        return _checked(Fraction(left, right), node)
    return _checked(left / right, node)


_ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CMP_OPS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            ">=": operator.ge, ">": operator.gt}
_BOOL_NODES = (Cmp, BoolLit, Not, BoolBin, At, FinalTest)
_LEAVES = (Ref, ClockRef, At, FinalTest)


def compile_expr(node, leaf, boolean=False):
    """Compile an arithmetic expression, or with boolean a predicate, into
    a function of one argument.

    leaf(node) compiles each Ref, ClockRef, At and FinalTest: the caller
    says what the argument is and how a leaf reads it, and refuses a leaf
    by raising.  Every other node is compiled here, so each name is
    resolved once, before anything is evaluated, also in a branch that is
    never taken.  Arithmetic raises Overflow and DivisionByZero with the
    same messages as eval_arith, rendered only when a check fails; && and
    || short-circuit.  A node of the wrong kind raises PredicateError.
    """
    if isinstance(node, _BOOL_NODES) != boolean:
        raise PredicateError(
            f"not {'a boolean' if boolean else 'an arithmetic'} node: {node!r}")
    if isinstance(node, _LEAVES):
        return leaf(node)
    if isinstance(node, Num):
        value = exact(node.value)
        return lambda arg: value
    if isinstance(node, BoolLit):
        value = node.value
        return lambda arg: value
    if isinstance(node, Neg):
        operand = compile_expr(node.operand, leaf)
        return lambda arg: -operand(arg)
    if isinstance(node, Not):
        operand = compile_expr(node.operand, leaf, True)
        return lambda arg: not operand(arg)
    if isinstance(node, Bin):
        left = compile_expr(node.left, leaf)
        right = compile_expr(node.right, leaf)
        if node.op == "/":
            return lambda arg: _divide(left(arg), right(arg), node)
        op = _ARITH_OPS[node.op]
        return lambda arg: _checked(op(left(arg), right(arg)), node)
    if isinstance(node, Cmp):
        test = _CMP_OPS[node.op]
        left = compile_expr(node.left, leaf)
        right = compile_expr(node.right, leaf)
        return lambda arg: test(left(arg), right(arg))
    if isinstance(node, BoolBin):
        left = compile_expr(node.left, leaf, True)
        right = compile_expr(node.right, leaf, True)
        if node.op == "&&":
            return lambda arg: left(arg) and right(arg)
        return lambda arg: left(arg) or right(arg)
    if isinstance(node, Call):
        args = tuple(compile_expr(arg, leaf) for arg in node.args)
        pick = min if node.fn == "min" else max
        return lambda arg: pick([a(arg) for a in args])
    if isinstance(node, Ite):
        cond = compile_expr(node.cond, leaf, True)
        then = compile_expr(node.then, leaf)
        orelse = compile_expr(node.orelse, leaf)
        return lambda arg: then(arg) if cond(arg) else orelse(arg)
    raise PredicateError(f"not an arithmetic node: {node!r}")


def compile_arith(node, index):
    """Compile a transform expression into a function of a value tuple.

    index maps each component name to its position in the tuple.  A
    transform reads components only, so a name missing from index or a
    clock, at or final is refused here.
    """
    def leaf(ref):
        if not isinstance(ref, Ref):
            raise PredicateError(f"{to_text(ref)!r} is not transform arithmetic")
        if ref.name not in index:
            raise PredicateError(f"unknown component {ref.name!r}")
        return operator.itemgetter(index[ref.name])

    return compile_expr(node, leaf)


def eval_arith(node, values):
    """Interpret transform arithmetic over a name -> value mapping.

    This is the reference the compiled transforms are checked against
    (model.eval_transform, and so petri-check): it shares nothing with
    compile_expr but the overflow and division checks.
    """
    if isinstance(node, Num):
        return exact(node.value)
    if isinstance(node, Ref):
        try:
            return values[node.name]
        except KeyError:
            raise PredicateError(f"unknown component {node.name!r}")
    if isinstance(node, Neg):
        return -eval_arith(node.operand, values)
    if isinstance(node, Bin):
        left = eval_arith(node.left, values)
        right = eval_arith(node.right, values)
        if node.op == "+":
            return _checked(left + right, node)
        if node.op == "-":
            return _checked(left - right, node)
        if node.op == "*":
            return _checked(left * right, node)
        return _divide(left, right, node)
    if isinstance(node, Call):
        args = [eval_arith(arg, values) for arg in node.args]
        return min(args) if node.fn == "min" else max(args)
    if isinstance(node, Ite) and isinstance(node.cond, Cmp):
        left = eval_arith(node.cond.left, values)
        right = eval_arith(node.cond.right, values)
        holds = {
            "<": left < right,
            "<=": left <= right,
            "=": left == right,
            ">=": left >= right,
            ">": left > right,
        }[node.cond.op]
        return eval_arith(node.then if holds else node.orelse, values)
    raise PredicateError(f"not an arithmetic node: {node!r}")


def refs(node):
    """All component names read by an expression."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Ref):
            out.add(cur.name)
        elif isinstance(cur, Neg):
            stack.append(cur.operand)
        elif isinstance(cur, Not):
            stack.append(cur.operand)
        elif isinstance(cur, (Bin, BoolBin, Cmp)):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, Call):
            stack.extend(cur.args)
        elif isinstance(cur, Ite):
            stack.extend((cur.cond, cur.then, cur.orelse))
    return out


_PREC = {"||": 1, "&&": 2, "+": 5, "-": 5, "*": 6, "/": 6}


def _frac_text(value):
    if value.denominator == 1:
        return str(value.numerator)
    # terminating decimals reparse to the very same literal node; other
    # denominators fall back to a division that evaluates to the same value
    d = value.denominator
    twos = 0
    fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        k = max(twos, fives, 1)
        scaled = abs(value.numerator) * 10 ** k // value.denominator
        digits = str(scaled).rjust(k + 1, "0")
        sign = "-" if value.numerator < 0 else ""
        return f"{sign}{digits[:-k]}.{digits[-k:]}"
    return f"{value.numerator}/{value.denominator}"


def to_text(node):
    """Render a node back to parseable text; reparsing yields an equal tree."""
    text, _ = _render(node)
    return text


def _render(node):
    if isinstance(node, Num):
        if node.value < 0:
            return f"({_frac_text(node.value)})", 8
        return _frac_text(node.value), 8
    if isinstance(node, Ref):
        return node.name, 8
    if isinstance(node, ClockRef):
        return f"clock({node.agent})", 8
    if isinstance(node, Neg):
        inner, prec = _render(node.operand)
        if prec < 7:
            inner = f"({inner})"
        return f"-{inner}", 7
    if isinstance(node, (Bin, BoolBin)):
        mine = _PREC[node.op]
        left, lp = _render(node.left)
        right, rp = _render(node.right)
        if lp < mine:
            left = f"({left})"
        if rp <= mine:
            right = f"({right})"
        return f"{left} {node.op} {right}", mine
    if isinstance(node, Call):
        args = ", ".join(_render(a)[0] for a in node.args)
        return f"{node.fn}({args})", 8
    if isinstance(node, Ite):
        cond, _ = _render(node.cond)
        then, _ = _render(node.then)
        orelse, _ = _render(node.orelse)
        return f"ite({cond}, {then}, {orelse})", 8
    if isinstance(node, Cmp):
        left, _ = _render(node.left)
        right, _ = _render(node.right)
        return f"{left} {node.op} {right}", 4
    if isinstance(node, BoolLit):
        return ("true" if node.value else "false"), 8
    if isinstance(node, FinalTest):
        return "final", 8
    if isinstance(node, At):
        return f"at({node.agent}, {node.locality})", 8
    if isinstance(node, Not):
        inner, prec = _render(node.operand)
        if prec < 4:
            inner = f"({inner})"
        return f"!{inner}", 3
    raise PredicateError(f"cannot render {node!r}")
