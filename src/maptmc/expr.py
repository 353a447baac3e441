"""Small expression language used by transforms, predicates and indicators.

Arithmetic is exact, and every number has one canonical form on each side
of the kernel's edge.  At the edge, in States, models and output, it is an
int when it is whole and a fractions.Fraction otherwise (see exact).
Inside the kernel, in its value tables and in every generated function,
it is an int when it is whole and otherwise a (numerator, denominator)
pair of ints, the denominator above 1, the two coprime and the sign on the
numerator (see to_kernel and from_kernel): equal numbers are equal values,
and a pair hashes as fast as its ints.  Literals, component values, clocks
and the result of every operation keep their side's form, so the values
of an all-integer model stay ints.  The grammar is deliberately tiny:

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

The parser refuses nesting deeper than MAX_NESTING.  Every expression is
compiled once into one generated Python function by the codegen module,
which computes in kernel form: the int case of each operation inline,
every other case through the exact helpers here, add, sub, mul, div, neg
and compare, which also hold the overflow and division checks.
eval_arith, a plain interpreter of transform arithmetic over Fractions,
is kept only as the reference the compiled transforms are checked
against; it shares no arithmetic with those helpers.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, Overflow, ParseError, PredicateError

# Cap on numerator/denominator size; rationals are arbitrary precision, the
# cap only stops runaway growth with a clear error instead of a hang.
MAGNITUDE_BITS = 1 << 16

# How deep the parser lets an expression nest.  Each parenthesis, min or
# max call, unary minus and negation opens one level, an ite two (its call
# and its comparison).  A level takes up to four Python frames of the
# recursive descent, so a parse at the cap stays well inside Python's
# default recursion limit of 1000, and one past it is a ParseError.
MAX_NESTING = 200

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
    a comparison to a parenthesised predicate.  depth counts the levels of
    nesting open at pos (see MAX_NESTING)."""

    def __init__(self, text, allow_clock=False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.allow_clock = allow_clock

    def mark(self):
        """Where the parser is, for reset to backtrack to."""
        return self.pos, self.depth

    def reset(self, mark):
        self.pos, self.depth = mark

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

    def deeper(self, levels=1):
        """Open levels of nesting at the next token; the caller closes
        them by taking them off depth when the nested part is parsed."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} levels deep")

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
            self.deeper()
            self.next()
            node = Neg(self.unary())
            self.depth -= 1
            return node
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
            self.deeper()
            self.next()
            node = self.arith()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "NAME":
            name = tok.text
            if name in ("min", "max"):
                self.deeper()
                self.next()
                self.expect("(")
                first = self.arith()
                self.expect(",")
                second = self.arith()
                self.expect(")")
                self.depth -= 1
                return Call(name, (first, second))
            if name == "ite":
                self.deeper(2)
                self.next()
                self.expect("(")
                cond = self.compare()
                self.expect(",")
                then = self.arith()
                self.expect(",")
                orelse = self.arith()
                self.expect(")")
                self.depth -= 2
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
            self.deeper()
            self.next()
            node = Not(self.literal())
            self.depth -= 1
            return node
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
        save = self.mark()
        try:
            return self.compare()
        except ParseError:
            self.reset(save)
        if tok.kind == "(":
            self.deeper()
            self.next()
            node = self.pred()
            self.expect(")")
            self.depth -= 1
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


def checked(value, node):
    """value in canonical form, unless it outgrew the cap; node is the
    operation that made it and is rendered only for the error message."""
    numerator, denominator = value.as_integer_ratio()
    if numerator.bit_length() > MAGNITUDE_BITS or \
            denominator.bit_length() > MAGNITUDE_BITS:
        raise Overflow(f"value in {to_text(node)} exceeds {MAGNITUDE_BITS} bits")
    return numerator if denominator == 1 else value


def divide(left, right, node):
    if right == 0:
        raise DivisionByZero(f"division by zero in {to_text(node)!r}")
    if type(right) is int:
        # int / int would be a float
        return checked(Fraction(left, right), node)
    return checked(left / right, node)


# Kernel arithmetic.  Generated code does an operation on two ints inline
# and calls these for every other case; each takes and returns numbers in
# kernel form.  They share no code with the Fraction arithmetic of
# eval_arith, the reference the generated code is checked against.


def to_kernel(value):
    """The kernel form of an int or a Fraction."""
    if type(value) is int:
        return value
    numerator, denominator = value.as_integer_ratio()
    return numerator if denominator == 1 else (numerator, denominator)


def from_kernel(value):
    """The edge form of a kernel number, an int or a Fraction (see exact);
    any other value, such as a bool, is returned as it is.  Pairs and ints
    do not compare, so this is also the key that sorts kernel numbers in
    numeric order."""
    return Fraction(*value) if type(value) is tuple else value


def capped(numerator, denominator, node):
    """The kernel form of numerator / denominator, coprime with the
    denominator positive, unless either outgrew the cap; node is the
    operation that made it and is rendered only for the error message."""
    if numerator.bit_length() > MAGNITUDE_BITS or \
            denominator.bit_length() > MAGNITUDE_BITS:
        raise Overflow(f"value in {to_text(node)} exceeds {MAGNITUDE_BITS} bits")
    return numerator if denominator == 1 else (numerator, denominator)


def _sum(an, ad, bn, bd, node):
    # an / ad + bn / bd, both canonical: as fractions.Fraction adds, only
    # a factor that the denominators share can cancel
    g = gcd(ad, bd)
    if g == 1:
        return capped(an * bd + bn * ad, ad * bd, node)
    s = ad // g
    t = an * (bd // g) + bn * s
    g = gcd(t, g)
    return capped(t // g, s * (bd // g), node)


def add(a, b, node):
    an, ad = (a, 1) if type(a) is int else a
    bn, bd = (b, 1) if type(b) is int else b
    return _sum(an, ad, bn, bd, node)


def sub(a, b, node):
    an, ad = (a, 1) if type(a) is int else a
    bn, bd = (b, 1) if type(b) is int else b
    return _sum(an, ad, -bn, bd, node)


def mul(a, b, node):
    an, ad = (a, 1) if type(a) is int else a
    bn, bd = (b, 1) if type(b) is int else b
    # cancel across before multiplying, as fractions.Fraction does
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return capped(an // g1 * (bn // g2), ad // g2 * (bd // g1), node)


def div(a, b, node):
    if b == 0:
        raise DivisionByZero(f"division by zero in {to_text(node)!r}")
    an, ad = (a, 1) if type(a) is int else a
    bn, bd = (b, 1) if type(b) is int else b
    g1 = gcd(an, bn)
    g2 = gcd(ad, bd)
    numerator, denominator = an // g1 * (bd // g2), ad // g2 * (bn // g1)
    if denominator < 0:
        # the sign goes on the numerator
        numerator, denominator = -numerator, -denominator
    return capped(numerator, denominator, node)


def neg(a):
    return -a if type(a) is int else (-a[0], a[1])


def compare(a, b):
    """An int of the sign of a - b, by cross-multiplication."""
    an, ad = (a, 1) if type(a) is int else a
    bn, bd = (b, 1) if type(b) is int else b
    return an * bd - bn * ad


def eval_arith(node, values):
    """Interpret transform arithmetic over a name -> value mapping.

    This is the reference the compiled transforms are checked against
    (model.eval_transform, and so petri-check): it shares nothing with
    the generated code but the overflow and division checks.
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
        left = node.left
        left = _chain(left, values) if isinstance(left, Bin) else eval_arith(left, values)
        right = eval_arith(node.right, values)
        if node.op == "+":
            return checked(left + right, node)
        if node.op == "-":
            return checked(left - right, node)
        if node.op == "*":
            return checked(left * right, node)
        return divide(left, right, node)
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


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _chain(node, values):
    """eval_arith of a Bin node, down its left side in a loop.  a + b + ...
    parses as a tree as deep as it is long down that side, so eval_arith
    hands a left operand that is a Bin here: only the parentheses a right
    operand opens (at most MAX_NESTING) cost a frame."""
    spine = []
    while isinstance(node, Bin):
        spine.append(node)
        node = node.left
    left = eval_arith(node, values)
    for node in reversed(spine):
        right = eval_arith(node.right, values)
        if node.op == "/":
            left = divide(left, right, node)
        else:
            left = checked(_ARITH[node.op](left, right), node)
    return left


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
        # a left-deep chain is rendered in a loop, as eval_arith walks it
        spine = []
        while isinstance(node, (Bin, BoolBin)):
            spine.append(node)
            node = node.left
        left, lp = _render(node)
        for node in reversed(spine):
            mine = _PREC[node.op]
            right, rp = _render(node.right)
            if lp < mine:
                left = f"({left})"
            if rp <= mine:
                right = f"({right})"
            left, lp = f"{left} {node.op} {right}", mine
        return left, lp
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
