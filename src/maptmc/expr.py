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
of an all-integer model stay ints.  The language is deliberately tiny.
Its operands are NUMBER, NAME, clock(agent), min(a, b), max(a, b),
ite(a < b, c, d) with any comparison, true, false, final, at(agent,
locality) and parenthesised expressions.  Its operators, loosest first,
are ||, &&, the comparisons < <= = >= >, + and -, * and /; all associate
to the left.  A prefix - binds tightest, a prefix ! negates up to the
next && or ||.  A predicate is a comparison, true, false, final, at(...)
or a predicate under !, && or ||; every other expression, and every
operand of a comparison, an arithmetic operator, min, max and ite's
numbers, is arithmetic.

NUMBER literals may be integers, decimals (kept exact) or p/q rationals.
Transforms use plain arith with component names only; indicator and
predicate arithmetic may also read agent clocks via clock(agent).
MAGNITUDE_BITS caps every number, computed or read: rational reads each
number given outside an expression, such as an X bound, under the cap.

The parser refuses nesting deeper than MAX_NESTING, but builds a + b + ...
and p && q && ... as trees as deep as they are long down their left side.
spine unrolls such a chain in one loop, and all here that walks a chain
reads it: the equality, hash, repr and pickling of Bin and BoolBin,
eval_arith and to_text, so only nesting costs frames.  Every expression is
compiled once into one generated Python function by the codegen module,
which computes in kernel form: the int case of each operation inline,
every other case through the exact helpers here, add, sub, mul, div, neg
and compare, which also hold the overflow and division checks.
eval_arith, a plain interpreter of transform arithmetic over Fractions,
is kept only as the reference the compiled transforms are checked
against; it shares no arithmetic with those helpers.
"""

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, Overflow, ParseError, PredicateError

# Cap on numerator/denominator size, read or computed; the cap only stops
# runaway growth with a clear error instead of a hang.
MAGNITUDE_BITS = 1 << 16

# How deep the parser lets an expression nest.  Each parenthesis, min or
# max call, unary minus and negation opens one level, an ite two (its call
# and its comparison).  A level takes up to three Python frames of the
# parser, so a parse at the cap stays well inside Python's default
# recursion limit of 1000, and one past it is a ParseError.
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


def spine(node):
    """The chain of a Bin or BoolBin node down its left side, in a loop:
    the first operand that is not of the node's class, and the chain's
    nodes, innermost first."""
    cls, links = node.__class__, []
    while node.__class__ is cls:
        links.append(node)
        node = node.left
    links.reverse()
    return node, links


def _flat(node):
    """A binary node's chain as (first operand, ((op, right), ...)) (see spine)."""
    first, links = spine(node)
    return first, tuple((link.op, link.right) for link in links)


def _spine_eq(a, b):
    """a == b for a binary node a (see _flat)."""
    return a.__class__ is b.__class__ and _flat(a) == _flat(b)


def _spine_hash(node):
    """A binary node's hash (see _flat)."""
    return hash(_flat(node))


def _spine_repr(node):
    """A binary node's dataclass repr, its chain walked once (see spine)."""
    first, links = spine(node)
    opens = (f"{node.__class__.__qualname__}(op={link.op!r}, left=" for link in reversed(links))
    return "".join([*opens, repr(first), *(f", right={link.right!r})" for link in links)])


def _spine_reduce(node):
    """What pickle and copy.deepcopy rebuild a binary node from: its class
    and its chain (see _flat)."""
    return _rebuild, (node.__class__, *_flat(node))


def _rebuild(cls, first, links):
    for op, right in links:
        first = cls(op, first, right)
    return first


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    __eq__ = _spine_eq
    __hash__ = _spine_hash
    __repr__ = _spine_repr
    __reduce__ = _spine_reduce


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
    __eq__ = _spine_eq
    __hash__ = _spine_hash
    __repr__ = _spine_repr
    __reduce__ = _spine_reduce


@dataclass(frozen=True)
class At:
    agent: str
    locality: str


@dataclass(frozen=True)
class FinalTest:
    pass


# The node kinds of predicates; every other node is arithmetic.
BOOLEAN = (Cmp, BoolLit, Not, BoolBin, At, FinalTest)

# Each binary operator's level, the higher the more tightly it binds, and
# the node it builds; operators of one level associate to the left.  The
# operands of && and || are predicates, all others arithmetic.  A prefix -
# binds more tightly than any, a prefix ! takes an operand at the level of
# the comparisons: !x + 1 > 2 is !(x + 1 > 2).
OPERATORS = {"||": (1, BoolBin), "&&": (2, BoolBin), "<": (3, Cmp), "<=": (3, Cmp),
             "=": (3, Cmp), ">=": (3, Cmp), ">": (3, Cmp), "+": (4, Bin), "-": (4, Bin),
             "*": (5, Bin), "/": (5, Bin)}
COMPARISON, ARITHMETIC = OPERATORS["="][0], OPERATORS["+"][0]


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
    """Precedence-climbing parser over a token list (Pratt, "Top down
    operator precedence", POPL 1973): arithmetic and predicates alike are
    read left to right, each token once.  A binary operator waits on a
    stack until the next one binds no more tightly, so only nesting costs
    frames, at most three a level.  A kind error points at the operand's
    first token, every other error at the token where reading stopped.
    depth counts the levels of nesting open at pos (see MAX_NESTING)."""

    def __init__(self, text, allow_clock=False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
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
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def fail(self, message, tok=None):
        """Raise a ParseError at tok, by default the next token."""
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def deeper(self, levels=1):
        """Open levels of nesting at the next token; the caller closes
        them by taking them off depth when the nested part is parsed."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} levels deep")

    def close(self, levels=1):
        self.expect(")")
        self.depth -= levels

    def check(self, first, node, boolean):
        """node, if it is a predicate just when boolean is; first starts it."""
        if isinstance(node, BOOLEAN) != boolean:
            kind = "a predicate" if boolean else "an arithmetic expression"
            self.fail(f"expected {kind}, found {first.text!r}", first)
        return node

    def operand(self, boolean):
        """A predicate, or (not boolean) arithmetic read at + and - level."""
        first = self.peek()
        return self.check(first, self.expression(1 if boolean else ARITHMETIC), boolean)

    def expression(self, level=1, node=None, first=None):
        """The expression at pos whose operators bind at level or more
        tightly (see OPERATORS); it stops before '&& EF' and '&& EG', which
        only a query's nested form holds.  node, if given, is its first
        operand, read already, and first the token that starts it."""
        stack = []  # open operators: (level, node class, op, left operand, its first token)
        while True:
            if node is None:
                first = self.peek()
                node = self.primary()
            tok = self.peek()
            bind, built = OPERATORS.get(tok.kind, (0, None))
            # the token list always ends in EOF
            if bind < level or tok.kind == "&&" and \
                    self.tokens[self.pos + 1].text in ("EF", "EG"):
                bind = 0
            while stack and stack[-1][0] >= bind:
                _, cls, op, left, start = stack.pop()
                node = cls(op, left, self.check(first, node, cls is BoolBin))
                first = start
            if not bind:
                return node
            stack.append((bind, built, self.next().kind,
                          self.check(first, node, built is BoolBin), first))
            node = None

    def primary(self):
        """An operand: a number, a name, a call, a prefix operator and its
        operand, or an expression of either kind in parentheses."""
        tok = self.peek()
        name = tok.text if tok.kind == "NAME" else None
        if tok.kind == "NUM":
            self.next()
            try:
                return Num(exact(Fraction(tok.text)))
            except ValueError:
                self.fail(f"bad number {tok.text!r}", tok)
        if tok.kind == "(":
            self.deeper()
            self.next()
            node = self.expression()
            self.close()
            return node
        if tok.kind in ("-", "!"):
            self.deeper()
            self.next()
            first = self.peek()
            boolean = tok.kind == "!"
            node = self.expression(COMPARISON) if boolean else self.primary()
            self.depth -= 1
            return (Not if boolean else Neg)(self.check(first, node, boolean))
        if name in ("min", "max", "ite"):
            levels = 2 if name == "ite" else 1
            self.deeper(levels)
            self.next()
            self.expect("(")
            args = []
            if name == "ite":
                left = self.operand(False)
                op = self.peek()
                if OPERATORS.get(op.kind, (0, None))[1] is not Cmp:
                    self.fail("expected a comparison operator")
                self.next()
                args.append(Cmp(op.kind, left, self.operand(False)))
                self.expect(",")
            args.append(self.operand(False))
            self.expect(",")
            args.append(self.operand(False))
            self.close(levels)
            return Ite(*args) if name == "ite" else Call(name, tuple(args))
        if name in ("clock", "at"):
            if name == "clock" and not self.allow_clock:
                self.fail("clock(...) is not allowed here")
            self.next()
            self.expect("(")
            args = [self.expect("NAME").text]
            if name == "at":
                self.expect(",")
                args.append(self.expect("NAME").text)
            self.expect(")")
            return (At if name == "at" else ClockRef)(*args)
        if name in ("true", "false", "final"):
            self.next()
            return FinalTest() if name == "final" else BoolLit(name == "true")
        if name in RESERVED:
            self.fail(f"{name!r} cannot be used as a component name")
        if name is None:
            self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")
        self.next()
        return Ref(name)


def parse_arith(text, allow_clock=False):
    parser = Parser(text, allow_clock=allow_clock)
    node = parser.operand(False)
    parser.expect("EOF")
    return node


def parse_predicate(text):
    parser = Parser(text, allow_clock=True)
    node = parser.operand(True)
    parser.expect("EOF")
    return node


def parse_expression(text):
    """An arithmetic expression or a predicate, clocks allowed."""
    parser = Parser(text, allow_clock=True)
    node = parser.expression()
    parser.expect("EOF")
    return node


def exact(value):
    """The canonical form of an int or Fraction: an int when it is whole.
    A whole value compares, hashes and prints alike in either type; as an
    int it keeps arithmetic and hashing off the slow Fraction path."""
    return value.numerator if value.denominator == 1 else value


def rational(raw, what):
    """raw, a number from outside input, in canonical form (see exact):
    anything fractions.Fraction reads but a boolean.  A ParseError naming
    what refuses anything else, a decimal exponent past MAGNITUDE_BITS
    before the number is built, and a numerator or denominator longer
    than MAGNITUDE_BITS bits."""
    if isinstance(raw, Decimal):
        raw = str(raw)  # Fraction(Decimal) also builds 10 ** exponent
    try:
        if isinstance(raw, bool):
            raise TypeError(raw)
        # the exponent is measured before Fraction builds 10 ** exponent
        exponent = isinstance(raw, str) and re.search(r"e([-+]?\d[\d_]*)\s*\Z", raw, re.I)
        too_long = bool(exponent) and abs(int(exponent[1])) > MAGNITUDE_BITS
        value = None if too_long else Fraction(raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"{what}: cannot read a rational from {raw!r}") from None
    if too_long or value.numerator.bit_length() > MAGNITUDE_BITS or \
            value.denominator.bit_length() > MAGNITUDE_BITS:
        shown = repr(raw) if isinstance(raw, str) else "a number"  # too long to print
        raise ParseError(f"{what}: {shown} exceeds {MAGNITUDE_BITS} bits")
    return exact(value)


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


_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge,
            ">": operator.gt}


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
        # a single operation, as in every fixture transform, skips spine
        first, links = spine(node) if isinstance(node.left, Bin) else (node.left, (node,))
        value = eval_arith(first, values)
        for link in links:
            right = eval_arith(link.right, values)
            if link.op == "+":
                value = checked(value + right, link)
            elif link.op == "-":
                value = checked(value - right, link)
            elif link.op == "*":
                value = checked(value * right, link)
            else:
                value = divide(value, right, link)
        return value
    if isinstance(node, Call):
        args = [eval_arith(arg, values) for arg in node.args]
        return min(args) if node.fn == "min" else max(args)
    if isinstance(node, Ite) and isinstance(node.cond, Cmp):
        holds = _COMPARE[node.cond.op](eval_arith(node.cond.left, values),
                                       eval_arith(node.cond.right, values))
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
        first, links = spine(node)
        left, lp = _render(first)
        for link in links:
            mine = _PREC[link.op]
            right, rp = _render(link.right)
            if lp < mine:
                left = f"({left})"
            if rp <= mine:
                right = f"({right})"
            left, lp = f"{left} {link.op} {right}", mine
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
