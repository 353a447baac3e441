"""Code generation for expressions: each one becomes one flat Python
function.

compile_expr walks an expression's tree once, with a stack of generators
rather than by recursion, and emits Python source: one temporary per
operation, and the branches of &&, || and ite under guard variables
instead of nested blocks, so however deep the tree, the code is at most
two blocks deep.  The code computes in the kernel's number form (see
expr): an int when whole, a canonical (numerator, denominator) pair
otherwise.  An operation on two ints runs inline, with its overflow check;
every other case of +, -, *, unary minus, a comparison, min and max, and
every division, calls one of expr's exact helpers.  It then compiles
exactly one function.  The caller supplies the source text that reads a
name, clock, at or final from the function's argument; every other value
the code reads, from a number to the node an error message renders, is
bound to a name, never written into the source.  compile_arith reads a
value tuple, and compile_transform makes one function of a whole
transform.  No function is cached: each call generates its own; only the
names the code uses are kept (see _names).
"""

import itertools
import os
import sys

from .errors import PredicateError
from .expr import (BOOLEAN, MAGNITUDE_BITS, At, Bin, BoolBin, BoolLit, Call, ClockRef, Cmp,
                   FinalTest, Ite, Neg, Not, Num, Ref, add, capped, compare, div,
                   mul, neg, sub, to_kernel, to_text)

# the operators generated code may hold, each with the helper that takes
# every case but int and int: a node's op is looked up here, never written
# into the source
_ARITH = {"+": ("+", add), "-": ("-", sub), "*": ("*", mul)}
_CMP_SYMBOLS = {"<": "<", "<=": "<=", "=": "==", ">=": ">=", ">": ">"}
_LEAVES = (Ref, ClockRef, At, FinalTest)
# The file name of generated code: beside expr.py and of its stem, so a
# profile counts generated code in the expr layer, with the expressions it
# evaluates; and a file that does not exist, so a traceback shows no
# unrelated source line.
GENERATED_FILE = os.path.join(os.path.dirname(__file__), "expr.generated")
# A generated function's first line number is a serial number, so that no
# two of them share the (file, line, name) label a profile keys its counts
# by.
_serials = itertools.count(1)
# Python interns the names in compiled code and drops a name from its table
# of interned strings when no code uses it any more.  Names dropped and
# made again, command after command, fill that table with dead slots until
# it is rebuilt, which for a moment takes twice its memory.  So the names
# generated code uses are made once and kept: a few per operation of the
# largest expression compiled.
_names = {}


def _name(prefix, number):
    key = (prefix, number)
    name = _names.get(key)
    if name is None:
        name = _names[key] = sys.intern(f"{prefix}{number}")
    return name


class _Function:
    """The flat source of one generated function of one argument, a, and
    the values its code reads by name: bound values are k0, k1, ...,
    temporaries t0, t1, ... and guards g0, g1, ...  The statements of a
    branch run under its guard, an expression that holds when the branch
    is taken, in one `if` block per run of statements."""

    def __init__(self, leaf):
        self.leaf = leaf
        self.lines = []
        self.names = {}     # id(value) -> the name it is bound to
        self.values = []    # the bound values, k0, k1, ... in order
        self.temps = 0
        self.guards = 0
        self.guard = None   # the guard of the statements emitted next
        self.block = None   # the guard of the open `if` block

    def bind(self, value):
        """The name the code reads value by."""
        name = self.names.get(id(value))
        if name is None:
            name = self.names[id(value)] = _name("k", len(self.values))
            self.values.append(value)
        return name

    def emit(self, line):
        if self.guard is None:
            self.lines.append(line)
            self.block = None
            return
        if self.block != self.guard:
            self.lines.append(f"if {self.guard}:")
            self.block = self.guard
        self.lines.append("    " + line)

    def temp(self):
        self.temps += 1
        return _name("t", self.temps - 1)

    def assign(self, text):
        temp = self.temp()
        self.emit(f"{temp} = {text}")
        return temp

    def enter(self, condition):
        """Guard the statements emitted next by condition, within the
        current guard; returns the current guard, which the caller puts
        back when the branch ends."""
        outer = self.guard
        if outer is not None:
            # the guard is computed unguarded: outer is false or unset
            # temporaries are never read
            guard = _name("g", self.guards)
            self.guards += 1
            self.lines.append(f"{guard} = {outer} and {condition}")
            condition = guard
        self.guard = condition
        self.block = None
        return outer

    def build(self, result):
        """The generated function, which returns result."""
        body = "".join(f"        {line}\n" for line in self.lines)
        source = (f"def bind({', '.join(self.names.values())}):\n"
                  f"    def compiled(a):\n{body}        return {result}\n"
                  f"    return compiled\n")
        namespace = {}
        exec(compile(source, GENERATED_FILE, "exec"), namespace)
        # taken out, so that the function's globals and bind hold no cycle
        # and go with the function
        function = namespace.pop("bind")(*self.values)
        function.__code__ = function.__code__.replace(co_firstlineno=next(_serials))
        return function


def _steps(fn, node, boolean):
    """Emit the code of node into fn.  A generator: it yields each child
    as a (node, boolean) pair, is sent the child's operand back, and
    returns node's operand, a temporary or a bound name."""
    if isinstance(node, BOOLEAN) != boolean:
        raise PredicateError(
            f"not {'a boolean' if boolean else 'an arithmetic'} node: {node!r}")
    if isinstance(node, _LEAVES):
        return fn.assign(fn.leaf(node, fn.bind))
    if isinstance(node, Num):
        return fn.bind(to_kernel(node.value))
    if isinstance(node, BoolLit):
        return fn.bind(node.value)
    if isinstance(node, Neg):
        operand = yield node.operand, False
        return fn.assign(f"-{operand} if type({operand}) is int else "
                         f"{fn.bind(neg)}({operand})")
    if isinstance(node, Not):
        operand = yield node.operand, True
        return fn.assign(f"not {operand}")
    if isinstance(node, Bin):
        left = yield node.left, False
        right = yield node.right, False
        if node.op == "/":
            return fn.assign(f"{fn.bind(div)}({left}, {right}, {fn.bind(node)})")
        symbol, helper = _ARITH[node.op]
        temp = fn.assign(f"{left} {symbol} {right} if {_ints(left, right)} else "
                         f"{fn.bind(helper)}({left}, {right}, {fn.bind(node)})")
        # the overflow check of the int case, inline; a helper checks its own
        fn.emit(f"if type({temp}) is int and {temp}.bit_length() > "
                f"{fn.bind(MAGNITUDE_BITS)}: "
                f"{temp} = {fn.bind(capped)}({temp}, 1, {fn.bind(node)})")
        return temp
    if isinstance(node, Cmp):
        left = yield node.left, False
        right = yield node.right, False
        return fn.assign(_compare(fn, left, _CMP_SYMBOLS[node.op], right))
    if isinstance(node, BoolBin):
        left = yield node.left, True
        # the operand of a child is read by its parent only, so a
        # temporary can hold the result
        temp = left if left.startswith("t") else fn.assign(left)
        outer = fn.enter(temp if node.op == "&&" else f"not {temp}")
        right = yield node.right, True
        fn.emit(f"{temp} = {right}")
        fn.guard = outer
        return temp
    if isinstance(node, Call):
        args = []
        for arg in node.args:
            args.append((yield arg, False))
        # as min and max do: a later argument replaces the pick only when
        # it is strictly smaller (larger)
        symbol = "<" if node.fn == "min" else ">"
        best = args[0]
        for arg in args[1:]:
            best = fn.assign(f"{arg} if {_compare(fn, arg, symbol, best)} else {best}")
        return best
    if isinstance(node, Ite):
        cond = yield node.cond, True
        temp = fn.temp()
        for guard, branch in ((cond, node.then), (f"not {cond}", node.orelse)):
            outer = fn.enter(guard)
            value = yield branch, False
            fn.emit(f"{temp} = {value}")
            fn.guard = outer
        return temp
    raise PredicateError(f"not an arithmetic node: {node!r}")


def _ints(left, right):
    """The source of the test that both operands are ints."""
    return f"type({left}) is int and type({right}) is int"


def _compare(fn, left, symbol, right):
    """The source of an exact comparison of two operands."""
    return (f"({left} {symbol} {right} if {_ints(left, right)} else "
            f"{fn.bind(compare)}({left}, {right}) {symbol} 0)")


def _source(fn, node, boolean):
    """Emit the code of node into fn and return its operand.  The tree is
    walked with a stack of _steps generators, not by recursion, so a
    2000-term conjunction compiles like a short one."""
    stack = [_steps(fn, node, boolean)]
    operand = None
    while stack:
        try:
            child = stack[-1].send(operand)
        except StopIteration as done:
            stack.pop()
            operand = done.value
        else:
            stack.append(_steps(fn, *child))
            operand = None
    return operand


def compile_expr(node, leaf, boolean=False):
    """Compile an arithmetic expression, or with boolean a predicate, into
    one generated function of one argument, a.

    leaf(node, bind) compiles each Ref, ClockRef, At and FinalTest into
    the source text of an expression that reads it from a, a number in
    kernel form (see expr); bind(value) gives the name under which the
    text may read any value.  The caller says what a is and refuses a
    leaf by raising.  Every other node is compiled here, so each name is
    resolved once, before anything is evaluated, also in a branch that is
    never taken.  Arithmetic returns kernel numbers and raises Overflow
    and DivisionByZero with the same messages as eval_arith, rendered only
    when a check fails; &&, || and ite short-circuit.  A node of the
    wrong kind raises PredicateError.
    """
    fn = _Function(leaf)
    return fn.build(_source(fn, node, boolean))


def _component_leaf(index):
    """The leaf of transform arithmetic: a is a tuple of kernel numbers,
    index maps each component name to its position, and clock, at and
    final are refused."""
    def leaf(ref, bind):
        if not isinstance(ref, Ref):
            raise PredicateError(f"{to_text(ref)!r} is not transform arithmetic")
        if ref.name not in index:
            raise PredicateError(f"unknown component {ref.name!r}")
        return f"a[{index[ref.name]:d}]"

    return leaf


def compile_arith(node, index, boolean=False):
    """Compile a transform expression, or with boolean a predicate over
    the components, into a function of a tuple of kernel numbers.

    index maps each component name to its position in the tuple.  A
    transform reads components only, so a name missing from index or a
    clock, at or final is refused here.
    """
    return compile_expr(node, _component_leaf(index), boolean)


def compile_transform(effects, index):
    """Compile a transform, a component name -> expression mapping, into
    one function of a tuple of kernel numbers that returns the new tuple.
    Every effect reads the old values; they are computed in component
    order.
    """
    fn = _Function(_component_leaf(index))
    out = [f"a[{i:d}]" for i in range(len(index))]
    for name, node in sorted(effects.items(), key=lambda item: index[item[0]]):
        out[index[name]] = _source(fn, node, False)
    return fn.build("(" + "".join(f"{value}, " for value in out) + ")")
