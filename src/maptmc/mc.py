"""On-the-fly reachability checking over the bounded state space.

Seven query forms are accepted; parse_query reads each into one normal
form, a Query: one of four base evaluators (EF, EG, EF(p && EF q),
EF(p && EG q)) plus an optional final negation:

    AF p          = !EG !p
    AG p          = !EF !p
    p --> q       = !EF(p && EG !q)    (every p is eventually followed by q)

Final states (X bound reached, or nothing enabled) behave as if they
carried a self loop, so EG holds there whenever its operand does.

The layered-dfs strategy walks border to border over a coherent cut,
depth-first across borders and FIFO over the clusters of one border; a
heuristic replaces that discipline with a weight-ordered frontier.  One
seen map spans every cluster walk of a check, so each state is expanded
at most once unmarked and once marked.  The verdict never depends on the
strategy, only the visit order does.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from . import codegen, expr, layers
from . import semantics as sem
from .errors import (BudgetExceeded, MissingComponent, ParseError,
                     PredicateError, UnknownReference, ValidationError)
from .model import _IDENT

STRATEGIES = ("width", "layered-dfs")


@dataclass(frozen=True)
class Query:
    """A query in normal form: the base evaluator kind (EF, EG, EFEF for
    EF(p && EF q) or EFEG for EF(p && EG q)), its operands, and whether
    the verdict is negated."""

    kind: str
    p: object
    q: object = None
    negate: bool = False


def parse_query(text):
    parser = expr.Parser(text, allow_clock=True)
    tok = parser.peek()
    if tok.kind == "NAME" and tok.text in ("EF", "EG", "AF", "AG"):
        op = parser.next().text
        start, p = parser.peek(), None
        if op == "EF" and start.kind == "(":
            # EF (p && EF q), EF (p && EG q), or a predicate that starts
            # with a parenthesis: an expression stops before && only where
            # EF or EG follows
            parser.deeper()
            parser.next()
            first = parser.peek()
            p = parser.expression()
            if parser.peek().kind == "&&":
                p = parser.check(first, p, True)
                parser.next()
                inner = parser.next().text
                q = parser.operand(True)
                parser.close()
                parser.expect("EOF")
                return Query("EF" + inner, p, q)
            parser.close()
        p = parser.check(start, parser.expression(1, p, start), True)
        parser.expect("EOF")
        if op in ("AF", "AG"):
            return Query("EG" if op == "AF" else "EF", expr.Not(p), negate=True)
        return Query(op, p)
    p = parser.operand(True)
    parser.expect("-->")
    q = parser.operand(True)
    parser.expect("EOF")
    return Query("EFEG", p, expr.Not(q), negate=True)


def compile_entry_expr(kernel, node, boolean=False, final=None):
    """Compile a predicate (boolean) or an indicator of kernel's model into
    a function of a walk entry, a (cid, vid) pair of kernel.

    Components are read by position in kernel.values, clocks and at() by
    agent position in kernel.configs; a clock reads as a plain int, which
    expr keeps exact under division.  An indicator returns a number in
    kernel form (see expr).  final(entry) answers 'final', which
    is refused when final is None.  Every name is resolved here, so a bad
    one is reported before any state is seen, also in a branch that is
    never taken.
    """
    m = kernel.model
    configs, values = kernel.configs, kernel.values
    index = {name: i for i, name in enumerate(m.component_names)}
    agents = {a.name: (i, a) for i, a in enumerate(m.agents)}

    def leaf(node, bind):
        if isinstance(node, expr.Ref):
            if node.name not in index:
                raise UnknownReference(f"unknown component {node.name!r}")
            return f"{bind(values)}[a[1]][{index[node.name]:d}]"
        if isinstance(node, expr.FinalTest):
            if final is None:
                raise PredicateError("'final' is not available in an indicator")
            return f"{bind(final)}(a)"
        atom = "clock" if isinstance(node, expr.ClockRef) else "at"
        if node.agent not in agents:
            raise PredicateError(f"unknown agent {node.agent!r} in {atom}(...)")
        i, agent = agents[node.agent]
        if atom == "clock":
            return f"{bind(configs)}[a[0]][1][{i:d}]"
        if node.locality not in agent.localities:
            raise PredicateError(
                f"{node.locality!r} is not a locality of agent {node.agent!r}")
        return f"{bind(configs)}[a[0]][0][{i:d}] == {bind(node.locality)}"

    return codegen.compile_expr(node, leaf, boolean)


@dataclass
class CheckStats:
    states_expanded: int = 0
    borders_crossed: int = 0
    clusters_formed: int = 0
    peak_frontier: int = 0


@dataclass(frozen=True)
class CheckResult:
    verdict: bool
    stats: CheckStats


@dataclass(frozen=True)
class Heuristic:
    """Cluster ordering: weight maps a state to a rational (or +-inf);
    ascending expands the heaviest pending cluster first, descending the
    lightest."""

    name: str
    order: str
    weight: object


def _visitor(kernel, query, budget, stats):
    """The base evaluator of query as a walk's visit(entry, mark).

    It returns (verdict_found, keep_expanding, new_mark); a dropped state
    (EG under !p) reports keep_expanding False.  p, q and final (X bound
    reached, or nothing enabled) are compiled once, here.
    """
    final = kernel.final
    p = compile_entry_expr(kernel, query.p, True, final)
    if query.q is not None:
        q = compile_entry_expr(kernel, query.q, True, final)

    def ef(s, mark):
        found = p(s)
        return found, not found, False

    def eg(s, mark):
        holds = p(s)
        found = holds and final(s)
        return found, holds and not found, False

    def efef(s, mark):
        mark = mark or p(s)
        found = mark and q(s)
        return found, not found, mark

    def efeg(s, mark):
        mark = q(s) and (mark or p(s))
        found = mark and final(s)
        return found, not found, mark

    evaluate = {"EF": ef, "EG": eg, "EFEF": efef, "EFEG": efeg}[query.kind]

    def visit(s, mark):
        stats.states_expanded += 1
        if stats.states_expanded > budget:
            raise BudgetExceeded(f"check exceeded {budget} states")
        return evaluate(s, mark)

    return visit


def _width(kernel, visit, stats):
    border, stats.peak_frontier = layers.walk(
        layers.CutMatcher(kernel, ()), [(kernel.start, False)], visit, {})
    return border is None


def _layered(kernel, visit, stats, cuts, strong, heuristic):
    """Walk cluster by cluster, each up to the next border.

    Pending clusters sit in one heap.  Without a heuristic the key is
    -borders_crossed when the cluster was found, so the latest border's
    clusters come first, in the order found: depth-first across borders,
    FIFO over the clusters of one border.

    Every cluster walk shares one seen map, from each state walked to its
    strongest mark, so a state reached through several clusters is
    expanded once, or twice when it comes marked after an unmarked walk.
    That is sound because the verdict is existential over every reachable
    (state, mark) pair, a mark subsumes no mark, and every successor of a
    walked state is walked or lands on a border that is walked later.  A
    popped cluster with nothing left to walk is dropped and crosses no
    border.
    """
    configs, numbers = kernel.configs, kernel.numbers
    matcher = layers.CutMatcher(kernel, cuts)
    split = layers.clusters(kernel, strong)
    seen = {}
    heap = []
    seq = count()

    def push(cluster):
        if heuristic is None:
            key = -stats.borders_crossed
        else:
            # the State of the entry with the least (values, State)
            rep = min((s for s, _ in cluster),
                      key=lambda e: (numbers(e[1]),) + configs[e[0]])
            w = heuristic.weight(kernel.state(rep))
            key = -w if heuristic.order == "ascending" else w
        heapq.heappush(heap, (key, next(seq), cluster))

    push(((kernel.start, False),))
    while heap:
        stats.peak_frontier = max(stats.peak_frontier, len(heap))
        cluster = heapq.heappop(heap)[2]
        border, peak = layers.walk(matcher, cluster, visit, seen)
        if border is None:
            return True
        if not peak:
            continue
        stats.borders_crossed += 1
        found = split(border)
        stats.clusters_formed += len(found)
        for c in found:
            push(c)
    return False


def check(m, query, x_bound=None, semantics="accelerated", strategy="layered-dfs",
          strong_set=None, heuristic=None, *, cuts=None, budget=sem.DEFAULT_BUDGET):
    """Evaluate a query at the initial state; returns CheckResult.

    With strategy 'layered-dfs' and no cuts supplied, the best coherent
    cut (largest margin from every event window) is chosen automatically;
    supplied cuts are checked against the model first (MalformedState).
    The width strategy reads no cuts, strong set or heuristic, so it
    refuses each with ValueError.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if heuristic is not None and strategy != "layered-dfs":
        raise ValueError("a heuristic requires the layered-dfs strategy")
    if cuts is not None:
        layers.validate_cuts(m, cuts)
    strong = layers.strong_components(m, strong_set)
    if strategy == "width":
        if cuts is not None:
            raise ValueError("cuts require the layered-dfs strategy")
        if strong_set is not None:
            raise ValueError("a strong or weak set requires the layered-dfs strategy")
    kernel = sem.Kernel(m, semantics, x_bound)
    stats = CheckStats()
    visit = _visitor(kernel, query, budget, stats)
    if strategy == "width":
        verdict = _width(kernel, visit, stats)
    else:
        if cuts is None:
            cuts = (layers.best_cut(m),)
        if not cuts:
            raise ValidationError("layered-dfs needs at least one cut")
        verdict = _layered(kernel, visit, stats, cuts, strong, heuristic)
    return CheckResult(verdict != query.negate, stats)


# indicator sweep


@dataclass(frozen=True)
class SweepVersion:
    state: object
    bounds: tuple    # one (low, high) pair per indicator


@dataclass(frozen=True)
class SweepResult:
    names: tuple
    versions: tuple

    def overall(self, name):
        """Hull of one indicator's bounds over every final version."""
        i = self.names.index(name)
        lows = [v.bounds[i][0] for v in self.versions]
        highs = [v.bounds[i][1] for v in self.versions]
        return (min(lows), max(highs))


def sweep_indicators(m, indicators, x_bound=None, semantics="accelerated", *,
                     time_bound=None, budget=sem.DEFAULT_BUDGET):
    """Track per-run [min, max] envelopes of named expressions.

    indicators is a mapping or list of (name, expression) pairs; each
    expression may read components, clocks and at(), but not final, and
    is compiled once.  A version is one final state together with the
    envelope its run history produced; distinct histories with different
    envelopes survive deduplication separately.  Versions come sorted on
    their localities, clocks, values and bounds.  Each name must be an
    identifier, given once.

    The expressions are compiled first, so a bad name is reported before
    any state is seen.  explore_kernel then decides the bounded space over
    the same kernel, with its errors: a state at two time distances, or
    more than budget states.  The walk tags each of its states with an
    envelope; more than budget (state, envelope) entries raise
    BudgetExceeded too.
    """
    if isinstance(indicators, dict):
        items = list(indicators.items())
    else:
        items = list(indicators)
    names = tuple(name for name, _ in items)
    for name in names:
        if not isinstance(name, str) or not _IDENT.match(name):
            raise ParseError(f"indicator name {name!r} is not an identifier")
        if names.count(name) > 1:
            raise ParseError(f"indicator name {name!r} is given twice")
    nodes = [expr.parse_expression(text) for _, text in items]
    kernel = sem.Kernel(m, semantics, x_bound, time_bound)
    readers = []
    for node in nodes:
        boolean = isinstance(node, expr.BOOLEAN)
        read = compile_entry_expr(kernel, node, boolean)
        if boolean:
            read = lambda s, holds=read: int(holds(s))
        readers.append(read)
    ex = sem.explore_kernel(kernel, budget)

    def measure(s):
        return tuple([read(s) for read in readers])

    # the walk tags each entry with an envelope id: envelopes[eid] is a
    # tuple of (low, high) pairs of kernel numbers, one per indicator
    envelopes = []
    eids = {}

    def intern(bounds):
        eid = eids.setdefault(bounds, len(envelopes))
        if eid == len(envelopes):
            envelopes.append(bounds)
        return eid

    def widen(eid, e, t):
        bounds = envelopes[eid]
        measured = measure(t)
        for (lo, hi), v in zip(bounds, measured):
            if not _within(v, lo, hi):
                return intern(tuple([
                    (v if expr.compare(v, lo) < 0 else lo,
                     v if expr.compare(v, hi) > 0 else hi)
                    for (lo, hi), v in zip(bounds, measured)]))
        return eid

    steps = sem.walk(ex, intern(tuple((v, v) for v in measure(kernel.start))), widen,
                     budget=budget, message=f"sweep exceeded {budget} entries")
    ends = [(s, eid) for s, eid, succ in steps if not succ]
    view = kernel.view(s for s, _ in ends)
    bounds = {eid: tuple([(expr.from_kernel(lo), expr.from_kernel(hi))
                          for lo, hi in envelopes[eid]])
              for eid in {eid for _, eid in ends}}
    versions = [SweepVersion(view[s], bounds[eid]) for s, eid in ends]
    versions.sort(key=lambda v: (v.state.localities, v.state.clocks, v.state.values,
                                 v.bounds))
    return SweepResult(names, tuple(versions))


def _within(v, lo, hi):
    """lo <= v <= hi, for kernel numbers."""
    if type(v) is int and type(lo) is int and type(hi) is int:
        return lo <= v <= hi
    return expr.compare(lo, v) <= 0 <= expr.compare(hi, v)


# builtin heuristics


def _need(m, name):
    """The position of component name in a state's values."""
    try:
        return m.component_names.index(name)
    except ValueError:
        raise MissingComponent(f"model declares no component {name!r}")


def distance_heuristic(m, ahead, behind):
    """Gap between two position components; widest gap explored first."""
    i, j = _need(m, ahead), _need(m, behind)

    def weight(s):
        values = s.values
        return values[i] - values[j]

    return Heuristic(f"distance({ahead},{behind})", "ascending", weight)


def estimated_travel_time_heuristic(m, elapsed, position, speed, goal):
    """Predicted arrival time at a goal position; latest arrival first.
    A non-positive speed predicts no arrival at all (+inf)."""
    i_elapsed = _need(m, elapsed)
    i_position = _need(m, position)
    i_speed = _need(m, speed)
    goal = expr.rational(goal, "goal")

    def weight(s):
        values = s.values
        v = values[i_speed]
        if v <= 0:
            return math.inf
        return expr.exact(values[i_elapsed] + Fraction(goal - values[i_position], v))

    return Heuristic(f"estimated_travel_time({position})", "ascending", weight)


def time_to_overtake_heuristic(m, lead_pos, lead_speed, chase_pos, chase_speed):
    """Time until the chasing component catches the leading one at current
    speeds; soonest overtake explored first, diverging pairs last."""
    i_lead_pos, i_lead_speed, i_chase_pos, i_chase_speed = (
        _need(m, name) for name in (lead_pos, lead_speed, chase_pos, chase_speed))

    def weight(s):
        values = s.values
        gap = values[i_lead_pos] - values[i_chase_pos]
        closing = values[i_chase_speed] - values[i_lead_speed]
        if gap == 0:
            return 0
        if closing == 0:
            return math.inf
        tau = expr.exact(Fraction(gap, closing))
        return tau if tau > 0 else math.inf

    return Heuristic(f"time_to_overtake({lead_pos},{chase_pos})", "descending", weight)


def builtin_heuristics():
    """Factories for the shipped heuristics, keyed by registry name."""
    return {
        "distance": distance_heuristic,
        "estimated_travel_time": estimated_travel_time_heuristic,
        "time_to_overtake": time_to_overtake_heuristic,
    }
