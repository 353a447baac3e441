"""On-the-fly reachability checking over the bounded state space.

Seven query forms are accepted; all reduce to four base evaluators (EF,
EG, EF(p && EF q), EF(p && EG q)) plus an optional final negation:

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

from . import expr, layers
from . import semantics as sem
from .errors import (BudgetExceeded, MissingComponent, ParseError,
                     PredicateError, UnknownReference, ValidationError)
from .model import _IDENT, validate_acyclicity

STRATEGIES = ("width", "layered-dfs")


@dataclass(frozen=True)
class SimpleQuery:
    op: str          # EF, EG, AF or AG
    pred: object


@dataclass(frozen=True)
class NestedQuery:
    inner: str       # EF or EG
    p: object
    q: object


@dataclass(frozen=True)
class LeadsToQuery:
    p: object
    q: object


def parse_query(text):
    parser = expr.Parser(text, allow_clock=True)
    tok = parser.peek()
    if tok.kind == "NAME" and tok.text in ("EF", "EG", "AF", "AG"):
        op = tok.text
        parser.next()
        if op == "EF" and parser.peek().kind == "(":
            save = parser.pos
            try:
                parser.next()
                p = parser.pred()
                parser.expect("&&")
                inner_tok = parser.peek()
                if inner_tok.kind != "NAME" or inner_tok.text not in ("EF", "EG"):
                    parser.fail("expected EF or EG")
                inner = parser.next().text
                q = parser.pred()
                parser.expect(")")
                parser.expect("EOF")
                return NestedQuery(inner, p, q)
            except ParseError:
                parser.pos = save
        pred = parser.pred()
        parser.expect("EOF")
        return SimpleQuery(op, pred)
    p = parser.pred()
    if parser.peek().kind == "-->":
        parser.next()
        q = parser.pred()
        parser.expect("EOF")
        return LeadsToQuery(p, q)
    parser.expect("-->")


def _normalize(query):
    """Reduce any query form to (kind, p, q, negate_verdict)."""
    if isinstance(query, SimpleQuery):
        if query.op == "EF":
            return ("EF", query.pred, None, False)
        if query.op == "EG":
            return ("EG", query.pred, None, False)
        if query.op == "AF":
            return ("EG", expr.Not(query.pred), None, True)
        return ("EF", expr.Not(query.pred), None, True)
    if isinstance(query, NestedQuery):
        kind = "EFEF" if query.inner == "EF" else "EFEG"
        return (kind, query.p, query.q, False)
    return ("EFEG", query.p, expr.Not(query.q), True)


def compile_entry_expr(kernel, node, boolean=False, final=None):
    """Compile a predicate (boolean) or an indicator of kernel's model into
    a function of a walk entry, a (cid, vid) pair of kernel.

    Components are read by position in kernel.values, clocks and at() by
    agent position in kernel.configs; a clock reads as a plain int, which
    expr keeps exact under division.  final(entry) answers 'final', which
    is refused when final is None.  Every name is resolved here, so a bad
    one is reported before any state is seen, also in a branch that is
    never taken.
    """
    m = kernel.model
    configs, values = kernel.configs, kernel.values
    index = {name: i for i, name in enumerate(m.component_names)}
    agents = {a.name: (i, a) for i, a in enumerate(m.agents)}

    def leaf(node):
        if isinstance(node, expr.Ref):
            if node.name not in index:
                raise UnknownReference(f"unknown component {node.name!r}")
            i = index[node.name]
            return lambda e: values[e[1]][i]
        if isinstance(node, expr.FinalTest):
            if final is None:
                raise PredicateError("'final' is not available in an indicator")
            return final
        atom = "clock" if isinstance(node, expr.ClockRef) else "at"
        if node.agent not in agents:
            raise PredicateError(f"unknown agent {node.agent!r} in {atom}(...)")
        i, agent = agents[node.agent]
        if atom == "clock":
            return lambda e: configs[e[0]][1][i]
        locality = node.locality
        if locality not in agent.localities:
            raise PredicateError(
                f"{locality!r} is not a locality of agent {node.agent!r}")
        return lambda e: configs[e[0]][0][i] == locality

    return expr.compile_expr(node, leaf, boolean)


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


class _Engine:
    def __init__(self, m, kind, p, q, semantics, x_bound, budget):
        self.kind = kind
        self.kernel = sem.Kernel(m, semantics, x_bound)
        self.budget = budget
        self.stats = CheckStats()
        # X bound reached, or nothing enabled: no successor either way
        self.final = self.kernel.final
        self.p = compile_entry_expr(self.kernel, p, True, self.final)
        self.q = None if q is None else compile_entry_expr(self.kernel, q, True,
                                                            self.final)

    def process(self, s, mark):
        """Apply the base evaluator to one walk entry.

        Returns (verdict_found, keep_expanding, new_mark); a dropped state
        (EG under !p) reports keep_expanding False.
        """
        self.stats.states_expanded += 1
        if self.stats.states_expanded > self.budget:
            raise BudgetExceeded(f"check exceeded {self.budget} states")
        if self.kind == "EF":
            if self.p(s):
                return (True, False, False)
            return (False, True, False)
        if self.kind == "EG":
            if not self.p(s):
                return (False, False, False)
            if self.final(s):
                return (True, False, False)
            return (False, True, False)
        if self.kind == "EFEF":
            mark = mark or self.p(s)
            if mark and self.q(s):
                return (True, False, mark)
            return (False, True, mark)
        holds_q = self.q(s)
        mark = holds_q and (mark or self.p(s))
        if mark and self.final(s):
            return (True, False, mark)
        return (False, True, mark)


def _width(engine):
    kernel = engine.kernel
    border, engine.stats.peak_frontier = layers.walk(
        kernel, [(kernel.start, False)], engine.process, lambda pre, s, seed: False)
    return border is None


def _layered(engine, cuts, strong, heuristic):
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
    kernel = engine.kernel
    configs, values = kernel.configs, kernel.values
    matcher = layers.CutMatcher(kernel, cuts)
    stats = engine.stats
    seen = {}
    heap = []
    seq = count()

    def push(cluster):
        if heuristic is None:
            key = -stats.borders_crossed
        else:
            # the State of the entry with the least (values, State)
            rep = min((s for s, _ in cluster),
                      key=lambda e: (values[e[1]],) + configs[e[0]])
            w = heuristic.weight(kernel.state(rep))
            key = -w if heuristic.order == "ascending" else w
        heapq.heappush(heap, (key, next(seq), cluster))

    push(((kernel.start, False),))
    while heap:
        stats.peak_frontier = max(stats.peak_frontier, len(heap))
        cluster = heapq.heappop(heap)[2]
        if not any(layers.unwalked(seen, s, mark) for s, mark in cluster):
            continue
        border, _ = layers.walk(kernel, cluster, engine.process,
                                matcher.crosses, seen)
        if border is None:
            return True
        stats.borders_crossed += 1
        found = layers.clusters(kernel, border, strong)
        stats.clusters_formed += len(found)
        for c in found:
            push(c)
    return False


def check(m, query, x_bound=None, semantics="accelerated", strategy="layered-dfs",
          strong_set=None, heuristic=None, *, cuts=None, budget=sem.DEFAULT_BUDGET):
    """Evaluate a query at the initial state; returns CheckResult.

    With strategy 'layered-dfs' and no cuts supplied, the best coherent
    cut (largest margin from every event window) is chosen automatically.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if semantics not in sem.SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    if heuristic is not None and strategy != "layered-dfs":
        raise ValueError("a heuristic requires the layered-dfs strategy")
    kind, p, q, negate = _normalize(query)
    engine = _Engine(m, kind, p, q, semantics, x_bound, budget)
    strong = layers.strong_components(m, strong_set)
    if strategy == "width":
        verdict = _width(engine)
    else:
        if cuts is None:
            cuts = (layers.best_cut(m),)
        if not cuts:
            raise ValidationError("layered-dfs needs at least one cut")
        verdict = _layered(engine, cuts, strong, heuristic)
    if negate:
        verdict = not verdict
    return CheckResult(verdict, engine.stats)


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
    envelopes survive deduplication separately.  Each name must be an
    identifier, given once.
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
    nodes = []
    for _, text in items:
        if not isinstance(text, str):
            nodes.append((text, False))
            continue
        try:
            nodes.append((expr.parse_arith(text, allow_clock=True), False))
        except ParseError:
            nodes.append((expr.parse_predicate(text), True))
    kernel = sem.Kernel(m, semantics, x_bound, time_bound)
    readers = []
    for node, boolean in nodes:
        read = compile_entry_expr(kernel, node, boolean)
        if boolean:
            read = lambda s, holds=read: int(holds(s))
        readers.append(read)

    def measure(s):
        return tuple([read(s) for read in readers])

    # the walk tags each entry with an envelope id: envelopes[eid] is a
    # tuple of (low, high) pairs, one per indicator
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
            if v < lo or hi < v:
                return intern(tuple([(min(lo, v), max(hi, v))
                                     for (lo, hi), v in zip(bounds, measured)]))
        return eid

    steps = sem.walk(kernel, kernel.start,
                     intern(tuple((v, v) for v in measure(kernel.start))), widen,
                     budget=budget, message=f"sweep exceeded {budget} entries",
                     trim=validate_acyclicity(m)[0])
    ends = [(s, eid) for s, eid, succ in steps if not succ]
    # sort on the rank of each number among the distinct final values and
    # bounds: the same order as on the numbers, without Fraction compares.
    # The ranks are read once per value id and per envelope id, not once
    # per version
    configs, values = kernel.configs, kernel.values
    vids = {vid for (_, vid), _ in ends}
    bounds = {eid: [b for pair in envelopes[eid] for b in pair] for _, eid in ends}
    numbers = {v for vid in vids for v in values[vid]}
    numbers.update(b for flat in bounds.values() for b in flat)
    rank = {v: i for i, v in enumerate(sorted(numbers))}
    value_ranks = {vid: [rank[v] for v in values[vid]] for vid in vids}
    bound_ranks = {eid: [rank[b] for b in flat] for eid, flat in bounds.items()}
    ends.sort(key=lambda end: (configs[end[0][0]], value_ranks[end[0][1]],
                               bound_ranks[end[1]]))
    view = kernel.view(s for s, _ in ends)
    versions = [SweepVersion(view[s], envelopes[eid]) for s, eid in ends]
    return SweepResult(names, tuple(versions))


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
    try:
        goal = expr.exact(Fraction(goal))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"goal: cannot read a rational from {goal!r}")

    def weight(s):
        values = s.values
        v = values[i_speed]
        if v <= 0:
            return math.inf
        return expr.exact(values[i_elapsed] + Fraction(goal - values[i_position], v))

    return Heuristic(f"estimated_travel_time({position})", "ascending", weight)


def time_to_overtake_heuristic(m, lead_pos, lead_speed, chase_pos, chase_speed):
    """Time until the chasing component catches the leading one at current
    speeds; soonest overtake explored first, diverging pairs never."""
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
