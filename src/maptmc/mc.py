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
heuristic replaces that discipline with a weight-ordered frontier.  The
verdict never depends on the strategy, only the visit order does.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr, layers
from . import semantics as sem
from .errors import (BudgetExceeded, MissingComponent, ParseError,
                     PredicateError, UnknownReference, ValidationError)

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


class StateEnv(expr.Env):
    def __init__(self, m, state, final_fn):
        self.m = m
        self.state = state
        self.final_fn = final_fn

    def component(self, name):
        return self.state.valuation.get(name)

    def clock(self, agent):
        try:
            return self.state.clocks[self.m.agent_index(agent)]
        except UnknownReference:
            raise PredicateError(f"unknown agent {agent!r} in clock(...)")

    def at(self, agent, locality):
        try:
            a = self.m.agent(agent)
        except UnknownReference:
            raise PredicateError(f"unknown agent {agent!r} in at(...)")
        if locality not in a.localities:
            raise PredicateError(
                f"{locality!r} is not a locality of agent {agent!r}")
        return self.state.localities[self.m.agent_index(agent)] == locality

    def is_final(self):
        return self.final_fn()


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
        self.m = m
        self.kind = kind
        self.p = p
        self.q = q
        self.semantics = semantics
        self.kernel = sem.Kernel(m, semantics, x_bound)
        self.budget = budget
        self.stats = CheckStats()
        self._final_cache = {}

    def final(self, s):
        """X bound reached, or nothing enabled: no successor either way."""
        if s not in self._final_cache:
            self._final_cache[s] = not self.kernel.successors(s)
        return self._final_cache[s]

    def pred(self, node, s):
        env = StateEnv(self.m, s, lambda: self.final(s))
        return expr.eval_bool(node, env)

    def process(self, s, mark):
        """Apply the base evaluator to one state.

        Returns (verdict_found, keep_expanding, new_mark); a dropped state
        (EG under !p) reports keep_expanding False.
        """
        self.stats.states_expanded += 1
        if self.stats.states_expanded > self.budget:
            raise BudgetExceeded(f"check exceeded {self.budget} states")
        if self.kind == "EF":
            if self.pred(self.p, s):
                return (True, False, False)
            return (False, True, False)
        if self.kind == "EG":
            if not self.pred(self.p, s):
                return (False, False, False)
            if self.final(s):
                return (True, False, False)
            return (False, True, False)
        if self.kind == "EFEF":
            mark = mark or self.pred(self.p, s)
            if mark and self.pred(self.q, s):
                return (True, False, mark)
            return (False, True, mark)
        holds_q = self.pred(self.q, s)
        mark = holds_q and (mark or self.pred(self.p, s))
        if mark and self.final(s):
            return (True, False, mark)
        return (False, True, mark)


def _width(engine):
    init = sem.initial_state(engine.m)
    queue = deque([(init, False)])
    seen = {init: False}
    while queue:
        engine.stats.peak_frontier = max(engine.stats.peak_frontier, len(queue))
        s, mark = queue.popleft()
        found, expand, mark = engine.process(s, mark)
        if found:
            return True
        if not expand:
            continue
        for _, t in engine.kernel.successors(s):
            if t not in seen or (mark and not seen[t]):
                seen[t] = mark or seen.get(t, False)
                queue.append((t, mark))
    return False


def _layered(engine, cuts, strong, heuristic):
    matcher = layers.CutMatcher(engine.m, cuts, engine.semantics)
    init = sem.initial_state(engine.m)
    first = ((init, False),)

    if heuristic is None:
        stack = [deque([first])]

        def pending():
            return sum(len(d) for d in stack)

        def pop():
            while stack and not stack[-1]:
                stack.pop()
            if not stack:
                return None
            return stack[-1].popleft()

        def push(clusters):
            if clusters:
                stack.append(deque(clusters))
    else:
        heap = []
        seq = [0]

        def weigh(cluster):
            rep = min((s for s, _ in cluster),
                      key=lambda st: (st.valuation.values, st.sort_key()))
            w = heuristic.weight(rep)
            return -w if heuristic.order == "ascending" else w

        def pending():
            return len(heap)

        def pop():
            if not heap:
                return None
            return heapq.heappop(heap)[2]

        def push(clusters):
            for cluster in clusters:
                heapq.heappush(heap, (weigh(cluster), seq[0], cluster))
                seq[0] += 1

        push([first])

    while True:
        engine.stats.peak_frontier = max(engine.stats.peak_frontier, pending())
        cluster = pop()
        if cluster is None:
            return False
        border_marks = {}
        queue = deque(cluster)
        seed_set = frozenset(s for s, _ in cluster)
        local_seen = {s: mk for s, mk in cluster}
        while queue:
            s, mark = queue.popleft()
            found, expand, mark = engine.process(s, mark)
            if found:
                return True
            if not expand:
                continue
            for _, t in engine.kernel.successors(s):
                if matcher.crosses(s, t, s in seed_set):
                    border_marks[t] = border_marks.get(t, False) or mark
                    continue
                if t not in local_seen or (mark and not local_seen[t]):
                    local_seen[t] = mark or local_seen.get(t, False)
                    queue.append((t, mark))
        engine.stats.borders_crossed += 1
        groups = {}
        for t, mk in border_marks.items():
            groups.setdefault(t.valuation.strong_part(strong), {})[t] = mk
        clusters = []
        for key in sorted(groups):
            entries = tuple(sorted(groups[key].items(),
                                   key=lambda kv: kv[0].sort_key()))
            clusters.append(entries)
        engine.stats.clusters_formed += len(clusters)
        push(clusters)


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
    if strategy == "width":
        verdict = _width(engine)
    else:
        if cuts is None:
            cuts = (layers.best_cut(m),)
        if not cuts:
            raise ValidationError("layered-dfs needs at least one cut")
        strong = frozenset(m.strong_names if strong_set is None else strong_set)
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
    expression may read components and clocks.  A version is one final
    state together with the envelope its run history produced; distinct
    histories with different envelopes survive deduplication separately.
    """
    if isinstance(indicators, dict):
        items = list(indicators.items())
    else:
        items = list(indicators)
    names = tuple(name for name, _ in items)
    nodes = []
    for _, text in items:
        if not isinstance(text, str):
            nodes.append((text, False))
            continue
        try:
            nodes.append((expr.parse_arith(text, allow_clock=True), False))
        except ParseError:
            nodes.append((expr.parse_predicate(text), True))
    nodes = tuple(nodes)
    kernel = sem.Kernel(m, semantics, x_bound, time_bound)

    def measure(s):
        env = StateEnv(m, s, lambda: False)
        out = []
        for node, boolean in nodes:
            if boolean:
                out.append(Fraction(1 if expr.eval_bool(node, env) else 0))
            else:
                out.append(expr.eval_arith(node, env))
        return tuple(out)

    init = sem.initial_state(m)
    first = measure(init)
    start = (init, tuple((v, v) for v in first))
    seen = {start}
    queue = deque([(init, start[1], 0)])
    versions = []
    processed = 0
    while queue:
        s, bounds, elapsed = queue.popleft()
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"sweep exceeded {budget} entries")
        succ = kernel.successors(s, elapsed)
        if not succ:
            versions.append(SweepVersion(s, bounds))
            continue
        for e, t in succ:
            vals = measure(t)
            nb = tuple((min(lo, v), max(hi, v))
                       for (lo, hi), v in zip(bounds, vals))
            key = (t, nb)
            if key not in seen:
                seen.add(key)
                gain = e.amount if isinstance(e, sem.Delay) else 0
                queue.append((t, nb, elapsed + gain))
    versions.sort(key=lambda v: (v.state.sort_key(), v.bounds))
    return SweepResult(names, tuple(versions))


# builtin heuristics


def _need(m, name):
    try:
        m.component(name)
    except UnknownReference:
        raise MissingComponent(f"model declares no component {name!r}")


def distance_heuristic(m, ahead, behind):
    """Gap between two position components; widest gap explored first."""
    _need(m, ahead)
    _need(m, behind)

    def weight(s):
        return s.valuation.get(ahead) - s.valuation.get(behind)

    return Heuristic(f"distance({ahead},{behind})", "ascending", weight)


def estimated_travel_time_heuristic(m, elapsed, position, speed, goal):
    """Predicted arrival time at a goal position; latest arrival first.
    A non-positive speed predicts no arrival at all (+inf)."""
    _need(m, elapsed)
    _need(m, position)
    _need(m, speed)
    try:
        goal = Fraction(goal)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"goal: cannot read a rational from {goal!r}")

    def weight(s):
        v = s.valuation.get(speed)
        if v <= 0:
            return math.inf
        return s.valuation.get(elapsed) + (goal - s.valuation.get(position)) / v

    return Heuristic(f"estimated_travel_time({position})", "ascending", weight)


def time_to_overtake_heuristic(m, lead_pos, lead_speed, chase_pos, chase_speed):
    """Time until the chasing component catches the leading one at current
    speeds; soonest overtake explored first, diverging pairs never."""
    for name in (lead_pos, lead_speed, chase_pos, chase_speed):
        _need(m, name)

    def weight(s):
        gap = s.valuation.get(lead_pos) - s.valuation.get(chase_pos)
        closing = s.valuation.get(chase_speed) - s.valuation.get(lead_speed)
        if gap == 0:
            return Fraction(0)
        if closing == 0:
            return math.inf
        tau = gap / closing
        return tau if tau > 0 else math.inf

    return Heuristic(f"time_to_overtake({lead_pos},{chase_pos})", "descending", weight)


def builtin_heuristics():
    """Factories for the shipped heuristics, keyed by registry name."""
    return {
        "distance": distance_heuristic,
        "estimated_travel_time": estimated_travel_time_heuristic,
        "time_to_overtake": time_to_overtake_heuristic,
    }
