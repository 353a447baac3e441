"""Execution semantics: original one-tick dynamics and the accelerated
variant that jumps to the end of the first maximal action zone.

States are (localities, clocks, valuation).  Three event kinds exist:
Fire (a transition moves one agent and rewrites the shared valuation),
Reset (an agent at its final locality with clock exactly at the reset
period returns to the start), and Delay (all clocks advance together;
by one tick in the original semantics, by the computed zone shift in the
accelerated one).
"""

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr
from .errors import BudgetExceeded, MalformedState, NotEnabled, ValidationError
from .model import validate_acyclicity

DEFAULT_BUDGET = 100_000

SEMANTICS = ("original", "accelerated")


@dataclass(frozen=True, slots=True)
class State:
    """Immutable state; its hash is computed once, when it is built."""

    localities: tuple
    clocks: tuple
    valuation: object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.localities, self.clocks, self.valuation)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # the hash covers the locality names, whose string hashes differ
        # between processes: a pickled state is rebuilt, hash and all
        return State, (self.localities, self.clocks, self.valuation)

    def sort_key(self):
        return (self.localities, self.clocks, self.valuation.values)

    def config(self):
        return (self.localities, self.clocks)


@dataclass(frozen=True, slots=True)
class Fire:
    transition: str


@dataclass(frozen=True, slots=True)
class Reset:
    agent: str


@dataclass(frozen=True, slots=True)
class Delay:
    amount: int


def event_label(e):
    if isinstance(e, Fire):
        return e.transition
    if isinstance(e, Reset):
        return f"reset_{e.agent}"
    return f"+{e.amount}"


def initial_state(m):
    return State(
        tuple(a.init_locality for a in m.agents),
        tuple(a.init_clock for a in m.agents),
        m.initial_valuation(),
    )


def check_state(m, s):
    if len(s.localities) != len(m.agents) or len(s.clocks) != len(m.agents):
        raise MalformedState("state arity does not match the model")
    for a, loc, c in zip(m.agents, s.localities, s.clocks):
        if loc not in a.localities:
            raise MalformedState(f"{loc!r} is not a locality of agent {a.name!r}")
        if c < 0:
            raise MalformedState(f"negative clock for agent {a.name!r}")
    if s.valuation.names != m.component_names:
        raise MalformedState("valuation components do not match the model")


@dataclass(frozen=True)
class ZoneInfo:
    b_per_agent: tuple
    b: int
    a: int
    delta: int


@dataclass(frozen=True, slots=True)
class _Row:
    """What one agent can do at one locality.

    exits holds (lower, upper, Fire event, target, compiled transform) per
    outgoing transition in declaration order.  cap is the last clock value
    at which time may still pass: the reset period at the final locality,
    the latest exit bound elsewhere.  lowers and uppers are the window
    bounds the zone computation reads (the reset period at the final
    locality).  reset is the Reset event at the final locality, else None.
    """

    exits: tuple
    cap: int
    lowers: tuple
    uppers: tuple
    reset: object
    restart: str


def _compile_transform(f, index):
    """Apply transform f to a value tuple; all effects read the old values."""
    effects = sorted((index[name], expr.compile_arith(node, index))
                     for name, node in f.effects.items())

    def apply(values):
        out = list(values)
        for i, effect in effects:
            out[i] = effect(values)
        return tuple(out)

    return apply


def _zone(rows, clocks):
    """Horizon b per agent and overall, next-activation distance a and jump
    width delta.

    b caps the jump so no agent runs past its last exit or its reset; a is
    the distance to the earliest newly-enabled fire or reset within b;
    delta is the earliest closing bound at or after a (the end of the
    first maximal action zone).  a == 0 means nothing new opens within the
    horizon and delta is 0 as well.
    """
    b_per_agent = tuple([row.cap - c for row, c in zip(rows, clocks)])
    horizon = min(b_per_agent)
    start = 0
    for row, c in zip(rows, clocks):
        for low in row.lowers:
            d = low - c
            if 0 < d <= horizon and (not start or d < start):
                start = d
    if not start:
        return b_per_agent, horizon, 0, 0
    # the agent that sets the horizon closes there, so delta <= horizon
    delta = horizon
    for row, c in zip(rows, clocks):
        for up in row.uppers:
            d = up - c
            if start <= d < delta:
                delta = d
    return b_per_agent, horizon, start, delta


class Kernel:
    """The successors of a state, for one model under one semantics.

    Every exploring call builds one.  It holds a table per agent and
    locality of the outgoing transitions, with their Fire and Reset events
    shared and their transforms compiled by expr.compile_arith.  Which
    fires, resets and delay a state can take depends only on its
    configuration, its (localities, clocks) pair, so the kernel plans each
    configuration once, the first time it sees it: the enabled events,
    their target localities and clocks and, when accelerated, the one zone
    computation.  Per state only the X bound, the time bound and the
    transforms are left.  It never validates a state: the public functions
    below run check_state on the state they are given, and the exploring
    loops only feed it states it produced.

    Events come out in a fixed order: fires by agent and then in
    declaration order, then resets by agent, then the delay.  With an X
    bound a state that has reached it has no successors; with a time
    bound a delay is dropped when it would take the run past it.
    """

    def __init__(self, m, semantics, x_bound=None, time_bound=None):
        if semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {semantics!r}")
        self.accelerated = semantics == "accelerated"
        index = {name: i for i, name in enumerate(m.component_names)}
        self.x_bound = tuple((index[name], bound) for name, bound in
                             (normalize_x_bound(m, x_bound) or {}).items())
        self.time_bound = time_bound
        transforms = {fid: _compile_transform(f, index)
                      for fid, f in m.transforms.items()}
        self._tables = []
        for a in m.agents:
            table = {}
            for loc in a.localities:
                exits = tuple((t.lower, t.upper, Fire(t.id), t.target,
                               transforms[t.transform])
                              for t in a.outgoing(loc))
                if loc == a.final_locality:
                    period = (a.reset_period,)
                    table[loc] = _Row(exits, a.reset_period, period, period,
                                      Reset(a.name), a.initial_locality)
                else:
                    table[loc] = _Row(exits, max(t[1] for t in exits),
                                      tuple(t[0] for t in exits),
                                      tuple(t[1] for t in exits), None, "")
            self._tables.append(table)
        self._plans = {}

    def _rows(self, s):
        return [table[loc] for table, loc in zip(self._tables, s.localities)]

    def _plan(self, s):
        """The moves of s's configuration, whatever its valuation and the
        bounds: (fires, resets, delay).  A fire is (event, localities,
        clocks, transform), a reset (event, localities, clocks) and the
        delay (event, localities, clocks), or None when time cannot pass.
        Every state of one configuration shares these tuples."""
        key = (s.localities, s.clocks)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        locs, clocks = key
        rows = self._rows(s)
        fires = []
        resets = []
        for i, (row, c) in enumerate(zip(rows, clocks)):
            for lower, upper, event, target, apply in row.exits:
                if lower <= c <= upper:
                    fires.append((event, locs[:i] + (target,) + locs[i + 1:],
                                  clocks, apply))
            if row.reset is not None and c == row.cap:
                resets.append((row.reset, locs[:i] + (row.restart,) + locs[i + 1:],
                               clocks[:i] + (0,) + clocks[i + 1:]))
        if self.accelerated:
            amount = _zone(rows, clocks)[3]
        else:
            amount = 1 if all(c < row.cap for row, c in zip(rows, clocks)) else 0
        delay = None
        if amount:
            delay = (Delay(amount), locs, tuple([c + amount for c in clocks]))
        plan = self._plans[key] = (tuple(fires), tuple(resets), delay)
        return plan

    def zone(self, s):
        return ZoneInfo(*_zone(self._rows(s), s.clocks))

    def acts(self, s):
        """True when a fire or a reset is enabled in s, whatever the bounds."""
        fires, resets, _ = self._plan(s)
        return bool(fires or resets)

    def reached(self, s):
        """True when s has reached the X bound: every bounded component is
        at or past its bound."""
        values = s.valuation.values
        for i, bound in self.x_bound:
            if values[i] < bound:
                return False
        return bool(self.x_bound)

    def _delay(self, delay, elapsed):
        """The planned delay, unless it would take a run at time distance
        elapsed past the time bound."""
        if delay is not None and (self.time_bound is None or
                                  elapsed + delay[0].amount <= self.time_bound):
            return delay
        return None

    def final(self, s, elapsed=0):
        """True when s has no successor within the bounds, the same as
        not self.successors(s, elapsed), without building any."""
        if self.reached(s):
            return True
        fires, resets, delay = self._plan(s)
        return not (fires or resets or self._delay(delay, elapsed))

    def successors(self, s, elapsed=0):
        """(event, target) pairs for every event enabled in s within the
        bounds; elapsed is the time distance of s from the start."""
        if self.reached(s):
            return []
        fires, resets, delay = self._plan(s)
        valuation = s.valuation
        values = valuation.values
        out = [(event, State(locs, clocks, valuation.with_values(apply(values))))
               for event, locs, clocks, apply in fires]
        out += [(event, State(locs, clocks, valuation))
                for event, locs, clocks in resets]
        delay = self._delay(delay, elapsed)
        if delay is not None:
            event, locs, clocks = delay
            out.append((event, State(locs, clocks, valuation)))
        return out


def enabled(m, s, semantics):
    check_state(m, s)
    return tuple(e for e, _ in Kernel(m, semantics).successors(s))


def zone_info(m, s):
    """Horizon, next-activation distance and jump width of s (see _zone)."""
    check_state(m, s)
    return Kernel(m, "accelerated").zone(s)


def step(m, s, e):
    """Execute one event; raises NotEnabled if it cannot happen in s.

    A delay is accepted when either semantics enables it: one tick, or
    the accelerated jump width.  Both semantics enable the same fires and
    resets, and a jump of width 1 or more leaves every clock below its cap,
    so one tick is enabled too; only a longer delay needs the accelerated
    kernel.
    """
    check_state(m, s)
    if isinstance(e, Fire):
        m.transition(e.transition)
    elif isinstance(e, Reset):
        m.agent(e.agent)
    elif not isinstance(e, Delay):
        raise NotEnabled(f"unknown event {e!r}")
    jump = isinstance(e, Delay) and e.amount != 1
    for event, t in Kernel(m, "accelerated" if jump else "original").successors(s):
        if event == e:
            return t
    raise NotEnabled(f"{event_label(e)} is not enabled at "
                     f"localities={s.localities} clocks={s.clocks}")


def successors(m, s, semantics):
    check_state(m, s)
    return tuple(Kernel(m, semantics).successors(s))


def project_word(trace):
    """Drop delays; what remains is the abstracted word."""
    return tuple(e for e in trace if not isinstance(e, Delay))


def normalize_x_bound(m, x_bound):
    """None, a single rational for every X component, or a per-name mapping."""
    if x_bound is None:
        return None
    if isinstance(x_bound, (int, Fraction, str)):
        bound = expr.exact(Fraction(x_bound))
        names = sorted(m.x_names)
        if not names:
            raise ValidationError("model has no X components to bound")
        return {n: bound for n in names}
    out = {}
    for name, raw in x_bound.items():
        m.component(name)
        out[name] = expr.exact(Fraction(raw))
    return out


def walk(kernel, start, tag=None, fold=None, *, budget, message, seen=None,
         trim=False):
    """Width-first walk over the kernel's successors from start; yields
    (state, tag, successors) per entry, in FIFO order.

    Without fold an entry is a state.  With fold it is a (state, tag)
    pair, and a successor's tag is fold(tag, event, successor).  seen maps
    each entry found to its time distance from start (pass a dict to keep
    it); an entry found at two distances means the model is not acyclic.
    Taking more than budget entries raises BudgetExceeded(message).

    With trim, the walk keeps one seen map per time distance instead, and
    drops a distance's map once every queued entry is further away (the
    sweep-line method).  No edge lowers the distance, so no entry below
    the least queued distance can be found again, unless the model is not
    acyclic: then a dropped entry would be walked again, and an entry met
    at two distances goes unnoticed.  So sweep_indicators,
    state_space_equiv and abstract_reachable trim only when
    validate_acyclicity proves the model, and explore never does, since
    its seen map is its output.  The walk order and what it yields do not
    change.
    """
    key = start if fold is None else (start, tag)
    queue = deque([(start, tag, 0)])
    # with trim: time distance -> [entries queued, seen map], and the
    # least distance still queued
    levels = None
    if trim:
        levels = {0: [1, {}]}
        seen = levels[0][1]
    elif seen is None:
        seen = {}
    seen[key] = 0
    low = 0
    taken = 0
    while queue:
        if taken >= budget:
            raise BudgetExceeded(message)
        taken += 1
        s, tag, elapsed = queue.popleft()
        succ = kernel.successors(s, elapsed)
        yield s, tag, succ
        for e, t in succ:
            t_elapsed = elapsed + e.amount if isinstance(e, Delay) else elapsed
            t_tag = None if fold is None else fold(tag, e, t)
            key = t if fold is None else (t, t_tag)
            if levels is not None:
                level = levels.get(t_elapsed)
                if level is None:
                    level = levels[t_elapsed] = [0, {}]
                seen = level[1]
            # one hash per edge: setdefault adds a new entry, or returns
            # the distance an old one was found at
            found = len(seen)
            known = seen.setdefault(key, t_elapsed)
            if len(seen) != found:
                queue.append((t, t_tag, t_elapsed))
                if levels is not None:
                    level[0] += 1
            elif known != t_elapsed:
                raise ValidationError(
                    "a state was reached at two distinct time distances "
                    f"({known} and {t_elapsed}); the model is not acyclic")
        if levels is not None:
            level = levels[elapsed]
            level[0] -= 1
            if not level[0] and elapsed == low and queue:
                low = min(d for d, (queued, _) in levels.items() if queued)
                for d in [d for d in levels if d < low]:
                    del levels[d]


@dataclass(frozen=True)
class Exploration:
    states: dict          # state -> time distance from the initial state
    edges: tuple          # (state, event, state)
    finals: frozenset     # states with no successor within the bounds


def explore(m, semantics, x_bound=None, *, time_bound=None, budget=DEFAULT_BUDGET):
    """Width-first reachable graph within the given bounds.

    Every reachable state of a valid model sits at a single time distance
    from the start; a state found at two distances means the model is not
    acyclic and exploration stops with ValidationError.
    """
    dist = {}
    edges = []
    finals = set()
    for s, _, succ in walk(Kernel(m, semantics, x_bound, time_bound),
                           initial_state(m), budget=budget, seen=dist,
                           message=f"exploration exceeded {budget} states"):
        if not succ:
            finals.add(s)
        for e, t in succ:
            edges.append((s, e, t))
    return Exploration(dist, tuple(edges), frozenset(finals))


def abstract_reachable(m, semantics, x_bound=None, *, time_bound=None,
                       budget=DEFAULT_BUDGET):
    """Words of all maximal runs, with the label each word determines.

    The result maps each projected word (tuple of Fire/Reset events) to
    its (localities, component values) label.  A run is maximal when no
    event remains within the bounds.  Delays never extend the word, so
    the two semantics can be compared through the returned mapping.
    """
    out = {}
    for s, word, succ in walk(
            Kernel(m, semantics, x_bound, time_bound), initial_state(m), (),
            lambda word, e, t: word if isinstance(e, Delay) else word + (e,),
            budget=budget, message=f"abstract exploration exceeded {budget} entries",
            trim=validate_acyclicity(m)[0]):
        if succ:
            continue
        label = (s.localities, s.valuation.values)
        if word in out and out[word] != label:
            raise ValidationError(
                f"word {[event_label(e) for e in word]} determined two labels")
        out[word] = label
    return out
