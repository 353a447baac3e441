"""Execution semantics: original one-tick dynamics and the accelerated
variant that jumps to the end of the first maximal action zone.

A State is (localities, clocks, values), with one locality and one clock
per agent and the component values in declaration order; the walks hold
each as a (configuration id, value id) entry of a Kernel.  Three event
kinds exist: Fire (a transition moves one agent and rewrites the shared
values), Reset (an agent at its final locality with clock exactly at the
reset period returns to the start), and Delay (all clocks advance
together; by one tick in the original semantics, by the computed zone
shift in the accelerated one).
"""

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse

from . import codegen, expr
from .errors import BudgetExceeded, MalformedState, NotEnabled, ValidationError

DEFAULT_BUDGET = 100_000

SEMANTICS = ("original", "accelerated")


@dataclass(frozen=True, slots=True, order=True)
class State:
    """Immutable state: one locality and one clock per agent, and the
    component values in declaration order.  States order as the tuple
    (localities, clocks, values)."""

    localities: tuple
    clocks: tuple
    values: tuple

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
        tuple(c.init for c in m.components),
    )


def check_state(m, s):
    if len(s.localities) != len(m.agents) or len(s.clocks) != len(m.agents):
        raise MalformedState("state arity does not match the model")
    for a, loc, c in zip(m.agents, s.localities, s.clocks):
        if loc not in a.localities:
            raise MalformedState(f"{loc!r} is not a locality of agent {a.name!r}")
        if type(c) is not int:
            raise MalformedState(f"clock {c!r} of agent {a.name!r} is not an int")
        if c < 0:
            raise MalformedState(f"negative clock for agent {a.name!r}")
    if len(s.values) != len(m.components):
        raise MalformedState("valuation components do not match the model")
    for comp, v in zip(m.components, s.values):
        if type(v) is not int and type(v) is not Fraction:
            raise MalformedState(
                f"value {v!r} of component {comp.name!r} is not an int or a Fraction")


@dataclass(frozen=True)
class ZoneInfo:
    b_per_agent: tuple
    b: int
    a: int
    delta: int


@dataclass(frozen=True, slots=True)
class _Row:
    """What one agent can do at one locality.

    exits holds (lower, upper, Fire event, target, compiled transform,
    memo) per outgoing transition in declaration order, where memo is the
    transform's dict from value id to target value id.  cap is the last
    clock value at which time may still pass: the reset period at the
    final locality, the latest exit bound elsewhere.  lowers and uppers
    are the window bounds the zone computation reads (the reset period at
    the final locality).  reset is the Reset event at the final locality,
    else None.
    """

    exits: tuple
    cap: int
    lowers: tuple
    uppers: tuple
    reset: object
    restart: str


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
    """The moves of a walk entry, for one model under one semantics.

    Every exploring call builds one.  A walk entry is a pair (cid, vid) of
    small ints: the kernel interns each (localities, clocks) configuration
    to an index into configs and each tuple of component values to an
    index into values, tables that live as long as the kernel.  values
    holds the numbers in kernel form (see expr): each an int when it is
    whole, else a canonical (numerator, denominator) pair, so equal
    valuations are equal tuples and hash as tuples of ints.  Each
    transform has a memo from value id to the value id it yields, which
    lives as long as the kernel too: a fire applies its transform and
    hashes the result only the first time the transform meets that value
    id, and looks the target up after that.  A reset or a delay keeps its
    value id.  The X-bound test, compiled once as a predicate over the
    components, runs once per value id, when it is interned.  start is the
    entry of the initial state, interned first, so it is (0, 0).

    Which fires, resets and delay an entry can take depends only on its
    configuration, so the kernel plans each configuration id once, the
    first time it is expanded, from its per-agent tables of outgoing
    transitions, with shared Fire and Reset events and each transform
    compiled by codegen.compile_transform into one generated function of
    the value tuple: the enabled events, their target configuration ids
    and, when accelerated, the one zone computation.
    Per entry only the X bound, the time bound and the transforms are
    left.  It never validates a state: the public functions below run
    check_state on the state they are given, and the exploring loops only
    feed it entries it produced.  A State is the view at the edge, its
    numbers ints and Fractions: entry, state and view convert, numbers
    converts the values of one value id, and successors is moves over
    States.  expand is moves over a batch, the value ids of one
    configuration at one time distance, which explore takes at once.  A
    plan is one flat tuple of steps, which moves and expand apply and
    steps reads: layers.walk keeps it in a step table beside the cut
    answers and applies it itself.

    Events come out in a fixed order: fires by agent and then in
    declaration order, then resets by agent, then the delay.  With an X
    bound an entry that has reached it has no moves; with a time bound a
    delay is dropped when it would take the run past it.
    """

    def __init__(self, m, semantics, x_bound=None, time_bound=None):
        if semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {semantics!r}")
        self.model = m
        self.accelerated = semantics == "accelerated"
        index = {name: i for i, name in enumerate(m.component_names)}
        # the X-bound test: every bounded component at or past its bound
        at_bound = None
        for name, bound in (normalize_x_bound(m, x_bound) or {}).items():
            test = expr.Cmp(">=", expr.Ref(name), expr.Num(bound))
            at_bound = test if at_bound is None else expr.BoolBin("&&", at_bound, test)
        self._at_bound = (None if at_bound is None else
                          codegen.compile_arith(at_bound, index, boolean=True))
        self.time_bound = time_bound
        # one memo per transform: value id -> the value id it yields
        transforms = {fid: (codegen.compile_transform(f.effects, index), {})
                      for fid, f in m.transforms.items()}
        self._tables = []
        for a in m.agents:
            table = {}
            for loc in a.localities:
                exits = tuple((t.lower, t.upper, Fire(t.id), t.target)
                              + transforms[t.transform]
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
        self.configs = []       # cid -> (localities, clocks)
        self.values = []        # vid -> component values
        self._cids = {}
        self._vids = {}
        self._plans = []        # cid -> (steps, delay amount), None until planned
        self._reached = []      # vid -> True when the X bound is reached
        self._numbers = {}      # vid -> its values in edge form, once asked
        self.start = self.entry(initial_state(m))

    def _cid(self, localities, clocks):
        config = (localities, clocks)
        cid = self._cids.setdefault(config, len(self.configs))
        if cid == len(self.configs):
            self.configs.append(config)
            self._plans.append(None)
        return cid

    def _vid(self, values):
        """The id of values; a new one is hashed once, here, and tested
        against the X bound."""
        vid = self._vids.setdefault(values, len(self.values))
        if vid == len(self.values):
            self.values.append(values)
            self._reached.append(self._at_bound is not None and self._at_bound(values))
        return vid

    def entry(self, s):
        """The (cid, vid) entry of State s."""
        return (self._cid(s.localities, s.clocks),
                self._vid(tuple([expr.to_kernel(v) for v in s.values])))

    def numbers(self, vid):
        """The component values of value id vid in edge form, ints and
        Fractions, converted the first time they are asked for."""
        out = self._numbers.get(vid)
        if out is None:
            out = self._numbers[vid] = tuple([expr.from_kernel(v)
                                              for v in self.values[vid]])
        return out

    def state(self, entry):
        """The State of an entry."""
        return self.view((entry,))[entry]

    def view(self, entries):
        """{entry: State} for the given entries."""
        configs, numbers = self.configs, self.numbers
        return {(cid, vid): State(*configs[cid], numbers(vid)) for cid, vid in entries}

    def _rows(self, cid):
        return [table[loc] for table, loc in zip(self._tables, self.configs[cid][0])]

    def _plan(self, cid):
        """(steps, delay amount) of configuration cid, whatever the
        valuation and the bounds (see steps); the amount is 0 when time
        cannot pass, and then no step is a delay."""
        locs, clocks = self.configs[cid]
        rows = self._rows(cid)
        steps = []
        resets = []
        for i, (row, c) in enumerate(zip(rows, clocks)):
            for lower, upper, event, target, apply, memo in row.exits:
                if lower <= c <= upper:
                    steps.append((event, self._cid(
                        locs[:i] + (target,) + locs[i + 1:], clocks), apply, memo))
            if row.reset is not None and c == row.cap:
                resets.append((row.reset, self._cid(
                    locs[:i] + (row.restart,) + locs[i + 1:],
                    clocks[:i] + (0,) + clocks[i + 1:]), None, None))
        steps += resets
        if self.accelerated:
            amount = _zone(rows, clocks)[3]
        else:
            amount = 1 if all(c < row.cap for row, c in zip(rows, clocks)) else 0
        if amount:
            steps.append((Delay(amount), self._cid(
                locs, tuple([c + amount for c in clocks])), None, None))
        plan = self._plans[cid] = (tuple(steps), amount)
        return plan

    def zone(self, cid):
        return ZoneInfo(*_zone(self._rows(cid), self.configs[cid][1]))

    def acts(self, cid):
        """True when a fire or a reset is enabled in configuration cid,
        whatever the valuation and the bounds."""
        steps, amount = self._plans[cid] or self._plan(cid)
        return len(steps) > bool(amount)

    def reached(self, entry):
        """True when the entry has reached the X bound: every bounded
        component is at or past its bound."""
        return self._reached[entry[1]]

    def steps(self, cid, elapsed=0):
        """The plan of configuration cid at time distance elapsed: one
        (event, target cid, transform, memo) per event in the order of
        moves, the delay dropped past the time bound.  A reset or the
        delay keeps the value id and has None for transform and memo.  The
        X bound is left to the caller."""
        steps, amount = self._plans[cid] or self._plan(cid)
        if amount and self.time_bound is not None and elapsed + amount > self.time_bound:
            return steps[:-1]
        return steps

    def final(self, entry, elapsed=0):
        """True when the entry has no move within the bounds, the same as
        not self.moves(entry, elapsed), without building any."""
        return self._reached[entry[1]] or not self.steps(entry[0], elapsed)

    def moves(self, entry, elapsed=0):
        """(event, target entry) pairs for every event enabled at entry
        within the bounds; elapsed is its time distance from the start."""
        cid, vid = entry
        if self._reached[vid]:
            return []
        out = []
        for event, target, apply, memo in self.steps(cid, elapsed):
            if memo is None:
                out.append((event, (target, vid)))
                continue
            t_vid = memo.get(vid)
            if t_vid is None:
                # a transform that raises stores nothing, so it raises again
                t_vid = memo[vid] = self._vid(apply(self.values[vid]))
            out.append((event, (target, t_vid)))
        return out

    def expand(self, cid, vids, elapsed=0):
        """moves over a batch: the entries (cid, vid) for every vid in vids,
        all at time distance elapsed, taken at once.  Returns (live,
        targets): live lists the vids that have not reached the X bound, in
        the order of vids, and targets holds (target cid, gain, target vids)
        per event enabled in cid within the bounds, in the order of moves,
        with one target vid per live vid; gain is the delay's amount, 0 for
        a fire or a reset.  A fire applies its transform only to the vids
        its memo misses."""
        if self._at_bound is not None:
            vids = list(filterfalse(self._reached.__getitem__, vids))
        if not vids:
            return vids, []
        values = self.values
        out = []
        for event, target, apply, memo in self.steps(cid, elapsed):
            if memo is None:
                out.append((target, event.amount if isinstance(event, Delay) else 0, vids))
                continue
            t_vids = list(map(memo.get, vids))
            if None in t_vids:
                for i, t_vid in enumerate(t_vids):
                    if t_vid is None:
                        vid = vids[i]
                        # a transform that raises stores nothing, as in moves
                        t_vids[i] = memo[vid] = self._vid(apply(values[vid]))
            out.append((target, 0, t_vids))
        return vids, out

    def successors(self, s, elapsed=0):
        """moves over States: (event, target State) pairs for every event
        enabled in s within the bounds."""
        return [(event, self.state(t)) for event, t in self.moves(self.entry(s), elapsed)]


# The per-state functions below check the state they are given and build
# a kernel per call.  A caller that steps many states runs check_state on
# the first and asks one Kernel for their moves or successors.


def enabled(m, s, semantics):
    check_state(m, s)
    kernel = Kernel(m, semantics)
    return tuple(e for e, _ in kernel.moves(kernel.entry(s)))


def zone_info(m, s):
    """Horizon, next-activation distance and jump width of s (see _zone)."""
    check_state(m, s)
    kernel = Kernel(m, "accelerated")
    return kernel.zone(kernel.entry(s)[0])


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
    kernel = Kernel(m, "accelerated" if jump else "original")
    for event, t in kernel.moves(kernel.entry(s)):
        if event == e:
            return kernel.state(t)
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
    if not isinstance(x_bound, Mapping):
        bound = expr.rational(x_bound, "x bound")
        names = sorted(m.x_names)
        if not names:
            raise ValidationError("model has no X components to bound")
        return {n: bound for n in names}
    out = {}
    for name, raw in x_bound.items():
        m.component(name)
        out[name] = expr.rational(raw, f"x bound of {name!r}")
    return out


def walk(ex, tag, fold, *, budget, message):
    """Width-first walk of (entry, tag) pairs over the bounded space of
    Exploration ex, from its kernel's start; yields (entry, tag, moves)
    per walk entry, in FIFO order.

    A successor's tag is fold(tag, event, target entry), and one set of
    flat (cid, vid, tag) keys dedups the walk entries.  Each entry's moves
    are taken at the time distance ex.distances holds for it: explore has
    met every entry the walk meets, since a tag never prunes a move, and
    has filled the kernel's plans and memos.  Taking more than budget walk
    entries raises BudgetExceeded(message).
    """
    kernel, distances = ex.kernel, ex.distances
    cid, vid = kernel.start
    seen = {(cid, vid, tag)}
    queue = deque([(kernel.start, tag)])
    taken = 0
    while queue:
        if taken >= budget:
            raise BudgetExceeded(message)
        taken += 1
        s, tag = queue.popleft()
        succ = kernel.moves(s, distances[s[0]][s[1]])
        yield s, tag, succ
        for e, t in succ:
            t_tag = fold(tag, e, t)
            found = len(seen)
            seen.add((t[0], t[1], t_tag))
            if len(seen) != found:
                queue.append((t, t_tag))


class Exploration:
    """The reachable graph that explore returns.

    counts is (states, edges, finals), known as soon as explore returns.
    distances is the batch pass's own seen map, kept as it built it:
    configuration id -> {value id: time distance}, one entry per state,
    in the order the pass found them.  The graph itself is built on first
    access, once, from that map: each entry's moves at its distance, over
    the same kernel, whose plans and memos the batch pass has filled.  So
    it comes in the map's order: states maps each State to its time
    distance from the initial state, edges holds (State, event, State)
    triples and finals the States with no successor within the bounds."""

    def __init__(self, kernel, counts, distances):
        self.kernel = kernel
        self.counts = counts
        self.distances = distances

    @cached_property
    def _graph(self):
        kernel = self.kernel
        dist = {(cid, vid): d for cid, vids in self.distances.items()
                for vid, d in vids.items()}
        arcs = []
        ends = []
        for s, d in dist.items():
            succ = kernel.moves(s, d)
            if not succ:
                ends.append(s)
            for e, t in succ:
                arcs.append((s, e, t))
        view = kernel.view(dist)
        return ({view[s]: d for s, d in dist.items()},
                tuple([(view[s], e, view[t]) for s, e, t in arcs]),
                frozenset(view[s] for s in ends))

    @property
    def states(self):
        """State -> time distance from the initial state."""
        return self._graph[0]

    @property
    def edges(self):
        """(State, event, State) triples."""
        return self._graph[1]

    @property
    def finals(self):
        """States with no successor within the bounds."""
        return self._graph[2]


def explore(m, semantics, x_bound=None, *, time_bound=None, budget=DEFAULT_BUDGET):
    """The reachable graph within the given bounds, as an Exploration:
    explore_kernel over a new Kernel."""
    return explore_kernel(Kernel(m, semantics, x_bound, time_bound), budget)


def explore_kernel(kernel, budget=DEFAULT_BUDGET):
    """The reachable graph of kernel within its bounds, as an Exploration.

    A batch pass counts it.  It takes the time distances lowest first; at
    each, it expands one batch per configuration id, the value ids new
    there, through Kernel.expand.  Fires and resets land at the same
    distance, the delay at distance + its amount.  One seen map holds,
    per configuration id, the time distance of each value id found; a
    target batch keeps the value ids that map lacks, as one set
    difference.  Every reachable state of a valid model sits at a single
    time distance from the start; a state found at two distances means
    the model is not acyclic and exploration stops with ValidationError.
    More than budget states raise BudgetExceeded.  This pass is the one
    place that decides time distances: the graph, walk, and so sweep and
    abstract_reachable, read its map.
    """
    message = f"exploration exceeded {budget} states"
    cid, vid = kernel.start
    seen = {cid: {vid: 0}}      # cid -> {vid: time distance}
    pending = {0: {cid: [vid]}}  # time distance -> {cid: vids not yet expanded}
    states, edges, finals = 1, 0, 0
    if states > budget:
        raise BudgetExceeded(message)
    while pending:
        d = min(pending)
        batches = pending[d]
        while batches:
            # FIFO: a batch that grows again once taken goes to the back
            for cid in list(batches):
                vids = batches.pop(cid)
                live, targets = kernel.expand(cid, vids, d)
                edges += len(live) * len(targets)
                finals += len(vids) - len(live) if targets else len(vids)
                for target, gain, t_vids in targets:
                    t_d = d + gain
                    t_seen = seen.setdefault(target, {})
                    fresh = set(t_vids)
                    new = fresh.difference(t_seen)
                    if len(new) != len(fresh):
                        known = {t_seen[v] for v in fresh - new} - {t_d}
                        if known:
                            raise ValidationError(
                                "a state was reached at two distinct time distances "
                                f"({min(known)} and {t_d}); the model is not acyclic")
                        if not new:
                            continue
                    states += len(new)
                    if states > budget:
                        raise BudgetExceeded(message)
                    t_seen.update(dict.fromkeys(new, t_d))
                    t_batches = pending.setdefault(t_d, {}) if gain else batches
                    t_batches.setdefault(target, []).extend(new)
        del pending[d]
    return Exploration(kernel, (states, edges, finals), seen)


def abstract_reachable(m, semantics, x_bound=None, *, time_bound=None,
                       budget=DEFAULT_BUDGET):
    """Words of all maximal runs, with the label each word determines.

    The result maps each projected word (tuple of Fire/Reset events) to
    its (localities, component values) label.  A run is maximal when no
    event remains within the bounds.  Delays never extend the word, so
    the two semantics can be compared through the returned mapping.

    explore decides the bounded space first, so a model whose state sits
    at two time distances stops with its ValidationError, and more than
    budget states with its BudgetExceeded.  The walk then tags each state
    with its word over explore's kernel; more than budget (state, word)
    entries raise BudgetExceeded too.
    """
    ex = explore(m, semantics, x_bound, time_bound=time_bound, budget=budget)
    kernel = ex.kernel
    configs = kernel.configs
    out = {}
    for (cid, vid), word, succ in walk(
            ex, (), lambda word, e, t: word if isinstance(e, Delay) else word + (e,),
            budget=budget, message=f"abstract exploration exceeded {budget} entries"):
        if succ:
            continue
        label = (configs[cid][0], kernel.numbers(vid))
        if word in out and out[word] != label:
            raise ValidationError(
                f"word {[event_label(e) for e in word]} determined two labels")
        out[word] = label
    return out
