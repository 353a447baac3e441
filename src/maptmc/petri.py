"""High-level net translation of a model.

Three places, each holding exactly one structured token: the locality
vector, the clock vector and the shared valuation.  Every model
transition becomes a net transition guarded on its agent's position and
clock window; every agent contributes one reset transition; one global
time transition advances all clocks together (by one tick, or by the
accelerated jump width when the net is built accelerated).  The jump is
derived here from the marking and the agents' windows, never from the
semantics module the net is checked against.  A marking is a bijective
re-packaging of a state, so the lockstep comparison in state_space_equiv
is a strong bisimulation check.

In a coloured net each arc expression is a function of the tokens it
reads alone, so each net's closures remember their answers per token,
keyed by the token itself and never by a kernel id: a task's new
valuation (through model.eval_transform) per valuation token, and the
time guard and the accelerated jump per (localities, clocks) pair.  The
caches belong to one translate call and live as long as its net.

state_space_equiv checks the states of semantics.explore's batch pass,
so it counts exactly the states explore counts, and compares moves by
label and by target fields: the model's moves, read from the kernel's
configuration and value tables, become {label: (localities, clocks,
values)} and the net's fired markings {label: Marking}, a tuple of the
same three fields, and tuple equality decides, with no marking decoded
into a state.  Every net guard is called once per marking.
"""

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from . import semantics as sem
from .errors import MalformedModel, NotEnabled
from .model import eval_transform

PLACES = ("localities", "clocks", "valuation")


class Marking(NamedTuple):
    localities: tuple
    clocks: tuple
    values: tuple


@dataclass
class NetTransition:
    name: str
    kind: str           # task, reset or time
    guard: object       # Marking -> bool
    effect: object      # Marking -> Marking
    description: str


@dataclass
class HlNet:
    model: object
    accelerated: bool
    transitions: dict = field(default_factory=dict)

    @property
    def places(self):
        return PLACES

    def initial_marking(self):
        return encode(sem.initial_state(self.model))


def encode(s):
    return Marking(s.localities, s.clocks, s.values)


def _headroom(agent, outgoing, loc, clock):
    if loc == agent.final_locality:
        return clock < agent.reset_period
    return any(clock < t.upper for t in outgoing[loc])


def _jump(agents, localities, clocks):
    """Width of the accelerated time step at (localities, clocks), from
    the agents' windows.

    An agent acts in the windows of its outgoing transitions, or at its
    reset instant at the final locality.  Time may pass until the first
    agent leaves its last window behind (the horizon); the step ends the
    first action zone: from the earliest window opening within the
    horizon to the first window closing at or after it.  0 when nothing
    opens within the horizon.  agents pairs each agent with its outgoing
    transitions per locality.
    """
    spans = []
    for (a, outgoing), loc, c in zip(agents, localities, clocks):
        if loc == a.final_locality:
            spans.append([(a.reset_period - c, a.reset_period - c)])
        else:
            spans.append([(t.lower - c, t.upper - c) for t in outgoing[loc]])
    horizon = min(max(close for _, close in span) for span in spans)
    opens = [o for span in spans for o, _ in span if 0 < o <= horizon]
    if not opens:
        return 0
    start = min(opens)
    return min(close for span in spans for _, close in span
               if start <= close <= horizon)


def _task(m, i, t):
    """Guard and effect of model transition t of agent i.

    The effect remembers, per net, the new valuation per valuation
    token."""
    def guard(mk):
        return mk.localities[i] == t.source and t.lower <= mk.clocks[i] <= t.upper

    names = m.component_names

    @cache
    def apply(values):
        return eval_transform(m.transform(t.transform), names, values)

    def effect(mk):
        localities = list(mk.localities)
        localities[i] = t.target
        return Marking(tuple(localities), mk.clocks, apply(mk.values))

    return guard, effect


def _time(agents, accelerated):
    """Guard and effect of the global time transition.  The time guard
    and the jump remember their answer per net, keyed by the
    (localities, clocks) tokens."""
    if accelerated:
        @cache
        def jump(localities, clocks):
            delta = _jump(agents, localities, clocks)
            return delta, tuple(c + delta for c in clocks)

        def guard(mk):
            return jump(mk.localities, mk.clocks)[0] > 0

        def effect(mk):
            return Marking(mk.localities, jump(mk.localities, mk.clocks)[1], mk.values)

        return guard, effect, "time: all clocks advance by the zone jump width"

    @cache
    def headroom(localities, clocks):
        return all(_headroom(a, outgoing, loc, c)
                   for (a, outgoing), loc, c in zip(agents, localities, clocks))

    def guard(mk):
        return headroom(mk.localities, mk.clocks)

    def effect(mk):
        return Marking(mk.localities, tuple(c + 1 for c in mk.clocks), mk.values)

    return guard, effect, "time: all clocks advance by one"


def translate(m, accelerated=False):
    """The net of model m.  Its closures cache their answers per token
    they read, in caches that belong to this net alone."""
    net = HlNet(model=m, accelerated=accelerated)
    # each agent with its outgoing transitions per locality, read once
    agents = [(a, {loc: a.outgoing(loc) for loc in a.localities}) for a in m.agents]
    names = {"time"} | {f"reset_{a.name}" for a in m.agents}
    for i, a in enumerate(m.agents):
        for t in a.transitions:
            if t.id in names or t.id in net.transitions:
                raise MalformedModel(f"transition id {t.id!r} collides with a net name")
            net.transitions[t.id] = NetTransition(
                t.id, "task", *_task(m, i, t),
                f"task {a.name}: {t.source} -> {t.target} in [{t.lower}, {t.upper}] "
                f"applying {t.transform}")
    for i, a in enumerate(m.agents):
        def guard(mk, i=i, a=a):
            return mk.localities[i] == a.final_locality and mk.clocks[i] == a.reset_period

        def effect(mk, i=i, a=a):
            localities = list(mk.localities)
            clocks = list(mk.clocks)
            localities[i] = a.initial_locality
            clocks[i] = 0
            return Marking(tuple(localities), tuple(clocks), mk.values)

        net.transitions[f"reset_{a.name}"] = NetTransition(
            f"reset_{a.name}", "reset", guard, effect,
            f"reset {a.name}: {a.final_locality} -> {a.initial_locality} at {a.reset_period}")
    guard, effect, desc = _time(agents, accelerated)
    net.transitions["time"] = NetTransition("time", "time", guard, effect, desc)
    return net


def enabled_net(net, mk):
    return tuple([name for name, t in net.transitions.items() if t.guard(mk)])


def fire(net, mk, t):
    name = t.name if isinstance(t, NetTransition) else t
    try:
        trans = net.transitions[name]
    except KeyError:
        raise NotEnabled(f"no net transition named {name!r}")
    if not trans.guard(mk):
        raise NotEnabled(f"net transition {name!r} is not enabled")
    return trans.effect(mk)


def structure_text(net):
    lines = [f"net accelerated={str(net.accelerated).lower()}"]
    for p in net.places:
        lines.append(f"place {p}")
    for name, t in net.transitions.items():
        lines.append(f"transition {name} [{t.kind}] {t.description}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    detail: str
    states_checked: int


def state_space_equiv(m, x_bound=None, semantics="original", *, net=None,
                      budget=sem.DEFAULT_BUDGET):
    """Compare the moves of model and net at every state of the bounded
    space, the states of explore's batch pass, in the order of its map.

    Returns the first divergence found, or equal=True after the whole
    bounded space agrees; states_checked counts the states looked at, so
    on agreement it is explore's state count.  explore's errors pass
    through: a state at two time distances raises ValidationError, more
    than budget states BudgetExceeded.  A caller-supplied net lets tests
    check that a corrupted net is detected.
    """
    if net is None:
        net = translate(m, accelerated=(semantics == "accelerated"))
    ex = sem.explore(m, semantics, x_bound, budget=budget)
    kernel = ex.kernel
    configs, values = kernel.configs, kernel.values
    checked = 0
    for cid, vids in ex.distances.items():
        for vid, distance in vids.items():
            checked += 1
            entry = (cid, vid)
            if kernel.reached(entry):
                continue
            mk = Marking(*configs[cid], values[vid])
            model_moves = [("time" if isinstance(e, sem.Delay) else sem.event_label(e),
                            configs[t[0]] + (values[t[1]],))
                           for e, t in kernel.moves(entry, distance)]
            # enabled_net has just evaluated each guard: fire's check would
            # repeat it.  A Marking is a tuple, so it equals a model target.
            net_moves = {name: net.transitions[name].effect(mk)
                         for name in enabled_net(net, mk)}
            if len(net_moves) != len(model_moves) or dict(model_moves) != net_moves:
                return EquivResult(False, _divergence(mk, model_moves, net_moves), checked)
    return EquivResult(True, "", checked)


def _divergence(mk, model_moves, net_moves):
    """Name, per side, the moves at marking mk that the other side lacks:
    a label whose target differs, or that is missing there.  Each net
    move answers at most one model move, so a label the model yields
    twice diverges."""
    unmatched = dict(net_moves)
    only_model = []
    for name, to in model_moves:
        if unmatched.get(name) == to:
            del unmatched[name]
        else:
            only_model.append(name)
    return (f"divergence at localities={mk.localities} clocks={mk.clocks}: "
            f"model-only moves {sorted(only_model)}, net-only moves {sorted(unmatched)}")
