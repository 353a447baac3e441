"""Model structures: shared variables, transforms, agents, validation, JSON IO.

A model is a set of agents, each cycling through a DAG of localities under
an integer clock that resets with period E, plus a shared valuation of
named rational components.  Transitions carry a transform (simultaneous
assignment over components) and an integer firing interval [a, b] on the
agent's clock.
"""

import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr
from .errors import MalformedModel, ParseError, UnknownReference

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class ComponentDecl:
    name: str
    init: int | Fraction
    is_x: bool = False
    strong: bool = True
    positive: bool = False


@dataclass(eq=True)
class Transform:
    """Simultaneous assignment; components without an effect keep their value."""

    id: str
    effects: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    target: str
    transform: str
    lower: int
    upper: int

    @property
    def interval(self):
        return (self.lower, self.upper)


@dataclass(frozen=True)
class Agent:
    name: str
    localities: tuple
    transitions: tuple
    reset_period: int
    init_locality: str
    init_clock: int

    @property
    def initial_locality(self):
        return self.localities[0]

    @property
    def final_locality(self):
        return self.localities[-1]

    def outgoing(self, locality):
        return tuple(t for t in self.transitions if t.source == locality)

    def incoming(self, locality):
        return tuple(t for t in self.transitions if t.target == locality)


@dataclass(eq=True)
class MaptModel:
    components: tuple
    transforms: dict
    agents: tuple

    @property
    def component_names(self):
        return tuple(c.name for c in self.components)

    @property
    def x_names(self):
        return frozenset(c.name for c in self.components if c.is_x)

    @property
    def strong_names(self):
        return frozenset(c.name for c in self.components if c.strong)

    def agent(self, name):
        for a in self.agents:
            if a.name == name:
                return a
        raise UnknownReference(f"unknown agent {name!r}")

    def component(self, name):
        for c in self.components:
            if c.name == name:
                return c
        raise UnknownReference(f"unknown component {name!r}")

    def transform(self, tid):
        try:
            return self.transforms[tid]
        except KeyError:
            raise UnknownReference(f"unknown transform {tid!r}")

    def transition(self, tid):
        for a in self.agents:
            for t in a.transitions:
                if t.id == tid:
                    return a, t
        raise UnknownReference(f"unknown transition {tid!r}")


def eval_transform(f, names, values):
    """Apply transform f to the component values, one per name in names;
    all effects read the old values.  Returns the new values tuple."""
    env = dict(zip(names, values))
    out = []
    for name, old in zip(names, values):
        node = f.effects.get(name)
        out.append(old if node is None else expr.eval_arith(node, env))
    return tuple(out)


def lcm_periods(m):
    return math.lcm(*(a.reset_period for a in m.agents))


# validation


@dataclass(frozen=True)
class LivenessViolation:
    agent: str
    locality: str
    clause: str
    detail: str


@dataclass(frozen=True)
class AcyclicityViolation:
    kind: str
    detail: str
    agent: str = ""
    transform: str = ""
    component: str = ""


@dataclass(frozen=True)
class ValidationReport:
    strongly_live: bool
    liveness_violations: tuple
    acyclic: bool
    acyclicity_violations: tuple

    @property
    def is_mapt(self):
        return self.strongly_live and self.acyclic


def validate_strong_liveness(m):
    """Check that no agent can ever get stuck waiting for a closed interval.

    Four clauses per agent: the initial clock must not overshoot the
    initial locality's exits (or the period if it starts final), interval
    upper bounds must not decrease across any intermediate locality, and
    no path may arrive at the final locality after the reset period.
    """
    violations = []
    for a in m.agents:
        init = a.init_locality
        if init == a.final_locality:
            if a.init_clock > a.reset_period:
                violations.append(LivenessViolation(
                    a.name, init, "init-final",
                    f"initial clock {a.init_clock} exceeds reset period {a.reset_period}"))
        else:
            cap = max(t.upper for t in a.outgoing(init))
            if a.init_clock > cap:
                violations.append(LivenessViolation(
                    a.name, init, "init-overshoot",
                    f"initial clock {a.init_clock} exceeds last exit bound {cap}"))
        for loc in a.localities:
            if loc in (a.initial_locality, a.final_locality):
                continue
            arrive = max(t.upper for t in a.incoming(loc))
            leave = min(t.upper for t in a.outgoing(loc))
            if arrive > leave:
                violations.append(LivenessViolation(
                    a.name, loc, "bound-decrease",
                    f"may arrive at clock {arrive} but last exit closes at {leave}"))
        if a.incoming(a.final_locality):
            arrive = max(t.upper for t in a.incoming(a.final_locality))
            if arrive > a.reset_period:
                violations.append(LivenessViolation(
                    a.name, a.final_locality, "late-arrival",
                    f"may arrive at clock {arrive}, after reset period {a.reset_period}"))
    return (not violations, tuple(violations))


def _effect_class(node, comp, positive):
    """Structural proof class of a transform effect on one component.

    Returns one of 'identity', 'strict', 'nondec', 'decreasing',
    'unprovable'.  Recognized shapes: u, u+c, u-c, c*u, u*c, u/c where u is
    the component itself and c a literal; scaling is only provable when the
    component is declared positive.
    """
    if node is None:
        return "identity"
    if isinstance(node, expr.Ref) and node.name == comp:
        return "identity"
    shift = None
    scale = None
    if isinstance(node, expr.Bin):
        left, right = node.left, node.right
        if node.op == "+":
            if isinstance(left, expr.Ref) and left.name == comp and isinstance(right, expr.Num):
                shift = right.value
            elif isinstance(right, expr.Ref) and right.name == comp and isinstance(left, expr.Num):
                shift = left.value
        elif node.op == "-":
            if isinstance(left, expr.Ref) and left.name == comp and isinstance(right, expr.Num):
                shift = -right.value
        elif node.op == "*":
            if isinstance(left, expr.Ref) and left.name == comp and isinstance(right, expr.Num):
                scale = right.value
            elif isinstance(right, expr.Ref) and right.name == comp and isinstance(left, expr.Num):
                scale = left.value
        elif node.op == "/":
            if isinstance(left, expr.Ref) and left.name == comp and \
                    isinstance(right, expr.Num) and right.value != 0:
                scale = Fraction(1, right.value)
    if shift is not None:
        if shift > 0:
            return "strict"
        if shift == 0:
            return "identity"
        return "decreasing"
    if scale is not None:
        if scale == 1:
            return "identity"
        if not positive:
            return "unprovable"
        if scale > 1:
            return "strict"
        return "decreasing"
    return "unprovable"


def validate_acyclicity(m):
    """Check that some agent provably grows an X component every cycle and
    that no transform can ever shrink one.

    The proof is purely structural (see _effect_class); anything outside
    the recognized shapes fails with reason 'unprovable'.
    """
    violations = []
    x_names = sorted(m.x_names)
    if not x_names:
        violations.append(AcyclicityViolation(
            "no-x-components", "model declares no X components"))
        return (False, tuple(violations))
    positive = {c.name: c.positive for c in m.components}
    classes = {}
    for fid in sorted(m.transforms):
        f = m.transforms[fid]
        for comp in x_names:
            cls = _effect_class(f.effects.get(comp), comp, positive[comp])
            classes[(fid, comp)] = cls
            if cls == "decreasing":
                violations.append(AcyclicityViolation(
                    "may-decrease",
                    f"transform {fid!r} decreases X component {comp!r}",
                    transform=fid, component=comp))
            elif cls == "unprovable":
                violations.append(AcyclicityViolation(
                    "unprovable",
                    f"effect of transform {fid!r} on X component {comp!r} "
                    "cannot be proven non-decreasing",
                    transform=fid, component=comp))
    paths = [_lazy_path(a, classes, x_names) for a in m.agents]
    if None not in paths:
        for a, path in zip(m.agents, paths):
            shown = ",".join(t.id for t in path) if path else "(empty)"
            violations.append(AcyclicityViolation(
                "no-increasing-path",
                f"agent {a.name!r} has a full cycle with no strict X increase: {shown}",
                agent=a.name))
    return (not violations, tuple(violations))


def _lazy_path(agent, classes, x_names):
    """A source-to-sink path using no strictly-increasing transition, or None."""
    start = agent.initial_locality
    goal = agent.final_locality
    if start == goal:
        return ()
    parents = {start: None}
    queue = [start]
    while queue:
        loc = queue.pop(0)
        for t in agent.outgoing(loc):
            strict = any(classes.get((t.transform, comp)) == "strict"
                         for comp in x_names)
            if strict:
                continue
            if t.target not in parents:
                parents[t.target] = (loc, t)
                queue.append(t.target)
    if goal not in parents:
        return None
    path = []
    cur = goal
    while parents[cur] is not None:
        prev, t = parents[cur]
        path.append(t)
        cur = prev
    path.reverse()
    return tuple(path)


def validate(m):
    live, lv = validate_strong_liveness(m)
    acyc, av = validate_acyclicity(m)
    return ValidationReport(live, lv, acyc, av)


# JSON loading and saving


def _fraction(raw, what):
    """raw as an exact number in canonical form (see expr.rational)."""
    try:
        return expr.rational(raw, what)
    except ParseError as e:
        raise MalformedModel(str(e)) from None


def _ident(raw, what):
    if not isinstance(raw, str) or not _IDENT.match(raw):
        raise MalformedModel(f"{what}: {raw!r} is not a valid identifier")
    if raw in expr.RESERVED:
        raise MalformedModel(f"{what}: {raw!r} is a reserved word")
    return raw


def _flag(entry, key, default, name):
    """A component's boolean flag; only a JSON boolean is accepted."""
    raw = entry.get(key, default)
    if not isinstance(raw, bool):
        raise MalformedModel(f"component {name!r}: {key!r} must be a boolean, got {raw!r}")
    return raw


def _int(raw, what, minimum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise MalformedModel(f"{what}: expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise MalformedModel(f"{what}: {raw} is below {minimum}")
    return raw


def topo_order(agent):
    """The agent's localities in topological order; a locality on a cycle,
    or reachable from one, is left out."""
    indeg = {l: len(agent.incoming(l)) for l in agent.localities}
    order = []
    ready = [l for l in agent.localities if indeg[l] == 0]
    while ready:
        loc = ready.pop(0)
        order.append(loc)
        for t in agent.outgoing(loc):
            indeg[t.target] -= 1
            if indeg[t.target] == 0:
                ready.append(t.target)
    return order


def _check_locality_dag(agent):
    nodes = agent.localities
    if len(topo_order(agent)) != len(nodes):
        raise MalformedModel(f"agent {agent.name!r}: locality graph has a cycle")
    sources = [n for n in nodes if not agent.incoming(n)]
    sinks = [n for n in nodes if not agent.outgoing(n)]
    if len(nodes) == 1:
        return
    if sources != [nodes[0]]:
        raise MalformedModel(
            f"agent {agent.name!r}: expected unique source {nodes[0]!r}, found {sources}")
    if sinks != [nodes[-1]]:
        raise MalformedModel(
            f"agent {agent.name!r}: expected unique sink {nodes[-1]!r}, found {sinks}")


def model_from_dict(data):
    if not isinstance(data, dict):
        raise MalformedModel("model file must contain a JSON object")
    comp_raw = data.get("components")
    if not isinstance(comp_raw, list) or not comp_raw:
        raise MalformedModel("'components' must be a non-empty list")
    components = []
    for entry in comp_raw:
        if not isinstance(entry, dict):
            raise MalformedModel("each component must be an object")
        name = _ident(entry.get("name"), "component name")
        if any(c.name == name for c in components):
            raise MalformedModel(f"duplicate component {name!r}")
        components.append(ComponentDecl(
            name=name,
            init=_fraction(entry.get("init", 0), f"component {name!r} init"),
            is_x=_flag(entry, "x", False, name),
            strong=_flag(entry, "strong", True, name),
            positive=_flag(entry, "positive", False, name),
        ))
    comp_names = {c.name for c in components}

    tf_raw = data.get("transforms")
    if not isinstance(tf_raw, dict):
        raise MalformedModel("'transforms' must be an object")
    transforms = {}
    for fid, effects_raw in tf_raw.items():
        if not isinstance(fid, str) or not fid:
            raise MalformedModel(f"bad transform name {fid!r}")
        if not isinstance(effects_raw, dict):
            raise MalformedModel(f"transform {fid!r} must map components to expressions")
        effects = {}
        for comp, text in effects_raw.items():
            if comp not in comp_names:
                raise UnknownReference(f"transform {fid!r} assigns unknown component {comp!r}")
            if not isinstance(text, str):
                raise MalformedModel(f"transform {fid!r}: effect on {comp!r} must be a string")
            node = expr.parse_arith(text)
            missing = expr.refs(node) - comp_names
            if missing:
                raise UnknownReference(
                    f"transform {fid!r} reads unknown component {sorted(missing)[0]!r}")
            effects[comp] = node
        transforms[fid] = Transform(fid, effects)

    agents_raw = data.get("agents")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise MalformedModel("'agents' must be a non-empty list")
    agents = []
    all_localities = set()
    all_tids = set()
    for entry in agents_raw:
        if not isinstance(entry, dict):
            raise MalformedModel("each agent must be an object")
        aname = _ident(entry.get("name"), "agent name")
        if any(a.name == aname for a in agents):
            raise MalformedModel(f"duplicate agent {aname!r}")
        locs_raw = entry.get("localities")
        if not isinstance(locs_raw, list) or not locs_raw:
            raise MalformedModel(f"agent {aname!r}: 'localities' must be a non-empty list")
        localities = tuple(_ident(l, f"agent {aname!r} locality") for l in locs_raw)
        if len(set(localities)) != len(localities):
            raise MalformedModel(f"agent {aname!r}: duplicate locality")
        overlap = all_localities & set(localities)
        if overlap:
            raise MalformedModel(f"locality {sorted(overlap)[0]!r} appears in two agents")
        all_localities |= set(localities)
        transitions = []
        trans_raw = entry.get("transitions", [])
        if not isinstance(trans_raw, list):
            raise MalformedModel(f"agent {aname!r}: 'transitions' must be a list")
        for idx, t_raw in enumerate(trans_raw):
            if not isinstance(t_raw, dict):
                raise MalformedModel(f"agent {aname!r}: each transition must be an object")
            tid = t_raw.get("id", f"{aname}.{idx}")
            if not isinstance(tid, str) or not tid:
                raise MalformedModel(f"agent {aname!r}: bad transition id {tid!r}")
            if tid in all_tids:
                raise MalformedModel(f"duplicate transition id {tid!r}")
            all_tids.add(tid)
            src = t_raw.get("from")
            dst = t_raw.get("to")
            if src not in localities:
                raise UnknownReference(f"transition {tid!r}: unknown source {src!r}")
            if dst not in localities:
                raise UnknownReference(f"transition {tid!r}: unknown target {dst!r}")
            fid = t_raw.get("transform")
            if not isinstance(fid, str) or fid not in transforms:
                raise UnknownReference(f"transition {tid!r}: unknown transform {fid!r}")
            interval = t_raw.get("interval")
            if not isinstance(interval, list) or len(interval) != 2:
                raise MalformedModel(f"transition {tid!r}: 'interval' must be [a, b]")
            lower = _int(interval[0], f"transition {tid!r} lower bound", minimum=0)
            upper = _int(interval[1], f"transition {tid!r} upper bound", minimum=0)
            if lower > upper:
                raise MalformedModel(f"transition {tid!r}: empty interval [{lower}, {upper}]")
            transitions.append(Transition(tid, src, dst, fid, lower, upper))
        init_loc = entry.get("init_locality", localities[0])
        if init_loc not in localities:
            raise UnknownReference(f"agent {aname!r}: unknown init locality {init_loc!r}")
        agent = Agent(
            name=aname,
            localities=localities,
            transitions=tuple(transitions),
            reset_period=_int(entry.get("reset_period"), f"agent {aname!r} reset period", 1),
            init_locality=init_loc,
            init_clock=_int(entry.get("init_clock", 0), f"agent {aname!r} init clock", 0),
        )
        _check_locality_dag(agent)
        agents.append(agent)

    clash = all_localities & comp_names
    if clash:
        raise MalformedModel(f"{sorted(clash)[0]!r} is both a locality and a component")
    return MaptModel(tuple(components), transforms, tuple(agents))


def model_to_dict(m):
    return {
        "components": [
            {"name": c.name, "init": str(c.init), "x": c.is_x,
             "strong": c.strong, "positive": c.positive}
            for c in m.components
        ],
        "transforms": {
            fid: {comp: expr.to_text(node) for comp, node in sorted(f.effects.items())}
            for fid, f in sorted(m.transforms.items())
        },
        "agents": [
            {
                "name": a.name,
                "localities": list(a.localities),
                "transitions": [
                    {"id": t.id, "from": t.source, "to": t.target,
                     "transform": t.transform, "interval": [t.lower, t.upper]}
                    for t in a.transitions
                ],
                "reset_period": a.reset_period,
                "init_locality": a.init_locality,
                "init_clock": a.init_clock,
            }
            for a in m.agents
        ],
    }


def loads_model(text):
    try:
        data = json.loads(text, parse_float=str)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno)
    except RecursionError:
        raise ParseError("model file: nested too deeply to read") from None
    except ValueError:
        # the one other error of json.loads: int() refuses an integer
        # longer than Python's digit limit
        raise ParseError(f"model file: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    return model_from_dict(data)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fp:
        text = fp.read()
    return loads_model(text)


def dumps_model(m):
    return json.dumps(model_to_dict(m), indent=2) + "\n"


def save_model(m, path):
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps_model(m))
