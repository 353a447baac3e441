"""Naive reference implementations used to freeze expected values.

Everything here recomputes behaviour from the raw fixture JSON with plain
tuples and brute-force graph algorithms.  It deliberately shares no code
with the package internals, so expectations derived here do not inherit
package bugs.  Speed is a non-goal; the fixtures are small.
"""

import heapq
import json
import re
from collections import deque
from fractions import Fraction
from itertools import count

_FLOAT = re.compile(r"\b\d+\.\d+\b")


def _compile_expr(text):
    """Turn a transform expression into an evaluable code object.

    Decimal literals are rewritten into exact fractions first so the
    arithmetic never leaves the rationals.
    """
    src = _FLOAT.sub(lambda mt: f"Fraction('{mt.group(0)}')", text)
    return compile(src, "<transform>", "eval")


def _as_fraction(raw):
    return Fraction(str(raw))


class RawModel:
    """A fixture file reduced to plain lists and tuples."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
        self.comp_names = tuple(c["name"] for c in doc["components"])
        self.comp_init = tuple(_as_fraction(c["init"]) for c in doc["components"])
        self.x_names = tuple(c["name"] for c in doc["components"] if c.get("x"))
        self.transforms = {
            name: {comp: _compile_expr(text) for comp, text in effects.items()}
            for name, effects in doc["transforms"].items()
        }
        self.agents = []
        for a in doc["agents"]:
            trans = tuple(
                (t["id"], t["from"], t["to"], t["transform"],
                 int(t["interval"][0]), int(t["interval"][1]))
                for t in a["transitions"])
            self.agents.append({
                "name": a["name"],
                "locs": tuple(a["localities"]),
                "final": a["localities"][-1],
                "trans": trans,
                "period": int(a["reset_period"]),
                "init_loc": a["init_locality"],
                "init_clock": int(a.get("init_clock", 0)),
            })

    def initial(self):
        return (tuple(a["init_loc"] for a in self.agents),
                tuple(a["init_clock"] for a in self.agents),
                self.comp_init)

    def outgoing(self, agent, loc):
        return [t for t in agent["trans"] if t[1] == loc]

    def apply_transform(self, name, vals):
        effects = self.transforms[name]
        env = dict(zip(self.comp_names, vals))
        # min and max keep the first of equal arguments, as the model's do;
        # ite takes a condition written in Python (no '=' test) and
        # evaluates both branches
        env.update(Fraction=Fraction, min=min, max=max,
                   ite=lambda cond, then, orelse: then if cond else orelse)
        out = []
        for comp, old in zip(self.comp_names, vals):
            if comp in effects:
                out.append(Fraction(eval(effects[comp], {"__builtins__": {}}, env)))
            else:
                out.append(old)
        return tuple(out)


# successor relations


def fires(m, state):
    locs, clocks, vals = state
    out = []
    for i, agent in enumerate(m.agents):
        for tid, src, tgt, transform, lo, hi in m.outgoing(agent, locs[i]):
            if lo <= clocks[i] <= hi:
                new_locs = locs[:i] + (tgt,) + locs[i + 1:]
                out.append((("fire", tid),
                            (new_locs, clocks, m.apply_transform(transform, vals))))
    return out


def resets(m, state):
    locs, clocks, vals = state
    out = []
    for i, agent in enumerate(m.agents):
        if locs[i] == agent["final"] and clocks[i] == agent["period"]:
            new_locs = locs[:i] + (agent["locs"][0],) + locs[i + 1:]
            new_clocks = clocks[:i] + (0,) + clocks[i + 1:]
            out.append((("reset", agent["name"]), (new_locs, new_clocks, vals)))
    return out


def delay_allowed(m, state):
    locs, clocks, vals = state
    for i, agent in enumerate(m.agents):
        if locs[i] == agent["final"]:
            if clocks[i] >= agent["period"]:
                return False
        elif not any(clocks[i] < t[5] for t in m.outgoing(agent, locs[i])):
            return False
    return True


def zone_delta(m, state):
    locs, clocks, vals = state
    horizons = []
    for i, agent in enumerate(m.agents):
        if locs[i] == agent["final"]:
            horizons.append(agent["period"] - clocks[i])
        else:
            horizons.append(max(t[5] - clocks[i]
                                for t in m.outgoing(agent, locs[i])))
    horizon = min(horizons)
    opens = []
    for i, agent in enumerate(m.agents):
        if locs[i] == agent["final"]:
            d = agent["period"] - clocks[i]
            if 0 < d <= horizon:
                opens.append(d)
        else:
            for t in m.outgoing(agent, locs[i]):
                d = t[4] - clocks[i]
                if 0 < d <= horizon:
                    opens.append(d)
    if not opens:
        return 0
    start = min(opens)
    closes = []
    for i, agent in enumerate(m.agents):
        if locs[i] == agent["final"]:
            d = agent["period"] - clocks[i]
            if d <= horizon:
                closes.append(d)
        else:
            for t in m.outgoing(agent, locs[i]):
                d = t[5] - clocks[i]
                if start <= d <= horizon:
                    closes.append(d)
    return min(closes)


def successors(m, state, semantics):
    out = fires(m, state) + resets(m, state)
    locs, clocks, vals = state
    if semantics == "original":
        if delay_allowed(m, state):
            out.append((("delay", 1),
                        (locs, tuple(c + 1 for c in clocks), vals)))
    else:
        d = zone_delta(m, state)
        if d > 0:
            out.append((("delay", d),
                        (locs, tuple(c + d for c in clocks), vals)))
    return out


def x_reached(m, state, x_bound):
    if not x_bound:
        return False
    by_name = dict(zip(m.comp_names, state[2]))
    return all(by_name[n] >= b for n, b in x_bound.items())


def bounded_successors(m, state, semantics, x_bound, time_bound, elapsed):
    if x_reached(m, state, x_bound):
        return []
    out = successors(m, state, semantics)
    if time_bound is not None:
        out = [(lab, t) for lab, t in out
               if lab[0] != "delay" or elapsed + lab[1] <= time_bound]
    return out


def build_graph(m, semantics, x_bound=None, time_bound=None, cap=200_000):
    """Width-first reachable graph; returns (dist, edges, finals)."""
    init = m.initial()
    dist = {init: 0}
    edges = []
    finals = set()
    queue = deque([init])
    while queue:
        if len(dist) > cap:
            raise RuntimeError("oracle graph exceeded its cap")
        s = queue.popleft()
        succ = bounded_successors(m, s, semantics, x_bound, time_bound, dist[s])
        if not succ:
            finals.add(s)
            continue
        for lab, t in succ:
            edges.append((s, lab, t))
            gain = lab[1] if lab[0] == "delay" else 0
            if t not in dist:
                dist[t] = dist[s] + gain
                queue.append(t)
    return dist, edges, finals


def words(m, semantics, x_bound=None, time_bound=None, cap=200_000):
    """Delay-free words of all maximal runs, mapped to their labels."""
    init = m.initial()
    out = {}
    seen = {(init, ())}
    queue = deque([(init, (), 0)])
    while queue:
        if len(seen) > cap:
            raise RuntimeError("oracle word walk exceeded its cap")
        s, word, elapsed = queue.popleft()
        succ = bounded_successors(m, s, semantics, x_bound, time_bound, elapsed)
        if not succ:
            label = (s[0], s[2])
            assert out.get(word, label) == label, "word determined two labels"
            out[word] = label
            continue
        for lab, t in succ:
            if lab[0] == "delay":
                entry = (t, word, elapsed + lab[1])
            else:
                entry = (t, word + (lab,), elapsed)
            if (entry[0], entry[1]) not in seen:
                seen.add((entry[0], entry[1]))
                queue.append(entry)
    return out


def sweep_versions(m, semantics, indicators, x_bound=None, time_bound=None):
    """(final state, envelope) pairs of every run: the sets of envelopes
    that reach each state, carried along the graph's edges.

    indicators are functions of a state; an envelope holds one (low, high)
    pair per indicator, widened by the value at every state of the run.
    States are taken in distance order, and within one distance after
    every predecessor, so a state's set is complete before it is passed
    on."""
    dist, edges, finals = build_graph(m, semantics, x_bound, time_bound)
    post = {s: [] for s in dist}
    preds = {s: 0 for s in dist}
    for s, _, t in edges:
        post[s].append(t)
        preds[t] += 1
    init = m.initial()
    envs = {s: set() for s in dist}
    envs[init].add(tuple((f(init), f(init)) for f in indicators))
    seq = count(1)
    ready = [(0, 0, init)]
    done = 0
    while ready:
        _, _, s = heapq.heappop(ready)
        done += 1
        for t in post[s]:
            values = [f(t) for f in indicators]
            for env in envs[s]:
                envs[t].add(tuple((min(lo, v), max(hi, v))
                                  for (lo, hi), v in zip(env, values)))
            preds[t] -= 1
            if not preds[t]:
                heapq.heappush(ready, (dist[t], next(seq), t))
    assert done == len(dist), "the graph has a cycle"
    return {(s, env) for s in finals for env in envs[s]}


def border_first_hit(m, cut_config, semantics="original", seeds=None, cap=200_000):
    """States where walks from the seeds first show the cut configuration."""
    if seeds is None:
        seeds = [m.initial()]
    seen = set(seeds)
    queue = deque(seeds)
    border = set()
    while queue:
        if len(seen) > cap:
            raise RuntimeError("oracle border walk exceeded its cap")
        s = queue.popleft()
        for _, t in successors(m, s, semantics):
            if (t[0], t[1]) == cut_config:
                border.add(t)
                continue
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return border


# per-agent timing analysis for cut validity


def _agent_graph(agent, m, t_max):
    """Single-agent reachable (loc, clock, elapsed) nodes, up to elapsed
    t_max, and their successor lists."""
    init = (agent["init_loc"], agent["init_clock"], 0)
    adj = {init: []}
    queue = deque([init])
    while queue:
        u = queue.popleft()
        loc, clock, elapsed = u
        succ = adj[u]
        for tid, src, tgt, transform, lo, hi in m.outgoing(agent, loc):
            if lo <= clock <= hi:
                succ.append((tgt, clock, elapsed))
        if loc == agent["final"] and clock == agent["period"]:
            succ.append((agent["locs"][0], 0, elapsed))
        can_delay = (clock < agent["period"] if loc == agent["final"]
                     else any(clock < t[5] for t in m.outgoing(agent, loc)))
        if can_delay and elapsed < t_max:
            succ.append((loc, clock + 1, elapsed + 1))
        for node in succ:
            if node not in adj:
                adj[node] = []
                queue.append(node)
    return adj


def mandatory_points(agent, adj, t):
    """(loc, clock) pairs every run of one agent shows at elapsed t, given
    the agent's graph adj up to elapsed t + 1 or later.

    A pair is mandatory when no run can reach elapsed t+1 while avoiding
    it at elapsed t; zero-duration visits between discrete moves count.
    """
    start = (agent["init_loc"], agent["init_clock"], 0)
    out = set()
    for blocked in [u for u in adj if u[2] == t]:
        stack = [start] if start != blocked else []
        seen = set(stack)
        escaped = False
        while stack:
            u = stack.pop()
            if u[2] == t + 1:
                escaped = True
                break
            for v in adj[u]:
                if v != blocked and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if not escaped:
            out.add(blocked[:2])
    return out


def cut_times(m, t_max):
    """Times in [1, t_max] where every agent has a mandatory point."""
    graphs = [_agent_graph(agent, m, t_max + 1) for agent in m.agents]
    out = {}
    for t in range(1, t_max + 1):
        per_agent = [mandatory_points(agent, adj, t)
                     for agent, adj in zip(m.agents, graphs)]
        if all(per_agent):
            out[t] = per_agent
    return out


# naive CTL over a finite graph


class CtlGraph:
    def __init__(self, m, semantics, x_bound=None, time_bound=None):
        self.m = m
        dist, edges, finals = build_graph(m, semantics, x_bound, time_bound)
        self.states = set(dist)
        self.init = m.initial()
        self.finals = finals
        self.post = {s: set() for s in self.states}
        self.pre = {s: set() for s in self.states}
        for s, _, t in edges:
            self.post[s].add(t)
            self.pre[t].add(s)
        for s in finals:
            self.post[s].add(s)
            self.pre[s].add(s)

    def sat(self, pred):
        return {s for s in self.states
                if pred(self.m, s, s in self.finals)}

    def ef(self, target):
        out = set(target)
        queue = deque(out)
        while queue:
            s = queue.popleft()
            for p in self.pre[s]:
                if p not in out:
                    out.add(p)
                    queue.append(p)
        return out

    def eg(self, target):
        out = set(target)
        changed = True
        while changed:
            changed = False
            for s in list(out):
                if not (self.post[s] & out):
                    out.discard(s)
                    changed = True
        return out

    def holds(self, form, p, q=None):
        """form is one of EF, EG, AF, AG, EFEF, EFEG, LEADSTO."""
        sp = self.sat(p)
        if form == "EF":
            return self.init in self.ef(sp)
        if form == "EG":
            return self.init in self.eg(sp)
        if form == "AF":
            return self.init not in self.eg(self.states - sp)
        if form == "AG":
            return self.init not in self.ef(self.states - sp)
        sq = self.sat(q)
        if form == "EFEF":
            return self.init in self.ef(sp & self.ef(sq))
        if form == "EFEG":
            return self.init in self.ef(sp & self.eg(sq))
        if form == "LEADSTO":
            af_q = self.states - self.eg(self.states - sq)
            always = self.states - self.ef(self.states - ((self.states - sp) | af_q))
            return self.init in always
        raise ValueError(form)
