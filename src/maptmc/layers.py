"""Layered exploration support: coherent cuts, borders between cuts and
clusters of border states.

A cut fixes one global time offset t inside the hyperperiod and records,
per agent, which locality and clock value every run shows at that time
distance.  Each agent's hop windows repeat every reset period, so t is
tested on the agent's own clock (t + init_clock) % reset_period: a clock
strictly inside a window, where a window opens at the earliest exit the
agent can take, is ambiguous and rejected.  The rest give configurations
that every run must pass through, which makes borders between consecutive
cuts well defined in both semantics.
"""

from collections import deque
from dataclasses import dataclass
from itertools import count
from math import inf
from operator import itemgetter

from . import semantics as sem
from .errors import BudgetExceeded, MalformedState, ValidationError
from .model import lcm_periods, topo_order


@dataclass(frozen=True)
class MandatoryChain:
    """Localities an agent visits on every cycle, with the clock window
    [earliest start, latest end] of each hop between consecutive ones; a
    hop opens at the earliest exit the agent can take, counting the time
    it needs to reach the hop's source."""

    agent: str
    localities: tuple
    intervals: tuple


@dataclass(frozen=True)
class CutSpec:
    t: int
    localities: tuple
    clocks: tuple

    def config(self):
        return (self.localities, self.clocks)


def mandatory_chain(agent):
    """Localities lying on every source-to-sink path, in path order."""
    order = topo_order(agent)
    start = agent.initial_locality
    goal = agent.final_locality
    into = {l: 0 for l in agent.localities}
    into[start] = 1
    earliest = {start: 0}
    for loc in order:
        for t in agent.outgoing(loc):
            into[t.target] += into[loc]
            arrive = max(earliest[loc], t.lower)
            earliest[t.target] = min(earliest.get(t.target, arrive), arrive)
    outof = {l: 0 for l in agent.localities}
    outof[goal] = 1
    for loc in reversed(order):
        for t in agent.outgoing(loc):
            outof[loc] += outof[t.target]
    total = into[goal]
    chain = [loc for loc in order if into[loc] * outof[loc] == total]
    intervals = []
    for here, there in zip(chain, chain[1:]):
        lo = min(max(earliest[here], t.lower) for t in agent.outgoing(here))
        hi = max(t.upper for t in agent.incoming(there))
        intervals.append((lo, hi))
    return MandatoryChain(agent.name, tuple(chain), tuple(intervals))


def _forbidden(c, period, chain, exclude_endpoints):
    """Is clock c inside one of the chain's hop windows (open, or closed
    under exclude_endpoints)?  At a reset instant (c == 0) the clock
    also reads the period just ended."""
    for x in ((0, period) if c == 0 else (c,)):
        for lo, hi in chain.intervals:
            if (lo <= x <= hi) if exclude_endpoints else (lo < x < hi):
                return True
    return False


def _locate(c, chain):
    """The chain locality past every hop window closed by clock c; in a
    strongly live model the windows close in chain order."""
    return chain.localities[sum(hi <= c for _, hi in chain.intervals)]


def find_cuts(m, exclude_endpoints=False):
    """All coherent cut offsets in one hyperperiod, as CutSpec tuples.

    A cut at a reset instant or at a zero-length window shows the state
    after the event.  A cut describes each agent's steady cycle:
    init_locality and init_clock place an agent at time 0 only, and a
    reset returns it to its first listed locality, so before an agent's
    first reset a cut may show it where it is not.
    """
    chains = [mandatory_chain(a) for a in m.agents]
    cuts = []
    for t in range(1, lcm_periods(m) + 1):
        clocks = tuple((t + a.init_clock) % a.reset_period for a in m.agents)
        if any(_forbidden(c, a.reset_period, chain, exclude_endpoints)
               for a, chain, c in zip(m.agents, chains, clocks)):
            continue
        localities = tuple(_locate(c, chain) for chain, c in zip(chains, clocks))
        cuts.append(CutSpec(t, localities, clocks))
    return tuple(cuts)


def best_cut(m):
    """The first coherent cut farthest from every hop window; used when
    the caller supplies no cuts of their own."""
    cuts = find_cuts(m)
    if not cuts:
        raise ValidationError("no coherent cut offset exists for this model")
    chains = [mandatory_chain(a) for a in m.agents]

    def gap(cut):
        # the window in this cycle, the next one and, once a cycle has
        # ended by t, the previous one
        out = inf
        for a, chain, c in zip(m.agents, chains, cut.clocks):
            period = a.reset_period
            ended = cut.t + a.init_clock >= period
            for lo, hi in chain.intervals:
                out = min(out, max(0, lo - c, c - hi), lo + period - c)
                if ended:
                    out = min(out, c + period - hi)
        return out

    return max(cuts, key=gap)


# cut lists as text: "t; locality,locality; clock,clock" per line


def format_cuts(cuts):
    lines = []
    for cut in cuts:
        lines.append(f"{cut.t}; {','.join(cut.localities)}; "
                     f"{','.join(str(c) for c in cut.clocks)}")
    return "\n".join(lines) + "\n"


def parse_cuts(text):
    from .errors import ParseError
    cuts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise ParseError("expected 't; localities; clocks'", lineno)
        try:
            t = int(parts[0])
        except ValueError:
            raise ParseError(f"bad offset {parts[0]!r}", lineno)
        localities = tuple(x.strip() for x in parts[1].split(","))
        try:
            clocks = tuple(int(x) for x in parts[2].split(","))
        except ValueError:
            raise ParseError(f"bad clock vector {parts[2]!r}", lineno)
        if len(localities) != len(clocks):
            raise ParseError("locality and clock vectors differ in length", lineno)
        cuts.append(CutSpec(t, localities, clocks))
    return tuple(cuts)


def load_cuts(path):
    with open(path, "r", encoding="utf-8") as fp:
        return parse_cuts(fp.read())


def validate_cuts(m, cuts):
    for cut in cuts:
        if len(cut.localities) != len(m.agents):
            raise MalformedState(f"cut at {cut.t}: wrong number of agents")
        for a, loc, c in zip(m.agents, cut.localities, cut.clocks):
            if loc not in a.localities:
                raise MalformedState(
                    f"cut at {cut.t}: {loc!r} is not a locality of {a.name!r}")
            if not 0 <= c <= a.reset_period:
                raise MalformedState(
                    f"cut at {cut.t}: clock {c} outside [0, {a.reset_period}]")
            if c == a.reset_period and loc != a.final_locality:
                raise MalformedState(
                    f"cut at {cut.t}: clock at the reset period away from "
                    f"the final locality")


class CutMatcher:
    """Prepared form of a cut list for the border tests of one check, and
    the step table its walks expand entries from; it reads the semantics,
    the configurations and the enabled fires and resets from the walk's
    kernel.  A matcher with no cuts answers False everywhere.

    A border test reads configurations only, so the table holds one row
    per (configuration id, from_seed), built by row the first time a walk
    expands that pair: one (target cid, transform, memo, on_border) tuple
    per step of kernel.steps, in the order of moves, where on_border is
    the answer of crosses for that edge, computed once.  rows[from_seed]
    maps a configuration id to its row.  The table lives as long as the
    matcher, and the memos as long as the kernel.
    """

    def __init__(self, kernel, cuts):
        self.kernel = kernel
        self.configs = {cut.config() for cut in cuts}
        self.by_loc = {}
        for cut in cuts:
            self.by_loc.setdefault(cut.localities, []).append(cut.clocks)
        self.rows = ({}, {})

    def on_cut(self, cid):
        return self.kernel.configs[cid] in self.configs

    def row(self, cid, from_seed):
        """The steps of configuration cid with their border answers, as
        walk expands an entry there; from_seed tells that the entry is one
        of the walk's seeds.  Built once per (cid, from_seed)."""
        out = self.rows[from_seed][cid] = tuple([
            (target, apply, memo, self._crosses(cid, target, from_seed))
            for _, target, apply, memo in self.kernel.steps(cid)])
        return out

    def crosses(self, pre, entry, pre_is_seed=False):
        """Is entry the first past (or at) a cut when coming from pre?

        pre and entry are walk entries of the kernel; pre is None for a
        seed.  Original semantics: entry simply shows a cut configuration.
        Accelerated: either entry shows one and a fire or reset happens
        there, or the jump from pre started on or stepped over the cut
        clocks.  Walks set pre_is_seed on edges leaving their seeds: a
        seed sitting on a cut configuration is the border just crossed,
        not the next one, so the jump-from-cut case must not retrigger
        there.  The answer reads the configuration ids alone.

        An edge whose clocks grew is a delay, so its pre enables only that
        delay exactly when no fire or reset is enabled there (kernel.acts).
        """
        return self._crosses(None if pre is None else pre[0], entry[0], pre_is_seed)

    def _crosses(self, pre, cid, pre_is_seed):
        if not self.kernel.accelerated:
            return self.on_cut(cid)
        if self.on_cut(cid) and self.kernel.acts(cid):
            return True
        if pre is None:
            return False
        pre_locs, pre_clocks = self.kernel.configs[pre]
        locs, clocks = self.kernel.configs[cid]
        grew = pre_locs == locs and all(p < c for p, c in zip(pre_clocks, clocks))
        if not grew:
            return False
        if not pre_is_seed and self.on_cut(pre) and not self.kernel.acts(pre):
            return True
        for cut_clocks in self.by_loc.get(locs, ()):
            if all(p < k <= c for p, k, c in zip(pre_clocks, cut_clocks, clocks)):
                return True
        return False


def unwalked(seen, s, mark):
    """Is (s, mark) still to walk: s is new to seen, or comes marked after
    being walked unmarked?"""
    return s not in seen or (mark and not seen[s])


def walk(kernel, seeds, visit, matcher, seen=None):
    """Width-first walk over (entry, mark) pairs from seeds up to the next
    border; entries are the kernel's (cid, vid) pairs.

    seen maps each entry walked so far to its strongest mark; a caller
    passes one dict to several walks to share it, otherwise each walk
    starts afresh.  An entry is expanded from matcher's step table (see
    CutMatcher): a fire reads its memo and applies its transform only on
    a miss, a reset or the delay keeps the value id, and an entry that
    has reached the X bound has no steps.  A seed, and any successor t of
    u whose step is not on_border, is walked only when unwalked(seen,
    ...); a successor whose step is on_border is on the border and is not
    walked.  visit(entry, mark) returns (stop, expand, mark): stop ends
    the walk, and only an expanded entry passes its new mark on to its
    successors.  Returns the border, mapping each entry to whether it was
    reached marked (None when visit stopped the walk), and the longest
    queue seen.
    """
    if seen is None:
        seen = {}
    queue = deque((s, mark) for s, mark in seeds if unwalked(seen, s, mark))
    seen.update(queue)
    seed_set = frozenset(s for s, _ in queue)
    values, reached, intern = kernel.values, kernel._reached, kernel._vid
    rows = matcher.rows
    border = {}
    peak = 0
    while queue:
        if len(queue) > peak:
            peak = len(queue)
        s, mark = queue.popleft()
        stop, expand, mark = visit(s, mark)
        if stop:
            return None, peak
        cid, vid = s
        if not expand or reached[vid]:
            continue
        from_seed = s in seed_set
        row = rows[from_seed].get(cid)
        if row is None:
            row = matcher.row(cid, from_seed)
        for target, apply, memo, on_border in row:
            if memo is None:
                t = (target, vid)
            else:
                t_vid = memo.get(vid)
                if t_vid is None:
                    # a transform that raises stores nothing, as in Kernel.moves
                    t_vid = memo[vid] = intern(apply(values[vid]))
                t = (target, t_vid)
            if on_border:
                border[t] = border.get(t, False) or mark
            elif t not in seen or (mark and not seen[t]):   # unwalked, inline
                seen[t] = mark
                queue.append((t, mark))
    return border, peak


def strong_components(m, strong_set=None):
    """The strong component names: the model's own, or strong_set once each
    name in it is found to be a component (else UnknownReference)."""
    if strong_set is None:
        return m.strong_names
    return frozenset(m.component(name).name for name in strong_set)


def clusters(kernel, strong):
    """The function that splits a border (entry -> mark) into clusters of
    equal strong-component values, in values order; each is a tuple of
    (entry, mark) pairs in the order of configs[cid] + (values,), which is
    the State order.  Values group in kernel form and order in edge form,
    as numbers: a pair and an int do not compare.  The strong components
    are picked once, here; an empty border has no cluster and a one-entry
    border is one."""
    configs, values, numbers = kernel.configs, kernel.values, kernel.numbers
    picks = [i for i, name in enumerate(kernel.model.component_names) if name in strong]
    # with one pick the key is the value itself, which orders as its 1-tuple
    strong_key = itemgetter(*picks) if picks else lambda v: ()

    def order(kv):
        cid, vid = kv[0]
        return configs[cid] + (numbers(vid),)

    def group_order(group):
        # the group's key in edge form, read off its first entry
        return strong_key(numbers(group[0][0][1]))

    def split(border):
        if len(border) < 2:
            return [tuple(border.items())] if border else []
        groups = {}
        for t, mark in border.items():
            groups.setdefault(strong_key(values[t[1]]), []).append((t, mark))
        return [tuple(sorted(group, key=order))
                for group in sorted(groups.values(), key=group_order)]

    return split


def _border(m, cuts, seeds, semantics, visitor, budget):
    """Walk from the State seeds up to the next border; returns the kernel
    and the border over its entries."""
    for s in seeds:
        sem.check_state(m, s)
    kernel = sem.Kernel(m, semantics)
    matcher = CutMatcher(kernel, cuts)
    taken = count(1)

    def visit(s, mark):
        if next(taken) > budget:
            raise BudgetExceeded(f"border walk exceeded {budget} states")
        if visitor is not None:
            visitor(kernel.state(s))
        return False, True, mark

    border, _ = walk(kernel, [(kernel.entry(s), False) for s in seeds], visit, matcher)
    return kernel, border


def next_border(m, cuts, s, semantics, visitor=None, *, budget=sem.DEFAULT_BUDGET):
    """Width-first walk from s up to the next border; returns the border.

    The seed itself is not border-tested, only states discovered from it.
    Every expanded state is passed to visitor.
    """
    kernel, border = _border(m, cuts, [s], semantics, visitor, budget)
    return frozenset(kernel.view(border).values())


def clustered_next_border(m, cuts, cluster, semantics, visitor=None, *,
                          strong_set=None, budget=sem.DEFAULT_BUDGET):
    """Walk from a whole cluster at once and split the border into clusters
    of equal strong-component valuations.

    With an empty strong set everything lands in one cluster, which makes
    the traversal collapse to the plain width-first one.
    """
    strong = strong_components(m, strong_set)
    seeds = sorted(cluster)
    kernel, border = _border(m, cuts, seeds, semantics, visitor, budget)
    view = kernel.view(border)
    return tuple(frozenset(view[t] for t, _ in c)
                 for c in clusters(kernel, strong)(border))
