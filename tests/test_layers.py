"""Coherent cuts, borders and clustered border walks."""

import json
import tracemalloc
from collections import deque
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from maptmc import layers, mc, semantics as sem
from maptmc.errors import (BudgetExceeded, MalformedState, MaptError, ParseError,
                           UnknownReference, ValidationError)
from maptmc.fixtures import fixture_path
from maptmc.layers import CutSpec
from maptmc.model import model_from_dict

import oracle


def cut_at(cuts, t):
    for cut in cuts:
        if cut.t == t:
            return cut
    raise AssertionError(f"no cut at {t}")


def plain(states):
    return {(s.localities, s.clocks, s.values) for s in states}


def value(m, s, name):
    return s.values[m.component_names.index(name)]


def test_mandatory_chain_two_tasks(two_tasks):
    chain = layers.mandatory_chain(two_tasks.agent("task_a"))
    assert chain.localities == ("a_start", "a_end")
    assert chain.intervals == ((1, 3),)


def test_mandatory_chain_staged(staged):
    chain_a = layers.mandatory_chain(staged.agent("stage_a"))
    assert chain_a.localities == ("a0", "a1", "a2")
    assert chain_a.intervals == ((1, 5), (6, 8))
    # b2 sits on only one of the two b1-to-b3 routes, so it drops out
    chain_b = layers.mandatory_chain(staged.agent("stage_b"))
    assert chain_b.localities == ("b0", "b1", "b3")
    assert chain_b.intervals == ((0, 4), (6, 11))


def test_find_cuts_two_tasks(two_tasks):
    cuts = layers.find_cuts(two_tasks)
    assert [c.t for c in cuts] == [1, 3, 4, 5]
    assert cut_at(cuts, 1).config() == (("a_start", "b_start"), (1, 1))
    assert cut_at(cuts, 3).config() == (("a_end", "b_end"), (3, 3))
    assert cut_at(cuts, 4).config() == (("a_end", "b_end"), (4, 4))
    assert cut_at(cuts, 5).config() == (("a_start", "b_start"), (0, 0))


def test_find_cuts_staged(staged):
    cuts = layers.find_cuts(staged)
    assert [c.t for c in cuts] == [5, 6, 11, 15, 19, 20, 21, 26, 28, 29, 30]
    assert cut_at(cuts, 5).config() == (("a1", "b1"), (5, 5))
    assert cut_at(cuts, 19).config() == (("a2", "b1"), (9, 4))
    assert cut_at(cuts, 20).config() == (("a0", "b1"), (0, 5))
    assert cut_at(cuts, 30).config() == (("a0", "b0"), (0, 0))


def test_exclude_endpoints_keeps_strictly_clear_offsets(staged):
    keep = {c.t for c in layers.find_cuts(staged)}
    strict = {c.t for c in layers.find_cuts(staged, exclude_endpoints=True)}
    # only 20 and 29 stay clear of every window once endpoints count as inside
    assert strict == {20, 29}
    assert strict < keep


def reference_best_cut(m, cuts):
    """best_cut's rule written out: the first cut farthest from the nearest
    hop window of any agent, in the agent's cycle at t, the next one and,
    once a cycle has ended by t, the previous one."""
    chains = [layers.mandatory_chain(a) for a in m.agents]

    def gap(cut):
        out = inf
        for a, chain, c in zip(m.agents, chains, cut.clocks):
            period = a.reset_period
            for lo, hi in chain.intervals:
                out = min(out, max(0, lo - c, c - hi), lo + period - c)
                if cut.t + a.init_clock >= period:
                    out = min(out, c + period - hi)
        return out

    # max keeps the first of equal gaps, so ties go to the earliest offset
    return max(cuts, key=gap)


def assert_cuts_match_oracle(m, raw):
    # cuts describe each agent's steady cycle, which it has entered by its
    # first reset, at reset_period - init_clock; so the oracle is read over
    # the second hyperperiod, shifted back by one
    period = layers.lcm_periods(m)
    valid = {t - period: points
             for t, points in oracle.cut_times(raw, 2 * period).items() if t > period}
    cuts = layers.find_cuts(m)
    assert [c.t for c in cuts] == sorted(valid)
    for cut in cuts:
        for i, (loc, clock) in enumerate(zip(cut.localities, cut.clocks)):
            assert (loc, clock) in valid[cut.t][i]
    if cuts:
        assert layers.best_cut(m) == reference_best_cut(m, cuts)
    else:
        with pytest.raises(ValidationError):
            layers.best_cut(m)


def test_cuts_match_per_agent_oracle(two_tasks, staged, vehicles, raw_two_tasks,
                                     raw_staged, raw_vehicles):
    assert_cuts_match_oracle(two_tasks, raw_two_tasks)
    assert_cuts_match_oracle(staged, raw_staged)
    assert_cuts_match_oracle(vehicles, raw_vehicles)


def agents_model(agents, path, init=0):
    """The model with the given agents and one X counter every hop bumps,
    starting at init, and its oracle twin read back from path."""
    data = {"components": [{"name": "n", "init": init, "x": True}],
            "transforms": {"tally": {"n": "n + 1"}},
            "agents": list(agents)}
    path.write_text(json.dumps(data), encoding="utf-8")
    return model_from_dict(data), oracle.RawModel(path)


def hop(tid, src, dst, lo, hi):
    return {"id": tid, "from": src, "to": dst, "transform": "tally",
            "interval": [lo, hi]}


def test_hop_opens_at_earliest_reachable_exit(tmp_path):
    # p1 is reached at clock 4 at the soonest, so its exit opens at 4, not 2
    m, raw = agents_model([{
        "name": "p", "localities": ["p0", "p1", "p2"],
        "transitions": [hop("e0", "p0", "p1", 4, 7), hop("e1", "p1", "p2", 2, 9)],
        "reset_period": 9, "init_locality": "p0", "init_clock": 0}],
        tmp_path / "model.json")
    assert layers.mandatory_chain(m.agents[0]).intervals == ((4, 7), (4, 9))
    assert [c.t for c in layers.find_cuts(m)] == [1, 2, 3, 4, 9]
    assert_cuts_match_oracle(m, raw)


@st.composite
def live_agents(draw, name):
    """One strongly live agent: 1 to 4 localities in a row, maybe one skip
    hop.  Each locality has a level, rising along the row and at most the
    period; a hop's upper bound lies between the levels of its ends, so no
    upper bound falls along a path and none passes the period.  The
    initial clock is at most the latest exit of the first locality (the
    period when it is the only one), so the agent starts live."""
    n = draw(st.integers(1, 4))
    period = draw(st.integers(1, 9))
    levels = sorted(draw(st.lists(st.integers(0, period), min_size=n, max_size=n)))
    pairs = [(i, i + 1) for i in range(n - 1)]
    if n > 2 and draw(st.booleans()):
        skip = draw(st.integers(0, n - 3))
        pairs.append((skip, skip + 2))
    locs = [f"{name}{i}" for i in range(n)]
    hops = []
    for k, (i, j) in enumerate(pairs):
        hi = draw(st.integers(levels[i], levels[j]))
        lo = draw(st.integers(0, hi))
        hops.append(hop(f"{name}_{k}", locs[i], locs[j], lo, hi))
    cap = max((h["interval"][1] for h in hops if h["from"] == locs[0]), default=period)
    return {"name": name, "localities": locs, "transitions": hops,
            "reset_period": period, "init_locality": locs[0],
            "init_clock": draw(st.integers(0, cap))}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(*(live_agents(f"g{i}") for i in range(k)))))
def test_cuts_match_oracle_on_generated_models(tmp_path_factory, agents):
    assert_cuts_match_oracle(
        *agents_model(agents, tmp_path_factory.mktemp("gen") / "model.json"))


def test_best_cut(two_tasks):
    best = layers.best_cut(two_tasks)
    assert best.t == 4


def test_best_cut_keeps_no_cut_list():
    # periods 101 and 103 give 10403 offsets, nearly all coherent; best_cut
    # reads them one at a time, so its memory is the agents' clock tables
    # (a list of every cut peaks near 2.5 MiB)
    data = json.loads(fixture_path("vehicles.json").read_text(encoding="utf-8"))
    for agent, period in zip(data["agents"], (101, 103)):
        agent["reset_period"] = period
    m = model_from_dict(data)
    tracemalloc.start()
    try:
        best = layers.best_cut(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert best == reference_best_cut(m, layers.find_cuts(m))


def test_cut_text_round_trip(staged):
    cuts = layers.find_cuts(staged)
    text = layers.format_cuts(cuts)
    assert layers.parse_cuts(text) == cuts


def test_parse_cuts_tolerates_comments():
    text = "# layer plan\n\n4; a_end,b_end; 4,4\n"
    cuts = layers.parse_cuts(text)
    assert cuts == (CutSpec(4, ("a_end", "b_end"), (4, 4)),)


PARSE_CUT_ERRORS = [
    "4; a_end,b_end",
    "x; a_end,b_end; 4,4",
    "4; a_end,b_end; 4,x",
    "4; a_end,b_end; 4",
]


@pytest.mark.parametrize("text", PARSE_CUT_ERRORS)
def test_parse_cuts_errors(text):
    with pytest.raises(ParseError):
        layers.parse_cuts(text)


def spliced(texts, junk):
    """A strategy of texts from texts with up to two tokens of junk put in
    at drawn positions, so most are near misses of a valid text."""
    def splice(drawn):
        text, inserts = drawn
        for at, token in inserts:
            at %= len(text) + 1
            text = text[:at] + token + text[at:]
        return text
    return st.tuples(texts, st.lists(st.tuples(st.integers(0, 400), st.sampled_from(junk)),
                                     max_size=2)).map(splice)


# Cut-file texts over a token alphabet: each parses and validates against
# two_tasks, or fails with a MaptError; cuts that validate give a layered
# check a verdict or a MaptError, never a traceback.
CUT_LINES = st.tuples(
    st.sampled_from(["4", "0", "5", "-1", "x", "1.5", "٣", ""]),
    st.sampled_from(["a_start,b_start", "a_end,b_end", "a_start,b_end", "a_end",
                     "a_start,nosuch", "b_start,a_start", "a_start,b_start,a_end"]),
    st.sampled_from(["0,0", "4,4", "5,5", "4,5", "1,6", "4", "-1,0", "x,1", "1.5,2"]),
).map("; ".join)
CUT_TEXTS = spliced(st.lists(CUT_LINES, min_size=1, max_size=2).map("\n".join),
                    [";", ",", "\n", "#", " ", "7", "x", "a_end"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(CUT_TEXTS)
def test_cut_texts_load_or_raise_a_mapt_error(two_tasks, text):
    try:
        cuts = layers.parse_cuts(text)
        layers.validate_cuts(two_tasks, cuts)
        if cuts:
            mc.check(two_tasks, "AG count >= 0", {"count": 1}, cuts=cuts, budget=2000)
    except MaptError:
        pass


def test_load_cuts(tmp_path, two_tasks):
    path = tmp_path / "cuts.txt"
    path.write_text(layers.format_cuts(layers.find_cuts(two_tasks)), encoding="utf-8")
    assert layers.load_cuts(path) == layers.find_cuts(two_tasks)


VALIDATE_ERRORS = [
    CutSpec(1, ("a_start",), (1,)),
    CutSpec(1, ("a_start", "nowhere"), (1, 1)),
    CutSpec(1, ("a_start", "b_start"), (1, 6)),
    CutSpec(1, ("a_start", "b_start"), (1, -1)),
    # a clock one full period along is only coherent on the final locality
    CutSpec(5, ("a_end", "b_start"), (4, 5)),
]


@pytest.mark.parametrize("cut", VALIDATE_ERRORS, ids=[str(i) for i in range(5)])
def test_validate_cuts_errors(two_tasks, cut):
    with pytest.raises(MalformedState):
        layers.validate_cuts(two_tasks, (cut,))


def test_validate_cuts_accepts_found(two_tasks, staged):
    layers.validate_cuts(two_tasks, layers.find_cuts(two_tasks))
    layers.validate_cuts(staged, layers.find_cuts(staged))


FIVE_LOADS = {
    Fraction(1, 2), Fraction(31, 20), Fraction(2), Fraction(23, 10), Fraction(18, 5),
}


def test_first_border_is_nearest_cut(two_tasks):
    # with the whole cut list the walk stops at the offset-1 cut
    cuts = layers.find_cuts(two_tasks)
    border = layers.next_border(two_tasks, cuts, sem.initial_state(two_tasks),
                               "original")
    assert {s.config() for s in border} == {(("a_start", "b_start"), (1, 1))}


def test_border_two_tasks_original(two_tasks):
    cuts = layers.find_cuts(two_tasks)
    target = (cut_at(cuts, 4),)
    s0 = sem.initial_state(two_tasks)
    border = layers.next_border(two_tasks, target, s0, "original")
    assert len(border) == 5
    for s in border:
        assert s.config() == (("a_end", "b_end"), (4, 4))
        assert value(two_tasks, s, "count") == 1
    assert {value(two_tasks, s, "load") for s in border} == FIVE_LOADS


def test_border_two_tasks_accelerated_crosses_cut(two_tasks):
    cuts = layers.find_cuts(two_tasks)
    target = (cut_at(cuts, 4),)
    s0 = sem.initial_state(two_tasks)
    border = layers.next_border(two_tasks, target, s0, "accelerated")
    # the jump from clock 3 lands one past the cut at 4
    assert {s.clocks for s in border} == {(5, 5)}
    assert {value(two_tasks, s, "load") for s in border} == FIVE_LOADS


def test_border_matches_oracle(two_tasks, raw_two_tasks):
    cuts = layers.find_cuts(two_tasks)
    target = (cut_at(cuts, 4),)
    border = layers.next_border(two_tasks, target, sem.initial_state(two_tasks),
                               "original")
    expected = oracle.border_first_hit(
        raw_two_tasks, (("a_end", "b_end"), (4, 4)), "original")
    assert plain(border) == expected


def test_second_border_reaches_reset(two_tasks):
    cuts = layers.find_cuts(two_tasks)
    first = layers.next_border(two_tasks, (cut_at(cuts, 4),),
                               sem.initial_state(two_tasks), "original")
    seen = set()
    for s in first:
        seen |= layers.next_border(two_tasks, (cut_at(cuts, 5),), s, "original")
    assert {s.config() for s in seen} == {(("a_start", "b_start"), (0, 0))}
    assert {value(two_tasks, s, "load") for s in seen} == FIVE_LOADS


def test_border_staged_frozen(staged):
    cuts = (cut_at(layers.find_cuts(staged), 5),)
    s0 = sem.initial_state(staged)
    border = layers.next_border(staged, cuts, s0, "original")
    assert plain(border) == {(("a1", "b1"), (5, 5), (Fraction(0),))}
    accel = layers.next_border(staged, cuts, s0, "accelerated")
    assert plain(accel) == {(("a1", "b1"), (7, 7), (Fraction(0),))}


def test_border_staged_late_cut(staged):
    cuts = (CutSpec(19, ("a2", "b1"), (9, 4)),)
    s0 = sem.initial_state(staged)
    border = layers.next_border(staged, cuts, s0, "original")
    assert plain(border) == {(("a2", "b1"), (9, 4), (Fraction(2),))}
    accel = layers.next_border(staged, cuts, s0, "accelerated")
    assert plain(accel) == {(("a2", "b1"), (10, 5), (Fraction(2),))}


def test_border_budget_guard(staged):
    # the hyperperiod cut can be bypassed by simultaneous independent moves,
    # so a walk toward it alone must be stopped by the budget
    cuts = (CutSpec(30, ("a0", "b0"), (0, 0)),)
    s0 = sem.initial_state(staged)
    with pytest.raises(BudgetExceeded):
        layers.next_border(staged, cuts, s0, "original", budget=2000)


def test_visitor_sees_seed_first(two_tasks):
    cuts = layers.find_cuts(two_tasks)
    s0 = sem.initial_state(two_tasks)
    visited = []
    layers.next_border(two_tasks, cuts, s0, "original", visitor=visited.append)
    assert visited[0] == s0
    assert len(visited) == len(set(visited))


def test_border_past_reset_cut_accelerated(two_tasks):
    # accelerated walks re-enter the reset configuration by firing resets;
    # those states sit on the offset-5 cut without crossing it, so the
    # border is the jump that leaves it
    cuts = (cut_at(layers.find_cuts(two_tasks), 5),)
    border = layers.next_border(two_tasks, cuts, sem.initial_state(two_tasks),
                                "accelerated")
    assert {s.clocks for s in border} == {(2, 2)}
    assert {value(two_tasks, s, "load") for s in border} == FIVE_LOADS


def test_matcher_seed_suppression(two_tasks):
    cuts = (CutSpec(5, ("a_start", "b_start"), (0, 0)),)
    kernel = sem.Kernel(two_tasks, "accelerated")
    matcher = layers.CutMatcher(kernel, cuts)
    s0 = sem.initial_state(two_tasks)
    jumped = sem.step(two_tasks, s0, sem.Delay(2))
    pre, cid = kernel.entry(s0)[0], kernel.entry(jumped)[0]
    assert matcher.crosses(pre, cid)
    assert not matcher.crosses(pre, cid, pre_is_seed=True)
    kernel = sem.Kernel(two_tasks, "original")
    original = layers.CutMatcher(kernel, cuts)
    assert not original.crosses(kernel.entry(s0)[0], kernel.entry(jumped)[0])


def test_matcher_answer_depends_on_pre_state(two_tasks):
    # The matcher keeps its answers per (pre configuration id,
    # configuration id, pre_is_seed): into one entry, a jump that starts on
    # the cut crosses it and a jump that starts past it does not, in either
    # order.
    cuts = (CutSpec(5, ("a_start", "b_start"), (0, 0)),)
    s0 = sem.initial_state(two_tasks)
    jumped = sem.step(two_tasks, s0, sem.Delay(2))
    past = sem.State(s0.localities, (1, 1), s0.values)
    for order in ((s0, past), (past, s0)):
        kernel = sem.Kernel(two_tasks, "accelerated")
        matcher = layers.CutMatcher(kernel, cuts)
        assert [matcher.crosses(kernel.entry(pre)[0], kernel.entry(jumped)[0])
                for pre in order] == [pre is s0 for pre in order]


def test_clustered_border_partitions(two_tasks):
    cuts = (cut_at(layers.find_cuts(two_tasks), 4),)
    s0 = sem.initial_state(two_tasks)
    whole = layers.next_border(two_tasks, cuts, s0, "original")

    by_default = layers.clustered_next_border(two_tasks, cuts, [s0], "original")
    assert len(by_default) == 5
    assert all(len(c) == 1 for c in by_default)

    merged = layers.clustered_next_border(two_tasks, cuts, [s0], "original",
                                          strong_set=())
    assert merged == (whole,)

    by_count = layers.clustered_next_border(two_tasks, cuts, [s0], "original",
                                            strong_set={"count"})
    assert len(by_count) == 1

    by_load = layers.clustered_next_border(two_tasks, cuts, [s0], "original",
                                           strong_set={"load"})
    assert len(by_load) == 5

    for groups in (by_default, merged, by_count, by_load):
        assert frozenset().union(*groups) == whole


def test_clustered_border_rejects_unknown_strong_name(two_tasks):
    cuts = (cut_at(layers.find_cuts(two_tasks), 4),)
    with pytest.raises(UnknownReference, match="'nosuch'"):
        layers.clustered_next_border(two_tasks, cuts, [sem.initial_state(two_tasks)],
                                     "original", strong_set={"nosuch"})


def unwalked(seen, s, mark):
    """Is (s, mark) still to walk: s is new to seen, or comes marked after
    being walked unmarked?"""
    return s not in seen or (mark and not seen[s])


def reference_walk(matcher, seeds, visit, seen):
    """The per-entry walk layers.walk replaced: every edge comes from
    kernel.moves and is border-tested by matcher.crosses."""
    kernel = matcher.kernel
    queue = deque((s, mark) for s, mark in seeds if unwalked(seen, s, mark))
    seen.update(queue)
    seed_set = frozenset(s for s, _ in queue)
    border = {}
    peak = 0
    while queue:
        peak = max(peak, len(queue))
        s, mark = queue.popleft()
        stop, expand, mark = visit(s, mark)
        if stop:
            return None, peak
        if not expand:
            continue
        from_seed = s in seed_set
        for _, t in kernel.moves(s):
            if matcher.crosses(s[0], t[0], from_seed):
                border[t] = border.get(t, False) or mark
            elif unwalked(seen, t, mark):
                seen[t] = mark
                queue.append((t, mark))
    return border, peak


def layered_trace(walk, m, semantics, x_bound, cuts, seed_mark, limit):
    """Walk cluster by cluster, FIFO, with one seen map and one matcher;
    returns every visit, border (with its marks) and peak, over States."""
    kernel = sem.Kernel(m, semantics, x_bound)
    matcher = layers.CutMatcher(kernel, cuts)
    split = layers.clusters(kernel, m.strong_names)
    trace = []

    def visit(s, mark):
        state = kernel.state(s)
        trace.append((state, mark))
        # marks and drops follow the visit count, which both walks share
        # as long as they agree
        drop = not mark and len(trace) % 5 == 4
        return len(trace) > limit, not drop, mark or len(trace) % 17 == 0

    seen = {}
    pending = deque([((kernel.start, seed_mark),)])
    for _ in range(60):
        if not pending:
            break
        border, peak = walk(matcher, pending.popleft(), visit, seen)
        if border is None:
            trace.append(("stopped", peak))
            break
        trace.append(("border", [(kernel.state(t), mark) for t, mark in border.items()],
                      peak))
        pending.extend(split(border))
    return trace


def assert_walks_agree(m, x_bound):
    cut_lists = [(), layers.find_cuts(m)] + [(cut,) for cut in layers.find_cuts(m)]
    if cut_lists[1]:
        cut_lists.append((layers.best_cut(m),))
    for semantics in sem.SEMANTICS:
        for cuts in cut_lists:
            for seed_mark in (False, True):
                for limit in (40, 5000):
                    args = (m, semantics, x_bound, cuts, seed_mark, limit)
                    assert (layered_trace(layers.walk, *args)
                            == layered_trace(reference_walk, *args)), args[1:]


def test_walk_matches_reference_walk(two_tasks, staged, vehicles):
    # the step table gives the same visits, marks, borders and peaks as
    # expanding each entry through kernel.moves and matcher.crosses
    assert_walks_agree(two_tasks, {"count": 3})
    assert_walks_agree(staged, {"cycles": 2})
    assert_walks_agree(vehicles, {"pos_a": 6, "pos_b": 6})


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(*(live_agents(f"g{i}") for i in range(k)))))
def test_walk_matches_reference_walk_on_generated_models(tmp_path_factory, agents):
    m, _ = agents_model(agents, tmp_path_factory.mktemp("gen") / "model.json")
    assert_walks_agree(m, {"n": 4})
