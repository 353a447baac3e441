"""The compiled successor kernel against the naive oracle, and the Petri
cross-check against a miscompiled kernel and a wrong zone."""

from fractions import Fraction

import pytest

from maptmc import codegen, expr, mc, petri
from maptmc import semantics as sem
from maptmc.errors import Overflow
from maptmc.model import eval_transform
from maptmc.semantics import Delay, Fire, Kernel, Reset

import oracle

# (fixture, X bound, time bound): each bounded space is walked by the
# oracle, and every state of it is handed to the kernel.
SPACES = [
    ("two_tasks", {"count": 3}, None),
    ("two_tasks", None, 12),
    ("staged", {"cycles": 2}, None),
    ("vehicles", {"pos_a": 8, "pos_b": 8}, None),
]


def _plain_event(e):
    if isinstance(e, Fire):
        return ("fire", e.transition)
    if isinstance(e, Reset):
        return ("reset", e.agent)
    assert isinstance(e, Delay)
    return ("delay", e.amount)


def _plain(moves):
    return [(_plain_event(e), (t.localities, t.clocks, t.values))
            for e, t in moves]


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
@pytest.mark.parametrize("fixture,x_bound,time_bound", SPACES)
def test_kernel_matches_oracle_on_bounded_space(request, semantics, fixture,
                                                x_bound, time_bound):
    m = request.getfixturevalue(fixture)
    raw = request.getfixturevalue(f"raw_{fixture}")
    bound = None if x_bound is None else {n: Fraction(v) for n, v in x_bound.items()}
    dist, _, _ = oracle.build_graph(raw, semantics, bound, time_bound)
    plain = Kernel(m, semantics)
    bounded = Kernel(m, semantics, x_bound, time_bound)
    for locs, clocks, values in dist:
        s = sem.State(locs, clocks, values)
        state = (locs, clocks, values)
        expected = oracle.successors(raw, state, semantics)
        assert _plain(plain.successors(s)) == expected
        acts = any(kind != "delay" for (kind, _), _ in expected)
        assert plain.acts(plain.entry(s)[0]) == acts
        assert bounded.acts(bounded.entry(s)[0]) == acts
        assert _plain(bounded.successors(s, dist[state])) == oracle.bounded_successors(
            raw, state, semantics, bound, time_bound, dist[state])


def test_cross_check_covers_compiled_transforms(monkeypatch, two_tasks):
    # The net applies transforms through the interpreter, the model side
    # through compile_transform: a miscompiled effect must show as a
    # divergence.
    target = two_tasks.transform("halve").effects["load"]
    load = two_tasks.component_names.index("load")
    compile_transform = codegen.compile_transform

    def miscompile(effects, index):
        compiled = compile_transform(effects, index)
        if effects.get("load") is target:
            def apply(values):
                out = list(compiled(values))
                # the kernel's numbers are ints and pairs: add in edge form
                out[load] = expr.to_kernel(expr.from_kernel(out[load]) + 1)
                return tuple(out)
            return apply
        return compiled

    assert petri.state_space_equiv(two_tasks, {"count": 1}).equal
    monkeypatch.setattr(codegen, "compile_transform", miscompile)
    res = petri.state_space_equiv(two_tasks, {"count": 1})
    assert not res.equal
    assert "early_b" in res.detail or "late_b" in res.detail


def test_cross_check_covers_zone(monkeypatch, two_tasks):
    # The accelerated net derives its jump on its own: a zone computation
    # off by one in the semantics must show as a divergence of the time move.
    zone = sem._zone

    def off_by_one(rows, clocks):
        b_per_agent, horizon, start, delta = zone(rows, clocks)
        return b_per_agent, horizon, start, delta + 1 if delta else 0

    assert petri.state_space_equiv(two_tasks, {"count": 1}, "accelerated").equal
    monkeypatch.setattr(sem, "_zone", off_by_one)
    res = petri.state_space_equiv(two_tasks, {"count": 1}, "accelerated")
    assert not res.equal
    assert "time" in res.detail


@pytest.mark.parametrize("strategy", mc.STRATEGIES)
def test_one_kernel_per_check(monkeypatch, two_tasks, strategy):
    built = []
    init = Kernel.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "__init__", counting)
    mc.check(two_tasks, "AG load <= 18/5", x_bound={"count": 2}, strategy=strategy)
    assert len(built) == 1


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_start_is_the_first_entry(two_tasks, semantics):
    # the initial state is interned when the kernel is built, whatever the
    # bounds, and every walk starts from it
    kernel = Kernel(two_tasks, semantics, {"count": 0}, 0)
    assert kernel.start == (0, 0)
    assert kernel.state(kernel.start) == sem.initial_state(two_tasks)
    assert kernel.entry(sem.initial_state(two_tasks)) == kernel.start
    assert kernel.reached(kernel.start)
    assert next(iter(sem.explore(two_tasks, semantics, 1).states)) == \
        sem.initial_state(two_tasks)


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_plan_depends_only_on_configuration(semantics, two_tasks, raw_two_tasks):
    # The kernel plans each (localities, clocks) pair once, but the X bound
    # reads the values and the time bound reads elapsed: whichever state of a
    # configuration comes first, neither test may be frozen into its plan.
    x_bound, time_bound = {"count": 2}, 12
    bound = {"count": Fraction(2)}
    dist = sem.explore(two_tasks, semantics, time_bound=time_bound).states
    count = two_tasks.component_names.index("count")
    by_config = {}
    for s in sorted(dist, key=lambda s: (s.values[count], s)):
        by_config.setdefault(s.config(), []).append(s)
    at, below = next((group[-1], group[0]) for group in by_config.values()
                     if group[-1].values[count] >= 2 > group[0].values[count]
                     and Kernel(two_tasks, semantics).successors(group[0]))

    def expected(s, elapsed):
        state = (s.localities, s.clocks, s.values)
        return oracle.bounded_successors(raw_two_tasks, state, semantics, bound,
                                         time_bound, elapsed)

    for order in ((at, below), (below, at)):
        kernel = Kernel(two_tasks, semantics, x_bound, time_bound)
        for s in order:
            got = _plain(kernel.successors(s, dist[s]))
            assert kernel.final(kernel.entry(s), dist[s]) == (not got)
            assert got == ([] if s is at else expected(s, dist[s]))
        assert kernel.successors(below, dist[below])

    amount = next(e.amount for e, _ in Kernel(two_tasks, semantics).successors(below)
                  if isinstance(e, Delay))
    within, past = time_bound - amount, time_bound - amount + 1
    for order in ((within, past), (past, within)):
        kernel = Kernel(two_tasks, semantics, x_bound, time_bound)
        for elapsed in order:
            got = _plain(kernel.successors(below, elapsed))
            assert got == expected(below, elapsed)
            assert (("delay", amount) in [event for event, _ in got]) == (elapsed == within)


@pytest.mark.parametrize("fixture,x_bound,states,zones", [
    ("two_tasks", {"count": 7}, 38160, 12),
    ("vehicles", {"pos_a": 20, "pos_b": 20}, 12375, 8),
])
def test_one_zone_per_configuration(request, monkeypatch, fixture, x_bound, states,
                                    zones):
    # accelerated exploration computes one zone per (localities, clocks)
    # configuration, not one per state
    m = request.getfixturevalue(fixture)
    calls = []
    zone = sem._zone

    def counting(rows, clocks):
        calls.append(clocks)
        return zone(rows, clocks)

    monkeypatch.setattr(sem, "_zone", counting)
    result = sem.explore(m, "accelerated", x_bound)
    assert len(result.states) == states
    assert len(calls) == zones == len({s.config() for s in result.states})


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
@pytest.mark.parametrize("fixture,x_bound,time_bound", SPACES)
def test_engine_final_matches_successors(request, semantics, fixture, x_bound,
                                         time_bound):
    m = request.getfixturevalue(fixture)
    kernel = Kernel(m, semantics, x_bound)
    dist = sem.explore(m, semantics, x_bound, time_bound=time_bound).states
    assert len(dist) > 1
    for s in dist:
        assert kernel.final(kernel.entry(s)) == (not kernel.successors(s))


def _count_transform_calls(monkeypatch):
    """Wrap every transform a kernel compiles; returns the list of the
    value tuples they are applied to, in call order."""
    calls = []
    compile_transform = codegen.compile_transform

    def counting(effects, index):
        apply = compile_transform(effects, index)

        def counted(values):
            calls.append(values)
            return apply(values)

        return counted

    monkeypatch.setattr(codegen, "compile_transform", counting)
    return calls


def _transform(m, fire):
    return m.transform(m.transition(fire.transition)[1].transform)


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
@pytest.mark.parametrize("fixture,x_bound", [
    ("two_tasks", {"count": 5}),
    ("vehicles", {"pos_a": 12, "pos_b": 12}),
])
def test_fire_memo_matches_interpreter(request, monkeypatch, semantics, fixture,
                                       x_bound):
    # every fire arc lands on the values the interpreter computes from its
    # source, also the arcs whose (value id, transform) pair the memo served
    m = request.getfixturevalue(fixture)
    calls = _count_transform_calls(monkeypatch)
    result = sem.explore(m, semantics, x_bound)
    fires = [(s, e, t) for s, e, t in result.edges if isinstance(e, Fire)]
    pairs = {(s.values, id(_transform(m, e))) for s, e, _ in fires}
    assert len(calls) == len(pairs) < len(fires)
    for s, e, t in fires:
        assert t.values == eval_transform(_transform(m, e), m.component_names, s.values)


def test_fire_memo_keeps_no_failed_transform(two_tasks):
    # early_a doubles load: past the magnitude cap it raises, and stores
    # nothing, so the same entry raises the same error again
    kernel = Kernel(two_tasks, "original")
    s = sem.State(("a_start", "b_start"), (1, 1), (2 ** 65536, 0))
    entry = kernel.entry(s)
    with pytest.raises(Overflow) as first:
        kernel.moves(entry)
    with pytest.raises(Overflow) as second:
        kernel.moves(entry)
    assert str(first.value) == str(second.value) == "value in 2 * load exceeds 65536 bits"
    start = kernel.entry(sem.initial_state(two_tasks))
    assert [sem.event_label(e) for e, _ in kernel.moves(start)] == ["+1"]


def test_fire_memo_is_per_kernel(monkeypatch, two_tasks):
    # a second kernel of the same model applies every transform afresh, and
    # its memo answers with its own value ids, whatever order they came in
    calls = _count_transform_calls(monkeypatch)
    first = sem.explore(two_tasks, "accelerated", {"count": 3})
    applied = len(calls)
    assert applied
    kernel = Kernel(two_tasks, "accelerated", {"count": 3})
    # intern the states in reverse, so the value ids differ from the first
    # kernel's
    for s in sorted(first.states, key=lambda s: -first.states[s]):
        kernel.entry(s)
    for s in first.states:
        for e, t in kernel.successors(s, first.states[s]):
            if isinstance(e, Fire):
                assert t.values == eval_transform(_transform(two_tasks, e),
                                                  two_tasks.component_names, s.values)
    del calls[:]
    again = sem.explore(two_tasks, "accelerated", {"count": 3})
    assert len(calls) == applied
    assert again.states == first.states
