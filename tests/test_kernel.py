"""The compiled successor kernel against the naive oracle, and the Petri
cross-check against a miscompiled kernel and a wrong zone."""

from fractions import Fraction

import pytest

from maptmc import expr, mc, petri
from maptmc import semantics as sem
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
    return [(_plain_event(e), (t.localities, t.clocks, t.valuation.values))
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
    start = m.initial_valuation()
    for locs, clocks, values in dist:
        s = sem.State(locs, clocks, start.with_values(values))
        state = (locs, clocks, values)
        expected = oracle.successors(raw, state, semantics)
        assert _plain(plain.successors(s)) == expected
        acts = any(kind != "delay" for (kind, _), _ in expected)
        assert plain.acts(s) == bounded.acts(s) == acts
        assert _plain(bounded.successors(s, dist[state])) == oracle.bounded_successors(
            raw, state, semantics, bound, time_bound, dist[state])


def test_cross_check_covers_compiled_transforms(monkeypatch, two_tasks):
    # The net applies transforms through the interpreter, the model side
    # through compile_arith: a miscompiled effect must show as a divergence.
    target = two_tasks.transform("halve").effects["load"]
    compile_arith = expr.compile_arith

    def miscompile(node, index):
        compiled = compile_arith(node, index)
        if node is target:
            return lambda values: compiled(values) + 1
        return compiled

    assert petri.state_space_equiv(two_tasks, {"count": 1}).equal
    monkeypatch.setattr(expr, "compile_arith", miscompile)
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
