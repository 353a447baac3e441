"""High-level net translation and the lockstep equivalence check."""

import json
from fractions import Fraction

import pytest

from maptmc import fixtures, petri, semantics as sem
from maptmc.errors import BudgetExceeded, NotEnabled, Overflow
from maptmc.model import eval_transform, model_from_dict

import oracle


def test_two_tasks_net_structure(two_tasks):
    net = petri.translate(two_tasks)
    assert net.places == ("localities", "clocks", "valuation")
    assert set(net.transitions) == {
        "early_a", "late_a", "early_b", "late_b",
        "reset_task_a", "reset_task_b", "time",
    }
    kinds = {name: t.kind for name, t in net.transitions.items()}
    assert kinds["early_a"] == "task"
    assert kinds["reset_task_a"] == "reset"
    assert kinds["time"] == "time"


def test_staged_net_structure(staged):
    net = petri.translate(staged)
    assert set(net.transitions) == {
        "a01", "a12", "b01", "b12", "b23", "b13",
        "reset_stage_a", "reset_stage_b", "time",
    }


def test_encode_decode_round_trip(two_tasks):
    net = petri.translate(two_tasks)
    s = sem.initial_state(two_tasks)
    mk = petri.encode(s)
    assert mk == net.initial_marking()
    assert sem.State(mk.localities, mk.clocks, mk.values) == s


def test_net_moves_track_semantics(two_tasks):
    net = petri.translate(two_tasks)
    mk = net.initial_marking()
    assert petri.enabled_net(net, mk) == ("time",)
    mk = petri.fire(net, mk, "time")
    mk = petri.fire(net, mk, "time")
    enabled = set(petri.enabled_net(net, mk))
    assert enabled == {"early_a", "early_b", "time"}
    after = petri.fire(net, mk, "early_a")
    assert after.localities == ("a_end", "b_start")
    assert after.clocks == (2, 2)


def test_fire_errors(two_tasks):
    net = petri.translate(two_tasks)
    mk = net.initial_marking()
    with pytest.raises(NotEnabled):
        petri.fire(net, mk, "early_a")
    with pytest.raises(NotEnabled):
        petri.fire(net, mk, "warp")


def test_accelerated_time_jumps(two_tasks):
    net = petri.translate(two_tasks, accelerated=True)
    mk = net.initial_marking()
    mk = petri.fire(net, mk, "time")
    assert mk.clocks == (2, 2)


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
@pytest.mark.parametrize("fixture,x_bound", [
    ("two_tasks", {"count": 3}),
    ("staged", {"cycles": 2}),
    ("vehicles", {"pos_a": 8, "pos_b": 8}),
])
def test_accelerated_time_matches_oracle_zone(request, fixture, x_bound, semantics):
    # every state of the bounded space: the net's time transition jumps by
    # the oracle's zone width, and is disabled where that width is 0
    m = request.getfixturevalue(fixture)
    raw = request.getfixturevalue(f"raw_{fixture}")
    net = petri.translate(m, accelerated=True)
    bound = {n: Fraction(v) for n, v in x_bound.items()}
    dist, _, _ = oracle.build_graph(raw, semantics, bound)
    for state in dist:
        mk = petri.Marking(*state)
        delta = oracle.zone_delta(raw, state)
        assert ("time" in petri.enabled_net(net, mk)) == (delta > 0)
        if delta:
            assert petri.fire(net, mk, "time").clocks == \
                tuple(c + delta for c in mk.clocks)


@pytest.mark.parametrize("semantics", ["original", "accelerated"])
def test_equivalence_two_tasks(two_tasks, semantics):
    res = petri.state_space_equiv(two_tasks, {"count": 1}, semantics)
    assert res.equal
    assert res.detail == ""
    assert res.states_checked > 0


@pytest.mark.parametrize("semantics", ["original", "accelerated"])
def test_equivalence_staged(staged, semantics):
    res = petri.state_space_equiv(staged, {"cycles": 3}, semantics)
    assert res.equal


def test_equivalence_budget(staged):
    with pytest.raises(BudgetExceeded):
        petri.state_space_equiv(staged, {"cycles": 3}, budget=5)


def test_petri_check_counts_explores_states(monkeypatch, two_tasks):
    # petri-check two_tasks count=6 original checks the 18243 states that
    # explore counts, and the kernel's value table holds each distinct
    # valuation they reach, 3324
    kernels = []
    explore = sem.explore

    def spy(*args, **kwargs):
        ex = explore(*args, **kwargs)
        kernels.append(ex.kernel)
        return ex

    monkeypatch.setattr(sem, "explore", spy)
    res = petri.state_space_equiv(two_tasks, {"count": 6}, "original")
    assert (res.equal, res.states_checked) == (True, 18243)
    assert len(kernels) == 1
    assert len(kernels[0].values) == 3324


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_cached_net_answers_equal_fresh_ones(monkeypatch, two_tasks, semantics):
    # at every marking the check fires from, each task effect equals the
    # transform applied afresh, and the time move the guard and jump worked
    # out afresh; each (task, valuation) pair is applied once per net (no
    # two tasks of two_tasks share a transform)
    applied = []

    def counting(f, names, values):
        applied.append((f.id, values))
        return eval_transform(f, names, values)

    monkeypatch.setattr(petri, "eval_transform", counting)
    net = petri.translate(two_tasks, accelerated=(semantics == "accelerated"))
    markings = []
    enabled_net = petri.enabled_net

    def recording(net, mk):
        markings.append(mk)
        return enabled_net(net, mk)

    monkeypatch.setattr(petri, "enabled_net", recording)
    res = petri.state_space_equiv(two_tasks, {"count": 4}, semantics, net=net)
    assert res.equal and 0 < len(markings) <= res.states_checked
    assert len(applied) == len(set(applied))
    agents = [(a, {loc: a.outgoing(loc) for loc in a.localities})
              for a in two_tasks.agents]
    names = two_tasks.component_names
    fires = 0
    for mk in markings:
        for name in enabled_net(net, mk):
            if net.transitions[name].kind != "task":
                continue
            a, t = two_tasks.transition(name)
            i = two_tasks.agents.index(a)
            localities = mk.localities[:i] + (t.target,) + mk.localities[i + 1:]
            assert net.transitions[name].effect(mk) == (
                localities, mk.clocks,
                eval_transform(two_tasks.transform(t.transform), names, mk.values))
            fires += 1
        if semantics == "accelerated":
            delta = petri._jump(agents, mk.localities, mk.clocks)
        else:
            delta = int(all(petri._headroom(a, outgoing, loc, c) for (a, outgoing), loc, c
                            in zip(agents, mk.localities, mk.clocks)))
        time = net.transitions["time"]
        assert time.guard(mk) == (delta > 0)
        if delta:
            assert time.effect(mk) == (mk.localities,
                                       tuple(c + delta for c in mk.clocks), mk.values)
    assert len(applied) < fires


def test_net_caches_are_per_net(two_tasks):
    # two models that differ only in halve: the same marking fires early_b
    # to different valuations, so no answer is shared across nets
    raw = json.loads(fixtures.fixture_path("two_tasks.json").read_text(encoding="utf-8"))
    raw["transforms"]["halve"] = {"load": "load / 4"}
    quarter = model_from_dict(raw)
    mk = petri.Marking(("a_start", "b_start"), (1, 1), (Fraction(1, 2), 0))
    assert petri.fire(petri.translate(two_tasks), mk, "early_b").values == (
        Fraction(1, 4), 0)
    assert petri.fire(petri.translate(quarter), mk, "early_b").values == (
        Fraction(1, 8), 0)


def test_net_cache_keeps_no_failed_transform(two_tasks):
    # early_a doubles load: past the magnitude cap it raises, and its cache
    # stores nothing, so the same marking raises the same error again
    net = petri.translate(two_tasks)
    mk = petri.Marking(("a_start", "b_start"), (1, 1), (2 ** 65536, 0))
    with pytest.raises(Overflow) as first:
        petri.fire(net, mk, "early_a")
    with pytest.raises(Overflow) as second:
        petri.fire(net, mk, "early_a")
    assert str(first.value) == str(second.value) == "value in 2 * load exceeds 65536 bits"
    assert petri.state_space_equiv(two_tasks, {"count": 1}, net=net).equal


def test_corrupted_guard_detected(two_tasks):
    net = petri.translate(two_tasks)
    net.transitions["early_a"].guard = lambda mk: False
    res = petri.state_space_equiv(two_tasks, {"count": 1}, net=net)
    assert not res.equal
    assert "early_a" in res.detail
    assert "model-only" in res.detail


def test_corrupted_effect_detected(two_tasks):
    net = petri.translate(two_tasks)
    original = net.transitions["time"].effect
    net.transitions["time"].effect = lambda mk: petri.Marking(
        mk.localities, tuple(c + 2 for c in mk.clocks), mk.values
    )
    res = petri.state_space_equiv(two_tasks, {"count": 1}, net=net)
    assert not res.equal
    assert "time" in res.detail
    net.transitions["time"].effect = original
    assert petri.state_space_equiv(two_tasks, {"count": 1}, net=net).equal


def test_corrupted_rational_effect_detected(two_tasks):
    # early_b applies halve, which only rewrites load: a net effect that
    # moves the agent but leaves load as it was differs in a rational
    # component alone, and both sides name the move
    net = petri.translate(two_tasks)
    original = net.transitions["early_b"].effect

    def skip_halve(mk):
        to = original(mk)
        return petri.Marking(to.localities, to.clocks, mk.values)

    net.transitions["early_b"].effect = skip_halve
    res = petri.state_space_equiv(two_tasks, {"count": 1}, net=net)
    assert not res.equal
    assert res.detail == ("divergence at localities=('a_start', 'b_start') clocks=(1, 1): "
                          "model-only moves ['early_b'], net-only moves ['early_b']")


@pytest.mark.parametrize("shift", [0, 1])
def test_model_label_twice_is_divergence(monkeypatch, two_tasks, shift):
    # the net yields each label once; a model side that yields a fire
    # twice, to the same target or to another one, diverges
    moves = sem.Kernel.moves

    def doubled(self, entry, elapsed=0):
        out = moves(self, entry, elapsed)
        for e, t in out:
            if isinstance(e, sem.Fire):
                t = self.state(t)
                clocks = tuple(c + shift for c in t.clocks)
                return out + [(e, self.entry(sem.State(t.localities, clocks,
                                                        t.values)))]
        return out

    assert petri.state_space_equiv(two_tasks, {"count": 1}).equal
    monkeypatch.setattr(sem.Kernel, "moves", doubled)
    res = petri.state_space_equiv(two_tasks, {"count": 1})
    assert not res.equal
    assert res.detail == ("divergence at localities=('a_start', 'b_start') clocks=(1, 1): "
                          "model-only moves ['early_a'], net-only moves []")


def test_single_agent_degenerate_net():
    m = model_from_dict(
        {
            "components": [{"name": "n", "init": 0, "x": True}],
            "transforms": {"bump": {"n": "n + 1"}},
            "agents": [
                {
                    "name": "solo",
                    "localities": ["u", "v"],
                    "transitions": [
                        {"id": "go", "from": "u", "to": "v", "transform": "bump",
                         "interval": [1, 2]},
                    ],
                    "reset_period": 3,
                }
            ],
        }
    )
    net = petri.translate(m)
    assert set(net.transitions) == {"go", "reset_solo", "time"}
    for semantics in ("original", "accelerated"):
        assert petri.state_space_equiv(m, {"n": 2}, semantics).equal


def test_structure_text(two_tasks):
    net = petri.translate(two_tasks)
    text = petri.structure_text(net)
    assert text == petri.structure_text(petri.translate(two_tasks))
    assert "place localities" in text
    assert "transition early_a [task]" in text
    assert "reset_task_b" in text
    assert "net accelerated=false" in text
    assert petri.structure_text(petri.translate(two_tasks, accelerated=True)) \
        .startswith("net accelerated=true")
