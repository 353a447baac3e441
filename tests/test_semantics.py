"""Concrete and accelerated step semantics, exploration and abstraction."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from maptmc import layers, mc, petri, semantics as sem
from maptmc.errors import (
    BudgetExceeded,
    MalformedState,
    NotEnabled,
    ParseError,
    UnknownReference,
    ValidationError,
)
from maptmc.model import model_from_dict, model_to_dict, validate_acyclicity
from maptmc.semantics import Delay, Fire, Reset

import oracle
from test_expr import kernel_number
from test_layers import agents_model, hop, live_agents


def advance(m, s, *events):
    for e in events:
        s = sem.step(m, s, e)
    return s


# The accelerated delay from the shared start follows the first three zones:
# a jump of 2 opens the early windows, one more step reaches the late ones,
# and at clock 3 time may not pass because late_a/late_b are urgent.
ZONE_TRACE = [
    ((0, 0), (3, 3), 3, 1, 2),
    ((2, 2), (1, 1), 1, 1, 1),
    ((3, 3), (0, 0), 0, 0, 0),
]


@pytest.mark.parametrize("clocks,b_per_agent,b,a,delta", ZONE_TRACE)
def test_zone_trace(two_tasks, clocks, b_per_agent, b, a, delta):
    s = sem.initial_state(two_tasks)
    s = s.__class__(s.localities, clocks, s.values)
    zi = sem.zone_info(two_tasks, s)
    assert zi.b_per_agent == b_per_agent
    assert zi.b == b
    assert zi.a == a
    assert zi.delta == delta


def test_initial_enabled_events(two_tasks):
    s0 = sem.initial_state(two_tasks)
    assert sem.enabled(two_tasks, s0, "original") == (Delay(1),)
    assert sem.enabled(two_tasks, s0, "accelerated") == (Delay(2),)


def test_enabled_after_opening(two_tasks):
    s = advance(two_tasks, sem.initial_state(two_tasks), Delay(2))
    fires = {e for e in sem.enabled(two_tasks, s, "original") if isinstance(e, Fire)}
    assert fires == {Fire("early_a"), Fire("early_b")}
    assert Delay(1) in sem.enabled(two_tasks, s, "original")


def test_delay_stops_at_urgent_window(two_tasks):
    # at clock 3 both late transitions sit at their upper bound
    s = advance(two_tasks, sem.initial_state(two_tasks), Delay(2), Delay(1))
    assert s.clocks == (3, 3)
    assert not any(
        isinstance(e, Delay) for e in sem.enabled(two_tasks, s, "original")
    )
    assert not any(
        isinstance(e, Delay) for e in sem.enabled(two_tasks, s, "accelerated")
    )


def test_fire_applies_transform(two_tasks):
    s = advance(two_tasks, sem.initial_state(two_tasks), Delay(2), Fire("early_a"))
    assert s.localities == ("a_end", "b_start")
    assert s.clocks == (2, 2)
    assert dict(zip(two_tasks.component_names, s.values)) == {
        "load": Fraction(1), "count": Fraction(1)}


def test_reset_returns_to_source(two_tasks):
    s = advance(
        two_tasks,
        sem.initial_state(two_tasks),
        Delay(2), Fire("early_a"), Fire("early_b"), Delay(1), Delay(1), Delay(1),
    )
    assert s.clocks == (5, 5)
    s = sem.step(two_tasks, s, Reset("task_a"))
    assert s.localities == ("a_start", "b_end")
    assert s.clocks == (0, 5)
    # values survive the reset untouched
    assert dict(zip(two_tasks.component_names, s.values)) == {
        "load": Fraction(1, 2), "count": Fraction(1)}


def test_reset_goes_to_first_locality_not_init_locality(mutated_two_tasks):
    # init_locality places an agent at time 0 only; every reset returns it
    # to its first listed locality
    m = mutated_two_tasks(lambda d: d["agents"][0].update(init_locality="a_end"))
    s = sem.initial_state(m)
    assert s.localities == ("a_end", "b_start")
    s = advance(m, s, Delay(1), Delay(1), Delay(1), Fire("late_b"), Delay(1),
                Delay(1), Reset("task_a"))
    assert s.localities == ("a_start", "b_end")
    assert s.clocks == (0, 5)


NOT_ENABLED_CASES = [
    ("fire before the window opens", (), Fire("early_a")),
    ("fire after the window closed", (Delay(2), Delay(1)), Fire("early_a")),
    ("fire from the wrong locality", (Delay(2), Fire("early_a")), Fire("late_a")),
    ("reset before the period ends", (Delay(2), Fire("early_a")), Reset("task_a")),
    ("reset while not final", (Delay(2),), Reset("task_a")),
    ("delay past an urgent bound", (Delay(2), Delay(1)), Delay(1)),
    ("delay amount matching no rule", (), Delay(3)),
    ("zero delay", (), Delay(0)),
]


@pytest.mark.parametrize(
    "label,setup,event",
    NOT_ENABLED_CASES,
    ids=[c[0] for c in NOT_ENABLED_CASES],
)
def test_step_not_enabled(two_tasks, label, setup, event):
    s = advance(two_tasks, sem.initial_state(two_tasks), *setup)
    with pytest.raises(NotEnabled):
        sem.step(two_tasks, s, event)


def test_step_accepts_unit_and_zone_delays(two_tasks):
    s0 = sem.initial_state(two_tasks)
    assert sem.step(two_tasks, s0, Delay(1)).clocks == (1, 1)
    assert sem.step(two_tasks, s0, Delay(2)).clocks == (2, 2)


def test_check_state_rejects_malformed(two_tasks):
    s0 = sem.initial_state(two_tasks)
    cls = s0.__class__
    with pytest.raises(MalformedState):
        sem.check_state(two_tasks, cls(("a_start",), (0,), s0.values))
    with pytest.raises(MalformedState):
        sem.check_state(two_tasks, cls(("a_start", "b_zzz"), (0, 0), s0.values))
    with pytest.raises(MalformedState):
        sem.check_state(two_tasks, cls(s0.localities, (0, -1), s0.values))
    # one value per component: too few or too many is malformed
    for values in (s0.values[:1], s0.values + (0,)):
        with pytest.raises(MalformedState, match="valuation components"):
            sem.check_state(two_tasks, cls(s0.localities, s0.clocks, values))
    # a clock is an int, and a value an int or a Fraction: anything else is
    # malformed, not a traceback from deep in a transform
    with pytest.raises(MalformedState, match="is not an int"):
        sem.check_state(two_tasks, cls(s0.localities, (0, 0.5), s0.values))
    for values in (("x", 0), (0.5, 0)):
        with pytest.raises(MalformedState, match="not an int or a Fraction"):
            sem.check_state(two_tasks, cls(s0.localities, s0.clocks, values))
    with pytest.raises(MalformedState, match="'x' of component 'load'"):
        sem.successors(two_tasks, cls(("a_start", "b_start"), (1, 1), ("x", 0)),
                       "original")


def test_state_is_a_plain_ordered_triple(two_tasks):
    assert [f.name for f in dataclasses.fields(sem.State)] == [
        "localities", "clocks", "values"]
    states = list(sem.explore(two_tasks, "original", 2).states)
    as_tuples = sorted((s.localities, s.clocks, s.values) for s in states)
    assert [(s.localities, s.clocks, s.values) for s in sorted(states)] == as_tuples
    # equal values dedup whatever their number form
    s = states[-1]
    assert sem.State(s.localities, s.clocks,
                     tuple(Fraction(v) for v in s.values)) in set(states)


_PICKLE_IN_CHILD = """
import pickle, sys
from maptmc import fixtures, semantics as sem
s = sem.initial_state(fixtures.load_fixture("two_tasks.json"))
sys.stdout.buffer.write(pickle.dumps(s))
"""


def test_pickled_state_hashes_as_built_here(two_tasks):
    # a State's hash covers its locality names, and string hashes differ
    # per PYTHONHASHSEED: a state pickled in a process with another seed
    # must still be found among states built here
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(sem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _PICKLE_IN_CHILD], env=env,
                         capture_output=True, check=True, timeout=60).stdout
    s = pickle.loads(out)
    fresh = sem.initial_state(two_tasks)
    assert s == fresh and hash(s) == hash(fresh)
    assert s in {fresh} and fresh in {s}
    assert s.values == fresh.values and s.values in {fresh.values}
    assert pickle.loads(pickle.dumps(fresh)) in {fresh}


def test_event_labels():
    assert sem.event_label(Fire("early_a")) == "early_a"
    assert sem.event_label(Reset("task_a")) == "reset_task_a"
    assert sem.event_label(Delay(2)) == "+2"


def test_normalize_x_bound(two_tasks, staged):
    assert sem.normalize_x_bound(two_tasks, 3) == {"count": Fraction(3)}
    assert sem.normalize_x_bound(two_tasks, "3/2") == {"count": Fraction(3, 2)}
    assert sem.normalize_x_bound(two_tasks, {"count": 2}) == {"count": Fraction(2)}
    # the mapping form may bound any declared component, X or not
    assert sem.normalize_x_bound(two_tasks, {"load": 2}) == {"load": Fraction(2)}
    with pytest.raises(UnknownReference):
        sem.normalize_x_bound(two_tasks, {"size": 2})
    assert sem.normalize_x_bound(staged, None) is None


@pytest.mark.parametrize("x_bound", [{"count": "1/0"}, {"count": "abc"}, "1/0",
                                     {"count": True}, [2], {"count": "1e70000"},
                                     "1e999999999", {"count": 2 ** 70000},
                                     Decimal("1e999999999")])
def test_unreadable_x_bound_is_a_parse_error(two_tasks, x_bound):
    with pytest.raises(ParseError, match="x bound"):
        sem.normalize_x_bound(two_tasks, x_bound)


@pytest.mark.parametrize("raw", [7, "7", Fraction(14, 2)])
def test_normalize_x_bound_gives_ints_for_whole_bounds(two_tasks, raw):
    bound = sem.normalize_x_bound(two_tasks, raw)["count"]
    assert type(bound) is int and bound == 7


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_all_integer_model_explores_ints_only(vehicles, semantics):
    reached = sem.explore(vehicles, semantics, {"pos_a": 20, "pos_b": 20}).states
    assert {type(v) for s in reached for v in s.values} == {int}


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_explored_values_are_int_exactly_when_whole(two_tasks, semantics):
    reached = sem.explore(two_tasks, semantics, 5).states
    values = {v for s in reached for v in s.values}
    assert any(v.denominator != 1 for v in values)
    for v in values:
        assert (type(v) is int) == (v.denominator == 1), v


def test_scalar_x_bound_needs_x_components():
    from maptmc.model import model_from_dict

    data = {
        "components": [{"name": "n", "init": 0}],
        "transforms": {"keep": {}},
        "agents": [
            {
                "name": "ag",
                "localities": ["u", "v"],
                "transitions": [
                    {"id": "t", "from": "u", "to": "v", "transform": "keep",
                     "interval": [1, 1]},
                ],
                "reset_period": 2,
            }
        ],
    }
    m = model_from_dict(data)
    with pytest.raises(ValidationError):
        sem.normalize_x_bound(m, 3)


def test_x_reached_needs_every_component():
    m = _two_counter_model()
    kernel = sem.Kernel(m, "original", 1)
    s = sem.initial_state(m)
    assert not kernel.reached(kernel.entry(s))
    s = advance(m, s, Delay(1), Fire("ta"))
    # only one of the two bounded components has grown
    assert not kernel.reached(kernel.entry(s))
    s = advance(m, s, Fire("tb"))
    assert kernel.reached(kernel.entry(s))


def _two_counter_model():
    from maptmc.model import model_from_dict

    return model_from_dict(
        {
            "components": [
                {"name": "na", "init": 0, "x": True},
                {"name": "nb", "init": 0, "x": True},
            ],
            "transforms": {"ba": {"na": "na + 1"}, "bb": {"nb": "nb + 1"}},
            "agents": [
                {
                    "name": "aga",
                    "localities": ["u0", "u1"],
                    "transitions": [
                        {"id": "ta", "from": "u0", "to": "u1", "transform": "ba",
                         "interval": [1, 2]},
                    ],
                    "reset_period": 3,
                },
                {
                    "name": "agb",
                    "localities": ["v0", "v1"],
                    "transitions": [
                        {"id": "tb", "from": "v0", "to": "v1", "transform": "bb",
                         "interval": [1, 2]},
                    ],
                    "reset_period": 3,
                },
            ],
        }
    )


def _oracle_label(e):
    if isinstance(e, Fire):
        return ("fire", e.transition)
    if isinstance(e, Reset):
        return ("reset", e.agent)
    return ("delay", e.amount)


def _plain_state(s):
    return (s.localities, s.clocks, s.values)


def _two_distances(dist, edges):
    """True when an edge of the oracle's graph joins two states whose
    first-found distances it does not bridge: then some state is reachable
    at two time distances."""
    return any(dist[s] + (lab[1] if lab[0] == "delay" else 0) != dist[t]
               for s, lab, t in edges)


def assert_kernel_form(ex):
    """Every number in the kernel's value table is an int or a canonical
    pair, and every explored entry comes back from its State."""
    kernel = ex.kernel
    assert all(kernel_number(v) for values in kernel.values for v in values)
    for cid, vids in ex.distances.items():
        for vid in vids:
            assert kernel.entry(kernel.state((cid, vid))) == (cid, vid)


def assert_explore_matches_oracle(m, raw, semantics, x_bound=None, time_bound=None):
    """explore's graph is the oracle's: every state with its distance,
    every edge with its event, and the finals; the counts of the batch
    pass equal the sizes of the graph built from its map.  Each (state,
    event, target) triple occurs once in a graph, so the edges compare as
    a set together with their count.  Where the oracle's graph holds a
    state at two time distances, explore stops with the not-acyclic error
    instead.  Returns the number of states when the graphs were compared,
    else None."""
    bound = None if x_bound is None else {n: Fraction(v) for n, v in x_bound.items()}
    dist, edges, finals = oracle.build_graph(raw, semantics, bound, time_bound)
    if _two_distances(dist, edges):
        with pytest.raises(ValidationError, match="the model is not acyclic$"):
            sem.explore(m, semantics, x_bound, time_bound=time_bound)
        return None
    ex = sem.explore(m, semantics, x_bound, time_bound=time_bound)
    assert_kernel_form(ex)
    assert ex.counts == (len(dist), len(edges), len(finals))
    assert {_plain_state(s): d for s, d in ex.states.items()} == dist
    assert len(ex.edges) == len(edges)
    assert {(_plain_state(s), _oracle_label(e), _plain_state(t))
            for s, e, t in ex.edges} == set(edges)
    assert {_plain_state(s) for s in ex.finals} == finals
    return len(dist)


# two_tasks at the petri-check CI bound and vehicles at the explore CI
# bound, both run under each semantics; staged at the bound its tests use
@pytest.mark.parametrize("semantics", sem.SEMANTICS)
@pytest.mark.parametrize("fixture,x_bound", [
    ("two_tasks", {"count": 6}),
    ("vehicles", {"pos_a": 20, "pos_b": 20}),
    ("staged", {"cycles": 3}),
])
def test_explore_graph_matches_oracle(request, fixture, x_bound, semantics):
    assert assert_explore_matches_oracle(request.getfixturevalue(fixture),
                                         request.getfixturevalue(f"raw_{fixture}"),
                                         semantics, x_bound)


# the sweep's indicators on a generated model, as text and over the
# oracle's (localities, clocks, values) states
GENERATED_INDICATORS = [("n", "n", lambda s: s[2][0]),
                        ("c", "clock(g0)", lambda s: s[1][0])]


def assert_tagged_walks_match_oracle(m, raw, semantics, x_bound=None, time_bound=None, *,
                                     words=True):
    """sweep_indicators, and with words abstract_reachable, walk explore's
    space with a tag, so they give the oracle's (final state, envelope)
    versions and its words.  Where the oracle's graph holds a state at two
    time distances, each stops with explore's error instead."""
    bound = None if x_bound is None else {n: Fraction(v) for n, v in x_bound.items()}

    def versions():
        return mc.sweep_indicators(m, [(name, text) for name, text, _ in GENERATED_INDICATORS],
                                   x_bound, semantics, time_bound=time_bound).versions

    def walk_words():
        return sem.abstract_reachable(m, semantics, x_bound, time_bound=time_bound)

    runs = (versions, walk_words) if words else (versions,)
    if _two_distances(*oracle.build_graph(raw, semantics, bound, time_bound)[:2]):
        for run in runs:
            with pytest.raises(ValidationError, match="the model is not acyclic$"):
                run()
        return
    expected = oracle.sweep_versions(raw, semantics, [f for _, _, f in GENERATED_INDICATORS],
                                     bound, time_bound)
    assert ([(v.state.localities, v.state.clocks, v.state.values, v.bounds)
             for v in versions()]
            == sorted((locs, clocks, values, bounds)
                      for (locs, clocks, values), bounds in expected))
    if words:
        assert ({_plain_word(w): label for w, label in walk_words().items()}
                == oracle.words(raw, semantics, bound, time_bound))


# Derandomized, so a failure reports its first failing model every run;
# shrinking it once took minutes and never decides pass or fail.
@settings(derandomize=True, max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(*(live_agents(f"g{i}") for i in range(k)))), st.sampled_from((0, "1/3")))
def test_explore_matches_oracle_on_generated_models(tmp_path_factory, agents, init):
    # Every hop bumps the X counter n, so validate_acyclicity proves a model
    # as soon as one agent has a hop, and only then does an X bound on n
    # close the space; a time bound of two hyperperiods always does.
    # petri-check checks explore's states, so under the X bound it agrees
    # on every one of them, or stops with explore's error; it takes no
    # time bound.  abstract_reachable and sweep tag the states of explore's
    # space, so under each bound they match the oracle's words and
    # versions, or stop with explore's error.  n starts whole or not, so
    # the kernel computes on ints or on (numerator, denominator) pairs.
    m, raw = agents_model(agents, tmp_path_factory.mktemp("gen") / "model.json", init)
    horizon = 2 * layers.lcm_periods(m)
    proven = validate_acyclicity(m)[0]
    for semantics in sem.SEMANTICS:
        if proven:
            size = assert_explore_matches_oracle(m, raw, semantics, x_bound={"n": 3})
            if size is None:
                with pytest.raises(ValidationError, match="the model is not acyclic$"):
                    petri.state_space_equiv(m, {"n": 3}, semantics)
            else:
                res = petri.state_space_equiv(m, {"n": 3}, semantics)
                assert (res.equal, res.states_checked) == (True, size)
            assert_tagged_walks_match_oracle(m, raw, semantics, {"n": 3})
        assert_explore_matches_oracle(m, raw, semantics, time_bound=horizon)
        # under a time bound alone the words number the interleavings of
        # the hops, past 100000 on some of these models, so they are read
        # under the X bound as well
        assert_tagged_walks_match_oracle(m, raw, semantics, time_bound=horizon, words=False)
        assert_tagged_walks_match_oracle(m, raw, semantics, {"n": 3}, time_bound=horizon)


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_not_acyclic_error_names_both_distances(tmp_path, semantics):
    # validate_acyclicity proves this model, yet (g02, 0, n=2) is reached at
    # t = 0 through g01, and at t = 1 through the skip hop after a reset
    m, _ = agents_model([{
        "name": "g0", "localities": ["g00", "g01", "g02"],
        "transitions": [hop("g0_0", "g00", "g01", 0, 0), hop("g0_1", "g01", "g02", 0, 0),
                        hop("g0_2", "g00", "g02", 0, 0)],
        "reset_period": 1, "init_locality": "g00", "init_clock": 0}],
        tmp_path / "model.json")
    # every whole-space walk keeps one distance per state, so each command
    # built on one stops with the error explore gives
    assert validate_acyclicity(m)[0]
    for run in (lambda: sem.explore(m, semantics, {"n": 3}),
                lambda: petri.state_space_equiv(m, {"n": 3}, semantics),
                lambda: mc.sweep_indicators(m, {"n": "n"}, {"n": 3}, semantics),
                lambda: sem.abstract_reachable(m, semantics, {"n": 3})):
        with pytest.raises(ValidationError) as caught:
            run()
        assert str(caught.value) == ("a state was reached at two distinct time "
                                     "distances (0 and 1); the model is not acyclic")


@pytest.mark.parametrize("semantics,sizes", [
    ("original", (199, 231, 54)),
    ("accelerated", (145, 160, 38)),
])
def test_oracle_resets_to_first_locality(two_tasks, tmp_path, semantics, sizes):
    # with task_a placed on its final locality at time 0, a reset that
    # returned it there would never let it tally again, so the count bound
    # would never close the space
    data = model_to_dict(two_tasks)
    data["agents"][0]["init_locality"] = "a_end"
    path = tmp_path / "placed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    raw = oracle.RawModel(path)
    dist, edges, finals = oracle.build_graph(raw, semantics, {"count": Fraction(2)},
                                             cap=1000)
    ex = sem.explore(model_from_dict(data), semantics, {"count": 2})
    assert {_plain_state(s): d for s, d in ex.states.items()} == dist
    assert {_plain_state(s) for s in ex.finals} == finals
    assert (len(ex.states), len(ex.edges), len(ex.finals)) == \
        (len(dist), len(edges), len(finals)) == sizes


def test_explore_two_tasks_invariants(two_tasks):
    ex = sem.explore(two_tasks, "original", time_bound=5)
    assert max(ex.states.values()) == 5
    endpoints = set(ex.states)
    for s, e, t in ex.edges:
        assert s in endpoints and t in endpoints
    assert ex.finals
    for s in ex.finals:
        assert s in endpoints


def test_explore_frozen_staged_counts(staged):
    assert len(sem.explore(staged, "original", time_bound=30).states) == 116
    assert len(sem.explore(staged, "accelerated", time_bound=30).states) == 58


def test_explore_budget(staged, vehicles):
    # the budget counts states: the whole space fits exactly, and its
    # graph, built after the count, holds exactly that many states
    for m, semantics, bounds, size in (
            (staged, "original", {"time_bound": 30}, 116),
            (staged, "accelerated", {"time_bound": 30}, 58),
            (vehicles, "accelerated", {"x_bound": {"pos_a": 20, "pos_b": 20}}, 12375)):
        with pytest.raises(BudgetExceeded):
            sem.explore(m, semantics, budget=10, **bounds)
        ex = sem.explore(m, semantics, budget=size, **bounds)
        assert ex.counts[0] == len(ex.states) == size
        with pytest.raises(BudgetExceeded,
                           match=f"^exploration exceeded {size - 1} states$"):
            sem.explore(m, semantics, budget=size - 1, **bounds)


def test_abstract_words_first_period(two_tasks):
    words = sem.abstract_reachable(two_tasks, "original", time_bound=4)
    end = ("a_end", "b_end")
    one = Fraction(1)
    assert words == {
        (Fire("early_a"), Fire("early_b")): (end, (Fraction(1, 2), one)),
        (Fire("early_b"), Fire("early_a")): (end, (Fraction(1, 2), one)),
        (Fire("early_a"), Fire("late_b")): (end, (Fraction(2), one)),
        (Fire("early_b"), Fire("late_a")): (end, (Fraction(31, 20), one)),
        (Fire("late_a"), Fire("late_b")): (end, (Fraction(18, 5), one)),
        (Fire("late_b"), Fire("late_a")): (end, (Fraction(23, 10), one)),
    }


def test_abstract_words_agree_across_semantics(two_tasks):
    original = sem.abstract_reachable(two_tasks, "original", time_bound=5)
    accelerated = sem.abstract_reachable(two_tasks, "accelerated", time_bound=5)
    assert len(original) == 12
    assert original == accelerated


def test_abstract_words_match_oracle(two_tasks, raw_two_tasks):
    got = sem.abstract_reachable(two_tasks, "original", time_bound=5)
    expected = oracle.words(raw_two_tasks, "original", time_bound=5)
    assert {_plain_word(w): lab for w, lab in got.items()} == expected


def _plain_word(word):
    out = []
    for e in word:
        if isinstance(e, Fire):
            out.append(("fire", e.transition))
        else:
            out.append(("reset", e.agent))
    return tuple(out)


def test_project_word_drops_delays(two_tasks):
    trace = (Delay(2), Fire("early_a"), Delay(1), Fire("late_b"))
    assert sem.project_word(trace) == (Fire("early_a"), Fire("late_b"))


def test_fires_commute_with_other_agents_resets(two_tasks):
    # walk the bounded graph and check every fire/reset diamond
    ex = sem.explore(two_tasks, "original", time_bound=10)
    checked = 0
    for s in ex.states:
        events = sem.enabled(two_tasks, s, "original")
        fires = [e for e in events if isinstance(e, Fire)]
        resets = [e for e in events if isinstance(e, Reset)]
        for f in fires:
            agent, _ = two_tasks.transition(f.transition)
            for r in resets:
                if r.agent == agent.name:
                    continue
                one = advance(two_tasks, s, f, r)
                other = advance(two_tasks, s, r, f)
                assert one == other
                checked += 1
        for i, r1 in enumerate(resets):
            for r2 in resets[i + 1:]:
                assert advance(two_tasks, s, r1, r2) == advance(two_tasks, s, r2, r1)
                checked += 1
    assert checked > 0


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=25))
def test_accelerated_walk_invariants(choices):
    from maptmc import fixtures

    m = fixtures.load_fixture("staged_cycles.json")
    s = sem.initial_state(m)
    for pick in choices:
        zi = sem.zone_info(m, s)
        assert (zi.a == 0) == (zi.delta == 0)
        assert 0 <= zi.delta <= zi.b
        for clock, agent in zip(s.clocks, m.agents):
            assert 0 <= clock <= agent.reset_period
        nxt = [t for _, t in sem.successors(m, s, "accelerated")]
        if not nxt:
            break
        s = nxt[pick % len(nxt)]


def test_successors_match_enabled_plus_step(two_tasks):
    s = advance(two_tasks, sem.initial_state(two_tasks), Delay(2))
    for semantics in ("original", "accelerated"):
        got = sem.successors(two_tasks, s, semantics)
        expected = [
            (e, sem.step(two_tasks, s, e))
            for e in sem.enabled(two_tasks, s, semantics)
        ]
        assert list(got) == expected
