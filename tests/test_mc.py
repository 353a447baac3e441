"""Query parsing, reachability checking, heuristics and indicator sweeps."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maptmc import expr, layers, mc, semantics as sem
from maptmc.errors import (
    BudgetExceeded,
    MaptError,
    MalformedState,
    MissingComponent,
    ParseError,
    PredicateError,
    UnknownReference,
    ValidationError,
)
from maptmc.mc import Query
from maptmc.model import model_from_dict, model_to_dict

from test_layers import spliced


def test_parse_query_forms():
    q = mc.parse_query("EF load > 4")
    assert isinstance(q, Query) and (q.kind, q.negate) == ("EF", False)
    q = mc.parse_query("EG count <= 1")
    assert (q.kind, q.q, q.negate) == ("EG", None, False)
    af = mc.parse_query("AF (count >= 2)")
    assert (af.kind, af.negate) == ("EG", True) and isinstance(af.p, expr.Not)
    ag = mc.parse_query("AG load <= 4")
    assert (ag.kind, ag.negate) == ("EF", True) and isinstance(ag.p, expr.Not)
    nested_f = mc.parse_query("EF (count >= 1 && EF load > 7)")
    assert (nested_f.kind, nested_f.negate) == ("EFEF", False)
    nested_g = mc.parse_query("EF (count >= 1 && EG load >= 1/2)")
    assert (nested_g.kind, nested_g.negate) == ("EFEG", False)
    leads = mc.parse_query("count >= 1 --> load < 9")
    assert (leads.kind, leads.negate) == ("EFEG", True)
    assert isinstance(leads.q, expr.Not)


QUERY_PARSE_ERRORS = [
    "load > 4",                      # a bare predicate is not a query
    "EF EG load >= 3",               # nesting needs the conjunction form
    "EG (count >= 1 && EF load > 7)",  # only EF may carry a nested operator
    "EF (count >= 1 && AG load > 7)",
    "AF load > 4 --> count >= 1",    # leads-to takes plain predicates
    "EF",
    "EF load > 4 extra",
    "EF (load > 4",
]


@pytest.mark.parametrize("text", QUERY_PARSE_ERRORS)
def test_parse_query_errors(text):
    with pytest.raises(ParseError):
        mc.parse_query(text)


# verdicts pinned on the accelerated graph bounded at count 2
VERDICTS = [
    ("EF load > 4", True),
    ("EF load > 8", True),
    ("AG load <= 18/5", False),
    ("EG count <= 1", False),
    ("EG load >= 1/2", True),
    ("AF count >= 2", True),
    ("EF (count >= 1 && EG load >= 1/2)", True),
    ("EF (count >= 1 && EF load > 7)", True),
    ("count >= 1 --> load < 9", True),
    ("EF final", True),
    ("AG final", False),
    ("EF (at(task_a, a_end) && clock(task_a) >= 3)", True),
]


@pytest.mark.parametrize("query,expected", VERDICTS, ids=[q for q, _ in VERDICTS])
def test_frozen_verdicts(two_tasks, query, expected):
    result = mc.check(two_tasks, query, x_bound={"count": 2})
    assert result.verdict is expected


@pytest.mark.parametrize("strategy", ["width", "layered-dfs"])
@pytest.mark.parametrize("semantics", ["original", "accelerated"])
def test_verdicts_strategy_and_semantics_independent(two_tasks, strategy, semantics):
    for query, expected in VERDICTS:
        got = mc.check(
            two_tasks, query, x_bound={"count": 2},
            semantics=semantics, strategy=strategy,
        )
        assert got.verdict is expected, query


def test_check_is_deterministic(two_tasks):
    runs = [
        mc.check(two_tasks, "EF load > 4", x_bound={"count": 2})
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    stats = runs[0].stats
    assert stats.states_expanded > 0
    assert stats.borders_crossed > 0
    assert stats.clusters_formed > 0
    assert stats.peak_frontier > 0


def test_check_argument_validation(two_tasks):
    with pytest.raises(ValueError):
        mc.check(two_tasks, "EF load > 4", strategy="depth")
    h = mc.distance_heuristic(two_tasks, "load", "count")
    with pytest.raises(ValueError):
        mc.check(two_tasks, "EF load > 4", x_bound=1,
                 strategy="width", heuristic=h)
    with pytest.raises(ValidationError):
        mc.check(two_tasks, "EF load > 4", x_bound=1, cuts=())


@pytest.mark.parametrize("options,message", [
    ({"cuts": ()}, "^cuts require the layered-dfs strategy$"),
    ({"strong_set": ("count",)},
     "^a strong or weak set requires the layered-dfs strategy$"),
    ({"strong_set": ()}, "^a strong or weak set requires the layered-dfs strategy$"),
], ids=["cuts", "strong-set", "empty-strong-set"])
def test_width_refuses_layered_options(two_tasks, options, message):
    # the width walk reads no cut and no strong set, so it refuses them as
    # it refuses a heuristic, instead of giving a verdict without them
    with pytest.raises(ValueError, match=message):
        mc.check(two_tasks, "AG load <= 18/5", x_bound={"count": 2},
                 strategy="width", **options)


def test_check_validates_given_cuts(two_tasks):
    # a cut naming one agent of two matches no configuration
    with pytest.raises(MalformedState):
        mc.check(two_tasks, "AG (count >= 0)", x_bound={"count": 2},
                 cuts=(layers.CutSpec(4, ("a_start",), (4,)),))


@pytest.mark.parametrize("strategy", mc.STRATEGIES)
def test_query_names_resolved_before_any_state(two_tasks, strategy):
    # with a budget of 0 the first state expanded would raise BudgetExceeded
    for query in ("EF (true || at(nobody, x))", "EF(false && EF at(nobody, x))"):
        with pytest.raises(PredicateError):
            mc.check(two_tasks, query, x_bound={"count": 1}, strategy=strategy,
                     budget=0)


def test_check_budget(vehicles):
    with pytest.raises(BudgetExceeded):
        mc.check(vehicles, "EF pos_a >= 100",
                 x_bound={"pos_a": 40, "pos_b": 40}, budget=50)


def test_explicit_cuts_and_strong_set(two_tasks):
    cuts = layers.find_cuts(two_tasks)
    for strong_set in (None, (), ("count",)):
        got = mc.check(
            two_tasks, "AG load <= 18/5", x_bound={"count": 2},
            cuts=cuts, strong_set=strong_set,
        )
        assert got.verdict is False


@pytest.mark.parametrize("strategy", mc.STRATEGIES)
def test_unknown_strong_name_is_an_error(two_tasks, strategy):
    with pytest.raises(UnknownReference, match="'nosuch'"):
        mc.check(two_tasks, "EF load >= 2", x_bound={"count": 1},
                 strategy=strategy, strong_set={"count", "nosuch"})


def test_unreachable_query_reports_false(two_tasks):
    got = mc.check(two_tasks, "EF load < 0", x_bound={"count": 1})
    assert got.verdict is False


# per fixture: its x bound and a (p, q) pair for the seven query forms
LAYERED_CASES = {
    "two_tasks": ({"count": 2}, "count >= 1", "load < 9"),
    "staged": ({"cycles": 2}, "at(stage_b, b3)", "cycles <= 1"),
    "vehicles": ({"pos_a": 8, "pos_b": 8}, "pos_a >= 8", "lane_b <= 1"),
}
QUERY_FORMS = ("EF {p}", "EG {q}", "AF {p}", "AG {q}", "EF ({p} && EF {q})",
               "EF ({p} && EG {q})", "{p} --> {q}")
LAYERED_RUNS = [(name, False) for name in LAYERED_CASES] + [("vehicles", True)]


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
@pytest.mark.parametrize("name,guided", LAYERED_RUNS,
                         ids=[n + ("-distance" if g else "") for n, g in LAYERED_RUNS])
def test_layered_expands_each_state_at_most_twice(request, name, guided, semantics):
    """One seen map across the cluster walks: each state is walked at most
    once unmarked and once marked, and exactly once when the query visits
    the whole space.  (Not "at most width": a marked query can walk a
    state twice where width, width-first, reaches it marked first.)"""
    import oracle

    m = request.getfixturevalue(name)
    bound, p, q = LAYERED_CASES[name]
    size = len(oracle.build_graph(request.getfixturevalue("raw_" + name),
                                  semantics, bound)[0])
    h = mc.distance_heuristic(m, "pos_a", "pos_b") if guided else None
    for form in QUERY_FORMS:
        query = form.format(p=p, q=q)
        got = mc.check(m, query, x_bound=bound, semantics=semantics, heuristic=h)
        width = mc.check(m, query, x_bound=bound, semantics=semantics,
                         strategy="width")
        assert got.verdict is width.verdict, query
        assert got.stats.states_expanded <= 2 * size, query
    whole = mc.check(m, "AG true", x_bound=bound, semantics=semantics, heuristic=h)
    assert whole.verdict is True
    assert whole.stats.states_expanded == size


def test_default_strategy_finishes_where_width_does(vehicles):
    bound = {"pos_a": 20, "pos_b": 20}
    width = mc.check(vehicles, "AG (true)", x_bound=bound, strategy="width")
    assert width.stats.states_expanded == 12375
    got = mc.check(vehicles, "AG (true)", x_bound=bound)
    assert got.verdict is True
    assert got.stats.states_expanded == width.stats.states_expanded


def test_builtin_heuristic_registry():
    names = set(mc.builtin_heuristics())
    assert names == {"distance", "estimated_travel_time", "time_to_overtake"}


def test_distance_heuristic(vehicles):
    h = mc.distance_heuristic(vehicles, "pos_a", "pos_b")
    assert h.order == "ascending"
    assert h.name == "distance(pos_a,pos_b)"
    s0 = sem.initial_state(vehicles)
    assert h.weight(s0) == Fraction(-2)


def _restate(m, s, **changes):
    names = m.component_names
    values = dict(zip(names, s.values))
    values.update({k: Fraction(v) for k, v in changes.items()})
    return sem.State(s.localities, s.clocks, tuple(values[n] for n in names))


def test_estimated_travel_time_heuristic(vehicles):
    h = mc.estimated_travel_time_heuristic(
        vehicles, "elapsed", "pos_b", "speed_b", 20)
    assert h.order == "ascending"
    s0 = sem.initial_state(vehicles)
    assert h.weight(s0) == Fraction(9)
    stopped = _restate(vehicles, s0, speed_b=0)
    assert h.weight(stopped) == float("inf")


def test_time_to_overtake_heuristic(vehicles):
    h = mc.time_to_overtake_heuristic(
        vehicles, "pos_b", "speed_b", "pos_a", "speed_a")
    assert h.order == "descending"
    s0 = sem.initial_state(vehicles)
    # equal speeds never close the gap
    assert h.weight(s0) == float("inf")
    assert h.weight(_restate(vehicles, s0, speed_a=3)) == Fraction(2)
    assert h.weight(_restate(vehicles, s0, pos_a=2)) == Fraction(0)
    # already ahead counts as never overtaking
    assert h.weight(_restate(vehicles, s0, pos_a=5, speed_a=3)) == float("inf")


@pytest.mark.parametrize("semantics", sem.SEMANTICS)
def test_heuristic_weights_stay_exact(vehicles, semantics):
    # all-integer values must not turn a division into a float
    heuristics = [
        mc.time_to_overtake_heuristic(vehicles, "pos_b", "speed_b", "pos_a", "speed_a"),
        mc.estimated_travel_time_heuristic(vehicles, "elapsed", "pos_b", "speed_b", 20),
    ]
    kinds = set()
    for s in sem.explore(vehicles, semantics, {"pos_a": 8, "pos_b": 8}).states:
        for h in heuristics:
            w = h.weight(s)
            if w == math.inf:
                kinds.add("inf")
            else:
                assert type(w) is not float, (h.name, w)
                assert type(w) is (int if w.denominator == 1 else Fraction), (h.name, w)
                kinds.add(type(w))
    assert kinds == {int, Fraction, "inf"}


def test_heuristic_binding_checks_components(two_tasks):
    with pytest.raises(MissingComponent):
        mc.distance_heuristic(two_tasks, "pos_a", "pos_b")
    with pytest.raises(MissingComponent):
        mc.estimated_travel_time_heuristic(two_tasks, "elapsed", "load", "count", 5)


def test_heuristics_preserve_verdict(vehicles):
    bound = {"pos_a": 8, "pos_b": 8}
    query = "EF (pos_a - pos_b >= 2)"
    baseline = mc.check(vehicles, query, x_bound=bound, strategy="width")
    assert baseline.verdict is True
    for h in (
        mc.distance_heuristic(vehicles, "pos_a", "pos_b"),
        mc.estimated_travel_time_heuristic(
            vehicles, "elapsed", "pos_b", "speed_b", 20),
        mc.time_to_overtake_heuristic(
            vehicles, "pos_b", "speed_b", "pos_a", "speed_a"),
    ):
        got = mc.check(vehicles, query, x_bound=bound, heuristic=h)
        assert got.verdict is baseline.verdict


def test_matched_heuristic_saves_expansions(vehicles):
    bound = {"pos_a": 8, "pos_b": 8}
    query = "EF (pos_a - pos_b >= 2)"
    width = mc.check(vehicles, query, x_bound=bound, strategy="width")
    guided = mc.check(
        vehicles, query, x_bound=bound,
        heuristic=mc.distance_heuristic(vehicles, "pos_a", "pos_b"),
    )
    assert guided.verdict is width.verdict
    assert guided.stats.states_expanded < width.stats.states_expanded


def test_sweep_indicators(two_tasks):
    sw = mc.sweep_indicators(
        two_tasks,
        [("load", "load"), ("twice", "2 * load"), ("big", "load >= 2")],
        time_bound=5,
    )
    assert sw.names == ("load", "twice", "big")
    assert len(sw.versions) == 6
    assert sw.overall("load") == (Fraction(1, 4), Fraction(18, 5))
    assert sw.overall("twice") == (Fraction(1, 2), Fraction(36, 5))
    # boolean indicators sweep their truth value
    assert sw.overall("big") == (Fraction(0), Fraction(1))
    for version in sw.versions:
        assert len(version.bounds) == 3
        for lo, hi in version.bounds:
            assert lo <= hi


@pytest.mark.parametrize("indicators,message", [
    ([("a", "load"), ("a", "count")], "indicator name 'a' is given twice"),
    ({"": "load"}, "indicator name '' is not an identifier"),
    ([("a b", "load")], "indicator name 'a b' is not an identifier"),
    ([("1a", "load")], "indicator name '1a' is not an identifier"),
])
def test_sweep_rejects_bad_indicator_names(two_tasks, indicators, message):
    with pytest.raises(ParseError) as exc:
        mc.sweep_indicators(two_tasks, indicators, {"count": 1})
    assert str(exc.value) == message


@pytest.mark.parametrize("text,error,message", [
    ("nosuch", UnknownReference, "unknown component 'nosuch'"),
    ("clock(nobody)", PredicateError, "unknown agent 'nobody' in clock(...)"),
])
def test_sweep_resolves_names_before_exploring(two_tasks, text, error, message):
    # a budget of 10 states stops any exploration of two_tasks, so the
    # name is resolved before explore runs
    with pytest.raises(error) as exc:
        mc.sweep_indicators(two_tasks, {"x": text}, budget=10)
    assert str(exc.value) == message


def test_sweep_matches_semantics(two_tasks):
    a = mc.sweep_indicators(two_tasks, [("load", "load")], time_bound=5)
    b = mc.sweep_indicators(two_tasks, [("load", "load")], time_bound=5,
                            semantics="original")
    assert a.overall("load") == b.overall("load")


def test_sweep_boolean_max_agrees_with_reachability(two_tasks):
    sw = mc.sweep_indicators(
        two_tasks,
        [("reach2", "load >= 2"), ("reach4", "load >= 4")],
        x_bound={"count": 1},
    )
    assert sw.overall("reach2")[1] == 1
    assert sw.overall("reach4")[1] == 0
    assert mc.check(two_tasks, "EF load >= 2", x_bound={"count": 1}).verdict
    assert not mc.check(two_tasks, "EF load >= 4", x_bound={"count": 1}).verdict


def test_sweep_hull_matches_oracle(two_tasks, raw_two_tasks):
    import oracle

    sw = mc.sweep_indicators(two_tasks, [("load", "load")], time_bound=5)
    dist, _, _ = oracle.build_graph(raw_two_tasks, "accelerated", time_bound=5)
    idx = raw_two_tasks.comp_names.index("load")
    loads = [s[2][idx] for s in dist]
    assert sw.overall("load") == (min(loads), max(loads))


def test_sweep_clock_indicator(two_tasks):
    sw = mc.sweep_indicators(
        two_tasks, [("ca", "clock(task_a)")], time_bound=5)
    assert sw.overall("ca") == (Fraction(0), Fraction(5))


def test_sweep_at_indicator(two_tasks):
    sw = mc.sweep_indicators(
        two_tasks, [("a_done", "at(task_a, a_end)")], x_bound={"count": 1})
    assert sw.overall("a_done") == (Fraction(0), Fraction(1))


# (name, expression, oracle reading): the oracle reads a state
# (localities, clocks, values) by position
LOAD_INDICATORS = [
    ("load", "load", lambda s: s[2][0]),
    ("neg", "count - 3 * load", lambda s: s[2][1] - 3 * s[2][0]),
    ("big", "load >= 2", lambda s: int(s[2][0] >= 2)),
]

# (fixture, semantics, X bound, indicators)
SWEEP_CASES = [
    ("two_tasks", "original", {"count": 4}, LOAD_INDICATORS),
    ("two_tasks", "accelerated", {"count": 4}, LOAD_INDICATORS),
    ("vehicles", "accelerated", {"pos_a": 12, "pos_b": 12}, [
        ("done", "at(veh_a, a_done)", lambda s: int(s[0][0] == "a_done")),
        ("ca", "clock(veh_a)", lambda s: s[1][0]),
        ("gap", "pos_a - pos_b", lambda s: s[2][0] - s[2][1]),
    ]),
]


@pytest.mark.parametrize("fixture,semantics,x_bound,indicators", SWEEP_CASES)
def test_sweep_versions_match_oracle(request, fixture, semantics, x_bound, indicators):
    # every (final state, envelope) version the oracle carries along the
    # graph, no more and no fewer, sorted by (localities, clocks, values,
    # bounds) as plain numbers
    import oracle

    m = request.getfixturevalue(fixture)
    raw = request.getfixturevalue(f"raw_{fixture}")
    sw = mc.sweep_indicators(m, [(name, text) for name, text, _ in indicators],
                             x_bound, semantics)
    expected = oracle.sweep_versions(raw, semantics, [f for _, _, f in indicators],
                                     {n: Fraction(v) for n, v in x_bound.items()})
    got = [(v.state.localities, v.state.clocks, v.state.values, v.bounds)
           for v in sw.versions]
    assert len(got) == len(expected) > 1
    assert got == sorted((locs, clocks, values, bounds)
                         for (locs, clocks, values), bounds in expected)
    # the envelopes really differ between versions of one final state
    assert len({(locs, clocks, values) for locs, clocks, values, _ in got}) < len(got)


# (term, the oracle's reading of it at a state (localities, clocks, values))
TERMS = [
    ("count >= 1", lambda s: s[2][1] >= 1),
    ("load > 0", lambda s: s[2][0] > 0),
    ("clock(task_a) >= 0", lambda s: s[1][0] >= 0),
    ("count <= 2", lambda s: s[2][1] <= 2),
]


@pytest.mark.parametrize("form", ["EF", "AG"])
def test_long_conjunction_matches_oracle(two_tasks, raw_two_tasks, form):
    # 2000 terms compile into one flat function, whose verdict is the
    # oracle's under either strategy
    import oracle

    terms = TERMS * 500
    query = f"{form} (" + " && ".join(text for text, _ in terms) + ")"
    graph = oracle.CtlGraph(raw_two_tasks, "accelerated", {"count": Fraction(2)})
    expected = graph.holds(form, lambda m, s, final: all(f(s) for _, f in terms))
    for strategy in mc.STRATEGIES:
        got = mc.check(two_tasks, query, x_bound={"count": 2}, strategy=strategy)
        assert got.verdict is expected


def test_long_and_deep_transforms_match_oracle(two_tasks, tmp_path):
    # each tally as a 900-term sum and as a sum nested 150 deep on the
    # right: the same graph and verdicts as the oracle's, whose transforms
    # Python evaluates
    import oracle

    data = model_to_dict(two_tasks)
    tallies = {"double_and_tally": "count" + " + 1 - 1" * 449 + " + 1",
               "shift_and_tally": ("count + (" + "1 + (" * 149 + "1" + ")" * 150
                                   + " - 149")}
    for fid, text in tallies.items():
        data["transforms"][fid]["count"] = text
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    m, raw = model_from_dict(data), oracle.RawModel(path)
    for semantics in sem.SEMANTICS:
        dist, edges, finals = oracle.build_graph(raw, semantics, {"count": Fraction(3)})
        ex = sem.explore(m, semantics, {"count": 3})
        assert ex.counts == (len(dist), len(edges), len(finals))
        graph = oracle.CtlGraph(raw, semantics, {"count": Fraction(3)})
        for query, form, p in [
            ("EF count >= 3", "EF", lambda s: s[2][1] >= 3),
            ("AG load <= 18/5", "AG", lambda s: s[2][0] <= Fraction(18, 5)),
        ]:
            expected = graph.holds(form, lambda m, s, final: p(s))
            got = mc.check(m, query, x_bound={"count": 3}, semantics=semantics)
            assert got.verdict is expected, query


# Query texts over a token alphabet: the seven forms (QUERY_FORMS) over
# predicates built from atoms, some with unknown names, and up to two junk
# tokens spliced in.  Each parses into a Query or raises ParseError, and a
# query that parses is checked on two_tasks at count=1 to a verdict or a
# MaptError, never a traceback.
QUERY_ATOMS = st.sampled_from([
    "load >= 2", "count < 1", "clock(task_a) = 3", "at(task_a, a_end)", "final",
    "true", "min(load, 2) <= 1/0", "-load / 3/2 >= -1.5", "ite(load > 1, 2, 0) = 2",
    "nosuch > 0", "clock(nosuch) > 0", "at(task_a, b_end)",
])
QUERY_PREDS = st.recursive(QUERY_ATOMS, lambda p: st.one_of(
    st.tuples(p, p).map(lambda t: f"({t[0]} && {t[1]})"),
    st.tuples(p, p).map(lambda t: f"{t[0]} || {t[1]}"),
    p.map(lambda t: f"!{t}")), max_leaves=6)
QUERY_TEXTS = spliced(
    st.tuples(st.sampled_from(QUERY_FORMS), QUERY_PREDS, QUERY_PREDS).map(
        lambda t: t[0].format(p=t[1], q=t[2])),
    ["(", ")", "&&", "||", "!", "-->", "EF", "AG", "<", "=", "+", "/", ",", "1.5",
     ".", "&", "@", "clock", " "])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(QUERY_TEXTS)
def test_query_texts_parse_or_raise_parse_error(two_tasks, text):
    try:
        query = mc.parse_query(text)
    except ParseError:
        return
    assert isinstance(query, Query)
    try:
        mc.check(two_tasks, query, {"count": 1}, budget=2000)
    except MaptError:
        pass
