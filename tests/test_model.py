"""Model loading, serialization and the two validation passes."""

import copy
import json
from fractions import Fraction

import pytest

from maptmc import cli, expr, fixtures
from maptmc.errors import MaptError, MalformedModel, ParseError, UnknownReference
from maptmc.model import (
    _effect_class,
    dumps_model,
    eval_transform,
    lcm_periods,
    load_model,
    loads_model,
    model_from_dict,
    model_to_dict,
    validate,
    validate_acyclicity,
)


def test_fixtures_are_valid(two_tasks, staged, vehicles):
    for m in (two_tasks, staged, vehicles):
        report = validate(m)
        assert report.is_mapt
        assert report.liveness_violations == ()
        assert report.acyclicity_violations == ()


@pytest.mark.parametrize(
    "name,expected",
    [("two_tasks", 5), ("staged", 30), ("vehicles", 4)],
)
def test_lcm_periods(name, expected, request):
    assert lcm_periods(request.getfixturevalue(name)) == expected


def test_round_trip_preserves_everything(two_tasks, staged, vehicles):
    for m in (two_tasks, staged, vehicles):
        data = model_to_dict(m)
        again = model_to_dict(model_from_dict(json.loads(json.dumps(data))))
        assert again == data


def test_dumps_loads(two_tasks, tmp_path):
    text = dumps_model(two_tasks)
    assert model_to_dict(loads_model(text)) == model_to_dict(two_tasks)
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    assert model_to_dict(load_model(path)) == model_to_dict(two_tasks)


@pytest.mark.parametrize("text", [
    "load / 2" + " + 1 - 1" * 750,
    "(load" + " + 0" * 1499 + ")" + (" * 1" + "0" * 4000) * 5,
], ids=["sum", "scaled"])
def test_dumps_loads_long_sums(two_tasks, text):
    # a 1500-term sum renders in a loop and reads back as the same text
    data = model_to_dict(two_tasks)
    data["transforms"]["halve"]["load"] = text
    m = model_from_dict(data)
    again = loads_model(dumps_model(m))
    assert model_to_dict(again) == data
    assert dumps_model(again) == dumps_model(m)


def test_fraction_inits_survive_json(two_tasks):
    load = two_tasks.component("load")
    assert load.init == Fraction(1, 2)
    text = dumps_model(two_tasks)
    assert loads_model(text).component("load").init == Fraction(1, 2)


@pytest.mark.parametrize("number,init", [("0.1", Fraction(1, 10)), ("2.5e1", 25),
                                         ("1e70000", None)])
def test_json_number_inits_are_exact_and_capped(two_tasks, number, init):
    # a JSON number that is not whole reaches the reader as its text
    text = dumps_model(two_tasks).replace('"init": "1/2"', f'"init": {number}')
    if init is None:
        with pytest.raises(MalformedModel) as err:
            loads_model(text)
        assert str(err.value) == "component 'load' init: '1e70000' exceeds 65536 bits"
    else:
        value = loads_model(text).component("load").init
        assert value == init and type(value) is type(init)


def test_inits_are_canonical(mutated_two_tasks):
    def set_inits(data):
        data["components"][0]["init"] = "6/3"
        data["components"][1]["init"] = "1/2"

    m = mutated_two_tasks(set_inits)
    whole, half = (c.init for c in m.components[:2])
    assert type(whole) is int and whole == 2
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_parse_error_reports_line():
    bad = '{\n "components": [\n'
    with pytest.raises(ParseError) as err:
        loads_model(bad)
    assert err.value.line >= 2


def test_integer_past_the_digit_limit_is_a_parse_error(two_tasks):
    # Python refuses to read a decimal integer of more than 4300 digits;
    # the error names the model file and the limit, and no interpreter
    # setting
    text = dumps_model(two_tasks).replace('"init": "1/2"', '"init": ' + "7" * 5000)
    with pytest.raises(ParseError) as err:
        loads_model(text)
    assert str(err.value) == "model file: an integer has more than 4300 digits"


@pytest.mark.parametrize("opener, middle, closer",
                         [("[", "", "]"), ('{"a":', "1", "}")], ids=["array", "object"])
def test_nesting_past_the_recursion_limit_is_a_parse_error(
        opener, middle, closer, tmp_path, capsys):
    # json.loads recurses once per array or object level; the error names
    # the model file, not Python's recursion limit, and the command line
    # prints it as its one error line
    text = opener * 100000 + middle + closer * 100000
    with pytest.raises(ParseError) as err:
        loads_model(text)
    assert str(err.value) == "model file: nested too deeply to read"
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: model file: nested too deeply to read\n")


def test_eval_transform_reads_old_values(two_tasks):
    # every effect must see the pre-transform valuation
    m = model_from_dict(
        {
            "components": [
                {"name": "a", "init": 1, "x": True},
                {"name": "b", "init": 2},
            ],
            "transforms": {"swap": {"a": "b", "b": "a"}, "grow": {"a": "a + 1"}},
            "agents": [
                {
                    "name": "ag",
                    "localities": ["u", "v"],
                    "transitions": [
                        {"id": "t", "from": "u", "to": "v", "transform": "grow",
                         "interval": [1, 1]},
                    ],
                    "reset_period": 2,
                }
            ],
        }
    )
    names = m.component_names
    v = tuple(c.init for c in m.components)
    swapped = eval_transform(m.transform("swap"), names, v)
    assert dict(zip(names, swapped)) == {"a": Fraction(2), "b": Fraction(1)}
    # untouched components keep their value
    grown = eval_transform(m.transform("grow"), names, v)
    assert dict(zip(names, grown)) == {"a": Fraction(2), "b": Fraction(2)}


def test_model_lookups(two_tasks):
    agent, t = two_tasks.transition("early_a")
    assert agent.name == "task_a"
    assert t.interval == (1, 2)
    with pytest.raises(UnknownReference):
        two_tasks.agent("task_c")
    with pytest.raises(UnknownReference):
        two_tasks.component("weight")
    with pytest.raises(UnknownReference):
        two_tasks.transition("warp")


STRUCTURE_ERRORS = [
    (
        "duplicate component",
        lambda d: d["components"].append(dict(d["components"][0])),
        MalformedModel,
    ),
    (
        "reserved component name",
        lambda d: d["components"][0].update(name="clock"),
        MalformedModel,
    ),
    (
        "boolean init",
        lambda d: d["components"][0].update(init=True),
        MalformedModel,
    ),
    (
        "non-numeric init",
        lambda d: d["components"][0].update(init="three"),
        MalformedModel,
    ),
    (
        "init past the magnitude cap",
        lambda d: d["components"][0].update(init="1e70000"),
        MalformedModel,
    ),
    (
        "transform assigns unknown component",
        lambda d: d["transforms"]["double"].update(size="1"),
        UnknownReference,
    ),
    (
        "transform reads unknown component",
        lambda d: d["transforms"]["double"].update(load="load + size"),
        UnknownReference,
    ),
    (
        "transition uses unknown transform",
        lambda d: d["agents"][0]["transitions"][0].update(transform="triple"),
        UnknownReference,
    ),
    (
        "transition transform a list",
        lambda d: d["agents"][0]["transitions"][0].update(transform=[]),
        UnknownReference,
    ),
    (
        "transition transform an object",
        lambda d: d["agents"][0]["transitions"][0].update(transform={"double": 1}),
        UnknownReference,
    ),
    (
        "transition from unknown locality",
        lambda d: d["agents"][0]["transitions"][0].update(**{"from": "nowhere"}),
        UnknownReference,
    ),
    (
        "empty interval",
        lambda d: d["agents"][0]["transitions"][0].update(interval=[3, 2]),
        MalformedModel,
    ),
    (
        "negative interval bound",
        lambda d: d["agents"][0]["transitions"][0].update(interval=[-1, 2]),
        MalformedModel,
    ),
    (
        "fractional interval bound",
        lambda d: d["agents"][0]["transitions"][0].update(interval=[1, 2.5]),
        MalformedModel,
    ),
    (
        "duplicate transition id",
        lambda d: d["agents"][0]["transitions"][1].update(id="early_a"),
        MalformedModel,
    ),
    (
        "duplicate locality across agents",
        lambda d: d["agents"][1]["localities"].__setitem__(0, "a_start"),
        MalformedModel,
    ),
    (
        "locality named like a component",
        lambda d: (
            d["agents"][0]["localities"].__setitem__(1, "load"),
            d["agents"][0]["transitions"][0].update(to="load"),
            d["agents"][0]["transitions"][1].update(to="load"),
        ),
        MalformedModel,
    ),
    (
        "zero reset period",
        lambda d: d["agents"][0].update(reset_period=0),
        MalformedModel,
    ),
    (
        "unknown init locality",
        lambda d: d["agents"][0].update(init_locality="zzz"),
        UnknownReference,
    ),
    (
        "no agents",
        lambda d: d.update(agents=[]),
        MalformedModel,
    ),
]


@pytest.mark.parametrize(
    "label,mutate,exc",
    STRUCTURE_ERRORS,
    ids=[label for label, _, _ in STRUCTURE_ERRORS],
)
def test_structure_errors(label, mutate, exc, mutated_two_tasks):
    with pytest.raises(exc):
        mutated_two_tasks(mutate)


SHAPE_ERRORS = [
    ("transitions a number",
     lambda d: d["agents"][0].update(transitions=5),
     "agent 'task_a': 'transitions' must be a list"),
    ("transitions an object",
     lambda d: d["agents"][0].update(transitions={"early_a": {}}),
     "agent 'task_a': 'transitions' must be a list"),
    ("x flag a string",
     lambda d: d["components"][1].update(x="no"),
     "component 'count': 'x' must be a boolean, got 'no'"),
    ("strong flag a number",
     lambda d: d["components"][0].update(strong=0),
     "component 'load': 'strong' must be a boolean, got 0"),
    ("positive flag null",
     lambda d: d["components"][0].update(positive=None),
     "component 'load': 'positive' must be a boolean, got None"),
]


@pytest.mark.parametrize("label,mutate,message", SHAPE_ERRORS,
                         ids=[label for label, _, _ in SHAPE_ERRORS])
def test_shape_errors_name_the_field(label, mutate, message, mutated_two_tasks):
    with pytest.raises(MalformedModel) as info:
        mutated_two_tasks(mutate)
    assert str(info.value) == message


def test_component_flags_default_when_absent(two_tasks):
    data = model_to_dict(two_tasks)
    for entry in data["components"]:
        del entry["strong"], entry["positive"]
    del data["components"][0]["x"]
    m = model_from_dict(data)
    assert [(c.is_x, c.strong, c.positive) for c in m.components] == [
        (False, True, False), (True, True, False)]


def test_locality_cycle_rejected(mutated_two_tasks):
    def mutate(d):
        d["agents"][0]["transitions"][1].update(**{"from": "a_end", "to": "a_start"})

    with pytest.raises(MalformedModel, match="cycle"):
        mutated_two_tasks(mutate)


def test_unique_source_and_sink_enforced(mutated_two_tasks):
    def mutate(d):
        # a second locality with no incoming edge makes the source ambiguous
        d["agents"][0]["localities"].insert(1, "a_side")
        d["agents"][0]["transitions"].append(
            {"id": "side", "from": "a_side", "to": "a_end",
             "transform": "double", "interval": [1, 2]}
        )

    with pytest.raises(MalformedModel, match="source"):
        mutated_two_tasks(mutate)


def liveness_clauses(m):
    return sorted(v.clause for v in validate(m).liveness_violations)


def test_liveness_init_overshoot(mutated_two_tasks):
    m = mutated_two_tasks(lambda d: d["agents"][0].update(init_clock=4))
    assert liveness_clauses(m) == ["init-overshoot"]


def test_liveness_init_final(mutated_two_tasks):
    def mutate(d):
        d["agents"][0].update(
            localities=["a_start"], transitions=[], init_clock=9,
            init_locality="a_start",
        )

    m = mutated_two_tasks(mutate)
    assert liveness_clauses(m) == ["init-final"]


def test_liveness_bound_decrease():
    m = model_from_dict(
        {
            "components": [{"name": "n", "init": 0, "x": True}],
            "transforms": {"bump": {"n": "n + 1"}},
            "agents": [
                {
                    "name": "ag",
                    "localities": ["u", "v", "w"],
                    "transitions": [
                        {"id": "t1", "from": "u", "to": "v", "transform": "bump",
                         "interval": [1, 5]},
                        {"id": "t2", "from": "v", "to": "w", "transform": "bump",
                         "interval": [2, 4]},
                    ],
                    "reset_period": 6,
                }
            ],
        }
    )
    report = validate(m)
    assert not report.strongly_live
    assert [v.clause for v in report.liveness_violations] == ["bound-decrease"]
    assert report.liveness_violations[0].locality == "v"


def test_liveness_late_arrival(mutated_two_tasks):
    m = mutated_two_tasks(
        lambda d: d["agents"][0]["transitions"][1].update(interval=[3, 7])
    )
    assert liveness_clauses(m) == ["late-arrival"]


def acyclicity_kinds(m):
    return sorted(v.kind for v in validate(m).acyclicity_violations)


def test_acyclicity_requires_x_component(mutated_two_tasks):
    m = mutated_two_tasks(lambda d: d["components"][1].update(x=False))
    assert acyclicity_kinds(m) == ["no-x-components"]


def test_acyclicity_rejects_decrease(mutated_two_tasks):
    m = mutated_two_tasks(
        lambda d: d["transforms"]["halve"].update(count="count - 1")
    )
    assert "may-decrease" in acyclicity_kinds(m)


def test_acyclicity_scaling_needs_positive_declaration(mutated_two_tasks):
    # doubling an X component only counts as growth when it is declared positive
    m = mutated_two_tasks(
        lambda d: d["transforms"]["double_and_tally"].update(count="2 * count")
    )
    assert "unprovable" in acyclicity_kinds(m)

    # and only from an init above 0: from 0 it stays at 0, from -1 it falls
    for init in (1, 0, -1):
        def mutate(d):
            d["components"][1].update(positive=True, init=init)
            d["transforms"]["double_and_tally"].update(count="2 * count")
            d["transforms"]["shift_and_tally"].update(count="2 * count")

        assert validate(mutated_two_tasks(mutate)).acyclic == (init > 0)


def test_acyclicity_needs_covering_agent(mutated_two_tasks):
    # rerouting early_a through a count-free transform opens a lazy path,
    # and task_b never touches count, so no agent forces growth
    m = mutated_two_tasks(
        lambda d: d["agents"][0]["transitions"][0].update(transform="double")
    )
    kinds = acyclicity_kinds(m)
    assert kinds == ["no-increasing-path", "no-increasing-path"]


# (effect on u, class when u is not positive, class when it is); None is no
# effect.  A shift is classed by its sign; a scale other than 1 counts only
# on a positive component; every other shape is unprovable.
EFFECT_CLASSES = [
    (None, "identity", "identity"),
    ("u", "identity", "identity"),
    ("u + 1", "strict", "strict"),
    ("0.5 + u", "strict", "strict"),
    ("u - 1", "decreasing", "decreasing"),
    ("u + 0", "identity", "identity"),
    ("u * 2", "unprovable", "strict"),
    ("1.5 * u", "unprovable", "strict"),
    ("u / 0.5", "unprovable", "strict"),
    ("u / 2", "unprovable", "decreasing"),
    ("u * 0", "unprovable", "decreasing"),
    ("0.5 * u", "unprovable", "decreasing"),
    ("u * 1", "identity", "identity"),
    ("u / 1", "identity", "identity"),
    ("1 - u", "unprovable", "unprovable"),
    ("2 / u", "unprovable", "unprovable"),
    ("u / 0", "unprovable", "unprovable"),
    ("u + -1", "unprovable", "unprovable"),
    ("u * u", "unprovable", "unprovable"),
    ("u + v", "unprovable", "unprovable"),
    ("min(u, 1)", "unprovable", "unprovable"),
    ("(u + 1) + 1", "unprovable", "unprovable"),
]


@pytest.mark.parametrize("text,plain,positive", EFFECT_CLASSES)
def test_effect_class_reads_each_shape(text, plain, positive):
    node = None if text is None else expr.parse_arith(text)
    assert _effect_class(node, "u", False) == plain
    assert _effect_class(node, "u", True) == positive


def test_lazy_path_is_the_first_found_width_first():
    # s->x is declared first, yet the width-first search reaches e by s->e
    # before x->e
    def idle(tid, src, dst):
        return {"id": tid, "from": src, "to": dst, "transform": "idle",
                "interval": [1, 1]}

    m = model_from_dict({
        "components": [{"name": "n", "init": 0, "x": True}],
        "transforms": {"idle": {}},
        "agents": [{"name": "g", "localities": ["s", "x", "e"],
                    "transitions": [idle("sx", "s", "x"), idle("xe", "x", "e"),
                                    idle("se", "s", "e")],
                    "reset_period": 2}]})
    ok, violations = validate_acyclicity(m)
    assert not ok
    assert [(v.kind, v.detail, v.agent) for v in violations] == [
        ("no-increasing-path",
         "agent 'g' has a full cycle with no strict X increase: se", "g")]


def test_validation_report_shape(two_tasks):
    report = validate(two_tasks)
    assert report.strongly_live and report.acyclic
    assert report.is_mapt


# Every field of a bundled fixture set to each hostile value in turn: the
# model must load and validate, or fail with a MaptError, never a
# traceback.  BIG stands for a 5000-digit integer, which json.dumps cannot
# write, so it is put into the text.
BIG = "<5000 digits>"
HOSTILE = [None, True, 1.5, "", [], {}, -1, "nosuch", BIG]


def field_paths(node, path=()):
    """The path of node and of every field below it, depth first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from field_paths(child, path + (key,))


def with_field(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("name", ["two_tasks.json", "staged_cycles.json", "vehicles.json"])
def test_every_field_refuses_hostile_values_with_a_mapt_error(name):
    data = json.loads(fixtures.fixture_path(name).read_text(encoding="utf-8"))
    untyped = []
    for path in field_paths(data):
        for value in HOSTILE:
            text = json.dumps(with_field(data, path, value))
            text = text.replace(json.dumps(BIG), "7" * 5000)
            try:
                validate(loads_model(text))
            except MaptError:
                pass
            except Exception as e:
                untyped.append((path, value, repr(e)))
    assert untyped == []
