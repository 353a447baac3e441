"""Command line interface: exit codes, output formats and file handling."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from maptmc import cli, layers, mc, petri
from maptmc import semantics as sem
from maptmc.errors import ValidationError
from maptmc.fixtures import fixture_path
from maptmc.model import model_from_dict, model_to_dict

import oracle
from test_layers import agents_model, hop

TWO_TASKS = str(fixture_path("two_tasks.json"))
STAGED = str(fixture_path("staged_cycles.json"))
VEHICLES = str(fixture_path("vehicles.json"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explore_counts_build_no_states(capsys, monkeypatch):
    # the count line reads the compact graph: the initial state is the one
    # State built, not one per reached state
    built = []
    state = sem.State

    def counting(*args):
        built.append(args)
        return state(*args)

    monkeypatch.setattr(sem, "State", counting)
    code, out, _ = run_cli(capsys, "explore", TWO_TASKS, "--x-bound", "count=3",
                           "--format", "machine")
    assert (code, out) == (0, "explored semantics=accelerated states=365 "
                              "edges=406 finals=94\n")
    assert len(built) == 1


def test_explore_under_a_rational_x_bound_counts_the_oracle(capsys, raw_two_tasks):
    # the bound is a pair in the kernel and count an int: the X-bound test
    # compares the two exactly, as the oracle does over Fractions
    dist, edges, finals = oracle.build_graph(raw_two_tasks, "accelerated",
                                             {"count": Fraction(7, 2)})
    code, out, _ = run_cli(capsys, "explore", TWO_TASKS, "--x-bound", "count=7/2",
                           "--format", "machine")
    assert (code, out) == (0, f"explored semantics=accelerated states={len(dist)} "
                              f"edges={len(edges)} finals={len(finals)}\n")


def test_explore_builds_the_graph_only_for_dot(capsys, monkeypatch, tmp_path):
    # the count line comes from the batch pass; only --dot builds the graph
    # of States, once, from the pass's distance map
    views = []
    view = sem.Kernel.view

    def spy(self, entries):
        views.append(entries)
        return view(self, entries)

    monkeypatch.setattr(sem.Kernel, "view", spy)
    line = "explored semantics=accelerated states=365 edges=406 finals=94\n"
    argv = ["explore", TWO_TASKS, "--x-bound", "count=3", "--format", "machine"]
    assert run_cli(capsys, *argv) == (0, line, "")
    assert views == []
    dot = tmp_path / "g.dot"
    assert run_cli(capsys, *argv, "--dot", str(dot)) == (0, line, "")
    assert len(views) == 1
    assert dot.read_text(encoding="utf-8").count(" -> ") == 406


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", TWO_TASKS)
    assert code == 0
    assert "strong liveness: ok" in out
    assert "acyclicity: ok" in out


def test_validate_machine(capsys):
    code, out, _ = run_cli(capsys, "validate", TWO_TASKS, "--format", "machine")
    assert code == 0
    assert out.splitlines() == [
        "validation strongly_live=true acyclic=true is_mapt=true"
    ]


def broken_model(tmp_path, two_tasks, mutate, name="broken.json"):
    data = model_to_dict(two_tasks)
    mutate(data)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_validate_reports_violations(capsys, tmp_path, two_tasks):
    path = broken_model(
        tmp_path, two_tasks, lambda d: d["agents"][0].update(init_clock=4))
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 1
    assert "VIOLATED" in out

    code, out, _ = run_cli(capsys, "validate", path, "--format", "machine")
    assert code == 1
    assert "strongly_live=false" in out
    assert "clause=init-overshoot" in out


def test_assume_acyclic_waives_growth_proof(capsys, tmp_path, two_tasks):
    path = broken_model(
        tmp_path, two_tasks, lambda d: d["components"][1].update(x=False))
    code, _, _ = run_cli(capsys, "validate", path)
    assert code == 1
    code, out, _ = run_cli(capsys, "validate", path, "--assume-acyclic")
    assert code == 0
    assert "waived" in out
    # bounded exploration is then allowed despite the missing proof
    code, _, _ = run_cli(
        capsys, "explore", path, "--assume-acyclic", "--time-bound", "5")
    assert code == 0


def drop_count(data):
    for name in ("double_and_tally", "shift_and_tally"):
        del data["transforms"][name]["count"]


def two_distance_model(tmp_path, two_tasks):
    # validate_acyclicity proves it, yet (g02, 0, n=2) is reached at t = 0
    # through g01, and at t = 1 through the skip hop after a reset
    path = tmp_path / "skip.json"
    agents_model([{
        "name": "g0", "localities": ["g00", "g01", "g02"],
        "transitions": [hop("g0_0", "g00", "g01", 0, 0), hop("g0_1", "g01", "g02", 0, 0),
                        hop("g0_2", "g00", "g02", 0, 0)],
        "reset_period": 1, "init_locality": "g00", "init_clock": 0}], path)
    return [str(path), "--x-bound", "n=3"]


def drop_count_model(tmp_path, two_tasks):
    # without the count tally the runs come back to the initial state one
    # period later
    return [broken_model(tmp_path, two_tasks, drop_count), "--assume-acyclic"]


# extra is (a function that writes the model and returns its arguments,
# the command's own arguments)
@pytest.mark.parametrize("command,extra", [
    ("explore", (drop_count_model, [])),
    ("petri-check", (drop_count_model, [])),
    ("sweep", (drop_count_model, ["--indicator", "load=load"])),
    ("petri-check", (two_distance_model, [])),
    ("sweep", (two_distance_model, ["--indicator", "n=n"])),
])
def test_cyclic_model_stops_with_error(capsys, tmp_path, two_tasks, command, extra):
    # either model makes the walk meet a state at two time distances
    model, flags = extra
    code, out, err = run_cli(capsys, command, *model(tmp_path, two_tasks), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert err.rstrip().endswith("the model is not acyclic")


def test_whole_space_commands_refuse_a_second_distance(two_tasks):
    # sweep, petri-check and abstract_reachable keep one time distance per
    # state, so on the drop-count model, whose runs meet a state at two
    # distances, each stops with the not-acyclic error: abstract_reachable
    # too, although a (state, word) entry cannot recur, since the word
    # counts every reset
    data = model_to_dict(two_tasks)
    drop_count(data)
    cyclic = model_from_dict(data)
    with pytest.raises(ValidationError, match="the model is not acyclic$"):
        sem.abstract_reachable(cyclic, "original", budget=2000)
    with pytest.raises(ValidationError, match="the model is not acyclic$"):
        mc.sweep_indicators(cyclic, {"load": "load"}, semantics="original")
    with pytest.raises(ValidationError, match="the model is not acyclic$"):
        petri.state_space_equiv(cyclic)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["agents"][0].update(transitions=5),
     "error: agent 'task_a': 'transitions' must be a list"),
    (lambda d: d["components"][1].update(x="no"),
     "error: component 'count': 'x' must be a boolean, got 'no'"),
    (lambda d: d["agents"][0]["transitions"][0].update(transform=[]),
     "error: transition 'early_a': unknown transform []"),
])
def test_malformed_model_exits_2(capsys, tmp_path, two_tasks, mutate, message):
    path = broken_model(tmp_path, two_tasks, mutate)
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out, err) == (2, "", message + "\n")


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/model.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  ", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "error:" in err


def test_explore_machine_counts(capsys):
    code, out, _ = run_cli(
        capsys, "explore", STAGED, "--semantics", "accelerated",
        "--time-bound", "30", "--format", "machine")
    assert code == 0
    assert "explored semantics=accelerated states=58" in out
    code, out, _ = run_cli(
        capsys, "explore", STAGED, "--semantics", "original",
        "--time-bound", "30", "--format", "machine")
    assert "states=116" in out


def test_explore_dot_output(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    code, _, _ = run_cli(
        capsys, "explore", TWO_TASKS, "--time-bound", "4",
        "--dot", str(dot))
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    # states stopped by the time bound are drawn as finals
    assert "doublecircle" in text
    again = tmp_path / "again.dot"
    run_cli(capsys, "explore", TWO_TASKS, "--time-bound", "4",
            "--dot", str(again))
    assert again.read_text(encoding="utf-8") == text


def test_explore_dot_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "DOT_NODE_CAP", 3)
    code, _, err = run_cli(
        capsys, "explore", TWO_TASKS, "--time-bound", "4",
        "--dot", str(tmp_path / "never.dot"))
    assert code == 2
    assert "cap" in err
    assert not (tmp_path / "never.dot").exists()


def test_explore_budget_exhausted(capsys):
    code, _, err = run_cli(
        capsys, "explore", STAGED, "--time-bound", "30", "--budget", "5")
    assert code == 2
    assert "budget" in err or "exceeded" in err


@pytest.mark.parametrize("budget,message", [
    ("100", "error: exploration exceeded 100 states"),
    ("7000", "error: sweep exceeded 7000 entries"),
])
def test_sweep_budget_stops_explore_then_the_walk(capsys, budget, message):
    # two_tasks at count=5, original, has 6052 states and 11149 (state,
    # envelope) entries: sweep explores the space first, so a budget below
    # the state count stops there, and one above it stops the tagged walk
    code, out, err = run_cli(capsys, "sweep", TWO_TASKS, "--semantics", "original",
                             "--x-bound", "count=5", "--indicator", "load=load",
                             "--budget", budget)
    assert (code, out, err) == (2, "", message + "\n")


def test_cuts_text_matches_library(capsys, two_tasks):
    code, out, _ = run_cli(capsys, "cuts", TWO_TASKS)
    assert code == 0
    expected = layers.format_cuts(layers.find_cuts(two_tasks))
    assert out == expected + "# 4 coherent cut offsets in one hyperperiod\n"


def test_cuts_machine_and_exclude_endpoints(capsys):
    code, out, _ = run_cli(capsys, "cuts", STAGED, "--format", "machine")
    assert code == 0
    assert "cut t=5 localities=a1,b1 clocks=5,5" in out
    assert out.rstrip().endswith("cuts count=11")
    _, out, _ = run_cli(capsys, "cuts", STAGED, "--format", "machine",
                        "--exclude-endpoints")
    assert "cuts count=2" in out


def test_init_locality_places_an_agent_at_time_zero_only(capsys, tmp_path, two_tasks):
    path = broken_model(
        tmp_path, two_tasks,
        lambda d: d["agents"][0].update(init_locality="a_end"), name="a_end.json")
    for semantics, checked in (("original", 199), ("accelerated", 145)):
        code, out, _ = run_cli(capsys, "petri-check", path, "--semantics", semantics,
                               "--x-bound", "count=2", "--format", "machine")
        assert code == 0
        assert out == f'equivalence equal=true states_checked={checked} detail=""\n'
    # a cut describes the steady cycle, although every run shows a_end at t=1
    _, out, _ = run_cli(capsys, "cuts", path, "--format", "machine")
    assert "cut t=1 localities=a_start,b_start clocks=1,1" in out


def test_check_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "check", TWO_TASKS, "EF load >= 2", "--x-bound", "count=1")
    assert code == 0
    assert "verdict: True" in out
    code, out, _ = run_cli(
        capsys, "check", TWO_TASKS, "EF load >= 4", "--x-bound", "count=1")
    assert code == 1
    assert "verdict: False" in out


def test_check_machine_format_is_stable(capsys):
    args = ("check", TWO_TASKS, "EF load >= 2", "--x-bound", "1",
            "--format", "machine")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert out1.startswith("verdict value=true states_expanded=")
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_check_bare_x_bound(capsys):
    code, _, _ = run_cli(
        capsys, "check", TWO_TASKS, "AF count >= 2", "--x-bound", "2")
    assert code == 0


def assert_one_error_line(code, err):
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--x-bound", "count="],
                 "error: bad --x-bound entry 'count=', expected name=value",
                 id="x-bound-no-value"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--x-bound", "1/0"],
                 "error: x bound: cannot read a rational from '1/0'",
                 id="x-bound-bare-zero-denominator"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--x-bound", "count=1/0"],
                 "error: x bound of 'count': cannot read a rational from '1/0'",
                 id="x-bound-zero-denominator"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2",
                  "--x-bound", "1", "--x-bound", "count=1"],
                 "error: bad --x-bound entry '1', expected name=value",
                 id="x-bound-bare-among-named"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2",
                  "--x-bound", "count=1", "--x-bound", "count=3"],
                 "error: --x-bound name 'count' is given twice",
                 id="x-bound-repeated-name"),
    pytest.param(["check", "/no/such/model.json", "EF x",
                  "--x-bound", "count=1", "--x-bound", " count = 1"],
                 "error: --x-bound name 'count' is given twice",
                 id="x-bound-repeated-name-before-load"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--heuristic", "distance",
                  "--heuristic-arg", "ahead"],
                 "error: bad --heuristic-arg entry 'ahead', expected name=value",
                 id="heuristic-arg"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--heuristic", "distance",
                  "--heuristic-arg", "behind=count", "--heuristic-arg", "behind=load"],
                 "error: --heuristic-arg name 'behind' is given twice",
                 id="heuristic-arg-repeated-name"),
    pytest.param(["check", "/no/such/model.json", "EF x", "--heuristic", "distance",
                  "--heuristic-arg", "ahead=load", "--heuristic-arg", " ahead = count"],
                 "error: --heuristic-arg name 'ahead' is given twice",
                 id="heuristic-arg-repeated-name-before-load"),
    pytest.param(["sweep", TWO_TASKS, "--indicator", "bad"],
                 "error: bad --indicator 'bad', expected name=expr", id="indicator"),
    # argument errors come before the model is read
    pytest.param(["sweep", "/no/such/model.json", "--indicator", "bad"],
                 "error: bad --indicator 'bad', expected name=expr",
                 id="indicator-before-load"),
    pytest.param(["check", "/no/such/model.json", "EF x", "--x-bound", "count="],
                 "error: bad --x-bound entry 'count=', expected name=value",
                 id="x-bound-before-load"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2",
                  "--strong-set", "load", "--weak-set", "count"],
                 "maptmc check: error: argument --weak-set: "
                 "not allowed with argument --strong-set", id="strong-and-weak-set"),
    pytest.param(["check", TWO_TASKS, "EF(load>=2)", "--x-bound", "count=1",
                  "--heuristic-arg", "ahead=load"],
                 "error: --heuristic-arg needs --heuristic",
                 id="heuristic-arg-without-heuristic"),
    pytest.param(["check", "/no/such/model.json", "EF x",
                  "--heuristic-arg", "ahead=load"],
                 "error: --heuristic-arg needs --heuristic",
                 id="heuristic-arg-without-heuristic-before-load"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--x-bound", "count=1",
                  "--strategy", "width", "--strong-set", "count"],
                 "error: a strong or weak set requires the layered-dfs strategy",
                 id="width-strong-set"),
    pytest.param(["check", TWO_TASKS, "EF load >= 2", "--x-bound", "count=1",
                  "--strategy", "width", "--weak-set", "load"],
                 "error: a strong or weak set requires the layered-dfs strategy",
                 id="width-weak-set"),
    pytest.param(["explore", TWO_TASKS, "--budget", "-5"],
                 "error: bad --budget value '-5', expected a whole number >= 0",
                 id="negative-budget"),
    pytest.param(["explore", TWO_TASKS, "--budget", "1.5"],
                 "error: bad --budget value '1.5', expected a whole number >= 0",
                 id="fractional-budget"),
    pytest.param(["explore", TWO_TASKS, "--time-bound", "-1"],
                 "error: bad --time-bound value '-1', expected a whole number >= 0",
                 id="negative-explore-time-bound"),
    pytest.param(["sweep", TWO_TASKS, "--indicator", "l=load", "--time-bound", "-3"],
                 "error: bad --time-bound value '-3', expected a whole number >= 0",
                 id="negative-sweep-time-bound"),
    # the exponent is measured before the goal is built, so this is quick
    pytest.param(["check", VEHICLES, "EF pos_a >= 4", "--x-bound", "pos_a=8",
                  "--x-bound", "pos_b=8", "--heuristic", "estimated_travel_time",
                  "--heuristic-arg", "elapsed=elapsed", "--heuristic-arg", "position=pos_b",
                  "--heuristic-arg", "speed=speed_b", "--heuristic-arg", "goal=1e999999999"],
                 "error: goal: '1e999999999' exceeds 65536 bits",
                 id="goal-past-the-cap"),
])
def test_argument_errors(capsys, argv, message):
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert lines[-1] == message
    # only argparse's own errors print its usage above the error line
    assert len(lines) == 1 or message.startswith("maptmc ")


@pytest.mark.parametrize("command", ["validate", "cuts"])
def test_budget_only_where_read(capsys, command):
    # validate and cuts explore nothing, so they take no --budget
    with pytest.raises(SystemExit) as exc:
        cli.main([command, TWO_TASKS, "--budget", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "maptmc: error: unrecognized arguments: --budget 5"


def test_zero_bounds_are_valid(capsys):
    # 0 is a bound like any other: no time passes, and no state fits
    assert run_cli(capsys, "explore", TWO_TASKS, "--time-bound", "0",
                   "--x-bound", "count=1", "--format", "machine") == (
        0, "explored semantics=accelerated states=1 edges=0 finals=1\n", "")
    assert run_cli(capsys, "explore", TWO_TASKS, "--budget", "0") == (
        2, "", "error: exploration exceeded 0 states\n")


@pytest.mark.parametrize("argv,message", [
    (["sweep", TWO_TASKS, "--indicator", "a=load", "--indicator", "a=count"],
     "error: indicator name 'a' is given twice"),
    (["sweep", TWO_TASKS, "--indicator", "=load"],
     "error: indicator name '' is not an identifier"),
    (["sweep", TWO_TASKS, "--indicator", "a b=load"],
     "error: indicator name 'a b' is not an identifier"),
    (["check", TWO_TASKS, "EF(load>=2)", "--strong-set", "nosuch"],
     "error: unknown component 'nosuch'"),
    (["check", TWO_TASKS, "EF(load>=2)", "--weak-set", "load,nosuch"],
     "error: unknown component 'nosuch'"),
])
def test_bad_names_are_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--x-bound", "count=1")
    assert (code, out, err) == (2, "", message + "\n")


def test_check_zero_denominator_heuristic_arg(capsys):
    code, _, err = run_cli(
        capsys, "check", VEHICLES, "EF pos_a >= 4",
        "--x-bound", "pos_a=8", "--x-bound", "pos_b=8",
        "--heuristic", "estimated_travel_time",
        "--heuristic-arg", "elapsed=elapsed", "--heuristic-arg", "position=pos_b",
        "--heuristic-arg", "speed=speed_b", "--heuristic-arg", "goal=1/0")
    assert_one_error_line(code, err)
    assert "goal" in err


def test_check_unknown_heuristic_arg(capsys):
    code, _, err = run_cli(
        capsys, "check", VEHICLES, "EF(pos_a>=4)",
        "--heuristic", "distance", "--heuristic-arg", "foo=pos_a")
    assert_one_error_line(code, err)
    code, _, err = run_cli(
        capsys, "check", VEHICLES, "EF(pos_a>=4)", "--heuristic", "distance",
        "--heuristic-arg", "ahead=pos_a", "--heuristic-arg", "behind=pos_b",
        "--heuristic-arg", "foo=pos_a")
    assert_one_error_line(code, err)
    assert "'foo'" in err


def test_check_with_cuts_file(capsys, tmp_path, two_tasks):
    path = tmp_path / "cuts.txt"
    path.write_text(layers.format_cuts(layers.find_cuts(two_tasks)),
                    encoding="utf-8")
    code, _, _ = run_cli(
        capsys, "check", TWO_TASKS, "EF load >= 2",
        "--x-bound", "count=1", "--cuts", str(path))
    assert code == 0


def test_width_check_refuses_cuts_file(capsys, tmp_path, two_tasks):
    path = tmp_path / "cuts.txt"
    path.write_text(layers.format_cuts(layers.find_cuts(two_tasks)),
                    encoding="utf-8")
    assert run_cli(capsys, "check", TWO_TASKS, "EF load >= 2", "--x-bound", "count=1",
                   "--strategy", "width", "--cuts", str(path)) == (
        2, "", "error: cuts require the layered-dfs strategy\n")


def test_check_strong_weak_sets(capsys):
    code, _, _ = run_cli(
        capsys, "check", TWO_TASKS, "EF load >= 2",
        "--x-bound", "count=1", "--strong-set", "")
    assert code == 0
    code, _, _ = run_cli(
        capsys, "check", TWO_TASKS, "EF load >= 2",
        "--x-bound", "count=1", "--weak-set", "load")
    assert code == 0
    with pytest.raises(SystemExit):
        cli.main(["check", TWO_TASKS, "EF load >= 2",
                  "--strong-set", "load", "--weak-set", "count"])


def test_check_heuristic_flags(capsys):
    code, _, _ = run_cli(
        capsys, "check", VEHICLES, "EF (pos_a - pos_b >= 2)",
        "--x-bound", "pos_a=8", "--x-bound", "pos_b=8",
        "--heuristic", "distance",
        "--heuristic-arg", "ahead=pos_a", "--heuristic-arg", "behind=pos_b")
    assert code == 0
    code, _, err = run_cli(
        capsys, "check", VEHICLES, "EF pos_a >= 4",
        "--x-bound", "pos_a=8", "--x-bound", "pos_b=8",
        "--heuristic", "altitude")
    assert code == 2
    assert "unknown heuristic" in err
    code, _, err = run_cli(
        capsys, "check", VEHICLES, "EF pos_a >= 4",
        "--heuristic", "distance", "--heuristic-arg", "ahead")
    assert code == 2


def test_check_bad_query(capsys):
    code, _, err = run_cli(
        capsys, "check", TWO_TASKS, "load >= 2", "--x-bound", "count=1")
    assert code == 2
    assert "error:" in err


def test_check_nesting_cap(capsys):
    # nested 200 deep a query runs; 300 deep it is one error line and exit
    # 2, not a RecursionError
    args = ("--x-bound", "count=2", "--format", "machine")
    code, out, _ = run_cli(capsys, "check", TWO_TASKS,
                           "EF " + "(" * 200 + "count >= 1" + ")" * 200, *args)
    assert (code, out) == (0, "verdict value=true states_expanded=3 "
                              "borders_crossed=0 clusters_formed=0 peak_frontier=1\n")
    code, out, err = run_cli(capsys, "check", TWO_TASKS,
                             "EF " + "(" * 300 + "count >= 1" + ")" * 300, *args)
    assert (code, out) == (2, "")
    assert err == ("error: expression nested more than 200 levels deep "
                   "(line 1, column 204)\n")


@pytest.mark.parametrize("query", ["EF (true || at(nobody, x))",
                                   "EF(false && EF at(nobody, x))"])
def test_check_unknown_name_in_untaken_branch(capsys, query):
    code, out, err = run_cli(
        capsys, "check", TWO_TASKS, query, "--x-bound", "count=1")
    assert code == 2
    assert out == ""
    assert err == "error: unknown agent 'nobody' in at(...)\n"


def test_sweep_output(capsys):
    args = ("sweep", TWO_TASKS, "--time-bound", "5",
            "--indicator", "load=load", "--indicator", "big=load >= 2")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert "overall load=[1/4,18/5]" in out1
    assert "overall big=[0,1]" in out1
    assert len([l for l in out1.splitlines() if l.startswith("version")]) == 6
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_refuses_final_indicator(capsys):
    code, out, err = run_cli(capsys, "sweep", TWO_TASKS, "--indicator",
                             "done=final", "--x-bound", "count=1")
    assert code == 2
    assert out == ""
    assert err == "error: 'final' is not available in an indicator\n"


def test_sweep_requires_indicator(capsys):
    code, _, err = run_cli(capsys, "sweep", TWO_TASKS, "--time-bound", "5")
    assert code == 2
    assert "indicator" in err


def test_petri_check(capsys):
    code, out, _ = run_cli(
        capsys, "petri-check", TWO_TASKS, "--x-bound", "count=1",
        "--format", "machine")
    assert code == 0
    assert out.startswith("equivalence equal=true")


def test_petri_check_dump_net(capsys):
    code, out, _ = run_cli(
        capsys, "petri-check", TWO_TASKS, "--x-bound", "count=1", "--dump-net")
    assert code == 0
    assert "transition early_a [task]" in out
    assert "model and net agree" in out
    # the x bound is read when the check explores; an error prints no net
    assert run_cli(capsys, "petri-check", TWO_TASKS, "--x-bound", "count=abc",
                   "--dump-net") == (
        2, "", "error: x bound of 'count': cannot read a rational from 'abc'\n")


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["conquer", TWO_TASKS])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["check", TWO_TASKS, "EF load >= 2", "--strategy", "depth"])


# two_tasks with the load effect of halve as a flat sum of 1501 terms, and
# as a 1500-term sum scaled past the magnitude cap by its fifth factor
LONG_HALVE = "load / 2" + " + 1 - 1" * 750
OVERFLOW_HALVE = "(load" + " + 0" * 1499 + ")" + (" * 1" + "0" * 4000) * 5


def halve_model(tmp_path, text):
    data = json.loads(Path(TWO_TASKS).read_text(encoding="utf-8"))
    data["transforms"]["halve"]["load"] = text
    path = tmp_path / "halve.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_petri_check_long_flat_sum(capsys, tmp_path):
    # the net's interpreter walks the sum's left side in a loop, so the
    # cross-check answers instead of dying in a RecursionError
    path = halve_model(tmp_path, LONG_HALVE)
    dist, _, _ = oracle.build_graph(oracle.RawModel(path), "original",
                                    {"count": Fraction(1)})
    code, out, err = run_cli(capsys, "petri-check", path, "--x-bound", "count=1",
                             "--semantics", "original", "--format", "machine")
    assert (code, err) == (0, "")
    assert out == f'equivalence equal=true states_checked={len(dist)} detail=""\n'


@pytest.mark.parametrize("command", ["explore", "petri-check"])
def test_overflow_in_long_sum_is_one_error_line(capsys, tmp_path, command):
    # the message renders the overflowing product, the sum inside it too
    path = halve_model(tmp_path, OVERFLOW_HALVE)
    code, out, err = run_cli(capsys, command, path, "--x-bound", "count=1",
                             "--semantics", "original")
    assert (code, out) == (2, "")
    assert err == f"error: value in {OVERFLOW_HALVE} exceeds 65536 bits\n"
