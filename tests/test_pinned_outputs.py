"""Full `--format machine` output of check, sweep and petri-check, pinned.

The exploring loops may be restructured, but no verdict, CheckStats count,
state count or output line may change: the lines below are what the
commands print, byte for byte.  CHECKS holds, per query and
semantics, the check line under layered-dfs, under width and under
layered-dfs with an empty strong set.

The one allowed direction of change is down, for the layered-dfs counts
(the first column of CHECKS, and HEURISTIC): a layered-dfs check walks
each state at most once unmarked and once marked, so its states_expanded
is at most twice the bounded space's size, and equals that size when the
query visits the whole space (`AG lane_b <= 1` expands the
petri-check states_checked count, 1204 or 703).  Those counts may fall
towards that invariant; no verdict may change.
"""

import shlex

import pytest

from maptmc import cli
from maptmc.fixtures import fixture_path

PATHS = {
    "two_tasks": str(fixture_path("two_tasks.json")),
    "staged": str(fixture_path("staged_cycles.json")),
    "vehicles": str(fixture_path("vehicles.json")),
}
BOUNDS = {
    "two_tasks": ["--x-bound", "count=2"],
    "staged": ["--x-bound", "cycles=2"],
    "vehicles": ["--x-bound", "pos_a=8", "--x-bound", "pos_b=8"],
}
VARIANTS = ([], ["--strategy", "width"], ["--strong-set", ""])
DISTANCE = ["--heuristic", "distance", "--heuristic-arg", "ahead=pos_a",
            "--heuristic-arg", "behind=pos_b"]


def machine_lines(capsys, fixture, command, *args):
    cli.main([command, PATHS[fixture], *args, "--format", "machine"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()


CHECKS = [
    ("two_tasks", "EF load > 4", "original", (
        "true states_expanded=57 borders_crossed=2 clusters_formed=5 peak_frontier=5",
        "true states_expanded=59 borders_crossed=0 clusters_formed=0 peak_frontier=18",
        "true states_expanded=59 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "EF load > 4", "accelerated", (
        "true states_expanded=42 borders_crossed=2 clusters_formed=5 peak_frontier=5",
        "true states_expanded=53 borders_crossed=0 clusters_formed=0 peak_frontier=16",
        "true states_expanded=49 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "AG load <= 18/5", "original", (
        "false states_expanded=57 borders_crossed=2 clusters_formed=5 peak_frontier=5",
        "false states_expanded=53 borders_crossed=0 clusters_formed=0 peak_frontier=16",
        "false states_expanded=56 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "AG load <= 18/5", "accelerated", (
        "false states_expanded=42 borders_crossed=2 clusters_formed=5 peak_frontier=5",
        "false states_expanded=47 borders_crossed=0 clusters_formed=0 peak_frontier=16",
        "false states_expanded=46 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "EG load >= 1/2", "original", (
        "true states_expanded=24 borders_crossed=1 clusters_formed=4 peak_frontier=4",
        "true states_expanded=42 borders_crossed=0 clusters_formed=0 peak_frontier=12",
        "true states_expanded=42 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "EG load >= 1/2", "accelerated", (
        "true states_expanded=18 borders_crossed=1 clusters_formed=4 peak_frontier=4",
        "true states_expanded=30 borders_crossed=0 clusters_formed=0 peak_frontier=7",
        "true states_expanded=33 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "EF (count >= 1 && EF load > 7)", "original", (
        "true states_expanded=100 borders_crossed=5 clusters_formed=5 peak_frontier=5",
        "true states_expanded=59 borders_crossed=0 clusters_formed=0 peak_frontier=18",
        "true states_expanded=62 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "EF (count >= 1 && EF load > 7)", "accelerated", (
        "true states_expanded=74 borders_crossed=5 clusters_formed=5 peak_frontier=5",
        "true states_expanded=53 borders_crossed=0 clusters_formed=0 peak_frontier=16",
        "true states_expanded=52 borders_crossed=1 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "count >= 1 --> load < 9", "original", (
        "true states_expanded=112 borders_crossed=6 clusters_formed=5 peak_frontier=5",
        "true states_expanded=112 borders_crossed=0 clusters_formed=0 peak_frontier=20",
        "true states_expanded=112 borders_crossed=2 clusters_formed=1 peak_frontier=1",
    )),
    ("two_tasks", "count >= 1 --> load < 9", "accelerated", (
        "true states_expanded=82 borders_crossed=6 clusters_formed=5 peak_frontier=5",
        "true states_expanded=82 borders_crossed=0 clusters_formed=0 peak_frontier=17",
        "true states_expanded=82 borders_crossed=2 clusters_formed=1 peak_frontier=1",
    )),
    ("staged", "AF cycles >= 2", "original", (
        "true states_expanded=71 borders_crossed=1 clusters_formed=0 peak_frontier=1",
        "true states_expanded=71 borders_crossed=0 clusters_formed=0 peak_frontier=6",
        "true states_expanded=71 borders_crossed=1 clusters_formed=0 peak_frontier=1",
    )),
    ("staged", "AF cycles >= 2", "accelerated", (
        "true states_expanded=34 borders_crossed=1 clusters_formed=0 peak_frontier=1",
        "true states_expanded=34 borders_crossed=0 clusters_formed=0 peak_frontier=5",
        "true states_expanded=34 borders_crossed=1 clusters_formed=0 peak_frontier=1",
    )),
    ("staged", "EF (at(stage_b, b3) && EG cycles <= 1)", "original", (
        "false states_expanded=72 borders_crossed=1 clusters_formed=0 peak_frontier=1",
        "false states_expanded=72 borders_crossed=0 clusters_formed=0 peak_frontier=7",
        "false states_expanded=72 borders_crossed=1 clusters_formed=0 peak_frontier=1",
    )),
    ("staged", "EF (at(stage_b, b3) && EG cycles <= 1)", "accelerated", (
        "false states_expanded=36 borders_crossed=1 clusters_formed=0 peak_frontier=1",
        "false states_expanded=36 borders_crossed=0 clusters_formed=0 peak_frontier=5",
        "false states_expanded=36 borders_crossed=1 clusters_formed=0 peak_frontier=1",
    )),
    ("vehicles", "AG lane_b <= 1", "original", (
        "true states_expanded=1204 borders_crossed=39 clusters_formed=38 peak_frontier=10",
        "true states_expanded=1204 borders_crossed=0 clusters_formed=0 peak_frontier=155",
        "true states_expanded=1204 borders_crossed=4 clusters_formed=3 peak_frontier=1",
    )),
    ("vehicles", "AG lane_b <= 1", "accelerated", (
        "true states_expanded=703 borders_crossed=39 clusters_formed=38 peak_frontier=10",
        "true states_expanded=703 borders_crossed=0 clusters_formed=0 peak_frontier=92",
        "true states_expanded=703 borders_crossed=4 clusters_formed=3 peak_frontier=1",
    )),
    ("vehicles", "EF pos_a >= 8", "original", (
        "true states_expanded=130 borders_crossed=3 clusters_formed=12 peak_frontier=10",
        "true states_expanded=344 borders_crossed=0 clusters_formed=0 peak_frontier=114",
        "true states_expanded=376 borders_crossed=2 clusters_formed=2 peak_frontier=1",
    )),
    ("vehicles", "EF pos_a >= 8", "accelerated", (
        "true states_expanded=76 borders_crossed=3 clusters_formed=12 peak_frontier=10",
        "true states_expanded=238 borders_crossed=0 clusters_formed=0 peak_frontier=86",
        "true states_expanded=263 borders_crossed=2 clusters_formed=2 peak_frontier=1",
    )),
]

HEURISTIC = [
    ("AG lane_b <= 1", "original", "true states_expanded=1204 borders_crossed=39 clusters_formed=38 peak_frontier=12"),
    ("AG lane_b <= 1", "accelerated", "true states_expanded=703 borders_crossed=39 clusters_formed=38 peak_frontier=12"),
    ("EF pos_a >= 8", "original", "true states_expanded=84 borders_crossed=2 clusters_formed=8 peak_frontier=7"),
    ("EF pos_a >= 8", "accelerated", "true states_expanded=50 borders_crossed=2 clusters_formed=8 peak_frontier=7"),
]

OTHER = [
    ("two_tasks", "sweep --semantics original --x-bound count=1 --indicator load=load --indicator ca=clock(task_a)", (
        "version localities=a_end,b_end clocks=1,1 values=load=1/2,count=1 load=[1/4,1/2] ca=[0,1]",
        "version localities=a_end,b_end clocks=2,2 values=load=1/2,count=1 load=[1/4,1/2] ca=[0,2]",
        "version localities=a_end,b_end clocks=3,3 values=load=31/20,count=1 load=[1/4,31/20] ca=[0,3]",
        "version localities=a_end,b_end clocks=3,3 values=load=23/10,count=1 load=[1/2,23/10] ca=[0,3]",
        "version localities=a_end,b_start clocks=1,1 values=load=1,count=1 load=[1/2,1] ca=[0,1]",
        "version localities=a_end,b_start clocks=2,2 values=load=1,count=1 load=[1/2,1] ca=[0,2]",
        "version localities=a_end,b_start clocks=3,3 values=load=9/5,count=1 load=[1/2,9/5] ca=[0,3]",
        "overall load=[1/4,23/10]",
        "overall ca=[0,3]",
    )),
    ("two_tasks", "sweep --semantics accelerated --x-bound count=1 --indicator load=load --indicator ca=clock(task_a)", (
        "version localities=a_end,b_end clocks=2,2 values=load=1/2,count=1 load=[1/4,1/2] ca=[0,2]",
        "version localities=a_end,b_end clocks=3,3 values=load=31/20,count=1 load=[1/4,31/20] ca=[0,3]",
        "version localities=a_end,b_end clocks=3,3 values=load=23/10,count=1 load=[1/2,23/10] ca=[0,3]",
        "version localities=a_end,b_start clocks=2,2 values=load=1,count=1 load=[1/2,1] ca=[0,2]",
        "version localities=a_end,b_start clocks=3,3 values=load=9/5,count=1 load=[1/2,9/5] ca=[0,3]",
        "overall load=[1/4,23/10]",
        "overall ca=[0,3]",
    )),
    ("staged", "sweep --semantics original --x-bound cycles=2 --indicator c=cycles --indicator b=at(stage_b,b1)", (
        "version localities=a2,b0 clocks=6,1 values=cycles=2 c=[0,2] b=[0,1]",
        "version localities=a2,b0 clocks=7,2 values=cycles=2 c=[0,2] b=[0,1]",
        "version localities=a2,b0 clocks=8,3 values=cycles=2 c=[0,2] b=[0,1]",
        "version localities=a2,b1 clocks=6,1 values=cycles=2 c=[0,2] b=[0,1]",
        "version localities=a2,b1 clocks=7,2 values=cycles=2 c=[0,2] b=[0,1]",
        "version localities=a2,b1 clocks=8,3 values=cycles=2 c=[0,2] b=[0,1]",
        "overall c=[0,2]",
        "overall b=[0,1]",
    )),
    ("staged", "sweep --semantics accelerated --x-bound cycles=2 --indicator c=cycles --indicator b=at(stage_b,b1)", (
        "version localities=a2,b0 clocks=8,3 values=cycles=2 c=[0,2] b=[0,1]",
        "version localities=a2,b1 clocks=8,3 values=cycles=2 c=[0,2] b=[0,1]",
        "overall c=[0,2]",
        "overall b=[0,1]",
    )),
    ("two_tasks", "petri-check --semantics original --x-bound count=2", (
        'equivalence equal=true states_checked=112 detail=""',
    )),
    ("two_tasks", "petri-check --semantics accelerated --x-bound count=2", (
        'equivalence equal=true states_checked=82 detail=""',
    )),
    ("staged", "petri-check --semantics original --x-bound cycles=2", (
        'equivalence equal=true states_checked=71 detail=""',
    )),
    ("staged", "petri-check --semantics accelerated --x-bound cycles=2", (
        'equivalence equal=true states_checked=34 detail=""',
    )),
    ("vehicles", "petri-check --semantics original --x-bound pos_a=8 --x-bound pos_b=8", (
        'equivalence equal=true states_checked=1204 detail=""',
    )),
    ("vehicles", "petri-check --semantics accelerated --x-bound pos_a=8 --x-bound pos_b=8", (
        'equivalence equal=true states_checked=703 detail=""',
    )),
]


@pytest.mark.parametrize("fixture,query,semantics,lines", CHECKS,
                         ids=[f"{f}-{q}-{s}" for f, q, s, _ in CHECKS])
def test_check_lines(capsys, fixture, query, semantics, lines):
    for extra, line in zip(VARIANTS, lines):
        got = machine_lines(capsys, fixture, "check", query, "--semantics", semantics,
                            *BOUNDS[fixture], *extra)
        assert got == [f"verdict value={line}"], extra


@pytest.mark.parametrize("query,semantics,line", HEURISTIC,
                         ids=[f"{q}-{s}" for q, s, _ in HEURISTIC])
def test_check_line_with_heuristic(capsys, query, semantics, line):
    got = machine_lines(capsys, "vehicles", "check", query, "--semantics", semantics,
                        *BOUNDS["vehicles"], *DISTANCE)
    assert got == [f"verdict value={line}"]


@pytest.mark.parametrize("fixture,args,lines", OTHER,
                         ids=[f"{f}-{a}" for f, a, _ in OTHER])
def test_sweep_and_petri_check_lines(capsys, fixture, args, lines):
    command, *rest = shlex.split(args)
    assert machine_lines(capsys, fixture, command, *rest) == list(lines)
