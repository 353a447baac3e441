"""The benchmark's workloads, their inputs and the oracle gate.

A workload is a list of CLI jobs that run one after another.  What each
job must print comes from tests/oracle.py, which shares no code with
src/, and is computed before anything is timed.  The program under test
only ever sees the generated command lines.
"""

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

FIXTURES = "src/maptmc/fixtures"
TWO_TASKS = f"{FIXTURES}/two_tasks.json"
VEHICLES = f"{FIXTURES}/vehicles.json"

OPS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
       ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Space:
    """One bounded state space: a fixture, a semantics and an X bound."""

    model: str
    semantics: str
    x_bound: tuple      # ((component, bound), ...)

    def args(self):
        out = [self.model, "--semantics", self.semantics]
        for name, value in self.x_bound:
            out += ["--x-bound", f"{name}={value}"]
        return out


@dataclass
class Job:
    name: str
    argv: list
    space: Space
    expect: dict        # what the gate compares the output with


class Oracle:
    """Oracle graphs, built once per space and run."""

    def __init__(self):
        self._raw = {}
        self._graphs = {}
        self._ctl = {}

    def raw(self, path):
        if path not in self._raw:
            self._raw[path] = oracle.RawModel(path)
        return self._raw[path]

    def _bound(self, space):
        return {n: Fraction(v) for n, v in space.x_bound}

    def graph(self, space):
        """(dist, edges, finals) of the bounded space."""
        if space not in self._graphs:
            self._graphs[space] = oracle.build_graph(
                self.raw(space.model), space.semantics, self._bound(space))
        return self._graphs[space]

    def ctl(self, space):
        if space not in self._ctl:
            self._ctl[space] = oracle.CtlGraph(
                self.raw(space.model), space.semantics, self._bound(space))
        return self._ctl[space]

    def size(self, space):
        if space in self._ctl:
            return len(self._ctl[space].states)
        return len(self.graph(space)[0])


def _frac_text(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def explore_job(orc, name, space):
    dist, edges, finals = orc.graph(space)
    return Job(name, ["explore", *space.args(), "--format", "machine"], space,
               {"states": len(dist), "edges": len(edges), "finals": len(finals)})


def check_job(orc, name, space, form, text, atoms):
    return Job(name, ["check", *space.args(), text, "--format", "machine"], space,
               {"verdict": orc.ctl(space).holds(form, *atoms)})


# explore-accel


def _explore_accel(rng, orc):
    return [
        explore_job(orc, "explore two_tasks count=7",
                    Space(TWO_TASKS, "accelerated", (("count", 7),))),
        explore_job(orc, "explore vehicles pos=20",
                    Space(VEHICLES, "accelerated", (("pos_a", 20), ("pos_b", 20)))),
    ]


# crosscheck-original


def _crosscheck_original(rng, orc):
    net_space = Space(TWO_TASKS, "original", (("count", 6),))
    petri = Job("petri-check two_tasks count=6 original",
                ["petri-check", *net_space.args(), "--format", "machine"], net_space,
                {"states_checked": orc.size(net_space)})
    sweep_space = Space(TWO_TASKS, "original", (("count", 5),))
    raw = orc.raw(TWO_TASKS)
    load = raw.comp_names.index("load")
    clock_a = [a["name"] for a in raw.agents].index("task_a")
    states = orc.graph(sweep_space)[0]
    overall = {}
    for ind, pick in (("load", lambda s: s[2][load]),
                      ("clock_a", lambda s: Fraction(s[1][clock_a]))):
        values = [pick(s) for s in states]
        overall[ind] = (min(values), max(values))
    sweep = Job("sweep two_tasks count=5 original",
                ["sweep", *sweep_space.args(), "--indicator", "load=load",
                 "--indicator", "clock_a=clock(task_a)", "--format", "machine"],
                sweep_space, {"overall": overall})
    return [petri, sweep]


# check-mix
#
# Every seed poses the same query shapes; the seed draws the atoms.  Each
# shape fixes how much of the space a correct checker must visit, so
# seeds differ in what they ask, not in how much work it takes:
#   I  holds on every state of the bounded space (oracle-checked)
#   N  holds on no state (oracle-checked)
#   E  a progress atom x >= v, false at the start and reached on every run
#   A  any atom
# AG, the nested EF-never and leads-to-invariant shapes visit the whole
# space (and show re-expansion); EF, EG, AF and EF-EG stop at an early
# witness.

PLAN = (
    ("EF", "EF ({0})", "E"),
    ("EG", "EG ({0})", "I"),
    ("AF", "AF ({0})", "E"),
    ("AG", "AG ({0})", "I"),
    ("EFEF", "EF (({0}) && EF ({1}))", "IN"),
    ("EFEG", "EF (({0}) && EG ({1}))", "EI"),
    ("LEADSTO", "({0}) --> ({1})", "AI"),
)


class Atom:
    """A comparison on one coordinate of a state: part 0 holds the
    localities, 1 the clocks and 2 the component values."""

    def __init__(self, text, part, index, test):
        self.text = text
        self.part = part
        self.index = index
        self.test = test

    def __call__(self, m, s, final):
        return self.test(s[self.part][self.index])


def _random_atom(rng, raw, values):
    kind = rng.choice(("comp", "comp", "clock", "at"))
    if kind == "comp":
        i = rng.randrange(len(raw.comp_names))
        op = rng.choice(sorted(OPS))
        seen = sorted(values[2, i])
        thr = rng.choice(seen + [seen[0] - 1, seen[-1] + 1])
        return Atom(f"{raw.comp_names[i]} {op} {_frac_text(thr)}", 2, i,
                    lambda v, o=OPS[op], t=thr: o(v, t))
    i = rng.randrange(len(raw.agents))
    agent = raw.agents[i]
    if kind == "clock":
        op = rng.choice(sorted(OPS))
        k = rng.randint(0, agent["period"] + 1)
        return Atom(f"clock({agent['name']}) {op} {k}", 1, i,
                    lambda v, o=OPS[op], k=k: o(v, k))
    loc = rng.choice(agent["locs"])
    return Atom(f"at({agent['name']}, {loc})", 0, i, lambda v, loc=loc: v == loc)


def _progress_atom(rng, raw, values):
    name = rng.choice(raw.x_names)
    i = raw.comp_names.index(name)
    thr = rng.choice(sorted(values[2, i])[1:3])
    return Atom(f"{name} >= {_frac_text(thr)}", 2, i, lambda v, t=thr: v >= t)


def _query_jobs(rng, orc, space, tag):
    raw = orc.raw(space.model)
    graph = orc.ctl(space)
    values = {}
    for s in graph.states:
        for part in range(3):
            for i, v in enumerate(s[part]):
                values.setdefault((part, i), set()).add(v)
    everywhere, nowhere = [], []
    while len(everywhere) < 4 or not nowhere:
        atom = _random_atom(rng, raw, values)
        hits = sum(map(atom.test, values[atom.part, atom.index]))
        if hits == len(values[atom.part, atom.index]):
            everywhere.append(atom)
        elif hits == 0:
            nowhere.append(atom)
    draw = {"I": lambda: rng.choice(everywhere), "N": lambda: rng.choice(nowhere),
            "E": lambda: _progress_atom(rng, raw, values),
            "A": lambda: _random_atom(rng, raw, values)}
    jobs = []
    for form, template, classes in PLAN:
        atoms = [draw[c]() for c in classes]
        text = template.format(*(a.text for a in atoms))
        jobs.append(check_job(orc, f"check {form} {tag}", space, form, text, atoms))
    return jobs


def _check_mix(rng, orc):
    return (_query_jobs(rng, orc, Space(TWO_TASKS, "accelerated", (("count", 5),)),
                        "two_tasks count=5")
            + _query_jobs(rng, orc, Space(VEHICLES, "accelerated",
                                          (("pos_a", 12), ("pos_b", 12))),
                          "vehicles pos=12"))


BUILDERS = {
    "explore-accel": _explore_accel,
    "check-mix": _check_mix,
    "crosscheck-original": _crosscheck_original,
}


def build(workload, seed, orc=None):
    """The workload's jobs with their oracle expectations, and the number of
    distinct states in the bounded spaces the jobs pose."""
    orc = orc or Oracle()
    jobs = BUILDERS[workload](random.Random(f"{workload}:{seed}"), orc)
    return jobs, sum(orc.size(job.space) for job in jobs)


# the gate


def _fields(line):
    return dict(item.split("=", 1) for item in line.split()[1:])


def record(out, kind):
    for line in out.splitlines():
        if line.startswith(kind + " "):
            return _fields(line)
    raise ValueError(f"no '{kind}' line in the output")


def _interval(text):
    lo, hi = text.strip("[]").split(",")
    return (Fraction(lo), Fraction(hi))


def gate(job, rc, out):
    """None when the job's output agrees with the oracle, else the reason."""
    cmd = job.argv[0]
    try:
        if cmd == "explore":
            rec = record(out, "explored")
            got = {k: int(rec[k]) for k in ("states", "edges", "finals")}
            ok = rc == 0 and got == job.expect
        elif cmd == "check":
            got = record(out, "verdict")["value"] == "true"
            ok = got == job.expect["verdict"] and rc == (0 if got else 1)
        elif cmd == "petri-check":
            rec = record(out, "equivalence")
            got = (rec["equal"], int(rec["states_checked"]))
            ok = rc == 0 and got == ("true", job.expect["states_checked"])
        else:
            got = {}
            for line in out.splitlines():
                if line.startswith("overall "):
                    name, _, span = line[len("overall "):].partition("=")
                    got[name] = _interval(span)
            ok = rc == 0 and got == job.expect["overall"]
    except (ValueError, KeyError) as e:
        return f"{job.name}: unreadable output ({e})"
    if ok:
        return None
    return f"{job.name}: exit {rc}, got {got!r}, oracle says {job.expect!r}"
