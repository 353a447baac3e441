"""Acceptance suite: ten end-to-end checks, one test and one report line each.

Every test prints 'ACCEPTANCE n: PASS' or 'ACCEPTANCE n: FAIL' so a plain
run gives a one-line verdict per criterion next to the pytest outcome.
"""

import operator
import random
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

from maptmc import layers, mc, petri, semantics as sem
from maptmc.layers import CutSpec
from maptmc.model import lcm_periods
from maptmc.semantics import Delay, Fire, Reset

from conftest import scale_timing
import oracle


@contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL")
        raise
    print(f"ACCEPTANCE {n}: PASS")


def plain_word(word):
    return tuple(
        ("fire", e.transition) if isinstance(e, Fire) else ("reset", e.agent)
        for e in word
    )


def plain_states(states):
    return {(s.localities, s.clocks, s.values) for s in states}


def value(m, s, name):
    return s.values[m.component_names.index(name)]


END = ("a_end", "b_end")
ONE = Fraction(1)
SIX_WORDS = {
    (Fire("early_a"), Fire("early_b")): (END, (Fraction(1, 2), ONE)),
    (Fire("early_b"), Fire("early_a")): (END, (Fraction(1, 2), ONE)),
    (Fire("early_a"), Fire("late_b")): (END, (Fraction(2), ONE)),
    (Fire("early_b"), Fire("late_a")): (END, (Fraction(31, 20), ONE)),
    (Fire("late_a"), Fire("late_b")): (END, (Fraction(18, 5), ONE)),
    (Fire("late_b"), Fire("late_a")): (END, (Fraction(23, 10), ONE)),
}

FIVE_LOADS = {
    Fraction(1, 2), Fraction(31, 20), Fraction(2), Fraction(23, 10), Fraction(18, 5),
}


def test_criterion_01_word_equality(two_tasks, staged, raw_two_tasks, raw_staged):
    """Delay-free words agree across semantics and with the oracle walk."""
    with criterion(1):
        first_layer = sem.abstract_reachable(two_tasks, "original", time_bound=4)
        assert first_layer == SIX_WORDS
        cases = [
            (two_tasks, raw_two_tasks, 5, 12),
            (staged, raw_staged, 30, 972),
        ]
        for m, raw, tb, count in cases:
            original = sem.abstract_reachable(m, "original", time_bound=tb)
            accelerated = sem.abstract_reachable(m, "accelerated", time_bound=tb)
            assert original == accelerated
            assert len(original) == count
            expected = oracle.words(raw, "original", time_bound=tb)
            assert {plain_word(w): lab for w, lab in original.items()} == expected


def test_criterion_02_net_equivalence(two_tasks, staged):
    """The net translation bisimulates the model, and corruption is caught."""
    with criterion(2):
        for m, bound in ((two_tasks, {"count": 1}), (staged, {"cycles": 3})):
            for semantics in ("original", "accelerated"):
                res = petri.state_space_equiv(m, bound, semantics)
                assert res.equal and res.states_checked > 0
        net = petri.translate(two_tasks)
        net.transitions["early_a"].guard = lambda mk: False
        res = petri.state_space_equiv(two_tasks, {"count": 1}, net=net)
        assert not res.equal
        assert "early_a" in res.detail


def test_criterion_03_acceleration_scaling(staged):
    """Acceleration shrinks the graph and absorbs interval scaling."""
    with criterion(3):
        base_orig = sem.explore(staged, "original", time_bound=30)
        base_accel = sem.explore(staged, "accelerated", time_bound=30)
        assert len(base_orig.states) == 116
        assert len(base_accel.states) == 58
        assert len(base_accel.states) < len(base_orig.states)

        k = 10
        big = scale_timing(staged, k)
        big_orig = sem.explore(big, "original", time_bound=30 * k)
        big_accel = sem.explore(big, "accelerated", time_bound=30 * k)
        assert len(big_orig.states) == 872
        assert len(big_orig.states) > len(base_orig.states)
        assert len(big_accel.states) == len(base_accel.states)

        def shrink_state(s, div):
            return (s.localities, tuple(c // div for c in s.clocks),
                    s.values)

        assert {shrink_state(s, k) for s in big_accel.states} == \
            plain_states(base_accel.states)

        def label(e, scale):
            if isinstance(e, Delay):
                return f"+{e.amount // scale}"
            return sem.event_label(e)

        big_edges = {(shrink_state(s, k), label(e, k), shrink_state(t, k))
                     for s, e, t in big_accel.edges}
        base_edges = {(shrink_state(s, 1), label(e, 1), shrink_state(t, 1))
                      for s, e, t in base_accel.edges}
        assert big_edges == base_edges


def test_criterion_04_cut_offsets(two_tasks, staged, raw_two_tasks, raw_staged):
    """Emitted cuts are exactly the offsets every run must pass through."""
    with criterion(4):
        for m, raw in ((two_tasks, raw_two_tasks), (staged, raw_staged)):
            horizon = lcm_periods(m)
            valid = oracle.cut_times(raw, horizon)
            cuts = layers.find_cuts(m)
            assert {c.t for c in cuts} == set(valid)
            for cut in cuts:
                for i, pair in enumerate(zip(cut.localities, cut.clocks)):
                    assert pair in valid[cut.t][i]
        staged_ts = {c.t for c in layers.find_cuts(staged)}
        assert 19 in staged_ts
        assert 7 not in staged_ts
        assert 7 not in oracle.cut_times(raw_staged, 30)


def test_criterion_05_border_repetition(staged):
    """Accelerated walks enter the cut at 4 or 5 and leave it at 7, and the
    border pattern repeats with the change per hyperperiod."""
    with criterion(5):
        cut5 = (CutSpec(5, ("a1", "b1"), (5, 5)),)
        s0 = sem.initial_state(staged)

        original = layers.next_border(staged, cut5, s0, "original")
        assert plain_states(original) == {(("a1", "b1"), (5, 5), (Fraction(0),))}

        visited = []
        border = layers.next_border(staged, cut5, s0, "accelerated",
                                    visitor=visited.append)
        entries = {s.clocks for s in visited if s.localities == ("a1", "b1")}
        assert entries == {(4, 4), (5, 5)}
        assert plain_states(border) == {(("a1", "b1"), (7, 7), (Fraction(0),))}

        expected_cycles = Fraction(0)
        for _ in range(2):
            expected_cycles += 3
            step = set()
            for s in border:
                step |= layers.next_border(staged, cut5, s, "accelerated")
            assert plain_states(step) == \
                {(("a1", "b1"), (7, 7), (expected_cycles,))}
            border = step


def test_criterion_06_border_valuations(two_tasks, raw_two_tasks):
    """The first border carries exactly the five first-period valuations and
    any clustering of the walk reassembles it."""
    with criterion(6):
        cut4 = (CutSpec(4, ("a_end", "b_end"), (4, 4)),)
        s0 = sem.initial_state(two_tasks)
        whole = layers.next_border(two_tasks, cut4, s0, "original")
        expected = oracle.border_first_hit(
            raw_two_tasks, (("a_end", "b_end"), (4, 4)), "original")
        assert plain_states(whole) == expected
        assert {value(two_tasks, s, "load") for s in whole} == FIVE_LOADS
        assert {value(two_tasks, s, "count") for s in whole} == {ONE}

        accelerated = layers.next_border(two_tasks, cut4, s0, "accelerated")
        assert {value(two_tasks, s, "load") for s in accelerated} == FIVE_LOADS

        merged = layers.clustered_next_border(two_tasks, cut4, [s0], "original",
                                              strong_set=())
        assert merged == (whole,)
        for strong_set in (None, {"count"}, {"load"}):
            groups = layers.clustered_next_border(
                two_tasks, cut4, [s0], "original", strong_set=strong_set)
            assert frozenset().union(*groups) == whole


OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def _frac_text(f):
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _value_pools(raw, x_bound):
    dist, _, _ = oracle.build_graph(raw, "accelerated", x_bound=x_bound)
    pools = {}
    for idx, name in enumerate(raw.comp_names):
        seen = sorted({s[2][idx] for s in dist})
        pools[name] = seen + [seen[-1] + 1]
    return pools


def _atom(rng, m, raw, pools):
    kind = rng.choice(("comp", "comp", "comp", "clock", "at", "final"))
    if kind == "comp":
        idx = rng.randrange(len(raw.comp_names))
        name = raw.comp_names[idx]
        op = rng.choice(sorted(OPS))
        thr = rng.choice(pools[name])
        text = f"{name} {op} {_frac_text(thr)}"
        return text, lambda mm, s, fin, i=idx, o=OPS[op], t=thr: o(s[2][i], t)
    if kind == "clock":
        i = rng.randrange(len(m.agents))
        agent = m.agents[i]
        op = rng.choice(sorted(OPS))
        k = rng.randint(0, agent.reset_period)
        text = f"clock({agent.name}) {op} {k}"
        return text, lambda mm, s, fin, i=i, o=OPS[op], k=k: o(s[1][i], k)
    if kind == "at":
        i = rng.randrange(len(m.agents))
        agent = m.agents[i]
        loc = rng.choice(agent.localities)
        return (f"at({agent.name}, {loc})",
                lambda mm, s, fin, i=i, loc=loc: s[0][i] == loc)
    return "final", lambda mm, s, fin: fin


def _predicate(rng, m, raw, pools):
    shape = rng.choice(("atom", "atom", "not", "and", "or"))
    t1, f1 = _atom(rng, m, raw, pools)
    if shape == "atom":
        return t1, f1
    if shape == "not":
        return f"!({t1})", lambda mm, s, fin, f=f1: not f(mm, s, fin)
    t2, f2 = _atom(rng, m, raw, pools)
    if shape == "and":
        return (f"({t1} && {t2})",
                lambda mm, s, fin, a=f1, b=f2: a(mm, s, fin) and b(mm, s, fin))
    return (f"({t1} || {t2})",
            lambda mm, s, fin, a=f1, b=f2: a(mm, s, fin) or b(mm, s, fin))


FORM_TEMPLATES = [
    ("EF", "EF ({p})"),
    ("EG", "EG ({p})"),
    ("AF", "AF ({p})"),
    ("AG", "AG ({p})"),
    ("EFEF", "EF (({p}) && EF ({q}))"),
    ("EFEG", "EF (({p}) && EG ({q}))"),
    ("LEADSTO", "({p}) --> ({q})"),
]


def test_criterion_07_ctl_against_naive(two_tasks, staged, raw_two_tasks,
                                        raw_staged):
    """Seeded query sweep against an independent fixpoint evaluator, plus
    the negation dualities, must agree on every single query."""
    with criterion(7):
        rng = random.Random(20260823)
        verdicts_seen = set()
        cases = [
            (two_tasks, raw_two_tasks, {"count": 2}),
            (staged, raw_staged, {"cycles": 3}),
        ]
        for m, raw, x_bound in cases:
            pools = _value_pools(raw, x_bound)
            graph = oracle.CtlGraph(raw, "accelerated", x_bound=x_bound)
            preds = [_predicate(rng, m, raw, pools) for _ in range(12)]
            checked = 0
            for form, template in FORM_TEMPLATES:
                for _ in range(4):
                    tp, fp = rng.choice(preds)
                    tq, fq = rng.choice(preds)
                    text = template.format(p=tp, q=tq)
                    if form in ("EFEF", "EFEG", "LEADSTO"):
                        expected = graph.holds(form, fp, fq)
                    else:
                        expected = graph.holds(form, fp)
                    layered = mc.check(m, text, x_bound=x_bound).verdict
                    width = mc.check(m, text, x_bound=x_bound,
                                     strategy="width").verdict
                    assert layered == expected, text
                    assert width == expected, text
                    verdicts_seen.add(expected)
                    checked += 1
            assert checked == 28

            for tp, _ in preds[:6]:
                ag = mc.check(m, f"AG ({tp})", x_bound=x_bound).verdict
                ef = mc.check(m, f"EF (!({tp}))", x_bound=x_bound).verdict
                assert ag == (not ef), tp
                af = mc.check(m, f"AF ({tp})", x_bound=x_bound).verdict
                eg = mc.check(m, f"EG (!({tp}))", x_bound=x_bound).verdict
                assert af == (not eg), tp
            for (tp, _), (tq, _) in zip(preds[:4], preds[4:8]):
                leads = mc.check(m, f"({tp}) --> ({tq})",
                                 x_bound=x_bound).verdict
                nested = mc.check(m, f"EF (({tp}) && EG (!({tq})))",
                                  x_bound=x_bound).verdict
                assert leads == (not nested), (tp, tq)
        assert verdicts_seen == {True, False}


HEURISTIC_SUITE = [
    ("EF (pos_a - pos_b >= 4)", "distance",
     {"ahead": "pos_a", "behind": "pos_b"}),
    ("EF (elapsed >= 16 && pos_b <= 10 && pos_a >= 12)", "estimated_travel_time",
     {"elapsed": "elapsed", "position": "pos_b", "speed": "speed_b", "goal": 20}),
    ("EF (pos_a >= pos_b + 2 && elapsed <= 16)", "time_to_overtake",
     {"lead_pos": "pos_b", "lead_speed": "speed_b",
      "chase_pos": "pos_a", "chase_speed": "speed_a"}),
]


def test_criterion_08_heuristic_suite(vehicles):
    """Verdicts never depend on the heuristic, and each matched heuristic
    beats the unguided layered walk on its own query."""
    with criterion(8):
        bound = {"pos_a": 20, "pos_b": 20}
        budget = 400_000
        registry = mc.builtin_heuristics()
        built = [registry[name](vehicles, **args)
                 for _, name, args in HEURISTIC_SUITE]

        unguided = []
        guided = []
        for row, (query, _, _) in enumerate(HEURISTIC_SUITE):
            baseline = mc.check(vehicles, query, x_bound=bound,
                                strategy="width", budget=budget)
            plain = mc.check(vehicles, query, x_bound=bound, budget=budget)
            assert plain.verdict is baseline.verdict
            unguided.append(plain.stats.states_expanded)
            for h_row, heuristic in enumerate(built):
                run = mc.check(vehicles, query, x_bound=bound,
                               heuristic=heuristic, budget=budget)
                assert run.verdict is baseline.verdict, (query, heuristic.name)
                if h_row == row:
                    guided.append(run.stats.states_expanded)

        for row in range(len(HEURISTIC_SUITE)):
            assert guided[row] < unguided[row]
        assert sum(guided) / len(guided) < sum(unguided) / len(unguided)


def test_criterion_09_indicator_sweep(two_tasks, raw_two_tasks):
    """Sweep envelopes equal the oracle extremes; boolean indicators agree
    with plain reachability."""
    with criterion(9):
        sw = mc.sweep_indicators(two_tasks, [("load", "load")], time_bound=5)
        assert len(sw.versions) == 6
        dist, _, _ = oracle.build_graph(raw_two_tasks, "accelerated",
                                        time_bound=5)
        idx = raw_two_tasks.comp_names.index("load")
        loads = [s[2][idx] for s in dist]
        assert sw.overall("load") == (min(loads), max(loads))
        assert sw.overall("load") == (Fraction(1, 4), Fraction(18, 5))

        against = mc.sweep_indicators(two_tasks, [("load", "load")],
                                      time_bound=5, semantics="original")
        assert against.overall("load") == sw.overall("load")

        bound = {"count": 1}
        flags = mc.sweep_indicators(
            two_tasks,
            [("reach2", "load >= 2"), ("reach4", "load >= 4")],
            x_bound=bound,
        )
        ef2 = mc.check(two_tasks, "EF load >= 2", x_bound=bound).verdict
        ef4 = mc.check(two_tasks, "EF load >= 4", x_bound=bound).verdict
        assert (flags.overall("reach2")[1] == 1) is ef2
        assert (flags.overall("reach4")[1] == 1) is ef4


def _has_cycle(states, edges):
    adj = defaultdict(list)
    for s, _, t in edges:
        adj[s].append(t)
    color = {}
    for root in states:
        if root in color:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    return True
                if nxt not in color:
                    color[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def test_criterion_10_coverage_acyclicity(two_tasks, staged):
    """Two hyperperiods exercise every transition and reset, and the bounded
    graph never revisits a state."""
    with criterion(10):
        for m in (two_tasks, staged):
            horizon = 2 * lcm_periods(m)
            needed = {t.id for a in m.agents for t in a.transitions}
            needed |= {f"reset_{a.name}" for a in m.agents}
            for semantics in ("original", "accelerated"):
                ex = sem.explore(m, semantics, time_bound=horizon)
                labels = {sem.event_label(e) for _, e, _ in ex.edges}
                assert needed <= labels
                assert not _has_cycle(ex.states, ex.edges)
