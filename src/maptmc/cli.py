"""Command line front end.

Subcommands: validate, explore, cuts, check, sweep, petri-check.  Exit
status is 0 for success or a true verdict, 1 for a false verdict (or
failed validation / detected divergence), 2 for any error.  With
--format machine every line is a single record of space-separated
key=value fields in a fixed order; set-valued output is sorted so runs
are byte-for-byte reproducible.
"""

import argparse
import inspect
import json
import sys

from . import layers, mc, petri
from . import semantics as sem
from .errors import MaptError
from .model import load_model, validate

DOT_NODE_CAP = 10_000


def _q(text):
    return json.dumps(text)


def _named_values(option, items):
    """NAME=VALUE items of option as a dict of stripped texts; an item with
    no value, or a name given twice, is an error."""
    out = {}
    for item in items:
        name, _, raw = item.partition("=")
        if not raw:
            raise MaptError(f"bad {option} entry {item!r}, expected name=value")
        name = name.strip()
        if name in out:
            raise MaptError(f"{option} name {name!r} is given twice")
        out[name] = raw.strip()
    return out


def _parse_x_bound(values):
    if not values:
        return None
    if len(values) == 1 and "=" not in values[0]:
        return values[0]
    return _named_values("--x-bound", values)


# type= converters: argparse catches only ValueError, TypeError and
# ArgumentTypeError from them, so a MaptError reaches main's handler.
def _name_set(text):
    """A comma list of names, for --strong-set and --weak-set."""
    return frozenset(x.strip() for x in text.split(",") if x.strip())


def _indicator(item):
    name, _, text = item.partition("=")
    if not text:
        raise MaptError(f"bad --indicator {item!r}, expected name=expr")
    return name.strip(), text


def _whole(option):
    """A whole number, 0 or more, for option (--budget, --time-bound)."""
    def convert(text):
        try:
            value = int(text)
            if value >= 0:
                return value
        except ValueError:
            pass
        raise MaptError(f"bad {option} value {text!r}, expected a whole number >= 0")
    return convert


def _state_fields(m, s):
    vals = ",".join(f"{n}={v}" for n, v in zip(m.component_names, s.values))
    return (f"localities={','.join(s.localities)} "
            f"clocks={','.join(str(c) for c in s.clocks)} values={vals}")


def _require_mapt(m, assume_acyclic):
    report = validate(m)
    live_ok = report.strongly_live
    acyc_ok = report.acyclic or assume_acyclic
    if not (live_ok and acyc_ok):
        reasons = [v.detail for v in report.liveness_violations]
        if not assume_acyclic:
            reasons += [v.detail for v in report.acyclicity_violations]
        raise MaptError("model is not a valid MAPT: " + "; ".join(reasons))


def _cmd_validate(args, m):
    report = validate(m)
    acyc_ok = report.acyclic or args.assume_acyclic
    if args.format == "machine":
        print(f"validation strongly_live={str(report.strongly_live).lower()} "
              f"acyclic={str(report.acyclic).lower()} "
              f"is_mapt={str(report.strongly_live and acyc_ok).lower()}")
        for v in report.liveness_violations:
            print(f"liveness-violation agent={v.agent} locality={v.locality} "
                  f"clause={v.clause} detail={_q(v.detail)}")
        for v in report.acyclicity_violations:
            print(f"acyclicity-violation kind={v.kind} detail={_q(v.detail)}")
    else:
        print(f"strong liveness: {'ok' if report.strongly_live else 'VIOLATED'}")
        for v in report.liveness_violations:
            print(f"  [{v.agent} at {v.locality}] {v.detail}")
        note = " (waived by --assume-acyclic)" if \
            (not report.acyclic and args.assume_acyclic) else ""
        print(f"acyclicity: {'ok' if report.acyclic else 'VIOLATED' + note}")
        for v in report.acyclicity_violations:
            print(f"  [{v.kind}] {v.detail}")
    return 0 if (report.strongly_live and acyc_ok) else 1


def _cmd_explore(args, m):
    _require_mapt(m, args.assume_acyclic)
    result = sem.explore(m, args.semantics, args.x_bound,
                         time_bound=args.time_bound, budget=args.budget)
    # the batch pass counted the graph; only --dot builds it
    states, edges, finals = result.counts
    if args.dot_path:
        if states > DOT_NODE_CAP:
            raise MaptError(
                f"refusing DOT export: {states} nodes exceed "
                f"the cap of {DOT_NODE_CAP}")
        _write_dot(args.dot_path, result)
    if args.format == "machine":
        print(f"explored semantics={args.semantics} states={states} "
              f"edges={edges} finals={finals}")
    else:
        print(f"{args.semantics} semantics: {states} states, "
              f"{edges} edges, {finals} final")
    return 0


def _write_dot(path, result):
    order = sorted(result.states, key=lambda s: (result.states[s], s))
    index = {s: i for i, s in enumerate(order)}
    lines = ["digraph reachable {"]
    for s in order:
        vals = ",".join(map(str, s.values))
        label = f"{','.join(s.localities)}|{','.join(map(str, s.clocks))}|{vals}"
        shape = ' shape=doublecircle' if s in result.finals else ""
        lines.append(f'  n{index[s]} [label="{label}"{shape}];')
    for src, e, dst in sorted(result.edges,
                              key=lambda x: (index[x[0]], sem.event_label(x[1]),
                                             index[x[2]])):
        lines.append(f'  n{index[src]} -> n{index[dst]} '
                     f'[label="{sem.event_label(e)}"];')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")


def _cmd_cuts(args, m):
    _require_mapt(m, args.assume_acyclic)
    cuts = layers.find_cuts(m, exclude_endpoints=args.exclude_endpoints)
    for cut in cuts:
        if args.format == "machine":
            print(f"cut t={cut.t} localities={','.join(cut.localities)} "
                  f"clocks={','.join(str(c) for c in cut.clocks)}")
        else:
            print(layers.format_cuts([cut]), end="")
    if args.format == "machine":
        print(f"cuts count={len(cuts)}")
    else:
        print(f"# {len(cuts)} coherent cut offsets in one hyperperiod")
    return 0


def _heuristic_from(args, m):
    if not args.heuristic:
        return None
    registry = mc.builtin_heuristics()
    if args.heuristic not in registry:
        raise MaptError(f"unknown heuristic {args.heuristic!r}; "
                        f"available: {', '.join(sorted(registry))}")
    factory = registry[args.heuristic]
    try:
        inspect.signature(factory).bind(m, **args.heuristic_arg)
    except TypeError as e:
        raise MaptError(f"heuristic {args.heuristic!r}: {e}")
    return factory(m, **args.heuristic_arg)


def _cmd_check(args, m):
    _require_mapt(m, args.assume_acyclic)
    cuts = layers.load_cuts(args.cuts_path) if args.cuts_path else None
    heuristic = _heuristic_from(args, m)
    strong_set = args.strong_set
    if args.weak_set is not None:
        strong_set = frozenset(m.component_names).difference(
            m.component(name).name for name in args.weak_set)
    result = mc.check(m, args.query, args.x_bound, args.semantics, args.strategy,
                      strong_set, heuristic, cuts=cuts, budget=args.budget)
    st = result.stats
    if args.format == "machine":
        print(f"verdict value={str(result.verdict).lower()} "
              f"states_expanded={st.states_expanded} "
              f"borders_crossed={st.borders_crossed} "
              f"clusters_formed={st.clusters_formed} "
              f"peak_frontier={st.peak_frontier}")
    else:
        print(f"verdict: {result.verdict}")
        print(f"  states expanded: {st.states_expanded}")
        print(f"  borders crossed: {st.borders_crossed}")
        print(f"  clusters formed: {st.clusters_formed}")
        print(f"  peak frontier: {st.peak_frontier}")
    return 0 if result.verdict else 1


def _cmd_sweep(args, m):
    _require_mapt(m, args.assume_acyclic)
    if not args.indicator:
        raise MaptError("sweep needs at least one --indicator name=expression")
    result = mc.sweep_indicators(m, args.indicator, args.x_bound, args.semantics,
                                 time_bound=args.time_bound, budget=args.budget)
    for v in result.versions:
        spans = " ".join(
            f"{name}=[{lo},{hi}]"
            for name, (lo, hi) in zip(result.names, v.bounds))
        print(f"version {_state_fields(m, v.state)} {spans}")
    for name in result.names:
        lo, hi = result.overall(name)
        print(f"overall {name}=[{lo},{hi}]")
    return 0


def _cmd_petri_check(args, m):
    _require_mapt(m, args.assume_acyclic)
    net = petri.translate(m, accelerated=(args.semantics == "accelerated"))
    result = petri.state_space_equiv(m, args.x_bound, args.semantics,
                                     net=net, budget=args.budget)
    if args.dump_net:
        print(petri.structure_text(net), end="")
    if args.format == "machine":
        print(f"equivalence equal={str(result.equal).lower()} "
              f"states_checked={result.states_checked} "
              f"detail={_q(result.detail)}")
    else:
        if result.equal:
            print(f"model and net agree on {result.states_checked} states")
        else:
            print(f"divergence found: {result.detail}")
    return 0 if result.equal else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maptmc",
        description="Model checker for multi-agent systems with timed periodic tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, explores=True):
        p.set_defaults(run=run)
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--assume-acyclic", action="store_true",
                       help="waive a failed acyclicity proof")
        if explores:
            p.add_argument("--budget", type=_whole("--budget"), default=sem.DEFAULT_BUDGET,
                           help="node budget for explorations")
            p.add_argument("--semantics", choices=sem.SEMANTICS,
                           default="accelerated")
            p.add_argument("--x-bound", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="bound an X component (or give one bare value "
                                "for all of them); repeatable")

    p = sub.add_parser("validate", help="check the two model constraints")
    common(p, _cmd_validate, explores=False)

    p = sub.add_parser("explore", help="build the bounded reachable graph")
    common(p, _cmd_explore)
    p.add_argument("--time-bound", type=_whole("--time-bound"), default=None)
    p.add_argument("--dot", dest="dot_path", default="",
                   help="write the graph in DOT format (refused above "
                        f"{DOT_NODE_CAP} nodes)")

    p = sub.add_parser("cuts", help="list coherent cut offsets")
    common(p, _cmd_cuts, explores=False)
    p.add_argument("--exclude-endpoints", action="store_true",
                   help="also reject offsets on event window endpoints")

    p = sub.add_parser("check", help="evaluate a reachability query")
    common(p, _cmd_check)
    p.add_argument("query", help="e.g. 'EF (x >= 3 && EF y = 2)'")
    p.add_argument("--strategy", choices=mc.STRATEGIES, default="layered-dfs")
    p.add_argument("--cuts", dest="cuts_path", default="",
                   help="cut list file; default: pick the best cut automatically")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strong-set", type=_name_set, default=None,
                       help="comma list of strong components (overrides the "
                            "model; empty string for none)")
    group.add_argument("--weak-set", type=_name_set, default=None,
                       help="comma list of weak components (the rest stay strong)")
    p.add_argument("--heuristic", default="",
                   help="name from the builtin registry")
    p.add_argument("--heuristic-arg", action="append", default=[], metavar="KEY=VALUE",
                   help="factory argument; repeatable, one value per key")

    p = sub.add_parser("sweep", help="compute indicator envelopes")
    common(p, _cmd_sweep)
    p.add_argument("--indicator", type=_indicator, action="append", default=[],
                   metavar="NAME=EXPR", help="named expression; repeatable")
    p.add_argument("--time-bound", type=_whole("--time-bound"), default=None)

    p = sub.add_parser("petri-check", help="compare model and net in lockstep")
    common(p, _cmd_petri_check)
    p.add_argument("--dump-net", action="store_true",
                   help="print the net structure after checking, before "
                        "the result line")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        args.heuristic_arg = _named_values("--heuristic-arg",
                                           getattr(args, "heuristic_arg", ()))
        if args.heuristic_arg and not args.heuristic:
            raise MaptError("--heuristic-arg needs --heuristic")
        args.x_bound = _parse_x_bound(getattr(args, "x_bound", None))
        return args.run(args, load_model(args.model))
    except (MaptError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
