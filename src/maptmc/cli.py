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
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr, layers, mc, petri
from . import semantics as sem
from .errors import MaptError
from .model import load_model, validate

DOT_NODE_CAP = 10_000


@dataclass
class RunConfig:
    command: str
    model_path: str
    semantics: str = "accelerated"
    out_format: str = "text"
    budget: int = sem.DEFAULT_BUDGET
    x_bound: object = None
    time_bound: object = None
    query: str = ""
    strategy: str = "layered-dfs"
    cuts_path: str = ""
    exclude_endpoints: bool = False
    strong_set: object = None
    weak_set: object = None
    heuristic: str = ""
    heuristic_args: dict = field(default_factory=dict)
    indicators: list = field(default_factory=list)
    dot_path: str = ""
    dump_net: bool = False
    assume_acyclic: bool = False


def _q(text):
    return json.dumps(text)


def _rational(text, what):
    try:
        return expr.exact(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise MaptError(f"bad {what} value {text!r}, expected a rational")


def _parse_x_bound(values):
    if not values:
        return None
    if len(values) == 1 and "=" not in values[0]:
        return _rational(values[0], "--x-bound")
    out = {}
    for item in values:
        name, _, raw = item.partition("=")
        if not raw:
            raise MaptError(f"bad --x-bound entry {item!r}, expected name=value")
        out[name.strip()] = _rational(raw.strip(), "--x-bound")
    return out


def _state_fields(m, s):
    vals = ",".join(f"{n}={v}" for n, v in zip(s.valuation.names, s.valuation.values))
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


def _cmd_validate(cfg, m):
    report = validate(m)
    acyc_ok = report.acyclic or cfg.assume_acyclic
    if cfg.out_format == "machine":
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
            (not report.acyclic and cfg.assume_acyclic) else ""
        print(f"acyclicity: {'ok' if report.acyclic else 'VIOLATED' + note}")
        for v in report.acyclicity_violations:
            print(f"  [{v.kind}] {v.detail}")
    return 0 if (report.strongly_live and acyc_ok) else 1


def _cmd_explore(cfg, m):
    _require_mapt(m, cfg.assume_acyclic)
    result = sem.explore(m, cfg.semantics, cfg.x_bound,
                         time_bound=cfg.time_bound, budget=cfg.budget)
    if cfg.dot_path:
        if len(result.states) > DOT_NODE_CAP:
            raise MaptError(
                f"refusing DOT export: {len(result.states)} nodes exceed "
                f"the cap of {DOT_NODE_CAP}")
        _write_dot(cfg.dot_path, result)
    if cfg.out_format == "machine":
        print(f"explored semantics={cfg.semantics} states={len(result.states)} "
              f"edges={len(result.edges)} finals={len(result.finals)}")
    else:
        print(f"{cfg.semantics} semantics: {len(result.states)} states, "
              f"{len(result.edges)} edges, {len(result.finals)} final")
    return 0


def _write_dot(path, result):
    order = sorted(result.states, key=lambda s: (result.states[s], s.sort_key()))
    index = {s: i for i, s in enumerate(order)}
    lines = ["digraph reachable {"]
    for s in order:
        vals = ",".join(map(str, s.valuation.values))
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


def _cmd_cuts(cfg, m):
    _require_mapt(m, cfg.assume_acyclic)
    cuts = layers.find_cuts(m, exclude_endpoints=cfg.exclude_endpoints)
    for cut in cuts:
        if cfg.out_format == "machine":
            print(f"cut t={cut.t} localities={','.join(cut.localities)} "
                  f"clocks={','.join(str(c) for c in cut.clocks)}")
        else:
            print(layers.format_cuts([cut]), end="")
    if cfg.out_format == "machine":
        print(f"cuts count={len(cuts)}")
    else:
        print(f"# {len(cuts)} coherent cut offsets in one hyperperiod")
    return 0


def _heuristic_from(cfg, m):
    if not cfg.heuristic:
        return None
    registry = mc.builtin_heuristics()
    if cfg.heuristic not in registry:
        raise MaptError(f"unknown heuristic {cfg.heuristic!r}; "
                        f"available: {', '.join(sorted(registry))}")
    factory = registry[cfg.heuristic]
    try:
        inspect.signature(factory).bind(m, **cfg.heuristic_args)
    except TypeError as e:
        raise MaptError(f"heuristic {cfg.heuristic!r}: {e}")
    return factory(m, **cfg.heuristic_args)


def _cmd_check(cfg, m):
    _require_mapt(m, cfg.assume_acyclic)
    cuts = None
    if cfg.cuts_path:
        cuts = layers.load_cuts(cfg.cuts_path)
        layers.validate_cuts(m, cuts)
    heuristic = _heuristic_from(cfg, m)
    strong_set = cfg.strong_set
    if cfg.weak_set is not None:
        strong_set = frozenset(m.component_names) - cfg.weak_set
    result = mc.check(m, cfg.query, cfg.x_bound, cfg.semantics, cfg.strategy,
                      strong_set, heuristic, cuts=cuts, budget=cfg.budget)
    st = result.stats
    if cfg.out_format == "machine":
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


def _cmd_sweep(cfg, m):
    _require_mapt(m, cfg.assume_acyclic)
    if not cfg.indicators:
        raise MaptError("sweep needs at least one --indicator name=expression")
    result = mc.sweep_indicators(m, cfg.indicators, cfg.x_bound, cfg.semantics,
                                 time_bound=cfg.time_bound, budget=cfg.budget)
    for v in result.versions:
        spans = " ".join(
            f"{name}=[{lo},{hi}]"
            for name, (lo, hi) in zip(result.names, v.bounds))
        print(f"version {_state_fields(m, v.state)} {spans}")
    for name in result.names:
        lo, hi = result.overall(name)
        print(f"overall {name}=[{lo},{hi}]")
    return 0


def _cmd_petri_check(cfg, m):
    _require_mapt(m, cfg.assume_acyclic)
    net = petri.translate(m, accelerated=(cfg.semantics == "accelerated"))
    if cfg.dump_net:
        print(petri.structure_text(net), end="")
    result = petri.state_space_equiv(m, cfg.x_bound, cfg.semantics,
                                     net=net, budget=cfg.budget)
    if cfg.out_format == "machine":
        print(f"equivalence equal={str(result.equal).lower()} "
              f"states_checked={result.states_checked} "
              f"detail={_q(result.detail)}")
    else:
        if result.equal:
            print(f"model and net agree on {result.states_checked} states")
        else:
            print(f"divergence found: {result.detail}")
    return 0 if result.equal else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "explore": _cmd_explore,
    "cuts": _cmd_cuts,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "petri-check": _cmd_petri_check,
}


def run(cfg):
    """Execute one configured command; returns the process exit status."""
    try:
        m = load_model(cfg.model_path)
        return _COMMANDS[cfg.command](cfg, m)
    except (MaptError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maptmc",
        description="Model checker for multi-agent systems with timed periodic tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, semantics=True):
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--budget", type=int, default=sem.DEFAULT_BUDGET,
                       help="node budget for explorations")
        p.add_argument("--assume-acyclic", action="store_true",
                       help="waive a failed acyclicity proof")
        if semantics:
            p.add_argument("--semantics", choices=sem.SEMANTICS,
                           default="accelerated")
            p.add_argument("--x-bound", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="bound an X component (or give one bare value "
                                "for all of them); repeatable")

    p = sub.add_parser("validate", help="check the two model constraints")
    common(p, semantics=False)

    p = sub.add_parser("explore", help="build the bounded reachable graph")
    common(p)
    p.add_argument("--time-bound", type=int, default=None)
    p.add_argument("--dot", dest="dot_path", default="",
                   help="write the graph in DOT format (refused above "
                        f"{DOT_NODE_CAP} nodes)")

    p = sub.add_parser("cuts", help="list coherent cut offsets")
    common(p, semantics=False)
    p.add_argument("--exclude-endpoints", action="store_true",
                   help="also reject offsets on event window endpoints")

    p = sub.add_parser("check", help="evaluate a reachability query")
    common(p)
    p.add_argument("query", help="e.g. 'EF (x >= 3 && EF y = 2)'")
    p.add_argument("--strategy", choices=mc.STRATEGIES, default="layered-dfs")
    p.add_argument("--cuts", dest="cuts_path", default="",
                   help="cut list file; default: pick the best cut automatically")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strong-set", default=None,
                       help="comma list of strong components (overrides the "
                            "model; empty string for none)")
    group.add_argument("--weak-set", default=None,
                       help="comma list of weak components (the rest stay strong)")
    p.add_argument("--heuristic", default="",
                   help="name from the builtin registry")
    p.add_argument("--heuristic-arg", action="append", default=[],
                   metavar="KEY=VALUE", help="factory argument; repeatable")

    p = sub.add_parser("sweep", help="compute indicator envelopes")
    common(p)
    p.add_argument("--indicator", action="append", default=[],
                   metavar="NAME=EXPR", help="named expression; repeatable")
    p.add_argument("--time-bound", type=int, default=None)

    p = sub.add_parser("petri-check", help="compare model and net in lockstep")
    common(p)
    p.add_argument("--dump-net", action="store_true",
                   help="print the net structure before checking")
    return parser


def _config_from(args):
    cfg = RunConfig(command=args.command, model_path=args.model)
    cfg.out_format = args.format
    cfg.budget = args.budget
    cfg.assume_acyclic = args.assume_acyclic
    if hasattr(args, "semantics"):
        cfg.semantics = args.semantics
        cfg.x_bound = _parse_x_bound(args.x_bound)
    if hasattr(args, "time_bound"):
        cfg.time_bound = args.time_bound
    if hasattr(args, "dot_path"):
        cfg.dot_path = args.dot_path
    if hasattr(args, "exclude_endpoints"):
        cfg.exclude_endpoints = args.exclude_endpoints
    if hasattr(args, "query"):
        cfg.query = args.query
        cfg.strategy = args.strategy
        cfg.cuts_path = args.cuts_path
        if args.strong_set is not None:
            cfg.strong_set = frozenset(
                x.strip() for x in args.strong_set.split(",") if x.strip())
        if args.weak_set is not None:
            cfg.weak_set = frozenset(
                x.strip() for x in args.weak_set.split(",") if x.strip())
        cfg.heuristic = args.heuristic
        for item in args.heuristic_arg:
            key, _, value = item.partition("=")
            if not value:
                raise MaptError(f"bad --heuristic-arg {item!r}")
            cfg.heuristic_args[key.strip()] = value.strip()
    if hasattr(args, "indicator"):
        for item in args.indicator:
            name, _, text = item.partition("=")
            if not text:
                raise MaptError(f"bad --indicator {item!r}, expected name=expr")
            cfg.indicators.append((name.strip(), text))
    if hasattr(args, "dump_net"):
        cfg.dump_net = args.dump_net
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except (MaptError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
