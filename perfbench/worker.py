"""The workload process: sets maptmc up, then drives maptmc.cli.main with
one job after another, in this single process and thread.

run.py starts it with a fresh interpreter and a pinned PYTHONHASHSEED,
writes one JSON request to its stdin and reads one JSON reply from the
last line of its stdout.  The request's "mode" is

  setup  time the set-up and stop;
  run    set up, then repeat the whole job list for up to "seconds";
  trace  as run, but one pass runs under cProfile, and the "width" jobs
         (the check jobs again under --strategy width) run once at the end.

Around every timed job, and after the set-up, the process also times
reference_kernel(), a fixed pure-Python workload, so that run.py can take
out the speed changes of a shared machine (see run.py).

Job output goes to in-memory buffers; run.py checks it against the oracle.
A later pass's output that equals the first pass's is sent as null.
The set-up and the peak RSS are this process's own, so they contain no
oracle work.
"""

# cProfile, pstats and fractions are imported only after set-up has been
# timed, so that set-up pays for every module maptmc itself needs.
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = os.path.normcase(str(ROOT / "src" / "maptmc"))
LAYERS = ("semantics", "model", "expr", "layers", "mc", "petri", "cli")

# Primitive-call counts and cumulative times of single functions, keyed by
# metric name; a function is (layer, function names).
CALLS = {
    "semantics.successors_calls": ("semantics", ("successors",)),
    "semantics.zone_info_calls": ("semantics", ("zone_info",)),
    "semantics.check_state_calls": ("semantics", ("check_state",)),
    "model.eval_transform_calls": ("model", ("eval_transform",)),
    "model.outgoing_calls": ("model", ("outgoing",)),
    "fractions.hash_calls": ("fractions", ("__hash__",)),
    "expr.eval_bool_calls": ("expr", ("eval_bool",)),
    "expr.eval_arith_calls": ("expr", ("eval_arith",)),
    "layers.crosses_calls": ("layers", ("crosses",)),
    "petri.guard_calls": ("petri", ("guard", "time_guard")),
}
CUMULATIVE = {
    "semantics.explore_s": ("semantics", ("explore",)),
    "layers.best_cut_s": ("layers", ("best_cut",)),
    "mc.check_s": ("mc", ("check",)),
    "mc.sweep_s": ("mc", ("sweep_indicators",)),
    "petri.state_space_equiv_s": ("petri", ("state_space_equiv",)),
}


def layer_of(filename):
    """The layer a profiled function belongs to, from its source file."""
    path = os.path.normcase(filename)
    stem = os.path.splitext(os.path.basename(path))[0]
    if os.path.dirname(path) == PACKAGE and stem in LAYERS:
        return stem
    if os.path.basename(path) == "fractions.py":
        return "fractions"
    return "other"


def profile_counts(prof):
    """Self time per layer, and the CALLS and CUMULATIVE metrics, of one
    profiled job."""
    import pstats
    self_s = {}
    out = {name: 0 for name in (*CALLS, *CUMULATIVE)}
    for (filename, _, func), (prim, _, tt, ct, _) in pstats.Stats(prof).stats.items():
        layer = layer_of(filename)
        self_s[layer] = self_s.get(layer, 0.0) + tt
        for name, (want, funcs) in CALLS.items():
            if layer == want and func in funcs:
                out[name] += prim
        for name, (want, funcs) in CUMULATIVE.items():
            if layer == want and func in funcs:
                out[name] += ct
    return self_s, out


def reference_kernel(limit=4000):
    """Breadth-first search over (clocks, Fraction, counter) states: the
    tuple hashing, dict dedup and Fraction arithmetic maptmc spends its time
    on, in code that never changes with maptmc.  Returns its run time."""
    from fractions import Fraction
    start_time = time.perf_counter()
    start = ((0, 0), Fraction(1, 2), 0)
    seen = {start: 0}
    queue = deque([start])
    while queue and len(seen) < limit:
        s = queue.popleft()
        (a, b), load, count = s
        for tick, t_load in ((1, load * 2), (2, load / 2), (3, load + Fraction(13, 10))):
            t = (((a + tick) % 5, (b + 2 * tick) % 5), t_load, count + (tick == 1))
            if t not in seen:
                seen[t] = seen[s] + 1
                queue.append(t)
    return time.perf_counter() - start_time


def set_up(models, cuts):
    """Import maptmc, load and validate the models and, when the workload
    uses the layered walk, pick each model's best cut; returns the time."""
    start = time.perf_counter()
    from maptmc import cli, layers, model  # noqa: F401
    for path in models:
        m = model.load_model(path)
        model.validate(m)
        if cuts:
            layers.best_cut(m)
    return time.perf_counter() - start


def run_job(cli, argv, prof=None):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if prof is not None:
                prof.enable()
            try:
                rc = cli.main(argv)
            finally:
                if prof is not None:
                    prof.disable()
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    return {"start": start, "s": end - start, "rc": rc,
            "out": out.getvalue(), "err": err.getvalue()}


def serve(req):
    reply = {"setup_s": set_up(req["models"], req["cuts"]),
             "setup_ref_s": sorted(reference_kernel() for _ in range(3))[1]}
    if req["mode"] == "setup":
        return reply
    from maptmc import cli
    jobs = req["jobs"]
    passes = []
    traced = []
    begin = time.perf_counter()
    last = 0.0
    # Start no pass that would end after "seconds".
    while not passes or time.perf_counter() - begin + last < req["seconds"]:
        pass_start = time.perf_counter()
        refs = [reference_kernel()]
        results = []
        for argv in jobs:
            results.append(run_job(cli, argv))
            refs.append(reference_kernel())
        for i, r in enumerate(results):
            r["ref"] = (refs[i] + refs[i + 1]) / 2
            # Keep one copy of each output, so that the peak RSS does not
            # grow with the number of passes.
            if passes and r["out"] == passes[0][i]["out"]:
                r["out"] = None
        passes.append(results)
        last = time.perf_counter() - pass_start
        if req["mode"] == "trace" and not traced:
            import cProfile
            for argv in jobs:
                prof = cProfile.Profile()
                result = run_job(cli, argv, prof)
                result["self_s"], result["counts"] = profile_counts(prof)
                traced.append(result)
    reply["passes"] = passes
    if req["mode"] == "trace":
        reply["traced"] = traced
        reply["width"] = [run_job(cli, argv) for argv in req["width"]]
        reply["begin"] = begin
    reply["peak_rss_kib"] = peak_rss_kib()
    return reply


def peak_rss_kib():
    """This process's peak resident set since it started.  On Linux,
    getrusage's ru_maxrss also carries the parent's high-water mark over
    fork and exec, and the parent holds the oracle's graphs, so the
    per-process VmHWM is read where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    sys.path.insert(0, str(ROOT / "src"))
    req = json.loads(sys.stdin.read())
    print(json.dumps(serve(req)))


if __name__ == "__main__":
    main()
