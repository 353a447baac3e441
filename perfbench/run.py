"""maptmc benchmark: time to a correct result on the bundled fixtures.

Run from the root of a maptmc checkout:

    python3 perfbench/run.py --workload check-mix --seed 1 --seconds 30 --trace 0

One client drives maptmc in a closed loop: a fresh workload process
(worker.py) calls maptmc.cli.main with --format machine, one job after
another, and repeats the job list for up to --seconds.  Every
output is checked against tests/oracle.py, whose answers are computed
before any timing.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are in reference seconds.  A shared virtual machine changes speed by
up to 2x within minutes, which no repetition averages out, so the workload
process also times a fixed pure-Python kernel (worker.reference_kernel)
around every job.  Each job's time divided by the kernel's, median over
the passes, times REFERENCE_S, is its time at a fixed machine speed.  Raw
seconds are printed alongside.

--trace 0 reports the end-to-end metrics; --trace 1 also runs one pass
under cProfile and reports per-layer metrics, where a layer is a module of
src/maptmc/, and writes one span per job to perfbench/out/.

Other modes:
    --workload all    every workload in turn, with every end-to-end metric
    --selftest        show that the gate fails wrong, budget-blown jobs
    --determinism     show that traced counts repeat across runs and
                      across PYTHONHASHSEED values
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("explore-accel", "check-mix", "crosscheck-original")
LAYERS = (*worker.LAYERS, "fractions", "other")
SETUP_SAMPLES = 7
# About reference_kernel()'s run time on the 2-vCPU Xeon virtual machine
# where the baseline in record.json was taken.
REFERENCE_S = 0.05
WORKER_TIMEOUT_S = 170
TIMING_HASH_SEED = 0


END_TO_END_UNITS = {"wall_s": "s", "states_per_s": "1/s", "peak_rss_mib": "MiB",
                    "setup_s": "s"}


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_share"):
        return "share"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_worker(request, hash_seed=TIMING_HASH_SEED):
    """Run one workload process to completion and return its reply."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(request), capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def request(jobs, mode, seconds, width=()):
    return {"mode": mode, "seconds": seconds,
            "models": sorted({job.space.model for job in jobs}),
            "cuts": any(job.argv[0] == "check" for job in jobs),
            "jobs": [job.argv for job in jobs], "width": [job.argv for job in width]}


def failures(jobs, passes):
    """One reason per failed job run: it raised, exited 2 (an error or a
    blown budget) or printed something the oracle disagrees with.  A null
    output repeats the first pass's."""
    out = []
    for results in passes:
        for job, r, first in zip(jobs, results, passes[0]):
            if r["rc"] is None:
                out.append(f"{job.name}: raised {r['err'].strip().splitlines()[-1]}")
            elif r["rc"] == 2:
                out.append(f"{job.name}: {r['err'].strip() or 'exit 2'}")
            else:
                output = first["out"] if r["out"] is None else r["out"]
                reason = workloads.gate(job, r["rc"], output)
                if reason:
                    out.append(reason)
    return out


def job_wall(passes, calibrated=False):
    """Time for the whole job list once: the sum over jobs of each job's
    median across the passes, in reference seconds when calibrated."""
    def t(r):
        return r["s"] / r["ref"] * REFERENCE_S if calibrated else r["s"]
    return sum(statistics.median(t(p[i]) for p in passes)
               for i in range(len(passes[0])))


class Result:
    def __init__(self, workload, seed, attempted, failed, metrics, passes, raw=None):
        self.workload = workload
        self.seed = seed
        self.attempted = attempted
        self.failed = failed
        self.metrics = metrics
        self.passes = passes
        self.raw = raw or {}

    def show(self):
        print(f"workload={self.workload} seed={self.seed} passes={self.passes} "
              f"jobs_attempted={self.attempted}")
        for name, value in self.raw.items():
            print(f"  raw {name} {value:.6g} s")
        for name, value in self.metrics.items():
            print(f"  {name} {value:.6g} {unit_of(name)}")
        print(f"  ops_failed_share {len(self.failed) / self.attempted:.6g} ratio "
              f"({len(self.failed)} of {self.attempted})")
        for reason in self.failed:
            print(f"  FAILED {reason}")

    def line(self, prefix=""):
        return {f"{prefix}{name}": {"value": value, "unit": unit_of(name)}
                for name, value in self.metrics.items()}


def timed(workload, seed, seconds):
    jobs, states = workloads.build(workload, seed)
    req = request(jobs, "run", seconds)
    replies = [run_worker(dict(req, mode="setup")) for _ in range(SETUP_SAMPLES - 1)]
    reply = run_worker(req)
    replies.append(reply)
    passes = reply["passes"]
    wall = job_wall(passes, calibrated=True)
    setup = statistics.median(r["setup_s"] / r["setup_ref_s"] for r in replies)
    metrics = {"wall_s": wall, "states_per_s": states / wall,
               "peak_rss_mib": reply["peak_rss_kib"] / 1024,
               "setup_s": setup * REFERENCE_S}
    raw = {"wall_s": job_wall(passes),
           "setup_s": statistics.median(r["setup_s"] for r in replies),
           "reference_kernel": statistics.median(r["ref"] for p in passes for r in p)}
    return Result(workload, seed, len(jobs) * len(passes), failures(jobs, passes),
                  metrics, len(passes), raw)


def check_counts(jobs, results):
    """The layered-walk counts each check job printed; a failed job, already
    reported by the gate, contributes none."""
    out = []
    for job, r in zip(jobs, results):
        if job.argv[0] == "check" and r["rc"] in (0, 1):
            try:
                rec = workloads.record(r["out"], "verdict")
            except ValueError:
                continue
            out.append({k: int(rec[k]) for k in ("states_expanded", "borders_crossed",
                                                 "clusters_formed", "peak_frontier")})
    return out


def layer_metrics(jobs, width_jobs, reply):
    traced = reply["traced"]
    self_s = {layer: 0.0 for layer in LAYERS}
    counts = {}
    for r in traced:
        for layer, t in r["self_s"].items():
            self_s[layer] += t
        for name, n in r["counts"].items():
            counts[name] = counts.get(name, 0) + n
    total = sum(self_s.values())
    metrics = {f"{layer}.self_share": t / total for layer, t in self_s.items()}
    metrics.update(counts)
    checks = check_counts(jobs, traced)
    for name in ("states_expanded", "borders_crossed", "clusters_formed"):
        metrics[f"mc.{name}"] = sum(c[name] for c in checks)
    metrics["mc.peak_frontier"] = max((c["peak_frontier"] for c in checks), default=0)
    width = sum(c["states_expanded"] for c in check_counts(width_jobs, reply["width"]))
    # 0 marks a workload without check jobs, where the ratio is undefined.
    metrics["mc.reexpansion_ratio"] = metrics["mc.states_expanded"] / width if width else 0
    metrics["trace.overhead_ratio"] = (sum(r["s"] for r in traced)
                                       / job_wall(reply["passes"]))
    return metrics


def write_spans(workload, seed, jobs, reply, metrics):
    """One span for the workload run and one per traced job under it."""
    root = f"{workload}:{seed}"
    begin = reply["begin"]
    spans = [{"span": root, "parent": None, "name": f"{workload} seed={seed}",
              "start_s": 0.0,
              "end_s": max(r["start"] + r["s"] for r in reply["traced"]) - begin}]
    for i, (job, r) in enumerate(zip(jobs, reply["traced"])):
        counts = dict(r["counts"], **{f"{layer}.self_s": t
                                      for layer, t in r["self_s"].items()})
        for c in check_counts([job], [r]):
            counts.update({f"mc.{k}": v for k, v in c.items()})
        spans.append({"span": f"{root}/{i}", "parent": root, "name": job.name,
                      "argv": job.argv, "start_s": r["start"] - begin,
                      "end_s": r["start"] + r["s"] - begin, "counts": counts})
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "trace.overhead_ratio": metrics["trace.overhead_ratio"],
                                "spans": spans}, indent=1) + "\n")
    return path


def traced_run(workload, seed, seconds, hash_seed=TIMING_HASH_SEED):
    jobs, _ = workloads.build(workload, seed)
    width = [workloads.Job(f"{job.name} width", job.argv + ["--strategy", "width"],
                           job.space, job.expect)
             for job in jobs if job.argv[0] == "check"]
    reply = run_worker(request(jobs, "trace", seconds, width), hash_seed)
    passes = reply["passes"]
    failed = failures(jobs, passes + [reply["traced"]]) + failures(width, [reply["width"]])
    attempted = len(jobs) * (len(passes) + 1) + len(width)
    metrics = layer_metrics(jobs, width, reply)
    result = Result(workload, seed, attempted, failed, metrics, len(passes) + 1)
    return result, jobs, reply


def final_line(results, prefix):
    metrics = {}
    for r in results:
        metrics.update(r.line(f"{r.workload}." if prefix else ""))
    failed = sum(len(r.failed) for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r.attempted for r in results),
                       "failed": failed, "metrics": metrics})


def is_count(name):
    return name.endswith("_calls") or (
        name.startswith("mc.") and not name.endswith(("_s", "_share")))


def determinism(seed):
    """Traced counts must repeat exactly: twice under one hash seed and once
    under another, each in a fresh workload process."""
    unstable = []
    for workload in WORKLOADS:
        runs = [traced_run(workload, seed, 0, hash_seed)[0].metrics
                for hash_seed in (0, 0, 1)]
        names = sorted(n for n in runs[0] if is_count(n))
        for name in names:
            values = [r[name] for r in runs]
            if len(set(values)) > 1:
                unstable.append(f"{workload} {name} {values}")
        print(f"{workload}: {len(names)} counts compared over hash seeds 0, 0, 1")
    for line in unstable:
        print(f"  DOES NOT REPEAT {line}")
    print("determinism check " + ("failed" if unstable else "passed"))
    return 1 if unstable else 0


def selftest():
    """Feed the gate a flipped verdict and an off-by-one state count, and a
    job that blows its budget; each must be reported as a failed op."""
    orc = workloads.Oracle()
    space = workloads.Space(workloads.TWO_TASKS, "accelerated", (("count", 2),))
    explore = workloads.explore_job(orc, "explore two_tasks count=2", space)
    at_least_one = workloads.Atom("count >= 1", 2, 1, lambda v: v >= 1)
    check = workloads.check_job(orc, "check EF two_tasks count=2", space, "EF",
                                "EF (count >= 1)", [at_least_one])
    starved = workloads.Job("explore two_tasks count=2 budget=10",
                            explore.argv + ["--budget", "10"], space, explore.expect)
    jobs = [explore, check, starved]
    results = run_worker(request(jobs, "run", 0))["passes"][0]
    honest = failures(jobs, [results])
    verdict = workloads.record(results[1]["out"], "verdict")["value"]
    flipped = dict(results[1], out=results[1]["out"].replace(
        f"value={verdict}", "value=" + ("false" if verdict == "true" else "true")))
    states = workloads.record(results[0]["out"], "explored")["states"]
    off_by_one = dict(results[0], out=results[0]["out"].replace(
        f"states={states}", f"states={int(states) + 1}"))
    corrupted = failures(jobs, [[off_by_one, flipped, results[2]]])
    for label, found in (("real outputs", honest), ("corrupted outputs", corrupted)):
        print(f"{label}: {len(found)} of {len(jobs)} jobs failed")
        for reason in found:
            print(f"  FAILED {reason}")
    ok = (len(honest) == 1 and honest[0].startswith(starved.name)
          and len(corrupted) == 3)
    print("gate self-test " + ("passed" if ok else "failed"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.determinism:
        return determinism(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        if args.trace:
            result, jobs, reply = traced_run(name, args.seed, args.seconds)
            path = write_spans(name, args.seed, jobs, reply, result.metrics)
            print(f"spans: {path.relative_to(ROOT)}")
        else:
            result = timed(name, args.seed, args.seconds)
        result.show()
        results.append(result)
    print(final_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    if not ((ROOT / "src" / "maptmc" / "cli.py").is_file()
            and (ROOT / "tests" / "oracle.py").is_file()):
        sys.exit("perfbench: no maptmc sources next to the benchmark "
                 "(it needs src/maptmc and tests/oracle.py)")
    sys.path.insert(0, str(ROOT / "tests"))
    import workloads
    sys.exit(main())
