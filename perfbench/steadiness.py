"""Run the benchmark several times per workload, each with another seed,
and report each end-to-end metric's median and quartile spread.

    python3 perfbench/steadiness.py --workload check-mix --runs 10

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  A metric is steady when its spread is
below a third of its bound in BENCHMARK.json (setup_s is exempt from the
spread rule but still reported).  The last line of stdout is a JSON
object: workload -> metric -> {median, q1, q3, spread, bound, values}.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} was not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    steady = True
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {runs[-1]}", flush=True)
        report[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"{workload:20} {name:14} median {median:<12.6g} spread "
                  f"{spread:.4f} bound {bound} {'ok' if ok else 'NOT STEADY'}",
                  flush=True)
            report[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound,
                                      "values": values}
    print(json.dumps(report))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
