#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 wirebench/sweep.py --out .bench_out/sweeps/a --runs 10
    python3 wirebench/sweep.py --out DIR --runs 5 --workloads window_read_mix --trace 1

Runs the command from BENCHMARK.json once per (workload, seed), from the
repository root, and keeps each run's full standard output (fingerprint,
accounting and result line) as DIR/<workload>-<seed>-trace<0|1>.out. Then
prints, per workload and metric, the median, the quartiles and the spread
(inter-quartile range over the median) next to a third of the metric's
bound, and marks a metric UNSTEADY when its spread is above that; then the
same figures for the runs' `info` lines, which carry no bound. Exits 1 if
any run was incorrect or any metric unsteady. Compare two such directories
with wirebench/compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_runs(directory, trace=0):
    """{workload: [result, ...]} from a sweep directory. Each result also
    gets the run's `info <name> <value>` lines as result["info"]."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith("-trace%d.out" % trace):
            continue
        workload = name.rsplit("-", 2)[0]
        with open(os.path.join(directory, name)) as f:
            text = f.read()
        result = last_json(text)
        if result is not None:
            result["info"] = {
                f[1]: float(f[2]) for f in (l.split() for l in text.splitlines()) if len(f) == 3 and f[0] == "info"
            }
            runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs, spec, trace=0):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    ok = True
    for workload, results in sorted(runs.items()):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print("\n%s: %d runs, correct=%s, failed %d of %d" % (workload, len(results), correct, failed, attempted))
        ok &= correct
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = "  %-32s median %14.4f  q1 %14.4f  q3 %14.4f  %s" % (m["name"], med, q1, q3, m["unit"])
            if "bound" in m:
                steady = spread <= m["bound"] / 3
                ok &= steady
                line += "  spread %.4f (bound/3 %.4f)%s" % (spread, m["bound"] / 3, "" if steady else "  UNSTEADY")
            print(line)
        names = sorted({k for r in results for k in r["info"]})
        if names:
            print("  printed, not reported:")
        for name in names:
            values = [r["info"][name] for r in results if name in r["info"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print("  %-32s median %14.4f  q1 %14.4f  q3 %14.4f  spread %.4f" % (name, med, q1, q3, spread))
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="directory for the run outputs")
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--summary-only", action="store_true", help="summarise an existing directory")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if not args.summary_only:
        for workload in args.workloads.split(","):
            for seed in range(args.first_seed, args.first_seed + args.runs):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
                t0 = time.time()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                path = os.path.join(args.out, "%s-%d-trace%d.out" % (workload, seed, args.trace))
                with open(path, "w") as f:
                    f.write(proc.stdout)
                status = "ok" if proc.returncode == 0 else "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])
                print("%s seed %d: %.1f s, %s" % (workload, seed, time.time() - t0, status), flush=True)
    ok = summarise(load_runs(args.out, args.trace), spec, args.trace)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
