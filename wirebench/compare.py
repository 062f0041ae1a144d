#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 wirebench/compare.py BASE_DIR NEW_DIR

Each directory holds the outputs written by wirebench/sweep.py. For every
workload and end-to-end metric this prints both sides' median and
quartiles, the relative change of the median (positive = better), each
side's spread (inter-quartile range over the median), and a verdict:

  worse       the new median is worse than the base by more than the bound;
  better      the new median is better by more than the bound and by more
              than either side's spread;
  unchanged   the medians differ by no more than the bound and both
              sides' spreads are within it;
  unresolved  neither: the runs spread wider than the bound, so a change
              within it cannot be told from noise.

It also prints each side's share of failed operations, which must match.
The exit code is 1 when any metric is worse or the failed shares differ.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sweep import load_runs, load_spec, quartiles  # noqa: E402


def verdict(metric, base, new):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
    if change < -metric["bound"]:
        return "worse", change, spread
    if change > metric["bound"] and change > spread:
        return "better", change, spread
    if spread <= metric["bound"]:
        return "unchanged", change, spread
    return "unresolved", change, spread


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    spec = load_spec()
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    bad = False
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, []), new.get(workload, [])
        if not b or not n:
            print("\n%s: missing on one side (base %d runs, new %d runs)" % (workload, len(b), len(n)))
            bad = True
            continue
        share = lambda rs: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        print("\n%s: base %d runs, new %d runs; failed share base %.6f new %.6f%s" % (
            workload, len(b), len(n), share(b), share(n), "" if share(b) == share(n) else "  DIFFERS"))
        bad |= share(b) != share(n)
        print("  %-22s %12s %12s %12s | %12s %12s %12s | %8s %7s %6s  %s" % (
            "metric", "base q1", "base med", "base q3", "new q1", "new med", "new q3",
            "change", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            v, change, spread = verdict(m, bv, nv)
            bad |= v == "worse"
            bq, nq = quartiles(bv), quartiles(nv)
            print("  %-22s %12.4g %12.4g %12.4g | %12.4g %12.4g %12.4g | %+7.2f%% %6.2f%% %5.0f%%  %s" % (
                m["name"], bq[0], bq[1], bq[2], nq[0], nq[1], nq[2],
                change * 100, spread * 100, m["bound"] * 100, v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
