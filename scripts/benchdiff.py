#!/usr/bin/env python3
"""Compare two commits' runs in the benchmark ledger.

    python3 scripts/benchdiff.py --parent eda7285 --change "child of eda7285" \\
        [--claim analyst_slider/ingest_cpu_ms.p50] [--ledger BENCH_perfbench.json]

Reads the ledger (one JSON object per line: `commit`, `workload`,
`seed`, `trace`, and perfbench's final report under `result`) and the
end-to-end metrics of `BENCHMARK.json`. Untraced runs of the two
commits are paired by (workload, seed); where a seed was run more than
once, its latest runs are paired, and runs left over go unpaired. For every workload and end-to-end metric it
prints the parent's median and quartiles, the change's median, the
change in percent, and the pairs the change won (ties count for
neither side), then a verdict:

- a claimed row (`--claim workload/metric`, repeatable) is met when
  there are at least 10 pairs, the change wins at least 9 in 10 of
  them, and the change's median is better than the parent's by more
  than the parent's interquartile range;
- any other row is "worse than bound" when the change's median is
  worse than the parent's by more than the metric's bound, else
  "unresolved" when the parent's interquartile range, relative to its
  median, exceeds the bound and not every change run beats every parent
  run, else "within bound".

It also compares each workload's share of failed operations. Exits 1
when a claim is not met, a metric is worse than its bound, or the
change fails a larger share of operations; exits 2 when a claimed row
or a commit has no pairs.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def quartiles(values):
    """(Q1, median, Q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_runs(rows, parent, change):
    """{workload: [(parent row, change row), ...]} over untraced runs."""
    runs = {}
    for row in rows:
        if row.get("trace") not in (0, "0") or row["commit"] not in (parent, change):
            continue
        key = (row["workload"], row["seed"])
        runs.setdefault(key, {parent: [], change: []})[row["commit"]].append(row)
    pairs = {}
    for (workload, _seed), sides in sorted(runs.items()):
        latest = zip(reversed(sides[parent]), reversed(sides[change]))
        pairs.setdefault(workload, []).extend(latest)
    return pairs


def metric_value(row, name):
    metric = row["result"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def compare(pairs, metric, claimed):
    """The table cells of `metric` over `pairs` (numbers, then the
    verdict) and whether the verdict fails, or None when no pair has
    the metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    both = [(metric_value(p, metric["name"]), metric_value(c, metric["name"])) for p, c in pairs]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    if not both:
        return None
    par = [p for p, _ in both]
    chg = [c for _, c in both]
    q1, p_med, q3 = quartiles(par)
    c_med = statistics.median(chg)

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(1 for p, c in both if better(c, p))
    delta = (c_med - p_med) / p_med if p_med else 0.0
    worse_by = delta if lower else -delta
    if claimed:
        met = (
            len(both) >= MIN_CLAIM_PAIRS
            and wins >= CLAIM_WIN_SHARE * len(both)
            and better(c_med, p_med)
            and abs(c_med - p_med) > q3 - q1
        )
        verdict = "claim met" if met else "CLAIM NOT MET"
        failed = not met
    elif worse_by > bound:
        verdict, failed = "WORSE THAN BOUND", True
    elif p_med and (q3 - q1) / abs(p_med) > bound and not all(
        better(c, p) for c in chg for p in par
    ):
        verdict, failed = "unresolved", False
    else:
        verdict, failed = "within bound", False
    cells = (f"{p_med:.4g} [{q1:.4g}-{q3:.4g}]", f"{c_med:.4g}", f"{delta * 100:+.1f}%",
             f"{wins}/{len(both)}", verdict)
    return cells, failed


def failed_ops(rows):
    """(failed, attempted) operations summed over `rows`."""
    failed = sum(r["result"]["failed"] for r in rows)
    return failed, sum(r["result"]["attempted"] for r in rows)


def share(counts):
    failed, attempted = counts
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit label of the parent runs")
    parser.add_argument("--change", required=True, help="commit label of the change runs")
    parser.add_argument(
        "--claim", action="append", default=[], metavar="WORKLOAD/METRIC",
        help="a claimed gain, judged by the claim rule (repeatable)",
    )
    parser.add_argument("--ledger", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    with open(args.ledger) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    pairs = pair_runs(rows, args.parent, args.change)
    if not pairs:
        print(f"benchdiff: no untraced pairs of {args.parent!r} and {args.change!r}")
        return 2
    claims = set(args.claim)
    header = ("workload", "metric", "parent median [Q1-Q3]", "change", "delta", "won", "verdict")
    table = [header]
    failed = False
    seen_claims = set()
    for workload in (w["name"] for w in bench["workloads"]):
        wpairs = pairs.get(workload, [])
        if not wpairs:
            continue
        for metric in bench["end_to_end"]:
            key = f"{workload}/{metric['name']}"
            out = compare(wpairs, metric, key in claims)
            if out is None:
                continue
            cells, bad = out
            seen_claims.add(key)
            failed |= bad
            table.append((workload, metric["name"]) + cells)
        par, chg = failed_ops([p for p, _ in wpairs]), failed_ops([c for _, c in wpairs])
        more = share(chg) > share(par)
        failed |= more
        verdict = "MORE FAILED OPS" if more else "no more failed ops"
        table.append((workload, "failed ops", "%d/%d" % par, "%d/%d" % chg, "", "", verdict))
    widths = [max(len(str(r[i])) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    missing = claims - seen_claims
    if missing:
        print(f"benchdiff: no pairs for claimed {', '.join(sorted(missing))}")
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
