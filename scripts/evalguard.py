#!/usr/bin/env python3
"""Guard the paper-accuracy figures against regressions.

    python3 scripts/evalguard.py [--write] [--csv FILE]

Runs `figures --quick --csv fig10 fig12 fig13 intel expense` (release
build, through cargo) and reads every row that reports a precision,
recall or F-score: Figure 10 (NAIVE vs c), Figure 12 (DT / MC / NAIVE vs
c), Figure 13 (F-score vs dimensionality), §8.4 INTEL and §8.4 EXPENSE.
A row is named by its report and the cells left of its first output
column, e.g. `Figure 12|dataset=SYNTH-2D-Easy|algorithm=dt|c=0.50`.
NAIVE's Figure 13 rows are left out: they run under a wall-clock budget
(400 ms at `--quick`), so their scores depend on the host. Their 2-D
runs are Figure 12's NAIVE runs, which get at least 20 s and are kept.

Every row of the committed baseline, `EVAL_quick.json` (row name →
scores), must still be there, and its F-score must not be lower than
the baseline's by more than 0.01; the script prints each such failure,
the rows whose F-score moved, and the mean F-score per report and
algorithm, then exits 1 on a failure, else 0. `--write` replaces the
baseline with this run's rows instead. `--csv FILE` reads a saved
`figures --csv` output instead of running it; CI saves the figures
smoke's `figures --quick --csv all` and hands it over, so the figures
run once.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "EVAL_quick.json")
EXPERIMENTS = ["fig10", "fig12", "fig13", "intel", "expense"]
FIGURES = ["cargo", "run", "--release", "--quiet", "-p", "scorpion-eval", "--bin", "figures",
           "--", "--quick", "--csv", *EXPERIMENTS]
TOLERANCE = 0.01
SCORES = ("precision", "recall", "f_score")
# Cells that are answers, not part of a row's name.
OUTPUTS = {"predicate", "selected", "avg_amount", *SCORES}


def report_name(title):
    """`Figure 12 — accuracy vs c …` → `Figure 12`."""
    return title.split(" — ")[0].strip()


def parse(text):
    """The accuracy rows of a `figures --csv` output: {row name: scores}."""
    rows = {}
    report, header = None, None
    for line in text.splitlines():
        if line.startswith("# "):
            report, header = report_name(line[2:]), None
            continue
        if not line.strip() or report is None:
            continue
        cells = next(csv.reader([line]))
        if header is None:
            header = cells
            continue
        row = dict(zip(header, cells))
        if not any(s in row for s in SCORES):
            continue
        if report == "Figure 13" and row.get("algorithm") == "naive":
            continue
        key_cols = []
        for col in header:
            if col in OUTPUTS:
                break
            key_cols.append(col)
        name = "|".join([report] + [f"{c}={row[c]}" for c in key_cols])
        if name in rows:
            sys.exit(f"evalguard: two rows named {name}")
        rows[name] = {s: float(row[s]) for s in SCORES if s in row}
    return rows


def group_of(name):
    """A row's report and, where it has one, its algorithm."""
    parts = name.split("|")
    algo = next((p.split("=", 1)[1] for p in parts[1:] if p.startswith("algorithm=")), None)
    return parts[0] + (f" {algo}" if algo else "")


def mean_f(rows):
    groups = {}
    for name, scores in rows.items():
        groups.setdefault(group_of(name), []).append(scores["f_score"])
    return {g: statistics.mean(v) for g, v in groups.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="replace the baseline with this run")
    ap.add_argument("--csv", help="read a saved `figures --csv` output instead of running it")
    args = ap.parse_args()

    if args.csv:
        with open(args.csv) as f:
            text = f.read()
    else:
        ran = subprocess.run(FIGURES, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if ran.returncode != 0:
            sys.exit(f"evalguard: figures failed (exit {ran.returncode})")
        text = ran.stdout
    rows = parse(text)
    if not rows:
        sys.exit("evalguard: no accuracy rows in the figures output")

    if args.write:
        with open(BASELINE, "w") as f:
            json.dump(rows, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"evalguard: wrote {len(rows)} rows to {os.path.relpath(BASELINE)}")
        return 0

    with open(BASELINE) as f:
        base = json.load(f)
    failures = []
    for name, want in sorted(base.items()):
        got = rows.get(name)
        if got is None:
            failures.append(f"missing  {name}")
            continue
        # Scores have three decimals: round away the float error, so a
        # drop of exactly the tolerance passes.
        delta = round(got["f_score"] - want["f_score"], 6)
        if delta < -TOLERANCE:
            failures.append(f"dropped  {name}: F {want['f_score']:.3f} -> {got['f_score']:.3f}")
        elif delta != 0:
            print(f"moved    {name}: F {want['f_score']:.3f} -> {got['f_score']:.3f}")
    for name in sorted(set(rows) - set(base)):
        print(f"new      {name} (not in the baseline; --write adds it)")

    before, after = mean_f(base), mean_f(rows)
    print(f"\n{'mean F-score':<24} {'baseline':>9} {'now':>9}")
    for g in sorted(set(before) | set(after)):
        b, a = before.get(g), after.get(g)
        cell = lambda v: f"{v:9.3f}" if v is not None else f"{'-':>9}"
        print(f"{g:<24} {cell(b)} {cell(a)}")
    for line in failures:
        print(line)
    verdict = "FAIL" if failures else "ok"
    print(f"\nevalguard: {verdict}: {len(rows)} rows, {len(base)} in the baseline, "
          f"{len(failures)} failing (tolerance {TOLERANCE} in F-score)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
