#!/usr/bin/env python3
"""Guard against performance regressions: run the benchmark on a base
revision and on the working tree in alternating pairs, then judge them.

    python3 scripts/perfguard.py --base <rev> [--pairs 2] [--out FILE] [--work DIR]

The base is extracted with `git archive` into `<work>/base-src`, and
the working tree's tracked and untracked-but-not-ignored files are
copied to `<work>/change-src`, so edits made while the guard runs do
not reach the change's builds. Around each run, the side's tree is
moved to `<work>/src` and back: both sides build from one path, since
cargo hashes a path dependency's location into its crates' metadata,
and two builds of one source from two paths differ in symbol names and
layout. Each side is built and run by its own `perfbench/run.py`, with
its own `CARGO_TARGET_DIR` (`<work>/base-target`,
`<work>/change-target`), on
every workload of `BENCHMARK.json`, at its `run_seconds`, untraced
(at 3 s and 8 s, `analyst_slider` and `server_dashboard` time too few
ops to report their percentiles). Pair i of every workload uses seed
i + 1; even pairs run the base first, odd pairs the change. Each run's
full report is kept under `<work>/logs/`.

The runs are written to `--out` (overwritten) as ledger rows, the
format of `BENCH_perfbench.json`: the base's under its short hash, the
change's as "child of <short hash>", each with the git tree of the
`crates/` it was built from. Append that file to the ledger to keep
them. The verdict is `benchdiff.py --ledger <out>` without a claim:
exit 1 when an end-to-end metric is worse than its bound or the change
fails a larger share of operations, else 0. A run that fails to build
or to report is exit 1 too: the guard never skips.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_SPEED = "host speed scale, mean over the timed phase:"
CPU_STEAL = "cpu steal during the run:"


def git(*args, env=None):
    out = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                         text=True, env=env)
    return out.stdout.strip()


def worktree_crates_tree():
    """Git tree hash of the working tree's `crates/`, untracked files
    included, computed in a scratch index so the real one is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "crates", env=env)
        return git("write-tree", "--prefix=crates/", env=env)


def extract(rev, dest):
    """Writes the tree of `rev` to `dest` (replacing it)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"perfguard: git archive {rev} failed")


def copy_worktree(dest):
    """Copies the working tree's tracked and untracked-but-not-ignored
    files to `dest` (replacing it)."""
    shutil.rmtree(dest, ignore_errors=True)
    listed = subprocess.run(["git", "-C", ROOT, "ls-files", "-co", "--exclude-standard", "-z"],
                            check=True, capture_output=True, text=True).stdout
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if not os.path.lexists(src):
            continue  # tracked, but deleted in the working tree
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)


def run_at(side, build_dir, cmd, env):
    """Runs `cmd` in `build_dir` with the side's tree moved there, and
    moves the tree back afterwards."""
    os.rename(side["src"], build_dir)
    try:
        return subprocess.run(cmd, cwd=build_dir, env=env, capture_output=True, text=True)
    finally:
        os.rename(build_dir, side["src"])


def run_one(side, workload, seed, seconds, work):
    """Runs one workload on one side, from the side's tree moved to
    `<work>/src`; returns its ledger row, or None (after printing why)
    when the run fails."""
    build_dir = os.path.join(work, "src")
    cmd = [sys.executable, os.path.join(build_dir, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    log = os.path.join(work, "logs", f"{side['name']}-{workload}-s{seed}.txt")
    ran = run_at(side, build_dir, cmd, env)
    with open(log, "w") as f:
        f.write(ran.stdout)
        f.write(ran.stderr)
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        print(f"perfguard: {side['name']} {workload} seed {seed} failed "
              f"(exit {ran.returncode}); see {log}", file=sys.stderr)
        print(ran.stderr[-2000:], file=sys.stderr)
        return None

    def reported(prefix):
        for line in lines:
            if line.startswith(prefix):
                return float(line[len(prefix):].strip().rstrip("%"))
        return None

    return {
        "commit": side["label"],
        "crates_tree": side["crates_tree"],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "host_speed_scale": reported(HOST_SPEED),
        "cpu_steal_pct": reported(CPU_STEAL),
        "result": json.loads(lines[-1]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=2, help="alternating pairs per workload")
    parser.add_argument("--out", default=os.path.join(ROOT, "target", "perfguard.json"),
                        help="where this run's ledger rows go (overwritten)")
    parser.add_argument("--work", default=os.path.join(ROOT, "target", "perfguard"),
                        help="base checkout, build directories and run logs")
    args = parser.parse_args()
    started = time.monotonic()
    if args.pairs < 1:
        sys.exit("perfguard: --pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    work = os.path.abspath(args.work)
    os.makedirs(os.path.join(work, "logs"), exist_ok=True)
    # A tree a killed guard left at the build path is stale: the next
    # extraction and copy replace both sides.
    shutil.rmtree(os.path.join(work, "src"), ignore_errors=True)
    base_label = git("rev-parse", "--short=7", f"{args.base}^{{commit}}")
    base = {
        "name": "base",
        "label": base_label,
        "src": os.path.join(work, "base-src"),
        "target": os.path.join(work, "base-target"),
        "crates_tree": git("rev-parse", f"{args.base}^{{commit}}:crates"),
    }
    change = {
        "name": "change",
        "label": f"child of {base_label}",
        "src": os.path.join(work, "change-src"),
        "target": os.path.join(work, "change-target"),
        "crates_tree": worktree_crates_tree(),
    }
    extract(args.base, base["src"])
    copy_worktree(change["src"])

    rows = []
    total = args.pairs * len(workloads) * 2
    for i in range(args.pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        for workload in workloads:
            for side in order:
                row = run_one(side, workload, i + 1, seconds, work)
                if row is None:
                    return 1
                rows.append(row)
                cold = row["result"]["metrics"].get("cold_cpu_ms.p50", {}).get("value")
                print(f"perfguard: [{len(rows)}/{total}] {side['name']} {workload} "
                      f"seed {i + 1}: cold_cpu_ms.p50 {cold}", file=sys.stderr)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    print(f"perfguard: {len(rows)} runs, {time.monotonic() - started:.0f} s wall with the "
          f"builds, rows in {args.out}")
    verdict = subprocess.run([
        sys.executable, os.path.join(ROOT, "scripts", "benchdiff.py"),
        "--parent", base["label"], "--change", change["label"], "--ledger", args.out,
    ])
    return verdict.returncode


if __name__ == "__main__":
    sys.exit(main())
