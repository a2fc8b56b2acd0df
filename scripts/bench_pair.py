#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

Extracts the base revision with ``git archive`` into one temporary
directory, and copies the working tree's files that git tracks or would
add (new and not ignored), as they are now, into another: neither side
runs in the checkout, where ``crosscheck_k3`` once ran about 6% slower
than the same files copied elsewhere on the same disk.  Then runs
``perfbench/run.py`` alternately in the two copies, ten pairs for every
workload of ``BENCHMARK.json``, with the measuring time ``run_seconds``
from there.  Which side runs first alternates from pair to pair, so a
drifting host loads both alike.  Writes every run's result and ``meta``
lines, the ``src/`` line counts of both copies and a per-workload
summary to ``--out``.  From the repository root:

    python3 scripts/bench_pair.py --base HEAD~1 --out BENCH_new.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((root / "src").rglob("*.py")))


def extract(rev: str, dest: Path) -> str:
    """The base revision's files in dest; returns its full hash."""
    full = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True)
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return full.stdout.strip()


def copy_worktree(dest: Path) -> None:
    """The working tree's tracked files and its new files that are not ignored, as they are now, in dest."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True)
    for name in filter(None, listed.stdout.decode().split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


# A process takes the peak RSS of the process it was forked from as its own
# ru_maxrss, so each run is started from this small interpreter, not from
# the harness, and its peak_rss_mb reads the workload.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def one_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {root}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return {"result": json.loads(lines[-1]), "meta": meta}


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list[dict], workload: str) -> dict:
    def rates(side):
        return [r["result"]["metrics"]["trials_per_s"]["value"] for r in runs
                if r["workload"] == workload and r["side"] == side]

    base, change = rates("base"), rates("change")
    return {
        "trials_per_s_base_quartiles": quartiles(base),
        "trials_per_s_change_quartiles": quartiles(change),
        "median_ratio": statistics.median(change) / statistics.median(base),
        "pairs_change_faster": sum(c > b for b, c in zip(base, change)),
        "pairs": len(base),
        "failed_checks": sum(r["result"]["failed"] for r in runs if r["workload"] == workload),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seed", type=int, default=7, help="workload seed")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory() as base_tmp, tempfile.TemporaryDirectory() as change_tmp:
        base_root, change_root = Path(base_tmp), Path(change_tmp)
        base_rev = extract(args.base, base_root)
        copy_worktree(change_root)
        sides = {"base": base_root, "change": change_root}
        runs = []
        for workload in workloads:
            for pair in range(PAIRS):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = one_run(sides[side], workload, args.seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side, **run})
                    rate = run["result"]["metrics"]["trials_per_s"]["value"]
                    print(f"{workload} pair {pair} {side}: trials_per_s {rate:.1f}", file=sys.stderr)
        record = {
            "base_rev": base_rev,
            "run_seconds": seconds,
            "seed": args.seed,
            "src_lines": {side: src_lines(root) for side, root in sides.items()},
            "summary": {w: summarize(runs, w) for w in workloads},
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
