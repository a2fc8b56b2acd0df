#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

Extracts the base revision with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py`` alternately in that copy and in
the working tree, ten pairs for every workload of ``BENCHMARK.json``,
with the measuring time ``run_seconds`` from there.  Which side runs
first alternates from pair to pair, so a drifting host loads both alike.
Writes every run's result and ``meta`` lines, the ``src/`` line counts of
both sides and a per-workload summary to ``--out``.  From the repository
root:

    python3 scripts/bench_pair.py --base HEAD~1 --out BENCH_new.json
"""

from __future__ import annotations

import argparse
import json
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
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return full.stdout.strip()


def one_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
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

    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp)
        base_rev = extract(args.base, base_root)
        sides = {"base": base_root, "change": ROOT}
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
