#!/usr/bin/env python3
"""Check that a base revision and the working tree give the same CLI results.

Extracts the base revision with ``git archive`` into a temporary
directory, then runs one fixed list of ``fqexchange`` commands in that
copy and in the working tree, each side in its own scratch directory with
the same relative file names.  Every difference in exit code, stdout,
stderr or ``--out`` bytes is printed; the exit code is 1 when there is
any, else 0.  From the repository root:

    python3 scripts/same_bytes.py --base HEAD~1

The list holds the nine commands of acceptance criterion 11, ``exhaustive``
at (q, n) = (2, 2), (3, 3) and (3, 4), at (2, 4) (GF(2) in sampled mode)
and at (3, 2) (all 2304 basis pairs enumerated, the largest single
stack), ``crosscheck`` at q = 3 with k = 2
(which exits 1 with its gap flag), 3 and 5, and at q = 9 with k = 4 and
with k = 2 at n = 5 (its ``two_serial_certified`` row counts the two-way
pairs drawn, so a change in the crosscheck draw shows even with no flag),
``serial`` in both modes on two generated GF(3) bases, three GF(3)
``trend`` rows for the serial search at larger k and in the all-subsets
search: k = 4 at n = 20, k = 6 at n = 40, and k = 3 at n = 12 with
``--exhaustive``, a GF(251) ``trend`` row, whose field-table indices
x * q + y come next to 2^16, ``verify zprime`` over the extension field
GF(125), ``verify zprime`` at n = 40 with ``--jobs 2``, through the
process pool, and a short ``estimate alpha`` at k = 4 over GF(2) and over
every other tabled extension field (q = 4, 8, 16, 25, 27, 32, 49, 64, 81
and 121), so that every tabled extension field is read by some command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pair import ROOT, extract

SEED = "271828"


def _matrix_text(q: int, n: int, seed: int) -> str:
    """A nonsingular n x n matrix over GF(q), q prime: unit lower times unit upper triangular."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.integers(0, q, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, q, (n, n)), 1) + np.eye(n, dtype=np.int64)
    rows = (lower @ upper) % q
    return f"{q} {n} {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


FILES = {
    "id4.mat": "3 4 4\n" + "".join(" ".join("1" if i == j else "0" for j in range(4)) + "\n" for i in range(4)),
    "b1.mat": _matrix_text(3, 6, 1),
    "b2.mat": _matrix_text(3, 6, 2),
}

COMMANDS = {
    "estimate_alpha": ["estimate", "alpha", "--q", "3", "--k", "2", "--trials", "5000", "--seed", SEED],
    "estimate_beta": ["estimate", "beta", "--q", "3", "--k", "3", "--trials", "5000", "--seed", SEED],
    "trend": ["trend", "--q", "3", "--k", "2", "--n", "8", "--n", "12", "--trials", "300", "--seed", SEED],
    "verify_conditional": ["verify", "conditional", "--q", "3", "--k", "2", "--n", "10", "--trials", "1500", "--seed", SEED],
    "verify_zprime": ["verify", "zprime", "--q", "3", "--k", "2", "--n", "12", "--trials", "2500", "--seed", SEED],
    "crosscheck": ["crosscheck", "--q", "3", "--k", "3", "--n", "5", "--instances", "60", "--seed", SEED],
    "exhaustive": ["exhaustive", "--q", "2", "--n", "2", "--seed", SEED],
    "serial": ["serial", "--b1", "id4.mat", "--b2", "id4.mat", "--x1", "0,1"],
    "trend_json": ["trend", "--q", "3", "--k", "2", "--n", "8", "--trials", "200", "--seed", SEED, "--format", "json"],
    "exhaustive_q3_n3": ["exhaustive", "--q", "3", "--n", "3", "--pairs", "200", "--seed", SEED],
    "exhaustive_q3_n4": ["exhaustive", "--q", "3", "--n", "4", "--pairs", "200", "--seed", SEED],
    "exhaustive_q2_n4": ["exhaustive", "--q", "2", "--n", "4", "--pairs", "200", "--seed", SEED],
    "exhaustive_q3_n2": ["exhaustive", "--q", "3", "--n", "2", "--seed", SEED],
    "crosscheck_k2": ["crosscheck", "--q", "3", "--k", "2", "--n", "6", "--instances", "500", "--seed", SEED],
    "crosscheck_k3": ["crosscheck", "--q", "3", "--k", "3", "--n", "6", "--instances", "500", "--seed", SEED],
    "crosscheck_k5": ["crosscheck", "--q", "3", "--k", "5", "--n", "6", "--instances", "4", "--seed", SEED],
    "crosscheck_q9_k4": ["crosscheck", "--q", "9", "--k", "4", "--n", "8", "--instances", "60", "--seed", SEED],
    "crosscheck_q9_k2": ["crosscheck", "--q", "9", "--k", "2", "--n", "5", "--instances", "500", "--seed", SEED],
    "serial_blocks": ["serial", "--b1", "b1.mat", "--b2", "b2.mat", "--x1", "0,3", "--mode", "blocks"],
    "serial_all_subsets": ["serial", "--b1", "b1.mat", "--b2", "b2.mat", "--x1", "0,3", "--mode", "all_subsets"],
    "trend_k4": ["trend", "--q", "3", "--k", "4", "--n", "20", "--trials", "128", "--seed", SEED],
    "trend_k6": ["trend", "--q", "3", "--k", "6", "--n", "40", "--trials", "64", "--seed", SEED],
    "trend_exhaustive": ["trend", "--q", "3", "--k", "3", "--n", "12", "--trials", "100", "--seed", SEED, "--exhaustive"],
    "trend_q251": ["trend", "--q", "251", "--k", "2", "--n", "12", "--trials", "200", "--seed", SEED],
    "verify_zprime_q125": ["verify", "zprime", "--q", "125", "--k", "2", "--n", "12", "--trials", "1000", "--seed", SEED],
    "verify_zprime_jobs2": ["verify", "zprime", "--q", "3", "--k", "2", "--n", "40", "--trials", "2048", "--seed", SEED,
                            "--jobs", "2"],
    **{f"estimate_alpha_q{q}": ["estimate", "alpha", "--q", str(q), "--k", "4", "--trials", "1000", "--seed", SEED]
       for q in (2, 4, 8, 16, 25, 27, 32, 49, 64, 81, 121)},
}


def run_all(root: Path, work: Path) -> dict[str, tuple[int, str, str, bytes | None]]:
    """Exit code, stdout, stderr and --out bytes of every command, run from work."""
    work.mkdir()
    for name, text in FILES.items():
        (work / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    results = {}
    for name, argv in COMMANDS.items():
        out = work / f"{name}.out"
        done = subprocess.run([sys.executable, "-m", "fqexchange.cli", *argv, "--out", out.name],
                              cwd=work, env=env, capture_output=True, text=True)
        results[name] = (done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp) / "base"
        full = extract(args.base, base_root)
        base = run_all(base_root, Path(tmp) / "base_work")
        change = run_all(ROOT, Path(tmp) / "change_work")
    differ = 0
    for name in COMMANDS:
        fields = [f for f, b, c in zip(("exit code", "stdout", "stderr", "--out bytes"), base[name], change[name]) if b != c]
        differ += bool(fields)
        print(f"{name}: exit {change[name][0]}, " + ("differs in " + ", ".join(fields) if fields else "same"))
    print(f"{differ} of {len(COMMANDS)} commands differ from {full[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
