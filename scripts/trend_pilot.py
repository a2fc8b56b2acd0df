#!/usr/bin/env python3
"""Calibration run behind the trend acceptance thresholds.

Runs the block-success trend at the acceptance scale and prints the raw
table: estimates, Wilson intervals, the analytic tail envelope, and the
gap between the first and last rows.  The asymptotic statement gives no
finite-n rate, so the final-row floor (0.95) and the gap requirement were
frozen from this output rather than derived.
"""

import argparse
import time

from fqexchange.experiments import ExperimentConfig, trend


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--n", type=int, action="append", default=None)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=271828)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    n_values = tuple(args.n) if args.n else (8, 16, 32, 64, 80)

    config = ExperimentConfig(
        q=args.q, k=args.k, n_values=n_values, trials=args.trials, seed=args.seed
    )
    t0 = time.time()
    rows = [r for r in trend(config, jobs=args.jobs).records if r.name == "block_success"]
    print(f"# q={args.q} k={args.k} trials={args.trials} seed={args.seed}")
    print(f"{'n':>5} {'estimate':>9} {'ci_low':>8} {'ci_high':>8} {'analytic':>10}")
    for r in rows:
        analytic = f"{r.analytic:.4g}" if r.analytic is not None else "n/a"
        print(f"{r.n:>5} {r.estimate:>9.4f} {r.ci_low:>8.4f} {r.ci_high:>8.4f} {analytic:>10}")
    first, last = rows[0], rows[-1]
    gap = last.estimate - first.estimate
    halfwidths = (last.ci_high - last.ci_low) / 2 + (first.ci_high - first.ci_low) / 2
    print(f"# gap first->last: {gap:.4f}  (sum of CI half-widths: {halfwidths:.4f})")
    print(f"# wall time: {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
