#!/usr/bin/env python3
"""Regenerate reference.json: the rates the benchmark's rate checks compare against.

Run from the repository root (about 5 minutes on 2 CPUs):

    python3 perfbench/make_reference.py

It runs the trend and zprime shapes of the benchmark workloads through the
CLI with many more trials, at a seed no benchmark run defaults to, and
records every row's successes and trials.  Rerun it only when the sampled
distributions are meant to change; a change of random streams alone keeps
the rates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402

REFERENCE_SEED = 20231017
SCALE = {"trend": 4000, "zprime": 20000}  # trials per row


def main() -> int:
    program = run.load_program()
    run.STATE_DIR.mkdir(parents=True, exist_ok=True)
    out = run.STATE_DIR / "reference.out"
    rates = {}
    for wl in run.WORKLOADS.values():
        if wl.kind not in SCALE:
            continue
        big = run.Workload(wl.name, wl.kind, wl.k, wl.n_values, SCALE[wl.kind], jobs=2, q=wl.q)
        call = run.call_cli(program, big.argv(REFERENCE_SEED, out), out)
        if call.code != 0:
            print(call.stderr, file=sys.stderr)
            return 1
        _, rows = checks.parse_csv(call.out.decode())
        for r in rows:
            rates[checks.rate_key(wl.kind, int(r["n"]), r["name"])] = [int(r["successes"]), int(r["trials"])]
        print(f"{wl.name}: {len(rows)} rows in {call.seconds:.1f} s", file=sys.stderr)
    doc = {
        "about": "successes and trials per row at q=3, from perfbench/make_reference.py",
        "seed": REFERENCE_SEED,
        "trials_per_row": SCALE,
        "rates": rates,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
