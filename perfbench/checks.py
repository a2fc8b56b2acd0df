"""Output checks for one benchmark CLI call.

The checks never compare against fixed bytes, so they survive a change of
the program's random streams.  Each check is one (label, ok) pair, and every
failed pair counts toward the run's ``failed`` total.

Rate checks compare an estimate with a reference rate measured at an earlier
commit (``reference.json``).  An estimate passes when its count is no more
extreme than a 4-sigma normal deviation would be: its exact binomial tail
probability is at least Phi(-4) on each side, at some rate inside the
reference's own 4-sigma Wilson interval.  The exact tail replaces the normal
approximation, which is far too narrow for rates near 0 or 1.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HEADER = "name,q,k,n,trials,successes,estimate,ci_low,ci_high,analytic,seed"
MIN_BIN = 200  # verify zprime reports only bins with at least this many trials
SIGMAS = 4.0
TAIL = 0.5 * math.erfc(SIGMAS / math.sqrt(2.0))  # Phi(-4), one side

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict[str, tuple[int, int]]:
    """Reference counts keyed by ``rate_key``: (successes, trials)."""
    with open(REFERENCE_PATH) as fh:
        return {key: (int(s), int(t)) for key, (s, t) in json.load(fh)["rates"].items()}


def rate_key(kind: str, n: int, name: str) -> str:
    return f"{kind}/n{n}/{name}"


def parse_csv(text: str) -> tuple[str, list[dict[str, str]]]:
    """The header line and one dict per record; raises ValueError when malformed."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    columns = HEADER.split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"line {i} has {len(cells)} cells, expected {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return lines[0], rows


def wilson(successes: int, trials: int, z: float = SIGMAS) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _binom_pmf(x: int, n: int, p: float) -> float:
    if p <= 0.0:
        return float(x == 0)
    if p >= 1.0:
        return float(x == n)
    log = (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )
    return math.exp(log)


def binom_cdf(x: int, n: int, p: float) -> float:
    """P(X <= x) for X ~ Binomial(n, p)."""
    return min(1.0, sum(_binom_pmf(i, n, p) for i in range(0, x + 1)))


def binom_sf(x: int, n: int, p: float) -> float:
    """P(X >= x) for X ~ Binomial(n, p)."""
    return min(1.0, sum(_binom_pmf(i, n, p) for i in range(x, n + 1)))


def rate_consistent(successes: int, trials: int, ref: tuple[int, int]) -> bool:
    lo, hi = wilson(*ref)
    # too few successes even at the lowest plausible rate, or too many at the highest
    return binom_cdf(successes, trials, lo) >= TAIL and binom_sf(successes, trials, hi) >= TAIL


def _row_shape_ok(workload, seed: int, rows: list[dict[str, str]]) -> bool:
    """Row count, names and the (q, k, n, trials, seed) cells the argv fixes."""
    common = all(
        r["q"] == str(workload.q) and r["k"] == str(workload.k) and r["seed"] == str(seed)
        for r in rows
    )
    if workload.kind == "trend":
        return common and [(r["name"], r["n"], r["trials"]) for r in rows] == [
            ("block_success", str(n), str(workload.trials)) for n in workload.n_values
        ]
    if workload.kind == "crosscheck":
        return common and [(r["name"], r["n"], r["trials"]) for r in rows] == [
            ("serial_oracle_match", str(workload.n_values[0]), str(workload.trials))
        ]
    # zprime: one row per Z bin that reached MIN_BIN trials, bins ascending
    n = workload.n_values[0]
    prefix = "zprime_zero_given_z_"
    if not rows or len(rows) > n // workload.k + 1:
        return False
    if not all(r["name"].startswith(prefix) and r["n"] == str(n) for r in rows):
        return False
    bins = [int(r["name"][len(prefix):]) for r in rows]
    counts = [int(r["trials"]) for r in rows]
    return (
        common
        and bins == sorted(set(bins))
        and min(counts) >= MIN_BIN
        and sum(counts) <= workload.trials
    )


def check_call(workload, seed: int, code: int, stderr: str, out: bytes,
               reference: dict[str, tuple[int, int]]) -> list[tuple[str, bool]]:
    """Every check on one call's exit code, stderr and ``--out`` bytes."""
    checks = [
        ("exit code 0", code == 0),
        ("no FLAG line on stderr", not any(line.startswith("FLAG:") for line in stderr.splitlines())),
    ]
    try:
        header, rows = parse_csv(out.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return checks + [(f"well-formed CSV ({exc})", False)]
    checks.append(("CSV header", header == HEADER))
    try:
        shape_ok = _row_shape_ok(workload, seed, rows)
    except ValueError:  # a non-integer count or bin
        shape_ok = False
    checks.append((f"{len(rows)} rows as expected", shape_ok))
    if not shape_ok:
        return checks
    for r in rows:
        successes, trials = int(r["successes"]), int(r["trials"])
        if workload.kind == "crosscheck":
            checks.append(("serial_oracle_match equals the instance count", successes == trials))
            continue
        key = rate_key(workload.kind, int(r["n"]), r["name"])
        ref = reference.get(key)
        checks.append((
            f"{key} = {successes}/{trials} within {SIGMAS:.0f} sigma of reference {ref}",
            ref is not None and rate_consistent(successes, trials, ref),
        ))
    return checks


def check_digests(digests: list[str], key: str, store: Path) -> list[tuple[str, bool]]:
    """All calls of a run, and all earlier runs stored under key, share one digest.

    The store maps key -> sha256; the first run for a key records it.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    expected = known.get(key, digests[0])
    if key not in known:
        known[key] = expected
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
    return [(f"--out sha256 {d[:12]} matches {expected[:12]} ({key})", d == expected) for d in digests]
