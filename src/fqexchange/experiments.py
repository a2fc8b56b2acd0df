"""Named, reproducible experiments with confidence intervals and reports.

Every experiment is a pure function of its config: the Monte Carlo runs go
in fixed chunks of _CHUNK trials, each drawn from one generator keyed by
(seed, row, its first trial) and scored as one stack, chunks combine in a
fixed order, and record emission is sorted, so reruns reproduce
byte-identical CSV and JSON.  A chunk searches only what its experiment
reads: trend and verify zprime each trial's blocks up to its first
serial one, verify conditional none.  Worker processes only change wall
time, never output; they are forked after the caller has imported
numpy.random, so no worker imports it on its first chunk.  The
crosscheck draws each chunk of instances whole from one generator,
(seed, 0, chunk start), with chunk bounds set by n alone.

Flag convention: a bound comparison is flagged when the empirical value
falls more than four standard errors (computed at the bound) on the wrong
side.  Two-sigma flags would false-alarm too often across the many
simultaneous comparisons a report makes.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field, fields
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations, product
from typing import IO, Optional

import numpy as np

from . import exchange  # _SLICE_ENTRIES is read through the module, so a patched value holds here too
from .exchange import (
    SUBSET_GATE,
    SerialCertificate,
    _columns,
    _first_partner,
    _reduced_pairs,
    _search_stack,
    _serial_ok,
    _swap_bases,
    _two_way,
)
from .exchange import serial_check  # no caller here; perfbench/tracing.py PATCHES wraps this binding
from .gf import make_field
from .matfq import _nonsingular, _sequential, alpha, beta, nonsingular_count, random_full_ranks
from .randmodel import derive_rng, sample_instances, sample_reduced, score_reduced, theorem_tail, zprime_zero_bound
from .randmodel import run_trial  # no caller here; perfbench/tracing.py PATCHES wraps this binding

_CHUNK = 512
_MAX_DRAW_BYTES = 1 << 24  # largest (chunk, k, k) uint8 draw an estimate chunk may make
_MAX_CROSSCHECK_K = 5  # the oracle reads (k!)^2 ordering pairs per instance, 14 400 at k = 5
_CROSSCHECK_CHUNK = 256  # instances per crosscheck stack; 512 cost 1.3 MB more peak RSS at (3, 3, 6), no less time
_WILSON_Z = 1.959963984540054  # two-sided 95%
_FLAG_SIGMAS = 4.0
_TREND_C = _TREND_EPSILON = Fraction(1, 20)  # the theorem_tail constants of the trend's analytic column
_MIN_BIN = 200  # trials a verify_zprime conditioning bin needs before it is reported
_ENUMERATE_LIMIT = 5000  # most basis pairs exhaustive_small enumerates instead of sampling


class InsufficientData(ValueError):
    """No conditioning bin reached the sample floor."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the Monte Carlo experiments."""

    q: int
    k: int
    n_values: tuple[int, ...]
    trials: int
    seed: int
    exhaustive: bool = False
    gate: int = SUBSET_GATE

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        make_field(self.q)  # rejects unsupported q early
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.k < 0:
            raise ValueError(f"need k >= 0, got {self.k}")
        for n in self.n_values:
            if n < self.k:
                raise ValueError(f"n = {n} below k = {self.k}")


@dataclass(frozen=True)
class EstimateResult:
    """A point estimate with its Wilson 95% interval."""

    name: str
    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int
    runtime: float


@dataclass(frozen=True)
class Record:
    """One serializable report line; None renders as n/a (CSV) or null (JSON)."""

    name: str
    q: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    trials: Optional[int] = None
    successes: Optional[int] = None
    estimate: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    analytic: Optional[float] = None
    seed: Optional[int] = None


@dataclass
class Report:
    records: list[Record]
    flags: list[str] = dataclass_field(default_factory=list)
    metadata: dict = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class TrendRow:
    n: int
    block: EstimateResult
    subset: Optional[EstimateResult]
    analytic: Optional[float]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval; stays inside [0, 1] and contains the estimate."""
    z = _WILSON_Z
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"bad counts: {successes}/{trials}")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # rounding can push an endpoint a few ulps past the estimate; the
    # interval must contain it
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return low, high


def _record(name: str, successes: int, trials: int, *, bounded: bool = True, **other) -> Record:
    """One report row with estimate = successes / trials, and Wilson bounds if bounded."""
    low, high = wilson_interval(successes, trials) if bounded else (None, None)
    return Record(name, trials=trials, successes=successes, estimate=successes / trials, ci_low=low, ci_high=high, **other)


def _estimate(successes: int, trials: int, name: str, seed: int, runtime: float) -> EstimateResult:
    low, high = wilson_interval(successes, trials)
    return EstimateResult(name, successes, trials, successes / trials, low, high, seed, runtime)


def _map_chunks(worker, args_list, jobs: int):
    workers = min(jobs, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in args_list]
    import numpy.random  # noqa: F401  forked workers inherit it instead of each importing it on its first chunk
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, args_list))


def _chunk_ranges(trials: int):
    return [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]


# --- matrix-level estimators ---


def _estimate_chunk(args) -> int:
    # one stream per chunk, keyed by the chunk start; chunk bounds do not
    # depend on jobs, so neither does any matrix drawn
    kind, q, k, seed, lo, hi = args
    fld = make_field(q)
    draws = derive_rng(seed, 0, lo).integers(0, q, size=(hi - lo, k, k), dtype=np.uint8)
    test = _nonsingular if kind == "alpha" else _sequential
    return int(test(draws, fld).sum())


def _run_estimate(config: ExperimentConfig, kind: str, jobs: int) -> EstimateResult:
    if _CHUNK * config.k**2 > _MAX_DRAW_BYTES:
        raise ValueError(
            f"k = {config.k} needs {_CHUNK * config.k**2} bytes per {_CHUNK}-trial draw, "
            f"above the {_MAX_DRAW_BYTES}-byte limit"
        )
    t0 = time.perf_counter()
    args = [(kind, config.q, config.k, config.seed, lo, hi) for lo, hi in _chunk_ranges(config.trials)]
    successes = sum(_map_chunks(_estimate_chunk, args, jobs))
    return _estimate(successes, config.trials, kind, config.seed, time.perf_counter() - t0)


def estimate_alpha(config: ExperimentConfig, jobs: int = 1) -> EstimateResult:
    """Fraction of uniform random k x k matrices that are nonsingular."""
    return _run_estimate(config, "alpha", jobs)


def estimate_beta(config: ExperimentConfig, jobs: int = 1) -> EstimateResult:
    """Fraction of uniform random k x k matrices with sequential full rank."""
    return _run_estimate(config, "beta", jobs)


# --- trial-level experiments ---


@dataclass
class _TrialTotals:
    trials: int
    x_succ: np.ndarray
    y_succ: np.ndarray
    block_hits: int
    subset_hits: int
    subset_ran: int
    z_hist: np.ndarray
    zprime_zero_by_z: np.ndarray


def _trial_chunk(args, search: str = "first") -> _TrialTotals:
    # search as in randmodel.score_reduced: "first" finds every hit; "none", for callers that
    # read the x and y bits only, finds none, so block_hits reads 0
    q, k, n, seed, row, lo, hi, exhaustive, gate = args
    fld = make_field(q)
    r, c = sample_reduced(derive_rng(seed, row, lo), hi - lo, n, k, fld)
    x, y, serial, subset = score_reduced(r, c, fld, search=search, exhaustive=exhaustive, gate=gate)
    if (serial & ~(x & y)).any():
        raise ValueError("a serial block must be two-way")
    z = (x & y).sum(axis=1)
    hit = serial.any(axis=1)
    ell = n // k
    subset_ran, subset_hits = (0, 0) if subset is None else (len(subset), int(subset.sum()))
    return _TrialTotals(hi - lo, x.sum(axis=0), y.sum(axis=0), int(hit.sum()), subset_hits, subset_ran,
                        np.bincount(z, minlength=ell + 1), np.bincount(z[~hit], minlength=ell + 1))


def _run_trials(config: ExperimentConfig, n: int, row: int, jobs: int, search: str = "first") -> _TrialTotals:
    args = [
        (config.q, config.k, n, config.seed, row, lo, hi, config.exhaustive, config.gate)
        for lo, hi in _chunk_ranges(config.trials)
    ]
    parts = _map_chunks(partial(_trial_chunk, search=search), args, jobs)
    return _TrialTotals(*(sum(getattr(p, f.name) for p in parts) for f in fields(_TrialTotals)))


def trend(config: ExperimentConfig, jobs: int = 1) -> list[TrendRow]:
    """Estimate the no-serial-block failure rate shrinking as n grows.

    One row per n, each from its own seed stream.  The analytic column is
    the closed-form tail envelope at c = epsilon = 1/20 and only exists
    for q > 2.
    """
    if not config.n_values:
        raise ValueError("n_values must be nonempty")
    if list(config.n_values) != sorted(config.n_values):
        raise ValueError("n_values must be ascending")
    rows = []
    for row_idx, n in enumerate(config.n_values):
        t0 = time.perf_counter()
        totals = _run_trials(config, n, row_idx, jobs)
        dt = time.perf_counter() - t0
        block = _estimate(totals.block_hits, totals.trials, "block_success", config.seed, dt)
        subset = None
        if totals.subset_ran:
            subset = _estimate(totals.subset_hits, totals.subset_ran, "subset_success", config.seed, dt)
        analytic = float(theorem_tail(n, config.k, config.q, _TREND_C, _TREND_EPSILON)) if config.q > 2 else None
        rows.append(TrendRow(n, block, subset, analytic))
    return rows


def report_from_trend(config: ExperimentConfig, rows: list[TrendRow]) -> Report:
    records = []
    flags = []
    for row in rows:
        common = dict(q=config.q, k=config.k, n=row.n, seed=config.seed)
        records.append(_record(row.block.name, row.block.successes, row.block.trials, analytic=row.analytic, **common))
        if row.subset is not None:
            records.append(_record(row.subset.name, row.subset.successes, row.subset.trials, **common))
    if config.q > 2:
        for prev, cur in zip(rows, rows[1:]):
            decreasing = cur.block.estimate < prev.block.estimate
            disjoint = cur.block.ci_high < prev.block.ci_low or prev.block.ci_high < cur.block.ci_low
            if decreasing and disjoint:
                flags.append(
                    f"block_success dropped from {prev.block.estimate:.4f} (n={prev.n}) "
                    f"to {cur.block.estimate:.4f} (n={cur.n}) beyond CI overlap"
                )
    records.sort(key=lambda r: (r.n, r.name))
    metadata = {
        "experiment": "trend",
        "threshold_basis": "pilot-calibrated",
        "c": str(_TREND_C),
        "epsilon": str(_TREND_EPSILON),
        "k_le_ln_n": {n: config.k <= math.log(n) for n in config.n_values},
    }
    return Report(records, flags, metadata)


def verify_conditional_bounds(config: ExperimentConfig, jobs: int = 1) -> Report:
    """Empirical per-block one-way exchange rates against the alpha_k floor.

    Flags any block whose estimate sits more than four standard errors
    (at the bound) below alpha_k.
    """
    bound = alpha(config.k, config.q)
    bound_f = float(bound)
    records = []
    flags = []
    for row_idx, n in enumerate(config.n_values):
        totals = _run_trials(config, n, row_idx, jobs, search="none")  # reads the x and y bits only
        sigma = math.sqrt(bound_f * (1 - bound_f) / totals.trials)
        ell = n // config.k
        for i in range(ell):
            for label, succ in (("X", int(totals.x_succ[i])), ("Y", int(totals.y_succ[i]))):
                rec = _record(f"{label}_block_{i}", succ, totals.trials, q=config.q, k=config.k, n=n,
                              analytic=bound_f, seed=config.seed)
                records.append(rec)
                est = rec.estimate
                if est < bound_f - _FLAG_SIGMAS * sigma:
                    flags.append(
                        f"{label}_block_{i} at n={n}: estimate {est:.4f} is more than "
                        f"{_FLAG_SIGMAS:.0f} sigma below alpha = {bound_f:.4f}"
                    )
    records.sort(key=lambda r: (r.n, r.name))
    metadata = {"experiment": "verify_conditional", "alpha_bound": str(bound)}
    return Report(records, flags, metadata)


def verify_zprime_bound(config: ExperimentConfig, jobs: int = 1) -> Report:
    """Conditional no-serial-block rate, binned by the two-way count.

    Only bins holding at least _MIN_BIN trials are reported; a bin is
    flagged when its empirical rate exceeds the (1 - beta_k)^s ceiling by
    more than four standard errors at the ceiling.
    """
    records = []
    flags = []
    for row_idx, n in enumerate(config.n_values):
        totals = _run_trials(config, n, row_idx, jobs)
        ell = n // config.k
        for s in range(ell + 1):
            count = int(totals.z_hist[s])
            if count < _MIN_BIN:
                continue
            bound = zprime_zero_bound(s, config.k, config.q)
            sigma = math.sqrt(bound * (1 - bound) / count)
            rec = _record(f"zprime_zero_given_z_{s}", int(totals.zprime_zero_by_z[s]), count, q=config.q,
                          k=config.k, n=n, analytic=bound, seed=config.seed)
            records.append(rec)
            est = rec.estimate
            if est > bound + _FLAG_SIGMAS * sigma:
                flags.append(
                    f"zprime_zero_given_z_{s} at n={n}: estimate {est:.5f} exceeds "
                    f"bound {bound:.5f} by more than {_FLAG_SIGMAS:.0f} sigma"
                )
    if not records:
        raise InsufficientData(f"no conditioning bin reached {_MIN_BIN} samples")
    records.sort(key=lambda r: (r.n, int(r.name.rsplit("_", 1)[1])))
    metadata = {"experiment": "verify_zprime", "min_bin": _MIN_BIN}
    return Report(records, flags, metadata)


# --- oracle cross-checks ---


@cache
def _ordering_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The prefix states of a pair of k-sets, and the states each ordering pair passes through.

    A state (S, T) pairs two sets of one size s, 1 <= s <= k, of indices
    into the two k-sets: S swapped against T is a prefix family, whatever
    order either was reached in.  States go by size, then lexicographically, so the last is
    the whole pair.  ones[p] and twos[p] list state p's S and T sorted,
    padded to length k by repeating their last entry (a repeated position
    swaps once, see exchange._swap_maps).  orders lists the k!
    permutations, and path[a * k! + b, i] is the state of prefix i + 1 of
    the ordering pair (orders[a], orders[b]), pairs in product order.
    """
    levels = [list(combinations(range(k), s)) for s in range(1, k + 1)]
    states = [(u, v) for sets in levels for u in sets for v in sets]
    ones, twos = (np.array([state[side] + state[side][-1:] * (k - len(state[side])) for state in states],
                            dtype=np.intp).reshape(len(states), k) for side in (0, 1))
    orders = np.array(list(permutations(range(k))), dtype=np.intp).reshape(math.factorial(k), k)
    # state (S, T) of size s is first[s - 1] + rank(S) * C(k, s) + rank(T), ranks within combinations order
    sizes = np.array([len(sets) for sets in levels], dtype=np.intp)
    first = np.cumsum([0, *sizes**2])[:-1]
    rank = np.array([[levels[i].index(tuple(sorted(a[:i + 1]))) for i in range(k)] for a in orders.tolist()],
                    dtype=np.intp).reshape(len(orders), k)
    path = first + rank[:, None] * sizes + rank[None, :]
    return ones, twos, orders, path.reshape(len(orders) ** 2, k)


def _brute_force_serial(
    cols: np.ndarray, x1: np.ndarray, x2: np.ndarray, field
) -> tuple[list[SerialCertificate | None], np.ndarray]:
    """Every ordering pair of each instance of a stack, read from a table of its prefix states.

    cols is a (B, 2n, n) stack of exchange._columns and x1 and x2 (B, k)
    position arrays.  Each of the C(2k, k) - 1 prefix states of an instance
    (_ordering_table) is swapped in full coordinates once, both ways, in
    stacked exchange._swap_bases calls of at most _SLICE_ENTRIES gathered
    entries; then each of the (k!)^2 ordering pairs reads its k prefixes
    from that table, in slices of instances of at most _SLICE_ENTRIES
    reads.  Gives each instance's first pair, in permutations order, whose
    every prefix replacement is a basis on both sides, and whether its
    whole sets swap to bases both ways (two-way exchangeable).
    """
    k, n = x1.shape[-1], cols.shape[-1]
    ones, twos, orders, path = _ordering_table(k)
    valid = np.empty((len(cols), len(ones)), dtype=bool)
    flat = valid.reshape(-1)
    step = max(1, exchange._SLICE_ENTRIES // max(2 * n * n, 1))
    for lo in range(0, flat.size, step):
        pair, state = np.divmod(np.arange(lo, min(lo + step, flat.size)), len(ones))
        at = pair[:, None]
        flat[lo:lo + step] = _swap_bases(cols, pair, x1[at, ones[state]], x2[at, twos[state]], field).all(axis=-1)
    certs = []
    group = max(1, exchange._SLICE_ENTRIES // max(path.size, 1))
    for lo in range(0, len(valid), group):
        ok = valid[lo:lo + group, path].all(axis=-1)
        for i, first in enumerate(ok.argmax(axis=1).tolist(), start=lo):
            a, b = divmod(first, len(orders))
            certs.append(SerialCertificate(tuple(x1[i, orders[a]].tolist()), tuple(x2[i, orders[b]].tolist()))
                         if ok[i - lo, first] else None)
    return certs, valid[:, -1] if k else np.ones(len(cols), dtype=bool)


def crosscheck_serial(config: ExperimentConfig, instances: int) -> Report:
    """Backtracking verdicts against exhaustive ordering enumeration.

    k is at most 5, since the enumeration reads (k!)^2 ordering pairs per
    instance.  Instances go in chunks of step instances, step set by n
    alone, and chunk lo is drawn whole by one randmodel.sample_instances
    call on derive_rng(seed, 0, lo), so instance t is fixed by (seed, n,
    t) whatever the instance count.  Each step of a chunk is a stacked
    array program: every reduced pair in one solve, the backtracking
    search where both full blocks pass, the certificate checks in full
    coordinates (exchange._serial_ok, one ordering pair an instance), and
    the enumeration from one table of prefix states (_brute_force_serial),
    whose whole-set state is the two-way test.
    For k <= 2 it also counts the two-way exchangeable pairs and, among
    them, the serially certified ones, and flags the shortfall against
    the claim that every two-way exchangeable pair is serially
    exchangeable.  That claim is false (see README), so a flag here is a
    finding, not a bug.
    """
    k = config.k
    if k > _MAX_CROSSCHECK_K:
        raise ValueError(
            f"k = {k} means (k!)^2 = {math.factorial(k) ** 2} ordering pairs per instance; "
            f"crosscheck allows k <= {_MAX_CROSSCHECK_K}"
        )
    n = config.n_values[0]
    fld = make_field(config.q)
    mismatches = []
    matches = unsound = two_serial_total = two_serial_ok = 0
    step = max(1, min(_CROSSCHECK_CHUNK, _MAX_DRAW_BYTES // (8 * n * n)))  # the solve holds 8 n^2 entries an instance
    for lo in range(0, instances, step):
        size = min(step, instances - lo)
        m1, m2, x1, x2 = (a[:size] for a in sample_instances(derive_rng(config.seed, 0, lo), step, n, k, fld))
        certs = _search_stack(*_reduced_pairs(m1, m2, fld), x1, x2, fld)
        cols = _columns(m1, m2)
        found = [i for i, cert in enumerate(certs) if cert is not None]
        sigma, tau = (np.array([getattr(certs[i], side) for i in found], dtype=np.intp).reshape(len(found), k)
                      for side in ("sigma", "tau"))
        sound = np.ones(size, dtype=bool)
        sound[found] = _serial_ok(cols[found], sigma, tau, fld)
        kept = np.flatnonzero(sound)
        enumerated, full = _brute_force_serial(cols[kept], x1[kept], x2[kept], fld)
        oracle = dict(zip(kept.tolist(), enumerated))
        two_way = set(kept[full].tolist()) if k <= 2 else set()
        for i, cert in enumerate(certs):
            if not sound[i]:
                unsound += 1
                mismatches.append(f"instance {lo + i}: returned certificate fails verification")
                continue
            if (cert is None) == (oracle[i] is None):
                matches += 1
            else:
                mismatches.append(
                    f"instance {lo + i}: backtracking={'Some' if cert else 'None'} "
                    f"enumeration={'Some' if oracle[i] else 'None'}"
                )
            two_serial_total += i in two_way
            two_serial_ok += i in two_way and cert is not None
    tally = [("serial_oracle_match", matches, instances)]
    if two_serial_total:  # counted for k <= 2 only
        tally.append(("two_serial_certified", two_serial_ok, two_serial_total))
    if two_serial_ok < two_serial_total:
        mismatches.append(
            f"{two_serial_total - two_serial_ok} two-way exchangeable pairs with k <= 2 "
            "had no serial certificate"
        )
    records = [_record(*t, bounded=False, q=config.q, k=k, n=n, analytic=1.0, seed=config.seed) for t in tally]
    metadata = {"experiment": "crosscheck_serial", "instances": instances, "unsound": unsound}
    return Report(records, mismatches, metadata)


def _all_bases(q: int, n: int) -> np.ndarray:
    """Every nonsingular n x n matrix over GF(q), as a stack."""
    fld = make_field(q)
    every = np.array(list(product(range(q), repeat=n * n)), dtype=np.uint8).reshape(-1, n, n)
    return every[_nonsingular(every, fld)]


def exhaustive_small(q: int, n: int, seed: int = 0, sample_pairs: int = 200) -> Report:
    """Witness existence for set exchange and symmetric exchange.

    Enumerates every ordered basis pair when the pair count is within
    _ENUMERATE_LIMIT, otherwise samples sample_pairs pairs, all their bases
    one random_full_ranks stack from derive_rng(seed, 0, 0), the B1s
    first.  Every (pair, subset) case must produce a set-exchange witness
    and every (pair, element) case a symmetric partner.  All pairs go as
    one stack: one solve gives every reduced pair, each subset x1 is one
    exchange._first_partner scan with exchange._two_way over all of them,
    and the symmetric partners of every (pair, element) are one array
    step, a single swap being a basis iff its 1 x 1 minor is nonzero.
    """
    if q not in (2, 3) or n > 4 or n < 1:
        raise ValueError("exhaustive check supports q in {2, 3} and 1 <= n <= 4")
    fld = make_field(q)
    if nonsingular_count(n, q) ** 2 <= _ENUMERATE_LIMIT:
        bases = _all_bases(q, n)
        m1, m2 = np.repeat(bases, len(bases), axis=0), np.tile(bases, (len(bases), 1, 1))
        mode = "enumerated"
    else:
        m1, m2 = np.split(random_full_ranks(derive_rng(seed, 0, 0), 2 * sample_pairs, n, fld), 2)
        mode = "sampled"
    vp, up = _reduced_pairs(m1, m2, fld)
    flags = []
    subsets = [c for size in range(1, n + 1) for c in combinations(range(n), size)]
    gw_ok = 0
    for x1 in subsets:
        ones = np.tile(np.array(x1, dtype=np.intp), (len(vp), 1))
        hits = _first_partner(vp, up, ones, combinations(range(n), len(x1)), fld, _two_way)
        gw_ok += sum(hit is not None for hit in hits)
        flags += [f"pair {p}: no set-exchange witness for x1={x1}" for p, hit in enumerate(hits) if hit is None]
    has_partner = ((vp != 0) & (up.swapaxes(1, 2) != 0)).any(axis=2)  # [p, x]: some y with vp[x, y] and up[y, x] nonzero
    flags += [f"pair {p}: no symmetric partner for x={x}" for p, x in zip(*np.nonzero(~has_partner))]
    records = [
        _record(name, ok, len(vp) * cases, bounded=False, q=q, n=n, analytic=1.0, seed=seed)
        for name, ok, cases in (("greene_woodall_witness", gw_ok, len(subsets)),
                                ("symmetric_partner_nonempty", int(has_partner.sum()), n))
    ]
    metadata = {"experiment": "exhaustive_small", "mode": mode, "pairs": len(vp)}
    return Report(records, flags, metadata)


# --- serialization ---

CSV_COLUMNS = (
    "name",
    "q",
    "k",
    "n",
    "trials",
    "successes",
    "estimate",
    "ci_low",
    "ci_high",
    "analytic",
    "seed",
)


def _csv_cell(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(records: list[Record], fh: IO[str]) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        fh.write(",".join(_csv_cell(getattr(r, c)) for c in CSV_COLUMNS) + "\n")


def write_json(records: list[Record], fh: IO[str]) -> None:
    payload = [{c: getattr(r, c) for c in CSV_COLUMNS} for r in records]
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def report_from_estimate(config: ExperimentConfig, result: EstimateResult) -> Report:
    analytic = alpha(config.k, config.q) if result.name == "alpha" else beta(config.k, config.q)
    rec = _record(result.name, result.successes, result.trials, q=config.q, k=config.k, analytic=float(analytic),
                  seed=result.seed)
    return Report([rec], [], {"experiment": f"estimate_{result.name}"})
