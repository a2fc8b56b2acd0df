"""Experiment drivers: estimators, reports, serialization, determinism."""

import io
import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_brute_force_serial, ref_crosscheck_instance, ref_is_basis, ref_rank, ref_search_reduced
from test_exchange import TWO_SERIAL_GAP_B1, TWO_SERIAL_GAP_B2
from fqexchange import exchange, experiments
from fqexchange.exchange import SUBSET_GATE, ExchangeInstance, SerialCertificate, arrow, serial_check, serial_search
from fqexchange.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    InsufficientData,
    crosscheck_serial,
    estimate_alpha,
    estimate_beta,
    exhaustive_small,
    report_from_estimate,
    report_from_trend,
    trend,
    verify_conditional_bounds,
    verify_zprime_bound,
    wilson_interval,
    write_csv,
    write_json,
)
from fqexchange.gf import make_field
from fqexchange.matfq import beta
from fqexchange.randmodel import derive_rng, sample_ordered_basis, sample_reduced, score_reduced


def cfg(**kw):
    base = dict(q=3, k=2, n_values=(8,), trials=100, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# --- config validation ---


def test_config_rejects_bad_q():
    from fqexchange.gf import NotPrimePower

    with pytest.raises(NotPrimePower):
        cfg(q=6)


def test_config_rejects_zero_trials():
    with pytest.raises(ValueError):
        cfg(trials=0)


def test_config_rejects_n_below_k():
    with pytest.raises(ValueError):
        cfg(k=5, n_values=(4,))


# --- Wilson interval ---


@settings(max_examples=200)
@given(data=st.data())
def test_wilson_orders_and_bounds(data):
    trials = data.draw(st.integers(1, 10_000))
    successes = data.draw(st.integers(0, trials))
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_wilson_exact_coverage_small_binomial():
    # exact coverage by enumeration; frozen for p = 1/2, sanity floor for p = 1/10
    def coverage(p, n=10):
        total = 0.0
        for s in range(n + 1):
            lo, hi = wilson_interval(s, n)
            if lo <= p <= hi:
                total += comb(n, s) * p**s * (1 - p) ** (n - s)
        return total

    assert coverage(0.5) == pytest.approx(0.978515625, abs=1e-12)
    assert coverage(0.1) > 0.90


# --- estimators ---


def test_estimate_alpha_q2_k1():
    res = estimate_alpha(cfg(q=2, k=1, trials=6000))
    assert abs(res.estimate - 0.5) < 0.03
    assert res.ci_low <= res.estimate <= res.ci_high
    assert res.trials == 6000 and res.successes == round(res.estimate * 6000)


def test_estimate_alpha_k0_exact_one():
    res = estimate_alpha(cfg(q=3, k=0, trials=500))
    assert res.estimate == 1.0


def test_estimate_beta_q2_k2():
    res = estimate_beta(cfg(q=2, k=2, trials=6000))
    assert abs(res.estimate - 0.25) < 0.03


def test_estimate_beta_k0_exact_one():
    res = estimate_beta(cfg(q=2, k=0, trials=300))
    assert res.estimate == 1.0


def test_estimate_deterministic_and_jobs_invariant():
    c = cfg(q=3, k=2, trials=1500, seed=42)
    a = estimate_alpha(c)
    b = estimate_alpha(c)
    two_jobs = estimate_alpha(c, jobs=2)
    assert (a.successes, a.trials) == (b.successes, b.trials) == (two_jobs.successes, two_jobs.trials)


# --- trend ---


@pytest.mark.parametrize("jobs, chunks, cpus, want", [(64, 3, 2, 2), (64, 3, 8, 3), (2, 5, 8, 2), (1, 5, 8, None), (64, 1, 8, None)])
def test_map_chunks_clamps_workers(monkeypatch, jobs, chunks, cpus, want):
    # the caller computes chunks 0, want, ... itself and forks want - 1
    # workers, so the chunks run in want distinct processes; None: in-process
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    procs = want or 1
    pids = experiments._map_chunks(lambda _: os.getpid(), list(range(chunks)), jobs)
    assert len(set(pids)) == procs
    assert pids == [pids[i % procs] for i in range(chunks)] and pids[0] == os.getpid()


@pytest.mark.parametrize("workers", [2, 3])
def test_map_chunks_uneven_strides_keep_chunk_order(monkeypatch, workers):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    args = list(range(5))
    assert experiments._map_chunks(lambda a: "x" * a, args, workers) == ["x" * a for a in args]


def test_map_chunks_worker_error_reaches_caller_and_no_child_is_left():
    caller = os.getpid()

    def chunk(a):
        if os.getpid() != caller:
            raise ValueError(f"bad chunk {a}")
        return a

    with pytest.raises(ValueError, match="bad chunk 1"):
        experiments._map_chunks(chunk, [0, 1], 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_chunks_caller_error_kills_running_workers(tmp_path):
    # the worker would leave a mark after 2 s; the caller's own chunk raises
    # at once, so the worker is killed and reaped before it marks
    caller = os.getpid()
    mark = tmp_path / "worker_finished"

    def chunk(a):
        if os.getpid() == caller:
            raise ValueError("caller's chunk failed")
        time.sleep(2)
        mark.touch()
        return a

    with pytest.raises(ValueError, match="caller's chunk failed"):
        experiments._map_chunks(chunk, [0, 1], 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not mark.exists()


def test_trend_single_n_single_trial():
    rows = trend(cfg(n_values=(6,), trials=1))
    assert len(rows) == 1
    assert rows[0].block.estimate in (0.0, 1.0)


def test_trend_analytic_only_for_q_above_2():
    rows2 = trend(cfg(q=2, n_values=(6, 8), trials=5))
    assert all(r.analytic is None for r in rows2)
    rows3 = trend(cfg(q=3, n_values=(6, 8), trials=5))
    assert all(r.analytic is not None for r in rows3)


def test_trend_requires_ascending_n():
    with pytest.raises(ValueError):
        trend(cfg(n_values=(8, 6), trials=2))


def test_trend_subset_column_with_exhaustive():
    rows = trend(cfg(n_values=(6,), trials=8, exhaustive=True))
    assert rows[0].subset is not None
    assert rows[0].subset.estimate >= rows[0].block.estimate


def test_trend_jobs_invariant():
    c = cfg(n_values=(6, 8), trials=600, seed=11)
    one = trend(c)
    two = trend(c, jobs=2)
    assert [(r.block.successes,) for r in one] == [(r.block.successes,) for r in two]


def test_trend_report_structure():
    c = cfg(n_values=(6, 8), trials=50, seed=3)
    rows = trend(c)
    rep = report_from_trend(c, rows)
    assert [r.name for r in rep.records] == ["block_success", "block_success"]
    assert [r.n for r in rep.records] == [6, 8]
    assert rep.metadata["threshold_basis"] == "pilot-calibrated"


# --- trial chunks ---


@pytest.mark.parametrize("q, k, n, lo, exhaustive", [
    (2, 1, 2, 0, False),
    (3, 2, 8, 512, False),
    (4, 3, 9, 0, False),
    (9, 4, 8, 0, False),
    (3, 2, 7, 0, False),   # k does not divide n
    (4, 3, 3, 0, False),   # k = n
    (2, 2, 5, 0, True),    # all-subsets search
    (9, 3, 7, 1024, True),
    (3, 5, 7, 0, False),   # the largest k of the size-by-size scan
    (2, 6, 8, 0, False),   # the smallest k of the per-block search
    (3, 6, 12, 512, False),
])
def test_trial_chunk_matches_reference_bits(q, k, n, lo, exhaustive):
    # the chunk's totals against per-trial bits recomputed from the same
    # sampled (R, C) stack with ref_rank minors and ref_search_reduced
    field = make_field(q)
    seed, row, trials = 37, q, 48
    got = experiments._trial_chunk((q, k, n, seed, row, lo, lo + trials, exhaustive, SUBSET_GATE))
    ell = n // k
    u1 = tuple(range(k))
    blocks = [tuple(range(i * k, (i + 1) * k)) for i in range(ell)]
    x_succ, y_succ, z_hist, zz = (np.zeros(m, dtype=np.int64) for m in (ell, ell, ell + 1, ell + 1))
    hits = subset_hits = 0
    rs, cs = sample_reduced(derive_rng(seed, row, lo), trials, n, k, field)
    for r, c in zip(rs.tolist(), cs.tolist()):
        x = [ref_rank([[c[b][a] for a in u1] for b in block], field) == k for block in blocks]
        y = [ref_rank([[r[a][b] for b in block] for a in u1], field) == k for block in blocks]
        serial = [ref_search_reduced(r, c, u1, block, field) is not None for block in blocks]
        x_succ += x
        y_succ += y
        z = sum(a and b for a, b in zip(x, y))
        z_hist[z] += 1
        zz[z] += not any(serial)
        hits += any(serial)
        if exhaustive:
            subset_hits += any(ref_search_reduced(r, c, u1, cand, field) for cand in combinations(range(n), k))
    assert (got.trials, got.block_hits, got.subset_hits, got.subset_ran) == (
        trials, hits, subset_hits, trials if exhaustive else 0)
    for name, want in (("x_succ", x_succ), ("y_succ", y_succ), ("z_hist", z_hist), ("zprime_zero_by_z", zz)):
        assert getattr(got, name).tolist() == want.tolist(), name
    if 1 < k < n:  # with k = 1, R C = 1 makes some block serial; k = n has one block
        assert 0 < hits < trials


def test_trial_chunk_matches_reference_bits_in_unit_slices(monkeypatch):
    # every candidate slice of the scan and every minor slice holds one entry
    monkeypatch.setattr(exchange, "_SLICE_ENTRIES", 1)
    test_trial_chunk_matches_reference_bits(3, 5, 7, 0, False)


def _every_inverse_pair(q, n, k):
    """Every (R, C) with R C = I over the prime field GF(q), by mod-q integer arithmetic.

    For each n x k matrix C, row i of R ranges over the vectors v with
    C^T v = e_i; for a full-rank C each such set has q^(n - k) members.
    """
    vecs = np.array(list(product(range(q), repeat=n)), dtype=np.uint8)
    cs = np.array(list(product(range(q), repeat=n * k)), dtype=np.int64).reshape(-1, n, k)
    hits = ((np.einsum("cnk,vn->cvk", cs, vecs.astype(np.int64)) % q)[:, :, None, :] == np.eye(k)).all(axis=-1)
    m = q ** (n - k)
    full = (hits.sum(axis=1) == m).all(axis=1)
    cs, hits = cs[full], hits[full]
    rows = np.stack([np.nonzero(hits[:, :, i])[1].reshape(len(cs), m) for i in range(k)], axis=1)
    grid = np.array(list(product(range(m), repeat=k)))
    r = vecs[rows[:, np.arange(k), grid]].reshape(-1, k, n)
    return r, np.repeat(cs.astype(np.uint8), len(grid), axis=0)


# exact counts over every (R, C) with R C = I, each pair one sampler outcome
# of equal weight: pairs, block successes, the Z histogram, Z' = 0 by Z,
# and the X and Y sums per block.  Derived twice, once by the chunk scorer
# and once by ref_search_reduced and ref_det minors over the enumeration.
EXACT_LAW = {
    (2, 4, 2): (3360, 1344, [1944, 1344, 72], [1944, 72, 0], [1536, 1536], [1536, 1536]),
    (3, 4, 2): (505440, 328800, [172800, 270432, 62208], [172800, 3840, 0], [314928, 314928], [314928, 314928]),
    (2, 6, 2): (999936, 396432, [583200, 365760, 47520, 3456], [583200, 20304, 0, 0], [393216] * 3, [393216] * 3),
}
EXACT_SUCCESS = {(2, 4, 2): Fraction(2, 5), (3, 4, 2): Fraction(685, 1053), (2, 6, 2): Fraction(2753, 6944)}


@pytest.mark.parametrize("q, n, k", sorted(EXACT_LAW))
def test_chunk_scorer_reproduces_the_exact_law(q, n, k):
    # every block searched, and each trial's blocks up to its first serial
    # one, as trial chunks search them: the same exact totals
    field = make_field(q)
    r, c = _every_inverse_pair(q, n, k)
    ell = n // k
    pairs, *_ = want = EXACT_LAW[q, n, k]
    for search in ("all", "first"):
        x_sums, y_sums, z_hist, zz = (np.zeros(m, dtype=np.int64) for m in (ell, ell, ell + 1, ell + 1))
        success = 0
        for lo in range(0, len(r), 1 << 16):  # bounded memory
            x, y, serial, _ = score_reduced(r[lo:lo + (1 << 16)], c[lo:lo + (1 << 16)], field, search=search)
            z = (x & y).sum(axis=1)
            hit = serial.any(axis=1)
            x_sums += x.sum(axis=0)
            y_sums += y.sum(axis=0)
            z_hist += np.bincount(z, minlength=ell + 1)
            zz += np.bincount(z[~hit], minlength=ell + 1)
            success += int(hit.sum())
        assert (len(r), success, z_hist.tolist(), zz.tolist(), x_sums.tolist(), y_sums.tolist()) == want, search
    assert Fraction(success, pairs) == EXACT_SUCCESS[q, n, k]
    for s in range(ell + 1):
        if z_hist[s]:
            assert Fraction(int(zz[s]), int(z_hist[s])) <= (1 - beta(k, q)) ** s
    # a seeded Monte Carlo run lands within 4 sigma of the exact rate
    trials = 4000
    totals = experiments._run_trials(ExperimentConfig(q=q, k=k, n_values=(n,), trials=trials, seed=43), n, 0, 1)
    p = float(EXACT_SUCCESS[q, n, k])
    assert abs(totals.block_hits / trials - p) <= 4 * (p * (1 - p) / trials) ** 0.5


@pytest.mark.parametrize("unit_slices", [False, True])
def test_first_hit_search_stops_each_trial_at_its_first_serial_block(monkeypatch, unit_slices):
    # GF(2) trials at k = 2, some of whose first two-way block has no
    # serial ordering, so their search goes on to a second round: first-hit
    # mode searches each trial's two-way blocks in block order, 1, 2, then
    # 4 a round, and gives every trial the same first serial block as full
    # mode, no serial bit full mode lacks, and the same x and y bits
    if unit_slices:
        monkeypatch.setattr(exchange, "_SLICE_ENTRIES", 1)
    rounds = []
    lockstep = exchange._lockstep

    def recording(a, b, cand, field):
        rounds.append(cand.copy())
        return lockstep(a, b, cand, field)

    field = make_field(2)
    r, c = sample_reduced(derive_rng(47, 0, 0), 256, 16, 2, field)
    x, y, full, _ = score_reduced(r, c, field)
    monkeypatch.setattr(exchange, "_lockstep", recording)
    fx, fy, first, _ = score_reduced(r, c, field, search="first")
    assert (fx == x).all() and (fy == y).all()
    assert (first.any(axis=1) == full.any(axis=1)).all() and not (first & ~full).any()
    hit = full.any(axis=1)
    assert (first.argmax(axis=1)[hit] == full.argmax(axis=1)[hit]).all()
    searched = np.zeros(full.size, dtype=bool)
    for cand in rounds:
        assert not searched[cand].any()  # no block is searched twice
        searched[cand] = True
    searched = searched.reshape(full.shape)
    rank = np.cumsum(x & y, axis=1)  # each two-way block's place among its trial's
    # a trial whose first serial block is its j-th two-way block searches
    # the rounds up to j's: two-way blocks 1, 2-3, 4-7 and 8
    last = np.where(hit, rank[np.arange(len(rank)), full.argmax(axis=1)], 8)
    upto = np.array([0, 1, 3, 3, 7, 7, 7, 7, 8])[last]
    assert (searched == (x & y) & (rank <= upto[:, None])).all()
    assert len(rounds) > 1 and (hit & (last > 1)).sum() > 0
    monkeypatch.setattr(exchange, "_lockstep", lockstep)
    assert not score_reduced(r, c, field, search="none")[2].any()


def test_pool_workers_start_with_numpy_random_loaded():
    # a fresh interpreter that has not imported numpy.random maps two chunks
    # over two processes: chunk 0 runs in the caller, and chunk 1, in the
    # forked worker, finds numpy.random loaded when entered
    probe = textwrap.dedent("""
        import os, sys
        from fqexchange import experiments
        assert "numpy.random" not in sys.modules
        os.cpu_count = lambda: 2
        caller = os.getpid()
        def entered(_):
            return os.getpid() == caller, "numpy.random" in sys.modules
        print(*experiments._map_chunks(entered, [0, 1], 2))
    """)
    src = str(Path(experiments.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["(True,", "True)", "(False,", "True)"]


# --- bound verification ---


def test_verify_conditional_no_flags_modest_scale():
    rep = verify_conditional_bounds(cfg(n_values=(8,), trials=2000, seed=6))
    assert rep.flags == []
    assert len(rep.records) == 2 * (8 // 2)
    for r in rep.records:
        assert r.analytic == pytest.approx(16 / 27)
        assert r.ci_low <= r.estimate <= r.ci_high


def test_verify_zprime_no_flags_modest_scale():
    rep = verify_zprime_bound(cfg(n_values=(8,), trials=2500, seed=5))
    assert rep.flags == []
    assert rep.records, "expected at least one bin"
    for r in rep.records:
        s = int(r.name.rsplit("_", 1)[1])
        assert r.analytic == pytest.approx((5 / 9) ** s)
        assert r.trials >= 200


def test_verify_zprime_insufficient_data():
    with pytest.raises(InsufficientData):
        verify_zprime_bound(cfg(n_values=(8,), trials=100, seed=5))


# --- oracle cross-checks ---


def test_crosscheck_k3_no_flags():
    rep = crosscheck_serial(ExperimentConfig(q=3, k=3, n_values=(5,), trials=1, seed=4), 80)
    assert rep.flags == []
    (match,) = [r for r in rep.records if r.name == "serial_oracle_match"]
    assert match.successes == match.trials == 80


def test_crosscheck_k2_flags_two_serial_gap():
    # seed 0 is known to hit two-way exchangeable 2-set instances with no
    # serial certificate (instances 1420 and 1487); the report must say so
    # rather than hide it
    rep = crosscheck_serial(ExperimentConfig(q=3, k=2, n_values=(6,), trials=1, seed=0), 1536)
    (match,) = [r for r in rep.records if r.name == "serial_oracle_match"]
    assert match.successes == match.trials == 1536
    (two,) = [r for r in rep.records if r.name == "two_serial_certified"]
    assert two.successes < two.trials
    assert any("no serial certificate" in f for f in rep.flags)


def _stack_of_one(inst):
    """inst as the one instance of a stack, in the arguments the crosscheck oracles take."""
    cols = exchange._columns(inst.b1.matrix.entries, inst.b2.matrix.entries)[None]
    return cols, np.array([inst.x1], dtype=np.intp), np.array([inst.x2], dtype=np.intp), inst.b1.field


def _ref_crosscheck(config, instances):
    """crosscheck_serial as a loop over instances, each replayed, searched and checked alone."""
    k, n = config.k, config.n_values[0]
    mismatches = []
    matches = unsound = two_serial_total = two_serial_ok = 0
    for t in range(instances):
        inst = ref_crosscheck_instance(config, t)
        b1, b2, x1, x2 = inst.b1, inst.b2, inst.x1, inst.x2
        cert = serial_search(inst)
        if cert is not None and not serial_check(inst, cert):
            unsound += 1
            mismatches.append(f"instance {t}: returned certificate fails verification")
            continue
        (oracle,) = ref_brute_force_serial(*_stack_of_one(inst))
        if (cert is None) == (oracle is None):
            matches += 1
        else:
            mismatches.append(
                f"instance {t}: backtracking={'Some' if cert else 'None'} "
                f"enumeration={'Some' if oracle else 'None'}"
            )
        if k <= 2 and arrow(b1, x1, b2, x2) and arrow(b2, x2, b1, x1):
            two_serial_total += 1
            two_serial_ok += cert is not None
    tally = [("serial_oracle_match", matches, instances)]
    if two_serial_total:
        tally.append(("two_serial_certified", two_serial_ok, two_serial_total))
    if two_serial_ok < two_serial_total:
        mismatches.append(
            f"{two_serial_total - two_serial_ok} two-way exchangeable pairs with k <= 2 "
            "had no serial certificate"
        )
    records = [experiments._record(*t, bounded=False, q=config.q, k=k, n=n, analytic=1.0, seed=config.seed)
               for t in tally]
    metadata = {"experiment": "crosscheck_serial", "instances": instances, "unsound": unsound}
    return experiments.Report(records, mismatches, metadata)


@pytest.mark.parametrize("q, k, n, instances, seed", [
    (3, 3, 6, 600, 7),  # spans three chunks
    (3, 2, 6, 300, 0),  # two chunks, before the first gap instance
    (3, 2, 6, 1536, 0),  # two-way pairs without a serial certificate: the gap flag
    (2, 2, 5, 200, 1),
    (4, 3, 6, 100, 2),
    (9, 2, 7, 100, 3),
    (3, 1, 4, 100, 4),
    (3, 4, 7, 40, 5),
    (3, 5, 7, 6, 6),
])
def test_crosscheck_matches_the_per_instance_loop(q, k, n, instances, seed):
    config = ExperimentConfig(q=q, k=k, n_values=(n,), trials=1, seed=seed)
    got = crosscheck_serial(config, instances)
    want = _ref_crosscheck(config, instances)
    assert (got.records, got.flags, got.metadata) == (want.records, want.flags, want.metadata)
    if seed == 0 and k == 2 and instances > 1420:
        # seed-0 k = 2 gap instances 1420 and 1487
        assert any("no serial certificate" in f for f in got.flags)


def _substitute(cert, x1, x2):
    """Where x1 starts at position 0, a certificate that may fail: sigma reversed, or the sorted sets for none."""
    if x1[0] != 0:
        return cert
    if cert is None:
        return SerialCertificate(tuple(x1), tuple(x2))
    return SerialCertificate(cert.sigma[::-1], cert.tau)


def substituting_search(search):
    """search, with _substitute applied to each returned certificate, so the choice rests on the instance, not its chunk."""
    def wrapped(vp, up, x1, x2, field, at=None):
        certs = search(vp, up, x1, x2, field, at)
        return [_substitute(cert, tuple(a.tolist()), tuple(b.tolist())) for cert, a, b in zip(certs, x1, x2)]
    return wrapped


def test_crosscheck_flags_and_leaves_out_unsound_certificates(monkeypatch):
    # the search is wrapped so that it returns some certificates serial_check rejects: each such
    # instance must be flagged, counted as unsound and kept out of serial_oracle_match
    monkeypatch.setattr(experiments, "_search_stack", substituting_search(experiments._search_stack))
    config = ExperimentConfig(q=3, k=3, n_values=(6,), trials=1, seed=7)
    instances = 300  # spans two chunks
    rep = crosscheck_serial(config, instances)
    substituted, unsound = 0, []
    for t in range(instances):
        inst = ref_crosscheck_instance(config, t)
        cert = serial_search(inst)
        returned = _substitute(cert, inst.x1, inst.x2)
        substituted += returned != cert
        if returned is not None and not serial_check(inst, returned):
            unsound.append(t)
    assert 0 < len(unsound) < substituted  # both sound and unsound substitutes occur
    assert rep.flags == [f"instance {t}: returned certificate fails verification" for t in unsound]
    assert rep.metadata["unsound"] == len(unsound)
    (match,) = [r for r in rep.records if r.name == "serial_oracle_match"]
    assert (match.successes, match.trials) == (instances - len(unsound), instances)


def _ref_prefix_failures(cols1, cols2, sigma, tau, field, memo):
    """(side, i) for every prefix replacement that is no basis, from plain column lists.

    Side 1 is B1 with sigma[:i] replaced by B2's tau[:i], side 2 the
    reverse.  A family's basis test is memoised on its sorted columns,
    since reordering columns keeps the answer.
    """
    out = []
    for i in range(1, len(sigma) + 1):
        fam1, fam2 = list(cols1), list(cols2)
        for s, t in zip(sigma[:i], tau[:i]):
            fam1[s], fam2[t] = cols2[t], cols1[s]
        for side, fam in ((1, fam1), (2, fam2)):
            key = tuple(sorted(fam))
            if key not in memo:
                memo[key] = ref_is_basis(fam, field)
            if not memo[key]:
                out.append((side, i))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_oracle_matches_plain_prefix_families(monkeypatch, q, k):
    # the (k!)^2 oracle and serial_check against the definition, built
    # without the library kernels: the first ordering pair in permutations
    # order whose every prefix gives a basis on both sides, or None; the
    # oracle must give it also when every slice holds one pair
    field = make_field(q)
    rng = np.random.default_rng(100 * q + k)
    n = k + 1 + q % 2
    nones = later_certs = 0
    one_sided = {1: 0, 2: 0}  # pairs failing at one intermediate prefix of one side only
    for _ in range(20):
        b1, b2 = sample_ordered_basis(rng, n, field), sample_ordered_basis(rng, n, field)
        x1, x2 = (tuple(sorted(rng.choice(n, size=k, replace=False).tolist())) for _ in range(2))
        inst = ExchangeInstance(b1, b2, x1, x2)
        cols1, cols2 = ([tuple(c) for c in b.matrix.entries.T.tolist()] for b in (b1, b2))
        memo = {}
        want = None
        for idx, (sigma, tau) in enumerate(product(permutations(x1), permutations(x2))):
            cert = SerialCertificate(sigma, tau)
            fails = _ref_prefix_failures(cols1, cols2, sigma, tau, field, memo)
            assert serial_check(inst, cert) == (not fails), (inst, cert, fails)
            if len(fails) == 1 and fails[0][1] < k:
                one_sided[fails[0][0]] += 1
            if not fails:
                want = cert
                later_certs += idx > 0
                break
        two_way = arrow(b1, x1, b2, x2) and arrow(b2, x2, b1, x1)
        assert ref_brute_force_serial(*_stack_of_one(inst)) == [want]
        certs, full = experiments._brute_force_serial(*_stack_of_one(inst))
        assert (certs, full.tolist()) == ([want], [two_way])
        with monkeypatch.context() as m:
            m.setattr(exchange, "_SLICE_ENTRIES", 1)
            certs, full = experiments._brute_force_serial(*_stack_of_one(inst))
            assert (certs, full.tolist()) == ([want], [two_way])
        nones += want is None
    assert nones > 0
    if k > 1:
        assert one_sided[1] > 0 and one_sided[2] > 0
        assert later_certs > 0


def _random_stack(q, k, n, count, seed):
    """count random instances as a stack, in the arguments the crosscheck oracles take."""
    field = make_field(q)
    rng = np.random.default_rng(seed)
    m1, m2 = (np.array([sample_ordered_basis(rng, n, field).matrix.entries for _ in range(count)],
                       dtype=np.uint8).reshape(count, n, n) for _ in range(2))
    x1, x2 = (np.array([np.sort(rng.choice(n, size=k, replace=False)) for _ in range(count)],
                       dtype=np.intp).reshape(count, k) for _ in range(2))
    return exchange._columns(m1, m2), x1, x2, field


def _two_way(cols, x1, x2, field):
    """Whether each instance's whole sets swap to bases both ways, by one direct _swap_bases call."""
    return exchange._swap_bases(cols, np.arange(len(cols)), x1, x2, field).all(axis=-1).tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_table_oracle_gives_the_scan_oracles_certificates(monkeypatch, q, k):
    # the prefix-state table against the ordering-by-ordering scan: the
    # same certificate for every instance, not only the same Nones, also
    # when every slice holds one swap and one instance; n = k for q = 3
    # and 9, so every position is exchanged
    n = k + q % 3
    stack = _random_stack(q, k, n, 3 if k == 5 else 24, seed=10 * q + k)
    want = ref_brute_force_serial(*stack), _two_way(*stack)
    certs, full = experiments._brute_force_serial(*stack)
    assert (certs, full.tolist()) == want
    monkeypatch.setattr(exchange, "_SLICE_ENTRIES", 1)
    unit = experiments._brute_force_serial(*stack)
    assert (unit[0], unit[1].tolist()) == want
    _, x1, x2, _ = stack
    later = [cert is not None and (cert.sigma, cert.tau) != (tuple(a), tuple(b)) for cert, a, b in zip(certs, x1, x2)]
    assert any(cert is None for cert in certs) or n == k
    assert any(later) or k == 1


def test_table_oracle_on_the_two_serial_gap():
    # the seed-0 k = 2 crosscheck instances 1280 .. 1535, gap instances
    # among them, and the frozen GF(2) pair: two-way, yet no serial certificate
    fld = make_field(3)
    config = ExperimentConfig(q=3, k=2, n_values=(6,), trials=1, seed=0)
    cols, x1, x2 = [], [], []
    for inst in (ref_crosscheck_instance(config, t) for t in range(1280, 1536)):
        cols.append(exchange._columns(inst.b1.matrix.entries, inst.b2.matrix.entries))
        x1.append(inst.x1)
        x2.append(inst.x2)
    stack = np.array(cols), np.array(x1, dtype=np.intp), np.array(x2, dtype=np.intp), fld
    certs, full = experiments._brute_force_serial(*stack)
    assert certs == ref_brute_force_serial(*stack)
    assert full.tolist() == _two_way(*stack)
    assert any(f and cert is None for f, cert in zip(full, certs))
    f2 = make_field(2)
    b1, b2 = (np.array(rows, dtype=np.uint8) for rows in (TWO_SERIAL_GAP_B1, TWO_SERIAL_GAP_B2))
    gap = exchange._columns(b1, b2)[None], np.array([[1, 2]]), np.array([[1, 2]]), f2
    certs, full = experiments._brute_force_serial(*gap)
    assert (certs, full.tolist()) == (ref_brute_force_serial(*gap), [True]) == ([None], [True])


def test_table_oracle_on_an_empty_stack():
    for k in (0, 1, 3):
        certs, full = experiments._brute_force_serial(*_random_stack(3, k, 4, 0, seed=1))
        assert certs == [] and full.shape == (0,)


def test_exhaustive_small_q2_n2_enumerates_everything():
    rep = exhaustive_small(2, 2)
    assert rep.metadata == {"experiment": "exhaustive_small", "mode": "enumerated", "pairs": 36}
    gw, sym = rep.records
    assert (gw.successes, gw.trials) == (108, 108)
    assert (sym.successes, sym.trials) == (72, 72)
    assert rep.flags == []


def test_exhaustive_small_q3_n3_sampled():
    rep = exhaustive_small(3, 3, seed=1, sample_pairs=20)
    assert rep.metadata["mode"] == "sampled"
    for r in rep.records:
        assert r.successes == r.trials
    assert rep.flags == []


def _zero_one_pair(monkeypatch, pair, column=None):
    """Make experiments._reduced_pairs zero one basis pair's vp, or only column `column` of its up."""
    reduced_pairs = experiments._reduced_pairs

    def zeroed(m1, m2, field):
        vp, up = reduced_pairs(m1, m2, field)
        if column is None:
            vp[pair] = 0
        else:
            up[pair, :, column] = 0
        return vp, up

    monkeypatch.setattr(experiments, "_reduced_pairs", zeroed)


@pytest.mark.parametrize("q, n, pair, column", [(2, 2, 5, None), (3, 3, 17, None), (3, 3, 4, 1)])
def test_exhaustive_small_flags_a_missing_witness(monkeypatch, q, n, pair, column):
    # with one pair's vp zero, no swap from B1's side is a basis: every
    # subset misses its set-exchange witness and every element its
    # symmetric partner; with only column x of its up zero, no swap of x
    # back into B1 is, so the subsets holding x and x itself miss; each
    # miss is one flag naming the pair
    _zero_one_pair(monkeypatch, pair, column)
    rep = exhaustive_small(q, n, seed=1, sample_pairs=20)
    subsets = [c for size in range(1, n + 1) for c in combinations(range(n), size)]
    missed, lonely = (subsets, range(n)) if column is None else ([x1 for x1 in subsets if column in x1], [column])
    gw, sym = rep.records
    assert (gw.trials - gw.successes, sym.trials - sym.successes) == (len(missed), len(lonely))
    assert rep.flags == ([f"pair {pair}: no set-exchange witness for x1={x1}" for x1 in missed]
                         + [f"pair {pair}: no symmetric partner for x={x}" for x in lonely])


def test_exhaustive_small_rejects_big_instances():
    with pytest.raises(ValueError):
        exhaustive_small(5, 2)
    with pytest.raises(ValueError):
        exhaustive_small(3, 5)


# --- serialization ---


def test_csv_and_json_carry_identical_numbers():
    c = cfg(n_values=(8,), trials=400, seed=9)
    rep = verify_conditional_bounds(c)
    csv_buf = io.StringIO()
    json_buf = io.StringIO()
    write_csv(rep.records, csv_buf)
    write_json(rep.records, json_buf)
    csv_lines = csv_buf.getvalue().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    parsed = json.loads(json_buf.getvalue())
    assert len(parsed) == len(csv_lines) - 1
    for obj, line in zip(parsed, csv_lines[1:]):
        cells = line.split(",")
        for col, cell in zip(CSV_COLUMNS, cells):
            val = obj[col]
            if val is None:
                assert cell == "n/a"
            elif isinstance(val, float):
                assert float(cell) == val and cell == repr(val)
            else:
                assert cell == str(val)


def test_csv_missing_values_render_na():
    c = cfg(q=3, k=2, trials=50, seed=2)
    rep = report_from_estimate(c, estimate_alpha(c))
    buf = io.StringIO()
    write_csv(rep.records, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("n")] == "n/a"


def test_reports_reproduce_byte_identical_csv():
    c = cfg(n_values=(8,), trials=300, seed=13)
    bufs = []
    for _ in range(2):
        rep = verify_conditional_bounds(c)
        buf = io.StringIO()
        write_csv(rep.records, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
