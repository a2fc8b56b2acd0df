"""Acceptance suite: one test per exit criterion, at stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion.  The heavy Monte Carlo reports are computed once in
module-scoped fixtures and shared with the invariant sweep (criterion 9).

Criterion 6b checks the true k = 2 relation between two-way and serial
exchange: a two-way exchangeable pair of 2-sets is serially exchangeable
iff some single swap is valid in both directions.  The stronger claim that
every two-way exchangeable pair of 2-sets is serially exchangeable is false:
tests/test_exchange.py holds a hand-checked GF(2) counterexample, and
crosscheck instance 153 at SEED is one more, which 6b counts as its gap.
The true existential property is verified alongside it as 6c.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import ref_completion, ref_crosscheck_instance
from fqexchange.exchange import ExchangeInstance, OrderedBasis, arrow, serial_search
from fqexchange.experiments import (
    ExperimentConfig,
    crosscheck_serial,
    estimate_alpha,
    estimate_beta,
    exhaustive_small,
    trend,
    verify_conditional_bounds,
    verify_zprime_bound,
)
from fqexchange.gf import make_field
from fqexchange.matfq import MatFq, nonsingular_count, rank, sequential_full_rank
from fqexchange.randmodel import DomainError, derive_rng, sample_ordered_basis, theorem_tail

SEED = 271828


def verdict(num: str, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {label}{tail}"
    print(line)
    assert ok, line


# --- shared heavy runs ---


@pytest.fixture(scope="module")
def conditional_report():
    config = ExperimentConfig(q=3, k=2, n_values=(20,), trials=10_000, seed=SEED)
    t0 = time.perf_counter()
    report = verify_conditional_bounds(config)
    return config, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def zprime_report():
    config = ExperimentConfig(q=3, k=2, n_values=(40,), trials=20_000, seed=SEED)
    t0 = time.perf_counter()
    report = verify_zprime_bound(config)
    return config, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trend_report():
    config = ExperimentConfig(q=3, k=2, n_values=(8, 16, 32, 64, 80), trials=2000, seed=SEED)
    t0 = time.perf_counter()
    report = trend(config)
    return config, report, time.perf_counter() - t0


# --- criterion 1: nonsingular counts by full enumeration ---


def test_criterion_01_nonsingular_counts():
    t0 = time.perf_counter()
    expected = {(2, 1): 1, (2, 2): 6, (2, 3): 168, (3, 1): 2, (3, 2): 48}
    for (q, k), want in expected.items():
        assert want == nonsingular_count(k, q)
        fld = make_field(q)
        got = sum(
            rank(MatFq(fld, np.array(e, dtype=np.uint8).reshape(k, k))) == k
            for e in product(range(q), repeat=k * k)
        )
        assert got == want, f"(q={q}, k={k}): enumerated {got}, formula {want}"
    elapsed = time.perf_counter() - t0
    verdict("1", "exhaustive nonsingular counts match the product formula", elapsed < 1.0,
            f"5 cases, {elapsed:.2f}s")


# --- criterion 2: sequential-full-rank counts by full enumeration ---


def test_criterion_02_sequential_counts():
    t0 = time.perf_counter()
    cases = {(2, 2): 4, (2, 3): 64, (3, 2): 36, (3, 3): 5832}
    for (q, k), want in cases.items():
        assert want == (q - 1) ** k * q ** (k * k - k)
        fld = make_field(q)
        got = sum(
            sequential_full_rank(MatFq(fld, np.array(e, dtype=np.uint8).reshape(k, k)))
            for e in product(range(q), repeat=k * k)
        )
        assert got == want, f"(q={q}, k={k}): enumerated {got}, formula {want}"
    elapsed = time.perf_counter() - t0
    verdict("2", "exhaustive sequential-full-rank counts match", elapsed < 5.0,
            f"4 cases, {elapsed:.2f}s")


# --- criterion 3: Monte Carlo calibration ---


def test_criterion_03_estimator_calibration():
    t0 = time.perf_counter()
    (ra,) = estimate_alpha(ExperimentConfig(q=3, k=2, n_values=(), trials=100_000, seed=SEED)).records
    ta = time.perf_counter() - t0
    t0 = time.perf_counter()
    (rb,) = estimate_beta(ExperimentConfig(q=3, k=3, n_values=(), trials=100_000, seed=SEED)).records
    tb = time.perf_counter() - t0
    assert (ra.name, rb.name) == ("alpha", "beta")
    assert abs(ra.estimate - 16 / 27) <= 0.01, f"alpha estimate {ra.estimate}"
    assert abs(rb.estimate - 8 / 27) <= 0.01, f"beta estimate {rb.estimate}"
    assert ta < 5.0 and tb < 5.0, f"runtimes {ta:.1f}s / {tb:.1f}s"
    verdict("3", "alpha and beta estimates within 0.01 of exact values",
            True, f"alpha off by {abs(ra.estimate - 16/27):.4f}, beta by {abs(rb.estimate - 8/27):.4f}")


# --- criterion 4: one-way exchange rates never flagged below alpha ---


def test_criterion_04_conditional_bounds(conditional_report):
    config, report, elapsed = conditional_report
    assert elapsed < 60.0, f"took {elapsed:.0f}s"
    assert len(report.records) == 2 * (20 // 2)
    verdict("4", "per-block X/Y rates stay within 4 sigma of the alpha floor",
            report.flags == [], f"{len(report.records)} blocks, {elapsed:.0f}s")


# --- criterion 5: conditional no-serial bound ---


def test_criterion_05_zprime_bound(zprime_report):
    config, report, elapsed = zprime_report
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    assert all(r.trials >= 200 for r in report.records)
    verdict("5", "binned no-serial rates stay under the (1-beta)^s ceiling",
            report.flags == [], f"{len(report.records)} bins, {elapsed:.0f}s")


# --- criterion 6: oracle equivalence and the k=2 claim ---


def test_criterion_06a_oracle_equivalence():
    t0 = time.perf_counter()
    config = ExperimentConfig(q=3, k=3, n_values=(6,), trials=1, seed=SEED)
    report = crosscheck_serial(config, 500)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.0f}s"
    (match,) = [r for r in report.records if r.name == "serial_oracle_match"]
    verdict("6a", "backtracking agrees with (3!)^2 enumeration on 500 instances",
            match.successes == 500 and not report.flags, f"{elapsed:.0f}s")


def test_criterion_06b_two_serial_claim():
    # At k = 2 the last prefix step is the two-way exchange itself, so a
    # two-way pair is serially exchangeable iff some x in x1 and y in x2
    # make both single swaps bases.  Replay the crosscheck instances by
    # its draw rule, count that relation with public arrow calls, and hold
    # the two_serial_certified row and its gap flag to those counts.
    config = ExperimentConfig(q=3, k=2, n_values=(6,), trials=1, seed=SEED)
    report = crosscheck_serial(config, 500)
    two_way = single_swap = 0
    for t in range(500):
        inst = ref_crosscheck_instance(config, t)
        b1, b2, x1, x2 = inst.b1, inst.b2, inst.x1, inst.x2
        if not (arrow(b1, x1, b2, x2) and arrow(b2, x2, b1, x1)):
            continue
        two_way += 1
        if any(arrow(b2, (y,), b1, (x,)) and arrow(b1, (x,), b2, (y,))
               for x in x1 for y in x2):
            single_swap += 1
    (match,) = [r for r in report.records if r.name == "serial_oracle_match"]
    (two,) = [r for r in report.records if r.name == "two_serial_certified"]
    gap = two_way - single_swap
    gap_flags = [f for f in report.flags if f.endswith("had no serial certificate")]
    ok = (
        match.successes == match.trials == 500
        and (two.trials, two.successes) == (two_way, single_swap)
        and report.flags == gap_flags
        and [int(f.split()[0]) for f in gap_flags] == ([gap] if gap else [])
    )
    verdict("6b", "a two-way exchangeable 2-set pair is serially exchangeable "
            "iff some single swap is valid both ways", ok,
            f"{two.successes}/{two.trials} certified, {gap} with no valid single swap")


def test_criterion_06c_two_serial_partner_exists():
    # the true consequence of the 2-set exchange theorem: some partner
    # subset of the second basis is always serially exchangeable with x1
    from fqexchange.exchange import find_serial_partner

    fld = make_field(3)
    missing = 0
    for t in range(500):
        rng = derive_rng(SEED, 0, t)
        b1 = sample_ordered_basis(rng, 6, fld)
        b2 = sample_ordered_basis(rng, 6, fld)
        x1 = tuple(sorted(int(v) for v in rng.choice(6, 2, replace=False)))
        if find_serial_partner(b1, x1, b2, mode="all_subsets") is None:
            missing += 1
    verdict("6c", "a serial partner 2-subset always exists", missing == 0,
            f"{500 - missing}/500 found")


# --- criterion 7: set exchange and symmetric exchange witnesses ---


def test_criterion_07_witness_existence():
    t0 = time.perf_counter()
    full = exhaustive_small(2, 2)
    assert full.metadata["mode"] == "enumerated" and full.metadata["pairs"] == 36
    ok = not full.flags and all(r.successes == r.trials for r in full.records)
    for n in (3, 4):
        rep = exhaustive_small(3, n, seed=SEED, sample_pairs=200)
        ok = ok and not rep.flags and all(r.successes == r.trials for r in rep.records)
    elapsed = time.perf_counter() - t0
    verdict("7", "set-exchange and symmetric-exchange witnesses always found",
            ok and elapsed < 60.0, f"{elapsed:.0f}s")


# --- criterion 8: the trend toward certainty ---


def test_criterion_08_trend(trend_report):
    config, report, elapsed = trend_report
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    rows = [r for r in report.records if r.name == "block_success"]
    assert [r.n for r in rows] == list(config.n_values)
    ests = [r.estimate for r in rows]
    for prev, cur in zip(rows, rows[1:]):
        overlap = cur.ci_high >= prev.ci_low and prev.ci_high >= cur.ci_low
        assert cur.estimate >= prev.estimate or overlap, (
            f"estimate dropped from n={prev.n} to n={cur.n} beyond CI overlap"
        )
    first, last = rows[0], rows[-1]
    halfwidths = (first.ci_high - first.ci_low) / 2 + (last.ci_high - last.ci_low) / 2
    assert last.estimate - first.estimate > halfwidths, "no significant rise across the range"
    # final-row floor frozen from the pilot run (scripts/trend_pilot.py)
    verdict("8", "block-success estimates rise toward 1 and end at or above 0.95",
            last.estimate >= 0.95,
            f"{ests[0]:.3f} -> {ests[-1]:.3f}, {elapsed:.0f}s")


# --- criterion 9: trial invariants across the heavy runs ---


def _recheck_trials(q, k, n, seed, count, row=0):
    """Replay the first trials of a run and re-derive every bit through the public operations.

    A run draws each chunk of trials from one generator keyed by the chunk
    start; every run here has at least _CHUNK trials, so its first chunk
    is _CHUNK trials long.  A trial samples R (the rows u1 of B1^-1 B2) and
    C (the columns u1 of B2^-1 B1).  The replay takes b1 = I and b2 = M,
    where M stacks R on a basis of the left null space of C; then
    B1^-1 B2 = M has rows R and M^-1 has columns C at u1, so every bit of
    the trial is a property of this basis pair.
    """
    from fqexchange.experiments import _CHUNK
    from fqexchange.randmodel import sample_reduced, score_reduced

    fld = make_field(q)
    u1 = tuple(range(k))
    blocks = [tuple(range(i * k, (i + 1) * k)) for i in range(n // k)]
    rs, cs = sample_reduced(derive_rng(seed, row, 0), _CHUNK, n, k, fld)
    xs, ys, serials, _ = score_reduced(rs, cs, fld)
    for r, c, x_bits, y_bits, zprime_bits in list(zip(rs, cs, xs, ys, serials))[:count]:
        b1 = OrderedBasis(MatFq(fld, np.eye(n, dtype=np.uint8)))
        b2 = OrderedBasis(MatFq.from_rows(fld, ref_completion(r.tolist(), c.tolist(), fld)))
        for i, block in enumerate(blocks):
            assert x_bits[i] == arrow(b1, u1, b2, block)
            assert y_bits[i] == arrow(b2, block, b1, u1)
            cert = serial_search(ExchangeInstance(b1, b2, u1, block))
            assert zprime_bits[i] == (cert is not None)
            assert zprime_bits[i] <= (x_bits[i] & y_bits[i])
        assert (x_bits & y_bits).sum() >= x_bits.sum() + y_bits.sum() - len(blocks)


def test_criterion_09_invariants(conditional_report, zprime_report, trend_report):
    # every chunk of the shared fixtures searches two-way blocks only, each
    # trial's up to its first serial one (none for the conditional run),
    # and experiments._trial_chunk still raises if a serial block is not
    # two-way; _recheck_trials replays a sample unchanged, every block
    # searched, through the public slow path as the independent route
    _recheck_trials(3, 2, 20, SEED, 30, row=0)   # the n=20 bound run
    _recheck_trials(3, 2, 40, SEED, 15, row=0)   # the n=40 bound run
    _recheck_trials(3, 2, 8, SEED, 10, row=0)    # first trend row
    _recheck_trials(3, 2, 80, SEED, 5, row=4)    # last trend row
    total = 10_000 + 20_000 + 5 * 2000
    verdict("9", "bit invariants hold on every trial, fast path matches slow path",
            True, f"{total} trials validated, 60 replayed")


# --- criterion 10: the analytic envelope is guarded and shrinks ---


def test_criterion_10_analytic_guardrail():
    for c in (Fraction(1, 1000), Fraction(1, 100), Fraction(1, 20), Fraction(1, 2), Fraction(1)):
        for eps in (Fraction(1, 100), Fraction(1, 20), Fraction(1, 2), Fraction(9, 10)):
            with pytest.raises(DomainError):
                theorem_tail(10_000, 2, 2, c, eps)
    for k in (2, 3):
        vals = [theorem_tail(n, k, 3, Fraction(1, 20), Fraction(1, 20)) for n in (100, 1000, 10_000)]
        assert vals[0] > vals[1] > vals[2], f"not strictly decreasing for k={k}: {vals}"
    verdict("10", "q=2 always rejected; q=3 envelope strictly decreasing in n", True)


# --- criterion 11: byte-identical reruns of every command ---


def test_criterion_11_cli_determinism(tmp_path, capsys):
    from fqexchange.cli import main

    ident = tmp_path / "id4.mat"
    ident.write_text("3 4 4\n" + "\n".join(" ".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    commands = {
        "estimate_alpha": ["estimate", "alpha", "--q", "3", "--k", "2", "--trials", "5000", "--seed", str(SEED)],
        "estimate_beta": ["estimate", "beta", "--q", "3", "--k", "3", "--trials", "5000", "--seed", str(SEED)],
        "trend": ["trend", "--q", "3", "--k", "2", "--n", "8", "--n", "12", "--trials", "300", "--seed", str(SEED)],
        "verify_conditional": ["verify", "conditional", "--q", "3", "--k", "2", "--n", "10", "--trials", "1500", "--seed", str(SEED)],
        "verify_zprime": ["verify", "zprime", "--q", "3", "--k", "2", "--n", "12", "--trials", "2500", "--seed", str(SEED)],
        "crosscheck": ["crosscheck", "--q", "3", "--k", "3", "--n", "5", "--instances", "60", "--seed", str(SEED)],
        "exhaustive": ["exhaustive", "--q", "2", "--n", "2", "--seed", str(SEED)],
        "serial": ["serial", "--b1", str(ident), "--b2", str(ident), "--x1", "0,1"],
        "trend_json": ["trend", "--q", "3", "--k", "2", "--n", "8", "--trials", "200", "--seed", str(SEED), "--format", "json"],
    }
    for name, argv in commands.items():
        outputs = []
        for i in range(2):
            path = tmp_path / f"{name}_{i}.out"
            code = main(argv + ["--out", str(path)])
            assert code == 0, f"{name} exited {code}"
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output differs between runs"
    capsys.readouterr()
    verdict("11", "rerunning every command reproduces byte-identical files",
            True, f"{len(commands)} commands, reduced scales")
