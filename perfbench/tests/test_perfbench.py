"""Smoke-size tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 11
# two 512-trial chunks at jobs=2, so the process pool and the worker spans are exercised
POOLED = run.Workload("smoke_trend", "trend", k=2, n_values=(8,), trials=600, jobs=2)
CROSS = run.Workload("smoke_cross", "crosscheck", k=3, n_values=(6,), trials=20)


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture(scope="module")
def spec():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(spec, tmp_path, trace):
    result = run.run(POOLED, SEED, 0.0, trace, state=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}


def test_workload_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def good_cross(program, tmp_path_factory):
    out = tmp_path_factory.mktemp("cross") / "out.csv"
    call = run.call_cli(program, CROSS.argv(SEED, out), out)
    assert checks.check_call(CROSS, SEED, call.code, call.stderr, call.out, {})
    return call


def _failed(wl, code, stderr, out, reference=None):
    results = checks.check_call(wl, SEED, code, stderr, out, reference or {})
    return [label for label, ok in results if not ok]


def test_good_output_passes(good_cross):
    assert _failed(CROSS, good_cross.code, good_cross.stderr, good_cross.out) == []


def test_flagged_report_fails(good_cross):
    assert _failed(CROSS, 1, good_cross.stderr + "FLAG: instance 3: mismatch\n", good_cross.out)


def test_mismatched_oracle_count_fails(good_cross):
    header, row = good_cross.out.decode().splitlines()
    cells = row.split(",")
    cells[5] = str(int(cells[5]) - 1)  # successes one short of the instance count
    tampered = f"{header}\n{','.join(cells)}\n".encode()
    assert _failed(CROSS, 0, "", tampered)


def test_malformed_csv_and_wrong_header_fail(good_cross):
    assert _failed(CROSS, 0, "", good_cross.out.replace(b"seed", b"sead"))
    assert _failed(CROSS, 0, "", good_cross.out + b"extra,line\n")
    assert _failed(CROSS, 0, "", b"")


def test_rate_far_from_reference_fails():
    ref = (900, 1000)
    assert checks.rate_consistent(115, 128, ref)
    assert not checks.rate_consistent(60, 128, ref)
    assert not checks.rate_consistent(128, 128, (600, 1000))
    # a reference without failures still admits a rare failure at the benchmark's size
    assert checks.rate_consistent(127, 128, (4000, 4000))


def test_changed_digest_fails(tmp_path):
    store = tmp_path / "digests.json"
    assert all(ok for _, ok in checks.check_digests(["a" * 64, "a" * 64], "key", store))
    assert all(ok for _, ok in checks.check_digests(["a" * 64], "key", store))
    assert not any(ok for _, ok in checks.check_digests(["b" * 64], "key", store))


def test_changed_digest_drives_failed_frac_above_zero(tmp_path):
    src_hash, _ = run.src_digest_and_lines()
    key = f"{src_hash[:16]}/{CROSS.name}/{SEED}"
    (tmp_path / "digests.json").write_text(json.dumps({key: "0" * 64}))
    result = run.run(CROSS, SEED, 0.0, False, state=tmp_path)
    assert not result["correct"] and result["failed"] >= 1


def test_child_spans_never_exceed_their_parent(program, tmp_path):
    out = tmp_path / "out.csv"
    tracer = tracing.Tracer(tmp_path / "spans")
    with tracer.installed(program):
        call = run.call_cli(program, POOLED.argv(SEED, out), out, tracer.wrap("cli.main", program.cli.main))
    assert call.code == 0
    spans = {s[0]: s for s in tracer.spans}
    assert len({sid >> 32 for sid in spans}) == 3  # this process and two workers
    children = [s for s in spans.values() if s[1]]
    assert children
    for s in children:
        parent = spans[s[1]]
        assert parent[3] <= s[3] <= s[4] <= parent[4], (parent[2], s[2])
    metrics = tracing.layer_metrics(tracer.spans, [call])
    assert metrics["randmodel.run_trial.calls"][0] == POOLED.trials
    assert metrics["experiments.trial_chunk.calls"][0] == 2
    assert metrics["trend.n8.total_ms"][0] >= metrics["trend.n8.sample_ms"][0] + metrics["trend.n8.reduce_ms"][0]
