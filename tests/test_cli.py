"""Command-line surface: flags, exit codes, formats, reproducibility."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_experiments import _zero_one_pair, substituting_search
from fqexchange import cli, experiments
from fqexchange.cli import build_parser, main
from fqexchange.exchange import ExchangeInstance, OrderedBasis, SerialCertificate, serial_check
from fqexchange.matfq import read_matrix_text
from fqexchange.experiments import CSV_COLUMNS


def write_identity(path, q, n):
    rows = [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    path.write_text(f"{q} {n} {n}\n" + "\n".join(rows) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_alpha_one_record(capsys):
    code, out, err = run(
        capsys, "estimate", "alpha", "--q", "3", "--k", "2", "--trials", "200", "--seed", "7"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("name,q,k,n,")
    assert lines[1].startswith("alpha,3,2,n/a,200,")


def test_estimate_rejects_non_prime_power(capsys):
    code, out, err = run(capsys, "estimate", "alpha", "--q", "6", "--k", "2", "--seed", "1")
    assert code == 2
    assert "NotPrimePower" in err


def test_missing_required_flag_exits_2(capsys):
    code, out, err = run(capsys, "estimate", "alpha", "--k", "2")
    assert code == 2


def test_default_seed_announced(capsys):
    code, out, err = run(capsys, "estimate", "alpha", "--q", "2", "--k", "1", "--trials", "50")
    assert code == 0
    assert "default seed 1729" in err


def test_serial_identity_certificate(capsys, tmp_path):
    m = write_identity(tmp_path / "id4.mat", 3, 4)
    code, out, err = run(capsys, "serial", "--b1", m, "--b2", m, "--x1", "0,1")
    assert code == 0
    assert "partner: 0 1" in out
    assert "sigma: 0 1 / tau: 0 1" in out


def test_serial_explicit_x2(capsys, tmp_path):
    m = write_identity(tmp_path / "id3.mat", 3, 3)
    code, out, err = run(capsys, "serial", "--b1", m, "--b2", m, "--x1", "0,2", "--x2", "0,2")
    assert code == 0
    assert out.strip() == "sigma: 0 2 / tau: 0 2"


def test_serial_none_result(capsys, tmp_path):
    m = write_identity(tmp_path / "id3.mat", 3, 3)
    # exchanging position 0 against position 1 of the same basis repeats a column
    code, out, err = run(capsys, "serial", "--b1", m, "--b2", m, "--x1", "0", "--x2", "1")
    assert code == 0
    assert out.strip() == "none"


def test_serial_rejects_singular_matrix_file(capsys, tmp_path):
    path = tmp_path / "sing.mat"
    path.write_text("3 2 2\n1 2\n2 1\n")
    code, out, err = run(capsys, "serial", "--b1", str(path), "--b2", str(path), "--x1", "0")
    assert code == 2
    assert "rank" in err


@pytest.mark.parametrize("second", [(3, 3), (2, 2)], ids=["other_field", "other_rank"])
def test_serial_blocks_mismatched_bases_exit_2(capsys, tmp_path, second):
    b1 = write_identity(tmp_path / "b1.mat", 2, 3)
    b2 = write_identity(tmp_path / "b2.mat", *second)
    code, out, err = run(capsys, "serial", "--b1", b1, "--b2", b2, "--x1", "0")
    assert code == 2
    assert out == ""
    assert "error: bases must share dimension and field" in err


def test_regime_warning_exit_zero(capsys):
    code, out, err = run(
        capsys, "trend", "--q", "3", "--k", "3", "--n", "8", "--trials", "5", "--seed", "2"
    )
    assert code == 0
    assert "exceeds ln(8)" in err


def test_trend_q2_analytic_na(capsys):
    code, out, err = run(
        capsys, "trend", "--q", "2", "--k", "2", "--n", "6", "--n", "8",
        "--trials", "20", "--seed", "3",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[9] == "n/a"


def test_formats_encode_identical_numbers(capsys):
    args = ["estimate", "beta", "--q", "3", "--k", "2", "--trials", "300", "--seed", "5"]
    code, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    (obj,) = json.loads(json_out)
    header, row = (line.split(",") for line in csv_out.strip().splitlines())
    for col, cell in zip(header, row):
        if obj[col] is None:
            assert cell == "n/a"
        elif isinstance(obj[col], float):
            assert float(cell) == obj[col]
        else:
            assert str(obj[col]) == cell


def test_out_files_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run(
            capsys, "verify", "conditional", "--q", "3", "--k", "2", "--n", "8",
            "--trials", "400", "--seed", "11", "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_crosscheck_clean_run_exit_zero(capsys):
    code, out, err = run(
        capsys, "crosscheck", "--q", "3", "--k", "3", "--n", "5", "--instances", "40", "--seed", "4"
    )
    assert code == 0
    assert "serial_oracle_match,3,3,5,40,40," in out


def test_crosscheck_flagged_violation_exit_one(capsys):
    # seed 0 at k=2 deterministically includes two-way exchangeable pairs
    # with no serial certificate (instances 1420 and 1487), which the
    # report flags
    code, out, err = run(
        capsys, "crosscheck", "--q", "3", "--k", "2", "--n", "6", "--instances", "1536", "--seed", "0"
    )
    assert code == 1
    assert "FLAG" in err


def test_crosscheck_unsound_certificate_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_search_stack", substituting_search(experiments._search_stack))
    code, out, err = run(
        capsys, "crosscheck", "--q", "3", "--k", "3", "--n", "6", "--instances", "60", "--seed", "7"
    )
    assert code == 1
    assert "returned certificate fails verification" in err


def test_exhaustive_small_cli(capsys):
    code, out, err = run(capsys, "exhaustive", "--q", "2", "--n", "2", "--seed", "0")
    assert code == 0
    assert "greene_woodall_witness,2,n/a,2,108,108," in out


def test_exhaustive_missing_witness_exits_one(capsys, monkeypatch):
    # a missing witness is reported as FLAG lines on stderr and exit 1;
    # here basis pair 3's vp is zeroed, so all its 3 subsets and 2
    # elements miss
    _zero_one_pair(monkeypatch, 3)
    code, out, err = run(capsys, "exhaustive", "--q", "2", "--n", "2", "--seed", "0")
    assert code == 1
    assert "greene_woodall_witness,2,n/a,2,108,105," in out
    assert "symmetric_partner_nonempty,2,n/a,2,72,70," in out
    flags = [line for line in err.splitlines() if line.startswith("FLAG: ")]
    assert flags == [f"FLAG: pair 3: no set-exchange witness for x1={x1}" for x1 in ((0,), (1,), (0, 1))] + [
        f"FLAG: pair 3: no symmetric partner for x={x}" for x in (0, 1)]


def test_verify_zprime_cli_small(capsys):
    code, out, err = run(
        capsys, "verify", "zprime", "--q", "3", "--k", "2", "--n", "8",
        "--trials", "1200", "--seed", "6",
    )
    assert code == 0
    assert "zprime_zero_given_z_" in out


def test_jobs_flag_does_not_change_output(capsys):
    args = [
        "trend", "--q", "3", "--k", "2", "--n", "6", "--trials", "300", "--seed", "8",
    ]
    code, out1, _ = run(capsys, *args, "--jobs", "1")
    assert code == 0
    code, out2, _ = run(capsys, *args, "--jobs", "2")
    assert code == 0
    assert out1 == out2


def test_worker_that_dies_without_a_result_exits_2(capsys, monkeypatch):
    # the forked worker's chunk leaves through os._exit(3); the caller's
    # own chunk runs as usual
    caller = os.getpid()
    chunk = experiments._estimate_chunk

    def dying(args):
        if os.getpid() != caller:
            os._exit(3)
        return chunk(args)

    monkeypatch.setattr(experiments, "_estimate_chunk", dying)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "estimate", "alpha", "--q", "3", "--k", "2", "--trials", "1024", "--jobs", "2",
                         "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: worker 1 ended without a result") and "Traceback" not in err


def test_cli_import_loads_no_process_pool():
    probe = "import sys, fqexchange.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_trend_rejects_q_above_256(capsys):
    # GF(257) elements do not fit the uint8 entries; a clean input error
    code, out, err = run(capsys, "trend", "--q", "257", "--k", "2", "--n", "8", "--trials", "10", "--seed", "1")
    assert code == 2
    assert "FieldTooLarge" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["crosscheck", "--q", "3", "--k", "2", "--n", "6", "--instances", "0"],
        ["crosscheck", "--q", "3", "--k", "2", "--n", "6", "--instances", "-3"],
        ["exhaustive", "--q", "3", "--n", "3", "--pairs", "0"],
        ["trend", "--q", "3", "--k", "0", "--n", "8"],
        ["verify", "conditional", "--q", "3", "--k", "0", "--n", "8"],
        ["verify", "zprime", "--q", "3", "--k", "-1", "--n", "8"],
        ["crosscheck", "--q", "3", "--k", "0", "--n", "6"],
        ["estimate", "alpha", "--q", "3", "--k", "-1"],
        ["estimate", "beta", "--q", "3", "--k", "2", "--trials", "0"],
        ["trend", "--q", "3", "--k", "2", "--n", "8", "--trials", "-5"],
        ["trend", "--q", "3", "--k", "2", "--n", "8", "--jobs", "-7"],
        ["verify", "zprime", "--q", "3", "--k", "2", "--n", "8", "--jobs", "0"],
        ["trend", "--q", "3", "--k", "two", "--n", "8"],
        ["trend", "--q", "3", "--k", "1", "--n", "0"],
        ["verify", "conditional", "--q", "3", "--k", "2", "--n", "-4"],
        ["crosscheck", "--q", "3", "--k", "2", "--n", "0"],
        ["crosscheck", "--q", "3", "--k", "6", "--n", "8"],
        ["exhaustive", "--q", "3", "--n", "0"],
        ["exhaustive", "--q", "3", "--n", "-2"],
        ["trend", "--q", "2", "--k", "17", "--n", "17", "--trials", "1"],
        ["verify", "conditional", "--q", "2", "--k", "17", "--n", "17", "--trials", "1"],
    ],
)
def test_out_of_range_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_trend_exhaustive_warns_for_each_gated_n(capsys):
    # n = 80 has C(80, 2) = 3160 subsets, above the gate: its subset row is
    # left out, and stderr must say so; at gate 3160 every n fits
    argv = ["trend", "--q", "3", "--k", "2", "--n", "8", "--n", "80", "--trials", "20", "--seed", "1", "--exhaustive"]
    code, out, err = run(capsys, *argv, "--gate", "100")
    assert code == 0
    assert [r.split(",")[:4] for r in out.splitlines() if r.startswith("subset_success")] == [["subset_success", "3", "2", "8"]]
    assert [line for line in err.splitlines() if "gate" in line] == [
        "warning: C(80,2) = 3160 exceeds the subset gate 100; no subset_success row for n = 80"
    ]
    code, out, err = run(capsys, *argv, "--gate", "3160")
    assert code == 0
    assert sum(r.startswith("subset_success") for r in out.splitlines()) == 2
    assert "gate" not in err


def test_crosscheck_k_limit_names_pair_count(capsys):
    code, out, err = run(capsys, "crosscheck", "--q", "3", "--k", "6", "--n", "8", "--seed", "1")
    assert code == 2 and out == ""
    assert "(k!)^2 = 518400" in err


@pytest.mark.parametrize("k", [182, 2000, 10**6])
def test_estimate_k_above_draw_limit_exits_2_before_drawing(capsys, monkeypatch, k):
    # 512 k^2 bytes per chunk draw; k = 181 is the largest within 2^24
    def no_draw(*args):
        raise AssertionError("drew matrices for a rejected k")

    monkeypatch.setattr(experiments, "_map_chunks", no_draw)
    code, out, err = run(capsys, "estimate", "alpha", "--q", "3", "--k", str(k), "--seed", "1")
    assert code == 2 and out == ""
    assert f"k = {k} needs {512 * k * k} bytes" in err


def test_estimate_accepts_k_at_draw_limit(capsys):
    code, out, err = run(capsys, "estimate", "beta", "--q", "3", "--k", "181", "--trials", "2", "--seed", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("beta,3,181,n/a,2,")


def test_estimate_accepts_k0(capsys):
    code, out, err = run(capsys, "estimate", "alpha", "--q", "3", "--k", "0", "--trials", "10", "--seed", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("alpha,3,0,n/a,10,10,1.0,")


def test_exhaustive_default_seed_announced(capsys):
    code, out, err = run(capsys, "exhaustive", "--q", "2", "--n", "2")
    assert code == 0
    assert "default seed 1729" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "alpha", "--q", "3", "--k", "2", "--trials", "10", "--seed", "1", "--gate", "5", "--exhaustive"],
        ["estimate", "beta", "--q", "3", "--k", "2", "--trials", "10", "--seed", "1", "--exhaustive"],
        ["verify", "zprime", "--q", "3", "--k", "2", "--n", "4", "--trials", "400", "--seed", "1", "--exhaustive"],
        ["verify", "conditional", "--q", "3", "--k", "2", "--n", "8", "--trials", "10", "--seed", "1", "--gate", "5"],
        ["crosscheck", "--q", "3", "--k", "2", "--n", "4", "--instances", "3", "--seed", "1", "--jobs", "9"],
        ["crosscheck", "--q", "3", "--k", "2", "--n", "4", "--instances", "3", "--seed", "1", "--exhaustive"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    # --exhaustive and --gate belong to trend; --jobs to estimate, trend and verify
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_serial_negative_header_exits_2(capsys, tmp_path):
    path = tmp_path / "neg.mat"
    path.write_text("3 -5 3\n")
    code, out, err = run(capsys, "serial", "--b1", str(path), "--b2", str(path), "--x1", "0")
    assert code == 2
    assert out == ""
    assert "error: matrix shape -5 x 3 is negative" in err


def test_serial_matrix_file_with_an_extra_row_exits_2(capsys, tmp_path):
    extra = tmp_path / "extra.mat"
    extra.write_text("3 2 2\n1 0\n0 1\n2 2\n")
    m = write_identity(tmp_path / "id2.mat", 3, 2)
    code, out, err = run(capsys, "serial", "--b1", str(extra), "--b2", m, "--x1", "0", "--x2", "1")
    assert code == 2
    assert out == ""
    assert "error: matrix file has content after its 2 rows" in err


def test_serial_failure_leaves_no_out_file(capsys, tmp_path):
    m = write_identity(tmp_path / "id3.mat", 3, 3)
    path = tmp_path / "o.txt"
    code, out, err = run(capsys, "serial", "--b1", m, "--b2", m, "--x1", "0,7", "--out", str(path))
    assert code == 2
    assert "error:" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["trend", "--q", "3", "--k", "1", "--n", "4", "--trials", "8"],
    ["verify", "zprime", "--q", "3", "--k", "2", "--n", "4", "--trials", "8"],
])
@pytest.mark.parametrize("message", ["Unable to allocate 3.58 GiB for an array", ""])
def test_chunk_out_of_memory_exits_2_without_out_file(capsys, monkeypatch, tmp_path, argv, message):
    # a chunk too large to allocate ends in the error line, not a traceback with exit 1
    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "sample_reduced", no_memory)
    path = tmp_path / "o.csv"
    code, out, err = run(capsys, *argv, "--seed", "1", "--jobs", "1", "--out", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {message or 'MemoryError'}"
    assert not path.exists()


# --- the CLI contract, on argv built from the parser's own options ---

# In-range values; at most one option per argv instead takes a small int
# from _EDGE, which includes 0 and negatives.
_VALID = {
    "q": st.sampled_from([2, 3, 4, 5, 9]),
    "k": st.integers(1, 2),
    "n": st.integers(2, 8),
    "trials": st.integers(1, 50),  # at most one chunk, so no worker pool starts
    "instances": st.integers(1, 50),
    "pairs": st.integers(1, 5),
    "jobs": st.sampled_from([1, 2]),
    "seed": st.integers(0, 10**6),
    "gate": st.integers(0, 40),
}
_VALID_EXHAUSTIVE = {**_VALID, "q": st.sampled_from([2, 3]), "n": st.integers(1, 3)}
_EDGE = st.integers(-3, 1)


def _subparsers():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sub.choices[name] for name in ("estimate", "trend", "verify", "crosscheck", "exhaustive")}


def _draw_argv(data, name, parser):
    valid = _VALID_EXHAUSTIVE if name == "exhaustive" else _VALID
    edge = data.draw(st.sampled_from([None, None, *sorted(set(valid) & {a.dest for a in parser._actions})]))
    argv = [name]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or action.dest == "out":
            continue
        if not action.option_strings:  # the positional target
            argv.append(data.draw(st.sampled_from(action.choices)))
        elif action.nargs == 0:  # a switch
            if data.draw(st.booleans()):
                argv.append(action.option_strings[0])
        elif action.choices:
            argv += [action.option_strings[0], data.draw(st.sampled_from(action.choices))]
        else:
            values = _EDGE if action.dest == edge else valid[action.dest]
            size = 3 if isinstance(action, argparse._AppendAction) else 1
            for v in data.draw(st.lists(values, min_size=1, max_size=size).map(sorted)):
                argv += [action.option_strings[0], str(v)]
    return argv


def _counts(out: str, fmt: str):
    if fmt == "json":
        rows = json.loads(out)
        assert all(list(row) == list(CSV_COLUMNS) for row in rows)
        return [(row["trials"], row["successes"]) for row in rows]
    header, *lines = out.splitlines()
    assert header == ",".join(CSV_COLUMNS)
    cells = [line.split(",") for line in lines]
    assert all(len(c) == len(CSV_COLUMNS) for c in cells)
    return [(int(c[4]), int(c[5])) for c in cells]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_contract(data):
    name = data.draw(st.sampled_from(sorted(_subparsers())))
    argv = _draw_argv(data, name, _subparsers()[name])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        return
    if code == 1:
        assert "FLAG: " in err, argv
    fmt = argv[argv.index("--format") + 1]
    assert all(trials >= 0 and successes >= 0 for trials, successes in _counts(out, fmt)), argv


# --- the serial command's contract, on small matrix files ---


@st.composite
def _matrix_text(draw, q, n):
    """A q-ary n x n matrix in the text format, at times singular or with one defect."""
    defect = draw(st.sampled_from([None] * 12 + ["shape", "field", "entry", "header", "short"]))
    m, cols = draw(st.tuples(st.integers(0, 4), st.integers(0, 4))) if defect == "shape" else (n, n)
    fq = draw(st.sampled_from([2, 3, 4, 6])) if defect == "field" else q
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols), min_size=m, max_size=m))
    if m == cols and draw(st.integers(0, 3)):  # a row permutation of a unit upper triangular matrix: nonsingular
        rows = [[1 if i == j else v if j > i else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]
        rows = draw(st.permutations(rows))
    if defect == "entry" and m and cols:
        rows[0][0] = draw(st.sampled_from([q, q + 1, -1]))
    header = f"{fq} {m} {cols}"
    if defect == "header":
        header = draw(st.sampled_from([f"{fq} {m}", f"{fq} {m} {cols} 1", f"{fq} -{m + 1} {cols}", "q m n", ""]))
    lines = [header] + [" ".join(map(str, row)) for row in rows]
    if defect == "short":
        lines = lines[: draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + "\n"


def _positions(n):
    """Comma-separated positions: mostly distinct and in range, at times with duplicates, out of range or empty."""
    fine = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    return (fine | fine | st.lists(st.integers(-1, n + 1), max_size=4)).map(lambda ps: ",".join(map(str, ps)))


def _read(path) -> OrderedBasis:
    with open(path) as fh:
        return OrderedBasis(read_matrix_text(fh))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_serial_contract(data, tmp_path):
    q = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(1, 5))
    q2, n2 = q, n
    if data.draw(st.integers(0, 3)) == 0:  # the second basis over another field or of another rank
        q2, n2 = data.draw(st.tuples(st.sampled_from([2, 3, 4]), st.integers(1, 5)))
    where = Path(tempfile.mkdtemp(dir=tmp_path))  # new files: rewriting one in place is slow on some filesystems
    paths = [where / "b1.mat", where / "b2.mat"]
    paths[0].write_text(data.draw(_matrix_text(q, n)))
    paths[1].write_text(data.draw(_matrix_text(q2, n2)))
    x1, x2 = data.draw(_positions(n)), data.draw(st.none() | _positions(n))
    argv = ["serial", "--b1", str(paths[0]), "--b2", str(paths[1]), "--x1", x1]
    argv += [] if x2 is None else ["--x2", x2]
    argv += ["--mode", data.draw(st.sampled_from(["blocks", "all_subsets"])), "--gate", str(data.draw(st.integers(-1, 12)))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        assert "error:" in err, argv
        return
    if out == "none\n":
        return
    *partner, cert = out.splitlines()
    if x2 is None:
        assert len(partner) == 1 and partner[0].startswith("partner: "), out
        x2 = partner[0].split()[1:]
    else:
        assert not partner, out
        x2 = x2.split(",")
    x1, x2 = tuple(int(p) for p in x1.split(",") if p), tuple(int(p) for p in x2 if p)
    inst = ExchangeInstance(_read(paths[0]), _read(paths[1]), x1, x2)
    assert serial_check(inst, SerialCertificate.from_text(cert)), (argv, out)


def test_main_reuses_one_parser(capsys):
    # main builds its parser once per process; a run of calls that mixes
    # subcommands, repeated flags and failing argv (exit 2) must give each
    # call the exit code and output a freshly built parser gives it
    argvs = [
        ["trend", "--q", "3", "--k", "2", "--n", "6", "--n", "8", "--trials", "20", "--seed", "1"],
        ["trend", "--q", "3", "--k", "two", "--n", "8"],
        ["estimate", "alpha", "--q", "3", "--k", "2", "--trials", "50", "--seed", "2", "--format", "json"],
        ["crosscheck", "--q", "3", "--k", "2", "--n", "4", "--instances", "5", "--seed", "3"],
        ["verify", "zprime", "--q", "3", "--k", "2", "--n", "8", "--trials", "0"],
        ["trend", "--q", "3", "--k", "2", "--n", "6", "--trials", "20", "--seed", "1"],
        ["bogus"],
        ["trend", "--q", "3", "--k", "2", "--n", "6", "--n", "8", "--trials", "20", "--seed", "1"],
    ]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 2, 0, 2, 0]
