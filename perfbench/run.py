#!/usr/bin/env python3
"""fqexchange benchmark: acceptance-fixture workloads through the CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload trend_n8_80 --seed 7 --seconds 36 --trace 0

Each workload is one closed-loop client: the benchmark process calls
``fqexchange.cli.main`` with the workload's argv and ``--out`` to a file,
waits for it to return, checks the output and calls it again while the
next call still fits in ``--seconds``.  Every call of a run uses the same
generated argv, so all of them must write the same bytes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time on untraced calls and half on calls traced from ``tracing.py``, and
prints the per-layer metrics.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"  # --out files, digests, worker spans; git-ignored

DEFAULT_SEED = 7
SETUP_PROBES = 11  # fresh-process set-up timings per run, after one warm-up

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One CLI call shape; trials is per n row, or the instance count for crosscheck."""

    name: str
    kind: str  # trend | zprime | crosscheck
    k: int
    n_values: tuple[int, ...]
    trials: int
    jobs: int = 1
    q: int = 3

    def argv(self, seed: int, out: Path) -> list[str]:
        if self.kind == "crosscheck":
            head = ["crosscheck", "--instances", str(self.trials)]
        else:
            head = ["verify", "zprime"] if self.kind == "zprime" else ["trend"]
            head += ["--trials", str(self.trials), "--jobs", str(self.jobs)]
        ns = [a for n in self.n_values for a in ("--n", str(n))]
        return head + ["--q", str(self.q), "--k", str(self.k), *ns, "--seed", str(seed), "--out", str(out)]

    @property
    def units(self) -> int:
        """Trials (instances for crosscheck) one call completes."""
        return self.trials * len(self.n_values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zprime_n40_j2", "zprime", k=2, n_values=(40,), trials=2048, jobs=2),
        Workload("trend_n8_80", "trend", k=2, n_values=(8, 20, 40, 80), trials=128, jobs=1),
        Workload("crosscheck_k3", "crosscheck", k=3, n_values=(6,), trials=800),
    )
}


@dataclass
class Call:
    code: int
    stderr: str
    seconds: float
    out: bytes


def load_program():
    """Import fqexchange from this checkout's src/, never from anywhere else."""
    if not (SRC / "fqexchange" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/fqexchange not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fqexchange.cli
    import fqexchange.gf

    if Path(fqexchange.cli.__file__).resolve().parent != SRC / "fqexchange":
        raise SystemExit(f"error: fqexchange imported from {fqexchange.cli.__file__}, not {SRC}")
    return fqexchange


def call_cli(program, argv: list[str], out: Path, main=None) -> Call:
    """One closed-loop request: a fresh field cache, as in a new process, then main(argv)."""
    main = main or program.cli.main
    out.unlink(missing_ok=True)
    program.gf.make_field.cache_clear()
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a crash is a failed check, not the end of the run
            traceback.print_exc()
            code = -1
    seconds = time.perf_counter() - t0
    return Call(code, err.getvalue(), seconds, out.read_bytes() if out.exists() else b"")


def timed_calls(program, wl: Workload, seed: int, budget: float, out: Path, main=None) -> list[Call]:
    """Calls back to back, at least one, while the next is expected to end within budget."""
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        calls.append(call_cli(program, wl.argv(seed, out), out, main))
        if time.perf_counter() - start + calls[-1].seconds > budget:
            return calls


def throughput(wl: Workload, calls: list[Call]) -> float:
    return statistics.median(wl.units / c.seconds for c in calls)


_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import fqexchange\n"
    "fqexchange.make_field(int(sys.argv[1]))\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(q: int) -> float:
    """Median time to import fqexchange and build GF(q) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES + 1):  # the first also writes bytecode caches
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(q)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def src_digest_and_lines() -> tuple[str, int]:
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git repository; never searches above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_metadata(wl: Workload, seed: int, src_lines: int, calls: list[Call]) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": seed,
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
        "trials_per_call": wl.units,
        "jobs": wl.jobs,
        "call_seconds": [round(c.seconds, 4) for c in calls],
        "argv": wl.argv(seed, Path("OUT"))[:-2],
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, state: Path = STATE_DIR) -> dict:
    """One benchmark run; returns the result object and prints the report lines."""
    program = load_program()
    state.mkdir(parents=True, exist_ok=True)
    out = state / f"{wl.name}.out"
    reference = checks.load_reference()
    src_hash, src_lines = src_digest_and_lines()

    if trace:
        import tracing

        calls = timed_calls(program, wl, seed, seconds / 2, out)
        tracer = tracing.Tracer(state / "spans")
        with tracer.installed(program):
            traced = timed_calls(program, wl, seed, seconds / 2, out, main=tracer.wrap("cli.main", program.cli.main))
        metrics = tracing.layer_metrics(tracer.spans, traced)
        metrics["trace_overhead_frac"] = (1.0 - throughput(wl, traced) / throughput(wl, calls), "frac")
        calls += traced
    else:
        setup = setup_seconds(wl.q)
        calls = timed_calls(program, wl, seed, seconds, out)
        metrics = {
            "trials_per_s": (throughput(wl, calls), "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    results = []
    for c in calls:
        results += checks.check_call(wl, seed, c.code, c.stderr, c.out, reference)
    digests = [hashlib.sha256(c.out).hexdigest() for c in calls]
    results += checks.check_digests(digests, f"{src_hash[:16]}/{wl.name}/{seed}", state / "digests.json")
    failed = [label for label, ok in results if not ok]
    for label in failed:
        print(f"FAILED CHECK [{wl.name}]: {label}", file=sys.stderr)
    for c in calls:
        if c.code != 0:
            print(c.stderr, file=sys.stderr, end="")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {len(failed) / len(results):.6g} frac ({len(failed)} of {len(results)} checks)")
    print(f"out_sha256 {digests[0]}")
    print("meta " + json.dumps(run_metadata(wl, seed, src_lines, calls), sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed, passed to the CLI")
    ap.add_argument("--seconds", type=float, default=36.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
