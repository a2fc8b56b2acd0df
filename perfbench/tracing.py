"""Spans around the calls into each fqexchange layer, recorded from outside src/.

``Tracer.installed`` replaces module attributes with timing wrappers and
restores them afterwards.  Each name is patched where its caller looks it
up: ``matfq._rank_of``, ``exchange._rank_of`` and ``randmodel._rank_of`` are
separate bindings of one function, and so on (see PATCHES).

A span is ``(id, parent, name, start, end, info)``; parent is the span that
was open in the same call stack, and ``info`` holds what the layer metrics
read from arguments or results.  Pool workers are forked while the
``_map_chunks`` span is open, so they inherit both the patches and that
span as parent; each worker spills its spans to a file when its chunk
ends, and the parent collects the files.  All times are
``time.perf_counter`` (CLOCK_MONOTONIC), which is shared across processes.

Span nesting (parent -> child):
    cli.main -> gf.make_field, experiments.map_chunks, cli.emit,
                exchange.serial_check, exchange.search_reduced, matfq.reduce_against, ...
    experiments.map_chunks -> experiments.trial_chunk (in workers when jobs > 1)
    experiments.trial_chunk -> gf.make_field, randmodel.derive_rng, randmodel.run_trial
    randmodel.run_trial -> matfq.random_full_rank, matfq.reduce_against,
                           matfq.rank_small / matfq.rank_general, exchange.search_reduced
    matfq.random_full_rank -> matfq.rank_general (one per draw)
    exchange.search_reduced -> matfq.rank_small / matfq.rank_general (prefix tests)
    exchange.serial_check -> matfq.rank_general
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import marshal
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _rank_name(args) -> str:
    rows, cols = args[0].shape
    return "matfq.rank_small" if rows <= 3 and cols <= 3 else "matfq.rank_general"


def _trial_info(args, result):
    return (args[1], result.Z, result.Zprime)  # n, two-way blocks, serial blocks


# (module, attribute, span name or name-of-arguments, info(args, result) or None)
PATCHES = (
    ("experiments", "make_field", "gf.make_field", None),
    ("randmodel", "random_full_rank", "matfq.random_full_rank", None),
    ("matfq", "_rank_of", _rank_name, None),
    ("exchange", "_rank_of", _rank_name, None),
    ("randmodel", "_rank_of", _rank_name, None),
    ("exchange", "reduce_against", "matfq.reduce_against", None),
    ("exchange", "_search_reduced", "exchange.search_reduced", lambda a, r: r is not None),
    ("randmodel", "_search_reduced", "exchange.search_reduced", lambda a, r: r is not None),
    ("experiments", "serial_check", "exchange.serial_check", None),
    ("experiments", "derive_rng", "randmodel.derive_rng", None),
    ("experiments", "run_trial", "randmodel.run_trial", _trial_info),
    ("experiments", "_trial_chunk", "experiments.trial_chunk", None),
    ("experiments", "_map_chunks", "experiments.map_chunks", lambda a, r: (a[2], len(a[1]))),
    ("cli", "_emit", "cli.emit", None),
)


class Tracer:
    """In-memory spans of one benchmark process and the workers it forks."""

    def __init__(self, spill_dir: Path):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._owner = self._pid
        self._fork_depth = 0
        self._spill_dir = spill_dir
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._pid = os.getpid()
        self._fork_depth = len(self._stack)

    def _spill(self) -> None:
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"{self._pid}-{next(self._ids)}.spans"
        path.write_bytes(marshal.dumps(self.spans))
        self.spans = []

    def collect(self) -> None:
        """Move the spans the workers spilled into this process's list."""
        for path in sorted(self._spill_dir.glob("*.spans")):
            self.spans.extend(marshal.loads(path.read_bytes()))
            path.unlink()

    def wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (tracer._pid << 32) | next(tracer._ids)
            stack = tracer._stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                detail = info(args, result) if info and returned else None
                tracer.spans.append((sid, parent, label, start, end, detail))
                if tracer._pid != tracer._owner and len(stack) == tracer._fork_depth:
                    tracer._spill()

        return traced

    @contextlib.contextmanager
    def installed(self, program):
        """Patch PATCHES into the program's modules for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, info in PATCHES:
                module = getattr(program, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.collect()


def _dur(span) -> float:
    return span[4] - span[3]


def layer_metrics(spans, calls) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced CLI call, from the spans of all traced calls."""
    ncalls = len(calls)
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        kids[s[1]].append(s)
    if sum(1 for s in spans if s[2] == "cli.main") != ncalls:
        raise RuntimeError("trace lost cli.main spans")
    for mc in by_name["experiments.map_chunks"]:
        jobs, chunks = mc[5]
        if jobs > 1 and chunks > 1 and len(kids[mc[0]]) != chunks:
            raise RuntimeError("trace lost the spans of pool workers")

    def count(name):
        return len(by_name[name]) / ncalls

    def secs(name):
        return sum(_dur(s) for s in by_name[name]) / ncalls

    def child_count(parent_name, prefix):
        return sum(1 for p in by_name[parent_name] for c in kids[p[0]] if c[2].startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    rfr, sr = "matfq.random_full_rank", "exchange.search_reduced"
    m: dict[str, tuple[float, str]] = {"gf.make_field_s": (secs("gf.make_field"), "s")}
    for name in (rfr, "matfq.reduce_against", "matfq.rank_small", "matfq.rank_general", sr,
                 "exchange.serial_check", "randmodel.derive_rng", "experiments.trial_chunk"):
        m[name + ".calls"] = (count(name), "count")
        m[name + ".s"] = (secs(name), "s")
    draws = child_count(rfr, "matfq.rank_")
    m[rfr + ".draws"] = (draws / ncalls, "count")
    m[rfr + ".accept_ratio"] = (ratio(len(by_name[rfr]), draws), "frac")
    m[sr + ".prefix_tests"] = (child_count(sr, "matfq.rank_") / ncalls, "count")
    m[sr + ".hit_ratio"] = (ratio(sum(1 for s in by_name[sr] if s[5]), len(by_name[sr])), "frac")

    trials = by_name["randmodel.run_trial"]
    durs_ms = sorted(_dur(s) * 1e3 for s in trials)
    if len(durs_ms) >= 2:
        p50, p99 = (statistics.quantiles(durs_ms, n=100)[i] for i in (49, 98))
    else:
        p50 = p99 = durs_ms[0] if durs_ms else 0.0
    self_s = sum(_dur(s) - sum(_dur(c) for c in kids[s[0]]) for s in trials)
    m["randmodel.run_trial.calls"] = (count("randmodel.run_trial"), "count")
    m["randmodel.run_trial.self_s"] = (self_s / ncalls, "s")
    m["randmodel.run_trial.p50_ms"] = (p50, "ms")
    m["randmodel.run_trial.p99_ms"] = (p99, "ms")
    m["randmodel.two_way_blocks"] = (sum(s[5][1] for s in trials) / ncalls, "count")
    m["randmodel.serial_blocks"] = (sum(s[5][2] for s in trials) / ncalls, "count")

    overhead = 0.0
    for s in by_name["experiments.map_chunks"]:
        jobs = max(1, min(s[5][0], s[5][1]))
        overhead += _dur(s) - sum(_dur(c) for c in kids[s[0]]) / jobs
    m["experiments.pool_overhead_s"] = (overhead / ncalls, "s")
    m["cli.emit_s"] = (secs("cli.emit"), "s")
    m["cli.out_bytes"] = (statistics.median(len(c.out) for c in calls), "bytes")

    for n in (8, 20, 40, 80):
        rows = [s for s in trials if s[5][0] == n]
        total = sample = reduce = 0.0
        for s in rows:
            total += _dur(s)
            for c in kids[s[0]]:
                if c[2] == rfr:
                    sample += _dur(c)
                elif c[2] == "matfq.reduce_against":
                    reduce += _dur(c)
        per = 1e3 / len(rows) if rows else 0.0
        m[f"trend.n{n}.total_ms"] = (total * per, "ms")
        m[f"trend.n{n}.sample_ms"] = (sample * per, "ms")
        m[f"trend.n{n}.reduce_ms"] = (reduce * per, "ms")
        m[f"trend.n{n}.blocks_search_ms"] = ((total - sample - reduce) * per, "ms")
    return m
