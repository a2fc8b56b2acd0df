"""Command-line entry point for the experiments and decision procedures.

Exit codes: 0 success (including warnings), 1 a verification report
contains a flagged violation or oracle mismatch, 2 invalid flags or
inputs.  Given the same arguments and seed, stdout and output files are
byte-identical across runs; warnings and flags go to stderr.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from functools import cache

from . import experiments, matfq
from .exchange import SUBSET_GATE, OrderedBasis, find_serial_partner, serial_search, ExchangeInstance
from .experiments import ExperimentConfig, Report
from .gf import NotPrimePower, UnsupportedExtension

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 1729


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, *, with_n: str | None = None, with_trials: bool = True, k_type=_positive_int) -> None:
    p.add_argument("--q", type=int, required=True, help="field size (prime power)")
    if k_type is not None:
        p.add_argument("--k", type=k_type, required=True, help="exchange set size")
    if with_n == "repeat":
        p.add_argument("--n", type=_positive_int, action="append", required=True, help="rank n (repeatable)")
    elif with_n == "single":
        p.add_argument("--n", type=_positive_int, required=True, help="rank n")
    if with_trials:
        p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS, help="Monte Carlo trials")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="processes, this one included, which forks the other JOBS - 1 (output unaffected)")
    p.add_argument("--seed", type=int, default=None, help="base seed (default printed when unset)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out", default=None, help="write records to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fqexchange", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate alpha or beta by Monte Carlo")
    p_est.add_argument("target", choices=("alpha", "beta"))
    _add_common(p_est, k_type=int)

    p_trend = sub.add_parser("trend", help="serial-partner success rate across n")
    _add_common(p_trend, with_n="repeat")
    p_trend.add_argument("--exhaustive", action="store_true", help="also run the all-subsets search")
    p_trend.add_argument("--gate", type=int, default=SUBSET_GATE, help="max C(n,k) for the all-subsets search")

    p_verify = sub.add_parser("verify", help="empirical checks of the probability bounds")
    p_verify.add_argument("target", choices=("conditional", "zprime"))
    _add_common(p_verify, with_n="single")

    p_cross = sub.add_parser("crosscheck", help="backtracking vs exhaustive enumeration")
    _add_common(p_cross, with_n="single", with_trials=False)
    p_cross.add_argument("--instances", type=_positive_int, default=500, help="random instances to compare")

    p_exh = sub.add_parser("exhaustive", help="witness existence on small instances")
    _add_common(p_exh, with_n="single", with_trials=False, k_type=None)
    p_exh.add_argument("--pairs", type=_positive_int, default=200, help="sampled basis pairs when not enumerable")

    p_serial = sub.add_parser("serial", help="decide one instance from matrix files")
    p_serial.add_argument("--b1", required=True, help="first basis, matrix text format")
    p_serial.add_argument("--b2", required=True, help="second basis, matrix text format")
    p_serial.add_argument("--x1", required=True, help="comma-separated positions in b1")
    p_serial.add_argument("--x2", default=None, help="comma-separated positions in b2")
    p_serial.add_argument("--mode", choices=("blocks", "all_subsets"), default="blocks")
    p_serial.add_argument("--gate", type=int, default=SUBSET_GATE)
    p_serial.add_argument("--out", default=None)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: parsing reads it and never changes it."""
    return build_parser()


def _resolve_seed(args) -> int:
    if args.seed is None:
        print(f"seed not given; using default seed {DEFAULT_SEED}", file=sys.stderr)
        return DEFAULT_SEED
    return args.seed


def _warn_regime(k: int, n_values) -> None:
    for n in n_values:
        if k > math.log(n):
            print(
                f"warning: k = {k} exceeds ln({n}) = {math.log(n):.3f}; "
                "outside the regime the asymptotic guarantee covers",
                file=sys.stderr,
            )


def _write(text: str, path: str | None) -> None:
    """Write the whole output at once, so a failed command leaves no file."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: Report, args) -> int:
    buf = io.StringIO()
    write = experiments.write_csv if args.format == "csv" else experiments.write_json
    write(report.records, buf)
    _write(buf.getvalue(), args.out)
    for flag in report.flags:
        print(f"FLAG: {flag}", file=sys.stderr)
    return 1 if report.flags else 0


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ValueError(f"positions must be comma-separated integers, got {text!r}") from None


def _read_basis(path: str) -> OrderedBasis:
    with open(path) as fh:
        return OrderedBasis(matfq.read_matrix_text(fh))


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args)
    config = ExperimentConfig(q=args.q, k=args.k, n_values=(), trials=args.trials, seed=seed)
    fn = experiments.estimate_alpha if args.target == "alpha" else experiments.estimate_beta
    return _emit(fn(config, jobs=args.jobs), args)


def _cmd_trend(args) -> int:
    seed = _resolve_seed(args)
    n_values = tuple(args.n)
    _warn_regime(args.k, n_values)
    for n in n_values if args.exhaustive else ():
        if math.comb(n, args.k) > args.gate:
            print(f"warning: C({n},{args.k}) = {math.comb(n, args.k)} exceeds the subset gate {args.gate}; "
                  f"no subset_success row for n = {n}", file=sys.stderr)
    config = ExperimentConfig(
        q=args.q, k=args.k, n_values=n_values, trials=args.trials, seed=seed,
        exhaustive=args.exhaustive, gate=args.gate,
    )
    return _emit(experiments.trend(config, jobs=args.jobs), args)


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    _warn_regime(args.k, (args.n,))
    config = ExperimentConfig(q=args.q, k=args.k, n_values=(args.n,), trials=args.trials, seed=seed)
    if args.target == "conditional":
        report = experiments.verify_conditional_bounds(config, jobs=args.jobs)
    else:
        report = experiments.verify_zprime_bound(config, jobs=args.jobs)
    return _emit(report, args)


def _cmd_crosscheck(args) -> int:
    seed = _resolve_seed(args)
    _warn_regime(args.k, (args.n,))
    config = ExperimentConfig(q=args.q, k=args.k, n_values=(args.n,), trials=1, seed=seed)
    report = experiments.crosscheck_serial(config, args.instances)
    return _emit(report, args)


def _cmd_exhaustive(args) -> int:
    seed = _resolve_seed(args)
    report = experiments.exhaustive_small(args.q, args.n, seed=seed, sample_pairs=args.pairs)
    return _emit(report, args)


def _cmd_serial(args) -> int:
    b1 = _read_basis(args.b1)
    b2 = _read_basis(args.b2)
    x1 = _parse_positions(args.x1)
    if args.x2 is not None:
        cert = serial_search(ExchangeInstance(b1, b2, x1, _parse_positions(args.x2)))
        text = "none\n" if cert is None else cert.to_text() + "\n"
    else:
        found = find_serial_partner(b1, x1, b2, mode=args.mode, gate=args.gate)
        if found is None:
            text = "none\n"
        else:
            partner, cert = found
            text = "partner: " + " ".join(str(j) for j in partner) + "\n" + cert.to_text() + "\n"
    _write(text, args.out)
    return 0


_HANDLERS = {
    "estimate": _cmd_estimate,
    "trend": _cmd_trend,
    "verify": _cmd_verify,
    "crosscheck": _cmd_crosscheck,
    "exhaustive": _cmd_exhaustive,
    "serial": _cmd_serial,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (NotPrimePower, UnsupportedExtension, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
