"""Command-line front end.

Subcommands: generate, convert-snap, solve, validate, bench, compare.
Exit codes: 0 success, 1 invalid cover detected, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from . import formats
from .errors import BadConfigError, BadDeltaError, TvcError
from .exact import DEFAULT_BUDGET
from .generator import (
    GeneratorConfig,
    generate_always_star,
    worst_case_acov_instance,
    worst_case_sc_instance,
)
from .graph import validate_cover


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="swtvc",
        description="Sliding-window temporal vertex cover solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance file")
    p.add_argument("--family", choices=["random-star", "worst-sc", "worst-acov"],
                   default="random-star")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--t", type=int, default=16, help="lifetime")
    p.add_argument("--d", type=int, default=3, help="max leaves per snapshot")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--underlying-star", action="store_true")
    p.add_argument("--empty-prob", type=float, default=0.0)
    p.add_argument("--delta", type=int, default=3,
                   help="window size (worst-case families)")
    p.add_argument("--reps", type=int, default=2,
                   help="period repetitions (worst-acov)")
    p.add_argument("--leaves", type=int, default=None,
                   help="leaf count (worst-acov)")
    p.add_argument("--output", required=True)

    p = sub.add_parser("convert-snap", help="convert a raw contact list")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--bucket-seconds", type=int, default=3600)
    p.add_argument("--no-keep-gaps", action="store_true")

    p = sub.add_parser("solve", help="run one solver on one instance")
    p.add_argument("--algo", required=True, choices=sorted(bench_mod.ALGORITHMS))
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="cover file destination")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--budget", type=int, default=None,
                   help=f"node limit of --algo exact (default {DEFAULT_BUDGET})")

    p = sub.add_parser("validate", help="check a cover file against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--cover", required=True)

    p = sub.add_parser("bench", help="benchmark algorithms over instance files")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--algos", nargs="+", required=True,
                   choices=sorted(bench_mod.ALGORITHMS))
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--output", required=True, help="CSV destination")

    p = sub.add_parser("compare", help="improvement of algo A over baseline B")
    p.add_argument("--csv", required=True)
    p.add_argument("--algo-a", required=True)
    p.add_argument("--algo-b", required=True)

    return parser


def _cmd_generate(args):
    if args.family == "random-star":
        cfg = GeneratorConfig(n=args.n, T=args.t, d=args.d, seed=args.seed,
                              underlying_star=args.underlying_star,
                              empty_snapshot_prob=args.empty_prob)
        g = generate_always_star(cfg)
    elif args.family == "worst-sc":
        g = worst_case_sc_instance(args.delta)
    else:
        g = worst_case_acov_instance(args.delta, args.reps, args.leaves)
    formats.write_native(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m} T={g.T}")
    return 0


def _cmd_convert_snap(args):
    g = formats.convert_snap(args.input, bucket_seconds=args.bucket_seconds,
                             keep_gaps=not args.no_keep_gaps)
    formats.write_native(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m} T={g.T}")
    return 0


def _report_invalid(g, witness):
    """Print the uncovered demand ``validate_cover`` returned, the edge by
    its endpoints."""
    e = g.edges[witness.edge]
    print(f"INVALID: uncovered demand edge=({e.u},{e.v}) "
          f"window_start={witness.window_start}")


def _cmd_solve(args):
    kwargs = {}
    if args.budget is not None:
        if args.algo != "exact":
            raise BadConfigError(f"--budget applies only to --algo exact, not {args.algo}")
        kwargs["budget"] = args.budget
    g = formats.parse_native(args.input)
    solver = bench_mod.ALGORITHMS[args.algo]
    cover = solver(g, args.delta, **kwargs)
    if args.output:
        formats.write_cover(cover, args.output)
    print(f"{args.algo} delta={args.delta}: cover size {len(cover)}")
    if args.validate:
        witness = validate_cover(g, args.delta, cover)
        if witness is not None:
            _report_invalid(g, witness)
            return 1
        print("valid")
    return 0


def _cmd_validate(args):
    g = formats.parse_native(args.input)
    cover = formats.parse_cover(args.cover)
    witness = validate_cover(g, args.delta, cover)
    if witness is not None:
        _report_invalid(g, witness)
        return 1
    print(f"valid cover of size {len(cover)}")
    return 0


def _cmd_bench(args):
    instances = [(path, formats.parse_native(path)) for path in args.inputs]
    records = bench_mod.run_benchmark(instances, args.algos, args.delta,
                                      repetitions=args.reps)
    bench_mod.write_csv(records, args.output)
    for rec in records:
        if rec.status == "ok":
            print(f"{rec.instance} {rec.algorithm}: size={rec.cover_size} "
                  f"valid={rec.valid} time_ms={rec.time_ms:.3f}")
        else:
            print(f"{rec.instance} {rec.algorithm}: {rec.status}")
    print(f"wrote {args.output}")
    return 0


def _cmd_compare(args):
    size_impr, time_impr = bench_mod.compare_csv(args.csv, args.algo_a, args.algo_b)
    print(f"size improvement of {args.algo_a} over {args.algo_b}: {size_impr:.2f}%")
    print(f"time improvement of {args.algo_a} over {args.algo_b}: {time_impr:.2f}%")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "convert-snap": _cmd_convert_snap,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
}


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except TvcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # only a bad argument value is a usage mistake; bad input files,
        # non-star snapshots and exhausted budgets are not
        if isinstance(exc, (BadDeltaError, BadConfigError)):
            print(f"run 'swtvc {args.command} --help' for usage", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
