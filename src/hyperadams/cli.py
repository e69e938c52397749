"""Command-line experiment runner.

Usage:
    hyperadams run <config-file> [--out DIR] [--threads T]
    hyperadams converge <config-file> [--out DIR] [--threads T]

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 non-convergence.  HYPERADAMS_THREADS is the fallback for --threads; the
thread count is validated, rows run in order and results do not depend on it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .config import load_config
from .errors import ConfigError, DiscretizationError, NonFiniteSampleError
from .experiments import convergence_study, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and kept."""
    parser = argparse.ArgumentParser(
        prog="hyperadams",
        description="Numerical experiments for sharp exponential-class "
        "inequalities on the hyperbolic ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one experiment from a config file"),
        ("converge", "run a refinement study of an experiment"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a key = value config file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted and validated; rows run in order and results "
            "do not depend on it (default: HYPERADAMS_THREADS or 1)",
        )
    return parser


def _check_threads(arg_value) -> None:
    """--threads, or HYPERADAMS_THREADS without it, must be a positive integer."""
    env = os.environ.get("HYPERADAMS_THREADS")
    if arg_value is None and env:
        try:
            arg_value = int(env)
        except ValueError:
            raise ConfigError(f"HYPERADAMS_THREADS={env!r} is not an integer")
    if arg_value is not None and arg_value < 1:
        raise ConfigError(f"threads must be a positive integer, got {arg_value}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_threads(args.threads)
        cfg = load_config(args.config)
        out_dir = args.out or cfg.output or "."
        start = time.perf_counter()
        report = (run_experiment if args.command == "run" else convergence_study)(cfg)
        report.wall_time_s = time.perf_counter() - start
        csv_path, json_path = report.write(out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DiscretizationError, NonFiniteSampleError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # from the write: load_config maps its own, the runs do no I/O
        print(f"configuration error: cannot write reports to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {csv_path} and {json_path} ({report.wall_time_s:.2f}s)")
    if report.failure:
        print(report.failure, file=sys.stderr)
        return EXIT_NONCONVERGENCE if args.command == "run" else EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
