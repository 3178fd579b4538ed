"""Command-line experiment runner.

Usage::

    opwls run (<config.json> | --preset NAME) [--seed N] [--out DIR]
              [--trials N] [--sampling optimal|monte-carlo|both]

A preset stands in for the config file; giving both is a validation error.
Explicit flags override either.
Failures exit nonzero after printing a machine-readable JSON error record to
stderr; validation errors, among them a config file that cannot be read or
parsed, exit 2 and write no files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import PRESETS, ConfigError, ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opwls", description="Weighted least-squares operator learning runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute one experiment config")
    runner.add_argument("config", nargs="?", help="path to a JSON config document")
    runner.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
    runner.add_argument("--seed", type=int, help="override the master seed")
    runner.add_argument("--out", help="override the output directory")
    runner.add_argument("--trials", type=int, help="override the trial count")
    runner.add_argument(
        "--sampling", choices=["optimal", "monte-carlo", "both"],
        help="override the sampling strategy",
    )
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("provide either a config file or --preset")
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        config = ExperimentConfig.from_json(text)
    else:
        config = ExperimentConfig(**PRESETS[args.preset])
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    if args.trials is not None:
        config.trials = args.trials
    if args.sampling is not None:
        config.sampling = args.sampling.replace("-", "_")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        result = run(config)
    except ConfigError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure after validation
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(f"wrote {result.results_rows} result rows to {result.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
