"""Command-line entry point.

Each experiment kind runs under the subcommand its spec class names (see
config.KINDS). All take --config <path> plus optional --out, --seed
(overrides the config) and --threads (sweep concurrency only; results are
thread-count independent).

Exit codes: 0 all cells completed, 2 partial failures, 1 configuration
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import KINDS, ConfigError, parse_config
from .harness import run_experiment


def _kinds(command: str) -> tuple[str, ...]:
    return tuple(kind for kind, spec in KINDS.items() if spec.command == command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balancenet")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(spec.command for spec in KINDS.values()):
        p = sub.add_parser(name, help=f"run a {' or '.join(_kinds(name))} experiment")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override (u64)")
        p.add_argument("--threads", type=int, default=1,
                       help="sweep-cell concurrency; must not affect results")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = parse_config(Path(args.config).read_text(), args.seed)
        if KINDS[spec.kind].command != args.command:
            raise ConfigError("BAD_VALUE", "kind",
                              f"{args.command!r} expects kind in "
                              f"{_kinds(args.command)}, got {spec.kind!r}")
        if args.threads < 1:
            raise ConfigError("BAD_VALUE", "threads", "must be >= 1")
    except (ConfigError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    try:
        manifest = run_experiment(spec, out_dir=args.out, threads=args.threads)
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    status = manifest["status"]
    print(f"{spec.kind}: {status}; {len(manifest['files'])} files")
    if status in ("COMPLETED", "BLOWUP", "DEGENERATE_DENOMINATOR"):
        # BLOWUP and degenerate denominators are recorded outcomes, not failures
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
