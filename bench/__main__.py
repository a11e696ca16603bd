"""Command line of the benchmark; see bench/README.md.

    python -m bench run [--workload NAME|all] [--seed N] [--seconds S]
                        [--trace 0|1] [--out DIR]
    python -m bench expected
    python -m bench compare A.json... -- B.json...
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import ROOT, load_spec


def _import_program() -> str | None:
    """Put the checkout's ``src`` first on the path and import the
    analyzer from it; returns an error message when that fails."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the analyzer from {src}: {exc}"
    if not Path(repro.__file__).resolve().is_relative_to(src):
        return f"imported the analyzer from {repro.__file__}, not from {src}"
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    error = _import_program()
    if error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--" not in rest or rest.index("--") in (0, len(rest) - 1):
            print("usage: python -m bench compare A.json... -- B.json...", file=sys.stderr)
            return 2
        from bench.compare import compare

        split = rest.index("--")
        return compare(rest[:split], rest[split + 1:])

    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=load_spec()["run_seconds"],
                     help="timed seconds per workload (default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1: trace the layers and report the per-layer metrics")
    run.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                     help="directory for pass records, spans and result files")
    sub.add_parser("expected", help="regenerate and cross-check bench/expected.json")
    sub.add_parser("compare", help="compare two sets of result files (A... -- B...)")
    args = parser.parse_args(argv)

    if args.command == "expected":
        from bench.answers import generate

        return 1 if generate() else 0

    from bench.harness import run as run_workloads

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return run_workloads(names, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    raise SystemExit(main())
