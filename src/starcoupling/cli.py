"""Command-line interface: constants, spectrum, converge, oracle.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (quadrature, solvers, grids), 4 oracle tolerance failure; an
error's code is the ``exit_code`` of its class. A stdout closed early (the
command piped into ``head``) ends the listing of rows with no traceback, and
the run still exits 0 (4 for an oracle run outside its tolerances): the
reports are already written. The output directory resolves as --out flag >
STARCOUPLING_OUT environment variable > config "output.dir" > ./results.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from functools import lru_cache

from .config import load_config
from .errors import StarCouplingError
from .experiments import cmd_constants, cmd_converge, cmd_oracle, cmd_spectrum, write_report

ENV_OUT = "STARCOUPLING_OUT"


#: the commands and their one-line descriptions, listed under --help
COMMANDS = {
    "constants": "derived coupling constants and boundary matrices",
    "spectrum": "limit eigenvalue and per-eps pole locations",
    "converge": "resolvent and S-matrix convergence rates",
    "oracle": "finite-difference cross-validation",
}


@lru_cache(maxsize=1)
def build_parser():
    # one flat parser, built on the first run() and reused: parse_args keeps no state
    listing = [f"  {name:<10} {text}" for name, text in COMMANDS.items()]
    parser = argparse.ArgumentParser(
        prog="starcoupling",
        description="Vertex-coupling approximation experiments on star graphs",
        epilog="\n".join(["commands:", *listing]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--quad-order", type=int, default=None, help="override quadrature order")
    parser.add_argument("--parallel", type=int, default=1, help="worker processes for sweeps")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.quad_order is not None:
            config = dataclasses.replace(config, quad_order=args.quad_order)
        if args.command == "constants":
            report = cmd_constants(config)
        elif args.command == "spectrum":
            report = cmd_spectrum(config, parallel=args.parallel)
        elif args.command == "converge":
            report = cmd_converge(config, parallel=args.parallel)
        else:
            report = cmd_oracle(config)
    except StarCouplingError as exc:
        label = "error" if exc.exit_code == 2 else "numerical failure"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code

    out_dir = args.out or os.environ.get(ENV_OUT) or config.output_dir
    csv_path, json_path = write_report(report, out_dir)
    try:
        print(f"wrote {csv_path} and {json_path}")
        for row in report.rows:
            cells = ", ".join(
                f"{key}={row[key]}" for key in ("epsilon", "k", "kappa") if row[key] is not None
            )
            print(f"{row['quantity']}: value={row['value']}" + (f" ({cells})" if cells else ""))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the reports are written, so the
        # listing stops there; stdout goes to devnull so that the flush at
        # exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.command == "oracle" and not report.passed:
        print("oracle tolerances violated", file=sys.stderr)
        return 4
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
