"""Command-line entry point.

    thinfilm massmap --alpha A --out F
    thinfilm catalog --alpha A --mass-min M0 --mass-max M1 --out F
    thinfilm steady  --alpha A --mass M --N N --out F
    thinfilm evolve  --config F --outdir D
    thinfilm rates   --traj D --mode powerlaw|exponential --out F

Exit codes: 0 on success, 1 on usage, configuration and file errors, 2 when a
theorem-backed invariant check fails (e.g. the rate bound is violated).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import steady
from .evolution import NonConvergence, PositivityLoss
from .experiments import InvariantViolation, cmd_catalog, cmd_evolve, cmd_massmap, cmd_rates
from .grid import make_grid, write_field_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind=float, low=None):
    """argparse type: a finite number of type kind, no smaller than low."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="thinfilm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("massmap", help="mass versus contact point along the hanging branch")
    p.add_argument("--alpha", type=_number(), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num", type=_number(int, 2), default=200)

    p = sub.add_parser("catalog", help="steady-state energies over a mass sweep")
    p.add_argument("--alpha", type=_number(), required=True)
    p.add_argument("--mass-min", type=_number(), required=True)
    p.add_argument("--mass-max", type=_number(), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num", type=_number(int, 2), default=45)

    p = sub.add_parser("steady", help="sample the energy minimizer onto a grid")
    p.add_argument("--alpha", type=_number(), required=True)
    p.add_argument("--mass", type=_number(), required=True)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evolve", help="run the implicit integrator from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("rates", help="check convergence-rate bounds on a recorded run")
    p.add_argument("--traj", required=True)
    p.add_argument("--mode", choices=("powerlaw", "exponential"), required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "massmap":
            cmd_massmap(args.alpha, args.out, args.num)
        elif args.command == "catalog":
            cmd_catalog(args.alpha, args.mass_min, args.mass_max, args.out, args.num)
        elif args.command == "steady":
            state = steady.minimizer(args.alpha, args.mass)
            field = steady.evaluate(state, make_grid(args.N))
            write_field_csv(field, args.out)
            tau = "-" if state.tau is None else f"{state.tau:.17g}"
            print(f"{state.kind}: tau={tau} lambda={state.lam:.17g} "
                  f"energy={state.energy:.17g}")
        elif args.command == "evolve":
            record = cmd_evolve(args.config, args.outdir)
            print(f"evolved to t={record.samples['t'][-1]:.17g} in "
                  f"{len(record.samples)} recorded samples; outputs in {args.outdir}")
        elif args.command == "rates":
            report = cmd_rates(args.traj, args.mode, args.out)
            print(f"mode={report.mode} violations={report.violations} "
                  f"fitted_exponent={report.fitted_exponent:.17g}")
    except (ValueError, OSError, NonConvergence, PositivityLoss) as exc:
        print(f"thinfilm: error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"thinfilm: invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
