"""Command-line front end.

Exit codes are a contract: 0 ok/detected, 2 usage error, 3 PPT test not
detected, 4 I/O error, 5 verification failure.  The handlers take only the
parsed arguments and let the library's ValueError and OverflowError
propagate; main turns either into a usage error, exit 2, with the
exception's message, through the subcommand's own parser.

Importing this module loads no numpy, so ppt, schmidt and --version run
without it.  map loads it in detection_map and maptext.write_map, linent
inside the library calls it makes, and verify when it imports its sweeps.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .free_schmidt import CONVENTION_FACTOR, schmidt_spread
from .gaussian_ppt import detection_map, ppt_closed_form
from .linear_entropy import linear_entropy
from .states import QuantumNumbers

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_DETECTED = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _human(x: float) -> str:
    return format(x, ".6g")


def _positive(text: str) -> float:
    """argparse type for every positive float flag: finite and > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _resolve_a0(args) -> float:
    """--a0, or a0 = hbar^2/(mu alpha) from --alpha, --mu and --hbar, each
    already finite and positive; ValueError naming all three where that a0
    over- or underflows."""
    if args.a0 is not None:
        if args.alpha is not None or args.mu is not None:
            raise ValueError("--a0 conflicts with --alpha/--mu")
        return args.a0
    if args.alpha is None or args.mu is None:
        raise ValueError("supply --a0, or both --alpha and --mu")
    # Divided in turn: the product mu * alpha can underflow to zero.
    a0 = args.hbar * args.hbar / args.mu / args.alpha
    if not 0 < a0 < math.inf:
        raise ValueError(f"reduced Bohr radius a0 = hbar^2/(mu alpha) is out of float range, "
                         f"got {a0} from alpha={args.alpha}, mu={args.mu}, hbar={args.hbar}")
    return a0


def _resolve_ratio(args) -> float:
    if args.ratio is not None:
        if args.a0 is not None or args.b is not None:
            raise ValueError("--ratio conflicts with --a0/--b")
        return args.ratio
    if args.a0 is not None and args.b is not None:
        return args.a0 / args.b
    raise ValueError("supply --ratio, or both --a0 and --b")


def cmd_schmidt(args) -> int:
    spread = schmidt_spread(QuantumNumbers(args.n, args.l, args.m), _resolve_a0(args), args.hbar)
    print(f"delta_k = {_human(spread.delta_k)}")
    print(f"delta_p = {_human(spread.delta_p)}")
    print(f"convention_factor = {_human(CONVENTION_FACTOR)}")
    print("entangled (delta_k > 0)")
    return EXIT_OK


def cmd_ppt(args) -> int:
    verdict = ppt_closed_form(QuantumNumbers(args.n, args.l, args.m), _resolve_ratio(args))
    for i, nu in enumerate(verdict.nu, start=1):
        print(f"nu{i} = {_human(nu)}")
    print(f"min_nu = {_human(verdict.min_nu)}")
    print(f"detected = {'yes' if verdict.detected else 'no'}")
    return EXIT_OK if verdict.detected else EXIT_NOT_DETECTED


def cmd_map(args) -> int:
    from .maptext import write_map

    grid = detection_map(QuantumNumbers(args.n, args.l, args.m), (args.a0_min, args.a0_max),
                         (args.b_min, args.b_max), args.points)
    if args.output is None:
        write_map(grid, args.format, sys.stdout)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            write_map(grid, args.format, fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_linent(args) -> int:
    res = linear_entropy(QuantumNumbers(args.n, args.l, args.m), args.a0)
    s_lin = None if args.volume is None else res.s_lin(args.volume)
    print(f"I_ang = {_human(res.i_ang)}")
    print(f"I_rad = {_human(res.i_rad)}  (units a0^3)")
    print(f"product = {_human(res.product)}  (units a0^3)")
    if s_lin is not None:
        print(f"S_lin = {_human(s_lin)}  (V = {_human(args.volume)})")
    else:
        print("S_lin -> 1 (V -> infinity)")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import verify_checks

    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    failures = 0
    for name, ok in verify_checks(args.n_max):
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _add_qn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1, help="principal quantum number")
    p.add_argument("--l", type=int, default=0, help="orbital quantum number")
    p.add_argument("--m", type=int, default=0, help="magnetic quantum number")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hydrolens parser, built on first use and reused by every later
    call: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hydrolens",
        description="Entanglement witnesses for hydrogen-like two-body systems.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt-spectrum spread of a free eigenstate")
    p.add_argument("--n", type=int, required=True, help="principal quantum number")
    p.add_argument("--a0", type=_positive, help="reduced Bohr radius")
    p.add_argument("--alpha", type=_positive, help="coupling strength")
    p.add_argument("--mu", type=_positive, help="reduced mass")
    p.add_argument("--hbar", type=_positive, default=1.0)
    # The spread depends on n only, so the state is taken at l = m = 0.
    p.set_defaults(func=cmd_schmidt, l=0, m=0)

    p = sub.add_parser("ppt", help="PPT symplectic-eigenvalue test for the localized state")
    _add_qn_flags(p)
    p.add_argument("--ratio", type=_positive, help="a0/b (primary; conflicts with --a0/--b)")
    p.add_argument("--a0", type=_positive, help="reduced Bohr radius")
    p.add_argument("--b", type=_positive, help="wavepacket width")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("map", help="detection map over an (a0, b) grid")
    _add_qn_flags(p)
    p.add_argument("--a0-min", type=_positive, default=0.5)
    p.add_argument("--a0-max", type=_positive, default=3.5)
    p.add_argument("--b-min", type=_positive, default=0.5)
    p.add_argument("--b-max", type=_positive, default=3.5)
    p.add_argument("--points", type=int, default=16, help="grid points per axis")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default: standard output)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run the oracle-vs-closed-form check suite")
    p.add_argument("--n-max", type=int, default=3, help="largest n in the sweep")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("linent", help="closed-form linear entropy (completeness only)")
    _add_qn_flags(p)
    p.add_argument("--a0", type=_positive, default=1.0, help="reduced Bohr radius")
    p.add_argument("--volume", type=_positive, help="finite normalization volume")
    p.set_defaults(func=cmd_linent)

    # main reports a handler's usage error through its own subcommand's parser.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
