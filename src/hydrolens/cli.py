"""Command-line front end.

Exit codes are a contract: 0 ok/detected, 2 usage error, 3 PPT test not
detected, 4 I/O error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .free_schmidt import schmidt_spread
from .gaussian_ppt import detection_map, ppt_closed_form, ppt_numeric
from .hydrogenic import QuantumNumbers, SystemParams, radial_momentum
from .linear_entropy import linear_entropy
from .moments import relative_moments
from .oracle import integrate_momentum, integrate_theta
from .specfun import spherical_harmonic_sq

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_DETECTED = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _fmt(x: float) -> str:
    """Round-trip-safe serialization (17 significant digits)."""
    return format(x, ".17g")


def _human(x: float) -> str:
    return format(x, ".6g")


def _quantum_numbers(parser: argparse.ArgumentParser, args) -> QuantumNumbers:
    try:
        return QuantumNumbers(n=args.n, l=args.l, m=args.m)
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_a0(parser: argparse.ArgumentParser, args) -> SystemParams:
    try:
        if args.a0 is not None:
            return SystemParams(a0=args.a0, hbar=args.hbar)
        if args.alpha is not None and args.mu is not None:
            return SystemParams.from_coupling(alpha=args.alpha, mu=args.mu, hbar=args.hbar)
    except ValueError as exc:
        parser.error(str(exc))
    parser.error("supply --a0, or both --alpha and --mu")


def _resolve_ratio(parser: argparse.ArgumentParser, args) -> float:
    if args.ratio is not None:
        if args.a0 is not None or args.b is not None:
            parser.error("--ratio conflicts with --a0/--b")
        ratio = args.ratio
    elif args.a0 is not None and args.b is not None:
        ratio = args.a0 / args.b
    else:
        parser.error("supply --ratio, or both --a0 and --b")
    if ratio <= 0:
        parser.error(f"a0/b ratio must be positive, got {ratio}")
    return ratio


def cmd_schmidt(parser, args) -> int:
    if args.n < 1:
        parser.error(f"principal quantum number must be >= 1, got n={args.n}")
    qn = QuantumNumbers(n=args.n, l=0, m=0)
    params = _resolve_a0(parser, args)
    spread = schmidt_spread(qn, params)
    print(f"delta_k = {_human(spread.delta_k)}")
    print(f"delta_p = {_human(spread.delta_p)}")
    print(f"convention_factor = {_human(spread.convention_factor)}")
    print("entangled (delta_k > 0)")
    return EXIT_OK


def cmd_ppt(parser, args) -> int:
    qn = _quantum_numbers(parser, args)
    ratio = _resolve_ratio(parser, args)
    verdict = ppt_closed_form(qn, ratio)
    for i, nu in enumerate(verdict.nu, start=1):
        print(f"nu{i} = {_human(nu)}")
    print(f"min_nu = {_human(verdict.min_nu)}")
    print(f"detected = {'yes' if verdict.detected else 'no'}")
    return EXIT_OK if verdict.detected else EXIT_NOT_DETECTED


def _map_rows(args, qn: QuantumNumbers):
    return detection_map(qn, (args.a0_min, args.a0_max), (args.b_min, args.b_max),
                         args.points)


def _write_map(rows, fmt: str, stream) -> None:
    header = ("a0", "b", "nu1", "nu2", "nu5", "nu6", "min_nu", "detected")
    if fmt == "csv":
        stream.write(",".join(header) + "\n")
        for row in rows:
            *vals, detected = row
            stream.write(",".join(_fmt(v) for v in vals) + f",{int(detected)}\n")
    else:
        payload = [dict(zip(header, (*row[:-1], int(row[-1])))) for row in rows]
        stream.write(json.dumps(payload, indent=2) + "\n")


def cmd_map(parser, args) -> int:
    qn = _quantum_numbers(parser, args)
    if args.points < 2:
        parser.error(f"grid resolution must be >= 2, got {args.points}")
    if min(args.a0_min, args.a0_max, args.b_min, args.b_max) <= 0:
        parser.error("grid bounds must be positive")
    rows = _map_rows(args, qn)
    if args.output is None:
        _write_map(rows, args.format, sys.stdout)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            _write_map(rows, args.format, fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_linent(parser, args) -> int:
    qn = _quantum_numbers(parser, args)
    if args.a0 <= 0:
        parser.error(f"a0 must be positive, got {args.a0}")
    res = linear_entropy(qn, args.a0)
    print(f"I_ang = {_human(res.i_ang)}")
    print(f"I_rad = {_human(res.i_rad)}  (units a0^3)")
    print(f"product = {_human(res.product)}  (units a0^3)")
    if args.volume is not None:
        if args.volume <= 0:
            parser.error(f"volume must be positive, got {args.volume}")
        print(f"S_lin = {_human(res.s_lin(args.volume))}  (V = {_human(args.volume)})")
    else:
        print("S_lin -> 1 (V -> infinity)")
    return EXIT_OK


def _verify_checks(n_max: int, perturb: float):
    """Yield (name, ok) pairs for the oracle-vs-closed-form sweeps."""
    a0 = 1.0
    states = [QuantumNumbers(n, l, m)
              for n in range(1, n_max + 1)
              for l in range(n)
              for m in range(-l, l + 1)]
    zero_m = [qn for qn in states if qn.m == 0]

    ok = True
    for qn in zero_m:
        val, _ = integrate_momentum(
            lambda k: k * k * radial_momentum(qn, a0, k) ** 2, qn.n, a0)
        ok &= abs(val + perturb - 1.0) <= 1e-8
    yield "momentum normalization", ok

    ok = True
    for qn in zero_m:
        val, _ = integrate_momentum(
            lambda k: k ** 4 * radial_momentum(qn, a0, k) ** 2, qn.n, a0)
        ok &= abs(qn.n ** 2 * a0 ** 2 * val - 1.0) <= 1e-8
    yield "momentum fourth moment", ok

    ok = True
    for qn in states:
        x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
        n, l = qn.n, qn.l
        r2 = n * n * (5 * n * n - 3 * l * (l + 1) + 1) / 2.0
        ok &= abs(x2 + y2 + z2 - r2) <= 1e-12 * r2
        ok &= abs(px2 + py2 + pz2 - 1.0 / (n * n)) <= 1e-12
    yield "moment sum rules", ok

    ok = True
    for qn in states:
        for ratio in (0.5, 1.0, 1.5, 2.0):
            numeric = ppt_numeric(qn, ratio).nu
            closed = tuple(sorted(ppt_closed_form(qn, ratio).nu))
            ok &= all(abs(a - b) <= 1e-10 for a, b in zip(numeric, closed))
    yield "eigenvalue pipeline", ok

    ok = True
    rad = {}
    for qn in states:
        if (qn.n, qn.l) not in rad:
            rad[qn.n, qn.l], _ = integrate_momentum(
                lambda k: k * k * radial_momentum(qn, a0, k) ** 4, qn.n, a0)
        ang = 2.0 * math.pi * integrate_theta(
            lambda t: math.sin(t) * spherical_harmonic_sq(qn.l, qn.m, t) ** 2)
        closed = linear_entropy(qn, a0).product
        ok &= abs(rad[qn.n, qn.l] * ang - closed) <= 1e-10 * closed
    yield "linear entropy", ok


def cmd_verify(parser, args) -> int:
    if args.n_max < 1:
        parser.error(f"--n-max must be >= 1, got {args.n_max}")
    failures = 0
    for name, ok in _verify_checks(args.n_max, args.perturb):
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _add_qn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1, help="principal quantum number")
    p.add_argument("--l", type=int, default=0, help="orbital quantum number")
    p.add_argument("--m", type=int, default=0, help="magnetic quantum number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrolens",
        description="Entanglement witnesses for hydrogen-like two-body systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt-spectrum spread of a free eigenstate")
    p.add_argument("--n", type=int, required=True, help="principal quantum number")
    p.add_argument("--a0", type=float, help="reduced Bohr radius")
    p.add_argument("--alpha", type=float, help="coupling strength")
    p.add_argument("--mu", type=float, help="reduced mass")
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("ppt", help="PPT symplectic-eigenvalue test for the localized state")
    _add_qn_flags(p)
    p.add_argument("--ratio", type=float, help="a0/b (primary; overrides --a0/--b)")
    p.add_argument("--a0", type=float, help="reduced Bohr radius")
    p.add_argument("--b", type=float, help="wavepacket width")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("map", help="detection map over an (a0, b) grid")
    _add_qn_flags(p)
    p.add_argument("--a0-min", type=float, default=0.5)
    p.add_argument("--a0-max", type=float, default=3.5)
    p.add_argument("--b-min", type=float, default=0.5)
    p.add_argument("--b-max", type=float, default=3.5)
    p.add_argument("--points", type=int, default=16, help="grid points per axis")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default: standard output)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run the oracle-vs-closed-form check suite")
    p.add_argument("--n-max", type=int, default=3, help="largest n in the sweep")
    # Test-only: adds a bias to the first check so the harness can be exercised.
    p.add_argument("--perturb", type=float, default=0.0, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("linent", help="closed-form linear entropy (completeness only)")
    _add_qn_flags(p)
    p.add_argument("--a0", type=float, default=1.0, help="reduced Bohr radius")
    p.add_argument("--volume", type=float, help="finite normalization volume")
    p.set_defaults(func=cmd_linent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
