"""The three workloads: seeded inputs, one op, and the check of its outputs.

Every op reaches the program through module attributes looked up at call
time (``gaussian_ppt.ppt_numeric``, ``cli.main``, ...), so the traced run's
wrappers see the same calls the untraced run makes.  A round is a fixed
make-up of ops; a run attempts whole rounds, so every run fails the same
share of its ops.  ``check`` returns "ok", "fault" for the known program
fault the workload counts as a failure, or "wrong" for anything else.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random

import numpy as np

import hydrolens.cli as cli
import hydrolens.gaussian_ppt as gaussian_ppt
import hydrolens.hydrogenic as hydrogenic
import hydrolens.oracle as oracle
import hydrolens.specfun as specfun
from hydrolens.hydrogenic import QuantumNumbers

import references as ref

# The package re-exports the function linear_entropy under the module's name.
linear_entropy = importlib.import_module("hydrolens.linear_entropy")

OK, FAULT, WRONG = "ok", "fault", "wrong"
MAP_HEADER = "a0,b,nu1,nu2,nu5,nu6,min_nu,detected"


class PPTGrid:
    """One state per op: ``hydrolens map --points 48`` in-process, then the
    blind band.  A round holds one state for each n = 1..12, with l, m and the
    a0 and b ranges drawn from the seed."""

    name = "ppt_grid"
    points = 48

    def round(self, rng: random.Random):
        ops = []
        for n in range(1, ref.N_MAX + 1):
            l = rng.randrange(n)
            m = rng.randint(-l, l)
            a0 = 10 ** rng.uniform(-2.0, 0.0)
            b = 10 ** rng.uniform(-2.0, 0.0)
            ranges = (a0, a0 * 10 ** rng.uniform(0.5, 2.0), b, b * 10 ** rng.uniform(0.5, 2.0))
            ops.append(((n, l, m), ranges))
        rng.shuffle(ops)
        return ops

    def op(self, inp):
        (n, l, m), (a0_min, a0_max, b_min, b_max) = inp
        argv = ["map", "--n", str(n), "--l", str(l), "--m", str(m),
                "--a0-min", repr(a0_min), "--a0-max", repr(a0_max),
                "--b-min", repr(b_min), "--b-max", repr(b_max), "--points", str(self.points)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        band = gaussian_ppt.blind_band_edges(QuantumNumbers(n, l, m))
        return code, out.getvalue(), band

    def check(self, inp, out):
        (n, l, m), (a0_min, a0_max, b_min, b_max) = inp
        code, text, band = out
        lines = text.split("\n")
        if code != 0 or lines[0] != MAP_HEADER or lines[-1] != "" \
                or len(lines) != self.points ** 2 + 2:
            return WRONG
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        i = np.arange(self.points)
        a0_ref = np.repeat(a0_min + i * (a0_max - a0_min) / (self.points - 1), self.points)
        b_ref = np.tile(b_min + i * (b_max - b_min) / (self.points - 1), self.points)
        a0, b = rows[:, 0], rows[:, 1]
        nu = ref.reference_nu(n, l, m, a0 / b)
        min_nu = np.minimum.reduce(nu)
        decided = np.abs(min_nu - 1.0) > ref.NU_RTOL
        if not (ref.close(a0, a0_ref, 1e-13) and ref.close(b, b_ref, 1e-13)
                and ref.nu_ok(rows[:, 2:7], np.stack([nu[0], nu[1], nu[4], nu[5], min_nu], axis=1))
                and np.all(rows[:, 7] == np.round(rows[:, 7]))
                and np.array_equal(rows[decided, 7] == 1, min_nu[decided] < 1.0)):
            return WRONG
        return OK if ref.band_ok(band, ref.reference_band(n, l, m)) else WRONG


class PPTPoint:
    """One (state, a0/b) query per op: ppt_closed_form and ppt_numeric.

    A round is every state with n <= 12 at each of 17 ratios
    a0/b = 10^(-4 + j/2), j = 0..16, in a seeded order.  ppt_numeric fails on
    a fixed subset of these queries; a seeded draw of ratios would make the
    failed share depend on the seed."""

    name = "ppt_point"
    ratios = tuple(10.0 ** (-4.0 + 0.5 * j) for j in range(17))

    def round(self, rng: random.Random):
        ops = [(s, rho) for s in ref.states() for rho in self.ratios]
        rng.shuffle(ops)
        return ops

    def op(self, inp):
        (n, l, m), rho = inp
        qn = QuantumNumbers(n, l, m)
        closed = gaussian_ppt.ppt_closed_form(qn, rho)
        try:
            numeric = gaussian_ppt.ppt_numeric(qn, rho)
        except (ArithmeticError, RuntimeError) as exc:
            numeric = exc
        return closed, numeric

    def check(self, inp, out):
        want = [float(v) for v in ref.reference_nu(*inp[0], inp[1])]
        closed, numeric = out
        if not ref.nu_ok(closed.nu, want):
            return WRONG
        if abs(min(want) - 1.0) > ref.NU_RTOL and closed.detected != (min(want) < 1.0):
            return WRONG
        if isinstance(numeric, Exception) or not ref.nu_ok(numeric.nu, sorted(want)):
            return FAULT
        return OK


class OracleSweep:
    """One state per op: the quadratures ``verify`` runs, then the closed-form
    linear entropy.  A round is every (n, l) with n <= 12, each with m drawn
    from the seed, in a seeded order."""

    name = "oracle_sweep"
    a0 = 1.0

    def __init__(self):
        self.mp = ref.MpReference()

    def round(self, rng: random.Random):
        ops = [(n, l, rng.randint(-l, l)) for n in range(1, ref.N_MAX + 1) for l in range(n)]
        rng.shuffle(ops)
        return ops

    def op(self, inp):
        n, l, m = inp
        a0 = self.a0
        qn = QuantumNumbers(n, l, m)
        f = lambda k: hydrogenic.radial_momentum(qn, a0, k)
        norm, _ = oracle.integrate_momentum(lambda k: k * k * f(k) ** 2, n, a0)
        k2, _ = oracle.integrate_momentum(lambda k: k ** 4 * f(k) ** 2, n, a0)
        purity, _ = oracle.integrate_momentum(lambda k: k * k * f(k) ** 4, n, a0)
        pos, _ = oracle.integrate_semi_infinite(
            lambda r: r * r * hydrogenic.radial_position(qn, a0, r) ** 2)
        ang = 2.0 * math.pi * oracle.integrate_theta(
            lambda t: math.sin(t) * specfun.spherical_harmonic_sq(l, m, t) ** 2)
        closed = linear_entropy.linear_entropy(qn, a0)
        return norm, k2, purity, pos, ang, closed

    def check(self, inp, out):
        n, l, m = inp
        norm, k2, purity, pos, ang, closed = out
        mp = self.mp
        if not (ref.identity_ok(norm) and ref.identity_ok(n * n * k2) and ref.identity_ok(pos)
                and mp.purity_ok(n, l, purity) and mp.angular_ok(l, m, ang)
                and mp.angular_ok(l, m, closed.i_ang, ref.ANGULAR_RTOL)):
            return WRONG
        return OK if mp.product_ok(n, l, m, closed.product) else FAULT


WORKLOADS = {w.name: w for w in (PPTGrid, PPTPoint, OracleSweep)}
