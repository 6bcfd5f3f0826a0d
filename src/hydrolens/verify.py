"""The oracle-vs-closed-form sweeps that `hydrolens verify` runs.

Each sweep holds a closed form of the production path against a quadrature
from oracle, or ppt_closed_form against its exact oracle ppt_numeric, over
every state up to a given n.  The sweeps live outside cli, whose import must
load no numpy, and outside oracle, whose other users (the tests and the
benchmark) never run them.
"""

from __future__ import annotations

import math

from .gaussian_ppt import ppt_closed_form, ppt_numeric
from .hydrogenic import radial_momentum, radial_position
from .linear_entropy import linear_entropy
from .moments import relative_moments
from .oracle import integrate_momentum, integrate_semi_infinite, integrate_theta
from .specfun import spherical_harmonic_sq
from .states import QuantumNumbers


def verify_checks(n_max: int):
    """Yield (name, ok) pairs for the oracle-vs-closed-form sweeps over every
    state with n <= n_max; `hydrolens verify` prints them."""
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
        ok &= abs(val - 1.0) <= 1e-13
    yield "momentum normalization", ok

    ok = True
    k4 = {}
    for qn in zero_m:
        k4[qn.n, qn.l], _ = integrate_momentum(
            lambda k: k ** 4 * radial_momentum(qn, a0, k) ** 2, qn.n, a0)
        ok &= abs(qn.n ** 2 * a0 ** 2 * k4[qn.n, qn.l] - 1.0) <= 1e-13
    yield "momentum second moment", ok

    # Each variance against quadrature: <r^2> once per (n, l), <k^2> from the
    # check above, and the angular factors f_perp and f_z once per (l, m).
    ok = True
    r4, ang = {}, {}
    for qn in states:
        n, l, m = qn.n, qn.l, qn.m
        if (n, l) not in r4:
            r4[n, l], _ = integrate_semi_infinite(
                lambda r: r ** 4 * radial_position(qn, a0, r) ** 2)
        if (l, m) not in ang:
            ang[l, m] = (
                math.pi * integrate_theta(
                    lambda t: math.sin(t) ** 3 * spherical_harmonic_sq(l, m, t)),
                2.0 * math.pi * integrate_theta(
                    lambda t: math.sin(t) * math.cos(t) ** 2 * spherical_harmonic_sq(l, m, t)))
        f_perp, f_z = ang[l, m]
        quad = (r4[n, l] * f_perp, r4[n, l] * f_perp, r4[n, l] * f_z,
                k4[n, l] * f_perp, k4[n, l] * f_perp, k4[n, l] * f_z)
        ok &= all(abs(c - q) <= 1e-13 * q for c, q in zip(relative_moments(qn), quad))
    yield "second moments", ok

    ok = True
    for qn in states:
        for ratio in (0.5, 1.5, 2.0, *(10.0 ** k for k in range(-4, 5))):
            numeric = ppt_numeric(qn, ratio).nu
            closed = sorted(ppt_closed_form(qn, ratio).nu)
            ok &= all(abs(a - b) <= 1e-13 * b for a, b in zip(numeric, closed))
    yield "eigenvalue pipeline", ok

    # The radial purity once per (n, l), the angular one once per (l, m).
    ok = True
    rad, purity = {}, {}
    for qn in states:
        n, l, m = qn.n, qn.l, qn.m
        if (n, l) not in rad:
            rad[n, l], _ = integrate_momentum(
                lambda k: k * k * radial_momentum(qn, a0, k) ** 4, n, a0)
        if (l, m) not in purity:
            purity[l, m] = 2.0 * math.pi * integrate_theta(
                lambda t: math.sin(t) * spherical_harmonic_sq(l, m, t) ** 2)
        closed = linear_entropy(qn, a0).product
        ok &= abs(rad[n, l] * purity[l, m] - closed) <= 1e-12 * closed
    yield "linear entropy", ok
