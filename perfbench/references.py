"""References made apart from hydrolens, and the checks that compare against them.

Nothing here imports hydrolens.  Three kinds of reference:

* Exact rationals.  For a state (n, l, m) the relative second moments are
  <q_i^2> = <r^2> f_i and <p_i^2> = <k^2> f_i, with
  <r^2> = n^2 (5n^2 + 1 - 3l(l+1)) / 2, <k^2> = 1/n^2 and the angular factors
  f_x = f_y = (l^2+l+m^2-1)/((2l-1)(2l+3)), f_z = (1-2l^2-2l+2m^2)/(3-4l^2-4l).
  With rho = a0/b the six symplectic eigenvalues of the partial transpose are
  nu_q = sqrt(<q^2> rho^2 / 2) and nu_p = sqrt(8 <p^2> / rho^2), and the blind
  band (every nu >= 1) is [max_i sqrt(2/<q_i^2>), min_i sqrt(8 <p_i^2>)].
* Identities: int k^2 F^2 dk = int r^2 R^2 dr = 1 and n^2 <k^2> = 1.
* mpmath quadratures at 40 digits of the radial purity int k^2 F_nl^4 dk
  (a0 = 1) and the angular int |Y_lm|^4 dOmega, cached in mp_reference.json.
  ``python3 perfbench/references.py --rebuild`` makes the cache anew.
"""

from __future__ import annotations

import argparse
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

N_MAX = 12
NU_RTOL = 1e-10          # ROADMAP tolerance for the PPT eigenvalues
BAND_RTOL = 1e-9         # blind band edges
IDENTITY_ATOL = 1e-8     # quadrature identities (verify's tolerance)
QUAD_RTOL = 1e-8         # oracle quadratures against the mpmath values
ANGULAR_RTOL = 1e-10     # closed-form angular sum against mpmath
PRODUCT_RTOL = 1e-6      # closed-form linear entropy product (verify's tolerance)

CACHE = Path(__file__).with_name("mp_reference.json")
MP_DPS = 40


def states():
    """Every (n, l, m) with n <= N_MAX."""
    return [(n, l, m) for n in range(1, N_MAX + 1)
            for l in range(n) for m in range(-l, l + 1)]


def moment_coefficients(n: int, l: int, m: int):
    """Exact (<q_x^2>, <q_z^2>, <p_x^2>, <p_z^2>) in units of a0 and hbar/a0."""
    r2 = Fraction(n * n * (5 * n * n + 1 - 3 * l * (l + 1)), 2)
    k2 = Fraction(1, n * n)
    f_perp = Fraction(l * l + l + m * m - 1, (2 * l - 1) * (2 * l + 3))
    f_z = Fraction(1 - 2 * l * l - 2 * l + 2 * m * m, 3 - 4 * l * l - 4 * l)
    return r2 * f_perp, r2 * f_z, k2 * f_perp, k2 * f_z


def reference_nu(n: int, l: int, m: int, rho):
    """The six nu in hydrolens' closed-form order (nu1..nu6); rho may be an array."""
    qx, qz, px, pz = (float(c) for c in moment_coefficients(n, l, m))
    rho2 = np.asarray(rho, dtype=float) ** 2
    nu_qx, nu_qz = np.sqrt(qx * rho2 / 2.0), np.sqrt(qz * rho2 / 2.0)
    nu_px, nu_pz = np.sqrt(8.0 * px / rho2), np.sqrt(8.0 * pz / rho2)
    return nu_qx, nu_px, nu_qx, nu_px, nu_qz, nu_pz


def reference_band(n: int, l: int, m: int):
    """Blind band (lo, hi) in a0/b, or None when it is empty; decided exactly."""
    qx, qz, px, pz = moment_coefficients(n, l, m)
    lo2 = max(2 / qx, 2 / qz)
    hi2 = min(8 * px, 8 * pz)
    if lo2 >= hi2:
        return None
    return math.sqrt(lo2), math.sqrt(hi2)


def close(got, want, rtol: float) -> bool:
    """Elementwise |got - want| <= rtol |want|, with matching shapes."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def nu_ok(got, want) -> bool:
    return close(got, want, NU_RTOL)


def band_ok(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return close(got, want, BAND_RTOL)


def identity_ok(value: float) -> bool:
    """An integral that must equal 1."""
    return abs(value - 1.0) <= IDENTITY_ATOL


class MpReference:
    """Cached mpmath values: radial[(n, l)] and angular[(l, |m|)] as floats,
    and as the cached decimal strings in radial_text and angular_text."""

    def __init__(self):
        data = json.loads(CACHE.read_text())
        self.radial_text = {(n, l): v for n, l, v in data["radial"]}
        self.angular_text = {(l, m): v for l, m, v in data["angular"]}
        self.radial = {k: float(v) for k, v in self.radial_text.items()}
        self.angular = {k: float(v) for k, v in self.angular_text.items()}

    def purity_ok(self, n: int, l: int, value: float) -> bool:
        return close(value, self.radial[n, l], QUAD_RTOL)

    def angular_ok(self, l: int, m: int, value: float, rtol: float = QUAD_RTOL) -> bool:
        return close(value, self.angular[l, abs(m)], rtol)

    def product_ok(self, n: int, l: int, m: int, product: float) -> bool:
        return close(product, self.radial[n, l] * self.angular[l, abs(m)], PRODUCT_RTOL)


# ---------------------------------------------------------------------------
# mpmath evaluations (only for --rebuild and the reference tests)
# ---------------------------------------------------------------------------

def _mp_quad(f, points):
    import mpmath as mp
    val, err = mp.quad(f, points, error=True, maxdegree=10)
    if not err <= abs(val) * mp.mpf(10) ** (-32):
        raise ArithmeticError(f"mpmath quadrature error {err} too large for {val}")
    return val


def mp_momentum_profile(n: int, l: int, k):
    """F_nl(k) (a0 = 1): the standard Gegenbauer form, evaluated in mpmath."""
    import mpmath as mp
    u = (n * k) ** 2
    pref = (mp.sqrt(2 / mp.pi * mp.factorial(n - l - 1) / mp.factorial(n + l))
            * n ** 2 * mp.mpf(2) ** (2 * l + 2) * mp.factorial(l))
    return pref * (n * k) ** l / (u + 1) ** (l + 2) * mp.gegenbauer(n - l - 1, l + 1, (u - 1) / (u + 1))


def mp_radial_integral(n: int, l: int, power: int):
    """int_0^inf k^2 F_nl^power dk, mapped to x in (-1, 1) by
    k = sqrt((1+x)/(1-x))/n, dk = k dx/(1-x^2)."""
    import mpmath as mp

    def g(x):
        k = mp.sqrt((1 + x) / (1 - x)) / n
        return k * k * mp_momentum_profile(n, l, k) ** power * k / (1 - x * x)

    return _mp_quad(g, [-1, 0, 1])


def mp_angular_integral(l: int, m: int, power: int = 4):
    """int |Y_lm|^power dOmega with mpmath's spherical harmonics."""
    import mpmath as mp
    return 2 * mp.pi * _mp_quad(lambda t: mp.sin(t) * abs(mp.spherharm(l, m, t, 0)) ** power,
                                [0, mp.pi / 2, mp.pi])


def rebuild() -> None:
    """Recompute every cached value; the normalisations must come out as 1."""
    import mpmath as mp
    mp.mp.dps = MP_DPS
    radial, angular = [], []
    for n in range(1, N_MAX + 1):
        for l in range(n):
            if abs(mp_radial_integral(n, l, 2) - 1) > mp.mpf(10) ** -30:
                raise ArithmeticError(f"momentum profile ({n}, {l}) is not normalised")
            radial.append([n, l, mp.nstr(mp_radial_integral(n, l, 4), 36)])
    for l in range(N_MAX):
        for m in range(l + 1):
            if abs(mp_angular_integral(l, m, 2) - 1) > mp.mpf(10) ** -30:
                raise ArithmeticError(f"Y_{l}^{m} is not normalised")
            angular.append([l, m, mp.nstr(mp_angular_integral(l, m, 4), 36)])
    rows = lambda entries: ",\n".join("  " + json.dumps(e) for e in entries)
    CACHE.write_text(f'{{"dps": {MP_DPS},\n "radial": [\n{rows(radial)}\n ],\n'
                    f' "angular": [\n{rows(angular)}\n ]}}\n')


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rebuild", action="store_true", help="recompute mp_reference.json with mpmath")
    if ap.parse_args().rebuild:
        rebuild()
        print(f"wrote {CACHE}")
    else:
        ap.print_help()
