"""Independent brute-force validation machinery.

Nothing in here is used by the production paths; closed forms elsewhere in
the package are checked against these quadratures and exact sums in the test
suite.  racah_3j, through angular_purity_exact, is the exact-rational oracle
for linear_entropy.angular_sum.  The semi-infinite momentum integrals use the
compactifying variable x = (n^2 a0^2 k^2 - 1)/(n^2 a0^2 k^2 + 1), which maps
[0, inf) onto [-1, 1] and removes the algebraic tail of the momentum profiles
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .hydrogenic import QuantumNumbers, radial_position

_GL_ORDER = 21
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


class QuadratureError(ArithmeticError):
    """Raised when the adaptive scheme cannot meet the requested tolerance.

    Carries the best available estimate in ``best`` and ``error``."""

    def __init__(self, msg: str, best: float, error: float):
        super().__init__(msg)
        self.best = best
        self.error = error


@dataclass
class QuadratureSpec:
    integrand: Callable[[float], float]
    a: float = -1.0
    b: float = 1.0
    rel_tol: float = 1e-12
    abs_floor: float = 1e-300
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("need at least one subdivision")


def _panel(f, a, b) -> float:
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _GL_NODES
    return h * float(np.sum(_GL_WEIGHTS * np.array([f(xi) for xi in x])))


def integrate(spec: QuadratureSpec) -> tuple[float, float]:
    """Adaptive bisected Gauss-Legendre on [a, b]; returns (value, error
    estimate).  Deterministic: the interval queue is processed worst-first
    and the split order is fixed."""
    f, a, b = spec.integrand, spec.a, spec.b
    whole = _panel(f, a, b)
    # stack of (a, b, coarse_value)
    stack = [(a, b, whole)]
    total = 0.0
    err = 0.0
    splits = 0
    scale = max(abs(whole), spec.abs_floor)
    while stack:
        a, b, coarse = stack.pop()
        m = 0.5 * (a + b)
        left = _panel(f, a, m)
        right = _panel(f, m, b)
        delta = abs(left + right - coarse)
        if delta <= spec.rel_tol * scale or splits >= spec.max_subdivisions:
            total += left + right
            err += delta
            if splits >= spec.max_subdivisions and delta > spec.rel_tol * scale:
                raise QuadratureError(
                    f"quadrature failed to converge after {splits} subdivisions",
                    best=total + sum(c for _, _, c in stack), error=err)
        else:
            splits += 1
            stack.append((m, b, right))
            stack.append((a, m, left))
    return total, max(err, abs(total) * 1e-15)


def integrate_semi_infinite(f: Callable[[float], float], rel_tol: float = 1e-12,
                            **kwargs) -> tuple[float, float]:
    """int_0^inf f via the tangent map t in (0, 1), x = t/(1-t)."""

    def g(t: float) -> float:
        x = t / (1.0 - t)
        return f(x) / (1.0 - t) ** 2

    return integrate(QuadratureSpec(g, 0.0, 1.0, rel_tol=rel_tol, **kwargs))


def momentum_compactification(n: int, a0: float):
    """Forward/backward maps for x = (n^2 a0^2 k^2 - 1)/(n^2 a0^2 k^2 + 1)."""

    def k_of_x(x: float) -> float:
        return math.sqrt((1.0 + x) / (1.0 - x)) / (n * a0)

    def jacobian(x: float) -> float:
        # dk = k dx / (1 - x^2)
        return k_of_x(x) / (1.0 - x * x)

    return k_of_x, jacobian


def integrate_momentum(f: Callable[[float], float], n: int, a0: float,
                       rel_tol: float = 1e-12, **kwargs) -> tuple[float, float]:
    """int_0^inf f(k) dk through the compactifying substitution to [-1, 1]."""
    k_of_x, jac = momentum_compactification(n, a0)

    def g(x: float) -> float:
        return f(k_of_x(x)) * jac(x)

    return integrate(QuadratureSpec(g, -1.0, 1.0, rel_tol=rel_tol, **kwargs))


def integrate_theta(g: Callable[[float], float], rel_tol: float = 1e-12) -> float:
    """int_0^pi g(theta) dtheta."""
    val, _ = integrate(QuadratureSpec(g, 0.0, math.pi, rel_tol=rel_tol))
    return val


def bessel_transform_radial(qn: QuantumNumbers, a0: float, k: float) -> float:
    """sqrt(2/pi) int_0^inf r^2 j_l(k r) R_nl(r) dr.

    The integrand decays like e^{-r/(n a0)}, so the transform is integrated
    chunk by chunk between scale-length intervals until the tail is
    negligible; chunk width follows the oscillation period pi/k when k
    dominates the decay scale.
    """
    # Imported here, its only use, to keep scipy.special out of package import.
    from scipy.special import spherical_jn

    if k < 0:
        raise ValueError("wavevector must be >= 0")
    l = qn.l
    if k == 0.0 and l >= 1:
        return 0.0

    def f(r: float) -> float:
        return r * r * spherical_jn(l, k * r) * radial_position(qn, a0, r)

    width = math.pi / max(k, 1.0 / (qn.n * a0))
    total = 0.0
    a = 0.0
    for _ in range(10000):
        chunk, _ = integrate(QuadratureSpec(f, a, a + width, rel_tol=1e-13))
        total += chunk
        a += width
        if a > 5 * qn.n * a0 and abs(chunk) < 1e-15 * max(abs(total), 1.0):
            break
    else:
        raise QuadratureError("Bessel transform tail did not decay", best=total, error=abs(chunk))
    return math.sqrt(2.0 / math.pi) * total


@dataclass(frozen=True)
class RacahValue:
    """sign * sqrt(square) with exact rational square (oracle-side 3-j)."""

    sign: int
    square: Fraction = field(default_factory=lambda: Fraction(0))

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.square))

    @property
    def value(self) -> float:
        return float(self)


def racah_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> RacahValue:
    """Brute-force single-sum Racah formula in plain Fraction arithmetic."""
    if max(j1, j2, j3) > 20:
        raise ValueError("oracle path is bounded to j <= 20")
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3 or m1 + m2 + m3 != 0 \
            or not (abs(j1 - j2) <= j3 <= j1 + j2):
        return RacahValue(sign=0)
    fac = math.perm  # perm(x) = x!, in exact integers
    delta_sq = Fraction(
        fac(j1 + j2 - j3) * fac(j1 - j2 + j3) * fac(-j1 + j2 + j3),
        fac(j1 + j2 + j3 + 1))
    num_sq = delta_sq * (
        fac(j1 + m1) * fac(j1 - m1) * fac(j2 + m2) * fac(j2 - m2)
        * fac(j3 + m3) * fac(j3 - m3))
    s = Fraction(0)
    for t in range(0, j1 + j2 + j3 + 1):
        args = (t, j3 - j2 + t + m1, j3 - j1 + t - m2,
                j1 + j2 - j3 - t, j1 - t - m1, j2 - t + m2)
        if any(x < 0 for x in args):
            continue
        s += Fraction((-1) ** t, math.prod(fac(x) for x in args))
    if s == 0:
        return RacahValue(sign=0)
    phase = -1 if (j1 - j2 - m3) % 2 else 1
    sign = 1 if phase * s > 0 else -1
    return RacahValue(sign=sign, square=num_sq * s * s)


def angular_purity_exact(l: int, m: int) -> Fraction:
    """4 pi int |Y^m_l|^4 dOmega as an exact rational: the Wigner-3j sum

        sum_{l'} (2l+1)^2 (2l'+1) 3j(l,l,l'; m,m,-2m)^2 3j(l,l,l'; 0,0,0)^2

    over l' = 0..2l, from racah_3j.  The oracle for linear_entropy.angular_sum.
    """
    total = Fraction(0)
    for lp in range(0, 2 * l + 1):
        w_m = racah_3j(l, l, lp, m, m, -2 * m).square
        if w_m:
            total += (2 * l + 1) ** 2 * (2 * lp + 1) * w_m * racah_3j(l, l, lp, 0, 0, 0).square
    return total
