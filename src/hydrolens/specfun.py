"""Special functions used throughout the library.

Associated Laguerre polynomials are evaluated in the older Rodrigues-style
convention (the one with the extra factorial scaling), because the hydrogenic
radial normalisation prefactor in this code base pairs with that convention.
See ``laguerre_assoc`` for the exact relation to the modern convention.

Legendre functions omit the Condon--Shortley phase; the (-1)^m factor is
carried explicitly by the spherical-harmonic layer where needed (it drops out
of every squared quantity we compute).

Wigner 3-j symbols are computed exactly: factorials are kept as prime-exponent
vectors, which lets the square root in the Racah formula be simplified
symbolically instead of rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def laguerre_assoc(p: int, q_minus_p: int, x: float) -> float:
    """Associated Laguerre polynomial L^p_{q-p}(x), Rodrigues-style convention.

    Defined through L_q(x) = e^x (d/dx)^q (e^{-x} x^q) and
    L^p_{q-p}(x) = (-1)^p (d/dx)^p L_q(x).  Relative to the modern convention
    this carries an extra factor q!:  L^p_{q-p}(x) = q! * Lmod^{(p)}_{q-p}(x).
    """
    if p < 0 or q_minus_p < 0:
        raise ValueError(f"invalid Laguerre indices p={p}, q-p={q_minus_p}")
    if not math.isfinite(x):
        raise ValueError(f"Laguerre argument must be finite, got {x}")
    q = p + q_minus_p
    # Modern-convention value by the standard three-term recurrence in degree.
    lk_m1 = 1.0
    if q_minus_p == 0:
        return factorial(q) * lk_m1
    lk = 1.0 + p - x
    for k in range(1, q_minus_p):
        lk, lk_m1 = ((2 * k + 1 + p - x) * lk - (k + p) * lk_m1) / (k + 1), lk
    return factorial(q) * lk


def legendre_assoc(l: int, m: int, x: float) -> float:
    """Associated Legendre P_{lm}(x) without the Condon--Shortley phase.

    Restricted to 0 <= m <= l; negative m is handled by callers through the
    (l-m)!/(l+m)! symmetry factor.
    """
    if not (0 <= m <= l):
        raise ValueError(f"require 0 <= m <= l, got l={l}, m={m}")
    if abs(x) > 1.0:
        raise ValueError(f"Legendre argument out of range: {x}")
    # P_mm = (2m-1)!! (1-x^2)^{m/2}, then upward recurrence in degree.
    pmm = 1.0
    if m > 0:
        s = math.sqrt(max(0.0, (1.0 - x) * (1.0 + x)))
        for i in range(1, m + 1):
            pmm *= (2 * i - 1) * s
    if l == m:
        return pmm
    pmm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pmm1
    for ll in range(m + 2, l + 1):
        pmm1, pmm = ((2 * ll - 1) * x * pmm1 - (ll + m - 1) * pmm) / (ll - m), pmm1
    return pmm1


def spherical_harmonic_sq(l: int, m: int, theta: float) -> float:
    """|Y^m_l(theta, phi)|^2, which is independent of phi."""
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    ma = abs(m)
    norm = (2 * l + 1) / (4.0 * math.pi) * factorial(l - ma) / factorial(l + ma)
    plm = legendre_assoc(l, ma, math.cos(theta))
    return norm * plm * plm


def gegenbauer(alpha, n: int, x: float) -> float:
    """Gegenbauer polynomial C^alpha_n(x) from the generating function
    (1 - 2xs + s^2)^{-alpha} = sum_n C^alpha_n(x) s^n, evaluated by the
    standard three-term recurrence.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"Gegenbauer parameter must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"Gegenbauer degree must be >= 0, got {n}")
    if n == 0:
        return 1.0
    c_m1 = 1.0
    c = 2.0 * alpha * x
    for k in range(2, n + 1):
        c, c_m1 = (2.0 * x * (k + alpha - 1.0) * c - (k + 2.0 * alpha - 2.0) * c_m1) / k, c
    return c


# ---------------------------------------------------------------------------
# Exact Wigner 3-j symbols
# ---------------------------------------------------------------------------

def _prime_factorize_factorial(n: int, primes: list[int]) -> dict[int, int]:
    """Exponent vector of n! over the given primes (Legendre's formula)."""
    exps = {}
    for p in primes:
        if p > n:
            break
        e, q = 0, n
        while q:
            q //= p
            e += q
        exps[p] = e
    return exps


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


class _FactorialRatio:
    """Product of factorials with integer exponents, kept prime-factorized."""

    def __init__(self, nmax: int):
        self._primes = _primes_up_to(max(nmax, 2))
        self._exps: dict[int, int] = {}

    def mul_factorial(self, n: int, power: int = 1) -> "_FactorialRatio":
        if n < 0:
            raise ValueError(f"factorial of negative integer {n}")
        for p, e in _prime_factorize_factorial(n, self._primes).items():
            self._exps[p] = self._exps.get(p, 0) + e * power
        return self

    def sqrt_split(self) -> tuple[Fraction, Fraction]:
        """Write the product as c^2 * r with squarefree-ish r; return (c, r)."""
        coeff = Fraction(1)
        rad = Fraction(1)
        for p, e in self._exps.items():
            half, odd = divmod(abs(e), 2)
            term = Fraction(p) ** half if e > 0 else Fraction(1, p) ** half
            coeff *= term
            if odd:
                rad *= Fraction(p) if e > 0 else Fraction(1, p)
        return coeff, rad


@dataclass(frozen=True)
class ExactSqrt:
    """A value coeff * sqrt(radicand) with exact rational parts."""

    coeff: Fraction
    radicand: Fraction

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(float(self.radicand))

    @property
    def value(self) -> float:
        return float(self)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactSqrt):
            return NotImplemented
        if (self.coeff == 0) and (other.coeff == 0):
            return True
        return (self.coeff > 0) == (other.coeff > 0) and self.squared() == other.squared()

    def __hash__(self) -> int:
        return hash((self.coeff > 0, self.squared()))

    ZERO: ClassVar["ExactSqrt"]


ExactSqrt.ZERO = ExactSqrt(Fraction(0), Fraction(1))


def three_j_selection_rules_ok(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> bool:
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return False
    if m1 + m2 + m3 != 0:
        return False
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return False
    return True


def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> ExactSqrt:
    """Exact Wigner 3-j symbol for integer arguments.

    Selection-rule violations evaluate to zero; they are not errors.
    """
    for j in (j1, j2, j3):
        if j < 0:
            raise ValueError(f"angular momenta must be >= 0, got ({j1},{j2},{j3})")
    if not three_j_selection_rules_ok(j1, j2, j3, m1, m2, m3):
        return ExactSqrt.ZERO

    # Racah formula.  The square root collects a ratio of factorials; the sum
    # over t is rational.
    nmax = j1 + j2 + j3 + 1
    root = _FactorialRatio(nmax)
    root.mul_factorial(j1 + j2 - j3)
    root.mul_factorial(j1 - j2 + j3)
    root.mul_factorial(-j1 + j2 + j3)
    root.mul_factorial(j1 + j2 + j3 + 1, -1)
    root.mul_factorial(j1 + m1)
    root.mul_factorial(j1 - m1)
    root.mul_factorial(j2 + m2)
    root.mul_factorial(j2 - m2)
    root.mul_factorial(j3 + m3)
    root.mul_factorial(j3 - m3)
    coeff, rad = root.sqrt_split()

    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = (
            factorial(t)
            * factorial(j3 - j2 + t + m1)
            * factorial(j3 - j1 + t - m2)
            * factorial(j1 + j2 - j3 - t)
            * factorial(j1 - t - m1)
            * factorial(j2 - t + m2)
        )
        total += Fraction((-1) ** t, denom)
    # Parity via modulo: a negative exponent to ** would yield a float.
    sign = -1 if (j1 - j2 - m3) % 2 else 1
    c = sign * coeff * total
    if c == 0:
        return ExactSqrt.ZERO
    return ExactSqrt(c, rad)
