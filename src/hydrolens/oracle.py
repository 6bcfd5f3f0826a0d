"""Independent brute-force validation machinery.

Nothing in here is used by the production paths; closed forms elsewhere in
the package are checked against these quadratures and exact sums in the test
suite and by verify.verify_checks.  racah_3j, through angular_purity_exact,
is the exact-rational oracle for linear_entropy.angular_sum: both take the
same 3-j sum, angular_sum by a float recurrence in l' and the oracle each
term from the Racah formula.  The semi-infinite momentum integrals use the
half-angle map n a0 k = tan(phi/2), which takes [0, inf) onto (0, pi) and
turns the momentum moments k^(2j) F_nl^(2q) dk, 2j + 2 <= 8q, into
trigonometric polynomials in phi, with no endpoint singularity for
bisection to chase.

integrate bisects panels of a fixed 21-point Gauss-Legendre rule, written
out as constants (_GL_NODES, _GL_WEIGHTS) with the bits that
np.polynomial.legendre.leggauss(21) returns: no process builds the rule, so
the oracle loads no numpy.polynomial and calls nothing in numpy.linalg.  One
call of its integrand evaluates three bisection levels, the halves,
quarters and eighths of every panel still open, on one node array, so
integrands map a node array to an array; the radial functions of
hydrogenic take arrays for this.  Only integrate_theta calls its integrand
once per node, with a Python float, and one level per call.  The open
panels themselves are Python lists of floats, since a level holds only a
few: numpy builds the node array, checks that the nodes lie inside their
panels, makes the integrand call and weighs the values into panel sums, and
everything else (the split points, accept or split, the left-to-right sum)
is float arithmetic with the same bits.  integrate_semi_infinite maps
[0, inf) onto (0, 1) at a scale it finds with one probe call of its
integrand.

bessel_transform_radial checks that F_nl is the Fourier transform of R_nl.
Its j_l is _spherical_jn, an array recurrence (upward above x = l, Miller's
downward below it), so the package needs nothing beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .hydrogenic import radial_position
from .states import QuantumNumbers, _check_positive, _integer

# The panel rule: leggauss(21) under numpy 2.4.6, each value written as its
# repr, so it round trips to the same bits.  The nodes ascend and are
# antisymmetric about the middle one, 0.0; the weights are symmetric.
_GL_NODES = np.array((
    -0.9937521706203895, -0.9672268385663063, -0.9200993341504008,
    -0.8533633645833173, -0.7684399634756779, -0.6671388041974123,
    -0.5516188358872198, -0.4243421202074388, -0.2880213168024011,
    -0.1455618541608951, 0.0, 0.1455618541608951,
    0.2880213168024011, 0.4243421202074388, 0.5516188358872198,
    0.6671388041974123, 0.7684399634756779, 0.8533633645833173,
    0.9200993341504008, 0.9672268385663063, 0.9937521706203895,
))
_GL_WEIGHTS = np.array((
    0.01601722825777436, 0.03695378977085188, 0.05713442542685717,
    0.07610011362837911, 0.09344442345603395, 0.1087972991671484,
    0.12183141605372864, 0.13226893863333763, 0.1398873947910734,
    0.14452440398997027, 0.1460811336496907, 0.14452440398997027,
    0.1398873947910734, 0.13226893863333763, 0.12183141605372864,
    0.1087972991671484, 0.09344442345603395, 0.07610011362837911,
    0.05713442542685717, 0.03695378977085188, 0.01601722825777436,
))
# Lower bound on the scale of the relative tolerance, for integrals that are 0.
_ABS_FLOOR = 1e-300


class QuadratureError(ArithmeticError):
    """Raised when the adaptive scheme cannot meet the requested tolerance.

    Carries the best available estimate in ``best`` and ``error``."""

    def __init__(self, msg: str, best: float, error: float):
        super().__init__(msg)
        self.best = best
        self.error = error


@dataclass
class QuadratureSpec:
    """int_a^b integrand(x) dx.  The integrand maps a float array of nodes to
    an array of the same shape."""

    integrand: Callable[[np.ndarray], np.ndarray]
    a: float = -1.0
    b: float = 1.0
    rel_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        a, b, inf = self.a, self.b, math.inf
        if not -inf < a < b < inf:
            raise ValueError(f"require finite a < b, got a={a}, b={b}")
        # The panel rule forms b - a and a + b.
        if not (b - a < inf and -inf < a + b < inf):
            raise ValueError(f"b - a or a + b overflows a float, got a={a}, b={b}")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("need at least one subdivision")


def _call(f, x: np.ndarray) -> np.ndarray:
    """f on the node array x, which must give one value per node."""
    y = f(x)
    if np.shape(y) != x.shape:
        raise ValueError(f"the integrand must return an array of shape {x.shape}, one value "
                         f"per node, got shape {np.shape(y)}")
    return y


def _halves(lo: list[float], hi: list[float]) -> tuple[list[float], list[float]]:
    """The halves of each panel [lo[i], hi[i]], split at its midpoint: the
    left half at 2i, the right half at 2i + 1."""
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    return ([x for a, m in zip(lo, mid) for x in (a, m)],
            [x for m, b in zip(mid, hi) for x in (m, b)])


def _panels(f, lo: list[float], hi: list[float], levels: int = 1) -> list[tuple]:
    """The 21-point Gauss-Legendre rule, _GL_NODES and _GL_WEIGHTS, on each
    [lo[i], hi[i]] and on every panel of the levels - 1 bisection levels
    below them, from one call of f on all their nodes.  Returns one (lo, hi,
    values) per level, the halves of panel i at 2i and 2i + 1 of the next
    (_halves).  It stops before the first level with a panel too narrow for
    its nodes to lie strictly inside it, so it returns [] and does not call f
    when the given panels are.  Values may be nan or infinite; integrate
    checks those it reaches.

    The panel ends are Python floats, split at 0.5 * (a + b) as integrate
    splits them.  numpy does the rest on all levels at once: the midpoints
    and half-widths, the node array, the check of its outer nodes (the nodes
    ascend and rounding is monotone, so the outer two bound the rest), the
    one call of f and each panel's h * sum(weights * values).  So a panel's
    value has the bits of the same rule worked on that panel alone, in
    whatever level or call it is evaluated."""
    tree = [(lo, hi)]
    for _ in range(levels - 1):
        tree.append(_halves(*tree[-1]))
    a = np.array([x for lo, _ in tree for x in lo])
    b = np.array([x for _, hi in tree for x in hi])
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _GL_NODES
    inside = (x[:, 0] > a) & (x[:, -1] < b)
    rows = len(a)
    if not inside.all():
        # Keep the levels above the first panel that is too narrow.
        first, rows, kept = int(inside.argmin()), 0, 0
        while rows + len(tree[kept][0]) <= first:
            rows += len(tree[kept][0])
            kept += 1
        del tree[kept:]
        if not tree:
            return []
        h, x = h[:rows], x[:rows]
    values = (h * (_GL_WEIGHTS * np.reshape(_call(f, x.ravel()), x.shape)).sum(axis=1)).tolist()
    out, i = [], 0
    for lo, hi in tree:
        out.append((lo, hi, values[i:i + len(lo)]))
        i += len(lo)
    return out


def _check_finite(lo: list[float], hi: list[float], values: list[float], panels: list[int]):
    """QuadratureError naming the first of the given panels whose value is
    nan or infinite: splitting it would only spend the subdivision budget."""
    for i in panels:
        if not math.isfinite(values[i]):
            raise QuadratureError(
                f"integrand is not finite on [{lo[i]!r}, {hi[i]!r}]: panel value {values[i]}",
                best=values[i], error=math.inf)


def _left_to_right(accepted: list) -> tuple[float, float]:
    """Sums of the values and error estimates of the accepted (left end,
    value, error) panels, added in order of their left ends.  Sorted in
    Python: the first np.argsort in a process raises its peak RSS by about
    0.3 MB, the size of numpy's sort kernels."""
    total = err = 0.0
    for _, value, delta in sorted(accepted):
        total += value
        err += delta
    return total, err


def integrate(spec: QuadratureSpec, levels: int = 3) -> tuple[float, float]:
    """Adaptive bisected Gauss-Legendre on [a, b]; returns (value, error
    estimate).

    Level by level, each panel still open is accepted when its halves agree
    with it, |left + right - coarse| <= rel_tol * scale, or else split.
    Which panels are accepted does not depend on the batching, and they are
    added from left to right, the order of a depth-first bisection.  Raises
    QuadratureError, carrying the best estimate so far, after more than
    max_subdivisions splits or at a panel too narrow to split further, and
    at the first level with a panel whose value is nan or infinite.

    Each integrand call evaluates the next `levels` bisection levels below
    the panels still open (_panels): their halves, quarters and eighths at
    the default of 3.  The first call evaluates the whole interval with the
    `levels` levels below it.  The loop walks those values level by level
    with the accept rule above, so the same panels are accepted with the
    same values and the same sum, bit for bit, at any `levels`; at 1 each
    call evaluates the halves of the open panels, a level at a time, the
    first the whole interval and its halves.  An array integrand costs more
    per call than per node, so the default takes a third of the calls for
    about 7 times the nodes per open panel; two and four levels were slower.
    integrate_theta, whose integrand costs per node, evaluates one level per
    call.  A call stops short of a level with a panel too narrow for the
    rule.  The walk checks only the panels it reaches, so a nan, an infinite
    value or a narrow panel below a panel it accepts raises nothing.

    The open panels are Python lists of floats: a level is mostly one or a
    few panels, on which each numpy call costs more than its arithmetic.
    numpy works only inside _panels.  The sums that a QuadratureError
    carries are taken with np.sum when it is raised, so they keep the bits
    of numpy's pairwise summation.
    """
    if levels < 1:
        raise ValueError(f"need at least one level per integrand call, got {levels}")
    f = spec.integrand
    tree = _panels(f, [float(spec.a)], [float(spec.b)], levels + 1)
    if not tree:
        raise QuadratureError("interval too narrow for the panel rule", best=0.0, error=math.inf)
    lo, hi, coarse = tree[0]
    _check_finite(lo, hi, coarse, [0])
    scale = max(abs(coarse[0]), _ABS_FLOOR)
    tol = spec.rel_tol * scale
    accepted = []
    splits, open_deltas = 0, []
    # The open panels, as indices into level `depth` of the tree, in the order
    # in which a level of one call at a time holds them; `coarse` their values.
    live, depth = [0], 0
    while live:
        if depth + 1 == len(tree):
            lo, hi, _ = tree[depth]
            a, b = [lo[i] for i in live], [hi[i] for i in live]
            below = _panels(f, *_halves(a, b), levels)
            if not below:
                total, err = _left_to_right(accepted)
                raise QuadratureError(f"panel too narrow to split after {splits} subdivisions",
                                      best=total + float(np.sum(coarse)),
                                      error=err + float(np.sum(open_deltas)))
            tree, live, depth = [(a, b, coarse), *below], list(range(len(a))), 0
        lo, hi, values = tree[depth + 1]
        n = len(live)
        kids = [2 * i for i in live] + [2 * i + 1 for i in live]
        _check_finite(lo, hi, values, kids)
        left, right = [values[i] for i in kids[:n]], [values[i] for i in kids[n:]]
        fine = [x + y for x, y in zip(left, right)]
        delta = [abs(x - y) for x, y in zip(fine, coarse)]
        accepted += [(lo[kids[i]], fine[i], d) for i, d in enumerate(delta) if d <= tol]
        split = [i for i, d in enumerate(delta) if not d <= tol]
        splits += len(split)
        open_deltas = [delta[i] for i in split]
        if splits > spec.max_subdivisions:
            total, err = _left_to_right(accepted)
            raise QuadratureError(
                f"quadrature failed to converge after {spec.max_subdivisions} subdivisions",
                best=total + float(np.sum([fine[i] for i in split])),
                error=err + float(np.sum(open_deltas)))
        live = [kids[i] for i in split] + [kids[n + i] for i in split]
        coarse = [left[i] for i in split] + [right[i] for i in split]
        depth += 1
    total, err = _left_to_right(accepted)
    return total, max(err, abs(total) * 1e-15)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """int_0^inf f via the tangent map t in (0, 1), x = scale t/(1-t), with
    Jacobian scale/(1-t)^2.  f maps an array to an array, as a QuadratureSpec
    integrand does.

    The scale is the integrand's own: one probe call of f on every power of
    two from 2^-200 to 2^200, with numpy's floating-point warnings silenced,
    picks the point where x |f(x)|, the mass per unit of log x, is largest,
    ignoring values that are not finite; 1.0 if it is 0 at every point.
    Centred on the mass in t, the map needs a few bisection levels at any
    extent (a hydrogenic radial moment's is about n^2 a0), where a fixed
    scale of 1 would lose e^(-x/c) at c = 1e-30 between the nodes and fail to
    converge at c = 1e30.  The scale is a power of two, so x is scale times
    t/(1-t) exactly."""
    probe = np.ldexp(1.0, np.arange(-200, 201))
    with np.errstate(all="ignore"):
        mass = probe * np.abs(_call(f, probe))
    mass[~np.isfinite(mass)] = 0.0
    peak = int(np.argmax(mass))
    scale = float(probe[peak]) if mass[peak] > 0.0 else 1.0

    def g(t: np.ndarray) -> np.ndarray:
        x = scale * t / (1.0 - t)
        return scale * f(x) / (1.0 - t) ** 2

    return integrate(QuadratureSpec(g, 0.0, 1.0))


def integrate_momentum(f: Callable[[np.ndarray], np.ndarray], n: int,
                       a0: float) -> tuple[float, float]:
    """int_0^inf f(k) dk through the half-angle map s = n a0 k = tan(phi/2),
    phi in (0, pi), dk = (1 + s^2)/(2 n a0) dphi.  f maps an array to an
    array, as a QuadratureSpec integrand does.

    F_nl is s^l/(1+s^2)^(l+2) times a polynomial in (s^2-1)/(s^2+1) = -cos(phi),
    and s/(1+s^2) = sin(phi)/2, so every k^(2j) F_nl^(2q) dk with 2j + 2 <= 8q
    is a trigonometric polynomial in phi: the panels accept within a few
    levels, and <k^4> converges.  linear_entropy.radial_sum uses the same
    angle, reflected (theta = pi - phi), with a fixed 2n+1 node Chebyshev rule
    that is exact only at the degree it assumes; this oracle stays independent
    of it through the adaptive Gauss-Legendre error test, which assumes none.
    n must be a positive integer and a0 finite and positive (ValueError).
    """
    if type(n) is not int:
        n = _integer("n", n)
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got n={n}")
    a0 = _check_positive("a0", a0)
    unit = 1.0 / (n * a0)

    def g(phi: np.ndarray) -> np.ndarray:
        s = np.tan(0.5 * phi)
        return f(s * unit) * (0.5 * unit * (1.0 + s * s))

    return integrate(QuadratureSpec(g, 0.0, math.pi))


def integrate_theta(g: Callable[[float], float]) -> float:
    """int_0^pi g(theta) dtheta.  g is called once per node with a Python
    float, so it may be written with the math module."""

    def per_node(t: np.ndarray) -> np.ndarray:
        return np.array([g(ti) for ti in t.tolist()])

    val, _ = integrate(QuadratureSpec(per_node, 0.0, math.pi), levels=1)
    return val


def _spherical_jn(l: int, x: np.ndarray) -> np.ndarray:
    """The spherical Bessel function j_l on an array of x >= 0.

    Above x = l, the upward recurrence j_{k+1} = (2k+1)/x j_k - j_{k-1} from
    j_0 = sin x/x and j_1 = (j_0 - cos x)/x, which is stable while k < x.  At
    and below x = l, Miller's downward recurrence, carried as the ratios
    rho_k = j_{k+1}/j_k from rho_L = 0 so that nothing overflows; L runs past
    l by the width of the turning point, which grows like l^(1/3).  The
    ratios give (j_0, j_1) = c (u, 1), u = 3/x - rho_1, and j_l = c times the
    product of rho_1 ... rho_{l-1}.  c is the projection of the closed forms
    of (j_0, j_1) onto (u, 1), so j_0 carries it where j_1 cancels (small x)
    or vanishes, and j_1 where j_0 vanishes.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, float(l == 0))  # j_l(0)
    pos = x > 0.0
    t = x[pos]
    j0 = np.sin(t) / t
    j1 = (j0 - np.cos(t)) / t
    val = np.empty_like(t)
    up = t > l
    if up.any():
        s, a, b = t[up], j0[up], j1[up]
        for k in range(1, l):
            a, b = b, (2 * k + 1) / s * b - a
        val[up] = b if l else a
    down = ~up
    if down.any():
        s = t[down]
        rho, ratio = np.zeros_like(s), np.ones_like(s)
        for k in range(l + 16 + 8 * math.ceil(l ** (1.0 / 3.0)), 1, -1):
            rho = 1.0 / ((2 * k + 1) / s - rho)  # rho_{k-1}
            if k <= l:
                ratio *= rho  # j_l/j_1 once k = 2
        u = 3.0 / s - rho
        h = np.hypot(u, 1.0)
        val[down] = ratio * (j0[down] * (u / h) + j1[down] / h) / h
    out[pos] = val
    return out


def bessel_transform_radial(qn: QuantumNumbers, a0: float, k: float) -> float:
    """sqrt(2/pi) int_0^inf r^2 j_l(k r) R_nl(r) dr.

    R_nl extends to about 2 n^2 a0 and decays like e^{-r/(n a0)} past it, so
    the transform is integrated chunk by chunk until, past 2 n^2 a0, a chunk
    is below 1e-15 of the running sum of |chunk|; chunk width follows the
    oscillation period pi/k when k dominates the decay scale.  a0 must be
    finite and positive, and k finite and >= 0.
    """
    a0 = _check_positive("a0", a0)
    if not 0.0 <= k < math.inf:
        raise ValueError(f"wavevector must be finite and >= 0, got {k}")
    l = qn.l
    if k == 0.0 and l >= 1:
        return 0.0

    def f(r: np.ndarray) -> np.ndarray:
        return r * r * _spherical_jn(l, k * r) * radial_position(qn, a0, r)

    width = math.pi / max(k, 1.0 / (qn.n * a0))
    extent = 2.0 * qn.n * qn.n * a0
    total = mass = a = 0.0
    for _ in range(10000):
        chunk, _ = integrate(QuadratureSpec(f, a, a + width, rel_tol=1e-13))
        total += chunk
        mass += abs(chunk)
        a += width
        if a > extent and abs(chunk) <= 1e-15 * mass:
            break
    else:
        raise QuadratureError("Bessel transform tail did not decay", best=total, error=abs(chunk))
    return math.sqrt(2.0 / math.pi) * total


@dataclass(frozen=True)
class RacahValue:
    """sign * sqrt(square) with exact rational square (oracle-side 3-j)."""

    sign: int
    square: Fraction = field(default_factory=lambda: Fraction(0))


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

    over l' = 0..2l, each term from racah_3j.  The oracle for
    linear_entropy.angular_sum, which builds the same terms by a recurrence.
    Raises ValueError unless |m| <= l.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    total = Fraction(0)
    for lp in range(0, 2 * l + 1):
        w_m = racah_3j(l, l, lp, m, m, -2 * m).square
        if w_m:
            total += (2 * l + 1) ** 2 * (2 * lp + 1) * w_m * racah_3j(l, l, lp, 0, 0, 0).square
    return total
