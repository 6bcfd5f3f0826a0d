"""PPT entanglement test for the Gaussian-localized hydrogenic state.

Covariances use the anticommutator convention sigma = Tr[{r, r^T} rho], i.e.
a factor 2 on every variance, which puts the vacuum (physicality) threshold
at 1, not hbar/2.  Entanglement is detected when a symplectic eigenvalue of
the partial transpose is strictly below 1; exact equality classifies as not
detected.

The 12x12 covariance is taken block-diagonal by axis, three two-mode
Gaussians (x1, p1, x2, p2), as moments leaves out <x p_y> = -<y p_x> = m/2:
exact for m = 0, while for m != 0 nu1 ... nu4 are the values of a model
without the x-y coupling (nu5 and nu6 are exact).  The six eigenvalues have
a closed form in the ratio a0/b; it gives the point verdict, the detection
map (the whole grid as columns) and the blind band.  The one closed form
runs on Python floats (math.sqrt) for a float ratio and on numpy arrays
(np.sqrt) for a grid; both square roots are correctly rounded, so a point
verdict and the map cell at the same ratio agree bit for bit.  Where a nu
would overflow a float, both raise one OverflowError from _nu, naming the
state and the ratio (a map's largest), and ppt_numeric the same message.
ppt_numeric is its independent oracle: it builds each axis's particle-basis
block from the variances alone and takes the partially transposed spectrum
from the invariants Delta and det sigma in exact integer arithmetic on one
power-of-two scale, rounding each eigenvalue's quotient once.  It solves
each distinct axis block once: y always repeats x, and z does too for
isotropic states.  One cache entry per state (_state) holds its
relative_moments and its distinct axes split into integers.  The point
queries take a ratio other than a float as a0 is taken (_as_float).

A verdict is a namedtuple, (qn, a0_over_b, nu), built positionally in one
tuple allocation.  numpy is imported only on the array paths,
detection_map and an array ratio in _nu, so importing this module, a point
verdict, ppt_numeric and the blind band load no numpy, and no dataclasses.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache

from .moments import _RATIO_RANGE, com_moments, relative_moments
from .states import QuantumNumbers, _as_float

# The states that the per-state cache keeps: more than the 650 of n <= 12,
# and a bound on a long process's memory.
CACHED_STATES = 4096


class PPTVerdict(namedtuple("PPTVerdict", "qn a0_over_b nu")):
    """Symplectic spectrum of the partial transpose and its classification:
    the tuple (qn, a0_over_b, nu).

    ppt_closed_form gives nu in axis order (x_q, x_p, y_q, y_p, z_q, z_p),
    the CLI's nu1 ... nu6; ppt_numeric gives the same six values ascending.
    """

    __slots__ = ()

    @property
    def min_nu(self) -> float:
        return min(self.nu)

    @property
    def detected(self) -> bool:
        # Strict inequality: nu == 1 exactly is "not detected".
        return self.min_nu < 1.0


def _overflow(qn: QuantumNumbers, a0_over_b) -> OverflowError:
    """The error for a nu that would overflow a float at qn and a0/b."""
    return OverflowError(f"symplectic eigenvalues overflow a float at n={qn.n}, l={qn.l}, "
                         f"m={qn.m}, a0/b={a0_over_b:g}")


def _two_mode_nu(a_q: int, a_p: int, c_q: int, c_p: int,
                 e: int) -> tuple[float, float]:
    """(nu_-, nu_+) of the two-mode block with A = B = diag(a_q, a_p) and
    C = diag(c_q, c_p), every entry an integer times 2^-e: the roots of
    nu^4 - Delta nu^2 + det = 0, with

        Delta = 2 (a_q a_p + c_q c_p) / 2^(2e),
        det = (a_q^2 - c_q^2)(a_p^2 - c_p^2) / 2^(4e).

    The numerators of Delta, det and Delta^2 - 4 det are exact integers, and
    each quotient is rounded once by int / int true division, which is
    correctly rounded, so nothing overflows or cancels; nu_-^2 = det / nu_+^2
    avoids the cancellation of the smaller root.  No scaled integer goes
    through float(): it may exceed 2^1024.  Raises unless the block is
    positive definite, which makes det and Delta positive.
    """
    if not (a_q > abs(c_q) and a_p > abs(c_p)):
        scale = 1 << e
        raise ValueError(f"two-mode covariance is not positive definite: a_q = {a_q / scale:g}, "
                         f"c_q = {c_q / scale:g}, a_p = {a_p / scale:g}, c_p = {c_p / scale:g}")
    delta = 2 * (a_q * a_p + c_q * c_p)
    det = (a_q * a_q - c_q * c_q) * (a_p * a_p - c_p * c_p)
    delta2 = delta * delta
    nu_plus2 = delta / (1 << (2 * e + 1)) * (1.0 + math.sqrt((delta2 - 4 * det) / delta2))
    num, den = nu_plus2.as_integer_ratio()
    return math.sqrt(det * den / (num << (4 * e))), math.sqrt(nu_plus2)


def _split(v: float) -> tuple[int, int]:
    """(m, k + 1) for the float v = m 2^-k: its numerator and the bit length
    of its power-of-two denominator."""
    num, den = v.as_integer_ratio()
    return num, den.bit_length()


def _particle_block(q: int, qb: int, p: int, pb: int, X: int, Xb: int, P: int,
                    Pb: int) -> tuple[int, int, int, int, int]:
    """(a_q, a_p, c_q, c_p, e) of one axis in the particle basis, exactly:
    each of the first four is an integer times 2^-e.

    With x1,2 = X +- x/2 and p1,2 = P/2 +- p, in the factor-2 convention:
    a = 2 Var(x1) and c = 2 Cov(x1, x2), and likewise for the momenta.  The
    variances q2, p2, X2 and P2 come split by _split, q2 = q 2^(1 - qb) and
    likewise.  e is the largest bit length, one more than the largest
    exponent, so that q2/2 and P2/2 are integers on the shared scale too.
    """
    e = max(qb, pb, Xb, Pb)  # den = 2^k has k + 1 bits
    X, q = X << (e + 2 - Xb), q << (e - qb)  # 2 X2 and q2/2
    P, p = P << (e - Pb), p << (e + 2 - pb)  # P2/2 and 2 p2
    return X + q, P + p, X - q, P - p, e


@lru_cache(maxsize=CACHED_STATES)
def _state(qn: QuantumNumbers):
    """(relative_moments(qn), axes) for the last CACHED_STATES states; a fresh
    but equal QuantumNumbers hits the same entry, as it hashes as a tuple.
    axes holds (q, qb, p, pb, count) for each distinct axis (<q^2>, <p^2>):
    both variances split by _split, and how many of the three axes share
    them.  The key is the values, so no symmetry is assumed."""
    moments = relative_moments(qn)
    count = Counter(zip(moments[:3], moments[3:]))  # in axis order, x first
    return moments, tuple((*_split(q2), *_split(p2), k) for (q2, p2), k in count.items())


def ppt_numeric(qn: QuantumNumbers, a0_over_b: float) -> PPTVerdict:
    """The six eigenvalues, ascending, as per-axis two-mode solves in exact
    integer arithmetic on one power-of-two scale per axis.

    Each distinct axis (<q^2>, <p^2>) is solved once and its pair repeated
    for the axes that share it; the state's axes are split once per state
    (_state) and the two centre-of-mass variances once per call.  The
    partial transpose p2 -> -p2 flips the sign of c_p.  Uses nothing of the
    closed form beyond the twelve variances, so it is its oracle.  Where a
    nu overflows a float, raises _nu's OverflowError, naming the state and
    a0/b.
    """
    a0_over_b = a0_over_b if type(a0_over_b) is float else _as_float("a0/b ratio", a0_over_b)
    axes = _state(qn)[1]
    X2, P2 = com_moments(a0_over_b)
    (X, Xb), (P, Pb) = _split(X2), _split(P2)
    nu = []
    try:
        for q, qb, p, pb, k in axes:
            a_q, a_p, c_q, c_p, e = _particle_block(q, qb, p, pb, X, Xb, P, Pb)
            nu += _two_mode_nu(a_q, a_p, c_q, -c_p, e) * k
    except OverflowError:
        raise _overflow(qn, a0_over_b) from None
    nu.sort()
    return PPTVerdict(qn, a0_over_b, tuple(nu))


def _nu(qn: QuantumNumbers, a0_over_b):
    """The six symplectic eigenvalues of the partial transpose, in closed form.

    nu_1 = sqrt(<x^2> <P_X^2>), nu_2 = 4 sqrt(<X^2> <p_x^2>), and likewise for
    the y (degenerate with x) and z pairs, with all variances dimensionless.
    a0_over_b may be a float or a numpy array; each nu has its shape.  A
    scalar ratio, which the point queries hand over as a Python float, makes
    X2 a float and takes math.sqrt, giving Python floats; an array takes
    np.sqrt.  Both are correctly rounded square roots of the same
    products, so each nu has the same bits either way.

    Raises OverflowError naming the state and the ratio, for an array its
    largest, where a nu would be inf.  <X^2> <p^2> is at most 5e199 on the
    ratio range, so only <q^2> <P_X^2> can overflow, and P_X^2 grows with the
    ratio: one product at the largest P2, taken in Python floats before
    numpy multiplies, decides it, so numpy has no overflow to warn about.
    """
    x2, y2, z2, px2, py2, pz2 = _state(qn)[0]
    X2, P2 = com_moments(a0_over_b)
    if isinstance(X2, float):
        sqrt, ratio, top = math.sqrt, a0_over_b, P2
    else:
        import numpy as np
        sqrt, ratio, top = np.sqrt, a0_over_b.max(), float(P2.max())
    if x2 * top == math.inf or z2 * top == math.inf:  # y repeats x
        raise _overflow(qn, ratio)
    return (sqrt(x2 * P2), 4.0 * sqrt(X2 * px2),
            sqrt(y2 * P2), 4.0 * sqrt(X2 * py2),
            sqrt(z2 * P2), 4.0 * sqrt(X2 * pz2))


def ppt_closed_form(qn: QuantumNumbers, a0_over_b: float) -> PPTVerdict:
    """Closed-form symplectic eigenvalues of the partial transpose at one ratio."""
    a0_over_b = a0_over_b if type(a0_over_b) is float else _as_float("a0/b ratio", a0_over_b)
    return PPTVerdict(qn, a0_over_b, _nu(qn, a0_over_b))


class DetectionMap(namedtuple("DetectionMap", "a0 b nu1 nu2 nu5 nu6 min_nu detected")):
    """The detection map as columns over a points x points grid.

    a0 and b hold the grid values of each axis, a0 outer and b inner; every
    other field is a (points, points) array whose [i, j] entry belongs to the
    cell (a0[i], b[j]).  nu3 and nu4 are left out: they repeat nu1 and nu2
    (x and y are degenerate).  Two maps compare and hash by identity, as
    objects do: a tuple of arrays has no truth value to compare by.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def detection_map(qn: QuantumNumbers, a0_range: tuple[float, float],
                  b_range: tuple[float, float], points: int) -> DetectionMap:
    """PPT verdicts over the (a0, b) grid of points values per axis, as columns.

    Each axis is one np.linspace over its range, which may be ascending,
    descending or a single value.  Every value depends on a0 and b only
    through the ratio a0/b, and each cell equals ppt_closed_form there.
    """
    import numpy as np

    if points < 2:
        raise ValueError(f"grid resolution must be >= 2, got {points}")
    bounds = np.array([*a0_range, *b_range], dtype=float)
    if not np.all(np.isfinite(bounds) & (bounds > 0)):
        raise ValueError(f"a0 and b ranges must be finite and positive, got {a0_range}, {b_range}")
    a0 = np.linspace(a0_range[0], a0_range[1], points)
    b = np.linspace(b_range[0], b_range[1], points)
    # An a0/b that overflows or underflows is rejected by com_moments' range
    # check, so numpy need not warn about it.
    with np.errstate(over="ignore", under="ignore"):
        ratio = a0[:, None] / b
    nu = _nu(qn, ratio)
    min_nu = np.min(nu, axis=0)
    return DetectionMap(a0=a0, b=b, nu1=nu[0], nu2=nu[1], nu5=nu[4], nu6=nu[5],
                        min_nu=min_nu, detected=min_nu < 1.0)


def _edge(holds, r: float, outward: float, inward: float) -> float:
    """The last float from r towards outward at which holds(ratio) is true.

    holds is true on the inward side of one float and false beyond it; r is
    within a few ulps of that float.  Steps inward while holds fails, then
    outward while the next float holds; holds is called on no ratio outside
    the range that com_moments accepts, where no verdict exists."""
    lo, hi = _RATIO_RANGE
    while lo <= r <= hi and not holds(r):
        r = math.nextafter(r, inward)
    while lo <= (step := math.nextafter(r, outward)) <= hi and holds(step):
        r = step
    return r


def blind_band_edges(qn: QuantumNumbers) -> tuple[float, float] | None:
    """Float interval [lo, hi] of a0/b on which ppt_closed_form says "not
    detected": every nu >= 1 there, and some nu < 1 at every other float.

    nu_q = sqrt(<q^2> <P_X^2>) >= 1 exactly when a0/b >= sqrt(2/<q^2>), and
    nu_p = 4 sqrt(<X^2> <p^2>) >= 1 exactly when a0/b <= sqrt(8 <p^2>), so
    in exact arithmetic

        lo = max_i sqrt(2/<q_i^2>),  hi = min_i sqrt(8 <p_i^2>)

    over the axes i = x, y, z.  Rounded, those edges can sit a few ulps from
    the floats where the rounded nu cross 1, so each is stepped with
    math.nextafter to the last float of the band: every nu_q rises with a0/b
    and every nu_p falls, so each verdict flips once and the stepping ends.
    Exactly, lo < hi for every state: the smallest <q^2> and <p^2> share an
    axis, on which 4 <q^2> <p^2> > 1.  But (hi/lo)^2 - 1 is about 1/(2n) at
    l = m = n - 1, so from about n = 1e15 there the band is one float (n =
    1e15, 1e19, 1e30) or none, and then None is returned (n = 1e16, 1e17,
    1e18, 1e20, 1e25).  An edge outside [1e-100, 1e100], where ppt_closed_form
    raises, is the rounded closed form.
    """
    x2, y2, z2, px2, py2, pz2 = _state(qn)[0]
    lo = _edge(lambda r: min(_nu(qn, r)[0::2]) >= 1.0,
               math.sqrt(2.0 / min(x2, y2, z2)), 0.0, math.inf)
    hi = _edge(lambda r: min(_nu(qn, r)[1::2]) >= 1.0,
               math.sqrt(8.0 * min(px2, py2, pz2)), math.inf, 0.0)
    return None if lo > hi else (lo, hi)
