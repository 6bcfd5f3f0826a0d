"""PPT entanglement test for the Gaussian-localized hydrogenic state.

The 12x12 covariance matrix uses the anticommutator convention
sigma = Tr[{r, r^T} rho], i.e. a factor 2 on every variance, which puts the
vacuum (physicality) threshold at 1, not hbar/2.  Entanglement is detected
when a symplectic eigenvalue of the partial transpose is strictly below 1;
exact equality classifies as not detected.

The numeric pipeline (build covariance -> partial transpose -> eigensolve) is
the production path for arbitrary physical covariance matrices.  For the
localized state the six eigenvalues have a closed form in the ratio a0/b; it
gives the point verdict, the detection map (the whole grid as one array) and
the blind band, and is the numeric pipeline's test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hydrogenic import QuantumNumbers
from .moments import MomentSet, com_moments, moment_set, relative_moments

PARTICLE = "particle"
DECOUPLED = "decoupled"

# Indices of p_{x2}, p_{y2}, p_{z2} in the particle-basis canonical order
# (x1, px1, y1, py1, z1, pz1, x2, px2, y2, py2, z2, pz2).
_PT_INDICES = (7, 9, 11)

_PAIR_TOL = 1e-9


@dataclass(frozen=True)
class CovarianceMatrix:
    """12x12 real symmetric covariance matrix, dimensionless (a0, hbar/a0)."""

    matrix: np.ndarray
    basis: str = PARTICLE

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (12, 12):
            raise ValueError(f"expected a 12x12 matrix, got shape {m.shape}")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PPTVerdict:
    """Symplectic spectrum of the partial transpose and its classification."""

    qn: QuantumNumbers
    a0_over_b: float
    nu: tuple[float, float, float, float, float, float]

    @property
    def min_nu(self) -> float:
        return min(self.nu)

    @property
    def detected(self) -> bool:
        # Strict inequality: nu == 1 exactly is "not detected".
        return self.min_nu < 1.0


def symplectic_form(n_modes: int = 6) -> np.ndarray:
    """Block-diagonal Omega = oplus [[0, 1], [-1, 0]]."""
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = omega
    return out


def symplectic_transform() -> np.ndarray:
    """The 12x12 symplectic S mapping the particle basis to the decoupled one.

    Per axis (equal masses): x = x1 - x2, p_x = (p_{x1} - p_{x2})/2,
    X = (x1 + x2)/2, P_X = p_{x1} + p_{x2}.  Equivalent to a 50:50
    beam-splitter combined with a diagonal squeezer.
    """
    s = np.zeros((12, 12))
    for axis in range(3):
        q1, p1 = 2 * axis, 2 * axis + 1           # particle 1, this axis
        q2, p2 = 6 + 2 * axis, 7 + 2 * axis       # particle 2, this axis
        rq, rp = 2 * axis, 2 * axis + 1           # relative rows
        cq, cp = 6 + 2 * axis, 7 + 2 * axis       # centre-of-mass rows
        s[rq, q1], s[rq, q2] = 1.0, -1.0
        s[rp, p1], s[rp, p2] = 0.5, -0.5
        s[cq, q1], s[cq, q2] = 0.5, 0.5
        s[cp, p1], s[cp, p2] = 1.0, 1.0
    return s


def build_covariance(moments: MomentSet) -> CovarianceMatrix:
    """Particle-basis covariance sigma = S^{-1} sigma' S^{-T} with
    sigma' = 2 diag(twelve dimensionless variances)."""
    s = symplectic_transform()
    s_inv = np.linalg.inv(s)
    sigma_prime = 2.0 * np.diag(moments.as_diagonal())
    sigma = s_inv @ sigma_prime @ s_inv.T
    sigma = 0.5 * (sigma + sigma.T)
    if np.any(np.linalg.eigvalsh(sigma) <= 0):
        raise RuntimeError("covariance matrix is not positive definite")
    return CovarianceMatrix(matrix=sigma, basis=PARTICLE)


def partial_transpose(sigma: CovarianceMatrix) -> CovarianceMatrix:
    """Flip the sign of particle 2's momentum rows and columns (an involution;
    the diagonal is untouched)."""
    if sigma.basis != PARTICLE:
        raise ValueError(f"partial transpose requires the particle basis, got {sigma.basis!r}")
    flip = np.ones(12)
    flip[list(_PT_INDICES)] = -1.0
    d = np.diag(flip)
    return CovarianceMatrix(matrix=d @ sigma.matrix @ d, basis=PARTICLE)


def symplectic_eigenvalues(sigma: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """The six symplectic eigenvalues: positive square roots of the two-fold
    degenerate eigenvalues of -(Omega sigma)^2, sorted ascending."""
    m = sigma.matrix if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, dtype=float)
    prod = symplectic_form() @ m
    eig = np.linalg.eigvals(-(prod @ prod))
    if np.any(eig.real < -_PAIR_TOL) or np.any(np.abs(eig.imag) > _PAIR_TOL * np.abs(eig.real + 1.0)):
        raise ArithmeticError("eigenvalues of -(Omega sigma)^2 are not positive real")
    vals = np.sort(np.sqrt(np.maximum(eig.real, 0.0)))
    pairs = vals.reshape(6, 2)
    spread = np.abs(pairs[:, 1] - pairs[:, 0])
    if np.any(spread > _PAIR_TOL * (1.0 + pairs[:, 1])):
        raise ArithmeticError("symplectic eigenvalues do not pair within tolerance")
    return pairs.mean(axis=1)


def ppt_numeric(qn: QuantumNumbers, a0_over_b: float) -> PPTVerdict:
    """Full numeric pipeline: moments -> covariance -> PT -> eigensolve."""
    sigma = build_covariance(moment_set(qn, a0_over_b))
    nu = symplectic_eigenvalues(partial_transpose(sigma))
    return PPTVerdict(qn=qn, a0_over_b=a0_over_b, nu=tuple(sorted(nu)))


def _nu(qn: QuantumNumbers, a0_over_b):
    """The six symplectic eigenvalues of the partial transpose, in closed form.

    nu_1 = sqrt(<x^2> <P_X^2>), nu_2 = 4 sqrt(<X^2> <p_x^2>), and likewise for
    the y (degenerate with x) and z pairs, with all variances dimensionless.
    a0_over_b may be a float or a numpy array; each nu has its shape.
    """
    x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
    X2, P2 = com_moments(a0_over_b)
    return (np.sqrt(x2 * P2), 4.0 * np.sqrt(X2 * px2),
            np.sqrt(y2 * P2), 4.0 * np.sqrt(X2 * py2),
            np.sqrt(z2 * P2), 4.0 * np.sqrt(X2 * pz2))


def ppt_closed_form(qn: QuantumNumbers, a0_over_b: float) -> PPTVerdict:
    """Closed-form symplectic eigenvalues of the partial transpose at one ratio."""
    nu = tuple(float(v) for v in _nu(qn, a0_over_b))
    return PPTVerdict(qn=qn, a0_over_b=a0_over_b, nu=nu)


def detection_map(qn: QuantumNumbers, a0_range: tuple[float, float],
                  b_range: tuple[float, float], points: int):
    """Row-major grid of PPT verdicts over (a0, b) pairs, a0 outer and b inner.

    Returns a list of (a0, b, nu1, nu2, nu5, nu6, min_nu, detected) tuples of
    Python floats and a bool; every value depends on a0 and b only through
    the ratio a0/b.  Each row equals ppt_closed_form at that cell.
    """
    if points < 2:
        raise ValueError(f"grid resolution must be >= 2, got {points}")
    bounds = np.array([*a0_range, *b_range], dtype=float)
    if not np.all(np.isfinite(bounds) & (bounds > 0)):
        raise ValueError(f"a0 and b ranges must be finite and positive, got {a0_range}, {b_range}")
    a0 = np.repeat(np.linspace(a0_range[0], a0_range[1], points), points)
    b = np.tile(np.linspace(b_range[0], b_range[1], points), points)
    # An a0/b that overflows or underflows is rejected by com_moments' range
    # check, so numpy need not warn about it.
    with np.errstate(over="ignore", under="ignore"):
        ratio = a0 / b
    nu = np.array(_nu(qn, ratio))
    min_nu = nu.min(axis=0)
    columns = (a0, b, nu[0], nu[1], nu[4], nu[5], min_nu, min_nu < 1.0)
    return list(zip(*(c.tolist() for c in columns)))


def blind_band_edges(qn: QuantumNumbers) -> tuple[float, float] | None:
    """Ratio interval [lo, hi] of a0/b on which every nu >= 1 (not detected).

    nu_q = sqrt(<q^2> <P_X^2>) >= 1 exactly when a0/b >= sqrt(2/<q^2>), and
    nu_p = 4 sqrt(<X^2> <p^2>) >= 1 exactly when a0/b <= sqrt(8 <p^2>), so

        lo = max_i sqrt(2/<q_i^2>),  hi = min_i sqrt(8 <p_i^2>)

    over the axes i = x, y, z.  Returns None when lo >= hi: then some nu is
    below 1 at every ratio.
    """
    x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
    lo = math.sqrt(2.0 / min(x2, y2, z2))
    hi = math.sqrt(8.0 * min(px2, py2, pz2))
    return None if lo >= hi else (lo, hi)
