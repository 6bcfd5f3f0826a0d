"""Hydrogenic eigenfunctions in position and momentum space.

Conventions match the radial normalisation int_0^inf r^2 R_nl^2 dr = 1 and
int_0^inf k^2 F_nl^2 dk = 1.  Note that the momentum profile F_nl is the
real-valued standard form; it agrees with the literal (unitary) Fourier
transform of psi_nlm up to a k-independent phase of modulus one, so only
magnitudes should be compared against a numerical transform.

radial_position and radial_momentum take r or k as a float or a numpy array
and run one recurrence in degree on it, with the normalisation, from lgamma,
folded into each step.  No (n+l)! is formed, so Rydberg states need no
separate path.  Both reject an r or k that is negative or not finite, and an
a0 that is not finite and positive.  Where a value overflows a float, at
Rydberg n beyond the limits their docstrings give, both raise OverflowError
naming (n, l); neither returns inf or nan.

Both are pure functions of (quantum numbers, a0, r or k).  QuantumNumbers
lives in states and is re-exported here.  numpy is imported inside the
functions, so importing this module, as the package does, loads none.
"""

from __future__ import annotations

import math

from .states import QuantumNumbers, _check_positive


def _checked(evaluate, name: str, qn: QuantumNumbers, a0: float, x, x_name: str):
    """evaluate(qn, a0, x) on x as a float array (0-d for a scalar x), after
    checking a0 and x; OverflowError naming the state if any value is not
    finite.  A scalar x gives a Python float.

    numpy's overflow warnings are silenced, since the check reports them.
    """
    import numpy as np

    a0 = _check_positive("a0", a0)
    x = np.asarray(x, dtype=float)
    if not np.all((0 <= x) & (x < math.inf)):
        raise ValueError(f"{x_name} must be finite and >= 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = evaluate(qn, a0, x)
    if not np.isfinite(value).all():
        raise OverflowError(f"{name} overflows a float at n={qn.n}, l={qn.l}")
    return value if x.ndim else float(value)


def radial_position(qn: QuantumNumbers, a0: float, r):
    """Radial wavefunction R_nl(r), units length^{-3/2}.

    With rho = 2r/(n a0) and d = n - l - 1,

        R_nl = e^T L^{(2l+1)}_d(rho),   T = log N + l log rho - rho/2,
        N^2  = (2/(n a0))^3 d! / (2n (n+l)!),

    in the modern Laguerre convention.  The three-term recurrence in degree
    runs on M_k = c^{k+1} L_k with c = e^{T/(d+1)}, so M_d is R_nl itself and
    neither e^T nor L_d is formed on its own.  Values are finite for every l
    and r <= 4 n^2 a0 up to n = 1284; from n = 1285 (at l = 0) the recurrence
    overflows and OverflowError names the state.  r may be a float or a numpy
    array; a float r gives a float.  Has exactly d nodes on (0, inf).
    """
    return _checked(_position, "R_nl", qn, a0, r, "radial coordinate")


def _position(qn: QuantumNumbers, a0: float, r):
    import numpy as np

    n, l = qn.n, qn.l
    d, p = n - l - 1, 2 * l + 1
    rho = 2.0 * r / (n * a0)
    t = 0.5 * (3.0 * (math.log(2.0 / n) - math.log(a0)) + math.lgamma(d + 1)
               - math.lgamma(n + l + 1) - math.log(2.0 * n)) - 0.5 * rho
    # l log rho is -inf at rho = 0, where R_nl = 0 for l > 0; c is then 0.
    if l:
        t = t + l * np.log(rho)
    c = np.exp(t / (d + 1))
    m_prev, m = 0.0, c
    for k in range(d):
        m, m_prev = c * ((2 * k + 1 + p - rho) * m - c * (k + p) * m_prev) / (k + 1), m
    return m


def radial_momentum(qn: QuantumNumbers, a0: float, k):
    """Momentum-space radial profile F_nl(k), units length^{3/2}.

    With s = n a0 k, u = s^2 + 1, x = (s^2 - 1)/u and d = n - l - 1,

        F_nl = e^T C^{(l+1)}_d(x),   T = log N + l log(s/u) - 2 log u,
        N    = sqrt(2/pi d!/(n+l)!) n^2 2^{2l+2} l! a0^{3/2},

    (Bethe & Salpeter 1957).  The Gegenbauer recurrence in degree runs on
    M_j = c^{j+1} C_j with c = e^{T/(d+1)}, so M_d is F_nl itself and neither
    N nor C_d, which reaches C(n+l, d) at x = 1, is formed on its own.
    Values are finite for every l and k up to n = 3127.  From n = 3128 the
    intermediates M_j overflow for some l (from l = 837 at n = 3128, near
    n a0 k = 0.22), and OverflowError names the state.  k may be a float or
    a numpy array; a float k gives a float.
    """
    return _checked(_momentum, "F_nl", qn, a0, k, "wavevector magnitude")


def _momentum(qn: QuantumNumbers, a0: float, k):
    import numpy as np

    n, l = qn.n, qn.l
    d, alpha = n - l - 1, l + 1
    s = n * a0 * k
    u = s * s + 1.0
    t = (0.5 * (math.log(2.0 / math.pi) + math.lgamma(d + 1) - math.lgamma(n + l + 1))
         + 2.0 * math.log(n) + (2 * l + 2) * math.log(2.0) + math.lgamma(l + 1)
         + 1.5 * math.log(a0)) - 2.0 * np.log(u)
    # l log(s/u) is -inf at s = 0, where F_nl = 0 for l > 0; c is then 0.
    if l:
        t = t + l * np.log(s / u)
    c = np.exp(t / (d + 1))
    two_x = 2.0 - 4.0 / u
    m_prev, m = 0.0, c
    for j in range(d):
        m, m_prev = c * ((j + alpha) / (j + 1) * two_x * m
                         - (j + 2 * alpha - 1) / (j + 1) * c * m_prev), m
    return m
