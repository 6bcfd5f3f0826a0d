import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import pytest

from hydrolens.hydrogenic import QuantumNumbers, radial_momentum
from hydrolens.linear_entropy import angular_sum, linear_entropy, radial_sum
from hydrolens.oracle import angular_purity_exact, integrate_momentum, integrate_theta
from hydrolens.specfun import spherical_harmonic_sq


def _angular_quadrature(l: int, m: int) -> float:
    # int |Y|^4 dOmega = 2 pi int_0^pi sin(theta) |Y|^4 dtheta
    return 2 * math.pi * integrate_theta(
        lambda t: math.sin(t) * spherical_harmonic_sq(l, m, t) ** 2)


def _radial_quadrature(n: int, l: int) -> float:
    qn = QuantumNumbers(n, l, 0)
    val, _ = integrate_momentum(
        lambda k: k * k * radial_momentum(qn, 1.0, k) ** 4, n, 1.0)
    return val


def test_ground_state_product():
    res = linear_entropy(QuantumNumbers(1, 0, 0))
    assert math.isclose(res.product, 33.0 / (16.0 * math.pi ** 2), rel_tol=1e-10)
    assert math.isclose(res.i_ang, 1.0 / (4.0 * math.pi), rel_tol=1e-14)
    assert math.isclose(res.i_rad, 33.0 / (4.0 * math.pi), rel_tol=1e-10)


def test_product_scales_as_a0_cubed():
    r1 = linear_entropy(QuantumNumbers(2, 1, 0), a0=1.0)
    r2 = linear_entropy(QuantumNumbers(2, 1, 0), a0=2.0)
    assert math.isclose(r2.product, 8.0 * r1.product, rel_tol=1e-12)
    # I_rad = c a0^3 exactly.  At a0 far from 1, k^3 and F^4 on their own
    # over- or underflow, but c a0^3 is a normal float.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, l in ((1, 0), (7, 3), (12, 11)):
            c = Fraction(radial_sum(n, l))
            for a0 in (1e-100, 1e-60, 1e60, 1e100):
                want = float(c * Fraction(a0) ** 3)
                assert math.isclose(radial_sum(n, l, a0), want, rel_tol=1e-14), (n, l, a0)
                res = linear_entropy(QuantumNumbers(n, l, 0), a0)
                assert math.isclose(res.i_rad, want, rel_tol=1e-14), (n, l, a0)


def test_angular_sum_matches_quadrature():
    # The adaptive integral of |Y|^4 shares nothing with the 3-j sum that
    # angular_sum and angular_purity_exact both take, so it checks the sum.
    for l in range(0, 13):
        for m in range(-l, l + 1):
            assert math.isclose(angular_sum(l, m), _angular_quadrature(l, m),
                                rel_tol=1e-12), (l, m)


def test_angular_sum_even_in_m():
    for l in list(range(1, 13)) + [40]:
        for m in range(1, l + 1):
            assert angular_sum(l, m) == angular_sum(l, -m)


def _mp_angular_sum_m0(l: int) -> mpmath.mpf:
    """int |Y^0_l|^4 dOmega to 40 digits: angular_purity_exact's 3-j sum at
    m = 0, each (l l L; 0 0 0)^2 from its log-gamma closed form, with L even
    and g = l + L/2:

        L!^2 (2l-L)! g!^2 / ((2l+L+1)! (L/2)!^4 (l-L/2)!^2).
    """
    with mpmath.workdps(40):
        lg = mpmath.loggamma
        total = mpmath.mpf(0)
        for big in range(0, 2 * l + 1, 2):
            half, g = big // 2, l + big // 2
            log_sq = (2 * lg(big + 1) + lg(2 * l - big + 1) + 2 * lg(g + 1)
                      - lg(2 * l + big + 2) - 4 * lg(half + 1) - 2 * lg(l - half + 1))
            total += (2 * big + 1) * mpmath.exp(2 * log_sq)
        return (2 * l + 1) ** 2 * total / (4 * mpmath.pi)


def test_angular_sum_m0_against_mpmath():
    # The exact rational sum bounds l to 10; past it, 40 digits stand in for
    # it.  The reference is first checked against that exact sum.
    exact = angular_purity_exact(10, 0)
    with mpmath.workdps(40):
        want = mpmath.mpf(exact.numerator) / exact.denominator / (4 * mpmath.pi)
        assert abs(_mp_angular_sum_m0(10) / want - 1) < 1e-35
    for l in (100, 250, 500, 800, 1000):
        want = _mp_angular_sum_m0(l)
        assert abs(angular_sum(l, 0) / want - 1) <= 1e-14, l


def test_angular_sum_stretched_closed_form():
    # |Y^l_l|^2 = c sin^(2l), so int |Y^l_l|^4 dOmega has the exact form
    # (2l+1)^2 C(2l, l)^2 (2l)!^2 / (4 pi (4l+1)!).  l up to 199 runs past
    # the float overflow of (l + |m|)! at 171, and l = 3126 is the largest
    # that linent reaches.  There the sum has one term, and the error is the
    # rounding of the w_0 chain's l steps.
    for l in list(range(13)) + [40, 80, 149, 199, 500, 1000, 3126]:
        exact = Fraction((2 * l + 1) ** 2 * math.comb(2 * l, l) ** 2 * math.factorial(2 * l) ** 2,
                         math.factorial(4 * l + 1))
        for m in (l, -l):
            assert math.isclose(angular_sum(l, m), float(exact) / (4 * math.pi),
                                rel_tol=1e-14), (l, m)


def _angular_values_in_process(prelude):
    """angular_sum(1000, 333) and spherical_harmonic_sq(7, 3, 0.7) as hex, from
    a fresh interpreter that first runs prelude, then whether numpy.fft is
    loaded after a whole linear_entropy call, if numpy can be imported."""
    code = "\n".join([
        "import json, sys",
        prelude,
        "from hydrolens.linear_entropy import angular_sum",
        "from hydrolens.specfun import spherical_harmonic_sq",
        "values = [angular_sum(1000, 333).hex(), spherical_harmonic_sq(7, 3, 0.7).hex()]",
        "if sys.modules.get('numpy', 0) is not None:",
        "    import hydrolens",
        "    hydrolens.linear_entropy(hydrolens.QuantumNumbers(12, 11, 4))",
        "print(json.dumps([values, 'numpy.fft' in sys.modules]))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_angular_factor_runs_with_numpy_blocked():
    # With sys.modules["numpy"] = None every numpy import raises, yet the
    # angular purity and |Y|^2 give the bits of a normal interpreter, in
    # which a whole linear_entropy call leaves numpy.fft unloaded.
    blocked, _ = _angular_values_in_process("sys.modules['numpy'] = None")
    normal, fft_loaded = _angular_values_in_process("")
    assert blocked == normal
    assert normal == [angular_sum(1000, 333).hex(), spherical_harmonic_sq(7, 3, 0.7).hex()]
    assert not fft_loaded


def test_radial_sum_matches_quadrature():
    # Every (n, l) with n <= 12, plus spot states; (150, 149) has n+l > 170,
    # where (n+l)! and (n a0 k)^l overflow a float.
    pairs = [(n, l) for n in range(1, 13) for l in range(n)]
    for n, l in pairs + [(40, 0), (40, 39), (150, 149)]:
        closed = radial_sum(n, l)
        quad = _radial_quadrature(n, l)
        assert math.isclose(closed, quad, rel_tol=1e-10), (n, l)


def test_full_product_matches_quadrature():
    for n in range(1, 5):
        for l in range(n):
            for m in range(0, l + 1):
                closed = linear_entropy(QuantumNumbers(n, l, m)).product
                quad = _radial_quadrature(n, l) * _angular_quadrature(l, m)
                assert closed > 0 and math.isfinite(closed)
                assert math.isclose(closed, quad, rel_tol=1e-10), (n, l, m)


def test_radial_sum_is_m_independent():
    # m enters only through the angular factor.
    a = linear_entropy(QuantumNumbers(3, 2, 0))
    b = linear_entropy(QuantumNumbers(3, 2, 2))
    assert a.i_rad == b.i_rad
    assert a.i_ang != b.i_ang



def test_radial_sum_overflow_raises():
    # F_nl overflows on the Gauss-Chebyshev nodes past its n = 3127 limit;
    # the result must be an error naming the state, with no NaN and no warning.
    for call in (lambda: radial_sum(3200, 880),
                 lambda: linear_entropy(QuantumNumbers(3200, 880, 0))):
        with pytest.raises(OverflowError, match="n=3200, l=880"):
            call()
    # c a0^3 underflows (a0 = 1e-110) or overflows (a0 = 1e110) a float: an
    # error too, never 0, inf or nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a0 in (1e110, 1e-110):
            for call in (lambda: radial_sum(1, 0, a0),
                         lambda: linear_entropy(QuantumNumbers(1, 0, 0), a0)):
                with pytest.raises(OverflowError, match="n=1, l=0"):
                    call()


def test_s_lin_limits():
    res = linear_entropy(QuantumNumbers(1, 0, 0))
    assert res.s_lin() == 1.0
    assert res.s_lin(math.inf) == 1.0
    assert math.isclose(res.s_lin(10.0), 1.0 - res.product / 10.0)
    with pytest.raises(ValueError):
        res.s_lin(-1.0)
    with pytest.raises(ValueError):
        res.s_lin(math.nan)


def test_angular_sum_rejects_invalid_degree_and_order():
    # Checked before any work.
    for l, m in ((-1, 0), (1, 2), (2, -3)):
        with pytest.raises(ValueError, match=f"l={l}, m={m}"):
            angular_sum(l, m)


def test_validation():
    with pytest.raises(ValueError):
        angular_sum(1, 2)
    with pytest.raises(ValueError):
        radial_sum(1, 1)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            radial_sum(2, 0, a0=bad)
        with pytest.raises(ValueError):
            linear_entropy(QuantumNumbers(2, 1, 0), a0=bad)
