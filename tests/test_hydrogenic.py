import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from hydrolens.hydrogenic import QuantumNumbers, radial_momentum, radial_position
from hydrolens.oracle import (
    bessel_transform_radial,
    integrate_momentum,
    integrate_semi_infinite,
)

STATES_N4 = [QuantumNumbers(n, l, 0) for n in range(1, 5) for l in range(n)]
# Rydberg states: l = 0, n/2 and n-1 at n = 50, 100, 200.
RYDBERG = [QuantumNumbers(n, l, 0) for n in (50, 100, 200) for l in (0, n // 2, n - 1)]


def test_quantum_numbers_validation():
    with pytest.raises(ValueError):
        QuantumNumbers(0, 0, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(1, 1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(2, 1, 2)
    qn = QuantumNumbers(3, 2, -2)
    assert (qn.n, qn.l, qn.m) == (3, 2, -2)


def test_quantum_numbers_must_be_integers():
    for args in ((2.5, 1), (2, 0.5), (3, 2, 1.5), (2.0, 1), (3, 2, 1.0), ("2", 1),
                 (True, 0), (2, True), (2, 1, False), (np.float64(2.0), 1), (np.bool_(True), 0)):
        with pytest.raises(ValueError, match="must be integers"):
            QuantumNumbers(*args)
    # numpy integers are accepted and stored as Python ints, whose exact
    # arithmetic cannot wrap.
    qn = QuantumNumbers(np.int64(12), np.int32(11), np.int8(-11))
    assert qn == QuantumNumbers(12, 11, -11)
    assert all(type(v) is int for v in (qn.n, qn.l, qn.m))
    assert hash(qn) == hash(QuantumNumbers(12, 11, -11))


def test_ground_state_at_origin():
    # R_10(0) = 2 a0^{-3/2}
    assert math.isclose(radial_position(QuantumNumbers(1, 0, 0), 1.0, 0.0), 2.0)
    assert math.isclose(radial_position(QuantumNumbers(1, 0, 0), 2.0, 0.0),
                        2.0 * 2.0 ** -1.5)


def test_radial_position_normalization():
    for qn in STATES_N4:
        val, _ = integrate_semi_infinite(
            lambda r: r * r * radial_position(qn, 1.0, r) ** 2)
        assert math.isclose(val, 1.0, rel_tol=1e-10), qn


def test_radial_position_node_count():
    for qn in STATES_N4:
        r = np.linspace(1e-6, 60.0 * qn.n, 20000)
        vals = radial_position(qn, 1.0, r)
        nodes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert nodes == qn.n - qn.l - 1, qn


def test_radial_position_rejects_negative_r():
    qn = QuantumNumbers(2, 1, 0)
    for f in (radial_position, radial_momentum):
        for bad in (-0.1, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError):
                f(qn, 1.0, bad)
            with pytest.raises(ValueError):
                f(qn, 1.0, np.array([0.5, bad]))
        # a0 must be finite and positive too.
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                f(qn, bad, 0.5)
            with pytest.raises(ValueError):
                f(qn, bad, np.array([0.5, 1.0]))


def test_array_argument_matches_scalar_calls():
    grid = np.array([[0.0, 0.3], [1.7, 25.0]])
    for qn in STATES_N4 + [QuantumNumbers(12, 5, 0), RYDBERG[4]]:
        for f in (radial_position, radial_momentum):
            values = f(qn, 0.7, grid)
            assert values.shape == grid.shape
            assert values.dtype == np.float64
            scalars = [[f(qn, 0.7, x) for x in row] for row in grid.tolist()]
            assert (values == scalars).all(), (f.__name__, qn)
            # A 0-d argument, numpy or not, gives a Python float.
            for x, same in ((2, 2.0), (np.float64(1.7), 1.7), (np.array(1.7), 1.7)):
                got = f(qn, 0.7, x)
                assert type(got) is float and got == f(qn, 0.7, same)


def test_momentum_ground_state_value():
    # F_10 at a0 k = 1 is sqrt(2/pi) a0^{3/2}
    assert math.isclose(radial_momentum(QuantumNumbers(1, 0, 0), 1.0, 1.0),
                        math.sqrt(2.0 / math.pi), rel_tol=1e-14)


def test_momentum_normalization():
    for qn in STATES_N4:
        val, _ = integrate_momentum(
            lambda k: k * k * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
        assert math.isclose(val, 1.0, rel_tol=1e-10), qn


def test_momentum_normalization_past_factorial_overflow():
    # (n+l)! = 171! does not fit a float; the prefactor must not need it.
    qn = QuantumNumbers(86, 85, 0)
    val, _ = integrate_momentum(
        lambda k: k * k * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
    assert math.isclose(val, 1.0, rel_tol=1e-8)


def test_momentum_scaling_in_a0():
    # F carries a0^{3/2} against the dimensionless combination a0 k.
    qn = QuantumNumbers(3, 1, 0)
    a0 = 2.5
    for k in (0.2, 0.7, 1.3):
        assert math.isclose(radial_momentum(qn, a0, k),
                            a0 ** 1.5 * radial_momentum(qn, 1.0, a0 * k), rel_tol=1e-13)


def test_momentum_matches_bessel_transform_magnitude():
    # The momentum profile equals the spherical Bessel transform of R_nl up
    # to a k-independent phase, so magnitudes must agree.  The Rydberg states
    # extend to about 2 n^2 a0, far past their decay length n a0.
    cases = [
        (QuantumNumbers(1, 0, 0), 1.0),
        (QuantumNumbers(2, 1, 0), 0.5),
        (QuantumNumbers(3, 2, 0), 0.8),
        (QuantumNumbers(4, 1, 0), 0.3),
    ] + [(qn, 0.75 / qn.n) for qn in RYDBERG]
    for qn, k in cases:
        direct = abs(radial_momentum(qn, 1.0, k))
        oracle = abs(bessel_transform_radial(qn, 1.0, k))
        assert math.isclose(direct, oracle, rel_tol=1e-12), qn


def test_rydberg_normalisation_and_moments():
    # a0 = 1/n^2 keeps the scale the tangent map sees of order one.
    for qn in RYDBERG:
        n, l = qn.n, qn.l
        a0 = 1.0 / (n * n)
        norm, _ = integrate_semi_infinite(lambda r: r * r * radial_position(qn, a0, r) ** 2)
        r2, _ = integrate_semi_infinite(lambda r: r ** 4 * radial_position(qn, a0, r) ** 2)
        k_norm, _ = integrate_momentum(
            lambda k: k * k * radial_momentum(qn, a0, k) ** 2, n, a0)
        k2, _ = integrate_momentum(lambda k: k ** 4 * radial_momentum(qn, a0, k) ** 2, n, a0)
        r2_exact = n * n * (5 * n * n + 1 - 3 * l * (l + 1)) / 2.0 * a0 * a0
        assert abs(norm - 1.0) <= 1e-8, qn
        assert abs(r2 / r2_exact - 1.0) <= 1e-8, qn
        assert abs(k_norm - 1.0) <= 1e-8, qn
        assert abs(n * n * a0 * a0 * k2 - 1.0) <= 1e-8, qn
    # (n+l)!^3 overflowed a float from n + l = 72 on.
    value = radial_position(QuantumNumbers(72, 0, 0), 1.0, 0.01)
    assert type(value) is float and math.isfinite(value)


def test_overflow_raises_naming_the_state():
    # Past the documented limits a value overflows a float.  On an array and
    # on a float that is an OverflowError naming (n, l): never inf or nan, and
    # no numpy RuntimeWarning.  F_nl fails near x = -1 at (3200, 880) and
    # near x = 1 at (3500, 496).
    cases = [(radial_momentum, QuantumNumbers(3200, 880), np.linspace(0.0, 0.4 / 3200, 41)),
             (radial_momentum, QuantumNumbers(3500, 496), np.linspace(0.0, 12.0 / 3500, 41)),
             (radial_position, QuantumNumbers(1600, 0), np.linspace(0.0, 4.0 * 1600 ** 2, 41))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, qn, x in cases:
            name = f"n={qn.n}, l={qn.l}"
            with pytest.raises(OverflowError, match=name):
                f(qn, 1.0, x)
            raised = 0
            for xi in x.tolist():
                try:
                    assert math.isfinite(f(qn, 1.0, xi)), (f.__name__, qn, xi)
                except OverflowError as exc:
                    assert name in str(exc)
                    raised += 1
            assert raised, (f.__name__, qn)
        # At a0 = 1e-300 the prefactor e^{T/(d+1)} of R_10 overflows.
        for r in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(OverflowError, match="R_nl overflows a float at n=1, l=0"):
                radial_position(QuantumNumbers(1, 0), 1e-300, r)


def test_finite_up_to_the_documented_limits():
    # radial_momentum: every l and k to n = 3127.  At n = 3128 it fails for
    # l = 837..883 around k n a0 = 0.22, where the intermediates c^{j+1} C_j
    # of the Gegenbauer recurrence peak; the middle grid resolves that window.
    s = np.concatenate([np.linspace(0.0, 6.0, 61), np.linspace(0.2, 0.24, 401),
                        np.geomspace(6.0, 1e12, 200)])
    for l in range(830, 890):
        assert np.isfinite(radial_momentum(QuantumNumbers(3127, l), 1.0, s / 3127)).all(), l
    with pytest.raises(OverflowError, match="n=3128, l=837"):
        radial_momentum(QuantumNumbers(3128, 837), 1.0, s / 3128)
    # radial_position: r <= 4 n^2 a0 to n = 1284; l = 0 fails first.
    for n, ok in ((1284, True), (1285, False)):
        r = np.linspace(0.0, 4.0 * n * n, 4001)
        if ok:
            assert np.isfinite(radial_position(QuantumNumbers(n, 0), 1.0, r)).all()
        else:
            with pytest.raises(OverflowError, match=f"n={n}, l=0"):
                radial_position(QuantumNumbers(n, 0), 1.0, r)


def _mp_position(n, l, a0, r):
    rho = 2 * mp.mpf(r) / (n * mp.mpf(a0))
    norm = mp.sqrt((2 / (n * mp.mpf(a0))) ** 3 * mp.factorial(n - l - 1)
                   / (2 * n * mp.factorial(n + l)))
    return (norm * mp.exp(-rho / 2) * rho ** l
            * mp.laguerre(n - l - 1, 2 * l + 1, rho, zeroprec=1000))


def _mp_momentum(n, l, a0, k, zeroprec=1000):
    s = n * mp.mpf(a0) * mp.mpf(k)
    norm = (mp.sqrt(2 / mp.pi * mp.factorial(n - l - 1) / mp.factorial(n + l))
            * n ** 2 * mp.mpf(2) ** (2 * l + 2) * mp.factorial(l) * mp.mpf(a0) ** 1.5)
    return (norm * s ** l / (s * s + 1) ** (l + 2)
            * mp.gegenbauer(n - l - 1, l + 1, (s * s - 1) / (s * s + 1), zeroprec=zeroprec))


def test_pointwise_against_mpmath():
    # 1e-12 of each value plus 1e-14 of the function's maximum: next to a
    # node, one rounding of the argument moves the value by more than 1e-12
    # of itself.
    states = [QuantumNumbers(n, l, 0) for n in range(1, 13) for l in range(n)] + RYDBERG
    with mp.workdps(50):
        for qn in states:
            n, l = qn.n, qn.l
            a0 = 1.0 if n <= 12 else 1.0 / (n * n)
            for f, f_mp, x in (
                    (radial_position, _mp_position, np.linspace(0.0, (4 * n + 30) * n * a0, 31)),
                    (radial_momentum, _mp_momentum, np.linspace(0.0, 6.0 / (n * a0), 31))):
                got = f(qn, a0, x)
                want = np.array([float(f_mp(n, l, a0, xi)) for xi in x.tolist()])
                bound = 1e-12 * np.abs(want) + 1e-14 * np.abs(want).max()
                assert (np.abs(got - want) <= bound).all(), (f.__name__, qn)
        # F_nl past R_nl's limit.  Its log-prefactor T is of order 10^4 here,
        # so one rounding of T moves F by about 1e-12 of itself; the worst
        # observed terms past 1e-12 of the value are 1.7e-14 and 8.3e-13 of
        # the maximum.  C_d cancels to ~800 digits, more than zeroprec=1000
        # bits can tell from a zero.
        for n, l in ((1000, 500), (2000, 1000)):
            a0 = 1.0 / (n * n)
            x = np.linspace(0.0, 6.0 / (n * a0), 31)
            got = radial_momentum(QuantumNumbers(n, l), a0, x)
            want = np.array([float(_mp_momentum(n, l, a0, xi, zeroprec=10000))
                             for xi in x.tolist()])
            bound = 1e-12 * np.abs(want) + 2e-12 * np.abs(want).max()
            assert (np.abs(got - want) <= bound).all(), (n, l)
