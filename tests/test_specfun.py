import math

import numpy as np
import pytest

from hydrolens.specfun import gegenbauer, spherical_harmonic_sq

# Degrees for the large-l checks: every l <= 12 and spot degrees past the
# l + |m| = 171 at which (l + |m|)! overflows a float.
LARGE_L = list(range(13)) + [40, 80, 149, 199]


def test_spherical_harmonic_sq_values():
    # |Y^0_0|^2 = 1/(4 pi) everywhere; |Y^0_1|^2 = 3 cos^2/(4 pi).
    for theta in (0.0, 0.7, math.pi / 2, 2.5):
        assert math.isclose(spherical_harmonic_sq(0, 0, theta), 1 / (4 * math.pi))
        assert math.isclose(spherical_harmonic_sq(1, 0, theta),
                            3 * math.cos(theta) ** 2 / (4 * math.pi), abs_tol=1e-16)
    # The explicit l = 1, 2 forms for m != 0, and l = 2, m = 0.
    for theta in (0.0, 0.4, 1.3, math.pi / 2, 2.2, math.pi):
        c, s = math.cos(theta), math.sin(theta)
        expected = {
            (1, 1): 3 * s ** 2 / (8 * math.pi),
            (2, 0): 5 * (3 * c * c - 1) ** 2 / (16 * math.pi),
            (2, 1): 15 * s * s * c * c / (8 * math.pi),
            (2, 2): 15 * s ** 4 / (32 * math.pi),
        }
        for (l, m), want in expected.items():
            for sign in (1, -1):
                got = spherical_harmonic_sq(l, sign * m, theta)
                assert isinstance(got, float)
                assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-16), (l, m, theta)
    # m and -m give the same magnitude.
    assert math.isclose(spherical_harmonic_sq(3, 2, 1.1), spherical_harmonic_sq(3, -2, 1.1))
    with pytest.raises(ValueError):
        spherical_harmonic_sq(1, 2, 0.5)


def test_spherical_harmonic_sq_unsold_identity():
    # sum_m |Y^m_l|^2 = (2l+1)/(4 pi) at every theta (Unsold's theorem).
    theta = np.linspace(0.0, math.pi, 61)
    for l in LARGE_L + [171]:
        total = sum(spherical_harmonic_sq(l, m, theta) for m in range(-l, l + 1))
        assert total.shape == theta.shape
        np.testing.assert_allclose(total, (2 * l + 1) / (4 * math.pi), rtol=1e-12, err_msg=str(l))
    # Past the old factorial overflow at l + |m| = 171.
    assert math.isfinite(spherical_harmonic_sq(171, 0, 0.3))
    assert math.isfinite(spherical_harmonic_sq(149, 149, 1.0))
    # An array theta gives an array of its shape, equal to the scalar calls.
    grid = np.array([[0.1, 0.7], [1.9, 3.0]])
    values = spherical_harmonic_sq(7, -3, grid)
    assert values.shape == grid.shape
    scalars = [[spherical_harmonic_sq(7, -3, t) for t in row] for row in grid.tolist()]
    np.testing.assert_allclose(values, scalars, rtol=1e-14)


def test_gegenbauer_low_degrees():
    for x in (-0.8, 0.0, 0.3, 1.0):
        for alpha in (1.0, 2.5):
            assert gegenbauer(alpha, 0, x) == 1.0
            assert math.isclose(gegenbauer(alpha, 1, x), 2 * alpha * x, abs_tol=1e-15)
            assert math.isclose(gegenbauer(alpha, 2, x),
                                2 * alpha * (alpha + 1) * x * x - alpha, abs_tol=1e-14)


def test_gegenbauer_array_matches_scalar_calls():
    grid = np.array([[-1.0, -0.3], [0.45, 1.0]])
    for alpha, n in ((1.0, 0), (1.0, 1), (2.5, 7), (101.0, 99)):
        values = gegenbauer(alpha, n, grid)
        assert values.shape == grid.shape
        assert (values == [[gegenbauer(alpha, n, x) for x in row] for row in grid.tolist()]).all()
        for x in (0.45, np.float64(0.45), np.array(0.45)):
            got = gegenbauer(alpha, n, x)
            assert type(got) is float and got == gegenbauer(alpha, n, 0.45)


def test_gegenbauer_invalid_args():
    with pytest.raises(ValueError):
        gegenbauer(0.0, 1, 0.5)
    with pytest.raises(ValueError):
        gegenbauer(1.0, -1, 0.5)
