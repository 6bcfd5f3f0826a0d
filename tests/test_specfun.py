import math

import numpy as np
import pytest

from hydrolens.specfun import _sectoral_seed, spherical_harmonic_sq

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
    for l in LARGE_L + [171]:
        for theta in np.linspace(0.0, math.pi, 61).tolist():
            total = sum(spherical_harmonic_sq(l, m, theta) for m in range(-l, l + 1))
            assert math.isclose(total, (2 * l + 1) / (4 * math.pi), rel_tol=1e-12), (l, theta)
    # Past the old factorial overflow at l + |m| = 171.
    assert math.isfinite(spherical_harmonic_sq(171, 0, 0.3))
    assert math.isfinite(spherical_harmonic_sq(149, 149, 1.0))


def _inline_seed_recurrence(l, m, theta):
    """spherical_harmonic_sq with its seed product formed on every call."""
    m = abs(m)
    x, s = math.cos(theta), math.sin(theta)
    seed = (2 * m + 1) / (4.0 * math.pi) * math.prod(
        (2 * i - 1) / (2 * i) for i in range(1, m + 1))
    y, y_prev, a_prev = math.sqrt(seed) * s ** m, 0.0, 1.0
    for k in range(m + 1, l + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        y, y_prev, a_prev = a * (x * y - y_prev / a_prev), y, a
    return y * y


def test_seed_cache_keeps_the_bits():
    # The seed cached per |m| gives the bits of the product formed inline,
    # and the cache holds one entry per |m|.
    _sectoral_seed.cache_clear()
    for m in range(201):
        for l in range(m, m + 41):
            sign = -1 if l % 2 else 1
            got = spherical_harmonic_sq(l, sign * m, 0.7)
            assert got.hex() == _inline_seed_recurrence(l, m, 0.7).hex(), (l, m)
    assert _sectoral_seed.cache_info().currsize <= 201


def test_normalisation_past_seed_underflow():
    # At (l, m) = (3126, 1042) the seed sin^m(theta) underflows for every
    # theta below 0.511, inside the classically allowed region that starts at
    # arcsin(m/(l+1/2)) = 0.340.  The scaled seed keeps |Y|^2 there, so
    # 2 pi int |Y|^2 sin(theta) dtheta is 1.  The trapezoid rule on 4000
    # intervals, folded about pi/2 where the integrand is symmetric, takes it
    # to rounding (2000 intervals are 7e-3 off, 8000 agree to 1e-14).
    l, m, intervals = 3126, 1042, 4000
    h = math.pi / intervals
    half = math.fsum(spherical_harmonic_sq(l, m, j * h) * math.sin(j * h)
                     for j in range(1, intervals // 2))
    total = 2 * math.pi * h * (2 * half + spherical_harmonic_sq(l, m, math.pi / 2))
    assert abs(total - 1.0) < 1e-6
    # Inside the region the values are of order one, and equal for m and -m.
    assert spherical_harmonic_sq(l, m, 0.35) > 0.2
    assert spherical_harmonic_sq(l, -m, 0.35) == spherical_harmonic_sq(l, m, 0.35)
    # At a pole every m != 0 harmonic vanishes.
    assert spherical_harmonic_sq(l, m, 0.0) == 0.0
