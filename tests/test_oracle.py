import itertools
import math
import random
import re
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest

from hydrolens.hydrogenic import QuantumNumbers, radial_momentum, radial_position
from hydrolens.linear_entropy import angular_sum
from hydrolens.oracle import (
    QuadratureError,
    QuadratureSpec,
    _GL_NODES,
    _GL_WEIGHTS,
    _panels,
    _spherical_jn,
    angular_purity_exact,
    bessel_transform_radial,
    integrate,
    integrate_momentum,
    integrate_semi_infinite,
    integrate_theta,
    racah_3j,
)


# (integrand, a, b, exact value)
HONEST_CASES = [
    (lambda x: np.exp(-x * x), -8.0, 8.0, math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(abs(x)), -1.0, 1.0, 4.0 / 3.0),
    (lambda x: np.sin(40.0 * x), 0.0, 1.0, (1.0 - math.cos(40.0)) / 40.0),
]


def reference_integrate(spec, opened=None):
    """The depth-first bisection that integrate's levels replace, calling the
    integrand once per node with a float.  Returns (value, error, splits,
    depth), depth being the number of bisection levels it evaluated.  If
    opened is a list, opened[k] ends up counting the panels at depth k (the
    whole interval at 0) whose halves it evaluated."""
    nodes, weights = np.polynomial.legendre.leggauss(21)

    def panel(a, b):
        h = 0.5 * (b - a)
        x = 0.5 * (a + b) + h * nodes
        return h * float(np.sum(weights * np.array([spec.integrand(xi) for xi in x])))

    whole = panel(spec.a, spec.b)
    stack = [(spec.a, spec.b, whole, 1)]
    total = err = 0.0
    splits = depth = 0
    scale = max(abs(whole), 1e-300)
    while stack:
        a, b, coarse, level = stack.pop()
        depth = max(depth, level)
        if opened is not None:
            opened += [0] * (level - len(opened))
            opened[level - 1] += 1
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        delta = abs(left + right - coarse)
        if delta <= spec.rel_tol * scale:
            total += left + right
            err += delta
        else:
            if splits >= spec.max_subdivisions:
                raise QuadratureError("reference failed to converge", best=total, error=err)
            splits += 1
            stack.append((m, b, right, level + 1))
            stack.append((a, m, left, level + 1))
    return total, max(err, abs(total) * 1e-15), splits, depth


def spec_of(oracle_integral, *args):
    """The QuadratureSpec that oracle_integral(*args) hands to integrate."""
    seen = []
    with mock.patch("hydrolens.oracle.integrate", lambda spec: seen.append(spec) or (0.0, 0.0)):
        oracle_integral(*args)
    return seen[0]


def momentum_spec(f, n, a0):
    """The QuadratureSpec that integrate_momentum(f, n, a0) hands to integrate."""
    return spec_of(integrate_momentum, f, n, a0)


# Bisection levels per integrand call: one, and integrate's default of three.
LEVELS = (1, 3)


def momentum_integrands(qn, a0):
    """k^2 F^2, k^4 F^2 and k^2 F^4: the norm, <k^2> and the radial purity."""
    f = lambda k: radial_momentum(qn, a0, k)
    return (lambda k: k * k * f(k) ** 2, lambda k: k ** 4 * f(k) ** 2,
            lambda k: k * k * f(k) ** 4)


def mapped_specs():
    """The momentum and radial integrals of verify, and <k^4>, as integrate
    sees them, for a spread of states with n <= 12.  Each integrand binds its
    state as a default, since the specs are used after the loop has moved on."""
    for n, l in ((1, 0), (2, 1), (5, 0), (7, 3), (12, 0), (12, 6), (12, 11)):
        qn, a0 = QuantumNumbers(n, l), 1.0
        k4 = lambda k, qn=qn: k ** 6 * radial_momentum(qn, a0, k) ** 2
        for f in (*momentum_integrands(qn, a0), k4):
            yield momentum_spec(f, n, a0)
        yield QuadratureSpec(
            lambda t, qn=qn: (t / (1.0 - t)) ** 4 * radial_position(qn, a0, t / (1.0 - t)) ** 2
            / (1.0 - t) ** 2, 0.0, 1.0)


def from_roots(roots):
    """prod 2 (x - r) over the roots, in products and differences only."""
    def p(x):
        y = 1.0
        for r in roots:
            y = y * (2.0 * (x - r))
        return y
    return p


def test_spec_validation():
    for rel_tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(lambda x: x, rel_tol=rel_tol)
    with pytest.raises(ValueError):
        QuadratureSpec(lambda x: x, max_subdivisions=0)
    with pytest.raises(ValueError, match="at least one level"):
        integrate(QuadratureSpec(lambda x: x), levels=0)
    for a, b in ((1.0, 1.0), (1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            QuadratureSpec(lambda x: x, a, b)


def test_spec_refuses_an_interval_too_wide_for_floats():
    # b - a overflows: refused at construction, not reported later as an
    # interval too narrow for the panel rule.  So does a + b.
    for a, b in ((-1e308, 1e308), (1e308, 1.7e308)):
        with pytest.raises(ValueError, match=re.escape(f"overflows a float, got a={a}, b={b}")):
            QuadratureSpec(lambda x: x, a, b)
    assert math.isclose(integrate(QuadratureSpec(lambda x: np.ones_like(x), -8e307, 8e307))[0],
                        1.6e308, rel_tol=1e-14)


@pytest.mark.parametrize("result", [lambda x: 1.0, lambda x: x[:-1], lambda x: x[:, None]])
def test_integrand_of_the_wrong_shape_is_a_value_error(result):
    # One value per node: the first call of three levels has 15 panels of 21.
    with pytest.raises(ValueError, match=r"must return an array of shape \(315,\), one value per node"):
        integrate(QuadratureSpec(result))
    with pytest.raises(ValueError, match=r"shape \(401,\)"):
        integrate_semi_infinite(result)


def test_finite_polynomial_exact():
    val, err = integrate(QuadratureSpec(lambda x: x * x, 0.0, 3.0))
    assert math.isclose(val, 9.0, rel_tol=1e-14)
    assert err <= 1e-10


def test_semi_infinite_exponential():
    val, err = integrate_semi_infinite(lambda x: np.exp(-x))
    assert math.isclose(val, 1.0, rel_tol=1e-11)
    assert abs(val - 1.0) <= 10.0 * max(err, 1e-15)


def test_semi_infinite_scale():
    # int_0^inf e^(-x/c) dx = c, with no scale given, for extents far from 1.
    # A fixed scale of 1 would lose the mass between the nodes at c = 1e-30
    # and fail to converge at c = 1e30.
    for c in (1e-30, 1e-3, 0.5, 144.0, 1e4, 1e30):
        val, _ = integrate_semi_infinite(lambda x: np.exp(-x / c))
        assert math.isclose(val, c, rel_tol=1e-13), (c, val)


def test_semi_infinite_radial_moments():
    # int r^2 R^2 dr = 1 and int r^4 R^2 dr = n^2 (5 n^2 + 1 - 3 l (l + 1))/2
    # for every (n, l) with n <= 12, a0 = 1.
    for n in range(1, 13):
        for l in range(n):
            qn = QuantumNumbers(n, l)
            norm, _ = integrate_semi_infinite(lambda r: r * r * radial_position(qn, 1.0, r) ** 2)
            r2, _ = integrate_semi_infinite(lambda r: r ** 4 * radial_position(qn, 1.0, r) ** 2)
            assert math.isclose(norm, 1.0, rel_tol=1e-13), (n, l, norm)
            exact = n * n * (5 * n * n + 1 - 3 * l * (l + 1)) / 2.0
            assert math.isclose(r2, exact, rel_tol=1e-13), (n, l, r2, exact)


def test_semi_infinite_probe_warns_nothing():
    # The probe evaluates the integrand from 2^-200 to 2^200, where x^4
    # overflows and x^4 e^(-x) is inf * 0; none of numpy's warnings leak.
    qn = QuantumNumbers(12, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _ = integrate_semi_infinite(lambda x: x ** 4 * np.exp(-x))
        assert math.isclose(val, 24.0, rel_tol=1e-13)
        val, _ = integrate_semi_infinite(lambda r: r ** 4 * radial_position(qn, 1.0, r) ** 2)
        assert math.isclose(val, 144.0 * (5 * 144 + 1 - 3 * 11 * 12) / 2.0, rel_tol=1e-13)


def test_error_estimates_are_honest():
    # On integrals with known values the true error stays within 10x the
    # reported estimate (plus double-precision floor).
    cases = [
        (QuadratureSpec(f, a, b), truth) for f, a, b, truth in HONEST_CASES]
    for spec, truth in cases:
        val, err = integrate(spec)
        assert abs(val - truth) <= 10.0 * err + 1e-13 * abs(truth)


def test_non_convergence_raises_with_best_estimate():
    spec = QuadratureSpec(lambda x: np.sqrt(abs(x)), -1.0, 1.0,
                          rel_tol=1e-15, max_subdivisions=3)
    for levels in LEVELS:
        with pytest.raises(QuadratureError) as exc_info:
            integrate(spec, levels=levels)
        assert math.isclose(exc_info.value.best, 4.0 / 3.0, rel_tol=1e-3)


def test_non_finite_integrand_raises_at_once():
    # A nan or infinite panel value is named at the level where it appears,
    # not reported as non-convergence after the whole subdivision budget.
    for levels, bad in itertools.product(LEVELS, (math.nan, math.inf, -math.inf)):
        calls = []

        def f(x, bad=bad):
            calls.append(x.size)
            return np.where(x > 0.5, bad, x)

        with pytest.raises(QuadratureError, match=r"not finite on \[0\.0, 1\.0\]: panel value"):
            integrate(QuadratureSpec(f, 0.0, 1.0), levels=levels)
        assert len(calls) <= 2, bad


def test_matches_depth_first_reference():
    # Same panels accepted, same left-to-right sum: only the integrand's own
    # rounding on arrays against floats may differ.
    specs = [QuadratureSpec(f, a, b) for f, a, b, _ in HONEST_CASES] + list(mapped_specs())
    for levels, spec in itertools.product(LEVELS, specs):
        val, err = integrate(spec, levels=levels)
        ref_val, ref_err, _, _ = reference_integrate(spec)
        assert math.isclose(val, ref_val, rel_tol=1e-14), (val, ref_val)
        assert math.isclose(err, ref_err, rel_tol=1e-6, abs_tol=1e-15 * abs(val))


def test_gl_rule_constants_are_leggauss_bit_for_bit():
    # The oracle's rule is written out as literals; numpy.polynomial is
    # imported here only, to check that they are leggauss(21)'s own bits.
    nodes, weights = np.polynomial.legendre.leggauss(21)
    for table, ref in ((_GL_NODES, nodes), (_GL_WEIGHTS, weights)):
        assert table.dtype == np.float64 and table.shape == (21,)
        assert table.tobytes() == ref.tobytes()
    # Exactly antisymmetric nodes (+ 0.0 turns the negated middle -0.0 back
    # into 0.0) and symmetric weights.
    assert _GL_NODES.tobytes() == (-_GL_NODES[::-1] + 0.0).tobytes()
    assert _GL_WEIGHTS.tobytes() == _GL_WEIGHTS[::-1].tobytes()


def test_polynomial_bit_for_bit_with_reference():
    # Products and differences are the same IEEE operations on a float and an
    # array, so every panel, the splitting and the sum are the same bits.
    rng = random.Random(11)
    for degree in (60, 120, 240):
        spec = QuadratureSpec(from_roots([rng.uniform(-1.0, 1.0) for _ in range(degree)]))
        ref_val, ref_err, splits, depth = reference_integrate(spec)
        assert splits >= 3 and depth >= 3
        for levels in LEVELS:
            assert integrate(spec, levels=levels) == (ref_val, ref_err)


def test_one_integrand_call_per_level():
    specs = [QuadratureSpec(f, a, b) for f, a, b, _ in HONEST_CASES] + list(mapped_specs())
    for spec in specs:
        calls = []

        def counted(x, f=spec.integrand):
            calls.append(x.size)
            return f(x)

        integrate(QuadratureSpec(counted, spec.a, spec.b), levels=1)
        _, _, splits, depth = reference_integrate(spec)
        assert len(calls) <= depth + 1
        # The same nodes as the reference: the whole interval, its halves, and
        # the halves of both halves of each split.
        assert sum(calls) == 21 * (3 + 4 * splits)


def test_three_levels_per_integrand_call():
    # The first call evaluates the whole interval and the three levels below
    # it, 15 panels; each later one the 14 panels of the three levels below
    # each panel still open at depth 3, 6, ...
    specs = [QuadratureSpec(f, a, b) for f, a, b, _ in HONEST_CASES] + list(mapped_specs())
    for spec in specs:
        calls = []

        def counted(x, f=spec.integrand):
            calls.append(x.size)
            return f(x)

        integrate(QuadratureSpec(counted, spec.a, spec.b), levels=3)
        opened = []
        _, _, _, depth = reference_integrate(spec, opened)
        assert len(calls) <= math.ceil(depth / 3) + 1
        assert sum(calls) == 21 * (15 + 14 * sum(opened[3::3]))


def test_nan_below_an_accepted_panel_raises_nothing():
    # x^2 is exact on [0, 1], so the walk accepts the whole interval against
    # its halves and never reads the quarters and eighths that a call of
    # three levels evaluates with them.  A nan at the nodes of the eighth
    # [0, 1/8] alone goes unread.
    eighth = 0.0625 + 0.0625 * _GL_NODES
    nans = []

    def f(x):
        bad = np.isin(x, eighth)
        nans.append(int(bad.sum()))
        return np.where(bad, np.nan, x * x)

    one = integrate(QuadratureSpec(f, 0.0, 1.0), levels=1)
    assert nans == [0]
    assert integrate(QuadratureSpec(f, 0.0, 1.0), levels=3) == one
    assert nans[1:] == [21]


def test_look_ahead_stops_above_panels_too_narrow_for_the_rule():
    # [1, 1 + 1000 ulp]: its halves and quarters (250 ulps) are wide enough
    # for the rule's nodes, its eighths (125 ulps) are not.  A call of three
    # levels falls back to two, and then raises, or not, as one level does.
    a, b = 1.0, 1.0 + 1000 * math.ulp(1.0)
    assert len(_panels(lambda x: x, [a], [b], 4)) == 3
    kink = a + 333 * math.ulp(1.0)
    for f, raises in ((lambda x: x - 1.0, False), (lambda x: np.abs(x - kink), True)):
        outcomes = []
        for levels in LEVELS:
            calls = []

            def counted(x, f=f):
                calls.append(x.size)
                return f(x)

            try:
                outcomes.append(integrate(QuadratureSpec(counted, a, b), levels=levels))
            except QuadratureError as exc:
                outcomes.append((str(exc), exc.best, exc.error))
        assert calls[0] == 21 * 7  # the call of three levels: 1 + 2 + 4 panels
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0][0], str) == raises, outcomes
    assert outcomes[0][0] == "panel too narrow to split after 2 subdivisions"


def test_subdivision_budget_matches_reference():
    # The budget is spent by the same panels as in the depth-first order: it
    # converges with exactly the reference's number of splits, and one fewer
    # raises with a best estimate as good as the tolerance that was missed.
    spec = QuadratureSpec(lambda x: np.sqrt(abs(x)), -1.0, 1.0)
    ref_val, _, splits, _ = reference_integrate(spec)
    enough = QuadratureSpec(spec.integrand, -1.0, 1.0, max_subdivisions=splits)
    for levels in LEVELS:
        assert integrate(enough, levels=levels)[0] == ref_val
        with pytest.raises(QuadratureError) as exc_info:
            integrate(QuadratureSpec(spec.integrand, -1.0, 1.0, max_subdivisions=splits - 1),
                      levels=levels)
        assert math.isclose(exc_info.value.best, 4.0 / 3.0, rel_tol=1e-11)
        assert exc_info.value.error > 0


def test_panel_node_check_agrees_with_the_node_array():
    # Panels 1-64 ulps wide, whose outer nodes round onto an end, and 150-220
    # ulps wide, across the width at which they first lie strictly inside.
    # The check of the outer nodes must refuse a panel exactly when one of
    # the 21 nodes that numpy forms fails a < x < b, and then not call f.
    outcomes = set()
    for x0 in (0.0, 0.5, 1.0 - 2.0 ** -20, math.pi):
        ulp = math.ulp(x0)
        for width in [*range(1, 65), *range(150, 221)]:
            sides = [(x0, x0 + width * ulp)] + ([(x0 - width * ulp, x0)] if x0 else [])
            for a, b in sides:
                h = 0.5 * (np.array([b]) - np.array([a]))
                x = (0.5 * (np.array([a]) + np.array([b])))[:, None] + h[:, None] * _GL_NODES
                inside = bool(((a < x) & (x < b)).all())
                calls = []
                got = _panels(lambda t: calls.append(t) or np.ones_like(t), [a, 0.0], [b, 1.0])
                assert bool(got) == inside, (x0, width, a, b)
                assert len(calls) == inside
                outcomes.add(inside)
    assert outcomes == {True, False}


def test_too_narrow_panel_raises_with_best_estimate():
    # (1 + r)^(-3/2) dr behaves as (1 - t)^(-1/2) at t = 1 under the tangent
    # map.  Bisection reaches panels whose nodes round onto the endpoint; the
    # integrand must not be called there.  <k^4> of (1, 0) = 5, k^6 F^2 dk,
    # has no such endpoint: under the half-angle map it is a trigonometric
    # polynomial, and it converges.
    qn = QuantumNumbers(1, 0)
    k4 = momentum_spec(lambda k: k ** 6 * radial_momentum(qn, 1.0, k) ** 2, 1, 1.0)
    tail = spec_of(integrate_semi_infinite, lambda r: (1.0 + r) ** -1.5)
    for levels in LEVELS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, _ = integrate(k4, levels=levels)
            assert math.isclose(val, 5.0, rel_tol=1e-13)
            with pytest.raises(QuadratureError, match="too narrow") as exc_info:
                integrate(tail, levels=levels)
            assert math.isclose(exc_info.value.best, 2.0, rel_tol=1e-6)


def test_half_angle_map_closed_forms():
    # With c = n a0: int dk/(1 + (ck)^2) = pi/(2c), a constant in phi, and
    # int k^2/(1 + (ck)^2)^3 dk = pi/(16 c^3), sin^2(phi)/(16 c^3) in phi.
    for n in (1, 3, 12):
        for a0 in (1e-3, 0.7, 1.0, 1e3):
            c = n * a0
            val, _ = integrate_momentum(lambda k: 1.0 / (1.0 + (c * k) ** 2), n, a0)
            assert math.isclose(val, math.pi / (2.0 * c), rel_tol=1e-14), (n, a0)
            val, _ = integrate_momentum(lambda k: k * k / (1.0 + (c * k) ** 2) ** 3, n, a0)
            assert math.isclose(val, math.pi / (16.0 * c ** 3), rel_tol=1e-14), (n, a0)


def test_fourth_momentum_moment_closed_form():
    # <k^4> = int k^6 F^2 dk = (8n/(2l+1) - 3)/n^4 (Bethe & Salpeter), a0 = 1.
    for n in range(1, 13):
        for l in range(n):
            qn = QuantumNumbers(n, l)
            val, _ = integrate_momentum(
                lambda k: k ** 6 * radial_momentum(qn, 1.0, k) ** 2, n, 1.0)
            expect = (8.0 * n / (2 * l + 1) - 3.0) / n ** 4
            assert math.isclose(val, expect, rel_tol=1e-12), (n, l, val, expect)


def test_momentum_integrals_converge_in_few_levels():
    # Every momentum integrand of verify is a trigonometric polynomial under
    # the half-angle map, so bisection stops within a few levels: at most 6
    # integrand calls for each of the 234 integrals with n <= 12.
    for n in range(1, 13):
        for l in range(n):
            for f in momentum_integrands(QuantumNumbers(n, l), 1.0):
                spec = momentum_spec(f, n, 1.0)
                calls = []

                def counted(x, g=spec.integrand):
                    calls.append(x.size)
                    return g(x)

                integrate(QuadratureSpec(counted, spec.a, spec.b))
                assert len(calls) <= 6, (n, l, len(calls))


def gegenbauer(alpha, n, x):
    """C^alpha_n(x) by the three-term recurrence in degree, for the quadrature
    tests below."""
    c_prev, c = 0.0, np.ones_like(x)
    for j in range(n):
        c, c_prev = (2.0 * (j + alpha) * x * c - (j + 2.0 * alpha - 1.0) * c_prev) / (j + 1), c
    return c


def test_gegenbauer_orthogonality_closed_form():
    # int_{-1}^{1} (1-x^2)^{alpha - 1/2} [C^alpha_n]^2 dx
    #   = pi 2^{1-2 alpha} Gamma(n + 2 alpha) / (n! (n + alpha) Gamma(alpha)^2)
    for alpha, n in [(2.0, 1), (1.0, 3), (3.0, 2)]:
        val, _ = integrate(QuadratureSpec(
            lambda x: (1 - x * x) ** (alpha - 0.5) * gegenbauer(alpha, n, x) ** 2,
            -1.0, 1.0))
        expect = (math.pi * 2.0 ** (1 - 2 * alpha) * math.gamma(n + 2 * alpha)
                  / (math.factorial(n) * (n + alpha) * math.gamma(alpha) ** 2))
        assert math.isclose(val, expect, rel_tol=1e-10), (alpha, n)
        # Different degrees are orthogonal.
        cross, _ = integrate(QuadratureSpec(
            lambda x: (1 - x * x) ** (alpha - 0.5)
            * gegenbauer(alpha, n, x) * gegenbauer(alpha, n + 2, x), -1.0, 1.0))
        assert abs(cross) <= 1e-10 * expect


def test_momentum_domain_gegenbauer_weighted():
    # The half-angle momentum integral reproduces the same orthogonality
    # closed form when the integrand is assembled from the weight explicitly.
    n_qn, a0, alpha, deg = 3, 1.0, 2.0, 1

    def f(k):
        u = (n_qn * a0 * k) ** 2
        x = (u - 1.0) / (u + 1.0)
        # convert dk back to dx through the jacobian: multiply by (1-x^2)/k
        return (1 - x * x) ** (alpha - 0.5) * gegenbauer(alpha, deg, x) ** 2 \
            * (1.0 - x * x) / k

    val, _ = integrate_momentum(f, n_qn, a0)
    expect = (math.pi * 2.0 ** (1 - 2 * alpha) * math.gamma(deg + 2 * alpha)
              / (math.factorial(deg) * (deg + alpha) * math.gamma(alpha) ** 2))
    assert math.isclose(val, expect, rel_tol=1e-10)


def test_theta_quadrature():
    seen = set()

    def g(t):
        seen.add(type(t))
        return math.sin(t)

    assert math.isclose(integrate_theta(g), 2.0, rel_tol=1e-12)
    assert seen == {float}


def test_bessel_transform_ground_state():
    qn = QuantumNumbers(1, 0, 0)
    assert math.isclose(bessel_transform_radial(qn, 1.0, 1.0),
                        math.sqrt(2.0 / math.pi), rel_tol=1e-10)


def test_bessel_transform_zero_wavevector():
    assert bessel_transform_radial(QuantumNumbers(2, 1, 0), 1.0, 0.0) == 0.0


def test_bessel_transform_rejects_a_bad_wavevector():
    for k in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="wavevector"):
            bessel_transform_radial(QuantumNumbers(1, 0, 0), 1.0, k)


@pytest.mark.parametrize("n", [-1, 0, math.inf, 2.5, 2.0, True, "2", None])
def test_integrate_momentum_requires_a_positive_integer_n(n):
    # n = -1 gave -0.886 for the positive int e^(-k^2) dk, n = inf (0.0, 0.0)
    # and n = 0 a bare ZeroDivisionError.
    with pytest.raises(ValueError, match=re.escape(f"got n={n!r}")):
        integrate_momentum(lambda k: np.exp(-k * k), n, 1.0)


def test_integrate_momentum_takes_a_numpy_integer_n():
    f = lambda k: np.exp(-k * k)
    assert integrate_momentum(f, np.int64(3), 1.0) == integrate_momentum(f, 3, 1.0)
    assert math.isclose(integrate_momentum(f, 3, 1.0)[0], math.sqrt(math.pi) / 2.0,
                        rel_tol=1e-13)


@pytest.mark.parametrize("a0", [0.0, -1.0, math.nan, math.inf])
def test_bad_a0_is_a_value_error(a0):
    with pytest.raises(ValueError, match="a0 must be finite and positive"):
        bessel_transform_radial(QuantumNumbers(1, 0), a0, 1.0)
    with pytest.raises(ValueError, match="a0 must be finite and positive"):
        integrate_momentum(lambda k: k * k, 1, a0)


def _mp_spherical_jn(l, x):
    x = mpmath.mpf(x)
    return mpmath.besselj(l + mpmath.mpf(0.5), x) * mpmath.sqrt(mpmath.pi / (2 * x))


def test_spherical_jn_against_mpmath():
    # The x range covers what the Bessel-transform checks ask for (x <= 372
    # at l <= 199), and x = l +- 1e-9 straddles the switch between the two
    # recurrences.  Near the zeros of j_0 (pi, 2 pi) and of j_1 (4.4934...)
    # the normalisation must lean on the other one.  The bound is relative
    # to |j_l| below x = l, where j_l has no zeros, and to the envelope 1/x
    # above it; a value below the normal float range carries fewer digits,
    # so the envelope is floored at the smallest normal float.
    j1_zero = 4.493409457909064
    with mpmath.workdps(50):
        for l in (0, 1, 2, 5, 11, 50, 100, 199):
            xs = np.concatenate((np.geomspace(1e-3, 400.0, 121),
                                 [l + 1e-9, l - 1e-9, math.pi, 2 * math.pi, j1_zero]))
            xs = xs[xs > 0.0]
            for x, got in zip(xs.tolist(), _spherical_jn(l, xs).tolist()):
                want = _mp_spherical_jn(l, x)
                envelope = abs(want) if x <= l else 1.0 / mpmath.mpf(x)
                bound = 1e-13 * max(envelope, sys.float_info.min)
                assert abs(got - want) <= bound, (l, x, got, want)
    # j_l(0) is 1 for l = 0 and 0 otherwise, also beside x > 0 in one array.
    for l in (0, 1, 2, 5, 199):
        assert _spherical_jn(l, np.array([0.0, 1.0, 0.0]))[::2].tolist() == [float(l == 0)] * 2


def test_racah_trivial_and_selection():
    assert racah_3j(0, 0, 0, 0, 0, 0).square == 1
    assert racah_3j(0, 0, 0, 0, 0, 0).sign == 1
    assert racah_3j(1, 1, 5, 0, 0, 0).sign == 0
    with pytest.raises(ValueError):
        racah_3j(21, 21, 21, 0, 0, 0)


def test_racah_agrees_with_library_path():
    # The float 3-j chain of the angular purity against the same sum with
    # each term from the Racah formula in exact rationals, for every (l, m)
    # with l <= 10 (l' = 2l reaches the oracle's bound 20).
    for l in range(0, 11):
        for m in range(-l, l + 1):
            exact = float(angular_purity_exact(l, m)) / (4 * math.pi)
            assert math.isclose(angular_sum(l, m), exact, rel_tol=1e-15), (l, m)


def test_angular_purity_exact_rejects_invalid_degree_and_order():
    for l, m in ((-1, 0), (1, 2), (2, -3)):
        with pytest.raises(ValueError, match=f"l={l}, m={m}"):
            angular_purity_exact(l, m)


def test_racah_nonzero_example_matches():
    # Stretched case: (j1 j2 J; m1 m2 -M)^2 with J = j1 + j2 is
    # (2j1)! (2j2)! (J+M)! (J-M)! / ((2J+1)! (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)!).
    value = racah_3j(2, 2, 4, 1, 1, -2)
    assert value.square == Fraction(4, 63)
    assert value.sign == 1
