import math
from fractions import Fraction

import numpy as np
import pytest

from hydrolens.gaussian_ppt import (
    DECOUPLED,
    CovarianceMatrix,
    blind_band_edges,
    build_covariance,
    detection_map,
    partial_transpose,
    ppt_closed_form,
    ppt_numeric,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_transform,
)
from hydrolens.hydrogenic import QuantumNumbers
from hydrolens.moments import moment_set

GROUND = QuantumNumbers(1, 0, 0)
ALL_STATES_N4 = [QuantumNumbers(n, l, m)
                 for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]
RATIOS = (0.3, 0.8, 1.0, 1.5, 2.5)


def test_symplectic_form_squares_to_minus_identity():
    om = symplectic_form()
    assert np.array_equal(om @ om, -np.eye(12))


def test_transform_is_symplectic():
    s = symplectic_transform()
    om = symplectic_form()
    assert np.allclose(s @ om @ s.T, om, atol=1e-14)


def test_covariance_requires_shape_and_symmetry():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.eye(4))
    bad = np.eye(12)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        CovarianceMatrix(bad)


def test_partial_transpose_involution_and_basis_guard():
    sigma = build_covariance(moment_set(QuantumNumbers(2, 1, 0), 1.2))
    back = partial_transpose(partial_transpose(sigma))
    assert np.allclose(back.matrix, sigma.matrix, atol=0)
    assert np.allclose(np.diag(partial_transpose(sigma).matrix),
                       np.diag(sigma.matrix), atol=0)
    with pytest.raises(ValueError):
        partial_transpose(CovarianceMatrix(np.eye(12), basis=DECOUPLED))


def test_ground_state_closed_form_values():
    v = ppt_closed_form(GROUND, 1.0)
    # a0/(sqrt 2 b) and sqrt(8/3) b/a0 at ratio 1.
    assert math.isclose(v.nu[0], 1.0 / math.sqrt(2.0), rel_tol=1e-14)
    assert math.isclose(v.nu[1], math.sqrt(8.0 / 3.0), rel_tol=1e-14)
    assert v.nu[0] == v.nu[2] == v.nu[4]
    assert v.nu[1] == v.nu[3] == v.nu[5]
    assert v.detected


def test_exact_threshold_is_not_detected():
    # min nu == 1 exactly classifies as not detected (strict inequality).
    from hydrolens.gaussian_ppt import PPTVerdict
    v = PPTVerdict(qn=GROUND, a0_over_b=1.0, nu=(1.0,) * 6)
    assert not v.detected
    assert v.min_nu == 1.0


def test_pipeline_matches_closed_form():
    for qn in ALL_STATES_N4:
        for ratio in RATIOS:
            numeric = ppt_numeric(qn, ratio).nu
            closed = sorted(ppt_closed_form(qn, ratio).nu)
            for a, b in zip(numeric, closed):
                assert abs(a - b) <= 1e-10, (qn, ratio)


def test_untransposed_state_is_physical():
    for qn in ALL_STATES_N4:
        for ratio in RATIOS:
            nu = symplectic_eigenvalues(build_covariance(moment_set(qn, ratio)))
            assert np.all(nu >= 1.0 - 1e-12), (qn, ratio)
            # Three centre-of-mass modes sit exactly at the vacuum threshold.
            assert np.sum(np.abs(nu - 1.0) <= 1e-12) >= 3, (qn, ratio)


def _bisected_band(qn, lo=1e-3, hi=1e3, tol=1e-12):
    """Oracle: the crossings of min nu through 1, found by a geometric scan of
    [lo, hi] and a bisection on each side of the scan's maximum."""
    f = lambda r: ppt_closed_form(qn, r).min_nu - 1.0
    ratios = np.geomspace(lo, hi, 4096)
    vals = np.array([f(r) for r in ratios])
    imax = int(np.argmax(vals))
    if vals[imax] < 0:
        return None

    def bisect(a, b):
        fa = f(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = f(m)
            if b - a < tol:
                break
            if (fa < 0) == (fm < 0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    left = bisect(ratios[max(imax - 1, 0)] if vals[max(imax - 1, 0)] < 0 else lo, ratios[imax])
    right = bisect(ratios[imax], ratios[min(imax + 1, len(ratios) - 1)]
                   if vals[min(imax + 1, len(ratios) - 1)] < 0 else hi)
    return left, right


def _exact_band(qn):
    """Band edges from exact rational moments: <r^2> = n^2 (5n^2 + 1 - 3l(l+1))/2,
    <k^2> = 1/n^2 and the angular factors; both edges use the smallest factor."""
    n, l, m = qn.n, qn.l, qn.m
    r2 = Fraction(n * n * (5 * n * n + 1 - 3 * l * (l + 1)), 2)
    f_perp = Fraction(l * l + l + m * m - 1, (2 * l - 1) * (2 * l + 3))
    f_z = Fraction(1 - 2 * l * l - 2 * l + 2 * m * m, 3 - 4 * l * l - 4 * l)
    lo2 = 2 / (r2 * min(f_perp, f_z))
    hi2 = 8 * min(f_perp, f_z) / (n * n)
    return None if lo2 >= hi2 else (math.sqrt(lo2), math.sqrt(hi2))


def _same_band(got, want, rel_tol):
    if got is None or want is None:
        return got is None and want is None
    return all(math.isclose(g, w, rel_tol=rel_tol) for g, w in zip(got, want))


def test_blind_band_edges_ground_state():
    lo, hi = blind_band_edges(GROUND)
    assert math.isclose(lo, math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(hi, math.sqrt(8.0 / 3.0), rel_tol=1e-15)
    assert type(lo) is float and type(hi) is float


def test_blind_band_edges_match_exact_rationals():
    # The three large-n states have lower edges below 1e-3.
    states = [QuantumNumbers(n, l, m)
              for n in range(1, 13) for l in range(n) for m in range(-l, l + 1)]
    states += [QuantumNumbers(40, 0, 0), QuantumNumbers(60, 0, 0), QuantumNumbers(100, 50, 0)]
    for qn in states:
        assert _same_band(blind_band_edges(qn), _exact_band(qn), 1e-12), qn


def test_blind_band_edges_match_bisection():
    for qn in ALL_STATES_N4:
        if qn.n <= 3:
            assert _same_band(blind_band_edges(qn), _bisected_band(qn), 1e-9), qn


def test_inside_blind_band_not_detected():
    assert not ppt_closed_form(GROUND, 1.5).detected
    assert ppt_closed_form(GROUND, 1.0).detected
    assert ppt_closed_form(GROUND, 2.0).detected


def test_detection_map_grid_order_and_values():
    rows = detection_map(GROUND, (1.0, 2.0), (1.0, 2.0), 2)
    assert len(rows) == 4
    # Row-major: a0 outer, b inner.
    assert [(r[0], r[1]) for r in rows] == [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]
    for r in rows:
        v = ppt_closed_form(GROUND, r[0] / r[1])
        assert math.isclose(r[6], v.min_nu, rel_tol=1e-14)
    assert all(r[7] for r in rows)
    # One state per n, on ranges whose a0/b spans [1e-4, 1e4].
    for n in range(1, 13):
        qn = QuantumNumbers(n, n // 2, -(n // 3))
        for a0_range, b_range in (((1e-2, 1e2), (1e-2, 1e2)),
                                  ((1e2, 1e-2), (3e-1, 7e1)),
                                  ((1e-4, 1e-4), (1.0, 1e-8))):
            rows = detection_map(qn, a0_range, b_range, 7)
            a0s = np.linspace(*a0_range, 7)
            bs = np.linspace(*b_range, 7)
            assert [(r[0], r[1]) for r in rows] == [(a0, b) for a0 in a0s for b in bs]
            for r in rows:
                assert all(type(v) is float for v in r[:7]) and type(r[7]) is bool
                v = ppt_closed_form(qn, r[0] / r[1])
                assert r == (r[0], r[1], v.nu[0], v.nu[1], v.nu[4], v.nu[5],
                             v.min_nu, v.detected), (qn, r)


def test_detection_map_thread_cap_stable(monkeypatch):
    base = detection_map(GROUND, (0.5, 3.0), (0.5, 3.0), 4)
    monkeypatch.setenv("HYDROLENS_THREADS", "5")
    threaded = detection_map(GROUND, (0.5, 3.0), (0.5, 3.0), 4)
    assert base == threaded


def test_detection_map_bad_thread_cap(monkeypatch):
    monkeypatch.setenv("HYDROLENS_THREADS", "zero")
    with pytest.raises(ValueError):
        detection_map(GROUND, (1.0, 2.0), (1.0, 2.0), 2)
    monkeypatch.setenv("HYDROLENS_THREADS", "0")
    with pytest.raises(ValueError):
        detection_map(GROUND, (1.0, 2.0), (1.0, 2.0), 2)


def test_detection_map_validation():
    with pytest.raises(ValueError):
        detection_map(GROUND, (1.0, 2.0), (1.0, 2.0), 1)
    with pytest.raises(ValueError):
        detection_map(GROUND, (0.0, 2.0), (1.0, 2.0), 2)


def test_closed_form_rejects_bad_ratio():
    with pytest.raises(ValueError):
        ppt_closed_form(GROUND, 0.0)
