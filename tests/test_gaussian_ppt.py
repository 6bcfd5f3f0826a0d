import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import hydrolens.gaussian_ppt as gaussian_ppt
from hydrolens.gaussian_ppt import (
    _edge,
    _particle_block,
    _split,
    _two_mode_nu,
    blind_band_edges,
    detection_map,
    ppt_closed_form,
    ppt_numeric,
)
from hydrolens.hydrogenic import QuantumNumbers
from hydrolens.moments import com_moments, relative_moments

GROUND = QuantumNumbers(1, 0, 0)
ALL_STATES_N4 = [QuantumNumbers(n, l, m)
                 for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]
RATIOS = (0.3, 0.8, 1.0, 1.5, 2.5)
ALL_STATES_N12 = [QuantumNumbers(n, l, m)
                  for n in range(1, 13) for l in range(n) for m in range(-l, l + 1)]
RYDBERG = (QuantumNumbers(200, 0, 0), QuantumNumbers(200, 199, 199), QuantumNumbers(100, 50, 0))


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


def _rel_err(numeric, closed):
    return max(abs(a - b) / b for a, b in zip(numeric, sorted(closed)))


def test_pipeline_matches_closed_form():
    for qn in ALL_STATES_N4:
        for ratio in RATIOS:
            assert _rel_err(ppt_numeric(qn, ratio).nu, ppt_closed_form(qn, ratio).nu) <= 1e-13, \
                (qn, ratio)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_STATES_N12), st.floats(-4.0, 4.0))
def test_pipeline_matches_closed_form_whole_domain(qn, log_ratio):
    ratio = 10.0 ** log_ratio
    assert _rel_err(ppt_numeric(qn, ratio).nu, ppt_closed_form(qn, ratio).nu) <= 1e-13


def _fraction_particle_block(q2, p2, X2, P2):
    """Reference: the particle-basis block in exact Fraction arithmetic."""
    q2, p2, X2, P2 = (Fraction(v) for v in (q2, p2, X2, P2))
    return 2 * X2 + q2 / 2, P2 / 2 + 2 * p2, 2 * X2 - q2 / 2, P2 / 2 - 2 * p2


def _fraction_two_mode_nu(a_q, a_p, c_q, c_p):
    """Reference: (nu_-, nu_+) from Fraction invariants, each rounded once."""
    delta = 2 * (a_q * a_p + c_q * c_p)
    det = (a_q * a_q - c_q * c_q) * (a_p * a_p - c_p * c_p)
    nu_plus2 = float(delta / 2) * (1.0 + math.sqrt(1 - 4 * det / (delta * delta)))
    return math.sqrt(float(det / Fraction(nu_plus2))), math.sqrt(nu_plus2)


def _fraction_numeric(qn, ratio):
    x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
    X2, P2 = com_moments(ratio)
    nu = []
    for q2, p2 in ((x2, px2), (y2, py2), (z2, pz2)):
        a_q, a_p, c_q, c_p = _fraction_particle_block(q2, p2, X2, P2)
        nu.extend(_fraction_two_mode_nu(a_q, a_p, c_q, -c_p))
    return tuple(sorted(nu))


def test_numeric_equals_fraction_reference():
    # Integer arithmetic on one power-of-two scale gives the same bits as the
    # Fraction reference: every state with n <= 12 on the ppt_point ratios,
    # and Rydberg states at the ends of the ratio range.
    queries = [(qn, 10.0 ** (-4 + j / 2)) for qn in ALL_STATES_N12 for j in range(17)]
    queries += [(qn, ratio) for qn in RYDBERG for ratio in (1e-100, 1e100)]
    for qn, ratio in queries:
        assert ppt_numeric(qn, ratio).nu == _fraction_numeric(qn, ratio), (qn, ratio)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_STATES_N12 + list(RYDBERG)), st.floats(-100.0, 100.0))
def test_numeric_equals_fraction_reference_whole_ratio_range(qn, log_ratio):
    ratio = 10.0 ** log_ratio
    assert ppt_numeric(qn, ratio).nu == _fraction_numeric(qn, ratio)


def test_numeric_solves_each_distinct_axis_once(monkeypatch):
    # y always repeats x; z does too where f_perp = 1/3: l = 0, and l = 3 with
    # m = +-2, the only such states with n <= 12.
    calls = []

    def counting_two_mode_nu(*block):
        calls.append(block)
        return _two_mode_nu(*block)

    monkeypatch.setattr(gaussian_ppt, "_two_mode_nu", counting_two_mode_nu)
    for qn in ALL_STATES_N12:
        isotropic = qn.l == 0 or (qn.l == 3 and abs(qn.m) == 2)
        for ratio in (1e-4, 1.0, 1e4):
            calls.clear()
            assert ppt_numeric(qn, ratio).nu == _fraction_numeric(qn, ratio), (qn, ratio)
            assert len(calls) == (1 if isotropic else 2), (qn, ratio)


def test_pipeline_at_rydberg_states_and_extreme_ratios():
    for qn in RYDBERG:
        for ratio in (1e-100, 1.0, 1e100):
            assert _rel_err(ppt_numeric(qn, ratio).nu, ppt_closed_form(qn, ratio).nu) <= 1e-13, \
                (qn, ratio)


def _untransposed_nu(qn, ratio):
    """The six eigenvalues of the particle-basis blocks before the partial
    transpose, i.e. with c_p unflipped."""
    x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
    X2, P2 = com_moments(ratio)
    nu = []
    for q2, p2 in ((x2, px2), (y2, py2), (z2, pz2)):
        nu.extend(_two_mode_nu(*_particle_block(
            *_split(q2), *_split(p2), *_split(X2), *_split(P2))))
    return np.array(nu)


def test_untransposed_state_is_physical():
    # A non-canonical particle-basis transform would break the centre-of-mass
    # modes' exact vacuum value.
    for qn in ALL_STATES_N4:
        for ratio in RATIOS:
            nu = _untransposed_nu(qn, ratio)
            assert np.all(nu >= 1.0 - 1e-12), (qn, ratio)
            # Three centre-of-mass modes sit exactly at the vacuum threshold.
            assert np.sum(np.abs(nu - 1.0) <= 1e-12) >= 3, (qn, ratio)


def test_two_mode_nu_rejects_non_physical_blocks():
    # Negative det, negative Delta, and -I, whose det and Delta are positive.
    for block in ((1, 1, 2, 0), (-1, 1, 0, 0), (-1, -1, 0, 0)):
        with pytest.raises(ValueError):
            _two_mode_nu(*block, 0)
    # Scaled integers beyond 2^1024, which float() could not convert: the
    # message still gives each entry's value.
    e = 1100
    with pytest.raises(ValueError, match="a_q = 1, c_q = 2, a_p = 1, c_p = 0"):
        _two_mode_nu(1 << e, 1 << e, 2 << e, 0, e)


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


@pytest.mark.parametrize("n", [10 ** 16, 10 ** 17, 10 ** 18, 10 ** 20, 10 ** 25])
def test_blind_band_is_none_where_lo_rounds_to_hi(n):
    # Exactly lo < hi, but (hi/lo)^2 - 1 is about 1/(2n) at l = m = n - 1, so
    # at these n the rounded lo reaches hi, or (n = 1e18) no float between
    # them is undetected.  None agrees with the verdicts: every float within
    # 6 ulps of lo is detected.
    qn = QuantumNumbers(n, n - 1, n - 1)
    assert blind_band_edges(qn) is None
    x2, y2, z2, *_ = relative_moments(qn)
    ratio = math.sqrt(2.0 / min(x2, y2, z2))
    for _ in range(6):
        ratio = math.nextafter(ratio, 0.0)
    for _ in range(13):
        assert ppt_closed_form(qn, ratio).detected, ratio
        ratio = math.nextafter(ratio, math.inf)


def _floats_around(x, k):
    """The 2k + 1 floats from k ulps below x to k above, ascending."""
    for _ in range(k):
        x = math.nextafter(x, 0.0)
    out = [x]
    for _ in range(2 * k):
        out.append(math.nextafter(out[-1], math.inf))
    return out


def test_blind_band_agrees_with_the_verdict_at_every_float_near_its_edges():
    # 650 states, 33 floats at each edge: ppt_closed_form is detected exactly
    # outside the band.
    for n in range(1, 13):
        for l in range(n):
            for m in range(-l, l + 1):
                qn = QuantumNumbers(n, l, m)
                lo, hi = blind_band_edges(qn)
                for ratio in _floats_around(lo, 16) + _floats_around(hi, 16):
                    assert ppt_closed_form(qn, ratio).detected == (not lo <= ratio <= hi), \
                        (qn, ratio)


@pytest.mark.parametrize("n", [10 ** 15, 10 ** 19, 10 ** 30])
def test_blind_band_of_one_float(n):
    # At l = m = n - 1 the exact band is narrower than a few ulps; here one
    # float is not detected, and its neighbours are.
    qn = QuantumNumbers(n, n - 1, n - 1)
    lo, hi = blind_band_edges(qn)
    assert lo == hi
    below, at, above = _floats_around(lo, 1)
    assert [ppt_closed_form(qn, r).detected for r in (below, at, above)] == [True, False, True]


def test_blind_band_edge_outside_the_ratio_range_is_its_closed_form():
    # At n = 1e55, l = 0, lo = sqrt(2/<q^2>) is below 1e-100, where no verdict
    # exists, so it is the unstepped closed form; hi is where the verdict flips.
    qn = QuantumNumbers(10 ** 55, 0, 0)
    lo, hi = blind_band_edges(qn)
    assert (lo, hi) == (1.549193338482967e-110, 1.632993161855452e-55)
    x2, *_ = relative_moments(qn)
    assert lo == math.sqrt(2.0 / x2)
    assert not ppt_closed_form(qn, hi).detected
    assert ppt_closed_form(qn, math.nextafter(hi, math.inf)).detected


@pytest.mark.parametrize("qn", [GROUND, QuantumNumbers(3, 2, 1), QuantumNumbers(7, 3, -2)])
def test_edge_steps_in_from_the_failing_side(qn):
    # From 5 ulps beyond each edge, where the verdict fails, _edge steps
    # inward to the float where it flips: blind_band_edges' edge.
    lo, hi = blind_band_edges(qn)
    for edge, outward, inward, axis in ((lo, 0.0, math.inf, 0), (hi, math.inf, 0.0, 1)):
        def holds(r):
            return min(ppt_closed_form(qn, r).nu[axis::2]) >= 1.0

        start = edge
        for _ in range(5):
            start = math.nextafter(start, outward)
        assert not holds(start)
        assert _edge(holds, start, outward, inward) == edge


def test_inside_blind_band_not_detected():
    assert not ppt_closed_form(GROUND, 1.5).detected
    assert ppt_closed_form(GROUND, 1.0).detected
    assert ppt_closed_form(GROUND, 2.0).detected


def test_detection_map_grid_order_and_values():
    grid = detection_map(GROUND, (1.0, 2.0), (1.0, 2.0), 2)
    assert grid.a0.tolist() == [1.0, 2.0] and grid.b.tolist() == [1.0, 2.0]
    # Cell [i, j] is (a0[i], b[j]): a0 outer, b inner.
    for i, a0 in enumerate((1.0, 2.0)):
        for j, b in enumerate((1.0, 2.0)):
            v = ppt_closed_form(GROUND, a0 / b)
            assert math.isclose(grid.min_nu[i, j], v.min_nu, rel_tol=1e-14)
    assert grid.detected.all()
    # One state per n, on ranges whose a0/b spans [1e-4, 1e4].
    for n in range(1, 13):
        qn = QuantumNumbers(n, n // 2, -(n // 3))
        for a0_range, b_range in (((1e-2, 1e2), (1e-2, 1e2)),
                                  ((1e2, 1e-2), (3e-1, 7e1)),
                                  ((1e-4, 1e-4), (1.0, 1e-8))):
            grid = detection_map(qn, a0_range, b_range, 7)
            assert grid.a0.tolist() == np.linspace(*a0_range, 7).tolist()
            assert grid.b.tolist() == np.linspace(*b_range, 7).tolist()
            cells = (grid.nu1, grid.nu2, grid.nu5, grid.nu6, grid.min_nu, grid.detected)
            assert all(c.shape == (7, 7) for c in cells) and grid.detected.dtype == bool
            for i, a0 in enumerate(grid.a0.tolist()):
                for j, b in enumerate(grid.b.tolist()):
                    v = ppt_closed_form(qn, a0 / b)
                    # The point path runs on Python floats, the map on arrays.
                    assert all(type(x) is float for x in v.nu), (qn, a0, b)
                    got = tuple(c[i, j].item() for c in cells)
                    assert got == (v.nu[0], v.nu[1], v.nu[4], v.nu[5],
                                   v.min_nu, v.detected), (qn, a0, b)


def test_detection_map_validation():
    with pytest.raises(ValueError):
        detection_map(GROUND, (1.0, 2.0), (1.0, 2.0), 1)
    with pytest.raises(ValueError):
        detection_map(GROUND, (0.0, 2.0), (1.0, 2.0), 2)
    # Non-finite bounds, and finite bounds whose a0/b overflows.
    for a0_range, b_range in [((math.nan, 2.0), (1.0, 2.0)), ((1.0, 2.0), (1.0, math.inf)),
                              ((1.0, math.inf), (1.0, 2.0)), ((1.0, 1e300), (1e-300, 1.0))]:
        with pytest.raises(ValueError):
            detection_map(GROUND, a0_range, b_range, 2)


def test_closed_form_rejects_bad_ratio():
    # Outside [1e-100, 1e100] a0/b squared, or its reciprocal, nears overflow.
    for ratio in (0.0, -1.0, math.nan, math.inf, -math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError):
            ppt_closed_form(GROUND, ratio)


def test_overflowing_nu_raises_naming_the_state():
    # <x^2> <P_X^2> overflows at n = 1e70 and a0/b = 1e20, where nu1 and nu5
    # would be inf.  The map names its largest a0/b, not its first, and numpy
    # warns of nothing.
    qn = QuantumNumbers(10 ** 70, 0, 0)
    message = f"symplectic eigenvalues overflow a float at n={qn.n}, l=0, m=0, a0/b=1e+20"
    with pytest.raises(OverflowError) as exc:
        ppt_closed_form(qn, 1e20)
    assert str(exc.value) == message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError) as exc:
            detection_map(qn, (1.0, 1e20), (2.0, 1.0), 3)
    assert str(exc.value) == message
    assert caught == []
    # At a0/b = 1e14, <x^2> <P_X^2> = 4.2e307 is finite, and every nu with it.
    assert all(map(math.isfinite, ppt_closed_form(qn, 1e14).nu))


@pytest.mark.parametrize("ratio", [1e20, np.float64(1e20)], ids=("float", "float64"))
def test_ppt_numeric_overflow_names_the_state(ratio):
    # The exact solve overflows where the closed form does, and raises the
    # closed form's message, not int / int's bare one.  relative_moments' own
    # overflow, before the solve, keeps its text.
    qn = QuantumNumbers(10 ** 70, 0, 0)
    with pytest.raises(OverflowError) as exc:
        ppt_numeric(qn, ratio)
    assert str(exc.value) == (f"symplectic eigenvalues overflow a float at n={qn.n}, l=0, m=0, "
                              "a0/b=1e+20")
    huge = QuantumNumbers(10 ** 80, 0, 0)
    with pytest.raises(OverflowError) as exc:
        ppt_numeric(huge, ratio)
    assert str(exc.value) == f"second moments overflow a float at n={huge.n}, l=0, m=0"


@pytest.mark.parametrize("qn, ratio", [
    (QuantumNumbers(10 ** 70, 0, 0), np.float64(1e20)),  # overflows in either type
    (QuantumNumbers(1, 0, 0), np.float32(1.5)),  # would compute in float32
    (QuantumNumbers(3, 1, 0), np.float64(0.7)),
    (QuantumNumbers(2, 1, 1), np.array(2.5)),
    (QuantumNumbers(1, 0, 0), np.float64(1e-200)),  # outside the ratio range
])
def test_numpy_scalar_ratio_is_its_python_float(qn, ratio):
    # A numpy scalar or 0-d array gives the bits of the Python-float call,
    # Python floats included, or its exception, and numpy warns of nothing.
    def outcome(f, r):
        try:
            return f(qn, r).nu
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (ppt_closed_form, ppt_numeric):
            got, want = outcome(f, ratio), outcome(f, float(ratio))
            assert got == want
            assert all(type(v) is type(w) for v, w in zip(got, want))


_RATIO_TYPES = {
    "float": (1.5, 1.5), "int": (2, 2.0), "float64": (np.float64(1.5), 1.5),
    "array_0d": (np.array(1.5), 1.5), "fraction": (Fraction(3, 2), 1.5),
    "decimal": (Decimal("1.5"), 1.5),
    "array_1": (np.array([1.5]),
                (ValueError, "^a0/b ratio must be one real number, got array\\(\\[1.5\\]\\)$")),
    "array_2": (np.array([1.5, 2.0]),
                (ValueError, "^a0/b ratio must be one real number, got array\\(\\[1.5, 2. \\]\\)$")),
    "str": ("1.5", (TypeError, "^a0/b ratio must be a number, got '1.5'$")),
}


@pytest.mark.parametrize("ratio, want", _RATIO_TYPES.values(), ids=_RATIO_TYPES)
def test_point_queries_take_one_number_as_its_float(ratio, want):
    # A ratio of any numeric type gives the verdict of its Python float, in
    # Python floats; an array, even of one value, or a str is refused by name.
    for f in (ppt_closed_form, ppt_numeric):
        if isinstance(want, tuple):
            with pytest.raises(want[0], match=want[1]):
                f(GROUND, ratio)
            continue
        verdict = f(GROUND, ratio)
        assert verdict == f(GROUND, want) and type(verdict.a0_over_b) is float
        assert all(type(v) is float for v in verdict.nu)


def _full_nu(qn, ratio, cross):
    """The six symplectic eigenvalues of the partially transposed 12x12
    particle covariance, ascending, by a float64 eigensolve with no block
    assumption; with cross, the pair <x p_y> = -<y p_x> = m/2 is in it."""
    q2, p2 = np.reshape(relative_moments(qn), (2, 3))
    X2, P2 = com_moments(ratio)
    # (X, x, P, p) per axis, in the factor-2 convention.
    cov = np.diag(2.0 * np.ravel([(X2, q2[i], P2, p2[i]) for i in range(3)]))
    if cross:
        x, y, px, py = 1, 5, 3, 7
        cov[x, py] = cov[py, x] = qn.m
        cov[y, px] = cov[px, y] = -qn.m
    # Per axis (x1, p1, x2, p2), with x1,2 = X +- x/2 and p1,2 = P/2 +- p.
    to_particles = np.kron(np.eye(3), [[1, 0.5, 0, 0], [0, 0, 0.5, 1],
                                       [1, -0.5, 0, 0], [0, 0, 0.5, -1]])
    sigma = to_particles @ cov @ to_particles.T
    flip = np.tile([1.0, 1.0, 1.0, -1.0], 3)  # p2 -> -p2
    sigma = flip[:, None] * sigma * flip
    omega = np.kron(np.eye(6), [[0.0, 1.0], [-1.0, 0.0]])
    nu = np.sort(np.abs(np.linalg.eigvals(1j * omega @ sigma)))
    return nu[::2]  # each value comes twice


_FULL_RATIOS = (0.1, 0.3, 1.0, 1.5, 3.0, 10.0)
_STATES_N7 = [QuantumNumbers(n, l, m) for n in range(1, 8) for l in range(n)
              for m in range(-l, l + 1)]


def test_full_covariance_without_the_cross_moment_is_the_closed_form():
    for qn in _STATES_N7:
        for ratio in _FULL_RATIOS:
            want = sorted(ppt_closed_form(qn, ratio).nu)
            np.testing.assert_allclose(_full_nu(qn, ratio, False), want, rtol=1e-10, atol=0)


def test_full_covariance_is_the_closed_form_at_m_0():
    # For m = 0 the cross moment vanishes, and the closed form is exact.
    for qn in _STATES_N7:
        if qn.m == 0:
            for ratio in _FULL_RATIOS:
                want = sorted(ppt_closed_form(qn, ratio).nu)
                np.testing.assert_allclose(_full_nu(qn, ratio, True), want, rtol=1e-10, atol=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the closed form leaves out <x p_y> = m/2 (ROADMAP item X): "
                          "nu_- is 0.78379, not 0.89443")
def test_full_covariance_with_the_cross_moment_at_2p_plus_1():
    qn = QuantumNumbers(2, 1, 1)
    np.testing.assert_allclose(_full_nu(qn, 1.0, True), sorted(ppt_closed_form(qn, 1.0).nu),
                               rtol=1e-10, atol=0)
