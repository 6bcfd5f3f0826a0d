"""End-to-end acceptance checks.

Each test prints a single pass/fail line for its criterion (visible with
pytest -s or in captured output) and asserts the same condition.
"""

import math
import pathlib
import subprocess
import sys

import numpy as np

from hydrolens.gaussian_ppt import (
    _particle_block,
    _split,
    _two_mode_nu,
    blind_band_edges,
    ppt_closed_form,
    ppt_numeric,
)
from hydrolens.hydrogenic import QuantumNumbers, radial_momentum
from hydrolens.free_schmidt import schmidt_spread
from hydrolens.linear_entropy import angular_sum, linear_entropy
from hydrolens.moments import com_moments, relative_moments
from hydrolens.oracle import (
    angular_purity_exact,
    integrate_momentum,
    integrate_semi_infinite,
    integrate_theta,
)
from hydrolens.hydrogenic import radial_position
from hydrolens.specfun import spherical_harmonic_sq

GOLDEN = pathlib.Path(__file__).parent / "golden" / "map_16x16.csv"


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'pass' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def states(n_max: int, with_m: bool = False):
    if with_m:
        return [QuantumNumbers(n, l, m) for n in range(1, n_max + 1)
                for l in range(n) for m in range(-l, l + 1)]
    return [QuantumNumbers(n, l, 0) for n in range(1, n_max + 1) for l in range(n)]


def test_criterion_1_momentum_normalization():
    ok = True
    for qn in states(5):
        val, _ = integrate_momentum(
            lambda k: k * k * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
        ok &= abs(val - 1.0) <= 1e-8
    report(1, "momentum normalization", ok)


def test_criterion_2_fourth_moment():
    ok = True
    for qn in states(5):
        val, _ = integrate_momentum(
            lambda k: k ** 4 * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
        ok &= abs(qn.n ** 2 * val - 1.0) <= 1e-8
    report(2, "momentum second moment", ok)


def test_criterion_3_schmidt_spread_identity():
    ok = True
    for n in range(1, 11):
        for a0 in (0.5, 1.0, 2.0):
            s = schmidt_spread(QuantumNumbers(n, 0, 0), a0)
            # Identity up to the final rounding of the product (<= 2 ulp).
            ok &= abs(s.delta_p * (2 * math.pi) ** 1.5 * n * a0 - 1.0) <= 4.5e-16
    # Independence from l and m, exhaustively.
    for n in range(1, 11):
        ref = schmidt_spread(QuantumNumbers(n, 0, 0), 1.0)
        for l in range(n):
            for m in range(-l, l + 1):
                s = schmidt_spread(QuantumNumbers(n, l, m), 1.0)
                ok &= s.delta_p == ref.delta_p and s.delta_k == ref.delta_k
    report(3, "Schmidt spread identity", ok)


def test_criterion_4_moment_sum_rules_and_quadrature():
    ok = True
    for qn in states(6, with_m=True):
        n, l = qn.n, qn.l
        x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
        r2 = n * n * (5 * n * n - 3 * l * (l + 1) + 1) / 2.0
        ok &= abs(x2 + y2 + z2 - r2) <= 1e-12 * r2
        ok &= abs(px2 + py2 + pz2 - 1.0 / (n * n)) <= 1e-12
    for qn in states(4, with_m=True):
        rad_r, _ = integrate_semi_infinite(
            lambda r: r ** 4 * radial_position(qn, 1.0, r) ** 2)
        rad_k, _ = integrate_momentum(
            lambda k: k ** 4 * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
        sin2 = integrate_theta(
            lambda t: math.sin(t) ** 3 * spherical_harmonic_sq(qn.l, qn.m, t))
        cos2 = integrate_theta(
            lambda t: math.sin(t) * math.cos(t) ** 2
            * spherical_harmonic_sq(qn.l, qn.m, t))
        x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
        for closed, quad in [(x2, rad_r * sin2 * math.pi),
                             (y2, rad_r * sin2 * math.pi),
                             (z2, rad_r * cos2 * 2 * math.pi),
                             (px2, rad_k * sin2 * math.pi),
                             (py2, rad_k * sin2 * math.pi),
                             (pz2, rad_k * cos2 * 2 * math.pi)]:
            ok &= abs(closed - quad) <= 1e-11 * abs(quad)
    report(4, "moment sum rules and quadrature", ok)


def test_criterion_5_ppt_pipeline_equivalence():
    ok = True
    for qn in states(4, with_m=True):
        for ratio in (0.3, 0.8, 1.0, 1.5, 2.5):
            numeric = ppt_numeric(qn, ratio).nu
            closed = sorted(ppt_closed_form(qn, ratio).nu)
            ok &= all(abs(a - b) <= 1e-13 * b for a, b in zip(numeric, closed))
    report(5, "PPT pipeline equivalence", ok)


def test_criterion_6_detection_boundaries():
    edges = blind_band_edges(QuantumNumbers(1, 0, 0))
    ok = edges is not None
    if ok:
        lo, hi = edges
        ok &= abs(lo - math.sqrt(2.0)) <= 1e-9
        ok &= abs(hi - math.sqrt(8.0 / 3.0)) <= 1e-9
    # The pinned 16x16 map shows detected / blind / detected along the ratio
    # axis with boundaries at the band edges.
    rows = GOLDEN.read_text().strip().split("\n")[1:]
    ok &= len(rows) == 256
    regimes = {"below": 0, "inside": 0, "above": 0}
    for row in rows:
        cols = row.split(",")
        ratio = float(cols[0]) / float(cols[1])
        detected = cols[7] == "1"
        if ratio < math.sqrt(2.0) - 1e-9:
            ok &= detected
            regimes["below"] += 1
        elif ratio > math.sqrt(8.0 / 3.0) + 1e-9:
            ok &= detected
            regimes["above"] += 1
        else:
            ok &= not detected
            regimes["inside"] += 1
    ok &= all(count > 0 for count in regimes.values())
    report(6, "detection boundaries", ok)


def test_criterion_7_physicality():
    ok = True
    for qn in states(4, with_m=True):
        for ratio in (0.3, 0.8, 1.0, 1.5, 2.5):
            # The particle-basis blocks before the partial transpose.
            x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
            X2, P2 = com_moments(ratio)
            nu = np.array([v for q2, p2 in ((x2, px2), (y2, py2), (z2, pz2))
                           for v in _two_mode_nu(*_particle_block(
                               *_split(q2), *_split(p2), *_split(X2), *_split(P2)))])
            ok &= bool(np.all(nu >= 1.0 - 1e-12))
            ok &= int(np.sum(np.abs(nu - 1.0) <= 1e-12)) >= 3
    report(7, "physicality of the untransposed state", ok)


def test_criterion_8_linear_entropy():
    ground = linear_entropy(QuantumNumbers(1, 0, 0))
    ok = abs(ground.product - 33.0 / (16.0 * math.pi ** 2)) \
        <= 1e-10 * 33.0 / (16.0 * math.pi ** 2)
    # Every state with n <= 12.  The radial quadrature depends on (n, l) only
    # and the angular one on (l, |m|) only, so each is computed once.
    rad = {}
    for qn in states(12):
        rad[qn.n, qn.l], _ = integrate_momentum(
            lambda k: k * k * radial_momentum(qn, 1.0, k) ** 4, qn.n, 1.0)
    ang = {}
    for l in range(12):
        for m in range(l + 1):
            ang[l, m] = 2 * math.pi * integrate_theta(
                lambda t: math.sin(t) * spherical_harmonic_sq(l, m, t) ** 2)
    for qn in states(12, with_m=True):
        closed = linear_entropy(qn).product
        ok &= abs(closed - rad[qn.n, qn.l] * ang[qn.l, abs(qn.m)]) <= 1e-10 * closed
    report(8, "linear entropy closed form", ok)


def test_criterion_9_wigner_3j_oracle_equivalence():
    # The angular purity rule against the exact rational Wigner 3-j sum
    # (racah_3j), for every (l, m) with l <= 11, as n <= 12 allows.
    ok = True
    for l in range(0, 12):
        for m in range(-l, l + 1):
            exact = float(angular_purity_exact(l, m)) / (4 * math.pi)
            ok &= abs(angular_sum(l, m) - exact) <= 1e-15 * exact
    report(9, "Wigner 3-j oracle equivalence", ok)


def test_criterion_10_golden_map_byte_stability(tmp_path):
    out = tmp_path / "map.csv"
    res = subprocess.run(
        [sys.executable, "-m", "hydrolens.cli", "map", "--output", str(out)],
        capture_output=True)
    ok = res.returncode == 0 and out.read_bytes() == GOLDEN.read_bytes()
    report(10, "golden map byte stability", ok)
