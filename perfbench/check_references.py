"""Tests that the benchmark's references and checks reject perturbed values.

    python3 -m pytest -q perfbench/check_references.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references as ref  # noqa: E402


def test_angular_factors_sum_to_one():
    for n, l, m in ref.states():
        qx, qz, px, pz = ref.moment_coefficients(n, l, m)
        assert 2 * qx + qz == Fraction(n * n * (5 * n * n + 1 - 3 * l * (l + 1)), 2)
        assert 2 * px + pz == Fraction(1, n * n)


def test_ground_state_blind_band():
    lo, hi = ref.reference_band(1, 0, 0)
    assert lo == pytest.approx(math.sqrt(2), rel=1e-15)
    assert hi == pytest.approx(math.sqrt(8 / 3), rel=1e-15)


@pytest.mark.parametrize("state", [(1, 0, 0), (5, 3, -2), (12, 11, 11)])
@pytest.mark.parametrize("rho", [1e-4, 1.0, 7.5, 1e4])
def test_nu_rejects_perturbed_value(state, rho):
    want = [float(v) for v in ref.reference_nu(*state, rho)]
    assert ref.nu_ok(want, want)
    for i in range(6):
        got = list(want)
        got[i] *= 1 + 1e-9
        assert not ref.nu_ok(got, want)


def test_band_rejects_shifted_edge():
    for state in [(1, 0, 0), (7, 2, 1), (12, 6, -6)]:
        lo, hi = ref.reference_band(*state)
        assert ref.band_ok((lo, hi), (lo, hi))
        assert not ref.band_ok((lo * (1 + 1e-8), hi), (lo, hi))
        assert not ref.band_ok((lo, hi * (1 - 1e-8)), (lo, hi))
        assert not ref.band_ok(None, (lo, hi))


def test_identity_rejects_perturbed_value():
    assert ref.identity_ok(1.0 + 1e-9)
    assert not ref.identity_ok(1.0 + 1e-7)


def test_linear_entropy_rejects_wrong_value():
    mp = ref.MpReference()
    for n, l, m in [(1, 0, 0), (4, 2, 1), (12, 11, -3)]:
        product = mp.radial[n, l] * mp.angular[l, abs(m)]
        assert mp.product_ok(n, l, m, product)
        assert not mp.product_ok(n, l, m, product * (1 + 1e-5))
        assert not mp.purity_ok(n, l, mp.radial[n, l] * (1 + 1e-7))
        assert not mp.angular_ok(l, m, mp.angular[l, abs(m)] * (1 + 1e-7))


def test_cache_matches_fresh_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = ref.MP_DPS
    mp = ref.MpReference()
    for n, l in [(1, 0), (3, 2), (9, 4)]:
        fresh = ref.mp_radial_integral(n, l, 4)
        assert abs(fresh / mpmath.mpf(mp.radial_text[n, l]) - 1) < mpmath.mpf(10) ** -30
    for l, m in [(0, 0), (2, 1), (11, 7)]:
        fresh = ref.mp_angular_integral(l, m)
        assert abs(fresh / mpmath.mpf(mp.angular_text[l, m]) - 1) < mpmath.mpf(10) ** -30


def test_workload_checks_reject_perturbed_outputs():
    from workloads import FAULT, OK, WRONG, OracleSweep, PPTGrid, PPTPoint

    grid = PPTGrid()
    inp = grid.round(random.Random(3))[0]
    code, text, band = grid.op(inp)
    assert grid.check(inp, (code, text, band)) == OK
    lines = text.split("\n")
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    lines[5] = ",".join(cells)
    assert grid.check(inp, (code, "\n".join(lines), band)) == WRONG
    assert grid.check(inp, (code, text, (band[0] * (1 + 1e-6), band[1]))) == WRONG

    point = PPTPoint()
    inp = ((3, 1, 0), 1.0)
    closed, numeric = point.op(inp)
    assert point.check(inp, (closed, numeric)) == OK
    bad = type(closed)(closed.qn, closed.a0_over_b, (closed.nu[0] * (1 + 1e-9),) + closed.nu[1:])
    assert point.check(inp, (bad, numeric)) == WRONG
    assert point.check(inp, (closed, bad)) == FAULT
    assert point.check(inp, (closed, ArithmeticError("not paired"))) == FAULT

    sweep = OracleSweep()
    inp = (2, 1, -1)
    out = sweep.op(inp)
    assert sweep.check(inp, out) == OK
    closed = out[-1]
    wrong = type(closed)(closed.qn, closed.i_ang, closed.i_rad * 1.01, closed.product * 1.01)
    assert sweep.check(inp, out[:-1] + (wrong,)) == FAULT
    assert sweep.check(inp, (out[0] + 1e-7,) + out[1:]) == WRONG
