import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import hydrolens
from hydrolens import cli, verify
from hydrolens.gaussian_ppt import detection_map, ppt_closed_form
from hydrolens.hydrogenic import QuantumNumbers, radial_momentum
from hydrolens.linear_entropy import linear_entropy
from hydrolens.maptext import BLOCK_CELLS, write_map

GOLDEN = pathlib.Path(__file__).parent / "golden" / "map_16x16.csv"
# sha256sum line of `hydrolens map --n 7 --l 3 --m 1 --points 256` as CSV.
GOLDEN_256_SHA = pathlib.Path(__file__).parent / "golden" / "map_256x256.sha256"
# sha256sum line of `hydrolens map --n 4 --l 3 --m 2 --points 64 --format json`,
# a state whose x and z axes coincide.
GOLDEN_JSON_SHA = pathlib.Path(__file__).parent / "golden" / "map_json_64x64.sha256"
# sha256sum line of the CSV map of (9, 4, -2) over a0 in [1e-30, 1e30] and b in
# [3e-30, 2e29], 64 points: most values take %.17g's exponent form.
WIDE_ARGS = ("map", "--n", "9", "--l", "4", "--m", "-2", "--a0-min", "1e-30", "--a0-max", "1e30",
             "--b-min", "3e-30", "--b-max", "2e29", "--points", "64")
GOLDEN_WIDE_SHA = pathlib.Path(__file__).parent / "golden" / "map_wide_64x64.sha256"
# sha256sum line of the same map as JSON: an anisotropic state, so all four nu
# columns are written, over several blocks of cells.
GOLDEN_WIDE_JSON_SHA = pathlib.Path(__file__).parent / "golden" / "map_wide_json_64x64.sha256"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hydrolens.cli", *args],
        capture_output=True, text=True)


def test_runs_with_scipy_blocked():
    # numpy is the only runtime dependency.  With sys.modules["scipy"] = None
    # every scipy import raises, yet the package and the CLI import, verify
    # passes, and the Bessel-transform oracle, on its own j_l, evaluates.
    code = "\n".join([
        "import math, sys",
        "sys.modules['scipy'] = None",
        "import hydrolens, hydrolens.cli, hydrolens.oracle",
        "from hydrolens.hydrogenic import QuantumNumbers",
        "assert hydrolens.cli.main(['verify', '--n-max', '2']) == 0",
        "v = hydrolens.oracle.bessel_transform_radial(QuantumNumbers(2, 1), 1.0, 0.5)",
        "assert math.isfinite(v) and v != 0.0, v",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "['scipy']"


def test_verify_builds_no_quadrature_rule():
    # The oracle's Gauss-Legendre rule is a table of constants: verify loads
    # no numpy.polynomial, and passes with every numpy.linalg function
    # replaced by one that raises.
    code = "\n".join([
        "import contextlib, io, sys",
        "import numpy.linalg as la",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('numpy.linalg called')",
        "for name in la.__all__:",
        "    if callable(getattr(la, name)) and not isinstance(getattr(la, name), type):",
        "        setattr(la, name, refuse)",
        "import hydrolens.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    status = hydrolens.cli.main(['verify', '--n-max', '2'])",
        "print(status, 'numpy.polynomial' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0 False\n"


# Point queries, one of them not detected (exit code 3), and --version.
# A ratio outside [1e-100, 1e100]: a usage error, whose message must not need numpy.
REJECTED_RATIO = ["ppt", "--ratio", "1e-200"]
POINT_ARGVS = [
    ["ppt", "--ratio", "1"],
    ["ppt", "--ratio", "1.4832"],
    ["ppt", "--n", "3", "--l", "2", "--m", "-1", "--ratio", "0.05"],
    ["ppt", "--n", "5", "--l", "1", "--m", "1", "--a0", "1.5", "--b", "2"],
    ["ppt", "--n", "12", "--l", "11", "--m", "11", "--ratio", "1e4"],
    ["schmidt", "--n", "1", "--a0", "1"],
    ["schmidt", "--n", "7", "--alpha", "2", "--mu", "0.5"],
    REJECTED_RATIO,
    ["--version"],
]


def _run_in_process(prelude, argvs):
    """(exit code, stdout, stderr) of hydrolens.cli.main for each argv, all in
    one fresh interpreter that first runs prelude, then whether numpy is
    loaded."""
    code = "\n".join([
        "import contextlib, io, json, sys",
        prelude,
        "import hydrolens.cli",
        "results = []",
        f"for argv in {argvs!r}:",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        "        try:",
        "            status = hydrolens.cli.main(argv)",
        "        except SystemExit as exc:",
        "            status = exc.code",
        "    results.append([status, out.getvalue(), err.getvalue()])",
        "print(json.dumps([results, sys.modules.get('numpy') is not None]))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_point_queries_run_with_numpy_blocked():
    # With sys.modules["numpy"] = None every numpy import raises, yet ppt,
    # schmidt and --version print the same bytes with the same exit codes,
    # and a rejected ratio the same usage error; run normally, they leave
    # numpy unloaded.
    blocked, _ = _run_in_process("sys.modules['numpy'] = None", POINT_ARGVS)
    normal, numpy_loaded = _run_in_process("", POINT_ARGVS)
    assert blocked == normal
    assert [status for status, _, _ in normal] == [0, 3, 0, 0, 0, 0, 0, 2, 0]
    assert normal[-1][1] == f"hydrolens {hydrolens.__version__}\n"
    assert normal[POINT_ARGVS.index(REJECTED_RATIO)][2].endswith(
        "hydrolens ppt: error: a0/b ratio must lie in [1e-100, 1e+100], got 1e-200\n")
    assert not numpy_loaded


def test_cli_import_budget():
    # Importing the CLI loads neither numpy nor the modules that dataclasses
    # and fractions bring in: the value types are tuples, and the moments
    # divide exact ints.
    code = "\n".join([
        "import sys, hydrolens.cli",
        "print(sorted(m for m in ('numpy', 'dataclasses', 'inspect', 'fractions', 'decimal')"
        " if m in sys.modules))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_library_modules_load_numpy_only_when_they_compute():
    # hydrogenic and linear_entropy import numpy inside their functions, so
    # importing them, as the package does, loads none; the first radial call
    # does.
    code = "\n".join([
        "import sys, hydrolens.hydrogenic, hydrolens.linear_entropy",
        "print('numpy' in sys.modules)",
        "import hydrolens",
        "value = hydrolens.radial_momentum(hydrolens.QuantumNumbers(2, 1), 1.0, 0.5)",
        "print(repr(value), 'numpy' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"False\n{radial_momentum(QuantumNumbers(2, 1), 1.0, 0.5)!r} True\n"


@pytest.mark.parametrize("prelude", [
    "import hydrolens",
    # Importing the submodule hydrolens.linear_entropy first must not leave
    # the module where the package's function of that name belongs.
    "import hydrolens.cli; hydrolens.cli.main(['linent', '--n', '2'])",
])
def test_public_names_in_either_import_order(prelude):
    code = "\n".join([
        "import contextlib, io, sys",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    " + prelude,
        "import hydrolens",
        "for name in hydrolens.__all__:",
        "    obj = getattr(hydrolens, name)",
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name",
        "assert callable(hydrolens.linear_entropy)",
        "print(repr(hydrolens.linear_entropy(hydrolens.QuantumNumbers(1, 0)).product))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{linear_entropy(QuantumNumbers(1, 0)).product!r}\n"


def test_schmidt_basic():
    res = run_cli("schmidt", "--n", "1", "--a0", "1")
    assert res.returncode == 0
    assert "delta_k = 0.0634936" in res.stdout
    assert "entangled (delta_k > 0)" in res.stdout


def test_schmidt_n_scaling():
    res1 = run_cli("schmidt", "--n", "1", "--a0", "1")
    res2 = run_cli("schmidt", "--n", "2", "--a0", "1")
    dk1 = float(res1.stdout.splitlines()[0].split("=")[1])
    dk2 = float(res2.stdout.splitlines()[0].split("=")[1])
    assert abs(dk2 - dk1 / 2) < 1e-6


def test_schmidt_from_coupling():
    # a0 = hbar^2 / (mu alpha) = 1 here, so output matches the direct flag.
    direct = run_cli("schmidt", "--n", "1", "--a0", "1")
    derived = run_cli("schmidt", "--n", "1", "--alpha", "2", "--mu", "0.5")
    assert derived.returncode == 0
    assert derived.stdout == direct.stdout


def test_schmidt_from_coupling_names_the_derived_a0():
    # alpha and mu are valid, but a0 = hbar^2/(mu alpha) overflows: the
    # usage error names a0 with both inputs, not an a0 the user never gave.
    res = run_cli("schmidt", "--n", "1", "--alpha", "1e-200", "--mu", "1e-200")
    assert res.returncode == 2
    assert res.stderr.endswith(
        "hydrolens schmidt: error: reduced Bohr radius a0 = hbar^2/(mu alpha) is out of float "
        "range, got inf from alpha=1e-200, mu=1e-200, hbar=1.0\n")


def test_schmidt_missing_n_is_usage_error():
    res = run_cli("schmidt", "--a0", "1")
    assert res.returncode == 2


def test_schmidt_missing_scale_is_usage_error():
    res = run_cli("schmidt", "--n", "1")
    assert res.returncode == 2


def test_ppt_detected():
    res = run_cli("ppt", "--n", "1", "--l", "0", "--m", "0", "--ratio", "1")
    assert res.returncode == 0
    assert "min_nu = 0.707107" in res.stdout
    assert "detected = yes" in res.stdout


def test_ppt_blind_band_not_detected():
    res = run_cli("ppt", "--ratio", "1.4832")
    assert res.returncode == 3
    assert "detected = no" in res.stdout


def test_ppt_a0_b_equivalent_to_ratio():
    a = run_cli("ppt", "--ratio", "0.75")
    b = run_cli("ppt", "--a0", "1.5", "--b", "2.0")
    assert a.stdout == b.stdout


def test_ppt_ratio_conflicts_with_a0():
    res = run_cli("ppt", "--ratio", "1", "--a0", "1", "--b", "1")
    assert res.returncode == 2


def _usage_error(argv, capsys):
    """The message of the usage error that cli.main(argv) exits with."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: hydrolens {argv[0]} ")
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("alpha, mu, hbar, a0", [
    ("1e-200", "1e-200", "1", "inf"),  # mu alpha underflows
    ("1e200", "1e200", "1", "0.0"),  # hbar^2/mu/alpha underflows
    ("1", "1", "1e200", "inf"),  # hbar^2 overflows
])
def test_schmidt_derived_a0_out_of_range_is_usage_error(alpha, mu, hbar, a0, capsys):
    # Each flag is finite and positive, but a0 = hbar^2/(mu alpha) is not.
    argv = ["schmidt", "--n", "1", "--alpha", alpha, "--mu", mu, "--hbar", hbar]
    assert _usage_error(argv, capsys) == (
        "hydrolens schmidt: error: reduced Bohr radius a0 = hbar^2/(mu alpha) is out of float "
        f"range, got {a0} from alpha={float(alpha)}, mu={float(mu)}, hbar={float(hbar)}")


@pytest.mark.parametrize("flag", ["--alpha", "--mu", "--hbar"])
@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-2"])
def test_schmidt_coupling_flag_that_is_bad_is_named(flag, bad, capsys):
    # Each input is checked by name before a0 is formed.
    argv = ["schmidt", "--n", "1", "--alpha", "2", "--mu", "0.5", flag, bad]
    assert _usage_error(argv, capsys) == (
        f"hydrolens schmidt: error: argument {flag}: must be finite and positive, got '{bad}'")


def test_ppt_and_map_at_huge_n_are_usage_errors(capsys):
    # Past n = 1.21e77 the second moments overflow a float.
    n = str(10 ** 80)
    for argv in (["ppt", "--n", n, "--ratio", "1"], ["map", "--n", n, "--points", "2"]):
        assert _usage_error(argv, capsys) == (
            f"hydrolens {argv[0]}: error: second moments overflow a float at n={n}, l=0, m=0")


def test_ppt_refuses_a_non_finite_nu(capsys):
    # <x^2> P_X^2 overflows at n = 1e70 and a0/b = 1e20: nu1 would print as inf.
    n = str(10 ** 70)
    assert _usage_error(["ppt", "--n", n, "--ratio", "1e20"], capsys) == (
        f"hydrolens ppt: error: symplectic eigenvalues overflow a float at n={n}, l=0, m=0, "
        "a0/b=1e+20")


def test_map_refuses_a_non_finite_nu(capsys):
    # The point test_ppt_refuses_a_non_finite_nu refuses, as a map: no inf in
    # the output and no numpy warning, but the same usage error.
    n = str(10 ** 70)
    argv = ["map", "--n", n, "--a0-min", "1e20", "--a0-max", "1e20", "--b-min", "1",
            "--b-max", "1", "--points", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        message = _usage_error(argv, capsys)
    assert message == (f"hydrolens map: error: symplectic eigenvalues overflow a float at "
                       f"n={n}, l=0, m=0, a0/b=1e+20")
    assert caught == []


def test_schmidt_a0_conflicts_with_coupling(capsys):
    # Beside --a0, --alpha and --mu would otherwise be ignored without a word.
    for extra in (["--alpha", "2", "--mu", "2"], ["--alpha", "2"], ["--mu", "2"]):
        assert _usage_error(["schmidt", "--n", "1", "--a0", "1", *extra], capsys) == (
            "hydrolens schmidt: error: --a0 conflicts with --alpha/--mu")


def test_schmidt_refuses_a_spread_that_is_not_a_normal_float(capsys):
    # Neither delta_k = 0 nor delta_p = inf is printed with exit 0.
    n = str(10 ** 300)
    assert _usage_error(["schmidt", "--n", n, "--a0", "1e300"], capsys) == (
        f"hydrolens schmidt: error: Schmidt spread is not a normal float at n={n}, "
        "a0=1e+300, hbar=1: delta_k=0, delta_p=0")
    assert _usage_error(["schmidt", "--n", "1", "--a0", "1e-300", "--hbar", "1e10"], capsys) == (
        "hydrolens schmidt: error: Schmidt spread is not a normal float at n=1, "
        "a0=1e-300, hbar=1e+10: delta_k=6.34936e+298, delta_p=inf")


def test_ppt_ratio_help_names_the_conflict(capsys):
    with pytest.raises(SystemExit):
        cli.main(["ppt", "--help"])
    assert "conflicts with --a0/--b" in capsys.readouterr().out


def test_linent_volume_below_product_is_usage_error(capsys):
    # product = 22.9284 here, so V = 1e-300 would give S_lin = -2.3e301.
    assert _usage_error(["linent", "--n", "3", "--l", "1", "--volume", "1e-300"], capsys) == (
        "hydrolens linent: error: volume V = 1e-300 is below the purity product 22.9284: "
        "product/V would exceed 1")


def test_ppt_invalid_quantum_numbers():
    res = run_cli("ppt", "--n", "1", "--l", "1", "--m", "0", "--ratio", "1")
    assert res.returncode == 2


def test_map_small_grid_all_detected():
    # 2x2 grid whose ratios stay at 1 and 2: every cell detected.
    res = run_cli("map", "--points", "2", "--a0-min", "2", "--a0-max", "4",
                  "--b-min", "2", "--b-max", "2.0000001")
    lines = res.stdout.strip().split("\n")
    assert res.returncode == 0
    assert lines[0] == "a0,b,nu1,nu2,nu5,nu6,min_nu,detected"
    assert len(lines) == 5
    assert all(line.endswith(",1") for line in lines[1:])


def test_map_blind_row():
    res = run_cli("map", "--points", "2", "--a0-min", "1.5", "--a0-max", "3",
                  "--b-min", "1", "--b-max", "2")
    lines = res.stdout.strip().split("\n")[1:]
    by_cell = {(float(l.split(",")[0]), float(l.split(",")[1])): l for l in lines}
    assert by_cell[(1.5, 1.0)].endswith(",0")  # ratio 1.5: inside the blind band
    assert by_cell[(3.0, 1.0)].endswith(",1")  # ratio 3: detected


def test_map_json_mirror():
    res = run_cli("map", "--points", "2", "--a0-min", "1", "--a0-max", "2",
                  "--b-min", "1", "--b-max", "2", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert len(rows) == 4
    assert set(rows[0]) == {"a0", "b", "nu1", "nu2", "nu5", "nu6", "min_nu", "detected"}
    assert rows[0]["detected"] in (0, 1)


def test_map_golden_file_byte_stable(tmp_path):
    out = tmp_path / "map.csv"
    res = run_cli("map", "--output", str(out))
    assert res.returncode == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_map_256_matches_committed_sha256(tmp_path):
    out = tmp_path / "map256.csv"
    assert cli.main(["map", "--n", "7", "--l", "3", "--m", "1", "--points", "256",
                     "--output", str(out)]) == 0
    want = GOLDEN_256_SHA.read_text().split()[0]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_map_json_64_matches_committed_sha256(tmp_path):
    out = tmp_path / "map64.json"
    assert cli.main(["map", "--n", "4", "--l", "3", "--m", "2", "--points", "64",
                     "--format", "json", "--output", str(out)]) == 0
    want = GOLDEN_JSON_SHA.read_text().split()[0]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_map_wide_64_matches_committed_sha256(tmp_path):
    out = tmp_path / "map_wide.csv"
    assert cli.main([*WIDE_ARGS, "--output", str(out)]) == 0
    want = GOLDEN_WIDE_SHA.read_text().split()[0]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_map_wide_json_64_matches_committed_sha256(tmp_path):
    out = tmp_path / "map_wide.json"
    assert cli.main([*WIDE_ARGS, "--format", "json", "--output", str(out)]) == 0
    want = GOLDEN_WIDE_JSON_SHA.read_text().split()[0]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def _reference_map(qn, a0_range, b_range, points):
    """CSV and JSON text of the map, one row at a time from ppt_closed_form."""
    header = ("a0", "b", "nu1", "nu2", "nu5", "nu6", "min_nu", "detected")
    lines, rows = [",".join(header) + "\n"], []
    for a0 in np.linspace(*a0_range, points).tolist():
        for b in np.linspace(*b_range, points).tolist():
            v = ppt_closed_form(qn, a0 / b)
            row = (a0, b, v.nu[0], v.nu[1], v.nu[4], v.nu[5], v.min_nu, int(v.detected))
            lines.append(",".join(format(x, ".17g") for x in row[:-1]) + f",{row[-1]}\n")
            rows.append(dict(zip(header, row)))
    return "".join(lines), json.dumps(rows, indent=2) + "\n"


@st.composite
def _axis(draw):
    """An axis range: ascending, descending or a single value."""
    lo, hi = sorted(draw(st.floats(1e-3, 1e3)) for _ in range(2))
    return draw(st.sampled_from(((lo, hi), (hi, lo), (lo, lo))))


@st.composite
def _state(draw):
    n = draw(st.integers(1, 12))
    l = draw(st.integers(0, n - 1))
    return QuantumNumbers(n, l, draw(st.integers(-l, l)))


# No shrink phase: an example writes up to 64^2 cells twice, and shrinking a
# failure would take minutes; the failing example is reported as drawn.
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(qn=_state(), a0_range=_axis(), b_range=_axis(), points=st.integers(2, 64))
# States whose nu5 and nu6 repeat nu1 and nu2, a single-value b range, and
# the smallest grid.
@example(qn=QuantumNumbers(1, 0, 0), a0_range=(0.5, 3.5), b_range=(3.0, 0.2), points=7)
@example(qn=QuantumNumbers(4, 3, 2), a0_range=(0.01, 40.0), b_range=(0.3, 2.0), points=9)
@example(qn=QuantumNumbers(7, 3, 1), a0_range=(0.5, 3.5), b_range=(1.5, 1.5), points=5)
@example(qn=QuantumNumbers(5, 2, -1), a0_range=(1.5, 3.0), b_range=(1.0, 2.0), points=2)
# Several CSV blocks with a partial last one, and axes over which most values
# take the exponent form.
@example(qn=QuantumNumbers(9, 4, -2), a0_range=(0.01, 40.0), b_range=(3.0, 0.2), points=100)
@example(qn=QuantumNumbers(3, 0, 0), a0_range=(0.5, 3.5), b_range=(0.02, 2.0), points=130)
@example(qn=QuantumNumbers(6, 2, 1), a0_range=(1e-30, 1e30), b_range=(3e-30, 2e29), points=40)
def test_write_map_matches_row_by_row_reference(qn, a0_range, b_range, points):
    grid = detection_map(qn, a0_range, b_range, points)
    for fmt, want in zip(("csv", "json"), _reference_map(qn, a0_range, b_range, points)):
        out = io.StringIO()
        write_map(grid, fmt, out)
        assert out.getvalue() == want, fmt


class _Writes(list):
    """A stream that keeps each write as one string."""

    write = list.append


@pytest.mark.parametrize("qn", [QuantumNumbers(7, 3, 1), QuantumNumbers(4, 3, 2)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_map_writes_one_block_at_a_time(qn, fmt):
    # The header, then one write per block of whole a0 values, b inner, each
    # ending at a row end: the map in one block at 6 points, and at 130
    # points in blocks of BLOCK_CELLS // 130 = 3 a0 values, the last of one.
    for points in (6, 130):
        grid = detection_map(qn, (0.5, 3.5), (0.5, 3.5), points)
        rows = max(1, BLOCK_CELLS // points)
        writes = _Writes()
        write_map(grid, fmt, writes)
        assert len(writes) == 1 + -(-points // rows)
        a0 = [grid.a0[i:i + rows].tolist() for i in range(0, points, rows)]
        if fmt == "csv":
            assert writes[0] == "a0,b,nu1,nu2,nu5,nu6,min_nu,detected\n"
            for values, block in zip(a0, writes[1:]):
                lines = block.splitlines()
                assert len(lines) == len(values) * points and block.endswith("\n")
                assert [float(line.split(",")[0]) for line in lines] == \
                    [v for v in values for _ in range(points)]
        else:
            assert writes[0] == "[\n"
            assert all(block.endswith("},\n") for block in writes[1:-1])
            assert writes[-1].endswith("}\n]\n")
            cells = json.loads("".join(writes))
            assert [cell["a0"] for cell in cells] == np.repeat(grid.a0, points).tolist()
            assert [block.count('"a0"') for block in writes[1:]] == \
                [len(values) * points for values in a0]


class _Null:
    def write(self, text):
        pass


def test_write_map_refuses_an_unknown_format():
    grid = detection_map(QuantumNumbers(1, 0, 0), (1.0, 2.0), (1.0, 2.0), 2)
    out = io.StringIO()
    with pytest.raises(ValueError, match="^map format must be csv or json, got 'xml'$"):
        write_map(grid, "xml", out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_map_memory_does_not_grow_with_the_map(fmt):
    # The writer holds a block of rows at a time: a 512^2 map, whose columns
    # alone take 2 MB each, is written within 2 MB of allocations.
    grid = detection_map(QuantumNumbers(7, 3, 1), (0.5, 3.5), (0.5, 3.5), 512)
    write_map(grid, fmt, _Null())  # imports and caches outside the count
    tracemalloc.start()
    try:
        write_map(grid, fmt, _Null())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_map_unwritable_path_is_io_error(tmp_path):
    res = run_cli("map", "--points", "2", "--output",
                  str(tmp_path / "no" / "such" / "dir" / "out.csv"))
    assert res.returncode == 4
    assert "error" in res.stderr.lower()


def test_verify_passes():
    res = run_cli("verify", "--n-max", "2")
    assert res.returncode == 0
    out = res.stdout
    for name in ("momentum normalization", "momentum second moment",
                 "second moments", "eigenvalue pipeline", "linear entropy"):
        assert f"{name}: pass" in out


def test_verify_second_moments_catch_a_perturbed_variance(monkeypatch):
    # The check compares against quadrature, so a 1e-10 relative error in one
    # variance of one state fails it.
    exact = verify.relative_moments

    def perturbed(qn):
        x2, y2, z2, px2, py2, pz2 = exact(qn)
        if qn == QuantumNumbers(2, 1, 1):
            pz2 *= 1 + 1e-10
        return x2, y2, z2, px2, py2, pz2

    monkeypatch.setattr(verify, "relative_moments", perturbed)
    assert dict(verify.verify_checks(2))["second moments"] is False


def test_verify_momentum_normalization_catches_a_scaled_f_nl(monkeypatch):
    # F_nl off by 1e-10 relative puts the norm 2e-10 from 1, which the 1e-13
    # tolerance rejects.
    exact = verify.radial_momentum
    monkeypatch.setattr(verify, "radial_momentum",
                        lambda qn, a0, k: exact(qn, a0, k) * (1 + 1e-10))
    assert dict(verify.verify_checks(2))["momentum normalization"] is False


def test_verify_radial_integrals_converge_in_few_calls(monkeypatch):
    # verify maps r = n^2 a0 t/(1-t), so each of its 78 int r^4 R^2 dr with
    # n <= 12 converges within 7 integrand calls (11 under r = t/(1-t)).
    exact = verify.integrate_semi_infinite
    calls = []

    def counted(f, **kwargs):
        calls.append(0)

        def g(r):
            calls[-1] += 1
            return f(r)

        return exact(g, **kwargs)

    monkeypatch.setattr(verify, "integrate_semi_infinite", counted)
    for name, ok in verify.verify_checks(12):
        assert ok, name
        if name == "second moments":
            break
    assert len(calls) == 78 and max(calls) <= 7, (len(calls), max(calls))


def test_verify_injected_failure(monkeypatch, capsys):
    monkeypatch.setattr(verify, "verify_checks", lambda n_max: iter([("injected", False)]))
    assert cli.main(["verify", "--n-max", "1"]) == 5
    assert "injected: FAIL" in capsys.readouterr().out


def test_verify_value_error_is_usage_error(monkeypatch, capsys):
    # main, not each handler, turns a library ValueError into exit 2.
    def broken(n_max):
        raise ValueError("injected")
        yield
    monkeypatch.setattr(verify, "verify_checks", broken)
    assert _usage_error(["verify"], capsys) == "hydrolens verify: error: injected"


def test_main_reuses_one_parser(capsys):
    # One parser serves every call in a process, and each call still reaches
    # its own handler and reports a usage error through its own subcommand.
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["ppt", "--ratio", "1.5"]) == 3
    assert cli.main(["ppt", "--ratio", "1"]) == 0
    assert "min_nu = 0.707107" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["ppt", "--ratio", "1e-200"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hydrolens ppt ")
    assert cli.main(["map", "--points", "2"]) == 0
    assert capsys.readouterr().out.startswith("a0,b,nu1,")


@pytest.mark.parametrize("argv", [
    ["ppt", "--ratio", "nan"],
    ["ppt", "--a0", "nan", "--b", "1"],
    ["ppt", "--ratio", "inf"],
    ["map", "--a0-min", "nan"],
    ["map", "--b-max", "inf"],
    ["schmidt", "--n", "1", "--a0", "nan"],
    ["linent", "--a0", "nan"],
    ["linent", "--volume", "nan"],
    # Finite flags whose derived a0 or a0/b, or (a0/b)^2, overflows or underflows.
    ["ppt", "--ratio", "1e-200"],
    ["ppt", "--a0", "1e300", "--b", "1e-300"],
    ["ppt", "--a0", "1e-300", "--b", "1e300"],
    ["map", "--points", "2", "--a0-max", "1e300", "--b-min", "1e-300"],
    ["schmidt", "--n", "1", "--alpha", "1e-300", "--mu", "1e-300"],
    # Usage errors raised by the handlers, not by argparse.
    ["ppt", "--n", "2", "--l", "5"],
    ["schmidt", "--n", "1"],
    ["schmidt", "--n", "0", "--a0", "1"],
])
def test_non_finite_input_is_usage_error(argv, capsys):
    assert f"hydrolens {argv[0]}: error: " in _usage_error(argv, capsys)


def test_linent_ground_state():
    res = run_cli("linent", "--n", "1", "--l", "0", "--m", "0", "--a0", "1")
    assert res.returncode == 0
    assert "product = 0.208975" in res.stdout
    assert "S_lin -> 1 (V -> infinity)" in res.stdout


def test_linent_excited_state():
    res = run_cli("linent", "--n", "10")
    assert res.returncode == 0
    assert "I_rad = 93503.5  (units a0^3)" in res.stdout



def test_linent_overflow_is_usage_error():
    for argv, state in ((("--n", "3200", "--l", "880"), "n=3200, l=880"),
                        (("--n", "1", "--a0", "1e110"), "n=1, l=0"),
                        (("--n", "1", "--a0", "1e-110"), "n=1, l=0")):
        res = run_cli("linent", *argv)
        assert res.returncode == 2, argv
        assert "error" in res.stderr and state in res.stderr
        assert "Warning" not in res.stderr
        assert res.stdout == ""
    # At a0 = 1e100, I_rad = (33 / (4 pi)) a0^3 is a finite float.
    res = run_cli("linent", "--n", "1", "--a0", "1e100")
    assert res.returncode == 0 and res.stderr == ""
    assert f"I_rad = {33 / (4 * math.pi) * 1e300:.6g}  (units a0^3)" in res.stdout


def test_linent_finite_volume():
    res = run_cli("linent", "--n", "1", "--l", "0", "--m", "0", "--a0", "1",
                  "--volume", "10")
    assert res.returncode == 0
    assert "S_lin = 0.979103" in res.stdout
