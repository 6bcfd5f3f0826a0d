import json
import os
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden" / "map_16x16.csv"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("HYDROLENS_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hydrolens.cli", *args],
        capture_output=True, text=True, env=env)


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is needed only by the Bessel-transform oracle.
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, hydrolens.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


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
    golden = GOLDEN.read_bytes()
    for env_extra in (None, {"HYDROLENS_THREADS": "1"}, {"HYDROLENS_THREADS": "8"}):
        out = tmp_path / "map.csv"
        res = run_cli("map", "--output", str(out), env_extra=env_extra)
        assert res.returncode == 0
        assert out.read_bytes() == golden


def test_map_unwritable_path_is_io_error(tmp_path):
    res = run_cli("map", "--points", "2", "--output",
                  str(tmp_path / "no" / "such" / "dir" / "out.csv"))
    assert res.returncode == 4
    assert "error" in res.stderr.lower()


def test_verify_passes():
    res = run_cli("verify", "--n-max", "2")
    assert res.returncode == 0
    out = res.stdout
    for name in ("momentum normalization", "momentum fourth moment",
                 "moment sum rules", "eigenvalue pipeline", "linear entropy"):
        assert f"{name}: pass" in out


def test_verify_injected_failure():
    res = run_cli("verify", "--n-max", "1", "--perturb", "0.5")
    assert res.returncode == 5
    assert "momentum normalization: FAIL" in res.stdout


def test_linent_ground_state():
    res = run_cli("linent", "--n", "1", "--l", "0", "--m", "0", "--a0", "1")
    assert res.returncode == 0
    assert "product = 0.208975" in res.stdout
    assert "S_lin -> 1 (V -> infinity)" in res.stdout


def test_linent_excited_state():
    res = run_cli("linent", "--n", "10")
    assert res.returncode == 0
    assert "I_rad = 93503.5  (units a0^3)" in res.stdout


def test_linent_finite_volume():
    res = run_cli("linent", "--n", "1", "--l", "0", "--m", "0", "--a0", "1",
                  "--volume", "10")
    assert res.returncode == 0
    assert "S_lin = 0.979103" in res.stdout
