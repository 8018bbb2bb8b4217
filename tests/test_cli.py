import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moebius.cli import main

TABLE_R = repr(13.2 / (2 * np.pi))
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 120


def child_env(**variables):
    """A clean environment for a ``python -m moebius.cli`` child process.

    It holds only PATH, a PYTHONPATH with this checkout's ``src`` first (so
    the child runs the code under test, installed or not, whatever the
    working directory) and the variables under test. Nothing else leaks in
    from the outer shell, such as a stray MOEBIUS_SEEDLESS or
    SOURCE_DATE_EPOCH.
    """
    python_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": python_path, **variables}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return manifest, list(reader)


def test_mathieu_table_csv_and_json_agree(capsys):
    code, out_csv, _ = run_cli(["mathieu", "--q", "-0.25", "--max-order", "10"], capsys)
    assert code == 0
    manifest, rows = parse_csv(out_csv)
    assert manifest["command"] == "mathieu"
    assert manifest["parameters"]["q"] == -0.25

    code, out_json, _ = run_cli(
        ["mathieu", "--q", "-0.25", "--max-order", "10", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out_json)
    assert len(payload["rows"]) == len(rows) == 11

    for csv_row, json_row in zip(rows, payload["rows"]):
        assert int(csv_row["m"]) == json_row["m"]
        assert float(csv_row["a_m"]) == json_row["a_m"]
        if csv_row["b_m"] == "":
            assert json_row["b_m"] is None
        else:
            assert float(csv_row["b_m"]) == json_row["b_m"]

    assert float(rows[0]["a_m"]) == pytest.approx(-0.0310393954756173, rel=1e-13)
    assert rows[0]["b_m"] == ""


def test_mathieu_free_limit(capsys):
    code, out, _ = run_cli(["mathieu", "--q", "0", "--max-order", "5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        m = int(row["m"])
        assert float(row["a_m"]) == float(m * m)
        if m >= 1:
            assert float(row["b_m"]) == float(m * m)


def test_spectrum_fake_reference(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--model", "fake", "--a", "0.75", "--circumference", "13.2",
         "--count", "20"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    values = [float(r["value"]) for r in rows]
    assert values[0] == pytest.approx(4.386490844928603, rel=1e-12)
    multiplicities = [int(r["multiplicity"]) for r in rows]
    assert multiplicities == [1] + [2] * 19
    assert rows[0]["mode"] == "fake(m=0,n=1)"


def test_spectrum_true_smoke(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--model", "true", "--a", "0.75", "--R", TABLE_R,
         "--count", "5", "--N", "30"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[0]["value"]) == pytest.approx(4.387440, rel=1e-4)
    assert all(float(r["residual"]) > 0 for r in rows)


def test_spectrum_requires_basis_for_true(capsys):
    code, _, err = run_cli(
        ["spectrum", "--model", "true", "--a", "0.75", "--R", "2.1", "--count", "5"],
        capsys,
    )
    assert code == 2
    assert "--N" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_spectrum_true_rejects_empty_count(capsys, count):
    code, out, err = run_cli(
        ["spectrum", "--model", "true", "--a", "0.75", "--R", "2.1",
         "--count", count, "--N", "12"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "count must be >= 1" in err


@pytest.mark.parametrize("option", ["--R", "--circumference"])
def test_converge_rejects_zero_radius(capsys, option):
    code, out, err = run_cli(
        ["converge", option, "0", "--a-min", "0.2", "--a-max", "0.5",
         "--steps", "2", "--K", "2", "--N", "8"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"{option} must be positive, got 0.0" in err


def test_converge_command(capsys):
    code, out, _ = run_cli(
        ["converge", "--kind", "eigenvalue", "--R", repr(18 / (2 * np.pi)),
         "--a-min", "0.2", "--a-max", "0.5", "--steps", "4", "--grid", "geometric",
         "--K", "3", "--N", "16", "--threads", "2"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    samples = [r for r in rows if r["record"] == "sample"]
    slopes = [r for r in rows if r["record"] == "slope"]
    assert len(samples) == 4 * 3
    assert len(slopes) == 3
    assert all(float(r["ratio"]) > 0 for r in samples)
    assert all(r["slope"] != "" for r in slopes)


def test_eigenfunction_export(capsys):
    code, out, _ = run_cli(
        ["eigenfunction", "--k", "1", "--a", "0.75", "--circumference", "13.2",
         "--N", "20", "--grid", "96x33", "--embed3d"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 96 * 33
    density = np.array([float(r["density"]) for r in rows]).reshape(96, 33)
    s = np.array([float(r["s"]) for r in rows]).reshape(96, 33)[:, 0]
    u = np.array([float(r["u"]) for r in rows]).reshape(96, 33)[0, :]
    assert np.all(density >= 0)
    # grid trapezoid normalisation
    total = np.trapezoid(np.trapezoid(density, u, axis=1), s)
    assert total == pytest.approx(1.0, abs=1e-3)
    # ground state has no interior nodes
    interior = density[:, 5:-5]
    assert interior.min() > 0

    # seam identification in 3-space: row (0, u) equals row (2 pi R, -u)
    points = np.array(
        [[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows]
    ).reshape(96, 33, 3)
    assert np.max(np.abs(points[0] - points[-1, ::-1])) < 1e-12


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) >= 12
    assert all(r["status"] == "pass" for r in rows)


def test_invalid_grid_spec(capsys):
    code, _, err = run_cli(
        ["eigenfunction", "--k", "1", "--a", "0.5", "--R", "2.0", "--N", "10",
         "--grid", "banana"],
        capsys,
    )
    assert code == 2
    assert "MSxMU" in err


def test_seedless_guard():
    proc = subprocess.run(
        [sys.executable, "-m", "moebius.cli", "mathieu", "--max-order", "1"],
        capture_output=True,
        text=True,
        env=child_env(MOEBIUS_SEEDLESS="7"),
        timeout=CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 2
    assert "MOEBIUS_SEEDLESS" in proc.stderr

    proc = subprocess.run(
        [sys.executable, "-m", "moebius.cli", "mathieu", "--max-order", "1"],
        capture_output=True,
        text=True,
        env=child_env(MOEBIUS_SEEDLESS="1"),
        timeout=CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr


def test_deterministic_output_files(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    env = child_env(SOURCE_DATE_EPOCH="1700000000")
    for target in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "moebius.cli", "spectrum", "--model", "effective",
             "--a", "0.75", "--circumference", "13.2", "--count", "12",
             "--output", str(target)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
        assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()
    manifest, rows = parse_csv(out_a.read_text())
    assert manifest["timestamp"] == "2023-11-14T22:13:20Z"
    assert len(rows) == 12
    assert float(rows[0]["value"]) == pytest.approx(4.384732657634105, rel=1e-11)


def test_mathieu_non_finite_q_is_invalid_input(capsys):
    code, _, err = run_cli(["mathieu", "--q", "nan", "--max-order", "2"], capsys)
    assert code == 2
    assert "non-finite" in err


def test_mathieu_overflowing_q_is_a_numerical_failure(capsys):
    # finite entries, but the recurrence eigenvalues overflow to -inf
    code, _, err = run_cli(["mathieu", "--q", "1e308", "--max-order", "2"], capsys)
    assert code == 3
    assert "numerical failure: non-finite eigenvalues" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mathieu", "--max-order", "1", "--threads", "-5"],
        ["spectrum", "--model", "fake", "--a", "0.75", "--R", "2.1", "--threads", "0"],
    ],
)
def test_threads_below_one_are_refused_when_parsing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads: must be >= 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # a 10^5 x 10^5 projection matrix, refused before the basis is enumerated
        ["spectrum", "--model", "true", "--a", "0.75", "--R", "2.1", "--N", "100000"],
        ["spectrum", "--model", "true", "--a", "0.75", "--R", "2.1", "--N", "20",
         "--ms", "10000000"],
        # 10^10 export rows, refused before the solve
        ["eigenfunction", "--k", "1", "--a", "0.75", "--R", "2.1", "--N", "10",
         "--grid", "100000x100000"],
    ],
)
def test_oversized_runs_are_refused_at_the_start(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "MiB cap" in err
