"""Each oracle passes on a correct result and fails on a perturbed one."""

import math

import numpy as np
import pytest

from benchmark import oracles

A, R = 0.75, 13.2 / (2.0 * math.pi)


def _perturb(values, index, rel):
    values = np.array(values, dtype=float)
    values[index] *= 1.0 + rel
    return values


def test_large_order_expansion_meets_the_reference_digits():
    # the expansion is used above order 10; at order 10 it must already agree
    r2, q = 100.0, oracles.Q
    expansion = r2 + q**2 / (2 * (r2 - 1)) + (5 * r2 + 7) * q**4 / (32 * (r2 - 1) ** 3 * (r2 - 4))
    for reference in (oracles.REFERENCE_A[10], oracles.REFERENCE_B[10]):
        assert abs(expansion - float(reference)) / 100.0 < 1e-15
    assert oracles.mathieu_char("ce", 11) > oracles.mathieu_char("ce", 10)


def test_flat_values_are_the_closed_form():
    values = oracles.flat_values(A, R, 6)
    e1, kappa = (math.pi / (2 * A)) ** 2, 1 / (2 * R) ** 2
    assert values[0] == pytest.approx(e1)                  # (m, n) = (0, 1)
    assert values[1] == values[2] == pytest.approx(e1 + 4 * kappa)   # (+-2, 1)


def test_table_oracle():
    assert oracles.check_table(list(oracles.TABLE_VALUES) + [99.0]) == []
    assert oracles.check_table(_perturb(oracles.TABLE_VALUES, 8, 1e-10))


def _sweep(rate):
    a_grid = np.geomspace(0.05, 0.5, 7)
    effective = np.array([oracles.effective_values(a, 3.0, 4) for a in a_grid])
    true = effective + 0.01 * a_grid[:, None] ** rate
    return a_grid, effective, true, np.abs(effective - true) / a_grid[:, None] ** 2, true


def test_sweep_oracle():
    a_grid, effective, true, ratios, dense = _sweep(2.0)
    assert oracles.check_sweep(3.0, a_grid, effective, true, ratios, dense) == []
    assert oracles.check_sweep(3.0, *_sweep(1.0))                         # slope 1
    assert oracles.check_sweep(3.0, a_grid, effective, true, ratios * 1.01, dense)
    shifted = effective.copy()
    shifted[2, 1] += 1e-9
    assert oracles.check_sweep(3.0, a_grid, shifted, true, ratios, dense)
    # a wrong higher true eigenvalue, with ratios made consistent with it
    wrong = true.copy()
    wrong[4, 3] *= 1 + 1e-8
    wrong_ratios = np.abs(effective - wrong) / a_grid[:, None] ** 2
    assert oracles.check_sweep(3.0, a_grid, effective, wrong, wrong_ratios, dense)
    swapped = true.copy()
    swapped[1, [2, 3]] = swapped[1, [3, 2]]
    assert any("ascending" in p for p in oracles.check_sweep(
        3.0, a_grid, effective, swapped, np.abs(effective - swapped) / a_grid[:, None] ** 2,
        swapped))


def test_slope_band_applies_to_the_lowest_indices():
    assert oracles.check_slopes([2.0] * oracles.SLOPE_INDICES + [1.4]) == []
    assert oracles.check_slopes([2.0, 2.0, 1.7])
    assert oracles.check_slopes([2.0, None])


def test_dense_reference_is_the_galerkin_spectrum():
    from moebius import galerkin
    from moebius.geometry import StripParams
    config = galerkin.GalerkinConfig(params=StripParams(a=0.4, R=3.0), n_basis=30)
    solved = galerkin.solve(config).eigenvalues[:10]
    dense = oracles.dense_true_values(0.4, 3.0, 30, 10)
    assert oracles.check_true_rows(solved, [dense], "solve") == []
    assert oracles.check_true_rows(_perturb(solved, 9, 1e-9), [dense], "solve")


# --- CLI output, produced in-process by the real command line -------------


def _cli_rows(tmp_path, argv, fmt="csv"):
    from moebius import cli
    out = tmp_path / f"out.{fmt}"
    assert cli.main(argv + ["--format", fmt, "--output", str(out)]) == 0
    text = out.read_text()
    return text, oracles.parse_output(text, fmt)


def _replace_first_value(text, column, fmt):
    """The output with one numeric cell of ``column`` changed by 1e-9."""
    rows = oracles.parse_output(text, fmt)
    old = rows[0][column]
    new = repr(float(old) * (1 + 1e-9))
    return text.replace(str(old), new, 1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_mathieu_oracle(tmp_path, fmt):
    text, rows = _cli_rows(tmp_path, ["mathieu", "--max-order", "14"], fmt)
    assert oracles.check_cli_mathieu(rows, 14) == []
    assert oracles.check_cli_mathieu(rows[:-1], 14)
    bad = oracles.parse_output(_replace_first_value(text, "a_m", fmt), fmt)
    assert oracles.check_cli_mathieu(bad, 14)


@pytest.mark.parametrize("model", ["fake", "effective"])
def test_cli_spectrum_oracle(tmp_path, model):
    argv = ["spectrum", "--model", model, "--a", "0.75", "--circumference", "13.2",
            "--count", "25"]
    text, rows = _cli_rows(tmp_path, argv, "json")
    assert oracles.check_cli_spectrum(rows, model, A, R, 25) == []
    bad = oracles.parse_output(_replace_first_value(text, "value", "json"), "json")
    assert oracles.check_cli_spectrum(bad, model, A, R, 25)
    swapped = [dict(row) for row in rows]
    swapped[0]["mode"], swapped[1]["mode"] = swapped[1]["mode"], swapped[0]["mode"]
    assert oracles.check_cli_spectrum(swapped, model, A, R, 25)


def test_cli_true_spectrum_oracle(tmp_path):
    argv = ["spectrum", "--model", "true", "--a", "0.75", "--circumference", "13.2",
            "--count", "20", "--N", "102"]
    text, rows = _cli_rows(tmp_path, argv)
    dense = oracles.dense_true_values(A, R, 102, 20)
    assert oracles.check_cli_spectrum(rows, "true", A, R, 20, dense) == []
    assert oracles.check_table([float(row["value"]) for row in rows]) == []
    assert oracles.check_cli_spectrum(rows[::-1], "true", A, R, 20, dense)
    assert oracles.check_cli_spectrum(rows[:-1], "true", A, R, 20, dense)
    bad = oracles.parse_output(_replace_first_value(text, "value", "csv"), "csv")
    assert oracles.check_cli_spectrum(bad, "true", A, R, 20, dense)


@pytest.mark.parametrize("kind", ["eigenvalue", "eigenvector"])
def test_cli_converge_oracle(tmp_path, kind):
    argv = ["converge", "--kind", kind, "--R", "3.0", "--a-min", "0.05",
            "--a-max", "0.4", "--steps", "4", "--grid", "geometric", "--K", "3",
            "--N", "30", "--threads", "1"]
    text, rows = _cli_rows(tmp_path, argv)
    grid = np.geomspace(0.05, 0.4, 4)
    dense = [oracles.dense_true_values(a, 3.0, 30, 3, close_pairs=True) for a in grid]
    assert oracles.check_cli_converge(rows, grid, 3, 3.0, dense, kind) == []
    assert oracles.check_cli_converge(rows[:-1], grid, 3, 3.0, dense, kind)
    for column in ("ratio", "lambda_true"):
        bad = oracles.parse_output(_replace_first_value(text, column, "csv"), "csv")
        assert oracles.check_cli_converge(bad, grid, 3, 3.0, dense, kind)


def test_cli_eigenfunction_oracle(tmp_path):
    argv = ["eigenfunction", "--k", "2", "--a", "1.0", "--R", "3.0", "--N", "30",
            "--grid", "96x33", "--embed3d"]
    _, rows = _cli_rows(tmp_path, argv)
    assert oracles.check_cli_eigenfunction(rows, 1.0, 3.0, 96, 33) == []
    assert oracles.check_cli_eigenfunction(rows, 1.0, 3.0, 33, 96)
    scaled = [dict(row, density=2.0 * float(row["density"])) for row in rows]
    assert oracles.check_cli_eigenfunction(scaled, 1.0, 3.0, 96, 33)
    moved = [dict(row) for row in rows]
    moved[0]["z"] = repr(float(moved[0]["z"]) + 1e-6)
    assert oracles.check_cli_eigenfunction(moved, 1.0, 3.0, 96, 33)


def test_cli_verify_oracle():
    rows = [{"module": "geometry", "check": "seam", "status": "pass", "detail": ""}]
    assert oracles.check_cli_verify(rows) == []
    assert oracles.check_cli_verify(rows + [dict(rows[0], status="FAIL")])
    assert oracles.check_cli_verify([])


def test_parse_output_rejects_malformed_files():
    with pytest.raises(ValueError):
        oracles.parse_output("m,a_m\n0,1.0\n", "csv")
    with pytest.raises(ValueError):
        oracles.parse_output('{"rows": []}', "json")
