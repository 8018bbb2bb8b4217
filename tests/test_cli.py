import ast
import contextlib
import csv
import errno
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebius import cli, convergence, galerkin, linalg, mathieu, models, quadrature
from moebius.cli import EXPORT_POINT_BYTES, main
from moebius.errors import CapacityError
from moebius.geometry import StripParams

TABLE_R = repr(13.2 / (2 * np.pi))
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 120
GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)
INTEGER_COLUMNS = {"m", "index", "n", "multiplicity"}


def child_env(**variables):
    """A clean environment for a ``python -m moebius.cli`` child process.

    It holds only PATH, a PYTHONPATH with this checkout's ``src`` first (so
    the child runs the code under test, installed or not, whatever the
    working directory) and the variables under test. Nothing else leaks in
    from the outer shell, such as a stray SOURCE_DATE_EPOCH.
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


@pytest.mark.parametrize("name", list(regenerate.COMMANDS))
def test_csv_and_json_agree(capsys, name):
    argv = regenerate.COMMANDS[name]
    code, out_csv, _ = run_cli(argv, capsys)
    assert code == 0
    manifest, rows = parse_csv(out_csv)
    header = next(csv.reader([out_csv.splitlines()[1]]))

    code, out_json, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out_json)
    assert payload["manifest"]["parameters"] == manifest["parameters"]
    assert len(payload["rows"]) == len(rows) > 0

    for csv_row, json_row in zip(rows, payload["rows"]):
        assert list(json_row) == header
        for column, cell in csv_row.items():
            value = json_row[column]
            if cell == "":
                assert value is None
            elif column in INTEGER_COLUMNS:
                assert type(value) is int and int(cell) == value
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert type(value) is str and cell == value


def test_mathieu_reference_row(capsys):
    code, out, _ = run_cli(["mathieu", "--q", "-0.25", "--max-order", "10"], capsys)
    assert code == 0
    manifest, rows = parse_csv(out)
    assert manifest["command"] == "mathieu"
    assert manifest["parameters"]["q"] == -0.25
    assert len(rows) == 11
    assert float(rows[0]["a_m"]) == pytest.approx(-0.0310393954756173, rel=1e-13)
    assert rows[0]["b_m"] == ""


def test_negative_q_in_exponent_form_needs_the_equals_form(capsys, monkeypatch):
    # argparse reads a leading '-' with an exponent as an option
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")  # one timestamp for both runs
    assert cli.build_parser().parse_args(["mathieu", "--q=-1e10"]).q == -1e10
    for q in ("-1e10", "-5e-324"):
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(["mathieu", "--q", q])
        assert exit_info.value.code == 2
        assert "argument --q: expected one argument" in capsys.readouterr().err
    _, equals, _ = run_cli(["mathieu", "--q=-2.5e-1", "--max-order", "3"], capsys)
    _, spaced, _ = run_cli(["mathieu", "--q", "-0.25", "--max-order", "3"], capsys)
    assert parse_csv(equals) == parse_csv(spaced)


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


@pytest.mark.parametrize("basis", ["0", "-4"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "true", "--a", "0.75", "--R", "2.1", "--count", "1"],
    ["eigenfunction", "--k", "1", "--a", "0.75", "--R", "2.1"],
    ["converge", "--steps", "3", "--K", "3"],
])
def test_basis_sizes_below_one_are_refused_first(capsys, argv, basis):
    # once compared with a count or an index before being checked itself
    code, out, err = run_cli(argv + ["--N", basis], capsys)
    assert (code, out, err) == (2, "", f"error: basis size must be >= 1, got {basis}\n")


@pytest.mark.parametrize("model", ["fake", "effective"])
@pytest.mark.parametrize("options", [["--N", "5"], ["--ms", "3"], ["--N", "5", "--mu", "7"]])
def test_spectrum_refuses_galerkin_options_off_the_true_model(capsys, model, options):
    # the flat and effective models take no basis or quadrature; a run that
    # names one would record it in the manifest without using it
    code, out, err = run_cli(
        ["spectrum", "--model", model, "--a", "0.75", "--circumference", "13.2",
         "--count", "3", *options],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "apply only to --model true" in err and options[0] in err


README_EXPORT = ["eigenfunction", "--k", "1", "--a", "1.3", "--R", "2.8647889756541165",
                 "--N", "96", "--grid", "192x65", "--embed3d"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_process_writes_what_main_writes(tmp_path, monkeypatch, fmt):
    # the process ends without interpreter teardown once its output is
    # flushed and closed; not a byte may be lost, to a pipe or a file
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = README_EXPORT + ["--format", fmt]
    assert main(argv + ["--output", str(tmp_path / "main.out")]) == 0
    expected = (tmp_path / "main.out").read_bytes()
    for output in ([], ["--output", str(tmp_path / "child.out")]):
        proc = subprocess.run(
            [sys.executable, "-m", "moebius.cli", *argv, *output],
            capture_output=True,
            env=child_env(SOURCE_DATE_EPOCH="1700000000"),
            timeout=CHILD_TIMEOUT_S,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        written = (tmp_path / "child.out").read_bytes() if output else proc.stdout
        assert written == expected
    assert sorted(path.name for path in tmp_path.iterdir()) == ["child.out", "main.out"]


def test_a_process_refuses_invalid_input_with_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "moebius.cli", "mathieu", "--max-order", "-1"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --max-order must be >= 0, got -1\n"


def test_the_console_script_is_the_process_entry():
    # tomllib is missing on Python 3.10, so the line is read as text
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    target = re.search(r'^moebius = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    assert target is not None and target.group(1) == "moebius.cli"
    assert callable(getattr(cli, target.group(2)))
    # the one statement under ``if __name__ == "__main__":`` calls it
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block).splitlines()[1:] == [f"    {target.group(2)}()"]


def test_a_reader_closing_stdout_ends_the_run_quietly():
    # the README export, read for 100 bytes: the rest of its megabyte meets
    # a closed pipe, which ends the run with exit 1 and no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "moebius.cli", "eigenfunction", "--k", "1", "--a", "1.3",
         "--R", "2.8647889756541165", "--N", "96", "--grid", "192x65", "--embed3d"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        proc.kill()
    assert head.startswith(b"# manifest: ") and len(head) == 100
    assert proc.returncode == 1
    assert err == b""


class FailingStdout(io.StringIO):
    """A stdout whose every write fails with ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error, status, message", [
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 2,
     f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"),
    (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), 1, ""),
])
def test_a_stdout_that_cannot_be_written_ends_the_run(capsys, monkeypatch, error, status, message):
    # a full device is refused in one line, as an unwritable --output is; a
    # reader that closed stdout ends the run quietly
    argv = ["mathieu", "--max-order", "2"]
    monkeypatch.setattr(sys, "stdout", FailingStdout(error))
    assert main(argv) == status
    assert capsys.readouterr().err == message
    # through the process entry, which ends the process with main's status
    ended = []
    monkeypatch.setattr(cli.os, "_exit", ended.append)
    monkeypatch.setattr(sys, "argv", ["moebius", *argv])
    cli.run()
    assert ended == [status]
    assert capsys.readouterr().err == message


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
def test_a_process_writing_to_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "moebius.cli", "mathieu", "--max-order", "2"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


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
    argv = ["converge", "--kind", "eigenvalue", "--R", repr(18 / (2 * np.pi)),
            "--a-min", "0.2", "--a-max", "0.5", "--steps", "4", "--grid", "geometric",
            "--K", "3", "--N", "16"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    manifest, rows = parse_csv(out)
    samples = [r for r in rows if r["record"] == "sample"]
    slopes = [r for r in rows if r["record"] == "slope"]
    assert len(samples) == 4 * 3
    assert len(slopes) == 3
    assert all(float(r["ratio"]) > 0 for r in samples)
    assert all(r["slope"] != "" for r in slopes)

    # --threads accepts only 1, which changes no row, only the manifest's field
    code, pinned, _ = run_cli(argv + ["--threads", "1"], capsys)
    assert code == 0
    assert pinned.split("\n", 1)[1] == out.split("\n", 1)[1]
    assert parse_csv(pinned)[0]["parameters"] == {**manifest["parameters"], "threads": 1}
    assert manifest["parameters"]["threads"] is None


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


def test_output_is_the_same_with_the_blas_threads_unset_or_one():
    # at N = 400 a second BLAS thread sums the eigensolve in another order;
    # the CLI pins one thread unless the caller sets a count
    argv = [sys.executable, "-m", "moebius.cli", "spectrum", "--model", "true", "--a", "0.75",
            "--circumference", "13.2", "--count", "20", "--N", "400"]
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run(argv, capture_output=True, env=child_env(
            SOURCE_DATE_EPOCH="1700000000", **threads), timeout=CHILD_TIMEOUT_S)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# runs one command and prints the names in sys.modules once it has finished
MODULE_PROBE = (
    "import sys\n"
    "from moebius.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)))\n"
    "raise SystemExit(code)\n"
)
CONVERGE_SMALL = ["--R", "2.0", "--a-min", "0.2", "--a-max", "0.5", "--steps", "4",
                  "--K", "2", "--N", "12"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mathieu", "--max-order", "3"],
        ["spectrum", "--model", "fake", "--a", "0.75", "--R", "2.1", "--count", "5"],
        ["spectrum", "--model", "effective", "--a", "0.75", "--R", "2.1", "--count", "5"],
        ["spectrum", "--model", "true", "--a", "0.75", "--R", "2.1", "--count", "5",
         "--N", "12"],
        ["converge", "--kind", "eigenvalue", *CONVERGE_SMALL],
        ["converge", "--kind", "eigenvector", *CONVERGE_SMALL],
        ["converge", "--kind", "eigenvalue", *CONVERGE_SMALL, "--threads", "1"],
        ["eigenfunction", "--k", "1", "--a", "0.5", "--R", "2.0", "--N", "10",
         "--grid", "8x5", "--embed3d"],
        ["verify"],
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, *argv, "--output", str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "moebius.cli" in loaded
    assert "numpy.ma" not in loaded
    assert "concurrent.futures" not in loaded  # sweeps start no thread pool
    if argv[0] == "mathieu":
        assert {m for m in loaded if m.startswith("moebius")} == {
            "moebius", "moebius.cli", "moebius.errors", "moebius.linalg", "moebius.mathieu",
        }
    if argv[0] == "mathieu" or argv[:3] == ["spectrum", "--model", "fake"]:
        assert not loaded & {"moebius.galerkin", "moebius.convergence", "moebius.verify"}
    if argv[:3] == ["spectrum", "--model", "fake"]:
        assert not loaded & {"moebius.mathieu", "moebius.linalg"}
    if argv[:3] == ["spectrum", "--model", "true"] or argv[0] == "eigenfunction":
        assert "moebius.mathieu" not in loaded  # only effective modes need the Mathieu solver
    if argv[0] == "verify":
        assert "numpy.random" not in loaded


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999"])
def test_malformed_source_date_epoch_is_refused_before_the_run(capsys, monkeypatch, epoch):
    def not_reached(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    monkeypatch.setattr(mathieu, "char_values", not_reached)
    code, out, err = run_cli(["mathieu", "--max-order", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: SOURCE_DATE_EPOCH") and err.count("\n") == 1


@pytest.mark.parametrize("fmt, strip, basis, grid", [
    pytest.param(fmt, *export, id=name + fmt)
    for name, export in (
        # the README export, where the guard charges EXPORT_POINT_BYTES per point
        ("", (["--a", "1.3", "--R", "2.8647889756541165"], "96", (192, 65))),
        # a long thin grid, where the basis factor tables outweigh the rows
        ("20000x2-", (["--a", "0.75", "--circumference", "13.2"], "300", (20000, 2))),
    )
    for fmt in ("csv", "json")
])
def test_export_peak_memory_is_within_the_capacity_bound(tmp_path, fmt, charges, strip, basis,
                                                         grid):
    grid_s, grid_u = grid
    argv = ["eigenfunction", "--k", "1", *strip, "--N", basis, "--grid", f"{grid_s}x{grid_u}",
            "--embed3d", "--format", fmt, "--output", str(tmp_path / f"density.{fmt}")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert charges[0] == (EXPORT_POINT_BYTES * grid_s * grid_u, f"the {grid_s}x{grid_u} export rows")
    assert peak <= max(needed for needed, _ in charges)


def test_a_refused_chunk_names_its_points_and_the_run_sizes(capsys, monkeypatch, charges):
    # the user's --ms and --mu, the basis size and the chunk's point count,
    # never a quadrature that no point uses
    argv = ["converge", "--kind", "eigenvalue", "--N", "60", "--steps", "8", "--ms", "400",
            "--mu", "40", "--a-min", "0.5", "--a-max", "0.6", "--K", "3"]
    assert run_cli(argv, capsys)[0] == 0
    [(needed, what)] = [charge for charge in charges if charge[1].startswith("the fields")]
    assert max(charges)[0] == needed
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", needed - 1)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: the fields and kernels at points=8, N=6[01], m_s=400, m_u=40, "
        r"distinct n=\d+ need about [\d.]+ MiB, above the [\d.]+ MiB cap\n", err
    )


def test_a_basis_past_the_largest_double_is_refused(capsys):
    code, out, err = run_cli(["spectrum", "--model", "true", "--a", "0.5", "--R", "2",
                               "--N", str(10**400)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: the sector blocks of one point at N={10**400} need about inf MiB, "
                   "above the 512 MiB cap\n")


@pytest.mark.parametrize("kind", [
    "missing directory",
    "directory",
    pytest.param("read-only directory", marks=pytest.mark.skipif(
        os.geteuid() == 0, reason="root writes into read-only directories")),
])
def test_an_unwritable_output_is_invalid_input(capsys, tmp_path, kind):
    # one error line, not a traceback, and no temporary file left behind
    folder = tmp_path / "folder"
    folder.mkdir()
    target = {
        "missing directory": tmp_path / "missing" / "out.csv",
        "directory": folder,
        "read-only directory": folder / "out.csv",
    }[kind]
    folder.chmod(0o500 if kind == "read-only directory" else 0o700)
    try:
        code, out, err = run_cli(["mathieu", "--max-order", "2", "--output", str(target)], capsys)
    finally:
        folder.chmod(0o700)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --output") and len(err.splitlines()) == 1
    assert [path.name for path in tmp_path.rglob("*")] == ["folder"]


def test_mathieu_non_finite_q_is_invalid_input(capsys):
    code, _, err = run_cli(["mathieu", "--q", "nan", "--max-order", "2"], capsys)
    assert code == 2
    assert "non-finite" in err


def test_mathieu_huge_q_is_refused_before_any_solve(capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("a Mathieu recurrence was solved")

    monkeypatch.setattr(linalg, "eig_tridiagonal", not_reached)
    monkeypatch.setattr(mathieu, "eig_tridiagonal", not_reached)
    # 1e12 is past what the 4096-row cap resolves for every class
    for q in ("1e200", "-1e13", "1e12", "-1e12"):
        start = time.perf_counter()
        code, out, err = run_cli(["mathieu", f"--q={q}", "--max-order", "2"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: Mathieu values at |q|=") and err.count("\n") == 1


def test_mathieu_orders_past_the_truncation_cap_are_refused_unlisted(capsys):
    # every order up to 1e7, listed, took seconds and 195 MiB before the refusal
    tracemalloc.start()
    try:
        code, out, err = run_cli(["mathieu", "--max-order", "10000000"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: 5000001 Mathieu values of class (ce, parity 0) need a ")
    assert peak < 10 * 2**20


def test_mathieu_overflowing_q_is_a_numerical_failure(capsys, monkeypatch):
    # finite entries, but the recurrence eigenvalues overflow to -inf
    code, _, err = run_cli(["mathieu", "--q", "1e308", "--max-order", "2"], capsys)
    assert code == 3
    assert "numerical failure: non-finite eigenvalues" in err
    # non-finite q is invalid input, as before
    for q in ("nan", "inf", "-inf"):
        code, _, err = run_cli(["mathieu", f"--q={q}", "--max-order", "2"], capsys)
        assert code == 2 and "non-finite" in err

    def not_reached(*args, **kwargs):
        raise AssertionError("a Mathieu recurrence was built")

    # the whole band from finfo.max / (1 + sqrt 2), about 7.4e307, fails
    # before a recurrence is built, without numpy's overflow warning
    monkeypatch.setattr(mathieu, "_recurrence", not_reached)
    huge = float(np.finfo(float).max)
    for q in (7.5e307, 1.7e308, huge, -7.5e307, -1.7e308, -huge):
        start = time.perf_counter()
        code, out, err = run_cli(["mathieu", f"--q={q!r}", "--max-order", "2"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: non-finite eigenvalues") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--kind", "eigenvalue", "--steps", "2", "--threads", "-5"],
        ["converge", "--kind", "eigenvector", "--steps", "2", "--threads", "0"],
        ["converge", "--kind", "eigenvalue", "--steps", "2", "--threads", "2"],
    ],
)
def test_threads_other_than_one_are_refused_when_parsing(capsys, monkeypatch, argv):
    def not_reached(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(convergence, "require_sweep_capacity", not_reached)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage: ") == 1
    assert f"--threads: invalid choice: {argv[-1]} (choose from 1)" in captured.err


@pytest.mark.parametrize("command", ["mathieu", "verify"])
def test_threads_is_an_option_of_converge_alone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --threads 2" in captured.err


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


@pytest.mark.parametrize("argv", [
    # ran 2 min 25 s in the Newton iteration of the rule, then exited 0
    ["spectrum", "--model", "true", "--a", "0.75", "--R", "2", "--N", "10", "--count", "3",
     "--mu", "100000"],
    ["converge", "--steps", "3", "--K", "2", "--N", "10", "--mu", "5000"],
    ["eigenfunction", "--k", "1", "--a", "0.75", "--R", "2", "--N", "10", "--grid", "4x3",
     "--mu", "5000"],
])
def test_quadrature_orders_past_the_cap_are_refused_before_any_rule_or_field(
        capsys, monkeypatch, argv):
    def not_reached(*args, **kwargs):
        raise AssertionError("a quadrature rule or a field array was built")

    monkeypatch.setattr(quadrature, "_newton_legendre", not_reached)
    monkeypatch.setattr(galerkin, "_fields", not_reached)
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: a Gauss-Legendre rule of order {argv[-1]} is above the cap of "
                   f"{quadrature._MAX_ORDER} nodes\n")


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, -0.0]


@pytest.mark.parametrize(
    "table",
    [
        {"value": np.array([])},
        {"k": [1, 2, 3], "x": np.array([0.1, np.nan, -np.inf]), "flag": [True, False, None]},
        {"label": ['a, "b"', "é{}", None], "n, {m}": [None, 5, -7]},
        {"s": np.linspace(0.0, 1.0, 2 * cli._ROW_CHUNK + 3), "i": np.arange(2 * cli._ROW_CHUNK + 3)},
        # float columns alone, repeating values of distinct bits across chunks,
        # one of them a strided view as the embedded coordinates are
        {"x": np.tile(SPECIAL_FLOATS, cli._ROW_CHUNK // 2 + 1),
         "y": np.repeat(SPECIAL_FLOATS, cli._ROW_CHUNK // 2 + 1),
         "z": np.arange(21.0 * (cli._ROW_CHUNK // 2 + 1)).reshape(-1, 3).T[1]},
        {"x": np.array(SPECIAL_FLOATS), "label": ["a", "b", None, "c", "d", "e, f", ""]},
        {"x": np.array([-0.0])},
    ],
)
def test_streamed_tables_match_whole_document_encoders(table):
    # the streamed text equals encoding the whole table at once
    manifest = {"command": "test", "parameters": {"N": 3, "grid": "2x2"}, "version": "0",
                "timestamp": "1970-01-01T00:00:00Z"}
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    rows = list(zip(*columns))
    payload = {"manifest": manifest, "rows": [dict(zip(table, row)) for row in rows]}
    expected_json = json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    buffer.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    csv.writer(buffer, lineterminator="\n").writerows([list(table), *rows])
    for fmt, expected in (("json", expected_json), ("csv", buffer.getvalue())):
        handle = io.StringIO()
        cli._render(manifest, table, fmt, handle)
        assert handle.getvalue() == expected


@pytest.mark.parametrize("grid", ["uniform", "geometric"])
def test_runaway_converge_steps_are_refused_before_the_grid(capsys, monkeypatch, grid):
    def not_reached(*args, **kwargs):
        raise AssertionError("the half-width grid was built")

    monkeypatch.setattr(convergence, "geometric_grid", not_reached)
    monkeypatch.setattr(cli.np, "linspace", not_reached)
    code, out, err = run_cli(["converge", "--steps", str(10**12), "--grid", grid], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: a sweep of {10**12} half-widths at N=72 is estimated above the cap "
        "of 1e+13 operations\n"
    )


@pytest.mark.parametrize("model", ["fake", "true"])
def test_thin_strip_flat_box_holds_a_few_hundred_harmonics(capsys, monkeypatch, model):
    # at a = 1e-9 a box of every harmonic up to 2R sqrt(cap) would span
    # about 6e9 harmonics, and one of every harmonic whose value rounds
    # under the cap about 130 at 1e-9 and 1.3e5 at 1e-14; the box holds the
    # rows of the longitudinal table, a few dozen
    # (_modes lays its cells out through _cells, one column per table row)
    widths = []
    cells = models._cells

    def recorded(rows, cols):
        widths.append(int(cols.max()))
        return cells(rows, cols)

    monkeypatch.setattr(models, "_cells", recorded)
    for a in ("1e-9", "1e-14"):
        argv = ["spectrum", "--model", model, "--a", a, "--R", "2.0", "--count", "5"]
        start = time.perf_counter()
        code, out, err = run_cli(argv + (["--N", "20"] if model == "true" else []), capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2 + 5
    assert widths and max(widths) < 1000


def test_thin_strip_entry_lists_the_lowest_harmonics_first(capsys):
    # at a = 1e-9 the n = 1 values of the table's harmonics round to one
    # double; they are listed by harmonic, m = 0 and then the +/-2 pair
    argv = ["spectrum", "--model", "fake", "--a", "1e-9", "--R", "2", "--count", "5",
            "--format", "csv"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [row["mode"] for row in rows] == [
        f"fake(m={m},n=1)" for m in (0, -2, 2, -4, 4)
    ]
    # the entry holds the even harmonics up to the table's reach, count + 17
    assert {(row["value"], row["multiplicity"]) for row in rows} == {(repr(2.467401100272339e18), "23")}


@pytest.mark.parametrize("name, argv", [
    ("half-width a", ["spectrum", "--model", "fake", "--a", "1e-300", "--circumference", "13.2",
                      "--count", "5"]),
    ("half-width a", ["spectrum", "--model", "true", "--a", "1e-300", "--circumference", "13.2",
                      "--count", "5", "--N", "20"]),
    ("half-width a", ["spectrum", "--model", "effective", "--a", "1e-300",
                      "--circumference", "13.2", "--count", "5"]),
    ("half-width a", ["spectrum", "--model", "fake", "--a", "1e-160", "--circumference", "13.2",
                      "--count", "5"]),
    ("half-width a", ["converge", "--a-min", "1e-300", "--a-max", "0.5", "--steps", "3",
                      "--K", "2", "--N", "10"]),
    ("half-width a", ["eigenfunction", "--k", "1", "--a", "1e-300", "--R", "2.1", "--N", "10",
                      "--grid", "4x3"]),
    ("radius R", ["spectrum", "--model", "effective", "--a", "0.75", "--circumference", "1e-300",
                  "--count", "5"]),
])
def test_strips_whose_energy_scale_overflows_are_invalid_input(capsys, name, argv):
    # (pi / 2a)^2 or (1 / 2R)^2 past the largest double is refused when the
    # strip is built
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} is too small") and err.count("\n") == 1


@pytest.mark.parametrize("name, argv", [
    ("half-width a", ["spectrum", "--model", "fake", "--a", "1e158", "--R", "1", "--count", "5"]),
    ("half-width a", ["spectrum", "--model", "fake", "--a", "1e165", "--R", "1", "--count", "5"]),
    ("radius R", ["spectrum", "--model", "effective", "--a", "0.5", "--R", "1e155",
                  "--count", "5"]),
])
def test_strips_whose_energy_scale_underflows_are_invalid_input(capsys, name, argv):
    # (pi / 2a)^2 or (1 / 2R)^2 below the least normal double was printed
    # with lost digits, or ended in a warning or a traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and not caught
    assert err.startswith(f"error: {name} is too large") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["spectrum", "--model", "true", "--count", "5", "--N", "20", "--a", "{a}"],
    ["converge", "--kind", "eigenvalue", "--a-min", "{a}", "--a-max", "1e-60", "--steps", "3",
     "--K", "2", "--N", "10"],
    ["converge", "--kind", "eigenvector", "--a-min", "{a}", "--a-max", "1e-60", "--steps", "3",
     "--K", "2", "--N", "10"],
    ["eigenfunction", "--k", "1", "--a", "{a}", "--N", "10", "--grid", "4x3"],
])
def test_galerkin_runs_on_strips_too_thin_to_square_are_refused(capsys, command):
    # every flat basis is enumerated at any half-width; the Galerkin solve
    # squares (n pi / 2a)^2 in its residuals and divides a sweep's gaps by
    # a^2, so from (n pi / 2a)^2 = 1e150 on it is refused, and below that it
    # runs without an overflow (a RuntimeWarning fails the test)
    code, out, err = run_cli([item.format(a="1e-76") for item in command] + ["--R", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: half-width a is too small for the Galerkin solve: at a=1e-76 ")
    assert err.count("\n") == 1
    code, _, err = run_cli([item.format(a="1e-70") for item in command] + ["--R", "2"], capsys)
    assert code == 0 and err == ""


@pytest.mark.parametrize("command, answered", [
    (["spectrum", "--model", "true", "--a", "0.5", "--N", "10", "--count", "3"], ["1e-76", "1e76"]),
    # at R = 1e-76 a sweep's effective modes are refused for their size
    (["converge", "--kind", "eigenvalue", "--a-min", "0.2", "--a-max", "0.5", "--steps", "3",
      "--K", "2", "--N", "10"], ["1e76"]),
    (["converge", "--kind", "eigenvector", "--a-min", "0.2", "--a-max", "0.5", "--steps", "3",
      "--K", "2", "--N", "10"], ["1e76"]),
    (["eigenfunction", "--k", "1", "--a", "0.5", "--N", "10", "--grid", "4x3"], ["1e-76", "1e76"]),
    (["eigenfunction", "--k", "1", "--a", "1e150", "--N", "10", "--grid", "4x3"], ["1e76"]),
])
def test_galerkin_runs_on_radii_whose_fields_overflow_are_refused(capsys, command, answered):
    # the fields divide by R^4, whose Python power overflowed into a
    # traceback from R = 1.16e77 on, and square terms of size a / R^2, which
    # ended in RuntimeWarnings and non-finite matrix entries
    a = "1e+150" if "1e150" in command else "0.5"  # the widest half-width
    for R in ("1.2e77", "1e100", "1e150", "1e-78", "1e-90", "1e-120", "1e-150"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(command + ["--R", R], capsys)
        assert (code, out, caught) == (2, "", [])
        assert err == (f"error: strip out of range for the Galerkin solve: at a={a}, "
                       f"R={float(R):.3g} its fields overflow\n")
    for R in answered:
        code, out, err = run_cli(command + ["--R", R], capsys)
        assert code == 0 and out and err == ""


def test_strips_whose_residual_fields_overflow_are_refused_before_any_is_built(capsys, monkeypatch):
    # the squared residual fields overflowed into residual inf, and fa^3 into
    # residual 0 beside a negative lowest value, both at exit 0
    def not_reached(*args, **kwargs):
        raise AssertionError("the residual factor tables were built")

    argv = ["spectrum", "--model", "true", "--N", "10", "--count", "3"]
    with monkeypatch.context() as patched:
        patched.setattr(galerkin, "_sample_factors", not_reached)
        for a, R in (("1e-60", "1e-75"), ("1e+150", "1")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(argv + ["--a", a, "--R", R], capsys)
            assert (code, out, caught) == (2, "", [])
            assert err == (f"error: strip out of range for the residual norms: at a={a}, R={R} "
                           f"its residual fields overflow\n")
    # a strip whose fields reach 3e151, below the overflow at 1.3e154, is
    # still printed: its residuals are of the scale (1 / 2R)^2 = 2.5e95, the
    # transverse term (n pi / 2a)^2 = 2.5e144 entering through its gap to
    # the eigenvalue alone
    code, out, err = run_cli(argv + ["--a", "1e-72", "--R", "1e-48"], capsys)
    assert code == 0 and err == ""
    assert all(1e94 < float(row["residual"]) < 1e97 for row in parse_csv(out)[1])


def test_converge_window_restricts_the_slope_fit(capsys):
    radius = 18 / (2 * np.pi)
    argv = ["converge", "--kind", "eigenvalue", "--R", repr(radius), "--a-min", "0.1",
            "--a-max", "0.5", "--steps", "6", "--grid", "geometric", "--K", "3", "--N", "16"]
    sweep = convergence.eigenvalue_sweep(radius, convergence.geometric_grid(0.1, 0.5, 6), 3, 16)
    # the grid is 0.1, 0.138, 0.190, 0.263, 0.362, 0.5: the first window
    # holds four points, the second two
    for window, fitted in (((0.15, 0.5), True), ((0.3, 0.5), False)):
        code, out, _ = run_cli(argv + ["--window", *map(repr, window)], capsys)
        assert code == 0
        manifest, rows = parse_csv(out)
        assert manifest["parameters"]["window"] == list(window)
        slopes = [r["slope"] for r in rows if r["record"] == "slope"]
        if fitted:
            assert [float(s) for s in slopes] == [convergence.fit_rate(sweep, n, window)
                                                  for n in (1, 2, 3)]
        else:
            assert slopes == ["", "", ""]
    # a non-finite end is refused before the sweep: JSON has no text for it
    for window, end in ((("nan", "0.5"), "nan"), (("0.1", "inf"), "inf")):
        code, out, err = run_cli(argv + ["--window", *window], capsys)
        assert (code, out, err) == (2, "", f"error: --window must be finite, got {end}\n")


def test_a_reversed_window_is_refused_before_the_sweep(capsys, monkeypatch):
    # it once left every slope cell empty at exit 0
    def not_reached(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(convergence, "eigenvalue_sweep", not_reached)
    argv = ["converge", "--kind", "eigenvalue", "--steps", "6", "--K", "3", "--N", "16",
            "--window", "0.5", "0.15"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: --window needs LO <= HI, got 0.5 0.15\n")
    argv[-2:] = ["0.3", "0.3"]  # LO = HI is admitted; it holds no grid point and fits nothing
    monkeypatch.undo()
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [r["slope"] for r in parse_csv(out)[1] if r["record"] == "slope"] == ["", "", ""]


def test_overflowing_longitudinal_energies_are_refused_before_any_box(capsys, monkeypatch):
    # (1 / 2R)^2 is finite at 2 pi R = 1e-153, but the reach of count 5,
    # (1 / 2R)^2 (5 + 16)^2, is not
    def not_reached(*args, **kwargs):
        raise AssertionError("an effective box was built")

    monkeypatch.setattr(mathieu, "char_values", not_reached)
    argv = ["spectrum", "--model", "effective", "--a", "0.75", "--circumference", "1e-153",
            "--count", "5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: the longitudinal energies of 5 effective modes overflow on a "
        "circumference of 1e-153\n"
    )
    # a numpy-scalar radius is refused alike, with no RuntimeWarning
    for R in (1e-153, np.float64(1e-153)):
        for spectrum in (models.fake_spectrum, models.effective_spectrum):
            with pytest.raises(CapacityError, match="overflow on a circumference of 6.28e-153"):
                spectrum(StripParams(a=0.75, R=R), 20)


def test_longitudinal_table_past_the_cap_is_refused_before_it_is_built(capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("a longitudinal table was built")

    monkeypatch.setattr(models, "_table", not_reached)
    argv = ["spectrum", "--model", "fake", "--a", "0.75", "--circumference", "13.2",
            "--count", "100000000"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the longitudinal table and bounds of 100000000 flat modes need ")
    assert err.count("\n") == 1


def test_effective_box_past_the_integers_is_refused(capsys):
    # at 2 pi R = 1e-150 the effective box has about 1e145 rows, past any
    # integer cast (e1 = 4.4 is lost beside a_0(q) / (2R)^2 = -3e299, so
    # the values cannot be told apart); it is reckoned in floats and refused
    argv = ["spectrum", "--model", "effective", "--a", "0.75", "--circumference", "1e-150",
            "--count", "5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and not caught
    assert err.startswith("error: the effective modes below ") and err.endswith("MiB cap\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("grid", ["uniform", "geometric"])
@pytest.mark.parametrize("option", ["--a-min", "--a-max"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_grid_ends_are_refused_before_the_grid(capsys, monkeypatch, grid, option, value):
    def not_reached(*args, **kwargs):
        raise AssertionError("the half-width grid was built")

    monkeypatch.setattr(convergence, "geometric_grid", not_reached)
    monkeypatch.setattr(cli.np, "linspace", not_reached)
    ends = {"--a-min": "0.1", "--a-max": "0.5", option: value}
    argv = ["converge", "--kind", "eigenvalue", "--steps", "3", "--K", "2", "--N", "10",
            "--grid", grid] + [item for pair in ends.items() for item in pair]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must be finite, got {float(value)}\n"


# Values for the CLI fuzz: ordinary ones, the edges that earlier changes
# refused (0, negatives, nan, +/-inf, a subnormal, and the underflow and
# overflow edges of the fields), and sizes past each cap (bytes, sweep
# work, Mathieu truncation, Gauss-Legendre order), never just under one,
# where a run would take long
FUZZ_FLOATS = st.sampled_from([0.05, 0.3, 0.75, 1.3, 2.0, 6.5, 0.0, -1.0, -0.75, float("nan"),
                               float("inf"), float("-inf"), 1e-320, 1e-78, 1e77, 1e150])
PAST_COUNT, PAST_ORDER = 10**9, 10**8  # past every cap on a count or a quadrature order
FUZZ_COUNTS = st.sampled_from([1, 2, 5, 12, -1, 0, PAST_COUNT])
FUZZ_ORDERS = st.sampled_from([1, 2, 8, 5000, -1, 0, PAST_ORDER])


def joined(*parts):
    """The argument lists drawn from ``parts``, one after another."""
    return st.tuples(*parts).map(lambda drawn: sum(drawn, []))


def option(name, values, required=False):
    """``--name=value`` for a value drawn from ``values``, or, unless
    ``required``, nothing."""
    drawn = values.map(lambda value: [f"--{name}={value}"])
    return drawn if required else st.one_of(st.just([]), drawn)


def radius(required=True):
    return st.one_of(option("R", FUZZ_FLOATS, required), option("circumference", FUZZ_FLOATS, True))


# --window takes its ends as two arguments, where "-inf" would read as an option
FUZZ_WINDOW = st.lists(FUZZ_FLOATS.filter(lambda v: v != float("-inf")), min_size=2, max_size=2)
FUZZ_GRAMMAR = {  # verify takes --format alone, and runs as the fuzz's explicit examples
    "mathieu": [option("q", FUZZ_FLOATS), option("max-order", FUZZ_COUNTS)],
    "spectrum": [
        option("model", st.sampled_from(["fake", "effective", "true"]), True),
        option("a", FUZZ_FLOATS, True), radius(), option("count", FUZZ_COUNTS),
        st.one_of(st.just([]), joined(  # the options of --model true, together
            option("N", FUZZ_COUNTS, True), option("ms", FUZZ_ORDERS), option("mu", FUZZ_ORDERS))),
    ],
    "converge": [
        option("kind", st.sampled_from(["eigenvalue", "eigenvector"])), radius(False),
        option("a-min", FUZZ_FLOATS), option("a-max", FUZZ_FLOATS), option("steps", FUZZ_COUNTS),
        option("grid", st.sampled_from(["uniform", "geometric"])), option("K", FUZZ_COUNTS),
        option("N", FUZZ_COUNTS), option("ms", FUZZ_ORDERS), option("mu", FUZZ_ORDERS),
        st.one_of(st.just([]), FUZZ_WINDOW.map(lambda ends: ["--window", *map(str, ends)])),
        option("threads", st.just(1)),
    ],
    "eigenfunction": [
        option("k", FUZZ_COUNTS, True), option("a", FUZZ_FLOATS, True), radius(),
        option("N", FUZZ_COUNTS, True),
        option("grid", st.sampled_from(["8x5", "2x2", "1x5", "x5", "100000x100000"])),
        st.sampled_from([[], ["--embed3d"]]), option("ms", FUZZ_ORDERS), option("mu", FUZZ_ORDERS),
    ],
}
FUZZ_ARGV = st.sampled_from(sorted(FUZZ_GRAMMAR)).flatmap(lambda name: joined(
    st.just([name]), *FUZZ_GRAMMAR[name], option("format", st.sampled_from(["csv", "json"]), True)))


def printed_numbers(text, fmt):
    """Every float of a CSV or JSON output, its manifest included."""
    def walk(value):
        if isinstance(value, float):
            yield value
        elif isinstance(value, (list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from walk(item)

    if fmt == "json":
        return list(walk(json.loads(text)))
    manifest, *lines = text.splitlines()
    numbers = list(walk(json.loads(manifest[len("# manifest: "):])))
    for row in csv.reader(lines):
        for cell in row:
            with contextlib.suppress(ValueError):  # a label or free text
                numbers.append(float(cell))
    return numbers


@settings(max_examples=300, deadline=None)
@given(argv=FUZZ_ARGV)
@example(argv=["verify", "--format=csv"])
@example(argv=["verify", "--format=json"])
def test_cli_fuzz_exits_cleanly_with_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        assert err == "" and out
        numbers = printed_numbers(out, argv[-1][len("--format="):])
        assert all(math.isfinite(number) for number in numbers)
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err


STRIP = ["--a", "0.75", "--R", "2"]
TRUE_RUN = ["spectrum", "--model", "true", *STRIP, "--N", "10", "--count", "3"]
EXPORT = ["eigenfunction", "--k", "1", *STRIP, "--N", "10", "--grid", "4x3"]
GRIDS = [(convergence, "geometric_grid"), (np, "linspace")]
QUADRATURE = [(quadrature, "_newton_legendre"), (quadrature.QuadratureGrid, "for_strip"),
              (galerkin, "_fields")]


@pytest.mark.parametrize("argv, builders", [
    # --N: one point's sector blocks, before the basis is enumerated
    (["spectrum", "--model", "true", *STRIP, "--N", str(PAST_COUNT), "--count", "5"],
     [(galerkin, "_bases")]),
    (["eigenfunction", "--k", "1", *STRIP, "--N", str(PAST_COUNT)], [(galerkin, "_bases")]),
    (["converge", "--N", str(PAST_COUNT)], GRIDS + [(galerkin, "_bases")]),
    # --count: the longitudinal table and bounds, before the table
    (["spectrum", "--model", "fake", *STRIP, "--count", str(PAST_COUNT)], [(models, "_table")]),
    (["spectrum", "--model", "effective", *STRIP, "--count", str(PAST_COUNT)],
     [(models, "_table"), (mathieu, "char_values")]),
    # --steps: the sweep's work, before the half-width grid
    (["converge", "--steps", str(PAST_COUNT)], GRIDS),
    # --grid: the export rows, before the solve
    (["eigenfunction", "--k", "1", *STRIP, "--N", "10", "--grid", "100000x100000"],
     [(galerkin, "solve"), (galerkin, "_bases")]),
    # --ms, --mu: the fields and kernels, before the rule and the fields;
    # a sweep's --ms by its work, before the grid
    (TRUE_RUN + ["--ms", str(PAST_ORDER)], QUADRATURE),
    (TRUE_RUN + ["--mu", str(PAST_ORDER)], QUADRATURE),
    (EXPORT + ["--ms", str(PAST_ORDER)], QUADRATURE),
    (EXPORT + ["--mu", str(PAST_ORDER)], QUADRATURE),
    (["converge", "--mu", str(PAST_ORDER)], QUADRATURE),
    (["converge", "--ms", str(PAST_ORDER)], GRIDS + QUADRATURE),
    # --max-order: the Mathieu truncation, before any recurrence
    (["mathieu", "--max-order", str(PAST_COUNT)], [(mathieu, "_recurrence")]),
])
def test_fuzzed_sizes_past_a_cap_are_refused_before_their_builder(capsys, monkeypatch, argv,
                                                                   builders):
    # the sizes the CLI fuzz draws past each cap never enter the stage the
    # cap guards: its builder is never called
    def not_reached(*args, **kwargs):
        raise AssertionError("a capped stage was built")

    for owner, name in builders:
        monkeypatch.setattr(owner, name, not_reached)
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(r"cap\b", err), err
