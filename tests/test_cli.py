import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moebius import cli, convergence, linalg, mathieu, models
from moebius.cli import main
from moebius.galerkin import EXPORT_POINT_BYTES

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
        ["converge", "--kind", "eigenvalue", *CONVERGE_SMALL, "--threads", "2"],
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
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else None
    assert ("concurrent.futures" in loaded) == (threads is not None and threads >= 2)
    if argv[0] == "mathieu":
        assert {m for m in loaded if m.startswith("moebius")} == {
            "moebius", "moebius.cli", "moebius.errors", "moebius.linalg", "moebius.mathieu",
        }
    if argv[0] == "mathieu" or argv[:3] == ["spectrum", "--model", "fake"]:
        assert not loaded & {"moebius.galerkin", "moebius.convergence", "moebius.verify"}
    if argv[:3] == ["spectrum", "--model", "fake"]:
        assert not loaded & {"moebius.mathieu", "moebius.linalg"}
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_peak_memory_is_within_the_capacity_bound(tmp_path, fmt):
    # the README export; the guard charges EXPORT_POINT_BYTES per grid point
    argv = ["eigenfunction", "--k", "1", "--a", "1.3", "--R", "2.8647889756541165",
            "--N", "96", "--grid", "192x65", "--embed3d", "--format", fmt,
            "--output", str(tmp_path / f"density.{fmt}")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (192 * 65) <= EXPORT_POINT_BYTES


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
    ],
)
def test_threads_below_one_are_refused_when_parsing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads: must be >= 1" in captured.err


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


@pytest.mark.parametrize(
    "table",
    [
        {"value": np.array([])},
        {"k": [1, 2, 3], "x": np.array([0.1, np.nan, -np.inf]), "flag": [True, False, None]},
        {"label": ['a, "b"', "é{}", None], "n, {m}": [None, 5, -7]},
        {"s": np.linspace(0.0, 1.0, 2 * cli._ROW_CHUNK + 3), "i": np.arange(2 * cli._ROW_CHUNK + 3)},
    ],
)
def test_streamed_tables_match_whole_document_encoders(table):
    # the streamed text equals encoding the whole table at once
    manifest = cli.RunManifest("test", {"N": 3, "grid": "2x2"}, "0", "1970-01-01T00:00:00Z")
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    rows = list(zip(*columns))
    payload = {"manifest": manifest.__dict__, "rows": [dict(zip(table, row)) for row in rows]}
    expected_json = json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    buffer.write("# manifest: " + json.dumps(manifest.__dict__, sort_keys=True) + "\n")
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
def test_thin_strip_flat_box_is_refused_before_it_is_built(capsys, monkeypatch, model):
    # the box spans only the harmonics that reach the value cap at n = 1,
    # but that reach is set by the rounding of the cap, which grows as 1/a:
    # at R = 2 and count 5 it passes the cap from a = 1.58e-14 down
    def not_reached(*args, **kwargs):
        raise AssertionError("the flat box was built")

    monkeypatch.setattr(models, "_flat_box", not_reached)
    argv = ["spectrum", "--model", model, "--a", "1e-14", "--R", "2.0", "--count", "5"]
    code, out, err = run_cli(argv + (["--N", "20"] if model == "true" else []), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the flat modes below ") and err.endswith("MiB cap\n")


@pytest.mark.parametrize("model", ["fake", "true"])
def test_thin_strip_flat_box_holds_a_few_hundred_harmonics(capsys, monkeypatch, model):
    # at a = 1e-9 a box of every harmonic up to 2R sqrt(cap) would span
    # about 6e9 harmonics and was refused; the cut box spans 130
    # (_flat_box lays its cells out through _cells, one column per harmonic)
    widths = []
    cells = models._cells

    def recorded(rows, cols):
        widths.append(int(cols.max()))
        return cells(rows, cols)

    monkeypatch.setattr(models, "_cells", recorded)
    argv = ["spectrum", "--model", model, "--a", "1e-9", "--R", "2.0", "--count", "5"]
    start = time.perf_counter()
    code, out, err = run_cli(argv + (["--N", "20"] if model == "true" else []), capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2 + 5
    assert widths and max(widths) < 1000


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
    # (pi / 2a)^2 or (1 / 2R)^2 past the largest double, squared as Python
    # floats square, is refused when the strip is built
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} is too small") and err.count("\n") == 1


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
