"""Golden outputs of the README commands, compared within stated bounds.

``tests/golden/<name>.csv`` holds the CSV output of one README command
(``tests/golden/regenerate.py`` lists them, defines the column sets and
tolerances below and merges fresh runs into the files), run in-process
through ``moebius.cli.main`` with SOURCE_DATE_EPOCH pinned.  A fresh run
must match its golden file as follows:

* the manifest line, the header and the row count exactly;
* the input and label columns (``m``, ``index``, ``n``, ``a``, ``s``, ``u``,
  ``record``, ``multiplicity``, and ``module``/``check``/``status`` of
  ``verify``) exactly; the free-text ``detail`` of ``verify`` is not compared;
* eigenvalues, residual norms, densities and embedded points to 1e-12
  relative;
* ``difference`` and ``ratio * a^2`` to 1e-12 * max(lambda_effective,
  lambda_true) absolute, since a gap is a difference of two eigenvalues;
* ``slope`` to 1e-5 relative (a log-log fit over small gaps);
* ``mode`` labels as a set within each multiplicity group (the
  ``multiplicity`` consecutive rows of one degenerate entry).  Inside a group
  the values agree to the last bits, so their order is the eigensolver's
  tie break.  A group cut short by ``--count`` keeps the member that breaks
  the tie, so there only the mode index ``(m=..,n=..)`` is compared.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


@pytest.mark.parametrize("name", sorted(regenerate.COMMANDS))
def test_readme_command_matches_golden(name):
    fresh = regenerate.run(regenerate.COMMANDS[name])
    committed = (GOLDEN / f"{name}.csv").read_text()
    columns = regenerate.split(committed)[1].split(",")
    assert set(columns) <= (regenerate.EXACT | regenerate.RELATIVE | regenerate.GAPS
                            | regenerate.NOT_CELLWISE | {"slope"})
    assert regenerate.moved(fresh, committed) == []
    # so a regeneration from this run rewrites nothing
    assert regenerate.merge(fresh, committed) == committed


def test_regeneration_rewrites_only_the_cells_that_moved():
    committed = (GOLDEN / "converge-eigenvalue.csv").read_text()
    lines = committed.splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    column = header.index("lambda_true")
    cells = lines[2].rstrip("\n").split(",")
    value = float(cells[column])
    # a last-bits change is kept as committed, a moved value is written
    for fresh_value, expected in ((value * (1.0 + 4e-16), cells[column]),
                                  (value * (1.0 + 1e-9), repr(value * (1.0 + 1e-9)))):
        fresh_cells = list(cells)
        fresh_cells[column] = repr(fresh_value)
        fresh = "".join(lines[:2]) + ",".join(fresh_cells) + "\n" + "".join(lines[3:])
        merged = regenerate.merge(fresh, committed).splitlines(keepends=True)
        assert merged[:2] + merged[3:] == lines[:2] + lines[3:]
        assert merged[2].rstrip("\n").split(",")[column] == expected
    # a changed header or row count is the fresh text as it is
    shorter = "".join(lines[:-1])
    assert regenerate.merge(shorter, committed) == shorter


def test_check_lists_the_moved_cells_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # each run puts a --src on it
    monkeypatch.setattr(regenerate, "COMMANDS", {name: regenerate.COMMANDS[name]
                                                 for name in ("mathieu", "spectrum-fake")})
    assert regenerate.main([]) == 0  # fresh files, this machine's bytes
    capsys.readouterr()
    assert regenerate.main(["--check", "--exact"]) == 0
    assert capsys.readouterr().out == "mathieu.csv: unchanged\nspectrum-fake.csv: unchanged\n"
    path = tmp_path / "spectrum-fake.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    value = float(cells[1])
    # a last-bits change moves a cell only to --exact, a 1e-9 one to both
    for changed, exact_only in ((value * (1.0 + 4e-16), True), (value * (1.0 + 1e-9), False)):
        cells[1] = repr(changed)
        altered = "".join(lines[:3]) + ",".join(cells) + "".join(lines[4:])
        path.write_text(altered)
        move = f"{abs(value - changed) / changed:.2g}"
        moved = (f"spectrum-fake.csv: row 2 column value: {value!r} (golden {changed!r}, "
                 f"relative move {move})\n"
                 f"spectrum-fake.csv: worst relative move per column: value {move}\n")
        for flags in (["--check"], ["--check", "--exact"]):
            listed = "--exact" in flags or not exact_only
            assert regenerate.main(flags) == int(listed)
            out = capsys.readouterr().out
            assert out == "mathieu.csv: unchanged\n" + (
                moved if listed else "spectrum-fake.csv: unchanged\n")
            assert path.read_text() == altered
    # a label is listed as it is, each numeric cell with its relative move,
    # and the file's largest move per column follows its cells
    second = float(lines[4].split(",")[1])
    golden = [value * (1.0 + 1e-9), second * (1.0 - 3e-9)]
    row_2 = lines[3].replace(repr(value), repr(golden[0]), 1)
    row_3 = lines[4].replace(repr(second), repr(golden[1]), 1).replace("m=2,", "m=4,")
    path.write_text("".join(lines[:3]) + row_2 + row_3 + "".join(lines[5:]))
    moves = [abs(fresh - old) / old for fresh, old in zip((value, second), golden)]
    assert regenerate.main(["--check", "--exact"]) == 1
    assert capsys.readouterr().out == (
        "mathieu.csv: unchanged\n"
        f"spectrum-fake.csv: row 2 column value: {value!r} (golden {golden[0]!r}, "
        f"relative move {moves[0]:.2g})\n"
        f"spectrum-fake.csv: row 3 column value: {second!r} (golden {golden[1]!r}, "
        f"relative move {moves[1]:.2g})\n"
        "spectrum-fake.csv: row 3 column mode: fake(m=2,n=1) (golden fake(m=4,n=1))\n"
        f"spectrum-fake.csv: worst relative move per column: value {max(moves):.2g}\n")
