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
    new_manifest, new_header, new_rows = regenerate.split(fresh)
    old_manifest, old_header, old_rows = regenerate.split(committed)
    assert new_manifest == old_manifest
    assert new_header == old_header
    assert len(new_rows) == len(old_rows)
    columns = new_header.split(",")
    assert set(columns) <= (regenerate.EXACT | regenerate.RELATIVE | regenerate.GAPS
                            | regenerate.NOT_CELLWISE | {"slope"})
    compared = [c for c in columns if c not in regenerate.NOT_CELLWISE]

    for i, (new, old) in enumerate(zip(new_rows, old_rows)):
        for column in compared:
            assert regenerate.cell_matches(column, new, old), (
                f"row {i + 1} column {column}: {new[column]} (golden {old[column]})"
            )

    if "mode" in columns:
        assert regenerate.mode_groups(new_rows) == regenerate.mode_groups(old_rows)
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
