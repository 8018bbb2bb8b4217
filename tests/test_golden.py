"""Golden outputs of the README commands, compared within stated bounds.

``tests/golden/<name>.csv`` holds the CSV output of one README command
(``tests/golden/regenerate.py`` lists them and rewrites the files), run
in-process through ``moebius.cli.main`` with SOURCE_DATE_EPOCH pinned.
A fresh run must match its golden file as follows:

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

import csv
import importlib.util
import io
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

EXACT = {"m", "index", "n", "a", "s", "u", "record", "multiplicity", "module", "check", "status"}
RELATIVE = {"a_m", "b_m", "value", "lambda_effective", "lambda_true", "residual",
            "density", "x", "y", "z"}
GAPS = {"difference", "ratio"}
NOT_CELLWISE = {"detail", "mode"}  # free text; labels compared per group below
VALUE_RTOL = 1e-12
GAP_RTOL = 1e-12
SLOPE_RTOL = 1e-5


def split(text):
    lines = text.splitlines()
    return lines[0], lines[1], list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def tolerance(column, old):
    """Absolute tolerance of one numeric cell of the golden row ``old``."""
    if column in RELATIVE:
        return VALUE_RTOL * abs(float(old[column]))
    if column == "slope":
        return SLOPE_RTOL * abs(float(old[column]))
    gap = GAP_RTOL * max(float(old["lambda_effective"]), float(old["lambda_true"]))
    return gap / float(old["a"]) ** 2 if column == "ratio" else gap


def mode_groups(rows):
    groups, i = [], 0
    while i < len(rows):
        size = int(rows[i]["multiplicity"])
        labels = [row["mode"] for row in rows[i:i + size]]
        if len(labels) < size:
            labels = [label[label.index("("):] for label in labels]
        groups.append(sorted(labels))
        i += size
    return groups


@pytest.mark.parametrize("name", sorted(regenerate.COMMANDS))
def test_readme_command_matches_golden(name):
    new_manifest, new_header, new_rows = split(regenerate.run(regenerate.COMMANDS[name]))
    old_manifest, old_header, old_rows = split((GOLDEN / f"{name}.csv").read_text())
    assert new_manifest == old_manifest
    assert new_header == old_header
    assert len(new_rows) == len(old_rows)
    columns = new_header.split(",")
    assert set(columns) <= EXACT | RELATIVE | GAPS | NOT_CELLWISE | {"slope"}
    compared = [c for c in columns if c not in NOT_CELLWISE]

    for i, (new, old) in enumerate(zip(new_rows, old_rows)):
        for column in compared:
            got, want = new[column], old[column]
            if column in EXACT or "" in (got, want):
                ok = got == want
            else:
                ok = abs(float(got) - float(want)) <= tolerance(column, old)
            assert ok, f"row {i + 1} column {column}: {got} (golden {want})"

    if "mode" in columns:
        assert mode_groups(new_rows) == mode_groups(old_rows)
