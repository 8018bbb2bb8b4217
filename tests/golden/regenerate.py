"""Regenerate the golden CLI outputs in this directory.

Each README command runs in-process through ``moebius.cli.main`` with
SOURCE_DATE_EPOCH pinned, and its CSV output is written to ``<name>.csv``
next to this script.  ``tests/test_golden.py`` compares fresh runs against
these files with the column sets and ``tolerance`` defined here.  The
eigenfunction export uses a reduced 24x9 grid so the file stays small.

A file that already exists is merged, not overwritten: every cell that
matches the committed one as the test compares it keeps its committed
text, so a regeneration on another machine, whose LAPACK rounds the last
bits differently, rewrites only the cells that really moved.

    python tests/golden/regenerate.py                 # this checkout's package
    python tests/golden/regenerate.py --src DIR       # the package under DIR
    python tests/golden/regenerate.py --check         # write nothing, list what moved
    python tests/golden/regenerate.py --check --exact # ... down to the last byte

``--check`` writes nothing: it lists every cell of a fresh run that moved
from the file as ``tests/test_golden.py`` compares them (with ``--exact``,
every cell that is not byte-identical), each numeric one with its relative
move, then each file's largest relative move per column, and exits 1 if
any cell moved.  To show that a change leaves the output byte-identical on
one machine, regenerate into a copy whose CSV files were deleted from the
parent's package (``--src``), then run ``--check --exact`` there with the
change's package; the relative moves it prints bound a change that does
move bits.

The goldens are a behaviour gate for refactors: regenerate them only when
an output is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EPOCH = "1700000000"

COMMANDS = {
    "mathieu": ["mathieu", "--q", "-0.25", "--max-order", "10"],
    "spectrum-fake": ["spectrum", "--model", "fake", "--a", "0.75",
                      "--circumference", "13.2", "--count", "20"],
    "spectrum-effective": ["spectrum", "--model", "effective", "--a", "0.75",
                           "--circumference", "13.2", "--count", "20"],
    "spectrum-true": ["spectrum", "--model", "true", "--a", "0.75",
                      "--circumference", "13.2", "--count", "20", "--N", "82"],
    "converge-eigenvalue": ["converge", "--kind", "eigenvalue", "--a-min", "0.05",
                            "--a-max", "0.5", "--steps", "7", "--grid", "geometric",
                            "--K", "20", "--N", "72"],
    "converge-eigenvector": ["converge", "--kind", "eigenvector", "--K", "5", "--N", "72"],
    "eigenfunction": ["eigenfunction", "--k", "1", "--a", "1.3", "--R", "2.8647889756541165",
                      "--N", "96", "--grid", "24x9", "--embed3d"],
    "verify": ["verify"],
}


EXACT = {"m", "index", "n", "a", "s", "u", "record", "multiplicity", "module", "check", "status"}
RELATIVE = {"a_m", "b_m", "value", "lambda_effective", "lambda_true", "residual",
            "density", "x", "y", "z"}
GAPS = {"difference", "ratio"}
NOT_CELLWISE = {"detail", "mode"}  # free text; labels compared per group
VALUE_RTOL = 1e-12
GAP_RTOL = 1e-12
SLOPE_RTOL = 1e-5


def split(text):
    """Manifest line, header line and the rows as dicts of one CSV output."""
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


def cell_matches(column, new, old) -> bool:
    """Whether the cell ``column`` of a fresh row matches the golden row."""
    got, want = new[column], old[column]
    if column in EXACT or "" in (got, want):
        return got == want
    return abs(float(got) - float(want)) <= tolerance(column, old)


def mode_groups(rows):
    """Mode labels per multiplicity group, as sorted lists."""
    groups, i = [], 0
    while i < len(rows):
        size = int(rows[i]["multiplicity"])
        labels = [row["mode"] for row in rows[i:i + size]]
        if len(labels) < size:
            labels = [label[label.index("("):] for label in labels]
        groups.append(sorted(labels))
        i += size
    return groups


def merge(fresh: str, committed: str) -> str:
    """``fresh`` with the committed text kept wherever a cell matches.

    A changed header or row count returns ``fresh`` as it is.  Otherwise
    the manifest line is the fresh one, a numeric or label cell is kept
    where ``cell_matches``, the modes where their groups match and a
    ``verify`` detail while its row's status holds; a row with every cell
    kept is the committed line byte for byte.
    """
    _, new_header, new_rows = split(fresh)
    _, old_header, old_rows = split(committed)
    if new_header != old_header or len(new_rows) != len(old_rows):
        return fresh
    columns = new_header.split(",")
    same_modes = "mode" not in columns or mode_groups(new_rows) == mode_groups(old_rows)
    old_lines = committed.splitlines(keepends=True)
    out = io.StringIO()
    out.write(fresh.splitlines(keepends=True)[0] + old_lines[1])
    writer = csv.writer(out, lineterminator="\n")
    for new, old, old_line in zip(new_rows, old_rows, old_lines[2:]):
        row = []
        for column in columns:
            if column == "mode":
                keep = same_modes
            elif column == "detail":
                keep = new["status"] == old["status"]
            else:
                keep = cell_matches(column, new, old)
            row.append(old[column] if keep else new[column])
        if row == [old[c] for c in columns]:
            out.write(old_line)
        else:
            writer.writerow(row)
    return out.getvalue()


def relative_move(new: str, old: str):
    """|new - old| / |old| of two numeric cells, None if either is not a number."""
    try:
        got, want = float(new), float(old)
    except ValueError:
        return None
    if want == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - want) / abs(want)


def moved(fresh: str, committed: str, exact: bool = False) -> list[str]:
    """What of the output ``fresh`` moved from the file ``committed``.

    The manifest line, the header and the row count must match exactly,
    the cells as ``cell_matches`` compares them and the modes by
    ``mode_groups``; with ``exact``, every byte must be the committed one.
    A numeric cell that moved is listed with its relative move, and the
    largest move per column follows the cells.
    """
    new_manifest, new_header, new_rows = split(fresh)
    old_manifest, old_header, old_rows = split(committed)
    found = [] if new_manifest == old_manifest else [f"manifest: {new_manifest}"]
    if new_header != old_header or len(new_rows) != len(old_rows):
        return found + [f"header or row count: {new_header!r} with {len(new_rows)} rows "
                        f"(golden {old_header!r} with {len(old_rows)})"]
    columns = new_header.split(",")
    compared = columns if exact else [c for c in columns if c not in NOT_CELLWISE]
    worst = {}
    for i, (new, old) in enumerate(zip(new_rows, old_rows)):
        for column in compared:
            if new[column] == old[column] if exact else cell_matches(column, new, old):
                continue
            move = relative_move(new[column], old[column])
            shown = "" if move is None else f", relative move {move:.2g}"
            found.append(f"row {i + 1} column {column}: {new[column]} (golden {old[column]}{shown})")
            if move is not None:
                worst[column] = max(worst.get(column, 0.0), move)
    if worst:
        found.append("worst relative move per column: "
                     + ", ".join(f"{column} {move:.2g}" for column, move in worst.items()))
    if not exact and "mode" in columns and mode_groups(new_rows) != mode_groups(old_rows):
        found.append("mode labels of a multiplicity group")
    if exact and not found and fresh != committed:
        found.append("bytes outside the cells")
    return found


def run(argv) -> str:
    """CSV output of one in-process CLI run with the timestamp pinned."""
    from moebius.cli import main

    saved = os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
    finally:
        if saved is None:
            del os.environ["SOURCE_DATE_EPOCH"]
        else:
            os.environ["SOURCE_DATE_EPOCH"] = saved
    if code != 0:
        raise RuntimeError(f"moebius {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HERE.parent.parent / "src",
                        help="directory holding the moebius package (default: this checkout's src)")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list the cells that moved and exit 1 if any did")
    parser.add_argument("--exact", action="store_true",
                        help="with --check, list every cell that is not byte-identical")
    args = parser.parse_args(argv)
    if args.exact and not args.check:
        parser.error("--exact applies only to --check")
    sys.path.insert(0, str(args.src.resolve()))
    status = 0
    for name, argv in COMMANDS.items():
        path = HERE / f"{name}.csv"
        text = run(argv)
        if args.check:
            found = moved(text, path.read_text(), args.exact) if path.exists() else ["no file"]
            for line in found or ["unchanged"]:
                print(f"{name}.csv: {line}")
            status |= bool(found)
            continue
        if path.exists():
            text = merge(text, path.read_text())
        path.write_text(text, newline="")
        print(f"wrote {name}.csv")
    return status


if __name__ == "__main__":
    sys.exit(main())
