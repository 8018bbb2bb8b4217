"""Regenerate the golden CLI outputs in this directory.

Each README command runs in-process through ``moebius.cli.main`` with
SOURCE_DATE_EPOCH pinned, and its CSV output is written to ``<name>.csv``
next to this script.  ``tests/test_golden.py`` compares fresh runs against
these files.  The eigenfunction export uses a reduced 24x9 grid so the file
stays small.

    python tests/golden/regenerate.py              # this checkout's package
    python tests/golden/regenerate.py --src DIR    # the package under DIR

The goldens are a behaviour gate for refactors: regenerate them only when
an output is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HERE.parent.parent / "src",
                        help="directory holding the moebius package (default: this checkout's src)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    for name, argv in COMMANDS.items():
        (HERE / f"{name}.csv").write_text(run(argv), newline="")
        print(f"wrote {name}.csv")


if __name__ == "__main__":
    main()
