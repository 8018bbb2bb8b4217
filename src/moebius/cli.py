"""Command-line front end: tables, sweeps, grids, verification.

Subcommands
-----------
mathieu        characteristic-value table a_m(q), b_m(q)
spectrum       eigenvalue table of the fake, effective or true model
converge       thin-strip sweep of eigenvalue or eigenvector ratios
eigenfunction  sampled probability density of one computed eigenfunction,
               optionally carried onto the embedded strip surface
verify         cross-module invariant suite

Every command builds one table as named columns and streams it as CSV
(default) or JSON through ``--format``, to stdout or atomically to
``--output``, a chunk of rows at a time.  Floats are printed in shortest round-trip form, so
identical runs produce byte-identical rows; within a chunk each distinct
float of a column is formatted once.  An empty cell is an empty CSV
field and a JSON null.  A run manifest (command, parameters, version,
timestamp) is embedded: as the first ``# manifest: ...`` comment line in
CSV, as a top-level object in JSON.  Set SOURCE_DATE_EPOCH to whole
seconds since 1970 to pin the manifest timestamp and make whole files
byte-identical; any other value is refused with exit 2 before the run.

``converge`` solves its chunks of half-widths one after another.  It
alone takes ``--threads``, which accepts only 1, for scripts written when
the option sized a thread pool; any other value is a usage error (exit 2)
when the arguments are parsed.

Exit codes: 0 success, 1 when the reader closes stdout before the output
ends (nothing is printed to stderr), 2 invalid input (including an
``--output`` or a stdout that cannot be written, a run whose arrays would
pass ``models.MAX_ARRAY_BYTES`` and a sweep whose estimated work passes
``convergence.MAX_SWEEP_WORK``), 3 numerical failure (including fired
verification checks).  There is no randomness anywhere.

A process started as ``moebius`` or ``python -m moebius.cli`` enters at
``run``, which ends it with ``main``'s exit code as soon as its output is
flushed and closed, without the interpreter's teardown.  ``main`` called
in-process returns the exit code and leaves the interpreter running.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

# each command imports the compute modules it runs, so a child process
# loads only those (``moebius mathieu`` never loads the Galerkin solver)
from . import __version__
from .errors import InputError, MoebiusError, NumericalError

__all__ = ["main", "run", "build_parser", "RunManifest"]

# rows formatted and written per step of streamed output
_ROW_CHUNK = 1024
# Peak memory per exported grid point (one CLI row with its 3-space point,
# streamed as text), traced at 128 B for JSON and 192 B for CSV on the
# 192x65 README export and 81-99 B on grids of 384x130 and 768x260.
EXPORT_POINT_BYTES = 256


@dataclass(frozen=True)
class RunManifest:
    """Provenance header attached to every output file."""

    command: str
    parameters: dict
    version: str
    timestamp: str


def _pinned_moment(text: str) -> datetime:
    try:
        return datetime.fromtimestamp(int(text), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise InputError(
            f"SOURCE_DATE_EPOCH expects whole seconds since 1970 within the "
            f"platform's date range, got {text!r}"
        ) from None


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    moment = datetime.now(tz=timezone.utc) if pinned is None else _pinned_moment(pinned)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _row_chunks(table: dict, fmt: str):
    """The table's columns, ``_ROW_CHUNK`` rows at a time, as lists: a float
    array's cells as their ``fmt`` text (``_float_cells``), any other
    column's as Python scalars (so every float prints in shortest
    round-trip form)."""
    columns = list(table.values())
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    for lo in range(0, lengths.pop() if lengths else 0, _ROW_CHUNK):
        yield [
            _float_cells(c[lo:lo + _ROW_CHUNK], fmt) if _is_float_array(c)
            else c[lo:lo + _ROW_CHUNK].tolist() if isinstance(c, np.ndarray)
            else list(c[lo:lo + _ROW_CHUNK])
            for c in columns
        ]


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _float_cells(values: np.ndarray, fmt: str) -> list[str]:
    """Each float as ``csv.writer`` (its repr) or ``json.dumps`` writes it.

    Each distinct value of the chunk is formatted once: an export grid
    repeats its coordinates row after row.  Values are told apart by their
    bit pattern, so -0.0, nan and +-inf keep their own text.  (Plain
    ``np.unique`` loads ``numpy.ma``; with ``return_inverse`` it does not.)
    """
    bits, inverse = np.unique(
        np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True
    )
    distinct = bits.view(np.float64).tolist()
    texts = list(map(repr, distinct)) if fmt == "csv" else json.dumps(distinct)[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].tolist()


def _json_cells(values: list) -> list[str]:
    """Each value as ``json.dumps`` writes it; one encoder call for a
    column without strings, whose list text splits at ", " exactly."""
    if any(isinstance(value, str) for value in values):
        return [json.dumps(value) for value in values]
    return json.dumps(values)[1:-1].split(", ")


def _render(manifest: RunManifest, table: dict, fmt: str, handle) -> None:
    """Write one table given as named columns in header order to ``handle``.

    Each column is a sequence or a 1-d array, all of one length; ``None``
    is an empty cell (an empty CSV field, JSON null).  Rows are streamed a
    chunk at a time, and the text is byte for byte what ``csv.writer`` or
    ``json.dumps(..., indent=2)`` writes for the whole table at once.
    """
    names = list(table)
    if fmt == "csv":
        handle.write("# manifest: " + json.dumps(asdict(manifest), sort_keys=True) + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        # float text is never empty and holds no delimiter, quote or line
        # break, so rows of floats alone are joined as csv.writer joins them
        floats_only = all(map(_is_float_array, table.values()))
        for chunk in _row_chunks(table, fmt):
            if floats_only:
                handle.write("".join(",".join(row) + "\n" for row in zip(*chunk)))
            else:
                writer.writerows(zip(*chunk))  # csv writes None as "" and floats by repr
        return
    head = json.dumps({"manifest": asdict(manifest), "rows": []}, indent=2)
    opening = head[:-len("[]\n}")]
    row = "{{\n" + ",\n".join(
        "      " + json.dumps(name).replace("{", "{{").replace("}", "}}") + ": {}"
        for name in names
    ) + "\n    }}"
    separator = "[\n    "
    for chunk in _row_chunks(table, fmt):
        cells = zip(*(
            texts if _is_float_array(column) else _json_cells(texts)
            for column, texts in zip(table.values(), chunk)
        ))
        handle.write(opening + separator + ",\n    ".join(row.format(*c) for c in cells))
        opening, separator = "", ",\n    "
    handle.write(head + "\n" if opening else "\n  ]\n}\n")


@contextlib.contextmanager
def _opened_output(output: str | None):
    """A text handle on stdout, or on a temporary file that replaces
    ``output`` once the block completes and is removed if it fails.  An
    ``output`` that cannot be created or replaced is invalid input, and so
    is a stdout that cannot be written, except by a reader that closed it
    (``BrokenPipeError``, which ``main`` ends quietly)."""
    if output is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            raise
        except OSError as exc:
            _discard_stdout()
            raise InputError(f"cannot write stdout: {exc.strerror}") from None
        return
    directory = os.path.dirname(os.path.abspath(output))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".moebius-", text=True)
    except OSError as exc:
        raise InputError(f"cannot write --output {output}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        try:
            os.replace(tmp_path, output)
        except OSError as exc:
            raise InputError(f"cannot write --output {output}: {exc.strerror}") from None
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the bytes it
    still buffers, and the flush at exit, go nowhere.  A stdout without a
    descriptor is left as it is."""
    try:
        descriptor = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    os.dup2(os.open(os.devnull, os.O_WRONLY), descriptor)


def _radius(args) -> float:
    if args.R is not None:
        if args.R <= 0.0:
            raise InputError(f"--R must be positive, got {args.R}")
        return args.R
    if args.circumference <= 0.0:
        raise InputError(f"--circumference must be positive, got {args.circumference}")
    return args.circumference / (2.0 * np.pi)


def _add_output_options(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="write here (default stdout)")


def _add_radius_options(parser, required=True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--R", type=float, default=None, help="centre-circle radius")
    group.add_argument(
        "--circumference",
        type=float,
        default=None,
        help="centre-circle circumference 2 pi R",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebius",
        description="Spectra of a quantum particle on the Moebius strip: "
        "flat, effective (Mathieu) and curved (Galerkin) models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mathieu", help="characteristic-value table")
    p.add_argument(
        "--q", type=float, default=-0.25,
        help="Mathieu parameter; write a negative value in exponent form as --q=-1e10",
    )
    p.add_argument("--max-order", type=int, default=10)
    _add_output_options(p)

    p = sub.add_parser("spectrum", help="eigenvalue table of one model")
    p.add_argument("--model", choices=("fake", "effective", "true"), required=True)
    p.add_argument("--a", type=float, required=True, help="half-width")
    _add_radius_options(p)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--N", type=int, default=None, help="basis size (model=true)")
    p.add_argument(
        "--ms", type=int, default=None, help="longitudinal quadrature nodes (model=true)"
    )
    p.add_argument(
        "--mu", type=int, default=None, help="transverse quadrature nodes (model=true)"
    )
    _add_output_options(p)

    p = sub.add_parser("converge", help="thin-strip convergence sweep")
    p.add_argument("--kind", choices=("eigenvalue", "eigenvector"), default="eigenvalue")
    _add_radius_options(p, required=False)
    p.add_argument("--a-min", type=float, default=0.01)
    p.add_argument("--a-max", type=float, default=1.5)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--grid", choices=("uniform", "geometric"), default="uniform")
    p.add_argument("--K", type=int, default=20, help="eigenvalue indices compared")
    p.add_argument("--N", type=int, default=72, help="basis size")
    p.add_argument("--ms", type=int, default=None)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument(
        "--window",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        default=None,
        help="half-width window for the slope fit (default whole grid)",
    )
    p.add_argument(
        "--threads",
        type=int,
        choices=(1,),
        default=None,
        help="accepted only as 1: the chunks of half-widths are solved one after another",
    )
    _add_output_options(p)

    p = sub.add_parser("eigenfunction", help="sampled density of one eigenfunction")
    p.add_argument("--k", type=int, required=True, help="eigenvalue index, 1-based")
    p.add_argument("--a", type=float, required=True)
    _add_radius_options(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", default="192x65", help="export grid, e.g. 192x65")
    p.add_argument("--embed3d", action="store_true", help="append embedded 3-space points")
    p.add_argument("--ms", type=int, default=None)
    p.add_argument("--mu", type=int, default=None)
    _add_output_options(p)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    _add_output_options(p)

    return parser


def _emit(args, table: dict) -> None:
    """Render ``table`` under the run's manifest and write it where asked."""
    skip = ("command", "format", "output")
    manifest = RunManifest(
        command=args.command,
        parameters={k: v for k, v in sorted(vars(args).items()) if k not in skip},
        version=__version__,
        timestamp=_timestamp(),
    )
    with _opened_output(args.output) as handle:
        _render(manifest, table, args.format, handle)


def _mode_label(mode) -> str:
    return f"{mode.family}(m={mode.m},n={mode.n})"


def _cmd_mathieu(args) -> int:
    from . import mathieu

    if args.max_order < 0:
        raise InputError(f"--max-order must be >= 0, got {args.max_order}")
    chars = mathieu.char_values(args.q, args.max_order)
    a_values = {c.m: c.value for c in chars if c.kind == "ce"}
    b_values = {c.m: c.value for c in chars if c.kind == "se"}
    orders = range(args.max_order + 1)
    table = {
        "m": list(orders),
        "a_m": [a_values.get(m) for m in orders],
        "b_m": [b_values.get(m) for m in orders],
    }
    _emit(args, table)
    return 0


def _cmd_spectrum(args) -> int:
    from .geometry import StripParams

    params = StripParams(a=args.a, R=_radius(args))
    if args.model == "true":
        if args.N is None:
            raise InputError("--N is required for --model true")
        if args.count < 1:
            raise InputError(f"count must be >= 1, got {args.count}")
        if args.count > args.N:
            raise InputError(f"--count {args.count} exceeds --N {args.N}")
        from . import galerkin

        config = galerkin.GalerkinConfig(
            params=params, n_basis=args.N, m_s=args.ms, m_u=args.mu
        )
        solution = galerkin.solve(config)
        table = {
            "index": list(range(1, args.count + 1)),
            "value": solution.eigenvalues[:args.count],
            "residual": solution.leading_residual_norms(args.count),
        }
    else:
        given = [f"--{name}" for name in ("N", "ms", "mu") if getattr(args, name) is not None]
        if given:
            raise InputError(
                f"--N, --ms and --mu apply only to --model true, got {', '.join(given)}"
            )
        from . import models

        if args.model == "fake":
            spectrum = models.fake_spectrum(params, args.count)
        else:
            spectrum = models.effective_spectrum(params, args.count)
        values, modes, multiplicities = zip(*spectrum.flattened(args.count))
        table = {
            "index": list(range(1, len(values) + 1)),
            "value": values,
            "multiplicity": multiplicities,
            "mode": [_mode_label(mode) for mode in modes],
        }
    _emit(args, table)
    return 0


def _cmd_converge(args) -> int:
    from . import convergence

    given = args.R is not None or args.circumference is not None
    radius = _radius(args) if given else 18.0 / (2.0 * np.pi)
    if args.steps < 1:
        raise InputError(f"--steps must be >= 1, got {args.steps}")
    convergence.require_sweep_capacity(args.steps, args.N, args.ms)  # before the grid
    for option, end in (("--a-min", args.a_min), ("--a-max", args.a_max)):
        if not math.isfinite(end):
            raise InputError(f"{option} must be finite, got {end}")
    if args.grid == "geometric":
        a_grid = convergence.geometric_grid(args.a_min, args.a_max, args.steps)
    else:
        a_grid = np.linspace(args.a_min, args.a_max, args.steps)
    sweep_fn = (
        convergence.eigenvalue_sweep
        if args.kind == "eigenvalue"
        else convergence.eigenvector_sweep
    )
    sweep = sweep_fn(radius, a_grid, args.K, args.N, m_s=args.ms, m_u=args.mu)
    window = tuple(args.window) if args.window is not None else None
    slopes = []
    for n in range(1, args.K + 1):
        try:
            slopes.append(convergence.fit_rate(sweep, n, window))
        except InputError:
            slopes.append(None)
    # one sample row per (a, n) in grid order, then one slope row per n
    samples = sweep.a_grid.size * args.K
    indices = list(range(1, args.K + 1))
    gap = [None] * args.K
    table = {
        "record": ["sample"] * samples + ["slope"] * args.K,
        "a": np.repeat(sweep.a_grid, args.K).tolist() + gap,
        "n": indices * sweep.a_grid.size + indices,
        "lambda_effective": sweep.effective_values.ravel().tolist() + gap,
        "lambda_true": sweep.true_values.ravel().tolist() + gap,
        "difference": sweep.differences.ravel().tolist() + gap,
        "ratio": sweep.ratios.ravel().tolist() + gap,
        "slope": [None] * samples + slopes,
    }
    _emit(args, table)
    return 0


def _parse_grid_spec(spec: str):
    try:
        m_s, m_u = (int(part) for part in spec.lower().split("x"))
    except ValueError as exc:
        raise InputError(f"--grid expects MSxMU such as 192x65, got {spec!r}") from exc
    if m_s < 2 or m_u < 2:
        raise InputError(f"export grid must be at least 2x2, got {spec!r}")
    return m_s, m_u


def _cmd_eigenfunction(args) -> int:
    from . import galerkin
    from .geometry import StripParams, embed
    from .models import require_bytes

    params = StripParams(a=args.a, R=_radius(args))
    if not (1 <= args.k <= args.N):
        raise InputError(f"--k must be in [1, {args.N}], got {args.k}")
    grid_s, grid_u = _parse_grid_spec(args.grid)
    require_bytes(EXPORT_POINT_BYTES * grid_s * grid_u, f"the {grid_s}x{grid_u} export rows")
    config = galerkin.GalerkinConfig(
        params=params, n_basis=args.N, m_s=args.ms, m_u=args.mu
    )
    solution = galerkin.solve(config)
    s = np.linspace(0.0, params.circumference, grid_s)
    u = np.linspace(-1.0, 1.0, grid_u)
    # rows run over u fastest, s slowest
    table = {
        "s": np.repeat(s, grid_u),
        "u": np.tile(u, grid_s),
        "density": (solution.eigenfunction_values(args.k, s, u) ** 2).ravel(),
    }
    if args.embed3d:
        x, y, z = embed(params, s[:, None], params.a * u[None, :]).reshape(-1, 3).T
        table.update(x=x, y=y, z=z)
    _emit(args, table)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all()
    table = {
        "module": [r.module for r in results],
        "check": [r.name for r in results],
        "status": ["pass" if r.passed else "FAIL" for r in results],
        "detail": [r.detail for r in results],
    }
    _emit(args, table)
    failures = [r for r in results if not r.passed]
    for failure in failures:
        sys.stderr.write(
            f"verify failure: {failure.module}.{failure.name}: {failure.detail}\n"
        )
    return 3 if failures else 0


_COMMANDS = {
    "mathieu": _cmd_mathieu,
    "spectrum": _cmd_spectrum,
    "converge": _cmd_converge,
    "eigenfunction": _cmd_eigenfunction,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        try:
            _pinned_moment(pinned)  # refused before any work, not when stamping
        except InputError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that closed stdout is met here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader closed stdout: the rest of the output, and the flush at
        # shutdown, go to the null device, and the run ends quietly
        _discard_stdout()
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except MoebiusError as exc:  # fallback for any future subclass
        sys.stderr.write(f"error: {exc}\n")
        return 3


def run() -> None:
    """Process entry of ``python -m moebius.cli`` and the ``moebius`` script.

    Runs ``main`` and ends the process with its status as soon as stdout
    and stderr are flushed, through ``os._exit``: by then every output byte
    is written and any ``--output`` file replaced, so the interpreter's
    module teardown and last garbage collection (16-22 ms of CPU per
    README command, measured on a 2-core VM) would only cost time.  An exception or
    ``SystemExit`` out of ``main`` (argparse errors, ``--help``) takes the
    usual path.
    """
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: end quietly, as main does
        status = 1
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
