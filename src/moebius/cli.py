"""Command-line front end: tables, sweeps, grids, verification.

Subcommands
-----------
mathieu        characteristic-value table a_m(q), b_m(q)
spectrum       eigenvalue table of the fake, effective or true model
converge       thin-strip sweep of eigenvalue or eigenvector ratios
eigenfunction  sampled probability density of one computed eigenfunction,
               optionally carried onto the embedded strip surface
verify         cross-module invariant suite

Every command emits CSV (default) or JSON through ``--format``, to stdout
or atomically to ``--output``.  Floats are printed in shortest
round-trip form, so identical runs produce byte-identical rows.  A run
manifest (command, parameters, version, timestamp) is embedded: as the
first ``# manifest: ...`` comment line in CSV, as a top-level object in
JSON.  Set SOURCE_DATE_EPOCH to pin the manifest timestamp and make whole
files byte-identical.

Every command accepts ``--threads N``, which must be at least 1 and is
checked when the arguments are parsed; only ``converge`` uses it.

Exit codes: 0 success, 2 invalid input (including a basis, quadrature or
export grid whose arrays would pass ``galerkin.MAX_ARRAY_BYTES``), 3
numerical failure (including fired verification checks).  There is no
randomness anywhere; the MOEBIUS_SEEDLESS environment variable is accepted
only as "1" and has no effect, any other value is rejected to keep that
contract visible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, convergence, galerkin, mathieu, verify
from .errors import InputError, MoebiusError, NumericalError
from .geometry import StripParams, embed
from .models import effective_spectrum, fake_spectrum

__all__ = ["main", "build_parser", "RunManifest"]


@dataclass(frozen=True)
class RunManifest:
    """Provenance header attached to every output file."""

    command: str
    parameters: dict
    version: str
    timestamp: str


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        moment = datetime.fromtimestamp(int(pinned), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _render(manifest: RunManifest, columns, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "manifest": asdict(manifest),
            "rows": [
                {c: (None if r.get(c) is None else r.get(c)) for c in columns}
                for r in rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    buffer = io.StringIO()
    buffer.write("# manifest: " + json.dumps(asdict(manifest), sort_keys=True) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c)) for c in columns])
    return buffer.getvalue()


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".moebius-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, output)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _radius(args) -> float:
    if args.R is not None:
        if args.R <= 0.0:
            raise InputError(f"--R must be positive, got {args.R}")
        return args.R
    if args.circumference <= 0.0:
        raise InputError(f"--circumference must be positive, got {args.circumference}")
    return args.circumference / (2.0 * np.pi)


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_output_options(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="write here (default stdout)")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=None,
        help="worker-thread cap for converge's per-half-width parallelism "
        "(default all cores)",
    )


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
    p.add_argument("--q", type=float, default=-0.25)
    p.add_argument("--max-order", type=int, default=10)
    _add_output_options(p)

    p = sub.add_parser("spectrum", help="eigenvalue table of one model")
    p.add_argument("--model", choices=("fake", "effective", "true"), required=True)
    p.add_argument("--a", type=float, required=True, help="half-width")
    _add_radius_options(p)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--N", type=int, default=None, help="basis size (model=true)")
    p.add_argument("--ms", type=int, default=None, help="longitudinal quadrature nodes")
    p.add_argument("--mu", type=int, default=None, help="transverse quadrature nodes")
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


def _manifest(command: str, args, skip=("command", "format", "output")) -> RunManifest:
    parameters = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }
    return RunManifest(
        command=command,
        parameters=parameters,
        version=__version__,
        timestamp=_timestamp(),
    )


def _mode_label(mode) -> str:
    return f"{mode.family}(m={mode.m},n={mode.n})"


def _cmd_mathieu(args) -> int:
    if args.max_order < 0:
        raise InputError(f"--max-order must be >= 0, got {args.max_order}")
    chars = mathieu.char_values(args.q, args.max_order)
    a_values = {c.m: c.value for c in chars if c.kind == "ce"}
    b_values = {c.m: c.value for c in chars if c.kind == "se"}
    rows = [
        {"m": m, "a_m": a_values.get(m), "b_m": b_values.get(m)}
        for m in range(args.max_order + 1)
    ]
    text = _render(_manifest("mathieu", args), ("m", "a_m", "b_m"), rows, args.format)
    _write_output(text, args.output)
    return 0


def _cmd_spectrum(args) -> int:
    params = StripParams(a=args.a, R=_radius(args))
    if args.model == "true":
        if args.N is None:
            raise InputError("--N is required for --model true")
        if args.count < 1:
            raise InputError(f"count must be >= 1, got {args.count}")
        if args.count > args.N:
            raise InputError(f"--count {args.count} exceeds --N {args.N}")
        config = galerkin.GalerkinConfig(
            params=params, n_basis=args.N, m_s=args.ms, m_u=args.mu
        )
        solution = galerkin.solve(config)
        rows = [
            {
                "index": k + 1,
                "value": float(solution.eigenvalues[k]),
                "residual": float(solution.residual_norms[k]),
            }
            for k in range(args.count)
        ]
        columns = ("index", "value", "residual")
    else:
        if args.model == "fake":
            spectrum = fake_spectrum(params, args.count)
        else:
            spectrum = effective_spectrum(params, args.count)
        rows = [
            {
                "index": k + 1,
                "value": value,
                "multiplicity": multiplicity,
                "mode": _mode_label(mode),
            }
            for k, (value, mode, multiplicity) in enumerate(spectrum.flattened(args.count))
        ]
        columns = ("index", "value", "multiplicity", "mode")
    text = _render(_manifest("spectrum", args), columns, rows, args.format)
    _write_output(text, args.output)
    return 0


def _cmd_converge(args) -> int:
    given = args.R is not None or args.circumference is not None
    radius = _radius(args) if given else 18.0 / (2.0 * np.pi)
    if args.steps < 1:
        raise InputError(f"--steps must be >= 1, got {args.steps}")
    if args.grid == "geometric":
        a_grid = convergence.geometric_grid(args.a_min, args.a_max, args.steps)
    else:
        a_grid = np.linspace(args.a_min, args.a_max, args.steps)
    sweep_fn = (
        convergence.eigenvalue_sweep
        if args.kind == "eigenvalue"
        else convergence.eigenvector_sweep
    )
    sweep = sweep_fn(
        radius, a_grid, args.K, args.N, m_s=args.ms, m_u=args.mu, threads=args.threads
    )
    differences = sweep.differences()
    rows = []
    for i, a in enumerate(sweep.a_grid):
        for n in range(1, args.K + 1):
            rows.append(
                {
                    "record": "sample",
                    "a": float(a),
                    "n": n,
                    "lambda_effective": float(sweep.effective_values[i, n - 1]),
                    "lambda_true": float(sweep.true_values[i, n - 1]),
                    "difference": float(differences[i, n - 1]),
                    "ratio": float(sweep.ratios[i, n - 1]),
                    "slope": None,
                }
            )
    window = tuple(args.window) if args.window is not None else None
    for n in range(1, args.K + 1):
        try:
            slope = convergence.fit_rate(sweep, n, window)
        except InputError:
            slope = None
        rows.append(
            {
                "record": "slope",
                "a": None,
                "n": n,
                "lambda_effective": None,
                "lambda_true": None,
                "difference": None,
                "ratio": None,
                "slope": slope,
            }
        )
    columns = (
        "record", "a", "n", "lambda_effective", "lambda_true",
        "difference", "ratio", "slope",
    )
    text = _render(_manifest("converge", args), columns, rows, args.format)
    _write_output(text, args.output)
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
    params = StripParams(a=args.a, R=_radius(args))
    if not (1 <= args.k <= args.N):
        raise InputError(f"--k must be in [1, {args.N}], got {args.k}")
    grid_s, grid_u = _parse_grid_spec(args.grid)
    galerkin.require_capacity(export_points=grid_s * grid_u)
    config = galerkin.GalerkinConfig(
        params=params, n_basis=args.N, m_s=args.ms, m_u=args.mu
    )
    solution = galerkin.solve(config)
    s = np.linspace(0.0, params.circumference, grid_s)
    u = np.linspace(-1.0, 1.0, grid_u)
    density = solution.eigenfunction_values(args.k, s, u) ** 2
    rows = []
    columns = ["s", "u", "density"]
    if args.embed3d:
        columns += ["x", "y", "z"]
        points = embed(params, s[:, None], params.a * u[None, :])
    for i in range(grid_s):
        for j in range(grid_u):
            row = {"s": float(s[i]), "u": float(u[j]), "density": float(density[i, j])}
            if args.embed3d:
                row.update(
                    x=float(points[i, j, 0]),
                    y=float(points[i, j, 1]),
                    z=float(points[i, j, 2]),
                )
            rows.append(row)
    text = _render(_manifest("eigenfunction", args), tuple(columns), rows, args.format)
    _write_output(text, args.output)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_all()
    rows = [
        {
            "module": r.module,
            "check": r.name,
            "status": "pass" if r.passed else "FAIL",
            "detail": r.detail,
        }
        for r in results
    ]
    text = _render(
        _manifest("verify", args), ("module", "check", "status", "detail"), rows, args.format
    )
    _write_output(text, args.output)
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
    seedless = os.environ.get("MOEBIUS_SEEDLESS")
    if seedless is not None and seedless != "1":
        sys.stderr.write(
            "error: MOEBIUS_SEEDLESS accepts only '1'; this tool is "
            "deterministic and seedless by construction\n"
        )
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except MoebiusError as exc:  # fallback for any future subclass
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
