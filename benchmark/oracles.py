"""Per-op correctness oracles that never call the routine being timed.

Each ``check_*`` function returns a list of problems; an empty list means
the op passed.  Reference data are closed forms evaluated here, published
digits, and for the true model the eigenvalues of the package's assembled
Galerkin matrix computed by numpy's LAPACK ``eigvalsh`` rather than by the
package's own QL solver.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

Q = -0.25

# Characteristic values a_m(-1/4), b_m(-1/4) from a high-precision tabulation.
REFERENCE_A = {
    0: "-0.03103939547561732443850972818046737540",
    1: "0.74242882598662974339949054767095543815",
    2: "4.02582908464560324171350493521402514557",
    3: "9.00366486704623913463365662695182921571",
    4: "16.00208529046719562998287970766353836899",
    5: "25.00130213222684081366209108945453834337",
    6: "36.00089287379843422726407677439950789279",
    7: "49.00065104784806396399969278784780613747",
    8: "64.00049603440671169350384368118283820869",
    9: "81.00039062627570760760462351056102476286",
    10: "100.00031565723007867410511381290959992431",
}
REFERENCE_B = {
    1: "1.24194112824291514482231057477841662622",
    2: "3.99479307863211894594328093443536761399",
    3: "9.00415255154693478030510107620470513307",
    4: "16.00208190103817298727073812993351765300",
    5: "25.00130214546980228095721811268235655121",
    6: "36.00089287376532391463296827349981967276",
    7: "49.00065104784812144953869393158610105146",
    8: "64.00049603440671162017886328541877470187",
    9: "81.00039062627570760767623083270127588410",
    10: "100.00031565723007867410505855991940003139",
}

# Published 20-row true-model table at a = 0.75, 2 pi R = 13.2, reproduced
# by the 102-function energy-cutoff basis.
TABLE_A = 0.75
TABLE_R = 13.2 / (2.0 * math.pi)
TABLE_N = 102
TABLE_VALUES = (
    4.387440201465426, 4.619975308169118, 4.6210487512326965,
    5.311812674844678, 5.311812691949888, 6.45928381512197, 6.459283815177474,
    8.054793717112888, 8.054793717134626, 10.087710686170643, 10.087710686180136,
    12.544971054834159, 12.544971054880232, 15.411764278613166, 15.411764278618152,
    17.59842628782262, 17.622050913758347, 18.084500866091076, 18.084502386722757,
    18.672740544194298,
)

TABLE_RTOL = 3e-11
MATHIEU_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-12
DENSE_RTOL = 1e-10
SLOPE_BAND = (1.8, 2.2)
# The thin-strip rate tends to 2 as a -> 0; up to a = 0.5 the lowest eight
# indices are within the band, higher ones still pre-asymptotic (index 20
# fits slopes down to 1.4 on the README's sweep).
SLOPE_INDICES = 8
DENSITY_NORM_TOL = 2e-2
EMBED_ATOL = 1e-12


def mathieu_char(kind: str, m: int, q: float = Q) -> float:
    """a_m(q) ('ce') or b_m(q) ('se') at q = -1/4.

    Orders up to 10 come from the reference digits; above that the
    large-order expansion (Abramowitz & Stegun 20.2.25), whose first
    omitted term is below 1e-20 at m = 11, applies to both kinds.
    """
    if q != Q:
        raise ValueError("reference data exist only for q = -1/4")
    if m <= 10:
        return float((REFERENCE_A if kind == "ce" else REFERENCE_B)[m])
    r2 = float(m * m)
    return (
        r2
        + q**2 / (2.0 * (r2 - 1.0))
        + (5.0 * r2 + 7.0) * q**4 / (32.0 * (r2 - 1.0) ** 3 * (r2 - 4.0))
        + (9.0 * r2**2 + 58.0 * r2 + 29.0)
        * q**6
        / (64.0 * (r2 - 1.0) ** 5 * (r2 - 4.0) * (r2 - 9.0))
    )


def _lowest(a: float, R: float, count: int, longitudinal) -> list[float]:
    """Lowest ``count`` values of longitudinal(m, kind) + (n pi / 2a)^2.

    ``longitudinal`` maps (kind, m) to the longitudinal energy, or None
    when that (kind, m) is not a mode; it must never fall below
    kappa (m^2 - 1), which bounds the enumeration.
    """
    kappa = 1.0 / (2.0 * R) ** 2
    e1 = (math.pi / (2.0 * a)) ** 2
    cap = e1 + kappa * (count + 2) ** 2
    while True:
        values = []
        n = 1
        while e1 * n * n <= cap + kappa:
            m = 1 if n % 2 == 0 else 0
            while kappa * (m * m - 1) + e1 * n * n <= cap:
                for kind in ("ce", "se"):
                    energy = longitudinal(kind, m)
                    if energy is not None:
                        values.append(energy + e1 * n * n)
                m += 2
            n += 1
        values = sorted(v for v in values if v <= cap)
        if len(values) >= count:
            return values[:count]
        cap *= 2.0


def flat_values(a: float, R: float, count: int) -> list[float]:
    """(m / 2R)^2 + (n pi / 2a)^2 over m in Z, n >= 1, m + n odd."""
    kappa = 1.0 / (2.0 * R) ** 2

    def longitudinal(kind, m):
        # 'ce' stands for the cosine (or constant) branch, 'se' for sine
        if kind == "se" and m == 0:
            return None
        return kappa * m * m

    return _lowest(a, R, count, longitudinal)


def effective_values(a: float, R: float, count: int) -> list[float]:
    """(1/2R)^2 a_m(-1/4) or b_m(-1/4), plus (n pi / 2a)^2, m + n odd."""
    kappa = 1.0 / (2.0 * R) ** 2

    def longitudinal(kind, m):
        if kind == "se" and m == 0:
            return None
        return kappa * mathieu_char(kind, m)

    return _lowest(a, R, count, longitudinal)


def _rel_excess(observed, expected, rtol, label) -> list[str]:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        return [f"{label}: shape {observed.shape}, expected {expected.shape}"]
    if not np.all(np.isfinite(observed)):
        return [f"{label}: non-finite values"]
    rel = np.abs(observed - expected) / np.maximum(np.abs(expected), 1e-300)
    worst = float(rel.max()) if rel.size else 0.0
    return [] if worst <= rtol else [f"{label}: relative error {worst:.3e} > {rtol:.0e}"]


def _ascending(values, label) -> list[str]:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite values"]
    if np.any(np.diff(values) < 0.0):
        return [f"{label}: not ascending"]
    return []


def check_table(eigenvalues) -> list[str]:
    """The 102-function basis reproduces the published table to 3e-11."""
    return _rel_excess(
        np.asarray(eigenvalues, dtype=float)[: len(TABLE_VALUES)], TABLE_VALUES,
        TABLE_RTOL, "published table",
    )


def dense_true_values(a: float, R: float, n_basis: int, count: int,
                      close_pairs: bool = False) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the true model's Galerkin matrix,
    assembled by the public ``galerkin.assemble`` and diagonalised here by
    numpy's ``eigvalsh``."""
    from moebius import galerkin
    from moebius.geometry import StripParams
    config = galerkin.GalerkinConfig(
        params=StripParams(a=float(a), R=float(R)), n_basis=n_basis, close_pairs=close_pairs)
    return np.linalg.eigvalsh(galerkin.assemble(config).to_dense())[:count]


def check_true_rows(true, dense, label) -> list[str]:
    """Each row ascending and equal to the dense reference to DENSE_RTOL."""
    true = np.asarray(true, dtype=float).reshape(len(dense), -1)
    problems = []
    for i, row in enumerate(true):
        problems += _ascending(row, f"{label} row {i}")
    return problems + _rel_excess(true, dense, DENSE_RTOL, label)


# --- in-process sweeps -----------------------------------------------------


def fitted_slopes(a_grid, effective, true) -> np.ndarray:
    """Least-squares log-log slopes of |lambda_eff - lambda_true| per index."""
    log_a = np.log(np.asarray(a_grid, dtype=float))
    diff = np.abs(np.asarray(effective, float) - np.asarray(true, float))
    return np.polyfit(log_a, np.log(np.maximum(diff, 1e-300)), 1)[0]


def check_slopes(slopes) -> list[str]:
    lo, hi = SLOPE_BAND
    return [
        f"index {k + 1}: fitted slope {slope} outside [{lo}, {hi}]"
        for k, slope in enumerate(slopes[:SLOPE_INDICES])
        if slope is None or not lo <= slope <= hi
    ]


def check_sweep(radius, a_grid, effective, true, ratios, dense) -> list[str]:
    """Effective columns match the closed form; true columns match ``dense``
    (``dense_true_values`` per grid point); ratios are |gap| / a^2; the
    lowest indices converge at slopes within the band around 2."""
    a_grid = np.asarray(a_grid, dtype=float)
    effective = np.asarray(effective, dtype=float)
    true = np.asarray(true, dtype=float)
    count = effective.shape[1]
    expected = np.array([effective_values(a, radius, count) for a in a_grid])
    problems = _rel_excess(effective, expected, CLOSED_FORM_RTOL, "sweep effective values")
    problems += check_true_rows(true, dense, "sweep true values")
    problems += _rel_excess(
        ratios, np.abs(effective - true) / a_grid[:, None] ** 2, CLOSED_FORM_RTOL,
        "sweep ratios",
    )
    return problems + check_slopes(fitted_slopes(a_grid, effective, true))


# --- CLI output ------------------------------------------------------------


def parse_output(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI output file as dicts of strings (CSV) or values (JSON).

    Raises ValueError on a malformed file or a missing manifest.
    """
    if fmt == "json":
        payload = json.loads(text)
        if "manifest" not in payload:
            raise ValueError("JSON output has no manifest")
        return list(payload["rows"])
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# manifest: "):
        raise ValueError("CSV output has no manifest line")
    json.loads(lines[0][len("# manifest: "):])
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _num(value):
    if value is None or value == "":
        return None
    return float(value)


def _mode(label: str):
    # "family(m=M,n=N)"
    family, rest = label.split("(", 1)
    m_part, n_part = rest.rstrip(")").split(",")
    return family, int(m_part.split("=")[1]), int(n_part.split("=")[1])


def check_cli_mathieu(rows, max_order) -> list[str]:
    if len(rows) != max_order + 1:
        return [f"mathieu: {len(rows)} rows, expected {max_order + 1}"]
    observed, expected = [], []
    for m, row in enumerate(rows):
        if int(row["m"]) != m:
            return [f"mathieu: row {m} has m={row['m']}"]
        observed.append(_num(row["a_m"]))
        expected.append(mathieu_char("ce", m))
        if m >= 1:
            observed.append(_num(row["b_m"]))
            expected.append(mathieu_char("se", m))
        elif _num(row["b_m"]) is not None:
            return ["mathieu: b_0 is not empty"]
    return _rel_excess(observed, expected, MATHIEU_RTOL, "mathieu table")


def check_cli_spectrum(rows, model, a, R, count, dense=None) -> list[str]:
    """``dense``: for the true model, the reference eigenvalues."""
    if len(rows) != count:
        return [f"spectrum {model}: {len(rows)} rows, expected {count}"]
    values = [_num(row["value"]) for row in rows]
    problems = _ascending(values, f"spectrum {model}")
    if model == "true":
        residuals = [_num(row["residual"]) for row in rows]
        if not all(r is not None and math.isfinite(r) and r >= 0.0 for r in residuals):
            problems.append("spectrum true: residual column not finite and >= 0")
        return problems + _rel_excess(values, dense, DENSE_RTOL, "spectrum true")
    kappa = 1.0 / (2.0 * R) ** 2
    e1 = (math.pi / (2.0 * a)) ** 2
    per_mode = []
    for row in rows:
        family, m, n = _mode(row["mode"])
        if (m + n) % 2 == 0:
            problems.append(f"spectrum {model}: mode {row['mode']} breaks m + n odd")
        if family == "fake":
            per_mode.append(kappa * m * m + e1 * n * n)
        else:
            kind = "ce" if family == "eff_ce" else "se"
            per_mode.append(kappa * mathieu_char(kind, m) + e1 * n * n)
    reference = flat_values if model == "fake" else effective_values
    problems += _rel_excess(values, per_mode, CLOSED_FORM_RTOL, f"spectrum {model} per mode")
    problems += _rel_excess(values, reference(a, R, count), CLOSED_FORM_RTOL, f"spectrum {model}")
    return problems


def check_cli_converge(rows, a_grid, K, R, dense, kind="eigenvector") -> list[str]:
    """``dense``: reference true eigenvalues per grid point.  For the
    eigenvalue kind the difference is |effective - true| and the lowest
    indices' slopes lie in the band around 2."""
    steps = len(a_grid)
    if len(rows) != steps * K + K:
        return [f"converge: {len(rows)} rows, expected {steps * K + K}"]
    samples = [r for r in rows if r["record"] == "sample"]
    slopes = [r for r in rows if r["record"] == "slope"]
    if len(samples) != steps * K or len(slopes) != K:
        return ["converge: wrong sample/slope record counts"]
    a_col = np.array([_num(r["a"]) for r in samples]).reshape(steps, K)
    eff = np.array([_num(r["lambda_effective"]) for r in samples]).reshape(steps, K)
    true = np.array([_num(r["lambda_true"]) for r in samples]).reshape(steps, K)
    diff = np.array([_num(r["difference"]) for r in samples]).reshape(steps, K)
    ratio = np.array([_num(r["ratio"]) for r in samples]).reshape(steps, K)
    problems = _rel_excess(a_col[:, 0], a_grid, CLOSED_FORM_RTOL, "converge grid")
    expected = np.array([effective_values(a, R, K) for a in a_grid])
    problems += _rel_excess(eff, expected, CLOSED_FORM_RTOL, "converge effective values")
    problems += check_true_rows(true, dense, "converge true values")
    if kind == "eigenvalue":
        problems += _rel_excess(diff, np.abs(eff - true), CLOSED_FORM_RTOL, "converge differences")
        if steps >= 4:
            problems += check_slopes([_num(r["slope"]) for r in slopes])
    if not (np.all(np.isfinite(diff)) and np.all(diff >= 0.0)):
        problems.append("converge: differences not finite and >= 0")
    problems += _rel_excess(
        ratio, diff / np.asarray(a_grid)[:, None] ** 2, CLOSED_FORM_RTOL, "converge ratios"
    )
    if steps < 4 and any(_num(r["slope"]) is not None for r in slopes):
        problems.append("converge: slope reported from fewer than 4 points")
    return problems


def embedding(a, R, s, u):
    """The strip surface X(s, a u), evaluated here from its closed form."""
    t = a * u
    radial = R - t * math.cos(s / (2.0 * R))
    return (radial * math.cos(s / R), radial * math.sin(s / R), -t * math.sin(s / (2.0 * R)))


def check_cli_eigenfunction(rows, a, R, grid_s, grid_u) -> list[str]:
    if len(rows) != grid_s * grid_u:
        return [f"eigenfunction: {len(rows)} rows, expected {grid_s * grid_u}"]
    s = np.array([_num(r["s"]) for r in rows]).reshape(grid_s, grid_u)
    u = np.array([_num(r["u"]) for r in rows]).reshape(grid_s, grid_u)
    density = np.array([_num(r["density"]) for r in rows]).reshape(grid_s, grid_u)
    problems = []
    s_axis = np.linspace(0.0, 2.0 * math.pi * R, grid_s)
    u_axis = np.linspace(-1.0, 1.0, grid_u)
    if not (np.allclose(s[:, 0], s_axis, rtol=1e-15, atol=1e-14)
            and np.allclose(u[0], u_axis, rtol=1e-15, atol=1e-15)):
        problems.append("eigenfunction: sample grid differs from linspace")
    if not (np.all(np.isfinite(density)) and np.all(density >= 0.0)):
        return problems + ["eigenfunction: density not finite and >= 0"]
    # |psi|^2 has unit integral over (0, 2 pi R) x (-1, 1)
    norm = float(np.trapezoid(np.trapezoid(density, u_axis, axis=1), s_axis))
    if not abs(norm - 1.0) <= DENSITY_NORM_TOL:
        problems.append(f"eigenfunction: density integrates to {norm:.5f}, expected 1")
    worst = 0.0
    for i in (0, grid_s // 3, grid_s - 1):
        for j in (0, grid_u // 2, grid_u - 1):
            row = rows[i * grid_u + j]
            point = embedding(a, R, s_axis[i], u_axis[j])
            got = (_num(row["x"]), _num(row["y"]), _num(row["z"]))
            worst = max(worst, max(abs(g - p) for g, p in zip(got, point)))
    if not worst <= EMBED_ATOL * max(1.0, R):
        problems.append(f"eigenfunction: embedded points off by {worst:.3e}")
    return problems


def check_cli_verify(rows) -> list[str]:
    if not rows:
        return ["verify: no rows"]
    failed = [f"{r['module']}.{r['check']}" for r in rows if r["status"] != "pass"]
    return [f"verify: failed checks {failed}"] if failed else []
