"""The workloads: seeded input generators, set-up, ops and their oracles.

The op mix is the README's command list: the ``cli-commands`` cycle runs
each README command once, in the README's order, and ``eigenvalue-sweep``
runs the README's ``converge --kind eigenvalue`` sweep in-process.  The
seed perturbs the continuous parameters a README command line gives (half
width, radius or circumference, grid ends) by a factor in [0.9, 1.1], and
the sweep's basis size by up to 4 either way; everything else is as the
README types it.

Inputs are a pure function of (workload, seed): ``random.Random`` seeded
with a string (hashed by SHA-512, so independent of PYTHONHASHSEED and
stable across Python versions) draws each cycle's parameters.  A run
measures whole cycles, so every run and every seed measures the same mix.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time

import numpy as np

from benchmark import oracles

# --- generators ------------------------------------------------------------

PERTURBATION = (0.9, 1.1)
CONVERGE_RADIUS = 18.0 / (2.0 * math.pi)  # converge's radius when none is given

# README: converge --kind eigenvalue --a-min 0.05 --a-max 0.5 --steps 7
#         --grid geometric --K 20 --N 72
SWEEP = {"a_min": 0.05, "a_max": 0.5, "steps": 7, "K": 20, "N": 72}
SWEEP_N_SPREAD = 4

# README: eigenfunction --k 1 --a 1.3 --R 2.8647889756541165 --N 96
#         --grid 192x65 --embed3d --output density.csv
EXPORT_GRID = (192, 65)

# README: converge --kind eigenvector --K 5 --N 72 (default grid: 30 uniform
# steps from a = 0.01 to 1.5)
EIGENVECTOR_SWEEP = {"a_min": 0.01, "a_max": 1.5, "steps": 30, "K": 5, "N": 72}

CLI_KINDS = (
    "mathieu", "spectrum-fake", "spectrum-effective", "spectrum-true",
    "converge-eigenvalue", "converge-eigenvector", "eigenfunction", "verify",
)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _integer(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform on lo..hi inclusive, from random() only (version-stable)."""
    return lo + int((hi - lo + 1) * rng.random())


def _perturbed(rng: random.Random, value: float) -> float:
    return value * _uniform(rng, *PERTURBATION)


def _cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def sweep_cycle(seed: int, cycle: int) -> list[dict]:
    rng = _cycle_rng("eigenvalue-sweep", seed, cycle)
    return [{
        "op": "eigenvalue_sweep",
        "kind": "sweep",
        "R": _perturbed(rng, CONVERGE_RADIUS),
        "a_min": _perturbed(rng, SWEEP["a_min"]),
        "a_max": _perturbed(rng, SWEEP["a_max"]),
        "steps": SWEEP["steps"],
        "K": SWEEP["K"],
        "N": SWEEP["N"] + _integer(rng, -SWEEP_N_SPREAD, SWEEP_N_SPREAD),
    }]


def _cli_op(kind: str, rng: random.Random, cycle: int) -> dict:
    """One README command; the table and the export alternate CSV (as the
    README writes them) and JSON by cycle."""
    fmt = "csv" if cycle % 2 == 0 else "json"
    if kind == "mathieu":
        return {"format": fmt, "max_order": 10,
                "argv": ["mathieu", "--q", "-0.25", "--max-order", "10"]}
    if kind.startswith("spectrum-"):
        model = kind.split("-")[1]
        a = _perturbed(rng, 0.75)
        circumference = _perturbed(rng, 13.2)
        count, extra, table = 20, [], False
        if model == "true":
            n_basis = 82
            table = cycle == 0
            if table:  # the anchor: the published table's parameters and basis
                a, circumference, n_basis = oracles.TABLE_A, 13.2, oracles.TABLE_N
            extra = ["--N", str(n_basis)]
        op = {"format": "csv", "a": a, "R": circumference / (2.0 * math.pi), "count": count,
              "table": table,
              "argv": ["spectrum", "--model", model, "--a", repr(a),
                       "--circumference", repr(circumference), "--count", str(count), *extra]}
        if model == "true":
            op["N"] = n_basis
        return op
    if kind == "converge-eigenvalue":
        a_min = _perturbed(rng, SWEEP["a_min"])
        a_max = _perturbed(rng, SWEEP["a_max"])
        return {"format": "csv", "R": CONVERGE_RADIUS, "a_min": a_min, "a_max": a_max,
                "steps": SWEEP["steps"], "grid": "geometric", "K": SWEEP["K"], "N": SWEEP["N"],
                "argv": ["converge", "--kind", "eigenvalue", "--a-min", repr(a_min),
                         "--a-max", repr(a_max), "--steps", str(SWEEP["steps"]),
                         "--grid", "geometric", "--K", str(SWEEP["K"]), "--N", str(SWEEP["N"])]}
    if kind == "converge-eigenvector":
        return {"format": "csv", "R": CONVERGE_RADIUS, **EIGENVECTOR_SWEEP, "grid": "uniform",
                "argv": ["converge", "--kind", "eigenvector",
                         "--K", str(EIGENVECTOR_SWEEP["K"]), "--N", str(EIGENVECTOR_SWEEP["N"])]}
    if kind == "eigenfunction":
        a = _perturbed(rng, 1.3)
        R = _perturbed(rng, 2.8647889756541165)
        return {"format": fmt, "a": a, "R": R, "k": 1, "N": 96, "grid": list(EXPORT_GRID),
                "to_file": True,
                "argv": ["eigenfunction", "--k", "1", "--a", repr(a), "--R", repr(R),
                         "--N", "96", "--grid", "%dx%d" % EXPORT_GRID, "--embed3d"]}
    return {"format": "csv", "argv": ["verify"]}


def cli_cycle(seed: int, cycle: int) -> list[dict]:
    rng = _cycle_rng("cli-commands", seed, cycle)
    ops = []
    for kind in CLI_KINDS:
        op = {"op": "cli", "kind": kind, **_cli_op(kind, rng, cycle)}
        if op["format"] == "json":
            op["argv"] = op["argv"] + ["--format", "json"]
        ops.append(op)
    return ops


CYCLES = {
    "eigenvalue-sweep": sweep_cycle,
    "cli-commands": cli_cycle,
}


# A cli-commands run measures a fixed number of whole cycles, about as long
# as asked on the baseline machine, where a cycle takes 15 to 19 s: its op
# count, and with it the percentile the tail falls on, must not depend on
# the machine's speed.  Other workloads run whole cycles until the time is up.
CYCLE_SECONDS = {"cli-commands": 15.0}


def cycle_count(workload: str, seconds: float) -> int | None:
    """Cycles a run of ``seconds`` measures, or None to go by the clock."""
    nominal = CYCLE_SECONDS.get(workload)
    return None if nominal is None else max(1, round(seconds / nominal))


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """Cycle ``index`` of a workload's ops; a pure function of its inputs."""
    ops = CYCLES[workload](seed, index)
    for op in ops:
        op["cycle"] = index
    return ops


# --- in-process ops --------------------------------------------------------


def run_sweep(op: dict):
    from moebius import convergence
    grid = convergence.geometric_grid(op["a_min"], op["a_max"], op["steps"])
    return convergence.eigenvalue_sweep(op["R"], grid, op["K"], op["N"])


def _dense_grid(op: dict, a_grid, close_pairs: bool) -> list:
    return [oracles.dense_true_values(a, op["R"], op["N"], op["K"], close_pairs)
            for a in a_grid]


def check_sweep(op: dict, sweep) -> list[str]:
    # sweeps solve with close_pairs=True (convergence.eigenvalue_sweep)
    return oracles.check_sweep(
        op["R"], sweep.a_grid, sweep.effective_values, sweep.true_values, sweep.ratios,
        _dense_grid(op, sweep.a_grid, close_pairs=True),
    )


def setup_sweep() -> None:
    """Warm the Mathieu caches with one sweep at the README's parameters."""
    op = {"R": CONVERGE_RADIUS, **SWEEP}
    problems = check_sweep(op, run_sweep(op))
    if problems:
        raise RuntimeError(f"warm-up sweep failed its oracle: {problems}")


# --- CLI ops ---------------------------------------------------------------

CLI_WARMUPS = (
    ["mathieu", "--max-order", "10"],
    ["spectrum", "--model", "fake", "--a", "0.75", "--circumference", "13.2", "--count", "5"],
    ["spectrum", "--model", "effective", "--a", "0.75", "--circumference", "13.2", "--count", "5"],
    ["spectrum", "--model", "true", "--a", "0.75", "--circumference", "13.2", "--count", "5",
     "--N", "20"],
    ["converge", "--kind", "eigenvalue", "--steps", "1", "--K", "2", "--N", "20"],
    ["converge", "--kind", "eigenvector", "--steps", "1", "--K", "2", "--N", "20"],
    ["eigenfunction", "--k", "1", "--a", "1.0", "--R", "3.0", "--N", "20", "--grid", "8x5",
     "--embed3d"],
    ["eigenfunction", "--k", "1", "--a", "1.0", "--R", "3.0", "--N", "20", "--grid", "8x5",
     "--embed3d", "--format", "json"],
    ["verify"],
)


class CliRunner:
    """Runs one ``moebius`` command per child process and collects its usage.

    Untraced ops run ``python -m moebius.cli`` exactly as a user types it;
    traced ops run ``benchmark/cli_child.py``, which installs the span
    wrappers and then calls ``moebius.cli.main``.
    """

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        self.env["SOURCE_DATE_EPOCH"] = "1577836800"

    def run(self, argv, fmt: str, to_file: bool, spans_path: str | None = None, op_id: int = -1):
        """Returns (exit code, wall s, cpu s, peak rss KB, output text, stderr)."""
        out_path = os.path.join(self.workdir, f"out.{fmt}")
        stdout_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        argv = list(argv) + (["--output", out_path] if to_file else [])
        if spans_path is None:
            command = [sys.executable, "-m", "moebius.cli", *argv]
        else:
            command = [sys.executable, os.path.join(self.root, "benchmark", "cli_child.py"),
                       spans_path, str(op_id), *argv]
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text_path = out_path if to_file else stdout_path
        text = ""
        if os.path.exists(text_path):
            with open(text_path, encoding="utf-8") as handle:
                text = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        for path in (out_path, stdout_path, err_path):
            if os.path.exists(path):
                os.unlink(path)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss, text, stderr


def check_cli(op: dict, returncode: int, text: str, stderr: str) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-300:]}"]
    try:
        rows = oracles.parse_output(text, op["format"])
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]
    kind = op["kind"]
    try:
        if kind == "mathieu":
            return oracles.check_cli_mathieu(rows, op["max_order"])
        if kind.startswith("spectrum-"):
            model = kind.split("-")[1]
            dense = None
            if model == "true":
                dense = oracles.dense_true_values(op["a"], op["R"], op["N"], op["count"])
            problems = oracles.check_cli_spectrum(
                rows, model, op["a"], op["R"], op["count"], dense)
            if op.get("table"):
                problems += oracles.check_table([float(row["value"]) for row in rows])
            return problems
        if kind.startswith("converge-"):
            if op["grid"] == "geometric":
                grid = np.geomspace(op["a_min"], op["a_max"], op["steps"])
            else:
                grid = np.linspace(op["a_min"], op["a_max"], op["steps"])
            return oracles.check_cli_converge(
                rows, grid, op["K"], op["R"], _dense_grid(op, grid, close_pairs=True),
                kind.split("-")[1])
        if kind == "eigenfunction":
            return oracles.check_cli_eigenfunction(rows, op["a"], op["R"], *op["grid"])
        return oracles.check_cli_verify(rows)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed rows: {exc!r}"]


def setup_cli(runner: CliRunner) -> None:
    """One small command of each kind: fills the page cache and __pycache__."""
    for argv in CLI_WARMUPS:
        fmt = "json" if "json" in argv else "csv"
        code, *_, stderr = runner.run(argv, fmt, to_file=False)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}: {stderr[-300:]}")
