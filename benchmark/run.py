"""Benchmark of the moebius package: one seeded workload per run.

Usage (from the root of a checkout, no install needed):

    python3 benchmark/run.py --workload eigenvalue-sweep --seed 1 --seconds 40 --trace 0

One client runs ops in a closed loop: each op starts when the previous one
has finished and its output has been checked by an oracle of the benchmark's
own.  With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from spans recorded around
the program's public functions (see ``spans.py``); each op then runs
twice, traced and untraced, and the difference of the two medians on the
ops run both ways is the tracing overhead.  A detailed record (inputs, seed, environment, tail
percentile, failures) goes to ``benchmark/out/``.  See README.md.
"""

import os
import time

_PROCESS_START = time.perf_counter()

# BLAS threads, pinned to one before numpy loads, here and in CLI children.
# On a shared 2-core machine a second busy process doubled the wall time of
# an op using two OpenBLAS threads and left a one-thread op unchanged, so
# with the default the times measured the neighbours more than the program.
# The program's own thread pool (converge's default) is left as it is.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARIABLES = BLAS_THREAD_VARIABLES + (
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "PYTHON_CPU_COUNT",
)
THREADS_FOUND = {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ}
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:  # run as a script: make the benchmark package importable
    sys.path.insert(0, ROOT)

from benchmark import spans, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "benchmark", "out")

WORKLOADS = ("eigenvalue-sweep", "cli-commands")
# set-ups per run (this process's and fresh probes), of which the median is
# setup_s; a CLI set-up takes about 5 s, an in-process one about 1 s
SETUP_SAMPLES = {"eigenvalue-sweep": 7, "cli-commands": 3}
BLAS_FIELDS = ("name", "version", "openblas configuration")

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

VERIFY_CHECKS = (
    "check_jacobian_bounds", "check_seam_symmetry", "check_fermi_identity",
    "check_derivatives_fd", "check_embedding_metric", "check_mathieu_reference",
    "check_mathieu_interlacing", "check_mathieu_orthogonality",
    "check_mathieu_ode_residual", "check_basis_gram", "check_flat_plain_diagonal",
    "check_flat_veff_effective", "check_rayleigh_ritz_monotonicity",
)

# name -> (unit, entry points of which at least one must exist)
PER_LAYER = {
    "linalg.eigensolve.calls": ("1/op", ()),
    "linalg.eigensolve.busy_s": ("s/op", ()),
    "linalg.eigensolve.self_s": ("s/op", ()),
    "linalg.eigensolve.order_sum": ("1/op", ()),
    "linalg.eigensolve.flops_computed": ("flop/op", ()),
    "linalg.tridiagonal.calls": ("1/op", ()),
    "linalg.tridiagonal.busy_s": ("s/op", ()),
    "linalg.tridiagonal.order_sum": ("1/op", ()),
    "mathieu.busy_s": ("s/op", ("mathieu.char_values", "mathieu.fourier_coefficients")),
    "mathieu.self_s": ("s/op", ("mathieu.char_values", "mathieu.fourier_coefficients")),
    "mathieu.fourier_coefficients.hit_ratio": ("ratio", ("cache:fourier_coefficients",)),
    "mathieu.class_values.hit_ratio": ("ratio", ("cache:class_values",)),
    "galerkin.solve.calls": ("1/op", ("galerkin.solve",)),
    "galerkin.solve.busy_s": ("s/op", ("galerkin.solve",)),
    "galerkin.self_s": ("s/op", ("galerkin.solve",)),
    "galerkin.effective_in_basis.busy_s": ("s/op", ("galerkin.effective_in_basis",)),
    "galerkin.basis_functions": ("1/op", ("galerkin.solve",)),
    "galerkin.quadrature_points": ("1/op", ("quadrature.QuadratureGrid.for_strip",)),
    "convergence.busy_s": ("s/op", ("convergence.eigenvalue_sweep",)),
    "convergence.self_s": ("s/op", ("convergence.eigenvalue_sweep",)),
    "convergence.solve_overlap": ("ratio", ("convergence.eigenvalue_sweep", "galerkin.solve")),
    "models.busy_s": ("s/op", ("models.fake_spectrum",)),
    "models.self_s": ("s/op", ("models.fake_spectrum",)),
    "geometry.busy_s": ("s/op", ("geometry.jacobian_f",)),
    "quadrature.busy_s": ("s/op", ("quadrature.QuadratureGrid.for_strip",)),
    "cli.import_s": ("s/op", ("cli.main",)),
    "cli.self_s": ("s/op", ("cli.main",)),
    "cli.output_bytes": ("B/op", ("cli.main",)),
    "verify.run_all.busy_s": ("s/op", ("verify.run_all",)),
    **{f"verify.{name[len('check_'):]}.busy_s": ("s/op", (f"verify.{name}",))
       for name in VERIFY_CHECKS},
    "trace.overhead_s": ("s", ()),
}


# Machine-speed calibration.  On the 2-core baseline machine the speed of
# the whole VM switches between states about 1.6x apart for tens of seconds
# at a time, so raw times of runs made minutes apart differ by more than any
# bound.  A fixed pure-Python loop timed right before each op (and after
# each set-up) slows with the machine; scaling every time by
# CALIBRATION_REFERENCE_S / (that loop's time, as a median of five) reports
# it at one reference speed.  Over five minutes of such switching the raw time of one sweep
# ranged over +-16% and the calibrated time over +-4%.  The loop is the
# benchmark's own code, so no change to the program can move it.
CALIBRATION_REFERENCE_S = 0.025
SETUP_CALIBRATIONS = 5  # a set-up's loop time is the median of five
_CALIBRATION_DIAGONAL = [float(i * i) + 0.5 for i in range(80)]


def calibrate() -> float:
    """Wall time of a fixed loop of float arithmetic (QL-style rotations)."""
    d = list(_CALIBRATION_DIAGONAL)
    total = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        for i in range(79):
            g = (d[i + 1] - d[i]) / 0.6
            total += 0.3 / (g + math.copysign(math.hypot(g, 1.0), g))
            d[i] += 1e-9 * total
    return time.perf_counter() - start


def tail_percentile(values):
    """(value, percentile, ops beyond): the highest integer percentile whose
    nearest-rank value has at least ten ops above it.  With ten ops or fewer
    no such percentile exists and the maximum is returned as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    percentile = 100 * (n - 10) // n
    rank = -(-percentile * n // 100)  # ceil, 1-based nearest rank
    return ordered[rank - 1], percentile, n - rank


def environment() -> dict:
    import numpy as np
    config = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        config = {k: {f: deps.get(k, {}).get(f) for f in BLAS_FIELDS} for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy < 1.25 prints only
        config = {"show_config": "unavailable"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas_lapack": config,
        "commit": git_commit(),
        "thread_variables_found": THREADS_FOUND,
        "thread_variables_used": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git reports 'unknown')."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_program():
    """Import moebius from this checkout's src/ (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "moebius", "__init__.py")):
        raise SystemExit(f"error: no moebius package under {SRC}")
    sys.path.insert(0, SRC)
    import moebius
    if not os.path.abspath(moebius.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported moebius from {moebius.__file__}, not {SRC}")


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.recorder = spans.Recorder()
        self.installation = spans.Installation(self.recorder)
        self.records: list[dict] = []
        self.ops: list[dict] = []
        self.caches = {}
        self.output_bytes = 0
        self.absent: set[str] = set()
        self.installed: set[str] = set()
        self.cli = None
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")

    # set-up -----------------------------------------------------------------

    def setup(self) -> None:
        if self.workload == "eigenvalue-sweep":
            workloads.setup_sweep()
        else:
            self.cli = workloads.CliRunner(ROOT, self.workdir)
            workloads.setup_cli(self.cli)

    def setup_probes(self, count: int) -> list[tuple[float, float]]:
        """(set-up, calibration) times of fresh processes running the same
        set-up."""
        samples = []
        for _ in range(count):
            result = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", self.workload,
                 "--seed", str(self.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            probe = json.loads(result.stdout.strip().splitlines()[-1])
            samples.append((probe["setup_s"], probe["calibration_s"]))
        return samples

    # ops --------------------------------------------------------------------

    def cycles(self):
        """Lists of (op, traced) pairs, one workload cycle each.

        A traced run runs every op twice in a row, traced and untraced, the
        order alternating, so the tracing overhead is measured on identical
        inputs at nearly the same time."""
        pairs = 0
        for index in itertools.count():
            ops = workloads.cycle(self.workload, self.seed, index)
            block = []
            for position, op in enumerate(ops):
                op["position"] = position
                if not self.trace:
                    block.append((op, False))
                    continue
                first = pairs % 2 == 0
                block += [(op, first), (op, not first)]
                pairs += 1
            yield block

    def run_op(self, index: int, op: dict, traced: bool) -> dict:
        record = {"index": index, "kind": op["kind"], "traced": traced,
                  "pair": (op["cycle"], op["position"])}
        if op["op"] == "cli":
            return self._run_cli(index, op, traced, record)
        if traced:
            before = spans.cache_counters()
            self.recorder.start_op(index)
            root = self.recorder.begin("bench.op", "bench")
        record["calibration_s"] = calibrate()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result, error = workloads.run_sweep(op), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        record["wall_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        record["cpu_s"] = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        if traced:
            self.recorder.end(root)
            self._add_caches(before, spans.cache_counters())
            self.recorder.enabled = False
        try:
            record["problems"] = [error] if error else workloads.check_sweep(op, result)
        except Exception as exc:  # a crashing oracle fails the op, not the run
            record["problems"] = [f"oracle raised {type(exc).__name__}: {exc}"]
        finally:
            self.recorder.enabled = True
        return record

    def _run_cli(self, index, op, traced, record) -> dict:
        spans_path = os.path.join(self.workdir, "spans.json") if traced else None
        if traced:
            self.recorder.start_op(index)
            root = self.recorder.begin("bench.op", "bench")
        record["calibration_s"] = calibrate()
        code, wall, cpu, rss_kb, text, stderr = self.cli.run(
            op["argv"], op["format"], op.get("to_file", False), spans_path, index
        )
        record.update(wall_s=wall, cpu_s=cpu, rss_mb=rss_kb / 1024.0)
        if traced:
            self.recorder.end(root)
            self.output_bytes += len(text.encode("utf-8"))
            try:
                with open(spans_path, encoding="utf-8") as handle:
                    child = json.load(handle)
                os.unlink(spans_path)
            except (OSError, ValueError):
                child = {"spans": [], "absent": [], "installed": [], "caches": {}}
            offset = len(self.recorder.spans)
            for raw in child["spans"]:
                span = spans.Span(**raw)
                span.parent = root if span.parent < 0 else span.parent + offset
                self.recorder.spans.append(span)
            self.absent.update(child["absent"])
            self.installed.update(child["installed"])
            self._add_caches({}, child["caches"])
        record["problems"] = workloads.check_cli(op, code, text, stderr)
        return record

    def _add_caches(self, before: dict, after: dict) -> None:
        for label, (hits, misses) in after.items():
            base = before.get(label, [0, 0])
            total = self.caches.setdefault(label, [0, 0])
            total[0] += hits - base[0]
            total[1] += misses - base[1]

    def measure(self) -> None:
        """Whole cycles, so every run measures the same mix: the workload's
        fixed number of cycles for ``seconds``, or else cycles until
        ``seconds`` have passed.  A traced run runs each op twice and so
        half as many cycles."""
        installed = False
        seconds = self.seconds / 2 if self.trace else self.seconds
        count = workloads.cycle_count(self.workload, seconds)
        deadline = time.perf_counter() + seconds
        for number, block in enumerate(self.cycles(), 1):
            for op, traced in block:
                if traced and op["op"] != "cli" and not installed:
                    self.installation.install()
                    self.absent.update(self.installation.absent)
                    self.installed.update(self.installation.installed)
                    installed = True
                elif not traced and installed:
                    self.installation.uninstall()
                    installed = False
                self.ops.append(op)
                self.records.append(self.run_op(len(self.records), op, traced))
            if number == count or (count is None and time.perf_counter() >= deadline):
                break
        if installed:
            self.installation.uninstall()

    # metrics ------------------------------------------------------------------

    def end_to_end(self, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
        """Times at the reference speed (see ``calibrate``); the raw times
        are in the details."""
        # a single calibration can be slow by chance: use the median of the
        # five around each op, still seconds apart at most
        calibrations = [r["calibration_s"] for r in self.records]
        speed = [CALIBRATION_REFERENCE_S / statistics.median(calibrations[max(i - 2, 0):i + 3])
                 for i in range(len(calibrations))]
        walls = [r["wall_s"] * k for r, k in zip(self.records, speed)]
        cpus = [r["cpu_s"] * k for r, k in zip(self.records, speed)]
        setups = [setup * CALIBRATION_REFERENCE_S / c for setup, c in setup_samples]
        tail, percentile, beyond = tail_percentile(walls)
        if self.workload == "cli-commands":
            # the heaviest command's peak, median over its runs: a single
            # child's peak moves with its thread pool's timing
            by_kind = {}
            for r in self.records:
                by_kind.setdefault(r["kind"], []).append(r["rss_mb"])
            peak_mb = max(statistics.median(v) for v in by_kind.values())
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = sum(1 for r in self.records if r["problems"])
        values = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(walls),
            "op_s.tail": tail,
            "ops_per_s": len(walls) / sum(walls),
            "cpu_s_per_op": sum(cpus) / len(walls),
            "peak_rss_mb": peak_mb,
            "ok_ratio": (len(walls) - failed) / len(walls),
        }
        raw_walls = [r["wall_s"] for r in self.records]
        detail = {
            "raw": {
                "setup_s": statistics.median(setup for setup, _ in setup_samples),
                "op_s.p50": statistics.median(raw_walls),
                "op_s.tail": tail_percentile(raw_walls)[0],
                "ops_per_s": len(raw_walls) / sum(raw_walls),
                "cpu_s_per_op": sum(r["cpu_s"] for r in self.records) / len(raw_walls),
            },
            "calibration_s.p50": statistics.median(r["calibration_s"] for r in self.records),
            "setup_samples_s": setup_samples,
            "op_s.tail_percentile": percentile,
            "op_s.tail_ops_beyond": beyond,
            "ops": len(walls),
            "failed_ratio": failed / len(walls),
        }
        return values, detail

    def per_layer(self) -> tuple[dict, dict]:
        trace = self.recorder.spans
        traced = [r for r in self.records if r["traced"]]
        untraced = [r for r in self.records if not r["traced"]]
        n = max(len(traced), 1)
        selfs = spans.self_times(trace)

        def layer(name):
            return lambda s: s.layer == name

        def named(name):
            return lambda s: s.name == name

        def per_op_s(ns):
            return ns / 1e9 / n

        def self_s(member):
            return per_op_s(sum(t for s, t in zip(trace, selfs) if member(s)))

        def outer_attr(member, key):
            return sum(trace[i].attrs.get(key, 0) for i in spans.outermost(trace, member)) / n

        def hit_ratio(label):
            hits, misses = self.caches.get(label, (0, 0))
            return hits / (hits + misses) if hits + misses else 0.0

        eig, tri = layer("linalg.eigensolve"), layer("linalg.tridiagonal")
        sweep = layer("convergence")
        solves_in_sweeps = sum(
            s.duration for i, s in enumerate(trace)
            if s.name == "galerkin.solve" and spans.has_ancestor(trace, i, sweep)
        )
        sweep_ns = spans.busy_ns(trace, sweep)
        values = {
            "linalg.eigensolve.calls": len(spans.outermost(trace, eig)) / n,
            "linalg.eigensolve.busy_s": per_op_s(spans.busy_ns(trace, eig)),
            "linalg.eigensolve.self_s": self_s(eig),
            "linalg.eigensolve.order_sum": outer_attr(eig, "order"),
            "linalg.eigensolve.flops_computed": outer_attr(eig, "flops"),
            "linalg.tridiagonal.calls": len(spans.outermost(trace, tri)) / n,
            "linalg.tridiagonal.busy_s": per_op_s(spans.busy_ns(trace, tri)),
            "linalg.tridiagonal.order_sum": outer_attr(tri, "order"),
            "mathieu.busy_s": per_op_s(spans.busy_ns(trace, layer("mathieu"))),
            "mathieu.self_s": self_s(layer("mathieu")),
            "mathieu.fourier_coefficients.hit_ratio": hit_ratio("fourier_coefficients"),
            "mathieu.class_values.hit_ratio": hit_ratio("class_values"),
            "galerkin.solve.calls": len(spans.outermost(trace, named("galerkin.solve"))) / n,
            "galerkin.solve.busy_s": per_op_s(spans.busy_ns(trace, named("galerkin.solve"))),
            "galerkin.self_s": self_s(layer("galerkin")),
            "galerkin.effective_in_basis.busy_s":
                per_op_s(spans.busy_ns(trace, named("galerkin.effective_in_basis"))),
            "galerkin.basis_functions": outer_attr(named("galerkin.solve"), "basis"),
            "galerkin.quadrature_points":
                outer_attr(named("quadrature.QuadratureGrid.for_strip"), "points"),
            "convergence.busy_s": per_op_s(sweep_ns),
            "convergence.self_s": self_s(sweep),
            "convergence.solve_overlap": solves_in_sweeps / sweep_ns if sweep_ns else 0.0,
            "models.busy_s": per_op_s(spans.busy_ns(trace, layer("models"))),
            "models.self_s": self_s(layer("models")),
            "geometry.busy_s": per_op_s(spans.busy_ns(trace, layer("geometry"))),
            "quadrature.busy_s": per_op_s(spans.busy_ns(trace, layer("quadrature"))),
            "cli.import_s": per_op_s(spans.busy_ns(trace, named("cli.import"))),
            "cli.self_s": self_s(named("cli.main")),
            "cli.output_bytes": self.output_bytes / n,
            "verify.run_all.busy_s": per_op_s(spans.busy_ns(trace, named("verify.run_all"))),
        }
        for check in VERIFY_CHECKS:
            values[f"verify.{check[len('check_'):]}.busy_s"] = per_op_s(
                spans.busy_ns(trace, named(f"verify.{check}")))
        # overhead on the ops that ran both ways
        both = {r["pair"] for r in traced} & {r["pair"] for r in untraced}
        p50_traced = statistics.median(
            [r["wall_s"] for r in traced if r["pair"] in both] or [0.0])
        p50_untraced = statistics.median(
            [r["wall_s"] for r in untraced if r["pair"] in both] or [0.0])
        values["trace.overhead_s"] = p50_traced - p50_untraced
        available = self.installed | {f"cache:{k}" for k in self.caches}
        absent = sorted(
            name for name, (_, needs) in PER_LAYER.items()
            if needs and not any(need in available for need in needs)
        )
        for name in absent:
            values[name] = 0.0
        detail = {
            "traced_ops": len(traced),
            "untraced_ops": len(untraced),
            "overhead_pairs": len(both),
            "traced_op_s.p50": p50_traced,
            "untraced_op_s.p50": p50_untraced,
            "spans": len(trace),
            "absent_metrics": absent,
            "absent_entry_points": sorted(self.absent - self.installed),
            "cache_counters": self.caches,
        }
        return values, detail

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.recorder.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the set-up, print its time and exit (set-up probe)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        own_setup = time.perf_counter() - _PROCESS_START
        own_calibration = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup, "calibration_s": own_calibration}))
            return 0
        setup_samples = [(own_setup, own_calibration)]
        if not args.trace:
            setup_samples += run.setup_probes(SETUP_SAMPLES[args.workload] - 1)
        run.measure()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    failed = sum(1 for r in run.records if r["problems"])
    if args.trace:
        values, detail = run.per_layer()
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, detail = run.end_to_end(setup_samples)
        units = dict(END_TO_END)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": values,
        "detail": detail,
        "environment": environment(),
        "failures": [
            {"index": r["index"], "kind": r["kind"], "problems": r["problems"]}
            for r in run.records if r["problems"]
        ],
        "inputs": run.ops,
        "ops": [{k: r[k] for k in ("kind", "traced", "wall_s", "cpu_s", "rss_mb", "calibration_s")
                 if k in r}
                for r in run.records],
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        run.write_spans(stem + ".spans.jsonl")

    for name in units:
        print(f"{name:45s} {values[name]:.6g} {units[name]}")
    for key, value in detail.items():
        print(f"# {key}: {json.dumps(value)}")
    for failure in record["failures"][:5]:
        print(f"# failed op {failure['index']} ({failure['kind']}): {failure['problems']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
