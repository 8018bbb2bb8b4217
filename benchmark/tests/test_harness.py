"""Tests of the benchmark's own logic: tail percentile, span self times,
wrapper installation and the input generator."""

import json
import os
import threading

import pytest

from benchmark import run, spans, workloads
from benchmark.spans import Span

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# --- tail percentile -------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 50, 57, 99, 100, 101, 1000, 1234])
def test_tail_is_highest_percentile_with_ten_ops_beyond(n):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, percentile, beyond = run.tail_percentile(values)
    assert beyond >= 10
    assert beyond == sum(1 for v in values if v > value)
    # the next integer percentile would leave fewer than ten ops beyond
    next_rank = -(-(percentile + 1) * n // 100)
    assert n - next_rank < 10


def test_tail_examples():
    assert run.tail_percentile(range(1, 51)) == (40, 80, 10)
    assert run.tail_percentile(range(1, 1001)) == (990, 99, 10)


def test_tail_with_too_few_ops_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    assert run.tail_percentile(range(10)) == (9, 100, 0)


def test_end_to_end_times_are_at_the_reference_speed():
    # the same ops on a machine running at half speed for the second half
    fake = run.Run("eigenvalue-sweep", 1, 1.0, trace=False)
    reference = run.CALIBRATION_REFERENCE_S
    for i in range(20):
        slow = 2.0 if i >= 10 else 1.0
        fake.records.append({"kind": "sweep", "wall_s": 0.5 * slow, "cpu_s": 0.4 * slow,
                             "calibration_s": reference * slow, "problems": []})
    values, detail = fake.end_to_end([(1.0, reference), (4.0, 2 * reference)])
    assert values["op_s.p50"] == pytest.approx(0.5)
    assert values["ops_per_s"] == pytest.approx(2.0)
    assert values["cpu_s_per_op"] == pytest.approx(0.4)
    assert values["setup_s"] == pytest.approx(1.5)
    assert detail["raw"]["op_s.p50"] == pytest.approx(0.75)
    assert detail["raw"]["setup_s"] == pytest.approx(2.5)


# --- self time -------------------------------------------------------------


def _span(name, start, end, parent=-1, thread="main", layer=None):
    return Span(name, layer or name.split(".")[0], start, end, parent, 0, thread)


def test_self_time_of_nested_spans():
    trace = [
        _span("galerkin.solve", 0, 100),
        _span("quadrature.for_strip", 10, 40, parent=0),
        _span("quadrature.gauss_legendre", 15, 20, parent=1),
        _span("linalg.eig", 50, 60, parent=0),
    ]
    assert spans.self_times(trace) == [60, 25, 5, 10]


def test_self_time_counts_overlapping_children_once():
    trace = [
        _span("a.parent", 0, 100),
        _span("b.first", 10, 40, parent=0),
        _span("b.second", 30, 50, parent=0),
        _span("b.clipped", 90, 120, parent=0),
    ]
    assert spans.self_times(trace)[0] == 100 - 40 - 10


def test_self_time_is_per_thread():
    # a sweep whose workers run on two other threads, overlapping it and
    # each other; only same-thread children reduce a span's self time
    trace = [
        _span("convergence.sweep", 0, 100, thread="main"),
        _span("galerkin.solve", 5, 95, parent=0, thread="w1"),
        _span("galerkin.solve", 5, 90, parent=0, thread="w2"),
        _span("linalg.eig", 10, 80, parent=1, thread="w1"),
        _span("convergence.fit", 96, 99, parent=0, thread="main"),
    ]
    assert spans.self_times(trace) == [97, 20, 85, 70, 3]
    galerkin = spans.busy_ns(trace, lambda s: s.layer == "galerkin")
    assert galerkin == 90 + 85  # thread time adds up


def test_busy_counts_nested_same_layer_once():
    trace = [
        _span("mathieu.evaluate", 0, 50),
        _span("mathieu.fourier_coefficients", 10, 40, parent=0),
        _span("linalg.tri", 15, 35, parent=1),
        _span("mathieu.char_values", 60, 70),
    ]
    mathieu = lambda s: s.layer == "mathieu"  # noqa: E731
    assert spans.outermost(trace, mathieu) == [0, 3]
    assert spans.busy_ns(trace, mathieu) == 60


def test_recorder_parents_worker_spans_on_the_op_span():
    recorder = spans.Recorder()
    recorder.start_op(7)
    root = recorder.begin("bench.op", "bench")
    sweep = recorder.begin("convergence.eigenvalue_sweep", "convergence")

    def worker():
        inner = recorder.begin("galerkin.solve", "galerkin")
        recorder.end(inner)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.end(sweep)
    recorder.end(root)
    solve = recorder.spans[2]
    assert solve.parent == sweep and solve.op == 7
    assert solve.thread != recorder.spans[sweep].thread
    assert recorder.spans[sweep].parent == root


def test_numpy_eigen_span_takes_the_layer_of_its_linalg_ancestor():
    # a tridiagonal kernel that calls eigvalsh from inside moebius.linalg must
    # not be counted as a dense eigensolve
    import numpy as np
    recorder = spans.Recorder()
    recorder.start_op(0)
    eigvalsh = recorder.wrap(np.linalg.eigvalsh, "numpy.linalg.eigvalsh", spans._numpy_layer)

    def tridiagonal(matrix):
        return eigvalsh(matrix)

    traced_tridiagonal = recorder.wrap(tridiagonal, "linalg.eig_tridiagonal",
                                       "linalg.tridiagonal")
    traced_tridiagonal(np.diag([1.0, 2.0]))
    eigvalsh(np.diag([3.0, 4.0]))  # outside any linalg span: by caller module
    outer, inner, alone = recorder.spans
    assert inner.parent == 0 and inner.layer == "linalg.tridiagonal"
    assert alone.layer == "linalg.eigensolve"
    eig = lambda s: s.layer == "linalg.eigensolve"  # noqa: E731
    tri = lambda s: s.layer == "linalg.tridiagonal"  # noqa: E731
    assert spans.outermost(recorder.spans, eig) == [2]
    assert spans.outermost(recorder.spans, tri) == [0]


# --- installation ----------------------------------------------------------


def test_installation_wraps_every_binding_and_restores_it():
    from moebius import convergence, galerkin, linalg
    from moebius.geometry import StripParams
    from moebius.quadrature import QuadratureGrid

    originals = (galerkin.solve, convergence.solve, galerkin.eig_dense_symmetric,
                 linalg.eig_dense_symmetric, QuadratureGrid.__dict__["for_strip"])
    recorder = spans.Recorder()
    installation = spans.Installation(recorder).install()
    try:
        assert galerkin.solve is convergence.solve is not originals[0]
        recorder.start_op(0)
        galerkin.solve(galerkin.GalerkinConfig(params=StripParams(0.5, 2.0), n_basis=12))
    finally:
        installation.uninstall()
    assert (galerkin.solve, convergence.solve, galerkin.eig_dense_symmetric,
            linalg.eig_dense_symmetric, QuadratureGrid.__dict__["for_strip"]) == originals
    by_name = {s.name: s for s in recorder.spans}
    solve = by_name["galerkin.solve"]
    eig = by_name["linalg.eig_dense_symmetric"]
    grid = by_name["quadrature.QuadratureGrid.for_strip"]
    assert eig.layer == "linalg.eigensolve" and eig.attrs["order"] == 12
    assert eig.attrs["flops"] == 9 * 12**3
    assert solve.attrs["basis"] == 12 and grid.attrs["points"] > 0
    assert recorder.spans[eig.parent].name == "galerkin.solve"
    assert installation.absent == []


def test_missing_entry_point_is_reported_absent(monkeypatch):
    from moebius import verify
    monkeypatch.delattr(verify, "run_all")
    installation = spans.Installation(spans.Recorder()).install()
    installation.uninstall()
    assert "verify.run_all" in installation.absent
    assert "verify.check_seam_symmetry" in installation.installed


# --- generator -------------------------------------------------------------


def _ops(workload, seed, cycles=20):
    return [op for index in range(cycles) for op in workloads.cycle(workload, seed, index)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    first = _ops(workload, 17)
    assert json.dumps(first) == json.dumps(_ops(workload, 17))
    assert workloads.cycle(workload, 17, 5) == first[5 * len(first) // 20: 6 * len(first) // 20]
    other = _ops(workload, 18)
    assert json.dumps(other) != json.dumps(first)
    # the seed moves parameters, never the mix of op kinds
    assert [op["kind"] for op in other] == [op["kind"] for op in first]


def test_generated_inputs_perturb_the_readme_commands():
    for op in _ops("eigenvalue-sweep", 3):
        assert 68 <= op["N"] <= 76 and op["K"] == 20 and op["steps"] == 7
        assert 0.045 <= op["a_min"] <= 0.055 and 0.45 <= op["a_max"] <= 0.55
    ops = _ops("cli-commands", 3, cycles=4)
    # one op per README command per cycle, in the README's order
    assert [op["kind"] for op in ops] == list(workloads.CLI_KINDS) * 4
    true = [op for op in ops if op["kind"] == "spectrum-true"]
    assert [op["table"] for op in true] == [True, False, False, False]
    assert true[0]["N"] == 102 and true[1]["N"] == 82
    vector = [op["argv"] for op in ops if op["kind"] == "converge-eigenvector"]
    assert vector[0] == ["converge", "--kind", "eigenvector", "--K", "5", "--N", "72"]


def test_a_run_measures_whole_cycles(monkeypatch):
    fake = run.Run("cli-commands", 1, 0.0, trace=False)
    monkeypatch.setattr(fake, "run_op", lambda index, op, traced: {"index": index})
    fake.measure()
    assert [op["kind"] for op in fake.ops] == list(workloads.CLI_KINDS)
    fixed = run.Run("cli-commands", 1, 40.0, trace=False)
    monkeypatch.setattr(fixed, "run_op", lambda index, op, traced: {"index": index})
    fixed.measure()
    assert len(fixed.ops) == 3 * len(workloads.CLI_KINDS)
    traced = run.Run("eigenvalue-sweep", 1, 0.0, trace=True)
    monkeypatch.setattr(traced, "run_op", lambda index, op, flag: {"traced": flag})
    traced.measure()
    assert [r["traced"] for r in traced.records] == [True, False]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
