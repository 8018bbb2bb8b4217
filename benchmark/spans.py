"""Span recording around the program's module-level bindings.

The traced run replaces public functions of the ``moebius`` modules (and
``numpy.linalg.eigh``/``eigvalsh``) with thin wrappers that record one span
per call: name, layer, start, end, parent, op id and thread id, plus a few
counters read from the arguments or the result.  Spans stay in memory until
the run ends.  Nothing in the program changes; ``uninstall`` puts every
binding back.

A binding is wrapped wherever the program can call it: in its defining
module and in every other ``moebius`` module that imported it by name.  An
entry point missing from the program is listed in ``absent`` instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Public entry points per module; the module name is the span's layer,
# except for the linalg kernels, which get the finer layers below.
ENTRY_POINTS = {
    "linalg": ["eig_dense_symmetric", "eig_tridiagonal", "eig_tridiagonal_full"],
    "mathieu": ["char_values", "char_value", "fourier_coefficients", "evaluate"],
    "galerkin": ["solve", "assemble", "basis_modes", "effective_in_basis", "residual_norm"],
    "convergence": ["eigenvalue_sweep", "eigenvector_sweep", "fit_rate", "geometric_grid"],
    "models": [
        "fake_spectrum", "effective_spectrum", "fake_eigenfunction",
        "effective_eigenfunction", "transverse_profile", "fake_longitudinal",
        "effective_longitudinal",
    ],
    "geometry": [
        "embed", "jacobian_f", "jacobian_f_derivatives", "potential_va",
        "potential_veff", "curvatures", "f_squared_bounds",
    ],
    "quadrature": ["gauss_legendre", "integrate_2d", "QuadratureGrid.for_strip"],
    "verify": ["run_all"],  # plus every check_* found at install time
    "cli": ["main"],
}
LINALG_LAYERS = {
    "eig_dense_symmetric": "linalg.eigensolve",
    "eig_tridiagonal": "linalg.tridiagonal",
    "eig_tridiagonal_full": "linalg.tridiagonal",
}
NUMPY_EIGEN = ("eigh", "eigvalsh")


@dataclass
class Span:
    name: str
    layer: str
    start: int            # perf_counter_ns: CLOCK_MONOTONIC, shared by processes
    end: int
    parent: int           # index into the same span list, -1 for none
    op: int
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _eigen_attrs(name, args, kwargs) -> dict:
    """Matrix order and a computed flop count: 4/3 n^3 for eigenvalues only,
    9 n^3 with eigenvectors (Golub & Van Loan, symmetric QR algorithm)."""
    if not args:
        return {}
    matrix = args[0]
    order = getattr(matrix, "order", None)
    n = int(order) if order is not None else int(np.shape(matrix)[0])
    if name == "eig_dense_symmetric":
        vectors = kwargs.get("want_vectors", args[1] if len(args) > 1 else True)
    else:
        vectors = name in ("eigh", "eig_tridiagonal_full")
    return {"order": n, "flops": (9.0 if vectors else 4.0 / 3.0) * n**3}


def _grid_attrs(args, kwargs) -> dict:
    # QuadratureGrid.for_strip(params, m_s, m_u)
    if len(args) >= 3:
        return {"points": int(args[1]) * int(args[2])}
    return {}


def _basis_attrs(result) -> dict:
    basis = getattr(result, "basis", None)
    return {} if basis is None else {"basis": len(basis)}


class Recorder:
    """Holds the spans of one process; safe to use from several threads.

    A span opened on a thread with no open span of its own (a sweep worker)
    takes as parent the innermost open span of the thread running the op.
    """

    def __init__(self, thread_prefix: str = ""):
        self.spans: list[Span] = []
        self.op = -1
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._prefix = thread_prefix
        self._op_stack: list[int] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_spans(self) -> list[int]:
        """Indices of the spans open on the calling thread, outermost first."""
        return list(self._stack())

    def start_op(self, op: int) -> None:
        """Mark the calling thread as the one running op ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def begin(self, name: str, layer: str, attrs=None) -> int:
        stack = self._stack()
        op_stack = self._op_stack
        parent = stack[-1] if stack else (op_stack[-1] if op_stack else -1)
        span = Span(
            name, layer, time.perf_counter_ns(), 0, parent, self.op,
            f"{self._prefix}{threading.get_native_id()}", attrs or {},
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, fn, name: str, layer, attrs_fn=None, result_fn=None):
        """``fn`` recording a span per call while ``enabled``; ``layer`` may
        be a callable taking the recorder."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span_layer = layer(recorder) if callable(layer) else layer
            index = recorder.begin(name, span_layer, attrs_fn(args, kwargs) if attrs_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if result_fn is not None:
                recorder.spans[index].attrs.update(result_fn(result))
            return result

        return traced


def _numpy_layer(recorder: Recorder) -> str:
    """Layer of a numpy eigen call: that of the innermost open linalg span of
    this thread (a kernel that moved to LAPACK stays in its layer), else by
    the caller, where Mathieu recurrences count as tridiagonal."""
    for index in reversed(recorder.open_spans()):
        span_layer = recorder.spans[index].layer
        if span_layer.startswith("linalg."):
            return span_layer
    # frames: _numpy_layer <- traced <- the caller of eigh/eigvalsh
    caller = sys._getframe(2).f_globals.get("__name__", "")
    return "linalg.tridiagonal" if caller == "moebius.mathieu" else "linalg.eigensolve"


class Installation:
    """Wrappers installed into the loaded ``moebius`` modules."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Installation":
        self.absent = []
        self.installed = set()
        modules = {}
        for module_name, names in ENTRY_POINTS.items():
            try:
                modules[module_name] = importlib.import_module(f"moebius.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "moebius" or name.startswith("moebius.")]
        for module_name, module in modules.items():
            names = list(ENTRY_POINTS[module_name])
            if module_name == "verify":
                names += sorted(n for n in vars(module) if n.startswith("check_"))
            for fn_name in names:
                span_name = f"{module_name}.{fn_name}"
                if "." in fn_name:
                    self._install_classmethod(module, span_name, module_name, fn_name)
                    continue
                original = module.__dict__.get(fn_name)
                if not callable(original):
                    self.absent.append(span_name)
                    continue
                layer = LINALG_LAYERS.get(fn_name, module_name)
                wrapped = self.recorder.wrap(
                    original, span_name, layer,
                    functools.partial(_eigen_attrs, fn_name) if fn_name in LINALG_LAYERS else None,
                    _basis_attrs if span_name == "galerkin.solve" else None,
                )
                self._rebind(loaded, original, wrapped)
                self.installed.add(span_name)
        for fn_name in NUMPY_EIGEN:
            original = np.linalg.__dict__[fn_name]
            wrapped = self.recorder.wrap(
                original, f"numpy.linalg.{fn_name}", _numpy_layer,
                functools.partial(_eigen_attrs, fn_name),
            )
            self._set(np.linalg, fn_name, wrapped)
            self._rebind(loaded, original, wrapped)
            self.installed.add(f"numpy.linalg.{fn_name}")
        return self

    def _rebind(self, modules, original, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def _install_classmethod(self, module, span_name, layer, dotted) -> None:
        class_name, method = dotted.split(".")
        cls = module.__dict__.get(class_name)
        if cls is None or not isinstance(cls.__dict__.get(method), classmethod):
            self.absent.append(span_name)
            return
        wrapped = self.recorder.wrap(getattr(cls, method), span_name, layer, _grid_attrs)
        self._set(cls, method, staticmethod(wrapped))
        self.installed.add(span_name)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def cache_counters() -> dict:
    """[hits, misses] of the Mathieu caches, from their public cache_info()."""
    mathieu = sys.modules.get("moebius.mathieu")
    counters = {}
    for label, attr in (("fourier_coefficients", "fourier_coefficients"),
                        ("class_values", "_stable_class_values")):
        fn = getattr(mathieu, attr, None)
        info = getattr(fn, "cache_info", None) or getattr(
            getattr(fn, "__wrapped__", None), "cache_info", None)
        if info is not None:
            hits, misses = info()[:2]
            counters[label] = [hits, misses]
    return counters


# --- analysis --------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Duration minus the time covered by children on the same thread.

    Children running on other threads (sweep workers) overlap their parent
    in wall time but do not occupy its thread, so they are not subtracted.
    """
    covered: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0 and spans[span.parent].thread == span.thread:
            covered[span.parent].append((span.start, span.end))
    return [
        span.duration - _union_length(intervals, span.start, span.end)
        for span, intervals in zip(spans, covered)
    ]


def _union_length(intervals, lo, hi) -> int:
    total = 0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def has_ancestor(spans: list[Span], index: int, member) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if member(spans[parent]):
            return True
        parent = spans[parent].parent
    return False


def outermost(spans: list[Span], member) -> list[int]:
    """Indices of spans selected by ``member`` with no selected ancestor."""
    return [
        i for i, span in enumerate(spans)
        if member(span) and not has_ancestor(spans, i, member)
    ]


def busy_ns(spans: list[Span], member) -> int:
    """Time inside the selected spans, nested selections counted once;
    spans on different threads add up."""
    return sum(spans[i].duration for i in outermost(spans, member))
