"""Span tracer that times calls into the gqbm layers from outside the package.

Nothing under ``src/`` is changed.  ``Tracer.install`` replaces the module
attributes each caller resolves at call time (``gqbm.cli.solve_u``,
``gqbm.coeffs.v_first_derivative``, ``Kernel.g_table``, ...) with wrappers
that record a span per call, and wraps the ``g``/``gtilde``/``g_v``/
``gtilde_v`` callables of every ``Kernel`` that ``build_kernels`` or
``kernels_from_bath`` hands back, so kernel evaluation is charged to
``spectral`` wherever it is called from: to the table span when it builds
a ``Kernel`` table, to ``spectral.kernel_eval`` otherwise.  ``uninstall``
restores the originals.

A span is (name, start, end, parent).  A layer's self time is its span time
minus the part of that interval covered by its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spectral", "greens", "coeffs", "moments", "oracle", "cli")

# (namespace, attribute, span name).  A function reachable from several
# namespaces gets one wrapper per namespace; only the caller's copy runs.
_FUNCTIONS = [
    (ns, attr, span)
    for ns in ("gqbm.cli", "gqbm")
    for attr, span in (
        ("build_kernels", "spectral.build_kernels"),
        ("kernels_from_bath", "spectral.kernels_from_bath"),
        ("discretize_bath", "spectral.discretize_bath"),
        ("solve_u", "greens.solve_u"),
        ("solve_v_fdt", "greens.solve_v_fdt"),
        ("correlated_correction", "greens.correlated_correction"),
        ("compute_k_lambda", "coeffs.compute_k_lambda"),
        ("compute_me_coeffs", "coeffs.compute_me_coeffs"),
        ("jolt_estimate", "coeffs.jolt_estimate"),
        ("evolve_means", "moments.evolve_means"),
        ("evolve_covariances", "moments.evolve_covariances"),
        ("to_quadratures", "moments.to_quadratures"),
        ("build_dynamics", "oracle.build_dynamics"),
        ("propagate", "oracle.propagate"),
        ("reduced_moments", "oracle.reduced_moments"),
        ("exact_moments", "oracle.exact_moments"),
        ("thermal_total_state", "oracle.thermal_total_state"),
    )
] + [
    ("gqbm.coeffs", "v_first_derivative", "greens.v_first_derivative"),
    ("gqbm.cli", "_write_csv", "cli.write_csv"),
    ("gqbm.cli", "_write_manifest", "cli.write_manifest"),
    ("gqbm.spectral.Kernel", "g_table", "spectral.g_table"),
    ("gqbm.spectral.Kernel", "gtilde_signed_table", "spectral.gtilde_table"),
]

_KERNEL_CALLABLES = ("g", "gtilde", "g_v", "gtilde_v")
_KERNEL_EVAL = "spectral.kernel_eval"
_TABLE_SPANS = ("spectral.g_table", "spectral.gtilde_table")
_MB = 1024.0 * 1024.0


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children.

    spans is a sequence of (name, start, end, parent_index) with
    parent_index None for a root.
    """
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _resident_mb() -> float:
    """Current resident set of this process (MB), read from /proc."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / _MB
    except (OSError, ValueError, IndexError):
        return _peak_rss_mb()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    return time.process_time()     # user + sys of every thread


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(path)


class Tracer:
    """In-memory span recorder plus the per-layer counters the bench reports."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        """Wrap fn in a span; the optional hook adds counts for the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call = _Call(fn, args, kwargs)
            before = hook.before(call) if hook is not None else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook.after(self, name, call, result, before)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        hooks = {
            "spectral.build_kernels": _KernelHook(),
            "spectral.kernels_from_bath": _KernelHook(),
            "spectral.g_table": _TableHook(),
            "spectral.gtilde_table": _TableHook(),
            "greens.solve_u": _StepsHook(),
            "oracle.propagate": _PropagateHook(),
            "oracle.thermal_total_state": _ResourceHook(),
            "cli.write_csv": _BytesHook(),
        }
        for ns_path, attr, span in _FUNCTIONS:
            try:
                ns = _resolve(ns_path)
            except (ImportError, AttributeError):
                continue
            original = ns.__dict__.get(attr) if isinstance(ns, type) else \
                getattr(ns, attr, None)
            if original is None or not callable(original):
                continue
            self._patches.append((ns, attr, original))
            setattr(ns, attr, self.wrap(original, span, hooks.get(span)))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def wrap_kernel(self, kernel):
        """Charge every evaluation of kernel's transforms to spectral.

        An evaluation made while a table span is innermost is that table's
        build and stays in the table's self time; any other evaluation gets
        a spectral.kernel_eval span.  kernel_eval.points counts the offsets
        of both.
        """
        for attr in _KERNEL_CALLABLES:
            fn = getattr(kernel, attr, None)
            if fn is None or getattr(fn, "__wrapped_by_perfbench__", False):
                continue
            object.__setattr__(kernel, attr, self._wrap_eval(fn))

    def _wrap_eval(self, fn):
        traced = self.wrap(fn, _KERNEL_EVAL, _PointsHook())

        @functools.wraps(fn)
        def evaluate(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] in _TABLE_SPANS:
                self.counts[_KERNEL_EVAL + ".points"] += (
                    np.size(args[0]) if args else 0)
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        evaluate.__wrapped_by_perfbench__ = True
        return evaluate

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Self seconds per span name and per layer, plus all counters."""
        selfs = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, selfs):
            out[name + ".self_s"] += own
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[layer + ".self_s"] += own
        for key, val in self.counts.items():
            out[key] += val
        for table in ("spectral.g_table", "spectral.gtilde_table"):
            calls = out.get(table + ".calls", 0.0)
            out[table + ".hit_ratio"] = (out.get(table + ".hits", 0.0) / calls
                                         if calls else 0.0)
        return dict(out)


# -- counters recorded at the layer boundaries -------------------------------


class _Call:
    """Arguments of one traced call, bound to parameter names on demand."""

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs

    def get(self, param: str):
        try:
            bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        except (TypeError, ValueError):
            return None
        return bound.arguments.get(param)


class _Hook:
    def before(self, call):
        return None

    def after(self, tracer, name, call, result, before):
        pass


class _KernelHook(_Hook):
    def after(self, tracer, name, call, result, before):
        tracer.wrap_kernel(result)


class _PointsHook(_Hook):
    def after(self, tracer, name, call, result, before):
        tracer.counts[name + ".points"] += np.size(call.args[0]) if call.args else 0


class _TableHook(_Hook):
    """A call that leaves the kernel's table cache unchanged found it built."""

    def before(self, call):
        return len(getattr(call.args[0], "_tables", ()) or ())

    def after(self, tracer, name, call, result, before):
        if len(getattr(call.args[0], "_tables", ()) or ()) == before:
            tracer.counts[name + ".hits"] += 1


class _StepsHook(_Hook):
    def after(self, tracer, name, call, result, before):
        grid = call.get("grid")
        tracer.counts[name + ".steps"] += getattr(grid, "n_steps", 0)


class _ResourceHook(_Hook):
    """CPU seconds (all threads) and the rise of the process's peak RSS.

    peak_mb is ru_maxrss after the call minus the resident set at entry;
    it is exact when the call sets the process high-water mark and a lower
    bound otherwise.
    """

    def before(self, call):
        return _cpu_s(), _resident_mb()

    def after(self, tracer, name, call, result, before):
        cpu0, rss0 = before
        tracer.counts[name + ".cpu_s"] += _cpu_s() - cpu0
        peak = max(0.0, _peak_rss_mb() - rss0)
        tracer.counts[name + ".peak_mb"] = max(
            tracer.counts.get(name + ".peak_mb", 0.0), peak)


class _PropagateHook(_ResourceHook):
    def after(self, tracer, name, call, result, before):
        super().after(tracer, name, call, result, before)
        dyn, grid = call.get("dyn"), call.get("grid")
        tracer.counts[name + ".mode_steps"] += (
            getattr(dyn, "n_modes", 0) * getattr(grid, "n_steps", 0))


class _BytesHook(_Hook):
    def after(self, tracer, name, call, result, before):
        path = call.get("path")
        try:
            tracer.counts["cli.out_bytes"] += os.path.getsize(path)
        except (OSError, TypeError):
            pass
