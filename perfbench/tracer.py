"""Span tracer for the shapetransport benchmark.

Wraps the package's public functions from outside, at every name each one
is bound to, and records one span per call: name, start, end and the span
that caused it. Spans stay in memory until the run ends. The tracer also
counts `ShapeSpaceError`s raised through each function, the calls and
batch items of `numpy.linalg.eigh` and `numpy.linalg.svd`, and the share of
calls to a few kernels whose input bytes repeat an earlier call.

Functions that no longer exist are reported as absent instead of failing,
so that a refactor which merges or renames one keeps the benchmark running.
"""

import math
import sys
import time
from array import array

import numpy as np

# `<layer>.<function>` for every wrapped function; the layer is the
# module name inside the `shapetransport` package.
TRACED = (
    "linalg.solve_skew_sylvester",
    "linalg.solve_sylvester_skew",
    "linalg.optimal_rotation",
    "preshape.project_to_preshape",
    "preshape.to_tangent",
    "preshape.horizontal_projection",
    "preshape.exp",
    "preshape.log",
    "preshape.align",
    "quotient.check_representative",
    "quotient.quotient_log",
    "transport.geodesic_state",
    "transport.transport_ode_rhs",
    "transport.transport_integrated",
    "transport.pole_ladder",
    "bench.sample_problem",
    "bench._reference",
    "bench.run_convergence",
    "bench.write_csv",
    "bench.read_csv",
    "bench.write_svg_loglog",
    "bench.estimate_order",
)

KERNELS = ("eigh", "svd")


def _key_sylvester(sym, *_args, **_kwargs):
    # The eigenbasis depends on the symmetric coefficient only; that is
    # what a cache of solves would be keyed on.
    return sym.shape, sym.tobytes()


def _key_rotation(x, y, *_args, **_kwargs):
    return x.shape, x.tobytes(), y.tobytes()


# Exact-byte keys give a lower bound on what a cache could serve: inputs
# that are equal in exact arithmetic, such as gamma(s + delta) at the end of
# one step and gamma((i + 1) * delta) at the start of the next, can differ
# in the last bit and then count as distinct.
REPEAT_KEYS = {
    "linalg.solve_skew_sylvester": _key_sylvester,
    "linalg.optimal_rotation": _key_rotation,
}


class Tracer:
    """Install with `install()`, run the work, then `uninstall()` and read
    `metrics(ops)`. Not re-entrant across threads: the package is
    synchronous and the benchmark runs one caller."""

    def __init__(self, package="shapetransport", traced=TRACED):
        self.package = package
        self.names = list(traced)
        self.absent = []
        self._patched = []  # (owner, attribute, original)
        self._calls = [0] * len(self.names)
        self._errors = [0] * len(self.names)
        self._kernel_calls = dict.fromkeys(KERNELS, 0)
        self._kernel_items = dict.fromkeys(KERNELS, 0)
        self._seen = {name: set() for name in REPEAT_KEYS}
        self._repeats = dict.fromkeys(REPEAT_KEYS, 0)
        self._stack = []
        self.span_name = array("h")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation ---------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == self.package or name.startswith(prefix))]

    def install(self):
        modules = self._modules()
        by_layer = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        error_cls = getattr(by_layer.get("errors"), "ShapeSpaceError", Exception)
        for index, name in enumerate(self.names):
            layer, func = name.split(".", 1)
            original = getattr(by_layer.get(layer), func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, name, original, error_cls)
            # Rebind every module attribute that holds the original, so
            # `from .linalg import solve_skew_sylvester` is covered too.
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for kernel in KERNELS:
            original = getattr(np.linalg, kernel)
            self._patched.append((np.linalg, kernel, original))
            setattr(np.linalg, kernel, self._wrap_kernel(kernel, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *_exc):
        self.uninstall()

    def _wrap(self, index, name, original, error_cls):
        calls, errors, stack = self._calls, self._errors, self._stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter
        key_fn = REPEAT_KEYS.get(name)
        seen = self._seen.get(name)
        repeats = self._repeats

        def traced(*args, **kwargs):
            calls[index] += 1
            if key_fn is not None:
                key = key_fn(*args, **kwargs)
                if key in seen:
                    repeats[name] += 1
                else:
                    seen.add(key)
            span = len(s_start)
            s_name.append(index)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(math.nan)
            stack.append(span)
            s_start.append(clock())
            try:
                return original(*args, **kwargs)
            except error_cls:
                errors[index] += 1
                raise
            finally:
                s_end[span] = clock()
                stack.pop()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _wrap_kernel(self, kernel, original):
        calls, items = self._kernel_calls, self._kernel_items

        def counted(a, *args, **kwargs):
            calls[kernel] += 1
            items[kernel] += math.prod(np.shape(a)[:-2])
            return original(a, *args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- results --------------------------------------------------------

    def span_arrays(self):
        """Spans as numpy arrays: name index, parent span, start, end."""
        return (np.frombuffer(self.span_name, dtype=np.int16),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def calls(self, name):
        """Call count of one traced function, or None if it is absent."""
        if name in self.absent:
            return None
        return self._calls[self.names.index(name)]

    def metrics(self, ops=1):
        """Per-layer metrics, each divided by `ops` except the ratios.

        `<name>.self_ms` is the span duration minus the time covered by its
        direct child spans. Absent functions have no entries.
        """
        name_idx, parent, start, end = self.span_arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        name_idx = name_idx.astype(np.intp)
        total = np.bincount(name_idx, weights=dur, minlength=n_names)
        own = np.bincount(name_idx, weights=dur - child, minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            if name in self.absent:
                continue
            out[f"{name}.calls"] = (self._calls[i] / ops, "count")
            out[f"{name}.total_ms"] = (1e3 * total[i] / ops, "ms")
            out[f"{name}.self_ms"] = (1e3 * own[i] / ops, "ms")
            out[f"{name}.errors"] = (self._errors[i] / ops, "count")
        for kernel in KERNELS:
            out[f"numpy.{kernel}.calls"] = (self._kernel_calls[kernel] / ops, "count")
            out[f"numpy.{kernel}.items"] = (self._kernel_items[kernel] / ops, "count")
        for name in REPEAT_KEYS:
            if name in self.absent:
                continue
            n_calls = self._calls[self.names.index(name)]
            share = self._repeats[name] / n_calls if n_calls else 0.0
            out[f"{name}.repeat_share"] = (share, "ratio")
        return out

    def save(self, path):
        """Write every span once, at the end of the run."""
        name_idx, parent, start, end = self.span_arrays()
        np.savez(path, names=np.array(self.names), name=name_idx,
                 parent=parent, start=start, end=end)
