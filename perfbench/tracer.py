"""Outside-in tracing of the voxgs layers.

The tracer wraps the public functions of each voxgs module from outside the
library: every module attribute that holds one of the traced function
objects (the defining binding, package re-exports and ``from .x import y``
bindings alike) is replaced by a wrapper for the duration of a traced
round, then restored. CLI commands are traced through their ``callback``.

Only calls made inside a benchmark operation (a root span) are recorded.
Spans are kept in memory as ``[name, op_id, parent, start_ns, end_ns, count]``
lists and written out when the benchmark ends. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in this single-threaded benchmark, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Public functions traced per module, in pipeline order.
TARGETS = {
    "model": ("validate",),
    "quantize": ("quantize_positions", "quantize_features", "ste_round"),
    "geometry": ("morton_encode", "sort_by_morton", "octree_encode", "octree_decode"),
    "rlc": (
        "varint_pack",
        "varint_unpack_all",
        "rlc_encode",
        "rlc_decode",
        "encode_attributes",
        "decode_attributes",
    ),
    "rate": ("fit_laplace", "estimate_bits", "nll_bits_and_grads"),
    "sandbox": ("step", "measure_rlc_bits"),
    "container": (
        "quantize_cloud",
        "dequantize_cloud",
        "encode_container",
        "decode_container",
        "analyze_container",
        "read_anchor_file",
        "write_anchor_file",
    ),
    "cli": ("encode", "decode", "analyze"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts recorded at the same boundaries as the spans. Each maps the
# call's (args, kwargs, result) to a whole number; all repeat exactly.
COUNTS = {
    "rlc.varint_pack": ("values", lambda a, k, r: np.size(_arg(a, k, 0, "values"))),
    "rlc.rlc_encode": ("bytes_out", lambda a, k, r: len(r.serialized)),
    "rate.estimate_bits": ("symbols", lambda a, k, r: np.size(_arg(a, k, 1, "values"))),
    "rate.nll_bits_and_grads": ("symbols", lambda a, k, r: np.size(_arg(a, k, 0, "x"))),
    "geometry.octree_encode": ("bytes_out", lambda a, k, r: len(r.occupancy_bytes)),
}

ROOT_PREFIX = "bench."


def span_names():
    """Every traced layer span name, as ``<module>.<function>``."""
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _voxgs_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "voxgs" and m]


def _traced_function(obj):
    """The function a module attribute holds: itself, or a CLI command's callback."""
    return obj if callable(obj) and hasattr(obj, "__code__") else getattr(obj, "callback", None)


def installed_wrappers():
    """(module, attribute) pairs that still hold a tracing wrapper."""
    found = []
    for mod in _voxgs_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, "_perfbench_original") or hasattr(
                getattr(val, "callback", None), "_perfbench_original"
            ):
                found.append((mod.__name__, attr))
    return found


def span_cost_ns(calls=20000):
    """Wrapper bookkeeping per recorded span, timed on a function that does nothing."""

    def noop():
        return None

    wrapped = Tracer()._wrap(ROOT_PREFIX + "noop", noop)
    start = perf_counter_ns()
    for _ in range(calls):
        noop()
    bare = perf_counter_ns() - start
    start = perf_counter_ns()
    for _ in range(calls):
        wrapped()
    return max(0, perf_counter_ns() - start - bare) / calls


class Tracer:
    """Span recorder; install() wraps the voxgs layers, uninstall() restores them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = 0
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        count = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not name.startswith(ROOT_PREFIX):
                # Outside a benchmark operation, e.g. an output check: not traced.
                return fn(*args, **kwargs)
            span = [name, self._op_id, stack[-1] if stack else -1, perf_counter_ns(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[5] = int(count(args, kwargs, result))
            return result

        wrapper._perfbench_original = fn
        return wrapper

    def install(self):
        import voxgs  # noqa: F401  (loads every voxgs module)

        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _voxgs_modules()
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"voxgs.{mod_name}"]
            for fn_name in fns:
                original = _traced_function(getattr(home, fn_name))
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                        elif getattr(val, "callback", None) is original:
                            self._restore.append((val, "callback", original))
                            val.callback = wrapper

    def uninstall(self):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def root(self, kind, fn, *args):
        """Run one benchmark operation as a root span ``bench.<kind>``."""
        self._op_id += 1
        return self._wrap(ROOT_PREFIX + kind, fn)(*args)

    def aggregate(self):
        """Per-name totals: {name: [calls, total_ns, self_ns, count]}."""
        child = [0] * len(self.spans)
        for name, _op, parent, start, end, _count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: [0, 0, 0, 0])
        for i, (name, _op, _parent, start, end, count) in enumerate(self.spans):
            row = agg[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += count
        return agg

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op_id", "name", "start_ns", "end_ns", "count"])
            for i, (name, op_id, parent, start, end, count) in enumerate(self.spans):
                out.writerow([i, parent, op_id, name, start, end, count])
