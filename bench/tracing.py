"""Layer spans recorded from outside the program.

The tracer wraps the module attributes through which each zicarq layer is
called, so the program itself is unchanged.  Every wrapped call records a
span (name, start, end, parent span, op id) in flat typed arrays; self time
(a span's duration minus the time its child spans cover) is worked out
once, when the run ends.  Counts are taken at the same boundaries.

Layers are the package's modules: ``cli``, ``core``, ``analytic``,
``regions`` and ``simulator``; a span's layer is its name up to the first
dot.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "core", "analytic", "regions", "simulator")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_name(args, kwargs):
    scheme = _arg(args, kwargs, 0, "scheme")
    return "simulator.kernel." + getattr(scheme, "value", str(scheme))


def _count_kernel(counters, args, kwargs, result):
    scheme = getattr(_arg(args, kwargs, 0, "scheme"), "value", None)
    n = len(_arg(args, kwargs, 3, "g11"))
    key = f"simulator.kernel.{scheme}.trials"
    counters[key] = counters.get(key, 0) + n


def _count_draw(counters, args, kwargs, result):
    counters["simulator.trials"] = counters.get("simulator.trials", 0) + \
        int(_arg(args, kwargs, 2, "n"))


def _count_outage_point(counters, args, kwargs, result):
    counters["simulator.points"] = counters.get("simulator.points", 0) + 1
    if result.p_out1 > 0.0:
        counters["simulator.useful_points"] = \
            counters.get("simulator.useful_points", 0) + 1


def _count_csv(counters, args, kwargs, result):
    rows = _arg(args, kwargs, 2, "rows")
    path = _arg(args, kwargs, 0, "path")
    counters["cli.rows_written"] = counters.get("cli.rows_written", 0) + len(rows)
    counters["cli.csv_bytes"] = counters.get("cli.csv_bytes", 0) + \
        os.path.getsize(path)


# (defining module, attribute, span name or namer, counter).  Each target is
# replaced in every zicarq module that binds the same object, so the names
# the CLI imports from regions and simulator are covered too.  Several of
# these names are private and may move; a missing one is reported, not fatal.
TARGETS = (
    ("zicarq.cli", "_write_csv", "cli.write_csv", _count_csv),
    ("zicarq.core", "validate", "core.validate", None),
    ("zicarq.analytic", "scheme_dmt", "analytic.scheme_dmt", None),
    ("zicarq.regions", "_min_rx1", "regions.min_rx1", None),
    ("zicarq.regions", "_min_coop", "regions.min_coop", None),
    ("zicarq.regions", "_min_rx2", "regions.min_rx2", None),
    ("zicarq.regions", "oracle_d1_hk", "regions.oracle_d1_hk", None),
    ("zicarq.regions", "oracle_min_exponent_coop",
     "regions.oracle_min_exponent_coop", None),
    ("zicarq.simulator", "estimate_outage", "simulator.estimate",
     _count_outage_point),
    ("zicarq.simulator", "estimate_throughput", "simulator.estimate", None),
    ("zicarq.simulator", "fit_loglog_slope", "simulator.fit", None),
    ("zicarq.simulator", "_trial_gains", "simulator.draw", _count_draw),
    ("zicarq.simulator", "_episode_batch", _kernel_name, _count_kernel),
)

# Module objects bound inside another module; calls made through them
# (``analytic.d1_hk(...)`` in cli) are traced through a proxy, so calls
# inside the layer itself stay unwrapped.
MODULE_BINDINGS = (("zicarq.cli", "analytic", "analytic"),)

# The CLI builds regions by name before handing them to the minimisers.
REGION_BUILDER_PREFIXES = ("region_", "_region_")


class _ModuleProxy:
    """Stands in for a module binding; wraps each function on first use."""

    def __init__(self, tracer: "Tracer", module, layer: str):
        self._tracer = tracer
        self._module = module
        self._layer = layer

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if callable(value) and not isinstance(value, type) \
                and not hasattr(value, "__bench_span__"):
            value = self._tracer.wrap(value, f"{self._layer}.{name}")
        setattr(self, name, value)
        return value


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.current_op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        """Return fn wrapped in a span; ``name`` may be a function of the
        call's (args, kwargs)."""
        fixed = self._id(name) if isinstance(name, str) else None
        clock = time.perf_counter
        stack, ids, parents, ops = self._stack, self.name_id, self.parent, self.op
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        traced.__bench_span__ = name
        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def _zicarq_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "zicarq" or n.startswith("zicarq."))]

    def _patch_everywhere(self, original, wrapped):
        for mod in self._zicarq_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every target; record the ones that do not exist."""
        self.missing = []
        targets = list(TARGETS)
        regions = importlib.import_module("zicarq.regions")
        for attr, value in sorted(vars(regions).items()):
            if attr.startswith(REGION_BUILDER_PREFIXES) and callable(value):
                targets.append(("zicarq.regions", attr,
                                "regions." + attr.lstrip("_"), None))
        for modname, attr, name, count in targets:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patch_everywhere(original, self.wrap(original, name, count))
        for modname, attr, layer in MODULE_BINDINGS:
            mod = importlib.import_module(modname)
            bound = getattr(mod, attr, None)
            if bound is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patches.append((mod, attr, bound))
            setattr(mod, attr, _ModuleProxy(self, bound, layer))

    def uninstall(self):
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    # -- results ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent, op, start, end, self."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return name_id, parent, op, start, end, dur - covered

    def summary(self):
        """Per span name: (calls, entry calls, self seconds).

        An entry call is a span whose parent belongs to another layer (or
        which has no parent), so nested calls inside one layer are not
        counted twice in that layer's call count.
        """
        name_id, parent, _, _, _, self_s = self.arrays()
        layer_of = np.array([self._layer_index(n) for n in self.names] or [0],
                            dtype=np.int32)
        span_layer = layer_of[name_id]
        parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
        entry = span_layer != parent_layer
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        entries = np.bincount(name_id, weights=entry, minlength=n)
        selfs = np.bincount(name_id, weights=self_s, minlength=n)
        return {name: (int(calls[i]), int(entries[i]), float(selfs[i]))
                for i, name in enumerate(self.names)}

    @staticmethod
    def _layer_index(name: str) -> int:
        layer = name.split(".", 1)[0]
        return LAYERS.index(layer) if layer in LAYERS else len(LAYERS)

    def write(self, path: str):
        """Write every span (and the name table) to a compressed .npz."""
        name_id, parent, op, start, end, self_s = self.arrays()
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=name_id, parent=parent, op=op,
                            start=start - t0, end=end - t0, self_s=self_s)
