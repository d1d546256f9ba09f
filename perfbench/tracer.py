"""Span tracer that wraps the public functions of the bosonlr layers.

Spans are recorded from outside the package: every public function of the
layer modules is replaced by a timing wrapper, in its own module and in
every other ``bosonlr`` module that imported the name (``from .thermal
import two_point`` binds a second reference, so patching one module is not
enough).  A few class methods and private kernels are patched as well.

Each thread keeps its own span stack.  Sweep points that
``experiments._pmap`` hands to worker threads start from the span that
called ``_pmap``, so their spans are children of the experiment span.  A
span's self time is its duration minus the union of its children's
intervals; taking the union (not the sum) keeps self time non-negative when
children run on several threads at once.
"""

import collections
import inspect
import itertools
import os
import sys
import threading
import time

LAYERS = ("lattice", "fock", "operators", "dynamics", "thermal", "experiments")

# span names that differ from "<layer>.<function>"; several functions that
# do one job (the two enumerators, the two Gibbs constructors) share a span
SPAN_NAMES = {
    "fock.enumerate_basis": "fock.enumerate",
    "fock.enumerate_sectors": "fock.enumerate",
    "operators.assemble_hamiltonian": "operators.assemble",
    "operators.operator_norm": "operators.norm",
    "dynamics.evolve_state": "dynamics.evolve",
    "thermal.gibbs_state": "thermal.gibbs",
    "thermal.fixed_sector_gibbs": "thermal.gibbs",
}

# (module, class, method, span name)
METHODS = (
    ("dynamics", "SpectralDecomposition", "propagate", "dynamics.propagate"),
    ("thermal", "GreenFunction", "__init__", "thermal.green_init"),
    ("thermal", "GreenFunction", "__call__", "thermal.green_call"),
)

# private kernels worth a span of their own: (module, function, span name)
PRIVATE = (("dynamics", "_krylov_evolve", "dynamics.krylov"),)


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Records spans (id, name, start, end, parent) and exact counts.

    ``install`` patches the package; ``uninstall`` restores every binding
    it replaced.  Spans stay in memory until ``summary`` reads them.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._green_points = set()
        self._green_ids = itertools.count()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent))
            if on_result is not None:
                with tracer._lock:
                    on_result(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _adopting_pmap(self, pmap):
        """``_pmap`` whose worker threads start from the caller's span."""
        tracer = self

        def traced_pmap(fn, items, workers):
            parent = tracer.current()
            caller = threading.get_ident()

            def run(item):
                if threading.get_ident() == caller:  # _pmap ran the item serially
                    return fn(item)
                tracer._local.stack = [] if parent is None else [parent]
                try:
                    return fn(item)
                finally:
                    tracer._local.stack = None

            return pmap(run, items, workers)

        return traced_pmap

    # --------------------------------------------------------- counters

    def _count_states(self, args, basis):
        self.counts["fock.states"] += basis.dimension

    def _count_nnz(self, args, op):
        self.counts["operators.assemble.nnz"] += int(op.matrix.nnz)

    def _count_dim3(self, args, decomp):
        self.counts["dynamics.eigendecompose.dim3"] += sum(
            (sl.stop - sl.start) ** 3 for _, sl in decomp.sector_slices()
        )

    def _count_bytes(self, args, paths):
        self.counts["experiments.write_report.bytes"] += sum(
            os.path.getsize(p) for p in paths.values()
        )

    def _tag_green(self, args, _):
        args[0]._perfbench_id = next(self._green_ids)

    def _count_green_point(self, args, _):
        self._green_points.add((args[0]._perfbench_id, complex(args[1])))

    # ------------------------------------------------------------ patch

    def _rebind(self, original, replacement):
        """Point every bosonlr module attribute bound to ``original`` at
        ``replacement``, including entries of module-level dicts."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bosonlr" or mod_name.startswith("bosonlr.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((setattr, mod, attr, original))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = replacement
                            self._restore.append((dict.__setitem__, value, key, original))

    def install(self):
        import importlib

        hooks = {
            "fock.enumerate": self._count_states,
            "operators.assemble": self._count_nnz,
            "dynamics.eigendecompose": self._count_dim3,
            "experiments.write_report": self._count_bytes,
        }
        mods = {layer: importlib.import_module(f"bosonlr.{layer}") for layer in LAYERS}
        runners = mods["experiments"].RUNNERS
        runner_names = {fn: key for key, fn in runners.items()}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if fn in runner_names:
                    name = f"experiments.{runner_names[fn]}"
                else:
                    name = SPAN_NAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                self._rebind(fn, self.wrap(name, fn, hooks.get(name)))
        for layer, attr, name in PRIVATE:
            fn = getattr(mods[layer], attr)
            self._rebind(fn, self.wrap(name, fn))
        method_hooks = {
            "thermal.green_init": self._tag_green,
            "thermal.green_call": self._count_green_point,
        }
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = vars(cls)[attr]
            setattr(cls, attr, self.wrap(name, fn, method_hooks.get(name)))
            self._restore.append((setattr, cls, attr, fn))
        pmap = mods["experiments"]._pmap
        self._rebind(pmap, self._adopting_pmap(pmap))

    def uninstall(self):
        for setter, target, key, original in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()

    # ---------------------------------------------------------- summary

    def summary(self):
        """Per-name calls, busy time and self time, plus the exact counts.

        Busy time sums the outermost spans of a name (a span nested in a
        span of the same name is not counted twice); it is summed over
        threads, so it can exceed the wall time of a parallel sweep.
        """
        by_id = {}
        children = collections.defaultdict(list)
        for sid, name, t0, t1, parent in self.spans:
            by_id[sid] = (name, parent)
            if parent is not None:
                children[parent].append((t0, t1))
        calls = collections.Counter()
        busy = collections.Counter()
        self_time = collections.Counter()
        for sid, name, t0, t1, parent in self.spans:
            calls[name] += 1
            own = (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
            self_time[name] += own
            ancestor = parent
            nested = False
            while ancestor is not None:
                anc_name, ancestor = by_id[ancestor]
                if anc_name == name:
                    nested = True
                    break
            if not nested:
                busy[name] += t1 - t0
        counts = dict(self.counts)
        counts["thermal.green_call.unique"] = len(self._green_points)
        return {"calls": calls, "busy_s": busy, "self_s": self_time, "counts": counts}
