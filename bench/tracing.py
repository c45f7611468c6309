"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install()` wraps the public functions of every symplearn module, and
the public methods of the classes each module defines, so that a call records
one span: name, start, end, parent span and run id.  The wrappers are swapped
into every place the package keeps a reference to the original (module
globals, including names imported with `from x import y`, and the CLI's
handler table), and `uninstall()` puts the originals back.  Nothing under
`src/` changes, and an untraced run pays no wrapper cost at all.

Spans live in flat arrays (28 bytes each) because a traced evaluation run
records several hundred thousand of them; `save()` writes them out once, at
the end.  A few calls made per buffer or per field evaluation are counted but
not spanned, which keeps the record small where a span would say nothing a
count does not.  A handful of observers read the return values that carry
solver diagnostics (iteration counts, convergence), so ratios are measured
where the work happens.
"""

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "data", "systems", "integrators", "model", "adjoint",
          "memory", "training", "evaluation", "profiling")

# Private callables that are still layer boundaries worth a span: the
# forward-only loss behind validation and the epoch-0 baseline.
EXTRA_SPANNED = {"training._forward_loss"}

# Called once per buffer or per field evaluation: counted, not spanned.
# _reverse_input runs once per evaluation of the model's vector field, taped
# or not, so its count is the field-evaluation count.
COUNT_ONLY = {
    "memory.AllocationMeter.track",
    "memory.AllocationMeter.release",
    "model.HamiltonianNet.unpack",
    "model.HamiltonianNet.pack_layer_grads",
    "model.HamiltonianNet._reverse_input",
    "model.costate_to_direction",
}


def _observe_step(stats, key, report):
    stats[key + ".steps"] += 1
    stats[key + ".iters"] += report.iterations
    stats[key + ".nonconverged"] += not report.converged


def _observe_midpoint(stats, result):
    _observe_step(stats, "integrators.midpoint_step", result[1])


def _observe_prk(stats, result):
    _observe_step(stats, "integrators.prk_step", result[1])


def _observe_sweep(stats, result):
    stats["adjoint.costate_sweep.converged_sum"] += result[1].converged_fraction


def _observe_record(stats, result):
    stats["adjoint.record_rollout.steps"] += len(result.reports)


def _observe_dataset(stats, result):
    manifest, clean, noisy = result
    stats["data.bytes_written"] += (clean.nbytes + noisy.nbytes
                                    + len(manifest.to_json().encode()))


OBSERVERS = {
    "integrators.implicit_midpoint_step": _observe_midpoint,
    "integrators.prk_step": _observe_prk,
    "adjoint.solve_adjoint_accumulate": _observe_sweep,
    "adjoint.record_rollout": _observe_record,
    "data.generate_dataset": _observe_dataset,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts = Counter()
        self.stats = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self.stats, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        return self._spanned(name, fn)

    @staticmethod
    def _wanted(qualname, attr):
        return not attr.startswith("_") or qualname in COUNT_ONLY or qualname in EXTRA_SPANNED

    # ------------------------------------------------------- install/undo

    def install(self):
        """Wrap every layer's public callables; returns self."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"symplearn.{layer}")
            for attr, obj in list(vars(mod).items()):
                qual = f"{layer}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if self._wanted(qual, attr):
                        replaced[obj] = self._wrap(qual, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        # every module that imported a wrapped function by name gets the
        # wrapper too, as does any table of functions (the CLI's handlers)
        for mod_name in ("symplearn",) + tuple(f"symplearn.{m}" for m in LAYERS):
            mod = importlib.import_module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = replaced[value]
        return self

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("__") or not self._wanted(qual, attr):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(qual, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(qual, raw)
            else:
                continue
            self._undo.append((setattr, cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- output

    def arrays(self):
        """The span record as NumPy arrays (name ids index `self.names`)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write the spans as an .npz file that `summarise.py` reads."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())
