"""Spans around the public functions of each qforecast module.

The tracer replaces a function in every ``qforecast`` module namespace that
binds it (``from .linsys import build_windows`` makes a second binding), so
calls from inside the program are seen as well as calls from the benchmark.
Nothing in ``src/`` is edited; ``uninstall`` puts the originals back.

Spans live in memory as parallel lists (name, start, end, parent) and are
written out once, at the end. A span's self time is its duration minus the
durations of its direct children.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute, span name); a dotted attribute is a classmethod
TARGETS = [
    ("qsim", "run_circuit", "qsim.run_circuit"),
    ("qsim", "expectation", "qsim.expectation"),
    ("qsim", "hadamard_test", "qsim.hadamard_test"),
    ("qsim", "circuit_unitary", "qsim.circuit_unitary"),
    ("pqc", "loss", "pqc.loss"),
    ("pqc", "gradient", "pqc.gradient"),
    ("pqc", "predict_batch", "pqc.predict_batch"),
    ("pqc", "train", "pqc.train"),
    ("vqls", "cost", "vqls.cost"),
    ("vqls", "solve", "vqls.solve"),
    ("vqls", "VqlsProblem.from_system", "vqls.from_system"),
    ("pauli", "decompose", "pauli.decompose"),
    ("optimize", "minimize_derivative_free", "optimize.minimize"),
    ("optimize", "minimize_quasi_newton", "optimize.minimize"),
    ("baselines", "mlp_train", "baselines.mlp_train"),
    ("baselines", "fit_linear", "baselines.fit_linear"),
    ("linsys", "difference", "linsys.preprocess"),
    ("linsys", "fit_scaler", "linsys.preprocess"),
    ("linsys", "build_windows", "linsys.preprocess"),
    ("linsys", "split_mask", "linsys.preprocess"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "write_artifacts", "pipeline.write_artifacts"),
    ("pipeline", "roll_predictions", "cli.roll"),
    ("cli", "load_any_model", "cli.load_model"),
    ("datagen", "generate", "datagen.generate"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name, self.start, self.end, self.parent = [], [], [], []
        self.stack = []
        self.counters = {}
        self._restore = []

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        """Time every call of fn as a span; after(args, kwargs, result, seconds)
        records counts at the same boundary."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.end[idx] = t1
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result
        return traced

    def _after(self, name):
        if name == "qsim.run_circuit":
            def count(args, kwargs, result, seconds):
                circuit = args[0]
                gates = len(circuit.gates)
                self.add("qsim.gates", gates)
                self.add("qsim.bytes_computed", gates * 2 * 16 * (1 << circuit.num_qubits))
            return count
        if name == "pqc.predict_batch":
            return lambda args, kwargs, result, seconds: self.add(
                "pqc.predict_batch.windows", len(result))
        if name == "baselines.mlp_train":
            return lambda args, kwargs, result, seconds: self.add(
                "baselines.mlp_epochs", len(result[1]))
        if name == "pauli.decompose":
            def count(args, kwargs, result, seconds):
                self.add("pauli.terms", len(result.terms))
                if np.shape(args[0])[0] == 64:
                    self.add("pauli.decompose.d64_s", seconds)
            return count
        return None

    def _wrap_optimizer(self, fn):
        """Spans for the objective and gradient callbacks, so the optimizer's
        self time excludes them."""
        @functools.wraps(fn)
        def with_callbacks(fun, x0, *rest, **kwargs):
            fun = self.wrap("optimize.objective", fun)
            if fn.__name__ == "minimize_quasi_newton":
                rest = (self.wrap("optimize.gradient", rest[0]),) + rest[1:]
            return fn(fun, x0, *rest, **kwargs)
        return with_callbacks

    def install(self):
        for module_name, _, _ in TARGETS:
            importlib.import_module("qforecast." + module_name)
        modules = [m for k, m in sys.modules.items()
                   if k == "qforecast" or k.startswith("qforecast.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules["qforecast." + module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self.wrap(name, original.__func__))
                setattr(cls, method, wrapped)
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, self._after(name))
            if module_name == "optimize":
                wrapped = self._wrap_optimizer(wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        names = np.array(self.span_name, dtype=int)
        parent = np.array(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum())}
        return out

    def write(self, path):
        """Spans as CSV: name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                fh.write("%s,%.9f,%.9f,%d\n" % (self.names[nid], s, e, p))
