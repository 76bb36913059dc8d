"""The traced run's span recorder and the per-layer metrics it derives.

``Tracer.install`` wraps each public function listed in ``FUNCTIONS`` in every
namespace that holds it by name (the program's modules and the benchmark's
own), and each method in ``METHODS`` on its class.  A wrapped call records a
span ``[id, name, start, end, parent id, op id, children's time]``; spans stay
in memory and are written out when the run ends.  ``.ms`` sums the spans of a
name that have no ancestor of the same name, ``.self_ms`` sums span time less
the wrapped children, and ``.calls`` counts spans.  Only spans inside a timed
op (op id set) count.
"""

import json
import sys
import time

FUNCTIONS = [
    ("fans.load_fan", "toricmirror.fans", "load_fan"),
    ("series.invert_map", "toricmirror.series", "invert_map"),
    ("linalg.mat_inv", "toricmirror.linalg", "mat_inv"),
    ("linalg.rref", "toricmirror.linalg", "rref"),
    ("engine.build_I", "toricmirror.engine", "build_I"),
    ("engine.build_dI", "toricmirror.engine", "build_dI"),
    ("engine.birkhoff_factorize", "toricmirror.engine", "birkhoff_factorize"),
    ("engine.compute_mirror_data", "toricmirror.engine", "compute_mirror_data"),
    ("engine.seidel_coordinates", "toricmirror.engine", "seidel_coordinates"),
    ("engine.quantum_product", "toricmirror.engine", "quantum_product"),
    ("engine.primitive_form", "toricmirror.engine", "primitive_form"),
    ("cohomology.poincare_integral", "toricmirror.cohomology", "poincare_integral"),
    ("gaussmanin.check_theta", "toricmirror.gaussmanin", "check_theta"),
    ("gaussmanin.jacobi_structure_constants", "toricmirror.gaussmanin",
     "jacobi_structure_constants"),
    ("gaussmanin.noneq_restrict", "toricmirror.gaussmanin", "noneq_restrict"),
    ("verify.localization_check", "toricmirror.verify", "localization_check"),
    ("verify.run_property_suite", "toricmirror.verify", "run_property_suite"),
    ("verify.negative_controls", "toricmirror.verify", "negative_controls"),
    ("verify.wdvv_compare", "toricmirror.verify", "wdvv_compare"),
    ("cli.main", "toricmirror.cli", "main"),
]

METHODS = [
    ("series.Context", "toricmirror.series", "Context", ("__init__",)),
    ("series.HSeries.mul", "toricmirror.series", "HSeries", ("__mul__", "__rmul__")),
    ("series.OperatorSeries.apply", "toricmirror.series", "OperatorSeries", ("apply",)),
]

# (metric, unit, better): every per-layer metric a traced run prints.
PER_LAYER = [
    ("fans.load_fan.ms", "ms", "lower"),
    ("series.Context.ms", "ms", "lower"),
    ("series.HSeries.mul.calls", "count", "lower"),
    ("series.HSeries.mul.self_ms", "ms", "lower"),
    ("series.OperatorSeries.apply.calls", "count", "lower"),
    ("series.OperatorSeries.apply.self_ms", "ms", "lower"),
    ("series.invert_map.ms", "ms", "lower"),
    ("linalg.mat_inv.ms", "ms", "lower"),
    ("linalg.rref.ms", "ms", "lower"),
    ("engine.build_I.ms", "ms", "lower"),
    ("engine.build_dI.ms", "ms", "lower"),
    ("engine.birkhoff_factorize.self_ms", "ms", "lower"),
    ("engine.compute_mirror_data.ms", "ms", "lower"),
    ("engine.seidel_coordinates.calls", "count", "lower"),
    ("engine.seidel_coordinates.ms", "ms", "lower"),
    ("engine.quantum_product.calls", "count", "lower"),
    ("engine.quantum_product.self_ms", "ms", "lower"),
    ("engine.primitive_form.ms", "ms", "lower"),
    ("engine.coeffs", "count", "lower"),
    ("cohomology.poincare_integral.ms", "ms", "lower"),
    ("gaussmanin.check_theta.self_ms", "ms", "lower"),
    ("gaussmanin.jacobi_structure_constants.self_ms", "ms", "lower"),
    ("gaussmanin.noneq_restrict.self_ms", "ms", "lower"),
    ("verify.localization_check.ms", "ms", "lower"),
    ("verify.localization.identities", "count", "higher"),
    ("verify.run_property_suite.self_ms", "ms", "lower"),
    ("verify.negative_controls.self_ms", "ms", "lower"),
    ("verify.wdvv_compare.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.ops_ms", "ms", "lower"),
    ("trace.untraced_ops_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _size(series):
    return sum(len(inner) for inner in series.terms.values())


def mirror_data_coeffs(md):
    """Exact coefficients held in I, dI, M, P and S of one mirror data."""
    ops = (md.dI, md.M, md.P)
    return (_size(md.I) + sum(_size(c) for op in ops for c in op.cols.values())
            + sum(_size(s) for s in md.S.values()))


# span name -> (counter, function of the call's result) for counts read off outputs
RESULT_COUNTERS = {
    "engine.compute_mirror_data": ("engine.coeffs", mirror_data_coeffs),
    "verify.localization_check": (
        "verify.localization.identities", lambda entries: sum(e["checked"] for e in entries)),
}

START, END, PARENT, OP, CHILDREN, OUTER = 2, 3, 4, 5, 6, 7


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self, extra_namespaces=()):
        self.extra = list(extra_namespaces)
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []
        self._depth = {}
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(spans), name, 0.0, 0.0, parent[0] if parent else None,
                   self.op, 0.0, depth.get(name, 0) == 0]
            spans.append(rec)
            stack.append(rec)
            depth[name] = depth.get(name, 0) + 1
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                depth[name] -= 1
                stack.pop()
                if parent:
                    parent[CHILDREN] += rec[END] - rec[START]
            if counter and self.op is not None:
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function and method; ``uninstall`` restores them."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "toricmirror" or n.startswith("toricmirror.")] + self.extra
        for name, module, attr in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, orig)
            for ns in modules:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._undo.append((ns, key, orig))
                        setattr(ns, key, wrapped)
        for name, module, cls_name, attrs in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            orig = cls.__dict__[attrs[0]]
            wrapped = self._wrap(name, orig)
            for attr in attrs:
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapped)

    def uninstall(self):
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()

    def metrics(self):
        """Per-layer sums over the spans of timed ops, keyed as in PER_LAYER."""
        out = {name: 0.0 if unit == "ms" else 0
               for name, unit, _ in PER_LAYER if not name.startswith("trace.")}
        out.update(self.counters)
        timed = [s for s in self.spans if s[OP] is not None]
        for s in timed:
            dur = (s[END] - s[START]) * 1e3
            for key, value in (
                (f"{s[1]}.calls", 1),
                (f"{s[1]}.ms", dur if s[OUTER] else 0.0),
                (f"{s[1]}.self_ms", dur - s[CHILDREN] * 1e3),
            ):
                if key in out:
                    out[key] += value
        out["trace.spans"] = len(timed)
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP]}) + "\n")
