"""Per-layer tracing of finiteq from outside it.

The tracer replaces each public function of the layer modules with a
wrapper, at every binding in every loaded ``finiteq`` module (so that
``finiteq.zeros.theta3`` is wrapped as well as ``finiteq.theta.theta3``),
plus the evaluation methods of ``AnalyticState``.  Each call becomes a span
with its parent, start, end, self time (its time minus its children's), a
work count and whether it raised; spans stay in memory in flat arrays and
are written out when the run ends.  A name the metrics need that no longer
exists is listed in ``absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("theta", "analytic", "zeros", "hilbert", "zak", "serialization", "cli")
METHODS = {"analytic": ("AnalyticState.__call__", "AnalyticState.derivative")}
# names the per-layer metrics are computed from
NEEDED = {
    "theta": ("theta2", "theta3", "theta3_derivative"),
    "analytic": ("AnalyticState.__call__", "AnalyticState.derivative", "gauss_legendre_cell",
                 "scalar_product", "kernel_apply", "coherent_identity_matrix"),
    "zeros": ("find_zeros", "winding_number", "reconstruct_from_zeros", "classify_completeness"),
    "hilbert": ("weyl_function", "operator_from_weyl", "displacement"),
    "zak": (),
    "serialization": (),
    "cli": ("main",),
}
F_EVAL = ("analytic.AnalyticState.__call__", "analytic.AnalyticState.derivative")
QUADRATURES = ("analytic.scalar_product", "analytic.kernel_apply", "analytic.coherent_identity_matrix")
WEYL = ("hilbert.weyl_function", "hilbert.operator_from_weyl")


def _work(qualname: str):
    """How to count the work of one call, from its arguments or result."""
    if qualname.startswith("theta."):
        return lambda args, kwargs, result: np.size(args[0]) if args else 0
    if qualname in F_EVAL:
        return lambda args, kwargs, result: np.size(args[1]) if len(args) > 1 else 0
    if qualname == "analytic.gauss_legendre_cell":
        return lambda args, kwargs, result: np.size(result[0]) if result is not None else 0
    if qualname == "zeros.find_zeros":  # zeros found, with multiplicity
        return lambda args, kwargs, result: int(np.sum(result.multiplicities)) if result is not None else 0
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.work = array("q")
        self.raised = array("b")
        self.stack: list[list] = []  # [span index, time spent in children]
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------

    def _wrapper(self, fn, qualname: str):
        ident = len(self.names)
        self.names.append(qualname)
        work = _work(qualname)
        stack, clock = self.stack, time.perf_counter
        parent, name, start, end = self.parent, self.name, self.start, self.end
        self_s, counted, raised = self.self_s, self.work, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            parent.append(stack[-1][0] if stack else -1)
            name.append(ident)
            end.append(0.0)
            self_s.append(0.0)
            counted.append(0)
            raised.append(0)
            frame = [idx, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                end[idx] = t1
                self_s[idx] = t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if work is not None:
                    counted[idx] = work(args, kwargs, result)

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "finiteq" or key.startswith("finiteq."))]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"finiteq.{layer}")
            if mod is None:
                self.absent.extend(f"{layer}.{n}" for n in NEEDED[layer])
                continue
            public = [n for n in getattr(mod, "__all__", ())
                      if callable(getattr(mod, n, None)) and not isinstance(getattr(mod, n), type)]
            for n in NEEDED[layer]:
                if "." not in n and n not in public:
                    if callable(getattr(mod, n, None)):
                        public.append(n)
                    else:
                        self.absent.append(f"{layer}.{n}")
            for n in public:
                fn = getattr(mod, n)
                replace.setdefault(id(fn), (fn, self._wrapper(fn, f"{layer}.{n}")))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(f"{layer}.{qual}")
                    continue
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrapper(fn, f"{layer}.{qual}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def _arrays(self):
        names = np.array(self.names + ["-"], dtype=object)
        ident = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        qual = names[ident] if ident.size else np.zeros(0, dtype=object)
        return {
            "qual": qual,
            "parent": np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64),
            "dur": np.asarray(self.end) - np.asarray(self.start),
            "self": np.asarray(self.self_s),
            "work": np.asarray(self.work, dtype=np.int64),
            "raised": np.asarray(self.raised, dtype=np.int8),
        }

    @staticmethod
    def _under(mask, parent):
        """True where some strict ancestor of the span is in `mask`."""
        inside = np.zeros(mask.size + 1, dtype=bool)  # last slot: no parent
        hit = np.append(mask, False)
        while True:
            new = hit[parent] | inside[parent]
            if np.array_equal(new, inside[:-1]):
                return new
            inside[:-1] = new

    def metrics(self) -> dict:
        a = self._arrays()
        qual, parent = a["qual"], a["parent"]
        layer = np.array([q.split(".", 1)[0] for q in self.names + ["-"]], dtype=object)
        layer_of = layer[np.frombuffer(self.name, dtype=np.int32)] if len(self.name) else np.zeros(0, dtype=object)

        def isin(names):
            return np.isin(qual, list(names)) if qual.size else np.zeros(0, dtype=bool)

        def outermost_s(names):
            mask = isin(names)
            return float(a["dur"][mask & ~self._under(mask, parent)].sum())

        m = {}

        def put(key, value, unit):
            m[key] = {"value": value, "unit": unit}

        for lay in LAYERS:
            sel = layer_of == lay
            if lay == "theta":
                put("theta.calls", int(sel.sum()), "count")
                put("theta.points", int(a["work"][sel].sum()), "count")
                put("theta.self_s", float(a["self"][sel].sum()), "s")
            elif lay == "analytic":
                f = isin(F_EVAL)
                put("analytic.f_calls", int(f.sum()), "count")
                put("analytic.f_points", int(a["work"][f].sum()), "count")
                put("analytic.f_self_s", float(a["self"][f].sum()), "s")
                put("analytic.quad_s", outermost_s(QUADRATURES), "s")
                put("analytic.quad_nodes", int(a["work"][isin(["analytic.gauss_legendre_cell"])].sum()), "count")
            elif lay == "zeros":
                find = isin(["zeros.find_zeros"])
                wind = isin(["zeros.winding_number"])
                found = int(a["work"][find].sum())
                in_find = self._under(find, parent) & isin(F_EVAL)
                put("zeros.find_s", outermost_s(["zeros.find_zeros"]), "s")
                put("zeros.winding_calls", int(wind.sum()), "count")
                put("zeros.winding_errors", int(a["raised"][wind].sum()), "count")
                put("zeros.f_points_per_zero",
                    float(a["work"][in_find].sum()) / found if found else 0.0, "count")
                put("zeros.reconstruct_s", outermost_s(["zeros.reconstruct_from_zeros"]), "s")
                put("zeros.classify_s", outermost_s(["zeros.classify_completeness"]), "s")
            elif lay == "hilbert":
                put("hilbert.weyl_s", outermost_s(WEYL), "s")
                put("hilbert.displacement_calls", int(isin(["hilbert.displacement"]).sum()), "count")
            elif lay == "zak":
                put("zak.calls", int(sel.sum()), "count")
                put("zak.self_s", float(a["self"][sel].sum()), "s")
            else:
                put(f"{lay}.self_s", float(a["self"][sel].sum()), "s")
            put(f"{lay}.errors", int(a["raised"][sel].sum()), "count")
        return m

    def write(self, path):
        """All spans, as flat arrays, to a compressed numpy archive."""
        a = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name, dtype=np.int32),
                            parent=a["parent"], start=np.asarray(self.start), end=np.asarray(self.end),
                            self_s=a["self"], work=a["work"], raised=a["raised"])
