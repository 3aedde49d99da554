"""Spans around the package's public functions, installed from outside it.

Each target is wrapped once and the wrapper is bound in every `hahnforge`
module namespace that holds the original (so `hahn_padic.teichmueller` and
`newton.fq_poly_roots` are seen as well as the defining module's own calls);
methods are replaced on their class.  Spans (name, start, end, parent, item)
live in flat arrays until the run ends, when they are written out once and
reduced to per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute) of every wrapped callable; a dotted attribute is a method
TARGETS = [
    ("cli", "run"),
    ("exactnum", "find_modulus"),
    ("exactnum", "teichmueller"),
    ("exactnum", "digit_decompose"),
    ("exactnum", "fq_poly_roots"),
    ("parsing", "parse_series"),
    ("parsing", "format_series"),
    ("parsing", "parse_poly"),
    ("hahn_padic", "normalize"),
    ("hahn_padic", "PHahn.__mul__"),
    ("hahn_eqchar", "EqHahn.__mul__"),
    ("hahn_eqchar", "EqHahn.inverse"),
    ("indexcomb", "certificate_residual"),
    ("indexcomb", "grouped_sum"),
    ("indexcomb", "enumerate_class"),
    ("indexcomb", "reduce_index"),
    ("indexcomb", "lambda_of"),
    ("indexcomb", "multinomial"),
    ("newton", "expand_roots_eq"),
    ("newton", "expand_root_padic"),
    ("newton", "polygon_of"),
    ("ordinal", "Ordinal.__add__"),
    ("ordinal", "Ordinal.__mul__"),
    ("ordinal", "Ordinal.__lt__"),
    ("ordinal", "replication_order_type"),
    ("ordinal", "prediction_filter"),
]

def layer_of(module, attr):
    """Metric prefix of a target; the whole ordinal module is one layer."""
    if module == "ordinal":
        return module
    return f"{module}.{attr.replace('.__mul__', '.mul')}"


LAYERS = list(dict.fromkeys(layer_of(m, a) for m, a in TARGETS))

# derived metrics beyond `<layer>.calls` and `<layer>.self_s`
EXTRA = [
    ("exactnum.teichmueller.distinct_frac", "ratio", "higher"),
    ("exactnum.fq_poly_roots.field_evals", "count", "lower"),
    ("hahn_padic.normalize.bag_terms", "count", "lower"),
    ("indexcomb.enumerate_class.kept_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.uncovered_s", "s", "lower"),
]


def metric_specs(rungs):
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out.extend(EXTRA)
    out.extend((f"certificate_ladder.rung.{rung}_s", "s", "lower") for rung in rungs)
    return out


class Tracer:
    """Records spans while installed; `install()` returns the undo callable."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item_id = -1
        self.teich_keys = set()       # distinct lift keys of the current pass
        self.teich_distinct = 0
        self.teich_calls = 0
        self.field_evals = 0
        self.bag_terms = 0
        self.class_members = 0

    def end_pass(self):
        self.teich_distinct += len(self.teich_keys)
        self.teich_keys = set()

    # observers run after the call returns, outside its span ------------------

    def _teichmueller(self, args, kwargs, result):
        a = args[0]
        prec = kwargs.get("prec", args[1] if len(args) > 1 else None)
        prec = a.cfg.L if prec is None else prec
        self.teich_keys.add((a.cfg.p, a.cfg.modulus, a.coeffs, prec))
        self.teich_calls += 1

    def _fq_poly_roots(self, args, kwargs, result):
        self.field_evals += next(iter(args[0])).cfg.q

    def _normalize(self, args, kwargs, result):
        self.bag_terms += len(args[1])

    def _enumerate_class(self, args, kwargs, result):
        self.class_members += len(result)

    def _wrap(self, fn, label):
        nid = len(self.names)
        self.names.append(label)
        observe = {"exactnum.teichmueller": self._teichmueller,
                   "exactnum.fq_poly_roots": self._fq_poly_roots,
                   "hahn_padic.normalize": self._normalize,
                   "indexcomb.enumerate_class": self._enumerate_class}.get(label)
        names, parents, items = self.span_name, self.parent, self.item
        starts, ends = self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(tracer.current)
            items.append(tracer.item_id)
            ends.append(0.0)
            prev, tracer.current = tracer.current, i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                tracer.current = prev
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "hahnforge" or n.startswith("hahnforge.")]
        undo = []
        for module, attr in TARGETS:
            mod = importlib.import_module(f"hahnforge.{module}")
            label = layer_of(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, label))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, label)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        undo.append((m, key, orig))

        def uninstall():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)
        return uninstall

    # reduction ----------------------------------------------------------------

    def layer_metrics(self, passes, item_seconds):
        """Per-pass calls and self time of every layer, plus the derived ratios.

        `item_seconds` is the benchmark's own timing of all traced items; the
        part of it no top-level span covers is reported as trace.uncovered_s.
        """
        n = len(self.span_name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        top = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            par = parents[i]
            if par >= 0:
                child[par] += dur
            else:
                top += dur
        label_ids = {}
        for nid, label in enumerate(self.names):
            label_ids.setdefault(label, []).append(nid)
        calls = {label: 0 for label in label_ids}
        self_s = {label: 0.0 for label in label_ids}
        label_of = self.names
        reduce_ids = set(label_ids.get("indexcomb.reduce_index", ()))
        enum_ids = set(label_ids.get("indexcomb.enumerate_class", ()))
        reduce_in_class = 0
        for i in range(n):
            label = label_of[names[i]]
            calls[label] += 1
            self_s[label] += ends[i] - starts[i] - child[i]
            if names[i] in reduce_ids and parents[i] >= 0 and names[parents[i]] in enum_ids:
                reduce_in_class += 1
        out = {}
        for label in LAYERS:
            out[f"{label}.calls"] = calls.get(label, 0) / passes
            out[f"{label}.self_s"] = self_s.get(label, 0.0) / passes
        out["exactnum.teichmueller.distinct_frac"] = (
            self.teich_distinct / self.teich_calls if self.teich_calls else 0.0)
        out["exactnum.fq_poly_roots.field_evals"] = self.field_evals / passes
        out["hahn_padic.normalize.bag_terms"] = self.bag_terms / passes
        out["indexcomb.enumerate_class.kept_frac"] = (
            self.class_members / reduce_in_class if reduce_in_class else 0.0)
        out["trace.uncovered_s"] = max(0.0, item_seconds - top) / passes
        return out

    def write(self, path):
        """All spans as TSV (name, start_us, end_us, parent, item), once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\titem\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.parent[i]}\t{self.item[i]}\n")
