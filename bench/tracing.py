"""Per-layer tracing from outside the program.

The traced run wraps the functions listed in TARGETS in every lkbrep module
namespace that bound them (the modules import each other's names with
`from .x import ...`, so patching only the defining module would miss
callers) and the listed methods on their classes.  Each call records a span
(name, parent, start, end) in flat arrays; the per-layer metrics are derived
from the spans after the run, and the spans are written to a file.  Ring
calls are counted and timed without a span each (see Tracer).

A layer's self time is its spans' durations minus the time of the spans and
ring calls directly inside them.  Work in functions that are not wrapped,
such as polynomial additions, counts as self time of the caller's layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

RF_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__eq__"]

# layer -> functions and methods whose calls are spans of that layer
TARGETS = {
    "ring": ["LaurentPolynomial.__mul__", "LaurentPolynomial.__rmul__",
             "lp_try_div_exact", "_div_exact_any"]
            + [f"RationalFunction.{op}" for op in RF_OPS],
    "linalg": ["Matrix.mul", "Matrix.apply", "field_rank", "field_kernel_raw",
               "field_kernel", "field_solve", "field_inv", "field_det",
               "int_smith_transforms", "int_smith", "int_solve"],
    "complexes": ["TwistedComplex.differential", "TwistedComplex.differential_matrix",
                  "sal_fn", "sal_an_mod_sigma2", "CellComplex.validate",
                  "CellComplex.boundary_matrices", "word_to_chain"],
    "homology": ["v_chain", "e_cycle", "e_basis", "kernel_rank", "eta_map",
                 "verify_eta_triangular", "e_coordinates", "v_membership",
                 "integral_x", "integral_basis", "reduce_to_integral_basis", "h1_fn"],
    "action": ["lkb_generator", "lkb_generator_inverse", "lkb_word", "chain_action",
               "homology_action", "h1_action", "eigen_structure_check", "fork_chain",
               "verify_fork_boundary", "fork_in_e_basis", "fork_basis_action",
               "check_braid_relations"],
    "arrangement": ["load_arrangement", "build_facets", "build_salvetti",
                    "cyclic_order_at_vertex", "salvetti_h1", "salvetti_twisted_complex"],
    "cli": ["main"],
}

# results of these layers are scanned for coefficient size and term count
SCANNED_LAYERS = ("linalg", "homology", "action")


def _names(layer, *attrs):
    return [f"{layer}.{a}" for a in attrs]


# (metric, unit, kind, argument); kinds: "calls" counts spans with the
# listed names, "time" sums the durations of those not nested in another
# listed one, "self" sums a layer's self time, the rest are scan results
PER_LAYER = [
    ("ring.mul_calls", "count", "calls", _names("ring", "LaurentPolynomial.__mul__",
                                                "LaurentPolynomial.__rmul__")),
    ("ring.mul_s", "s", "time", _names("ring", "LaurentPolynomial.__mul__",
                                       "LaurentPolynomial.__rmul__")),
    ("ring.div_calls", "count", "calls", _names("ring", "lp_try_div_exact", "_div_exact_any")),
    ("ring.div_s", "s", "time", _names("ring", "lp_try_div_exact", "_div_exact_any")),
    ("ring.rf_calls", "count", "calls", _names("ring", *(f"RationalFunction.{op}" for op in RF_OPS))),
    ("ring.rf_s", "s", "time", _names("ring", *(f"RationalFunction.{op}" for op in RF_OPS))),
    ("ring.max_coeff_bits", "bits", "max_bits", None),
    ("ring.max_terms", "count", "max_terms", None),
    ("ring.self_s", "s", "self", "ring"),
    ("linalg.bareiss_calls", "count", "calls", _names("linalg", "field_rank", "field_kernel_raw",
                                                      "field_solve", "field_det")),
    ("linalg.kernel_s", "s", "time", _names("linalg", "field_kernel_raw")),
    ("linalg.inv_calls", "count", "calls", _names("linalg", "field_inv")),
    ("linalg.inv_s", "s", "time", _names("linalg", "field_inv")),
    ("linalg.smith_forms", "count", "calls", _names("linalg", "int_smith_transforms")),
    ("linalg.int_solves", "count", "calls", _names("linalg", "int_solve")),
    ("linalg.smith_s", "s", "time", _names("linalg", "int_smith_transforms")),
    ("linalg.matmul_calls", "count", "calls", _names("linalg", "Matrix.mul")),
    ("linalg.matmul_s", "s", "time", _names("linalg", "Matrix.mul")),
    ("linalg.self_s", "s", "self", "linalg"),
    ("complexes.differential_calls", "count", "calls",
     _names("complexes", "TwistedComplex.differential")),
    ("complexes.differential_s", "s", "time", _names("complexes", "TwistedComplex.differential")),
    ("complexes.build_s", "s", "time", _names("complexes", "sal_fn", "sal_an_mod_sigma2",
                                              "CellComplex.validate",
                                              "CellComplex.boundary_matrices")),
    ("complexes.self_s", "s", "self", "complexes"),
    ("homology.kernel_rank_s", "s", "time", _names("homology", "kernel_rank")),
    ("homology.e_coordinates_calls", "count", "calls", _names("homology", "e_coordinates")),
    ("homology.e_coordinates_s", "s", "time", _names("homology", "e_coordinates")),
    ("homology.reduce_s", "s", "time", _names("homology", "reduce_to_integral_basis")),
    ("homology.h1_s", "s", "time", _names("homology", "h1_fn")),
    ("homology.self_s", "s", "self", "homology"),
    ("action.inverse_s", "s", "time", _names("action", "lkb_generator_inverse")),
    ("action.word_s", "s", "time", _names("action", "lkb_word")),
    ("action.chain_s", "s", "time", _names("action", "chain_action")),
    ("action.fork_s", "s", "time", _names("action", "fork_chain", "verify_fork_boundary",
                                          "fork_in_e_basis", "fork_basis_action")),
    ("action.relations_s", "s", "time", _names("action", "check_braid_relations")),
    ("action.self_s", "s", "self", "action"),
    ("arrangement.facets_s", "s", "time", _names("arrangement", "build_facets")),
    ("arrangement.salvetti_s", "s", "time", _names("arrangement", "build_salvetti")),
    ("arrangement.cyclic_order_calls", "count", "calls",
     _names("arrangement", "cyclic_order_at_vertex")),
    ("arrangement.chambers", "count", "chambers", None),
    ("arrangement.h1_s", "s", "time", _names("arrangement", "salvetti_h1")),
    ("arrangement.self_s", "s", "self", "arrangement"),
    ("cli.self_s", "s", "self", "cli"),
]


class Tracer:
    """Span recorder.  Spans are appended when a call starts, so parents
    precede their children in the arrays.

    Calls into the ring layer (millions per run) are folded instead of
    stored: each adds its count and time to per-name totals and its
    duration to the `leaf` time of the enclosing span.  Ring functions
    call nothing outside the ring, so this loses no nesting."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock       # spans are read from it
        self.names = []          # span name per name id
        self.name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_leaf = array("d")   # folded ring time directly inside the span
        self.stack = [-1]
        self.time_metrics = [(m, set(arg)) for m, _, kind, arg in PER_LAYER if kind == "time"]
        n = len(self.time_metrics)
        self.leaf_calls = Counter()
        self.leaf_self = Counter()
        self.leaf_outer = [0.0] * n   # folded time per time metric, outermost calls only
        self.leaf_depth = [0] * n
        self.leaf_open = []           # ring time inside each open folded call
        self.max_bits = 0
        self.max_terms = 0
        self.chambers = 0
        self.missing = []

    def _intern(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, post=None):
        """fn recording one stored span per call."""
        nid = self._intern(name)
        names, parents, starts, ends, leaf = (self.span_name, self.span_parent, self.span_start,
                                              self.span_end, self.span_leaf)
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            leaf.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return traced

    def wrap_folded(self, name, fn):
        """fn adding its calls and time to totals instead of storing spans."""
        j = next(j for j, (_, members) in enumerate(self.time_metrics) if name in members)
        calls, selfs, outer, depth = self.leaf_calls, self.leaf_self, self.leaf_outer, self.leaf_depth
        open_, stack, leaf = self.leaf_open, self.stack, self.span_leaf
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args):
            open_.append(0.0)
            depth[j] += 1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                depth[j] -= 1
                inner = open_.pop()
                calls[name] += 1
                selfs[name] += d - inner
                if not depth[j]:
                    outer[j] += d
                if open_:
                    open_[-1] += d
                elif stack[-1] >= 0:
                    leaf[stack[-1]] += d

        return traced

    def install(self, modules):
        """Wrap every target; modules maps layer name to lkbrep module."""
        self.types = (modules["ring"].LaurentPolynomial, modules["ring"].RationalFunction,
                      modules["linalg"].Matrix, modules["complexes"].Chain)
        everywhere = list(sys.modules[m] for m in sys.modules
                          if m == "lkbrep" or m.startswith("lkbrep."))
        for layer, attrs in TARGETS.items():
            mod = modules[layer]
            post = self._scan if layer in SCANNED_LAYERS else None
            for attr in attrs:
                name = f"{layer}.{attr}"
                hook = self._count_chambers if name == "arrangement.build_facets" else post
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = cls.__dict__.get(meth) if cls is not None else None
                    if orig is None:
                        self.missing.append(name)
                        continue
                    setattr(cls, meth, self._wrapper(layer, name, orig, hook))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                traced = self._wrapper(layer, name, orig, hook)
                for m in everywhere:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, traced)

    def _wrapper(self, layer, name, fn, post):
        return self.wrap_folded(name, fn) if layer == "ring" else self.wrap(name, fn, post)

    def _count_chambers(self, fc):
        self.chambers += len(fc.chambers)

    def _scan(self, out):
        """Largest coefficient (bits) and term count of the Laurent
        polynomials in a result: matrices, chains, containers, fractions."""
        lp, rf, matrix, chain = self.types
        todo = [out]
        while todo:
            obj = todo.pop()
            if isinstance(obj, lp):
                if obj.terms:
                    self.max_terms = max(self.max_terms, len(obj.terms))
                    self.max_bits = max(self.max_bits,
                                        max(map(abs, obj.terms.values())).bit_length())
            elif isinstance(obj, matrix):
                if obj.entries and obj.entries[0] and not isinstance(obj.entries[0][0], int):
                    todo.extend(obj.entries)
            elif isinstance(obj, rf):
                todo.extend((obj.num, obj.den))
            elif isinstance(obj, chain):
                todo.extend(obj.coeffs.values())
            elif isinstance(obj, (list, tuple)):
                todo.extend(obj)
            elif isinstance(obj, dict):
                todo.extend(obj.values())

    def metrics(self):
        """The PER_LAYER metrics derived from the recorded spans and the
        folded ring totals."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        # per name id: bitmask of the time metrics listing it, and their indices
        bits = [0] * len(self.names)
        which = [[] for _ in self.names]
        for j, (_, members) in enumerate(self.time_metrics):
            for nid, nm in enumerate(self.names):
                if nm in members:
                    bits[nid] |= 1 << j
                    which[nid].append(j)
        totals = list(self.leaf_outer)
        covered = array("d", self.span_leaf)  # child time: folded calls, then child spans
        ancestors = [0] * n  # time-metric bits of all enclosing spans
        for i in range(n):
            p = parents[i]
            if p >= 0:
                ancestors[i] = ancestors[p] | bits[names[p]]
                covered[p] += dur[i]
            for j in which[names[i]]:
                if not ancestors[i] >> j & 1:
                    totals[j] += dur[i]
        self_time = Counter()
        for nm, value in self.leaf_self.items():
            self_time[nm.split(".", 1)[0]] += value
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        for i in range(n):
            self_time[layer_of[names[i]]] += dur[i] - covered[i]
        calls = Counter(self.names[nid] for nid in names) + self.leaf_calls
        time_total = {m: totals[j] for j, (m, _) in enumerate(self.time_metrics)}
        out = {}
        for metric, unit, kind, arg in PER_LAYER:
            if kind == "calls":
                value = sum(calls[nm] for nm in arg)
            elif kind == "time":
                value = time_total[metric]
            elif kind == "self":
                value = self_time[arg]
            elif kind == "max_bits":
                value = self.max_bits
            elif kind == "max_terms":
                value = self.max_terms
            else:
                value = self.chambers
            out[metric] = value
        return out

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays (name
        id, parent index, start, end, folded ring time inside; seconds of
        perf_counter).  The header also holds the folded ring totals."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"],
                             ["leaf", "d"]],
                  "folded_calls": dict(self.leaf_calls), "folded_self": dict(self.leaf_self)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end,
                        self.span_leaf):
                arr.tofile(fh)


def read_spans(path):
    """(header, [(name id, parent, start, end, leaf), ...]) from a file
    written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols.append(col)
    return header, list(zip(*cols))
