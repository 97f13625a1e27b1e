"""Span tracer for the cmvscatter layers, applied from outside the package.

Each traced function is replaced by a wrapper at every module attribute that
binds it (a layer that did `from .hankel import solve_block` holds its own
reference), and `HankelOp.sigma_max` is replaced on the class.  Functions
that import a sibling inside their body (`classify`, `regularity_test`) read
the module attribute at call time and so see the wrapper too.

A span is (op id, span id, parent span id, name, start, end).  Spans stay in
memory until the run ends; self time is a span's duration minus the time of
its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

#: (module, attribute, span name).  "HankelOp.sigma_max" is a method.
TRACED = [
    ("cli", "main", "cli.main"),
    ("circle", "outer_from_modulus_squared", "circle.outer"),
    ("circle", "outer_boundary_samples", "circle.outer"),
    ("circle", "conjugate_function", "circle.conjugate_function"),
    ("circle", "disk_from_boundary", "circle.disk_from_boundary"),
    ("circle", "write_circle_csv", "circle.csv_write"),
    ("circle", "read_circle_csv", "circle.csv_read"),
    ("opuc", "spectral_density", "opuc.spectral_density"),
    ("scatter", "forward_scatter", "scatter.forward_scatter"),
    ("hankel", "hankel_from_symbol", "hankel.hankel_from_symbol"),
    ("hankel", "HankelOp.sigma_max", "hankel.sigma_max"),
    ("hankel", "solve_block", "hankel.solve_block"),
    ("hankel", "regularity_test", "hankel.regularity_test"),
    ("hankel", "aak_limit_sweep", "hankel.aak_limit_sweep"),
    ("inverse", "recover_verblunsky", "inverse.recover_verblunsky"),
    ("inverse", "glm_matrix", "inverse.glm_matrix"),
    ("inverse", "glm_factorization_residual", "inverse.glm_factorization_residual"),
    ("classify", "classify", "classify.classify"),
    ("classify", "a2_constant", "classify.a2_constant"),
    ("classify", "winding_index", "classify.winding_index"),
    ("classify", "widom_det", "classify.widom_det"),
]

MODULES = ["cmvscatter", "cmvscatter.circle", "cmvscatter.opuc", "cmvscatter.scatter",
           "cmvscatter.hankel", "cmvscatter.inverse", "cmvscatter.classify",
           "cmvscatter.cli"]

#: Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = [
    ("hankel.sigma_max.calls", "count", "lower"),
    ("hankel.sigma_max.self_ms", "ms", "lower"),
    ("hankel.solve_block.calls", "count", "lower"),
    ("hankel.solve_block.self_ms", "ms", "lower"),
    ("hankel.solve_block.h2minus_calls", "count", "lower"),
    ("hankel.hankel_from_symbol.self_ms", "ms", "lower"),
    ("hankel.regularity_test.calls", "count", "lower"),
    ("hankel.regularity_test.self_ms", "ms", "lower"),
    ("hankel.aak_limit_sweep.calls", "count", "lower"),
    ("hankel.gflop_computed", "GFLOP", "lower"),
    ("hankel.max_order", "count", "lower"),
    ("inverse.recover_verblunsky.calls", "count", "lower"),
    ("inverse.recover_verblunsky.self_ms", "ms", "lower"),
    ("inverse.glm_matrix.self_ms", "ms", "lower"),
    ("inverse.glm_factorization_residual.self_ms", "ms", "lower"),
    ("inverse.regularity_errors", "count", "lower"),
    ("inverse.coeff_err_max", "abs", "lower"),
    ("scatter.forward_scatter.calls", "count", "lower"),
    ("scatter.forward_scatter.self_ms", "ms", "lower"),
    ("opuc.spectral_density.calls", "count", "lower"),
    ("opuc.spectral_density.self_ms", "ms", "lower"),
    ("circle.outer.self_ms", "ms", "lower"),
    ("circle.conjugate_function.self_ms", "ms", "lower"),
    ("circle.disk_from_boundary.calls", "count", "lower"),
    ("circle.disk_from_boundary.self_ms", "ms", "lower"),
    ("circle.csv_write.self_ms", "ms", "lower"),
    ("circle.csv_read.self_ms", "ms", "lower"),
    ("classify.classify.self_ms", "ms", "lower"),
    ("classify.a2_constant.self_ms", "ms", "lower"),
    ("classify.winding_index.self_ms", "ms", "lower"),
    ("classify.widom_det.self_ms", "ms", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]

# Nominal dense flop counts, labelled as computed: one complex multiply-add
# is 8 real flops.  solve_block forms the m x m Gram (m^3), factors it
# (m^3/3) and does two triangular solves plus a residual matvec (3 m^2);
# sigma_max bidiagonalizes an m x m complex matrix (4/3 m^3) and the O(m^2)
# bidiagonal sweep is left out.  Integer arithmetic keeps the totals exactly
# repeatable.


def solve_block_flops(m):
    return 8 * m ** 3 + 8 * m ** 3 // 3 + 24 * m ** 2


def sigma_max_flops(m):
    return 32 * m ** 3 // 3


class Tracer:
    """Records spans and counts while installed; restores the package on exit."""

    def __init__(self):
        from cmvscatter.errors import RegularityError

        self._regularity_error = RegularityError
        self.spans = []          # [op, id, parent, name, start_ns, end_ns]
        self.counts = Counter()  # exact per-call counters
        self.max_order = 0
        self.op = None
        self._stack = []
        self._last_error = None
        self._sigma_cached = False
        self._saved = []         # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [importlib.import_module(name) for name in MODULES]
        hankel = importlib.import_module("cmvscatter.hankel")
        for mod_name, attr, span_name in TRACED:
            if attr == "HankelOp.sigma_max":
                original = hankel.HankelOp.sigma_max
                self._patch(hankel.HankelOp, "sigma_max", self._wrap(original, span_name))
                continue
            original = getattr(importlib.import_module("cmvscatter." + mod_name), attr)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [tracer.op, len(tracer.spans), parent, name, 0, 0]
            tracer.spans.append(span)
            tracer._stack.append(span[1])
            tracer.counts[name + ".calls"] += 1
            tracer._before(name, args, kwargs)
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except tracer._regularity_error as exc:
                if name.startswith("inverse.") and exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.counts["inverse.regularity_errors"] += 1
                raise
            finally:
                span[5] = time.perf_counter_ns()
                tracer._stack.pop()
            tracer._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before(self, name, args, kwargs):
        if name == "hankel.solve_block":
            h = args[0]
            rhs = args[1] if len(args) > 1 else kwargs.get("rhs", "unit_H2")
            if rhs == "unit_H2minus":
                self.counts["hankel.solve_block.h2minus_calls"] += 1
            self.counts["hankel.flops"] += solve_block_flops(h.order)
            self.max_order = max(self.max_order, h.order)
        elif name == "hankel.sigma_max":
            self._sigma_cached = args[0]._sigma is not None
        elif name == "hankel.hankel_from_symbol":
            self.max_order = max(self.max_order, int(args[1] if len(args) > 1 else kwargs["M"]))

    def _after(self, name, args, result):
        if name == "hankel.sigma_max" and not self._sigma_cached and result > 0.0:
            self.counts["hankel.flops"] += sigma_max_flops(args[0].order)
            self.max_order = max(self.max_order, args[0].order)

    # -- results -----------------------------------------------------------

    def self_ms(self):
        """Summed self time per span name, in ms."""
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) / 1e6
        return out

    def per_layer(self, passes, overhead_ratio, coeff_err_max):
        """Every PER_LAYER metric; counts and times are per pass of the op list."""
        self_ms = self.self_ms()
        values = {
            "hankel.gflop_computed": _per_pass(self.counts["hankel.flops"], passes) / 1e9,
            "hankel.max_order": self.max_order,
            "inverse.coeff_err_max": coeff_err_max,
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric, unit, _ in PER_LAYER:
            if metric in values:
                continue
            base, stat = metric.rsplit(".", 1)
            if stat == "self_ms":
                values[metric] = self_ms.get(base, 0.0) / passes
            else:
                values[metric] = _per_pass(self.counts[metric], passes)
        return {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}

    def write(self, path, ops):
        """Write one JSON line per op, then one per span."""
        with open(path, "w") as fh:
            for op_id, argv, rc in ops:
                fh.write(json.dumps({"op": op_id, "argv": argv, "exit": rc}) + "\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


def _per_pass(total, passes):
    """Every pass runs the same ops, so a count divides exactly."""
    return total // passes if total % passes == 0 else total / passes
