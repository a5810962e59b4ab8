"""In-process tracer for the skewcalc benchmark.

The tracer wraps public entry points of each skewcalc layer from the
outside: it replaces functions in every module that holds a binding to
them (several consumers import `rref`, `nullspace`, `solve` or
`SpanBasis` by name) and methods on their classes (`divisor` calls
`Presentation._mono_mul` directly). Nothing under `src/` changes.

Spans (name, start, end, parent span id, operation id) are kept in memory
and written out by `write_spans`. Scalar arithmetic is aggregated instead
of recorded span by span: it runs millions of times and would not fit.
A layer's self time is the time its wrapped calls take minus the time
their wrapped children take.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, layer, kind). kind: "span" records a span per call,
# "agg" only aggregates, "scalar" aggregates and counts per field kind.
TARGETS = [
    ("skewcalc.scalars", "Scalar.__add__", "scalars", "scalar"),
    ("skewcalc.scalars", "Scalar.__sub__", "scalars", "scalar"),
    ("skewcalc.scalars", "Scalar.__mul__", "scalars", "scalar"),
    ("skewcalc.scalars", "Scalar.inv", "scalars", "scalar"),
    ("skewcalc.scalars", "Scalar.__truediv__", "scalars", "scalar"),
    ("skewcalc.scalars", "Scalar.__pow__", "scalars", "scalar"),
    ("skewcalc.scalars", "FieldDescriptor.zero", "scalars", "agg"),
    ("skewcalc.scalars", "FieldDescriptor.one", "scalars", "agg"),
    ("skewcalc.scalars", "FieldDescriptor.from_int", "scalars", "agg"),
    ("skewcalc.scalars", "is_prime", "scalars", "agg"),
    ("skewcalc.linalg", "rref", "linalg", "span"),
    ("skewcalc.linalg", "solve", "linalg", "span"),
    ("skewcalc.linalg", "nullspace", "linalg", "span"),
    ("skewcalc.linalg", "SpanBasis.add", "linalg", "agg"),
    ("skewcalc.linalg", "SpanBasis.reduce", "linalg", "agg"),
    ("skewcalc.linalg", "SpanBasis.contains", "linalg", "agg"),
    ("skewcalc.presentation", "Presentation.word_normal_form", "presentation", "span"),
    ("skewcalc.presentation", "Presentation._mono_mul", "presentation", "agg"),
    ("skewcalc.presentation", "Presentation.multiply", "presentation", "span"),
    ("skewcalc.presentation", "Presentation.validate", "presentation", "span"),
    ("skewcalc.presentation", "parse_element", "presentation", "span"),
    ("skewcalc.families", "build", "families", "span"),
    ("skewcalc.invariants", "center_bounded", "invariants", "span"),
    ("skewcalc.invariants", "growth_dims", "invariants", "span"),
    ("skewcalc.invariants", "gk_estimate", "invariants", "span"),
    ("skewcalc.divisor", "divisor_closure", "divisor", "span"),
    ("skewcalc.divisor", "subword_search", "divisor", "span"),
    ("skewcalc.divisor", "subalgebra_closure_bounded", "divisor", "span"),
    ("skewcalc.cancel", "nilradical", "cancel", "span"),
    ("skewcalc.cancel", "local_decomposition", "cancel", "span"),
    ("skewcalc.cancel", "units_generated", "cancel", "span"),
    ("skewcalc.cancel", "certify", "cancel", "span"),
    ("skewcalc.cancel", "verify_isomorphism_bounded", "cancel", "span"),
    ("skewcalc.cli", "parse_algebra_file", "cli", "span"),
    ("skewcalc.cli", "emit_report", "cli", "span"),
    ("skewcalc.cli", "run", "cli", "span"),
]

LAYERS = ("scalars", "linalg", "presentation", "families", "invariants",
          "divisor", "cancel", "cli", "bench")
LAYER_OF = {attr: layer for _, attr, layer, _ in TARGETS} | {"bench.op": "bench"}


def _rref_cells(tr, args):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    tr.counts["linalg.cells"] += cells
    tr.counts["linalg.nonzero"] += sum(
        1 for row in rows for x in row if not x.is_zero()
    )


def _span_grew(tr, args, result):
    if result:
        tr.counts["linalg.span_grew"] += 1


def _report_bytes(tr, args, result):
    tr.counts["cli.report_bytes"] += len(result)


def _closure_stats(tr, args, result):
    tr.counts["divisor.rounds"] += len(result.rounds)
    tr.counts["divisor.subwords"] += sum(
        len(r["new_subwords"]) for r in result.rounds
    )


# pre hooks run before the clock starts; their time is charged to
# "trace.bookkeeping", not to the caller's self time
PRE = {"rref": _rref_cells}
POST = {
    "SpanBasis.add": _span_grew,
    "emit_report": _report_bytes,
    "divisor_closure": _closure_stats,
}


class Tracer:
    """Span recorder with per-target call counts and self times."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.dropped = 0
        self.counts = Counter()
        self.self_s = Counter()  # per target, seconds
        self.total_s = Counter()  # per target, outermost calls only
        self.active = Counter()  # target -> nesting depth
        self.layer_depth = Counter()
        self.stack = [[None, 0.0]]  # frames: [span id, time of wrapped children]
        self.next_id = 0
        self.op = None
        self._saved = []  # (owner, attribute, original) to restore

    # -- installation --------------------------------------------------------

    def install(self):
        if self._saved:
            return
        for modname, attr, layer, kind in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(attr, layer, kind, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(attr, layer, kind, original)
            for name, m in list(sys.modules.items()):
                if name == "skewcalc" or name.startswith("skewcalc."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, key, original))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, layer, kind, fn):
        tr = self
        pre = PRE.get(name)
        post = POST.get(name)
        record = kind == "span"
        per_field = kind == "scalar"
        mono_mul = name == "Presentation._mono_mul"

        def wrapper(*args, **kwargs):
            counts = tr.counts
            counts[name] += 1
            if per_field:
                counts["scalars.ops." + args[0].field.kind] += 1
            parent = tr.stack[-1]
            if pre is not None:
                b0 = perf_counter()
                pre(tr, args)
                spent = perf_counter() - b0
                parent[1] += spent
                tr.self_s["trace.bookkeeping"] += spent
            if mono_mul:
                nf_before = counts["Presentation.word_normal_form"]
            sid = tr.next_id
            tr.next_id += 1
            frame = [sid, 0.0]
            tr.stack.append(frame)
            tr.layer_depth[layer] += 1
            outer = tr.active[name] == 0
            tr.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.active[name] -= 1
                tr.layer_depth[layer] -= 1
                tr.stack.pop()
                dt = t1 - t0
                tr.self_s[name] += dt - frame[1]
                if outer:
                    tr.total_s[name] += dt
                parent[1] += dt
                if record:
                    for other, depth in tr.layer_depth.items():
                        if depth and other != layer:
                            counts[f"{name}@{other}"] += 1
                    if len(tr.spans) < tr.max_spans:
                        tr.spans.append((sid, name, t0, t1, parent[0], tr.op))
                    else:
                        tr.dropped += 1
            if mono_mul and counts["Presentation.word_normal_form"] == nf_before:
                counts["presentation.mono_hits"] += 1  # served from the cache
            if post is not None:
                post(tr, args, result)
            return result

        return wrapper

    # -- operation scope -----------------------------------------------------

    def run_op(self, op_id, fn):
        """Run `fn` as benchmark operation `op_id`, the root span of the
        layer calls it makes."""
        self.op = op_id
        try:
            return self._wrap("bench.op", "bench", "span", fn)()
        finally:
            self.op = None

    # -- summaries -----------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            if name in LAYER_OF:
                out[LAYER_OF[name]] += s
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": t0, "end": t1,
                     "parent": parent, "op": op}) + "\n")
