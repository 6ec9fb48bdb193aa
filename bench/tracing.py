"""Span tracing of maninalg, installed from outside the package.

`Tracer.install()` replaces the public functions and selected methods of
each maninalg module with timing wrappers.  Every namespace that bound a
wrapped function with `from .x import y` is rebound too, so no call escapes
its span.  Nothing inside `src/maninalg` is changed on disk.

Two kinds of wrapper exist:

* spans record (trace id, span id, parent id, name, start, end) in memory;
* leaves, for methods called many thousands of times per pass, only add to
  call counters and timers.

Both kinds take part in self-time accounting: a frame's self time is its
duration minus the time of the frames directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Modules whose public functions get spans; permutations is left out on
# purpose: its helpers are tiny and called per permutation, so their time is
# charged to the caller.
MODULES = ("linalg", "tensor", "freealg", "idempotents", "quadratic", "ideals",
           "manin", "pairing", "minors", "scenarios")

# Public module functions too small and too hot to wrap.
SKIP_FUNCTIONS = {
    "linalg": {"rat", "format_rat"},
    "tensor": {"tensor_budget", "multi_indices", "flatten_index", "unflatten_index",
               "check_budget"},
    "freealg": {"gen", "matrix_gen", "word_index", "word_basis", "sorted_generators"},
    "idempotents": {"sgn"},
    "ideals": {"word_budget"},
    "pairing": {"q_int", "q_factorial"},
    "manin": {"submatrix", "bracket"},
}

SPAN_METHODS = {
    "linalg": ["QMatrix.__mul__", "QMatrix.__add__", "QMatrix.__sub__", "QMatrix.scale",
               "QMatrix.transpose", "QMatrix.kron", "QMatrix.__eq__", "QMatrix.__hash__",
               "QMatrix.is_zero", "QMatrix.matvec", "QMatrix.vecmat", "QMatrix.trace",
               "QMatrix.copy", "Subspace.contains", "Subspace.contains_space",
               "Subspace.__eq__", "SparseEchelon.reduced_rows",
               "SparseEchelon.dense_basis"],
    "tensor": ["TensorOperator.__mul__", "TensorOperator.__add__", "TensorOperator.__sub__",
               "TensorOperator.scale", "TensorOperator.transpose", "TensorOperator.is_zero",
               "TensorOperator.trace", "TensorOperator.__eq__", "TensorOperator.__hash__"],
    "ideals": ["PresentedAlgebra.slice", "PresentedAlgebra.reduces_to_zero",
               "PresentedAlgebra.from_polys", "IdealSlice.subspace"],
    "manin": ["UniversalRelations.algebra"],
}

LEAF_METHODS = {
    "linalg": ["QMatrix.__init__", "SparseEchelon.reduce", "SparseEchelon.insert",
               "SparseEchelon.contains"],
    "freealg": ["NCPoly.__mul__", "NCPoly.__add__", "sparse_coords"],
}

# Functions whose returned operator feeds linalg.max_coeff_bits.
OPERATOR_RESULTS = ("pairing.generic_pairing", "pairing.hecke_pairing",
                    "pairing.brauer_pairing", "pairing.closed_form_multiparam")


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    best = 0
    for x in values:
        if x:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    """Collects spans, self times, call counts and exact work counts."""

    def __init__(self):
        self.spans = []
        self.stack = []              # frames: [start, child_s, span_id]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_bits = 0
        self.trace_id = "setup"
        self.item_s = {}
        self.covered_s = 0.0
        self._next_id = 0
        self._active = Counter()     # open frames per name, for inclusive time
        self._distinct = set()       # (E, k) pairs seen by component_subspaces
        self._group = None           # (arity, products) inside group_average

    # --- frames ------------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        frame = [time.perf_counter(), 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def _leave(self, name, frame, record):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dur
        if record:
            parent = self.stack[-1][2] if self.stack else None
            self.spans.append((self.trace_id, frame[2], parent, name, frame[0], end))
        return dur

    def span_wrapper(self, name, fn, leaf=False):
        hook = self._hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            self._active[name] += 1
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                self._active[name] -= 1
                dur = self._leave(name, frame, not leaf)
                if not self._active[name]:
                    self.incl_s[name] += dur
        return wrapper

    def item(self, trace_id, fn):
        """Run one workload item under its own trace id; returns fn()."""
        self.trace_id = trace_id
        frame = self._enter()
        try:
            return fn()
        finally:
            covered = frame[1]
            dur = self._leave("item", frame, True)
            self.item_s[trace_id] = self.item_s.get(trace_id, 0.0) + dur
            self.covered_s += covered

    # --- counting hooks ----------------------------------------------------

    def _hooks(self):
        return {
            "linalg.QMatrix.__init__": self._on_qmatrix_init,
            "linalg.SparseEchelon.insert": self._on_insert,
            "linalg.rref": self._on_rref,
            "tensor.embed": self._on_embed,
            "tensor.TensorOperator.__mul__": self._on_tensor_mul,
            "quadratic.component_subspaces": self._on_component_subspaces,
            "ideals.PresentedAlgebra.slice": self._on_slice,
            "ideals.build_slice_from_subspace": self._on_build_slice,
            "pairing.group_average": self._on_group_average,
            **{name: self._on_operator_result for name in OPERATOR_RESULTS},
        }

    def _on_qmatrix_init(self, fn, args, kwargs):
        fn(*args, **kwargs)
        self.counts["linalg.QMatrix.cells_built"] += args[0].rows * args[0].cols

    def _on_insert(self, fn, args, kwargs):
        grew = fn(*args, **kwargs)
        if grew:
            self.counts["linalg.SparseEchelon.insert.rank_increments"] += 1
            newest = next(reversed(args[0].pivots.values()))
            self.max_bits = max(self.max_bits, coeff_bits(newest.values()))
        return grew

    def _on_rref(self, fn, args, kwargs):
        echelon, rank = fn(*args, **kwargs)
        for row in echelon.data[:rank]:
            self.max_bits = max(self.max_bits, coeff_bits(row))
        return echelon, rank

    def _on_embed(self, fn, args, kwargs):
        op, total_arity = args[0], args[1]
        out = fn(*args, **kwargs)
        self.counts["tensor.embed.cells"] += (op.row_dim ** total_arity) ** 2
        return out

    def _on_tensor_mul(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        if self._group is not None and out is not NotImplemented \
                and out.arity == self._group[0]:
            self._group[1].add(out)
        return out

    def _on_component_subspaces(self, fn, args, kwargs):
        self._distinct.add((args[0], args[1]))
        return fn(*args, **kwargs)

    def _on_slice(self, fn, args, kwargs):
        algebra, d = args[0], args[1]
        hit = d in algebra._slices
        self.counts["ideals.slice.hits" if hit else "ideals.slice.misses"] += 1
        return fn(*args, **kwargs)

    def _on_build_slice(self, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        except self._budget_exceeded:
            self.counts["ideals.word_budget.refusals"] += 1
            raise

    def _on_group_average(self, fn, args, kwargs):
        outer, self._group = self._group, (args[1], set())
        try:
            out = fn(*args, **kwargs)
            self.counts["pairing.group.elements"] += len(self._group[1])
        finally:
            self._group = outer
        self._scan_operator(out)
        return out

    def _on_operator_result(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self._scan_operator(out)
        return out

    def _scan_operator(self, result):
        op = getattr(result, "operator", None)
        if op is not None:
            for row in op.matrix.data:
                self.max_bits = max(self.max_bits, coeff_bits(row))

    def _budget_wrapper(self, fn):
        @functools.wraps(fn)
        def check_budget(size):
            try:
                return fn(size)
            except self._budget_exceeded:
                self.counts["tensor.check_budget.refusals"] += 1
                raise
        return check_budget

    # --- installation -------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it in every maninalg namespace."""
        mods = {m: importlib.import_module(f"maninalg.{m}") for m in MODULES}
        self._budget_exceeded = mods["tensor"].BudgetExceeded
        replaced = {}
        for m, mod in mods.items():
            leaves = LEAF_METHODS.get(m, [])
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in SKIP_FUNCTIONS.get(m, ())):
                    continue
                replaced[fn] = self.span_wrapper(f"{m}.{attr}", fn, leaf=attr in leaves)
        check_budget = mods["tensor"].check_budget
        replaced[check_budget] = self._budget_wrapper(check_budget)
        self._rebind(replaced)
        for m, mod in mods.items():
            for leaf, paths in ((False, SPAN_METHODS.get(m, [])),
                                (True, LEAF_METHODS.get(m, []))):
                for path in paths:
                    if "." in path:
                        self._wrap_method(m, mod, path, leaf)

    def _rebind(self, replaced):
        for name, mod in list(sys.modules.items()):
            if name != "maninalg" and not name.startswith("maninalg."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

    def _wrap_method(self, m, mod, path, leaf):
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        name = f"{m}.{path}"
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(self.span_wrapper(name, raw.__func__, leaf)))
        else:
            setattr(cls, meth, self.span_wrapper(name, raw, leaf))

    # --- results ----------------------------------------------------------

    def finish_counts(self):
        self.counts["quadratic.component_subspaces.distinct"] = len(self._distinct)
        self.counts["linalg.max_coeff_bits"] = self.max_bits
        self.counts["trace.spans"] = len(self.spans)
        for name, n in self.calls.items():
            self.counts[f"calls:{name}"] = n
        return dict(sorted(self.counts.items()))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for trace_id, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
