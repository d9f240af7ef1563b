"""Spans around calls into freealg's layers, for the traced run only.

``Tracer.install`` replaces each function named in ``LAYERS`` by a
timing wrapper at every place a freealg module looks it up: the module
that defines it and every module that imported it by name.  Calls made
inside the library, for example ``cli`` calling ``linmap.b_matrix`` or
``linmap.compose`` calling ``exact.mat_mul``, are therefore timed too.
Untraced runs never call ``install`` and pay nothing.

A span is (name, start_ns, end_ns, parent, op, note).  ``op`` is the
benchmark op index, -1 during set-up and -2 while the benchmark prepares
its checks.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from statistics import median

LAYERS = {
    "core": ("multiply", "associator"),
    "algebras": ("norm_sq", "inverse_element"),
    "tensor": ("tensor_product", "twisted_mul", "tensor_inverse"),
    "linmap": ("left_shift", "right_shift", "compose", "b_matrix",
               "standard_from_coords", "coords_from_standard",
               "representation_basis"),
    "exact": ("solve", "invert", "rank", "mat_mul"),
    "solver": ("solve_additive", "inverse_map_matrix"),
    "cli": ("load_algebra", "load_system", "load_matrix_file", "cmd_solve",
            "cmd_map_convert", "cmd_basis", "cmd_tables"),
}

SETUP_OP = -1
PREPARE_OP = -2


def max_bits(values):
    """Largest numerator or denominator bit length in nested lists."""
    best = 0
    stack = [values]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        else:
            best = max(best, item.numerator.bit_length(), item.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self.missing = []
        self._stack = []
        self._patches = []
        self._bmatrices = {}

    def _note(self, name, args, result, exc):
        if name in ("exact.solve", "exact.invert"):
            return None if exc else [len(args[0]), max_bits(result)]
        if name == "linmap.b_matrix" and exc is None:
            fresh = id(result) not in self._bmatrices
            self._bmatrices[id(result)] = result  # pins the id for this run
            return "fresh" if fresh else "hit"
        if name == "tensor.tensor_inverse" and getattr(exc, "one_sided", False):
            return "one_sided"
        if name == "solver.inverse_map_matrix" and type(exc).__name__ == "SingularSystem":
            return "singular"
        return None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              self._note(name, args, result, exc))
        return traced

    def install(self, lib):
        """Wrap every function in LAYERS wherever a freealg module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "freealg" or key.startswith("freealg.")]
        for layer, names in LAYERS.items():
            home = getattr(lib, layer)
            for fn_name in names:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, note in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "note": note}) + "\n")


class _Stats:
    """Per-name figures over op spans; times in ms."""

    def __init__(self):
        self.durations = []
        self.self_ms = 0.0
        self.outer_ms = 0.0
        self.notes = []


def layer_metrics(tracer, unexpected_exits, overhead_pct):
    """Every per-layer metric of the benchmark, from the recorded spans."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def nested_in_same(idx):
        name, parent = spans[idx][0], spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def nested_in_load(idx):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0].startswith("cli.load_"):
                return True
            parent = spans[parent][3]
        return False

    stats = {}
    load_ms = 0.0
    product_ms = 0.0
    for idx, (name, start, end, _, op, note) in enumerate(spans):
        dur = (end - start) / 1e6
        if name == "tensor.tensor_product" and op != PREPARE_OP and not nested_in_same(idx):
            product_ms += dur  # built during set-up, so set-up spans count here
        if op < 0:
            continue
        st = stats.setdefault(name, _Stats())
        st.durations.append(dur)
        st.self_ms += dur - child_ns[idx] / 1e6
        st.notes.append(note)
        if not nested_in_same(idx):
            st.outer_ms += dur
        if name.startswith("cli.load_") and not nested_in_load(idx):
            load_ms += dur

    empty = _Stats()

    def get(name):
        return stats.get(name, empty)

    def calls(name):
        return len(get(name).durations)

    def total(name):
        return get(name).outer_ms

    def self_ms(name):
        return get(name).self_ms

    def p50(durations):
        return median(durations) if durations else 0.0

    def share(name, flag):
        notes = get(name).notes
        return notes.count(flag) / len(notes) if notes else 0.0

    def solve_p50(n):
        st = get("exact.solve")
        return p50([d for d, note in zip(st.durations, st.notes) if note and note[0] == n])

    elimination = [note for name in ("exact.solve", "exact.invert")
                   for note in get(name).notes if note]
    invert_sizes = [note[0] for note in get("exact.invert").notes if note]

    values = {
        "core.multiply.calls": (calls("core.multiply"), "count"),
        "core.multiply.self_ms": (self_ms("core.multiply"), "ms"),
        "core.associator.ms": (total("core.associator"), "ms"),
        "algebras.norm_sq.ms": (total("algebras.norm_sq"), "ms"),
        "algebras.inverse_element.ms": (total("algebras.inverse_element"), "ms"),
        "linmap.left_shift.ms": (total("linmap.left_shift"), "ms"),
        "linmap.right_shift.ms": (total("linmap.right_shift"), "ms"),
        "linmap.compose.ms": (total("linmap.compose"), "ms"),
        "tensor.twisted_mul.calls": (calls("tensor.twisted_mul"), "count"),
        "tensor.twisted_mul.self_ms": (self_ms("tensor.twisted_mul"), "ms"),
        "tensor.tensor_inverse.ms": (total("tensor.tensor_inverse"), "ms"),
        "tensor.tensor_inverse.one_sided_share":
            (share("tensor.tensor_inverse", "one_sided"), "share"),
        "tensor.tensor_product.ms": (product_ms, "ms"),
        "exact.solve.calls": (calls("exact.solve"), "count"),
        "exact.solve.self_ms": (self_ms("exact.solve"), "ms"),
        "exact.solve.n16.ms_p50": (solve_p50(16), "ms"),
        "exact.solve.n64.ms_p50": (solve_p50(64), "ms"),
        "exact.solve.n256.ms_p50": (solve_p50(256), "ms"),
        "exact.invert.calls": (calls("exact.invert"), "count"),
        "exact.invert.self_ms": (self_ms("exact.invert"), "ms"),
        "exact.invert.max_n": (max(invert_sizes, default=0), "rows"),
        "exact.rank.ms": (total("exact.rank"), "ms"),
        "exact.mat_mul.calls": (calls("exact.mat_mul"), "count"),
        "exact.mat_mul.self_ms": (self_ms("exact.mat_mul"), "ms"),
        "exact.result_max_bits": (max((note[1] for note in elimination), default=0), "bits"),
        "linmap.b_matrix.calls": (calls("linmap.b_matrix"), "count"),
        "linmap.b_matrix.ms": (total("linmap.b_matrix"), "ms"),
        "linmap.b_matrix.fresh_share": (share("linmap.b_matrix", "fresh"), "share"),
        "linmap.standard_from_coords.ms": (total("linmap.standard_from_coords"), "ms"),
        "linmap.coords_from_standard.ms": (total("linmap.coords_from_standard"), "ms"),
        "linmap.representation_basis.ms": (total("linmap.representation_basis"), "ms"),
        "solver.solve_additive.ms": (total("solver.solve_additive"), "ms"),
        "solver.inverse_map_matrix.ms": (total("solver.inverse_map_matrix"), "ms"),
        "solver.inverse_map_matrix.singular_share":
            (share("solver.inverse_map_matrix", "singular"), "share"),
        "cli.load.ms": (load_ms, "ms"),
        "cli.solve.ms_p50": (p50(get("cli.cmd_solve").durations), "ms"),
        "cli.map_convert.ms_p50": (p50(get("cli.cmd_map_convert").durations), "ms"),
        "cli.basis.ms_p50": (p50(get("cli.cmd_basis").durations), "ms"),
        "cli.tables.ms_p50": (p50(get("cli.cmd_tables").durations), "ms"),
        "cli.exit_unexpected.count": (unexpected_exits, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
