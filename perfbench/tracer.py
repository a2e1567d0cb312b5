"""Spans around toricsym's layers, installed from outside the program.

Modules import each other's functions by name (``from .fan import
validate_fan``), so a wrapper replaces the function in every toricsym
module that holds it; otherwise calls between layers would not be seen.

Each call pushes a frame.  On return the call's duration minus the time of
the wrapped calls inside it is its self time, credited to its layer, so the
self times of all layers plus the benchmark's own time add up to the
wall-clock time of a pass.  Calls are kept as spans (name, start, end,
parent, operation), except for the hot ones in ``HOT``, which are only
counted and timed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("intlin", "fan", "divisors", "symmetry", "families", "mmp", "fanio", "cli")

# Private functions that another module imports by name: layer boundaries too.
PRIVATE = {
    "fan": ("_all_isomorphisms", "_induced_ray_map"),
    "symmetry": ("_make_action", "_close_under_composition"),
}

# IntMatrix methods, all hot.
METHODS = {
    "__post_init__": "intlin.matrix_new",
    "__matmul__": "intlin.matmul",
    "det": "intlin.det",
    "rank": "intlin.rank",
    "adjugate": "intlin.adjugate",
}

HOT = {
    "intlin.gcd_vector",
    "intlin.primitive_vector",
    "fan._induced_ray_map",
    *METHODS.values(),
}


class Tracer:
    def __init__(self):
        self._undo = []
        self.op = None
        self.start_pass()

    def start_pass(self):
        self.spans = []
        self.stack = [[0.0, "bench", -1]]  # frames: [child time, name, span index]
        self.self_time = Counter()
        self.calls = Counter()
        self.inclusive = Counter()  # outermost calls of each name only
        self.depth = Counter()
        self.counts = Counter()
        self._op_fans = set()
        self.t0 = time.perf_counter()

    def end_pass(self):
        wall = time.perf_counter() - self.t0
        self.self_time["bench"] = wall - self.stack[0][0]
        return wall

    def begin_op(self, op_id):
        self.op = op_id
        self._op_fans = set()

    def end_op(self):
        self.counts["mmp.distinct_fans"] += len(self._op_fans)
        self.op = None

    # -- wrapping ----------------------------------------------------------

    def _on_return(self, name, parent, result):
        c = self.counts
        if name == "fan.fan_isomorphism":
            c["fan.isomorphism.hits"] += result is not None
        elif name == "fan.build_surface_fan":
            c["families.candidates"] += parent == "families.enumerate_invariant_fans"
        elif name == "families.enumerate_invariant_fans":
            c["families.kept"] += len(result)
        elif name in ("symmetry.fan_automorphisms", "symmetry.action_from_generators"):
            c["symmetry.group_elements"] += result.order
        elif name == "mmp.run_equivariant_mmp":
            c["mmp.branches"] += len(result) if isinstance(result, tuple) else 1
        elif name == "mmp.contract_orbit":
            self._op_fans.add(result.rays)

    def _wrap(self, func, name, layer):
        tracer = self
        perf = time.perf_counter
        record = name not in HOT
        watched = name in (
            "fan.fan_isomorphism",
            "fan.build_surface_fan",
            "families.enumerate_invariant_fans",
            "symmetry.fan_automorphisms",
            "symmetry.action_from_generators",
            "mmp.run_equivariant_mmp",
            "mmp.contract_orbit",
        )

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if record:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = parent[2]
            frame = [0.0, name, index]
            stack.append(frame)
            tracer.depth[name] += 1
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_time[layer] += duration - frame[0]
                parent[0] += duration
                tracer.calls[name] += 1
                tracer.depth[name] -= 1
                if not tracer.depth[name]:
                    tracer.inclusive[name] += duration
                if record:
                    tracer.spans[index] = (name, start, end, parent[2], tracer.op)
            if watched:
                tracer._on_return(name, parent[1], result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _replace_everywhere(self, func, wrapper, holders):
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is func:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, func))

    def install(self):
        modules = {layer: importlib.import_module(f"toricsym.{layer}") for layer in LAYERS}
        holders = [m for n, m in sys.modules.items() if n == "toricsym" or n.startswith("toricsym.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                self._replace_everywhere(obj, self._wrap(obj, f"{layer}.{attr}", layer), holders)
        matrix = modules["intlin"].IntMatrix
        for attr, name in METHODS.items():
            func = vars(matrix)[attr]
            setattr(matrix, attr, self._wrap(func, name, "intlin"))
            self._undo.append((matrix, attr, func))

    def uninstall(self):
        for holder, key, func in reversed(self._undo):
            setattr(holder, key, func)
        self._undo = []

    # -- metrics ------------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics of the pass that just ended."""
        calls, incl, counts = self.calls, self.inclusive, self.counts
        ratio = lambda a, b: a / b if b else 0.0
        out = {f"{layer}.self_s": (self.self_time[layer], "s") for layer in LAYERS}
        out["bench.self_s"] = (self.self_time["bench"], "s")
        out["traced.wall_s"] = (wall, "s")
        out["trace.spans"] = (len(self.spans), "count")
        for metric, name in (
            ("families.enumerate", "families.enumerate_invariant_fans"),
            ("fan.validate", "fan.validate_fan"),
            ("fan.isomorphism", "fan.fan_isomorphism"),
            ("fan.search", "fan._all_isomorphisms"),
            ("mmp.classify", "mmp.classify_terminal"),
            ("symmetry.automorphisms", "symmetry.fan_automorphisms"),
            ("symmetry.closure", "symmetry._close_under_composition"),
            ("intlin.snf", "intlin.smith_normal_form"),
            ("divisors.class_group", "divisors.class_group"),
        ):
            out[f"{metric}.calls"] = (calls[name], "count")
            out[f"{metric}.s"] = (incl[name], "s")
        for metric, name in (
            ("fan.build_surface", "fan.build_surface_fan"),
            ("fan.make", "fan.make_fan"),
            ("mmp.contractions", "mmp.contract_orbit"),
            ("symmetry.action", "symmetry._make_action"),
            ("intlin.rank", "intlin.rank"),
            ("intlin.kernel", "intlin.kernel_basis"),
            ("intlin.det", "intlin.det"),
            ("intlin.adjugate", "intlin.adjugate"),
            ("intlin.matmul", "intlin.matmul"),
            ("intlin.matrix_new", "intlin.matrix_new"),
            ("cli", "cli.main"),
        ):
            out[f"{metric}.calls"] = (calls[name], "count")
        out["mmp.contractions"] = out.pop("mmp.contractions.calls")
        out["families.candidates"] = (counts["families.candidates"], "count")
        out["families.kept"] = (counts["families.kept"], "count")
        out["families.keep_ratio"] = (ratio(counts["families.kept"], counts["families.candidates"]), "ratio")
        out["fan.isomorphism.hit_ratio"] = (
            ratio(counts["fan.isomorphism.hits"], calls["fan.fan_isomorphism"]),
            "ratio",
        )
        out["mmp.branches"] = (counts["mmp.branches"], "count")
        out["mmp.distinct_fan_ratio"] = (
            ratio(counts["mmp.distinct_fans"], calls["mmp.contract_orbit"]),
            "ratio",
        )
        out["symmetry.group_elements"] = (counts["symmetry.group_elements"], "count")
        return out
