"""Traced mode: spans around the public functions of each fwpoly layer.

The wrappers are installed from the benchmark, on the names that callers
actually look up: the methods in the class dictionaries of the polytope,
active-set, objective, step-rule and trace classes, and every module-level
name bound to a traced function, including names bound by import such as
``fwpoly.solvers.candidates_afw`` or ``fwpoly.geometry.project_to_hull``.

Each call records a span: name, start, end and the index of the enclosing
span.  Spans are kept in memory in flat arrays and written out once, when
the run ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> public functions or methods traced in it
LAYERS = {
    "polytope": ("lmo", "in_face_lmo", "max_step", "minimal_face", "face_dim",
                 "contains", "enumerate_vertices"),
    "active_set": ("away_and_local_fw", "apply_step"),
    "objectives": ("grad", "value", "curvature_along", "holder_certificate"),
    "stepsize": ("step",),
    "directions": ("candidates_afw", "candidates_bpfw", "candidates_ifw", "select"),
    "solvers": ("solve", "to_csv"),
    "harness": ("audit_progress", "audit_selection", "audit_scaling",
                "audit_drop_accounting", "audit_ifw_dims", "audit_fwipw",
                "envelope_check", "fit_rate"),
    "geometry": ("face_lattice", "inner_facial_distance", "outer_facial_distance",
                 "phi_lower_bound", "radial_distance", "face_distance",
                 "vertex_distance", "minimal_supports", "derive_error_bound"),
    "_hulls": ("project_to_hull", "hull_hform", "hull_distance"),
}
SPANS = tuple((layer, fn) for layer, fns in LAYERS.items() for fn in fns)
# metric names start with a letter, so the _hulls layer reports as "hulls"
SPAN_NAMES = tuple(f"{layer.lstrip('_')}.{fn}" for layer, fn in SPANS)
VARIANTS = ("FW", "AFW", "BPFW", "IFW", "FWIPW")

# calls of these spans count per solver iteration, over the calls made
# inside ``solvers.solve``
PER_ITER = ("polytope.face_dim", "polytope.contains", "objectives.value",
            "objectives.grad")


def metric_names():
    """Every per-layer metric the traced run reports, in output order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{span}.per_iter" for span in PER_ITER]
    names += ["active_set.away_and_local_fw.per_iter",
              "stepsize.grad_per_call", "stepsize.value_per_call",
              "directions.used_per_built", "solvers.iters",
              "solvers.to_csv.bytes",
              "geometry.outer_facial_distance.hull_distance_per_call",
              "hulls.project_to_hull.us_per_call"]
    names += [f"solvers.{v}.us_per_iter" for v in VARIANTS]
    return names


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.built = 0  # candidate directions returned by candidates_*
        self._stack = []
        self._patches = []  # (owner, attribute, original), in install order

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, span_id, count_result):
        start, end, name, parent = self.start, self.end, self.name, self.parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(span_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_result:
                self.built += len(out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function wherever fwpoly binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fwpoly" or key.startswith("fwpoly.")]
        for span_id, (layer, fn_name) in enumerate(SPANS):
            mod = sys.modules[f"fwpoly.{layer}"]
            target = vars(mod).get(fn_name)
            wrapped = 0
            if callable(target) and not isinstance(target, type):
                new = self._wrap(target, span_id, fn_name.startswith("candidates_"))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is target:
                            self._patch(m, attr, new)
                            wrapped += 1
            for cls in _classes(mod):
                if fn_name in vars(cls):
                    self._patch(cls, fn_name, self._wrap(vars(cls)[fn_name], span_id,
                                                         False))
                    wrapped += 1
            if not wrapped:
                raise RuntimeError(f"traced name {layer}.{fn_name} not found in fwpoly")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.start, dtype=float), np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path):
        start, end, name, parent = self.arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), start=start, end=end,
                 name=name, parent=parent)

    def metrics(self, iters, solve_by_variant, trace_bytes):
        """Per-layer metrics of the recorded spans.

        ``iters`` and ``solve_by_variant`` map each variant to the
        iterations and untraced solve seconds of one round; they give the
        per-iteration ratios and costs.
        """
        start, end, name, parent = self.arrays()
        k = len(SPAN_NAMES)
        dur = end - start
        child = parent >= 0
        self_s = dur - np.bincount(parent[child], weights=dur[child],
                                   minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        self_total = np.bincount(name, weights=self_s, minlength=k)
        dur_total = np.bincount(name, weights=dur, minlength=k)
        sid = {span: i for i, span in enumerate(SPAN_NAMES)}

        # spans started inside a solve: solves never nest, so a span is
        # inside one when its start falls before the end of the latest
        # solve that started before it
        is_solve = name == sid["solvers.solve"]
        s_start, s_end = start[is_solve], end[is_solve]
        pos = np.searchsorted(s_start, start, side="right") - 1
        in_solve = np.zeros(len(start), dtype=bool)
        if len(s_start):
            in_solve = (pos >= 0) & (start < s_end[np.maximum(pos, 0)]) & ~is_solve
        calls_in_solve = np.bincount(name[in_solve], minlength=k)
        parent_name = np.where(child, name[np.maximum(parent, 0)], -1)

        def child_calls(child_span, parent_span):
            return int(np.sum((name == sid[child_span])
                              & (parent_name == sid[parent_span])))

        def ratio(num, den):
            return num / den if den else 0.0

        total_iters = sum(iters.values())
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_total[i])
        for span in PER_ITER:
            out[f"{span}.per_iter"] = ratio(int(calls_in_solve[sid[span]]), total_iters)
        out["active_set.away_and_local_fw.per_iter"] = ratio(
            int(calls_in_solve[sid["active_set.away_and_local_fw"]]),
            iters.get("AFW", 0) + iters.get("BPFW", 0))
        steps = int(calls[sid["stepsize.step"]])
        out["stepsize.grad_per_call"] = ratio(
            child_calls("objectives.grad", "stepsize.step"), steps)
        out["stepsize.value_per_call"] = ratio(
            child_calls("objectives.value", "stepsize.step"), steps)
        out["directions.used_per_built"] = ratio(
            int(calls[sid["directions.select"]]), self.built)
        out["solvers.iters"] = total_iters
        out["solvers.to_csv.bytes"] = trace_bytes
        out["geometry.outer_facial_distance.hull_distance_per_call"] = ratio(
            child_calls("hulls.hull_distance", "geometry.outer_facial_distance"),
            int(calls[sid["geometry.outer_facial_distance"]]))
        p2h = sid["hulls.project_to_hull"]
        out["hulls.project_to_hull.us_per_call"] = ratio(1e6 * dur_total[p2h],
                                                          int(calls[p2h]))
        for v in VARIANTS:
            out[f"solvers.{v}.us_per_iter"] = ratio(
                1e6 * solve_by_variant.get(v, 0.0), iters.get(v, 0))
        return out


def _classes(mod):
    """Classes defined in the module itself, in definition order."""
    return [val for val in vars(mod).values()
            if isinstance(val, type) and val.__module__ == mod.__name__]
