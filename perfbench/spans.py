"""In-memory span recorder around the public entry points of cknstab.

``install`` replaces, inside the running interpreter only, each public
function listed in ``TRACED`` (and ``Cylinder.__init__``) by a wrapper that
opens a span around the call.  Every module of the package that holds a
reference to the function gets the wrapper, so calls made inside the package
(``sharpness_study`` calling ``nearest_bubble``, ``bubble_sum_residual``
building a ``Cylinder``) are recorded too.  The package's source is not
touched; work with no public entry point shows up as time not covered by
any span.

A span is a dict with ``name``, ``start``, ``end``, ``parent`` (index of the
enclosing span or None), ``trace`` (the sweep point ``[p, n]``) and
``attrs`` (health values read from the call's result).
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "attrs": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"] = attrs(args, out)
            return out

        return traced


def _cylinder_attrs(args, _):
    cyl = args[0]
    return {"N": cyl.grid.N, "S": cyl.grid.S, "L": cyl.L, "M": cyl.sphere.M}


# (module, function, span name, health values read from (args, result))
TRACED = [
    ("cknstab.cylinder", "newton_ground_state", "cylinder.ground_state", None),
    ("cknstab.operators", "apply_H1", "operators.apply_H1",
     lambda a, r: {"tail_fraction": r.tail_fraction}),
    ("cknstab.operators", "hminus1_norm", "operators.hminus1_norm", None),
    ("cknstab.spectrum", "eigensolve_sector", "spectrum.eigensolve_sector",
     lambda a, r: {"pencil_residual": float(max(r.residuals))}),
    ("cknstab.spectrum", "gamma3", "spectrum.gamma3", None),
    ("cknstab.stability", "compute_E0", "stability.compute_E0", None),
    ("cknstab.stability", "compute_F", "stability.compute_F", None),
    ("cknstab.stability", "compute_R_gamma", "stability.compute_R_gamma",
     lambda a, r: {"series_terms": int(r[1]), "tail_bound": float(r[2])}),
    ("cknstab.stability", "compute_R_energy", "stability.compute_R_energy", None),
    ("cknstab.stability", "corrector", "stability.corrector", None),
    ("cknstab.stability", "counterexample", "stability.family", None),
    ("cknstab.stability", "naive_family", "stability.family", None),
    ("cknstab.stability", "nearest_bubble", "stability.nearest_bubble",
     lambda a, r: {"stationarity": float(r.stationarity)}),
    ("cknstab.stability", "project_Y", "stability.project_Y", None),
    ("cknstab.multibubble", "interaction", "multibubble.interaction", None),
    ("cknstab.multibubble", "interaction_derivative", "multibubble.interaction", None),
    ("cknstab.multibubble", "bubble_sum_residual", "multibubble.bubble_sum_residual", None),
]


def install(tracer):
    """Route the traced entry points of the imported package through spans."""
    cylinder = importlib.import_module("cknstab.cylinder")
    cylinder.Cylinder.__init__ = tracer.wrap(
        cylinder.Cylinder.__init__, "cylinder.build", _cylinder_attrs
    )
    for module, func, name, attrs in TRACED:
        orig = getattr(importlib.import_module(module), func)
        wrapped = tracer.wrap(orig, name, attrs)
        for modname, mod in list(sys.modules.items()):
            if modname == "cknstab" or modname.startswith("cknstab."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

TIMED_LAYERS = [
    "cylinder.build",
    "cylinder.ground_state",
    "operators.apply_H1",
    "operators.hminus1_norm",
    "spectrum.eigensolve_sector",
    "spectrum.gamma3",
    "stability.compute_E0",
    "stability.compute_F",
    "stability.compute_R_gamma",
    "stability.compute_R_energy",
    "stability.corrector",
    "stability.family",
    "stability.nearest_bubble",
    "stability.project_Y",
    "multibubble.interaction",
    "multibubble.bubble_sum_residual",
]

COUNTED_LAYERS = [
    "cylinder.build",
    "operators.apply_H1",
    "operators.hminus1_norm",
    "spectrum.eigensolve_sector",
    "stability.nearest_bubble",
]

# metric -> (span name, attribute, reduction over the run's spans)
HEALTH = {
    "operators.tail_fraction_max": ("operators.apply_H1", "tail_fraction", max),
    "spectrum.pencil_residual_max": ("spectrum.eigensolve_sector", "pencil_residual", max),
    "stability.series_terms": ("stability.compute_R_gamma", "series_terms", sum),
    "stability.tail_bound_max": ("stability.compute_R_gamma", "tail_bound", max),
    "stability.stationarity_max": ("stability.nearest_bubble", "stationarity", max),
}

# per-layer metric -> (unit, better)
LAYER_METRICS = {
    **{f"{name}_s": ("s", "lower") for name in TIMED_LAYERS},
    **{f"{name}_calls": ("count", "lower") for name in COUNTED_LAYERS},
    "operators.tail_fraction_max": ("frac", "lower"),
    "spectrum.pencil_residual_max": ("rel", "lower"),
    "stability.series_terms": ("count", "lower"),
    "stability.tail_bound_max": ("rel", "lower"),
    "stability.stationarity_max": ("rel", "lower"),
    "trace.coverage": ("frac", "higher"),
    "trace.overhead": ("frac", "lower"),
}


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer values of one traced pass, except ``trace.overhead``, which
    needs the untraced pass too."""
    own = self_times(spans)
    out = {f"{name}_s": 0.0 for name in TIMED_LAYERS}
    out.update({f"{name}_calls": 0 for name in COUNTED_LAYERS})
    for s, t in zip(spans, own):
        if f"{s['name']}_s" in out:
            out[f"{s['name']}_s"] += t
        if f"{s['name']}_calls" in out:
            out[f"{s['name']}_calls"] += 1
    for metric, (name, attr, reduce) in HEALTH.items():
        vals = [s["attrs"][attr] for s in spans if s["name"] == name]
        out[metric] = reduce(vals) if vals else 0
    roots = {i for i, s in enumerate(spans) if s["parent"] is None}
    traced_wall = sum(spans[i]["end"] - spans[i]["start"] for i in roots)
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    out["trace.coverage"] = covered / traced_wall if traced_wall > 0 else 0.0
    return out
