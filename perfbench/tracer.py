"""Outside-in tracer: spans and counters around folsing's public functions.

Nothing in folsing knows about this module.  ``Tracer.install`` replaces
every reference to a traced function object in the namespaces of the loaded
``folsing`` modules (``from .local import intersection_number`` binds a
second name in ``resolve``, ``cli`` and ``holonomy``), and patches hot
methods on their class.  Spans are kept in memory as parallel arrays of
(name, start, end, parent, job id); self times are computed once at the end.
"""

import array
import functools
import sys
import time

# (metric prefix, module, class or None, attributes): each call opens a span.
SPAN_TARGETS = [
    ("parsing.parse_any", "folsing.parsing", None, ("parse_any",)),
    ("jsonio.dumps", "folsing.jsonio", None, ("dumps",)),
    ("poly.mul", "folsing.poly", "MultiPoly", ("__mul__", "__rmul__")),
    ("poly.substitute", "folsing.poly", "MultiPoly", ("substitute",)),
    ("normalforms.solve_conjugacy", "folsing.normalforms", None,
     ("solve_conjugacy",)),
    ("normalforms.conjugacy_residual", "folsing.normalforms", None,
     ("conjugacy_residual",)),
    ("local.intersection_number", "folsing.local", None,
     ("intersection_number",)),
    ("local.gcd_xy", "folsing.local", None, ("gcd_xy",)),
    ("local.classify_singularity", "folsing.local", None,
     ("classify_singularity",)),
    ("towers.tp_resultant", "folsing.towers", None, ("tp_resultant",)),
    ("towers.factor_univariate", "folsing.towers", None,
     ("factor_univariate",)),
    ("blowup.divisor_children", "folsing.blowup", None, ("divisor_children",)),
    ("blowup.child_local_form", "folsing.blowup", None, ("child_local_form",)),
    ("blowup.wedge_certificate", "folsing.blowup", None,
     ("wedge_certificate",)),
    ("resolve.resolve", "folsing.resolve", None, ("resolve",)),
    ("holonomy.mattei_moussu_criterion", "folsing.holonomy", None,
     ("mattei_moussu_criterion",)),
    ("holonomy.construct_first_integral_homogeneous", "folsing.holonomy", None,
     ("construct_first_integral_homogeneous",)),
    ("holonomy.verify_first_integral", "folsing.holonomy", None,
     ("verify_first_integral",)),
    ("fatou.fatou_coordinate", "folsing.fatou", None, ("fatou_coordinate",)),
    ("fatou.orbit_census", "folsing.fatou", None, ("orbit_census",)),
    # the two numeric kernels formerly timed by benchmarks/bench_fatou.py
    ("fatou.advance", "folsing.fatou", None, ("_advance",)),
    ("fatou.census_kernel", "folsing.fatou", None, ("_census_kernel",)),
]

# (metric prefix, module, class, attributes): each call bumps a counter.
COUNTER_TARGETS = [
    ("scalars.gaussian_mul", "folsing.scalars", "GaussianRational",
     ("__mul__", "__rmul__")),
    ("scalars.gaussian_add", "folsing.scalars", "GaussianRational",
     ("__add__", "__radd__")),
    ("scalars.gaussian_sub", "folsing.scalars", "GaussianRational",
     ("__sub__", "__rsub__")),
    ("scalars.gaussian_inverse", "folsing.scalars", "GaussianRational",
     ("inverse",)),
    ("towers.field_mul", "folsing.towers", "FieldElement",
     ("__mul__", "__rmul__")),
    ("towers.adjoin_root", "folsing.towers", "FieldTower", ("adjoin_root",)),
]

ROOT_SPAN = "cli.main"
SPAN_NAMES = [ROOT_SPAN] + [t[0] for t in SPAN_TARGETS]


def _observe_poly_mul(values, args, result):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        values["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _observe_intersection(values, args, result):
    if isinstance(result, int):
        values["local.intersection_number.max_value"] = max(
            values["local.intersection_number.max_value"], result)


def _observe_factor(values, args, result):
    values["towers.factor_univariate.max_degree"] = max(
        values["towers.factor_univariate.max_degree"], len(args[0]) - 1)


def _observe_resolve(values, args, result):
    values["resolve.blowups"] += result.blowup_count
    values["resolve.nodes"] += len(result.nodes)


def _observe_fatou(values, args, result):
    values["fatou.petal_steps"] += result.petal_steps


def _observe_census(values, args, result):
    values["fatou.census_points"] += result["total"]


OBSERVERS = {
    "poly.mul": _observe_poly_mul,
    "local.intersection_number": _observe_intersection,
    "towers.factor_univariate": _observe_factor,
    "resolve.resolve": _observe_resolve,
    "fatou.fatou_coordinate": _observe_fatou,
    "fatou.orbit_census": _observe_census,
}

# Observed values: maxima merge by max, everything else by sum.
VALUE_METRICS = [
    "poly.mul.term_pairs", "local.intersection_number.max_value",
    "towers.factor_univariate.max_degree", "resolve.blowups", "resolve.nodes",
    "fatou.petal_steps", "fatou.census_points",
]


def merge_metrics(into, other):
    """Combine per-layer metric dicts from two traced processes."""
    for key, value in other.items():
        if ".max_" in key:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.names = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.jobs = array.array("i")
        self.stack = []
        self.job_id = -1
        self.counters = {t[0] + ".calls": 0 for t in COUNTER_TARGETS}
        self.values = {name: 0 for name in VALUE_METRICS}
        self._undo = []

    # -- spans ------------------------------------------------------------
    def _open(self, name_id):
        idx = len(self.names)
        self.names.append(name_id)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job_id)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.ends[idx] = time.perf_counter()

    def run_job(self, job_id, fn):
        """Run ``fn()`` under the root span of job ``job_id``."""
        self.job_id = job_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _span_wrapper(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer.values, args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target; folsing must already be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "folsing" or n.startswith("folsing."))
                   and m is not None]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNTER_TARGETS, self._counter_wrapper)):
            for name, module_name, cls_name, attrs in targets:
                module = sys.modules[module_name]
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    for attr in attrs:
                        self._patch(cls, attr, make(name, cls.__dict__[attr]))
                    continue
                original = getattr(module, attrs[0])
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(n)]

    def metrics(self, scale=1.0):
        """Per-layer metrics; times are multiplied by ``scale``."""
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        for i, s in enumerate(self.self_times()):
            name = SPAN_NAMES[self.names[i]]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += s * scale
        out.update(self.counters)
        out.update(self.values)
        return out
