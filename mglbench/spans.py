"""Layer tracing from outside mgl: wrap public functions, record spans.

`Tracer.install` replaces each function in LAYERS by a wrapper in every
loaded `mgl` module that holds a reference to it (the modules import each
other's functions by name) and, for `FormOperator` methods, on the class.
Each call appends one span `[name, start, end, parent, counts]` to an
in-memory list; `parent` is the index of the enclosing span or -1, and
`counts` holds the figures a counter derives from the call's arguments.
Nothing is written until the command ends. mgl's source is not touched.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time


def _dim(a, _):
    return {"forms.operator_dim_sum": len(a["L"])}


def _euler_solves(a, _):
    return {"spectral.euler_solves": int(a["n"])}


def _vectors(samples) -> int:
    return int(samples) if isinstance(samples, int) else len(samples)


def _pointwise(grid_key):
    # Sample sections plus one coordinate probe per vertex, at each parameter.
    def count(a, _):
        vectors = _vectors(a["samples"]) + a["A"].n
        return {"domination.comparisons": vectors * len(a[grid_key])}
    return count


def _form_probes(a, _):
    # Per sample: the energy-budget and the aligned-pair comparison; then
    # one disjoint coordinate pair per edge.
    return {"domination.comparisons":
            2 * _vectors(a["samples"]) + len(a["bundle"].graph.edges)}


def _report_bytes(_, result):
    return {"serialize.report_bytes": len(result.encode("utf-8"))}


# (span name, module, attribute, metric counting the calls or None, counter)
# The time metric of a span is its name + "_s", summed self time.
LAYERS = (
    ("cli.self", "cli", "run", None, None),
    ("graphs.load_graph", "graphs", "load_graph", None, None),
    ("graphs.restrict", "graphs", "restrict_dirichlet", "graphs.restrict_calls", None),
    ("graphs.restrict", "graphs", "restrict_neumann", "graphs.restrict_calls", None),
    ("bundles.load_bundle", "bundles", "load_bundle", None, None),
    ("bundles.validate_bundle", "bundles", "validate_bundle",
     "bundles.validate_bundle_calls", None),
    ("bundles.restrict_bundle", "bundles", "restrict_bundle", None, None),
    ("forms.assemble_scalar_form", "forms", "assemble_scalar_form", None, None),
    ("forms.assemble_magnetic_form", "forms", "assemble_magnetic_form", None, None),
    ("forms.operator_init", "forms", "FormOperator.__init__", "forms.operator_inits", _dim),
    ("forms.evaluate", "forms", "FormOperator.evaluate", "forms.evaluate_calls", None),
    ("forms.semigroup", "forms", "FormOperator.semigroup", "forms.semigroup_calls", None),
    ("forms.resolvent", "forms", "FormOperator.resolvent", "forms.resolvent_calls", None),
    ("forms.resolvent_matrix", "forms", "FormOperator.resolvent_matrix", None, None),
    ("spectral.euler_limit_check", "spectral", "euler_limit_check", None, _euler_solves),
    ("spectral.laplace_check", "spectral", "laplace_check", None, None),
    ("spectral.form_limit_check", "spectral", "form_limit_check", None, None),
    ("domination.hypothesis_margins", "domination", "hypothesis_margins", None, None),
    ("domination.check_semigroup_domination", "domination",
     "check_semigroup_domination", None, _pointwise("t_list")),
    ("domination.check_resolvent_domination", "domination",
     "check_resolvent_domination", None, _pointwise("alpha_list")),
    ("domination.check_form_domination", "domination",
     "check_form_domination", None, _form_probes),
    ("metrics.exhaustion_uniqueness_experiment", "metrics",
     "exhaustion_uniqueness_experiment", None, None),
    ("metrics.path_metric", "metrics", "path_metric", None, None),
    ("serialize.dump_report", "serialize", "dump_report", None, _report_bytes),
)


def metric_units() -> dict:
    """Every per-layer metric the spans yield, with its unit."""
    units = {}
    for name, _, _, calls, _ in LAYERS:
        units[name + "_s"] = "s"
        if calls:
            units[calls] = "count"
    units.update({
        "forms.operator_dim_sum": "count",
        "spectral.euler_solves": "count",
        "domination.comparisons": "count",
        "serialize.report_bytes": "bytes",
    })
    return units


class Tracer:
    """Holds the spans of one process; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mgl" or key.startswith("mgl.")]
        for name, module, attribute, _, counter in LAYERS:
            owner = sys.modules[f"mgl.{module}"]
            path = attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original, counter)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def layer_metrics(spans: list) -> dict:
    """Self time per span name, call counts and counter sums of one command."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls_metric = {name: calls for name, _, _, calls, _ in LAYERS}
    out = {metric: 0.0 if unit == "s" else 0 for metric, unit in metric_units().items()}
    for i, (name, start, end, _, counts) in enumerate(spans):
        out[name + "_s"] += end - start - child_time[i]
        if calls_metric[name]:
            out[calls_metric[name]] += 1
        for key, value in (counts or {}).items():
            out[key] += value
    return out


def median_metrics(per_command: list) -> dict:
    """Median of each layer metric over the traced commands of a run."""
    return {key: statistics.median(m[key] for m in per_command)
            for key in per_command[0]}
