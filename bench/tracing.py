"""Spans and counts around fkin's layer entry points, for the traced run.

The benchmark wraps each entry point where the calling module binds it
(``fkin.kinetics.singular_convolution``, ``fkin.cli.levy_density``, ...),
so nothing under ``src/`` changes.  A span records its name, start, end,
parent span and table id; spans are kept in memory and written out at the
end.  ``mpmath.rgamma`` and ``mpmath.workdps``, the names fkin's modules
call through ``import mpmath as mp``, are wrapped as counters attributed
to the innermost open specfun or diffusion span.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import mpmath

import fkin
import fkin.cli

# (module, attribute, span name); a span's layer is its first name part
_ENTRY_POINTS = (
    (fkin.cli, "parse_config", "cli.parse_config"),
    (fkin.cli, "execute", "cli.execute"),
    (fkin.cli, "render_csv", "cli.render_csv"),
    (fkin.kinetics, "_ml_values", "specfun.ml_values"),
    (fkin.fracops, "_ml_values", "specfun.ml_values"),
    (fkin.cli, "ml_prabhakar", "specfun.ml_prabhakar"),
    (fkin.kinetics, "singular_convolution", "fracops.singular_convolution"),
    (fkin.kinetics, "ddt", "fracops.ddt"),
    (fkin.kinetics, "singular_convolution_grid",
     "fracops.singular_convolution_grid"),
    (fkin.verification, "volterra_solve", "oracles.volterra_solve"),
    (fkin.cli, "fundamental_solution", "diffusion.fundamental_solution"),
    (fkin.cli, "levy_density", "diffusion.levy_density"),
    (fkin.cli, "verify_problem", "verification.verify_problem"),
)

# layers whose extended-precision work is counted apart
_MP_LAYERS = ("specfun", "diffusion")

LAYERS = ("cli", "kinetics", "specfun", "fracops", "oracles", "diffusion",
          "verification")

ROUTES = ("single", "binomial", "geometric", "arithmetic", "multiterm",
          "ml-closed", "power-closed", "grid")

# the per-layer metrics the traced run reports, with their units
SPAN_METRICS = (
    ("cli.execute", ("calls", "self_s")),
    ("cli.parse_config", ("s",)),
    ("cli.render_csv", ("s",)),
    ("kinetics.solve", ("calls", "self_s")),
    ("specfun.ml_values", ("calls", "s")),
    ("specfun.ml_prabhakar", ("calls", "s")),
    ("fracops.singular_convolution", ("calls", "self_s")),
    ("fracops.ddt", ("calls", "self_s")),
    ("fracops.singular_convolution_grid", ("calls", "self_s")),
    ("oracles.invert_laplace", ("calls", "self_s")),
    ("oracles.volterra_solve", ("calls", "self_s")),
    ("diffusion.fundamental_solution", ("calls", "self_s")),
    ("diffusion.levy_density", ("calls", "self_s")),
    ("verification.verify_problem", ("calls", "self_s")),
)
COUNTERS = ("kinetics.select_solver.calls", "specfun.mp_rgamma.calls",
            "specfun.mp_passes", "oracles.image_evals",
            "diffusion.mp_rgamma.calls", "diffusion.mp_passes")


class Tracer:
    """Installs span wrappers on fkin's entry points and records spans.

    Each span is a list ``[name, start, end, parent index, table id]``.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._mp_owner = []
        self._saved = []
        self.table = None

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.table]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        layer = name.split(".", 1)[0]
        owner = layer in _MP_LAYERS
        if owner:
            self._mp_owner.append(layer)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            if owner:
                self._mp_owner.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _count_mp(self, suffix, fn):
        def counted(*args, **kwargs):
            owner = self._mp_owner[-1] if self._mp_owner else "other"
            self.counts[f"{owner}.{suffix}"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for module, attr, name in _ENTRY_POINTS:
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))

        def select(original):
            def traced(problem):
                self.counts["kinetics.select_solver.calls"] += 1
                route, solver = original(problem)
                return route, self.wrap(f"kinetics.route.{route}", solver)
            return traced

        for module in (fkin.cli, fkin.verification):
            self._patch(module, "select_solver", select(module.select_solver))
        self._patch(fkin, "solve_multiterm_grid",
                    self.wrap("kinetics.route.grid", fkin.solve_multiterm_grid))

        invert = fkin.verification.invert_laplace

        def traced_invert(transform, t, controls=None):
            def counted(s):
                self.counts["oracles.image_evals"] += 1
                return transform(s)
            return self._call("oracles.invert_laplace", invert,
                              (counted, t, controls), {})

        self._patch(fkin.verification, "invert_laplace", traced_invert)
        self._patch(mpmath, "rgamma",
                    self._count_mp("mp_rgamma.calls", mpmath.rgamma))
        self._patch(mpmath, "workdps",
                    self._count_mp("mp_passes", mpmath.workdps))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, table) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "table": table}) + "\n")


def span_family(name):
    """Metric family of a span name: route spans count as kinetics.solve."""
    return "kinetics.solve" if name.startswith("kinetics.route.") else name


def _pass_metrics(spans, own, counts):
    """Counts and times of one traced pass."""
    calls, times = Counter(), Counter()
    for (name, start, end, _, _), own_s in zip(spans, own):
        family = span_family(name)
        calls[family] += 1
        times[family + ".s"] += end - start
        times[family + ".self_s"] += own_s
        times[name.split(".", 1)[0] + ".layer_self_s"] += own_s
        if family == "kinetics.solve":
            times[name + ".s"] += end - start
    out_counts = {name: counts[name] for name in COUNTERS}
    for family, kinds in SPAN_METRICS:
        if "calls" in kinds:
            out_counts[f"{family}.calls"] = calls[family]
    return out_counts, times


def layer_metrics(tracer, marks, busy_s):
    """Per-pass layer metrics of the traced passes.

    ``marks`` holds, for each traced pass, the span index and a copy of
    the counters at its start, plus one closing entry.  Counts are those of
    one pass and are returned with a flag saying whether every pass gave
    the same; times are means over the passes.  ``<layer>.self_share`` is
    the layer's self time over the traced busy time ``busy_s``.
    """
    own = tracer.self_times()
    per_pass = []
    for (lo, before), (hi, after) in zip(marks, marks[1:]):
        per_pass.append(_pass_metrics(tracer.spans[lo:hi], own[lo:hi],
                                      after - before))
    counts = per_pass[0][0]
    repeat = all(c == counts for c, _ in per_pass)
    times = sum((t for _, t in per_pass), Counter())
    n = len(per_pass)
    metrics = {name: (value, "count") for name, value in counts.items()}
    for family, kinds in SPAN_METRICS:
        for kind in kinds:
            if kind != "calls":
                metrics[f"{family}.{kind}"] = (times[f"{family}.{kind}"] / n,
                                               "s")
    for route in ROUTES:
        name = f"kinetics.route.{route}.s"
        metrics[name] = (times[name] / n, "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            times[layer + ".layer_self_s"] / n / busy_s, "ratio")
    return metrics, repeat
