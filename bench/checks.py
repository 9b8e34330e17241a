"""Checks of every table against the references in ``references.py``.

Tolerances are those `fkin verify` uses for the same comparison: 1e-12 for
the Mittag-Leffler identities (ml-reductions), 1e-6 against the contour
inversion and 1e-4 against the stepper (closed-vs-oracles), 1e-3 of scale
for the grid defect (residual-defect) and 1e-8 for the densities
(gaussian-limit, stable-density).  Kinetic and Mittag-Leffler errors are
relative to ``max(|reference|, 1e-12)`` as in `fkin verify`; density errors
are plainly relative, since deep-tail values sit far below that floor.
"""

from __future__ import annotations

import math

import numpy as np

import references as ref

TOL_IDENTITY = 1e-12
TOL_INVERSION = 1e-6
TOL_STEPPER = 1e-4
TOL_DENSITY = 1e-8
RESIDUAL_FACTOR = 1e-3
REL_FLOOR = 1e-12

# grid tables are compared with the inversion at this many nodes
GRID_CHECK_NODES = 8


class Verdict:
    """Worst error over one table for each reference used, with its
    tolerance."""

    def __init__(self):
        self.worst = {}     # reference name -> (worst error, tolerance)

    def add(self, name, error, tol):
        error = math.inf if math.isnan(error) else error
        prev = self.worst.get(name)
        if prev is None or error > prev[0]:
            self.worst[name] = (error, tol)

    @property
    def ok(self):
        return bool(self.worst) and all(e <= t for e, t in self.worst.values())

    def detail(self):
        return ", ".join(f"{name} {e:.1e} (tol {t:.0e})"
                         for name, (e, t) in sorted(self.worst.items()))


def _rel_floor(value, reference):
    return abs(value - reference) / max(abs(reference), REL_FLOOR)


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def _check_kinetic(problem, rows, verdict):
    for t, value in rows:
        verdict.add("inversion",
                    _rel_floor(value, ref.kinetic_by_inversion(problem, t)),
                    TOL_INVERSION)


def _check_verify(problem, rows, verdict):
    for t, value, _, inverted_rel, _, stepped_rel in rows:
        verdict.add("inversion",
                    _rel_floor(value, ref.kinetic_by_inversion(problem, t)),
                    TOL_INVERSION)
        verdict.add("own-inversion-column", inverted_rel, TOL_INVERSION)
        verdict.add("own-stepper-column", stepped_rel, TOL_STEPPER)


def _check_specfun(problem, rows, verdict):
    beta, gamma_, delta = problem["beta"], problem["gamma"], problem["delta"]
    for z, value in rows:
        exact = ref.ml_identity(beta, gamma_, delta, z)
        if exact is not None:
            verdict.add("identity", _rel_floor(value, exact), TOL_IDENTITY)
        else:
            verdict.add("inversion", _rel_floor(
                value, ref.ml_by_inversion(beta, gamma_, delta, z)),
                TOL_INVERSION)


def _u1_reference(problem, time, regime):
    alpha, coeff = problem["alpha"], problem["diff_coeff"]
    if alpha == 1.0:
        return "gauss", lambda x: ref.u1_gauss(coeff, x, time)
    if alpha == 2.0 / 3.0:
        return "airy", lambda x: ref.u1_airy(coeff, x, time)
    stable = ref.stable_levy_stable if regime == "bulk" else ref.stable_kanter
    return (stable.__name__.replace("stable_", ""),
            lambda x: ref.u1_from_stable(stable, alpha, coeff, x, time))


def _check_diffusion(problem, time, regime, rows, verdict):
    name, u1 = _u1_reference(problem, time, regime)
    for x, value in rows:
        if problem["dim"] == 1:
            verdict.add(name, _rel(value, u1(x)), TOL_DENSITY)
        else:
            verdict.add(name + "-3d", _rel(value, ref.u3_from_u1(u1, x)),
                        TOL_DENSITY)


def _check_levy(problem, regime, rows, verdict):
    rho = problem["rho"]
    for t, value in rows:
        if rho == 0.5:
            verdict.add("closed-half", _rel(value, ref.stable_half(t)),
                        TOL_DENSITY)
        elif regime == "bulk":
            verdict.add("levy_stable",
                        _rel(value, ref.stable_levy_stable(rho, t)),
                        TOL_DENSITY)
        else:
            verdict.add("kanter", _rel(value, ref.stable_kanter(rho, t)),
                        TOL_DENSITY)


def _check_grid(table, parsed, ts, values, verdict):
    import fkin

    problem = table.config["problem"]
    n = ts.size - 1
    for i in np.unique(np.rint(np.linspace(n / GRID_CHECK_NODES, n,
                                           GRID_CHECK_NODES)).astype(int)):
        verdict.add("inversion", _rel_floor(
            float(values[i]), ref.kinetic_by_inversion(problem, float(ts[i]))),
            TOL_INVERSION)
    defect = fkin.residual_grid(parsed.problem, values, float(ts[1] - ts[0]))
    verdict.add("residual", float(np.max(np.abs(defect))
                                  / np.max(np.abs(values))), RESIDUAL_FACTOR)


def check(table, parsed, output):
    """Check one table's output; returns a :class:`Verdict`.

    ``output`` is ``(header, rows)`` read back from the table's CSV text,
    or ``(ts, values)`` arrays for a grid table.  ``parsed`` is the
    validated configuration.
    """
    verdict = Verdict()
    config = table.config
    problem = config["problem"]
    if table.grid_t_end is not None:
        _check_grid(table, parsed, *output, verdict)
        return verdict
    _, rows = output
    mode = config["mode"]
    if mode == "kinetic":
        _check_kinetic(problem, rows, verdict)
    elif mode == "verify":
        _check_verify(problem, rows, verdict)
    elif mode == "specfun-eval":
        _check_specfun(problem, rows, verdict)
    elif mode == "diffusion":
        _check_diffusion(problem, config["time"], table.regime, rows, verdict)
    elif mode == "levy":
        _check_levy(problem, table.regime, rows, verdict)
    return verdict


def read_csv(text):
    """``(header, rows)`` of a CSV table as `fkin run` writes it."""
    lines = text.rstrip("\n").split("\n")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return tuple(lines[0].split(",")), rows
