"""Seeded table lists for the three benchmark workloads.

A table is one fkin run configuration (schema version 1) evaluated end to
end, or one uniform-grid solve.  Every parameter that drives cost is drawn
by stratified sampling inside a fixed box, so a new seed changes the inputs
but not the cost structure of the list: the same number of tables per
regime, the same grid sizes, and the same spread of arguments.  That is what
lets runs on different seeds be compared.

The regime boxes stay clear of the known failure boundaries of the program
(see ``bench/README.md``).  The one exception is the ``tail`` regime of
``closed-forms``: its inputs are fixed, not seeded, and fail with
``NonConvergence`` on the current code on every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("closed-forms", "convolution-routes", "densities")

# uniform-grid density of the grid tables, cells per unit time
GRID_POINTS_PER_UNIT = 512

# closed-forms argument regimes, in |z| of the Mittag-Leffler argument
DOUBLE_Z = (1.0, 1.5)      # largest |z| of a double-regime table
RESCUE_Z = (2.0, 7.0)      # |z| range of a rescue-regime table
RESCUE_BETA = (0.5, 1.0)
RESCUE_GAMMA = (0.5, 3.0)
RESCUE_DELTA = (1.0, 3.5)

# densities regimes
BULK_LENGTHS = 4.0          # bulk x reaches this many diffusion lengths
BULK_ALPHA = (0.4, 1.0)
BULK_RHO = (0.25, 0.7)
BULK_T = (0.3, 3.0)
TAIL_LENGTHS = {2.0 / 3.0: (25.0, 40.0), 1.0: (20.0, 30.0)}
TAIL_RHO = (0.7, 0.73)
TAIL_T = (0.1, 0.2)


@dataclass(frozen=True)
class Table:
    """One unit of work: an fkin configuration and its regime label.

    ``grid_t_end`` is set for grid tables, which solve the configuration's
    kinetic problem with ``solve_multiterm_grid`` up to that time instead
    of running the configuration.
    """

    id: str
    regime: str
    config: dict
    grid_t_end: float | None = None

    @property
    def kind(self):
        return "grid" if self.grid_t_end is not None else self.config["mode"]


class Draw:
    """Seeded draws on a fixed design.

    ``strata`` gives one value in each of ``n`` equal strata of a range.
    The order of the strata, which pairs the parameters of one table, is
    fixed per workload; the seed only moves each value inside its stratum.
    A new seed therefore gives new inputs with the same cost structure.
    """

    def __init__(self, workload, seed):
        self._jitter = random.Random(f"{workload}:{seed}")
        self._design = random.Random(f"{workload}:design")

    def strata(self, n, lo, hi):
        order = list(range(n))
        self._design.shuffle(order)
        width = (hi - lo) / n
        return [lo + (i + self._jitter.random()) * width for i in order]

    def uniform(self, lo, hi):
        return self._jitter.uniform(lo, hi)


def _grid(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


def _kinetic(mode, n0, nus, rates, forcing, start, stop, count):
    return {"schema_version": 1, "mode": mode,
            "problem": {"n0": n0, "nus": list(nus), "rates": list(rates),
                        "forcing": forcing},
            "time_grid": _grid(start, stop, count)}


def _specfun(beta, gamma_, delta, start, stop, count):
    return {"schema_version": 1, "mode": "specfun-eval",
            "problem": {"beta": beta, "gamma": gamma_, "delta": delta},
            "space_grid": _grid(start, stop, count)}


def _binomial(n, nu, c_nu):
    """Orders ``r nu`` with rates ``C(n, r) c_nu^r``, r = 1..n."""
    nus = [(r + 1) * nu for r in range(n)]
    rates = [math.comb(n, r) * c_nu ** r for r in range(1, n + 1)]
    return nus, rates


def _geometric(n, nu, a):
    return [(r + 1) * nu for r in range(n)], [a ** r for r in range(1, n + 1)]


def _closed_forms(rng):
    """Closed routes and Mittag-Leffler tables in three |z| regimes."""
    out = []

    def add(regime, config):
        out.append((regime, config))

    def rescue_span():
        return (rng.uniform(RESCUE_Z[0], RESCUE_Z[0] + 0.25),
                rng.uniform(RESCUE_Z[1] - 0.25, RESCUE_Z[1]))

    # double: two-parameter functions (delta = 1, gamma >= 1) with |z| at
    # most DOUBLE_Z[1]; larger delta or smaller gamma cancel enough to be
    # re-summed in extended precision even at |z| <= 1.5.
    # Single-term kinetic problems with unit ('single') and power
    # ('power-closed') forcing:
    n = 16
    nus, rates, zmax = (rng.strata(n, 0.5, 1.0), rng.strata(n, 0.5, 1.5),
                        rng.strata(n, *DOUBLE_Z))
    rhos = rng.strata(n, 1.0, 2.5)
    for i in range(n):
        nu, a = nus[i], rates[i]
        forcing = ({"type": "unit"} if i % 2 == 0 else
                   {"type": "power", "rho": rhos[i]})
        t_hi = (zmax[i] / a) ** (1.0 / nu)
        add("double", _kinetic("kinetic", 1.0, [nu], [a], forcing,
                               t_hi / 16.0, t_hi, 16))
    # specfun-eval on the identity families ...
    families = ((1.0, 1.0, 1.0, -1.5, 1.5), (0.5, 1.0, 1.0, -1.5, 1.5),
                (2.0, 1.0, 1.0, -1.5, 0.0), (1.0, 2.0, 1.0, -1.5, 1.5))
    for i in range(8):
        beta, gamma_, delta, lo, hi = families[i % len(families)]
        start = lo * rng.uniform(0.9, 1.0)
        stop = hi * rng.uniform(0.9, 1.0) if hi else -0.05
        add("double", _specfun(beta, gamma_, delta, start, stop, 12))
    # ... and on general parameters with z < 0
    n = 16
    betas, gams, zmax = (rng.strata(n, *RESCUE_BETA),
                         rng.strata(n, 1.0, RESCUE_GAMMA[1]),
                         rng.strata(n, *DOUBLE_Z))
    for i in range(n):
        add("double", _specfun(betas[i], gams[i], 1.0, -zmax[i],
                               -zmax[i] / 12.0, 12))

    # rescue: |z| in RESCUE_Z with beta in RESCUE_BETA, where the series is
    # re-summed in extended precision.  specfun-eval in the whole box:
    n = 6
    betas, gams, dels = (rng.strata(n, *RESCUE_BETA),
                         rng.strata(n, *RESCUE_GAMMA),
                         rng.strata(n, *RESCUE_DELTA))
    for i in range(n):
        lo, hi = rescue_span()
        add("rescue", _specfun(betas[i], gams[i], dels[i], -hi, -lo, 6))
    for beta in (0.5, 1.0):
        lo, hi = rescue_span()
        add("rescue", _specfun(beta, 1.0, 1.0, -hi, -lo, 6))
    # single-term problems ('single', 'power-closed', 'ml-closed'), then
    # binomial rates with power ('power-closed') and matched Mittag-Leffler
    # ('ml-closed') forcing; the argument is -rate * t^nu
    n = 6
    nus, rates = rng.strata(n, *RESCUE_BETA), rng.strata(n, 0.5, 1.5)
    rhos, gams, dels = (rng.strata(n, 0.5, 2.5), rng.strata(n, 0.5, 2.5),
                        rng.strata(n, 0.5, 1.5))
    for i in range(n):
        nu, a = nus[i], rates[i]
        binomial = i >= 3
        if binomial:
            terms, rate_list = _binomial(2, nu, a)
        else:
            terms, rate_list = [nu], [a]
        forcing = ({"type": "unit"}, {"type": "power", "rho": rhos[i]},
                   {"type": "ml", "nu": nu, "gamma": gams[i],
                    "delta": dels[i], "c": a ** (1.0 / nu)})[i % 3]
        if binomial and i % 3 == 0:
            forcing = {"type": "power", "rho": rhos[i]}
        lo, hi = rescue_span()
        add("rescue", _kinetic("kinetic", 1.0, terms, rate_list, forcing,
                               (lo / a) ** (1.0 / nu), (hi / a) ** (1.0 / nu),
                               6))

    # rescue: verify tables at times up to 5, as `fkin verify` uses; the
    # product-integration stepper meets its 1e-4 only for smooth forcing,
    # so unit and power with rho >= 2
    n = 4
    nus, zmax = rng.strata(n, 0.5, 1.0), rng.strata(n, 2.0, 4.0)
    stops, rhos = rng.strata(n, 3.0, 5.0), rng.strata(n, 2.0, 3.0)
    for i in range(n):
        nu, stop = nus[i], stops[i]
        forcing = ({"type": "unit"} if i % 2 == 0 else
                   {"type": "power", "rho": rhos[i]})
        add("rescue", _kinetic("verify", 1.0, [nu], [zmax[i] / stop ** nu],
                               forcing, stop / 5.0, stop, 5))

    # tail: fixed inputs that fail today (the series gives up well inside
    # its radius); kept so that a fix shows as fewer failed tables
    add("tail", _kinetic("kinetic", 1.0, [0.5], [1.0], {"type": "unit"},
                         100.0, 400.0, 4))
    add("tail", _specfun(0.5, 1.0, 1.0, -20.0, -10.0, 6))
    return out


# The four quadrature problems of fkin.verification.canonical_problems(),
# written out so that the workload does not move with the program.
# Each entry: regime, n0, orders, rates, window of the single time.
_CANONICAL = (
    ("expansion", 2.0, (0.5, 1.0), (1.0, 0.3), (0.45, 0.5)),       # two-term-arithmetic
    ("expansion", 1.0, (0.5, 0.9, 1.6), (0.4, 0.2, 0.1), (0.25, 0.275)),  # three-term-general
    ("pattern", 1.0, (0.5, 1.0), (2.0 * 0.5 ** 0.5, 0.5), (0.95, 1.05)),  # binomial
    ("pattern", 1.0, (0.5, 1.0), (0.5, 0.25), (0.95, 1.05)),       # geometric
)


def _convolution_routes(rng):
    """Quadrature routes (binomial, geometric, arithmetic, multiterm) and
    grid solves; every table has 1-4 times in (0, 2]."""
    out = []
    unit = {"type": "unit"}

    def times(k, lo, hi):
        stop = rng.uniform(lo, hi)
        return (stop / k if k > 1 else stop), stop, k

    for regime, n0, nus, rates, window in _CANONICAL:
        out.append((regime, _kinetic("kinetic", n0, nus, rates, unit,
                                     *times(1, *window))))
    # the unit-forced binomial problem; PowerLaw(1) is the same forcing
    # and would take the closed 'power-closed' route instead
    out.append(("pattern", _kinetic("kinetic", 1.0, (0.5, 1.0),
                                    (2.0 * 0.5 ** 0.5, 0.5), unit,
                                    *times(2, 0.5, 0.55))))

    n = 8
    nus, cs = rng.strata(n, 0.4, 0.7), rng.strata(n, 0.3, 0.8)
    for i in range(n):
        terms, rate_list = _binomial(2 + i % 2, nus[i], cs[i])
        out.append(("pattern", _kinetic("kinetic", 1.0, terms, rate_list,
                                        unit, *times(1 + i % 4, 0.45, 0.5))))
    nus, geo, rhos = (rng.strata(n, 0.4, 0.7), rng.strata(n, 0.3, 0.7),
                      rng.strata(n, 1.0, 2.0))
    for i in range(n):
        terms, rate_list = _geometric(2 + i % 2, nus[i], geo[i])
        forcing = unit if i % 2 == 0 else {"type": "power", "rho": rhos[i]}
        out.append(("pattern", _kinetic("kinetic", 1.0, terms, rate_list,
                                        forcing, *times(1 + i % 4, 1.5, 1.65))))

    n = 4
    nus, a1s, a2s, rhos = (rng.strata(n, 0.4, 0.6), rng.strata(n, 0.5, 1.2),
                           rng.strata(n, 0.1, 0.4), rng.strata(n, 1.0, 2.0))
    for i in range(n):
        forcing = unit if i % 2 == 0 else {"type": "power", "rho": rhos[i]}
        out.append(("expansion", _kinetic(
            "kinetic", 1.0, (nus[i], 2.0 * nus[i]), (a1s[i], a2s[i]), forcing,
            *times(1 + i % 2, 0.3, 0.33))))
    nu1s, nu2s = rng.strata(n, 0.4, 0.6), rng.strata(n, 0.75, 1.0)
    for i in range(n):
        forcing = unit if i % 2 == 1 else {"type": "power", "rho": rhos[i]}
        out.append(("expansion", _kinetic(
            "kinetic", 1.0, (nu1s[i], nu2s[i]), (a1s[i], a2s[i]), forcing,
            *times(1 + i % 2, 0.3, 0.33))))

    # grid: uniform-grid solves at GRID_POINTS_PER_UNIT, FFT convolutions.
    # Orders stay >= 0.55: below 1/2 the grid defect check, a uniform-grid
    # fractional integral of the solution, no longer resolves the origin.
    nus, ends = rng.strata(n, 0.55, 0.7), rng.strata(n, 0.5, 1.0)
    nu2s = rng.strata(n, 0.9, 1.2)
    for i in range(n):
        if i % 2 == 0:
            problem = ((nu2s[i] - 0.2,), (a1s[i],))
        else:
            problem = ((nus[i], nu2s[i]), (a1s[i], a2s[i]))
        config = _kinetic("kinetic", 1.0, *problem, unit, 0.0, ends[i], 2)
        out.append(("grid", config, ends[i]))
    return out


def _diffusion(alpha, diff_coeff, dim, time, start, stop, count):
    return {"schema_version": 1, "mode": "diffusion",
            "problem": {"alpha": alpha, "diff_coeff": diff_coeff, "dim": dim},
            "space_grid": _grid(start, stop, count), "time": time}


def _levy(rho, start, stop, count):
    return {"schema_version": 1, "mode": "levy", "problem": {"rho": rho},
            "time_grid": _grid(start, stop, count)}


def _densities(rng):
    """Fundamental solutions in dimensions 1 and 3 and the stable density,
    in the bulk and in the deep tail."""
    out = []
    n = 12
    for dim in (1, 3):
        alphas = rng.strata(n, *BULK_ALPHA)
        coeffs, ts = rng.strata(n, 0.5, 2.0), rng.strata(n, 0.5, 2.0)
        for i in range(n):
            ell = math.sqrt(coeffs[i]) * ts[i] ** (alphas[i] / 2.0)
            out.append(("bulk", _diffusion(
                alphas[i], coeffs[i], dim, ts[i],
                ell * rng.uniform(0.1, 0.3),
                ell * BULK_LENGTHS * rng.uniform(0.9, 1.0), 8)))
    for rho in rng.strata(19, *BULK_RHO) + [0.5]:
        out.append(("bulk", _levy(rho, rng.uniform(BULK_T[0], 0.4),
                                  rng.uniform(2.5, BULK_T[1]), 16)))
    # tail: seven diffusion tables and two cheaper stable-density tables.
    # With 53 tables, table_p50_ms falls among the cheap bulk tables and
    # table_p90_ms (rank 48) among the diffusion tail tables, each a few
    # tables away from the edge of its cluster.
    alphas = sorted(TAIL_LENGTHS)
    for i in range(7):
        alpha, dim = alphas[i % 2], (1, 3)[(i // 2) % 2]
        lo, hi = TAIL_LENGTHS[alpha]
        coeff, time = rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25)
        ell = math.sqrt(coeff) * time ** (alpha / 2.0)
        out.append(("tail", _diffusion(
            alpha, coeff, dim, time, ell * rng.uniform(lo, lo + 1.0),
            ell * rng.uniform(hi - 1.0, hi), 3)))
    for rho in rng.strata(2, *TAIL_RHO):
        out.append(("tail", _levy(rho, rng.uniform(TAIL_T[0], 0.105),
                                  rng.uniform(0.18, TAIL_T[1]), 3)))
    return out


_GENERATORS = {
    "closed-forms": _closed_forms,
    "convolution-routes": _convolution_routes,
    "densities": _densities,
}


def generate(workload, seed):
    """The table list of ``workload`` for ``seed``; same seed, same list."""
    rng = Draw(workload, seed)
    tables = []
    for i, entry in enumerate(_GENERATORS[workload](rng)):
        regime, config = entry[0], entry[1]
        t_end = entry[2] if len(entry) > 2 else None
        tables.append(Table(f"{workload}/{i:03d}", regime, config, t_end))
    return tables
