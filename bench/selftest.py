"""Fast self-tests of the benchmark: the generator and the references.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test collection.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import references as ref  # noqa: E402
import scipy.special as sc  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = (1, 2, 7, 123)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = wl.generate(workload, 5)
    assert first == wl.generate(workload, 5)
    other = wl.generate(workload, 6)
    assert [t.config for t in first] != [t.config for t in other]
    assert [(t.id, t.regime, t.kind) for t in first] == \
        [(t.id, t.regime, t.kind) for t in other]


def test_tail_tables_do_not_depend_on_the_seed():
    tails = [[t.config for t in wl.generate("closed-forms", s)
              if t.regime == "tail"] for s in SEEDS]
    assert tails[0] and all(t == tails[0] for t in tails)


def _grid_ends(spec):
    return spec["start"], spec["stop"]


def _largest_z(config):
    """Largest |z| of the Mittag-Leffler arguments a closed table needs."""
    if config["mode"] == "specfun-eval":
        return max(abs(v) for v in _grid_ends(config["space_grid"]))
    problem = config["problem"]
    n = len(problem["nus"])
    c_nu = problem["rates"][0] / n
    return c_nu * config["time_grid"]["stop"] ** problem["nus"][0]


def _smallest_z(config):
    if config["mode"] == "specfun-eval":
        return min(abs(v) for v in _grid_ends(config["space_grid"]))
    problem = config["problem"]
    c_nu = problem["rates"][0] / len(problem["nus"])
    return c_nu * config["time_grid"]["start"] ** problem["nus"][0]


# The regime bounds below are the workloads' specification, written out
# again so that a change to the generator's constants shows here.

def _closed_ok(table):
    config = table.config
    if table.regime == "double":
        if config["mode"] == "specfun-eval":
            p = config["problem"]
            family = (p["beta"], p["gamma"]) in ((1.0, 1.0), (0.5, 1.0),
                                                 (2.0, 1.0), (1.0, 2.0))
            shape = family or (0.5 <= p["beta"] <= 1.0 and p["gamma"] >= 1.0)
            return shape and p["delta"] == 1.0 and _largest_z(config) <= 1.5
        forcing = config["problem"]["forcing"]
        return (len(config["problem"]["nus"]) == 1
                and forcing.get("rho", 1.0) >= 1.0
                and _largest_z(config) <= 1.5 * (1 + 1e-12))
    if table.regime == "rescue":
        if config["mode"] == "specfun-eval":
            p = config["problem"]
            box = (0.5 <= p["beta"] <= 1.0 and 0.5 <= p["gamma"] <= 3.0
                   and 1.0 <= p["delta"] <= 3.5)
        else:
            box = 0.5 <= config["problem"]["nus"][0] <= 1.0
        if config["mode"] == "verify":
            return (box and config["time_grid"]["stop"] <= 5.0
                    and 2.0 <= _largest_z(config) <= 4.0 + 1e-9)
        tol = 1e-9
        return (box and _smallest_z(config) >= 2.0 - tol
                and _largest_z(config) <= 7.0 + tol)
    return table.regime == "tail"


def _convolution_ok(table):
    config = table.config
    if table.grid_t_end is not None:
        return (0.0 < table.grid_t_end <= 2.0
                and min(config["problem"]["nus"]) >= 0.55)
    grid = config["time_grid"]
    forcing = config["problem"]["forcing"]
    return (1 <= grid["count"] <= 4 and 0.0 < grid["start"]
            and grid["stop"] <= 2.0 and forcing.get("rho", 1.0) >= 1.0)


def _densities_ok(table):
    config = table.config
    p = config["problem"]
    if config["mode"] == "levy":
        start, stop = _grid_ends(config["time_grid"])
        if table.regime == "bulk":
            return start >= 0.3 and stop <= 3.0
        return p["rho"] >= 0.7 and 0.1 <= start and stop <= 0.2
    ell = math.sqrt(p["diff_coeff"]) * config["time"] ** (p["alpha"] / 2.0)
    start, stop = _grid_ends(config["space_grid"])
    if table.regime == "bulk":
        return (0.4 < p["alpha"] <= 1.0 and 0.0 < start
                and stop <= 4.0 * ell)
    return p["alpha"] in (2.0 / 3.0, 1.0) and stop <= 40.0 * ell


_REGIME_CHECKS = {"closed-forms": _closed_ok,
                  "convolution-routes": _convolution_ok,
                  "densities": _densities_ok}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tables_stay_inside_their_regime(workload, seed):
    outside = [t.id for t in wl.generate(workload, seed)
               if not _REGIME_CHECKS[workload](t)]
    assert not outside


@pytest.mark.parametrize("t", (0.05, 0.1, 0.3, 1.0, 3.0))
def test_stable_references_match_the_half_order_closed_form(t):
    exact = ref.stable_half(t)
    assert abs(ref.stable_kanter(0.5, t) - exact) <= 1e-12 * exact
    if t >= 0.3:    # levy_stable is trusted in the bulk only
        assert abs(ref.stable_levy_stable(0.5, t) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("x", (0.3, 1.0, 2.0, 3.5))
def test_airy_form_matches_the_levy_stable_route_in_the_bulk(x):
    airy = ref.u1_airy(1.2, x, 0.9)
    stable = ref.u1_from_stable(ref.stable_levy_stable, 2.0 / 3.0, 1.2, x, 0.9)
    assert abs(airy - stable) <= 1e-12 * airy


@pytest.mark.parametrize("x", (0.0, 0.5, 2.0, 5.0, 9.0))
def test_erfcx_matches_its_definition(x):
    direct = math.exp(x * x) * math.erfc(x)
    assert abs(float(sc.erfcx(x)) - direct) <= 1e-13 * direct


@pytest.mark.parametrize("x", (0.2, 1.5, 6.0, 30.0))
def test_central_differences_give_the_3d_heat_kernel(x):
    coeff, t = 0.9, 1.1
    exact = (math.exp(-x * x / (4.0 * coeff * t))
             / (4.0 * math.pi * coeff * t) ** 1.5)
    got = ref.u3_from_u1(lambda y: ref.u1_gauss(coeff, y, t), x)
    assert abs(got - exact) <= 1e-9 * exact


_ROUTES = {
    "closed-forms": {"single", "power-closed", "ml-closed"},
    "convolution-routes": {"binomial", "geometric", "arithmetic", "multiterm"},
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(_ROUTES))
def test_kinetic_tables_take_their_workload_routes(workload, seed):
    import fkin
    import fkin.cli

    routes = set()
    for table in wl.generate(workload, seed):
        if (table.config["mode"] in ("kinetic", "verify")
                and table.grid_t_end is None):
            problem = fkin.cli.parse_config(table.config).problem
            routes.add(fkin.select_solver(problem)[0])
    assert routes == _ROUTES[workload]
