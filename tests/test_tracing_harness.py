"""The benchmark's tracer patches fkin's entry points by name; a renamed
binding must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import fkin
import fkin.cli
from fkin import ConvolutionControls, KineticProblem, Unit

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them():
    tracing = _load_tracing()
    for module, attr, _ in tracing._ENTRY_POINTS:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, attr
        # a grid solve reaches its route and its convolutions by name
        problem = KineticProblem(1.0, (0.6, 1.0), (0.8, 0.2), Unit())
        fkin.solve_multiterm_grid(problem, 0.25,
                                  ConvolutionControls(points_per_unit=64))
        names = {span[0] for span in tracer.spans}
        assert {"kinetics.route.grid",
                "fracops.singular_convolution_grid"} <= names
    finally:
        tracer.uninstall()
    assert len(saved) >= len(tracing._ENTRY_POINTS)
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, attr


def test_route_labels_match_the_tracer():
    # the tracer reports one time per route label, plus the grid solve
    tracing = _load_tracing()
    assert sorted([*fkin.kinetics.ROUTES, "grid"]) == sorted(tracing.ROUTES)


def test_tracer_counts_extended_precision_work():
    # the tracer counts mpmath.rgamma through the module attribute; a local
    # binding of it in fkin would zero the counters without an error
    tracing = _load_tracing()
    kinetic = {"schema_version": 1, "mode": "kinetic",
               "problem": {"n0": 1.0, "nus": [1.0], "rates": [1.0],
                           "forcing": {"type": "unit"}},
               "time_grid": {"start": 8.0, "stop": 36.0, "count": 5},
               "solver_selector": "auto", "output_path": "kinetic.csv"}
    series = {"schema_version": 1, "mode": "specfun-eval",
              "problem": {"beta": 1.1, "gamma": 1.5, "delta": 3.5},
              "space_grid": {"start": -6.0, "stop": -2.0, "count": 5},
              "output_path": "series.csv"}
    for config in (kinetic, series):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            fkin.cli.execute(fkin.cli.parse_config(config))
        finally:
            tracer.uninstall()
        # every point is rescued in extended precision: exp(-t) at t >= 8
        # fails the contour's certificate, and beta > 1 never takes it
        counted = sum(n for name, n in tracer.counts.items()
                      if name.endswith(".mp_rgamma.calls"))
        assert counted > 0, config["mode"]
        if config is kinetic:
            # the closed route's series runs under a specfun span
            assert tracer.counts["specfun.mp_rgamma.calls"] > 0
