"""The benchmark's tracer patches fkin's entry points by name; a renamed
binding must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import fkin
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
