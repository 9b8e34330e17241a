"""What importing fkin loads: the libraries a run does not use stay
unloaded until their first use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each stage prints the watched modules that are loaded after it
_SCRIPT = """
import json, sys

WATCHED = ("scipy.integrate", "scipy.signal", "scipy.optimize", "scipy.fft",
           "mpmath")


def loaded():
    return [name for name in WATCHED if name in sys.modules]


stages = {}
import fkin.cli
stages["import"] = loaded()

import numpy as np
from fkin import (DiffusionProblem, StableParams, fundamental_solution,
                  levy_density)

# densities tables: bulk radii in 1-D and 3-D up to four diffusion
# lengths, bulk and small-time stable densities, and radii past B = 1
for dim in (1, 3):
    fundamental_solution(DiffusionProblem(0.43, 1.66, dim),
                         np.linspace(0.28, 4.58, 8), 0.89)
levy_density(StableParams(0.4), np.linspace(0.36, 2.85, 16))
levy_density(StableParams(0.71), np.linspace(0.1, 0.2, 3))
fundamental_solution(DiffusionProblem(2.0 / 3.0, 0.85, 1),
                     np.linspace(24.8, 37.4, 3), 1.12)
stages["densities"] = loaded()

from fkin import (ConvolutionControls, KineticProblem, Unit, forward_laplace,
                  solve_multiterm_grid, verify_problem)

verify_problem(KineticProblem(1.0, (0.5,), (1.0,), Unit()), [0.5])
stages["verify"] = loaded()

problem = KineticProblem(1.0, (0.5, 1.0), (1.0, 0.3), Unit())
solve_multiterm_grid(problem, 0.25,
                     controls=ConvolutionControls(points_per_unit=64))
stages["run"] = loaded()

forward_laplace(lambda t: 1.0, 2.0)
stages["forward"] = loaded()
print(json.dumps(stages))
"""


def _stages():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_libraries_load_at_their_first_use():
    stages = _stages()
    assert stages["import"] == []
    # the residue series and Kanter's integral run in double precision on
    # numpy alone
    assert stages["densities"] == []
    # the stepper's Toeplitz solve runs on numpy.fft, apart from the
    # solver's scipy.fft grid convolutions
    assert "scipy.fft" not in stages["verify"]
    assert "scipy.fft" in stages["run"]
    # a grid solve and a verification use neither quadrature nor scipy.signal
    assert "scipy.integrate" not in stages["run"]
    assert "scipy.signal" not in stages["run"]
    # the deferred import works where quadrature is used
    assert "scipy.integrate" in stages["forward"]


def test_oracles_import_nothing_from_fracops():
    # the stepper must share no numerical plumbing with the solver
    tree = ast.parse((SRC / "fkin" / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("fracops" in name for name in imported)


def test_verification_binds_the_stepper_by_name():
    # bench/tracing.py wraps the stepper where fkin.verification binds it
    import fkin.oracles
    import fkin.verification

    assert fkin.verification.volterra_solve is fkin.oracles.volterra_solve
