"""Built-in verification suite.

Every check ties a closed-form route to an independent reference: a known
elementary identity, the contour inversion of the exact Laplace image, the
time-stepping solver, or a conservation law.  The checks run with pinned
tolerances and report one pass/fail result each, so a single run answers
whether an installation (or a code change) still reproduces the numbers
the library is supposed to produce.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .diffusion import (
    DiffusionProblem,
    StableParams,
    fundamental_solution,
    levy_density,
)
from .errors import DomainError, FkinError
from .fracops import ConvolutionControls
from .kinetics import (
    KineticProblem,
    MLForcing,
    PowerLaw,
    Unit,
    binomial_problem,
    geometric_problem,
    residual_grid,
    select_solver,
    solve_ml_closed,
    solve_multiterm_grid,
    solve_power_closed,
    _quadrature_expansion,
)
from .oracles import (
    StepperControls,
    forward_laplace,
    invert_laplace,
    laplace_image,
    volterra_solve,
)
from .specfun import MLParams, SeriesControls, ml_one, ml_prabhakar, ml_two

__all__ = [
    "CriterionResult",
    "VerificationReport",
    "canonical_problems",
    "run_all",
    "verify_problem",
]

_SEED = 20260823

# Relative errors are measured against max(|reference|, floor); the floor
# matches the smallest magnitude the contour inversion resolves.
_REL_FLOOR = 1e-12

# Shared comparison grid for the kinetic checks.  Every point is a
# multiple of 1/128 so it lands exactly on all three stepper grids.
_TPTS = (0.125, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0)
_DTS = (1.0 / 128.0, 1.0 / 256.0, 1.0 / 512.0)

TOL_REDUCTION = 1e-12
TOL_PAIR = 1e-6
TOL_CLOSED_VS_INVERSION = 1e-6
TOL_CLOSED_VS_STEPPER = 1e-4
TOL_SPECIAL_CLOSED = 1e-8
TOL_EXP_LIMIT = 1e-10
TOL_GAUSSIAN = 1e-8
TOL_MASS = 1e-6
TOL_STABLE_TRANSFORM = 1e-6
TOL_STABLE_HALF = 1e-8
MIN_ORDER = 1.5
RESIDUAL_FACTOR = 1e-3

# Far-field window for the three-dimensional profile: x * N is required to
# be flat to within 5 percent over [FAR_FIELD_X, 2 * FAR_FIELD_X].  The
# product plateaus as x drops toward zero, so the window sits at small x;
# 0.05 is the largest round value at which the variation stays under the
# limit for alpha = 1/2, t = 1, unit diffusivity.
FAR_FIELD_X = 0.05
FAR_FIELD_VARIATION = 0.05


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one verification criterion."""

    name: str
    passed: bool
    detail: str

    def __str__(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _rel(values, reference):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.abs(values - reference) / np.maximum(np.abs(reference), _REL_FLOOR)


def canonical_problems():
    """The fixed panel of kinetic problems the oracle checks run on.

    One problem per solver route: classical single term, fractional single
    term, two-term arithmetic progression, three incommensurate orders,
    binomial rate pattern, geometric rate pattern.
    """
    u = Unit()
    return (
        ("single-classical",
         KineticProblem(n0=1.0, nus=(1.0,), rates=(1.0,), forcing=u)),
        ("single-half",
         KineticProblem(n0=1.0, nus=(0.5,), rates=(1.0,), forcing=u)),
        ("two-term-arithmetic",
         KineticProblem(n0=2.0, nus=(0.5, 1.0), rates=(1.0, 0.3), forcing=u)),
        ("three-term-general",
         KineticProblem(n0=1.0, nus=(0.5, 0.9, 1.6), rates=(0.4, 0.2, 0.1),
                        forcing=u)),
        ("binomial", binomial_problem(1.0, 2, 0.5, 0.5, u)),
        ("geometric", geometric_problem(1.0, 2, 0.5, 0.5, u)),
    )


def _compare(problem, ts, dts, image_problem=None, truncation=None):
    """The closed solution of ``problem`` at the times ``ts`` against both
    oracles: ``(route, closed, inverted, stepped)``.

    ``inverted`` inverts the image of ``image_problem`` (``problem`` when
    omitted).  ``stepped`` holds one array per step in ``dts``, from one
    stepper run to the first grid point at or past the last time; grid
    times take the grid value, others interpolate linearly.
    """
    route, solver = select_solver(problem)
    closed = solver(problem, ts, truncation=truncation)
    image = laplace_image(problem if image_problem is None else image_problem)
    inverted = np.array([invert_laplace(image, t) for t in ts])
    stepped = []
    for dt in dts:
        n_steps = math.ceil(float(np.max(ts)) / dt)
        grid_ts, grid_vals = volterra_solve(
            problem, StepperControls(dt=dt, t_end=n_steps * dt))
        stepped.append(np.interp(ts, grid_ts, grid_vals))
    return route, closed, inverted, stepped


def _triangle_data(denominator_sign=1.0, truncation=None):
    """Closed / inversion / stepper comparison for the canonical panel.

    Computed once and shared between the oracle-agreement check and the
    stepper-order check; the closed references dominate the cost.
    """
    ts = np.asarray(_TPTS, dtype=float)
    rows = []
    for name, problem in canonical_problems():
        row = {"name": name, "error": None}
        try:
            # the fault, denominator_sign = -1, negates every rate
            image_problem = replace(problem, rates=tuple(
                denominator_sign * a for a in problem.rates))
            row["route"], closed, inverted, stepped = _compare(
                problem, ts, _DTS, image_problem, truncation)
            row["inversion_rel"] = float(np.max(_rel(inverted, closed)))
            rels = [float(np.max(_rel(s, closed))) for s in stepped]
            row["stepper_rels"] = rels
            row["order"] = float(np.polyfit(np.log(_DTS), np.log(rels),
                                            1)[0])
        except FkinError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def check_ml_reductions():
    """Parameter reductions of the three-parameter Mittag-Leffler function
    against elementary closed forms (and ``erfcx``), on 200 random points
    per identity."""
    rng = np.random.default_rng(_SEED)
    worst = {}

    # down to e^-50, where the series cancels by 42 digits; e^z has no
    # zero, so the error is relative to it alone, without the 1e-12 floor
    zs = rng.uniform(-50.0, 25.0, 200)
    vals = np.array([ml_one(1.0, z) for z in zs])
    refs = np.exp(zs)
    worst["exp"] = float(np.max(np.abs(vals - refs) / refs))

    zs = rng.uniform(-25.0, 25.0, 200)
    refs = np.array([math.expm1(z) / z if z != 0.0 else 1.0 for z in zs])
    vals = np.array([ml_two(1.0, 2.0, z) for z in zs])
    worst["expm1"] = float(np.max(_rel(vals, refs)))

    zs = rng.uniform(0.0, 40.0, 200)
    refs = np.cosh(np.sqrt(zs))
    vals = np.array([
        ml_prabhakar(MLParams(beta=2.0, gamma_=1.0, delta=1.0, z=z))
        for z in zs])
    worst["cosh"] = float(np.max(_rel(vals, refs)))

    # small beta makes the series long, so the chain draws stay above 1/2
    # and carry an enlarged term budget
    budget = SeriesControls(max_terms=4000)
    chain = 0.0
    for _ in range(200):
        b = rng.uniform(0.5, 2.0)
        g = rng.uniform(0.5, 3.0)
        z = rng.uniform(-10.0, 10.0)
        full = ml_prabhakar(MLParams(beta=b, gamma_=g, delta=1.0, z=z),
                            budget)
        chain = max(chain, float(_rel(ml_two(b, g, z, budget), full)))
        chain = max(chain, float(_rel(
            ml_two(b, 1.0, z, budget), ml_one(b, z, budget))))
    worst["chain"] = chain

    # E_(1/2)(z) = erfcx(-z) over every decade of z in [-1e3, -1e-3]: the
    # double series, its rescue and, past the series radius, the contour
    import scipy.special as _sc

    zs = -(10.0 ** rng.uniform(-3.0, 3.0, 200))
    vals = np.array([ml_one(0.5, z) for z in zs])
    worst["erfcx"] = float(np.max(_rel(vals, _sc.erfcx(-zs))))

    bad = max(worst.values())
    detail = ("worst rel " + ", ".join(f"{k} {v:.2e}"
                                       for k, v in worst.items())
              + f"; tolerance {TOL_REDUCTION:.0e}")
    return CriterionResult("ml-reductions", bad <= TOL_REDUCTION, detail)


def check_laplace_pair():
    """Contour inversion of the algebraic image ``s^-g (1 + s^-b)^-d``
    against its known original ``t^(g-1) E^d_{b,g}(-t^b)``.

    Errors are measured against the largest reference magnitude of each
    parameter triple: the panel contains a true zero of the pair (g = b =
    1, d = 2 at t = 1), where a pointwise relative error is undefined.
    """
    worst = 0.0
    ts = (0.25, 1.0, 4.0)
    for gamma_ in (0.5, 1.0, 1.5):
        for beta_ in (0.5, 1.0, 1.5):
            for delta in (1.0, 2.0):

                def image(s, _b=beta_, _g=gamma_, _d=delta):
                    return s ** (-_g) * (1.0 + s ** (-_b)) ** (-_d)

                refs = np.array([
                    t ** (gamma_ - 1.0) * ml_prabhakar(
                        MLParams(beta=beta_, gamma_=gamma_, delta=delta,
                                 z=-(t ** beta_)))
                    for t in ts])
                got = np.array([invert_laplace(image, t) for t in ts])
                scale = max(float(np.max(np.abs(refs))), _REL_FLOOR)
                worst = max(worst,
                            float(np.max(np.abs(got - refs))) / scale)
    detail = (f"worst scale-relative error {worst:.2e} over 18 parameter "
              f"triples x 3 times; tolerance {TOL_PAIR:.0e}")
    return CriterionResult("laplace-pair", worst <= TOL_PAIR, detail)


def check_closed_vs_oracles(data=None):
    """Closed solutions against both oracles on the canonical panel:
    contour inversion of the exact image, and the time stepper."""
    data = data if data is not None else _triangle_data()
    failures = []
    w_inv = w_stp = 0.0
    for row in data:
        if row["error"] is not None:
            failures.append(f"{row['name']}: {row['error']}")
            continue
        w_inv = max(w_inv, row["inversion_rel"])
        w_stp = max(w_stp, row["stepper_rels"][-1])
        if not row["inversion_rel"] <= TOL_CLOSED_VS_INVERSION:
            failures.append(f"{row['name']}: inversion rel "
                            f"{row['inversion_rel']:.2e}")
        if not row["stepper_rels"][-1] <= TOL_CLOSED_VS_STEPPER:
            failures.append(f"{row['name']}: stepper rel "
                            f"{row['stepper_rels'][-1]:.2e}")
    if failures:
        return CriterionResult("closed-vs-oracles", False,
                               "; ".join(failures))
    detail = (f"worst inversion rel {w_inv:.2e} (tolerance "
              f"{TOL_CLOSED_VS_INVERSION:.0e}), worst stepper rel "
              f"{w_stp:.2e} (tolerance {TOL_CLOSED_VS_STEPPER:.0e}) "
              f"over {len(data)} problems")
    return CriterionResult("closed-vs-oracles", True, detail)


def check_closed_specializations():
    """The fully closed binomial-rate solutions against the quadrature
    expansion, which shares no Prabhakar term with them, and the
    classical exponential limit."""
    ts = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    worst = 0.0
    for solver, forcing in (
            (solve_ml_closed, MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.5)),
            (solve_power_closed, PowerLaw(rho=1.0)),
            (solve_power_closed, PowerLaw(rho=2.0))):
        problem = binomial_problem(1.0, 2, 0.5, 0.5, forcing)
        worst = max(worst, float(np.max(_rel(
            solver(problem, ts), _quadrature_expansion(problem, ts)))))

    classical = binomial_problem(1.0, 1, 1.0, 1.7, PowerLaw(rho=1.0))
    exp_rel = float(np.max(_rel(solve_power_closed(classical, ts),
                                np.exp(-1.7 * ts))))

    ok = worst <= TOL_SPECIAL_CLOSED and exp_rel <= TOL_EXP_LIMIT
    detail = (f"closed vs quadrature rel {worst:.2e} (tolerance "
              f"{TOL_SPECIAL_CLOSED:.0e}); exponential limit rel "
              f"{exp_rel:.2e} (tolerance {TOL_EXP_LIMIT:.0e})")
    return CriterionResult("closed-specializations", ok, detail)


def check_gaussian_limit():
    """The fundamental solution at unit temporal order against the heat
    kernel, across diffusivities and times."""
    worst = 0.0
    for dcoef in (0.5, 1.0, 2.0):
        problem = DiffusionProblem(alpha=1.0, diff_coeff=dcoef, dim=1)
        for t in (0.5, 1.0, 2.0):
            span = 6.0 * math.sqrt(dcoef * t)
            for x in np.linspace(0.0, span, 40):
                ref = (math.exp(-x * x / (4.0 * dcoef * t))
                       / math.sqrt(4.0 * math.pi * dcoef * t))
                worst = max(worst, float(_rel(
                    fundamental_solution(problem, x, t), ref)))
    detail = (f"worst rel {worst:.2e} over D in (0.5, 1, 2), t in "
              f"(0.5, 1, 2), |x| <= 6 sqrt(D t); tolerance "
              f"{TOL_GAUSSIAN:.0e}")
    return CriterionResult("gaussian-limit", worst <= TOL_GAUSSIAN, detail)


def check_mass_conservation():
    """Unit mass of the one-dimensional profile at fractional orders."""
    import scipy.integrate as _si

    worst = 0.0
    for alpha in (0.5, 0.75):
        problem = DiffusionProblem(alpha=alpha, diff_coeff=1.0, dim=1)
        for t in (0.5, 1.0, 2.0):
            ell = t ** (alpha / 2.0)

            def profile(x, _p=problem, _t=t):
                return fundamental_solution(_p, x, _t)

            head, _ = _si.quad(profile, 0.0, 6.0 * ell,
                               epsabs=1e-13, epsrel=1e-13, limit=200)
            tail, _ = _si.quad(profile, 6.0 * ell, 20.0 * ell,
                               epsabs=1e-13, epsrel=1e-13, limit=200)
            worst = max(worst, abs(2.0 * (head + tail) - 1.0))
    detail = (f"worst |mass - 1| {worst:.2e} over alpha in (0.5, 0.75), "
              f"t in (0.5, 1, 2); tolerance {TOL_MASS:.0e}")
    return CriterionResult("mass-conservation", worst <= TOL_MASS, detail)


def check_far_field_decay():
    """Reciprocal-distance shape of the three-dimensional profile: the
    product ``x N(x, t)`` must be flat near the origin."""
    problem = DiffusionProblem(alpha=0.5, diff_coeff=1.0, dim=3)
    xs = np.linspace(FAR_FIELD_X, 2.0 * FAR_FIELD_X, 21)
    prods = np.array([x * fundamental_solution(problem, x, 1.0) for x in xs])
    variation = float((prods.max() - prods.min()) / prods.mean())
    detail = (f"x N varies {100.0 * variation:.2f}% over "
              f"[{FAR_FIELD_X}, {2.0 * FAR_FIELD_X}] at alpha=0.5, t=1 "
              f"(limit {100.0 * FAR_FIELD_VARIATION:.0f}%)")
    return CriterionResult("far-field-decay",
                           variation < FAR_FIELD_VARIATION, detail)


def check_stable_density():
    """The one-sided stable density against its defining transform
    ``exp(-u^rho)``, plus the closed form at rho = 1/2."""
    worst_t = 0.0
    for rho in (0.25, 0.5, 0.75):
        params = StableParams(rho=rho)
        lam = (1.0 - rho) * rho ** (rho / (1.0 - rho))
        # below this point the saddle bound keeps the density under
        # e^-120, so the head contributes nothing at the quadrature
        # tolerance; skipping it spares the quadrature hundreds of
        # extended-precision evaluations of a numerical zero
        t_floor = (lam / 120.0) ** ((1.0 - rho) / rho)

        def density(t, _p=params, _f=t_floor):
            return levy_density(_p, t) if t > _f else 0.0

        for u in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            got = forward_laplace(density, u, abs_tol=1e-9, rel_tol=1e-9)
            worst_t = max(worst_t, float(_rel(got, math.exp(-u ** rho))))

    half = StableParams(rho=0.5)
    ts = np.linspace(0.2, 5.0, 30)
    refs = ts ** -1.5 * np.exp(-1.0 / (4.0 * ts)) / (2.0 * math.sqrt(math.pi))
    vals = np.array([levy_density(half, t) for t in ts])
    worst_h = float(np.max(_rel(vals, refs)))

    ok = worst_t <= TOL_STABLE_TRANSFORM and worst_h <= TOL_STABLE_HALF
    detail = (f"transform rel {worst_t:.2e} (tolerance "
              f"{TOL_STABLE_TRANSFORM:.0e}); rho=1/2 closed form rel "
              f"{worst_h:.2e} (tolerance {TOL_STABLE_HALF:.0e})")
    return CriterionResult("stable-density", ok, detail)


def check_stepper_order(data=None):
    """Measured convergence order of the time stepper on the canonical
    panel, from errors on three successively halved grids."""
    data = data if data is not None else _triangle_data()
    failures = []
    orders = []
    for row in data:
        if row["error"] is not None:
            failures.append(f"{row['name']}: {row['error']}")
            continue
        orders.append(row["order"])
        if row["order"] < MIN_ORDER:
            failures.append(f"{row['name']}: order {row['order']:.3f}")
    if failures:
        return CriterionResult("stepper-order", False, "; ".join(failures))
    detail = (f"orders {', '.join(f'{o:.2f}' for o in orders)} across dt "
              f"1/128..1/512; required >= {MIN_ORDER}")
    return CriterionResult("stepper-order", True, detail)


def check_residual_defect(truncation=None):
    """Defect of the grid solutions in the governing equation, and its
    decrease under mesh refinement."""
    failures = []
    worst = 0.0
    for name, problem in canonical_problems():
        defects = []
        try:
            for ppu in (512, 1024):
                controls = ConvolutionControls(points_per_unit=ppu)
                ts, vals = solve_multiterm_grid(problem, 2.0,
                                                controls=controls,
                                                truncation=truncation)
                defect = residual_grid(problem, vals, ts[1] - ts[0])
                defects.append(float(np.max(np.abs(defect))
                                     / np.max(np.abs(vals))))
        except FkinError as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        worst = max(worst, defects[0])
        if defects[0] > RESIDUAL_FACTOR:
            failures.append(f"{name}: defect {defects[0]:.2e} of scale")
        if not defects[1] < defects[0]:
            failures.append(f"{name}: defect not decreasing "
                            f"({defects[0]:.2e} -> {defects[1]:.2e})")
    if failures:
        return CriterionResult("residual-defect", False, "; ".join(failures))
    detail = (f"worst defect {worst:.2e} of solution scale at 512 cells "
              f"per unit (limit {RESIDUAL_FACTOR:.0e}), decreasing at "
              f"1024")
    return CriterionResult("residual-defect", True, detail)


def run_all(filter=None, denominator_sign=1.0, truncation=None):
    """Run the verification criteria and collect their results.

    ``filter`` keeps only criteria whose name contains the given
    substring.  ``denominator_sign`` and ``truncation`` are fault
    injection hooks: flipping the sign corrupts the Laplace image used by
    the inversion oracle, and a zero-level truncation policy cripples the
    resolvent expansion; both must be caught by the affected criteria.
    """
    # built on first use, so a run without the panel criteria skips it
    panel = functools.cache(
        lambda: _triangle_data(denominator_sign, truncation))
    criteria = (
        ("ml-reductions", check_ml_reductions),
        ("laplace-pair", check_laplace_pair),
        ("closed-vs-oracles", lambda: check_closed_vs_oracles(panel())),
        ("closed-specializations", check_closed_specializations),
        ("gaussian-limit", check_gaussian_limit),
        ("mass-conservation", check_mass_conservation),
        ("far-field-decay", check_far_field_decay),
        ("stable-density", check_stable_density),
        ("stepper-order", lambda: check_stepper_order(panel())),
        ("residual-defect", lambda: check_residual_defect(truncation)),
    )
    results = []
    for name, check in criteria:
        if filter is not None and filter not in name:
            continue
        try:
            results.append(check())
        except FkinError as exc:
            results.append(CriterionResult(
                name, False, f"{type(exc).__name__}: {exc}"))
    return results


@dataclass(frozen=True)
class VerificationReport:
    """Pointwise comparison of one problem's closed solution against both
    oracles, ready to be written out as a table."""

    route: str
    ts: np.ndarray
    closed: np.ndarray
    inverted: np.ndarray
    inverted_rel: np.ndarray
    stepped: np.ndarray
    stepped_rel: np.ndarray

    def rows(self):
        """Column header followed by one row of floats per time point.

        The closed solution is the ``value`` column, matching the plain
        solution tables; the oracle columns follow it.
        """
        header = ("t", "value", "inverted", "inverted_rel_err",
                  "stepped", "stepped_rel_err")
        body = [
            (float(t), float(c), float(i), float(ir), float(s), float(sr))
            for t, c, i, ir, s, sr in zip(
                self.ts, self.closed, self.inverted, self.inverted_rel,
                self.stepped, self.stepped_rel)
        ]
        return header, body


def verify_problem(problem, ts, dt=1.0 / 512.0):
    """Compare the closed solution of ``problem`` with both oracles at the
    strictly positive times ``ts``.

    Off-grid times take linearly interpolated stepper values; the O(dt^2)
    interpolation error sits below the stepper's own accuracy.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0 or not np.all((ts > 0.0) & np.isfinite(ts)):
        raise DomainError("verification times must be positive and finite")
    if not 0.0 < dt < math.inf:
        raise DomainError("dt must be positive and finite")
    route, closed, inverted, (stepped,) = _compare(problem, ts, (dt,))
    return VerificationReport(
        route=route,
        ts=ts,
        closed=closed,
        inverted=inverted,
        inverted_rel=_rel(inverted, closed),
        stepped=stepped,
        stepped_rel=_rel(stepped, closed),
    )
