"""Closed-form solvers for unified fractional kinetic equations.

The governing equation is

    N(t) = N0 f(t) - sum_j a_j I^{nu_j} N(t),

with ``I^nu`` the Riemann-Liouville integral, and its Laplace image is
``N0 f~(s) / (1 + sum_j a_j s^{-nu_j})``.  With unit, power-law or matched
Mittag-Leffler forcing every route writes that image as a sum of terms
``C s^-g (1 + k s^-b)^-delta``, each inverted to
``C t^(g-1) E^delta_{b,g}(-k t^b)`` by one engine.  Routes differ only in
how they split the operator: binomial rates give one term, geometric rates
telescope to two, other orders expand in resolvent levels about the
lowest-order term.  Each route is one row of ``_TABLE``, its label and the
plan it hands to that engine.  A pattern row fits only a forcing with a
Prabhakar image against its own plan; the expansion rows take any forcing,
and one without such an image against their base has every term of the
expansion a singular convolution of the forcing.

Where the expansion has levels (two or more orders), every order is at
most 1, every rate is positive and the forcing has a Prabhakar image, the
plan's whole image ``n0 C s^-g (1 + a1 s^-nu1)^-d / (1 + sum_j a_j
s^-nu_j)`` has no pole off the negative real axis, and it is inverted in
one pass on the parabolic contour of :mod:`fkin.specfun`, one row of nodes
per time; that serves the long-time tail, where the level sums lose their
digits.  The level sums take only the times the contour does not certify,
``t = 0``, and the plans it does not fit.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonConvergence, ResourceError
from .fracops import (ConvolutionControls, MLModulator, SampledFunction,
                      laplace_of_interpolant, rl_integral_grid,
                      singular_convolution, singular_convolution_grid,
                      _cells_for)
from .fracops import ddt  # not called here; bench/tracing.py patches it
from .specfun import _contour, _ml_values

__all__ = [
    "Unit",
    "PowerLaw",
    "MLForcing",
    "Sampled",
    "KineticProblem",
    "TruncationPolicy",
    "laplace_domain",
    "solve_multiterm",
    "solve_multiterm_grid",
    "solve_arithmetic",
    "solve_single_term",
    "solve_binomial",
    "solve_geometric",
    "solve_ml_closed",
    "solve_power_closed",
    "binomial_problem",
    "geometric_problem",
    "residual_grid",
    "select_solver",
    "ROUTES",
]

# Relative tolerance used when matching coefficient patterns.
_PATTERN_TOL = 1e-10

# A solution whose terms sum in magnitude past this multiple of its value
# raises NonConvergence: the cancellation would amplify the terms' 1e-13
# relative error past 1e-9 of the value.
_CANCEL_LIMIT = 1e4

# A time stops adding resolvent levels once two in a row move it by less.
_LEVEL_TOL = 1e-13


@dataclass(frozen=True)
class Unit:
    """Constant forcing ``f(t) = 1``."""

    def value(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def transform(self, s):
        return 1.0 / complex(s)


@dataclass(frozen=True)
class PowerLaw:
    """Forcing ``f(t) = t^(rho-1)`` with ``rho > 0``, singular at the
    origin for ``rho < 1``; every route treats it in closed form."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise DomainError("rho must be positive and finite")
        try:
            math.gamma(self.rho)
        except OverflowError:
            raise DomainError("Gamma(rho) overflows a double") from None

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return t ** (self.rho - 1.0)

    def transform(self, s):
        return math.gamma(self.rho) * complex(s) ** (-self.rho)


@dataclass(frozen=True)
class MLForcing:
    """Forcing ``f(t) = t^(gamma_-1) E^delta_{nu, gamma_}(-(c t)^nu)``."""

    nu: float
    gamma_: float
    delta: float
    c: float

    def __post_init__(self):
        if not all(map(math.isfinite,
                       (self.nu, self.gamma_, self.delta, self.c))):
            raise DomainError("nu, gamma_, delta and c must be finite")
        if self.nu <= 0.0 or self.gamma_ <= 0.0:
            raise DomainError("nu and gamma_ must be > 0")
        if self.c < 0.0:
            raise DomainError("c must be >= 0")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        mlpart = _ml_values(self.nu, self.gamma_, self.delta,
                            -(self.c ** self.nu) * t ** self.nu)
        with np.errstate(divide="ignore"):
            return t ** (self.gamma_ - 1.0) * mlpart

    def transform(self, s):
        s = complex(s)
        # written against s^nu + c^nu: its only branch cut lies on the
        # negative real axis, matching the image being inverted
        return (s ** (self.nu * self.delta - self.gamma_)
                * (s ** self.nu + self.c ** self.nu) ** (-self.delta))


@dataclass(frozen=True)
class Sampled:
    """Forcing given by linear interpolation of samples."""

    samples: SampledFunction

    def value(self, t):
        return self.samples(t)

    def transform(self, s):
        return laplace_of_interpolant(self.samples, s)


@dataclass(frozen=True)
class KineticProblem:
    """One kinetic equation: initial amount, orders, rates and forcing.

    ``nus`` and ``rates`` pair up term by term; orders are stored sorted
    ascending and must be distinct and positive.
    """

    n0: float
    nus: tuple
    rates: tuple
    forcing: object

    def __post_init__(self):
        nus = tuple(float(v) for v in np.atleast_1d(np.asarray(self.nus, dtype=float)))
        rates = tuple(float(v) for v in np.atleast_1d(np.asarray(self.rates, dtype=float)))
        if len(nus) == 0 or len(nus) != len(rates):
            raise DomainError("nus and rates must be equal-length and nonempty")
        if any(not math.isfinite(v) or v <= 0.0 for v in nus):
            raise DomainError("every order must be positive and finite")
        if any(not math.isfinite(v) for v in rates):
            raise DomainError("rates must be finite")
        if not math.isfinite(self.n0):
            raise DomainError("n0 must be finite")
        order = np.argsort(nus)
        nus = tuple(nus[i] for i in order)
        rates = tuple(rates[i] for i in order)
        if any(b - a <= 1e-12 * max(1.0, b) for a, b in zip(nus, nus[1:])):
            raise DomainError("orders must be distinct")
        for fn in ("value", "transform"):
            if not callable(getattr(self.forcing, fn, None)):
                raise DomainError("forcing must provide value() and transform()")
        object.__setattr__(self, "nus", nus)
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class TruncationPolicy:
    """Budget for the resolvent level sums of the expansion routes.

    Levels are added until two consecutive ones contribute below 1e-13
    of the running solution; exceeding ``l_max`` raises
    ``NonConvergence``, and a level with more than ``max_compositions``
    distinct kernel exponents raises ``ResourceError`` before it is
    evaluated.  It bounds only the level sums: a time whose whole image
    the contour inverts adds no level.
    """

    l_max: int = 80
    max_compositions: int = 200_000

    def __post_init__(self):
        for name in ("l_max", "max_compositions"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 0):
                raise DomainError(f"{name} must be a nonnegative integer")


def laplace_domain(problem: KineticProblem, s):
    """The Laplace image ``N~(s)`` of the solution, complex-capable."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    if s == 0:
        raise DomainError("the image has a singularity at s = 0")
    denom = 1.0 + sum(a * s ** (-v)
                      for a, v in zip(problem.rates, problem.nus))
    return problem.n0 * complex(problem.forcing.transform(s)) / denom


def _times(ts):
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all((ts >= 0.0) & (ts < math.inf)):
        raise DomainError("times must be finite and nonnegative")
    return ts


def _close(x, want):
    return abs(x - want) <= _PATTERN_TOL * max(1.0, abs(want))


def _kernel(forcing, b, k):
    """The forcing image as ``C s^-g (1 + k s^-b)^-d``: ``(C, g, d)``, or
    None when the forcing has no such image against this base."""
    if isinstance(forcing, Unit):
        return 1.0, 1.0, 0.0
    if isinstance(forcing, PowerLaw):
        return math.gamma(forcing.rho), forcing.rho, 0.0
    if (isinstance(forcing, MLForcing) and _close(forcing.nu, b)
            and _close(forcing.c ** b, k)):
        return 1.0, forcing.gamma_, forcing.delta
    return None


class _Plan(NamedTuple):
    """A route: the operator inverse as ``sum coef s^-p`` over ``numer``
    times ``(1 + k s^-b)^-m``; with ``levels``, the orders past the first
    add resolvent levels, level ``l`` at the power ``m (l + 1)``."""

    b: float
    k: float
    m: int
    numer: tuple = ((1.0, 0.0),)
    levels: bool = False


def _expansion_plan(problem):
    return _Plan(problem.nus[0], problem.rates[0], 1,
                 levels=len(problem.nus) > 1)


def _closed(problem, ts, plan, kern, truncation=None):
    """Evaluate a route plan term by term against the forcing image
    ``kern``: ``C s^-g (1 + k s^-b)^-delta`` inverts to
    ``C t^(g-1) E^delta_{b,g}(-k t^b)`` (Prabhakar 1971)."""
    ts = _times(ts)
    const, g, d = kern
    arg = -plan.k * ts ** plan.b

    def level_sum(pos, level, groups):
        delta = float(plan.m * (level + 1) + d)
        out = None
        mass = 0.0
        for coef, power in plan.numer:
            part = None
            for gamma_r, weight in groups:
                gg = g + power + gamma_r
                ml = _ml_values(plan.b, gg, delta, arg[pos])
                # a term past the double range is raised on by _sum_levels
                with np.errstate(divide="ignore", over="ignore",
                                 invalid="ignore"):
                    head = ts[pos] ** (gg - 1.0)
                    term = problem.n0 * const * coef * weight * head * ml
                out = term if out is None else out + term
                part = term if part is None else part + term
            mass = mass + np.abs(part)
        return out, mass

    return _sum_levels(problem, ts, plan.levels, level_sum, truncation)


def _image_contour(problem, ts, plan, kern):
    """``(values, certified)`` at positive times ``ts`` of a levels plan's
    whole image ``n0 C s^-g (1 + k s^-b)^-d / (1 + sum_j a_j s^-nu_j)``,
    ``kern = (C, g, d)``, by :func:`~fkin.specfun._contour` with one row
    per time: at ``t`` the nodes ``sigma`` stand for ``s = sigma / t``, and
    ``N(t) = (1/(2 pi i)) int e^sigma F(sigma / t) dsigma / t``.  With every
    order at most 1 and every rate positive, each ``a_j s^-nu_j`` has
    negative imaginary part for ``0 < arg s < pi``, so the image has no
    pole off the negative real axis."""
    const, g, d = kern
    log_t = np.log(ts)[:, None]
    scale = problem.n0 * const

    def integrand(sigma, log_sigma):
        log_s = log_sigma - log_t
        denom = 1.0
        for nu, a in zip(problem.nus, problem.rates):
            denom = denom + a * np.exp(-nu * log_s)
        power = sigma - g * log_s - log_t
        if d:
            power = power - d * np.log(1.0 + plan.k * np.exp(-plan.b * log_s))
        return scale * np.exp(power) / denom

    return _contour(integrand)


def _run(problem, ts, plan, controls=None, truncation=None):
    """Run a route plan: in closed form where the forcing has a Prabhakar
    image against it, else by :func:`_quadrature_expansion`.  Pattern
    plans fit only forcings with such an image, so only the expansion
    plan, whose base that expansion shares, ever takes the quadrature.

    A levels plan whose orders are all at most 1 and whose rates are all
    positive inverts its whole image by :func:`_image_contour`; only the
    times it does not certify, and ``t = 0``, take the level sums of
    :func:`_closed`."""
    kern = _kernel(problem.forcing, plan.b, plan.k)
    if kern is None:
        return _quadrature_expansion(problem, ts, controls, truncation)
    if not (plan.levels and problem.nus[-1] <= 1.0
            and min(problem.rates) > 0.0):
        return _closed(problem, ts, plan, kern, truncation)
    ts = _times(ts)
    vals = np.empty_like(ts)
    pending = ts == 0.0
    pos = np.flatnonzero(~pending)
    vals[pos], certified = _image_contour(problem, ts[pos], plan, kern)
    pending[pos] = ~certified
    if np.any(pending):
        vals[pending] = _closed(problem, ts[pending], plan, kern, truncation)
    return vals


def _quadrature_expansion(problem, ts, controls=None, truncation=None,
                          grid=False):
    """The resolvent expansion with every term a singular convolution of
    the forcing: the expansion plan for forcings without a Prabhakar image
    against its base.

    Level 0 is ``f - a1 conv(nu1, 1)`` and level ``l`` sums
    ``coef conv(gamma_r, l + 1)`` over its groups, where ``conv(g, d)``
    convolves the forcing with ``x^(g-1) E^d_{nu1,g}(-a1 x^nu1)``.
    Pointwise, each convolution is a graded-mesh quadrature at each time;
    with ``grid`` the times are a uniform grid from 0 and each convolution
    is one FFT over all of them.
    """
    controls = controls if controls is not None else ConvolutionControls()
    ts = _times(ts)
    nu1 = problem.nus[0]
    a1 = problem.rates[0]
    f = problem.forcing.value
    fs = np.asarray(f(ts), dtype=float)

    def conv(pos, gamma_, delta):
        mod = MLModulator(beta=nu1, gamma_=gamma_, delta=delta, coef=-a1)
        if grid:
            return singular_convolution_grid(fs, ts[1], gamma_ - 1.0, mod,
                                             controls.series)[pos]
        return np.array([singular_convolution(f, t, gamma_ - 1.0, mod,
                                              controls) for t in ts[pos]])

    def level_sum(pos, level, groups):
        if level == 0:
            tail = a1 * conv(pos, nu1, 1.0)
            return (problem.n0 * (fs[pos] - tail),
                    abs(problem.n0) * (np.abs(fs[pos]) + np.abs(tail)))
        terms = [coef * conv(pos, gamma_r, level + 1.0)
                 for gamma_r, coef in groups]
        return (problem.n0 * sum(terms),
                abs(problem.n0) * sum(np.abs(term) for term in terms))

    return _sum_levels(problem, ts, len(problem.nus) > 1, level_sum,
                       truncation)


def _sum_levels(problem, ts, levels, level_sum, truncation):
    """Level zero, then with ``levels`` the resolvent levels at every
    positive time until two in a row move it by under ``_LEVEL_TOL``.

    ``level_sum(pos, level, groups)`` returns a level's value and the
    magnitude it added; ``groups`` pairs each kernel exponent of the level
    with its coefficient.  Each group ``(gamma_r, c)`` of one level times
    each order past the first, ``(nu_j, a_j)``, gives ``(gamma_r + nu_j,
    -c a_j)`` in the next, where equal exponents merge.  A time whose
    summed magnitude passes ``_CANCEL_LIMIT`` times its value raises
    ``NonConvergence``, as does a value past the double range, naming the
    first such time.
    """
    groups = [(0.0, 1.0)]
    vals, mass = level_sum(slice(None), 0, groups)
    policy = truncation if truncation is not None else TruncationPolicy()
    small = np.zeros(ts.shape, dtype=int)
    active = (ts > 0.0) & levels
    for level in range(1, policy.l_max + 1):
        if not np.any(active):
            break
        merged = {}
        for gamma_r, coef in groups:
            for nu, a in zip(problem.nus[1:], problem.rates[1:]):
                key = round(gamma_r + nu, 12)
                gamma_, rest = merged.get(key, (gamma_r + nu, 0.0))
                merged[key] = (gamma_, rest - coef * a)
        if len(merged) > policy.max_compositions:
            raise ResourceError(
                f"level {level} has {len(merged)} kernel exponents, above "
                f"the budget of {policy.max_compositions}")
        groups = list(merged.values())
        pos = np.nonzero(active)[0]
        contrib, added = level_sum(pos, level, groups)
        vals[pos] += contrib
        mass[pos] += added
        tiny = np.abs(contrib) <= _LEVEL_TOL * np.maximum(
            np.abs(vals[pos]), 1e-290)
        small[pos] = np.where(tiny, small[pos] + 1, 0)
        active[pos] = small[pos] < 2
    finite = np.isfinite(vals)
    if not np.all(finite):
        raise NonConvergence(
            f"solution at t={ts[np.argmin(finite)]:g} is beyond the double "
            "range")
    if np.any(active):
        raise NonConvergence(
            f"resolvent expansion still moving after {policy.l_max} levels"
        )
    if np.any(mass > _CANCEL_LIMIT * np.abs(vals)):
        raise NonConvergence(
            f"resolvent terms cancel by more than {_CANCEL_LIMIT:g}: the "
            "sum has lost its digits")
    return vals


def solve_multiterm_grid(problem: KineticProblem, t_end, controls=None,
                         truncation=None):
    """Uniform-grid variant of :func:`solve_multiterm`.

    Returns ``(ts, values)`` on the grid implied by
    ``controls.points_per_unit``.  This is the quadrature expansion with
    every convolution evaluated by FFT over the whole grid, so
    whole-trajectory output is much cheaper than the pointwise route; as
    there, each grid time stops adding levels on its own once two in a
    row move it by under 1e-13 of its value.
    """
    controls = controls if controls is not None else ConvolutionControls()
    if not 0.0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")
    n = _cells_for(t_end, controls)
    ts = t_end / n * np.arange(n + 1)
    return ts, _quadrature_expansion(problem, ts, controls, truncation,
                                     grid=True)


def _arithmetic_plan(problem):
    """Orders ``nu, 2 nu, ...`` take the expansion plan; others None."""
    nu = problem.nus[0]
    for j, v in enumerate(problem.nus):
        if abs(v - (j + 1) * nu) > _PATTERN_TOL * max(1.0, v):
            return None
    return _expansion_plan(problem)


def _binomial_plan(problem):
    """Rates ``C(n, r) c_nu^r`` on orders ``r nu`` make the operator
    ``(1 + c_nu s^-nu)^n``: that plan, or None."""
    if _arithmetic_plan(problem) is None:
        return None
    n = len(problem.nus)
    c_nu = problem.rates[0] / n
    if c_nu <= 0.0:
        return None
    if not all(_close(a, math.comb(n, r) * c_nu ** r)
               for r, a in enumerate(problem.rates, start=1)):
        return None
    return _Plan(problem.nus[0], c_nu, n)


def _geometric_plan(problem):
    """Rates ``a^r`` on orders ``r nu``, ``n >= 2``, telescope to the
    operator inverse ``(1 - a s^-nu) / (1 - a^(n+1) s^-((n+1) nu))``: that
    plan, or None."""
    if _arithmetic_plan(problem) is None:
        return None
    n = len(problem.nus)
    if n < 2:
        return None
    a = problem.rates[0]
    if a == 0.0 or not all(_close(rate, a ** r) for r, rate
                           in enumerate(problem.rates, start=1)):
        return None
    nu = problem.nus[0]
    return _Plan((n + 1.0) * nu, -(a ** (n + 1)), 1,
                 numer=((1.0, 0.0), (-a, nu)))


def _imaged(plan_of, kind=object):
    """A pattern row: the plan of ``plan_of`` where the forcing is a
    ``kind`` with a Prabhakar image against that plan, else None."""
    def fitting(problem):
        plan, f = plan_of(problem), problem.forcing
        if (plan is not None and isinstance(f, kind)
                and _kernel(f, plan.b, plan.k) is not None):
            return plan
        return None
    return fitting


# Every route in select_solver's order of preference: its label, its plan
# (None where the problem does not fit), the refusal it raises when forced
# onto a problem that does not fit, and its docstring.
_TABLE = (
    ("ml-closed", _imaged(_binomial_plan, MLForcing),
     "needs binomial rates and matched Mittag-Leffler forcing",
     """Fully closed solution for binomial rates with matched ML forcing.

    The forcing resolvent and the operator resolvent merge, giving
    ``N0 t^(gamma_-1) E^(delta+n)_{nu, gamma_}(-(c t)^nu)``."""),
    ("power-closed", _imaged(_binomial_plan, PowerLaw),
     "needs binomial rates and power-law forcing",
     """Fully closed solution for binomial rates with power-law forcing:
    ``N0 Gamma(rho) t^(rho-1) E^n_{nu, rho}(-(c t)^nu)``."""),
    ("single", lambda p: _expansion_plan(p) if len(p.nus) == 1 else None,
     "this route needs exactly one term",
     """Solver for one term ``a I^nu``, ``a`` of either sign (the binomial
    plan would need ``a > 0``): the operator inverse ``(1 + a s^-nu)^-1``,
    a pure Mittag-Leffler expression for unit, power-law and matched
    Mittag-Leffler forcings."""),
    ("binomial", _imaged(_binomial_plan),
     "needs binomial rates and a forcing with a Prabhakar image against them",
     """Solver for binomially weighted rates ``C(n, r) c^(nu r)``.

    The full operator is then ``(1 + c^nu I^nu)^n``, so the solution is a
    single Prabhakar term of degree ``n + d``."""),
    ("geometric", _imaged(_geometric_plan),
     "needs geometric rates and a forcing with a Prabhakar image against them",
     """Solver for geometric rates ``a^r`` on orders ``r nu``, ``n >= 2``.

    The geometric sum telescopes, leaving two kernels of order
    ``(n+1) nu`` with argument ``a^(n+1) t^((n+1) nu)``."""),
    ("arithmetic", _arithmetic_plan,
     "orders are not an arithmetic progression j * nu",
     """Solver for orders in arithmetic progression ``nu, 2 nu, ...``.

    The progression admits the same factored expansion as the general
    route, with every kernel exponent a multiple of ``nu``.  With every
    order at most 1, every rate positive and a forcing with a Prabhakar
    image, the whole image is inverted on one contour instead, and only
    the times it does not certify, and ``t = 0``, take the levels."""),
    ("multiterm", _expansion_plan, None,
     """General solver for any number of distinct orders: the resolvent
    expansion about the lowest-order term, level ``l`` a sum of Prabhakar
    terms of degree ``l + 1 + d``, added under ``truncation``.  With two
    or more orders, all at most 1, every rate positive and a forcing with
    a Prabhakar image, the whole image is inverted on one contour instead,
    and only the times it does not certify, and ``t = 0``, take the
    levels.  ``controls`` applies only to forcings without a Prabhakar
    image."""),
)


def _route(label, plan_of, refusal, doc):
    """The solver of one row of ``_TABLE``: its plan through :func:`_run`,
    or ``DomainError(refusal)``."""
    def solve(problem: KineticProblem, ts, controls=None, truncation=None):
        plan = plan_of(problem)
        if plan is None:
            raise DomainError(refusal)
        return _run(problem, ts, plan, controls, truncation)

    solve.__name__ = solve.__qualname__ = "solve_" + label.replace("-", "_")
    solve.__doc__ = doc
    return solve


# Every route by its label, in select_solver's order of preference.
ROUTES = {row[0]: _route(*row) for row in _TABLE}
solve_ml_closed = ROUTES["ml-closed"]
solve_power_closed = ROUTES["power-closed"]
solve_single_term = ROUTES["single"]
solve_binomial = ROUTES["binomial"]
solve_geometric = ROUTES["geometric"]
solve_arithmetic = ROUTES["arithmetic"]
solve_multiterm = ROUTES["multiterm"]


def select_solver(problem: KineticProblem):
    """``(label, solver)`` of the first route in :data:`ROUTES` that fits:
    fully closed forms, then the single-term, binomial, geometric and
    arithmetic routes, then the general expansion, each row's plan found
    once.  The solver takes ``(problem, ts, controls=None,
    truncation=None)`` and runs the plan found here; given another problem,
    it is ``ROUTES[label]``."""
    for label, plan_of, _, _ in _TABLE:
        plan = plan_of(problem)
        if plan is not None:
            break
    route = ROUTES[label]

    def solve(given, ts, controls=None, truncation=None):
        if given is not problem:
            return route(given, ts, controls, truncation)
        return _run(problem, ts, plan, controls, truncation)

    return label, solve


def binomial_problem(n0, n, nu, c, forcing):
    """Problem whose rates are ``C(n, r) c^(nu r)`` on orders ``r nu``."""
    if n < 1 or nu <= 0.0 or c <= 0.0:
        raise DomainError("need n >= 1, nu > 0, c > 0")
    nus = tuple((r + 1) * nu for r in range(n))
    rates = tuple(math.comb(n, r) * c ** (nu * r) for r in range(1, n + 1))
    return KineticProblem(n0=n0, nus=nus, rates=rates, forcing=forcing)


def geometric_problem(n0, n, nu, a, forcing):
    """Problem whose rates are ``a^r`` on orders ``r nu``, ``n >= 2``."""
    if n < 2 or nu <= 0.0 or a == 0.0:
        raise DomainError("need n >= 2, nu > 0, a != 0")
    nus = tuple((r + 1) * nu for r in range(n))
    rates = tuple(a ** r for r in range(1, n + 1))
    return KineticProblem(n0=n0, nus=nus, rates=rates, forcing=forcing)


def residual_grid(problem: KineticProblem, values, dt):
    """Defect of grid values in the governing equation.

    Computes ``N - N0 f + sum_j a_j I^{nu_j} N`` on the uniform grid; a
    correct solution leaves a defect at the level of the quadrature error.
    """
    values = np.asarray(values, dtype=float)
    ts = dt * np.arange(values.size)
    out = values - problem.n0 * np.asarray(problem.forcing.value(ts), float)
    for nu, a in zip(problem.nus, problem.rates):
        out = out + a * rl_integral_grid(values, dt, nu)
    return out
