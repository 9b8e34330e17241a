"""Kinetic equation solvers: closed routes, specialization lattice, residual."""

import math

import numpy as np
import pytest
import scipy.special as sc

import fkin
from fkin.errors import DomainError, NonConvergence, ResourceError
from fkin.kinetics import (_TABLE, ROUTES, KineticProblem, MLForcing,
                           PowerLaw, Sampled, TruncationPolicy, Unit,
                           _quadrature_expansion, _sum_levels,
                           binomial_problem, geometric_problem,
                           laplace_domain, residual_grid, select_solver,
                           solve_arithmetic, solve_binomial, solve_geometric,
                           solve_ml_closed, solve_multiterm,
                           solve_multiterm_grid, solve_power_closed,
                           solve_single_term)
from fkin.fracops import ConvolutionControls, SampledFunction
from fkin.oracles import (StepperControls, forward_laplace, invert_laplace,
                          volterra_solve)

TS = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def max_rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


class TestLaplaceDomain:
    def test_single_unit(self):
        v = laplace_domain(KineticProblem(1, (1.0,), (1.0,), Unit()), 2.0)
        assert abs(v - 1.0 / 3.0) < 1e-14

    def test_two_term_power_forcing(self):
        p = KineticProblem(1, (0.5, 1.0), (1.0, 2.0), PowerLaw(1.0))
        assert abs(laplace_domain(p, 1.0) - 0.25) < 1e-14

    def test_initial_amount_scales_image(self):
        p1 = KineticProblem(1, (0.5,), (0.7,), Unit())
        p3 = KineticProblem(3, (0.5,), (0.7,), Unit())
        assert laplace_domain(p3, 1.3) == 3.0 * laplace_domain(p1, 1.3)

    def test_complex_argument(self):
        p = KineticProblem(1, (1.0,), (1.0,), Unit())
        s = 1.0 + 2.0j
        assert abs(laplace_domain(p, s) - 1.0 / (s + 1.0)) < 1e-14

    @pytest.mark.parametrize("s", [math.nan, complex(1.0, math.nan),
                                   math.inf])
    def test_non_finite_argument_rejected(self, s):
        p = KineticProblem(1, (0.5,), (1.0,), Unit())
        with pytest.raises(DomainError):
            laplace_domain(p, s)


class TestForcings:
    def test_power_law_time_and_image(self):
        f = PowerLaw(2.0)
        assert f.value(2.0) == 2.0
        assert abs(f.transform(3.0) - 1.0 / 9.0) < 1e-15

    def test_ml_transform_matches_quadrature(self):
        f = MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.5)
        for s in (0.8, 2.0):
            num = forward_laplace(f.value, s, head_power=f.gamma_ - 1.0)
            assert abs(complex(f.transform(s)) - num) < 1e-9 * abs(num)

    def test_sampled_image_matches_unit(self):
        grid = np.linspace(0.0, 40.0, 4001)
        f = Sampled(SampledFunction(grid, np.ones_like(grid)))
        got = laplace_domain(KineticProblem(1, (1.0,), (1.0,), f), 2.0)
        assert abs(got - 1.0 / 3.0) < 1e-12


def level_groups(problem, levels):
    """The ``(exponent, coefficient)`` groups of resolvent levels 1 to
    ``levels``, as the level loop hands them to its level sums."""
    seen = []

    def record(pos, level, groups):
        seen.append(sorted(groups))
        return np.ones(1), np.ones(1)

    # every level moves the sum by one, so the loop runs out of levels
    with pytest.raises(NonConvergence):
        _sum_levels(problem, np.array([1.0]), True, record,
                    TruncationPolicy(l_max=levels))
    return seen[1:]


class TestLevels:
    def test_commensurate_exponents_merge(self):
        # (0.5 s^-1 + 0.25 s^-1.5)^l expanded by hand: the two paths to
        # the exponent 2.5 merge at level 2
        p = KineticProblem(1, (0.5, 1.0, 1.5), (1.0, 0.5, 0.25), Unit())
        want = [
            [(1.0, -0.5), (1.5, -0.25)],
            [(2.0, 0.25), (2.5, 0.25), (3.0, 0.0625)],
            [(3.0, -0.125), (3.5, -0.1875), (4.0, -0.09375),
             (4.5, -0.015625)],
        ]
        assert level_groups(p, 3) == want

    def test_coefficients_sum_to_power(self):
        # setting s = 1 in (-sum_j a_j s^-nu_j)^l
        rates = (1.0, 0.3, 0.7, 0.2)
        p = KineticProblem(1, (0.3, 0.71, 1.13, 1.9), rates, Unit())
        for level, groups in enumerate(level_groups(p, 6), start=1):
            want = (-sum(rates[1:])) ** level
            total = sum(coef for _, coef in groups)
            assert abs(total - want) < 1e-14 * abs(want)

    def test_exponent_budget(self):
        # four incommensurate orders past the first have 56 exponents at
        # level 5
        p = KineticProblem(1, (0.3, 0.71, 1.13, 1.57, 1.9),
                           (1.0, 0.1, 0.1, 0.1, 0.1), Unit())
        with pytest.raises(ResourceError):
            solve_multiterm(p, np.array([2.0]),
                            truncation=TruncationPolicy(max_compositions=50))
        # commensurate orders share exponents: 2l + 1 of them at level l,
        # against (l + 1)(l + 2)/2 compositions
        p = KineticProblem(1, (0.5, 1.0, 1.5, 2.0), (1.0, 0.3, 0.3, 0.3),
                           Unit())
        ts = np.array([0.25])
        got = solve_multiterm(p, ts,
                              truncation=TruncationPolicy(max_compositions=20))
        assert got[0] == solve_multiterm(p, ts)[0]


class TestClassicalLimits:
    def test_single_term_is_exponential(self):
        p = KineticProblem(1, (1.0,), (1.0,), Unit())
        assert max_rel(solve_single_term(p, TS), np.exp(-TS)) < 1e-12

    def test_rate_and_amount(self):
        p = KineticProblem(2.5, (1.0,), (1.7,), Unit())
        assert max_rel(solve_single_term(p, TS), 2.5 * np.exp(-1.7 * TS)) < 1e-10

    def test_repeated_root_value(self):
        # second-order equation with a double classical root:
        # N(t) = n0 e^{-t}(1 - t), printed reference 0.3032653299 at t=1/2
        p = binomial_problem(1, 2, 1.0, 1.0, Unit())
        got = solve_binomial(p, np.array([0.5]))[0]
        assert abs(got - 0.5 * math.exp(-0.5)) < 1e-8
        assert abs(got - 0.3032653299) < 1e-9

    def test_repeated_root_curve(self):
        p = binomial_problem(1, 2, 1.0, 1.0, Unit())
        ref = np.exp(-TS) * (1.0 - TS)
        got = solve_binomial(p, TS)
        assert float(np.max(np.abs(got - ref))) < 1e-8

    def test_half_order_long_times(self):
        # N(t) = E_(1/2)(-t^(1/2)) = erfcx(t^(1/2)); at t = 1e4 the argument
        # lies past the series radius
        p = KineticProblem(1, (0.5,), (1.0,), Unit())
        ts = np.array([100.0, 400.0, 1e4])
        assert max_rel(solve_single_term(p, ts), sc.erfcx(np.sqrt(ts))) < 1e-14

    def test_power_forcing_classical(self):
        # rho=2, nu=1, rate 1: image 1/(s(s+1)) inverts to 1 - e^{-t}
        p = KineticProblem(1, (1.0,), (1.0,), PowerLaw(2.0))
        ref = 1.0 - np.exp(-TS)
        assert max_rel(solve_power_closed(p, TS), ref) < 1e-10

    @pytest.mark.parametrize("p, at_one", [
        (KineticProblem(1, (1.0,), (1.0,), PowerLaw(150.0)),
         0.9933771948686473),
        (KineticProblem(1, (0.5, 1.0), (1.0, 0.25), PowerLaw(170.0)),
         0.9274440475356611),
    ])
    def test_value_past_the_double_range_raises(self, p, at_one):
        # Gamma(rho) t^(rho-1) overflows at t = 10, where the solution is
        # about t^(rho-1) > 1e149; at t = 1 it is a double
        label, solver = select_solver(p)
        assert label == "power-closed"
        assert solver(p, np.array([1.0])).tolist() == [at_one]
        with pytest.raises(NonConvergence,
                           match=r"at t=10 is beyond the double range"):
            solver(p, np.array([1.0, 10.0]))


class TestRouteAgreement:
    def test_binomial_vs_multiterm(self):
        p = binomial_problem(1, 2, 0.5, 0.5, Unit())
        assert max_rel(solve_binomial(p, TS), solve_multiterm(p, TS)) < 1e-8

    def test_geometric_vs_multiterm(self):
        p = geometric_problem(1, 2, 0.5, 0.5, Unit())
        assert max_rel(solve_geometric(p, TS), solve_multiterm(p, TS)) < 1e-8

    def test_geometric_three_levels(self):
        p = geometric_problem(1, 3, 0.4, 0.6, Unit())
        assert max_rel(solve_geometric(p, TS), solve_multiterm(p, TS)) < 1e-8

    def test_geometric_cancellation_is_caught(self):
        # the telescoped form's two terms cancel by 7.4e5 at t = 20 and by
        # 2.7e7 at t = 40, which leaves their sum 1e-8 off there
        p = geometric_problem(1, 3, 0.4, 0.6, Unit())
        for t in (20.0, 40.0):
            with pytest.raises(NonConvergence):
                solve_geometric(p, np.array([t]))
        got = solve_geometric(p, np.array([5.0]))
        assert max_rel(got, solve_multiterm(p, np.array([5.0]))) < 1e-8

    def test_arithmetic_vs_multiterm(self):
        p = KineticProblem(2, (0.5, 1.0), (1.0, 0.3), Unit())
        assert max_rel(solve_arithmetic(p, TS), solve_multiterm(p, TS)) < 1e-10

    def test_matched_ml_forcing_collapses(self):
        # forcing built from the same binomial denominator cancels it,
        # leaving a pure power-kernel solution
        p = binomial_problem(1, 2, 0.5, 0.5,
                             MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.5))
        assert max_rel(solve_ml_closed(p, TS),
                       _quadrature_expansion(p, TS)) < 1e-8

    def test_power_closed_vs_quadrature(self):
        p = KineticProblem(1, (0.5,), (1.0,), PowerLaw(2.0))
        assert max_rel(solve_power_closed(p, TS),
                       _quadrature_expansion(p, TS)) < 1e-8

    def test_grid_matches_pointwise(self):
        p = KineticProblem(2, (0.5, 1.0), (1.0, 0.3), Unit())
        ts, vals = solve_multiterm_grid(p, 2.0)
        sub = slice(0, None, 200)
        assert max_rel(vals[sub], solve_multiterm(p, ts[sub])) < 1e-12


class TestQuadratureRoute:
    """A forcing without a Prabhakar image against the expansion base
    makes the single, arithmetic and multiterm routes take the quadrature
    expansion; the pattern routes refuse a forcing without an image
    against their own plan."""

    # samples of t on [0, 8]: the forcing equals PowerLaw(2) there
    GRID = np.linspace(0.0, 8.0, 33)
    RAMP = Sampled(SampledFunction(GRID, GRID.copy()))

    @staticmethod
    def stepped(problem, ts):
        dt = 1.0 / 512.0
        _, vals = volterra_solve(problem, StepperControls(dt=dt,
                                                          t_end=ts[-1]))
        return vals[np.rint(ts / dt).astype(int)]

    @pytest.mark.parametrize("nus, rates, route", [
        ((0.5,), (1.0,), "single"),
        ((0.5, 1.0), (1.0, 0.3), "arithmetic"),
    ], ids=["one-term", "two-term"])
    def test_sampled_ramp(self, nus, rates, route):
        p = KineticProblem(1, nus, rates, self.RAMP)
        name, solver = select_solver(p)
        assert name == route
        got = solver(p, TS)
        closed = KineticProblem(1, nus, rates, PowerLaw(2.0))
        assert max_rel(got, select_solver(closed)[1](closed, TS)) < 1e-10
        assert max_rel(got, self.stepped(p, TS)) < 1e-4

    def test_cancellation_is_caught(self):
        # constant forcing, exact solution e^-t: at t = 20 the level terms
        # sum in magnitude to 6.0e8 times the value, and what their
        # difference leaves is 3.3e-9 against 2.06e-9
        flat = Sampled(SampledFunction(self.GRID, np.ones_like(self.GRID)))
        p = KineticProblem(1, (1.0,), (1.0,), flat)
        with pytest.raises(NonConvergence):
            solve_single_term(p, np.array([20.0]))
        got = solve_single_term(p, np.array([5.0]))
        assert max_rel(got, np.exp(-5.0)) < 1e-12

    def test_unmatched_ml_forcing(self):
        # the forcing's c^nu = 1/2 differs from both the base c_nu = 2^(-1/2)
        # of the binomial rates and the expansion base a1 = 2^(1/2); each
        # time point costs about 0.4 s
        p = binomial_problem(1, 2, 0.5, 0.5,
                             MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.25))
        name, solver = select_solver(p)
        assert name == "arithmetic"
        ts = TS[:3]
        assert max_rel(solver(p, ts), self.stepped(p, ts)) < 1e-4

    def test_ml_forcing_matched_to_the_expansion(self, monkeypatch):
        # binomial rates with base c_nu = 1/2, and a forcing matched to the
        # expansion base (nu1, a1) = (1/2, 1): the arithmetic route's plan
        # takes it in closed form
        p = KineticProblem(1, (0.5, 1.0), (1.0, 0.25),
                           MLForcing(0.5, 1.5, 1.0, 1.0))
        ts = TS[:4]

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form takes no quadrature")

        monkeypatch.setattr(fkin.kinetics, "singular_convolution", refuse)
        want = ROUTES["arithmetic"](p, ts)
        name, solver = select_solver(p)
        assert name == "arithmetic"
        got = solver(p, ts)
        assert got.tolist() == want.tolist()
        talbot = [invert_laplace(lambda s: laplace_domain(p, s), t)
                  for t in ts]
        assert max_rel(got, talbot) < 1e-6

    @pytest.mark.parametrize("label, make", [
        ("binomial", binomial_problem), ("geometric", geometric_problem)])
    @pytest.mark.parametrize("forcing", [
        RAMP, MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.25)],
        ids=["ramp", "unmatched-ml"])
    def test_pattern_route_refuses_forcing_without_image(self, label, make,
                                                         forcing):
        refusal = {row[0]: row[2] for row in _TABLE}[label]
        assert select_solver(make(1, 2, 0.5, 0.5, Unit()))[0] == label
        with pytest.raises(DomainError) as err:
            ROUTES[label](make(1, 2, 0.5, 0.5, forcing), TS)
        assert str(err.value) == refusal


class TestStructure:
    def test_problem_normalizes_order(self):
        a = KineticProblem(1, (1.0, 0.5), (0.3, 1.0), Unit())
        b = KineticProblem(1, (0.5, 1.0), (1.0, 0.3), Unit())
        assert a.nus == b.nus and a.rates == b.rates
        assert np.allclose(solve_multiterm(a, TS), solve_multiterm(b, TS))

    def test_initial_value(self):
        for p in (KineticProblem(1, (0.5,), (1.0,), Unit()),
                  KineticProblem(4.0, (1.0,), (2.0,), Unit())):
            got = solve_single_term(p, np.array([0.0]))[0]
            assert abs(got - p.n0) < 1e-12

    def test_amount_linearity_exact(self):
        base = KineticProblem(1, (0.5, 1.0), (1.0, 0.3), Unit())
        scaled = KineticProblem(3.7, (0.5, 1.0), (1.0, 0.3), Unit())
        assert np.allclose(solve_multiterm(scaled, TS),
                           3.7 * solve_multiterm(base, TS), rtol=1e-13)

    def test_vanishing_rate_recovers_forcing(self):
        # the solution tends to n0 f(t) as the rate goes to zero
        p = geometric_problem(1, 2, 0.5, 1e-6, Unit())
        got = solve_geometric(p, np.array([0.5, 2.0]))
        assert float(np.max(np.abs(got - 1.0))) < 5e-6

    def test_selector_routes(self):
        cases = [
            (KineticProblem(1, (1.0,), (1.0,), Unit()), "single"),
            (KineticProblem(1, (0.5,), (1.0,), Unit()), "single"),
            (binomial_problem(1, 2, 0.5, 0.5, Unit()), "binomial"),
            (geometric_problem(1, 2, 0.5, 0.5, Unit()), "geometric"),
            (KineticProblem(2, (0.5, 1.0), (1.0, 0.3), Unit()), "arithmetic"),
            (KineticProblem(1, (0.5, 0.9, 1.6), (0.4, 0.2, 0.1), Unit()),
             "multiterm"),
            (binomial_problem(1, 2, 0.5, 0.5,
                              MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.5)),
             "ml-closed"),
            (KineticProblem(1, (0.5,), (1.0,), PowerLaw(2.0)), "power-closed"),
        ]
        for problem, expected in cases:
            name, solver = select_solver(problem)
            assert name == expected
            vals = solver(problem, np.array([1.0]))
            assert np.all(np.isfinite(vals))


def test_residual_shrinks_with_mesh():
    p = KineticProblem(2, (0.5, 1.0), (1.0, 0.3), Unit())
    from fkin.fracops import ConvolutionControls
    defects = []
    for ppu in (128, 256):
        ts, vals = solve_multiterm_grid(
            p, 2.0, controls=ConvolutionControls(points_per_unit=ppu))
        res = residual_grid(p, vals, float(ts[1] - ts[0]))
        defects.append(float(np.max(np.abs(res)) / np.max(np.abs(vals))))
    assert defects[1] < defects[0] < 5e-3


@pytest.mark.parametrize("bad", [
    lambda: KineticProblem(1, (0.0,), (1.0,), Unit()),
    lambda: KineticProblem(1, (0.5, 0.5), (1.0, 1.0), Unit()),
    lambda: KineticProblem(1, (0.5,), (math.inf,), Unit()),
    lambda: KineticProblem(1, (0.5, 1.0), (1.0,), Unit()),
    lambda: KineticProblem(math.nan, (0.5,), (1.0,), Unit()),
    lambda: PowerLaw(0.0),
    lambda: MLForcing(0.5, 2.0, 1.5, -0.5),
    lambda: binomial_problem(1, 0, 0.5, 0.5, Unit()),
    lambda: geometric_problem(1, 2, 0.5, 0.0, Unit()),
    lambda: TruncationPolicy(l_max=-1),
    # non-finite forcing parameters would otherwise give NaN or zero rows
    lambda: PowerLaw(math.inf),
    lambda: PowerLaw(math.nan),
    lambda: MLForcing(0.5, math.inf, 1.0, 0.5),
    lambda: MLForcing(math.nan, 2.0, 1.5, 0.5),
    lambda: MLForcing(0.5, 2.0, 1.5, math.inf),
    # a fractional budget ran into a TypeError in the level loop
    lambda: TruncationPolicy(l_max=math.nan),
    lambda: TruncationPolicy(l_max=2.5),
    lambda: TruncationPolicy(max_compositions=2.5),
    # Gamma(rho) overflows a double
    lambda: PowerLaw(172.0),
])
def test_problem_validation(bad):
    with pytest.raises(DomainError):
        bad()


def test_negative_times_rejected():
    p = KineticProblem(1, (0.5,), (1.0,), Unit())
    with pytest.raises(DomainError):
        solve_single_term(p, np.array([-1.0]))
    # non-finite times are rejected before any series runs
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            solve_single_term(p, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            solve_multiterm_grid(p, bad)


# one problem each route fits, and select_solver gives to it
_FITTING = {
    "ml-closed": binomial_problem(
        1, 2, 0.5, 0.5, MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.5)),
    "power-closed": binomial_problem(1, 2, 0.5, 0.5, PowerLaw(2.0)),
    "single": KineticProblem(1, (0.5,), (-0.3,), Unit()),
    "binomial": binomial_problem(1, 2, 0.5, 0.5, Unit()),
    "geometric": geometric_problem(1, 2, 0.5, 0.5, Unit()),
    "arithmetic": KineticProblem(2, (0.5, 1.0), (1.0, 0.3), Unit()),
    "multiterm": KineticProblem(1, (0.5, 0.9, 1.6), (0.4, 0.2, 0.1), Unit()),
}


class TestRouteTable:
    """Every route is one row of one table: one signature, one order of
    preference, and the public names are its entries."""

    @pytest.mark.parametrize("label", list(ROUTES))
    def test_every_route_takes_controls_and_truncation(self, label):
        problem = _FITTING[label]
        assert select_solver(problem)[0] == label
        solver = ROUTES[label]
        got = solver(problem, TS, controls=ConvolutionControls(),
                      truncation=TruncationPolicy())
        assert got.tolist() == solver(problem, TS).tolist()

    @pytest.mark.parametrize("label, make", [
        ("arithmetic", binomial_problem), ("multiterm", geometric_problem)])
    def test_forced_route_obeys_truncation(self, label, make):
        # a sampled forcing has no Prabhakar image, so the forced expansion
        # route takes the quadrature expansion, whose levels the policy
        # bounds
        ramp = Sampled(SampledFunction(np.linspace(0.0, 2.0, 9),
                                       np.linspace(0.0, 2.0, 9)))
        problem = make(1, 2, 0.5, 0.5, ramp)
        with pytest.raises(NonConvergence):
            ROUTES[label](problem, np.array([0.5]),
                          truncation=TruncationPolicy(l_max=0))

    def test_public_names_are_the_table(self):
        for name in fkin.__all__:
            assert getattr(fkin, name) is not None, name
        public = {label: "solve_" + label.replace("-", "_")
                  for label in ROUTES}
        public["single"] = "solve_single_term"
        for label, name in public.items():
            assert name in fkin.__all__
            assert getattr(fkin, name) is ROUTES[label]

    @pytest.mark.parametrize("label", list(ROUTES))
    def test_selected_solver_runs_the_selected_plan(self, label,
                                                    monkeypatch):
        problem = _FITTING[label]
        want = ROUTES[label](problem, TS)
        name, solver = select_solver(problem)
        assert name == label

        def again(*args, **kwargs):
            raise AssertionError("the selected plan was evaluated again")

        monkeypatch.setattr(fkin.kinetics, "_Plan", again)
        assert solver(problem, TS).tolist() == want.tolist()

    @pytest.mark.parametrize("problem, first", [
        (binomial_problem(1, 2, 0.5, 0.5, PowerLaw(1.5)), "power-closed"),
        (binomial_problem(1, 1, 0.5, 0.5,
                          MLForcing(nu=0.5, gamma_=2.0, delta=1.5, c=0.5)),
         "ml-closed"),
        (KineticProblem(1, (0.5,), (1.0,), Unit()), "single"),
        (KineticProblem(1, (0.5,), (-0.3,), Unit()), "single"),
        (geometric_problem(1, 3, 0.5, 0.5, Unit()), "geometric"),
    ], ids=["power-binomial", "ml-one-term", "one-term", "negative-rate",
            "geometric"])
    def test_first_fitting_route_wins(self, problem, first):
        def fits(label):
            try:
                ROUTES[label](problem, np.array([1.0]))
            except DomainError:
                return False
            return True

        fitting = [label for label in ROUTES if fits(label)]
        assert len(fitting) > 1 and fitting[0] == first
        assert select_solver(problem)[0] == first
