"""Point-source diffusion densities and the one-sided stable density."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sc

from fkin import diffusion
from fkin.diffusion import (DiffusionProblem, StableParams, asymptotic_n2,
                            fundamental_solution, levy_density, series_n1,
                            series_n3)
from fkin.errors import DomainError, NonConvergence, NotSupported
from fkin.specfun import _EPS, _GUARD_FACTOR, _GUARD_REL

# frozen from independent 120-digit term-by-term summations of the
# residue series, arguments promoted as exact doubles
DEEP_DIM1 = 1.5595540802478901e-09     # alpha=0.9, D=1, x=10, t=1
DEEP_DIM3 = 3.151566913922336e-05      # alpha=0.6, D=1, x=6, t=1
MID_DIM1 = 0.19166770828534177         # alpha=0.5, D=1, x=1, t=1
MID_DIM3 = 0.024852423879502757        # alpha=0.5, D=1, x=1, t=1
SERIES1_HALF_AT_1 = 0.3833354165706835
SERIES3_HALF_AT_1 = 0.3123047691349817
SERIES1_RESCUE = 3.1191081604957803e-09  # alpha=0.9, A=100
LEVY_34_AT_1 = 0.45494890769270696
LEVY_34_AT_25 = 0.06732003219496925
LEVY_13_AT_15 = 0.08422868063437805


def rel(got, ref):
    return abs(got - ref) / max(abs(ref), 1e-300)


class TestSeriesFactors:
    def test_frozen_values(self):
        assert rel(series_n1(0.5, 1.0), SERIES1_HALF_AT_1) < 1e-13
        assert rel(series_n3(0.5, 1.0), SERIES3_HALF_AT_1) < 1e-13

    def test_origin_value(self):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            ref = 1.0 / math.gamma(1.0 - alpha / 2.0)
            assert rel(series_n1(alpha, 0.0), ref) < 1e-13

    def test_deep_argument_rescue(self):
        assert rel(series_n1(0.9, 100.0), SERIES1_RESCUE) < 1e-12

    def test_classical_collapses_to_gaussian(self):
        # alpha=1 zeroes every second coefficient through the gamma
        # poles, leaving exp(-A/4)/sqrt(pi)
        for A in (0.25, 1.0, 4.0):
            ref = math.exp(-A / 4.0) / math.sqrt(math.pi)
            assert rel(series_n1(1.0, A), ref) < 1e-13

    def test_radius_guard(self):
        with pytest.raises(NonConvergence):
            series_n1(0.5, 5000.0)
        with pytest.raises(NonConvergence):
            series_n3(0.5, 5000.0)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            series_n1(0.0, 1.0)
        with pytest.raises(DomainError):
            series_n1(0.5, -1.0)
        with pytest.raises(DomainError):
            series_n3(1.0, 1.0)
        with pytest.raises(DomainError):
            series_n3(0.5, 0.0)


class TestOneDimension:
    def test_classical_point_values(self):
        p = DiffusionProblem(1.0, 1.0, 1)
        got0 = fundamental_solution(p, 0.0, 1.0)
        assert rel(got0, 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
        assert abs(got0 - 0.2820947918) < 1e-9
        got2 = fundamental_solution(p, 2.0, 1.0)
        assert rel(got2, math.exp(-1.0) / (2.0 * math.sqrt(math.pi))) < 1e-12
        assert abs(got2 - 0.1037768744) < 1e-9

    def test_half_order_origin(self):
        p = DiffusionProblem(0.5, 1.0, 1)
        got = fundamental_solution(p, 0.0, 1.0)
        assert rel(got, 0.5 / math.gamma(0.75)) < 1e-12

    def test_underflowing_radius_is_the_origin(self):
        # at x = 1e-170, B = x^2/(4 D t^alpha) underflows to zero; the
        # terms past the origin value are B^(1/2) of it and less
        for alpha, d, t in ((0.5, 1.0, 1.0), (0.05, 2.0, 0.5),
                            (1.0, 0.5, 3.0)):
            p = DiffusionProblem(alpha, d, 1)
            origin = fundamental_solution(p, 0.0, t)
            assert origin == pytest.approx(
                1.0 / (2.0 * math.sqrt(d) * t ** (alpha / 2.0)
                       * math.gamma(1.0 - alpha / 2.0)), rel=1e-14)
            assert fundamental_solution(p, 1e-170, t) == origin
            assert rel(fundamental_solution(p, 1e-150, t), origin) < 1e-13

    def test_frozen_interior_value(self):
        p = DiffusionProblem(0.5, 1.0, 1)
        assert rel(fundamental_solution(p, 1.0, 1.0), MID_DIM1) < 1e-12

    def test_frozen_deep_tail(self):
        p = DiffusionProblem(0.9, 1.0, 1)
        assert rel(fundamental_solution(p, 10.0, 1.0), DEEP_DIM1) < 1e-12

    def test_matches_explicit_series_route(self):
        # the contour two-sum and the explicit one-dimensional series are
        # independent arrangements of the same function
        for alpha, d, x, t in ((0.5, 1.0, 1.0, 1.0), (0.7, 2.0, 0.5, 0.8),
                               (0.9, 0.5, 2.0, 2.0)):
            p = DiffusionProblem(alpha, d, 1)
            got = fundamental_solution(p, x, t)
            A = x * x / (d * t ** alpha)
            ref = series_n1(alpha, A) / (2.0 * math.sqrt(d) * t ** (alpha / 2.0))
            assert rel(got, ref) < 1e-10

    def test_self_similarity(self):
        p = DiffusionProblem(0.6, 1.0, 1)
        s = 4.0
        for x in (0.3, 1.0, 2.5):
            a = fundamental_solution(p, x * s ** 0.3, s)
            b = fundamental_solution(p, x, 1.0)
            assert rel(a * s ** 0.3, b) < 1e-10

    def test_mass_is_conserved(self):
        p = DiffusionProblem(0.6, 1.0, 1)
        t = 1.0
        ell = t ** 0.3
        near, _ = si.quad(lambda x: fundamental_solution(p, x, t), 0.0,
                          6.0 * ell, epsabs=1e-12, epsrel=1e-12, limit=300)
        far, _ = si.quad(lambda x: fundamental_solution(p, x, t), 6.0 * ell,
                         20.0 * ell, epsabs=1e-12, epsrel=1e-12, limit=300)
        assert abs(2.0 * (near + far) - 1.0) < 1e-6


class TestThreeDimensions:
    def test_frozen_interior_value(self):
        p = DiffusionProblem(0.5, 1.0, 3)
        assert rel(fundamental_solution(p, 1.0, 1.0), MID_DIM3) < 1e-12

    def test_frozen_deep_tail(self):
        p = DiffusionProblem(0.6, 1.0, 3)
        assert rel(fundamental_solution(p, 6.0, 1.0), DEEP_DIM3) < 1e-12

    def test_matches_explicit_series_route(self):
        for alpha, d, x, t in ((0.5, 1.0, 1.0, 1.0), (0.7, 2.0, 0.5, 0.8)):
            p = DiffusionProblem(alpha, d, 3)
            got = fundamental_solution(p, x, t)
            A = x * x / (d * t ** alpha)
            ref = series_n3(alpha, A) / (4.0 * math.pi * d ** 1.5
                                         * t ** (1.5 * alpha) * math.sqrt(A))
            assert rel(got, ref) < 1e-10

    def test_origin_diverges(self):
        with pytest.raises(DomainError):
            fundamental_solution(DiffusionProblem(0.5, 1.0, 3), 0.0, 1.0)

    def test_reciprocal_distance_near_the_origin(self):
        # the planar heat kernel's 1/(4 pi D tau) integrated against the
        # subordinator density at tau = 0 gives the leading term
        # 1/(4 pi D t^alpha Gamma(1-alpha) x); at alpha = 1 the origin value
        # of the heat kernel, (4 pi D t)^(-3/2).  Past x = 1e-103 the
        # prefactor (sqrt(pi) x)^-3 leaves the double range, and at
        # x = 1e-170 B underflows too
        for alpha, d, t in ((0.5, 1.0, 1.0), (0.05, 2.0, 0.5),
                            (0.95, 0.5, 3.0)):
            p = DiffusionProblem(alpha, d, 3)
            for x in (1e-150, 1e-170):
                lead = 1.0 / (4.0 * math.pi * d * t ** alpha
                              * math.gamma(1.0 - alpha) * x)
                assert rel(fundamental_solution(p, x, t), lead) < 1e-13
        p = DiffusionProblem(1.0, 0.5, 3)
        for x in (1e-150, 1e-170):
            assert rel(fundamental_solution(p, x, 3.0),
                       (4.0 * math.pi * 0.5 * 3.0) ** -1.5) < 1e-13
        # a value past the double range (about 1e319 and 1e449) is a typed
        # failure that says so
        for d, x in ((1.0, 1e-320), (1e-300, 1.4e-150)):
            with pytest.raises(NonConvergence, match="double range"):
                fundamental_solution(DiffusionProblem(0.5, d, 3), x, 1.0)

    def test_values_at_the_edges_of_the_double_range(self):
        # near overflow some residue terms pass 1.8e308 while the value,
        # about 9.4e307 or 1.7e308, does not; near underflow the value is
        # subnormal and is rounded into the double range once
        for alpha, d, x in ((0.05, 1e-206, 5e-104), (0.05, 1e-206, 1e-103),
                            (0.95, 2.5e-207, 4e-104)):
            ref = _mp_residue_solution(alpha, 3, x, 4.0 * d)
            assert rel(fundamental_solution(DiffusionProblem(alpha, d, 3),
                                            x, 1.0), ref) < 1e-14
        for d in (1e205, 1e210):
            x = 0.5 * math.sqrt(d)
            ref = _mp_residue_solution(0.5, 3, x, 4.0 * d)
            assert ref < 2.3e-308
            got = fundamental_solution(DiffusionProblem(0.5, d, 3), x, 1.0)
            assert abs(got - ref) <= 5e-324


def _planar_projection(alpha, r, t):
    """The planar solution as the projection of the 3-D one along an axis,
    ``u2(r) = 2 integral_0^inf u3(sqrt(r^2 + z^2)) dz``; ``z = r sinh s``
    takes the ``1/R`` singularity of ``u3`` out of the integrand."""
    p3 = DiffusionProblem(alpha, 1.0, 3)

    def integrand(s):
        big_r = r * math.cosh(s)
        return fundamental_solution(p3, big_r, t) * big_r

    val, _ = si.quad(integrand, 0.0, math.acosh(24.0 / r), epsabs=0.0,
                     epsrel=1e-13, limit=200)
    return 2.0 * val


class TestTwoDimensions:
    # the projection's log slope at r = 1e-4 stands in for the planar
    # coefficient; it agrees with 1/(2 pi Gamma(1-alpha) t^alpha) to 2e-8

    def test_logarithmic_value(self):
        r = 1e-4
        slope = (_planar_projection(0.5, r / 2.0, 1.0)
                 - _planar_projection(0.5, r, 1.0)) / math.log(2.0)
        assert rel(asymptotic_n2(0.5, 0.1, 1.0), math.log(10.0) * slope) < 1e-6

    def test_boundary_is_zero(self):
        for alpha, t in ((0.5, 1.0), (0.7, 2.0)):
            assert asymptotic_n2(alpha, t ** (alpha / 2.0), t) == 0.0

    def test_halving_step(self):
        # halving r adds the same amount to the asymptote and to the
        # projection of the three-dimensional solution
        r = 1e-4
        for alpha, t in ((0.3, 1.5), (0.7, 0.8)):
            step = asymptotic_n2(alpha, r / 2.0, t) - asymptotic_n2(alpha, r, t)
            ref = (_planar_projection(alpha, r / 2.0, t)
                   - _planar_projection(alpha, r, t))
            assert rel(step, ref) < 1e-6

    def test_classical_limit_unsupported(self):
        # no certified planar route at any order
        for alpha in (0.5, 1.0):
            with pytest.raises(NotSupported):
                fundamental_solution(DiffusionProblem(alpha, 1.0, 2), 0.5, 1.0)

    def test_beyond_diffusion_length_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_n2(0.5, 2.0, 1.0)


class TestStableDensity:
    def test_half_index_closed_form(self):
        sp = StableParams(0.5)
        for t in (0.3, 1.0, 2.7):
            ref = t ** -1.5 * math.exp(-0.25 / t) / (2.0 * math.sqrt(math.pi))
            assert rel(levy_density(sp, t), ref) < 1e-10
        assert rel(levy_density(sp, 1.0), 0.21969564473386122) < 1e-12

    def test_frozen_values(self):
        assert rel(levy_density(StableParams(0.75), 1.0), LEVY_34_AT_1) < 1e-12
        assert rel(levy_density(StableParams(0.75), 2.5), LEVY_34_AT_25) < 1e-12
        assert rel(levy_density(StableParams(1.0 / 3.0), 1.5),
                   LEVY_13_AT_15) < 1e-12

    def test_small_time_underflow_shortcut(self):
        # below the steepest-descent floor the density is under e^-640
        assert levy_density(StableParams(0.75), 0.01) == 0.0

    def test_tiny_times_stay_typed(self):
        # t^(-rho/(1-rho)) overflows a double at rho=0.95, t=1e-20, far
        # below the underflow floor
        assert levy_density(StableParams(0.95), 1e-20) == 0.0
        # at rho=0.002 the density itself exceeds the double range
        with pytest.raises(NonConvergence):
            levy_density(StableParams(0.002), 5e-324)
        # at rho=0.001 the series converges cleanly, but its sum over t
        # overflows
        with pytest.raises(NonConvergence):
            levy_density(StableParams(0.001), 5e-324)

    def test_nonnegative(self):
        for rho in (0.3, 0.5, 0.8):
            sp = StableParams(rho)
            for t in np.logspace(-1.0, 2.0, 40):
                assert levy_density(sp, float(t)) >= 0.0

    def test_unit_mass(self):
        # quadrature to T plus term-by-term integrated tail
        rho = 0.75
        sp = StableParams(rho)
        T = 2.0
        head, _ = si.quad(lambda t: levy_density(sp, t), 0.0, T,
                          epsabs=1e-11, epsrel=1e-11, limit=300)
        tail = 0.0
        for k in range(1, 60):
            tail += ((-1.0) ** k * sc.rgamma(-rho * k) * T ** (-rho * k)
                     / (math.factorial(k) * rho * k))
        assert abs(head + tail - 1.0) < 1e-7

    def test_index_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                StableParams(bad)
        with pytest.raises(DomainError):
            levy_density(StableParams(0.5), 0.0)


@pytest.mark.parametrize("bad", [
    lambda: DiffusionProblem(0.0, 1.0, 1),
    lambda: DiffusionProblem(1.5, 1.0, 1),
    lambda: DiffusionProblem(0.5, 0.0, 1),
    lambda: DiffusionProblem(0.5, 1.0, 4),
    lambda: fundamental_solution(DiffusionProblem(0.5, 1.0, 1), 1.0, 0.0),
    lambda: fundamental_solution(DiffusionProblem(0.5, 1.0, 1), -1.0, 1.0),
    # non-finite times and radii are rejected before any series runs
    lambda: fundamental_solution(DiffusionProblem(0.5, 1.0, 1), math.nan, 1.0),
    lambda: fundamental_solution(DiffusionProblem(0.5, 1.0, 3), math.inf, 1.0),
    lambda: fundamental_solution(DiffusionProblem(0.5, 1.0, 1), 1.0, math.nan),
    lambda: fundamental_solution(DiffusionProblem(0.5, 1.0, 1), 1.0, math.inf),
    lambda: levy_density(StableParams(0.5), math.nan),
    lambda: levy_density(StableParams(0.5), math.inf),
    lambda: asymptotic_n2(0.5, math.nan, 1.0),
    lambda: asymptotic_n2(0.5, 0.5, math.inf),
])
def test_problem_validation(bad):
    with pytest.raises(DomainError):
        bad()


def test_far_tail_rejected_beyond_radius():
    with pytest.raises(NonConvergence):
        fundamental_solution(DiffusionProblem(0.5, 1.0, 1), 70.0, 1.0)


class TestKanterRoute:
    """Past B = x^2/(4 D t^alpha) = 1 the one- and three-dimensional
    solutions, and the stable density wherever its series fails its
    guard, come from Kanter's integral; these references share no code
    with it."""

    def test_half_index_closed_form_at_small_times(self):
        sp = StableParams(0.5)
        for t in (0.02, 0.05, 0.1):
            ref = t ** -1.5 * math.exp(-0.25 / t) / (2.0 * math.sqrt(math.pi))
            assert rel(levy_density(sp, t), ref) < 1e-13

    @pytest.mark.parametrize("dim", [1, 3])
    def test_classical_heat_kernel(self, dim):
        d, t = 0.7, 1.3
        p = DiffusionProblem(1.0, d, dim)
        for lengths in (2.5, 5.0, 10.0, 15.0, 20.0, 30.0):
            x = lengths * math.sqrt(d * t)
            ref = math.exp(-x * x / (4.0 * d * t)) \
                / (4.0 * math.pi * d * t) ** (dim / 2.0)
            assert rel(fundamental_solution(p, x, t), ref) < 1e-12

    def test_airy_form_at_two_thirds(self):
        # M_{1/3}(r) = 3^(2/3) Ai(r / 3^(1/3)), u1 = M_{1/3}(x/ell) / (2 ell)
        d, t = 0.6, 1.7
        ell = math.sqrt(d) * t ** (1.0 / 3.0)
        p = DiffusionProblem(2.0 / 3.0, d, 1)
        for r in (3.0, 10.0, 20.0, 40.0):
            ref = 3.0 ** (2.0 / 3.0) * float(sc.airy(r / 3.0 ** (1.0 / 3.0))[0]) \
                / (2.0 * ell)
            assert rel(fundamental_solution(p, r * ell, t), ref) < 1e-12

    @pytest.mark.parametrize("dim", [1, 3])
    def test_matches_explicit_series_across_switch(self, dim):
        d, t = 1.3, 0.9
        for alpha in (0.4, 0.7, 0.9):
            p = DiffusionProblem(alpha, d, dim)
            bulk = (0.1, 0.5, 1.0)
            for B in bulk + (1.5, 4.0, 9.0, 15.0, 16.5, 25.0):
                x = math.sqrt(4.0 * B * d * t ** alpha)
                A = 4.0 * B
                if dim == 1:
                    ref = series_n1(alpha, A) / (2.0 * math.sqrt(d)
                                                 * t ** (alpha / 2.0))
                else:
                    ref = series_n3(alpha, A) / (4.0 * math.pi * d ** 1.5
                                                 * t ** (1.5 * alpha)
                                                 * math.sqrt(A))
                got = fundamental_solution(p, x, t)
                assert rel(got, ref) < 1e-12
                if B in bulk:
                    # the bulk residue sum against the integral it never
                    # uses there
                    kanter = diffusion._kanter_solution(
                        alpha, dim, d, np.array([x]), t)[0]
                    assert rel(got, kanter) < 1e-12

    @pytest.mark.parametrize("dim", [1, 3])
    def test_certified_across_the_tail(self, dim):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            p = DiffusionProblem(alpha, 1.0, dim)
            values = [fundamental_solution(p, 2.0 * math.sqrt(B), 1.0)
                      for B in np.geomspace(1.0 + 1e-9, 1024.0, 30)]
            assert all(math.isfinite(v) and v >= 0.0 for v in values)
            assert values[0] > 0.0
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_stable_density_certified_where_series_fails(self, monkeypatch):
        # Kanter points, the entries of the array calls
        calls = []
        moments = diffusion._kanter_moments

        def counted(rho, c, log_scale):
            calls.extend([rho] * c.size)
            return moments(rho, c, log_scale)

        monkeypatch.setattr(diffusion, "_kanter_moments", counted)
        for rho in np.round(np.arange(0.05, 0.96, 0.05), 2):
            sp = StableParams(float(rho))
            lam = (1.0 - rho) * rho ** (rho / (1.0 - rho))
            # c = t^(-rho/(1-rho)) from 2 to the underflow shortcut
            for c in np.geomspace(2.0, 670.0 / lam, 30):
                t = float(c ** (-(1.0 - rho) / rho))
                v = levy_density(sp, t)
                assert math.isfinite(v) and v >= 0.0
            assert calls.count(rho) >= 3

    def test_starved_rule_is_caught(self, monkeypatch):
        monkeypatch.setattr(diffusion, "_KANTER_NODES", 2)
        with pytest.raises(NonConvergence):
            fundamental_solution(DiffusionProblem(0.9, 1.0, 1), 10.0, 1.0)
        with pytest.raises(NonConvergence):
            fundamental_solution(DiffusionProblem(0.6, 1.0, 3), 20.0, 1.0)
        with pytest.raises(NonConvergence):
            levy_density(StableParams(0.75), 0.08)
        # a call with several starved Kanter points among series points
        # raises the text of its first Kanter point called alone
        calls = [
            (lambda v: fundamental_solution(DiffusionProblem(0.9, 1.0, 1),
                                            v, 1.0), [1.0, 12.0, 0.5, 10.0]),
            (lambda v: fundamental_solution(DiffusionProblem(0.6, 1.0, 3),
                                            v, 1.0), [0.3, 25.0, 1.5, 20.0]),
            (lambda v: levy_density(StableParams(0.75), v),
             [2.0, 0.09, 1.0, 0.08]),
        ]
        for call, points in calls:
            with pytest.raises(NonConvergence) as alone:
                call(points[1])
            with pytest.raises(NonConvergence) as joint:
                call(np.array(points))
            assert str(joint.value) == str(alone.value)
            assert str(alone.value) != str(pytest.raises(
                NonConvergence, call, points[3]).value)


def _mp_residue_solution(alpha, dim, x, scale=4.0):
    """The solution at ``4 D t^alpha = scale`` (D = t = 1 by default) from
    the double pole-residue series, summed term by term in mpmath at 60
    digits until three terms in a row fall below 1e-80 of the largest of
    their family, ``alpha``, ``x`` and ``scale`` promoted as exact
    doubles."""
    with mp.workdps(60):
        a, xm = mp.mpf(alpha), mp.mpf(x)
        B, h = xm * xm / mp.mpf(scale), mp.mpf(dim) / 2
        total = mp.mpf(0)
        for c0, p0, d0 in ((1 - h, h, 1 - a * h), (h - 1, 1, 1 - a)):
            small, big = 0, mp.mpf(0)
            for l in range(4000):
                term = ((-1) ** l * mp.gamma(c0 - l) * B ** (p0 + l)
                        * mp.rgamma(d0 - a * l) / mp.factorial(l))
                total += term
                big = max(big, abs(term))
                small = small + 1 if abs(term) <= big * 1e-80 else 0
                if small == 3:
                    break
            else:
                raise AssertionError("reference series did not converge")
        return float(total * (mp.sqrt(mp.pi) * xm) ** -dim)


class TestSwitch:
    """The residue series up to B = 1 and Kanter's integral past it, both
    against the residue series summed in mpmath."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_small_alpha_near_the_old_switch(self, dim):
        # the double residue sum passed its per-family guards here while
        # the two families cancelled each other to a 2e-9 error
        for alpha in (0.0513, 0.3141):
            p = DiffusionProblem(alpha, 1.0, dim)
            for B in (8.0, 12.0, 15.9):
                x = 2.0 * math.sqrt(B)
                assert rel(fundamental_solution(p, x, 1.0),
                           _mp_residue_solution(alpha, dim, x)) < 1e-13

    @pytest.mark.parametrize("dim", [1, 3])
    def test_bulk_in_double_precision(self, dim):
        # also at 4 D t^alpha far from 4, where x and 4 D t^alpha are far
        # from 1 while B is not
        for d, t in ((1.0, 1.0), (1e-100, 1.0), (1e-9, 1.0), (1e100, 1.0),
                     (1.0, 1e6)):
            for alpha in (1e-3, 0.05, 0.5, 0.95, 1.0, 0.13, 0.315, 0.685,
                          0.87):
                p = DiffusionProblem(alpha, d, dim)
                scale = 4.0 * d * t ** alpha
                for B in np.append(np.geomspace(1e-8, 1.0, 9), 0.7):
                    x = math.sqrt(scale * B)
                    ref = _mp_residue_solution(alpha, dim, x, scale)
                    assert rel(fundamental_solution(p, x, t), ref) < 1e-13

    @pytest.mark.parametrize("d, t", [(1.0, 1.0), (1e-9, 1.0), (1.0, 1e6),
                                      (1e-100, 1.0), (1e100, 1.0)])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95, 1.0])
    def test_small_radii_to_the_last_digits(self, alpha, dim, d, t):
        # the log of a tiny B must not round into every term, and no power
        # of x or of 4 D t^alpha may leave the double range on its own:
        # B = 10^-2k/4 for k = 1..150, which is x = 10^-k at D = t = 1
        scale = 4.0 * d * t ** alpha
        xs = math.sqrt(scale / 4.0) * 10.0 ** -np.arange(1.0, 151.0)
        got = fundamental_solution(DiffusionProblem(alpha, d, dim), xs, t)
        for x, value in zip(xs.tolist(), got.tolist()):
            ref = _mp_residue_solution(alpha, dim, x, scale)
            assert rel(value, ref) < 1e-15, x

    @pytest.mark.parametrize("dim", [1, 3])
    def test_sides_agree_at_the_switch(self, dim):
        # each route, at a point just on its own side, against the other
        # route at the same point
        for alpha in (0.05, 0.5, 0.95):
            p = DiffusionProblem(alpha, 1.0, dim)
            coeffs = diffusion._residue_coefficients(alpha, dim)
            for B in (1.0 - 1e-9, 1.0 + 1e-9):
                x = 2.0 * math.sqrt(B)
                series = diffusion._residue_sum(
                    coeffs, np.array([x]),
                    diffusion._scale_parts(1.0, 1.0, alpha))[0]
                kanter = diffusion._kanter_solution(alpha, dim, 1.0,
                                                    np.array([x]), 1.0)[0]
                got = fundamental_solution(p, x, 1.0)
                assert got == (series if B < 1.0 else kanter)
                assert rel(series, kanter) < 1e-13


def _guard_of_one_row(terms):
    """The series guard of one point's terms on their own: ``math.fsum``
    and ``np.sum`` of the magnitudes over all of them, zeros too."""
    if not np.all(np.isfinite(terms)):
        return 0.0, False, False
    total = math.fsum(terms.ravel())
    absum = float(np.sum(np.abs(terms)))
    scale = max(abs(total), _EPS * absum, 1e-300)
    converged = bool(np.all(np.abs(terms[..., -3:])
                            <= diffusion._STOP_TOL * scale))
    clean = _GUARD_FACTOR * _EPS * absum <= _GUARD_REL * abs(total)
    return total, converged, clean


@pytest.mark.parametrize("shape", [(40, 257), (40, 2, 97)])
def test_row_guard_matches_each_row_alone(shape):
    # alternating series with runs of exact zeros inside them and up to
    # their end: by row, of random decay, e^-w summed from its Taylor
    # series (which cancels), or cut while its terms are large; one row
    # holds only negative zeros, one an infinity
    rng = np.random.default_rng(11)
    rows, n = shape[0], shape[-1]
    terms = np.zeros(shape)
    for i, row in enumerate(terms.reshape(rows, -1, n)):
        for series in row:
            length = int(rng.integers(n // 2, n + 1))
            if i % 3 == 1:
                w = rng.uniform(15.0, 30.0)
                ms = np.arange(length)
                vals = np.exp(ms * math.log(w) - sc.gammaln(ms + 1.0))
            else:
                logs = np.cumsum(rng.uniform(-6.0, 1.0, length))
                if i % 3 == 2:
                    logs = rng.uniform(-1.0, 0.0, length)
                vals = np.exp(logs - logs.max() + rng.uniform(-30.0, 30.0))
            vals[1::2] *= -1.0
            for _ in range(int(rng.integers(0, 4))):
                lo = int(rng.integers(1, length))
                vals[lo:lo + int(rng.integers(1, 40))] = 0.0
            series[:length] = vals
    terms[3] = -0.0
    terms[5].flat[7] = math.inf
    totals, converged, clean = diffusion._fsum_with_guard(terms)
    assert totals.shape == converged.shape == clean.shape == (rows,)
    for i in range(rows):
        total, conv, ok = _guard_of_one_row(terms[i])
        if i != 5:
            assert totals[i] == math.fsum(terms[i].ravel())
        assert (totals[i], math.copysign(1.0, totals[i]), converged[i],
                clean[i]) == (total, math.copysign(1.0, total), conv, ok), i
    # both outcomes of both flags are exercised
    assert 0 < np.count_nonzero(converged & clean) < rows - 1
    assert np.any(converged & ~clean) and np.any(~converged)


class TestArrayInput:
    """A 1-D array of radii or times gives, entry by entry, the bytes of
    the call at each point alone."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_radii_match_scalar_calls(self, dim):
        rng = np.random.default_rng(dim)
        for alpha in (0.05, 0.5, 1.0):
            p = DiffusionProblem(alpha, 0.8, dim)
            # both routes, and the origin in dimension 1; then the same
            # radii shuffled and repeated, more than one block of rows
            xs = np.linspace(0.0 if dim == 1 else 0.05, 6.0, 25)
            mixed = rng.permutation(np.concatenate([xs] * 6 + [xs[::3]]))
            assert mixed.size > diffusion._ROWS
            for radii in (xs, mixed):
                got = fundamental_solution(p, radii, 1.3)
                assert isinstance(got, np.ndarray)
                assert got.shape == radii.shape
                for x, value in zip(radii, got):
                    assert value == fundamental_solution(p, float(x), 1.3)

    def test_times_match_scalar_calls(self, monkeypatch):
        # Kanter points, the entries of the array calls
        calls = []
        moments = diffusion._kanter_moments

        def counted(rho, c, log_scale):
            calls.extend([rho] * c.size)
            return moments(rho, c, log_scale)

        monkeypatch.setattr(diffusion, "_kanter_moments", counted)
        rng = np.random.default_rng(5)
        for rho in (0.3, 0.75, 0.95):
            sp = StableParams(rho)
            # below the underflow floor, then Kanter's integral where the
            # series fails its guard, then the series, as c =
            # t^(-rho/(1-rho)) falls from twice the floor
            cs = np.geomspace(1340.0 / diffusion._kanter_a0(rho), 0.01, 25)
            ts = cs ** (-(1.0 - rho) / rho)
            got = levy_density(sp, ts)
            n_kanter = len(calls)
            assert 0 < n_kanter < ts.size - 1
            assert got[0] == 0.0
            assert got.tolist() == [levy_density(sp, float(t)) for t in ts]
            assert len(calls) == 2 * n_kanter
            # the same times shuffled and repeated, more than one block of
            # rows: each entry keeps its bytes
            order = rng.permutation(np.tile(np.arange(ts.size), 6))
            assert order.size > diffusion._ROWS
            assert levy_density(sp, ts[order]).tolist() == got[order].tolist()
            assert len(calls) == 8 * n_kanter
            calls.clear()

    def test_scalar_in_scalar_out(self):
        p = DiffusionProblem(0.5, 1.0, 1)
        assert type(fundamental_solution(p, 1.0, 1.0)) is float
        assert type(levy_density(StableParams(0.5), 1.0)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_entries_rejected(self, bad):
        xs = np.array([0.5, bad, 1.0])
        with pytest.raises(DomainError):
            fundamental_solution(DiffusionProblem(0.5, 1.0, 1), xs, 1.0)
        with pytest.raises(DomainError):
            levy_density(StableParams(0.5), xs)

    def test_origin_in_three_dimensions(self):
        with pytest.raises(DomainError):
            fundamental_solution(DiffusionProblem(0.5, 1.0, 3),
                                 np.array([1.0, 0.0]), 1.0)


class TestExtremeScales:
    """``4 D t^alpha``, ``x^2`` and Kanter's divisor may each leave the
    double range while the value does not; the value is then that of the
    60-digit sum or closed form, and a value past the double range raises
    ``NonConvergence``."""

    def test_scale_past_the_double_range(self):
        # 4 D t^alpha = 4e310: at x = 1e160, B = 2.5e9 lies beyond the
        # validated radius; at x = 1 the 3-D value is subnormal
        for dim in (1, 3):
            with pytest.raises(NonConvergence, match="validated radius"):
                fundamental_solution(DiffusionProblem(0.5, 1e300, dim),
                                     1e160, 1e20)
        with mp.workdps(60):
            scale = 4 * mp.mpf(1e300) * mp.mpf(1e20) ** mp.mpf(0.5)
        ref = _mp_residue_solution(0.5, 3, 1.0, scale)
        assert 0.0 < ref < 2.3e-308
        got = fundamental_solution(DiffusionProblem(0.5, 1e300, 3), 1.0,
                                   1e20)
        assert abs(got - ref) <= 5e-324

    def test_kanter_value_past_the_double_range(self):
        # B = 25 with ell = 1e-105: the divisor 4 pi ell^3 r^2 is about
        # 1e-312 and the value about 1e310
        with pytest.raises(NonConvergence, match="double range"):
            fundamental_solution(DiffusionProblem(0.05, 1e-210, 3), 1e-104,
                                 1.0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_heat_kernel_at_extreme_diffusivities(self, dim):
        # at alpha = 1 Kanter's integral is the heat kernel
        # (4 pi D t)^(-n/2) e^-B; a small divisor lifts a value whose
        # e^-B part underflows back into the double range
        for d in (1e-300, 1e-200, 1e-100, 0.01, 1e200):
            for B in (1.5, 25.0, 1000.0):
                x = math.sqrt(4.0 * B * d)
                with mp.workdps(40):
                    ref = ((4 * mp.pi * mp.mpf(d)) ** (-mp.mpf(dim) / 2)
                           * mp.exp(-mp.mpf(x) ** 2 / (4 * mp.mpf(d))))
                p = DiffusionProblem(1.0, d, dim)
                if ref > 1.7e308:
                    with pytest.raises(NonConvergence, match="double range"):
                        fundamental_solution(p, x, 1.0)
                    continue
                got = fundamental_solution(p, x, 1.0)
                assert rel(got, float(ref)) < 1e-12, (d, B)

    def test_scaled_argument_keeps_its_double(self):
        # where x^2, 4 D t^alpha and B are normal doubles, B from their
        # exact parts is x*x/(4 D t^alpha) bit for bit
        rng = np.random.default_rng(7)
        for lx, ld, lt, alpha in zip(rng.uniform(-150, 150, 4000),
                                     rng.uniform(-150, 150, 4000),
                                     rng.uniform(-150, 150, 4000),
                                     rng.uniform(1e-3, 1.0, 4000)):
            x, d, t = 10.0 ** float(lx), 10.0 ** float(ld), 10.0 ** float(lt)
            scale = 4.0 * d * t ** float(alpha)
            if not (2.3e-308 < x * x < 1.7e308 and 2.3e-308 < scale
                    and 2.3e-308 < x * x / scale < 1.7e308):
                continue
            parts = diffusion._scale_parts(d, t, float(alpha))
            assert diffusion._scaled_square(x, parts) == x * x / scale

    def test_origin_value_outside_the_normal_range(self):
        # the 1-D origin value rgamma(1/2) / (2 sqrt(D t)) at alpha = 1
        # where 2 sqrt(D t) overflows, where the quotient is subnormal and
        # where the divisor is subnormal, against 30 digits
        for d, t in ((1.7e308, 1.7e308), (1e307, 1e308), (1e-310, 1e-306)):
            with mp.workdps(30):
                ref = mp.rgamma(mp.mpf(0.5)) / (
                    2 * mp.sqrt(mp.mpf(d)) * mp.sqrt(mp.mpf(t)))
            got = fundamental_solution(DiffusionProblem(1.0, d, 1), 0.0, t)
            assert abs(got - ref) <= 1e-14 * ref, (d, t)
        got = fundamental_solution(DiffusionProblem(1.0, 1.7e308, 1), 0.0,
                                   1.7e308)
        assert abs(got / 1.6594e-309 - 1.0) < 1e-4
        # the value at D = 1e-320, t = 1e-300 is about 2.8e309
        with pytest.raises(NonConvergence, match="double range"):
            fundamental_solution(DiffusionProblem(1.0, 1e-320, 1), 0.0,
                                 1e-300)

    def test_overflowing_scaled_argument_names_the_point(self):
        # B = 1e600 / 4e-300 overflows the double range
        with pytest.raises(NonConvergence,
                           match=r"B = x\^2/\(4 D t\^alpha\) overflows at "
                                 r"x=1e\+300, D=1e-300, t=1"):
            fundamental_solution(DiffusionProblem(0.5, 1e-300, 1), 1e300, 1.0)
