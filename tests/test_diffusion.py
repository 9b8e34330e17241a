"""Point-source diffusion densities and the one-sided stable density."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sc

from fkin import diffusion
from fkin.diffusion import (DiffusionProblem, StableParams, asymptotic_n2,
                            fundamental_solution, levy_density, series_n1,
                            series_n3)
from fkin.errors import DomainError, NonConvergence, NotSupported

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
    """Past B = x^2/(4 D t^alpha) = 16 the one- and three-dimensional
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
        for lengths in (10.0, 15.0, 20.0, 30.0):
            x = lengths * math.sqrt(d * t)
            ref = math.exp(-x * x / (4.0 * d * t)) \
                / (4.0 * math.pi * d * t) ** (dim / 2.0)
            assert rel(fundamental_solution(p, x, t), ref) < 1e-12

    def test_airy_form_at_two_thirds(self):
        # M_{1/3}(r) = 3^(2/3) Ai(r / 3^(1/3)), u1 = M_{1/3}(x/ell) / (2 ell)
        d, t = 0.6, 1.7
        ell = math.sqrt(d) * t ** (1.0 / 3.0)
        p = DiffusionProblem(2.0 / 3.0, d, 1)
        for r in (10.0, 20.0, 40.0):
            ref = 3.0 ** (2.0 / 3.0) * float(sc.airy(r / 3.0 ** (1.0 / 3.0))[0]) \
                / (2.0 * ell)
            assert rel(fundamental_solution(p, r * ell, t), ref) < 1e-12

    @pytest.mark.parametrize("dim", [1, 3])
    def test_matches_explicit_series_across_switch(self, dim):
        d, t = 1.3, 0.9
        for alpha in (0.4, 0.7, 0.9):
            p = DiffusionProblem(alpha, d, dim)
            bulk = (2.0, 4.0, 9.0) if alpha > 0.5 else ()
            for B in bulk + (12.0, 15.0, 16.5, 20.0, 25.0):
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
                    # the bulk residue sum, extended-precision rescue
                    # included, against the integral it never uses there
                    kanter = diffusion._kanter_solution(alpha, dim, d, x, t)
                    assert rel(got, kanter) < 1e-12

    @pytest.mark.parametrize("dim", [1, 3])
    def test_certified_across_the_tail(self, dim):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            p = DiffusionProblem(alpha, 1.0, dim)
            values = [fundamental_solution(p, 2.0 * math.sqrt(B), 1.0)
                      for B in np.geomspace(16.0 * (1.0 + 1e-9), 1024.0, 25)]
            assert all(math.isfinite(v) and v >= 0.0 for v in values)
            assert values[0] > 0.0
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_stable_density_certified_where_series_fails(self, monkeypatch):
        calls = []
        moments = diffusion._kanter_moments

        def counted(rho, *args):
            calls.append(rho)
            return moments(rho, *args)

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
