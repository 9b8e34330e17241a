"""Special-function layer: reciprocal gamma, Pochhammer, Mittag-Leffler."""

import math

import mpmath as mp
import numpy as np
import pytest

from fkin.errors import DomainError, NonConvergence
from fkin.specfun import (_EPS, _GUARD_FACTOR, _GUARD_REL, _SERIES_TOL,
                          _SMALL_TERMS, MLParams, SeriesControls, _Family,
                          _ml_table, _ml_values, _sum_extended, gamma_recip,
                          ml_one, ml_prabhakar, ml_two, pochhammer)

# reference constants frozen from extended-precision series runs
# (explicit term loops, 60+ digits, termination on 4 consecutive
# negligible terms); arguments promoted as exact doubles
ML3_08_10_NEG25 = -0.03381488045465376
ML3_07_12_NEG34 = 0.047196263662338804
ML2_HALF_HALF_NEG1 = 0.13660600739194928
ML1_HALF_NEG1 = 0.427583576155807


def rel(got, ref):
    return abs(got - ref) / max(abs(ref), 1e-300)


class TestGammaRecip:
    def test_half(self):
        assert rel(gamma_recip(0.5), 1.0 / math.sqrt(math.pi)) < 1e-15

    def test_positive_integers(self):
        assert gamma_recip(1.0) == 1.0
        assert gamma_recip(2.0) == 1.0
        assert rel(gamma_recip(4.0), 1.0 / 6.0) < 1e-15

    def test_poles_vanish_exactly(self):
        for x in (0.0, -1.0, -2.0, -5.0, -40.0):
            assert gamma_recip(x) == 0.0

    def test_matches_gamma_away_from_poles(self):
        xs = np.concatenate([np.linspace(0.05, 8.0, 40),
                             np.linspace(-7.95, -0.05, 40)])
        for x in xs:
            if abs(x - round(x)) < 1e-9:
                continue
            assert abs(gamma_recip(x) * math.gamma(x) - 1.0) < 1e-13

    def test_sign_between_negative_integers(self):
        # gamma alternates sign strip by strip on the negative axis
        assert gamma_recip(-0.5) < 0.0
        assert gamma_recip(-1.5) > 0.0
        assert gamma_recip(-2.5) < 0.0


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_rising_factorial(self):
        assert pochhammer(1.0, 5) == 120.0
        assert pochhammer(2.5, 3) == 39.375

    def test_hits_zero_from_nonpositive_base(self):
        assert pochhammer(-2.0, 3) == 0.0


class TestPrabhakarValues:
    def test_leading_term_only(self):
        # z=0 collapses the series to its first term
        got = ml_prabhakar(MLParams(0.7, 1.3, 2.0, 0.0))
        assert rel(got, gamma_recip(1.3)) < 1e-15

    def test_exponential_point(self):
        got = ml_prabhakar(MLParams(1.0, 1.0, 1.0, 1.0))
        assert rel(got, math.e) < 1e-14

    def test_frozen_negative_argument(self):
        got = ml_prabhakar(MLParams(0.8, 1.0, 3.0, -2.5))
        assert rel(got, ML3_08_10_NEG25) < 1e-13

    def test_frozen_fractional_parameters(self):
        got = ml_prabhakar(MLParams(0.7, 1.2, 1.5, -3.4))
        assert rel(got, ML3_07_12_NEG34) < 1e-13

    def test_true_zero_certifies(self):
        # E^2_{1,1}(z) = e^z (1+z) vanishes identically at z = -1; the
        # cancellation rescue must certify an absolute near-zero instead
        # of chasing unattainable relative accuracy
        assert abs(ml_prabhakar(MLParams(1.0, 1.0, 2.0, -1.0))) < 1e-40

    def test_derivative_weight_identity(self):
        # E^2_{1,1}(z) = e^z (1+z) away from the zero
        for z in (-3.0, -0.4, 0.7, 2.0):
            got = ml_prabhakar(MLParams(1.0, 1.0, 2.0, z))
            assert rel(got, math.exp(z) * (1.0 + z)) < 1e-13

    def test_nonpositive_order_terminates(self):
        # delta is unrestricted; a negative integer truncates the series
        # to a polynomial and delta = 0 leaves only the constant term
        for z in (-1.5, 0.3, 2.0):
            got = ml_prabhakar(MLParams(1.0, 1.0, -2.0, z))
            assert got == 1.0 - 2.0 * z + 0.5 * z * z
        got = ml_prabhakar(MLParams(0.7, 1.3, 0.0, 5.0))
        assert got == gamma_recip(1.3)


class TestTwoParameterValues:
    def test_exp_minus_one(self):
        assert rel(ml_two(1.0, 2.0, 1.0), math.e - 1.0) < 1e-14

    def test_cosh_of_sqrt(self):
        assert rel(ml_two(2.0, 1.0, 1.0), math.cosh(1.0)) < 1e-14
        assert abs(ml_two(2.0, 1.0, 1.0) - 1.5430806348152437) < 1e-14

    def test_frozen_half_half(self):
        assert rel(ml_two(0.5, 0.5, -1.0), ML2_HALF_HALF_NEG1) < 1e-13


class TestOneParameterValues:
    def test_classical_exponentials(self):
        assert rel(ml_one(1.0, -1.0), 1.0 / math.e) < 1e-14
        assert rel(ml_one(1.0, 0.35), math.exp(0.35)) < 1e-14
        # tiny values whose series cancels by 40 digits and more
        for x in (40.0, 45.0, 50.0):
            assert rel(ml_one(1.0, -x), math.exp(-x)) < 1e-13

    def test_cosine_point(self):
        assert rel(ml_one(2.0, -4.0), math.cos(2.0)) < 1e-13
        assert abs(ml_one(2.0, -4.0) - -0.4161468365471424) < 1e-13

    def test_frozen_half_order(self):
        assert rel(ml_one(0.5, -1.0), ML1_HALF_NEG1) < 1e-13

    def test_value_at_origin_is_one(self):
        for nu in (0.25, 0.5, 1.0, 1.7, 2.0):
            assert ml_one(nu, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_batch_does_not_change_values():
    # each entry of a batch stops at its own term, so it is the value a
    # one-element call gives, whatever else shares the batch
    zs = np.array([-6.0, -4.0, -2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 1.5, 2.0])
    for beta in (0.5, 0.8, 1.0, 1.5):
        for gamma_ in (0.5, 1.0, 1.5, 2.0, 3.0):
            for delta in (0.5, 1.0, 1.5, 2.0, 3.0):
                got = _ml_values(beta, gamma_, delta, zs)
                for z, v in zip(zs, got):
                    one = ml_prabhakar(MLParams(beta, gamma_, delta, z))
                    assert float(v) == one, (beta, gamma_, delta, z)
    # delta = 1e-15 fires the rule on the first terms, and later terms grow
    # back past it and decay again while the batch still runs: a fired
    # entry must keep the value it fired with
    budget = SeriesControls(max_terms=4000)
    zs = np.linspace(1.0, 1.6, 13)
    for beta in (0.1, 0.2):
        got = _ml_values(beta, 1.0, 1e-15, zs, budget)
        for z, v in zip(zs, got):
            one = ml_prabhakar(MLParams(beta, 1.0, 1e-15, z), budget)
            assert float(v) == one, (beta, z)


def _ml_values_by_term(beta, gamma_, delta, zs, ctrl):
    # the double pass one term at a time over the whole batch, with fired
    # entries kept in it and their powers zeroed
    total = np.zeros_like(zs)
    comp = np.zeros_like(zs)
    absum = np.zeros_like(zs)
    zpow = np.ones_like(zs)
    small = np.zeros(zs.shape, dtype=int)
    value = np.zeros_like(zs)
    mass = np.zeros_like(zs)
    fired = np.zeros(zs.shape, dtype=bool)
    coeffs, _ = _ml_table(beta, gamma_, delta, ctrl.max_terms + 1)
    n = min(ctrl.max_terms, len(coeffs))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            c = coeffs[k]
            term = c * zpow
            zpow *= zs
            at = np.abs(term)
            absum += at
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            thr = _SERIES_TOL * np.maximum(
                np.maximum(np.abs(total), _EPS * absum), 1e-290)
            small = np.where(at <= thr, small + 1, 0)
            fire = small == _SMALL_TERMS
            nxt = np.abs((coeffs[k + 1] if k + 1 < len(coeffs)
                          else math.inf) * zs)
            grows = fire & (nxt >= abs(c)) & (nxt > 0.0)
            small[grows] -= 1
            fire &= ~grows
            value[fire] = total[fire]
            mass[fire] = absum[fire]
            fired |= fire
            zpow[fire] = 0.0
            if fired.all():
                break
    rescue = ~np.isfinite(value) \
        | (_GUARD_FACTOR * _EPS * mass > _GUARD_REL * np.abs(value))
    if not fired.all():
        if n == ctrl.max_terms and np.any(~fired & np.isfinite(total)):
            raise NonConvergence("reference pass did not converge")
        rescue |= ~fired
    for i in np.nonzero(rescue)[0]:
        z = float(zs[i])

        def build(z=z):
            return [_Family(1, mp.mpf(z), (mp.mpf(delta),), (1,),
                            mp.mpf(gamma_), mp.mpf(beta))]

        value[i] = _sum_extended(build, _SERIES_TOL, ctrl.max_terms,
                                 positive=z > 0.0 and delta > 0.0)
    return value


def test_blocked_pass_matches_term_by_term():
    # the blocked pass repeats the arithmetic of a term-by-term loop over
    # the whole batch, so every value is bitwise equal to it
    rng = np.random.default_rng(7)
    ctrl = SeriesControls()
    for _ in range(60):
        beta = rng.choice([rng.uniform(0.5, 2.0), 0.5, 1.0, 2.0])
        gamma_ = rng.choice([rng.uniform(0.2, 3.0), 1.0])
        delta = rng.choice([rng.uniform(0.1, 3.0), 1.0, 2.0, 0.0])
        zs = rng.uniform(-6.0, 6.0, int(rng.integers(1, 21)))
        zs[rng.random(zs.size) < 0.1] = 0.0
        got = _ml_values(beta, gamma_, delta, zs, ctrl)
        ref = _ml_values_by_term(beta, gamma_, delta, zs, ctrl)
        assert got.tobytes() == ref.tobytes(), (beta, gamma_, delta, zs)
    # delta = 1e-15 fires on the first terms, and the terms grow back past
    # the rule before they decay
    budget = SeriesControls(max_terms=4000)
    zs = np.linspace(1.0, 1.6, 7)
    for beta in (0.1, 0.2):
        got = _ml_values(beta, 1.0, 1e-15, zs, budget)
        ref = _ml_values_by_term(beta, 1.0, 1e-15, zs, budget)
        assert got.tobytes() == ref.tobytes(), beta


def test_blocked_pass_raises_where_the_loop_does():
    zs = np.array([-1.0, -40.0, 0.5])
    for budget in (20, 32, 33, 100):
        ctrl = SeriesControls(max_terms=budget)
        with pytest.raises(NonConvergence):
            _ml_values_by_term(0.5, 1.0, 1.0, zs, ctrl)
        with pytest.raises(NonConvergence, match="max_terms"):
            _ml_values(0.5, 1.0, 1.0, zs, ctrl)


def test_reduction_chain():
    # the three layers must agree when the extra parameters are trivial
    rng = np.random.default_rng(42960)
    budget = SeriesControls(max_terms=4000)
    for _ in range(120):
        beta = rng.uniform(0.5, 2.0)
        z = rng.uniform(-10.0, 10.0)
        full = ml_prabhakar(MLParams(beta, 1.0, 1.0, z), budget)
        two = ml_two(beta, 1.0, z, budget)
        one = ml_one(beta, z, budget)
        assert rel(full, two) < 1e-14
        assert rel(two, one) < 1e-14


def test_index_recurrence():
    # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
    budget = SeriesControls(max_terms=4000)
    for alpha in (0.6, 1.0, 1.7):
        for beta_ in (0.5, 1.0, 2.2):
            for z in (-6.0, -1.0, 0.5, 3.0):
                lhs = ml_two(alpha, beta_, z, budget)
                rhs = z * ml_two(alpha, alpha + beta_, z, budget) + gamma_recip(beta_)
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) / scale < 1e-12


def test_entirety_sweep():
    """No convergence failures across the order range.

    The argument cap shrinks with the order: at nu the value grows like
    exp(z^(1/nu)), so |z| is limited to what a double can represent, and
    the series length needed near that cap stays inside an 8000-term
    budget.
    """
    budget = SeriesControls(max_terms=8000)
    for nu in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        cap = min(30.0, 0.8 * 700.0 ** nu)
        for z in np.linspace(-cap, cap, 9):
            v = ml_one(float(nu), float(z), budget)
            assert math.isfinite(v)
            if z >= 0.0:
                assert v >= 1.0 or z == 0.0


def test_complete_monotonicity_sample():
    # one-parameter ML with 0 < nu <= 1 stays in (0, 1] on the negative
    # axis; the argument range follows the same per-order cap as the
    # entirety sweep
    for nu in (0.4, 0.7, 1.0):
        cap = min(30.0, 0.8 * 700.0 ** nu)
        prev = 1.0
        for z in np.linspace(0.0, -cap, 61):
            v = ml_one(nu, float(z), SeriesControls(max_terms=8000))
            assert 0.0 < v <= prev + 1e-15
            prev = v


def test_radius_guard():
    with pytest.raises(NonConvergence):
        ml_prabhakar(MLParams(0.8, 1.0, 1.0, 51.0))
    # the boundary itself is inside the supported region
    v = ml_one(0.8, -50.0, SeriesControls(max_terms=8000))
    assert 0.0 < v < 0.01


def test_budget_exhaustion_names_the_control():
    with pytest.raises(NonConvergence, match="max_terms"):
        ml_one(0.5, -40.0, SeriesControls(max_terms=20))


def test_growing_terms_do_not_fire_the_rule():
    # at delta = 1e-17 terms 1-3 fall under 1e-15 of the sum, but the
    # series then grows to past 1e1019: no value may be certified there
    with pytest.raises(NonConvergence, match="max_terms"):
        ml_prabhakar(MLParams(0.1, 1.0, 1e-17, 3.0))


@pytest.mark.parametrize("bad", [
    lambda: MLParams(0.0, 1.0, 1.0, 0.0),
    lambda: MLParams(-0.5, 1.0, 1.0, 0.0),
    lambda: MLParams(0.5, 0.0, 1.0, 0.0),
    lambda: MLParams(0.5, 1.0, 1.0, math.nan),
    lambda: SeriesControls(max_terms=0),
])
def test_parameter_validation(bad):
    with pytest.raises(DomainError):
        bad()
