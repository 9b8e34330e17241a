"""Special-function layer: reciprocal gamma, Pochhammer, Mittag-Leffler."""

import math

import mpmath as mp
import numpy as np
import pytest

from fkin import specfun
from fkin.diffusion import series_n1, series_n3
from fkin.errors import DomainError, NonConvergence
from fkin.specfun import (_EPS, _GUARD_FACTOR, _GUARD_REL, _SERIES_TOL,
                          _SMALL_TERMS, MLParams, SeriesControls, _Family,
                          _gamma_recip_array, _ml_contour, _ml_rescue,
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

    def test_scalar_form_matches_the_array_form(self):
        # one pole rule: the scalar and the elementwise form agree bitwise
        # at poles, inside and just outside the snapping distance, and at
        # ordinary points, including the half-integers where rounding
        # to the nearest integer ties
        tol = specfun._POLE_TOL
        xs = [0.0, -0.0, -1.0, -7.0, -170.0, 0.5, -0.5, -2.5, 1.0, 3.7,
              171.5, -3.3, 1e-300, -1e-300, 1e-9]
        for pole in (0.0, -1.0, -4.0, -60.0):
            xs += [pole + d for d in (tol / 2, -tol / 2, 0.99 * tol,
                                      -0.99 * tol, 2 * tol, -2 * tol)]
        xs = np.array(xs)
        array = _gamma_recip_array(xs)
        for x, value in zip(xs.tolist(), array.tolist()):
            assert np.float64(gamma_recip(x)).tobytes() == \
                np.float64(value).tobytes(), x
        # zero at the five poles, the sixteen points inside the snapping
        # distance and +-1e-300, nowhere else
        assert np.count_nonzero(array == 0.0) == 5 + 16 + 2


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_rising_factorial(self):
        assert pochhammer(1.0, 5) == 120.0
        assert pochhammer(2.5, 3) == 39.375
        assert pochhammer(2.5, 3.0) == 39.375

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
    coeffs = _ml_table(beta, gamma_, delta, ctrl.max_terms + 1)
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
    # rescued entries are dispatched as the blocked pass dispatches them
    if np.any(rescue):
        value[rescue] = _ml_rescue(beta, gamma_, delta, zs[rescue], ctrl)
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


def _count_calls(monkeypatch, name):
    """Counts the calls of ``mpmath.<name>`` from here on."""
    calls = []
    original = getattr(mp, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mp, name, counted)
    return calls


def _rescued(monkeypatch):
    """Counts the extended-precision sums ``_ml_values`` starts."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _sum_extended(*args, **kwargs)

    monkeypatch.setattr(specfun, "_sum_extended", counted)
    return calls


def test_shared_table_does_not_change_values(monkeypatch):
    # the rescued entries of a batch share one coefficient table across
    # several working precisions; each keeps the value of its own call.
    # beta > 1 keeps every entry off the contour, in extended precision
    zs = np.linspace(-2.0, -7.0, 11)
    sums = _rescued(monkeypatch)
    passes = _count_calls(monkeypatch, "workdps")
    for beta, gamma_, delta in ((1.1, 1.5, 2.0), (1.2, 2.0, 3.5)):
        del sums[:]
        got = _ml_values(beta, gamma_, delta, zs)
        assert len(sums) == zs.size
        for z, v in zip(zs, got):
            one = _ml_values(beta, gamma_, delta, [z])
            assert v.tobytes() == one[0].tobytes(), (beta, gamma_, delta, z)
    digits = {args[0] for args in passes}
    assert len(digits) > 1 and all(d % 10 == 0 for d in digits)
    # the diffusion series run the engine in the same one mode, each with
    # a table of its own
    for series, alpha, A in ((series_n1, 0.5, 400.0),
                             (series_n3, 0.9, 100.0)):
        del passes[:]
        series(alpha, A)
        assert passes and all(args[0] % 10 == 0 for args in passes)


def _erfcx_rel(v, z):
    # error of v against E_(1/2)(z) = erfcx(-z) = exp(z^2) erfc(-z), taken
    # at 60 digits
    with mp.workdps(60):
        ref = mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z))
        return float(abs((v - ref) / ref))


def test_rescued_half_order_matches_erfcx(monkeypatch):
    # both rescue engines: the contour, which takes these entries in
    # _ml_values, and the extended-precision sum called directly
    zs = np.linspace(-8.0, -2.0, 13)
    sums = _rescued(monkeypatch)
    got = _ml_values(0.5, 1.0, 1.0, zs)
    assert not sums
    for z, v in zip(zs, got):
        assert _erfcx_rel(v, z) < 1e-15, z
    table = {}
    for z in zs:

        def build(z=z):
            return _Family(1, mp.mpf(z), (mp.mpf(1),), mp.mpf(1),
                           mp.mpf(0.5))

        v = _sum_extended(build, _SERIES_TOL, SeriesControls().max_terms,
                          table)
        assert _erfcx_rel(v, z) < 1e-15, z


def test_rescued_entries_share_their_coefficients(monkeypatch):
    zs = np.arange(-2.0, -8.0, -1.0)
    sums = _rescued(monkeypatch)
    calls = _count_calls(monkeypatch, "rgamma")
    _ml_values(1.1, 1.5, 3.5, zs)
    assert len(sums) == zs.size
    batch = len(calls)
    del calls[:]
    for z in zs:
        _ml_values(1.1, 1.5, 3.5, [z])
    assert 0 < batch < len(calls) / 2


def test_coefficient_table_lives_for_one_call(monkeypatch):
    zs = np.arange(-2.0, -8.0, -1.0)
    calls = _count_calls(monkeypatch, "rgamma")
    first = _ml_values(1.1, 1.5, 3.5, zs)
    once = len(calls)
    second = _ml_values(1.1, 1.5, 3.5, zs)
    assert once > 0 and len(calls) == 2 * once
    assert first.tobytes() == second.tobytes()


def _prabhakar_by_inversion(beta, gamma_, delta, z):
    # E^delta_(beta,gamma_)(z): the Laplace image
    # s^(beta delta - gamma_) / (s^beta - z)^delta inverted at t = 1 by
    # mpmath's Talbot rule at 40 digits
    with mp.workdps(40):
        b, g, d, x = (mp.mpf(v) for v in (beta, gamma_, delta, z))
        return float(mp.invertlaplace(
            lambda s: s ** (b * d - g) / (s ** b - x) ** d, 1,
            method="talbot"))


def test_contour_sweep_matches_inversion():
    # beta <= 1, z < 0 over the box the rescue serves; every certified
    # value is within 1e-13 of a 40-digit inversion
    rng = np.random.default_rng(1717)
    n = 60
    betas = rng.uniform(0.05, 1.0, n)
    gammas = rng.uniform(0.1, 3.0, n)
    deltas = rng.uniform(0.1, 3.5, n)
    zs = -(10.0 ** rng.uniform(-2.0, 3.0, n))
    certified = 0
    for beta, gamma_, delta, z in zip(betas, gammas, deltas, zs):
        got, ok = _ml_contour(beta, gamma_, delta, [z])
        if ok[0]:
            certified += 1
            ref = _prabhakar_by_inversion(beta, gamma_, delta, z)
            assert rel(got[0], ref) < 1e-13, (beta, gamma_, delta, z)
    assert certified >= 0.8 * n


def test_contour_closed_forms():
    # E_(1/2)(z) = erfcx(-z), certified at every |z| up to 1e3
    xs = np.geomspace(0.05, 1e3, 40)
    got, ok = _ml_contour(0.5, 1.0, 1.0, -xs)
    assert ok.all()
    for x, v in zip(xs, got):
        assert _erfcx_rel(v, -x) < 1e-15, x
    # E_1(-x) = e^-x wherever it certifies, which is at least up to x = 5
    xs = np.linspace(0.05, 20.0, 80)
    got, ok = _ml_contour(1.0, 1.0, 1.0, -xs)
    assert ok[xs <= 5.0].all()
    assert np.all(np.abs(got[ok] / np.exp(-xs[ok]) - 1.0) < 1e-14)


def test_rejected_entry_keeps_the_extended_value(monkeypatch):
    # e^-6.958 is too small against the contour's summed terms to pass
    # its rounding guard, so the rescue sums the series in extended
    # precision, bitwise as before the contour
    z = -6.958
    assert not _ml_contour(1.0, 1.0, 1.0, [z])[1][0]
    sums = _rescued(monkeypatch)
    got = _ml_values(1.0, 1.0, 1.0, [z])[0]
    assert len(sums) == 1

    def build():
        return _Family(1, mp.mpf(z), (mp.mpf(1),), mp.mpf(1),
                       mp.mpf(1))

    ref = _sum_extended(build, _SERIES_TOL, SeriesControls().max_terms, {})
    assert got.tobytes() == np.float64(ref).tobytes()
    assert rel(got, math.exp(z)) < 1e-15


def test_past_the_radius_by_contour():
    # beta <= 1, z < -SERIES_RADIUS skips the series for the contour
    for x in (60.0, 100.0, 400.0, 1e3):
        v = ml_one(0.5, -x)
        assert _erfcx_rel(v, -x) < 1e-15, x
    # a batch across the radius keeps every entry's own value
    zs = np.array([-1e3, -3.0, -75.0, -0.5, 2.0])
    got = _ml_values(0.7, 1.2, 1.5, zs)
    for z, v in zip(zs, got):
        assert v == _ml_values(0.7, 1.2, 1.5, [z])[0], z
    # anything else past the radius raises, as does an uncertified value
    with pytest.raises(NonConvergence, match="radius"):
        ml_two(1.5, 1.0, -60.0)
    with pytest.raises(NonConvergence, match="radius"):
        _ml_values(0.7, 1.2, 1.5, [-60.0, 60.0])
    with pytest.raises(NonConvergence, match="does not certify"):
        ml_one(1.0, -60.0)


def test_one_contour_call_serves_far_and_near_entries(monkeypatch):
    # a far entry and a near one that fails the double pass's guard, both
    # beta <= 1, z < 0: the rescue sends them to the contour together
    calls = []

    def counted(*args):
        calls.append(args)
        return _ml_contour(*args)

    monkeypatch.setattr(specfun, "_ml_contour", counted)
    zs = np.array([-60.0, -3.0])
    got = _ml_values(0.5, 1.0, 1.0, zs)
    assert len(calls) == 1 and list(calls[0][3]) == list(zs)
    for z, v in zip(zs, got):
        assert _erfcx_rel(v, z) < 1e-15, z


def test_uncertified_far_entry_raises_before_extended_sums(monkeypatch):
    # e^-60 does not certify on the contour, so the batch raises before
    # its near entry is summed in extended precision; alone, that entry
    # is summed as before
    sums = _rescued(monkeypatch)
    with pytest.raises(NonConvergence, match="does not certify"):
        _ml_values(1.0, 1.0, 1.0, [-60.0, -7.0])
    assert not sums
    got = _ml_values(1.0, 1.0, 1.0, [-7.0])[0]
    assert len(sums) == 1
    assert rel(got, math.exp(-7.0)) < 1e-15


def test_positive_series_past_the_double_range(monkeypatch):
    # E_(1/2)(49) = erfcx(-49) is about e^2401: every term is positive,
    # so the scan alone gives inf, with no extended-precision pass
    passes = _count_calls(monkeypatch, "workdps")
    sums = _rescued(monkeypatch)
    got = _ml_values(0.5, 1.0, 1.0, [49.0])
    assert got[0] == math.inf
    assert len(sums) == 1 and not passes


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
    # a fractional budget ran into a TypeError inside the series pass
    lambda: SeriesControls(max_terms=2.5),
    lambda: SeriesControls(max_terms=math.nan),
    # these gave nan, inf, a silent truncation to tau = 2 and a bare
    # ValueError
    lambda: pochhammer(math.nan, 3),
    lambda: pochhammer(math.inf, 2),
    lambda: pochhammer(1.0, 2.5),
    lambda: pochhammer(1.0, math.nan),
])
def test_parameter_validation(bad):
    with pytest.raises(DomainError):
        bad()
