"""Fractional integrals, singular convolutions, and the derivative stencil."""

import math

import numpy as np
import pytest
import scipy.integrate as si

from fkin.errors import DomainError, NonConvergence
from fkin.fracops import (ConvolutionControls, MLModulator, SampledFunction,
                          _folded_lr, _graded_nodes, ddt,
                          laplace_of_interpolant, rl_integral,
                          rl_integral_grid, singular_convolution,
                          singular_convolution_grid)
from fkin.specfun import (_SMALL_TERMS, MLParams, SeriesControls, _ml_table,
                          ml_prabhakar, ml_two)


def rel(got, ref):
    return abs(got - ref) / max(abs(ref), 1e-300)


class TestRLIntegral:
    def test_constant_half_order(self):
        got = rl_integral(lambda u: 1.0, 1.0, 0.5)
        assert rel(got, 1.0 / math.gamma(1.5)) < 1e-10
        assert abs(got - 1.1283791670955126) < 1e-9

    def test_identity_order_one(self):
        # order 1 is a plain antiderivative
        got = rl_integral(lambda u: u, 2.0, 1.0)
        assert rel(got, 2.0) < 1e-10

    def test_exponential_against_quadrature(self):
        # independent weighted adaptive quadrature of the same integral
        t, nu = 1.5, 0.7
        got = rl_integral(lambda u: math.exp(-u), t, nu)
        ref, _ = si.quad(lambda u: math.exp(-u), 0.0, t,
                         weight="alg", wvar=(0.0, nu - 1.0),
                         epsabs=1e-13, epsrel=1e-13)
        ref /= math.gamma(nu)
        assert rel(got, ref) < 1e-9

    def test_exponential_against_series_identity(self):
        # the fractional integral of exp(-u) has a closed two-parameter
        # Mittag-Leffler form; third route alongside the quadrature above
        t, nu = 1.5, 0.7
        got = rl_integral(lambda u: math.exp(-u), t, nu)
        ref = t ** nu * ml_two(1.0, 1.0 + nu, -t)
        assert rel(got, ref) < 1e-9

    def test_power_rule(self):
        # I^a u^b = Gamma(b+1)/Gamma(b+1+a) t^(b+a)
        for a, b, t in ((0.6, 1.3, 2.0), (1.4, 0.5, 0.7)):
            got = rl_integral(lambda u: u ** b, t, a)
            ref = math.gamma(b + 1.0) / math.gamma(b + 1.0 + a) * t ** (b + a)
            assert rel(got, ref) < 1e-8

    def test_semigroup(self):
        # I^a I^b f = I^(a+b) f on a smooth integrand
        f = math.cos
        t = 1.2
        for a in (0.3, 0.5, 1.0):
            for b in (0.3, 0.5, 1.0):
                inner = lambda u: rl_integral(f, u, b) if u > 0.0 else 0.0
                got = rl_integral(inner, t, a)
                ref = rl_integral(f, t, a + b)
                assert rel(got, ref) < 1e-6

    def test_linearity(self):
        f = lambda u: math.sin(u)
        g = lambda u: math.exp(-0.5 * u)
        mix = lambda u: 2.0 * f(u) - 0.25 * g(u)
        t, nu = 1.7, 0.4
        got = rl_integral(mix, t, nu)
        ref = 2.0 * rl_integral(f, t, nu) - 0.25 * rl_integral(g, t, nu)
        assert rel(got, ref) < 1e-13

    def test_refinement_monotone(self):
        # the cell-count override exists for convergence studies: the
        # error against the closed power rule must shrink with the mesh
        a, b, t = 0.6, 1.3, 2.0
        ref = math.gamma(b + 1.0) / math.gamma(b + 1.0 + a) * t ** (b + a)
        errs = [abs(rl_integral(lambda u: u ** b, t, a, n_cells=n) - ref)
                for n in (64, 128, 256, 512)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_zero_time(self):
        assert rl_integral(lambda u: 1.0, 0.0, 0.5) == 0.0


class TestSingularConvolution:
    def test_flat_kernel(self):
        got = singular_convolution(lambda u: 1.0, 3.0, 0.0)
        assert rel(got, 3.0) < 1e-12

    def test_inverse_sqrt_kernel(self):
        got = singular_convolution(lambda u: 1.0, 1.0, -0.5)
        assert rel(got, 2.0) < 1e-10

    def test_modulated_integration_identity(self):
        # integrating the kernel t^(g-1) E^d_{b,g}(-a t^b) from 0 to t
        # raises the second index by one; the modulator weights are
        # integrated exactly so this is tight
        beta, gam, delta, a, t = 0.9, 0.7, 1.2, 0.8, 2.0
        got = singular_convolution(lambda u: 1.0, t, gam - 1.0,
                                   MLModulator(beta, gam, delta, -a))
        ref = t ** gam * ml_prabhakar(
            MLParams(beta, gam + 1.0, delta, -a * t ** beta))
        assert rel(got, ref) < 1e-12

    def test_smooth_factor_against_quadrature(self):
        t, p = 1.3, -0.3
        got = singular_convolution(lambda u: u * u, t, p)
        ref, _ = si.quad(lambda u: u * u, 0.0, t,
                         weight="alg", wvar=(0.0, p), epsabs=1e-13,
                         epsrel=1e-13)
        assert rel(got, ref) < 1e-9


class TestGridVariants:
    def test_rl_grid_matches_pointwise(self):
        dt = 1.0 / 256
        gs = np.arange(0, 257) * dt
        out = rl_integral_grid(np.exp(-gs), dt, 0.7)
        assert out.shape == gs.shape
        for k in (64, 160, 256):
            ref = rl_integral(lambda u: math.exp(-u), float(gs[k]), 0.7)
            assert rel(out[k], ref) < 1e-5

    def test_convolution_grid_matches_pointwise(self):
        dt = 1.0 / 256
        gs = np.arange(0, 257) * dt
        out = singular_convolution_grid(np.exp(-gs), dt, -0.5)
        for k in (64, 256):
            ref = singular_convolution(lambda u: math.exp(-u), float(gs[k]), -0.5)
            assert rel(out[k], ref) < 1e-5


@pytest.mark.parametrize("mod, series", [
    (MLModulator(0.9, 0.7, 1.2, -0.8), SeriesControls(max_terms=2)),
    # (1e30)_tau / tau! leaves the double range at tau = 11 while the
    # terms still grow a hundredfold a step
    (MLModulator(0.5, 1.0, 1e30, -1e-28), SeriesControls()),
], ids=["budget", "cut-table"])
def test_unfolded_kernel_raises_on_both_meshes(mod, series):
    # the one fold behind both meshes raises where its rule cannot fire;
    # nothing falls back to sampling the modulator
    with pytest.raises(NonConvergence):
        singular_convolution(lambda u: 1.0 + u, 1.0, -0.3, mod,
                             ConvolutionControls(series=series))
    with pytest.raises(NonConvergence):
        singular_convolution_grid(1.0 + np.linspace(0.0, 1.0, 65), 1.0 / 64,
                                  -0.3, mod, series)


def _lr_weights_scalar(a, b, q):
    # the cell weights for one exponent: closed forms on every cell, then
    # all 24 binomial terms on the cells small against their distance
    h = b - a
    q1 = q + 1.0
    q2 = q + 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m0 = (b ** q1 - a ** q1) / q1
        m1 = (b ** q2 - a ** q2) / q2
        wl = (m1 - a * m0) / h
        wr = (b * m0 - m1) / h
    small = h < 0.02 * b
    if np.any(small):
        asm = a[small]
        r = h[small] / asm
        ck = np.ones_like(r)
        sl = ck / 2.0
        sr = ck / 2.0
        for k in range(24):
            ck = ck * ((q - k) / (k + 1.0)) * r
            sl += ck / (k + 3.0)
            sr += ck / ((k + 2.0) * (k + 3.0))
        front = asm ** q * h[small]
        wl[small] = front * sl
        wr[small] = front * sr
    return wl, wr


def _folded_lr_by_term(lo, hi, power, mod, series):
    # the fold one modulator term at a time; also returns the term count
    if mod is None:
        return _lr_weights_scalar(lo, hi, power) + (None,)
    coeffs, _ = _ml_table(mod.beta, mod.gamma_, mod.delta, series.max_terms)
    wl = np.zeros_like(lo)
    wr = np.zeros_like(lo)
    small = 0
    cpow = 1.0
    for tau, coeff in enumerate(coeffs):
        at, bt = _lr_weights_scalar(lo, hi, power + mod.beta * tau)
        c = coeff * cpow
        wl += c * at
        wr += c * bt
        added = abs(c) * (np.sum(np.abs(at)) + np.sum(np.abs(bt)))
        if not math.isfinite(added):
            break
        scale = max(float(np.sum(np.abs(wl)) + np.sum(np.abs(wr))), 1e-290)
        if added <= 1e-17 * scale:
            small += 1
            if small >= _SMALL_TERMS:
                return wl, wr, tau + 1
        else:
            small = 0
        cpow *= mod.coef
    raise NonConvergence("reference fold did not converge")


def _grid_cells(t):
    m = np.arange(1.0, 512 * t + 2.0)
    return (m - 1.0) / 512, m / 512


def _graded_cells(t, m):
    x = t - _graded_nodes(t, m)
    return x[1:], x[:-1]


@pytest.mark.parametrize("power, mod, terms", [
    (-0.5, None, None),
    (0.3, None, None),
    # stops inside the first block of eight terms
    (0.2, MLModulator(0.5, 1.0, 0.0, -2.0), range(1, 9)),
    (-0.3, MLModulator(0.5, 0.7, 1.0, -1e-5), range(1, 9)),
    # stops at the last term of the first block or the first of the next
    (-0.3, MLModulator(0.9, 0.7, 1.0, -1e-3), range(8, 10)),
    # stops after several blocks
    (0.0, MLModulator(1.0, 1.0, 1.0, -1.0), range(16, 400)),
    (-0.2, MLModulator(0.8, 0.8, 2.0, -2.5), range(16, 400)),
    (-0.5, MLModulator(0.5, 0.5, 1.0, 1.5), range(16, 400)),
], ids=["plain-sqrt", "plain-power", "delta0", "first-block",
        "block-edge", "exp", "decaying", "growing"])
def test_blocked_fold_matches_term_by_term(power, mod, terms):
    # summing the modulator terms in blocks repeats the additions of the
    # term-by-term loop in its order, so the weights are bitwise equal on
    # grid cells and on graded meshes with their Richardson doubling
    series = SeriesControls()
    meshes = [_grid_cells(0.25), _grid_cells(3.0)]
    meshes += [_graded_cells(t, m) for t, m in ((0.4, 64), (2.5, 640))
               for m in (m, 2 * m)]
    for lo, hi in meshes:
        got = _folded_lr(lo, hi, power, mod, series)
        ref = _folded_lr_by_term(lo, hi, power, mod, series)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        if mod is not None:
            assert ref[2] in terms, ref[2]


def test_blocked_fold_raises_where_the_loop_does():
    lo, hi = _grid_cells(1.0)
    mod = MLModulator(0.8, 0.8, 2.0, -2.5)
    for budget in (5, 8, 20):
        series = SeriesControls(max_terms=budget)
        with pytest.raises(NonConvergence):
            _folded_lr_by_term(lo, hi, -0.2, mod, series)
        with pytest.raises(NonConvergence):
            _folded_lr(lo, hi, -0.2, mod, series)


class TestDerivativeStencil:
    def test_quadratic(self):
        assert abs(ddt(lambda t: t * t, 1.0) - 2.0) < 1e-8

    def test_decaying_exponential(self):
        got = ddt(lambda t: math.exp(-2.0 * t), 0.5)
        assert rel(got, -2.0 * math.exp(-1.0)) < 1e-8

    def test_near_origin_one_sided(self):
        # central differencing would step to negative time here
        got = ddt(math.exp, 0.0)
        assert abs(got - 1.0) < 1e-7


class TestInterpolantTransform:
    def test_against_per_cell_quadrature(self):
        grid = np.linspace(0.0, 8.0, 201)
        vals = np.cos(grid) * np.exp(-grid / 3.0)
        sf = SampledFunction(grid, vals)
        got = laplace_of_interpolant(sf, 1.7)
        # quadrature cell by cell: inside each cell the interpolant is a
        # line, so the reference is exact there; the documented constant
        # continuation past the last sample is added analytically
        ref = 0.0
        for a, b in zip(grid[:-1], grid[1:]):
            part, _ = si.quad(
                lambda u: np.interp(u, grid, vals) * math.exp(-1.7 * u),
                a, b, epsabs=1e-14, epsrel=1e-13)
            ref += part
        ref += vals[-1] * math.exp(-1.7 * grid[-1]) / 1.7
        assert rel(got, ref) < 1e-11

    def test_flat_sample_reproduces_transform_of_one(self):
        # constant samples plus the constant continuation give 1/s exactly
        grid = np.linspace(0.0, 30.0, 61)
        sf = SampledFunction(grid, np.ones_like(grid))
        assert rel(laplace_of_interpolant(sf, 2.0), 0.5) < 1e-12


@pytest.mark.parametrize("bad", [
    lambda: SampledFunction(np.array([1.0, 2.0]), np.array([0.0, 0.0])),
    lambda: SampledFunction(np.array([0.0, 2.0, 1.0]), np.zeros(3)),
    lambda: SampledFunction(np.array([0.0]), np.array([1.0, 2.0])),
    lambda: rl_integral(lambda u: 1.0, 1.0, 0.0),
    lambda: rl_integral(lambda u: 1.0, -1.0, 0.5),
    lambda: singular_convolution(lambda u: 1.0, 1.0, -1.0),
    lambda: singular_convolution(lambda u: 1.0, math.nan, 0.0),
    lambda: ConvolutionControls(points_per_unit=0),
    # only an MLModulator is folded; nothing samples another callable
    lambda: singular_convolution(lambda u: 1.0, 1.0, 0.0, math.cos),
    lambda: MLModulator(0.0, 1.0, 1.0, -1.0),
])
def test_input_validation(bad):
    with pytest.raises(DomainError):
        bad()
