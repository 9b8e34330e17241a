"""Fractional integrals, singular convolutions, and the derivative stencil."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as si

from fkin.errors import DomainError, NonConvergence
from fkin.fracops import (_EPS, ConvolutionControls, MLModulator,
                          SampledFunction, _binomial_sums,
                          _causal_convolutions, _folded_lr, _graded_nodes,
                          _lr_weights, ddt, laplace_of_interpolant,
                          rl_integral, rl_integral_grid, singular_convolution,
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
        # the error against the closed power rule must shrink with the
        # mesh: at t = 2 these densities give 64 to 512 cells
        a, b, t = 0.6, 1.3, 2.0
        ref = math.gamma(b + 1.0) / math.gamma(b + 1.0 + a) * t ** (b + a)
        errs = [abs(rl_integral(lambda u: u ** b, t, a,
                                ConvolutionControls(points_per_unit=n)) - ref)
                for n in (32, 64, 128, 256)]
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

    def test_causal_convolutions_match_fftconvolve(self):
        # the shared-transform pair repeats scipy.signal's real FFT
        # convolution bit for bit at every length fkin reaches (two or more)
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(18)
        for n in [*range(2, 601), 1023, 1024, 4097, 10241]:
            fs, k1, k2 = rng.standard_normal((3, n))
            got = _causal_convolutions(fs, (k1, k2))
            for kernel, conv in zip((k1, k2), got):
                assert np.array_equal(conv, fftconvolve(fs, kernel)[:n]), n

    def test_modulated_grid_keeps_its_bytes(self):
        # the same product rule with each convolution taken by
        # scipy.signal.fftconvolve as the reference
        from scipy.signal import fftconvolve

        mod = MLModulator(0.7, 1.3, 1.5, -0.9)
        dt, power = 1.0 / 128, -0.4
        fs = np.cos(3.0 * np.arange(0, 385) * dt) + 1.5
        n = fs.size - 1
        m = np.arange(1.0, n + 2.0)
        a, b = (np.concatenate(([0.0], w)) for w in
                _folded_lr((m - 1.0) * dt, m * dt, power, mod,
                           SeriesControls()))
        e = b[1: n + 2]
        ref = fftconvolve(fs, a[: n + 1])[: n + 1] + (
            fftconvolve(fs, e)[: n + 1] - fs[0] * e[: n + 1])
        ref[0] = 0.0
        got = singular_convolution_grid(fs, dt, power, mod)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid", [
        lambda fs, dt: singular_convolution_grid(fs, dt, -0.5),
        lambda fs, dt: rl_integral_grid(fs, dt, 0.7),
    ], ids=["convolution", "rl-integral"])
    @pytest.mark.parametrize("fs, dt", [
        (np.ones(9), math.nan),
        (np.ones(9), math.inf),
        (np.array([1.0, math.nan, 1.0]), 0.125),
    ], ids=["nan-dt", "inf-dt", "nan-sample"])
    def test_grid_rejects_non_finite_input(self, grid, fs, dt):
        with pytest.raises(DomainError):
            grid(fs, dt)


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
    # on the cells small against their distance the binomial terms up to
    # the first k where, at the largest ratio R, the geometric bound on
    # the rest of the series is under eps/64, added in order of k
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
        big_r = float(r.max())
        coeff, term, coeffs = 1.0, 1.0, [1.0]
        for k in range(64):
            rate = max(abs(q - k) / (k + 1.0), 1.0) * big_r
            if rate < 1.0 and term * rate <= 2.0 ** -52 / 64.0 * (1.0 - rate):
                break
            coeff *= (q - k) / (k + 1.0)
            term = abs(term * ((q - k) / (k + 1.0) * big_r))
            coeffs.append(coeff)
        else:
            coeffs = [math.nan]
        sl = np.zeros_like(r)
        sr = np.zeros_like(r)
        rk = np.ones_like(r)
        for k, coeff in enumerate(coeffs):
            cl = coeff / (k + 2.0)
            sl = sl + cl * rk
            sr = sr + cl / (k + 1.0) * rk
            rk = rk * r
        front = asm ** q * h[small]
        wl[small] = front * sl
        wr[small] = front * sr
    return wl, wr


def _folded_lr_by_term(lo, hi, power, mod, series):
    # the fold one modulator term at a time; also returns the term count
    if mod is None:
        return _lr_weights_scalar(lo, hi, power) + (None,)
    coeffs = _ml_table(mod.beta, mod.gamma_, mod.delta, series.max_terms)
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
    # stops within six terms, before the exponents 550 + 10 tau later in
    # its block leave what the binomial term budget certifies
    (550.0, MLModulator(10.0, 1.0, 1.0, -1e-3), range(3, 7)),
], ids=["plain-sqrt", "plain-power", "delta0", "first-block",
        "block-edge", "exp", "decaying", "growing", "steep"])
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


def test_exponent_weights_do_not_depend_on_their_block():
    # each exponent's term count comes from its own bound at the largest
    # ratio of the cells, so its weights are the same bytes alone as next
    # to any other exponents, certified or not
    qs = [-0.7, 0.0, 0.4, 3.0, 17.3, 95.0, 301.5, 2000.0]
    for lo, hi in (_grid_cells(3.0), _graded_cells(2.5, 640)):
        with np.errstate(over="ignore", invalid="ignore"):
            wl, wr = _lr_weights(lo, hi, qs)
            for i, q in enumerate(qs):
                al, ar = _lr_weights(lo, hi, q)
                assert al[0].tobytes() == wl[i].tobytes(), q
                assert ar[0].tobytes() == wr[i].tobytes(), q


def _sums_by_quadrature(q, r):
    # the binomial sums as the integrals of (1 + r s)^q against s and
    # 1 - s over [0, 1], to 40 digits
    with mp.workdps(40):
        q, r = mp.mpf(q), mp.mpf(r)
        return (mp.quad(lambda s: (1 + r * s) ** q * s, [0, 1]),
                mp.quad(lambda s: (1 + r * s) ** q * (1 - s), [0, 1]))


def test_binomial_sums_against_quadrature():
    # within a few units in the last place over the exponents the term
    # budget serves and the ratios of small cells, each ratio alone and
    # all in one call; at q = 300, r = 1/49.5 a fixed cut at 24 terms was
    # 7e-10 off
    qs = [-0.999, -0.5, -1e-3, 0.0, 0.3, 1.0, 2.7, 19.9, 64.5, 95.0, 150.3,
          299.9, 300.0]
    rs = [1e-8, 1e-5, 1e-3, 0.013, 1 / 49.5, 1 / 49]
    col = np.array(qs)[:, None]
    joint = _binomial_sums(col, np.array(rs))
    for j, r in enumerate(rs):
        alone = _binomial_sums(col, np.array([r]))
        for i, q in enumerate(qs):
            for k, ref in enumerate(_sums_by_quadrature(q, r)):
                for got in (joint[k][i, j], alone[k][i, 0]):
                    assert abs(got - ref) <= 4 * _EPS * abs(ref), (q, r, k)


def test_binomial_expansion_past_its_budget_raises():
    # q = 2000 needs about 150 terms at r = 1/49: its sums are NaN, not a
    # cut series, and both meshes raise on them
    sl, sr = _binomial_sums(np.array([[0.5], [2000.0]]),
                            np.array([1e-3, 1 / 49]))
    assert np.all(np.isfinite(sl[0])) and np.all(np.isfinite(sr[0]))
    assert np.all(np.isnan(sl[1])) and np.all(np.isnan(sr[1]))
    with pytest.raises(NonConvergence, match="binomial expansion"):
        singular_convolution(lambda u: 1.0 + u, 1.0, 2000.0)
    with pytest.raises(NonConvergence, match="binomial expansion"):
        singular_convolution_grid(np.ones(129), 1.0 / 128, 2000.0)


_THREAD_PROBE = """
import hashlib
import numpy as np
from fkin import (ConvolutionControls, KineticProblem, PowerLaw,
                  solve_multiterm_grid)
from fkin.fracops import MLModulator, _lr_weights, singular_convolution
problem = KineticProblem(1, (0.5, 1.0), (1.0, 2.0), PowerLaw(1.0))
_, grid = solve_multiterm_grid(problem, 1.0,
                               ConvolutionControls(points_per_unit=128))
point = singular_convolution(lambda u: np.cos(3.0 * u) + 1.5, 2.5, -0.4,
                             MLModulator(0.7, 1.3, 1.5, -0.9))
m = np.arange(1.0, 4097.0)
block = _lr_weights((m - 1.0) / 512, m / 512, 0.3 + 0.7 * np.arange(16.0))
for out in (grid, np.float64(point), *block):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_weights_do_not_depend_on_the_blas_thread_count():
    # the contractions take no BLAS call, so a grid solve, a pointwise
    # modulated convolution and a block of weights on 4096 cells give the
    # same bytes on one BLAS thread and on two (a matrix product over the
    # block does not, on OpenBLAS)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent
                                  / "src"))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


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


_SAMPLED = SampledFunction(np.array([0.0, 1.0, 2.0]),
                           np.array([1.0, 0.5, 0.2]))


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
    # non-finite arguments gave NaN, infinity or a row of NaN, and a
    # non-finite mesh density a ValueError or an OverflowError
    lambda: laplace_of_interpolant(_SAMPLED, math.nan),
    lambda: laplace_of_interpolant(_SAMPLED, complex(1.0, math.inf)),
    lambda: singular_convolution(lambda u: 1.0, 1.0, math.nan),
    lambda: singular_convolution(lambda u: 1.0, 1.0, math.inf),
    lambda: singular_convolution_grid(np.ones(5), 0.25, math.nan),
    lambda: MLModulator(math.nan, 1.0, 1.0, -1.0),
    lambda: MLModulator(0.5, math.inf, 1.0, -1.0),
    lambda: MLModulator(0.5, 1.0, math.nan, -1.0),
    lambda: MLModulator(0.5, 1.0, 1.0, -math.inf),
    lambda: ConvolutionControls(points_per_unit=math.nan),
    lambda: ConvolutionControls(points_per_unit=math.inf),
])
def test_input_validation(bad):
    with pytest.raises(DomainError):
        bad()


def test_mesh_density_may_be_fractional():
    assert ConvolutionControls(points_per_unit=100.5).points_per_unit == 100.5
