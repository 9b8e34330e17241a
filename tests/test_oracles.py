"""Forward quadrature, fixed-Talbot inversion, and the Volterra stepper."""

import math
import warnings

import numpy as np
import pytest

from fkin.errors import (DomainError, OracleFailure, SingularStep,
                         TruncationWarning)
from fkin.fracops import SampledFunction
from fkin.kinetics import (KineticProblem, MLForcing, PowerLaw, Sampled,
                           Unit, laplace_domain, solve_power_closed,
                           solve_single_term)
from fkin.oracles import (StepperControls, TalbotControls, _lr_uniform,
                          forward_laplace, invert_laplace, laplace_image,
                          volterra_solve)
from fkin.specfun import gamma_recip, ml_one
from fkin.verification import verify_problem

# frozen from an extended-precision series evaluation
ML1_HALF_NEG1 = 0.427583576155807


def rel(got, ref):
    return abs(got - ref) / max(abs(ref), 1e-300)


class TestForward:
    def test_constant(self):
        assert rel(forward_laplace(lambda t: 1.0, 2.0), 0.5) < 1e-11

    def test_ramp(self):
        assert rel(forward_laplace(lambda t: t, 1.0), 1.0) < 1e-10

    def test_decaying_exponential(self):
        assert rel(forward_laplace(lambda t: math.exp(-t), 1.3),
                   1.0 / 2.3) < 1e-11

    def test_singular_head(self):
        # weighted quadrature handles an integrable power at the origin
        got = forward_laplace(lambda t: t ** -0.5, 2.0, head_power=-0.5)
        assert rel(got, math.sqrt(math.pi / 2.0)) < 1e-11

    def test_truncation_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            forward_laplace(lambda t: 1.0 / (1.0 + t) ** 2, 0.01, t_max=10.0)
        assert any(issubclass(w.category, TruncationWarning) for w in caught)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            forward_laplace(lambda t: 1.0, 0.0)
        with pytest.raises(DomainError):
            forward_laplace(lambda t: 1.0, 1.0, rel_tol=0.0)
        with pytest.raises(DomainError):
            forward_laplace(lambda t: 1.0, 1.0, head_power=-1.0)

    @pytest.mark.parametrize("s, head_power", [
        (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
    def test_non_finite_argument_rejected(self, s, head_power):
        with pytest.raises(DomainError):
            forward_laplace(lambda t: math.exp(-t), s, head_power=head_power)


class TestInvert:
    def test_pole_pair(self):
        got = invert_laplace(lambda s: 1.0 / (s + 1.0), 2.0)
        assert rel(got, math.exp(-2.0)) < 1e-9
        assert abs(got - 0.1353352832) < 1e-9

    def test_constant_original(self):
        assert rel(invert_laplace(lambda s: 1.0 / s, 1.0), 1.0) < 1e-9

    def test_ramp_original(self):
        assert rel(invert_laplace(lambda s: s ** -2.0, 3.0), 3.0) < 1e-9

    def test_sqrt_head(self):
        got = invert_laplace(lambda s: s ** -0.5, 2.0)
        assert rel(got, 1.0 / math.sqrt(math.pi * 2.0)) < 1e-8

    def test_oscillatory(self):
        for t in (1.0, 2.5):
            got = invert_laplace(lambda s: 1.0 / (s * s + 1.0), t)
            assert abs(got - math.sin(t)) < 1e-8

    def test_fractional_relaxation_pair(self):
        # s^{-1}(1 + s^{-1/2})^{-1} is the image of E_{1/2}(-sqrt(t))
        got = invert_laplace(lambda s: 1.0 / (s * (1.0 + s ** -0.5)), 1.0)
        assert rel(got, ML1_HALF_NEG1) < 1e-8
        assert rel(got, ml_one(0.5, -1.0)) < 1e-8

    def test_self_check_catches_contour_dependence(self):
        # a pole placed between the two contour passes changes the
        # residue content, so the passes must disagree loudly
        with pytest.raises(OracleFailure):
            invert_laplace(lambda s: 1.0 / (s - 8.5), 1.0)

    def test_non_finite_image_is_caught(self):
        # a time-limited sampled forcing: at t = 1/8 the contour reaches
        # Re s far below zero, where e^(-s T) of the image overflows
        grid = np.linspace(0.0, 8.0, 33)
        p = KineticProblem(1, (0.5,), (1.0,),
                           Sampled(SampledFunction(grid, grid.copy())))
        with np.errstate(all="ignore"), pytest.raises(OracleFailure):
            invert_laplace(lambda s: laplace_domain(p, s), 0.125)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            invert_laplace(lambda s: 1.0 / s, 0.0)
        for t in (math.nan, math.inf):
            # the image would never be evaluated at a non-finite t
            with pytest.raises(DomainError):
                invert_laplace(lambda s: pytest.fail("image evaluated"), t)
        with pytest.raises(DomainError):
            TalbotControls(contour_points=15)
        with pytest.raises(DomainError):
            TalbotControls(precision_target=0.0)


class TestRoundTrip:
    """Forward and inverse halves checked against the same closed pairs.

    The literal composition invert(forward(f)) is not well posed here:
    the truncated forward transform is entire, but along the inversion
    contour Re s goes far negative and the truncation error grows like
    e^{|Re s| T}, so each half is validated against the analytic pair
    instead.
    """

    PAIRS = [
        (lambda t: math.exp(-2.0 * t), lambda s: 1.0 / (s + 2.0)),
        (lambda t: t * math.exp(-t), lambda s: (s + 1.0) ** -2.0),
        (lambda t: math.sin(t) * math.exp(-t / 2.0),
         lambda s: 1.0 / ((s + 0.5) ** 2 + 1.0)),
    ]

    def test_forward_half(self):
        for f, F in self.PAIRS:
            for s in (0.7, 1.5, 4.0):
                assert rel(forward_laplace(f, s), F(s)) < 1e-9

    def test_inverse_half(self):
        for f, F in self.PAIRS:
            for t in (0.1, 0.8, 2.0, 5.0):
                assert abs(invert_laplace(F, t) - f(t)) < 1e-8


def _volterra_by_step(problem, controls):
    # the stepper as one Python step per grid point: the reference for
    # the Toeplitz solve of the same discrete equations
    dt = controls.dt
    n_steps = int(round(controls.t_end / dt))
    ts = dt * np.arange(n_steps + 1)
    fs = np.asarray(problem.forcing.value(ts), dtype=float)
    m = np.arange(n_steps + 2, dtype=float)
    bb = m * dt
    aa = np.maximum(m - 1.0, 0.0) * dt
    weights = []
    diag = 0.0
    for nu, rate in zip(problem.nus, problem.rates):
        wa, wb = _lr_uniform(aa, bb, nu - 1.0)
        g = gamma_recip(nu)
        wa *= g
        wb *= g
        weights.append((rate, wa, wb))
        diag += rate * wb[1]
    denom = 1.0 + diag
    out = np.empty(n_steps + 1)
    out[0] = problem.n0 * fs[0]
    for k in range(1, n_steps + 1):
        acc = 0.0
        for rate, wa, wb in weights:
            hist = np.dot(wa[1: k + 1], out[k - 1:: -1])
            if k > 1:
                hist += np.dot(wb[2: k + 1], out[k - 1: 0: -1])
            acc += rate * hist
        out[k] = (problem.n0 * fs[k] - acc) / denom
    return ts, out


_STEPPER_PANEL = {
    "classical": KineticProblem(1, (1.0,), (1.0,), Unit()),
    "half-order": KineticProblem(1, (0.5,), (1.0,), Unit()),
    "two-term": KineticProblem(1, (0.5, 1.0), (1.0, 0.5), Unit()),
    "three-term": KineticProblem(1, (0.5, 0.9, 1.6), (0.4, 0.2, 0.1),
                                 Unit()),
    "oscillator": KineticProblem(1, (2.0,), (1.0,), Unit()),
    "growth": KineticProblem(1, (0.5, 1.0), (-1.0, -0.5), Unit()),
    "power-2": KineticProblem(1, (0.5,), (1.0,), PowerLaw(2.0)),
    "ml-forcing": KineticProblem(2.0, (0.5, 1.0), (2.0 ** 0.5, 0.5),
                                 MLForcing(0.5, 2.0, 1.5, c=0.5)),
}


class TestVolterra:
    @pytest.mark.parametrize("name", sorted(_STEPPER_PANEL))
    @pytest.mark.parametrize("steps_per_unit", [512, 2048])
    def test_matches_step_by_step(self, name, steps_per_unit):
        problem = _STEPPER_PANEL[name]
        controls = StepperControls(dt=1.0 / steps_per_unit, t_end=2.0)
        ts, vals = volterra_solve(problem, controls)
        ref_ts, ref = _volterra_by_step(problem, controls)
        assert np.array_equal(ts, ref_ts)
        assert vals[0] == problem.n0 * float(problem.forcing.value(0.0))
        assert np.max(np.abs(vals - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_classical_decay(self):
        p = KineticProblem(1, (1.0,), (1.0,), Unit())
        ts, vals = volterra_solve(p, StepperControls(dt=1.0 / 512, t_end=5.0))
        assert ts[0] == 0.0 and vals[0] == 1.0
        err = np.max(np.abs(vals - np.exp(-ts)))
        assert err < 1e-5

    def test_cross_oracle_two_term(self):
        p = KineticProblem(1, (0.5, 1.0), (1.0, 0.5), Unit())
        ts, vals = volterra_solve(p, StepperControls(dt=1.0 / 512, t_end=2.0))
        image = laplace_image(p)
        for t_probe in (0.5, 1.0, 2.0):
            k = int(round(t_probe * 512))
            ref = invert_laplace(image, t_probe)
            assert rel(vals[k], ref) < 1e-4

    def test_against_power_closed(self):
        p = KineticProblem(1, (0.5,), (1.0,), PowerLaw(2.0))
        ts, vals = volterra_solve(p, StepperControls(dt=1.0 / 512, t_end=2.0))
        idx = [128, 512, 1024]
        ref = solve_power_closed(p, ts[idx])
        assert float(np.max(np.abs(vals[idx] - ref) / np.abs(ref))) < 1e-4

    def test_half_order_relaxation(self):
        p = KineticProblem(1, (0.5,), (1.0,), Unit())
        ts, vals = volterra_solve(p, StepperControls(dt=1.0 / 512, t_end=1.0))
        ref = solve_single_term(p, ts[-1:])
        assert rel(vals[-1], ref[0]) < 1e-4

    def test_singular_step_detected(self):
        # a negative rate can zero the marching denominator; here
        # 1 + rate dt^nu / Gamma(nu+2) = 1 - 4 * 0.5 / 2 = 0
        p = KineticProblem(1, (1.0,), (-4.0,), Unit())
        with pytest.raises(SingularStep):
            volterra_solve(p, StepperControls(dt=0.5, t_end=2.0))

    def test_negative_rate_growth(self):
        # mild negative rate: classical growth e^{+t/2}
        p = KineticProblem(1, (1.0,), (-0.5,), Unit())
        ts, vals = volterra_solve(p, StepperControls(dt=1.0 / 512, t_end=2.0))
        assert rel(vals[-1], math.exp(1.0)) < 1e-4

    def test_controls_validation(self):
        with pytest.raises(DomainError):
            StepperControls(dt=0.0)
        with pytest.raises(DomainError):
            StepperControls(dt=1e-9, t_end=1e3)

    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_controls_rejected(self, field, value):
        with pytest.raises(DomainError):
            StepperControls(**{field: value})

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
    def test_verify_problem_rejects_bad_step(self, dt):
        p = KineticProblem(1, (0.5,), (1.0,), Unit())
        with pytest.raises(DomainError):
            verify_problem(p, [0.5], dt=dt)


def test_image_matches_transform():
    p = KineticProblem(1, (1.0,), (1.0,), Unit())
    F = laplace_image(p)
    for s in (0.5, 2.0, 7.0):
        assert rel(F(s), 1.0 / (s * (1.0 + 1.0 / s))) < 1e-14
