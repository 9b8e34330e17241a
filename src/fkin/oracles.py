"""Independent numerical checks for the closed-form solvers.

Two routes that share no code or mathematics with the solution formulas:

* fixed-Talbot inversion of the Laplace-domain image, evaluated on a
  deformed contour with a built-in second pass on perturbed parameters so
  silent inaccuracy turns into a raised error instead;
* a product-integration stepper that discretizes the governing Volterra
  equation directly on a uniform grid; its grid equations are one
  lower-triangular Toeplitz system, solved at once by power-series
  division with ``numpy.fft`` products (the solver's grid convolutions
  run on ``scipy.fft`` and are not used here).

A forward transform by adaptive quadrature rounds this out for checking
transform pairs.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleFailure, SingularStep, TruncationWarning
from .kinetics import KineticProblem, laplace_domain
from .specfun import gamma_recip

__all__ = [
    "TalbotControls",
    "StepperControls",
    "forward_laplace",
    "invert_laplace",
    "volterra_solve",
    "laplace_image",
]

# Contour-scale ceiling: e^(scale) multiplies rounding noise of the image
# values, so the classic scale 2M/5 is capped; 9.0 gave the best worst-case
# over a panel of known pairs on t in [0.1, 10] in double precision.
_SCALE_CAP = 9.0

# e^(-s t) falls by e^-_DECAY over t = _DECAY / s: the default truncation
# point of the forward transform, and the width of its first piece past
# the head.
_DECAY = 45.0


@dataclass(frozen=True)
class TalbotControls:
    """Contour size and acceptance threshold for the inversion."""

    contour_points: int = 64
    precision_target: float = 1e-9

    def __post_init__(self):
        if self.contour_points < 16 or self.contour_points % 2:
            raise DomainError("contour_points must be even and >= 16")
        if not (0.0 < self.precision_target < 1.0):
            raise DomainError("precision_target must lie in (0, 1)")


@dataclass(frozen=True)
class StepperControls:
    """Grid for the direct Volterra discretization."""

    dt: float = 1.0 / 512.0
    t_end: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_end < math.inf):
            raise DomainError("dt and t_end must be positive and finite")
        if self.t_end / self.dt > 1e7:
            raise DomainError("grid would exceed 1e7 steps")


def _talbot_once(transform, t, m, scale):
    r = scale / t
    theta = (np.arange(1, m) * math.pi) / m
    cot = np.cos(theta) / np.sin(theta)
    s = r * theta * (cot + 1j)
    # derivative factor of the contour s(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    total = 0.5 * math.exp(r * t) * complex(transform(complex(r, 0.0))).real
    for k in range(m - 1):
        fv = complex(transform(complex(s[k])))
        total += (cmath.exp(t * s[k]) * fv * (1.0 + 1j * sigma[k])).real
    return float((r / m) * total)


def invert_laplace(transform, t, controls=None):
    """Value at ``t`` of the function whose Laplace image is ``transform``.

    Fixed-Talbot contour inversion.  The result is recomputed with a
    larger contour and a smaller scale; if the two disagree beyond ten
    times ``precision_target``, or either pass is not finite, an
    :class:`OracleFailure` is raised, so a quietly wrong inversion (image
    singularities near the contour, precision exhaustion, an image that
    overflows on the contour) cannot slip through.
    """
    c = controls if controls is not None else TalbotControls()
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError("inversion needs a finite t > 0")
    m = c.contour_points
    scale = min(0.4 * m, _SCALE_CAP)
    v1 = _talbot_once(transform, t, m, scale)
    v2 = _talbot_once(transform, t, m + 16, 0.85 * scale)
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise OracleFailure(
            f"contour sum is not finite at t={t:g}: {v1!r} vs {v2!r}")
    # disagreements below 1e-12 are accepted outright: the weighted sums
    # carry e^scale roundoff, so the contour cannot resolve finer than
    # that in double precision (near a zero of the original both passes
    # return such noise and a relative test would be meaningless)
    gap = abs(v1 - v2)
    if (gap > 10.0 * c.precision_target * max(abs(v1), abs(v2))
            and gap > 1e-12):
        raise OracleFailure(
            f"contour self-check disagrees at t={t:g}: {v1!r} vs {v2!r}"
        )
    return v1


def forward_laplace(f, s, head_power=0.0, t_max=None, abs_tol=1e-12,
                    rel_tol=1e-12):
    """``integral_0^inf f(t) e^(-s t) dt`` for real ``s > 0`` by quadrature.

    ``head_power`` declares the power-law behavior ``f ~ t^head_power``
    at the origin (must exceed -1) so the singular part can be handled by
    a weighted rule.  Past ``t = 1`` the integral runs over pieces of
    width ``45 / s``, doubling, and is truncated at ``t_max`` (``max(1, 45
    / s)`` when omitted) or at the end of the first piece that adds less
    than the tolerances; if the discarded tail is not provably negligible
    a :class:`TruncationWarning` is emitted.  Loosening ``rel_tol`` stops
    subdivision earlier, which matters when ``f`` is expensive.
    """
    # imported here, its only use: scipy.integrate pulls in scipy.optimize
    # and scipy.linalg, a third of a second to load
    import scipy.integrate as _si

    if not 0.0 < s < math.inf:
        raise DomainError("the quadrature route needs real finite s > 0")
    if not -1.0 < head_power < math.inf:
        raise DomainError("head_power must be finite and exceed -1")
    if not 0.0 < rel_tol < 1.0:
        raise DomainError("rel_tol must lie in (0, 1)")
    if t_max is not None and not t_max > 0.0:
        raise DomainError("t_max must be positive")
    upper = t_max if t_max is not None else max(1.0, _DECAY / s)
    cut = min(1.0, upper)
    total = 0.0
    if head_power != 0.0:
        # the weighted rule may probe t = 0 exactly, where the smooth
        # factor is a 0 * inf limit; a subnormal stand-in evaluates it
        def smooth(t, _tiny=1e-300):
            t = t if t > 0.0 else _tiny
            return f(t) * t ** (-head_power) * math.exp(-s * t)
        part, _ = _si.quad(smooth, 0.0, cut, weight="alg",
                           wvar=(head_power, 0.0), epsabs=abs_tol,
                           epsrel=rel_tol, limit=400)
        total += part
    else:
        part, _ = _si.quad(lambda t: f(t) * math.exp(-s * t), 0.0, cut,
                           epsabs=abs_tol, epsrel=rel_tol, limit=400)
        total += part
    # past the head, pieces on the scale 1/s where e^(-st) lives, each
    # twice as wide as the last, until one adds nothing or upper is reached:
    # one quadrature over [cut, 1e300] would never sample that scale
    end, width = cut, _DECAY / s
    while end < upper:
        start, end = end, min(upper, end + width)
        part, _ = _si.quad(lambda t: f(t) * math.exp(-s * t), start, end,
                           epsabs=abs_tol, epsrel=rel_tol, limit=400)
        total += part
        width *= 2.0
        if abs(part) <= max(abs_tol, rel_tol * abs(total)):
            break
    tail_bound = abs(f(end)) * math.exp(-s * end) / s
    if tail_bound > max(1e-14, 1e-12 * abs(total)):
        warnings.warn(
            f"truncated at t={end:g} with tail bound {tail_bound:.2e}",
            TruncationWarning)
    return total


def laplace_image(problem: KineticProblem):
    """The solution's Laplace image as a callable, for contour inversion."""
    return lambda s: laplace_domain(problem, s)


def volterra_solve(problem: KineticProblem, controls=None):
    """Direct product-integration solution of the governing equation.

    Discretizes ``N = N0 f - sum_j a_j I^{nu_j} N`` on a uniform grid with
    piecewise-linear product weights.  The grid equations form a
    lower-triangular Toeplitz system, solved at once as a power-series
    quotient (Newton inversion with FFT products); no Mittag-Leffler
    machinery is involved, making this an independent check of the
    closed forms.  Returns ``(ts, values)``.
    """
    c = controls if controls is not None else StepperControls()
    n_steps = int(round(c.t_end / c.dt))
    if abs(n_steps * c.dt - c.t_end) > 1e-9 * c.t_end:
        raise DomainError("t_end must be a whole number of steps")
    dt = c.dt
    ts = dt * np.arange(n_steps + 1)
    fs = np.asarray(problem.forcing.value(ts), dtype=float)
    if not np.all(np.isfinite(fs)):
        raise DomainError("forcing must be finite on the grid")
    m = np.arange(n_steps + 2, dtype=float)
    bb = m * dt
    aa = np.maximum(m - 1.0, 0.0) * dt
    # grid step k >= 1 reads
    #   sum_{i=1}^{k} kern[k-i] out[i] + head[k-1] out[0] = n0 f[k];
    # column 0 has no wb term, so it is not Toeplitz and moves to the right
    kern = np.zeros(n_steps)
    head = np.zeros(n_steps)
    for nu, rate in zip(problem.nus, problem.rates):
        wa, wb = _lr_uniform(aa, bb, nu - 1.0)
        g = gamma_recip(nu)
        wa *= g
        wb *= g
        kern += rate * (wa[:n_steps] + wb[1:n_steps + 1])
        head += rate * wa[1:n_steps + 1]
    kern[0] += 1.0
    if abs(kern[0]) < 1e-14:
        raise SingularStep("the implicit update coefficient vanishes")
    out = np.empty(n_steps + 1)
    out[0] = problem.n0 * fs[0]
    rhs = problem.n0 * fs[1:] - head * out[0]
    out[1:] = _cyclic(rhs, _series_reciprocal(kern), 2 * n_steps)[:n_steps]
    return ts, out


def _cyclic(a, b, size):
    # cyclic convolution over the first power of two >= size; numpy.fft,
    # not the solver's FFT plumbing, keeps the oracle independent
    n = 1 << (size - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)


def _series_reciprocal(c):
    # first len(c) coefficients of 1 / sum_k c[k] x^k by Newton doubling,
    # g <- g + g (1 - c g): each pass doubles the coefficients held
    sizes = []
    n = len(c)
    while n > 1:
        sizes.append(n)
        n = (n + 1) // 2
    g = np.array([1.0 / c[0]])
    for size in reversed(sizes):
        held = len(g)
        # coefficients held..size-1 of c g; with a cyclic length >= size
        # the wrapped part of the product lands below held
        miss = _cyclic(c[:size], g, size)[held:size]
        g = np.concatenate([g, -_cyclic(g, miss, size)[:size - held]])
    return g


def _lr_uniform(aa, bb, q):
    # kept separate from the solver-side helper on purpose: the oracle
    # must not share numerical plumbing with what it checks
    h = bb - aa
    q1 = q + 1.0
    q2 = q + 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m0 = (bb ** q1 - aa ** q1) / q1
        m1 = (bb ** q2 - aa ** q2) / q2
        wa = (m1 - aa * m0) / h
        wb = (bb * m0 - m1) / h
    small = h < 0.02 * bb
    if np.any(small):
        asm = aa[small]
        r = h[small] / asm
        ck = np.ones_like(r)
        sl = ck / 2.0
        sr = ck / 2.0
        for k in range(24):
            ck = ck * ((q - k) / (k + 1.0)) * r
            sl += ck / (k + 3.0)
            sr += ck / ((k + 2.0) * (k + 3.0))
        front = asm ** q * h[small]
        wa[small] = front * sl
        wb[small] = front * sr
    wa[0] = 0.0
    wb[0] = 0.0
    return wa, wb
