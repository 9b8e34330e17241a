"""Weakly singular convolutions and related fractional-calculus operations.

The central tool is product integration: on each cell of a (possibly
graded) mesh the smooth part of the integrand is replaced by its linear
interpolant while the power kernel ``(t-u)^p`` is integrated exactly.
Kernels carrying a Mittag-Leffler modulator are integrated exactly too, by
one rule for both meshes: ``_folded_lr`` folds the modulator series into
the cell weights term by term, and raises ``NonConvergence`` when its
stopping rule does not fire within the series budget or the coefficient
table.  Uniform-grid variants reduce to discrete convolutions and are
evaluated with FFTs.  Nothing here guards against cancellation: a
convolution whose weights are large against its value keeps only the
digits the difference leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergence
from .specfun import SeriesControls, _ml_table, _ml_values, gamma_recip

__all__ = [
    "ConvolutionControls",
    "MLModulator",
    "SampledFunction",
    "laplace_of_interpolant",
    "singular_convolution",
    "singular_convolution_grid",
    "rl_integral",
    "rl_integral_grid",
    "ddt",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConvolutionControls:
    """Mesh and extrapolation policy for singular convolutions.

    ``points_per_unit`` fixes the cell count per unit of integration length
    (never below ``min_points``).  ``grading`` is the mesh-grading strength;
    1 gives an exactly uniform mesh.  With ``richardson`` the value is
    recomputed on a doubled mesh and extrapolated, upgrading the O(h^2)
    interpolation error of the product rule to O(h^4).
    """

    points_per_unit: int = 512
    min_points: int = 64
    grading: int = 2
    richardson: bool = True
    series: SeriesControls = field(default_factory=SeriesControls)

    def __post_init__(self):
        if self.points_per_unit < 1 or self.min_points < 2:
            raise DomainError("cell counts must be positive")
        if self.grading < 1:
            raise DomainError("grading must be >= 1")


@dataclass(frozen=True)
class MLModulator:
    """Kernel factor ``E^delta_{beta, gamma_}(coef * x^beta)``.

    The argument power matches the first parameter, which is the shape all
    the kinetic-solution kernels take; it lets convolution weights absorb
    the factor exactly, term by term.
    """

    beta: float
    gamma_: float
    delta: float
    coef: float

    def __post_init__(self):
        if self.beta <= 0.0 or self.gamma_ <= 0.0:
            raise DomainError("beta and gamma_ must be > 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return _ml_values(self.beta, self.gamma_, self.delta,
                          self.coef * x ** self.beta)


@dataclass(frozen=True)
class SampledFunction:
    """Piecewise-linear function given by samples, constant beyond them."""

    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
            raise DomainError("need matching 1-D sample arrays of length >= 2")
        if ts[0] != 0.0 or np.any(np.diff(ts) <= 0.0):
            raise DomainError("sample times must increase strictly from 0")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(values))):
            raise DomainError("samples must be finite")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", values)

    def __call__(self, u):
        return np.interp(u, self.ts, self.values)


def laplace_of_interpolant(sf: SampledFunction, s):
    """Laplace transform of a sampled function, exactly segment by segment.

    Each linear segment is transformed in closed form; past the last sample
    the function is continued as a constant, contributing
    ``f(T) e^{-sT}/s``.  For nonpositive real parts that term is the
    analytic continuation of the transform, which is what contour-based
    inversion needs.  Complex ``s`` is supported; ``s = 0`` is a pole.
    """
    s = complex(s)
    if s == 0:
        raise DomainError("the transform has a pole at s = 0")
    ts, fs = sf.ts, sf.values
    h = np.diff(ts)
    slope = np.diff(fs) / h
    x = s * h
    ax = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(-x)
        phi1_big = (1.0 - ex) / s
        phi2_big = (1.0 - (1.0 + x) * ex) / (s * s)
    # Both closed forms cancel like x^2 as x -> 0; switch to series there.
    phi1_small = h * (1.0 - x / 2.0 + x ** 2 / 6.0 - x ** 3 / 24.0 + x ** 4 / 120.0)
    phi2_small = h * h * (0.5 - x / 3.0 + x ** 2 / 8.0 - x ** 3 / 30.0
                          + x ** 4 / 144.0 - x ** 5 / 840.0)
    use_series = ax < 1e-2
    phi1 = np.where(use_series, phi1_small, phi1_big)
    phi2 = np.where(use_series, phi2_small, phi2_big)
    head = np.exp(-s * ts[:-1])
    total = np.sum(head * (fs[:-1] * phi1 + slope * phi2))
    total += fs[-1] * np.exp(-s * ts[-1]) / s
    return complex(total)


def _graded_nodes(t, m, q):
    xi = np.linspace(0.0, 1.0, m + 1)
    if q == 1:
        return t * xi
    g = xi ** q / (xi ** q + (1.0 - xi) ** q)
    return t * g


def _cells_for(t, controls):
    return max(controls.min_points,
               int(math.ceil(controls.points_per_unit * t)))


def _eval_on(f, nodes):
    try:
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape == nodes.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(u)) for u in nodes])


def _lr_weights(a, b, q):
    """Per-cell product weights ``integral_A^B x^q (x-A) dx / h`` and
    ``integral_A^B x^q (B-x) dx / h`` for cell arrays ``a < b``.

    The closed forms difference nearby powers and lose ~(b/h)^2 eps of
    relative accuracy, so cells much smaller than their distance from the
    singularity switch to a binomial expansion in h/a instead.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
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


def _folded_lr(lo, hi, power, mod, series):
    """:func:`_lr_weights` of cells ``lo < hi`` against the kernel
    ``x^power E^delta_{beta, gamma_}(coef x^beta)`` of an
    :class:`MLModulator` (``x^power`` alone for None).

    Folds the modulator series into the power moments term by term, so the
    entire kernel is integrated exactly.  Stops once ``consecutive_small``
    successive terms add under 1e-17 of the weight mass; raises
    ``NonConvergence`` when the terms leave double range, or when
    ``series.max_terms`` terms or the coefficients double precision can
    hold run out first.
    """
    if mod is None:
        return _lr_weights(lo, hi, power)
    coeffs, _ = _ml_table(mod.beta, mod.gamma_, mod.delta, series.max_terms)
    wl = np.zeros_like(lo)
    wr = np.zeros_like(lo)
    small = 0
    cpow = 1.0
    for tau, coeff in enumerate(coeffs):
        at, bt = _lr_weights(lo, hi, power + mod.beta * tau)
        c = coeff * cpow
        wl += c * at
        wr += c * bt
        added = abs(c) * (np.sum(np.abs(at)) + np.sum(np.abs(bt)))
        if not math.isfinite(added):
            break
        scale = max(float(np.sum(np.abs(wl)) + np.sum(np.abs(wr))), 1e-290)
        if added <= 1e-17 * scale:
            small += 1
            if small >= series.consecutive_small:
                return wl, wr
        else:
            small = 0
        cpow *= mod.coef
    raise NonConvergence(
        "modulated kernel weights did not converge within the series "
        "budget in double precision")


def singular_convolution(f, t, power, modulator=None, controls=None,
                         n_cells=None):
    """``integral_0^t f(u) (t-u)^power modulator(t-u) du``.

    ``power`` must exceed -1.  ``modulator`` may be None, an
    :class:`MLModulator` (integrated exactly; ``NonConvergence`` when its
    series cannot be folded), or any callable of the lag that is smooth at
    zero (sampled at the nodes).  ``n_cells`` overrides
    the automatic cell count; derivative stencils rely on that to keep one
    fixed mesh family across neighboring evaluation points.
    """
    if power <= -1.0:
        raise DomainError("kernel exponent must exceed -1")
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    c = controls if controls is not None else ConvolutionControls()
    m_cells = n_cells if n_cells is not None else _cells_for(t, c)
    folded = modulator if isinstance(modulator, MLModulator) else None

    def level(m):
        nodes = _graded_nodes(t, m, c.grading)
        fs = _eval_on(f, nodes)
        x = t - nodes
        wl, wr = _folded_lr(x[1:], x[:-1], power, folded, c.series)
        if modulator is not None and folded is None:
            fs = fs * np.asarray(modulator(x), dtype=float)
        w = np.zeros_like(nodes)
        w[:-1] += wl
        w[1:] += wr
        return float(w @ fs)

    if c.richardson:
        return (4.0 * level(2 * m_cells) - level(m_cells)) / 3.0
    return level(m_cells)


def rl_integral(f, t, nu, controls=None, n_cells=None):
    """Riemann-Liouville fractional integral of order ``nu > 0`` at ``t``."""
    if nu <= 0.0:
        raise DomainError("the integral order must be positive")
    return gamma_recip(nu) * singular_convolution(f, t, nu - 1.0,
                                                  controls=controls,
                                                  n_cells=n_cells)


def singular_convolution_grid(fs, dt, power, modulator=None, series=None):
    """Values of the singular convolution at every node of a uniform grid.

    ``fs`` are samples at ``0, dt, 2 dt, ...``; the result has the same
    length with an exact zero first entry.  ``modulator`` may be None or
    an :class:`MLModulator`.  The product rule turns into a pair of
    discrete convolutions, evaluated by FFT: ``a[m], b[m]`` weight the
    samples ``m`` and ``m - 1`` cells before the target time.
    """
    # imported here, its only use: scipy.signal costs half a second to load
    import scipy.signal as _sig

    if power <= -1.0:
        raise DomainError("kernel exponent must exceed -1")
    fs = np.asarray(fs, dtype=float)
    n = fs.size - 1
    if n < 1:
        return np.zeros_like(fs)
    series = series if series is not None else SeriesControls()
    m = np.arange(1.0, n + 2.0)
    a, b = (np.concatenate(([0.0], w)) for w in
            _folded_lr((m - 1.0) * dt, m * dt, power, modulator, series))
    s1 = _sig.fftconvolve(fs, a[: n + 1])[: n + 1]
    e = b[1: n + 2]
    s2 = _sig.fftconvolve(fs, e)[: n + 1] - fs[0] * e[: n + 1]
    out = s1 + s2
    out[0] = 0.0
    return out


def rl_integral_grid(fs, dt, nu, series=None):
    """Riemann-Liouville integral of order ``nu`` on a uniform grid."""
    if nu <= 0.0:
        raise DomainError("the integral order must be positive")
    return gamma_recip(nu) * singular_convolution_grid(fs, dt, nu - 1.0,
                                                       series=series)


def ddt(g, t, scale=None, levels=2):
    """Derivative of ``g`` at ``t`` by extrapolated central differences.

    ``g`` must be smooth on a neighborhood of ``t``; when ``t`` sits too
    close to 0 a one-sided stencil is used instead.  ``scale`` sets the
    base step ``scale * eps^(1/3)``; it defaults to ``max(|t|, 1)``.
    Callers whose ``g`` is itself a quadrature must keep the mesh family
    frozen across calls, otherwise the rule differences quadrature noise.
    """
    if levels < 1:
        raise DomainError("levels must be >= 1")
    h0 = (scale if scale is not None else max(abs(t), 1.0)) * _EPS ** (1.0 / 3.0)
    if t > 4.0 * h0 * 2 ** (levels - 1):
        def diff(h):
            return (g(t + h) - g(t - h)) / (2.0 * h)
    else:
        def diff(h):
            return (-3.0 * g(t) + 4.0 * g(t + h) - g(t + 2.0 * h)) / (2.0 * h)
    vals = [diff(h0 / 2 ** k) for k in range(levels + 1)]
    fac = 4.0
    while len(vals) > 1:
        vals = [(fac * b - a) / (fac - 1.0) for a, b in zip(vals, vals[1:])]
        fac *= 4.0
    return float(vals[0])
