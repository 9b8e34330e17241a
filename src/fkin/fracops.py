"""Weakly singular convolutions and related fractional-calculus operations.

The central tool is product integration: on each cell of a mesh graded
towards both ends the smooth part of the integrand is replaced by its
linear interpolant while the power kernel ``(t-u)^p`` is integrated
exactly, and the value is extrapolated from the mesh and its doubling.
Kernels carrying a Mittag-Leffler modulator are integrated exactly too, by
one rule for both meshes: ``_folded_lr`` folds the modulator series into
the cell weights a block of terms at a time, each block one array of
weights by exponent and cell, and raises ``NonConvergence`` when its
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
from .specfun import (_SMALL_TERMS, SeriesControls, _ml_table, _ml_values,
                      gamma_recip)

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
# Terms of the binomial expansion of the cell weights, at most.
_BINOMIAL_TERMS = 24
# Modulator terms folded per _lr_weights call.  Larger blocks overshoot
# the stopping term where the fold is compute-bound.
_FOLD_BLOCK = 16
_FOLD_FAILURE = ("modulated kernel weights did not converge within the "
                 "series budget in double precision")
# Cells of a graded mesh, at least, and its grading strength.
_MIN_CELLS = 64
_GRADING = 2


@dataclass(frozen=True)
class ConvolutionControls:
    """Mesh density and series budget for singular convolutions.

    ``points_per_unit`` fixes the cell count per unit of integration length,
    never below 64 cells.  The mesh is graded quadratically towards both
    ends, and every value is recomputed on the doubled mesh and
    extrapolated, upgrading the O(h^2) interpolation error of the product
    rule to O(h^4).  ``series`` bounds the modulator terms folded into the
    weights.
    """

    points_per_unit: int = 512
    series: SeriesControls = field(default_factory=SeriesControls)

    def __post_init__(self):
        if self.points_per_unit < 1:
            raise DomainError("points_per_unit must be positive")


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


def _graded_nodes(t, m):
    xi = np.linspace(0.0, 1.0, m + 1)
    g = xi ** _GRADING / (xi ** _GRADING + (1.0 - xi) ** _GRADING)
    return t * g


def _cells_for(t, controls):
    return max(_MIN_CELLS, int(math.ceil(controls.points_per_unit * t)))


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
    ``integral_A^B x^q (B-x) dx / h`` for cell arrays ``a < b``, one row
    per exponent of ``q`` (a scalar or 1-D array).

    The closed forms difference nearby powers and lose ~(b/h)^2 eps of
    relative accuracy, so cells much smaller than their distance from the
    singularity take a binomial expansion in h/a instead, and only the
    other cells form the powers.  The expansion stops per cell once no
    later term can change its sums in double precision, after at most
    ``_BINOMIAL_TERMS`` terms.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.reshape(np.asarray(q, dtype=float), (-1, 1))
    h = b - a
    wl = np.empty((q.shape[0], a.size))
    wr = np.empty_like(wl)
    small = h < 0.02 * b
    big = ~small
    if np.any(big):
        ab, bb, hb = a[big], b[big], h[big]
        q1 = q + 1.0
        q2 = q + 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            m0 = (_powers(bb, q1) - _powers(ab, q1)) / q1
            m1 = (_powers(bb, q2) - _powers(ab, q2)) / q2
            wl[:, big] = (m1 - ab * m0) / hb
            wr[:, big] = (bb * m0 - m1) / hb
    if np.any(small):
        asm = a[small]
        r = h[small] / asm
        sl, sr = _binomial_sums(q, r)
        front = _powers(asm, q) * h[small]
        wl[:, small] = front * sl
        wr[:, small] = front * sr
    return wl, wr


def _powers(x, q):
    """``x ** q`` with one row per exponent of the column ``q``, each row
    raised to a float exponent.  numpy's power over an array of exponents
    may take a SIMD loop that rounds differently in the last bit, and it
    skips the exact square-root and square paths of a float exponent."""
    return np.array([x ** e for e in q.ravel().tolist()])


def _binomial_sums(q, r):
    """Sums ``sl = sum_k C(q, k) r^k / (k + 2)`` and ``sr = sum_k C(q, k)
    r^k / ((k + 1)(k + 2))`` of :func:`_lr_weights`, one row per exponent
    of the column ``q``, for the ratios ``r = h/a < 1/49`` of small cells.

    Both sums are averages of ``(1 + r s)^q > 0.98`` (``q > -1``) against
    weights of mass 1/2, so they exceed 1/4.  Past term ``k`` every ratio
    of successive terms is at most ``R = max(|q - k - 1| / (k + 2), 1) r``.
    Once ``R < 1`` and ``|c_k| R < eps/64``, each later term is under half
    an ulp of the sum it is added to and cannot change it: the cell is
    done.  Cells are taken in decreasing order of ``r``, and each term is
    added only up to the last cell not yet done in some row.
    """
    order = np.argsort(-r, kind="stable")
    r = r[order]
    ck = np.ones((q.shape[0], r.size))
    sl = ck / 2.0
    sr = ck / 2.0
    live = r.size
    qlo, qhi = float(q.min()), float(q.max())
    for k in range(_BINOMIAL_TERMS):
        c = ck[:, :live] * ((q - k) / (k + 1.0)) * r[:live]
        ck[:, :live] = c
        sl[:, :live] += c / (k + 3.0)
        sr[:, :live] += c / ((k + 2.0) * (k + 3.0))
        # every later ratio of successive terms is at most bound * r
        bound = max(abs(qlo - k - 1.0), abs(qhi - k - 1.0), k + 2.0) \
            / (k + 2.0)
        if bound * r[0] < 1.0:
            undone = np.nonzero((np.abs(c) * r[:live]
                                 >= _EPS / 64.0 / bound).any(axis=0))[0]
            if not undone.size:
                break
            live = int(undone[-1]) + 1
    out_l = np.empty_like(sl)
    out_r = np.empty_like(sr)
    out_l[:, order] = sl
    out_r[:, order] = sr
    return out_l, out_r


def _folded_lr(lo, hi, power, mod, series):
    """:func:`_lr_weights` of cells ``lo < hi`` against the kernel
    ``x^power E^delta_{beta, gamma_}(coef x^beta)`` of an
    :class:`MLModulator` (``x^power`` alone for None).

    Folds the modulator series into the power moments, so the entire
    kernel is integrated exactly, in blocks of ``_FOLD_BLOCK`` terms: one
    :func:`_lr_weights` call per block, whose rows are accumulated into
    the running weights with ``cumsum``, in the order a term-by-term loop
    adds them.  Stops at the first term where ``_SMALL_TERMS`` successive
    terms have added under 1e-17 of the weight mass; raises
    ``NonConvergence`` when the terms leave double range, or when
    ``series.max_terms`` terms or the coefficients double precision can
    hold run out first.
    """
    if mod is None:
        wl, wr = _lr_weights(lo, hi, power)
        return wl[0], wr[0]
    coeffs, _ = _ml_table(mod.beta, mod.gamma_, mod.delta, series.max_terms)
    wl = np.zeros((1, lo.size))
    wr = np.zeros((1, lo.size))
    small = 0
    cpow = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(0, len(coeffs), _FOLD_BLOCK):
            block = coeffs[n:n + _FOLD_BLOCK]
            taus = np.arange(n, n + block.size, dtype=float)
            at, bt = _lr_weights(lo, hi, power + mod.beta * taus)
            pows = np.cumprod(np.concatenate(
                ([cpow], np.full(block.size, mod.coef))))
            c = (block * pows[:-1])[:, None]
            cpow = pows[-1]
            wl = np.cumsum(np.concatenate((wl[-1:], c * at)), axis=0)[1:]
            wr = np.cumsum(np.concatenate((wr[-1:], c * bt)), axis=0)[1:]
            added = np.abs(c[:, 0]) * (np.sum(np.abs(at), axis=1)
                                       + np.sum(np.abs(bt), axis=1))
            scale = np.maximum(np.sum(np.abs(wl), axis=1)
                               + np.sum(np.abs(wr), axis=1), 1e-290)
            for i, (add, sc) in enumerate(zip(added.tolist(),
                                              scale.tolist())):
                if not math.isfinite(add):
                    raise NonConvergence(_FOLD_FAILURE)
                if add <= 1e-17 * sc:
                    small += 1
                    if small >= _SMALL_TERMS:
                        return wl[i], wr[i]
                else:
                    small = 0
    raise NonConvergence(_FOLD_FAILURE)


def singular_convolution(f, t, power, modulator=None, controls=None,
                         n_cells=None):
    """``integral_0^t f(u) (t-u)^power modulator(t-u) du``.

    ``power`` must exceed -1.  ``modulator`` may be None or an
    :class:`MLModulator`, integrated exactly (``NonConvergence`` when its
    series cannot be folded).  The value is extrapolated from the graded
    mesh of ``n_cells`` cells and its doubling.  ``n_cells`` overrides the
    automatic cell count; derivative stencils rely on that to keep one
    fixed mesh family across neighboring evaluation points.
    """
    if power <= -1.0:
        raise DomainError("kernel exponent must exceed -1")
    if not 0.0 <= t < math.inf:
        raise DomainError("t must be finite and nonnegative")
    if modulator is not None and not isinstance(modulator, MLModulator):
        raise DomainError("modulator must be None or an MLModulator")
    if t == 0.0:
        return 0.0
    c = controls if controls is not None else ConvolutionControls()
    m_cells = n_cells if n_cells is not None else _cells_for(t, c)

    def level(m):
        nodes = _graded_nodes(t, m)
        fs = _eval_on(f, nodes)
        x = t - nodes
        wl, wr = _folded_lr(x[1:], x[:-1], power, modulator, c.series)
        w = np.zeros_like(nodes)
        w[:-1] += wl
        w[1:] += wr
        return float(w @ fs)

    return (4.0 * level(2 * m_cells) - level(m_cells)) / 3.0


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


def ddt(g, t):
    """Derivative of ``g`` at ``t`` by extrapolated central differences.

    ``g`` must be smooth on a neighborhood of ``t``; when ``t`` sits too
    close to 0 a one-sided stencil is used instead.  The base step is
    ``max(|t|, 1) eps^(1/3)``, halved twice, and the three differences are
    Richardson-extrapolated.  Callers whose ``g`` is itself a quadrature
    must keep the mesh family frozen across calls, otherwise the rule
    differences quadrature noise.
    """
    h0 = max(abs(t), 1.0) * _EPS ** (1.0 / 3.0)
    if t > 8.0 * h0:
        def diff(h):
            return (g(t + h) - g(t - h)) / (2.0 * h)
    else:
        def diff(h):
            return (-3.0 * g(t) + 4.0 * g(t + h) - g(t + 2.0 * h)) / (2.0 * h)
    vals = [diff(h0 / 2 ** k) for k in range(3)]
    fac = 4.0
    while len(vals) > 1:
        vals = [(fac * b - a) / (fac - 1.0) for a, b in zip(vals, vals[1:])]
        fac *= 4.0
    return float(vals[0])
