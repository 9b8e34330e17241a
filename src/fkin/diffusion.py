"""Fundamental solution of time-fractional diffusion and the stable density.

The solution of the fractional Cauchy problem with a point initial mass is
an H-function of the similarity variable; near the source its convergent
residue series are evaluated (one and three dimensions, plus the planar
logarithmic asymptote), never a general H-function engine.  The one-sided
stable density that subordinates the process is a power series the same
way.

Away from the source, and for the stable density at small times, those
alternating series lose their leading digits to cancellation.  There the
values come from Kanter's representation of the stable density (Kanter
1975, Ann. Probab. 3:697), whose integrand is positive, so nothing
cancels.  Through the M-Wright relation (Mainardi, Mura and Pagnini 2010,
Int. J. Differ. Equ. 2010:104505) the same integral gives the
one-dimensional solution, and differentiating under it the
three-dimensional one.  The solutions switch to it past two diffusion
lengths, ``B = x^2/(4 D t^alpha) > 1``; the stable density wherever its
series fails its rounding guard.  The integral is certified by two
Gauss-Legendre rules that must agree, so every returned value is
trustworthy or an exception.  Up to the switch the two residue families
of the solution cancel each other too little to fail their joint
double-precision rounding guard, so the bulk is served in double
precision, and a sum that fails it raises ``NonConvergence``.  The
residue series takes one route at every radius below the switch: each
term as whole powers of the mantissas of ``x`` and ``4 D t^alpha`` times
a coefficient built once per call, with the powers of two applied
exactly, so it keeps its digits from the switch down to the smallest
radii.  Only the explicit one- and three-dimensional series, which serve
as the cross-check of the series and the integral, are re-summed by the
one extended-precision engine of :mod:`fkin.specfun` when they fail
their guard, with their tails cut at the working precision.

Both solutions and the stable density take a 1-D array of radii or
times as well as one point, and evaluate a call's points together.  They
sort the points into the origin or the underflow floor, the series and
Kanter's integral.  The coefficients of the series do not depend on the
point, so one call builds them once and drops them on return; the series
of all its points form one term array, each point a row with its own
guard, and the quadrature nodes of all its Kanter points one array, each
point with its own panels, sums and certificate.  So each value is still
that of the call at its point alone, and a call that fails raises what
its first failing point raises alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sc

from .errors import DomainError, NonConvergence, NotSupported
from .specfun import (_EPS, _GUARD_FACTOR, _GUARD_REL, _Family,
                      _gamma_recip_array, _log_abs_rgamma, _sum_extended,
                      gamma_recip)

__all__ = [
    "DiffusionProblem",
    "StableParams",
    "fundamental_solution",
    "series_n1",
    "series_n3",
    "asymptotic_n2",
    "levy_density",
]

# largest scaled argument A = x^2/(diff_coeff * t^alpha) the series
# accept; 64 diffusion lengths, far beyond any resolvable density
_MAX_A = 4096.0
_BUDGET = 2000
_MP_BUDGET = 20000
_STOP_TOL = 1e-16
# exp of anything below this rounds to zero in double
_LOG_UNDERFLOW = -746.0
# the smallest normal double
_TINY = float(np.finfo(float).tiny)

# past B = x^2/(4 D t^alpha) = 1, two diffusion lengths, the one- and
# three-dimensional solutions come from Kanter's integral, not the series;
# below it the residue families cancel too little to fail their guard
_KANTER_B = 1.0
# Kanter panels end where c (A - A(0)) reaches these levels; the last one
# cuts the integral where the integrand has fallen by e^-60
_KANTER_LEVELS = (1.0, 3.0, 7.0, 14.0, 25.0, 40.0, 60.0)
# Gauss-Legendre nodes per panel of the coarse rule; the fine rule has twice
# as many, and the two must agree to _KANTER_TOL
_KANTER_NODES = 16
_KANTER_TOL = 1e-13
# rows of one series term array: a call with more points sums them in
# blocks of this many, so no array grows with the call
_ROWS = 128


@dataclass(frozen=True)
class DiffusionProblem:
    """Time-fraction, diffusion constant, and spatial dimension."""

    alpha: float
    diff_coeff: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")
        if not (self.diff_coeff > 0.0 and math.isfinite(self.diff_coeff)):
            raise DomainError("diff_coeff must be positive and finite")
        if self.dim not in (1, 2, 3):
            raise DomainError("dim must be 1, 2, or 3")


@dataclass(frozen=True)
class StableParams:
    """Index of the one-sided stable density."""

    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise DomainError("rho must lie in (0, 1)")


def _budget_for(slope):
    # double-precision reciprocal gamma overflows once the argument
    # passes about -170; the caller's gamma argument is g0 - slope*m
    if slope <= 0.0:
        return _BUDGET
    return int(min(_BUDGET, max(64.0, 168.0 / slope)))


def _fsum_with_guard(terms):
    """``(totals, converged, clean)`` arrays for alternating tail-stopped
    series, one entry per row of ``terms`` (its first axis).  The terms of
    a row, all its further axes, are summed together: each of its series
    must end below the stopping tolerance of that sum, and the rounding
    guard weighs their summed magnitude against it, so series that cancel
    each other fail it.  A row's total is ``math.fsum`` of its nonzero
    terms, which is exactly that of the whole row; its summed magnitude is
    ``np.sum`` of the whole row, zeros too, whose pairwise rounding they
    shape.  A row with a non-finite term gives ``(0.0, False, False)``."""
    rows = terms.reshape(len(terms), -1)
    mags = np.abs(rows)
    absum = mags.sum(axis=1)
    finite = np.isfinite(rows).all(axis=1)
    nonzero = mags != 0.0
    flat = rows[nonzero].tolist()
    totals = np.zeros(len(rows))
    start = 0
    for i, (count, ok) in enumerate(zip(nonzero.sum(axis=1).tolist(),
                                        finite.tolist())):
        if ok:
            # an all-zero row keeps the sign of its zeros
            totals[i] = math.fsum(flat[start:start + count] if count
                                  else rows[i].tolist())
        start += count
    size = np.abs(totals)
    scale = np.maximum(np.maximum(size, _EPS * absum), 1e-300)
    tail = mags.reshape(terms.shape)[..., -3:].reshape(len(rows), -1)
    converged = finite & (tail.max(axis=1) <= _STOP_TOL * scale)
    clean = finite & (_GUARD_FACTOR * _EPS * absum <= _GUARD_REL * size)
    return totals, converged, clean


def _alt_coefficients(g0, slope):
    """``(-1)^m rgamma(g0 - slope m)`` over the term budget of ``slope``:
    the part of the terms of :func:`_alt_sum` that does not depend on
    ``w``.  A sign flip is exact, so either factor of a term may carry
    it."""
    ms = np.arange(_budget_for(slope), dtype=float)
    coefs = _gamma_recip_array(g0 - slope * ms)
    coefs[1::2] = -coefs[1::2]
    return coefs


def _alt_sum(w, coefs):
    """``sum_m w^m coefs[m] / m!`` in double precision at each entry of
    the 1-D array ``w``, with ``coefs`` from :func:`_alt_coefficients`,
    or NaN where the sum fails :func:`_fsum_with_guard`.  The terms of
    all entries form one matrix, the factorial factors by ``cumprod``
    along its rows."""
    if w.size > _ROWS:
        return np.concatenate([_alt_sum(w[i:i + _ROWS], coefs)
                               for i in range(0, w.size, _ROWS)])
    ms = np.arange(coefs.size, dtype=float)
    fac = np.ones((w.size, coefs.size))
    fac[:, 1:] = np.cumprod(w[:, None] / ms[1:], axis=1)
    totals, converged, clean = _fsum_with_guard(fac * coefs)
    totals[~(converged & clean)] = math.nan
    return totals


def _alt_series(alpha, A, drop):
    """sum_m (-sqrt(A))^m rgamma(1 - drop alpha - alpha m/2) / m!, re-summed
    in extended precision, with a coefficient table of its own, when the
    double sum fails its guard."""
    total = float(_alt_sum(np.array([math.sqrt(A)]),
                           _alt_coefficients(1.0 - drop * alpha,
                                             alpha / 2.0))[0])
    if not math.isnan(total):
        return total

    def build():
        import mpmath as mp

        am = mp.mpf(alpha)
        return _Family(1, -mp.sqrt(A), (), 1 - drop * am, -am / 2)

    return _sum_extended(build, None, _MP_BUDGET, {})


def series_n1(alpha, A):
    """Similarity-series factor of the one-dimensional solution.

    Returns ``sum_m (-1)^m A^(m/2) / (Gamma(1 - alpha(m+1)/2) m!)``; the
    caller supplies the ``1/(2 sqrt(D) t^(alpha/2))`` prefactor.  Terms
    whose gamma argument lands on a pole vanish identically, which is
    what collapses the sum to a Gaussian at ``alpha = 1``.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    if not (A >= 0.0 and math.isfinite(A)):
        raise DomainError("A must be finite and nonnegative")
    if A > _MAX_A:
        raise NonConvergence(f"A={A:g} beyond the validated radius {_MAX_A:g}")
    return _alt_series(alpha, A, 0.5)


def series_n3(alpha, A):
    """Similarity-series factor of the three-dimensional solution.

    Returns ``sum_m (-1)^m A^(m/2) / (Gamma(1 - alpha(1 + m/2)) m!)``;
    the caller supplies the ``1/(4 pi D^(3/2) t^(3 alpha/2) sqrt(A))``
    prefactor, which is singular at ``A = 0``.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    if not (A > 0.0 and math.isfinite(A)):
        raise DomainError("A must be finite and positive")
    if A > _MAX_A:
        raise NonConvergence(f"A={A:g} beyond the validated radius {_MAX_A:g}")
    return _alt_series(alpha, A, 1.0)


def asymptotic_n2(alpha, x, t):
    """Small-x logarithmic form of the planar solution (unit diffusivity).

    ``ln(t^(alpha/2)/x) / (2 pi Gamma(1-alpha) t^alpha)`` for
    ``0 < x <= t^(alpha/2)``; the boundary gives exactly 0.  The log
    coefficient is the planar heat kernel ``1/(4 pi tau)`` integrated
    against the subordinator density ``t^-alpha / Gamma(1-alpha)`` at
    ``tau = 0``.  This is the leading behavior only, not a convergent
    series, and the constant beside the logarithm is not the solution's.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("the logarithmic form needs alpha in (0, 1)")
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    if not x > 0.0:
        raise DomainError("x must be positive")
    half = t ** (alpha / 2.0)
    if x > half:
        raise DomainError("x beyond the diffusion length: asymptote invalid")
    return (math.log(half / x) * gamma_recip(1.0 - alpha)
            / (2.0 * math.pi * t ** alpha))


def _residue_coefficients(alpha, n_dim):
    """The parts of the terms of :func:`_residue_sum` that do not depend on
    ``x``, one row per residue family: the powers ``p = p0 + l`` of ``B``,
    the powers ``2p - n`` of ``x``, and the signs and magnitudes of
    ``(-1)^l Gamma(c0 - l) rg(d0 - alpha l) / l!`` times ``pi^(-n/2)``."""
    # one row per family: c0, p0 and d0 of its terms
    c0 = np.array([[1.0 - n_dim / 2.0], [n_dim / 2.0 - 1.0]])
    p0 = np.array([[n_dim / 2.0], [1.0]])
    d0 = np.array([[1.0 - alpha * n_dim / 2.0], [1.0 - alpha]])
    ls = np.arange(_budget_for(alpha), dtype=float)
    # numerator gamma sits on half-integers for odd n: never a pole
    cn = c0 - ls
    gd = d0 - alpha * ls
    rg = _gamma_recip_array(gd)
    logs = _sc.gammaln(cn) - _sc.gammaln(ls + 1.0) + _log_abs_rgamma(gd)
    logs[rg == 0.0] = -math.inf
    powers = p0 + ls
    # rg, not gammasgn(gd): that is NaN at the poles where rg is 0
    signs = np.where(ls % 2 == 0, 1.0, -1.0) * _sc.gammasgn(cn) * np.sign(rg)
    # drop the trailing terms that are exactly zero in double at every B up
    # to the switch to Kanter's integral
    n = np.flatnonzero(np.any(logs + powers * math.log(_KANTER_B)
                              >= _LOG_UNDERFLOW, axis=0))[-1] + 1
    powers, logs = powers[:, :n], logs[:, :n]
    return (powers, 2.0 * powers - n_dim, signs[:, :n],
            np.exp(logs - 0.5 * n_dim * math.log(math.pi)))


def _scale_parts(d, t, alpha):
    """``4 D t^alpha`` as ``(m, e)``, ``m`` in [1/2, 2) and ``e`` even,
    from the exact parts of ``D`` and ``t^alpha``: it need not lie in the
    double range, and where it does ``m 2^e`` is its double."""
    md, ed = math.frexp(d)
    mt, et = math.frexp(t ** alpha)
    m, e = math.frexp(md * mt)
    e += ed + et + 2
    return (2.0 * m, e - 1) if e % 2 else (m, e)


def _scaled_square(x, scale):
    """``B = x^2 / scale`` with ``scale`` as :func:`_scale_parts` gives it,
    ``inf`` past the double range; where ``x^2``, the scale and ``B`` are
    all normal doubles this is the double ``x*x/scale``, bit for bit."""
    ms, es = scale
    mx, ex = math.frexp(x)
    try:
        return math.ldexp(mx * mx / ms, 2 * ex - es)
    except OverflowError:
        return math.inf


def _origin_value(alpha, d, t, scale):
    """The one-dimensional value at the origin,
    ``rgamma(1 - alpha/2) / (2 sqrt(D) t^(alpha/2))``.  Where that divisor
    is not a finite normal double, or the quotient is subnormal, the
    divisor is ``sqrt(m) 2^(e/2)`` from the parts ``(m, e)`` of ``scale =
    4 D t^alpha`` (:func:`_scale_parts`) and the quotient is rounded into
    the double range once; a value past it raises ``NonConvergence``."""
    g = gamma_recip(1.0 - alpha / 2.0)
    den = 2.0 * math.sqrt(d) * t ** (alpha / 2.0)
    if _TINY <= den < math.inf and g / den >= _TINY:
        return g / den
    ms, es = scale
    try:
        return math.ldexp(g / math.sqrt(ms), -es // 2)
    except OverflowError:
        raise NonConvergence(f"density at the origin at D={d:g}, t={t:g} "
                             "is beyond the double range") from None


def _residue_sum(coeffs, xs, scale):
    """The double pole-residue series of the contour solution at the radii
    ``xs > 0``, each with ``B = x^2/scale <= _KANTER_B``, ``scale = 4 D
    t^alpha`` as :func:`_scale_parts` gives it, the range whose nonzero
    terms the coefficients keep:
    ``(sqrt(pi) x)^(-n)`` times
    ``sum_l (-1)^l Gamma(1-n/2-l) B^(n/2+l) rg(1-alpha n/2-alpha l)/l!
    + sum_l (-1)^l Gamma(n/2-1-l) B^(1+l) rg(1-alpha-alpha l)/l!``,
    from the rows of ``coeffs`` (:func:`_residue_coefficients`).

    Each power ``p`` of ``B`` gives the term ``x^(2p-n) scale^-p
    pi^(-n/2)`` times its coefficient.  With ``x = mx 2^ex`` and ``scale =
    ms 2^es`` split exactly (``mx`` in [1/2, 1), ``ms`` in [1/2, 2) and
    ``es`` even), the powers of ``mx`` and ``ms`` are taken whole and
    those of two exactly, so no large logs cancel and the scale may lie
    outside the double range.  The terms of a radius are summed under the
    largest of their powers of two and scaled back by one ``ldexp``: no
    term leaves the double range on its own, and the value is rounded
    into it once.  All radii share one (radii x 2 x terms) array.  The
    families cancel each other as B grows, so the rounding guard of
    :func:`_fsum_with_guard` weighs both together; a sum that fails it, or
    a value past the double range (at D = t = 1, a radius below about
    1e-308), raises ``NonConvergence`` for the first such radius.
    """
    if xs.size > _ROWS:
        return np.concatenate([_residue_sum(coeffs, xs[i:i + _ROWS], scale)
                               for i in range(0, xs.size, _ROWS)])
    powers, xpow, signs, mags = coeffs
    ms, es = scale
    mx, ex = np.frexp(xs)
    mx, ex = mx[:, None, None], ex[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        mant = signs * np.power(mx, xpow) * np.power(ms, -powers) * mags
    exps = (ex * xpow - es * powers).astype(np.int64)
    tops = exps.reshape(xs.size, -1).max(axis=1)
    totals, converged, clean = _fsum_with_guard(
        np.ldexp(mant, exps - tops[:, None, None]))
    out = []
    for x, total, ok, top in zip(xs.tolist(), totals.tolist(),
                                 (converged & clean).tolist(), tops.tolist()):
        if not ok:
            raise NonConvergence(
                f"residue series at x={x:g} fails its rounding guard")
        if math.frexp(total)[1] + top > 1024:
            raise NonConvergence(
                f"residue series at x={x:g} is beyond the double range")
        out.append(math.ldexp(total, top))
    return np.array(out)


# Taylor coefficients of sin(x)/x - 1 in powers of x^2, to x^20
_SINC_TAYLOR = tuple((-1.0) ** k / math.factorial(2 * k + 1)
                     for k in range(1, 11))


def _log_sinc(x):
    """``log(sin(x)/x)`` elementwise on (0, pi), without cancellation
    near 0: a Taylor polynomial of ``sin(x)/x - 1`` below 1, the log of
    the quotient elsewhere."""
    out = np.empty_like(x)
    small = x < 1.0
    xs = x[small]
    x2 = xs * xs
    poly = np.zeros_like(x2)
    for coef in reversed(_SINC_TAYLOR):
        poly = poly * x2 + coef
    out[small] = np.log1p(x2 * poly)
    big = x[~small]
    out[~small] = np.log(np.sin(big) / big)
    return out


def _kanter_log_ratio(rho, phi):
    """``log(A(phi)/A(0))`` for Kanter's
    ``A(phi) = (sin(rho phi)/sin phi)^(1/(1-rho)) sin((1-rho) phi)/sin(rho phi)``,
    formed from ``log(sin(x)/x)`` so that ``A - A(0)`` keeps its digits
    near ``phi = 0``; one :func:`_log_sinc` call takes all three of its
    arguments."""
    lr, lphi, ls = np.split(
        _log_sinc(np.concatenate([rho * phi, phi, (1.0 - rho) * phi])), 3)
    return (lr - lphi) / (1.0 - rho) + ls - lr


def _kanter_a0(rho):
    return rho ** (rho / (1.0 - rho)) * (1.0 - rho)


def _kanter_edges(rho, c, a0):
    """The sorted panel edges of Kanter's integral at ``c``: 0, the points
    where ``c (A - A(0))`` reaches each level of ``_KANTER_LEVELS``, and
    edges graded towards pi up to the last of them, each no nearer pi than
    half the distance of the one before.  Each crossing is bisected from
    the one before to about a thousandth of its distance from either end
    of (0, pi).  A panel edge needs no more, so ``A`` is formed directly
    in double."""
    sin, pi = math.sin, math.pi
    power, rest = 1.0 / (1.0 - rho), 1.0 - rho
    edges = [0.0]
    for level in _KANTER_LEVELS:
        target = a0 + level / c
        lo, hi = edges[-1], pi
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            sr = sin(rho * mid)
            if (sr / sin(mid)) ** power * sin(rest * mid) / sr < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-3 * (hi if hi < pi - hi else pi - hi):
                break
        edges.append(hi)
    gap = 2.0 * (pi - edges[-1])
    while gap < pi:
        edges.append(pi - gap)
        gap *= 2.0
    return sorted(set(edges))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _kanter_moments(rho, c, log_scale):
    """``exp(log_scale - c A(0)) (I1, I2)`` with ``I_k = (1/pi) int_0^pi
    A^k exp(-c (A - A(0))) dphi``, the moments of Kanter's integral, at
    each entry of the 1-D arrays ``c`` and ``log_scale``.

    ``A`` increases from ``A(0)`` to infinity, so panels end where
    ``c (A - A(0))`` reaches the levels of ``_KANTER_LEVELS``, the last of
    which cuts the integral.  Where ``c`` is small the cut comes close to
    the pole of ``A`` at pi, and the panels before it are graded towards
    pi, each no wider than its distance from pi (:func:`_kanter_edges`).
    Gauss-Legendre rules of ``_KANTER_NODES`` and twice as many nodes per
    panel must agree to ``_KANTER_TOL`` in both moments, or
    ``NonConvergence`` is raised; the finer rule is returned.  A scale
    that underflows gives zeros without any quadrature; one past the
    double range raises ``NonConvergence``.  The nodes of every entry and
    both rules lie in one array, but each entry has its own panels, sums
    and certificate, so its moments are those of a call at it alone.
    """
    a0 = _kanter_a0(rho)
    m1, m2 = np.zeros(c.size), np.zeros(c.size)
    los, his, panels, live = [], [], [], []
    for i, (ci, li) in enumerate(zip(c.tolist(), log_scale.tolist())):
        li -= ci * a0
        if li > 709.0:
            raise NonConvergence("density beyond the double range")
        scale = math.exp(li)
        if scale == 0.0:
            continue
        edges = _kanter_edges(rho, ci, a0)
        los += edges[:-1]
        his += edges[1:]
        panels.append(len(edges) - 1)
        live.append((i, ci, scale))
    if not live:
        return m1, m2
    lo = np.array(los)[:, None]
    widths = np.array(his)[:, None] - lo
    # the coarse rule's nodes of every entry, then the fine rule's
    rules = [_gauss_legendre(n) for n in (_KANTER_NODES, 2 * _KANTER_NODES)]
    phi = np.concatenate([(lo + widths * nodes).ravel() for nodes, _ in rules])
    scaled = np.concatenate([(widths * weights).ravel()
                             for _, weights in rules])
    sizes = np.concatenate([np.array(panels) * nodes.size
                            for nodes, _ in rules])
    decay = np.repeat([-ci * a0 for _, ci, _ in live] * 2, sizes)
    log_ratio = _kanter_log_ratio(rho, phi)
    a = a0 * np.exp(log_ratio)
    f = scaled * np.exp(decay * np.expm1(log_ratio)) * a
    fa = f * a
    bounds = [0] + np.cumsum(sizes).tolist()
    blocks = [slice(start, end) for start, end in zip(bounds, bounds[1:])]
    for (i, ci, scale), coarse, fine in zip(live, blocks, blocks[len(live):]):
        (c1, c2), (i1, i2) = [(float(np.sum(f[block])) / math.pi,
                               float(np.sum(fa[block])) / math.pi)
                              for block in (coarse, fine)]
        if not (abs(c1 - i1) <= _KANTER_TOL * i1
                and abs(c2 - i2) <= _KANTER_TOL * i2):
            raise NonConvergence(
                f"Kanter quadrature rules disagree at rho={rho:g}, c={ci:g}")
        m1[i], m2[i] = scale * i1, scale * i2
    return m1, m2


def _kanter_solution(alpha, dim, d, xs, t):
    """One- or three-dimensional solution from Kanter's integral at the
    radii ``xs``.

    With ``nu = alpha/2``, ``ell = sqrt(D) t^nu``, ``r = x/ell``,
    ``q = 1/(1-nu)`` and ``c = r^q`` the M-Wright relation gives
    ``u1 = q r^(nu q) e^(-c A(0)) I1 / (2 ell)``; differentiating under
    the integral gives ``u3 = -(1/(2 pi x)) du1/dx``
    ``= q r^(nu q - 2) e^(-c A(0)) (q c I2 - nu q I1) / (4 pi ell^3)``.
    For ``ell`` outside [1/2, 1e100] the divisor joins the scale
    ``e^(-c A(0))`` in log space; a value past the double range raises
    ``NonConvergence``.  One :func:`_kanter_moments` call serves all
    radii.
    """
    nu = alpha / 2.0
    q = 1.0 / (1.0 - nu)
    ell = math.sqrt(d) * t ** nu
    inside = 0.5 <= ell <= 1e100
    if not inside:
        log_ell = 0.5 * math.log(d) + nu * math.log(t)
    cs, log_scales, dens = [], [], []
    for x in xs.tolist():
        if inside:
            r = x / ell
            den = 2.0 * ell if dim == 1 else 4.0 * math.pi * ell ** 3 * r * r
            log_den = 0.0
        else:
            # x / sqrt(D) is at most 64 t^nu: no part leaves the double range
            r, den = x / math.sqrt(d) / t ** nu, 1.0
            log_den = (math.log(2.0) + log_ell if dim == 1
                       else math.log(4.0 * math.pi) + 3.0 * log_ell
                       + 2.0 * math.log(r))
        cs.append(r ** q)
        dens.append(den)
        log_scales.append(math.log(q) + nu * q * math.log(r) - log_den)
    m1, m2 = _kanter_moments(nu, np.array(cs), np.array(log_scales))
    out = []
    for x, c, den, v1, v2 in zip(xs.tolist(), cs, dens, m1.tolist(),
                                 m2.tolist()):
        value = v1 / den if dim == 1 else (q * c * v2 - nu * q * v1) / den
        if not math.isfinite(value):
            raise NonConvergence(
                f"density at x={x:g} is beyond the double range")
        out.append(value)
    return np.array(out)


def _points(v, name):
    """``v``, a scalar or a 1-D array, as a 1-D float array, and whether
    it was a scalar."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim > 1:
        raise DomainError(f"{name} must be a scalar or a 1-D array")
    return np.atleast_1d(arr), arr.ndim == 0


def _first_failure(evaluate, points):
    """``evaluate(points)``.  Where that raises ``NonConvergence`` the
    points are evaluated one by one, so that a call raises what its first
    failing point raises alone."""
    try:
        return evaluate(points)
    except NonConvergence as exc:
        if points.size == 1:
            raise
        error = exc
    for i in range(points.size):
        evaluate(points[i:i + 1])
    raise error


def fundamental_solution(p: DiffusionProblem, x, t):
    """Density at radius ``x``, time ``t``, of the point-source solution.

    ``x`` is a radius or a 1-D array of radii; an array gives an array,
    each entry bitwise equal to the call at that radius alone.  The radii
    of a call are sorted into the origin, the series and Kanter's
    integral, and each group is evaluated together: the series
    coefficients, which do not depend on ``x``, are built once per call,
    the series of all radii form one array, and one quadrature serves all
    of Kanter's radii.  A call that fails raises what its first failing
    radius raises alone.  Dimensions 1 and 3 evaluate the double
    pole-residue series of the contour-integral solution at
    ``B = x^2/(4 D t^alpha)`` with the ``|sqrt(pi) x|^(-n)`` prefactor up
    to ``B = 1``, two diffusion lengths, by one route at every radius
    (:func:`_residue_sum`); a sum that fails its rounding guard, or a
    value past the double range, raises ``NonConvergence``; ``B`` and
    ``4 D t^alpha`` need not lie in the double range.  In one
    dimension the origin, and a radius with ``B^(1/2) <= 1e-20``, take
    the origin value ``rgamma(1 - alpha/2) / (2 sqrt(D) t^(alpha/2))``
    (:func:`_origin_value`), which the series would give to rounding.
    Past ``B = 1`` they evaluate Kanter's integral directly, with no
    series attempt; a quadrature whose two rules disagree raises
    ``NonConvergence``, as do ``B`` beyond ``_MAX_A/4`` (``B`` that
    overflows names ``x``, ``D`` and ``t``) and a value past the double
    range.  The explicit one- and three-dimensional sums serve as
    independent cross-checks in the test suite.  Dimension 2 has no
    convergent series of this form and raises ``NotSupported``;
    :func:`asymptotic_n2` gives its leading logarithmic term near the
    origin.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    xs, scalar = _points(x, "x")
    if not np.all((xs >= 0.0) & (xs < math.inf)):
        raise DomainError("x is a radius and must be finite and nonnegative")
    if p.dim == 2:
        raise NotSupported("no certified planar route; asymptotic_n2 gives "
                           "the leading term near the origin")
    if p.dim == 3 and np.any(xs == 0.0):
        raise DomainError("the three-dimensional density diverges at x=0")
    out = _first_failure(lambda pts: _solution(p, pts, t), xs)
    return float(out[0]) if scalar else out


def _solution(p, xs, t):
    """:func:`fundamental_solution` at the 1-D array ``xs`` of radii."""
    d = p.diff_coeff
    scale = _scale_parts(d, t, p.alpha)
    origin, series, kanter = [], [], []
    for i, xi in enumerate(xs.tolist()):
        B = _scaled_square(xi, scale)
        if p.dim == 1 and B <= 1e-40:
            # the origin, or a radius whose terms past the first are
            # B^(1/2) <= 1e-20 of it and less
            origin.append(i)
        elif B == math.inf:
            raise NonConvergence(
                f"B = x^2/(4 D t^alpha) overflows at x={xi:g}, D={d:g}, "
                f"t={t:g}: beyond the validated radius {_MAX_A:g}")
        elif B > _MAX_A / 4.0:
            raise NonConvergence(f"scaled argument {4.0 * B:g} beyond the "
                                 f"validated radius {_MAX_A:g}")
        else:
            (kanter if B > _KANTER_B else series).append(i)
    out = np.empty(xs.size)
    if origin:
        out[origin] = _origin_value(p.alpha, d, t, scale)
    if series:
        out[series] = _residue_sum(_residue_coefficients(p.alpha, p.dim),
                                   xs[series], scale)
    if kanter:
        out[kanter] = _kanter_solution(p.alpha, p.dim, d, xs[kanter], t)
    return out


def levy_density(sp: StableParams, t):
    """One-sided stable density with Laplace transform ``exp(-u^rho)``.

    ``t`` is a time or a 1-D array of times; an array gives an array, each
    entry bitwise equal to the call at that time alone.  The times of a
    call are sorted into those below the underflow floor, the series and
    Kanter's integral, and each group is evaluated together: the
    reciprocal gamma factors, which do not depend on ``t``, are built once
    per call, the series of all times form one term matrix, and one
    quadrature serves all of Kanter's times.  A call that fails raises
    what its first failing time raises alone.  Power series in
    ``t^(-rho)`` from term-by-term inversion of the transform's
    exponential series; the poles of the reciprocal gamma factor silently
    remove every term with integer ``k rho``.  Where the series fails to
    converge or its rounding guard, at small times and for ``rho`` near 1,
    Kanter's integral
    ``(rho/(1-rho)) t^(-1/(1-rho)) (1/pi) int_0^pi A exp(-c A) dphi``
    with ``c = t^(-rho/(1-rho))`` is evaluated instead, certified by two
    Gauss-Legendre rules or ``NonConvergence``.  Below the saddle-point
    floor the density underflows and 0.0 is returned without summing.
    """
    ts, scalar = _points(t, "t")
    if not np.all((ts > 0.0) & (ts < math.inf)):
        raise DomainError("t must be positive and finite")
    out = _first_failure(lambda pts: _levy(sp.rho, pts), ts)
    return float(out[0]) if scalar else out


def _levy(rho, ts):
    """:func:`levy_density` at the 1-D array ``ts`` of times."""
    a0 = _kanter_a0(rho)
    q = 1.0 / (1.0 - rho)
    times = ts.tolist()
    out = np.zeros(ts.size)
    # steepest-descent exponent -c A(0); 30 nats of slack for the
    # algebraic factor.  Past log c = 700 the exponent is far below that
    # floor, and c itself would overflow.
    live = [i for i, ti in enumerate(times)
            if not (-rho / (1.0 - rho) * math.log(ti) > 700.0
                    or -a0 * ti ** (-rho / (1.0 - rho)) + 30.0 < -640.0)]
    if not live:
        return out
    totals = _alt_sum(np.array([times[i] ** (-rho) for i in live]),
                      _alt_coefficients(0.0, rho))
    kanter = []
    for i, total in zip(live, totals.tolist()):
        if math.isnan(total):
            kanter.append(i)
            continue
        density = total / times[i]
        if not math.isfinite(density):
            raise NonConvergence(
                f"stable density at t={times[i]:g} exceeds the double range")
        out[i] = density
    if kanter:
        # Kanter: (rho q) t^(-q) e^(-c A(0)) I1 with q = 1/(1-rho)
        out[kanter] = _kanter_moments(
            rho, np.array([times[i] ** (-rho * q) for i in kanter]),
            np.array([math.log(rho * q) - q * math.log(times[i])
                      for i in kanter]))[0]
    return out
