"""Fundamental solution of time-fractional diffusion and the stable density.

The solution of the fractional Cauchy problem with a point initial mass is
an H-function of the similarity variable; near the source its convergent
residue series are evaluated (one and three dimensions, plus the planar
logarithmic asymptote), never a general H-function engine.  The one-sided
stable density that subordinates the process is a power series the same
way.

Deep in the spatial tail, and for the stable density at small times, those
alternating series lose all their leading digits to cancellation.  There
the values come from Kanter's representation of the stable density
(Kanter 1975, Ann. Probab. 3:697), whose integrand is positive, so nothing
cancels.  Through the M-Wright relation (Mainardi, Mura and Pagnini 2010,
Int. J. Differ. Equ. 2010:104505) the same integral gives the
one-dimensional solution, and differentiating under it the
three-dimensional one.  The solutions switch to it past eight diffusion
lengths, ``B = x^2/(4 D t^alpha) > 16``; the stable density wherever its
series fails its rounding guard.  The integral is certified by two
Gauss-Legendre rules that must agree, so every returned value is
trustworthy or an exception.  A residue series that fails its
double-precision rounding guard (the bulk solution for alpha near 1, and
the explicit one- and three-dimensional series that serve as the
cross-check of both routes) is re-summed by the one extended-precision
engine of :mod:`fkin.specfun`, with its tails cut at the working
precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
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

# past B = x^2/(4 D t^alpha) = 16, eight diffusion lengths, the one- and
# three-dimensional solutions come from Kanter's integral, not the series
_KANTER_B = 16.0
# Kanter panels end where c (A - A(0)) reaches these levels; the last one
# cuts the integral where the integrand has fallen by e^-60
_KANTER_LEVELS = (1.0, 3.0, 7.0, 14.0, 25.0, 40.0, 60.0)
# Gauss-Legendre nodes per panel of the coarse rule; the fine rule has twice
# as many, and the two must agree to _KANTER_TOL
_KANTER_NODES = 16
_KANTER_TOL = 1e-13


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
    """(value, converged, clean) for an alternating tail-stopped array."""
    if not np.all(np.isfinite(terms)):
        return 0.0, False, False
    total = math.fsum(terms)
    absum = float(np.sum(np.abs(terms)))
    scale = max(abs(total), _EPS * absum, 1e-300)
    tail = np.abs(terms[-3:])
    converged = bool(np.all(tail <= _STOP_TOL * scale))
    clean = _GUARD_FACTOR * _EPS * absum <= _GUARD_REL * abs(total)
    return total, converged, clean


def _alt_sum(w, g0, slope):
    """:func:`_fsum_with_guard` of ``sum_m (-w)^m rgamma(g0 - slope m) / m!``
    in double precision, over the term budget of ``slope``."""
    n = _budget_for(slope)
    ms = np.arange(n, dtype=float)
    fac = np.ones(n)
    fac[1:] = np.cumprod(w / ms[1:])
    terms = np.where(ms % 2 == 0, fac, -fac) \
        * _gamma_recip_array(g0 - slope * ms)
    return _fsum_with_guard(terms)


def _alt_series(alpha, A, drop):
    """sum_m (-sqrt(A))^m rgamma(1 - drop alpha - alpha m/2) / m!, re-summed
    in extended precision when the double sum fails its guard."""
    total, converged, clean = _alt_sum(math.sqrt(A), 1.0 - drop * alpha,
                                       alpha / 2.0)
    if converged and clean:
        return total

    def build():
        am = mp.mpf(alpha)
        return [_Family(1, -mp.sqrt(A), (), (1,), 1 - drop * am, -am / 2)]

    return _sum_extended(build, None, _MP_BUDGET)


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


def _two_sum(alpha, n_dim, B):
    """The double pole-residue series of the contour solution.

    ``sum_l (-1)^l Gamma(1-n/2-l) B^(n/2+l) rg(1-alpha n/2-alpha l)/l!
    + sum_l (-1)^l Gamma(n/2-1-l) B^(1+l) rg(1-alpha-alpha l)/l!``
    evaluated through log magnitudes so no intermediate factor overflows.
    """
    fams = (
        (1.0 - n_dim / 2.0, n_dim / 2.0, 1.0 - alpha * n_dim / 2.0),
        (n_dim / 2.0 - 1.0, 1.0, 1.0 - alpha),
    )
    total = 0.0
    all_conv = True
    all_clean = True
    logw = math.log(B) if B > 0.0 else -math.inf
    n = _budget_for(alpha)
    ls = np.arange(n, dtype=float)
    for c0, p0, d0 in fams:
        # numerator gamma sits on half-integers for odd n: never a pole
        cn = c0 - ls
        gd = d0 - alpha * ls
        rg = _gamma_recip_array(gd)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (p0 + ls) * logw + _sc.gammaln(cn) \
                - _sc.gammaln(ls + 1.0) + _log_abs_rgamma(gd)
        logs[rg == 0.0] = -math.inf
        signs = np.where(ls % 2 == 0, 1.0, -1.0) * _sc.gammasgn(cn) \
            * np.where(gd > 0.0, 1.0, _sc.gammasgn(gd))
        terms = signs * np.exp(logs)
        val, converged, clean = _fsum_with_guard(terms)
        total += val
        all_conv = all_conv and converged
        all_clean = all_clean and clean
    if all_conv and all_clean:
        return total

    def build():
        # P_0 = Gamma(c0) B^p0, P_(l+1) = P_l B / ((l+1-c0)(l+1)); the
        # constants are formed here, not taken from the double tuples:
        # 1 - 0.45 rounds in double, and the cancellation amplifies that
        # one ulp past the tail values themselves
        Bm, alm, half = mp.mpf(B), mp.mpf(alpha), mp.mpf(n_dim) / 2
        return [_Family(mp.gamma(c0) * Bm ** p0, Bm, (), (1 - c0, 1), d0,
                        -alm)
                for c0, p0, d0 in ((1 - half, half, 1 - alm * half),
                                   (half - 1, 1, 1 - alm))]

    # the family totals cancel against each other, so each family's tail
    # is cut at the working precision, not relative to its own sum
    return _sum_extended(build, None, _MP_BUDGET)


# Taylor coefficients of sin(x)/x - 1 in powers of x^2, to x^20
_SINC_TAYLOR = tuple((-1.0) ** k / math.factorial(2 * k + 1)
                     for k in range(1, 11))


def _log_sinc(x):
    """``log(sin(x)/x)`` elementwise on (0, pi), without cancellation
    near 0."""
    x2 = x * x
    poly = np.zeros_like(x)
    for coef in reversed(_SINC_TAYLOR):
        poly = poly * x2 + coef
    small = x < 1.0
    return np.where(small, np.log1p(x2 * poly),
                    np.log(np.sin(x) / np.where(small, 1.0, x)))


def _kanter_log_ratio(rho, phi):
    """``log(A(phi)/A(0))`` for Kanter's
    ``A(phi) = (sin(rho phi)/sin phi)^(1/(1-rho)) sin((1-rho) phi)/sin(rho phi)``,
    formed from ``log(sin(x)/x)`` so that ``A - A(0)`` keeps its digits
    near ``phi = 0``."""
    lr = _log_sinc(rho * phi)
    return (lr - _log_sinc(phi)) / (1.0 - rho) \
        + _log_sinc((1.0 - rho) * phi) - lr


def _kanter_a0(rho):
    return rho ** (rho / (1.0 - rho)) * (1.0 - rho)


def _kanter_edge(rho, target, lo):
    """A point of (lo, pi) where ``A`` crosses ``target``, to about a
    thousandth of its distance from either end of (0, pi).  A panel edge
    needs no more, so ``A`` is formed directly in double."""
    hi = math.pi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        sr = math.sin(rho * mid)
        a = (sr / math.sin(mid)) ** (1.0 / (1.0 - rho)) \
            * math.sin((1.0 - rho) * mid) / sr
        if a < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-3 * min(hi, math.pi - hi):
            break
    return hi


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _kanter_moments(rho, c, log_scale):
    """``exp(log_scale - c A(0)) (I1, I2)`` with ``I_k = (1/pi) int_0^pi
    A^k exp(-c (A - A(0))) dphi``, the moments of Kanter's integral.

    ``A`` increases from ``A(0)`` to infinity, so panels end where
    ``c (A - A(0))`` reaches the levels of ``_KANTER_LEVELS``, the last of
    which cuts the integral.  Where ``c`` is small the cut comes close to
    the pole of ``A`` at pi, and the panels before it are graded towards
    pi, each no wider than its distance from pi.  Gauss-Legendre rules of
    ``_KANTER_NODES`` and twice as many nodes per panel must agree to
    ``_KANTER_TOL`` in both moments, or ``NonConvergence`` is raised; the
    finer rule is returned.  A scale that underflows gives zeros without
    any quadrature; one past the double range raises ``NonConvergence``.
    """
    a0 = _kanter_a0(rho)
    log_scale -= c * a0
    if log_scale > 709.0:
        raise NonConvergence("density beyond the double range")
    scale = math.exp(log_scale)
    if scale == 0.0:
        return 0.0, 0.0
    edges = [0.0]
    for level in _KANTER_LEVELS:
        edges.append(_kanter_edge(rho, a0 + level / c, edges[-1]))
    gap = 2.0 * (math.pi - edges[-1])
    while gap < math.pi:
        edges.append(math.pi - gap)
        gap *= 2.0
    edges = np.unique(edges)
    widths = np.diff(edges)[:, None]
    moments = []
    for n in (_KANTER_NODES, 2 * _KANTER_NODES):
        nodes, weights = _gauss_legendre(n)
        log_ratio = _kanter_log_ratio(rho, edges[:-1, None] + widths * nodes)
        a = a0 * np.exp(log_ratio)
        f = widths * weights * np.exp(-c * a0 * np.expm1(log_ratio)) * a
        moments.append((float(np.sum(f)) / math.pi,
                        float(np.sum(f * a)) / math.pi))
    (c1, c2), (i1, i2) = moments
    if not (abs(c1 - i1) <= _KANTER_TOL * i1
            and abs(c2 - i2) <= _KANTER_TOL * i2):
        raise NonConvergence(
            f"Kanter quadrature rules disagree at rho={rho:g}, c={c:g}")
    return scale * i1, scale * i2


def _kanter_solution(alpha, dim, d, x, t):
    """One- or three-dimensional solution from Kanter's integral.

    With ``nu = alpha/2``, ``ell = sqrt(D) t^nu``, ``r = x/ell``,
    ``q = 1/(1-nu)`` and ``c = r^q`` the M-Wright relation gives
    ``u1 = q r^(nu q) e^(-c A(0)) I1 / (2 ell)``; differentiating under
    the integral gives ``u3 = -(1/(2 pi x)) du1/dx``
    ``= q r^(nu q - 2) e^(-c A(0)) (q c I2 - nu q I1) / (4 pi ell^3)``.
    """
    nu = alpha / 2.0
    ell = math.sqrt(d) * t ** nu
    r = x / ell
    q = 1.0 / (1.0 - nu)
    c = r ** q
    m1, m2 = _kanter_moments(nu, c, math.log(q) + nu * q * math.log(r))
    if dim == 1:
        return m1 / (2.0 * ell)
    return (q * c * m2 - nu * q * m1) / (4.0 * math.pi * ell ** 3 * r * r)


def fundamental_solution(p: DiffusionProblem, x, t):
    """Density at radius ``x``, time ``t``, of the point-source solution.

    Dimensions 1 and 3 evaluate the double pole-residue series of the
    contour-integral solution at ``B = x^2/(4 D t^alpha)`` with the
    ``|sqrt(pi) x|^(-n)`` prefactor up to ``B = 16``, eight diffusion
    lengths.  Past it they evaluate Kanter's integral directly, with no
    series attempt; a quadrature whose two rules disagree raises
    ``NonConvergence``, as does ``B`` beyond ``_MAX_A/4``.  The explicit
    one- and three-dimensional sums serve as independent cross-checks in
    the test suite.  Dimension 2 has no convergent series of this form
    and raises ``NotSupported``; :func:`asymptotic_n2` gives its leading
    logarithmic term near the origin.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    if not 0.0 <= x < math.inf:
        raise DomainError("x is a radius and must be finite and nonnegative")
    d = p.diff_coeff
    if p.dim == 2:
        raise NotSupported("no certified planar route; asymptotic_n2 gives "
                           "the leading term near the origin")
    if x == 0.0:
        if p.dim == 3:
            raise DomainError("the three-dimensional density diverges at x=0")
        return gamma_recip(1.0 - p.alpha / 2.0) / (2.0 * math.sqrt(d) * t ** (p.alpha / 2.0))
    B = x * x / (4.0 * d * t ** p.alpha)
    if B > _MAX_A / 4.0:
        raise NonConvergence(
            f"scaled argument {4.0 * B:g} beyond the validated radius {_MAX_A:g}")
    if B > _KANTER_B:
        return _kanter_solution(p.alpha, p.dim, d, x, t)
    pref = (math.sqrt(math.pi) * x) ** (-p.dim)
    return pref * _two_sum(p.alpha, p.dim, B)


def levy_density(sp: StableParams, t):
    """One-sided stable density with Laplace transform ``exp(-u^rho)``.

    Power series in ``t^(-rho)`` from term-by-term inversion of the
    transform's exponential series; the poles of the reciprocal gamma
    factor silently remove every term with integer ``k rho``.  Where the
    series fails to converge or its rounding guard, at small times and
    for ``rho`` near 1, Kanter's integral
    ``(rho/(1-rho)) t^(-1/(1-rho)) (1/pi) int_0^pi A exp(-c A) dphi``
    with ``c = t^(-rho/(1-rho))`` is evaluated instead, certified by two
    Gauss-Legendre rules or ``NonConvergence``.  Below the saddle-point
    floor the density underflows and 0.0 is returned without summing.
    """
    rho = sp.rho
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    # steepest-descent exponent -c A(0); 30 nats of slack for the algebraic
    # factor.  Past log c = 700 the exponent is far below that floor, and
    # c itself would overflow.
    a0 = _kanter_a0(rho)
    if (-rho / (1.0 - rho) * math.log(t) > 700.0
            or -a0 * t ** (-rho / (1.0 - rho)) + 30.0 < -640.0):
        return 0.0
    total, converged, clean = _alt_sum(t ** (-rho), 0.0, rho)
    if converged and clean:
        density = total / t
        if not math.isfinite(density):
            raise NonConvergence(
                f"stable density at t={t:g} exceeds the double range")
        return density
    # Kanter: (rho q) t^(-q) e^(-c A(0)) I1 with q = 1/(1-rho)
    q = 1.0 / (1.0 - rho)
    c = t ** (-rho * q)
    return _kanter_moments(rho, c, math.log(rho * q) - q * math.log(t))[0]
