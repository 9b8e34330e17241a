"""Reciprocal gamma, the Mittag-Leffler function family, and the series
engines every fkin series runs on.

Everything here is evaluated from the defining power series, by two
engines.  ``_ml_values`` is the one double-precision Mittag-Leffler pass:
compensated (Kahan) summation over an array of arguments, each entry
stopped by its own rule and checked by a rounding-noise guard against its
summed term magnitudes.  Entries that fail the guard go to
``_sum_extended``, the one extended-precision engine, which also rescues
the residue series of :mod:`fkin.diffusion`: it sums families of terms
``P_k rgamma(g0 + s k)`` whose ``P_k`` follow ratio recurrences, sizes its
first pass from a double scan of the log term magnitudes, and certifies a
pass only when its working noise is below 1e-19 of the total (with an
absolute floor below the double range), escalating the digits otherwise.
No asymptotic expansions are used, so arguments far outside the supported
radius raise ``NonConvergence`` instead of silently degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp
import numpy as np
import scipy.special as _sc

from .errors import DomainError, NonConvergence

__all__ = [
    "MLParams",
    "SeriesControls",
    "gamma_recip",
    "pochhammer",
    "ml_prabhakar",
    "ml_two",
    "ml_one",
]

_EPS = float(np.finfo(float).eps)

# Radius of the supported series regime for the Mittag-Leffler family.
SERIES_RADIUS = 50.0

# Pole detection width for the reciprocal gamma, absolute.
_POLE_TOL = 1e-12

# Relative cancellation estimate above which the double-precision sum is
# discarded and the series is re-summed in extended precision.  The estimate
# is _GUARD_FACTOR * eps * (sum of |term|) / |sum|: per-term rounding noise
# scales with the total absolute mass of the series, not the peak alone.
_GUARD_REL = 1e-13
_GUARD_FACTOR = 4.0

# Hard ceiling on working decimal digits for the extended-precision path,
# and on its passes.
_MAX_DPS = 8000
_MP_PASSES = 4
# An extended-precision pass is certified when its working noise is below
# _MP_CERT of |total|, or of _MP_FLOOR: a total under the floor rounds to
# zero in double (the smallest subnormal is 4.9e-324).
_MP_CERT = 1e-19
_MP_FLOOR = mp.mpf("1e-330")
# Terms the log-magnitude scan looks at to size the first pass.
_SCAN_TERMS = 4096
_LOG_MAX = math.log(float(np.finfo(float).max))
# A series stops at the first run of _SMALL_TERMS successive terms below
# _SERIES_TOL times its running sum.
_SERIES_TOL = 1e-15
_SMALL_TERMS = 3
# Terms per block of the double Mittag-Leffler pass.
_ML_BLOCK = 32
# Widest block whose Kahan recurrence runs in Python floats.
_KAHAN_COLUMNS = 8


@dataclass(frozen=True)
class SeriesControls:
    """Term budget for series summation.

    Summation stops once three successive terms fall below 1e-15 times
    the running partial sum, and fails with ``NonConvergence`` if that has
    not happened after ``max_terms`` terms.
    """

    max_terms: int = 500

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError("max_terms must be a positive integer")


@dataclass(frozen=True)
class MLParams:
    """Arguments of the three-parameter Mittag-Leffler function."""

    beta: float
    gamma_: float
    delta: float
    z: float

    def __post_init__(self):
        for name in ("beta", "gamma_", "delta", "z"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.beta <= 0.0:
            raise DomainError("beta must be > 0")
        if self.gamma_ <= 0.0:
            raise DomainError("gamma_ must be > 0")


def gamma_recip(x):
    """Reciprocal gamma function ``1/Gamma(x)``.

    Exactly zero at the poles of Gamma (nonpositive integers, detected
    within ``1e-12`` absolute); elsewhere delegates to a library
    implementation whose relative accuracy is well inside the 1e-13
    contract on ``|x| <= 170``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("gamma_recip requires a finite argument")
    if x < 0.5:
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < _POLE_TOL:
            return 0.0
    return float(_sc.rgamma(x))


def _gamma_recip_array(x):
    """Vector form of :func:`gamma_recip` with the same pole snapping."""
    x = np.asarray(x, dtype=float)
    out = _sc.rgamma(x)
    nearest = np.round(x)
    snap = (x < 0.5) & (nearest <= 0) & (np.abs(x - nearest) < _POLE_TOL)
    if np.any(snap):
        out = np.where(snap, 0.0, out)
    return out


def pochhammer(delta, tau):
    """Rising factorial ``(delta)_tau`` for integer ``tau >= 0``."""
    tau = int(tau)
    if tau < 0:
        raise DomainError("tau must be a nonnegative integer")
    out = 1.0
    for i in range(tau):
        out *= delta + i
    return out


def _log_abs_rgamma(g):
    """log|1/Gamma(g)| elementwise; -inf at the poles.  Negative ``g`` is
    reflected through ``sin(pi (g - round(g)))``, which keeps digits that
    ``gammaln`` loses there."""
    g = np.asarray(g, dtype=float)
    out = np.empty_like(g)
    pos = g > 0.0
    out[pos] = -_sc.gammaln(g[pos])
    neg = ~pos
    if np.any(neg):
        gn = g[neg]
        frac = np.abs(np.sin(math.pi * (gn - np.round(gn))))
        with np.errstate(divide="ignore"):
            out[neg] = _sc.gammaln(1.0 - gn) + np.log(frac) - math.log(math.pi)
    return out


class _Family(NamedTuple):
    """Terms ``P_k rgamma(g0 + s k)`` of an extended-precision sum, with
    ``P_0 = c`` and ``P_(k+1) = P_k x prod(a + k, a in nums) /
    prod(b + k, b in dens)``."""

    c: object
    x: object
    nums: tuple
    dens: tuple
    g0: object
    s: object


def _sum_extended(build, tol, budget, positive=False):
    """Sum of the families ``build()`` returns, in extended precision.

    ``build`` forms the family constants at the precision it is called
    under, so no constant carries the rounding of a double into the
    cancellation.  A family stops once ``_SMALL_TERMS`` successive terms
    fall below ``tol`` times its running sum, or below the working noise
    ``peak 10^(8-dps)``; ``tol=None`` is the working-precision tail cut
    ``10^(15-dps)``.  A family still summing after ``budget`` terms raises
    ``NonConvergence``.

    A double scan of the log term magnitudes sizes the first pass at 30
    digits past the peak term.  A pass is certified when its working
    noise ``peak 10^-dps`` is below ``_MP_CERT`` of ``|total|``, with the
    absolute floor ``_MP_FLOOR`` below the double range; otherwise the
    next pass carries 30 digits past ``peak / |total|`` (past ``peak /
    _MP_FLOOR`` while the total is noise), and at least twice the digits
    of the last.  With ``positive`` every term is positive, and a peak
    term past the double range gives ``inf`` without a pass.
    """
    ks = np.arange(min(budget, _SCAN_TERMS), dtype=float)
    log_peak = -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for f in build():
            logs = np.log(abs(float(f.c))) + ks * np.log(abs(float(f.x))) \
                + _log_abs_rgamma(float(f.g0) + float(f.s) * ks)
            for sign, bases in ((1.0, f.nums), (-1.0, f.dens)):
                for a in bases:
                    logs[1:] += sign * np.cumsum(
                        np.log(np.abs(float(a) + ks[:-1])))
            finite = logs[np.isfinite(logs)]
            if finite.size:
                log_peak = max(log_peak, float(np.max(finite)))
    if positive and log_peak > _LOG_MAX:
        return math.inf
    dps = min(_MAX_DPS, 30 + int(max(log_peak, 0.0) / math.log(10.0)))
    for _ in range(_MP_PASSES):
        with mp.workdps(dps):
            cut = mp.mpf(10) ** (8 - dps)
            stop = mp.mpf(10) ** (15 - dps) if tol is None else mp.mpf(tol)
            total = peak = mp.mpf(0)
            for f in build():
                part = mp.mpf(0)
                p = f.c
                small = 0
                for k in range(budget):
                    term = p * mp.rgamma(f.g0 + f.s * k)
                    part += term
                    at = abs(term)
                    if at > peak:
                        peak = at
                    if at <= stop * max(abs(part), peak * cut):
                        small += 1
                        if small >= _SMALL_TERMS:
                            break
                    else:
                        small = 0
                    ratio = f.x
                    for a in f.nums:
                        ratio *= a + k
                    for b in f.dens:
                        ratio /= b + k
                    p *= ratio
                else:
                    raise NonConvergence(
                        "series did not satisfy its stopping rule within "
                        f"{budget} terms in extended precision")
                total += part
            noise = peak * mp.mpf(10) ** -dps
            if noise <= _MP_CERT * max(abs(total), _MP_FLOOR):
                return float(total)
            scale = abs(total) if abs(total) > 1000 * noise else _MP_FLOOR
            needed = 30 + int(mp.log10(peak / scale))
        if dps >= _MAX_DPS:
            break
        dps = min(_MAX_DPS, max(needed, 2 * dps))
    raise NonConvergence(
        "cancellation exceeds the supported extended-precision budget")


def _ml_table(beta, gamma_, delta, n):
    """``(coeffs, cut)``: the series coefficients
    ``(delta)_tau rgamma(beta tau + gamma_) / tau!`` for ``tau < n``, cut
    before the first one double precision cannot hold (a Pochhammer
    factor past the double range or a reciprocal gamma underflowed to
    zero); ``cut`` says whether that happened.  ``(delta)_tau / tau!`` is
    the cumulative product of the exact ratios ``(delta+tau)/(tau+1)``,
    so small-integer cases stay exact to rounding."""
    taus = np.arange(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        poch = np.concatenate(
            ([1.0], np.cumprod((delta + taus[:-1]) / (taus[:-1] + 1.0))))
        recips = _sc.rgamma(beta * taus + gamma_)
        coeffs = poch * recips
    bad = ~np.isfinite(coeffs) | ((recips == 0.0) & (poch != 0.0))
    if np.any(bad):
        return coeffs[:int(np.argmax(bad))], True
    return coeffs, False


def ml_prabhakar(p: MLParams, controls: SeriesControls | None = None) -> float:
    """Three-parameter (Prabhakar) Mittag-Leffler function.

    Evaluates ``sum_tau (delta)_tau z^tau / (Gamma(beta*tau + gamma_) tau!)``
    with the summation index starting at zero, so the value at ``z = 0`` is
    ``1/Gamma(gamma_)``.

    Parameters
    ----------
    p : MLParams
        Function parameters and argument; requires ``beta > 0``,
        ``gamma_ > 0`` and ``|z|`` within the supported series radius.
    controls : SeriesControls, optional
        Summation term budget.

    Raises
    ------
    NonConvergence
        If ``|z|`` exceeds the series radius or the stopping rule does not
        fire within ``controls.max_terms`` terms.
    """
    return float(_ml_values(p.beta, p.gamma_, p.delta, p.z, controls))


def ml_two(alpha: float, beta_: float, z: float,
           controls: SeriesControls | None = None) -> float:
    """Two-parameter Mittag-Leffler function ``E_{alpha, beta_}(z)``."""
    return ml_prabhakar(MLParams(beta=alpha, gamma_=beta_, delta=1.0, z=z),
                        controls)


def ml_one(nu: float, z: float, controls: SeriesControls | None = None) -> float:
    """Classical one-parameter Mittag-Leffler function ``E_nu(z)``."""
    return ml_two(nu, 1.0, z, controls)


def _kahan(terms, total, comp):
    """Kahan summation down the rows of ``terms``, one sum per column,
    from the sums ``total`` and compensations ``comp``: returns the sums
    after each row and the final sums and compensations.  A block of a few
    columns runs in Python floats, which round as float64 arrays do, at a
    fraction of the cost of numpy calls on rows that short."""
    if terms.shape[1] > _KAHAN_COLUMNS:
        sums = np.empty_like(terms)
        for k in range(terms.shape[0]):
            y = terms[k] - comp
            t = total + y
            comp = (t - total) - y
            total = sums[k] = t
        return sums, total, comp
    sums, ends = [], []
    for column, s, c in zip(terms.T.tolist(), total.tolist(), comp.tolist()):
        col = []
        for term in column:
            y = term - c
            t = s + y
            c = (t - s) - y
            s = t
            col.append(s)
        sums.append(col)
        ends.append((s, c))
    total, comp = np.array(ends).T
    return np.array(sums).T, total, comp


def _ml_values(beta, gamma_, delta, zs, ctrl=None):
    """Three-parameter Mittag-Leffler values over an array of arguments.

    The one double-precision pass: every entry shares one coefficient
    table and one compensated (Kahan) summation, but keeps its own sum and
    absolute mass from the term where its own stopping rule fired, so a
    value never depends on the other arguments of its batch.  The rule
    does not fire while the next term is no smaller than the last,
    ``|c_(k+1) z| >= |c_k|``: small early terms of a series that grows
    back later (a tiny ``delta``) certify nothing.  An entry goes to
    extended precision when its rounding-noise estimate
    ``_GUARD_FACTOR eps mass`` exceeds ``_GUARD_REL`` of its value, when
    its sum leaves double range, or when it is still summing at a
    coefficient double precision cannot hold.  An entry whose rule has not
    fired within ``ctrl.max_terms`` terms raises ``NonConvergence``.

    Terms are taken in blocks of ``_ML_BLOCK`` as arrays of terms by live
    entries: powers and masses come from ``cumprod`` and ``cumsum``, which
    repeat the additions of a term-by-term loop in its order; only the
    Kahan recurrence runs term by term.  Each entry's firing term is then
    found on the whole block, and entries that fired leave the arrays.
    """
    ctrl = ctrl if ctrl is not None else SeriesControls()
    zs = np.asarray(zs, dtype=float)
    out_shape = zs.shape
    zs = zs.ravel()
    if zs.size and np.max(np.abs(zs)) > SERIES_RADIUS:
        raise NonConvergence(
            f"|z| = {np.max(np.abs(zs)):g} lies outside the supported "
            f"series radius {SERIES_RADIUS:g}")
    value = np.zeros_like(zs)
    mass = np.zeros_like(zs)
    # the live entries: their positions, arguments, Kahan sums and
    # compensations, absolute masses, next powers of z and runs of small
    # terms
    pos = np.arange(zs.size)
    z = zs
    total = np.zeros_like(zs)
    comp = np.zeros_like(zs)
    absum = np.zeros_like(zs)
    zpow = np.ones_like(zs)
    run = np.zeros(zs.shape, dtype=int)
    n, size, cut = 0, 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        while pos.size and n < ctrl.max_terms and not cut:
            end = min(n + _ML_BLOCK, ctrl.max_terms)
            if end > size:
                # one coefficient past the table, for the next-term check
                size = min(max(4 * size, 64), ctrl.max_terms)
                coeffs, _ = _ml_table(beta, gamma_, delta, size + 1)
            stop = min(end, len(coeffs))
            cut = stop < end
            rows = stop - n
            if not rows:
                break
            c = coeffs[n:stop]
            nxt = np.append(coeffs, math.inf)[n + 1:stop + 1]
            pows = np.cumprod(np.concatenate(
                (zpow[None], np.broadcast_to(z, (rows, z.size)))), axis=0)
            zpow = pows[-1]
            terms = c[:, None] * pows[:-1]
            at = np.abs(terms)
            absums = np.cumsum(np.concatenate((absum[None], at)), axis=0)[1:]
            totals, total, comp = _kahan(terms, total, comp)
            # the literal rule compares against the partial sum alone;
            # the floor terms keep it meaningful at zeros of the function
            thr = _SERIES_TOL * np.maximum(
                np.maximum(np.abs(totals), _EPS * absums), 1e-290)
            # runs of small terms ending at each term, carried across blocks
            ks = np.arange(rows)[:, None]
            runs = ks - np.maximum.accumulate(
                np.where(at <= thr, -1 - run, ks), axis=0)
            nxt = np.abs(nxt[:, None] * z)
            grows = (nxt >= np.abs(c)[:, None]) & (nxt > 0.0)
            fire = (runs >= _SMALL_TERMS) & ~grows
            hit = fire.any(axis=0)
            cols = np.nonzero(hit)[0]
            first = fire[:, cols].argmax(axis=0)
            value[pos[cols]] = totals[first, cols]
            mass[pos[cols]] = absums[first, cols]
            keep = ~hit
            pos, z, total, comp, zpow = (
                v[keep] for v in (pos, z, total, comp, zpow))
            absum, run = absums[-1][keep], runs[-1][keep]
            n = stop
            # live sums that all left double range go to extended precision
            if pos.size and not np.any(np.isfinite(total)):
                break
    rescue = ~np.isfinite(value) \
        | (_GUARD_FACTOR * _EPS * mass > _GUARD_REL * np.abs(value))
    if pos.size:
        if not cut and np.any(np.isfinite(total)):
            raise NonConvergence(
                "Mittag-Leffler series did not satisfy the stopping rule "
                f"within max_terms={ctrl.max_terms}")
        rescue[pos] = True
    for i in np.nonzero(rescue)[0]:
        z = float(zs[i])

        def build(z=z):
            return [_Family(1, mp.mpf(z), (mp.mpf(delta),), (1,),
                            mp.mpf(gamma_), mp.mpf(beta))]

        value[i] = _sum_extended(build, _SERIES_TOL, ctrl.max_terms,
                                 positive=z > 0.0 and delta > 0.0)
    return value.reshape(out_shape)
