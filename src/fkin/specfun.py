"""Reciprocal gamma, the Mittag-Leffler function family, and the series
engines every fkin series runs on.

Mittag-Leffler values come from the defining power series, by two
engines, and from one contour, ``_contour``, which also inverts the whole
image of the multi-term kinetic plans of :mod:`fkin.kinetics`.
``_ml_values`` is the one double-precision Mittag-Leffler pass:
compensated (Kahan) summation over an array of
arguments, each entry stopped by its own rule and checked by a
rounding-noise guard against its summed term magnitudes.  Entries past
``SERIES_RADIUS`` skip that pass.  Every entry the pass does not certify
goes to ``_ml_rescue``, the one router of the rescue: entries with
``beta <= 1`` and ``z < 0`` go first to ``_ml_contour``, which inverts the
Prabhakar Laplace image at ``t = 1`` by ``_contour``: the trapezoidal rule
on two parabolic contours in double precision, one row of nodes per image,
with a value certified only when the two agree and it passes the same
rounding guard; every other entry inside the radius goes to
``_sum_extended``, the one extended-precision engine, and an entry left
past the radius raises ``NonConvergence``.

``_sum_extended`` also rescues the explicit series of
:mod:`fkin.diffusion`.  It sums one family of terms ``c x^k C_k``, where
the coefficients ``C_k = prod(a)_k / k! rgamma(g0 + s k)`` do not depend on
``x``, sizes its first pass from a double scan of the log term
magnitudes, and certifies a pass only when its working noise is below
1e-19 of the total (with an absolute floor below the double range),
escalating the digits otherwise.  The rescued entries of one
``_ml_values`` call differ only in ``x``, so they share one table of
``C_k`` per working precision, built as the terms ask for it and dropped
when the call returns; their digits are rounded up to multiples of 10 so
nearby entries meet on one precision, and each entry still picks its
digits alone, so its value does not depend on its batch.  A sum alone (an
explicit diffusion series) runs the same way under a table of its own.
``mpmath`` is imported by this engine alone, on its first sum, so a run
that never rescues an entry in extended precision never loads it.
No asymptotic expansions are used.  Past the series radius only ``beta <=
1``, ``z < 0`` is served, by the contour alone; every other argument there,
and a contour value that does not certify, raises ``NonConvergence``
instead of silently degrading.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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
# zero in double (the smallest subnormal is 4.9e-324); it is read as an
# mpf at the default precision.
_MP_CERT = 1e-19
_MP_FLOOR = "1e-330"
# The digits of every extended-precision pass are rounded up to a multiple
# of this.
_DPS_STEP = 10
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
# The two passes ``(mu, h)`` of the contour inversion: nodes
# ``s = mu (1 + i u)^2`` at ``u = k h``, up to the first past which
# ``e^(mu (1 - u^2))`` is below ``e^-_CONTOUR_CUT``.  A small ``mu`` keeps
# the rounding that ``e^s`` amplifies near ``e^mu`` small.
_CONTOUR_PASSES = ((1.0, 0.15), (1.5, 0.12))
_CONTOUR_CUT = 40.0
# Relative agreement of the two passes that certifies a contour value.
_CONTOUR_AGREE = 1e-14


@dataclass(frozen=True)
class SeriesControls:
    """Term budget for series summation.

    Summation stops once three successive terms fall below 1e-15 times
    the running partial sum, and fails with ``NonConvergence`` if that has
    not happened after ``max_terms`` terms.
    """

    max_terms: int = 500

    def __post_init__(self):
        if not (isinstance(self.max_terms, numbers.Integral)
                and self.max_terms >= 1):
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
    return 0.0 if _at_pole(x, round(x)) else float(_sc.rgamma(x))


def _at_pole(x, nearest):
    """The one pole rule of fkin's reciprocal gamma: ``x`` lies within
    ``_POLE_TOL`` of its nearest integer ``nearest``, which is not
    positive.  Takes floats or arrays alike."""
    return (x < 0.5) & (nearest <= 0) & (abs(x - nearest) < _POLE_TOL)


def _gamma_recip_array(x):
    """``1/Gamma(x)`` elementwise, exactly zero where :func:`_at_pole`
    holds; :func:`gamma_recip` is its checked scalar form, with the same
    bytes."""
    x = np.asarray(x, dtype=float)
    out = _sc.rgamma(x)
    snap = _at_pole(x, np.round(x))
    if np.any(snap):
        out = np.where(snap, 0.0, out)
    return out


def pochhammer(delta, tau):
    """Rising factorial ``(delta)_tau`` for finite ``delta`` and integer
    ``tau >= 0``."""
    if not math.isfinite(delta):
        raise DomainError("delta must be finite")
    if not (float(tau).is_integer() and tau >= 0):
        raise DomainError("tau must be a nonnegative integer")
    tau = int(tau)
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
    """Terms ``c x^k C_k`` of an extended-precision sum, with the
    coefficients ``C_k = prod(a)_k / k! rgamma(g0 + s k)`` (``a`` in
    ``nums``), which do not depend on ``c`` or ``x``."""

    c: object
    x: object
    nums: tuple
    g0: object
    s: object


class _Coefficients:
    """The ``C_k`` of one family at one working precision, extended as
    terms ask for them: ``C_k = Q_k rgamma(g0 + s k)``, ``Q_0 = 1`` and
    ``Q_(k+1) = Q_k prod(a + k) / (1 + k)``."""

    def __init__(self, f):
        import mpmath as mp

        self._mp = mp
        self.f = f
        self.values = []
        self.q = mp.mpf(1)

    def extend(self):
        f, k = self.f, len(self.values)
        self.values.append(self.q * self._mp.rgamma(f.g0 + f.s * k))
        for a in f.nums:
            self.q *= a + k
        self.q /= 1 + k


def _sum_extended(build, tol, budget, table):
    """Sum of the family ``build()`` returns, in extended precision.

    ``build`` forms the family constants at the precision it is called
    under, so no constant carries the rounding of a double into the
    cancellation.  Term ``k`` is ``(c x^k) C_k``: the power steps by
    ``x``, and the coefficients ``C_k``, the part that does not depend on
    ``x``, come from a table keyed by the working digits and ``(nums, g0,
    s)``, extended as ``k`` grows.  The sum stops once ``_SMALL_TERMS``
    successive terms fall below ``tol`` times its running value, or below
    the working noise ``peak 10^(8-dps)``; ``tol=None`` is the
    working-precision tail cut ``10^(15-dps)``.  A sum still running after
    ``budget`` terms raises ``NonConvergence``.

    A double scan of the log term magnitudes sizes the first pass at 30
    digits past the peak term.  A pass is certified when its working
    noise ``peak 10^-dps`` is below ``_MP_CERT`` of ``|total|``, with the
    absolute floor ``_MP_FLOOR`` below the double range; otherwise the
    next pass carries 30 digits past ``peak / |total|`` (past ``peak /
    _MP_FLOOR`` while the total is noise), and at least twice the digits
    of the last.  When ``c``, ``x``, ``g0``, ``s`` and every ``a`` are
    positive, so is every term, and a peak term past the double range
    gives ``inf`` without a pass.

    ``table`` is the coefficient table (a dict) the caller hands to every
    sum of one batch, or a fresh one for a sum alone, so sums that differ
    only in ``c`` and ``x`` compute each ``C_k`` once.  Every pass rounds
    its digits up to a multiple of ``_DPS_STEP``, so sums whose peaks
    differ by a few digits meet on one precision; the digits still depend
    on the sum alone, so a value does not depend on its batch.
    """
    import mpmath as mp

    f = build()
    ks = np.arange(min(budget, _SCAN_TERMS), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(abs(float(f.c))) + ks * np.log(abs(float(f.x))) \
            + _log_abs_rgamma(float(f.g0) + float(f.s) * ks)
        for a in f.nums:
            logs[1:] += np.cumsum(np.log(np.abs(float(a) + ks[:-1])))
        logs[1:] -= np.cumsum(np.log(1.0 + ks[:-1]))
    finite = logs[np.isfinite(logs)]
    log_peak = float(np.max(finite)) if finite.size else -math.inf
    if log_peak > _LOG_MAX and all(
            v > 0 for v in (f.c, f.x, f.g0, f.s) + f.nums):
        return math.inf

    def digits(d):
        return min(_MAX_DPS, -(-d // _DPS_STEP) * _DPS_STEP)

    dps = digits(30 + int(max(log_peak, 0.0) / math.log(10.0)))
    floor = mp.mpf(_MP_FLOOR)
    for _ in range(_MP_PASSES):
        with mp.workdps(dps):
            cut = mp.mpf(10) ** (8 - dps)
            stop = mp.mpf(10) ** (15 - dps) if tol is None else mp.mpf(tol)
            f = build()
            key = (dps, f.nums, f.g0, f.s)
            coeffs = table.get(key)
            if coeffs is None:
                coeffs = table[key] = _Coefficients(f)
            cs = coeffs.values
            total = peak = mp.mpf(0)
            p = f.c
            small = 0
            for k in range(budget):
                if k == len(cs):
                    coeffs.extend()
                term = p * cs[k]
                total += term
                at = abs(term)
                if at > peak:
                    peak = at
                if at <= stop * max(abs(total), peak * cut):
                    small += 1
                    if small >= _SMALL_TERMS:
                        break
                else:
                    small = 0
                p *= f.x
            else:
                raise NonConvergence(
                    "series did not satisfy its stopping rule within "
                    f"{budget} terms in extended precision")
            noise = peak * mp.mpf(10) ** -dps
            if noise <= _MP_CERT * max(abs(total), floor):
                return float(total)
            scale = abs(total) if abs(total) > 1000 * noise else floor
            needed = 30 + int(mp.log10(peak / scale))
        if dps >= _MAX_DPS:
            break
        dps = digits(max(needed, 2 * dps))
    raise NonConvergence(
        "cancellation exceeds the supported extended-precision budget")


def _ml_table(beta, gamma_, delta, n):
    """The series coefficients ``(delta)_tau rgamma(beta tau + gamma_) /
    tau!`` for ``tau < n``, cut before the first one double precision
    cannot hold (a Pochhammer factor past the double range or a reciprocal
    gamma underflowed to zero), so fewer than ``n`` when that happens.
    ``(delta)_tau / tau!`` is the cumulative product of the exact ratios
    ``(delta+tau)/(tau+1)``, so small-integer cases stay exact to
    rounding."""
    taus = np.arange(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        poch = np.concatenate(
            ([1.0], np.cumprod((delta + taus[:-1]) / (taus[:-1] + 1.0))))
        recips = _sc.rgamma(beta * taus + gamma_)
        coeffs = poch * recips
    bad = ~np.isfinite(coeffs) | ((recips == 0.0) & (poch != 0.0))
    if np.any(bad):
        return coeffs[:int(np.argmax(bad))]
    return coeffs


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


def _contour(integrand):
    """``(values, certified)``: the inverse Laplace transform at ``t = 1``,
    ``(1/(2 pi i)) int e^s F(s) ds``, of one image per row, for images
    whose principal branch has no singularity off the negative real axis
    and which are real on the real axis.

    ``integrand(s, log_s)`` returns ``e^s F(s)`` as one array of rows by
    nodes for the node array ``s`` (and its logarithm).  On the parabola
    ``s = mu (1 + i u)^2``, which encloses the negative real axis, the
    integral is taken by the trapezoidal rule in ``u`` (Weideman &
    Trefethen 2007, Math. Comp. 76:1341; Garrappa 2015, SIAM J. Numer.
    Anal. 53:1350); the nodes with ``u < 0`` are the conjugates of those
    with ``u > 0``.  A row is certified when the two passes of
    ``_CONTOUR_PASSES`` agree to ``_CONTOUR_AGREE`` of the value, when its
    rounding-noise estimate ``_GUARD_FACTOR eps mass`` (``mass`` the summed
    term magnitudes) is within ``_GUARD_REL`` of it, as in the double
    series pass, and when it is finite; the value is that of the first
    pass.  Each row is summed on its own, so its value does not depend on
    the other rows.
    """
    passes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for mu, h in _CONTOUR_PASSES:
            n = math.ceil(math.sqrt(1.0 + _CONTOUR_CUT / mu) / h)
            w = 1.0 + 1j * h * np.arange(n + 1)
            s = mu * w * w
            log_s = np.log(s)
            # ds/(2 pi i) = mu (1 + i u) du / pi; every node but u = 0
            # stands for itself and its conjugate
            weight = (h * mu / math.pi) * w
            weight[1:] *= 2.0
            terms = weight * integrand(s, log_s)
            passes.append((terms.real.sum(axis=1),
                           np.abs(terms).sum(axis=1)))
    (value, mass), (check, _) = passes
    certified = (np.isfinite(value)
                 & (np.abs(value - check) <= _CONTOUR_AGREE * np.abs(value))
                 & (_GUARD_FACTOR * _EPS * mass <= _GUARD_REL * np.abs(value)))
    return value, certified


def _ml_contour(beta, gamma_, delta, zs):
    """``(values, certified)``: three-parameter Mittag-Leffler values for
    ``beta <= 1`` and arguments ``z < 0``, by :func:`_contour` on the
    Laplace image ``s^(beta delta - gamma_) / (s^beta - z)^delta`` of
    ``t^(gamma_-1) E^delta_(beta,gamma_)(z t^beta)``, one row per entry.
    For ``beta <= 1`` and ``z < 0`` the principal branch of that image has
    no singularity off the negative real axis."""
    z = np.asarray(zs, dtype=float)[:, None]
    return _contour(lambda s, log_s: np.exp(
        s + (beta * delta - gamma_) * log_s
        - delta * np.log(np.exp(beta * log_s) - z)))


def _ml_rescue(beta, gamma_, delta, zs, ctrl):
    """Values of the entries the double pass does not certify, the one
    router of the rescue.  With ``beta <= 1`` the entries with ``z < 0``
    go to :func:`_ml_contour`, all in one call, and keep the values it
    certifies.  Past ``SERIES_RADIUS`` that is the only engine: any other
    entry there raises ``NonConvergence`` before the contour runs, and a
    contour value there that does not certify raises after it.  Every
    entry left inside the radius is summed by ``_sum_extended``, under one
    coefficient table for this call only."""
    zs = np.asarray(zs, dtype=float)
    far = np.abs(zs) > SERIES_RADIUS
    contour = (zs < 0.0) & (beta <= 1.0)
    unserved = far & ~contour
    if np.any(unserved):
        raise NonConvergence(
            f"|z| = {np.max(np.abs(zs[unserved])):g} lies outside the "
            f"supported series radius {SERIES_RADIUS:g}")
    value = np.empty_like(zs)
    pending = np.ones(zs.shape, dtype=bool)
    neg = np.flatnonzero(contour)
    if neg.size:
        found, certified = _ml_contour(beta, gamma_, delta, zs[neg])
        value[neg] = found
        pending[neg] = ~certified
    if np.any(pending & far):
        raise NonConvergence(
            f"z = {zs[pending & far][0]:g} lies outside the series radius "
            f"{SERIES_RADIUS:g} and its contour value does not certify")
    table = {}
    for i in np.flatnonzero(pending):

        def build(z=float(zs[i])):
            import mpmath as mp

            return _Family(1, mp.mpf(z), (mp.mpf(delta),), mp.mpf(gamma_),
                           mp.mpf(beta))

        value[i] = _sum_extended(build, _SERIES_TOL, ctrl.max_terms, table)
    return value


def _ml_values(beta, gamma_, delta, zs, ctrl=None):
    """Three-parameter Mittag-Leffler values over an array of arguments.

    The one double-precision pass: every entry shares one coefficient
    table and one compensated (Kahan) summation, but keeps its own sum and
    absolute mass from the term where its own stopping rule fired, so a
    value never depends on the other arguments of its batch.  The rule
    does not fire while the next term is no smaller than the last,
    ``|c_(k+1) z| >= |c_k|``: small early terms of a series that grows
    back later (a tiny ``delta``) certify nothing.  An entry is rescued
    (:func:`_ml_rescue`: the contour, else extended precision) when its
    rounding-noise estimate ``_GUARD_FACTOR eps mass`` exceeds
    ``_GUARD_REL`` of its value, when its sum leaves double range, or when
    it is still summing at a coefficient double precision cannot hold.
    An entry whose rule has not fired within ``ctrl.max_terms`` terms
    raises ``NonConvergence``.  Entries past ``SERIES_RADIUS`` skip the
    pass and are rescued, where only the contour serves them.

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
    value = np.zeros_like(zs)
    mass = np.zeros_like(zs)
    # entries past the radius skip the pass for the rescue
    far = np.abs(zs) > SERIES_RADIUS
    # the live entries: their positions, arguments, Kahan sums and
    # compensations, absolute masses, next powers of z and runs of small
    # terms
    pos = np.flatnonzero(~far)
    z = zs[pos]
    total = np.zeros_like(z)
    comp = np.zeros_like(z)
    absum = np.zeros_like(z)
    zpow = np.ones_like(z)
    run = np.zeros(z.shape, dtype=int)
    n, size, cut = 0, 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        while pos.size and n < ctrl.max_terms and not cut:
            end = min(n + _ML_BLOCK, ctrl.max_terms)
            if end > size:
                # one coefficient past the table, for the next-term check
                size = min(max(4 * size, 64), ctrl.max_terms)
                coeffs = _ml_table(beta, gamma_, delta, size + 1)
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
            # live sums that all left double range are rescued
            if pos.size and not np.any(np.isfinite(total)):
                break
    rescue = far | ~np.isfinite(value) \
        | (_GUARD_FACTOR * _EPS * mass > _GUARD_REL * np.abs(value))
    if pos.size:
        if not cut and np.any(np.isfinite(total)):
            raise NonConvergence(
                "Mittag-Leffler series did not satisfy the stopping rule "
                f"within max_terms={ctrl.max_terms}")
        rescue[pos] = True
    if np.any(rescue):
        value[rescue] = _ml_rescue(beta, gamma_, delta, zs[rescue], ctrl)
    return value.reshape(out_shape)
