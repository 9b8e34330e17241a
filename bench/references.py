"""References computed apart from the program, for the benchmark's checks.

Nothing here calls an fkin solver or evaluator.  The only fkin function
used is the fixed-Talbot contour inversion ``fkin.oracles.invert_laplace``,
which shares no code with the solvers; the Laplace images it inverts are
written out here from the configuration, not taken from fkin.

* Mittag-Leffler identities: ``E_1(z) = e^z``, ``E_{1/2}(z) = erfcx(-z)``,
  ``E_2(-x^2) = cos x`` and ``E_{1,2}(z) = expm1(z)/z``.
* Laplace images of the kinetic solutions and of ``E^delta_{beta,gamma}``.
* The one-sided stable density: ``scipy.stats.levy_stable`` (S1, bulk
  only), Kanter's integral in extended precision (any t), and the closed
  form at rho = 1/2.
* The 1-D fundamental solution through the M-Wright function, with the
  exact Airy (alpha = 2/3) and Gaussian (alpha = 1) forms, and the 3-D one
  from ``u3 = -(1/(2 pi r)) du1/dr`` by central differences.
"""

from __future__ import annotations

import math

import mpmath
import scipy.special as sc
from scipy.stats import levy_stable
from fkin.oracles import invert_laplace

# Digits and equal pieces of [0, pi] for Kanter's integral; 16 pieces
# lose 2.5e-9 relative at rho=0.75, t=0.1, 32 pieces agree to 4e-14.
KANTER_DPS = 40
KANTER_PIECES = 32


def ml_identity(beta, gamma_, delta, z):
    """``E^delta_{beta,gamma}(z)`` from an elementary identity, or None."""
    if delta != 1.0:
        return None
    if beta == 1.0 and gamma_ == 1.0:
        return math.exp(z)
    if beta == 0.5 and gamma_ == 1.0:
        return float(sc.erfcx(-z))
    if beta == 2.0 and gamma_ == 1.0 and z <= 0.0:
        return math.cos(math.sqrt(-z))
    if beta == 1.0 and gamma_ == 2.0:
        return math.expm1(z) / z if z != 0.0 else 1.0
    return None


def ml_by_inversion(beta, gamma_, delta, z):
    """``E^delta_{beta,gamma}(z)`` for z <= 0 and beta <= 1, by inverting
    ``s^(beta delta - gamma) / (s^beta - z)^delta`` at t = 1.  For beta <= 1
    and z <= 0 the image has no singularity off the negative real axis."""
    if not (z <= 0.0 and beta <= 1.0):
        raise ValueError("no inversion reference outside z <= 0, beta <= 1")
    lam = -z

    def image(s):
        return s ** (beta * delta - gamma_) * (s ** beta + lam) ** (-delta)

    return invert_laplace(image, 1.0)


def _forcing_image(spec):
    kind = spec["type"]
    if kind == "unit":
        return lambda s: 1.0 / s
    if kind == "power":
        rho = spec["rho"]
        return lambda s: math.gamma(rho) * s ** (-rho)
    nu, gamma_, delta, c = spec["nu"], spec["gamma"], spec["delta"], spec["c"]
    return lambda s: s ** (nu * delta - gamma_) * (s ** nu + c ** nu) ** (-delta)


def kinetic_image(problem):
    """Laplace image ``n0 f~(s) / (1 + sum_j a_j s^-nu_j)`` of the solution
    of a kinetic configuration's ``problem`` object."""
    n0, nus, rates = problem["n0"], problem["nus"], problem["rates"]
    forcing = _forcing_image(problem["forcing"])

    def image(s):
        s = complex(s)
        return n0 * forcing(s) / (1.0 + sum(a * s ** (-v)
                                            for a, v in zip(rates, nus)))

    return image


def kinetic_by_inversion(problem, t):
    return invert_laplace(kinetic_image(problem), t)


def stable_half(t):
    """One-sided stable density at rho = 1/2 (the Levy density)."""
    return t ** -1.5 * math.exp(-1.0 / (4.0 * t)) / (2.0 * math.sqrt(math.pi))


def stable_levy_stable(rho, t):
    """One-sided stable density from ``scipy.stats.levy_stable``.

    Laplace transform ``exp(-u^rho)`` is the S1 law with beta = 1 and scale
    ``cos(pi rho / 2)^(1/rho)``.  Accurate in the bulk only: at small t it is
    off by 1.7e-5 relative at rho=0.75, t=0.1, and by decades at rho=0.8.
    """
    levy_stable.parameterization = "S1"
    return float(levy_stable.pdf(
        t, rho, 1.0, loc=0.0,
        scale=math.cos(math.pi * rho / 2.0) ** (1.0 / rho)))


def stable_kanter(rho, t):
    """One-sided stable density from Kanter's integral,

    ``(rho/(1-rho)) t^(-1/(1-rho)) (1/pi) int_0^pi A exp(-t^(-rho/(1-rho)) A)``
    with ``A(phi) = (sin(rho phi)/sin phi)^(1/(1-rho)) sin((1-rho) phi) /
    sin(rho phi)``.  The integrand is positive, so nothing cancels; it is
    evaluated with ``mpmath.quad`` at KANTER_DPS digits.
    """
    with mpmath.workdps(KANTER_DPS):
        r, tt = mpmath.mpf(rho), mpmath.mpf(t)
        expo = 1 / (1 - r)
        scale = tt ** (-r * expo)

        def integrand(phi):
            s = mpmath.sin(phi)
            if s <= 0:      # the last node may round onto pi
                return mpmath.mpf(0)
            sr = mpmath.sin(r * phi)
            a = (sr / s) ** expo * mpmath.sin((1 - r) * phi) / sr
            return a * mpmath.exp(-scale * a)

        nodes = mpmath.linspace(0, mpmath.pi, KANTER_PIECES + 1)
        total = mpmath.quad(integrand, nodes)
        return float(r * expo * tt ** (-expo) * total / mpmath.pi)


def u1_from_stable(stable, alpha, diff_coeff, x, t):
    """1-D fundamental solution ``M_nu(r) / (2 ell)`` with nu = alpha/2,
    ``ell = sqrt(D) t^nu``, ``r = x/ell`` and
    ``M_nu(r) = r^(-1-1/nu) L_nu(r^(-1/nu)) / nu``."""
    nu = alpha / 2.0
    ell = math.sqrt(diff_coeff) * t ** nu
    r = x / ell
    m = r ** (-1.0 - 1.0 / nu) * stable(nu, r ** (-1.0 / nu)) / nu
    return m / (2.0 * ell)


def u1_airy(diff_coeff, x, t):
    """Exact 1-D solution at alpha = 2/3: ``M_{1/3}(r) = 3^(2/3) Ai(r 3^(-1/3))``."""
    ell = math.sqrt(diff_coeff) * t ** (1.0 / 3.0)
    m = 3.0 ** (2.0 / 3.0) * float(sc.airy(x / ell / 3.0 ** (1.0 / 3.0))[0])
    return m / (2.0 * ell)


def u1_gauss(diff_coeff, x, t):
    """Exact 1-D solution at alpha = 1, the heat kernel."""
    return (math.exp(-x * x / (4.0 * diff_coeff * t))
            / math.sqrt(4.0 * math.pi * diff_coeff * t))


def u3_from_u1(u1, x):
    """``-(1/(2 pi x)) du1/dx`` by Richardson-extrapolated central
    differences.  The step is 1e-2 over the logarithmic slope of ``u1``,
    so deep-tail profiles that fall by decades per unit are resolved."""
    probe = 1e-4 * x
    slope = abs(math.log(u1(x + probe) / u1(x - probe))) / (2.0 * probe)
    h = min(1e-2 / max(slope, 1e-300), 1e-2 * x)

    def central(step):
        return (u1(x + step) - u1(x - step)) / (2.0 * step)

    derivative = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return -derivative / (2.0 * math.pi * x)
