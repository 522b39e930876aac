"""Horn parameters and closed-form geometric quantities.

The space is a warped product over the round sphere S^{n-1} with warp factor
(1/2) r^(1+eps) and an extra measure weight r^((N-n)(1-eta)).  Folding warp
and weight together, every integral used downstream reduces to a 1-D radial
integral against the density

    w(r) = 2^(1-n) * r^c,      c = (n-1)(1+eps) + (N-n)(1-eta),

taken against the ROUND unit-sphere measure on the angular factor.  The
drift exponent c is the single combination of parameters that the radial
Laplacian

    L f = f'' + (c/r) f' + 4 r^(-2-2eps) * (spherical part)

sees, so it is precomputed and stored.  The distance to the tip is the
radial coordinate itself (|grad r| = 1 away from r = 0, exact for warped
products).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidationError
from .numerics import gamma_real


@dataclass(frozen=True)
class HornParams:
    """Dimensional and shape parameters of the horn.

    n    -- integer topological dimension (>= 2)
    bigN -- synthetic dimension N (real, >= n; integrality is never needed)
    eps  -- cusp sharpness of the warp factor r^(1+eps)/2, > 0
    eta  -- weight softening, in (0, 1)
    c    -- derived drift exponent (always recomputed, never trusted)
    """

    n: int
    bigN: float
    eps: float
    eta: float
    c: float

    @staticmethod
    def from_json(obj):
        return make_horn_params(obj["n"], obj["N"], obj["eps"], obj["eta"])


def drift_exponent(n, bigN, eps, eta):
    return (n - 1) * (1.0 + eps) + (bigN - n) * (1.0 - eta)


def make_horn_params(n, bigN, eps, eta):
    """Validate parameter ranges and assemble a HornParams.

    Raises DomainValidationError naming the violated constraint.
    """
    if int(n) != n or n < 2:
        raise DomainValidationError(f"n must be an integer >= 2, got {n}")
    n = int(n)
    if not bigN >= n:
        raise DomainValidationError(f"N must satisfy N >= n, got N={bigN}, n={n}")
    if not eps > 0:
        raise DomainValidationError(f"eps must be > 0, got {eps}")
    if not 0 < eta < 1:
        raise DomainValidationError(f"eta must lie in (0, 1), got {eta}")
    c = drift_exponent(n, bigN, eps, eta)
    # strict positivity with a numerical floor: the tip transform divides
    # by c - 1 - eps, so values at rounding scale are rejected too
    if not c - 1.0 - eps > 1e-12:
        raise DomainValidationError(
            f"c - 1 - eps must be > 0 for the tip threshold radius to exist; "
            f"got c={c}, c - 1 - eps = {c - 1.0 - eps}")
    return HornParams(n=n, bigN=float(bigN), eps=float(eps), eta=float(eta), c=c)


def _check_positive(name, r):
    if not np.all(r > 0):
        raise DomainValidationError(f"{name} needs r > 0, got {r}")


def measure_weight_log(p, r):
    """log w(r) for r > 0, scalar or array (elementwise), of the radial
    density w(r) = 2^(1-n) r^c of the weighted volume measure.

    The measure is dm = w(r) dr dS(theta), dS the round unit-sphere measure;
    the same density also carries the area measure on the level set {r}.
    """
    _check_positive("measure_weight_log", r)
    return (1 - p.n) * math.log(2.0) + p.c * np.log(r)


def angular_coupling(p, r):
    """Coefficient 4 r^(-2-2eps) multiplying the spherical Laplacian, for
    r > 0, scalar or array (elementwise)."""
    _check_positive("angular_coupling", r)
    return 4.0 * r ** (-2.0 - 2.0 * p.eps)


def liouville_potential(p, i, r):
    """V = 4 mu_i r^(-2-2eps) + c (c - 2) / (4 r^2) of the Liouville form
    u = r^(c/2) f, u'' = (V - nu) u, of the radial equation
    f'' + (c/r) f' - 4 mu_i r^(-2-2eps) f = -nu f with spherical index i;
    r > 0, scalar or array (elementwise)."""
    _check_positive("liouville_potential", r)
    return (4.0 * sphere_eigenvalue(p.n, i) * r ** (-2.0 - 2.0 * p.eps)
            + p.c * (p.c - 2.0) / (4.0 * r * r))


def liouville_potential_slope(p, i, r):
    """dV/dr = -4 mu_i (2 + 2eps) r^(-3-2eps) - c (c - 2) / (2 r^3) of
    liouville_potential; r > 0, scalar or array (elementwise)."""
    _check_positive("liouville_potential_slope", r)
    return (-4.0 * sphere_eigenvalue(p.n, i) * (2.0 + 2.0 * p.eps)
            * r ** (-3.0 - 2.0 * p.eps) - p.c * (p.c - 2.0) / (2.0 * r ** 3))


def sphere_eigenvalue(n, i):
    """i-th eigenvalue mu_i = i (n + i - 2) of the round S^{n-1} Laplacian."""
    if int(n) != n or n < 2:
        raise DomainValidationError(f"n must be an integer >= 2, got {n}")
    if int(i) != i or i < 0:
        raise DomainValidationError(f"i must be an integer >= 0, got {i}")
    return float(i * (n + i - 2))


def sphere_area(n):
    """Area of the round unit sphere S^{n-1}: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_real(n / 2.0)
