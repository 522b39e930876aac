"""Parabolic frequency functionals against the backward Gaussian weight.

The weight is the explicit tip-centred kernel

    log G(r, t) = -((c + 1)/2) log(-t) + r^2 / (4 t),        t < 0,

whose exponent (c+1)/2 makes the total weighted mass of the horn exactly
scale-free: for u == 1,

    D(R) = area(S^{n-1}) 2^(c+1-n) Gamma((c+1)/2),   independent of R.

On backward time slices t = -R^2 the three quantities are

    I(R) = R^2 int |grad u|^2 G dm,   D(R) = int u^2 G dm,   N = I/D,

reduced to radial quadrature for separated caloric states, I through
elliptic's gradient-energy density at lam = 0 from (sign F, log|F|, F_r/F).
Slice integrands are assembled in log space: an eigenmode carries
exp(+nu R^2) on backward slices, and near the tip the state is log-represented.

Every state is a heat.CaloricSeries, read through its slice_log(r, t) ->
(sign_F, log|F|, sign_Fr, log|Fr|) for arrays r, where F is the radial
factor against the unit-normalized spherical harmonic: a truncated
Dirichlet series, the one-term series exp(-mu t) f_i of an elliptic mode
state, or the unit state UnitCaloric, one constant term of rate 0.
"""

import math

import numpy as np

from .elliptic import (FrequencyScan, _constant_radial_log,
                       _energy_density_log, floor_fit)
from .errors import ConsistencyError, DomainValidationError
from .geometry import measure_weight_log, sphere_area
from .heat import CaloricSeries, one_row
from .numerics import quad_log

_LOG_MAX = math.log(np.finfo(float).max)  # the log of the largest double


def kernel_log(p, r, t):
    """log G(r, t) = -((c+1)/2) log(-t) + r^2/(4t) of the backward weight
    centred at the tip at time 0; needs t < 0.  t may be an array that
    broadcasts against r."""
    t = np.asarray(t, dtype=float)
    if not np.all(t < 0):
        raise DomainValidationError(
            f"kernel_log needs t < 0, got t = {t[~(t < 0)].flat[0]}")
    if np.any(np.asarray(r) < 0):
        raise DomainValidationError("kernel_log needs r >= 0")
    return -(p.c + 1.0) / 2.0 * np.log(-t) + np.asarray(r) ** 2 / (4.0 * t)


# ---------------------------------------------------------------------------
# Caloric states
# ---------------------------------------------------------------------------


def UnitCaloric(params):
    """The literal caloric function u == 1 on the infinite horn: one
    constant term, sqrt(area of S^{n-1}) times the unit-normalized
    constant harmonic."""
    return CaloricSeries(params=params, sphere_index=0,
                         r_support=(0.0, math.inf),
                         radial=one_row(_constant_radial_log),
                         rates=np.array([0.0]),
                         coeffs=np.array([math.sqrt(sphere_area(params.n))]))


# ---------------------------------------------------------------------------
# Slice quadrature
# ---------------------------------------------------------------------------


def _slice_bounds(u, R):
    lo, hi = u.r_support
    if math.isinf(hi):
        hi = 45.0 * R  # Gaussian tail beyond is < exp(-500) of the peak
    lo = max(lo, 1e-9 * hi)
    return lo, hi


def _slices_ID(u, R, tol):
    """(I, D) arrays on the backward slices t = -R^2 of the array R.

    One quad_log call takes D of every slice as its first rows and I as
    the rest; a slice's D and I rows share their nodes while both are
    open, so each level evaluates the series once per open slice, and
    once in all when every slice has one interval (a series): then every
    row has the same nodes.  D = 0 or a D or I past the double range on
    any slice is an error.
    """
    t = -R * R
    bad = ~((R > 0) & (t < 0))
    if np.any(bad):
        k = int(np.argmax(bad))
        # an R > 0 whose square underflows gives t = -0.0, no backward slice
        why = ", too small for t = -R^2 < 0 in double precision" \
            if R[k] > 0 else ""
        raise DomainValidationError(
            f"backward slices need R > 0, got R = {R[k]}{why}")
    p = u.params
    m = R.size
    lo, hi = np.array([_slice_bounds(u, s) for s in R.tolist()]).T
    # a row's nodes depend only on its interval and panel count (quad_log)
    shared = np.all(lo == lo[0]) and np.all(hi == hi[0])

    def log_integrand(x, rows):
        # rows k and m + k are the D and I rows of slice k
        slices = rows % m
        _, first, back = np.unique(slices, return_index=True,
                                   return_inverse=True)
        ts = t[slices][:, None]
        # shared: every open row has the nodes x[:1], and the times broadcast
        x, nodes = (x[:1], x[:1]) if shared else (x, x[first])
        sF, lF, sD, lD = (v[back] for v in u.slice_log(nodes, ts[first]))
        log_G = kernel_log(p, x, ts)
        with np.errstate(invalid="ignore"):  # F_r / F is nan where F = 0
            dlog = sF * sD * np.exp(lD - lF)
        sign, log_I = _energy_density_log(u, 0.0, x, (sF, lF, dlog))
        is_I = (rows >= m)[:, None]
        return (np.where(is_I, sign, 1.0),
                np.where(is_I, log_I + log_G,
                         2.0 * lF + log_G + measure_weight_log(p, x)))

    _, log_val, _ = quad_log(log_integrand, np.concatenate([lo, lo]),
                             np.concatenate([hi, hi]), tol)
    # D and I carry exp(2 nu R^2) and the squared coefficients
    log_D, log_I = log_val[:m], log_val[m:] + 2.0 * np.log(R)
    over = np.maximum(log_D, log_I) > _LOG_MAX
    if np.any(over):
        k = np.argmax(over)
        raise ConsistencyError(
            f"D or I overflows the double range on the slice R = {R[k]}: "
            f"log D = {log_D[k]}, log I = {log_I[k]}")
    D = np.exp(log_val[:m])
    if np.any(D == 0.0):
        raise ConsistencyError(
            f"D vanishes on the slice R = {R[np.argmax(D == 0.0)]}")
    return R * R * np.exp(log_val[m:]), D


def parabolic_scan(u, R_grid, tol=1e-12):
    """Scan rows (R, I, D, N) over increasing scales, every slice's D and I
    in one quad_log call."""
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size < 1 or np.any(np.diff(R_grid) <= 0):
        raise DomainValidationError("R_grid must be strictly increasing")
    I, D = _slices_ID(u, R_grid, tol)
    return FrequencyScan(scale=R_grid, I=I, ED=D, UN=I / D)


def parabolic_IDN(u, R, tol=1e-12):
    """(I, D, N) on the backward slice t = -R^2: the one row of
    parabolic_scan(u, [R])."""
    scan = parabolic_scan(u, [R], tol)
    return float(scan.I[0]), float(scan.ED[0]), float(scan.UN[0])


# ---------------------------------------------------------------------------
# Identity and bound checks
# ---------------------------------------------------------------------------


def check_ID_relation(u, R, h, tol=1e-12):
    """Relative defect of I(R) = (R/4) D'(R) with central differences in R.

    The defect is relative to the identity's magnitude (backward slices
    carry exp(2 nu R^2) factors, so an absolute defect would be meaningless
    across states), floored at the slice-mass scale D/4 so that states with
    both sides at quadrature-noise level (u == 1 has D constant and I == 0)
    report ~0 instead of noise divided by itself.
    """
    if not 0 < h < R:
        raise DomainValidationError("check_ID_relation needs 0 < h < R")
    (_, I, _), (Dm, _, Dp) = (
        v.tolist() for v in _slices_ID(u, np.array([R - h, R, R + h]), tol))
    fd = (R / 4.0) * (Dp - Dm) / (2.0 * h)
    scale = max(abs(I), abs(fd), (abs(Dp) + abs(Dm)) / 8.0)
    if scale == 0.0:
        return 0.0
    return abs(I - fd) / scale


def check_N_bound(u, scan):
    """Discrete check of (log N)'(R) >= -2 eps / R across a scan of u.

    Returns (defect, C): defect is the largest violation of
    log N(R_{k+1}) - log N(R_k) >= -2 eps (log R_{k+1} - log R_k),
    C = max N(R) R^(2eps).  A state with N == 0 everywhere (u == 1)
    passes trivially with C = 0; N = 0 at isolated grid points is an error.
    """
    if scan.scale.size < 3:
        raise DomainValidationError("check_N_bound needs >= 3 grid points")
    eps = u.params.eps
    Nn = scan.UN
    if np.all(Nn == 0.0):
        return 0.0, 0.0
    if np.any(Nn <= 0.0):
        raise ConsistencyError("N vanishes at some grid points")
    dlogN = np.diff(np.log(Nn))
    dlogR = np.diff(np.log(scan.scale))
    defect = float(np.max(np.concatenate([[0.0], -2.0 * eps * dlogR - dlogN])))
    C = float(np.max(Nn * scan.scale ** (2.0 * eps)))
    return defect, C


def check_D_lower(u, scan):
    """Floor fit of the slice mass D across a parabolic scan."""
    return floor_fit(scan.scale, scan.ED, u.params.eps)
