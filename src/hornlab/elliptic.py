"""Elliptic frequency functionals on the horn.

For a separated state u = f(r) phi_i(theta) with unit spherical L^2 factor
and L u = lam u (lam = -mu <= 0 in the convention fixed here), the three
scale-invariant quantities reduce to radial form:

    I(r) = r^(1-n) w(r) f(r)^2
    E(r) = r^(2-n) int_0^r ( f'^2 + 4 mu_i s^(-2-2eps) f^2 + lam f^2 ) w ds
         = r^(2-n) w(r) f(r) f'(r)          (boundary form)
    U(r) = E(r) / I(r)

A state is the one-term heat.CaloricSeries exp(-mu t) f(r) phi_i; a scan
evaluates its term's (sign, log|f|, d log|f|/dr) once on the whole grid.
Both routes to E are computed at every evaluation and must agree; a
mismatch signals quadrature or profile inaccuracy and aborts rather than
silently propagating.  The exact logarithmic-derivative identity

    r (log I)'(r) - 2 U(r) = c - n + 1

is checked in this scale-invariant form (the identity divided by 1/r),
against central differences of log I on the scan grid.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, DomainValidationError, TipTailError
from .geometry import angular_coupling, measure_weight_log, sphere_eigenvalue
from .heat import CaloricSeries, one_row
from .modes import decay_exponent_fit, radial_mode_zero_log
from .numerics import check_in_range, fit_line, quad_log

_KIND_ELLIPTIC = "elliptic"
_KIND_PARABOLIC = "parabolic"


# ---------------------------------------------------------------------------
# Mode states
# ---------------------------------------------------------------------------


def _constant_radial_log(r):
    """(sign, log|f|, d log|f|/dr) of f == 1 at radii r."""
    z = np.zeros_like(r, dtype=float)
    return np.ones_like(z), z, z


def _mode_state(p, i, mu, radial_log, domain, r_lo=0.0):
    """The one-term series exp(-mu t) f_i(r) phi_i of a separated solution,
    L u = -mu u, with coefficient 1 on the radial window domain."""
    if not (len(domain) == 2 and 0 < domain[0] < domain[1]):
        raise DomainValidationError(f"invalid radial domain {domain}")
    return CaloricSeries(params=p, sphere_index=i,
                         r_support=(float(domain[0]), float(domain[1])),
                         radial=one_row(radial_log), rates=np.array([mu]),
                         coeffs=np.array([1.0]), r_lo=r_lo)


def constant_state(p, domain):
    """f == 1, i = 0, mu = 0 (harmonic)."""
    return _mode_state(p, 0, 0.0, _constant_radial_log, domain)


def bessel_state(p, mu, domain):
    """Bounded radial branch, i = 0, mu > 0."""
    if not mu > 0:
        raise DomainValidationError("bessel_state needs mu > 0")
    mu = float(mu)
    return _mode_state(p, 0, mu, lambda r: radial_mode_zero_log(p, mu, r),
                       domain)


def profile_state(profile):
    """State carried by a tip RadialProfile (i >= 1) on the profile's
    range; the energy below the profile's r_min is estimated once, here."""
    state = _mode_state(profile.params, profile.i, profile.mu,
                        profile.eval_log, (profile.r_min, profile.r_max),
                        r_lo=profile.r_min)
    return replace(state, tip_tail=_tip_tail_bound(state, profile))


def _term(state):
    """(radial_log, lam) of a one-term state c exp(-mu t) f(r) phi_i:
    radial_log(r) = (sign f, log|c f|, d log|f|/dr), log|c| added to
    log|f| (exact for c = 1; the functionals are quadratic in u and read
    the sign only where it is 0), and lam = -mu.  Refuses more terms."""
    if state.rates.size != 1:
        raise DomainValidationError(
            f"an elliptic state has one term, got {state.rates.size} terms")
    c = float(state.coeffs[0])
    log_c = math.log(abs(c)) if c != 0 else -math.inf

    def scaled(r):
        sign, lm, ld = state.radial(r, 0)
        return sign, lm + log_c, ld

    return scaled, -float(state.rates[0])


# ---------------------------------------------------------------------------
# Frequency scan container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyScan:
    """Rows (scale, I, E-or-D, U-or-N) of a frequency scan; the ratio
    column is derived, U = E/I (elliptic) or N = I/D (parabolic)."""

    kind: str
    scale: np.ndarray
    I: np.ndarray
    ED: np.ndarray

    @property
    def UN(self):
        return self.ED / self.I if self.kind == _KIND_ELLIPTIC \
            else self.I / self.ED


# ---------------------------------------------------------------------------
# I, E, U
# ---------------------------------------------------------------------------


def _boundary_mass(state, r, radial):
    """I = r^(1-n) w(r) f(r)^2 at radii r of any shape, from radial_log(r);
    0 where f vanishes or underflows."""
    p = state.params
    sign, lm, _ = radial
    I = np.exp((1 - p.n) * np.log(r) + measure_weight_log(p, r) + 2.0 * lm)
    return np.where((sign == 0) | ~np.isfinite(lm), 0.0, I)


def _energy_density_log(state, lam, r, radial):
    """(sign, log) of (f'^2 + 4 mu_i r^(-2-2eps) f^2 + lam f^2) w(r) at
    radii r from radial = (sign, log|f|, d log|f|/dr): the one gradient
    energy integrand, of E and (lam = 0, f the slice factor) of parabolic I.

    The state's own lam gives the energy density; |lam| gives its positive
    envelope, the scale of the bulk/boundary comparison.  At an exact zero
    of f (sign 0) the density is 0, as the triple carries no f' there.
    """
    p = state.params
    sign, lm, ld = radial
    mu_i = sphere_eigenvalue(p.n, state.sphere_index)
    bracket = ld ** 2 + mu_i * angular_coupling(p, r) + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out_log = 2.0 * lm + measure_weight_log(p, r) + np.log(np.abs(bracket))
    out_sign = np.where(bracket == 0, 0.0, np.sign(bracket))
    out_sign = np.where(sign == 0, 0.0, out_sign)
    out_log = np.where(sign == 0, -np.inf, out_log)
    return out_sign, out_log


def _bulk_integrals(state, a, b, tol):
    """int_a^b (f'^2 + V f^2 + lam f^2) w ds for each row of the arrays a
    and b, every nonempty row in one quad_log call, and none when every
    row is empty; an empty row (b <= a) is 0."""
    radial_log, lam = _term(state)

    def density_log(x, rows):
        return _energy_density_log(state, lam, x, radial_log(x))

    out = np.zeros(a.size)
    full = b > a
    if full.any():
        sign, log_val, _ = quad_log(density_log, a[full], b[full], tol)
        out[full] = sign * np.exp(log_val)
    return out


def _tip_tail_bound(state, prof):
    """Estimate of the energy integral below the profile window.

    Uses the decay law of log|f| in r^-eps that decay_exponent_fit fits:
    below r_min the density is dominated by f(r_min)^2 w(r_min)
    r_min^(1+eps) (dlog^2 + V + |lam|) / (2 |slope| eps).  It divides by
    that fitted slope, so it is a fitted estimate, not a proved bound.
    """
    fit = decay_exponent_fit(prof)
    if fit.slope >= 0:
        raise ConsistencyError("profile decay fit has non-negative slope")
    radial_log, lam = _term(state)
    r0 = np.array([prof.r_min])
    env = _energy_density_log(state, abs(lam), r0, radial_log(r0))[1][0]
    return math.exp(env) * prof.r_min ** (1.0 + state.params.eps) \
        / (2.0 * abs(fit.slope) * state.params.eps)


def _checked_energy(state, lam, r, radial, bulk):
    """(bulk E, boundary E, energy scale) at radii r (array), from lam and
    radial, the state's (sign, log|f|, d log|f|/dr) at r, and the bulk
    integrals over [state.r_lo, r], against the fitted tip tail estimate
    state.tip_tail below r_lo.

    The tail must be negligible against each bulk integral (otherwise
    TipTailError, a ConsistencyError), and the two routes to E, the bulk
    form and the boundary form r^(2-n) w f f', must agree to 1e-6 of the
    positive energy envelope (otherwise ConsistencyError); either names
    the first radius at fault.
    """
    p = state.params
    sign, lm, ld = radial
    bad = state.tip_tail > np.maximum(1e-9 * np.abs(bulk), 1e-300)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise TipTailError(
            f"uncontrolled tip tail below the profile window at r={r[k]}: "
            f"tail bound {state.tip_tail} against bulk integral {bulk[k]}")
    log_pref = (2 - p.n) * np.log(r)
    pref = np.exp(log_pref)
    E_bulk = pref * bulk
    # r^(2-n) w f f' = r^(2-n) w f^2 dlog
    with np.errstate(invalid="ignore"):
        E_bdry = np.where(sign == 0, 0.0, ld * np.exp(
            log_pref + measure_weight_log(p, r) + 2.0 * lm))
    env = np.exp(_energy_density_log(state, abs(lam), r, radial)[1])
    # f^2 grows like exp(-2C r^-eps) toward r, so the envelope of the
    # density over [r_lo, r] peaks at r
    scale = pref * env * (r - state.r_lo)
    bad = np.abs(E_bulk - E_bdry) > 1e-6 * np.maximum(
        scale, np.maximum(np.abs(E_bulk), np.abs(E_bdry)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ConsistencyError(f"bulk/boundary energy mismatch at r={r[k]}: "
                               f"{E_bulk[k]} vs {E_bdry[k]}")
    return E_bulk, E_bdry, scale


def elliptic_scan(state, r_grid, tol=1e-10):
    """Scan rows (r, I, E, U) from one evaluation of the state on the
    grid; E accumulated segment-by-segment (bulk form), every segment a
    row of one quad_log call, with the boundary form cross-checked at
    every row.

    Every segment is held to tol against its own int |f|, so the running
    sum up to r is within tol int_{r_lo}^r |f| however many rows the grid
    has; dividing tol among the rows would only push a fine grid's
    tolerance into rounding.

    A nodal sphere (I = 0) on the grid aborts with the offending radius:
    U is genuinely singular there.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 1 or np.any(np.diff(r_grid) <= 0):
        raise DomainValidationError("r_grid must be strictly increasing")
    radial_log, lam = _term(state)
    check_in_range(r_grid, *state.r_support, "state radius")

    radial = radial_log(r_grid)
    I = _boundary_mass(state, r_grid, radial)
    # a grid point within rounding distance of a node: the logarithmic
    # derivative blows up like 1/distance and U is genuinely singular
    nodal = (I == 0.0) | (np.abs(r_grid * radial[2]) > 1e12)
    if np.any(nodal):
        raise ConsistencyError(
            f"nodal sphere: I vanishes at r = {r_grid[np.argmax(nodal)]}")
    segs = np.concatenate([[state.r_lo], r_grid])
    bulk = np.cumsum(_bulk_integrals(state, segs[:-1], segs[1:], tol))
    E = _checked_energy(state, lam, r_grid, radial, bulk)[0]
    return FrequencyScan(kind=_KIND_ELLIPTIC, scale=r_grid, I=I, ED=E)


# ---------------------------------------------------------------------------
# Identity and bound checks
# ---------------------------------------------------------------------------


def check_logI_identity(state, scan):
    """Max defect of the scale-invariant identity r (log I)' - 2U = c - n + 1.

    (log I)' is formed by central differences in log r on the scan grid, so
    the defect is pure differencing error, O(h^2) on smooth scans, and
    vanishes identically for power-law I.
    """
    if scan.scale.size < 3:
        raise DomainValidationError("check_logI_identity needs >= 3 rows")
    p = state.params
    d = np.gradient(np.log(scan.I), np.log(scan.scale))[1:-1]
    defect = np.abs(d - 2.0 * scan.UN[1:-1] - (p.c - p.n + 1.0))
    return float(np.max(defect))


def check_U_growth(state, scan):
    """Discrete check of (r^(2eps) U)' >= lam r^(1+2eps) between rows.

    Returns (defect, C): defect is the largest violation (0 when the
    inequality holds everywhere), C = max U(r) r^(2eps) over rows, the
    empirical constant in U(r) <= C r^(-2eps).
    """
    if scan.scale.size < 3:
        raise DomainValidationError("check_U_growth needs >= 3 rows")
    eps = state.params.eps
    _, lam = _term(state)
    r = scan.scale
    g = r ** (2.0 * eps) * scan.UN
    rhs = lam * np.diff(r ** (2.0 + 2.0 * eps)) / (2.0 + 2.0 * eps)
    defect = float(np.max(np.concatenate([[0.0], rhs - np.diff(g)])))
    C = float(np.max(g))
    return defect, C


def floor_fit(scale, mass, eps):
    """Fit of log mass against 1 - (scale/scale_top)^(-2eps) across a scan
    of at least 8 rows: the floor check of both frequency functionals.

    A non-negative slope indicates, as a fit and not a proof, that the mass
    decays no faster than exp(-C scale^(-2eps)); the top of the scan range
    stands in as the reference scale.
    """
    if scale.size < 8:
        raise DomainValidationError("a floor fit needs >= 8 scan rows")
    x = 1.0 - (scale / scale[-1]) ** (-2.0 * eps)
    return fit_line(x, np.log(mass))


def check_I_lower(state, scan):
    """Floor fit of the boundary mass I across an elliptic scan."""
    return floor_fit(scan.scale, scan.I, state.params.eps)
