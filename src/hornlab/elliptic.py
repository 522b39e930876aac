"""Elliptic frequency functionals on the horn.

For a separated state u = f(r) phi_i(theta) with unit spherical L^2 factor
and L u = lam u (lam = -mu <= 0 in the convention fixed here), the three
scale-invariant quantities reduce to radial form:

    I(r) = r^(1-n) w(r) f(r)^2
    E(r) = r^(2-n) int_0^r ( f'^2 + 4 mu_i s^(-2-2eps) f^2 + lam f^2 ) w ds
         = r^(2-n) w(r) f(r) f'(r)          (boundary form)
    U(r) = E(r) / I(r)

Every kind of state enters only through radial_log(r) = (sign, log|f|,
d log|f|/dr), and a scan evaluates it once on its whole grid.  Both routes
to E are computed at every evaluation and must agree; a mismatch signals
quadrature or profile inaccuracy and aborts rather than silently
propagating.  The exact logarithmic-derivative identity

    r (log I)'(r) - 2 U(r) = c - n + 1

is checked in this scale-invariant form (the identity divided by 1/r),
against central differences of log I on the scan grid.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv
from .errors import ConsistencyError, DomainValidationError, TipTailError
from .geometry import angular_coupling, measure_weight_log, sphere_eigenvalue
from .modes import decay_exponent_fit, radial_mode_zero
from .numerics import bessel_j, check_in_range, fit_line, quad_log

_KIND_ELLIPTIC = "elliptic"
_KIND_PARABOLIC = "parabolic"


# ---------------------------------------------------------------------------
# Mode states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeState:
    """One separated solution u = f_i(r) phi_i(theta) on the radial window
    domain.  Its factory sets radial_log(r) = (sign, log|f|, d log|f|/dr)
    at an array of radii, r_lo, where the bulk energy integral starts, and
    tail, the certified energy below r_lo."""

    params: object
    i: int
    mu: float
    domain: tuple
    radial_log: object
    r_lo: float = 0.0
    tail: float = 0.0

    @property
    def lam(self):
        """Sign convention L u = lam u with lam = -mu."""
        return -self.mu

    @property
    def mu_i(self):
        return sphere_eigenvalue(self.params.n, self.i)


def _constant_radial_log(r):
    """(sign, log|f|, d log|f|/dr) of f == 1 at an array of radii."""
    r = np.asarray(r, dtype=float)
    z = np.zeros_like(r)
    return np.ones_like(r), z, z


def constant_state(p, domain):
    """f == 1, i = 0, mu = 0 (harmonic)."""
    return ModeState(params=p, i=0, mu=0.0, radial_log=_constant_radial_log,
                     domain=_checked_domain(domain))


def bessel_state(p, mu, domain):
    """Bounded radial branch, i = 0, mu > 0."""
    domain = _checked_domain(domain)
    if not mu > 0:
        raise DomainValidationError("bessel_state needs mu > 0")
    mu = float(mu)
    nu = (p.c - 1.0) / 2.0

    def radial_log(r):
        r = np.asarray(r, dtype=float)
        x = r * math.sqrt(mu)
        vals = radial_mode_zero(p, mu, r)
        sign = np.sign(vals)
        # f'(r) = -mu^((nu+1)/2) x^-nu J_{nu+1}(x); dlog = f'/f
        with np.errstate(divide="ignore", invalid="ignore"):
            lm = np.log(np.abs(vals))
            der = np.where(x > 0, -math.sqrt(mu)
                           * bessel_j(nu + 1.0, x) / bessel_j(nu, x), 0.0)
        return sign, lm, der

    return ModeState(params=p, i=0, mu=mu, domain=domain,
                     radial_log=radial_log)


def profile_state(profile, domain=None):
    """State carried by a tip RadialProfile (i >= 1), on a domain inside
    its range; the energy below the profile's r_min is bounded once, here."""
    if domain is None:
        domain = (profile.r_min, profile.r_max)
    domain = _checked_domain(domain)
    check_in_range(domain, profile.r_min, profile.r_max, "profile_state domain")
    state = ModeState(params=profile.params, i=profile.i, mu=profile.mu,
                      domain=domain, radial_log=profile.eval_log,
                      r_lo=profile.r_min)
    return replace(state, tail=_tip_tail_bound(state, profile))


def _checked_domain(domain):
    if not (len(domain) == 2 and 0 < domain[0] < domain[1]):
        raise DomainValidationError(f"invalid radial domain {domain}")
    return float(domain[0]), float(domain[1])


# ---------------------------------------------------------------------------
# Frequency scan container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyScan:
    """Rows (scale, I, E-or-D, U-or-N) of a frequency scan."""

    kind: str
    scale: np.ndarray
    I: np.ndarray
    ED: np.ndarray
    UN: np.ndarray

    def __post_init__(self):
        sc = np.asarray(self.scale, dtype=float)
        if sc.size < 1 or np.any(np.diff(sc) <= 0):
            raise DomainValidationError("scan scales must be strictly increasing")
        # row-exact ratio invariant: U = E/I (elliptic), N = I/D (parabolic)
        if self.kind == _KIND_ELLIPTIC:
            num, den = self.ED, self.I
        else:
            num, den = self.I, self.ED
        safe = np.where(den == 0, 1.0, den)
        ref = np.where(den == 0, 0.0, num / safe)
        if np.any(np.abs(self.UN - ref) >
                  1e-12 * np.maximum(np.abs(ref), 1e-300)):
            raise ConsistencyError("scan ratio column is not row-exact")

    @property
    def header(self):
        return ["r", "I", "E", "U"] if self.kind == _KIND_ELLIPTIC \
            else ["R", "I", "D", "N"]

    def to_csv(self, path):
        rows = zip(self.scale.tolist(), self.I.tolist(),
                   self.ED.tolist(), self.UN.tolist())
        write_csv(path, self.header, rows)


# ---------------------------------------------------------------------------
# I, E, U
# ---------------------------------------------------------------------------


# math.exp element by element: numpy's vector exp can differ from it in the
# last bit depending on the CPU's SIMD path, which would move rounding-level
# report values such as the constant state's identity defect
_exp = np.vectorize(math.exp, otypes=[float])


def _boundary_mass(state, r, radial):
    """I = r^(1-n) w(r) f(r)^2 at radii r (array), from radial_log(r);
    0 where f vanishes or underflows."""
    p = state.params
    sign, lm, _ = radial
    I = _exp((1 - p.n) * np.log(r) + measure_weight_log(p, r) + 2.0 * lm)
    return np.where((sign == 0) | ~np.isfinite(lm), 0.0, I)


def elliptic_I(state, r):
    """Boundary mass I(r) = r^(1-n) w(r) f(r)^2 (log-space assembly)."""
    check_in_range(r, *state.domain, "state radius")
    r_arr = np.array([float(r)])
    return float(_boundary_mass(state, r_arr, state.radial_log(r_arr))[0])


def _energy_density_log(state, lam, r, radial=None):
    """(sign, log) of (f'^2 + 4 mu_i r^(-2-2eps) f^2 + lam f^2) w(r) at
    radii r; radial is state.radial_log(r) when the caller already has it.

    lam = state.lam gives the energy density; lam = |state.lam| gives its
    positive envelope, the scale of the bulk/boundary comparison.
    """
    p = state.params
    sign, lm, ld = state.radial_log(r) if radial is None else radial
    bracket = ld ** 2 + state.mu_i * angular_coupling(p, r) + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out_log = 2.0 * lm + measure_weight_log(p, r) + np.log(np.abs(bracket))
    out_sign = np.where(bracket == 0, 0.0, np.sign(bracket))
    out_sign = np.where(sign == 0, 0.0, out_sign)
    out_log = np.where(sign == 0, -np.inf, out_log)
    return out_sign, out_log


def _bulk_integrals(state, a, b, tol):
    """int_a^b (f'^2 + V f^2 + lam f^2) w ds for each row of the arrays a
    and b, every nonempty row in one quad_log call; an empty row (b <= a)
    is 0."""
    def density_log(x, rows):
        return [v.reshape(x.shape) for v in
                _energy_density_log(state, state.lam, x.ravel())]

    out = np.zeros(a.size)
    full = b > a
    sign, log_val, _ = quad_log(density_log, a[full], b[full], tol)
    out[full] = sign * _exp(log_val)
    return out


def _tip_tail_bound(state, prof):
    """Certified bound on the energy integral below the profile window.

    Uses the fitted decay law of log|f| in r^-eps: below r_min the density
    is dominated by f(r_min)^2 w(r_min) r_min^(1+eps) (dlog^2 + V + |lam|)
    / (2 |slope| eps).
    """
    fit = decay_exponent_fit(prof)
    if fit.slope >= 0:
        raise ConsistencyError("profile decay fit has non-negative slope")
    r0 = prof.r_min
    env = _energy_density_log(state, abs(state.lam), np.array([r0]))[1][0]
    return math.exp(env) * r0 ** (1.0 + state.params.eps) \
        / (2.0 * abs(fit.slope) * state.params.eps)


def elliptic_E(state, r, tol=1e-10):
    """Energy E(r), bulk form, cross-validated against the boundary form.

    The two representations must agree to 1e-6 relative to the positive
    energy envelope, and the tip tail below a profile window must be
    negligible; otherwise ConsistencyError.
    """
    check_in_range(r, *state.domain, "state radius")
    r_arr = np.array([float(r)])
    bulk = _bulk_integrals(state, np.array([state.r_lo]), r_arr, tol)
    return float(_checked_energy(state, r_arr, state.radial_log(r_arr),
                                 bulk)[0][0])


def _checked_energy(state, r, radial, bulk):
    """(bulk E, boundary E, energy scale) at radii r (array), from
    radial = state.radial_log(r) and the bulk integrals over
    [state.r_lo, r], against the certified tip tail state.tail below r_lo.

    The tail must be negligible against each bulk integral (otherwise
    TipTailError, a ConsistencyError), and the two routes to E, the bulk
    form and the boundary form r^(2-n) w f f', must agree to 1e-6 of the
    positive energy envelope (otherwise ConsistencyError); either names
    the first radius at fault.
    """
    p = state.params
    sign, lm, ld = radial
    bad = state.tail > np.maximum(1e-9 * np.abs(bulk), 1e-300)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise TipTailError(
            f"uncontrolled tip tail below the profile window at r={r[k]}: "
            f"tail bound {state.tail} against bulk integral {bulk[k]}")
    log_pref = (2 - p.n) * np.log(r)
    pref = _exp(log_pref)
    E_bulk = pref * bulk
    # r^(2-n) w f f' = r^(2-n) w f^2 dlog
    with np.errstate(invalid="ignore"):
        E_bdry = np.where(sign == 0, 0.0, ld * _exp(
            log_pref + measure_weight_log(p, r) + 2.0 * lm))
    env = _exp(_energy_density_log(state, abs(state.lam), r, radial)[1])
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

    A nodal sphere (I = 0) on the grid aborts with the offending radius:
    U is genuinely singular there.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 1 or np.any(np.diff(r_grid) <= 0):
        raise DomainValidationError("r_grid must be strictly increasing")
    check_in_range(r_grid, *state.domain, "state radius")

    radial = state.radial_log(r_grid)
    I = _boundary_mass(state, r_grid, radial)
    # a grid point within rounding distance of a node: the logarithmic
    # derivative blows up like 1/distance and U is genuinely singular
    nodal = (I == 0.0) | (np.abs(r_grid * radial[2]) > 1e12)
    if np.any(nodal):
        raise ConsistencyError(
            f"nodal sphere: I vanishes at r = {r_grid[np.argmax(nodal)]}")
    segs = np.concatenate([[state.r_lo], r_grid])
    seg_tol = tol / max(1, r_grid.size)
    bulk = np.cumsum(_bulk_integrals(state, segs[:-1], segs[1:], seg_tol))
    E = _checked_energy(state, r_grid, radial, bulk)[0]
    return FrequencyScan(kind=_KIND_ELLIPTIC, scale=r_grid, I=I, ED=E,
                         UN=E / I)


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
    lam = state.lam
    r = scan.scale
    g = r ** (2.0 * eps) * scan.UN
    rhs = lam * np.diff(r ** (2.0 + 2.0 * eps)) / (2.0 + 2.0 * eps)
    defect = float(np.max(np.concatenate([[0.0], rhs - np.diff(g)])))
    C = float(np.max(g))
    return defect, C


def floor_fit(scale, mass, eps):
    """Fit of log mass against 1 - (scale/scale_top)^(-2eps) across a scan
    of at least 8 rows: the floor check of both frequency functionals.

    A non-negative slope certifies that the mass decays no faster than
    exp(-C scale^(-2eps)); the top of the scan range stands in as the
    reference scale.
    """
    if scale.size < 8:
        raise DomainValidationError("a floor fit needs >= 8 scan rows")
    x = 1.0 - (scale / scale[-1]) ** (-2.0 * eps)
    return fit_line(x, np.log(mass))


def check_I_lower(state, scan):
    """Floor fit of the boundary mass I across an elliptic scan."""
    return floor_fit(scan.scale, scan.I, state.params.eps)
