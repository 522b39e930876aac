"""Radial mode solutions near the horn tip.

A separated eigenmode u = f_i(r) phi_i(theta) with L u = -mu u satisfies

    f'' + (c/r) f' - 4 mu_i r^(-2-2eps) f + mu f = 0.

Substituting s = r^(-eps) and peeling off the power s^beta with
beta = (c-1-eps)/(2 eps) brings this to normal form on the tip side,

    k''(s) = ( A s^-2 + 4 mu_i / eps^2 - (mu/eps^2) s^(-2/eps - 2) ) k(s),

with A = beta (beta + 1).  Past the threshold abscissa s = r_mu the bracket
A s^-2 - (mu/eps^2) s^(-2/eps-2) lies in [0, 1], so q(s), the whole
coefficient, lies in [rho^2, rho^2 + 1] with rho = 2 sqrt(mu_i)/eps, and
solutions behave like exp(+-rho s) up to explicit two-sided bounds.  The
growing branch k1 is integrated forward from unit Cauchy data at r_mu.

The decaying branch k2 is carried by its logarithmic derivative
kappa = k2'/k2, which solves the Riccati equation kappa' = q - kappa^2,
and by Lambda' = kappa.  A comparison argument puts kappa in
[-sqrt(rho^2+1), -rho] on [r_mu, inf), because k2 stays positive and
tends to 0:

  - if kappa(s0) > -rho, then kappa' >= rho^2 - kappa^2 keeps kappa above
    -rho and, like the solution of kappa' = rho^2 - kappa^2 started there,
    carries it above 0, after which k2 grows;
  - if kappa(s0) < -sqrt(rho^2+1), then kappa' <= rho^2 + 1 - kappa^2
    sends kappa to -inf at a finite s, where k2 would vanish.

The same inequalities make the interval invariant for the flow in
decreasing s, and the difference d of two solutions inside it obeys
d' = -(kappa_a + kappa_b) d with -(kappa_a + kappa_b) >= 2 rho.  So the
pair is integrated *backward*, down to r_mu from

    s_far = s_top + (30 + log(rho + 1))/(2 rho) + 0.5,
    kappa(s_far) = -sqrt(q(s_far)),

where s_top is the top of the span wanted.  The start lies in the
interval, so its error is at most sqrt(rho^2+1) - rho, and it shrinks like
exp(-2 rho (s_far - s)).  The Wronskian k1 k2' - k1' k2 = -1, with
k1 = k1' = 1 at r_mu, fixes the scale: log k2(r_mu) = -log(1 - kappa(r_mu))
and log k2(s) = log k2(r_mu) + Lambda(s) - Lambda(r_mu).  Nothing is
exponentiated, so the span has no representable-range limit.

Everything tip-side is represented as (sign, log-magnitude): the physical
profile f_i(r) = k2(r^-eps) r^(-(c-1-eps)/2) underflows double precision
long before r = 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv
from .errors import ConsistencyError, DomainValidationError
from .geometry import measure_weight_log, sphere_eigenvalue
from .numerics import check_in_range, fit_line, integrate_ode, quad_log


def tip_exponent(p):
    """beta = (c - 1 - eps)/(2 eps), the power split between g and k."""
    return (p.c - 1.0 - p.eps) / (2.0 * p.eps)


def tip_rate(p, i):
    """rho = sqrt(4 mu_i / eps^2), the exponential rate of the tip branches."""
    mu_i = sphere_eigenvalue(p.n, i)
    return 2.0 * math.sqrt(mu_i) / p.eps


def r_mu(p, mu):
    """Threshold abscissa past which the normal-form bracket lies in [0, 1].

    r_mu = max( sqrt(A),  (A eps^2 / mu)^(-eps/2) ),  A = beta (beta + 1);
    mu = 0 drops the second branch.
    """
    if not mu >= 0:
        raise DomainValidationError(f"r_mu needs mu >= 0, got {mu}")
    beta = tip_exponent(p)
    A = beta * (beta + 1.0)
    first = math.sqrt(A)
    if mu == 0.0:
        return first
    return max(first, (A * p.eps * p.eps / mu) ** (-p.eps / 2.0))


def tip_window_top(p, mu):
    """r_mu^(-1/eps): the radius of the threshold abscissa, the top of the
    tip window on which the decaying branch is constructed."""
    return r_mu(p, mu) ** (-1.0 / p.eps)


def _tip_log(p, s, r, log_k, kappa):
    """(log f, d log f/dr) of f(r) = k(s) s^beta at s = r^-eps, from
    log k(s) and kappa = d log k/ds."""
    return (log_k + tip_exponent(p) * np.log(s),
            -(p.eps * s / r) * kappa - (p.c - 1.0 - p.eps) / (2.0 * r))


def _q_factory(p, i, mu):
    beta = tip_exponent(p)
    A = beta * (beta + 1.0)
    rho2 = 4.0 * sphere_eigenvalue(p.n, i) / p.eps ** 2
    inv2 = mu / p.eps ** 2
    expo = -2.0 / p.eps - 2.0

    def q(s):
        return A * s ** -2.0 + rho2 - inv2 * s ** expo

    return q


def _check_sandwich(rho, span, log_k, lower, upper, branch):
    """ConsistencyError unless log k, a function of an array of abscissas,
    lies between the lines lower and upper at 65 points of span, with a
    slack of 1e-9.  A line (a, b) is a + b (s - s_lo); the comparison
    bounds need rho >= 1."""
    if rho < 1.0:
        return
    s_lo, s_hi = span
    ss = np.linspace(s_lo, s_hi, 65)
    d = ss - s_lo
    L = log_k(ss)
    if not (np.all(L <= upper[0] + upper[1] * d + 1e-9)
            and np.all(L >= lower[0] + lower[1] * d - 1e-9)):
        raise ConsistencyError(
            f"{branch} tip branch violates its two-sided exponential bounds")


def solve_k1(p, i, mu, s_max, tol=1e-12):
    """Growing branch of the normal-form tip equation on [r_mu, s_max].

    Unit Cauchy data k = k' = 1 at s = r_mu; the solution is verified
    against its two-sided exponential bounds on construction.
    """
    if not i >= 1:
        raise DomainValidationError("solve_k1 needs i >= 1 (mu_i > 0)")
    s_lo = r_mu(p, mu)
    if not s_max > s_lo:
        raise DomainValidationError(
            f"s_max must exceed r_mu = {s_lo}, got {s_max}")
    q = _q_factory(p, i, mu)

    def fld(s, y):
        return [y[1], q(s) * y[0]]

    sol = integrate_ode(fld, (s_lo, s_max), [1.0, 1.0], tol)
    rho = tip_rate(p, i)
    _check_sandwich(rho, (s_lo, s_max), lambda ss: np.log(sol.states(ss)[0]),
                    (-math.log(rho), rho), (0.0, rho + 1.0), "growing")
    return sol


def _s_far(rho, s_top):
    """Start of the backward Riccati integration for a span ending at s_top;
    the start's error has shrunk by (rho + 1) e^(30 + rho) at s_top."""
    return s_top + (30.0 + math.log(rho + 1.0)) / (2.0 * rho) + 0.5


def tip_anchor(p, i, mu, tol):
    """(r_mu^(-1/eps), d log f/dr there) of the decaying tip branch.

    Only kappa = k2'/k2 is integrated, backward from s_far to r_mu and
    endpoint only, so this is the cheap anchor of a shot; profile_from_k2
    gives the same slope as its log_deriv[0].
    """
    s_lo = r_mu(p, mu)
    s_far = _s_far(tip_rate(p, i), s_lo)
    q = _q_factory(p, i, mu)

    def fld(s, y):
        return [q(s) - y[0] * y[0]]

    kappa = integrate_ode(fld, (s_far, s_lo), [-math.sqrt(q(s_far))], tol,
                          dense=False)[0]
    r_top = s_lo ** (-1.0 / p.eps)
    return r_top, float(_tip_log(p, s_lo, r_top, 0.0, kappa)[1])


class TipDecaySolution:
    """Decaying branch k2 on [r_mu, s_max] (DenseSolution-compatible).

    Holds the backward Riccati solve, a DenseSolution of (kappa2, Lambda)
    on [r_mu, s_far], and reads log k2 and its logarithmic derivative off
    its continuous extension:
    log k2(s) = Lambda(s) - Lambda(r_mu) - log(1 - kappa2(r_mu)).
    tail_rel_uncertainty = (sqrt(rho^2+1) - rho) exp(-2 rho (s_far - s_max))
    bounds the error that the backward start leaves in kappa at s_max, the
    worst point of the span.  eval() reproduces linear-space values where
    they are representable.
    """

    def __init__(self, span, sol, q, tail_rel_uncertainty):
        self.span = span
        self._q = q
        self._sol = sol
        # the solve ends at r_mu: its last recorded state fixes the scale
        kappa_lo, lam_lo = sol.step_states[:, -1]
        self._log_offset = -lam_lo - math.log(1.0 - kappa_lo)
        self.tail_rel_uncertainty = tail_rel_uncertainty

    def log_eval(self, s):
        """(log k2, kappa2 = k2'/k2) at s (scalar or array)."""
        check_in_range(s, *self.span, "tip abscissa s")
        kappa2, lam = self._sol.states(s)
        return lam + self._log_offset, kappa2

    def eval(self, s):
        """((k2, k2'), (k2', k2'')) in linear space."""
        L, kap = self.log_eval(s)
        v = np.exp(L)
        vp = kap * v
        return np.array([v, vp]), np.array([vp, self._q(s) * v])


def solve_k2(p, i, mu, s_max, tol=1e-12):
    """Decaying branch on [r_mu, s_max] from one backward Riccati solve.

    kappa and Lambda are integrated from s_far down to r_mu as one dense
    solve, which the returned TipDecaySolution evaluates directly; the
    Wronskian scale fixes log k2(r_mu).  Raises ConsistencyError if the
    start at s_far could leave a kappa error above 1e-12 anywhere on the
    span.
    """
    if not i >= 1:
        raise DomainValidationError("solve_k2 needs i >= 1 (mu_i > 0)")
    s_lo = r_mu(p, mu)
    if not s_max > s_lo:
        raise DomainValidationError(
            f"s_max must exceed r_mu = {s_lo}, got {s_max}")
    rho = tip_rate(p, i)
    s_far = _s_far(rho, s_max)
    rel_unc = ((math.sqrt(rho * rho + 1.0) - rho)
               * math.exp(-2.0 * rho * (s_far - s_max)))
    if rel_unc > 1e-12:
        raise ConsistencyError(
            f"backward start uncertainty {rel_unc:.2e} exceeds 1e-12; "
            "start window too short")
    q = _q_factory(p, i, mu)

    def fld(s, y):
        return [q(s) - y[0] * y[0], y[0]]

    sol = integrate_ode(fld, (s_far, s_lo), [-math.sqrt(q(s_far)), 0.0], tol)
    k2 = TipDecaySolution((s_lo, s_max), sol, q, rel_unc)
    _check_sandwich(rho, k2.span, lambda ss: k2.log_eval(ss)[0],
                    (-math.log(2.0 * (rho ** 2 + rho)), -rho - 2.0),
                    (math.log(rho / 2.0), -rho + 1.0), "decaying")
    return k2


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Underflow-safe radial mode: an abscissa grid and its evaluator.

    evaluator(r) gives (sign, log|f|, d log|f|/dr), three arrays of the
    shape of the radii r, and is the one route to the mode's values.  The
    grid is carried in the transformed abscissa s = r^-eps (increasing s
    means approaching the tip); it fixes the represented range [r_min,
    r_max], and sign / log_mag / log_deriv are the evaluator's values on it.
    """

    params: object
    i: int
    mu: float
    s_grid: np.ndarray
    evaluator: object = field(repr=False)

    def __post_init__(self):
        self.r_grid = self.s_grid ** (-1.0 / self.params.eps)
        self.r_min = float(self.r_grid.min())
        self.r_max = float(self.r_grid.max())
        self.sign, self.log_mag, self.log_deriv = self.eval_log(self.r_grid)

    def eval_log(self, r):
        """(sign, log|f|, d log|f|/dr) at r, each of the shape of r."""
        r = np.asarray(r, dtype=float)
        check_in_range(r, self.r_min, self.r_max, "represented radius")
        return self.evaluator(r)

    def to_csv(self, path):
        order = np.argsort(self.r_grid)
        rows = [(float(self.r_grid[j]), float(self.s_grid[j]),
                 int(self.sign[j]), float(self.log_mag[j]),
                 float(self.log_deriv[j])) for j in order]
        write_csv(path, ["r", "s", "sign", "log_mag", "log_deriv"], rows)


def profile_from_k2(p, i, mu, r_min, n_grid=64, tol=1e-12):
    """Tip profile f_i(r) = k2(r^-eps) r^(-(c-1-eps)/2) on [r_min, r_mu^(-1/eps)].

    Unit overall scale (the free factor cancels in every frequency
    quantity); the grid is n_grid points uniform in s.  The evaluator works
    entirely in (sign, log-magnitude) space:

        log f = log k2(s) + beta log s,          s = r^-eps,
        d log f / dr = -(eps s / r) kappa2(s) - (c-1-eps)/(2 r).
    """
    if not i >= 1:
        raise DomainValidationError(
            "the decaying-branch construction needs i >= 1; use the bounded "
            "radial branch radial_mode_zero for i = 0")
    if n_grid < 16:
        raise DomainValidationError("profile_from_k2 needs n_grid >= 16")
    r_top = tip_window_top(p, mu)
    if not 0 < r_min < r_top:
        raise DomainValidationError(
            f"r_min must lie in (0, r_mu^(-1/eps)) = (0, {r_top}), got {r_min}")
    s_lo = r_mu(p, mu)
    s_max = r_min ** (-p.eps)
    k2 = solve_k2(p, i, mu, s_max, tol=tol)

    def evaluator(r):
        s = r ** (-p.eps)
        lm, ld = _tip_log(p, s, r, *k2.log_eval(s))
        return np.ones_like(lm), lm, ld

    return RadialProfile(params=p, i=i, mu=mu,
                         s_grid=np.linspace(s_lo, s_max, n_grid),
                         evaluator=evaluator)


def radial_mode_zero(p, mu, r):
    """Bounded radial branch for i = 0: r^((1-c)/2) J_((c-1)/2)(r sqrt(mu)).

    Finite at the tip with limit mu^((c-1)/4) / (2^((c-1)/2) Gamma((c+1)/2)).
    r may be an array; a scalar r returns a float.
    """
    from .numerics import bessel_j, gamma_real
    if not mu > 0:
        raise DomainValidationError("radial_mode_zero needs mu > 0")
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise DomainValidationError("radial_mode_zero needs r >= 0")
    nu = (p.c - 1.0) / 2.0
    x = r * math.sqrt(mu)
    limit = mu ** (nu / 2.0) / (2.0 ** nu * gamma_real(nu + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x < 1e-8, limit * (1.0 - x * x / (4.0 * (nu + 1.0))),
                       bessel_j(nu, x) * r ** (-nu))
    return float(out) if out.ndim == 0 else out


def decay_exponent_fit(profile):
    """Least-squares fit of log|f| against r^-eps over the profile grid."""
    if profile.s_grid.size < 8:
        raise DomainValidationError("decay_exponent_fit needs >= 8 grid points")
    return fit_line(profile.s_grid, profile.log_mag)


def normalization_bound(p, i, mu, tol=1e-10):
    """(computed, bound) for the normalizing coefficient 1/||f_i||.

    computed: from log-space quadrature of ||f_i||^2 over the tip region
    (the default window keeps every numerically relevant e-folding).
    bound:    exp((rho + 2) r_mu) * r_mu^((1+eps)/eps), the closed-form
    envelope with its undetermined prefactor set to 1; the ratio of the two
    is reported by callers rather than asserted against a specific constant.
    """
    rho = tip_rate(p, i)
    s_lo = r_mu(p, mu)
    s_hi = s_lo + 10.0 / rho + 5.0
    r_min = s_hi ** (-1.0 / p.eps)
    prof = profile_from_k2(p, i, mu, r_min, n_grid=32, tol=1e-12)
    norm2 = math.exp(log_norm_sq(prof, r_min, prof.r_max, tol))
    if norm2 <= 0:
        raise ConsistencyError("vanishing norm in normalization_bound")
    computed = 1.0 / math.sqrt(norm2)
    bound = math.exp((rho + 2.0) * s_lo) * s_lo ** ((1.0 + p.eps) / p.eps)
    return computed, bound


def log_norm_sq(profile, r_lo, r_hi, tol):
    """log int_{r_lo}^{r_hi} f^2 w dr of a profile, by quad_log."""
    p = profile.params

    def log_integrand(r, rows):
        return 1.0, 2.0 * profile.eval_log(r)[1] + measure_weight_log(p, r)

    return quad_log(log_integrand, r_lo, r_hi, tol)[1]
