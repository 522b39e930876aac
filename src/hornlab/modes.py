"""Radial mode solutions near the horn tip.

A separated eigenmode u = f_i(r) phi_i(theta) with L u = -mu u satisfies

    f'' + (c/r) f' - 4 mu_i r^(-2-2eps) f + mu f = 0.

Substituting s = r^(-eps) and peeling off the power s^beta with
beta = (c-1-eps)/(2 eps) brings this to normal form on the tip side,

    k''(s) = ( A s^-2 + 4 mu_i / eps^2 - (mu/eps^2) s^(-2/eps - 2) ) k(s),

with A = beta (beta + 1).  Past the threshold abscissa s = r_mu the bracket
A s^-2 - (mu/eps^2) s^(-2/eps-2) lies in [0, 1], so q(s), the whole
coefficient, lies in [rho^2, rho^2 + 1] with rho = 2 sqrt(mu_i)/eps, and
solutions behave like exp(+-rho s) up to explicit two-sided bounds.  Both
branches are swept as this linear equation by numerics' Magnus propagator;
the growing branch k1 forward from unit Cauchy data at r_mu.

The decaying branch k2 has the logarithmic derivative kappa = k2'/k2,
which solves the Riccati equation kappa' = q - kappa^2.  A comparison
argument puts kappa in [-sqrt(rho^2+1), -rho] on [r_mu, inf), because k2
stays positive and tends to 0:

  - if kappa(s0) > -rho, then kappa' >= rho^2 - kappa^2 keeps kappa above
    -rho and, like the solution of kappa' = rho^2 - kappa^2 started there,
    carries it above 0, after which k2 grows;
  - if kappa(s0) < -sqrt(rho^2+1), then kappa' <= rho^2 + 1 - kappa^2
    sends kappa to -inf at a finite s, where k2 would vanish.

The same inequalities make the interval invariant for the flow in
decreasing s, and the difference d of two solutions inside it obeys
d' = -(kappa_a + kappa_b) d with -(kappa_a + kappa_b) >= 2 rho.  So k2 is
swept *backward*, down to r_mu from

    s_far = s_top + (30 + log(rho + 1))/(2 rho) + 0.5,
    (k, k')(s_far) = (1, -sqrt(q(s_far))),

where s_top is the top of the span wanted.  The start lies in the
interval, so its error is at most sqrt(rho^2+1) - rho, and it shrinks like
exp(-2 rho (s_far - s)).  The Wronskian k1 k2' - k1' k2 = -1, with
k1 = k1' = 1 at r_mu, fixes the scale: log k2(r_mu) = -log(1 - kappa(r_mu)).
A branch is read as log k and kappa off one septic Hermite interpolant of
log k, whose second derivative at a node is kappa' = q - kappa^2 and whose
third is kappa'' = q' - 2 kappa kappa'; nothing is exponentiated, so the
span has no representable-range limit.  tip_anchor and solve_k2 take
rows, one a mu, and sweep them in one batched pass.

A tip pass runs in sigma = rho s.  A failing pass names itself, its row's
mu and the radius r = (sigma / rho)^(-1/eps) (_naming).

Everything tip-side is represented as (sign, log-magnitude): the physical
profile f_i(r) = k2(r^-eps) r^(-(c-1-eps)/2) underflows double precision
long before r = 0.  Eigenfunctions reads each computed radial factor
in that form, one row an eigenpair of heat or a tip branch of solve_k1 or
solve_k2, whose (log k, kappa) Eigenfunctions.tip_log reads.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, DomainValidationError, IntegrationError
from .geometry import measure_weight_log, sphere_eigenvalue
from .numerics import (SepticHermite, bessel_j, check_in_range, fit_line,
                       gamma_real, magnus_dense, magnus_log_derivative,
                       quad_log, row_count)


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
    """The normal-form coefficient q(s), vectorised, with its slope
    q.slope(s) = -2 A s^-3 - (mu/eps^2) (-2/eps - 2) s^(-2/eps - 3) in
    closed form.  mu broadcasts against s: a column of mu, one a row, gives
    each row of s its own."""
    beta = tip_exponent(p)
    A = beta * (beta + 1.0)
    rho2 = 4.0 * sphere_eigenvalue(p.n, i) / p.eps ** 2
    inv2 = mu / p.eps ** 2
    expo = -2.0 / p.eps - 2.0

    def q(s):
        return A * s ** -2.0 + rho2 - inv2 * s ** expo

    def slope(s):
        return -2.0 * A * s ** -3.0 - (inv2 * expo) * s ** (expo - 1.0)

    q.slope = slope
    return q


def _check_sandwich(tips, mus, lower, upper, branch):
    """ConsistencyError, naming the branch, the row's mu in mus and the
    radius, unless log k of every row of tips, tip-only rows of one rho,
    lies between the lines lower and upper, with a slack of 1e-9, at 65
    points of its span from s_lo, all read in one tip_log call.  A line
    (a, b) is a + b (s - s_lo); the comparison bounds need rho >= 1."""
    if tips.table[0, 0] < 1.0:
        return
    eps = tips.params.eps
    s_lo, s_hi = tips.table[7] ** -eps, tips.table[6] ** -eps
    ss = np.linspace(s_lo, s_hi, 65, axis=1)
    d = ss - s_lo[:, None]
    L = tips.tip_log(ss, np.arange(s_lo.size)[:, None])[0]
    bad = ((L > upper[0] + upper[1] * d + 1e-9)
           | (L < lower[0] + lower[1] * d - 1e-9))
    if np.any(bad):
        k, j = np.argwhere(bad)[0]
        raise ConsistencyError(
            f"the {branch} tip branch at mu = {mus[k]} violates its "
            f"two-sided exponential bounds at r = {ss[k, j] ** (-1.0 / eps)}")


def _tip_rows(p, rho, span, dense, offset=0.0, uncertainty=0.0):
    """Tip-only rows of one Eigenfunctions, row k the interpolant of log k
    in sigma = rho s of dense[k], a _tip_dense row, on s from span[0][k] to
    span[1][k], with offset and uncertainty numbers or one a row: seams at
    +inf and each table in both its interpolant rows, so any rows stack."""
    table = np.zeros((9, len(dense)))
    table[0], table[1], table[3], table[8] = rho, offset, math.inf, uncertainty
    # the powers one row at a time, as a float's power rounds them
    table[6:8] = [[s ** (-1.0 / p.eps) for s in ends]
                  for ends in (span[1], span[0])]
    return Eigenfunctions(p, SepticHermite.stack(
        [f for _, _, f in dense for _ in (0, 1)]), table)


def _in_sigma(q_of, rho, sweep, y0):
    """k'' = q k over sweep = (start, end) from y0 = (k, k'), as the
    arguments (potential, span, y0) of a numerics sweep in sigma = rho s,
    where d^2k/dsigma^2 = P k with P = q / rho^2: the branches turn at
    about unit rate, so k and dk/dsigma = k' / rho have one size.
    q_of(rows) is the coefficient q of those rows; the ends and y0 hold a
    value a row, or one value for a single row.  potential.slope is
    P' = q'(sigma / rho) / rho^3."""
    def potential(sigma, rows):
        return q_of(rows)(sigma / rho) / (rho * rho)

    potential.slope = lambda sigma, rows: (q_of(rows).slope(sigma / rho)
                                           / rho ** 3)
    return potential, (rho * sweep[0], rho * sweep[1]), (y0[0], y0[1] / rho)


@contextmanager
def _naming(what, values, radius):
    """Around a Magnus pass, one row a value of values (a mu or a nu): the
    kernel's IntegrationError, at the row and position x of the pass's own
    variable, is raised again naming `what`, the row's value and the radius
    radius(x, row), its new location, with the kernel's error as cause."""
    try:
        yield
    except IntegrationError as exc:
        r = radius(exc.location, exc.row)
        raise IntegrationError(
            f"{what} = {np.atleast_1d(values)[exc.row]} fails at r = {r}: "
            f"{exc}", location=r, row=exc.row) from exc


def _tip_dense(sweep, tol):
    """numerics.magnus_dense of a tip pass in sigma (_in_sigma's sweep),
    read as v = log k (k keeps one sign past r_mu): v'' = P - v'^2 and
    v''' = P' - 2 v' v''."""
    potential = sweep[0]

    def read(sigma, log, y, rows):
        slope = y[1] / y[0]
        curve = potential(sigma, rows) - slope * slope
        return (log + np.log(y[0]), slope, curve,
                potential.slope(sigma, rows) - 2.0 * slope * curve)

    return magnus_dense(*sweep, tol, read)


def solve_k1(p, i, mu, s_max, tol=1e-12):
    """Growing branch of the normal-form tip equation on [r_mu, s_max], as
    a one-row Eigenfunctions of tip-only rows (start uncertainty 0).

    Unit Cauchy data k = k' = 1 at s = r_mu, swept forward; the solution is
    verified against its two-sided exponential bounds on construction.
    """
    if not i >= 1:
        raise DomainValidationError("solve_k1 needs i >= 1 (mu_i > 0)")
    s_lo = r_mu(p, mu)
    if not s_lo < s_max < math.inf:
        raise DomainValidationError(
            f"s_max must be finite and exceed r_mu = {s_lo}, got {s_max}")
    q = _q_factory(p, i, mu)
    rho = tip_rate(p, i)
    with _naming("the growing tip branch at mu", mu,
                 lambda sigma, row: (sigma / rho) ** (-1.0 / p.eps)):
        dense = _tip_dense(_in_sigma(lambda rows: q, rho, (s_lo, s_max),
                                     (1.0, 1.0)), tol)
    k1 = _tip_rows(p, rho, ([s_lo], [s_max]), dense)
    _check_sandwich(k1, [mu], (-math.log(rho), rho), (0.0, rho + 1.0),
                    "growing")
    return k1


def _backward_rows(p, i, rho, mus, tops=None):
    """(s_lo, s_far, sweep): the backward sweeps of the decaying branch,
    one row an entry of the 1-D array mus, each for the span from
    s_lo = r_mu up to tops[row] (r_mu itself when tops is None).  s_lo and
    s_far = _s_far(rho, top) are arrays.  sweep is the pass from s_far down
    to s_lo in sigma (_in_sigma), from k(s_far) = 1 and
    k'(s_far) = -sqrt(q(s_far)), each row's q read in floats of its own, as
    a float's power rounds it.  i < 1 is refused, and so is a top that is
    not finite or lies at or below its r_mu."""
    if not i >= 1:
        raise DomainValidationError(
            "the decaying tip branch needs i >= 1 (mu_i > 0)")
    s_lo = [r_mu(p, m) for m in mus.tolist()]
    for lo, top in zip(s_lo, tops or ()):
        if not lo < top < math.inf:
            raise DomainValidationError(
                f"s_max must be finite and exceed r_mu = {lo}, got {top}")
    s_far = [_s_far(rho, top) for top in tops or s_lo]
    start = [-math.sqrt(_q_factory(p, i, m)(s))
             for m, s in zip(mus.tolist(), s_far)]
    s_lo, s_far = np.array(s_lo), np.array(s_far)
    return s_lo, s_far, _in_sigma(
        lambda rows: _q_factory(p, i, mus[rows, None]), rho, (s_far, s_lo),
        (np.ones(mus.size), np.array(start)))


def _s_far(rho, s_top):
    """Start of the backward sweep for a span ending at s_top; the start's
    error has shrunk by (rho + 1) e^(30 + rho) at s_top."""
    return s_top + (30.0 + math.log(rho + 1.0)) / (2.0 * rho) + 0.5


def tip_anchor(p, i, mu, tol):
    """(r_mu^(-1/eps), d log f/dr there) of the decaying tip branch, as two
    arrays, one entry a row of mu, a scalar or a 1-D array
    (numerics.row_count): only kappa(r_mu) is wanted, so one backward
    sweep, a column of mu through _q_factory as in solve_k2, with each
    row's error estimate taken at r_mu (numerics.magnus_log_derivative), is
    the cheap anchor of a shot, each row bit for bit its one-row call;
    profile_from_k2 gives the same slope as its log_deriv[0].  An
    IntegrationError names the tip anchor, its row's mu and the radius.
    """
    mus = np.full(row_count("tip_anchor", {"mu": mu}), mu, dtype=float)
    rho = tip_rate(p, i)
    s_lo, _, sweep = _backward_rows(p, i, rho, mus)
    with _naming("the tip anchor at mu", mus,
                 lambda sigma, row: (sigma / rho) ** (-1.0 / p.eps)):
        kappa = rho * magnus_log_derivative(*sweep, tol)
    # the powers one row at a time, as a float's power rounds them
    r_top = np.array([s ** (-1.0 / p.eps) for s in s_lo.tolist()])
    return r_top, _tip_log(p, s_lo, r_top, 0.0, kappa)[1]


def solve_k2(p, i, mu, s_max, tol=1e-12):
    """Decaying branches on [r_mu, s_max] as tip-only rows of one
    Eigenfunctions, one a row of mu and s_max, scalars or 1-D arrays of one
    length (numerics.row_count): one batched backward magnus_dense pass,
    s_far down to r_mu, scaled by the Wronskian, each row bit for bit its
    one-row call.  The start at s_far leaves a relative kappa error at
    s_max of at most
    (sqrt(rho^2 + 1) - rho) e^(-2 rho (s_far - s_max))
    = (sqrt(rho^2 + 1) - rho) e^(-30 - rho) / (rho + 1) <= e^-30, about
    9.4e-14, whatever rho (_s_far), and less below s_max; each row carries
    its value as its start uncertainty, table[8].  An IntegrationError
    names the decaying tip branch, its row's mu and the radius.
    """
    n = row_count("solve_k2", {"mu": mu, "s_max": s_max})
    mus, tops = (np.full(n, v, dtype=float) for v in (mu, s_max))
    rho = tip_rate(p, i)
    s_lo, s_far, sweep = _backward_rows(p, i, rho, mus, tops.tolist())
    rel_unc = [(math.sqrt(rho * rho + 1.0) - rho)
               * math.exp(-2.0 * rho * (far - top))
               for far, top in zip(s_far.tolist(), tops.tolist())]
    with _naming("the decaying tip branch at mu", mus,
                 lambda sigma, row: (sigma / rho) ** (-1.0 / p.eps)):
        dense = _tip_dense(sweep, tol)
    # each sweep ends at r_mu: its last node fixes the scale
    ends = [log_k(sigma[-1]) for sigma, _, log_k in dense]
    k2 = _tip_rows(p, rho, (s_lo.tolist(), tops.tolist()), dense,
                   [-float(L) - math.log(1.0 - rho * float(slope))
                    for L, slope in ends], rel_unc)
    _check_sandwich(k2, mus,
                    (-math.log(2.0 * (rho ** 2 + rho)), -rho - 2.0),
                    (math.log(rho / 2.0), -rho + 1.0), "decaying")
    return k2


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------


class Eigenfunctions:
    """Radial factors as one evaluator of rows, one row a mode: their
    septic tables stacked in one SepticHermite, two rows a mode, the tip
    branch's in sigma = rho s and the outer pass's in K log r (a tip-only
    row's seam is +inf).  Column k of table holds mode k's rho, tip offset,
    K, seam r_sw, the log shifts of its tip branch and of its outer pass,
    its represented range [r_min, r_max] and its tip start uncertainty.
    Called on radii r and rows, row indices that broadcast against r, it
    checks every point against its own row's range (DomainValidationError
    naming the radius) and gives (sign, log|g|, d log|g|/dr) there, the tip
    branch below r_sw and the outer pass above, in one gather and one
    Horner pass.  r_min and r_max bound every row's range; eval_log, the
    call's alias, is kept for hornbench/record.py."""

    def __init__(self, params, interpolant, table):
        self.params, self.interpolant, self.table = params, interpolant, table

    r_min = property(lambda self: float(self.table[6].max()))
    r_max = property(lambda self: float(self.table[7].min()))

    def tip_log(self, s, rows=0):
        """(log k, kappa = k'/k) of the rows' tip branches at abscissae s,
        rows broadcasting against s, each point checked as the tip abscissa
        s against its row's tip range, from min(r_sw, r_max)^-eps to
        r_min^-eps; nothing is exponentiated, and no log shift applied."""
        rho, offset, _, r_sw, _, _, lo, hi = self.table[:8, rows]
        check_in_range(s, np.minimum(r_sw, hi) ** -self.params.eps,
                       lo ** -self.params.eps, "tip abscissa s")
        L, slope = self.interpolant(rho * np.asarray(s, dtype=float),
                                    2 * rows)
        return L + offset, rho * slope

    def __call__(self, r, rows=0):
        p = self.params
        r = np.asarray(r, dtype=float)
        rho, offset, K, r_sw, tip_shift, shift, lo, hi = self.table[:8, rows]
        check_in_range(r, lo, hi, "represented radius")
        inner = r < r_sw
        s = r ** (-p.eps)
        # either branch's formula runs on every point; np.where keeps the
        # point's own
        with np.errstate(divide="ignore", invalid="ignore"):
            v, dv = self.interpolant(np.where(inner, rho * s, K * np.log(r)),
                                     2 * rows + ~inner)
            lm, ld = _tip_log(p, s, r, v + offset, rho * dv)
            return (np.where(inner, 1.0, np.sign(v)),
                    np.where(inner, lm + tip_shift, np.log(np.abs(v)) + shift),
                    np.where(inner, ld, K * dv / (v * r)))

    eval_log = __call__


@dataclass
class RadialProfile:
    """Underflow-safe radial mode: an abscissa grid and its evaluator.

    evaluator(r) gives (sign, log|f|, d log|f|/dr), three arrays of the
    shape of the radii r: the one route to the mode's values, a tip
    profile's Eigenfunctions row.  The grid, in the abscissa s = r^-eps
    (increasing s means approaching the tip), fixes the represented range
    [r_min, r_max], and sign / log_mag / log_deriv are the evaluator's
    values on it, from one eval_log of the grid on the first read of any.
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

    @cached_property
    def _grid_values(self):
        return self.eval_log(self.r_grid)

    sign = property(lambda self: self._grid_values[0])
    log_mag = property(lambda self: self._grid_values[1])
    log_deriv = property(lambda self: self._grid_values[2])

    def eval_log(self, r):
        """(sign, log|f|, d log|f|/dr) at r, each of the shape of r."""
        return self.evaluator(r)


def profile_from_k2(p, i, mu, r_min, n_grid=64, tol=1e-12):
    """Tip profile f_i(r) = k2(r^-eps) r^(-(c-1-eps)/2) on [r_min, r_mu^(-1/eps)].

    Unit overall scale (the free factor cancels in every frequency
    quantity); the grid is n_grid points uniform in s.  The evaluator, the
    solve_k2 row, works entirely in (sign, log-magnitude) space:

        log f = log k2(s) + beta log s,          s = r^-eps,
        d log f / dr = -(eps s / r) kappa2(s) - (c-1-eps)/(2 r).

    mu and r_min are numbers, and n_grid is an integer of at least 16.
    """
    if not i >= 1:
        raise DomainValidationError(
            "the decaying-branch construction needs i >= 1; use the bounded "
            "radial branch radial_mode_zero_log for i = 0")
    if not (n_grid >= 16 and float(n_grid).is_integer()):
        raise DomainValidationError(
            f"profile_from_k2 needs an integral n_grid >= 16, got {n_grid}")
    if np.ndim(mu) or np.ndim(r_min):
        raise DomainValidationError(
            f"profile_from_k2 takes one mu and one r_min, got shapes "
            f"mu {np.shape(mu)}, r_min {np.shape(r_min)}")
    r_top = tip_window_top(p, mu)
    if not 0 < r_min < r_top:
        raise DomainValidationError(
            f"r_min must lie in (0, r_mu^(-1/eps)) = (0, {r_top}), "
            f"got {r_min}")
    s_max = r_min ** (-p.eps)
    return RadialProfile(params=p, i=i, mu=mu,
                         s_grid=np.linspace(r_mu(p, mu), s_max, int(n_grid)),
                         evaluator=solve_k2(p, i, mu, s_max, tol=tol))


def _bounded_branch(p, mu, r):
    """(x, J_nu(x), f) at radii r, with x = r sqrt(mu) and nu = (c-1)/2:
    the bounded radial branch f = r^-nu J_nu(x) for i = 0, finite at the
    tip with limit mu^(nu/2) / (2^nu Gamma(nu + 1)), and the Bessel values
    it is built on, each evaluated once."""
    if not mu > 0:
        raise DomainValidationError("radial_mode_zero_log needs mu > 0")
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise DomainValidationError("radial_mode_zero_log needs r >= 0")
    nu = (p.c - 1.0) / 2.0
    x = r * math.sqrt(mu)
    limit = mu ** (nu / 2.0) / (2.0 ** nu * gamma_real(nu + 1.0))
    j_nu = bessel_j(nu, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(x < 1e-8, limit * (1.0 - x * x / (4.0 * (nu + 1.0))),
                     j_nu * r ** (-nu))
    return x, j_nu, f


def radial_mode_zero_log(p, mu, r):
    """(sign f, log|f|, d log|f|/dr) at radii r of any shape of the bounded
    radial branch for i = 0, f = r^((1-c)/2) J_((c-1)/2)(r sqrt(mu))
    (_bounded_branch); f'(r) = -mu^((nu+1)/2) x^-nu J_(nu+1)(x), so the
    log-derivative is -sqrt(mu) J_(nu+1)(x) / J_nu(x), 0 at the tip."""
    x, j_nu, f = _bounded_branch(p, mu, r)
    nu = (p.c - 1.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.sign(f), np.log(np.abs(f)),
                np.where(x > 0, -math.sqrt(mu) * bessel_j(nu + 1.0, x) / j_nu,
                         0.0))


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
    if not i >= 1:
        raise DomainValidationError("normalization_bound needs i >= 1")
    rho = tip_rate(p, i)
    s_lo = r_mu(p, mu)
    s_hi = s_lo + 10.0 / rho + 5.0
    r_min = s_hi ** (-1.0 / p.eps)
    k2 = solve_k2(p, i, mu, r_min ** (-p.eps), tol=1e-12)
    norm2 = math.exp(log_norm_sq(p, k2, r_min, k2.r_max, tol)[0])
    if norm2 <= 0:
        raise ConsistencyError("vanishing norm in normalization_bound")
    computed = 1.0 / math.sqrt(norm2)
    bound = math.exp((rho + 2.0) * s_lo) * s_lo ** ((1.0 + p.eps) / p.eps)
    return computed, bound


def log_norm_sq(p, radial, r_lo, r_hi, tol):
    """log int_{r_lo}^{r_hi} f^2 w dr of rows of radial, an evaluator of
    rows: radial(r, rows) gives (sign, log|f|, d log|f|/dr) at radii r of
    the rows `rows`, indices that broadcast against r.  An array, one entry
    a row of r_lo and r_hi (numerics.row_count): one quad_log call, row k
    on radial's row k over its own interval, each level reading every open
    row in one call of radial, each entry bit for bit its one-row call."""
    return quad_log(lambda r, rows: (1.0, 2.0 * radial(r, rows[:, None])[1]
                                     + measure_weight_log(p, r)),
                    r_lo, r_hi, tol)[1]
