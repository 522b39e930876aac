"""Dirichlet spectrum of the truncated horn and caloric series built on it.

The horn is capped at r_out with a Dirichlet condition; the radial operator
for spherical index i acts on L^2(w dr) over (0, r_out].  Eigenfunctions
select the decaying branch at the tip (the growing branch is not square
integrable), so shooting anchors the solution with the decaying branch's
logarithmic derivative at the threshold radius and integrates outward.

Each shot integrates a modified Pruefer angle theta (Pryce 1993; Bailey,
Everitt and Zettl, SLEIGN2, 2001) instead of the solution itself: with
k = sqrt(max(nu, 1)), k f = rho sin(theta) and f' = rho cos(theta).  The
radial solution is positive at the anchor, so theta starts in (0, pi), and
wherever sin(theta) = 0 its derivative is k > 0, so theta crosses each
multiple of pi upward only.  floor(theta(r_out) / pi) is therefore exactly
the number of eigenvalues below nu, with no grid that could miss a pair of
close zeros, and eigenvalue j is the single root of theta(r_out; nu) = j pi.

Series evaluation, time derivatives and the tail certificate all run in
signed log space; the dropped tail is majorized through the empirical
two-sided eigenvalue growth fit nu_j ~ [C1 j^(2/N), C2 j^2] and a
doubling-block geometric summation (termwise geometric majorants do not
exist for sub-linear exponents j^(2/N); blocks of doubling length are
geometric and certified).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConsistencyError, DomainValidationError,
                     EigenSearchError)
from .geometry import measure_weight, sphere_eigenvalue
from .logspace import NEG_INF, logsumexp_signed
from .modes import (RadialProfile, log_norm_sq, profile_from_k2, r_mu,
                    tip_anchor, tip_rate, tip_window_top)
from .numerics import (find_root_bracketed, fit_line, integrate_ode,
                       lgamma_real)


# ---------------------------------------------------------------------------
# Shooting machinery
# ---------------------------------------------------------------------------


def _outer_field(p, i, nu):
    mu_i = sphere_eigenvalue(p.n, i)
    c = p.c
    ee = -2.0 - 2.0 * p.eps

    def fld(r, y):
        return [y[1], -(c / r) * y[1] + (4.0 * mu_i * r ** ee - nu) * y[0]]

    return fld


def _shoot(p, i, nu, r_out, tol):
    """Modified Pruefer angle theta(r_out) of the tip-decaying solution.

    theta starts in (0, pi) at the anchor, where the solution is positive,
    and crosses every multiple of pi upward, so floor(theta / pi) is the
    number of eigenvalues below nu.
    """
    r_sw, dlog = tip_anchor(p, i, nu, tol)
    # k f = rho sin(theta), f' = rho cos(theta)
    k = math.sqrt(max(nu, 1.0))
    mu4 = 4.0 * sphere_eigenvalue(p.n, i)
    c = p.c
    ee = -2.0 - 2.0 * p.eps

    def fld(r, y):
        sn, cs = math.sin(y[0]), math.cos(y[0])
        return [k * cs * cs + (c / r) * sn * cs
                + ((nu - mu4 * r ** ee) / k) * sn * sn]

    # the integrator holds errors relative to |theta|, which grows to about
    # k r_out; an eigenvalue needs theta's absolute error near tol (at tol
    # itself, nu_11 for r_out = 1.6 is off by 8e-12 relative)
    theta = integrate_ode(fld, (r_sw, r_out), [math.atan2(k, dlog)],
                          tol / max(1.0, k * r_out), dense=False)
    return float(theta[0])


@dataclass
class EigenPair:
    """One Dirichlet eigenpair on the truncated horn.

    g is L^2(w dr)-normalized over (0, r_out], positive near the tip, and
    satisfies the cap condition |g(r_out)| <= 1e-8 max|g|.
    """

    nu: float
    mode_index: int
    g: RadialProfile
    r_out: float
    zeros: int
    norm_defect: float


# Shots the search may spend on one eigenvalue, about five times the 8 it
# is meant to need: it averages under 6, and the first eigenvalue, which
# starts from the WKB trial, takes 7.
_SHOTS_PER_EIGENVALUE = 40


def dirichlet_eigenvalues(p, i, r_out, count, tol=1e-12, root_rel=1e-12):
    """First `count` eigenvalues of the radial operator, tip-decaying branch
    at 0 and g(r_out) = 0, as the roots of theta(r_out; nu) = j pi.

    Every shot is kept, and no nu is shot twice.  The first trial solves
    the WKB phase condition (_wkb_first_trial).  Eigenvalue j is
    bracketed by the shots whose angles lie on either side of j pi; while
    one side is missing, the next trial comes from a secant of theta
    against sqrt(nu), along which theta grows about linearly (WKB).  Brent
    then polishes the root inside the bracket.
    """
    if not i >= 1:
        raise DomainValidationError("dirichlet_eigenvalues needs i >= 1")
    if not count >= 1:
        raise DomainValidationError("dirichlet_eigenvalues needs count >= 1")
    if not r_out > tip_window_top(p, 0.0):
        raise DomainValidationError(
            f"r_out must exceed the tip window top {tip_window_top(p, 0.0)}")
    shots = {}  # trial nu -> theta(r_out; nu)
    evals = []
    spent = 0

    def theta(nu):
        nonlocal spent
        if nu not in shots:
            spent += 1
            if spent > _SHOTS_PER_EIGENVALUE:
                raise EigenSearchError(
                    f"eigenvalue search spent its {_SHOTS_PER_EIGENVALUE} "
                    f"shots without locating index {len(evals) + 1}")
            shots[nu] = _shoot(p, i, nu, r_out, tol)
        return shots[nu]

    nu_try = _wkb_first_trial(p, i, r_out)
    for j in range(1, count + 1):
        spent = 0
        target = j * math.pi
        while True:
            below = [nu for nu, th in shots.items() if th <= target]
            above = [nu for nu, th in shots.items() if th > target]
            if below and above:
                break
            if shots:
                nu_try = _secant_trial(shots, target, r_out)
            theta(nu_try)
        lo, hi = max(below), min(above)
        evals.append(find_root_bracketed(lambda x: theta(x) - target,
                                         lo, hi, root_rel * hi))
    return [_build_pair(p, i, nu, r_out, tol) for nu in evals]


def _wkb_first_trial(p, i, r_out):
    """First trial nu: the root of the WKB phase condition

        int sqrt(nu - V(r))_+ dr = 3 pi / 4  over (0, r_out],

    one turning point and the Dirichlet wall at r_out, for the Liouville
    potential V = 4 mu_i r^(-2-2eps) + c (c-2) / (4 r^2) of the radial
    equation (f = r^(-c/2) u removes the (c/r) f' drift).  The phase is a
    midpoint sum on 1024 cells.  A well deep enough to hold the phase at
    nu = 0 has no positive root; the trial is then (pi / r_out)^2.
    """
    h = r_out / 1024
    r = (np.arange(1024) + 0.5) * h
    V = (4.0 * sphere_eigenvalue(p.n, i) * r ** (-2.0 - 2.0 * p.eps)
         + p.c * (p.c - 2.0) / (4.0 * r * r))

    def excess_phase(nu):
        return h * np.sqrt(np.maximum(nu - V, 0.0)).sum() - 0.75 * math.pi

    if excess_phase(0.0) >= 0.0:
        return (math.pi / r_out) ** 2
    hi = 1.0
    while excess_phase(hi) < 0.0:
        hi *= 2.0
    return find_root_bracketed(excess_phase, 0.0, hi, 1e-6 * hi)


def _secant_trial(shots, target, r_out):
    """Next trial nu when every shot lies on one side of theta = target.

    The secant of theta against sqrt(nu) through the outermost shot (the
    highest nu when every angle is at most the target, else the lowest)
    and its neighbour; with one shot, or a slope that is not positive, the
    slope is r_out (WKB on an interval of length r_out).  The trial lies
    strictly beyond the outermost shot, so every trial is a new shot.
    """
    up = all(th <= target for th in shots.values())
    outer = sorted(shots, reverse=up)[:2]
    nu_a, th_a = outer[0], shots[outer[0]]
    slope = r_out
    if len(outer) == 2:
        nu_b = outer[1]
        sec = (shots[nu_b] - th_a) / (math.sqrt(nu_b) - math.sqrt(nu_a))
        slope = sec if sec > 0 else slope
    x = math.sqrt(nu_a) + (target - th_a) / slope
    if up:
        return max(x * x, math.nextafter(nu_a, math.inf))
    return min(max(x, 0.5 * math.sqrt(nu_a)) ** 2, math.nextafter(nu_a, 0.0))


def _build_pair(p, i, nu, r_out, tol):
    s_lo = r_mu(p, nu)
    r_sw = tip_window_top(p, nu)
    # tip branch over ~40 decay e-foldings; everything below is certified off
    r_tip_lo = (s_lo + 40.0 / tip_rate(p, i) + 2.0) ** (-1.0 / p.eps)
    tip = profile_from_k2(p, i, nu, r_tip_lo, n_grid=48, tol=tol)
    _, log_at_anchor, dlog_anchor = (float(v) for v in tip.eval_log(r_sw))

    # the outer solve carries the outer part of the L2(w dr) norm,
    # int_{r_sw}^r f^2 w, as its third component
    fld = _outer_field(p, i, nu)

    def fld_norm(r, y):
        return [*fld(r, y), y[0] * y[0] * measure_weight(p, r)]

    sol = integrate_ode(fld_norm, (r_sw, r_out), [1.0, dlog_anchor, 0.0], tol)

    # L2(w dr) norm: outer part in linear space, tip part in log space
    tip_n = math.exp(log_norm_sq(tip, r_tip_lo, r_sw, 1e-12)
                     - 2.0 * log_at_anchor)
    # below r_tip_lo the density has shed >= 2*40 e-foldings: certified off
    norm = math.sqrt(sol.step_states[2, -1] + tip_n)
    scale_log = -math.log(norm)

    def evaluator(r):
        # below r_sw the tip branch, rescaled to the outer solution's
        # f(r_sw) = 1; from r_sw on the outer solve.  Each array is masked
        # on its own, several times faster than out[:, mask] = (...)
        inner = r < r_sw
        out = [np.empty(r.shape) for _ in range(3)]
        if np.any(inner):
            sgn, lm, ld = tip.eval_log(r[inner])
            for o, v in zip(out, (sgn, lm - log_at_anchor + scale_log, ld)):
                o[inner] = v
        fv, fpv = sol.states(r[~inner])[:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = (np.sign(fv), np.log(np.abs(fv)) + scale_log, fpv / fv)
        for o, v in zip(out, outer):
            o[~inner] = v
        return out

    # the grid marks the cap, the seam and the bottom of the tip branch
    g = RadialProfile(params=p, i=i, mu=nu,
                      s_grid=np.array([r_out ** -p.eps, s_lo, tip.s_grid[-1]]),
                      evaluator=evaluator)

    # the Dirichlet defect and the zero count read the outer solve on a node
    # grid fine enough to separate neighbouring zeros
    n_outer = max(1200, int(120.0 * math.sqrt(max(nu, 1.0)) * r_out))
    r_nodes = np.linspace(r_sw, r_out, n_outer)
    f_nodes = sol.states(r_nodes)[0]
    mx = float(np.max(np.abs(f_nodes)))
    norm_defect = abs(f_nodes[-1]) / mx
    if norm_defect > 1e-8:
        raise ConsistencyError(
            f"Dirichlet defect {norm_defect} at r_out for nu = {nu}")
    interior = f_nodes[(r_nodes > r_sw) & (r_nodes < r_out * (1 - 1e-3))]
    live = interior[np.abs(interior) > 1e-9 * mx]
    zeros = int(np.sum(np.sign(live[:-1]) * np.sign(live[1:]) < 0))
    return EigenPair(nu=nu, mode_index=i, g=g, r_out=r_out, zeros=zeros,
                     norm_defect=norm_defect)


# ---------------------------------------------------------------------------
# Eigenvalue growth fit and tail certificate
# ---------------------------------------------------------------------------


def weyl_check(eigs, p):
    """(C1, C2): the largest/smallest constants with C1 j^(2/N) <= nu_j <= C2 j^2
    over the computed list."""
    if len(eigs) < 8:
        raise DomainValidationError("weyl_check needs >= 8 eigenvalues")
    return _growth_constants(eigs, p)[:2]


def _growth_constants(eigs, p):
    js = np.arange(1, len(eigs) + 1, dtype=float)
    nus = np.array([e.nu for e in eigs])
    gamma = 2.0 / p.bigN
    return float(np.min(nus / js ** gamma)), float(np.max(nus / js ** 2)), gamma


def tail_bound(eigs, k, t, p, coeff_cap=1.0):
    """Certified bound on sum_{j>k} cap * nu_j * exp(-nu_j t).

    Terms with computed eigenvalues (k < j <= len(eigs)) enter exactly;
    beyond the computed range the sum is majorized through
    nu_j >= C1 j^(2/N) in the exponential and nu_j <= C2 j^2 in the
    prefactor, summed over doubling blocks.  Block sums are eventually
    geometric with ratio <= 1/2, which closes the series (a termwise
    geometric majorant does not exist for sub-linear exponents).
    """
    if not t > 0:
        raise DomainValidationError(
            "tail_bound needs t > 0: the tail is not summable uniformly at t = 0")
    if not 1 <= k <= len(eigs):
        raise DomainValidationError("tail_bound needs 1 <= k <= len(eigs)")
    C1, C2, gamma = _growth_constants(eigs, p)
    total = sum(coeff_cap * e.nu * math.exp(-e.nu * t) for e in eigs[k:])
    m0 = len(eigs) + 1

    def block(b):
        lo_j = m0 * 2 ** b
        return lo_j * coeff_cap * C2 * (2 * lo_j) ** 2 \
            * math.exp(-C1 * t * lo_j ** gamma)

    b = 0
    while b < 200:
        cur, nxt = block(b), block(b + 1)
        total += cur
        if nxt <= 0.5 * cur and nxt <= 1e-16 * max(total, 1e-300):
            return total + 2.0 * nxt
        b += 1
    raise EigenSearchError("tail bound blocks failed to close (t too small?)")


# ---------------------------------------------------------------------------
# Caloric series
# ---------------------------------------------------------------------------


@dataclass
class CaloricSeries:
    """The one caloric state type: u = sum_j c_j exp(-nu_j t) g_j(r) phi_i
    with spherical index i, on the radii r_support.  Each term is a pair
    (radial evaluator, rate nu_j), the evaluator giving (sign, log|g_j|,
    d log|g_j|/dr) at an array of radii; tail_certificate bounds the part
    a truncated series drops (0 for an exact state)."""

    params: object
    sphere_index: int
    r_support: tuple
    terms: list
    coeffs: np.ndarray
    tail_certificate: float = 0.0

    def slice_log(self, r, t, k=0):
        """(sign F, log|F|, sign dF/dr, log|dF/dr|), each of the broadcast
        shape of the radii r and times t, of F = d^k/dt^k of the series:
        term j picks up (-nu_j)^k, that is k log nu_j in magnitude and
        (-1)^k in sign, and a term with nu_j = 0 is an exact zero for
        k >= 1.  Each term's radial evaluator runs once, on every radius
        of the broadcast.  The one place the series is summed.
        """
        r, t = np.broadcast_arrays(r, t)
        shape = (len(self.terms), *r.shape)
        sF, lF, sD, lD = (np.empty(shape) for _ in range(4))
        for j, ((radial_log, nu), cj) in enumerate(zip(self.terms,
                                                       self.coeffs)):
            if k and nu == 0:
                sF[j], lF[j], sD[j], lD[j] = 0.0, -math.inf, 0.0, -math.inf
                continue
            sgn, lm, ld = radial_log(r)
            amp = math.log(abs(cj)) if cj != 0 else -math.inf
            csign = 1.0 if cj >= 0 else -1.0
            sF[j] = csign * sgn * (-1.0) ** k
            lF[j] = amp - nu * t + lm + (k * math.log(nu) if k else 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                lD[j] = lF[j] + np.log(np.abs(ld))
            sD[j] = sF[j] * np.sign(ld)
        return (*logsumexp_signed(sF, lF), *logsumexp_signed(sD, lD))


def make_caloric_series(pairs, coeffs, t_min):
    """Assemble a series; the tail certificate is computed at the shortest
    evaluation time t_min via tail_bound, never assumed."""
    if not pairs:
        raise DomainValidationError("caloric series needs >= 1 pair")
    nus = [pair.nu for pair in pairs]
    if any(b <= a for a, b in zip(nus, nus[1:])):
        raise DomainValidationError("eigenvalues must be strictly increasing")
    if len({pair.mode_index for pair in pairs}) != 1:
        raise DomainValidationError("all pairs must share the spherical index")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size != len(pairs):
        raise DomainValidationError("one coefficient per pair required")
    if not np.all(np.isfinite(coeffs)):
        raise DomainValidationError(
            f"caloric series coefficients must be finite, got {coeffs}")
    cap = float(np.max(np.abs(coeffs))) or 1.0
    p = pairs[0].g.params
    cert = tail_bound(pairs, len(pairs), t_min, p, coeff_cap=cap)
    r_support = (max(pair.g.r_min for pair in pairs), pairs[0].r_out)
    # each term looks eval_log up on its profile when it is called, not
    # here, so that a series built before RadialProfile.eval_log is wrapped
    # (hornbench's layer tracer) runs the wrapped evaluator
    terms = [(lambda r, g=pair.g: g.eval_log(r), pair.nu) for pair in pairs]
    return CaloricSeries(params=p, sphere_index=pairs[0].mode_index,
                         r_support=r_support, terms=terms, coeffs=coeffs,
                         tail_certificate=cert)


def time_derivative(series, k, r, t):
    """(sign, log-magnitude) of d^k/dt^k of the series at (r, t)."""
    if not t > 0:
        raise DomainValidationError("time_derivative needs t > 0")
    if not (int(k) == k and k >= 0):
        raise DomainValidationError("time_derivative needs integer k >= 0")
    sF, lF, _, _ = series.slice_log(float(r), t, int(k))
    return int(sF), float(lF)


def taylor_coefficients(series, r0, t0, kmax):
    """log|a_k|, k = 0..kmax, of the Taylor coefficients a_k = d^k_t u / k!
    of t -> u(r0, t) at t0; an exact zero is -inf."""
    log_ak = []
    for k in range(kmax + 1):
        s, L = time_derivative(series, k, r0, t0)
        log_ak.append(NEG_INF if s == 0 else L - lgamma_real(k + 1.0))
    return log_ak


def taylor_radius(log_ak):
    """1 / max_{k in [kmax/2, kmax]} |a_k|^(1/k) from taylor_coefficients
    up to kmax, a conservative window estimate of 1/limsup |a_k|^(1/k);
    +inf when every a_k in the window is zero or the radius lies past the
    double range."""
    kmax = len(log_ak) - 1
    if not kmax >= 8:
        raise DomainValidationError("analyticity_probe needs kmax >= 8")
    window = [L / k for k, L in enumerate(log_ak)
              if k >= max(1, kmax // 2) and L != NEG_INF]
    root = math.exp(max(window)) if window else 0.0
    return 1.0 / root if root > 0.0 else math.inf


def analyticity_probe(series, r0, t0, kmax):
    """Lower estimate of the Taylor radius of t -> u(r0, t) at t0; see
    taylor_radius."""
    return taylor_radius(taylor_coefficients(series, r0, t0, kmax))


def caloric_decay_check(series, r_grid, t):
    """Fit of log|f_i(r, t)| against r^-eps over the tip region.

    Only defined when the series carries no bounded radial part (i >= 1
    for every pair): that component does not vanish at the tip.
    """
    if not t > 0:
        raise DomainValidationError("caloric_decay_check needs t > 0")
    if series.sphere_index == 0:
        raise DomainValidationError(
            "caloric_decay_check excludes series with a bounded radial part "
            "(spherical index 0)")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 8:
        raise DomainValidationError("caloric_decay_check needs >= 8 radii")
    p = series.params
    sF, lF, _, _ = series.slice_log(r_grid, t)
    if np.any(sF == 0):
        raise ConsistencyError("series vanishes at a fit radius")
    return fit_line(r_grid ** (-p.eps), lF)
