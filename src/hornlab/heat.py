"""Dirichlet spectrum of the truncated horn and caloric series built on it.

The horn is capped at r_out with a Dirichlet condition; the radial operator
for spherical index i acts on L^2(w dr) over (0, r_out].  Eigenfunctions
select the decaying branch at the tip (the growing branch is not square
integrable), so shooting anchors the solution with the decaying branch's
logarithmic derivative at the threshold radius and integrates outward.

Each shot follows a modified Pruefer angle theta (Pryce 1993; Bailey,
Everitt and Zettl, SLEIGN2, 2001) instead of the solution itself, on the
Liouville form u = r^(c/2) f, u'' = (V - nu) u, with V the potential of
geometry.liouville_potential: with k = sqrt(max(nu, 1)),
k u = rho sin(theta) and u' = rho cos(theta).  u has the zeros of f and is
positive at the anchor, so theta starts in (0, pi), and wherever
sin(theta) = 0 its derivative is k > 0, so theta crosses each multiple of
pi upward only.  floor(theta(r_out) / pi) is therefore exactly the number
of eigenvalues below nu, with no grid that could miss a pair of close
zeros, and eigenvalue j is the single root of theta(r_out; nu) = j pi.
The outer equation is linear and nu enters it only as a shift of V, so a
shot propagates it with numerics.magnus_prufer: sixth-order Magnus over
a mesh of equal intervals, all at once in numpy, with theta unwrapped
interval by interval and a Richardson error estimate held to the shot's
tolerance in absolute theta.  The same sweep's nodes give the angle's
nu-derivative, on which the search runs one safeguarded Newton iteration
in sqrt(nu) per eigenvalue.  The tip anchor and an eigenfunction's outer
part are sweeps of the same propagator.

The search runs every eigenvalue index in lockstep, one row an index
(dirichlet_eigenvalues), and the eigenpairs of a search are built
together, one row a pair (_build_pairs); each row is bit for bit its
one-row call.  A failing pass names itself, its row's nu and the radius.
The pairs are read by one evaluator of rows (Eigenfunctions: their septic
tables stacked, one gather and one Horner pass for every pair at its
radii); a pair's profile is its own row, and a series stacks its pairs'
rows and sums over the term axis (CaloricSeries.slice_log).

Series evaluation, time derivatives and the tail bound all run in signed
log space; the dropped tail is majorized through the empirical two-sided
eigenvalue growth fit nu_j ~ [C1 j^(2/N), C2 j^2] and a doubling-block
geometric summation (termwise geometric majorants do not exist for
sub-linear exponents j^(2/N); blocks of doubling length are geometric).
C1 and C2 are fitted to the computed eigenvalues, so the tail bound is an
estimate, not a proved bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConsistencyError, DomainValidationError,
                     EigenSearchError)
from .geometry import liouville_potential, liouville_potential_slope
from .logspace import NEG_INF, logsumexp_signed
from .modes import (RadialProfile, _naming, _tip_evaluator, _tip_log,
                    log_norm_sq, r_mu, solve_k2, tip_anchor, tip_rate,
                    tip_window_top)
from .numerics import (SepticHermite, check_in_range, fit_line, lgamma_real,
                       magnus_dense, magnus_prufer)


# ---------------------------------------------------------------------------
# Shooting machinery
# ---------------------------------------------------------------------------


def _shoot_rows(p, i, nu, r_out, tol):
    """(theta(r_out), d theta(r_out) / d nu): the modified Pruefer angle of
    the tip-decaying solution and its nu-derivative, as two arrays, one
    entry a trial of nu, a scalar or a 1-D array: one batched tip_anchor
    call, then one batched magnus_prufer call, each row bit for bit its
    one-row shot.

    theta starts in (0, pi) at the anchor, where the solution is positive,
    and crosses every multiple of pi upward, so floor(theta / pi) is the
    number of eigenvalues below nu.  The slope is magnus_prufer's from the
    anchor r_sw, with the anchor state held fixed: the exact slope has
    k int_0^r_sw u^2 dr >= 0 more in its numerator.  Next to
    int_r_sw^r_out u^2, that tip part is at most 2.0e-9 at the first 8
    eigenvalues of r_out = 1.8 at the default point, 3.6e-7 at
    (2, 3, 0.5, 0.25) and 7.0e-5 at (3, 4, 1.0, 0.25) (the first 6 of
    r_out = 2), so a Newton step on this slope contracts by that factor on
    top of its quadratic term.  An IntegrationError names the shot or the
    tip anchor, its row's nu and the radius.
    """
    r_sw, dlog = tip_anchor(p, i, nu, tol)
    # u = r^(c/2) f has the zeros of f, and u'/u = f'/f + c / (2 r)
    with _naming("the shot at nu", nu, lambda r, row: r):
        return magnus_prufer(lambda r, rows: liouville_potential(p, i, r),
                             nu, (r_sw, r_out),
                             (1.0, dlog + 0.5 * p.c / r_sw), tol)


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


# Shots the search may spend on one eigenvalue, about ten times the 4 it
# is meant to need: every index shoots its WKB trial in the first round
# and takes 3 or 4 shots in all over the first 8 at r_out 1.6-2.0.
_SHOTS_PER_EIGENVALUE = 40


def dirichlet_eigenvalues(p, i, r_out, count, tol=1e-12, root_rel=1e-12):
    """First `count` eigenvalues of the radial operator, tip-decaying branch
    at 0 and g(r_out) = 0, as the roots of theta(r_out; nu) = j pi.

    One safeguarded Newton iteration in x = sqrt(nu), along which theta
    grows about linearly (WKB), on the slope each shot returns
    (_newton_trial), run in lockstep: every index j is a row, seeded at the
    root of the WKB phase condition for j (_wkb_trials).  Each round shoots
    the open rows' new trials together (_shoot_rows: one batched anchor
    call, then one batched angle call), and every row then takes its next
    trial from its own last shot over one shared table of every shot, whose
    Pruefer counts bracket every index.  An eigenvalue is its row's first
    update of at most max(root_rel, 4 eps) nu, which is not shot, and the
    row leaves; no nu is shot twice.  Each index may spend
    _SHOTS_PER_EIGENVALUE shots; past that EigenSearchError names it.
    count must be an integer of at least 1, r_out finite, and tol and
    root_rel finite and > 0.
    """
    if not i >= 1:
        raise DomainValidationError("dirichlet_eigenvalues needs i >= 1")
    if not (count >= 1 and float(count).is_integer()):
        raise DomainValidationError(
            f"dirichlet_eigenvalues needs an integral count >= 1, got {count}")
    if not tip_window_top(p, 0.0) < r_out < math.inf:
        raise DomainValidationError(
            f"r_out must be finite and exceed the tip window top "
            f"{tip_window_top(p, 0.0)}, got r_out={r_out}")
    for name, value in (("tol", tol), ("root_rel", root_rel)):
        if not 0.0 < value < math.inf:
            raise DomainValidationError(
                f"dirichlet_eigenvalues needs a finite {name} > 0, "
                f"got {name}={value}")
    rel = max(root_rel, 4.0 * float(np.finfo(float).eps))
    shots = {}  # trial nu -> (theta(r_out; nu), d theta / d nu)
    trial = _wkb_trials(p, i, r_out, int(count))
    evals = [None] * len(trial)
    # each open row is shot once a round: `rounds` shots spent a row
    rounds = 0
    open_rows = range(len(trial))
    while open_rows:
        rounds += 1
        # an open row's trial moved by more than rel: it is no shot taken,
        # though two rows may share one
        fresh = sorted({trial[j] for j in open_rows} - shots.keys())
        theta, slope = _shoot_rows(p, i, np.array(fresh), r_out, tol)
        shots.update(zip(fresh, zip(theta.tolist(), slope.tolist())))
        still = []
        for j in open_rows:
            nu = trial[j]
            trial[j] = _newton_trial(shots, nu, (j + 1) * math.pi, r_out, rel)
            if abs(trial[j] - nu) <= rel * trial[j]:
                evals[j] = trial[j]
            elif rounds == _SHOTS_PER_EIGENVALUE:
                raise EigenSearchError(
                    f"eigenvalue search spent its {_SHOTS_PER_EIGENVALUE} "
                    f"shots without locating index {j + 1}")
            else:
                still.append(j)
        open_rows = still
    return _build_pairs(p, i, evals, r_out, tol)


def _wkb_trials(p, i, r_out, count):
    """The first trial nu of every index j = 1 .. count: the root of the
    WKB phase condition

        Phi(nu) = int sqrt(nu - V(r))_+ dr = (j - 1/4) pi  over (0, r_out],

    one turning point and the Dirichlet wall at r_out, for the Liouville
    potential V of the radial equation (geometry.liouville_potential;
    f = r^(-c/2) u removes the (c/r) f' drift).  The phase is a midpoint
    sum on 1024 cells; it does not decrease in nu.  Doubling from nu = 1
    finds, for each j, the first power of two hi at which the phase
    reaches its target; the trial inverts the phase, by linear
    interpolation, on a table of 33 equally spaced nu over that octave
    [hi / 2, hi] ([0, 1] when hi is 1), built once for every octave that
    holds a target, one (33 x 1024) pass each.  That puts every trial
    within about 1e-4 of its root, relative.  A well deep enough to hold
    index j's phase at nu = 0 has no positive root for it; its trial is
    then (j pi / r_out)^2.
    """
    h = r_out / 1024
    V = liouville_potential(p, i, (np.arange(1024) + 0.5) * h)

    def phase(nu):
        return h * np.sqrt(np.maximum(nu - V, 0.0)).sum(axis=-1)

    well = phase(0.0)
    hi, top = 1.0, phase(1.0)
    table = None  # (hi, the octave's nu, the phase there)
    trials = []
    for j in range(1, count + 1):
        target = (j - 0.25) * math.pi
        if well >= target:
            trials.append((j * math.pi / r_out) ** 2)
            continue
        while top < target:
            hi *= 2.0
            top = phase(hi)
        if table is None or table[0] != hi:
            nus = np.linspace(0.0 if hi == 1.0 else 0.5 * hi, hi, 33)
            table = hi, nus, phase(nus[:, None])
        trials.append(float(np.interp(target, table[2], table[1])))
    return trials


def _newton_trial(shots, nu, target, r_out, rel):
    """Next trial nu for theta(r_out; nu) = target from the shot at nu.

    shots maps every trial nu to (theta, d theta / d nu).  The trial is the
    Newton step in x = sqrt(nu), x + (target - theta) / (2 x d theta/d nu),
    when the slope is finite and positive and the step either lands
    strictly inside the bracket (x_lo, x_hi), the shots nearest the target
    on either side by their angles (0 and inf while a side is missing), or
    moves nu by at most rel times the trial: the search stops there, and a
    root within rounding of a shot may round onto the bracket's end.
    Otherwise it is the sqrt(nu) midpoint of the bracket, or, while a side
    is missing, a step with slope r_out (WKB on an interval of length
    r_out) from the outermost shot, strictly beyond it.  A trial that
    moves nu by more than rel times itself is never a shot already taken.
    """
    below = [v for v, (th, _) in shots.items() if th <= target]
    above = [v for v, (th, _) in shots.items() if th > target]
    x_lo = math.sqrt(max(below)) if below else 0.0
    x_hi = math.sqrt(min(above)) if above else math.inf
    theta, slope = shots[nu]
    x = math.sqrt(nu)
    slope *= 2.0 * x
    if 0.0 < slope < math.inf:
        x_new = x + (target - theta) / slope
        trial = x_new * x_new
        if x_lo < x_new < x_hi or abs(trial - nu) <= rel * trial:
            return trial
    if below and above:
        return (0.5 * (x_lo + x_hi)) ** 2
    # one side missing: step from the outermost shot, strictly beyond it
    outer = max(below) if below else min(above)
    x_new = math.sqrt(outer) + (target - shots[outer][0]) / r_out
    if below:
        return max(x_new * x_new, math.nextafter(outer, math.inf))
    return min(max(x_new, 0.5 * x_hi) ** 2, math.nextafter(outer, 0.0))


def _build_pairs(p, i, nus, r_out, tol):
    """The eigenpairs at the eigenvalues nus, built together: one batched
    tip pass (solve_k2), one batched outer magnus_dense pass and one
    quad_log call for the norms on the pairs' Eigenfunctions, each row bit
    for bit its pair's own call.

    A pair is its tip branch below the anchor r_sw = r_mu^(-1/eps) and the
    outer pass above, of w = r^((c-1)/2) f, w'' = (r^2 (V - nu) + 1/4) w in
    K log r (K = r_out sqrt(max(nu, 1)), the fastest turn per unit of
    log r), whose uniform mesh resolves the barrier above r_sw and the
    oscillations alike.  Every pair's Dirichlet defect is checked before
    any norm is taken: one above 1e-8 raises ConsistencyError naming its nu,
    as an IntegrationError names its pass, its row's nu and the radius.
    """
    rho = tip_rate(p, i)
    s_lo = [r_mu(p, nu) for nu in nus]
    r_sw = [tip_window_top(p, nu) for nu in nus]
    # tip branch over ~40 decay e-foldings; everything below is dropped
    r_tip_lo = [(s + 40.0 / rho + 2.0) ** (-1.0 / p.eps) for s in s_lo]
    # the tip span's top in the bits of r_tip_lo, a float's power
    s_max = [r ** (-p.eps) for r in r_tip_lo]
    tips = solve_k2(p, i, np.array(nus), np.array(s_max), tol=tol)
    anchors = [[float(v) for v in _tip_evaluator(p, tip)(np.asarray(r))]
               for tip, r in zip(tips, r_sw)]
    K = [r_out * math.sqrt(max(nu, 1.0)) for nu in nus]
    a = [0.5 * (1.0 - p.c) / k for k in K]
    # the powers one row at a time, as a float's power rounds them
    K3, a3 = (np.array([v ** 3 for v in vs])[:, None] for vs in (K, a))
    Kc, ac, nuc = (np.array(v)[:, None] for v in (K, a, nus))

    def potential(x, rows):
        k = Kc[rows]
        r = np.exp(x / k)
        return (r * r * (liouville_potential(p, i, r) - nuc[rows]) + 0.25) \
            / (k * k)

    def read(x, log, y, rows):
        # f = E w with E = e^(a x) and w'' = P w: f'' = E ((P + a^2) w +
        # 2 a w') and f''' = E ((3 a P + a^3 + P') w + (P + 3 a^2) w'), where
        # P' = (2 r^2 (V - nu) + r^3 V') / K^3 and r^2 (V - nu) = K^2 P - 1/4
        k, e = Kc[rows], ac[rows]
        r = np.exp(x / k)
        P = potential(x, rows)
        dP = (2.0 * (k * k * P - 0.25)
              + r ** 3 * liouville_potential_slope(p, i, r)) / K3[rows]
        w = np.exp(log - log.max(axis=1, keepdims=True) + e * x)
        f, df = w * y[0], w * (y[1] + e * y[0])
        d2f = w * ((P + e * e) * y[0] + 2.0 * e * y[1])
        d3f = w * ((3.0 * e * P + a3[rows] + dP) * y[0]
                   + (P + 3.0 * e * e) * y[1])
        big = np.max(np.abs(f), axis=1, keepdims=True)
        return f / big, df / big, d2f / big, d3f / big

    span = (np.array([k * math.log(r) for k, r in zip(K, r_sw)]),
            np.array([k * math.log(r_out) for k in K]))
    start = np.array([(r * dlog + 0.5 * p.c - 0.5) / k
                      for r, (_, _, dlog), k in zip(r_sw, anchors, K)])
    with _naming("the eigenfunction's outer pass at nu", nus,
                 lambda x, row: math.exp(x / K[row])):
        outer = magnus_dense(potential, span, (1.0, start), tol, read)
    # each interval of a pass turns by less than pi, so a sign change
    # between nodes is exactly one zero; the last interval holds r_out's
    defects = [abs(f[-1]) / float(np.max(np.abs(f))) for _, f, _ in outer]
    for nu, defect in zip(nus, defects):
        if defect > 1e-8:
            raise ConsistencyError(
                f"Dirichlet defect {defect} at r_out for nu = {nu}")

    # the grid marks the cap, the seam and the bottom of the tip branch
    grids = [np.array([r_out ** -p.eps, lo, top])
             for lo, top in zip(s_lo, s_max)]
    r_grids = [grid ** (-1.0 / p.eps) for grid in grids]
    table = np.array([[tip.rho for tip in tips], [tip.offset for tip in tips],
                      K, r_sw, [math.log(f[0]) - anchor[1]
                                for (_, f, _), anchor in zip(outer, anchors)],
                      np.zeros(len(nus)), [r.min() for r in r_grids],
                      [r.max() for r in r_grids]])
    parts = [SepticHermite.stack([tip.interpolant, f])
             for tip, (_, _, f) in zip(tips, outer)]
    unit = Eigenfunctions(p, SepticHermite.stack(parts), table)
    # the L2(w dr) norm drops the part below r_tip_lo, where the density has
    # shed about 2*40 e-foldings; nothing bounds it.  The log shifts take
    # the norms in place: unit is not read again
    table[4:6] -= 0.5 * log_norm_sq(p, unit, table[6], r_out, 1e-12)
    return [EigenPair(
        nu=nu, mode_index=i, r_out=r_out, norm_defect=defects[k],
        g=RadialProfile(params=p, i=i, mu=nu, s_grid=grids[k],
                        evaluator=Eigenfunctions(p, parts[k],
                                                 table[:, k:k + 1])),
        zeros=int(np.count_nonzero(np.diff(np.signbit(outer[k][1][:-1])))))
        for k, nu in enumerate(nus)]


class Eigenfunctions:
    """Eigenfunctions as one evaluator of rows, one row a pair: the pairs'
    septic tables stacked in one SepticHermite, two rows a pair, the tip
    branch's in sigma = rho s (modes.TipBranch) and the outer pass's in
    K log r.  Column k of table holds pair k's rho, tip offset, K, seam
    r_sw, the log shifts of its tip branch and of its outer pass, and its
    represented range [r_min, r_max].  Called on radii r and rows, row
    indices that broadcast against r, it checks every point against its
    own row's range (DomainValidationError naming the radius) and gives
    (sign, log|g|, d log|g|/dr) there: the tip branch below r_sw, shifted
    onto the outer pass's f(r_sw) > 0, and the outer pass above, each
    point read on its own row by one gather and one Horner pass."""

    def __init__(self, params, interpolant, table):
        self.params, self.interpolant, self.table = params, interpolant, table

    def __call__(self, r, rows=0):
        p = self.params
        r = np.asarray(r, dtype=float)
        rho, offset, K, r_sw, tip_shift, shift, lo, hi = self.table[:, rows]
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
    """Bound on sum_{j>k} cap * nu_j * exp(-nu_j t), an estimate beyond the
    computed eigenvalues.

    Terms with computed eigenvalues (k < j <= len(eigs)) enter exactly;
    beyond the computed range the sum is majorized through
    nu_j >= C1 j^(2/N) in the exponential and nu_j <= C2 j^2 in the
    prefactor, summed over doubling blocks.  C1 and C2 are fitted to the
    computed eigenvalues, not proved, so that part is an estimate.  Block
    sums are eventually geometric with ratio <= 1/2, which closes the
    series (a termwise geometric majorant does not exist for sub-linear
    exponents).
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
    """The one state type: u = sum_j c_j exp(-nu_j t) g_j(r) phi_i with
    spherical index i on the radii r_support, its terms read by one
    evaluator of rows: radial(r, rows) gives (sign, log|g_j|,
    d log|g_j|/dr) of the terms j = rows, indices that broadcast against
    the radii r, and rates holds the nu_j.  A series of eigenpairs stacks
    the pairs' Eigenfunctions rows; a one-term state passes its radial
    evaluator as one row (one_row).  tail_certificate bounds the
    eigen-terms a truncation drops.  An elliptic state, L u = -mu u, is
    one term of rate mu whose bulk energy starts at r_lo; tip_tail
    estimates the energy below r_lo.  All three are 0 for an exact state
    that reaches the tip; a series of eigenpairs starts its bulk energy at
    its support bottom, where every pair's normalization stops."""

    params: object
    sphere_index: int
    r_support: tuple
    radial: object
    rates: np.ndarray
    coeffs: np.ndarray
    tail_certificate: float = 0.0
    r_lo: float = 0.0
    tip_tail: float = 0.0

    def slice_log(self, r, t, k=0):
        """(sign F, log|F|, sign dF/dr, log|dF/dr|), each of the broadcast
        shape of the radii r, times t and derivative orders k, of
        F = d^k/dt^k of the series: term j picks up (-nu_j)^k, that is
        k log nu_j in magnitude and (-1)^k in sign, and a term with
        nu_j = 0 is an exact zero for k >= 1.  One call of radial reads
        every term on the radii r alone; the terms' rates, coefficients,
        times and orders broadcast after it, so every time and order at a
        point shares one evaluation.  The one place the series is summed,
        over the term axis.
        """
        r, t, k = np.asarray(r, dtype=float), np.asarray(t), np.asarray(k)
        n = max(r.ndim, t.ndim, k.ndim)
        col = (-1,) + (1,) * n
        sgn, lm, ld = self.radial(r[(None,) * (n - r.ndim)],
                                  np.arange(self.rates.size).reshape(col))
        nu = self.rates.reshape(col)
        # each term's log nu_j and log|c_j| as math rounds them
        log_nu = np.array([math.log(v) if v else 0.0
                           for v in self.rates.tolist()]).reshape(col)
        amp = np.array([math.log(abs(c)) if c else -math.inf
                        for c in self.coeffs.tolist()]).reshape(col)
        csign = np.where(self.coeffs >= 0, 1.0, -1.0).reshape(col)
        sF = csign * sgn * (-1.0) ** k
        lF = amp - nu * t + lm + np.where(k > 0, k * log_nu, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lD = lF + np.log(np.abs(ld))
        sD = sF * np.sign(ld)
        zero = (nu == 0) & (k > 0)
        if zero.any():
            sF, sD = (np.where(zero, 0.0, v) for v in (sF, sD))
            lF, lD = (np.where(zero, -math.inf, v) for v in (lF, lD))
        return (*logsumexp_signed(sF, lF), *logsumexp_signed(sD, lD))


def one_row(radial_log):
    """The evaluator of rows of a one-term series from its radial evaluator
    radial_log(r): its values, broadcast against the rows (all 0)."""
    return lambda r, rows: np.broadcast_arrays(*radial_log(r), rows)[:3]


def make_caloric_series(pairs, coeffs, t_min):
    """Assemble a series, its pairs' Eigenfunctions rows stacked into one
    evaluator; the tail certificate is computed at the shortest evaluation
    time t_min via tail_bound, never assumed."""
    if not pairs:
        raise DomainValidationError("caloric series needs >= 1 pair")
    nus = [pair.nu for pair in pairs]
    if any(b <= a for a, b in zip(nus, nus[1:])):
        raise DomainValidationError("eigenvalues must be strictly increasing")
    if len({pair.mode_index for pair in pairs}) != 1:
        raise DomainValidationError("all pairs must share the spherical index")
    if any(pair.g.params != pairs[0].g.params for pair in pairs):
        raise DomainValidationError("all pairs must share the horn's params")
    mixed = [pair.r_out for pair in pairs if pair.r_out != pairs[0].r_out]
    if mixed:
        raise DomainValidationError(
            f"all pairs must come from one truncation: r_out = "
            f"{pairs[0].r_out} and r_out = {mixed[0]}")
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
    return CaloricSeries(
        params=p, sphere_index=pairs[0].mode_index, r_support=r_support,
        radial=Eigenfunctions(p, SepticHermite.stack(
            [q.g.evaluator.interpolant for q in pairs]),
            np.hstack([q.g.evaluator.table for q in pairs])),
        rates=np.array(nus), coeffs=coeffs, tail_certificate=cert,
        r_lo=r_support[0])


def taylor_coefficients(series, r0, t0, kmax):
    """log|a_k|, k = 0..kmax, of the Taylor coefficients a_k = d^k_t u / k!
    of t -> u(r0, t) at t0, from one series evaluation over all k; an
    exact zero is -inf."""
    if not t0 > 0:
        raise DomainValidationError("taylor_coefficients needs t0 > 0")
    sF, lF, _, _ = series.slice_log(float(r0), t0, np.arange(kmax + 1))
    return [NEG_INF if s == 0 else float(L) - lgamma_real(k + 1.0)
            for k, (s, L) in enumerate(zip(sF, lF))]


def taylor_radius(log_ak):
    """1 / max_{k in [kmax/2, kmax]} |a_k|^(1/k) from taylor_coefficients
    up to kmax, a conservative window estimate of 1/limsup |a_k|^(1/k);
    +inf when every a_k in the window is zero or the radius lies past the
    double range."""
    kmax = len(log_ak) - 1
    if not kmax >= 8:
        raise DomainValidationError(
            f"taylor_radius needs kmax >= 8, got kmax = {kmax}")
    window = [L / k for k, L in enumerate(log_ak)
              if k >= max(1, kmax // 2) and L != NEG_INF]
    root = math.exp(max(window)) if window else 0.0
    return 1.0 / root if root > 0.0 else math.inf


def analyticity_probe(series, r0, t0, kmax):
    """Lower estimate of the Taylor radius of t -> u(r0, t) at t0; see
    taylor_radius."""
    return taylor_radius(taylor_coefficients(series, r0, t0, kmax))


def caloric_decay_check(series, r_grid, log_mag):
    """Fit of log|f_i(r, t)| against r^-eps over the tip region, from
    log_mag, the log|F| of series.slice_log(r_grid, t) at one time t.

    Only defined when the series carries no bounded radial part (i >= 1
    for every pair): that component does not vanish at the tip.
    """
    if series.sphere_index == 0:
        raise DomainValidationError(
            "caloric_decay_check excludes series with a bounded radial part "
            "(spherical index 0)")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 8:
        raise DomainValidationError("caloric_decay_check needs >= 8 radii")
    if not np.all(np.isfinite(log_mag)):
        raise ConsistencyError("series vanishes at a fit radius")
    return fit_line(r_grid ** (-series.params.eps), log_mag)
