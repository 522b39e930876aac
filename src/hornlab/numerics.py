"""Shared numerical kernels.

Every kernel is a thin contract over scipy, numpy or the math module: the
real-order Bessel function J_nu (scipy.special, after Amos, ACM TOMS
Algorithm 644, imported on its first call), the real Gamma function and its
logarithm (math.gamma and math.lgamma), the lab's one linear propagator,
sixth-order Magnus for u'' = (V - nu) u in numpy, its node states from a
work-efficient tree scan of the m interval propagators (m - 1 2x2 products
up, m matrix-vector products down), with three reductions held to their
tolerance above a stated floor (the Pruefer angle, which brings its
nu-derivative from the same nodes, the end log-derivative and dense node
states, read by a septic Hermite interpolant), composite
Gauss-Legendre quadrature of log-represented integrands and line fitting.
Only the angle takes nu.  The two dense reductions take the whole
coefficient V of u'' = V u.
The wrappers fix the domains and the error types, so every caller and test
exercises the same surface, and an argument outside a function's domain
raises DomainValidationError instead of returning nan.

A potential is vectorised over rows, as a quad_log integrand is:
potential(x, rows) maps the abscissae x, shape (open rows, points), of the
rows whose indices are `rows` to the potential there, in one call per mesh
for every row that needs that mesh.  The three reductions and quad_log
take rows under one rule (row_count: an all-scalar call is one row) and
return one entry a row; the reductions form and check their rows in one
place (_state_rows), and one Richardson ladder (_richardson) returns
every row's result, keeping only its last sweep and its last
extrapolation; the angle's check reads each accepted row's slope off that
last sweep, and the dense reduction's check reads its interpolants at
fixed fractions of their intervals (SepticHermite.at).  A reduction's
IntegrationError names the failing row and the position x in the sweep's
own variable, its location; the caller, which knows what x measures,
names the pass and the radius.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainValidationError, IntegrationError, QuadratureError,
                     ToleranceFloorError)
from .logspace import logsumexp_signed

# ---------------------------------------------------------------------------
# Represented ranges
# ---------------------------------------------------------------------------


def check_in_range(x, lo, hi, name):
    """The one range rule: DomainValidationError naming `name` and the value
    unless every x lies in [lo, hi], with a slack of 1e-12 |bound| at each
    end; lo and hi may be arrays that broadcast against x, each point's
    own bounds.  NaN lies in no range; an empty array passes."""
    x = np.asarray(x, dtype=float)
    ok = (x >= lo - 1e-12 * np.abs(lo)) & (x <= hi + 1e-12 * np.abs(hi))
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), ok.shape)
        bad, lo, hi = (np.broadcast_to(v, ok.shape)[k] for v in (x, lo, hi))
        raise DomainValidationError(f"{name}={bad} must lie in [{lo}, {hi}]")


def row_count(name, given):
    """The one batch rule: the arguments in given, a dict by name, are
    scalars or 1-D arrays of one length of at least 1, against which the
    scalars broadcast.  Returns that length, the number of rows, which is 1
    when all are scalars; otherwise DomainValidationError naming `name` and
    every shape."""
    shapes = {key: np.asarray(v).shape for key, v in given.items()}
    found = set(shapes.values()) - {()}
    if not found:
        return 1
    shape = found.pop()
    if found or len(shape) != 1 or not shape[0]:
        raise DomainValidationError(
            f"{name} takes {', '.join(given)} as scalars or 1-D arrays of "
            "one length >= 1, got shapes " + ", ".join(
                f"{key} {s}" for key, s in shapes.items()))
    return shape[0]


# ---------------------------------------------------------------------------
# Gamma and Bessel functions of real argument and order
# ---------------------------------------------------------------------------


def gamma_real(x):
    """Gamma(x) for real x away from the poles 0, -1, -2, ...

    Overflows to inf past x ~ 171.6 (and to -inf just below 0).
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainValidationError(f"gamma_real pole at non-positive integer x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def lgamma_real(x):
    """log Gamma(x) for x > 0; overflows to inf past x ~ 2.6e305."""
    x = float(x)
    if not x > 0.0:
        raise DomainValidationError(f"lgamma_real needs x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def bessel_j(nu, x):
    """Bessel function of the first kind, real order nu >= 0, x >= 0,
    elementwise over an array x of any shape."""
    if not nu >= 0:
        raise DomainValidationError(f"bessel_j needs nu >= 0, got {nu}")
    x = np.asarray(x, dtype=float)
    bad = x[~(x >= 0)]
    if bad.size:
        raise DomainValidationError(f"bessel_j needs x >= 0, got {bad[0]}")
    # a demo never reaches a Bessel function: its process does not load
    # scipy.special
    from scipy import special
    return special.jv(float(nu), x)


# ---------------------------------------------------------------------------
# Linear second-order equations by Magnus propagation
# ---------------------------------------------------------------------------

# the three Gauss points of an interval, as fractions of it
_MAGNUS_GAUSS = 0.5 + (np.array([-1.0, 0.0, 1.0])[:, None] * math.sqrt(15.0)
                       / 10.0)
_MAGNUS_MIN_INTERVALS = 64
_MAGNUS_MAX_INTERVALS = 2**16
# an interval of exponent s past this carries e^(-s) exp(Omega) and s apart
_MAGNUS_FAR = 700.0
_EPS = float(np.finfo(float).eps)
# the smallest tolerance honoured, per unit of the propagated quantity
_TOL_FLOOR = 10.0 * _EPS


def _magnus_propagators(potential, nu, a, h, m, rows):
    """(E, log): exp(Omega) of each of the m intervals
    [a + h j, a + h (j + 1)] of u'' = (V - nu) u on every row, as a
    (2, 2, rows, m) array, in units of exp(log), a (rows, m) array; nu, a
    and h hold one value a row, and h < 0 sweeps backward.  Omega is the
    sixth-order Magnus exponent on the interval's three Gauss points
    (magnus_prufer).  An interval with s^2 > 0 and s > 700, whose cosh
    passes the double range, is e^(-s) exp(Omega) = (I + Omega / s) / 2
    with log s; any other has log 0.  An interval that turns the state by
    pi or more raises IntegrationError naming its row and its start x, its
    location."""
    h, nu = h[:, None], nu[:, None]
    # each row's first Gauss points, then its middle ones, then its last
    V = potential(a[:, None] + h * (np.arange(m) + _MAGNUS_GAUSS).ravel(),
                  rows)
    V1, V2, V3 = V[:, :m], V[:, m:2 * m], V[:, 2 * m:]
    E = np.empty((2, 2, rows.size, m))
    with np.errstate(over="ignore", invalid="ignore"):
        # magnus_prufer's Omega, with sl(2) elements [[A, B], [C, -A]] as
        # triples (A, B, C) and w = h W2: X = (h d2, -20 h, -20 w - d3) =
        # (aX, bX, cX) and Y = (-h d3 / 30, h^2 d2 / 30, d2 - h w d2 / 30)
        # = (aY, bY, cY), and the B and C entries of [X, Y] carry a factor 2
        w = h * (V2 - nu)
        d2 = (math.sqrt(15.0) / 3.0 * h) * (V3 - V1)
        d3 = (10.0 / 3.0 * h) * (V3 - 2.0 * V2 + V1)
        aX, bX, cX = h * d2, -20.0 * h, -20.0 * w - d3
        aY = (-h / 30.0) * d3
        bY = (h * h / 30.0) * d2
        cY = d2 - (h / 30.0) * w * d2
        # Omega = [[alpha, b], [c, -alpha]]; Omega^2 = s2 I
        alpha = (bX * cY - cX * bY) / 240.0
        b = h + (aX * bY - bX * aY) / 120.0
        c = w + d3 / 12.0 + (cX * aY - aX * cY) / 120.0
        s2 = alpha * alpha + b * c
        s = np.sqrt(np.abs(s2))
        turns = s2 < 0.0
        ch = np.where(turns, np.cos(s), np.cosh(s))
        sh = np.divide(np.where(turns, np.sin(s), np.sinh(s)), s,
                       out=np.ones(s.shape), where=s > 0.0)
        log = np.zeros(s.shape)
        if not s.max() < math.pi:
            turned = np.where(turns, s, 0.0)
            top = turned.max(axis=1)
            if not (top < math.pi).all():
                g = int((top < math.pi).argmin())
                x = float(a[g] + h[g, 0] * turned[g].argmax())
                raise IntegrationError(
                    f"a Magnus interval of row {int(rows[g])} at x = {x} "
                    f"turns the state by up to {top[g]:.3g} >= pi",
                    location=x, row=int(rows[g]))
            # no turning interval has s >= pi, so these have s^2 > 0
            far = s > _MAGNUS_FAR
            ch[far], sh[far], log[far] = 0.5, 0.5 / s[far], s[far]
        # exp(Omega) = ch I + sh Omega, one 2x2 matrix per interval
        E[0, 0] = ch + sh * alpha
        E[0, 1] = sh * b
        E[1, 0] = sh * c
        E[1, 1] = ch - sh * alpha
    return E, log


def _unit_columns(v):
    """v, shape (..., rows, columns), divided by each (row, column)'s
    largest |entry|, and the log of that entry."""
    big = np.abs(v).max(axis=tuple(range(v.ndim - 2)))
    return v / big, np.log(big)


def _tree_scan(E, log, start, dense):
    """(log scales, states): each row's states (u, u') at the nodes
    a + h j, j = 0 .. m, of its m intervals, m a power of two, node j's
    exp(log scales[:, j]) states[:, :, j], shapes (rows, m + 1) and
    (2, rows, m + 1), node 0 the start y0 = start, shape (2, rows); with
    dense False, node 0 and node m alone.  E and log are
    _magnus_propagators' and are overwritten.

    A work-efficient scan (Blelloch 1990): the up-sweep stores each
    block's propagator at the block's last interval, the product of its
    halves', in m - 1 2x2 products; the down-sweep gives node m from node
    0 and the whole propagator, then carries each block's start state
    across its left half, in m matrix-vector products in all (one when
    not dense).  A row is rescaled when its products could pass the
    double range (the max-row-sum norm is submultiplicative, so none
    passes the product of the norms above 1, times each interval's
    e^log): each product and state of that row is divided by its largest
    entry, whose log it carries.  Any other row is left unscaled, with
    log 0, bit for bit, whatever else is in E.  Column j of E ends as the
    propagator of a block of intervals ending at j, so a row's first
    column that is not finite is its first interval that is not."""
    rows, m = log.shape
    bound = np.log(np.maximum(np.abs(E).sum(axis=1).max(axis=0), 1.0))
    scaled = np.flatnonzero(~((bound + log).sum(axis=-1) < 700.0))
    states = np.empty((2, rows, m + 1))
    states[:, :, 0] = start
    scales = np.zeros((rows, m + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = 1
        while d < m:
            left, right = np.s_[d - 1::2 * d], np.s_[2 * d - 1::2 * d]
            E[..., right] = np.einsum("ikrn,kjrn->ijrn", E[..., right],
                                      E[..., left])
            if scaled.size:
                at = np.s_[:, :, scaled, right]
                E[at], grown = _unit_columns(E[at])
                log[scaled, right] += log[scaled, left] + grown
            d *= 2
        while d:  # m, then m / 2 .. 1 when dense
            left, to = np.s_[d - 1::2 * d], np.s_[d::2 * d]
            frm = np.s_[:-1:2 * d]
            np.einsum("ijrn,jrn->irn", E[..., left], states[..., frm],
                      out=states[..., to])
            if scaled.size:
                at = np.s_[:, scaled, to]
                states[at], grown = _unit_columns(states[at])
                scales[scaled, to] = (scales[scaled, frm]
                                      + log[scaled, left] + grown)
            d = d // 2 if dense else 0
    return (scales, states) if dense else (scales[:, ::m], states[..., ::m])


def _magnus_angle(k, states):
    """theta(b) of magnus_prufer on each row, an array, from k, one value a
    row, and the node states (u, u') at a + h j, j = 0 .. m, shape
    (2, rows, m + 1), each in a positive scale of its own, to which the
    angle is blind."""
    u, du = states
    theta = np.arctan2(k[:, None] * u, du)
    # each interval turns the state by less than pi, so the principal value
    # of each step's angle change is the true one
    wraps = np.rint(np.diff(theta, axis=1) / (2.0 * math.pi)).sum(axis=1)
    return theta[:, -1] - 2.0 * math.pi * wraps


def _angle_slope(nu, k, h, log, states):
    """d theta(b) / d nu of magnus_prufer on each row, an array, from nu, k
    and the step h, one value a row, and the node states of one sweep, node
    j's exp(log[:, j]) states[:, :, j] (node 0 the start, of log 0), in
    units of each row's largest node state, so no square overflows:
    (k int u^2 + u(b) u'(b) dk/dnu) / (k^2 u(b)^2 + u'(b)^2), the integral
    by the corrected trapezoid h sum' u_j^2 + (h^2 / 12) [2 u u'] from b to
    a, of order h^4."""
    u, du = states * np.exp(log - log.max(axis=1, keepdims=True))
    big = np.maximum(np.abs(u).max(axis=1), np.abs(du).max(axis=1))[:, None]
    u, du = u / big, du / big
    sq = u * u
    norm = h * (sq.sum(axis=1) - 0.5 * (sq[:, 0] + sq[:, -1])) \
        + (h * h / 6.0) * (u[:, 0] * du[:, 0] - u[:, -1] * du[:, -1])
    dk = np.where(nu > 1.0, 0.5 / k, 0.0)
    return ((k * norm + u[:, -1] * du[:, -1] * dk)
            / (k * k * u[:, -1] ** 2 + du[:, -1] ** 2))


def _normalized(log, y):
    """Node states exp(log) y, shapes (rows, nodes) and (2, rows, nodes),
    as (log scales, states) with each (row, node) column of states at
    max-norm 1 (_unit_columns)."""
    y, grown = _unit_columns(y)
    return log + grown, y


def _on_coarse_nodes(coarse, fine):
    """fine's log scales and values at coarse's nodes, every other one of
    fine's, and fine minus coarse there, in fine's units; rows stacked on
    the axis before the nodes'."""
    log_f, val_f = fine[0][:, ::2], fine[1][:, :, ::2]
    return log_f, val_f, val_f - coarse[1] * np.exp(coarse[0] - log_f)


def _take(level, rows):
    """The (log scales, values) of rows of level (rows, log scales, values):
    rows are some of level's, in its order."""
    have, log, values = level
    if len(have) == len(rows):  # all of them
        return log, values
    j = np.searchsorted(have, rows)
    return log[j], values[:, j]


def _richardson(sweep, m, tol, span, check):
    """Richardson extrapolation of sweep over the meshes m, 2m, 4m, ...,
    for every row on its own ladder from its own first mesh m[row], a power
    of two.

    sweep(m, rows) gives (log scales, values) at the nodes of the mesh of
    m intervals on each of rows, shapes (rows, nodes) and
    (c, rows, nodes), values in units of exp(log scale), every other node
    of a mesh a node of the mesh half its size (or one end node).  The
    scheme is symmetric and of order six, so a value's error expands in
    even powers of 1/m from the sixth: the Richardson value
    t_m = v_2m + (v_2m - v_m) / 63 is of order eight, and
    max |t_2m - t_m| / 255, in units of each node's scale, estimates
    t_2m's error.  Each row is accepted with t_2m, on mesh 2m's nodes,
    once its larger estimate is at most tol, and leaves the batch; the open
    rows whose next mesh is the smallest are swept together, so a row's
    ladder, estimates and result are those of its call alone.

    check(t_2m, rows) takes the rows whose own estimate is at most tol and
    returns (an estimate of its own for each, one result per row); a row's
    result is what check gave it at the level it is accepted on.  The
    first meshes are powers of two, so an open row is in every sweep until
    it is accepted (the smallest open mesh is twice the last one while any
    of the last sweep's rows is open): a row swept (or extrapolated) before
    was swept (or extrapolated) in the previous sweep, on half its mesh,
    and only that sweep and that extrapolation are kept.  Returns each
    row's result.  A row whose next mesh passes 2^16 intervals raises
    IntegrationError naming the row and its estimate, or, when its first
    estimate, on meshes m, 2m and 4m, would pass 2^16, on reaching m and
    before any sweep of its own, its first mesh and its span (span[0][row],
    span[1][row]), with the span's end as its location.
    """
    first, m, cap = m, list(m), _MAGNUS_MAX_INTERVALS
    estimate = [math.inf] * len(m)
    result = [None] * len(m)
    open_rows = list(range(len(m)))
    # the last sweep and the last extrapolation, as (rows, log, values)
    coarse = extrapolated = ([], None, None)
    while open_rows:
        size = min(m[k] for k in open_rows)
        rows = [k for k in open_rows if m[k] == size]
        unfit = [k for k in rows if size == first[k] and 4 * size > cap]
        if unfit or size > cap:
            k = (unfit or rows)[0]
            lo, end = float(span[0][k]), float(span[1][k])
            failure = (
                f"needs a first mesh of {size} intervals for its span "
                f"({lo}, {end}), so its first Richardson estimate needs "
                f"{4 * size}, past the cap of {cap} intervals"
                if unfit else
                f"reached {size // 2} intervals with Richardson estimate "
                f"{estimate[k]:.3g} above tol {tol} at x = {end}")
            raise IntegrationError(
                f"the Magnus propagation of row {k} {failure}", location=end,
                row=k)
        before, coarse = coarse, (rows, *sweep(size, np.array(rows)))
        for k in rows:
            m[k] *= 2
        later = [k for k in rows if k in before[0]]
        if not later:
            continue
        log, val, step = _on_coarse_nodes(_take(before, later),
                                          _take(coarse, later))
        previous, extrapolated = extrapolated, (later, log, val + step / 63.0)
        third = [k for k in later if k in previous[0]]
        if not third:
            continue
        level = third, *_take(extrapolated, third)
        gap = _on_coarse_nodes(_take(previous, third), level[1:])[2]
        est = np.abs(gap).max(axis=(0, 2)) / 255.0
        for k, e in zip(third, est.tolist()):
            estimate[k] = e
        near = [k for k in third if estimate[k] <= tol]
        if near:
            extra, got = check(_take(level, near), np.array(near))
            larger = np.maximum([estimate[k] for k in near], extra).tolist()
            for k, e, row in zip(near, larger, got):
                estimate[k] = e
                if e <= tol:
                    result[k] = row
            open_rows = [k for k in open_rows if result[k] is None]
    return result


def magnus_prufer(potential, nu, span, y0, tol):
    """(theta(b), d theta(b) / d nu): the modified Pruefer angle of
    u'' = (V(r) - nu) u on span = (a, b), a < b, from the state
    y0 = (u(a), u'(a)), and its nu-derivative, as two arrays, one entry a
    row: nu, a, b, u(a) and u'(a) are scalars or 1-D arrays of one length
    (row_count).

    With k = sqrt(max(nu, 1)), k u = rho sin(theta) and u' = rho cos(theta);
    theta(a) = atan2(k u(a), u'(a)) and theta is continuous.  potential
    keeps the module's row contract, and each row's angle and slope are
    those of its one-row call, bit for bit.

    Sixth-order Magnus on m equal intervals (Blanes, Casas and Ros, BIT 40,
    2000), with V at the three Gauss points x + h (1/2 + {-1, 0, 1}
    sqrt(15)/10) of each interval [x, x + h], W_j = V - nu there.  Write a
    traceless [[A, B], [C, -A]] as (A, B, C) and let
    alpha1 = (0, h, h W2), alpha2 = (0, 0, d2) and alpha3 = (0, 0, d3) with
    d2 = (sqrt(15)/3) h (W3 - W1) and d3 = (10/3) h (W3 - 2 W2 + W1), both
    free of nu.  Then Omega = alpha1 + alpha3 / 12 + [X, Y] / 240, with
    X = -20 alpha1 - alpha3 + [alpha1, alpha2] and
    Y = alpha2 - [alpha1, 2 alpha3 + [alpha1, alpha2]] / 60, where
    [X, Y] = (B_X C_Y - C_X B_Y, 2 (A_X B_Y - B_X A_Y),
    2 (C_X A_Y - A_X C_Y)); a constant V gives Omega = alpha1, which is
    exact.  exp(Omega) of this traceless matrix is
    cosh(s) I + sinh(s)/s Omega with s^2 = A^2 + B C
    (cos and sin when s^2 < 0).  One call of the potential per mesh.  The
    node states come from a work-efficient tree scan of the interval
    propagators (_tree_scan): an up-sweep of m - 1 2x2 products, then a
    down-sweep of m matrix-vector products, the first of which gives the
    end state, rescaled whenever the products could pass the double
    range (an interval of s > 700 carries e^-s apart), and
    theta = atan2(k u, u') at the nodes, blind to each node's positive
    scale, is unwrapped interval by interval (_magnus_angle).  That is
    exact when every interval turns the state by less than pi: an interval
    with s^2 >= 0 always does, and one with s^2 < 0 (a rotation in a frame
    of its own, half a turn at |s| = pi) does when |s| < pi, which is
    checked.

    The step is symmetric, so theta's error expands in even powers of h
    (Iserles, Norsett and Rasmussen 2001).  Meshes double from max(64, the
    power of two at or above k (b - a)) until the order-eight Richardson
    estimate of theta (_richardson) is at most tol, absolute in radians.

    The slope holds for start data y0 that do not depend on nu.  Then
    W = u d_nu u' - u' d_nu u starts at 0 and W' = -u^2, so
    d theta(b) / d nu = (k int_a^b u^2 dr + u(b) u'(b) k')
    / (k^2 u(b)^2 + u'(b)^2), with k' = 1 / (2 k) for nu > 1 and 0
    otherwise (_angle_slope).  The integral is the corrected trapezoid on
    the nodes of the row's own accepting sweep, its finest, of order h^4
    and not held to tol.  Start data that move with nu add their own term,
    which the caller supplies or drops.

    theta's rounding error grows with |theta|, which is about k (b - a) or
    less when V >= 0: a tol below the floor 10 eps max(1, k (b - a)) raises
    ToleranceFloorError naming the row of the largest k (b - a) and
    carrying tol / max(1, k (b - a)) of that row and the floor 10 eps.  A
    propagation that is not finite, an interval that turns the state by pi
    or more, or a mesh past 2^16 intervals raises IntegrationError naming
    the row and the radius, with the estimate at the cap, or the first
    mesh and the span when a first estimate, on 4 times that mesh, would
    pass the cap (before any sweep of the row); an argument that is not
    finite raises DomainValidationError naming it.
    """
    nu, a, b, m, states = _state_rows("magnus_prufer", potential, span, y0,
                                      tol, nu)
    k = np.sqrt(np.maximum(nu, 1.0))
    finest = None  # the last sweep: (rows, h, log scales, states)

    def sweep(m, rows):  # an angle's unit is the radian: log scale 0
        nonlocal finest
        log, y = states(m, rows)
        finest = rows, (b[rows] - a[rows]) / m, log, y
        return (np.zeros((rows.size, 1)),
                _magnus_angle(k[rows], y)[None, :, None])

    def check(level, near):
        # an accepted row was in the last sweep, which is its finest
        rows, h, log, y = finest
        j = np.searchsorted(rows, near)
        slope = _angle_slope(nu[near], k[near], h[j], log[j], y[:, j])
        return 0.0, list(zip(level[1][0, :, 0].tolist(), slope.tolist()))

    theta, slope = zip(*_richardson(sweep, m, tol, (a, b), check))
    return np.array(theta), np.array(slope)


def _state_rows(name, potential, span, y0, tol, nu=None):
    """(nu, a, b, first meshes, node states) of a Magnus reduction, one
    entry a row under row_count's rule, after their common checks: every
    row's nu (when given), a, b, u(a) and u'(a) finite, then the span, then
    the floor.  Only an angle (magnus_prufer) gives nu: it needs a < b on
    every row, and holds its floor per unit of its scale max(1, k (b - a)),
    so its floor error names the row of the largest scale.  The dense
    reductions' rows carry nu = 0."""
    angle = nu is not None
    given = dict(zip(("nu", "a", "b", "u(a)", "u'(a)"), (nu, *span, *y0)))
    if not angle:
        del given["nu"]
    rows = np.zeros((5, row_count(name, given)))
    held = rows[5 - len(given):]
    for row, v in zip(held, given.values()):
        row[:] = v
    nu, a, b, y0 = rows[0], rows[1], rows[2], rows[3:]
    finite = np.isfinite(rows).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise DomainValidationError(
            f"{name} needs finite {', '.join(given)}, got "
            f"({', '.join(str(v) for v in held[:, k].tolist())})")
    bad = ~(a < b) if angle else ~(a != b)
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainValidationError(
            f"{name} needs a {'<' if angle else '!='} b, got ({a[k]}, {b[k]})")
    scale = [max(1.0, math.sqrt(max(v, 1.0)) * abs(hi - lo))
             for v, lo, hi in zip(nu.tolist(), a.tolist(), b.tolist())]
    top = int(np.argmax(scale)) if angle else None
    unit = scale[top] if angle else 1.0
    if not tol / unit >= _TOL_FLOOR:
        per = f" * {unit:.6g} for nu = {nu[top]}" if angle else ""
        raise ToleranceFloorError(
            f"{name} needs tol >= {_TOL_FLOOR:.3g}{per}, got tol={tol}",
            tol=tol / unit, floor=_TOL_FLOOR, solver="ODE")
    # the first meshes, for sweeps over `scale` radians or e-folds
    m = [max(_MAGNUS_MIN_INTERVALS, 1 << math.ceil(math.log2(v)))
         for v in scale]

    def states(m, rows, dense=True):
        # _tree_scan's (log, y) of rows on m intervals: node j's state
        # (u, u') at a + h j is exp(log[:, j]) y[:, :, j]
        lo, h = a[rows], (b[rows] - a[rows]) / m
        E, log = _magnus_propagators(potential, nu[rows], lo, h, m, rows)
        scales, y = _tree_scan(E, log, y0[:, rows], dense)
        # a state that is not finite leaves every later one not finite
        end = np.isfinite(y[..., -1]).all(axis=0) & np.isfinite(scales[:, -1])
        if not end.all():
            g = int(np.argmin(end))
            bad = ~(np.isfinite(E[:, :, g]).all(axis=(0, 1))
                    & np.isfinite(log[g]))
            if dense:  # a state can overflow from finite propagators
                bad |= ~(np.isfinite(y[:, g, 1:]).all(axis=0)
                         & np.isfinite(scales[g, 1:]))
            bad[-1] = True
            x = float(lo[g] + h[g] * (np.argmax(bad) + 1))
            raise IntegrationError(
                f"the Magnus propagation of row {int(rows[g])} is not finite "
                f"at x = {x}", location=x, row=int(rows[g]))
        return scales, y

    return nu, a, b, m, states


def magnus_dense(potential, span, y0, tol, read):
    """Dense solution of u'' = V(x) u on span = (a, b) from
    y0 = (u(a), u'(a)); b < a sweeps backward.  V is the whole coefficient.
    a, b, u(a) and u'(a) are scalars or 1-D arrays of one length, one entry
    a row (row_count).

    potential keeps the module's row contract, and read(x, log, y, rows)
    takes the node states of rows, shapes (open rows, nodes) and
    (2, open rows, nodes).  Each row's result is that of its one-row call,
    bit for bit.

    magnus_prufer's propagation at nu = 0, rescaled whenever the products
    could pass the double range, on meshes doubling from max(64, the power
    of two at or above |b - a|).  read maps the node states (node j's is
    exp(log[:, j]) y[:, :, j]) to the caller's variable as
    (v, v', v'', v''') at the nodes x, v'' from the equation and v''' from
    the equation differentiated once, and a SepticHermite reads them.  Two
    estimates are held to tol: the nodes' (_richardson's order-eight value,
    its gap over 255, in units of each node's max-norm) and the
    interpolant's, of order eight in v too, its gap at the mesh midpoints
    to the interpolant on every other node (SepticHermite.at on both), over
    255 in v and 127 in v' (orders eight and seven), in units of max|v| and
    max|v'|, and 0 at its rounding floor 4 eps max|v| / (h max|v'|).

    Returns a list of (x, v, interpolant), one a row, on the row's accepted
    nodes x, x[0] = a and x[-1] = b.  A tol below 10 eps raises
    ToleranceFloorError (solver "ODE").  The failures are magnus_prufer's.
    They name the row and the position x, and x is the error's location.
    """
    _, a, b, m, states = _state_rows("magnus_dense", potential, span, y0,
                                     tol)

    def sweep(m, rows):
        return _normalized(*states(m, rows))

    def check(level, rows):
        log, y = level
        n = log.shape[1]
        lo, hi = a[rows], b[rows]
        # np.linspace(lo, hi, n) on each row, bit for bit
        x = np.arange(n) * ((hi - lo) / (n - 1))[:, None]
        x += lo[:, None]
        x[:, -1] = hi
        data = read(x, log, y, rows)
        # the fine midpoints lie at 1/4 and 3/4 of the coarse intervals; the
        # coarse interpolant is gone before the fine one is built: a smaller
        # peak
        coarse = SepticHermite(x[:, ::2], *(d[:, ::2] for d in data)).at(
            (0.25, 0.75))
        fine = SepticHermite(x, *data)
        # fine interval 2i + f is coarse interval i read at (2f + 1) / 4
        gap, slope_gap = (
            np.abs(f.reshape(rows.size, -1, 2) - c.transpose(1, 2, 0)).max(
                axis=(1, 2)) for f, c in zip(fine.at((0.5,)), coarse))
        size, slope = (np.max(np.abs(d), axis=1) for d in data[:2])
        estimate = np.maximum(gap / (255.0 * size),
                              slope_gap / (127.0 * slope))
        # the slope of an interpolant rounds to about 2 eps max|v| / h
        floor = 4.0 * _EPS * size * (n - 1) / (np.abs(hi - lo) * slope)
        return (np.where(estimate > floor, estimate, 0.0),
                [(x[j], data[0][j], fine.row(j)) for j in range(rows.size)])

    return _richardson(sweep, m, tol, (a, b), check)


def magnus_log_derivative(potential, span, y0, tol):
    """u'(b) / u(b) of u'' = V(x) u on span = (a, b) from
    y0 = (u(a), u'(a)); b < a sweeps backward.  V is the whole coefficient.

    magnus_dense's sweeps, rows and contract with the node estimate taken
    at b alone, an array, one entry a row: the tree scan stops after its
    up-sweep and one matrix-vector product.  The floor and the failures
    are magnus_dense's.
    """
    _, a, b, m, states = _state_rows("magnus_log_derivative", potential,
                                     span, y0, tol)

    def sweep(m, rows):
        log, y = states(m, rows, dense=False)
        return _normalized(log[:, -1:], y[..., -1:])

    def check(level, rows):  # no estimate of its own
        y = level[1][..., 0]
        return 0.0, y[1] / y[0]

    return np.array(_richardson(sweep, m, tol, (a, b), check))


def _horner(c, t):
    """(p(t), dp/dt) of the septics whose coefficients c[0], ..., c[7] run
    from the highest power, t broadcast against them: one Horner pass for
    the value, whose partial sums are also the coefficients of the slope's
    pass (p_k = p_(k-1) t + c_k and p_k' = p_(k-1)' t + p_(k-1)); in place,
    the inner loop of every evaluator."""
    slope = c[0] * t
    value = slope + c[1]
    slope += value
    for k in range(2, 7):
        value *= t
        value += c[k]
        slope *= t
        slope += value
    value *= t
    value += c[7]
    return value, slope


class SepticHermite:
    """Piecewise septic Hermite interpolant of values y and first, second
    and third derivatives dy, d2y and d3y on the nodes x, a uniform mesh in
    either direction.  Called on abscissae of any shape, it gives (value,
    derivative) there; a point's interval comes from its offset on the
    mesh, with no search, and a point past an end takes the end interval.
    Between nodes it errs by O(h^8) in the value and O(h^7) in the slope.

    Rows: x and the data may be (rows, nodes) arrays, one mesh a row, and
    stack() joins interpolants on meshes of any sizes into one table of
    rows.  An interpolant of rows is called with rows, row indices that
    broadcast against the abscissae (without them, TypeError): one gather
    and one Horner pass read every point on its own row, bit for bit as
    row(k), row k's interpolant alone, reads it.  at(fractions) reads rows
    of one mesh size at fixed fractions of their intervals.
    """

    def __init__(self, x, y, dy, d2y, d3y):
        x = np.asarray(x, dtype=float)
        # from the whole span: a difference of neighbours would carry their
        # rounding to the far nodes
        h = (x[..., -1:] - x[..., :1]) / (x.shape[-1] - 1)
        h2 = h * h
        # h^3 one row at a time, as a float's power rounds it
        h3 = np.array([v ** 3 for v in h.ravel().tolist()]).reshape(h.shape)
        d0, d1 = h * dy[..., :-1], h * dy[..., 1:]
        s0, s1 = h2 * d2y[..., :-1], h2 * d2y[..., 1:]
        g0, g1 = h3 * d3y[..., :-1], h3 * d3y[..., 1:]
        # p(t) on t in [0, 1]: the cubic Taylor part p0 + d0 t + s0 t^2 / 2
        # + g0 t^3 / 6, plus c4 t^4 + ... + c7 t^7 fixed by A, B, C and D,
        # what the cubic part leaves of p(1), p'(1), p''(1) and p'''(1);
        # one column of coefficients per interval, the highest power first
        A = y[..., 1:] - y[..., :-1] - d0 - 0.5 * s0 - g0 / 6.0
        B = d1 - d0 - s0 - 0.5 * g0
        C = s1 - s0 - g0
        D = g1 - g0
        coef = np.array([  # (power, [row,] interval)
            -20.0 * A + 10.0 * B - 2.0 * C + D / 6.0,
            70.0 * A - 34.0 * B + 6.5 * C - 0.5 * D,
            -84.0 * A + 39.0 * B - 7.0 * C + 0.5 * D,
            35.0 * A - 15.0 * B + 2.5 * C - D / 6.0,
            g0 / 6.0, 0.5 * s0, d0, y[..., :-1]])
        x0 = np.atleast_1d(x[..., 0])
        self._table(coef.reshape(8, -1), x0, np.atleast_1d(h[..., 0]),
                    np.full(x0.size, coef.shape[-1]))

    def _table(self, coef, x0, h, count):
        # the rows' intervals lie in turn along the table's second axis
        self._coef, self._x0, self._h, self._count = coef, x0, h, count
        self._first = np.cumsum(count) - count
        return self

    @classmethod
    def stack(cls, parts):
        """One interpolant of the rows of the interpolants parts, in turn."""
        return object.__new__(cls)._table(*(
            np.concatenate([getattr(q, key) for q in parts], axis=-1)
            for key in ("_coef", "_x0", "_h", "_count")))

    def row(self, k):
        """Row k's interpolant alone, on contiguous coefficients of its own
        (a gather from a strided view is slower)."""
        lo, n = self._first[k], self._count[k]
        return object.__new__(SepticHermite)._table(
            np.ascontiguousarray(self._coef[:, lo:lo + n]),
            self._x0[k:k + 1], self._h[k:k + 1], self._count[k:k + 1])

    def at(self, fractions):
        """(value, derivative) at the given fractions of every interval of
        rows of one mesh size, in one Horner pass over the coefficients as
        they lie: arrays of shape (len(fractions), rows, intervals)."""
        t = np.asarray(fractions).reshape(-1, 1)
        value, slope = _horner(self._coef, t)
        shape = (t.size, self._x0.size, -1)
        return value.reshape(shape), slope.reshape(shape) / self._h[:, None]

    def __call__(self, x, rows=None):
        if rows is None:
            if self._x0.size > 1:
                raise TypeError("an interpolant of rows is read with rows")
            rows = 0
        h = self._h[rows]
        t = (np.asarray(x, dtype=float) - self._x0[rows]) / h
        j = np.minimum(np.maximum(np.asarray(t).astype(np.intp), 0),
                       self._count[rows] - 1)
        value, slope = _horner(self._coef.take(j + self._first[rows], axis=1),
                               t - j)
        return value, slope / h


# ---------------------------------------------------------------------------
# Log-space quadrature
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_LOG_QUAD_PANELS = 8          # the cap on a first level's panels
_LOG_QUAD_MAX_PANELS = 1024   # last level: 16384 nodes a row
# nodes in one integrand call: a level whose open rows hold more is split
# into calls of whole rows (at least one row a call, 16400 nodes at most),
# so memory stays bounded however many rows a caller batches; past about
# this size larger calls only add to the peak memory, not to the speed
_LOG_QUAD_MAX_NODES = 8192
_QUAD_TOL_FLOOR = float(np.finfo(float).eps)  # the smallest tol honoured


def _log_quad_nodes(a, b, panels, lead):
    """16-point Gauss-Legendre nodes and weights, each (rows, width), on
    `panels` geometric panels of every row's [a, b]; when the rows lead
    (a = 0), the geometric panels lie on [b/panels, b] below a leading
    panel [0, b/panels].  On a row only a few ulps wide geomspace's edges
    can step back or past b; they are held non-decreasing and at most b,
    so a panel of zero width carries weight 0 (a no-op on any other row)."""
    edges = np.minimum(np.maximum.accumulate(
        np.geomspace(b / panels if lead else a, b, panels + 1).T, axis=1),
        b[:, None])
    if lead:
        edges = np.hstack([np.zeros((a.size, 1)), edges])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * np.diff(edges, axis=1)
    return ((mid[:, :, None] + half[:, :, None] * _GL_X).reshape(a.size, -1),
            (half[:, :, None] * _GL_W).reshape(a.size, -1))


def _log_quad_level(fn_log, a, b, rows, panels):
    """One level on the open rows, which all lead or all do not: per row,
    the sums of f and |f| over its nodes in units of exp(shift), and the
    shift, the largest log among its nonzero nodes (-inf when every node
    is zero).  Each row is summed by numpy's pairwise summation, as a
    call on that row alone would sum it."""
    a, b = a[rows], b[rows]
    x, w = _log_quad_nodes(a, b, panels, a[0] == 0)
    signs, logs = fn_log(x, rows)
    signs = np.broadcast_to(np.asarray(signs, dtype=float), x.shape)
    logs = np.asarray(logs, dtype=float)
    bad = np.isnan(signs) | np.isnan(logs) | (logs == np.inf)
    if np.any(bad):
        k, j = np.argwhere(bad)[0]
        raise QuadratureError(f"integrand is not finite at x = {x[k, j]} "
                              f"on [{a[k]}, {b[k]}]")
    live = (signs != 0) & (logs > -np.inf)
    shift = np.max(np.where(live, logs, -np.inf), axis=1)
    mag = np.zeros_like(w)
    mag[live] = w[live] * np.exp(logs[live] - np.repeat(shift, live.sum(1)))
    return (signs * mag).sum(1), mag.sum(1), shift


def quad_log(fn_log, a, b, tol):
    """Integrals over [a, b], 0 <= a < b < inf, of f = sign * exp(log), one
    a row.

    a and b are scalars or 1-D arrays of one length m >= 1, against which
    a scalar broadcasts (row_count; any other shapes raise
    DomainValidationError naming them); the rows are the intervals, and an
    all-scalar call is one row.
    fn_log(x, rows) maps the nodes x, shape (open rows, nodes), of the rows
    whose indices are `rows` to (signs, logs) of x's shape; a sign of 0 or
    a log of -inf is an exact zero, and signs may be any value that
    broadcasts against x.  Each level of composite 16-point Gauss-Legendre
    on geometric panels calls fn_log once on the nodes of every row still
    open, in groups of one panel count, the rows with a = 0, which carry
    one more panel, in calls of their own (and any group in several calls
    of whole rows past 8192 nodes); a row's nodes depend only on its
    interval and panel count, and its result on nothing else in the batch
    (rows of one interval share their nodes level by level).  Each row is
    summed in units of the largest integrand magnitude among its nodes, so
    neither the integrand nor the integral has to be representable in
    linear space.  A row's first level has the smallest power of two of
    panels at or above its span in e-folds, log(b/a), within [1, 8] (8
    when a = 0), so no first panel is wider than max(1, log(b/a) / 8)
    e-folds; the panel count doubles from level to level up to 1024.  The
    difference of two successive levels, one logsumexp_signed per level,
    is a row's error estimate, and the row closes at the finer level once
    log err <= log tol + log int |f|, in log space throughout (for a
    non-negative f: relative error tol).

    Returns (sign, log|integral|, log error estimate) as three arrays, one
    entry a row; a zero integral is (0, -inf, log error estimate).  A row
    past the last level raises QuadratureError naming its interval, whose
    estimate is the (sign, log|integral|) pair of the finest level and
    whose bound is the log of its error estimate; an integrand that is NaN
    or +inf at a node raises QuadratureError naming the node and its row's
    interval.  A tol below
    machine epsilon, which asks two levels to agree bit for bit, raises
    ToleranceFloorError (carrying tol and that floor) up front.
    """
    n = row_count("quad_log", {"a": a, "b": b})
    a, b = (np.full(n, v, dtype=float) for v in (a, b))
    bad = ~((0 <= a) & (a < b) & (b < math.inf))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainValidationError(
            f"quad_log needs 0 <= a < b < inf, got [{a[k]}, {b[k]}]")
    if not tol >= _QUAD_TOL_FLOOR:
        raise ToleranceFloorError(
            f"quad_log needs tol >= {_QUAD_TOL_FLOOR:.3g}, got tol={tol}",
            tol=tol, floor=_QUAD_TOL_FLOOR, solver="quadrature")
    sign = np.zeros(a.size, dtype=int)
    log_val = np.full(a.size, -math.inf)
    log_err = np.full(a.size, -math.inf)
    # each row's first panel count: the smallest power of two at or above
    # its span in e-folds, log(b/a), within [1, _LOG_QUAD_PANELS]; a row
    # with a = 0 (or a b/a past the double range) has an infinite span and
    # so takes the cap
    with np.errstate(divide="ignore", over="ignore"):
        first = np.clip(np.exp2(np.ceil(np.log2(np.log(b / a)))),
                        1, _LOG_QUAD_PANELS).astype(int)
    # the open rows, grouped by (a > 0, first panel count), those with
    # a = 0 first: every level keeps this order and these groups
    group_key = np.where(a > 0, first, 0)
    rows = np.argsort(group_key, kind="stable")
    prev = None
    level = 0
    log_tol = math.log(tol)
    while rows.size:
        parts = []
        for key in np.unique(group_key[rows]):
            group = rows[group_key[rows] == key]
            panels = int(first[group[0]]) << level
            per_call = max(1, _LOG_QUAD_MAX_NODES // (16 * (panels + 1)))
            parts += [_log_quad_level(fn_log, a, b, group[k:k + per_call],
                                      panels)
                      for k in range(0, group.size, per_call)]
        s, mag, shift = (np.concatenate(v) for v in zip(*parts))
        with np.errstate(divide="ignore"):  # a zero sum has log -inf
            val = np.sign(s), np.log(np.abs(s)) + shift
            log_abs = np.log(mag) + shift
        if prev is not None:
            err = logsumexp_signed([val[0], -prev[0]], [val[1], prev[1]])[1]
            # both sides are -inf when both levels are zero
            done = err <= log_tol + log_abs
            failed = ~done & (first[rows] << level >= _LOG_QUAD_MAX_PANELS)
            if np.any(failed):
                k = int(np.argmax(failed))
                raise QuadratureError(
                    f"log-space quadrature on [{a[rows[k]]}, {b[rows[k]]}] "
                    f"did not reach tolerance {tol} with "
                    f"{first[rows[k]] << level} panels",
                    estimate=(int(val[0][k]), float(val[1][k])),
                    bound=float(err[k]))
            closed = rows[done]
            sign[closed], log_val[closed], log_err[closed] = \
                val[0][done], val[1][done], err[done]
            rows = rows[~done]
            val = tuple(v[~done] for v in val)
        prev = val
        level += 1
    return sign, log_val, log_err


# ---------------------------------------------------------------------------
# Least-squares line fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    max_residual: float


def fit_line(xs, ys):
    """Least-squares line with sup-norm residual."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or xs.size != ys.size:
        raise DomainValidationError("fit_line needs >= 2 paired points")
    if np.ptp(xs) == 0.0:
        raise DomainValidationError("fit_line needs >= 2 distinct abscissae")
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.max(np.abs(ys - A @ coef)))
    return LineFit(slope=float(coef[0]), intercept=float(coef[1]),
                   max_residual=resid)
