"""Shared numerical kernels.

Every kernel is a thin contract over scipy: real-order Bessel functions
J_nu, Y_nu and their derivatives (scipy.special, after Amos, ACM TOMS
Algorithm 644), the real Gamma function and its logarithm, ODE integration
(Hairer's compiled DOP853, one backend with one tolerance floor; a dense
solve rebuilds Hairer's continuous extension from the recorded steps, with
scipy's coefficient table, so its field must accept arrays), composite
Gauss-Legendre quadrature of log-represented integrands, bracketed root
finding (Brent) and line fitting.
The wrappers fix the domains and the error types, so every caller and test
exercises the same surface, and an argument outside a function's domain
raises DomainValidationError instead of returning nan.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from scipy import special
from scipy.integrate import ode
from scipy.integrate._ivp import dop853_coefficients as _DOP
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from .errors import (DomainValidationError, IntegrationError, QuadratureError,
                     RootBracketError, ToleranceFloorError)

# ---------------------------------------------------------------------------
# Represented ranges
# ---------------------------------------------------------------------------


def check_in_range(x, lo, hi, name):
    """The one range rule: DomainValidationError naming `name` and the value
    unless every x lies in [lo, hi], with a slack of 1e-12 |bound| at each
    end.  NaN lies in no range; an empty array passes."""
    x = np.asarray(x, dtype=float)
    a, b = lo - 1e-12 * abs(lo), hi + 1e-12 * abs(hi)
    if x.size and not (x.min() >= a and x.max() <= b):
        bad = x[~((x >= a) & (x <= b))].flat[0]
        raise DomainValidationError(f"{name}={bad} must lie in [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Gamma and Bessel functions of real argument and order
# ---------------------------------------------------------------------------


def gamma_real(x):
    """Gamma(x) for real x away from the poles 0, -1, -2, ...

    Overflows to inf past x ~ 171.6.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainValidationError(f"gamma_real pole at non-positive integer x={x}")
    return float(special.gamma(x))


def lgamma_real(x):
    """log Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainValidationError(f"lgamma_real needs x > 0, got {x}")
    return float(special.gammaln(x))


def bessel_j(nu, x):
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    x may be an array (the result is an array of the same shape); a scalar
    x returns a float.
    """
    if not nu >= 0:
        raise DomainValidationError(f"bessel_j needs nu >= 0, got {nu}")
    x = np.asarray(x, dtype=float)
    bad = x[~(x >= 0)]
    if bad.size:
        raise DomainValidationError(f"bessel_j needs x >= 0, got {bad[0]}")
    out = special.jv(float(nu), x)
    return float(out) if x.ndim == 0 else out


def bessel_y(nu, x):
    """Bessel function of the second kind, real order nu >= 0, x > 0.

    Diverges like x^-nu as x -> 0+ (log for nu = 0); x = 0 is a pole.
    """
    if not nu >= 0:
        raise DomainValidationError(f"bessel_y needs nu >= 0, got {nu}")
    if not x > 0:
        raise DomainValidationError(f"bessel_y has a pole at x = 0 (got x={x})")
    return float(special.yv(float(nu), float(x)))


def _bessel_j_any(nu, x):
    """J_nu(x) for real order of either sign; a negative order needs x > 0."""
    if nu >= 0:
        return bessel_j(nu, x)
    if not x > 0:
        raise DomainValidationError(f"J_nu(x) at order {nu} < 0 needs x > 0, got {x}")
    return float(special.jv(float(nu), float(x)))


def bessel_j_prime(nu, x):
    """d/dx J_nu(x), real order nu; x > 0."""
    if not x > 0:
        raise DomainValidationError("bessel_j_prime needs x > 0")
    return float(special.jvp(float(nu), float(x)))


def bessel_y_prime(nu, x):
    """d/dx Y_nu(x), real order nu; x > 0."""
    if not x > 0:
        raise DomainValidationError("bessel_y_prime needs x > 0")
    return float(special.yvp(float(nu), float(x)))


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------


class DenseSolution:
    """Continuously evaluable ODE solution on a fixed span.

    Carries the accepted steps of the solve (abscissae `steps`, states
    `step_states` as an (n, len(steps)) array) and, as one piecewise
    polynomial, Hairer's order-7 continuous extension of DOP853 on each
    step; the extension passes through the recorded states.  eval(x)
    returns (state, d/dx state); the derivative is recomputed from the
    vector field, so it satisfies the ODE exactly at the interpolated
    state.
    """

    def __init__(self, field, span, steps, step_states):
        self._field = field
        self.span = (float(span[0]), float(span[1]))
        self.steps = steps
        self.step_states = step_states
        # axis=1: the state axis leads the values, as in step_states
        self._poly = PPoly(_continuous_extension(field, steps, step_states),
                           steps, axis=1)

    def eval(self, x):
        y = self.states(x)
        return y, np.asarray(self._field(x, y))

    def states(self, xs):
        """States at abscissae xs of any shape, (n, *xs.shape); a scalar
        gives (n,)."""
        check_in_range(xs, *sorted(self.span), "ODE abscissa")
        return self._poly(xs)


def _stage(field, x, y):
    """The field at abscissae x and states y (n, len(x)), every component
    broadcast to x's shape."""
    return np.array([np.broadcast_to(v, x.shape) for v in field(x, y)],
                    dtype=float)


def _extension_basis(k):
    """Ascending coefficients of t^(k//2 + 1) (1 - t)^((k + 1)//2), the
    polynomial that multiplies F_k in the continuous extension."""
    c = P.polymul(P.polypow([0.0, 1.0], k // 2 + 1),
                  P.polypow([1.0, -1.0], (k + 1) // 2))
    return np.pad(c, (0, 8 - c.size))


# (power of t, k): the extension minus y0 is sum_k F_k basis_k(t)
_EXTENSION_POWERS = np.stack([_extension_basis(k) for k in range(7)], axis=1)


def _continuous_extension(field, steps, step_states):
    """PPoly coefficients (n, 8, len(steps) - 1) of Hairer's continuous
    extension of DOP853 on each recorded step, with the F_k that
    solve_ivp's Dop853DenseOutput builds.

    The stages of every step are recomputed from its start, one array call
    of the field per stage: the 12 of the step, f at the recorded end, and
    the 3 extra stages of the extension.  delta_y = F_0 is the difference
    of the recorded states, so each polynomial runs from its step's start
    state to its end state.  In the step fraction t = (x - x0) / h the
    extension is

        y0 + F0 t + F1 t (1-t) + F2 t^2 (1-t) + F3 t^2 (1-t)^2 + ...
           + F6 t^4 (1-t)^3,

    solve_ivp's nested form expanded, here into powers of x - x0.
    """
    h = np.diff(steps)
    x0, y0, y1 = steps[:-1], step_states[:, :-1], step_states[:, 1:]
    K = np.empty((_DOP.N_STAGES_EXTENDED, *y0.shape))
    for s in range(_DOP.N_STAGES_EXTENDED):
        if s == _DOP.N_STAGES:
            K[s] = _stage(field, steps[1:], y1)
        else:
            K[s] = _stage(field, x0 + _DOP.C[s] * h,
                          y0 + h * np.tensordot(_DOP.A[s, :s], K[:s], 1))
    dy = y1 - y0
    F = np.stack([dy, h * K[0] - dy, 2.0 * dy - h * (K[_DOP.N_STAGES] + K[0]),
                  *(h * np.tensordot(_DOP.D, K, 1))])
    a = np.tensordot(_EXTENSION_POWERS, F, 1)
    a[0] = y0
    powers = np.arange(7, -1, -1)[:, None, None]
    return (a[::-1] / h ** powers).transpose(1, 0, 2)


# the smallest tolerance the compiled DOP853 honours: 10 eps
_TOL_FLOOR = 10.0 * float(np.finfo(float).eps)
_NO_STEP_BUDGET = 2**31 - 1  # the largest int32 step cap: no budget


# The compiled runner leaks a reference to each callable it is handed, so it
# gets module-level ones only.  The field and a dense solve's step log ride
# as extra arguments, which the runner passes to the field and to the step
# callback alike.
def _call_field(x, y, field, log):
    return field(x, y)


def _record_step(x, y, field, log):
    log.append((x, y.copy()))  # y is the runner's work array
    return 1


def _continue(x, y, field, log):
    return 1


class _StepLog(list):
    """The accepted steps of one dense solve, as (x, state) pairs."""


def integrate_ode(field, span, y0, tol, dense=True):
    """Adaptive explicit integration: DOP853, the 8(5,3) Runge-Kutta pair
    of Dormand and Prince with Hairer's error norm and step control, run
    by Hairer's compiled code (scipy.integrate.ode), so no Python runs per
    step beyond the field and a one-line step callback.

    Local error per unit step is controlled at `tol`, as rtol = tol and
    atol = tol / 100, with no step budget and no stiffness interrupt; the
    span may run backward.  A tol below the floor 10 eps raises
    ToleranceFloorError (a DomainValidationError carrying tol and the
    floor); step-size underflow raises IntegrationError carrying the
    failure location.

    Returns a DenseSolution on `span`, rebuilt from the recorded steps
    after the solve; its field must then accept an array of abscissae with
    states of shape (n, len(x)).  With dense=False it returns only the
    state at span[1], as an array, and the field sees scalars only.
    """
    if not tol >= _TOL_FLOOR:
        raise ToleranceFloorError(
            f"integrate_ode needs tol >= {_TOL_FLOOR:.3g}, got tol={tol}",
            tol=tol, floor=_TOL_FLOOR, solver="ODE")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    solver = ode(_call_field).set_integrator(
        "dop853", rtol=tol, atol=tol * 1e-2, nsteps=_NO_STEP_BUDGET)
    log = _StepLog()
    solver.set_f_params(field, log).set_initial_value(y0, span[0])
    dop = solver._integrator
    dop.iwork[3] = -1  # Hairer's IWORK(4) < 0: no stiffness test
    # IOUT = 1: the callback runs after every accepted step.  It also keeps
    # the field-call count of a solve the same from run to run, which it is
    # not at IOUT = 0.
    dop.call_args[2:4] = (_record_step if dense else _continue), 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # raised below instead
        y = solver.integrate(span[1])
    code = solver.get_return_code()
    if code < 0:
        raise IntegrationError(
            f"integration failed near x = {solver.t}: "
            f"{dop.messages.get(code, f'istate {code}')}", location=solver.t)
    if not dense:
        return y
    return DenseSolution(field, span, np.array([x for x, _ in log]),
                         np.array([s for _, s in log]).T)


# ---------------------------------------------------------------------------
# Log-space quadrature
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_LOG_QUAD_PANELS = 8          # panels of the first level
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
    panel [0, b/panels]."""
    edges = np.geomspace(b / panels if lead else a, b, panels + 1).T
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
    """Integrals over [a, b], 0 <= a < b, of f = sign * exp(log), for one
    interval or a batch of them.

    a and b are scalars or 1-D arrays of m intervals (broadcast against
    each other); the rows are the intervals.  fn_log(x, rows) maps the
    nodes x, shape (open rows, nodes), of the rows whose indices are
    `rows` to (signs, logs) of x's shape; a sign of 0 or a log of -inf is
    an exact zero, and signs may be any value that broadcasts against x.
    Each level of composite 16-point Gauss-Legendre on geometric panels
    calls fn_log once on the nodes of every row still open, the rows with
    a = 0, which carry one more panel, in calls of their own (and either
    kind in several calls of whole rows past 8192 nodes); a row has the
    same nodes, the same panels and the same result whatever else is in
    the batch.  Each row is summed in units of the largest integrand
    magnitude among its nodes, so neither the integrand nor the integral
    has to be representable in linear space.  The panel count doubles
    from level to level; the difference of two successive levels is a
    row's error estimate, and the row closes at the finer level once that
    difference is at most tol times the integral of |f| (for a
    non-negative f: relative error tol).

    Returns (sign, log|integral|, log error estimate), as a scalar triple
    for scalar a and b and as three arrays otherwise; a zero integral is
    (0, -inf, log error estimate).  A row past the last level raises
    QuadratureError naming its interval, whose estimate is the (sign,
    log|integral|) pair of the finest level and whose bound is the log of
    its error estimate; an integrand that is NaN or +inf at a node raises
    QuadratureError naming the node and its row's interval.  A tol below
    machine epsilon, which asks two levels to agree bit for bit, raises
    ToleranceFloorError (carrying tol and that floor) up front.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = (np.array(v, dtype=float).ravel()
            for v in np.broadcast_arrays(a, b))
    bad = ~((0 <= a) & (a < b))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainValidationError(
            f"quad_log needs 0 <= a < b, got [{a[k]}, {b[k]}]")
    if not tol >= _QUAD_TOL_FLOOR:
        raise ToleranceFloorError(
            f"quad_log needs tol >= {_QUAD_TOL_FLOOR:.3g}, got tol={tol}",
            tol=tol, floor=_QUAD_TOL_FLOOR, solver="quadrature")
    sign = np.zeros(a.size, dtype=int)
    log_val = np.full(a.size, -math.inf)
    log_err = np.full(a.size, -math.inf)
    # the open rows, those with a = 0 first: every level keeps this order
    rows = np.argsort(a > 0, kind="stable")
    prev = None
    panels = _LOG_QUAD_PANELS
    while rows.size:
        leads = np.count_nonzero(a[rows] == 0)
        per_call = max(1, _LOG_QUAD_MAX_NODES // (16 * (panels + 1)))
        parts = [_log_quad_level(fn_log, a, b, group[k:k + per_call], panels)
                 for group in (rows[:leads], rows[leads:])
                 for k in range(0, group.size, per_call)]
        level = [np.concatenate(v) for v in zip(*parts)]
        if prev is not None:
            done = np.zeros(rows.size, dtype=bool)
            for k, (row, s, mag, shift, s_prev, shift_prev) in enumerate(zip(
                    rows.tolist(), *(v.tolist() for v in (*level, *prev)))):
                top = max(shift, shift_prev)
                if top == -math.inf:  # zero on both levels
                    done[k] = True
                    continue
                val = s * math.exp(shift - top)
                err = abs(val - s_prev * math.exp(shift_prev - top))
                row_err = math.log(err) + top if err > 0 else -math.inf
                row_sign = (val > 0) - (val < 0)
                row_val = math.log(abs(val)) + top if row_sign else -math.inf
                if err <= tol * mag * math.exp(shift - top):
                    sign[row], log_val[row], log_err[row] = \
                        row_sign, row_val, row_err
                    done[k] = True
                elif panels >= _LOG_QUAD_MAX_PANELS:
                    raise QuadratureError(
                        f"log-space quadrature on [{a[row]}, {b[row]}] did "
                        f"not reach tolerance {tol} with {panels} panels",
                        estimate=(row_sign, row_val), bound=row_err)
            rows = rows[~done]
            level = [v[~done] for v in level]
        prev = (level[0], level[2])
        panels *= 2
    if scalar:
        return int(sign[0]), float(log_val[0]), float(log_err[0])
    return sign, log_val, log_err


# ---------------------------------------------------------------------------
# Bracketed root finding
# ---------------------------------------------------------------------------


def find_root_bracketed(f, a, b, tol):
    """Root in [a, b] given a sign change; guaranteed convergence."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if fa * fb > 0:
        raise RootBracketError(
            f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    return float(brentq(f, a, b, xtol=tol, rtol=4.0 * np.finfo(float).eps,
                        maxiter=200))


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
