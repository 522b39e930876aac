"""Shared numerical kernels.

Every kernel is a thin contract over scipy: real-order Bessel functions
J_nu, Y_nu and their derivatives (scipy.special, after Amos, ACM TOMS
Algorithm 644), the real Gamma function and its logarithm, ODE integration
(DOP853 under one tolerance contract, with two backends: Hairer's compiled
code when only the endpoint is needed, solve_ivp's port for dense output),
adaptive quadrature (QUADPACK) of linear integrands and composite
Gauss-Legendre quadrature of log-represented ones, bracketed root finding
(Brent) and line fitting.
The wrappers fix the domains and the error types, so every caller and test
exercises the same surface, and an argument outside a function's domain
raises DomainValidationError instead of returning nan.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad as _scipy_quad
from scipy.integrate import ode, solve_ivp
from scipy.optimize import brentq

from .errors import (DomainValidationError, IntegrationError, QuadratureError,
                     RootBracketError)

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

    eval(x) returns (state, d/dx state); the derivative is recomputed from
    the vector field, so it satisfies the ODE exactly at the interpolated
    state.
    """

    def __init__(self, field, sol, span):
        self._field = field
        self._sol = sol
        self.span = (float(span[0]), float(span[1]))

    def eval(self, x):
        check_in_range(x, *sorted(self.span), "ODE abscissa")
        y = self._sol(x)
        return y, np.asarray(self._field(x, y))

    def states(self, xs):
        """Vectorized state evaluation on an array of abscissae."""
        check_in_range(xs, *sorted(self.span), "ODE abscissa")
        return self._sol(np.asarray(xs, dtype=float))


_EPS = float(np.finfo(float).eps)
_NO_STEP_BUDGET = 2**31 - 1  # the largest int32 step cap: no budget


def _call_field(x, y, field):
    return field(x, y)


def _no_dense_output(x, y):
    return 1


def integrate_ode(field, span, y0, tol, dense=True):
    """Adaptive explicit integration: DOP853, the 8(5,3) Runge-Kutta pair
    of Dormand and Prince with Hairer's error norm and step control.

    Local error per unit step is controlled at `tol`, as rtol = tol and
    atol = tol / 100, with no step budget and no stiffness interrupt; the
    span may run backward.  Returns a DenseSolution on `span`; with
    dense=False it returns only the state at span[1], as an array.

    One contract, two backends.  The endpoint-only solve runs Hairer's
    compiled DOP853 (scipy.integrate.ode), so no Python runs per step
    beyond the field.  The dense solve runs solve_ivp's Python port of
    the same method, because scipy exposes the continuous extension
    (Hairer's CONTD8) only there.  Their step-size controllers differ in
    detail, so the two endpoints agree within the tolerance, not bitwise.
    Each backend honours tolerances down to its own floor, 10 eps compiled
    and 100 eps in solve_ivp (which raises a smaller rtol to it with only
    a warning); a smaller tol raises DomainValidationError.  Step-size
    underflow raises IntegrationError carrying the failure location.
    """
    floor = (100.0 if dense else 10.0) * _EPS
    if not tol >= floor:
        raise DomainValidationError(
            f"integrate_ode needs tol >= {floor:.3g} "
            f"({'dense' if dense else 'endpoint-only'} solve), got tol={tol}")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if dense:
        res = solve_ivp(field, span, y0, method="DOP853", rtol=tol,
                        atol=tol * 1e-2, dense_output=True)
        if res.status != 0 or not res.success:
            loc = res.t[-1] if res.t.size else span[0]
            raise IntegrationError(
                f"integration failed near x = {loc}: {res.message}",
                location=loc)
        return DenseSolution(field, res.sol, span)
    solver = ode(_call_field).set_integrator(
        "dop853", rtol=tol, atol=tol * 1e-2, nsteps=_NO_STEP_BUDGET)
    solver.set_f_params(field).set_initial_value(y0, span[0])
    dop = solver._integrator
    dop.iwork[3] = -1  # Hairer's IWORK(4) < 0: no stiffness test
    # the compiled runner leaks a reference to each callable it is handed,
    # so it gets module-level ones: the field rides as an extra argument,
    # and the dense-output callback (never called at iout = 0) replaces the
    # integrator's bound method, which would keep the integrator alive
    dop.call_args[2] = _no_dense_output
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # raised below instead
        y = solver.integrate(span[1])
    code = solver.get_return_code()
    if code < 0:
        raise IntegrationError(
            f"integration failed near x = {solver.t}: "
            f"{dop.messages.get(code, f'istate {code}')}", location=solver.t)
    return y


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------


def quad_adaptive_err(f, a, b, tol):
    """Adaptive quadrature returning (value, error bound)."""
    if not a < b:
        raise DomainValidationError(
            f"quad_adaptive_err needs a < b, got [{a}, {b}]")
    if not tol > 0:
        raise DomainValidationError("quad_adaptive_err needs tol > 0")
    out = _scipy_quad(f, a, b, epsabs=tol, epsrel=tol, limit=300, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3:  # an explanation message is present: budget exhausted
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: {out[3]}",
            estimate=val, bound=err)
    if not (err <= tol * max(1.0, abs(val)) * 10.0):
        raise QuadratureError(
            f"quadrature error bound {err} exceeds requested tolerance {tol}",
            estimate=val, bound=err)
    return val, err


# ---------------------------------------------------------------------------
# Log-space quadrature
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_LOG_QUAD_PANELS = 8          # panels of the first level
_LOG_QUAD_MAX_PANELS = 1024   # last level: 16384 nodes


def _log_quad_nodes(a, b, panels):
    """16-point Gauss-Legendre nodes and weights on `panels` geometric
    panels of [a, b]; for a = 0 the geometric panels cover [b/panels, b]
    below a leading panel [0, b/panels]."""
    if a > 0:
        edges = np.geomspace(a, b, panels + 1)
    else:
        edges = np.concatenate([[0.0], np.geomspace(b / panels, b, panels + 1)])
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


def quad_log(fn_log, a, b, tol):
    """Integral over [a, b], 0 <= a < b, of f = sign * exp(log).

    fn_log(x) maps an array of nodes to (signs, logs); a sign of 0 or a log
    of -inf is an exact zero, and signs may be any value that broadcasts
    against x.  Each level of composite 16-point Gauss-Legendre on
    geometric panels calls fn_log once on all its nodes and sums in units
    of the largest integrand magnitude among them, so neither the
    integrand nor the integral has to be representable in linear space.
    The panel count doubles from level to level; the difference of two
    successive levels is the error estimate, and the finer level is
    accepted once that difference is at most tol times the integral of
    |f| (for a non-negative f: relative error tol).

    Returns (sign, log|integral|, log error estimate); a zero integral is
    (0, -inf, log error estimate).  Past the last level raises
    QuadratureError whose estimate is the (sign, log|integral|) pair of
    the finest level and whose bound is the log of its error estimate.
    """
    if not 0 <= a < b:
        raise DomainValidationError(f"quad_log needs 0 <= a < b, got [{a}, {b}]")
    if not tol > 0:
        raise DomainValidationError("quad_log needs tol > 0")
    prev = None
    panels = _LOG_QUAD_PANELS
    while True:
        x, w = _log_quad_nodes(a, b, panels)
        signs, logs = fn_log(x)
        signs = np.broadcast_to(np.asarray(signs, dtype=float), x.shape)
        logs = np.asarray(logs, dtype=float)
        bad = np.isnan(signs) | np.isnan(logs) | (logs == np.inf)
        if np.any(bad):
            raise QuadratureError(
                f"integrand is not finite at x = {x[bad][0]} on [{a}, {b}]")
        live = (signs != 0) & (logs > -np.inf)
        shift = -math.inf
        mag = np.zeros_like(w)
        if np.any(live):
            shift = float(np.max(logs[live]))
            mag[live] = w[live] * np.exp(logs[live] - shift)
        level = (float(np.sum(signs * mag)), float(np.sum(mag)), shift)
        if prev is not None:
            top = max(shift, prev[2])
            if top == -math.inf:
                return 0, -math.inf, -math.inf
            val = level[0] * math.exp(shift - top)
            err = abs(val - prev[0] * math.exp(prev[2] - top))
            log_err = math.log(err) + top if err > 0 else -math.inf
            sign = (val > 0) - (val < 0)
            log_val = math.log(abs(val)) + top if sign else -math.inf
            if err <= tol * level[1] * math.exp(shift - top):
                return sign, log_val, log_err
            if panels >= _LOG_QUAD_MAX_PANELS:
                raise QuadratureError(
                    f"log-space quadrature on [{a}, {b}] did not reach "
                    f"tolerance {tol} with {panels} panels",
                    estimate=(sign, log_val), bound=log_err)
        prev = level
        panels *= 2


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
