import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from support import (J0_FIRST_ZERO, oracle_besselj, oracle_bessely,
                     oracle_gamma, oracle_j0_first_zero)

from hornlab import (DomainValidationError, IntegrationError, QuadratureError,
                     RootBracketError, bessel_j, bessel_j_prime, bessel_y,
                     bessel_y_prime, check_in_range, find_root_bracketed,
                     fit_line, gamma_real, integrate_ode, quad_adaptive_err,
                     quad_log)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------


def test_gamma_accuracy():
    for x in np.linspace(0.05, 29.95, 120):
        assert gamma_real(float(x)) == pytest.approx(oracle_gamma(x),
                                                     rel=1e-12)


def test_gamma_poles():
    with pytest.raises(DomainValidationError):
        gamma_real(0.0)
    with pytest.raises(DomainValidationError):
        gamma_real(-3.0)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_j_trivial_and_half_integer():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    x = math.pi / 2
    assert bessel_j(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_bessel_j_first_zero():
    # frozen from the high-precision series oracle
    assert oracle_j0_first_zero() == pytest.approx(J0_FIRST_ZERO, abs=1e-14)
    assert abs(bessel_j(0.0, J0_FIRST_ZERO)) <= 1e-10


def test_bessel_y_half_integer():
    assert bessel_y(0.5, math.pi / 2) == pytest.approx(0.0, abs=1e-13)
    assert bessel_y(0.5, math.pi) == pytest.approx(math.sqrt(2.0) / math.pi,
                                                   rel=1e-12)


def test_bessel_y_pole_direction():
    # Y_1 diverges to -infinity like -2/(pi x)
    val = bessel_y(1.0, 1e-6)
    assert val == pytest.approx(-2.0 / (math.pi * 1e-6), rel=1e-5)
    with pytest.raises(DomainValidationError):
        bessel_y(1.0, 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.375, 3.0, 5.0, 11.5, 20.0,
                                3.000001, 0.9999998])
def test_bessel_accuracy_contract(nu):
    # relative error <= 1e-10 over the stated (nu, x) range
    for x in np.geomspace(0.08, 100.0, 23):
        ref_j = oracle_besselj(nu, float(x))
        assert bessel_j(nu, float(x)) == pytest.approx(
            ref_j, rel=1e-10, abs=1e-280)
        ref_y = oracle_bessely(nu, float(x))
        assert bessel_y(nu, float(x)) == pytest.approx(
            ref_y, rel=1e-10, abs=1e-280)


def test_bessel_small_x_power_behaviour():
    # J_nu(x) ~ (x/2)^nu / Gamma(nu+1) as x -> 0
    nu = 1.375
    for x in (1e-4, 1e-3):
        lead = (x / 2.0) ** nu / oracle_gamma(nu + 1.0)
        assert bessel_j(nu, x) == pytest.approx(lead, rel=1e-6)


def test_bessel_wronskian_invariant():
    for nu in (0.0, 0.5, 1.375, 5.0):
        for x in (0.1, 0.7, 2.0, 7.0, 20.0, 50.0):
            w = bessel_j(nu, x) * bessel_y_prime(nu, x) \
                - bessel_j_prime(nu, x) * bessel_y(nu, x)
            assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-8)


def test_bessel_recurrence_invariant():
    from hornlab.numerics import _bessel_j_any
    for nu in (0.5, 1.375, 5.0):
        for x in (0.1, 0.7, 2.0, 7.0, 20.0, 50.0):
            lhs = _bessel_j_any(nu - 1.0, x) + bessel_j(nu + 1.0, x)
            rhs = (2.0 * nu / x) * bessel_j(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-280)


def test_bessel_j_array_matches_scalar():
    xs = np.array([0.0, 1e-9, 0.3, 2.0, 17.5])
    got = bessel_j(1.375, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    for x, g in zip(xs.tolist(), got.tolist()):
        one = bessel_j(1.375, x)
        assert isinstance(one, float)
        assert one == g
    with pytest.raises(DomainValidationError):
        bessel_j(1.375, np.array([0.5, -1e-3]))


def test_bessel_domain_errors():
    with pytest.raises(DomainValidationError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(DomainValidationError):
        bessel_j(0.5, -1.0)
    with pytest.raises(DomainValidationError):
        bessel_y(0.5, -1.0)


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------


def test_ode_exponential():
    sol = integrate_ode(lambda x, y: y, (0.0, 1.0), [1.0], 1e-10)
    y, dy = sol.eval(1.0)
    assert y[0] == pytest.approx(math.e, abs=1e-9)
    assert dy[0] == pytest.approx(y[0], rel=1e-12)


def test_ode_sine():
    sol = integrate_ode(lambda x, y: [y[1], -y[0]], (0.0, math.pi),
                        [0.0, 1.0], 1e-10)
    assert sol.eval(math.pi)[0][0] == pytest.approx(0.0, abs=1e-8)
    assert sol.eval(math.pi / 2)[0][0] == pytest.approx(1.0, rel=1e-9)


def test_ode_growing_branch():
    # y'' = 4y with data matching exp(2x): the stiff-side regime of the
    # tip equation when the spherical eigenvalue dominates
    sol = integrate_ode(lambda x, y: [y[1], 4.0 * y[0]], (0.0, 3.0),
                        [1.0, 2.0], 1e-10)
    assert sol.eval(3.0)[0][0] == pytest.approx(math.exp(6.0), rel=1e-8)


def test_ode_trig_exp_accuracy_scaling():
    # y'' = lam y reproduces exp/trig with relative error <= 100 * tol
    # over spans of length <= 10
    tol = 1e-10
    sol = integrate_ode(lambda x, y: [y[1], y[0]], (0.0, 10.0), [1.0, 1.0], tol)
    assert sol.eval(10.0)[0][0] == pytest.approx(math.exp(10.0),
                                                 rel=100 * tol)
    sol = integrate_ode(lambda x, y: [y[1], -y[0]], (0.0, 10.0), [1.0, 0.0], tol)
    assert sol.eval(10.0)[0][0] == pytest.approx(math.cos(10.0),
                                                 rel=100 * tol)


def test_ode_endpoint_only_matches_dense():
    # the compiled endpoint-only solve and the dense solve both reach the
    # exact state within 100 tol, agree with each other as closely, and the
    # endpoint-only solve spends fewer field evaluations
    tol = 1e-10
    calls = {"dense": 0, "end": 0}

    def field(key):
        def fld(x, y):
            calls[key] += 1
            return [y[1], -y[0]]
        return fld

    sol = integrate_ode(field("dense"), (0.0, 10.0), [1.0, 0.0], tol)
    end = integrate_ode(field("end"), (0.0, 10.0), [1.0, 0.0], tol,
                        dense=False)
    assert isinstance(end, np.ndarray) and end.shape == (2,)
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    dense_end = sol.states(np.array([10.0]))[:, 0]
    assert np.allclose(end, exact, rtol=0.0, atol=100 * tol)
    assert np.allclose(dense_end, exact, rtol=0.0, atol=100 * tol)
    assert np.allclose(end, dense_end, rtol=0.0, atol=100 * tol)
    assert calls["end"] < calls["dense"]


def test_ode_endpoint_only_backward_span():
    # a decreasing span, as tip_anchor integrates from s_far down to s_lo
    tol = 1e-10
    end = integrate_ode(lambda x, y: [y[1], -y[0]], (10.0, 0.5),
                        [math.cos(10.0), -math.sin(10.0)], tol, dense=False)
    assert np.allclose(end, [math.cos(0.5), -math.sin(0.5)], rtol=0.0,
                       atol=100 * tol)


def test_ode_endpoint_only_has_no_stiffness_interrupt():
    # about 3200 accepted steps held at the stability limit: Hairer's
    # stiffness test would stop this solve after 1000, the dense backend
    # has none, and the contract has no step budget
    lam, tol = 1e5, 1e-6
    end = integrate_ode(lambda x, y: [-lam * (y[0] - math.cos(x))],
                        (0.0, 0.2), [1.0], tol, dense=False)
    exact = ((lam * lam * math.cos(0.2) + lam * math.sin(0.2)
              + math.exp(-lam * 0.2)) / (lam * lam + 1.0))
    assert end[0] == pytest.approx(exact, abs=100 * tol)


def test_ode_endpoint_only_keeps_nothing_alive():
    # scipy's compiled runner leaks a reference to each callable it is
    # handed; neither the field nor the integrator may outlive the solve
    from scipy.integrate._ode import dop853

    class Field:
        def __call__(self, x, y):
            return [y[1], -y[0]]

    def integrators():
        gc.collect()
        return sum(isinstance(o, dop853) for o in gc.get_objects())

    before = integrators()
    fld = Field()
    ref = weakref.ref(fld)
    for _ in range(10):
        integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 1e-10, dense=False)
    del fld
    assert integrators() == before
    assert ref() is None


@pytest.mark.parametrize("dense, floor", [(True, 100), (False, 10)])
def test_ode_tolerance_floor_is_refused(dense, floor):
    # each backend honours tolerances down to its floor in units of eps
    # and refuses a smaller one instead of clamping it
    eps = np.finfo(float).eps
    fld = lambda x, y: [y[1], -y[0]]  # noqa: E731
    integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], floor * eps, dense=dense)
    with pytest.raises(DomainValidationError, match="tol="):
        integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 0.9 * floor * eps,
                      dense=dense)


def test_ode_initial_condition_and_span():
    sol = integrate_ode(lambda x, y: y, (0.0, 1.0), [2.0], 1e-10)
    assert sol.eval(0.0)[0][0] == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainValidationError):
        sol.eval(1.5)
    with pytest.raises(DomainValidationError):
        sol.eval(-0.1)


def test_check_in_range_rule():
    # slack 1e-12 |bound| at each end, none at a zero bound; NaN fails,
    # an empty array passes, and the error names the value and the range
    check_in_range(np.array([]), 1.0, 2.0, "x")
    check_in_range(np.array([1.0 - 5e-13, 2.0 + 1e-12]), 1.0, 2.0, "x")
    check_in_range(0.0, 0.0, 1.0, "x")
    for bad in (1.0 - 2e-12, 2.0 + 3e-12, np.nan):
        with pytest.raises(DomainValidationError):
            check_in_range(np.array([1.5, bad, 1.5]), 1.0, 2.0, "x")
    with pytest.raises(DomainValidationError, match=r"^x=nan must lie in"):
        check_in_range(float("nan"), 1.0, 2.0, "x")
    with pytest.raises(DomainValidationError, match=r"r0=3\.0 .*\[1\.0, 2\.0\]"):
        check_in_range([1.5, 3.0], 1.0, 2.0, "r0")
    with pytest.raises(DomainValidationError):
        check_in_range(-1e-300, 0.0, 1.0, "x")


def test_ode_failure_reports_location():
    # finite-time blowup: step size underflows near x = 1
    with pytest.raises(IntegrationError) as err:
        integrate_ode(lambda x, y: y * y, (0.0, 2.0), [1.0], 1e-10)
    assert err.value.location is not None
    assert 0.9 <= err.value.location <= 2.0


def test_ode_endpoint_only_failure_reports_location():
    # the compiled backend's failure is an IntegrationError at the failure
    # location, and its UserWarning does not escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            integrate_ode(lambda x, y: y * y, (0.0, 2.0), [1.0], 1e-10,
                          dense=False)
    assert 0.9 <= err.value.location <= 2.0


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_quad_polynomial():
    assert quad_adaptive_err(lambda x: x * x, 0.0, 1.0, 1e-12)[0] == \
        pytest.approx(1.0 / 3.0, rel=1e-12)


def test_quad_gaussian_moment_mapped():
    # int_0^inf exp(-s^2) s^c ds = Gamma((c+1)/2) / 2, mapped to (0, 1)
    # by s = u/(1-u) with explicit Jacobian
    c = 3.75

    def mapped(u):
        s = u / (1.0 - u)
        return math.exp(-s * s) * s ** c / (1.0 - u) ** 2

    val = quad_adaptive_err(mapped, 0.0, 1.0 - 1e-12, 1e-10)[0]
    assert val == pytest.approx(oracle_gamma((c + 1.0) / 2.0) / 2.0, rel=1e-8)


def test_quad_endpoint_singularity():
    assert quad_adaptive_err(lambda x: x ** -0.5, 0.0, 1.0, 1e-10)[0] == \
        pytest.approx(2.0, rel=1e-9)


def test_quad_error_bound_honest():
    cases = [
        (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: math.sin(x), 0.0, math.pi, 2.0),
        (lambda x: x ** -0.5, 0.0, 1.0, 2.0),
    ]
    for f, a, b, exact in cases:
        val, bound = quad_adaptive_err(f, a, b, 1e-10)
        assert abs(val - exact) <= max(bound, 1e-15)


def test_quad_rejects_bad_interval():
    with pytest.raises(DomainValidationError):
        quad_adaptive_err(lambda x: x, 1.0, 0.0, 1e-8)


def test_quad_budget_exhaustion_carries_estimate():
    # highly oscillatory near 0: subdivision budget runs out
    f = lambda x: math.sin(1.0 / x) / x
    with pytest.raises(QuadratureError) as err:
        quad_adaptive_err(f, 1e-8, 1.0, 1e-13)
    assert err.value.estimate is not None
    assert err.value.bound is not None


# ---------------------------------------------------------------------------
# Log-space quadrature
# ---------------------------------------------------------------------------


def test_quad_log_polynomial_from_zero():
    # a = 0 takes the leading panel [0, first edge]
    sign, log_val, log_err = quad_log(lambda x: (1.0, 2.0 * np.log(x)),
                                      0.0, 1.0, 1e-12)
    assert sign == 1
    assert log_val == pytest.approx(math.log(1.0 / 3.0), rel=1e-12)
    assert log_err < math.log(1e-12 / 3.0)


def test_quad_log_gaussian_moment():
    # int_0^inf exp(-s^2) s^c ds = Gamma((c+1)/2) / 2; the tail past 12 is
    # below exp(-140), and the integrand carries an offset of exp(-900),
    # far below the double range
    c = 3.75
    sign, log_val, _ = quad_log(
        lambda s: (1.0, -s * s + c * np.log(s) - 900.0), 0.0, 12.0, 1e-12)
    assert sign == 1
    exact = math.log(oracle_gamma((c + 1.0) / 2.0) / 2.0) - 900.0
    assert log_val - exact == pytest.approx(0.0, abs=1e-12)


def test_quad_log_signed_cancellation():
    # int_0^(10 pi + 1) cos x dx = sin 1, against int |cos x| dx ~ 20.8
    b = 10.0 * math.pi + 1.0
    sign, log_val, log_err = quad_log(
        lambda x: (np.sign(np.cos(x)), np.log(np.abs(np.cos(x))) + 800.0),
        0.0, b, 1e-12)
    assert sign == 1
    assert log_val - 800.0 == pytest.approx(math.log(math.sin(1.0)),
                                            abs=1e-11)
    assert log_err - 800.0 < math.log(1e-12 * 21.0)
    sign, log_val, _ = quad_log(
        lambda x: (-np.sign(np.cos(x)), np.log(np.abs(np.cos(x)))),
        0.0, b, 1e-12)
    assert sign == -1
    assert log_val == pytest.approx(math.log(math.sin(1.0)), abs=1e-11)


def test_quad_log_zero_integrand():
    assert quad_log(lambda x: (1.0, np.full_like(x, -np.inf)),
                    0.0, 1.0, 1e-12) == (0, -math.inf, -math.inf)
    assert quad_log(lambda x: (np.zeros_like(x), np.zeros_like(x)),
                    0.5, 1.0, 1e-12) == (0, -math.inf, -math.inf)


def test_quad_log_narrow_peak_not_clipped():
    # f(r) = r^20 exp(-r/1e-5) peaks at r = 2e-4 with a relative width of
    # ~20%.  An evenly spaced probe of [1e-6, 1] steps over the peak, and
    # a shift taken from that probe with the exponent clipped at 50 loses
    # a factor ~exp(34); the node maximum of each level cannot miss it.
    sign, log_val, _ = quad_log(
        lambda r: (1.0, 20.0 * np.log(r) - r / 1e-5), 1e-6, 1.0, 1e-12)
    exact = math.lgamma(21.0) + 21.0 * math.log(1e-5)
    assert exact == pytest.approx(-199.43582, abs=1e-5)
    assert sign == 1
    assert log_val == pytest.approx(exact, abs=1e-10)


def test_quad_log_rejects_bad_arguments():
    f = lambda x: (1.0, np.zeros_like(x))
    for a, b in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(DomainValidationError):
            quad_log(f, a, b, 1e-8)
    for tol in (0.0, -1e-8):
        with pytest.raises(DomainValidationError):
            quad_log(f, 0.0, 1.0, tol)


def test_quad_log_nonfinite_integrand():
    with pytest.raises(QuadratureError):
        quad_log(lambda x: (1.0, np.where(x > 0.5, np.nan, 0.0)),
                 0.0, 1.0, 1e-8)


def test_quad_log_budget_exhaustion_carries_estimate():
    # sin(1/x)/x oscillates unresolvably near 0: the panel cap is reached
    def f(x):
        v = np.sin(1.0 / x) / x
        return np.sign(v), np.log(np.abs(v))

    with pytest.raises(QuadratureError) as err:
        quad_log(f, 1e-8, 1.0, 1e-10)
    sign, log_val = err.value.estimate
    assert sign in (-1, 0, 1)
    assert math.isfinite(log_val)
    assert err.value.bound is not None


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def test_root_sqrt2():
    assert find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12) == \
        pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_root_bessel_zero():
    root = find_root_bracketed(lambda x: bessel_j(0.0, x), 2.0, 3.0, 1e-12)
    assert root == pytest.approx(J0_FIRST_ZERO, abs=1e-10)


def test_root_cosine():
    assert find_root_bracketed(math.cos, 0.0, 2.0, 1e-12) == \
        pytest.approx(math.pi / 2, rel=1e-12)


def test_root_requires_sign_change():
    with pytest.raises(RootBracketError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)


# ---------------------------------------------------------------------------
# Line fit
# ---------------------------------------------------------------------------


def test_fit_line_exact():
    fit = fit_line([0.0, 1.0], [0.0, 1.0])
    assert (fit.slope, fit.intercept) == (pytest.approx(1.0), pytest.approx(0.0))
    assert fit.max_residual == pytest.approx(0.0, abs=1e-15)
    fit = fit_line([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-15)
    assert fit.intercept == pytest.approx(1.0, rel=1e-15)


def test_fit_line_normal_equations():
    # closed-form normal equations for xs=[0,1,2], ys=[0,1,1]:
    # slope 1/2, intercept 1/6, residuals (-1/6, 1/3, -1/6) -> sup 1/3
    fit = fit_line([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert fit.slope == pytest.approx(0.5, rel=1e-14)
    assert fit.intercept == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert fit.max_residual == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert fit.max_residual >= 0.0


def test_fit_line_degenerate():
    with pytest.raises(DomainValidationError):
        fit_line([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(DomainValidationError):
        fit_line([1.0], [0.0])
