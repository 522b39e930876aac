import gc
import math
import time
import warnings
import weakref

import numpy as np
import pytest
from support import (J0_FIRST_ZERO, bessel_zero_count, filled,
                     oracle_besselj, oracle_bessely, oracle_gamma,
                     oracle_j0_first_zero, oracle_liouville_bessel)

from hornlab import (DomainValidationError, IntegrationError, QuadratureError,
                     RootBracketError, ToleranceFloorError, bessel_j,
                     bessel_j_prime, bessel_y, bessel_y_prime, check_in_range,
                     find_root_bracketed, fit_line, gamma_real, integrate_ode,
                     liouville_potential, magnus_prufer, quad_log)


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
    sol = integrate_ode(lambda x, y, out: filled(out, y), (0.0, 1.0), [1.0],
                        1e-10)
    y, dy = sol.eval(1.0)
    assert y[0] == pytest.approx(math.e, abs=1e-9)
    assert dy[0] == pytest.approx(y[0], rel=1e-12)


def test_ode_sine():
    sol = integrate_ode(lambda x, y, out: filled(out, [y[1], -y[0]]),
                        (0.0, math.pi), [0.0, 1.0], 1e-10)
    assert sol.eval(math.pi)[0][0] == pytest.approx(0.0, abs=1e-8)
    assert sol.eval(math.pi / 2)[0][0] == pytest.approx(1.0, rel=1e-9)


def test_ode_growing_branch():
    # y'' = 4y with data matching exp(2x): the stiff-side regime of the
    # tip equation when the spherical eigenvalue dominates
    sol = integrate_ode(lambda x, y, out: filled(out, [y[1], 4.0 * y[0]]),
                        (0.0, 3.0), [1.0, 2.0], 1e-10)
    assert sol.eval(3.0)[0][0] == pytest.approx(math.exp(6.0), rel=1e-8)


def test_ode_trig_exp_accuracy_scaling():
    # y'' = lam y reproduces exp/trig with relative error <= 100 * tol
    # over spans of length <= 10
    tol = 1e-10
    sol = integrate_ode(lambda x, y, out: filled(out, [y[1], y[0]]),
                        (0.0, 10.0), [1.0, 1.0], tol)
    assert sol.eval(10.0)[0][0] == pytest.approx(math.exp(10.0),
                                                 rel=100 * tol)
    sol = integrate_ode(lambda x, y, out: filled(out, [y[1], -y[0]]),
                        (0.0, 10.0), [1.0, 0.0], tol)
    assert sol.eval(10.0)[0][0] == pytest.approx(math.cos(10.0),
                                                 rel=100 * tol)


def test_ode_endpoint_only_matches_dense():
    # one backend: the endpoint-only solve and the dense solve take the same
    # steps, so the dense solution's last recorded state is the endpoint
    # bitwise, and both lie within 100 tol of the exact state
    tol = 1e-10
    fld = lambda x, y, out: filled(out, [y[1], -y[0]])  # noqa: E731
    sol = integrate_ode(fld, (0.0, 10.0), [1.0, 0.0], tol)
    end = integrate_ode(fld, (0.0, 10.0), [1.0, 0.0], tol, dense=False)
    assert isinstance(end, np.ndarray) and end.shape == (2,)
    assert np.array_equal(sol.step_states[:, -1], end)
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    assert np.allclose(end, exact, rtol=0.0, atol=100 * tol)
    assert np.allclose(sol.states(np.array([10.0]))[:, 0], exact, rtol=0.0,
                       atol=100 * tol)


def test_ode_dense_interior_accuracy():
    # y'' = rho^2 y over two units, the constant-coefficient tip equation:
    # the continuous extension holds 1e-10 relative at 4001 interior points
    # (it reads about 2e-12)
    rho = 5.66
    sol = integrate_ode(
        lambda s, y, out: filled(out, [y[1], rho * rho * y[0]]), (0.0, 2.0),
        [1.0, 1.0], 1e-12)
    xs = np.linspace(0.0, 2.0, 4001)
    exact = np.cosh(rho * xs) + np.sinh(rho * xs) / rho
    assert np.max(np.abs(sol.states(xs)[0] / exact - 1.0)) <= 1e-10
    dexact = rho * np.sinh(rho * xs) + np.cosh(rho * xs)
    assert np.max(np.abs(sol.states(xs)[1] / dexact - 1.0)) <= 1e-10


def test_ode_dense_backward_span():
    # a decreasing span, as solve_k2 integrates from s_far down to r_mu
    tol = 1e-10
    sol = integrate_ode(lambda x, y, out: filled(out, [y[1], -y[0]]),
                        (10.0, 0.5), [math.cos(10.0), -math.sin(10.0)], tol)
    assert sol.span == (10.0, 0.5)
    assert np.all(np.diff(sol.steps) < 0)
    assert sol.steps[0] == 10.0 and sol.steps[-1] == pytest.approx(0.5)
    xs = np.linspace(0.5, 10.0, 1001)
    got = sol.states(xs)
    assert np.max(np.abs(got[0] - np.cos(xs))) <= 100 * tol
    assert np.max(np.abs(got[1] + np.sin(xs))) <= 100 * tol
    y, dy = sol.eval(3.0)
    assert dy == pytest.approx([y[1], -y[0]], rel=1e-15)


def test_ode_dense_passes_through_recorded_steps():
    # the extension of each step starts at its recorded state exactly and
    # ends at the next one up to rounding
    sol = integrate_ode(
        lambda x, y, out: filled(out, [y[1], 4.0 * y[0] + math.pi]),
        (0.0, 3.0), [1.0, 2.0], 1e-10)
    assert sol.steps.size > 10
    assert sol.step_states.shape == (2, sol.steps.size)
    assert np.array_equal(sol.states(sol.steps[:-1]), sol.step_states[:, :-1])
    assert np.allclose(sol.states(sol.steps[-1]), sol.step_states[:, -1],
                       rtol=1e-14, atol=0.0)


def test_ode_field_calls_repeat_exactly():
    # the compiled runner at IOUT = 0 re-evaluates f at the start of every
    # step from some point in a process on; the step callback keeps one
    # solve's field-call count the same on every repeat
    counts = []
    for _ in range(40):
        calls = [0]

        def fld(x, y, out):
            calls[0] += 1
            return filled(out, [y[1], -y[0]])

        with warnings.catch_warnings():
            integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 1e-10, dense=False)
        counts.append(calls[0])
    assert len(set(counts)) == 1


@pytest.mark.parametrize("dense", [True, False])
def test_ode_field_exception_ends_the_solve(dense):
    # the compiled runner swallows an exception raised in a callback and
    # steps on, with no step budget; the solve instead stops after the step
    # under way and raises the field's own exception
    calls = [0]
    failure = ValueError("field failed on its 6th call")

    def fld(x, y, out):
        calls[0] += 1
        if calls[0] == 6:
            raise failure
        return filled(out, [y[1], -y[0]])

    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 1e-10, dense=dense)
    assert time.perf_counter() - start < 1.0
    assert err.value is failure
    assert calls[0] < 50


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("fld", [
    lambda x, y: [y[1], -y[0]],
    lambda x, y, out: [y[1], -y[0]],
    lambda x, y, out: np.array([y[1]])],
    ids=["two-arguments", "fresh-list", "short-array"])
def test_ode_field_off_the_convention_is_a_type_error(fld, dense):
    # one calling convention, field(x, y, out) -> out: a field written
    # without the buffer, or returning anything but it, fails at once
    # instead of hanging the solve or being read past its end
    with pytest.raises(TypeError):
        integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 1e-10, dense=dense)


def test_ode_dense_eval_derivative_is_the_field():
    # eval's derivative is bitwise the field at the interpolated state on a
    # fresh buffer, for a scalar and for an array of abscissae, and each
    # call returns a buffer of its own
    def fld(x, y, out):
        out[0] = y[1]
        out[1] = -(2.0 / x) * y[1] + (3.0 * x ** -1.5 - 7.0) * y[0]
        return out

    sol = integrate_ode(fld, (0.5, 2.0), [1.0, 0.3], 1e-12)
    for x in (0.5, 1.2345, 2.0, np.linspace(0.5, 2.0, 7)):
        y, dy = sol.eval(x)
        assert dy.shape == y.shape
        assert np.array_equal(dy, fld(x, y.copy(), np.zeros_like(y)))
    assert not np.shares_memory(sol.eval(0.7)[1], sol.eval(0.7)[1])


def test_ode_endpoint_only_backward_span():
    # a decreasing span, as tip_anchor integrates from s_far down to s_lo
    tol = 1e-10
    end = integrate_ode(lambda x, y, out: filled(out, [y[1], -y[0]]),
                        (10.0, 0.5), [math.cos(10.0), -math.sin(10.0)], tol,
                        dense=False)
    assert np.allclose(end, [math.cos(0.5), -math.sin(0.5)], rtol=0.0,
                       atol=100 * tol)


def test_ode_endpoint_only_has_no_stiffness_interrupt():
    # about 3200 accepted steps held at the stability limit: Hairer's
    # stiffness test would stop this solve after 1000, the dense backend
    # has none, and the contract has no step budget
    lam, tol = 1e5, 1e-6
    end = integrate_ode(
        lambda x, y, out: filled(out, [-lam * (y[0] - math.cos(x))]),
        (0.0, 0.2), [1.0], tol, dense=False)
    exact = ((lam * lam * math.cos(0.2) + lam * math.sin(0.2)
              + math.exp(-lam * 0.2)) / (lam * lam + 1.0))
    assert end[0] == pytest.approx(exact, abs=100 * tol)


def _assert_solves_keep_nothing_alive(dense):
    # scipy's compiled runner leaks a reference to each callable it is
    # handed; neither the field, nor the integrator, nor a dense solve's
    # step log may outlive the solve and its solution
    from scipy.integrate._ode import dop853

    from hornlab.numerics import _StepLog

    class Field:
        def __call__(self, x, y, out):
            return filled(out, [y[1], -y[0]])

    def survivors():
        gc.collect()
        return sum(isinstance(o, (dop853, _StepLog)) for o in gc.get_objects())

    before = survivors()
    fld = Field()
    ref = weakref.ref(fld)
    for _ in range(10):
        sol = integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 1e-10, dense=dense)
    del fld, sol
    assert survivors() == before
    assert ref() is None


def test_ode_endpoint_only_keeps_nothing_alive():
    _assert_solves_keep_nothing_alive(dense=False)


def test_ode_dense_keeps_nothing_alive():
    _assert_solves_keep_nothing_alive(dense=True)


@pytest.mark.parametrize("dense, floor", [(True, 10), (False, 10)])
def test_ode_tolerance_floor_is_refused(dense, floor):
    # one backend, one floor for dense and endpoint-only solves: tolerances
    # down to 10 eps are honoured and a smaller one is refused instead of
    # clamped, with the tol and the floor
    eps = np.finfo(float).eps
    fld = lambda x, y, out: filled(out, [y[1], -y[0]])  # noqa: E731
    integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], floor * eps, dense=dense)
    with pytest.raises(ToleranceFloorError, match="tol=") as err:
        integrate_ode(fld, (0.0, 1.0), [1.0, 0.0], 0.9 * floor * eps,
                      dense=dense)
    assert isinstance(err.value, DomainValidationError)
    assert (err.value.tol, err.value.floor) == (0.9 * floor * eps, floor * eps)


def test_ode_initial_condition_and_span():
    sol = integrate_ode(lambda x, y, out: filled(out, y), (0.0, 1.0), [2.0],
                        1e-10)
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
        integrate_ode(lambda x, y, out: filled(out, y * y), (0.0, 2.0),
                      [1.0], 1e-10)
    assert err.value.location is not None
    assert 0.9 <= err.value.location <= 2.0


def test_ode_endpoint_only_failure_reports_location():
    # the compiled backend's failure is an IntegrationError at the failure
    # location, and its UserWarning does not escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            integrate_ode(lambda x, y, out: filled(out, y * y), (0.0, 2.0),
                          [1.0], 1e-10, dense=False)
    assert 0.9 <= err.value.location <= 2.0


# ---------------------------------------------------------------------------
# Magnus Pruefer angle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", [2.0, 50.0, 400.0])
def test_magnus_prufer_matches_the_bessel_angle(p_default, nu):
    # at spherical index 0 the Liouville potential is c (c - 2) / (4 r^2),
    # solved by u = r^(1/2) J_((c-1)/2)(r sqrt(nu)): theta(b) is pi times
    # the zeros of u in (a, b] plus the angle of (k u(b), u'(b)) mod pi
    a, b = 0.2, 2.0
    k = math.sqrt(nu)
    theta = magnus_prufer(lambda r: liouville_potential(p_default, 0, r), nu,
                          (a, b), oracle_liouville_bessel(p_default.c, nu, a),
                          1e-12)
    zeros = bessel_zero_count((p_default.c - 1) / 2, k * a, k * b)
    u, du = oracle_liouville_bessel(p_default.c, nu, b)
    assert math.floor(theta / math.pi) == zeros
    assert theta == pytest.approx(
        math.pi * zeros + math.atan2(k * u, du) % math.pi, rel=0.0, abs=1e-12)


def test_magnus_prufer_refuses_a_tolerance_below_its_floor():
    # the floor is 10 eps per unit of theta's scale k (b - a) = 20: the
    # floor error carries tol / 20 and the floor 10 eps, as an ODE one
    eps = np.finfo(float).eps
    magnus_prufer(np.zeros_like, 100.0, (0.0, 2.0), (0.0, 1.0), 200 * eps)
    with pytest.raises(ToleranceFloorError, match="tol=") as err:
        magnus_prufer(np.zeros_like, 100.0, (0.0, 2.0), (0.0, 1.0), 190 * eps)
    assert isinstance(err.value, DomainValidationError)
    assert (err.value.tol, err.value.floor, err.value.solver) == \
        (190 * eps / 20.0, 10 * eps, "ODE")


@pytest.mark.parametrize("level, message", [
    (-1e6, r"at r = 0\.0 turns the Pruefer angle by up to 15\.6 >= pi "
           r"for nu = 1\.0"),
    (1e8, r"for nu = 1\.0 is not finite at r = 0\.")])
def test_magnus_prufer_fails_loudly(level, message):
    # a well too deep for the first mesh of 64 intervals, and a barrier the
    # solution grows through past the double range, each name nu and r
    with pytest.raises(IntegrationError, match=message) as err:
        magnus_prufer(lambda r: np.full_like(r, level), 1.0, (0.0, 1.0),
                      (0.0, 1.0), 1e-12)
    assert 0.0 <= err.value.location <= 1.0


# ---------------------------------------------------------------------------
# Log-space quadrature
# ---------------------------------------------------------------------------


def test_quad_log_polynomial_from_zero():
    # a = 0 takes the leading panel [0, first edge]
    sign, log_val, log_err = quad_log(lambda x, rows: (1.0, 2.0 * np.log(x)),
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
        lambda s, rows: (1.0, -s * s + c * np.log(s) - 900.0),
        0.0, 12.0, 1e-12)
    assert sign == 1
    exact = math.log(oracle_gamma((c + 1.0) / 2.0) / 2.0) - 900.0
    assert log_val - exact == pytest.approx(0.0, abs=1e-12)


def test_quad_log_signed_cancellation():
    # int_0^(10 pi + 1) cos x dx = sin 1, against int |cos x| dx ~ 20.8
    b = 10.0 * math.pi + 1.0
    sign, log_val, log_err = quad_log(
        lambda x, rows: (np.sign(np.cos(x)),
                         np.log(np.abs(np.cos(x))) + 800.0),
        0.0, b, 1e-12)
    assert sign == 1
    assert log_val - 800.0 == pytest.approx(math.log(math.sin(1.0)),
                                            abs=1e-11)
    assert log_err - 800.0 < math.log(1e-12 * 21.0)
    sign, log_val, _ = quad_log(
        lambda x, rows: (-np.sign(np.cos(x)), np.log(np.abs(np.cos(x)))),
        0.0, b, 1e-12)
    assert sign == -1
    assert log_val == pytest.approx(math.log(math.sin(1.0)), abs=1e-11)


def test_quad_log_zero_integrand():
    assert quad_log(lambda x, rows: (1.0, np.full_like(x, -np.inf)),
                    0.0, 1.0, 1e-12) == (0, -math.inf, -math.inf)
    assert quad_log(lambda x, rows: (np.zeros_like(x), np.zeros_like(x)),
                    0.5, 1.0, 1e-12) == (0, -math.inf, -math.inf)


def test_quad_log_sub_ulp_interval_keeps_its_nodes_inside():
    # [0.02 - 1 ulp, 0.02], the first segment of a scan whose computed
    # lower end lies one ulp below freq.lo = 0.02: geomspace's edges step
    # back below a and past b there, which gave negative weights and nodes
    # outside [a, b]
    from hornlab.numerics import _log_quad_nodes
    a, b = np.array([0.019999999999999997]), np.array([0.02])
    for panels in (8, 16, 1024):
        x, w = _log_quad_nodes(a, b, panels, False)
        assert np.all(w >= 0.0)
        assert np.all((a[0] <= x) & (x <= b[0]))
    sign, log_val, _ = quad_log(lambda x, rows: (1.0, np.zeros_like(x)),
                                a[0], b[0], 1e-10)
    assert sign == 1
    assert log_val == pytest.approx(math.log(b[0] - a[0]), abs=1e-12)


def test_quad_log_narrow_peak_not_clipped():
    # f(r) = r^20 exp(-r/1e-5) peaks at r = 2e-4 with a relative width of
    # ~20%.  An evenly spaced probe of [1e-6, 1] steps over the peak, and
    # a shift taken from that probe with the exponent clipped at 50 loses
    # a factor ~exp(34); the node maximum of each level cannot miss it.
    sign, log_val, _ = quad_log(
        lambda r, rows: (1.0, 20.0 * np.log(r) - r / 1e-5), 1e-6, 1.0, 1e-12)
    exact = math.lgamma(21.0) + 21.0 * math.log(1e-5)
    assert exact == pytest.approx(-199.43582, abs=1e-5)
    assert sign == 1
    assert log_val == pytest.approx(exact, abs=1e-10)


def test_quad_log_rejects_bad_arguments():
    f = lambda x, rows: (1.0, np.zeros_like(x))
    for a, b in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(DomainValidationError):
            quad_log(f, a, b, 1e-8)
    for tol in (0.0, -1e-8):
        with pytest.raises(DomainValidationError):
            quad_log(f, 0.0, 1.0, tol)


def test_quad_log_nonfinite_integrand():
    with pytest.raises(QuadratureError):
        quad_log(lambda x, rows: (1.0, np.where(x > 0.5, np.nan, 0.0)),
                 0.0, 1.0, 1e-8)


def test_quad_log_budget_exhaustion_carries_estimate():
    # sin(1/x)/x oscillates unresolvably near 0: the panel cap is reached
    def f(x, rows):
        v = np.sin(1.0 / x) / x
        return np.sign(v), np.log(np.abs(v))

    with pytest.raises(QuadratureError) as err:
        quad_log(f, 1e-8, 1.0, 1e-10)
    sign, log_val = err.value.estimate
    assert sign in (-1, 0, 1)
    assert math.isfinite(log_val)
    assert err.value.bound is not None


# One integrand per row: a = 0 and a > 0 rows, a signed row with an offset
# far outside the double range, a narrow peak, and an exact zero.
_BATCH_A = np.array([0.0, 1e-6, 0.3, 0.0, 2.0, 0.5])
_BATCH_B = np.array([1.0, 1.0, 5.0, 12.0, 31.0, 1.0])


def _batch_row(j, x):
    with np.errstate(divide="ignore"):
        if j == 0:
            return np.ones_like(x), 2.0 * np.log(x)
        if j == 1:
            return np.ones_like(x), 20.0 * np.log(x) - x / 1e-5
        if j == 2:
            return np.sign(np.cos(x)), np.log(np.abs(np.cos(x))) + 800.0
        if j == 3:
            return np.ones_like(x), -x * x + 3.75 * np.log(x) - 900.0
        if j == 4:
            return np.zeros_like(x), np.zeros_like(x)
        return -np.ones_like(x), -np.log(x)


def _batch_integrand(x, rows):
    out = np.empty((2, *x.shape))
    for k, j in enumerate(rows):
        out[:, k] = _batch_row(j, x[k])
    return out[0], out[1]


@pytest.mark.parametrize("max_nodes, first_level", [
    (8192, [[0, 3], [1, 2, 4, 5]]),
    (300, [[0, 3], [1, 2], [4, 5]]),  # two rows of 9 or 8 panels a call
])
def test_quad_log_batch_rows_equal_single_calls(monkeypatch, max_nodes,
                                                first_level):
    # every row gets the nodes, the value and the error estimate of its own
    # single-interval call, bitwise, whatever else is in the batch and
    # however a level is split into integrand calls
    from hornlab import numerics
    monkeypatch.setattr(numerics, "_LOG_QUAD_MAX_NODES", max_nodes)
    calls = []

    def integrand(x, rows):
        calls.append((x.shape, rows.tolist()))
        return _batch_integrand(x, rows)

    sign, log_val, log_err = quad_log(integrand, _BATCH_A, _BATCH_B, 1e-12)
    for j in range(_BATCH_A.size):
        one = quad_log(lambda x, rows: _batch_row(j, x), _BATCH_A[j],
                       _BATCH_B[j], 1e-12)
        assert (sign[j], log_val[j], log_err[j]) == one
    assert (sign[4], log_val[4], log_err[4]) == (0, -math.inf, -math.inf)
    assert sign[5] == -1
    assert log_val[5] == pytest.approx(math.log(math.log(2.0)), rel=1e-14)
    # the first level takes the rows with a = 0, then the others, each in
    # as few calls as the cap allows, and a call past the cap holds a
    # single row
    assert [rows for _, rows in calls[:len(first_level)]] == first_level
    assert all(shape[0] == 1 or shape[0] * shape[1] <= max_nodes
               for shape, _ in calls)


def test_quad_log_batch_rows_close_at_recorded_levels():
    # the nodes and open rows of every integrand call: at tol 1e-12 rows 1
    # and 3 need a third level and the others close at the second, so an
    # acceptance rule that closes a row one level early or late moves them
    calls = []

    def integrand(x, rows):
        calls.append((x.shape, rows.tolist()))
        return _batch_integrand(x, rows)

    quad_log(integrand, _BATCH_A, _BATCH_B, 1e-12)
    assert calls == [((2, 144), [0, 3]), ((4, 128), [1, 2, 4, 5]),
                     ((2, 272), [0, 3]), ((4, 256), [1, 2, 4, 5]),
                     ((1, 528), [3]), ((1, 512), [1])]


def test_quad_log_batch_row_past_the_cap_names_its_interval():
    # sin(1/x)/x on row 1 cannot be resolved; rows 0 and 2 close early, and
    # the error names row 1's interval
    open_rows = []

    def f(x, rows):
        open_rows.append(rows.tolist())
        v = np.where((rows == 1)[:, None], np.sin(1.0 / x) / x, x * x)
        return np.sign(v), np.log(np.abs(v))

    with pytest.raises(QuadratureError,
                       match=r"on \[1e-08, 1.0\] did not reach") as err:
        quad_log(f, [0.25, 1e-8, 2.0], [1.0, 1.0, 3.0], 1e-10)
    assert open_rows[0] == [0, 1, 2] and open_rows[-1] == [1]
    assert math.isfinite(err.value.estimate[1])


def test_quad_log_batch_nan_names_its_row():
    def f(x, rows):
        return 1.0, np.where((rows == 1)[:, None] & (x > 0.5), np.nan, 0.0)

    with pytest.raises(QuadratureError,
                       match=r"not finite at x = 0\.5.* on \[0\.25, 1\.0\]"):
        quad_log(f, [0.0, 0.25], [1.0, 1.0], 1e-8)


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
