import gc
import math
import re
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq
from support import (J0_FIRST_ZERO, bessel_zero_count, magnus_sweeps,
                     oracle_besselj, oracle_bessely, oracle_gamma,
                     oracle_j0_first_zero, oracle_liouville_bessel,
                     oracle_tip_branch_mu0)

from hornlab import (DomainValidationError, IntegrationError, QuadratureError,
                     SepticHermite, ToleranceFloorError, bessel_j,
                     check_in_range, fit_line, gamma_real,
                     liouville_potential, magnus_dense,
                     magnus_log_derivative, magnus_prufer,
                     measure_weight_log, profile_from_k2, quad_log, r_mu,
                     solve_k2, tip_exponent, tip_rate)
from hornlab.modes import _tip_log, tip_anchor, tip_window_top
from hornlab.numerics import _magnus_propagators, _tree_scan


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
    assert special.yv(0.5, math.pi / 2) == pytest.approx(0.0, abs=1e-13)
    assert special.yv(0.5, math.pi) == pytest.approx(
        math.sqrt(2.0) / math.pi, rel=1e-12)


def test_bessel_y_pole_direction():
    # Y_1 diverges to -infinity like -2/(pi x)
    val = special.yv(1.0, 1e-6)
    assert val == pytest.approx(-2.0 / (math.pi * 1e-6), rel=1e-5)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.375, 3.0, 5.0, 11.5, 20.0,
                                3.000001, 0.9999998])
def test_bessel_accuracy_contract(nu):
    # relative error <= 1e-10 over the stated (nu, x) range
    for x in np.geomspace(0.08, 100.0, 23):
        ref_j = oracle_besselj(nu, float(x))
        assert bessel_j(nu, float(x)) == pytest.approx(
            ref_j, rel=1e-10, abs=1e-280)
        ref_y = oracle_bessely(nu, float(x))
        assert special.yv(nu, float(x)) == pytest.approx(
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
            w = bessel_j(nu, x) * special.yvp(nu, x) \
                - special.jvp(nu, x) * special.yv(nu, x)
            assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-8)


def test_bessel_recurrence_invariant():
    for nu in (0.5, 1.375, 5.0):
        for x in (0.1, 0.7, 2.0, 7.0, 20.0, 50.0):
            lhs = special.jv(nu - 1.0, x) + bessel_j(nu + 1.0, x)
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


# ---------------------------------------------------------------------------
# Linear propagation: Magnus node states and their interpolant
# ---------------------------------------------------------------------------


def _constant(level):
    """A vectorised constant potential."""
    return lambda x, rows: np.full_like(x, level)


def _dense(potential, span, y0, tol, log=False):
    """magnus_dense on u'' = V u for a constant V, read as u itself or, for
    a positive u, as log u: (x, node values, interpolant).  With V' = 0,
    u''' = V u' and (log u)''' = -2 (log u)' (log u)''."""
    def read(x, logs, y, rows):
        level = potential(x, rows)
        if log:
            slope = y[1] / y[0]
            curve = level - slope * slope
            return logs + np.log(y[0]), slope, curve, -2.0 * slope * curve
        u, du = np.exp(logs) * y
        return u, du, level * u, level * du

    row, = magnus_dense(potential, span, y0, tol, read)
    return row


def test_ode_exponential():
    # u'' = u from (1, 1) is e^x: its value at 1 and its slope, which the
    # interpolant gives as its own derivative
    u, du = _dense(_constant(1.0), (0.0, 1.0), (1.0, 1.0), 1e-10)[2](1.0)
    assert u == pytest.approx(math.e, rel=1e-12)
    assert du == pytest.approx(u, rel=1e-12)


def test_ode_sine():
    interpolant = _dense(_constant(-1.0), (0.0, math.pi), (0.0, 1.0),
                         1e-10)[2]
    assert interpolant(math.pi)[0] == pytest.approx(0.0, abs=1e-10)
    assert interpolant(math.pi / 2)[0] == pytest.approx(1.0, rel=1e-10)


def test_ode_growing_branch():
    # u'' = 4u with data matching exp(2x): the stiff-side regime of the
    # tip equation when the spherical eigenvalue dominates, read in log
    # space as the tip branches are
    L, slope = _dense(_constant(4.0), (0.0, 3.0), (1.0, 2.0), 1e-10,
                      log=True)[2](3.0)
    assert L == pytest.approx(6.0, abs=1e-10)
    assert slope == pytest.approx(2.0, rel=1e-10)


def test_ode_trig_exp_accuracy_scaling():
    # u'' = lam u reproduces exp/trig with relative error <= 100 * tol
    # over spans of length <= 10
    tol = 1e-10
    L = _dense(_constant(1.0), (0.0, 10.0), (1.0, 1.0), tol,
               log=True)[2](10.0)[0]
    assert math.exp(L) == pytest.approx(math.exp(10.0), rel=100 * tol)
    u = _dense(_constant(-1.0), (0.0, 10.0), (1.0, 0.0), tol)[2](10.0)[0]
    assert u == pytest.approx(math.cos(10.0), rel=100 * tol)


def test_ode_endpoint_only_matches_dense():
    # the end reduction and the dense pass's last node give the same
    # log-derivative, both within 100 tol of the exact one
    tol = 1e-10
    end, = magnus_log_derivative(_constant(-1.0), (0.0, 10.0), (1.0, 0.0),
                                 tol)
    u, du = _dense(_constant(-1.0), (0.0, 10.0), (1.0, 0.0), tol)[2](10.0)
    assert end == pytest.approx(-math.tan(10.0), rel=100 * tol)
    assert du / u == pytest.approx(-math.tan(10.0), rel=100 * tol)


def test_ode_dense_interior_accuracy():
    # k'' = rho^2 k over two units, the constant-coefficient tip equation,
    # read as log k: the interpolant holds 1e-10 relative in k and k' at
    # 4001 interior points
    rho = 5.66
    L, slope = _dense(_constant(rho * rho), (0.0, 2.0), (1.0, 1.0), 1e-12,
                      log=True)[2](np.linspace(0.0, 2.0, 4001))
    xs = np.linspace(0.0, 2.0, 4001)
    exact = np.cosh(rho * xs) + np.sinh(rho * xs) / rho
    assert np.max(np.abs(np.exp(L) / exact - 1.0)) <= 1e-10
    dexact = rho * np.sinh(rho * xs) + np.cosh(rho * xs)
    assert np.max(np.abs(slope * np.exp(L) / dexact - 1.0)) <= 1e-10


def test_magnus_dense_log_read_past_the_double_range():
    # u'' = u from (1, 1) over 1000 e-folds: the products are rescaled as
    # they are formed, and log u = x holds at the far end
    x, v, interpolant = _dense(_constant(1.0), (0.0, 1000.0), (1.0, 1.0),
                               1e-10, log=True)
    assert v[-1] == pytest.approx(1000.0, rel=1e-12)
    assert interpolant(777.7)[0] == pytest.approx(777.7, rel=1e-12)
    assert interpolant(777.7)[1] == pytest.approx(1.0, rel=1e-10)


def test_ode_dense_backward_span():
    # a decreasing span, as solve_k2 sweeps from s_far down to r_mu
    tol = 1e-10
    x, v, interpolant = _dense(_constant(-1.0), (10.0, 0.5),
                               (math.cos(10.0), -math.sin(10.0)), tol)
    assert np.all(np.diff(x) < 0)
    assert x[0] == 10.0 and x[-1] == 0.5
    xs = np.linspace(0.5, 10.0, 1001)
    u, du = interpolant(xs)
    assert np.max(np.abs(u - np.cos(xs))) <= 100 * tol
    assert np.max(np.abs(du + np.sin(xs))) <= 100 * tol


def test_first_mesh_without_room_for_an_estimate_sweeps_nothing(
        monkeypatch):
    # 20000 radians need a first mesh of 2^15 intervals, and a first
    # Richardson estimate its meshes 2^15, 2^16 and 2^17, past the cap of
    # 2^16: the row is refused, naming its first mesh, its span, the mesh a
    # first estimate needs and the cap, before any propagator is built
    sweeps = magnus_sweeps(monkeypatch)
    with pytest.raises(IntegrationError) as err:
        magnus_log_derivative(lambda x, rows: -np.ones_like(x), (0, 20000),
                              (1, 0), 1e-10)
    assert str(err.value) == (
        "the Magnus propagation of row 0 needs a first mesh of 32768 "
        "intervals for its span (0.0, 20000.0), so its first Richardson "
        "estimate needs 131072, past the cap of 65536 intervals")
    assert (err.value.location, err.value.row) == (20000.0, 0)
    assert sweeps == []


def test_ode_dense_passes_through_recorded_steps():
    # the interpolant reproduces the node values, starting at the data
    x, v, interpolant = _dense(_constant(4.0), (0.0, 3.0), (1.0, 2.0),
                               1e-10)
    assert x.size > 10 and v.shape == x.shape
    assert v[0] == 1.0
    np.testing.assert_allclose(interpolant(x)[0], v, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("decreasing", [False, True])
def test_septic_hermite_reproduces_septics(decreasing):
    # the interpolant of a septic's values and first three derivatives is
    # that septic, on an increasing or a decreasing mesh
    p = np.polynomial.Polynomial([0.3, -1.0, 0.5, 2.0, -0.7, 0.25, 0.1,
                                  -0.05])
    x = np.linspace(-1.0, 2.0, 7)[::-1 if decreasing else 1]
    interpolant = SepticHermite(x, *(p.deriv(k)(x) for k in range(4)))
    xs = np.linspace(-1.0, 2.0, 101)
    value, slope = interpolant(xs)
    np.testing.assert_allclose(value, p(xs), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(slope, p.deriv()(xs), rtol=0.0, atol=1e-12)


def test_septic_hermite_orders_eight_and_seven():
    # on a smooth function that no polynomial is, halving h cuts the value
    # error by about 2^8 and the slope error by about 2^7
    xs = np.linspace(0.0, 2.0, 4001)
    errors = []
    for n in (8, 16, 32):
        x = np.linspace(0.0, 2.0, n + 1)
        value, slope = SepticHermite(x, np.sin(3.0 * x), 3.0 * np.cos(3.0 * x),
                                     -9.0 * np.sin(3.0 * x),
                                     -27.0 * np.cos(3.0 * x))(xs)
        errors.append((np.max(np.abs(value - np.sin(3.0 * xs))),
                       np.max(np.abs(slope - 3.0 * np.cos(3.0 * xs)))))
    for (v0, s0), (v1, s1) in zip(errors, errors[1:]):
        assert 2.0 ** 7.5 <= v0 / v1 <= 2.0 ** 8.5
        assert 2.0 ** 6.5 <= s0 / s1 <= 2.0 ** 7.5


@pytest.mark.parametrize("decreasing", [False, True])
def test_septic_hermite_rows_read_at_fixed_fractions(decreasing):
    # an interpolant of rows, read at fixed fractions of its intervals in
    # one Horner pass, agrees with each row's own interpolant called at the
    # same points to a few ulps (the abscissae round to an ulp of x; up to
    # 3.3 eps seen), on an increasing or a decreasing mesh; it is not
    # called on abscissae
    x = np.array([np.linspace(0.1, 2.3, 17), np.linspace(-1.3, 2.9, 17)])
    x = x[:, ::-1] if decreasing else x
    data = [np.array([np.sin(3.0 * x[0]), np.exp(0.5 * x[1])])]
    for k in range(1, 4):
        data.append(np.array([3.0 ** k * np.sin(3.0 * x[0] + k * math.pi / 2),
                              0.5 ** k * np.exp(0.5 * x[1])]))
    rows = SepticHermite(x, *data)
    eps = np.finfo(float).eps
    for fractions in ((0.5,), (0.25, 0.75)):
        value, slope = rows.at(fractions)
        t = np.array(fractions)[:, None] + np.arange(16)
        for k in range(2):
            h = (x[k, -1] - x[k, 0]) / 16
            want, want_slope = rows.row(k)(x[k, 0] + h * t)
            assert np.max(np.abs(value[:, k] - want)) <= \
                8 * eps * np.max(np.abs(data[0][k]))
            assert np.max(np.abs(slope[:, k] - want_slope)) <= \
                8 * eps * np.max(np.abs(data[1][k]))
    with pytest.raises(TypeError, match="row"):
        rows(x[0])


def test_ode_field_calls_repeat_exactly():
    # a sweep's potential calls, one per mesh, and its result are the same
    # on every repeat
    runs = []
    for _ in range(10):
        sizes = []

        def potential(x, rows):
            sizes.append(x.size)
            return np.sin(x) - 4.0

        end, = magnus_log_derivative(potential, (0.0, 3.0), (1.0, 0.0),
                                     1e-12)
        runs.append((end.hex(), tuple(sizes)))
    assert len(set(runs)) == 1


@pytest.mark.parametrize("dense", [True, False])
def test_ode_field_exception_ends_the_solve(dense):
    # an exception the potential raises ends the sweep at once and is
    # raised as it is
    calls = [0]
    failure = ValueError("potential failed on its 3rd call")

    def potential(x, rows):
        calls[0] += 1
        if calls[0] == 3:
            raise failure
        return np.full_like(x, -1.0)

    with pytest.raises(ValueError) as err:
        if dense:
            _dense(potential, (0.0, 1.0), (1.0, 0.0), 1e-12)
        else:
            magnus_log_derivative(potential, (0.0, 1.0), (1.0, 0.0), 1e-12)
    assert err.value is failure
    assert calls[0] == 3


def test_ode_endpoint_only_backward_span():
    # a decreasing span, as tip_anchor sweeps from s_far down to s_lo
    tol = 1e-10
    end, = magnus_log_derivative(_constant(-1.0), (10.0, 0.5),
                                 (math.cos(10.0), -math.sin(10.0)), tol)
    assert end == pytest.approx(-math.tan(0.5), rel=100 * tol)


def test_ode_endpoint_only_has_no_stiffness_interrupt():
    # a rate of 1e5 over 0.2 grows the state by e^20000, far past the
    # double range: the products are rescaled as they are formed, and the
    # end log-derivative is the rate
    lam = 1e5
    end, = magnus_log_derivative(_constant(lam * lam), (0.0, 0.2),
                                 (1.0, lam), 1e-12)
    assert end == pytest.approx(lam, rel=1e-12)


def _assert_sweeps_keep_nothing_alive(sweep):
    # neither the potential, here V = -1, nor anything it refers to
    # outlives the sweep; a dense pass's interpolant holds arrays only
    class Potential:
        def __call__(self, x, rows):
            return np.full_like(x, -1.0)

    potential = Potential()
    ref = weakref.ref(potential)
    result = sweep(potential)
    del potential
    gc.collect()
    assert ref() is None
    return result


def test_ode_endpoint_only_keeps_nothing_alive():
    _assert_sweeps_keep_nothing_alive(lambda V: magnus_log_derivative(
        V, (0.0, 1.0), (1.0, 0.0), 1e-10))


def test_ode_dense_keeps_nothing_alive():
    # the test's read closes over the potential, so the pass reads the
    # linear state here
    interpolant = _assert_sweeps_keep_nothing_alive(lambda V: magnus_dense(
        V, (0.0, 1.0), (1.0, 0.0), 1e-10,
        lambda x, logs, y, rows: (np.exp(logs) * y[0], np.exp(logs) * y[1],
                            -np.exp(logs) * y[0], -np.exp(logs) * y[1]))[0][2])
    assert interpolant(0.5)[0] == pytest.approx(math.cos(0.5), rel=1e-10)


@pytest.mark.parametrize("dense, floor", [(True, 10), (False, 10)])
def test_ode_tolerance_floor_is_refused(dense, floor):
    # one floor for dense passes and end values: tolerances down to 10 eps
    # are honoured and a smaller one is refused instead of clamped, with
    # the tol and the floor
    eps = np.finfo(float).eps

    def sweep(tol):
        if dense:
            return _dense(_constant(-1.0), (0.0, 1.0), (1.0, 0.0), tol)
        return magnus_log_derivative(_constant(-1.0), (0.0, 1.0), (1.0, 0.0),
                                     tol)

    sweep(floor * eps)
    with pytest.raises(ToleranceFloorError, match="tol=") as err:
        sweep(0.9 * floor * eps)
    assert isinstance(err.value, DomainValidationError)
    assert (err.value.tol, err.value.floor, err.value.solver) == \
        (0.9 * floor * eps, floor * eps, "ODE")


def test_ode_initial_condition_and_span():
    # the nodes run from a to b exactly, the first node is the data, and an
    # empty span is refused
    x, v, interpolant = _dense(_constant(1.0), (0.0, 1.0), (2.0, 2.0),
                               1e-10)
    assert (x[0], x[-1], v[0]) == (0.0, 1.0, 2.0)
    assert interpolant(0.0)[0] == 2.0
    for sweep in (magnus_dense, magnus_log_derivative):
        with pytest.raises(DomainValidationError, match="a != b"):
            sweep(_constant(1.0), (1.0, 1.0), (2.0, 2.0), 1e-10,
                  *([None] if sweep is magnus_dense else []))
    # a span or a start that is not finite is refused by name, with the
    # row's values, before the floor check and before any sweep: it raised
    # OverflowError, ToleranceFloorError or IntegrationError before.  Only
    # the angle takes nu
    for sweep in (magnus_dense, magnus_log_derivative, magnus_prufer):
        angle = sweep is magnus_prufer
        for nu, span, y0, got in (
                (0.0, (0.0, math.inf), (2.0, 2.0), "0.0, inf, 2.0, 2.0"),
                (0.0, (0.0, math.nan), (2.0, 2.0), "0.0, nan, 2.0, 2.0"),
                (0.0, (0.0, 1.0), (math.nan, 2.0), "0.0, 1.0, nan, 2.0"),
                (np.array([0.0, 1.0]), (0.0, np.array([1.0, -math.inf])),
                 (2.0, 2.0), "0.0, -inf, 2.0, 2.0")):
            names, got = (("nu, a", f"{nu if np.ndim(nu) == 0 else nu[1]}, "
                           + got) if angle else ("a", got))
            message = (f"{sweep.__name__} needs finite {names}, b, u(a), "
                       f"u'(a), got ({got})")
            with pytest.raises(DomainValidationError,
                               match=f"^{re.escape(message)}$"):
                sweep(_constant(1.0), *([nu] if angle else []), span, y0,
                      1e-10, *([None] if sweep is magnus_dense else []))


# rows of magnus_dense batches: (nu, a, b, u(a), u'(a), read as log u),
# each with its potential V and V's slope; a dense pass takes the whole
# coefficient V - nu.  Every row starts on 64 intervals; row 2 sweeps
# backward; row 3 grows by e^800, past the double range, so its products
# are rescaled
_DENSE_ROWS = [(20.0, 0.0, 3.0, 0.0, 1.0, False),
               (200.0, 0.5, 4.0, 1.0, 0.0, False),
               (1.0, 10.0, 0.5, math.cos(10.0), -math.sin(10.0), False),
               (0.0, 0.0, 40.0, 1.0, 20.0, True),
               (5000.0, 0.0, 2.0, 1.0, 0.0, False)]
_DENSE_V = [(lambda x: 1.0 + 0.5 * np.sin(x), lambda x: 0.5 * np.cos(x)),
            (lambda x: x * x, lambda x: 2.0 * x),
            (np.zeros_like, np.zeros_like),
            (lambda x: 400.0 + np.sin(x), np.cos),
            (lambda x: np.cos(x) ** 2, lambda x: -np.sin(2.0 * x))]


def _dense_row_read(j, x, logs, y):
    nu, *_, log_read = _DENSE_ROWS[j]
    V, dV = (f(x) for f in _DENSE_V[j])
    if log_read:
        slope = y[1] / y[0]
        curve = V - nu - slope * slope
        return logs + np.log(y[0]), slope, curve, dV - 2.0 * slope * curve
    u, du = np.exp(logs) * y
    return u, du, (V - nu) * u, dV * u + (V - nu) * du


def _dense_batch(rows):
    """magnus_dense on the rows of _DENSE_ROWS listed in `rows`, as one
    batch."""
    def potential(x, open_rows):
        return np.array([_DENSE_V[rows[k]][0](x[i]) - _DENSE_ROWS[rows[k]][0]
                         for i, k in enumerate(open_rows)])

    def read(x, logs, y, open_rows):
        return tuple(np.array(v) for v in zip(*(
            _dense_row_read(rows[k], x[i], logs[i], y[:, i])
            for i, k in enumerate(open_rows))))

    _, a, b, u0, du0, _ = (np.array(v) for v in zip(*(_DENSE_ROWS[j]
                                                      for j in rows)))
    return magnus_dense(potential, (a, b), (u0, du0), 1e-10, read)


def _dense_single(j):
    """magnus_dense on row j of _DENSE_ROWS as an all-scalar call, which
    returns one row."""
    nu, a, b, u0, du0, _ = _DENSE_ROWS[j]
    dense = magnus_dense(
        lambda x, rows: _DENSE_V[j][0](x) - nu, (a, b), (u0, du0), 1e-10,
        lambda x, logs, y, rows: tuple(
            v[None] for v in _dense_row_read(j, x[0], logs[0], y[:, 0])))
    assert len(dense) == 1
    return dense[0]


def test_magnus_dense_batch_rows_equal_single_calls(monkeypatch):
    # every row of a batch, in any order and with any other rows, gets the
    # nodes, node values and interpolant of its own all-scalar call's one
    # row bit for bit, though the rows differ in span, direction, first
    # mesh, accepted level and rescaling; the open rows on one mesh share
    # one potential call, and an accepted row leaves the batch
    single = [_dense_single(j) for j in range(len(_DENSE_ROWS))]
    sweeps = magnus_sweeps(monkeypatch)
    batches = [(list(range(5)), _dense_batch(range(5)))]
    first_sweeps = sweeps.copy()
    batches += [([3, 0, 4, 2, 1], _dense_batch([3, 0, 4, 2, 1])),
                ([1, 3], _dense_batch([1, 3])),
                ([4, 0, 2], _dense_batch([4, 0, 2]))]
    for rows, batch in batches:
        for j, (x, v, interpolant) in zip(rows, batch):
            x1, v1, interpolant1 = single[j]
            assert x.tobytes() == x1.tobytes()
            assert v.tobytes() == v1.tobytes()
            xs = np.linspace(x1[0], x1[-1], 101)
            for got, want in zip(interpolant(xs), interpolant1(xs)):
                assert got.tobytes() == want.tobytes()
    # accepted on four different meshes, and row 3's u passes the double
    # range (log u ends past log(max double) = 709.78)
    assert [x.size for x, _, _ in single] == [129, 257, 129, 1025, 513]
    assert single[3][1][-1] > 710.0
    # every row starts on 64 intervals, and each sweep holds the rows
    # still open
    assert first_sweeps == [([0, 1, 2, 3, 4], 64), ([0, 1, 2, 3, 4], 128),
                            ([0, 1, 2, 3, 4], 256), ([1, 3, 4], 512),
                            ([3, 4], 1024), ([3], 2048)]


def test_magnus_log_derivative_batch_rows_equal_single_calls():
    # the end reduction keeps the same contract: a batch's entries are the
    # all-scalar calls' one rows bit for bit
    rows = [2, 0, 4, 1]
    nu, a, b, u0, du0, _ = (np.array(v) for v in zip(*(_DENSE_ROWS[j]
                                                       for j in rows)))
    got = magnus_log_derivative(
        lambda x, open_rows: np.array([_DENSE_V[rows[k]][0](x[i]) - nu[k]
                                       for i, k in enumerate(open_rows)]),
        (a, b), (u0, du0), 1e-10)
    for j, end in zip(rows, got):
        nu, a, b, u0, du0, _ = _DENSE_ROWS[j]
        want = magnus_log_derivative(lambda x, r: _DENSE_V[j][0](x) - nu,
                                     (a, b), (u0, du0), 1e-10)
        assert want.shape == (1,)
        assert end.hex() == want[0].hex()


# rows of magnus_prufer batches: _DENSE_ROWS, all forward, row 2 on
# (0.5, 10) with u = cos(r); _DENSE_V's potentials
_PRUFER_ROWS = [row[:5] for row in _DENSE_ROWS]
_PRUFER_ROWS[2] = (1.0, 0.5, 10.0, math.cos(0.5), -math.sin(0.5))


def _prufer_batch(rows):
    """magnus_prufer on the rows of _PRUFER_ROWS listed in `rows`, as one
    batch."""
    def potential(x, open_rows):
        return np.array([_DENSE_V[rows[k]][0](x[i])
                         for i, k in enumerate(open_rows)])

    nu, a, b, u0, du0 = (np.array(v) for v in zip(*(_PRUFER_ROWS[j]
                                                    for j in rows)))
    return magnus_prufer(potential, nu, (a, b), (u0, du0), 1e-10)


def test_magnus_prufer_batch_rows_equal_single_calls(monkeypatch):
    # every row of a batch, in any order and with any other rows, gets the
    # angle and the slope of its own all-scalar call's one row bit for
    # bit, though the rows differ in nu, span, first mesh, accepted mesh
    # and rescaling: the slope reads the row's own accepting sweep
    sweeps = magnus_sweeps(monkeypatch)
    single = []
    for j, (nu, a, b, u0, du0) in enumerate(_PRUFER_ROWS):
        sweeps.clear()
        theta, slope = magnus_prufer(lambda x, rows, j=j: _DENSE_V[j][0](x),
                                     nu, (a, b), (u0, du0), 1e-10)
        assert theta.shape == slope.shape == (1,)
        single.append(((theta[0], slope[0]), sweeps[-1][1]))
    # accepted on two different meshes; row 3's u grows by e^800
    assert [mesh for _, mesh in single] == [256, 256, 256, 1024, 1024]
    for rows in (list(range(5)), [3, 0, 4, 2, 1], [1, 3], [4, 0, 2]):
        sweeps.clear()
        theta, slope = _prufer_batch(rows)
        if rows[0] == 3:
            batch_sweeps = sweeps.copy()
        assert theta.shape == slope.shape == (len(rows),)
        for j, got in zip(rows, zip(theta.tolist(), slope.tolist())):
            assert [v.hex() for v in got] == \
                [v.hex() for v in single[j][0]]
    # rows 3, 0, 2 and 1 start together on 64 intervals, row 4 joins them
    # on 256, and each sweep holds the rows still open
    assert batch_sweeps == [([0, 1, 3, 4], 64), ([0, 1, 3, 4], 128),
                            ([0, 1, 2, 3, 4], 256), ([0, 2], 512),
                            ([0, 2], 1024)]


def test_magnus_prufer_batch_floor_names_the_largest_scale():
    # a batch below its floor names the row of the largest k (b - a), here
    # 30 at nu = 900, and carries tol over that row's scale
    eps = np.finfo(float).eps
    with pytest.raises(ToleranceFloorError, match="for nu = 900.0") as err:
        magnus_prufer(_constant(0.0), np.array([100.0, 900.0, 4.0]),
                      (0.0, np.array([2.0, 1.0, 3.0])), (0.0, 1.0), 250 * eps)
    assert (err.value.tol, err.value.floor) == (250 * eps / 30.0, 10 * eps)
    # and every row of an angle runs forward
    with pytest.raises(DomainValidationError, match=r"a < b, got \(2\.0, 1"):
        magnus_prufer(_constant(0.0), 1.0, (np.array([0.0, 2.0]), 1.0),
                      (0.0, 1.0), 1e-10)


@pytest.mark.parametrize("call, shapes", [
    (lambda p: solve_k2(p, 1, np.array([1.0]), np.array([5.0, 6.0])),
     ["mu (1,)", "s_max (2,)"]),
    (lambda p: profile_from_k2(p, 1, np.array([1.0, 2.0]), 0.02, 20),
     ["profile_from_k2 takes one mu and one r_min", "mu (2,)", "r_min ()"]),
    (lambda p: profile_from_k2(p, 1, np.array([1.0, 2.0]), np.full(3, 0.02),
                               20),
     ["profile_from_k2 takes one mu and one r_min", "mu (2,)", "r_min (3,)"]),
    (lambda p: profile_from_k2(p, 1, np.array([1.0, 2.0]), np.array([0.02]),
                               20),
     ["profile_from_k2 takes one mu and one r_min", "mu (2,)", "r_min (1,)"]),
    (lambda p: magnus_dense(_constant(0.0), (np.zeros(3), np.ones(3)),
                            (np.array([1.0, 2.0]), 0.0), 1e-10, None),
     ["a (3,)", "b (3,)", "u(a) (2,)"]),
    (lambda p: magnus_log_derivative(_constant(0.0), (0.0, np.ones(3)),
                                     (np.array([1.0, 2.0]), 0.0), 1e-10),
     ["b (3,)", "u(a) (2,)"]),
    (lambda p: magnus_dense(_constant(0.0), (np.zeros((2, 2)), 1.0),
                            (1.0, 0.0), 1e-10, None), ["a (2, 2)"]),
    (lambda p: magnus_log_derivative(_constant(0.0), (np.array([]), 1.0),
                                     (1.0, 0.0), 1e-10),
     ["a (0,)"]),
    (lambda p: magnus_prufer(_constant(0.0), np.array([1.0, 2.0]),
                             (0.0, np.ones(3)), (1.0, 0.0), 1e-10),
     ["nu (2,)", "b (3,)"]),
    (lambda p: tip_anchor(p, 1, np.ones((2, 2)), 1e-12), ["mu (2, 2)"])],
    ids=["k2-1-2", "profile-array", "profile-2-3", "profile-2-1",
         "dense-2-3", "end-2-3", "dense-2d", "end-empty", "angle-2-3",
         "anchor-2d"])
def test_rows_of_unequal_length_are_refused(p_default, call, shapes):
    # the 1-D arguments of a batch share one length of at least 1: a row
    # that one argument lacks is refused, naming every argument's shape,
    # instead of being dropped or failing inside numpy, and so are a 2-D
    # argument and an empty batch; profile_from_k2 takes one mu and one
    # r_min only
    with pytest.raises(DomainValidationError) as err:
        call(p_default)
    for shape in shapes:
        assert shape in str(err.value)


def test_ode_failure_reports_location():
    # a well too deep for the first mesh: the dense pass names the row and
    # the start x of the interval that turns the state by pi or more
    with pytest.raises(IntegrationError,
                       match=r"^a Magnus interval of row 0 at x = 0\.0 turns "
                             r"the state by up to 31\.3 >= pi$") as err:
        _dense(_constant(-1e6 - 1.0), (0.0, 2.0), (1.0, 0.0), 1e-10)
    assert 0.0 <= err.value.location <= 2.0


def test_ode_endpoint_only_failure_reports_location():
    # a potential that is infinite past r = 1 leaves a propagator that is
    # not finite: an IntegrationError at the first node past it, and no
    # RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError,
                           match=r"^the Magnus propagation of row 0 is not "
                                 r"finite at x = 1\.03125$") as err:
            magnus_log_derivative(
                lambda x, rows: np.where(x > 1.0, np.inf, 0.0), (0.0, 2.0),
                (1.0, 0.0), 1e-10)
    assert 1.0 < err.value.location <= 1.0 + 2.0 / 64


def test_magnus_interval_past_the_double_range_carries_its_scale():
    # an interval whose cosh(s) passes the double range (s = 31250 and 156
    # on the first meshes below) is propagated as e^-s exp(Omega) with s in
    # its row's log: the end log-derivative of u'' = 10^12 u is the rate
    # 10^6, and the angle through a barrier of 10^8 from (0, 1) is
    # atan(tanh(10^4) / 10^4), with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        end, = magnus_log_derivative(_constant(1e12), (0.0, 2.0),
                                     (1.0, 0.0), 1e-10)
        (theta,), _ = magnus_prufer(_constant(1e8), 1.0, (0.0, 1.0),
                                    (0.0, 1.0), 1e-12)
    assert end == pytest.approx(1e6, rel=1e-12)
    assert theta == pytest.approx(math.atan(1e-4), rel=0.0, abs=1e-12)


def _sequential_states(E, log, start):
    """The oracle of _tree_scan: each row's node states by a plain loop of
    2x2 products, interval by interval, each state kept at max-norm 1 with
    its log scale, and the condition |P_j| |start| / |state_j| of node j,
    P_j the propagator over intervals 0 .. j - 1, by which any order of
    the products may scale its rounding error."""
    rows, m = log.shape
    scales, cond = np.zeros((rows, m + 1)), np.ones((rows, m + 1))
    states = np.empty((2, rows, m + 1))
    for r in range(rows):
        y, P, y_log, P_log = start[:, r], np.eye(2), 0.0, 0.0
        states[:, r, 0] = y
        for j in range(m):
            y, P = E[:, :, r, j] @ y, E[:, :, r, j] @ P
            y_big, P_big = np.abs(y).max(), np.abs(P).max()
            y, y_log = y / y_big, y_log + log[r, j] + math.log(y_big)
            P, P_log = P / P_big, P_log + log[r, j] + math.log(P_big)
            states[:, r, j + 1], scales[r, j + 1] = y, y_log
            cond[r, j + 1] = (math.exp(P_log - y_log)
                              * np.abs(start[:, r]).max())
    return scales, states, cond


@pytest.mark.parametrize("m", [2, 64, 1024])
def test_tree_scan_matches_a_sequential_product_loop(m):
    # random propagators near I on 4 rows, row 1 with an interval of
    # exponent 750 (a far interval, carried in log), which makes it the one
    # rescaled row: every node state agrees with the sequential loop's to
    # 1024 eps cond max(1, |log scale|).  Over seeds 0 to 7 and m <= 1024
    # the error measured at most 72 eps cond on the unscaled rows and
    # 7.4 eps cond |log scale| on the rescaled one (whose log, about 750,
    # rounds at 1.1e-13): a margin of 14 or more
    rng = np.random.default_rng(0)
    E = np.eye(2)[:, :, None, None] + 0.05 * rng.standard_normal((2, 2, 4, m))
    log = np.zeros((4, m))
    log[1, m // 2] = 750.0
    start = rng.standard_normal((2, 4))
    want_log, want, cond = _sequential_states(E, log, start)
    got_log, got = _tree_scan(E.copy(), log.copy(), start, True)
    assert np.count_nonzero(got_log, axis=1).tolist() == [0, m, 0, 0]
    err = np.abs(got * np.exp(got_log - want_log) - want).max(axis=0)
    eps = np.finfo(float).eps
    assert np.all(err <= 1024 * eps * cond * np.maximum(1.0, np.abs(want_log)))
    # the end-only scan is the dense one's node m, and each row of the
    # batch is its one-row scan's, bit for bit
    end_log, end = _tree_scan(E.copy(), log.copy(), start, False)
    assert end_log.tobytes() == got_log[:, ::m].tobytes()
    assert end.tobytes() == got[..., ::m].tobytes()
    for r in range(4):
        one = _tree_scan(E[:, :, r:r + 1].copy(), log[r:r + 1].copy(),
                         start[:, r:r + 1], True)
        assert one[0].tobytes() == got_log[r:r + 1].tobytes()
        assert one[1].tobytes() == got[:, r:r + 1].tobytes()


def _magnus_end(potential, b, m):
    """(u(b), u'(b)) of u'' = V u from (1, 0) at 0, on m equal intervals,
    through the interval propagators and the tree scan alone."""
    E, log = _magnus_propagators(potential, np.zeros(1), np.zeros(1),
                                 np.array([b / m]), m, np.arange(1))
    scales, states = _tree_scan(E, log, np.array([[1.0], [0.0]]), False)
    return np.exp(scales[0, -1]) * states[:, 0, -1]


def test_magnus_step_is_of_order_six_and_its_ladder_of_order_eight():
    # u = e^(x^2/2) solves u'' = (x^2 + 1) u on [0, 2] from (1, 0): from
    # mesh 8 to 128 the step's end-value error falls by 2^6 a doubling
    # (59.6 to 63.7 measured) and the gap between successive Richardson
    # values t_m = v_2m + (v_2m - v_m) / 63 by 2^8 (238 and 257 measured),
    # as _richardson's divisors 63 and 255 take them to.  A fourth-order
    # step gives about 16 and 64, so the kernel and the ladder cannot drift
    # apart unseen
    meshes = [8, 16, 32, 64, 128]
    v = [_magnus_end(lambda x, rows: x * x + 1.0, 2.0, m)[0] for m in meshes]
    err = [abs(u - math.exp(2.0)) for u in v]
    assert all(e / f >= 48.0 for e, f in zip(err, err[1:]))
    t = [fine + (fine - coarse) / 63.0 for coarse, fine in zip(v, v[1:])]
    gap = [abs(fine - coarse) for coarse, fine in zip(t, t[1:])]
    assert all(e / f >= 192.0 for e, f in zip(gap, gap[1:]))
    # a constant V is propagated exactly: what is left is the products'
    # rounding, at most m eps of the state (118 eps of cosh 4 measured)
    eps = np.finfo(float).eps
    for m in meshes:
        for V, exact in ((-1.0, [math.cos(2.0), -math.sin(2.0)]),
                         (4.0, [math.cosh(4.0), 2.0 * math.sinh(4.0)])):
            got = _magnus_end(lambda x, rows: np.full(x.shape, V), 2.0, m)
            assert np.abs(got - exact).max() <= m * eps * max(map(abs, exact))


# ---------------------------------------------------------------------------
# Represented ranges
# ---------------------------------------------------------------------------


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
    (theta,), _ = magnus_prufer(
        lambda r, rows: liouville_potential(p_default, 0, r), nu, (a, b),
        oracle_liouville_bessel(p_default.c, nu, a), 1e-12)
    zeros = bessel_zero_count((p_default.c - 1) / 2, k * a, k * b)
    u, du = oracle_liouville_bessel(p_default.c, nu, b)
    assert math.floor(theta / math.pi) == zeros
    assert theta == pytest.approx(
        math.pi * zeros + math.atan2(k * u, du) % math.pi, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("nu", [4.0, 100.0, 900.0])
def test_magnus_prufer_slope_in_closed_form(nu):
    # V = 0 from (u, u') = (0, 1) at 0, start data free of nu: u =
    # sin(k r) / k with k = sqrt(nu), so theta(b) = k b and its slope is
    # b / (2 k).  Magnus is exact on a constant V, so the first mesh, 64
    # intervals, is accepted, and the slope carries the corrected
    # trapezoid's error of order (k h)^4 there, not tol (measured: 1.5e-8
    # at nu = 100, 3.3e-7 at nu = 900, where k h = 0.94)
    (theta,), (slope,) = magnus_prufer(_constant(0.0), nu, (0.0, 2.0),
                                       (0.0, 1.0), 1e-12)
    assert theta == pytest.approx(2.0 * math.sqrt(nu), rel=1e-13)
    assert slope == pytest.approx(1.0 / math.sqrt(nu), rel=1e-6)


def test_magnus_prufer_refuses_a_tolerance_below_its_floor():
    # the floor is 10 eps per unit of theta's scale k (b - a) = 20: the
    # floor error carries tol / 20 and the floor 10 eps, as an ODE one
    eps = np.finfo(float).eps
    magnus_prufer(_constant(0.0), 100.0, (0.0, 2.0), (0.0, 1.0), 200 * eps)
    with pytest.raises(ToleranceFloorError, match="tol=") as err:
        magnus_prufer(_constant(0.0), 100.0, (0.0, 2.0), (0.0, 1.0),
                      190 * eps)
    assert isinstance(err.value, DomainValidationError)
    assert (err.value.tol, err.value.floor, err.value.solver) == \
        (190 * eps / 20.0, 10 * eps, "ODE")


@pytest.mark.parametrize("level, message", [
    (-1e6, r"^a Magnus interval of row 1 at x = 0\.0 turns the state by up "
           r"to 15\.6 >= pi$"),
    (math.inf, r"^the Magnus propagation of row 1 is not finite at "
               r"x = 0\.015625$")], ids=["deep-well", "infinite-potential"])
def test_magnus_prufer_fails_loudly(level, message):
    # a well too deep for the first mesh of 64 intervals, and an infinite
    # potential, each on the second row of a batch (nu = 1 and 4): the
    # kernel names the failing row and the position x, its location, which
    # for an angle is the radius; the pass that calls it names nu
    with pytest.raises(IntegrationError, match=message) as err:
        magnus_prufer(lambda x, rows: np.where(rows[:, None] == 1, level,
                                               np.zeros_like(x)),
                      np.array([4.0, 1.0]), (0.0, 1.0), (0.0, 1.0), 1e-12)
    assert err.value.row == 1
    assert 0.0 <= err.value.location <= 1.0


# ---------------------------------------------------------------------------
# Log-space quadrature
# ---------------------------------------------------------------------------


def test_quad_log_polynomial_from_zero():
    # a = 0 takes the leading panel [0, first edge]
    (sign,), (log_val,), (log_err,) = quad_log(
        lambda x, rows: (1.0, 2.0 * np.log(x)), 0.0, 1.0, 1e-12)
    assert sign == 1
    assert log_val == pytest.approx(math.log(1.0 / 3.0), rel=1e-12)
    assert log_err < math.log(1e-12 / 3.0)


def test_quad_log_span_past_the_double_range():
    # b/a = 1e310 overflows: the span is read as log b - log a, 714
    # e-folds, the row takes 64 first panels of at most 16 e-folds, and no
    # overflow warning is raised
    widths = []

    def f(x, rows):
        widths.append(x.shape[1])
        return 1.0, 2.0 * np.log(x)

    (sign,), (log_val,), _ = quad_log(f, 1e-300, 1e10, 1e-12)
    assert widths[0] == 64 * 16
    assert sign == 1
    assert log_val == pytest.approx(math.log(1e30 / 3.0), rel=1e-12)


def test_quad_log_very_wide_rows_keep_their_first_panels_narrow():
    # int e^-x on rows from 142 to 714 e-folds wide, and a log-normal bump
    # centred at 1e-150 on [1e-200, 1], at tol 1e-10: with first panels up
    # to 86 e-folds wide (8 panels, or 1 per 86 e-folds past the double
    # range) they came out 3.9e-8 low from 165 e-folds on, 2.8e-4 and 13%
    # low on [1e-300, 100] and [1e-300, 1e10], and the bump at half its
    # value, each with an estimate of 0 or near it.  No first panel wider
    # than 16 e-folds gets each row right to 2e-14.  [1e-300, 1e300] cannot
    # close within 1024 panels and names its interval.
    a = np.array([1e-60, 1e-70, 1e-150, 1e-300, 1e-300, 1e-300])
    b = np.array([50.0, 50.0, 50.0, 50.0, 100.0, 1e10])
    sign, log_val, log_err = quad_log(lambda x, rows: (1.0, -x), a, b, 1e-10)
    exact = np.log(np.exp(-a) - np.exp(-b))
    assert np.all(sign == 1)
    assert np.max(np.abs(log_val - exact)) <= 2e-14
    assert np.all(log_err <= math.log(1e-10) + log_val)
    centre = math.log(1e-150)
    (sign,), (log_val,), (log_err,) = quad_log(
        lambda x, rows: (1.0, -0.5 * (np.log(x) - centre) ** 2 - np.log(x)),
        1e-200, 1.0, 1e-10)
    assert sign == 1
    assert log_val == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=2e-14)
    assert log_err <= math.log(1e-10) + log_val
    with pytest.raises(QuadratureError,
                       match=r"on \[1e-300, 1e\+300\] did not reach"):
        quad_log(lambda x, rows: (1.0, -x), 1e-300, 1e300, 1e-10)


def test_quad_log_gaussian_moment():
    # int_0^inf exp(-s^2) s^c ds = Gamma((c+1)/2) / 2; the tail past 12 is
    # below exp(-140), and the integrand carries an offset of exp(-900),
    # far below the double range
    c = 3.75
    (sign,), (log_val,), _ = quad_log(
        lambda s, rows: (1.0, -s * s + c * np.log(s) - 900.0),
        0.0, 12.0, 1e-12)
    assert sign == 1
    exact = math.log(oracle_gamma((c + 1.0) / 2.0) / 2.0) - 900.0
    assert log_val - exact == pytest.approx(0.0, abs=1e-12)


def test_quad_log_signed_cancellation():
    # int_0^(10 pi + 1) cos x dx = sin 1, against int |cos x| dx ~ 20.8
    b = 10.0 * math.pi + 1.0
    (sign,), (log_val,), (log_err,) = quad_log(
        lambda x, rows: (np.sign(np.cos(x)),
                         np.log(np.abs(np.cos(x))) + 800.0),
        0.0, b, 1e-12)
    assert sign == 1
    assert log_val - 800.0 == pytest.approx(math.log(math.sin(1.0)),
                                            abs=1e-11)
    assert log_err - 800.0 < math.log(1e-12 * 21.0)
    (sign,), (log_val,), _ = quad_log(
        lambda x, rows: (-np.sign(np.cos(x)), np.log(np.abs(np.cos(x)))),
        0.0, b, 1e-12)
    assert sign == -1
    assert log_val == pytest.approx(math.log(math.sin(1.0)), abs=1e-11)


def test_quad_log_zero_integrand():
    for got in (quad_log(lambda x, rows: (1.0, np.full_like(x, -np.inf)),
                         0.0, 1.0, 1e-12),
                quad_log(lambda x, rows: (np.zeros_like(x), np.zeros_like(x)),
                         0.5, 1.0, 1e-12)):
        assert [v.tolist() for v in got] == [[0], [-math.inf], [-math.inf]]


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
    (sign,), (log_val,), _ = quad_log(lambda x, rows: (1.0, np.zeros_like(x)),
                                      a[0], b[0], 1e-10)
    assert sign == 1
    assert log_val == pytest.approx(math.log(b[0] - a[0]), abs=1e-12)


def test_quad_log_narrow_peak_not_clipped():
    # f(r) = r^20 exp(-r/1e-5) peaks at r = 2e-4 with a relative width of
    # ~20%.  An evenly spaced probe of [1e-6, 1] steps over the peak, and
    # a shift taken from that probe with the exponent clipped at 50 loses
    # a factor ~exp(34); the node maximum of each level cannot miss it.
    (sign,), (log_val,), _ = quad_log(
        lambda r, rows: (1.0, 20.0 * np.log(r) - r / 1e-5), 1e-6, 1.0, 1e-12)
    exact = math.lgamma(21.0) + 21.0 * math.log(1e-5)
    assert exact == pytest.approx(-199.43582, abs=1e-5)
    assert sign == 1
    assert log_val == pytest.approx(exact, abs=1e-10)


def test_quad_log_narrow_rows_match_the_mu0_tip_density(p_default):
    # rows under 8 e-folds wide start below 8 panels: the steep density
    # f^2 w of the mu = 0 decaying tip branch, f = k2 s^beta at s = r^-eps,
    # with k2 from the closed form (oracle_tip_branch_mu0), on one row of
    # 0.6 e-folds below the tip-window top (a first level of 1 panel) and
    # summed over the 64 segments of the demo's elliptic scan (0.7 e-folds,
    # then 63 of 0.019), against mpmath's Gauss-Legendre on the same closed
    # form at 20 digits.  Measured: 1.4e-15 and 6.6e-16 apart; the bound
    # 1e-13 holds both with a margin of 70 or more.
    p = p_default
    q = (p.c - 1.0) / (2.0 * p.eps)
    rho, beta = tip_rate(p, 1), tip_exponent(p)

    def log_density(x, rows):
        s = x ** -p.eps
        log_f = _tip_log(p, s, x, *oracle_tip_branch_mu0(p, 1, s))[0]
        return 1.0, 2.0 * log_f + measure_weight_log(p, x)

    top = tip_window_top(p, 0.0)
    grid = np.concatenate([[0.02], np.geomspace(0.04, 0.13, 64)])
    got = [quad_log(log_density, top * math.exp(-0.6), top, 1e-12)[1][0],
           np.log(np.sum(np.exp(quad_log(log_density, grid[:-1], grid[1:],
                                         1e-12)[1])))]
    with mp.workdps(20):
        # k2 = sqrt(s / s0) K_q(rho s) / (K_q(rho s0) (1 - kappa(s0))), the
        # oracle's Wronskian scale at s0 = r_mu
        s0 = mp.mpf(r_mu(p, 0.0))
        K0 = mp.besselk(q, rho * s0)
        kappa0 = 0.5 / s0 - rho * (mp.besselk(q - 1, rho * s0)
                                   + mp.besselk(q + 1, rho * s0)) / (2 * K0)

        def density(r):
            s = r ** -mp.mpf(p.eps)
            k2 = mp.sqrt(s / s0) * mp.besselk(q, rho * s) / (K0 * (1 - kappa0))
            return (k2 * s ** beta) ** 2 * 2 ** (1 - p.n) * r ** p.c

        exact = [mp.quad(density, ends, method="gauss-legendre")
                 for ends in ([top * math.exp(-0.6), top], [0.02, 0.04, 0.13])]
        for log_val, value in zip(got, exact):
            assert abs(float(mp.exp(log_val) / value) - 1.0) <= 1e-13


def test_quad_log_rejects_bad_arguments():
    f = lambda x, rows: (1.0, np.zeros_like(x))
    for a, b in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(DomainValidationError):
            quad_log(f, a, b, 1e-8)
    # an interval that is not finite is refused by name with its row's
    # values, not left to fail inside the integrand
    for a, b in ((0.0, math.inf), (0.5, math.nan), (math.nan, 1.0),
                 (np.array([0.0, 1.0]), np.array([1.0, math.inf]))):
        with pytest.raises(DomainValidationError,
                           match=r"^quad_log needs 0 <= a < b < inf, got "
                                 r"\[(0\.0, inf|0\.5, nan|nan, 1\.0|1\.0, "
                                 r"inf)\]$"):
            quad_log(f, a, b, 1e-8)
    for tol in (0.0, -1e-8):
        with pytest.raises(DomainValidationError):
            quad_log(f, 0.0, 1.0, tol)
    # the one batch rule (row_count): a length-1 a is not stretched over
    # three intervals, and lengths 2 and 3 are refused by name, not by
    # numpy's broadcasting
    for a in (np.array([0.0]), np.array([0.0, 0.0])):
        with pytest.raises(DomainValidationError,
                           match=rf"quad_log .* a \({a.size},\), b \(3,\)"):
            quad_log(f, a, np.array([1.0, 2.0, 3.0]), 1e-8)


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
    (8192, [[0, 3], [5], [2, 4], [1]]),
    # two rows of 9 panels or fewer a call, one of 17
    (300, [[0, 3], [5], [2, 4], [1], [0], [3]]),
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
        assert [v.shape for v in one] == [(1,)] * 3
        assert (sign[j], log_val[j], log_err[j]) == tuple(v[0] for v in one)
    assert (sign[4], log_val[4], log_err[4]) == (0, -math.inf, -math.inf)
    assert sign[5] == -1
    assert log_val[5] == pytest.approx(math.log(math.log(2.0)), rel=1e-14)
    # the first level takes the rows with a = 0, then the others by their
    # first panel count (rows 5, 2 and 4, 1: spans of 0.7, 2.8 and 2.7,
    # 13.8 e-folds), each group in as few calls as the cap allows, and a
    # call past the cap holds a single row
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
    assert calls == [((2, 144), [0, 3]), ((1, 16), [5]), ((2, 64), [2, 4]),
                     ((1, 128), [1]), ((2, 272), [0, 3]), ((1, 32), [5]),
                     ((2, 128), [2, 4]), ((1, 256), [1]),
                     ((1, 528), [3]), ((1, 512), [1])]


def test_quad_log_batch_row_past_the_cap_names_its_interval():
    # sin(1/x)/x on row 1 cannot be resolved; rows 0 and 2 close early, and
    # the error names row 1's interval; row 2, the narrowest, opens the
    # first level
    open_rows = []

    def f(x, rows):
        open_rows.append(rows.tolist())
        v = np.where((rows == 1)[:, None], np.sin(1.0 / x) / x, x * x)
        return np.sign(v), np.log(np.abs(v))

    with pytest.raises(QuadratureError,
                       match=r"on \[1e-08, 1.0\] did not reach") as err:
        quad_log(f, [0.25, 1e-8, 2.0], [1.0, 1.0, 3.0], 1e-10)
    assert open_rows[0] == [2] and open_rows[-1] == [1]
    assert math.isfinite(err.value.estimate[1])


def test_quad_log_batch_nan_names_its_row():
    def f(x, rows):
        return 1.0, np.where((rows == 1)[:, None] & (x > 0.5), np.nan, 0.0)

    with pytest.raises(QuadratureError,
                       match=r"not finite at x = 0\.5.* on \[0\.25, 1\.0\]"):
        quad_log(f, [0.0, 0.25], [1.0, 1.0], 1e-8)


# ---------------------------------------------------------------------------
# Root finding: scipy's brentq, with which the nodal-sphere tests place
# their radius
# ---------------------------------------------------------------------------


def test_root_sqrt2():
    assert brentq(lambda x: x * x - 2.0, 1.0, 2.0, xtol=1e-12) == \
        pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_root_bessel_zero():
    root = brentq(lambda x: bessel_j(0.0, x), 2.0, 3.0, xtol=1e-12)
    assert root == pytest.approx(J0_FIRST_ZERO, abs=1e-10)


def test_root_cosine():
    assert brentq(math.cos, 0.0, 2.0, xtol=1e-12) == \
        pytest.approx(math.pi / 2, rel=1e-12)


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
