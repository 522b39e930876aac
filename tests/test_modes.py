import math
import re

import mpmath as mp
import numpy as np
import pytest
from support import (magnus_sweeps, oracle_gamma, oracle_tip_branch_mu0,
                     second_derivative_5pt, tip_states)

from hornlab import (ConsistencyError, DomainValidationError,
                     IntegrationError, RadialProfile,
                     decay_exponent_fit, make_horn_params,
                     normalization_bound, profile_from_k2, r_mu, solve_k1,
                     solve_k2, sphere_eigenvalue, tip_exponent, tip_rate)
from hornlab import modes, numerics
from hornlab.modes import (_bounded_branch, _in_sigma, _q_factory, _tip_dense,
                           _tip_rows, tip_anchor, tip_window_top)


# ---------------------------------------------------------------------------
# threshold radius
# ---------------------------------------------------------------------------


def test_r_mu_default(p_default):
    # max( sqrt(2.25*3.25), (1.125*1.625)^(-1/4) ) = max(2.7042, 0.8600)
    val = r_mu(p_default, 1.0)
    assert val == pytest.approx(math.sqrt(2.25 * 3.25), rel=1e-14)
    second = (1.125 * 1.625) ** -0.25
    assert second == pytest.approx(0.86, abs=5e-3)
    assert val > second


def test_r_mu_harmonic_branch(p_default):
    # mu = 0 drops the second branch of the max
    beta = tip_exponent(p_default)
    assert r_mu(p_default, 0.0) == pytest.approx(
        math.sqrt(beta * (beta + 1.0)), rel=1e-15)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_r_mu_defining_inequality(p_default, mu):
    # 0 <= A s^-2 - (mu/eps^2) s^(-2/eps-2) <= 1 for s >= r_mu, asserted at
    # the threshold and a decade above it; at i = 0 the whole coefficient
    # q(s) is that bracket
    for s in (r_mu(p_default, mu), 10.0 * r_mu(p_default, mu)):
        val = _q_factory(p_default, 0, mu)(s)
        assert -1e-12 <= val <= 1.0 + 1e-12


@pytest.mark.parametrize("args", [(3, 4, 0.5, 0.25), (2, 3, 0.5, 0.25),
                                  (4, 6, 0.3, 0.5)])
@pytest.mark.parametrize("i", [1, 2])
def test_q_slope_is_its_derivative(args, i):
    # the closed-form q'(s) against mpmath's derivative of q in 30 digits,
    # q written out again and checked against _q_factory's first, from
    # r_mu up; at mu = 300 the second branch of r_mu binds (default point)
    p = make_horn_params(*args)
    for mu in (0.0, 1.0, 300.0):
        q = _q_factory(p, i, mu)
        ss = r_mu(p, mu) + np.array([0.0, 0.1, 0.5, 2.0, 10.0])
        with mp.workdps(30):
            eps, c, mu_i, m = (mp.mpf(v) for v in (
                p.eps, p.c, sphere_eigenvalue(p.n, i), mu))
            beta = (c - 1 - eps) / (2 * eps)

            def oracle(s):
                return (beta * (beta + 1) / (s * s) + 4 * mu_i / eps ** 2
                        - m / eps ** 2 * s ** (-2 / eps - 2))

            value = [float(oracle(mp.mpf(s))) for s in ss]
            slope = [float(mp.diff(oracle, mp.mpf(s))) for s in ss]
        np.testing.assert_allclose(q(ss), value, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(q.slope(ss), slope, rtol=1e-12, atol=0.0)


def test_r_mu_rejects_negative(p_default):
    with pytest.raises(DomainValidationError):
        r_mu(p_default, -1.0)


# ---------------------------------------------------------------------------
# growing branch
# ---------------------------------------------------------------------------


def test_k1_initial_data(p_default):
    s0 = r_mu(p_default, 1.0)
    sol = solve_k1(p_default, 1, 1.0, s0 + 3.0)
    y = tip_states(sol, s0)
    assert y[0] == pytest.approx(1.0, rel=1e-12)
    assert y[1] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("i,mu", [(1, 0.5), (1, 1.0), (1, 2.0),
                                  (2, 0.5), (2, 1.0), (2, 2.0)])
def test_k1_sandwich(p_default, i, mu):
    # e^((rho+1)(s-r_mu)) >= k1 >= (1/rho) e^(rho (s-r_mu)) pointwise
    s0 = r_mu(p_default, mu)
    rho = tip_rate(p_default, i)
    sol = solve_k1(p_default, i, mu, s0 + 3.0)
    ss = np.linspace(s0, s0 + 3.0, 101)
    k = tip_states(sol, ss)[0]
    assert np.all(k <= np.exp((rho + 1.0) * (ss - s0)) * (1 + 1e-10))
    assert np.all(k >= np.exp(rho * (ss - s0)) / rho * (1 - 1e-10))


def test_k1_constant_coefficient_limit(p_default):
    # with the s^-2 and s^(-2/eps-2) terms removed the equation is
    # constant-coefficient: the growing branch's sweep and interpolant give
    # k = cosh + sinh/rho from the data (1, 1), and its derivative
    rho = tip_rate(p_default, 1)
    s0 = r_mu(p_default, 1.0)

    def q(s):
        return np.full_like(s, rho * rho)

    q.slope = np.zeros_like
    k = _tip_rows(p_default, rho, ([s0], [s0 + 2.0]),
                  _tip_dense(_in_sigma(lambda rows: q, rho, (s0, s0 + 2.0),
                                       (1.0, 1.0)), 1e-12))
    for ds in (0.0, 0.05, 0.5, 1.0, 2.0):
        exact = [math.cosh(rho * ds) + math.sinh(rho * ds) / rho,
                 rho * math.sinh(rho * ds) + math.cosh(rho * ds)]
        assert tip_states(k, s0 + ds) == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# decaying branch
# ---------------------------------------------------------------------------


def test_k2_is_solution(p_default):
    # finite-difference residual of the normal-form equation
    from hornlab.modes import _q_factory
    q = _q_factory(p_default, 1, 1.0)
    s0 = r_mu(p_default, 1.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    for s in np.linspace(s0 + 0.3, s0 + 2.7, 7):
        f = lambda t: tip_states(k2, t)[0]
        res = second_derivative_5pt(f, s, 1e-3) - q(s) * f(s)
        assert abs(res) <= 1e-6 * abs(q(s) * f(s))


def test_k1_k2_wronskian_constant(p_default):
    s0 = r_mu(p_default, 1.0)
    k1 = solve_k1(p_default, 1, 1.0, s0 + 3.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    vals = []
    for s in np.linspace(s0, s0 + 3.0, 23):
        a, ap = tip_states(k1, s)
        b, bp = tip_states(k2, s)
        vals.append(a * bp - ap * b)
    vals = np.array(vals)
    # variation-of-parameters construction fixes the constant at -1
    assert np.all(np.abs(vals + 1.0) <= 1e-8)


def test_k2_two_sided_bounds(p_default):
    # rates (-rho-2) and (-rho+1) bracket log k2 at r_mu + 2
    rho = tip_rate(p_default, 1)
    s0 = r_mu(p_default, 1.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    v = tip_states(k2, s0 + 2.0)[0]
    lo = math.exp((-rho - 2.0) * 2.0) / (2.0 * (rho ** 2 + rho))
    hi = (rho / 2.0) * math.exp((-rho + 1.0) * 2.0)
    assert lo <= v <= hi


def test_k2_anchor_box(p_default):
    # k2(r_mu)^2 + k2'(r_mu)^2 is pinned inside an explicit positive box
    rho = tip_rate(p_default, 1)
    s0 = r_mu(p_default, 1.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    L, kappa = k2.tip_log(s0)
    v = math.exp(L)
    vp = kappa * v
    energy = v * v + vp * vp
    assert 0.0 < energy < float("inf")
    # the value itself obeys the two-sided bounds at zero offset
    assert 1.0 / (2.0 * (rho ** 2 + rho)) <= v <= rho / 2.0
    assert k2.table[8, 0] <= 1e-12


def test_k2_long_span(p_default):
    # rho * span = 340: k1 would overflow there, the log-space Riccati
    # branch does not, and it agrees with a short solve where they overlap
    s0 = r_mu(p_default, 1.0)
    long = solve_k2(p_default, 1, 1.0, s0 + 60.0)
    assert tip_rate(p_default, 1) * 60.0 > 280.0
    assert long.table[8, 0] <= 1e-12
    short = solve_k2(p_default, 1, 1.0, s0 + 10.0)
    ss = np.linspace(s0, s0 + 10.0, 41)
    assert np.max(np.abs(long.tip_log(ss)[0] - short.tip_log(ss)[0])) <= 1e-10
    assert long.tip_log(s0 + 60.0)[0] < -330.0


def test_k2_rows_equal_single_calls(p_default):
    # solve_k2 on arrays of mu builds every row in one batched pass; each
    # branch is its all-scalar call's one row bit for bit, on spans that
    # start and end at different s
    mus = [100.0, 1.0, 600.0, 10.0]
    tops = [r_mu(p_default, mu) + span for mu, span in
            zip(mus, (3.0, 10.0, 5.0, 2.0))]
    k2 = solve_k2(p_default, 2, mus, tops)
    for row, (mu, top) in enumerate(zip(mus, tops)):
        one = solve_k2(p_default, 2, mu, top)
        assert one.table.shape == (9, 1)
        # the represented range and the start uncertainty
        assert k2.table[6:, row].tolist() == one.table[6:, 0].tolist()
        ss = np.linspace(r_mu(p_default, mu), top, 33)
        assert np.concatenate(k2.tip_log(ss, row)).tobytes() == \
            np.concatenate(one.tip_log(ss)).tobytes()


def test_k2_sandwich_failure_names_the_row_mu_and_radius(p_default,
                                                         monkeypatch):
    # the second row's offset moved 30 below the lower line leaves every
    # point of that row outside the bracket: the certificate names the
    # decaying branch, that row's mu and the first radius at fault, its
    # tip window top
    check = modes._check_sandwich

    def moved(tips, *args):
        tips.table[1, 1] -= 30.0
        return check(tips, *args)

    monkeypatch.setattr(modes, "_check_sandwich", moved)
    mus = [1.0, 10.0, 100.0]
    with pytest.raises(ConsistencyError) as err:
        solve_k2(p_default, 2, mus, [r_mu(p_default, mu) + 3.0 for mu in mus])
    found = re.fullmatch(r"the decaying tip branch at mu = 10\.0 violates its "
                         r"two-sided exponential bounds at r = (\S+)",
                         str(err.value))
    assert found
    assert float(found[1]) == pytest.approx(tip_window_top(p_default, 10.0),
                                            rel=1e-12)


def test_k2_sandwich_reads_every_row_in_one_tip_log_call(p_default,
                                                        monkeypatch):
    # the sandwich check of a 4-row build reads the 65 points of every row
    # in one tip_log call
    calls = []
    tip_log = modes.Eigenfunctions.tip_log

    def counted(self, s, rows=0):
        calls.append(np.shape(s))
        return tip_log(self, s, rows)

    monkeypatch.setattr(modes.Eigenfunctions, "tip_log", counted)
    mus = [100.0, 1.0, 600.0, 10.0]
    solve_k2(p_default, 2, mus, [r_mu(p_default, mu) + 3.0 for mu in mus])
    assert calls == [(4, 65)]


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("mu", [0.0, 1.0, 100.0])
def test_k2_kappa_comparison_interval(p_default, i, mu):
    # q lies in [rho^2, rho^2 + 1] past r_mu, which traps the decaying
    # log-derivative in [-sqrt(rho^2 + 1), -rho]
    rho = tip_rate(p_default, i)
    s0 = r_mu(p_default, mu)
    k2 = solve_k2(p_default, i, mu, s0 + 10.0)
    kappa = k2.tip_log(np.linspace(s0, s0 + 10.0, 1601))[1]
    slack = 1e-12 * rho
    assert np.all(kappa <= -rho + slack)
    assert np.all(kappa >= -math.sqrt(rho * rho + 1.0) - slack)


@pytest.mark.parametrize("i,mu,span,offsets,log_k2", [
    # recorded from the reduction-of-order construction (k1 forward, the
    # remaining integral of k1^-2 summed from the far end, analytic tail)
    (1, 1.0, 10.0, [0.0, 0.7, 2.5, 6.0, 10.0],
     [-1.9078640491364018, -5.913628037344508, -16.158677035421107,
      -36.00622808202132, -58.656622257478546]),
    (2, 100.0, 20.0, [0.0, 1.3, 5.0, 12.0, 20.0],
     [-2.379656595223876, -15.13856383304903, -51.431134054742294,
      -120.03946470371656, -198.4320070386711]),
])
def test_k2_matches_reduction_of_order(p_default, i, mu, span, offsets,
                                       log_k2):
    s0 = r_mu(p_default, mu)
    k2 = solve_k2(p_default, i, mu, s0 + span)
    got = k2.tip_log(s0 + np.array(offsets))[0]
    assert np.max(np.abs(got - np.array(log_k2))) <= 1e-10


# ---------------------------------------------------------------------------
# the closed form at mu = 0
# ---------------------------------------------------------------------------

# Agreement with the mu = 0 closed form over these points, i = 1 and 2, and
# _build_pair's tip span (40 decay e-folds and 2 more units of s), measured
# as the largest difference of each quantity below: the compiled DOP853
# that the Magnus sweeps replaced reached 3.3e-14 (anchor), 3.0e-13
# (log k2), 6.5e-13 (kappa), 7.5e-13 (log f) and 9.7e-13 (d log f/dr); the
# Magnus sweeps, read by septic Hermite interpolants, reach 1.7e-12,
# 1.4e-12, 1.8e-12, 8.2e-13 and 2.5e-12.  One tolerance, 1e-11, holds every
# one with a margin of 4 or more.
MU0_POINTS = [(3, 4, 0.5, 0.25), (2, 3, 0.5, 0.25), (3, 4, 1.0, 0.25),
              (4, 6, 0.3, 0.5)]
MU0_TOL = 1e-11
MU0_CASES = [(point, i) for point in MU0_POINTS for i in (1, 2)]
MU0_IDS = ["{}-{}-{}-{}-i{}".format(*point, i) for point, i in MU0_CASES]


def _mu0_span(point, i):
    p = make_horn_params(*point)
    s0 = r_mu(p, 0.0)
    return p, s0, s0 + 40.0 / tip_rate(p, i) + 2.0


def test_mu0_oracle_matches_mpmath_besselk():
    # the closed form reads K_q through scipy's kve: spot-checked against
    # mpmath's besselk at 40 digits, over the orders and arguments the
    # points above reach
    import mpmath
    from scipy import special
    for order, x in [(1.75, 10.0), (2.5, 60.0), (0.75, 250.0),
                     (5.5, 3.0), (4.5, 120.0)]:
        exact = mpmath.besselk(order, x) * mpmath.exp(x)
        assert special.kve(order, x) == pytest.approx(float(exact),
                                                      rel=1e-14)


@pytest.mark.parametrize("point, i", MU0_CASES, ids=MU0_IDS)
def test_tip_anchor_matches_the_mu0_closed_form(point, i):
    p, s0, _ = _mu0_span(point, i)
    (r_top,), (dlog,) = tip_anchor(p, i, 0.0, 1e-12)
    kappa = oracle_tip_branch_mu0(p, i, np.array([s0]))[1][0]
    assert dlog == pytest.approx(modes._tip_log(p, s0, r_top, 0.0, kappa)[1],
                                 rel=MU0_TOL)


@pytest.mark.parametrize("point, i", MU0_CASES, ids=MU0_IDS)
def test_k2_matches_the_mu0_closed_form(point, i):
    # log k2 in absolute terms, with the Wronskian scale, and kappa relative
    p, s0, s_max = _mu0_span(point, i)
    ss = np.linspace(s0, s_max, 401)
    k2 = solve_k2(p, i, 0.0, s_max)
    log_k, kappa = k2.tip_log(ss)
    exact_log_k, exact_kappa = oracle_tip_branch_mu0(p, i, ss)
    assert np.max(np.abs(log_k - exact_log_k)) <= MU0_TOL
    assert np.max(np.abs(kappa / exact_kappa - 1.0)) <= MU0_TOL


@pytest.mark.parametrize("point, i", MU0_CASES, ids=MU0_IDS)
def test_profile_matches_the_mu0_closed_form(point, i):
    # log f up to the profile's free constant, and d log f/dr relative, at
    # radii across the whole profile window
    p, _, s_max = _mu0_span(point, i)
    r_min = s_max ** (-1.0 / p.eps)
    prof = profile_from_k2(p, i, 0.0, r_min, n_grid=48)
    r = np.geomspace(r_min, prof.r_max, 301)
    _, log_f, dlog_f = prof.eval_log(r)
    s = r ** -p.eps
    exact_log_f, exact_dlog_f = modes._tip_log(
        p, s, r, *oracle_tip_branch_mu0(p, i, s))
    assert np.ptp(log_f - exact_log_f) <= MU0_TOL
    assert np.max(np.abs(dlog_f / exact_dlog_f - 1.0)) <= MU0_TOL


def test_k2_start_uncertainty_is_below_e_minus_30():
    # the backward start at _s_far leaves a relative kappa error of
    # (sqrt(rho^2 + 1) - rho) e^(-30 - rho) / (rho + 1) <= e^-30 at the
    # span's top: at the mu = 0 points and over rho from 1 to 196 (n, eps
    # and i swept), every row's start uncertainty is at most e^-30
    points = MU0_POINTS + [(n, N, eps, 0.25) for n, N in ((2, 3.0), (4, 6.0))
                           for eps in (0.05, 0.25, 1.0, 2.0)]
    for point in points:
        p = make_horn_params(*point)
        for i in (1, 2, 4):
            mus = [0.0, 1.0, 10.0]
            k2 = solve_k2(p, i, mus, [r_mu(p, mu) + 1.0 for mu in mus])
            assert np.all((0.0 < k2.table[8])
                          & (k2.table[8] <= math.exp(-30.0)))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_domain_end(p_default):
    # r_mu^(-1/eps) = 2.7042^(-2)
    prof = profile_from_k2(p_default, 1, 1.0, 0.02, 32)
    assert prof.r_max == pytest.approx(r_mu(p_default, 1.0) ** -2.0, rel=1e-12)
    assert prof.r_max == pytest.approx(0.13675213675213674, rel=1e-10)


def test_profile_rejects_bad_window(p_default):
    top = r_mu(p_default, 1.0) ** (-1.0 / p_default.eps)
    with pytest.raises(DomainValidationError) as err:
        profile_from_k2(p_default, 1, 1.0, top * 1.5, 32)
    assert f"{top}" in str(err.value)
    with pytest.raises(DomainValidationError):
        profile_from_k2(p_default, 1, 1.0, 0.05, 8)


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("evaluator", ["eval_log", "states", "tip_log"])
def test_range_checks_share_one_rule(evaluator, end, profile_i1_mu1,
                                     p_default):
    # the profile, the growing branch's states and the decaying branch all
    # accept a point 5e-13 |bound| past a nonzero end, and refuse one
    # 1e-11 |bound| past it and NaN
    s0 = r_mu(p_default, 1.0)
    if evaluator == "eval_log":
        fn = profile_i1_mu1.eval_log
        lo, hi = profile_i1_mu1.r_min, profile_i1_mu1.r_max
    elif evaluator == "states":
        k1 = solve_k1(p_default, 1, 1.0, s0 + 3.0)
        fn, (lo, hi) = (lambda s: tip_states(k1, s)), (s0, s0 + 3.0)
    else:
        k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
        fn, (lo, hi) = k2.tip_log, (s0, s0 + 3.0)
    bound, out = (lo, -1.0) if end == "lo" else (hi, 1.0)
    mid = 0.5 * (lo + hi)
    fn(np.array([mid, bound + out * 5e-13 * abs(bound)]))
    with pytest.raises(DomainValidationError):
        fn(np.array([mid, bound + out * 1e-11 * abs(bound)]))
    with pytest.raises(DomainValidationError):
        fn(np.array([mid, np.nan]))


def test_profile_decay_slope_bracket(profile_i1_mu1, p_default):
    rho = tip_rate(p_default, 1)
    fit = decay_exponent_fit(profile_i1_mu1)
    assert -(rho + 2.0) <= fit.slope <= -(rho - 1.0)
    rng = profile_i1_mu1.log_mag.max() - profile_i1_mu1.log_mag.min()
    assert fit.max_residual <= 0.05 * rng


def test_profile_monotone_vanishing(profile_i1_mu1):
    # log-magnitude decreasing toward the tip: strictly decreasing in s
    # past the threshold offset, and the tip value far below any r > 2 r_min
    prof = profile_i1_mu1
    past = prof.s_grid >= r_mu(prof.params, prof.mu) + 1.0
    assert np.all(np.diff(prof.log_mag[past]) < 0)
    r_min = prof.r_min
    _, lm_min, _ = prof.eval_log(np.array([r_min]))
    for r in (2.5 * r_min, 5 * r_min, prof.r_max):
        _, lm, _ = prof.eval_log(np.array([r]))
        assert lm_min[0] < lm[0]


def test_profile_log_mag_finite(profile_i1_mu1):
    assert np.all(np.isfinite(profile_i1_mu1.log_mag))
    assert np.all(profile_i1_mu1.sign == 1)
    assert profile_i1_mu1.s_grid[0] >= r_mu(profile_i1_mu1.params, 1.0) \
        - 1e-12


def test_profile_mode_ode_residual(profile_i1_mu1, p_default):
    # back-transform consistency: f'' + (c/r) f' - 4 mu_i r^(-2-2eps) f
    # + mu f = 0 in log space:  (dlog)' + dlog^2 + c/r dlog - V + mu = 0
    p = p_default
    prof = profile_i1_mu1
    mu_i = sphere_eigenvalue(p.n, 1)

    def dlog(r):
        return prof.eval_log(np.array([r]))[2][0]

    for r in np.linspace(prof.r_min * 1.3, prof.r_max * 0.9, 9):
        h = 1e-4 * r
        ddlog = (-dlog(r + 2 * h) + 8 * dlog(r + h) - 8 * dlog(r - h)
                 + dlog(r - 2 * h)) / (12 * h)
        d = dlog(r)
        resid = ddlog + d * d + (p.c / r) * d \
            - 4.0 * mu_i * r ** (-2.0 - 2.0 * p.eps) + prof.mu
        scale = abs(d * d) + 4.0 * mu_i * r ** (-2.0 - 2.0 * p.eps) + abs(prof.mu)
        assert abs(resid) <= 1e-5 * scale


def test_profile_grid_is_tabulated_on_first_read(p_default):
    # a profile evaluates nothing when it is built; the first read of sign,
    # log_mag or log_deriv tabulates the grid in one evaluator call, bit
    # for bit the eager eval_log of the grid
    base = profile_from_k2(p_default, 1, 1.0, 0.05, 20)
    calls = []

    def evaluator(r):
        calls.append(r.size)
        return base.evaluator(r)

    prof = RadialProfile(params=p_default, i=1, mu=1.0, s_grid=base.s_grid,
                         evaluator=evaluator)
    assert calls == []
    eager = base.eval_log(base.r_grid)
    for got, want in zip((prof.sign, prof.log_mag, prof.log_deriv), eager):
        assert got.tobytes() == want.tobytes()
    assert calls == [20]


def test_profile_harmonic_admitted(p_default):
    prof = profile_from_k2(p_default, 1, 0.0, 0.02, 32)
    fit = decay_exponent_fit(prof)
    assert fit.slope < 0


# ---------------------------------------------------------------------------
# bounded radial branch (i = 0)
# ---------------------------------------------------------------------------


def test_radial_mode_zero_ode_residual(p_default):
    p = p_default
    mu = 1.0
    f = lambda r: _bounded_branch(p, mu, r)[2]
    for r in (0.1, 1.0, 5.0):
        h = 1e-3 * r
        d2 = second_derivative_5pt(f, r, h)
        d1 = (-f(r + 2 * h) + 8 * f(r + h) - 8 * f(r - h) + f(r - 2 * h)) / (12 * h)
        resid = d2 + (p.c / r) * d1 + mu * f(r)
        scale = abs(d2) + abs((p.c / r) * d1) + abs(mu * f(r))
        assert abs(resid) <= 1e-7 * scale


def test_radial_mode_zero_tip_limit(p_default):
    p = p_default
    mu = 1.0
    nu = (p.c - 1.0) / 2.0
    limit = mu ** (nu / 2.0) / (2.0 ** nu * oracle_gamma(nu + 1.0))
    assert _bounded_branch(p, mu, 0.0)[2] == pytest.approx(limit, rel=1e-12)
    assert _bounded_branch(p, mu, 1e-6)[2] == pytest.approx(limit, rel=1e-9)
    assert limit > 0


def test_radial_mode_zero_scaling_identity(p_default):
    # f_0(r; mu) = mu^((c-1)/4) (r sqrt(mu))^((1-c)/2) J_((c-1)/2)(r sqrt(mu))
    from hornlab import bessel_j
    p = p_default
    nu = (p.c - 1.0) / 2.0
    for mu in (0.5, 2.0):
        for r in (0.3, 1.1):
            x = r * math.sqrt(mu)
            rhs = mu ** (nu / 2.0) * x ** (-nu) * bessel_j(nu, x)
            f = _bounded_branch(p, mu, r)[2]
            assert f == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# decay fit and normalization
# ---------------------------------------------------------------------------


def test_decay_fit_constant_profile(p_default):
    def constant(r):
        return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)

    prof = RadialProfile(params=p_default, i=1, mu=0.0,
                         s_grid=np.linspace(3.0, 8.0, 16),
                         evaluator=constant)
    assert np.all(prof.log_mag == 0.0)
    assert decay_exponent_fit(prof).slope == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("mu", [1.0, 10.0, 100.0, 600.0])
def test_tip_anchor_matches_profile_slope(p_default, i, mu):
    # the shots' endpoint-only anchor and the dense decaying branch are two
    # routes to the same d log f/dr at the tip window top
    top = tip_window_top(p_default, mu)
    (r_top,), (dlog,) = tip_anchor(p_default, i, mu, 1e-12)
    prof = profile_from_k2(p_default, i, mu, 0.5 * top, n_grid=16, tol=1e-12)
    assert r_top == prof.r_max == top
    assert dlog == pytest.approx(prof.log_deriv[0], rel=1e-11)


@pytest.mark.parametrize("mu, r_top, dlog, meshes", [
    (50.0, "0x1.1811811811811p-3", "0x1.812edfae6e3e0p+5", [64, 128, 256]),
    (300.0, "0x1.3fbe701157609p-4", "0x1.cd74eb9aa82e9p+6", [64, 128, 256])],
    ids=["mu=50", "mu=300"])
def test_tip_anchor_step_sequence_is_pinned(p_default, monkeypatch, mu, r_top,
                                            dlog, meshes):
    # the anchor's Magnus meshes, one row each, and its (r_top,
    # d log f/dr) bit for bit
    sweeps = magnus_sweeps(monkeypatch)
    (got_r,), (got_dlog,) = tip_anchor(p_default, 1, mu, 1e-12)
    assert (got_r, got_dlog) == (float.fromhex(r_top), float.fromhex(dlog))
    assert sweeps == [([0], m) for m in meshes]


@pytest.mark.parametrize("i", [1, 2])
def test_tip_anchor_batch_rows_equal_single_calls(p_default, monkeypatch, i):
    # the anchors of an array of mu, in any order, come from one batched
    # sweep, a column of mu through _q_factory, each row's (r_top, d log
    # f/dr) bit for bit its all-scalar call's one row; mu = 0 and 0.5 sit
    # on the r_mu = sqrt(A) branch, the rest above it
    mus = [50.0, 0.0, 300.0, 0.5, 12.9, 1000.0]
    single = []
    for mu in mus:
        r_top, dlog = tip_anchor(p_default, i, mu, 1e-12)
        assert r_top.shape == dlog.shape == (1,)
        single.append((r_top[0], dlog[0]))
    calls = []
    q_factory = modes._q_factory

    def recorded(p, i, mu):
        calls.append(np.shape(mu))
        return q_factory(p, i, mu)

    monkeypatch.setattr(modes, "_q_factory", recorded)
    for order in ([0, 1, 2, 3, 4, 5], [5, 3, 1, 4, 0, 2], [2, 4]):
        calls.clear()
        r_top, dlog = tip_anchor(p_default, i, np.array([mus[k]
                                                        for k in order]),
                                 1e-12)
        assert r_top.shape == dlog.shape == (len(order),)
        for k, got in zip(order, zip(r_top.tolist(), dlog.tolist())):
            assert [v.hex() for v in got] == [v.hex() for v in single[k]]
        # one scalar q a row for its start, then one column a sweep
        assert calls[:len(order)] == [()] * len(order)
        assert all(len(shape) == 2 for shape in calls[len(order):])


def test_tip_pass_failures_name_the_pass_and_the_row_mu(p_default,
                                                         monkeypatch):
    # a tip pass runs in sigma = rho s: a failure names the pass, the
    # failing row's mu and the radius, then the kernel's row and cap, with
    # the kernel's error, in sigma, as its cause.  With 64 intervals
    # allowed, no first mesh leaves room for a first Richardson estimate,
    # on 4 times that mesh, and the second row of the branches' batch is
    # refused first, before any sweep; a refused pass ends at r_mu, so its
    # radius and location are the failing row's tip window top
    monkeypatch.setattr(numerics, "_MAGNUS_MAX_INTERVALS", 64)
    for build, what, row, mu in (
            (lambda: solve_k2(p_default, 1, [1.0, 1e6], 30.0),
             "the decaying tip branch", 1, 1e6),
            (lambda: tip_anchor(p_default, 1, [1.0, 1e6], 1e-12),
             "the tip anchor", 0, 1.0)):
        with pytest.raises(IntegrationError) as err:
            build()
        r = err.value.location
        assert r == pytest.approx(tip_window_top(p_default, mu), rel=1e-12)
        assert re.fullmatch(
            rf"{what} at mu = {mu} fails at r = {r}: the Magnus propagation "
            rf"of row {row} needs a first mesh of 64 intervals for its span "
            r"\([\d.]+, [\d.]+\), so its first Richardson estimate needs "
            r"256, past the cap of 64 intervals", str(err.value))
        assert err.value.row == row
        assert err.value.__cause__.location == pytest.approx(
            tip_rate(p_default, 1) * r_mu(p_default, mu), rel=1e-15)


def test_tip_builders_refuse_i_zero(p_default):
    # at i = 0 the tip rate rho is 0 and there is no decaying branch: the
    # builders refuse by name, before anything divides by rho
    for build in (lambda: tip_anchor(p_default, 0, 1.0, 1e-12),
                  lambda: solve_k2(p_default, 0, 1.0, 5.0)):
        with pytest.raises(DomainValidationError,
                           match=r"^the decaying tip branch needs i >= 1"):
            build()
    with pytest.raises(DomainValidationError,
                       match=r"^normalization_bound needs i >= 1$"):
        normalization_bound(p_default, 0, 1.0)


@pytest.mark.parametrize("s_max", [math.inf, math.nan])
def test_tip_branches_refuse_a_non_finite_s_max(p_default, s_max):
    # a top of the span that is not finite is refused as s_max, next to
    # the r_mu check, not by the kernel's finite-input check in sigma
    for build in (solve_k1, solve_k2):
        with pytest.raises(DomainValidationError,
                           match=r"^s_max must be finite and exceed "
                                 rf"r_mu = 2\.70\d*, got {s_max}$"):
            build(p_default, 1, 1.0, s_max)


def test_oversized_first_mesh_is_refused_before_any_sweep(monkeypatch):
    # at eps = 3 the decaying branch down from r_min = 0.02 spans 83349
    # e-folds in sigma: its first mesh, 2^17 intervals, passes the cap of
    # 2^16, and the pass is refused naming the row, the mesh, the span, the
    # 2^19 intervals of a first Richardson estimate and the cap, at the tip
    # window's top, before its potential is called
    p = make_horn_params(2, 3.0, 3.0, 0.25)
    calls = []
    q_factory = modes._q_factory

    def recorded(p, i, mu):
        calls.append(np.shape(mu))
        return q_factory(p, i, mu)

    monkeypatch.setattr(modes, "_q_factory", recorded)
    top = tip_window_top(p, 1.0)
    with pytest.raises(IntegrationError) as err:
        solve_k2(p, 1, 1.0, 0.02 ** -3.0)
    assert re.fullmatch(
        rf"the decaying tip branch at mu = 1\.0 fails at r = {top}: the "
        r"Magnus propagation of row 0 needs a first mesh of 131072 "
        r"intervals for its span \(83348\.9\d*, 0\.46822\d*\), so its first "
        r"Richardson estimate needs 524288, past the cap of 65536 intervals",
        str(err.value))
    assert (err.value.location, err.value.row) == (top, 0)
    # one scalar q for the start; the potential, a column of mu, never
    assert calls == [()]


def test_normalization_bound_finite(p_default):
    computed, bound = normalization_bound(p_default, 1, 1.0)
    assert computed > 0 and math.isfinite(computed)
    assert bound > 0 and math.isfinite(bound)


def test_normalization_bound_constant_below_crossover(p_default):
    # below the max crossover r_mu is pinned at sqrt(A), so the bound is
    # the same constant for each mu in the sweep
    bounds = [normalization_bound(p_default, 1, mu)[1] for mu in (0.5, 1.0, 2.0)]
    assert bounds[0] == pytest.approx(bounds[1], rel=1e-12)
    assert bounds[1] == pytest.approx(bounds[2], rel=1e-12)


def test_normalization_ratio_uniformly_bounded(p_default):
    # log(computed / bound) stays bounded above over a mu sweep; the
    # prefactor left free in the envelope absorbs the (negative) gap
    ratios = []
    for mu in (1.0, 4.0, 16.0):
        computed, bound = normalization_bound(p_default, 1, mu)
        ratios.append(math.log(computed / bound))
    assert max(ratios) < 0.0
    assert min(ratios) > -60.0
