import math

import numpy as np
import pytest
from support import oracle_gamma, second_derivative_5pt

from hornlab import (ConsistencyError, DomainValidationError, RadialProfile,
                     decay_exponent_fit, integrate_ode, make_horn_params,
                     normalization_bound, profile_from_k2, r_mu,
                     radial_mode_zero, solve_k1, solve_k2, sphere_eigenvalue,
                     tip_exponent, tip_rate)
from hornlab.modes import _q_factory, tip_anchor, tip_window_top


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


def test_r_mu_rejects_negative(p_default):
    with pytest.raises(DomainValidationError):
        r_mu(p_default, -1.0)


# ---------------------------------------------------------------------------
# growing branch
# ---------------------------------------------------------------------------


def test_k1_initial_data(p_default):
    s0 = r_mu(p_default, 1.0)
    sol = solve_k1(p_default, 1, 1.0, s0 + 3.0)
    y, dy = sol.eval(s0)
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
    k = sol.states(ss)[0]
    assert np.all(k <= np.exp((rho + 1.0) * (ss - s0)) * (1 + 1e-10))
    assert np.all(k >= np.exp(rho * (ss - s0)) / rho * (1 - 1e-10))


def test_k1_constant_coefficient_limit(p_default):
    # with the s^-2 and s^(-2/eps-2) terms removed the equation is
    # constant-coefficient: k = cosh + sinh/rho reproduces the data (1, 1)
    rho = tip_rate(p_default, 1)
    s0 = r_mu(p_default, 1.0)
    sol = integrate_ode(lambda s, y: [y[1], rho * rho * y[0]],
                        (s0, s0 + 2.0), [1.0, 1.0], 1e-12)
    for ds in (0.5, 1.0, 2.0):
        exact = math.cosh(rho * ds) + math.sinh(rho * ds) / rho
        assert sol.eval(s0 + ds)[0][0] == pytest.approx(exact, rel=1e-10)


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
        f = lambda t: k2.eval(t)[0][0]
        res = second_derivative_5pt(f, s, 1e-3) - q(s) * f(s)
        assert abs(res) <= 1e-6 * abs(q(s) * f(s))


def test_k1_k2_wronskian_constant(p_default):
    s0 = r_mu(p_default, 1.0)
    k1 = solve_k1(p_default, 1, 1.0, s0 + 3.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    vals = []
    for s in np.linspace(s0, s0 + 3.0, 23):
        a, ap = k1.eval(s)[0]
        b, bp = k2.eval(s)[0]
        vals.append(a * bp - ap * b)
    vals = np.array(vals)
    # variation-of-parameters construction fixes the constant at -1
    assert np.all(np.abs(vals + 1.0) <= 1e-8)


def test_k2_two_sided_bounds(p_default):
    # rates (-rho-2) and (-rho+1) bracket log k2 at r_mu + 2
    rho = tip_rate(p_default, 1)
    s0 = r_mu(p_default, 1.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    v = k2.eval(s0 + 2.0)[0][0]
    lo = math.exp((-rho - 2.0) * 2.0) / (2.0 * (rho ** 2 + rho))
    hi = (rho / 2.0) * math.exp((-rho + 1.0) * 2.0)
    assert lo <= v <= hi


def test_k2_anchor_box(p_default):
    # k2(r_mu)^2 + k2'(r_mu)^2 is pinned inside an explicit positive box
    rho = tip_rate(p_default, 1)
    s0 = r_mu(p_default, 1.0)
    k2 = solve_k2(p_default, 1, 1.0, s0 + 3.0)
    L, kappa = k2.log_eval(s0)
    v = math.exp(L)
    vp = kappa * v
    energy = v * v + vp * vp
    assert 0.0 < energy < float("inf")
    # the value itself obeys the two-sided bounds at zero offset
    assert 1.0 / (2.0 * (rho ** 2 + rho)) <= v <= rho / 2.0
    assert k2.tail_rel_uncertainty <= 1e-12


def test_k2_long_span(p_default):
    # rho * span = 340: k1 would overflow there, the log-space Riccati
    # branch does not, and it agrees with a short solve where they overlap
    s0 = r_mu(p_default, 1.0)
    long = solve_k2(p_default, 1, 1.0, s0 + 60.0)
    assert tip_rate(p_default, 1) * 60.0 > 280.0
    assert long.tail_rel_uncertainty <= 1e-12
    short = solve_k2(p_default, 1, 1.0, s0 + 10.0)
    ss = np.linspace(s0, s0 + 10.0, 41)
    assert np.max(np.abs(long.log_eval(ss)[0] - short.log_eval(ss)[0])) <= 1e-10
    assert long.log_eval(s0 + 60.0)[0] < -330.0


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("mu", [0.0, 1.0, 100.0])
def test_k2_kappa_comparison_interval(p_default, i, mu):
    # q lies in [rho^2, rho^2 + 1] past r_mu, which traps the decaying
    # log-derivative in [-sqrt(rho^2 + 1), -rho]
    rho = tip_rate(p_default, i)
    s0 = r_mu(p_default, mu)
    k2 = solve_k2(p_default, i, mu, s0 + 10.0)
    kappa = k2.log_eval(np.linspace(*k2.span, 1601))[1]
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
    got = k2.log_eval(s0 + np.array(offsets))[0]
    assert np.max(np.abs(got - np.array(log_k2))) <= 1e-10


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
@pytest.mark.parametrize("evaluator", ["eval_log", "states", "log_eval"])
def test_range_checks_share_one_rule(evaluator, end, profile_i1_mu1,
                                     p_default):
    # the profile, an ODE solution on a backward span and the decaying
    # branch all accept a point 5e-13 |bound| past a nonzero end, and
    # refuse one 1e-11 |bound| past it and NaN
    if evaluator == "eval_log":
        fn = profile_i1_mu1.eval_log
        lo, hi = profile_i1_mu1.r_min, profile_i1_mu1.r_max
    elif evaluator == "states":
        fn = integrate_ode(lambda x, y: [y[1], -y[0]], (2.0, 0.5),
                           [0.0, 1.0], 1e-10).states
        lo, hi = 0.5, 2.0
    else:
        k2 = solve_k2(p_default, 1, 1.0, r_mu(p_default, 1.0) + 3.0)
        fn, (lo, hi) = k2.log_eval, k2.span
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


def test_profile_harmonic_admitted(p_default):
    prof = profile_from_k2(p_default, 1, 0.0, 0.02, 32)
    fit = decay_exponent_fit(prof)
    assert fit.slope < 0


def test_profile_csv_roundtrip(tmp_path, profile_i1_mu1):
    path = tmp_path / "profile.csv"
    profile_i1_mu1.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,s,sign,log_mag,log_deriv"
    assert len(lines) == 1 + profile_i1_mu1.s_grid.size
    first = lines[1].split(",")
    # r ascending, 12 significant digits, scientific notation
    assert float(first[0]) == pytest.approx(profile_i1_mu1.r_min, rel=1e-11)
    assert "e" in first[0]
    mantissa = first[0].split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12


# ---------------------------------------------------------------------------
# bounded radial branch (i = 0)
# ---------------------------------------------------------------------------


def test_radial_mode_zero_ode_residual(p_default):
    p = p_default
    mu = 1.0
    f = lambda r: radial_mode_zero(p, mu, r)
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
    assert radial_mode_zero(p, mu, 0.0) == pytest.approx(limit, rel=1e-12)
    assert radial_mode_zero(p, mu, 1e-6) == pytest.approx(limit, rel=1e-9)
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
            assert radial_mode_zero(p, mu, r) == pytest.approx(rhs, rel=1e-12)


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
    r_top, dlog = tip_anchor(p_default, i, mu, 1e-12)
    prof = profile_from_k2(p_default, i, mu, 0.5 * top, n_grid=16, tol=1e-12)
    assert r_top == prof.r_max == top
    assert dlog == pytest.approx(prof.log_deriv[0], rel=1e-11)


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
