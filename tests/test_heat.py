import math
import warnings

import mpmath
import numpy as np
import pytest

from hornlab import (ConsistencyError, DomainValidationError, EigenPair,
                     EigenSearchError, analyticity_probe, caloric_decay_check,
                     dirichlet_eigenvalues, fit_line, make_caloric_series,
                     profile_from_k2, sphere_eigenvalue, tail_bound,
                     time_derivative, tip_rate, weyl_check)
from hornlab import heat
from hornlab.elliptic import bessel_state, constant_state
from hornlab.modes import solve_k2, tip_window_top

# pairs8_rout2 eigenvalues from the earlier oscillation-count search
PAIRS8_ROUT2_NU = [10.00860578069562, 25.807764065364, 47.52967782392161,
                   74.9986346873378, 108.09950740438147, 146.7510531204037,
                   190.89243427790572, 240.4760877104673]


# ---------------------------------------------------------------------------
# spectrum structure
# ---------------------------------------------------------------------------


def test_eigenvalues_simple_and_increasing(pairs8_rout2):
    nus = [q.nu for q in pairs8_rout2]
    assert all(b > a for a, b in zip(nus, nus[1:]))
    gaps = [b - a for a, b in zip(nus, nus[1:])]
    assert min(gaps) > 1e-6 * max(nus)


def test_eigenvalues_pinned(pairs8_rout2):
    nus = [q.nu for q in pairs8_rout2]
    assert nus == pytest.approx(PAIRS8_ROUT2_NU, rel=1e-9)


def test_high_eigenvalue_within_root_tolerance(pairs12_rout16):
    # nu_11 at r_out = 1.6, converged: roots of the boundary value and of
    # the Pruefer angle agree to 2e-13 at ODE tolerance 3e-14
    assert pairs12_rout16[10].nu == pytest.approx(676.63695269768, rel=1e-12)


def test_prufer_angle_counts_eigenvalues_exactly(pairs8_rout2, p_default):
    # floor(theta / pi) at nu is the number of eigenvalues below nu: check
    # it below nu_1 and midway between neighbours
    nus = [q.nu for q in pairs8_rout2]
    trials = [0.5 * nus[0]] + [0.5 * (a + b) for a, b in zip(nus, nus[1:])]
    thetas = [heat._shoot(p_default, 1, nu, 2.0, 1e-12) for nu in trials]
    assert [math.floor(th / math.pi) for th in thetas] == list(range(8))
    assert all(b > a for a, b in zip(thetas, thetas[1:]))


def test_shot_tolerance_below_solve_ivp_floor(p_default):
    # near nu_30 the shot's ODE tolerance tol / (k r_out) is 9.3e-15, below
    # the 100 eps that solve_ivp honours but above the compiled DOP853's
    # 10 eps floor: the shot honours it without a warning and agrees with a
    # looser shot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = heat._shoot(p_default, 2, 2896.0, 2.0, 1e-12)
    assert math.floor(theta / math.pi) == 29
    assert theta == pytest.approx(heat._shoot(p_default, 2, 2896.0, 2.0, 1e-11),
                                  rel=0.0, abs=1e-10)


def test_eigensearch_budget_names_index(p_default, monkeypatch):
    monkeypatch.setattr(heat, "_SHOTS_PER_EIGENVALUE", 1)
    with pytest.raises(EigenSearchError, match="index 1"):
        dirichlet_eigenvalues(p_default, 1, 2.0, 2)


def test_secant_trial_steps_past_the_outermost_shot():
    # secant of theta against sqrt(nu); every trial is a new nu beyond the
    # shots on the known side, so the bracket search cannot stall
    up = heat._secant_trial({4.0: 1.0, 9.0: 2.0}, math.pi, 2.0)
    assert up == pytest.approx((3.0 + math.pi - 2.0) ** 2, rel=1e-14)
    down = heat._secant_trial({16.0: 5.0, 25.0: 6.0}, math.pi, 2.0)
    assert down == pytest.approx((4.0 + math.pi - 5.0) ** 2, rel=1e-14)
    # a slope that is not positive falls back to r_out
    flat = heat._secant_trial({4.0: 2.0, 9.0: 2.0}, math.pi, 2.0)
    assert flat == pytest.approx((3.0 + (math.pi - 2.0) / 2.0) ** 2,
                                 rel=1e-14)
    # a shot exactly on the target still yields a new trial
    assert heat._secant_trial({9.0: math.pi}, math.pi, 2.0) > 9.0
    assert heat._secant_trial({9.0: 4.0}, math.pi, 2.0) < 9.0


def test_oscillation_counts(pairs8_rout2):
    # the j-th eigenfunction has exactly j-1 interior zeros
    assert [q.zeros for q in pairs8_rout2] == list(range(8))


def test_domain_monotonicity(pairs8_rout2, pairs12_rout16):
    # every nu_j strictly decreases when r_out increases
    for wide, narrow in zip(pairs8_rout2, pairs12_rout16[:8]):
        assert wide.nu < narrow.nu


def test_dirichlet_and_norm_defect(pairs8_rout2, p_default):
    # the L2(w dr) norm by mpmath's tanh-sinh quadrature, split at the seam
    # between the tip branch and the outer solve
    from hornlab.geometry import measure_weight_log
    for pair in pairs8_rout2[:3]:
        assert pair.norm_defect <= 1e-8

        def sq(r):
            r = float(r)
            _, lm, _ = pair.g.eval_log(np.array([r]))
            return math.exp(2 * lm[0] + measure_weight_log(p_default, r))

        seam = tip_window_top(p_default, pair.nu)
        val = mpmath.quad(sq, [pair.g.r_min, seam, pair.r_out])
        assert float(val) == pytest.approx(1.0, abs=1e-8)


def test_eigenfunction_ode_residual(pairs8_rout2, p_default):
    # mode equation residual at interior points, relative to its terms
    p = p_default
    mu_i = sphere_eigenvalue(p.n, 1)
    pair = pairs8_rout2[1]

    def val(r):
        sgn, lm, _ = pair.g.eval_log(np.array([r]))
        return sgn[0] * math.exp(lm[0])

    for r in np.linspace(0.3, 1.8, 9):
        h = 2e-4
        d2 = (-val(r + 2 * h) + 16 * val(r + h) - 30 * val(r)
              + 16 * val(r - h) - val(r - 2 * h)) / (12 * h * h)
        d1 = (-val(r + 2 * h) + 8 * val(r + h) - 8 * val(r - h)
              + val(r - 2 * h)) / (12 * h)
        resid = d2 + (p.c / r) * d1 \
            - 4.0 * mu_i * r ** (-2 - 2 * p.eps) * val(r) + pair.nu * val(r)
        scale = abs(d2) + abs(pair.nu * val(r)) + 1e-12
        assert abs(resid) <= 1e-5 * scale


def test_tip_outer_stitching_consistent(pairs8_rout2):
    # log-derivative continuous across the representation seam, which sits
    # at the threshold abscissa
    prof = pairs8_rout2[0].g
    r_seam = tip_window_top(prof.params, prof.mu)
    _, _, ld_lo = prof.eval_log(np.array([r_seam * 0.999]))
    _, _, ld_hi = prof.eval_log(np.array([r_seam * 1.001]))
    assert ld_lo[0] == pytest.approx(ld_hi[0], rel=2e-2)


def test_tip_branch_is_profile_from_k2(pairs8_rout2, p_default):
    # below the seam an eigenfunction is the decaying tip profile at its nu,
    # up to one constant factor
    for pair in pairs8_rout2[:4]:
        g = pair.g
        r_seam = tip_window_top(p_default, pair.nu)
        prof = profile_from_k2(p_default, 1, pair.nu, g.r_min, n_grid=16)
        r = np.geomspace(g.r_min, r_seam, 40)[1:-1]
        sg, lg, dg = g.eval_log(r)
        sp, lp, dp = prof.eval_log(r)
        assert np.all(sg == 1.0) and np.all(sp == 1.0)
        shift = lg - lp
        assert np.ptp(shift) <= 1e-12
        assert dg == pytest.approx(dp, rel=1e-12)


def _assert_any_shape(fn, lo, hi):
    # fn on a 16x16 array of radii gives arrays of that shape, bitwise its
    # flat call reshaped; a scalar gives 0-d values
    grid = np.geomspace(lo, hi, 256).reshape(16, 16)
    got, flat = fn(grid), fn(grid.ravel())
    for g, f in zip(got, flat):
        assert np.shape(g) == grid.shape
        assert np.asarray(g).tobytes() == f.reshape(grid.shape).tobytes()
    # a 0-d call may take numpy's scalar loops: equal to rounding
    for g, f in zip(fn(grid[3, 5]), flat):
        assert np.ndim(g) == 0
        np.testing.assert_allclose(g, f[53], rtol=1e-15, atol=0.0)


def test_radial_evaluators_take_radii_of_any_shape(p_default, profile_i1_mu1,
                                                   pairs8_rout2):
    _assert_any_shape(profile_i1_mu1.eval_log, profile_i1_mu1.r_min,
                      profile_i1_mu1.r_max)
    for pair in pairs8_rout2[:2]:  # tip branch and outer solve alike
        _assert_any_shape(pair.g.eval_log, pair.g.r_min, pair.r_out)
    for state in (bessel_state(p_default, 2.0, (0.01, 1.0)),
                  constant_state(p_default, (0.01, 1.0))):
        _assert_any_shape(state.radial_log, 0.01, 1.0)
    k2 = solve_k2(p_default, 1, 1.0, 12.0)
    _assert_any_shape(k2.log_eval, *k2.span)


def test_weyl_sandwich(pairs12_rout16, p_default):
    C1, C2 = weyl_check(pairs12_rout16, p_default)
    assert C1 > 0 and C2 > 0 and math.isfinite(C1) and math.isfinite(C2)
    nus = np.array([q.nu for q in pairs12_rout16])
    js = np.arange(1, 13, dtype=float)
    assert np.all(C1 * js ** (2 / p_default.bigN) <= nus * (1 + 1e-12))
    assert np.all(nus <= C2 * js ** 2 * (1 + 1e-12))
    # j = 1 instance
    assert C1 <= nus[0] <= C2
    # fitted exponent of log nu_j vs log j within the sandwich range
    fit = fit_line(np.log(js), np.log(nus))
    assert 2 / p_default.bigN - 0.1 <= fit.slope <= 2.1


def test_weyl_constants_stable(pairs12_rout16, p_default):
    C1a, C2a = weyl_check(pairs12_rout16[:8], p_default)
    C1b, C2b = weyl_check(pairs12_rout16, p_default)
    assert abs(C1a - C1b) <= 0.2 * C1a
    assert abs(C2a - C2b) <= 0.2 * C2a


def test_eigensearch_validates_input(p_default):
    with pytest.raises(DomainValidationError):
        dirichlet_eigenvalues(p_default, 0, 2.0, 2)
    with pytest.raises(DomainValidationError):
        dirichlet_eigenvalues(p_default, 1, 0.05, 2)


# ---------------------------------------------------------------------------
# tail certificate
# ---------------------------------------------------------------------------


def test_tail_bound_monotone(pairs12_rout16, p_default):
    b_t = [tail_bound(pairs12_rout16, 8, t, p_default) for t in (0.5, 1.0, 2.0)]
    assert b_t[0] > b_t[1] > b_t[2]
    b_k = [tail_bound(pairs12_rout16, k, 1.0, p_default) for k in (6, 8, 10)]
    assert b_k[0] >= b_k[1] >= b_k[2]


def test_tail_bound_dominates_computed_tail(pairs12_rout16, p_default):
    k, t = 8, 1.0
    partial = sum(q.nu * math.exp(-q.nu * t) for q in pairs12_rout16[k:])
    assert tail_bound(pairs12_rout16, k, t, p_default) >= partial


def test_tail_bound_small_at_unit_time(pairs12_rout16, p_default):
    # at t = 1, k = 8: far below the leading term of the series
    leading = pairs12_rout16[0].nu * math.exp(-pairs12_rout16[0].nu)
    assert tail_bound(pairs12_rout16, 8, 1.0, p_default) <= 1e-6 * leading


def test_tail_bound_rejects_t0(pairs12_rout16, p_default):
    with pytest.raises(DomainValidationError):
        tail_bound(pairs12_rout16, 8, 0.0, p_default)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


def test_single_pair_evaluation(pairs8_rout2):
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.1)
    pair = pairs8_rout2[0]
    r, t = 0.8, 0.4
    s, L = time_derivative(single, 0, r, t)
    sgn, lm, _ = pair.g.eval_log(np.array([r]))
    assert s == sgn[0]
    assert L == pytest.approx(lm[0] - pair.nu * t, rel=1e-12)


def test_slice_log_array_t_equals_scalar_loop(series4):
    # times broadcast against radii, one radial evaluation per term for all
    # of them, give bitwise the slices of the scalar-t calls
    r = np.geomspace(0.02, 1.5, 24)
    t = np.array([0.1, 0.35, 0.8, 1.4])
    rows = r * (1.0 + 0.1 * np.arange(4))[:, None]  # other radii per time
    for k in (0, 1, 3):
        for radii in (r, rows):
            got = series4.slice_log(radii, t[:, None], k)
            for j, tj in enumerate(t):
                want = series4.slice_log(np.broadcast_to(radii, rows.shape)[j],
                                         tj, k)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g[j], w)


def test_coefficient_linearity(series4, pairs8_rout2):
    doubled = make_caloric_series(pairs8_rout2[:4],
                                  2.0 * series4.coeffs, t_min=0.25)
    s1, L1 = time_derivative(series4, 0, 0.5, 0.5)
    s2, L2 = time_derivative(doubled, 0, 0.5, 0.5)
    assert s1 == s2
    assert L2 - L1 == pytest.approx(math.log(2.0), rel=1e-12)


def test_truncation_error_below_certificate(pairs8_rout2, p_default):
    # K-term vs (K-2)-term evaluations differ by less than the certificate
    t_min = 0.25
    full = make_caloric_series(pairs8_rout2[:4], [1.0, 0.7, 0.5, 0.35], t_min)
    short = make_caloric_series(pairs8_rout2[:2], [1.0, 0.7], t_min)
    cert = tail_bound(pairs8_rout2, 2, t_min, p_default, coeff_cap=1.0)
    for r in (0.3, 0.8, 1.5):
        sf, Lf = time_derivative(full, 0, r, t_min)
        ss, Ls = time_derivative(short, 0, r, t_min)
        diff = abs(sf * math.exp(Lf) - ss * math.exp(Ls))
        assert diff <= cert


def test_time_derivative_order_zero(series4):
    sF, lF, _, _ = series4.slice_log(np.array([0.7]), 0.6)
    assert time_derivative(series4, 0, 0.7, 0.6) == (sF[0], lF[0])


def test_series_looks_up_eval_log_when_summed(series4, monkeypatch):
    # a series built before RadialProfile.eval_log is wrapped still runs
    # the wrapper, once per term on the 7 radii (eval_log also calls itself
    # on its own points)
    from hornlab.modes import RadialProfile
    original = RadialProfile.eval_log
    calls = []

    def wrapped(self, r):
        calls.append(np.size(r))
        return original(self, r)

    monkeypatch.setattr(RadialProfile, "eval_log", wrapped)
    series4.slice_log(np.geomspace(0.05, 1.5, 7), 0.5)
    assert calls.count(7) == len(series4.terms)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_refused(pairs8_rout2, bad):
    # the log-space sum treats a NaN term as an exact zero, so a NaN
    # coefficient would silently drop its pair
    with pytest.raises(DomainValidationError, match="must be finite"):
        make_caloric_series(pairs8_rout2[:2], [bad, 1.0], t_min=0.25)


def test_time_derivative_single_pair_closed_form(pairs8_rout2):
    single = make_caloric_series(pairs8_rout2[:1], [0.9], t_min=0.1)
    pair = pairs8_rout2[0]
    r, t = 0.9, 0.7
    sgn, lm, _ = pair.g.eval_log(np.array([r]))
    for k in (0, 1, 2, 5):
        s, L = time_derivative(single, k, r, t)
        assert L == pytest.approx(
            math.log(0.9) + k * math.log(pair.nu) - pair.nu * t + lm[0],
            rel=1e-12)
        # alternating sign in k when c_1 g_1(r) > 0
        assert s == (1 if k % 2 == 0 else -1) * sgn[0]


def test_time_derivative_matches_finite_difference(series4):
    r, t = 0.6, 0.5
    s, L = time_derivative(series4, 1, r, t)
    h = 1e-5
    sa, La = time_derivative(series4, 0, r, t + h)
    sb, Lb = time_derivative(series4, 0, r, t - h)
    fd = (sa * math.exp(La) - sb * math.exp(Lb)) / (2 * h)
    assert s * math.exp(L) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# analyticity
# ---------------------------------------------------------------------------


def test_analyticity_single_pair_radius_grows(pairs8_rout2):
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.1)
    rhos = [analyticity_probe(single, 0.8, 0.5, kmax) for kmax in (8, 16, 24)]
    assert rhos[0] < rhos[1] < rhos[2]
    assert all(r > 0 for r in rhos)


def test_analyticity_two_pair(series2):
    rho16 = analyticity_probe(series2, 0.8, 0.5, 16)
    rho24 = analyticity_probe(series2, 0.8, 0.5, 24)
    assert rho16 >= 0.5
    assert rho24 >= rho16 * (1 - 1e-12)


def test_taylor_coefficients_are_time_derivatives(series4):
    # the one helper behind analyticity_probe and the CLI's coefficient
    # list: a_k = d^k_t u / k!, in log space
    r0, t0, kmax = 0.8, 0.5, 16
    log_ak = heat.taylor_coefficients(series4, r0, t0, kmax)
    assert len(log_ak) == kmax + 1
    for k, L in enumerate(log_ak):
        s, Ld = time_derivative(series4, k, r0, t0)
        assert s != 0
        assert math.exp(L) == pytest.approx(
            math.exp(Ld) / math.factorial(k), rel=1e-13)
    assert heat.taylor_radius(log_ak) == \
        analyticity_probe(series4, r0, t0, kmax)


def test_analyticity_zero_series(pairs8_rout2):
    zero = make_caloric_series(pairs8_rout2[:2], [0.0, 0.0], t_min=0.1)
    assert analyticity_probe(zero, 0.8, 0.5, 16) == math.inf


def test_analyticity_radius_past_double_range(series2):
    # at t0 = 1e6 the coefficients are about exp(-1e7 k): the radius lies
    # past the double range and reads +inf, as for a zero series
    assert analyticity_probe(series2, 0.8, 1e6, 16) == math.inf


# ---------------------------------------------------------------------------
# tip decay of the series
# ---------------------------------------------------------------------------


def test_caloric_decay_single_pair_bracket(pairs8_rout2, p_default):
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.25)
    rho = tip_rate(p_default, 1)
    fit = caloric_decay_check(single, np.geomspace(0.02, 0.12, 40), 0.5)
    assert -(rho + 2.0) <= fit.slope <= -(rho - 1.0)


def test_caloric_decay_series(series4):
    grid = np.geomspace(0.02, 0.12, 40)
    fit = caloric_decay_check(series4, grid, 0.5)
    sF, lF, _, _ = series4.slice_log(grid, 0.5)
    rng = lF.max() - lF.min()
    assert fit.slope < 0
    assert fit.max_residual <= 0.10 * rng


def test_caloric_decay_t_independent(series4):
    grid = np.geomspace(0.02, 0.12, 40)
    slopes = [caloric_decay_check(series4, grid, t).slope
              for t in (0.25, 0.5, 1.0)]
    spread = max(slopes) - min(slopes)
    assert spread <= 0.15 * abs(slopes[1])


def test_caloric_decay_rejects_radial_part(pairs8_rout2):
    fake = EigenPair(nu=pairs8_rout2[0].nu, mode_index=0,
                     g=pairs8_rout2[0].g, r_out=pairs8_rout2[0].r_out,
                     zeros=0, norm_defect=0.0)
    bad = make_caloric_series([fake], [1.0], t_min=0.25)
    with pytest.raises(DomainValidationError):
        caloric_decay_check(bad, np.geomspace(0.02, 0.12, 10), 0.5)


def test_series_constructor_validation(pairs8_rout2):
    with pytest.raises(DomainValidationError):
        make_caloric_series(pairs8_rout2[:2], [1.0], t_min=0.2)
    with pytest.raises(DomainValidationError):
        make_caloric_series([pairs8_rout2[1], pairs8_rout2[0]], [1.0, 1.0],
                            t_min=0.2)
