"""Shared test oracles.

Brute-force reference values live here, not in the library: extended
precision power series for Bessel/Gamma evaluated with mpmath arithmetic,
the closed-form tip branch at mu = 0, 2-D product quadrature for the
sphere x radius reductions, and finite-difference stencils for ODE
residuals.  magnus_sweeps records the work of the Magnus propagator for
the tests that pin it.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def oracle_gamma(x):
    return float(mp.gamma(x))


def oracle_besselj(nu, x, terms=2000):
    """Ascending power series summed directly; the working precision grows
    with x to absorb the exp(x)-scale cancellation of the series."""
    dps = 50 + int(0.5 * abs(float(x)))
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        if x == 0:
            return 1.0 if nu == 0 else 0.0
        half = x / 2
        term = half ** nu / mp.gamma(nu + 1)
        total = term
        z = -half * half
        for m in range(1, terms):
            term *= z / (m * (nu + m))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps + 4) * max(
                    abs(total), mp.mpf(10) ** (-320)):
                break
        return float(total)


def oracle_bessely(nu, x):
    return float(mp.bessely(mp.mpf(nu), mp.mpf(x)))


def oracle_j0_first_zero():
    """First positive zero of J_0 located on the series oracle."""
    f = lambda t: mp.besselj(0, t)
    return float(mp.findroot(f, mp.mpf("2.4")))


def magnus_sweeps(monkeypatch):
    """A list that records every Magnus sweep from here on, in order, as
    (rows, m): the indices of the rows swept, a list, and the number of
    intervals of their mesh.  Every reduction builds a sweep's interval
    propagators in one numerics._magnus_propagators call, which this
    wraps, so the record reads no potential and counts no Gauss point."""
    from hornlab import numerics
    sweeps = []
    propagators = numerics._magnus_propagators

    def recorded(potential, nu, a, h, m, rows):
        sweeps.append((rows.tolist(), m))
        return propagators(potential, nu, a, h, m, rows)

    monkeypatch.setattr(numerics, "_magnus_propagators", recorded)
    return sweeps


# frozen from oracle_j0_first_zero(); see test_numerics
J0_FIRST_ZERO = 2.404825557695773


def bessel_zero_count(order, x_lo, x_hi):
    """Number of zeros of J_order in (x_lo, x_hi], 0 <= x_lo, from mpmath's
    besseljzero."""
    count, m = 0, 1
    while (z := mp.besseljzero(mp.mpf(order), m)) <= x_hi:
        count += z > x_lo
        m += 1
    return count


def oracle_liouville_bessel(c, nu, r):
    """(u, u') at r of u = r^(1/2) J_((c-1)/2)(r sqrt(nu)), the solution of
    u'' = (c (c - 2) / (4 r^2) - nu) u, the Liouville form at spherical
    index 0."""
    with mp.workdps(30):
        order, k, r = mp.mpf(c - 1) / 2, mp.sqrt(nu), mp.mpf(r)
        J, dJ = mp.besselj(order, k * r), mp.besselj(order, k * r, 1)
        return float(mp.sqrt(r) * J), float(J / (2 * mp.sqrt(r))
                                            + mp.sqrt(r) * k * dJ)


def oracle_tip_branch_mu0(p, i, s):
    """(log k2, kappa = d log k2/ds) of the decaying tip branch at mu = 0 and
    abscissae s >= r_mu(p, 0), in closed form.

    At mu = 0 the radial equation has the decaying solution
    f = r^((1-c)/2) K_q(rho r^-eps), q = (c-1)/(2 eps), rho = 2 sqrt(mu_i)/eps
    (the Lommel substitution; Watson, Bessel Functions, 4.31), so
    k2 = f s^-beta is a multiple of sqrt(s) K_q(rho s).  The multiple is the
    lab's Wronskian scale, log k2(r_mu) = -log(1 - kappa(r_mu)).  K_q is read
    through scipy's exponentially scaled kve, and K_q' through the
    recurrence K_q' = -(K_(q-1) + K_(q+1))/2, so nothing underflows.
    """
    from scipy import special

    from hornlab import r_mu, sphere_eigenvalue
    order = (p.c - 1.0) / (2.0 * p.eps)
    rho = 2.0 * math.sqrt(sphere_eigenvalue(p.n, i)) / p.eps

    def log_kappa(s):
        x = rho * np.asarray(s, dtype=float)
        kve = special.kve(order, x)
        ratio = -(special.kve(order - 1.0, x)
                  + special.kve(order + 1.0, x)) / (2.0 * kve)
        return 0.5 * np.log(s) + np.log(kve) - x, 0.5 / s + rho * ratio

    lo_log, lo_kappa = log_kappa(r_mu(p, 0.0))
    log_k, kappa = log_kappa(s)
    return log_k - lo_log - math.log(1.0 - lo_kappa), kappa


def tip_states(branch, s):
    """(k, k') of a tip branch at s, of shape (2, *shape of s), rebuilt in
    linear space from its (log k, kappa)."""
    log_k, kappa = branch.tip_log(s)
    k = np.exp(log_k)
    return np.array([k, kappa * k])


def scan_at(state, r):
    """(I, E) of a one-term state at the one radius r: the row of a
    one-radius elliptic_scan."""
    from hornlab import elliptic_scan
    scan = elliptic_scan(state, [float(r)])
    return float(scan.I[0]), float(scan.ED[0])


def second_derivative_5pt(f, x, h):
    """O(h^4) central second derivative."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def first_derivative_5pt(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# sphere x radius product-quadrature oracles (n = 3, axisymmetric phi_1)
# ---------------------------------------------------------------------------

SPHERE_I1_NORM = math.sqrt(3.0 / (4.0 * math.pi))  # phi_1 = sqrt(3/4pi) cos


def phi1(theta):
    return SPHERE_I1_NORM * math.cos(theta)


def dphi1(theta):
    return -SPHERE_I1_NORM * math.sin(theta)


def sphere_quad(fn, tol=1e-12):
    """integral over S^2 of fn(theta), axisymmetric: 2 pi int fn sin dtheta."""
    from scipy.integrate import quad
    val, _ = quad(lambda th: fn(th) * 2.0 * math.pi * math.sin(th),
                  0.0, math.pi, epsabs=tol, epsrel=tol)
    return val


def radial_value(state, r):
    """Linear-space (c f, c f') at t = 0 of a one-term state, from its
    term's (sign, log, dlog) radial evaluator and its coefficient c."""
    sgn, lm, ld = state.radial(np.array([float(r)]), 0)
    f = 0.0 if sgn[0] == 0 else state.coeffs[0] * sgn[0] * math.exp(lm[0])
    return f, f * ld[0]


def oracle_I_2d(state, r, p):
    """Full product quadrature of r^{1-n} int_{S} u^2 w(r) dS for u = f phi_1."""
    f, _ = radial_value(state, r)
    ang = sphere_quad(lambda th: phi1(th) ** 2)
    w = 2.0 ** (1 - p.n) * r ** p.c
    return r ** (1 - p.n) * w * f * f * ang


def oracle_E_2d(state, r, p, tol=1e-11):
    """Product quadrature of the energy over (radius, polar angle)."""
    from scipy.integrate import quad

    def radial_part(s):
        f, fp = radial_value(state, s)
        w = 2.0 ** (1 - p.n) * s ** p.c
        grad_r = fp * fp * sphere_quad(lambda th: phi1(th) ** 2)
        grad_a = 4.0 * s ** (-2.0 - 2.0 * p.eps) * f * f \
            * sphere_quad(lambda th: dphi1(th) ** 2)
        lam = -state.rates[0]
        zee = lam * f * f * sphere_quad(lambda th: phi1(th) ** 2)
        return (grad_r + grad_a + zee) * w

    val, _ = quad(radial_part, state.r_support[0], r, epsabs=tol, epsrel=tol,
                  limit=300)
    return r ** (2 - p.n) * val


def oracle_D_2d(u, R, p, tol=1e-11):
    """Product quadrature of the slice mass for a separated caloric state."""
    from scipy.integrate import quad
    t = -R * R
    expo = (p.c + 1.0) / 2.0

    def radial_part(s):
        sF, lF, _, _ = u.slice_log(np.array([s]), t)
        F = 0.0 if sF[0] == 0 else sF[0] * math.exp(lF[0])
        w = 2.0 ** (1 - p.n) * s ** p.c
        G = math.exp(-expo * math.log(R * R) + s * s / (4.0 * t))
        return F * F * G * w * sphere_quad(lambda th: phi1(th) ** 2)

    lo, hi = u.r_support
    val, _ = quad(radial_part, max(lo, 1e-12), hi, epsabs=tol, epsrel=tol,
                  limit=300)
    return val


def oracle_I_par_2d(u, R, p, tol=1e-11):
    """Product quadrature of the slice gradient integral
    R^2 int (F_r^2 int phi^2 + 4 r^(-2-2eps) F^2 int |grad phi|^2) G w
    for a separated caloric state."""
    from scipy.integrate import quad
    t = -R * R
    expo = (p.c + 1.0) / 2.0
    ang = sphere_quad(lambda th: phi1(th) ** 2)
    ang_grad = sphere_quad(lambda th: dphi1(th) ** 2)

    def radial_part(s):
        sF, lF, sD, lD = u.slice_log(np.array([s]), t)
        F = 0.0 if sF[0] == 0 else sF[0] * math.exp(lF[0])
        Fr = 0.0 if sD[0] == 0 else sD[0] * math.exp(lD[0])
        w = 2.0 ** (1 - p.n) * s ** p.c
        G = math.exp(-expo * math.log(R * R) + s * s / (4.0 * t))
        return (Fr * Fr * ang
                + 4.0 * s ** (-2.0 - 2.0 * p.eps) * F * F * ang_grad) * G * w

    lo, hi = u.r_support
    val, _ = quad(radial_part, max(lo, 1e-12), hi, epsabs=tol, epsrel=tol,
                  limit=300)
    return R * R * val
