import json
import math

import mpmath as mp
import numpy as np
import pytest

from hornlab import (DomainValidationError, HornParams, angular_coupling,
                     liouville_potential, liouville_potential_slope,
                     make_horn_params, measure_weight_log, sphere_area,
                     sphere_eigenvalue)


def test_drift_exponent_values():
    assert make_horn_params(3, 4, 0.5, 0.25).c == pytest.approx(3.75, abs=0)
    # weight term vanishes when N = n
    assert make_horn_params(3, 3, 0.5, 0.25).c == pytest.approx(3.0, abs=0)


def test_threshold_constraint_rejected():
    # c = 1.1 gives c - 1 - eps = 0
    with pytest.raises(DomainValidationError, match="c - 1 - eps"):
        make_horn_params(2, 2, 0.1, 0.5)


@pytest.mark.parametrize("args", [
    (1, 4, 0.5, 0.25),       # n too small
    (3, 2.5, 0.5, 0.25),     # N < n
    (3, 4, -0.1, 0.25),      # eps <= 0
    (3, 4, 0.5, 0.0),        # eta out of range
    (3, 4, 0.5, 1.0),
])
def test_invalid_ranges(args):
    with pytest.raises(DomainValidationError):
        make_horn_params(*args)


def test_measure_weight_values(p_default):
    w = lambda r: math.exp(measure_weight_log(p_default, r))
    assert w(1.0) == pytest.approx(0.25, abs=0)
    assert w(2.0) == pytest.approx(0.25 * 2 ** 3.75, rel=1e-15)
    with pytest.raises(DomainValidationError):
        measure_weight_log(p_default, 0.0)


def test_measure_weight_unfolds_warp_and_weight(p_default):
    # w(r) must equal (warp)^(n-1) * r^((N-n)(1-eta)) with warp = r^(1+eps)/2
    p = p_default
    for r in (0.05, 0.7, 2.0):
        warp = (r ** (1 + p.eps) / 2.0) ** (p.n - 1)
        weight = r ** ((p.bigN - p.n) * (1 - p.eta))
        assert math.exp(measure_weight_log(p, r)) == pytest.approx(
            warp * weight, rel=1e-13)
        assert measure_weight_log(p, r) == pytest.approx(
            math.log(warp * weight), rel=1e-13)


def test_measure_weight_log_linear(p_default):
    # log w is linear in log r with slope c
    r = np.geomspace(0.01, 10, 7)
    lw = np.array([measure_weight_log(p_default, x) for x in r])
    slopes = np.diff(lw) / np.diff(np.log(r))
    assert np.allclose(slopes, p_default.c, rtol=1e-12)
    # an array of radii matches the scalar path element by element
    assert measure_weight_log(p_default, r) == pytest.approx(lw, rel=1e-15)
    with pytest.raises(DomainValidationError):
        measure_weight_log(p_default, np.array([0.5, 0.0]))


def test_laplacian_uses_c_minus_one(p_default):
    # N - 2 + (n-1) eps - (N-n) eta == c - 1
    p = p_default
    lhs = p.bigN - 2 + (p.n - 1) * p.eps - (p.bigN - p.n) * p.eta
    assert lhs == pytest.approx(p.c - 1.0, rel=1e-15)


def test_angular_coupling(p_default):
    assert angular_coupling(p_default, 1.0) == pytest.approx(4.0, abs=0)
    assert angular_coupling(p_default, 2.0) == pytest.approx(0.5, rel=1e-15)
    p0 = make_horn_params(3, 4, 1e-13, 0.25)
    assert angular_coupling(p0, 0.3) == pytest.approx(4.0 / 0.09, rel=1e-9)
    with pytest.raises(DomainValidationError):
        angular_coupling(p_default, -1.0)
    r = np.array([1.0, 2.0, 0.3])
    scalar = [angular_coupling(p_default, x) for x in r]
    assert angular_coupling(p_default, r) == pytest.approx(scalar, rel=1e-15)
    with pytest.raises(DomainValidationError):
        angular_coupling(p_default, np.array([0.3, -1.0]))


def test_sphere_eigenvalue():
    assert sphere_eigenvalue(3, 0) == 0.0
    assert sphere_eigenvalue(3, 1) == 2.0
    # i (n + i - 2) at i=2, n=3 is 2*3 = 6 (the S^2 spectrum 0, 2, 6, ...)
    assert sphere_eigenvalue(3, 2) == 6.0


def test_identity_constant_matches_fields():
    # c - (n-1) == N - n + (n-1) eps - (N-n) eta for assorted params
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        bigN = n + float(rng.uniform(0, 3))
        eps = float(rng.uniform(0.05, 1.5))
        eta = float(rng.uniform(0.05, 0.95))
        try:
            p = make_horn_params(n, bigN, eps, eta)
        except DomainValidationError:
            continue
        rhs = p.bigN - p.n + (p.n - 1) * p.eps - (p.bigN - p.n) * p.eta
        assert p.c - (p.n - 1) == pytest.approx(rhs, rel=1e-14)


def test_json_roundtrip_recomputes_c(p_default):
    doc = {"n": p_default.n, "N": p_default.bigN, "eps": p_default.eps,
           "eta": p_default.eta}
    doc = json.loads(json.dumps(doc))
    q = HornParams.from_json(doc)
    assert q == p_default
    # a stored c value is never trusted
    doc["c"] = 999.0
    assert HornParams.from_json(doc).c == pytest.approx(3.75, abs=0)


def test_from_json_refuses_non_integral_n():
    # the values reach make_horn_params uncast, so n = 3.5 is refused
    # rather than truncated to 3
    with pytest.raises(DomainValidationError, match="n must be an integer"):
        HornParams.from_json({"n": 3.5, "N": 4.0, "eps": 0.5, "eta": 0.25})
    assert HornParams.from_json(
        {"n": 3.0, "N": 4, "eps": 0.5, "eta": 0.25}).n == 3


def test_sphere_area():
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)


@pytest.mark.parametrize("args", [(3, 4, 0.5, 0.25), (2, 3, 0.5, 0.25),
                                  (4, 6, 0.3, 0.5)])
@pytest.mark.parametrize("i", [1, 2])
def test_liouville_potential_slope_is_its_derivative(args, i):
    # the closed-form dV/dr against mpmath's derivative of V in 30 digits,
    # V written out again and checked against liouville_potential first
    p = make_horn_params(*args)
    rs = np.array([0.05, 0.3, 1.0, 1.8, 3.0])
    with mp.workdps(30):
        mu_i, eps, c = (mp.mpf(v) for v in (sphere_eigenvalue(p.n, i),
                                            p.eps, p.c))

        def V(r):
            return 4 * mu_i * r ** (-2 - 2 * eps) + c * (c - 2) / (4 * r * r)

        value = [float(V(mp.mpf(r))) for r in rs]
        slope = [float(mp.diff(V, mp.mpf(r))) for r in rs]
    np.testing.assert_allclose(liouville_potential(p, i, rs), value,
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(liouville_potential_slope(p, i, rs), slope,
                               rtol=1e-12, atol=0.0)
