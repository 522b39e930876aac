import math
import re

import numpy as np
import pytest

from hornlab.errors import DomainValidationError
from hornlab.geometry import measure_weight_log
from hornlab.logspace import logsumexp_signed
from hornlab.numerics import bessel_j


def _column_reference(signs, logs):
    """The per-column loop the 2-D reduction replaces: one 1-D signed
    log-sum-exp over the live entries of each column."""
    out_s, out_l = [], []
    for col in range(signs.shape[1]):
        s, L = signs[:, col], logs[:, col]
        live = (s != 0) & np.isfinite(L)
        if not np.any(live):
            out_s.append(0.0)
            out_l.append(-math.inf)
            continue
        m = L[live].max()
        acc = float(np.sum(s[live] * np.exp(L[live] - m)))
        if acc == 0.0:
            out_s.append(0.0)
            out_l.append(-math.inf)
        else:
            out_s.append(1.0 if acc > 0 else -1.0)
            out_l.append(m + math.log(abs(acc)))
    return np.array(out_s), np.array(out_l)


def test_logsumexp_columns_match_loop():
    rng = np.random.default_rng(7)
    K, cols = 5, 400
    signs = rng.choice([-1.0, 0.0, 1.0], size=(K, cols), p=[0.4, 0.1, 0.5])
    logs = rng.uniform(-800.0, 800.0, size=(K, cols))
    logs[rng.random((K, cols)) < 0.1] = -np.inf
    # an all-zero column, an all-(-inf) column, an exactly cancelling one
    signs[:, 0] = 0.0
    logs[:, 1] = -np.inf
    signs[:, 2] = [1.0, -1.0, 1.0, -1.0, 0.0]
    logs[:, 2] = [3.0, 3.0, -5.0, -5.0, 9.0]
    got_s, got_l = logsumexp_signed(signs, logs)
    want_s, want_l = _column_reference(signs, logs)
    assert got_s.shape == got_l.shape == (cols,)
    assert np.array_equal(got_s, want_s)
    assert np.array_equal(np.isinf(got_l), np.isinf(want_l))
    live = np.isfinite(want_l)
    assert np.all(np.abs(got_l[live] - want_l[live]) <= 1e-15)
    assert got_s[0] == got_s[1] == got_s[2] == 0.0
    assert got_l[0] == got_l[1] == got_l[2] == -math.inf


def test_logsumexp_one_dimensional():
    assert logsumexp_signed([], []) == (0, -math.inf)
    assert logsumexp_signed([1.0, -1.0], [2.0, 2.0]) == (0, -math.inf)
    s, L = logsumexp_signed([1.0, -1.0, 0.0], [0.0, math.log(0.25), 50.0])
    assert s == 1
    assert L == math.log(0.75)
    # a sign of 0 with any log, and a log of -inf, are exact zeros
    assert logsumexp_signed([1.0, 0.0, 0.0, -1.0],
                            [0.0, math.nan, math.inf, -math.inf]) == (1, 0.0)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_scalar_input_gives_the_bits_of_one_entry(p_default):
    # one form per result: a scalar radius or argument gives the bits of
    # the one-entry array call, and 1-D terms those of one column of terms
    rng = np.random.default_rng(11)
    for r in np.exp(rng.uniform(-12.0, 3.0, 2000)).tolist():
        assert _bits(measure_weight_log(p_default, r)) == \
            _bits(measure_weight_log(p_default, np.array([r])))
    for nu in (0.0, 1.25, 2.5):
        for x in rng.uniform(0.0, 40.0, 50).tolist():
            assert _bits(bessel_j(nu, x)) == \
                _bits(bessel_j(nu, np.array([x])))
    for K in range(1, 41):
        signs = rng.choice([-1.0, 0.0, 1.0], size=K, p=[0.4, 0.1, 0.5])
        logs = rng.uniform(-800.0, 800.0, size=K)
        logs[rng.random(K) < 0.1] = -np.inf
        for got, want in zip(logsumexp_signed(signs, logs),
                             logsumexp_signed(signs[:, None], logs[:, None])):
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("signs, logs, index", [
    ([1.0, 1.0], [0.0, math.nan], "1"),
    ([1.0, 1.0], [0.0, math.inf], "1"),
    ([1.0, -1.0], [math.inf, 0.0], "0"),
    ([1.0, math.nan], [0.0, 0.0], "1"),
    ([1.0, math.nan], [0.0, -math.inf], "1"),
    ([1.0, -math.inf], [0.0, 0.0], "1"),
    ([[1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, math.nan]], "(1, 1)"),
])
def test_logsumexp_refuses_a_term_that_is_not_a_number(signs, logs, index):
    # a sign that is not finite, or a nonzero sign with a NaN or +inf log,
    # is no number: dropping it as a zero would hide the fault that made it
    with pytest.raises(DomainValidationError,
                       match=re.escape(f"term {index} is not a number")):
        logsumexp_signed(signs, logs)
