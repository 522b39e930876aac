"""Signed log-magnitude arithmetic.

Radial modes on the horn underflow double precision long before the tip
(values like exp(-C*r**-eps)), so everything tip-side is carried as a pair
(sign, log|value|).  A sign of 0 encodes an exact zero, paired with -inf.
"""

import numpy as np

NEG_INF = float("-inf")


def logsumexp_signed(signs, logs):
    """Sum of sign_i * exp(log_i) as a (sign, log|sum|) pair.

    Cancellation between terms is handled exactly as in linear arithmetic
    relative to the dominant magnitude.  1-D input gives (int, float); 2-D
    input sums down axis 0 and gives one (sign, log) per column as two
    float arrays.
    """
    signs = np.asarray(signs, dtype=float)
    logs = np.asarray(logs, dtype=float)
    live = (signs != 0) & np.isfinite(logs)
    m = np.max(np.where(live, logs, NEG_INF), axis=0, initial=NEG_INF)
    m = np.where(np.isfinite(m), m, 0.0)
    terms = signs * np.exp(np.where(live, logs - m, NEG_INF))
    acc = np.sum(np.where(live, terms, 0.0), axis=0)
    sign = np.sign(acc)
    with np.errstate(divide="ignore"):
        log = np.where(acc == 0.0, NEG_INF, m + np.log(np.abs(acc)))
    if acc.ndim == 0:
        return int(sign), float(log)
    return sign, log
