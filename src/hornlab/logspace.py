"""Signed log-magnitude arithmetic.

Radial modes on the horn underflow double precision long before the tip
(values like exp(-C*r**-eps)), so everything tip-side is carried as a pair
(sign, log|value|).  A sign of 0 encodes an exact zero, paired with -inf.
"""

import math

import numpy as np

NEG_INF = float("-inf")


def logsumexp_signed(signs, logs):
    """Sum of sign_i * exp(log_i) as a (sign, log|sum|) pair.

    Cancellation between terms is handled exactly as in linear arithmetic
    relative to the dominant magnitude.
    """
    signs = np.asarray(signs, dtype=float)
    logs = np.asarray(logs, dtype=float)
    live = (signs != 0) & np.isfinite(logs)
    if not np.any(live):
        return 0, NEG_INF
    logs = logs[live]
    signs = signs[live]
    m = logs.max()
    acc = float(np.sum(signs * np.exp(logs - m)))
    if acc == 0.0:
        return 0, NEG_INF
    return (1 if acc > 0 else -1), m + math.log(abs(acc))
