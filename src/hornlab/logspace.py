"""Signed log-magnitude arithmetic.

Radial modes on the horn underflow double precision long before the tip
(values like exp(-C*r**-eps)), so everything tip-side is carried as a pair
(sign, log|value|).  A sign of 0 encodes an exact zero, paired with -inf.
"""

import numpy as np

from .errors import DomainValidationError

NEG_INF = float("-inf")


def logsumexp_signed(signs, logs):
    """Sum of sign_i * exp(log_i) as a (sign, log|sum|) pair.

    Cancellation between terms is handled exactly as in linear arithmetic
    relative to the dominant magnitude.  The terms run down axis 0; the
    result is a (sign, log) per entry of the other axes, two float arrays
    (two numpy floats for 1-D terms).  A term with a sign of 0 (whatever
    its log) or a log of -inf is an exact zero; a sign that is not finite,
    or a nonzero sign with a NaN or +inf log, is not a number and raises
    DomainValidationError naming the term's index.
    """
    signs = np.asarray(signs, dtype=float)
    logs = np.asarray(logs, dtype=float)
    # a term that is not a number makes its column's sum NaN or infinite
    live = signs != 0
    m = np.max(np.where(live, logs, NEG_INF), axis=0, initial=NEG_INF)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = np.sum(signs * np.exp(np.where(live, logs - m, NEG_INF)),
                     axis=0)
        log = m + np.log(np.abs(acc))  # m is finite: a zero sum logs -inf
    if not np.all(np.isfinite(acc)):
        bad = ~np.isfinite(signs) | (live & ~(logs < np.inf))
        if np.any(bad):  # else finite signs of magnitude ~1e308 overflow
            k = tuple(int(i) for i in np.argwhere(bad)[0])
            s, L = (np.broadcast_to(v, bad.shape)[k] for v in (signs, logs))
            raise DomainValidationError(
                f"logsumexp_signed term {k[0] if len(k) == 1 else k} is not "
                f"a number: sign {s}, log {L}")
    return np.sign(acc), log
