"""CSV/JSON artifact writers with frozen formatting.

All floats are written with 12 significant digits in scientific notation,
'.' decimal separator, newline-terminated rows, so repeated runs with the
same configuration produce bit-identical files on one machine and numpy
build.  Another CPU or numpy build may move a value in its last bit (numpy's
vector exp differs by SIMD path), which the 12 digits usually hide.
"""

import json
import math


def format_sig12(x):
    """x to 12 significant digits; nan, inf and -inf as those words."""
    return "%.11e" % float(x)


def write_csv(path, header, rows):
    """rows: iterable of tuples of Python ints, written as they are, and
    floats (numpy floats too), written by format_sig12."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, int) else format_sig12(c)
                              for c in row) + "\n")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format_sig12(obj)) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(_round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
