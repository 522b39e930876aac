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
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.11e" % x


def write_csv(path, header, rows):
    """rows: iterable of tuples; floats formatted, ints/str passed through."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool):
                    cells.append(str(int(cell)))
                elif isinstance(cell, int):
                    cells.append(str(cell))
                elif isinstance(cell, float):
                    cells.append(format_sig12(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")


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
