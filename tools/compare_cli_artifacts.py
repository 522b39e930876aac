"""Compare the CLI artifacts of two hornlab source trees.

    python tools/compare_cli_artifacts.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the hornlab package (a checkout's
src/) or a checkout whose src/ does.  Eight CLI invocations run against
each tree, each in a subprocess of its own writing to a fresh directory:
demo-counterexample, modes, eigs, heat, analyticity, freq-elliptic and
freq-parabolic at the default config, and eigs with eigs.count=12 and
eigs.r_out=1.6.  Every file but manifest.json is compared byte for byte,
and of manifest.json the exit code and the `result` block (its wall times
and versions differ from run to run).  Each difference is printed, with
how far it moved: for a CSV the number of rows that differ and each
numeric column's largest relative difference, for a JSON file or a
result block the numeric leaf that moved most (relative) and its key
path.  The exit status is 1 if there is any difference, else 0.  Standard
library only.
"""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile

RUNS = [
    ["demo-counterexample"], ["modes"], ["eigs"], ["heat"], ["analyticity"],
    ["freq-elliptic"], ["freq-parabolic"],
    ["eigs", "--set", "eigs.count=12", "--set", "eigs.r_out=1.6"],
]


def package_root(path):
    """The directory under path that holds hornlab/__init__.py."""
    for root in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(root, "hornlab", "__init__.py")):
            return os.path.abspath(root)
    sys.exit(f"compare_cli_artifacts: no hornlab package under {path}")


def run_cli(src, args, out):
    """Exit code of one CLI run on the tree src, writing to out."""
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "hornlab.cli", *args, "--out", out],
        env=env, cwd=out, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def result_block(out):
    """The manifest's result block, or None."""
    path = os.path.join(out, "manifest.json")
    return load_json(path).get("result") if os.path.isfile(path) else None


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) of two floats: 0 when equal (NaN equals
    NaN), inf when one is NaN or infinite and the other is not."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def as_number(cell):
    """A CSV cell as a float, or None if it does not read as one."""
    try:
        return float(cell)
    except ValueError:
        return None


def csv_moves(old, new):
    """How far the CSV new moved from old: its rows that differ and each
    numeric column's largest relative difference."""
    tables = []
    for path in (old, new):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    a, b = tables
    if a[:1] != b[:1] or len(a) != len(b):
        return [f"header or row count differs ({len(a) - 1} -> "
                f"{len(b) - 1} rows)"]
    rows = list(zip(a[1:], b[1:]))
    moves = [f"{sum(x != y for x, y in rows)} of {len(rows)} rows differ"]
    for j, name in enumerate(a[0]):
        cells = [(as_number(x[j]), as_number(y[j])) for x, y in rows]
        if any(u is None or v is None for u, v in cells):
            if any(x[j] != y[j] for x, y in rows):
                moves.append(f"column {name}: non-numeric cells differ")
            continue
        worst = max((relative_difference(u, v) for u, v in cells),
                    default=0.0)
        moves.append(f"column {name}: largest relative difference "
                     f"{worst:.3g}")
    return moves


def leaf_moves(a, b, path=""):
    """(relative difference, key path) of every numeric leaf the two JSON
    values share, and (inf, path) where their shapes or other leaves
    differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return [(math.inf, f"{path} (keys differ)")]
        return [m for k in sorted(a)
                for m in leaf_moves(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(math.inf, f"{path} (lengths differ)")]
        return [m for k, (x, y) in enumerate(zip(a, b))
                for m in leaf_moves(x, y, f"{path}[{k}]")]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in (a, b)):
        return [(relative_difference(float(a), float(b)), path)]
    return [(0.0 if a == b else math.inf, path)]


def json_move(a, b, root):
    """The leaf of two differing JSON values that moved most, relative."""
    worst, path = max(leaf_moves(a, b, root))
    return f"largest relative difference {worst:.3g} at {path}"


def compare(label, old, new, codes):
    """The differences of one invocation's two output directories."""
    diffs = []
    if codes[0] != codes[1]:
        diffs.append(f"{label}: exit code {codes[0]} -> {codes[1]}")
    names = [set(os.listdir(d)) - {"manifest.json"} for d in (old, new)]
    for name in sorted(names[0] ^ names[1]):
        side = "old" if name in names[0] else "new"
        diffs.append(f"{label}: {name} only in the {side} tree's output")
    for name in sorted(names[0] & names[1]):
        paths = [os.path.join(d, name) for d in (old, new)]
        if filecmp.cmp(*paths, shallow=False):
            continue
        diffs.append(f"{label}: {name} differs")
        if name.endswith(".csv"):
            diffs += [f"    {line}" for line in csv_moves(*paths)]
        elif name.endswith(".json"):
            diffs.append(f"    {json_move(*map(load_json, paths), name)}")
    blocks = [result_block(d) for d in (old, new)]
    if json.dumps(blocks[0], sort_keys=True) \
            != json.dumps(blocks[1], sort_keys=True):
        diffs.append(f"{label}: manifest result blocks differ")
        diffs.append(f"    {json_move(*blocks, 'result')}")
    return diffs, len(names[0] & names[1])


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    srcs = [package_root(path) for path in argv]
    diffs, files = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, args in enumerate(RUNS):
            label = " ".join(args)
            outs = [os.path.join(tmp, f"{side}{k}") for side in ("old", "new")]
            codes = []
            for src, out in zip(srcs, outs):
                os.makedirs(out)
                codes.append(run_cli(src, args, out))
            found, same = compare(label, *outs, codes)
            files += same
            diffs += found
            print(f"{label}: {'differs' if found else 'identical'}",
                  flush=True)
    for line in diffs:
        print(line)
    count = sum(not line.startswith(" ") for line in diffs)
    print(f"{len(RUNS)} runs, {files} artifact files compared, "
          f"{count} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
