"""Compare the CLI artifacts of two hornlab source trees.

    python tools/compare_cli_artifacts.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the hornlab package (a checkout's
src/) or a checkout whose src/ does.  Eight CLI invocations run against
each tree, each in a subprocess of its own writing to a fresh directory:
demo-counterexample, modes, eigs, heat, analyticity, freq-elliptic and
freq-parabolic at the default config, and eigs with eigs.count=12 and
eigs.r_out=1.6.  Every file but manifest.json is compared byte for byte,
and of manifest.json the exit code and the `result` block (its wall times
and versions differ from run to run).  Each difference is printed; the
exit status is 1 if there is any, else 0.  Standard library only.
"""

import filecmp
import json
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


def result_block(out):
    """The manifest's result block as canonical JSON text, or None."""
    path = os.path.join(out, "manifest.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.dumps(json.load(fh).get("result"), sort_keys=True)


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
        if not filecmp.cmp(os.path.join(old, name), os.path.join(new, name),
                           shallow=False):
            diffs.append(f"{label}: {name} differs")
    if result_block(old) != result_block(new):
        diffs.append(f"{label}: manifest result blocks differ")
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
    print(f"{len(RUNS)} runs, {files} artifact files compared, "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
