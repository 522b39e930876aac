"""Run one hornlab benchmark workload and print its metrics.

    python3 hornbench/run.py --workload demo --seed 1 --seconds 30 --trace 0

Run from the repository root; hornlab is imported from ./src.  One process
runs the workload as a closed loop with one client: the next iteration
starts when the previous one has finished and its outputs are checked.
Inputs come from --seed only.  The loop repeats the seeded iteration until
--seconds have passed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the
median iteration wall time, the median of three set-ups (this process and
two child processes that only set up), peak RSS and the share of
operations that succeeded.  Both times are calibrated: scaled to a fixed
machine speed by a speed probe sampled before, during and after each
iteration and set-up (see timed).  --trace 1 alternates untraced and
traced iterations and reports the per-layer metrics of the traced ones,
with the tracing overhead, in raw seconds; traced iterations run without
the probe.  The last line of standard output is the result object; the
line before it is a report with the raw and calibrated samples, the
failures and the environment.  Both, and in a traced run the spans, are
also written to .hornbench_out/ under the repository root.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

# Pin BLAS to one thread before anything imports numpy.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

# The speed probe's own imports, loaded before any timing starts so that a
# probe can run at any moment, also in the middle of importing hornlab.
import numpy as np  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".hornbench_out")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
# Wall time between speed probes inside a timed region.
PROBE_INTERVAL_S = 0.1
# Typical speed-probe time on the machine that defined the benchmark
# (2-vCPU Xeon VM at 2.0 GHz); wall_s and setup_s are reported in seconds
# at that speed.
CALIBRATION_REF_S = 0.0035


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("demo", "spectrum", "functionals"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def set_up(args, out_dir):
    """Import hornlab, load the workload's config and build its inputs.

    Returns (workload, problems found in the set-up, raw seconds taken,
    mean speed-probe seconds over that time).
    """
    def build():
        import hornlab  # noqa: F401  (the import is part of the set-up cost)
        import workloads
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir,
                                                workloads.load_reference())
        return wl, wl.setup()

    (wl, problems), seconds, probe_s = timed(build)
    return wl, problems, seconds, probe_s


def probe_setup(args):
    """(set-up seconds, mean speed-probe seconds) from a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["probe_s"]


def run_iteration(wl, tracer, iteration):
    """Run every operation once.

    Untraced, returns (results, wall s net of the probes, mean probe s);
    traced, the probe does not run and the probe time is None.
    """
    from hornlab.errors import HornError

    def operations():
        results = {}
        for name, fn in wl.operations():
            try:
                results[name] = fn()
            except HornError as exc:
                results[name] = exc
        return results

    if tracer is None:
        return timed(operations)
    with tracer.recording(iteration):
        t0 = time.perf_counter()
        results = operations()
        return results, time.perf_counter() - t0, None


def check_results(wl, results):
    """Failure messages per operation: a raised HornError or a failed check."""
    failures = {}
    for name, result in results.items():
        if isinstance(result, Exception):
            failures[name] = [f"{type(result).__name__}: {result}"]
            continue
        # a check that raises is a failed check, reported, not a crash
        try:
            problems = getattr(wl, "check_" + name)(result)
        except Exception as exc:  # noqa: BLE001
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[name] = problems
    return failures


def probe_s():
    """Time of one run of a fixed machine-speed probe, about 3.5 ms.

    The probe does not touch hornlab.  It mixes what hornlab's time goes
    to: interpreted float arithmetic, numpy calls on small arrays, and a
    scipy ODE integration with a Python callback.
    """
    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 4000):
        x += math.sqrt(i) / i
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(80):
        a = np.sin(a) * 0.5 + 0.25
    solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, 6.0), [1.0, 0.0],
              method="DOP853", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


def timed(fn):
    """Run fn() and time it against the speed probe.

    Returns (fn's result, wall seconds of fn, mean probe seconds).  The
    probe runs once before and once after fn, and every PROBE_INTERVAL_S
    of wall time during it, from a SIGALRM handler; the time the handler
    takes is not counted in fn's wall time.  On a shared host the speed
    of this process changes by up to 2x within seconds (process CPU time
    tracks wall time, so this is not preemption), most likely as a sibling
    hardware thread falls idle or gets busy.  A run of fn takes its raw work times
    the mean slowness of the host over its own span, which the mean of the
    probes sampled across that span estimates; probes between iterations
    only would miss every change inside a long iteration.
    """
    probes = [probe_s()]
    spent = [0.0]
    busy = [False]

    def tick(signum, frame):
        if busy[0]:
            return
        busy[0] = True
        t = time.perf_counter()
        probes.append(probe_s())
        spent[0] += time.perf_counter() - t
        busy[0] = False

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - spent[0]
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe_s())
    return result, wall, statistics.fmean(probes)


def calibrated(seconds, probe_s):
    """Seconds at the reference speed: scaled by CALIBRATION_REF_S / probe."""
    return seconds * CALIBRATION_REF_S / probe_s


def timing(samples):
    """Median, sample count, and the highest percentile with at least ten
    samples above it (when there are 11 or more samples)."""
    n = len(samples)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n,
                "value": sorted(samples)[n - 11]}
    return {"median": statistics.median(samples), "tail": tail,
            "samples": n, "all": samples}


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN}}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hornlab", "__init__.py")):
        print(f"hornbench: no hornlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    suffix = "-probe" if args.setup_probe else ""
    out_dir = os.path.join(OUT, args.workload + suffix)
    wl, setup_problems, setup_s, setup_probe_s = set_up(args, out_dir)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0

    from layertrace import Tracer, overhead
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    setups = [(setup_s, setup_probe_s)] + [probe_setup(args)
                                           for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    cal_walls, probes = [], []
    attempted, failed, failures = 1, 0, []
    if setup_problems:
        failed += 1
        failures.append({"iteration": None, "op": "setup",
                         "problems": setup_problems})
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        results, wall, probe = run_iteration(wl, tracer if traced else None,
                                             k)
        walls[traced].append(wall)
        if not traced:
            probes.append(probe)
            cal_walls.append(calibrated(wall, probe))
        for name, problems in check_results(wl, results).items():
            failed += 1
            failures.append({"iteration": k, "op": name,
                             "problems": problems[:5]})
        attempted += len(results)
        k += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or walls[True]):
            break

    setup_cal = [calibrated(raw, probe) for raw, probe in setups]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": timing(cal_walls),
        "wall_s_raw": timing(walls[False]),
        "speed_probe_s": probes,
        "setup_s": setup_cal,
        "setup_s_raw": [raw for raw, _ in setups],
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "environment": environment(),
    }
    if args.trace:
        values = tracer.metrics(len(walls[True]))
        values.update(overhead(walls[False], walls[True]))
        report["missing_hooks"] = tracer.missing
        metric_spec = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(cal_walls),
            "setup_s": statistics.median(setup_cal),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        metric_spec = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"report": report, "metrics": metrics,
                   "spans": tracer.spans if tracer else []}, fh)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
