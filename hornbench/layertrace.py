"""Span and counter tracing from outside the program.

The tracer replaces module-level names at the layer boundaries of hornlab
with wrappers while a traced iteration runs, and puts the originals back
afterwards, so untraced iterations run the unmodified code.  Each wrapper
records a span (name, start, end, parent, iteration) in memory and bumps
work counters at the same boundary.  Per-layer metrics are derived from the
spans and counters once the run ends.

A hook whose target no longer exists is skipped and reported in
`Tracer.missing`, so a renamed internal shows up as a missing hook rather
than as a crash.
"""

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter

# (owner, attribute, span name, counting role).  The owner is a module, or
# "module:Class" for a method.  A name is hooked in every module that
# imported it, because `from .numerics import integrate_ode` binds a new
# module-level name that the caller looks up at call time.
HOOKS = [
    ("hornlab.heat", "integrate_ode", "numerics.ode", "ode"),
    ("hornlab.modes", "integrate_ode", "numerics.ode", "ode"),
    ("hornlab.heat", "quad_adaptive_err", "numerics.quad", "quad"),
    ("hornlab.modes", "quad_adaptive_err", "numerics.quad", "quad"),
    ("hornlab.elliptic", "quad_adaptive_err", "numerics.quad", "quad"),
    ("hornlab.parabolic", "quad_adaptive_err", "numerics.quad", "quad"),
    ("hornlab.heat", "find_root_bracketed", "numerics.root", "root"),
    ("hornlab.numerics", "bessel_j", "numerics.special", None),
    ("hornlab.numerics", "bessel_y", "numerics.special", None),
    ("hornlab.numerics", "gamma_real", "numerics.special", None),
    ("hornlab.numerics", "lgamma_real", "numerics.special", None),
    ("hornlab.elliptic", "bessel_j", "numerics.special", None),
    ("hornlab.heat", "lgamma_real", "numerics.special", None),
    ("hornlab.geometry", "gamma_real", "numerics.special", None),
    ("hornlab.heat", "logsumexp_signed", "logspace.lse", None),
    ("hornlab.heat", "solve_k2", "modes.solve_k2", None),
    ("hornlab.modes", "solve_k2", "modes.solve_k2", None),
    ("hornlab.modes:RadialProfile", "eval_log", "modes.eval_log", "points"),
    ("hornlab.heat", "dirichlet_eigenvalues", "heat.eig_search", "eigs"),
    ("hornlab.cli", "dirichlet_eigenvalues", "heat.eig_search", "eigs"),
    ("hornlab.heat", "_shoot", "heat.shot", "shot"),
    ("hornlab.heat", "_build_pair", "heat.build_pair", None),
    ("hornlab.heat:CaloricSeries", "slice_log", "heat.slice_log", "points"),
    ("hornlab.heat", "time_derivative", "heat.time_derivative", None),
    ("hornlab.cli", "time_derivative", "heat.time_derivative", None),
    ("hornlab.elliptic", "elliptic_scan", "elliptic.scan", "rows"),
    ("hornlab.cli", "elliptic_scan", "elliptic.scan", "rows"),
    ("hornlab.parabolic", "parabolic_IDN", "parabolic.slice", None),
    ("hornlab.cli", "run", "cli.run", None),
    ("hornlab.cli", "_run_eigs", "cli.stage.eigs", None),
    ("hornlab.cli", "_run_heat", "cli.stage.heat", None),
    ("hornlab.cli", "_run_freq_elliptic", "cli.stage.freq_elliptic", None),
    ("hornlab.cli", "_run_freq_parabolic", "cli.stage.freq_parabolic", None),
    ("hornlab.cli", "_run_analyticity", "cli.stage.analyticity", None),
    ("hornlab.cli", "write_csv", "artifacts.write", None),
    ("hornlab.cli", "write_json", "artifacts.write", None),
    ("hornlab.modes", "write_csv", "artifacts.write", None),
    ("hornlab.elliptic", "write_csv", "artifacts.write", None),
]

LAYERS = ("numerics", "logspace", "modes", "heat", "elliptic", "parabolic",
          "cli", "artifacts")


def is_exact_count(name):
    """Counters that must repeat exactly between two traced runs at one seed."""
    return name.endswith(("_calls", "_evals", "_nevals", "_points")) or \
        name in ("numerics.root_fevals", "heat.shots", "heat.eigs",
                 "numerics.errors", "elliptic.rows", "parabolic.slices")


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counters while installed; see `recording`."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, iteration]
        self.counts = Counter()
        self.shot_nus = []  # (iteration, trial nu) per shot
        self.missing = []
        self._stack = []
        self._iteration = None
        self._undo = []

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, iteration):
        """Hooks installed for the duration of one traced iteration."""
        self._install(iteration)
        try:
            yield
        finally:
            self._uninstall()

    def _install(self, iteration):
        self._iteration = iteration
        self.missing = []
        for owner, attr, name, role in HOOKS:
            try:
                target = _resolve(owner)
                original = getattr(target, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            self._undo.append((target, attr, original))
            counter = owner.rpartition(".")[2].partition(":")[0]
            setattr(target, attr, self._wrap(original, name, role, counter))

    def _uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
        self._iteration = None

    # -- wrappers -----------------------------------------------------------

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _wrap(self, fn, name, role, owner):
        tracer = self
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a hook re-entered from inside itself (special functions call
            # each other) is one operation: record only the outer call
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            it = tracer._iteration
            counts[name + ".calls"] += 1
            if role == "ode":
                args = (tracer._counted(args[0], "numerics.ode_rhs_evals"),
                        *args[1:])
            elif role in ("quad", "root"):
                args = (tracer._counted(args[0], f"{name}.evals.{owner}"),
                        *args[1:])
                counts[f"{name}.calls.{owner}"] += 1
            elif role == "shot":
                tracer.shot_nus.append((it, float(args[2])))
            elif role == "points":
                counts[name + ".points"] += _size(args[1])
            elif role == "rows":
                counts[name + ".rows"] += _size(args[1])
            idx = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else None, it])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name.partition(".")[0] + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if role == "eigs":
                counts["heat.eigs"] += len(result)
            return result

        return wrapper

    # -- derived metrics ----------------------------------------------------

    def metrics(self, iterations):
        """Layer metrics per iteration, over `iterations` traced ones."""
        n = max(1, iterations)
        c = self.counts
        incl = Counter()
        self_time = Counter()
        child = Counter()
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            incl[name] += dur
            self_time[name.partition(".")[0]] += dur - child[idx]

        def per(x):
            return x / n

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def evals(prefix):
            return sum(v for k, v in c.items() if k.startswith(prefix))

        shots = c["heat.shot.calls"]
        distinct = len(set(self.shot_nus))
        slices = c["parabolic.slice.calls"]
        m = {
            "numerics.ode_calls": per(c["numerics.ode.calls"]),
            "numerics.ode_rhs_evals": per(c["numerics.ode_rhs_evals"]),
            "numerics.ode_s": per(incl["numerics.ode"]),
            "numerics.quad_calls": per(c["numerics.quad.calls"]),
            "numerics.quad_nevals": per(evals("numerics.quad.evals.")),
            "numerics.quad_s": per(incl["numerics.quad"]),
            "numerics.root_calls": per(c["numerics.root.calls"]),
            "numerics.root_fevals": per(evals("numerics.root.evals.")),
            "numerics.special_calls": per(c["numerics.special.calls"]),
            "numerics.special_s": per(incl["numerics.special"]),
            "numerics.errors": per(c["numerics.errors"]),
            "logspace.lse_calls": per(c["logspace.lse.calls"]),
            "logspace.lse_s": per(incl["logspace.lse"]),
            "modes.solve_k2_calls": per(c["modes.solve_k2.calls"]),
            "modes.solve_k2_s": per(incl["modes.solve_k2"]),
            "modes.eval_log_points": per(c["modes.eval_log.points"]),
            "modes.eval_log_s": per(incl["modes.eval_log"]),
            "heat.eigs": per(c["heat.eigs"]),
            "heat.shots": per(shots),
            "heat.shots_per_eig": ratio(shots, c["heat.eigs"]),
            "heat.ms_per_shot": ratio(incl["heat.shot"], shots, 1e3),
            "heat.eig_search_s": per(incl["heat.eig_search"]),
            "heat.distinct_shot_frac": ratio(distinct, shots),
            "heat.slice_points": per(c["heat.slice_log.points"]),
            "heat.slice_us_per_point": ratio(
                incl["heat.slice_log"], c["heat.slice_log.points"], 1e6),
            "heat.time_derivative_s": per(incl["heat.time_derivative"]),
            "elliptic.rows": per(c["elliptic.scan.rows"]),
            "elliptic.ms_per_row": ratio(incl["elliptic.scan"],
                                         c["elliptic.scan.rows"], 1e3),
            "elliptic.quad_calls": per(c["numerics.quad.calls.elliptic"]),
            "parabolic.slices": per(slices),
            "parabolic.ms_per_slice": ratio(incl["parabolic.slice"], slices,
                                            1e3),
            "parabolic.quad_nevals_per_slice": ratio(
                c["numerics.quad.evals.parabolic"], slices),
            "artifacts.write_s": per(incl["artifacts.write"]),
            "trace.spans": per(len(self.spans)),
        }
        for stage in ("eigs", "heat", "freq_elliptic", "freq_parabolic",
                      "analyticity"):
            m[f"cli.stage_s.{stage}"] = per(incl[f"cli.stage.{stage}"])
        for layer in LAYERS:
            m[f"self_s.{layer}"] = per(self_time[layer])
        return m


def _size(x):
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


def overhead(untraced, traced):
    """Median traced minus median untraced iteration time."""
    mu = statistics.median(untraced)
    mt = statistics.median(traced)
    return {"trace.wall_s_untraced": mu, "trace.wall_s_traced": mt,
            "trace.overhead_s": mt - mu}
