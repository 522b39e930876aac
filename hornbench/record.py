"""Record the reference values the benchmark checks outputs against.

    python3 hornbench/record.py        # from the repository root, ~3 min

Writes hornbench/reference.json: the eigenpairs the demo and the
functionals workload build (eigenvalues, zero counts and the profiles on
two radial grids), the parabolic bilinear forms of those pairs, elliptic
scan rows for every catalogued state, normalization bounds, and the
spectrum for every catalogued r_out.  Re-record only when a change is meant
to alter these values, and say so.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(__file__)]
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from hornlab import elliptic, heat, modes, parabolic  # noqa: E402
import workloads as w  # noqa: E402


def profile_values(pairs, r):
    vals = [pair.g.eval_log(r) for pair in pairs]
    return {"r": r.tolist(),
            "sign": [v[0].tolist() for v in vals],
            "log": [v[1].tolist() for v in vals],
            "dlog": [v[2].tolist() for v in vals]}


def gram(pairs, R):
    """Bilinear forms B_jk(R) of I and D by polarisation over unit series."""
    K = len(pairs)
    out = {"I": np.zeros((K, K)), "D": np.zeros((K, K))}

    def IDN(c):
        series = heat.make_caloric_series(pairs, c, 0.25)
        return parabolic.parabolic_IDN(series, R, w.PARABOLIC_TOL)

    diag = [IDN(np.eye(K)[j]) for j in range(K)]
    for j in range(K):
        out["I"][j, j], out["D"][j, j] = diag[j][0], diag[j][1]
        for k in range(j + 1, K):
            I, D, _ = IDN(np.eye(K)[j] + np.eye(K)[k])
            out["I"][j, k] = out["I"][k, j] = \
                0.5 * (I - diag[j][0] - diag[k][0])
            out["D"][j, k] = out["D"][k, j] = \
                0.5 * (D - diag[j][1] - diag[k][1])
    return out["I"].tolist(), out["D"].tolist()


def rows(state, grid, **kw):
    scan = elliptic.elliptic_scan(state, grid, **kw)
    return {"r": scan.scale.tolist(), "I": scan.I.tolist(),
            "E": scan.ED.tolist(), "U": scan.UN.tolist()}


def main():
    p = w.params()
    cfg = w.BASE_CONFIG
    q = w.PAIRS
    pairs = heat.dirichlet_eigenvalues(p, q["i"], q["r_out"], q["count"],
                                       tol=q["tol"], root_rel=q["root_rel"])
    h = cfg["heat"]
    lo = max(pair.g.r_min for pair in pairs)
    ref = {"pairs": {
        "nu": [pair.nu for pair in pairs],
        "zeros": [pair.zeros for pair in pairs],
        "heat": profile_values(pairs, np.geomspace(h["r_lo"], h["r_hi"],
                                                   h["points"])),
        "wide": profile_values(pairs, np.geomspace(1.01 * lo,
                                                   0.97 * q["r_out"], 96)),
    }}
    fr = cfg["freq"]
    R_grid = np.geomspace(fr["R_lo"], fr["R_hi"], fr["R_points"])
    forms = [gram(pairs, float(R)) for R in R_grid]
    ref["parabolic_gram"] = {"R": R_grid.tolist(),
                             "I": [f[0] for f in forms],
                             "D": [f[1] for f in forms]}
    print("pairs and bilinear forms recorded", flush=True)

    m = cfg["mode"]
    prof = modes.profile_from_k2(p, m["i"], m["mu"], m["r_min"],
                                 n_grid=m["n_grid"],
                                 tol=min(cfg["tolerances"]["ode"], 1e-11))
    ref["demo_elliptic"] = rows(
        elliptic.profile_state(prof),
        np.geomspace(fr["lo"], fr["hi"], fr["points"]),
        tol=min(cfg["tolerances"]["quad"], 1e-9))
    ref["profile_elliptic"] = {}
    ref["normalization"] = {}
    for mu in w.PROFILE_MUS:
        prof = modes.profile_from_k2(p, 1, mu, w.PROFILE_R_MIN, n_grid=64)
        lo, hi, n_rows = w.PROFILE_GRID
        grid = np.geomspace(lo, hi * prof.r_max, n_rows)
        ref["profile_elliptic"][str(mu)] = rows(elliptic.profile_state(prof),
                                                grid)
        ref["normalization"][str(mu)] = list(modes.normalization_bound(p, 1,
                                                                       mu))
    ref["bessel_elliptic"] = {
        str(mu): rows(elliptic.bessel_state(p, mu, w.BESSEL_DOMAIN),
                      np.geomspace(*w.BESSEL_GRID))
        for mu in w.BESSEL_MUS}
    print("elliptic rows recorded", flush=True)

    s = w.SPECTRUM
    ref["spectrum"] = {}
    for r_out in w.R_OUT_CHOICES:
        sp = heat.dirichlet_eigenvalues(p, s["i"], r_out, s["count"],
                                        tol=s["tol"], root_rel=s["root_rel"])
        ref["spectrum"][f"{r_out:.2f}"] = {"nu": [x.nu for x in sp],
                                           "zeros": [x.zeros for x in sp]}
        print(f"spectrum r_out={r_out:.2f} recorded", flush=True)

    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
