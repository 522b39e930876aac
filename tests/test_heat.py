import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from support import magnus_sweeps

from hornlab import (ConsistencyError, DomainValidationError, EigenPair,
                     EigenSearchError, IntegrationError, analyticity_probe,
                     caloric_decay_check, dirichlet_eigenvalues, fit_line,
                     lgamma_real, liouville_potential, make_caloric_series,
                     make_horn_params, profile_from_k2, sphere_eigenvalue,
                     tail_bound, tip_rate, weyl_check)
from hornlab import heat, modes, numerics
from hornlab.elliptic import bessel_state, constant_state
from hornlab.logspace import logsumexp_signed
from hornlab.modes import solve_k2, tip_window_top

# pairs8_rout2 eigenvalues from the earlier oscillation-count search
PAIRS8_ROUT2_NU = [10.00860578069562, 25.807764065364, 47.52967782392161,
                   74.9986346873378, 108.09950740438147, 146.7510531204037,
                   190.89243427790572, 240.4760877104673]


# ---------------------------------------------------------------------------
# spectrum structure
# ---------------------------------------------------------------------------


def test_eigenvalues_simple_and_increasing(pairs8_rout2):
    nus = [q.nu for q in pairs8_rout2]
    assert all(b > a for a, b in zip(nus, nus[1:]))
    gaps = [b - a for a, b in zip(nus, nus[1:])]
    assert min(gaps) > 1e-6 * max(nus)


def test_eigenvalues_pinned(pairs8_rout2):
    nus = [q.nu for q in pairs8_rout2]
    assert nus == pytest.approx(PAIRS8_ROUT2_NU, rel=1e-9)


def test_high_eigenvalue_within_root_tolerance(pairs12_rout16):
    # nu_11 at r_out = 1.6, converged: roots of the boundary value and of
    # the Pruefer angle agree to 2e-13 at ODE tolerance 3e-14
    assert pairs12_rout16[10].nu == pytest.approx(676.63695269768, rel=1e-12)


def test_prufer_angle_counts_eigenvalues_exactly(pairs8_rout2, p_default):
    # floor(theta / pi) at nu is the number of eigenvalues below nu: check
    # it below nu_1 and midway between neighbours
    nus = [q.nu for q in pairs8_rout2]
    trials = [0.5 * nus[0]] + [0.5 * (a + b) for a, b in zip(nus, nus[1:])]
    thetas = [heat._shoot_rows(p_default, 1, nu, 2.0, 1e-12)[0][0]
              for nu in trials]
    assert [math.floor(th / math.pi) for th in thetas] == list(range(8))
    assert all(b > a for a, b in zip(thetas, thetas[1:]))


@pytest.mark.parametrize("nu, theta, anchor_meshes, meshes", [
    (50.0, 8.33888534077845, [64, 128, 256], [64, 128, 256]),
    (300.0, 25.065603195661286, [64, 128, 256], [64, 128, 256, 512])],
    ids=["nu=50", "nu=300"])
def test_shot_step_sequence_is_pinned(p_default, monkeypatch, nu, theta,
                                      anchor_meshes, meshes):
    # a shot is the tip anchor's backward Magnus sweeps, then the outer
    # Magnus meshes doubling up to the accepted one, one row each.  A
    # change to the mesh control or to the error estimate shows here first
    sweeps = magnus_sweeps(monkeypatch)
    (got,), _ = heat._shoot_rows(p_default, 1, nu, 1.8, 1e-12)
    assert got == pytest.approx(theta, rel=0.0, abs=1e-13)
    assert sweeps == [([0], m) for m in anchor_meshes + meshes]


@pytest.mark.parametrize("nu, theta, slope, slope_before", [
    (50.0, "0x1.0ad82611f797ap+3", "0x1.bef9bc87f913ap-4",
     "0x1.bef9bc87f9138p-4"),
    (300.0, "0x1.910cb5efbe0d9p+4", "0x1.8cc4a1fda6e40p-5",
     "0x1.8cc4a1fda6e42p-5")],
    ids=["nu=50", "nu=300"])
def test_shot_bits_are_pinned(p_default, nu, theta, slope, slope_before):
    # a shot's angle and its nu-slope at r_out = 1.8, bit for bit: the
    # slope reads the nodes of the sweep that accepts the angle.  The tree
    # scan's order of products moves the slope by 2 ulp from its value
    # under a Hillis-Steele prefix product of the same propagators,
    # slope_before; it stays within 4 ulp of it
    (got_theta,), (got_slope,) = heat._shoot_rows(p_default, 1, nu, 1.8,
                                                  1e-12)
    assert (got_theta, got_slope) == (float.fromhex(theta),
                                      float.fromhex(slope))
    before = float.fromhex(slope_before)
    assert abs(got_slope - before) <= 4 * math.ulp(before)


def test_outer_pass_mesh_sequence_is_pinned(p_default, monkeypatch):
    # an eigenfunction's outer magnus_dense pass at nu_8 of r_out = 1.8 (as
    # dirichlet_eigenvalues finds it): after the tip pass's sweeps, the
    # outer sweeps double until the nodes meet tol at 1024 intervals, and
    # the one read, on the 513 nodes of every other interval, is an
    # interpolant that meets tol too
    reads = []

    def recorded(*args):
        if np.size(args[-1]) % 2:  # a read, on the m + 1 nodes of a mesh
            reads.append(np.size(args[-1]))
        return liouville_potential(*args)

    monkeypatch.setattr(heat, "liouville_potential", recorded)
    sweeps = magnus_sweeps(monkeypatch)
    pair, = heat._build_pairs(p_default, 1, [301.38768658541863], 1.8, 1e-12)
    assert [m for _, m in sweeps] == [128, 256, 512, 128, 256, 512, 1024]
    assert reads == [513]
    assert pair.zeros == 7


# the first 8 eigenvalues at r_out = 1.8 (i = 1, the default point), as
# the lockstep search finds them; those of the fourth-order Magnus step
# lie within 2.7e-13 of them, relative
NUS_ROUT18 = [float.fromhex(h) for h in (
    "0x1.9c609ac4a615bp+3", "0x1.06fde6a34621cp+5", "0x1.e1a6614f85a75p+5",
    "0x1.7aa7f3d38e8e3p+6", "0x1.1034395c366e2p+7", "0x1.70d5a634aa576p+7",
    "0x1.df10b87a58d7dp+7", "0x1.2d633f6d9580ep+8")]


def test_pair_build_work_is_pinned(p_default, monkeypatch):
    # the 8 pairs of r_out = 1.8 are built by one tip pass and then one
    # outer pass, each sweeping the rows still open once per mesh, and
    # reading the nodes of its rows within tol once per level, as (rows,
    # nodes): 3 tip sweeps and 1 read, and 5 outer sweeps and 3 reads, of
    # 11 rows, as the interpolant's estimate holds 3 of them to the next
    # level.  Built one by one under the fourth-order Magnus step, the same
    # pairs took 16 passes of 72 node sweeps and 16 reads
    outer, tip = [], []

    def recorded(*args):
        if np.shape(args[-1])[-1] % 2:  # a read, on the m + 1 nodes of a mesh
            outer.append(np.shape(args[-1]))
        return liouville_potential(*args)

    q_factory = modes._q_factory

    def recorded_q(*args):
        q = q_factory(*args)

        def call(s):
            if np.ndim(s) == 2 and np.shape(s)[1] % 2:
                tip.append(np.shape(s))
            return q(s)

        call.slope = q.slope
        return call

    monkeypatch.setattr(heat, "liouville_potential", recorded)
    monkeypatch.setattr(modes, "_q_factory", recorded_q)
    sweeps = magnus_sweeps(monkeypatch)
    pairs = heat._build_pairs(p_default, 1, NUS_ROUT18, 1.8, 1e-12)
    assert [(len(rows), m) for rows, m in sweeps] == [
        (8, 128), (8, 256), (8, 512),
        (5, 64), (8, 128), (8, 256), (7, 512), (4, 1024)]
    assert outer == [(2, 129), (5, 257), (4, 513)]
    assert tip == [(8, 257)]
    assert [q.zeros for q in pairs] == list(range(8))


def test_build_pairs_rows_equal_single_builds(pairs8_rout2, p_default):
    # each pair of a batch, in either order, is its own one-nu build bit
    # for bit: its evaluator at fixed radii, its zero count and its defect
    nus = [q.nu for q in pairs8_rout2]
    backward = heat._build_pairs(p_default, 1, nus[::-1], 2.0, 1e-12)[::-1]
    for pair, back in zip(pairs8_rout2, backward):
        one, = heat._build_pairs(p_default, 1, [pair.nu], 2.0, 1e-12)
        r = np.geomspace(one.g.r_min, 2.0, 57)
        want = np.concatenate(one.g.eval_log(r)).tobytes()
        for got in (pair, back):
            assert np.concatenate(got.g.eval_log(r)).tobytes() == want
            assert (got.zeros, got.norm_defect) == (one.zeros,
                                                   one.norm_defect)


def test_build_pairs_checks_defects_before_norms(p_default, monkeypatch):
    # a nu that is not an eigenvalue leaves a Dirichlet defect far above
    # 1e-8: the build names it before any norm is taken
    nu = NUS_ROUT18[1] * 1.001

    def no_norm(*args):
        raise AssertionError("a norm was taken before the defect check")

    monkeypatch.setattr(heat, "log_norm_sq", no_norm)
    with pytest.raises(ConsistencyError,
                       match=rf"at r_out for nu = {nu}$"):
        heat._build_pairs(p_default, 1, [NUS_ROUT18[0], nu], 1.8, 1e-12)


@pytest.mark.parametrize("i", [1, 2, 4])
def test_barrier_point_eigenpairs(i):
    # at (5, 9, 0.3, 0.1) the anchor sits at r_sw = 1.9e-4, deep in the tip
    # barrier, and the first intervals of a shot have s ~ 6e3, whose cosh
    # passes the double range: they are carried as e^-s exp(Omega) with s
    # in the log scale.  The first 3 pairs have zero counts 0, 1, 2, and
    # each eigenvalue sits between the Pruefer counts of shots at
    # nu (1 -+ 1e-9)
    p = make_horn_params(5, 9.0, 0.3, 0.1)
    pairs = dirichlet_eigenvalues(p, i, 1.5, 3)
    assert [q.zeros for q in pairs] == [0, 1, 2]
    assert max(q.norm_defect for q in pairs) <= 1e-12
    for j, q in enumerate(pairs):
        below, above = (
            math.floor(heat._shoot_rows(p, i, q.nu * f, 1.5, 1e-12)[0][0]
                       / math.pi) for f in (1 - 1e-9, 1 + 1e-9))
        assert (below, above) == (j, j + 1)


def test_shot_near_nu_30_counts_and_converges(p_default):
    # near nu_30 of index 2 the angle runs past 29 pi: the shot runs without
    # a warning, counts 29 eigenvalues below nu and agrees with a looser shot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (theta,), _ = heat._shoot_rows(p_default, 2, 2896.0, 2.0, 1e-12)
    assert math.floor(theta / math.pi) == 29
    (loose,), _ = heat._shoot_rows(p_default, 2, 2896.0, 2.0, 1e-11)
    assert theta == pytest.approx(loose, rel=0.0, abs=1e-10)


def test_outer_pass_failure_names_the_row_nu(p_default, monkeypatch):
    # the outer pass runs in K log r: a failure names the pass, its row's
    # nu and the radius, then the kernel's row and failure.  With the
    # potential infinite above r = 1.5 the radius is that of the first node
    # past it, inside (1.5, r_out], and it is the location
    liouville = heat.liouville_potential
    monkeypatch.setattr(heat, "liouville_potential", lambda p, i, r: np.where(
        r > 1.5, np.inf, liouville(p, i, r)))
    with pytest.raises(IntegrationError) as err:
        heat._build_pairs(p_default, 1, PAIRS8_ROUT2_NU[:2], 2.0, 1e-12)
    r = err.value.location
    assert 1.5 < r <= 2.0
    assert str(err.value).startswith(
        f"the eigenfunction's outer pass at nu = 10.00860578069562 fails at "
        f"r = {r}: the Magnus propagation of row 0 is not finite")
    assert err.value.row == 0


def test_shot_past_the_mesh_cap_names_nu(p_default, monkeypatch):
    # the same shot with too few intervals allowed fails loudly, naming the
    # shot, nu, the radius and the Richardson estimate it reached; a shot
    # stopped at the cap ends at r_out, its location
    monkeypatch.setattr(numerics, "_MAGNUS_MAX_INTERVALS", 512)
    with pytest.raises(IntegrationError,
                       match=r"^the shot at nu = 2896\.0 fails at r = 2\.0: "
                             r"the Magnus propagation of row 0 reached 512 "
                             r"intervals with Richardson estimate") as err:
        heat._shoot_rows(p_default, 2, 2896.0, 2.0, 1e-12)
    assert err.value.location == 2.0


# _wkb_trials as recorded from its 33-point octave tables, the first trials
# of indices 1 to 4, and index 1's as Brent's method gave it, the root of
# the midpoint phase to 1e-6 hi
WKB_FIRST_TRIALS = {
    (1, 2.0): ["0x1.35a4f2c92d0fep+3", "0x1.969bc31abb494p+4",
               "0x1.7888d10534764p+5", "0x1.29e2a062a80eep+6"],
    (1, 1.6): ["0x1.09a4c6b922bafp+4", "0x1.5454c8a24c05ap+5",
               "0x1.373445452efbap+6", "0x1.e8825afefef61p+6"],
    (1, 1.8): ["0x1.8f3c661680df2p+3", "0x1.0327185a3b264p+5",
               "0x1.dd28937380cefp+5", "0x1.78182ad73e5cdp+6"],
    (2, 2.0): ["0x1.03b0818607761p+4", "0x1.2aaec51c79c04p+5",
               "0x1.0251c58ba52bfp+6", "0x1.874da9728c793p+6"],
    (3, 1.8): ["0x1.fb6eb747801c2p+4", "0x1.063ba2c3d38d3p+6",
               "0x1.ac276b165a9e7p+6", "0x1.383fe81ce7dc9p+7"],
    (1, 0.5): ["0x1.3019d6878f1d1p+8", "0x1.50b34d20adc83p+9",
               "0x1.1d62e65e741f9p+10", "0x1.aaaa649c9714ap+10"]}
BRENT_FIRST_TRIALS = {(1, 2.0): "0x1.35a2036a4a594p+3",
                      (1, 1.6): "0x1.09a486c418307p+4",
                      (1, 1.8): "0x1.8f3dab9ff4411p+3",
                      (2, 2.0): "0x1.03af3ef490ce6p+4",
                      (3, 1.8): "0x1.fb70494b07f91p+4",
                      (1, 0.5): "0x1.3018910d9d2f7p+8"}


def test_wkb_first_trial_is_bitwise_unchanged(p_default):
    # the WKB trials read the Liouville potential from geometry and keep
    # their recorded trials bit for bit (index 1's as the one-octave table
    # gave it); the table's linear inversion stays within 1e-4 of Brent's
    # root (3.7e-5 seen), and the midpoint phase at index 1's trial is
    # 3 pi / 4 to 1e-4 (8.9e-5 seen) and at index j's, for j up to 8,
    # (j - 1/4) pi to 1e-4 relative (5.5e-5 seen; 1.2e-3 absolute)
    got = {key: heat._wkb_trials(p_default, *key, 8)
           for key in WKB_FIRST_TRIALS}
    assert {key: [nu.hex() for nu in nus[:4]] for key, nus in got.items()} \
        == WKB_FIRST_TRIALS
    for (i, r_out), nus in got.items():
        assert nus[0] == pytest.approx(
            float.fromhex(BRENT_FIRST_TRIALS[i, r_out]), rel=1e-4)
        h = r_out / 1024
        V = liouville_potential(p_default, i, (np.arange(1024) + 0.5) * h)
        phase = h * np.sqrt(np.maximum(np.array(nus)[:, None] - V,
                                       0.0)).sum(axis=1)
        assert phase[0] == pytest.approx(0.75 * math.pi, abs=1e-4)
        assert phase.tolist() == pytest.approx(
            (np.arange(1, 9) - 0.25) * math.pi, rel=1e-4)


# dirichlet_eigenvalues(p_default, 1, r_out, 8) and the zero counts, as the
# DOP853 Pruefer shot gave them (tol and root_rel 1e-12)
DOP853_SHOT_NU = {
    1.6: [17.122468670741835, 43.14068087084759, 78.50108099207137,
          122.92303050859707, 176.21842214039322, 238.2534137033523,
          308.9273429071993, 388.16129726095954],
    1.8: [12.886792549209687, 32.87397506292265, 60.20624029280506,
          94.66401606138096, 136.10200012363822, 184.41728367405372,
          239.53265745482227, 301.38768658542443],
    2.0: [10.008605780696794, 25.807764065365912, 47.52967782391813,
          74.99863468732698, 108.0995074043836, 146.75105312040597,
          190.89243427789697, 240.47608771044912]}


def test_eigenvalues_agree_with_the_dop853_shot(p_default, pairs8_rout2,
                                                pairs12_rout16):
    # the Magnus shot moves no eigenvalue by more than the root tolerance
    # and no zero count at all
    pairs = {1.6: pairs12_rout16[:8], 2.0: pairs8_rout2,
             1.8: dirichlet_eigenvalues(p_default, 1, 1.8, 8)}
    for r_out, want in DOP853_SHOT_NU.items():
        assert [q.nu for q in pairs[r_out]] == pytest.approx(want, rel=1e-12)
        assert [q.zeros for q in pairs[r_out]] == list(range(8))


# The default demo's four eigenpairs (dirichlet_eigenvalues(p_default, 1,
# 2.0, 4, tol=1e-12, root_rel=1e-10)) as the dense DOP853 outer solve and
# tip branch gave them: (nu, g, g' = g d log g/dr) at DOP853_PAIR_RADII,
# which lie on both sides of the seam r_sw = 0.1368.  That solve erred by
# about 5e-12 of max|g| in g and 2e-11 of max|g'| in g', against itself at
# tol 1e-13.
DOP853_PAIR_RADII = [0.01, 0.03, 0.08, 0.12, 0.15, 0.2, 0.3, 0.45, 0.6, 0.8,
                     1.0, 1.2, 1.4, 1.6, 1.8, 1.95]
DOP853_DEMO_PAIRS = [
    (10.008605780693419,
     [1.9568147388285997e-20, 1.4394747979549073e-10, 1.607591677996715e-05,
      0.0004149319711209727, 0.0018511964406936544, 0.009772798503549344,
      0.06579078022621682, 0.2845346057156045, 0.6281656978592595,
      1.1167079736082721, 1.4522311225818356, 1.5213028201167333,
      1.3167512577865876, 0.9144047210463092, 0.43447624502335414,
      0.09856618696898962],
     [5.320774482387912e-17, 7.321614794856187e-08, 0.001800308052624056,
      0.024680176176971595, 0.07752584377522057, 0.25933361663783283,
      0.9061485971924419, 1.9643900821200535, 2.5051872958577763,
      2.2003871998550566, 1.0598250991207974, -0.37295196736562425,
      -1.606013170729948, -2.313686026130726, -2.3801244335869183,
      -2.0520759336774]),
    (25.807764064949875,
     [8.2393794267437e-20, 6.06014936846312e-10, 6.756886760271928e-05,
      0.0017387420329528361, 0.0077304869669988065, 0.040471884719720436,
      0.26503818315720934, 1.0647818739054538, 2.0826201321581497,
      2.8546834955537825, 2.393501885383192, 1.0502369431115122,
      -0.27103063372168384, -0.8540497764654698, -0.6115978533131396,
      -0.1538984760607679],
     [2.240367276437228e-16, 3.0822993172646714e-07, 0.007563197321008989,
      0.103250840762948, 0.32270873472920975, 1.0658444625015366,
      3.5561310099552794, 6.6723500073517465, 6.240561393311924,
      0.8878301727466817, -5.159390066040138, -7.450755356319066,
      -5.125428487792305, -0.641734982630978, 2.644294362086413,
      3.1633058511370575]),
    (47.52967782391233,
     [2.3022184246624936e-19, 1.6929543812027439e-09, 0.00018833647817618194,
      0.004826327251820307, 0.021355860727458025, 0.11052694632705447,
      0.6965684010862477, 2.520155721460925, 4.111453759029145,
      3.5857506086263373, 0.7439219757945387, -1.256793833680839,
      -0.9029193693961611, 0.3807537532022013, 0.698800086377966,
      0.2045919273255729],
     [6.259947068797731e-16, 8.610357040781838e-07, 0.021066921837343773,
      0.28595118150258403, 0.8875603845629815, 2.880096118010016,
      8.999963090600634, 13.468475983574852, 5.976722145234619,
      -10.663716690228997, -14.672864978351926, -3.9593451194560556,
      6.043079957044374, 4.981629708782143, -1.7719694004807856,
      -4.1303350575460716]),
    (74.99863468732521,
     [5.245269888374041e-19, 3.856138601366454e-09, 0.00042776933293661045,
      0.010904492383591922, 0.04796011179847695, 0.24461488554120428,
      1.4676224158210538, 4.622133441394398, 5.801907601886823,
      1.9204514970028197, -1.8158538723781095, -0.7484880733854249,
      1.0458953449435302, 0.24236048226179413, -0.6983606704335821,
      -0.25215456485424426],
     [1.4262354892521785e-15, 1.9611410981656152e-06, 0.04780863693285985,
      0.6442165179004921, 1.982026225051852, 6.287690011734005,
      18.019812564311398, 18.904780470807317, -5.418485103460832,
      -26.521264852535847, -6.220714260199884, 12.30961872873263,
      2.3463729234323885, -7.505434330562166, -0.1228598428327551,
      4.9727450563011795]),
]


def test_eigenfunctions_agree_with_the_dop853_pairs(p_default):
    # the Magnus eigenfunction at each recorded eigenvalue: below the seam
    # pointwise, above it against the largest recorded value (measured:
    # 5.6e-13 in g and 1.3e-12 in g' below, 1.2e-12 and 4.9e-12 above)
    r = np.array(DOP853_PAIR_RADII)
    pairs = heat._build_pairs(p_default, 1, [nu for nu, _, _ in
                                             DOP853_DEMO_PAIRS], 2.0, 1e-12)
    for pair, (nu, g_want, dg_want) in zip(pairs, DOP853_DEMO_PAIRS):
        g_want, dg_want = np.array(g_want), np.array(dg_want)
        sgn, lm, ld = pair.g.eval_log(r)
        g = sgn * np.exp(lm)
        tip = r < tip_window_top(p_default, nu)
        for got, want in ((g, g_want), (g * ld, dg_want)):
            assert np.all(np.abs(got[tip] / want[tip] - 1.0) <= 2e-11)
            assert np.max(np.abs(got - want)[~tip]) <= \
                2e-11 * np.max(np.abs(want))


def test_eigensearch_budget_names_index(p_default, monkeypatch):
    monkeypatch.setattr(heat, "_SHOTS_PER_EIGENVALUE", 1)
    with pytest.raises(EigenSearchError, match="index 1"):
        dirichlet_eigenvalues(p_default, 1, 2.0, 2)


def test_eigensearch_budget_is_per_index(p_default, monkeypatch):
    # index 1 takes 4 shots at r_out = 2; seeded at 4 times its WKB trial,
    # index 2 takes 5 (index 3 takes 3): a budget of 4 names index 2, while
    # index 1 and 3, in the same rounds, locate their eigenvalues
    wkb = heat._wkb_trials

    def moved(*args):
        trials = wkb(*args)
        trials[1] *= 4.0
        return trials

    monkeypatch.setattr(heat, "_wkb_trials", moved)
    monkeypatch.setattr(heat, "_SHOTS_PER_EIGENVALUE", 4)
    with pytest.raises(EigenSearchError, match="locating index 2$"):
        dirichlet_eigenvalues(p_default, 1, 2.0, 3)
    monkeypatch.setattr(heat, "_SHOTS_PER_EIGENVALUE", 5)
    pairs = dirichlet_eigenvalues(p_default, 1, 2.0, 3)
    assert [q.nu for q in pairs] == pytest.approx(PAIRS8_ROUT2_NU[:3],
                                                  rel=1e-12)


def test_newton_trial_safeguard():
    # shots map nu to (theta, d theta / d nu); target pi, r_out 2.  A Newton
    # step in sqrt(nu) that lands inside the bracket (2, 3) is the trial
    rel = 1e-12
    both = {9.0: (3.5, 0.5)}
    inside = heat._newton_trial({**both, 4.0: (3.0, 0.25)}, 4.0, math.pi,
                                2.0, rel)
    assert inside == pytest.approx((2.0 + math.pi - 3.0) ** 2, rel=1e-14)
    # one that leaves the bracket, or a slope that is not finite and
    # positive, gives the sqrt(nu) midpoint
    for slope in (0.01, 0.0, -1.0, math.nan, math.inf):
        assert heat._newton_trial({**both, 4.0: (3.0, slope)}, 4.0, math.pi,
                                  2.0, rel) == 6.25
    # with one side missing, a step with slope r_out from the outermost
    # shot, strictly beyond it: upward from 9 when the Newton step from 4
    # falls short of it, downward from 16, at least half way down in
    # sqrt(nu)
    below = {4.0: (1.0, 1.0), 9.0: (2.0, math.nan)}
    assert heat._newton_trial(below, 4.0, math.pi, 2.0, rel) == \
        pytest.approx((3.0 + (math.pi - 2.0) / 2.0) ** 2, rel=1e-14)
    above = {16.0: (5.0, math.nan), 25.0: (6.0, 1.0)}
    assert heat._newton_trial(above, 16.0, math.pi, 2.0, rel) == \
        pytest.approx((4.0 + (math.pi - 5.0) / 2.0) ** 2, rel=1e-14)
    assert heat._newton_trial({16.0: (20.0, math.nan)}, 16.0, math.pi, 2.0,
                              rel) == 4.0
    # a shot exactly on the target still yields a new trial on either side
    assert heat._newton_trial({9.0: (math.pi, math.nan)}, 9.0, math.pi, 2.0,
                              rel) > 9.0
    assert heat._newton_trial({9.0: (4.0, math.nan)}, 9.0, math.pi, 2.0,
                              rel) < 9.0
    # a Newton update within rel of the shot is the search's stop, even
    # where it rounds onto the bracket's end
    assert heat._newton_trial({9.0: (math.pi, 0.1), 16.0: (4.0, 0.1)}, 9.0,
                              math.pi, 2.0, rel) == 9.0


def test_shot_slope_matches_a_central_difference(p_default):
    # the slope drops the anchor's own nu-dependence, a tip part far below
    # the 1e-7 asked here (measured: 3.5e-9 at most); nu = 0.5 has k = 1
    for nu in (0.5, 13.0, 60.0, 300.0):
        _, (slope,) = heat._shoot_rows(p_default, 1, nu, 1.8, 1e-12)
        d = 1e-4 * nu
        (up,), _ = heat._shoot_rows(p_default, 1, nu + d, 1.8, 1e-12)
        (down,), _ = heat._shoot_rows(p_default, 1, nu - d, 1.8, 1e-12)
        assert slope == pytest.approx((up - down) / (2 * d), rel=1e-7)


def test_shot_slope_holds_on_coarse_sweeps(p_default):
    # the Newton slope at the 8 eigenvalues of r_out = 1.8 and the 7
    # midpoints between them, with the anchor state held fixed as the shot
    # holds it: magnus_prufer's slope, the corrected trapezoid of order h^4
    # on the nodes of the sweep that accepts theta (256 to 512 intervals),
    # agrees with a central difference of theta at delta = 1e-6 nu, theta
    # at tol 1e-13, to 1e-8 relative.  Measured: at most 2.4e-10 at the
    # eigenvalues, the difference's noise floor, where u(r_out) = 0 drops
    # the trapezoid's end terms, and up to 4.0e-9 at the midpoints, growing
    # with nu (the fourth-order step, on up to 1024 intervals: 1.0e-9 and
    # 3.9e-10)
    eigs = np.array(NUS_ROUT18)
    nus = np.sort(np.concatenate([eigs, 0.5 * (eigs[1:] + eigs[:-1])]))
    r_sw, dlog = modes.tip_anchor(p_default, 1, nus, 1e-12)

    def shot(nu, tol):
        return numerics.magnus_prufer(
            lambda r, rows: liouville_potential(p_default, 1, r), nu,
            (r_sw, 1.8), (1.0, dlog + 0.5 * p_default.c / r_sw), tol)

    _, slope = shot(nus, 1e-12)
    delta = 1e-6 * nus
    central = (shot(nus + delta, 1e-13)[0]
               - shot(nus - delta, 1e-13)[0]) / (2.0 * delta)
    assert np.max(np.abs(slope / central - 1.0)) <= 1e-8


def test_tip_share_newton_drops_is_small(p_default):
    # the shot's slope leaves out int_0^r_sw u^2; at the eigenpairs of
    # r_out = 1.8 that tip part of the norm, next to the rest, is at most
    # 2.0e-9 (measured), so Newton's steps barely feel it
    pairs = dirichlet_eigenvalues(p_default, 1, 1.8, 8)
    for q in pairs:
        r_sw = tip_window_top(p_default, q.nu)
        (tip,) = modes.log_norm_sq(p_default, q.g.evaluator, q.g.r_min,
                                   r_sw, 1e-12)
        (rest,) = modes.log_norm_sq(p_default, q.g.evaluator, r_sw, 1.8,
                                    1e-12)
        share = math.exp(tip - rest)
        assert share <= 1e-8
    # the pairs' stacked evaluator, one row a pair: each normalized pair
    # keeps its whole norm above the largest r_min
    norms = modes.log_norm_sq(
        p_default, make_caloric_series(pairs, np.ones(8), 0.25).radial,
        np.full(8, max(q.g.r_min for q in pairs)), 1.8, 1e-12)
    assert norms.shape == (8,)
    assert np.max(np.abs(norms)) <= 1e-10


def test_eigensearch_rounds_and_row_shots_are_pinned(p_default, monkeypatch):
    # the search for the first 8 eigenvalues at r_out = 1.8 runs in 4
    # rounds, each one batched shot of the open rows' new trials: 8, 8, 8
    # and 2 rows, 26 row-shots, all distinct (index 1 and 2 take 4 shots,
    # the rest 3), the same 26 the serial search took one by one; a change
    # to the search shows here
    rounds = []
    shoot = heat._shoot_rows

    def counted(p, i, nu, r_out, tol):
        rounds.append(nu.tolist())
        return shoot(p, i, nu, r_out, tol)

    monkeypatch.setattr(heat, "_shoot_rows", counted)
    pairs = dirichlet_eigenvalues(p_default, 1, 1.8, 8)
    assert [len(nus) for nus in rounds] == [8, 8, 8, 2]
    trials = [nu for nus in rounds for nu in nus]
    assert len(set(trials)) == len(trials) == 26
    assert [q.nu for q in pairs] == pytest.approx(NUS_ROUT18, rel=1e-15)


# Eigenvalues and zero counts as the secant-bracket and Brent search gave
# them (tol and root_rel 1e-12): (params, i, r_out) -> eigenvalues
BRENT_SEARCH_NU = {
    ((3, 4.0, 0.5, 0.25), 2, 2.0): [
        16.576823547299302, 37.689841485499024, 64.97193582384631,
        98.260596056729, 137.42433861919855, 182.36380033127537,
        233.00193932693796, 289.2772235700462],
    ((3, 4.0, 0.5, 0.25), 3, 1.8): [
        32.186958124055174, 65.98231209800899, 107.48263142992397,
        156.60431709059432, 213.2037334188978, 277.15605338416316,
        348.3583806829695, 426.72561568058126],
    ((2, 3.0, 0.5, 0.25), 1, 2.0): [
        6.834487343411128, 19.9932881399414, 38.98331116201572,
        63.61346543848795, 93.77191151909987, 129.38339553277217],
    ((3, 4.0, 1.0, 0.25), 1, 2.0): [
        10.396053692128225, 27.852053824895943, 52.17391181670816,
        83.05519016263908, 120.2985155080884, 163.7640511475289],
    ((3, 4.0, 0.1, 0.5), 1, 2.0): [
        9.844037229872866, 23.815299265984187, 42.88997355469197,
        67.04971975179332]}


@pytest.mark.parametrize("key", BRENT_SEARCH_NU, ids=str)
def test_eigenvalues_agree_with_the_brent_search(key):
    params, i, r_out = key
    want = BRENT_SEARCH_NU[key]
    pairs = dirichlet_eigenvalues(make_horn_params(*params), i, r_out,
                                  len(want))
    assert [q.nu for q in pairs] == pytest.approx(want, rel=1e-12)
    assert [q.zeros for q in pairs] == list(range(len(want)))


def test_oscillation_counts(pairs8_rout2):
    # the j-th eigenfunction has exactly j-1 interior zeros
    assert [q.zeros for q in pairs8_rout2] == list(range(8))


def test_domain_monotonicity(pairs8_rout2, pairs12_rout16):
    # every nu_j strictly decreases when r_out increases
    for wide, narrow in zip(pairs8_rout2, pairs12_rout16[:8]):
        assert wide.nu < narrow.nu


def test_dirichlet_and_norm_defect(pairs8_rout2, p_default):
    # the L2(w dr) norm by mpmath's tanh-sinh quadrature, split at the seam
    # between the tip branch and the outer solve
    from hornlab.geometry import measure_weight_log
    for pair in pairs8_rout2[:3]:
        assert pair.norm_defect <= 1e-8

        def sq(r):
            r = float(r)
            _, lm, _ = pair.g.eval_log(np.array([r]))
            return math.exp(2 * lm[0] + measure_weight_log(p_default, r))

        seam = tip_window_top(p_default, pair.nu)
        val = mpmath.quad(sq, [pair.g.r_min, seam, pair.r_out])
        assert float(val) == pytest.approx(1.0, abs=1e-8)


def test_eigenfunction_ode_residual(pairs8_rout2, p_default):
    # mode equation residual at interior points, relative to its terms
    p = p_default
    mu_i = sphere_eigenvalue(p.n, 1)
    pair = pairs8_rout2[1]

    def val(r):
        sgn, lm, _ = pair.g.eval_log(np.array([r]))
        return sgn[0] * math.exp(lm[0])

    for r in np.linspace(0.3, 1.8, 9):
        h = 2e-4
        d2 = (-val(r + 2 * h) + 16 * val(r + h) - 30 * val(r)
              + 16 * val(r - h) - val(r - 2 * h)) / (12 * h * h)
        d1 = (-val(r + 2 * h) + 8 * val(r + h) - 8 * val(r - h)
              + val(r - 2 * h)) / (12 * h)
        resid = d2 + (p.c / r) * d1 \
            - 4.0 * mu_i * r ** (-2 - 2 * p.eps) * val(r) + pair.nu * val(r)
        scale = abs(d2) + abs(pair.nu * val(r)) + 1e-12
        assert abs(resid) <= 1e-5 * scale


def test_tip_outer_stitching_consistent(pairs8_rout2):
    # log-derivative continuous across the representation seam, which sits
    # at the threshold abscissa
    prof = pairs8_rout2[0].g
    r_seam = tip_window_top(prof.params, prof.mu)
    _, _, ld_lo = prof.eval_log(np.array([r_seam * 0.999]))
    _, _, ld_hi = prof.eval_log(np.array([r_seam * 1.001]))
    assert ld_lo[0] == pytest.approx(ld_hi[0], rel=2e-2)


def test_tip_branch_is_profile_from_k2(pairs8_rout2, p_default):
    # below the seam an eigenfunction is the decaying tip profile at its nu,
    # up to one constant factor
    for pair in pairs8_rout2[:4]:
        g = pair.g
        r_seam = tip_window_top(p_default, pair.nu)
        prof = profile_from_k2(p_default, 1, pair.nu, g.r_min, n_grid=16)
        r = np.geomspace(g.r_min, r_seam, 40)[1:-1]
        sg, lg, dg = g.eval_log(r)
        sp, lp, dp = prof.eval_log(r)
        assert np.all(sg == 1.0) and np.all(sp == 1.0)
        shift = lg - lp
        assert np.ptp(shift) <= 1e-12
        assert dg == pytest.approx(dp, rel=1e-12)


def _assert_any_shape(fn, lo, hi):
    # fn on a 16x16 array of radii gives arrays of that shape, bitwise its
    # flat call reshaped; a scalar gives 0-d values
    grid = np.geomspace(lo, hi, 256).reshape(16, 16)
    got, flat = fn(grid), fn(grid.ravel())
    for g, f in zip(got, flat):
        assert np.shape(g) == grid.shape
        assert np.asarray(g).tobytes() == f.reshape(grid.shape).tobytes()
    # a 0-d call may take numpy's scalar loops: equal to rounding
    for g, f in zip(fn(grid[3, 5]), flat):
        assert np.ndim(g) == 0
        np.testing.assert_allclose(g, f[53], rtol=1e-15, atol=0.0)


def test_radial_evaluators_take_radii_of_any_shape(p_default, profile_i1_mu1,
                                                   pairs8_rout2):
    _assert_any_shape(profile_i1_mu1.eval_log, profile_i1_mu1.r_min,
                      profile_i1_mu1.r_max)
    for pair in pairs8_rout2[:2]:  # tip branch and outer solve alike
        _assert_any_shape(pair.g.eval_log, pair.g.r_min, pair.r_out)
    for state in (bessel_state(p_default, 2.0, (0.01, 1.0)),
                  constant_state(p_default, (0.01, 1.0))):
        _assert_any_shape(lambda r: state.radial(r, 0), 0.01, 1.0)
    k2, = solve_k2(p_default, 1, 1.0, 12.0)
    _assert_any_shape(k2.log_eval, *k2.span)


def test_weyl_sandwich(pairs12_rout16, p_default):
    C1, C2 = weyl_check(pairs12_rout16, p_default)
    assert C1 > 0 and C2 > 0 and math.isfinite(C1) and math.isfinite(C2)
    nus = np.array([q.nu for q in pairs12_rout16])
    js = np.arange(1, 13, dtype=float)
    assert np.all(C1 * js ** (2 / p_default.bigN) <= nus * (1 + 1e-12))
    assert np.all(nus <= C2 * js ** 2 * (1 + 1e-12))
    # j = 1 instance
    assert C1 <= nus[0] <= C2
    # fitted exponent of log nu_j vs log j within the sandwich range
    fit = fit_line(np.log(js), np.log(nus))
    assert 2 / p_default.bigN - 0.1 <= fit.slope <= 2.1


def test_weyl_constants_stable(pairs12_rout16, p_default):
    C1a, C2a = weyl_check(pairs12_rout16[:8], p_default)
    C1b, C2b = weyl_check(pairs12_rout16, p_default)
    assert abs(C1a - C1b) <= 0.2 * C1a
    assert abs(C2a - C2b) <= 0.2 * C2a


def test_eigensearch_validates_input(p_default):
    with pytest.raises(DomainValidationError):
        dirichlet_eigenvalues(p_default, 0, 2.0, 2)
    with pytest.raises(DomainValidationError):
        dirichlet_eigenvalues(p_default, 1, 0.05, 2)


@pytest.mark.parametrize("call, name", [
    (lambda p: dirichlet_eigenvalues(p, 1, 2.0, 2.5), "count"),
    (lambda p: dirichlet_eigenvalues(p, 1, math.inf, 2), "r_out"),
    (lambda p: profile_from_k2(p, 1, 1.0, 0.02, n_grid=20.5), "n_grid"),
    (lambda p: heat.taylor_radius([0.0] * 8), r"^taylor_radius .* kmax = 7$")],
    ids=["count", "r_out", "n_grid", "kmax"])
def test_eigensearch_refuses_arguments_it_cannot_use(p_default, monkeypatch,
                                                     call, name):
    # a count or n_grid that is not integral and an r_out that is not
    # finite are refused by name before any work, so no warning escapes;
    # so are fewer than 9 Taylor coefficients, by taylor_radius, which the
    # CLI calls on its own
    def no_work(*args, **kwargs):
        raise AssertionError("work before the arguments were checked")

    monkeypatch.setattr(heat, "_wkb_trials", no_work)
    monkeypatch.setattr(modes, "solve_k2", no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainValidationError, match=name):
            call(p_default)


@pytest.mark.parametrize("key", ["tol", "root_rel"])
@pytest.mark.parametrize("value", [0.0, -1e-12, math.nan, math.inf])
def test_eigensearch_refuses_a_tolerance_that_is_not_positive(p_default, key,
                                                              value):
    with pytest.raises(DomainValidationError, match=f"{key}={value}"):
        dirichlet_eigenvalues(p_default, 1, 2.0, 2, **{key: value})


# ---------------------------------------------------------------------------
# tail certificate
# ---------------------------------------------------------------------------


def test_tail_bound_monotone(pairs12_rout16, p_default):
    b_t = [tail_bound(pairs12_rout16, 8, t, p_default) for t in (0.5, 1.0, 2.0)]
    assert b_t[0] > b_t[1] > b_t[2]
    b_k = [tail_bound(pairs12_rout16, k, 1.0, p_default) for k in (6, 8, 10)]
    assert b_k[0] >= b_k[1] >= b_k[2]


def test_tail_bound_dominates_computed_tail(pairs12_rout16, p_default):
    k, t = 8, 1.0
    partial = sum(q.nu * math.exp(-q.nu * t) for q in pairs12_rout16[k:])
    assert tail_bound(pairs12_rout16, k, t, p_default) >= partial


def test_tail_bound_small_at_unit_time(pairs12_rout16, p_default):
    # at t = 1, k = 8: far below the leading term of the series
    leading = pairs12_rout16[0].nu * math.exp(-pairs12_rout16[0].nu)
    assert tail_bound(pairs12_rout16, 8, 1.0, p_default) <= 1e-6 * leading


def test_tail_bound_rejects_t0(pairs12_rout16, p_default):
    with pytest.raises(DomainValidationError):
        tail_bound(pairs12_rout16, 8, 0.0, p_default)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


def test_single_pair_evaluation(pairs8_rout2):
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.1)
    pair = pairs8_rout2[0]
    r, t = 0.8, 0.4
    s, L, _, _ = single.slice_log(r, t)
    sgn, lm, _ = pair.g.eval_log(np.array([r]))
    assert s == sgn[0]
    assert L == pytest.approx(lm[0] - pair.nu * t, rel=1e-12)


def test_slice_log_array_t_equals_scalar_loop(series4):
    # times broadcast against radii, one radial evaluation per term for all
    # of them, give bitwise the slices of the scalar-t calls
    r = np.geomspace(0.02, 1.5, 24)
    t = np.array([0.1, 0.35, 0.8, 1.4])
    rows = r * (1.0 + 0.1 * np.arange(4))[:, None]  # other radii per time
    for k in (0, 1, 3):
        for radii in (r, rows):
            got = series4.slice_log(radii, t[:, None], k)
            for j, tj in enumerate(t):
                want = series4.slice_log(np.broadcast_to(radii, rows.shape)[j],
                                         tj, k)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g[j], w)


def test_coefficient_linearity(series4, pairs8_rout2):
    doubled = make_caloric_series(pairs8_rout2[:4],
                                  2.0 * series4.coeffs, t_min=0.25)
    s1, L1, _, _ = series4.slice_log(0.5, 0.5)
    s2, L2, _, _ = doubled.slice_log(0.5, 0.5)
    assert s1 == s2
    assert L2 - L1 == pytest.approx(math.log(2.0), rel=1e-12)


def test_truncation_error_below_certificate(pairs8_rout2, p_default):
    # K-term vs (K-2)-term evaluations differ by less than the certificate
    t_min = 0.25
    full = make_caloric_series(pairs8_rout2[:4], [1.0, 0.7, 0.5, 0.35], t_min)
    short = make_caloric_series(pairs8_rout2[:2], [1.0, 0.7], t_min)
    cert = tail_bound(pairs8_rout2, 2, t_min, p_default, coeff_cap=1.0)
    for r in (0.3, 0.8, 1.5):
        sf, Lf, _, _ = full.slice_log(r, t_min)
        ss, Ls, _, _ = short.slice_log(r, t_min)
        diff = abs(sf * math.exp(Lf) - ss * math.exp(Ls))
        assert diff <= cert


def test_time_derivative_order_zero(series4):
    # a scalar radius gives the bits of the one-entry array of radii
    sF, lF, _, _ = series4.slice_log(np.array([0.7]), 0.6)
    assert series4.slice_log(0.7, 0.6)[:2] == (sF[0], lF[0])


def test_slice_log_reads_every_term_in_one_call(series4, pairs8_rout2):
    # one call of the series' evaluator of rows reads all four terms on the
    # radii alone, with the times broadcast after it; each time's slice is
    # bitwise its own call, and the sum is bitwise that of the pairs' own
    # one-row reads
    calls = []

    def counted(r, rows):
        calls.append((np.shape(r), np.shape(rows)))
        return series4.radial(r, rows)

    r = np.geomspace(0.05, 1.5, 7)
    t = np.array([0.25, 0.5, 1.0])
    got = replace(series4, radial=counted).slice_log(r, t[:, None])
    assert calls == [((1, 7), (4, 1, 1))]
    for k, tk in enumerate(t):
        for a, b in zip(got, series4.slice_log(r, tk)):
            assert a[k].tobytes() == b.tobytes()
    sign, lm, ld = (np.array(v) for v in zip(
        *(q.g.eval_log(r) for q in pairs8_rout2[:4])))
    nu = series4.rates[:, None]
    lF = np.array([[math.log(c)] for c in series4.coeffs]) - nu * 0.5 + lm
    want = (*logsumexp_signed(sign, lF),
            *logsumexp_signed(sign * np.sign(ld), lF + np.log(np.abs(ld))))
    for a, b in zip(series4.slice_log(r, 0.5), want):
        assert a.tobytes() == b.tobytes()


def test_eigenfunction_rows_equal_each_pairs_read(p_default, pairs8_rout2):
    # the stacked evaluator reads every row bit for bit as its pair's own
    # one-row evaluator, at radii on both sides of every seam r_sw and at
    # both ends: on all rows, on a shuffled subset, and for a series of
    # the pairs of two searches
    mixed = dirichlet_eigenvalues(p_default, 1, 2.0, 4) + pairs8_rout2[4:]
    for pairs in (pairs8_rout2, mixed):
        seams = [tip_window_top(p_default, q.nu) for q in pairs]
        lo = max(q.g.r_min for q in pairs)
        r = np.sort(np.concatenate([
            np.geomspace(lo, 2.0, 21), seams, np.nextafter(seams, 0.0),
            np.nextafter(seams, 2.0)]))
        assert min(seams) > lo
        want = [q.g.eval_log(r) for q in pairs]
        table = make_caloric_series(pairs, np.ones(8), 0.25).radial
        shuffled = np.random.default_rng(3).permutation(8)[:5]
        for rows in (np.arange(8), shuffled):
            got = table(r, rows[:, None])
            for k, row in enumerate(rows):
                for a, b in zip(got, want[row]):
                    assert a[k].tobytes() == b.tobytes()
        # each row at the ends of its own range, the rows broadcast
        # against the radii
        ends = np.array([[q.g.r_min for q in pairs], [q.g.r_max for q in pairs]])
        got = table(ends, np.arange(8))
        for k, q in enumerate(pairs):
            for a, b in zip(got, q.g.eval_log(ends[:, k])):
                assert a[:, k].tobytes() == b.tobytes()


def test_series_checks_each_terms_range(pairs8_rout2):
    # the pairs' r_min differ: a radius just below the largest, though
    # above the others, lies outside that term's represented range
    r_mins = [q.g.r_min for q in pairs8_rout2]
    r = max(r_mins) * (1.0 - 1e-9)
    assert min(r_mins) < r
    series = make_caloric_series(pairs8_rout2, np.ones(8), 0.25)
    with pytest.raises(DomainValidationError,
                       match=rf"^represented radius={re.escape(str(r))} "):
        series.slice_log(np.array([1.0, r]), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_refused(pairs8_rout2, bad):
    # the log-space sum treats a NaN term as an exact zero, so a NaN
    # coefficient would silently drop its pair
    with pytest.raises(DomainValidationError, match="must be finite"):
        make_caloric_series(pairs8_rout2[:2], [bad, 1.0], t_min=0.25)


def test_time_derivative_single_pair_closed_form(pairs8_rout2):
    single = make_caloric_series(pairs8_rout2[:1], [0.9], t_min=0.1)
    pair = pairs8_rout2[0]
    r, t = 0.9, 0.7
    sgn, lm, _ = pair.g.eval_log(np.array([r]))
    for k in (0, 1, 2, 5):
        s, L, _, _ = single.slice_log(r, t, k)
        assert L == pytest.approx(
            math.log(0.9) + k * math.log(pair.nu) - pair.nu * t + lm[0],
            rel=1e-12)
        # alternating sign in k when c_1 g_1(r) > 0
        assert s == (1 if k % 2 == 0 else -1) * sgn[0]


def test_time_derivative_matches_finite_difference(series4):
    r, t = 0.6, 0.5
    s, L, _, _ = series4.slice_log(r, t, 1)
    h = 1e-5
    sa, La, _, _ = series4.slice_log(r, t + h)
    sb, Lb, _, _ = series4.slice_log(r, t - h)
    fd = (sa * math.exp(La) - sb * math.exp(Lb)) / (2 * h)
    assert s * math.exp(L) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# analyticity
# ---------------------------------------------------------------------------


def test_analyticity_single_pair_radius_grows(pairs8_rout2):
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.1)
    rhos = [analyticity_probe(single, 0.8, 0.5, kmax) for kmax in (8, 16, 24)]
    assert rhos[0] < rhos[1] < rhos[2]
    assert all(r > 0 for r in rhos)


def test_analyticity_two_pair(series2):
    rho16 = analyticity_probe(series2, 0.8, 0.5, 16)
    rho24 = analyticity_probe(series2, 0.8, 0.5, 24)
    assert rho16 >= 0.5
    assert rho24 >= rho16 * (1 - 1e-12)


def test_taylor_coefficients_are_time_derivatives(series4):
    # the one helper behind analyticity_probe and the CLI's coefficient
    # list: a_k = d^k_t u / k!, in log space
    r0, t0, kmax = 0.8, 0.5, 16
    log_ak = heat.taylor_coefficients(series4, r0, t0, kmax)
    assert len(log_ak) == kmax + 1
    for k, L in enumerate(log_ak):
        s, Ld, _, _ = series4.slice_log(r0, t0, k)
        assert s != 0
        assert math.exp(L) == pytest.approx(
            math.exp(Ld) / math.factorial(k), rel=1e-13)
    assert heat.taylor_radius(log_ak) == \
        analyticity_probe(series4, r0, t0, kmax)


def test_taylor_coefficients_evaluate_the_series_once(series4):
    # every order at (r0, t0) comes from one call of the series' evaluator
    # of rows, all terms at the one radius, and each coefficient is bitwise
    # that of the order's own time derivative
    r0, t0, kmax = 0.8, 0.5, 16
    calls = []

    def counted(r, rows):
        calls.append((np.shape(r), np.shape(rows)))
        return series4.radial(r, rows)

    log_ak = heat.taylor_coefficients(replace(series4, radial=counted), r0,
                                      t0, kmax)
    assert calls == [((1,), (4, 1))]
    for k, L in enumerate(log_ak):
        _, Ld, _, _ = series4.slice_log(r0, t0, k)
        assert L == Ld - lgamma_real(k + 1.0)


@pytest.mark.parametrize("state", ["series4", "constant"])
def test_slice_log_orders_broadcast(state, series4, p_default):
    # orders broadcast against radii and times like a third coordinate:
    # bitwise the slices of one call per order, with the exact zeros of a
    # rate-0 term at k >= 1
    series = (series4 if state == "series4"
              else constant_state(p_default, (0.01, 2.0)))
    r, t, k = np.array([0.05, 0.4, 1.1]), 0.5, np.arange(4)[:, None]
    got = series.slice_log(r, t, k)
    for kk in range(4):
        for a, b in zip(got, series.slice_log(r, t, kk)):
            assert np.array_equal(a[kk], b)
    if state == "constant":
        assert np.all(got[0][1:] == 0) and np.all(got[1][1:] == -math.inf)


def test_analyticity_zero_series(pairs8_rout2):
    zero = make_caloric_series(pairs8_rout2[:2], [0.0, 0.0], t_min=0.1)
    assert analyticity_probe(zero, 0.8, 0.5, 16) == math.inf


def test_analyticity_radius_past_double_range(series2):
    # at t0 = 1e6 the coefficients are about exp(-1e7 k): the radius lies
    # past the double range and reads +inf, as for a zero series
    assert analyticity_probe(series2, 0.8, 1e6, 16) == math.inf


# ---------------------------------------------------------------------------
# tip decay of the series
# ---------------------------------------------------------------------------


def test_caloric_decay_single_pair_bracket(pairs8_rout2, p_default):
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.25)
    rho = tip_rate(p_default, 1)
    grid = np.geomspace(0.02, 0.12, 40)
    fit = caloric_decay_check(single, grid, single.slice_log(grid, 0.5)[1])
    assert -(rho + 2.0) <= fit.slope <= -(rho - 1.0)


def test_caloric_decay_series(series4):
    grid = np.geomspace(0.02, 0.12, 40)
    sF, lF, _, _ = series4.slice_log(grid, 0.5)
    fit = caloric_decay_check(series4, grid, lF)
    rng = lF.max() - lF.min()
    assert fit.slope < 0
    assert fit.max_residual <= 0.10 * rng


def test_caloric_decay_t_independent(series4):
    grid = np.geomspace(0.02, 0.12, 40)
    slopes = [caloric_decay_check(series4, grid,
                                  series4.slice_log(grid, t)[1]).slope
              for t in (0.25, 0.5, 1.0)]
    spread = max(slopes) - min(slopes)
    assert spread <= 0.15 * abs(slopes[1])


def test_caloric_decay_rejects_radial_part(pairs8_rout2):
    fake = EigenPair(nu=pairs8_rout2[0].nu, mode_index=0,
                     g=pairs8_rout2[0].g, r_out=pairs8_rout2[0].r_out,
                     zeros=0, norm_defect=0.0)
    bad = make_caloric_series([fake], [1.0], t_min=0.25)
    with pytest.raises(DomainValidationError):
        caloric_decay_check(bad, np.geomspace(0.02, 0.12, 10),
                            np.zeros(10))


def test_series_refuses_pairs_of_two_horns(pairs8_rout2):
    # one evaluator reads every term with one horn's eps, c and beta, so a
    # pair of another horn is refused, not read with the wrong ones
    other = make_horn_params(3, 4.0, 0.5, 0.3)
    fake = replace(pairs8_rout2[1], g=replace(pairs8_rout2[1].g, params=other))
    with pytest.raises(DomainValidationError, match="share the horn's params"):
        make_caloric_series([pairs8_rout2[0], fake], [1.0, 1.0], t_min=0.25)


def test_series_refuses_pairs_of_two_truncations(pairs8_rout2,
                                                  pairs12_rout16):
    # eigenpairs of r_out = 2.0 and 1.6 are not one spectrum: the second
    # eigenfunction does not cover the first one's range
    later = next(q for q in pairs12_rout16 if q.nu > pairs8_rout2[0].nu)
    with pytest.raises(DomainValidationError,
                       match=r"r_out = 2\.0 and r_out = 1\.6"):
        make_caloric_series([pairs8_rout2[0], later], [1.0, 1.0], t_min=0.25)


def test_series_constructor_validation(pairs8_rout2):
    with pytest.raises(DomainValidationError):
        make_caloric_series(pairs8_rout2[:2], [1.0], t_min=0.2)
    with pytest.raises(DomainValidationError):
        make_caloric_series([pairs8_rout2[1], pairs8_rout2[0]], [1.0, 1.0],
                            t_min=0.2)
