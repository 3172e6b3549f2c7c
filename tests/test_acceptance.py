"""Acceptance suite: one test per shipped claim, each printing a single
PASS/FAIL line with the worst measured residual before asserting it.

Run with -s to see the lines; `pytest -v` gives one status line per
criterion either way.  Criterion 7 is split: the four-dimensional product
is asserted green, the six-dimensional one is an expected failure kept
strict so the suite notices if its status ever changes.
"""

import time

import numpy as np
import pytest

from kahlerkit.jets import Jet2, SamplePlan, jconst, jsin, jsize, pack
from kahlerkit.fields import (ChartManifold, Field, curvature_from_jets,
                              metric_jets, nijenhuis)
from kahlerkit.hermitian import HermitianTriple, kahler_verdict
from kahlerkit.foliation import (VERDICT_FAILED, VERDICT_HOLOMORPHIC,
                                 VERDICT_PRODUCT, classify,
                                 extract_theta)
from kahlerkit.calabi import (CalabiProfile, build_calabi, disk_base,
                              flat_base, lee_form_of_I0, volume_checks)
from kahlerkit.twist import (build_twist, constant_twist, coordinate_twist,
                             norm_factor_expected, norm_factor_measured,
                             ricci_identity_check,
                             transverse_holomorphy_residuals)
from kahlerkit.almost_kahler import (ak3_residual, build_ak_product,
                                     einstein_residual, iterate_chain,
                                     torsion_report)
from kahlerkit.scenarios import render_json, run_scenario


def crit(num, ok, detail):
    print("%s  criterion %s: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %s: %s" % (num, detail)


def flat_gfn(dim):
    def gfn(pt):
        n = jsize(pt)
        return [[jconst(1.0 if i == j else 0.0, n) for j in range(dim)]
                for i in range(dim)]
    return gfn


def make_disk_cal(z_range=(0.5, 2.0)):
    base, alpha = disk_base(1)
    prof = CalabiProfile(A=-1.0, z_range=z_range, s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha)


def test_criterion_1_curvature_engine_oracles():
    t0 = time.perf_counter()
    worst_flat = 0.0
    for dim in (2, 3, 4):
        chart = ChartManifold(dim, [(-1.0, 1.0)] * dim)
        gfn = flat_gfn(dim)
        for p in chart.samples(SamplePlan(dim, 6)):
            Rlow, _, _, _ = curvature_from_jets(*metric_jets(gfn, p))
            worst_flat = max(worst_flat, np.abs(Rlow).max())

    sphere = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)])

    def sphere_g(pt):
        n = jsize(pt)
        su = jsin(pt[0])
        zero = jconst(0.0, n)
        return [[jconst(1.0, n), zero], [zero, su * su]]

    worst_sphere = 0.0
    for p in sphere.samples(SamplePlan(5, 10)):
        _, _, scal, _ = curvature_from_jets(*metric_jets(sphere_g, p))
        worst_sphere = max(worst_sphere, abs(scal - 2.0))

    half = ChartManifold(2, [(-1.0, 1.0), (0.5, 2.0)])

    def hyper_g(pt):
        n = jsize(pt)
        y2 = (pt[1] * pt[1]).inv()
        return [[y2, jconst(0.0, n)], [jconst(0.0, n), y2]]

    worst_hyper = 0.0
    for p in half.samples(SamplePlan(6, 10)):
        _, _, scal, _ = curvature_from_jets(*metric_jets(hyper_g, p))
        worst_hyper = max(worst_hyper, abs(scal + 2.0))

    elapsed = time.perf_counter() - t0
    ok = worst_flat <= 1e-11 and worst_sphere <= 1e-9 and worst_hyper <= 1e-9 \
        and elapsed < 1.0
    crit(1, ok, "flat %.2e (tol 1e-11), sphere %.2e, hyperbolic %.2e "
         "(tol 1e-9), %.2fs" % (worst_flat, worst_sphere, worst_hyper, elapsed))


def test_criterion_2_calabi_builder_flat_base():
    t0 = time.perf_counter()
    base, alpha = flat_base()
    prof = CalabiProfile(A=-1.0, z_range=(0.6, 1.8), s_range=(-0.8, 0.8))
    cal = build_calabi(base, prof, alpha=alpha)

    kv = kahler_verdict(cal.triple(), SamplePlan(5, 12), tolerance=1e-7)
    kah = max(kv.residuals().values())

    rep = classify(cal.triple(), cal.proj_plus, SamplePlan(6, 12))
    hom = rep.homothetic_residual
    geod = rep.dplus_totally_geodesic_residual

    theta_dev = 0.0
    nij = 0.0
    for p in cal.chart.samples(SamplePlan(7, 10)):
        th = extract_theta(cal.triple(), cal.proj_plus, p)
        want = np.zeros(4)
        want[1] = 1.0 / p[1]
        theta_dev = max(theta_dev, np.abs(th - want).max())
        nij = max(nij, np.abs(nijenhuis(cal.I0.fn, p)).max())

    vol = 0.0
    for p in cal.chart.samples(SamplePlan(8, 50)):
        vc = volume_checks(cal, p)
        vol = max(vol, vc["residual_z"], vc["residual_r"])

    elapsed = time.perf_counter() - t0
    ok = kv.is_kahler and kah <= 1e-7 and hom <= 1e-7 and theta_dev <= 1e-7 \
        and nij <= 1e-7 and geod <= 1e-7 and vol <= 1e-9 and elapsed < 10.0
    crit(2, ok, "kahler %.2e, homothetic %.2e, theta-dlnz %.2e, "
         "I0-nijenhuis %.2e, xi(D+,D+) %.2e (tol 1e-7), volume %.2e "
         "(tol 1e-9, 50 pts), %.2fs"
         % (kah, hom, theta_dev, nij, geod, vol, elapsed))


def test_criterion_3_lee_form_closed_forms():
    prof = CalabiProfile(A=-1.0, z_range=(0.05, 1.4), s_range=(-0.8, 0.8))
    base, alpha = disk_base(1)
    cal = build_calabi(base, prof, alpha=alpha)
    worst = 0.0
    for r in np.linspace(0.3, 0.9, 20):
        z = prof.moment_map_G(r)
        th0, fit = lee_form_of_I0(cal, [0.1, z, 0.1, -0.2])
        drc = th0[1] * prof.G_prime(r)
        x = Jet2.seed(np.array([0.1, z, 0.1, -0.2]))
        gv = np.array([[e.value for e in row] for row in cal.g.fn(x)])
        n2 = float(th0 @ np.linalg.inv(gv) @ th0)
        worst = max(worst, fit, abs(drc - prof.lee_dr_coefficient(r)),
                    abs(n2 - prof.lee_norm_sq(r)))
    anchor = max(abs(prof.lee_dr_coefficient(0.5) - (-5.7707801635558535)),
                 abs(prof.lee_norm_sq(0.5) - 8.325475924022431))
    ok = worst <= 1e-8 and anchor <= 1e-8
    crit(3, ok, "20 radii in [0.3, 0.9]: worst formula deviation %.2e "
         "(tol 1e-8), anchors at r=0.5 off by %.2e" % (worst, anchor))


def test_criterion_4_twist_invariance_norm_integrability():
    t0 = time.perf_counter()
    cal = make_disk_cal()

    inv = 0.0
    for tw in (constant_twist(0.3, 0.4), coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        for p in cal.chart.samples(SamplePlan(3, 8)):
            x = Jet2.seed(np.asarray(p, float))
            vals = lambda fn: np.array([[e.value for e in row] for row in fn(x)])
            g, gw = vals(cal.g.fn), vals(tt.g_w.fn)
            inv = max(inv, np.abs(vals(tt.J_w.fn).T @ gw
                                  - vals(cal.J.fn).T @ g).max())
            inv = max(inv, np.abs(vals(tt.I_w.fn).T @ gw
                                  - vals(cal.I0.fn).T @ g).max())

    norm = 0.0
    targets = [(0.0, 0.0, 1.0), (0.5, 0.0, 3.0), (0.3, 0.4, 37.0 / 15.0)]
    for w1, w2, want in targets:
        tt = build_twist(cal, constant_twist(w1, w2))
        assert abs(norm_factor_expected(w1, w2) - want) < 1e-15
        for p in cal.chart.samples(SamplePlan(4, 6)):
            got = norm_factor_measured(cal.g.fn, tt.g_w.fn, cal.theta.fn, p)
            norm = max(norm, abs(got - want))

    plan = SamplePlan(5, 8)
    tw = coordinate_twist(2, 3)
    tt = build_twist(cal, tw)
    res = transverse_holomorphy_residuals(cal.J.fn, cal.proj_plus,
                                          tw.fn, cal.chart, plan)
    nij_good = max(np.abs(nijenhuis(tt.J_w.fn, p)).max()
                   for p in cal.chart.samples(plan))
    twc = coordinate_twist(2, 3, conj=True)
    ttc = build_twist(cal, twc)
    resc = transverse_holomorphy_residuals(cal.J.fn, cal.proj_plus,
                                           twc.fn, cal.chart, plan)
    nij_bad = max(np.abs(nijenhuis(ttc.J_w.fn, p)).max()
                  for p in cal.chart.samples(plan))

    elapsed = time.perf_counter() - t0
    iff = res["primary"] <= 1e-7 and nij_good <= 1e-7 \
        and resc["primary"] > 1e-7 and nij_bad > 1e-7
    ok = inv <= 1e-9 and norm <= 1e-9 and iff and elapsed < 10.0
    crit(4, ok, "form invariance %.2e, norm factor %.2e (tol 1e-9); "
         "transverse %.2e -> nijenhuis %.2e, conjugate control %.2e -> %.2e "
         "(gate 1e-7), %.2fs"
         % (inv, norm, res["primary"], nij_good, resc["primary"], nij_bad,
            elapsed))


def test_criterion_5_three_term_ricci_identity():
    t0 = time.perf_counter()
    cal = make_disk_cal()
    worst = 0.0
    correction = 0.0
    for tw in (constant_twist(0.0), coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        for p in cal.chart.samples(SamplePlan(6, 30)):
            chk = ricci_identity_check(cal, tw, tt, p)
            worst = max(worst, chk["corrected"])
            correction = max(correction, chk["correction_size"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    crit(5, ok, "three-term Ricci-form identity %.2e (tol 1e-6, 30 pts, "
         "w=0 and w=zeta; fiber term size %.2e), %.2fs"
         % (worst, correction, elapsed))


def test_criterion_6_ak3_product_identities():
    t0 = time.perf_counter()
    zt, _ = disk_base(1)
    ak = build_ak_product(zt, coordinate_twist(0, 1))
    plan = SamplePlan(7, 30)
    a3 = ak3_residual(ak, plan)
    tr = torsion_report(ak, plan)
    elapsed = time.perf_counter() - t0
    blocks = max(a3["block_plane"], a3["block_z"])
    ranks_ok = len(tr.span_ranks) > 0 and set(tr.span_ranks) == {2}
    ok = a3["relative"] <= 1e-6 and blocks <= 1e-6 \
        and tr.prelt_residual <= 1e-8 and ranks_ok and elapsed < 60.0
    crit(6, ok, "AK3 normalized %.2e, proof blocks %.2e (tol 1e-6), "
         "derivative identity %.2e (tol 1e-8), torsion ranks %s at %d pts, "
         "%.2fs" % (a3["relative"], blocks, tr.prelt_residual,
                    sorted(set(tr.span_ranks)), tr.points_used, elapsed))


def test_criterion_7a_four_dim_product_ricci_flat():
    t0 = time.perf_counter()
    zt, _ = disk_base(1)
    ak = build_ak_product(zt, coordinate_twist(0, 1))
    er = einstein_residual(ak.g, SamplePlan(8, 30), chart=ak.chart)
    elapsed = time.perf_counter() - t0
    ok = er["ricci_max"] <= 1e-6 and elapsed < 300.0
    crit("7a", ok, "4-dim product max |Ric| %.2e (tol 1e-6, 30 pts), %.2fs"
         % (er["ricci_max"], elapsed))


@pytest.mark.xfail(strict=True,
                   reason="the six-dimensional iterated product is not "
                          "Ricci-flat as built; max |Ric| is order one at "
                          "every sampled point")
def test_criterion_7b_six_dim_product_ricci_flat():
    levels = iterate_chain("twisted", 2)
    ak = build_ak_product(levels[1].triple, coordinate_twist(2, 3))
    er = einstein_residual(ak.g, SamplePlan(9, 15), chart=ak.chart)
    ok = er["ricci_max"] <= 1e-5
    crit("7b", ok, "6-dim product max |Ric| %.2e (tol 1e-5, 15 pts)"
         % er["ricci_max"])


def test_criterion_8_classifier_verdicts_stable():
    cal = make_disk_cal()
    tt = build_twist(cal, coordinate_twist(2, 3))

    disk, _ = disk_base(1)
    pchart = ChartManifold(4, [(-1.0, 1.0), (-1.0, 1.0)] + list(disk.chart.domain))

    def pg(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        gb = disk.g(pt[2:])
        return [[jconst(1.0, n), zero, zero, zero],
                [zero, jconst(1.0, n), zero, zero],
                [zero, zero, gb[0][0], gb[0][1]],
                [zero, zero, gb[1][0], gb[1][1]]]

    def pJ(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[zero, one * (-1.0), zero, zero],
                [one, zero, zero, zero],
                [zero, zero, zero, one * (-1.0)],
                [zero, zero, one, zero]]

    def pP(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero, zero, zero],
                [zero, one, zero, zero],
                [zero, zero, zero, zero],
                [zero, zero, zero, zero]]

    gfn = cal.g.fn

    bump = np.zeros((4, 4))
    bump[2, 2] = 0.3

    def broken(pt):
        return pack(gfn(pt)) + jsin(pt[1]) * bump

    cases = [
        ("twisted calabi", tt.triple(), cal.proj_plus, VERDICT_HOLOMORPHIC),
        ("product", HermitianTriple(pg, pJ, pchart),
         Field(pP), VERDICT_PRODUCT),
        ("broken metric", HermitianTriple(broken, cal.J.fn, cal.chart),
         cal.proj_plus, VERDICT_FAILED),
    ]
    got = []
    stable = True
    for label, t, s, want in cases:
        v50 = classify(t, s, SamplePlan(11, 50)).verdict
        v200 = classify(t, s, SamplePlan(12, 200)).verdict
        got.append("%s->%s" % (label, v50))
        stable = stable and (v50 == v200 == want)
    crit(8, stable, "%s, identical at 50 and 200 samples" % "; ".join(got))


def test_criterion_9_deterministic_reports():
    worst = []
    for name in ("sphere", "ak_disk"):
        r1 = run_scenario(name, samples=8)
        r2 = run_scenario(name, samples=8)
        same = render_json(r1["checks"]) == render_json(r2["checks"])
        worst.append("%s %s" % (name, "identical" if same else "DIFFERS"))
        assert same
    crit(9, True, "check records byte-identical across reruns: %s"
         % "; ".join(worst))
