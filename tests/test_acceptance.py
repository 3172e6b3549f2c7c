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

from kahlerkit.jets import Jet2, SamplePlan, jsin, pack
from kahlerkit.fields import (ChartManifold, PointEval, curvature_from_jets,
                              metric_jets, worst)
from kahlerkit.hermitian import HermitianTriple, kahler_point
from kahlerkit.foliation import (VERDICT_FAILED, VERDICT_HOLOMORPHIC,
                                 VERDICT_PRODUCT, classify_point,
                                 extract_theta, foliation_report)
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base, volume_checks
from kahlerkit.twist import (build_twist, constant_twist, coordinate_twist,
                             norm_factor_expected, norm_factor_measured,
                             ricci_identity_check,
                             transverse_holomorphy_point)
from kahlerkit.almost_kahler import (ak3_point, build_ak_product,
                                     einstein_point, iterate_chain,
                                     torsion_point)
from kahlerkit.scenarios import load_scenario, render_json, run_scenario_obj
from helpers import (fiber_correction_size, fold_plan, nijenhuis_at, product_triple,
                     sphere_metric)
from paper_claims import lee_form_of_I0


def crit(num, ok, detail):
    print("%s  criterion %s: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %s: %s" % (num, detail)


def make_disk_cal(z_range=(0.5, 2.0)):
    base, alpha = disk_base(1)
    prof = CalabiProfile(A=-1.0, z_range=z_range, s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha)


def test_criterion_1_curvature_engine_oracles():
    t0 = time.perf_counter()
    worst_flat = 0.0
    for dim in (2, 3, 4):
        chart = ChartManifold(dim, [(-1.0, 1.0)] * dim)
        for p in chart.samples(SamplePlan(dim, 6)):
            Rlow, _, _, _ = curvature_from_jets(*metric_jets(lambda pt: np.eye(dim), p))
            worst_flat = max(worst_flat, np.abs(Rlow).max())

    sphere = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)])

    worst_sphere = 0.0
    for p in sphere.samples(SamplePlan(5, 10)):
        _, _, scal, _ = curvature_from_jets(*metric_jets(sphere_metric, p))
        worst_sphere = max(worst_sphere, abs(scal[0] - 2.0))

    half = ChartManifold(2, [(-1.0, 1.0), (0.5, 2.0)])

    def hyper_g(pt):
        y2 = (pt[1] * pt[1]).inv()
        return [[y2, 0.0], [0.0, y2]]

    worst_hyper = 0.0
    for p in half.samples(SamplePlan(6, 10)):
        _, _, scal, _ = curvature_from_jets(*metric_jets(hyper_g, p))
        worst_hyper = max(worst_hyper, abs(scal[0] + 2.0))

    elapsed = time.perf_counter() - t0
    ok = worst_flat <= 1e-11 and worst_sphere <= 1e-9 and worst_hyper <= 1e-9 \
        and elapsed < 1.0
    crit(1, ok, "flat %.2e (tol 1e-11), sphere %.2e, hyperbolic %.2e "
         "(tol 1e-9), %.2fs" % (worst_flat, worst_sphere, worst_hyper, elapsed))


def test_criterion_2_calabi_builder_flat_base():
    t0 = time.perf_counter()
    base, alpha = disk_base(0)
    prof = CalabiProfile(A=-1.0, z_range=(0.6, 1.8), s_range=(-0.8, 0.8))
    cal = build_calabi(base, prof, alpha=alpha)
    kah = fold_plan(cal.chart, SamplePlan(5, 12),
                    lambda pe: worst(*kahler_point(cal, pe).values())).max()

    res = fold_plan(cal.chart, SamplePlan(6, 12), lambda pe: classify_point(cal, cal.proj_plus, pe))
    hom = res.max("homothetic")
    geod = res.max("geodesic")

    theta_dev = 0.0
    nij = 0.0
    for p in cal.chart.samples(SamplePlan(7, 10)):
        pe = PointEval(p)
        th = extract_theta(cal, cal.proj_plus, pe)
        want = np.zeros(4)
        want[1] = 1.0 / p[1]
        theta_dev = max(theta_dev, np.abs(th[0] - want).max())
        nij = max(nij, np.abs(nijenhuis_at(pe, cal.I0.fn)).max())

    vol = 0.0
    for p in cal.chart.samples(SamplePlan(8, 50)):
        vc = volume_checks(cal, PointEval(p))
        vol = max(vol, vc["residual_z"][0], vc["residual_r"][0])

    elapsed = time.perf_counter() - t0
    ok = kah <= 1e-7 and hom <= 1e-7 and theta_dev <= 1e-7 \
        and nij <= 1e-7 and geod <= 1e-7 and vol <= 1e-9 and elapsed < 10.0
    crit(2, ok, "kahler %.2e, homothetic %.2e, theta-dlnz %.2e, "
         "I0-nijenhuis %.2e, xi(D+,D+) %.2e (tol 1e-7), volume %.2e "
         "(tol 1e-9, 50 pts), %.2fs"
         % (kah, hom, theta_dev, nij, geod, vol, elapsed))


def test_criterion_3_lee_form_closed_forms():
    prof = CalabiProfile(A=-1.0, z_range=(0.05, 1.4), s_range=(-0.8, 0.8))
    base, alpha = disk_base(1)
    cal = build_calabi(base, prof, alpha=alpha)
    # the Lee form of I0 has dr-coefficient 2A/(r z) and squared norm -4A/z^2
    def lee_at(r):
        z = prof.moment_map_G(r)
        th0, fit = (a[0] for a in lee_form_of_I0(cal, PointEval([0.1, z, 0.1, -0.2])))
        drc = th0[1] * prof.G_prime(r)
        x = Jet2.seed(np.array([0.1, z, 0.1, -0.2]))
        gv = np.array([[e.value[0] for e in row] for row in cal.g.fn(x)])
        n2 = float(th0 @ np.linalg.inv(gv) @ th0)
        return z, drc, n2, fit
    worst = 0.0
    for r in np.linspace(0.3, 0.9, 20):
        z, drc, n2, fit = lee_at(r)
        worst = max(worst, fit, abs(drc - 2.0 * prof.A / (r * z)),
                    abs(n2 - (-4.0 * prof.A / (z * z))))
    _, drc, n2, _ = lee_at(0.5)
    anchor = max(abs(drc - (-5.7707801635558535)), abs(n2 - 8.325475924022431))
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
            vals = lambda fn: np.array([[e.value[0] for e in row] for row in fn(x)])
            g, gw = vals(cal.g.fn), vals(tt.g.fn)
            inv = max(inv, np.abs(vals(tt.J.fn).T @ gw
                                  - vals(cal.J.fn).T @ g).max())
            inv = max(inv, np.abs(vals(tt.I0.fn).T @ gw
                                  - vals(cal.I0.fn).T @ g).max())

    norm = 0.0
    targets = [(0.0, 0.0, 1.0), (0.5, 0.0, 3.0), (0.3, 0.4, 37.0 / 15.0)]
    for w1, w2, want in targets:
        tt = build_twist(cal, constant_twist(w1, w2))
        assert abs(norm_factor_expected(w1, w2) - want) < 1e-15
        for p in cal.chart.samples(SamplePlan(4, 6)):
            got = norm_factor_measured(cal.g.fn, tt.g.fn, cal.theta.fn, PointEval(p))
            norm = max(norm, abs(got[0] - want))

    plan = SamplePlan(5, 8)
    tw = coordinate_twist(2, 3)
    tt = build_twist(cal, tw)
    res = fold_plan(cal.chart, plan, lambda pe: transverse_holomorphy_point(
        cal.J.fn, cal.proj_plus, tw.fn, tt.ww, pe)).max()
    nij_good = max(np.abs(nijenhuis_at(PointEval(p), tt.J.fn)).max()
                   for p in cal.chart.samples(plan))
    twc = coordinate_twist(2, 3, conj=True)
    ttc = build_twist(cal, twc)
    resc = fold_plan(cal.chart, plan, lambda pe: transverse_holomorphy_point(
        cal.J.fn, cal.proj_plus, twc.fn, ttc.ww, pe)).max()
    nij_bad = max(np.abs(nijenhuis_at(PointEval(p), ttc.J.fn)).max()
                  for p in cal.chart.samples(plan))

    elapsed = time.perf_counter() - t0
    iff = res <= 1e-7 and nij_good <= 1e-7 \
        and resc > 1e-7 and nij_bad > 1e-7
    ok = inv <= 1e-9 and norm <= 1e-9 and iff and elapsed < 10.0
    crit(4, ok, "form invariance %.2e, norm factor %.2e (tol 1e-9); "
         "transverse %.2e -> nijenhuis %.2e, conjugate control %.2e -> %.2e "
         "(gate 1e-7), %.2fs"
         % (inv, norm, res, nij_good, resc, nij_bad,
            elapsed))


def test_criterion_5_three_term_ricci_identity():
    t0 = time.perf_counter()
    cal = make_disk_cal()
    worst = 0.0
    correction = 0.0
    for tw in (constant_twist(0.0), coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        for p in cal.chart.samples(SamplePlan(6, 30)):
            pe = PointEval(p)
            worst = max(worst, ricci_identity_check(cal, tt, pe)[0])
            correction = max(correction, fiber_correction_size(cal, tw, tt, pe)[0])
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
    a3 = fold_plan(ak.chart, plan, lambda pe: ak3_point(ak, pe))
    tr = fold_plan(ak.chart, plan, lambda pe: torsion_point(ak, pe))
    elapsed = time.perf_counter() - t0
    blocks = max(a3.max("block_plane"), a3.max("block_z"))
    ranks = [int(r) for r in tr.values.get("rank", [])]
    ranks_ok = len(ranks) > 0 and set(ranks) == {2}
    ok = a3.max("relative") <= 1e-6 and blocks <= 1e-6 \
        and tr.max("prelt") <= 1e-8 and ranks_ok and elapsed < 60.0
    crit(6, ok, "AK3 normalized %.2e, proof blocks %.2e (tol 1e-6), "
         "derivative identity %.2e (tol 1e-8), torsion ranks %s at %d pts, "
         "%.2fs" % (a3.max("relative"), blocks, tr.max("prelt"),
                    sorted(set(ranks)), tr.used("nullity"), elapsed))


def test_criterion_7a_four_dim_product_ricci_flat():
    t0 = time.perf_counter()
    zt, _ = disk_base(1)
    ak = build_ak_product(zt, coordinate_twist(0, 1))
    er = fold_plan(ak.chart, SamplePlan(8, 30), lambda pe: einstein_point(ak.g, pe))
    elapsed = time.perf_counter() - t0
    ok = er.max("ricci_max") <= 1e-6 and elapsed < 300.0
    crit("7a", ok, "4-dim product max |Ric| %.2e (tol 1e-6, 30 pts), %.2fs"
         % (er.max("ricci_max"), elapsed))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the six-dimensional iterated product is not "
                          "Ricci-flat as built; max |Ric| is order one at "
                          "every sampled point")
def test_criterion_7b_six_dim_product_ricci_flat():
    levels = iterate_chain("twisted", 2)
    ak = build_ak_product(levels[1].triple, coordinate_twist(2, 3))
    er = fold_plan(ak.chart, SamplePlan(9, 15), lambda pe: einstein_point(ak.g, pe))
    ok = er.max("ricci_max") <= 1e-5
    crit("7b", ok, "6-dim product max |Ric| %.2e (tol 1e-5, 15 pts)"
         % er.max("ricci_max"))


def test_criterion_8_classifier_verdicts_stable():
    cal = make_disk_cal()
    tt = build_twist(cal, coordinate_twist(2, 3))

    gfn = cal.g.fn

    bump = np.zeros((4, 4))
    bump[2, 2] = 0.3

    def broken(pt):
        return pack(gfn(pt)) + jsin(pt[1]) * bump

    cases = [
        ("twisted calabi", tt, cal.proj_plus, VERDICT_HOLOMORPHIC),
        ("product", *product_triple(), VERDICT_PRODUCT),
        ("broken metric", HermitianTriple(broken, cal.J.fn, cal.chart),
         cal.proj_plus, VERDICT_FAILED),
    ]
    got = []
    stable = True
    def verdict(t, s, plan):
        return foliation_report(fold_plan(t.chart, plan,
                                          lambda pe: classify_point(t, s, pe)))[0]

    for label, t, s, want in cases:
        v50 = verdict(t, s, SamplePlan(11, 50))
        v200 = verdict(t, s, SamplePlan(12, 200))
        got.append("%s->%s" % (label, v50))
        stable = stable and (v50 == v200 == want)
    crit(8, stable, "%s, identical at 50 and 200 samples" % "; ".join(got))


def test_criterion_9_deterministic_reports():
    worst = []
    def run(name):
        scn = load_scenario(name)
        scn.count = 8
        return run_scenario_obj(scn)

    for name in ("sphere", "ak_disk"):
        r1 = run(name)
        r2 = run(name)
        same = render_json(r1["checks"]) == render_json(r2["checks"])
        worst.append("%s %s" % (name, "identical" if same else "DIFFERS"))
        assert same
    crit(9, True, "check records byte-identical across reruns: %s"
         % "; ".join(worst))
