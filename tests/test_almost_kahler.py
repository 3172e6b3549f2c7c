"""Plane-times-Kähler products: structure forms, the four-fold curvature
symmetry, intrinsic torsion, Einstein behavior, and the iterated chains."""

import numpy as np
import pytest

from kahlerkit.jets import Jet2, JetDomainError, SamplePlan, jlog
from kahlerkit.fields import (ChartManifold, Field, PointEval, curvature_from_jets,
                              metric_jets, worst)
from kahlerkit.hermitian import (HermitianTriple, ddc_from_jets, kahler_point,
                                 log_potential_residual)
from kahlerkit.calabi import disk_base, volume_checks
from kahlerkit.twist import constant_twist, coordinate_twist
from kahlerkit.almost_kahler import (ak3_point, ak_invariants_point,
                                     build_ak_product, einstein_point,
                                     eta_tensor, fiber_logs, iterate_chain,
                                     ker_dw_geodesic_residual,
                                     ker_dw_projector, torsion_point)
from helpers import fold_plan, log_term_size


def disk_product(k=1, twist=None):
    zt, _ = disk_base(k)
    tw = twist if twist is not None else coordinate_twist(0, 1)
    return build_ak_product(zt, tw)


def test_twist_must_not_see_the_plane():
    zt, _ = disk_base(1)

    def leaky(zp):
        # w1 has a gradient along the first plane coordinate
        x = zp[0]
        grad = np.zeros_like(x.grad)
        grad[..., 0] = 1.0
        return Jet2(np.full_like(x.value, 0.2), grad), 0.0
    with pytest.raises(ValueError):
        build_ak_product(zt, Field(leaky, label="leaky"))


def test_product_structure_forms():
    ak = disk_product()
    inv = fold_plan(ak.chart, SamplePlan(1, 10), lambda pe: ak_invariants_point(ak, pe))
    assert inv.max("omega_tilde_target") < 1e-12
    assert inv.max("d_omega_tilde") < 1e-12
    assert inv.max("omega_tilde_invariance") < 1e-12
    assert inv.max("killing") == 0.0


def test_both_product_structures_square_and_pair():
    # values only: both structures are first order in the point's memo
    ak = disk_product()
    for p in ak.chart.samples(SamplePlan(2, 6)):
        pe = PointEval(p)
        gv = pe.raw(ak.g).value[0]
        for E in (ak.J, ak.J_tilde):
            Ev = pe.raw(E).value[0]
            assert np.abs(Ev @ Ev + np.eye(4)).max() < 1e-12
            assert np.abs(Ev.T @ gv @ Ev - gv).max() < 1e-12


def test_kahler_candidate_is_kahler_for_transverse_twist():
    ak = disk_product()
    t = ak.triple()
    v = fold_plan(ak.chart, SamplePlan(3, 8), lambda pe: worst(*kahler_point(t, pe).values()))
    assert v.max() <= 1e-7
    # the flipped structure is almost Kähler but never integrable here
    tt = HermitianTriple(ak.g, ak.J_tilde, ak.chart)
    vt = fold_plan(ak.chart, SamplePlan(3, 8), lambda pe: kahler_point(tt, pe))
    assert not worst(*(vt.max(k) for k in vt.values)) <= 1e-7
    assert vt.max("compatible") < 1e-12
    assert vt.max("closed") < 1e-12
    assert vt.max("integrable") > 1e-3


def test_curvature_symmetry_under_four_twisted_structures():
    ak = disk_product()
    res = fold_plan(ak.chart, SamplePlan(4, 10), lambda pe: ak3_point(ak, pe))
    assert res.max("relative") < 1e-12
    assert res.max("block_plane") < 1e-12
    assert res.max("block_z") < 1e-12
    # the curvature this symmetry constrains is genuinely nonzero
    assert res.max("scale") > 1.0


def test_curvature_symmetry_fails_off_the_transverse_family():
    bad = Field(lambda zp: (zp[0] * zp[1], zp[0] * 0.5), label="shear")
    ak = disk_product(twist=bad)
    res = fold_plan(ak.chart, SamplePlan(5, 8), lambda pe: ak3_point(ak, pe))
    assert res.max("relative") > 0.05
    assert res.max("scale") > 0.5


def test_torsion_report_for_disk_product():
    ak = disk_product()
    rep = fold_plan(ak.chart, SamplePlan(6, 12), lambda pe: torsion_point(ak, pe))
    assert rep.max("prelt") < 1e-12
    assert rep.max("nullity") < 1e-12
    assert rep.max("containment") < 1e-12
    assert rep.max("anticommute") < 1e-12
    assert rep.max("jshift") < 1e-12
    assert rep.used("nullity") == 12
    assert rep.excluded.get("nullity", 0) == 0
    assert set(rep.values["rank"].tolist()) == {2.0}


def test_torsion_rank_skips_points_without_twist_variation():
    ak = disk_product(twist=constant_twist(0.3, 0.1))
    rep = fold_plan(ak.chart, SamplePlan(7, 6), lambda pe: torsion_point(ak, pe))
    # constant twist: dw = 0 everywhere, so the rank claims never engage
    assert rep.used("nullity") == 0
    assert rep.excluded.get("nullity", 0) == 6
    assert "rank" not in rep.values
    assert rep.max("prelt") < 1e-12


def test_four_dim_product_is_ricci_flat():
    ak = disk_product()
    er = fold_plan(ak.chart, SamplePlan(8, 12), lambda pe: einstein_point(ak.g, pe))
    assert er.max("ricci_max") < 1e-6
    assert er.max("einstein_dev") < 1e-6


def chain_product():
    levels = iterate_chain("twisted", 2)
    lv = levels[1]
    ak = build_ak_product(lv.triple, coordinate_twist(2, 3))
    zpos = {j: pos + 2 for j, pos in lv.z_positions.items()}
    return ak, zpos


def test_six_dim_product_curvature_symmetry():
    ak, _ = chain_product()
    res = fold_plan(ak.chart, SamplePlan(9, 4), lambda pe: ak3_point(ak, pe))
    assert res.max("relative") < 1e-12
    assert res.max("block_plane") < 1e-12
    assert res.max("block_z") < 1e-12
    assert res.max("scale") > 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the six-dimensional product over the "
                   "twisted chain level is not Ricci-flat; max |Ric| is order "
                   "one at every sampled point")
def test_six_dim_product_ricci_flat():
    ak, _ = chain_product()
    er = fold_plan(ak.chart, SamplePlan(10, 4), lambda pe: einstein_point(ak.g, pe))
    assert er.max("ricci_max") < 1e-5


def test_six_dim_product_ricci_gap_is_pinned():
    ak, _ = chain_product()
    er = fold_plan(ak.chart, SamplePlan(10, 4), lambda pe: einstein_point(ak.g, pe))
    assert er.max("ricci_max") > 0.5
    assert er.max("einstein_dev") > 0.5


def test_six_dim_product_ricci_form_matches_fiber_logs():
    # what does hold: the product Ricci form equals the (j/2) d J d ln z_j sum
    ak, zpos = chain_product()
    for p in ak.chart.samples(SamplePlan(11, 4)):
        gv, gg, gh = metric_jets(ak.g.fn, p)
        _, Ric, _, _ = curvature_from_jets(gv, gg, gh)
        J = PointEval(p).raw(ak.J)   # first order: its value and gradient
        Jv, Jg = J.value, J.grad
        rho = np.einsum('...mi,...mj->...ij', Jv, Ric)
        x = Jet2.seed(np.asarray(p, float))
        for j, pos in zpos.items():
            rho = rho - 0.5 * j * ddc_from_jets(jlog(x[pos]), Jet2(Jv, Jg))
        assert np.abs(rho).max() < 1e-6


def test_six_dim_torsion_report():
    ak, _ = chain_product()
    rep = fold_plan(ak.chart, SamplePlan(12, 4), lambda pe: torsion_point(ak, pe))
    assert rep.max("prelt") < 1e-10
    assert rep.max("nullity") < 1e-10
    assert rep.max("containment") < 1e-10
    assert set(rep.values["rank"].tolist()) == {2.0}


def test_untwisted_chain_levels():
    levels = iterate_chain("untwisted", 2)
    assert len(levels) == 2
    assert [lv.index for lv in levels] == [0, 1]
    assert [lv.claimed_coeff for lv in levels] == [0.5, 0.5]
    assert levels[1].z_positions == {1: 1}
    for lv in levels:
        v = fold_plan(lv.triple.chart, SamplePlan(13, 6),
                      lambda pe: worst(*kahler_point(lv.triple, pe).values()))
        assert v.max() <= 1e-7
    # level 0 satisfies the claimed identity; level 1 needs the fiber term
    pe0 = PointEval([0.1, -0.2])
    assert claimed_residual(levels[0], pe0) < 1e-10
    assert levels[0].ricci_residual(pe0) < 1e-10
    pe1 = PointEval([0.2, 1.1, 0.1, -0.2])
    assert levels[1].ricci_residual(pe1) < 1e-10
    assert claimed_residual(levels[1], pe1) > 0.1
    assert max(log_term_size(levels[1].triple, pe1, [term])
               for term in fiber_logs(pe1, levels[1].z_positions)) > 0.1


def claimed_residual(lv, pe):
    """The residual at pe of the chain level's claimed identity rho = c (d J
    d) ln(1 - |x|^2), without the fiber terms."""
    n = lv.triple.chart.dim
    xx, yy = pe[n - 2], pe[n - 1]
    return log_potential_residual(lv.triple, pe, [(lv.claimed_coeff, 1.0 - xx * xx - yy * yy)])


def test_twisted_chain_levels():
    levels = iterate_chain("twisted", 2)
    assert len(levels) == 3
    assert [lv.claimed_coeff for lv in levels] == [1.0, 0.5, 0.0]
    assert levels[2].z_positions == {1: 3, 2: 1}
    for lv in levels:
        v = fold_plan(lv.triple.chart, SamplePlan(14, 5),
                      lambda pe: worst(*kahler_point(lv.triple, pe).values()))
        assert v.max() <= 1e-7
    for lv in levels[1:]:
        for p in lv.triple.chart.samples(SamplePlan(15, 3)):
            pe = PointEval(p)
            assert lv.ricci_residual(pe) < 1e-8
            assert claimed_residual(lv, pe) > 0.1


def test_chain_alpha_is_primitive_at_every_level():
    for kind, m in (("untwisted", 2), ("twisted", 2)):
        for lv in iterate_chain(kind, m):
            for p in lv.triple.chart.samples(SamplePlan(16, 4)):
                x = Jet2.seed(np.asarray(p, float))
                a = lv.alpha.fn(x)
                ag = np.array([c.grad[0] for c in a])
                omv = PointEval(p).omega(lv.triple.g, lv.triple.J).value[0]
                assert np.abs((ag.T - ag) - omv).max() < 1e-9


def test_top_level_volume_identity():
    levels = iterate_chain("untwisted", 2)
    top = levels[-1]
    for p in top.cal.chart.samples(SamplePlan(17, 8)):
        vc = volume_checks(top.cal, PointEval(p))
        assert vc["residual_z"] < 1e-9
        assert vc["residual_r"] < 1e-9


def test_iterate_chain_validation():
    with pytest.raises(ValueError):
        iterate_chain("spiral", 2)
    with pytest.raises(ValueError):
        iterate_chain("untwisted", 0)
    with pytest.raises(ValueError):
        iterate_chain("untwisted", 4)
    with pytest.raises(ValueError):
        iterate_chain("untwisted", 2, radius=1.2)
    with pytest.raises(ValueError):
        iterate_chain("untwisted", 2, z_range=(-0.1, 1.0))


def test_iterate_chain_stops_at_its_top_level():
    # the levels below top are those of the whole chain; none above is built
    full = iterate_chain("twisted", 2)
    part = iterate_chain("twisted", 2, top=1)
    assert [lv.index for lv in part] == [0, 1]
    assert [lv.claimed_coeff for lv in part] == [1.0, 0.5]
    assert part[1].z_positions == full[1].z_positions
    p = part[1].triple.chart.samples(SamplePlan(19, 3))
    for f, g in ((part[1].triple.g, full[1].triple.g), (part[1].alpha, full[1].alpha)):
        assert np.array_equal(PointEval(p).raw(f).hess, PointEval(p).raw(g).hess)
    assert len(iterate_chain("untwisted", 2, top=0)) == 1
    for top in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            iterate_chain("twisted", 2, top=top)


def test_kernel_foliation_geodesic_dichotomy():
    # the fiber foliation of the lifted disk map is totally geodesic for the
    # untwisted chain and fails to be for the twisted one
    top_u = iterate_chain("untwisted", 2)[-1]
    n = top_u.triple.chart.dim
    tw = coordinate_twist(n - 2, n - 1)
    for p in top_u.triple.chart.samples(SamplePlan(18, 5)):
        assert ker_dw_geodesic_residual(top_u.triple.g, tw, PointEval(p)) < 1e-10
    top_t = iterate_chain("twisted", 2)[-1]
    nt = top_t.triple.chart.dim
    twt = coordinate_twist(nt - 2, nt - 1)
    worst = 0.0
    for p in top_t.triple.chart.samples(SamplePlan(18, 5)):
        worst = max(worst, ker_dw_geodesic_residual(top_t.triple.g, twt, PointEval(p)))
    assert worst > 1e-3


def test_ker_dw_projector_properties():
    chart = ChartManifold(4, [(0.3, 1.0)] * 4)

    def gfn(pt):
        return [[1.0, 0.0, 0.0, 0.0],
                [0.0, pt[0] * pt[0], 0.0, 0.0],
                [0.0, 0.0, 2.0, 0.0],
                [0.0, 0.0, 0.0, 1.0 + pt[2] * pt[2]]]
    tw = coordinate_twist(2, 3)
    g = Field(gfn)
    for p in chart.samples(SamplePlan(19, 5)):
        x = Jet2.seed(np.asarray(p, float))
        Q = ker_dw_projector(g, tw, PointEval(p))
        Qv = np.array([[e.value[0] for e in row] for row in Q])
        gv = metric_jets(gfn, p)[0][0]
        assert np.abs(Qv @ Qv - Qv).max() < 1e-12
        # g-symmetric: g Q = (g Q)^T
        assert np.abs(gv @ Qv - (gv @ Qv).T).max() < 1e-12
        # dw annihilates the range
        w1, w2 = tw.fn(x)
        for dw in (w1.grad[0], w2.grad[0]):
            assert np.abs(dw @ Qv).max() < 1e-12


def test_ker_dw_projector_rejects_constant_map():
    def gfn(pt):
        return np.eye(4)
    with pytest.raises(JetDomainError):
        ker_dw_projector(Field(gfn), constant_twist(0.2, 0.1),
                         PointEval(np.array([0.5, 0.5, 0.5, 0.5])))


def test_eta_tensor_vanishes_for_untwisted_product():
    zt, _ = disk_base(1)
    ak = build_ak_product(zt, constant_twist(0.0))
    for p in ak.chart.samples(SamplePlan(20, 4)):
        eta, _, _, _ = eta_tensor(ak.g.fn, ak.J_tilde.fn, PointEval(p))
        # g is then a genuine product metric; only the plane flip survives in
        # J~ and its covariant derivative along the flat factor vanishes
        assert np.abs(eta).max() < 1e-12
