import math

import numpy as np
import pytest

from bergext import (
    CrossData,
    Jet,
    ParameterError,
    RegularizedLogWeight,
    Weight,
    build_model,
    clamp_max,
    extend_cross,
    extend_jet_direct,
    extend_jet_recursive,
    rhs_estimate_cross,
    rhs_estimate_jet,
    unit_ek,
)
from bergext.extension import branch_restriction
from bergext.quadrature import bidisk_rule, disk_rule


@pytest.fixture(scope="module")
def flat_disk():
    return build_model("disk", Weight.zero(), 16)


@pytest.fixture(scope="module")
def flat_bidisk():
    return build_model("bidisk", Weight.zero("bidisk"), 8)


def test_jet_constructors():
    with pytest.raises(ParameterError):
        Jet(())
    assert len(Jet((1.0, 2.0))) == 2


def test_cross_data_compatibility():
    with pytest.raises(ParameterError):
        CrossData((1.0,), (2.0,))
    cd = CrossData((3.0, 1.0), (3.0,))
    assert cd.a0 == 3.0


def test_unweighted_jet_closed_forms(flat_disk):
    # minimal extension of (a_0,...,a_{N-1}) under phi=0 is the Taylor
    # polynomial sum a_k z^k / k!, with norm sum |a_k|^2 pi / (k!^2 (k+1))
    jet = Jet((1.0, 2.0, 6.0))
    rep = extend_jet_direct(flat_disk, jet)
    exact = sum(abs(a) ** 2 * math.pi / (math.factorial(k) ** 2 * (k + 1))
                for k, a in enumerate(jet.values))
    assert rep.norm_sq == pytest.approx(exact, rel=1e-12)
    c = rep.coefficients
    assert c[0] == pytest.approx(1.0) and c[1] == pytest.approx(2.0)
    assert c[2] == pytest.approx(3.0)
    assert np.abs(c[3:]).max() < 1e-12


def test_direct_recursive_agree(flat_disk):
    rng = np.random.default_rng(3)
    for _ in range(5):
        vals = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        r1 = extend_jet_direct(flat_disk, Jet(vals))
        r2 = extend_jet_recursive(flat_disk, Jet(vals))
        assert r1.norm_sq == pytest.approx(r2.norm_sq, rel=1e-12)
        assert np.abs(r1.coefficients - r2.coefficients).max() < 1e-10


@pytest.mark.parametrize("m", [1.0, 5.0, 8.0])
def test_halfplane_jet_closed_form(m):
    # under phi = -2m Re z, f -> e^{mz} f is an isometry onto the unweighted
    # A^2, so the minimal norm of the jet a is pi sum |h_k|^2 / (k!^2 (k+1))
    # with h_k = (e^{mz} f)^{(k)}(0) = sum_{j<=k} C(k,j) m^{k-j} a_j
    model = build_model("disk", Weight.halfplane(m), 24)
    rng = np.random.default_rng(int(m))
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = [sum(math.comb(k, j) * m ** (k - j) * a[j] for j in range(k + 1))
         for k in range(4)]
    exact = math.pi * sum(abs(hk) ** 2 / (math.factorial(k) ** 2 * (k + 1))
                          for k, hk in enumerate(h))
    tol = max(1e-8, 10 * model.condition_number * np.finfo(float).eps)
    direct = extend_jet_direct(model, Jet(tuple(a)))
    recursive = extend_jet_recursive(model, Jet(tuple(a)))
    for rep in (direct, recursive):
        assert rep.norm_sq == pytest.approx(exact, rel=tol)
    assert direct.diagnostics["constraint_residual"] <= 1e-14 * np.abs(a).max()


def test_level_breakdown_consistency(flat_disk):
    jet = Jet((1.0, -2.0j, 0.5))
    rep = extend_jet_recursive(flat_disk, jet)
    assert sum(h for (_, _, _, h) in rep.levels) == pytest.approx(
        rep.norm_sq, rel=1e-12)
    # B_k values in the breakdown match the closed forms
    for k, _, Bk, _ in rep.levels:
        assert Bk == pytest.approx(
            math.factorial(k) ** 2 * (k + 1) / math.pi, rel=1e-10)


def test_direct_levels_match_recursion():
    # the direct solution's projections onto the ladder steps are the levels
    # that the recursion builds; the tilted weight has a complex Gram
    model = build_model("disk", Weight([], "-3*x + 2*y"), 16)
    jet = Jet((1.0, -2.0j, 0.5, 0.25 + 1j))
    direct = extend_jet_direct(model, jet)
    recursive = extend_jet_recursive(model, jet)
    tol = 10 * model.condition_number * np.finfo(float).eps
    for got, want in zip(direct.levels, recursive.levels):
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=tol)
        assert got[2:] == pytest.approx(want[2:], rel=tol)


def test_minimality_certificate(flat_disk):
    # adding any admissible perturbation (vanishing jet) increases the norm
    jet = Jet((1.0, 0.5))
    rep = extend_jet_direct(flat_disk, jet)
    G = flat_disk.gram
    rng = np.random.default_rng(11)
    for _ in range(10):
        pert = np.zeros(flat_disk.degree + 1, dtype=complex)
        pert[2:] = rng.standard_normal(flat_disk.degree - 1) \
            + 1j * rng.standard_normal(flat_disk.degree - 1)
        c = rep.coefficients + pert
        assert np.real(np.vdot(c, G @ c)) >= rep.norm_sq - 1e-10


def test_two_jet_identity_weighted():
    model = build_model("disk", clamp_max(Weight.halfplane(2.0), 0.3, 5.0), 16)
    jet = Jet((1.0, 0.4 - 0.3j))
    rep = extend_jet_direct(model, jet)
    rhs = rhs_estimate_jet(model, jet)
    assert rep.norm_sq == pytest.approx(rhs["exact"], rel=1e-9)
    assert rhs["ot"] > 0


def test_jet_length_checks(flat_disk):
    with pytest.raises(ParameterError):
        extend_jet_direct(flat_disk, Jet(tuple(range(flat_disk.degree + 2))))
    with pytest.raises(ParameterError):
        rhs_estimate_jet(flat_disk, Jet((1.0,)))


def test_cross_unweighted_closed_form(flat_bidisk):
    # f1 = 1 on {z1=0}, f2 = 1 + z1 on {z2=0}: extension is 1 + z1
    rep = extend_cross(flat_bidisk, CrossData((1.0,), (1.0, 1.0)))
    assert rep.norm_sq == pytest.approx(math.pi**2 * 1.5, rel=1e-12)
    h0, h1 = rep.cross_parts
    assert h0 == pytest.approx(math.pi**2, rel=1e-12)
    assert h1 == pytest.approx(math.pi**2 / 2, rel=1e-12)


def test_cross_pythagoras_weighted():
    w = RegularizedLogWeight(0.15, "z1-z2")
    rule = bidisk_rule(radial_order=(12, 12), angular_order=(8, 192),
                       grading_levels=8, diagonal_grading=True,
                       diagonal_levels=10)
    model = build_model("bidisk", w, 10, rule=rule)
    rep = extend_cross(model, CrossData((0.5, -0.25), (0.5, 1.0, 0.1)))
    h0, h1 = rep.cross_parts
    assert rep.norm_sq == pytest.approx(h0 + h1, rel=1e-8)
    assert rep.diagnostics["pythagoras_rel_defect"] < 1e-8
    # stationarity of the free block
    scale = np.abs(model.gram @ rep.coefficients).max()
    assert rep.diagnostics["stationarity_residual"] < 1e-8 * scale


def test_cross_against_direct_integral():
    # for f=(0, z1) the minimal extension under the diagonal-invariant weight
    # is h = z1 itself, so the norm equals a direct weighted integral
    eps = 0.2
    w = RegularizedLogWeight(eps, "z1-z2")
    # under diagonal grading the inner rule turns with each outer angle, so
    # every outer angle gives the same inner sum: 4 outer angles suffice
    rule = bidisk_rule(radial_order=(12, 12), angular_order=(4, 192),
                       grading_levels=8, diagonal_grading=True,
                       diagonal_levels=10)
    model = build_model("bidisk", w, 10, rule=rule)
    rep = extend_cross(model, CrossData((0.0,), (0.0, 1.0)))
    direct = rule.integrate(
        lambda z1, z2: np.abs(z1) ** 2 * np.exp(-w.evaluate(z1, z2))).real
    assert rep.norm_sq == pytest.approx(direct, rel=1e-10)
    # and the solver leaves the off-cross coefficients at zero
    off = [rep.coefficients[model.index[(m, n)]]
           for (m, n) in model.monomials if m >= 1 and n >= 1]
    assert np.abs(off).max() < 1e-10


def test_cross_degree_guard(flat_bidisk):
    deep = tuple([0.0] * (flat_bidisk.degree + 2))
    with pytest.raises(ParameterError):
        extend_cross(flat_bidisk, CrossData((0.0,), deep + (1.0,)))


@pytest.mark.parametrize("branch", [1, 2])
def test_cross_rhs_degree_guard(flat_bidisk, branch):
    # over-long data on either branch: the same refusal as extend_cross
    deep = (1.0,) + (0.0,) * flat_bidisk.degree + (1.0,)
    cd = CrossData(*((deep, (1.0,)) if branch == 1 else ((1.0,), deep)))
    with pytest.raises(ParameterError, match="exceeds the truncation degree") as rhs:
        rhs_estimate_cross(flat_bidisk, cd)
    with pytest.raises(ParameterError) as ext:
        extend_cross(flat_bidisk, cd)
    assert str(rhs.value) == str(ext.value)


def test_cross_rhs_estimate(flat_bidisk):
    cd = CrossData((1.0,), (1.0, 1.0))
    rhs = rhs_estimate_cross(flat_bidisk, cd)
    # |a0|^2/B0 = pi^2; V-part: f2 - h0 = z1, integrand |1|^2 over the disk
    assert rhs["a0_term"] == pytest.approx(math.pi**2, rel=1e-10)
    assert rhs["v_integral"] == pytest.approx(math.pi, rel=1e-10)
    assert rhs["total"] == pytest.approx(math.pi**2 + math.pi, rel=1e-10)


@pytest.mark.parametrize("weight", [
    RegularizedLogWeight(0.1, "z1-z2", style="shifted"),
    Weight([(0.3, "z1 - z2")], "0.3*x1 + 0.2*y2", "bidisk"),
])
def test_cross_v_integral_matches_node_sum(weight):
    # the V-integral is a branch Gram form; hold it against the node sum
    rule = bidisk_rule(radial_order=(4, 4), angular_order=(8, 32),
                       grading_levels=6, diagonal_grading=True,
                       diagonal_levels=6)
    model = build_model("bidisk", weight, 4, rule=rule)
    cd = CrossData((1 + 1j, 0.5, -0.3j), (1 + 1j, 0.1, 2.0, 0.4))
    rule_v = disk_rule(radial_order=16, angular_order=32, grading_levels=10)
    parts = rhs_estimate_cross(model, cd, rule_on_V=rule_v)["v_parts"]
    e0 = unit_ek(model, 0)
    h0 = cd.a0 / e0[model.index[(0, 0)]] * e0
    for branch, data, part in ((1, cd.f1, parts[0]), (2, cd.f2, parts[1])):
        f = np.zeros(model.degree + 1, dtype=complex)
        f[: len(data)] = data
        q = (f - branch_restriction(model, h0, branch))[1:]
        wb = weight.restrict_to_branch(branch)
        ref = rule_v.integrate(
            lambda z: np.abs(np.polynomial.polynomial.polyval(z, q)) ** 2
            * np.exp(-wb.evaluate(z))).real
        assert part == pytest.approx(ref, rel=1e-12)


def test_cross_rhs_finite_for_compatible_data(flat_bidisk):
    # h0 interpolates a0 at the node, so (f - h0)(0) = 0 for compatible data
    # and the |z|^{-2} integrand is removable
    good = CrossData((1.0, 1.0), (1.0,))
    assert np.isfinite(rhs_estimate_cross(flat_bidisk, good)["total"])


def test_branch_restriction_roundtrip(flat_bidisk):
    rep = extend_cross(flat_bidisk, CrossData((2.0, 1.0), (2.0, 0.0, 3.0)))
    f1 = branch_restriction(flat_bidisk, rep.coefficients, 1)
    f2 = branch_restriction(flat_bidisk, rep.coefficients, 2)
    assert f1[0] == pytest.approx(2.0) and f1[1] == pytest.approx(1.0)
    assert f2[2] == pytest.approx(3.0)


@pytest.mark.parametrize("branch", [0, 3, -1, 1.5, "1"])
def test_branch_restriction_refuses_other_branches(flat_bidisk, branch):
    coeffs = np.arange(len(flat_bidisk.monomials), dtype=complex)
    with pytest.raises(ParameterError, match="branch must be 1 or 2"):
        branch_restriction(flat_bidisk, coeffs, branch)


def test_branch_restriction_refuses_disk_model(flat_disk):
    # a disk model has no (0, n) monomials: this used to be a KeyError
    with pytest.raises(ParameterError, match="bidisk model"):
        branch_restriction(flat_disk, flat_disk.basis_coeffs[:, 0], 1)


def test_report_serialization(flat_disk):
    rep = extend_jet_direct(flat_disk, Jet((1.0, 1.0j)))
    doc = rep.to_dict()
    assert doc["norm_sq"] == pytest.approx(rep.norm_sq)
    assert len(doc["levels"]) == 2
    assert doc["diagnostics"]["solver"] == "direct"
