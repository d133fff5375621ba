import json
import math

import numpy as np
import pytest

from bergext import CrossData, RegularizedLogWeight, Weight
from bergext.errors import DegeneracyError, EvaluationError, ParameterError
from bergext.functionals import (
    _BRANCH_LEVELS,
    DivergentNorm,
    NormSpec,
    derivative_norm_on_Y,
    evaluate_norm,
    final_example_norm,
    gamma_branch_norm,
    log_weighted_bulk_norm,
)
from bergext.cli import main
from bergext.quadrature import bidisk_rule, disk_rule
from bergext.weights import clamp_max, twisted_derivative


def test_norm_spec_validation():
    with pytest.raises(ParameterError):
        NormSpec("nope")
    with pytest.raises(ParameterError):
        NormSpec("gamma_branch", gamma=1.5)
    with pytest.raises(ParameterError):
        NormSpec("gamma_branch", r_sing=1.5)
    with pytest.raises(ParameterError):
        NormSpec("gamma_branch", variant="other")
    # at delta <= 0 the bulk density is not integrable on the circle
    # |z_j| = e^{delta/2}, and the bulk norm grew with the rule (12905,
    # 190393, 2852088 at delta = 0)
    for delta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            NormSpec("log_weighted_bulk", section_normalization=delta)


def test_bulk_norm_divisible_oracle():
    # U = z1 z2, phi = 0: the integral factors into two identical disk
    # integrals of 1/log^2(e^{-1}|z|^2)
    U = np.zeros((2, 2), complex)
    U[1, 1] = 1.0
    val = log_weighted_bulk_norm(U, Weight.zero("bidisk"))
    r = disk_rule(48, 8, grading_levels=24)
    one = float(np.dot(r.weights,
                       1.0 / (np.log(np.abs(r.nodes) ** 2) - 1.0) ** 2))
    assert val == pytest.approx(one**2, rel=1e-6)


def test_bulk_norm_zero_and_homogeneity():
    U = np.zeros((2, 2), complex)
    assert log_weighted_bulk_norm(U, Weight.zero("bidisk")) == 0.0
    U[1, 1] = 1.0
    v1 = log_weighted_bulk_norm(U, Weight.zero("bidisk"))
    v2 = log_weighted_bulk_norm(2 * U, Weight.zero("bidisk"))
    assert v2 == pytest.approx(4 * v1, rel=1e-12)


def test_bulk_norm_nondivisible_guard():
    U = np.zeros((2, 2), complex)
    U[0, 0] = 1.0
    with pytest.raises(EvaluationError):
        log_weighted_bulk_norm(U, Weight.zero("bidisk"))
    spec = NormSpec("log_weighted_bulk", region="exclude_sing", r_sing=0.3)
    val = log_weighted_bulk_norm(U, Weight.zero("bidisk"), spec)
    assert np.isfinite(val) and val > 0


def _bulk_node_sum(U, weight, spec, rule):
    """The bulk norm as a sum over the rule's nodes (BidiskRule.integrate)."""
    delta = spec.section_normalization
    r0 = spec.r_sing if spec.region == "exclude_sing" else 0.0

    def f(z1, z2):
        a1, a2 = np.abs(z1), np.abs(z2)
        keep = (a1 > r0) & (a2 > r0)
        u = np.polynomial.polynomial.polyval2d(z1, z2, U)
        den = np.abs(z1 * z2) ** 2 * (np.log(a1**2) - delta) ** 2 \
            * (np.log(a2**2) - delta) ** 2
        phi = np.where(keep, np.asarray(weight.evaluate(z1, z2), float), 0.0)
        return np.where(keep, np.abs(u) ** 2 / den, 0.0) * np.exp(-phi)

    return rule.integrate(f).real


_BULK_RULES = {
    "tensor": dict(radial_order=(4, 4), angular_order=(8, 16), grading_levels=8),
    "diagonal": dict(radial_order=(4, 4), angular_order=(8, 16),
                     grading_levels=6, diagonal_grading=True, diagonal_levels=6),
    # inner angular order 4 <= 2*degree: the invariant Gram would alias
    "aliasing": dict(radial_order=(4, 4), angular_order=(8, 4), grading_levels=6),
    # inner angles not closed under the outer rotations
    "misaligned": dict(radial_order=(4, 4), angular_order=(8, 12),
                       grading_levels=6),
    # enough outer radii for at least two groups of several radii each in
    # the batched Gram, in every region and on both paths
    "grouped": dict(radial_order=(16, 5), angular_order=(8, 16),
                    grading_levels=10),
}
_BULK_WEIGHTS = {
    "zero": lambda: Weight.zero("bidisk"),
    "convolution": lambda: RegularizedLogWeight(0.1, "z1-z2"),
    "shifted": lambda: RegularizedLogWeight(0.07, "z1-z2", style="shifted"),
    "tilted": lambda: Weight([], "0.3*x1 + 0.2*y1", "bidisk"),
}


@pytest.mark.parametrize("rule_name", sorted(_BULK_RULES))
@pytest.mark.parametrize("weight_name", sorted(_BULK_WEIGHTS))
@pytest.mark.parametrize("region, divisible", [
    ("full", True), ("exclude_sing", False), ("exclude_sing", True)],
    ids=["full", "exclude_sing", "exclude_sing-divisible"])
def test_bulk_norm_matches_node_sum(rule_name, weight_name, region, divisible):
    rng = np.random.default_rng(5)
    # degree 2 in each variable, divided by z1 z2 or not
    U = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    if divisible:
        U[0, :] = U[:, 0] = 0.0
    else:
        U = U[:3, :3]
    spec = NormSpec("log_weighted_bulk", region=region, r_sing=0.2)
    w = _BULK_WEIGHTS[weight_name]()
    val = log_weighted_bulk_norm(U, w, spec, bidisk_rule(**_BULK_RULES[rule_name]))
    ref = _bulk_node_sum(U, w, spec, bidisk_rule(**_BULK_RULES[rule_name]))
    assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("style", ["convolution", "shifted"])
def test_bulk_norm_polar_path_matches_node_sum(style):
    # the regularized log's invariant Gram forms |z1 - z2|^2 from real polar
    # arrays; excluding the singular cross applies the density on that path
    rng = np.random.default_rng(11)
    U = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    spec = NormSpec("log_weighted_bulk", region="exclude_sing", r_sing=0.2)
    rule = dict(radial_order=(4, 4), angular_order=(8, 32), grading_levels=6,
                diagonal_grading=True, diagonal_levels=6)
    w = RegularizedLogWeight(0.1, "z1-z2", style)
    val = log_weighted_bulk_norm(U, w, spec, bidisk_rule(**rule))
    ref = _bulk_node_sum(U, w, spec, bidisk_rule(**rule))
    assert val == pytest.approx(ref, rel=1e-12)


def test_bulk_norm_skips_excluded_radii():
    # the density is a radial weight: the radii where it is 0 are dropped
    # before e^{-phi} is evaluated, in both factors
    w = Weight.zero("bidisk")
    seen = []
    evaluate = w.evaluate

    def recording(*zs):
        seen.append(min(np.abs(z).min() for z in zs))
        return evaluate(*zs)

    w.evaluate = recording
    spec = NormSpec("log_weighted_bulk", region="exclude_sing", r_sing=0.3)
    rule = bidisk_rule(radial_order=(8, 8), angular_order=(16, 16), grading_levels=10)
    log_weighted_bulk_norm(np.ones((2, 2)), w, spec, rule)
    assert seen and min(seen) > 0.3
    # a cut above every inner radius (0.965 at most) but below some outer
    # ones (up to 0.997) leaves nothing to evaluate
    seen.clear()
    spec = NormSpec("log_weighted_bulk", region="exclude_sing", r_sing=0.98)
    rule = bidisk_rule(radial_order=(16, 4), angular_order=(16, 16), grading_levels=4)
    assert log_weighted_bulk_norm(np.ones((2, 2)), w, spec, rule) == 0.0
    assert not seen
    # under diagonal grading each outer radius has its own inner radii, and
    # how many of them the cut keeps differs per outer radius
    spec = NormSpec("log_weighted_bulk", region="exclude_sing", r_sing=0.3)
    rule = bidisk_rule(**_BULK_RULES["diagonal"])
    outer = rule.rule1.radii[rule.rule1.radii > 0.3]
    assert len(set((rule._inner_rules(outer)[0] > 0.3).sum(axis=1))) > 1
    val = log_weighted_bulk_norm(np.ones((2, 2)), w, spec, rule)
    assert seen and min(seen) > 0.3
    assert val == pytest.approx(_bulk_node_sum(np.ones((2, 2)), w, spec, rule), rel=1e-12)


def test_bulk_norm_builds_no_nodes():
    rule = bidisk_rule(**_BULK_RULES["tensor"])
    U = np.zeros((3, 3), complex)
    U[1, 1] = U[2, 1] = 1.0
    log_weighted_bulk_norm(U, RegularizedLogWeight(0.1, "z1-z2"), rule=rule)
    assert "nodes" not in vars(rule.rule1) and "nodes" not in vars(rule.rule2)


def test_gamma_branch_closed_forms():
    w0 = Weight.zero()
    # gamma = 1, f = z: (int 1 dlam)^2 = pi^2
    assert gamma_branch_norm((0, 1), w0, gamma=1.0) == pytest.approx(
        math.pi**2, rel=1e-10)
    # gamma = 0, f = z: int 1 = pi
    assert gamma_branch_norm((0, 1), w0, gamma=0.0) == pytest.approx(
        math.pi, rel=1e-10)
    assert gamma_branch_norm((0, 0), w0, gamma=0.5) == 0.0


def test_gamma_branch_divergence_tagged():
    val = gamma_branch_norm((1.0,), Weight.point_log(1.0), gamma=0.0,
                            variant="conjecture")
    assert isinstance(val, DivergentNorm)
    assert math.isinf(val) and val.growth_rate > 0


def test_final_example_rate():
    for eps in (0.1, 0.05):
        exact = math.pi * math.log(1 + 1 / eps**2)
        assert final_example_norm(eps) == pytest.approx(exact, rel=1e-10)


def test_holder_continuity_in_gamma():
    # normalized test family: conjecture variant against the mass-1 measure
    # e^{-log pi} dlam, data f = z (1 + z/2)
    w = Weight([], "log(pi)", "disk")
    u = (0.0, 1.0, 0.5)
    vals = [gamma_branch_norm(u, w, gamma=g, variant="conjecture")
            for g in (0.0, 0.25, 0.5, 1.0)]
    for a, b in zip(vals, vals[1:]):
        assert abs(b - a) <= 0.2 * max(a, b)


def _branch_node_sum(u, weight, gamma, variant, conic_k, rule):
    """The branch integral (before the power 1+gamma) as one dot product of
    the rule's flattened weights with f on all its nodes at once."""
    w_exp = 1.0 / (1.0 + gamma) if variant == "theorem" else 1.0

    def f(z):
        a = np.abs(z)
        fz = np.polynomial.polynomial.polyval(z, np.asarray(u, complex))
        vals = (np.abs(fz) / a) ** (2.0 / (1.0 + gamma)) \
            * np.exp(-w_exp * np.asarray(weight.evaluate(z), float))
        return vals * a ** (-2.0 * (1.0 - 1.0 / conic_k)) if conic_k else vals

    return complex(np.dot(rule.weights, f(rule.nodes))).real


_BRANCH_WEIGHTS = {
    "zero": Weight.zero,
    "halfplane": lambda: Weight.halfplane(1.5),
    "point_log": lambda: Weight.point_log(0.4),
    "clamp": lambda: clamp_max(Weight.halfplane(1.0), 0.2, 6.0),
    "reglog": lambda: RegularizedLogWeight(0.1, "z"),
    "reglog_shifted": lambda: RegularizedLogWeight(0.1, "z", style="shifted"),
}


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("conic_k", [None, 2, 3])
@pytest.mark.parametrize("variant", ["theorem", "conjecture"])
@pytest.mark.parametrize("weight_name", sorted(_BRANCH_WEIGHTS))
def test_branch_gram_form_matches_node_sum(weight_name, variant, conic_k,
                                           rotated):
    # gamma = 0 takes the Gram form; a rotated rule evaluates every angle
    rule = disk_rule(radial_order=12, angular_order=32, grading_levels=12)
    if rotated:
        rule = rule.rotated(np.exp(0.3j))
    u = (0.0, 1.0 - 0.5j, 0.3, 0.2j)
    w = _BRANCH_WEIGHTS[weight_name]()
    val = gamma_branch_norm(u, w, 0.0, variant, rule=rule, conic_k=conic_k)
    ref = _branch_node_sum(u, w, 0.0, variant, conic_k, rule)
    assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("weight_name", sorted(_BRANCH_WEIGHTS))
def test_branch_node_sum_in_blocks(weight_name, rotated):
    # gamma > 0 sums the integrand over radii x phases a block at a time:
    # the whole-grid node sum to 1e-14, and the rule's flattened nodes and
    # weights are never built
    rule = disk_rule(radial_order=32, angular_order=64, grading_levels=18)
    if rotated:
        rule = rule.rotated(np.exp(0.3j))
    w = _BRANCH_WEIGHTS[weight_name]()
    u = (0.0, 1.0 - 0.5j, 0.3, 0.2j)
    cases = ((0.5, "theorem", None), (0.3, "conjecture", 2), (1.0, "theorem", 3))
    vals = [gamma_branch_norm(u, w, gamma, variant, rule=rule, conic_k=conic_k)
            for gamma, variant, conic_k in cases]
    assert "nodes" not in vars(rule) and "weights" not in vars(rule)
    for val, (gamma, variant, conic_k) in zip(vals, cases):
        ref = _branch_node_sum(u, w, gamma, variant, conic_k, rule) ** (1.0 + gamma)
        assert val == pytest.approx(ref, rel=1e-14)


_DEFAULT_CASES = [
    # (u, weight, gamma, variant, conic_k)
    ((0.0, 1.0), "zero", 0.0, "theorem", None),
    ((1.0,), "zero", 0.0, "theorem", None),
    ((0.0, 1.0, 0.5j), "halfplane", 0.5, "theorem", 2),
    ((0.0, 1.0), "point_log", 0.0, "conjecture", None),
    ((0.0, 1.0), "point_log", 0.0, "theorem", 3),
    ((1.5, 0.3), "point_log", 0.2, "theorem", None),
    ((1.0, 1.0), "point_log", 0.3, "conjecture", None),
    ((0.0, 0.4, 1.0), "clamp", 0.8, "conjecture", None),
    ((1.0,), "reglog", 0.0, "conjecture", None),
    ((0.0, 1.0), "reglog_shifted", 0.0, "conjecture", None),
]


@pytest.mark.parametrize("case", range(len(_DEFAULT_CASES)))
def test_default_branch_norm_matches_two_full_rules(case):
    # the shared-cell default path against levels 18 and 24 as two whole
    # rules, each integrated on its own
    u, name, gamma, variant, conic_k = _DEFAULT_CASES[case]
    w = _BRANCH_WEIGHTS[name]()
    i1, i2 = (_branch_node_sum(u, w, gamma, variant, conic_k,
                               disk_rule(radial_order=32, angular_order=64,
                                         grading_levels=n))
              for n in _BRANCH_LEVELS)
    val = gamma_branch_norm(u, w, gamma, variant, conic_k=conic_k)
    if i2 > i1 and (i2 - i1) > 0.05 * abs(i2):
        assert isinstance(val, DivergentNorm)
        assert val.growth_rate == pytest.approx((i2 - i1) / 6.0, rel=1e-12)
    else:
        assert not isinstance(val, DivergentNorm)
        assert val == pytest.approx(i2 ** (1.0 + gamma), rel=1e-13)


def test_branch_norm_log_zero_on_node_raises_evaluation_error():
    # a log zero exactly on a real node of the default rule: e^{-phi} is
    # infinite there, on the Gram path (gamma = 0) as on the node sum
    node = float(disk_rule(radial_order=32, angular_order=64,
                           grading_levels=18).radii[500])
    w = Weight([(0.5, "z - %r" % node)])
    for gamma in (0.0, 0.5):
        with pytest.raises(EvaluationError):
            gamma_branch_norm((0.0, 1.0), w, gamma)
    # and `bergext norms` exits 1 (a degeneracy would exit 2)
    assert main(["norms", "--kind", "gamma_branch", "--gamma", "0",
                 "--weight", json.dumps(w.to_dict()), "--data", "0,1"]) == 1


def test_derivative_norm_exact_diagonal_vanishes():
    cd = CrossData((0.0,), (0.0, 1.0))
    val = derivative_norm_on_Y(cd, Weight.diagonal_log(), include_log=False)
    assert val == pytest.approx(0.0, abs=1e-20)


def test_derivative_norm_regularized_bounded():
    cd = CrossData((0.0,), (0.0, 1.0))
    vals = [derivative_norm_on_Y(cd, RegularizedLogWeight(e, "z1-z2"),
                                 include_log=False)
            for e in (0.2, 0.1, 0.05, 0.025)]
    assert max(vals) <= 2.0 * min(vals)
    with_log = derivative_norm_on_Y(cd, RegularizedLogWeight(0.1, "z1-z2"))
    assert with_log > vals[1]  # the log^2 factor only adds weight


def test_derivative_norm_zero_data():
    cd = CrossData((0.0,), (0.0,))
    assert derivative_norm_on_Y(cd, Weight.diagonal_log()) == 0.0


def _derivative_node_sum(data, weight, rule, include_log):
    """The twisted-derivative norm as a sum over the rule's nodes
    (DiskRule.integrate) of |d^phi f|^2 e^{-phi} [log^2 |z|^2] per branch."""
    total = 0.0
    for branch, c in ((1, data.f1), (2, data.f2)):
        wb = weight.restrict_to_branch(branch) if weight.domain == "bidisk" else weight

        def f(z):
            vals = np.abs(twisted_derivative(wb, c, z)) ** 2 \
                * np.exp(-np.asarray(wb.evaluate(z), float))
            return vals * np.log(np.abs(z) ** 2) ** 2 if include_log else vals

        total += rule.integrate(f).real
    return total


_DERIVATIVE_WEIGHTS = {
    "zero": Weight.zero,
    "halfplane": lambda: Weight.halfplane(1.5),
    "point_log": lambda: Weight.point_log(0.4),
    "clamp": lambda: clamp_max(Weight.halfplane(1.0), 0.2, 6.0),
    "reglog": lambda: RegularizedLogWeight(0.1, "z1-z2"),
    "reglog_shifted": lambda: RegularizedLogWeight(0.1, "z1-z2", style="shifted"),
    # not conjugation symmetric: every angle is evaluated
    "asymmetric": lambda: Weight([], "x*y + 0.5*y"),
}


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("include_log", [True, False], ids=["log", "bare"])
@pytest.mark.parametrize("weight_name", sorted(_DERIVATIVE_WEIGHTS))
def test_derivative_gram_form_matches_node_sum(weight_name, include_log, rotated):
    # a rotated rule evaluates every angle
    rule = disk_rule(radial_order=12, angular_order=32, grading_levels=12)
    if rotated:
        rule = rule.rotated(np.exp(0.3j))
    w = _DERIVATIVE_WEIGHTS[weight_name]()
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8):
        f1, f2 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        f2[0] = f1[0]
        cd = CrossData(tuple(f1), tuple(f2))
        val = derivative_norm_on_Y(cd, w, rule=rule, include_log=include_log)
        ref = _derivative_node_sum(cd, w, rule, include_log)
        assert val == pytest.approx(ref, rel=1e-12)


def test_derivative_norm_closed_forms():
    # zero weight: d^phi f = f', and int log^2|z|^2 |z^(j-1)|^2 j^2 = 2 pi / j
    f = (0.5, 1.0 - 0.5j, 0.0, 2.0 + 1.0j, 0.3, -0.7j)
    cd = CrossData(f[:3], f)
    exact = 2.0 * math.pi * sum(abs(a) ** 2 / j
                                for g in (cd.f1, cd.f2) for j, a in enumerate(g) if j)
    for w in (Weight.zero(), Weight.zero("bidisk")):
        assert derivative_norm_on_Y(cd, w) == pytest.approx(exact, rel=1e-12)
    # f = (0, z), no log: d^phi z e^{-phi/2} is eps^2/(eps^2 + |z|^2)^(3/2)
    # under the shifted regularization, and sqrt(e) (1 - u) e^{-u/2}/eps with
    # u = |z|^2/eps^2 inside the eps-disk (0 outside) under the convolution
    cd = CrossData((0.0,), (0.0, 1.0))
    for eps in (0.2, 0.1, 0.05, 0.025):
        shifted = RegularizedLogWeight(eps, "z1-z2", style="shifted")
        assert derivative_norm_on_Y(cd, shifted, include_log=False) == pytest.approx(
            0.5 * math.pi * (1.0 - eps**4 / (1.0 + eps**2) ** 2), rel=1e-12)
        # the default rule does not grade toward the kink at |z| = eps
        conv = RegularizedLogWeight(eps, "z1-z2")
        assert derivative_norm_on_Y(cd, conv, include_log=False) == pytest.approx(
            math.pi * (math.e - 2.0), rel=1e-5)


def test_derivative_norm_refuses_non_disk_rule():
    cd = CrossData((0.0,), (0.0, 1.0))
    rule = bidisk_rule(radial_order=(8, 8), angular_order=(16, 16), grading_levels=8)
    with pytest.raises(ParameterError):
        derivative_norm_on_Y(cd, Weight.zero("bidisk"), rule=rule)


def test_derivative_norm_non_finite_raises_evaluation_error():
    cd = CrossData((0.0,), (0.0, 1.0))
    # a log zero exactly on a real node of the default rule
    node = float(disk_rule(radial_order=32, angular_order=64,
                           grading_levels=16).radii[300])
    w = Weight([(0.5, "z1 - %r" % node)], "0", "bidisk")
    with pytest.raises(EvaluationError):
        derivative_norm_on_Y(cd, w)
    assert main(["norms", "--kind", "derivative_on_Y", "--weight",
                 json.dumps(w.to_dict()), "--data", "0;0,1"]) == 1
    # e^{-phi} = e^{2000 x} overflows on the right half of the disk: the
    # finite check of the moment rows fails
    with pytest.raises(EvaluationError) as err:
        derivative_norm_on_Y(cd, Weight.halfplane(1000.0))
    assert isinstance(err.value.__cause__, DegeneracyError)


def test_quadratic_homogeneity_branch():
    w0 = Weight.zero()
    v1 = gamma_branch_norm((0, 1, 2), w0, gamma=0.5)
    v2 = gamma_branch_norm((0, 2, 4), w0, gamma=0.5)
    assert v2 == pytest.approx(4 * v1, rel=1e-10)


def test_conic_density_knob():
    w0 = Weight.zero()
    base = gamma_branch_norm((0, 1), w0, gamma=0.0)
    conic = gamma_branch_norm((0, 1), w0, gamma=0.0, conic_k=2)
    # |z|^{-1} density increases the integral: int |z|^{-1} = 2pi
    assert conic == pytest.approx(2 * math.pi, rel=1e-8)
    assert conic > base


@pytest.mark.parametrize("U", [[], [[]], [[], []], [0, 1], [[0, 0], [0, 1, 2]],
                               np.zeros((2, 2, 2))],
                         ids=["empty", "no-columns", "two-empty-rows", "1-D",
                              "ragged", "3-D"])
def test_bulk_norm_refuses_non_2d_coefficients(U):
    with pytest.raises(ParameterError, match="bulk norm coefficients must"):
        log_weighted_bulk_norm(U, Weight.zero("bidisk"))


def test_branch_norm_refuses_2d_coefficients():
    # a matrix of coefficients used to fail in numpy's matmul
    with pytest.raises(ParameterError, match="1-D"):
        gamma_branch_norm(np.ones((2, 2)), Weight.zero())


def test_evaluate_norm_dispatch():
    spec = NormSpec("final_example", epsilon=0.1)
    assert evaluate_norm(spec, (0.0, 1.0)) == pytest.approx(
        math.pi * math.log(1 + 100.0), rel=1e-10)
    with pytest.raises(ParameterError):
        evaluate_norm(NormSpec("final_example"), (0.0, 1.0))
    with pytest.raises(ParameterError):
        evaluate_norm(NormSpec("gamma_branch"), (0.0, 1.0))
