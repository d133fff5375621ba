import itertools
import math
import re

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebvander
from hypothesis import given, settings, strategies as st

from bergext import (
    CrossData,
    DegeneracyError,
    ParameterError,
    RegularizedLogWeight,
    Weight,
    bergman_metric_at_zero,
    clamp_max,
    build_model,
    extend_cross,
    higher_kernel,
    log_kernel_gradient_at_zero,
    unit_ek,
)
from bergext import bergman, quadrature
from bergext.bergman import _BLOCK, _dense, _gram, default_rule
from bergext.cli import parse_weight
from bergext.quadrature import bidisk_rule, disk_rule


def _brute_gram(weight, degree, rule):
    """G[a,b] = rule.integrate(conj(e_a) e_b e^{-phi}), one quadrature per
    entry, for z^n on a disk rule or z1^m z2^n on a bidisk rule."""
    mons = list(itertools.product(range(degree + 1),
                                  repeat=1 if rule.domain == "disk" else 2))

    def mono(zs, e):
        return np.prod([z**k for z, k in zip(zs, e)], axis=0)

    G = np.zeros((len(mons), len(mons)), dtype=complex)
    for a, ea in enumerate(mons):
        for b, eb in enumerate(mons):
            G[a, b] = rule.integrate(
                lambda *zs: np.conj(mono(zs, ea)) * mono(zs, eb)
                * np.exp(-np.asarray(weight.evaluate(*zs), dtype=float)))
    return G


def _dense_gram(weight, degree, rule):
    """(monomials, G): the Gram of ``_gram`` as one dense matrix."""
    mons, blocks, G = _gram(weight, degree, rule)
    return mons, _dense(blocks, G)


def _rel(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


class _NotInvariant:
    """Hides a weight's diagonal rotation invariance from build_model."""

    domain = "bidisk"
    diagonal_rotation_invariant = False

    def __init__(self, weight):
        self.evaluate = weight.evaluate

    def describe(self):
        return "wrapped"


# small diagonal-graded rule: cheap enough for one quadrature per Gram entry,
# outer and inner angular orders above 2*degree so no Fourier offset aliases
_SMALL_DIAG = dict(radial_order=(4, 4), angular_order=(8, 16), grading_levels=4,
                   diagonal_grading=True, diagonal_levels=4)


@pytest.fixture(scope="module")
def unweighted_disk():
    return build_model("disk", Weight.zero(), 16)


def test_unweighted_gram(unweighted_disk):
    G = unweighted_disk.gram
    for n in range(17):
        assert G[n, n].real == pytest.approx(math.pi / (n + 1), rel=1e-13)
    off = np.abs(G - np.diag(np.diag(G))).max()
    assert off < 1e-12


def test_unweighted_kernels(unweighted_disk):
    for k in range(7):
        exact = math.factorial(k) ** 2 * (k + 1) / math.pi
        assert higher_kernel(unweighted_disk, k) == pytest.approx(exact, rel=1e-12)
    assert bergman_metric_at_zero(unweighted_disk) == pytest.approx(2.0, rel=1e-12)


def test_unweighted_kernel_closed_form(unweighted_disk):
    # truncated kernel approximates 1/(pi (1-z conj(w))^2) for small |z w|
    z, w = 0.2 + 0.1j, 0.15 - 0.05j
    exact = 1.0 / (math.pi * (1 - z * np.conj(w)) ** 2)
    assert unweighted_disk.kernel(z, w) == pytest.approx(exact, rel=1e-9)


def test_reproducing_property(unweighted_disk):
    m = unweighted_disk
    rng = np.random.default_rng(7)
    c = rng.standard_normal(m.degree + 1) + 1j * rng.standard_normal(m.degree + 1)
    pts = 0.6 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / 2
    wts = m.rule.weights * np.exp(-np.asarray(m.weight.evaluate(m.rule.nodes), float))
    fvals = np.polynomial.polynomial.polyval(m.rule.nodes, c)
    for z in pts:
        kz = m.kernel(np.full_like(m.rule.nodes, z), m.rule.nodes)
        rec = np.dot(wts, kz * fvals)
        exact = np.polynomial.polynomial.polyval(z, c)
        assert rec == pytest.approx(exact, rel=1e-10)


def test_halfplane_unitary_equivalence():
    # phi = -2m Re z is |e^{mz}|^{-2}, so g = e^{mz} h maps the weighted space
    # unitarily onto the unweighted one: B_0 is unchanged and the log-kernel
    # gradient at 0 shifts by exactly -m
    m = build_model("disk", Weight.halfplane(2.0), 24)
    assert higher_kernel(m, 0) == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert log_kernel_gradient_at_zero(m) == pytest.approx(-2.0, rel=1e-8)


def test_basis_orthonormal():
    m = build_model("disk", Weight.halfplane(1.5), 12)
    E = m.basis_coeffs
    I = E.conj().T @ m.gram @ E
    assert np.abs(I - np.eye(I.shape[0])).max() < 1e-10


def test_basis_deterministic():
    m1 = build_model("disk", Weight.halfplane(1.5), 10)
    m2 = build_model("disk", Weight.halfplane(1.5), 10)
    assert np.array_equal(m1.basis_coeffs, m2.basis_coeffs)


def _inverse_corner(G):
    """[G^{-1}]_00 by a Jacobi-scaled solve: B_k(0)/(k!)^2 for G = G[k:, k:]."""
    d = np.sqrt(np.diag(G).real)
    u = np.zeros(len(d))
    u[0] = 1.0 / d[0]
    return np.linalg.solve(G / d[:, None] / d[None, :], u)[0].real / d[0]


@st.composite
def _disk_weights(draw):
    x = draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(("zero", "halfplane", "tilted", "clamp",
                                 "point_log", "reglog")))
    if kind == "zero":
        return Weight.zero()
    if kind == "halfplane":
        return Weight.halfplane(6 * x)
    if kind == "tilted":  # -2 Re((a - ib) z): a complex Gram
        return Weight([], "%r*x + %r*y" % (-8 * x, 8 * (1 - x)))
    if kind == "clamp":
        return clamp_max(Weight.halfplane(4 * x), 0.5 * x, draw(st.floats(1.0, 20.0)))
    if kind == "point_log":
        return Weight.point_log(x)
    style = draw(st.sampled_from(("convolution", "shifted")))
    return RegularizedLogWeight(x, "z", style)


@settings(max_examples=25, deadline=None)
@given(_disk_weights(), st.integers(2, 24))
def test_basis_is_the_orthogonal_ladder(weight, degree):
    # basis_coeffs is lower-triangular with a positive diagonal and
    # orthonormal, so column k spans E_k (-) E_{k+1}: B_k(0) is (k!)^2 times
    # the corner of G[k:, k:]^{-1}, and e_k is orthogonal to every z^n, n > k
    m = build_model("disk", weight, degree)
    E, G = m.basis_coeffs, m.gram
    tol = 10 * m.condition_number * np.finfo(float).eps
    assert np.array_equal(E, np.tril(E))
    assert np.all(E.diagonal().imag == 0) and np.all(E.diagonal().real > 0)
    assert np.abs(E.conj().T @ G @ E - np.eye(degree + 1)).max() <= tol
    d = np.sqrt(np.diag(G).real)
    for k in range(degree + 1):
        ref = math.factorial(k) ** 2 * _inverse_corner(G[k:, k:])
        assert higher_kernel(m, k) == pytest.approx(ref, rel=tol)
        overlap = (G @ unit_ek(m, k))[k + 1:] / d[k + 1:]  # <z^n, e_k>/||z^n||
        assert np.abs(overlap).max(initial=0.0) <= tol


def test_bidisk_ladder_e0():
    # on the bidisk the monomial 1 comes first, so column 0 is e_0 and
    # B_0(0) is the corner of G^{-1}
    m = build_model("bidisk", RegularizedLogWeight(0.3, "z1-z2"), 2,
                    rule=bidisk_rule(**_SMALL_DIAG))
    tol = 10 * m.condition_number * np.finfo(float).eps
    assert higher_kernel(m, 0) == pytest.approx(_inverse_corner(m.gram), rel=tol)
    e0 = unit_ek(m, 0)
    assert np.abs((m.gram @ e0)[1:]).max() <= tol * np.abs(m.gram).max()
    with pytest.raises(ParameterError):
        higher_kernel(m, 1)


def test_unit_ek_structure(unweighted_disk):
    # unweighted: e_k = z^k / ||z^k||, so the coefficient vector is a spike
    for k in (0, 2, 5):
        v = unit_ek(unweighted_disk, k)
        nrm = math.sqrt(math.pi / (k + 1))
        assert v[k] == pytest.approx(1.0 / nrm, rel=1e-10)
        v[k] = 0.0
        assert np.abs(v).max() < 1e-10


def test_degenerate_weight_rejected():
    with pytest.raises(DegeneracyError) as exc:
        build_model("disk", Weight.point_log(1.0), 8)
    assert 0 in exc.value.offending_monomials
    # near 0, |z^n|^2 |z|^{-2s} is integrable exactly when n > s - 1
    for s, killed in ((1.5, [0]), (2.5, [0, 1])):
        with pytest.raises(DegeneracyError) as exc:
            build_model("disk", Weight.point_log(s), 8)
        assert exc.value.offending_monomials == killed
    with pytest.raises(DegeneracyError):
        build_model("bidisk", Weight.diagonal_log(), 4)


def test_parameter_checks(unweighted_disk):
    with pytest.raises(ParameterError):
        build_model("disk", Weight.zero("bidisk"), 8)
    with pytest.raises(ParameterError):
        build_model("torus", Weight.zero(), 8)
    with pytest.raises(ParameterError):
        higher_kernel(unweighted_disk, -1)
    with pytest.raises(ParameterError):
        higher_kernel(unweighted_disk, unweighted_disk.degree + 1)


def test_bidisk_product_structure():
    m = build_model("bidisk", Weight.zero("bidisk"), 6)
    for a, (p, q) in enumerate(m.monomials):
        exact = math.pi**2 / ((p + 1) * (q + 1))
        assert m.gram[a, a].real == pytest.approx(exact, rel=1e-12)
    assert higher_kernel(m, 0) == pytest.approx(1 / math.pi**2, rel=1e-12)


def test_bidisk_reduced_vs_generic():
    # the angular-reduced Gram must match the generic tensor assembly
    w = RegularizedLogWeight(0.3, "z1-z2")
    rule = bidisk_rule(radial_order=(8, 8), angular_order=(16, 96),
                       grading_levels=6, diagonal_grading=True, diagonal_levels=8)
    m_fast = build_model("bidisk", w, 4, rule=rule)
    m_slow = build_model("bidisk", _NotInvariant(w), 4, rule=rule)
    scale = np.abs(m_fast.gram).max()
    assert np.abs(m_fast.gram - m_slow.gram).max() < 1e-8 * scale
    # both paths share the moment kernel, so each is also held against a
    # per-entry quadrature on a small rule
    small = bidisk_rule(**_SMALL_DIAG)
    ref = _brute_gram(w, 2, small)
    assert _rel(build_model("bidisk", w, 2, rule=small).gram, ref) < 1e-12
    assert _rel(build_model("bidisk", _NotInvariant(w), 2, rule=small).gram,
                ref) < 1e-12


def test_bidisk_invariant_gram_complex_moments():
    # log|z1 - i z2|^2 is invariant under the diagonal rotation but its Gram
    # is not real; the reduced path must not return the conjugate
    w = Weight([(0.5, "z1 - 1j*z2")], "0", "bidisk")
    rule = bidisk_rule(**_SMALL_DIAG)
    G = build_model("bidisk", w, 2, rule=rule).gram
    ref = _brute_gram(w, 2, rule)
    assert np.abs(ref.imag).max() > 1e-2 * np.abs(ref).max()
    assert _rel(G, ref) < 1e-12


def test_bidisk_generic_gram_matches_node_sum():
    # weight depending on both angles, without diagonal grading
    w = Weight([(0.5, "2 + z1 - 1j*z2")], "0.5*x1*y2 - y1", "bidisk")
    rule = bidisk_rule(radial_order=(4, 4), angular_order=(8, 12),
                       grading_levels=4)
    ref = _brute_gram(w, 2, rule)
    assert _rel(build_model("bidisk", w, 2, rule=rule).gram, ref) < 1e-12


@pytest.mark.parametrize("weight", [
    Weight.zero("bidisk"), Weight([], "x1*x2 + y1*y2", "bidisk"),
    Weight([], "0.3*x1 + 2*y2**3", "bidisk")], ids=["zero", "x1x2+y1y2", "turned"])
def test_diagonal_graded_gram_matches_node_sum(weight):
    # under diagonal grading every outer radius has its own inner table; the
    # radial stage takes them a run at a time, evaluating e^{-phi} on blocks
    # of whole outer radii: all 20 in one block for the radial zero weight,
    # on the complex-node invariant path for x1*x2 + y1*y2, and with the
    # inner rule turned by the outer phases for a generic weight.  The outer
    # angular order 8 exceeds 2*degree, so the invariant Gram is the node sum
    rule = bidisk_rule(**_SMALL_DIAG)
    sizes = []
    evaluate = weight.evaluate

    def counting(*zs):
        sizes.append(np.broadcast(*zs).size)
        return evaluate(*zs)

    weight.evaluate = counting
    G = _dense_gram(weight, 2, rule)[1]
    weight.evaluate = evaluate
    if weight.radial:
        assert sizes == [rule.rule1.radii.size * rule.inner_size]
    assert _rel(G, _brute_gram(weight, 2, rule)) < 1e-12


def test_rotated_second_factor_under_diagonal_grading():
    # the node sum turns the diagonally graded inner rules by the second
    # factor's own rotation as well as by the outer phase, as the Gram does
    rule = quadrature.BidiskRule(
        disk_rule(4, 8, grading_levels=4),
        disk_rule(4, 4, grading_levels=4).rotated(np.exp(0.3j)),
        diagonal_grading=True, diagonal_levels=4)
    w = Weight([], "0.3*x1 + 2*y2**3", "bidisk")
    assert _rel(_dense_gram(w, 3, rule)[1], _brute_gram(w, 3, rule)) < 1e-12


@pytest.mark.parametrize("phase, degree", [(1.0, 12), (np.exp(0.3j), 12),
                                           (1.0, 20)])
def test_disk_gram_matches_node_sum(phase, degree):
    # degree 20 on 32 angles aliases Fourier offsets: the Gram is still the
    # node sum of the rule, as before.  The conjugation-symmetric halfplane
    # weight takes the half-angle path on the unrotated rule, the tilted one
    # the full grid
    rule = disk_rule(radial_order=8, angular_order=32).rotated(phase)
    for w in (Weight.halfplane(1.5), Weight([], "-3*x + 2*y")):
        G = build_model("disk", w, degree, rule=rule).gram
        assert _rel(G, _brute_gram(w, degree, rule)) < 1e-13


def test_bidisk_half_angle_gram_matches_node_sum():
    # invariant, conjugation-symmetric weights evaluate half the inner angles
    rule = bidisk_rule(**_SMALL_DIAG)
    for w in (RegularizedLogWeight(0.3, "z1-z2", "shifted"),
              Weight([(0.5, "z1-z2")], "x1*x2 + y1*y2", "bidisk")):
        assert w.diagonal_rotation_invariant and w.conjugation_symmetric
        G = build_model("bidisk", w, 2, rule=rule).gram
        assert _rel(G, _brute_gram(w, 2, rule)) < 1e-12


@pytest.mark.parametrize("eps, style, angular_order", [
    (0.3, "convolution", (8, 16)), (0.05, "convolution", (8, 16)),
    (0.3, "shifted", (8, 16)), (0.3, "convolution", (8, 17))],
    ids=["wide-tube", "narrow-tube", "shifted", "odd-inner-order"])
def test_bidisk_polar_gram_matches_node_sum(eps, style, angular_order):
    # the invariant path forms |z1 - z2|^2 from real polar arrays
    rule = bidisk_rule(**dict(_SMALL_DIAG, angular_order=angular_order))
    w = RegularizedLogWeight(eps, "z1-z2", style)
    G = _dense_gram(w, 2, rule)[1]
    ref = _brute_gram(w, 2, rule)
    assert _rel(G, ref) < 1e-12


@pytest.mark.parametrize("domain, weight", [
    ("disk", Weight([], "-800*x")),
    ("bidisk", Weight([], "-800*x1", "bidisk")),
    ("bidisk", Weight([], "-800*(x1**2+y1**2+x2**2+y2**2)", "bidisk"))],
    ids=["disk", "bidisk-generic", "bidisk-invariant"])
def test_non_finite_exp_weight_refused(domain, weight):
    # one finite check per radial contraction still sees an overflowing
    # e^{-phi} at any node
    with np.errstate(over="ignore"), pytest.raises(DegeneracyError) as exc:
        build_model(domain, weight, 2)
    assert str(exc.value) == "weight produced non-finite e^{-phi} at quadrature nodes"


def _angles_seen(weight, domain, rule):
    """Angular sizes of the grids that Gram assembly evaluates the weight on,
    through ``evaluate`` or, where the weight has it, e^{-phi} from |zeta|^2."""
    seen = set()

    def counting(method):
        def wrapped(*zs, **kw):
            seen.add(np.broadcast(*zs).shape[-1])
            return method(*zs, **kw)
        return wrapped

    for name in ("evaluate", "_exp_neg_phi_a2"):
        if hasattr(weight, name):
            setattr(weight, name, counting(getattr(weight, name)))
    build_model(domain, weight, 4, rule=rule)
    return seen


def test_half_angle_evaluation_count():
    rule = disk_rule(radial_order=4, angular_order=32, grading_levels=4)
    assert _angles_seen(Weight.halfplane(1.0), "disk", rule) == {17}
    assert _angles_seen(Weight([], "x*y"), "disk", rule) == {32}
    assert _angles_seen(Weight.halfplane(1.0), "disk",
                        rule.rotated(np.exp(0.3j))) == {32}
    br = bidisk_rule(**_SMALL_DIAG)
    assert _angles_seen(RegularizedLogWeight(0.3, "z1-z2"), "bidisk", br) == {9}
    assert _angles_seen(Weight([(0.5, "z1 - 1j*z2")], "0", "bidisk"),
                        "bidisk", br) == {16}


_DIAG_INVARIANT = Weight([(0.5, "z1 - z2")], "x1*x2 + y1*y2", "bidisk")
# radial weights of every kind: free-form, named families, a clamp, the
# regularized log in z, and a branch of a jointly invariant bidisk weight
_RADIAL = {
    "disk": [Weight.zero(), Weight.point_log(0.5), clamp_max(Weight.zero(), 0.2, 6.0),
             RegularizedLogWeight(0.1, "z"), RegularizedLogWeight(0.1, "z", "shifted"),
             Weight([(0.3, "2*z**2")], "x**2+y**2"), _DIAG_INVARIANT.restrict_to_branch(2)],
    "bidisk": [Weight.zero("bidisk"), Weight([(0.3, "z1")], "x2**2+y2**2", "bidisk")],
}
_RADIAL_CASES = [(d, w) for d, ws in _RADIAL.items() for w in ws]


def _radial_rules(domain):
    """(degree, rule) pairs, unrotated and rotated, whose angular orders
    exceed every offset of the angular stage (on the bidisk, the invariant
    path's inner order exceeds twice the degree)."""
    if domain == "disk":
        rule = disk_rule(radial_order=8, angular_order=32)
        return [(12, rule), (12, rule.rotated(np.exp(0.3j))), (24, default_rule("disk"))]
    turned = quadrature.BidiskRule(
        disk_rule(4, 8, grading_levels=4),
        disk_rule(4, 16, grading_levels=4).rotated(np.exp(0.3j)),
        diagonal_grading=True, diagonal_levels=4)
    return [(2, bidisk_rule(**_SMALL_DIAG)), (3, turned), (4, bidisk_rule(**_TENSOR_INVARIANT))]


def _full_angle_gram(monkeypatch, weight, degree, rule):
    """The Gram with e^{-phi} evaluated on every angle of the rule (of the
    inner rule on the invariant bidisk path): the node sum."""
    with monkeypatch.context() as m:
        m.setattr(bergman, "_evaluated_phases", lambda rule, *args: rule._phases)
        return _dense_gram(weight, degree, rule)[1]


@pytest.mark.parametrize("domain, weight", _RADIAL_CASES,
                         ids=[w.describe() for _, w in _RADIAL_CASES])
def test_radial_gram_is_the_full_angle_node_sum(monkeypatch, domain, weight):
    # a radial weight is evaluated at one angle per radius; its Gram is the
    # full-angle node sum to 1e-15 (Jacobi-scaled), with exact zeros off the
    # diagonal, and it is factored as 1 x 1 blocks
    assert weight.radial
    for degree, rule in _radial_rules(domain):
        mons, G = _dense_gram(weight, degree, rule)
        ref = _full_angle_gram(monkeypatch, weight, degree, rule)
        d = np.sqrt(np.diag(ref).real)
        assert (np.abs(G - ref) / np.outer(d, d)).max() <= 1e-15
        assert not np.count_nonzero(G - np.diag(np.diag(G)))
        model = build_model(domain, weight, degree, rule=rule)
        assert [blk.tolist() for blk in model._blocks] == [[i] for i in range(len(mons))]
        assert np.array_equal(model.basis_coeffs, np.diag(np.diag(model.basis_coeffs)))
        np.testing.assert_allclose(np.diag(model.basis_coeffs).real,
                                   1.0 / np.sqrt(np.diag(G).real), rtol=1e-15)
        assert model.condition_number == pytest.approx(1.0, abs=1e-14)


def test_radial_evaluation_count():
    # one angle per radius, on unrotated and rotated rules, where the angular
    # order exceeds the degree; at an order <= degree the node sum aliases
    # offsets, and every angle (half of them for a symmetric weight on an
    # unrotated rule) is evaluated
    rule = disk_rule(radial_order=4, angular_order=32, grading_levels=4)
    br = bidisk_rule(**_SMALL_DIAG)
    assert _angles_seen(Weight.point_log(0.5), "disk", rule) == {1}
    assert _angles_seen(Weight.point_log(0.5), "disk", rule.rotated(np.exp(0.3j))) == {1}
    assert _angles_seen(RegularizedLogWeight(0.1, "z"), "disk", rule) == {1}
    assert _angles_seen(Weight.zero("bidisk"), "bidisk", br) == {1}
    low = disk_rule(radial_order=4, angular_order=4, grading_levels=4)
    assert _angles_seen(Weight.point_log(0.5), "disk", low) == {3}
    assert _angles_seen(Weight.point_log(0.5), "disk", low.rotated(np.exp(0.3j))) == {4}


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
def test_radial_gram_falls_back_to_every_angle(phase):
    # degree 12 on 8 angles: the node sum has nonzero entries at the aliased
    # offsets 8, which a one-angle evaluation would miss
    rule = disk_rule(radial_order=8, angular_order=8).rotated(phase)
    w = Weight.point_log(0.5)
    G = _dense_gram(w, 12, rule)[1]
    ref = _brute_gram(w, 12, rule)
    assert abs(G[0, 8]) > 0.1 * abs(G[0, 0])
    assert _rel(G, ref) < 1e-13


def test_radial_closed_forms_at_degree_48():
    # the zero weight: G_nn = pi/(n+1), B_k = (k!)^2 (k+1)/pi; point_log(0.5),
    # e^{-phi} = 1/|z|: G_nn = 2 pi/(2n+1), B_k = (k!)^2 (2k+1)/(2 pi)
    n = np.arange(49)
    for w, gnn in ((Weight.zero(), np.pi / (n + 1)),
                   (Weight.point_log(0.5), 2 * np.pi / (2 * n + 1))):
        model = build_model("disk", w, 48)
        np.testing.assert_allclose(np.diag(model.gram).real, gnn, rtol=2e-13)
        assert not np.count_nonzero(model.gram - np.diag(np.diag(model.gram)))
        for k in range(49):
            bk = math.factorial(k) ** 2 / gnn[k]
            assert higher_kernel(model, k) == pytest.approx(bk, rel=2e-13)


def test_gram_assembly_builds_no_nodes():
    rule = disk_rule(radial_order=8, angular_order=32)
    build_model("disk", Weight.halfplane(1.0), 8, rule=rule)
    br = bidisk_rule(**_SMALL_DIAG)
    build_model("bidisk", RegularizedLogWeight(0.3, "z1-z2"), 2, rule=br)
    assert "nodes" not in vars(rule) and "nodes" not in vars(br.rule2)
    assert len(rule) == rule.nodes.size == rule.weights.size


def test_diagonal_invariance_inferred():
    # the same weight written three ways takes the same (invariant) path
    ws = [parse_weight("zero:bidisk"),
          parse_weight('{"domain": "bidisk", "smooth": "0"}'),
          Weight([], "0", "bidisk")]
    assert all(w.diagonal_rotation_invariant for w in ws)
    assert all(default_rule("bidisk", w).diagonal_grading for w in ws)
    grams = [build_model("bidisk", w, 2).gram for w in ws]
    for G in grams[1:]:
        assert _rel(G, grams[0]) < 1e-12
    assert Weight([(0.5, "z1 - 1j*z2")], "x1**2 + y1**2 + x1*x2 + y1*y2",
                  "bidisk").diagonal_rotation_invariant
    for w in (Weight([], "0.3*x1 + 0.2*y1", "bidisk"),
              Weight([(0.5, "2 + z1 - 1j*z2")], "0", "bidisk"),
              Weight([], "exp(x1**2 + y1**2)", "bidisk")):
        assert not w.diagonal_rotation_invariant


def test_log_orders_add_per_zero():
    # log orders sharing a zero add up across terms, as in a single term, and
    # a repeated factor counts with its power (numerical root finding splits
    # the double root of a float polynomial)
    for terms in ([(1.2, "z-0.5")], [(0.6, "z-0.5"), (0.6, "z-0.5")],
                  [(0.6, "z-0.5"), (0.6, "2*z-1")], [(0.6, "(z-0.3)**2")],
                  [(0.6, "(z - (0.3 + 0.2*I))**2*(z + 0.5)")]):
        with pytest.raises(DegeneracyError):
            build_model("disk", Weight(terms), 8)
    build_model("disk", Weight([(0.3, "z-0.5"), (0.3, "z-0.5")]), 8)
    # order 0.6 on (z1-z2)^2 is order 1.2 on the diagonal; refused even on a
    # rule that puts no node on it
    rule = bidisk_rule(**_SMALL_DIAG)
    for terms in ([(0.6, "(z1-z2)**2")], [(0.6, "z1-z2"), (0.6, "z2-z1")]):
        with pytest.raises(DegeneracyError, match="order 1.2"):
            build_model("bidisk", Weight(terms, "0", "bidisk"), 2, rule=rule)
    build_model("bidisk", Weight([(0.4, "(z1-z2)**2")], "0", "bidisk"), 2,
                rule=rule)


def test_expanded_double_root_counts_once():
    # the double root at 0.3 has log order 1.2 however it is written; the
    # expanded polynomial's float roots used to split into two of order 0.6
    refusals = []
    for f in ("z**2 - 0.6*z + 0.09", "(z-0.3)**2"):
        with pytest.raises(DegeneracyError, match="order 1.2") as err:
            build_model("disk", Weight([(0.6, f)]), 2)
        refusals.append(err.value.offending_monomials)
    assert refusals[0] == refusals[1] == [0, 1, 2]


def test_bidisk_factor_missing_the_disk_ignored():
    # |z1 - 1.5|^-2 is bounded on the bidisk; |z1 - 0.5|^-2 is not integrable
    rule = bidisk_rule(**_SMALL_DIAG)
    w = Weight([(1.0, "z1 - 1.5")], "0", "bidisk")
    G = build_model("bidisk", w, 2, rule=rule).gram
    assert _rel(G, _brute_gram(w, 2, rule)) < 1e-12
    with pytest.raises(DegeneracyError, match="forces vanishing"):
        build_model("bidisk", Weight([(1.0, "z1 - 0.5")], "0", "bidisk"), 2,
                    rule=rule)


def test_bidisk_gram_batches_outer_radii():
    # without diagonal grading every outer radius shares the inner rule, so
    # the weight is evaluated on blocks of about _BLOCK nodes that cover a
    # group of outer radii (as many whole inner grids as fit in a block),
    # not once per outer radius
    rule = bidisk_rule(radial_order=(8, 8), angular_order=(16, 16),
                       grading_levels=10)
    w = Weight([], "x1*x2 + y1*y2", "bidisk")  # invariant, not radial
    sizes = []
    evaluate = w.evaluate

    def counting(*zs):
        sizes.append(np.broadcast(*zs).size)
        return evaluate(*zs)

    w.evaluate = counting
    _gram(w, 2, rule)
    # invariant and conjugation-symmetric: inner angles 0..n2/2 only
    per_radius = rule.rule2.radii.size * (rule.rule2.angular_order // 2 + 1)
    groups = math.ceil(rule.rule1.radii.size / (_BLOCK // per_radius))
    assert sum(sizes) == rule.rule1.radii.size * per_radius
    assert len(sizes) <= math.ceil(sum(sizes) / _BLOCK) + groups


@pytest.mark.parametrize("weight, degree", [
    (RegularizedLogWeight(0.05, "z1-z2"), 4),
    (RegularizedLogWeight(0.05, "z1-z2", "shifted"), 14),
    # turned with the outer phases: one accumulator covers every outer angle
    # while (2*degree+1) * 32 * 128 <= _BLOCK
    (_NotInvariant(RegularizedLogWeight(0.05, "z1-z2")), 1),
])
def test_diagonal_gram_one_angular_transform(monkeypatch, weight, degree):
    # under diagonal grading every outer radius has its own inner radial
    # rule, yet the Gram sums the inner angles with one transform, after the
    # outer radii are contracted, and builds no per-radius disk rule (the
    # benchmark's cross-extension rule has 88 outer radii)
    calls = {"angular": 0, "rfft": 0, "disk_rule": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    rule = bidisk_rule(radial_order=(8, 8), angular_order=(32, 128),
                       grading_levels=10, diagonal_grading=True)
    assert rule.rule1.radii.size == 88
    monkeypatch.setattr(bergman, "_angular", counting("angular", bergman._angular))
    monkeypatch.setattr(np.fft, "rfft", counting("rfft", np.fft.rfft))
    monkeypatch.setattr(quadrature.DiskRule, "__init__",
                        counting("disk_rule", quadrature.DiskRule.__init__))
    _gram(weight, degree, rule)
    assert calls == {"angular": 1, "rfft": 1, "disk_rule": 0}


def test_lens_gram_one_chebyshev_matrix(monkeypatch):
    # every total-degree block of a lens Gram contracts its table
    # coefficients with one Chebyshev matrix at the t-nodes; the other
    # chebvander calls build the table, once per block, at its own nodes
    w = RegularizedLogWeight(0.05, "z1-z2")
    rule = default_rule("bidisk", w)
    x = 4.0 / np.pi * np.arccos(0.5 * rule.t) - 1.0
    calls = []

    def counting(nodes, deg):
        calls.append(nodes)
        return chebvander(nodes, deg)

    monkeypatch.setattr(quadrature, "chebvander", counting)
    monkeypatch.setattr(quadrature, "_LENS", {})
    _gram(w, 8, rule)
    assert sum(np.array_equal(c, x) for c in calls) == 1
    assert len(calls) == 1 + 17  # and one per block k = 0..16
    calls.clear()
    _gram(w, 8, rule)
    assert len(calls) == 1 and np.array_equal(calls[0], x)


def test_invariant_weight_aliasing_rule_accepted():
    # inner angular order <= 2*degree: the invariant weight takes the
    # node-exact generic sum instead of being refused
    w = RegularizedLogWeight(0.3, "z1-z2")
    rule = bidisk_rule(radial_order=(4, 4), angular_order=(8, 4),
                       grading_levels=4)
    G = build_model("bidisk", w, 2, rule=rule).gram
    assert _rel(G, _brute_gram(w, 2, rule)) < 1e-12


def test_invariant_gram_ignores_outer_angular_order():
    # the invariant path integrates the outer angle exactly: outer angular
    # orders 4 (<= 2*degree, where the node sum aliases) and 16 give the same
    # Gram bit for bit
    w = RegularizedLogWeight(0.1, "z1-z2")
    grams = [_dense_gram(w, 2, bidisk_rule(radial_order=(16, 8),
                                           angular_order=(n1, 16),
                                           grading_levels=10))[1]
             for n1 in (4, 16)]
    assert np.array_equal(grams[0], grams[1])


def _jacobi_rel(A, B):
    d = np.sqrt(np.diag(B).real)
    return (np.abs(A - B) / np.outer(d, d)).max()


def test_lens_gram_matches_refined_graded_gram():
    # a diagonally graded rule with 256 inner angles, refined to (32, 32)
    # radial and (16, 512) angular orders, against the lens rule
    w = RegularizedLogWeight(0.1, "z1-z2", style="shifted")
    graded = bidisk_rule(radial_order=(16, 16), angular_order=(8, 256),
                         grading_levels=10, diagonal_grading=True,
                         diagonal_levels=12)
    ref = _dense_gram(w, 12, quadrature.refine(graded))[1]
    lens = default_rule("bidisk", w)
    assert isinstance(lens, quadrature.LensRule) and lens.scale == 0.1
    mons, G = _dense_gram(w, 12, lens)
    assert mons == [(m, n) for m in range(13) for n in range(13)]
    assert _jacobi_rel(G, ref) < 1e-12
    # off the total-degree blocks the lens Gram is exactly 0
    k = np.array([m + n for m, n in mons])
    assert not G[k[:, None] != k].any()


def test_lens_rule_refuses_other_integrands():
    lens = default_rule("bidisk", RegularizedLogWeight(0.1, "z1-z2"))
    with pytest.raises(ParameterError):
        _gram(RegularizedLogWeight(0.1, "z1-z2"), 2, lens,
              density=lambda r: np.ones_like(r))
    for w in (Weight.zero("bidisk"), Weight([(0.5, "z1 - z2")], "0", "bidisk"),
              RegularizedLogWeight(0.1, "z")):
        with pytest.raises(ParameterError):
            _gram(w, 2, lens)
    with pytest.raises(ParameterError):
        build_model("bidisk", Weight.zero("bidisk"), 2, rule=lens)
    with pytest.raises(ParameterError):
        quadrature.integrate(lens, lambda z1, z2: np.ones_like(z2))


def _whole_gram_ladder(G):
    """(E, condition number) of the whole-Gram factorization, written out:
    symmetrize, Jacobi-scale, eigvalsh, the reverse Cholesky and a forward
    substitution over every row."""
    G = 0.5 * (G + G.conj().T)
    d = np.sqrt(np.diag(G).real)
    Gs = G / d[:, None] / d[None, :]
    lam = np.linalg.eigvalsh(Gs)
    L = np.linalg.cholesky(Gs[::-1, ::-1])[::-1, ::-1].conj().T
    E = np.zeros_like(L)
    for i in range(L.shape[0]):
        E[i, :i + 1] = -(L[i, :i] @ E[:i, :i + 1])
        E[i, i] += 1.0
        E[i, :i + 1] /= L[i, i]
    return E / d[:, None], float(lam[-1] / lam[0])


_TENSOR_INVARIANT = dict(radial_order=(8, 8), angular_order=(32, 128),
                         grading_levels=10, diagonal_grading=True)
# a diagonally graded rule on which the node sum of a wide regularized log
# (eps 0.3) at degree 3 is the lens Gram to 8e-6 (Jacobi-scaled)
_LENS_REFERENCE = dict(radial_order=(8, 8), angular_order=(8, 128), grading_levels=6,
                       diagonal_grading=True, diagonal_levels=6)


@pytest.mark.parametrize("weight, degree, tensor", [
    (RegularizedLogWeight(0.05, "z1-z2"), 4, False),
    (RegularizedLogWeight(0.05, "z1-z2"), 16, False),
    (RegularizedLogWeight(0.05, "z1-z2"), 24, False),
    (RegularizedLogWeight(0.1, "z1-z2"), 8, True),
    (RegularizedLogWeight(0.1, "z1-z2", style="shifted"), 8, True),
    (Weight.zero("bidisk"), 8, True),
], ids=["lens-4", "lens-16", "lens-24", "tensor-convolution", "tensor-shifted",
        "tensor-zero"])
def test_block_factorization_matches_whole_gram(weight, degree, tensor):
    # an invariant Gram is factored and solved per total-degree block, a
    # radial one (the zero weight) per index; the written-out whole-Gram
    # factorization of the dense Gram, and the solves of the same Gram stated
    # as one block, agree to 10 cond eps
    rule = bidisk_rule(**_TENSOR_INVARIANT) if tensor else default_rule("bidisk", weight)
    model = build_model("bidisk", weight, degree, rule=rule)
    E, cond = _whole_gram_ladder(model.gram)
    blocks = (degree + 1) ** 2 if weight.radial else 2 * degree + 1
    assert len(model._blocks) == blocks
    tol = 10 * cond * np.finfo(float).eps
    assert _rel(model.basis_coeffs, E) <= tol
    assert np.array_equal(np.tril(model.basis_coeffs), model.basis_coeffs)
    assert model.condition_number == pytest.approx(cond, rel=tol)
    assert higher_kernel(model, 0) == pytest.approx(E[0, 0].real ** 2, rel=tol)
    # the same Gram stated as one block of every index
    whole = bergman.BergmanModel("bidisk", weight, degree, model.monomials,
                                 bergman._index_split(len(model.monomials)),
                                 model.gram[None], rule)
    assert len(whole._blocks) == 1
    data = CrossData((1.0, 0.3, 0.2j), (1.0, 0.5, -0.1, 0.05j))
    rep, ref = extend_cross(model, data), extend_cross(whole, data)
    assert _rel(rep.coefficients, ref.coefficients) <= tol
    assert rep.norm_sq == pytest.approx(ref.norm_sq, rel=tol)
    assert rep.cross_parts == pytest.approx(ref.cross_parts, rel=tol)
    # blocks of total degree above the pins' are 0
    k = np.array([m + n for m, n in model.monomials])
    assert not rep.coefficients[k > 3].any()


@pytest.mark.parametrize("domain, weight, degree, rule", [
    ("disk", Weight.halfplane(2.0), 16, None),
    ("disk", Weight([(0.5, "z - 0.3")]), 24, None),  # not radial
    ("bidisk", Weight([], "0.5*x1 + -0.3*y1", "bidisk"), 3,
     bidisk_rule(radial_order=(4, 4), angular_order=(8, 8), grading_levels=4)),
], ids=["disk-halfplane", "disk-point-log", "bidisk-tilted"])
def test_whole_gram_path_unchanged(domain, weight, degree, rule):
    # disk and generic bidisk Grams are one block of every index, factored
    # bit for bit as the written-out whole-Gram factorization
    rule = rule or default_rule(domain, weight)
    mons, blocks, G = _gram(weight, degree, rule)
    assert np.array_equal(blocks, [np.arange(len(mons))])
    model = build_model(domain, weight, degree, rule=rule)
    E, cond = _whole_gram_ladder(G[0])
    assert np.array_equal(model._blocks, blocks)
    assert np.array_equal(model.basis_coeffs, E)
    assert model.condition_number == cond


def _same_block(blocks, n):
    """mask[a, b]: indices a and b share one of ``blocks``."""
    mask = np.zeros((n, n), dtype=bool)
    for row in blocks:
        idx = row[row >= 0]
        mask[np.ix_(idx, idx)] = True
    return mask


@pytest.mark.parametrize("domain, weight, degree, rule, count", [
    ("bidisk", RegularizedLogWeight(0.3, "z1-z2"), 3, None, "degree"),
    ("bidisk", Weight([(0.5, "z1-z2")], "x1*x2 + y1*y2", "bidisk"), 2,
     bidisk_rule(**_SMALL_DIAG), "degree"),
    ("disk", Weight.point_log(0.5), 12, disk_rule(radial_order=8, angular_order=32),
     "index"),
    ("bidisk", Weight.zero("bidisk"), 2, bidisk_rule(**_SMALL_DIAG), "index"),
    ("disk", Weight.halfplane(1.5), 8, disk_rule(radial_order=8, angular_order=32),
     "one"),
    ("bidisk", Weight([(0.5, "2 + z1 - 1j*z2")], "0.5*x1*y2 - y1", "bidisk"), 2,
     bidisk_rule(radial_order=(4, 4), angular_order=(8, 12), grading_levels=4), "one"),
], ids=["lens", "invariant-tensor", "radial-disk", "radial-bidisk", "disk",
        "generic-bidisk"])
def test_stated_blocks_hold_the_node_sum(domain, weight, degree, rule, count):
    # every producer states its index blocks: the node sum over every node
    # of the rule has nothing beyond rounding off them, and the Gram on them
    # is that node sum.  The lens Gram, one integral in |z1 - z2|, is held
    # against the generic path's node sum on a diagonally graded tensor rule,
    # to that rule's accuracy (test_lens_gram_matches_refined_graded_gram
    # holds it to 1e-12 on a refined rule)
    n = (degree + 1) ** (1 if domain == "disk" else 2)
    if rule is None:
        mons, blocks, G = _gram(weight, degree, default_rule(domain, weight))
        ref = _dense_gram(_NotInvariant(weight), degree, bidisk_rule(**_LENS_REFERENCE))[1]
        tol = 1e-5
    else:
        mons, blocks, G = _gram(weight, degree, rule)
        ref, tol = _brute_gram(weight, degree, rule), 1e-12
    assert len(blocks) == {"one": 1, "index": n, "degree": 2 * degree + 1}[count]
    assert sorted(blocks[blocks >= 0]) == list(range(n))
    d = np.sqrt(np.diag(ref).real)
    scaled = np.abs(ref) / np.outer(d, d)
    assert scaled[~_same_block(blocks, n)].max(initial=0.0) <= 1e-14
    assert (np.abs(_dense(blocks, G) - ref) / np.outer(d, d)).max() <= tol


@pytest.mark.parametrize("factor", [1.0, 2.0], ids=["singular", "indefinite"])
def test_singular_block_same_error_as_whole_gram(factor):
    # the block of total degree 1 made singular (Jacobi-scaled [[1, 1], [1, 1]])
    # or indefinite ([[1, 2], [2, 1]])
    w = RegularizedLogWeight(0.05, "z1-z2")
    lens = default_rule("bidisk", w)
    mons, blocks, G = _gram(w, 6, lens)
    assert [mons[i] for i in blocks[1] if i >= 0] == [(0, 1), (1, 0)]
    G = G.copy()
    G[1, 0, 1] = G[1, 1, 0] = factor * np.sqrt(G[1, 0, 0].real * G[1, 1, 1].real)
    with pytest.raises(DegeneracyError) as split:
        bergman.BergmanModel("bidisk", w, 6, mons, blocks, G, lens)
    with pytest.raises(DegeneracyError) as whole:
        bergman.BergmanModel("bidisk", w, 6, mons, bergman._index_split(len(mons)),
                             _dense(blocks, G)[None], lens)
    if factor == 2.0:
        assert "min eigenvalue -1.000e+00" in str(split.value)
        assert str(split.value) == str(whole.value)
    else:  # the size of a rounding-level eigenvalue is the factorization's
        def shape(e):
            return re.sub(r"-?\d\.\d{3}e[+-]\d+", "#", str(e.value))

        assert shape(split) == shape(whole)


def test_block_checks_name_the_monomial():
    # the diagonal and Hermitian checks run on the padded block stack: a
    # non-positive diagonal entry names its monomial, not a padding slot
    w = RegularizedLogWeight(0.05, "z1-z2")
    lens = default_rule("bidisk", w)
    mons, blocks, G = _gram(w, 4, lens)
    bad = G.copy()
    bad[2, 1, 1] = 0.0  # block of total degree 2, its second monomial
    with pytest.raises(DegeneracyError) as exc:
        bergman.BergmanModel("bidisk", w, 4, mons, blocks, bad, lens)
    assert exc.value.offending_monomials == [(1, 1)]
    bad = G.copy()
    bad[3, 0, 2] += 1e-6 * np.abs(G).max()
    with pytest.raises(DegeneracyError, match="not Hermitian"):
        bergman.BergmanModel("bidisk", w, 4, mons, blocks, bad, lens)


def test_summary_json(capsys):
    import json

    from bergext.cli import main

    assert main(["kernel", "--weight", "zero", "--degree", "16", "--kmax", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 16
    assert len(doc["Bk"]) == 4
    assert doc["B0"] == pytest.approx(1 / math.pi, rel=1e-10)


def test_summary_refuses_negative_kmax(unweighted_disk):
    # kmax -1 used to give an empty B_k table
    with pytest.raises(ParameterError, match="kmax"):
        unweighted_disk.summary(kmax=-1)


def test_ladder_levels_are_checked_integers(unweighted_disk):
    # a non-integer level used to raise a raw TypeError or IndexError
    for call in (lambda: higher_kernel(unweighted_disk, 1.5),
                 lambda: higher_kernel(unweighted_disk, float("nan")),
                 lambda: unweighted_disk.summary(2.5),
                 lambda: unit_ek(unweighted_disk, 2.5)):
        with pytest.raises(ParameterError, match="integer"):
            call()
    assert higher_kernel(unweighted_disk, 2.0) == higher_kernel(unweighted_disk, 2)
    assert unweighted_disk.summary(2.0) == unweighted_disk.summary(2)
