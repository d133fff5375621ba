import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from bergext import ParameterError, bidisk_rule, disk_rule, integrate, quadrature, refine
from bergext.bergman import _dense, _gram, default_rule
from bergext.errors import EvaluationError
from bergext.weights import RegularizedLogWeight


def test_area_and_moments():
    r = disk_rule(radial_order=16, angular_order=32)
    assert integrate(r, lambda z: np.ones_like(z, dtype=float)).real == pytest.approx(math.pi, rel=1e-12)
    assert integrate(r, lambda z: np.abs(z) ** 2).real == pytest.approx(math.pi / 2, rel=1e-12)


def test_monomial_orthogonality_exact():
    r = disk_rule(radial_order=12, angular_order=32)
    for a in range(5):
        for b in range(5):
            val = integrate(r, lambda z: z**a * np.conj(z) ** b)
            exact = 2 * math.pi / (a + b + 2) if a == b else 0.0
            assert val == pytest.approx(exact, abs=1e-12)


def test_log_singularity_graded():
    # int_disk log(1/|z|^2) dlam = pi
    r = disk_rule(radial_order=24, angular_order=8, grading_levels=24)
    val = integrate(r, lambda z: -np.log(np.abs(z) ** 2)).real
    assert val == pytest.approx(math.pi, rel=1e-10)


def test_shifted_pole():
    # int_disk dlam/(eps^2+|z|^2) = pi ln(1+1/eps^2)
    eps = 0.05
    r = disk_rule(radial_order=32, angular_order=8, grading_levels=24)
    val = integrate(r, lambda z: 1.0 / (eps**2 + np.abs(z) ** 2)).real
    assert val == pytest.approx(math.pi * math.log(1 + 1 / eps**2), rel=1e-10)


def test_rotation_preserves_rule():
    r = disk_rule(radial_order=8, angular_order=16)
    rot = r.rotated(np.exp(0.3j))
    f = lambda z: np.abs(z) ** 2 + np.real(z) ** 2
    # rotating builds no node weights; once built, they are unchanged
    assert "weights" not in vars(r) and "weights" not in vars(rot)
    assert np.array_equal(rot.weights, r.weights)
    assert integrate(rot, lambda z: np.abs(z) ** 4).real == pytest.approx(
        integrate(r, lambda z: np.abs(z) ** 4).real, rel=1e-13)


def test_rules_share_one_read_only_phase_vector():
    # every rule of one angular order holds the same cached phases; rotating
    # a rule makes its own array and leaves the shared one as it was
    r = disk_rule(radial_order=4, angular_order=16, grading_levels=2)
    shared = r._phases
    before = shared.copy()
    rot = r.rotated(np.exp(0.3j))
    assert rot._phases is not shared
    assert np.array_equal(rot._phases, before * np.exp(0.3j))
    assert np.array_equal(shared, before) and not shared.flags.writeable
    assert disk_rule(radial_order=6, angular_order=16)._phases is shared
    assert np.array_equal(shared, np.exp(2j * np.pi * np.arange(16) / 16))


def test_nodes_strictly_interior():
    r = disk_rule(radial_order=8, angular_order=16)
    a = np.abs(r.nodes)
    assert a.min() > 0 and a.max() < 1
    # the diagonally graded inner rules: one row of 3L + 2 cells per outer
    # radius, radii in (0, 1) and none at the outer radius, also for an outer
    # radius close to the circle
    br = bidisk_rule(radial_order=(8, 8), angular_order=(8, 16), grading_levels=4,
                     diagonal_grading=True, diagonal_levels=4)
    radii = np.concatenate([[0.3, 0.7, 1 - 1e-3, 1 - 1e-9], br.rule1.radii])
    r2, w2 = br._inner_rules(radii)
    assert r2.shape == w2.shape == (radii.size, (3 * 4 + 2) * 8)
    assert r2.min() > 0 and r2.max() < 1
    assert not np.any(r2 == radii[:, None])


def test_refine_commutes_with_rotation():
    phase = np.exp(0.3j)
    r = disk_rule(radial_order=8, angular_order=16, grading_levels=4)
    a, b = refine(r.rotated(phase)), refine(r).rotated(phase)
    assert a.metadata["rotation"] == phase
    assert np.array_equal(a._phases, b._phases)
    # the 32 refined angles alias z^32 to a constant that turns with them
    f = lambda z: np.real(z**32)
    assert integrate(a, f) == pytest.approx(integrate(b, f), abs=1e-14)
    assert abs(integrate(a, f) - integrate(refine(r), f)) > 1e-2


def _reference_radial_rule(order, center=0.0, levels=20):
    """Per-cell composite Gauss-Legendre on the mesh graded (ratio 1/2)
    toward 0 and the center radius, written out one breakpoint and one cell
    at a time."""
    pts = {0.0, 1.0}
    for j in range(1, levels + 1):
        pts.add(0.5**j)
    rc = min(abs(complex(center)), 1.0)
    if rc > 0.0:
        pts.add(rc)
        for j in range(1, levels + 1):
            d = 0.5**j
            if rc * (1.0 - d) > 0.0:
                pts.add(rc * (1.0 - d))
            if rc + d * (1.0 - rc) < 1.0:
                pts.add(rc + d * (1.0 - rc))
    bps = np.array(sorted(pts))
    bps = bps[np.concatenate([[True], np.diff(bps) > 1e-14])]
    x, w = leggauss(order)
    radii, weights = [], []
    for a, b in zip(bps[:-1], bps[1:]):
        radii.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(radii), np.concatenate(weights)


def test_radial_rule_matches_per_cell_loop():
    # a diagonally graded rule with few outer and many inner angles
    br = bidisk_rule(radial_order=(16, 16), angular_order=(8, 256), grading_levels=10,
                     diagonal_grading=True, diagonal_levels=12)
    rules = [disk_rule(), br.rule1, br.rule2]
    rules += [refine(r) for r in rules]
    for r in rules:
        m = r.metadata
        ref = _reference_radial_rule(m["radial_order"], levels=m["grading_levels"])
        assert np.array_equal(r.radii, ref[0])
        assert np.array_equal(r.radial_weights, ref[1])
    for b in (br, refine(br)):
        for r1 in b.rule1.radii:
            (r2,), (w2,) = b._inner_rules(np.array([r1]))
            ref = _per_radius_rule(b, r1)
            assert np.array_equal(r2, ref[0])
            assert np.array_equal(w2, ref[1])


def _per_radius_rule(br, r):
    """The per-cell loop's inner radial rule (radii, weights) of a
    diagonally graded ``br`` at outer radius r."""
    return _reference_radial_rule(br.rule2.metadata["radial_order"], r, br.diagonal_levels)


def test_inner_rules_match_per_radius_disk_rules():
    # diagonally graded rules: few outer and many inner angles, the
    # cross-extension benchmark rule, the default rule, and their refinements
    rules = [bidisk_rule(grading_levels=10, diagonal_grading=True, diagonal_levels=12, **kw)
             for kw in (dict(radial_order=(16, 16), angular_order=(8, 256)),
                        dict(radial_order=(8, 8), angular_order=(32, 128)),
                        dict(radial_order=(16, 16), angular_order=(64, 256)))]
    for br in rules + [refine(br) for br in rules]:
        radii = br.rule1.radii
        r2, w2 = br._inner_rules(radii)
        cells = 3 * br.diagonal_levels + 2
        assert r2.shape == w2.shape == (radii.size, cells * br.rule2.metadata["radial_order"])
        for i, r in enumerate(radii):
            ref = _per_radius_rule(br, r)
            assert np.array_equal(r2[i], ref[0])
            assert np.array_equal(w2[i], ref[1])
    # at r = 0.5 = d_1 and r = 0.25 = d_2 the breakpoints r and r(1 - d_1) fall
    # on the grading points d_j toward 0, which would leave a zero-width
    # cell, and 1 + 5e-13 lies past the circle: such outer radii are refused
    br = rules[0]
    for bad in (0.5, 0.25, 1 + 5e-13):
        with pytest.raises(ParameterError, match="outer radius"):
            br._inner_rules(np.array([0.3, bad, 0.7]))
    # without diagonal grading every radius shares the second factor's rule
    radii = np.array([0.3, 0.5, 0.25, 0.7])
    plain = bidisk_rule(radial_order=(8, 8), angular_order=(16, 16))
    r2, w2 = plain._inner_rules(radii)
    assert np.array_equal(r2, np.tile(plain.rule2.radii, (4, 1)))
    assert np.array_equal(w2, np.tile(plain.rule2.radial_weights, (4, 1)))


def test_graded_bidisk_gram_computes_each_gauss_rule_once(monkeypatch):
    calls = []

    def counting(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(quadrature, "_GAUSS", {})
    monkeypatch.setattr(quadrature, "leggauss", counting)
    rule = bidisk_rule(radial_order=(6, 8), angular_order=(8, 32), grading_levels=6,
                       diagonal_grading=True, diagonal_levels=6)
    _gram(RegularizedLogWeight(0.2, "z1-z2"), 3, rule)
    _gram(RegularizedLogWeight(0.2, "z1-z2"), 3, refine(rule))
    assert sorted(calls) == [6, 8, 12, 16]


def _area(br):
    return br.integrate(lambda z1, z2: np.ones_like(z2, dtype=float)).real


def test_bidisk_product_value():
    br = bidisk_rule(radial_order=(8, 8), angular_order=(8, 8))
    val = br.integrate(lambda z1, z2: np.abs(z1) ** 2 * np.ones_like(z2, dtype=float))
    assert val.real == pytest.approx(math.pi / 2 * math.pi, rel=1e-12)
    assert _area(br) == pytest.approx(math.pi**2, rel=1e-12)


def test_diagonal_grading_blocks():
    br = bidisk_rule(radial_order=(4, 8), angular_order=(8, 16),
                     diagonal_grading=True, diagonal_levels=8)
    blocks = list(br.iter_blocks())
    z1, w1, z2, w2 = blocks[0]
    assert np.isscalar(z1) or z1.shape == ()
    # inner rule is a valid disk rule: area preserved
    assert w2.sum() == pytest.approx(math.pi, rel=1e-12)
    assert _area(br) == pytest.approx(math.pi**2, rel=1e-10)
    # radius-major: the outer radius changes only every angular_order blocks
    radii = [abs(b[0]) for b in blocks]
    na = br.rule1.angular_order
    assert np.allclose(radii, np.repeat(br.rule1.radii, na), rtol=1e-15)


def test_refine_doubles_orders():
    r = disk_rule(radial_order=8, angular_order=16)
    r2 = refine(r)
    assert r2.metadata["radial_order"] == 16
    assert r2.metadata["angular_order"] == 32


def _lens_rule(eps=0.1):
    return default_rule("bidisk", RegularizedLogWeight(eps, "z1-z2"))


def test_refine_doubles_lens_t_order():
    r = _lens_rule()
    r2 = refine(r)
    assert (r.order, r2.order) == (16, 32) and r2.scale == r.scale
    assert r2.metadata["cells"] == r.metadata["cells"]
    assert len(r2) == 2 * len(r)
    # the t-rule integrates t^3 over [0, 2] exactly
    assert np.dot(r.weights, r.t**3) == pytest.approx(4.0, rel=1e-14)


def test_lens_table_drift_at_doubled_orders(monkeypatch):
    w = RegularizedLogWeight(1e-3, "z1-z2")
    G = _dense(*_gram(w, 16, _lens_rule(1e-3))[1:])
    orders = quadrature._lens_orders
    monkeypatch.setattr(quadrature, "_lens_orders", lambda k: tuple(2 * n for n in orders(k)))
    monkeypatch.setattr(quadrature, "_LENS", {})
    G2 = _dense(*_gram(w, 16, _lens_rule(1e-3))[1:])
    d = np.sqrt(np.diag(G2).real)
    assert (np.abs(G - G2) / np.outer(d, d)).max() < 1e-13


def test_lens_table_reused_across_degrees(monkeypatch):
    monkeypatch.setattr(quadrature, "_LENS", {})
    C = quadrature._lens_block(6, 0)  # degree >= 6: the whole block
    entry = quadrature._LENS[6]
    # degree 4 needs m = 2..4 only: a slice of the same table, not a rebuild
    C4 = quadrature._lens_block(6, 2)
    assert quadrature._LENS[6] is entry
    assert np.shares_memory(C4, C) and np.array_equal(C4, C[:, 2:5, 2:5])
    assert not C4.flags.writeable
    # built at degree 4 first, the block is rebuilt over the wider range
    monkeypatch.setattr(quadrature, "_LENS", {})
    quadrature._lens_block(6, 2)
    assert quadrature._lens_block(6, 0).shape == (C.shape[0], 7, 7)
    assert quadrature._LENS[6][0] == 0


@pytest.mark.parametrize("scale", [0.05, 1e-3])
def test_lens_table_series_off_its_nodes(scale):
    # the t-nodes of a lens rule are no table nodes: there the coefficient
    # series must give the lens moments taken directly
    rule = quadrature.LensRule(scale)
    T = rule.chebyshev(24)
    beta = np.arccos(0.5 * rule.t)
    for k, lo in ((0, 0), (5, 0), (16, 0), (32, 16), (48, 24)):
        C = quadrature._lens_block(k, lo)
        K = quadrature._lens_moments(k, lo, beta)
        err = np.abs(np.tensordot(T[:, :C.shape[0]], C, 1) - K).max()
        assert err <= 1e-13 * np.abs(K).max(), (k, lo, err)


def test_lens_table_not_built_at_import():
    code = ("import bergext, bergext.quadrature as q, bergext.sweeps; "
            "assert not q._LENS")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        disk_rule(radial_order=1)
    with pytest.raises(ParameterError):
        disk_rule(angular_order=2)
    for scale, order in ((0.0, 16), (float("nan"), 16), (float("inf"), 16), (0.1, 1)):
        with pytest.raises(ParameterError):
            quadrature.LensRule(scale, order)


@pytest.mark.parametrize("build, name", [
    (lambda: bidisk_rule((4, 4), (8, 16), 4, True, -1), "diagonal_levels"),
    (lambda: disk_rule(2.5, 8), "radial_order"),
    (lambda: disk_rule(4, 8.5), "angular_order"),
    (lambda: disk_rule(4, 8, -1), "grading_levels"),
    (lambda: bidisk_rule(grading_levels=float("nan")), "grading_levels"),
    (lambda: bidisk_rule(radial_order=(4, 2.5)), "radial_order"),
    (lambda: quadrature.LensRule(0.1, float("nan")), "t_order"),
    (lambda: quadrature.LensRule(0.1, 2.5), "t_order"),
], ids=["negative-diagonal-levels", "fractional-radial-order",
        "fractional-angular-order", "negative-grading-levels", "nan-grading-levels",
        "fractional-inner-radial-order", "nan-t-order", "fractional-t-order"])
def test_rule_sizes_must_be_integers(build, name):
    # a rule size used to be truncated, ignored or refused with a raw error
    with pytest.raises(ParameterError, match="^%s must be an integer >= " % name):
        build()


def test_integer_valued_rule_sizes_kept():
    a = disk_rule(8.0, np.float64(16.0), 4.0)
    b = disk_rule(8, 16, 4)
    assert a.metadata == b.metadata and np.array_equal(a.nodes, b.nodes)
    assert quadrature.LensRule(0.1, 16.0).order == 16
    assert bidisk_rule(diagonal_grading=True, diagonal_levels=4.0).diagonal_levels == 4


@pytest.mark.parametrize("diagonal_grading", [False, True])
def test_inner_size_is_the_inner_rules_width(diagonal_grading):
    rule = bidisk_rule(radial_order=(4, 6), angular_order=(8, 16), grading_levels=5,
                       diagonal_grading=diagonal_grading, diagonal_levels=3)
    assert rule._inner_rules(rule.rule1.radii[:3])[0].shape == (3, rule.inner_size)


def test_nonfinite_integrand_reported():
    r = disk_rule(radial_order=4, angular_order=8)
    with pytest.raises(EvaluationError):
        integrate(r, lambda z: 1.0 / (np.abs(z) - np.abs(r.nodes[0])))


def test_determinism():
    r1 = disk_rule(radial_order=8, angular_order=16)
    r2 = disk_rule(radial_order=8, angular_order=16)
    assert np.array_equal(r1.nodes, r2.nodes)
    assert np.array_equal(r1.weights, r2.weights)
