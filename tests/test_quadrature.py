import math

import numpy as np
import pytest

from bergext import ParameterError, bidisk_rule, disk_rule, integrate, refine
from bergext.errors import EvaluationError


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


def test_offcenter_grading():
    # peaked integrand at z = 0.5: int 1/(d^2+|z-c|^2) over the disk
    c, d = 0.5, 0.05
    r = disk_rule(radial_order=24, angular_order=256, grading_centers=(c,),
                  grading_levels=16)
    val = integrate(r, lambda z: 1.0 / (d**2 + np.abs(z - c) ** 2)).real
    r2 = disk_rule(radial_order=32, angular_order=512, grading_centers=(c,),
                   grading_levels=20)
    val2 = integrate(r2, lambda z: 1.0 / (d**2 + np.abs(z - c) ** 2)).real
    assert val == pytest.approx(val2, rel=1e-8)


def test_rotation_preserves_rule():
    r = disk_rule(radial_order=8, angular_order=16)
    rot = r.rotated(np.exp(0.3j))
    f = lambda z: np.abs(z) ** 2 + np.real(z) ** 2
    # rotating builds no node weights; once built, they are unchanged
    assert "weights" not in vars(r) and "weights" not in vars(rot)
    assert np.array_equal(rot.weights, r.weights)
    assert integrate(rot, lambda z: np.abs(z) ** 4).real == pytest.approx(
        integrate(r, lambda z: np.abs(z) ** 4).real, rel=1e-13)


def test_nodes_strictly_interior():
    r = disk_rule(radial_order=8, angular_order=16, grading_centers=(0.5,))
    a = np.abs(r.nodes)
    assert a.min() > 0 and a.max() < 1


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


def test_parameter_validation():
    with pytest.raises(ParameterError):
        disk_rule(radial_order=1)
    with pytest.raises(ParameterError):
        disk_rule(angular_order=2)
    with pytest.raises(ParameterError):
        disk_rule(grading_ratio=1.5)
    with pytest.raises(ParameterError):
        disk_rule(grading_centers=(2.0,))


def test_nonfinite_integrand_reported():
    r = disk_rule(radial_order=4, angular_order=8)
    with pytest.raises(EvaluationError):
        integrate(r, lambda z: 1.0 / (np.abs(z) - np.abs(r.nodes[0])))


def test_determinism():
    r1 = disk_rule(radial_order=8, angular_order=16)
    r2 = disk_rule(radial_order=8, angular_order=16)
    assert np.array_equal(r1.nodes, r2.nodes)
    assert np.array_equal(r1.weights, r2.weights)
