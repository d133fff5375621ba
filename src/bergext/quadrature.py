"""Graded tensor polar quadrature on the unit disk and bidisk.

Rules are tensor products of composite Gauss-Legendre in the radius and a
uniform trapezoid (periodic) rule in the angle.  The radial mesh is
geometrically refined toward prescribed grading centers so that integrable
singularities (log|z|^2, |z|^{-2a} with a<1, 1/(eps^2+|z|^2)) converge as the
orders grow.  Nodes are strictly interior: Gauss-Legendre nodes never touch
cell endpoints, so a disk rule has no node at the origin or on the circle of
a grading center's radius.

Bidisk rules are tensor products of two disk rules.  With
``diagonal_grading=True`` the second-factor rule is built per outer radius
from the shared Gauss-Legendre cache (only its breakpoints change):
graded toward that radius and rotated by each outer node's phase, which
concentrates nodes near the diagonal {z1 = z2} without putting any on it
(rotating a disk rule is again a valid disk rule).  Plain tensor rules do not
avoid singular curves: when both factors share radii and angles, nodes lie
(to rounding) on curves z1 = c z2 with |c| = 1, the diagonal included.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EvaluationError, ParameterError

_MIN_CELL = 1e-14


def _radial_breakpoints(center_radii, ratio, levels):
    """Mesh of [0,1] geometrically refined toward 0 and each center radius."""
    # always grade toward 0: every in-scope singular weight is centered there
    # unless a nonzero center is given
    d = np.array([ratio**j for j in range(1, levels + 1)])
    pts = [np.array([0.0, 1.0]), d]
    for rc in center_radii:
        if rc <= 0.0:
            continue  # already covered by the mesh toward 0
        lo = rc * (1.0 - d)
        hi = rc + d * (1.0 - rc)
        pts += [np.array([rc]), lo[lo > 0.0], hi[hi < 1.0]]
    bps = np.unique(np.concatenate(pts))
    keep = np.concatenate([[True], np.diff(bps) > _MIN_CELL])
    return bps[keep]


# Gauss rules on [-1, 1] keyed by (family, order), and the angular phases
# e^{2 pi i k/n} keyed by n, stored read-only: the nodes of a fixed order are
# a constant, and a bidisk rule graded toward the diagonal builds one inner
# disk rule per outer radius
_GAUSS = {}
_PHASES = {}


def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights of ``order`` points on [-1, 1]."""
    key = ("legendre", int(order))
    if key not in _GAUSS:
        x, w = leggauss(key[1])
        x.flags.writeable = False
        w.flags.writeable = False
        _GAUSS[key] = x, w
    return _GAUSS[key]


def _angular_phases(order):
    """The uniform angular phases e^{2 pi i k/order}, k = 0..order-1."""
    order = int(order)
    if order not in _PHASES:
        ph = np.exp(1j * (2.0 * np.pi * np.arange(order) / order))
        ph.flags.writeable = False
        _PHASES[order] = ph
    return _PHASES[order]


class DiskRule:
    """Tensor polar quadrature rule on the open unit disk.

    Attributes
    ----------
    grid : complex ndarray, shape (radii, angles), the node layout
    nodes : complex ndarray, shape (N,), the flattened grid
    weights : positive float ndarray, shape (N,)
    radii, radial_weights : the underlying radial composite rule.

    ``nodes`` and ``weights`` are built on first use; the Gram assembly reads
    only the radial rule and the angular phases.
    """

    domain = "disk"

    def __init__(self, radii, radial_weights, angular_order, metadata):
        self.radii = radii
        self.radial_weights = radial_weights
        self.angular_order = int(angular_order)
        self._phases = _angular_phases(self.angular_order)
        self.metadata = dict(metadata)

    @property
    def grid(self):
        return self.radii[:, None] * self._phases[None, :]

    @functools.cached_property
    def nodes(self):
        return self.grid.ravel()

    @functools.cached_property
    def weights(self):
        w = self.radial_weights * self.radii * (2.0 * np.pi / self.angular_order)
        return np.repeat(w, self.angular_order)

    def __len__(self):
        return self.radii.size * self.angular_order

    def rotated(self, phase):
        """Same rule with every node multiplied by a unit phase; the metadata
        keeps the total rotation, so that ``refine`` can re-apply it."""
        rotation = complex(self.metadata.get("rotation", 1.0) * phase)
        out = DiskRule(self.radii, self.radial_weights, self.angular_order,
                       dict(self.metadata, rotation=rotation))
        out._phases = self._phases * phase
        return out

    def integrate(self, f):
        vals = np.asarray(f(self.nodes))
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise EvaluationError(
                "non-finite integrand value at node z=%r" % (self.nodes[k],)
            )
        return complex(np.dot(self.weights, vals))


def disk_rule(
    radial_order=64,
    angular_order=128,
    grading_centers=(),
    grading_ratio=0.5,
    grading_levels=20,
):
    """Graded tensor polar rule on the unit disk.

    ``radial_order`` Gauss-Legendre points per radial cell, ``angular_order``
    uniform angles per annulus.  The radial mesh is refined geometrically
    (ratio ``grading_ratio``, ``grading_levels`` levels) toward the radius of
    each grading center and toward 0.
    """
    if radial_order < 2:
        raise ParameterError("radial_order must be >= 2, got %r" % radial_order)
    if angular_order < 4:
        raise ParameterError("angular_order must be >= 4, got %r" % angular_order)
    if not (0.0 < grading_ratio < 1.0):
        raise ParameterError("grading_ratio must lie in (0,1), got %r" % grading_ratio)
    centers = [complex(c) for c in grading_centers]
    for c in centers:
        if abs(c) > 1.0 + 1e-12:
            raise ParameterError("grading center %r outside the closed disk" % c)
    # a center within rounding of the circle grades toward the circle itself,
    # so that no breakpoint (and no node) lies beyond it
    bps = _radial_breakpoints([min(abs(c), 1.0) for c in centers], grading_ratio,
                              grading_levels)
    x, w = _gauss_legendre(radial_order)
    a, b = bps[:-1, None], bps[1:, None]
    radii = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    rweights = (0.5 * (b - a) * w).ravel()
    meta = {
        "radial_order": int(radial_order),
        "angular_order": int(angular_order),
        "grading_centers": centers,
        "grading_ratio": float(grading_ratio),
        "grading_levels": int(grading_levels),
    }
    return DiskRule(radii, rweights, angular_order, meta)


class BidiskRule:
    """Tensor product of two disk rules on the unit bidisk.

    Node pairs are enumerated lazily through :meth:`iter_blocks`; each block
    is (z1 value, w1, z2 nodes, z2 weights).  With diagonal grading the
    second-factor rule is built once per outer radius, from its own
    breakpoints and the shared cached Gauss-Legendre rule, and rotated by the
    outer node's phase.
    """

    domain = "bidisk"

    def __init__(self, rule1, rule2, diagonal_grading=False, diagonal_levels=12):
        self.rule1 = rule1
        self.rule2 = rule2
        self.diagonal_grading = bool(diagonal_grading)
        self.diagonal_levels = int(diagonal_levels)
        self.metadata = {
            "factor1": rule1.metadata,
            "factor2": rule2.metadata,
            "diagonal_grading": self.diagonal_grading,
        }

    def _inner_for_radius(self, r):
        """Second-factor rule at outer radius r, before the outer phase turns
        it (the plain second factor without diagonal grading)."""
        if not self.diagonal_grading:
            return self.rule2
        m = self.rule2.metadata
        return disk_rule(
            m["radial_order"],
            m["angular_order"],
            grading_centers=(r,),
            grading_ratio=m["grading_ratio"],
            grading_levels=self.diagonal_levels,
        )

    def iter_blocks(self):
        """Yield (z1, w1, z2_nodes, z2_weights) with z1 scalar, outer radius
        by outer radius."""
        outer = self.rule1
        w1 = outer.radial_weights * outer.radii * (2.0 * np.pi / outer.angular_order)
        for r, w in zip(outer.radii, w1):
            inner = self._inner_for_radius(r)
            for phase in outer._phases:
                z2 = inner.nodes * phase if self.diagonal_grading else inner.nodes
                yield r * phase, w, z2, inner.weights

    def integrate(self, f):
        total = 0.0 + 0.0j
        for z1, w1, z2, w2 in self.iter_blocks():
            vals = np.asarray(f(np.full_like(z2, z1), z2))
            bad = ~np.isfinite(vals)
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise EvaluationError(
                    "non-finite integrand value at node (z1,z2)=(%r,%r)"
                    % (z1, z2[k])
                )
            total += w1 * np.dot(w2, vals)
        return complex(total)


def bidisk_rule(
    radial_order=(16, 16),
    angular_order=(32, 64),
    grading_centers=((), ()),
    grading_ratio=0.5,
    grading_levels=10,
    diagonal_grading=False,
    diagonal_levels=12,
):
    """Tensor product rule on the bidisk, optionally graded toward the
    diagonal {z1 = z2} (coordinate rotation of the second factor)."""
    r1 = disk_rule(
        radial_order[0], angular_order[0], grading_centers[0], grading_ratio, grading_levels
    )
    r2 = disk_rule(
        radial_order[1], angular_order[1], grading_centers[1], grading_ratio, grading_levels
    )
    return BidiskRule(r1, r2, diagonal_grading=diagonal_grading, diagonal_levels=diagonal_levels)


def integrate(rule, f):
    """Weighted sum of f over the rule's nodes.

    Disk rules call ``f(z)``, bidisk rules ``f(z1, z2)`` (vectorized).
    Deterministic for a fixed rule; raises EvaluationError naming the node on
    a non-finite value.
    """
    return rule.integrate(f)


def refine(rule, factor=2):
    """Same rule family with radial and angular orders multiplied by ``factor``
    (used for quadrature-convergence flags)."""
    if isinstance(rule, DiskRule):
        m = rule.metadata
        out = disk_rule(
            m["radial_order"] * factor,
            m["angular_order"] * factor,
            m["grading_centers"],
            m["grading_ratio"],
            m["grading_levels"],
        )
        return out.rotated(m["rotation"]) if "rotation" in m else out
    if isinstance(rule, BidiskRule):
        return BidiskRule(
            refine(rule.rule1, factor),
            refine(rule.rule2, factor),
            diagonal_grading=rule.diagonal_grading,
            diagonal_levels=rule.diagonal_levels,
        )
    raise ParameterError("unknown rule type %r" % type(rule).__name__)
