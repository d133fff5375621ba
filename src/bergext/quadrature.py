"""Graded tensor polar quadrature on the unit disk and bidisk.

Rules are tensor products of composite Gauss-Legendre in the radius and a
uniform trapezoid (periodic) rule in the angle.  The radial mesh is
geometrically refined toward 0, with ratio 1/2, so that integrable
singularities at the origin (log|z|^2, |z|^{-2a} with a<1, 1/(eps^2+|z|^2))
converge as the orders grow.  The breakpoints are the powers 2^-j, so rules
with different numbers of levels share their outer cells bit for bit
(``functionals._branch_rules`` relies on it for its shared cells).  Nodes
are strictly interior: Gauss-Legendre nodes never touch cell endpoints, so a
disk rule has no node at the origin, and a diagonally graded inner rule none
at its outer radius.

Every radial rule comes from one vectorized builder, ``_radial_rules``: a
disk rule's, and the second-factor rules of a diagonally graded bidisk rule
for a whole run of outer radii at once.

Bidisk rules are tensor products of two disk rules.  With
``diagonal_grading=True`` the second-factor rule depends on the outer
radius (only its breakpoints change; the Gauss-Legendre nodes are shared):
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


def _radial_rules(centers, order, levels):
    """Composite Gauss-Legendre radial rules on [0,1], one per radius of
    ``centers`` (shape (k,), in [0, 1]), as groups (index, radii, weights).

    Row i's mesh is refined geometrically, ratio 1/2 and ``levels`` levels,
    toward 0 and toward centers[i], with ``order`` points per cell: center 0
    is a disk rule's, the outer radius a diagonally graded inner rule's.  The
    rows ``index`` of a group share a number of cells, and row j of its radii
    and weights, shape (len(index), cells * order), is the rule of
    centers[index[j]]: a center whose breakpoints merge with the mesh toward
    0 gets fewer cells, in a group of its own.
    """
    d = 0.5 ** np.arange(1, levels + 1)
    c = centers[:, None]
    # c(1 - d) and c + d(1 - c) lie in [0, 1], and reach 0 or 1 only where
    # the mesh has that point already; center 0 adds only points of the mesh
    # toward 0
    pts = np.empty((c.shape[0], 3 * levels + 3))
    pts[:, 0], pts[:, 1], pts[:, 2:levels + 2] = 0.0, 1.0, d
    pts[:, levels + 2:] = np.concatenate([c, c * (1.0 - d), c + d * (1.0 - c)], axis=1)
    # sorted, each run of equal values and each point within _MIN_CELL of
    # its predecessor dropped: np.unique and the cell filter, row by row
    pts.sort(axis=1)
    keep = np.ones(pts.shape, dtype=bool)
    np.greater(np.diff(pts, axis=1), _MIN_CELL, out=keep[:, 1:])
    counts = keep.sum(axis=1)
    x, w = _gauss_legendre(order)
    groups = []
    for n in sorted(set(counts.tolist())):
        index = np.flatnonzero(counts == n)
        bps = pts[index][keep[index]].reshape(index.size, n)
        a, b = bps[:, :-1, None], bps[:, 1:, None]
        groups.append((index, (0.5 * (a + b) + 0.5 * (b - a) * x).reshape(index.size, -1),
                       (0.5 * (b - a) * w).reshape(index.size, -1)))
    return groups


# Gauss rules on [-1, 1] keyed by (family, order), and the angular phases
# e^{2 pi i k/n} keyed by n, stored read-only: the nodes of a fixed order are
# a constant, shared by every rule that uses them
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


def disk_rule(radial_order=64, angular_order=128, grading_levels=20):
    """Graded tensor polar rule on the unit disk.

    ``radial_order`` Gauss-Legendre points per radial cell, ``angular_order``
    uniform angles per annulus.  The radial mesh is refined geometrically
    (ratio 1/2, ``grading_levels`` levels) toward 0.
    """
    if radial_order < 2:
        raise ParameterError("radial_order must be >= 2, got %r" % radial_order)
    if angular_order < 4:
        raise ParameterError("angular_order must be >= 4, got %r" % angular_order)
    (_, radii, rweights), = _radial_rules(np.zeros(1), radial_order, grading_levels)
    meta = {
        "radial_order": int(radial_order),
        "angular_order": int(angular_order),
        "grading_levels": int(grading_levels),
    }
    return DiskRule(radii[0], rweights[0], angular_order, meta)


class BidiskRule:
    """Tensor product of two disk rules on the unit bidisk.

    Node pairs are enumerated lazily through :meth:`iter_blocks`; each block
    is (z1 value, w1, z2 nodes, z2 weights).  With diagonal grading the
    second-factor rule depends on the outer radius and is rotated by the
    outer node's phase; :meth:`_inner_rules` builds its radial rules for a
    run of outer radii in one pass, and is the only place they are built.
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

    def _inner_rules(self, radii):
        """The second-factor radial rules at a run of outer radii, as the
        groups (index, radii, weights) of ``_radial_rules``.  Under diagonal
        grading row j of a group is the radial rule with the second factor's
        radial order and ``diagonal_levels`` levels, graded toward 0 and
        toward radii[index[j]]; otherwise one group holds the plain second
        factor's rule, broadcast to every radius."""
        if not self.diagonal_grading:
            shape = (len(radii), self.rule2.radii.size)
            return [(np.arange(len(radii)), np.broadcast_to(self.rule2.radii, shape),
                     np.broadcast_to(self.rule2.radial_weights, shape))]
        return _radial_rules(np.minimum(np.abs(radii), 1.0),
                             self.rule2.metadata["radial_order"], self.diagonal_levels)

    def iter_blocks(self):
        """Yield (z1, w1, z2_nodes, z2_weights) with z1 scalar, outer radius
        by outer radius: the inner radial rule of ``_inner_rules`` on the
        second factor's phases, turned by the outer phase under diagonal
        grading."""
        outer, ph2 = self.rule1, self.rule2._phases
        w1 = outer.radial_weights * outer.radii * (2.0 * np.pi / outer.angular_order)
        for r, w in zip(outer.radii, w1):
            (_, r2, pw2), = self._inner_rules(np.array([r]))
            z2 = (r2[0][:, None] * ph2).ravel()
            w2 = np.repeat(pw2[0] * r2[0] * (2.0 * np.pi / ph2.size), ph2.size)
            for phase in outer._phases:
                yield r * phase, w, z2 * phase if self.diagonal_grading else z2, w2

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
    grading_levels=10,
    diagonal_grading=False,
    diagonal_levels=12,
):
    """Tensor product rule on the bidisk, optionally graded toward the
    diagonal {z1 = z2} (coordinate rotation of the second factor)."""
    r1 = disk_rule(radial_order[0], angular_order[0], grading_levels)
    r2 = disk_rule(radial_order[1], angular_order[1], grading_levels)
    return BidiskRule(r1, r2, diagonal_grading=diagonal_grading, diagonal_levels=diagonal_levels)


def integrate(rule, f):
    """Weighted sum of f over the rule's nodes.

    Disk rules call ``f(z)``, bidisk rules ``f(z1, z2)`` (vectorized).
    Deterministic for a fixed rule; raises EvaluationError naming the node on
    a non-finite value.
    """
    return rule.integrate(f)


def refine(rule):
    """Same rule family with radial and angular orders doubled (used for
    quadrature-convergence flags)."""
    if isinstance(rule, DiskRule):
        m = rule.metadata
        out = disk_rule(2 * m["radial_order"], 2 * m["angular_order"], m["grading_levels"])
        return out.rotated(m["rotation"]) if "rotation" in m else out
    if isinstance(rule, BidiskRule):
        return BidiskRule(
            refine(rule.rule1),
            refine(rule.rule2),
            diagonal_grading=rule.diagonal_grading,
            diagonal_levels=rule.diagonal_levels,
        )
    raise ParameterError("unknown rule type %r" % type(rule).__name__)
