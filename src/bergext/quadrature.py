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

Every radial rule is composite Gauss-Legendre on a mesh of breakpoints
(``_composite``): a disk rule's on the dyadic mesh [0, 2^-L, ..., 1/2, 1],
and the second-factor rules of a diagonally graded bidisk rule for a whole
run of outer radii at once (``_radial_rules``), every one with the same
cells.

Bidisk rules are tensor products of two disk rules.  With
``diagonal_grading=True`` the second-factor rule depends on the outer
radius (only its breakpoints change; the Gauss-Legendre nodes are shared):
graded toward that radius and rotated by each outer node's phase, which
concentrates nodes near the diagonal {z1 = z2} without putting any on it
(rotating a disk rule is again a valid disk rule).  Plain tensor rules do not
avoid singular curves: when both factors share radii and angles, nodes lie
(to rounding) on curves z1 = c z2 with |c| = 1, the diagonal included.

A lens rule (``LensRule``, domain "bidisk") is no tensor rule: it serves
only the Gram of a weight with e^{-phi} = f(|z1 - z2|^2), as one integral in
t = |z1 - z2| over a composite Gauss-Legendre t-rule.  Its other factor is
the moment table of the lens D n (D - t), which does not depend on the
weight: Chebyshev coefficients per total degree in x = 4 beta/pi - 1
(t = 2 cos beta), built on first use, cached read-only (``_lens_block``) and
read through one Chebyshev matrix at the t-nodes (``LensRule.chebyshev``).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

from .errors import EvaluationError, ParameterError

_MIN_CELL = 1e-14
# integrands and e^{-phi} are evaluated on blocks of at most this many nodes:
# the grid block and the temporaries of an evaluation then stay cache-sized
# (256 KB of complex values), where whole-grid arrays are bound by memory
# traffic
_BLOCK = 1 << 14


def _checked_int(name, value, least):
    """``value`` as an int, after checking that it is an integer >= ``least``
    (16.0 passes as 16; 2.5, nan and non-numbers are refused), or a
    ParameterError naming the parameter."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()
            and value >= least):
        raise ParameterError("%s must be an integer >= %d, got %r" % (name, least, value))
    return int(value)


def _composite(breakpoints, order):
    """Composite Gauss-Legendre rule with ``order`` points per cell on the
    ascending ``breakpoints`` (shape (..., n), one mesh per row): (nodes,
    weights), each of shape (..., (n - 1) * order)."""
    x, w = _gauss_legendre(order)
    a, b = breakpoints[..., :-1, None], breakpoints[..., 1:, None]
    shape = breakpoints.shape[:-1] + (-1,)
    return ((0.5 * (a + b) + 0.5 * (b - a) * x).reshape(shape),
            (0.5 * (b - a) * w).reshape(shape))


def _radial_rules(centers, order, levels):
    """Composite Gauss-Legendre radial rules on [0,1], one per radius of
    ``centers`` (shape (k,), in (0, 1)): (radii, weights), each of shape
    (k, (3 * levels + 2) * order).

    Row i's mesh is refined geometrically, ratio 1/2 and ``levels`` levels,
    toward 0 and toward centers[i], with ``order`` points per cell: a
    diagonally graded inner rule at the outer radius centers[i].  A center
    outside (0, 1), or one whose breakpoints meet those of the mesh toward 0
    (a cell of width below ``_MIN_CELL``), is refused, so that every row has
    the same cells and no node lies at its center.
    """
    d = 0.5 ** np.arange(1, levels + 1)
    c = centers[:, None]
    pts = np.empty((c.shape[0], 3 * levels + 3))
    pts[:, 0], pts[:, 1], pts[:, 2:levels + 2] = 0.0, 1.0, d
    pts[:, levels + 2:] = np.concatenate([c, c * (1.0 - d), c + d * (1.0 - c)], axis=1)
    pts.sort(axis=1)
    bad = ~((centers > 0.0) & (centers < 1.0)) | (np.diff(pts, axis=1) <= _MIN_CELL).any(axis=1)
    if bad.any():
        raise ParameterError("outer radius %r is not in (0, 1) or falls on a breakpoint "
                             "of the mesh toward 0" % float(centers[bad][0]))
    return _composite(pts, order)


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
        """The weighted sum of f over the nodes, taken radius by radius on
        blocks of whole radii of about ``_BLOCK / 2`` nodes: f is called on
        each block's nodes as one flat array, and their values are summed
        over the angles, then against the radial weights.  EvaluationError
        naming the first node, in radius-major order, where f is not finite.

        No temporary spans the whole grid.  An integrand makes about ten
        temporaries per block: at ``_BLOCK`` nodes they were handed back to
        the system and faulted in anew on every call (about 500 minor page
        faults per default branch norm), at half that they stay resident.
        """
        ph = self._phases
        pw = self.radial_weights * self.radii * (2.0 * np.pi / self.angular_order)
        step = max(1, _BLOCK // (2 * ph.size))
        total = 0.0
        for lo in range(0, self.radii.size, step):
            z = (self.radii[lo:lo + step, None] * ph).ravel()
            vals = np.asarray(f(z))
            bad = ~np.isfinite(vals)
            if bad.any():
                raise EvaluationError("non-finite integrand value at node z=%r"
                                      % (z[bad][0],))
            total += pw[lo:lo + step] @ vals.reshape(-1, ph.size).sum(axis=1)
        return complex(total)


def disk_rule(radial_order=64, angular_order=128, grading_levels=20):
    """Graded tensor polar rule on the unit disk.

    ``radial_order`` Gauss-Legendre points per radial cell, ``angular_order``
    uniform angles per annulus.  The radial mesh is refined geometrically
    (ratio 1/2, ``grading_levels`` levels) toward 0.
    """
    radial_order = _checked_int("radial_order", radial_order, 2)
    angular_order = _checked_int("angular_order", angular_order, 4)
    grading_levels = _checked_int("grading_levels", grading_levels, 0)
    mesh = np.concatenate([[0.0], 0.5 ** np.arange(grading_levels, 0, -1), [1.0]])
    radii, rweights = _composite(mesh, radial_order)
    meta = {
        "radial_order": radial_order,
        "angular_order": angular_order,
        "grading_levels": grading_levels,
    }
    return DiskRule(radii, rweights, angular_order, meta)


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
        self.diagonal_levels = _checked_int("diagonal_levels", diagonal_levels, 0)
        self.metadata = {
            "factor1": rule1.metadata,
            "factor2": rule2.metadata,
            "diagonal_grading": self.diagonal_grading,
        }

    @property
    def inner_size(self):
        """The number of radii of each second-factor radial rule of
        ``_inner_rules``: the plain second factor's, or under diagonal grading
        ``_radial_rules``' (3 * levels + 2) * order."""
        if not self.diagonal_grading:
            return self.rule2.radii.size
        return (3 * self.diagonal_levels + 2) * self.rule2.metadata["radial_order"]

    def _inner_rules(self, radii):
        """The second-factor radial rules at a run of outer radii, as
        (radii, weights), row j the rule at radii[j].  Under diagonal grading
        that is the radial rule of ``_radial_rules`` with the second factor's
        radial order and ``diagonal_levels`` levels, graded toward 0 and
        toward radii[j]; otherwise the plain second factor's rule, broadcast
        to every radius."""
        if not self.diagonal_grading:
            shape = (len(radii), self.rule2.radii.size)
            return (np.broadcast_to(self.rule2.radii, shape),
                    np.broadcast_to(self.rule2.radial_weights, shape))
        return _radial_rules(radii, self.rule2.metadata["radial_order"], self.diagonal_levels)

    def iter_blocks(self):
        """Yield (z1, w1, z2_nodes, z2_weights) with z1 scalar, outer radius
        by outer radius: the inner radial rule of ``_inner_rules`` on the
        second factor's phases, turned by the outer phase under diagonal
        grading."""
        outer, ph2 = self.rule1, self.rule2._phases
        w1 = outer.radial_weights * outer.radii * (2.0 * np.pi / outer.angular_order)
        for r, w in zip(outer.radii, w1):
            (r2,), (pw2,) = self._inner_rules(np.array([r]))
            z2 = (r2[:, None] * ph2).ravel()
            w2 = np.repeat(pw2 * r2 * (2.0 * np.pi / ph2.size), ph2.size)
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


# cells of a lens rule's t-rule graded toward t = 2
_LENS_LEVELS = 16
# a table build holds about this many complex powers per batch of beta nodes
_LENS_BATCH = 1 << 14
# block k -> (lo, C), C[p] the coefficient of T_p over m, m' = lo..k-lo
_LENS = {}


def _lens_orders(k):
    """(theta order, beta order) of block k of the lens moment table: Gauss
    points in theta and Chebyshev points in beta, where the lens L(t) =
    D n (D - t), t = 2 cos beta, is the set of x + i sin(theta) with
    |theta| < beta and -cos(theta) < x < cos(theta) - t.  (x takes k+1 Gauss
    points, which is exact.)  At degree 16 the Gram drifts by less than
    1e-13 when both are doubled."""
    return 16 + k // 2, 24 + 2 * k


def _lens_moments(k, lo, beta):
    """K[i, m - lo, m' - lo] = int_{L(t_i)} conj(a^m v^n) a^m' v^n' dA(v),
    a = v + t_i, n = k - m, n' = k - m', for m, m' in lo..k-lo and
    t_i = 2 cos beta_i.  K is real: L(t) is symmetric about the real axis,
    and the integrand at conj(v) is the conjugate of the one at v, so theta
    runs over [0, beta] only, and K = F F^T with F the real and imaginary
    parts of a^m v^n sqrt(w) at the nodes (node weights w)."""
    hi = k - lo
    xg, wg = _gauss_legendre(k + 1)
    tg, tw = _gauss_legendre(_lens_orders(k)[0])
    per = tg.size * xg.size
    K = np.empty((beta.size, hi - lo + 1, hi - lo + 1))
    step = max(1, _LENS_BATCH // (per * (hi + 1)))
    for b0 in range(0, beta.size, step):
        b = beta[b0:b0 + step, None]
        theta = 0.5 * b * (tg + 1.0)
        # the half-length cos(theta) - cos(beta) of the x-interval, centred
        # at -t/2, without cancellation near theta = beta
        half = 2.0 * np.sin(0.5 * (b + theta)) * np.sin(0.25 * b * (1.0 - tg))
        t = 2.0 * np.cos(b)[..., None]
        v = half[..., None] * xg - 0.5 * t + 1j * np.sin(theta)[..., None]
        X = np.stack([v + t, v]).reshape(2, b.size, per)  # (a, v) at the nodes
        # P[p] = (a^p, v^p sqrt(w)), w the node weights: dx dy over both
        # halves, dy = cos(theta) dtheta
        w = (b * tw * np.cos(theta) * half)[..., None] * wg
        P = np.empty((hi + 1,) + X.shape, dtype=complex)
        P[0, 0] = 1.0
        P[0, 1] = np.sqrt(w).reshape(b.size, per)
        for p in range(1, hi + 1):
            np.multiply(P[p - 1], X, out=P[p])
        # F[beta, m] = a^m v^(k-m) sqrt(w), real and imaginary parts
        F = (P[lo:, 0] * P[lo:, 1][::-1]).transpose(1, 0, 2).copy().view(float)
        K[b0:b0 + step] = np.matmul(F, F.transpose(0, 2, 1))
    return K


def _lens_block(k, lo):
    """C of block k of the lens moment table over m, m' = lo..k-lo, the
    coefficients of its Chebyshev series in x = 4 beta/pi - 1 on [0, pi/2]:
    K_k(beta) = sum_p T_p(x) C[p].  They interpolate ``_lens_moments`` at the
    Chebyshev points x_j = -cos(pi j/(n-1)), n from ``_lens_orders``.

    The table does not depend on the weight.  It is built on first use and
    kept read-only, over the widest m range asked for so far: a block that
    a higher degree built serves every lower degree as a slice, bit for bit;
    a wider range rebuilds it."""
    have = _LENS.get(k)
    if have is None or have[0] > lo:
        n = _lens_orders(k)[1]
        x = -np.cos(np.pi * np.arange(n) / (n - 1))
        K = _lens_moments(k, lo, 0.25 * np.pi * (x + 1.0))
        C = np.linalg.solve(chebvander(x, n - 1), K.reshape(n, -1)).reshape(K.shape)
        C.flags.writeable = False
        _LENS[k] = have = lo, C
    lo0, C = have
    cut = slice(lo - lo0, C.shape[1] - (lo - lo0))
    return C[:, cut, cut]


class LensRule:
    """Quadrature in t = |z1 - z2| on [0, 2] for the invariant bidisk Gram of
    a weight with e^{-phi} = f(|z1 - z2|^2).

    With z2 = e^{i alpha} v and z1 = e^{i alpha}(v + t), the bidisk is
    {alpha, t in [0, 2], v in the lens L(t) = D n (D - t)} (Jacobian t), so
    for m + n = m' + n' = k

        G[(m,n),(m',n')] = 2 pi int_0^2 f(t^2) t K_k(t) dt,

    K_k the moment block of ``_lens_block``, and every other entry is 0.  The
    t-rule is composite Gauss-Legendre, ``order`` points per cell, with
    breakpoints at scale * 2^j (the weight's scale: the convolution style
    has a kink at t = eps) and at 2 - 2^-j, j <= ``_LENS_LEVELS``, toward
    the end where the lens closes (K ~ (2 - t)^(3/2)).
    """

    domain = "bidisk"

    def __init__(self, scale, order=16):
        if not 0 < scale < np.inf:
            raise ParameterError("lens rule scale must be finite and > 0, got %r" % scale)
        self.scale, self.order = float(scale), _checked_int("t_order", order, 2)
        grade = np.ldexp(self.scale, np.arange(max(0, math.ceil(1.0 - math.log2(self.scale)))))
        pts = np.unique(np.concatenate(
            [[0.0, 2.0], grade, 2.0 - 0.5 ** np.arange(_LENS_LEVELS + 1)]))
        pts = pts[pts <= 2.0]
        pts = pts[np.concatenate([[True], np.diff(pts) > _MIN_CELL * pts[1:]])]
        self.t, self.weights = _composite(pts, self.order)
        self.metadata = {"scale": self.scale, "t_order": self.order,
                         "cells": pts.size - 1}

    def __len__(self):
        return self.t.size

    def chebyshev(self, degree):
        """T[j, p] = T_p(x_j) for the lens table of a Gram up to ``degree``:
        x_j = 4 beta(t_j)/pi - 1 at the t-nodes, beta(t) = arccos(t/2), and
        p below the beta order of the widest block, 2 * degree.  So
        K_k(t_j) = sum_p T[j, p] C[p] for C = ``_lens_block(k, lo)``."""
        x = 4.0 / np.pi * np.arccos(0.5 * self.t) - 1.0
        return chebvander(x, _lens_orders(2 * degree)[1] - 1)

    def integrate(self, f):
        raise ParameterError("a lens rule has no nodes in (z1, z2); it serves "
                             "only the Gram of a weight in |z1 - z2|")


def integrate(rule, f):
    """Weighted sum of f over the rule's nodes.

    Disk rules call ``f(z)``, bidisk rules ``f(z1, z2)`` (vectorized).
    Deterministic for a fixed rule; raises EvaluationError naming the node on
    a non-finite value.
    """
    return rule.integrate(f)


def refine(rule):
    """Same rule family with radial and angular orders doubled, or a lens
    rule's t-order (used for quadrature-convergence flags)."""
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
    if isinstance(rule, LensRule):
        return LensRule(rule.scale, 2 * rule.order)
    raise ParameterError("unknown rule type %r" % type(rule).__name__)
