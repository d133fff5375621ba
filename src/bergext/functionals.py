"""Norm functionals on the cross geometry.

Three families of functionals evaluated on the model:

* ``log_weighted_bulk_norm`` -- the bulk integral with the
  1/(|z1 z2|^2 log^2|z1|^2 log^2|z2|^2) density,
* ``gamma_branch_norm``      -- the branch integrals with exponent 2/(1+gamma),
* ``derivative_norm_on_Y``   -- the twisted-derivative integral with the
  log^2(max |z_j|^2) factor.

The bulk norm is a Gram form q^H G q (``bergman._gram``), its density radial
in each variable.  The branch integral is a Gram form at gamma = 0 only, where
it is |f|^2 e^{-phi} against a radial density; its gamma > 0 powers are not
squared polynomials and stay node sums.  The twisted-derivative integral is
quadratic in the data: per branch a Gram form c^H M c over the twisted
derivatives of the monomials (``bergman._twisted_gram``), its log^2 factor a
radial density.
The divergence check of the branch norm compares two grading levels that
share their outer cells, and evaluates those shared cells once.

Divergent integrals are reported as a tagged +inf (:class:`DivergentNorm`)
carrying the observed growth rate under mesh refinement, never as a raw
overflow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bergman import _BLOCK, _block_product, _gram, _twisted_gram
from .errors import DegeneracyError, EvaluationError, ParameterError
from .quadrature import DiskRule, bidisk_rule, disk_rule
from .weights import RegularizedLogWeight

_KINDS = ("log_weighted_bulk", "gamma_branch", "derivative_on_Y", "final_example")


class DivergentNorm(float):
    """+inf tagged with the observed per-refinement-level growth rate."""

    def __new__(cls, growth_rate):
        out = float.__new__(cls, float("inf"))
        out.growth_rate = float(growth_rate)
        return out

    def __repr__(self):
        return "DivergentNorm(growth_rate=%g)" % self.growth_rate


@dataclass(frozen=True)
class NormSpec:
    """Which functional, with which parameters.

    ``section_normalization`` (delta) replaces |z_j|^2 by e^{-delta}|z_j|^2
    inside the squared logs of the bulk density; delta > 0 keeps the density
    integrable up to the boundary, and other values are refused.
    ``conic_k`` optionally multiplies branch integrands by the conic density
    |z|^{-2(1-1/k)}.
    """

    kind: str
    gamma: float = 0.0
    epsilon: float | None = None
    region: str = "full"
    r_sing: float = 0.1
    section_normalization: float = 1.0
    conic_k: int | None = None
    variant: str = "theorem"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError("unknown functional kind %r" % self.kind)
        if not (0.0 <= self.gamma <= 1.0):
            raise ParameterError("gamma must lie in [0,1], got %r" % self.gamma)
        if self.region not in ("full", "exclude_sing"):
            raise ParameterError("region must be 'full' or 'exclude_sing'")
        if not (0.0 < self.r_sing < 1.0):
            raise ParameterError("r_sing must lie in (0,1), got %r" % self.r_sing)
        # at delta <= 0 the bulk density is not integrable on |z_j| = e^{delta/2}
        if not (0.0 < self.section_normalization < np.inf):
            raise ParameterError("section_normalization must be finite and > 0, "
                                 "got %r" % self.section_normalization)
        if self.variant not in ("theorem", "conjecture"):
            raise ParameterError("variant must be 'theorem' or 'conjecture'")
        if self.conic_k is not None and self.conic_k not in (2, 3):
            raise ParameterError("conic_k must be 2 or 3 when given")


def _check_domain(weight, domain, kind):
    if weight.domain != domain:
        raise ParameterError("%s needs a %s weight, got a %s weight"
                             % (kind, domain, weight.domain))


def log_weighted_bulk_norm(U, weight, spec=None, rule=None):
    """int |U|^2 / (|z1 z2|^2 log^2(e^{-d}|z1|^2) log^2(e^{-d}|z2|^2)) e^{-phi}.

    ``U`` is a 2-D coefficient array (U[m,n] multiplies z1^m z2^n).  When U
    vanishes on the cross the |z1 z2|^2 is divided out exactly; otherwise the
    singular integrand is only integrable away from the cross, so the region
    must exclude it (``region='exclude_sing'``).
    """
    if spec is None:
        spec = NormSpec("log_weighted_bulk")
    _check_domain(weight, "bidisk", "log_weighted_bulk")
    try:
        U = np.asarray(U, dtype=complex)
    except ValueError:  # ragged rows
        raise ParameterError("bulk norm coefficients must be a 2-D array of "
                             "numbers, rows of one length") from None
    if U.ndim != 2 or not U.size:
        raise ParameterError("bulk norm coefficients must be a nonempty 2-D "
                             "array, got shape %s" % (U.shape,))
    if not np.all(np.isfinite(U)):
        raise ParameterError("bulk norm coefficients must be finite")
    if not np.abs(U).max():
        return 0.0
    if rule is None:
        rule = bidisk_rule(radial_order=(24, 24), angular_order=(48, 48),
                           grading_levels=14)
    delta = float(spec.section_normalization)
    divisible = not (np.abs(U[0, :]).max() or np.abs(U[:, 0]).max())
    if not divisible and spec.region != "exclude_sing":
        raise EvaluationError(
            "U does not vanish on the cross: the bulk density is "
            "non-integrable on the full domain; use region='exclude_sing'")
    r0 = spec.r_sing if spec.region == "exclude_sing" else 0.0
    # divisible: |U|^2/|z1 z2|^2 = |Q|^2
    Q, power = (U[1:, 1:], 0) if divisible else (U, 2)

    def density(r):
        return np.where(r > r0, r ** -power / (np.log(r**2) - delta) ** 2, 0.0)

    n = max(Q.shape)
    q = np.pad(Q, [(0, n - Q.shape[0]), (0, n - Q.shape[1])]).ravel()
    blocks, G = _gram(weight, n - 1, rule, density)[1:]
    return float(np.real(np.vdot(q, _block_product(blocks, G, q))))


def _branch_integral(u, weight, power, w_exponent, conic_k, rule):
    """int |f(z)/z|^{power} e^{-w_exponent*phi} [|z|^{-2(1-1/k)}] dlam.

    At gamma = 0 (power 2 under the full weight) the integrand is |f|^2
    e^{-phi} times the radial density |z|^{-2} [|z|^{-2(1-1/k)}], and the
    integral is the Gram form c^H G c; other powers are node sums over the
    disk rule's radii x phases, taken on blocks of about ``_BLOCK / 2``
    nodes, so that no temporary spans the whole grid.  The integrand makes
    about ten temporaries per block: at ``_BLOCK`` nodes they were handed
    back to the system and faulted in anew on every call (about 500 minor
    page faults per default branch norm), at half that they stay resident.
    """
    c = np.asarray(u, dtype=complex)
    if power == 2.0 and w_exponent == 1.0:
        def density(r):
            rho = r ** -2.0
            return rho * r ** (-2.0 * (1.0 - 1.0 / conic_k)) if conic_k else rho

        try:
            blocks, G = _gram(weight, c.size - 1, rule, density)[1:]
        except DegeneracyError as exc:  # a non-finite e^{-phi} at a node
            raise EvaluationError(str(exc)) from exc
        return float(np.real(np.vdot(c, _block_product(blocks, G, c))))

    def f(z):
        fv = np.polynomial.polynomial.polyval(z, c)
        a = np.abs(z)
        vals = (np.abs(fv) / a) ** power
        phi = np.asarray(weight.evaluate(z), dtype=float)
        vals = vals * np.exp(-w_exponent * phi)
        if conic_k:
            vals = vals * a ** (-2.0 * (1.0 - 1.0 / conic_k))
        return vals

    ph = rule._phases
    pw = rule.radial_weights * rule.radii * (2.0 * np.pi / rule.angular_order)
    step = max(1, _BLOCK // (2 * ph.size))
    total = 0.0
    for lo in range(0, rule.radii.size, step):
        z = rule.radii[lo:lo + step, None] * ph
        vals = f(z)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise EvaluationError("non-finite integrand value at node z=%r"
                                  % (z[bad][0],))
        total += pw[lo:lo + step] @ vals.sum(axis=1)
    return float(total)


# The default branch rules grade toward the origin with 18 and 24 levels.  The
# breakpoints are powers of 2, so the two rules share their 18 cells above
# 2^-18 bit for bit, and the divergence check integrates those once.
_BRANCH_LEVELS = (18, 24)


@functools.cache
def _branch_rules():
    """(shared, inner_coarse, inner_fine): the cells above 2^-18, the
    innermost cell of the level-18 rule, and the 7 innermost cells of the
    level-24 rule."""
    coarse, fine = (disk_rule(radial_order=32, angular_order=64, grading_levels=n)
                    for n in _BRANCH_LEVELS)
    k = coarse.metadata["radial_order"]  # radii per cell
    k_fine = k * (1 + _BRANCH_LEVELS[1] - _BRANCH_LEVELS[0])

    def cells(rule, sl):
        return DiskRule(rule.radii[sl], rule.radial_weights[sl],
                        rule.angular_order, rule.metadata)

    return cells(coarse, slice(k, None)), cells(coarse, slice(k)), \
        cells(fine, slice(k_fine))


def gamma_branch_norm(u, weight, gamma=0.0, variant="theorem", rule=None,
                      conic_k=None):
    """(int_branch |f(z)/z|^{2/(1+gamma)} w dlam)^{1+gamma} with
    w = e^{-phi/(1+gamma)} (theorem) or e^{-phi} (conjecture).

    Divergence (e.g. f(0) != 0 at gamma=0 with a singular-enough weight) is
    detected by grading refinement and reported as :class:`DivergentNorm`.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError("gamma must lie in [0,1], got %r" % gamma)
    if variant not in ("theorem", "conjecture"):
        raise ParameterError("variant must be 'theorem' or 'conjecture'")
    _check_domain(weight, "disk", "gamma_branch")
    c = np.asarray(u, dtype=complex)
    if c.ndim != 1:
        raise ParameterError("branch norm coefficients must be a 1-D array, "
                             "got shape %s" % (c.shape,))
    if not np.all(np.isfinite(c)):
        raise ParameterError("branch norm coefficients must be finite")
    if c.size == 0 or not np.abs(c).max():
        return 0.0
    power = 2.0 / (1.0 + gamma)
    w_exp = 1.0 / (1.0 + gamma) if variant == "theorem" else 1.0
    if rule is not None:
        return float(_branch_integral(u, weight, power, w_exp, conic_k, rule)
                     ** (1.0 + gamma))
    shared, inner1, inner2 = (_branch_integral(u, weight, power, w_exp, conic_k, r)
                              for r in _branch_rules())
    i1 = shared + inner1
    i2 = shared + inner2
    if i2 > i1 and (i2 - i1) > 0.05 * abs(i2):
        # growth per geometric refinement level toward the branch origin
        return DivergentNorm((i2 - i1) / (_BRANCH_LEVELS[1] - _BRANCH_LEVELS[0]))
    return float(i2 ** (1.0 + gamma))


def derivative_norm_on_Y(data, weight, rule=None, include_log=True):
    """sum_i int_{V_i} log^2(max|z_j|^2) |d^phi f_i|^2 e^{-phi} dlam.

    ``data`` is :class:`~bergext.extension.CrossData`; on branch V_i the max
    over the two coordinate sections reduces to |z|^2 of the branch variable.
    With ``include_log=False`` the bare twisted-derivative integral is
    returned.  Per branch it is the Gram form c^H M c of the twisted
    derivatives of the monomials (``bergman._twisted_gram``) on a disk rule,
    the log^2 a radial density.
    """
    if rule is None:
        rule = disk_rule(radial_order=32, angular_order=64, grading_levels=16)
    if not isinstance(rule, DiskRule):
        raise ParameterError("derivative_on_Y integrates over the branches: "
                             "it needs a disk rule, got %s" % type(rule).__name__)
    density = (lambda r: np.log(r * r) ** 2) if include_log else None
    total = 0.0
    for branch, coeffs in ((1, data.f1), (2, data.f2)):
        c = np.asarray(coeffs, dtype=complex)
        if not c.size or not np.abs(c).max():
            continue
        wb = weight.restrict_to_branch(branch) if weight.domain == "bidisk" else weight
        try:
            M = _twisted_gram(wb, c.size - 1, rule, density)
        except DegeneracyError as exc:  # a non-finite field at a node
            raise EvaluationError("non-finite twisted derivative or e^{-phi} "
                                  "at quadrature nodes") from exc
        total += float(np.real(np.vdot(c, M @ c)))
    return total


def final_example_norm(epsilon, u=(0.0, 1.0), rule=None):
    """The compact-analogue branch integral with the shifted regularization:
    for f = z this is exactly int_disk dlam/(eps^2+|z|^2)."""
    w = RegularizedLogWeight(epsilon, "z", style="shifted")
    return gamma_branch_norm(u, w, gamma=0.0, variant="conjecture", rule=rule)


def evaluate_norm(spec, data, weight=None, rule=None):
    """Dispatch a NormSpec to the matching evaluator (CLI entry point)."""
    if spec.kind == "log_weighted_bulk":
        if weight is None:
            raise ParameterError("log_weighted_bulk needs a bidisk weight")
        return log_weighted_bulk_norm(data, weight, spec, rule)
    if spec.kind == "gamma_branch":
        if weight is None:
            raise ParameterError("gamma_branch needs a branch weight")
        return gamma_branch_norm(data, weight, spec.gamma, spec.variant, rule,
                                 spec.conic_k)
    if spec.kind == "derivative_on_Y":
        if weight is None:
            raise ParameterError("derivative_on_Y needs a bidisk weight")
        return derivative_norm_on_Y(data, weight, rule)
    if spec.kind == "final_example":
        if spec.epsilon is None:
            raise ParameterError("final_example needs epsilon")
        return final_example_norm(spec.epsilon, data, rule)
    raise ParameterError("unknown functional kind %r" % spec.kind)
