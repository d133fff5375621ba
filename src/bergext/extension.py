"""Minimal-norm extension solvers.

A jet constraint f^(k)(0) = a_k pins the coefficient of z^k to a_k/k!, and
cross data on {z1 z2 = 0} in the bidisk pins the coefficients of the pure
powers z1^m and z2^n.  Both extensions are therefore the same
equality-constrained least squares problem, solved by direct elimination in
``_pinned_solve``: fix the pinned coefficients and solve the Schur-complement
system on the free ones, per index block that the model's Gram was built on
(one block of every index, the total-degree blocks of a lens or invariant
tensor Gram, or the 1 x 1 blocks of a radial weight's Gram).
Jets have a second, independent route, the level-by-level recursion through
the orthogonal ladder E_0 > E_1 > ...: it reads the ladder vectors e_k, the
columns of the model's ``basis_coeffs``, and never calls the Schur solve (the
two must agree; that cross-check is the module's central test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, ParameterError
from .bergman import (
    _basis_columns,
    _block_product,
    _gram,
    bergman_metric_at_zero,
    higher_kernel,
    log_kernel_gradient_at_zero,
)
from .quadrature import disk_rule


@dataclass(frozen=True)
class Jet:
    """Prescribed derivatives (a_0, ..., a_{N-1}) at the origin."""

    values: tuple

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ParameterError("a jet needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("jet values must be finite, got %r" % (vals,))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class CrossData:
    """Pair (f1, f2) of one-variable coefficient vectors on the cross, with
    the compatibility f1(0) = f2(0) enforced at construction."""

    f1: tuple
    f2: tuple

    def __post_init__(self):
        f1 = tuple(complex(v) for v in (self.f1 or (0.0,)))
        f2 = tuple(complex(v) for v in (self.f2 or (0.0,)))
        if not np.all(np.isfinite(f1 + f2)):
            raise ParameterError("cross data must be finite, got %r, %r" % (f1, f2))
        if f1[0] != f2[0]:
            raise ParameterError(
                "cross data incompatible: f1(0)=%r != f2(0)=%r" % (f1[0], f2[0]))
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    @property
    def a0(self):
        return self.f1[0]


@dataclass
class ExtensionReport:
    coefficients: np.ndarray
    monomials: list
    norm_sq: float
    levels: list = field(default_factory=list)       # (k, b_k, B_k(0), |h_k|^2)
    cross_parts: tuple | None = None                 # (|h0|^2, |h1|^2)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "monomials": [list(m) if isinstance(m, tuple) else m for m in self.monomials],
            "norm_sq": self.norm_sq,
            "levels": [
                {"k": k, "b_k": [b.real, b.imag], "B_k": B, "h_k_norm_sq": h}
                for (k, b, B, h) in self.levels
            ],
            "cross_parts": list(self.cross_parts) if self.cross_parts else None,
            "diagnostics": self.diagnostics,
        }


def _jet_constraints(model, jet):
    """The jet values (a_0, ..., a_{N-1}), after checking the model fits."""
    N = len(jet)
    if model.domain != "disk":
        raise ParameterError("jet extension lives on the disk")
    if N > model.degree + 1:
        raise ParameterError(
            "jet length %d exceeds degree+1 = %d" % (N, model.degree + 1))
    return np.array(jet.values, dtype=complex)


def _solve_hermitian(G, b):
    """Solve G x = b with Jacobi scaling (G Hermitian positive definite)."""
    d = np.sqrt(np.diag(G).real)
    return np.linalg.solve(G / d[:, None] / d[None, :], b / d) / d


def _pinned_solve(model, F, c_F):
    """Minimize c^H G c subject to c[F] = c_F, G the model's Gram.

    Direct elimination: solve G_RR c_R = -G_RF c_F on the free indices R,
    one Gram block of the model (``_gram_blocks`` over the indices
    ``_blocks``) at a time: G is 0 between blocks, so a block with pinned
    and free indices is solved on its own, and the free coefficients of a
    block with no pin are 0.  A disk or generic bidisk Gram is one block; on
    total-degree blocks the cross pins only (0, k) and (k, 0), so every block
    with k > D is 0; on 1 x 1 blocks every free coefficient is 0.  Returns
    the coefficients, c^H G c and the stationarity residual max |(G c)_R|.
    """
    blocks, G = model._blocks, model._gram_blocks
    R = np.ones(len(model.monomials), dtype=bool)
    R[F] = False
    coeffs = np.zeros(R.size, dtype=complex)
    coeffs[F] = c_F
    valid = blocks >= 0
    free = R[blocks] & valid
    for k in np.flatnonzero(free.any(axis=1) & (free != valid).any(axis=1)):
        idx, f = blocks[k, valid[k]], free[k, valid[k]]
        GR = G[k, :idx.size, :idx.size][f]
        try:  # coeffs still vanishes on R, so GR @ coeffs is G_RF c_F
            coeffs[idx[f]] = _solve_hermitian(GR[:, f], -(GR @ coeffs[idx]))
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError("free-block Gram singular") from exc
    Gc = _block_product(blocks, G, coeffs)
    stationarity = float(np.abs(Gc[R]).max()) if R.any() else 0.0
    return coeffs, float(np.real(np.vdot(coeffs, Gc))), stationarity


def _level_breakdown(model, coeffs, N):
    """Project a solution onto the one-dimensional ladder steps
    E_k (-) E_{k+1}: its amplitudes <h, e_k>_G are E[:, :N]^H G h."""
    E = _basis_columns(model, N)
    amps = E.conj().T @ _block_product(model._blocks, model._gram_blocks, coeffs)
    levels = []
    for k in range(N):
        ekk0 = math.factorial(k) * E[k, k].real  # e_k^{(k)}(0)
        levels.append((k, complex(ekk0 * amps[k]), float(ekk0**2),
                       float(abs(amps[k]) ** 2)))
    return levels


def extend_jet_direct(model, jet):
    """Norm-minimal coefficient vector under the derivative constraints:
    the coefficients of z^0..z^{N-1} pinned to a_k/k!, the rest from the
    Schur-complement solve."""
    a = _jet_constraints(model, jet)
    F = [model.index[k] for k in range(len(a))]
    fact = np.array([math.factorial(k) for k in range(len(a))], dtype=float)
    coeffs, norm_sq, stationarity = _pinned_solve(model, F, a / fact)
    return ExtensionReport(
        coefficients=coeffs,
        monomials=model.monomials,
        norm_sq=norm_sq,
        levels=_level_breakdown(model, coeffs, len(jet)),
        diagnostics={
            "solver": "direct",
            "constraint_residual": float(np.abs(fact * coeffs[F] - a).max()),
            "stationarity_residual": stationarity,
            "gram_condition": model.condition_number,
        },
    )


def extend_jet_recursive(model, jet):
    """Level-by-level construction along the ladder columns e_k of
    ``basis_coeffs``: b_k = a_k - f^{(k)}(0) for f = h_0 + ... + h_{k-1}, and
    h_k = (b_k / e_k^{(k)}(0)) e_k; the total norm is sum |b_k|^2 / B_k(0)."""
    a = _jet_constraints(model, jet)
    N = len(jet)
    E = _basis_columns(model, N)
    coeffs = np.zeros(len(model.monomials), dtype=complex)
    levels = []
    norm_sq = 0.0
    for k in range(N):
        ekk0 = math.factorial(k) * E[k, k].real
        Bk = ekk0**2
        bk = a[k] - math.factorial(k) * coeffs[k]
        coeffs = coeffs + (bk / ekk0) * E[:, k]
        contrib = abs(bk) ** 2 / Bk
        norm_sq += contrib
        levels.append((k, complex(bk), float(Bk), float(contrib)))
    resid = max(abs(math.factorial(k) * coeffs[k] - a[k]) for k in range(N))
    return ExtensionReport(
        coefficients=coeffs,
        monomials=model.monomials,
        norm_sq=float(norm_sq),
        levels=levels,
        diagnostics={
            "solver": "recursive",
            "constraint_residual": float(resid),
            "gram_condition": model.condition_number,
        },
    )


def rhs_estimate_jet(model, jet):
    """Right-hand sides of the two-jet estimate.

    exact  = (|a0|^2 + |a1 - a0 g|^2_{omega_B}) / B_0(0)  (an identity for
             length-2 jets), with g = e_0'(0)/e_0(0);
    ot     = the same bracket times e^{-phi(0)}.
    """
    if len(jet) != 2:
        raise ParameterError("the two-term estimate needs a length-2 jet")
    if model.degree < 1:
        raise ParameterError("degree must be >= 1")
    a0, a1 = jet.values
    g = log_kernel_gradient_at_zero(model)
    omega = bergman_metric_at_zero(model)
    b0 = higher_kernel(model, 0)
    bracket = abs(a0) ** 2 + abs(a1 - a0 * g) ** 2 / omega
    phi0 = float(model.weight.evaluate(np.array(0.0 + 0.0j)))
    return {
        "exact": float(bracket / b0),
        "ot": float(bracket * np.exp(-phi0)),
        "gradient": g,
        "omega_B": float(omega),
        "B0": float(b0),
        "phi0": phi0,
    }


def _check_cross_degree(model, cross):
    if max(len(cross.f1), len(cross.f2)) > model.degree + 1:
        raise ParameterError("cross data degree exceeds the truncation degree %d; "
                             "refusing to truncate silently" % model.degree)


def _cross_fixed_vector(model, cross):
    D = model.degree
    _check_cross_degree(model, cross)
    fixed_idx = []
    fixed_val = []
    for n in range(D + 1):
        fixed_idx.append(model.index[(0, n)])
        fixed_val.append(cross.f1[n] if n < len(cross.f1) else 0.0)
    for m in range(1, D + 1):
        fixed_idx.append(model.index[(m, 0)])
        fixed_val.append(cross.f2[m] if m < len(cross.f2) else 0.0)
    return fixed_idx, np.array(fixed_val, dtype=complex)


def extend_cross(model, cross):
    """Minimal-norm extension of cross data: boundary coefficients pinned,
    interior coefficients from the Schur-complement solve."""
    if model.domain != "bidisk":
        raise ParameterError("cross extension needs a bidisk model")
    F, cF = _cross_fixed_vector(model, cross)
    coeffs, norm_sq, stationarity = _pinned_solve(model, F, cF)
    parts = _cross_parts(model, cross, coeffs)
    report = ExtensionReport(
        coefficients=coeffs,
        monomials=model.monomials,
        norm_sq=norm_sq,
        cross_parts=parts,
        diagnostics={
            "solver": "cross-schur",
            "stationarity_residual": stationarity,
            "gram_condition": model.condition_number,
            "pythagoras_rel_defect": abs(norm_sq - (parts[0] + parts[1]))
            / max(norm_sq, 1e-300),
        },
    )
    return report


def _h0(model, a0):
    """(a0/e_0(0)) e_0: the multiple of e_0 that takes the value a0 at 0."""
    e0 = _basis_columns(model, 1)[:, 0]  # the monomial 1 has index 0
    return (a0 / e0[0]) * e0


def _cross_parts(model, cross, coeffs):
    """(|h0|^2, |h1|^2) for h0 = (a0/e_0(0)) e_0 and h1 the remainder."""
    h0 = _h0(model, cross.a0)
    h1 = coeffs - h0
    blocks, G = model._blocks, model._gram_blocks
    return tuple(float(np.real(np.vdot(h, _block_product(blocks, G, h)))) for h in (h0, h1))


def branch_restriction(model, coeffs, branch):
    """One-variable coefficients of a bidisk coefficient vector on V_1/V_2."""
    if branch not in (1, 2):
        raise ParameterError("branch must be 1 or 2, got %r" % (branch,))
    if model.domain != "bidisk":
        raise ParameterError("branch restriction needs a bidisk model")
    D = model.degree
    out = np.zeros(D + 1, dtype=complex)
    for n in range(D + 1):
        key = (0, n) if branch == 1 else (n, 0)
        out[n] = coeffs[model.index[key]]
    return out


def rhs_estimate_cross(model, cross, rule_on_V=None):
    """|a0|^2/B_0(0) plus the V-integral of |f - h0|^2/|z|^2 e^{-phi},
    computed branch by branch as Gram forms q^H G q of q = (f - h0)/z over
    the branch disk Gram on ``rule_on_V``."""
    if model.domain != "bidisk":
        raise ParameterError("needs a bidisk model")
    _check_cross_degree(model, cross)
    if rule_on_V is None:
        rule_on_V = disk_rule(radial_order=32, angular_order=64, grading_levels=14)
    b0 = higher_kernel(model, 0)
    term0 = abs(cross.a0) ** 2 / b0
    h0 = _h0(model, cross.a0)
    total_v = 0.0
    parts = []
    for branch, data in ((1, cross.f1), (2, cross.f2)):
        h0b = branch_restriction(model, h0, branch)
        diff = np.zeros(model.degree + 1, dtype=complex)
        diff[: len(data)] = data
        diff -= h0b
        q = diff[1:]  # (f - h0)/z, the singularity is removable
        wb = model.weight.restrict_to_branch(branch)
        blocks, G = _gram(wb, q.size - 1, rule_on_V)[1:]
        val = float(np.real(np.vdot(q, _block_product(blocks, G, q))))
        parts.append(val)
        total_v += val
    return {
        "total": float(term0 + total_v),
        "a0_term": float(term0),
        "v_integral": float(total_v),
        "v_parts": parts,
        "B0": float(b0),
    }
