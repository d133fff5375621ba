"""Truncated weighted Bergman models.

A model discretizes the space of holomorphic functions square-integrable
against e^{-phi}: monomials up to the truncation degree, their Gram matrix
under quadrature, and an orthonormalizing factorization.  All kernel
quantities (B_0(z,w), the higher-order kernels B_k(0), the Bergman metric at
the origin) are linear algebra on the Gram matrix.

Every Gram matrix follows the convention G[a,b] = int conj(e_a) e_b e^{-phi}
and comes from one moment kernel, ``_moments``: e^{-phi} on a polar tensor
grid, one FFT over the angles (exact for every Fourier offset), and a matrix
product with the radial moments.  The disk Gram is the kernel on the disk
rule's grid.  The bidisk uses the full tensor grid z1^m z2^n with m,n <= D so
that cross constraints are exactly expressible; its Gram applies the kernel to
the inner factor at every outer node and sums the outer angles with a second
FFT.  For weights invariant under the simultaneous rotation
(z1,z2) -> (e^{ia}z1, e^{ia}z2) the outer angular integral is exact: entries
vanish unless m+n = m'+n', and only the outer angle 0 is evaluated.
"""

from __future__ import annotations

import math

import numpy as np
import sympy as sp

from .errors import COND_LIMIT, DegeneracyError, ParameterError
from .quadrature import BidiskRule, bidisk_rule, disk_rule
from . import weights as wmod


class BergmanModel:
    def __init__(self, domain, weight, degree, monomials, gram, rule):
        self.domain = domain
        self.weight = weight
        self.degree = int(degree)
        self.monomials = monomials
        self.index = {m: i for i, m in enumerate(monomials)}
        self.gram = gram
        self.rule = rule
        self._factorize()

    def _factorize(self):
        G = self.gram
        herm_defect = np.abs(G - G.conj().T).max()
        scale = np.abs(G).max()
        if not np.isfinite(scale) or scale == 0:
            raise DegeneracyError("non-finite Gram matrix", self.monomials)
        if herm_defect > 1e-10 * scale:
            raise DegeneracyError("Gram matrix not Hermitian (defect %.2e)" % herm_defect)
        G = 0.5 * (G + G.conj().T)
        self.gram = G
        d = np.sqrt(np.diag(G).real)
        if not np.all(np.isfinite(d)) or np.any(d <= 0):
            bad = [self.monomials[i] for i in np.flatnonzero(~(np.isfinite(d) & (d > 0)))]
            raise DegeneracyError(
                "weight is not integrable against monomials %s" % bad, bad)
        self._scale = d
        Gs = G / d[:, None] / d[None, :]
        lam, U = np.linalg.eigh(Gs)
        if lam[0] <= 0 or not np.isfinite(lam[-1]):
            raise DegeneracyError(
                "Gram matrix numerically singular (min eigenvalue %.3e); "
                "lower the degree or change the quadrature grading" % lam[0])
        self.condition_number = float(lam[-1] / lam[0])
        if self.condition_number > COND_LIMIT:
            raise DegeneracyError(
                "Gram condition number %.3e exceeds %.0e; lower the degree or "
                "change the quadrature grading" % (self.condition_number, COND_LIMIT))
        # orthonormal basis in monomial coordinates: columns of E
        E = (U / np.sqrt(lam)[None, :]) / d[:, None]
        # deterministic sign fix and ordering (leading monomial, then weight)
        lead = np.argmax(np.abs(E), axis=0)
        order = np.lexsort((-lam, lead))
        E = E[:, order]
        for j in range(E.shape[1]):
            col = E[:, j]
            k = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            ph = col[k] / abs(col[k])
            E[:, j] = col * np.conj(ph)
        self.basis_coeffs = E

    # -- evaluation of basis / kernel ---------------------------------------

    def _monomial_values(self, z):
        if self.domain == "disk":
            z = np.asarray(z, dtype=complex)
            return z[..., None] ** np.arange(self.degree + 1)
        z1, z2 = z
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        vals = np.empty(np.broadcast(z1, z2).shape + (len(self.monomials),), complex)
        for i, (m, n) in enumerate(self.monomials):
            vals[..., i] = z1**m * z2**n
        return vals

    def basis_values(self, z):
        """Values of the orthonormal basis functions e_j at z."""
        return self._monomial_values(z) @ self.basis_coeffs

    def kernel(self, z, w):
        """Truncated reproducing kernel B_0(z,w) = sum_j e_j(z) conj(e_j(w))."""
        ez = self.basis_values(z)
        ew = self.basis_values(w)
        return np.sum(ez * np.conj(ew), axis=-1)

    def summary(self, kmax=6):
        out = {
            "domain": self.domain,
            "weight": self.weight.describe(),
            "degree": self.degree,
            "condition_number": self.condition_number,
            "B0": higher_kernel(self, 0),
        }
        if self.domain == "disk":
            kmax = min(kmax, self.degree)
            out["Bk"] = [higher_kernel(self, k) for k in range(kmax + 1)]
            out["bergman_metric_at_zero"] = bergman_metric_at_zero(self)
        return out


def _solve_hermitian(G, B):
    """Solve G X = B with Jacobi scaling (G Hermitian positive definite)."""
    d = np.sqrt(np.diag(G).real)
    Gs = G / d[:, None] / d[None, :]
    Bs = B / d[:, None] if B.ndim > 1 else B / d
    Xs = np.linalg.solve(Gs, Bs)
    return Xs / d[:, None] if B.ndim > 1 else Xs / d


def _check_integrable(weight, degree, domain):
    """Reject weights whose log terms make low monomials non-integrable.

    A zero of total log-order s at the origin kills z^n for n < s; a zero of
    order >= 1 elsewhere (point or curve) kills every represented monomial.
    """
    if not isinstance(weight, wmod.Weight):
        return
    z = sp.symbols("z")
    if domain == "disk":
        order0 = 0.0
        for t in weight.log_terms:
            poly = sp.Poly(t.expr, z)
            roots = sp.roots(poly)
            for root, mult in roots.items():
                a = complex(root)
                if abs(a) >= 1.0 - 1e-12:
                    continue
                if abs(a) < 1e-12:
                    order0 += t.r * mult
                elif t.r * mult >= 1.0:
                    raise DegeneracyError(
                        "weight forces vanishing at z=%r; every monomial is "
                        "non-integrable" % a, list(range(degree + 1)))
        if order0 >= 1.0:
            killed = [n for n in range(degree + 1) if n < order0]
            raise DegeneracyError(
                "weight's multiplier ideal kills monomials %s "
                "(log order %.3g at the origin)" % (killed, order0), killed)
    else:
        for t in weight.log_terms:
            if t.r >= 1.0:
                raise DegeneracyError(
                    "bidisk log term %r with coefficient %.3g >= 1 forces "
                    "vanishing on a curve; model degenerate" % (t.f_str, t.r))


def _moments(T, rule, degree):
    """M[..., n, n'] = sum over the nodes of w conj(z^n) z^n' T.

    ``T`` holds e^{-phi} on the rule's radii x angles grid (any leading batch
    axes).  One FFT over the angles gives every Fourier offset d = n'-n at
    once (the trapezoid sum is a DFT, aliasing included); the radial sum is a
    matrix product with the moments w r^{1+s}, s = n+n'.
    """
    if not np.all(np.isfinite(T)):
        raise DegeneracyError("weight produced non-finite e^{-phi} at quadrature nodes")
    na = rule.angular_order
    d = np.arange(-degree, degree + 1)
    # sum_k T_k (phase_0 e^{i theta_k})^d = phase_0^d F[-d mod na]
    Fd = np.fft.fft(T, axis=-1)[..., (-d) % na] * rule._phases[0] ** d
    pw = (2.0 * np.pi / na) * rule.radial_weights * rule.radii
    P = pw[:, None] * rule.radii[:, None] ** np.arange(2 * degree + 1)[None, :]
    K = P.T @ Fd  # K[..., s, d + degree]
    n = np.arange(degree + 1)
    return K[..., n[:, None] + n[None, :], n[None, :] - n[:, None] + degree]


def _bidisk_gram(weight, degree, rule):
    """Gram of z1^m z2^n (m, n <= degree), one outer radius at a time.

    At each outer radius the inner moments come from ``_moments`` at every
    outer angle, in chunks of about 2^20 points to bound memory; the outer
    angular sum is one FFT at the offset m'-m (plus n'-n when the inner rule
    turns with the outer phase, as under diagonal grading).  For diagonally
    invariant weights the outer angular integral is exact: only the outer
    angle 0 is evaluated, entries with m+n != m'+n' vanish and the rest are
    multiplied by 2 pi.
    """
    D = degree
    nb = D + 1
    invariant = bool(getattr(weight, "diagonal_rotation_invariant", False))
    na2 = rule.rule2.angular_order
    if invariant and na2 <= 2 * D:
        raise ParameterError(
            "inner angular order %d aliases Fourier offsets up to %d" % (na2, D))
    outer = rule.rule1
    phases = np.ones(1, dtype=complex) if invariant else outer._phases
    diag = rule.diagonal_grading
    turn = diag and not invariant
    s = np.arange(2 * D + 1)
    S = np.zeros((s.size, phases.size, nb, nb), dtype=complex)
    for r, w in zip(outer.radii, outer.radial_weights):
        inner = rule._inner_for_radius(r) if diag else rule.rule2
        grid = inner.grid
        step = max(1, (1 << 20) // grid.size)
        M = []
        for lo in range(0, phases.size, step):
            ph = phases[lo:lo + step, None, None]
            phi = weight.evaluate(r * ph, ph * grid if turn else grid[None])
            M.append(_moments(np.exp(-np.asarray(phi, dtype=float)), inner, D))
        S += (w * r ** (s + 1))[:, None, None, None] * np.concatenate(M)
    A = np.fft.fft(S, axis=1) * (2.0 * np.pi / phases.size)
    m, n, mp, np_ = np.ogrid[:nb, :nb, :nb, :nb]
    e = (mp - m) + turn * (np_ - n)
    G = A[m + mp, (-e) % phases.size, n, np_] * phases[0] ** e
    if invariant:
        G = np.where(m + n == mp + np_, G, 0.0)
    mons = [(a, b) for a in range(nb) for b in range(nb)]
    return mons, G.reshape(nb * nb, nb * nb)


def default_rule(domain, weight=None):
    if domain == "disk":
        return disk_rule(radial_order=48, angular_order=128, grading_levels=16)
    diag = bool(getattr(weight, "diagonal_rotation_invariant", False))
    return bidisk_rule(
        radial_order=(16, 16),
        angular_order=(64, 256),
        grading_levels=10,
        diagonal_grading=diag,
        diagonal_levels=12,
    )


def build_model(domain, weight, degree, rule=None):
    """Assemble the truncated model: Gram matrix, factorization, diagnostics."""
    if degree < 1:
        raise ParameterError("degree must be >= 1, got %r" % degree)
    if getattr(weight, "domain", domain) != domain:
        raise ParameterError(
            "weight domain %r does not match model domain %r"
            % (getattr(weight, "domain", None), domain))
    _check_integrable(weight, degree, domain)
    if rule is None:
        rule = default_rule(domain, weight)
    if domain == "disk":
        phi = np.asarray(weight.evaluate(rule.grid), dtype=float)
        G = _moments(np.exp(-phi), rule, degree)
        mons = list(range(degree + 1))
    elif domain == "bidisk":
        if not isinstance(rule, BidiskRule):
            raise ParameterError("bidisk model needs a bidisk rule")
        mons, G = _bidisk_gram(weight, degree, rule)
    else:
        raise ParameterError("unknown domain %r" % domain)
    return BergmanModel(domain, weight, degree, mons, G, rule)


def kernel(model, z, w):
    """B_0(z,w) for the truncated model."""
    return complex(model.kernel(z, w)) if np.isscalar(z) or (
        model.domain == "bidisk" and np.isscalar(z[0])
    ) else model.kernel(z, w)


def _ek_subspace(model, k):
    """Indices of the monomials spanning E_k."""
    if model.domain == "disk":
        return list(range(k, model.degree + 1))
    if k == 0:
        return list(range(len(model.monomials)))
    if k == 1:
        return [i for i, mn in enumerate(model.monomials) if mn != (0, 0)]
    if k == 2:
        return [i for i, (m, n) in enumerate(model.monomials) if m >= 1 and n >= 1]
    raise ParameterError("bidisk model defines E_k only for k <= 2")


def higher_kernel(model, k):
    """B_k(0): squared norm of f -> f^{(k)}(0) restricted to E_k.

    Equals u* G_k^{-1} u with u the functional's coefficient vector (a single
    entry k! at the monomial z^k) in the E_k monomial coordinates."""
    if k < 0 or k > model.degree:
        raise ParameterError("k must satisfy 0 <= k <= degree, got %r" % k)
    idx = _ek_subspace(model, k)
    Gk = model.gram[np.ix_(idx, idx)]
    u = np.zeros(len(idx), dtype=complex)
    target = k if model.domain == "disk" else (k, 0) if k else (0, 0)
    if model.domain == "disk":
        u[idx.index(model.index[k])] = math.factorial(k)
    else:
        if k > 0:
            raise ParameterError("bidisk higher kernels beyond k=0 are not defined here")
        u[idx.index(model.index[(0, 0)])] = 1.0
    x = _solve_hermitian(Gk, u)
    return float(np.real(np.vdot(u, x)))


def bergman_metric_at_zero(model):
    """omega_B(0) = B_1(0)/B_0(0) (the classical kernel/metric identity)."""
    if model.degree < 1:
        raise ParameterError("degree must be >= 1")
    return higher_kernel(model, 1) / higher_kernel(model, 0)


def log_kernel_gradient_at_zero(model):
    """e_0'(0)/e_0(0) = d/dz log B_0(z,z) at 0, from the basis coefficients."""
    if model.degree < 1:
        raise ParameterError("degree must be >= 1")
    E = model.basis_coeffs
    if model.domain == "disk":
        c0 = E[model.index[0], :]
        c1 = E[model.index[1], :]
    else:
        raise ParameterError("log-kernel gradient implemented on the disk")
    b0 = np.sum(np.abs(c0) ** 2)
    return complex(np.sum(c1 * np.conj(c0)) / b0)


def unit_ek(model, k):
    """Unit-norm element of E_k orthogonal to E_{k+1}, as a full coefficient
    vector: the normalized representer of f -> f^{(k)}(0) inside E_k."""
    idx = _ek_subspace(model, k)
    Gk = model.gram[np.ix_(idx, idx)]
    u = np.zeros(len(idx), dtype=complex)
    if model.domain == "disk":
        u[idx.index(model.index[k])] = math.factorial(k)
    else:
        u[idx.index(model.index[(0, 0)])] = 1.0
    v = _solve_hermitian(Gk, u)
    nrm2 = float(np.real(np.vdot(u, v)))  # = |functional|^2 norm on E_k
    if nrm2 <= 0:
        raise DegeneracyError("representer of the derivative functional degenerate")
    full = np.zeros(len(model.monomials), dtype=complex)
    full[idx] = v / math.sqrt(nrm2)
    return full


def model_summary_json(model, kmax=6):
    import json

    return json.dumps(model.summary(kmax), indent=2, default=float)
