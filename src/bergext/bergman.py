"""Truncated weighted Bergman models.

A model discretizes the space of holomorphic functions square-integrable
against e^{-phi}: monomials up to the truncation degree, their Gram matrix
under quadrature, and its ladder factorization: one reverse Cholesky of the
Gram matrix gives the unit vectors e_k of the steps E_k (-) E_{k+1} of the
orthogonal ladder E_0 > E_1 > ... as the columns of the lower-triangular
``basis_coeffs`` (``BergmanModel._factorize``).  Every kernel quantity
(B_0(z,w), the higher-order kernels B_k(0), the Bergman metric and the
log-kernel gradient at the origin) is read off those columns.  Every Gram
is built, checked, factored and solved (``extension._pinned_solve``) as a
padded stack of the index blocks that its producer states: 1 x 1 blocks for
a radial weight's Gram evaluated at one angle per radius, the total-degree
blocks m + n = k (at most D+1 monomials each) for a lens or invariant tensor
Gram, one block of every index otherwise (the disk, the generic bidisk).

Every Gram matrix follows the convention G[a,b] = int conj(e_a) e_b e^{-phi}
and comes from one entry, ``_gram``.  On a polar tensor rule it uses one
moment kernel in two linear stages: ``_rows`` takes e^{-phi} on a polar
tensor grid, block by block from a callback, and contracts it over the radii
first (a batched real matrix product with a stack of radial moment tables,
leaving 2D+1 rows per angle, checked finite once), and ``_angular`` takes
one rfft of those rows over the angles (exact for every Fourier offset).
The callbacks evaluate the weight at complex nodes r x phases, except on the
invariant bidisk path for the regularized log, whose e^{-phi} is a function
of |z1 - z2|^2, formed there from real polar arrays (``_polar_exp``).
Conjugation-symmetric weights, phi(conj z) = phi(z), are evaluated on half
the angles of an unrotated rule.  Radial weights, phi a function of |z| (of
|z1| and |z2|), are evaluated at one angle per radius when the angular order
exceeds every Fourier offset of the Gram (on the disk, the degree; on the
invariant bidisk path, always): the trapezoid sum of a row constant in the
angle is na times the row at offset 0 and an exact 0 at every other offset,
the same node sum, and the Gram is its diagonal.
The disk Gram is the two stages on the disk rule's grid.  The bidisk uses
the full tensor grid z1^m z2^n with m,n <= D so that cross constraints are
exactly expressible.  Its Gram takes the outer radii in runs.  Per run it
builds the inner radial tables once, one per outer radius (a broadcast view
of one table when the outer radii share the inner rule), evaluates e^{-phi}
on blocks of as many of the run's outer radii as fit in a block, contracts
each block with its tables in one batched matrix product, and contracts the
run's rows over the outer radii into one real accumulator with one more.  It
applies the angular stage to that accumulator once, and sums the outer
angles with a second FFT.  For weights invariant under the simultaneous
rotation (z1,z2) -> (e^{ia}z1, e^{ia}z2) the outer angular integral is
exact: entries vanish unless m+n = m'+n', and only the outer angle 0 is
evaluated.
The regularized log's default bidisk rule is no tensor rule but a lens rule
(``_lens_gram``): with e^{-phi} = f(|z1 - z2|^2), each total-degree block is
one integral in t = |z1 - z2|, 2 pi int f(t^2) t K_k(t) dt, over the moment
table K_k of the lens D n (D - t), which does not depend on the weight; f
is evaluated at a few hundred t-nodes only.  The table holds Chebyshev
coefficients, so one Chebyshev matrix at the t-nodes serves every block.
Quadratic functionals are Gram forms q^H G q: the bulk norm and the branch
integral at gamma = 0 from ``_gram``, and the twisted-derivative norm from
``_twisted_gram``, the same two stages on five real fields of e^{-phi} and
dphi (an odd one among them mirrored with a sign).  Their radial density is
a radial weight: every radial factor of a Gram (quadrature weight, density,
power) is in one table (``_powers``), and radii where the density is 0 are
never evaluated.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import COND_LIMIT, DegeneracyError, ParameterError
from .quadrature import _BLOCK, LensRule, _checked_int, _lens_block, bidisk_rule, disk_rule
from . import weights as wmod


class BergmanModel:
    def __init__(self, domain, weight, degree, monomials, blocks, gram, rule):
        self.domain = domain
        self.weight = weight
        self.degree = int(degree)
        self.monomials = monomials
        self.index = {m: i for i, m in enumerate(monomials)}
        self.rule = rule
        self._blocks = blocks
        self._at = np.argsort(blocks, axis=None)[blocks.size - len(monomials):]
        self._factorize(gram)

    def _factorize(self, G):
        """Check the Gram blocks G (G[k] over the indices ``_blocks[k]``, as
        ``_gram`` states them) and factor them along the ladder.

        After the finiteness, Hermitian, diagonal and conditioning checks (the
        eigenvalues of the Jacobi-scaled Gs = G/(d d^T)), Gs = L^H L with L
        lower-triangular: the Cholesky of Gs with both axes reversed.  Then
        E = L^{-1}/d is lower-triangular with a positive diagonal and
        E^H G E = I, so its column k is the only unit vector of E_k (-) E_{k+1}
        (E_k spanned by the monomials from index k on) with a positive k-th
        coefficient, and needs no sign or order fixing.  On the bidisk only
        column 0 (the monomial 1 comes first) is a ladder vector.  Each block
        keeps its index order, so L, E and the eigenvalues of Gs are the
        blocks'.  The padding is the identity in Gs, whose blocks have a unit
        diagonal: lambda_min <= 1 <= lambda_max is left unchanged.
        """
        Gh = G.conj().swapaxes(1, 2)
        herm_defect = np.abs(G - Gh).max()
        scale = np.abs(G).max()
        if not np.isfinite(scale) or scale == 0:
            raise DegeneracyError("non-finite Gram matrix", self.monomials)
        if herm_defect > 1e-10 * scale:
            raise DegeneracyError("Gram matrix not Hermitian (defect %.2e)" % herm_defect)
        self._gram_blocks = G = 0.5 * (G + Gh)
        pad = self._blocks < 0
        d = np.sqrt(np.diagonal(G, axis1=1, axis2=2).real)
        d[pad] = 1.0
        bad = ~(np.isfinite(d) & (d > 0))
        if bad.any():
            bad = [self.monomials[i] for i in np.sort(self._blocks[bad])]
            raise DegeneracyError(
                "weight is not integrable against monomials %s" % bad, bad)
        # the Jacobi-scaled blocks over a stack of identities
        S = G / d[:, :, None] / d[:, None, :]
        k, i = np.nonzero(pad)
        S[k, i, i] = 1.0
        E, self.condition_number = _ladder(S)
        self._basis_blocks = np.ascontiguousarray(E / d[:, :, None])

    @property
    def gram(self):
        """The dense Gram matrix, formed from its blocks when read."""
        return _dense(self._blocks, self._gram_blocks)

    @property
    def basis_coeffs(self):
        """The dense lower-triangular E, formed from its blocks when read."""
        return _dense(self._blocks, self._basis_blocks)

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

    def kernel(self, z, w):
        """Truncated reproducing kernel B_0(z,w) = sum_j e_j(z) conj(e_j(w))."""
        E = self.basis_coeffs  # formed from the blocks once for both points
        ez = self._monomial_values(z) @ E
        ew = self._monomial_values(w) @ E
        return np.sum(ez * np.conj(ew), axis=-1)

    def summary(self, kmax=6):
        kmax = _checked_int("kmax", kmax, 0)
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


def _check_integrable(weight, degree, domain):
    """Reject weights whose log terms make low monomials non-integrable.

    Log orders add up per zero across terms (each term's ``zeros``, found
    once per factor): per root inside the disk, per irreducible factor (with
    multiplicity) on the bidisk, leaving out a factor in one variable whose
    zeros miss the closed disk.  A zero of total log-order s at the origin
    kills z^n for n <= s - 1 (near 0, |z^n|^2 |z|^{-2s} is integrable exactly
    when n > s - 1); a zero of order >= 1 elsewhere (point or curve) kills
    every represented monomial.
    """
    if not isinstance(weight, wmod.Weight):
        return
    orders = {}
    for t in weight.log_terms:
        for zero, mult in t.zeros:
            orders[zero] = orders.get(zero, 0.0) + t.r * mult
    order0 = orders.pop(0j, 0.0)
    for zero, order in orders.items():
        if order >= 1.0:
            raise DegeneracyError(
                "weight's log order %.3g at %s forces vanishing there; every "
                "monomial is non-integrable" % (order, zero),
                list(range(degree + 1)) if domain == "disk" else None)
    if order0 >= 1.0:
        killed = [n for n in range(degree + 1) if n <= order0 - 1]
        raise DegeneracyError(
            "weight's multiplier ideal kills monomials %s "
            "(log order %.3g at the origin)" % (killed, order0), killed)


def _ladder(S):
    """(E, condition number) of a stack S of Jacobi-scaled Grams, taken as one
    block-diagonal matrix: each S[k] = L^H L by the Cholesky of S[k] with both
    axes reversed, and E[k] = L^{-1} by forward substitution."""
    lam = np.linalg.eigvalsh(S)
    lo, hi = lam[:, 0].min(), lam[:, -1].max()
    if lo <= 0 or not np.isfinite(hi):
        raise DegeneracyError(
            "Gram matrix numerically singular (min eigenvalue %.3e); "
            "lower the degree or change the quadrature grading" % lo)
    condition = float(hi / lo)
    if condition > COND_LIMIT:
        raise DegeneracyError(
            "Gram condition number %.3e exceeds %.0e; lower the degree or "
            "change the quadrature grading" % (condition, COND_LIMIT))
    try:  # S = L^H L: the Cholesky factor of S reversed in both axes
        L = np.linalg.cholesky(S[:, ::-1, ::-1])[:, ::-1, ::-1]
        L = L.conj().swapaxes(1, 2)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(
            "Gram matrix numerically singular (Cholesky failed); lower "
            "the degree or change the quadrature grading") from exc
    # L^{-1} by forward substitution: exactly lower-triangular with a real
    # diagonal, where the pivoted np.linalg.inv fills the upper triangle
    E = np.zeros_like(L)
    for i in range(L.shape[1]):
        E[:, i, :i + 1] = -(L[:, i, None, :i] @ E[:, :i, :i + 1])[:, 0, :]
        E[:, i, i] += 1.0
        E[:, i, :i + 1] /= L[:, i, i, None]
    return E, condition


@functools.lru_cache(maxsize=32)
def _index_split(n, degree=None, diagonal=False):
    """The index blocks of an n x n Gram as the rows of one read-only table,
    padded with -1 (an entry that the readers append): ``diagonal``, one
    block per index; given a degree, block k holds the bidisk monomials
    z1^m z2^n (m, n <= degree, at index m (degree + 1) + n) with m + n = k;
    otherwise one block holds every index."""
    if diagonal:
        blocks = np.arange(n)[:, None]
    elif degree is None:
        blocks = np.arange(n)[None]
    else:  # z1^m z2^(k-m) is at index m (degree + 1) + k - m
        k, m = np.indices((2 * degree + 1, degree + 1))
        m = m + np.maximum(0, k - degree)
        blocks = np.where(m <= np.minimum(k, degree), m * degree + k, -1)
    blocks.flags.writeable = False
    return blocks


def _dense(blocks, B):
    """The n x n matrix with the blocks B[k] on the indices ``blocks[k]``
    and 0 between blocks (the block itself when one holds every index)."""
    if len(blocks) == 1:
        return B[0]
    n = blocks.max() + 1
    out = np.zeros((n + 1, n + 1), dtype=B.dtype)
    out[blocks[:, :, None], blocks[:, None, :]] = B
    return out[:n, :n]


def _block_product(blocks, B, c):
    """B c for the matrix with the blocks B[k] on the indices ``blocks[k]``
    and 0 between blocks, in one batched matrix product."""
    if len(blocks) == 1:  # one block of every index, in index order
        return B[0] @ c
    x = np.append(c, 0)[blocks]
    y = np.empty(c.size + 1, dtype=np.result_type(B, c))
    y[blocks] = np.matmul(B, x[..., None])[..., 0]
    return y[:-1]


# the bidisk Gram takes its outer radii in runs: it builds the radial tables
# of a run at once and contracts the run's rows into its accumulator with one
# matrix product.  A run is _RUN outer radii under diagonal grading, where
# each has its own table (more, if one block holds more), and otherwise as
# many as fill _RUN blocks, which share one table
_RUN = 16


def _evaluated_phases(rule, symmetric, radial=False, degree=0):
    """The angular phases at which a Gram evaluates e^{-phi}: phase_0 alone
    when it is constant in the angle (``radial``) and the angular order na
    exceeds the largest offset ``degree`` of the angular stage; 0..na/2 when
    it is even in the angle (``symmetric``) on an unrotated rule with an even
    na; every angle otherwise."""
    na = rule.angular_order
    if radial and na > degree:
        return rule._phases[:1]
    if symmetric and rule._phases[0] == 1 and na % 2 == 0:
        return rule._phases[:na // 2 + 1]
    return rule._phases


def _rows(exp_phi, P, width):
    """R[k, s, col] = sum over the radii j of P[k, s, j] T[k, j, col]: the
    radial stage of the moment kernel, on a stack of radial tables.

    ``P[k, s, j]`` (s = 0..2*degree) are the radial moments of table k's
    radii (``_powers``): one table on the disk, one per outer radius of a run
    on the bidisk.  ``exp_phi(ks, js)`` returns e^{-phi} at the radii ``js``
    of the tables ``ks`` (two slices) as T[k, j, *batch, angle], ``width``
    values per radius.  A block holds as many whole tables as fit in
    ``_BLOCK`` nodes, or, when one table holds more, an equal share of its
    radii that fits; each block is contracted by one batched real matrix
    product, whatever the batch shape (e^{-phi} itself, or a stack of real
    fields).
    The finite check is made once, on R: every P[k, 0, j] of a kept radius
    is positive, so a non-finite value at any node makes its row s = 0
    non-finite.
    """
    k, n, m = P.shape
    nodes = m * width  # of one table
    kb = max(1, _BLOCK // max(1, nodes))  # tables per block
    jb = max(1, -(-m // max(1, -(-nodes // _BLOCK))))  # radii per block
    R = np.zeros((k, n, width))
    for k0 in range(0, k, kb):
        ks = slice(k0, k0 + kb)
        for j0 in range(0, m, jb):
            js = slice(j0, j0 + jb)
            T = exp_phi(ks, js)
            R[ks] += np.matmul(P[ks, :, js], T.reshape(T.shape[0], T.shape[1], -1))
    if not np.all(np.isfinite(R[:, 0])):
        raise DegeneracyError(
            "weight produced non-finite e^{-phi} at quadrature nodes")
    return R


def _powers(pw, r, n, density=None):
    """(r, P): every radial factor of a Gram in one table per row of r, the
    radial moments P[..., s, j] = pw_j rho(r_j) r_j^s (s < n) of the radii
    r_j of the row that it keeps.

    pw is the weight of each radius's nodes, rho the optional radial
    ``density``; the radii where pw rho is 0 are dropped, so that e^{-phi}
    is never evaluated there.  A row that keeps fewer radii than another is
    padded with repeats of its first kept radius at moment 0, so the rows
    stay one array.  The powers come from repeated multiplication: within a
    few units in the last place of ``**``, at a fraction of its cost."""
    if density is not None:
        pw = pw * density(r)
    keep = pw != 0
    if not keep.all():
        count = keep.sum(axis=-1, keepdims=True)
        if count.min() < count.max():
            # a row that keeps fewer radii than another takes back as many of
            # its dropped ones, as repeats of a kept radius at moment 0
            fill = ~keep & (np.cumsum(~keep, axis=-1) <= count.max() - count)
            first = np.take_along_axis(r, keep.argmax(axis=-1)[..., None], -1)
            pw, r = np.where(fill, 0.0, pw), np.where(fill, first, r)
            keep |= fill
        shape = r.shape[:-1] + (-1,)
        pw, r = pw[keep].reshape(shape), r[keep].reshape(shape)
    P = np.empty((n,) + r.shape)
    P[0] = pw
    for s in range(1, n):
        np.multiply(P[s - 1], r, out=P[s])
    return r, P.swapaxes(0, -2)


def _angular(R, rule, degree, sign=1.0):
    """K[..., d + degree] = sum_k R[..., k] (phase_0 e^{i theta_k})^d for the
    offsets d = -degree..degree: the angular stage of the moment kernel, on
    real rows R[..., angle] over the angles of ``rule``.

    Rows over the angles 0..na/2 only (``_evaluated_phases`` of fields even
    or odd in the angle) are mirrored back to all na angles first, each row
    times its ``sign`` (broadcast against R[..., :1]): 1 for an even row,
    -1 for an odd one.  One rfft then gives every offset at once (the
    trapezoid sum is a DFT, aliasing included); offsets past na/2 are
    conjugates, since the rows are real.  Rows over one angle of na > 1
    (``_evaluated_phases`` of a radial weight, na > degree) are constant in
    the angle: their trapezoid sum is na R at offset 0 and an exact 0 at
    every other offset.
    """
    na = rule.angular_order
    if R.shape[-1] == 1 < na:
        K = np.zeros(R.shape[:-1] + (2 * degree + 1,), dtype=complex)
        K[..., degree] = na * R[..., 0]
        return K
    if R.shape[-1] < na:
        R = np.concatenate([R, sign * R[..., -2:0:-1]], axis=-1)
    F = np.fft.rfft(R, axis=-1)
    # sum_k R_k (phase_0 e^{i theta_k})^d = phase_0^d F[-d mod na], and
    # F[k] = conj(F[na - k]) for the real R
    d = np.arange(-degree, degree + 1)
    k = (-d) % na
    K = F[..., np.minimum(k, na - k)]
    return np.where(k <= na // 2, K, K.conj()) * rule._phases[0] ** d


def _pairs(degree):
    """(s, d + degree) with s = n+n' and d = n'-n, indexed [n, n']: where the
    moment M[n, n'] = sum w conj(z^n) z^n' e^{-phi} sits in the output of
    ``_angular`` over rows R[s, angle]."""
    n = np.arange(degree + 1)
    return n[:, None] + n[None, :], n[None, :] - n[:, None] + degree


def _exp_weight(weight, zs):
    """e^{-phi(zs)} at complex nodes.  The regularized log gives e^{-phi}
    from |zeta|^2 directly, finite everywhere, with no log/exp round trip;
    any other weight goes through exp(-evaluate).  A radial density is not
    applied here: it is in the radial moments (``_powers``)."""
    if hasattr(weight, "_exp_neg_phi_a2"):
        return weight._exp_neg_phi_a2(weight._a2(*zs))
    return np.exp(-np.asarray(weight.evaluate(*zs), dtype=float))


def _polar_exp(weight, r1, r2, vers):
    """The ``_rows`` callback of the invariant bidisk path for a weight whose
    e^{-phi} is a function of a2 = |z1 - z2|^2 (the regularized log), for a
    run of outer radii: at the real z1 = r1[k] and z2 = r2[k, j] e^{i theta},
        a2 = (r1 - r2)^2 + 2 r1 r2 vers,   vers = 2 sin^2(theta/2) = 1 - cos theta,
    the coefficients of the run built once, and a block's a2 one real matrix
    product of its pairs (2 r1 r2, (r1 - r2)^2) with (vers, 1) over the
    angles: no complex grid, and no cancellation of r1 - r2 cos theta near
    the diagonal.  r2 are the inner radii that ``_powers`` keeps; any
    density is in its moments.
    """
    d = r2 - r1[:, None]
    L = np.stack([2.0 * r2 * r1[:, None], d * d], axis=-1)
    V = np.stack([vers, np.ones_like(vers)])

    def exp_phi(ks, js):
        Lb = L[ks, js]
        a2 = Lb.reshape(-1, 2) @ V
        return weight._exp_neg_phi_a2(a2).reshape(Lb.shape[:2] + (-1,))

    return exp_phi


@functools.lru_cache(maxsize=32)
def _outer_gather(degree, na, turn, invariant, diagonal):
    """(blocks, dst, src, e), built once and read-only: the index blocks of a
    bidisk Gram (1 x 1 for a ``diagonal`` Gram, by total degree on the
    ``invariant`` path, else one), and for each entry G[(m, n), (m', n')] in
    a block, its flat place ``dst`` in the stack of blocks, its flat place
    ``src`` in the output A[m + m', outer offset, n, n'] of the outer FFT
    over ``na`` outer angles, and its outer offset e = m' - m (+ n' - n when
    the inner rule ``turn``s with the outer phase), read at -e mod na."""
    nb = degree + 1
    blocks = _index_split(nb * nb, degree if invariant else None, diagonal)
    valid = blocks >= 0
    k, i, j = np.nonzero(valid[:, :, None] & valid[:, None, :])
    dst = (k * blocks.shape[1] + i) * blocks.shape[1] + j
    (m, n), (mp, np_) = np.divmod(blocks[k, i], nb), np.divmod(blocks[k, j], nb)
    e = (mp - m) + turn * (np_ - n)
    src = (((m + mp) * na + (-e) % na) * nb + n) * nb + np_
    for x in (dst, src, e):
        x.flags.writeable = False
    return blocks, dst, src, e


def _bidisk_gram(weight, degree, rule, density=None):
    """Gram of z1^m z2^n (m, n <= degree), with one angular stage per Gram.

    Every radial factor (quadrature weight, density, power) is in the radial
    tables of ``_powers``: C[s1, r] = w_r rho(r) r^(s1+1) over the outer
    radii, built once, and the inner moments P[k, s2, j] of a run of outer
    radii (``_RUN``), built at once from the rule's ``_inner_rules``: one
    table per outer radius under diagonal grading, where the inner rule
    depends on r1, and otherwise a broadcast view of the one table of the
    shared inner rule.  Radii where the density is 0 are dropped from both
    before any evaluation.  ``_rows`` evaluates e^{-phi} on blocks of as
    many outer radii of the run as fit in ``_BLOCK`` nodes (grid T[outer
    radius, inner radius, outer angle, inner angle]; an equal share of one
    outer radius's inner radii when it holds more) and contracts each block
    with one batched matrix product into the run's rows; one matrix product
    with C contracts those over the outer radii into one real accumulator
    R[s1, s2, outer angle, inner angle].
    The angular stage (``_angular``) then runs once on the accumulator, and
    the outer angular sum is one FFT at the offset m'-m (plus n'-n when the
    inner rule turns with the outer phase, as under diagonal grading).  The
    accumulator covers a span of outer angles that keeps it within about
    ``_BLOCK * (2*degree+1)`` reals, all of them unless the rule has many
    outer and inner angles.

    For diagonally invariant weights the outer angular integral is exact:
    only the outer angle 0 is evaluated, the Gram is its total-degree blocks,
    multiplied by 2 pi; a radial weight is evaluated at the inner rule's
    first phase only (``_evaluated_phases``), and its Gram is 1 x 1 blocks,
    its diagonal.  That needs an inner angular order above 2*degree, and inner
    angles closed under the outer rotations (diagonal grading, or an inner
    angular order that is a multiple of the outer one); otherwise the
    node-exact generic sum is taken instead.  The invariant
    path does not depend on the outer angular order, so it equals the rule's
    node sum only when that order exceeds 2*degree; at a lower order the node
    sum aliases the offsets m+n-m'-n' and the two differ.  On the invariant
    path z1 is real and the inner rule unturned, so a conjugation-symmetric
    weight is evaluated on the inner angles 0..n2/2 only; the generic path
    evaluates every angle.  There the regularized log needs no complex nodes:
    ``_polar_exp`` forms |z1 - z2|^2 from the radii and 1 - cos theta.
    """
    D = degree
    nb, ns = D + 1, 2 * D + 1
    n1, n2 = rule.rule1.angular_order, rule.rule2.angular_order
    invariant = bool(getattr(weight, "diagonal_rotation_invariant", False)) \
        and n2 > 2 * D and (rule.diagonal_grading or n2 % n1 == 0)
    outer = rule.rule1
    phases = np.ones(1, dtype=complex) if invariant else outer._phases
    turn = rule.diagonal_grading and not invariant
    # at the real z1 = r of the invariant path, phi(r, conj z2) = phi(r, z2)
    symmetric = invariant and bool(getattr(weight, "conjugation_symmetric", False))
    radial = invariant and bool(getattr(weight, "radial", False))
    ph = _evaluated_phases(rule.rule2, symmetric, radial, D)
    polar = invariant and hasattr(weight, "_exp_neg_phi_a2")
    vers = 2.0 * np.sin(0.5 * np.angle(ph)) ** 2  # 1 - cos theta
    radii, C = _powers(outer.radial_weights * outer.radii, outer.radii, ns, density)
    pw_scale = 2.0 * np.pi / n2
    span = max(1, _BLOCK // (ns * ph.size))  # outer angles per accumulator
    S = np.empty((ns, phases.size, nb, nb), dtype=complex)
    s2, d2 = _pairs(D)
    for a0 in range(0, phases.size, span):
        ph1 = phases[a0:a0 + span]
        # numbers of outer radii that do not depend on the degree, so
        # neither does the order in which they are summed
        per_block = max(1, _BLOCK // (rule.inner_size * ph1.size * ph.size))
        run = max(_RUN, per_block) if rule.diagonal_grading else _RUN * per_block
        # R[s1, s2 * outer angle * inner angle]
        R = np.zeros((ns, ns * ph1.size * ph.size))
        for lo in range(0, radii.size, run):
            r1 = radii[lo:lo + run]
            r2, w2 = rule._inner_rules(r1)
            if not rule.diagonal_grading:  # one inner rule: one table
                r2, w2 = r2[:1], w2[:1]
            r2, P = _powers(pw_scale * w2 * r2, r2, ns, density)
            r2 = np.broadcast_to(r2, r1.shape + r2.shape[1:])
            P = np.broadcast_to(P, r1.shape + P.shape[1:])
            if polar:
                exp_phi = _polar_exp(weight, r1, r2, vers)
            else:
                def exp_phi(ks, js):
                    z1 = (r1[ks, None] * ph1)[:, None, :, None]
                    z2 = (r2[ks, js, None] * ph)[:, :, None, :]
                    return _exp_weight(weight, (z1, ph1[:, None] * z2 if turn else z2))

            rows = _rows(exp_phi, P, ph1.size * ph.size)
            R += C[:, lo:lo + run] @ rows.reshape(r1.size, -1)
        K = _angular(R.reshape(ns, ns, ph1.size, ph.size), rule.rule2, D)
        S[:, a0:a0 + span] = K[:, s2, :, d2].transpose(2, 3, 0, 1)
        del R, K  # not held through the outer FFT and the gather
    A = np.fft.fft(S, axis=1) * (2.0 * np.pi / phases.size)
    blocks, dst, src, e = _outer_gather(D, phases.size, turn, invariant,
                                        ph.size == 1 < rule.rule2.angular_order)
    G = np.zeros(blocks.shape + blocks.shape[1:], dtype=complex)
    G.ravel()[dst] = A.take(src) * phases[0] ** e
    mons = [(a, b) for a in range(nb) for b in range(nb)]
    return mons, blocks, G


def _lens_gram(weight, degree, rule, density=None):
    """Gram of z1^m z2^n (m, n <= degree) on a lens rule, for a bidisk weight
    with e^{-phi} = f(|z1 - z2|^2) (``_exp_neg_phi_a2``), as one integral in
    t = |z1 - z2|.

    f is evaluated at the t-nodes t_j only.  The weighted values
    g_j = 2 pi w_j f(t_j^2) t_j are contracted once with the Chebyshev matrix
    T at the t-nodes (``LensRule.chebyshev``), and block k is
    G_k = sum_p (g T)_p C[p], C its table's coefficients (``_lens_block``);
    the Gram is 0 between total degrees m + n.
    """
    if density is not None or getattr(weight, "domain", None) != "bidisk" \
            or not hasattr(weight, "_exp_neg_phi_a2"):
        raise ParameterError(
            "a lens rule takes a bidisk weight whose e^{-phi} is a function "
            "of |z1 - z2|^2, with no density")
    t = rule.t
    g = 2.0 * np.pi * rule.weights * t * weight._exp_neg_phi_a2(t * t)
    if not np.all(np.isfinite(g)):
        raise DegeneracyError("weight produced non-finite e^{-phi} at quadrature nodes")
    gT = g @ rule.chebyshev(degree)
    nb = degree + 1
    blocks = _index_split(nb * nb, degree)
    G = np.zeros(blocks.shape + blocks.shape[1:], dtype=complex)
    for k in range(2 * degree + 1):
        C = _lens_block(k, max(0, k - degree))
        G[k, :C.shape[1], :C.shape[1]] = np.tensordot(gT[:C.shape[0]], C, 1)
    mons = [(a, b) for a in range(nb) for b in range(nb)]
    return mons, blocks, G


def _gram(weight, degree, rule, density=None):
    """(monomials, blocks, G): G[a,b] = int conj(e_a) e_b rho e^{-phi} for z^n
    on a disk rule or z1^m z2^n on a bidisk rule (all exponents <= degree),
    as the blocks G[k] over the indices ``blocks[k]`` (``_index_split``) and
    0 between them; rho(r) is an optional radial density, applied as
    rho(|z1|) rho(|z2|) on the bidisk.  The integral is the sum of
    w conj(e_a) e_b rho e^{-phi} over the rule's nodes, except for diagonally
    invariant bidisk weights, whose outer angular integral is exact (see
    ``_bidisk_gram``), and on a lens rule, where it is one integral in
    t = |z1 - z2| (see ``_lens_gram``)."""
    if isinstance(rule, LensRule):
        return _lens_gram(weight, degree, rule, density)
    if rule.domain == "bidisk":
        return _bidisk_gram(weight, degree, rule, density)
    ph = _evaluated_phases(rule, bool(getattr(weight, "conjugation_symmetric", False)),
                           bool(getattr(weight, "radial", False)), degree)
    pw = (2.0 * np.pi / rule.angular_order) * rule.radial_weights * rule.radii
    r, P = _powers(pw, rule.radii, 2 * degree + 1, density)
    R = _rows(lambda ks, js: _exp_weight(weight, (r[js, None] * ph,))[None], P[None],
              ph.size)[0]
    G = _angular(R, rule, degree)[_pairs(degree)]
    if ph.size == 1 < rule.angular_order:  # a radial weight's diagonal Gram
        return list(range(degree + 1)), _index_split(degree + 1, diagonal=True), \
            G.diagonal()[:, None, None]
    return list(range(degree + 1)), _index_split(degree + 1), G[None]


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


# the sign of each field of ``_twisted_gram`` under theta -> -theta, for a
# conjugation-symmetric weight: only Im(dphi e^{-phi}) is odd
_TWISTED_SIGN = np.array([1.0, 1.0, -1.0, 1.0, 1.0])[:, None]


def _twisted_gram(weight, degree, rule, density=None):
    """M[j, k] = sum w conj(b_j) b_k rho e^{-phi} over the nodes of a disk
    rule, for the twisted derivatives b_j = d^phi(z^j) = j z^(j-1) - z^j dphi
    (j <= degree, dphi = d_holomorphic) and an optional radial density rho.

    In the form b_0 = -dphi, b_j = z^(j-1) ((j-1) + v) with v = 1 - z dphi,
    every entry is a sum of the moments sum w conj(z)^a z^b F rho of five
    real fields F: e = e^{-phi}, the real and imaginary parts of dphi e,
    |dphi|^2 e and |v|^2 e, taken in one pass of the moment kernel (the
    fields are the batch of ``_rows``).  The moments of v e = e - z dphi e,
    which enter for j >= 2 only, come from those of e and dphi e.  Data
    f = z reads sum w |v|^2 e rho, with no cancellation between moments.  A
    conjugation-symmetric weight has dphi(conj z) = conj(dphi(z)): its
    Im(dphi e) is odd in the angle, the other fields even, and half the
    angles are evaluated.
    """
    D = degree
    ph = _evaluated_phases(rule, bool(getattr(weight, "conjugation_symmetric", False)))
    pw = (2.0 * np.pi / rule.angular_order) * rule.radial_weights * rule.radii
    # the entries take the moments up to r^(2D - 1)
    r, P = _powers(pw, rule.radii, max(2 * D, 1), density)

    def fields(ks, js):
        z = r[js, None] * ph
        dphi = weight.d_holomorphic(z)
        # a non-finite field fails the finite check of ``_rows``
        with np.errstate(over="ignore", invalid="ignore"):
            e = _exp_weight(weight, (z,))
            g = dphi * e
            return np.stack([e, g.real, g.imag, _abs2(dphi) * e,
                             _abs2(1.0 - z * dphi) * e], axis=1)[None]

    R = _rows(fields, P[None], 5 * ph.size).reshape(P.shape[0], 5, ph.size)
    K = _angular(R, rule, D, _TWISTED_SIGN)  # K[a + b, field, b - a + D]
    e, Q, V = K[:, 0], K[:, 3], K[:, 4]
    G = K[:, 1] + 1j * K[:, 2]
    M = np.empty((D + 1, D + 1), dtype=complex)
    k = np.arange(1, D + 1)
    # conj(b_0) b_k e = |dphi|^2 z^k e - k conj(dphi e) z^(k-1)
    M[0, 0] = Q[0, D]
    M[0, 1:] = Q[k, D + k] - k * G[k - 1, D - k + 1].conj()
    M[1:, 0] = M[0, 1:].conj()
    # j, k >= 1, a = j - 1, b = k - 1: conj(z)^a z^b ((a + conj v)(b + v)) e
    a = k - 1
    s, d = a[:, None] + a, a - a[:, None] + D
    ve = e[s, d] - G[s + 1, d + 1]  # the moments of v e
    M[1:, 1:] = (a[:, None] * a) * e[s, d] + a[:, None] * ve \
        + a * ve.T.conj() + V[s, d]
    return M


def default_rule(domain, weight=None):
    """The rule ``build_model`` takes when given none: a graded polar rule on
    the disk; on the bidisk, the lens rule at the weight's scale eps for a
    weight whose e^{-phi} is a function of |z1 - z2|^2 (the regularized log),
    and otherwise a tensor rule, diagonally graded for a weight invariant
    under the joint rotation."""
    if domain == "disk":
        return disk_rule(radial_order=48, angular_order=128, grading_levels=16)
    if hasattr(weight, "_exp_neg_phi_a2"):
        return LensRule(weight.epsilon)
    diag = bool(getattr(weight, "diagonal_rotation_invariant", False))
    return bidisk_rule(
        radial_order=(16, 16),
        angular_order=(64, 256),
        grading_levels=10,
        diagonal_grading=diag,
        diagonal_levels=12,
    )


def _checked_degree(degree):
    """A truncation degree as an int, after checking that it is an integer
    >= 1 (24.0 passes as 24; 2.7, nan and non-numbers are refused)."""
    return _checked_int("degree", degree, 1)


def build_model(domain, weight, degree, rule=None):
    """Assemble the truncated model: Gram matrix, factorization, diagnostics."""
    if domain not in ("disk", "bidisk"):
        raise ParameterError("unknown domain %r" % domain)
    degree = _checked_degree(degree)
    if getattr(weight, "domain", domain) != domain:
        raise ParameterError(
            "weight domain %r does not match model domain %r"
            % (getattr(weight, "domain", None), domain))
    _check_integrable(weight, degree, domain)
    if rule is None:
        rule = default_rule(domain, weight)
    if rule.domain != domain:
        raise ParameterError("%s model needs a %s rule" % (domain, domain))
    return BergmanModel(domain, weight, degree, *_gram(weight, degree, rule), rule)


def kernel(model, z, w):
    """B_0(z,w) for the truncated model."""
    return complex(model.kernel(z, w)) if np.isscalar(z) or (
        model.domain == "bidisk" and np.isscalar(z[0])
    ) else model.kernel(z, w)


def _ladder_level(model, k):
    """k as an int, after checking that the ladder defines E_k: an integer
    0 <= k <= degree on the disk (E_k spanned by z^n, n >= k), 0 on the bidisk."""
    k = _checked_int("k", k, 0)
    if k > model.degree:
        raise ParameterError("k must satisfy 0 <= k <= degree, got %r" % k)
    if model.domain != "disk" and k != 0:
        raise ParameterError("bidisk higher kernels beyond k=0 are not defined here")
    return k


def _basis_columns(model, stop):
    """The columns 0..stop-1 of ``basis_coeffs``, read from their blocks
    (``_at``: each index's place in ``_blocks.flat``, after the padding)."""
    if len(model._blocks) == 1:  # one block of every index, in index order
        return model._basis_blocks[0][:, :stop]
    k, q = np.divmod(model._at[:stop], model._blocks.shape[1])
    E = np.zeros((len(model.monomials) + 1, stop), dtype=model._basis_blocks.dtype)
    E[model._blocks[k].T, np.arange(stop)] = model._basis_blocks[k, :, q].T
    return E[:-1]


def higher_kernel(model, k):
    """B_k(0) = (k! E[k,k])^2: the squared norm of f -> f^{(k)}(0) on E_k,
    attained at e_k, which is the only vector of E_k (-) E_{k+1} with
    f^{(k)}(0) > 0 and norm 1."""
    k = _ladder_level(model, k)
    return float((math.factorial(k) * _basis_columns(model, k + 1)[k, k].real) ** 2)


def bergman_metric_at_zero(model):
    """omega_B(0) = B_1(0)/B_0(0) (the classical kernel/metric identity)."""
    if model.degree < 1:
        raise ParameterError("degree must be >= 1")
    return higher_kernel(model, 1) / higher_kernel(model, 0)


def log_kernel_gradient_at_zero(model):
    """d/dz log B_0(z,z) at 0 = e_0'(0)/e_0(0) = E[1,0]/E[0,0]: e_0 is the
    only ladder vector that does not vanish at 0."""
    if model.degree < 1:
        raise ParameterError("degree must be >= 1")
    if model.domain != "disk":
        raise ParameterError("log-kernel gradient implemented on the disk")
    E = _basis_columns(model, 1)
    return complex(E[1, 0] / E[0, 0])


def unit_ek(model, k):
    """e_k, the unit vector of E_k (-) E_{k+1} with e_k^{(k)}(0) > 0, as a
    full coefficient vector: column k of ``basis_coeffs``."""
    return _basis_columns(model, _ladder_level(model, k) + 1)[:, -1].copy()
