"""Weights on the disk and bidisk: structured singular parts, clamped and
regularized variants, twisted derivatives, and cut-off families.

A weight is phi(z) = sum_j r_j log|f_j(z)|^2 + psi(z) with polynomial factors
f_j and a real-polynomial smooth part psi.  Evaluation at a zero of some f_j
returns -inf (a tagged sentinel, never an exception), so e^{-phi} is +inf
there when r_j > 0.  Quadrature nodes can lie on such zeros: plain tensor
bidisk rules put nodes on the curves z1 = c z2, |c| = 1.  A Gram matrix then
fails its finite check with DegeneracyError, and a node sum (``integrate``)
raises EvaluationError naming the node.

Each f_j, psi and cut-off section is a sympy string, compiled once per shape:
the text with ``^`` spelled ``**`` and its nonzero float literals outside
exponents, found on its Python syntax tree, replaced by coefficient names
(``_shape_text``, the one place that reads ``^``).  Only a new shape is
compiled, so halfplane(m) weights of every m share one compiled function and
bind their coefficient at call time; arithmetic between literals (2.0*x*3.0)
is evaluated as written.  A polynomial smooth part (``_expand``: variables,
numeric literals, +, -, *, / by a nonzero constant term, ** by a non-negative
integer literal) and a disk log factor or section that is one monomial c z^k
compile without sympy (``_Polynomial``), since importing sympy and compiling
a first shape take longer than a whole model of a simple weight: the value
is the text, and the derivatives and flags come from its expansion into
monomials with exact coefficients.  The monomial's zero 0, of multiplicity
k, needs no sympy either.  So a process whose weights are polynomial smooth
parts, monomial disk log factors, the named disk families, their clamps,
zero:bidisk or reglog never imports sympy.  Every other shape, and the zeros
of every other log factor, go through sympy (``_Shape``).

Every weight has one canonical spec, a JSON-ready dict: a family of
``_FAMILIES`` with all of its parameters, or the ``log_terms``/``smooth``/
``domain`` of a free-form :class:`Weight`.  ``from_dict`` builds any weight
from its spec, ``to_dict`` gives it back, ``describe`` renders it, and
``shorthand`` turns the CLI spelling ``name:arg:...`` into a spec.

Three symmetry flags tell Gram assembly where e^{-phi} need not be evaluated:
``conjugation_symmetric`` (phi(conj z) = phi(z)), the bidisk's
``diagonal_rotation_invariant`` (phi(e^{ia} z1, e^{ia} z2) = phi(z1, z2)) and
``radial`` (phi a function of |z|, or of |z1| and |z2|: every log factor a
single monomial, the smooth part annihilated by every angular derivative
x_j d/dy_j - y_j d/dx_j).  A free-form weight reads them once per shape off
the shape's exact expansion into monomials, with one function (``_flags``)
for either kind of shape; clamped weights and branch restrictions take them
from their base or parent, the regularized log from its direction.  No
constructor takes them.
"""

from __future__ import annotations

import ast
import copy
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import EvaluationError, ParameterError
from .quadrature import _gauss_legendre

# entries of the zeros cache (one per log-factor text and domain) and of the
# shape cache (one per shape text and domain, which texts that differ only in
# their float literals share)
_PARSE_CACHE_SIZE = 256
_SHAPE_CACHE_SIZE = 64

# the prefix of the coefficient names _c0, _c1, ... of a shape text
_COEFF = "_c"


def _names(domain, holomorphic):
    """The variable names of an expression: log factors and sections are
    holomorphic in z or (z1, z2), smooth parts are real functions of (x, y)
    or (x1, y1, x2, y2)."""
    if holomorphic:
        return "z" if domain == "disk" else "z1 z2"
    return "x y" if domain == "disk" else "x1 y1 x2 y2"


def _symbols(domain, holomorphic):
    """The sympy variables of an expression (``_names``), real for a smooth
    part."""
    import sympy as sp
    if holomorphic:
        return sp.symbols(_names(domain, True), seq=True)
    return sp.symbols(_names(domain, False), seq=True, real=True)


def _shape_text(text):
    """(shape text, literals, values): ``text`` with ``^`` spelled ``**``,
    as sympify reads it (in a comment or a string too, which changes nothing
    that matters), and each nonzero float literal outside an exponent, found
    on the Python syntax tree, spliced out at the tree's offsets for a
    coefficient name, one per distinct value; the literals in name order, as
    written and as floats.  A unary minus stays in the text, so that
    c*x1*y2 - c*x2*y1 keeps its cancellation.  Zero, integer and complex
    literals, any literal in the right operand of ``**``, a whole call
    argument, signed or not (Float(-0.5), Max(0.25, x)), and a subscripted
    value (the repeated decimal 1.2[3]) stay as written: sympify needs their
    numbers.  SyntaxError or ValueError on a text Python cannot parse."""
    source = text.replace("^", "**")
    body = source.lstrip()  # eval, and so sympify, skips leading whitespace
    tree = ast.parse(body, mode="eval")
    floats, kept = [], set()  # kept: the ids of the constants that stay as written
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            if type(node.value) is float and node.value:
                floats.append(node)
        elif isinstance(node, ast.Name) and node.id.startswith(_COEFF):
            return source, (), ()  # the text's own _c names must stay unknown names
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            kept.update(map(id, ast.walk(node.right)))
        elif isinstance(node, ast.Subscript):
            kept.add(id(node.value))
        elif isinstance(node, ast.Call):
            for arg in node.args + [k.value for k in node.keywords]:
                while isinstance(arg, ast.UnaryOp):
                    arg = arg.operand
                kept.add(id(arg))
    lifted = sorted((n for n in floats if id(n) not in kept),
                    key=lambda n: (n.lineno, n.col_offset))
    # the tree's offsets are UTF-8 byte columns of each line
    data = body.encode()
    starts = list(itertools.accumulate(map(len, data.splitlines(True)), initial=0))
    pieces, literals, values, pos = [], [], [], 0
    for n in lifted:
        start = starts[n.lineno - 1] + n.col_offset
        end = starts[n.end_lineno - 1] + n.end_col_offset
        if n.value not in values:
            values.append(n.value)
            literals.append(data[start:end].decode())
        pieces += [data[pos:start], (_COEFF + str(values.index(n.value))).encode()]
        pos = end
    shape = b"".join(pieces + [data[pos:]]).decode()
    return source[:len(source) - len(body)] + shape, tuple(literals), tuple(values)


def _parse(text, domain, holomorphic):
    """(shape, literals, values): the compiled shape of an expression text
    (``_shape_text``), and the float literals its coefficient names stand
    for, as written and as values.  Errors quote ``text``."""
    try:
        shape_text, literals, values = _shape_text(text)
    except (SyntaxError, ValueError):
        shape_text, literals, values = text, (), ()  # sympify reports the error
    try:
        shape = _compile(shape_text, len(literals), domain, holomorphic)
        if not all(map(math.isfinite, values)):  # 1e400
            raise ParameterError("not finite")
    except ParameterError as exc:
        raise ParameterError("cannot parse expression %r: %s"
                             % (text, str(exc).replace(shape_text, text))) from None
    return shape, literals, values


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _compile(text, n_coeffs, domain, holomorphic):
    """The compiled shape of a shape text with coefficient names _c0, ...,
    _c<n_coeffs - 1>.  A polynomial text (``_expand``) compiles without
    sympy into a ``_Polynomial``: importing sympy and compiling one shape
    take longer than a whole model of a simple weight.  A holomorphic text
    does only when it is one disk monomial c z^k: the derivative of any
    other expansion cancels near a repeated zero, as (z - 0.3)**8 does at
    0.3 + 1e-6, and ``Weight._d`` divides it by the factor's value.  Every
    other text compiles through sympy into a ``_Shape``.  ParameterError,
    naming what is wrong, on a text that is not a finite expression in the
    domain's variables, and on a smooth part that is not real."""
    table = _expand(text, n_coeffs, domain, holomorphic)
    if table is not None and (not holomorphic or domain == "disk"
                              and len({e[1] for e in table}) == 1):
        return _Polynomial(text, table, n_coeffs, domain, holomorphic)
    import sympy as sp
    variables = _symbols(domain, holomorphic)
    # the literals are unsigned: a minus sign stays in the text
    coefficients = tuple(sp.Symbol(_COEFF + str(i), positive=True)
                         for i in range(n_coeffs))
    names = {str(v): v for v in variables + coefficients}
    try:  # attribute access and subscripts fail inside sympify's eval
        expr = sp.sympify(text, locals=names)
    except (sp.SympifyError, AttributeError, TypeError, IndexError) as exc:
        raise ParameterError(exc)
    if not isinstance(expr, sp.Expr):  # a relation, a Python builtin, ...
        raise ParameterError("not an expression")
    # a Python lambda sympifies to a sympy Lambda, which is an Expr but a
    # function, not a value at the variables
    if callable(expr) or expr.has(sp.Lambda):
        raise ParameterError("a function, not an expression")
    # a name sympy does not know (inf, a, ...) stays a free symbol, which the
    # compiled expression cannot bind
    unknown = sorted(map(str, expr.free_symbols - set(names.values())))
    if unknown:
        raise ParameterError("unknown names %s" % unknown)
    # nan, oo and numbers past the float range (10**400) left in the text
    if expr.has(sp.zoo) or not all(np.isfinite(float(n)) for n in expr.atoms(sp.Number)):
        raise ParameterError("not finite")
    return _Shape(expr, coefficients, domain, holomorphic)


class _Shape:
    """An expression shape compiled once: its value ``f`` and derivatives
    ``d[j]``, each called as fn(*variables, *coefficients), and the symmetry
    flags shared by every expression of the shape.

    The j-th derivative is d/dz_j of a holomorphic expression, and
    (d/dx_j - i d/dy_j)/2 of a real one.  The flags are read (``_flags``) off
    the table of sympy's expansion into monomials, each coefficient split
    into its real and imaginary parts, so a flag holds for the shape when it
    holds for generic coefficients and never where the concrete expression
    lacks the symmetry.  A non-polynomial expression is neither conjugation
    symmetric nor diagonally invariant, and radial only when it is real and
    its angular derivatives expand to 0.
    """

    def __init__(self, template, coefficients, domain, holomorphic):
        import sympy as sp
        self.template = template
        self.coefficients = coefficients
        self.domain = domain
        self.holomorphic = holomorphic
        self.variables = _symbols(domain, holomorphic)
        args = self.variables + coefficients
        if holomorphic:
            d = [sp.diff(template, z) for z in self.variables]
        else:
            xy = self.variables
            d = [(sp.diff(template, x) - sp.I * sp.diff(template, y)) / 2
                 for x, y in zip(xy[::2], xy[1::2])]
        try:  # the derivatives of floor (x//2) and Mod (x % 2) print no code
            self.f = sp.lambdify(args, template, modules="numpy")
            self.d = [sp.lambdify(args, e, modules="numpy") for e in d]
        except (NotImplementedError, ValueError) as exc:
            raise ParameterError("no numpy code: %s" % str(exc).splitlines()[0])
        if not holomorphic:  # complex at generic points, as I*x or exp(I*x);
            # (x + I*y)*(x - I*y) is real with an imaginary part of rounding
            point = np.random.default_rng(0).uniform(0.1, 0.6, (len(args), 3))
            try:
                with np.errstate(all="ignore"):
                    value = self.f(*point)
            except NameError as exc:  # besselj: a sympy function numpy lacks
                raise ParameterError("no numpy code: %s" % exc)
            if template.is_real is False or np.any(abs(value.imag) > 1e-9 * abs(value)):
                raise ParameterError("a smooth part must be real")
        try:  # the EX domain keeps the coefficient symbols as they are, and
            # skips the mpmath context that a RealField domain builds per call
            terms = sp.Poly(template, *self.variables, domain="EX").terms()
        except sp.PolynomialError:
            xy = self.variables
            self.conjugation_symmetric = self.diagonal_invariant = False
            self.radial = not holomorphic and all(
                sp.expand(x * sp.diff(template, y) - y * sp.diff(template, x)) == 0
                for x, y in zip(xy[::2], xy[1::2]))
            return
        table = {}
        for monomial, c in terms:
            for i, part in enumerate((c, 0) if c.is_real else c.as_real_imag()):
                if part:
                    table[(i,) + monomial] = part
        self.conjugation_symmetric, self.radial, self.diagonal_invariant = \
            _flags(table, domain, holomorphic)


# -- polynomial shapes: compiled from their monomial table, without sympy ---
#
# A table maps each term's key (i, e_1, ..., e_n) to a nonzero Fraction: the
# term is the Fraction times i**i (i = 0 or 1, the imaginary unit) times the
# product of name_k**e_k over the variables and then the coefficient names.
# Coefficient exponents may be negative, after a division by a coefficient.

def _plus(p, q):
    out = dict(p)
    for e, a in q.items():
        out[e] = out.get(e, 0) + a
    return {e: a for e, a in out.items() if a}


def _times(p, q):
    out = {}
    for e, a in p.items():
        for f, b in q.items():
            k = tuple(map(operator.add, e, f))
            if k[0] == 2:  # i * i = -1
                k, b = (0,) + k[1:], -b
            out[k] = out.get(k, 0) + a * b
    return {e: a for e, a in out.items() if a}


def _power(p, n, one):
    out = {one: Fraction(1)}
    while n:
        if n & 1:
            out = _times(out, p)
        n >>= 1
        if n:
            p = _times(p, p)
    return out


def _inverse(q, n_vars):
    """1/q for a single term q free of the variables: 1/(a i^s c^k) =
    (-1)^s/a i^s c^-k.  ValueError for any other q (0, a sum)."""
    if len(q) != 1 or any(next(iter(q))[1:1 + n_vars]):
        raise ValueError("not a division by a nonzero constant term")
    (e, a), = q.items()
    return {(e[0],) + tuple(-k for k in e[1:]): (-1 if e[0] else 1) / a}


def _expand(text, n_coeffs, domain, holomorphic):
    """The table of a polynomial shape text, or None for any other text.
    A shape text spells ``^`` as ``**`` (``_shape_text``).  It is polynomial
    when its Python syntax tree holds only the domain's variables and
    coefficient names, numeric literals, +, - and *, / by a nonzero constant
    term (a number times coefficient names) and ** by a non-negative integer
    literal, and every subexpression's numbers lie in the float range.  The
    table (module comment above) is the expansion with exact numbers: each
    literal is the rational its digits spell (1e-400 is not 0), 1j the
    imaginary unit."""
    names = _names(domain, holomorphic).split()
    n_vars = len(names)
    names += [_COEFF + str(i) for i in range(n_coeffs)]
    source = text.strip()
    one = (0,) * (1 + len(names))

    def term(value, i=0, name=None):
        e = list(one)
        e[0] = i
        if name is not None:
            e[1 + names.index(name)] = 1
        return {tuple(e): value} if value else {}

    def walk(node):
        kind = type(getattr(node, "op", None))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
            digits = ast.get_source_segment(source, node).replace("_", "")
            if type(node.value) is complex:
                p = term(Fraction(digits[:-1]), 1)
            else:
                p = term(Fraction(node.value if type(node.value) is int else digits))
        elif isinstance(node, ast.Name) and node.id in names:
            p = term(Fraction(1), name=node.id)
        elif isinstance(node, ast.UnaryOp) and kind in (ast.UAdd, ast.USub):
            p = _times(walk(node.operand), term(Fraction(-1 if kind is ast.USub else 1)))
        elif isinstance(node, ast.BinOp) and kind is ast.Pow:
            n = node.right
            if not (isinstance(n, ast.Constant) and type(n.value) is int):
                raise ValueError("not an integer literal exponent")
            p = _power(walk(node.left), n.value, one)
        elif isinstance(node, ast.BinOp) and kind in (ast.Add, ast.Sub, ast.Mult, ast.Div):
            p, q = walk(node.left), walk(node.right)
            if kind is ast.Add:
                p = _plus(p, q)
            elif kind is ast.Sub:
                p = _plus(p, _times(q, term(Fraction(-1))))
            else:
                p = _times(p, q if kind is ast.Mult else _inverse(q, n_vars))
        else:
            raise ValueError("not a polynomial")
        for a in p.values():
            float(a)  # OverflowError past the float range, as 10**400
        return p

    try:
        return walk(ast.parse(source, mode="eval").body)
    except (SyntaxError, ValueError, OverflowError):
        return None


def _source(table, names):
    """Python source of a table: a sum of terms number*name**k*..., with a
    negative exponent (of a coefficient name) as a division."""
    numbers = {}
    for (i, *e), a in table.items():
        numbers.setdefault(tuple(e), [0, 0])[i] += a
    terms = []
    for e, (re, im) in numbers.items():
        number = repr(float(re)) if not im else "%rj" % float(im) if not re \
            else "(%r + %rj)" % (float(re), float(im))
        terms.append(number + "".join(
            ("*" if k > 0 else "/") + n + ("**%d" % abs(k) if abs(k) > 1 else "")
            for n, k in zip(names, e) if k))
    return " + ".join(terms) or "0"


def _partial(table, k):
    """The derivative of a table by its k-th variable (key position k + 1)."""
    return {e[:k + 1] + (e[k + 1] - 1,) + e[k + 2:]: e[k + 1] * a
            for e, a in table.items() if e[k + 1]}


def _rotation_invariant(table, pairs):
    """Whether the sum over j in ``pairs`` of x_j d/dy_j - y_j d/dx_j, the
    generator of the rotations z_j -> e^{ia} z_j for j in ``pairs``,
    annihilates a real table in (x1, y1, x2, y2) or (x, y)."""
    out = {}
    for e, a in table.items():
        for j in pairs:
            x, y = 1 + 2 * j, 2 + 2 * j  # the key positions of x_j and y_j
            for up, down, c in ((x, y, e[y]), (y, x, -e[x])):
                if c:
                    k = list(e)
                    k[up] += 1
                    k[down] -= 1
                    out[tuple(k)] = out.get(tuple(k), 0) + c * a
    return not any(out.values())


def _flags(table, domain, holomorphic):
    """(conjugation_symmetric, radial, diagonal_invariant) of an expression
    from an exact table of its monomials: a ``_Polynomial``'s, or one whose
    keys (i, e_1, ..., e_n) stop at the variables and whose numbers are
    sympy expressions in the coefficients (``_Shape``).  A holomorphic e is
    conjugation symmetric, e(conj v) = conj(e(v)), when no term is imaginary;
    radial, |e| a function of each |z_j| alone, when it is one monomial
    c z^k (c z1^a z2^b); and diagonally invariant, |e| invariant under
    (z1, z2) -> (e^{ia} z1, e^{ia} z2), when it is homogeneous.  A real e is
    conjugation symmetric when it is even in y, jointly in y1 and y2, radial
    when every angular derivative x_j d/dy_j - y_j d/dx_j annihilates it, and
    diagonally invariant when their sum does."""
    n = len(_names(domain, holomorphic).split())
    monomials = {e[1:1 + n] for e in table}
    if holomorphic:
        return (not any(e[0] for e in table), len(monomials) == 1,
                domain == "bidisk" and len({sum(m) for m in monomials}) <= 1)
    # real coordinates ordered (x, y) or (x1, y1, x2, y2): y exponents sit at
    # the odd positions of each monomial
    return (all(sum(m[1::2]) % 2 == 0 for m in monomials),
            all(_rotation_invariant(table, [j]) for j in range(n // 2)),
            domain == "bidisk" and _rotation_invariant(table, range(n // 2)))


class _Polynomial:
    """A polynomial shape, compiled without sympy: a real polynomial, or a
    disk monomial c z^k (``_compile``).  The value ``f`` is the text as
    written, the derivatives ``d[j]`` (see ``_Shape``) are printed from its
    table (``_expand``), and the three flags are read off the table
    (``_flags``), each coefficient name a positive unknown.  A monomial's
    ``power`` is its k.  ParameterError on a smooth part with a non-real
    coefficient."""

    def __init__(self, text, table, n_coeffs, domain, holomorphic):
        self.domain = domain
        self.holomorphic = holomorphic
        names = _names(domain, holomorphic).split()
        n = len(names)
        if holomorphic:
            (self.power,), = {e[1:1 + n] for e in table}
            derivatives = [_partial(table, 0)]
        else:
            if any(e[0] for e in table):
                raise ParameterError("a smooth part must be real")
            one = (0,) * (1 + n + n_coeffs)
            half, minus_half_i = {one: Fraction(1, 2)}, {(1,) + one[1:]: Fraction(-1, 2)}
            derivatives = [_plus(_times(_partial(table, k), half),
                                 _times(_partial(table, k + 1), minus_half_i))
                           for k in range(0, n, 2)]
        self.conjugation_symmetric, self.radial, self.diagonal_invariant = \
            _flags(table, domain, holomorphic)
        args = ", ".join(names + [_COEFF + str(i) for i in range(n_coeffs)])
        self.f, *self.d = [eval("lambda %s: %s" % (args, s), {})
                           for s in ["(%s\n)" % text] + [_source(d, args.split(", ")) for d in derivatives]]


class _Expression:
    """An expression in the variables of a domain, compiled once per shape
    (``_parse``), with its coefficients bound.

    ``values`` and ``derivative(j, ...)`` (see ``_Shape``) take complex
    points, of which a real expression reads the real and imaginary parts,
    and broadcast to the points' shape.
    """

    def __init__(self, text, domain, holomorphic):
        self.text = str(text)
        self.holomorphic = holomorphic
        self.shape, _, self.coeffs = _parse(self.text, domain, holomorphic)

    def _call(self, fn, zs, dtype):
        zs = np.broadcast_arrays(*[np.asarray(z) for z in zs])
        args = zs if self.holomorphic else [c for z in zs for c in (z.real, z.imag)]
        out = np.asarray(fn(*args, *self.coeffs))
        # a real value takes its real part: (1+1j)*(1-1j)*x is 2x with a 0j
        out = np.asarray(out if dtype is complex else out.real, dtype=dtype)
        return np.broadcast_to(out, zs[0].shape).copy()

    def values(self, *zs):
        return self._call(self.shape.f, zs, complex if self.holomorphic else float)

    def derivative(self, j, *zs):
        return self._call(self.shape.d[j], zs, complex)


def _exact(expr):
    """``expr`` with every Float replaced by the rational its decimal digits
    spell out (0.09 -> 9/100)."""
    import sympy as sp
    return expr.xreplace({f: sp.Rational(str(f)) for f in expr.atoms(sp.Float)})


def _roots(poly):
    """Numerical roots of a sympy Poly in one variable."""
    return np.roots([complex(c) for c in poly.all_coeffs()])


def _meets_closed_disk(factor):
    """Whether an irreducible bidisk factor counts as vanishing on the closed
    bidisk: a factor in z1 or z2 alone does exactly when one of its roots
    lies in the closed unit disk; a factor in both variables always does."""
    import sympy as sp
    variables = factor.free_symbols
    if len(variables) != 1:
        return True
    return bool(np.any(np.abs(_roots(sp.Poly(factor, *variables))) <= 1.0 + 1e-12))


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _log_zeros(text, domain):
    """(zero, multiplicity) pairs of a log factor, as the integrability check
    adds up log orders: each root inside the disk (rounded to 9 digits), or
    each irreducible factor that meets the closed bidisk.

    Each factor base**k of the product as written is solved on its own, and
    its zeros count k times.  On the disk, the base first goes through a
    square-free factorization over the exact rationals of its decimal
    coefficients, so that a repeated root counts with its multiplicity
    however it is written: numerical root finding splits the double root of
    (z - a)**2, expanded or not, into two simple ones of half the order.
    """
    shape, literals, _ = _parse(text, domain, True)
    if isinstance(shape, _Polynomial):  # c z^k
        return ((0j, float(shape.power)),) if shape.power else ()
    import sympy as sp
    # the factor as written: each coefficient name back to its literal, a
    # Float as sympify makes of it
    expr = shape.template.xreplace(dict(zip(shape.coefficients, map(sp.Float, literals))))
    zeros = {}
    for factor in sp.Mul.make_args(expr):
        base, power = factor.as_base_exp()
        try:
            if domain == "disk":
                # + 0.0 turns a root's -0 parts into 0, for the messages
                found = [(np.round(complex(a), 9) + 0.0, m)
                         for f, m in sp.sqf_list(sp.Poly(_exact(base), *shape.variables))[1]
                         for a in _roots(f) if abs(a) < 1.0 - 1e-12]
            else:
                found = [(f, m) for f, m in sp.factor_list(base, *shape.variables)[1]
                         if _meets_closed_disk(f)]
        except sp.PolynomialError:
            raise ParameterError("cannot find the zeros of log factor %r: %s is not a "
                                 "polynomial" % (text, base)) from None
        for zero, mult in found:
            zeros[zero] = zeros.get(zero, 0.0) + mult * float(power)
    return tuple(zeros.items())


class _LogTerm:
    """One r_j * log|f_j|^2 term: the factor ``f`` and the ``zeros`` the
    integrability check reads."""

    def __init__(self, r, f_str, domain):
        if not 0 <= r < np.inf:
            raise ParameterError("log-term coefficient must be finite and >= 0, "
                                 "got %r" % r)
        self.r = float(r)
        self.f_str = str(f_str)
        self.domain = domain
        self.f = _Expression(self.f_str, domain, holomorphic=True)

    @property
    def zeros(self):
        return _log_zeros(self.f_str, self.domain)


class _Spec:
    """``to_dict`` and ``describe`` of every weight class, from ``self.spec``."""

    def to_dict(self):
        return copy.deepcopy(self.spec)

    def describe(self):
        return _render(self.spec)


class Weight(_Spec):
    """Structured weight phi = sum r_j log|f_j|^2 + psi on disk or bidisk.

    A bidisk weight's ``diagonal_rotation_invariant`` and any weight's
    ``conjugation_symmetric`` and ``radial`` hold when they hold for the
    shape of every log factor and of the smooth part (``_flags``)."""

    def __init__(self, log_terms=(), smooth="0", domain="disk"):
        if domain not in ("disk", "bidisk"):
            raise ParameterError("domain must be 'disk' or 'bidisk', got %r" % domain)
        self.domain = domain
        self.log_terms = [_LogTerm(r, f, domain) for r, f in log_terms]
        self.smooth = _Expression(smooth, domain, holomorphic=False)
        self.spec = {"log_terms": [{"r": t.r, "f": t.f_str} for t in self.log_terms],
                     "smooth": self.smooth.text, "domain": domain}
        shapes = [t.f.shape for t in self.log_terms] + [self.smooth.shape]
        self.diagonal_rotation_invariant = domain == "bidisk" and \
            all(s.diagonal_invariant for s in shapes)
        self.conjugation_symmetric = all(s.conjugation_symmetric for s in shapes)
        self.radial = all(s.radial for s in shapes)

    # -- the named families used by the experiments (see ``_FAMILIES``) -----

    @classmethod
    def zero(cls, domain="disk"):
        return from_dict({"family": "zero", "domain": domain})

    @classmethod
    def halfplane(cls, m):
        return from_dict({"family": "halfplane", "m": m})

    @classmethod
    def point_log(cls, r=1.0):
        return from_dict({"family": "point_log", "r": r})

    @classmethod
    def diagonal_log(cls):
        return from_dict({"family": "diagonal_log"})

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, *zs):
        """phi at the given point(s); -inf sentinel on the zero set of any f_j."""
        out = self.smooth.values(*zs)
        for t in self.log_terms:
            a2 = np.abs(t.f.values(*zs)) ** 2
            with np.errstate(divide="ignore"):
                out = out + t.r * np.log(a2)
        return out

    def _d(self, j, *zs):
        """dphi/dz_j at the nodes zs.  EvaluationError at a log singularity."""
        out = self.smooth.derivative(j, *zs)
        for t in self.log_terms:
            fv = t.f.values(*zs)
            if np.any(fv == 0):
                raise EvaluationError(
                    "derivative of %s requested at a singular point" % self.describe())
            out = out + t.r * t.f.derivative(j, *zs) / fv
        return out

    def d_holomorphic(self, *zs):
        """dphi/dz (disk).  EvaluationError at a log singularity."""
        if self.domain != "disk":
            raise ParameterError("d_holomorphic is a one-variable operation")
        return self._d(0, np.asarray(zs[0], dtype=complex))

    def d_branch(self, branch, z):
        """Holomorphic derivative along branch 1 ({z1=0}, variable z2) or
        branch 2 ({z2=0}, variable z1) of a bidisk weight."""
        if self.domain != "bidisk":
            raise ParameterError("d_branch needs a bidisk weight")
        z = np.asarray(z, dtype=complex)
        z1, z2 = (np.zeros_like(z), z) if branch == 1 else (z, np.zeros_like(z))
        return self._d(2 - branch, z1, z2)  # the free variable: z2 on V_1, z1 on V_2

    def restrict_to_branch(self, branch):
        """Disk-like evaluator of a bidisk weight on V_1={z1=0} or V_2={z2=0}."""
        return BranchWeight(self, branch)


class BranchWeight(_Spec):
    """Restriction of a bidisk weight to one branch of the cross."""

    domain = "disk"

    def __init__(self, parent, branch):
        if branch not in (1, 2) or parent.domain != "bidisk":
            raise ParameterError("branch must be 1 or 2, of a bidisk weight")
        self.parent = parent
        self.branch = int(branch)
        self.spec = {"family": "branch", "parent": parent.to_dict(),
                     "branch": self.branch}
        # phi(0, conj z) = phi(0, z) when phi is jointly conjugation symmetric
        self.conjugation_symmetric = getattr(parent, "conjugation_symmetric", False)
        # phi(0, e^{ia} z) = phi(0, z) when phi is invariant under the joint
        # rotation (z1, z2) -> (e^{ia} z1, e^{ia} z2)
        self.radial = bool(getattr(parent, "diagonal_rotation_invariant", False)
                           or getattr(parent, "radial", False))

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        zero = np.zeros_like(z)
        if self.branch == 1:
            return self.parent.evaluate(zero, z)
        return self.parent.evaluate(z, zero)

    def d_holomorphic(self, z):
        return self.parent.d_branch(self.branch, z)


class ClampedWeight(_Spec):
    """psi(z) = max(phi(z) + eps_coeff*log|z|^2, -floor) on the disk.

    A max of subharmonic functions, so psi is subharmonic when phi is.  psi is
    identically -floor on a small disk around the origin (the log term tends
    to -inf), which is what makes dpsi(0) = 0.
    """

    domain = "disk"

    def __init__(self, base, eps_coeff, floor):
        if not 0 < eps_coeff < np.inf:
            raise ParameterError("eps_coeff must be finite and > 0, got %r" % eps_coeff)
        if not np.isfinite(floor):
            raise ParameterError("floor must be finite, got %r" % floor)
        if getattr(base, "domain", "disk") != "disk":
            raise ParameterError("clamp_max applies to disk weights")
        self.base = base
        self.eps_coeff = float(eps_coeff)
        self.floor = float(floor)
        self.spec = {"family": "clamp", "base": base.to_dict(),
                     "eps_coeff": self.eps_coeff, "floor": self.floor}
        self.conjugation_symmetric = getattr(base, "conjugation_symmetric", False)
        # eps_coeff*log|z|^2 and the floor are radial
        self.radial = getattr(base, "radial", False)

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = self.base.evaluate(z) + self.eps_coeff * np.log(np.abs(z) ** 2)
        raw = np.where(np.isnan(raw), -np.inf, raw)
        return np.maximum(raw, -self.floor)

    def d_holomorphic(self, z):
        z = np.asarray(z, dtype=complex)
        clamped = self.evaluate(z) <= -self.floor
        safe = np.where(z == 0, 1.0, z)
        d = self.base.d_holomorphic(z) + self.eps_coeff / safe
        return np.where(clamped, 0.0, d)

    def plateau_radius(self):
        """Approximate radius below which psi == -floor (using phi(0) for the
        slowly varying base part)."""
        phi0 = float(self.base.evaluate(np.array(0.0 + 0.0j)))
        return float(np.exp((-self.floor - phi0) / (2.0 * self.eps_coeff)))


def clamp_max(weight, eps_coeff, floor):
    """Pointwise max(phi + eps_coeff*log|z|^2, -floor) as a weight evaluator."""
    return ClampedWeight(weight, eps_coeff, floor)


class RegularizedLogWeight(_Spec):
    """Smoothing of log|zeta|^2, zeta = z (disk) or z1-z2 (bidisk).

    style='convolution': the mollification against the normalized indicator
    of the eps-disk,
        phi_eps = (|zeta|^2 - eps^2)/eps^2 + log eps^2   for |zeta| < eps,
        phi_eps = log|zeta|^2                            otherwise,
    continuous across |zeta| = eps and decreasing to log|zeta|^2 as eps -> 0.

    style='shifted': phi_eps = log(eps^2 + |zeta|^2), so that e^{-phi_eps} is
    exactly 1/(eps^2 + |zeta|^2).

    Either way e^{-phi_eps} is a function of a2 = |zeta|^2 alone
    (``_exp_neg_phi_a2``), which Gram assembly evaluates on a2 formed from
    complex nodes (``_a2``) or, on the invariant bidisk path, from real polar
    arrays.
    """

    def __init__(self, epsilon, direction="z", style="convolution"):
        if not 0 < epsilon < np.inf:
            raise ParameterError("epsilon must be finite and > 0, got %r" % epsilon)
        if direction not in ("z", "z1-z2"):
            raise ParameterError("direction must be 'z' or 'z1-z2'")
        if style not in ("convolution", "shifted"):
            raise ParameterError("style must be 'convolution' or 'shifted'")
        self.epsilon = float(epsilon)
        self.direction = direction
        self.style = style
        self.domain = "disk" if direction == "z" else "bidisk"
        self.spec = {"family": "reglog", "epsilon": self.epsilon,
                     "style": style, "direction": direction}
        self.diagonal_rotation_invariant = direction == "z1-z2"
        self.conjugation_symmetric = True  # phi_eps depends on |zeta| only
        self.radial = direction == "z"

    def _a2(self, *zs):
        """|zeta|^2 at complex nodes."""
        zeta = zs[0] if self.direction == "z" else np.subtract(zs[0], zs[1])
        return np.abs(zeta) ** 2

    def evaluate(self, *zs):
        a2 = self._a2(*zs)
        e2 = self.epsilon**2
        if self.style == "shifted":
            return np.log(e2 + a2)
        with np.errstate(divide="ignore"):
            outer = np.log(a2)
        return np.where(a2 < e2, (a2 - e2) / e2 + np.log(e2), outer)

    def _exp_neg_phi_a2(self, a2):
        """e^{-phi_eps} at a2 = |zeta|^2, without the log/exp round trip and
        finite everywhere: 1/(eps^2 + a2) (shifted), or
        exp(1 - min(a2, eps^2)/eps^2) / max(a2, eps^2) (convolution), which
        is 1/a2 outside the eps-tube a2 < eps^2.  Each is computed in place
        on one scratch array of a2's shape.
        """
        e2 = self.epsilon**2
        out = np.empty(np.shape(a2))
        if self.style == "shifted":
            np.add(a2, e2, out=out)
            return np.reciprocal(out, out=out)
        np.minimum(a2, e2, out=out)
        out *= -1.0 / e2
        out += 1.0
        np.exp(out, out=out)
        return np.divide(out, np.maximum(a2, e2), out=out)

    def _d_zeta(self, zeta):
        a2 = np.abs(zeta) ** 2
        e2 = self.epsilon**2
        if self.style == "shifted":
            return np.conj(zeta) / (e2 + a2)
        safe = np.where(zeta == 0, 1.0, zeta)
        return np.where(a2 < e2, np.conj(zeta) / e2, 1.0 / safe)

    def d_holomorphic(self, z):
        if self.domain != "disk":
            raise ParameterError("d_holomorphic is a one-variable operation")
        return self._d_zeta(np.asarray(z, dtype=complex))

    def d_branch(self, branch, z):
        # on V_1 zeta = -z2, and d/dz2 of phi_eps(-z2) is -d(-z2) = d(z2)
        return self.restrict_to_branch(branch).d_holomorphic(z)

    def restrict_to_branch(self, branch):
        """On either branch the restriction is the one-variable regularized
        log (phi_eps is radial in zeta)."""
        if self.domain != "bidisk":
            raise ParameterError("restrict_to_branch needs a bidisk weight")
        return RegularizedLogWeight(self.epsilon, "z", self.style)


# -- the canonical spec ------------------------------------------------------

def _clamp_shorthand(eps_coeff, floor, m="0"):
    """clamp:eps:A[:m] clamps phi = -2m Re z (the zero weight for m = 0)."""
    m = float(m)
    base = {"family": "halfplane", "m": m} if m else {"family": "zero"}
    return {"base": base, "eps_coeff": eps_coeff, "floor": floor}


# family -> (build, parameters, shorthand); the family None is a free-form
# Weight.  Parameters are listed in shorthand order, each with its default or,
# when it has none, its type; a dict parameter is a nested spec.  A shorthand
# function maps the args of name:arg:... where they are not the parameters
# in order.
_FAMILIES = {
    None: (lambda log_terms, smooth, domain:
           Weight([(t["r"], t["f"]) for t in log_terms], smooth, domain),
           {"log_terms": [], "smooth": "0", "domain": "disk"}, None),
    "zero": (lambda domain: Weight([], "0", domain), {"domain": "disk"}, None),
    "halfplane": (lambda m: Weight([], "%r*x" % (-2.0 * m)), {"m": 1.0}, None),
    "point_log": (lambda r: Weight([(r, "z")]), {"r": 1.0}, None),
    "diagonal_log": (lambda: Weight([(1.0, "z1-z2")], "0", "bidisk"), {}, None),
    "reglog": (lambda epsilon, style, direction:
               RegularizedLogWeight(epsilon, direction, style),
               {"epsilon": float, "style": "convolution", "direction": "z1-z2"},
               None),
    "clamp": (lambda base, eps_coeff, floor:
              ClampedWeight(from_dict(base), eps_coeff, floor),
              {"base": dict, "eps_coeff": float, "floor": float},
              _clamp_shorthand),
    "branch": (lambda parent, branch: BranchWeight(from_dict(parent), branch),
               {"parent": dict, "branch": int}, None),
}
# keys that earlier versions wrote into specs; they name no part of the
# model, so they are dropped
_LEGACY_KEYS = ("tag", "subharmonic")


def from_dict(spec):
    """The weight a canonical spec describes (module docstring); missing
    parameters take their defaults, and the built weight's ``to_dict`` lists
    them all."""
    spec = {k: v for k, v in spec.items() if k not in _LEGACY_KEYS}
    family = spec.pop("family", None)
    if family not in _FAMILIES:
        raise ParameterError("unknown weight family %r" % family)
    build, declared, _ = _FAMILIES[family]
    unknown = sorted(set(spec) - set(declared))
    if unknown:
        raise ParameterError("unknown weight parameters %s" % unknown)
    params = {}
    try:
        for k, default in declared.items():
            kind = default if isinstance(default, type) else type(default)
            # a parameter without a default raises KeyError when missing
            params[k] = kind(spec[k]) if k in spec or kind is default else default
            if kind is float and not np.isfinite(params[k]):
                raise ValueError("%s must be finite" % k)
        w = build(**params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError("bad %s weight %r: %r" % (family or "free-form", spec, exc))
    if family and isinstance(w, Weight):  # a named family of the free-form class
        w.spec = {"family": family, **params}
    return w


def shorthand(text):
    """The spec of name:arg:..., whose args fill the family's parameters in
    ``_FAMILIES`` order (clamp aside), e.g. halfplane:2 or reglog:0.1:shifted."""
    name, *args = text.split(":")
    if name not in _FAMILIES:
        raise ParameterError("unknown weight %r" % text)
    _, declared, expand = _FAMILIES[name]
    if expand is None and len(args) > len(declared):
        raise ParameterError("weight %r takes at most %d args" % (text, len(declared)))
    try:
        params = expand(*args) if expand else dict(zip(declared, args))
    except (TypeError, ValueError) as exc:
        raise ParameterError("bad weight shorthand %r: %s" % (text, exc))
    return {"family": name, **params}


def _render(spec):
    """One line naming every parameter of a spec, so that different specs
    never share a description (nor a sweep config hash)."""
    if "family" not in spec:
        terms = ["%r*log|%s|^2" % (t["r"], t["f"]) for t in spec["log_terms"]]
        return "weight(%s: %s)" % (
            spec["domain"], " + ".join(terms + [spec["smooth"]]))
    return "%s(%s)" % (spec["family"], ", ".join(
        "%s=%s" % (k, _render(v) if isinstance(v, dict) else repr(v))
        for k, v in spec.items() if k != "family"))


def twisted_derivative(weight, f_coeffs, z):
    """d^phi f = f'(z) - f(z) dphi(z) for a one-variable polynomial f.

    ``weight`` is any disk-like evaluator with d_holomorphic (including
    branch restrictions of bidisk weights)."""
    z = np.asarray(z, dtype=complex)
    c = np.asarray(f_coeffs, dtype=complex)
    fv = np.polynomial.polynomial.polyval(z, c)
    dfv = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(c))
    return dfv - fv * weight.d_holomorphic(z)


# -- cut-off families --------------------------------------------------------

def _rho(t):
    """C^1 plateau profile: 1 on (-inf,1], 0 on [2,inf), cubic between."""
    t = np.asarray(t, dtype=float)
    u = np.clip(t - 1.0, 0.0, 1.0)
    return 1.0 - 3.0 * u**2 + 2.0 * u**3


def _rho_prime(t):
    t = np.asarray(t, dtype=float)
    u = t - 1.0
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, -6.0 * u + 6.0 * u**2, 0.0)


class CutoffFamily:
    """rho_eps(z) = rho(|s|^2/eps^2), or the iterated-log plateau
    Xi_eps(z) = rho_eps(log log 1/|s|^2) with rho_eps equal to 1 on
    [0, 1/eps] and 0 beyond 1 + 1/eps."""

    def __init__(self, kind, epsilon, section="z", domain="disk"):
        if kind not in ("rho_eps", "xi_eps"):
            raise ParameterError("kind must be 'rho_eps' or 'xi_eps'")
        if not 0 < epsilon < np.inf:
            raise ParameterError("epsilon must be finite and > 0, got %r" % epsilon)
        if domain not in ("disk", "bidisk"):
            raise ParameterError("domain must be 'disk' or 'bidisk', got %r"
                                 % (domain,))
        self.kind = kind
        self.epsilon = float(epsilon)
        self.section_str = str(section)
        self.domain = domain
        self._s = _Expression(self.section_str, domain, holomorphic=True)

    def _ds2(self, *zs):
        """The sum of |ds/dz_j|^2."""
        return sum(np.abs(self._s.derivative(j, *zs)) ** 2 for j in range(len(zs)))

    def evaluate(self, *zs, mode="value"):
        """Value in [0,1], or the squared (real) gradient with mode='grad_sq'.

        Gradients use the closed-form chain rule; for a holomorphic section s
        the real gradient of |s|^2 has squared norm 4|s|^2|s'|^2."""
        a2 = np.abs(self._s.values(*zs)) ** 2
        e2 = self.epsilon**2
        if self.kind == "rho_eps":
            u = a2 / e2
            if mode == "value":
                return _rho(u)
            ds2 = self._ds2(*zs)
            return _rho_prime(u) ** 2 * 4.0 * a2 * ds2 / e2**2
        # xi_eps: argument log(log(1/|s|^2)); clamp to 1 when |s| >= 1
        with np.errstate(divide="ignore", invalid="ignore"):
            big_l = -np.log(a2)
            t = np.where(big_l > 0, np.log(np.where(big_l > 0, big_l, 1.0)), -np.inf)
        shifted = t - (1.0 / self.epsilon) + 1.0
        if mode == "value":
            return np.where(big_l > 0, _rho(shifted), 1.0)
        ds2 = self._ds2(*zs)
        safe_a2 = np.where(a2 > 0, a2, 1.0)
        safe_l = np.where(big_l > 0, big_l, 1.0)
        g = _rho_prime(shifted) ** 2 * 4.0 * ds2 / (safe_a2 * safe_l**2)
        return np.where(big_l > 0, g, 0.0)

    def gradient_decay_integral(self):
        """Disk integral of |d Xi_eps|^2 for the model section s_W = z.

        The transition band sits at radius exp(-e^{1/eps}/2) -- far below any
        two-dimensional grid for small eps -- so the radial integral is
        computed exactly by the substitution t = log(-2 log r):
            int_disk |d Xi|^2 dlam = 4 pi int rho_eps'(t)^2 e^{-t} dt.
        """
        if self.kind != "xi_eps" or self.section_str != "z":
            raise ParameterError("decay integral implemented for xi_eps with s=z")
        lo = 1.0 / self.epsilon
        x, w = _gauss_legendre(64)
        t = lo + 0.5 * (x + 1.0)
        wt = 0.5 * w
        vals = _rho_prime(t - lo + 1.0) ** 2 * np.exp(-t)
        return float(4.0 * np.pi * np.dot(wt, vals))


def sampled_laplacian_min(weight, n=50, h=1e-3, box=0.9):
    """Minimum five-point-stencil Laplacian of phi on an n x n grid in the
    disk, skipping points where any stencil value is non-finite."""
    xs = np.linspace(-box / np.sqrt(2), box / np.sqrt(2), n)
    X, Y = np.meshgrid(xs, xs)
    z = X + 1j * Y
    vals = []
    for dz in (0.0, h, -h, 1j * h, -1j * h):
        vals.append(np.asarray(weight.evaluate(z + dz), dtype=float))
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4.0 * vals[0]) / h**2
    ok = np.isfinite(lap)
    if not ok.any():
        raise EvaluationError("no finite stencil values on the sample grid")
    return float(lap[ok].min())
