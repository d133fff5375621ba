import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from bergext import (
    CutoffFamily,
    DegeneracyError,
    EvaluationError,
    ParameterError,
    RegularizedLogWeight,
    Weight,
    clamp_max,
)
from bergext import build_model, cli, sweeps, weights
from bergext.bergman import _check_integrable
from bergext.cli import parse_weight
from bergext.quadrature import bidisk_rule, disk_rule
from bergext.weights import from_dict, sampled_laplacian_min, twisted_derivative


def test_zero_weight():
    w = Weight.zero()
    z = np.array([0.1 + 0.2j, -0.5j])
    assert np.allclose(w.evaluate(z), 0.0)
    assert np.allclose(w.d_holomorphic(z), 0.0)


def test_halfplane_values_and_derivative():
    w = Weight.halfplane(3.0)
    z = np.array([0.25 - 0.1j, 0.4 + 0.4j])
    assert np.allclose(w.evaluate(z), -6.0 * z.real)
    # d/dz of -2m Re z = -m
    assert np.allclose(w.d_holomorphic(z), -3.0)


def test_point_log_sentinel_and_derivative():
    w = Weight.point_log(0.5)
    z = np.array([0.0j, 0.5 + 0.0j])
    vals = w.evaluate(z)
    assert vals[0] == -np.inf
    assert vals[1] == pytest.approx(0.5 * math.log(0.25))
    with pytest.raises(EvaluationError):
        w.d_holomorphic(z)
    assert np.allclose(w.d_holomorphic(np.array([0.5 + 0j])), 0.5 / 0.5)


def test_serialization_roundtrip():
    w = Weight([(0.5, "z**2 - 1/4")], "-2*x + y**2", "disk")
    d = w.to_dict()
    w2 = from_dict(d)
    z = np.array([0.3 + 0.1j, -0.2 + 0.6j])
    assert np.allclose(w.evaluate(z), w2.evaluate(z))
    assert d["domain"] == "disk"
    assert d["log_terms"][0]["r"] == 0.5


def test_bidisk_branch_restriction():
    w = Weight.diagonal_log()
    b2 = w.restrict_to_branch(2)  # {z2=0}: phi = log|z1|^2
    z = np.array([0.5 + 0.1j])
    assert np.allclose(b2.evaluate(z), np.log(np.abs(z) ** 2))
    assert np.allclose(b2.d_holomorphic(z), 1.0 / z)
    b1 = w.restrict_to_branch(1)  # {z1=0}: phi = log|z2|^2, d/dz2 = 1/z2
    assert np.allclose(b1.d_holomorphic(z), 1.0 / z)


def test_clamped_weight_plateau():
    base = Weight.halfplane(4.0)
    w = clamp_max(base, 0.4, 20.0)
    # deep inside the plateau the value is exactly -A and the derivative 0
    r = 0.5 * w.plateau_radius()
    z = np.array([r + 0j, 0.0j])
    assert np.allclose(w.evaluate(z), -20.0)
    assert np.allclose(w.d_holomorphic(z), 0.0)
    # far outside: agrees with phi + eps log|z|^2
    z = np.array([0.5 + 0.2j])
    assert np.allclose(w.evaluate(z),
                       base.evaluate(z) + 0.4 * np.log(np.abs(z) ** 2))


def test_clamp_monotone_in_eps():
    base = Weight.halfplane(2.0)
    z = np.exp(1j * np.linspace(0, 6, 40)) * np.linspace(0.05, 0.95, 40)
    lo = clamp_max(base, 0.1, 8.0).evaluate(z)
    hi = clamp_max(base, 0.3, 8.0).evaluate(z)
    # larger eps makes the log term more negative on |z|<1
    assert np.all(hi <= lo + 1e-12)


def test_regularized_log_convolution():
    eps = 0.2
    w = RegularizedLogWeight(eps, "z")
    inside = np.array([0.1 + 0.0j])
    outside = np.array([0.5 + 0.0j])
    assert w.evaluate(inside)[0] == pytest.approx(
        (0.01 - eps**2) / eps**2 + math.log(eps**2))
    assert w.evaluate(outside)[0] == pytest.approx(math.log(0.25))
    # continuity at |z| = eps
    a = w.evaluate(np.array([eps * (1 - 1e-9) + 0j]))[0]
    b = w.evaluate(np.array([eps * (1 + 1e-9) + 0j]))[0]
    assert a == pytest.approx(b, abs=1e-7)
    # derivative: conj(z)/eps^2 inside, 1/z outside
    assert w.d_holomorphic(inside)[0] == pytest.approx(0.1 / eps**2)
    assert w.d_holomorphic(outside)[0] == pytest.approx(2.0)


def test_regularized_log_shifted():
    w = RegularizedLogWeight(0.1, "z", style="shifted")
    z = np.array([0.3 + 0.4j])
    assert w.evaluate(z)[0] == pytest.approx(math.log(0.01 + 0.25))


@pytest.mark.parametrize("style", ["convolution", "shifted"])
def test_regularized_log_direct_exp(style):
    # e^{-phi} without the log/exp round trip: at zeta = 0, inside the
    # eps-disk, on |zeta| = eps and outside
    eps = 0.2
    zeta = np.array([0.0, 0.05 + 0.1j, -0.13j, eps, eps * np.exp(0.7j), 0.5, -0.3 + 0.9j])
    w = RegularizedLogWeight(eps, "z", style)
    ref = np.exp(-w.evaluate(zeta))
    assert np.allclose(w._exp_neg_phi_a2(w._a2(zeta)), ref, rtol=1e-15, atol=0)
    w2 = RegularizedLogWeight(eps, "z1-z2", style)
    z2 = np.array([0.1, -0.4j, 0.25 + 0.3j])[:, None]
    ref = np.exp(-w2.evaluate(zeta + z2, z2))
    a2 = w2._a2(zeta + z2, z2)
    assert np.allclose(w2._exp_neg_phi_a2(a2), ref, rtol=1e-15, atol=0)


def test_conjugation_symmetry_inferred():
    # phi(conj z) = phi(z) (jointly on the bidisk) holds when every log factor
    # has real coefficients and psi is even in y (jointly in y1 and y2)
    symmetric = {"halfplane:2": Weight.halfplane(2.0),
                 "point_log:0.5": Weight.point_log(0.5),
                 "clamp:0.2:6:2": clamp_max(Weight.halfplane(2.0), 0.2, 6.0),
                 "reglog:0.1": RegularizedLogWeight(0.1, "z1-z2"),
                 "reglog:0.1:shifted": RegularizedLogWeight(0.1, "z1-z2", "shifted"),
                 "zero:bidisk": Weight.zero("bidisk")}
    for text, obj in symmetric.items():
        assert parse_weight(text).conjugation_symmetric
        assert obj.conjugation_symmetric
    asymmetric = [Weight([(0.5, "z-0.5j")]), Weight([], "x*y"),
                  Weight([(0.5, "z1 - 1j*z2")], "0", "bidisk"),
                  Weight([], "0.3*x1 - 0.7*y1", "bidisk")]
    assert not any(w.conjugation_symmetric for w in asymmetric)
    # the flag does not depend on how a weight is written
    for w in asymmetric + [Weight([(0.5, "z-0.5")]), Weight.halfplane(2.0),
                           Weight.zero("bidisk")]:
        doc = json.dumps(w.to_dict())
        assert parse_weight(doc).conjugation_symmetric == w.conjugation_symmetric
    assert Weight([(0.5, "z-0.5")]).conjugation_symmetric
    assert not Weight([], "exp(x**2)").conjugation_symmetric
    # restrictions and clamps inherit the flag
    assert Weight.zero("bidisk").restrict_to_branch(2).conjugation_symmetric
    assert not Weight([(0.5, "z1 - 1j*z2")], "0", "bidisk") \
        .restrict_to_branch(1).conjugation_symmetric
    assert not clamp_max(Weight([], "x*y"), 0.2, 6.0).conjugation_symmetric


_DIAGONAL_INVARIANT = Weight([(0.5, "z1 - z2")], "x1*x2 + y1*y2", "bidisk")


@pytest.mark.parametrize("weight, radial", [
    ("zero", True), ("zero:bidisk", True), ("point_log:0.5", True),
    ("clamp:0.2:6", True), ('{"family": "reglog", "epsilon": 0.1, "direction": "z"}', True),
    (Weight([(0.3, "2*z**2")], "x**2+y**2"), True),
    (Weight([(0.3, "z1")], "x2**2+y2**2", "bidisk"), True),
    (Weight.diagonal_log().restrict_to_branch(2), True),
    (_DIAGONAL_INVARIANT.restrict_to_branch(1), True),
    (RegularizedLogWeight(0.1, "z1-z2").restrict_to_branch(1), True),
    (Weight([], "exp(x**2 + y**2)"), True),
    ("halfplane:1", False), ("clamp:0.2:6:2", False), ("reglog:0.1", False),
    (Weight([], "x**2-y**2"), False), (Weight([(0.5, "z-0.5")]), False),
    (Weight([], "x1*x2+y1*y2", "bidisk"), False), (_DIAGONAL_INVARIANT, False),
    (Weight([(0.5, "z1 + z2 - 0.5")], "0", "bidisk").restrict_to_branch(1), False),
    (Weight([(0.3, "z1 + z1**2")], "0", "bidisk"), False),
], ids=lambda v: v if isinstance(v, (str, bool)) else v.describe())
def test_radial_flag_inferred(weight, radial):
    # phi depends on |z| alone (|z1| and |z2| alone): every log factor a
    # single monomial, the smooth part annihilated by every angular
    # derivative; clamps and branch restrictions take it from their base or
    # a jointly rotation-invariant parent, the regularized log from its
    # direction.  The flag does not depend on how the weight is written.
    w = parse_weight(weight) if isinstance(weight, str) else weight
    assert w.radial is radial
    assert from_dict(w.to_dict()).radial is radial
    if radial:  # phi is unchanged under a rotation of each variable
        zs = _sample(w.domain)
        turned = [z * np.exp(1j * a) for z, a in zip(zs, (0.7, -1.9))]
        assert np.allclose(w.evaluate(*turned), w.evaluate(*zs), rtol=1e-13, atol=1e-13)


def test_twisted_derivative_vanishes_on_exact_log():
    # f = z, phi = log|z|^2 on the branch: df - f/z = 0
    w = RegularizedLogWeight(1e-12, "z")  # effectively log|z|^2 off 0
    z = np.array([0.3 + 0.1j, -0.6 + 0.2j])
    td = twisted_derivative(w, (0.0, 1.0), z)
    assert np.allclose(td, 0.0, atol=1e-12)


def test_twisted_derivative_claim_profile():
    eps = 0.2
    w = RegularizedLogWeight(eps, "z1-z2")
    b2 = w.restrict_to_branch(2)
    inside = np.array([0.1 + 0.0j])
    outside = np.array([0.5 + 0.0j])
    td_in = twisted_derivative(b2, (0.0, 1.0), inside)
    td_out = twisted_derivative(b2, (0.0, 1.0), outside)
    assert td_in[0] == pytest.approx((eps**2 - 0.01) / eps**2)
    assert td_out[0] == pytest.approx(0.0, abs=1e-14)


def test_cutoff_rho_plateau_and_support():
    fam = CutoffFamily("rho_eps", 0.3)
    z = np.array([0.1 + 0j, 0.3 + 0j, 0.5 + 0j])
    vals = fam.evaluate(z)
    assert vals[0] == 1.0          # |z|^2/eps^2 < 1
    assert vals[1] == 1.0          # == 1 boundary of plateau
    assert vals[2] == 0.0          # |z|^2/eps^2 > 2
    g = fam.evaluate(z, mode="grad_sq")
    assert g[0] == 0.0 and g[2] == 0.0


def test_cutoff_xi_decay():
    vals = [CutoffFamily("xi_eps", e).gradient_decay_integral()
            for e in (0.5, 0.25, 0.125, 0.0625)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5 * vals[0]
    # the decay is exponential in 1/eps
    assert vals[1] / vals[0] == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_cutoff_validation():
    with pytest.raises(ParameterError):
        CutoffFamily("nope", 0.1)
    with pytest.raises(ParameterError):
        CutoffFamily("rho_eps", -1.0)
    with pytest.raises(ParameterError):
        CutoffFamily("rho_eps", 0.1).gradient_decay_integral()


def test_cutoff_refuses_unknown_domain():
    # any domain other than the disk used to be taken for the bidisk
    with pytest.raises(ParameterError, match="domain"):
        CutoffFamily("rho_eps", 0.3, domain="tridisk")


def test_sampled_laplacian_subharmonic():
    assert sampled_laplacian_min(Weight.halfplane(2.0)) > -1e-6
    # the regularized log is only C^1 across |z| = eps; stencils straddling
    # the seam see an O(h) dip, so the tolerance is looser there
    assert sampled_laplacian_min(RegularizedLogWeight(0.3, "z")) > -1e-2


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 2 * math.pi))
def test_cutoff_values_in_unit_interval(r, theta):
    z = np.array([r * np.exp(1j * theta)])
    for fam in (CutoffFamily("rho_eps", 0.3), CutoffFamily("xi_eps", 0.5)):
        v = fam.evaluate(z)[0]
        assert -1e-12 <= v <= 1 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(0.05, 0.9))
def test_weight_roundtrip_eval(m, r):
    w = Weight.halfplane(m)
    w2 = from_dict(w.to_dict())
    z = np.array([r * np.exp(0.7j)])
    assert np.allclose(w.evaluate(z), w2.evaluate(z))


@pytest.mark.parametrize("w", [
    RegularizedLogWeight(0.1, "z1-z2", "shifted"),
    clamp_max(Weight.halfplane(2.0), 0.2, 6.0),
    Weight.diagonal_log().restrict_to_branch(2),
])
def test_to_dict_roundtrip(w):
    d = w.to_dict()
    w2 = from_dict(json.loads(json.dumps(d)))
    assert type(w2) is type(w)
    assert w2.to_dict() == d and w2.describe() == w.describe()
    z = np.array([0.3 + 0.1j, -0.2 + 0.6j])
    zs = (z, 0.5 * z) if w.domain == "bidisk" else (z,)
    assert np.array_equal(w2.evaluate(*zs), w.evaluate(*zs))


def test_spec_validation():
    # every key of a spec is read: a misspelt or missing parameter is an
    # error, never a silently different weight
    for bad in ({"family": "reglog"}, {"family": "halfplane", "q": 1.0},
                {"family": "nope"}, {"smoth": "x**2"},
                {"family": "branch", "parent": {"family": "zero"}, "branch": 1},
                {"family": "clamp", "base": {"family": "zero"}, "eps_coeff": -1.0,
                 "floor": 5.0}):
        with pytest.raises(ParameterError):
            from_dict(bad)
    with pytest.raises(ParameterError):
        parse_weight("zero:disk:extra")
    # missing parameters take their defaults, and to_dict lists them all
    assert from_dict({"family": "reglog", "epsilon": 0.1}).to_dict() == {
        "family": "reglog", "epsilon": 0.1, "style": "convolution",
        "direction": "z1-z2"}
    assert parse_weight("halfplane").to_dict() == {"family": "halfplane", "m": 1.0}


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: RegularizedLogWeight(_NAN),
    lambda: RegularizedLogWeight(_INF, "z1-z2"),
    lambda: clamp_max(Weight.zero(), _NAN, 5.0),
    lambda: clamp_max(Weight.zero(), _INF, 5.0),
    lambda: Weight([(_NAN, "z")]),
    lambda: Weight([(_INF, "z1 - z2")], "0", "bidisk"),
    lambda: CutoffFamily("rho_eps", _NAN),
    lambda: CutoffFamily("xi_eps", _INF),
    lambda: from_dict({"family": "halfplane", "m": _NAN}),
    lambda: from_dict({"family": "halfplane", "m": -_INF}),
    lambda: from_dict({"family": "point_log", "r": _NAN}),
    lambda: from_dict({"family": "reglog", "epsilon": _NAN}),
    lambda: from_dict({"family": "clamp", "base": {"family": "zero"},
                       "eps_coeff": _NAN, "floor": 5.0}),
    lambda: Weight([], "nan*x"),
    lambda: Weight([], "inf*x"),
    lambda: Weight([], "-oo*x"),
    lambda: Weight([], "1e400*y"),
    lambda: Weight([], "10**400*x"),
    lambda: Weight([(0.5, "z - zoo")]),
    lambda: Weight([], "a*x"),
], ids=["reglog-nan", "reglog-inf", "clamp-nan", "clamp-inf", "log-term-nan",
        "log-term-inf", "rho-nan", "xi-inf", "halfplane-nan", "halfplane-inf",
        "point-log-nan", "spec-reglog-nan", "spec-clamp-nan", "expr-nan",
        "expr-inf-name", "expr-oo", "expr-float-overflow", "expr-int-overflow",
        "expr-zoo", "expr-unknown-name"])
def test_non_finite_parameters_refused(build):
    # a NaN or infinite parameter would otherwise give a wrong model (an
    # empty eps-tube, a clamp at the floor everywhere) or a traceback
    with pytest.raises(ParameterError):
        build()


def test_function_valued_expression_refused(capsys):
    # a Python lambda sympifies to a sympy Lambda, an Expr that is a
    # function: refused as unparsable, at the spec and at the CLI, instead
    # of failing in the compiled weight
    for text in ("lambda: 1", "lambda x: x", "Lambda(x, x**2)",
                 "Lambda((), 1) + 1", "1 + Lambda(x, x)"):
        with pytest.raises(ParameterError, match="cannot parse expression"):
            from_dict({"smooth": text})
        spec = json.dumps({"smooth": text})
        assert cli.main(["kernel", "--degree", "2", "--weight", spec]) == 1
        assert "error: cannot parse expression" in capsys.readouterr().err
    # a function applied to a value is an ordinary expression
    w = from_dict({"smooth": "Lambda(x, x**2)(y)"})
    assert w.evaluate(np.array([0.3 + 0.4j]))[0] == pytest.approx(0.16)


@st.composite
def _spellings(draw):
    """A weight as CLI shorthand and as the Python object."""
    x = draw(st.floats(0.05, 0.9))
    kind = draw(st.sampled_from(("zero", "halfplane", "point_log", "reglog", "clamp")))
    if kind == "zero":
        domain = draw(st.sampled_from(("disk", "bidisk")))
        return "zero:" + domain, Weight.zero(domain)
    if kind == "halfplane":
        return "halfplane:%r" % (4 * x), Weight.halfplane(4 * x)
    if kind == "point_log":
        return "point_log:%r" % x, Weight.point_log(x)
    if kind == "reglog":
        style = draw(st.sampled_from(("convolution", "shifted")))
        return "reglog:%r:%s" % (x, style), RegularizedLogWeight(x, "z1-z2", style)
    floor = draw(st.floats(1.0, 8.0))
    m = draw(st.sampled_from((0.0, 2.0)))
    base = Weight.halfplane(m) if m else Weight.zero()
    return "clamp:%r:%r:%r" % (x, floor, m), clamp_max(base, x, floor)


@settings(max_examples=20, deadline=None)
@given(_spellings())
def test_spellings_give_one_model(spelling):
    # shorthand, JSON and the Python object are one weight: the same Gram,
    # description and sweep config hash
    text, obj = spelling
    forms = [parse_weight(text), parse_weight(json.dumps(obj.to_dict())), obj]
    if obj.domain == "disk":
        rule = disk_rule(radial_order=8, angular_order=16, grading_levels=4)
    else:
        rule = bidisk_rule(radial_order=(4, 4), angular_order=(8, 16),
                           grading_levels=4, diagonal_grading=True,
                           diagonal_levels=4)
    grams = [build_model(obj.domain, w, 3, rule=rule).gram for w in forms]
    for w, g in zip(forms, grams):
        assert np.abs(g - grams[-1]).max() <= 1e-12 * np.abs(grams[-1]).max()
        assert w.describe() == obj.describe()
    if obj.domain == "disk":
        hashes = {sweeps.run_lemma_suite([w], degree=2, check_convergence=False)
                  .provenance["config_hash"] for w in forms}
        assert len(hashes) == 1


# -- the compile path: one compiled function per expression shape ----------

_ZS = {"disk": (sp.Symbol("z"),), "bidisk": sp.symbols("z1 z2")}
_XY = {"disk": sp.symbols("x y", real=True),
       "bidisk": sp.symbols("x1 y1 x2 y2", real=True)}
# smooth-part terms by domain; {c} is a coefficient.  Products of real
# coordinates are written out with one coefficient, so that a symmetry never
# rests on a relation between two different values
_SMOOTH_TERMS = {
    "disk": ("{c}", "{c}*x", "{c}*y", "{c}*x*y", "{c}*(x**2 + y**2)",
             "{c}*x**3", "{c}*y**2", "{c}*x*y**2"),
    "bidisk": ("{c}", "{c}*x1", "{c}*y2", "{c}*x1*y1", "{c}*(x1**2 + y1**2)",
               "{c}*(x1*x2 + y1*y2)", "{c}*(x1*y2 - y1*x2)",
               "{c}*(x1*x2 - y1*y2)", "{c}*(x2**2 + y2**2)**2"),
}
# log factors: linear factors with a root or a ratio a + b*I, to a power;
# each is irreducible, and the zero set of a bidisk factor meets the bidisk
_FACTORS = {"disk": ("(z - ({a}))",),
            "bidisk": ("(z1 - ({a})*z2)", "(z2 - ({a})*z1)", "(z1*z2 - ({a}))")}


@st.composite
def _free_form(draw, domain):
    """A free-form weight (log_terms, smooth) with random float
    coefficients, and the log order of each of its zeros: per root inside
    the disk, or per factor over the bidisk, as the test built them."""
    coeff = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)

    def number():
        # a root or ratio: 0 (the origin, on the disk), real, or complex
        kind = draw(st.sampled_from(("zero", "real", "complex")))
        if kind == "zero" and domain == "disk":
            return 0.0, "0"
        if kind == "complex":
            a = complex(draw(coeff), draw(coeff))
            return a, "%r + %r*I" % (a.real, a.imag)
        a = draw(coeff)
        return a, repr(a)

    terms = draw(st.lists(st.sampled_from(_SMOOTH_TERMS[domain]), min_size=1,
                          max_size=3, unique=True))
    smooth = " + ".join(t.format(c="(%r)" % draw(coeff)) for t in terms)
    log_terms, orders = [], {}
    for _ in range(draw(st.integers(0, 2))):
        r, factors = draw(st.floats(0.05, 1.2)), []
        for _ in range(draw(st.integers(1, 2))):
            form = draw(st.sampled_from(_FACTORS[domain]))
            (a, text), k = number(), draw(st.integers(1, 2))
            if form == "(z1*z2 - ({a}))" and abs(a) >= 1:
                continue
            if domain == "bidisk" or abs(a) < 1:
                key = complex(a) if domain == "disk" else (form, a)
                orders[key] = orders.get(key, 0.0) + r * k
            factors.append("%s**%d" % (form.format(a=text), k))
        if factors:
            log_terms.append((r, "*".join(factors)))
    return log_terms, smooth, orders


def _reference(log_terms, smooth, domain):
    """phi, its holomorphic derivatives and both symmetry flags, from the
    concrete expressions by plain sympy."""
    zs, xy = _ZS[domain], _XY[domain]
    psi = sp.sympify(smooth, locals={str(v): v for v in xy})
    fs = [(r, sp.sympify(f, locals={str(v): v for v in zs})) for r, f in log_terms]
    psi_d = [(sp.diff(psi, x) - sp.I * sp.diff(psi, y)) / 2
             for x, y in zip(xy[::2], xy[1::2])]
    lam = lambda e, args: sp.lambdify(args, e, modules="numpy")

    def real(zv):
        return [c for z in zv for c in (z.real, z.imag)]

    def phi(*zv):
        out = lam(psi, xy)(*real(zv)) + 0 * zv[0].real
        for r, f in fs:
            out = out + r * np.log(np.abs(lam(f, zs)(*zv) + 0 * zv[0]) ** 2)
        return out

    def d(j, *zv):
        out = lam(psi_d[j], xy)(*real(zv)) + 0 * zv[0]
        for r, f in fs:
            out = out + r * lam(sp.diff(f, zs[j]), zs)(*zv) / lam(f, zs)(*zv)
        return out

    def poly(e, *gens):
        try:
            return sp.Poly(e, *gens)
        except sp.PolynomialError:
            return None

    conj = all(p is not None and all(sp.im(c) == 0 for c in p.coeffs())
               for p in (poly(f, *zs) for _, f in fs))
    p = poly(psi, *xy)
    conj = conj and p is not None and all(sum(m[1::2]) % 2 == 0 for m in p.monoms())
    diag = False
    if domain == "bidisk":
        w1, w2 = sp.symbols("w1 w2")
        x1, y1, x2, y2 = xy
        z1, z2 = zs
        to_z = {x1: (z1 + w1) / 2, y1: (z1 - w1) / (2 * sp.I),
                x2: (z2 + w2) / 2, y2: (z2 - w2) / (2 * sp.I)}
        q = poly(sp.expand(psi.subs(to_z)), z1, z2, w1, w2)
        diag = all(poly(f, *zs).is_homogeneous for _, f in fs) and \
            all(a + b == c + e for a, b, c, e in q.monoms())
    return phi, d, conj, diag


def _reference_killed(orders, degree):
    """The monomials the integrability check must reject: None when the
    weight is integrable, "all" when a zero off the origin has order >= 1,
    else the z^n with n <= s - 1 for the order s at the origin (|z^n|^2
    |z|^{-2s} is integrable near 0 exactly when n > s - 1)."""
    orders = dict(orders)
    order0 = orders.pop(0j, 0.0)
    if any(o >= 1.0 for o in orders.values()):
        return "all"
    if order0 >= 1.0:
        return [n for n in range(degree + 1) if n <= order0 - 1]
    return None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("disk", "bidisk")).flatmap(
    lambda d: st.tuples(st.just(d), _free_form(d))), st.integers(0, 2**32 - 1))
def test_compiled_weight_matches_concrete_expression(case, seed):
    domain, (log_terms, smooth, orders) = case
    w = Weight(log_terms, smooth, domain)
    phi, d, conj, diag = _reference(log_terms, smooth, domain)
    rng = np.random.default_rng(seed)
    zv = [0.95 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
          for _ in _ZS[domain]]
    assert np.allclose(w.evaluate(*zv), phi(*zv), rtol=1e-12, atol=1e-12)
    if domain == "disk":
        assert np.allclose(w.d_holomorphic(zv[0]), d(0, zv[0]), rtol=1e-12, atol=1e-12)
    else:
        zero = np.zeros_like(zv[0])
        assert np.allclose(w.d_branch(1, zv[1]), d(1, zero, zv[1]),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(w.d_branch(2, zv[0]), d(0, zv[0], zero),
                           rtol=1e-12, atol=1e-12)
    assert w.conjugation_symmetric == conj
    assert w.diagonal_rotation_invariant == diag
    if w.radial:  # phi is unchanged under a rotation of each variable
        turned = [z * np.exp(1j * a) for z, a in zip(zv, rng.uniform(0, 2 * np.pi, 2))]
        assert np.allclose(w.evaluate(*turned), phi(*zv), rtol=1e-12, atol=1e-12)
    killed = _reference_killed(orders, 3)
    if killed is None:
        _check_integrable(w, 3, domain)
    else:
        with pytest.raises(DegeneracyError) as exc:
            _check_integrable(w, 3, domain)
        if killed != "all":
            assert exc.value.offending_monomials == killed


def test_halfplane_weights_share_one_compiled_shape():
    a = Weight.halfplane(1.2345)
    before = weights._compile.cache_info()
    b = Weight.halfplane(6.789)
    after = weights._compile.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert a.smooth.shape is b.smooth.shape
    assert a.smooth.shape.f is b.smooth.shape.f
    assert np.array_equal(b.evaluate(np.array([0.5 + 0.25j])), [-2 * 6.789 * 0.5])
    # fixed texts are shape-cache hits
    for make in (lambda: Weight.point_log(0.5), Weight.zero,
                 lambda: Weight.diagonal_log()):
        make()
        before = weights._compile.cache_info()
        make()
        after = weights._compile.cache_info()
        assert after.misses == before.misses and after.hits > before.hits
    # every spelling of the text reaches the one polynomial shape
    assert isinstance(a.smooth.shape, weights._Polynomial)
    for spelling in ({"family": "halfplane", "m": 1.5}, {"smooth": "-3.0*x"}):
        assert from_dict(spelling).smooth.shape is a.smooth.shape
    assert Weight([], "-3.0*x").smooth.shape is a.smooth.shape
    # halfplane(0) writes -0.0*x, whose zero literal stays in the text
    zero = Weight.halfplane(0.0).smooth.shape
    assert isinstance(zero, weights._Polynomial) and zero is not a.smooth.shape


# every polynomial smooth part and disk monomial of tests/, the README, CI
# and perfbench (a text written with a random coefficient takes a few values,
# of every sign), the texts the named families write, and spellings the
# reading of a literal, of ^ and of 1j must get right
_POLYNOMIAL_TEXTS = {
    ("disk", False): (
        "0", "-3.0*x", "1.5*x", "-0.0*x", "x*y", "-3*x + 2*y", "-2.0*x", "-8.0*x",
        "x**2", "-6.0*x", "-1.5*x*2.0", "2.0*x*3.0", "1/2.5*x", "(0.5*x)**2",
        "1e-3*x*y", "0.12345678901234567890*x", "-2*x + y**2", "x*y + 0.5*y",
        "-4*x", "-800*x", "-5.6*x + 2.4*y", "(-1.25)*x*y**2 + (0.5)*(x**2 + y**2)",
        "(1.5)*x**3", "x**2-y**2", "x**2+y**2", "x^2+y^2", "1/4*x", "1e-400*x",
        "3*x**0", "(x+y)**2", "0.5*x + -0.25*y", "-0.5*x + 0.5*y",
        "(1+1j)*(1-1j)*x", "x/(2*1j)*1j", "x/(1 + 2)", "-8.0*x + 0.0*y"),
    ("bidisk", False): (
        "0", "0.3*x1 + 2*y2**3", "0.5*x1*y2 - y1", "x1*x2 + y1*y2", "x1*x2+y1*y2",
        "-800*x1", "-800*(x1**2+y1**2+x2**2+y2**2)", "x1**2 + y1**2 + x1*x2 + y1*y2",
        "0.3*x1 + 0.2*y1", "0.5*x1 + -0.3*y1", "-0.75*x1 + 0.25*y1",
        "0.3*x1 + 0.2*y2", "0.3*x1 - 0.7*y1", "(0.75)*x1*y2", "x2**2+y2**2",
        "0.0*x1", "0.5*x1*y2 - 0.5*x2*y1", "0.75*(x1*y2 - y1*x2)",
        "(0.75)*(x1*y2 - y1*x2)", "0.5*x1 + 0.5*y1", "-0.5*x1 + 0.25*y1",
        "0.5*x1 + -0.25*y1", "-0.5*x1 + -0.5*y1", "(x1**2 + y1**2)*(x2**2 + y2**2)",
        "(x1*x2 + y1*y2)**2 - (x1*y2 - x2*y1)**2"),
    ("disk", True): (
        "z", "2*z**2", "0.5j*z**3", "z*(z - 1) + z", "(2*z)**3/8", "3",
        "(1+1j)*z", "-z**4"),
}
_POLYNOMIAL = [(text, domain, holomorphic)
               for (domain, holomorphic), texts in _POLYNOMIAL_TEXTS.items()
               for text in texts]


def _sympy_shape(*key, _compile=weights._compile.__wrapped__):
    """The shape sympy compiles a shape text into: ``_compile`` with no
    polynomial route."""
    expand, weights._expand = weights._expand, lambda *args: None
    try:
        return _compile(*key)
    finally:
        weights._expand = expand


@pytest.mark.parametrize("text, domain, holomorphic", _POLYNOMIAL,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_polynomial_shape_is_its_sympy_derivation(monkeypatch, text, domain, holomorphic):
    shape_text, literals, values = weights._shape_text(text)
    key = (shape_text, len(literals), domain, holomorphic)
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "sympy", None)  # any import of sympy fails
        shape = weights._compile.__wrapped__(*key)
        if holomorphic:
            m.setattr(weights, "_compile", weights._compile.__wrapped__)
            zeros = weights._log_zeros.__wrapped__(text, domain)
    assert isinstance(shape, weights._Polynomial)
    ref = _sympy_shape(*key)
    assert (shape.conjugation_symmetric, shape.radial, shape.diagonal_invariant) == \
        (ref.conjugation_symmetric, ref.radial, ref.diagonal_invariant)
    # values and derivatives within a few ulp of the terms' size
    rng = np.random.default_rng(11)
    count = len(weights._names(domain, holomorphic).split())
    args = [rng.uniform(-1, 1, 64) + (1j * rng.uniform(-1, 1, 64) if holomorphic else 0)
            for _ in range(count)] + list(values)
    assert len(shape.d) == len(ref.d)
    for mine, theirs in zip((shape.f, *shape.d), (ref.f, *ref.d)):
        mine, theirs = (np.broadcast_to(fn(*args), (64,)) for fn in (mine, theirs))
        scale = max(1.0, np.abs(theirs).max())
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=8 * np.finfo(float).eps * scale)
    # a disk monomial's zero is found without sympy, and is sympy's
    if holomorphic:
        monkeypatch.setattr(weights, "_compile", _sympy_shape)
        assert weights._log_zeros.__wrapped__(text, domain) == zeros


@pytest.mark.parametrize("text, domain", [
    ("z-0.5", "disk"), ("z**2 - 0.6*z + 0.09", "disk"), ("(z-0.3)**2", "disk"),
    ("z - 0.5j", "disk"), ("z1", "bidisk"), ("z1*z2", "bidisk"), ("z1 - z2", "bidisk"),
])
def test_other_holomorphic_polynomials_compile_through_sympy(text, domain):
    # the derivative of an expansion cancels near a repeated zero, so only a
    # disk monomial's is printed from its table
    assert isinstance(weights._Expression(text, domain, True).shape, weights._Shape)


def test_log_factor_derivative_keeps_its_factored_form():
    z = np.array([0.3 + 1e-6, 0.3 - 2e-6j])
    f = weights._Expression("(z-0.3)**8", "disk", True)
    np.testing.assert_allclose(f.derivative(0, z), 8 * (z - 0.3) ** 7, rtol=1e-12)
    w = Weight([(0.1, "(z-0.3)**8")])
    np.testing.assert_allclose(w.d_holomorphic(z), 0.8 / (z - 0.3), rtol=1e-9)


@pytest.mark.parametrize("text, message", [
    ("x**2.0", None), ("x**-1", None), ("exp(x)", None), ("log(pi)", None),
    ("x.real", "'Symbol' object has no attribute 'real'"),
    ("lambda: 1", "a function, not an expression"),
    ("nan*x", "not finite"), ("10**400*x", "not finite"), ("1e400*y", "not finite"),
])
def test_other_texts_keep_their_route_and_messages(text, message):
    if message is None:
        assert isinstance(from_dict({"smooth": text}).smooth.shape, weights._Shape)
        return
    with pytest.raises(ParameterError) as err:
        from_dict({"smooth": text})
    assert str(err.value) == "cannot parse expression %r: %s" % (text, message)


@pytest.mark.parametrize("text, message", [
    ("1j*x", "a smooth part must be real"), ("I*x", "a smooth part must be real"),
    ("x*(2 + 0.5j)", "a smooth part must be real"),
    ("x//2", "no numpy code: Unsupported by"), ("x % 2", "no numpy code: NumPyPrinter"),
])
def test_complex_or_unprintable_smooth_part_refused(capsys, text, message):
    # a complex smooth part was cast to its real part with a ComplexWarning,
    # and a derivative lambdify cannot print was a traceback or a raw error
    with pytest.raises(ParameterError) as err:
        from_dict({"smooth": text})
    assert str(err.value).startswith("cannot parse expression %r: %s" % (text, message))
    spec = json.dumps({"smooth": text})
    assert cli.main(["kernel", "--degree", "2", "--weight", spec]) == 1
    assert "error: cannot parse expression %r" % text in capsys.readouterr().err


# -- the lifted parse: one sympify per expression shape ---------------------

def _full_parse(text, domain, holomorphic):
    """The parse of a whole text, kept as the reference for ``_parse``: the
    text goes through sympify and its checks, then each nonzero Float outside
    an exponent of the sympy tree becomes +-_c<i>, one real symbol per
    distinct magnitude.  Returns what ``_parse`` does: (shape, literals,
    values)."""
    variables = weights._symbols(domain, holomorphic)
    try:
        expr = sp.sympify(text, locals={str(v): v for v in variables})
    except (sp.SympifyError, AttributeError, TypeError, IndexError) as exc:
        raise ParameterError("cannot parse expression %r: %s" % (text, exc))
    if not isinstance(expr, sp.Expr):
        raise ParameterError("cannot parse expression %r: not an expression" % text)
    if callable(expr) or expr.has(sp.Lambda):
        raise ParameterError("cannot parse expression %r: a function, not an "
                             "expression" % text)
    unknown = sorted(map(str, expr.free_symbols - set(variables)))
    if unknown:
        raise ParameterError("cannot parse expression %r: unknown names %s"
                             % (text, unknown))
    if expr.has(sp.zoo) or not all(np.isfinite(float(n)) for n in expr.atoms(sp.Number)):
        raise ParameterError("cannot parse expression %r: not finite" % text)
    values = []

    def lift(e):
        if isinstance(e, sp.Float):
            if e == 0:
                return e
            v = float(e)
            if abs(v) not in values:
                values.append(abs(v))
            c = sp.Symbol("_c%d" % values.index(abs(v)), real=True)
            return -c if v < 0 else c
        if isinstance(e, sp.Pow):
            return sp.Pow(lift(e.base), e.exp)
        return e.func(*map(lift, e.args)) if e.args else e

    template = lift(expr)
    coefficients = tuple(sp.Symbol("_c%d" % i, real=True) for i in range(len(values)))
    shape = weights._Shape(template, coefficients, domain, holomorphic)
    return shape, tuple(map(repr, values)), tuple(values)


def _with_full_parse(monkeypatch, make):
    with monkeypatch.context() as m:
        m.setattr(weights, "_parse", _full_parse)
        return make()


def _sample(domain, seed=5, n=12):
    """Points off every zero set of the weights below, with Re z > 0 (so
    that x**-0.5 is real)."""
    rng = np.random.default_rng(seed)
    count = 1 if domain == "disk" else 2
    return [np.sqrt(rng.uniform(0.05, 0.8, n)) * np.exp(1j * rng.uniform(-1.2, 1.2, n))
            for _ in range(count)]


def _outputs(w):
    """evaluate, the holomorphic derivatives and the symmetry flags of a
    weight at the ``_sample`` points of its domain."""
    zs = _sample(w.domain)
    if w.domain == "disk":
        ds = [w.d_holomorphic(zs[0])]
    else:
        ds = [w.d_branch(1, zs[1]), w.d_branch(2, zs[0])]
    flags = (getattr(w, "conjugation_symmetric", None),
             getattr(w, "diagonal_rotation_invariant", None), w.radial)
    return w.evaluate(*zs), ds, flags


def _gram_or_error(w):
    if w.domain == "disk":
        rule = disk_rule(radial_order=8, angular_order=16, grading_levels=4)
    else:
        rule = bidisk_rule(radial_order=(4, 4), angular_order=(8, 16),
                           grading_levels=4, diagonal_grading=True,
                           diagonal_levels=4)
    try:
        return build_model(w.domain, w, 2, rule=rule).gram
    except (DegeneracyError, EvaluationError) as exc:
        return str(exc)


def _free(log_factors, smooth="0", domain="disk"):
    return {"log_terms": [{"r": 0.5, "f": f} for f in log_factors],
            "smooth": smooth, "domain": domain}


def _text_of(spec):
    """The first log factor of a ``_free`` spec, or its smooth part."""
    return spec["log_terms"][0]["f"] if spec["log_terms"] else spec["smooth"]


# the named families, and every expression text of tests/, README and CI
# (texts written with a random coefficient take one value here)
_AS_WRITTEN = [
    {"family": "zero"}, {"family": "zero", "domain": "bidisk"},
    {"family": "halfplane", "m": 2.0}, {"family": "halfplane", "m": 0.7},
    {"family": "halfplane", "m": -1.5}, {"family": "halfplane", "m": 0.0},
    {"family": "point_log", "r": 0.5}, {"family": "diagonal_log"},
    {"family": "clamp", "base": {"family": "halfplane", "m": 2.0},
     "eps_coeff": 0.3, "floor": 5.0},
    {"family": "branch", "parent": {"family": "diagonal_log"}, "branch": 2},
    _free(["z**2 - 1/4"], "-2*x + y**2"), _free(["z-0.5j"]), _free([], "x*y"),
    _free(["z-0.5"]), _free([], "exp(x**2)"), _free(["z"], "x**2"),
    _free([], "-3*x + 2*y"), _free([], "-2.0*x"), _free([], "-8.0*x"),
    _free([], "-3.0*x"), _free(["z - 0.25"]), _free(["z**2 - 0.6*z + 0.09"]),
    _free(["(z-0.3)**2"]), _free(["z-0.5", "z-0.5"]), _free([], "log(pi)"),
    _free([], "x*y + 0.5*y"), _free(["z"], "-4*x"), _free([], "-800*x"),
    _free([], "Lambda(x, x**2)(y)"), _free(["z - 0.4375"]),
    _free([], "-5.6*x + 2.4*y"), _free([], "(-1.25)*x*y**2 + (0.5)*(x**2 + y**2)"),
    _free(["(z - (0.25 + -0.5*I))**2"], "(1.5)*x**3"),
    _free(["z1 - 1j*z2"], "0", "bidisk"),
    _free(["2 + z1 - 1j*z2"], "0.5*x1*y2 - y1", "bidisk"),
    _free([], "0.3*x1 + 2*y2**3", "bidisk"),
    _free(["z1-z2"], "x1*x2 + y1*y2", "bidisk"), _free([], "-800*x1", "bidisk"),
    _free([], "-800*(x1**2+y1**2+x2**2+y2**2)", "bidisk"),
    _free(["z1 - 1j*z2"], "x1**2 + y1**2 + x1*x2 + y1*y2", "bidisk"),
    _free([], "0.3*x1 + 0.2*y1", "bidisk"), _free([], "exp(x1**2 + y1**2)", "bidisk"),
    _free(["(z1-z2)**2"], "0", "bidisk"), _free(["z1 - 1.5"], "0", "bidisk"),
    _free(["z1 - 0.5"], "0", "bidisk"), _free(["z1 - z2"], "0", "bidisk"),
    _free([], "0.5*x1 + -0.3*y1", "bidisk"), _free([], "-0.75*x1 + 0.25*y1", "bidisk"),
    _free(["z1 - z2"], "0.3*x1 + 0.2*y2", "bidisk"),
    _free([], "0.3*x1 - 0.7*y1", "bidisk"), _free(["z1 - 0.3*z2"], "0", "bidisk"),
    _free(["z1 - 0.3125"], "0", "bidisk"),
    _free(["(z1 - (0.5 + 0.25*I)*z2)**2"], "(0.75)*x1*y2", "bidisk"),
]


# the specs whose polynomial smooth part, or its derivative, sympy printed in
# another form (it distributed -800 over the sum and 0.5 over x**2 + y**2):
# the value now evaluates as written, the derivatives from the expansion
_REWRITTEN = [
    _free([], "(-1.25)*x*y**2 + (0.5)*(x**2 + y**2)"),
    _free(["(z - (0.25 + -0.5*I))**2"], "(1.5)*x**3"),
    _free([], "-800*(x1**2+y1**2+x2**2+y2**2)", "bidisk"),
    _free(["z1 - 1j*z2"], "x1**2 + y1**2 + x1*x2 + y1*y2", "bidisk"),
]


def _check_lifted_parse(monkeypatch, spec, check):
    """Compare with ``check`` every output of a spec's weight with the
    reference parse's: phi, its derivatives and the Gram matrix, or the
    Gram's error message."""
    w = from_dict(spec)
    ref = _with_full_parse(monkeypatch, lambda: from_dict(spec))
    (phi, ds, flags), (ref_phi, ref_ds, ref_flags) = _outputs(w), _outputs(ref)
    assert flags == ref_flags
    check(phi, ref_phi)
    for d, ref_d in zip(ds, ref_ds):
        check(d, ref_d)
    gram, ref_gram = _gram_or_error(w), _gram_or_error(ref)
    assert type(gram) is type(ref_gram)
    if isinstance(gram, str):
        assert gram == ref_gram
    else:
        check(gram, ref_gram)


@pytest.mark.parametrize("spec", [s for s in _AS_WRITTEN if s not in _REWRITTEN],
                         ids=lambda s: json.dumps(s))
def test_lifted_parse_matches_full_parse_bitwise(monkeypatch, spec):
    # the token lift gives each of these texts the template the sympy tree
    # walk gave, so every output is the same bit for bit
    _check_lifted_parse(monkeypatch, spec, np.testing.assert_array_equal)


@pytest.mark.parametrize("spec", _REWRITTEN, ids=lambda s: json.dumps(s))
def test_lifted_parse_of_rewritten_polynomial_within_rounding(monkeypatch, spec):
    _check_lifted_parse(monkeypatch, spec, functools.partial(
        np.testing.assert_allclose, rtol=1e-14, atol=0))


@pytest.mark.parametrize("spec", [
    _free([], "2.0*x*3.0"), _free([], "1/2.5*x"), _free([], "(0.5*x)**2"),
    _free([], "0.0*x1", "bidisk"), _free([], "x**2.5"), _free([], "x**-0.5"),
    _free([], "x**(1 + 2.0)"), _free(["1j*z"]), _free([], "1e-3*x*y"),
    _free([], "0.12345678901234567890*x"),
    _free([], "0.5*x1*y2 - 0.5*x2*y1", "bidisk"), _free([], "-1.5*x*2.0"),
    _free([], "Float(0.5)*x + Rational(0.25)*y + 1.2[3]*x*y"),
    # sympify multiplied a float into a sum; the literal now multiplies it
    _free([], "(0.75)*(x1*y2 - y1*x2)", "bidisk"),
], ids=_text_of)
def test_literal_arithmetic_keeps_flags_and_values(monkeypatch, spec):
    # arithmetic between literals is evaluated as written instead of being
    # folded by sympify: the same flags, the values within a few ulp
    w = from_dict(spec)
    ref = _with_full_parse(monkeypatch, lambda: from_dict(spec))
    (phi, ds, flags), (ref_phi, ref_ds, ref_flags) = _outputs(w), _outputs(ref)
    assert flags == ref_flags
    np.testing.assert_array_max_ulp(phi, ref_phi, maxulp=4)
    for d, ref_d in zip(ds, ref_ds):
        np.testing.assert_array_max_ulp(d.real, ref_d.real, maxulp=4)
        np.testing.assert_array_max_ulp(d.imag, ref_d.imag, maxulp=4)


@pytest.mark.parametrize("text, shape_text, literals", [
    ("-3.0*x", "-_c0*x", ("3.0",)),
    ("0.5*x1*y2 - 0.5*x2*y1", "_c0*x1*y2 - _c0*x2*y1", ("0.5",)),
    ("2.0*x*3.0 + 1e-3", "_c0*x*_c1 + _c2", ("2.0", "3.0", "1e-3")),
    ("x**-0.5 + 0.25", "x**-0.5 + _c0", ("0.25",)),
    ("x**(1 + 2.0)*0.5", "x**(1 + 2.0)*_c0", ("0.5",)),
    ("(y**2.5)*x - -0.5", "(y**2.5)*x - -_c0", ("0.5",)),
    ("x**2**1.5 + exp(0.5*x)**2.0", "x**2**1.5 + exp(_c0*x)**2.0", ("0.5",)),
    ("x^2.5 + 2.5**x", "x^2.5 + _c0**x", ("2.5",)),
    ("0.0*x1 + 1j*z + 0x1e + 3", "0.0*x1 + 1j*z + 0x1e + 3", ()),
    ("Float(0.5)*x + round(0.55, 1) + 1.2[3]", "Float(0.5)*x + round(0.55, 1) + 1.2[3]", ()),
    ("(0.5)*x + Max(0.25, x) + exp(0.5*x)", "(_c0)*x + Max(0.25, x) + exp(_c0*x)", ("0.5",)),
])
def test_shape_text_lifts_float_literals_outside_exponents(text, shape_text, literals):
    assert weights._shape_text(text)[:2] == (shape_text, literals)


@pytest.mark.parametrize("make, shapes", [
    (Weight.halfplane, lambda w: [w.smooth.shape]),
    (lambda c: clamp_max(Weight.halfplane(c), 0.2, 6.0),
     lambda w: [w.base.smooth.shape]),
    (lambda c: Weight([], "%r*x1 + %r*y1" % (c, -c / 3), "bidisk"),
     lambda w: [w.smooth.shape]),
    (lambda c: Weight([(0.5, "z - %r" % (c / 8))],
                      "%r*x**2 + %r*x*y - 0.25*y**2" % (c, 2 * c)),
     lambda w: [w.smooth.shape, w.log_terms[0].f.shape]),
], ids=["halfplane", "clamp", "tilted", "free-form"])
def test_new_coefficient_costs_no_sympify(monkeypatch, make, shapes):
    known = shapes(make(1.25))

    def no_sympify(*args, **kwargs):
        raise AssertionError("sympify called for a known shape")

    monkeypatch.setattr(sp, "sympify", no_sympify)
    assert all(a is b for a, b in zip(shapes(make(3.375)), known))


@pytest.mark.parametrize("spec", [
    _free(["z - np.float64(0.2)"]), _free([], "lambda: 1"), _free([], "x*(0.5"),
    _free([], "1e400*x"), _free([], "x + inf"), _free([], "x*0.5)"),
    _free([], "_c0*x + 0.5"), _free([], "np.float64(0.2)*x*0.3"),
], ids=_text_of)
def test_parse_errors_quote_the_text_as_written(monkeypatch, spec):
    text = _text_of(spec)
    with pytest.raises(ParameterError) as err:
        from_dict(spec)
    with pytest.raises(ParameterError) as ref:
        _with_full_parse(monkeypatch, lambda: from_dict(spec))
    assert str(err.value) == str(ref.value)
    assert str(err.value).startswith("cannot parse expression %r: " % text)


def test_named_weights_never_import_sympy():
    # sympy is loaded by the first shape that is not a polynomial: the named
    # disk families, their clamps, zero:bidisk, the regularized log and
    # polynomial free-form texts compile none, through build_model or the
    # CLI, and a text such as exp(x*y) does
    code = "\n".join([
        "import contextlib, io, sys",
        "import bergext, bergext.cli",
        "from bergext import RegularizedLogWeight, Weight, bidisk_rule, build_model, clamp_max",
        "from bergext.functionals import NormSpec, evaluate_norm",
        "disk = [Weight.zero(), Weight.halfplane(1.5), Weight.halfplane(-0.75),",
        "        Weight.point_log(0.5)]",
        "for w in disk + [clamp_max(w, 0.2, 6.0) for w in disk]:",
        "    build_model('disk', w, 4)",
        "build_model('bidisk', Weight.zero('bidisk'), 2)",
        "build_model('bidisk', RegularizedLogWeight(0.2, 'z1-z2'), 2)",
        "w = RegularizedLogWeight(0.2, 'z')",
        "build_model('disk', w, 4)",
        "evaluate_norm(NormSpec('gamma_branch', gamma=0.5), [0, 1], w)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert bergext.cli.main(['kernel', '--weight', 'halfplane:2']) == 0",
        "    assert bergext.cli.main(['claim1', '--m', '1,2', '--no-check']) == 0",
        "generic = bidisk_rule((4, 4), (8, 8), grading_levels=2)",
        "build_model('bidisk', Weight([], '0.5*x1 + -0.25*y1', 'bidisk'), 2, rule=generic)",
        "graded = bidisk_rule((4, 4), (8, 16), grading_levels=2, diagonal_grading=True,",
        "                     diagonal_levels=2)",
        "build_model('bidisk', Weight([], 'x1*x2 + y1*y2', 'bidisk'), 2, rule=graded)",
        "assert 'sympy' not in sys.modules, sorted(m for m in sys.modules if 'sympy' in m)[:5]",
        "Weight([], 'exp(x*y)')",
        "assert 'sympy' in sys.modules",
    ])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_second_build_model_finds_no_roots(monkeypatch):
    disk = disk_rule(radial_order=4, angular_order=8, grading_levels=2)
    bidisk = bidisk_rule(radial_order=(4, 4), angular_order=(8, 8),
                         grading_levels=2)
    weights_ = [("disk", lambda: Weight([(0.5, "z - 0.25")]), disk),
                ("bidisk", lambda: Weight([(0.5, "z1 - 0.3*z2")], "0", "bidisk"),
                 bidisk)]
    for domain, make, rule in weights_:
        build_model(domain, make(), 2, rule=rule)

    def no_root_finder(*args, **kwargs):
        raise AssertionError("root finder called")

    monkeypatch.setattr(sp, "roots", no_root_finder)
    monkeypatch.setattr(sp, "factor_list", no_root_finder)
    for domain, make, rule in weights_:
        build_model(domain, make(), 2, rule=rule)
