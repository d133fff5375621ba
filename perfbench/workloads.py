"""Seeded workloads for the bergext benchmark: task generators, task runners
and output checks.

A workload is a stream of rounds. Every round has the same fixed list of task
kinds; the seed draws each task's parameters. Discrete parameters (degrees,
weight families, styles) come from seeded shuffled passes over their grid, so
every grid value recurs at a steady rate and runs with different seeds do the
same mix of work. Runners call only bergext's public API, through module
attributes, so that a traced run sees every call. Checkers return None for a
correct output, or a one-line reason.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math

import numpy as np

# Direct-vs-recursive jets must agree, and meet their constraints, to this
# relative deviation. Both only hold to about cond * machine epsilon, so for
# Gram condition numbers above about 5e6 the tolerance is 10 * cond * eps.
JET_RTOL = 1e-8

# Three input caps below keep open program defects out of the workloads, so
# that a correct run has no failed task. Each hides its defect until it is
# fixed; then the cap goes back to the full range (m <= 8, r < 1), so that the
# output checks cover those inputs again.
#
# Defect: from halfplane strength m ~ 7 on (Gram cond above 1e12, still under
# the 1e14 limit at which build_model refuses) both jet solvers miss their own
# jet constraints by more than 10 * cond * eps; at m = 7.87, degree 24, a
# 4-term jet misses them by 4%. Jet tasks keep m <= JET_M_MAX (full range 8).
JET_M_MAX = 5.0
# Defect: the lemma row's own finite-difference identity check (step 2e-2,
# tolerance 1e-3) fails for point_log r from about 0.87 upward. Lemma rows
# keep r <= LEMMA_R_MAX (full range r < 1).
LEMMA_R_MAX = 0.8
# Defect: gamma_branch_norm's divergence test compares grading levels 18 and
# 24 and returns DivergentNorm for the convergent integrand |z|^{-2s} with s
# near 1. Convergent point_log inputs keep r <= GAMMA_R_MAX (full range r < 1).
GAMMA_R_MAX = 0.7
# The full ranges, used wherever no defect applies.
M_MAX = 8.0
R_MAX = 0.99
# Pythagoras defect and stationarity of the cross extension.
CROSS_RTOL = 1e-8
# Closed forms that the quadrature resolves to near machine precision.
CLOSED_RTOL = 1e-8
# The final example norm against pi * log(1 + 1/eps^2).
FINAL_RTOL = 0.10

BULK_CLOSED_RULE = dict(radial_order=(12, 12), angular_order=(24, 24),
                        grading_levels=14)
BULK_RULE = dict(radial_order=(8, 8), angular_order=(16, 16), grading_levels=10)
CROSS_RULE = dict(radial_order=(8, 8), angular_order=(32, 128), grading_levels=10,
                  diagonal_grading=True)
GENERIC_RULE = dict(radial_order=(4, 4), angular_order=(8, 8), grading_levels=4)


class Cycle:
    """Seeded stratified draws: each pass over ``values`` is a fresh shuffle."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.queue = []

    def next(self):
        if not self.queue:
            order = self.rng.permutation(len(self.values))
            self.queue = [self.values[i] for i in order]
        return self.queue.pop()


def _uniform(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def _log_uniform(rng, lo, hi):
    return round(float(np.exp(rng.uniform(math.log(lo), math.log(hi)))), 5)


def _complex_list(rng, n):
    return [[round(float(x), 4), round(float(y), 4)]
            for x, y in rng.standard_normal((n, 2))]


def _cplx(pairs):
    return tuple(complex(a, b) for a, b in pairs)


# -- weights ------------------------------------------------------------------
#
# Weights travel inside tasks as plain lists so that tasks are data; runners
# construct them, so weight construction is part of each task's cost.

def make_weight(bx, spec):
    kind = spec[0]
    if kind == "zero":
        return bx.Weight.zero()
    if kind == "zero_bidisk":
        return bx.Weight.zero("bidisk")
    if kind == "halfplane":
        return bx.Weight.halfplane(spec[1])
    if kind == "point_log":
        return bx.Weight.point_log(spec[1])
    if kind == "clamp":
        m, eps, floor = spec[1:]
        base = bx.Weight.halfplane(m) if m else bx.Weight.zero()
        return bx.clamp_max(base, eps, floor)
    if kind == "reglog":
        return bx.RegularizedLogWeight(spec[1], "z1-z2", spec[2])
    if kind == "tilted":
        # e^{-phi} with phi = a*x1 + b*y1 is not invariant under the diagonal
        # rotation, so this weight takes the generic bidisk Gram path
        return bx.Weight([], "%r*x1 + %r*y1" % (spec[1], spec[2]), "bidisk")
    raise ValueError("unknown weight spec %r" % (spec,))


def weight_shorthand(spec):
    """The CLI spelling of a disk weight spec."""
    kind = spec[0]
    if kind == "zero":
        return "zero"
    if kind in ("halfplane", "point_log"):
        return "%s:%r" % (kind, spec[1])
    if kind == "clamp":
        m, eps, floor = spec[1:]
        return "clamp:%r:%r:%r" % (eps, floor, m)
    raise ValueError("no shorthand for %r" % (spec,))


def _disk_weight(rng, family, m_max=M_MAX, r_max=R_MAX):
    if family == "zero":
        return ["zero"]
    if family == "halfplane":
        return ["halfplane", _uniform(rng, 0.5, m_max)]
    if family == "point_log":
        return ["point_log", _uniform(rng, 0.1, r_max)]
    return ["clamp", _uniform(rng, 0.0, m_max), _log_uniform(rng, 0.05, 0.4),
            _uniform(rng, 4.0, 20.0)]


def _reglog(rng, style):
    return ["reglog", _log_uniform(rng, 0.025, 0.2), style]


def _cross_data(rng, degree, max_len=4):
    a0 = _complex_list(rng, 1)
    n1 = int(rng.integers(1, min(max_len, degree + 1) + 1))
    n2 = int(rng.integers(1, min(max_len, degree + 1) + 1))
    return [a0 + _complex_list(rng, n1 - 1), a0 + _complex_list(rng, n2 - 1)]


# -- disk_jet -------------------------------------------------------------------

DISK_FAMILIES = ("zero", "halfplane", "clamp", "point_log")
DISK_DEGREES = (12, 18, 24, 30, 36, 42, 48)


def disk_jet_rounds(seed):
    rng = np.random.default_rng(seed)
    m1 = Cycle(rng, range(1, int(M_MAX) + 1))
    fam = Cycle(rng, DISK_FAMILIES)
    lemma_fam = Cycle(rng, DISK_FAMILIES)
    deg = Cycle(rng, DISK_DEGREES)
    cli_deg = Cycle(rng, DISK_DEGREES)
    cli_cmd = Cycle(rng, ("kernel", "extend-jet"))
    solver = Cycle(rng, ("direct", "recursive"))
    while True:
        # sweep rows at their default degrees; the direct tasks take each
        # degree once per round, so every round costs about the same
        tasks = [
            ("claim1_row", {"m": m1.next()}),
            ("claim2_row", {"eps": _log_uniform(rng, 0.05, 0.4),
                            "A": _uniform(rng, 4.0, 20.0),
                            "m": _uniform(rng, 0.0, M_MAX)}),
            ("lemma_row", {"weight": _disk_weight(rng, lemma_fam.next(),
                                                  r_max=LEMMA_R_MAX)}),
        ]
        for _ in DISK_DEGREES:
            n = int(rng.integers(1, 5))
            tasks.append(("disk_direct", {
                "weight": _disk_weight(rng, fam.next(), m_max=JET_M_MAX),
                "degree": deg.next(), "jet": _complex_list(rng, n)}))
        for _ in range(2):
            cmd = cli_cmd.next()
            p = {"command": cmd,
                 "weight": _disk_weight(rng, fam.next(), m_max=JET_M_MAX),
                 "degree": cli_deg.next()}
            if cmd == "extend-jet":
                p["jet"] = _complex_list(rng, int(rng.integers(1, 5)))
                p["solver"] = solver.next()
            tasks.append(("disk_cli", p))
        yield tasks


def run_claim1_row(bx, p):
    return bx.sweeps.run_claim1([p["m"]]).rows[0]


def run_claim2_row(bx, p):
    return bx.sweeps.run_claim2([p["eps"]], A=p["A"], m=p["m"]).rows[0]


def run_lemma_row(bx, p):
    w = make_weight(bx, p["weight"])
    return bx.sweeps.run_lemma_suite([w]).rows[0]


def run_disk_direct(bx, p):
    w = make_weight(bx, p["weight"])
    model = bx.build_model("disk", w, p["degree"])
    jet = bx.Jet(_cplx(p["jet"]))
    direct = bx.extend_jet_direct(model, jet)
    recursive = bx.extend_jet_recursive(model, jet)
    bk = [bx.higher_kernel(model, k) for k in range(5)]
    return {"condition": model.condition_number, "direct": direct,
            "recursive": recursive, "Bk": bk}


def run_disk_cli(bx, p):
    argv = [p["command"], "--weight", weight_shorthand(p["weight"]),
            "--degree", str(p["degree"])]
    if p["command"] == "extend-jet":
        jet = ",".join(repr(complex(a, b)) for a, b in p["jet"])
        argv += ["--jet", jet, "--solver", p["solver"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bx.cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _positive(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0
               for v in vals)


def _zero_weight_bk(k):
    return math.factorial(k) ** 2 * (k + 1) / math.pi


def jet_tolerance(condition):
    return max(JET_RTOL, 10.0 * condition * np.finfo(float).eps)


def _check_jet_residual(p, residual, condition):
    scale = max(math.hypot(a, b) * math.factorial(k)
                for k, (a, b) in enumerate(p["jet"]))
    if not residual <= jet_tolerance(condition) * scale:
        return "jet constraints violated by %r" % (residual,)
    return None


def _check_bk(weight, bk):
    if not _positive(*bk):
        return "B_k not finite and positive: %r" % (bk,)
    if weight[0] == "zero":
        for k, val in enumerate(bk):
            exact = _zero_weight_bk(k)
            if abs(val - exact) > CLOSED_RTOL * exact:
                return "B_%d = %r, closed form %r" % (k, val, exact)
    return None


def check_sweep_row(bx, p, row):
    vals = [row[k] for k in ("norm", "ratio", "omega_B", "condition")
            if k in row]
    if not _positive(*vals):
        return "sweep row has non-positive or non-finite values: %r" % (row,)
    if "passed" in row and not row["passed"]:
        return "lemma row failed its own checks: %r" % (row,)
    return None


def check_disk_direct(bx, p, out):
    d, r = out["direct"], out["recursive"]
    if not _positive(d.norm_sq, r.norm_sq):
        return "jet norms not positive: %r, %r" % (d.norm_sq, r.norm_sq)
    tol = jet_tolerance(out["condition"])
    dn = abs(d.norm_sq - r.norm_sq) / d.norm_sq
    dc = (np.abs(d.coefficients - r.coefficients).max()
          / np.abs(d.coefficients).max())
    if not (dn <= tol and dc <= tol):
        return ("direct vs recursive jets differ by %.2e (tol %.1e)"
                % (max(dn, dc), tol))
    for rep in (d, r):
        problem = _check_jet_residual(p, rep.diagnostics["constraint_residual"],
                                      out["condition"])
        if problem:
            return problem
    return _check_bk(p["weight"], out["Bk"])


def check_disk_cli(bx, p, out):
    if out["code"] != 0:
        return "cli exit code %r" % out["code"]
    doc = json.loads(out["stdout"])
    if p["command"] == "kernel":
        return _check_bk(p["weight"], doc["Bk"][:5])
    if not _positive(doc["norm_sq"]):
        return "extension norm not positive: %r" % doc["norm_sq"]
    d = doc["diagnostics"]
    return _check_jet_residual(p, d["constraint_residual"], d["gram_condition"])


# -- cross_ext ------------------------------------------------------------------

CLAIM34_DEGREES = (8, 10, 12, 14, 16)
CROSS_DEGREES = (4, 6, 8, 10, 12, 14)


def cross_ext_rounds(seed):
    rng = np.random.default_rng(seed)
    deg34 = Cycle(rng, CLAIM34_DEGREES)
    style = Cycle(rng, ("convolution", "shifted"))
    checked_style = Cycle(rng, ("convolution", "shifted"))
    cross_w = Cycle(rng, ("convolution", "shifted", "zero"))
    deg = Cycle(rng, CROSS_DEGREES)
    while True:
        # one claim34 row per round carries the doubled-order recompute. It
        # is most of the round's time, so its style alternates across rounds
        # and its eps stays >= 1/32, where the claim34 rule keeps 256 inner
        # angles (below, up to 320) and the row's cost does not depend on eps
        tasks = [("claim34_row", {"eps": _log_uniform(rng, 1 / 32 if c else 0.025,
                                                      0.2),
                                  "degree": deg34.next(),
                                  "style": (checked_style if c else style).next(),
                                  "check": c})
                 for c in (True, False, False)]
        for _ in range(6):
            w = cross_w.next()
            degree = deg.next()
            tasks.append(("cross_extend", {
                "weight": ["zero_bidisk"] if w == "zero" else _reglog(rng, w),
                "degree": degree, "data": _cross_data(rng, degree)}))
        for _ in range(2):
            degree = int(rng.integers(2, 4))
            tasks.append(("cross_generic", {
                "weight": ["tilted", _uniform(rng, -1.0, 1.0),
                           _uniform(rng, -1.0, 1.0)],
                "degree": degree, "data": _cross_data(rng, degree)}))
        yield tasks


def run_claim34_row(bx, p):
    res = bx.sweeps.run_claim34([p["eps"]], degree=p["degree"], style=p["style"],
                                check_convergence=p["check"])
    return res.rows[0]


def _cross(bx, p):
    return bx.CrossData(_cplx(p["data"][0]), _cplx(p["data"][1]))


def run_cross_extend(bx, p):
    w = make_weight(bx, p["weight"])
    model = bx.build_model("bidisk", w, p["degree"],
                           rule=bx.bidisk_rule(**CROSS_RULE))
    data = _cross(bx, p)
    return {"model": model, "report": bx.extend_cross(model, data),
            "rhs": bx.rhs_estimate_cross(model, data)}


def run_cross_generic(bx, p):
    w = make_weight(bx, p["weight"])
    rule = bx.bidisk_rule(**GENERIC_RULE)
    model = bx.build_model("bidisk", w, p["degree"], rule=rule)
    return {"model": model, "report": bx.extend_cross(model, _cross(bx, p))}


def check_claim34_row(bx, p, row):
    if not _positive(row["norm"], row["rhs_data"], row["rhs_full"],
                     row["condition"]):
        return "claim34 row has non-positive or non-finite values: %r" % (row,)
    return None


def _check_cross_report(model, p, rep):
    if not _positive(rep.norm_sq):
        return "cross extension norm not positive: %r" % rep.norm_sq
    d = rep.diagnostics
    if not d["pythagoras_rel_defect"] <= CROSS_RTOL:
        return "Pythagoras defect %.2e" % d["pythagoras_rel_defect"]
    scale = np.abs(model.gram).max() * np.abs(rep.coefficients).max()
    if not d["stationarity_residual"] <= CROSS_RTOL * scale:
        return "stationarity residual %.2e" % d["stationarity_residual"]
    f1, f2 = p["data"]
    for n, v in enumerate(_cplx(f1)):
        if rep.coefficients[model.index[(0, n)]] != v:
            return "extension does not match f1 on {z1=0}"
    for m, v in enumerate(_cplx(f2)):
        if rep.coefficients[model.index[(m, 0)]] != v:
            return "extension does not match f2 on {z2=0}"
    return None


def check_cross_extend(bx, p, out):
    problem = _check_cross_report(out["model"], p, out["report"])
    if problem:
        return problem
    rhs = out["rhs"]
    if not (_positive(rhs["total"], rhs["B0"]) and rhs["v_integral"] >= 0):
        return "rhs estimate not finite and positive: %r" % (rhs,)
    return None


def check_cross_generic(bx, p, out):
    """The tilted weight depends on z1 alone, so its bidisk Gram on a tensor
    rule is the Kronecker product of two disk Grams on the factor rules."""
    model = out["model"]
    problem = _check_cross_report(model, p, out["report"])
    if problem:
        return problem
    rule = bx.bidisk_rule(**GENERIC_RULE)
    a, b = p["weight"][1:]
    g1 = bx.build_model("disk", bx.Weight([], "%r*x + %r*y" % (a, b)),
                        p["degree"], rule=rule.rule1).gram
    g2 = bx.build_model("disk", bx.Weight.zero(), p["degree"],
                        rule=rule.rule2).gram
    ref = np.kron(g1, g2)
    dev = np.abs(model.gram - ref).max() / np.abs(ref).max()
    if not dev <= CLOSED_RTOL:
        return "generic bidisk Gram differs from the product Gram by %.2e" % dev
    return None


# -- norms ----------------------------------------------------------------------

BULK_WEIGHTS = ("zero", "convolution", "shifted")
BRANCH_FAMILIES = ("zero", "halfplane", "point_log")


@functools.cache
def bulk_closed_form():
    """(2 pi int_0^inf e^{-2t}/(2t+1)^2 dt)^2, the bulk norm of z1*z2 under
    the zero weight with section normalization 1."""
    import sympy as sp

    one = sp.pi * (1 - sp.E * sp.expint(1, 1))
    return float(sp.N(one**2, 30))


def _bulk_u(rng, vanishing):
    n = int(rng.integers(2, 4))
    u = rng.standard_normal((n, n, 2)).round(4).tolist()
    if vanishing:
        for i in range(n):
            u[0][i] = [0.0, 0.0]
            u[i][0] = [0.0, 0.0]
    return u


def _branch_case(rng, fam, variant, divergent):
    """A branch-norm input with a known verdict. Divergent cases: f(0) != 0
    with gamma = 0 (|f/z|^2 is not integrable at 0), or a point_log weight
    with r >= gamma + 0.2 (theorem) / r >= gamma + 0.3 (conjecture), whose
    e^{-phi} adds a power singularity that outruns the gamma gain.
    Convergent point_log cases keep r <= GAMMA_R_MAX, see there."""
    coeffs = _complex_list(rng, int(rng.integers(2, 5)))
    if divergent:
        coeffs[0] = [1.0 + _uniform(rng, 0.0, 1.0), 0.0]
        if fam == "point_log":
            gamma = _uniform(rng, 0.0, 0.5)
            margin = 0.3 if variant == "conjecture" else 0.2
            return ["point_log", _uniform(rng, gamma + margin, R_MAX)], gamma, coeffs
        gamma = 0.0
    else:
        coeffs[0] = [0.0, 0.0]
        gamma = _uniform(rng, 0.0, 1.0)
    return _disk_weight(rng, fam, m_max=2.0, r_max=GAMMA_R_MAX), gamma, coeffs


def norms_rounds(seed):
    rng = np.random.default_rng(seed)
    bulk_w = Cycle(rng, BULK_WEIGHTS)
    branch_fam = Cycle(rng, BRANCH_FAMILIES)
    variant = Cycle(rng, ("theorem", "conjecture"))
    y_w = Cycle(rng, BULK_WEIGHTS)

    def bulk_weight():
        w = bulk_w.next()
        return ["zero_bidisk"] if w == "zero" else _reglog(rng, w)

    while True:
        tasks = [
            ("bulk_closed", {}),
            ("bulk_norm", {"weight": bulk_weight(), "U": _bulk_u(rng, True),
                           "region": "full"}),
            ("bulk_norm", {"weight": bulk_weight(), "U": _bulk_u(rng, False),
                           "region": "exclude_sing",
                           "r_sing": _uniform(rng, 0.1, 0.3)}),
        ]
        for divergent in (False, True, False):
            v = variant.next()
            w, gamma, coeffs = _branch_case(rng, branch_fam.next(), v, divergent)
            tasks.append(("gamma_norm", {"weight": w, "gamma": gamma,
                                         "variant": v, "u": coeffs,
                                         "divergent": divergent}))
        for _ in range(2):
            w = y_w.next()
            tasks.append(("derivative_norm", {
                "weight": ["zero_bidisk"] if w == "zero" else _reglog(rng, w),
                "data": _cross_data(rng, 4, max_len=5)}))
        for _ in range(2):
            tasks.append(("final_norm", {"epsilon": _log_uniform(rng, 0.01, 0.5)}))
        yield tasks


def _bulk_array(u):
    return np.array([[complex(a, b) for a, b in row] for row in u])


def run_bulk_closed(bx, p):
    u = np.zeros((2, 2), dtype=complex)
    u[1, 1] = 1.0
    return bx.functionals.log_weighted_bulk_norm(
        u, bx.Weight.zero("bidisk"), rule=bx.bidisk_rule(**BULK_CLOSED_RULE))


def run_bulk_norm(bx, p):
    spec = bx.functionals.NormSpec("log_weighted_bulk", region=p["region"],
                                   r_sing=p.get("r_sing", 0.1))
    return bx.functionals.log_weighted_bulk_norm(
        _bulk_array(p["U"]), make_weight(bx, p["weight"]), spec,
        rule=bx.bidisk_rule(**BULK_RULE))


def run_gamma_norm(bx, p):
    return bx.functionals.gamma_branch_norm(
        _cplx(p["u"]), make_weight(bx, p["weight"]), p["gamma"], p["variant"])


def run_derivative_norm(bx, p):
    return bx.functionals.derivative_norm_on_Y(_cross(bx, p),
                                               make_weight(bx, p["weight"]))


def run_final_norm(bx, p):
    return bx.functionals.final_example_norm(p["epsilon"])


def check_bulk_closed(bx, p, val):
    exact = bulk_closed_form()
    if not abs(val - exact) <= CLOSED_RTOL * exact:
        return "bulk norm of z1*z2 = %r, closed form %r" % (val, exact)
    return None


def check_positive(bx, p, val):
    if not _positive(float(val)):
        return "value not finite and positive: %r" % (val,)
    return None


def check_gamma_norm(bx, p, val):
    diverged = isinstance(val, bx.functionals.DivergentNorm)
    if diverged != p["divergent"]:
        return "expected %s, got %r" % (
            "divergence" if p["divergent"] else "a finite norm", val)
    return None if diverged else check_positive(bx, p, val)


def check_derivative_norm(bx, p, val):
    """Under the zero weight the twisted derivative is f', and
    int_disk log^2|z|^2 |f'|^2 = 2 pi sum_j |f_j|^2 / j."""
    if p["weight"][0] != "zero_bidisk":
        return check_positive(bx, p, val)
    exact = sum(2.0 * math.pi * (a * a + b * b) / j
                for f in p["data"] for j, (a, b) in enumerate(f) if j)
    if exact == 0.0:
        return None if val == 0.0 else "expected 0, got %r" % (val,)
    if not abs(val - exact) <= CLOSED_RTOL * exact:
        return "derivative norm %r, closed form %r" % (val, exact)
    return None


def check_final_norm(bx, p, val):
    eps = p["epsilon"]
    exact = math.pi * math.log1p(1.0 / eps**2)
    if not abs(val - exact) <= FINAL_RTOL * exact:
        return "final example norm %r, pi*log(1+1/eps^2) = %r" % (val, exact)
    return None


# -- registry -----------------------------------------------------------------

KINDS = {
    "claim1_row": (run_claim1_row, check_sweep_row),
    "claim2_row": (run_claim2_row, check_sweep_row),
    "lemma_row": (run_lemma_row, check_sweep_row),
    "disk_direct": (run_disk_direct, check_disk_direct),
    "disk_cli": (run_disk_cli, check_disk_cli),
    "claim34_row": (run_claim34_row, check_claim34_row),
    "cross_extend": (run_cross_extend, check_cross_extend),
    "cross_generic": (run_cross_generic, check_cross_generic),
    "bulk_closed": (run_bulk_closed, check_bulk_closed),
    "bulk_norm": (run_bulk_norm, check_positive),
    "gamma_norm": (run_gamma_norm, check_gamma_norm),
    "derivative_norm": (run_derivative_norm, check_derivative_norm),
    "final_norm": (run_final_norm, check_final_norm),
}

WORKLOADS = {
    "disk_jet": disk_jet_rounds,
    "cross_ext": cross_ext_rounds,
    "norms": norms_rounds,
}


def rounds(workload, seed):
    """Endless, deterministic stream of rounds; each task is (id, kind, params)."""
    task_id = 0
    for kinds in WORKLOADS[workload](seed):
        batch = []
        for kind, params in kinds:
            batch.append((task_id, kind, params))
            task_id += 1
        yield batch


def warm_up(bx, workload):
    """Small calls along each workload's code paths, so that lazy imports,
    FFT plans and first-call costs are paid before timing starts."""
    disk = bx.disk_rule(8, 16, grading_levels=4)
    if workload == "disk_jet":
        model = bx.build_model("disk", bx.Weight.halfplane(1.0), 4, rule=disk)
        jet = bx.Jet((1.0, 0.5))
        bx.extend_jet_direct(model, jet)
        bx.extend_jet_recursive(model, jet)
        bx.rhs_estimate_jet(model, jet)
        with contextlib.redirect_stdout(io.StringIO()):
            bx.cli.main(["kernel", "--degree", "2", "--weight", "clamp:0.2:4:1"])
    elif workload == "cross_ext":
        rule = bx.bidisk_rule((4, 4), (8, 16), grading_levels=4,
                              diagonal_grading=True)
        model = bx.build_model("bidisk", bx.RegularizedLogWeight(0.1, "z1-z2"),
                               2, rule=rule)
        data = bx.CrossData((1.0,), (1.0, 0.5))
        bx.extend_cross(model, data)
        bx.rhs_estimate_cross(model, data)
        run_cross_generic(bx, {"weight": ["tilted", 0.5, 0.5], "degree": 2,
                               "data": [[[1, 0]], [[1, 0]]]})
    else:
        fn = bx.functionals
        small = bx.bidisk_rule((4, 4), (8, 8), grading_levels=4)
        fn.log_weighted_bulk_norm(np.array([[0, 0], [0, 1.0]]),
                                  bx.RegularizedLogWeight(0.1, "z1-z2"), rule=small)
        fn.gamma_branch_norm((0.0, 1.0), bx.Weight.zero(), 0.5, rule=disk)
        fn.derivative_norm_on_Y(bx.CrossData((0.0, 1.0), (0.0,)),
                                bx.Weight.zero("bidisk"), rule=disk)
        fn.final_example_norm(0.1, rule=disk)
        bulk_closed_form()
