"""Experiment harness: parameter sweeps with reproducible CSV/JSON output.

Each row is one ``solve(rule)`` on a fixed quadrature rule: ``solve`` builds
the model and returns ``(value, model)``.  ``_checked`` flags the row
converged when ``solve(refine(rule))``, at doubled radial and angular orders
(on claim34's lens rule, the doubled t-order), agrees with the value within
1% relative; a ``BergextError`` in that recompute gives ``False``, and its
message goes to the ``bergext.sweeps`` logger at WARNING.
``_result`` attaches the provenance block (a hash of the canonical config)
and writes the file.  Grids are sorted before their
rows run, so identical configs give bit-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import BergextError, ParameterError
from .bergman import (_checked_degree, _dense, _gram, bergman_metric_at_zero,
                      build_model, default_rule, higher_kernel)
from .extension import CrossData, Jet, extend_cross, extend_jet_direct
from .functionals import derivative_norm_on_Y
from .quadrature import disk_rule, refine
from .weights import RegularizedLogWeight, Weight, clamp_max

_EXPERIMENTS = ("claim1", "claim2", "claim34", "lemmas")
_log = logging.getLogger("bergext.sweeps")


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    fmt: str = "csv"
    schema: int = 1

    def __post_init__(self):
        if self.schema != 1:
            raise ParameterError("unsupported config schema %r" % self.schema)
        if self.experiment not in _EXPERIMENTS:
            raise ParameterError("unknown experiment %r" % self.experiment)
        if self.fmt not in ("csv", "json"):
            raise ParameterError("fmt must be 'csv' or 'json'")

    def hash(self):
        """First 16 hex digits of the SHA-256 of the canonical config JSON."""
        text = json.dumps(
            {"schema": self.schema, "experiment": self.experiment,
             "params": self.params, "fmt": self.fmt},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class SweepResult:
    experiment: str
    rows: list
    provenance: dict

    @property
    def columns(self):
        return list(self.rows[0]) if self.rows else []

    def to_json(self, path=None):
        doc = {"experiment": self.experiment, "provenance": self.provenance,
               "rows": self.rows}
        text = json.dumps(doc, indent=2, default=_json_default)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path):
        cols = self.columns
        with open(path, "w", newline="") as fh:
            for k in sorted(self.provenance):
                fh.write("# %s: %s\n" % (k, self.provenance[k]))
            w = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
            w.writeheader()
            for row in self.rows:
                w.writerow({k: _csv_cell(row.get(k)) for k in cols})


def _json_default(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return str(x)


def _csv_cell(v):
    if isinstance(v, np.generic):
        v = v.item()  # numpy 2 reprs scalars as np.float64(...)
    if isinstance(v, float):
        return repr(v)
    return v


def _checked(solve, rule, check):
    """(value, model, converged) from ``solve(rule) -> (value, model)``;
    converged when ``solve(refine(rule))`` agrees within 1% relative.  When
    that recompute raises a ``BergextError``, its message is logged."""
    value, model = solve(rule)
    if not check:
        return value, model, True
    try:
        other = solve(refine(rule))[0]
    except BergextError as exc:
        _log.warning("convergence check failed on the refined rule: %s: %s",
                     type(exc).__name__, exc)
        return value, model, False
    if value == 0 and other == 0:
        return value, model, True
    return value, model, abs(value - other) / max(abs(value), abs(other)) < 0.01


def _result(experiment, params, rows, out, fmt, **provenance):
    """SweepResult with the provenance block; written to ``out`` as ``fmt``
    if given."""
    config = SweepConfig(experiment, params, fmt)
    res = SweepResult(experiment, rows, {
        "config_hash": config.hash(), "version": __version__,
        "experiment": experiment, **provenance})
    if out:
        (res.to_json if fmt == "json" else res.to_csv)(out)
    return res


def _eps_grid(eps_list, reverse=False):
    eps = sorted((float(e) for e in eps_list), reverse=reverse)
    if not eps or min(eps) <= 0:
        raise ParameterError("eps grid must be nonempty and positive")
    return eps


def _jet_norm(weight, degree, rule):
    """Minimal norm of the jet (1, 0) on the disk model, and the model."""
    model = build_model("disk", weight, degree, rule=rule)
    return extend_jet_direct(model, Jet((1.0, 0.0))).norm_sq, model


# -- claim 1 -----------------------------------------------------------------

def _claim1_row(m, degree, check):
    w = Weight.halfplane(m) if m else Weight.zero()
    rule = disk_rule(radial_order=48, angular_order=128, grading_levels=16)
    norm, model, converged = _checked(
        lambda r: _jet_norm(w, degree, r), rule, check)
    # phi(0)=0 and |a0|^2+|a1|^2 = 1, so the ratio equals the norm itself
    return {"m": m, "degree": degree, "norm": norm, "ratio": norm,
            "condition": model.condition_number, "converged": converged}


def run_claim1(ms=tuple(range(1, 9)), degree_schedule=None, out=None, fmt="csv",
               check_convergence=True):
    """Minimal norms of the jet (1, 0) under phi = -2m Re z, swept over m."""
    ms = sorted(ms)
    if not ms or not all(float(m).is_integer() for m in ms):
        raise ParameterError("m grid must be nonempty and integer, got %r" % ms)
    ms = [int(m) for m in ms]
    sched = degree_schedule or (lambda m: max(24, 6 * m))
    degrees = [_checked_degree(sched(m)) for m in ms]
    rows = [_claim1_row(m, d, check_convergence) for m, d in zip(ms, degrees)]
    return _result("claim1", {"ms": ms, "degrees": degrees}, rows, out, fmt,
                   rule="disk 48x128 graded", jet="(1,0)")


# -- claim 2 -----------------------------------------------------------------

def _claim2_row(eps, A, m, degree, check):
    w = clamp_max(Weight.halfplane(m), eps, A)
    rule = disk_rule(radial_order=48, angular_order=128, grading_levels=20)
    norm, model, converged = _checked(
        lambda r: _jet_norm(w, degree, r), rule, check)
    # the clamped weight has psi(0) = -A and d psi = 0 near 0, so the
    # two-term right-hand side reduces to (|a0|^2+|a1|^2) e^{A}
    rhs = math.exp(A)
    return {"eps": eps, "A": A, "m": m, "degree": degree, "norm": norm,
            "rhs": rhs, "ratio": norm / rhs,
            "plateau_radius": w.plateau_radius(),
            "condition": model.condition_number, "converged": converged}


def run_claim2(eps_list=(0.4, 0.2, 0.1, 0.05), A=20.0, m=4.0, degree=24,
               out=None, fmt="csv", check_convergence=True):
    """Jet (1,0) under psi = max(phi + eps log|z|^2, -A), phi = -2m Re z."""
    eps_list = _eps_grid(eps_list)
    A, m, degree = float(A), float(m), _checked_degree(degree)
    rows = [_claim2_row(e, A, m, degree, check_convergence) for e in eps_list]
    return _result(
        "claim2", {"eps": eps_list, "A": A, "m": m, "degree": degree}, rows,
        out, fmt, rule="disk 48x128 graded", jet="(1,0)",
        rhs_formula="(|a0|^2+|a1|^2) * exp(A), using psi(0)=-A, dpsi(0)=0")


# -- claims 3-4 --------------------------------------------------------------

def _claim34_row(eps, degree, style, check):
    w = RegularizedLogWeight(eps, "z1-z2", style=style)
    data = CrossData((0.0,), (0.0, 1.0))
    rule = default_rule("bidisk", w)

    def solve(r):
        model = build_model("bidisk", w, degree, rule=r)
        return extend_cross(model, data).norm_sq, model

    norm, model, converged = _checked(solve, rule, check)
    branch_rule = disk_rule(radial_order=32, angular_order=64, grading_levels=16)
    # f = (0, z1): the data integral lives on V_2 only, int |z|^2 e^{-phi}
    rhs_data = float(_dense(*_gram(w.restrict_to_branch(2), 1, branch_rule)[1:])[1, 1].real)
    rhs_full = rhs_data + derivative_norm_on_Y(
        data, w, rule=branch_rule, include_log=False)
    return {"eps": eps, "degree": degree, "norm": norm, "rhs_data": rhs_data,
            "rhs_full": rhs_full, "ratio_data": norm / rhs_data,
            "ratio_full": norm / rhs_full, "condition": model.condition_number,
            "converged": converged}


def run_claim34(eps_list=(0.2, 0.1, 0.05, 0.025), degree=16, style="convolution",
                out=None, fmt="csv", check_convergence=True):
    """Minimal cross extension of f = (0, z1) under the regularized diagonal
    weight, with the data and data+derivative right-hand sides."""
    eps_list, degree = _eps_grid(eps_list, reverse=True), _checked_degree(degree)
    rows = [_claim34_row(e, degree, style, check_convergence) for e in eps_list]
    return _result(
        "claim34", {"eps": eps_list, "degree": degree, "style": style}, rows,
        out, fmt, rule="bidisk lens: one integral in t = |z1 - z2| over "
                       "the lens moment table, 16 Gauss points per t-cell",
        data="f = (0, z1)",
        divergence_criterion="strict monotone growth across >= 4 parameter "
                             "halvings and super-threshold final/initial ratio")


# -- lemma suite -------------------------------------------------------------

def default_lemma_family():
    return [
        Weight.zero(),
        Weight.halfplane(1.0),
        Weight.halfplane(2.0),
        Weight.halfplane(4.0),
        Weight.point_log(0.5),
        clamp_max(Weight.halfplane(2.0), 0.2, 6.0),
    ]


def _fd_metric_residual(model, h=2e-2):
    """Relative defect of the kernel/metric identity at the origin: B1/B0
    against the five-point dd-bar of log B0(z,z), Richardson-extrapolated
    over the steps h and h/2 (4 d(h/2) - d(h))/3, which cancels the O(h^2)
    error of the stencil."""
    steps = np.array([h, h / 2])
    pts = np.concatenate([[0.0], (steps[:, None] * [1, -1, 1j, -1j]).ravel()])
    vals = np.log(np.real(model.kernel(pts, pts)))
    lap = (vals[1:].reshape(2, 4).sum(axis=1) - 4.0 * vals[0]) / steps**2
    ddbar_h, ddbar_h2 = lap / 4.0
    ddbar = (4.0 * ddbar_h2 - ddbar_h) / 3.0
    omega = bergman_metric_at_zero(model)
    return abs(ddbar - omega) / abs(omega)


def _lemma_row(weight, degree, check):
    def solve(r):
        model = build_model("disk", weight, degree, rule=r)
        return higher_kernel(model, 0), model

    rule = disk_rule(radial_order=48, angular_order=128, grading_levels=20)
    b0, model, converged = _checked(solve, rule, check)
    b = [b0] + [higher_kernel(model, k) for k in range(1, min(6, degree) + 1)]
    omega = b[1] / b[0]
    metric_margin = omega - 1.0
    bk_margin = min(
        (b[k] - math.factorial(k) ** 2 * b[0]) / (math.factorial(k) ** 2 * b[0])
        for k in range(len(b)))
    fd = _fd_metric_residual(model)
    passed = metric_margin >= -1e-9 and bk_margin >= -1e-9 and fd < 1e-3
    return {"weight": weight.describe(), "degree": degree, "omega_B": omega,
            "metric_margin": metric_margin, "bk_margin": bk_margin,
            "fd_residual": fd, "passed": passed, "converged": converged}


def run_lemma_suite(family=None, degree=24, out=None, fmt="csv",
                    check_convergence=True):
    """B_k tables, the metric lower bound, the B_k >= (k!)^2 B_0 bound, and
    the kernel/metric finite-difference identity across a weight family."""
    family = list(family) if family is not None else default_lemma_family()
    if not family:
        raise ParameterError("empty weight family")
    family.sort(key=lambda w: w.describe())
    degree = _checked_degree(degree)
    rows = [_lemma_row(w, degree, check_convergence) for w in family]
    return _result("lemmas", {"weights": [w.describe() for w in family],
                              "degree": degree}, rows, out, fmt,
                   rule="disk 48x128 graded")
