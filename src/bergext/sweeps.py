"""Experiment harness: parameter sweeps with reproducible CSV/JSON output.

Every sweep row carries a quadrature-convergence flag computed by redoing the
norm at doubled quadrature orders and requiring agreement within 1%.  Rows are
sorted by parameter before writing, and the provenance block contains a hash
of the canonical config, so identical configs give bit-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import BergextError, ParameterError
from .bergman import _gram, build_model, higher_kernel, bergman_metric_at_zero
from .extension import CrossData, Jet, extend_cross, extend_jet_direct
from .functionals import derivative_norm_on_Y
from .quadrature import bidisk_rule, disk_rule, refine
from .weights import RegularizedLogWeight, Weight, clamp_max

_EXPERIMENTS = ("claim1", "claim2", "claim34", "lemmas")

_COLUMNS = {
    "claim1": ["m", "degree", "norm", "ratio", "condition", "converged"],
    "claim2": ["eps", "A", "m", "degree", "norm", "rhs", "ratio",
               "plateau_radius", "condition", "converged"],
    "claim34": ["eps", "degree", "norm", "rhs_data", "rhs_full", "ratio_data",
                "ratio_full", "condition", "converged"],
    "lemmas": ["weight", "degree", "omega_B", "metric_margin", "bk_margin",
               "fd_residual", "passed", "converged"],
}


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"
    schema: int = 1

    def __post_init__(self):
        if self.schema != 1:
            raise ParameterError("unsupported config schema %r" % self.schema)
        if self.experiment not in _EXPERIMENTS:
            raise ParameterError("unknown experiment %r" % self.experiment)
        if self.fmt not in ("csv", "json"):
            raise ParameterError("fmt must be 'csv' or 'json'")

    @classmethod
    def from_dict(cls, d):
        return cls(
            experiment=d.get("experiment", ""),
            params=dict(d.get("params", {})),
            out=d.get("out"),
            fmt=d.get("fmt", "csv"),
            schema=int(d.get("schema", 1)),
        )

    def canonical_json(self):
        return json.dumps(
            {"schema": self.schema, "experiment": self.experiment,
             "params": self.params, "fmt": self.fmt},
            sort_keys=True, separators=(",", ":"))

    def hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


@dataclass
class SweepResult:
    experiment: str
    rows: list
    provenance: dict

    @property
    def columns(self):
        return _COLUMNS.get(self.experiment) or sorted(self.rows[0]) if self.rows else []

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

    def write(self, path, fmt=None):
        fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
        if fmt == "json":
            self.to_json(path)
        else:
            self.to_csv(path)


def _json_default(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return str(x)


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def worker_count():
    """Worker count from the BERGEXT_WORKERS environment variable (>= 1)."""
    try:
        n = int(os.environ.get("BERGEXT_WORKERS", "1"))
    except ValueError:
        raise ParameterError("BERGEXT_WORKERS must be an integer")
    return max(1, n)


def _pmap(fn, items):
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))


def _provenance(config, extra=None):
    p = {"config_hash": config.hash(), "version": __version__,
         "experiment": config.experiment}
    p.update(extra or {})
    return p


def _converged(norm, recompute, tol=0.01):
    try:
        other = recompute()
    except BergextError:
        return False, None
    if norm == 0 and other == 0:
        return True, other
    rel = abs(norm - other) / max(abs(norm), abs(other))
    return rel < tol, other


# -- claim 1 -----------------------------------------------------------------

def _claim1_row(args):
    m, degree, check = args
    w = Weight.halfplane(m) if m else Weight.zero()
    rule = disk_rule(radial_order=48, angular_order=128, grading_levels=16)
    model = build_model("disk", w, degree, rule=rule)
    rep = extend_jet_direct(model, Jet((1.0, 0.0)))
    norm = rep.norm_sq
    converged = True
    if check:
        def redo():
            m2 = build_model("disk", w, degree, rule=refine(rule))
            return extend_jet_direct(m2, Jet((1.0, 0.0))).norm_sq
        converged, _ = _converged(norm, redo)
    # phi(0)=0 and |a0|^2+|a1|^2 = 1, so the ratio equals the norm itself
    return {"m": m, "degree": degree, "norm": norm, "ratio": norm,
            "condition": model.condition_number, "converged": converged}


def run_claim1(ms=tuple(range(1, 9)), degree_schedule=None, out=None, fmt="csv",
               check_convergence=True):
    """Minimal norms of the jet (1, 0) under phi = -2m Re z, swept over m."""
    ms = sorted(int(m) for m in ms)
    if not ms:
        raise ParameterError("empty m grid")
    sched = degree_schedule or (lambda m: max(24, 6 * m))
    config = SweepConfig("claim1", {"ms": ms, "degrees": [sched(m) for m in ms]},
                         out, fmt)
    rows = _pmap(_claim1_row, [(m, sched(m), check_convergence) for m in ms])
    rows.sort(key=lambda r: r["m"])
    res = SweepResult("claim1", rows, _provenance(config, {
        "rule": "disk 48x128 graded", "jet": "(1,0)"}))
    if out:
        res.write(out, fmt)
    return res


# -- claim 2 -----------------------------------------------------------------

def _claim2_row(args):
    eps, A, m, degree, check = args
    w = clamp_max(Weight.halfplane(m), eps, A)
    rule = disk_rule(radial_order=48, angular_order=128, grading_levels=20)
    model = build_model("disk", w, degree, rule=rule)
    rep = extend_jet_direct(model, Jet((1.0, 0.0)))
    norm = rep.norm_sq
    # the clamped weight has psi(0) = -A and d psi = 0 near 0, so the
    # two-term right-hand side reduces to (|a0|^2+|a1|^2) e^{A}
    rhs = math.exp(A)
    converged = True
    if check:
        def redo():
            m2 = build_model("disk", w, degree, rule=refine(rule))
            return extend_jet_direct(m2, Jet((1.0, 0.0))).norm_sq
        converged, _ = _converged(norm, redo)
    return {"eps": eps, "A": A, "m": m, "degree": degree, "norm": norm,
            "rhs": rhs, "ratio": norm / rhs,
            "plateau_radius": w.plateau_radius(),
            "condition": model.condition_number, "converged": converged}


def run_claim2(eps_list=(0.4, 0.2, 0.1, 0.05), A=20.0, m=4.0, degree=24,
               out=None, fmt="csv", check_convergence=True):
    """Jet (1,0) under psi = max(phi + eps log|z|^2, -A), phi = -2m Re z."""
    eps_list = sorted(float(e) for e in eps_list)
    if not eps_list or min(eps_list) <= 0:
        raise ParameterError("eps grid must be nonempty and positive")
    config = SweepConfig("claim2", {"eps": eps_list, "A": A, "m": m,
                                    "degree": degree}, out, fmt)
    rows = _pmap(_claim2_row,
                 [(e, float(A), float(m), int(degree), check_convergence)
                  for e in eps_list])
    rows.sort(key=lambda r: r["eps"])
    res = SweepResult("claim2", rows, _provenance(config, {
        "rule": "disk 48x128 graded", "jet": "(1,0)",
        "rhs_formula": "(|a0|^2+|a1|^2) * exp(A), using psi(0)=-A, dpsi(0)=0"}))
    if out:
        res.write(out, fmt)
    return res


# -- claims 3-4 --------------------------------------------------------------

def _claim34_rule(eps, degree):
    inner_ang = int(min(512, max(256, round(8.0 / eps))))
    return bidisk_rule(radial_order=(16, 16), angular_order=(8, inner_ang),
                       grading_levels=10, diagonal_grading=True,
                       diagonal_levels=12)


def _claim34_norm(weight, degree, rule):
    model = build_model("bidisk", weight, degree, rule=rule)
    rep = extend_cross(model, CrossData((0.0,), (0.0, 1.0)))
    return rep.norm_sq, model.condition_number


def _claim34_row(args):
    eps, degree, style, check = args
    w = RegularizedLogWeight(eps, "z1-z2", style=style)
    rule = _claim34_rule(eps, degree)
    norm, cond = _claim34_norm(w, degree, rule)
    branch_rule = disk_rule(radial_order=32, angular_order=64, grading_levels=16)
    # f = (0, z1): the data integral lives on V_2 only, int |z|^2 e^{-phi}
    rhs_data = float(_gram(w.restrict_to_branch(2), 1, branch_rule)[1][1, 1].real)
    rhs_full = rhs_data + derivative_norm_on_Y(
        CrossData((0.0,), (0.0, 1.0)), w, rule=branch_rule, include_log=False)
    converged = True
    if check:
        def redo():
            return _claim34_norm(w, degree, refine(rule))[0]
        converged, _ = _converged(norm, redo)
    return {"eps": eps, "degree": degree, "norm": norm, "rhs_data": rhs_data,
            "rhs_full": rhs_full, "ratio_data": norm / rhs_data,
            "ratio_full": norm / rhs_full, "condition": cond,
            "converged": converged}


def run_claim34(eps_list=(0.2, 0.1, 0.05, 0.025), degree=16, style="convolution",
                out=None, fmt="csv", check_convergence=True):
    """Minimal cross extension of f = (0, z1) under the regularized diagonal
    weight, with the data and data+derivative right-hand sides."""
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if not eps_list or min(eps_list) <= 0:
        raise ParameterError("eps grid must be nonempty and positive")
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    config = SweepConfig("claim34", {"eps": eps_list, "degree": degree,
                                     "style": style}, out, fmt)
    rows = _pmap(_claim34_row,
                 [(e, int(degree), style, check_convergence) for e in eps_list])
    rows.sort(key=lambda r: -r["eps"])
    res = SweepResult("claim34", rows, _provenance(config, {
        "rule": "bidisk diagonal-graded, angular-reduced Gram",
        "data": "f = (0, z1)",
        "divergence_criterion": "strict monotone growth across >= 4 parameter "
                                "halvings and super-threshold final/initial "
                                "ratio"}))
    if out:
        res.write(out, fmt)
    return res


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
    """Relative defect of the kernel/metric identity at the origin:
    B1/B0 against the five-point dd-bar of log B0(z,z)."""
    pts = np.array([0.0, h, -h, 1j * h, -1j * h], dtype=complex)
    vals = np.log(np.real(model.kernel(pts, pts)))
    lap = (vals[1:].sum() - 4.0 * vals[0]) / h**2
    ddbar = lap / 4.0
    omega = bergman_metric_at_zero(model)
    return abs(ddbar - omega) / abs(omega)


def _lemma_row(args):
    weight, degree, check = args
    rule = disk_rule(radial_order=48, angular_order=128, grading_levels=20)
    model = build_model("disk", weight, degree, rule=rule)
    b = [higher_kernel(model, k) for k in range(min(6, degree) + 1)]
    omega = b[1] / b[0]
    metric_margin = omega - 1.0
    bk_margin = min(
        (b[k] - math.factorial(k) ** 2 * b[0]) / (math.factorial(k) ** 2 * b[0])
        for k in range(len(b)))
    fd = _fd_metric_residual(model)
    passed = metric_margin >= -1e-9 and bk_margin >= -1e-9 and fd < 1e-3
    converged = True
    if check:
        def redo():
            m2 = build_model("disk", weight, degree, rule=refine(rule))
            return higher_kernel(m2, 0)
        converged, _ = _converged(b[0], redo)
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
    config = SweepConfig("lemmas", {
        "weights": [w.describe() for w in family], "degree": degree}, out, fmt)
    rows = [_lemma_row((w, int(degree), check_convergence)) for w in family]
    rows.sort(key=lambda r: r["weight"])
    res = SweepResult("lemmas", rows, _provenance(config, {
        "rule": "disk 48x128 graded"}))
    if out:
        res.write(out, fmt)
    return res
