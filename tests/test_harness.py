import csv
import json
import logging
import math

import mpmath as mp
import numpy as np
import pytest

from bergext import (CrossData, DegeneracyError, ParameterError, Weight, build_model,
                     extend_jet_direct, Jet)
from bergext import RegularizedLogWeight, disk_rule
from bergext import cli, sweeps
from bergext.functionals import gamma_branch_norm, log_weighted_bulk_norm
from bergext.weights import clamp_max


def test_sweep_config_hash_stable():
    c1 = sweeps.SweepConfig("claim1", {"ms": [1, 2]})
    c2 = sweeps.SweepConfig("claim1", {"ms": [1, 2]})
    c3 = sweeps.SweepConfig("claim1", {"ms": [1, 3]})
    assert c1.hash() == c2.hash()
    assert c1.hash() != c3.hash()
    with pytest.raises(ParameterError):
        sweeps.SweepConfig("claim1", schema=2)
    with pytest.raises(ParameterError):
        sweeps.SweepConfig("mystery")


def test_claim1_negative_control():
    # m = 0 must show the flat unweighted value, no harness-induced growth
    res = sweeps.run_claim1(ms=(0,), check_convergence=False)
    assert res.rows[0]["ratio"] == pytest.approx(math.pi, rel=1e-10)


def test_claim1_refuses_non_integer_m():
    # m = 1.5 used to run m = 1 and label the row m 1
    for ms in ([1.5], [1, 2.5], []):
        with pytest.raises(ParameterError, match="m grid"):
            sweeps.run_claim1(ms, check_convergence=False)


@pytest.mark.parametrize("degree", [2.7, float("nan"), float("inf"), "4", None, 0, -3],
                         ids=["fraction", "nan", "inf", "string", "none", "zero", "negative"])
def test_non_integer_degree_refused(degree):
    # one check for the model and every sweep: degree 2.7 used to run
    # degree 2 in claim2, claim34 and lemmas, and to raise a raw TypeError
    # in build_model
    calls = [lambda: build_model("disk", Weight.zero(), degree),
             lambda: sweeps.run_claim1([1], degree_schedule=lambda m: degree,
                                       check_convergence=False),
             lambda: sweeps.run_claim2([0.3], degree=degree, check_convergence=False),
             lambda: sweeps.run_claim34([0.3], degree=degree, check_convergence=False),
             lambda: sweeps.run_lemma_suite(degree=degree, check_convergence=False)]
    for call in calls:
        with pytest.raises(ParameterError, match="degree must be an integer >= 1"):
            call()


def test_integer_valued_degree_kept():
    # 4.0 and numpy integers are the degree 4, under the same hash
    hashes = {sweeps.run_claim2([0.3], degree=d, fmt="json", check_convergence=False)
              .provenance["config_hash"] for d in (4, 4.0, np.int64(4))}
    assert len(hashes) == 1
    assert build_model("disk", Weight.zero(), np.float64(4.0)).degree == 4


def test_claim1_rows_sorted_and_flagged(tmp_path):
    res = sweeps.run_claim1(ms=(3, 1, 2), check_convergence=True,
                            out=str(tmp_path / "c1.csv"))
    assert [r["m"] for r in res.rows] == [1, 2, 3]
    assert all(r["converged"] for r in res.rows)
    text = (tmp_path / "c1.csv").read_text()
    assert text.splitlines()[0].startswith("#")
    assert "m,degree,norm,ratio,condition,converged" in text


def test_failed_convergence_check_is_logged(caplog):
    # a BergextError in the refined recompute gives converged False and
    # logs why, at WARNING on the bergext.sweeps logger
    rule = disk_rule(radial_order=8, angular_order=16, grading_levels=4)

    def solve(r):
        if r is not rule:
            raise DegeneracyError("Gram condition number 3.000e+14 exceeds 1e+14")
        return 1.0, "model"

    with caplog.at_level(logging.WARNING, logger="bergext.sweeps"):
        assert sweeps._checked(solve, rule, True) == (1.0, "model", False)
    [record] = caplog.records
    assert record.name == "bergext.sweeps" and record.levelno == logging.WARNING
    assert "DegeneracyError: Gram condition number 3.000e+14" in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="bergext.sweeps"):
        assert sweeps._checked(lambda r: (1.0, "model"), rule, True)[2]
    assert not caplog.records


def test_csv_cells_parse(tmp_path):
    # numpy scalars are written as plain numbers, never as np.float64(...)
    lem, c1 = tmp_path / "lem.csv", tmp_path / "c1.csv"
    sweeps.run_lemma_suite([Weight.zero()], degree=8, out=str(lem),
                           check_convergence=False)
    sweeps.run_claim1(ms=(1,), degree_schedule=lambda m: 8, out=str(c1),
                      check_convergence=False)
    for path in (lem, c1):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        for row in csv.DictReader(lines):
            for col, cell in row.items():
                if col == "weight":
                    assert cell == "zero(domain='disk')"
                elif cell not in ("True", "False"):
                    float(cell)


def test_claim1_reproducible(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweeps.run_claim1(ms=(1, 2), check_convergence=False, out=str(p1))
    sweeps.run_claim1(ms=(1, 2), check_convergence=False, out=str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_claim2_rhs_and_plateau():
    res = sweeps.run_claim2(eps_list=(0.2,), A=6.0, m=2.0, degree=16,
                            check_convergence=False)
    row = res.rows[0]
    assert row["rhs"] == pytest.approx(math.exp(6.0))
    assert 0 < row["plateau_radius"] < 1
    assert row["ratio"] == pytest.approx(row["norm"] / row["rhs"])


def test_claim2_norm_decreases_with_eps():
    # criterion 5's shortfall is the model's behaviour: the plateaus carry no
    # mass, and off them e^{-psi} = e^{-phi} |z|^{-2 eps} shrinks with eps
    res = sweeps.run_claim2(eps_list=(0.4, 0.2, 0.1, 0.05), A=20.0, m=4.0,
                            degree=24, check_convergence=False)
    by_eps = {row["eps"]: row["norm"] for row in res.rows}
    norms = [by_eps[e] for e in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_claim2_norm_ordering_property():
    # psi = max(phi + eps log|z|^2, -A) >= phi + eps log|z|^2 pointwise, so
    # e^{-psi} <= e^{-(phi+eps log)} and the psi-norm of any function is
    # bounded by the unclamped norm
    lower = Weight([(0.2, "z")], "-4*x", "disk")  # phi + 0.2 log|z|^2
    psi = clamp_max(Weight.halfplane(2.0), 0.2, 6.0)
    m_lower = build_model("disk", lower, 10)
    m_psi = build_model("disk", psi, 10)
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        n_lower = np.real(np.vdot(c, m_lower.gram @ c))
        n_psi = np.real(np.vdot(c, m_psi.gram @ c))
        assert n_psi <= n_lower * (1 + 1e-10)


def test_claim34_row_content():
    res = sweeps.run_claim34(eps_list=(0.2,), degree=8, check_convergence=False)
    row = res.rows[0]
    assert row["rhs_full"] > row["rhs_data"] > 0
    assert row["ratio_full"] == pytest.approx(row["norm"] / row["rhs_full"])
    # rhs_data is a branch Gram entry; hold it against the node sum
    rule = disk_rule(radial_order=32, angular_order=64, grading_levels=16)
    wb = RegularizedLogWeight(0.2, "z1-z2").restrict_to_branch(2)
    ref = rule.integrate(lambda z: np.abs(z) ** 2 * np.exp(-wb.evaluate(z)))
    assert row["rhs_data"] == pytest.approx(ref.real, rel=1e-12)


def test_claim34_norm_independent_of_degree():
    # the minimal extension of f = (0, z1) under the diagonally invariant
    # weight is z1 itself, so the truncation degree cannot move the norm
    norms = [sweeps.run_claim34(eps_list=(0.2,), degree=d,
                                check_convergence=False).rows[0]["norm"]
             for d in (4, 8, 12)]
    assert norms[0] == norms[1] == norms[2]


def _lens_m2(t):
    """int |v|^2 dA(v) over the lens D n (D - t): the segment Re w > a = t/2
    of the unit disk about 0 (mirrored) plus the same segment about -t, on
    which |v|^2 = |w|^2 - 2t Re w + t^2 for w = v + t."""
    a = t / 2
    s = mp.sqrt(1 - a * a)
    phi = mp.acos(a)
    second = phi / 2 - (a**3 * s + a * s**3 / 3) / 2  # int |w|^2
    first = 2 * s**3 / 3                               # int Re w
    area = phi - a * s
    return 2 * second - 2 * t * first + t * t * area


def _claim34_oracle(eps, style):
    """The claim34 norm 2 pi int_0^2 f(t^2) t m2(t) dt, e^{-phi} = f(|z1 - z2|^2):
    under the invariant weight the Gram is block-diagonal in the total
    degree, the data fix the degree-1 block to z1 and every higher block is
    free, so the norm is G[z1, z1]."""
    with mp.workdps(25):
        e2 = mp.mpf(eps) ** 2
        if style == "shifted":
            def f(a2):
                return 1 / (e2 + a2)
        else:
            def f(a2):
                return mp.exp(max(e2 - a2, 0) / e2) / max(a2, e2)
        cuts = [0] + [mp.mpf(eps) * 2**j for j in range(64) if eps * 2**j < 2] + [2]
        return float(2 * mp.pi * mp.quad(lambda t: f(t * t) * t * _lens_m2(t), cuts))


@pytest.mark.parametrize("style", ["convolution", "shifted"])
@pytest.mark.parametrize("eps", [0.2, 0.05, 1e-3, 1e-6])
def test_claim34_norm_matches_oracle(eps, style):
    row = sweeps.run_claim34([eps], degree=2, style=style,
                             check_convergence=False).rows[0]
    assert row["norm"] == pytest.approx(_claim34_oracle(eps, style), rel=1e-12)


@pytest.mark.parametrize("style, pinned", [
    ("convolution", [(3.1327421945696496, 252.5047053246753),
                     (3.139380038834757, 454.1874234387683)]),
    ("shifted", [(2.996604366478392, 118.05904260900203),
                 (3.094516190624975, 241.28590007658804)]),
])
def test_claim34_values_pinned(style, pinned):
    # claim34 rows at eps 0.1 and 0.05, degree 12: the norms against the 1-D
    # oracle, rhs_data (a disk branch Gram) and the condition number pinned
    rows = sweeps.run_claim34([0.1, 0.05], degree=12, style=style,
                              check_convergence=False).rows
    assert [row["eps"] for row in rows] == [0.1, 0.05]
    for row, (rhs_data, condition) in zip(rows, pinned):
        assert row["norm"] == pytest.approx(_claim34_oracle(row["eps"], style), rel=1e-12)
        assert row["rhs_data"] == pytest.approx(rhs_data, rel=1e-12)
        assert row["condition"] == pytest.approx(condition, rel=1e-10)


def test_claim34_norm_log_rate():
    # the norm is int |z1|^2 e^{-phi_eps} over the bidisk, whose analytic rate
    # is pi^2 log(1/eps): pi/2 from int |z1|^2 times 2 pi log(1/eps) from the
    # transverse integral across the diagonal.  Over eps 1e-3 .. 3.125e-5 the
    # oracle's slope is 0.99984 pi^2
    eps = [1e-3 / 2**k for k in range(6)]
    rows = sweeps.run_claim34(eps_list=eps, degree=2,
                              check_convergence=False).rows
    by_eps = {row["eps"]: row["norm"] for row in rows}
    slope = np.polyfit(np.log(1.0 / np.array(eps)), [by_eps[e] for e in eps], 1)[0]
    assert slope == pytest.approx(math.pi**2, rel=1e-3)


def test_lemma_suite_all_pass():
    res = sweeps.run_lemma_suite(degree=16, check_convergence=False)
    assert all(r["passed"] for r in res.rows)
    assert [r["weight"] for r in res.rows] == sorted(r["weight"] for r in res.rows)


def test_lemma_identity_check_near_singular_origin():
    # the plain five-point step h = 2e-2 leaves an O(h^2) error above the 1e-3
    # tolerance from point_log r of about 0.87; extrapolated, it is below 1e-6
    res = sweeps.run_lemma_suite([Weight.point_log(0.9)], check_convergence=False)
    row = res.rows[0]
    assert row["passed"] and row["fd_residual"] < 1e-5


def test_lemma_provenance_names_weight_parameters():
    # the config hash must tell apart weights that differ only in a parameter
    runs = [sweeps.run_lemma_suite([w], degree=4, check_convergence=False)
            for w in (Weight.point_log(0.5), Weight.point_log(0.9),
                      Weight([(0.5, "z")], "0", "disk"),
                      Weight([(0.5, "z - 0.5")], "0", "disk"))]
    assert len({r.provenance["config_hash"] for r in runs}) == 4
    assert len({r.rows[0]["weight"] for r in runs}) == 4


def test_lemma_hash_ignores_legacy_tag():
    # a free-form "tag" once stood in for the weight's expressions, so these
    # two weights (omega_B 2.000 and 1.955) shared one config hash
    texts = ['{"log_terms": [], "smooth": "%s", "tag": "w"}' % s
             for s in ("-2.0*x", "-8.0*x")]
    runs = [sweeps.run_lemma_suite([cli.parse_weight(t)], degree=8,
                                   check_convergence=False) for t in texts]
    assert runs[0].rows[0]["omega_B"] != runs[1].rows[0]["omega_B"]
    assert runs[0].provenance["config_hash"] != runs[1].provenance["config_hash"]


def test_lemma_suite_negative_control():
    # a deliberately under-resolved quadrature must lose the converged flag:
    # the kernel/metric identity itself is structural (it holds for any
    # positive-definite Gram), so convergence is the meaningful control
    from bergext.quadrature import disk_rule, refine
    from bergext.bergman import higher_kernel

    bad_rule = disk_rule(radial_order=2, angular_order=34, grading_levels=0)
    bad = build_model("disk", Weight.point_log(0.9), 16, rule=bad_rule)
    good = build_model("disk", Weight.point_log(0.9), 16,
                       rule=refine(refine(bad_rule)))
    b_bad, b_good = higher_kernel(bad, 0), higher_kernel(good, 0)
    assert abs(b_bad - b_good) / b_good > 0.01


def test_json_output(tmp_path):
    out = tmp_path / "r.json"
    res = sweeps.run_claim2(eps_list=(0.3,), A=4.0, m=1.0, degree=10,
                            check_convergence=False, out=str(out), fmt="json")
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "claim2"
    assert doc["provenance"]["config_hash"] == res.provenance["config_hash"]
    assert len(doc["rows"]) == 1


# -- CLI ---------------------------------------------------------------------

def test_cli_kernel(capsys):
    assert cli.main(["kernel", "--degree", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["B0"] == pytest.approx(1 / math.pi, rel=1e-10)


def test_cli_kernel_domain_from_weight(capsys):
    # --domain defaults to the weight's own domain; an explicit mismatching
    # one is still a parameter error
    for weight in ("zero:bidisk", "reglog:0.1"):
        assert cli.main(["kernel", "--degree", "2", "--weight", weight]) == 0
        assert json.loads(capsys.readouterr().out)["domain"] == "bidisk"
    assert cli.main(["kernel", "--degree", "2", "--domain", "disk",
                     "--weight", "reglog:0.1"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_cli_extend_jet(capsys):
    rc = cli.main(["extend-jet", "--jet", "1,0", "--weight", "halfplane:2",
                   "--degree", "16"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm_sq"] == pytest.approx(math.pi * (1 + 2.0**2 / 2), rel=1e-8)


def test_cli_extend_cross(capsys):
    rc = cli.main(["extend-cross", "--f1", "1", "--f2", "1,1",
                   "--degree", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm_sq"] == pytest.approx(math.pi**2 * 1.5, rel=1e-8)


def test_cli_values_starting_with_minus(capsys):
    # a number list may start with "-" and still be a separate argument,
    # as it is with "=": the same output either way
    for opt, argv in [
        ("--jet", ["extend-jet", "--degree", "6", "--jet", "-0.0673j,1"]),
        ("--data", ["norms", "--kind", "gamma_branch", "--weight", "zero",
                    "--data", "-1j,1"]),
        ("--f1", ["extend-cross", "--degree", "4", "--f2", "-1j,1", "--f1", "-1j"]),
        ("--f2", ["extend-cross", "--degree", "4", "--f1", "-1j", "--f2", "-1j,1"]),
    ]:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        i = argv.index(opt)
        joined = argv[:i] + [opt + "=" + argv[i + 1]] + argv[i + 2:]
        assert cli.main(joined) == 0
        assert capsys.readouterr().out == out
    assert cli.main(["extend-jet", "--degree", "6", "--jet", "-1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"][:2] == [[-1.0, 0.0], [2.0, 0.0]]
    # a missing value is still a usage error
    for argv in (["extend-jet", "--jet", "--degree", "4"],
                 ["extend-jet", "--degree", "4", "--jet"],
                 ["extend-cross", "--f1", "--f2", "1"]):
        assert cli.main(argv) == 1
        assert "expected one argument" in capsys.readouterr().err


def test_cli_exit_codes(capsys, tmp_path):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["--config"]) == 1
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    cfg.write_text('{"params": {"degree": 4}}')
    assert cli.main(["--config", str(cfg)]) == 1
    assert "error: no subcommand given" in capsys.readouterr().err
    assert cli.main(["extend-jet", "--jet", "1,0",
                     "--weight", "point_log:1"]) == 2
    err = capsys.readouterr().err
    assert "monomials" in err
    assert cli.main(["norms", "--kind", "gamma_branch", "--gamma", "7"]) == 1


def test_cli_unparsable_weight_expression(capsys):
    # sympy fails on attribute access (a pasted numpy scalar repr, x.real)
    # inside its eval, and a name can parse to a non-expression; that is a
    # usage error, not a traceback
    for spec in ('{"log_terms": [{"r": 0.5, "f": "z - np.float64(0.2)"}]}',
                 '{"smooth": "x.real"}', '{"smooth": "__import__"}',
                 '{"smooth": "x > 1"}'):
        assert cli.main(["kernel", "--degree", "2", "--weight", spec]) == 1
        assert "error: cannot parse expression" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--degree", "2", "--weight", "reglog:nan"],
    ["kernel", "--degree", "2", "--weight", "clamp:nan:5"],
    ["kernel", "--degree", "2", "--weight", "halfplane:nan"],
    ["kernel", "--degree", "2", "--weight", "halfplane:inf"],
    ["kernel", "--degree", "2", "--weight", '{"family": "point_log", "r": NaN}'],
    ["norms", "--kind", "gamma_branch", "--weight", "zero:bidisk", "--data", "0,1"],
    ["norms", "--kind", "gamma_branch", "--weight", "reglog:0.1"],
    ["norms", "--kind", "log_weighted_bulk", "--weight", "zero", "--data", "0,0;0,1"],
    ["claim1", "--m", "1.."],
    ["claim1", "--m", "a,b"],
    ["norms", "--kind", "gamma_branch", "--weight", "zero", "--data", "nan,1"],
    ["norms", "--kind", "log_weighted_bulk", "--weight", "zero:bidisk", "--data", "0,0;0,nan"],
    ["extend-jet", "--jet", "1e400,1", "--degree", "4"],
    ["extend-cross", "--f1", "nan", "--f2", "nan,1"],
    ["norms", "--kind", "log_weighted_bulk", "--weight", "zero:bidisk", "--data", "0,0;0,1,2"],
    ["norms", "--kind", "log_weighted_bulk", "--weight", "zero:bidisk", "--data", ""],
    ["norms", "--kind", "log_weighted_bulk", "--weight", "zero:bidisk", "--data", ";"],
    ["claim1", "--m", "1.5", "--no-check"],
    ["kernel", "--degree", "2", "--kmax", "-1"],
], ids=["reglog-nan", "clamp-nan", "halfplane-nan", "halfplane-inf",
        "point-log-nan", "branch-bidisk-weight", "branch-reglog-shorthand",
        "bulk-disk-weight", "grid-open-range", "grid-not-numbers",
        "branch-data-nan", "bulk-data-nan", "jet-overflow", "cross-data-nan",
        "bulk-data-ragged", "bulk-data-empty", "bulk-data-empty-rows",
        "claim1-m-not-integer", "kernel-kmax-negative"])
def test_cli_bad_input_is_a_usage_error(capsys, argv):
    # non-finite weight parameters or data, a weight of the wrong domain for
    # a norm and a malformed grid exit 1 with an error line, not a traceback,
    # a wrong model or a NaN result
    assert cli.main(argv) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda: cli.parse_complex_list("1,1e400"),
    lambda: Jet((1.0, float("nan"))),
    lambda: CrossData((float("nan"),), (float("nan"), 1.0)),
    lambda: CrossData((1.0, float("inf")), (1.0,)),
    lambda: log_weighted_bulk_norm([[0, 0], [0, np.nan]], Weight.zero("bidisk")),
    lambda: gamma_branch_norm([np.inf, 1.0], Weight.zero()),
], ids=["complex-list", "jet", "cross-nan-at-0", "cross-inf", "bulk", "branch"])
def test_non_finite_data_refused(make):
    # non-finite data is refused where it enters, not carried into a NaN
    # coefficient or norm (or a misleading compatibility error)
    with pytest.raises(ParameterError, match="finite"):
        make()


def test_cli_claim_csv(tmp_path):
    out = tmp_path / "c1.csv"
    rc = cli.main(["claim1", "--m", "1..2", "--no-check", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "m,degree,norm,ratio,condition,converged"
    assert len(lines) == 3


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "claim2",
        "params": {"eps": "0.3", "A": 4, "m": 1, "degree": 10}}))
    rc = cli.main(["--config", str(cfg), "claim2", "--no-check",
                   "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["A"] == 4
    # CLI flag overrides the config value
    rc = cli.main(["--config", str(cfg), "claim2", "--no-check", "--A", "5",
                   "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["rows"][0]["A"] == 5


def test_cli_given_flag_beats_config_at_its_default(tmp_path, capsys):
    # a given flag wins over the config whatever its value, also when it
    # equals the library's or the CLI's default (A 20, kernel degree 16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"A": 5, "eps": "0.4", "degree": 8}}))
    assert cli.main(["--config", str(cfg), "claim2", "--no-check", "--A", "20",
                     "--eps", "0.4", "--degree", "4", "--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert (row["A"], row["eps"], row["degree"]) == (20.0, 0.4, 4)
    cfg.write_text(json.dumps({"params": {"degree": 8}}))  # kernel takes no A, eps
    assert cli.main(["--config", str(cfg), "kernel", "--degree", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 16
    assert cli.main(["--config", str(cfg), "kernel"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 8


# experiment -> (the library's call, ways to ask the CLI for the same
# experiment: flags, and config params or None); numbers are spelled as ints
# and as floats, by a flag and by a config value
_ONE_EXPERIMENT = {
    "claim1": (lambda **kw: sweeps.run_claim1([1], **kw), [
        (["--m", "1"], None), (["--m", "1.0"], None), ([], {"m": 1})]),
    "claim2": (lambda **kw: sweeps.run_claim2([0.3], A=4, m=1.0, degree=4, **kw), [
        (["--eps", "0.3", "--A", "4", "--m", "1", "--degree", "4"], None),
        (["--eps", "0.3", "--A", "4.0", "--m", "1.0", "--degree", "4"], None),
        (["--degree", "4"], {"eps": "0.3", "A": 4, "m": 1.0}),
        (["--A", "4"], {"eps": 0.3, "A": 5.0, "m": 1, "degree": 4})]),
    "claim34": (lambda **kw: sweeps.run_claim34([0.3], degree=2, style="shifted",
                                                **kw), [
        (["--eps", "0.3", "--degree", "2", "--style", "shifted"], None),
        (["--eps", "3e-1"], {"degree": 2, "style": "shifted"})]),
    "lemmas": (lambda **kw: sweeps.run_lemma_suite(degree=2.0, **kw), [
        (["--degree", "2"], None), ([], {"degree": 2})]),
}


def _hash_and_rows(text, fmt):
    """The config_hash and the rows of a JSON or CSV sweep output."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["provenance"]["config_hash"], doc["rows"]
    lines = text.splitlines()
    [h] = [l.split(": ")[1] for l in lines if l.startswith("# config_hash: ")]
    return h, [l for l in lines if not l.startswith("#")]


@pytest.mark.parametrize("out", [None, "r.json", "r.csv"],
                         ids=["stdout-json", "out-json", "out-csv"])
@pytest.mark.parametrize("experiment", sorted(_ONE_EXPERIMENT))
def test_cli_config_hash_matches_library(tmp_path, capsys, experiment, out):
    # one experiment has one hash and the same rows, however it is asked
    # for: the CLI hashes the format it writes, and the library normalizes
    # its parameters before hashing
    run, asks = _ONE_EXPERIMENT[experiment]
    fmt = "csv" if out and out.endswith(".csv") else "json"
    lib_path = tmp_path / ("lib." + fmt)
    lib = run(out=str(lib_path), fmt=fmt, check_convergence=False)
    expect = _hash_and_rows(lib_path.read_text(), fmt)
    assert expect[0] == lib.provenance["config_hash"]
    for flags, params in asks:
        argv = [experiment, "--no-check"] + flags
        if params is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema": 1, "params": params}))
            argv = ["--config", str(cfg)] + argv
        if out is None:
            assert cli.main(argv + ["--format", "json"]) == 0
            text = capsys.readouterr().out
        else:
            assert cli.main(argv + ["--out", str(tmp_path / out)]) == 0
            text = (tmp_path / out).read_text()
        assert _hash_and_rows(text, fmt) == expect, (flags, params)


def test_library_hash_kept_for_default_types():
    # the parameters are normalized before hashing, to the types of the
    # defaults, so a call with those types keeps its hash
    for A in (4.0, 4):
        res = sweeps.run_claim2([0.3], A=A, degree=6, fmt="json",
                                check_convergence=False)
        assert res.provenance["config_hash"] == "5ca66471476d8518"


@pytest.mark.parametrize("doc", [{"params": {"degre": 3}}, {"degre": 3},
                                 {"params": {"eps": "0.3"}}, {"params": {"config": "x"}}],
                         ids=["param", "top-level", "other-subcommand", "config"])
def test_cli_config_key_naming_no_option_refused(tmp_path, capsys, doc):
    # a misspelled key used to be ignored, so the default ran
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg), "kernel", "--weight", "halfplane:1"]) == 1
    key = next(iter(doc.get("params", doc)))
    assert "error: config key %r names no option of kernel" % key in capsys.readouterr().err


def test_cli_config_reserved_keys_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "claim1",
                               "params": {"degree": 2}, "kmax": 1}))
    assert cli.main(["--config", str(cfg), "kernel"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["degree"], len(doc["Bk"])) == (2, 2)


def test_cli_config_selects_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "lemmas",
        "params": {"degree": 10, "no_check": True}}))
    assert cli.main(["--config", str(cfg)]) == 0
    assert "omega_B" in capsys.readouterr().out


def test_cli_parser_reuse_leaks_nothing(tmp_path, capsys):
    # the parser is built once per process: a config value, a default or a
    # usage error must not carry over to the next call
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "params": {
        "weight": "halfplane:1.5", "degree": 3, "kmax": 2}}))
    calls = [["--config", str(cfg), "kernel"], ["kernel", "--degree", "2"],
             ["kernel", "--degree", "two"], ["--config", str(cfg), "kernel"]]

    def run(argv):
        rc = cli.main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    assert [rc for rc, _, _ in alone] == [0, 0, 1, 0]
    assert '"weight": "halfplane(m=1.5)"' in alone[0][1]
    assert '"weight": "zero(domain=\'disk\')"' in alone[1][1]
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert cli._build_parser.cache_info().misses == 1


def test_cli_weight_parsing():
    w = cli.parse_weight('{"log_terms": [{"r": 0.5, "f": "z"}], "smooth": "0", "domain": "disk"}')
    assert w.log_terms[0].r == 0.5
    with pytest.raises(ParameterError):
        cli.parse_weight("wat")
    with pytest.raises(ParameterError):
        cli.parse_weight("halfplane:xyz")
    grid = cli.parse_grid("1..4")
    assert grid == [1, 2, 3, 4]
    assert cli.parse_grid("0.4,0.2") == [0.4, 0.2]
    for bad in ("1..", "a,b", "1..x"):
        with pytest.raises(ParameterError):
            cli.parse_grid(bad)
