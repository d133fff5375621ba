"""Command-line interface.

Subcommands: kernel | extend-jet | extend-cross | claim1 | claim2 | claim34 |
lemmas | norms.  Options may come from a JSON config file (--config, schema 1)
with individual flags overriding it.  Exit codes: 0 success, 1 parameter
error, 2 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import BergextError, DegeneracyError, ParameterError
from .bergman import build_model
from .extension import (
    CrossData,
    Jet,
    extend_cross,
    extend_jet_direct,
    extend_jet_recursive,
    rhs_estimate_cross,
    rhs_estimate_jet,
)
from .functionals import NormSpec, evaluate_norm
from .weights import from_dict, shorthand
from . import sweeps


def parse_weight(text):
    """Weight from a JSON spec, an @file holding one, or the shorthand
    name:arg:... (see ``weights.shorthand``)."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read().strip()
    return from_dict(json.loads(text) if text.startswith("{") else shorthand(text))


def parse_complex_list(text):
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(complex(tok.replace("i", "j")))
        except ValueError:
            raise ParameterError("cannot parse %r as a complex number" % tok)
        if not np.isfinite(out[-1]):
            raise ParameterError("%r is not a finite number" % tok)
    return out


def parse_grid(text):
    """'1..8' (integer range) or a comma-separated list of numbers."""
    text = str(text).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        vals = [float(t) for t in text.split(",") if t.strip()]
        return [int(v) if v == int(v) else v for v in vals]
    except (ValueError, OverflowError) as exc:
        raise ParameterError("cannot parse grid %r: %s" % (text, exc))


def _join_number_lists(argv):
    """argv with ``--jet -1j,1`` joined into ``--jet=-1j,1`` (also --f1, --f2
    and --data): argparse reads a separate value that starts with "-" and is
    not a plain number as an option.  An option after them ("--..." or
    "-h") is left alone, so a missing value is still an error."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--jet", "--f1", "--f2", "--data") \
                and arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


@functools.cache
def _build_parser():
    """The parser, built once per process: parsing reads it and never sets a
    default.  An option the library owns defaults to None, that is unset."""
    p = _Parser(prog="bergext", description=__doc__)
    p.add_argument("--config", help="JSON config file (schema 1)")
    sub = p.add_subparsers(dest="command")

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--out", help="output path")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        return sp

    k = add("kernel", help="model summary: Gram diagnostics and B_k table")
    k.add_argument("--domain", choices=("disk", "bidisk"), default=None,
                   help="model domain (default: the weight's)")
    k.add_argument("--weight", default="zero")
    k.add_argument("--degree", type=int, default=16)
    k.add_argument("--kmax", type=int)

    ej = add("extend-jet", help="minimal-norm extension of a jet at the origin")
    ej.add_argument("--weight", default="zero")
    ej.add_argument("--degree", type=int, default=24)
    ej.add_argument("--jet", required=True, help="comma-separated a_0,a_1,...")
    ej.add_argument("--solver", choices=("direct", "recursive"), default="direct")

    ec = add("extend-cross", help="minimal-norm extension of cross data")
    ec.add_argument("--weight", default="zero:bidisk")
    ec.add_argument("--degree", type=int, default=12)
    ec.add_argument("--f1", default="0", help="coefficients of f1 on {z1=0}")
    ec.add_argument("--f2", default="0", help="coefficients of f2 on {z2=0}")

    c1 = add("claim1", help="jet-norm growth sweep over m")
    c1.add_argument("--m", type=parse_grid)
    c1.add_argument("--no-check", action="store_true")

    c2 = add("claim2", help="clamped-weight sweep over eps")
    c2.add_argument("--eps", type=parse_grid)
    c2.add_argument("--A", type=float)
    c2.add_argument("--m", type=float)
    c2.add_argument("--degree", type=int)
    c2.add_argument("--no-check", action="store_true")

    c34 = add("claim34", help="regularized diagonal-weight cross sweep")
    c34.add_argument("--eps", type=parse_grid)
    c34.add_argument("--degree", type=int)
    c34.add_argument("--style", choices=("convolution", "shifted"))
    c34.add_argument("--no-check", action="store_true")

    lm = add("lemmas", help="kernel-inequality suite over a weight family")
    lm.add_argument("--degree", type=int)
    lm.add_argument("--no-check", action="store_true")

    nm = add("norms", help="evaluate a norm functional")
    nm.add_argument("--kind", required=True,
                    choices=("log_weighted_bulk", "gamma_branch",
                             "derivative_on_Y", "final_example"))
    nm.add_argument("--gamma", type=float)
    nm.add_argument("--epsilon", type=float)
    nm.add_argument("--variant", choices=("theorem", "conjecture"))
    nm.add_argument("--region", choices=("full", "exclude_sing"))
    nm.add_argument("--r-sing", type=float)
    nm.add_argument("--weight", default=None)
    nm.add_argument("--data", default="0,1",
                    help="1-D coefficients, or rows separated by ';' for bulk")
    return p


def _with_config(argv, args):
    """argv with the values of the config file as flags right after the
    subcommand (the config's experiment when none is given): a given flag
    comes later and wins, and a config value goes through its flag's type.
    A key other than schema, experiment and params that names no option of
    the subcommand is refused."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
        raise ParameterError("config %s must be a JSON object with an "
                             "object 'params'" % args.config)
    if doc.get("schema", 1) != 1:
        raise ParameterError("unsupported config schema %r" % doc.get("schema"))
    if args.command is None and "experiment" in doc:
        argv = argv + [str(doc["experiment"])]
        args = _build_parser().parse_args(argv)
    if args.command is None:
        return argv  # refused as "no subcommand given"
    flags = []
    for key, val in {**doc.get("params", {}), **doc}.items():
        if key in ("schema", "experiment", "params"):
            continue
        attr = key.replace("-", "_")
        if attr in ("config", "command") or not hasattr(args, attr):
            raise ParameterError("config key %r names no option of %s"
                                 % (key, args.command))
        if val is None or val is False:
            continue
        flag = "--" + attr.replace("_", "-")
        flags.append(flag if val is True else flag + "=" + (
            val if isinstance(val, str) else json.dumps(val)))
    i = 0  # only --config FILE or --config=FILE comes before the subcommand
    while i < len(argv) and argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return argv[:i + 1] + flags + argv[i + 1:]


def _given(args, *names, **renamed):
    """The options among ``names`` and ``renamed`` that a flag or the config
    gave, under the library's names (``renamed`` maps option to parameter)."""
    pairs = [(n, n) for n in names] + list(renamed.items())
    return {p: getattr(args, n) for n, p in pairs if getattr(args, n) is not None}


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report_json(report, extra=None):
    doc = report.to_dict()
    doc.update(extra or {})
    return json.dumps(doc, indent=2, default=lambda x: float(np.real(x)))


def _run(args):
    cmd = args.command
    if cmd is None:
        raise ParameterError("no subcommand given")

    if cmd == "kernel":
        w = parse_weight(args.weight)
        model = build_model(args.domain or w.domain, w, args.degree)
        summary = model.summary(**_given(args, "kmax"))
        _emit(json.dumps(summary, indent=2, default=float), args.out)
        return 0

    if cmd == "extend-jet":
        w = parse_weight(args.weight)
        model = build_model("disk", w, args.degree)
        jet = Jet(tuple(parse_complex_list(args.jet)))
        solver = extend_jet_direct if args.solver == "direct" else extend_jet_recursive
        rep = solver(model, jet)
        extra = {}
        if len(jet) == 2:
            extra["rhs_estimates"] = rhs_estimate_jet(model, jet)
        _emit(_report_json(rep, extra), args.out)
        return 0

    if cmd == "extend-cross":
        w = parse_weight(args.weight)
        model = build_model("bidisk", w, args.degree)
        data = CrossData(tuple(parse_complex_list(args.f1) or [0.0]),
                         tuple(parse_complex_list(args.f2) or [0.0]))
        rep = extend_cross(model, data)
        extra = {"rhs_estimate": rhs_estimate_cross(model, data)}
        _emit(_report_json(rep, extra), args.out)
        return 0

    if cmd in ("claim1", "claim2", "claim34", "lemmas"):
        out = args.out
        fmt = args.format or ("json" if out and out.endswith(".json") else "csv")
        kw = {"out": out, "fmt": fmt, "check_convergence": not args.no_check}
        if cmd == "claim1":
            res = sweeps.run_claim1(**_given(args, m="ms"), **kw)
        elif cmd == "claim2":
            res = sweeps.run_claim2(**_given(
                args, "A", "m", "degree", eps="eps_list"), **kw)
        elif cmd == "claim34":
            res = sweeps.run_claim34(**_given(
                args, "degree", "style", eps="eps_list"), **kw)
        else:
            res = sweeps.run_lemma_suite(**_given(args, "degree"), **kw)
        if not out:
            print(res.to_json() if fmt == "json" else _rows_text(res))
        return 0

    if cmd == "norms":
        spec = NormSpec(kind=args.kind, **_given(
            args, "gamma", "epsilon", "region", "r_sing", "variant"))
        weight = parse_weight(args.weight) if args.weight else None
        if args.kind == "log_weighted_bulk":
            data = [parse_complex_list(row) for row in args.data.split(";")]
        elif args.kind == "derivative_on_Y":
            rows = args.data.split(";")
            if len(rows) != 2:
                raise ParameterError("derivative_on_Y data must be 'f1;f2'")
            data = CrossData(tuple(parse_complex_list(rows[0]) or [0.0]),
                             tuple(parse_complex_list(rows[1]) or [0.0]))
        else:
            data = parse_complex_list(args.data)
        val = evaluate_norm(spec, data, weight)
        doc = {"kind": args.kind, "value": float(val)}
        if hasattr(val, "growth_rate"):
            doc["divergent"] = True
            doc["growth_rate"] = val.growth_rate
        _emit(json.dumps(doc, indent=2), args.out)
        return 0

    raise ParameterError("unknown subcommand %r" % cmd)


def _rows_text(res):
    cols = res.columns
    lines = ["\t".join(cols)]
    for row in res.rows:
        lines.append("\t".join(str(row.get(c)) for c in cols))
    return "\n".join(lines)


def main(argv=None):
    parser = _build_parser()
    argv = _join_number_lists(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(argv, args))
        return _run(args)
    except DegeneracyError as exc:
        msg = "degeneracy: %s" % exc
        if exc.offending_monomials:
            msg += " [monomials: %s]" % exc.offending_monomials
        print(msg, file=sys.stderr)
        return 2
    except ParameterError as exc:
        print("error: %s" % exc, file=sys.stderr)
        print("run 'bergext --help' for usage", file=sys.stderr)
        return 1
    except (BergextError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
