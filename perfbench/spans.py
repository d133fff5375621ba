"""Span tracing around bergext's public entry points, from outside the package.

``Tracer.install`` wraps each target function or method and replaces it in
every ``bergext`` namespace that holds it (``bergman.disk_rule``,
``sweeps.build_model``, ``bergext.build_model``, ...), so calls made inside
the package are traced too. A span is ``[name, start, end, parent, task,
info]``; spans stay in memory until ``write`` is called. ``layer_metrics``
turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import weakref

import numpy as np

# (module, class or None, attribute, layer). A layer name is "<module>.<kind>";
# the per-layer metrics are named after it.
TARGETS = [
    ("quadrature", None, "disk_rule", "quadrature.rule"),
    ("quadrature", None, "bidisk_rule", "quadrature.rule"),
    ("quadrature", None, "refine", "quadrature.rule"),
    ("quadrature", None, "integrate", "quadrature.integrate"),
    ("quadrature", "DiskRule", "integrate", "quadrature.integrate"),
    ("quadrature", "BidiskRule", "integrate", "quadrature.integrate"),
    ("weights", "Weight", "__init__", "weights.construct"),
    ("weights", "ClampedWeight", "__init__", "weights.construct"),
    ("weights", "RegularizedLogWeight", "__init__", "weights.construct"),
    ("weights", "BranchWeight", "__init__", "weights.construct"),
    ("weights", "CutoffFamily", "__init__", "weights.construct"),
    ("weights", "Weight", "evaluate", "weights.evaluate"),
    ("weights", "Weight", "d_holomorphic", "weights.evaluate"),
    ("weights", "Weight", "d_branch", "weights.evaluate"),
    ("weights", "BranchWeight", "evaluate", "weights.evaluate"),
    ("weights", "BranchWeight", "d_holomorphic", "weights.evaluate"),
    ("weights", "ClampedWeight", "evaluate", "weights.evaluate"),
    ("weights", "ClampedWeight", "d_holomorphic", "weights.evaluate"),
    ("weights", "RegularizedLogWeight", "evaluate", "weights.evaluate"),
    ("weights", "RegularizedLogWeight", "d_holomorphic", "weights.evaluate"),
    ("weights", "RegularizedLogWeight", "d_branch", "weights.evaluate"),
    ("weights", "CutoffFamily", "evaluate", "weights.evaluate"),
    ("weights", None, "twisted_derivative", "weights.evaluate"),
    ("weights", None, "sampled_laplacian_min", "weights.evaluate"),
    ("bergman", None, "build_model", "bergman.build_model"),
    ("bergman", None, "kernel", "bergman.kernel"),
    ("bergman", None, "higher_kernel", "bergman.kernel"),
    ("bergman", None, "unit_ek", "bergman.kernel"),
    ("bergman", None, "bergman_metric_at_zero", "bergman.kernel"),
    ("bergman", None, "log_kernel_gradient_at_zero", "bergman.kernel"),
    ("extension", None, "extend_jet_direct", "extension.solve"),
    ("extension", None, "extend_jet_recursive", "extension.solve"),
    ("extension", None, "extend_cross", "extension.solve"),
    ("extension", None, "rhs_estimate_jet", "extension.rhs"),
    ("extension", None, "rhs_estimate_cross", "extension.rhs"),
    ("functionals", None, "log_weighted_bulk_norm", "functionals.norm"),
    ("functionals", None, "gamma_branch_norm", "functionals.norm"),
    ("functionals", None, "derivative_norm_on_Y", "functionals.norm"),
    ("functionals", None, "final_example_norm", "functionals.norm"),
    ("functionals", None, "evaluate_norm", "functionals.norm"),
    ("sweeps", None, "run_claim1", "sweeps.row"),
    ("sweeps", None, "run_claim2", "sweeps.row"),
    ("sweeps", None, "run_claim34", "sweeps.row"),
    ("sweeps", None, "run_lemma_suite", "sweeps.row"),
    ("cli", None, "main", "cli.main"),
]

LAYERS = ("quadrature.rule", "quadrature.integrate", "weights.construct",
          "weights.evaluate", "bergman.build_model", "bergman.kernel",
          "extension.solve", "extension.rhs", "functionals.norm", "sweeps.row",
          "cli.main")

NAME, START, END, PARENT, TASK, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.active = True
        self.refined = weakref.WeakSet()

    def _info(self, name, args, kwargs, out):
        """Per-span facts: nodes built by a disk rule, points evaluated by a
        weight, and whether a model was built on a rule made by ``refine``."""
        if name == "quadrature.disk_rule":
            return len(out)
        if name == "quadrature.refine":
            self.refined.add(out)
            return None
        if LAYER_OF[name] == "weights.evaluate":
            return int(np.size(out))
        if name == "bergman.build_model":
            rule = kwargs.get("rule", args[3] if len(args) > 3 else None)
            return rule is not None and rule in self.refined
        return None

    def wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, clock(), None, tracer.stack[-1] if tracer.stack else None,
                    tracer.task, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[INFO] = tracer._info(name, args, kwargs, out)
                return out
            finally:
                span[END] = clock()
                tracer.stack.pop()

        return traced

    def install(self):
        """Wrap every target; return a function that undoes the patching."""
        mods = {k: m for k, m in list(sys.modules.items())
                if m is not None and (k == "bergext" or k.startswith("bergext."))}
        undo = []
        for modname, owner, attr, _layer in TARGETS:
            mod = mods["bergext." + modname]
            label = "%s.%s%s" % (modname, owner + "." if owner else "", attr)
            if owner is not None:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(label, orig))
                undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(label, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        undo.append((m, key, orig))

        def uninstall():
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

        return uninstall

    def write(self, path):
        """Spans as gzipped JSON lines: name, start, end, parent, task, info."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


LAYER_OF = {"%s.%s%s" % (m, o + "." if o else "", a): layer
            for m, o, a, layer in TARGETS}


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        edge = lo
        for a, b in sorted((spans[j][START], spans[j][END]) for j in children[i]):
            a, b = max(a, edge), min(b, hi)
            if b > a:
                covered += b - a
                edge = b
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans, n_tasks):
    """Per-layer metrics, per task: self seconds, calls (spans whose parent is
    in another layer), nodes built, weight points; and the share of model
    build time spent on rules made by ``refine``."""
    own = self_times(spans)
    layer = [LAYER_OF[s[NAME]] for s in spans]
    t = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    nodes = points = 0
    build = build_refined = 0.0
    for i, s in enumerate(spans):
        lay = layer[i]
        t[lay] += own[i]
        top = s[PARENT] is None or layer[s[PARENT]] != lay
        if top:
            calls[lay] += 1
        if s[NAME] == "quadrature.disk_rule":
            nodes += s[INFO] or 0
        elif lay == "weights.evaluate" and top and s[INFO] is not None:
            points += s[INFO]
        elif lay == "bergman.build_model":
            build += s[END] - s[START]
            if s[INFO]:
                build_refined += s[END] - s[START]
    per = 1.0 / max(n_tasks, 1)
    out = {}
    for lay in LAYERS:
        out[lay + "_s"] = t[lay] * per
        out[lay + "_calls"] = calls[lay] * per
    out["quadrature.nodes_built"] = nodes * per
    out["weights.points"] = points * per
    out["sweeps.recompute_share"] = build_refined / build if build else 0.0
    return out
