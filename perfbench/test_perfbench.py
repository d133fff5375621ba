"""Tests of the benchmark itself (not of bergext).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bergext as bx  # noqa: E402
import bergext.cli  # noqa: E402,F401
import bergext.functionals  # noqa: E402,F401
import bergext.sweeps  # noqa: E402,F401
import spans  # noqa: E402
import workloads  # noqa: E402


def first_rounds(workload, seed, n=3):
    return list(itertools.islice(workloads.rounds(workload, seed), n))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_tasks(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(first_rounds(name, 7), first_rounds(name, 7))
                self.assertNotEqual(first_rounds(name, 7), first_rounds(name, 8))

    def test_every_round_has_the_same_kinds(self):
        for name in workloads.WORKLOADS:
            kinds = [[kind for _, kind, _ in batch]
                     for batch in first_rounds(name, 3, n=4)]
            self.assertTrue(all(k == kinds[0] for k in kinds), name)

    def test_task_ids_are_sequential(self):
        ids = [t[0] for batch in first_rounds("norms", 1) for t in batch]
        self.assertEqual(ids, list(range(len(ids))))


class CheckerTest(unittest.TestCase):
    """Each checker accepts a real output and rejects a perturbed one."""

    def check(self, kind, params):
        run, check = workloads.KINDS[kind]
        out = run(bx, params)
        self.assertIsNone(check(bx, params, out))
        return out, check

    def test_final_norm(self):
        p = {"epsilon": 0.1}
        val, check = self.check("final_norm", p)
        self.assertIsNotNone(check(bx, p, val * 1.2))

    def test_bulk_closed_form(self):
        val, check = self.check("bulk_closed", {})
        self.assertIsNotNone(check(bx, {}, val * (1 + 1e-6)))

    def test_derivative_closed_form(self):
        p = {"weight": ["zero_bidisk"], "data": [[[0.5, 0.0], [1.0, -0.5]],
                                                [[0.5, 0.0], [0.0, 0.0], [2.0, 1.0]]]}
        val, check = self.check("derivative_norm", p)
        self.assertIsNotNone(check(bx, p, val * (1 + 1e-6)))

    def test_zero_weight_bk(self):
        p = {"weight": ["zero"], "degree": 12, "jet": [[1.0, 0.0], [0.5, 0.5]]}
        out, check = self.check("disk_direct", p)
        out["Bk"][2] *= 1 + 1e-6
        self.assertIn("B_2", check(bx, p, out))

    def test_direct_vs_recursive(self):
        p = {"weight": ["halfplane", 1.0], "degree": 12,
             "jet": [[1.0, 0.0], [0.5, 0.5]]}
        out, check = self.check("disk_direct", p)
        out["recursive"].coefficients[0] += 1e-6
        self.assertIn("direct vs recursive", check(bx, p, out))

    def test_jet_constraints(self):
        p = {"weight": ["halfplane", 1.0], "degree": 12,
             "jet": [[1.0, 0.0], [0.5, 0.5]]}
        out, check = self.check("disk_direct", p)
        out["direct"].diagnostics["constraint_residual"] = 1e-3
        self.assertIn("jet constraints", check(bx, p, out))

    def test_divergence_verdict(self):
        p = {"weight": ["zero"], "gamma": 0.0, "variant": "theorem",
             "u": [[1.0, 0.0], [1.0, 0.0]], "divergent": True}
        val, check = self.check("gamma_norm", p)
        self.assertIsNotNone(check(bx, dict(p, divergent=False), val))

    def test_cross_pythagoras(self):
        p = {"weight": ["tilted", 0.5, -0.25], "degree": 2,
             "data": [[[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}
        out, check = self.check("cross_generic", p)
        out["report"].diagnostics["pythagoras_rel_defect"] = 1e-6
        self.assertIn("Pythagoras", check(bx, p, out))


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        S = spans
        # root [0, 10] with children [1, 3] and [2, 6] (overlapping: their
        # union covers [1, 6]); the second child has a grandchild [4, 5]
        tree = [
            ["bergman.build_model", 0.0, 10.0, None, 1, None],
            ["quadrature.disk_rule", 1.0, 3.0, 0, 1, 100],
            ["weights.Weight.evaluate", 2.0, 6.0, 0, 1, 50],
            ["weights.Weight.evaluate", 4.0, 5.0, 2, 1, 50],
        ]
        self.assertEqual(S.self_times(tree), [5.0, 2.0, 3.0, 1.0])
        m = S.layer_metrics(tree, n_tasks=2)
        self.assertEqual(m["bergman.build_model_s"], 2.5)
        self.assertEqual(m["quadrature.rule_s"], 1.0)
        self.assertEqual(m["weights.evaluate_s"], 2.0)
        # the nested evaluate is part of the outer call: one call, 50 points
        self.assertEqual(m["weights.evaluate_calls"], 0.5)
        self.assertEqual(m["weights.points"], 25.0)
        self.assertEqual(m["quadrature.nodes_built"], 50.0)


class TracerTest(unittest.TestCase):
    def test_patches_reimported_names_and_restores(self):
        orig = bx.bergman.build_model
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            self.assertIsNot(bx.sweeps.build_model, orig)
            self.assertIs(bx.sweeps.build_model, bx.bergman.build_model)
            self.assertIs(bx.build_model, bx.bergman.build_model)
            bx.sweeps.run_claim1([1], degree_schedule=lambda m: 4)
        finally:
            uninstall()
        self.assertIs(bx.sweeps.build_model, orig)
        self.assertIs(bx.quadrature.DiskRule.integrate,
                      bx.quadrature.DiskRule.__dict__["integrate"])
        names = {s[spans.NAME] for s in tracer.spans}
        self.assertIn("sweeps.run_claim1", names)
        self.assertIn("quadrature.refine", names)
        m = spans.layer_metrics(tracer.spans, 1)
        self.assertEqual(m["bergman.build_model_calls"], 2.0)
        self.assertGreater(m["sweeps.recompute_share"], 0.5)


if __name__ == "__main__":
    unittest.main()
