"""Tests of the benchmark's own helpers: self-time attribution, the
transform-path classifier, the output checker and the tracer.

    python3 bench/selftest.py
"""

import math
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
from hostlab import fourier, measures, pipeline, reports  # noqa: E402


def span(sid, name, parent, start, end, **attrs):
    s = spans.Span(sid, name, parent, start, attrs)
    s.end = end
    return s


class SelfTime(unittest.TestCase):
    def test_nested_on_one_thread(self):
        root = span(0, "cli.weyl", None, 0.0, 10.0)
        a = span(1, "pipeline.host_experiment", root, 1.0, 4.0)
        b = span(2, "pipeline.weyl_sum", root, 5.0, 9.0)
        c = span(3, "adic.mul_mod1", b, 6.0, 7.0)
        st = spans.attribute([c, a, b, root])
        self.assertEqual(st, {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
        incl = spans.inclusive([root, a, b, c], st)
        self.assertEqual(incl[0], 10.0)
        self.assertEqual(incl[2], 4.0)

    def test_parallel_items_split_wall_time(self):
        root = span(0, "cli.fourier-cert", None, 0.0, 12.0)
        pmap = span(1, "reports.parallel_map", root, 1.0, 10.0)
        item1 = span(2, "fourier.smoothing_certificate", pmap, 2.0, 9.0, item=True)
        item2 = span(3, "fourier.smoothing_certificate", pmap, 3.0, 6.0, item=True)
        leaf = span(4, "fourier.ft_adic_many", item1, 4.0, 5.0)
        all_spans = [root, pmap, item1, item2, leaf]
        st = spans.attribute(all_spans)
        self.assertEqual(st, {0: 3.0, 1: 2.0, 2: 5.0, 3: 1.5, 4: 0.5})
        self.assertAlmostEqual(sum(st.values()), root.duration)
        self.assertAlmostEqual(spans.inclusive(all_spans, st)[1], pmap.duration)


class PathClassifier(unittest.TestCase):
    MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]

    def test_paths_match_the_code(self):
        cases = {
            "structured": measures.realize(measures.cantor3(), 5),
            "sparse": measures.cylinder_condition(
                measures.realize(measures.cantor3(), 10), measures.word(3, [2])),
            "dense": measures.shift_push(
                measures.realize(measures.markov(self.MARKOV_P), 8), 1),
        }
        for expected, mu in cases.items():
            self.assertEqual(spans.ft_path(mu), expected)
            with mock.patch.object(fourier, "_structured_phase_sum",
                                   wraps=fourier._structured_phase_sum) as structured, \
                 mock.patch.object(fourier, "_phase_powers",
                                   wraps=fourier._phase_powers) as dense:
                fourier.ft_adic_many(mu, np.array([1.0, 3.5]))
            self.assertEqual(structured.called, expected == "structured")
            self.assertEqual(dense.called, expected == "dense")


class Checker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import json
        with open(check.REFERENCE_PATH, encoding="utf-8") as fh:
            cls.ref = json.load(fh)["workloads"]

    def _perturbed(self, workload, job, key, tol, factor):
        ref = {key: self.ref[workload][job][key]}
        vals = list(ref[key])
        r = vals[0]
        vals[0] = r + factor * tol * max(1.0, abs(r)) if tol else math.nextafter(r, math.inf)
        return check.against_reference({key: vals}, ref, {key: tol})

    def test_rejects_beyond_tolerance(self):
        cases = [("spectral", "fourier-cert", "fourier_cert.csv:lhs", check.QUADRATURE),
                 ("desk-orbit", "weyl", "weyl.csv:re", check.IDENTITY),
                 ("markov-stats", "martingale", "martingale.csv:value", check.EXACT)]
        for workload, job, key, tol in cases:
            self.assertEqual(len(self._perturbed(workload, job, key, tol, 2.0)), 1, key)
            if tol:
                self.assertEqual(self._perturbed(workload, job, key, tol, 0.5), [], key)

    def test_row_count_and_missing_column(self):
        ref = {"a": [1.0, 2.0]}
        self.assertTrue(check.against_reference({"a": [1.0]}, ref, {}))
        self.assertTrue(check.against_reference({}, ref, {}))


class Tracer(unittest.TestCase):
    def test_every_binding_wrapped_and_restored(self):
        original = measures.sample_digits
        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        tracer.install()
        try:
            self.assertIsNot(pipeline.sample_digits, original)
            cfg = pipeline.HostExperimentConfig(gen=measures.cantor3(), b=2, seed=1,
                                                samples=2, checkpoints=(50,), freqs=(1,))
            with mock.patch.dict("os.environ", {"HOSTLAB_THREADS": "2"}):
                pipeline.host_experiment(cfg, parallel_map=reports.parallel_map)
        finally:
            tracer.remove()
        self.assertIs(pipeline.sample_digits, original)
        self.assertIs(measures.sample_digits, original)
        by_name = {}
        for s in rec.spans:
            by_name.setdefault(s.name, []).append(s)
        self.assertEqual(len(by_name["measures.sample_digits"]), 2)
        for s in by_name["measures.sample_digits"]:
            self.assertTrue(s.parent.attrs.get("item"))
            self.assertEqual(s.parent.parent.name, "reports.parallel_map")
            self.assertEqual(s.parent.parent.parent.name, "pipeline.host_experiment")


if __name__ == "__main__":
    unittest.main()
