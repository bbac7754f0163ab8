"""Tests of the benchmark's own code. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed tests build the benchmark executable first (dune, release
profile), as perfbench/run.py does.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STATUS = """Name:\tperfbench.exe
State:\tR (running)
VmPeak:\t  612340 kB
VmSize:\t  598012 kB
VmHWM:\t  480872 kB
VmRSS:\t  471120 kB
Threads:\t1
"""


class TailRule(unittest.TestCase):
    def test_thresholds(self):
        # With interpolation at q * (n - 1), p99 has 10 samples beyond it
        # from n = 902, p95 from n = 182 and p90 from n = 92.
        self.assertEqual(run.tail_percentile(300000), 0.99)
        self.assertEqual(run.tail_percentile(902), 0.99)
        self.assertEqual(run.tail_percentile(901), 0.95)
        self.assertEqual(run.tail_percentile(182), 0.95)
        self.assertEqual(run.tail_percentile(181), 0.90)
        self.assertEqual(run.tail_percentile(92), 0.90)
        self.assertIsNone(run.tail_percentile(91))

    def test_chosen_percentile_has_ten_beyond(self):
        for n in range(1, 3000):
            q = run.tail_percentile(n)
            if q is None:
                self.assertLess(run.samples_beyond(0.90, n), run.MIN_BEYOND)
                continue
            xs = list(range(n))
            value = run.percentile(xs, q)
            self.assertGreaterEqual(sum(1 for x in xs if x > value), run.MIN_BEYOND)
            higher = [h for h in run.TAIL_PERCENTILES if h > q]
            for h in higher:
                self.assertLess(run.samples_beyond(h, n), run.MIN_BEYOND)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6)
        self.assertEqual(run.percentile([7.0], 0.99), 7.0)


class VmHWM(unittest.TestCase):
    def test_parses_peak(self):
        self.assertEqual(run.vmhwm_kb(STATUS), 480872)

    def test_absent(self):
        self.assertIsNone(run.vmhwm_kb("Name:\tx\nVmRSS:\t 10 kB\n"))

    def test_rejects_other_units(self):
        with self.assertRaises(ValueError):
            run.vmhwm_kb("VmHWM:\t 10 MB\n")


class Seeds(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        os.chdir(root)
        exes = run.build()
        if exes is None:
            raise RuntimeError("benchmark build failed")
        cls.exe = exes[0]

    def ops(self, workload, seed):
        out = subprocess.run([self.exe, "ops", "--workload", workload, "--seed", str(seed),
                              "--seconds", "2"], capture_output=True, text=True, check=True)
        return out.stdout

    def test_same_seed_same_ops(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                first = self.ops(w, 7)
                self.assertTrue(first)
                self.assertEqual(first, self.ops(w, 7))

    def test_other_seed_other_ops(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.ops(w, 7), self.ops(w, 8))


if __name__ == "__main__":
    unittest.main()
