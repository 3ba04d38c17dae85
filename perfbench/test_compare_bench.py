#!/usr/bin/env python3
"""Tests of compare_bench.py on made-up result files.

  python3 perfbench/test_compare_bench.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from spec import WORKLOAD_METRICS, load_benchmark

HERE = Path(__file__).resolve().parent
END_TO_END = load_benchmark()["end_to_end"]


def result(scale, extra=None):
    """A campaign_server --out file whose every time is scaled by `scale`."""
    metrics = {name: {"value": scale if m["better"] == "lower" else 1.0 / scale,
                      "unit": m["unit"]} for name, m in END_TO_END.items()}
    extras = {m["name"]: {"median": scale if m["better"] == "lower" else 1.0 / scale}
              for m in WORKLOAD_METRICS["campaign_server"]}
    extras.update(extra or {})
    return {"workload": "campaign_server", "seed": 1, "trace": 0,
            "host": {"cpu_model": "test", "nproc": 4, "monitor_kernel": "scalar"},
            "failed": 0, "metrics": metrics, "extra": extras, "digests": {"digest.a": "1"}}


class CompareBenchTest(unittest.TestCase):
    def compare(self, parent, change, claims=()):
        """Exit status of compare_bench on ten pairs; parent/change map i -> result."""
        with tempfile.TemporaryDirectory() as tmp:
            args = [sys.executable, str(HERE / "compare_bench.py")]
            for side, make in (("--parent", parent), ("--change", change)):
                args.append(side)
                for i in range(10):
                    path = Path(tmp) / f"{side[2:]}{i}.json"
                    path.write_text(json.dumps(make(i)))
                    args.append(str(path))
            if claims:
                args += ["--claim", *claims]
            return subprocess.run(args, capture_output=True, text=True).returncode

    def test_unknown_claims_are_refused(self):
        same = lambda i: result(1.0 + 0.001 * i)
        for claim in ("campaign_server:wal_s", "campaign_server:sim.events",
                      "paper:wall_s", "campaign_server"):
            with self.subTest(claim=claim):
                self.assertEqual(self.compare(same, same, [claim]), 2)

    def test_claims_on_judged_metrics(self):
        parent = lambda i: result(1.0 + 0.001 * i)
        faster = lambda i: result(0.8 + 0.001 * i)
        self.assertEqual(self.compare(parent, faster, ["campaign_server:wall_s"]), 0)
        self.assertEqual(
            self.compare(parent, faster, ["campaign_server:campaign_latency_p90_s"]), 0)
        self.assertEqual(self.compare(parent, parent, ["campaign_server:wall_s"]), 1)

    def test_regression_fails(self):
        parent = lambda i: result(1.0 + 0.001 * i)
        # Within BENCHMARK.json's 25 % time bounds, beyond the paired bound.
        slower = lambda i: result(1.15 + 0.001 * i)
        self.assertEqual(self.compare(parent, slower), 1)
        self.assertEqual(self.compare(parent, lambda i: result(1.03 + 0.001 * i)), 0)

    def test_zero_parent_median(self):
        zero = lambda i: result(1.0, {"campaigns_per_s": {"median": 0.0}})
        self.assertEqual(self.compare(zero, zero), 0)
        some = lambda i: result(1.0, {"campaigns_per_s": {"median": 1.0}})
        self.assertEqual(self.compare(some, zero), 1)


if __name__ == "__main__":
    unittest.main()
