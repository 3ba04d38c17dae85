"""What run.py and compare_bench.py share: the metric definitions of
BENCHMARK.json and the workload-only metrics compare_bench judges."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper", "scaleup_daily", "planet_sharded", "campaign_server"]

# Units of values that must repeat exactly between reps and commits.
EXACT_UNITS = {"count", "bytes", "ratio", "kWh"}

# The most a metric may worsen between alternating parent/change pairs.
# The pairs share the host's state, so compare_bench holds them to this
# rather than to a wider BENCHMARK.json bound, which must also absorb the
# host's drift between sets of runs made apart (README.md).
PAIRED_BOUND = 0.10

# End-to-end metrics of one workload only, with bounds as in BENCHMARK.json.
# They are in the --out file's "extra" section; compare_bench judges them.
WORKLOAD_METRICS = {
    "campaign_server": [
        {"name": "campaign_latency_p50_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "campaign_latency_p90_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "campaigns_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
    ],
}


def load_benchmark():
    """BENCHMARK.json as {"end_to_end": {name: spec}, "per_layer": {name: spec}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
