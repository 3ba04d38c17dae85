#!/usr/bin/env python3
"""Judge a change against its parent commit from alternating benchmark runs.

Give the --out files of at least ten parent/change pairs, each side in the
order it ran (run the pairs alternating which side goes first):

  python3 perfbench/compare_bench.py --parent p01.json ... p10.json \\
      --change c01.json ... c10.json [--claim planet_sharded:wall_s ...]

Pair i is (parent i, change i). For each workload and end-to-end metric
(those of BENCHMARK.json, plus the workload's own in spec.WORKLOAD_METRICS):

  * a claimed metric improved only if the change wins at least 9 in 10
    pairs (ties count for neither) and the medians differ by more than the
    parent's interquartile range — and no more operations failed than at
    the parent;
  * every other metric is "no worse" when the change's median is within
    the metric's bound of the parent's, at most spec.PAIRED_BOUND; when
    the parent's
    own spread exceeds the bound it is "unresolved", unless every change
    run beats every parent run.

Both runs of a pair use one seed, and their exact values — counts, bytes,
ratios, energy and output digests — must be equal. Files from different
hosts are refused.
Exit status: 0 when every claim holds and nothing regressed, 1 when not,
2 on unusable input, which includes a claim naming a workload:metric pair
that is not judged.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from spec import EXACT_UNITS, PAIRED_BOUND, WORKLOAD_METRICS, load_benchmark

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """{(workload, trace): detail} from a single-workload or --workload all file."""
    data = json.loads(Path(path).read_text())
    if "workloads" not in data:
        return {(data["workload"], data["trace"]): data}
    out = {}
    for workload, passes in data["workloads"].items():
        out[(workload, 0)] = passes["untraced"]
        out[(workload, 1)] = passes["traced"]
    return out


def better(direction, a, b):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def share(delta, base):
    """delta as a share of base; a zero base gives 0 for no change, else infinity."""
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def judge(name, spec, parent, change, claimed, more_failures):
    bound = min(spec["bound"], PAIRED_BOUND)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(better(spec["better"], c, p) for p, c in zip(parent, change))
    # Worsening of the change's median as a share of the parent's.
    worse = share(c_med - p_med, p_med) * (1 if spec["better"] == "lower" else -1)
    all_better = all(better(spec["better"], c, p) for c in change for p in parent)
    if claimed:
        met = (wins >= WIN_SHARE * len(parent) and abs(c_med - p_med) > q3 - q1
               and better(spec["better"], c_med, p_med) and not more_failures)
        verdict = "improved" if met else "CLAIM NOT MET"
    elif share(q3 - q1, p_med) > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "no worse"
    print(f"  {name:22s} parent {p_med:.6g} [{q1:.6g}, {q3:.6g}]  change {c_med:.6g}  "
          f"gain {-worse:+.2%}  wins {wins}/{len(parent)}  bound {bound:.0%}  {verdict}")
    return verdict in ("improved", "no worse", "unresolved")


def exact_values(detail):
    values = dict(detail.get("digests", {}))
    for name, metric in detail["metrics"].items():
        if metric["unit"] in EXACT_UNITS:
            values[name] = metric["value"]
    return values


def run_value(detail, name):
    """A run's value of a metric: the reported one, or a workload metric's."""
    if name in detail["metrics"]:
        return detail["metrics"][name]["value"]
    return detail["extra"][name]["median"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", nargs="*", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args()
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        print(f"compare_bench: need at least {MIN_PAIRS} parent/change pairs", file=sys.stderr)
        return 2

    end_to_end = list(load_benchmark()["end_to_end"].values())
    parents = [load(p) for p in args.parent]
    changes = [load(c) for c in args.change]
    runs = parents + changes
    hosts = {json.dumps(d["host"], sort_keys=True) for run in runs for d in run.values()}
    if len(hosts) != 1:
        print("compare_bench: results come from different hosts:\n  " + "\n  ".join(hosts),
              file=sys.stderr)
        return 2

    keys = sorted(set.intersection(*(set(run) for run in runs)))
    judged = {(workload, m["name"]) for workload, trace in keys if trace == 0
              for m in end_to_end + WORKLOAD_METRICS.get(workload, [])}
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    unknown = sorted(":".join(c) for c in claims - judged)
    if unknown:
        print("compare_bench: no such workload:metric among the untraced results: "
              + ", ".join(unknown), file=sys.stderr)
        return 2
    ok = True
    for key in keys:
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'})")
        differing = set()
        for p, c in zip(parents, changes):
            if p[key]["seed"] != c[key]["seed"]:
                print("compare_bench: a pair ran with two different seeds", file=sys.stderr)
                return 2
            ep, ec = exact_values(p[key]), exact_values(c[key])
            differing |= {k for k in ep.keys() | ec.keys() if ep.get(k) != ec.get(k)}
        if differing:
            ok = False
            print("  EXACT VALUES DIFFER: " + ", ".join(sorted(differing)))
        if trace:
            continue
        more_failures = (sum(p[key]["failed"] for p in parents) <
                         sum(c[key]["failed"] for c in changes))
        if more_failures:
            print("  more operations failed on the change than on the parent")
        for metric_spec in end_to_end + WORKLOAD_METRICS.get(workload, []):
            name = metric_spec["name"]
            parent = [run_value(p[key], name) for p in parents]
            change = [run_value(c[key], name) for c in changes]
            ok &= judge(name, metric_spec, parent, change, (workload, name) in claims,
                        more_failures)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
