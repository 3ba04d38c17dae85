#!/usr/bin/env python3
"""End-to-end benchmark of the ecoCloud simulator (see README.md).

Builds bench_e2e from this checkout, runs one workload for a fixed
wall-clock budget with every rep in a fresh process, checks the outputs,
and prints one JSON line as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, each the best of the run's reps;
--trace 1 the per-layer ones, each the median rep's.

  python3 perfbench/run.py --workload paper --seed 7 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 20130520 --out R.json
  python3 perfbench/run.py --smoke
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spec import EXACT_UNITS, ROOT, WORKLOAD_METRICS, WORKLOADS, load_benchmark

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20130520
# Every run must end within 180 s; no single child may take longer.
CHILD_TIMEOUT_S = 170.0
# setup_s is the best of several constructions per run: the timed reps'
# plus construction-only reps, at least MIN and, time permitting, WANT.
MIN_SETUP_SAMPLES = 3
WANT_SETUP_SAMPLES = 5
# campaign_server offers load for the run's seconds less this margin,
# which leaves time for its references and drain.
SERVER_MARGIN_S = 5.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_reference():
    """Digests recorded at DEFAULT_SEED, per workload."""
    with open(HERE / "reference.json") as f:
        return json.load(f)["digests"]


def build(build_dir, targets):
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            raise SystemExit("run.py: build failed: " + " ".join(step))


def fnv1a(data):
    h = 1469598103934665603
    for byte in data:
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


class Bench:
    def __init__(self, build_dir, smoke):
        self.binary = build_dir / "bench_e2e"
        self.build_dir = build_dir
        self.work = build_dir / "work"
        self.smoke = smoke

    def child(self, workload, seed, mode="run", trace=0, extra=(), deadline=None):
        """One rep in a fresh process; its JSON line, or None if it failed."""
        workdir = self.work / f"{workload}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        args = [str(self.binary), "--workload", workload, "--seed", str(seed),
                "--mode", mode, "--trace", str(trace), "--workdir", str(workdir), *extra]
        if trace:
            # Spans of the last traced rep, as Chrome trace JSON.
            args += ["--trace-out", str(self.build_dir / f"trace-{workload}.json")]
        if self.smoke:
            args.append("--smoke")
        timeout = CHILD_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
        try:
            proc = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            log(f"run.py: {workload} rep timed out after {timeout:.0f} s")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            log(f"run.py: {workload} rep exited {proc.returncode}: {proc.stderr.strip()}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def digests_of(rep):
    return tuple(sorted((k, v) for k, v in rep.items() if k.startswith("digest.")))


def summarize(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0],
            "median": statistics.median(values), "q3": q[2], "max": max(values)}


def best(metric, series):
    """The best of a run's reps. Other tenants of a shared host only ever
    add time, so the fastest rep is the steadiest estimate of the program's
    own cost (README.md, "Run length, rep counts and spread")."""
    return min(series) if metric["better"] == "lower" else max(series)


def check_reps(reps, reference):
    """(failed reps, common digests): reps whose digests differ from the
    other reps' or from the reference fail, and so does a traced rep whose
    own checks failed."""
    common = Counter(digests_of(r) for r in reps).most_common(1)[0][0] if reps else ()
    if reference and any(reference.get(k, v) != v for k, v in common):
        return len(reps), common
    bad = [r for r in reps if digests_of(r) != common or not r.get("check.traced", True)]
    return len(bad), common


def numbers(reps):
    """Every numeric field of the reps, as a list per name."""
    values = {}
    for rep in reps:
        for key, value in rep.items():
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and key not in ("seed", "host.nproc", "attempted", "failed")):
                values.setdefault(key, []).append(value)
    return values


def run_daily(bench, workload, seed, seconds, trace, reference):
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + CHILD_TIMEOUT_S
    reps, durations, attempted = [], [], 0
    while True:
        t = time.monotonic()
        rep = bench.child(workload, seed, trace=trace, deadline=hard_deadline)
        durations.append(time.monotonic() - t)
        attempted += 1
        if rep is not None:
            reps.append(rep)
        if bench.smoke or time.monotonic() + statistics.median(durations) > deadline:
            break
    bad, common = check_reps(reps, reference)
    failed = attempted - len(reps) + bad
    if not reps:
        raise SystemExit(f"run.py: every {workload} rep failed")

    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    setup_durations = []
    while trace == 0 and not bench.smoke and len(setups) < WANT_SETUP_SAMPLES:
        estimate = statistics.median(setup_durations or [statistics.median(setups) + 0.2])
        if len(setups) >= MIN_SETUP_SAMPLES and time.monotonic() + estimate > deadline:
            break
        t = time.monotonic()
        rep = bench.child(workload, seed, mode="setup", deadline=hard_deadline)
        setup_durations.append(time.monotonic() - t)
        if rep is None:
            raise SystemExit(f"run.py: a {workload} set-up rep failed")
        setups.append(rep["setup_s"])

    values = numbers(reps)
    if setups:
        values["setup_s"] = setups
    return reps, attempted, failed, values, dict(common)


def run_server(bench, workload, seed, seconds, trace, reference):
    load = 0.5 if bench.smoke else max(1.0, seconds - SERVER_MARGIN_S)
    rep = bench.child(workload, seed, trace=trace,
                      extra=("--load-seconds", str(load)),
                      deadline=time.monotonic() + CHILD_TIMEOUT_S)
    if rep is None:
        raise SystemExit("run.py: the campaign_server rep failed")
    bad, common = check_reps([rep], reference)
    failed = rep["attempted"] if bad else rep["failed"]
    return [rep], rep["attempted"], failed, numbers([rep]), dict(common)


def run_workload(bench, workload, seed, seconds, trace, benchmark):
    reference = None
    if seed == DEFAULT_SEED and not bench.smoke:
        reference = load_reference().get(workload)
    runner = run_server if workload == "campaign_server" else run_daily
    reps, attempted, failed, values, digests = runner(
        bench, workload, seed, seconds, trace, reference)

    correct = failed == 0
    metrics = {}
    # End-to-end values are the best rep's; per-layer ones the median rep's.
    for name, metric in benchmark["per_layer" if trace else "end_to_end"].items():
        if name not in values:
            raise SystemExit(f"run.py: {workload} did not report {name}")
        series = values[name]
        if metric["unit"] in EXACT_UNITS and len(set(series)) > 1:
            log(f"run.py: {name} differs between reps: {series}")
            correct = False
        value = statistics.median(series) if trace else best(metric, series)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    host = {k[len("host."):]: v for k, v in reps[0].items() if k.startswith("host.")}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: dict(m, **summarize(values[n])) for n, m in metrics.items()},
        "extra": {k: summarize(v) for k, v in values.items() if k not in metrics},
        "digests": digests,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def print_table(detail):
    log(f"# {detail['workload']} (trace {detail['trace']}): attempted {detail['attempted']}, "
        f"failed {detail['failed']}, correct {detail['correct']}")
    for name, m in detail["metrics"].items():
        log(f"  {name:34s} {m['value']:>16.6g} {m['unit']:12s} "
            f"n={m['n']} q1={m['q1']:.6g} median={m['median']:.6g} q3={m['q3']:.6g}")


def run_all(bench, seed, seconds, benchmark):
    combined = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        passes = {}
        for trace in (0, 1):
            _, detail = run_workload(bench, workload, seed, seconds, trace, benchmark)
            print_table(detail)
            passes["untraced" if trace == 0 else "traced"] = detail
        untraced = passes["untraced"]["metrics"]["wall_s"]["value"]
        traced = passes["traced"]["extra"]["traced_wall_s"]["min"]
        passes["trace_overhead_ratio"] = (traced - untraced) / untraced
        log(f"  trace_overhead_ratio {passes['trace_overhead_ratio']:+.4f}")
        combined["host"] = passes["untraced"]["host"]
        combined["workloads"][workload] = passes
    return combined


def smoke(bench, build_dir, benchmark):
    """Tiny versions of every workload: every metric of BENCHMARK.json is
    reported, nothing fails, and the tiny daily config's event log matches
    the one `ecocloud_cli run-daily --events` writes."""
    problems = []
    paper_digest = None
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, detail = run_workload(bench, workload, DEFAULT_SEED, 1, trace, benchmark)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed {result['failed']}")
            missing = [m["name"] for m in WORKLOAD_METRICS.get(workload, [])
                       if trace == 0 and m["name"] not in detail["extra"]]
            if missing:
                problems.append(f"{workload} did not report {', '.join(missing)}")
            if workload == "paper" and trace == 0:
                paper_digest = detail["digests"]["digest.events"]
    work = build_dir / "work"
    conf = work / "smoke_paper.conf"
    events = work / "smoke_cli_events.bin"
    conf.write_text(subprocess.run(
        [str(bench.binary), "--workload", "paper", "--seed", str(DEFAULT_SEED),
         "--mode", "config", "--smoke"], capture_output=True, text=True, check=True).stdout)
    subprocess.run([str(build_dir / "ecocloud" / "apps" / "ecocloud_cli"), "run-daily",
                    "--config", str(conf), "--events", str(events)],
                   stdout=sys.stderr, check=True)
    cli_digest = str(fnv1a(events.read_bytes()))
    if cli_digest != paper_digest:
        problems.append(f"ecocloud_cli digest {cli_digest} != bench_e2e {paper_digest}")
    for problem in problems:
        log("smoke: " + problem)
    log("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every number of the run as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs of every workload plus the CLI digest check")
    parser.add_argument("--build-dir", default=str(ROOT / ".bench_build"))
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    benchmark = load_benchmark()
    build_dir = Path(args.build_dir).resolve()
    build(build_dir, ["bench_e2e", "ecocloud_cli"] if args.smoke else ["bench_e2e"])
    bench = Bench(build_dir, args.smoke)
    if args.smoke:
        return smoke(bench, build_dir, benchmark)

    if args.workload == "all":
        output = run_all(bench, args.seed, args.seconds, benchmark)
        line = {w: {"correct": p["untraced"]["correct"] and p["traced"]["correct"],
                    "trace_overhead_ratio": p["trace_overhead_ratio"]}
                for w, p in output["workloads"].items()}
    else:
        line, output = run_workload(bench, args.workload, args.seed, args.seconds,
                                    args.trace, benchmark)
        print_table(output)
    if args.out:
        Path(args.out).write_text(json.dumps(output, indent=1) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
