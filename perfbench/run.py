#!/usr/bin/env python3
"""qlike benchmark: end-to-end metrics per workload, per-layer metrics from a
separate traced run.

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload structures --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root.  `--seed` orders the items; the item pool
comes from `--draw-seed`, which defaults to the acceptance seed of the
workload.  Every execution is checked: its invariants, and for the default
draw its input and report digests against `perfbench/expected.json`.  The
last line of the output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
CHEAP_S = 1.0            # items faster than this are rerun in other processes
# End-to-end metrics in the result line: the ones steady enough to gate a
# change on (see perfbench/README.md).  The others are printed above it.
GATED = ("setup_s", "items_per_s", "peak_rss_mb")
MIN_PASSES = 2
MIN_CHILDREN = 2
CHILD_ITEMS_S = 4.0     # time a child spends on rounds over the cheap items
MAX_CHILDREN = 8

import workloads as wl                                   # noqa: E402
from tracer import Tracer, per_layer_spec                # noqa: E402


def import_qlike():
    """Put the checkout's sources first on the path and time the import."""
    if not (ROOT / "src" / "qlike" / "__init__.py").is_file():
        raise SystemExit("error: no qlike sources under %s" % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import qlike                                          # noqa: F401
    return time.perf_counter() - start


def inputs_digest(items):
    return wl.sha256("".join(i.name + " " + i.input_digest + "\n"
                             for i in items))


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(samples)
    k = max(1, len(ordered) - 10)
    return ordered[k - 1], 100 * k // len(ordered)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


class Runner:
    """Runs items of one workload and keeps per-item outcomes."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.reports = (expected or {}).get("reports")
        self.runs = 0            # executions, failed ones included
        self.times = {}          # item name -> seconds of each execution
        self.failures = []       # (item name, message)
        self.rss_mb = 0.0
        self.digests = {}

    def run(self, item, **kwargs):
        """Run and check one execution; its seconds, or None if it failed."""
        self.runs += 1
        start = time.perf_counter()
        try:
            result = self.workload.run(item.payload, **kwargs)
            elapsed = time.perf_counter() - start
            digest, problems = self.workload.check(item.payload, result)
        except Exception as exc:       # an item failure, not a crash
            self.failures.append((item.name, "%s: %s"
                                  % (type(exc).__name__, exc)))
            return None
        if self.workload.name == "cli":
            self.rss_mb = max(self.rss_mb, result[3])
        if self.reports is not None and \
                self.reports.get(item.name) != digest:
            problems.append("report digest %s differs from the committed one"
                            % digest[:12])
        self.digests[item.name] = digest
        if problems:
            self.failures.append((item.name, "; ".join(problems)))
            return None
        return elapsed

    def sample(self, item):
        """One timed execution, kept with the item's other executions."""
        gc.collect()
        elapsed = self.run(item)
        if elapsed is not None:
            self.times.setdefault(item.name, []).append(elapsed)

    def merge(self, child):
        """Add the executions a child process reported."""
        for name, seconds in child["times"].items():
            self.times.setdefault(name, []).extend(seconds)
        self.failures += [tuple(f) for f in child["failures"]]
        self.runs += child["runs"]
        self.rss_mb = max(self.rss_mb, child["rss_mb"])


def check_inputs(items, expected, problems):
    if expected is None:
        return
    want = expected["inputs"]
    got = {i.name: i.input_digest for i in items}
    if got != want:
        bad = sorted(n for n in set(got) | set(want)
                     if got.get(n) != want.get(n))
        problems.append("input digests differ from the committed ones: %s"
                        % ", ".join(bad))


def run_workload(args):
    workload = wl.WORKLOADS[args.workload]
    draw_seed = workload.draw_seed if args.draw_seed is None \
        else args.draw_seed
    import_s = import_qlike()
    wl.OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    items = workload.setup(draw_seed)
    setup_s = [import_s + time.perf_counter() - start]
    digest = inputs_digest(items)
    with open(EXPECTED) as fh:
        expected = json.load(fh).get(args.workload)
    if expected is not None and expected.get("draw_seed") != draw_seed:
        expected = None                     # no committed digests: unseen draw
    problems = []
    check_inputs(items, expected, problems)
    runner = Runner(workload, expected)

    if args.child:
        return run_child(args, items, runner, setup_s[0], digest)
    if args.record:
        return record(workload, items, draw_seed)
    rng = random.Random(args.seed)
    if tracer is None:
        processes = measure(args, runner, items, rng, setup_s, digest,
                            problems)
        per_layer = {}
    else:
        processes = 1
        per_layer = measure_traced(runner, items, rng, tracer,
                                   args.workload)
    return report(args, workload, draw_seed, items, runner, processes,
                  setup_s, problems, per_layer, digest, expected)


def run_child(args, items, runner, setup_s, digest):
    """Child mode: after the timed set-up, run the listed items in order."""
    by_name = {i.name: i for i in items}
    with open(args.child) as fh:
        for name in json.load(fh):
            runner.sample(by_name[name])
    print(json.dumps({"setup_s": setup_s, "inputs_digest": digest,
                      "times": runner.times,
                      "failures": runner.failures, "runs": runner.runs,
                      "rss_mb": runner.rss_mb}))
    return 0


def measure(args, runner, items, rng, setup_s, digest, problems):
    """Passes over every item, each in a seeded order: MIN_PASSES of them,
    then more until `--seconds` have passed.  Then fresh interpreters, one
    after another, each of which repeats the set-up cold and runs rounds
    over the cheap items, as many as fit in CHILD_ITEMS_S (at most 5, maybe
    none).  At least MIN_CHILDREN children run, more while the run is
    shorter than `--seconds`.  Returns the number of processes.

    The host alternates every few seconds between a fast and a slow phase,
    up to 1.8x apart, and one item's speed also differs from one process to
    the next.  An item's time is therefore its fastest execution, with the
    executions spread over processes and time."""
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            runner.sample(item)
        passes += 1
    cheap = [i.name for i in items
             if i.name in runner.times and min(runner.times[i.name]) < CHEAP_S]
    cheap_s = sum(min(runner.times[name]) for name in cheap)
    rounds = min(5, int(CHILD_ITEMS_S / cheap_s)) if cheap else 0
    listing = wl.OUT / "child-items.json"
    children = 0
    while children < MIN_CHILDREN or (
            children < MAX_CHILDREN and
            time.perf_counter() - start < args.seconds):
        listed = []
        for _ in range(rounds):
            rng.shuffle(cheap)
            listed += cheap
        with open(listing, "w") as fh:
            json.dump(listed, fh)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--child", str(listing)]
        if args.draw_seed is not None:
            cmd += ["--draw-seed", str(args.draw_seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError("child run failed: %s" % proc.stderr[-400:])
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_s.append(child["setup_s"])
        if child["inputs_digest"] != digest:
            problems.append("set-up is not deterministic")
        runner.merge(child)
        children += 1
    listing.unlink()
    return 1 + children


def measure_traced(runner, items, rng, tracer, workload):
    """One traced pass; then the cheaper half of the items again, untraced,
    for the tracing overhead.  Returns the per-layer metrics."""
    order = list(items)
    rng.shuffle(order)
    children = []
    traced = {}
    validate_calls = tracer.calls["structures.validate"]
    for n, item in enumerate(order):
        tracer.begin_item(item.name)
        kwargs = {}
        if workload == "cli":
            path = wl.OUT / ("trace-%03d.json" % n)
            kwargs = {"trace_file": path, "label": item.name}
            children.append(path)
        elapsed = runner.run(item, **kwargs)
        if elapsed is not None:
            traced[item.name] = elapsed
    tracer.uninstall()
    extra_spans = []
    for path in children:
        if path.exists():
            with open(path) as fh:
                extra_spans += tracer.merge(json.load(fh))
            path.unlink()
    metrics = tracer.metrics()
    randoms = sum(1 for i in items if i.name.startswith("random-"))
    metrics["sampling.validate.accept_ratio"] = \
        randoms / validate_calls if validate_calls else 0.0

    cutoff = statistics.median(traced.values()) if traced else 0.0
    pairs = []
    for item in order:
        if traced.get(item.name, cutoff + 1) <= cutoff:
            plain = runner.run(item)
            if plain:
                pairs.append((traced[item.name], plain))
    metrics["trace.overhead_ratio"] = \
        sum(t for t, _ in pairs) / sum(p for _, p in pairs) if pairs else 0.0
    tracer.write_spans(wl.OUT / ("spans-%s.json" % workload), extra_spans)
    return metrics


def record(workload, items, draw_seed):
    """Write the committed digests of this workload (default draw only)."""
    if draw_seed != workload.draw_seed:
        raise SystemExit("error: --record needs the default draw seed")
    runner = Runner(workload, None)
    for item in items:
        runner.run(item)
    if runner.failures:
        for name, msg in runner.failures:
            print("FAILED %s: %s" % (name, msg), file=sys.stderr)
        return 1
    with open(EXPECTED) as fh:
        data = json.load(fh)
    data[workload.name] = {
        "draw_seed": draw_seed,
        "inputs": {i.name: i.input_digest for i in items},
        "reports": runner.digests,
    }
    with open(EXPECTED, "w") as fh:
        fh.write(wl.canonical(data))
    print("recorded %d items of %s" % (len(items), workload.name))
    return 0


def report(args, workload, draw_seed, items, runner, processes, setup_s,
           problems, per_layer, digest, expected):
    failed_items = {name for name, _ in runner.failures}
    times = [min(runner.times[i.name]) for i in items
             if i.name in runner.times and i.name not in failed_items]
    failed = len(runner.failures)
    attempted = max(1, runner.runs)
    tail_s, tail_pct = tail(times) if times else (0.0, 0)
    if workload.name == "cli":
        rss = runner.rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "item_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "item_tail_s": (tail_s, "s"),
        "failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    env = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "draw_seed": draw_seed,
        "seconds": args.seconds,
        "pool_items": len(items),
        "processes": processes,
        "executions": runner.runs,
        "items_measured": len(times),
        "tail": "p%d of %d items (%d beyond it)"
                % (tail_pct, len(times), min(10, max(0, len(times) - 1))),
        "setup_samples_s": [round(s, 4) for s in setup_s],
        "item_s": {i.name: round(min(runner.times[i.name]), 5)
                   for i in items if i.name in runner.times},
        "inputs_digest": digest,
        "digests_checked": expected is not None,
        "reports_digest": wl.sha256("".join(
            "%s %s\n" % kv for kv in sorted(runner.digests.items()))),
        "trace_overhead_ratio": per_layer.get("trace.overhead_ratio"),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, message in runner.failures:
        print("FAILED %s: %s" % (name, message))
    for message in problems:
        print("PROBLEM %s" % message)
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
    else:
        metrics = {name: {"value": end_to_end[name][0],
                          "unit": end_to_end[name][1]} for name in GATED}
        for name, (value, unit) in end_to_end.items():
            print("%-14s %14.6f %s" % (name, value, unit))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload untraced, then every workload traced, each in its own
    interpreter so that peak memory and caches are per workload."""
    ok = True
    for trace in (0, 1):
        for name in wl.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.draw_seed is not None:
                cmd += ["--draw-seed", str(args.draw_seed)]
            print("== %s, trace %d" % (name, trace), flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1]) if proc.returncode == 0 else {}
            ok = ok and result.get("correct", False)
            for metric, m in sorted(result.get("metrics", {}).items()):
                if trace:
                    print("%-48s %16.6f %s" % (metric, m["value"], m["unit"]))
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the items")
    parser.add_argument("--draw-seed", type=int, default=None,
                        help="seed of the random draw (default: the "
                             "acceptance seed of the workload)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the committed digests of the workload")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
