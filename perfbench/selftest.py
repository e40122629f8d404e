#!/usr/bin/env python3
"""Self-test of the benchmark and its tracer (takes about six minutes).

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload it makes one untraced and two traced runs, with different
seeds, and checks that:
  * every run is correct, and all three give the same report digests, so
    tracing does not change a single report byte;
  * every per-layer count repeats exactly between the two traced runs;
  * every metric that the layer table of perfbench/README.md predicts
    nonzero on the workload is nonzero there, and the predicted zeros are 0.
It also checks that BENCHMARK.json lists exactly the metrics the benchmark
prints.  Exits 0 when everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TARGETS, per_layer_spec                # noqa: E402
from run import GATED                                    # noqa: E402
from workloads import WORKLOADS                          # noqa: E402


COUNT_SUFFIXES = (".calls", ".stages", ".points", ".cells", ".max_bits",
                  ".repeat_ratio", ".accept_ratio")


def _calls(*labels):
    return [label + ".calls" for label in labels]


def _layer(module):
    return ["%s.%s" % (m, q) for m, q, _ in TARGETS if m == module]


# Functions a layer uses on the workload its row of the table names.  Left
# out on purpose: linalg.solve_matrix and bundles.subquotient_splitting on
# structures, lie.validate_lie on twistor (jacobson_morozov is called with
# assume_semisimple there), polymatrix.solve_combination and bundles.* on
# cli-only paths.
PREDICTED_NONZERO = {
    "structures": _calls(
        "linalg.kernel_basis", "linalg.rank", "linalg.solve",
        "polymatrix.graded_kernel", "polymatrix.generic_rank",
        "polymatrix.solve_combination", "bundles.saturate",
        "bundles.annihilator", "bundles.splitting_type", "bundles.h0_twist",
        "bundles.h0_dimension_by_solve", "bundles.verify_canonical_sequences",
        "bundles.is_split_extension", "modp.resultant_gcd_is_constant",
        *_layer("structures")) + [
        "linalg.kernel_basis.cells", "linalg.kernel_basis.max_bits",
        "polymatrix.graded_kernel.stages", "polymatrix.generic_rank.points",
        "bundles.annihilator.repeat_ratio", "bundles.saturate.repeat_ratio",
        "sampling.validate.accept_ratio", "trace.overhead_ratio"],
    "twistor": _calls(
        "linalg.kernel_basis", "linalg.rank", "linalg.solve",
        "linalg.solve_matrix", "polymatrix.graded_kernel",
        "polymatrix.generic_rank", "lie.jacobson_morozov",
        "lie.sl2_decompose", "lie.Representation.check_identity",
        *_layer("orbit")) + [
        "linalg.kernel_basis.cells", "polymatrix.graded_kernel.stages",
        "polymatrix.generic_rank.points", "trace.overhead_ratio"],
    "cli": _calls(
        "serialize.canonical_json", "serialize.load_structure_file",
        "serialize.load_quadruple_file", "lie.validate_lie",
        "lie.jacobson_morozov", "lie.sl2_decompose", "orbit.normal_bundle",
        "structures.analyze", "linalg.kernel_basis") + [
        "cli.import_s", "cli.main_s", "trace.overhead_ratio"],
}

PREDICTED_ZERO = {
    "structures": _calls(*_layer("orbit")),
    "twistor": _calls("bundles.annihilator", *_layer("structures")),
    "cli": [],
}


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    env = json.loads(next(l[4:] for l in lines if l.startswith("env ")))
    return env, json.loads(lines[-1])


def check_benchmark_json(errors):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    want = [[n, u, b] for n, u, b in per_layer_spec()]
    got = [[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]]
    if got != want:
        errors.append("BENCHMARK.json per_layer differs from the tracer's")
    if [m["name"] for m in bench["end_to_end"]] != list(GATED):
        errors.append("BENCHMARK.json end_to_end names differ")
    for w in bench["workloads"]:
        if WORKLOADS.get(w["name"]) is None or \
                WORKLOADS[w["name"]].why != w["why"]:
            errors.append("BENCHMARK.json workload %s differs" % w["name"])


def check_workload(workload, errors):
    env0, plain = run(workload, 1, 0)
    env1, traced = run(workload, 2, 1)
    env2, traced2 = run(workload, 3, 1)
    for name, result in (("untraced", plain), ("traced", traced),
                         ("second traced", traced2)):
        if not result["correct"] or result["failed"]:
            errors.append("%s: %s run not correct" % (workload, name))
    digests = {env0["reports_digest"], env1["reports_digest"],
               env2["reports_digest"]}
    if len(digests) != 1 or not env0["digests_checked"]:
        errors.append("%s: report digests differ between traced and "
                      "untraced runs" % workload)
    m1, m2 = traced["metrics"], traced2["metrics"]
    for name in m1:
        if name.endswith(COUNT_SUFFIXES) and \
                m1[name]["value"] != m2[name]["value"]:
            errors.append("%s: %s does not repeat (%s, %s)"
                          % (workload, name, m1[name]["value"],
                             m2[name]["value"]))
    for name in PREDICTED_NONZERO[workload]:
        if not m1[name]["value"]:
            errors.append("%s: %s is 0, predicted nonzero" % (workload, name))
    for name in PREDICTED_ZERO[workload]:
        if m1[name]["value"]:
            errors.append("%s: %s is %s, predicted 0"
                          % (workload, name, m1[name]["value"]))


def main():
    errors = []
    check_benchmark_json(errors)
    for workload in sys.argv[1:] or list(WORKLOADS):
        check_workload(workload, errors)
        print("checked %s" % workload, flush=True)
    for message in errors:
        print("FAIL " + message)
    print("selftest %s" % ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
