"""The benchmark's three workloads: inputs, one item's work, and its checks.

Each workload is a closed loop over a fixed pool of items, one item at a
time.  `setup` builds the pool from the draw seed, `run` does one item's work
(the timed part) and `check` verifies its output outside the timed part,
returning the report digest and a list of broken invariants.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
FIXTURES = Path("src") / "qlike" / "fixtures" / "v1"

# Acceptance seeds (tests/test_acceptance.py) and the sampler pools there.
STRUCTURE_SEED = 20250808
QUADRUPLE_SEED = 4242
QUADRUPLE_POOL = ("sl(3)", "sl(4)", "so(5)")
# Prefixes of the acceptance draws that fit one pass in a run.  The
# structure prefix keeps random-08, the draw's slowest structure (dim 6,
# degrees [3, 3, 3, 1]), so the heavy tail stays in.
STRUCTURE_COUNT = 9
QUADRUPLE_COUNT = 7


def canonical(obj) -> str:
    """The same bytes as qlike.serialize.canonical_json, without calling it,
    so that the harness's own digests do not count as traced work."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Item:
    name: str
    payload: object
    input_digest: str


# --------------------------------------------------------------------------
# structures: `analyze` on the shipped fixtures plus the acceptance draw
# --------------------------------------------------------------------------

_FIXTURE_ENTRIES = [("quaternionic_h1.json", "quaternionic:1"),
                    ("conic_r3.json", "conic-r3"),
                    ("twisted_plane_c4.json", "twisted-plane-c4")]


def structures_setup(draw_seed):
    from qlike import catalog, sampling, serialize
    entries = {e.name: e for e in catalog.catalog_entries()}
    items = []
    for fname, entry_name in _FIXTURE_ENTRIES:
        S = serialize.load_structure_file(str(ROOT / FIXTURES / fname))
        entry = entries[entry_name]
        items.append(Item("fixture:" + entry_name,
                          (S, entry.expected_label, entry.expected_minus),
                          sha256(canonical(S.to_json()))))
    for i, S in enumerate(sampling.random_structures(draw_seed,
                                                     STRUCTURE_COUNT)):
        items.append(Item("random-%02d" % i, (S, None, None),
                          sha256(canonical(S.to_json()))))
    return items


def structures_run(payload):
    from qlike import serialize, structures
    report = structures.analyze(payload[0])
    return report, serialize.canonical_json(report.to_json())


def structures_check(payload, result):
    _, label, minus = payload
    report, text = result
    fact = report.factorization
    problems = []
    if not report.validation.passed:
        problems.append("validation failed")
    if not fact.solvable:
        problems.append("factorization not solvable")
    problems += ["fact %s false" % k for k, v in fact.facts.items() if not v]
    if not report.serre_identity:
        problems.append("Serre identity fails")
    if not report.canonical_sequences.get("ok"):
        problems.append("canonical sequences not ok")
    if report.u_minus.degree + report.u_plus.degree != 0:
        problems.append("c1(U-) + c1(U+) != 0")
    if label is not None and report.label != label:
        problems.append("label %s, expected %s" % (report.label, label))
    if minus is not None and report.u_minus != minus:
        problems.append("U- %s, expected %s" % (report.u_minus, minus))
    return sha256(text), problems


# --------------------------------------------------------------------------
# twistor: `normal_bundle` on the catalog plus the acceptance draw
# --------------------------------------------------------------------------

def _quadruple_json(q):
    from qlike.scalars import format_scalar

    def vec(v):
        return [format_scalar(c) for c in v]
    return {"name": q.name, "algebra": q.algebra.to_json(),
            "sigma": [[vec(row) for row in m] for m in q.sigma.matrices],
            "sl2": q.tau.to_json(), "u_basis": [vec(v) for v in q.u_basis],
            "nilpotent": vec(q.nilpotent) if q.nilpotent else None,
            "adjoint": q.adjoint}


def twistor_setup(draw_seed):
    from qlike import catalog, sampling
    items = []
    for entry in catalog.catalog_entries():
        if entry.kind != "quadruple":
            continue
        q = entry.build()
        expected = entry.expected_normal
        if expected == "live-adjoint":
            expected = catalog.adjoint_expected(q)
        items.append(Item("catalog:" + entry.name, (q, expected, entry),
                          sha256(canonical(_quadruple_json(q)))))
    for i, q in enumerate(sampling.random_quadruples(
            draw_seed, QUADRUPLE_COUNT, pool=QUADRUPLE_POOL)):
        items.append(Item("random-%02d" % i, (q, None, None),
                          sha256(canonical(_quadruple_json(q)))))
    return items


def twistor_run(payload):
    from qlike import orbit, serialize
    q, expected, entry = payload
    nb = orbit.normal_bundle(q, expected=expected,
                             expected_source=entry.expected_source
                             if entry else "")
    dims = orbit.dimension_report(q, nb)
    return nb, dims, serialize.canonical_json({"normal": nb.to_json(),
                                               "dimension": dims})


def twistor_check(payload, result):
    q, expected, entry = payload
    nb, dims, text = result
    problems = ["check %s false" % k for k, v in nb.checks.items() if not v]
    if not (nb.nonnegative and nb.normal.is_nonnegative()):
        problems.append("negative normal summand")
    if dims.get("orbit_consistency") is False:
        problems.append("orbit dimension mismatch")
    if expected is not None and nb.match is not True:
        problems.append("normal %s, closed form %s" % (nb.normal, expected))
    if entry is not None:
        if entry.expected_dim_z is not None and \
                nb.dim_z != entry.expected_dim_z:
            problems.append("dim Z %d, expected %d"
                            % (nb.dim_z, entry.expected_dim_z))
        got = {"rank": nb.normal.rank, "sum": nb.normal.degree}
        problems += ["%s %d, expected %d" % (k, got[k], want)
                     for k, want in entry.derived_checks.items()
                     if got[k] != want]
    return sha256(text), problems


# --------------------------------------------------------------------------
# cli: fresh `python -m qlike` processes over small inputs
# --------------------------------------------------------------------------

CLI_DIR = Path("perfbench") / "out" / "cli-inputs"
_QUADRUPLE_FILE = {"name": "bench-sl3-minimal", "algebra": "sl(3)",
                   "representation": "adjoint",
                   "sl2": {"nilpotent": "minimal"}, "u_basis": "sl2-image"}


def _cli_commands():
    fixtures = ["quaternionic_h1.json", "conic_r3.json",
                "twisted_plane_c4.json"]
    cmds = [["analyze", str(CLI_DIR / f)] for f in fixtures]
    cmds += [["dual", str(CLI_DIR / f)] for f in fixtures]
    cmds += [["twistor", "--catalog", name] for name in
             ("veronese:1", "veronese:2", "veronese:3", "so:5", "sp:4",
              "adjoint:sl(2):principal", "adjoint:sl(3):principal",
              "adjoint:sl(3):minimal", "adjoint:sl(4):minimal")]
    cmds.append(["twistor", "--file", str(CLI_DIR / "sl3_minimal.json")])
    cmds += [["lie-jm", "--algebra", algebra, "--nilpotent", nilpotent]
             for algebra, nilpotent in
             (("sl(2)", "principal"), ("sl(3)", "principal"),
              ("sl(3)", "minimal"), ("sl(4)", "principal"),
              ("sl(4)", "minimal"))]
    cmds.append(["verify", "--suite", "core"])
    return cmds


def cli_setup(draw_seed):
    from qlike import catalog
    outdir = ROOT / CLI_DIR
    written = catalog.regenerate_fixtures(str(outdir))
    with open(outdir / "sl3_minimal.json", "w") as fh:
        fh.write(canonical(_QUADRUPLE_FILE))
    for path in written:
        shipped = ROOT / FIXTURES / os.path.basename(path)
        if Path(path).read_bytes() != shipped.read_bytes():
            raise RuntimeError("regenerated fixture %s differs from the "
                               "shipped one" % path)
    items = []
    for argv in _cli_commands():
        data = canonical(argv)
        files = [a for a in argv if a.startswith(str(CLI_DIR))]
        for f in files:
            data += (ROOT / f).read_text()
        items.append(Item(" ".join(argv), argv, sha256(data)))
    return items


def spawn(cmd):
    """Run one command in the repository root; returns (exit code, stdout,
    stderr, peak RSS of that child in MB)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # stderr goes to a file, so reading stdout to its end cannot deadlock;
    # wait4 then reaps the child and returns its own resource usage.
    with open(OUT / "child.stderr", "w+b") as err_fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err_fh)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_fh.seek(0)
        err = err_fh.read()
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


def cli_run(argv, trace_file=None, label=""):
    if trace_file is None:
        return spawn([sys.executable, "-m", "qlike"] + argv)
    return spawn([sys.executable, str(Path("perfbench") / "cli_child.py"),
                  str(trace_file), label] + argv)


def cli_check(argv, result):
    code, out, err, _ = result
    problems = []
    if code != 0:
        problems.append("exit code %d: %s" % (code, err.decode()[-200:]))
    else:
        report = json.loads(out)
        verdict = {"analyze": report.get("verdict") == "ok",
                   "twistor": report.get("ok") is True,
                   "verify": report.get("pass") is True}.get(argv[0], True)
        if not verdict:
            problems.append("report says the checks failed")
    return sha256(out + b"\nexit=%d\n" % code), problems


@dataclass
class Workload:
    name: str
    why: str
    draw_seed: object
    setup: object
    run: object
    check: object


WORKLOADS = {
    "structures": Workload(
        "structures",
        "analyze on the 3 fixtures and the first %d structures of the "
        "acceptance draw: structures, bundles and big linalg eliminations"
        % STRUCTURE_COUNT,
        STRUCTURE_SEED, structures_setup, structures_run, structures_check),
    "twistor": Workload(
        "twistor",
        "normal_bundle on the 14 catalog quadruples and the first %d of the "
        "acceptance draw: orbit, graded kernels and many small eliminations"
        % QUADRUPLE_COUNT,
        QUADRUPLE_SEED, twistor_setup, twistor_run, twistor_check),
    "cli": Workload(
        "cli",
        "fresh python -m qlike processes on small inputs: import, parsing "
        "and serialization, the per-command fixed cost",
        None, cli_setup, cli_run, cli_check),
}
