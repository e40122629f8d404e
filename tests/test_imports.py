"""Each command loads only the modules it runs, and the lazy package
namespace keeps the public API of ``qlike``.

``import qlike`` imports no submodule; a public name is imported from its
module on first access.  The command checks run in a fresh interpreter,
since this test process has long since loaded every module.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlike
from test_tracer_targets import tracer_targets

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = SRC / "qlike" / "fixtures" / "v1" / "conic_r3.json"

# runs the command as ``python -m qlike`` does, then lists every module it
# loaded on the last line of stderr
CHILD = """
import json, sys
from qlike.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

# the modules of an interpreter that has imported only what CHILD imports
# before qlike; ``site`` preloads more on some installs
BARE = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@functools.lru_cache(maxsize=None)
def all_loaded_modules(*argv):
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stderr.splitlines()[-1]))


def loaded_modules(*argv):
    return {m[len("qlike."):] for m in all_loaded_modules(*map(str, argv))
            if m.startswith("qlike.")}


@functools.lru_cache(maxsize=None)
def bare_modules():
    out = subprocess.run([sys.executable, "-c", BARE], capture_output=True,
                         text=True, env=child_env(), timeout=60,
                         check=True).stdout
    return frozenset(json.loads(out))


def other_modules(*argv):
    """The modules outside qlike that the command loaded beyond a bare
    interpreter's."""
    return {m for m in all_loaded_modules(*map(str, argv)) - bare_modules()
            if m != "qlike" and not m.startswith("qlike.")}


@pytest.fixture(scope="module")
def quadruple_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quadruple") / "sl3_minimal.json"
    path.write_text(json.dumps({"algebra": "sl(3)",
                                "sl2": {"nilpotent": "minimal"}}))
    return path


@pytest.mark.parametrize("argv, unloaded", [
    (["analyze", FIXTURE], {"lie", "orbit", "catalog", "sampling"}),
    (["dual", FIXTURE], {"lie", "orbit", "catalog", "sampling"}),
    (["twistor", "--catalog", "veronese:2"],
     {"structures", "embedding", "sampling"}),
    (["verify", "--suite", "core"],
     {"structures", "embedding", "lie", "orbit", "catalog", "sampling"}),
])
def test_command_leaves_unused_modules_unloaded(argv, unloaded):
    loaded = loaded_modules(*argv)
    assert "cli" in loaded
    assert not loaded & unloaded, loaded & unloaded


def test_twistor_file_leaves_catalog_and_structures_unloaded(quadruple_file):
    loaded = loaded_modules("twistor", "--file", quadruple_file)
    assert "orbit" in loaded
    assert not loaded & {"catalog", "structures", "embedding", "sampling"}


def test_lie_jm_loads_only_the_lie_stack():
    assert loaded_modules("lie-jm", "--algebra", "sl(3)", "--nilpotent",
                          "minimal") == {"cli", "errors", "serialize",
                                         "scalars", "linalg", "modp", "lie"}


@pytest.mark.parametrize("argv, takes_digest", [
    (["analyze", FIXTURE], True),
    (["dual", FIXTURE], False),
    (["twistor", "--catalog", "veronese:2"], True),
    (["verify", "--suite", "core"], False),
    (["lie-jm", "--algebra", "sl(3)", "--nilpotent", "minimal"], False),
])
def test_commands_load_no_dataclasses_and_hashlib_only_to_digest(
        argv, takes_digest):
    loaded = other_modules(*argv)
    assert "dataclasses" not in loaded
    if not takes_digest:
        assert "hashlib" not in loaded


def test_twistor_file_loads_no_dataclasses(quadruple_file):
    assert "dataclasses" not in other_modules("twistor", "--file",
                                              quadruple_file)


def qlike_sources():
    """The package's modules; never empty, so the AST guards below cannot
    pass by finding nothing to read."""
    paths = sorted((SRC / "qlike").glob("*.py"))
    assert paths, "no modules under %s" % (SRC / "qlike")
    return paths


def test_no_qlike_module_imports_dataclasses():
    for path in qlike_sources():
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_qlike_module_reads_the_environment():
    # the engine decides every limit from its input: no module has a knob
    # in the environment
    for path in qlike_sources():
        tree = ast.parse(path.read_text())
        reads = [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                 and isinstance(node.value, ast.Name) and node.value.id == "os"]
        reads += [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "os"
                  for alias in node.names if alias.name in ENVIRONMENT]
        assert not reads, (path.name, reads)


def loaded_names(node):
    """The names ``node`` reads, as a bare name or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def unreached_public_definitions():
    """``(module, name)`` of each public top-level function or class that
    no other top-level statement of the package reads, that ``qlike``
    does not export (by name, or as a module exported whole, such as
    ``qlike.catalog``) and that the benchmark tracer does not wrap."""
    statements = [(path.stem, node) for path in qlike_sources()
                  for node in ast.parse(path.read_text()).body]
    kept = {(module, name) for module, names in qlike._EXPORTS.items()
            for name in names}
    kept |= {(module, qualname.split(".")[0])
             for module, qualname, _ in tracer_targets()}
    whole = set(qlike.__all__)
    unreached = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_") or module in whole or \
                (module, node.name) in kept:
            continue
        if not any(node.name in loaded_names(other)
                   for _, other in statements if other is not node):
            unreached.append((module, node.name))
    return unreached


def test_every_public_definition_is_reached():
    # a public function that nothing in the package calls, exports or
    # traces is code the system does not need
    assert unreached_public_definitions() == []


def test_import_loads_no_submodule_and_dir_lists_the_api():
    code = ("import sys, qlike\n"
            "print([m for m in sys.modules if m.startswith('qlike.')])\n"
            "print(set(qlike.__all__) <= set(dir(qlike)))\n"
            "print([m for m in sys.modules if m.startswith('qlike.')])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True).stdout
    assert out.split() == ["[]", "True", "[]"]


def test_every_public_name_resolves_to_its_module():
    for module, names in qlike._EXPORTS.items():
        defining = __import__("qlike." + module, fromlist=["_"])
        for name in names:
            assert getattr(qlike, name) is getattr(defining, name), name
    assert qlike.catalog is sys.modules["qlike.catalog"]
    assert qlike.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qlike import *", namespace)
    assert set(qlike.__all__) <= set(namespace)
    assert len(qlike.__all__) == len(set(qlike.__all__))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qlike.no_such_name
    assert not hasattr(qlike, "_no_such_private_name")
    with pytest.raises(ImportError):
        exec("from qlike import no_such_name", {})
