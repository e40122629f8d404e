"""Every function the benchmark tracer wraps must keep its name, and every
call to it must stay visible to the tracer.

perfbench/tracer.py looks each TARGETS entry up with getattr when it
installs, so a renamed or deleted function breaks traced benchmark runs.
It rebinds a traced function only in the modules named in its MODULES list
(and the package itself), so a module outside that list that binds the
function with a module-level `from .mod import name` keeps the untraced
original, and its calls are silently not counted.  The file is parsed, not
imported, and nothing in it is changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "qlike"


def tracer_list(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no %s list in %s" % (name, TRACER))


def tracer_targets():
    return tracer_list("TARGETS")


def import_time_from_imports(tree):
    """The ``from ... import`` statements that run when the module is
    imported: those outside function bodies.  A function-local import runs
    at call time, after the tracer has patched the defining module."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def untraced_bindings(source):
    """``(module, name)`` for each traced function that ``source``, a qlike
    module, binds by a module-level ``from .module import name``."""
    functions = {(module, qualname) for module, qualname, _ in tracer_targets()
                 if "." not in qualname}
    found = []
    for node in import_time_from_imports(ast.parse(source)):
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").startswith("qlike."):
            module = node.module[len("qlike."):]
        else:
            continue
        found += [(module, alias.name) for alias in node.names
                  if (module, alias.name) in functions]
    return found


def test_every_traced_function_resolves():
    targets = tracer_targets()
    assert targets
    for module, qualname, _ in targets:
        obj = importlib.import_module("qlike." + module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, qualname)


def test_untraced_modules_call_traced_functions_through_their_module():
    traced = set(tracer_list("MODULES")) | {"__init__"}
    untraced = [path for path in sorted(PACKAGE.glob("*.py"))
                if path.stem not in traced]
    assert any(path.stem == "embedding" for path in untraced)
    for path in untraced:
        assert untraced_bindings(path.read_text()) == [], path.name


def test_untraced_binding_is_detected():
    source = ("from .modp import resultant_gcd_is_constant, reduce_modp\n"
              "from qlike.linalg import kernel_basis as kb\n"
              "from . import linalg\n"
              "def f():\n"
              "    from .linalg import rank\n")
    assert sorted(untraced_bindings(source)) == [
        ("linalg", "kernel_basis"), ("modp", "resultant_gcd_is_constant")]


def hook_argument_reads():
    """``(label, name, position)`` for each argument a tracer hook reads as
    ``args[position] if ... else kwargs[name]`` (or ``kwargs.get(name)``),
    with the label of the traced function the hook is installed on."""
    tree = ast.parse(TRACER.read_text())
    labels = {}
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and all(
                isinstance(v, ast.Attribute) and v.attr.endswith("_hook")
                for v in node.values) and node.values:
            labels.update({v.attr: k.value
                           for k, v in zip(node.keys, node.values)})
        elif isinstance(node, ast.FunctionDef) and node.name.endswith("_hook"):
            methods[node.name] = node
    reads = set()
    for method, label in labels.items():
        for node in ast.walk(methods[method]):
            if not (isinstance(node, ast.IfExp)
                    and isinstance(node.body, ast.Subscript)
                    and getattr(node.body.value, "id", None) == "args"):
                continue
            other = node.orelse
            if isinstance(other, ast.Call):        # kwargs.get(name)
                name = other.args[0].value
            else:                                  # kwargs[name]
                name = other.slice.value
            reads.add((label, name, node.body.slice.value))
    return reads


def test_tracer_hooks_read_arguments_where_the_signatures_have_them():
    # a reordered or renamed parameter would make a hook read the wrong
    # argument, and miscount e.g. polymatrix.graded_kernel.stages silently
    reads = hook_argument_reads()
    assert reads == {("linalg.kernel_basis", "a", 0),
                     ("polymatrix.graded_kernel", "n_unknowns", 1),
                     ("polymatrix.graded_kernel", "unknown_shifts", 2),
                     ("bundles.annihilator", "A", 0),
                     ("bundles.saturate", "P", 0)}
    for label, name, position in reads:
        module, function = label.split(".")
        fn = getattr(importlib.import_module("qlike." + module), function)
        params = list(inspect.signature(fn).parameters.values())
        assert params[position].name == name, (label, name, position)
        assert params[position].kind is \
            inspect.Parameter.POSITIONAL_OR_KEYWORD, (label, name)
