"""Every function the benchmark tracer wraps must keep its name.

perfbench/tracer.py looks each TARGETS entry up with getattr when it
installs, so a renamed or deleted function breaks traced benchmark runs.
The file is parsed, not imported, and nothing in it is changed.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in %s" % TRACER)


def test_every_traced_function_resolves():
    targets = tracer_targets()
    assert targets
    for module, qualname, _ in targets:
        obj = importlib.import_module("qlike." + module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, qualname)
