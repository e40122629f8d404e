"""Fuzz of the two JSON loaders through the CLI, in-process.

A shipped structure fixture and a small quadruple file are mutated: keys
dropped, values swapped for a boolean, a float, null, a string or a small
integer, lists shortened or lengthened, and rows made ragged.  Whatever
the file holds, ``qlike analyze`` and ``qlike twistor --file`` must end
with exit code 0, 1 or 2, with no exception escaping ``main``.  The inputs
stay tiny (algebra dimension 3, forms of degree 2), so each example costs
milliseconds.
"""

import contextlib
import copy
import io
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from qlike import catalog
from qlike.cli import main

FIXTURE = os.path.join(os.path.dirname(catalog.__file__), "fixtures", "v1",
                       "conic_r3.json")

# sl(2) with basis (E, F, H) on its defining representation
QUADRUPLE = {
    "name": "fuzz-sl2",
    "algebra": {"dim": 3, "name": "sl(2)",
                "brackets": [[0, 1, [[2, "1"]]], [0, 2, [[0, "-2"]]],
                             [1, 2, [[1, "2"]]]]},
    "representation": {"matrices": [[[0, 1], [0, 0]], [[0, 0], [1, 0]],
                                    [[1, 0], [0, -1]]]},
    "sl2": {"E": [1, 0, 0], "H": [0, 0, 1], "F": [0, 1, 0]},
    "u_basis": [[1, 0], [0, 1]],
}

SWAPS = (True, False, 1.5, None, "x", "", -1, 0, 2, 5, [], {})
KINDS = ("drop", "swap", "shorten", "lengthen", "ragged")
SETTINGS = settings(max_examples=120, deadline=None)


def paths(node, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON value."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def swap(draw):
    # a copy, so that a later mutation cannot change SWAPS itself
    return copy.deepcopy(draw(st.sampled_from(SWAPS)))


def mutate(doc, path, kind, draw):
    """``doc`` with one mutation of the given kind at ``path``."""
    if not path:
        return swap(draw) if kind == "swap" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = swap(draw)
    elif kind == "shorten" and isinstance(node, list) and node:
        node.pop()
    elif kind == "lengthen" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else 0)
    elif kind == "ragged" and isinstance(node, list):
        rows = [row for row in node if isinstance(row, list) and row]
        if rows:
            draw(st.sampled_from(rows)).pop()
    return doc


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        doc = mutate(doc, path, draw(st.sampled_from(KINDS)), draw)
    return doc


def run_main(tmp_dir, doc, *argv):
    path = os.path.join(tmp_dir, "input.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, path])
    return code, err.getvalue()


def structure_fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fuzz_bases_are_accepted(tmp_path):
    assert run_main(str(tmp_path), structure_fixture(), "analyze")[0] == 0
    assert run_main(str(tmp_path), QUADRUPLE, "twistor", "--file")[0] == 0


@SETTINGS
@given(mutated(structure_fixture()))
def test_fuzzed_structure_file_exits_cleanly(tmp_path_factory, doc):
    code, err = run_main(str(tmp_path_factory.getbasetemp()), doc, "analyze")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


@SETTINGS
@given(mutated(QUADRUPLE))
def test_fuzzed_quadruple_file_exits_cleanly(tmp_path_factory, doc):
    code, err = run_main(str(tmp_path_factory.getbasetemp()), doc,
                         "twistor", "--file")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
