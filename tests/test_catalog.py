import json
import os
import sys

import pytest

from qlike import catalog, lie, linalg
from qlike.bundles import SplittingType
from qlike.linalg import span_equal
from qlike.orbit import adjoint_multiplicity_count
from qlike.sampling import random_quadruples
from qlike.scalars import ONE, I
from qlike.structures import QLikeStructure, validate


SMALL_ENTRIES = ["veronese:1", "veronese:2", "veronese:3", "so:5", "sp:4",
                 "adjoint:sl(2):principal", "adjoint:sl(3):principal",
                 "adjoint:sl(3):minimal"]


@pytest.mark.parametrize("name", SMALL_ENTRIES)
def test_quadruple_entries_match(name):
    entry = catalog.entry_by_name(name)
    result = catalog.run_quadruple_entry(entry)
    assert result["ok"], result


@pytest.mark.parametrize("name", ["quaternionic:1", "conic-r3",
                                  "twisted-plane-c4"])
def test_structure_entries_match(name):
    entry = catalog.entry_by_name(name)
    result = catalog.run_structure_entry(entry)
    assert result["ok"], result


def test_quaternionic_builder_hits_all_three_structures():
    S = catalog.build_quaternionic(1)
    mi, mj, mk = catalog._left_quaternion_matrices(1)
    points = [((1, 0), mi), ((1, 1), mj), ((1, I), mk)]
    for (z0, z1), m in points:
        fiber_cols = S.spanning.evaluate(z0, z1)
        fiber = [[fiber_cols[r][c] for r in range(4)] for c in range(2)]
        eig = catalog._eigenspace_minus_i(m)
        assert span_equal(fiber, eig)


def test_adjoint_expected_is_recomputed_live():
    q = catalog.build_adjoint("sl(3)", "principal")
    assert catalog.adjoint_expected(q) == SplittingType.of([1, 1, 1, 1])
    q2 = catalog.build_adjoint("sl(2)", "principal")
    assert catalog.adjoint_expected(q2) == SplittingType.of([])


def test_adjoint_expected_is_the_orbit_dimension_closed_form(monkeypatch):
    # O(1)^(dim g - dim ker ad f - 2) equals the weight count that
    # normal_bundle checks, and is computed without the weight decomposition
    quadruples = ([e.build() for e in catalog.catalog_entries()
                   if e.expected_normal == "live-adjoint"]
                  + random_quadruples(4242, 7))
    counts = [adjoint_multiplicity_count(q) for q in quadruples]

    def refuse(*args, **kwargs):
        raise AssertionError("sl2_decompose called")
    monkeypatch.setattr(lie, "sl2_decompose", refuse)
    assert [catalog.adjoint_expected(q) for q in quadruples] == \
        [SplittingType.of([1] * c) for c in counts]


def test_live_adjoint_entry_takes_ker_ad_f_once(monkeypatch):
    # adjoint_expected's ker ad f is dimension_report's centralizer: 24
    # kernels in all (21 fibre weights, ker ad f, ker sigma(e) for the
    # adjoint count, the validation's ker s_e), one fewer than taking
    # ker ad f a second time
    calls = []
    kernel_basis = linalg.kernel_basis

    def counting(a):
        calls.append((len(a), len(a[0]) if a else 0))
        return kernel_basis(a)
    for name, module in list(sys.modules.items()):
        if (name.startswith("qlike.")
                and getattr(module, "kernel_basis", None) is kernel_basis):
            monkeypatch.setattr(module, "kernel_basis", counting)
    result = catalog.run_quadruple_entry(
        catalog.entry_by_name("adjoint:sl(4):principal"))
    assert result["ok"] and result["dimension"]["centralizer_dim"] == 3
    assert len(calls) == 24
    assert calls.count((15, 15)) == 2


def test_fixture_regeneration_round_trip(tmp_path):
    written = catalog.regenerate_fixtures(str(tmp_path))
    assert len(written) == 3
    for path in written:
        with open(path) as fh:
            data = json.load(fh)
        S = QLikeStructure.from_json(data)
        assert validate(S).passed
    # regeneration is deterministic
    first = {p: open(p).read() for p in written}
    catalog.regenerate_fixtures(str(tmp_path))
    for p, text in first.items():
        assert open(p).read() == text


def test_bundled_fixtures_load_in_place():
    base = os.path.join(os.path.dirname(catalog.__file__), "fixtures", "v1")
    for fname in ("quaternionic_h1.json", "conic_r3.json",
                  "twisted_plane_c4.json"):
        path = os.path.join(base, fname)
        assert os.path.exists(path)
        with open(path) as fh:
            S = QLikeStructure.from_json(json.load(fh))
        assert validate(S).passed
