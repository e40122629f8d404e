import json
import os
import sys

import pytest

from oracles import (eigenspace_minus_i, left_quaternion_matrices,
                     quaternionic_by_interpolation, span_equal)
from qlike import catalog, lie, linalg
from qlike.bundles import SplittingType
from qlike.orbit import adjoint_multiplicity_count
from qlike.sampling import random_quadruples
from qlike.scalars import ONE, I, Scalar
from qlike.serialize import canonical_json
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
    # the fibres at [1:0], [0:1], [1:1] and [1:i] are the -i eigenspaces of
    # L_i, -L_i, L_j and L_k; at [1:1+i], of (-L_i + 2 L_j + 2 L_k) / 3,
    # the catalog docstring's J_z there
    for k in range(1, 4):
        S = catalog.build_quaternionic(k)
        mi, mj, mk = left_quaternion_matrices(k)
        neg_i = [[-x for x in row] for row in mi]
        j_z = [[(b * 2 + c * 2 - a) / Scalar(3) for a, b, c in zip(*rows)]
               for rows in zip(mi, mj, mk)]
        points = [((1, 0), mi), ((0, 1), neg_i), ((1, 1), mj), ((1, I), mk),
                  ((1, Scalar(1, 1)), j_z)]
        for (z0, z1), m in points:
            fiber_cols = S.spanning.evaluate(z0, z1)
            fiber = [[fiber_cols[r][c] for r in range(4 * k)]
                     for c in range(2 * k)]
            assert span_equal(fiber, eigenspace_minus_i(m)), (k, z0, z1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_quaternionic_builder_equals_the_interpolation(k):
    S = catalog.build_quaternionic(k)
    interpolated = quaternionic_by_interpolation(k)
    assert S.spanning == interpolated
    rebuilt = QLikeStructure(4 * k, 2 * k, interpolated, conjugation=None,
                             complex_mode=False)
    assert canonical_json(S.to_json()) == canonical_json(rebuilt.to_json())


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
