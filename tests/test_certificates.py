"""Shelling certificates against the exact routes they stand in for: Reisner's
sweep for CM verdicts, and the Hochster sum for Betti tables, linear degrees
and scan cells."""

import random
from collections import Counter

import pytest

from conftest import family_graphs
from srlab import resolution, scans
from srlab.bitsets import mask_of, shelling_restrictions
from srlab.complexes import SimplicialComplex, alexander_dual, cover_complex, make_complex, simplex_complex
from srlab.graphs import cycle, path, path_square
from srlab.homology import GF2, RATIONALS, Field
from srlab.resolution import (
    ReisnerVerdict,
    _reisner_sweep,
    betti_hochster,
    eagon_reiner_check,
    is_cm_ab,
    is_cm_reisner,
    linear_resolution_degree,
    stored_order_shells,
)

FIELDS = (RATIONALS, GF2, Field(3))


def C(n, facets):
    return make_complex(n, [mask_of(f) for f in facets])


def covers_and_duals(max_n: int) -> list[tuple[str, SimplicialComplex]]:
    """Every nonvoid family cover complex with n <= max_n, and its dual, once each."""
    seen: dict[SimplicialComplex, str] = {}
    for name, g in family_graphs(max_n):
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            if c.is_void:
                continue
            for tag, x in (("cover", c), ("dual", alexander_dual(c))):
                if not x.is_void:
                    seen.setdefault(x, f"{tag}({name},{k})")
    return [(name, x) for x, name in seen.items()]


# n = 12 over GF(2) and GF(3) would add about 60 s of sweeps and tables; a
# shelling certifies over every field, and Q reads GF(2) profiles too.
@pytest.mark.parametrize("field, max_n", [(RATIONALS, 12), (GF2, 11), (Field(3), 11)], ids=["Q", "GF2", "GF3"])
def test_certificates_match_sweep_and_table_on_family_complexes(field, max_n):
    corpus = covers_and_duals(max_n)  # closed under duality
    shells = Counter()
    for name, x in corpus:
        verdict = is_cm_reisner(x, field)
        shells[stored_order_shells(x)] += 1
        if stored_order_shells(x):
            assert verdict.cm and _reisner_sweep(x, field).cm, name
        table = betti_hochster(x, field)
        assert verdict.cm == is_cm_ab(x, table), name
        dual = alexander_dual(x)
        if stored_order_shells(dual):  # linear quotients: every generator has degree n - |facet of dual|
            assert linear_resolution_degree(table) == x.n - dual.facets[0].bit_count(), name
            er = eagon_reiner_check(x, table)
            assert er.consistent and er.dual_cm, name
    assert shells[True] > shells[False] > 0


def test_certificate_matches_sweep_on_shuffled_pure_complexes():
    rng = random.Random(13013)
    shells = Counter()
    for _ in range(400):
        n = rng.randint(2, 8)
        size = rng.randint(1, n)
        c = make_complex(n, [mask_of(rng.sample(range(1, n + 1), size)) for _ in range(rng.randint(1, 9))])
        for _ in range(3):
            x = SimplicialComplex(n, tuple(rng.sample(c.facets, len(c.facets))))  # stored in this order
            shells[stored_order_shells(x)] += 1
            for field in FIELDS:
                assert is_cm_reisner(x, field) == _reisner_sweep(x, field), (x, field)
    assert shells[True] and shells[False]


def test_non_shelling_order_is_no_certificate():
    # two triangles meeting in a vertex: pure, not CM, and no order shells
    c = C(5, [(1, 2, 3), (3, 4, 5)])
    assert not stored_order_shells(c)
    assert is_cm_reisner(c) == ReisnerVerdict(False, RATIONALS, ((3,), 0))
    # a path of three edges: CM, but this stored order puts the end edges first
    p = SimplicialComplex(4, (mask_of((1, 2)), mask_of((3, 4)), mask_of((2, 3))))
    assert not stored_order_shells(p) and is_cm_reisner(p).cm


def test_non_pure_complex_is_no_certificate():
    # a triangle with a whisker: its stored order shells in the nonpure sense,
    # which proves only sequential Cohen-Macaulayness
    c = C(4, [(1, 2, 3), (3, 4)])
    assert shelling_restrictions(c.facets) is not None and not stored_order_shells(c)
    assert is_cm_reisner(c) == ReisnerVerdict(False, RATIONALS, ((3,), 0))
    d = alexander_dual(c)
    assert eagon_reiner_check(d, betti_hochster(d)).dual_cm is False


def test_stored_orders_of_named_complexes():
    # the full simplex is certified by its one facet, so the sweep never sees it
    assert stored_order_shells(simplex_complex(5)) and is_cm_reisner(simplex_complex(5)).cm
    assert stored_order_shells(cover_complex(path(12), 4))
    assert not stored_order_shells(cover_complex(cycle(12), 3))


def _cells(builder, n_min_of_k, both_sides):
    return scans._scan(builder, n_min_of_k, both_sides, (1, 5), (1, 12), FIELDS, 22, False)[:2]


@pytest.mark.parametrize(
    "builder, n_min_of_k",
    [(path, lambda k: 2 * k - 1), (path_square, lambda k: 3 * k - 2), (cycle, lambda k: max(3, k))],
    ids=["Ln", "L2n", "Cn"],
)
@pytest.mark.parametrize("both_sides", [False, True])
def test_scan_cells_match_the_tables(monkeypatch, builder, n_min_of_k, both_sides):
    calls = []
    summed = resolution._hochster_sum
    monkeypatch.setattr(resolution, "_hochster_sum", lambda *a: calls.append(a) or summed(*a))
    certified = _cells(builder, n_min_of_k, both_sides)
    # every cover's dual here shells, so the cover tables are certified; the
    # covers shell too except cycle covers above k = 1, which are not CM, so
    # the tables of those covers' duals are sums
    assert (not calls) == (builder is not cycle or not both_sides)
    monkeypatch.setattr(scans, "betti_hochster", lambda c, f, **kw: summed(c, f))
    assert certified == _cells(builder, n_min_of_k, both_sides)


def test_certified_tables_match_the_hochster_sum(monkeypatch):
    calls = []
    summed = resolution._hochster_sum
    monkeypatch.setattr(resolution, "_hochster_sum", lambda *a: calls.append(a) or summed(*a))
    certified = 0
    for name, x in covers_and_duals(11):
        if not stored_order_shells(alexander_dual(x)):
            continue
        certified += 1
        for field in FIELDS:
            table = betti_hochster(x, field)
            assert not calls, name
            assert table.entries == summed(x, field).entries, (name, field)
    assert certified > 400
