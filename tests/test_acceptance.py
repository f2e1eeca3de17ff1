"""Acceptance gate: every criterion below checks exact integer values and
prints one PASS/FAIL line with its runtime. Run with `pytest -v -s`.
"""

import time
from contextlib import contextmanager
from math import comb

import props
from conftest import all_trees_up_to_iso, family_graphs
from srlab.claims import discrepancy_report, scan_conjecture_L2n, scan_conjecture_Ln
from srlab.complexes import (
    alexander_dual,
    clique_complex,
    cover_complex,
    f_vector,
    simplex_complex,
    skeleton,
)
from srlab.graphs import (
    complete_bipartite,
    complete_prism,
    cycle,
    cycle_square,
    grid,
    path_square,
    points,
    star,
)
from srlab.homology import GF2, RATIONALS
from srlab.resolution import (
    FatForestDecomposition,
    betti_hochster,
    betti_product,
    eagon_reiner_check,
    fat_forest_hilbert,
    hilbert_from_fvector,
    is_cm_ab,
    is_cm_reisner,
    is_gorenstein,
    linear_resolution_degree,
)


@contextmanager
def criterion(num: int, label: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num:02d} {label}: PASS ({dt:.2f}s)")
    assert dt < limit_s, f"criterion {num} took {dt:.2f}s, over the {limit_s}s budget"


def table(c, field=RATIONALS):
    return betti_hochster(c, field)


def entries_equal(t, expected):
    exp = {(0, 0): 1}
    exp.update({k: v for k, v in expected.items() if v})
    assert t.entries == exp, f"expected {sorted(exp.items())}, got {t.sorted_items()}"


def test_c01_degree_one():
    with criterion(1, "degree-1 complexes and duals", 1.0):
        for n in range(3, 9):
            c = cover_complex(star(n), 1)
            assert c == skeleton(simplex_complex(n), n - 2)
            entries_equal(table(c), {(1, n): 1})
            d = alexander_dual(c)
            assert d.is_irrelevant
            assert table(d).entries == {(i, i): comb(n, i) for i in range(n + 1)}


def test_c02_isolated_points():
    with criterion(2, "isolated points at degree 2", 5.0):
        for n in range(4, 10):
            c = cover_complex(points(n), 2)
            t = table(c)
            entries_equal(t, {(1, n - 1): n, (2, n): n - 1})
            # generator degree n-1; the recorded "(n-2)-linear" label is the
            # documented off-by-one, the values above are the binding ones
            assert linear_resolution_degree(t) == n - 1
            td = table(alexander_dual(c))
            assert linear_resolution_degree(td) == 2  # point ideals are quadratic
            assert is_cm_ab(c, t) and is_cm_ab(alexander_dual(c), td)


def test_c03_all_trees():
    with criterion(3, "all non-isomorphic trees, n=4..8", 30.0):
        for n in range(4, 9):
            trees = all_trees_up_to_iso(n)
            assert len(trees) == {4: 2, 5: 3, 6: 6, 7: 11, 8: 23}[n]
            cover_tables = set()
            tree_tables = set()
            for tg in trees:
                tc = clique_complex(tg)
                cc = cover_complex(tg, 2)
                tt, tv = table(tc), table(cc)
                assert is_cm_ab(tc, tt) and is_cm_ab(cc, tv), n
                assert linear_resolution_degree(tt) is not None
                assert linear_resolution_degree(tv) is not None
                entries_equal(tv, {(1, n - 2): n - 1, (2, n - 1): n - 2})
                cover_tables.add(tuple(tt.sorted_items()))
                tree_tables.add(tuple(tv.sorted_items()))
            assert len(cover_tables) == 1 and len(tree_tables) == 1, f"n={n}: trees disagree"


def test_c04_star6_path6_example():
    with criterion(4, "six-vertex star and path example", 5.0):
        c = cover_complex(star(6), 3)
        d = alexander_dual(c)
        exp = {(1, 3): 10, (2, 4): 15, (3, 5): 6}
        entries_equal(table(c), exp)
        entries_equal(table(d), exp)
        # the degree index and the path-dual values are adjudicated in the report
        subjects = " | ".join(x.subject for x in discrepancy_report())
        assert "degree index of the six-vertex star example" in subjects
        assert "six-vertex path, degree-3 dual Betti" in subjects


def test_c05_prism():
    with criterion(5, "prism over complete graphs", 10.0):
        c = cover_complex(complete_prism(2), 2)
        entries_equal(table(c), {(1, 2): 4, (2, 3): 4, (3, 4): 1})
        entries_equal(table(alexander_dual(c)), {(1, 2): 2, (2, 4): 1})
        for n in (3, 4):
            c = cover_complex(complete_prism(n), 2)
            d = alexander_dual(c)
            for cx in (c, d):
                t = table(cx)
                assert not is_cm_ab(cx, t), n
                assert linear_resolution_degree(t) is None, n


def test_c06_k44():
    with criterion(6, "4x4 bipartite at degree 3", 60.0):
        c = cover_complex(complete_bipartite(4, 4), 3)
        t = table(c)
        entries_equal(t, {(1, 4): 36, (2, 5): 96, (3, 6): 100, (4, 7): 48, (5, 8): 9})
        assert linear_resolution_degree(t) == 4
        d = alexander_dual(c)
        factor = table(skeleton(simplex_complex(4), 1))
        assert table(d).entries == betti_product(factor, factor).entries


def test_c07_cycles():
    with criterion(7, "cycle rings and top-degree even cycles", 60.0):
        for n in range(4, 9):
            cy = clique_complex(cycle(n))
            t = table(cy)
            assert is_gorenstein(cy, t), n
            tv = table(cover_complex(cycle(n), 2))
            entries_equal(tv, {(1, n - 2): n, (2, n - 1): n, (3, n): 1})
        subjects = " | ".join(x.subject for x in discrepancy_report())
        assert "assignment of the two cycle Betti formulas" in subjects
        for k in (2, 3, 4):
            c = cover_complex(cycle(2 * k), k)
            d = alexander_dual(c)
            t, td = table(c), table(d)
            assert is_cm_ab(d, td) and linear_resolution_degree(td) is None, k
            assert linear_resolution_degree(t) is not None and not is_cm_ab(c, t), k
            assert eagon_reiner_check(c, t).consistent and eagon_reiner_check(d, td).consistent


def test_c08_cycle_squared():
    with criterion(8, "squared cycles at degree 2", 30.0):
        c = cover_complex(cycle_square(6), 2)
        t = table(c)
        entries_equal(t, {(1, 3): 8, (2, 4): 12, (3, 5): 6, (4, 6): 1})
        assert linear_resolution_degree(t) == 3 and not is_cm_ab(c, t)
        octa = clique_complex(cycle_square(6))
        to = table(octa)
        assert is_cm_ab(octa, to) and is_cm_reisner(octa).cm
        assert linear_resolution_degree(to) is None
        for n in (7, 8):
            c = cover_complex(cycle_square(n), 2)
            t = table(c)
            assert linear_resolution_degree(t) is None and not is_cm_ab(c, t), n


def test_c09_path_squared():
    with criterion(9, "squared paths", 90.0):
        for n in range(5, 10):
            cc = clique_complex(path_square(n))
            d = FatForestDecomposition((2,) * (n - 2), (1,) * (n - 3))
            assert fat_forest_hilbert(d, n) == hilbert_from_fvector(f_vector(cc), n), n
            cv = cover_complex(path_square(n), 2)
            tv = table(cv)
            # values n-2 and n-3 at the oracle-adjudicated degrees n-3, n-2
            entries_equal(tv, {(1, n - 3): n - 2, (2, n - 2): n - 3})
            assert linear_resolution_degree(tv) is not None and is_cm_ab(cv, tv), n
        c = cover_complex(path_square(8), 3)
        entries_equal(table(c), {(1, 2): 6, (2, 3): 8, (3, 4): 3})
        entries_equal(table(alexander_dual(c)), {(1, 3): 4, (2, 4): 3})
        t9 = table(cover_complex(cycle_square(9), 3))
        assert t9.totals() == (1, 27, 81, 108, 81, 36, 9, 1)


def test_c10_grids():
    with criterion(10, "grids at degree 2", 120.0):
        for m, n in ((2, 3), (3, 3)):
            g = grid(m, n)
            c = cover_complex(g, 2)
            t = table(c)
            entries_equal(
                t,
                {
                    (1, m * n - 2): 2 * m * n - m - n,
                    (2, m * n - 1): 3 * m * n - 2 * m - 2 * n,
                    (3, m * n): m * n - m - n + 1,
                },
            )
            assert linear_resolution_degree(t) is not None and not is_cm_ab(c, t)
            cc = clique_complex(g)
            tcc = table(cc)
            assert is_cm_ab(cc, tcc) and linear_resolution_degree(tcc) is None
        subjects = " | ".join(x.subject for x in discrepancy_report())
        assert "third Betti number" in subjects


def test_c11_conjecture_scans():
    with criterion(11, "conjecture scans", 600.0):
        rep = scan_conjecture_Ln((2, 4), (3, 12), (RATIONALS, GF2))
        assert rep.counterexamples == []
        assert len(rep.cells) == 2 * (10 + 8 + 6)
        assert any("k=3, n=6" in note for note in rep.notes)
        rep2 = scan_conjecture_L2n((2, 3), (3, 10), (RATIONALS, GF2))
        assert rep2.counterexamples == []
        assert len(rep2.cells) == 2 * (7 + 4)
        subjects = " | ".join(x.subject for x in discrepancy_report())
        assert "Cohen-Macaulayness" in subjects  # the six-vertex path conflict is on record


def test_c12_property_suites(corpus, random_complexes):
    with criterion(12, "property suites over family corpus and 200 random complexes", 600.0):
        bundles = corpus + random_complexes
        for name, suite in props.ALL_SUITES:
            violations = suite(bundles)
            assert violations == [], f"{name}: {violations[:5]}"
        graphs = family_graphs(9) + __import__("conftest").random_graph_sample(50, 8)
        assert props.check_froberg(graphs) == []
        assert props.check_field_independence(corpus) == []
        assert props.check_cover_facet_counts(family_graphs(9)) == []
