import random
from collections import Counter

import pytest

from conftest import family_graphs, random_graph_sample, relabelled, symmetry_corpus
from oracles import (
    automorphisms,
    betti_direct,
    betti_dual_links,
    betti_from_linear_hilbert,
    homology_all_ranks,
    hochster_sums_full,
    lcm_closure,
    maximal_bruteforce,
    minimal_nonfaces_bruteforce,
    orbit_walk_per_bit,
    reisner_sweep_full,
)
from srlab import cli, complexes, homology, resolution
from srlab.bitsets import mask_of, vertices_of
from srlab.complexes import (
    alexander_dual,
    clique_complex,
    cover_complex,
    f_vector,
    irrelevant_complex,
    join,
    make_complex,
    simplex_complex,
    skeleton,
    void_complex,
)
from srlab.errors import GuardExceeded, VoidComplexError
from srlab.graphs import (
    FamilySpec,
    build_family,
    complete_bipartite,
    cycle,
    cycle_square,
    graph_from_edges,
    path,
    path_square,
    points,
    star,
)
from srlab.homology import GF2, RATIONALS, Field
from srlab.resolution import (
    FatForestDecomposition,
    GradedBettiTable,
    HilbertSeries,
    betti_hochster,
    betti_product,
    eagon_reiner_check,
    fat_forest_hilbert,
    hilbert_from_fvector,
    is_cm_ab,
    is_cm_reisner,
    is_gorenstein,
    kpolynomial,
    linear_resolution_degree,
)


def C(n, facets):
    return make_complex(n, [mask_of(f) for f in facets])


C4 = C(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
RP2 = C(  # the 6-vertex real projective plane, as in test_homology.py
    6,
    [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)],
)


def test_hilbert_examples():
    h = hilbert_from_fvector((1, 4, 4), 4)
    assert h.numerator == (1, 0, -2, 0, 1) and h.denom_power == 4
    # n isolated points: series 1 + nt/(1-t); numerator matches the (1,3,2) table
    h2 = hilbert_from_fvector((1, 3), 3)
    assert h2.numerator == (1, 0, -3, 2)  # (1-t)^3 + 3t(1-t)^2
    assert hilbert_from_fvector((1,), 5).numerator == tuple([1, -5, 10, -10, 5, -1])
    with pytest.raises(VoidComplexError):
        hilbert_from_fvector((), 3)
    with pytest.raises(ValueError):
        hilbert_from_fvector((2, 3), 3)


def test_hochster_frozen_tables():
    assert betti_hochster(C4).sorted_items() == [(0, 0, 1), (1, 2, 2), (2, 4, 1)]
    d = alexander_dual(C4)
    assert betti_hochster(d).sorted_items() == [(0, 0, 1), (1, 2, 4), (2, 3, 4), (3, 4, 1)]
    assert betti_hochster(simplex_complex(4)).entries == {(0, 0): 1}
    assert betti_hochster(irrelevant_complex(3)).entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    # three isolated points: (1, 3, 2)
    pts = clique_complex(points(3))
    assert betti_hochster(pts).totals() == (1, 3, 2)


def test_hochster_beta1_equals_minimal_generators():
    from srlab.complexes import minimal_nonfaces

    for c in (C4, cover_complex(cycle_square(6), 2), clique_complex(path_square(7)), cover_complex(path(7), 3)):
        t = betti_hochster(c)
        mnf = minimal_nonfaces(c)
        by_degree = {}
        for m in mnf:
            by_degree[m.bit_count()] = by_degree.get(m.bit_count(), 0) + 1
        assert {j: b for (i, j), b in t.entries.items() if i == 1} == by_degree, c


def test_hochster_oracles_agree():
    cases = [
        cover_complex(cycle_square(6), 2),
        cover_complex(path(8), 3),
        clique_complex(cycle(6)),
        cover_complex(complete_bipartite(3, 3), 2),
    ]
    for c in cases:
        for f in (RATIONALS, GF2, Field(3)):
            t = betti_hochster(c, f).entries
            assert t == betti_direct(c, f) == betti_dual_links(c, f), (c, f)
    # n = 10 covers with large facets, and their duals with small ones
    large = [cover_complex(path(10), 3), cover_complex(cycle(10), 3)]
    large += [alexander_dual(c) for c in large]
    for c in large:
        for f in (RATIONALS, GF2, Field(3)):
            ta = betti_hochster(c, f)
            assert ta.entries == betti_direct(c, f), (c, f)
            assert ta.entries == betti_dual_links(c, f), (c, f)


def _unions_of_minimal_nonfaces(c) -> set[int]:
    """Brute force: W qualifies when the minimal nonfaces inside W cover it."""
    mnf = minimal_nonfaces_bruteforce(c)
    out = set()
    for w in range(1 << c.n):
        u = 0
        for m in mnf:
            if m & w == m:
                u |= m
        if u == w:
            out.add(w)
    return out


def _orbits(c, members: set[int]) -> set[frozenset]:
    """The members grouped by the automorphisms of the graph recorded behind c
    or its dual, all listed by oracles.automorphisms; one member each when
    there is none."""
    record = complexes._COVERS.get(c) or complexes._COVERS.get(alexander_dual(c))
    perms = automorphisms(record[0]) if record else [tuple(range(c.n))]
    return {frozenset(mask_of(p[v - 1] + 1 for v in vertices_of(w)) for p in perms) for w in members}


def test_auto_route_reads_only_unions_of_minimal_nonfaces(monkeypatch):
    read = []
    real = resolution._side
    monkeypatch.setattr(resolution, "_side", lambda *a: read.append(a[3]) or real(*a))
    # C4 equals the dual of cover_complex(cycle(4), 2), so a record that an
    # earlier test left would give it a graph
    complexes._COVERS.clear()
    complexes._DUALS.clear()
    resolution._hochster_plan.cache_clear()
    resolution._CORE_DIMS.clear()
    sizes = []
    for c in (C4, cover_complex(cycle_square(6), 2), cover_complex(path(9), 3)):
        oracle = [betti_dual_links(c, f) for f in (RATIONALS, GF2)]
        read.clear()
        assert [resolution._hochster_sum(c, f).entries for f in (RATIONALS, GF2)] == oracle, c
        expect = _unions_of_minimal_nonfaces(c)
        orbits = _orbits(c, expect)
        assert set(read) <= expect, c  # every read is a lattice member
        assert sorted(len([w for w in read if w in o]) for o in orbits) == [1] * len(orbits), c  # once for both fields
        full = (1 << c.n) - 1  # each orbit is read at the member whose complement comes first
        assert all(min(o, key=lambda w: ((full ^ w).bit_count(), vertices_of(full ^ w))) in read for o in orbits), c
        sizes.append((len(orbits), len(expect)))
    assert sizes[0][0] == sizes[0][1] and sizes[1][0] < sizes[1][1]  # C4 has no graph; C2_6 is the octahedron
    # a cover's dual reads the fold of each member it reads, each fold once for both fields
    c = alexander_dual(cover_complex(path(9), 3))
    oracle = [betti_dual_links(c, f) for f in (RATIONALS, GF2)]
    read.clear()
    assert [resolution._hochster_sum(c, f).entries for f in (RATIONALS, GF2)] == oracle
    expect = _unions_of_minimal_nonfaces(c)
    folds = {resolution._fold(path(9), w) for w in expect}
    assert set(read) <= folds and len(read) == len(set(read)) and not set(read) <= expect
    read.clear()
    assert betti_hochster(simplex_complex(23), override=True).entries == {(0, 0): 1}  # a void dual: the sum
    assert read == [0]


def test_second_field_reuses_the_plan(monkeypatch):
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or real(*a))

    count(resolution, "_lcm_lattice")
    count(resolution, "maximal_masks")
    count(homology, "rank_gf2")
    resolution._hochster_plan.cache_clear()
    resolution._CORE_DIMS.clear()
    c = alexander_dual(cover_complex(build_family(FamilySpec("Grid", n=4, m=3)), 3))
    betti_hochster(c, RATIONALS)
    assert calls["_lcm_lattice"] == 1 and calls["maximal_masks"] > 0 and calls["rank_gf2"] > 0
    calls.clear()
    betti_hochster(c, GF2)
    betti_hochster(c, Field(3))
    assert calls == Counter()


def test_q_then_gf2_enumerates_each_core_once(monkeypatch):
    # a Q profile keeps the GF(2) profile it computes on the way, so the GF(2)
    # table that follows reads every core from the memo
    calls = Counter()
    real = homology._faces_by_card
    monkeypatch.setattr(homology, "_faces_by_card", lambda facets: calls.update([facets]) or real(facets))
    resolution._hochster_plan.cache_clear()
    resolution._CORE_DIMS.clear()
    c = alexander_dual(cover_complex(build_family(FamilySpec("Grid", n=4, m=3)), 3))
    betti_hochster(c, RATIONALS)
    cores = {core for core, _, _, _ in resolution._hochster_plan(c)}
    assert len(cores) == 39 and set(calls) == cores and set(calls.values()) == {1}
    betti_hochster(c, GF2)
    assert sum(calls.values()) == len(cores)
    assert all(set(profiles) == {RATIONALS, GF2} for profiles in resolution._CORE_DIMS.values())


def test_folded_plan_reads_fewer_members(monkeypatch):
    # the Grid 4x3 k3 dual's plan reads one fold per class of members: 167
    # _side reads and 39 cores, against 890 and 252 unfolded
    read = []
    real = resolution._side
    monkeypatch.setattr(resolution, "_side", lambda *a: read.append(a[3]) or real(*a))
    resolution._hochster_plan.cache_clear()
    c = alexander_dual(cover_complex(build_family(FamilySpec("Grid", n=4, m=3)), 3))
    cores = {core for core, _, _, _ in resolution._hochster_plan(c)}
    assert (len(read), len(cores)) == (167, 39)


def test_field_order_with_torsion_matches_direct_sum():
    # RP^2's tables differ over Q and GF(2); 15 of the 39 cores of Grid 4x3 k3's
    # dual have GF(2) profiles with several nonzero degrees, which Q settles by exact ranks
    for c in (RP2, alexander_dual(cover_complex(build_family(FamilySpec("Grid", n=4, m=3)), 3))):
        want = {f: betti_direct(c, f) for f in (RATIONALS, GF2, Field(3))}
        for order in ((RATIONALS, GF2, Field(3)), (GF2, RATIONALS)):
            resolution._hochster_plan.cache_clear()
            resolution._CORE_DIMS.clear()
            for f in order:
                assert betti_hochster(c, f).entries == want[f], (c, order, f)


def _count_dual_builds(monkeypatch) -> list:
    """The argument tuples of every dual built from here on, by either route:
    from a cover's graph, or by minimal_nonfaces."""
    calls = []
    for name in ("minimal_nonfaces", "_sets_of_alpha_below"):
        real = getattr(complexes, name)
        monkeypatch.setattr(complexes, name, lambda *a, real=real: calls.append(a) or real(*a))
    return calls


def test_auto_route_builds_the_dual_once_across_fields(monkeypatch):
    c = cover_complex(path(12), 3)  # the auto route reads the dual's facets for each field
    calls = _count_dual_builds(monkeypatch)
    complexes._DUALS.clear()
    resolution._hochster_plan.cache_clear()
    resolution._CORE_DIMS.clear()
    tq = resolution._hochster_sum(c, RATIONALS)
    t2 = resolution._hochster_sum(c, GF2)
    assert len(calls) == 1
    assert tq.entries == t2.entries == betti_dual_links(c, RATIONALS)


def test_relabelled_memo_cuts_homology_calls(monkeypatch):
    c = alexander_dual(cover_complex(path(12), 3))
    calls = []
    real = resolution.homology_dims_from_facets
    monkeypatch.setattr(resolution, "homology_dims_from_facets", lambda *a: calls.append(a) or real(*a))
    resolution._hochster_plan.cache_clear()
    resolution._CORE_DIMS.clear()
    t = resolution._hochster_sum(c, RATIONALS)
    # 3198 without the relabelled memo, 358 keyed on relabelled facet lists,
    # 86 keyed on their strong-collapse cores (44 of the 358 collapse to a point)
    assert len(calls) <= 86
    assert t.entries == betti_direct(c, RATIONALS) == betti_dual_links(c, RATIONALS)


def test_dual_sweep_after_the_table_computes_no_homology(monkeypatch):
    # eagon_reiner_check sweeps c's dual after c's table: the same subsets read
    # by the same side rule, so every list's core and every core's homology
    # are already in the memos
    calls = []
    for name in ("homology_dims_from_facets", "_core"):
        real = getattr(resolution, name)
        monkeypatch.setattr(resolution, name, lambda *a, real=real: calls.append(a) or real(*a))
    for spec, k in ((FamilySpec("L", n=9), 3), (FamilySpec("C", n=12), 3), (FamilySpec("Grid", n=4, m=3), 2)):
        c = cover_complex(build_family(spec), k)
        for f in (RATIONALS, GF2, Field(3)):
            resolution._hochster_plan.cache_clear()
            resolution._CORES.clear()
            resolution._CORE_DIMS.clear()
            resolution._hochster_sum(c, f)
            calls.clear()
            assert resolution._reisner_sweep(alexander_dual(c), f).cm, (spec, k, f)
            assert calls == [], (spec, k, f)


def test_guard_stops_before_any_dual_is_built(monkeypatch, capsys):
    c = cover_complex(points(17), 2)
    calls = _count_dual_builds(monkeypatch)
    complexes._DUALS.clear()
    with pytest.raises(GuardExceeded):
        betti_hochster(c, max_ground=16)
    assert calls == []
    assert cli.main(["invariants", "--family", "P", "--n", "17", "--k", "2", "--max-ground", "16"]) == 2
    assert capsys.readouterr().out == "" and calls == []


def test_squeezed_facets_relabel_onto_the_support():
    from srlab.resolution import _squeezed

    assert _squeezed([0b1011000, 0b0110000]) == (0b0110, 0b1011)  # one run, moved down by 3
    assert _squeezed([mask_of((3, 5)), mask_of((5, 9))]) == (0b011, 0b110)  # three runs
    assert _squeezed([0]) == (0,)


def test_hochster_guard_and_void():
    with pytest.raises(VoidComplexError):
        betti_hochster(void_complex(3))
    big = simplex_complex(23)
    with pytest.raises(GuardExceeded):
        betti_hochster(big)
    assert betti_hochster(big, override=True).entries == {(0, 0): 1}


def test_kpolynomial_matches_hilbert_numerator():
    for c in (C4, cover_complex(cycle_square(6), 2), clique_complex(path(6)), cover_complex(star(6), 3)):
        t = betti_hochster(c)
        assert kpolynomial(t) == hilbert_from_fvector(f_vector(c), c.n).numerator, c


def test_linear_resolution_degree():
    assert linear_resolution_degree(betti_hochster(C4)) is None
    assert linear_resolution_degree(betti_hochster(cover_complex(cycle_square(6), 2))) == 3
    assert linear_resolution_degree(betti_hochster(simplex_complex(3))) == 0  # zero ideal
    assert linear_resolution_degree(betti_hochster(irrelevant_complex(4))) == 1
    assert linear_resolution_degree(betti_hochster(skeleton(simplex_complex(5), 2))) == 4


def test_betti_from_linear_hilbert():
    # squared-path cover ring values read off the numerator
    t = betti_from_linear_hilbert(HilbertSeries((1, 0, 0, 0, -5, 4), 5), 4)
    assert t.entries == {(0, 0): 1, (1, 4): 5, (2, 5): 4}
    # reproduces the oracle table whenever the oracle is linear
    for c in (cover_complex(points(5), 2), cover_complex(cycle_square(6), 2), clique_complex(path(6))):
        to = betti_hochster(c)
        s = linear_resolution_degree(to)
        assert s
        h = hilbert_from_fvector(f_vector(c), c.n)
        assert betti_from_linear_hilbert(h, s).entries == to.entries, c
    assert betti_from_linear_hilbert(HilbertSeries((1,), 4), 2).entries == {(0, 0): 1}
    with pytest.raises(ValueError):
        betti_from_linear_hilbert(HilbertSeries((1, 0, -2, 0, 1), 4), 2)  # C4: sign breaks at t^4
    with pytest.raises(ValueError):
        betti_from_linear_hilbert(HilbertSeries((1, 2), 4), 1)
    with pytest.raises(ValueError):
        betti_from_linear_hilbert(HilbertSeries((1, -1, 0, -1), 4), 1)  # support gap


def test_cm_verdicts():
    assert is_cm_reisner(C4).cm  # a connected graph complex
    two_edges = C(4, [(1, 2), (3, 4)])
    v = is_cm_reisner(two_edges)
    assert not v.cm and v.witness == ((), 0)  # disconnected at the empty face
    assert not is_cm_ab(two_edges, betti_hochster(two_edges))
    s4 = simplex_complex(4)
    assert is_cm_ab(s4, betti_hochster(s4)) and is_cm_reisner(s4).cm
    c26 = cover_complex(cycle_square(6), 2)
    assert not is_cm_ab(c26, betti_hochster(c26))  # pd 4 vs 6 - 4
    assert betti_hochster(c26).projective_dimension() == 4
    assert is_cm_ab(C4, betti_hochster(C4))
    ir = irrelevant_complex(3)
    assert is_cm_reisner(ir).cm and is_cm_ab(ir, betti_hochster(ir))


def test_gorenstein():
    def gorenstein(c):
        return is_gorenstein(c, betti_hochster(c))

    assert gorenstein(clique_complex(cycle(5)))
    assert gorenstein(simplex_complex(4))
    assert not gorenstein(clique_complex(points(3)))  # CM of type 2
    assert gorenstein(clique_complex(cycle_square(6)))  # the octahedron sphere


def test_fat_forest_hilbert():
    # squared-path clique complexes: (n-2)/(1-t)^3 - (n-3)/(1-t)^2
    for n in (5, 6, 7, 8, 9):
        d = FatForestDecomposition((2,) * (n - 2), (1,) * (n - 3))
        assert fat_forest_hilbert(d, n) == hilbert_from_fvector(f_vector(clique_complex(path_square(n))), n)
    assert fat_forest_hilbert(FatForestDecomposition((3,), ()), 4) == HilbertSeries((1,), 4)
    # two disjoint points: 2/(1-t) - 1
    d2 = FatForestDecomposition((0, 0), (-1,))
    assert fat_forest_hilbert(d2, 2) == hilbert_from_fvector((1, 2), 2)
    with pytest.raises(ValueError):
        FatForestDecomposition((1, 1), (2,))
    with pytest.raises(ValueError):
        FatForestDecomposition((), ())


def test_fat_forest_decomposition_replace_runs_the_constructor_checks():
    d = FatForestDecomposition((1, 2), (0,))
    assert d._replace(overlap_dims=(1,)) == FatForestDecomposition((1, 2), (1,))
    with pytest.raises(ValueError):
        d._replace(overlap_dims=(2,))  # r_2 above min(d_2, d_1)
    with pytest.raises(ValueError):
        d._replace(simplex_dims=(1,))  # one overlap too many


def test_eagon_reiner():
    def check(c):
        return eagon_reiner_check(c, betti_hochster(c))

    r = check(clique_complex(path_square(6)))  # chordal: linear, dual CM
    assert r.consistent and r.linear_degree == 2 and r.dual_cm
    r2 = check(C4)
    assert r2.consistent and r2.linear_degree is None and not r2.dual_cm
    r3 = check(simplex_complex(3))
    assert r3.consistent and r3.dual_void
    # top-degree even cycle: cover linear but dual ring not linear
    c = cover_complex(cycle(6), 3)
    assert check(c).consistent
    assert check(alexander_dual(c)).consistent
    # the field comes from the table
    assert eagon_reiner_check(C4, betti_hochster(C4, GF2)).field == GF2


def test_betti_product_matches_join():
    a = clique_complex(points(2))
    j = join(a, a)
    assert betti_hochster(j).entries == betti_product(betti_hochster(a), betti_hochster(a)).entries
    sk = skeleton(simplex_complex(4), 1)
    jj = join(sk, sk)
    assert betti_hochster(jj).entries == betti_product(betti_hochster(sk), betti_hochster(sk)).entries
    with pytest.raises(ValueError):
        betti_product(betti_hochster(a), betti_hochster(a, GF2))


def test_table_json_roundtrip():
    t = betti_hochster(cover_complex(cycle_square(6), 2))
    assert GradedBettiTable.from_json(t.to_json()).entries == t.entries
    assert t.to_json()["entries"] == sorted(t.to_json()["entries"])
    assert t.to_json()["field"] == "Q"
    good = {"field": "Q", "n": 4, "entries": [[0, 0, 1], [1, 2, 2], [2, 4, 1]]}
    assert GradedBettiTable.from_json(good).entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    for bad in ([True, 2, 2], [1, 2.0, 2], [1, 2], [0, 1, 1], [1, 0, 1], [1, 5, 1], [1, 2, 0], [-1, 2, 1], [1, 2, 2]):
        with pytest.raises(ValueError):
            GradedBettiTable.from_json({**good, "entries": good["entries"] + [bad]})
    with pytest.raises(ValueError):
        GradedBettiTable.from_json({**good, "n": "4"})


def test_field_specific_tables():
    # Betti numbers can grow in positive characteristic (triangulated RP^2)
    tq = betti_hochster(RP2, RATIONALS)
    t2 = betti_hochster(RP2, GF2)
    assert tq.entries != t2.entries
    assert all(t2.entries.get(k, 0) >= v for k, v in tq.entries.items())
    assert betti_hochster(RP2, Field(3)).entries == tq.entries


def test_orbit_route_matches_the_full_walk():
    # the plan and the sweep read one lattice member per Aut(G) orbit; the full
    # walk reads every member. Relabelled copies make the search find the
    # symmetry apart from the builders' labelling. The clique complex, the dual
    # of the degree-2 cover, comes first from its own builder.
    seen, witnesses = set(), []
    for name, g in symmetry_corpus(11) + random_graph_sample(20, 10, seed=3102):
        inputs = [(0, clique_complex(g))]
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            if c.is_void:
                break
            inputs += [(k, c), (k, alexander_dual(c))]
        for k, x in inputs:
            if x in seen or x.is_void:
                continue
            seen.add(x)
            tables = [resolution._hochster_sum(x, f) for f in (RATIONALS, GF2)]
            assert [t.entries for t in tables] == hochster_sums_full(x, (RATIONALS, GF2)), (name, k, x)
            # a CM verdict agrees with the table (Auslander-Buchsbaum); any other takes the full sweep
            verdict = resolution._reisner_sweep(x, RATIONALS)
            if not verdict.cm or not is_cm_ab(x, tables[0]):
                assert verdict == reisner_sweep_full(x, RATIONALS), (name, k, x)
                witnesses.append(verdict.witness)
    assert len(witnesses) > 200 and any(w[0] for w in witnesses)  # witnesses above the empty face too


def test_fold_keeps_the_homology_of_every_lattice_member():
    # a cover's dual restricted to a member W of its plan's lattice, and to
    # W's fold, have the same reduced homology, by plain ranks of every
    # boundary map
    def profile(facets, w, field):
        dims = list(homology_all_ranks(maximal_bruteforce(f & w for f in facets), field))
        while dims and not dims[-1]:
            dims.pop()
        return dims

    folded = 0
    for name, g in family_graphs(10) + random_graph_sample(30, 10, seed=3101):
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            if c.is_void:
                break
            dual, folds = alexander_dual(c), {}
            for w in lcm_closure(c.facets, g.n):
                v = resolution._fold(g, w)
                if v == w:
                    continue
                folded += 1
                for field in (RATIONALS, GF2):
                    if (v, field) not in folds:
                        folds[v, field] = profile(dual.facets, v, field)
                    assert profile(dual.facets, w, field) == folds[v, field], (name, k, vertices_of(w), field)
    assert folded > 10000


def _matching_complement(n: int):
    """K_n minus the perfect matching {1, 2}, {3, 4}, ...: its independent
    2-sets are the n/2 matching edges."""
    return graph_from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if not (u % 2 and v == u + 1)])


def test_lattice_from_the_graph_matches_the_closure(monkeypatch):
    # the plan of a cover's dual and the sweep of a cover read the lattice of
    # the cover's facets; from the graph, it must have the closure's members
    routes = []
    real = resolution._lattice_from_graph
    monkeypatch.setattr(resolution, "_lattice_from_graph", lambda *a: routes.append(a) or real(*a))
    taken = 0
    for name, g in symmetry_corpus(11) + random_graph_sample(40, 12, seed=2801):
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            if c.is_void:
                break
            routes.clear()
            assert set(resolution._lcm_lattice(c)) == lcm_closure(c.facets, c.n), (name, k)
            taken += len(routes)
    assert taken > 400


def test_lattice_route_follows_the_smaller_work_bound(monkeypatch):
    # K16 minus a perfect matching, k = 2: 8 facets, so the closure's bound
    # 8 * 2^8 is below the table's 16 * 2^16, and the table is never built
    def refuse(*a):
        raise AssertionError("the table was built")

    real = resolution._lattice_from_graph
    monkeypatch.setattr(resolution, "_lattice_from_graph", refuse)
    c = cover_complex(_matching_complement(16), 2)
    assert len(c.facets) == 8 and set(resolution._lcm_lattice(c)) == lcm_closure(c.facets, 16)
    # the Grid 4x3 k3 dual's plan takes the table, as does the sweep of L10
    # k3 (CM, so it runs past the empty face)
    calls = []
    monkeypatch.setattr(resolution, "_lattice_from_graph", lambda *a: calls.append(a) or real(*a))
    grid = build_family(FamilySpec("Grid", n=4, m=3))
    resolution._hochster_plan.cache_clear()
    resolution._hochster_plan(alexander_dual(cover_complex(grid, 3)))
    assert resolution._reisner_sweep(cover_complex(path(10), 3), RATIONALS).cm
    assert calls == [(grid, 3), (path(10), 3)]


def test_orbit_tables_past_two_bytes_match_the_per_bit_walk():
    # masks of 18 or 20 vertices reach a third byte table, and a seeded
    # relabelling spreads each orbit over all three. Each case walks the
    # lattice a plan reads (the dual's) or a sweep reads (the cover's); the
    # sweep lattice of C18 k2 is cut to its members of at most 6 vertices, a
    # set every automorphism keeps.
    rng = random.Random(2802)
    covers = [cover_complex(relabelled(g, rng), k) for g, k in ((cycle(18), 2), (_matching_complement(18), 2), (cycle(20), 3))]
    cases = [
        (covers[0], [w for w in resolution._lcm_lattice(covers[0]) if w.bit_count() <= 6]),
        (alexander_dual(covers[0]), resolution._lcm_lattice(alexander_dual(covers[0]))),
        (covers[1], resolution._lcm_lattice(covers[1])),
        (alexander_dual(covers[2]), resolution._lcm_lattice(alexander_dual(covers[2]))),
    ]
    for b, members in cases:
        a = alexander_dual(b)
        got = sorted(resolution._orbit_walk(members, a, b))
        assert got == sorted(orbit_walk_per_bit(members, a, b)), (b.n, len(members))
        assert sum(size for _, size in got) == len(members) and any(size > 1 for _, size in got)
