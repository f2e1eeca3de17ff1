import json
import random
from itertools import combinations

import pytest

from srlab import complexes, resolution
from srlab.bitsets import full_mask, mask_of, maximal_masks, sort_canonical, vertices_of
from srlab.complexes import (
    SimplicialComplex,
    alexander_dual,
    all_faces,
    canonical_json,
    clique_complex,
    complex_from_json,
    complex_to_json,
    cover_complex,
    dual_fvector,
    f_vector,
    faces_of_card,
    irrelevant_complex,
    is_pure,
    join,
    make_complex,
    minimal_nonfaces,
    simplex_complex,
    skeleton,
    void_complex,
)
from srlab.errors import GuardExceeded, VoidComplexError
from srlab.graphs import complete_prism, cycle, cycle_square, graph_from_edges, path, points, star
from srlab.homology import RATIONALS
from conftest import family_graphs, random_complex_sample
from oracles import is_face, maximal_bruteforce, minimal_nonfaces_bruteforce


def C(n, facets):
    return make_complex(n, [mask_of(f) for f in facets])


def favs(c):
    return [vertices_of(f) for f in c.facets]


def test_canonical_form_and_degenerates():
    c = C(4, [(2, 3), (1, 2), (1, 2)])  # dedupe, sort
    assert favs(c) == [(1, 2), (2, 3)]
    c2 = C(4, [(1,), (1, 3)])  # maximalize
    assert favs(c2) == [(1, 3)]
    v = void_complex(3)
    assert v.is_void and f_vector(v) == () and is_pure(v)
    with pytest.raises(VoidComplexError):
        v.dim()
    ir = irrelevant_complex(3)
    assert ir.is_irrelevant and ir.dim() == -1 and f_vector(ir) == (1,)
    assert make_complex(3, []) == v
    with pytest.raises(ValueError):
        make_complex(2, [mask_of((3,))])
    with pytest.raises(AttributeError):  # records are immutable
        c.n = 5


def test_cover_complex_examples():
    # prism 2x2: facets are the complements of the two independent pairs
    c = cover_complex(complete_prism(2), 2)
    assert favs(c) == [(1, 4), (2, 3)]
    # degree 1: all (n-1)-subsets
    c1 = cover_complex(cycle(5), 1)
    assert len(c1.facets) == 5 and all(f.bit_count() == 4 for f in c1.facets)
    assert c1 == skeleton(simplex_complex(5), 3)
    # no independent 3-set in a 4-cycle
    assert cover_complex(cycle(4), 3).is_void
    assert is_pure(cover_complex(path(7), 3))
    with pytest.raises(ValueError):
        cover_complex(cycle(4), 0)
    with pytest.raises(ValueError):
        cover_complex(cycle(4), 5)


def test_cover_complex_face_characterization_exhaustive():
    # a set is a face exactly when its complement holds an independent k-set
    from srlab.graphs import independent_sets
    from srlab.bitsets import full_mask

    for g, k in [(cycle(6), 2), (path(7), 3), (cycle_square(7), 2), (star(6), 3)]:
        c = cover_complex(g, k)
        indep = independent_sets(g, k)
        assert len(c.facets) == len(indep)
        full = full_mask(g.n)
        for s in range(1 << g.n):
            expect = any((full ^ s) & m == m for m in indep)
            assert is_face(c, s) == expect


def test_clique_complex():
    cc = clique_complex(cycle(4))
    assert favs(cc) == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert f_vector(clique_complex(cycle_square(6))) == (1, 6, 12, 8)
    assert clique_complex(cycle_square(6)).dim() == 2
    t = clique_complex(path(5))
    assert favs(t) == [(1, 2), (2, 3), (3, 4), (4, 5)]
    # isolated vertices become vertices of the complex
    assert favs(clique_complex(points(3))) == [(1,), (2,), (3,)]


def test_f_vector_against_bruteforce():
    for b in random_complex_sample(40, 7, seed=99):
        c = b.c
        fv = f_vector(c)
        counts = {}
        for s in range(1 << c.n):
            if is_face(c, s):
                counts[s.bit_count()] = counts.get(s.bit_count(), 0) + 1
        brute = tuple(counts.get(i, 0) for i in range(max(counts) + 1))
        assert fv == brute, b.name


def test_fvector_examples():
    assert f_vector(C(4, [(1, 2), (2, 3), (3, 4), (1, 4)])) == (1, 4, 4)
    assert f_vector(cover_complex(cycle_square(6), 2)) == (1, 6, 15, 12, 3)
    from srlab.graphs import complete_bipartite

    assert f_vector(clique_complex(complete_bipartite(3, 4))) == (1, 7, 12)


def test_minimal_nonfaces_examples():
    assert [vertices_of(m) for m in minimal_nonfaces(clique_complex(cycle_square(6)))] == [
        (1, 4),
        (2, 5),
        (3, 6),
    ]
    c4 = C(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert [vertices_of(m) for m in minimal_nonfaces(c4)] == [(1, 3), (2, 4)]
    # dual of the top-degree even cycle cover: two alternating products
    for k in (2, 3):
        d = alexander_dual(cover_complex(cycle(2 * k), k))
        assert [vertices_of(m) for m in minimal_nonfaces(d)] == [
            tuple(range(1, 2 * k, 2)),
            tuple(range(2, 2 * k + 1, 2)),
        ]
    assert minimal_nonfaces(simplex_complex(4)) == ()
    assert [vertices_of(m) for m in minimal_nonfaces(irrelevant_complex(3))] == [(1,), (2,), (3,)]
    with pytest.raises(VoidComplexError):
        minimal_nonfaces(void_complex(3))


def test_minimal_nonfaces_against_bruteforce():
    for b in random_complex_sample(60, 7, seed=4):
        assert minimal_nonfaces(b.c) == minimal_nonfaces_bruteforce(b.c), b.name


def test_minimal_nonfaces_against_bruteforce_with_many_facets():
    rng = random.Random(31337)
    for idx in range(300):
        n = rng.randint(1, 10)
        count = rng.randint(1, 6) if idx % 2 else rng.randint(10, 60)
        c = make_complex(n, [rng.randrange(1 << n) for _ in range(count)])
        assert minimal_nonfaces(c) == minimal_nonfaces_bruteforce(c), (idx, c)


def test_alexander_dual_involution_on_large_covers():
    for c in (cover_complex(path(16), 4), cover_complex(path(18), 3)):
        assert alexander_dual(alexander_dual(c)) == c


def test_alexander_dual_examples_and_involution():
    # prism cover complex: dual facets as recorded
    d = alexander_dual(cover_complex(complete_prism(2), 2))
    assert favs(d) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert alexander_dual(simplex_complex(4)).is_void
    assert alexander_dual(void_complex(4)) == simplex_complex(4)
    # 4-cycle complex dualizes to the two diagonals
    c4 = C(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert favs(alexander_dual(c4)) == [(1, 3), (2, 4)]
    for b in random_complex_sample(80, 8, seed=5):
        assert alexander_dual(alexander_dual(b.c)) == b.c, b.name


def test_alexander_dual_against_bruteforce():
    from srlab.bitsets import full_mask, sort_canonical

    for b in random_complex_sample(40, 7, seed=6):
        c = b.c
        full = full_mask(c.n)
        dual_faces = [s for s in range(1 << c.n) if not is_face(c, full ^ s)]
        expect = SimplicialComplex(c.n, sort_canonical(maximal_bruteforce(dual_faces)))
        assert alexander_dual(c) == expect, b.name


def test_maximal_masks_against_bruteforce():
    # same members in the same order: descending cardinality, ties in order of first occurrence
    rng = random.Random(2020)
    for _ in range(400):
        n = rng.randint(1, 9)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 14))]
        masks += [m & rng.getrandbits(n) for m in masks[:4]]  # nested in earlier members
        masks += rng.sample(masks, min(4, len(masks))) + [0]  # duplicates and the empty mask
        rng.shuffle(masks)
        assert maximal_masks(iter(masks)) == maximal_bruteforce(masks), masks
    assert maximal_masks([]) == [] and maximal_masks([0, 0]) == [0]
    assert maximal_masks([0b100, 0b001, 0b110, 0b010, 0b001]) == [0b110, 0b001]
    assert maximal_masks([0b100, 0b001, 0b010, 0b100]) == [0b100, 0b001, 0b010]


def test_dual_ideal_generators():
    g = cycle_square(9)
    c = cover_complex(g, 3)
    gens = minimal_nonfaces(alexander_dual(c))
    # generators are supported on the independent 3-sets
    from srlab.graphs import independent_sets

    assert set(gens) == set(independent_sets(g, 3))
    # the path at its top degree: one generator
    c2 = cover_complex(path(5), 3)
    assert [vertices_of(m) for m in minimal_nonfaces(alexander_dual(c2))] == [(1, 3, 5)]


def test_dual_memo_records_the_involution(monkeypatch):
    calls = []
    real = complexes.minimal_nonfaces
    monkeypatch.setattr(complexes, "minimal_nonfaces", lambda c: calls.append(c) or real(c))
    alexander_dual.cache_clear()
    # the triangles of C2_12, canonical and maximal, built with no graph behind them
    c = make_complex(12, [mask_of((i, i % 12 + 1, (i + 1) % 12 + 1)) for i in range(1, 13)])
    d = alexander_dual(c)
    assert alexander_dual(d) == c and calls == [c]  # one run for c and its dual
    assert alexander_dual(void_complex(4)) == simplex_complex(4) and alexander_dual(simplex_complex(4)) == void_complex(4)
    assert calls == [c]
    # a hand-built list with nested, unsorted facets is not the dual of its dual
    odd = SimplicialComplex(4, (mask_of((2, 3)), mask_of((1, 2)), mask_of((1,))))
    twice = alexander_dual(alexander_dual(odd))
    assert twice == make_complex(4, odd.facets) != odd and len(calls) == 3
    alexander_dual.cache_clear()
    assert alexander_dual(c) == d and len(calls) == 4
    # a cover's dual comes from its graph, and the dual of that dual from the memo
    cover = cover_complex(path(12), 3)
    assert alexander_dual(alexander_dual(cover)) == cover and len(calls) == 4


def _oracle_graphs():
    """Every family graph on at most 11 vertices, edgeless and complete graphs,
    and 300 seeded random graphs on at most 11 vertices of random density."""
    graphs = family_graphs(11) + [("P1", points(1))]
    graphs += [(f"K{n}", graph_from_edges(n, combinations(range(1, n + 1), 2))) for n in range(2, 12)]
    rng = random.Random(2551)
    for idx in range(300):
        n, density = rng.randint(1, 11), rng.random()
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < density]
        graphs.append((f"rg{idx}(n={n})", graph_from_edges(n, edges)))
    return graphs


def test_cover_duals_from_the_graph_match_minimal_nonfaces(monkeypatch):
    real = complexes.minimal_nonfaces

    def refuse(c):
        raise AssertionError("a cover's dual should come from its graph")

    monkeypatch.setattr(complexes, "minimal_nonfaces", refuse)
    alexander_dual.cache_clear()
    for name, g in _oracle_graphs():
        for k in range(1, g.n + 1):  # up to alpha(g) + 1, where the cover is void
            c = cover_complex(g, k)
            if c.is_void:
                assert alexander_dual(c) == simplex_complex(g.n), name
                break
            bare = make_complex(g.n, c.facets)  # the same complex, built with no graph behind it
            mnf = real(bare)
            assert alexander_dual(c).facets == sort_canonical(full_mask(g.n) ^ m for m in mnf), (name, k)
            if g.n <= 9:
                assert mnf == minimal_nonfaces_bruteforce(bare), (name, k)


def test_clique_complexes_take_the_cover_routes(monkeypatch):
    # a clique complex is the dual of the degree-2 cover, so its own dual
    # comes from the memo and never from minimal_nonfaces
    def refuse(c):
        raise AssertionError("a clique complex's dual should come from the memo")

    monkeypatch.setattr(complexes, "minimal_nonfaces", refuse)
    alexander_dual.cache_clear()
    for name, g in _oracle_graphs():
        for k in range(1, g.n + 1):  # alexander_dual takes a recorded cover as canonical
            c = cover_complex(g, k)
            assert c.facets == sort_canonical(c.facets), (name, k)
        if g.n >= 2:
            assert alexander_dual(clique_complex(g)) == cover_complex(g, 2), name
    # the octahedron's plan reads one lattice member per Aut(C2_6) orbit:
    # 4 of the 8 unions of its 3 antipodal pairs
    octa, read = clique_complex(cycle_square(6)), []
    real = resolution._side
    monkeypatch.setattr(resolution, "_side", lambda *a: read.append(a[3]) or real(*a))
    resolution._hochster_plan.cache_clear()
    resolution._hochster_sum(octa, RATIONALS)
    assert len(set(resolution._lcm_lattice(alexander_dual(octa)))) == 8 and len(read) == 4


def test_dual_fvector():
    assert dual_fvector((1, 4, 4), 4) == (1, 4, 2)
    # full simplex dualizes to void
    assert dual_fvector((1, 4, 6, 4, 1), 4) == ()
    assert dual_fvector((), 4) == (1, 4, 6, 4, 1)
    for b in random_complex_sample(60, 8, seed=7):
        assert f_vector(alexander_dual(b.c)) == dual_fvector(f_vector(b.c), b.c.n), b.name
    with pytest.raises(ValueError):
        dual_fvector((1, 9, 9, 9), 4)


def test_skeleton():
    S = simplex_complex(5)
    k5_edges = make_complex(5, [mask_of(e) for e in combinations(range(1, 6), 2)])
    assert skeleton(S, 1) == k5_edges
    assert skeleton(S, 4) == S
    assert skeleton(S, -1) == irrelevant_complex(5)
    c = C(5, [(1, 2, 3), (4,)])
    sk = skeleton(c, 1)
    assert favs(sk) == [(1, 2), (1, 3), (2, 3), (4,)]
    # degree-1 cover complexes are codimension-one skeleta
    assert cover_complex(cycle(6), 1) == skeleton(simplex_complex(6), 4)


def test_link_and_deletion():
    from srlab.structure import _shed

    def shed(c, v):  # the link and deletion facets of vertex v, in the labels of c
        return tuple(sorted(vertices_of(f) for f in part) for part in _shed(c.facets, v))

    c4 = C(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    lk, d = shed(c4, 1)
    assert lk == [(2,), (4,)]
    assert d == [(2, 3), (3, 4)]  # the path 2-3-4
    # the link of a vertex of the octahedron is a 4-cycle
    octa = clique_complex(cycle_square(6))
    assert shed(octa, 1)[0] == [(2, 3), (2, 6), (3, 5), (5, 6)]
    S = simplex_complex(4)
    assert shed(S, 4) == ([(1, 2, 3)], [(1, 2, 3)])


def test_join():
    two_pts = C(2, [(1,), (2,)])
    j = join(two_pts, two_pts)
    assert j.n == 4 and favs(j) == [(1, 3), (1, 4), (2, 3), (2, 4)]  # a 4-cycle
    cone = join(C(1, [(1,)]), two_pts)
    assert favs(cone) == [(1, 2), (1, 3)]
    assert join(void_complex(2), two_pts).is_void
    assert join(irrelevant_complex(0), two_pts) == two_pts


def test_serialization_roundtrip_and_canonical_output():
    c = cover_complex(cycle_square(6), 2)
    obj = complex_to_json(c)
    assert obj["facets"] == sorted(obj["facets"])
    assert complex_from_json(json.loads(json.dumps(obj))) == c
    v = void_complex(4)
    assert complex_from_json(complex_to_json(v)) == v
    assert '"void":true' in canonical_json(v)
    with pytest.raises(ValueError):
        complex_from_json({"n": 2, "facets": [[1]], "void": True})
    with pytest.raises(ValueError, match=r"vertices in 1\.\.3"):
        complex_from_json({"n": 3, "facets": [[0]]})


def test_face_enumeration_guard():
    big = simplex_complex(25)
    with pytest.raises(GuardExceeded):
        f_vector(big)
    assert faces_of_card(simplex_complex(25), 1, override=True) == [1 << i for i in range(25)]
    assert len(all_faces(simplex_complex(3))) == 4
