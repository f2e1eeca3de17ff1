import random
import time
from itertools import combinations, permutations

import pytest

from srlab.bitsets import mask_of, vertices_of
from srlab.complexes import clique_complex
from srlab.graphs import (
    FamilySpec,
    Graph,
    build_family,
    complete_bipartite,
    complete_prism,
    cycle,
    cycle_square,
    graph_from_edges,
    graph_from_json,
    grid,
    automorphism_generators,
    independent_sets,
    is_chordal,
    is_independent,
    is_perfect_elimination_order,
    path,
    path_square,
    points,
    star,
    tree_from_edges,
    wheel,
)
from conftest import (
    edges,
    family_graphs,
    petersen_and_frucht,
    random_graph_sample,
    random_regular_graph,
    relabelled,
    symmetry_corpus,
)
from oracles import automorphisms, find_chordless_cycle_bruteforce, has_edge


def edge_set(g):
    return set(edges(g))


def complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~a & ~(1 << i) for i, a in enumerate(g.adj)))


def test_cycle_c4_edges():
    assert edge_set(cycle(4)) == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_cycle_square_c2_6_edges():
    g = cycle_square(6)
    assert has_edge(g, 1, 3) and has_edge(g, 1, 2) and not has_edge(g, 1, 4)
    # complete graph minus the perfect matching of antipodes
    assert edge_set(g) == edge_set(complement(graph_from_edges(6, [(1, 4), (2, 5), (3, 6)])))


def test_grid_2x2_is_a_4cycle():
    g = grid(2, 2)
    # relabel 1,2,4,3 -> cycle
    assert edge_set(g) == {(1, 2), (1, 3), (2, 4), (3, 4)}
    ne = len(edge_set(g))
    assert ne == 4 and all((g.adj[v].bit_count() == 2) for v in range(4))


def test_family_labelings():
    assert has_edge(star(5), 1, 5) and not has_edge(star(5), 1, 2)
    w = wheel(4)
    assert w.n == 5 and all(has_edge(w, i, 5) for i in range(1, 5))
    p = complete_prism(3)
    assert has_edge(p, 1, 2) and has_edge(p, 4, 5) and has_edge(p, 1, 4) and not has_edge(p, 1, 5)
    kb = complete_bipartite(2, 3)
    assert has_edge(kb, 1, 3) and not has_edge(kb, 1, 2) and not has_edge(kb, 3, 4)
    g = grid(2, 3)
    assert has_edge(g, 1, 2) and has_edge(g, 1, 4) and not has_edge(g, 1, 5)


def test_build_family_and_json():
    g = build_family(FamilySpec("C2", n=9))
    assert g.n == 9 and has_edge(g, 9, 2)
    g2 = graph_from_json({"family": "C2", "n": 9})
    assert g2 == g
    g3 = graph_from_json({"n": 3, "edges": [[1, 2], [2, 3]]})
    assert g3 == path(3)
    assert graph_from_json({"n": g.n, "edges": [list(e) for e in edges(g)]}) == g
    with pytest.raises(ValueError):
        build_family(FamilySpec("Q", n=3))
    with pytest.raises(ValueError):
        build_family(FamilySpec("Kmn", n=3))
    with pytest.raises(ValueError):
        build_family(FamilySpec("P", n=0))


def test_tree_edge_list_validation():
    tree_from_edges(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError):
        tree_from_edges(4, [(1, 2), (2, 3)])  # too few
    with pytest.raises(ValueError):
        tree_from_edges(4, [(1, 2), (1, 2), (3, 4)])  # doubled edge, disconnected
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 4)])


def test_complement_involution_and_triangle():
    import random

    assert complement(complement(cycle(5))) == cycle(5)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        g = graph_from_edges(n, edges)
        assert complement(complement(g)) == g
    k3c = complement(graph_from_edges(3, [(1, 2), (1, 3), (2, 3)]))
    assert k3c.edge_count() == 0
    # doubled 6-cycle's complement is the perfect matching 14, 25, 36
    assert edge_set(complement(cycle_square(6))) == {(1, 4), (2, 5), (3, 6)}


def test_independence():
    c4 = cycle(4)
    assert is_independent(c4, {1, 3})
    assert not is_independent(c4, {1, 2})
    assert is_independent(complete_bipartite(2, 3), {3, 4, 5})
    assert [vertices_of(m) for m in independent_sets(c4, 2)] == [(1, 3), (2, 4)]
    assert independent_sets(c4, 3) == []
    assert independent_sets(c4, 0) == [0]
    # K_{2,3}: pairs inside one side
    assert len(independent_sets(complete_bipartite(2, 3), 2)) == 1 + 3
    # every k-subset tested pair by pair, in lexicographic order of vertex tuples
    for name, g in family_graphs(9) + random_graph_sample(30, 9):
        for k in range(g.n + 1):
            subsets = combinations(range(1, g.n + 1), k)
            want = [mask_of(s) for s in subsets if not any(has_edge(g, u, v) for u, v in combinations(s, 2))]
            assert independent_sets(g, k) == want, (name, k)


def test_independent_sets_match_complement_cliques():
    for name, g in random_graph_sample(30, 8):
        comp = complement(g)
        for k in range(0, g.n + 1):
            indep = set(independent_sets(g, k))
            cliques = {
                m
                for clique in clique_complex(comp).facets
                for m in _ksub(clique, k)
            }
            assert indep == cliques, (name, k)


def _ksub(mask, k):
    """Size-k submasks of mask."""
    return {mask_of(combo) for combo in combinations(vertices_of(mask), k)}


def test_maximal_cliques():
    # the facets of the clique complex, the dual of the degree-2 cover
    assert list(clique_complex(graph_from_edges(3, [(1, 2), (1, 3), (2, 3)])).facets) == [mask_of((1, 2, 3))]
    assert [vertices_of(m) for m in clique_complex(cycle(4)).facets] == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert len(clique_complex(cycle_square(6)).facets) == 8  # eight triangles
    assert all(m.bit_count() == 3 for m in clique_complex(cycle_square(6)).facets)
    # isolated vertices are maximal cliques of size one
    assert list(clique_complex(points(3)).facets) == [1, 2, 4]


def test_chordal_basics():
    assert not is_chordal(cycle(4))
    assert is_chordal(path(7)) and is_chordal(cycle(3)) and is_chordal(star(6))
    assert is_chordal(path_square(8)) and is_chordal(Graph(0, ()))
    assert not is_chordal(grid(2, 3))
    assert is_perfect_elimination_order(path_square(8), range(1, 9))
    assert not is_perfect_elimination_order(path_square(8), [2, 1, *range(3, 9)])
    assert not any(is_perfect_elimination_order(cycle(4), order) for order in permutations(range(1, 5)))


def test_chordal_matches_bruteforce_on_random_graphs():
    for name, g in random_graph_sample(60, 8, seed=777):
        assert is_chordal(g) == (find_chordless_cycle_bruteforce(g) is None), name


def test_graph_validation_bounds():
    with pytest.raises(ValueError):
        is_independent(cycle(4), {5})
    with pytest.raises(ValueError):
        independent_sets(cycle(4), 7)


def _group_order(gens, n: int) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation(list(p)) for p in gens]).order() if gens else 1


def _regular_graphs() -> list[tuple[str, Graph]]:
    """Seeded random 3- and 4-regular graphs at n = 20-22, where 1-WL splits
    no vertex until one is given a colour of its own."""
    cases = [(3, 20, 1), (3, 22, 2), (4, 20, 3), (4, 21, 4), (4, 22, 5)]
    return [(f"{d}-regular n={n}", random_regular_graph(d, n, seed)) for d, n, seed in cases]


def test_automorphism_generators_preserve_adjacency():
    for name, g in symmetry_corpus(11) + _regular_graphs():
        want = edge_set(g)
        gens = automorphism_generators(g)
        assert len(gens) <= max(g.n - 1, 0), name
        for p in gens:
            assert sorted(p) == list(range(g.n)) and p != tuple(range(g.n)), (name, p)
            assert {tuple(sorted((p[u - 1] + 1, p[v - 1] + 1))) for u, v in want} == want, (name, p)


def test_automorphism_group_order_matches_the_full_listing():
    # oracles.automorphisms lists every automorphism, so points, stars and
    # K_{m,n} (groups of order up to 10!) stay at n <= 7
    rng = random.Random(2612)
    graphs = [(name, g) for name, g in family_graphs(10) if g.n <= 7 or name[0] not in "PSK"]
    graphs += random_graph_sample(40, 10, seed=2613) + petersen_and_frucht()[:1]
    for name, g in graphs + [(f"{name}~", relabelled(g, rng)) for name, g in graphs]:
        assert _group_order(automorphism_generators(g), g.n) == len(automorphisms(g)), name
    petersen, frucht = petersen_and_frucht()
    assert _group_order(automorphism_generators(petersen[1]), 10) == 120
    assert automorphism_generators(frucht[1]) == ()
    assert automorphisms(frucht[1]) == [tuple(range(12))]


def test_automorphism_search_finishes_on_random_regular_graphs():
    for name, g in _regular_graphs():
        automorphism_generators.cache_clear()
        t0 = time.perf_counter()
        automorphism_generators(g)
        assert time.perf_counter() - t0 < 2, name  # about 3 ms each on a 2-CPU VM
