import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from conftest import family_complexes, family_graphs
from oracles import check_vd_witness, is_valid_shelling_pairwise, shelling_order_from_vd, shelling_restrictions_pairwise
from srlab.bitsets import mask_of, shelling_restrictions, single_maximal_overlap, vertices_of
from srlab.complexes import (
    alexander_dual,
    clique_complex,
    cover_complex,
    f_vector,
    irrelevant_complex,
    is_pure,
    make_complex,
    simplex_complex,
    void_complex,
)
from srlab.errors import GuardExceeded
from srlab.graphs import cycle, cycle_square, graph_from_edges, path, path_square, star
from srlab.homology import GF2
from srlab.resolution import fat_forest_hilbert, hilbert_from_fvector
from srlab.structure import (
    FAT_FOREST_FACET_GUARD,
    StructureVerdict,
    _facet_order,
    _is_quasi_forest,
    froberg_check,
    is_fat_forest,
    is_pure_shellable,
    is_valid_shelling,
    is_vertex_decomposable,
    verify_fat_forest_order,
)


def C(n, facets):
    return make_complex(n, [mask_of(f) for f in facets])


TWO_EDGES = C(4, [(1, 2), (3, 4)])
OCTA = clique_complex(cycle_square(6))
WITNESSES = Path(__file__).parent / "data" / "structure_witnesses.json"


def test_fat_forest_cases():
    assert is_fat_forest(clique_complex(path(6))).holds  # trees
    assert is_fat_forest(clique_complex(star(7))).holds
    assert is_fat_forest(simplex_complex(5)).holds
    assert is_fat_forest(irrelevant_complex(2)).holds
    assert is_fat_forest(TWO_EDGES).holds  # disjoint pieces allowed
    assert not is_fat_forest(OCTA).holds
    assert not is_fat_forest(clique_complex(cycle(4))).holds
    assert not is_fat_forest(void_complex(3)).holds
    # a disconnected-then-bridged example that needs the right insertion order
    bridged = C(5, [(1,), (3,), (1, 2, 3)])
    # facets are maximalized so this is really [(1,2,3)]; build a genuine case
    chain = C(5, [(1, 2), (4, 5), (2, 3, 4)])
    assert is_fat_forest(chain).holds


def test_fat_forest_witness_replay_and_hilbert():
    for c in (clique_complex(path(6)), clique_complex(path_square(7)), cover_complex(path(6), 3), TWO_EDGES):
        v = is_fat_forest(c)
        assert v.holds
        order, decomp = v.witness
        assert verify_fat_forest_order(c, order) == decomp
        assert fat_forest_hilbert(decomp, c.n) == hilbert_from_fvector(f_vector(c), c.n)
    # an invalid order is rejected, and so is the empty order of a void complex
    c4 = clique_complex(cycle(4))
    assert verify_fat_forest_order(c4, list(c4.facets)) is None
    assert verify_fat_forest_order(void_complex(3), []) is None


def test_fat_forest_guard():
    big = cover_complex(path(9), 2)  # 28 facets
    with pytest.raises(GuardExceeded):
        is_fat_forest(big)
    assert is_fat_forest(big, override=True).holds in (True, False)


def test_quasi_forest_test_matches_the_search():
    # Herzog-Hibi-Zheng: fat forests (quasi-forests) are exactly the clique
    # complexes of chordal graphs; the search alone is the reference here
    def search_finds_order(c):
        facets = list(c.facets)
        return _facet_order(facets, lambda i, _, placed: single_maximal_overlap(facets[i], placed) is not None) is not None

    rng = random.Random(20261020)
    corpus = []
    for _ in range(5000):
        n = rng.randint(1, 7)
        corpus.append(make_complex(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 9))]))
    for name, g in family_graphs(10):
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            corpus += [clique_complex(g)] + ([c, alexander_dual(c)] if not c.is_void else [])
    verdicts = []
    for c in corpus:
        if c.is_void or len(c.facets) > FAT_FOREST_FACET_GUARD:
            continue
        verdicts.append(_is_quasi_forest(c.facets))
        assert verdicts[-1] == search_finds_order(c), c
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9  # both verdicts are exercised


def test_fat_forest_refuses_non_quasi_forests_before_the_search():
    c = cover_complex(path(14), 4)  # 330 facets; the search alone ran for minutes
    assert is_fat_forest(c, override=True) == StructureVerdict(False)
    assert not is_fat_forest(OCTA).holds and not is_fat_forest(clique_complex(cycle(5))).holds


def test_froberg_check():
    r = froberg_check(path_square(7))
    assert r.consistent and r.chordal and r.two_linear and r.fat_forest
    r2 = froberg_check(cycle(4))
    assert r2.consistent and not r2.chordal and not r2.two_linear and not r2.fat_forest
    r3 = froberg_check(cycle_square(7))
    assert r3.consistent and not r3.chordal
    r4 = froberg_check(graph_from_edges(5, combinations(range(1, 6), 2)))  # K5: the zero ideal is trivially 2-linear
    assert r4.consistent and r4.chordal and r4.two_linear and r4.fat_forest
    r5 = froberg_check(path_square(7), GF2)
    assert r5.consistent


def test_vertex_decomposable_cases():
    assert is_vertex_decomposable(simplex_complex(4)).holds
    assert is_vertex_decomposable(irrelevant_complex(2)).holds
    assert not is_vertex_decomposable(TWO_EDGES).holds
    assert not is_vertex_decomposable(void_complex(2)).holds
    assert is_vertex_decomposable(OCTA).holds
    # duals of clique complexes of chordal graphs
    for g in (path(5), path_square(6), star(6)):
        d = alexander_dual(clique_complex(g))
        v = is_vertex_decomposable(d)
        assert v.holds and check_vd_witness(d, v.witness), g
    with pytest.raises(ValueError):
        is_vertex_decomposable(C(5, [(1, 2), (3,)]))  # not pure
    with pytest.raises(GuardExceeded):
        is_vertex_decomposable(simplex_complex(17))


def test_vd_yields_valid_shelling():
    for c in (OCTA, simplex_complex(3), alexander_dual(clique_complex(path(6))), cover_complex(path(7), 3)):
        v = is_vertex_decomposable(c)
        assert v.holds
        order = shelling_order_from_vd(c, v.witness)
        assert is_valid_shelling(c, order), c


def test_shellable_cases():
    assert is_pure_shellable(OCTA).holds
    assert not is_pure_shellable(TWO_EDGES).holds
    assert is_pure_shellable(simplex_complex(4)).holds
    assert is_pure_shellable(C(3, [(1,), (2,), (3,)])).holds  # points are shellable
    v = is_pure_shellable(clique_complex(cycle(5)))
    assert v.holds
    assert is_valid_shelling(clique_complex(cycle(5)), [clique_complex(cycle(5)).facets[i] for i in v.witness])
    with pytest.raises(ValueError):
        is_pure_shellable(C(5, [(1, 2), (3,)]))
    with pytest.raises(GuardExceeded):
        is_pure_shellable(cover_complex(path(9), 2))


def test_shelling_checker_rejects_bad_orders():
    # the 4-cycle's facets can be shelled, but not starting with opposite edges
    c4 = clique_complex(cycle(4))
    f12, f14, f23, f34 = c4.facets
    assert not is_valid_shelling(c4, [f12, f34, f23, f14])
    assert is_valid_shelling(c4, [f12, f23, f34, f14])
    assert not is_valid_shelling(c4, [f12, f23, f34])  # incomplete


def test_shelling_checker_matches_pairwise_rule():
    # random pure complexes in several facet orders, then every family
    # complex with n <= 10 in its stored order
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(300):
        n = rng.randint(3, 8)
        d = rng.randint(1, n - 1)
        c = make_complex(n, [mask_of(rng.sample(range(1, n + 1), d)) for _ in range(rng.randint(1, 10))])
        orders = [list(c.facets), list(reversed(c.facets))]
        for _ in range(3):
            orders.append(rng.sample(c.facets, len(c.facets)))
        for order in orders:
            verdicts.append(is_valid_shelling(c, order))
            assert verdicts[-1] == is_valid_shelling_pairwise(c, order), (c, order)
    for b in family_complexes(max_n=10):
        order = list(b.c.facets)
        verdicts.append(is_valid_shelling(b.c, order))
        assert verdicts[-1] == is_valid_shelling_pairwise(b.c, order), b
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8  # both verdicts are exercised


def test_shelling_pass_matches_pairwise_rule_and_restrictions():
    # pure and nonpure random complexes, three shuffled orders each
    rng = random.Random(17017)
    verdicts = Counter()
    for trial in range(3000):
        n = rng.randint(3, 9)
        size = rng.randint(1, n - 1)
        pure = trial % 2 == 0
        picks = [rng.sample(range(1, n + 1), size if pure else rng.randint(1, n - 1)) for _ in range(rng.randint(2, 12))]
        c = make_complex(n, [mask_of(p) for p in picks])
        assert is_pure(c) or not pure
        for _ in range(3):
            order = rng.sample(c.facets, len(c.facets))
            rs = shelling_restrictions(order)
            verdicts[rs is not None, is_pure(c)] += 1
            assert (rs is not None) == is_valid_shelling_pairwise(c, order), (c, order)
            if rs is not None:
                assert rs == shelling_restrictions_pairwise(order), (c, order)
    assert all(verdicts[v, p] > 500 for v in (True, False) for p in (True, False)), verdicts


def _vd_preorder(w) -> list[int]:
    """A shedding tree as its shedding vertices in preorder, 0 for a simplex
    leaf; the leaves follow from the complex."""
    if "simplex" in w:
        return [0]
    return [w["vertex"]] + _vd_preorder(w["link"]) + _vd_preorder(w["del"])


def structure_witnesses() -> dict[str, dict]:
    """The fat-forest, shelling and shedding witness (or False) of every
    family complex with n <= 10, for each search its guards admit."""
    out = {}
    for b in family_complexes(max_n=10):
        entry = {}
        for key, fn in (("fatForest", is_fat_forest), ("shellable", is_pure_shellable), ("vd", is_vertex_decomposable)):
            if key != "fatForest" and not is_pure(b.c):
                continue
            try:
                v = fn(b.c)
            except GuardExceeded:
                continue
            entry[key] = v.witness if v.holds else False
            if v.holds and key == "fatForest":
                order, decomp = v.witness
                entry[key] = [[list(vertices_of(m)) for m in order], decomp.simplex_dims, decomp.overlap_dims]
            elif v.holds and key == "vd":
                entry[key] = _vd_preorder(v.witness)
        out[b.name] = entry
    return out


def _dumps(witnesses: dict[str, dict]) -> str:
    rows = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(witnesses.items()))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_witnesses_match_golden_file():
    assert _dumps(structure_witnesses()) == WITNESSES.read_text()


if __name__ == "__main__":  # rewrite the golden witnesses: PYTHONPATH=src python tests/test_structure.py
    WITNESSES.write_text(_dumps(structure_witnesses()))
