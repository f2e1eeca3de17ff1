import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boundary_matrix, homology_all_ranks
from srlab import homology
from srlab.bitsets import mask_of
from srlab.complexes import (
    _faces_by_card,
    alexander_dual,
    clique_complex,
    cover_complex,
    f_vector,
    irrelevant_complex,
    join,
    make_complex,
    simplex_complex,
    void_complex,
)
from srlab.errors import VoidComplexError
from srlab.graphs import cycle, cycle_square, path, points
from srlab.homology import (
    GF2,
    RATIONALS,
    Field,
    _boundary_cols_signed,
    homology_dims_from_facets,
    parse_field,
    rank_gf2,
    rank_gfp,
    rank_int_exact,
)
from srlab.resolution import is_cm_reisner


def C(n, facets):
    return make_complex(n, [mask_of(f) for f in facets])


C4 = C(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
OCTA = clique_complex(cycle_square(6))
RP2 = C(
    6,
    [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)],
)


def test_field_parsing_and_validation():
    assert str(RATIONALS) == "Q" and str(GF2) == "GF(2)"
    assert parse_field("Q") == RATIONALS
    assert parse_field("gf(7)") == Field(7)
    assert parse_field("GF2") == GF2
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2**31 + 11)
    with pytest.raises(ValueError):
        parse_field("R")


def test_field_replace_runs_the_constructor_checks():
    assert GF2._replace(p=3) == Field(3) and Field._make([5]) == Field(5)
    with pytest.raises(ValueError):
        GF2._replace(p=4)
    with pytest.raises(ValueError):
        Field._make([1])


def test_prime_check_matches_sympy():
    from sympy import isprime

    assert all(homology._is_prime(p) == isprime(p) for p in range(30001))
    assert not any(homology._is_prime(p) for p in (2047, 1373653, 25326001))  # strong pseudoprimes
    assert homology._is_prime(2**31 - 1) and Field(2**31 - 1).p == 2**31 - 1


def test_boundary_matrix_shapes_and_signs():
    m0 = boundary_matrix(C4, 0)
    assert m0 == [[1, 1, 1, 1]]  # augmentation row
    m1 = boundary_matrix(C4, 1)
    assert len(m1) == 4 and len(m1[0]) == 4
    assert all(sorted(x for x in col if x) == [-1, 1] for col in zip(*m1))
    # the 4x4 incidence matrix of a 4-cycle has rank 3
    assert rank_int_exact(_sparse_cols(m1)) == 3
    assert boundary_matrix(C4, -1) == []
    with pytest.raises(ValueError):
        boundary_matrix(C4, 2)
    with pytest.raises(VoidComplexError):
        boundary_matrix(void_complex(2), 0)


def test_chain_condition_dd_zero():
    for c in (OCTA, RP2, cover_complex(path(6), 3)):
        top = int(c.dim())
        for i in range(1, top + 1):
            a = boundary_matrix(c, i - 1)
            b = boundary_matrix(c, i)
            prod = [[sum(a[r][k] * b[k][s] for k in range(len(b))) for s in range(len(b[0]))] for r in range(len(a))]
            assert all(all(x == 0 for x in row) for row in prod), (c, i)


def _rank_fraction_oracle(rows):
    """Plain Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


def _sparse_cols(rows):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def test_rank_engines_against_fraction_oracle():
    rng = random.Random(1234)
    for trial in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        want = _rank_fraction_oracle(rows)
        cols = _sparse_cols(rows)
        assert rank_int_exact(cols) == want, rows
        # GF(p) rank is at most the rational rank
        assert rank_gfp(cols, 5) <= want
        gf2cols = [sum(1 << i for i in range(nr) if rows[i][j] % 2) for j in range(nc)]
        assert rank_gf2(gf2cols) == _rank_modp_oracle(rows, 2), rows
    for p in (3, 5, 7):
        for trial in range(40):  # factors with entries up to +-p give entries that are multiples of p
            rows = _low_rank_product(rng, range(-p, p + 1), range(-p, p + 1))
            assert rank_gfp(_sparse_cols(rows), p) == _rank_modp_oracle(rows, p), (p, rows)
    # all entries even, so no +-1 anywhere: every pivot over Q scales the rows it updates
    for trial in range(30):
        rows = _low_rank_product(rng, (0, 2, -2), (0, 1, -1, 3, -3))
        assert rank_int_exact(_sparse_cols(rows)) == _rank_fraction_oracle(rows), rows
    for trial in range(20):
        rows = _low_rank_product(rng, (0, 2, -2, 6, -6), (0, 1, -1, 3, -3, 5), nr=30, nc=30, k=rng.randint(1, 12))
        assert rank_int_exact(_sparse_cols(rows)) == _rank_fraction_oracle(rows), trial


def _low_rank_product(rng, left, right, nr=None, nc=None, k=None):
    """A random product of an nr x k and a k x nc matrix, so its rank is at most k."""
    nr, nc, k = nr or rng.randint(1, 8), nc or rng.randint(1, 8), k or rng.randint(1, 5)
    a = [[rng.choice(left) for _ in range(k)] for _ in range(nr)]
    b = [[rng.choice(right) for _ in range(nc)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_rank_engines_against_sympy_on_boundary_maps():
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF, QQ, ZZ

    c = cover_complex(cycle(10), 3)
    for i in range(int(c.dim()) + 1):
        rows = boundary_matrix(c, i)
        dm = sympy_matrices.DomainMatrix.from_list(rows, ZZ)
        cols = _sparse_cols(rows)
        assert rank_int_exact(cols) == dm.convert_to(QQ).rank(), i
        for p in (3, 5):
            assert rank_gfp(cols, p) == dm.convert_to(GF(p)).rank(), (i, p)


def _rank_modp_oracle(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank, r = 0, 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


def test_known_homology_profiles():
    assert homology_dims_from_facets(C4.facets, RATIONALS) == (0, 0, 1)  # circle
    assert homology_dims_from_facets(OCTA.facets, RATIONALS) == (0, 0, 0, 1)  # 2-sphere
    two_pts = C(2, [(1,), (2,)])
    assert homology_dims_from_facets(two_pts.facets, RATIONALS) == (0, 1)
    assert homology_dims_from_facets(irrelevant_complex(3).facets, RATIONALS) == (1,)
    assert homology_dims_from_facets(simplex_complex(4).facets, RATIONALS) == (0, 0, 0, 0, 0)
    pts5 = clique_complex(points(5))
    assert homology_dims_from_facets(pts5.facets, RATIONALS) == (0, 4)
    # profile length is dim + 2
    for c in (C4, OCTA, simplex_complex(4)):
        assert len(homology_dims_from_facets(c.facets, RATIONALS)) == int(c.dim()) + 2


def test_field_dependence_on_torsion():
    assert homology_dims_from_facets(RP2.facets, RATIONALS) == (0, 0, 0, 0)
    assert homology_dims_from_facets(RP2.facets, GF2) == (0, 0, 1, 1)
    assert homology_dims_from_facets(RP2.facets, Field(3)) == (0, 0, 0, 0)
    assert homology_dims_from_facets(RP2.facets, Field(7)) == (0, 0, 0, 0)


def test_euler_characteristic_consistency(random_complexes):
    for b in random_complexes[:80]:
        fv = f_vector(b.c)
        chi = sum((-1) ** i * fv[i] for i in range(len(fv)))  # reduced: starts at the empty face
        dims = homology_dims_from_facets(b.c.facets, RATIONALS)
        chi_h = sum((-1) ** i * dims[i] for i in range(len(dims)))
        assert chi == chi_h, b.name
        dims2 = homology_dims_from_facets(b.c.facets, GF2)
        chi_h2 = sum((-1) ** i * dims2[i] for i in range(len(dims2)))
        assert chi == chi_h2, b.name


def test_gf2_bounds_rational_dims(random_complexes):
    for b in random_complexes[:80]:
        q = homology_dims_from_facets(b.c.facets, RATIONALS)
        f2 = homology_dims_from_facets(b.c.facets, GF2)
        assert all(a <= bb for a, bb in zip(q, f2)), b.name


def test_rank_nullity_accounting():
    # rank + nullity = column count for every boundary map
    for c in (C4, OCTA, RP2):
        fv = f_vector(c)
        top = int(c.dim())
        by = _faces_by_card(c.facets)
        for i in range(0, top + 1):
            cols = _boundary_cols_signed(by[i], by[i + 1])
            r = rank_int_exact([dict(col) for col in cols])
            assert r <= len(cols) and r <= len(by[i])
            assert len(cols) == fv[i + 1]


COLLAPSE_CASES = {
    "one edge": [mask_of((1, 2))],
    "two points": [mask_of((1,)), mask_of((2,))],
    "two edges": [mask_of((1, 2)), mask_of((3, 4))],
    "{empty}": [0],
    "cone over C4": [f | mask_of((5,)) for f in C4.facets],
    "RP2 with a whisker": [*RP2.facets, mask_of((1, 7))],
    "RP2 with a coned triangle": [*RP2.facets, mask_of((1, 2, 7)), mask_of((1, 3, 7)), mask_of((2, 3, 7))],
}


def test_rational_dims_match_full_exact_elimination(random_complexes, corpus):
    # every field against a rank of every boundary map, on lists that are
    # not cores too: cones, points, a whisker; each profile has dim + 2 entries
    covers = [b for b in corpus if b.name.startswith(("cover(", "dual(cover("))]
    assert covers
    inputs = [(b.name, list(b.c.facets), b.c.n) for b in random_complexes + covers]
    inputs += [(name, facets, 7) for name, facets in COLLAPSE_CASES.items()]
    for field in (RATIONALS, GF2, Field(3)):
        for name, facets, n in inputs:
            want = homology_all_ranks(facets, field)
            got = homology_dims_from_facets(facets, field)
            assert got == want, (name, field)
            assert len(got) == max(f.bit_count() for f in facets) + 1, (name, field)
            for v in range(1, n + 1):  # vertex links, as in the Reisner check
                bit = 1 << (v - 1)
                link = [f ^ bit for f in facets if f & bit]
                if link:
                    want = homology_all_ranks(link, field)
                    assert homology_dims_from_facets(link, field) == want, (name, v, field)
    assert homology_dims_from_facets(COLLAPSE_CASES["RP2 with a coned triangle"], GF2) == (0, 0, 1, 2)
    assert homology_dims_from_facets(COLLAPSE_CASES["RP2 with a coned triangle"], RATIONALS) == (0, 0, 0, 1)


RP2_PLUS_POINT = [*RP2.facets, mask_of((7,))]


def test_torsion_in_several_degrees_falls_back_to_exact_ranks():
    # GF(2) sees H~_0, H~_1 and H~_2; over Q only the extra component survives
    assert homology_dims_from_facets(RP2_PLUS_POINT, GF2) == (0, 1, 1, 1)
    assert homology_dims_from_facets(RP2_PLUS_POINT, RATIONALS) == (0, 1, 0, 0)
    assert homology_all_ranks(RP2_PLUS_POINT, RATIONALS) == (0, 1, 0, 0)


def test_cleared_profiles_match_all_ranks_on_family_cores():
    # every core that the Hochster plans of the family covers and duals with
    # n <= 11 read on a walk over every lattice member, against plain ranks of
    # every boundary map
    from conftest import family_graphs
    from oracles import hochster_plan_full

    cores = {}
    for name, g in family_graphs(11):
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            for x in (c, alexander_dual(c)):
                if not x.is_void:
                    cores.update((core, (name, k)) for core, _, _ in hochster_plan_full(x))
    assert len(cores) > 1000
    for field in (RATIONALS, GF2, Field(3)):
        for core, where in cores.items():
            assert homology_dims_from_facets(core, field) == homology_all_ranks(core, field), (where, core, field)


@pytest.mark.parametrize("name", ["RP2", "RP2 with a coned triangle", "RP2 plus a point"])
def test_cleared_profiles_match_all_ranks_with_torsion(name):
    facets = {"RP2": list(RP2.facets), "RP2 plus a point": RP2_PLUS_POINT}.get(name) or COLLAPSE_CASES[name]
    for field in (RATIONALS, GF2, Field(3)):
        want = homology_all_ranks(facets, field)
        assert homology_dims_from_facets(facets, field) == want, field
        known = {GF2: homology_dims_from_facets(facets, GF2)}  # Q from a GF(2) profile found before
        assert homology_dims_from_facets(facets, field, known) == want, field


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=10))
def test_cleared_profiles_match_all_ranks_on_random_facet_lists(facets):
    # facet lists on at most 8 vertices, nested, repeated and unsorted ones included
    for field in (RATIONALS, GF2, Field(3)):
        assert homology_dims_from_facets(facets, field) == homology_all_ranks(facets, field), field


def test_cleared_profiles_match_all_ranks_on_seeded_random_complexes():
    rng = random.Random(2109)
    for _ in range(60):
        n = rng.randint(6, 10)
        facets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(3, 12))]
        for field in (RATIONALS, GF2, Field(3)):
            assert homology_dims_from_facets(facets, field) == homology_all_ranks(facets, field), (facets, field)


def _unreachable(*args):
    raise AssertionError("this rank engine must not run")


def test_one_degree_gf2_profile_settles_q_without_exact_ranks(monkeypatch):
    c6k2 = cover_complex(cycle(6), 2)
    cm = is_cm_reisner(c6k2, RATIONALS).cm
    monkeypatch.setattr(homology, "rank_int_exact", _unreachable)
    assert homology_dims_from_facets(OCTA.facets, RATIONALS) == (0, 0, 0, 1)
    assert is_cm_reisner(c6k2, RATIONALS).cm == cm
    with pytest.raises(AssertionError):  # torsion still needs exact ranks
        homology_dims_from_facets(RP2.facets, RATIONALS)


def test_odd_prime_uses_gfp_ranks_only(monkeypatch):
    monkeypatch.setattr(homology, "rank_gf2", _unreachable)
    assert homology_dims_from_facets(RP2.facets, Field(3)) == (0, 0, 0, 0)
    assert homology_dims_from_facets(RP2_PLUS_POINT, Field(3)) == (0, 1, 0, 0)


def test_kunneth_on_joins(random_complexes):
    # reduced homology of a join is the convolution of the factors' profiles
    rng = random.Random(31)
    small = [b.c for b in random_complexes if b.c.n <= 4][:12]
    for _ in range(15):
        a, b = rng.choice(small), rng.choice(small)
        j = join(a, b)
        if j.n > 9:
            continue
        pa = homology_dims_from_facets(a.facets, RATIONALS)
        pb = homology_dims_from_facets(b.facets, RATIONALS)
        pj = homology_dims_from_facets(j.facets, RATIONALS)
        conv = [0] * (len(pa) + len(pb) - 1) if pa and pb else []
        for i, x in enumerate(pa):
            for k, y in enumerate(pb):
                conv[i + k] += x * y
        assert list(pj) == conv + [0] * (len(pj) - len(conv)), (a.facets, b.facets)


def test_package_sources_use_no_floating_point():
    """README promises integer arithmetic only: no float literal and no float(...) call."""
    found = []
    for src in sorted(Path(homology.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(src.read_text())):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            if literal or call:
                found.append(f"{src.name}:{node.lineno}")
    assert found == []
