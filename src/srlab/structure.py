"""Combinatorial structure classifiers: fat forests, vertex decomposability,
pure shellability, and the chordality / 2-linearity / fat-forest equivalence.

Every positive verdict carries a witness that an independent checker can
replay in polynomial time: a facet ordering for fat forests and shellings,
a shedding tree for vertex decompositions. Fat forests and shellings share
one backtracking search over facet orders (_facet_order); each witness has
one step rule, used by both its search and its replay: a single maximal
overlap for fat forests, and for shellings bitsets.restriction on the
vertex -> facet incidence table, which makes the replay of a shelling O(d)
big-int operations per facet of size d. The fat-forest search
only runs on clique complexes of chordal graphs (_is_quasi_forest), the
complexes that have such an order. Link and deletion of a vertex come from
one helper, _shed, which the tests' replay of a shedding tree also uses.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .bitsets import (
    facet_columns,
    iter_vertices,
    maximal_masks,
    restriction,
    shelling_restrictions,
    single_maximal_overlap,
    vertices_of,
)
from .complexes import SimplicialComplex, clique_complex, is_pure
from .errors import check_guard
from .graphs import Graph, is_chordal
from .homology import Field, RATIONALS
from .resolution import (
    FatForestDecomposition,
    _squeezed,
    betti_hochster,
    linear_resolution_degree,
)

#: Backtracking searches refuse larger facet counts unless overridden.
FAT_FOREST_FACET_GUARD = 15
SHELLING_FACET_GUARD = 12
VD_GROUND_GUARD = 16


class StructureVerdict(NamedTuple):
    holds: bool
    witness: Any = None


def _facet_order(facets: list[int], fits, prefer=None) -> list[int] | None:
    """Indices of an order of facets in which each facet fits onto the facets
    placed before it, or None if there is none. fits(i, used, placed) is
    asked of facet i, with used the mask of the placed indices and placed
    their facets in order.

    Backtracking tries the unplaced facets that fit in index order, stably
    sorted by prefer(facet, placed) descending when prefer is given. A set of
    placed facets with no completion is remembered as dead, since whether
    the rest can follow depends only on that set.
    """
    k = len(facets)
    dead: set[int] = set()

    def dfs(used_bits: int, order: list[int]) -> list[int] | None:
        if len(order) == k:
            return order
        if used_bits in dead:
            return None
        placed = [facets[i] for i in order]
        cands = [i for i in range(k) if not used_bits >> i & 1 and fits(i, used_bits, placed)]
        if prefer is not None:
            cands.sort(key=lambda i: -prefer(facets[i], placed))
        for idx in cands:
            res = dfs(used_bits | (1 << idx), order + [idx])
            if res is not None:
                return res
        dead.add(used_bits)
        return None

    return dfs(0, [])


# ---------------------------------------------------------------------------
# Fat forests


def _is_quasi_forest(facets) -> bool:
    """Whether the facets are the clique complex of a chordal graph, their
    1-skeleton on the vertices they use.

    These are the quasi-forests of Herzog-Hibi-Zheng (2004): exactly the
    complexes with a fat-forest order. Polynomial in the facet count.
    """
    squeezed = _squeezed(facets)
    adj = [0] * max(squeezed).bit_length()  # the largest mask holds the top vertex
    for f in squeezed:
        for v in iter_vertices(f):
            adj[v - 1] |= f
    g = Graph(len(adj), tuple(a & ~(1 << i) for i, a in enumerate(adj)))
    return is_chordal(g) and set(clique_complex(g).facets) == set(squeezed)


def is_fat_forest(c: SimplicialComplex, *, override: bool = False) -> StructureVerdict:
    """Search for an ordering of the facets where each simplex meets the
    union of its predecessors in a single face (possibly empty).

    The witness is the facet order together with the (simplex dim, overlap
    dim) data consumable by fat_forest_hilbert. More than
    FAT_FOREST_FACET_GUARD facets raise GuardExceeded unless override is set.
    A complex that is not the clique complex of a chordal graph has no such
    order (_is_quasi_forest) and is refused in polynomial time before the
    search. On a quasi-forest the search can still visit exponentially many
    sets of placed facets before it finds an order.
    """
    if c.is_void:
        return StructureVerdict(False)
    facets = list(c.facets)
    check_guard("fat-forest search", len(facets), FAT_FOREST_FACET_GUARD, override, facets=True)
    if not _is_quasi_forest(facets):
        return StructureVerdict(False)
    order = _facet_order(facets, lambda i, _, placed: single_maximal_overlap(facets[i], placed) is not None)
    assert order is not None, "a quasi-forest has a fat-forest order"
    masks = [facets[i] for i in order]
    decomp = verify_fat_forest_order(c, masks)
    assert decomp is not None
    return StructureVerdict(True, (masks, decomp))


def verify_fat_forest_order(c: SimplicialComplex, order: list[int]) -> FatForestDecomposition | None:
    """Replay a facet order; returns the decomposition data or None if invalid."""
    if not order or sorted(order) != sorted(c.facets):
        return None
    dims = [order[0].bit_count() - 1]
    overlaps = []
    for j in range(1, len(order)):
        u = single_maximal_overlap(order[j], order[:j])
        if u is None:
            return None
        dims.append(order[j].bit_count() - 1)
        overlaps.append(u.bit_count() - 1)
    return FatForestDecomposition(tuple(dims), tuple(overlaps))


# ---------------------------------------------------------------------------
# Chordality / linearity / fat-forest equivalence


class FrobergReport(NamedTuple):
    chordal: bool
    linear_degree: int | None
    two_linear: bool
    fat_forest: bool
    consistent: bool


def froberg_check(g: Graph, field: Field = RATIONALS) -> FrobergReport:
    """Three equivalent readings of 2-linearity for the clique complex of g:
    chordality of g, a 2-linear Betti table, and the fat-forest property.

    The zero ideal (complete graph) counts as trivially 2-linear.
    """
    cc = clique_complex(g)
    chordal = is_chordal(g)
    s = linear_resolution_degree(betti_hochster(cc, field))
    two_linear = s is not None and s in (0, 2)
    ff = is_fat_forest(cc, override=True)
    return FrobergReport(chordal, s, two_linear, ff.holds, chordal == two_linear == ff.holds)


# ---------------------------------------------------------------------------
# Vertex decomposability


def _shed(facets, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The facets of the link and of the deletion of vertex v, each sorted."""
    b = 1 << (v - 1)
    link = tuple(sorted([f ^ b for f in facets if f & b]))
    return link, tuple(sorted(maximal_masks([f & ~b for f in facets])))


def is_vertex_decomposable(c: SimplicialComplex, *, override: bool = False) -> StructureVerdict:
    """Recursive test for pure complexes: a simplex qualifies, otherwise some
    vertex must have a vertex-decomposable link and a vertex-decomposable
    deletion that stays pure of the same dimension.

    The witness is a shedding tree of nested {"vertex", "link", "del"} nodes
    with {"simplex": facet} leaves. For pure complexes the link of a vertex
    is automatically pure of one lower dimension, so no separate bookkeeping
    for the link is needed. A ground set above VD_GROUND_GUARD raises
    GuardExceeded unless override is set.
    """
    if c.is_void:
        return StructureVerdict(False)
    if not is_pure(c):
        raise ValueError("vertex decomposability is only defined here for pure complexes")
    check_guard("vertex-decomposability", c.n, VD_GROUND_GUARD, override)
    # Memo entries are keyed by the facets relabelled order-preserving onto
    # their own support (_squeezed), with witnesses stored in those labels
    # and translated back, so translated copies of one subcomplex share one
    # verdict without leaking wrong vertex names.
    memo: dict[tuple[int, ...], Any] = {}

    def relabel(w, m: dict[int, int]):
        if w is None:
            return None
        if "simplex" in w:
            return {"simplex": sorted(m[v] for v in w["simplex"])}
        return {"vertex": m[w["vertex"]], "link": relabel(w["link"], m), "del": relabel(w["del"], m)}

    def rec(facets: tuple[int, ...]):
        if len(facets) == 1:
            return {"simplex": list(vertices_of(facets[0]))}
        support = 0
        for f in facets:
            support |= f
        verts = vertices_of(support)
        key = _squeezed(facets)
        from_canon = dict(enumerate(verts, 1))
        if key in memo:
            return relabel(memo[key], from_canon)
        d1 = facets[0].bit_count()  # facet size, pure by construction
        result = None
        for v in verts:
            linkf, delf = _shed(facets, v)
            if any(f.bit_count() != d1 for f in delf):
                continue  # deletion must stay pure of the same dimension
            wl = rec(linkf)
            if wl is None:
                continue
            wd = rec(delf)
            if wd is None:
                continue
            result = {"vertex": v, "link": wl, "del": wd}
            break
        memo[key] = relabel(result, {v: i for i, v in from_canon.items()})
        return result

    witness = rec(tuple(c.facets))
    if witness is None:
        return StructureVerdict(False)
    return StructureVerdict(True, witness)


# ---------------------------------------------------------------------------
# Pure shellability


def _overlap(f: int, placed: list[int]) -> int:
    union = 0
    for p in placed:
        union |= p
    return (f & union).bit_count()


def is_valid_shelling(c: SimplicialComplex, order: list[int]) -> bool:
    """Check a facet order: each facet must meet the union of its
    predecessors in a pure subcomplex of codimension one, in one pass of
    O(d) big-int operations per facet of size d
    (bitsets.shelling_restrictions)."""
    if sorted(order) != sorted(c.facets) or not order:
        return False
    return shelling_restrictions(order) is not None


def is_pure_shellable(c: SimplicialComplex, *, override: bool = False) -> StructureVerdict:
    """Backtracking over facet orderings with subset memoization; candidates
    are tried by descending overlap with the already-placed prefix.

    More than SHELLING_FACET_GUARD facets raise GuardExceeded unless override
    is set.
    """
    if c.is_void:
        return StructureVerdict(False)
    if not is_pure(c):
        raise ValueError("shellability is only tested here for pure complexes")
    facets = list(c.facets)
    check_guard("shelling search", len(facets), SHELLING_FACET_GUARD, override, facets=True)
    col = facet_columns(facets)
    order = _facet_order(facets, lambda i, used, _: restriction(facets[i], col, used) is not None, _overlap)
    if order is None:
        return StructureVerdict(False)
    assert is_valid_shelling(c, [facets[i] for i in order])
    return StructureVerdict(True, order)
