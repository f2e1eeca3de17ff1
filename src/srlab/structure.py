"""Combinatorial structure classifiers: fat forests, vertex decomposability,
pure shellability, and the chordality / 2-linearity / fat-forest equivalence.

Every positive verdict carries a witness that an independent checker can
replay in polynomial time: a facet ordering for fat forests and shellings,
a shedding tree for vertex decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .bitsets import maximal_masks, single_maximal_overlap, vertices_of
from .complexes import SimplicialComplex, clique_complex, is_pure
from .errors import check_guard
from .graphs import Graph, is_chordal
from .homology import Field, RATIONALS
from .resolution import (
    FatForestDecomposition,
    GradedBettiTable,
    betti_hochster,
    linear_resolution_degree,
)

#: Backtracking searches refuse larger facet counts unless overridden.
FAT_FOREST_FACET_GUARD = 15
SHELLING_FACET_GUARD = 12
VD_GROUND_GUARD = 16


@dataclass(frozen=True)
class StructureVerdict:
    property_name: str
    holds: bool
    witness: Any = None
    note: str | None = None


# ---------------------------------------------------------------------------
# Fat forests


def is_fat_forest(c: SimplicialComplex, *, override: bool = False) -> StructureVerdict:
    """Search for an ordering of the facets where each simplex meets the
    union of its predecessors in a single face (possibly empty).

    The witness is the facet order together with the (simplex dim, overlap
    dim) data consumable by fat_forest_hilbert. More than
    FAT_FOREST_FACET_GUARD facets raise GuardExceeded unless override is set.
    """
    name = "fat_forest"
    if c.is_void:
        return StructureVerdict(name, False, note="void complex")
    facets = list(c.facets)
    k = len(facets)
    if k == 1:
        dims = (facets[0].bit_count() - 1,)
        return StructureVerdict(name, True, (list(facets), FatForestDecomposition(dims, ())))
    check_guard("fat-forest search", k, FAT_FOREST_FACET_GUARD, override, facets=True)
    dead: set[int] = set()

    def dfs(used_bits: int, order: list[int]) -> list[int] | None:
        if len(order) == k:
            return order
        if used_bits in dead:
            return None
        placed = [facets[i] for i in order]
        for idx in range(k):
            if used_bits >> idx & 1:
                continue
            if single_maximal_overlap(facets[idx], placed) is None:
                continue
            res = dfs(used_bits | (1 << idx), order + [idx])
            if res is not None:
                return res
        dead.add(used_bits)
        return None

    order = dfs(0, [])
    if order is None:
        return StructureVerdict(name, False)
    masks = [facets[i] for i in order]
    decomp = verify_fat_forest_order(c, masks)
    assert decomp is not None
    return StructureVerdict(name, True, (masks, decomp))


def verify_fat_forest_order(c: SimplicialComplex, order: list[int]) -> FatForestDecomposition | None:
    """Replay a facet order; returns the decomposition data or None if invalid."""
    if sorted(order) != sorted(c.facets):
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


@dataclass(frozen=True)
class FrobergReport:
    chordal: bool
    linear_degree: int | None
    two_linear: bool
    fat_forest: bool
    consistent: bool
    betti: GradedBettiTable


def froberg_check(g: Graph, field: Field = RATIONALS) -> FrobergReport:
    """Three equivalent readings of 2-linearity for the clique complex of g:
    chordality of g, a 2-linear Betti table, and the fat-forest property.

    The zero ideal (complete graph) counts as trivially 2-linear.
    """
    cc = clique_complex(g)
    cert = is_chordal(g)
    table = betti_hochster(cc, field)
    s = linear_resolution_degree(table)
    two_linear = s is not None and s in (0, 2)
    ff = is_fat_forest(cc, override=True)
    consistent = cert.chordal == two_linear == ff.holds
    return FrobergReport(cert.chordal, s, two_linear, ff.holds, consistent, table)


# ---------------------------------------------------------------------------
# Vertex decomposability


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
    name = "vertex_decomposable"
    if c.is_void:
        return StructureVerdict(name, False, note="void complex")
    if not is_pure(c):
        raise ValueError("vertex decomposability is only defined here for pure complexes")
    check_guard("vertex-decomposability", c.n, VD_GROUND_GUARD, override)
    # Memo entries are stored in canonical (dense, order-preserving) labels
    # and translated back, so isomorphic subcomplexes met under different
    # labelings share one verdict without leaking wrong vertex names.
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
        to_canon = {v: i + 1 for i, v in enumerate(verts)}
        from_canon = {i + 1: v for i, v in enumerate(verts)}
        key = tuple(sorted(sum(1 << (to_canon[v] - 1) for v in vertices_of(f)) for f in facets))
        if key in memo:
            return relabel(memo[key], from_canon)
        d1 = facets[0].bit_count()  # facet size, pure by construction
        result = None
        for v in verts:
            b = 1 << (v - 1)
            delf = tuple(sorted(maximal_masks(f & ~b for f in facets)))
            if any(f.bit_count() != d1 for f in delf):
                continue  # deletion must stay pure of the same dimension
            linkf = tuple(sorted(f ^ b for f in facets if f & b))
            wl = rec(linkf)
            if wl is None:
                continue
            wd = rec(delf)
            if wd is None:
                continue
            result = {"vertex": v, "link": wl, "del": wd}
            break
        memo[key] = relabel(result, to_canon)
        return result

    witness = rec(tuple(c.facets))
    if witness is None:
        return StructureVerdict(name, False)
    return StructureVerdict(name, True, witness)


def check_vd_witness(c: SimplicialComplex, witness) -> bool:
    """Replay a shedding tree against c; independent of the search."""

    def rec(facets: tuple[int, ...], w) -> bool:
        if "simplex" in w:
            return len(facets) == 1 and set(vertices_of(facets[0])) == set(w["simplex"])
        v = w["vertex"]
        b = 1 << (v - 1)
        if not any(f & b for f in facets):
            return False
        d1 = facets[0].bit_count()
        if any(f.bit_count() != d1 for f in facets):
            return False
        delf = tuple(sorted(maximal_masks(f & ~b for f in facets)))
        if any(f.bit_count() != d1 for f in delf):
            return False
        linkf = tuple(sorted(f ^ b for f in facets if f & b))
        return rec(linkf, w["link"]) and rec(delf, w["del"])

    return bool(c.facets) and rec(tuple(c.facets), witness)


def shelling_order_from_vd(c: SimplicialComplex, witness) -> list[int]:
    """Build a shelling order from a shedding tree: deletion facets first,
    then the cone of a shelling of the link."""

    def rec(facets: tuple[int, ...], w) -> list[int]:
        if "simplex" in w:
            return [facets[0]]
        v = w["vertex"]
        b = 1 << (v - 1)
        delf = tuple(sorted(maximal_masks(f & ~b for f in facets)))
        linkf = tuple(sorted(f ^ b for f in facets if f & b))
        return rec(delf, w["del"]) + [m | b for m in rec(linkf, w["link"])]

    return rec(tuple(c.facets), witness)


# ---------------------------------------------------------------------------
# Pure shellability


def is_valid_shelling(c: SimplicialComplex, order: list[int]) -> bool:
    """Check a facet order: each facet must meet the union of its
    predecessors in a pure subcomplex of codimension one, which amounts to
    every pairwise overlap extending to one of size |facet| - 1."""
    if sorted(order) != sorted(c.facets) or not order:
        return False
    for i in range(1, len(order)):
        fi = order[i]
        want = fi.bit_count() - 1
        for j in range(i):
            x = fi & order[j]
            if not any((x & ~(fi & order[l]) == 0) and (fi & order[l]).bit_count() == want for l in range(i)):
                return False
    return True


def is_pure_shellable(c: SimplicialComplex, *, override: bool = False) -> StructureVerdict:
    """Backtracking over facet orderings with subset memoization; candidates
    are tried by descending overlap with the already-placed prefix.

    More than SHELLING_FACET_GUARD facets raise GuardExceeded unless override
    is set.
    """
    name = "pure_shellable"
    if c.is_void:
        return StructureVerdict(name, False, note="void complex")
    if not is_pure(c):
        raise ValueError("shellability is only tested here for pure complexes")
    facets = list(c.facets)
    k = len(facets)
    if k == 1:
        return StructureVerdict(name, True, [0])
    check_guard("shelling search", k, SHELLING_FACET_GUARD, override, facets=True)
    want = facets[0].bit_count() - 1
    dead: set[int] = set()

    def can_place(idx: int, placed: list[int]) -> bool:
        fi = facets[idx]
        overlaps = [fi & p for p in placed]
        for x in overlaps:
            if not any(x & ~y == 0 and y.bit_count() == want for y in overlaps):
                return False
        return True

    def dfs(used_bits: int, order: list[int]) -> list[int] | None:
        if len(order) == k:
            return order
        if used_bits in dead:
            return None
        placed = [facets[i] for i in order]
        union = 0
        for p in placed:
            union |= p
        cands = []
        for idx in range(k):
            if used_bits >> idx & 1:
                continue
            if not order or can_place(idx, placed):
                cands.append(((facets[idx] & union).bit_count(), -idx))
        for _, negidx in sorted(cands, reverse=True):
            idx = -negidx
            res = dfs(used_bits | (1 << idx), order + [idx])
            if res is not None:
                return res
        dead.add(used_bits)
        return None

    order = dfs(0, [])
    if order is None:
        return StructureVerdict(name, False)
    assert is_valid_shelling(c, [facets[i] for i in order])
    return StructureVerdict(name, True, order)
