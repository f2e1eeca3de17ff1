"""Oracles that only the tests call.

Most recompute a fast path of the package the slow, obvious way, so a test
can compare the two. The Betti oracles take none of the Hochster sum's
shortcuts: no LCM lattice, no memo, no choice of side. Their homology,
homology_all_ranks, takes none of the homology shortcuts either: no cone
test, no strong-collapse core, no clearing, no GF(2) closure for Q. The
facets of each restriction come from maximal_bruteforce, not from the
package's bitsets.maximal_masks.

The rest are independent readings of a package result: the replay of a
vertex decomposition's shedding tree (check_vd_witness), the shelling order
that tree yields (shelling_order_from_vd), both on the package's own link
and deletion of a vertex (structure._shed), and the Betti table read off the
Hilbert numerator of an s-linear ring (betti_from_linear_hilbert). Against
the vertex-decomposability search, is_vd_plain decides the property straight
from the definition, on its own link and deletion (shed_plain), with no memo
and no relabelling.

Two more keep the walks that the orbit route of resolution replaced: the
Hochster plan and sum (hochster_plan_full, hochster_sums_full) and
Reisner's sweep (reisner_sweep_full) over every member of the LCM lattice,
with no automorphism. They take the lattice from lcm_closure, the plain
closure under facet complements, never from a cover's graph. Against the
byte tables of resolution's orbit walk, orbit_walk_per_bit closes each
orbit by moving a mask one set bit at a time. Against the automorphism
search, automorphisms lists the whole group of a small graph by a plain
backtrack, with no colour refinement and no generators.

Plain readers serve the tests as well: face membership (is_face) and
adjacency (has_edge).
"""

from functools import reduce
from itertools import combinations
from operator import or_

from srlab.bitsets import iter_vertices, mask_of, sort_canonical, vertices_of
from srlab.complexes import _COVERS, SimplicialComplex, _faces_by_card, alexander_dual, all_faces, faces_of_card
from srlab.errors import VoidComplexError
from srlab.graphs import Graph, automorphism_generators
from srlab.homology import (
    RATIONALS,
    Field,
    _boundary_cols_gf2,
    _boundary_cols_signed,
    rank_gf2,
    rank_gfp,
    rank_int_exact,
)
from srlab.resolution import (
    GradedBettiTable,
    HilbertSeries,
    ReisnerVerdict,
    _core_dims,
    _read,
    _side,
    _squeezed_core,
)
from srlab.structure import _shed


def is_face(c: SimplicialComplex, sigma: int) -> bool:
    """Whether the vertex set sigma lies in some facet of c."""
    return any(sigma & ~f == 0 for f in c.facets)


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u - 1] >> (v - 1) & 1)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g, each a tuple p that maps vertex i+1 to vertex
    p[i]+1: vertices 1..n are mapped in turn, each to an unused vertex of its
    degree whose adjacency to the images so far matches its own to their
    preimages."""
    n, out, p = g.n, [], []
    degree = [a.bit_count() for a in g.adj]

    def grow(used: int) -> None:
        v = len(p)
        if v == n:
            return out.append(tuple(p))
        for c in range(n):
            if not used >> c & 1 and degree[c] == degree[v]:
                if all(has_edge(g, u + 1, v + 1) == has_edge(g, p[u] + 1, c + 1) for u in range(v)):
                    p.append(c)
                    grow(used | 1 << c)
                    p.pop()

    grow(0)
    return out


def maximal_bruteforce(masks) -> list[int]:
    """The inclusion-maximal masks, deduplicated, each compared with every
    other; ordered by descending cardinality, ties in order of first
    occurrence, as bitsets.maximal_masks promises."""
    uniq = list(dict.fromkeys(masks))
    tops = [m for m in uniq if not any(m != k and m & k == m for k in uniq)]
    return sorted(tops, key=lambda m: -m.bit_count())


def shed_plain(facets: frozenset[int], v: int) -> tuple[frozenset[int], frozenset[int]]:
    """The facets of the link and of the deletion of vertex v, from the
    definitions: the link keeps the facets through v, less v; the deletion
    keeps the maximal sets among all facets less v."""
    b = 1 << (v - 1)
    return frozenset(f ^ b for f in facets if f & b), frozenset(maximal_bruteforce([f & ~b for f in facets]))


def is_vd_plain(facets: frozenset[int]) -> bool:
    """Vertex decomposability of a pure, nonempty facet set, from the
    definition: a simplex, or a vertex whose deletion is pure of the same
    dimension and whose link and deletion are both vertex decomposable."""
    if len(facets) == 1:
        return True
    top = max(f.bit_count() for f in facets)
    for v in iter_vertices(reduce(or_, facets)):
        link, rest = shed_plain(facets, v)
        if all(f.bit_count() == top for f in rest) and is_vd_plain(link) and is_vd_plain(rest):
            return True
    return False


def minimal_nonfaces_bruteforce(c: SimplicialComplex) -> tuple[int, ...]:
    """Levelwise scan over all subsets."""
    if c.is_void:
        raise VoidComplexError("void complex")
    out = []
    for card in range(1, c.n + 1):
        for combo in combinations(range(1, c.n + 1), card):
            m = mask_of(combo)
            if is_face(c, m):
                continue
            if all(is_face(c, m ^ (1 << (v - 1))) for v in combo):
                out.append(m)
    return sort_canonical(out)


def find_chordless_cycle_bruteforce(g: Graph) -> tuple[int, ...] | None:
    """A chordless cycle of length at least 4 by exhaustive induced-cycle search, or None; for is_chordal."""
    for size in range(4, g.n + 1):
        for combo in combinations(range(1, g.n + 1), size):
            cyc = _as_induced_cycle(g, combo)
            if cyc is not None:
                return cyc
    return None


def _as_induced_cycle(g: Graph, verts: tuple[int, ...]) -> tuple[int, ...] | None:
    mask = mask_of(verts)
    for v in verts:
        if (g.adj[v - 1] & mask).bit_count() != 2:
            return None
    # trace it; connectivity check comes free
    start = verts[0]
    cyc = [start]
    prev, cur = 0, start
    for _ in range(len(verts) - 1):
        nxt = None
        for u in iter_vertices(g.adj[cur - 1] & mask):
            if u != prev:
                nxt = u
                break
        if nxt is None or nxt == start:
            return None
        cyc.append(nxt)
        prev, cur = cur, nxt
    if not has_edge(g, cyc[-1], start) or len(cyc) != len(verts):
        return None
    return tuple(cyc)


def boundary_matrix(c: SimplicialComplex, i: int) -> list[list[int]]:
    """Dense signed boundary matrix from i-faces to (i-1)-faces.

    Rows are indexed by (i-1)-faces and columns by i-faces, both in canonical
    order; signs follow the alternating convention on ascending vertex lists.
    For i = 0 this is the all-ones augmentation row; for i = -1 the matrix
    has no rows.
    """
    if c.is_void:
        raise VoidComplexError("void complex has no chain complex")
    d = c.dim()
    if not -1 <= i <= d:
        raise ValueError(f"need -1 <= i <= dim = {d}, got {i}")
    if i == -1:
        return []
    lower = faces_of_card(c, i)
    upper = faces_of_card(c, i + 1)
    idx = {m: r for r, m in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for col, m in enumerate(upper):
        for pos, v in enumerate(vertices_of(m)):
            mat[idx[m ^ (1 << (v - 1))]][col] = 1 if pos % 2 == 0 else -1
    return mat


def homology_all_ranks(facets, field: Field) -> tuple[int, ...]:
    """Reduced homology dims (H~_-1 .. H~_d) of a facet list from a rank over
    field of every boundary map: H~_i = f_i - rank d_i - rank d_{i+1}."""
    if not facets:
        return ()
    by = _faces_by_card(facets)
    top = max(by)

    def rank(c: int) -> int:
        if field.p == 2:
            return rank_gf2(_boundary_cols_gf2(by[c - 1], by[c]))
        cols = _boundary_cols_signed(by[c - 1], by[c])
        return rank_int_exact(cols) if field.p is None else rank_gfp(cols, field.p)

    ranks = {c: rank(c) for c in range(1, top + 1)}
    return tuple(len(by[c]) - ranks.get(c, 0) - ranks.get(c + 1, 0) for c in range(top + 1))


def betti_direct(c: SimplicialComplex, field: Field) -> dict[tuple[int, int], int]:
    """Hochster's formula read literally: c restricted to each of the 2^n subsets W,
    beta_{i,j} = sum over |W| = j of dim H~_{j-i-1}(c restricted to W)."""
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << c.n):
        j = w.bit_count()
        dims = homology_all_ranks(maximal_bruteforce(f & w for f in c.facets), field)
        for idx, val in enumerate(dims):  # idx is the degree d plus one
            if val:
                key = (j - idx, j)
                entries[key] = entries.get(key, 0) + val
    return entries


def betti_dual_links(c: SimplicialComplex, field: Field) -> dict[tuple[int, int], int]:
    """Hochster's formula through Alexander duality: each face u of c^dual adds
    dim H~_{i-1}(lk u) to beta_{i,n-|u|}; the empty W adds beta_{0,0} = 1."""
    dual = alexander_dual(c)
    entries = {(0, 0): 1}
    by = all_faces(dual, override=True)
    for card in sorted(by):
        for u in by[card]:
            linkf = [f ^ u for f in dual.facets if f & u == u]
            for idx, val in enumerate(homology_all_ranks(linkf, field)):
                if val:
                    key = (idx + 1, c.n - card)
                    entries[key] = entries.get(key, 0) + val
    return entries


def is_valid_shelling_pairwise(c: SimplicialComplex, order: list[int]) -> bool:
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


def shelling_restrictions_pairwise(order: list[int]) -> list[int]:
    """The restriction of each facet of an order: the vertices v of F_j such
    that F_j minus v lies in some earlier facet."""
    out = []
    for j, f in enumerate(order):
        r = 0
        for v in vertices_of(f):
            b = 1 << (v - 1)
            if any(f & ~b & ~p == 0 for p in order[:j]):
                r |= b
        out.append(r)
    return out


def check_vd_witness(c: SimplicialComplex, witness) -> bool:
    """Replay a shedding tree against c; independent of the search."""

    def rec(facets: tuple[int, ...], w) -> bool:
        if "simplex" in w:
            return len(facets) == 1 and set(vertices_of(facets[0])) == set(w["simplex"])
        linkf, delf = _shed(facets, w["vertex"])
        if not linkf:
            return False
        d1 = facets[0].bit_count()
        if any(f.bit_count() != d1 for f in facets + delf):
            return False
        return rec(linkf, w["link"]) and rec(delf, w["del"])

    return bool(c.facets) and rec(tuple(c.facets), witness)


def shelling_order_from_vd(c: SimplicialComplex, witness) -> list[int]:
    """Build a shelling order from a shedding tree: deletion facets first,
    then the cone of a shelling of the link."""

    def rec(facets: tuple[int, ...], w) -> list[int]:
        if "simplex" in w:
            return [facets[0]]
        b = 1 << (w["vertex"] - 1)
        linkf, delf = _shed(facets, w["vertex"])
        return rec(delf, w["del"]) + [m | b for m in rec(linkf, w["link"])]

    return rec(tuple(c.facets), witness)


def betti_from_linear_hilbert(h: HilbertSeries, s: int, field: Field = RATIONALS) -> GradedBettiTable:
    """Read the Betti table off a Hilbert numerator, assuming s-linearity.

    The numerator of an s-linear quotient is 1 - b_1 t^s + b_2 t^{s+1} - ...;
    any other sign or support pattern raises ValueError.
    """
    num = h.numerator
    if not num or num[0] != 1:
        raise ValueError(f"numerator must have constant term 1: {num}")
    entries = {(0, 0): 1}
    if len(num) == 1:
        return GradedBettiTable(entries, field, h.denom_power)
    if s < 1:
        raise ValueError("generator degree s must be >= 1")
    if any(num[j] != 0 for j in range(1, min(s, len(num)))):
        raise ValueError(f"numerator has support below degree {s}: {num}")
    ended = False
    for j in range(s, len(num)):
        i = j - s + 1
        b = (-1) ** i * num[j]
        if b < 0:
            raise ValueError(f"coefficient of t^{j} violates the s-linear sign pattern: {num}")
        if b == 0:
            ended = True
            continue
        if ended:
            raise ValueError(f"gap in numerator support is inconsistent with s-linearity: {num}")
        entries[(i, j)] = b
    return GradedBettiTable(entries, field, h.denom_power)


def lcm_closure(facets, n: int) -> set[int]:
    """The empty set and every union of the complements of the facets, by
    closing the set under one complement at a time, whatever the facets'
    provenance."""
    full = (1 << n) - 1
    masks = {0}
    for f in facets:
        masks |= {w | (full ^ f) for w in masks}
    return masks


def orbit_walk_per_bit(members, a: SimplicialComplex, b: SimplicialComplex):
    """One (member, orbit size) per orbit of the members under the generators
    of Aut(G), G the graph recorded behind a or b: each generator moves a mask
    one set bit at a time, and an orbit is named by the member whose
    complement comes first in (cardinality, canonical vertex tuple) order."""
    record = _COVERS.get(a) or _COVERS.get(b)
    gens = [{1 << i: 1 << j for i, j in enumerate(p)} for p in automorphism_generators(record[0])] if record else []
    full = (1 << a.n) - 1
    seen: set[int] = set()
    out = []
    for w in members:
        if w in seen:
            continue
        seen.add(w)
        orbit = [w]
        for x in orbit:
            for gen in gens:
                y = 0
                for v in iter_vertices(x):
                    y |= gen[1 << (v - 1)]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append((min(orbit, key=lambda u: ((full ^ u).bit_count(), vertices_of(full ^ u))), len(orbit)))
    return out


def hochster_plan_full(c: SimplicialComplex) -> dict[tuple[tuple[int, ...], int, bool], int]:
    """The Hochster plan of a nonvoid c with one _side read per member of the
    LCM lattice, every member of an orbit read apart: the count of members
    by (core, |W|, link)."""
    n, dual = c.n, alexander_dual(c)
    uses: dict[tuple[tuple[int, ...], int, bool], int] = {}
    for w in lcm_closure(dual.facets, n):
        facets, link = _side(c.facets, dual.facets, n, w)
        core = _squeezed_core(facets)
        if core is not None:
            uses[(core, w.bit_count(), link)] = uses.get((core, w.bit_count(), link), 0) + 1
    return uses


def hochster_sums_full(c: SimplicialComplex, fields) -> list[dict[tuple[int, int], int]]:
    """The Hochster sum of a nonvoid c over each field, from hochster_plan_full."""
    tables: list[dict[tuple[int, int], int]] = [{} for _ in fields]
    for (core, j, link), mult in hochster_plan_full(c).items():
        for field, entries in zip(fields, tables):
            for d, val in _read(_core_dims(core, field), j, link):
                entries[(j - d - 1, j)] = entries.get((j - d - 1, j), 0) + mult * val
    return tables


def reisner_sweep_full(c: SimplicialComplex, field: Field) -> ReisnerVerdict:
    """Reisner's sweep over the empty face and every intersection of facets, in
    (cardinality, canonical) order, every member of an orbit visited."""
    dual = alexander_dual(c)
    if dual.is_void:
        return ReisnerVerdict(True, field)
    full = (1 << c.n) - 1
    meets = [full ^ u for u in lcm_closure(c.facets, c.n) if u and u != full]
    meets.sort(key=lambda m: (m.bit_count(), vertices_of(m)))
    for sigma in [0, *meets]:
        u = full ^ sigma
        facets, link = _side(dual.facets, c.facets, c.n, u)
        core = _squeezed_core(facets)
        if core is None:
            continue
        degrees = [u.bit_count() - d - 3 for d, _ in _read(_core_dims(core, field), u.bit_count(), link)]
        top = max(f.bit_count() for f in c.facets if f & sigma == sigma)
        low = [i for i in degrees if i < top - sigma.bit_count() - 1]
        if low:
            return ReisnerVerdict(False, field, (vertices_of(sigma), min(low)))
    return ReisnerVerdict(True, field)
