"""Simplicial complexes with an explicit ground set 1..n, stored by facets.

Two degenerate complexes are kept distinct: the VOID complex (no faces at
all, empty facet list) and the IRRELEVANT complex (whose only face is the
empty set, facet list [0]). Alexander duality swaps the void complex with
the full simplex, so both must be representable.

All operations are pure; facet lists are kept in a canonical order (sorted
lexicographically by vertex tuple) so outputs are deterministic.

A graph gives two complexes: its cover complexes, from the independent
k-sets, and its clique complex, the Alexander dual of the degree-2 cover.
Both come with the graph recorded behind them, so their duals and
automorphisms, and where it pays their LCM lattices, come from the graph.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple

from .bitsets import (
    full_mask,
    mask_of,
    maximal_masks,
    sort_canonical,
    vertices_of,
)
from .errors import VoidComplexError, check_guard
from .graphs import Graph, independent_sets, json_int, json_vertex_lists

#: Face enumeration refuses larger ground sets unless explicitly overridden.
DEFAULT_GROUND_GUARD = 24


class SimplicialComplex(NamedTuple):
    """Facets as bitmasks over ground set 1..n. Empty facet tuple means VOID."""

    n: int
    facets: tuple[int, ...]

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == (0,)

    def dim(self) -> int:
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def facet_vertices(self) -> list[tuple[int, ...]]:
        return [vertices_of(f) for f in self.facets]


def make_complex(n: int, facets: Iterable[int]) -> SimplicialComplex:
    """Canonical complex from candidate faces; empty input gives VOID."""
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    full = full_mask(n)
    cand = list(facets)
    for f in cand:
        if f & ~full:
            raise ValueError(f"facet {vertices_of(f)} not within ground set 1..{n}")
    return SimplicialComplex(n, sort_canonical(maximal_masks(cand)))


def void_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, ())


def irrelevant_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, (0,))


def simplex_complex(n: int) -> SimplicialComplex:
    """The full simplex on 1..n."""
    return SimplicialComplex(n, (full_mask(n),))


def is_pure(c: SimplicialComplex) -> bool:
    if c.is_void:
        return True
    sizes = {f.bit_count() for f in c.facets}
    return len(sizes) == 1


# ---------------------------------------------------------------------------
# Face enumeration


def _faces_by_card(facets) -> dict[int, list[int]]:
    """Faces of a facet list bucketed by cardinality, each bucket in mask order.

    The faces are the deduplicated union of the facet power sets; facet bit
    positions need not be contiguous.
    """
    seen: set[int] = set()
    for f in facets:
        s = f
        while True:
            seen.add(s)
            if s == 0:
                break
            s = (s - 1) & f
    by: dict[int, list[int]] = {}
    for m in seen:
        by.setdefault(m.bit_count(), []).append(m)
    for bucket in by.values():
        bucket.sort()
    return by


def all_faces(c: SimplicialComplex, override: bool = False) -> dict[int, list[int]]:
    """Faces bucketed by cardinality, each bucket canonically ordered."""
    check_guard("face-enumeration", c.n, DEFAULT_GROUND_GUARD, override)
    by = _faces_by_card(c.facets)
    for bucket in by.values():
        bucket.sort(key=vertices_of)
    return by


def faces_of_card(c: SimplicialComplex, card: int, override: bool = False) -> list[int]:
    """All faces with exactly `card` vertices, canonically ordered."""
    check_guard("face-enumeration", c.n, DEFAULT_GROUND_GUARD, override)
    seen: set[int] = set()
    for f in c.facets:
        if f.bit_count() < card:
            continue
        for combo in combinations(vertices_of(f), card):
            seen.add(mask_of(combo))
    return sorted(seen, key=vertices_of)


def f_vector(c: SimplicialComplex, override: bool = False) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_d); the void complex yields the empty tuple."""
    if c.is_void:
        return ()
    check_guard("face-enumeration", c.n, DEFAULT_GROUND_GUARD, override)
    by = _faces_by_card(c.facets)
    return tuple(len(by[i]) for i in range(max(by) + 1))


# ---------------------------------------------------------------------------
# Constructions from graphs


#: The graph and degree behind each of the newest 256 complexes that
#: cover_complex returned; alexander_dual reads it.
_COVERS: dict[SimplicialComplex, tuple[Graph, int]] = {}


def _remember(memo: dict, key, value) -> None:
    """Store key -> value in memo as its newest entry, keeping the newest 256."""
    memo.pop(key, None)
    memo[key] = value
    if len(memo) > 256:
        del memo[next(iter(memo))]


def cover_complex(g: Graph, k: int) -> SimplicialComplex:
    """Complex whose facets are complements of the independent k-sets of g.

    Equivalently the facets are the vertex covers of size n-k; a set is a
    face exactly when its complement contains an independent k-set. Returns
    VOID when g has no independent k-set. The complex is recorded with
    (g, k), so that alexander_dual builds its dual from the graph. The
    independent k-sets come in lexicographic order, and complements of sets
    of one size reverse it, so reversed they are canonical.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in 1..{g.n}, got {k}")
    full = full_mask(g.n)
    c = SimplicialComplex(g.n, tuple(full ^ s for s in reversed(independent_sets(g, k))))
    _remember(_COVERS, c, (g, k))
    return c


def clique_complex(g: Graph) -> SimplicialComplex:
    """All cliques of g; isolated vertices appear as 0-dimensional facets.

    Built as the Alexander dual of the degree-2 cover: a set is a face of
    that dual exactly when it holds no independent 2-set. A graph on fewer
    than two vertices has no degree-2 cover, and its clique complex is the
    simplex (the irrelevant complex when n = 0).
    """
    if g.n < 2:
        return simplex_complex(g.n)
    return alexander_dual(cover_complex(g, 2))


# ---------------------------------------------------------------------------
# Stanley-Reisner combinatorics


def minimal_nonfaces(c: SimplicialComplex) -> tuple[int, ...]:
    """Inclusion-minimal subsets of the ground set that are not faces.

    These support the minimal generators of the face ideal. Computed as the
    minimal transversals of the facet complements, processed edge by edge.
    In each step the transversals that hit the edge e are kept; one that
    misses e grows by each v in e. Such a t|v can only be non-minimal by
    containing a kept set that holds v, and two grown sets are never nested
    unless equal, so no general antichain reduction is needed.
    """
    if c.is_void:
        raise VoidComplexError("the void complex has no face ideal here")
    full = full_mask(c.n)
    hyperedges = [full & ~f for f in c.facets]
    if any(e == 0 for e in hyperedges):
        return ()  # full simplex: no nonfaces
    trans: list[int] = [1 << (v - 1) for v in vertices_of(hyperedges[0])]
    for e in hyperedges[1:]:
        kept = [t for t in trans if t & e]
        if len(kept) == len(trans):
            continue  # every transversal already hits e
        bits = [1 << (v - 1) for v in vertices_of(e)]
        holding = {b: [s for s in kept if s & b] for b in bits}
        grown: set[int] = set()
        for t in trans:
            if t & e:
                continue
            for b in bits:
                x = t | b
                if not any(s & ~x == 0 for s in holding[b]):
                    grown.add(x)
        trans = kept + list(grown)
    return sort_canonical(trans)


def _sets_of_alpha_below(g: Graph, k: int) -> list[int]:
    """The inclusion-maximal W with alpha(g[W]) < k, by Bron-Kerbosch with
    the extended pivot that alexander_dual's docstring proves."""
    nbr = {1 << v: a for v, a in enumerate(g.adj)}  # bit of a vertex -> its neighbours
    alpha = {0: 0}
    out: list[int] = []

    def a(m: int) -> int:  # alpha(g[m]), memoized on masks for this call
        r = alpha.get(m)
        if r is None:
            b = m & -m
            r = alpha[m] = max(a(m ^ b), 1 + a(m & ~nbr[b] & ~b))
        return r

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                out.append(r)
            return
        best, rest = -1, p | x
        while rest:  # the pivot u has the most neighbours in p
            b = rest & -rest
            rest ^= b
            n_b = (nbr[b] & p).bit_count()
            if n_b > best:
                best, u = n_b, b
        z, skip = r & ~nbr[u], p & nbr[u] | u
        rest = p & ~skip if k > 2 else 0
        while rest:  # grow z = R - N[u] greedily while alpha(z) <= k-2
            b = rest & -rest
            rest ^= b
            if a(z & ~nbr[b]) < k - 2:
                z |= b
                skip |= b
        rest = p & (~skip | u)
        while rest:
            b = rest & -rest
            rest ^= b
            keep, rb, cand = nbr[b], r & ~nbr[b], (p | x) & ~nbr[b] & ~b if k > 2 else 0
            while cand:  # w stays addable to R + b iff alpha(R - N[w] - N[b]) <= k-3
                w = cand & -cand
                cand ^= w
                if a(rb & ~nbr[w]) < k - 2:
                    keep |= w
            expand(r | b, p & keep & ~b, x & keep)
            p ^= b
            x |= b

    expand(0, full_mask(g.n) if k > 1 else 0, 0)
    return out


#: The newest 256 entries c -> alexander_dual(c). A pair whose involution
#: holds is kept both ways, so the entries hold 128 such pairs.
_DUALS: dict[SimplicialComplex, SimplicialComplex] = {}


def alexander_dual(c: SimplicialComplex) -> SimplicialComplex:
    """Sets whose ground-set complements are nonfaces of c.

    Facets of the dual are complements of the minimal nonfaces. The dual of
    the void complex is the full simplex and vice versa; the operation is an
    involution. Results are memoized in _DUALS, which holds as many entries
    as the Hochster plan's memo: each field's table and Reisner's sweep ask
    for the same dual. The dual's facets are canonical and maximal, so when
    c's are too (a recorded cover's are by construction), the dual of the
    dual is c, and the memo stores that direction first.

    A complex that cover_complex built (and recorded) gets its dual from the
    graph; every other complex takes minimal_nonfaces. A set F is a nonface
    of the cover complex of (g, k) exactly when V - F holds no independent
    k-set, so the dual's facets are the maximal W with alpha(g[W]) <= k-1.
    That property is hereditary, and _sets_of_alpha_below lists them by
    Bron-Kerbosch: R satisfies it, P holds the vertices that can join R and
    are still to be tried, X those that can join R and were tried (the
    facets that contain R and one of them are listed already), and R is
    reported when P and X are empty. Since alpha(g[R + u]) is the larger of
    alpha(g[R]) and 1 + alpha(g[R - N[u]]), u can join R exactly when
    alpha(g[R - N[u]]) <= k-2.

    The pivot rule. Take u in P or X, and let Z be R - N[u] together with
    some vertices S of P - N[u] - u such that alpha(g[Z]) <= k-2 (u can join
    R, so S may be empty). Then every facet W that contains R and avoids X
    holds a vertex of P outside T = N(u) + S, so branching on those vertices
    alone finds every such W. For W - R lies in P; if it lay in T, then
    W - N[u] would lie in Z, so alpha(g[W - N[u]]) <= k-2 and u could join
    W. W is maximal, so u would be in W - R, which lies in T; but u is not
    in T. The branch loop moves each vertex it tried from P to X, as in
    Bron-Kerbosch, and S is grown greedily. On squared cycles and paths,
    where N(u) is small next to the sets W, S cuts the branches three- to
    fourfold. The facets are sorted canonically, so both routes give the
    same complex.
    """
    d = _DUALS.get(c)
    if d is not None:
        _remember(_DUALS, c, d)  # a hit counts as the newest
        return d
    if c.is_void:
        d = simplex_complex(c.n)
    elif c in _COVERS:
        d = SimplicialComplex(c.n, sort_canonical(_sets_of_alpha_below(*_COVERS[c])))
    else:
        mnf = minimal_nonfaces(c)
        d = void_complex(c.n) if not mnf else SimplicialComplex(c.n, sort_canonical(full_mask(c.n) ^ m for m in mnf))
    if c in _COVERS or c.facets == sort_canonical(maximal_masks(c.facets)):
        _remember(_DUALS, d, c)
    _remember(_DUALS, c, d)
    return d


def dual_fvector(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    """f-vector of the Alexander dual from the f-vector of a complex on 1..n.

    Entry i of the dual counts i-faces and equals C(n, i+1) - f_{n-i-2}.
    The empty tuple stands for the void complex on either side.
    """

    def fval(j: int) -> int:
        idx = j + 1
        return f[idx] if 0 <= idx < len(f) else 0

    h = [comb(n, i + 1) - fval(n - i - 2) for i in range(-1, n)]
    if any(x < 0 for x in h):
        raise ValueError(f"not the f-vector of a complex on 1..{n}: {f}")
    while h and h[-1] == 0:
        h.pop()
    if not h:
        return ()
    if h[0] == 0:
        raise ValueError(f"not the f-vector of a complex on 1..{n}: {f}")
    return tuple(h)


# ---------------------------------------------------------------------------
# Subcomplexes and joins


def skeleton(c: SimplicialComplex, i: int) -> SimplicialComplex:
    """All faces of dimension at most i."""
    if i < -1:
        raise ValueError("skeleton dimension must be >= -1")
    if c.is_void:
        return c
    if i >= c.dim():
        return c
    keep = faces_of_card(c, i + 1)
    keep += [f for f in c.facets if f.bit_count() <= i]
    return make_complex(c.n, keep)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join on disjoint ground sets; b's vertices are relabeled upward by a.n.

    Facets are unions of facet pairs, so joining with VOID gives VOID and
    joining with IRRELEVANT is the identity up to relabeling.
    """
    n = a.n + b.n
    return SimplicialComplex(n, sort_canonical(fa | (fb << a.n) for fa in a.facets for fb in b.facets))


# ---------------------------------------------------------------------------
# Serialization


def complex_to_json(c: SimplicialComplex) -> dict:
    return {
        "n": c.n,
        "facets": [list(vertices_of(f)) for f in c.facets],
        "void": c.is_void,
    }


def complex_from_json(obj: dict) -> SimplicialComplex:
    n = json_int(obj, "n")
    if n is None:
        raise ValueError('complex JSON needs "n" and "facets"')
    void_flag = obj.get("void", False)
    if type(void_flag) is not bool:
        raise ValueError(f'"void" must be true or false, got {void_flag!r}')
    facets = json_vertex_lists(obj, "facets", n)
    for f in facets:
        if len(set(f)) != len(f):
            raise ValueError(f"facet {f} repeats a vertex")
    c = make_complex(n, [mask_of(f) for f in facets])
    if void_flag != c.is_void:
        raise ValueError("void flag inconsistent with facet list")
    return c


def canonical_json(c: SimplicialComplex) -> str:
    """Stable serialization used for hashing and cache keys."""
    return json.dumps(complex_to_json(c), sort_keys=True, separators=(",", ":"))
