"""Hilbert series, graded Betti tables, and Cohen-Macaulay / linearity verdicts.

A Betti table is read off a certificate where there is one: when the
Alexander dual of S is pure and its stored facet order is a shelling, the
face ideal of S has linear quotients (Herzog-Hibi-Zheng 2004) and its
mapping-cone resolution is minimal (Herzog-Takayama 2002), so the table
follows from the sizes of the shelling restrictions over every field
(betti_hochster). Every other table comes from Hochster's formula: for a
complex S on 1..n and a field k,

    beta_{i,j} = sum over j-subsets W of dim_k H~_{j-i-1}(S restricted to W).

A W that is not a union of minimal nonfaces restricts to a cone (a vertex
of W lies in no minimal nonface inside W), so the sum (_hochster_sum) runs
over the LCM lattice: the empty set and every union of minimal nonfaces.

Both the Hochster sum and Reisner's criterion choose what to read for W by
one side rule (_side) on a pair (A, B = A^dual). When U = [n] minus W is a
face of B, the link of U in B is the Alexander dual of A restricted to W
inside W, so

    H~_d(A restricted to W) = H~_{|W|-d-3}(link of U in B),

and the side with the smaller top facet is read. Homology is keyed on the
squeezed core (_squeezed_core), and this is the one place where lists are
collapsed: the facet list is relabelled order-preserving onto its own
support, cut down to its strong-collapse core (_core) once for the process
per distinct list, and the core is relabelled the same way. So translated
copies of one complex, and lists with the same core, share an entry across
complexes, and a cone or a list that collapses to a point needs none. The
homology of a core is memoized once for the process (_core_dims), as
profiles by field and never as faces: each core is one chain complex,
reduced with clearing (homology.homology_dims_from_facets), and a Q profile
keeps the GF(2) profile found on the way, so GF(2) after Q enumerates no
face. Both walks below read both memos. The Hochster sum passes
(S, S^dual) and keeps, per complex, a memoized plan: its subsets grouped
by core, which every later field of S reuses. Reisner's sweep over the
faces of S passes (S^dual, S), so the link of a face sigma is read either
directly or from S^dual restricted to [n] minus sigma. A plan counts its
subsets W by (core, |W'|, link, |W|), W' the subset read for W (below),
and places the degrees d read for W' at beta_{|W|-d-1, |W|}. Both take
their subsets from _lcm_lattice: the Hochster sum from S^dual's facets,
Reisner's sweep from S's own, whose lattice members other than the empty
set and [n] are the complements of the nonempty intersections of facets.
When those facets belong to a cover of (G, k), the lattice holds the W
where every v in W has alpha(G[W - N[v]]) >= k-1, read from a table of
alpha over all 2^n vertex sets (_lattice_from_graph) whenever that bound,
n * 2^n, is below the closure's. Both read one member per orbit of Aut(G)
when cover_complex recorded a graph G behind S or S^dual (_orbit_walk):
the one with the smallest bit-reversed mask, whose complement comes first
in (cardinality, canonical) order. An automorphism maps each
restriction onto an isomorphic one, read from the same side, and the plan
of S and the sweep of S^dual still read the same members.

When B = Delta_k(G) is a recorded cover, A = B^dual restricted to W holds
the S in W with alpha(G[S]) < k, and both walks read W's fold W' in place
of W (_fold, through _reader). If u != v in W and N[v] & W lies in N[u]
(closed neighbourhoods), every face S of A restricted to W through v stays
a face when u is added: an independent set of G[S + u] through u misses v,
and swapping u for v keeps it independent inside S. So u dominates v, the
restriction strong-collapses onto its restriction to W - v, and reduced
homology agrees in every degree. The fold deletes dominated vertices one
at a time until none is left, and each distinct W' is read once per plan
or sweep. A W' that is no union of independent k-sets reads as a cone on
both sides, so no lattice test is needed.

A CM verdict tries a certificate before the sweep: a pure S whose stored
facet order is a shelling (stored_order_shells) is CM over every field.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple

from .bitsets import maximal_masks, shelling_restrictions, vertices_of
from .complexes import _COVERS, DEFAULT_GROUND_GUARD, SimplicialComplex, alexander_dual, is_pure
from .errors import VoidComplexError, check_guard
from .graphs import Graph, automorphism_generators
from .homology import Field, RATIONALS, homology_dims_from_facets, parse_field

#: Hochster summation refuses larger ground sets unless overridden.
DEFAULT_HOCHSTER_GUARD = 22


# ---------------------------------------------------------------------------
# Hilbert series


class HilbertSeries(NamedTuple):
    """numerator(t) / (1-t)^denom_power with integer coefficients."""

    numerator: tuple[int, ...]
    denom_power: int

    def to_json(self) -> dict:
        return {"numerator": list(self.numerator), "denomPower": self.denom_power}


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) if coeffs else (0,)


def _one_minus_t_pow(k: int) -> list[int]:
    return [(-1) ** j * comb(k, j) for j in range(k + 1)]


def hilbert_from_fvector(f: tuple[int, ...], n: int) -> HilbertSeries:
    """Hilbert series of the face ring from the f-vector, over (1-t)^n.

    The series is sum_i f_{i-1} t^i / (1-t)^i; the numerator is returned as
    an exact integer polynomial on the common denominator (1-t)^n.
    """
    if not f:
        raise VoidComplexError("void complex has no face ring here")
    if f[0] != 1:
        raise ValueError(f"f-vector must start with 1, got {f}")
    if len(f) - 1 > n:
        raise ValueError(f"f-vector too long for ground set {n}: {f}")
    num = [0] * (n + 1)
    for j, fj in enumerate(f):
        for a, ca in enumerate(_one_minus_t_pow(n - j)):
            num[j + a] += fj * ca
    return HilbertSeries(_trim(num), n)


# ---------------------------------------------------------------------------
# Graded Betti tables


class GradedBettiTable(NamedTuple):
    """Map (homological degree i, internal degree j) -> beta, with its field."""

    entries: dict[tuple[int, int], int]
    field: Field
    n: int

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def total(self, i: int) -> int:
        return sum(b for (ii, _), b in self.entries.items() if ii == i)

    def totals(self) -> tuple[int, ...]:
        pd = self.projective_dimension()
        return tuple(self.total(i) for i in range(pd + 1))

    def sorted_items(self) -> list[tuple[int, int, int]]:
        return [(i, j, self.entries[(i, j)]) for i, j in sorted(self.entries)]

    def to_json(self) -> dict:
        return {
            "field": str(self.field),
            "n": self.n,
            "entries": [[i, j, b] for i, j, b in self.sorted_items()],
        }

    @staticmethod
    def from_json(obj: dict) -> "GradedBettiTable":
        """The table to_json wrote. ValueError unless n and every entry [i, j, beta]
        are JSON integers with 0 <= i <= j <= n and beta >= 1, i = 0 only at
        (0, 0), and no (i, j) twice."""
        n, entries = obj["n"], {}
        if type(n) is not int:
            raise ValueError(f"table size {n!r} is not an integer")
        for e in obj["entries"]:
            if not (type(e) is list and len(e) == 3 and all(type(x) is int for x in e)):
                raise ValueError(f"Betti entry {e!r} is not three integers")
            i, j, b = e
            if not (0 <= i <= j <= n and b >= 1 and (i or not j)) or (i, j) in entries:
                raise ValueError(f"Betti entry {e!r} is out of range or repeated (n = {n})")
            entries[(i, j)] = b
        return GradedBettiTable(entries, parse_field(obj["field"]), n)


def kpolynomial(t: GradedBettiTable) -> tuple[int, ...]:
    """Alternating sums sum_i (-1)^i beta_{i,j} as a coefficient tuple in j."""
    top = max(j for _, j in t.entries)
    out = [0] * (top + 1)
    for (i, j), b in t.entries.items():
        out[j] += (-1) ** i * b
    return _trim(out)


def betti_product(a: GradedBettiTable, b: GradedBettiTable) -> GradedBettiTable:
    """Betti table of a tensor product: the two-variable convolution."""
    if a.field != b.field:
        raise ValueError("tables carry different fields")
    entries: dict[tuple[int, int], int] = {}
    for (i1, j1), b1 in a.entries.items():
        for (i2, j2), b2 in b.entries.items():
            key = (i1 + i2, j1 + j2)
            entries[key] = entries.get(key, 0) + b1 * b2
    return GradedBettiTable(entries, a.field, a.n + b.n)


# ---------------------------------------------------------------------------
# Homology of restrictions, read from either side of Alexander duality


def _squeezed(facets) -> tuple[int, ...]:
    """The facets relabelled order-preserving onto bits 0..s-1 of their s-vertex
    support, sorted. Relabelling keeps the order of masks inside the support,
    so the facets are sorted first; then each gap below the top of the
    support is closed in one pass over the list, the highest gap first.
    """
    support = 0
    for f in facets:
        support |= f
    out = sorted(facets)
    gaps = ~support & ((1 << support.bit_length()) - 1)
    while gaps:
        top = gaps.bit_length()  # the highest gap is the bits low..top-1
        low = (~gaps & ((1 << top) - 1)).bit_length()
        keep = (1 << low) - 1
        out = [(f & keep) | (f >> top << low) for f in out]
        gaps &= keep
    return tuple(out)


def _is_cone(facets) -> bool:
    """Whether the facets share a vertex; a cone has no reduced homology."""
    acc = facets[0]
    for f in facets[1:]:
        acc &= f
    return acc != 0


def _core(facets) -> list[int]:
    """The facets left after repeated rounds of strong collapses, maximal.

    A vertex v is dominated by w when every facet through v contains w;
    deleting v then keeps the homotopy type (Barmak-Minian). A round ANDs
    the facets through each vertex it checks and, in vertex order, deletes
    every vertex whose AND holds a vertex other than itself that the round
    has not deleted yet. The dominators of a deleted vertex are dominators
    of the vertices it dominates, so each deleted vertex keeps a dominator
    that survives the round, and no edge loses both ends. Only the facets
    that lost a vertex can stop being maximal, and only a vertex of such a
    facet can become dominated: every other vertex keeps its facets, and
    was not dominated the round before. So the next round checks only
    those vertices. Rounds repeat until no vertex can go.
    """
    facets = list(facets)
    check = 0
    for f in facets:
        check |= f
    while True:
        gone = 0
        while check:
            b = check & -check
            check ^= b
            meet = -1
            for f in facets:
                if f & b:
                    meet &= f
            if meet & ~(b | gone):
                gone |= b
        if not gone:
            return facets
        for f in facets:
            if f & gone:
                check |= f
        check &= ~gone
        facets = maximal_masks([f & ~gone for f in facets])


def _squeezed_core(facets) -> tuple[int, ...] | None:
    """The strong-collapse core of a facet list, relabelled onto its own support,
    or None for a cone or a list that collapses to a point (no reduced homology).

    The cores are memoized in _CORES on the relabelled list, so translated
    copies of one complex are collapsed once.
    """
    if _is_cone(facets):
        return None
    key = _squeezed(facets)
    if key not in _CORES:
        core = _squeezed(_core(key))
        _CORES[key] = None if _is_cone(core) else core  # a core that is a cone is a point
    return _CORES[key]


def _side(a_facets, b_facets, n: int, w: int) -> tuple[list[int], bool]:
    """The facet list to read for A restricted to w, and whether it is a link.

    A is nonvoid on 1..n and b_facets are the facets of B = A^dual. When
    u = [n] minus w is a face of B and lk_B(u) has a top facet no larger than
    that of A restricted to w, the link is read instead, through
    H~_d(A restricted to w) = H~_{|w|-d-3}(lk_B u). The link needs no
    maximality pass, so it also wins a tie. B never has the full facet (A is
    nonvoid), so w = 0 is restricted.
    """
    u = ((1 << n) - 1) ^ w
    linkf = [f ^ u for f in b_facets if f & u == u]
    if linkf:
        top = max(map(int.bit_count, linkf))
        for f in a_facets:
            if (f & w).bit_count() >= top:
                return linkf, True
    return maximal_masks([f & w for f in a_facets]), False


def _fold(g: Graph, w: int) -> int:
    """w less its dominated vertices in g[w]: each step deletes the lowest v
    left in w for which some other u left in w has N[v] & w inside N[u]
    (closed neighbourhoods, so u is a neighbour of v), until there is none.
    Delta_k(g)^dual restricted to w strong-collapses onto its restriction to
    the result (Barmak-Minian 2012; the lemma is in the module docstring),
    so the two have the same reduced homology.

    The vertices still to check are kept in a mask, lowest first. Deleting
    v shrinks only the closed neighbourhoods in w of v's neighbours, so
    only they can become dominated, and they are checked again; every
    vertex off the mask is not dominated, so the lowest dominated vertex is
    the first one found.
    """
    adj, check = g.adj, w
    while check:
        b = check & -check
        check ^= b
        nv = adj[b.bit_length() - 1] & w
        x = nv
        while x:
            u = x & -x
            if not nv & ~(adj[u.bit_length() - 1] | u):
                break  # u dominates v
            x ^= u
        if x:
            w ^= b
            check |= nv
    return w


def _reader(a: SimplicialComplex, b: SimplicialComplex):
    """A function from a subset w of A's ground set to (core, |w'|, link), or
    to None when the list read for w is a cone or collapses to a point, so
    that A restricted to w has no reduced homology. B = A^dual.

    w' is w's fold (_fold) when cover_complex recorded (G, k) behind B, so
    that A = Delta_k(G)^dual, and w itself otherwise; A restricted to w' has
    the reduced homology of A restricted to w. core is the squeezed core
    (_squeezed_core) of the facet list that _side chooses for w', and link
    says whether that list is B's link. Each distinct w' is read once.
    """
    record = _COVERS.get(b)
    reads: dict[int, tuple[tuple[int, ...], int, bool] | None] = {}

    def read(w: int):
        v = _fold(record[0], w) if record else w
        if v not in reads:
            facets, link = _side(a.facets, b.facets, a.n, v)
            core = _squeezed_core(facets)
            reads[v] = None if core is None else (core, v.bit_count(), link)
        return reads[v]

    return read


def _read(dims, j: int, link: bool) -> list[tuple[int, int]]:
    """Nonzero (degree d, dim H~_d) of A restricted to a j-set W, from the
    homology dims of the facet list that _side chose for W."""
    return [(j - 2 - idx if link else idx - 1, val) for idx, val in enumerate(dims) if val]


#: Each relabelled facet list's squeezed core (None for a point), for the process.
_CORES: dict[tuple[int, ...], tuple[int, ...] | None] = {}
#: Each squeezed core's homology profiles by field, for the process: profiles only, never faces.
_CORE_DIMS: dict[tuple[int, ...], dict[Field, tuple[int, ...]]] = {}


def _core_dims(core: tuple[int, ...], field: Field) -> tuple[int, ...]:
    """The homology over field of a squeezed core, memoized for the process.

    A Q profile is computed with the GF(2) profile on the way, and both stay
    (homology_dims_from_facets). So GF(2) after Q enumerates no face, and Q
    after GF(2) enumerates the faces again only when the GF(2) profile is
    nonzero in two or more degrees; this holds for every complex and sweep
    that meets the core.
    """
    profiles = _CORE_DIMS.setdefault(core, {})
    if field not in profiles:
        profiles[field] = homology_dims_from_facets(core, field, profiles)
    return profiles[field]


# ---------------------------------------------------------------------------
# The Hochster sum


def _lcm_lattice(c: SimplicialComplex) -> Iterable[int]:
    """The empty set and every union of the complements of c's facets.

    On the facets of S^dual these are the unions of minimal nonfaces of S.
    The closure adds one complement at a time, so it takes at most
    m * 2^min(m, n) steps for m facets on n vertices. When cover_complex
    recorded (G, k) behind c and n * 2^n is the smaller bound, the lattice
    comes from the graph instead (_lattice_from_graph).
    """
    n, count = c.n, len(c.facets)
    record = _COVERS.get(c)
    if record and n << n < count << min(count, n):
        return _lattice_from_graph(*record)
    full = (1 << n) - 1
    masks = {0}
    for f in c.facets:
        m = full ^ f
        masks |= {w | m for w in masks}
    return masks


def _lattice_from_graph(g: Graph, k: int) -> list[int]:
    """The empty set and every union of independent k-sets of g, increasing.

    W is such a union exactly when every v in W lies in an independent k-set
    inside W, that is, when alpha(g[W - N[v]]) >= k-1: such a set minus v is
    an independent (k-1)-set there, and v extends any such set. Masks are
    visited in increasing order, with alpha read from one byte per mask,
    alpha(W) = max(alpha(W - v), 1 + alpha(W - N[v])) for the lowest v in W.
    When W - v is a union, its vertices lie in k-sets inside it, so only v
    is tested. At most n * 2^n steps and 2^(n+1) bytes.
    """
    off = {1 << v: ~(a | 1 << v) for v, a in enumerate(g.adj)}  # bit of v -> all but N[v]
    alpha, member, out = bytearray(1 << g.n), bytearray(1 << g.n), [0]
    member[0] = 1
    for w in range(1, 1 << g.n):
        b = w & -w
        x, y = alpha[w & off[b]], alpha[w ^ b]
        alpha[w] = y if y > x else x + 1
        if x >= k - 1:
            rest = 0 if member[w ^ b] else w ^ b
            while rest and alpha[w & off[rest & -rest]] >= k - 1:
                rest &= rest - 1
            if not rest:
                member[w] = 1
                out.append(w)
    return out


@lru_cache(maxsize=256)
def _byte_tables(p: tuple[int, ...]) -> tuple[tuple[int, list[int]], ...]:
    """The vertex map i -> p[i] on masks, one table per byte: (s, t) with t[x]
    the image of x << s, doubled one bit at a time (the top bit of x adds its
    image to t[x without it]). Memoized, so each graph's generators are
    tabled once."""
    out = []
    for s in range(0, len(p), 8):
        t = [0]
        for i in range(s, min(s + 8, len(p))):
            t += [x | 1 << p[i] for x in t]
        out.append((s, t))
    return tuple(out)


def _image(tables, x: int) -> int:
    """The image of the mask x under the vertex map that _byte_tables tabled."""
    y = 0
    for s, t in tables:
        y |= t[x >> s & 255]
    return y


def _reversal(n: int):
    """_byte_tables of the bit reversal i -> n-1-i: for two faces of one
    cardinality, the one first in canonical order has the larger image."""
    return _byte_tables(tuple(range(n - 1, -1, -1)))


def _orbit_walk(members, a: SimplicialComplex, b: SimplicialComplex):
    """One (member, orbit size) per orbit of the members under Aut(G), G the
    graph that cover_complex recorded behind A or B = A^dual (no graph: the
    trivial group). Each automorphism of G, checked for adjacency, permutes
    the facets of A and B, so it maps their LCM lattices onto themselves.

    Each orbit is named by its member with the smallest bit-reversed mask
    (_reversal): members of one orbit share a cardinality, so that is the
    member whose complement comes first in (cardinality, canonical) order.
    The orbits come in no set order. Each generator maps a mask through its
    memoized byte tables (_byte_tables).
    """
    record = _COVERS.get(a) or _COVERS.get(b)
    gens = [_byte_tables(p) for p in automorphism_generators(record[0])] if record else []
    rev = _reversal(a.n) if gens else ()
    seen: set[int] = set()
    for w in members:
        if w in seen:
            continue
        seen.add(w)
        orbit = [w]
        for x in orbit:
            for tables in gens:
                y = _image(tables, x)
                if y not in seen:  # orbits are disjoint, so y is new to this one
                    seen.add(y)
                    orbit.append(y)
        yield (min(orbit, key=lambda u: _image(rev, u)) if len(orbit) > 1 else w), len(orbit)


@lru_cache(maxsize=256)
def _hochster_plan(c: SimplicialComplex) -> dict[tuple[tuple[int, ...], int, bool, int], int]:
    """The field-independent half of c's Hochster sum; memoized, so every
    field of c shares it.

    It counts the subsets W of the LCM lattice by (core, |W'|, link, |W|),
    the read of W (_reader): W' is W's fold when c is the dual of a recorded
    cover, and W otherwise. A W whose list is a cone or collapses to a point
    adds nothing and is left out; a fold that is no union of independent
    k-sets is such a W. Only one W per orbit of the automorphisms behind c
    (_orbit_walk) is read, and it counts as many times as its orbit has
    members.
    """
    dual = alexander_dual(c)
    read = _reader(c, dual)
    uses: dict[tuple[tuple[int, ...], int, bool, int], int] = {}
    for w, size in _orbit_walk(_lcm_lattice(dual), c, dual):
        r = read(w)
        if r is not None:
            use = (*r, w.bit_count())
            uses[use] = uses.get(use, 0) + size
    return uses


def _hochster_sum(c: SimplicialComplex, field: Field) -> GradedBettiTable:
    """The Betti table of a nonvoid c by Hochster's sum.

    The sum runs over the LCM lattice of the minimal nonfaces (the
    complements of the facets of the memoized Alexander dual) and reads each
    subset W, or its fold W' (_hochster_plan), from the smaller of its
    restriction and the dual's link. The degrees d of H~_d found for W' are
    those of W, and go to beta_{|W|-d-1, |W|}. The field-independent half,
    the subsets grouped by the core they read, is planned once per complex
    and memoized, so further fields of c reuse it; each core's homology
    comes from _core_dims, shared with every other complex and with
    Reisner's sweep (GF(2) profiles serve Q and GF(2) alike).
    """
    entries: dict[tuple[int, int], int] = {}
    for (core, i, link, j), mult in _hochster_plan(c).items():
        for d, val in _read(_core_dims(core, field), i, link):
            ij = (j - d - 1, j)
            entries[ij] = entries.get(ij, 0) + mult * val
    assert entries.get((0, 0)) == 1, "table must start with beta_{0,0} = 1"
    return GradedBettiTable(entries, field, c.n)


def betti_hochster(
    c: SimplicialComplex,
    field: Field = RATIONALS,
    *,
    max_ground: int = DEFAULT_HOCHSTER_GUARD,
    override: bool = False,
) -> GradedBettiTable:
    """Exact graded Betti table of the face ring of c over the given field.

    After the Hochster guard, a certificate comes first. When the Alexander
    dual of c is nonvoid and pure and its stored facet order F_1, ..., F_m
    is a shelling with restrictions R_j (_stored_restrictions), the face
    ideal of c has linear quotients in the order of the generators
    x^([n] minus F_j), whose colon ideals are generated by the |R_j|
    variables of R_j (Herzog-Hibi-Zheng 2004). Its mapping-cone resolution
    is then minimal (Herzog-Takayama 2002), so over every field

        beta_{0,0} = 1, beta_{i,i+s-1} = sum over j of C(|R_j|, i-1) (i >= 1),

    with s = n - |F_1|. Every other complex, a nonpure dual among them (the
    formula needs generator degrees that never decrease), takes Hochster's
    sum (_hochster_sum).
    """
    if c.is_void:
        raise VoidComplexError("the void complex has no Betti table here")
    check_guard("Hochster", c.n, max_ground, override)
    dual = alexander_dual(c)
    restrictions = _stored_restrictions(dual)
    if restrictions is None:
        return _hochster_sum(c, field)
    s = c.n - dual.facets[0].bit_count()
    entries = {(0, 0): 1}
    for r, mult in Counter(r.bit_count() for r in restrictions).items():
        for i in range(r + 1):
            entries[(i + 1, i + s)] = entries.get((i + 1, i + s), 0) + mult * comb(r, i)
    return GradedBettiTable(entries, field, c.n)


# ---------------------------------------------------------------------------
# Linearity


def linear_resolution_degree(t: GradedBettiTable):
    """The degree s of an s-linear resolution, or None.

    Linear means every nonzero beta_{i,j} with i >= 1 sits at j = s + i - 1,
    with s the common degree of the minimal generators. A table with no
    generators at all (the zero ideal) is trivially linear; 0 is returned for
    it so callers can tell that apart from a genuine generator degree.
    """
    gen_degrees = {j for (i, j) in t.entries if i == 1}
    if not gen_degrees:
        return 0
    if len(gen_degrees) > 1:
        return None
    s = gen_degrees.pop()
    for (i, j) in t.entries:
        if i >= 1 and j != s + i - 1:
            return None
    return s


# ---------------------------------------------------------------------------
# Cohen-Macaulay and Gorenstein verdicts


class ReisnerVerdict(NamedTuple):
    cm: bool
    field: Field
    witness: tuple[tuple[int, ...], int] | None = None  # (face, offending degree)


@lru_cache(maxsize=256)
def _stored_restrictions(c: SimplicialComplex) -> tuple[int, ...] | None:
    """The restriction of each facet in c's stored facet order when c is
    nonvoid and pure and that order is a shelling, else None
    (bitsets.shelling_restrictions: O(d) big-int operations per facet of
    size d). Memoized like alexander_dual, as a tuple that no caller can
    change: betti_hochster and stored_order_shells ask for it."""
    if c.is_void or not is_pure(c):
        return None
    restrictions = shelling_restrictions(c.facets)
    return None if restrictions is None else tuple(restrictions)


def stored_order_shells(c: SimplicialComplex) -> bool:
    """Whether c is nonvoid and pure and its stored facet order is a shelling.

    Then k[c] is Cohen-Macaulay over every field (Stanley, ch. III), and the
    face ideal of c's Alexander dual has linear quotients, so a linear
    resolution (Herzog-Hibi-Zheng 2004).
    """
    return _stored_restrictions(c) is not None


def is_cm_reisner(c: SimplicialComplex, field: Field = RATIONALS, *, override: bool = False) -> ReisnerVerdict:
    """Cohen-Macaulayness by vanishing of link homology below link dimension.

    A certificate comes first: a pure complex whose stored facet order is a
    shelling (stored_order_shells), the full simplex among them, is CM over
    every field. Any other complex runs Reisner's sweep (_reisner_sweep),
    which decides exactly and names the first failing face.
    """
    if c.is_void:
        raise VoidComplexError("void complex")
    check_guard("face-enumeration", c.n, DEFAULT_GROUND_GUARD, override)
    if stored_order_shells(c):
        return ReisnerVerdict(True, field)
    return _reisner_sweep(c, field)


def _reisner_sweep(c: SimplicialComplex, field: Field) -> ReisnerVerdict:
    """Reisner's criterion on a nonvoid complex.

    All reduced homology of the link of every face sigma (including the empty
    one) must vanish strictly below the link's dimension. A face that is not
    an intersection of facets has a cone as its link, so only the empty face
    and the intersections of facets are visited, in (cardinality, canonical)
    order, sorted as (cardinality, minus the bit-reversed mask). They are the complements of the members of the LCM lattice of
    c's own facets other than the empty set and [n], and only the first
    face of each orbit of the automorphisms behind c (_orbit_walk) is
    visited: it precedes the rest of its orbit, whose links are isomorphic
    to its own. So the first failure is still the first failing face; it
    reports that face and the homological degree. _side with
    (c^dual, c) picks whether each link is read from the link itself or
    from c^dual restricted to U = [n] minus sigma, using
    H~_i(lk sigma) = H~_{|U|-i-3}(c^dual restricted to U). When c is a
    recorded cover of (G, k), U's fold U' (_fold) is read in place of U:
    c^dual restricted to U' has the same reduced homology, and the degrees
    are still shifted by |U|.
    """
    dual = alexander_dual(c)
    if dual.is_void:  # the full simplex: every link is a simplex
        return ReisnerVerdict(True, field)
    read = _reader(dual, c)
    full = (1 << c.n) - 1

    def faces():
        yield 0  # first, and before the lattice is built: it is often the witness
        lattice = [u for u in _lcm_lattice(c) if u and u != full]
        rev = _reversal(c.n)
        yield from sorted((full ^ u for u, _ in _orbit_walk(lattice, dual, c)), key=lambda s: (s.bit_count(), -_image(rev, s)))

    for sigma in faces():
        u = full ^ sigma
        r = read(u)
        if r is None:
            continue
        core, j, link = r  # H~_d(dual|u) is H~_{|u|-d-3}(lk sigma)
        degrees = [u.bit_count() - d - 3 for d, _ in _read(_core_dims(core, field), j, link)]
        if degrees:
            top = max(f.bit_count() for f in c.facets if f & sigma == sigma)
            low = [i for i in degrees if i < top - sigma.bit_count() - 1]  # below dim lk sigma
            if low:
                return ReisnerVerdict(False, field, (vertices_of(sigma), min(low)))
    return ReisnerVerdict(True, field)


def is_cm_ab(c: SimplicialComplex, table: GradedBettiTable) -> bool:
    """Cohen-Macaulayness from c's Betti table: the resolution length must
    equal ground size minus Krull dimension (Auslander-Buchsbaum)."""
    pd = table.projective_dimension()
    return c.n - pd == c.dim() + 1


def is_gorenstein(c: SimplicialComplex, table: GradedBettiTable) -> bool:
    """Cohen-Macaulay of type 1, read off c's Betti table: the last total
    Betti number equals 1."""
    return is_cm_ab(c, table) and table.total(table.projective_dimension()) == 1


# ---------------------------------------------------------------------------
# Fat-forest Hilbert series


class _FatForestDecomposition(NamedTuple):
    simplex_dims: tuple[int, ...]
    overlap_dims: tuple[int, ...]


class FatForestDecomposition(_FatForestDecomposition):
    """Simplex dimensions d_1..d_k and overlap dimensions r_2..r_k."""

    __slots__ = ()

    def __new__(cls, simplex_dims: tuple[int, ...], overlap_dims: tuple[int, ...]):
        if len(simplex_dims) == 0:
            raise ValueError("decomposition needs at least one simplex")
        if len(overlap_dims) != len(simplex_dims) - 1:
            raise ValueError("need one overlap dimension per simplex after the first")
        for j, r in enumerate(overlap_dims):
            dj = simplex_dims[j + 1]
            prior = max(simplex_dims[: j + 1])
            if r < -1 or r > min(dj, prior):
                raise ValueError(f"overlap dimension r_{j + 2} = {r} out of range")
        return super().__new__(cls, simplex_dims, overlap_dims)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make: check it too


def fat_forest_hilbert(d: FatForestDecomposition, n: int) -> HilbertSeries:
    """Hilbert series sum 1/(1-t)^{d_i+1} - sum 1/(1-t)^{r_j+1} over (1-t)^n."""
    if n < max(d.simplex_dims) + 1:
        raise ValueError("ground set too small for the decomposition")
    num = [0] * (n + 1)
    for di in d.simplex_dims:
        for a, ca in enumerate(_one_minus_t_pow(n - di - 1)):
            num[a] += ca
    for rj in d.overlap_dims:
        for a, ca in enumerate(_one_minus_t_pow(n - rj - 1)):
            num[a] -= ca
    return HilbertSeries(_trim(num), n)


# ---------------------------------------------------------------------------
# Eagon-Reiner consistency


class EagonReinerReport(NamedTuple):
    field: Field
    linear_degree: int | None
    dual_cm: bool | None
    dual_void: bool
    consistent: bool


def eagon_reiner_check(c: SimplicialComplex, table: GradedBettiTable, *, override: bool = False) -> EagonReinerReport:
    """Linearity of k[c], read off c's Betti table, against Cohen-Macaulayness
    of the dual face ring over the table's field.

    The two verdicts must agree; a full simplex (whose dual is void) is
    vacuously consistent. override lifts the face-enumeration guard of the
    dual's Reisner sweep.
    """
    if c.is_void:
        raise VoidComplexError("void complex")
    field = table.field
    s = linear_resolution_degree(table)
    dual = alexander_dual(c)
    if dual.is_void:
        return EagonReinerReport(field, s, None, True, True)
    verdict = is_cm_reisner(dual, field, override=override)
    consistent = (s is not None) == verdict.cm
    return EagonReinerReport(field, s, verdict.cm, False, consistent)
