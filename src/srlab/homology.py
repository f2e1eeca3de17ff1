"""Exact reduced simplicial homology dimensions over Q and GF(p).

No floating point is used anywhere. Ranks over GF(2) ride on bitmask XOR
elimination. Ranks over Q and over an odd prime field share one sparse
elimination core, parameterized by the field: it pivots on unit entries
(every nonzero entry mod p, only +-1 over Q), and over Q whatever has no
unit entry left goes through a fraction-free (Bareiss) dense core, so every
reported dimension is exact.

Two exact steps come before any boundary matrix is built. A complex whose
facets share a vertex is a cone (no reduced homology). Any other complex is
cut down to its strong-collapse core (_core): a vertex whose facets all
contain some other vertex is deleted, round after round, which keeps the
homotopy type and so the homology over every field. A core of k single
vertices has H~_0 of dimension k - 1 and nothing else; any other core is
eliminated, and its profile is padded to the length of the input's.

For coefficients in Q the GF(2) profile comes first and closes most cases
exactly. By universal coefficients dim H~_i(K; Q) <= dim H~_i(K; GF(2)) in
every degree, and the reduced Euler characteristic sum (-1)^i dim H~_i is
the same over every field. So when the GF(2) profile is nonzero in at most
one degree, the rational profile equals it and no rational rank is computed.
Only a profile with two or more nonzero degrees (torsion, as in RP^2) falls
back to exact rational ranks, and only in those degrees; rational_dims
applies this rule to a GF(2) profile the caller already holds. Over an odd
prime field only the GF(p) ranks are computed.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .bitsets import maximal_masks
from .complexes import _faces_by_card

# ---------------------------------------------------------------------------
# Coefficient fields


def _is_prime(p: int) -> bool:
    """Trial division: about 46,000 steps for the largest Field modulus, 2^31 - 1."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


class _Field(NamedTuple):
    p: int | None = None


class Field(_Field):
    """Coefficient field: p=None for the rationals, otherwise GF(p)."""

    __slots__ = ()

    def __new__(cls, p: int | None = None):
        if p is not None and not (2 <= p < 2**31 and _is_prime(p)):
            raise ValueError(f"modulus must be a prime below 2^31, got {p}")
        return super().__new__(cls, p)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make: check it too

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


RATIONALS = Field()
GF2 = Field(2)


def parse_field(s: str) -> Field:
    t = s.strip().upper()
    if t in ("Q", "QQ", "RATIONALS"):
        return RATIONALS
    if t.startswith("GF(") and t.endswith(")"):
        return Field(int(t[3:-1]))
    if t.startswith("GF"):
        return Field(int(t[2:]))
    raise ValueError(f"cannot parse field {s!r}; use Q or GF(p)")


# ---------------------------------------------------------------------------
# Rank engines


def rank_gf2(cols: list[int]) -> int:
    """Rank over GF(2) of a matrix given as column bitmasks over row indices."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in cols:
        while col:
            low = col & -col
            p = pivots.get(low)
            if p is None:
                pivots[low] = col
                rank += 1
                break
            col ^= p
    return rank


def bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free elimination rank of a dense integer matrix."""
    m = [r[:] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    r = 0
    for _ in range(min(nrows, ncols)):
        pr = pc = -1
        for i in range(r, nrows):
            for j in range(ncols):
                if m[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][pc]
        for i in range(r + 1, nrows):
            mi, mr = m[i], m[r]
            f = mi[pc]
            for j in range(ncols):
                mi[j] = (mi[j] * piv - f * mr[j]) // prev
        prev = piv
        rank += 1
        r += 1
        if r >= nrows:
            break
    return rank


def _rank_sparse(cols: list[dict[int, int]], p: int | None) -> int:
    """Rank over GF(p), or over Q when p is None, of sparse integer columns.

    Columns are eliminated in index order, each on a unit entry in its
    shortest row: over GF(p) every nonzero entry is a unit, over Q only +-1
    is, and a Q column without one is skipped. Each pivot is a row operation,
    so the rank is the pivot count plus the rank of the rows left over, which
    over Q go through dense Bareiss elimination.
    """
    rows: dict[int, dict[int, int]] = {}
    colsup: list[set[int]] = [set() for _ in cols]
    for j, col in enumerate(cols):
        for i, v in col.items():
            if p is not None:
                v %= p
            if v:
                rows.setdefault(i, {})[j] = v
                colsup[j].add(i)
    rank = 0
    for j0, sup in enumerate(colsup):
        units = [i for i in sup if p is not None or rows[i][j0] in (1, -1)]
        if not units:
            continue
        i0 = min(units, key=lambda i: len(rows[i]))
        prow = rows.pop(i0)
        for jj in prow:
            colsup[jj].discard(i0)
        v0 = prow.pop(j0)
        inv = v0 if p is None else pow(v0, -1, p)  # +-1 is its own inverse
        for i in sup:
            row = rows[i]
            f = row.pop(j0) * inv
            for jj, pv in prow.items():
                nv = row.get(jj, 0) - f * pv
                if p is not None:
                    nv %= p
                if nv:
                    if jj not in row:
                        colsup[jj].add(i)
                    row[jj] = nv
                elif jj in row:
                    del row[jj]
                    colsup[jj].discard(i)
            if not row:
                del rows[i]
        rank += 1
    if rows:
        live_cols = sorted({j for row in rows.values() for j in row})
        jidx = {j: a for a, j in enumerate(live_cols)}
        dense = []
        for row in rows.values():
            line = [0] * len(live_cols)
            for j, v in row.items():
                line[jidx[j]] = v
            dense.append(line)
        rank += bareiss_rank(dense)
    return rank


def rank_int_exact(cols: list[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix (column dicts row->value)."""
    return _rank_sparse(cols, None)


def rank_gfp(cols: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a sparse integer matrix (column dicts row->value)."""
    return _rank_sparse(cols, p)


# ---------------------------------------------------------------------------
# Chain complexes on facet lists (labels are arbitrary bit positions)


def _boundary_cols_gf2(lower: list[int], upper: list[int]) -> list[int]:
    row = {m: 1 << i for i, m in enumerate(lower)}
    cols = []
    for m in upper:
        x = 0
        mm = m
        while mm:
            b = mm & -mm
            x |= row[m ^ b]
            mm ^= b
        cols.append(x)
    return cols


def _boundary_cols_signed(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    idx = {m: i for i, m in enumerate(lower)}
    cols = []
    for m in upper:
        col = {}
        mm = m
        pos = 0
        while mm:
            b = mm & -mm  # removes vertices in ascending order
            col[idx[m ^ b]] = 1 if pos % 2 == 0 else -1
            mm ^= b
            pos += 1
        cols.append(col)
    return cols


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


def homology_dims_from_facets(facets, field: Field) -> tuple[int, ...]:
    """Reduced homology dimensions (H~_-1 .. H~_d) for a maximal facet list.

    Facet bit positions need not be contiguous. An empty facet list (void)
    yields the empty tuple. A cone has no reduced homology; otherwise the
    strong-collapse core is read, and a core of k single vertices has
    H~_0 of dimension k - 1 and nothing else.
    """
    if not facets:
        return ()
    if facets == (0,) or facets == [0]:
        return (1,)
    top = max(f.bit_count() for f in facets)
    length = top + 1  # entries for dims -1..top-1
    if _is_cone(facets):
        return (0,) * length
    core = _core(facets)
    if all(f & (f - 1) == 0 for f in core):
        dims = (0, len(core) - 1)
    else:
        dims = _dims_by_elimination(core, field)
    return dims + (0,) * (length - len(dims))


def _dims_by_elimination(facets, field: Field) -> tuple[int, ...]:
    by = _faces_by_card(facets)  # every cardinality 0..top is present
    top = max(by)

    def dims_from(rank_of) -> list[int]:
        """H~_i = f_i - rank d_i - rank d_{i+1}, with d_c mapping c-faces down."""
        ranks = {c: rank_of(c) for c in range(1, top + 1)}
        return [len(by[c]) - ranks.get(c, 0) - ranks.get(c + 1, 0) for c in range(top + 1)]

    if field.p is not None and field.p != 2:
        return tuple(dims_from(lambda c: rank_gfp(_boundary_cols_signed(by[c - 1], by[c]), field.p)))
    dims = tuple(dims_from(lambda c: rank_gf2(_boundary_cols_gf2(by[c - 1], by[c]))))
    return dims if field.p == 2 else rational_dims(facets, dims)


def rational_dims(facets, gf2: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced homology over Q of a maximal facet list whose GF(2) profile is gf2.

    Over Q each dimension is at most the GF(2) one and the Euler
    characteristic is the same, so a profile nonzero in at most one degree
    carries over; otherwise exact rational ranks settle its nonzero degrees.
    """
    if sum(1 for d in gf2 if d) <= 1:
        return gf2
    by = _faces_by_card(facets)
    top = max(by)
    exact: dict[int, int] = {}

    def q_rank(c: int) -> int:
        if not 0 < c <= top:
            return 0
        if c not in exact:
            exact[c] = rank_int_exact(_boundary_cols_signed(by[c - 1], by[c]))
        return exact[c]

    return tuple(len(by[c]) - q_rank(c) - q_rank(c + 1) if d else 0 for c, d in enumerate(gf2))

