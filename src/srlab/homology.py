"""Exact reduced simplicial homology dimensions over Q and GF(p).

No floating point is used anywhere. Ranks over GF(2) ride on bitmask XOR
elimination. Ranks over Q and over an odd prime field share one sparse
elimination, parameterized by the field (_rank_sparse). Over Q it prefers
+-1 pivots; on any other pivot it scales the rows it updates and divides
them by their content, so every entry stays an integer, no row goes to a
dense core, and every reported dimension is exact.

A facet list is one chain complex (homology_dims_from_facets): its faces
are enumerated once, and its boundary maps are reduced from the top
cardinality down with clearing (_cleared_ranks; Chen-Kerber 2011,
Bauer-Kerber-Reininghaus 2014). The faces that carry the pivots of one map
are left out of the columns of the next, which keeps every rank. The list
is read as given: cutting it down to its strong-collapse core first is the
caller's business (resolution._squeezed_core).

For coefficients in Q the GF(2) profile comes first and closes most cases
exactly. By universal coefficients dim H~_i(K; Q) <= dim H~_i(K; GF(2)) in
every degree, and the reduced Euler characteristic sum (-1)^i dim H~_i is
the same over every field. So when the GF(2) profile is nonzero in at most
one degree, the rational profile equals it and no rational rank is computed.
Only a profile with two or more nonzero degrees (torsion, as in RP^2) takes
exact rational ranks, only in those degrees, and on the same faces and
cleared columns as the GF(2) pass. Over an odd prime field only the GF(p)
ranks are computed.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

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


def rank_gf2(cols: list[int], pivot_rows: set[int] | None = None) -> int:
    """Rank over GF(2) of a matrix given as column bitmasks over row indices.

    Each column is reduced on its highest row (bit_length, which costs no
    big-int operation) until that row is new; when pivot_rows is a set, the
    rows of the pivots are added to it.
    """
    pivots: dict[int, int] = {}
    for col in cols:
        while col:
            high = col.bit_length()
            p = pivots.get(high)
            if p is None:
                pivots[high] = col
                break
            col ^= p
    if pivot_rows is not None:
        pivot_rows.update(high - 1 for high in pivots)
    return len(pivots)


def _rank_sparse(cols: list[dict[int, int]], p: int | None, pivot_rows: set[int] | None = None) -> int:
    """Rank over GF(p), or over Q when p is None, of sparse integer columns.

    Columns are eliminated in index order, each on an entry in its shortest
    row; over Q a +-1 entry is preferred. Over GF(p), and over Q on a +-1
    pivot v0, a row r becomes r - (r[j0] / v0) * prow. Over Q on any other
    pivot it becomes v0 * r - r[j0] * prow, divided by its content, so every
    entry stays an integer. Each pivot is a row operation and clears its
    column, so the rank is the pivot count. When pivot_rows is a set, the
    rows of the pivots are added to it.
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
        if not sup:
            continue
        i0 = min(sup, key=lambda i: (p is None and rows[i][j0] not in (1, -1), len(rows[i])))
        if pivot_rows is not None:
            pivot_rows.add(i0)
        prow = rows.pop(i0)
        for jj in prow:
            colsup[jj].discard(i0)
        v0 = prow.pop(j0)
        scale = p is None and v0 not in (1, -1)
        inv = 1 if scale else v0 if p is None else pow(v0, -1, p)  # +-1 is its own inverse
        for i in sup:
            row = rows[i]
            f = row.pop(j0) * inv
            if scale:
                for jj in row:
                    row[jj] *= v0
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
            elif scale:
                g = gcd(*row.values())
                for jj in row:
                    row[jj] //= g
        rank += 1
    return rank


def rank_int_exact(cols: list[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix (column dicts row->value)."""
    return _rank_sparse(cols, None)


def rank_gfp(cols: list[dict[int, int]], p: int, pivot_rows: set[int] | None = None) -> int:
    """Rank over GF(p) of a sparse integer matrix (column dicts row->value);
    pivot_rows as in _rank_sparse."""
    return _rank_sparse(cols, p, pivot_rows)


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


def _cleared_ranks(by: dict[int, list[int]], p: int) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Ranks over GF(p) of the boundary maps d_c (c-faces to (c-1)-faces) of
    the faces by, from the top cardinality down, and the c-faces each d_c
    kept as columns.

    Clearing: the c-faces that carry the pivots of d_{c+1} are left out of
    d_c's columns, and rank d_c stays the same. Those rows of d_{c+1} are
    independent, so for each of them, i, some boundary b is 1 at i and 0 at
    the others; d_c b = 0 puts column i of d_c in the span of the columns
    left in. This holds for the pivots of any elimination over any field,
    and for any subset of them. It holds over Q for GF(2)'s pivots too: rows
    independent mod 2 have an odd minor, so they are independent over Q.
    """
    ranks: dict[int, int] = {}
    kept: dict[int, list[int]] = {}
    pivot_rows: set[int] = set()
    for c in range(max(by), 0, -1):
        cols = [m for i, m in enumerate(by[c]) if i not in pivot_rows]
        kept[c] = cols
        pivot_rows = set()
        if p == 2:
            ranks[c] = rank_gf2(_boundary_cols_gf2(by[c - 1], cols), pivot_rows)
        else:
            ranks[c] = rank_gfp(_boundary_cols_signed(by[c - 1], cols), p, pivot_rows)
    return ranks, kept


def homology_dims_from_facets(facets, field: Field, known: dict[Field, tuple[int, ...]] | None = None) -> tuple[int, ...]:
    """Reduced homology dimensions (H~_-1 .. H~_d) over field of a facet list.

    Facet bit positions need not be contiguous, and the facets need not be
    maximal. An empty facet list (void) yields the empty tuple. The faces
    are enumerated once, and the ranks come from _cleared_ranks, over GF(p)
    for an odd p and over GF(2) otherwise. Over Q the GF(2) profile closes
    the case when it is nonzero in at most one degree (see the module
    docstring); otherwise exact rational ranks of the same cleared columns
    settle its nonzero degrees.

    known, when given, maps fields to profiles of this facet list found
    before: over Q a GF(2) profile there that closes the case is returned
    without enumerating faces, and the GF(2) profile found on the way to Q
    is added to it.
    """
    if not facets:
        return ()
    gf2 = known.get(GF2) if known is not None and field.is_rationals else None
    if gf2 is not None and sum(1 for d in gf2 if d) <= 1:
        return gf2
    by = _faces_by_card(facets)  # every cardinality 0..top is present
    top = max(by)
    ranks, kept = _cleared_ranks(by, 2 if field.is_rationals else field.p)

    def dims_from(rank: dict[int, int]) -> list[int]:
        """H~_{c-1} = f_c - rank d_c - rank d_{c+1}."""
        return [len(by[c]) - rank.get(c, 0) - rank.get(c + 1, 0) for c in range(top + 1)]

    dims = tuple(dims_from(ranks))
    if not field.is_rationals:
        return dims
    if known is not None:
        known[GF2] = dims
    degrees = [c for c, d in enumerate(dims) if d]
    if len(degrees) <= 1:
        return dims
    needed = {c for d in degrees for c in (d, d + 1) if 0 < c <= top}
    exact = dims_from({c: rank_int_exact(_boundary_cols_signed(by[c - 1], kept[c])) for c in needed})
    return tuple(q if d else 0 for q, d in zip(exact, dims))
