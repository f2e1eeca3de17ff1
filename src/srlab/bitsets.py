"""Vertex sets packed as Python int bitmasks; vertex v occupies bit v-1."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def iter_vertices(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length()
        mask ^= b


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal members, deduplicated, by descending cardinality;
    members of one cardinality keep the order of their first occurrence.

    Each candidate is tested against the members kept so far that are
    larger (a distinct member of its own size cannot contain it), and stops
    at the first that contains it. So a list of one size costs no tests."""
    kept: list[int] = []
    larger: list[int] = []
    size = -1
    for m in sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size = m.bit_count()
            larger = kept[:]
        for k in larger:
            if m | k == k:
                break
        else:
            kept.append(m)
    return kept


def single_maximal_overlap(f: int, placed: Iterable[int]) -> int | None:
    """Overlap of f with the union of placed simplices, if it is a single face.

    Returns the glue mask (0 when f is disjoint from everything placed), or
    None when the pairwise overlaps have no single maximal element."""
    u = 0
    hits = []
    for p in placed:
        x = f & p
        if x:
            hits.append(x)
            u |= x
    if not hits:
        return 0
    return u if u in hits else None


def facet_columns(facets: Sequence[int]) -> list[int]:
    """The vertex -> facet incidence table: entry v-1 is the mask of the
    indices j with v in facets[j]."""
    col = [0] * max(facets, default=0).bit_length()
    for j, f in enumerate(facets):
        bit = 1 << j
        for v in iter_vertices(f):
            col[v - 1] |= bit
    return col


def restriction(f: int, col: Sequence[int], placed: int) -> int | None:
    """The restriction R of f in a shelling step onto the facets whose indices
    are in the mask placed, or None when f does not shell onto them.

    col is the incidence table of the facets (facet_columns). v lies in R
    when f minus v lies in a placed facet: the AND of col over f minus v
    meets placed. f meets the union of the placed facets in a pure
    subcomplex of codimension one unless some placed facet contains R: the
    AND of col over R meets placed. Prefix and suffix ANDs make this O(|f|)
    big-int operations.
    """
    vs = list(iter_vertices(f))
    cols = [col[v - 1] for v in vs]
    suffix = [placed]
    for x in reversed(cols):
        suffix.append(suffix[-1] & x)
    suffix.reverse()  # suffix[i]: placed AND col over the vertices from the i-th on
    r = 0
    prefix = -1  # all ones: col ANDed over the vertices before the i-th
    for i, v in enumerate(vs):
        if prefix & suffix[i + 1]:
            r |= 1 << (v - 1)
        prefix &= cols[i]
    held = placed
    for v in iter_vertices(r):
        held &= col[v - 1]
    return None if held else r


def shelling_restrictions(order: Sequence[int]) -> list[int] | None:
    """The restriction R_j of each facet of order, or None when some facet
    does not shell onto those before it (restriction). For a pure complex
    this decides a shelling, in O(d) big-int operations per facet of size d.
    """
    col = facet_columns(order)
    out = []
    for j, f in enumerate(order):
        r = restriction(f, col, (1 << j) - 1)
        if r is None:
            return None
        out.append(r)
    return out


def sort_canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """Sort masks lexicographically by their ascending vertex tuples."""
    return tuple(sorted(masks, key=vertices_of))
