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


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal members, deduplicated."""
    uniq = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in uniq:
        if not any(m & ~k == 0 for k in kept):
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


def shells_onto(f: int, placed: Sequence[int]) -> bool:
    """The shelling step: whether f meets the union of the placed facets in a
    pure subcomplex of codimension one, so that f may follow them.

    With R the vertices v of f such that f minus v lies in a placed facet,
    that holds iff f minus p meets R for every placed p: then f meets p
    inside some f minus v with v in R. O(|placed|) bit operations.
    """
    r = 0
    for p in placed:
        x = f & ~p
        if x & (x - 1) == 0:  # f minus p is one vertex
            r |= x
    return all(f & ~p & r for p in placed)


def is_shelling(order: Sequence[int]) -> bool:
    """Whether each facet of order shells onto those before it (shells_onto):
    O(F^2) bit operations on F facets. For a pure complex this is a shelling."""
    return all(shells_onto(f, order[:i]) for i, f in enumerate(order))


def sort_canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """Sort masks lexicographically by their ascending vertex tuples."""
    return tuple(sorted(masks, key=vertices_of))
