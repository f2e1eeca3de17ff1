"""Reisner's sweep over facet intersections, and is_cm_reisner with its shelling
certificate in front, against the every-link sweep they replaced."""

import random

import pytest

from conftest import family_graphs
from oracles import homology_all_ranks
from srlab import complexes
from srlab.bitsets import vertices_of
from srlab.complexes import alexander_dual, all_faces, cover_complex, make_complex
from srlab.errors import GuardExceeded
from srlab.homology import GF2, RATIONALS, Field
from srlab.resolution import ReisnerVerdict, _reisner_sweep, is_cm_reisner

FIELDS = (RATIONALS, GF2, Field(3))


def reisner_every_link(c, field) -> ReisnerVerdict:
    """The link of every face, in (cardinality, canonical) order, each computed anew.

    No lattice, no Alexander duality, no memo and no homology shortcut: the
    first face whose link has homology below its top dimension is the witness.
    """
    by = all_faces(c, override=True)
    for card in sorted(by):
        for sigma in by[card]:
            linkf = [f ^ sigma for f in c.facets if f & sigma == sigma]
            dims = homology_all_ranks(linkf, field)
            for idx in range(len(dims) - 1):  # below top dimension only
                if dims[idx]:
                    return ReisnerVerdict(False, field, (vertices_of(sigma), idx - 1))
    return ReisnerVerdict(True, field)


def _random_complexes(count: int, seed: int = 6021) -> list:
    """Half arbitrary facet lists, half equal-size facets (so many are CM)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            facets = [rng.randrange(1 << n) for _ in range(rng.randint(1, 8))]
        else:
            size = rng.randint(1, n)
            facets = [sum(1 << v for v in rng.sample(range(n), size)) for _ in range(rng.randint(1, 10))]
        out.append(make_complex(n, facets))
    return out


def test_random_complexes_match_every_link_sweep():
    corpus = _random_complexes(1500)
    verdicts = []
    for c in corpus:
        for field in FIELDS:
            got = is_cm_reisner(c, field)
            assert got == reisner_every_link(c, field), (c, field)
            assert _reisner_sweep(c, field) == got, (c, field)
            verdicts.append(got)
    # the corpus exercises both verdicts and witnesses above the empty face
    assert any(v.cm for v in verdicts) and any(v.witness and v.witness[0] for v in verdicts)


def test_family_covers_and_duals_match_every_link_sweep():
    # n = 12 adds 157 complexes and about 40 s of every-link sweeps per field
    seen = set()
    for name, g in family_graphs(11):
        for k in range(1, g.n + 1):
            c = cover_complex(g, k)
            if c.is_void:
                continue
            for x in (c, alexander_dual(c)):
                if x in seen or x.is_void:
                    continue
                seen.add(x)
                expect = reisner_every_link(x, RATIONALS)
                assert is_cm_reisner(x, RATIONALS) == expect == _reisner_sweep(x, RATIONALS), (name, k, x)


def test_guard_stops_before_face_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("faces enumerated before the guard")

    monkeypatch.setattr(complexes, "_faces_by_card", no_enumeration)
    big = make_complex(25, [(1 << 25) - 2, (1 << 24) - 1])
    with pytest.raises(GuardExceeded):
        is_cm_reisner(big)
    assert is_cm_reisner(big, override=True).cm  # a shelling
    assert _reisner_sweep(big, RATIONALS).cm  # the sweep itself enumerates no faces

