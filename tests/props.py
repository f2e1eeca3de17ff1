"""Property suites shared by test_properties and the acceptance gate.

Each suite walks a corpus of Bundle objects (see conftest) and returns a list
of violation strings; an empty list means the property held everywhere.
"""

from __future__ import annotations

from oracles import betti_from_linear_hilbert, shelling_order_from_vd
from srlab.bitsets import full_mask, sort_canonical
from srlab.complexes import alexander_dual, cover_complex, dual_fvector, f_vector, minimal_nonfaces
from srlab.graphs import independent_sets
from srlab.homology import GF2, RATIONALS, homology_dims_from_facets
from srlab.resolution import hilbert_from_fvector, kpolynomial, linear_resolution_degree
from srlab.structure import froberg_check, is_pure_shellable, is_valid_shelling, is_vertex_decomposable

FIELDS = (RATIONALS, GF2)


def check_duality_involution(bundles):
    return [b.name for b in bundles if alexander_dual(b.dual) != b.c]


def check_dual_fvector(bundles):
    return [b.name for b in bundles if f_vector(b.dual) != dual_fvector(b.fv, b.c.n)]


def check_dual_generators(bundles):
    """The minimal nonfaces of the dual are the inclusion-minimal complements
    of the facets; the dual is void exactly when a complement is empty."""
    out = []
    for b in bundles:
        comps = {full_mask(b.c.n) ^ f for f in b.c.facets}
        gens = sort_canonical(m for m in comps if not any(k != m and k & ~m == 0 for k in comps))
        if gens != ((0,) if b.dual.is_void else minimal_nonfaces(b.dual)):
            out.append(b.name)
    return out


def check_hilbert_betti_identity(bundles):
    out = []
    for b in bundles:
        num = hilbert_from_fvector(b.fv, b.c.n).numerator
        for field in FIELDS:
            if kpolynomial(b.table(field)) != num:
                out.append(f"{b.name}[{field}]")
    return out


def check_reisner_vs_auslander_buchsbaum(bundles):
    out = []
    for b in bundles:
        for field in FIELDS:
            if b.cm_reisner(field) != b.cm_ab(field):
                out.append(f"{b.name}[{field}]")
    return out


def check_eagon_reiner(bundles):
    out = []
    for b in bundles:
        if b.dual.is_void:
            continue
        for field in FIELDS:
            linear = linear_resolution_degree(b.table(field)) is not None
            from srlab.resolution import is_cm_reisner

            if linear != is_cm_reisner(b.dual, field).cm:
                out.append(f"{b.name}[{field}]")
    return out


def check_linear_hilbert_oracle_agreement(bundles):
    # whenever the table is s-linear, the Hilbert readback reproduces it
    out = []
    for b in bundles:
        s = b.linear_q
        if not s:
            continue
        h = hilbert_from_fvector(b.fv, b.c.n)
        try:
            t = betti_from_linear_hilbert(h, s)
        except ValueError:
            out.append(b.name)
            continue
        if t.entries != b.table_q.entries:
            out.append(b.name)
    return out


def check_froberg(graphs):
    out = []
    for name, g in graphs:
        for field in FIELDS:
            if not froberg_check(g, field).consistent:
                out.append(f"{name}[{field}]")
    return out


def check_vd_shellable_cm_chain(bundles):
    """vertex decomposable implies shellable implies CM (over every field)."""
    from srlab.complexes import is_pure

    out = []
    for b in bundles:
        if b.c.is_void or not is_pure(b.c):
            continue
        v = is_vertex_decomposable(b.c)
        shellable = None
        if v.holds:
            order = shelling_order_from_vd(b.c, v.witness)
            if not is_valid_shelling(b.c, order):
                out.append(f"{b.name}: vd witness does not shell")
                continue
            shellable = True
        elif len(b.c.facets) <= 12:
            shellable = is_pure_shellable(b.c).holds
        if shellable:
            for field in FIELDS:
                if not b.cm_reisner(field):
                    out.append(f"{b.name}[{field}]: shellable but not CM")
    return out


def check_field_independence(bundles):
    """Report profiles that differ between Q and GF(2); torsion would be legal
    but none occurs in the family corpus."""
    out = []
    for b in bundles:
        if b.c.is_void:
            continue
        q = homology_dims_from_facets(b.c.facets, RATIONALS)
        f2 = homology_dims_from_facets(b.c.facets, GF2)
        if q != f2:
            out.append(f"{b.name}: Q={q} GF2={f2}")
    return out


def check_cover_facet_counts(graphs, max_k=4):
    out = []
    for name, g in graphs:
        for k in range(1, min(g.n, max_k) + 1):
            c = cover_complex(g, k)
            if len(c.facets) != len(independent_sets(g, k)):
                out.append(f"{name},k={k}")
    return out


ALL_SUITES = (
    ("duality involution", check_duality_involution),
    ("dual f-vector formula", check_dual_fvector),
    ("dual ideal generators", check_dual_generators),
    ("Hilbert-Betti alternating sum", check_hilbert_betti_identity),
    ("Reisner vs Auslander-Buchsbaum", check_reisner_vs_auslander_buchsbaum),
    ("Eagon-Reiner equivalence", check_eagon_reiner),
    ("linear Hilbert readback", check_linear_hilbert_oracle_agreement),
    ("VD => shellable => CM", check_vd_shellable_cm_chain),
)
