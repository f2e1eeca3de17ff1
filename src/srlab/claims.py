"""Executable catalog of the documented closed-form claims for each graph
family, and the discrepancy report.

Every record binds a family of complexes to expected values (stored as
closed-form evaluators, not literal tables) and checks them against the
exact Betti tables of betti_hochster: read off a shelling of the Alexander
dual where its stored facet order shells, and Hochster's sum elsewhere.
Where the recorded material contains two conflicting variants of one
statement, both variants are kept as separate records that point at each
other; the tables adjudicate and the loser feeds the discrepancy report.
Records whose expected status is "refuted" never fail a verification run;
they exist to document the discrepancy.

A runner takes only the field. It reads a complex's table, linear degree
and CM verdict through `scans._verdicts`, and checks what it expects of them
through `_require_ring`. A check that fails raises through `_require`, and
a runner that gets to its end returns a `ClaimOutcome`; `verify_claim`
turns either into the `ClaimResult`.

The conjecture scanners live in `srlab.scans`, which `srlab scan` loads
without this module; the two conjecture records run them, and this module
re-exports `scan_conjecture_Ln` and `scan_conjecture_L2n`. Only `srlab
verify` loads the catalog, and with it `srlab.structure`.
"""

from __future__ import annotations

import time
from math import comb
from typing import Callable, NamedTuple

from .bitsets import vertices_of
from .complexes import (
    alexander_dual,
    clique_complex,
    cover_complex,
    f_vector,
    join,
    make_complex,
    minimal_nonfaces,
    simplex_complex,
    skeleton,
)
from .graphs import (
    Graph,
    complete_bipartite,
    complete_prism,
    cycle,
    cycle_square,
    grid,
    path,
    path_square,
    points,
    star,
    tree_from_edges,
    wheel,
)
from .homology import GF2, RATIONALS, Field
from .resolution import (
    FatForestDecomposition,
    GradedBettiTable,
    betti_hochster,
    betti_product,
    fat_forest_hilbert,
    hilbert_from_fvector,
    is_gorenstein,
)
from .scans import PARTIAL, REFUTED, ScanReport, _verdicts, scan_conjecture_L2n, scan_conjecture_Ln
from .structure import froberg_check, is_fat_forest

CONFIRMED = "CONFIRMED"


class Discrepancy(NamedTuple):
    claim_id: str
    subject: str
    reference: str
    computed: str

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "subject": self.subject,
            "reference": self.reference,
            "computed": self.computed,
        }


class ClaimResult(NamedTuple):
    claim_id: str
    status: str
    field: str
    expected: str
    got: str
    seconds: float
    discrepancies: tuple[Discrepancy, ...] = ()
    note: str | None = None

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "status": self.status,
            "field": self.field,
            "expected": self.expected,
            "got": self.got,
            "seconds": round(self.seconds, 4),
            "discrepancies": [d.to_json() for d in self.discrepancies],
            "note": self.note,
        }


class ClaimOutcome(NamedTuple):
    """What a runner returns when it gets to its end.

    ok is None for finite evidence only (PARTIAL); discrepancies are
    (subject, reference, computed) triples, stamped with the claim id by
    verify_claim.
    """

    ok: bool | None
    expected: str
    got: str
    discrepancies: tuple[tuple[str, str, str], ...] = ()
    note: str | None = None


class _Refuted(Exception):
    """A runner's check failed; args are (expected, got). Only verify_claim catches it."""


def _require(ok: bool, expected: str, got: str) -> None:
    if not ok:
        raise _Refuted(expected, got)


class ClaimRecord(NamedTuple):
    claim_id: str
    family: str
    description: str
    expect_confirmed: bool
    runner: Callable[[Field], ClaimOutcome]
    counterpart: str | None = None


CLAIMS: dict[str, ClaimRecord] = {}


def _claim(claim_id: str, family: str, description: str, expect_confirmed: bool = True, counterpart: str | None = None):
    def deco(fn):
        CLAIMS[claim_id] = ClaimRecord(claim_id, family, description, expect_confirmed, fn, counterpart)
        return fn

    return deco


# ---------------------------------------------------------------------------
# Shared helpers

def _fmt_entries(entries: dict) -> str:
    return " ".join(f"b[{i},{j}]={b}" for (i, j), b in sorted(entries.items()))


def _clean(entries: dict) -> dict:
    out = {(0, 0): 1}
    out.update({k: v for k, v in entries.items() if v})
    return out


def _require_ring(cx, field, label: str, *, entries=None, linear=None, degree=None, cm=None) -> GradedBettiTable:
    """cx's Betti table over field, after checking each of entries (b[0,0]=1
    implied), linear, degree and cm that is given. A failure refutes with
    label, and got names the linear degree and CM verdict seen."""
    t, lin, is_cm = _verdicts(cx, field)
    seen = f"linear degree {lin}, CM={is_cm}"
    checks = []
    if entries is not None:
        entries = _clean(entries)
        checks.append((t.entries == entries, _fmt_entries(entries)))
        seen = f"{_fmt_entries(t.entries)}; {seen}"
    if linear is not None:
        checks.append(((lin is not None) == linear, "linear" if linear else "not linear"))
    if degree is not None:
        checks.append((lin == degree, f"{degree}-linear"))
    if cm is not None:
        checks.append((is_cm == cm, "CM" if cm else "not CM"))
    _require(all(ok for ok, _ in checks), f"{label}: " + ", ".join(w for _, w in checks), f"{label}: {seen}")
    return t


# ---------------------------------------------------------------------------
# Degree one


@_claim(
    "k1.theorem",
    "any",
    "with one vertex removed per facet, the face ring has the single relation "
    "x_1...x_n and the dual face ring is the field, with binomial Betti numbers",
)
def _k1(field):
    for n in (3, 4, 5, 6, 7, 8):
        for g in (cycle(n), star(n)):
            c = cover_complex(g, 1)
            _require_ring(c, field, f"n={n} primal", entries={(1, n): 1}, degree=n, cm=True)
            d = alexander_dual(c)
            _require(d.is_irrelevant, f"n={n}: dual is the irrelevant complex", str(d.facet_vertices()))
            exp = {(i, i): comb(n, i) for i in range(n + 1)}
            _require_ring(d, field, f"n={n} dual", entries=exp, degree=1, cm=True)
    return ClaimOutcome(True, "single-relation ring and field, binomial Betti", "confirmed")


@_claim(
    "skeleton.duality",
    "simplex",
    "the i-skeleton of a simplex on m vertices dualizes to the (m-i-3)-skeleton, "
    "is Cohen-Macaulay with a linear resolution, and its ideal is generated in degree i+2",
)
def _skel(field):
    for m in (3, 4, 5, 6, 7):
        S = simplex_complex(m)
        for i in range(-1, m - 1):
            sk = skeleton(S, i)
            _require(alexander_dual(sk) == skeleton(S, m - i - 3), f"m={m},i={i}: dual is the (m-i-3)-skeleton", "mismatch")
            t = _require_ring(sk, field, f"m={m},i={i}", linear=True, cm=True)
            gens = {j for (a, j) in t.entries if a == 1}
            _require(i >= m - 2 or gens == {i + 2}, f"m={m},i={i}: generators in degree i+2", str(sorted(gens)))
    return ClaimOutcome(True, "skeleton duality, CM, linearity, generator degree", "confirmed")


# ---------------------------------------------------------------------------
# Degree two generalities


@_claim(
    "trianglefree.dual",
    "any triangle-free",
    "for triangle-free graphs the dual of the degree-2 cover complex is the graph itself",
)
def _tfree(field):
    graphs = [cycle(4), cycle(5), cycle(7), complete_bipartite(2, 3), complete_bipartite(3, 3), path(6), star(6), grid(2, 3)]
    for g in graphs:  # the graph as a complex: its edges, and its isolated vertices as points
        edges = [1 << u | 1 << v for u, a in enumerate(g.adj) for v in range(u) if a >> v & 1]
        _require(alexander_dual(cover_complex(g, 2)) == make_complex(g.n, edges + [1 << u for u in range(g.n)]),
                 "dual equals the graph", "mismatch")
    return ClaimOutcome(True, "dual of degree-2 cover complex is the graph", "confirmed")


@_claim(
    "froberg.equivalence",
    "any",
    "2-linear resolution of a clique complex, chordality, and the fat-forest "
    "property coincide",
)
def _frob(field):
    graphs = [path(6), star(6), cycle(4), cycle(6), cycle_square(6), cycle_square(7), path_square(7), grid(2, 3), complete_bipartite(2, 3), complete_bipartite(3, 3), complete_prism(3)]
    for g in graphs:
        r = froberg_check(g, field)
        _require(r.consistent, "three-way agreement", f"chordal={r.chordal} 2lin={r.two_linear} fat={r.fat_forest}")
    return ClaimOutcome(True, "chordal = 2-linear = fat forest on the sample", "confirmed")


@_claim(
    "fatforest.hilbert",
    "any",
    "the Hilbert series of a fat forest is the signed sum of simplex and overlap terms",
)
def _fat_hilb(field):
    complexes = [clique_complex(path(6)), clique_complex(path_square(7)), clique_complex(star(5)), cover_complex(path(6), 3)]
    for c in complexes:
        v = is_fat_forest(c, override=True)
        _require(v.holds, "sample complexes are fat forests", "not a fat forest")
        _, decomp = v.witness
        _require(fat_forest_hilbert(decomp, c.n) == hilbert_from_fvector(f_vector(c), c.n),
                 "decomposition series equals f-vector series", "mismatch")
    return ClaimOutcome(True, "fat-forest Hilbert formula", "confirmed")


# ---------------------------------------------------------------------------
# Isolated points


@_claim(
    "points.theorem",
    "P",
    "cover complexes of edgeless graphs and their duals are skeleta, hence CM with linear resolutions",
)
def _pn_thm(field):
    for n in (4, 5, 6, 7):
        for k in range(2, min(n, 5)):
            c = cover_complex(points(n), k)
            d = alexander_dual(c)
            for label, cx in (("primal", c), ("dual", d)):
                _require_ring(cx, field, f"n={n},k={k} {label}", linear=True, cm=True)
    return ClaimOutcome(True, "both sides CM with linear resolutions", "confirmed")


@_claim(
    "points.k2.example",
    "P",
    "for n isolated points and degree 2: b[1,n-1]=n, b[2,n]=n-1 on the cover side "
    "and b[i,i+1]=n*C(n-1,i)-C(n,i+1) on the dual side",
)
def _pn_ex(field):
    for n in (4, 5, 6, 7, 8):
        c = cover_complex(points(n), 2)
        _require_ring(c, field, f"n={n} primal", entries={(1, n - 1): n, (2, n): n - 1})
        exp = {(i, i + 1): n * comb(n - 1, i) - comb(n, i + 1) for i in range(1, n)}
        _require_ring(alexander_dual(c), field, f"n={n} dual", entries=exp)
    return ClaimOutcome(True, "stated Betti values", "confirmed")


@_claim(
    "points.k2.numerator-as-printed",
    "P",
    "recorded numerator for the degree-2 cover side repeats the exponent n-1 on "
    "both correction terms; the Betti list in the same place forces t^n",
    expect_confirmed=False,
    counterpart="points.k2.example",
)
def _pn_numer(field):
    n = 5
    c = cover_complex(points(n), 2)
    h = hilbert_from_fvector(f_vector(c), n)
    printed = (1,) + (0,) * (n - 2) + (-1,)  # both correction terms land on t^(n-1)
    disc = (
        f"numerator of the degree-2 cover series, n={n}",
        "1 - n t^(n-1) + (n-1) t^(n-1)",
        f"computed numerator {list(h.numerator)} = 1 - n t^(n-1) + (n-1) t^n",
    )
    return ClaimOutcome(tuple(h.numerator) == printed,
                        "printed numerator with duplicated exponent", f"{list(h.numerator)}", (disc,))


# ---------------------------------------------------------------------------
# Trees


def _tree_samples(n: int) -> list[Graph]:
    out = [path(n), star(n)]
    if n >= 6:
        # a spider: one center, one long leg
        edges = [(1, 2), (2, 3)] + [(3, j) for j in range(4, n + 1)]
        out.append(tree_from_edges(n, edges))
    return out


@_claim(
    "tree.theorem",
    "TreeEdges",
    "for a tree on n vertices both the tree ring and its degree-2 cover ring are CM "
    "with linear resolutions; cover side has b[1,n-2]=n-1, b[2,n-1]=n-2, and all "
    "trees of one size share a single Betti table on both sides",
)
def _tree_thm(field):
    for n in (4, 5, 6, 7):
        seen_primal = set()
        seen_tree = set()
        for tgraph in _tree_samples(n):
            tt = _require_ring(clique_complex(tgraph), field, f"n={n} tree", linear=True, cm=True)
            exp = {(1, n - 2): n - 1, (2, n - 1): n - 2}
            tv = _require_ring(cover_complex(tgraph, 2), field, f"n={n} cover", entries=exp, linear=True, cm=True)
            seen_primal.add(tuple(tv.sorted_items()))
            seen_tree.add(tuple(tt.sorted_items()))
        _require(len(seen_primal) == 1 and len(seen_tree) == 1,
                 f"n={n}: one shared Betti table per side", "tables differ between trees")
    return ClaimOutcome(True, "CM, linear, stated values, shared tables", "confirmed")


def _tree_dual_proof_formula(n: int) -> dict:
    return {(i, i + 1): n * comb(n - 1, i) - comb(n, i + 1) - (n - 1) * comb(n - 2, i - 1) for i in range(1, n)}


@_claim(
    "tree.dual-betti.proof-variant",
    "TreeEdges",
    "tree-ring Betti numbers b[i,i+1] = n*C(n-1,i) - C(n,i+1) - (n-1)*C(n-2,i-1), "
    "the derivation-side closed form (sign-normalized)",
)
def _tree_dual_proof(field):
    for n in (4, 5, 6, 7):
        _require_ring(clique_complex(path(n)), field, f"n={n}", entries=_tree_dual_proof_formula(n))
    return ClaimOutcome(True, "derivation-side closed form", "confirmed")


@_claim(
    "tree.dual-betti.as-stated",
    "TreeEdges",
    "tree-ring Betti numbers as stated, b[i,i+1] = (n-2)*C(n-2,i+1) + C(n-2,i+1)",
    expect_confirmed=False,
    counterpart="tree.dual-betti.proof-variant",
)
def _tree_dual_stated(field):
    n = 5
    t = betti_hochster(clique_complex(path(n)), field)
    stated = _clean({(i, i + 1): (n - 1) * comb(n - 2, i + 1) for i in range(1, n)})
    disc = (
        f"tree-ring Betti closed form, n={n}",
        "(n-2)C(n-2,i+1) + C(n-2,i+1)",
        f"oracle {_fmt_entries(t.entries)} matches n*C(n-1,i) - C(n,i+1) - (n-1)*C(n-2,i-1)",
    )
    return ClaimOutcome(t.entries == stated, "stated additive closed form", _fmt_entries(t.entries), (disc,))


# ---------------------------------------------------------------------------
# Stars


@_claim(
    "star.theorem",
    "S",
    "cover complexes of stars and their duals are polynomial extensions of skeleta, "
    "hence CM with linear resolutions",
)
def _star_thm(field):
    for n in (5, 6, 7):
        for k in range(2, n):
            c = cover_complex(star(n), k)
            d = alexander_dual(c)
            for label, cx in (("primal", c), ("dual", d)):
                _require_ring(cx, field, f"n={n},k={k} {label}", linear=True, cm=True)
    return ClaimOutcome(True, "both sides CM with linear resolutions", "confirmed")


@_claim(
    "star6.example.k3",
    "S",
    "the six-vertex star at degree 3: both the cover ring and its dual have Betti "
    "numbers b[1,3]=10, b[2,4]=15, b[3,5]=6",
)
def _s6_k3(field):
    c = cover_complex(star(6), 3)
    exp = {(1, 3): 10, (2, 4): 15, (3, 5): 6}
    _require_ring(c, field, "primal", entries=exp)
    _require_ring(alexander_dual(c), field, "dual", entries=exp)
    return ClaimOutcome(True, "primal; dual", "all tables match")


@_claim(
    "star6.example.as-stated",
    "S",
    "the same values recorded under degree 2 instead of degree 3",
    expect_confirmed=False,
    counterpart="star6.example.k3",
)
def _s6_k2(field):
    c = cover_complex(star(6), 2)
    t = betti_hochster(c, field)
    exp = _clean({(1, 3): 10, (2, 4): 15, (3, 5): 6})
    disc = (
        "degree index of the six-vertex star example",
        "values (10,15,6) attributed to degree 2",
        f"degree-2 oracle gives {_fmt_entries(t.entries)}; the values match degree 3",
    )
    return ClaimOutcome(t.entries == exp, "(10,15,6) at degree 2", _fmt_entries(t.entries), (disc,))


@_claim(
    "path6.example.as-stated",
    "L",
    "recorded six-vertex path figures at degree 3: cover Betti (9,18,15,6,1) from "
    "degree 2 upward, dual b[1,3]=2, b[2,6]=1, and a cover ring that is linear but not CM",
    expect_confirmed=False,
    counterpart="conjecture.Ln",
)
def _l6_stated(field):
    c = cover_complex(path(6), 3)
    t, lin, cm = _verdicts(c, field)
    td = betti_hochster(alexander_dual(c), field)
    stated_primal = _clean({(1, 2): 9, (2, 3): 18, (3, 4): 15, (4, 5): 6, (5, 6): 1})
    stated_dual = _clean({(1, 3): 2, (2, 6): 1})
    discs = (
        (
            "six-vertex path, degree-3 cover ring Betti",
            "(9,18,15,6,1) in degrees 2..6",
            f"oracle {_fmt_entries(t.entries)}",
        ),
        (
            "six-vertex path, degree-3 dual Betti",
            "b[1,3]=2, b[2,6]=1",
            f"oracle {_fmt_entries(td.entries)}; the path has four independent 3-sets",
        ),
        (
            "six-vertex path, degree-3 cover ring Cohen-Macaulayness",
            "linear resolution but not CM",
            f"oracle: linear degree {lin} and CM={cm}",
        ),
    )
    ok = t.entries == stated_primal and td.entries == stated_dual and not cm
    got = f"primal {_fmt_entries(t.entries)}; dual {_fmt_entries(td.entries)}; CM={cm}"
    return ClaimOutcome(ok, "stated path figures", got, discs)


# ---------------------------------------------------------------------------
# Prisms over complete graphs


@_claim(
    "prism.theorem",
    "K2xKn",
    "the 2x2 case: cover Betti (1,4,4,1), dual a complete intersection with Betti "
    "(1,2,1); for larger n neither the cover ring nor its dual is CM or linear",
)
def _prism(field):
    c = cover_complex(complete_prism(2), 2)
    d = alexander_dual(c)
    _require_ring(c, field, "2x2 primal", entries={(1, 2): 4, (2, 3): 4, (3, 4): 1})
    _require_ring(d, field, "2x2 dual", entries={(1, 2): 2, (2, 4): 1})
    _require(sorted(map(vertices_of, d.facets)) == [(1, 2), (1, 3), (2, 4), (3, 4)],
             "dual facets {x1x2},{x2y2},{y1y2},{x1y1}", str(d.facet_vertices()))
    for n in (3, 4):
        c = cover_complex(complete_prism(n), 2)
        d = alexander_dual(c)
        for label, cx in (("primal", c), ("dual", d)):
            _require_ring(cx, field, f"n={n} {label}", linear=False, cm=False)
    return ClaimOutcome(True, "2x2 tables and negative verdicts beyond", "confirmed")


# ---------------------------------------------------------------------------
# Complete bipartite graphs


@_claim(
    "join.lemma",
    "any",
    "the Betti table of a join is the convolution of the factor tables, and a join "
    "of two rings with a-linear resolutions (a > 1) is never linear",
)
def _join_lemma(field):
    pairs = [
        (make_complex(2, [1, 2]), make_complex(2, [1, 2])),
        (clique_complex(path(3)), make_complex(2, [1, 2])),
        (skeleton(simplex_complex(4), 1), skeleton(simplex_complex(4), 1)),
        (clique_complex(cycle(4)), make_complex(3, [3, 6])),
    ]
    for a, b in pairs:
        tj, sj, _ = _verdicts(join(a, b), field)
        prod = betti_product(betti_hochster(a, field), betti_hochster(b, field))
        _require(tj.entries == prod.entries,
                 "join table equals product", f"{_fmt_entries(tj.entries)} vs {_fmt_entries(prod.entries)}")
        sa, sb = (_verdicts(x, field)[1] for x in (a, b))
        _require(not (sa and sb and sa > 1 and sb > 1 and sj is not None),
                 "join of a-linear factors (a>1) not linear", f"factor degrees {sa}, {sb}; join linear degree {sj}")
    return ClaimOutcome(True, "product rule and non-linearity of joins", "confirmed")


@_claim(
    "bipartite.dual.adjudicated",
    "Kmn",
    "dual cover rings of complete bipartite graphs are always CM; the resolution is "
    "linear exactly when the degree exceeds the smaller side (k > m)",
)
def _kmn_adj(field):
    for m, n, k in ((2, 2, 2), (2, 3, 2), (2, 3, 3), (2, 4, 3), (3, 3, 2), (3, 3, 3), (3, 4, 3)):
        d = alexander_dual(cover_complex(complete_bipartite(m, n), k))
        _require_ring(d, field, f"K({m},{n}) k={k} dual", linear=k > m, cm=True)
    return ClaimOutcome(True, "dual CM always; linear iff k > m", "confirmed")


@_claim(
    "bipartite.dual.as-stated",
    "Kmn",
    "as stated: dual linear when m <= k <= n; refuted on the boundary m = k",
    expect_confirmed=False,
    counterpart="bipartite.dual.adjudicated",
)
def _kmn_stated(field):
    m = n = k = 2
    lin = _verdicts(alexander_dual(cover_complex(complete_bipartite(m, n), k)), field)[1] is not None
    disc = (
        f"linearity boundary for complete bipartite duals at m=k (m=n=k={m})",
        "linear resolution whenever m <= k <= n",
        f"oracle: at m=k the dual ideal keeps a generator on the small side; linear={lin}; boundary is k > m",
    )
    return ClaimOutcome(lin, "linear at m = k", f"linear={lin}", (disc,))


@_claim(
    "k44.example",
    "Kmn",
    "the 4x4 bipartite graph at degree 3: the cover ring is 4-linear with Betti "
    "(36,96,100,48,9) and the dual is the product of two skeleton rings, not linear",
)
def _k44(field):
    c = cover_complex(complete_bipartite(4, 4), 3)
    exp = {(1, 4): 36, (2, 5): 96, (3, 6): 100, (4, 7): 48, (5, 8): 9}
    _require_ring(c, field, "primal", entries=exp, degree=4)
    td, sd, _ = _verdicts(alexander_dual(c), field)
    factor = betti_hochster(skeleton(simplex_complex(4), 1), field)
    _require(td.entries == betti_product(factor, factor).entries and sd is None,
             "dual table is the square of the skeleton table, not linear",
             f"{_fmt_entries(td.entries)}; linear degree {sd}")
    return ClaimOutcome(True, "4-linear values and product dual", "confirmed")


@_claim(
    "bipartite.k2.example",
    "Kmn",
    "degree-2 cover rings of complete bipartite graphs (both sides > 2) are "
    "(m+n-2)-linear with b1=mn, b2=2mn-m-n, b3=mn-m-n+1, and not CM",
)
def _kmn_k2(field):
    for m, n in ((3, 3), (3, 4)):
        c = cover_complex(complete_bipartite(m, n), 2)
        exp = {(1, m + n - 2): m * n, (2, m + n - 1): 2 * m * n - m - n, (3, m + n): m * n - m - n + 1}
        _require_ring(c, field, f"K({m},{n})", entries=exp, degree=m + n - 2, cm=False)
    return ClaimOutcome(True, "stated degree-2 bipartite values", "confirmed")


# ---------------------------------------------------------------------------
# Paths


@_claim(
    "path.2k-1.theorem",
    "L",
    "at n = 2k-1 the path cover ring is CM with a linear resolution; its dual ideal "
    "is principal on the odd-position product",
)
def _l2k1(field):
    for k in (2, 3, 4):
        n = 2 * k - 1
        c = cover_complex(path(n), k)
        gens = [vertices_of(m) for m in minimal_nonfaces(alexander_dual(c))]
        _require(gens == [tuple(range(1, n + 1, 2))], f"k={k}: single odd-position generator", str(gens))
        _require_ring(c, field, f"k={k}", linear=True, cm=True)
    return ClaimOutcome(True, "principal dual ideal; CM and linear", "confirmed")


# ---------------------------------------------------------------------------
# Cycles and wheels


@_claim(
    "wheel.reduction",
    "W",
    "adding a dominating hub leaves every cover ring Betti table unchanged, "
    "and likewise for the duals",
)
def _wheel(field):
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        a = cover_complex(cycle(n), k)
        b = cover_complex(wheel(n), k)
        _require(betti_hochster(a, field).entries == betti_hochster(b, field).entries,
                 f"C{n} vs hub graph, k={k}", "tables differ")
        _require(betti_hochster(alexander_dual(a), field).entries == betti_hochster(alexander_dual(b), field).entries,
                 f"C{n} vs hub graph duals, k={k}", "tables differ")
    return ClaimOutcome(True, "hub leaves Betti tables unchanged", "confirmed")


def _cycle_binomial(n: int) -> dict:
    exp = {(i, i + 1): n * comb(n - 1, i) - comb(n, i + 1) - n * comb(n - 2, i - 1) for i in range(1, n - 2)}
    exp[(n - 2, n)] = 1
    return exp


@_claim(
    "cycle.betti.adjudicated",
    "C",
    "the cycle ring is Gorenstein with b[i,i+1] = n*C(n-1,i) - C(n,i+1) - n*C(n-2,i-1) "
    "and top Betti number 1; the degree-2 cover side is (n-2)-linear with Betti (n, n, 1)",
)
def _cycle_adj(field):
    for n in (4, 5, 6, 7):
        cy = clique_complex(cycle(n))
        t = _require_ring(cy, field, f"C{n} ring", entries=_cycle_binomial(n))
        _require(is_gorenstein(cy, t), f"C{n} Gorenstein", "not Gorenstein")
        exp = {(1, n - 2): n, (2, n - 1): n, (3, n): 1}
        _require_ring(cover_complex(cycle(n), 2), field, f"C{n} cover", entries=exp, degree=n - 2)
    return ClaimOutcome(True, "Gorenstein binomial table; cover side (n,n,1)", "confirmed")


@_claim(
    "cycle.betti.as-stated",
    "C",
    "as stated the binomial formula is attached to the cover side and (n,n,1) to the "
    "cycle ring; the two assignments are swapped",
    expect_confirmed=False,
    counterpart="cycle.betti.adjudicated",
)
def _cycle_stated(field):
    n = 5
    cy = clique_complex(cycle(n))
    cv = cover_complex(cycle(n), 2)
    t, tv = betti_hochster(cy, field), betti_hochster(cv, field)
    stated_ring = _clean({(1, n - 2): n, (2, n - 1): n, (3, n): 1})
    stated_cover = _clean(_cycle_binomial(n))
    disc = (
        f"assignment of the two cycle Betti formulas, n={n}",
        "(n,n,1) on the cycle ring; binomial formula on the cover side",
        f"oracle: cycle ring {_fmt_entries(t.entries)}; cover side {_fmt_entries(tv.entries)}; "
        "the assignments are swapped",
    )
    ok = t.entries == stated_ring and tv.entries == stated_cover
    return ClaimOutcome(ok, "stated assignment", "swapped by oracle", (disc,))


@_claim(
    "even-cycle.top-degree.adjudicated",
    "C",
    "for the 2k-cycle at degree k the dual ideal is the pair of alternating products: "
    "a complete intersection, CM but not linear; the cover ring is linear but not CM",
)
def _c2k_adj(field):
    for k in (2, 3, 4):
        n = 2 * k
        c = cover_complex(cycle(n), k)
        d = alexander_dual(c)
        gens = [vertices_of(m) for m in minimal_nonfaces(d)]
        _require(gens == [tuple(range(1, n, 2)), tuple(range(2, n + 1, 2))],
                 f"k={k}: alternating-product generators", str(gens))
        _require_ring(d, field, f"k={k} dual", linear=False, cm=True)
        _require_ring(c, field, f"k={k} cover", linear=True, cm=False)
    return ClaimOutcome(True, "dual CM-not-linear; cover linear-not-CM", "confirmed")


@_claim(
    "even-cycle.top-degree.as-stated",
    "C",
    "as stated the dual ring itself is called linear but not CM; its own derivation "
    "shows the opposite split",
    expect_confirmed=False,
    counterpart="even-cycle.top-degree.adjudicated",
)
def _c2k_stated(field):
    k = 3
    _, degree, cm = _verdicts(alexander_dual(cover_complex(cycle(2 * k), k)), field)
    lin = degree is not None
    disc = (
        f"which ring of the 2k-cycle pair is linear, k={k}",
        "dual ring linear but not CM",
        f"oracle: dual ring CM={cm}, linear={lin}; the cover ring carries the linear resolution",
    )
    return ClaimOutcome(lin and not cm, "dual linear, not CM", f"dual CM={cm} linear={lin}", (disc,))


@_claim(
    "cycle8.degree4.example",
    "C",
    "the 8-cycle at degree 4 has total Betti numbers (1,16,48,68,56,28,8,1) in "
    "degrees j = i+1",
)
def _c8(field):
    totals = (1, 16, 48, 68, 56, 28, 8, 1)
    _require_ring(cover_complex(cycle(8), 4), field, "cover", entries={(i, i + 1): totals[i] for i in range(1, 8)})
    return ClaimOutcome(True, "cover", "all tables match")


# ---------------------------------------------------------------------------
# Squared cycles and squared paths


@_claim(
    "cycle-squared.theorem",
    "C2",
    "the squared 6-cycle at degree 2 is 3-linear with Betti (8,12,6,1) and not CM; "
    "its clique complex (the octahedron) is CM and not linear; beyond 6 vertices "
    "neither ring is CM or linear",
)
def _c2n(field):
    exp = {(1, 3): 8, (2, 4): 12, (3, 5): 6, (4, 6): 1}
    _require_ring(cover_complex(cycle_square(6), 2), field, "n=6 cover", entries=exp, degree=3, cm=False)
    _require_ring(clique_complex(cycle_square(6)), field, "octahedron", linear=False, cm=True)
    for n in (7, 8):
        _require_ring(cover_complex(cycle_square(n), 2), field, f"n={n} cover", linear=False, cm=False)
    return ClaimOutcome(True, "six-vertex tables and negative verdicts beyond", "confirmed")


@_claim(
    "path-squared.adjudicated",
    "L2",
    "squared paths at degree 2: the clique complex is a fat tree, 2-linear with "
    "b[i,i+1] = (n-3)*C(n-3,i) - C(n-3,i+1) and CM; the cover side is CM and "
    "(n-3)-linear with b[1,n-3] = n-2, b[2,n-2] = n-3",
)
def _l2n_adj(field):
    for n in (5, 6, 7, 8):
        cc = clique_complex(path_square(n))
        exp = {(i, i + 1): (n - 3) * comb(n - 3, i) - comb(n - 3, i + 1) for i in range(1, n)}
        _require_ring(cc, field, f"n={n} clique", entries=exp, cm=True)
        exp = {(1, n - 3): n - 2, (2, n - 2): n - 3}
        _require_ring(cover_complex(path_square(n), 2), field, f"n={n} cover", entries=exp, cm=True)
        h = fat_forest_hilbert(FatForestDecomposition((2,) * (n - 2), (1,) * (n - 3)), n)
        _require(h == hilbert_from_fvector(f_vector(cc), n), f"n={n}: fat-tree Hilbert series", "mismatch")
    return ClaimOutcome(True, "clique and cover tables, CM, fat-tree series", "confirmed")


@_claim(
    "path-squared.as-stated",
    "L2",
    "as stated the two squared-path Betti descriptions are attached to the opposite "
    "rings, and the final sentence shifts the cover-side degrees by one",
    expect_confirmed=False,
    counterpart="path-squared.adjudicated",
)
def _l2n_stated(field):
    n = 6
    cc = clique_complex(path_square(n))
    cv = cover_complex(path_square(n), 2)
    tcc, tcv = betti_hochster(cc, field), betti_hochster(cv, field)
    stated_clique = _clean({(1, n - 2): n - 2, (2, n - 1): n - 3})
    disc = (
        f"assignment of the squared-path Betti descriptions, n={n}",
        "clique complex with b[1,n-2]=n-2, b[2,n-1]=n-3; cover side with the quadratic-degree formula",
        f"oracle: clique side {_fmt_entries(tcc.entries)} (degrees i+1); cover side {_fmt_entries(tcv.entries)} "
        f"(values n-2, n-3 at degrees n-3, n-2, one lower than stated)",
    )
    return ClaimOutcome(tcc.entries == stated_clique,
                        "stated assignment and degrees", "swapped and shifted by oracle", (disc,))


@_claim(
    "path-squared.degree3.example",
    "L2",
    "the squared 8-path at degree 3: cover Betti b[1,2]=6, b[2,3]=8, b[3,4]=3 and "
    "dual Betti b[1,3]=4, b[2,4]=3",
)
def _l2_8(field):
    c = cover_complex(path_square(8), 3)
    _require_ring(c, field, "cover", entries={(1, 2): 6, (2, 3): 8, (3, 4): 3})
    _require_ring(alexander_dual(c), field, "dual", entries={(1, 3): 4, (2, 4): 3})
    return ClaimOutcome(True, "cover; dual", "all tables match")


@_claim(
    "thirds.theorem",
    "C2",
    "at degree k the squared 3k-cycle ring is linear and not CM while the squared "
    "(3k-2)-path ring is linear and CM; the dual ideals are the arithmetic-progression products",
)
def _thirds(field):
    for k in (2, 3):
        a = cover_complex(cycle_square(3 * k), k)
        b = cover_complex(path_square(3 * k - 2), k)
        gens_a = [vertices_of(m) for m in minimal_nonfaces(alexander_dual(a))]
        _require(gens_a == [tuple(range(1, 3 * k + 1, 3)), tuple(range(2, 3 * k + 1, 3)), tuple(range(3, 3 * k + 1, 3))],
                 f"k={k}: three progression generators", str(gens_a))
        gens_b = [vertices_of(m) for m in minimal_nonfaces(alexander_dual(b))]
        _require(gens_b == [tuple(range(1, 3 * k - 1, 3))], f"k={k}: principal progression generator", str(gens_b))
        _require_ring(a, field, f"k={k} squared-cycle ring", linear=True, cm=False)
        _require_ring(b, field, f"k={k} squared-path ring", linear=True, cm=True)
    return ClaimOutcome(True, "progression ideals; linearity and CM split", "confirmed")


@_claim(
    "cycle-squared9.degree3.example",
    "C2",
    "the squared 9-cycle at degree 3 has total Betti numbers (1,27,81,108,81,36,9,1)",
)
def _c2_9(field):
    t = betti_hochster(cover_complex(cycle_square(9), 3), field)
    got = t.totals()
    exp = (1, 27, 81, 108, 81, 36, 9, 1)
    return ClaimOutcome(got == exp, str(exp), str(got))


@_claim(
    "path-squared10.degree4.example",
    "L2",
    "the squared 10-path at degree 4 has a single facet, so its Betti numbers are "
    "binomials b[i,i] = C(4,i); the companion figure for disconnected-set complexes "
    "is outside this library's scope",
)
def _l2_10(field):
    c = cover_complex(path_square(10), 4)
    t = betti_hochster(c, field)
    exp = {(i, i): comb(4, i) for i in range(5)}
    return ClaimOutcome(t.entries == exp, _fmt_entries(exp), _fmt_entries(t.entries))


# ---------------------------------------------------------------------------
# Grids


@_claim(
    "grid.adjudicated",
    "Grid",
    "degree-2 grid cover rings are linear with b1=2mn-m-n, b2=3mn-2m-2n, "
    "b3=mn-m-n+1 and not CM; the grid ring itself is CM and not linear",
)
def _grid_adj(field):
    for m, n in ((2, 2), (2, 3), (3, 3)):
        g = grid(m, n)
        exp = {(1, m * n - 2): 2 * m * n - m - n, (2, m * n - 1): 3 * m * n - 2 * m - 2 * n, (3, m * n): m * n - m - n + 1}
        _require_ring(cover_complex(g, 2), field, f"{m}x{n} cover", entries=exp, linear=True, cm=False)
        _require_ring(clique_complex(g), field, f"{m}x{n} grid ring", linear=False, cm=True)
    return ClaimOutcome(True, "grid cover values with b3 = mn-m-n+1", "confirmed")


@_claim(
    "grid.as-stated",
    "Grid",
    "third Betti number recorded as mn-m-n-1, negative already at 2x2",
    expect_confirmed=False,
    counterpart="grid.adjudicated",
)
def _grid_stated(field):
    m, n = 2, 3
    t = betti_hochster(cover_complex(grid(m, n), 2), field)
    got = t.entries.get((3, m * n), 0)
    stated = m * n - m - n - 1
    disc = (
        f"third Betti number of the {m}x{n} grid cover ring",
        f"mn-m-n-1 = {stated}",
        f"oracle b[3,{m * n}] = {got} = mn-m-n+1",
    )
    return ClaimOutcome(got == stated, f"b3 = {stated}", f"b3 = {got}", (disc,))


# ---------------------------------------------------------------------------
# Conjecture scans (srlab.scans)


def _conj(rep: ScanReport) -> ClaimOutcome:
    got = f"{len(rep.cells)} cells scanned, {len(rep.counterexamples)} counterexamples"
    ok = None if not rep.counterexamples else False
    return ClaimOutcome(ok, "no counterexample in range", got, note="conjecture scan; finite evidence only")


@_claim(
    "conjecture.Ln",
    "L",
    "conjecture scan: path cover rings are CM with linear resolutions for all n >= 2k-1",
)
def _conj_ln(field):
    return _conj(scan_conjecture_Ln((2, 3), (3, 9), (field,)))


@_claim(
    "conjecture.L2n",
    "L2",
    "conjecture scan: squared-path cover rings and their duals are CM with linear resolutions",
)
def _conj_l2n(field):
    return _conj(scan_conjecture_L2n((2, 3), (3, 8), (field,)))


# ---------------------------------------------------------------------------
# Public API


def verify_claim(claim_id: str, field: Field = RATIONALS) -> ClaimResult:
    """Run one claim record against the oracle over the given field."""
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim {claim_id!r}; known: {sorted(CLAIMS)}")
    t0 = time.time()
    try:
        out = CLAIMS[claim_id].runner(field)
    except _Refuted as refuted:
        out = ClaimOutcome(False, *refuted.args)
    secs = time.time() - t0
    status = PARTIAL if out.ok is None else (CONFIRMED if out.ok else REFUTED)
    discs = tuple(Discrepancy(claim_id, *d) for d in out.discrepancies)
    return ClaimResult(claim_id, status, str(field), out.expected, out.got, secs, discs, out.note)


def verify_all(fields=(RATIONALS, GF2)) -> list[ClaimResult]:
    """Run every claim over every field; results sorted by claim id then field."""
    out = []
    for cid in sorted(CLAIMS):
        for f in fields:
            out.append(verify_claim(cid, f))
    return out


def has_unexpected_refutation(results: list[ClaimResult]) -> bool:
    return any(r.status == REFUTED and CLAIMS[r.claim_id].expect_confirmed for r in results)


def cross_field_summary(results: list[ClaimResult]) -> list[dict]:
    """Per-claim aggregate over the fields that were run.

    Confirmation requires agreement across every field; disagreement
    downgrades the claim to PARTIAL with the per-field verdicts listed.
    """
    by_claim: dict[str, list[ClaimResult]] = {}
    for r in results:
        by_claim.setdefault(r.claim_id, []).append(r)
    out = []
    for cid in sorted(by_claim):
        statuses = {r.field: r.status for r in by_claim[cid]}
        vals = set(statuses.values())
        agg = vals.pop() if len(vals) == 1 else PARTIAL
        out.append({"claim": cid, "status": agg, "fields": statuses})
    return out


def discrepancies_of(results) -> list[Discrepancy]:
    """The discrepancies that the refutation-on-record claims among results
    carry; stable ordering by claim then subject."""
    out = [d for r in results if not CLAIMS[r.claim_id].expect_confirmed for d in r.discrepancies]
    return sorted(out, key=lambda d: (d.claim_id, d.subject))


def discrepancy_report(field: Field = RATIONALS) -> list[Discrepancy]:
    """Every recorded locus where the oracle disagrees with a stated value,
    with both values side by side; stable ordering by claim then subject."""
    return discrepancies_of(verify_claim(cid, field) for cid, rec in CLAIMS.items() if not rec.expect_confirmed)
