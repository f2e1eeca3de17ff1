"""Reference values and result checks, computed without importing srlab.

Graphs are rebuilt from their definitions, faces are counted on a bitmap of
all 2^n vertex subsets (held in one Python integer), and every check names
the input and the fact that failed. A check returns a list of failure
messages; an empty list means the result passed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

FIELD_Q = "Q"


# ---------------------------------------------------------------------------
# Graphs, as edge lists on 1..n


def family_graph(family: str, n: int, m: int | None = None) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, edges) of a named family, labelled as the paper does."""
    if family == "P":
        return n, []
    if family == "L":
        return n, [(i, i + 1) for i in range(1, n)]
    if family == "L2":
        return n, [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]
    if family in ("C", "C2"):
        offsets = (1,) if family == "C" else (1, 2)
        edges = {tuple(sorted((i, (i + d - 1) % n + 1))) for i in range(1, n + 1) for d in offsets}
        return n, sorted(e for e in edges if e[0] != e[1])
    if family == "Kmn":
        return m + n, [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)]
    if family == "Grid":
        def num(i, j):
            return (i - 1) * n + j

        edges = [(num(i, j), num(i + 1, j)) for i in range(1, m) for j in range(1, n + 1)]
        edges += [(num(i, j), num(i, j + 1)) for i in range(1, m + 1) for j in range(1, n)]
        return m * n, edges
    raise ValueError(f"no reference graph for family {family!r}")


def independent_sets(n: int, edges, k: int) -> list[int]:
    """Independent k-sets as bitmasks (vertex v is bit v-1)."""
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    out = []
    for combo in combinations(range(1, n + 1), k):
        mask = sum(1 << (v - 1) for v in combo)
        if not any(adj[v] & mask for v in combo):
            out.append(mask)
    return out


def cover_facets(n: int, edges, k: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ s for s in independent_sets(n, edges, k)]


# ---------------------------------------------------------------------------
# Face bitmaps: bit W of the integer is set when vertex set W is a face


@lru_cache(maxsize=None)
def _cardinality_classes(n: int) -> tuple[int, ...]:
    """classes[j] has bit W set exactly when W has j vertices."""
    classes = [1]
    for b in range(n):
        shift = 1 << b
        classes = [
            (classes[j] if j < len(classes) else 0) | ((classes[j - 1] << shift) if j >= 1 else 0)
            for j in range(b + 2)
        ]
    return tuple(classes)


def face_bitmap(n: int, facets) -> int:
    """Downward closure of the facets over all 2^n subsets."""
    size = 1 << n
    x = 0
    for f in facets:
        x |= 1 << f
    for b in range(n):
        step = 1 << b
        period = 2 * step
        upper = (((1 << step) - 1) << step) * (((1 << size) - 1) // ((1 << period) - 1))
        x |= (x & upper) >> step
    return x


def dual_bitmap(n: int, faces: int) -> int:
    """Alexander dual: W is a face exactly when its complement is a nonface."""
    size = 1 << n
    mirrored = int(format(faces, f"0{size}b")[::-1], 2)  # bit W <- bit (full ^ W)
    return ~mirrored & ((1 << size) - 1)


def f_vector(n: int, faces: int) -> tuple[int, ...]:
    """(f_-1, f_0, ...): faces counted by cardinality; () for the void complex."""
    f = [(faces & cls).bit_count() for cls in _cardinality_classes(n)]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def hilbert_numerator(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients of sum_j f_{j-1} t^j (1-t)^(n-j), trailing zeros trimmed."""
    num = [0] * (n + 1)
    for j, fj in enumerate(f):
        for a in range(n - j + 1):
            num[j + a] += fj * (-1) ** a * comb(n - j, a)
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def simplex_fvector(n: int) -> tuple[int, ...]:
    return tuple(comb(n, j) for j in range(n + 1))


# ---------------------------------------------------------------------------
# Readings of a Betti table given as [[i, j, beta], ...]


def k_polynomial(entries) -> tuple[int, ...]:
    top = max(j for _, j, _ in entries)
    out = [0] * (top + 1)
    for i, j, b in entries:
        out[j] += (-1) ** i * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def linear_degree(entries):
    """s for an s-linear resolution, 0 for the zero ideal, None otherwise."""
    gens = {j for i, j, _ in entries if i == 1}
    if not gens:
        return 0
    if len(gens) > 1:
        return None
    s = gens.pop()
    return s if all(j == s + i - 1 for i, j, _ in entries if i >= 1) else None


def cm_by_auslander_buchsbaum(entries, n: int, f: tuple[int, ...]) -> bool:
    """Projective dimension equals n minus the Krull dimension (the largest face size)."""
    return n - max(i for i, _, _ in entries) == len(f) - 1


# ---------------------------------------------------------------------------
# Checks


def check_table(label: str, entries, n: int, f: tuple[int, ...]) -> list[str]:
    """beta_00 = 1 and the K-polynomial equals the Hilbert numerator of f."""
    errs = []
    table = {(i, j): b for i, j, b in entries}
    if table.get((0, 0)) != 1:
        errs.append(f"{label}: beta_00 = {table.get((0, 0))}, expected 1")
    if any(b <= 0 for b in table.values()):
        errs.append(f"{label}: table lists a zero or negative entry")
    kp, hn = k_polynomial(entries), hilbert_numerator(f, n)
    if kp != hn:
        errs.append(f"{label}: K-polynomial {list(kp)} != Hilbert numerator {list(hn)} of f = {list(f)}")
    return errs


def check_field_bounds(label: str, q_entries, p_entries, field: str) -> list[str]:
    """Universal coefficients: every GF(p) Betti number is at least the rational one."""
    pt = {(i, j): b for i, j, b in p_entries}
    low = [(i, j) for i, j, b in q_entries if pt.get((i, j), 0) < b]
    return [f"{label}: {field} entries below Q at {low}"] if low else []


def check_eagon_reiner(label: str, dual_entries, cover_entries, n: int, cover_f) -> list[str]:
    """The dual has a linear resolution exactly when the cover is Cohen-Macaulay."""
    linear = linear_degree(dual_entries) is not None
    cm = cm_by_auslander_buchsbaum(cover_entries, n, cover_f)
    return [] if linear == cm else [f"{label}: dual linear={linear} but cover CM={cm}"]


def check_report(label: str, report: dict, n: int, f: tuple[int, ...]) -> list[str]:
    """One `srlab invariants` JSON report against the reference f-vector."""
    errs = []
    entries = report["betti"]["entries"]
    errs += check_table(label, entries, n, f)
    if tuple(report["fVector"]) != f:
        errs.append(f"{label}: fVector {report['fVector']} != {list(f)}")
    if tuple(report["hilbert"]["numerator"]) != hilbert_numerator(f, n):
        errs.append(f"{label}: Hilbert numerator {report['hilbert']['numerator']} is wrong")
    if report["dimension"] != len(f) - 2:
        errs.append(f"{label}: dimension {report['dimension']} != {len(f) - 2}")
    if report["linearDegree"] != linear_degree(entries):
        errs.append(f"{label}: linearDegree {report['linearDegree']} != {linear_degree(entries)}")
    cm_ab = cm_by_auslander_buchsbaum(entries, n, f)
    if report["cmAuslanderBuchsbaum"] != cm_ab:
        errs.append(f"{label}: cmAuslanderBuchsbaum {report['cmAuslanderBuchsbaum']} != {cm_ab}")
    if report["cmReisner"] != report["cmAuslanderBuchsbaum"]:
        errs.append(f"{label}: cmReisner {report['cmReisner']} != cmAuslanderBuchsbaum")
    if not report["eagonReiner"]["consistent"]:
        errs.append(f"{label}: eagonReiner.consistent is false")
    vd = report["vertexDecomposable"]["verdict"]
    shell = report["shellable"]["verdict"]
    if vd and shell is False:
        errs.append(f"{label}: vertex decomposable but not shellable")
    if (vd or shell) and not report["cmReisner"]:
        errs.append(f"{label}: vertex decomposable or shellable but not CM")
    return errs


def check_warm_report(label: str, cold: bytes, warm: bytes) -> list[str]:
    return [] if cold == warm else [f"{label}: report served from the cache differs from the fresh one"]


def check_verify(payload: dict, claim_count: int, fields: tuple[str, ...]) -> list[str]:
    """Every claim reported once per field, and the per-claim summary agrees."""
    errs = []
    pairs = [(r["claim"], r["field"]) for r in payload["results"]]
    ids = {c for c, _ in pairs}
    if len(ids) != claim_count:
        errs.append(f"verify: {len(ids)} claims reported, expected {claim_count}")
    if sorted(pairs) != sorted((c, fld) for c in ids for fld in fields):
        errs.append(f"verify: results are not every claim once per field {fields}")
    if {e["claim"] for e in payload["byClaim"]} != ids:
        errs.append("verify: byClaim does not list the reported claims")
    return errs


def scan_grid(kmax: int, nmax: int, n_min_of_k, graph) -> set[tuple[int, int]]:
    """(k, n) cells a conjecture scan must cover: nonvoid covers from kmin=2, nmin=3."""
    cells = set()
    for k in range(2, kmax + 1):
        for n in range(max(3, n_min_of_k(k)), nmax + 1):
            if independent_sets(*graph(n), k):
                cells.add((k, n))
    return cells


def check_scan(label: str, payload: dict, grid: set[tuple[int, int]], field: str) -> list[str]:
    errs = []
    got = sorted((c["k"], c["n"], c["field"]) for c in payload["cells"])
    if got != sorted((k, n, field) for k, n in grid):
        errs.append(f"{label}: scanned cells differ from the {len(grid)}-cell grid")
    if payload["counterexamples"]:
        errs.append(f"{label}: {len(payload['counterexamples'])} counterexamples")
    return errs
