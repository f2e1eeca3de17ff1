"""Shared corpus fixtures: family complexes, random complexes, tree enumeration.

Bundles cache the expensive invariants per complex so the property suites and
the acceptance criteria share one computation.
"""

from __future__ import annotations

import random
from functools import cached_property

import pytest

from srlab.complexes import (
    SimplicialComplex,
    alexander_dual,
    clique_complex,
    cover_complex,
    f_vector,
    make_complex,
)
from srlab.graphs import (
    Graph,
    complete_bipartite,
    complete_prism,
    cycle,
    cycle_square,
    graph_from_edges,
    grid,
    path,
    path_square,
    points,
    star,
    tree_from_edges,
    wheel,
)
from srlab.homology import GF2, RATIONALS
from srlab.resolution import betti_hochster, is_cm_ab, is_cm_reisner, linear_resolution_degree


class Bundle:
    """One complex plus lazily computed invariants over Q and GF(2)."""

    def __init__(self, name: str, c: SimplicialComplex):
        self.name = name
        self.c = c

    def __repr__(self):
        return f"Bundle({self.name})"

    @cached_property
    def fv(self):
        return f_vector(self.c)

    @cached_property
    def dual(self):
        return alexander_dual(self.c)

    @cached_property
    def table_q(self):
        return betti_hochster(self.c, RATIONALS)

    @cached_property
    def table_gf2(self):
        return betti_hochster(self.c, GF2)

    def table(self, field):
        return self.table_q if field.is_rationals else self.table_gf2

    @cached_property
    def linear_q(self):
        return linear_resolution_degree(self.table_q)

    @cached_property
    def cm_reisner_q(self):
        return is_cm_reisner(self.c, RATIONALS).cm

    @cached_property
    def cm_reisner_gf2(self):
        return is_cm_reisner(self.c, GF2).cm

    def cm_reisner(self, field):
        return self.cm_reisner_q if field.is_rationals else self.cm_reisner_gf2

    def cm_ab(self, field):
        return is_cm_ab(self.c, self.table(field))


def family_graphs(max_n: int = 9) -> list[tuple[str, Graph]]:
    """Every named-family instance with ground set at most max_n."""
    out: list[tuple[str, Graph]] = []
    for n in range(2, max_n + 1):
        out.append((f"P{n}", points(n)))
        out.append((f"L{n}", path(n)))
    for n in range(3, max_n + 1):
        out.append((f"S{n}", star(n)))
        out.append((f"C{n}", cycle(n)))
        out.append((f"L2_{n}", path_square(n)))
    for n in range(4, max_n + 1):
        out.append((f"C2_{n}", cycle_square(n)))
    for n in range(3, max_n):
        out.append((f"W{n + 1}", wheel(n)))
    for m in range(1, max_n):
        for n in range(m, max_n + 1 - m):
            out.append((f"K{m},{n}", complete_bipartite(m, n)))
    for n in range(2, max_n // 2 + 1):
        out.append((f"K2xK{n}", complete_prism(n)))
    for m in range(2, 4):
        for n in range(m, max_n // m + 1):
            if m * n <= max_n:
                out.append((f"G{m}x{n}", grid(m, n)))
    return out


def family_complexes(max_n: int = 9, max_k: int = 4) -> list[Bundle]:
    """Clique and cover complexes (plus duals) for every family instance."""
    seen: dict = {}
    out: list[Bundle] = []

    def add(name, c):
        if c.is_void or c in seen:
            return
        seen[c] = name
        out.append(Bundle(name, c))

    for name, g in family_graphs(max_n):
        add(f"clique({name})", clique_complex(g))
        for k in range(1, min(g.n, max_k) + 1):
            c = cover_complex(g, k)
            if c.is_void:
                continue
            add(f"cover({name},{k})", c)
            add(f"dual(cover({name},{k}))", alexander_dual(c))
    return out


def random_complex_sample(count: int = 200, max_n: int = 8, seed: int = 20250613) -> list[Bundle]:
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n = rng.randint(2, max_n)
        nf = rng.randint(1, 6)
        facets = [rng.randrange(1, 1 << n) for _ in range(nf)]
        out.append(Bundle(f"rand{idx}(n={n})", make_complex(n, facets)))
    return out


def random_graph_sample(count: int = 50, max_n: int = 8, seed: int = 424242) -> list[tuple[str, Graph]]:
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n = rng.randint(2, max_n)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.45]
        out.append((f"rg{idx}", graph_from_edges(n, edges)))
    return out


def edges(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v) of g with u < v, in lexicographic order."""
    return [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1) if g.adj[u - 1] >> (v - 1) & 1]


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation drawn from rng."""
    perm = rng.sample(range(1, g.n + 1), g.n)
    return graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in edges(g)])


PETERSEN = graph_from_edges(10, [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),  # outer 5-cycle
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),  # spokes
    (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),  # inner pentagram
])
FRUCHT = graph_from_edges(12, [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7),  # a 7-cycle
    (1, 8), (2, 8), (3, 9), (4, 10), (5, 10), (6, 11), (7, 11),
    (8, 12), (9, 10), (9, 12), (11, 12),
])


def petersen_and_frucht() -> list[tuple[str, Graph]]:
    """The Petersen graph (120 automorphisms) and the Frucht graph (none but
    the identity), both 3-regular."""
    return [("Petersen", PETERSEN), ("Frucht", FRUCHT)]


def random_regular_graph(d: int, n: int, seed: int) -> Graph:
    """A d-regular graph on n vertices from the pairing model: d stubs per
    vertex, shuffled by a seeded rng and paired in turn, drawn again until no
    pair is a loop or repeats an edge."""
    rng = random.Random(seed)
    stubs = [v for v in range(1, n + 1) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == len(stubs) // 2 and all(u != v for u, v in pairs):
            return graph_from_edges(n, sorted(pairs))


def symmetry_corpus(max_n: int = 11, seed: int = 2611) -> list[tuple[str, Graph]]:
    """Every family graph with ground set at most max_n, each also relabelled
    by a seeded random permutation, plus the Petersen and Frucht graphs."""
    rng = random.Random(seed)
    out = family_graphs(max_n)
    out += [(f"{name}~", relabelled(g, rng)) for name, g in out]
    return out + petersen_and_frucht()


# ---------------------------------------------------------------------------
# Non-isomorphic tree enumeration (leaf growth with canonical-form dedup)


def _ahu_encoding(adj: dict[int, set[int]], root: int, parent: int) -> str:
    subs = sorted(_ahu_encoding(adj, ch, root) for ch in adj[root] if ch != parent)
    return "(" + "".join(subs) + ")"


def _tree_canon(n: int, edges: list[tuple[int, int]]) -> str:
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # centers by repeated leaf stripping
    deg = {v: len(adj[v]) for v in adj}
    alive = set(adj)
    leaves = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for leaf in leaves:
            alive.discard(leaf)
            for u in adj[leaf]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        leaves = nxt
    return min(_ahu_encoding(adj, r, 0) for r in alive)


def all_trees_up_to_iso(n: int) -> list[Graph]:
    """All non-isomorphic trees on n vertices, grown leaf by leaf."""
    reps: list[list[tuple[int, int]]] = [[]]  # single vertex, no edges
    size = 1
    while size < n:
        size += 1
        nxt: dict[str, list[tuple[int, int]]] = {}
        for edges in reps:
            for attach in range(1, size):
                cand = edges + [(attach, size)]
                key = _tree_canon(size, cand)
                if key not in nxt:
                    nxt[key] = cand
        reps = list(nxt.values())
    return [tree_from_edges(n, e) for e in reps]


# ---------------------------------------------------------------------------
# Fixtures


@pytest.fixture(scope="session")
def corpus():
    return family_complexes(max_n=9, max_k=4)


@pytest.fixture(scope="session")
def random_complexes():
    return random_complex_sample()


@pytest.fixture(scope="session")
def small_corpus():
    return family_complexes(max_n=7, max_k=3)
