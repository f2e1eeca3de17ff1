"""Labeled simple graphs on vertices 1..n with bitset adjacency.

Family generators fix their labelings so facet lists downstream are
reproducible: grids are flattened row-major, bipartite sides come in order
x_1..x_m then y_1..y_n, the prism over K_n lists x_1..x_n then y_1..y_n, and
the wheel hub is the last vertex.

There is no clique search here: the maximal cliques are the facets of
`complexes.clique_complex`, the Alexander dual of the degree-2 cover
complex, which `independent_sets` builds.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .bitsets import full_mask, iter_vertices, mask_of


class Graph(NamedTuple):
    """Undirected simple graph; adj[i] is the neighbor bitmask of vertex i+1."""

    n: int
    adj: tuple[int, ...]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    adj = [0] * n
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"edge must be a pair, got {e!r}")
        u, v = e
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge {e!r} out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Named families


def points(n: int) -> Graph:
    """n isolated vertices."""
    _require(n >= 1, "n >= 1")
    return Graph(n, (0,) * n)


def path(n: int) -> Graph:
    _require(n >= 1, "n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def star(n: int) -> Graph:
    """Edges {i, n} for i < n; the center is vertex n."""
    _require(n >= 1, "n >= 1")
    return graph_from_edges(n, [(i, n) for i in range(1, n)])


def cycle(n: int) -> Graph:
    _require(n >= 1, "n >= 1")
    return graph_from_edges(n, _mod_edges(n, (1,)))


def wheel(n: int) -> Graph:
    """Cycle on 1..n plus a hub n+1 joined to every rim vertex."""
    _require(n >= 1, "n >= 1")
    rim = _mod_edges(n, (1,))
    return graph_from_edges(n + 1, rim + [(i, n + 1) for i in range(1, n + 1)])


def cycle_square(n: int) -> Graph:
    """Cyclic distance-1 and distance-2 edges on 1..n."""
    _require(n >= 1, "n >= 1")
    return graph_from_edges(n, _mod_edges(n, (1, 2)))


def path_square(n: int) -> Graph:
    """Edges {i,i+1} and {i,i+2} along 1..n."""
    _require(n >= 1, "n >= 1")
    es = [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]
    return graph_from_edges(n, es)


def complete_bipartite(m: int, n: int) -> Graph:
    """Sides x_1..x_m = 1..m and y_1..y_n = m+1..m+n."""
    _require(m >= 1 and n >= 1, "m, n >= 1")
    return graph_from_edges(m + n, [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)])


def complete_prism(n: int) -> Graph:
    """Two copies of K_n (x_1..x_n, then y_1..y_n) joined by the matching x_i y_i."""
    _require(n >= 1, "n >= 1")
    es = list(combinations(range(1, n + 1), 2))
    es += [(n + i, n + j) for i, j in combinations(range(1, n + 1), 2)]
    es += [(i, n + i) for i in range(1, n + 1)]
    return graph_from_edges(2 * n, es)


def grid(m: int, n: int) -> Graph:
    """m x n grid; vertex (i, j) is numbered (i-1)*n + j, row-major."""
    _require(m >= 1 and n >= 1, "m, n >= 1")

    def num(i, j):
        return (i - 1) * n + j

    es = [(num(i, j), num(i + 1, j)) for i in range(1, m) for j in range(1, n + 1)]
    es += [(num(i, j), num(i, j + 1)) for i in range(1, m + 1) for j in range(1, n)]
    return graph_from_edges(m * n, es)


def tree_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    g = graph_from_edges(n, edges)
    if g.edge_count() != n - 1:
        raise ValueError(f"a tree on {n} vertices needs exactly {n - 1} edges")
    if not _is_connected(g):
        raise ValueError("tree edge list is not connected")
    return g


def _mod_edges(n: int, offsets: tuple[int, ...]) -> list[tuple[int, int]]:
    # Degenerate n (loops, doubled edges) collapse naturally.
    es = set()
    for i in range(n):
        for d in offsets:
            u, v = i + 1, (i + d) % n + 1
            if u != v:
                es.add((min(u, v), max(u, v)))
    return sorted(es)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"parameter out of range: need {what}")


def _is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    queue = deque([1])
    while queue:
        v = queue.popleft()
        new = g.adj[v - 1] & ~seen
        seen |= new
        queue.extend(iter_vertices(new))
    return seen == full_mask(g.n)


# ---------------------------------------------------------------------------
# Family specs and JSON


FAMILY_IDS = ("P", "L", "S", "C", "W", "C2", "L2", "Kmn", "K2xKn", "Grid", "TreeEdges", "ExplicitEdges")
M_FAMILIES = ("Kmn", "Grid")  # the families that read m
EDGE_FAMILIES = ("TreeEdges", "ExplicitEdges")  # the families that read an edge list


class FamilySpec(NamedTuple):
    family: str
    n: int | None = None
    m: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None


def build_family(spec: FamilySpec) -> Graph:
    fam = spec.family
    if fam not in FAMILY_IDS:
        raise ValueError(f"unknown family {fam!r}; expected one of {FAMILY_IDS}")
    for key, value, families in (("m", spec.m, M_FAMILIES), ("edges", spec.edges, EDGE_FAMILIES)):
        if value is not None and fam not in families:
            raise ValueError(f'"{key}" is only for families {" and ".join(families)}, not {fam!r}')
    if fam in EDGE_FAMILIES:
        if spec.n is None or spec.edges is None:
            raise ValueError(f"family {fam} needs n and an edge list")
        if fam == "TreeEdges":
            return tree_from_edges(spec.n, spec.edges)
        return graph_from_edges(spec.n, spec.edges)
    if fam in M_FAMILIES:
        if spec.m is None or spec.n is None:
            raise ValueError(f"family {fam} needs both m and n")
        return complete_bipartite(spec.m, spec.n) if fam == "Kmn" else grid(spec.m, spec.n)
    if spec.n is None:
        raise ValueError(f"family {fam} needs n")
    builder = {
        "P": points,
        "L": path,
        "S": star,
        "C": cycle,
        "W": wheel,
        "C2": cycle_square,
        "L2": path_square,
        "K2xKn": complete_prism,
    }[fam]
    return builder(spec.n)


def json_int(obj: dict, key: str) -> int | None:
    """obj[key] if it is an int (a bool is not one), None if it is absent or null."""
    v = obj.get(key)
    if v is not None and type(v) is not int:
        raise ValueError(f'"{key}" must be an integer, got {v!r}')
    return v


def json_vertex_lists(obj: dict, key: str, n: int) -> list[list[int]]:
    """obj[key] if it is a list of lists of vertices, each an int (not a bool) in 1..n."""
    items = obj[key]
    if not isinstance(items, list) or not all(
        isinstance(s, list) and all(type(v) is int and 1 <= v <= n for v in s) for s in items
    ):
        raise ValueError(f'"{key}" must be a list of lists of vertices in 1..{n}')
    return items


def graph_from_json(obj: dict) -> Graph:
    """Accepts {"n":…, "edges":[[u,v],…]}, read as family ExplicitEdges, or
    {"family":…, "n":…, "m":…, "edges":…}."""
    n = json_int(obj, "n")
    if "family" not in obj and (n is None or "edges" not in obj):
        raise ValueError('graph JSON needs either "family" or both "n" and "edges"')
    edges = None if n is None or "edges" not in obj else tuple(map(tuple, json_vertex_lists(obj, "edges", n)))
    return build_family(FamilySpec(obj.get("family", "ExplicitEdges"), n, json_int(obj, "m"), edges))


# ---------------------------------------------------------------------------
# Predicates


def is_independent(g: Graph, s: int | Iterable[int]) -> bool:
    mask = s if isinstance(s, int) else mask_of(s)
    if mask & ~full_mask(g.n):
        raise ValueError("vertex set not within 1..n")
    for v in iter_vertices(mask):
        if g.adj[v - 1] & mask:
            return False
    return True


def independent_sets(g: Graph, k: int) -> list[int]:
    """All independent k-subsets as masks, lexicographic by vertex tuple: a
    backtrack adds vertices in increasing order, each adjacent to none added
    so far, while enough candidates are left to finish."""
    if not 0 <= k <= g.n:
        raise ValueError(f"k must be in 0..{g.n}, got {k}")
    out: list[int] = []

    def grow(s: int, cand: int, need: int) -> None:
        if not need:
            return out.append(s)
        while cand.bit_count() >= need:
            b = cand & -cand
            cand ^= b
            grow(s | b, cand & ~g.adj[b.bit_length() - 1], need - 1)

    grow(0, full_mask(g.n), k)
    return out


# ---------------------------------------------------------------------------
# Automorphisms


@lru_cache(maxsize=256)
def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of Aut(g), each a tuple p that maps vertex i+1 to vertex
    p[i]+1; none when the group is trivial.

    A stabilizer chain, deepest level first, along a base b_1, b_2, ...: b_i
    is the first vertex of the first non-singleton cell of the stable colour
    refinement (1-WL) once b_1..b_{i-1} have colours of their own. At level
    i, each c in b_i's cell that the generators so far neither reach from
    b_i nor have ruled out is tried as its image: a backtrack along the rest
    of the base refines after each choice, and prunes when the colour class
    sizes differ from the base's. Colours are named by sorted signatures, so
    refinement commutes with automorphisms and never prunes one. A leaf
    pairs vertices by colour and is kept only if it preserves adjacency. So
    each generator merges two orbits (at most n-1 in all), and after level i
    they generate the stabilizer of b_1..b_{i-1}. A c that none reaches
    rules out its orbit too.
    """
    n = g.n
    nbrs = [[v - 1 for v in iter_vertices(a)] for a in g.adj]

    def refine(col: list[int], v: int) -> list[int]:  # v gets a colour of its own, then 1-WL
        col = [2 * x + (u == v) for u, x in enumerate(col)]
        while True:
            sigs = [(col[u], tuple(sorted(col[w] for w in nbrs[u]))) for u in range(n)]
            names = {s: i for i, s in enumerate(sorted(set(sigs)))}
            if len(names) == len(set(col)):
                return [names[s] for s in sigs]
            col = [names[s] for s in sigs]

    path, base = [refine([0] * n, -1)], []
    while len(set(path[-1])) < n:
        cell = min(x for x in path[-1] if path[-1].count(x) > 1)
        base.append(path[-1].index(cell))
        path.append(refine(path[-1], base[-1]))

    def extend(level: int, col: list[int]) -> tuple[int, ...] | None:
        """An automorphism that maps path[level] onto col, or None."""
        if sorted(col) != sorted(path[level]):
            return None
        if level == len(base):
            where = {x: v for v, x in enumerate(col)}
            p = tuple(where[x] for x in path[level])
            return p if all(sum(1 << p[u] for u in nbrs[v]) == g.adj[p[v]] for v in range(n)) else None
        for d in range(n):
            if col[d] == path[level][base[level]]:
                p = extend(level + 1, refine(col, d))
                if p:
                    return p
        return None

    def orbit(v: int) -> set[int]:
        out, todo = {v}, [v]
        for x in todo:
            for p in gens:
                if p[x] not in out:
                    out.add(p[x])
                    todo.append(p[x])
        return out

    gens: list[tuple[int, ...]] = []
    for level in reversed(range(len(base))):
        b, col = base[level], path[level]
        done = orbit(b)
        for c in range(n):
            if col[c] == col[b] and c not in done:
                p = extend(level + 1, refine(col, c))
                if p:
                    gens.append(p)
                done |= orbit(b if p else c)
    return tuple(gens)


# ---------------------------------------------------------------------------
# Chordality


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search; g is chordal exactly when the reversed
    visit order is a perfect elimination order (Tarjan-Yannakakis 1984)."""
    n = g.n
    weight = [0] * (n + 1)
    visited = 0
    visit_order = []
    for _ in range(n):
        best_v, best_w = 0, -1
        for v in range(1, n + 1):
            if not visited >> (v - 1) & 1 and weight[v] > best_w:
                best_v, best_w = v, weight[v]
        visit_order.append(best_v)
        visited |= 1 << (best_v - 1)
        for u in iter_vertices(g.adj[best_v - 1] & ~visited):
            weight[u] += 1
    return is_perfect_elimination_order(g, visit_order[::-1])


def is_perfect_elimination_order(g: Graph, order: Sequence[int]) -> bool:
    if sorted(order) != list(range(1, g.n + 1)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    later = full_mask(g.n)
    for v in order:
        later &= ~(1 << (v - 1))
        s = g.adj[v - 1] & later
        if s:
            u = min(iter_vertices(s), key=pos.__getitem__)
            rest = s & ~(1 << (u - 1))
            if rest & ~g.adj[u - 1]:
                return False
    return True
