"""Spans around srlab's layer functions, installed from outside the package.

srlab imports names with `from .x import y`, so a function is looked up
through every module that imported it. `install` replaces each traced
function in every srlab module that binds it, and returns the bindings it
replaced. Each span records calls, inclusive time and self time (inclusive
minus the time of traced calls made inside it); a few spans also add a
count of the work they were handed.

Only the functions behind the per-layer metrics are wrapped. Small helpers
such as `bitsets.vertices_of` run millions of times as sort keys; a span on
them would make the traced run measure the tracer.
"""

from __future__ import annotations

import sys
from time import perf_counter

HOCHSTER = "resolution.betti_hochster"
GUARD_EXIT = 2  # srlab's documented exit code for a guard violation


def _cols(args, kwargs, result):
    return {"cols": len(args[0])}


def _cols_nnz(args, kwargs, result):
    return {"cols": len(args[0]), "nnz": sum(len(c) for c in args[0])}


def _faces(args, kwargs, result):
    return {"faces": sum(len(bucket) for bucket in result.values())}


# span name -> (module, function name, work counter or None)
TARGETS = {
    "graphs.independent_sets": ("srlab.graphs", "independent_sets", None),
    "complexes.minimal_nonfaces": ("srlab.complexes", "minimal_nonfaces", None),
    "complexes.all_faces": ("srlab.complexes", "all_faces", _faces),
    "complexes.f_vector": ("srlab.complexes", "f_vector", None),
    "bitsets.maximal_masks": ("srlab.bitsets", "maximal_masks", None),
    "homology.homology_dims_from_facets": ("srlab.homology", "homology_dims_from_facets", None),
    "homology.rank_gf2": ("srlab.homology", "rank_gf2", _cols),
    "homology.rank_int_exact": ("srlab.homology", "rank_int_exact", _cols_nnz),
    "homology.rank_gfp": ("srlab.homology", "rank_gfp", _cols),
    HOCHSTER: ("srlab.resolution", "betti_hochster", None),
    "resolution.is_cm_reisner": ("srlab.resolution", "is_cm_reisner", None),
    "resolution.eagon_reiner_check": ("srlab.resolution", "eagon_reiner_check", None),
    "structure.is_fat_forest": ("srlab.structure", "is_fat_forest", None),
    "structure.is_vertex_decomposable": ("srlab.structure", "is_vertex_decomposable", None),
    "structure.is_pure_shellable": ("srlab.structure", "is_pure_shellable", None),
    "claims.verify_claim": ("srlab.claims", "verify_claim", None),
    "claims.scan_conjecture_Ln": ("srlab.claims", "scan_conjecture_Ln", None),
    "claims.scan_conjecture_L2n": ("srlab.claims", "scan_conjecture_L2n", None),
    "cli.main": ("srlab.cli", "main", None),
    "cli._betti_cached": ("srlab.cli", "_betti_cached", None),
}


class Tracer:
    """Per-span totals for one process: {name: {"calls", "s", "self_s", ...}}."""

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in TARGETS}
        self._children: list[float] = []  # traced time inside each open span
        self._open: dict[str, int] = dict.fromkeys(TARGETS, 0)

    def wrap(self, name, fn, counter):
        totals, children, open_ = self.totals[name], self._children, self._open
        hochster = self.totals[HOCHSTER]

        def span(*args, **kwargs):
            if name == "homology.homology_dims_from_facets" and open_[HOCHSTER]:
                hochster["homology_calls"] = hochster.get("homology_calls", 0) + 1
            hochster_calls = hochster["calls"]
            open_[name] += 1
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                open_[name] -= 1
                totals["calls"] += 1
                totals["self_s"] += dt - inner
                if not open_[name]:  # count a recursive call's time once
                    totals["s"] += dt
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + val
            if name == "cli._betti_cached":  # a miss is a lookup that had to compute the table
                key = "misses" if hochster["calls"] > hochster_calls else "hits"
                totals[key] = totals.get(key, 0) + 1
            if name == "cli.main" and result == GUARD_EXIT:
                totals["guard_s"] = totals.get("guard_s", 0.0) + dt
            return result

        return span

    def install(self) -> list[str]:
        """Replace every binding of every target in the loaded srlab modules."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "srlab" or name.startswith("srlab.")]
        replaced = []
        for name, (modname, attr, counter) in TARGETS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        replaced.append(f"{mod.__name__}.{key}")
        return replaced
