"""The conjecture scanners: grids of cover complexes and their verdicts.

Each cell of a scan is one cover complex of a path (`Ln`) or a squared path
(`L2n`) at degree k, with the linear degree and CM verdict read off its
exact Betti table (`_verdicts`, which the claim catalog shares), and for
`L2n` those of its Alexander dual too. A cell that is not CM with a linear
resolution is a counterexample.

`srlab scan` loads this module and not the claim catalog (`srlab.claims`),
which imports the scanners from here for its two conjecture records.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .complexes import alexander_dual, cover_complex
from .graphs import path, path_square
from .homology import Field
from .resolution import (
    DEFAULT_HOCHSTER_GUARD,
    GradedBettiTable,
    betti_hochster,
    is_cm_ab,
    linear_resolution_degree,
)

REFUTED = "REFUTED"
PARTIAL = "PARTIAL"


def _verdicts(cx, field, **guard) -> tuple[GradedBettiTable, int | None, bool]:
    """cx's Betti table over field (betti_hochster), its linear degree and its CM verdict."""
    t = betti_hochster(cx, field, **guard)
    return t, linear_resolution_degree(t), is_cm_ab(cx, t)


class ScanCell(NamedTuple):
    k: int
    n: int
    field: str
    linear_degree: int | None
    cm: bool
    dual_linear_degree: int | None = None
    dual_cm: bool | None = None

    def holds(self, both_sides: bool) -> bool:
        ok = self.linear_degree is not None and self.cm
        if both_sides:
            ok = ok and self.dual_linear_degree is not None and bool(self.dual_cm)
        return ok

    def to_json(self) -> dict:
        out = {"k": self.k, "n": self.n, "field": self.field, "linearDegree": self.linear_degree, "cm": self.cm}
        if self.dual_cm is not None:
            out["dualLinearDegree"] = self.dual_linear_degree
            out["dualCm"] = self.dual_cm
        return out


class ScanReport(NamedTuple):
    conjecture: str
    cells: list[ScanCell]
    counterexamples: list[ScanCell]
    notes: list[str]
    seconds: float

    @property
    def status(self) -> str:
        return REFUTED if self.counterexamples else PARTIAL

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "status": self.status,
            "cells": [c.to_json() for c in self.cells],
            "counterexamples": [c.to_json() for c in self.counterexamples],
            "notes": self.notes,
            "seconds": round(self.seconds, 3),
        }


def _scan(graph_builder, n_min_of_k, both_sides, k_range, n_range, fields, max_ground, override):
    """One cell per (k, n, field): the linear degree and CM verdict of the
    cover complex c, and of its Alexander dual d when both_sides is set,
    read off their Betti tables (betti_hochster). Ranges that hold no cell
    raise ValueError rather than report a scan of nothing.
    """
    t0 = time.time()
    cells: list[ScanCell] = []
    kmin, kmax = k_range
    nmin, nmax = n_range
    for k in range(kmin, kmax + 1):
        for n in range(max(nmin, n_min_of_k(k)), nmax + 1):
            g = graph_builder(n)
            c = cover_complex(g, k)
            if c.is_void:
                continue
            for f in fields:
                _, lin, cm = _verdicts(c, f, max_ground=max_ground, override=override)
                dual = _verdicts(alexander_dual(c), f, max_ground=max_ground, override=override)[1:] if both_sides else ()
                cells.append(ScanCell(k, n, str(f), lin, cm, *dual))
    if not cells:
        raise ValueError(f"the scan covers no cell: k {kmin}..{kmax}, n {nmin}..{nmax}")
    counterexamples = [c for c in cells if not c.holds(both_sides)]
    return cells, counterexamples, time.time() - t0


def scan_conjecture_Ln(
    k_range: tuple[int, int],
    n_range: tuple[int, int],
    fields: tuple[Field, ...],
    *,
    max_ground: int = DEFAULT_HOCHSTER_GUARD,
    override: bool = False,
) -> ScanReport:
    """Scan: path cover rings are CM with linear resolutions for n >= 2k-1.

    max_ground and override are passed to betti_hochster.
    """
    cells, cex, secs = _scan(path, lambda k: 2 * k - 1, False, k_range, n_range, fields, max_ground, override)
    notes = []
    for c in cells:
        if c.k == 3 and c.n == 6 and c.field == "Q":
            notes.append(
                "k=3, n=6: oracle says linear and CM; the recorded six-vertex path example "
                "claims linear but not CM, conflicting with the conjecture (see path6.example.as-stated)"
            )
    return ScanReport("Ln", cells, cex, notes, secs)


def scan_conjecture_L2n(
    k_range: tuple[int, int],
    n_range: tuple[int, int],
    fields: tuple[Field, ...],
    *,
    max_ground: int = DEFAULT_HOCHSTER_GUARD,
    override: bool = False,
) -> ScanReport:
    """Scan: squared-path cover rings and their duals are CM with linear resolutions.

    max_ground and override are passed to betti_hochster.
    """
    cells, cex, secs = _scan(path_square, lambda k: 3 * k - 2, True, k_range, n_range, fields, max_ground, override)
    return ScanReport("L2n", cells, cex, [], secs)
