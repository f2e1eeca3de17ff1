"""srlab: exact Stanley-Reisner computations for graph cover complexes.

The cover complex of a graph at degree k has as facets the complements of
the independent k-sets. This package builds those complexes and their
Alexander duals for the named graph families, computes f-vectors, Hilbert
series, and graded Betti tables (exactly, over Q or any prime field: read
off the Alexander dual's shelling when the dual is pure and shells in its
stored order, and from the Hochster sum otherwise), decides
Cohen-Macaulayness two independent ways, detects linear resolutions and
fat-forest / vertex-decomposable / shellable structure with checkable
witnesses, and verifies a catalog of recorded closed-form claims, logging
every discrepancy it finds.
"""

__version__ = "0.1.0"
