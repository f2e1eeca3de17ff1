"""Command-line front end.

Subcommands: build (graphs/complexes to JSON), invariants (full report with
a content-addressed Betti cache), verify (claim catalog), scan (conjecture
grids). Exit codes: 0 ok, 1 usage, 2 guard violation, 3 void result,
4 claim refuted.

The claim catalog (`srlab.claims`), the conjecture scanners (`srlab.scans`)
and the structure searches (`srlab.structure`) are registered when this
module is imported but run only on their first attribute access. So `verify`
compiles all three (the catalog imports the other two), `scan` only the
scanners, `invariants` only the structure searches, and `build` none.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

from .complexes import (
    SimplicialComplex,
    alexander_dual,
    canonical_json,
    clique_complex,
    complex_from_json,
    complex_to_json,
    cover_complex,
    dual_fvector,
    f_vector,
    is_pure,
)
from .errors import GuardExceeded, VoidComplexError, check_guard
from .graphs import FamilySpec, build_family, graph_from_json
from .homology import RATIONALS, GF2, Field, parse_field
from .resolution import (
    DEFAULT_HOCHSTER_GUARD,
    GradedBettiTable,
    betti_hochster,
    eagon_reiner_check,
    hilbert_from_fvector,
    is_cm_ab,
    is_cm_reisner,
    is_gorenstein,
    kpolynomial,
    linear_resolution_degree,
)


def _lazy_submodule(name: str):
    """srlab.<name>, bound now and executed on its first attribute access.

    The module sits in sys.modules and on the package under its own name, so
    `import srlab.<name>`, `from srlab.<name> import x` and anything that
    reads it through sys.modules all get this one object and run it once.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


claims = _lazy_submodule("claims")  # only verify reads the catalog
scans = _lazy_submodule("scans")  # only scan runs the scanners outside the catalog
structure = _lazy_submodule("structure")  # only invariants runs the structure searches

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VOID = 3
EXIT_REFUTED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract says 1
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_input_args(p):
    p.add_argument("--input", help="graph or complex JSON file")
    p.add_argument("--family", help="family id: P L S C W C2 L2 Kmn K2xKn Grid")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int, help="cover degree (facets miss an independent k-set)")
    p.add_argument("--dual", action="store_true", help="take the Alexander dual")
    p.add_argument("--clique", action="store_true", help="take the clique complex instead")


def _add_output(p):
    p.add_argument("-o", "--output", help="write to file instead of stdout")


def _add_report_args(p, formats):
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--field", default="Q", help="Q, GF(2), GF(p), or 'both' where allowed")
    _add_output(p)


def _add_guard_args(p):
    p.add_argument("--max-ground", type=int, default=DEFAULT_HOCHSTER_GUARD)
    p.add_argument("--override-guards", action="store_true")


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _refuse_unread(args, reader: str, *dests: str) -> None:
    given = [f"--{d}" for d in dests if (v := getattr(args, d)) is not None and v is not False]  # --k 0 is given
    if given:
        raise ValueError(f"{reader} does not read {' or '.join(given)}")


def _load_complex(args, guarded: bool = False) -> SimplicialComplex:
    """The complex the input flags name; a flag this input does not read is an error.

    When guarded, the Hochster guard is checked on the ground set as soon as
    it is known, before any cover, clique complex or dual is built.
    """
    if args.input:
        _refuse_unread(args, "--input", "family", "n", "m")
        obj = json.loads(Path(args.input).read_text())
        if not isinstance(obj, dict):
            raise ValueError(f"{args.input}: the input JSON must be an object")
        g = None if "facets" in obj else graph_from_json(obj)
    elif args.family:
        g = build_family(FamilySpec(args.family, n=args.n, m=args.m))
    else:
        raise ValueError("need --input FILE or --family ID")
    if g is None:
        c = complex_from_json(obj)
        _refuse_unread(args, "a complex JSON", "k", "clique")
    elif args.clique:
        _refuse_unread(args, "--clique", "k")
    elif args.k is None:
        raise ValueError("need --k for a cover complex (or pass --clique)")
    if guarded:
        check_guard("Hochster", c.n if g is None else g.n, args.max_ground, args.override_guards)
    if g is not None:
        c = clique_complex(g) if args.clique else cover_complex(g, args.k)
    return alexander_dual(c) if args.dual else c


def cmd_build(args) -> int:
    c = _load_complex(args)
    _emit(args, json.dumps(complex_to_json(c), sort_keys=True))
    return EXIT_VOID if c.is_void else EXIT_OK


# ---------------------------------------------------------------------------
# invariants


def _cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    d = args.cache_dir or os.environ.get("SRLAB_CACHE_DIR")
    if not d:
        return None
    p = Path(d)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _read_cached(key: Path, c: SimplicialComplex, field: Field, fv) -> GradedBettiTable | None:
    """The cached table, or None when it is missing, unreadable or fails the checks.

    A served table must pass the entry checks of GradedBettiTable.from_json,
    carry the sha256 of its entries that _betti_cached stored with them, be
    for this field and ground set, start with beta_{0,0} = 1, and have the
    Hilbert numerator of fv as its K-polynomial.
    """
    try:
        obj = json.loads(key.read_text())
        t = GradedBettiTable.from_json(obj)
        ok = obj["sha256"] == _entries_digest(obj["entries"])
        ok = ok and t.field == field and t.n == c.n and t.entries.get((0, 0)) == 1
        if ok and kpolynomial(t) == hilbert_from_fvector(fv, c.n).numerator:
            return t
    except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError):
        pass  # missing, truncated or malformed: the caller recomputes and rewrites it
    return None


def _sha256(data: bytes) -> str:
    """Hex sha256 of data, from the interpreter's own sha256 module where it
    has one: hashlib loads OpenSSL (_hashlib, about 3 ms and 1.6 MB)."""
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _entries_digest(entries: list) -> str:
    """sha256 of a table's JSON entries, stored with them to catch a damaged cache file."""
    return _sha256(json.dumps(entries).encode())


def _source_digest() -> str:
    """sha256 of srlab's own *.py sources, so a table is served only to the code that wrote it."""
    chunks = []
    for src in sorted(Path(__file__).parent.glob("*.py")):
        data = src.read_bytes()
        chunks.append(f"{src.name}\0{len(data)}\0".encode() + data)
    return _sha256(b"".join(chunks))


def _betti_cached(c, field, args, fv):
    cache = _cache_dir(args)
    key = None
    if cache is not None:
        digest = _sha256(f"{canonical_json(c)}|{field}|{_source_digest()}".encode())
        key = cache / f"{digest}.json"
        t = _read_cached(key, c, field, fv)
        if t is not None:
            return t
    t = betti_hochster(c, field, max_ground=args.max_ground, override=args.override_guards)
    if key is not None:
        obj = t.to_json()
        obj["sha256"] = _entries_digest(obj["entries"])
        tmp = key.with_name(f"{key.stem}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(obj, sort_keys=True))
        os.replace(tmp, key)  # readers see the old file or the whole new one
    return t


def invariants_report(c: SimplicialComplex, field: Field, args) -> dict:
    dual = alexander_dual(c)
    if dual.is_void or dual.dim() < c.dim():  # count the faces of the side with the smaller top facet
        fv = dual_fvector(f_vector(dual, override=args.override_guards), c.n)
    else:
        fv = f_vector(c, override=args.override_guards)
    t = _betti_cached(c, field, args, fv)
    reisner = is_cm_reisner(c, field, override=args.override_guards)
    report = {
        "complex": complex_to_json(c),
        "field": str(field),
        "dimension": c.dim(),
        "pure": is_pure(c),
        "fVector": list(fv),
        "hilbert": hilbert_from_fvector(fv, c.n).to_json(),
        "betti": t.to_json(),
        "linearDegree": linear_resolution_degree(t),
        "cmReisner": reisner.cm,
        "cmAuslanderBuchsbaum": is_cm_ab(c, t),
        "gorenstein": is_gorenstein(c, t),
    }
    er = eagon_reiner_check(c, t, override=args.override_guards)
    report["eagonReiner"] = {
        "linearDegree": er.linear_degree,
        "dualCm": er.dual_cm,
        "dualVoid": er.dual_void,
        "consistent": er.consistent,
    }
    for name, fn in (
        ("fatForest", structure.is_fat_forest),
        ("vertexDecomposable", structure.is_vertex_decomposable),
        ("shellable", structure.is_pure_shellable),
    ):
        try:
            if name in ("vertexDecomposable", "shellable") and not is_pure(c):
                report[name] = {"verdict": None, "note": "only defined for pure complexes"}
                continue
            v = fn(c, override=args.override_guards)
            entry = {"verdict": v.holds}
            if name == "shellable" and v.holds:
                entry["order"] = v.witness
            if name == "fatForest" and v.holds:
                _, decomp = v.witness
                entry["simplexDims"] = list(decomp.simplex_dims)
                entry["overlapDims"] = list(decomp.overlap_dims)
            report[name] = entry
        except GuardExceeded as e:
            report[name] = {"verdict": None, "note": str(e)}
    return report


def cmd_invariants(args) -> int:
    c = _load_complex(args, guarded=True)  # the Hochster guard, before any exponential work
    if c.is_void:
        _emit(args, json.dumps({"complex": complex_to_json(c), "note": "void complex"}))
        return EXIT_VOID
    field = parse_field(args.field)
    report = invariants_report(c, field, args)
    if args.format == "json":
        _emit(args, json.dumps(report, sort_keys=True))
    else:
        lines = [
            f"ground set      {c.n}",
            f"facets          {len(c.facets)}",
            f"f-vector        {report['fVector']}",
            f"field           {report['field']}",
            f"betti           {report['betti']['entries']}",
            f"linear degree   {report['linearDegree']}",
            f"CM (links)      {report['cmReisner']}",
            f"CM (pd)         {report['cmAuslanderBuchsbaum']}",
            f"gorenstein      {report['gorenstein']}",
            f"fat forest      {report['fatForest'].get('verdict')}",
            f"vertex decomp.  {report['vertexDecomposable'].get('verdict')}",
            f"shellable       {report['shellable'].get('verdict')}",
        ]
        _emit(args, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / scan


def _fields_arg(s: str):
    if s.lower() == "both":
        return (RATIONALS, GF2)
    return (parse_field(s),)


def cmd_verify(args) -> int:
    fields = _fields_arg(args.field)
    if args.all:
        results = claims.verify_all(fields=fields)
    else:
        results = [claims.verify_claim(args.claim, field=f) for f in fields]
    first = [r for r in results if r.field == str(fields[0])]  # discrepancies come from the first field
    payload = {
        "results": [r.to_json() for r in results],
        "byClaim": claims.cross_field_summary(results),
        "discrepancies": [d.to_json() for d in claims.discrepancies_of(first)] if args.all else [],
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, sort_keys=True))
    elif args.format == "tsv":
        rows = ["claim\tfield\tstatus\tseconds"]
        rows += [f"{r.claim_id}\t{r.field}\t{r.status}\t{r.seconds:.3f}" for r in results]
        _emit(args, "\n".join(rows))
    else:
        rows = []
        for r in results:
            expect = "" if claims.CLAIMS[r.claim_id].expect_confirmed else "  (refutation on record)"
            rows.append(f"{r.status:10s} [{r.field:5s}] {r.claim_id}{expect}")
        _emit(args, "\n".join(rows))
    return EXIT_REFUTED if claims.has_unexpected_refutation(results) else EXIT_OK


def cmd_scan(args) -> int:
    fields = _fields_arg(args.field)
    scanner = {"Ln": scans.scan_conjecture_Ln, "L2n": scans.scan_conjecture_L2n}[args.conjecture]
    rep = scanner(
        (args.kmin, args.kmax),
        (args.nmin, args.nmax),
        fields,
        max_ground=args.max_ground,
        override=args.override_guards,
    )
    if args.format == "json":
        _emit(args, json.dumps(rep.to_json(), sort_keys=True))
    elif args.format == "tsv":
        rows = ["k\tn\tfield\tlinear\tcm\tdual_linear\tdual_cm"]
        for c in rep.cells:
            rows.append(
                f"{c.k}\t{c.n}\t{c.field}\t{c.linear_degree}\t{c.cm}\t{c.dual_linear_degree}\t{c.dual_cm}"
            )
        _emit(args, "\n".join(rows))
    else:
        head = (f"conjecture {rep.conjecture}: {rep.status}, {len(rep.cells)} cells, "
                f"{len(rep.counterexamples)} counterexamples, {rep.seconds:.1f}s")
        _emit(args, "\n".join([head] + [f"note: {note}" for note in rep.notes]))
    return EXIT_OK  # conjecture scans never affect the exit code


# ---------------------------------------------------------------------------


def make_parser() -> _Parser:
    p = _Parser(prog="srlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a complex and print its JSON")
    _add_input_args(b)
    _add_output(b)
    b.set_defaults(fn=cmd_build)

    i = sub.add_parser("invariants", help="full invariant report for one complex")
    _add_input_args(i)
    _add_report_args(i, ("json", "pretty"))
    _add_guard_args(i)
    i.add_argument("--cache-dir", help="Betti cache directory (or env SRLAB_CACHE_DIR)")
    i.add_argument("--no-cache", action="store_true")
    i.set_defaults(fn=cmd_invariants)

    v = sub.add_parser("verify", help="run claim records against the oracle")
    which = v.add_mutually_exclusive_group(required=True)
    which.add_argument("--claim", help="claim id")
    which.add_argument("--all", action="store_true")
    _add_report_args(v, ("json", "tsv", "pretty"))
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scan", help="conjecture scan grids")
    s.add_argument("--conjecture", required=True, choices=("Ln", "L2n"))
    s.add_argument("--kmin", type=int, default=2)
    s.add_argument("--kmax", type=int, default=4)
    s.add_argument("--nmin", type=int, default=3)
    s.add_argument("--nmax", type=int, default=12)
    _add_report_args(s, ("json", "tsv", "pretty"))
    _add_guard_args(s)
    s.set_defaults(fn=cmd_scan)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except GuardExceeded as e:
        print(f"guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError, VoidComplexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
