"""One srlab process of the benchmark, started fresh for every operation.

    child.py reference                      a fixed pure-Python program that never imports srlab
    child.py [--trace FILE] ready           import srlab and exit (set-up time)
    child.py [--trace FILE] cli ARGS...     srlab's command line, as `srlab ARGS...`
    child.py [--trace FILE] tables SPEC     Betti tables of one complex, as JSON

SPEC is a JSON object: {"family", "n", "m", "k"} names a cover complex and
{"simplex": n} the full simplex; "dual": true takes its Alexander dual,
"fields" lists the fields for its tables and "cover_fields" the fields for
tables of the cover itself. With --trace, spans around srlab's layers are
written to FILE as JSON when the operation ends.
"""

import json
import sys


def reference() -> None:
    """Set, dict, sort and bit work of the kind srlab does, on fixed data; it
    measures how fast the machine runs Python right now."""
    for rep in range(3):
        masks = [(i * 2654435761 + rep) & 0xFFFFF for i in range(6000)]
        seen = {}
        for m in masks:
            seen[m] = m.bit_count()
            sub = m
            for _ in range(6):
                sub = (sub - 1) & m
                seen[sub] = seen.get(sub, 0) + 1
        kept = []
        for m in sorted(set(masks), key=lambda x: -x.bit_count())[:400]:
            if not any(m & ~k == 0 for k in kept):
                kept.append(m)


def tables(spec: dict) -> dict:
    from srlab.complexes import alexander_dual, cover_complex, simplex_complex
    from srlab.graphs import FamilySpec, build_family
    from srlab.homology import parse_field
    from srlab.resolution import betti_hochster

    if "simplex" in spec:
        cover = simplex_complex(spec["simplex"])
    else:
        cover = cover_complex(build_family(FamilySpec(spec["family"], n=spec["n"], m=spec.get("m"))), spec["k"])
    c = alexander_dual(cover) if spec.get("dual") else cover
    out = {"tables": {f: betti_hochster(c, parse_field(f)).to_json()["entries"] for f in spec["fields"]}}
    out["cover_tables"] = {
        f: betti_hochster(cover, parse_field(f)).to_json()["entries"] for f in spec.get("cover_fields", ())
    }
    return out


def main(argv: list[str]) -> int:
    if argv == ["reference"]:
        reference()
        return 0
    import srlab.cli

    tracer = None
    if argv[:1] == ["--trace"]:
        from tracing import Tracer

        trace_file, argv = argv[1], argv[2:]
        tracer = Tracer()
        bindings = tracer.install()
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "ready":
            return 0
        if mode == "cli":
            return srlab.cli.main(rest)
        if mode == "tables":
            print(json.dumps(tables(json.loads(rest[0])), sort_keys=True))
            return 0
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            with open(trace_file, "w") as fh:
                json.dump({"spans": tracer.totals, "bindings": bindings}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
