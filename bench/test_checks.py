"""The benchmark's checks accept srlab's real output and reject a deliberately wrong one.

    python3 -m pytest bench/test_checks.py -q

Each test runs one small srlab operation the way the benchmark does (a fresh
process through child.py), passes the check, then changes one value and
shows that the same check fails.
"""

import copy
import json
import time

import oracle
import run


def _run(tmp_path, *args) -> bytes:
    _, code, _, out, err = run.spawn(list(args), tmp_path / "op.out", time.monotonic() + 60)
    assert code == 0, err
    return out


def _cover(family, n, k):
    nv, edges = oracle.family_graph(family, n)
    return nv, oracle.f_vector(nv, oracle.face_bitmap(nv, oracle.cover_facets(nv, edges, k)))


def test_beta_moved_by_one_is_rejected(tmp_path):
    spec = {"family": "C", "n": 6, "k": 2, "fields": ["Q", "GF(2)"]}
    res = json.loads(_run(tmp_path, "tables", json.dumps(spec)))
    n, f = _cover("C", 6, 2)
    entries = res["tables"]["Q"]
    assert oracle.check_table("C6 k2", entries, n, f) == []
    for idx in range(len(entries)):
        for delta in (1, -1):
            wrong = copy.deepcopy(entries)
            wrong[idx][2] += delta
            assert oracle.check_table("C6 k2", wrong, n, f), (idx, delta)
    gf2_low = copy.deepcopy(res["tables"]["GF(2)"])
    gf2_low[-1][2] -= 1
    assert oracle.check_field_bounds("C6 k2", entries, gf2_low, "GF(2)")


def test_flipped_cm_verdict_is_rejected(tmp_path):
    out = _run(tmp_path, "cli", "invariants", "--family", "C", "--n", "6", "--k", "2")
    report = json.loads(out)
    n, f = _cover("C", 6, 2)
    assert oracle.check_report("C6 k2", report, n, f) == []
    for key in ("cmReisner", "cmAuslanderBuchsbaum"):
        wrong = copy.deepcopy(report)
        wrong[key] = not wrong[key]
        assert oracle.check_report("C6 k2", wrong, n, f), key
    wrong = copy.deepcopy(report)
    wrong["eagonReiner"]["consistent"] = False
    assert oracle.check_report("C6 k2", wrong, n, f)


def test_flipped_eagon_reiner_pairing_is_rejected(tmp_path):
    spec = {"family": "L", "n": 6, "k": 2, "dual": True, "fields": ["Q"], "cover_fields": ["Q"]}
    res = json.loads(_run(tmp_path, "tables", json.dumps(spec)))
    n, f = _cover("L", 6, 2)
    dual, cover = res["tables"]["Q"], res["cover_tables"]["Q"]
    assert oracle.check_eagon_reiner("L6 k2", dual, cover, n, f) == []
    assert oracle.cm_by_auslander_buchsbaum(cover, n, f)
    longer = cover + [[max(i for i, _, _ in cover) + 1, n, 1]]  # one more step: no longer CM
    assert oracle.check_eagon_reiner("L6 k2", dual, longer, n, f)


def test_changed_cached_report_is_rejected(tmp_path):
    argv = ["cli", "invariants", "--family", "C", "--n", "6", "--k", "2", "--cache-dir", str(tmp_path / "cache")]
    cold = _run(tmp_path, *argv)
    warm = _run(tmp_path, *argv)
    assert oracle.check_warm_report("C6 k2", cold, warm) == []
    (entry,) = (tmp_path / "cache").glob("*.json")
    table = json.loads(entry.read_text())
    table["entries"][-1][2] += 1
    entry.write_text(json.dumps(table, sort_keys=True))
    assert oracle.check_warm_report("C6 k2", cold, _run(tmp_path, *argv))


def test_missing_claim_and_counterexample_are_rejected():
    ids = [f"claim{i}" for i in range(3)]
    payload = {
        "results": [{"claim": c, "field": fld} for c in ids for fld in ("Q", "GF(2)")],
        "byClaim": [{"claim": c} for c in ids],
    }
    assert oracle.check_verify(payload, 3, ("Q", "GF(2)")) == []
    dropped = dict(payload, results=payload["results"][:-1])
    assert oracle.check_verify(dropped, 3, ("Q", "GF(2)"))
    grid = {(2, 3), (2, 4)}
    scan = {"cells": [{"k": k, "n": n, "field": "Q"} for k, n in sorted(grid)], "counterexamples": []}
    assert oracle.check_scan("scan", scan, grid, "Q") == []
    assert oracle.check_scan("scan", dict(scan, counterexamples=[scan["cells"][0]]), grid, "Q")
    assert oracle.check_scan("scan", dict(scan, cells=scan["cells"][:1]), grid, "Q")
