import json
from pathlib import Path

import pytest

from srlab import claims, cli
from srlab.claims import (
    CLAIMS,
    CONFIRMED,
    PARTIAL,
    REFUTED,
    discrepancy_report,
    scan_conjecture_L2n,
    scan_conjecture_Ln,
    verify_claim,
)
from srlab.complexes import cover_complex
from srlab.graphs import cycle
from srlab.homology import GF2, RATIONALS

GOLDEN = Path(__file__).parent / "data" / "verify_all_both.json"

# `scan --field both --format json` reports without `seconds`, written before
# shelling certificates decided scan cells; every later change must reproduce them.
SCAN_GOLDEN = {
    "scan_Ln_k4_n12_both.json": ["--conjecture", "Ln", "--kmax", "4", "--nmax", "12"],
    "scan_L2n_k3_n10_both.json": ["--conjecture", "L2n", "--kmax", "3", "--nmax", "10"],
}


def test_catalog_completeness():
    assert len(CLAIMS) >= 15
    families = {rec.family for rec in CLAIMS.values()}
    for fam in ("P", "L", "S", "C", "C2", "L2", "Kmn", "K2xKn", "Grid", "W", "TreeEdges", "simplex"):
        assert fam in families, fam
    # conflicting statements are paired records pointing at each other
    for rec in CLAIMS.values():
        if rec.counterpart:
            assert rec.counterpart in CLAIMS, rec.claim_id
    refuted_records = [r for r in CLAIMS.values() if not r.expect_confirmed]
    assert len(refuted_records) >= 8
    assert all(r.counterpart for r in refuted_records)


def test_all_claims_match_expected_status(capsys):
    assert cli.main(["verify", "--all", "--field", "both", "--format", "json"]) == 0  # no unexpected refutation
    payload = json.loads(capsys.readouterr().out)
    for r in payload["results"]:
        del r["seconds"]
        if r["status"] != PARTIAL:
            assert (r["status"] == CONFIRMED) == CLAIMS[r["claim"]].expect_confirmed, r
    # every value of the report except its timings is pinned
    assert payload == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SCAN_GOLDEN))
def test_scans_match_golden_files(capsys, name):
    assert cli.main(["scan", *SCAN_GOLDEN[name], "--field", "both", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["seconds"]
    assert (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode() == (GOLDEN.parent / name).read_bytes()


def test_verify_all_runs_each_claim_once_per_field(capsys, monkeypatch):
    calls = []
    run_claim = claims.verify_claim
    monkeypatch.setattr(claims, "verify_claim", lambda *a, **kw: calls.append(a) or run_claim(*a, **kw))
    assert cli.main(["verify", "--all", "--field", "GF(2)", "--format", "json"]) == 0
    assert len(calls) == len(CLAIMS)
    # the discrepancies come from the GF(2) results, and read as they do over Q
    payload = json.loads(capsys.readouterr().out)
    assert payload["discrepancies"] == json.loads(GOLDEN.read_text())["discrepancies"]


def test_refuted_variants_are_refuted():
    for cid, rec in CLAIMS.items():
        if rec.expect_confirmed:
            continue
        r = verify_claim(cid)
        assert r.status == REFUTED, r.to_json()
        assert r.discrepancies, cid


def test_unknown_claim():
    with pytest.raises(KeyError):
        verify_claim("no.such.claim")


def test_discrepancy_report_contents_and_stability():
    rep1 = discrepancy_report()
    rep2 = discrepancy_report()
    assert rep1 == rep2
    assert len(rep1) >= 9
    subjects = " | ".join(d.subject for d in rep1)
    for needle in (
        "numerator",
        "tree-ring Betti closed form",
        "degree index of the six-vertex star",
        "six-vertex path, degree-3 dual Betti",
        "third Betti number",
        "cycle Betti formulas",
        "squared-path Betti descriptions",
        "2k-cycle pair",
        "bipartite duals at m=k",
    ):
        assert needle in subjects, needle
    # every entry shows both values side by side
    for d in rep1:
        assert d.reference and d.computed


def test_cross_field_summary():
    from srlab.claims import cross_field_summary

    results = [verify_claim("k1.theorem", field=f) for f in (RATIONALS, GF2)]
    summary = cross_field_summary(results)
    assert summary == [{"claim": "k1.theorem", "status": CONFIRMED, "fields": {"Q": CONFIRMED, "GF(2)": CONFIRMED}}]
    # a synthetic disagreement downgrades to PARTIAL
    fake = [results[0], results[1]._replace(status=REFUTED)]
    assert cross_field_summary(fake)[0]["status"] == PARTIAL


def test_claim_reproducibility():
    a = verify_claim("k44.example")
    b = verify_claim("k44.example")
    ja, jb = a.to_json(), b.to_json()
    ja.pop("seconds"), jb.pop("seconds")
    assert ja == jb


def test_scan_ln_small():
    rep = scan_conjecture_Ln((2, 3), (3, 8), (RATIONALS,))
    assert rep.counterexamples == []
    assert rep.status == PARTIAL
    ks = {(c.k, c.n) for c in rep.cells}
    assert (2, 3) in ks and (3, 5) in ks and (3, 8) in ks
    assert (3, 4) not in ks  # below the independent-set threshold
    for c in rep.cells:
        assert c.linear_degree is not None and c.cm, c
    assert any("k=3, n=6" in note for note in rep.notes)


def test_scan_l2n_small():
    rep = scan_conjecture_L2n((2, 3), (3, 8), (RATIONALS, GF2))
    assert rep.counterexamples == []
    for c in rep.cells:
        assert c.linear_degree is not None and c.cm and c.dual_linear_degree is not None and c.dual_cm, c
    fields = {c.field for c in rep.cells}
    assert fields == {"Q", "GF(2)"}
    j = rep.to_json()
    assert j["status"] == PARTIAL and j["cells"]


def test_require_ring_refutes_with_the_verdicts_it_saw():
    c5 = cover_complex(cycle(5), 2)  # 3-linear and not CM
    right = {"entries": {(1, 3): 5, (2, 4): 5, (3, 5): 1}, "linear": True, "degree": 3, "cm": False}
    assert claims._require_ring(c5, RATIONALS, "C5", **right).entries == {(0, 0): 1, **right["entries"]}
    assert claims._require_ring(c5, RATIONALS, "C5").entries == {(0, 0): 1, **right["entries"]}
    wrong = {"entries": {(1, 3): 5}, "linear": False, "degree": 4, "cm": True}
    for key, value in wrong.items():
        with pytest.raises(claims._Refuted) as refuted:
            claims._require_ring(c5, RATIONALS, "C5", **{**right, key: value})
        expected, got = refuted.value.args
        assert expected.startswith("C5: ") and got.startswith("C5: ") and got.endswith("linear degree 3, CM=False")
    assert refuted.value.args == (
        "C5: b[0,0]=1 b[1,3]=5 b[2,4]=5 b[3,5]=1, linear, 3-linear, CM",
        "C5: b[0,0]=1 b[1,3]=5 b[2,4]=5 b[3,5]=1; linear degree 3, CM=False",
    )
    with pytest.raises(claims._Refuted) as refuted:
        claims._require_ring(c5, RATIONALS, "C5", degree=1)
    assert refuted.value.args == ("C5: 1-linear", "C5: linear degree 3, CM=False")
