import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from srlab import cli
from srlab.claims import CLAIMS, ClaimOutcome, ClaimRecord, _require, scan_conjecture_L2n, scan_conjecture_Ln
from srlab.bitsets import mask_of
from srlab.complexes import (
    alexander_dual,
    complex_from_json,
    complex_to_json,
    cover_complex,
    f_vector,
    make_complex,
    simplex_complex,
)
from srlab.errors import GuardExceeded
from srlab.graphs import path, path_square
from srlab.resolution import DEFAULT_HOCHSTER_GUARD, betti_hochster, stored_order_shells
from srlab.structure import is_fat_forest, is_pure_shellable, is_vertex_decomposable

DATA = Path(__file__).parent / "data"

# `invariants --no-cache` reports written before Reisner's sweep moved to facet
# intersections and Alexander duality; every later change must reproduce them.
GOLDEN = {
    "invariants_C_12_k3_Q.json": ["--family", "C", "--n", "12", "--k", "3", "--field", "Q"],
    "invariants_C_12_k3_GF2.json": ["--family", "C", "--n", "12", "--k", "3", "--field", "GF(2)"],
    "invariants_L_12_k4_Q.json": ["--family", "L", "--n", "12", "--k", "4", "--field", "Q"],
    "invariants_L2_11_k3_Q.json": ["--family", "L2", "--n", "11", "--k", "3", "--field", "Q"],
    "invariants_Grid_4x3_k2_dual_GF3.json": [
        "--family", "Grid", "--n", "4", "--m", "3", "--k", "2", "--dual", "--field", "GF(3)",
    ],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_family(capsys):
    code, out = run(capsys, "build", "--family", "C", "--n", "4", "--k", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["facets"] == [[1, 3], [2, 4]] and not obj["void"]


def test_m_for_a_family_that_never_reads_it_exits_1(capsys):
    assert cli.main(["build", "--family", "L", "--n", "4", "--m", "7", "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and '"m" is only for families Kmn and Grid' in captured.err
    assert captured.out == ""
    assert run(capsys, "build", "--family", "Grid", "--n", "4", "--m", "3", "--k", "2")[0] == 0


def test_flags_the_input_does_not_read_exit_1(capsys, tmp_path):
    complex_file = tmp_path / "complex.json"
    complex_file.write_text('{"n": 3, "facets": [[1, 2], [3]]}')
    graph_file = tmp_path / "graph.json"
    graph_file.write_text('{"n": 3, "edges": [[1, 2]]}')
    for argv, problem in [
        (["--family", "L", "--n", "4", "--k", "2", "--clique"], "--clique does not read --k"),
        (["--family", "L", "--n", "4", "--k", "0", "--clique"], "--clique does not read --k"),
        (["--input", str(complex_file), "--k", "2"], "a complex JSON does not read --k"),
        (["--input", str(complex_file), "--clique"], "a complex JSON does not read --clique"),
        (["--input", str(complex_file), "--k", "2", "--clique"], "does not read --k or --clique"),
        (["--input", str(graph_file), "--k", "2", "--n", "5"], "--input does not read --n"),
        (["--input", str(graph_file), "--family", "L", "--k", "2"], "--input does not read --family"),
    ]:
        for command in ("build", "invariants"):
            assert cli.main([command, *argv]) == 1, (command, argv)
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and problem in captured.err, (command, argv)
            assert captured.out == ""
    for argv in (["--family", "L", "--n", "4", "--clique"], ["--input", str(complex_file)], ["--input", str(graph_file), "--k", "2"]):
        assert run(capsys, "build", *argv)[0] == 0, argv


def test_build_void_exit_code(capsys):
    code, out = run(capsys, "build", "--family", "C", "--n", "4", "--k", "3")
    assert code == 3
    assert json.loads(out)["void"]


def test_build_dual_and_clique(capsys):
    code, out = run(capsys, "build", "--family", "K2xKn", "--n", "2", "--k", "2", "--dual")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 4
    code, out = run(capsys, "build", "--family", "C2", "--n", "6", "--clique")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 8


def test_usage_errors_exit_1(capsys):
    assert cli.main(["build", "--family", "C", "--n", "4"]) == 1  # missing --k
    assert cli.main(["build"]) == 1
    assert cli.main(["verify"]) == 1
    assert cli.main(["verify", "--claim", "k44.example", "--all"]) == 1  # one or the other, never both
    assert cli.main(["nonsense"]) == 1
    assert cli.main(["scan", "--conjecture", "Qn"]) == 1
    # flags a command does not read are not accepted
    assert cli.main(["build", "--family", "C", "--n", "4", "--k", "2", "--field", "Q"]) == 1
    assert cli.main(["build", "--family", "C", "--n", "4", "--k", "2", "--format", "json"]) == 1
    assert cli.main(["verify", "--claim", "k44.example", "--workers", "2"]) == 1
    assert cli.main(["verify", "--claim", "k44.example", "--override-guards"]) == 1
    assert cli.main(["invariants", "--family", "C", "--n", "4", "--k", "2", "--format", "tsv"]) == 1
    assert cli.main(["invariants", "--family", "C", "--n", "4", "--k", "2", "--workers", "2"]) == 1
    assert cli.main(["scan", "--conjecture", "Ln", "--workers", "2"]) == 1


_INPUT = {"--input", "--family", "--n", "--m", "--k", "--dual", "--clique"}
_GUARD = {"--max-ground", "--override-guards"}
_REPORT = {"--format", "--field", "-o", "--output"}
OPTIONS = {
    "build": _INPUT | {"-o", "--output"},
    "invariants": _INPUT | _REPORT | _GUARD | {"--cache-dir", "--no-cache"},
    "verify": _REPORT | {"--claim", "--all"},
    "scan": _REPORT | _GUARD | {"--conjecture", "--kmin", "--kmax", "--nmin", "--nmax"},
}


def test_each_subcommand_takes_the_pinned_options_and_readme_names_them():
    """Adding or dropping a flag changes this dict, and the README must follow."""
    parser = cli.make_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    got = {
        name: {s for a in p._actions if a.dest != "help" for s in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    flag = r"(?<![\w-])--[a-z][a-z-]*"
    in_backticks = {f for span in re.findall(r"`([^`\n]+)`", cli_section) for f in re.findall(flag, span)}
    accepted = {f for opts in OPTIONS.values() for f in opts if f.startswith("--")}
    assert accepted <= in_backticks, accepted - in_backticks
    named = set(re.findall(flag, cli_section))
    assert named <= accepted, named - accepted


def test_unreadable_input_exits_1(capsys, tmp_path):
    assert cli.main(["invariants", "--input", str(tmp_path)]) == 1  # a directory
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "text, problem",
    [
        pytest.param(text, problem, id=text)
        for text, problem in [
            ('{"n":3,"facets":[["1"]]}', '"facets" must be'),
            ('{"n":3,"facets":5}', '"facets" must be'),
            ('{"n":3,"edges":[["1","2"]]}', '"edges" must be'),
            ('{"family":"L","n":"4"}', '"n" must be'),
            ("5", "must be an object"),
            ("null", "must be an object"),
            ('{"n":3,"facets":[[0]]}', '"facets" must be'),
            ('{"n":true,"facets":[[1]]}', '"n" must be'),
            ('{"n":3,"facets":[[true]]}', '"facets" must be'),
            ('{"n":3,"facets":[[1]],"void":"no"}', '"void" must be true or false'),
            ('{"n":3,"facets":[[1,1]]}', "facet [1, 1] repeats a vertex"),
            ('{"family":"L","n":4,"m":7}', '"m" is only for families Kmn and Grid'),
            ('{"n":3,"edges":[[1,2]],"m":5}', '"m" is only for families Kmn and Grid'),
        ]
    ],
)
def test_malformed_input_json_exits_1(capsys, tmp_path, text, problem):
    f = tmp_path / "input.json"
    f.write_text(text)
    assert cli.main(["invariants", "--input", str(f), "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and problem in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--claim", "k1.theorem", "--field", "both", "--format", "pretty"],
        ["scan", "--conjecture", "Ln", "--kmax", "3", "--nmax", "7", "--format", "pretty"],
    ],
)
def test_output_file_holds_all_of_stdout(capsys, tmp_path, argv):
    def timeless(text):  # the scan header reports its own run time
        return re.sub(r"\d+\.\ds$", "", text, flags=re.M)

    code, out = run(capsys, *argv)
    f = tmp_path / "out.txt"
    assert run(capsys, *argv, "-o", str(f)) == (code, "")
    assert len(out.splitlines()) >= 2 and timeless(f.read_text()) == timeless(out)


def test_guard_exit_2(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the cover was built before the Hochster guard")

    monkeypatch.setattr(cli, "cover_complex", unreachable)  # the guard fires before construction
    assert cli.main(["invariants", "--family", "P", "--n", "23", "--k", "2", "--no-cache"]) == 2
    assert "guard: ground set 23 exceeds Hochster guard 22" in capsys.readouterr().err
    # a void complex above the guard stops at the guard too
    assert cli.main(["invariants", "--family", "C", "--n", "24", "--k", "13", "--no-cache"]) == 2


def _points(n, k):
    return make_complex(n, [1 << i for i in range(k)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda o: f_vector(_points(25, 2), override=o), "ground set 25 exceeds face-enumeration guard 24"),
        (lambda o: betti_hochster(simplex_complex(23), override=o), "ground set 23 exceeds Hochster guard 22"),
        (lambda o: is_fat_forest(_points(16, 16), override=o), "16 facets exceed fat-forest search guard 15"),
        (
            lambda o: is_vertex_decomposable(simplex_complex(17), override=o),
            "ground set 17 exceeds vertex-decomposability guard 16",
        ),
        (lambda o: is_pure_shellable(_points(13, 13), override=o), "13 facets exceed shelling search guard 12"),
    ],
)
def test_guard_messages_and_override(call, message):
    with pytest.raises(GuardExceeded) as e:
        call(False)
    assert str(e.value) == message + "; pass override=True (CLI: --override-guards)"
    call(True)


def test_scan_override_guards(capsys):
    argv = ["scan", "--conjecture", "Ln", "--kmin", "2", "--kmax", "2", "--nmin", "6", "--nmax", "6"]
    code, out = run(capsys, *argv, "--max-ground", "5", "--override-guards")
    assert code == 0
    code, stock = run(capsys, *argv, "--max-ground", "22")
    assert code == 0
    assert json.loads(out)["cells"] == json.loads(stock)["cells"] != []


@pytest.mark.parametrize("conjecture, graph", [("Ln", path), ("L2n", path_square)], ids=["Ln", "L2n"])
def test_scan_hochster_guard_stops_a_scan_whose_cells_are_all_certified(capsys, conjecture, graph):
    c = cover_complex(graph(6), 2)
    assert stored_order_shells(c) and stored_order_shells(alexander_dual(c))  # both tables are certified
    argv = ["scan", "--conjecture", conjecture, "--kmin", "2", "--kmax", "2", "--nmin", "6", "--nmax", "6"]
    assert cli.main([*argv, "--max-ground", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "guard: ground set 6 exceeds Hochster guard 5" in captured.err


def test_override_guards_reaches_every_guard(capsys, tmp_path):
    c = alexander_dual(make_complex(25, [mask_of([1]), mask_of([2])]))  # its dual is two points
    f = tmp_path / "complex.json"
    f.write_text(json.dumps(complex_to_json(c)))
    code, out = run(capsys, "invariants", "--input", str(f), "--override-guards", "--max-ground", "30", "--no-cache")
    assert code == 0
    rep = json.loads(out)
    assert rep["eagonReiner"]["dualCm"] is True
    assert rep["fatForest"] == {"verdict": False}  # 24 facets, past the fat-forest guard
    assert "guard" not in out


def test_invariants_void_exit_3(capsys):
    code, out = run(capsys, "invariants", "--family", "C", "--n", "4", "--k", "3")
    assert code == 3
    assert json.loads(out)["note"] == "void complex"


def test_invariants_report(capsys, tmp_path):
    code, out = run(capsys, "invariants", "--family", "C2", "--n", "6", "--k", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["fVector"] == [1, 6, 15, 12, 3]
    assert rep["linearDegree"] == 3
    assert rep["cmReisner"] is False and rep["cmAuslanderBuchsbaum"] is False
    assert rep["betti"]["entries"] == [[0, 0, 1], [1, 3, 8], [2, 4, 12], [3, 5, 6], [4, 6, 1]]
    assert rep["eagonReiner"]["consistent"] is True
    assert rep["hilbert"]["denomPower"] == 6


def test_invariants_pretty_lines_match_the_json_report(capsys, monkeypatch):
    # the README's example, and a clique complex (the dual of the degree-2 cover)
    monkeypatch.delenv("SRLAB_CACHE_DIR", raising=False)
    for argv in (["--family", "C2", "--n", "6", "--k", "2"], ["--family", "C2", "--n", "6", "--clique", "--no-cache"]):
        code, out = run(capsys, "invariants", *argv, "--format", "pretty")
        assert code == 0
        rep = json.loads(run(capsys, "invariants", *argv)[1])
        want = {
            "ground set": rep["complex"]["n"],
            "facets": len(rep["complex"]["facets"]),
            "f-vector": rep["fVector"],
            "field": rep["field"],
            "betti": rep["betti"]["entries"],
            "linear degree": rep["linearDegree"],
            "CM (links)": rep["cmReisner"],
            "CM (pd)": rep["cmAuslanderBuchsbaum"],
            "gorenstein": rep["gorenstein"],
            "fat forest": rep["fatForest"]["verdict"],
            "vertex decomp.": rep["vertexDecomposable"]["verdict"],
            "shellable": rep["shellable"]["verdict"],
        }
        assert [(line[:16].rstrip(), line[16:]) for line in out.splitlines()] == [(k, str(v)) for k, v in want.items()]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_invariants_reports_match_golden_files(capsys, name):
    code, out = run(capsys, "invariants", "--no-cache", *GOLDEN[name])
    assert code == 0
    assert out.encode() == (DATA / name).read_bytes()


def test_fvector_from_the_side_with_the_smaller_top_facet(capsys, tmp_path):
    c = cover_complex(path(10), 3)  # top facet 7; its dual's is smaller
    assert alexander_dual(c).dim() < c.dim()
    for extra in ([], ["--dual"]):
        code, out = run(capsys, "invariants", "--no-cache", "--family", "L", "--n", "10", "--k", "3", *extra)
        assert code == 0
        assert json.loads(out)["fVector"] == list(f_vector(alexander_dual(c) if extra else c))
    simplex = tmp_path / "simplex.json"  # its dual is void
    simplex.write_text(json.dumps({"n": 4, "facets": [[1, 2, 3, 4]], "void": False}))
    code, out = run(capsys, "invariants", "--no-cache", "--input", str(simplex))
    assert code == 0 and json.loads(out)["fVector"] == [1, 4, 6, 4, 1]


def test_invariants_cache_bytes_identical(capsys, tmp_path):
    cachedir = str(tmp_path / "cache")
    args = ["invariants", "--family", "C", "--n", "6", "--k", "2", "--cache-dir", cachedir]
    code1 = cli.main(args)
    out1 = capsys.readouterr().out
    assert code1 == 0
    assert list((tmp_path / "cache").iterdir())  # cache populated
    code2 = cli.main(args)
    out2 = capsys.readouterr().out
    assert code2 == 0 and out1 == out2
    # and identical to the uncached run
    code3 = cli.main(["invariants", "--family", "C", "--n", "6", "--k", "2", "--no-cache"])
    out3 = capsys.readouterr().out
    assert code3 == 0 and out3 == out1


def _cold_report_and_cache_file(capsys, tmp_path):
    args = ["invariants", "--family", "C", "--n", "6", "--k", "2", "--cache-dir", str(tmp_path / "cache")]
    assert cli.main(args) == 0
    (entry,) = (tmp_path / "cache").iterdir()
    return args, capsys.readouterr().out, entry


def test_truncated_cache_file_is_recomputed(capsys, tmp_path):
    args, cold, entry = _cold_report_and_cache_file(capsys, tmp_path)
    entry.write_text(entry.read_text()[:25])
    assert cli.main(args) == 0
    assert capsys.readouterr().out == cold
    assert json.loads(entry.read_text())["entries"][0] == [0, 0, 1]  # rewritten whole
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]


def test_wrong_cached_table_is_not_served(capsys, tmp_path, monkeypatch):
    args, cold, entry = _cold_report_and_cache_file(capsys, tmp_path)
    table = json.loads(entry.read_text())
    table["entries"][1][2] += 1
    entry.write_text(json.dumps(table, sort_keys=True))
    computed = []
    real = cli.betti_hochster
    monkeypatch.setattr(cli, "betti_hochster", lambda *a, **kw: computed.append(a) or real(*a, **kw))
    assert cli.main(args) == 0
    assert capsys.readouterr().out == cold
    assert len(computed) == 1
    assert cli.main(args) == 0  # the rewritten file is served again
    assert capsys.readouterr().out == cold and len(computed) == 1


def _valid_entries_same_kpolynomial(table):
    table["entries"][1][2] += 1  # beta_{1,4}: 6 -> 7; a new beta_{2,4} = 1 keeps the K-polynomial
    table["entries"].append([2, 4, 1])


@pytest.mark.parametrize(
    "edit",
    [
        lambda table: table["entries"].append([1, -50, 0]),  # j < i breaks kpolynomial
        lambda table: table["entries"].extend([[-1, 3, 5], [2, 3, 5]]),  # the pair keeps the K-polynomial
        _valid_entries_same_kpolynomial,  # passes every entry check; only the digest sees it
        lambda table: table.pop("sha256"),
    ],
    ids=["degree-below-index", "cancelling-pair", "valid-entries", "missing-digest"],
)
def test_corrupt_cached_entries_are_recomputed(capsys, tmp_path, edit):
    args, cold, entry = _cold_report_and_cache_file(capsys, tmp_path)
    written = entry.read_text()
    table = json.loads(written)
    edit(table)
    entry.write_text(json.dumps(table, sort_keys=True))
    assert cli.main(args) == 0
    assert capsys.readouterr().out == cold
    assert entry.read_text() == written


def test_cache_is_keyed_on_the_package_sources(capsys, tmp_path, monkeypatch):
    args, cold, entry = _cold_report_and_cache_file(capsys, tmp_path)
    computed = []
    real = cli.betti_hochster
    monkeypatch.setattr(cli, "betti_hochster", lambda *a, **kw: computed.append(a) or real(*a, **kw))
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)  # as if any source file had changed
    assert cli.main(args) == 0
    assert capsys.readouterr().out == cold and len(computed) == 1
    assert entry.exists() and len(list(entry.parent.iterdir())) == 2  # a second entry, the first untouched


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SRLAB_CACHE_DIR", str(tmp_path / "envcache"))
    assert cli.main(["invariants", "--family", "C", "--n", "5", "--k", "2"]) == 0
    capsys.readouterr()
    assert list((tmp_path / "envcache").iterdir())


def test_roundtrip_build_then_invariants(capsys, tmp_path):
    code, out = run(capsys, "build", "--family", "L2", "--n", "6", "--k", "2")
    assert code == 0
    f = tmp_path / "complex.json"
    f.write_text(out)
    code, via_file = run(capsys, "invariants", "--input", str(f))
    assert code == 0
    code, direct = run(capsys, "invariants", "--family", "L2", "--n", "6", "--k", "2")
    assert code == 0
    assert via_file == direct
    assert complex_from_json(json.loads(out)) == cover_complex(__import__("srlab.graphs", fromlist=["path_square"]).path_square(6), 2)


def test_graph_file_input(capsys, tmp_path):
    f = tmp_path / "graph.json"
    f.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}))
    code, out = run(capsys, "build", "--input", str(f), "--k", "2")
    assert code == 0
    assert json.loads(out)["facets"] == [[1, 3], [2, 4]]
    f2 = tmp_path / "fam.json"
    f2.write_text(json.dumps({"family": "C2", "n": 9}))
    code, out = run(capsys, "build", "--input", str(f2), "--k", "3")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 3


def test_verify_claim_and_formats(capsys):
    code, out = run(capsys, "verify", "--claim", "k44.example", "--format", "pretty")
    assert code == 0 and "CONFIRMED" in out
    code, out = run(capsys, "verify", "--claim", "grid.as-stated", "--format", "json")
    assert code == 0  # expected refutation does not fail the run
    payload = json.loads(out)
    assert payload["results"][0]["status"] == "REFUTED"
    code, out = run(capsys, "verify", "--claim", "cycle.betti.adjudicated", "--format", "tsv", "--field", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("claim\t") and len(lines) == 3


def test_verify_exit_4_on_unexpected_refutation(capsys, monkeypatch):
    def bad_runner(field):
        for n in (1, 2, 3):
            _require(n < 2, f"n={n}: below 2", f"n={n}")
        return ClaimOutcome(True, "unreachable", "unreachable")

    monkeypatch.setitem(CLAIMS, "always.fails", ClaimRecord("always.fails", "any", "test", True, bad_runner))
    code, out = run(capsys, "verify", "--claim", "always.fails")
    assert code == 4
    (result,) = json.loads(out)["results"]
    assert (result["status"], result["expected"], result["got"]) == ("REFUTED", "n=2: below 2", "n=2")

    def guarded_runner(field):
        raise GuardExceeded("ground set 30 exceeds Hochster guard 22")

    monkeypatch.setitem(CLAIMS, "always.guarded", ClaimRecord("always.guarded", "any", "test", True, guarded_runner))
    assert cli.main(["verify", "--claim", "always.guarded"]) == 2
    assert "guard: ground set 30" in capsys.readouterr().err


def test_hochster_guard_default_is_one_constant():
    parser = cli.make_parser()
    for argv in (["invariants"], ["scan", "--conjecture", "Ln"]):
        assert parser.parse_args(argv).max_ground == DEFAULT_HOCHSTER_GUARD
    for scanner in (scan_conjecture_Ln, scan_conjecture_L2n):
        assert inspect.signature(scanner).parameters["max_ground"].default == DEFAULT_HOCHSTER_GUARD


def test_scan_formats_and_exit(capsys):
    code, out = run(capsys, "scan", "--conjecture", "Ln", "--kmax", "2", "--nmax", "7", "--format", "tsv")
    assert code == 0
    assert out.startswith("k\tn\tfield")
    code, out = run(capsys, "scan", "--conjecture", "L2n", "--kmax", "2", "--nmax", "7", "--format", "json", "--field", "Q")
    assert code == 0
    rep = json.loads(out)
    assert rep["conjecture"] == "L2n" and rep["counterexamples"] == []


@pytest.mark.parametrize("bounds", [["--kmin", "3", "--kmax", "2"], ["--nmax", "-3"], ["--kmin", "4", "--nmax", "6"]])
def test_scan_that_covers_no_cell_exits_1(capsys, bounds):
    assert cli.main(["scan", "--conjecture", "Ln", *bounds]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the scan covers no cell") and captured.out == ""


_CATALOG_ON_FIRST_USE = """
import importlib.util, sys, types
import srlab.cli as cli

def loaded(*names):
    return [name for name in names if type(sys.modules[f"srlab.{name}"]) is types.ModuleType]

assert cli.main(["build", "--family", "C", "--n", "4", "--k", "2"]) == 0
assert cli.main(["scan", "--conjecture", "Ln", "--kmax", "2", "--nmax", "5"]) == 0
assert loaded("claims", "scans", "structure") == ["scans"], "build or scan ran the catalog or the structure searches"
assert cli.main(["invariants", "--family", "C", "--n", "5", "--k", "2", "--cache-dir", sys.argv[1]]) == 0
assert loaded("claims", "structure") == ["structure"], "invariants ran the claim catalog"
if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
    assert "_hashlib" not in sys.modules, "the Betti cache loaded OpenSSL"
assert cli.main(["verify", "--claim", "k44.example"]) == 0
assert loaded("claims") == ["claims"]
import srlab.claims, srlab.scans
assert sys.modules["srlab.claims"] is srlab.claims and sys.modules["srlab.scans"] is srlab.scans
assert srlab.claims.scan_conjecture_Ln is srlab.scans.scan_conjecture_Ln is cli.scans.scan_conjecture_Ln
from srlab.claims import CLAIMS
assert len(CLAIMS) == 39
"""


def test_reports_never_run_the_claim_catalog(tmp_path):
    # a fresh interpreter: other test modules import srlab.claims eagerly
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CATALOG_ON_FIRST_USE, str(tmp_path / "cache")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cache_digest_matches_hashlib():
    import hashlib

    for data in (b"", b"abc", json.dumps([[0, 0, 1], [1, 3, 5]]).encode(), bytes(range(256)) * 40):
        assert cli._sha256(data) == hashlib.sha256(data).hexdigest()


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    assert cli.main(["build", "--family", "C", "--n", "5", "--k", "2", "-o", str(target)]) == 0
    assert json.loads(target.read_text())["n"] == 5
