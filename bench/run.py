"""Benchmark for srlab: four workloads, each run as whole passes of fresh srlab processes.

    python3 bench/run.py --workload {catalog,stretch,dual,invariants} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree: srlab is imported from ./src. One parent
process starts one srlab process at a time, so the timings measure srlab and
not the scheduler; times are scaled to one machine speed (ReferenceClock).
Passes repeat until --seconds have gone by; every pass runs the same
operations. Each operation's output is checked against values
computed in bench/oracle.py without srlab. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are run_s, setup_s and peak_rss_mb, and with --trace 1
the per-layer span metrics of bench/tracing.py. Per-run details go to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

DEFAULT_SEED = 1
SETUP_FIRST, SETUP_EVERY_S = 3, 4.0  # setup_s samples: 3, then one more per 4 s of passes
REFERENCE_S = 0.125  # the reference program's wall time at the speed every time metric is expressed in
RUN_DEADLINE_S = 150  # no pass starts after this; a process still running at KILL_AFTER_S is killed
KILL_AFTER_S = 170
GUARD_EXIT = 2

VERIFY_CLAIMS = 39  # records in srlab's claim catalog
RANDOM_GRAPHS = 3  # seeded graphs in the invariants workload
RANDOM_N, RANDOM_EDGES, RANDOM_K = 10, 12, 3


@dataclass
class Op:
    """One srlab process: child.py arguments, the exit code it must give, and a check of its stdout."""

    label: str
    args: list[str]
    check: Callable[[bytes, dict[str, bytes]], list[str]]
    expect_exit: int = 0


# ---------------------------------------------------------------------------
# Workloads


def _tables_op(label, spec, n, f, cover_f=None) -> Op:
    def check(out: bytes, _outputs) -> list[str]:
        res = json.loads(out)
        tables, covers = res["tables"], res["cover_tables"]
        errs = []
        for field, entries in tables.items():
            errs += oracle.check_table(f"{label} {field}", entries, n, f)
            if field != oracle.FIELD_Q and oracle.FIELD_Q in tables:
                errs += oracle.check_field_bounds(label, tables[oracle.FIELD_Q], entries, field)
        for field, entries in covers.items():
            errs += oracle.check_table(f"{label} cover {field}", entries, n, cover_f)
            errs += oracle.check_eagon_reiner(f"{label} {field}", tables[field], entries, n, cover_f)
        if sorted(tables) != sorted(spec["fields"]) or sorted(covers) != sorted(spec.get("cover_fields", ())):
            errs.append(f"{label}: tables for the wrong fields")
        return errs

    return Op(label, ["tables", json.dumps(spec, sort_keys=True)], check)


def _cover_reference(family, n, m, k):
    nv, edges = oracle.family_graph(family, n, m)
    return nv, oracle.face_bitmap(nv, oracle.cover_facets(nv, edges, k))


def catalog_ops(seed: int) -> list[Op]:
    """The stock desk-scale runs: the claim catalog and both conjecture scans."""

    def check_verify(out, _outputs):
        return oracle.check_verify(json.loads(out), VERIFY_CLAIMS, ("Q", "GF(2)"))

    ln_grid = oracle.scan_grid(4, 12, lambda k: 2 * k - 1, lambda n: oracle.family_graph("L", n))
    l2n_grid = oracle.scan_grid(3, 10, lambda k: 3 * k - 2, lambda n: oracle.family_graph("L2", n))
    return [
        Op("verify --all", ["cli", "verify", "--all", "--field", "both"], check_verify),
        Op(
            "scan Ln",
            ["cli", "scan", "--conjecture", "Ln", "--kmax", "4", "--nmax", "12"],
            lambda out, _o: oracle.check_scan("scan Ln", json.loads(out), ln_grid, "Q"),
        ),
        Op(
            "scan L2n",
            ["cli", "scan", "--conjecture", "L2n", "--kmax", "3", "--nmax", "10"],
            lambda out, _o: oracle.check_scan("scan L2n", json.loads(out), l2n_grid, "Q"),
        ),
    ]


STRETCH = [("L", 16, None, 4), ("L", 18, None, 3), ("Kmn", 6, 6, 3), ("C2", 12, None, 3), ("C", 16, None, 2), ("Grid", 5, 3, 2)]
STRETCH_SIMPLEX = 18


def stretch_ops(seed: int) -> list[Op]:
    """Large cover complexes (link-of-the-dual route) and one full simplex (2^18 cone restrictions)."""
    fields = ["Q", "GF(2)"]
    ops = []
    for family, n, m, k in STRETCH:
        nv, faces = _cover_reference(family, n, m, k)
        spec = {"family": family, "n": n, "m": m, "k": k, "fields": fields}
        ops.append(_tables_op(f"{family}{n}{'' if m is None else f',{m}'} k{k}", spec, nv, oracle.f_vector(nv, faces)))
    spec = {"simplex": STRETCH_SIMPLEX, "fields": fields}
    ops.append(_tables_op(f"simplex({STRETCH_SIMPLEX})", spec, STRETCH_SIMPLEX, oracle.simplex_fvector(STRETCH_SIMPLEX)))
    return ops


DUAL = [("L", 12, None, 3, ["Q", "GF(2)", "GF(3)"]), ("Grid", 4, 3, 3, ["Q", "GF(2)"])]


def dual_ops(seed: int) -> list[Op]:
    """Alexander duals at n = 12: small facets, so the Hochster sum visits all 2^12 subsets."""
    ops = []
    for family, n, m, k, fields in DUAL:
        nv, faces = _cover_reference(family, n, m, k)
        dual_f = oracle.f_vector(nv, oracle.dual_bitmap(nv, faces))
        spec = {"family": family, "n": n, "m": m, "k": k, "dual": True, "fields": fields, "cover_fields": fields}
        label = f"dual {family}{n}{'' if m is None else f',{m}'} k{k}"
        ops.append(_tables_op(label, spec, nv, dual_f, oracle.f_vector(nv, faces)))
    return ops


INVARIANTS = [
    ("C", 12, None, 3, "Q"),
    ("L", 12, None, 4, "Q"),
    ("L2", 11, None, 3, "Q"),
    ("Grid", 4, 3, 2, "Q"),
    ("Kmn", 4, 4, 3, "Q"),
    ("C2", 9, None, 2, "Q"),
    ("C", 12, None, 3, "GF(2)"),
]
GUARD_CASE = ["invariants", "--family", "P", "--n", "17", "--k", "2", "--max-ground", "16"]


def random_graph(rng: random.Random) -> list[tuple[int, int]]:
    """G(n, m) with an independent RANDOM_K-set, so the cover complex is not void."""
    pairs = [(u, v) for u in range(1, RANDOM_N + 1) for v in range(u + 1, RANDOM_N + 1)]
    while True:
        edges = sorted(rng.sample(pairs, RANDOM_EDGES))
        if oracle.independent_sets(RANDOM_N, edges, RANDOM_K):
            return edges


def invariants_ops(seed: int) -> list[Op]:
    """Full reports, each fresh against an empty cache and again from the filled cache, plus a guard case."""
    cache = str(WORK / "cache")
    inputs = []  # (label, srlab input arguments, field, ground set, face bitmap)
    for family, n, m, k, field in INVARIANTS:
        args = ["--family", family, "--n", str(n), "--k", str(k)] + ([] if m is None else ["--m", str(m)])
        inputs.append((f"{family}{n}{'' if m is None else f',{m}'} k{k} {field}", args, field, *_cover_reference(family, n, m, k)))
    rng = random.Random(seed)
    for idx in range(RANDOM_GRAPHS):
        edges = random_graph(rng)
        path = WORK / f"graph{idx}.json"
        path.write_text(json.dumps({"n": RANDOM_N, "edges": edges}))
        faces = oracle.face_bitmap(RANDOM_N, oracle.cover_facets(RANDOM_N, edges, RANDOM_K))
        inputs.append((f"random{idx} k{RANDOM_K} Q", ["--input", str(path), "--k", str(RANDOM_K)], "Q", RANDOM_N, faces))

    ops = []
    for label, args, field, n, faces in inputs:
        f = oracle.f_vector(n, faces)
        argv = ["cli", "invariants", *args, "--field", field, "--cache-dir", cache]

        def check_cold(out, _outputs, label=label, n=n, f=f):
            return oracle.check_report(label, json.loads(out), n, f)

        def check_warm(out, outputs, label=label):
            return oracle.check_warm_report(label, outputs[label + " cold"], out)

        ops.append(Op(label + " cold", argv, check_cold))
        ops.append(Op(label + " warm", argv, check_warm))

    def check_guard(out, _outputs):
        return [] if out == b"" else ["guard case: printed a report"]

    ops.append(Op("guard P17 k2", ["cli", *GUARD_CASE], check_guard, expect_exit=GUARD_EXIT))
    return ops


def invariants_prepare() -> None:
    shutil.rmtree(WORK / "cache", ignore_errors=True)


WORKLOADS = {
    "catalog": (catalog_ops, None),
    "stretch": (stretch_ops, None),
    "dual": (dual_ops, None),
    "invariants": (invariants_ops, invariants_prepare),
}


# ---------------------------------------------------------------------------
# Processes


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SRLAB_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], stdout_path: Path, kill_at: float):
    """Run child.py with args; returns (seconds, exit code, peak RSS in MB, stdout, stderr)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args], stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(max(kill_at - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return seconds, proc.returncode, usage.ru_maxrss / 1024, stdout_path.read_bytes(), err_path.read_bytes()


class ReferenceClock:
    """Times srlab processes at one fixed machine speed.

    On a shared 2-vCPU virtual machine, Python ran up to 1.5 times faster or
    slower from one minute to the next, and raw wall times of identical code
    moved by more than 20 % between sets of runs. So every timed process is
    followed by a run of a fixed reference program (`child.py reference`,
    which never imports srlab), and its wall time is scaled by REFERENCE_S
    over the mean of the reference times just before and just after it. The
    result is seconds at the speed at which the reference program takes
    REFERENCE_S.
    """

    def __init__(self, kill_at: float):
        self.kill_at = kill_at
        self.last = self._reference()

    def _reference(self) -> float:
        secs, code, _, _, err = spawn(["reference"], WORK / "reference.out", self.kill_at)
        if code != 0:
            raise RuntimeError(f"reference program failed: {err.decode(errors='replace')}")
        return secs

    def run(self, args: list[str], stdout_path: Path):
        """spawn(), with the wall time scaled to reference speed put in front."""
        secs, code, rss, out, err = spawn(args, stdout_path, self.kill_at)
        ref = self._reference()
        scaled = secs * REFERENCE_S / ((self.last + ref) / 2)
        self.last = ref
        return scaled, secs, code, rss, out, err


# ---------------------------------------------------------------------------
# Metrics

_SPAN_FIELDS = [  # (span, the fields of it that are per-layer metrics)
    ("graphs.independent_sets", "calls s"),
    ("complexes.minimal_nonfaces", "calls s"),
    ("complexes.all_faces", "calls s faces"),
    ("complexes.f_vector", "s"),
    ("bitsets.maximal_masks", "calls s"),
    ("homology.homology_dims_from_facets", "calls s"),
    ("homology.rank_gf2", "calls s cols"),
    ("homology.rank_int_exact", "calls s cols nnz"),
    ("homology.rank_gfp", "calls s cols"),
    ("resolution.betti_hochster", "calls s self_s homology_calls"),
    ("resolution.is_cm_reisner", "s"),
    ("resolution.eagon_reiner_check", "s"),
    ("structure.is_fat_forest", "s"),
    ("structure.is_vertex_decomposable", "s"),
    ("structure.is_pure_shellable", "s"),
    ("claims.verify_claim", "calls s"),
    ("cli.main", "calls s"),
]
LAYER_METRICS = [(f"{span}.{field}", [span], field) for span, fields in _SPAN_FIELDS for field in fields.split()] + [
    ("claims.scan.s", ["claims.scan_conjecture_Ln", "claims.scan_conjecture_L2n"], "s"),
    ("cli.cache.hits", ["cli._betti_cached"], "hits"),
    ("cli.cache.misses", ["cli._betti_cached"], "misses"),
    ("cli.guard.s", ["cli.main"], "guard_s"),
]


def layer_unit(field: str) -> str:
    return "s" if field in ("s", "self_s", "guard_s") else "count"


def pass_seconds(passes: list[dict]) -> float:
    """Seconds of one pass: each operation's median over the passes, summed.

    A per-pass total; the per-operation median keeps a burst of load from
    another tenant, which slows one operation of one pass, out of it.
    """
    return sum(statistics.median(p["ops"][i]["seconds"] for p in passes) for i in range(len(passes[0]["ops"])))


def layer_values(spans: dict) -> dict[str, float]:
    zero = {"s": 0.0, "count": 0}
    return {
        metric: sum((spans.get(s, {}).get(field, 0) for s in names), zero[layer_unit(field)])
        for metric, names, field in LAYER_METRICS
    }


def add_spans(total: dict, spans: dict) -> None:
    for name, vals in spans.items():
        acc = total.setdefault(name, {})
        for key, val in vals.items():
            acc[key] = acc.get(key, 0) + val


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not (ROOT / "src" / "srlab" / "__init__.py").is_file():
        print(f"error: no srlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    kill_at = start + KILL_AFTER_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)

    make_ops, prepare = WORKLOADS[opts.workload]
    ops = make_ops(opts.seed)

    # The first spawn compiles bytecode and warms the file cache, and is not timed.
    _, code, _, _, err = spawn(["ready"], WORK / "ready.out", kill_at)
    if code != 0:
        print(f"error: srlab does not import: {err.decode(errors='replace')}", file=sys.stderr)
        return 2
    clock = ReferenceClock(kill_at)
    setup: list[float] = []
    setup_wall: list[float] = []

    def sample_setup(elapsed: float) -> None:
        # Set-up samples are spread over the run, so they meet the same machine as the passes.
        while not opts.trace and len(setup) < SETUP_FIRST + elapsed / SETUP_EVERY_S:
            scaled, wall, *_ = clock.run(["ready"], WORK / "ready.out")
            setup.append(scaled)
            setup_wall.append(wall)

    passes, errors, failures = [], [], []  # failed checks; operations that exited wrongly
    attempted = 0
    t_measure = time.monotonic()
    while not passes or (time.monotonic() - t_measure < opts.seconds and time.monotonic() - start < RUN_DEADLINE_S):
        sample_setup(time.monotonic() - t_measure)
        if prepare:
            prepare()
        record = {"ops": [], "seconds": 0.0, "wall_s": 0.0, "peak_rss_mb": 0.0, "spans": {}}
        outputs: dict[str, bytes] = {}
        for idx, op in enumerate(ops):
            args = op.args
            trace_file = WORK / f"trace{idx}.json"
            if opts.trace:
                args = ["--trace", str(trace_file), *args]
            secs, wall, code, rss, out, err = clock.run(args, WORK / f"op{idx}.out")
            attempted += 1
            record["seconds"] += secs
            record["wall_s"] += wall
            record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
            record["ops"].append({"label": op.label, "seconds": secs, "wall_s": wall, "exit": code, "peak_rss_mb": rss})
            if code != op.expect_exit:
                failures.append(f"{op.label}: exit {code}, expected {op.expect_exit}: {err.decode(errors='replace')[-500:]}")
                continue
            outputs[op.label] = out
            try:
                errors.extend(op.check(out, outputs))
            except (ValueError, KeyError, TypeError) as e:
                errors.append(f"{op.label}: unreadable output ({e!r})")
            if opts.trace:
                trace = json.loads(trace_file.read_text())
                add_spans(record["spans"], trace["spans"])
                record.setdefault("bindings", trace["bindings"])
        passes.append(record)
    sample_setup(time.monotonic() - t_measure)

    if opts.trace:
        per_pass = [layer_values(p["spans"]) for p in passes]
        counted = [m for m, _, field in LAYER_METRICS if layer_unit(field) == "count"]
        if any(v[m] != per_pass[0][m] for v in per_pass for m in counted):
            print("warning: span counts differ between passes", file=sys.stderr)
        metrics = {}  # counts repeat exactly, so the first pass gives them; times are medians
        for metric, _, field in LAYER_METRICS:
            unit = layer_unit(field)
            value = per_pass[0][metric] if unit == "count" else statistics.median(v[metric] for v in per_pass)
            metrics[metric] = {"value": value, "unit": unit}
        metrics["trace.run_s"] = {"value": pass_seconds(passes), "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": pass_seconds(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    detail = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
              "setup_samples_s": setup, "setup_wall_s": setup_wall, "passes": passes, "errors": errors, "failures": failures, "result": result}
    (RESULTS / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(json.dumps(detail, indent=1))
    for e in failures[:10]:
        print(f"operation failed: {e}", file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
