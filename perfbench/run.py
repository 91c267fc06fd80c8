"""degone benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload polar-census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; degone is imported from its
``src`` directory and nothing needs installing.  The workload runs in a
child process (``worker.py``) so that its time, CPU and peak memory are
the program's alone; this process measures set-up time, checks every
written report and every membership read against ``expected.json``,
and prints the metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload runs once more with the layer entry points traced and the
metrics are the per-layer ones.  ``README.md`` beside this file lists
the workloads, the layers and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_SAMPLES = 7
LOOP_MODEL = "closed loop, one client, single process, no worker pool"

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_us.p50": "us",
    "query_us.p90": "us",
}

PER_LAYER = {
    "domains.self_s": "s",
    "domains.build_s": "s",
    "domains.vertices": "count",
    "domains.coords": "count",
    "domains.edges": "count",
    "subspaces.span_dim_calls": "count",
    "subspaces.span_dim_s": "s",
    "ratlinalg.self_s": "s",
    "ratlinalg.rref_s": "s",
    "ratlinalg.kernel_s": "s",
    "ratlinalg.rank": "count",
    "ratlinalg.cells": "count",
    "scheme.divisor_s": "s",
    "scheme.divisor": "count",
    "catalogs.catalog_s": "s",
    "catalogs.entries": "count",
    "catalogs.descriptors": "count",
    "classify.self_s": "s",
    "classify.search_s": "s",
    "classify.nodes": "count",
    "classify.prunes.integrality": "count",
    "classify.prunes.interval": "count",
    "classify.prunes.divisibility": "count",
    "classify.solutions": "count",
    "classify.nodes_per_s": "1/s",
    "classify.yield": "ratio",
    "classify.membership_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.report_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# counters compared per command with expected.json; a change is printed
# next to the timings, since a change to the program must explain it
INVARIANTS = (
    "domains.vertices",
    "domains.coords",
    "domains.edges",
    "subspaces.span_dim_calls",
    "ratlinalg.rank",
    "ratlinalg.cells",
    "scheme.divisor",
    "catalogs.entries",
    "catalogs.descriptors",
    "classify.nodes",
    "classify.prunes.integrality",
    "classify.prunes.interval",
    "classify.prunes.divisibility",
    "classify.solutions",
)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter through ``import degone``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import degone"
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")], check=True, timeout=60
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(hexes) -> str:
    """sha256 of the sorted solution bitvectors, one lowercase hex a line."""
    bits = sorted(int(h, 16) for h in hexes)
    return hashlib.sha256("\n".join(format(b, "x") for b in bits).encode()).hexdigest()


def check_command(op: dict, expected: dict | None):
    """Observed outputs of one command, its problems, and its failed reads."""
    problems = []
    if op["exit"] != 0:
        problems.append(f"exit code {op['exit']}")
    try:
        with open(op["out"]) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"report unreadable: {exc}")
        payload = {"solutions": [], "complete": None}
    records = payload["solutions"]
    hexes = [r["hex"] for r in records]
    solutions = {int(h, 16) for h in hexes}
    observed = {
        "complete": payload["complete"],
        "total": len(hexes),
        "digest": digest(hexes),
    }
    counts = payload.get("counts")  # classification reports carry counts
    if counts is not None:
        if counts["total"] != len(hexes):
            problems.append(f"counts.total {counts['total']} != {len(hexes)} records")
        if "trivial" in counts:
            observed["trivial"] = sum(1 for r in records if r["trivial"])
            observed["nontrivial"] = len(hexes) - observed["trivial"]
            for k in ("trivial", "nontrivial"):
                if counts[k] != observed[k]:
                    problems.append(f"counts.{k} {counts[k]} != {observed[k]} records")
    if expected is None:
        problems.append("no expected outputs recorded")
    else:
        for k, want in expected.items():
            if k != "invariants" and observed.get(k) != want:
                problems.append(f"{k}: expected {want}, got {observed.get(k)}")
    bad_reads = sum(1 for h, ans in op["reads"] if ans != (int(h, 16) in solutions))
    return observed, problems, bad_reads


def check_pass(p: dict, expected: dict, log: list):
    attempted = failed = 0
    observed = {}
    for op in p["ops"]:
        label = op["label"]
        obs, problems, bad_reads = check_command(op, expected.get(label))
        observed[label] = obs
        attempted += 1 + len(op["reads"])
        failed += bool(problems) + bad_reads
        log.extend(f"FAIL {label}: {x}" for x in problems)
        if bad_reads:
            log.append(f"FAIL {label}: {bad_reads} membership reads disagree with the solutions")
    return attempted, failed, observed


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts a sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(res: dict, setup_s: float) -> dict:
    passes = res["passes"]
    lat = [x for p in passes for x in p["latencies_us"]]
    return {
        "run_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "query_us.p50": quantile(lat, 50),
        "query_us.p90": quantile(lat, 90),
    }


def per_layer_metrics(res: dict) -> tuple[dict, dict]:
    traced = res["traced"]
    lay = traced["layers"]
    self_s, total, by_name = lay["self_s"], lay["total_by_name"], lay["self_by_name"]
    counts = {k: 0 for k in INVARIANTS}
    per_command = {}
    for op in traced["ops"]:
        c = lay["counts_by_op"].get(str(op["op"]), {})
        per_command[op["label"]] = {k: c.get(k, 0) for k in INVARIANTS}
        for k in INVARIANTS:
            counts[k] += c.get(k, 0)
    search_s = by_name["classify.enumerate_all"] + by_name["classify.bruen_drudge_search"]
    m = {
        "domains.self_s": self_s.get("domains", 0.0),
        "domains.build_s": sum(v for k, v in total.items() if k.startswith("domains.build_")),
        "subspaces.span_dim_s": total["subspaces.span_dim"],
        "ratlinalg.self_s": self_s.get("ratlinalg", 0.0),
        "ratlinalg.rref_s": total["ratlinalg.rref"],
        "ratlinalg.kernel_s": total["ratlinalg.kernel_from_rref"]
        + total["ratlinalg.scale_to_int"],
        "scheme.divisor_s": self_s.get("scheme", 0.0),
        "catalogs.catalog_s": self_s.get("catalogs", 0.0),
        "classify.self_s": self_s.get("classify", 0.0),
        "classify.search_s": search_s,
        "classify.nodes_per_s": counts["classify.nodes"] / search_s if search_s else 0.0,
        "classify.yield": counts["classify.solutions"] / max(counts["classify.nodes"], 1),
        "classify.membership_s": by_name["classify.is_degree_one"],
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.write_s": total["cli.write"],
        "cli.report_bytes": sum(os.path.getsize(op["out"]) for op in traced["ops"]),
        "trace.run_s": traced["wall_s"],
        "trace.overhead_s": lay["overhead_s"],
        "trace.spans": lay["spans"],
    }
    m.update(counts)
    return {k: m[k] for k in PER_LAYER}, per_command


def predicted_split(workload: str, res: dict) -> list[str]:
    """The layer split the seed profile predicts, as holds / does not hold."""
    lay = res["traced"]["layers"]
    wall = lay["wall_s"]
    share = {k: v / wall for k, v in lay["self_s"].items()}
    claims = []
    if workload == "quadric-bd5":
        s = share.get("domains", 0) + share.get("ratlinalg", 0)
        claims.append((f"domains+ratlinalg self share {s:.3f} > 0.5", s > 0.5))
        c = lay["self_s"].get("catalogs", 0.0)
        claims.append((f"catalogs self time {c:.6f} s is absent", c == 0.0))
    if workload == "polar-census":
        s = share.get("classify", 0)
        claims.append((f"classify self share {s:.3f} > 0.5", s > 0.5))
    if workload in ("polar-census", "family-sweep"):
        c = lay["self_s"].get("catalogs", 0.0)
        claims.append((f"catalogs self time {c:.6f} s > 0", c > 0))
    out = [f"split: {text}: {'holds' if ok else 'DOES NOT HOLD'}" for text, ok in claims]
    out.append(
        "split: self shares "
        + " ".join(f"{k}={v:.3f}" for k, v in sorted(share.items()))
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one degone benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "degone" / "__init__.py").is_file():
        print(f"error: no degone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    all_expected = json.loads((HERE / "expected.json").read_text())
    if args.workload not in all_expected:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = all_expected[args.workload]

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    load_before = os.getloadavg()
    setup_s = measure_setup() if not args.trace else None
    remaining = DEADLINE_S - (time.perf_counter() - started)
    with open(out / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", str(out)],
                stdout=log, stderr=subprocess.STDOUT, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish in {remaining:.0f} s", file=sys.stderr)
            return 1
    load_after = os.getloadavg()
    if proc.returncode != 0:
        sys.stderr.write((out / "worker.log").read_text()[-4000:])
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads((out / "result.json").read_text())

    log: list[str] = []
    attempted = failed = 0
    observed = {}
    for p in res["passes"] + ([res["traced"]] if res["traced"] else []):
        a, f, observed = check_pass(p, expected, log)
        attempted += a
        failed += f

    if args.trace:
        metrics, per_command = per_layer_metrics(res)
        units = PER_LAYER
        for label, got in per_command.items():
            want = expected.get(label, {}).get("invariants", {})
            observed[label]["invariants"] = got
            for k in INVARIANTS:
                if want.get(k) != got[k]:
                    log.append(f"invariant changed: {label} {k} {want.get(k)} -> {got[k]}")
        log.extend(predicted_split(args.workload, res))
    elif not any(p["latencies_us"] for p in res["passes"]):
        print("\n".join(dict.fromkeys(log)), file=sys.stderr)
        print("error: no membership read completed", file=sys.stderr)
        return 1
    else:
        metrics = end_to_end_metrics(res, setup_s)
        units = END_TO_END

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(res["passes"]),
        "loop": LOOP_MODEL,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": res["python"],
        "numpy": res["numpy"],
        "load_before": load_before,
        "load_after": load_after,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(out / f"BENCH_{args.workload}.json", "w") as fh:
        json.dump(
            {"context": context, "result": result, "observed": observed, "log": log},
            fh, indent=1, sort_keys=True,
        )

    for line in dict.fromkeys(log):  # passes repeat the same failures
        print(line)
    print(f"ops {attempted} count")
    print(f"ops_failed {failed} count")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
