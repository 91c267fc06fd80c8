"""The workload process: one closed-loop client driving degone in-process.

Started by ``run.py``; not meant to be run by hand.  It imports degone
from the checkout's ``src``.  With ``--trace 0`` it runs untraced passes
until the time window is used; with ``--trace 1`` it runs one traced
pass instead.  It writes what it measured and what each operation
returned to ``<out>/result.json``.  Checking those outputs is ``run.py``'s job, so
no checking work lands in this process's time or memory.

A pass is a sequence of operations issued one after the other (closed
loop, one client, no worker pool):

* a command: ``degone.cli.main(argv + ["--out", file])``, the same path
  as a ``degone`` invocation, after clearing every ``functools`` cache
  in the package so each command pays what a fresh process would;
* reads: ``degone.classify.is_degree_one`` on solutions the command
  returned and on one-vertex flips of them, against the in-memory
  domain the command built.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    sample: int | None = None  # solutions read; None reads them all
    flips: int = 1  # seed-chosen one-vertex flips read per read solution
    pairs: int = 0  # seed-chosen two-vertex flips read per read solution


def _classify(label, family, **kw):
    argv = ["classify", "--family", family]
    for k, v in kw.items():
        argv += [f"--{k}", str(v)]
    return Command(label, tuple(argv))


# The census and Bruen-Drudge inputs are fixed instances that degone
# canonicalises (vertices and coordinates are key-sorted), so the seed
# cannot vary them; it only picks the reads.  In the sweep it also
# orders the commands.
WORKLOADS = {
    "polar-census": [
        Command(
            "C_2(3,2,0)",
            ("classify", "--family", "polar", "--q", "2", "--n", "3", "--k", "2", "--e", "0"),
            sample=10000,
        )
    ],
    # every one of the 156 tangents, then 850 tangent pairs, per completion:
    # ~2000 reads, so the read latency is sampled over seconds, not a burst
    "quadric-bd5": [
        Command("BD(5)", ("bd", "--q", "5"), flips=156, pairs=850)
    ],
    "family-sweep": [
        _classify("H(4,4)", "hamming", n=4, m=4),
        _classify("H(3,5)", "hamming", n=3, m=5),
        _classify("J(8,4)", "johnson", n=8, k=4),
        _classify("J(9,3)", "johnson", n=9, k=3),
        _classify("M(2,2,2,1)", "multislice", parts="2,2,2,1"),
        _classify("S5", "multislice", parts="1,1,1,1,1"),
        _classify("J_2(5,2)", "grassmann", q=2, n=5, k=2),
        _classify("J_2(5,3)", "grassmann", q=2, n=5, k=3),
        _classify("C_2(2,2,0)", "polar", q=2, n=2, k=2, e=0),
        _classify("C_3(2,2,0)", "polar", q=3, n=2, k=2, e=0),
        _classify("C_2(3,3,0)", "polar", q=2, n=3, k=3, e=0),
        _classify("H_2(2,3)", "bilinear", q=2, m=2, k=3),
        _classify("H_3(1,2)", "bilinear", q=3, m=1, k=2),
    ],
    # harness self-test only; not listed in BENCHMARK.json
    "smoke": [_classify("J(4,2)", "johnson", n=4, k=2)],
}


def clear_caches():
    """Empty every functools cache defined in the package."""
    for name, mod in list(sys.modules.items()):
        if name != "degone" and not name.startswith("degone."):
            continue
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == name and hasattr(obj, "cache_clear"):
                obj.cache_clear()


class Capture:
    """Keeps the domain and result of each search the CLI runs.

    One extra Python call per command; it lets the reads query the
    domain the command built, as a long-lived process would.
    """

    def __init__(self):
        import degone.cli as cli

        self.cli = cli
        self.got = []
        self._enum = cli.enumerate_all
        self._bd = cli.bruen_drudge_search

        def enumerate_all(domain, *args, **kwargs):
            report = self._enum(domain, *args, **kwargs)
            self.got.append((domain, report))
            return report

        def bruen_drudge_search(*args, **kwargs):
            bd = self._bd(*args, **kwargs)
            self.got.append((bd.domain, bd))
            return bd

        cli.enumerate_all = enumerate_all
        cli.bruen_drudge_search = bruen_drudge_search

    def close(self):
        self.cli.enumerate_all = self._enum
        self.cli.bruen_drudge_search = self._bd

    def take(self):
        """The last command's (domain, result), or None if it ran no search."""
        got = self.got[-1] if self.got else None
        self.got = []
        return got


def _read_plan(cmd: Command, domain, result, rng: random.Random) -> list[int]:
    if hasattr(result, "tangents"):
        # Bruen-Drudge: tangent flips keep secants at 1 and passants at 0,
        # so the result is degree-1 exactly when it is one of the completions
        sols = [f.bits for f in result.solutions]
        pool = [domain.vertex_index(k) for k in result.tangents]
    else:
        records = result.solutions
        if cmd.sample is not None and cmd.sample < len(records):
            records = rng.sample(records, cmd.sample)
        sols = [int(r.hex, 16) for r in records]
        pool = range(domain.v)
    reads = []
    for bits in sols:
        reads.append(bits)
        for x in rng.sample(pool, cmd.flips):
            reads.append(bits ^ (1 << x))
        for _ in range(cmd.pairs):
            x, y = rng.sample(pool, 2)
            reads.append(bits ^ (1 << x) ^ (1 << y))
    rng.shuffle(reads)
    return reads


def run_pass(commands, seed, out_dir: Path, capture: Capture, tracer=None):
    import degone.classify as classify
    import degone.cli as cli
    from degone.boolfn import BoolFn

    rng = random.Random(seed)
    order = list(commands)
    rng.shuffle(order)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops, latencies_us = [], []
    op_id = 0
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    for i, cmd in enumerate(order):
        clear_caches()
        out = out_dir / f"{i:02d}.json"
        cmd_op = op_id
        if tracer is not None:
            tracer.op = cmd_op
        code = cli.main([*cmd.argv, "--out", str(out)])
        op_id += 1
        got = capture.take()
        domain, result = got if got else (None, None)
        reads = []
        for bits in _read_plan(cmd, domain, result, rng) if got else ():
            fn = BoolFn(domain, bits)
            if tracer is not None:
                tracer.op = op_id
            r0 = time.perf_counter()
            answer = classify.is_degree_one(domain, fn)
            latencies_us.append((time.perf_counter() - r0) * 1e6)
            op_id += 1
            reads.append([format(bits, "x"), answer])
        ops.append({
            "label": cmd.label,
            "argv": list(cmd.argv),
            "out": str(out),
            "exit": code,
            "op": cmd_op,
            "reads": reads,
        })
        del got, domain, result
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "latencies_us": latencies_us}


def _layer_report(tracer, wall_s):
    from tracer import TARGETS

    names = {t.name for t in TARGETS}
    return {
        "wall_s": wall_s,
        "self_s": dict(tracer.self_s),
        "self_by_name": {n: tracer.self_by_name[n] for n in sorted(names)},
        "total_by_name": {n: tracer.total_by_name[n] for n in sorted(names)},
        "counts_by_op": {str(op): dict(c) for op, c in sorted(tracer.counts.items())},
        "overhead_s": tracer.overhead_s,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import degone

    if Path(degone.__file__).resolve().parent != (ROOT / "src" / "degone").resolve():
        print(f"degone imported from {degone.__file__}, not the checkout", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload]
    capture = Capture()
    passes = []
    start = time.perf_counter()
    while not args.trace:
        passes.append(
            run_pass(commands, args.seed, args.out / f"pass{len(passes)}", capture)
        )
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] > args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(commands, args.seed, args.out / "traced", capture, tracer)
        finally:
            tracer.uninstall()
        traced["layers"] = _layer_report(tracer, traced["wall_s"])
        tracer.write_spans(args.out / "spans.jsonl")
    capture.close()

    result = {
        "passes": passes,
        "traced": traced,
        "peak_rss_kb": peak_rss_kb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    with open(args.out / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
