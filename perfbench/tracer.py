"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a layer's entry points at the names their callers
look them up by (``degone.cli.build_polar``, ``degone.classify.rref``,
...), so the traced run executes exactly the command path of the
untraced run.  Each call becomes a span (name, start, end, parent, op
id) kept in memory until the run ends.  A layer's self time is the sum,
over its spans, of the span's duration minus the part covered by its
child spans.

Two entry points are called hundreds of thousands of times
(``span_dim`` while adjacency is assembled, ``scale_to_int`` per kernel
row).  They are traced as leaves: each call adds to a count and a total
and to its parent's covered time, but no span record is kept.

Each wrapper also times itself.  Its time outside the span it records
(bookkeeping, counting results) is summed as the tracing overhead and
covered for its parent, so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    owner: str  # "module" or "module:Class"
    attr: str
    name: str  # span name, "<module>.<function>"
    layer: str
    leaf: bool = False
    count: object = None  # count(counter, args, result) -> None


def _count_domain(c, args, dom):
    c["domains.vertices"] += dom.v
    c["domains.coords"] += dom.c
    c["domains.edges"] += sum(len(n) for n in dom.neighbors) // 2


def _count_rref(c, args, res):
    m = args[0]
    c["ratlinalg.rank"] += res.rank
    c["ratlinalg.cells"] += m.rows * m.cols


def _count_divisor(c, args, d):
    c["scheme.divisor"] += d


def _count_catalog(c, args, entries):
    c["catalogs.entries"] += len(entries)
    c["catalogs.descriptors"] += sum(len(e.descriptors) for e in entries)


def _count_search(c, args, result):
    stats = result.stats
    c["classify.nodes"] += stats["nodes"]
    for kind in ("integrality", "interval", "divisibility"):
        c[f"classify.prunes.{kind}"] += stats["prunes"][kind]
    c["classify.solutions"] += stats["solutions"]


_BUILDERS = ("hamming", "johnson", "multislice", "grassmann", "polar", "bilinear")

TARGETS = (
    [Target("degone.cli", "main", "cli.main", "cli")]
    + [Target("degone.cli", "_write", "cli.write", "cli")]
    + [Target("degone.classify:ClassificationReport", "to_json", "cli.to_json", "cli")]
    + [
        Target("degone.cli", f"build_{b}", f"domains.build_{b}", "domains", count=_count_domain)
        for b in _BUILDERS
    ]
    + [
        Target("degone.classify", "build_grassmann", "domains.build_grassmann", "domains",
               count=_count_domain),
        Target("degone.cli", "standard_polar", "forms.standard_polar", "domains"),
        Target("degone.classify", "standard_polar", "forms.standard_polar", "domains"),
        Target("degone.cli", "field_spec", "gf.field_spec", "domains"),
        Target("degone.classify", "field_spec", "gf.field_spec", "domains"),
        Target("degone.classify", "coordinate_column_bits",
               "domains.coordinate_column_bits", "domains"),
        Target("degone.domains", "span_dim", "subspaces.span_dim", "domains", leaf=True),
        Target("degone.ratlinalg:RatMatrix", "from_rows", "ratlinalg.from_rows", "ratlinalg"),
        Target("degone.ratlinalg:RatMatrix", "transpose", "ratlinalg.transpose", "ratlinalg"),
        Target("degone.classify", "rref", "ratlinalg.rref", "ratlinalg", count=_count_rref),
        Target("degone.classify", "kernel_from_rref", "ratlinalg.kernel_from_rref", "ratlinalg"),
        Target("degone.classify", "scale_to_int", "ratlinalg.scale_to_int", "ratlinalg",
               leaf=True),
        Target("degone.classify", "divisor_defined", "scheme.divisor_defined", "scheme"),
        Target("degone.classify", "weight_divisor", "scheme.weight_divisor", "scheme",
               count=_count_divisor),
        Target("degone.classify", "catalog", "catalogs.catalog", "catalogs",
               count=_count_catalog),
        Target("degone.classify", "match_catalog", "catalogs.match_catalog", "catalogs"),
        Target("degone.cli", "enumerate_all", "classify.enumerate_all", "classify",
               count=_count_search),
        Target("degone.cli", "bruen_drudge_search", "classify.bruen_drudge_search", "classify",
               count=_count_search),
        Target("degone.classify", "is_degree_one", "classify.is_degree_one", "classify"),
    ]
)


def _resolve(owner: str):
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and per-layer totals of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[list] = []  # [span index, start, covered seconds]
        self.op = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)  # by layer
        self.self_by_name: defaultdict[str, float] = defaultdict(float)
        self.total_by_name: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)  # by op id
        self.overhead_s = 0.0  # wrapper time outside the spans it timed
        self._undo: list = []

    # --- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans), 0.0, 0.0]
        span = [name, 0.0, None, parent, self.op]
        self.spans.append(span)
        self._stack.append(frame)
        span[1] = frame[1] = clock()

    def _exit(self, name, layer) -> float:
        end = clock()
        idx, start, covered = self._stack.pop()
        self.spans[idx][2] = end
        dur = end - start
        self._charge(name, layer, dur, dur - covered)
        return dur

    def _charge(self, name, layer, dur, self_dur):
        self.self_s[layer] += self_dur
        self.self_by_name[name] += self_dur
        self.total_by_name[name] += dur
        self.calls[name] += 1

    def _close(self, wrapper_s, timed_s):
        """Book one wrapper call: its time outside the timed span is
        tracing overhead, and the whole call is covered time of its
        parent, so no layer's self time includes the tracer's work."""
        self.overhead_s += wrapper_s - timed_s
        if self._stack:
            self._stack[-1][2] += wrapper_s

    # --- installing wrappers ---------------------------------------------

    def _wrap(self, fn, target):
        tracer = self
        name, layer, count = target.name, target.layer, target.count
        if target.leaf:

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t_in = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t_in
                    tracer._charge(name, layer, dur, dur)
                    tracer.counts[tracer.op][name + "_calls"] += 1
                    tracer._close(clock() - t_in, dur)

            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            t_in = clock()
            tracer._enter(name)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                dur = tracer._exit(name, layer)
                if returned and count is not None:
                    count(tracer.counts[tracer.op], args, result)
                tracer._close(clock() - t_in, dur)
            return result

        return spanned

    def install(self, targets=TARGETS):
        for t in targets:
            owner = _resolve(t.owner)
            raw = owner.__dict__[t.attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, t))
            else:
                new = self._wrap(raw, t)
            self._undo.append((owner, t.attr, raw))
            setattr(owner, t.attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # --- results ------------------------------------------------------------

    def write_spans(self, path):
        """One JSON line per span, then one per leaf with its call count."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name in sorted({t.name for t in TARGETS if t.leaf}):
                leaf = {"leaf": name, "calls": self.calls[name],
                        "total_s": self.total_by_name[name]}
                fh.write(json.dumps(leaf) + "\n")
