"""Batch front door: build domains, classify, verify, reduce, export.

Exit codes: 0 success/complete, 1 verification failure, 2 invalid
parameters, 3 incomplete search (budget or cap hit).  Reports are JSON,
written to --out or to stdout; one-line human summaries go to stderr so
piped output stays parseable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .boolfn import BoolFn
from .catalogs import CatalogError, catalog
from .classify import (
    ClassifyError,
    SearchConfig,
    SolutionRecord,
    bd_restriction_analysis,
    bruen_drudge_search,
    enumerate_all,
    reduce_polar,
)
from .domains import (
    DomainError,
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_multislice,
    build_polar,
)
from .forms import FAMILY_E_TAG, FormsError, standard_polar
from .gf import FieldError, field_spec
from .lpexport import LpError, export_lp, verify_assignment
from .scheme import SchemeError, divisor_defined, eigen_params, weight_divisor


E_TO_FAMILY = {e: family for family, e in FAMILY_E_TAG.items()}


class ParameterError(ValueError):
    pass


def _build_domain(args):
    fam = args.family
    if fam == "hamming":
        _need(args, "n", "m")
        return build_hamming(args.n, args.m)
    if fam == "johnson":
        _need(args, "n", "k")
        return build_johnson(args.n, args.k)
    if fam == "multislice":
        _need(args, "parts")
        parts = [int(x) for x in args.parts.split(",")]
        return build_multislice(parts)
    if fam == "grassmann":
        _need(args, "q", "n", "k")
        return build_grassmann(field_spec(args.q), args.n, args.k)
    if fam == "polar":
        _need(args, "q", "n", "k", "e")
        if args.e not in E_TO_FAMILY:
            raise ParameterError(f"--e must be one of {sorted(E_TO_FAMILY)}")
        spec = standard_polar(E_TO_FAMILY[args.e], args.n, field_spec(args.q))
        return build_polar(spec, args.k)
    if fam == "bilinear":
        _need(args, "q", "k", "m")
        return build_bilinear(field_spec(args.q), args.m, args.k)
    raise ParameterError(f"unknown family {fam!r}")


def _need(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ParameterError(
            f"family {args.family!r} needs --" + " --".join(missing)
        )


def _config(args) -> SearchConfig:
    return SearchConfig(
        vertex_order=args.order,
        solution_cap=args.solution_cap,
        time_budget=args.time_budget,
    )


# --- the report writer ----------------------------------------------------
#
# Reports are the bytes of json.dumps(payload, indent=2, sort_keys=True)
# plus a newline.  With an indent, json runs its pure-Python encoder, so
# the writer formats them itself: strings through json's C string
# quoting, floats and unknown types through json.dumps, solution records
# from their fields without building a dict.  An ``indent`` below is the
# text that starts a line at the current level: a newline and two spaces
# per level.


def _key(k) -> str:
    """A dict key as json writes it: None, bools, ints and floats as
    their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
    )


def _encode(o, indent: str) -> str:
    """``o`` as json.dumps(o, indent=2, sort_keys=True) writes it at
    ``indent``.  Exact types are tested first and string members are
    quoted in place: this runs once per value of a report."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        items = [
            _quote(k if type(k) is str else _key(k))
            + ": "
            + (_quote(x) if type(x) is str else _encode(x, inner))
            for k, x in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        items = [_quote(x) if type(x) is str else _encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, SolutionRecord):
        return _record(o, indent)
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, dict):
        return _encode(dict(o.items()), indent)
    if isinstance(o, (list, tuple)):
        return _encode(list(o), indent)
    return json.dumps(o)


_LITERALS = {None: "null", True: "true", False: "false"}


def _record(r: SolutionRecord, indent: str) -> str:
    """``r.to_json()`` encoded at ``indent``, its keys in sorted order.
    Fields of the usual types are formatted in place, saving a call each."""
    inner = indent + "  "
    d, h, t, w = r.descriptors, r.hex, r.trivial, r.weight
    d = "[]" if type(d) is list and not d else _encode(d, inner)
    h = _quote(h) if type(h) is str else _encode(h, inner)
    t = _LITERALS[t] if t is None or type(t) is bool else _encode(t, inner)
    w = int.__repr__(w) if type(w) is int else _encode(w, inner)
    note = f'{inner}"note": {_encode(r.note, inner)},' if r.note else ""
    return (
        f'{{{inner}"descriptors": {d},{inner}"hex": {h},{note}'
        f'{inner}"trivial": {t},{inner}"weight": {w}{indent}}}'
    )


def _pieces(o, indent: str = "\n", depth: int = 2):
    """The encoding of ``o`` in pieces: the containers ``depth`` levels
    down are split into one piece per member."""
    if depth == 0 or not isinstance(o, (list, tuple, dict)) or not o:
        yield _encode(o, indent)
        return
    inner = indent + "  "
    if isinstance(o, dict):
        members = ((_quote(_key(k)) + ": ", v) for k, v in sorted(o.items()))
        opening, closing = "{}"
    else:
        members = (("", x) for x in o)
        opening, closing = "[]"
    sep = opening + inner
    for prefix, v in members:
        yield sep + prefix
        yield from _pieces(v, inner, depth - 1)
        sep = "," + inner
    yield indent + closing


def _write(path, payload) -> None:
    """Write ``payload`` as json.dumps(payload, indent=2, sort_keys=True)
    and a newline to ``path``, or to stdout when ``path`` is empty, in
    pieces of about a megabyte."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        buf, size = [], 0
        for piece in _pieces(payload):
            buf.append(piece)
            size += len(piece)
            if size >= 1 << 20:
                fh.write("".join(buf))
                buf, size = [], 0
        buf.append("\n")
        fh.write("".join(buf))


def _add_domain_flags(p):
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "hamming",
            "johnson",
            "multislice",
            "grassmann",
            "polar",
            "bilinear",
        ],
    )
    p.add_argument("--q", type=int, help="field order")
    p.add_argument("--n", type=int, help="ambient/ground parameter")
    p.add_argument("--k", type=int, help="subset/subspace dimension")
    p.add_argument(
        "--m",
        type=int,
        help="hamming alphabet size, or the row count of a bilinear domain",
    )
    p.add_argument("--e", type=str, help="polar family tag (0,1,2,1*,1/2,3/2)")
    p.add_argument("--parts", type=str, help="multislice histogram, e.g. 2,2,1")


def _add_search_flags(p):
    p.add_argument(
        "--order",
        default="greedy-propagation",
        choices=["pivot-default", "greedy-propagation"],
    )
    p.add_argument("--solution-cap", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")


def _cmd_domain(args) -> int:
    dom = _build_domain(args)
    payload = dom.manifest()
    if divisor_defined(dom):
        ep = eigen_params(dom)
        payload["eigen"] = {
            "p01": ep.p01,
            "p11": ep.p11,
            "ratio": str(ep.ratio),
            "weight_divisor": weight_divisor(dom),
            "alphas": list(ep.alphas),
        }
    else:
        payload["eigen"] = None
    _write(args.out, payload)
    print(
        f"{dom.family}: v={dom.v} c={dom.c} valency={dom.valency}",
        file=sys.stderr,
    )
    return 0


def _cmd_classify(args) -> int:
    dom = _build_domain(args)
    report = enumerate_all(dom, _config(args))
    _write(args.out, report.payload())
    print(
        f"{dom.family}: dim={report.dim} solutions={report.counts['total']} "
        f"({report.counts.get('trivial', '?')} trivial) "
        f"nodes={report.stats['nodes']} wall_ms={report.stats['wall_ms']} "
        f"complete={report.complete}",
        file=sys.stderr,
    )
    return 0 if report.complete else 3


def _cmd_catalog(args) -> int:
    dom = _build_domain(args)
    entries = catalog(dom)
    payload = {
        "domain": dom.manifest(),
        "functions": [
            {
                "hex": e.fn.to_hex(),
                "weight": e.fn.weight,
                "descriptors": list(e.descriptor_json),
            }
            for e in entries
        ],
    }
    _write(args.out, payload)
    print(f"{dom.family}: {len(entries)} catalog functions", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_suite

    results = run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_reduce(args) -> int:
    dom = _build_domain(args)
    if dom.family != "polar":
        raise ParameterError("reduce applies to polar domains")
    fn = BoolFn.from_hex(dom, args.fn)
    result = reduce_polar(dom, fn)
    payload = {
        "domain": dom.manifest(),
        "input": fn.to_hex(),
        "output": result.fn.to_hex(),
        "weight": result.fn.weight,
        "steps": result.steps,
        "degree1_ok": result.degree1_ok,
    }
    _write(args.out, payload)
    print(
        f"reduced in {len(result.steps)} steps: weight {fn.weight} -> "
        f"{result.fn.weight}; degree1_ok={result.degree1_ok}",
        file=sys.stderr,
    )
    return 0


def _cmd_bd(args) -> int:
    cfg = SearchConfig(
        solution_cap=args.solution_cap,
        time_budget=args.time_budget,
    )
    bd = bruen_drudge_search(args.q, cfg)
    payload = {
        "q": args.q,
        "lines": {
            "secants": len(bd.secants),
            "tangents": len(bd.tangents),
            "passants": len(bd.passants),
        },
        "solutions": [
            {
                "hex": f.to_hex(),
                "weight": f.weight,
                "tangents_per_point": bd.tangent_split(f),
            }
            for f in bd.solutions
        ],
        "complete": bd.complete,
    }
    if args.analyze_restriction:
        payload["restrictions"] = [
            bd_restriction_analysis(bd, f) for f in bd.solutions
        ]
    _write(args.out, payload)
    print(
        f"q={args.q}: {len(bd.solutions)} completions "
        f"(weights {sorted({f.weight for f in bd.solutions})}), "
        f"complete={bd.complete}",
        file=sys.stderr,
    )
    return 0 if bd.complete else 3


def _cmd_export_lp(args) -> int:
    dom = _build_domain(args)
    cuts = []
    if args.cut_solutions:
        report = enumerate_all(dom, _config(args))
        cuts = [BoolFn(dom, b) for b in sorted(report.solution_bits())]
    text = export_lp(
        dom,
        known_solutions=cuts,
        objective=args.objective,
        reduce_cuts=args.reduce_cuts,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"exported {dom.v} binaries, {len(cuts)} cuts", file=sys.stderr)
    return 0


def _cmd_check_assignment(args) -> int:
    dom = _build_domain(args)
    with open(args.assignment) as fh:
        text = fh.read()
    fn, ok = verify_assignment(dom, text)
    print(f"weight={fn.weight} degree1={ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degone",
        description="Exact classification of Boolean degree-1 functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domain", help="write a domain manifest")
    _add_domain_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_domain)

    p = sub.add_parser("classify", help="enumerate all degree-1 functions")
    _add_domain_flags(p)
    _add_search_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("catalog", help="write the known-family catalog")
    _add_domain_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("reduce", help="apply polar point absorption")
    _add_domain_flags(p)
    p.add_argument("--fn", required=True, help="function as lowercase hex")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("bd", help="Bruen-Drudge completion search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--analyze-restriction", action="store_true")
    p.add_argument("--solution-cap", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bd)

    p = sub.add_parser("export-lp", help="write the 0/1 feasibility model")
    _add_domain_flags(p)
    _add_search_flags(p)
    p.add_argument(
        "--cut-solutions",
        action="store_true",
        help="classify first and exclude every found solution",
    )
    p.add_argument("--objective", default="feasibility", choices=["feasibility", "max-weight"])
    p.add_argument("--reduce-cuts", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_export_lp)

    p = sub.add_parser(
        "check-assignment", help="re-verify an external solver assignment"
    )
    _add_domain_flags(p)
    p.add_argument("--assignment", required=True, help="file of 'name value' lines")
    p.set_defaults(handler=_cmd_check_assignment)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ParameterError,
        DomainError,
        FieldError,
        FormsError,
        SchemeError,
        CatalogError,
        ClassifyError,
        LpError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
