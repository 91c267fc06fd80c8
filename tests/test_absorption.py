"""The polar absorption trigger against the scan it replaced
(``tests/absorption_oracle.py``): the same ``(point, vertices)`` or
``None`` for both phases, and byte-identical ``degone reduce`` output."""

import pytest

import degone.classify as classify
import degone.cli as cli
from absorption_oracle import mismatches, oracle_find_absorption, seeded_inputs
from degone import acceptance
from degone.catalogs import catalog, catalog_bits
from degone.classify import _find_absorption
from degone.domains import build_polar
from degone.forms import standard_polar
from degone.gf import field_spec


@pytest.mark.parametrize("tag", ["C_2(2,2,0)", "C_2(3,2,0)"])
def test_absorption_matches_oracle_on_catalog_and_solutions(tag):
    dom = acceptance._domain(tag)
    sols = acceptance._report(tag).solution_bits()
    full = (1 << dom.v) - 1
    # every catalog entry is a solution and the solutions are closed under
    # complement; the oracle's phase 2 is its phase 1 on the complement, so
    # one oracle pass over the solutions answers both phases on all of them
    assert catalog_bits(dom) <= sols and all(full ^ b in sols for b in sols)
    want = {b: oracle_find_absorption(dom, b, 1) for b in sols}
    bad = [
        (b, phase)
        for b in sols
        for phase, other in ((1, b), (2, full ^ b))
        if _find_absorption(dom, b, phase) != want[other]
    ]
    assert bad == []
    assert 0 < sum(a is not None for a in want.values()) < len(sols)


def test_absorption_matches_oracle_on_seeded_inputs():
    # the lines of W(5,2): Sp, rank 3, q 2, k 2 (v = 315)
    dom = build_polar(standard_polar("Sp", 3, field_spec(2)), 2)
    inputs = seeded_inputs(dom, 7, 800)
    assert mismatches(dom, _find_absorption, inputs) == []
    fired = [_find_absorption(dom, b, p) is not None for b in inputs for p in (1, 2)]
    assert 0 < sum(fired) < len(fired)


def _reduce_bytes(tmp_path, args, fn_hex, name):
    out = tmp_path / name
    argv = ["reduce", "--family", "polar", *args, "--fn", fn_hex, "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def test_reduce_output_equals_the_oracle_scan(tmp_path, monkeypatch, capsys):
    # one domain per parameter set, so that its tables are built once
    doms, build = {}, cli._build_domain

    def built_once(args):
        if args.n not in doms:
            doms[args.n] = build(args)
        return doms[args.n]

    monkeypatch.setattr(cli, "_build_domain", built_once)
    readme = (["--q", "2", "--n", "2", "--k", "2", "--e", "0"], ["03"])
    dom = acceptance._domain("C_2(3,2,0)")
    entries = catalog(dom)
    picks = [entries[i].fn.to_hex() for i in range(0, len(entries), len(entries) // 20)]
    cases = [readme, (["--q", "2", "--n", "3", "--k", "2", "--e", "0"], picks[:20])]
    got = [_reduce_bytes(tmp_path, a, h, "new.json") for a, hs in cases for h in hs]
    monkeypatch.setattr(classify, "_find_absorption", oracle_find_absorption)
    want = [_reduce_bytes(tmp_path, a, h, "old.json") for a, hs in cases for h in hs]
    assert len(got) == 21 and got == want
    steps = capsys.readouterr().err.splitlines()
    assert sum("reduced in 0 steps" not in s for s in steps) >= 10
