"""``cli._write`` against ``json.dumps(payload, indent=2, sort_keys=True)``.

The writer formats reports itself.  Every file it writes must hold the
bytes the stdlib encoder gives for the same payload, and stdout must
carry the same bytes as ``--out``.  A report holds its solutions as
columns (``classify.Solutions``); read as a sequence, they must be the
records the per-solution loop of ``records_oracle`` builds.
"""

import io
import json
import random
import sys
from collections import OrderedDict
from collections.abc import Sequence
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degone.catalogs as catalogs
import degone.cli as cli
from degone import acceptance, jsontext
from degone.classify import SearchConfig, SolutionRecord, Solutions, enumerate_all
from degone.domains import build_grassmann, build_polar
from degone.forms import standard_polar
from degone.gf import field_spec
from records_oracle import records_and_counts, sorted_functions

F2 = field_spec(2)

ACCEPTANCE_TAGS = [
    "J(4,2)",
    "J(5,2)",
    "H(3,2)",
    "H(2,3)",
    "J_2(4,2)",
    "C_2(2,2,0)",
    "C_2(3,2,0)",
    "H_2(2,2)",
    "H_2(2,3)",
    "S4",
    "M(2,2,1)",
]


def _to_json(o):
    """The JSON value of a record or of descriptor text, and the records
    of a report's solutions."""
    return list(o) if isinstance(o, Solutions) else o.to_json()


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fields(r):
    """A record's fields, its descriptors as their JSON value."""
    d = r.descriptors
    return r.hex, r.weight, type(r.weight), r.trivial, json.loads(d) if type(d) is str else d, r.note


def _check_report(tmp_path, rep, dom):
    """The report's bytes against json.dumps, and its solutions, read as
    a sequence, against the records of the per-solution loop."""
    path = tmp_path / "report.json"
    for timing in (False, True):
        cli._write(str(path), rep.payload(timing))
        assert path.read_bytes() == _dumps(rep.to_json(timing)).encode()
    want, counts = records_and_counts(dom, sorted_functions(dom, rep.solution_bits()))
    want = [_fields(r) for r in want]
    sols = rep.solutions
    assert isinstance(sols, Sequence) and len(sols) == len(want)
    records = list(sols)
    assert [_fields(r) for r in records] == want
    # read like the list of those records
    n = len(records)
    assert [sols[i] for i in range(-n, n)] == records + records
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            sols[i]
    for cut in (slice(None), slice(None, None, -1), slice(1, -1, 2), slice(-3, None), slice(5, 2)):
        assert sols[cut] == records[cut]
    # a few members are drawn by index, half of them from a copy of all
    for k in {0, min(1, n), n // 2}:
        assert random.Random(n).sample(sols, k) == random.Random(n).sample(records, k)
    if "trivial" in rep.counts:
        assert rep.counts == counts
    return path.read_text()


@pytest.mark.parametrize("tag", ACCEPTANCE_TAGS)
def test_reports_match_json_dumps_on_acceptance_domains(tmp_path, tag):
    _check_report(tmp_path, acceptance._report(tag), acceptance._domain(tag))


def test_incomplete_reports_match_json_dumps(tmp_path):
    g = build_grassmann(F2, 4, 2)
    capped = enumerate_all(g, SearchConfig(solution_cap=5))
    assert not capped.complete and capped.counts["total"] == 5
    _check_report(tmp_path, capped, g)
    # a fresh domain: the expired budget also leaves the catalog unbuilt
    g = build_grassmann(F2, 4, 2)
    stopped = enumerate_all(g, SearchConfig(time_budget=0))
    assert not stopped.complete and stopped.counts == {"total": 0}
    assert '\n  "solutions": [],\n' in _check_report(tmp_path, stopped, g)


def test_uncatalogued_report_matches_json_dumps(tmp_path, monkeypatch):
    monkeypatch.setattr(catalogs, "COCLIQUE_GENERATION_LIMIT", 100)
    dom = build_polar(standard_polar("O_minus", 2, F2), 2)
    rep = enumerate_all(dom)
    assert rep.counts == {"total": 5456}
    assert {s.trivial for s in rep.solutions} == {None}
    _check_report(tmp_path, rep, dom)


def test_fixed_report_matches_json_dumps(tmp_path):
    g = build_grassmann(F2, 4, 2)
    rep = enumerate_all(g, fixed={0: 1, 3: 0})
    assert 0 < rep.counts["total"] < 302
    _check_report(tmp_path, rep, g)


def test_reports_are_built_and_written_without_records(tmp_path, monkeypatch):
    import degone.classify as classify

    def refuse(*args):
        raise AssertionError("a SolutionRecord was built")

    monkeypatch.setattr(classify, "SolutionRecord", refuse)
    rep = enumerate_all(build_polar(standard_polar("O_plus", 2, F2), 2))
    cli._write(str(tmp_path / "report.json"), rep.payload())
    assert rep.counts["total"] == 20 and rep.solution_bits()
    with pytest.raises(AssertionError, match="SolutionRecord"):
        rep.solutions[0]


POLAR = ["--family", "polar", "--q", "2", "--n", "2", "--k", "2", "--e", "0"]

COMMANDS = {
    "domain": ["domain", "--family", "johnson", "--n", "5", "--k", "2"],
    "domain-polar": ["domain", *POLAR],
    "classify": ["classify", *POLAR],
    "catalog": ["catalog", *POLAR],
    "reduce": ["reduce", *POLAR],
    "bd": ["bd", "--q", "3"],
    "bd-restriction": ["bd", "--q", "3", "--analyze-restriction"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_bytes_match_json_dumps_and_stdout(name, tmp_path, capsys, monkeypatch):
    argv = list(COMMANDS[name])
    if name == "reduce":
        # a weight-2 solution: its reduction takes a step
        argv += ["--fn", acceptance._report("C_2(2,2,0)").solutions[1].hex]
    payloads = []
    write = cli._write

    def spy(path, payload):
        payloads.append(payload)
        write(path, payload)

    monkeypatch.setattr(cli, "_write", spy)
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    (payload,) = payloads
    want = json.dumps(payload, indent=2, sort_keys=True, default=_to_json)
    assert out.read_bytes() == (want + "\n").encode()
    if name == "reduce":
        assert payload["steps"]
    capsys.readouterr()
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode() == out.read_bytes()


# --- descriptor text, encoded once and spliced in at any depth ------------

# strings holding a newline, quotes, a backslash and non-ASCII characters
HAND_MADE = {
    "shape": "hand-made",
    "note": 'a "quoted"\nline \\ é ∞',
    "points": ["x\ny", "ü", ""],
    "value": None,
}


def test_spliced_descriptor_text_matches_json_dumps():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    lists = [[], [HAND_MADE], [HAND_MADE, {"shape": "constant", "value": 0}]]
    for e in catalogs.catalog(dom):
        assert e.descriptor_text == json.dumps(
            list(e.descriptor_json), indent=2, sort_keys=True
        )
        lists.append(list(e.descriptor_json))
    assert max(map(len, lists)) > 1
    for ds in lists:
        text = jsontext.list_text([jsontext.encode(d, jsontext.MEMBER) for d in ds])
        if not ds:
            text = jsontext.EMPTY_LIST
        assert text == json.dumps(ds, indent=2, sort_keys=True)
        spliced = jsontext.JsonText(text)
        record = SolutionRecord("0f", 4, bool(ds), text, "n")
        assert record.to_json() == SolutionRecord("0f", 4, bool(ds), ds, "n").to_json()
        # the text's solution, then one the catalog misses or has no verdict on
        found = [text if ds else None, None]
        judged, unjudged = (
            Solutions("0f3c", 2, [4, 4], found, miss, note)
            for miss, note in ((False, "n"), (None, None))
        )
        assert judged[0].to_json() == SolutionRecord("0f", 4, bool(ds), ds, None if ds else "n").to_json()
        for value in (
            # as classify, degone catalog and bd --analyze-restriction write them
            {"solutions": judged},
            {"solutions": unjudged},
            {"functions": [{"descriptors": spliced, "hex": "0f", "weight": 4}]},
            {"restrictions": [{"descriptors": spliced, "trivial": bool(ds)}]},
            # and at other depths
            spliced,
            judged,
            [[spliced], {"r": judged}],
            {"a": {"b": [{"c": spliced}, record.to_json()]}},
        ):
            want = json.dumps(value, indent=2, sort_keys=True, default=_to_json)
            assert "".join(cli._pieces(value)) == want


# --- the encoder on arbitrary JSON values ---------------------------------

_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)


def _containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), inner, max_size=3)
        | st.dictionaries(st.booleans(), inner, max_size=2)
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_scalars, _containers, max_leaves=25))
def test_encoder_matches_json_dumps(value):
    assert "".join(cli._pieces(value)) == json.dumps(value, indent=2, sort_keys=True)


class _Level(IntEnum):
    LOW = 1


class _Text(str):
    pass


def test_encoder_matches_json_dumps_on_subclasses_and_edge_values():
    values = [
        OrderedDict([("b", 1), ("a", [])]),
        _Level.LOW,
        _Text("x"),
        {_Level.LOW: 1.5, 2: None},
        {None: [{}]},
        {"": ()},
        (1, (2, [3.25e-300])),
        [float("nan"), float("inf"), -0.0, 10**40],
        "é\n \x00\"\\",
        {"k": Solutions("0f", 2, [4], [json.dumps([{"b": [1], "a": "x"}], indent=2, sort_keys=True)], False, "n")},
        {"k": Solutions("", 2, [], [], False, "n")},
    ]
    for value in values:
        want = json.dumps(value, indent=2, sort_keys=True, default=_to_json)
        assert "".join(cli._pieces(value)) == want
    for bad in (object(), {(1, 2): 1}, {1: 1, "a": 2}, [{1j: 0}]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            "".join(cli._pieces(bad))


def test_write_goes_out_in_chunks(monkeypatch):
    sizes = []

    class Sink(io.StringIO):
        def write(self, s):
            sizes.append(len(s))
            return super().write(s)

    n = 30000
    sols = Solutions("".join(f"{i:04x}" for i in range(n)), 4, [7] * n, [None] * n, None, None)
    # 3 MB of descriptor text on 300 solutions
    text = json.dumps([{"k": "x" * 10000}], indent=2)
    long = Solutions("".join(f"{i:04x}" for i in range(300)), 4, [7] * 300, [text] * 300, False, "n")
    for payload in ({"rows": ["x" * 100] * n, "n": 1}, {"solutions": sols, "n": 1}, {"s": long}):
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        sizes.clear()
        cli._write(None, payload)
        assert sink.getvalue() == json.dumps(payload, indent=2, sort_keys=True, default=_to_json) + "\n"
        assert len(sizes) > 1 and max(sizes) < 2 << 20
