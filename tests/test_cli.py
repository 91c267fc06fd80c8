import json

import pytest

from degone.cli import main


def test_invalid_family_parameters_exit_2(capsys):
    assert main(["classify", "--family", "grassmann", "--q", "2"]) == 2
    assert "needs" in capsys.readouterr().err


def test_invalid_polar_e_exit_2(capsys):
    rc = main(
        ["domain", "--family", "polar", "--q", "2", "--n", "2", "--k", "2", "--e", "9"]
    )
    assert rc == 2


def test_domain_manifest(tmp_path, capsys):
    out = tmp_path / "dom.json"
    rc = main(
        ["domain", "--family", "johnson", "--n", "4", "--k", "2", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["v"] == 6
    assert payload["eigen"]["weight_divisor"] == 3


def test_classify_deterministic_bytes(tmp_path):
    args = [
        "classify",
        "--family",
        "grassmann",
        "--q",
        "2",
        "--n",
        "4",
        "--k",
        "2",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["counts"] == {"nontrivial": 0, "total": 302, "trivial": 302}
    assert "wall_ms" not in payload["stats"]


def test_classify_cap_exits_3(tmp_path):
    rc = main(
        [
            "classify",
            "--family",
            "johnson",
            "--n",
            "4",
            "--k",
            "2",
            "--solution-cap",
            "2",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--family", "johnson", "--n", "4", "--k", "2",
         "--time-budget", "nan"],
        ["bd", "--q", "3", "--time-budget", "nan"],
        ["classify", "--family", "johnson", "--n", "4", "--k", "2",
         "--time-budget", "inf"],
        ["bd", "--q", "3", "--time-budget", "inf"],
    ],
)
def test_nan_time_budget_exits_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert "time budget" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_divisibility_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--family", "johnson", "--n", "4", "--k", "2",
              "--no-divisibility-prune"])
    assert exc.value.code == 2


def test_catalog_command(tmp_path):
    out = tmp_path / "cat.json"
    rc = main(
        ["catalog", "--family", "johnson", "--n", "4", "--k", "2", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["functions"]) == 10


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "johnson-base"]) == 0
    out = capsys.readouterr().out
    assert "PASS johnson-base[J(4,2)]" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_reduce_command(tmp_path, capsys):
    from degone.catalogs import PointIndicator
    from degone.domains import build_polar
    from degone.forms import standard_polar
    from degone.gf import field_spec

    dom = build_polar(standard_polar("O_plus", 2, field_spec(2)), 2)
    fn = PointIndicator(dom.coords[0], True).evaluate(dom)
    out = tmp_path / "red.json"
    rc = main(
        [
            "reduce",
            "--family",
            "polar",
            "--q",
            "2",
            "--n",
            "2",
            "--k",
            "2",
            "--e",
            "0",
            "--fn",
            fn.to_hex(),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["weight"] == 0 and len(payload["steps"]) == 1


def test_bd_command(tmp_path):
    out = tmp_path / "bd.json"
    rc = main(["bd", "--q", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["lines"] == {"secants": 45, "tangents": 40, "passants": 45}
    assert all(s["weight"] == 65 for s in payload["solutions"])


def test_bd_even_q_exit_2():
    assert main(["bd", "--q", "2"]) == 2


def test_bd_restriction_refused_before_the_search(monkeypatch, capsys):
    import degone.classify as classify

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(classify, "_solve", no_search)
    assert main(["bd", "--q", "5", "--analyze-restriction"]) == 2
    assert "bilinear catalog needs 2^(q^k)" in capsys.readouterr().err


def test_export_lp_and_check_assignment(tmp_path, capsys):
    lp = tmp_path / "model.lp"
    rc = main(
        [
            "export-lp",
            "--family",
            "johnson",
            "--n",
            "4",
            "--k",
            "2",
            "--out",
            str(lp),
        ]
    )
    assert rc == 0
    text = lp.read_text()
    assert text.startswith("\\ degree-1 system: johnson")
    assert text.rstrip().endswith("End")

    assign = tmp_path / "sol.txt"
    assign.write_text("f0 1\nf1 1\nf2 1\n")  # the dictator x_0 on J(4,2)
    rc = main(
        [
            "check-assignment",
            "--family",
            "johnson",
            "--n",
            "4",
            "--k",
            "2",
            "--assignment",
            str(assign),
        ]
    )
    assert rc == 0

    assign.write_text("f0 1\n")
    rc = main(
        [
            "check-assignment",
            "--family",
            "johnson",
            "--n",
            "4",
            "--k",
            "2",
            "--assignment",
            str(assign),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("val", ["inf", "nan", "x"])
def test_check_assignment_non_number_exits_2(val, tmp_path, capsys):
    assign = tmp_path / "sol.txt"
    assign.write_text(f"f0 {val}\n")
    argv = ["check-assignment", "--family", "johnson", "--n", "4", "--k", "2"]
    assert main(argv + ["--assignment", str(assign)]) == 2
    assert f"line 1: value {val} is not 0/1" in capsys.readouterr().err


def test_export_lp_with_cuts(tmp_path):
    lp = tmp_path / "cut.lp"
    rc = main(
        [
            "export-lp",
            "--family",
            "johnson",
            "--n",
            "4",
            "--k",
            "2",
            "--cut-solutions",
            "--out",
            str(lp),
        ]
    )
    assert rc == 0
    assert sum(1 for l in lp.read_text().splitlines() if l.strip().startswith("cut")) == 10
