import pytest

from degone.boolfn import BoolFn
from degone.catalogs import catalog
from degone.classify import degree1_space, enumerate_all, is_degree_one
from degone.domains import build_grassmann, build_johnson, build_polar
from degone.forms import standard_polar
from degone.gf import field_spec
from degone.lpexport import (
    LpError,
    cut_system_infeasible,
    export_lp,
    expected_constraint_count,
    read_assignment,
    verify_assignment,
)


def test_johnson42_model_shape():
    j = build_johnson(4, 2)
    text = export_lp(j)
    # 6 binaries, v - dim = 2 equality constraints
    assert degree1_space(j).dim == 4
    klines = [l for l in text.splitlines() if l.strip().startswith("k")]
    assert len(klines) == expected_constraint_count(j) == 2
    assert all(l.rstrip().endswith("= 0") for l in klines)
    binline = text.splitlines()[text.splitlines().index("Binary") + 1]
    assert binline.split() == [f"f{i}" for i in range(6)]
    assert text.splitlines()[-1] == "End"


def test_export_is_deterministic():
    g = build_grassmann(field_spec(2), 4, 2)
    sols = [BoolFn(g, b) for b in sorted(enumerate_all(g).solution_bits())]
    assert export_lp(g, sols) == export_lp(g, sols)


def test_cut_line_encoding():
    j = build_johnson(4, 2)
    h = BoolFn(j, 0b000011)  # ones at vertices 0,1
    text = export_lp(j, [h])
    cut = next(l for l in text.splitlines() if l.strip().startswith("cut0"))
    # sum over zeros of f_i minus sum over ones >= 1 - weight
    assert cut.strip() == "cut0: - f0 - f1 + f2 + f3 + f4 + f5 >= -1"


def test_equalities_characterize_degree_one():
    j = build_johnson(4, 2)
    kernel_lines = []
    for line in export_lp(j).splitlines():
        line = line.strip()
        if line.startswith("k"):
            body = line.split(":", 1)[1].rsplit("=", 1)[0]
            kernel_lines.append(body)

    def eval_terms(body, assignment):
        total = 0
        sign, coeff = 1, None
        for tok in body.split():
            if tok == "+":
                sign, coeff = 1, None
            elif tok == "-":
                sign, coeff = -1, None
            elif tok.startswith("f"):
                mag = 1 if coeff is None else coeff
                total += sign * mag * assignment[int(tok[1:])]
                sign, coeff = 1, None
            else:
                coeff = int(tok)
        return total

    for bits in range(1 << j.v):
        assignment = [(bits >> i) & 1 for i in range(j.v)]
        sat = all(eval_terms(b, assignment) == 0 for b in kernel_lines)
        assert sat == is_degree_one(j, BoolFn(j, bits))


def test_cut_system_infeasible_when_all_solutions_cut():
    j = build_johnson(4, 2)
    sols = [BoolFn(j, b) for b in sorted(enumerate_all(j).solution_bits())]
    assert cut_system_infeasible(j, sols)
    assert not cut_system_infeasible(j, sols[:-1])


def test_reduce_cuts_only_on_polar():
    dom = build_polar(standard_polar("O_plus", 2, field_spec(2)), 2)
    text = export_lp(dom, reduce_cuts=True)
    assert any(l.strip().startswith("rlo") for l in text.splitlines())
    j = build_johnson(4, 2)
    assert not any(
        l.strip().startswith("rlo") for l in export_lp(j, reduce_cuts=True).splitlines()
    )


def test_max_weight_objective():
    j = build_johnson(4, 2)
    text = export_lp(j, objective="max-weight")
    assert text.splitlines()[1] == "Maximize"
    with pytest.raises(LpError):
        export_lp(j, objective="min-weight")


def test_assignment_reader_roundtrip():
    j = build_johnson(4, 2)
    fn = catalog(j)[3].fn
    text = "\n".join(f"f{i} 1" for i in range(j.v) if fn.value(i))
    back, ok = verify_assignment(j, text)
    assert back == fn and ok


def test_assignment_reader_defaults_missing_to_zero():
    j = build_johnson(4, 2)
    assert read_assignment(j, "f2 1\n").bits == 0b000100


def test_assignment_reader_tolerates_solver_noise():
    j = build_johnson(4, 2)
    fn = read_assignment(j, "f0 0.9999999\nf1 1e-9\n")
    assert fn.bits == 1


def test_assignment_reader_rejects_garbage():
    j = build_johnson(4, 2)
    with pytest.raises(LpError, match="not 0/1"):
        read_assignment(j, "f0 0.5\n")
    with pytest.raises(LpError, match="unknown variable"):
        read_assignment(j, "x0 1\n")
    with pytest.raises(LpError, match="out of range"):
        read_assignment(j, "f99 1\n")
    with pytest.raises(LpError, match="name value"):
        read_assignment(j, "f0 1 extra\n")


@pytest.mark.parametrize("val", ["inf", "-inf", "nan", "x"])
def test_assignment_reader_rejects_non_numbers_by_line(val):
    j = build_johnson(4, 2)
    with pytest.raises(LpError, match=f"line 2: value {val} is not 0/1"):
        read_assignment(j, f"f1 1\nf0 {val}\n")
