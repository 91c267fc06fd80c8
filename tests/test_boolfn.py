import pytest

from degone.boolfn import BoolFn
from degone.catalogs import PointIndicator
from degone.domains import DomainError, build_grassmann, build_johnson
from degone.gf import field_spec


def test_complement_involution():
    j = build_johnson(4, 2)
    f = BoolFn(j, 0b101001)
    assert f.complement().complement() == f


def test_or_with_complement_is_all_ones():
    j = build_johnson(4, 2)
    f = BoolFn(j, 0b011010)
    assert (f | f.complement()).bits == (1 << j.v) - 1
    assert (f & f.complement()).bits == 0


def test_point_weights_sum_to_vertex_count():
    g = build_grassmann(field_spec(2), 4, 2)
    p = g.coords[0]
    plus = PointIndicator(p, True).evaluate(g)
    minus = PointIndicator(p, False).evaluate(g)
    assert plus.weight + minus.weight == g.v
    assert plus.weight == 7  # lines through a point of GF(2)^4


def test_hex_roundtrip_lsb_is_vertex_zero():
    j = build_johnson(4, 2)
    f = BoolFn(j, 1)
    assert f.value(0) == 1 and f.weight == 1
    assert BoolFn.from_hex(j, f.to_hex()) == f
    assert len(f.to_hex()) == (j.v + 3) // 4


def test_from_values_validation():
    j = build_johnson(4, 2)
    assert BoolFn.from_values(j, [1, 0, 0, 0, 0, 1]).weight == 2
    with pytest.raises(DomainError):
        BoolFn.from_values(j, [2, 0, 0, 0, 0, 0])


def test_bits_must_fit_domain():
    j = build_johnson(4, 2)
    with pytest.raises(DomainError):
        BoolFn(j, 1 << 6)


def test_cross_domain_operations_rejected():
    a = build_johnson(4, 2)
    b = build_johnson(5, 2)
    with pytest.raises(DomainError):
        BoolFn(a, 1) | BoolFn(b, 1)


@pytest.mark.parametrize("text", ["0x03", " 3", "3 ", "0_3", "3F", "zz", "", "+3", "-1", "3\n", "٣"])
def test_from_hex_refuses_anything_but_lowercase_hex_digits(text):
    j = build_johnson(4, 2)
    with pytest.raises(DomainError, match="lowercase hex") as err:
        BoolFn.from_hex(j, text)
    assert repr(text) in str(err.value)


def test_from_hex_reads_short_and_padded_text():
    j = build_johnson(4, 2)
    assert BoolFn.from_hex(j, "3") == BoolFn.from_hex(j, "03") == BoolFn(j, 3)
    assert BoolFn.from_hex(j, "3f").bits == 63


@pytest.mark.parametrize("text", ["0x03", "3F", "zz"])
def test_reduce_refuses_a_function_not_in_lowercase_hex(text, capsys):
    from degone.cli import main

    argv = ["reduce", "--family", "polar", "--q", "2", "--n", "2", "--k", "2", "--e", "0"]
    assert main(argv + ["--fn", text]) == 2
    assert f"error: a function is lowercase hex digits, not {text!r}" in capsys.readouterr().err
