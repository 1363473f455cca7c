import pytest

from krlab.polynomials import Poly, poly_str


def test_ring_axioms():
    a = Poly(1, {(2,): 3, (0,): 1})
    b = Poly(1, {(1,): -1})
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + b) == a * b + a * b
    assert (a - a).is_zero()


def test_no_zero_coeffs():
    a = Poly(1, {(1,): 2})
    b = Poly(1, {(1,): -2})
    assert not (a + b).c
    q = Poly(1, {(1,): 1})
    assert ((1 + q) * (1 - q)).c == {(0,): 1, (2,): -1}
    assert not (Poly(2, {(1, 0): 1}) - Poly(2, {(0, 1): 1})).subs_t_q().c


def test_rendering():
    p = Poly(1, {(6,): 1, (4,): 1, (2,): 1})
    assert poly_str(p, ("q",)) == "q^6+q^4+q^2"
    qt = Poly(2, {(1, 1): 1, (1, 0): -1, (0, 1): 1})
    assert poly_str(qt, ("q", "t")) == "q*t-q+t"
    assert poly_str(Poly.zero(1), ("q",)) == "0"
    assert poly_str(Poly.one(1), ("q",)) == "1"


def test_subs():
    qt = Poly(2, {(1, 1): 1, (2, 0): 1})
    assert qt.subs_t_q() == Poly(1, {(2,): 2})
    assert qt.subs_all_one() == 2


def test_subs_t_q_needs_two_variables():
    with pytest.raises(ValueError, match="not in 1 variables"):
        Poly(1, {(2,): 1}).subs_t_q()


def test_laurent():
    x = Poly.mono((2, 0))
    y = Poly.mono((0, 2))
    p = (x + y) * (x + y)
    assert p.coeff((2, 2)) == 2
    assert p.invert_vars().coeff((-4, 0)) == 1
    assert (p - p).c == {}


def test_three_variables():
    p = Poly(3, {(2, -1, 3): 2, (0, 0, 1): -1})
    assert str(p) == "2*x1^2*x2^-1*x3^3-x3"
    assert p.invert_vars() == Poly(3, {(-2, 1, -3): 2, (0, 0, -1): -1})
    assert p.invert_vars().invert_vars() == p


def test_variable_count_mismatch_raises():
    q = Poly(1, {(1,): 1})
    qt = Poly(2, {(1, 1): 1})
    for bad in (lambda: q * qt, lambda: qt * q, lambda: q + qt, lambda: qt.shift((1,)),
                lambda: q.shift((1, 1)), lambda: poly_str(qt, ("q",)),
                lambda: poly_str(q, ("q", "t")), lambda: poly_str(Poly.zero(2), ("q",))):
        with pytest.raises(ValueError, match="variable count mismatch"):
            bad()
    assert qt.shift((1, 0)) == Poly(2, {(2, 1): 1})
    assert q * 3 == 3 * q == Poly(1, {(1,): 3})
    assert str(Poly(2, {(1, 1): 1, (1, 0): 2})) == "q*t+2*q"


def test_equality_with_other_types():
    p = Poly(1, {(1,): 1})
    assert not p == None  # noqa: E711
    assert p != None  # noqa: E711
    assert p != "q" and p != (1,)
    assert None in [None, p] and p in [None, p]
    assert Poly.one(1) == 1 and Poly.zero(1) == 0
