from fractions import Fraction

import pytest

from partfun.errors import BadParameter, DuplicateNode, RingUnsupported
from partfun.rings import (
    INT,
    POLY,
    RAT,
    Polynomial,
    X,
    exact_rank,
    vandermonde_solve,
)


def test_polynomial_strips_trailing_zeros():
    p = Polynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial((0, 0)).coeffs == ()
    assert Polynomial().degree == -1


def test_polynomial_is_immutable():
    with pytest.raises(AttributeError):
        X.coeffs = (1,)


def test_polynomial_arithmetic():
    p = (X + 1) * (X - 1)
    assert p == X**2 - 1
    assert p.eval(3) == 8
    assert (2 * X + 2).eval(Fraction(1, 2)) == 3
    assert X**0 == 1
    assert (X**5).degree == 5
    assert -(X - 2) == 2 - X


def test_polynomial_divmod_exact():
    q, r = (X**2 - 1).divmod(X - 1)
    assert q == X + 1 and not r
    q, r = (X**2 + 1).divmod(X)
    assert q == X and r == 1


def test_polynomial_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        X.divmod(Polynomial())


def test_polynomial_valuation_and_leading():
    assert (X**3 + X**2).x_valuation() == 2
    assert (3 * X + 1).leading() == 3
    with pytest.raises(BadParameter):
        Polynomial().x_valuation()
    with pytest.raises(BadParameter):
        Polynomial().leading()


def test_constant_polynomials_hash_like_scalars():
    assert hash(Polynomial((5,))) == hash(Fraction(5))
    assert Polynomial((5,)) == 5
    assert len({Polynomial((1,)), X, 1}) == 2


def test_negative_power_rejected():
    with pytest.raises(BadParameter):
        X ** (-1)


def test_polynomial_power_is_the_repeated_product_by_square_and_multiply(monkeypatch):
    bases = (
        Polynomial((Fraction(1, 2), Fraction(-3, 4), 2)),
        Polynomial((0, Fraction(5, 3))),
        Polynomial((Fraction(-7, 2),)),
        Polynomial(),
    )
    products = []
    for p in bases:
        acc = Polynomial((1,))
        for _ in range(41):
            products.append((p, acc))
            acc = acc * p
    calls = [0]
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    for i, (p, expected) in enumerate(products):
        k = i % 41
        calls[0] = 0
        assert p**k == expected
        # one product per set bit, one square per bit after the first
        assert calls[0] == (bin(k).count("1") + k.bit_length() - 1 if k else 0)
    for bad in (-1, 2.0, Fraction(2)):
        with pytest.raises(BadParameter):
            X**bad


def test_coercion_promotes_upward_only():
    assert INT.coerce(7) == 7
    assert RAT.coerce(7) == Fraction(7)
    assert POLY.coerce(Fraction(1, 2)) == Polynomial((Fraction(1, 2),))
    # an integer-valued Fraction is still not an int scalar
    with pytest.raises(RingUnsupported):
        INT.coerce(Fraction(2, 1))
    with pytest.raises(RingUnsupported):
        RAT.coerce(X)
    with pytest.raises(RingUnsupported):
        INT.coerce(True)


def test_ring_containment_order():
    assert POLY.contains(INT) and POLY.contains(RAT) and POLY.contains(POLY)
    assert RAT.contains(INT) and not RAT.contains(POLY)
    assert not INT.contains(RAT)


def test_is_nonneg():
    assert INT.is_nonneg(0) and not INT.is_nonneg(-3)
    assert RAT.is_nonneg(Fraction(1, 2))
    assert POLY.is_nonneg(X + 1)
    assert not POLY.is_nonneg(X - 1)


@pytest.mark.parametrize(
    "ring,value",
    [
        (INT, 125),
        (INT, -4),
        (RAT, Fraction(-7, 3)),
        (POLY, 2 * X**2 + Fraction(1, 2)),
        (POLY, Polynomial()),
    ],
)
def test_json_round_trip(ring, value):
    assert ring.from_json(ring.to_json(value)) == value


def test_json_rejects_non_integers_for_int():
    assert INT.to_json(125) == "125"
    with pytest.raises(RingUnsupported):
        INT.from_json("1/2")
    with pytest.raises(RingUnsupported):
        RAT.from_json(True)


def test_vandermonde_recovers_coefficients():
    # b_j = sum_i c_i x_i^j with powers starting at 1
    xs = [1, 2, 3]
    cs = [Fraction(5), Fraction(-1), Fraction(7)]
    bs = [sum(c * Fraction(x) ** j for c, x in zip(cs, xs)) for j in (1, 2, 3)]
    assert vandermonde_solve(xs, bs) == cs
    assert vandermonde_solve([], []) == []


def test_vandermonde_rejects_bad_nodes():
    with pytest.raises(DuplicateNode):
        vandermonde_solve([1, 1], [2, 2])
    with pytest.raises(BadParameter):
        vandermonde_solve([0, 1], [1, 1])
    with pytest.raises(BadParameter):
        vandermonde_solve([1, 2], [1])


def test_exact_rank():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 1], [1, 0]]) == 2
    assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    # rectangular and over other rings
    assert exact_rank([[Fraction(1, 2), 1]]) == 1
    assert exact_rank([[X, X**2], [1, X]]) == 1
    assert exact_rank([[X, 1], [1, X]]) == 2
