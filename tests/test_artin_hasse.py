"""Tests for the Artin-Hasse layer: integrality, specializations, forms."""

import math
from fractions import Fraction

import pytest

from p2models.artin_hasse import (
    DeformedAHSeries,
    ah_series,
    deformed_ah,
    ep_poly_special,
    ep_witt,
    product_form,
)
from p2models.dvr import eq_mod, eta, make_ring
from p2models.errors import CertificationError
from p2models.poly import ExactBase, Poly, normal_form
from p2models.witt import WittVector, verschiebung


def poly_from_coeffs(var, coeffs):
    out = (var ** 0).scale(coeffs[0])
    for i, c in enumerate(coeffs[1:], start=1):
        out = out + (var ** i).scale(c)
    return out


@pytest.fixture(scope="module")
def R3():
    return make_ring(3, 12)


def test_ah_series_leading_coeffs():
    s = ah_series(3, 9)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == 1


def test_ah_series_p_integral_to_27():
    s = ah_series(3, 27)
    for c in s.coeffs:
        assert c.denominator % 3 != 0


def test_ah_series_known_values():
    # exp(T + T^3/3 + ...): T^2 coefficient 1/2, T^3: 1/6 + 1/3 = 1/2
    s = ah_series(3, 4)
    assert s.coeffs[2] == Fraction(1, 2)
    assert s.coeffs[3] == Fraction(1, 2)


def test_deformed_ah_specialize_u_equals_l():
    # E_p(mu, mu; T) = 1 + mu T
    d = deformed_ah(3, 9)
    U = Poly.var(d.coeffs[0].base, 2, 0)
    coeffs = d.specialize_qq(U, U)
    assert coeffs[0].eq(Poly.one(coeffs[0].base, 2))
    assert coeffs[1].eq(U)
    for c in coeffs[2:]:
        assert c.is_zero()


def test_deformed_ah_specialize_l_zero():
    # E_p(a, 0; T) = E_p(aT)
    D = 9
    d = deformed_ah(3, D)
    base = d.coeffs[0].base
    U = Poly.var(base, 2, 0)
    Z = Poly.zero(base, 2)
    coeffs = d.specialize_qq(U, Z)
    e = ah_series(3, D)
    for i in range(D + 1):
        expect = (U ** i).scale(e.coeffs[i])
        assert coeffs[i].eq(expect)


def test_deformed_ah_product_form_p3():
    D = 27
    d = deformed_ah(3, D)
    pf = product_form(3, D)
    for i in range(D + 1):
        assert d.coeffs[i].eq(pf[i]), f"degree {i} mismatch"


def test_deformed_ah_certified_at_p5():
    deformed_ah(5, 25)  # certification runs internally


def test_ep_poly_special_mu_zero(R3):
    # mu = 0, a with a^p = 0: sum a^i/i! T^i
    a = R3.pi(2)
    t = 6
    coeffs = ep_poly_special(a, R3.zero(), t)
    inv2 = Fraction(1, 2)
    expect = [R3.one(), a, a * a * R3.from_int(2).invert_unit()]
    for c, e in zip(coeffs, expect):
        assert c == e.reduce_mod(t)


def test_ep_poly_special_a_equals_mu(R3):
    mu = R3.pi()
    coeffs = ep_poly_special(mu, mu, 4)
    assert coeffs[0] == R3.one().reduce_mod(4)
    assert coeffs[1] == mu.reduce_mod(4)
    assert coeffs[2].is_zero()


def test_ep_poly_special_zero(R3):
    coeffs = ep_poly_special(R3.zero(), R3.pi(), 3)
    assert coeffs[0] == R3.one().reduce_mod(3)
    assert all(c.is_zero() for c in coeffs[1:])


def test_ep_poly_special_precondition(R3):
    with pytest.raises(ValueError):
        ep_poly_special(R3.one(), R3.pi(), 3)  # 1 != pi^2 mod pi^3


def test_ep_witt_single_factor(R3):
    a0 = R3.pi()
    mu = R3.pi()
    w = WittVector.integral(R3, [a0])
    series = ep_witt(w, mu, 8)
    direct = deformed_ah(3, 8).specialize(a0, mu)
    assert series.eq(direct)


def test_ep_witt_zero(R3):
    series = ep_witt(WittVector.zero(R3), R3.pi(), 5)
    assert series.coeffs[0] == R3.one()
    assert all(c.is_zero() for c in series.coeffs[1:])


def test_ep_witt_verschiebung_collapses(R3):
    # a = V([b]) gives E_p(b, mu^p; T^p)
    b = R3.pi()
    mu = R3.pi()
    w = verschiebung(WittVector.integral(R3, [b]))
    series = ep_witt(w, mu, 9)
    direct = deformed_ah(3, 9).specialize(b, mu ** 3).compose_monomial(
        R3.one(), 3)
    assert series.eq(direct)


def _perturbed(coeffs, i, x):
    return [c + x if k == i else c for k, c in enumerate(coeffs)]


def test_group_like_property(R3):
    # F(S)F(T) = F(S+T+mu S T) modulo the relation ideal, for closed-form
    # F: polynomials over R/pi^t, with coefficients at precision t
    t = 3
    mu = R3.pi(3)
    a = R3.pi()  # a^3 = 0 mod pi^3
    base = ExactBase(R3)
    one = R3.one().with_prec(t)
    S = Poly.var(base, 2, 0, one)
    T = Poly.var(base, 2, 1, one)
    arg = S + T + (S * T).scale(mu.with_prec(t))
    # relation ideal: P_{mu,1}(S), P_{mu,1}(T)
    rel_coeffs = [R3.zero(t)] + [
        R3.from_int(math.comb(3, k)).divide_exact(mu ** (3 - k)).with_prec(t)
        for k in range(1, 4)]
    rels = [poly_from_coeffs(S, rel_coeffs), poly_from_coeffs(T, rel_coeffs)]

    def group_like(coeffs):
        lhs = poly_from_coeffs(S, coeffs) * poly_from_coeffs(T, coeffs)
        rhs = poly_from_coeffs(arg, coeffs)
        return normal_form(lhs, rels).eq(normal_form(rhs, rels))

    coeffs = [c.lift().with_prec(t) for c in ep_poly_special(a, mu, t)]
    assert group_like(coeffs)
    # negative controls: the constant term moved by pi^(t-1) breaks the
    # identity, moved by pi^t it does not; equality is decided mod pi^t
    assert not group_like(_perturbed(coeffs, 0, R3.pi(t - 1)))
    assert group_like(_perturbed(coeffs, 0, R3.pi(t)))


def test_differential_characterization(R3):
    # F(S) a = F'(S)(1 + mu S) for the closed form, at precision t
    t = 3
    mu = R3.pi(3)
    a = R3.pi()
    base = ExactBase(R3)
    S = Poly.var(base, 1, 0, R3.one().with_prec(t))

    def differential(coeffs):
        F = poly_from_coeffs(S, coeffs)
        Fp = Poly.zero(base, 1)
        for i, c in enumerate(coeffs[1:], start=1):
            Fp = Fp + (S ** (i - 1)).scale(c.scale(i))
        lhs = F.scale(a.with_prec(t))
        rhs = Fp * (S ** 0 + S.scale(mu.with_prec(t)))
        return lhs.eq(rhs)

    coeffs = [c.lift().with_prec(t) for c in ep_poly_special(a, mu, t)]
    assert differential(coeffs)
    # negative controls on the linear coefficient (a moved constant term
    # changes F a only by a multiple of pi^t)
    assert not differential(_perturbed(coeffs, 1, R3.pi(t - 1)))
    assert differential(_perturbed(coeffs, 1, R3.pi(t)))
