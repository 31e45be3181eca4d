"""Tests for the Artin-Hasse layer: integrality, specializations, forms."""

import math
from fractions import Fraction

import pytest

from p2models.artin_hasse import (
    _certify,
    _mul,
    _rational_power,
    ah_series,
    deformed_ah,
    ep_poly_special,
    ep_witt,
    product_form,
    specialize,
)
from p2models.errors import CertificationError
from p2models.poly import ExactBase, Poly, QQBase, normal_form
from p2models.witt import WittVector, verschiebung


def poly_from_coeffs(var, coeffs):
    out = (var ** 0).scale(coeffs[0])
    for i, c in enumerate(coeffs[1:], start=1):
        out = out + (var ** i).scale(c)
    return out


def test_ah_series_leading_coeffs():
    s = ah_series(3, 9)
    assert s.coefficient((0,)) == 1
    assert s.coefficient((1,)) == 1


def test_ah_series_p_integral_to_27():
    s = ah_series(3, 27)
    assert s.degree_in(0) == 27
    for c in s.terms.values():
        assert c.denominator % 3 != 0


def test_ah_series_known_values():
    # exp(T + T^3/3 + ...): T^2 coefficient 1/2, T^3: 1/6 + 1/3 = 1/2
    s = ah_series(3, 4)
    assert s.coefficient((2,)) == Fraction(1, 2)
    assert s.coefficient((3,)) == Fraction(1, 2)


def test_deformed_ah_specialize_u_equals_l():
    # E_p(mu, mu; T) = 1 + mu T
    d = deformed_ah(3, 9)
    T, U = Poly.var(d.base, 3, 0), Poly.var(d.base, 3, 1)
    assert d.subst([T, U, U]).eq(Poly.one(d.base, 3) + U * T)


def test_deformed_ah_specialize_l_zero():
    # E_p(a, 0; T) = E_p(aT)
    D = 9
    d = deformed_ah(3, D)
    T, U = Poly.var(d.base, 3, 0), Poly.var(d.base, 3, 1)
    Z = Poly.zero(d.base, 3)
    assert d.subst([T, U, Z]).eq(ah_series(3, D).subst([U * T]))


def test_deformed_ah_product_form_p3():
    assert deformed_ah(3, 27).eq(product_form(3, 27))


def test_deformed_ah_product_form_p5():
    assert deformed_ah(5, 25).eq(product_form(5, 25))


def test_deformed_ah_certified_at_p5():
    d = deformed_ah(5, 25)  # certification runs internally
    assert d.degree_in(0) == 25
    assert all(min(m) >= 0 for m in d.terms)


def test_certify_rejects_non_integral():
    # exp(T) to degree p: the coefficient 1/p! is not p-integral
    p = 3
    qq = QQBase()
    exp_t = Poly(qq, 1, {(k,): Fraction(1, math.factorial(k))
                         for k in range(p + 1)})
    _certify(Poly(qq, 1, {(k,): c for (k,), c in exp_t.terms.items()
                          if k < p}), p)
    with pytest.raises(CertificationError, match="not p-integral"):
        _certify(exp_t, p)


def test_certify_rejects_negative_l_exponent():
    qq = QQBase()
    with pytest.raises(CertificationError, match="negative exponent"):
        _certify(Poly(qq, 3, {(0, 0, 0): Fraction(1),
                              (1, 1, -1): Fraction(1)}), 3)


def test_rational_power_needs_constant_term_one():
    qq = QQBase()
    T = Poly.var(qq, 1, 0)
    one = Poly.one(qq, 1)
    # (1 + T)^(1/2) squared is 1 + T to the truncation degree
    r = _rational_power(one + T, Fraction(1, 2), 6)
    assert _mul(r, r, 6).eq(one + T)
    with pytest.raises(ValueError, match="constant term 1"):
        _rational_power(one.scale(Fraction(2)) + T, Fraction(1, 2), 6)


def test_ep_poly_special_mu_zero(R3):
    # mu = 0, a with a^p = 0: sum a^i/i! T^i
    a = R3.pi(2)
    t = 6
    coeffs = ep_poly_special(a, R3.zero(), t)
    inv2 = Fraction(1, 2)
    expect = [R3.one(), a, a * a * R3.from_int(2).invert_unit()]
    for c, e in zip(coeffs, expect):
        assert c == e.mod_pi(t)


def test_ep_poly_special_a_equals_mu(R3):
    mu = R3.pi()
    coeffs = ep_poly_special(mu, mu, 4)
    assert coeffs[0] == R3.one().mod_pi(4)
    assert coeffs[1] == mu.mod_pi(4)
    assert coeffs[2].is_zero()


def test_ep_poly_special_zero(R3):
    coeffs = ep_poly_special(R3.zero(), R3.pi(), 3)
    assert coeffs[0] == R3.one().mod_pi(3)
    assert all(c.is_zero() for c in coeffs[1:])


def test_ep_poly_special_precondition(R3):
    with pytest.raises(ValueError):
        ep_poly_special(R3.one(), R3.pi(), 3)  # 1 != pi^2 mod pi^3


def test_ep_witt_single_factor(R3):
    a0 = R3.pi()
    mu = R3.pi()
    w = WittVector.integral(R3, [a0])
    series = ep_witt(w, mu, 8)
    direct = specialize(deformed_ah(3, 8), a0, mu)
    assert series.eq(direct)


def test_ep_witt_zero(R3):
    series = ep_witt(WittVector.zero(R3), R3.pi(), 5)
    assert series.coefficient((0,)) == R3.one()
    assert all(series.coefficient((i,)).is_zero() for i in range(1, 6))


def test_ep_witt_verschiebung_collapses(R3):
    # a = V([b]) gives E_p(b, mu^p; T^p); after T -> T^3 a truncation at
    # 9 keeps the degrees <= 3 of E_p(b, mu^p; T)
    b = R3.pi()
    mu = R3.pi()
    w = verschiebung(WittVector.integral(R3, [b]))
    series = ep_witt(w, mu, 9)
    T = Poly.var(ExactBase(R3), 1, 0)
    direct = specialize(deformed_ah(3, 3), b, mu ** 3).subst([T ** 3])
    assert series.eq(direct)


def test_ep_witt_precision_per_coefficient(R3):
    # the constant term is exactly 1 and the T coefficient is a, so
    # neither inherits the precision of mu
    a = R3.pi().with_prec(5)
    series = ep_witt(WittVector.integral(R3, [a]), R3.pi().with_prec(7), 8)
    assert series.coefficient((0,)) == R3.one()
    assert series.coefficient((1,)) == a


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

    coeffs = ep_poly_special(a, mu, t)
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

    coeffs = ep_poly_special(a, mu, t)
    assert differential(coeffs)
    # negative controls on the linear coefficient (a moved constant term
    # changes F a only by a multiple of pi^t)
    assert not differential(_perturbed(coeffs, 1, R3.pi(t - 1)))
    assert differential(_perturbed(coeffs, 1, R3.pi(t)))
