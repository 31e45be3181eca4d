"""Tests for the ramified-ring arithmetic layer."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2models.dvr import (
    IndeterminateAtPrecision,
    QuotElement,
    RingElement,
    cyclotomic_eisenstein,
    enumerate_quotient,
    eq_mod,
    eta,
    make_custom_ring,
    make_ring,
    ring_element_from_json,
)
from p2models.errors import EisensteinError, PrecisionError, ValuationError
from strategies import digit_vectors, ring


@pytest.fixture(scope="module")
def R3():
    return make_ring(3, 8)


@pytest.fixture(scope="module")
def R5():
    return make_ring(5, 6)


def rand_element(ring, rng, unit=None):
    digits = [rng.randrange(ring.pM) for _ in range(ring.e)]
    if unit is True:
        digits[0] = digits[0] - digits[0] % ring.p + 1 + rng.randrange(ring.p - 1)
    if unit is False:
        digits[0] -= digits[0] % ring.p
    return ring.from_digits(digits)


def test_make_ring_p3(R3):
    assert R3.e == 6
    assert R3.from_int(3).valuation() == 6
    assert R3.lam1.valuation() == 3


def test_make_ring_p5(R5):
    assert R5.e == 20
    assert R5.lam1.valuation() == 5
    assert R5.from_int(5).valuation() == 20


def test_make_ring_memory_is_not_quadratic_in_m():
    # the ring built the slot-residue constants of _slots_mod for every
    # r = 0..M up front, M + 1 biases of e*W bits each: at p = 3,
    # M = 2000 it peaked at 10.2 MB, 8.8 MB of them those constants.
    # Built at first use, they still reduce mod p^r at r = 1 and r = M
    tracemalloc.start()
    try:
        R = make_ring(3, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6
    slots = [R.pM - 1, 0, R.p ** 1999, 7, R.pM - 2, 1]
    for r in (1, R.M, 1):
        assert R._unpack(R._slots_mod(R._pack(slots), r), R.e + 1) == \
            tuple(c % R.p ** r for c in slots) + (0,)


def test_cyclotomic_polynomial_is_eisenstein():
    # expand Phi_9(1+x) by hand and check the divisibility pattern
    coeffs = cyclotomic_eisenstein(3)
    assert coeffs == [3, 9, 18, 21, 15, 6]
    assert all(c % 3 == 0 for c in coeffs)
    assert coeffs[0] % 9 != 0


def test_non_eisenstein_rejected():
    with pytest.raises(EisensteinError):
        make_custom_ring(3, 6, [9, 3])  # constant term valuation 2
    with pytest.raises(EisensteinError):
        make_custom_ring(3, 6, [3, 1])  # middle coefficient a unit


def test_bad_p_rejected():
    for p in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            make_ring(p, 6)


def test_relation_forces_reduction(R3):
    # pi * pi^(e-1) reduces through E(pi) and keeps valuation e
    x = R3.pi() * R3.pi(R3.e - 1)
    assert x.valuation() == R3.e


def test_additive_inverse(R3):
    rng = random.Random(1)
    for _ in range(20):
        x = rand_element(R3, rng)
        assert (x + (-x)).is_zero()


def test_zeta_relations(R3):
    # zeta_1 = zeta_2^p and lam1 = zeta_1 - 1
    assert (R3.zeta1 - R3.zeta2 ** 3).is_zero()
    assert (R3.lam1 - (R3.zeta1 - R3.one())).is_zero()
    # zeta_{p^2} is a root of E, i.e. a primitive p^2-th root of unity
    assert (R3.zeta2 ** 9 - R3.one()).is_zero()
    assert not (R3.zeta2 ** 3 - R3.one()).is_zero()


def test_valuation_of_zero_indeterminate(R3):
    z = R3.zero(prec=7)
    v = z.valuation()
    assert v == IndeterminateAtPrecision(7)


def test_divide_exact_unit_case(R3):
    # p / lam1^(p-1) is a unit: 6 - 2*3 = 0
    q = R3.from_int(3).divide_exact(R3.lam1 ** 2)
    assert q.valuation() == 0
    # multiply back
    back = q * R3.lam1 ** 2
    assert eq_mod(back, R3.from_int(3), q.prec)


def test_divide_exact_identity(R3):
    rng = random.Random(2)
    x = rand_element(R3, rng)
    assert x.divide_exact(R3.one()) == x


def test_divide_exact_valuation_error(R3):
    with pytest.raises(ValuationError):
        R3.pi().divide_exact(R3.pi(2))


def test_invert_unit(R3):
    one = R3.one()
    assert one.invert_unit() == one
    # inverse of zeta agrees with zeta^(p^2-1)
    z = R3.zeta2
    assert (z.invert_unit() - z ** 8).is_zero()
    with pytest.raises(ValuationError):
        R3.pi().invert_unit()


@pytest.mark.parametrize("prec", [1, 2, 7, 24, 48])
def test_invert_exact_one_skips_newton(R3, prec, count_calls):
    # An exact one comes back with its own P and precision and no
    # product, as Newton would return it; every other unit, one that is
    # 1 mod pi included, still goes through Newton.
    products = count_calls(RingElement, "__mul__")
    one = R3.one().with_prec(prec)
    inv = one.invert_unit()
    assert (inv.P, inv.prec) == (1, prec) and not products
    for u in (R3.from_int(4), R3.from_int(-1), R3.one() + R3.pi(prec - 1),
              R3.zeta2):
        u = u.with_prec(prec)
        products.clear()
        inv = u.invert_unit()
        assert products and inv.prec == prec
        assert eq_mod(u * inv, R3.one(), prec)
    with pytest.raises(ValuationError):
        R3.one().with_prec(0).invert_unit()


def test_eta_p3(R3):
    e = eta(R3)
    # closed form at p=3: lam2 - lam2^2 * inv(2)
    inv2 = R3.from_int(2).invert_unit()
    expect = R3.lam2 - R3.lam2 ** 2 * inv2
    assert (e - expect).is_zero()
    assert e.valuation() == 1


@pytest.mark.parametrize("p,M", [(3, 8), (5, 6)])
def test_eta_congruence(p, M):
    # p*eta - lam1 = (p/lam1^(p-1)) eta^p modulo lam1^p
    R = make_ring(p, M)
    et = eta(R)
    lhs = et.scale(p) - R.lam1
    rhs = R.from_int(p).divide_exact(R.lam1 ** (p - 1)) * et ** p
    assert eq_mod(lhs, rhs, p * p)


def test_reduce_mod_and_enumerate(R3):
    assert len(list(enumerate_quotient(R3, 3))) == 27
    assert R3.lam1.reduce_mod(3).is_zero()
    ones = sorted(q.pi_digit_expansion(1) for q in enumerate_quotient(R3, 1))
    assert ones == [(0,), (1,), (2,)]


@pytest.mark.parametrize("t", [0, 2, 6, 7])
def test_enumerate_quotient_classes_in_digit_order(R3, t):
    # R3 has e = 6: t = 7 needs a digit beyond the slots
    classes = list(enumerate_quotient(R3, t))
    assert [x.pi_digit_expansion(t) for x in classes] == list(
        itertools.product(range(R3.p), repeat=t))
    assert len(set(classes)) == R3.p ** t
    for x in classes:
        assert x.prec == t and x == x.mod_pi(t)
        assert x.with_prec(R3.full_prec) == QuotElement(
            R3, t, x.pi_digit_expansion(t)).lift()


def test_reduce_mod_precision_guard(R3):
    x = R3.pi().with_prec(2)
    with pytest.raises(PrecisionError):
        x.reduce_mod(3)


def test_quot_element_roundtrip(R3):
    rng = random.Random(3)
    for _ in range(10):
        x = rand_element(R3, rng)
        q = x.reduce_mod(4)
        diff = x - q.lift()
        v = diff.valuation()
        assert isinstance(v, IndeterminateAtPrecision) or v >= 4


def test_json_roundtrip(R3):
    rng = random.Random(4)
    x = rand_element(R3, rng)
    assert ring_element_from_json(R3, x.to_json()) == x


# The property tests run over every (p, M) below: e = 6, 20, 42 and
# slots from 2 to 20 digits of p wide.
PRIMES = (3, 5, 7)
PRECISIONS = (2, 3, 8, 12)


@st.composite
def elements(draw, n, unit=None):
    """A ring over PRIMES x PRECISIONS and n elements of it at full
    precision; digits 0 and p^M - 1 are drawn often.  unit=True makes
    every element a unit."""
    R = ring(draw(st.sampled_from(PRIMES)), draw(st.sampled_from(PRECISIONS)))
    out = []
    for _ in range(n):
        digits = draw(digit_vectors(R))
        if unit:
            digits[0] = digits[0] - digits[0] % R.p + draw(
                st.integers(1, R.p - 1))
        out.append(R.from_digits(digits))
    return R, out


@settings(max_examples=50, deadline=None)
@given(elements(3))
def test_ring_axioms(ring_and_elements):
    R, (x, y, z) = ring_and_elements
    assert ((x + y) + z == x + (y + z))
    assert (x * y == y * x)
    assert ((x * y) * z == x * (y * z))
    assert (x * (y + z) == x * y + x * z)
    assert (x - y) + y == x and (x + (-x)).digits == (0,) * R.e


@settings(max_examples=50, deadline=None)
@given(elements(2))
def test_valuation_laws(ring_and_elements):
    _, (x, y) = ring_and_elements
    vx, vy = x.valuation(), y.valuation()
    vxy = (x * y).valuation()
    if not any(isinstance(v, IndeterminateAtPrecision) for v in (vx, vy, vxy)):
        assert vxy == vx + vy
    vsum = (x + y).valuation()
    if not any(isinstance(v, IndeterminateAtPrecision) for v in (vx, vy, vsum)):
        assert vsum >= min(vx, vy)


@settings(max_examples=50, deadline=None)
@given(elements(2), st.data())
def test_divide_roundtrip_random(ring_and_elements, data):
    R, (x, y) = ring_and_elements
    if data.draw(st.booleans()):  # a unit divisor
        digits = list(y.digits)
        digits[0] += 1 - digits[0] % R.p
        y = R.from_digits(digits)
    if isinstance(y.valuation(), IndeterminateAtPrecision):
        return
    z = (x * y).divide_exact(y)
    assert eq_mod(z, x, z.prec)


@settings(max_examples=50, deadline=None)
@given(elements(1, unit=True), st.data())
def test_invert_unit_roundtrip(ring_and_elements, data):
    # x * x^-1 = 1 at x's precision, full or lower
    R, (x,) = ring_and_elements
    x = x.with_prec(data.draw(st.integers(1, R.full_prec)))
    inv = x.invert_unit()
    assert inv.prec == x.prec
    assert eq_mod(x * inv, R.one(), x.prec)


def test_valuation_formula_vs_repeated_division(R3):
    rng = random.Random(6)
    for _ in range(100):
        x = rand_element(R3, rng)
        v = x.valuation()
        if isinstance(v, IndeterminateAtPrecision):
            continue
        # divide by pi exactly v times, landing on a unit
        cur = x
        for _ in range(v):
            cur = cur.divide_exact(R3.pi())
        assert cur.valuation() == 0


def test_quot_element_checks_survive_python_O(R3):
    # explicit raises, not asserts: `python -O` must reject these too
    with pytest.raises(ValueError):
        QuotElement(R3, 3, (1,))
    with pytest.raises(ValueError):
        QuotElement(R3, 2, (1, 0)) + QuotElement(R3, 3, (1, 0, 0))
