"""Tests for the Witt-vector layer."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2models import witt as witt_module
from p2models.dvr import RingElement, make_ring
from p2models.errors import P2ModelsError, PrecisionError, ValuationError
from p2models.witt import (
    WittVector,
    _extra_length,
    _recover,
    _resident,
    frobenius_w,
    ghost,
    ghosts,
    is_frobenius_kernel,
    mult_by_p,
    psi_star_image,
    scalar_teich,
    verschiebung,
    witt_add,
    witt_int_multiple,
    witt_mul,
    witt_neg,
)
from strategies import digit_vectors, ring


def times_p_power(x, k):
    """p^k x by RingDescriptor._times_p_power."""
    return RingElement(x.ring, *x.ring._times_p_power(x.P, x.prec, k))


def divide_p_power(x, r):
    """x / p^r by RingDescriptor._divide_p_power."""
    return RingElement(x.ring, *x.ring._divide_p_power(x.P, x.prec, r))


def rand_vec(ring, rng, length, small=False):
    coords = []
    for _ in range(length):
        digits = [rng.randrange(ring.p if small else ring.pM)
                  for _ in range(ring.e)]
        coords.append(ring.from_digits(digits))
    return WittVector.integral(ring, coords)


# -- closed forms in length 2 -------------------------------------------------

def _closed_forms(T, U):
    """(vector, its coordinates in closed form): the sum, product and
    Frobenius of T = (t0, t1) and U = (u0, u1) over R from the first
    universal polynomials,
      S_1 = t1 + u1 + (t0^p + u0^p - (t0 + u0)^p)/p,
      P_1 = t0^p u1 + u0^p t1 + p t1 u1,
      F_1 = t1^p + (t0^(p^2) - F_0^p)/p,  F_0 = t0^p + p t1."""
    p = T.ring.p
    (t0, t1), (u0, u1) = T.lift_coords(2), U.lift_coords(2)
    f0 = t0 ** p + t1.scale(p)
    return [
        (witt_add(T, U),
         [t0 + u0,
          t1 + u1 + divide_p_power(t0 ** p + u0 ** p - (t0 + u0) ** p, 1)]),
        (witt_mul(T, U),
         [t0 * u0, t0 ** p * u1 + u0 ** p * t1 + (t1 * u1).scale(p)]),
        (frobenius_w(T),
         [f0, t1 ** p + divide_p_power(t0 ** (p * p) - f0 ** p, 1)]),
    ]


def _agrees(w, closed, floor):
    """w has the coordinates `closed` and no more, each difference decided
    at precision floor or above."""
    diffs = [w.coord(i) - c for i, c in enumerate(closed)]
    assert all(d.prec >= floor for d in diffs), "below the precision floor"
    return len(w) <= len(closed) and all(d.is_zero() for d in diffs)


@pytest.mark.parametrize("p,M", [(3, 12), (5, 8), (7, 4)])
def test_ghost_recursion_matches_length_two_closed_forms(p, M):
    # one division by p costs e digits, so every comparison is decided at
    # precision full_prec - e or above; a result with one coordinate moved
    # by pi^k just under that floor is rejected
    ring = make_ring(p, M)
    floor = ring.full_prec - ring.e
    rng = random.Random(p)
    for _ in range(4):
        T, U = rand_vec(ring, rng, 2), rand_vec(ring, rng, 2)
        for w, closed in _closed_forms(T, U):
            assert _agrees(w, closed, floor)
            for i in range(2):
                moved = w.lift_coords(2)
                moved[i] = moved[i] + ring.pi(floor - 1)
                assert not _agrees(WittVector.integral(ring, moved), closed,
                                   floor)


# -- ghost map ----------------------------------------------------------------

def test_ghost_teichmuller(R3):
    a = R3.zeta2
    w = WittVector.teichmuller(R3, a)
    for r in range(4):
        assert (ghost(w, r) - a ** (3 ** r)).is_zero()


def test_ghost_of_verschiebung(R3):
    rng = random.Random(0)
    w = rand_vec(R3, rng, 3)
    vw = verschiebung(w)
    assert ghost(vw, 0).is_zero()
    for r in range(1, 4):
        assert (ghost(vw, r) - ghost(w, r - 1).scale(3)).is_zero()


def test_ghost_zero(R3):
    z = WittVector.zero(R3)
    for r in range(3):
        assert ghost(z, r).is_zero()


def test_ghost_is_ring_hom(R3):
    rng = random.Random(1)
    for _ in range(20):
        u = rand_vec(R3, rng, 4)
        v = rand_vec(R3, rng, 4)
        s = witt_add(u, v)
        m = witt_mul(u, v)
        for r in range(4):
            assert (ghost(s, r) - (ghost(u, r) + ghost(v, r))).is_zero()
            assert (ghost(m, r) - ghost(u, r) * ghost(v, r)).is_zero()


def test_witt_add_identity_and_neg(R3):
    rng = random.Random(2)
    u = rand_vec(R3, rng, 3)
    z = WittVector.zero(R3)
    assert witt_add(u, z) == u
    s = witt_add(u, witt_neg(u))
    for r in range(3):
        assert ghost(s, r).is_zero()


def test_scalar_teich_closed_form(R3):
    # [c] u = (c u_0, c^p u_1, c^(p^2) u_2) against the Witt product, for
    # a random u over R and its reductions over R/pi^t
    rng = random.Random(3)
    c = R3.from_digits([rng.randrange(R3.pM) for _ in range(R3.e)])
    u = rand_vec(R3, rng, 3)
    assert scalar_teich(c, u) == witt_mul(WittVector.teichmuller(R3, c), u)
    for t in (1, 2, 3):
        ut = u.reduce(t)
        teich = WittVector.teichmuller(R3, c.reduce_mod(t), t)
        assert scalar_teich(c, ut) == witt_mul(teich, ut)
    # [c][a] = [ca]
    a = R3.from_digits([rng.randrange(R3.pM) for _ in range(R3.e)])
    assert (scalar_teich(c, WittVector.teichmuller(R3, a))
            == WittVector.teichmuller(R3, c * a))


def test_frobenius_ghost_shift(R3):
    rng = random.Random(4)
    for _ in range(10):
        u = rand_vec(R3, rng, 5)
        fu = frobenius_w(u)
        for r in range(4):
            assert (ghost(fu, r) - ghost(u, r + 1)).is_zero()


def test_fv_is_p_on_ghosts(R3):
    rng = random.Random(5)
    u = rand_vec(R3, rng, 4)
    fv = frobenius_w(verschiebung(u))
    for r in range(4):
        assert (ghost(fv, r) - ghost(u, r).scale(3)).is_zero()


def test_frobenius_is_p_power_in_char_p(R3):
    # over R/pi R (characteristic p) F is the coordinate-wise p-power
    rng = random.Random(6)
    for t in (1, 2):
        for _ in range(5):
            coords = [R3.from_int(rng.randrange(3)).scale(1) * R3.pi(rng.randrange(2))
                      for _ in range(2)]
            u = WittVector(R3, t, [c.reduce_mod(t) for c in coords])
            if not u.is_nilpotent():
                continue
            fu = frobenius_w(u)
            expect = WittVector(R3, t, [c ** 3 for c in u.coords])
            if t <= R3.e:  # p = 0 in R/pi^t only when t <= v(p)
                assert fu == expect


def test_verschiebung_definition(R3):
    a = R3.from_int(5)
    w = verschiebung(WittVector.teichmuller(R3, a))
    assert len(w) == 2
    assert w.coord(0).is_zero()
    assert (w.coord(1) - a).is_zero()


# -- component-wise addition on the Frobenius kernel ---------------------------

def test_componentwise_sum_on_frobenius_kernel_exhaustive(count_calls):
    # F(u) = 0 vectors add coordinate-wise: support <= 2, v(lam) <= 3.
    # Counted on a fresh ring, whose memo of powers starts empty.
    from p2models.dvr import enumerate_quotient
    from itertools import product
    R3 = make_ring(3, 12)
    calls = count_calls(RingElement, "__mul__")
    for t in (1, 2, 3):
        pool = list(enumerate_quotient(R3, t))
        kernel = []
        for coords in product(pool, repeat=2):
            w = WittVector(R3, t, coords)
            if is_frobenius_kernel(w, R3.zero(), t):
                kernel.append(w)
        assert kernel, f"no kernel vectors at t={t}"
        for u in kernel:
            for v in kernel:
                s = witt_add(u, v)
                comp = WittVector(R3, t,
                                  [u.coord(i) + v.coord(i)
                                   for i in range(max(len(u), len(v)))])
                assert s == comp
    # 2,473 ring products with the ring's memo of powers, each distinct
    # Frobenius rung computed once; the bound is the count plus 5 %.
    # Without the memo 40,797 (80,137 at the working length with two
    # spare coordinates, 146,945 powering each ghost term from scratch).
    assert calls["__mul__"] <= 2_596


def test_mult_by_p_teichmuller(R3):
    # p [a] == (pa, a^p, 0, ...) mod p^2
    rng = random.Random(7)
    for _ in range(20):
        a = R3.from_digits([rng.randrange(R3.pM) for _ in range(R3.e)])
        w = witt_int_multiple(WittVector.teichmuller(R3, a), 3, 4)
        expect = [a.scale(3), a ** 3, R3.zero(), R3.zero()]
        for i in range(4):
            d = w.coord(i) - expect[i]
            v = d.valuation()
            from p2models.dvr import IndeterminateAtPrecision
            assert isinstance(v, IndeterminateAtPrecision) or v >= 2 * R3.e


def test_mult_by_p_ghost(R3):
    rng = random.Random(8)
    a = R3.from_digits([rng.randrange(R3.pM) for _ in range(R3.e)])
    w = witt_int_multiple(WittVector.teichmuller(R3, a), 3, 2)
    g1 = ghost(w, 1)
    d = g1 - (a ** 3).scale(3)
    from p2models.dvr import IndeterminateAtPrecision
    v = d.valuation()
    assert isinstance(v, IndeterminateAtPrecision) or v >= 2 * R3.e


def test_mult_by_p_zero(R3):
    z = WittVector.zero(R3, 3)
    assert mult_by_p(z, 9) == WittVector.zero(R3, 9)


def test_psi_star_on_teichmuller_power(R3):
    # b = [a^p] with a^p = 0 mod lam: psi* b has the component-wise form
    lam_val = 3
    mu = R3.pi(3)  # v(mu) = 3, p/mu^(p-1) valuation 0
    a = R3.pi()  # v(a)=1, a^p = pi^3 = 0 mod pi^3
    b = WittVector(R3, lam_val * 3, [(a ** 3).reduce_mod(9)])
    img = psi_star_image(b, mu)
    scalar = R3.from_int(3).divide_exact(mu ** 2)
    expect = WittVector(R3, 9, [(scalar * a ** 3).reduce_mod(9),
                                (a ** 3).reduce_mod(9)])
    assert img == expect


def test_psi_star_valuation_guard(R3):
    from p2models.errors import ValuationError
    b = WittVector(R3, 3, [R3.pi().reduce_mod(3)])
    with pytest.raises(ValuationError):
        psi_star_image(b, R3.pi(4))  # p/mu^(p-1) not in R


def test_is_frobenius_kernel_examples(R3):
    # [a] with a^p = mu^(p-1) a mod pi^t
    mu = R3.pi(3)
    t = 3
    a = R3.pi()
    w = WittVector(R3, t, [a.reduce_mod(t)])
    # a^3 = pi^3 = 0 mod pi^3 and mu^2 a = pi^7 = 0: kernel
    assert is_frobenius_kernel(w, mu, t)
    assert is_frobenius_kernel(WittVector.zero(R3, t), mu, t)
    one = WittVector(R3, 1, [R3.one().reduce_mod(1)])
    assert not is_frobenius_kernel(one, R3.pi(), 1)


def test_witt_vector_json(R3):
    w = WittVector.integral(R3, [R3.pi(), R3.zeta2])
    doc = w.to_json()
    assert isinstance(doc, list) and len(doc) == 2
    from p2models.dvr import ring_element_from_json
    back = WittVector.integral(
        R3, [ring_element_from_json(R3, obj) for obj in doc])
    assert back == w


def test_psi_star_solve_characterization(R3):
    # psi_star(b) = p[a] - j[mu] forces b = [a^p] with the scalar
    # congruence p a - j mu = (p/mu^(p-1)) a^p; the canonical model data
    # realizes it
    from p2models.dvr import eta
    from p2models.witt import witt_sub
    mu = R3.pi(3)
    t = 9
    a = eta(R3)
    w_pa = witt_int_multiple(WittVector.teichmuller(R3, a), 3, 4).reduce(t)
    w_jmu = WittVector(R3, t, [mu.reduce_mod(t)])
    target = witt_sub(w_pa, w_jmu)
    b = WittVector(R3, t, [(a ** 3).reduce_mod(t)])
    assert is_frobenius_kernel(b, mu ** 3, t)
    assert psi_star_image(b, mu) == target


def test_extra_length_is_an_integer_ceiling_log():
    # max(1, k) for the least k >= 0 with p^k >= t; a float log
    # overshoots at exact prime powers such as log(125, 5)
    def least_k(p, t):
        k = 0
        while p ** k < t:
            k += 1
        return k

    cases = [(p, t) for p in (3, 5, 7) for t in range(p ** 4 + 1)]
    cases += [(5, 5 ** 3), (5, 5 ** 6), (7, 7 ** 5)]
    for p, t in cases:
        assert _extra_length(p, t) == max(1, least_k(p, t))
    assert [_extra_length(5, 5 ** 3), _extra_length(5, 5 ** 6),
            _extra_length(7, 7 ** 5)] == [3, 6, 5]


# -- the working length from the weight bound ---------------------------------

def _spare_two_length(p, t):
    """The extra length before the weight bound set it: k + 1 for the
    least k >= 1 with p^k >= t (1 for t <= 1), one index more than
    `_extra_length` for 2 <= t.  The oracle of the agreement tests."""
    if t <= 1:
        return 1
    k = 1
    while p ** k < t:
        k += 1
    return k + 1


def _nilpotent_digits(rng, p, t, support):
    """pi-adic digits of `support` coordinates of valuation >= 1 mod pi^t."""
    return [[0] + [rng.randrange(p) for _ in range(t - 1)]
            for _ in range(support)]


def _vec(ring, t, digits):
    return WittVector(ring, t, [ring.from_pi_digits(d) for d in digits])


def _op_cases(seed):
    """(p, name, t, digits of u, digits of v): seeded random nilpotent
    operands of support 1..3 over R/pi^t, t <= 3p, for each operation."""
    rng = random.Random(seed)
    for p, count in ((3, 40), (5, 15), (7, 5)):
        for name in ("add", "mul", "frobenius", "mult_by_p"):
            for _ in range(count):
                t = rng.randrange(1, 3 * p + 1)
                yield (p, name, t,
                       _nilpotent_digits(rng, p, t, rng.randrange(1, 4)),
                       _nilpotent_digits(rng, p, t, rng.randrange(1, 4)))


def _run_op(ring, name, t, ud, vd):
    u, v = _vec(ring, t, ud), _vec(ring, t, vd)
    if name == "add":
        return witt_add(u, v)
    if name == "mul":
        return witt_mul(u, v)
    if name == "frobenius":
        return frobenius_w(u)
    return mult_by_p(u, ring.p * t)


def _outcome(ring, name, t, ud, vd):
    """The result's coordinate digits, or None on PrecisionError."""
    from p2models.errors import PrecisionError
    try:
        return _run_op(ring, name, t, ud, vd).to_json()
    except PrecisionError:
        return None


_AGREEMENT_M = {3: 12, 5: 12, 7: 10}


def test_working_length_agrees_with_one_more_spare(monkeypatch):
    # Every case returns at the new length and at the old one (one more
    # coordinate), and the two agree.  Before ghost recovery kept the
    # precision p^k adds to a rung, some cases at the old length, and a
    # few at the new one, ran out of precision.
    from p2models import witt
    rings = {p: make_ring(p, M) for p, M in _AGREEMENT_M.items()}
    agreed = dict.fromkeys(rings, 0)
    for p, name, t, ud, vd in _op_cases(23):
        new = _outcome(rings[p], name, t, ud, vd)
        with monkeypatch.context() as m:
            m.setattr(witt, "_extra_length", _spare_two_length)
            old = _outcome(rings[p], name, t, ud, vd)
        assert new is not None and new == old, (p, name, t, ud, vd)
        agreed[p] += 1
    assert agreed == {3: 160, 5: 60, 7: 20}


def test_recovery_loses_precision_linearly():
    # coordinate r of a recovered vector is known to full_prec - r e:
    # u + u over R/pi^9 at p = 3, M = 12 (e = 6) at its working length
    R = make_ring(3, 12)
    u = _vec(R, 9, [[0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 2, 1, 1, 0, 0, 2, 1, 0],
                    [0, 1, 1, 1, 2, 2, 0, 0, 1]])
    gh = [_resident(a + b) for a, b in zip(ghosts(u, 5), ghosts(u, 5))]
    assert [c.prec for c in _recover(R, gh)] == [72, 66, 60, 54, 48]


def test_support_three_sums_at_p7_within_precision():
    # at p = 7, M = 10 (e = 42) support-3 sums over R/pi^18 once raised
    # PrecisionError; they return, and equal the same sums at M = 20
    R10, R20 = make_ring(7, 10), make_ring(7, 20)
    rng = random.Random(18)
    for _ in range(3):
        ud = _nilpotent_digits(rng, 7, 18, 3)
        vd = _nilpotent_digits(rng, 7, 18, 3)
        got = witt_add(_vec(R10, 18, ud), _vec(R10, 18, vd))
        assert got.to_json() == witt_add(_vec(R20, 18, ud),
                                         _vec(R20, 18, vd)).to_json()


@pytest.mark.parametrize("c", [1, 2])
def test_teichmuller_product_needs_one_nilpotent_operand(R3, c):
    # [c] * u with [c] a unit: the bound rests on the product being
    # isobaric in u alone; the closed form scalar_teich is the oracle
    rng = random.Random(29 + c)
    for t in range(1, 10):
        for support in (1, 2, 3):
            u = _vec(R3, t, _nilpotent_digits(rng, 3, t, support))
            teich = WittVector.teichmuller(R3, R3.from_int(c), t)
            assert witt_mul(teich, u) == scalar_teich(R3.from_int(c), u)
            assert witt_mul(u, teich) == scalar_teich(R3.from_int(c), u)


@pytest.mark.parametrize("t", [5, 6])
def test_mult_by_p_within_precision_at_the_bound(R3, t):
    # p [pi] over R/pi^t into R/pi^(3t): the extra coordinate of the old
    # working length divided by one more power of p and ran out of
    # precision at M = 12; the result equals the same call at M = 30
    R30 = make_ring(3, 30)
    got = mult_by_p(WittVector(R3, t, [R3.pi()]), 3 * t)
    want = mult_by_p(WittVector(R30, t, [R30.pi()]), 3 * t)
    assert got.t == want.t == 3 * t and len(got) == len(want) == 2
    assert got.to_json() == want.to_json()


def test_working_length_without_spare_does_not_settle(R3, monkeypatch):
    # Negative control: one index fewer leaves no spare coordinate, and
    # the t = 3 kernel sweep then fails the settle check
    from itertools import product

    from p2models import witt
    from p2models.dvr import enumerate_quotient
    from p2models.errors import P2ModelsError
    pool = list(enumerate_quotient(R3, 3))
    kernel = [w for w in (WittVector(R3, 3, coords)
                          for coords in product(pool, repeat=2))
              if is_frobenius_kernel(w, R3.zero(), 3)]
    assert len(kernel) == 81
    extra = witt._extra_length
    monkeypatch.setattr(witt, "_extra_length", lambda p, t: extra(p, t) - 1)
    with pytest.raises(P2ModelsError, match="did not settle"):
        for u in kernel:
            for v in kernel:
                witt_add(u, v)


# -- quotient coordinates are canonical lifts ---------------------------------

def test_quotient_coordinates_are_canonical_lifts(R3):
    # c + pi^t x is c mod pi^t: the vectors built from either, and from
    # the QuotElement c mod pi^t, are equal and show the same coordinates
    from p2models.dvr import QuotElement
    rng = random.Random(9)
    for t in (1, 3, 6, 9):
        cs = [R3.from_digits([rng.randrange(R3.pM) for _ in range(R3.e)])
              for _ in range(3)]
        xs = [R3.from_digits([rng.randrange(R3.pM) for _ in range(R3.e)])
              for _ in range(3)]
        shifted = WittVector(R3, t, [c + R3.pi(t) * x
                                     for c, x in zip(cs, xs)])
        quot = WittVector(R3, t, [c.reduce_mod(t) for c in cs])
        assert shifted == quot and len(shifted) == len(quot) == 3
        for i, c in enumerate(cs):
            q = shifted.coord(i)
            assert isinstance(q, QuotElement) and q == c.reduce_mod(t)
            assert shifted.coords[i] == q.lift()
        # negative control: digit t - 1 of one coordinate changed
        d = list(quot.coord(1).digits)
        d[t - 1] = (d[t - 1] + 1) % R3.p
        other = WittVector(R3, t, [quot.coord(0), QuotElement(R3, t, d),
                                   quot.coord(2)])
        assert other != quot and other.coord(1).digits == tuple(d)


def test_quotient_vector_json_shows_digits(R3):
    w = WittVector(R3, 3, [R3.pi() + R3.pi(3), R3.from_int(5), R3.zero()])
    assert w.to_json() == [{"t": 3, "digits": [0, 1, 0]},
                           {"t": 3, "digits": [2, 0, 0]}]
    assert repr(w) == ("WittVector(t=3, [QuotElement(0.1.0 mod pi^3), "
                       "QuotElement(2.0.0 mod pi^3)])")


def test_quotient_coordinate_known_below_modulus_is_refused(R3):
    from p2models.errors import PrecisionError
    with pytest.raises(PrecisionError):
        WittVector(R3, 3, [R3.one(), R3.pi().with_prec(2)])
    assert WittVector(R3, 3, [R3.pi().with_prec(3)]).coord(0) == \
        R3.pi().reduce_mod(3)


def test_quotient_coordinate_of_another_level_is_refused(R3):
    # the lift 1 + pi of a class mod pi^3 is not the canonical lift 1 of
    # its class mod pi, and a class mod pi is not known mod pi^3
    one_pi = (R3.one() + R3.pi()).reduce_mod(3)
    with pytest.raises(ValueError, match="R/pi\\^3 for R/pi\\^1"):
        WittVector(R3, 1, [one_pi])
    with pytest.raises(ValueError, match="R/pi\\^1 for R/pi\\^3"):
        WittVector(R3, 3, [one_pi, R3.one().reduce_mod(1)])
    assert WittVector(R3, 1, [one_pi.lift()]) == WittVector(
        R3, 1, [R3.one().reduce_mod(1)])


def test_non_nilpotent_sum_does_not_settle(R3):
    # [1] + [1] over R/pi: coordinate 1 is (2 - 2^3)/3 = -2, a unit, so
    # the spare coordinate of the working length does not vanish
    from p2models.errors import P2ModelsError
    one = WittVector.teichmuller(R3, R3.one(), 1)
    with pytest.raises(P2ModelsError, match="did not settle"):
        witt_add(one, one)


# -- a quotient vector has no single lift to a finer level --------------------

def test_quotient_vector_is_not_lifted_to_a_finer_level(R3):
    # a class mod pi has no single lift mod pi^3, so neither reduce nor
    # the kernel predicate may pick one; integral vectors reduce to any
    # level, and quotient vectors to their own level or a coarser one
    with pytest.raises(ValueError, match="no single lift"):
        WittVector(R3, 1, [R3.one()]).reduce(3)
    with pytest.raises(ValueError, match="no single lift"):
        is_frobenius_kernel(WittVector(R3, 2, [R3.pi()]), R3.zero(), 3)
    w = WittVector(R3, 3, [R3.one() + R3.pi()])
    assert w.reduce(3) == w
    assert w.reduce(2) == WittVector(R3, 2, [R3.one() + R3.pi()])
    assert w.reduce(1) == WittVector(R3, 1, [R3.one()])
    integral = WittVector.integral(R3, [R3.pi(), R3.pi(4)])
    assert integral.reduce(3) == WittVector(R3, 3, [R3.pi()])
    assert is_frobenius_kernel(integral, R3.zero(), 3)
    assert is_frobenius_kernel(WittVector(R3, 3, [R3.pi()]), R3.zero(), 2)


# -- the recursion on residents against the RingElement-level oracle ----------

def _oracle_recover(ring, gh):
    """The ghost recursion on RingElements, step by step: each rung a
    RingElement power, each term and partial sum a RingElement.  The
    oracle of `_recover`, which runs it on residents."""
    p = ring.p
    coords, rungs = [], []  # rungs[k] = c_k^(p^(r-k))
    for r, g in enumerate(gh):
        rungs = [x ** p if x.P else x for x in rungs]
        acc = g
        for k, x in enumerate(rungs):
            if k:
                x = times_p_power(x, k)
            if x.P or x.prec < acc.prec:
                acc = acc - x
        coords.append(divide_p_power(acc, r) if r else acc)
        rungs.append(coords[-1])
    return coords


def _oracle_settle(ring, t, coords):
    w = WittVector(ring, t, coords)
    if t and len(w) == len(coords):
        raise P2ModelsError("Witt vector did not settle")
    return w


def _oracle(name, u, v, n):
    """The operation `name` through the oracle recursion, with the ghost
    combination on RingElements."""
    ring, t = u.ring, u.t
    extra = _extra_length(ring.p, t) if t else 0
    if name in ("add", "mul"):
        length = max(len(u), len(v)) + extra
        gh = [a + b if name == "add" else a * b
              for a, b in zip(ghosts(u, length), ghosts(v, length))]
        return _oracle_settle(ring, t, _oracle_recover(ring, gh))
    if name == "frobenius":
        gh = ghosts(u, len(u) + extra + 1)[1:]
        return _oracle_settle(ring, t, _oracle_recover(ring, gh))
    if name == "mult_by_p":
        gh = [g.scale(ring.p)
              for g in ghosts(u, len(u) + _extra_length(ring.p, n))]
        return _oracle_settle(ring, n, _oracle_recover(ring, gh))
    gh = [g.scale(n) for g in ghosts(u, v)]
    return WittVector(ring, 0, _oracle_recover(ring, gh))


LIBRARY = {"add": lambda u, v, n: witt_add(u, v),
           "mul": lambda u, v, n: witt_mul(u, v),
           "frobenius": lambda u, v, n: frobenius_w(u),
           "mult_by_p": lambda u, v, n: mult_by_p(u, n),
           # v is the length here
           "int_multiple": lambda u, v, n: witt_int_multiple(u, n, v)}


def _recover_on_falling_precisions(ring, gh):
    """`_recover`, after asserting its premise: the ghost precisions do
    not rise with r, so a structurally zero rung cannot lower one."""
    precs = [prec for _, prec in gh]
    assert all(a >= b for a, b in zip(precs, precs[1:])), precs
    return _recover(ring, gh)


def _result(fn):
    """(level, [(digits, precision)] of the coordinates), or the type of
    the error raised, with the settle error told apart."""
    try:
        w = fn()
    except P2ModelsError as exc:
        return type(exc), "did not settle" in str(exc)
    return w.t, [(c.digits, c.prec) for c in w.coords]


@st.composite
def _vectors(draw, R, t):
    """Support 0..3.  Over R (t = 0) each coordinate is a digit vector,
    or a structural zero in one draw of four, at a precision drawn down
    to 0, so that the divisions by p^r can run out of it and a zero rung
    can lower a sum's precision.  Over R/pi^t each is a digit vector,
    times pi (so nilpotent) in three draws of four."""
    coords = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3))
        c = R.from_digits(draw(digit_vectors(R)))
        if t == 0:
            c = (c if kind else R.zero()).with_prec(draw(st.one_of(
                st.just(R.full_prec), st.integers(0, R.full_prec))))
        elif kind:
            c = c * R.pi()
        coords.append(c)
    return WittVector(R, t, coords)


@pytest.mark.parametrize("name", sorted(LIBRARY))
@pytest.mark.parametrize("pm", [(3, 12), (5, 8), (3, 3)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_recursion_matches_the_ring_element_oracle(pm, name, data):
    # digits, precision and error type of every ghost operation, on
    # integral vectors at reduced precision and quotient vectors over
    # R/pi^t, t = 1..4; every call of _recover gets ghost precisions
    # that do not rise, low-precision zeros included
    R = ring(*pm)
    integral = name == "int_multiple"
    # integral in one draw of three where the operation takes it
    t = 0 if integral else data.draw(st.sampled_from(
        (1, 2, 3, 4) if name == "mult_by_p" else (0, 0, 1, 2, 3, 4)),
        label="t")
    u = data.draw(_vectors(R, t), label="u")
    if integral:
        v = data.draw(st.integers(1, 4), label="length")
        n = data.draw(st.sampled_from([0, 1, 2, R.p, R.p + 1, R.p ** 2, -1]))
    else:
        v, n = data.draw(_vectors(R, t), label="v"), R.p * t
    with mock.patch.object(witt_module, "_recover",
                           _recover_on_falling_precisions):
        got = _result(lambda: LIBRARY[name](u, v, n))
    assert got == _result(lambda: _oracle(name, u, v, n))


@pytest.mark.parametrize("pm", [(3, 12), (5, 8), (3, 3)])
def test_oracle_comparison_sees_both_errors(pm):
    # the cases the oracle test must cover: a unit coordinate over R/pi
    # does not settle, and an integral coordinate known to one digit
    # cannot be divided by p
    R = ring(*pm)
    one = WittVector.teichmuller(R, R.one(), 1)
    for fn in (lambda: witt_add(one, one), lambda: _oracle("add", one, one, 0)):
        assert _result(fn) == (P2ModelsError, True)
    starved = WittVector.integral(R, [R.pi().with_prec(1), R.one()])
    for name in ("add", "mul"):
        got = _result(lambda: LIBRARY[name](starved, starved, 0))
        assert got == _result(lambda: _oracle(name, starved, starved, 0))
        assert got[0] in (ValuationError, PrecisionError)
