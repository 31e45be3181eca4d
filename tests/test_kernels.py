"""Oracle tests for the arithmetic kernels.

* The resident packed `RingElement` (`+`, `-`, neg, `scale`) against
  digit-wise arithmetic mod p^M, and its slot-wise Barrett reduction at
  the top of its input range, on every slot value at (3, 2), and with a
  quotient mask one bit too wide (a negative control).
* The Kronecker-packed `RingElement.__mul__` and its polynomial Barrett
  reduction by E against the schoolbook product and row reduction.
* The packed `Poly` product over ExactBase against the term-by-term
  product-and-sum of its coefficients, and its kernel `_raw_sums`, which
  splits off the zero low slots of the second operand's residents,
  against the same loop on the whole residents: raw sums, precisions,
  counts and key order.
* The rational `Poly` product over QQBase, capped and uncapped, against
  term-by-term Fraction arithmetic, with a kernel that divides by one
  operand's denominator alone as a negative control; and the exponent
  map of one-term QQBase substitutions against `horner`, Laurent
  polynomials included, which `horner` refuses.
* The lazy single-pass `normal_form` against the stepwise rewriting
  loop it replaced, and its rejection of systems that are not
  triangular and monic.
* The nested-Horner substitution engine against term-by-term
  substitution and against nesting in index order, for Poly and
  LocalizedElement images, and its independence of the variable order.
* No Poly built by a sum, a product or a normal form holds a structural
  zero.
* The slot residues mod p^r of `RingDescriptor._slots_mod` against `%`
  per digit, and `RingElement.valuation` read from them against a scan
  of the digits' p-valuations.
* The two-run zero test mod pi^t (`is_zero`, `eq_mod` and the
  divisibility check of exact division) against the same decisions read
  off the valuation's level loop, with their errors and messages.
* Digit-wise division by p^r against `divide_exact`.
* The block pi-adic digit expansion against the stepwise `_div_pi`
  expansion it replaced, and `RingElement.mod_pi` against the
  `QuotElement` round trip.
* Each ring's memo of powers and prepared divisors against the same
  ring operations without it, with a memo keyed without the precision
  as a negative control; its bound, and that it belongs to its ring.
* The Frobenius power ladders of `witt.ghosts` and `witt._recover`
  against the direct formulas computed with `**`, and the ghost prefix
  stored on each vector against a fresh vector's.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
import operator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2models import dvr
from p2models import poly as poly_module
from p2models.artin_hasse import _mul as ah_mul
from p2models.dvr import (
    HEADROOM_BITS,
    RAW_PRODUCTS,
    IndeterminateAtPrecision,
    QuotElement,
    RingElement,
    enumerate_quotient,
    eq_mod,
    make_ring,
)
from p2models.errors import PrecisionError, ValuationError
from p2models.hopf import (HopfPresentation, LocalizedElement, UnitSpec,
                           coeff_mod_pi)
from p2models.poly import (ExactBase, Poly, QQBase, TriangularRules,
                           _rational_product, horner, normal_form,
                           sum_of_products)
from p2models.witt import (WittVector, _recover, _resident, ghost, ghosts,
                           is_frobenius_kernel, witt_add)
from strategies import digit_vectors, nonzero_digits, ring, valuation_digits

PRIMES = (3, 5, 7)
PRECISIONS = (2, 8, 12, 20)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def reduction_table(r):
    """Row k = digits of pi^(e+k) in the basis 1..pi^(e-1), k = 0..e-2."""
    rows, cur = [], [(-a) % r.pM for a in r.coeffs]  # pi^e
    rows.append(tuple(cur))
    for _ in range(r.e - 2):
        top, cur = cur[-1], [0] + cur[:-1]
        cur = [(c + top * a) % r.pM for c, a in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return tuple(rows)


def reduce_conv(r, conv):
    """Digits mod p^M of sum conv[i] pi^i, i < 2e-1, by row reduction."""
    conv, e = list(conv), r.e
    for idx in range(2 * e - 2, e - 1, -1):
        c = conv[idx]
        if c:
            for i, t in enumerate(reduction_table(r)[idx - e]):
                conv[i] += c * t
    return tuple(c % r.pM for c in conv[:e])


def schoolbook_mul(x, y):
    """Digits and precision of x*y by convolution and row reduction."""
    r = x.ring
    conv = [0] * (2 * r.e - 1)
    for i, a in enumerate(x.digits):
        if a:
            for j, b in enumerate(y.digits):
                if b:
                    conv[i + j] += a * b
    return reduce_conv(r, conv), min(x.prec, y.prec)


def termwise_poly_mul(a, b):
    """(monomial, digits, prec) of a*b, in first-occurrence key order:
    the schoolbook product of each coefficient pair, summed per monomial
    with RingElement addition; structural zeros dropped."""
    out, products = {}, {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            key = (c1.digits, c2.digits)
            if key not in products:
                products[key] = schoolbook_mul(c1, c2)[0]
            c = c1.ring.from_digits(products[key], min(c1.prec, c2.prec))
            out[m] = out[m] + c if m in out else c
    return [(m, c.digits, c.prec) for m, c in out.items() if any(c.digits)]


def terms_of(poly):
    return [(m, c.digits, c.prec) for m, c in poly.terms.items()]


def naive_subst(poly, images, const):
    """Term by term: each monomial's image is a product of images."""
    acc = const(poly.base.zero())
    for m, c in poly.terms.items():
        term = const(c)
        for i, k in enumerate(m):
            for _ in range(k):
                term = term * images[i]
        acc = acc + term
    return acc


def index_order_horner(poly, images, const):
    """Nested Horner with the first variable outermost and the others in
    index order, as the engine nested before it ordered the variables by
    the size of their images."""
    nv = poly.nvars

    def nest(items, i):
        while i < nv and not any(m[i] for m, _ in items):
            i += 1
        if i == nv:
            return const(items[0][1])
        groups = {}
        for m, c in items:
            groups.setdefault(m[i], []).append((m, c))
        acc, prev = None, 0
        for k in sorted(groups, reverse=True):
            val = nest(groups[k], i + 1)
            if acc is not None:
                for _ in range(prev - k):
                    acc = acc * images[i]
                val = acc + val
            acc, prev = val, k
        for _ in range(prev):
            acc = acc * images[i]
        return acc

    if not poly.terms:
        return const(poly.base.zero())
    return nest(list(poly.terms.items()), 0)


# ---------------------------------------------------------------------------
# packed multiplication
# ---------------------------------------------------------------------------

@st.composite
def element_pairs(draw):
    R = ring(draw(st.sampled_from(PRIMES)), draw(st.sampled_from(PRECISIONS)))
    return [R.from_digits(draw(digit_vectors(R)),
                          draw(st.integers(0, R.full_prec)))
            for _ in range(2)]


def digitwise(x, y, op):
    """Digits of op applied digit by digit mod p^M."""
    return tuple(op(a, b) % x.ring.pM for a, b in zip(x.digits, y.digits))


def check_linear_ops(x, y, n):
    pM = x.ring.pM
    cases = [(x + y, digitwise(x, y, lambda a, b: a + b)),
             (x - y, digitwise(x, y, lambda a, b: a - b)),
             (-x, tuple((-a) % pM for a in x.digits)),
             (x.scale(n), tuple(a * n % pM for a in x.digits))]
    for got, want in cases:
        assert got.digits == want
        assert all(0 <= d < pM for d in got.digits)
    prec = min(x.prec, y.prec)
    assert [z.prec for z, _ in cases] == [prec, prec, x.prec, x.prec]


@settings(max_examples=100, deadline=None)
@given(element_pairs(), st.data())
def test_resident_linear_ops_match_digitwise(pair, data):
    x, y = pair
    pM = x.ring.pM
    n = data.draw(st.one_of(st.sampled_from((0, 1, -1, pM - 1, pM, pM + 1)),
                            st.integers(-2 ** 80, 2 ** 80)))
    check_linear_ops(x, y, n)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("M", PRECISIONS)
def test_resident_linear_ops_all_digits_maximal(p, M):
    R = ring(p, M)
    top = R.from_digits([R.pM - 1] * R.e)
    for x, y in [(top, top), (top, R.zero()), (R.zero(), top),
                 (R.zero(), R.zero()), (top, R.one())]:
        for n in (R.pM - 1, -1, 2, R.p ** (M - 1)):
            check_linear_ops(x, y, n)


def check_slot_reduction_at_the_top(R):
    """_canon and _reduce_raw at the top of the Barrett range, 2^B: the
    top itself, and the multiples of p^M and their predecessors just
    below it, where a quotient estimate off by one shows."""
    top = 2 ** R._B - 1
    k = top // R.pM
    values = [top, top - 1, k * R.pM, k * R.pM - 1, (k - 1) * R.pM,
              (k - 1) * R.pM - 1, R.pM, R.pM - 1, 0]
    values += [top - j * 7919 for j in range(1, R.e)]
    for shift in range(len(values)):
        slots = (values[shift:] + values[:shift])[:R.e]
        want = tuple(v % R.pM for v in slots)
        x = R._pack(slots)
        assert R._unpack(R._canon(x), R.e + 1) == want + (0,)
        assert R._unpack(R._reduce_raw(x), R.e + 1) == want + (0,)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("M", PRECISIONS)
def test_slot_reduction_at_the_top_of_its_range(p, M):
    check_slot_reduction_at_the_top(ring(p, M))


@pytest.mark.parametrize("p, M", [(3, 8), (3, 12), (7, 2)])
def test_wider_quotient_mask_is_found(p, M, monkeypatch):
    # Negative control: a quotient mask of B - s bits, one too wide,
    # takes in bit 0 of the next slot's Y*m.  That bit is set for odd
    # Y and odd m = floor(2^(B+1)/p^M), as at these (p, M), and the
    # slot check above must then fail.
    R = make_ring(p, M)
    assert R._barrett & 1
    monkeypatch.setattr(R, "_q_mask",
                        ((1 << (R._B - R._pre_shift)) - 1) * R._ones)
    with pytest.raises(AssertionError):
        check_slot_reduction_at_the_top(R)


def test_slot_reduction_of_every_slot_value():
    # every X in [0, 2^B) at (3, 2), e consecutive values a packed
    # integer, so each slot also sees every value of its neighbour
    R = ring(3, 2)
    top = 2 ** R._B
    for lo in range(0, top, R.e):
        slots = [min(v, top - 1) for v in range(lo, lo + R.e)]
        want = tuple(v % R.pM for v in slots)
        assert R._unpack(R._canon(R._pack(slots)), R.e + 1) == want + (0,)


@pytest.mark.parametrize("p, M, W", [(3, 12, 64), (5, 8, 68)])
def test_slot_width(p, M, W):
    # W = 2B - 2 bits(p^M) + 4 with the pre-shifted Barrett step
    R = ring(p, M)
    assert R.W == W == 2 * R._B - 2 * R.pM.bit_length() + 4


# ---------------------------------------------------------------------------
# slot residues mod p^r and the valuation read from them
# ---------------------------------------------------------------------------

def check_slots_mod(R, slots):
    """_slots_mod of the packed canonical slots against % per slot, for
    every r = 0..M; the slot above the last stays clear."""
    x = R._pack(slots)
    for r in range(R.M + 1):
        want = tuple(c % R.p ** r for c in slots)
        assert R._unpack(R._slots_mod(x, r), R.e + 1) == want + (0,), r


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("M", PRECISIONS)
def test_slots_mod_matches_digitwise(p, M):
    # all digits p^M - 1, multiples of p^(M-1), zero, and the multiples
    # of each p^r and their predecessors, where an off-by-one quotient
    # estimate shows
    R = ring(p, M)
    top = p ** (M - 1)
    cases = [[R.pM - 1] * R.e, [0] * R.e,
             [(k % p) * top for k in range(R.e)], [top] * R.e]
    for r in range(M + 1):
        d = p ** r
        values = [v for v in ((R.pM - 1) // d * d, (R.pM - 1) // d * d - 1,
                              d, d - 1, 0, R.pM - 1) if 0 <= v < R.pM]
        cases.append([values[i % len(values)] for i in range(R.e)])
    for slots in cases:
        check_slots_mod(R, slots)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(PRECISIONS), st.data())
def test_slots_mod_matches_digitwise_random(p, M, data):
    R = ring(p, M)
    check_slots_mod(R, data.draw(digit_vectors(R)))


def _vp(n, p, cap):
    """p-valuation of the integer n, capped at `cap` (v_p(0) = cap)."""
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def slot_scan_valuation(x):
    """min_i e*v_p(c_i) + i over the digits, scanned from the lowest and
    stopped at the first index >= min(v, prec)."""
    R, v = x.ring, x.prec
    for i, c in enumerate(x.digits):
        if i >= v:
            break
        v = min(v, R.e * _vp(c, R.p, R.M) + i)
    return IndeterminateAtPrecision(x.prec) if v >= x.prec else v


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(PRECISIONS), st.data())
def test_valuation_matches_slot_scan(p, M, data):
    R = ring(p, M)
    x = R.from_digits(data.draw(valuation_digits(R)))
    for prec in range(R.full_prec + 1):
        y = x.with_prec(prec)
        assert y.valuation() == slot_scan_valuation(y), prec


def test_valuation_of_structural_zeros_and_pure_powers():
    for p, M in ((3, 2), (3, 12), (5, 8), (7, 3)):
        R = ring(p, M)
        for prec in range(R.full_prec + 1):
            assert R.zero(prec).valuation() == IndeterminateAtPrecision(prec)
        for j in range(M):
            for i in range(R.e):
                x = R.pi(i).scale(p ** j)
                assert x.valuation() == R.e * j + i
                assert x.with_prec(R.e * j + i).valuation() == \
                    IndeterminateAtPrecision(R.e * j + i)


# ---------------------------------------------------------------------------
# the zero test mod pi^t against the valuation's level loop
# ---------------------------------------------------------------------------

ZERO_RINGS = [(3, 12), (5, 8), (7, 4), (3, 2)]


def level_is_zero(x):
    """RingElement.is_zero read off the valuation's level loop."""
    return isinstance(x.valuation(), IndeterminateAtPrecision)


def level_eq_mod(x, y, t):
    """dvr.eq_mod read off the valuation's level loop."""
    d = (x - y).valuation()
    if isinstance(d, IndeterminateAtPrecision):
        if d.level >= t:
            return True
        raise PrecisionError(
            f"cannot decide equality mod pi^{t} at precision {d.level}")
    return d >= t


def level_check_divisible(x, w):
    """RingElement._check_divisible read off the valuation's level loop."""
    vs = x.valuation()
    if not isinstance(vs, IndeterminateAtPrecision) and vs < w:
        raise ValuationError(
            f"dividend valuation {vs} below divisor valuation {w}")
    if isinstance(vs, IndeterminateAtPrecision) and vs.level < w:
        raise PrecisionError(
            "dividend indistinguishable from 0 below divisor valuation")


def _decision(fn):
    """(result, None), or (error type, message) when fn raises."""
    try:
        return fn(), None
    except (PrecisionError, ValuationError) as exc:
        return type(exc), str(exc)


def check_zero_decisions(x, precs, levels):
    """is_zero of x at each of the given precisions, and eq_mod (against
    a dense y) and _check_divisible at each of the given levels, against
    the level loop: results, error types and messages."""
    R = x.ring
    y = R.from_digits([(7 * i + 1) % R.pM for i in range(R.e)])
    for prec in precs:
        z = x.with_prec(prec)
        assert z.is_zero() == level_is_zero(z), prec
        zy = z + y
        for t in levels(prec):
            assert _decision(lambda: eq_mod(zy, y, t)) == _decision(
                lambda: level_eq_mod(zy, y, t)), (prec, t)
            assert _decision(lambda: z._check_divisible(t)) == _decision(
                lambda: level_check_divisible(z, t)), (prec, t)


def _near(x):
    """Levels around the precision and the valuation of x at full
    precision, and the ends of the range."""
    v = x.valuation()
    v = x.ring.full_prec if isinstance(v, IndeterminateAtPrecision) else v
    return lambda prec: {-1, 0, 1, prec - 1, prec, prec + 1,
                         v - 1, v, v + 1, x.ring.full_prec}


def _every_prec(R):
    return range(-2, R.full_prec + 1)


@pytest.mark.parametrize("p, M", ZERO_RINGS)
def test_zero_test_of_unit_times_pi_power(p, M):
    # u pi^k for every k, u a unit with every digit nonzero and u = 1,
    # and the structural zero
    # at the precisions around k and at the ends, and the structural zero
    # at every precision
    R = ring(p, M)
    u = R.from_digits([(3 * i + 1) % R.pM or 1 for i in range(R.e)])
    for k in range(R.full_prec + 1):
        precs = {-2, -1, 0, k - 1, k, k + 1, R.full_prec}
        for x in (u * R.pi(k), R.pi(k)):
            check_zero_decisions(x, precs, _near(x))
    check_zero_decisions(R.zero(), _every_prec(R), _near(R.zero()))


@pytest.mark.parametrize("p, M", ZERO_RINGS)
def test_zero_test_at_the_run_boundary(p, M):
    # For t = qe + r: one nonzero slot at r - 1 or at r holding u p^j,
    # j = q - 1, q, q + 1, decided at exactly t.  The slot at r - 1 with
    # j = q has valuation t - 1 (not 0 mod pi^t: the low run is read mod
    # p^(q+1)), the slot at r with j = q valuation t (0 mod pi^t: the run
    # boundary is r), and the slot at r with j = q - 1 valuation t - e
    # (not 0: the high run is read mod p^q).
    R = ring(p, M)
    for t in range(1, R.full_prec + 1):
        q, r = divmod(t, R.e)
        for i in (r - 1, r):
            for j in (q - 1, q, q + 1):
                if 0 <= i < R.e and 0 <= j < M:
                    slots = [0] * R.e
                    slots[i] = (2 * p ** j) % R.pM
                    x = R.from_digits(slots)
                    check_zero_decisions(x, (t - 1, t, t + 1),
                                         lambda prec: {t - 1, t, t + 1})
                    z = x.with_prec(t)
                    assert z.is_zero() == (R.e * j + i >= t)
                    assert eq_mod(x, R.zero(), t) == (R.e * j + i >= t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ZERO_RINGS), st.data())
def test_zero_test_matches_the_level_loop(pm, data):
    R = ring(*pm)
    k = data.draw(st.integers(0, R.full_prec))
    digits = data.draw(valuation_digits(R))
    x = data.draw(st.sampled_from([
        R.from_digits(digits), R.from_digits(digits) * R.pi(k),
        R.from_digits([digits[0] or 1] + digits[1:]) * R.pi(k)]))
    extra = data.draw(st.lists(st.integers(-3, R.full_prec + 3),
                               max_size=4))
    near = _near(x)
    check_zero_decisions(x, _every_prec(R),
                         lambda prec: near(prec) | set(extra))


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_packed_product_matches_schoolbook(pair):
    x, y = pair
    z = x * y
    assert (z.digits, z.prec) == schoolbook_mul(x, y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(PRECISIONS), st.data())
def test_packed_product_sparse_operands(p, M, data):
    R = ring(p, M)
    positions = st.lists(st.integers(0, R.e - 1), max_size=3)
    x = y = R.zero()
    for i in data.draw(positions):
        x = x + R.pi(i).scale(data.draw(nonzero_digits(R)))
    for i in data.draw(positions):
        y = y + R.pi(i).scale(data.draw(nonzero_digits(R)))
    assert ((x * y).digits, (x * y).prec) == schoolbook_mul(x, y)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("M", PRECISIONS)
def test_packed_product_all_digits_maximal(p, M):
    R = ring(p, M)
    top = R.from_digits([R.pM - 1] * R.e)
    assert ((top * top).digits, (top * top).prec) == schoolbook_mul(top, top)


def test_packed_product_exact_beyond_64_bit_slots():
    R = ring(3, 20)
    assert 2 * R.e * (R.pM - 1) ** 2 > 2 ** 64
    assert R._B > 64  # the Barrett range of a slot is past 64 bits
    top = R.from_digits([R.pM - 1] * R.e)
    mixed = R.from_digits([R.pM - 1 - 7 * i for i in range(R.e)])
    for x, y in [(top, top), (top, mixed), (mixed, mixed)]:
        assert (x * y).digits == schoolbook_mul(x, y)[0]


# ---------------------------------------------------------------------------
# packed polynomial product
# ---------------------------------------------------------------------------

@st.composite
def poly_pairs(draw):
    R = ring(draw(st.sampled_from(PRIMES)), draw(st.sampled_from(PRECISIONS)))
    base, nvars = ExactBase(R), draw(st.integers(1, 4))
    full = draw(st.booleans())

    def coeff():
        prec = R.full_prec if full else draw(st.integers(0, R.full_prec))
        return R.from_digits(draw(digit_vectors(R)), prec)

    def poly():
        monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars),
                              max_size=6, unique=True))
        return Poly(base, nvars, {m: coeff() for m in monos})

    return poly(), poly()


@settings(max_examples=120, deadline=None)
@given(poly_pairs())
def test_packed_poly_product_matches_termwise(pair):
    # ordered lists: keys, digits, precisions and key order all match;
    # a swap-invariant pair keeps its own key order (`_packed_product`),
    # so its terms are compared as a mapping
    a, b = pair
    got, want = terms_of(a * b), termwise_poly_mul(a, b)
    if poly_module._swap_half(a.terms, b.terms):
        got, want = sorted(got), sorted(want)
    assert got == want


def _no_structural_zero(poly):
    return all(c.P for c in poly.terms.values())


@settings(max_examples=120, deadline=None)
@given(poly_pairs())
def test_sums_and_products_hold_no_structural_zero(pair):
    # in (a + b)(a - b) the products a b and -b a cancel on every
    # monomial nothing else reaches, and a - a cancels everywhere; sums
    # and products drop those terms themselves, and Poly does not filter
    # its terms again
    a, b = pair
    assert not (a - a).terms and not (a + -a).terms
    for u, v in [(a, b), (a + b, a - b), (a, -a)]:
        assert _no_structural_zero(u * v)
        assert _no_structural_zero(u + v)
        assert _no_structural_zero(u - v)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("M", PRECISIONS)
def test_packed_poly_product_many_collisions(p, M):
    # (sum_{i<n} top x^i)^2, all digits p^M-1: n products land on
    # x^(n-1), whose digit e-1 is the widest slot the kernel sizes for
    R, n = ring(p, M), 24
    top = R.from_digits([R.pM - 1] * R.e)
    a = Poly(ExactBase(R), 1, {(i,): top for i in range(n)})
    assert terms_of(a * a) == termwise_poly_mul(a, a)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("M", PRECISIONS)
def test_fold_holds_the_widest_slot_sums(p, M):
    # The largest value each slot of a sum of n packed products can
    # hold: low slot i at n*(i+1) digit products, high slot e+k at
    # n*(e-1-k), high slots = -1 mod p^M so the fold adds the most.
    # n runs up to RAW_PRODUCTS, the most a resident sum may hold.
    R = ring(p, M)
    e, sq = R.e, (R.pM - 1) ** 2
    for n in [*range(1, 65), RAW_PRODUCTS - 1, RAW_PRODUCTS]:
        slots = [n * (i + 1) * sq for i in range(e)]
        for k in range(e - 1):
            top = n * (e - 1 - k) * sq
            slots.append(top - (top + 1) % R.pM)
        got = R._unpack(R._reduce_raw(R._pack(slots)), 2 * e)
        assert got == reduce_conv(R, slots) + (0,) * e


def test_packed_poly_product_reduces_sums_early(monkeypatch):
    # (sum_{i<n} top x^i)^2, n = 2 RAW_PRODUCTS: x^(n-1) collects n
    # products.  A sum is reduced early when it already holds
    # RAW_PRODUCTS products, so the widest sum the kernel reduces holds
    # exactly RAW_PRODUCTS raw products, which slot e-1 of an
    # all-(p^M-1) sum shows: each raw product adds e (p^M-1)^2 there.
    R, n = ring(3, 2), 2 * RAW_PRODUCTS
    top = R.from_digits([R.pM - 1] * R.e)
    a = Poly(ExactBase(R), 1, {(i,): top for i in range(n)})
    widest, reduce_raw = [], R._reduce_raw

    def spy(x):
        widest.append(R._unpack(x, R.e)[-1])
        return reduce_raw(x)

    monkeypatch.setattr(R, "_reduce_raw", spy)
    got = terms_of(a * a)
    monkeypatch.undo()
    square = schoolbook_mul(top, top)[0]
    want = [((k,), tuple(d * (n - abs(n - 1 - k)) % R.pM for d in square),
             R.full_prec) for k in range(2 * n - 1)]
    assert got == [t for t in want if any(t[1])]
    one = R.e * (R.pM - 1) ** 2
    assert max(widest) == RAW_PRODUCTS * one


def test_packed_product_reduces_only_full_sums(monkeypatch, count_calls):
    # a 300-term by 3-term product: no monomial collects more than 3
    # products, so each of the 302 sums is reduced once, at the end
    R = ring(3, 2)
    base = ExactBase(R)
    c = R.from_digits(range(1, R.e + 1))
    a = Poly(base, 1, {(i,): c for i in range(300)})
    b = Poly(base, 1, {(i,): c for i in range(3)})
    calls = count_calls(R, "_reduce_raw")
    got = a * b
    monkeypatch.undo()
    assert len(got.terms) == 302
    assert calls["_reduce_raw"] == 302
    assert terms_of(got) == termwise_poly_mul(a, b)


# Operands whose product, times all digits p^M-1, fills a slot of the
# single-product width w past 2^(w-1) once folded: found by a hill-climb
# on the fullest slot, so a width one bit narrower carries between slots.
FULL_SLOT_DIGITS = {
    (3, 8): (6560, 6560, 6551, 3954, 6544, 2649),
    (3, 20): (3486784400, 3486784400, 3081613811, 3062724373, 3404414940,
              913255809),
}


@pytest.mark.parametrize("p, M", sorted(FULL_SLOT_DIGITS))
def test_packed_products_that_need_the_full_slot(p, M):
    R = ring(p, M)
    x = R.from_digits(FULL_SLOT_DIGITS[p, M])
    top = R.from_digits([R.pM - 1] * R.e)
    conv = [0] * (2 * R.e - 1)
    for i, a in enumerate(x.digits):
        for j, b in enumerate(top.digits):
            conv[i + j] += a * b
    folded = conv[:R.e]
    for k, row in enumerate(reduction_table(R)):
        for i, t in enumerate(row):
            folded[i] += conv[R.e + k] % R.pM * t
    # past half of one product's share bits(2e(p^M-1)^2) of the range
    assert max(folded) >= 2 ** (R._B - HEADROOM_BITS - 1)
    assert (x * top).digits == schoolbook_mul(x, top)[0]
    a = Poly.const(ExactBase(R), 1, x)
    b = Poly(ExactBase(R), 1, {(i,): top for i in range(3)})
    assert terms_of(a * b) == termwise_poly_mul(a, b)


def test_packed_poly_product_drops_cancelled_terms():
    # (x + y)(c x - c y) = c x^2 - c y^2: the two xy products cancel to
    # all-zero digits and the monomial is dropped, in either order
    R = ring(5, 8)
    base = ExactBase(R)
    c = R.from_digits(range(1, R.e + 1))
    x, y = Poly.var(base, 2, 0), Poly.var(base, 2, 1)
    a, b = x + y, x.scale(c) - y.scale(c)
    for u, v in [(a, b), (b, a)]:
        assert terms_of(u * v) == termwise_poly_mul(u, v)
        assert list((u * v).terms) == [(2, 0), (0, 2)]
    assert not (a * (b - b)).terms


def test_packed_poly_product_rejects_mixed_rings():
    R, S = ring(3, 12), ring(3, 8)
    a = Poly.var(ExactBase(R), 1, 0)
    b = Poly.var(ExactBase(S), 1, 0)
    mixed = Poly(ExactBase(R), 1, {(0,): R.one(), (1,): S.one()})
    for u, v in [(a, b), (b, a), (a, mixed), (mixed, a)]:
        with pytest.raises(ValueError, match="different rings"):
            u * v


def test_poly_arithmetic_rejects_other_rings():
    # x1 in 2 variables times x3 in 4 came out as x1 in 2 variables, the
    # sum held keys of two lengths, and a QQBase times an ExactBase
    # product failed with AttributeError
    R = ring(3, 12)
    B = ExactBase(R)
    x = Poly.var(B, 2, 1)
    qq = Poly.var(QQBase(), 2, 1)
    for other in (Poly.var(B, 4, 3), qq, Poly.var(ExactBase(ring(3, 8)), 2, 1)):
        for u, v in [(x, other), (other, x)]:
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ValueError, match="different rings"):
                    op(u, v)
            with pytest.raises(ValueError, match="different rings"):
                sum_of_products([(x, x), (u, v)], B, 2)
    # bases compare by ring, not by identity
    assert (Poly.var(QQBase(), 2, 1) * qq).terms == {(0, 2): Fraction(1)}
    assert terms_of(sum_of_products([(x, Poly.var(ExactBase(R), 2, 1))],
                                    B, 2)) == terms_of(x * x)


# ---------------------------------------------------------------------------
# swap-invariant products
# ---------------------------------------------------------------------------

def mirror(m):
    n = len(m) // 2
    return m[n:] + m[:n]


@st.composite
def swap_invariant_pairs(draw):
    """Two polynomials in 2 or 4 variables, each invariant under swapping
    the first and the last half of its variables: a monomial and its
    mirror hold one element.  Each has a fixed point (first half = last
    half) and a monomial that is not one; precisions are mixed."""
    R = ring(draw(st.sampled_from(PRIMES)), draw(st.sampled_from(PRECISIONS)))
    nvars = draw(st.sampled_from((2, 4)))
    half = st.tuples(*[st.integers(0, 3)] * (nvars // 2))

    def coeff():
        digits = draw(digit_vectors(R))
        return R.from_digits([digits[0] or 1] + digits[1:],
                             draw(st.integers(0, R.full_prec)))

    def poly():
        lo = draw(half)
        monos = [lo + lo, lo + (lo[0] + 1,) + lo[1:]]
        monos += draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars),
                               max_size=5))
        terms = {}
        for m in monos:
            terms[m] = terms[mirror(m)] = coeff()
        return Poly(ExactBase(R), nvars, terms)

    return poly(), poly()


def swap_path(ta, tb):
    """(terms of _packed_product(ta, tb), the row bound `half` it handed
    to _raw_sums)."""
    with mock.patch.object(poly_module, "_raw_sums",
                           wraps=poly_module._raw_sums) as spy:
        out = poly_module._packed_product(ta, tb)
    (_, *half), _ = spy.call_args
    return out, half[0] if half else 0


def full_kernel(ta, tb):
    """{monomial: (digits, prec)} of the product, every monomial summed."""
    return {m: (c.digits, c.prec) for m, c in poly_module._settled(
        *poly_module._raw_sums(((ta, tb),))).items()}


def assert_swap_path(ta, tb):
    got, half = swap_path(ta, tb)
    assert half == len(next(iter(ta))) // 2
    assert {m: (c.digits, c.prec) for m, c in got.items()} == full_kernel(
        ta, tb)
    assert all(got[mirror(m)] is c for m, c in got.items())


@settings(max_examples=100, deadline=None)
@given(swap_invariant_pairs())
def test_swap_invariant_product_matches_the_full_kernel(pair):
    # (a + b)(a - b): the products a b and -b a cancel on the monomials
    # nothing else reaches, which become structural zeros
    a, b = pair
    for u, v in [(a, b), (b, a), (a, a), (a + b, a - b)]:
        if u.terms and v.terms:
            assert_swap_path(u.terms, v.terms)


@settings(max_examples=60, deadline=None)
@given(swap_invariant_pairs(), st.data())
def test_nearly_swap_invariant_products_take_the_full_path(pair, data):
    # one coefficient off its mirror by one digit, or by its precision
    # alone: the product is not swap-invariant
    a, b = pair
    m = data.draw(st.sampled_from([m for m in a.terms if mirror(m) != m]))
    c = a.terms[m]
    R = c.ring
    digits = list(c.digits)
    digits[0] = (digits[0] + 1) % R.pM or 1
    for off in (R.from_digits(digits, c.prec),
                RingElement(R, c.P, c.prec - 1 if c.prec else 1)):
        ta = {**a.terms, m: off}
        for u, v in [(ta, b.terms), (b.terms, ta)]:
            got, half = swap_path(u, v)
            assert half == 0
            assert {k: (x.digits, x.prec) for k, x in got.items()} == (
                full_kernel(u, v))


@pytest.mark.parametrize("p, M", [(3, 2), (5, 8)])
def test_swap_invariant_products_past_the_raw_bound_and_cancelling(p, M):
    # (sum_{i<=n} top x^i y^(n-i))^2 with n + 1 > RAW_PRODUCTS: the fixed
    # point x^n y^n collects n + 1 products, so its sum is reduced early
    R, n = ring(p, M), RAW_PRODUCTS + 20
    base = ExactBase(R)
    top = R.from_digits([R.pM - 1] * R.e)
    a = Poly(base, 2, {(i, n - i): top for i in range(n + 1)})
    assert_swap_path(a.terms, a.terms)
    assert sorted(terms_of(a * a)) == sorted(termwise_poly_mul(a, a))
    # (1 + c s)(1 - c s) = 1 - c^2 s^2, s = x + y: the products on x and
    # on y cancel to structural zeros
    c = R.from_digits(range(1, R.e + 1), R.full_prec - 3)
    s = Poly.var(base, 2, 0) + Poly.var(base, 2, 1)
    one = Poly.one(base, 2)
    u, v = one + s.scale(c), one - s.scale(c)
    assert_swap_path(u.terms, v.terms)
    # kept monomials in first-occurrence order, each followed by its mirror
    assert list((u * v).terms) == [(0, 0), (1, 1), (0, 2), (2, 0)]
    assert sorted(terms_of(u * v)) == sorted(termwise_poly_mul(u, v))


# ---------------------------------------------------------------------------
# the split multiplier of the packed kernel
# ---------------------------------------------------------------------------

def unsplit_raw_sums(pairs, half=0):
    """poly._raw_sums with each product formed from the whole residents,
    as the kernel did before it split the second operand's terms."""
    acc, ring_ = {}, None
    for ta, tb in pairs:
        if not ta or not tb:
            continue
        if ring_ is None:
            ring_ = next(iter(ta.values())).ring
        pb = [(m, c.P, c.prec) for m, c in tb.items()]
        if half:
            pb.sort(key=lambda t: poly_module._lag(t[0], half))
            lags = [poly_module._lag(m, half) for m, _, _ in pb]
        for m1, c1 in ta.items():
            x1, p1 = c1.P, c1.prec
            row = pb if not half else pb[:bisect_right(
                lags, poly_module._lag(m1[half:] + m1[:half], half))]
            for m2, x2, p2 in row:
                m = tuple(map(operator.add, m1, m2))
                s = acc.get(m)
                if s is None:
                    acc[m] = [x1 * x2, min(p1, p2), 1]
                    continue
                if s[2] == RAW_PRODUCTS:
                    s[0], s[2] = ring_._reduce_raw(s[0]), 1
                s[0] += x1 * x2
                s[2] += 1
                s[1] = min(s[1], p1, p2)
    return ring_, acc


def assert_same_raw_sums(pairs, half=0):
    # raw integers, precisions, counts and key order
    pairs = list(pairs)
    ring_, got = poly_module._raw_sums(pairs, half)
    want_ring, want = unsplit_raw_sums(pairs, half)
    assert ring_ is want_ring
    assert list(got.items()) == list(want.items())


@st.composite
def pi_power_pairs(draw):
    """Two term dicts in 2 variables; the second holds u pi^k for every
    0 <= k < e, u an integer or a dense unit, mixed with dense terms;
    precisions are mixed."""
    R = ring(draw(st.sampled_from(PRIMES)), draw(st.sampled_from(PRECISIONS)))
    prec = st.integers(0, R.full_prec)

    def dense():
        return R.from_digits(draw(digit_vectors(R)), draw(prec))

    def unit():
        digits = draw(digit_vectors(R))
        return R.from_digits([digits[0] or 1] + digits[1:])

    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    ta = {draw(mono): dense() for _ in range(draw(st.integers(1, 4)))}
    tb = {}
    for k in range(R.e):
        u = draw(st.one_of(nonzero_digits(R).map(R.from_int),
                           st.builds(unit)))
        tb[draw(mono)] = (u * R.pi(k)).with_prec(draw(prec))
    for _ in range(draw(st.integers(0, 3))):
        tb[draw(mono)] = dense()
    return ta, tb


@settings(max_examples=60, deadline=None)
@given(pi_power_pairs())
def test_split_products_match_the_unsplit_kernel(pair):
    ta, tb = pair
    assert_same_raw_sums([(ta, tb)])
    assert_same_raw_sums([(tb, ta)])
    assert_same_raw_sums([(ta, tb), (tb, tb), (tb, ta)])


@settings(max_examples=40, deadline=None)
@given(swap_invariant_pairs())
def test_split_swap_invariant_products_match_the_unsplit_kernel(pair):
    a, b = pair
    half = a.nvars // 2
    for u, v in [(a, b), (a, a), (a + b, a - b)]:
        if u.terms and v.terms:
            assert_same_raw_sums([(u.terms, v.terms)], half)
            assert_same_raw_sums([(u.terms, v.terms)])


@pytest.mark.parametrize("p, M", [(3, 2), (5, 8)])
def test_split_products_past_the_raw_bound(p, M):
    # (sum_{i<=n} c_i x^i)^2, n + 1 > RAW_PRODUCTS, c_i = (p^M - 1) pi^(i
    # mod e): x^n collects n + 1 products, each second operand shifted
    # by its own slot, and the sum is reduced early
    R, n = ring(p, M), RAW_PRODUCTS + 20
    top = R.from_int(R.pM - 1)
    ta = {(i,): top * R.pi(i % R.e) for i in range(n + 1)}
    assert_same_raw_sums([(ta, ta)])
    assert max(s[2] for s in poly_module._raw_sums([(ta, ta)])[1].values()) \
        == RAW_PRODUCTS


# ---------------------------------------------------------------------------
# rational polynomial product and monomial substitution
# ---------------------------------------------------------------------------

QQ = QQBase()


def termwise_rational_mul(ta, tb, cap=None):
    """The product of two QQBase term dicts by Fraction arithmetic, one
    product and one sum per coefficient pair, in first-occurrence key
    order; terms above T-degree cap dropped, zero sums dropped."""
    out = {}
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if cap is None or m[0] <= cap:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _matches_termwise(product, ta, tb):
    got, want = product(ta, tb), termwise_rational_mul(ta, tb)
    return (list(got) == list(want)
            and all(type(c) is Fraction and c == want[m]
                    for m, c in got.items()))


# small numerators and exponents, so products often land on one
# monomial and cancel there; L exponents are signed
_fractions = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                       st.integers(1, 12))
_tul = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(-3, 3))


@st.composite
def rational_polys(draw, max_terms=6):
    """A QQBase Poly in (T, U, L), possibly without terms."""
    monos = draw(st.lists(_tul, max_size=max_terms, unique=True))
    return Poly(QQ, 3, {m: draw(_fractions) for m in monos})


@settings(max_examples=200, deadline=None)
@given(rational_polys(), rational_polys())
def test_rational_product_matches_termwise(a, b):
    # same keys in the same order, the same Fractions; an empty operand
    # gives no term, and a product that cancels leaves none
    assert _matches_termwise(_rational_product, a.terms, b.terms)
    assert _matches_termwise(_rational_product, a.terms,
                             (b - b).terms)
    assert (a * b).terms == termwise_rational_mul(a.terms, b.terms)


def test_rational_product_cancels_to_zero():
    # (T/2 + U/(3L))(T/2 - U/(3L)) = T^2/4 - U^2/(9L^2): the two cross
    # products cancel and their monomial is dropped
    T, U = Poly.var(QQ, 3, 0), Poly.var(QQ, 3, 1)
    t = T.scale(Fraction(1, 2))
    u = U * Poly(QQ, 3, {(0, 0, -1): Fraction(1, 3)})
    got = ((t + u) * (t - u)).terms
    assert got == {(2, 0, 0): Fraction(1, 4), (0, 2, -2): Fraction(-1, 9)}
    assert not (T * (u - u)).terms and not ((u - u) * T).terms


def _divides_by_da_alone(ta, tb):
    """The kernel with each sum divided by d_a alone, not d_a d_b: its
    terms times d_b, the lcm of the denominators of tb."""
    db = lcm(*(c.denominator for c in tb.values())) if tb else 1
    return {m: c * db for m, c in _rational_product(ta, tb).items()}


@settings(max_examples=100, deadline=None)
@given(rational_polys(), rational_polys())
def test_rational_product_oracle_rejects_a_wrong_denominator(a, b):
    # negative control: the oracle comparison fails the mutated kernel
    # whenever the second operand has a denominator and the product a term
    db = lcm(*(c.denominator for c in b.terms.values())) if b.terms else 1
    wrong = db > 1 and bool(termwise_rational_mul(a.terms, b.terms))
    assert _matches_termwise(_divides_by_da_alone, a.terms,
                             b.terms) is not wrong
    T = Poly.var(QQ, 3, 0)
    half = T.scale(Fraction(1, 2))
    assert not _matches_termwise(_divides_by_da_alone, T.terms, half.terms)


@settings(max_examples=150, deadline=None)
@given(rational_polys(8), rational_polys(8), st.integers(0, 8))
def test_capped_product_is_the_truncated_product(a, b, D):
    # the T-degree cap of artin_hasse._mul drops exactly the terms of the
    # uncapped product above D, and forms none of them
    want = {m: c for m, c in (a * b).terms.items() if m[0] <= D}
    got = ah_mul(a, b, D)
    assert got.terms == want
    assert got.terms == termwise_rational_mul(a.terms, b.terms, D)


def _rational_images(data, nv_in, nv_out):
    """One image per variable: zero, a constant, a term with a non-unit
    coefficient, or a term with a negative exponent."""
    def image(kind):
        c = data.draw(_fractions)
        m = [data.draw(st.integers(0, 2)) for _ in range(nv_out)]
        if kind == "zero":
            return Poly.zero(QQ, nv_out)
        if kind == "constant":
            return Poly.const(QQ, nv_out, c)
        if kind == "negative":
            m[data.draw(st.integers(0, nv_out - 1))] = data.draw(
                st.integers(-3, -1))
        return Poly(QQ, nv_out, {tuple(m): c})

    kinds = st.sampled_from(["zero", "constant", "term", "negative"])
    return [image(data.draw(kinds)) for _ in range(nv_in)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_subst_matches_horner(data):
    nv_in, nv_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * nv_in),
                               max_size=8, unique=True))
    poly = Poly(QQ, nv_in, {m: data.draw(_fractions) for m in monos})
    images = _rational_images(data, nv_in, nv_out)
    const = lambda c: Poly.const(QQ, nv_out, c)  # noqa: E731
    got = poly.subst(images)
    assert got.nvars == nv_out
    assert got.terms == horner(poly, images, const).terms
    assert all(type(c) is Fraction and c for c in got.terms.values())


def test_monomial_subst_collisions_and_zero_images():
    # T^t U^u L^l at (T, U, U) lands on T^t U^(u+l): the terms of one
    # total degree meet and may cancel; at (T, U, 0) every term with an
    # L drops out
    T, U, L = (Poly.var(QQ, 3, i) for i in range(3))
    poly = (U * T + L * T).scale(Fraction(1, 2)) - (U * L).scale(
        Fraction(2, 3)) + L * L
    assert poly.subst([T, U, U]).terms == {
        (1, 1, 0): Fraction(1), (0, 2, 0): Fraction(1, 3)}
    assert poly.subst([T, U, Poly.zero(QQ, 3)]).terms == {
        (1, 1, 0): Fraction(1, 2)}
    assert not (U * T - T * L).subst([T, U, U]).terms
    with pytest.raises(ZeroDivisionError):
        Poly(QQ, 1, {(-1,): Fraction(1)}).subst([Poly.zero(QQ, 1)])


def test_laurent_substitution_takes_the_exponent_map(monkeypatch):
    # one-term images of a Laurent polynomial, themselves with negative
    # exponents, go through _monomial_subst and never reach horner,
    # which refuses negative exponents
    monkeypatch.setattr(poly_module, "horner", None)
    T, U = Poly.var(QQ, 2, 0), Poly.var(QQ, 2, 1)
    poly = Poly(QQ, 2, {(-1, 2): Fraction(3), (2, -3): Fraction(-1, 2),
                        (0, 0): Fraction(5)})
    images = [T.scale(Fraction(2)), Poly(QQ, 2, {(1, -1): Fraction(-3)})]
    # 3 (2T)^(-1) (-3 T/U)^2 + (-1/2) (2T)^2 (-3 T/U)^(-3) + 5
    assert poly.subst(images).terms == {
        (1, -2): Fraction(27, 2), (-1, 3): Fraction(2, 27),
        (0, 0): Fraction(5)}


# ---------------------------------------------------------------------------
# lazy single-pass normal form
# ---------------------------------------------------------------------------

def stepwise_normal_form(poly, relations):
    """The rewriting loop normal_form replaced: negate each relation's
    lower terms, then rewrite every monomial at or above a leading power
    term by term, one base product and sum per reducer term, until no
    monomial is left to rewrite.

    One change: a sum that cancels to a structural zero stays until the
    end, as in normal_form.  The loop used to delete it at once, which
    lost the precision of its earlier products, and raised KeyError when
    that monomial was still waiting to be rewritten."""
    base = poly.base
    nv = poly.nvars
    degs = [None if r is None else r.degree_in(i)
            for i, r in enumerate(relations)]
    reducers = []
    for i, r in enumerate(relations):
        if r is None:
            reducers.append(None)
        else:
            lead = tuple(degs[i] if j == i else 0 for j in range(nv))
            rest = Poly(base, nv,
                        {m: c for m, c in r.terms.items() if m != lead})
            reducers.append(-rest)  # var_i^{d_i} == reducers[i]

    terms = dict(poly.terms)
    changed = True
    while changed:
        changed = False
        for i in reversed(range(nv)):
            d = degs[i]
            if d is None:
                continue
            hot = [m for m in terms if m[i] >= d]
            if not hot:
                continue
            changed = True
            for m in hot:
                c = terms.pop(m)
                rem = m[:i] + (m[i] - d,) + m[i + 1:]
                for rm, rc in reducers[i].terms.items():
                    mm = tuple(a + b for a, b in zip(rem, rm))
                    cc = c * rc
                    terms[mm] = terms[mm] + cc if mm in terms else cc
    return Poly(base, nv, terms)


def nf_terms(poly, residues=False):
    """{monomial: (digits, prec)}, or {monomial: residue} of the nonzero
    residues when the coefficients are taken in F_p = R/pi."""
    if residues:
        out = {m: coeff_mod_pi(c) for m, c in poly.terms.items()}
        return {m: r for m, r in out.items() if r}
    return {m: (c.digits, c.prec) for m, c in poly.terms.items()}


@st.composite
def triangular_systems(draw):
    """(poly, relations, residues) over ExactBase at p in {3, 5, 7}, M in
    {2, 3, 8, 12}: 1-3 variables, each with no relation or a monic one
    of degree 1-3 whose lower terms use variables j <= i, its leading
    one often at a lower precision; mixed precisions.  One draw in five
    (residues true) puts every coefficient at precision 1, a system over
    the residue field."""
    p = draw(st.sampled_from(PRIMES))
    nv = draw(st.integers(1, 3))
    R = ring(p, draw(st.sampled_from((2, 3, 8, 12))))
    base = ExactBase(R)
    residues = draw(st.integers(0, 4)) == 0
    precs = (st.just(1) if residues else
             st.one_of(st.just(R.full_prec), st.integers(0, R.full_prec)))

    def coeff():
        return R.from_digits(draw(digit_vectors(R)), draw(precs))

    def one():
        # one at its precision t: 1, or 1 + pi^t when 0 < t < e.  At t = 0
        # that is 2, which is one only vacuously: TriangularRules raises
        # PrecisionError on it (tests/test_hopf.py)
        t = draw(precs)
        if 0 < t < R.e and draw(st.booleans()):
            return (R.one() + R.pi(t)).with_prec(t)
        return R.one().with_prec(t)

    relations = []
    for i in range(nv):
        if draw(st.integers(0, 3)) == 0:
            relations.append(None)
            continue
        d = draw(st.integers(1, 3))
        tail = (0,) * (nv - 1 - i)
        lower = draw(st.lists(
            st.tuples(*[st.integers(0, 2)] * i, st.integers(0, d - 1)),
            max_size=4, unique=True))
        terms = {m + tail: coeff() for m in lower}
        terms[(0,) * i + (d,) + tail] = one()
        relations.append(Poly(base, nv, terms))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 5)] * nv),
                          max_size=6, unique=True))
    return Poly(base, nv, {m: coeff() for m in monos}), relations, residues


@settings(max_examples=200, deadline=None)
@given(triangular_systems())
def test_normal_form_matches_stepwise(system):
    poly, relations, residues = system
    got = normal_form(poly, relations)
    want = stepwise_normal_form(poly, relations)
    assert nf_terms(got, residues) == nf_terms(want, residues)
    rules = TriangularRules(poly.base, poly.nvars, relations)
    assert nf_terms(normal_form(poly, rules)) == nf_terms(got)
    for i, r in enumerate(relations):
        if r is not None:
            assert got.degree_in(i) < r.degree_in(i)


@settings(max_examples=120, deadline=None)
@given(triangular_systems())
def test_normal_forms_hold_no_structural_zero(system):
    # poly times each relation cancels on many monomials as it is reduced
    poly, relations, _ = system
    assert _no_structural_zero(normal_form(poly, relations))
    for r in relations:
        if r is not None:
            assert _no_structural_zero(normal_form(poly * r, relations))


def test_normal_form_many_products_on_one_monomial(monkeypatch):
    # x1 = -sum_{k<n} top x0^k rewrites sum_{j<n} c x0^j x1, with -c all
    # p^M-1: n = RAW_PRODUCTS + 44 products top*top land on x0^(n-1).
    # Each adds e (p^M-1)^2 to slot e-1, so the widest sum reduced is
    # exactly RAW_PRODUCTS of them: the sum is reduced early, not later.
    R, n = ring(3, 2), RAW_PRODUCTS + 44
    base = ExactBase(R)
    top = R.from_digits([R.pM - 1] * R.e)
    c = -top
    rel = Poly.var(base, 2, 1) + Poly(base, 2, {(k, 0): top for k in range(n)})
    poly = Poly(base, 2, {(j, 1): c for j in range(n)})
    widest, reduce_raw = [], R._reduce_raw

    def spy(x):
        widest.append(R._unpack(x, R.e)[-1])
        return reduce_raw(x)

    monkeypatch.setattr(R, "_reduce_raw", spy)
    got = normal_form(poly, [None, rel])
    monkeypatch.undo()
    square = schoolbook_mul(top, top)[0]
    want = {(k, 0): (tuple(d * (n - abs(n - 1 - k)) % R.pM for d in square),
                     R.full_prec) for k in range(2 * n - 1)}
    assert nf_terms(got) == {m: v for m, v in want.items() if any(v[0])}
    assert max(widest) == RAW_PRODUCTS * R.e * (R.pM - 1) ** 2


def test_normal_form_when_a_waiting_monomial_cancels():
    # x1^4 mod x1^2 + 2 x0 x1 + 4 x0^2 over F_7 (R at p = 7, precision
    # 1): the rewrite of x0 x1^3 cancels x0^2 x1^2 while it waits to be
    # rewritten, and x0^4 cancels too; the stepwise loop raised KeyError
    # here
    R = ring(7, 2)
    base, one = ExactBase(R), R.one().with_prec(1)
    x0, x1 = Poly.var(base, 2, 0, one), Poly.var(base, 2, 1, one)
    rel = (x1 * x1 + x0.scale(R.from_int(2)) * x1
           + (x0 * x0).scale(R.from_int(4)))
    got = normal_form(x1 ** 4, [None, rel])
    assert nf_terms(got, residues=True) == {(3, 1): 1}
    assert list(got.terms) == [(3, 1)]


def test_normal_form_returns_a_normal_input_as_it_is(count_calls):
    # below x0^2 and x1^3 (mod x0^2 - 1, x1^3 - x0 x1 + 1) no term is
    # rewritten, so none is reduced again; x0^2 x1 still is
    R = ring(5, 8)
    base = ExactBase(R)
    x0, x1 = Poly.var(base, 2, 0), Poly.var(base, 2, 1)
    one = Poly.one(base, 2)
    rules = TriangularRules(base, 2, [x0 * x0 - one, x1 ** 3 - x0 * x1 + one])
    c = R.from_digits(range(1, R.e + 1), 7)
    poly = Poly(base, 2, {(1, 2): c, (0, 0): R.one(), (1, 0): -c})
    calls = count_calls(R, "_reduce_raw")
    got = rules.reduce(poly)
    assert terms_of(got) == terms_of(poly) and not calls
    assert nf_terms(rules.reduce(poly + x0 * x0 * x1)) == nf_terms(
        poly + x1)
    assert calls
    with pytest.raises(ValueError, match="different rings"):
        rules.reduce(Poly.var(base, 3, 0))


def test_normal_form_needs_an_exact_base():
    x = Poly.var(QQBase(), 1, 0)
    with pytest.raises(TypeError, match="normal_form over"):
        normal_form(x * x, [x * x - Poly.one(QQBase(), 1)])


def test_normal_form_rejects_systems_not_triangular_and_monic():
    # the leading coefficient used to be taken as 1 whatever it was:
    # x^2 mod 2x^2 - 1 came out as 1
    R = ring(3, 12)
    base = ExactBase(R)
    x, y = Poly.var(base, 2, 0), Poly.var(base, 2, 1)
    one = Poly.one(base, 2)
    near_one = (R.one() + R.pi(5)).with_prec(6)
    bad = [("not monic", [(x * x).scale(R.from_int(2)) - one, None]),
           ("not monic", [(x * x).scale(near_one) - one, None]),
           ("not monic", [None, x * y - one]),
           ("not triangular", [None, y * y + y * y * x + x]),
           ("not triangular", [x * x + y, None]),
           ("3 relations for 2 variables", [None, None, None])]
    for message, rels in bad:
        with pytest.raises(ValueError, match=message):
            normal_form(x * x, rels)
    # 1 + 3*5 is one mod pi^6, since v(15) = v(3) = e = 6
    lead = R.from_int(16).with_prec(6)
    rel = Poly(base, 2, {(2, 0): lead, (0, 0): R.from_int(-1)})
    assert nf_terms(normal_form(x * x, [rel, None])) == {
        (0, 0): (R.one().digits, R.full_prec)}


# ---------------------------------------------------------------------------
# substitution engine
# ---------------------------------------------------------------------------

SUBST_RING = make_ring(3, 4)
BASE = ExactBase(SUBST_RING)


def _coeff(data, full):
    R = SUBST_RING
    digits = data.draw(digit_vectors(R))
    prec = R.full_prec if full else data.draw(st.integers(0, R.full_prec))
    return R.from_digits(digits, prec)


def _poly(data, nvars, max_terms, max_exp, full):
    monos = data.draw(st.lists(
        st.tuples(*[st.integers(0, max_exp)] * nvars),
        max_size=max_terms, unique=True))
    return Poly(BASE, nvars, {m: _coeff(data, full) for m in monos})


def _same_poly(a, b, check_prec):
    assert a.nvars == b.nvars
    assert set(a.terms) == set(b.terms)
    for m, c in a.terms.items():
        assert c.digits == b.terms[m].digits
        if check_prec:
            assert c.prec == b.terms[m].prec


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans())
def test_horner_matches_naive_on_polys(data, full):
    nv_in = data.draw(st.integers(1, 3))
    nv_out = data.draw(st.integers(1, 3))
    # exponents up to 5 in at most 5 terms: gaps between exponents
    poly = _poly(data, nv_in, 5, 5, full)
    images = [_poly(data, nv_out, 3, 2, full) for _ in range(nv_in)]
    const = lambda c: Poly.const(BASE, nv_out, c)  # noqa: E731
    got = poly.subst(images)
    _same_poly(got, naive_subst(poly, images, const), check_prec=full)


def _renamed(poly, perm):
    """poly with variable i renamed perm[i]."""
    out = {}
    for m, c in poly.terms.items():
        mm = [0] * poly.nvars
        for i, k in enumerate(m):
            mm[perm[i]] = k
        out[tuple(mm)] = c
    return Poly(poly.base, poly.nvars, out)


def _same_value(a, b, check_prec):
    """Same den, term set and digits, and precisions when asked."""
    assert getattr(a, "den", None) == getattr(b, "den", None)
    _same_poly(getattr(a, "num", a), getattr(b, "num", b), check_prec)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_horner_variable_order_does_not_matter(data, full, localized):
    # images of 0-4 terms, so sizes differ and tie; at full precision
    # every order gives the same precisions too
    nv_in = data.draw(st.integers(1, 3))
    poly = _poly(data, nv_in, 5, 4, full)
    if localized:
        pres = _localized_pres()
        den = st.tuples(st.integers(0, 2), st.integers(0, 2))
        images = [LocalizedElement(pres, _poly(data, 2, 4, 2, full),
                                   data.draw(den)) for _ in range(nv_in)]
        const = lambda c: LocalizedElement(  # noqa: E731
            pres, Poly.const(BASE, 2, c))
    else:
        images = [_poly(data, 2, 4, 2, full) for _ in range(nv_in)]
        const = lambda c: Poly.const(BASE, 2, c)  # noqa: E731
    perm = data.draw(st.permutations(range(nv_in)))
    renamed = [None] * nv_in
    for i, im in enumerate(images):
        renamed[perm[i]] = im
    got = horner(poly, images, const)
    _same_value(got, horner(_renamed(poly, perm), renamed, const), full)
    _same_value(got, index_order_horner(poly, images, const), full)


def test_horner_zero_polynomial_and_constant():
    images = [Poly.var(BASE, 2, 1), Poly.var(BASE, 2, 0)]
    assert not Poly.zero(BASE, 2).subst(images).terms
    c = SUBST_RING.from_int(5)
    got = Poly.const(BASE, 2, c).subst(images)
    assert list(got.terms) == [(0, 0)] and got.terms[(0, 0)] == c


def test_horner_gap_exponents():
    # x^7 + x^2 at x = 1 + y: the gaps 5 and 2 are bridged by repeated
    # products, no stored powers
    R = SUBST_RING
    x = Poly.var(BASE, 1, 0)
    poly = Poly(BASE, 1, {(7,): R.one(), (2,): R.from_int(3)})
    img = Poly.one(BASE, 1) + x
    const = lambda c: Poly.const(BASE, 1, c)  # noqa: E731
    _same_poly(poly.subst([img]), naive_subst(poly, [img], const), True)


def test_horner_rejects_negative_exponents():
    # x^(-1) at 1 + x used to evaluate to 1, silently; the negative
    # exponent may sit in the outer or an inner variable, over QQBase or
    # ExactBase
    x = Poly.var(QQ, 1, 0)
    one_plus_x = Poly.one(QQ, 1) + x
    laurent = Poly(QQ, 1, {(-1,): Fraction(1)})
    const = lambda c: Poly.const(QQ, 1, c)  # noqa: E731
    for poly in (laurent, laurent + x):
        with pytest.raises(ValueError, match="negative exponent"):
            poly.subst([one_plus_x])
        with pytest.raises(ValueError, match="negative exponent"):
            horner(poly, [one_plus_x], const)
    R = SUBST_RING
    y = Poly.var(BASE, 2, 1)
    inner = Poly(BASE, 2, {(3, -2): R.one(), (0, 1): R.from_int(2)})
    with pytest.raises(ValueError, match="negative exponent"):
        inner.subst([y + y * y, Poly.one(BASE, 2) + y])


def _localized_pres():
    R = SUBST_RING
    x, y = Poly.var(BASE, 2, 0), Poly.var(BASE, 2, 1)
    u1 = Poly.one(BASE, 2) + x.scale(R.pi())
    u2 = Poly.one(BASE, 2) + y.scale(R.pi(2)) + (x * y).scale(R.pi())
    return HopfPresentation(base=BASE, gens=("x", "y"),
                            relations=(None, None), comult=(), counit=(),
                            antipode=(), units=(UnitSpec(u1), UnitSpec(u2)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans())
def test_horner_matches_naive_on_localized(data, full):
    pres = _localized_pres()
    nv_in = data.draw(st.integers(1, 3))
    poly = _poly(data, nv_in, 4, 4, full)
    den = st.tuples(st.integers(0, 2), st.integers(0, 2))
    images = [LocalizedElement(pres, _poly(data, 2, 3, 2, full),
                               data.draw(den)) for _ in range(nv_in)]
    const = lambda c: LocalizedElement(  # noqa: E731
        pres, Poly.const(BASE, 2, c))
    got = horner(poly, images, const)
    want = naive_subst(poly, images, const)
    assert got.den == want.den
    _same_poly(got.num, want.num, check_prec=full)
    assert got.eq(want)


# ---------------------------------------------------------------------------
# digit-wise division by p^r
# ---------------------------------------------------------------------------

def _outcome(fn):
    try:
        return fn()
    except (ValuationError, PrecisionError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(PRECISIONS), st.data())
def test_divide_p_power_against_divide_exact(p, M, data):
    R = ring(p, M)
    r = data.draw(st.integers(0, M))
    # multiples of p^r (divisible), or arbitrary elements (often not)
    quotient = R.from_digits(data.draw(digit_vectors(R)))
    x = data.draw(st.sampled_from([
        quotient.scale(p ** r), quotient, quotient.scale(p ** (r + 1))]))
    x = x.with_prec(data.draw(st.integers(0, R.full_prec)))
    got = _outcome(lambda: x.divide_p_power(r))
    want = _outcome(lambda: x.divide_exact(R.from_int(p ** r)))
    if isinstance(want, type):
        assert got is want
        return
    assert got.prec == want.prec == x.prec - r * R.e
    assert (got - want).is_zero()
    # round trip: z * p^r = x at the dividend's precision
    back = got.scale(p ** r) - x
    assert isinstance(back.valuation(), IndeterminateAtPrecision)


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)])
def test_times_p_power_gains_k_e_digits(p, M):
    # the digits of x.scale(p^k), known k e digits further than x, up to
    # full precision
    R = ring(p, M)
    for k, prec in ((1, R.e + 1), (2, 3), (M - 1, R.full_prec - 1)):
        x = R.from_digits([(7919 * i + k) % R.pM
                           for i in range(R.e)]).with_prec(prec)
        got = x.times_p_power(k)
        assert got.digits == x.scale(p ** k).digits
        assert got.prec == min(R.full_prec, prec + k * R.e)


def test_divide_p_power_errors():
    R = ring(3, 12)
    with pytest.raises(ValuationError):
        R.pi().divide_p_power(1)
    with pytest.raises(PrecisionError):
        R.from_int(3).with_prec(R.e).divide_p_power(2)
    with pytest.raises(ValuationError):
        R.zero().divide_p_power(R.M)


# ---------------------------------------------------------------------------
# pi-adic digit expansion in blocks of e
# ---------------------------------------------------------------------------

def stepwise_digits(x, t):
    """The canonical pi-adic digits of x, one _div_pi step per digit."""
    if t > x.prec:
        raise PrecisionError(f"requested {t} digits at precision {x.prec}")
    r, cur, out = x.ring, x, []
    for _ in range(t):
        d = cur.digits[0] % r.p
        out.append(d)
        cur = (cur - r.from_int(d).with_prec(cur.prec))._div_pi()
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from((2, 3, 8, 12)), st.data())
def test_block_digit_expansion_matches_stepwise(p, M, data):
    R = ring(p, M)
    x = R.from_digits(data.draw(digit_vectors(R)),
                      data.draw(st.integers(0, R.full_prec)))
    e = R.e
    for t in (0, 1, e - 1, e, e + 1, 2 * e, x.prec, x.prec + 1):
        got = _outcome(lambda: x.pi_digit_expansion(t))
        want = _outcome(lambda: stepwise_digits(x, t))
        assert got == want, (t, x)
        if t > x.prec:
            assert got is PrecisionError
        else:
            assert len(got) == t


def test_block_digit_expansion_full_precision_and_p_over_pi():
    for p, M in ((3, 2), (3, 12), (5, 8), (7, 3)):
        R = ring(p, M)
        assert (R.p_over_pi_e() * R.pi(R.e) - R.from_int(p)).is_zero()
        assert R.p_over_pi() == R.p_over_pi_e() * R.pi(R.e - 1)
        for x in (R.from_digits([R.pM - 1] * R.e), R.from_int(p ** (M - 1)),
                  R.zero(), -R.pi(R.e - 1)):
            n = R.full_prec
            assert x.pi_digit_expansion(n) == stepwise_digits(x, n)
            assert x.reduce_mod(n).digits == stepwise_digits(x, n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from((2, 3, 8, 12)), st.data())
def test_mod_pi_matches_reduced_lift(p, M, data):
    # the representative mod pi^t, and the PrecisionError below pi^t,
    # are those of the QuotElement round trip on both sides of t = e
    R = ring(p, M)
    x = R.from_digits(data.draw(digit_vectors(R)),
                      data.draw(st.integers(0, R.full_prec)))
    e = R.e
    for t in (0, 1, 2, e - 1, e, e + 1, 2 * e, x.prec, x.prec + 1):
        got = _outcome(lambda: x.mod_pi(t))
        want = _outcome(lambda: x.reduce_mod(t).lift().with_prec(t))
        assert got == want, (t, x)


def test_negative_levels_are_refused():
    x = ring(3, 12).pi()
    for t in (-1, -7):
        with pytest.raises(ValueError):
            x.reduce_mod(t)
        with pytest.raises(ValueError):
            x.mod_pi(t)


# ---------------------------------------------------------------------------
# the ring memo of powers and prepared divisors
# ---------------------------------------------------------------------------

MEMO_RINGS = ((3, 12), (3, 2), (5, 8), (5, 3))


def uncached(p, M):
    """A fresh ring whose memo is the computation it stands for, so the
    power of an inverse inside `_power` is computed again too."""
    R = make_ring(p, M)
    R._memo = R._unary
    return R


def _result(fn):
    """(digits, prec) of fn(), or the type of the error it raises."""
    try:
        x = fn()
    except (ValuationError, PrecisionError, ArithmeticError) as exc:
        return type(exc)
    return x.digits, x.prec


@st.composite
def memo_operands(draw, R):
    """A structural zero, pi^w times a unit (0 <= w <= e + 2) or random
    digits, at full or at a reduced precision."""
    kind = draw(st.sampled_from(("zero", "pi_unit", "any")))
    digits = draw(digit_vectors(R))
    if kind == "zero":
        x = R.zero()
    elif kind == "pi_unit":
        unit = R.from_digits([draw(st.integers(1, R.p - 1))] + digits[1:])
        x = R.pi(draw(st.integers(0, R.e + 2))) * unit
    else:
        x = R.from_digits(digits)
    return x.with_prec(draw(st.one_of(st.just(R.full_prec),
                                      st.integers(0, R.full_prec))))


def _memo_mismatches(R, U, xs, ns, ys):
    """Every power x ** n and division y / x on R, each asked twice (a
    miss, then a hit) and once more from a copy of x, that differs from
    the uncached code (`_power`, `_divisor`) on the ring U in digits,
    precision or error."""
    def on(S, x):
        return RingElement(S, x.P, x.prec)

    out = []
    for x in xs:
        copies = (x, x, RingElement(R, x.P, x.prec))
        for n in ns:
            want = _result(lambda: on(U, x)._power(n))
            out += [("pow", x, n) for c in copies
                    if _result(lambda: c ** n) != want]
        for y in ys:
            want = _result(lambda: on(U, x)._divisor()(on(U, y)))
            out += [("div", x, y) for c in copies
                    if _result(lambda: c.divisor()(y)) != want]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MEMO_RINGS), st.data())
def test_memo_powers_match_the_uncached_code(pm, data):
    # the module's shared rings: their memos already hold what earlier
    # tests put there
    R, U = ring(*pm), uncached(*pm)
    xs = [data.draw(memo_operands(R)) for _ in range(3)]
    ns = data.draw(st.lists(st.integers(-4, 12), min_size=1, max_size=5))
    assert _memo_mismatches(R, U, xs, ns + [0, 1, R.p], ()) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MEMO_RINGS), st.data())
def test_memo_divisors_match_the_uncached_code(pm, data):
    # dividends: multiples of the divisor (divisible unless its precision
    # is too low) and arbitrary elements (often not divisible)
    R, U = ring(*pm), uncached(*pm)
    d = data.draw(memo_operands(R))
    zs = [data.draw(memo_operands(R)) for _ in range(2)]
    ys = [d * z for z in zs] + zs
    assert _memo_mismatches(R, U, [d], (), ys) == []


def _memo_without_prec(R):
    """A memo of R keyed (P, n) alone: wrong, for elements of the same
    digits at different precisions."""
    table = {}

    def memo(P, prec, n=None):
        if (P, n) not in table:
            table[P, n] = R._unary(P, prec, n)
        return table[P, n]
    return memo


def test_memo_keyed_without_precision_fails_the_oracle():
    # negative control: the oracle tells a memo that drops prec from its
    # key from the right one, on powers and on divisors
    for pm in ((3, 12), (5, 8)):
        R, U = make_ring(*pm), uncached(*pm)
        x = R.one() + R.pi()
        xs, ys = [x, x.with_prec(5)], [R.pi(3)]
        assert _memo_mismatches(R, U, xs, (3, -2), ys) == []
        R._memo = _memo_without_prec(R)
        assert {kind for kind, *_ in _memo_mismatches(
            R, U, xs, (3, -2), ys)} == {"pow", "div"}


def test_memo_stays_within_its_bound():
    # past MEMO_ENTRIES distinct powers the table stays full, the least
    # recently used entries leave it, and asked again they are computed
    # again, with the same digits and precision
    R, U = make_ring(3, 12), uncached(3, 12)
    xs = [R.from_int(k) for k in range(2, dvr.MEMO_ENTRIES + 102)]
    for x in xs:
        x ** 3
        assert R._memo.cache_info().currsize <= dvr.MEMO_ENTRIES
    assert R._memo.cache_info().currsize == dvr.MEMO_ENTRIES
    misses = R._memo.cache_info().misses
    assert _memo_mismatches(R, U, xs[:50] + xs[-50:], (3,), ()) == []
    assert R._memo.cache_info().misses == misses + 50
    assert R._memo.cache_info().currsize == dvr.MEMO_ENTRIES


def test_memo_belongs_to_its_ring():
    # a fresh ring starts cold whatever another ring holds, and a ring
    # that is dropped is freed with its memo
    import gc
    import weakref
    R = make_ring(3, 12)
    R.zeta2 ** 5
    R.pi(2).divisor()
    assert R._memo.cache_info().currsize == 2
    assert make_ring(3, 12)._memo.cache_info().currsize == 0
    dropped = weakref.ref(R)
    del R
    gc.collect()
    assert dropped() is None


# ---------------------------------------------------------------------------
# Witt ghosts and recovery along Frobenius power ladders
# ---------------------------------------------------------------------------

def direct_ghost(coords, r):
    """Phi_r = sum_i p^i c_i^(p^(r-i)), every power computed with **."""
    ring = coords[0].ring
    acc = ring.zero()
    for i, c in enumerate(coords[:r + 1]):
        acc = acc + (c ** (ring.p ** (r - i))).scale(ring.p ** i)
    return acc


def direct_recover(ring, ghs):
    """Coordinates from ghosts, every power computed with **; p^k times
    an element known mod pi^prec is known mod pi^(prec + k e)."""
    p, coords = ring.p, []
    for r, g in enumerate(ghs):
        acc = g
        for k, c in enumerate(coords):
            x = c ** (p ** (r - k))
            acc = acc - x.scale(p ** k).with_prec(x.prec + k * ring.e)
        coords.append(acc.divide_p_power(r))
    return coords


@st.composite
def witt_vectors(draw, ring, t, min_len=0):
    """Over R (t = 0): coordinates that are structural zeros, zeros at a
    low precision, pi-powers or random digits, each at its own
    precision.  Over R/pi^t: zero or random canonical digits."""
    coords = []
    for _ in range(draw(st.integers(min_len, 4))):
        kind = draw(st.sampled_from(("zero", "low", "pi", "any")))
        if t:
            digits = [0] * t if kind == "zero" else draw(st.lists(
                st.integers(0, ring.p - 1), min_size=t, max_size=t))
            coords.append(QuotElement(ring, t, digits))
            continue
        if kind == "zero":
            c = ring.zero()
        elif kind == "low":
            c = ring.zero(draw(st.integers(0, ring.e)))
        elif kind == "pi":
            c = ring.pi(draw(st.integers(0, ring.e - 1))).scale(
                draw(nonzero_digits(ring)))
        else:
            c = ring.from_digits(draw(digit_vectors(ring)))
        coords.append(c.with_prec(draw(st.one_of(
            st.just(ring.full_prec), st.integers(0, ring.full_prec)))))
    return WittVector(ring, t, coords)


def _digits_prec(xs):
    return [(x.digits, x.prec) for x in xs]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(((3, 2), (3, 8), (3, 12), (5, 3))),
       st.sampled_from((0, 0, 1, 3)), st.data())
def test_ghosts_match_direct_formula(pm, t, data):
    R = ring(*pm)
    w = data.draw(witt_vectors(R, t))
    length = data.draw(st.integers(1, 4 if R.p == 3 else 3))
    coords = w.lift_coords(length)
    got = ghosts(w, length)
    assert _digits_prec(got) == _digits_prec(
        [direct_ghost(coords, r) for r in range(length)])
    assert _digits_prec([ghost(w, r) for r in range(length)]) == \
        _digits_prec(got)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((3, 8), (3, 12), (5, 3))), st.data())
def test_recover_matches_direct_recovery(pm, data):
    R = ring(*pm)
    u, v = (data.draw(witt_vectors(R, 0, min_len=2)) for _ in range(2))
    length = data.draw(st.integers(2, 4 if R.p == 3 else 3))
    for combine in (lambda a, b: a + b, lambda a, b: a * b):
        ghs = [combine(a, b)
               for a, b in zip(ghosts(u, length), ghosts(v, length))]
        got = _outcome(lambda: _recover(R, [_resident(g) for g in ghs]))
        want = _outcome(lambda: direct_recover(R, ghs))
        if isinstance(want, type):
            assert got is want
        else:
            assert _digits_prec(got) == _digits_prec(want)


def test_zero_rungs_below_the_sum_precision_still_count():
    # A structurally zero coordinate adds nothing to a ghost sum, but one
    # known only mod pi^20 makes every later ghost known only mod pi^20.
    R = ring(3, 8)
    for zero, prec in ((R.zero(), R.full_prec), (R.zero(20), 20)):
        w = WittVector(R, 0, [R.pi(), zero, R.one()])
        got = ghosts(w, 3)
        assert [g.prec for g in got] == [R.full_prec, prec, prec]
        assert _digits_prec(got) == _digits_prec(
            [direct_ghost(w.lift_coords(3), r) for r in range(3)])
        assert _digits_prec(_recover(R, [_resident(g) for g in got])) == \
            _digits_prec(direct_recover(R, got))


def _memo_cases(R):
    """(t, coords) of integral and quotient vectors; one coordinate is a
    structural zero known only mod pi^20."""
    q = [QuotElement(R, 3, digits) for digits in ([1, 0, 2], [0, 1, 1],
                                                   [0, 0, 0], [2, 2, 1])]
    return [
        (0, [R.pi(), R.zero(20), R.one()]),
        (0, [R.pi(), R.zero(), R.one()]),
        (0, [R.from_digits(list(range(1, R.e + 1))), R.pi(3).with_prec(9),
             R.from_int(5), R.pi(2)]),
        (3, q[:2]),
        (3, q),
    ]


def test_ghost_prefixes_match_a_fresh_vector():
    # ghosts(w, 2) after ghosts(w, 4) reads the stored prefix, and
    # ghosts(w, 4) after ghosts(w, 2) replaces it; both give the digits
    # and precision of a fresh vector and of the direct formula
    R = ring(3, 8)
    for t, coords in _memo_cases(R):
        lifted = WittVector(R, t, coords).lift_coords(4)
        want = {n: _digits_prec([direct_ghost(lifted, r) for r in range(n)])
                for n in (2, 4)}
        for n in (2, 4):
            assert _digits_prec(ghosts(WittVector(R, t, coords), n)) == \
                want[n]
        for order in ((4, 2), (2, 4)):
            w = WittVector(R, t, coords)
            for n in order:
                assert _digits_prec(ghosts(w, n)) == want[n]


def test_ghosts_returns_a_copy_of_the_stored_prefix():
    R = ring(3, 8)
    for t, coords in _memo_cases(R):
        w = WittVector(R, t, coords)
        want = _digits_prec(ghosts(w, 3))
        got = ghosts(w, 3)
        got[0] = R.one()
        got.append(R.one())
        assert _digits_prec(ghosts(w, 3)) == want
        got = ghosts(w, 2)
        got.clear()
        assert _digits_prec(ghosts(w, 3)) == want


def test_kernel_sweep_product_count(count_calls):
    # The t = 2 kernel sweep of selftest criterion 7: 81 Witt sums over
    # the 9 kernel vectors, whose ghosts is_frobenius_kernel already
    # computed, on a fresh ring (the shared ones hold other tests'
    # powers).  At the working length K + 1 of t = 2 (one spare
    # coordinate), 208 rungs and 416 RingElement products read the
    # stored ghosts; 1,008 products recompute both operands' ghosts in
    # every sum, and 816 work at K + 2.  The recovery reads each rung
    # from the ring's memo of powers, not through RingElement.__pow__;
    # the memo already holds most rungs from the kernel test, so 36 of
    # the 416 products remain.  Every division by p^r in the recovery is
    # decided from the slot residues mod p^r, so none falls back to the
    # valuation scan of _check_divisible (233 calls when every division
    # scanned).
    R = make_ring(3, 12)
    pool = list(enumerate_quotient(R, 2))
    kernel = [w for w in (WittVector(R, 2, coords)
                          for coords in product(pool, repeat=2))
              if is_frobenius_kernel(w, R.zero(), 2)]
    assert len(kernel) == 9
    count = count_calls(RingElement, "__pow__", "__mul__", "_check_divisible")
    count_calls(R, "_memo")
    for u in kernel:
        for v in kernel:
            witt_add(u, v)
    assert count == Counter(_memo=208, __mul__=36, __pow__=0,
                            _check_divisible=0)
