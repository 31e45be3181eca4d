"""Exact arithmetic in a totally ramified extension R of Z_p.

R is represented concretely as Z[x]/(E(x), p^M) where E is an Eisenstein
polynomial of degree e and x maps to a uniformizer pi.  The default
("cyclotomic_p2") flavor takes E(x) = Phi_{p^2}(1+x), so that
zeta_{p^2} = 1 + pi lives in R, e = p(p-1), and the valuation satisfies
v(pi) = 1, v(p) = e.

Every element carries an absolute pi-adic precision: it is known modulo
pi^prec.  Binary operations take the min of the operand precisions;
exact division by y subtracts v(y).  Because the residue field is F_p
and the digit valuations e*v_p(c_i) + i are pairwise distinct mod e,
the valuation of a nonzero element is exact: it is e*k + i for the least
k at which some digit is not divisible by p^(k+1), and the lowest such
digit index i, both read from the slot residues mod p^(k+1).

An element is resident as one packed integer P = sum_i c_i 2^(W i): digit
c_i in [0, p^M) sits in slot i of W bits.  Ring operations act on P as a
whole, SIMD within a register: a slot-wise Barrett reduction, read off
each slot shifted right by bits(p^M) - 2 so that W stays narrow, and a
SWAR conditional subtract keep every slot canonical, and the product is
reduced by E with a polynomial Barrett step; no operation loops over the
digits.  A slot-wise Barrett step with the modulus p^r gives every
digit's residue mod p^r at once, which decides p^r-divisibility,
valuations and residue digits.  x = 0 mod pi^(qe + r) takes two such
steps (`RingDescriptor._vanishes`): the slots below r mod p^(q+1), the
others mod p^q.  `is_zero`, `eq_mod` and the divisibility check of
exact division decide that way; `valuation` reads the levels one by one.

Each ring keeps one bounded memo of its powers and prepared divisors
(`RingDescriptor._unary`), the one cache of ring arithmetic in the
package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (EisensteinError, InputError, PrecisionError,
                     ValuationError)

# Headroom of a slot, in bits: a sum of up to 2**HEADROOM_BITS raw packed
# products stays inside the range that RingDescriptor._reduce_raw reduces
# exactly.
HEADROOM_BITS = 8
RAW_PRODUCTS = 1 << HEADROOM_BITS

# Entries of each ring's memo of powers and prepared divisors
# (RingDescriptor._memo), least recently used first out.  A pass of the
# Witt kernel sweep at p = 3 asks for 1,155 distinct ones, the p = 3
# ring of the acceptance battery for 1,596.
MEMO_ENTRIES = 2048


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


@dataclass(frozen=True)
class IndeterminateAtPrecision:
    """Valuation of an element indistinguishable from 0 at level `level`.

    This is a value, not an error: it means v >= level but the exact
    valuation is unknown at the stored precision.
    """

    level: int


class RingDescriptor:
    """The d.v.r. R = Z_p[pi]/E(pi) with coefficient precision p^M.

    The uniformizer pi is the class of x; for the cyclotomic flavor it
    is lambda_(2) = zeta_{p^2} - 1 (the classification data m, n,
    a mod pi^n are relative to this choice).
    """

    def __init__(self, p: int, M: int, eisenstein_coeffs, flavor: str):
        # eisenstein_coeffs: a_0..a_{e-1} of the monic E(x) = x^e + sum a_i x^i
        self.p = p
        self.M = M
        self.pM = p ** M
        self.coeffs = tuple(c % self.pM for c in eisenstein_coeffs)
        self.e = len(self.coeffs)
        self.flavor = flavor
        self.full_prec = self.e * M
        self._validate_eisenstein()
        self._build_kernel()
        self._p_over_pi_e = None  # cached, built lazily (needs invert_unit)
        self._p_over_pi = None  # cached, built from _p_over_pi_e
        self._memo = lru_cache(maxsize=MEMO_ENTRIES)(self._unary)

    def _unary(self, P: int, prec: int, n: int | None = None):
        """x ** n, or x.divisor() when n is None, for x = RingElement(P,
        prec), computed without the memo.

        `_memo` is this function behind a least-recently-used table of
        MEMO_ENTRIES entries, keyed (P, prec, n) for a power and (P, prec)
        for a divisor.  Over R/pi^t the operands come from a finite set,
        so the same Frobenius rungs c -> c^p and the same divisors recur.
        A stored result is handed to every caller: a RingElement is
        immutable and a prepared divisor is a pure closure, so sharing
        one cannot change what a caller sees.  The table belongs to the
        ring, so a fresh ring starts cold and no global table keeps rings
        alive.  Worst case at p = 5, M = 12 (1,760-bit packed integers),
        key included: about 0.7 KB a power and 1 KB a prepared divisor,
        so at most 2 MB for a full table.
        """
        x = RingElement(self, P, prec)
        return x._divisor() if n is None else x._power(n)

    def _validate_eisenstein(self):
        p, e = self.p, self.e
        if e < 2:
            raise EisensteinError("degree must be at least 2")
        for i, a in enumerate(self.coeffs):
            if a % p != 0:
                raise EisensteinError(
                    f"coefficient of x^{i} is {a}, not divisible by {p}")
        if self.coeffs[0] % (p * p) == 0:
            raise EisensteinError(
                "constant term has p-valuation > 1")

    def _build_kernel(self):
        """Slot width and the constants of the packed kernel.

        A slot-wise Barrett reduction takes slots below 2^B, where
        B = bits(2e(p^M-1)^2) + HEADROOM_BITS.  A raw product adds less
        than e(p^M-1)^2 to a slot, so 2^B holds RAW_PRODUCTS of them and
        as much again for what the reduction by E adds.  The Barrett step
        reads a slot X pre-shifted by s = h - 2, h = bits(p^M): with
        m = floor(2^(B+1)/p^M), Y = X >> s < 2^(B-s) gives
        Y*m < 2^(2B-s+1)/p^M < 2^(2B-2h+4), so W = 2B - 2h + 4 keeps every
        slot's Y*m inside its own slot.
        """
        pM, e = self.pM, self.e
        h = pM.bit_length()
        B = (2 * e * (pM - 1) ** 2).bit_length() + HEADROOM_BITS
        W = 2 * B - 2 * h + 4
        self.W, self._B = W, B
        self._slot_mask = (1 << W) - 1
        self._low_bits = W * e
        self._low_mask = (1 << self._low_bits) - 1
        self._ones = ones = self._pack([1] * e)
        self._pM_slots = pM * ones
        # pre-shifted Barrett: the top B - s bits of each slot, times m,
        # shifted down by B + 1 - s; the quotient has B - s - 1 bits
        self._pre_shift = s = h - 2
        self._pre_mask = ((1 << (B - s)) - 1) * ones
        self._barrett = (1 << (B + 1)) // pM
        self._q_shift = B + 1 - s
        self._q_mask = ((1 << (B - s - 1)) - 1) * ones
        # SWAR compare: slot + 2^H - p^M has bit H set iff slot >= p^M
        self._ge_bit = h
        self._ge_bias = ((1 << h) - pM) * ones
        # polynomial Barrett by the monic E: mu = floor(x^(2e-2) / E)
        num = [0] * (2 * e - 2) + [1]
        mu = [0] * (e - 1)
        for k in range(e - 2, -1, -1):
            c = mu[k] = num[k + e] % pM
            for i, a in enumerate(self.coeffs):
                num[k + i] -= c * a
        self._mu = self._pack(mu)
        self._mu_shift = W * (e - 2)
        self._neg_e = self._pack([(-a) % pM for a in self.coeffs])
        # slot residues mod p^r, r = 0..M, for canonical slots (below
        # p^M): with K = W - bits(p^M) and m_r = floor(2^K/p^r), a slot X
        # gives X*m_r < 2^W, so one Barrett step stays inside the slot.
        # Built at first use: M + 1 biases of e*W bits grow with M^2
        self._mod_K = W - h
        self._mod_q_mask = ((1 << h) - 1) * ones
        self._mod_consts = [None] * (self.M + 1)
        # the two slot runs of a zero test mod pi^(qe + r): slots below r
        # and slots r..e-1, for r = 0..e-1
        self._runs = tuple(((1 << W * r) - 1,
                            self._low_mask ^ ((1 << W * r) - 1))
                           for r in range(e))

    def _pack(self, slots) -> int:
        """The slot values as one integer, value i in slot i of width W."""
        x, W = 0, self.W
        for d in reversed(slots):
            x = (x << W) | d
        return x

    def _unpack(self, x: int, n: int) -> tuple:
        """The first n slots of x."""
        W, mask = self.W, self._slot_mask
        return tuple((x >> (W * i)) & mask for i in range(n))

    def _canon(self, x: int) -> int:
        """Every slot of x (e slots, each below 2^B) reduced mod p^M.

        Barrett on the pre-shifted slot: with Y = X >> s (its B - s
        bits), q = floor(Y m / 2^(B+1-s)) is floor(X / p^M) or one less,
        as the error is below 2^s/p^M + 1/2 < 1; q has B - s - 1 bits,
        and its mask keeps out the next slot's Y m, which the shift brings
        in from bit B - s - 1 up.  That is one shift, mask, product, shift
        and mask for all slots; then one SWAR conditional subtract of p^M.
        """
        pM = self.pM
        x -= ((((x >> self._pre_shift) & self._pre_mask) * self._barrett
               >> self._q_shift) & self._q_mask) * pM
        return x - (((x + self._ge_bias) >> self._ge_bit) & self._ones) * pM

    def _slots_mod(self, x: int, r: int) -> int:
        """Every slot of a canonical packed x reduced mod p^r, 0 <= r <= M.

        A Barrett step with the modulus p^r and the shift K, on the slot
        itself (it is below p^M, so not pre-shifted as in _canon): q is
        floor(X / p^r) or one less, as X < 2^K; then one SWAR
        conditional subtract of p^r.
        """
        c = self._mod_consts[r]
        if c is None:
            d = self.p ** r
            b = d.bit_length()
            c = self._mod_consts[r] = ((1 << self._mod_K) // d, d, b,
                                       ((1 << b) - d) * self._ones)
        m, d, bit, bias = c
        x -= (((x * m) >> self._mod_K) & self._mod_q_mask) * d
        return x - (((x + bias) >> bit) & self._ones) * d

    def _vanishes(self, x: int, t: int) -> bool:
        """Whether a canonical packed x is 0 mod pi^t, t <= e*M.

        With t = qe + r, 0 <= r < e, digit i needs p-valuation
        ceil((t - i)/e): q + 1 below slot r and q from slot r on.  So x
        vanishes exactly when its slots below r vanish mod p^(q+1) and
        its other slots mod p^q: at most two slot-wise Barrett steps,
        whatever t is.  An empty run (r = 0, or q = 0 on the high run)
        is not reduced.  A level t <= 0 is vacuous: every x vanishes.
        """
        if t <= 0:
            return True
        q, r = divmod(t, self.e)
        low, high = self._runs[r]
        return not (r and self._slots_mod(x & low, q + 1)
                    or q and self._slots_mod(x & high, q))

    def _reduce_raw(self, x: int) -> int:
        """The canonical packed element of a sum x of at most RAW_PRODUCTS
        raw packed products (2e-1 slots each).

        Polynomial Barrett by E: the high slots C_h give the quotient
        Q = floor(C_h mu / x^(e-2)), exact since deg C_h <= e-2, and the
        remainder is the low slots plus Q*(-E_low), cut to e slots.  C_h
        and Q are first brought below 2 p^M slot-wise (the pre-shifted
        Barrett step of _canon without the final subtract), which leaves
        the result unchanged mod p^M.
        """
        high = x >> self._low_bits
        if high:
            s, pm, m = self._pre_shift, self._pre_mask, self._barrett
            qs, qm, pM = self._q_shift, self._q_mask, self.pM
            high -= ((((high >> s) & pm) * m >> qs) & qm) * pM
            q = (high * self._mu) >> self._mu_shift
            q -= ((((q >> s) & pm) * m >> qs) & qm) * pM
            x = (x & self._low_mask) + ((q * self._neg_e) & self._low_mask)
        return self._canon(x)

    def _negate(self, x: int) -> int:
        """The canonical packed element -x of a canonical packed x."""
        x = self._pM_slots - x  # slots in (0, p^M]
        return x - ((x + self._ge_bias) >> self._ge_bit & self._ones) * self.pM

    # -- packed operations on residents (packed x, precision prec) ----------

    def _add(self, x: int, y: int) -> int:
        """The canonical packed sum of canonical packed x and y."""
        x += y  # slots below 2 p^M: one conditional subtract
        return x - ((x + self._ge_bias) >> self._ge_bit & self._ones) * self.pM

    def _sub(self, x: int, y: int) -> int:
        """The canonical packed difference x - y."""
        x += self._pM_slots - y  # slots in (0, 2 p^M)
        return x - ((x + self._ge_bias) >> self._ge_bit & self._ones) * self.pM

    def _times_p_power(self, x: int, prec: int, k: int) -> tuple:
        """(p^k x, its precision): known k*e digits further than x (up to
        full precision), as p^k kills the unknown part below pi^prec."""
        prec += k * self.e
        return (self._canon(x * (self.p ** k % self.pM)),
                prec if prec < self.full_prec else self.full_prec)

    def _divide_p_power(self, x: int, prec: int, r: int) -> tuple:
        """(z, prec - r*e) with z*p^r = x, slot by slot: v(x) >= r*e
        exactly when p^r divides every digit (the digit valuations are
        distinct mod e).  Decided when r*e <= prec and every slot residue
        mod p^r is 0; otherwise RingElement._check_divisible raises as
        divide_exact(from_int(p^r)) would."""
        if r < 0:
            raise ValueError(f"negative power p^{r}")
        if r >= self.M:  # p^r = 0 at precision p^M
            raise ValuationError("divisor valuation indeterminate")
        w = r * self.e
        if w > prec or self._slots_mod(x, r):
            RingElement(self, x, prec)._check_divisible(w)
        return x // self.p ** r, prec - w

    def _mod_pi(self, x: int, prec: int, t: int) -> int:
        """The packed canonical representative of x mod pi^t (pi-adic
        digits in {0..p-1}).  For t <= min(e, prec) its digits are the
        first t slot residues mod p, in place; otherwise
        pi_digit_expansion(t) reads them, and raises above prec."""
        if t < 0:
            raise ValueError(f"negative level pi^{t}")
        if t > self.e or t > prec:
            return self.from_pi_digits(
                RingElement(self, x, prec).pi_digit_expansion(t)).P
        return self._slots_mod(x, 1) & ((1 << self.W * t) - 1)

    # -- basic constructors ------------------------------------------------

    def zero(self, prec: int | None = None) -> "RingElement":
        return RingElement(self, 0, self.full_prec if prec is None else prec)

    def one(self) -> "RingElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "RingElement":
        return RingElement(self, n % self.pM, self.full_prec)

    def pi(self, k: int = 1) -> "RingElement":
        """pi^k as an element."""
        if k == 0:
            return self.one()
        if k < self.e:
            return RingElement(self, 1 << (self.W * k), self.full_prec)
        x = self.pi(self.e - 1)
        for _ in range(k - self.e + 1):
            x = x * self.pi(1)
        return x

    def from_digits(self, digits, prec: int | None = None) -> "RingElement":
        """The element sum digits[i] pi^i; missing digits are 0."""
        digits = [d % self.pM for d in digits]
        if len(digits) > self.e:
            raise ValueError(f"{len(digits)} digits given for e = {self.e}")
        return RingElement(self, self._pack(digits),
                           self.full_prec if prec is None else prec)

    def from_pi_digits(self, digits, prec: int | None = None) -> "RingElement":
        """sum digits[i] pi^i for any number of pi-adic digits, at
        precision prec (full by default)."""
        x = self.from_digits(digits[:self.e], prec)
        for i, d in enumerate(digits[self.e:], self.e):
            if d:
                x = x + self.pi(i).scale(d)
        return x

    # -- distinguished constants -------------------------------------------

    @property
    def zeta2(self) -> "RingElement":
        """zeta_{p^2} = 1 + pi (cyclotomic flavor)."""
        return self.one() + self.pi()

    @property
    def lam2(self) -> "RingElement":
        """lambda_(2) = zeta_{p^2} - 1 = pi."""
        return self.pi()

    @property
    def lam1(self) -> "RingElement":
        """lambda_(1) = zeta_p - 1 = (1+pi)^p - 1, valuation p."""
        return self.zeta2 ** self.p - self.one()

    @property
    def zeta1(self) -> "RingElement":
        """zeta_p = zeta_{p^2}^p."""
        return self.zeta2 ** self.p

    def p_over_pi_e(self) -> "RingElement":
        """The unit p/pi^e, used to read pi-adic digits off in blocks."""
        if self._p_over_pi_e is None:
            p, pM = self.p, self.pM
            # E(pi)=0 gives p*b0 = -(pi^e + p*sum_{i>=1} b_i pi^i) with
            # a_i = p*b_i, so p = -b0^{-1} pi^e u^{-1},
            # u = 1 + b0^{-1} sum_{i>=1} b_i pi^i.
            b = [a // p if a % p == 0 else (a - pM) // p for a in self.coeffs]
            b = [x % (pM // p) for x in b]
            b0_inv = pow(b[0], -1, pM)
            u = self.one()
            for i in range(1, self.e):
                u = u + self.from_int(b0_inv * b[i]) * self.pi(i)
            self._p_over_pi_e = self.from_int(-b0_inv) * u.invert_unit()
        return self._p_over_pi_e

    def p_over_pi(self) -> "RingElement":
        """p/pi = (p/pi^e) pi^(e-1) (valuation e-1), used for digit shifts."""
        if self._p_over_pi is None:
            self._p_over_pi = self.p_over_pi_e() * self.pi(self.e - 1)
        return self._p_over_pi

    def __repr__(self):
        return f"RingDescriptor(p={self.p}, M={self.M}, e={self.e}, {self.flavor})"

    def to_json(self):
        return {"p": self.p, "M": self.M, "flavor": self.flavor,
                "eisenstein_coeffs": list(self.coeffs)}


def cyclotomic_eisenstein(p: int) -> list[int]:
    """Coefficients a_0..a_{e-1} of Phi_{p^2}(1+x) = sum_{i<p} (1+x)^{ip}."""
    e = p * (p - 1)
    out = [0] * (e + 1)
    for i in range(p):
        n = i * p
        for k in range(n + 1):
            out[k] += math.comb(n, k)
    if out[e] != 1:
        raise EisensteinError("Phi_{p^2}(1+x) is not monic of degree p(p-1)")
    return out[:e]


def make_ring(p: int, M: int = 12) -> RingDescriptor:
    """Cyclotomic descriptor for R = Z_p[zeta_{p^2}], e = p(p-1)."""
    if not _is_prime(p) or p == 2:
        raise InputError(f"p must be an odd prime, got {p}")
    if M < 2:
        raise InputError("M must be at least 2")
    return RingDescriptor(p, M, cyclotomic_eisenstein(p), "cyclotomic_p2")


def make_custom_ring(p: int, M: int, eisenstein_coeffs) -> RingDescriptor:
    if not _is_prime(p) or p == 2:
        raise InputError(f"p must be an odd prime, got {p}")
    if M < 2:
        raise InputError("M must be at least 2")
    return RingDescriptor(p, M, eisenstein_coeffs, "custom")


class RingElement:
    """Element of R in the basis 1, pi, ..., pi^(e-1), resident as one
    packed integer P (digit i in slot i of the ring's width W, each in
    [0, p^M)).

    Immutable.  `prec` is the absolute pi-adic precision: the element is
    known modulo pi^prec.
    """

    __slots__ = ("ring", "P", "prec")

    def __init__(self, ring: RingDescriptor, P: int, prec: int):
        self.ring = ring
        self.P = P
        self.prec = prec if prec < ring.full_prec else ring.full_prec

    @property
    def digits(self) -> tuple:
        """The e digits, unpacked from P on each access."""
        return self.ring._unpack(self.P, self.ring.e)

    # -- valuation and zero tests ------------------------------------------

    def valuation(self):
        """Exact valuation, or IndeterminateAtPrecision if the element is
        indistinguishable from 0 at the stored precision.

        v = min_i e*v_p(c_i) + i = e*k + i, where k is the least level at
        which the slot residues z mod p^(k+1) are not all 0 and i is the
        lowest nonzero slot of z; levels with e*k >= prec are not read.
        """
        r, P, prec = self.ring, self.P, self.prec
        k = 0
        while P and r.e * k < prec:
            z = r._slots_mod(P, k + 1)
            if z:
                v = r.e * k + ((z & -z).bit_length() - 1) // r.W
                return v if v < prec else IndeterminateAtPrecision(prec)
            k += 1
        return IndeterminateAtPrecision(prec)

    def is_zero(self) -> bool:
        """True when indistinguishable from 0 at the stored precision:
        x = 0 mod pi^prec (RingDescriptor._vanishes)."""
        return self.ring._vanishes(self.P, self.prec)

    # -- ring operations ----------------------------------------------------
    #
    # +, -, neg and scale are one big-integer expression and a slot-wise
    # reduction; * is one product reduced by RingDescriptor._reduce_raw.
    # None of them loops over the digits (tests/test_invariants.py).

    def __add__(self, other: "RingElement") -> "RingElement":
        r = self.ring
        if other.ring is not r:
            raise ValueError("operands from different rings")
        return RingElement(r, r._add(self.P, other.P),
                           self.prec if self.prec < other.prec
                           else other.prec)

    def __sub__(self, other: "RingElement") -> "RingElement":
        r = self.ring
        if other.ring is not r:
            raise ValueError("operands from different rings")
        return RingElement(r, r._sub(self.P, other.P),
                           self.prec if self.prec < other.prec
                           else other.prec)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, self.ring._negate(self.P), self.prec)

    def __mul__(self, other: "RingElement") -> "RingElement":
        """Kronecker-packed product: one big-integer multiplication of the
        resident integers, reduced by E (RingDescriptor._reduce_raw)."""
        r = self.ring
        if other.ring is not r:
            raise ValueError("operands from different rings")
        return RingElement(r, r._reduce_raw(self.P * other.P),
                           self.prec if self.prec < other.prec
                           else other.prec)

    def scale(self, n: int) -> "RingElement":
        """Multiplication by an ordinary integer: slots below p^(2M),
        reduced slot-wise."""
        r = self.ring
        return RingElement(r, r._canon(self.P * (n % r.pM)), self.prec)

    def times_p_power(self, k: int) -> "RingElement":
        """p^k * self, known k*e digits further than self (up to full
        precision): p^k kills the unknown part below pi^prec."""
        return RingElement(self.ring, *self.ring._times_p_power(
            self.P, self.prec, k))

    def scale_unit_fraction(self, q: Fraction) -> "RingElement":
        """Multiplication by a rational with denominator prime to p."""
        p, pM = self.ring.p, self.ring.pM
        if q.denominator % p == 0:
            raise ValuationError(f"denominator of {q} not prime to {p}")
        n = (q.numerator * pow(q.denominator, -1, pM)) % pM
        return self.scale(n)

    def __pow__(self, n: int) -> "RingElement":
        """self^n from the ring's memo (RingDescriptor._unary); a negative
        n is a power of the inverse of a unit."""
        return self.ring._memo(self.P, self.prec, n)

    def _power(self, n: int) -> "RingElement":
        """self^n by square-and-multiply, without the memo."""
        if n < 0:
            return self.invert_unit() ** (-n)
        if n == 0:
            return RingElement(self.ring, 1, self.prec)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def invert_unit(self) -> "RingElement":
        """Inverse of a unit, by Newton iteration in the finite quotient.

        An exact one (P = 1) is its own inverse at its own precision,
        which is what Newton returns for it, and is returned as it is.
        """
        r = self.ring
        if self.valuation() != 0:
            raise ValuationError("not a unit (valuation != 0)")
        if self.P == 1:
            return self
        w = RingElement(r, pow((self.P & r._slot_mask) % r.p, -1, r.p),
                        self.prec)
        two = RingElement(r, 2, self.prec)
        steps = max(1, math.ceil(math.log2(r.full_prec)) + 1)
        for _ in range(steps):
            w = w * (two - self * w)
        check = self * w - RingElement(r, 1, self.prec)
        if not check.is_zero():
            raise ArithmeticError("unit inversion failed to converge")
        return w

    def _div_pi(self) -> "RingElement":
        """Exact division by pi (requires v >= 1); precision drops by 1."""
        r = self.ring
        c0 = self.P & r._slot_mask
        if c0 % r.p != 0:
            raise ValuationError("element not divisible by pi")
        prec = min(self.prec - 1, r.full_prec - 1)
        out = RingElement(r, self.P >> r.W, prec)
        q0 = c0 // r.p
        if q0:
            out = out + r.p_over_pi().scale(q0)
        return RingElement(r, out.P, prec)

    def _check_divisible(self, w: int):
        """Raise unless v(self) >= w is decided at the stored precision:
        self = 0 mod pi^w with w <= prec.  A self that is not 0 mod
        pi^min(w, prec) has a valuation below w, which the error shows;
        one that is, with w > prec, is indistinguishable from 0 below
        pi^w."""
        if not self.ring._vanishes(self.P, min(w, self.prec)):
            raise ValuationError(f"dividend valuation {self.valuation()} "
                                 f"below divisor valuation {w}")
        if w > self.prec:
            raise PrecisionError(
                "dividend indistinguishable from 0 below divisor valuation")

    def divisor(self):
        """The map x -> x / self, for exact division by this element.

        Prepared once: v(self) = w and the Newton inverse of the unit
        self / pi^w; each call then divides x by pi w times and multiplies
        by that inverse.  The map requires v(x) >= w determinate.  The
        map is a pure closure, shared through the ring's memo
        (RingDescriptor._unary) by every element of the same digits and
        precision.
        """
        return self.ring._memo(self.P, self.prec)

    def _divisor(self):
        """The prepared map of `divisor`, without the memo."""
        w = self.valuation()
        if isinstance(w, IndeterminateAtPrecision):
            raise ValuationError("divisor valuation indeterminate")
        unit = self
        for _ in range(w):
            unit = unit._div_pi()
        inverse, ring = unit.invert_unit(), self.ring

        def divide(x: "RingElement") -> "RingElement":
            if x.ring is not ring:
                raise ValueError("operands from different rings")
            x._check_divisible(w)
            for _ in range(w):
                x = x._div_pi()
            return x * inverse
        return divide

    def divide_exact(self, other: "RingElement") -> "RingElement":
        """z with z*other = self; requires v(self) >= v(other) determinate
        and both in one ring."""
        return other.divisor()(self)

    def divide_p_power(self, r: int) -> "RingElement":
        """z with z*p^r = self, slot by slot; precision drops by r*e
        (RingDescriptor._divide_p_power)."""
        return RingElement(self.ring, *self.ring._divide_p_power(
            self.P, self.prec, r))

    # -- precision and quotient handling -------------------------------------

    def with_prec(self, prec: int) -> "RingElement":
        return RingElement(self.ring, self.P, prec)

    def pi_digit_expansion(self, t: int) -> tuple:
        """Canonical pi-adic digits d_0..d_{t-1} in {0..p-1}, e at a time.

        With c_i = (c_i mod p) + p*(c_i // p) and p = (p/pi^e) pi^e, the
        next e digits are the slot residues Z of P mod p, and the rest of
        the element divided by pi^e is (p/pi^e) * (P - Z) // p: one
        product per further block of e digits.
        """
        if t > self.prec:
            raise PrecisionError(
                f"requested {t} digits at precision {self.prec}")
        r = self.ring
        P, out = self.P, []
        while t - len(out) > r.e:
            Z = r._slots_mod(P, 1)
            out.extend(r._unpack(Z, r.e))
            P = (RingElement(r, (P - Z) // r.p, r.full_prec)
                 * r.p_over_pi_e()).P
        out.extend(r._unpack(r._slots_mod(P, 1), t - len(out)))
        return tuple(out)

    def reduce_mod(self, t: int) -> "QuotElement":
        return QuotElement(self.ring, t, self.pi_digit_expansion(t))

    def mod_pi(self, t: int) -> "RingElement":
        """The canonical representative of self mod pi^t (pi-adic digits
        in {0..p-1}) at precision t (RingDescriptor._mod_pi)."""
        return RingElement(self.ring, self.ring._mod_pi(self.P, self.prec, t),
                           t)

    # -- structural equality (same digits and precision) ---------------------

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring is other.ring
                and self.P == other.P and self.prec == other.prec)

    def __hash__(self):
        return hash((id(self.ring), self.P, self.prec))

    def __repr__(self):
        return f"RingElement({list(self.digits)}, prec={self.prec})"

    def to_json(self):
        return {"p": self.ring.p, "M": self.ring.M,
                "digits": [str(d) for d in self.digits], "prec": self.prec}


def ring_element_from_json(ring: RingDescriptor, obj) -> RingElement:
    if obj["p"] != ring.p or obj["M"] != ring.M:
        raise ValueError("ring mismatch in serialized element")
    return ring.from_digits([int(d) for d in obj["digits"]],
                            prec=obj["prec"])


def eq_mod(x: RingElement, y: RingElement, t: int) -> bool:
    """Equality modulo pi^t: the difference has valuation >= t, or is
    indistinguishable from 0 at a precision >= t.  A difference
    indistinguishable from 0 below pi^t raises PrecisionError.

    Decided by one zero test of the difference mod pi^min(t, prec)
    (RingDescriptor._vanishes)."""
    d = x - y
    if not d.ring._vanishes(d.P, min(t, d.prec)):
        return False
    if t <= d.prec:
        return True
    raise PrecisionError(
        f"cannot decide equality mod pi^{t} at precision {d.prec}")


def check_floor(coeffs, what: str) -> None:
    """The one precision floor: deciding `what` on a coefficient known to
    no digit (precision < 1) would be vacuous, so it raises instead."""
    if any(c.prec < 1 for c in coeffs):
        raise PrecisionError(
            f"cannot decide {what} on a coefficient known to no digit")


class QuotElement:
    """Printed and parsed form of a class of R/pi^t R: digits d_0..d_{t-1}
    in {0..p-1}.  The library computes on the class as the RingElement at
    precision t that `mod_pi(t)` gives; `lift()` is it at full precision.
    Quotients R/lam R are canonicalized to R/pi^{v(lam)} R, which is
    legitimate because lam = unit * pi^{v(lam)}.
    """

    __slots__ = ("ring", "t", "digits")

    def __init__(self, ring: RingDescriptor, t: int, digits: tuple):
        self.ring = ring
        self.t = t
        self.digits = tuple(d % ring.p for d in digits)
        if len(self.digits) != t:
            raise ValueError(
                f"{len(self.digits)} digits given for R/pi^{t}")

    def lift(self) -> RingElement:
        """Canonical lift to R at full precision."""
        return self.ring.from_pi_digits(self.digits)

    def valuation(self):
        for i, d in enumerate(self.digits):
            if d:
                return i
        return IndeterminateAtPrecision(self.t)

    def is_zero(self) -> bool:
        return not any(self.digits)

    def _check_same_level(self, other: "QuotElement"):
        if self.t != other.t:
            raise ValueError(
                f"operands in R/pi^{self.t} and R/pi^{other.t}")

    def __add__(self, other: "QuotElement") -> "QuotElement":
        self._check_same_level(other)
        return (self.lift() + other.lift()).reduce_mod(self.t)

    def __sub__(self, other: "QuotElement") -> "QuotElement":
        self._check_same_level(other)
        return (self.lift() - other.lift()).reduce_mod(self.t)

    def __neg__(self) -> "QuotElement":
        return (-self.lift()).reduce_mod(self.t)

    def __mul__(self, other: "QuotElement") -> "QuotElement":
        self._check_same_level(other)
        return (self.lift() * other.lift()).reduce_mod(self.t)

    def scale(self, n: int) -> "QuotElement":
        return self.lift().scale(n).reduce_mod(self.t)

    def __pow__(self, n: int) -> "QuotElement":
        return (self.lift() ** n).reduce_mod(self.t)

    def __eq__(self, other):
        return (isinstance(other, QuotElement) and self.ring is other.ring
                and self.t == other.t and self.digits == other.digits)

    def __hash__(self):
        return hash((id(self.ring), self.t, self.digits))

    def __repr__(self):
        return f"QuotElement({'.'.join(map(str, self.digits)) or '0'} mod pi^{self.t})"

    def to_json(self):
        return {"t": self.t, "digits": list(self.digits)}


def reduce_mod(x: RingElement, t: int) -> QuotElement:
    return x.reduce_mod(t)


def enumerate_quotient(ring: RingDescriptor, t: int):
    """The p^t classes of R/pi^t R, as mod_pi(t) gives them, in
    lexicographic digit order."""
    if t > ring.full_prec:
        raise PrecisionError("quotient exceeds representable precision")
    for digits in itertools.product(range(ring.p), repeat=t):
        yield ring.from_pi_digits(digits, t)


def eta(ring: RingDescriptor) -> RingElement:
    """The distinguished parameter sum_{k=1}^{p-1} ((-1)^(k-1)/k) pi^k.

    Has valuation 1 and solves p*eta - lam1 = (p/lam1^(p-1)) eta^p
    modulo lam1^p, which pins the canonical order-p^2 model.
    """
    if ring.flavor != "cyclotomic_p2":
        raise ValueError("eta requires the cyclotomic flavor")
    acc = ring.zero()
    for k in range(1, ring.p):
        term = ring.pi(k).scale_unit_fraction(Fraction((-1) ** (k - 1), k))
        acc = acc + term
    return acc
