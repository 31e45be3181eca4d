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
the valuation of a nonzero element is read off its digits exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EisensteinError, PrecisionError, ValuationError


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


def _vp(n: int, p: int, cap: int) -> int:
    """p-valuation of the integer n, capped at `cap` (v_p(0) = cap)."""
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


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
        self._reduction_table = self._build_reduction_table()
        self._slot_bits = self._slot_width(1)  # RingElement.__mul__
        self._packings = {}  # slot width -> masks and packed rows (_fold)
        self._p_over_pi_e = None  # cached, built lazily (needs invert_unit)
        self._p_over_pi = None  # cached, built from _p_over_pi_e

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

    def _build_reduction_table(self):
        # row k = digits of pi^(e+k) in the basis 1..pi^(e-1), k = 0..e-2
        pM = self.pM
        rows = []
        cur = [(-a) % pM for a in self.coeffs]  # pi^e
        rows.append(tuple(cur))
        for _ in range(self.e - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i, a in enumerate(rows[0]):
                    cur[i] = (cur[i] + top * a) % pM
            cur = [c % pM for c in cur]
            rows.append(tuple(cur))
        return tuple(rows)

    def _slot_width(self, n: int) -> int:
        """Slot width for a sum of n packed products.

        A low slot of the sum collects at most n*e digit products, and
        the folding of the e-1 reduced high slots adds at most one more
        product each, so every slot stays below 2en(p^M-1)^2 and no slot
        carries into the next: the packed sum is exact for every (p, M).
        """
        return (2 * self.e * n * (self.pM - 1) ** 2).bit_length()

    def _pack(self, digits, w: int) -> int:
        """The digits as one integer, digit i in slot i of width w."""
        x = 0
        for d in reversed(digits):
            x = (x << w) | d
        return x

    def _fold(self, x: int, w: int) -> tuple:
        """The digits mod p^M of x, a sum of packed products at slot width
        w: each high slot, reduced mod p^M, is folded into the low slots
        through the packed row of pi^(e+k), and the low slots are read
        off mod p^M."""
        try:
            mask, low_mask, top, rows = self._packings[w]
        except KeyError:
            top = w * self.e
            mask, low_mask = (1 << w) - 1, (1 << top) - 1
            rows = tuple(self._pack(row, w) for row in self._reduction_table)
            self._packings[w] = mask, low_mask, top, rows
        pM = self.pM
        low = x & low_mask
        high = x >> top
        for row in rows:
            if not high:
                break
            c = (high & mask) % pM
            if c:
                low += c * row
            high >>= w
        digits = []
        for _ in range(self.e):
            digits.append((low & mask) % pM)
            low >>= w
        return tuple(digits)

    # -- basic constructors ------------------------------------------------

    def zero(self, prec: int | None = None) -> "RingElement":
        return RingElement(self, (0,) * self.e,
                           self.full_prec if prec is None else prec)

    def one(self) -> "RingElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "RingElement":
        digits = (n % self.pM,) + (0,) * (self.e - 1)
        return RingElement(self, digits, self.full_prec)

    def pi(self, k: int = 1) -> "RingElement":
        """pi^k as an element."""
        if k == 0:
            return self.one()
        if k < self.e:
            digits = [0] * self.e
            digits[k] = 1
            return RingElement(self, tuple(digits), self.full_prec)
        x = self.pi(self.e - 1)
        for _ in range(k - self.e + 1):
            x = x * self.pi(1)
        return x

    def from_digits(self, digits, prec: int | None = None) -> "RingElement":
        digits = tuple(d % self.pM for d in digits)
        if len(digits) != self.e:
            digits = digits + (0,) * (self.e - len(digits))
        return RingElement(self, digits,
                           self.full_prec if prec is None else prec)

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
        raise ValueError(f"p must be an odd prime, got {p}")
    if M < 2:
        raise ValueError("M must be at least 2")
    return RingDescriptor(p, M, cyclotomic_eisenstein(p), "cyclotomic_p2")


def make_custom_ring(p: int, M: int, eisenstein_coeffs) -> RingDescriptor:
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    return RingDescriptor(p, M, eisenstein_coeffs, "custom")


class RingElement:
    """Element of R as a digit vector in the basis 1, pi, ..., pi^(e-1).

    Immutable.  `prec` is the absolute pi-adic precision: the element is
    known modulo pi^prec.
    """

    __slots__ = ("ring", "digits", "prec")

    def __init__(self, ring: RingDescriptor, digits: tuple, prec: int):
        self.ring = ring
        self.digits = digits
        self.prec = min(prec, ring.full_prec)

    # -- valuation and zero tests ------------------------------------------

    def valuation(self):
        """Exact valuation, or IndeterminateAtPrecision if the element is
        indistinguishable from 0 at the stored precision."""
        r = self.ring
        v = r.full_prec + r.e  # +inf sentinel
        for i, c in enumerate(self.digits):
            if c:
                v = min(v, r.e * _vp(c, r.p, r.M) + i)
        if v >= self.prec:
            return IndeterminateAtPrecision(self.prec)
        return v

    def is_zero(self) -> bool:
        """True when indistinguishable from 0 at the stored precision."""
        return isinstance(self.valuation(), IndeterminateAtPrecision)

    # -- ring operations ----------------------------------------------------

    def _check_same_ring(self, other: "RingElement"):
        if self.ring is not other.ring:
            raise ValueError("operands from different rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_same_ring(other)
        pM = self.ring.pM
        digits = tuple((a + b) % pM for a, b in zip(self.digits, other.digits))
        return RingElement(self.ring, digits, min(self.prec, other.prec))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_same_ring(other)
        pM = self.ring.pM
        digits = tuple((a - b) % pM for a, b in zip(self.digits, other.digits))
        return RingElement(self.ring, digits, min(self.prec, other.prec))

    def __neg__(self) -> "RingElement":
        pM = self.ring.pM
        return RingElement(self.ring, tuple((-a) % pM for a in self.digits),
                           self.prec)

    def __mul__(self, other: "RingElement") -> "RingElement":
        """Kronecker-packed product: one big-integer multiplication of
        the packed digit vectors, folded once (RingDescriptor._fold)."""
        r = self.ring
        if other.ring is not r:  # _check_same_ring, inline in the hot path
            raise ValueError("operands from different rings")
        w = r._slot_bits
        digits = r._fold(r._pack(self.digits, w) * r._pack(other.digits, w), w)
        return RingElement(r, digits, min(self.prec, other.prec))

    def scale(self, n: int) -> "RingElement":
        """Multiplication by an ordinary integer."""
        pM = self.ring.pM
        return RingElement(self.ring,
                           tuple((n * a) % pM for a in self.digits), self.prec)

    def scale_unit_fraction(self, q: Fraction) -> "RingElement":
        """Multiplication by a rational with denominator prime to p."""
        p, pM = self.ring.p, self.ring.pM
        if q.denominator % p == 0:
            raise ValuationError(f"denominator of {q} not prime to {p}")
        n = (q.numerator * pow(q.denominator, -1, pM)) % pM
        return self.scale(n)

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            return self.invert_unit() ** (-n)
        if n == 0:
            return RingElement(self.ring, self.ring.one().digits, self.prec)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def invert_unit(self) -> "RingElement":
        """Inverse of a unit, by Newton iteration in the finite quotient."""
        r = self.ring
        if self.valuation() != 0:
            raise ValuationError("not a unit (valuation != 0)")
        w = r.from_int(pow(self.digits[0] % r.p, -1, r.p))
        w = RingElement(r, w.digits, self.prec)
        two = r.from_int(2)
        steps = max(1, math.ceil(math.log2(r.full_prec)) + 1)
        for _ in range(steps):
            w = w * (RingElement(r, two.digits, self.prec) - self * w)
        check = self * w - RingElement(r, r.one().digits, self.prec)
        if not check.is_zero():
            raise ArithmeticError("unit inversion failed to converge")
        return w

    def _div_pi(self) -> "RingElement":
        """Exact division by pi (requires v >= 1); precision drops by 1."""
        r = self.ring
        c0 = self.digits[0]
        if c0 % r.p != 0:
            raise ValuationError("element not divisible by pi")
        shifted = self.digits[1:] + (0,)
        out = RingElement(r, shifted, min(self.prec - 1, r.full_prec - 1))
        q0 = c0 // r.p
        if q0:
            out = out + r.p_over_pi().scale(q0)
        return RingElement(r, out.digits, min(self.prec - 1, r.full_prec - 1))

    def _check_divisible(self, w: int):
        """Raise unless v(self) >= w is decided at the stored precision."""
        vs = self.valuation()
        if not isinstance(vs, IndeterminateAtPrecision) and vs < w:
            raise ValuationError(
                f"dividend valuation {vs} below divisor valuation {w}")
        if isinstance(vs, IndeterminateAtPrecision) and vs.level < w:
            raise PrecisionError(
                "dividend indistinguishable from 0 below divisor valuation")

    def divide_exact(self, other: "RingElement") -> "RingElement":
        """z with z*other = self; requires v(self) >= v(other) determinate."""
        self._check_same_ring(other)
        w = other.valuation()
        if isinstance(w, IndeterminateAtPrecision):
            raise ValuationError("divisor valuation indeterminate")
        self._check_divisible(w)
        num, den = self, other
        for _ in range(w):
            num = num._div_pi()
            den = den._div_pi()
        return num * den.invert_unit()

    def divide_p_power(self, r: int) -> "RingElement":
        """z with z*p^r = self, digit by digit; precision drops by r*e.

        Valid because v(self) >= r*e exactly when p^r divides every
        digit (the digit valuations e*v_p(c_i) + i are distinct mod e).
        Raises in the same cases as divide_exact(from_int(p^r)).
        """
        ring = self.ring
        if r < 0:
            raise ValueError(f"negative power p^{r}")
        if r >= ring.M:  # p^r = 0 at precision p^M
            raise ValuationError("divisor valuation indeterminate")
        w = r * ring.e
        self._check_divisible(w)
        q = ring.p ** r
        return RingElement(ring, tuple(d // q for d in self.digits),
                           self.prec - w)

    # -- precision and quotient handling -------------------------------------

    def with_prec(self, prec: int) -> "RingElement":
        return RingElement(self.ring, self.digits, prec)

    def pi_digit_expansion(self, t: int) -> tuple:
        """Canonical pi-adic digits d_0..d_{t-1} in {0..p-1}, e at a time.

        With c_i = (c_i mod p) + p*(c_i // p) and p = (p/pi^e) pi^e, the
        next e digits are the c_i mod p, and the rest of the element
        divided by pi^e is (p/pi^e) * sum (c_i // p) pi^i: one product
        per further block of e digits.
        """
        if t > self.prec:
            raise PrecisionError(
                f"requested {t} digits at precision {self.prec}")
        r = self.ring
        p, digits = r.p, self.digits
        out = [c % p for c in digits[:max(t, 0)]]
        while len(out) < t:
            rest = RingElement(r, tuple(c // p for c in digits), r.full_prec)
            digits = (rest * r.p_over_pi_e()).digits
            out.extend(c % p for c in digits[:t - len(out)])
        return tuple(out)

    def reduce_mod(self, t: int) -> "QuotElement":
        return QuotElement(self.ring, t, self.pi_digit_expansion(t))

    # -- structural equality (same digits and precision) ---------------------

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring is other.ring
                and self.digits == other.digits and self.prec == other.prec)

    def __hash__(self):
        return hash((id(self.ring), self.digits, self.prec))

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


def eq_mod(x: RingElement, y: RingElement, t: int):
    """Equality modulo pi^t.

    Returns (equal, mode): mode is "exact" when the difference has
    determinate valuation >= t, "indeterminate" when the difference is
    indistinguishable from 0 at level >= t, and None when not equal.
    """
    d = (x - y).valuation()
    if isinstance(d, IndeterminateAtPrecision):
        if d.level >= t:
            return True, "indeterminate"
        raise PrecisionError(
            f"cannot decide equality mod pi^{t} at precision {d.level}")
    if d >= t:
        return True, "exact"
    return False, None


class QuotElement:
    """Canonical element of R/pi^t R: digits d_0..d_{t-1} in {0..p-1}.

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
        digits = list(self.digits) + [0] * (self.ring.e - self.t)
        if self.t <= self.ring.e:
            return self.ring.from_digits(digits[:self.ring.e])
        x = self.ring.zero()
        for i, d in enumerate(self.digits):
            if d:
                x = x + self.ring.pi(i).scale(d)
        return x

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

    def digit_string(self) -> str:
        return ".".join(map(str, self.digits)) if self.t else ""

    def to_json(self):
        return {"t": self.t, "digits": list(self.digits)}


def reduce_mod(x: RingElement, t: int) -> QuotElement:
    return x.reduce_mod(t)


def enumerate_quotient(ring: RingDescriptor, t: int):
    """All p^t canonical representatives of R/pi^t R."""
    if t > ring.full_prec:
        raise PrecisionError("quotient exceeds representable precision")
    for digits in itertools.product(range(ring.p), repeat=t):
        yield QuotElement(ring, t, digits)


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
