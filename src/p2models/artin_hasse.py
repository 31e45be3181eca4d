"""Truncated Artin-Hasse exponentials and their two-parameter deformation.

E_p(T) = exp(sum_r T^(p^r)/p^r) is computed by exact rational arithmetic
and certified p-integral.  The deformed series

    E_p(U, L; T) = (1+LT)^(U/L) * prod_{r>=1} (1+L^(p^r) T^(p^r))^(e_r),
    e_r = ((U/L)^(p^r) - (U/L)^(p^(r-1))) / p^r,

is expanded with L formally inverted and then certified: every
T-coefficient must be an honest polynomial in U, L (no negative powers
of L) with p-integral coefficients.  The certificate doubles as an
oracle for the rational-arithmetic layer, so a failure raises.

Evaluated forms: E_p(a, mu; T) for scalars with a^p = mu^(p-1) a has the
closed degree-(p-1) polynomial 1 + sum_i prod_{k<i}(a-k mu)/i! T^i, and
E_p(a_vec, mu; T) = prod_k E_p(a_k, mu^(p^k); T^(p^k)) for Witt vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .dvr import QuotElement, RingElement, _is_prime, eq_mod
from .errors import CertificationError
from .poly import ExactBase, Poly
from .witt import QQBase, WittVector

_QQ = QQBase()


class TruncatedSeries:
    """Series truncated at degree D over a coefficient base."""

    __slots__ = ("base", "D", "coeffs")

    def __init__(self, base, D: int, coeffs):
        self.base = base
        self.D = D
        coeffs = list(coeffs)[:D + 1]
        coeffs += [base.zero()] * (D + 1 - len(coeffs))
        self.coeffs = coeffs

    @classmethod
    def one(cls, base, D):
        return cls(base, D, [base.one()])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        D = min(self.D, other.D)
        base = self.base
        out = [base.zero()] * (D + 1)
        for i, a in enumerate(self.coeffs[:D + 1]):
            if base.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs[:D + 1 - i]):
                if not base.is_zero(b):
                    out[i + j] = base.add(out[i + j], base.mul(a, b))
        return TruncatedSeries(base, D, out)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        D = min(self.D, other.D)
        base = self.base
        return TruncatedSeries(
            base, D, [base.add(a, b)
                      for a, b in zip(self.coeffs, other.coeffs)])

    def eq(self, other: "TruncatedSeries") -> bool:
        D = min(self.D, other.D)
        base = self.base
        return all(base.eq(a, b) for a, b in
                   zip(self.coeffs[:D + 1], other.coeffs[:D + 1]))

    def rational_power(self, q: Fraction, D=None) -> "TruncatedSeries":
        """(self)^q for a series with constant term 1 (binomial series)."""
        D = self.D if D is None else D
        base = self.base
        if not base.eq(self.coeffs[0], base.one()):
            raise ValueError("binomial series needs constant term 1")
        g = TruncatedSeries(base, D, [base.zero()] + self.coeffs[1:])
        out = TruncatedSeries.one(base, D)
        gk = TruncatedSeries.one(base, D)
        binom = Fraction(1)
        for k in range(1, D + 1):
            gk = gk * g
            binom *= Fraction(q - (k - 1), k)
            if binom == 0:
                break
            out = out + gk.scale(binom)
        return out

    def scale(self, c) -> "TruncatedSeries":
        base = self.base
        if isinstance(c, Fraction):
            return TruncatedSeries(base, self.D,
                                   [base.scale_fraction(a, c)
                                    for a in self.coeffs])
        return TruncatedSeries(base, self.D,
                               [base.mul(c, a) for a in self.coeffs])

    def compose_monomial(self, c, k: int, D=None) -> "TruncatedSeries":
        """Substitute T -> c*T^k."""
        D = self.D if D is None else D
        base = self.base
        out = [base.zero()] * (D + 1)
        ck = base.one()
        for i, a in enumerate(self.coeffs):
            if i * k > D:
                break
            if i:
                ck = base.mul(ck, c)
            if not base.is_zero(a):
                out[i * k] = base.add(out[i * k], base.mul(a, ck))
        return TruncatedSeries(base, D, out)

    def __repr__(self):
        return f"TruncatedSeries(D={self.D}, {self.coeffs[:6]}...)"


def certify_p_integral(series: TruncatedSeries, p: int):
    for i, c in enumerate(series.coeffs):
        if isinstance(c, Fraction) and c.denominator % p == 0:
            raise CertificationError(
                f"coefficient of T^{i} = {c} is not p-integral")


def _check_args(p: int, D: int):
    # E_p is defined for every prime p, 2 included
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if D < 1:
        raise ValueError("degree must be >= 1")


@lru_cache(maxsize=None)
def ah_series(p: int, D: int) -> TruncatedSeries:
    """E_p(T) to degree D, exact rationals, certified p-integral."""
    _check_args(p, D)
    arg = [Fraction(0)] * (D + 1)
    r = 0
    while p ** r <= D:
        arg[p ** r] = Fraction(1, p ** r)
        r += 1
    argys = TruncatedSeries(_QQ, D, arg)
    out = TruncatedSeries.one(_QQ, D)
    term = TruncatedSeries.one(_QQ, D)
    for k in range(1, D + 1):
        term = term * argys
        out = out + term.scale(Fraction(1, math.factorial(k)))
    certify_p_integral(out, p)
    return out


# ---------------------------------------------------------------------------
# the deformed series
# ---------------------------------------------------------------------------

def _laurent(u: int = 0, l: int = 0, c=1) -> Poly:
    """The monomial c U^u L^l of Q[U, L, 1/L], a Poly over QQ in (U, L)
    with a signed L exponent."""
    return Poly(_QQ, 2, {(u, l): Fraction(c)})


class _LaurentBase:
    """Coefficient base adapter so TruncatedSeries can run over
    Q[U, L, 1/L], as Polys over QQ in (U, L)."""

    def zero(self):
        return Poly.zero(_QQ, 2)

    def one(self):
        return _laurent()

    def from_int(self, n):
        return _laurent(c=n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a.is_zero()

    def eq(self, a, b):
        return a.eq(b)

    def scale_fraction(self, a, q):
        return a.scale(q)


_LB = _LaurentBase()


class DeformedAHSeries:
    """E_p(U, L; T) to degree D; coefficients certified in Z_(p)[U, L]."""

    def __init__(self, p: int, D: int, coeffs: list[Poly]):
        self.p = p
        self.D = D
        self.coeffs = coeffs  # Poly over QQ in (U, L), one per degree

    def specialize(self, a: RingElement, mu: RingElement) -> TruncatedSeries:
        """Evaluate at U=a, L=mu over R."""
        ring = a.ring
        base = ExactBase(ring)
        out = []
        for poly in self.coeffs:
            acc = ring.zero()
            for (ue, le), q in poly.terms.items():
                acc = acc + ((a ** ue) * (mu ** le)).scale_unit_fraction(q)
            out.append(acc)
        return TruncatedSeries(base, self.D, out)

    def specialize_qq(self, sub_u, sub_l) -> TruncatedSeries:
        """Evaluate with U, L mapped to rational-coefficient (U,L)-polys."""
        out = []
        for poly in self.coeffs:
            acc = Poly.zero(_QQ, 2)
            for (ue, le), q in poly.terms.items():
                acc = acc + ((sub_u ** ue) * (sub_l ** le)).scale(q)
            out.append(acc)
        return out


@lru_cache(maxsize=None)
def deformed_ah(p: int, D: int) -> DeformedAHSeries:
    """Compute E_p(U, L; T) by binomial expansion of each factor."""
    _check_args(p, D)
    U = _laurent(1, 0)

    # factor (1+LT)^(U/L): T^k coefficient is prod_{i<k}(U - iL)/k!
    coeffs = [_laurent()]
    running = _laurent()
    for k in range(1, D + 1):
        running = running * (U - _laurent(0, 1, k - 1))
        coeffs.append(running.scale(Fraction(1, math.factorial(k))))
    series = TruncatedSeries(_LB, D, coeffs)

    # factors (1 + L^(p^r) T^(p^r))^(e_r), e_r Laurent in U, L
    r = 1
    while p ** r <= D:
        q = p ** r
        e_r = (_laurent(q, -q) - _laurent(q // p, -(q // p))).scale(
            Fraction(1, q))
        fac = [_laurent()]
        binom = _laurent()
        kmax = D // q
        for k in range(1, kmax + 1):
            binom = binom * (e_r - _laurent(c=k - 1))
            binom_k = binom.scale(Fraction(1, math.factorial(k)))
            fac.append(binom_k * _laurent(0, q * k))
        fac_series = TruncatedSeries(
            _LB, D,
            [fac[i // q] if i % q == 0 and i // q < len(fac)
             else _LB.zero() for i in range(D + 1)])
        series = series * fac_series
        r += 1

    # certification: polynomial in L, p-integral coefficients
    for d, lc in enumerate(series.coeffs):
        for (ue, le), q in lc.terms.items():
            if le < 0:
                raise CertificationError(
                    f"T^{d} coefficient has L-exponent {le} in U^{ue}")
            if q.denominator % p == 0:
                raise CertificationError(
                    f"T^{d} coefficient {q} U^{ue} L^{le} not p-integral")
    return DeformedAHSeries(p, D, series.coeffs)


def product_form(p: int, D: int) -> list[Poly]:
    """prod_{(i,p)=1} E_p(U L^(i-1) T^i)^((-1)^(i-1)/i) to degree D.

    Returns the per-degree coefficients, Polys over QQ in (U, L), for
    comparison against deformed_ah (they must agree for p > 2).
    """
    ep = ah_series(p, D)
    ep_l = TruncatedSeries(_LB, D, [_laurent(c=c) for c in ep.coeffs])
    out = TruncatedSeries.one(_LB, D)
    for i in range(1, D + 1):
        if i % p == 0:
            continue
        # substitute T -> U L^(i-1) T^i, then exponent (-1)^(i-1)/i
        fac = ep_l.compose_monomial(_laurent(1, i - 1), i)
        fac = fac.rational_power(Fraction((-1) ** (i - 1), i))
        out = out * fac
    return out.coeffs


# ---------------------------------------------------------------------------
# evaluated forms
# ---------------------------------------------------------------------------

def ep_poly_special(a: RingElement, mu: RingElement, t: int) -> list[QuotElement]:
    """E_p(a, mu; T) as the closed degree-(p-1) polynomial over R/pi^t.

    Requires a^p = mu^(p-1) a mod pi^t; coefficients are
    prod_{k<i}(a - k mu)/i!.  When mu = 0 this degenerates to
    sum a^i/i! T^i.
    """
    ring = a.ring
    p = ring.p
    lhs = a ** p
    rhs = mu ** (p - 1) * a
    ok, _ = eq_mod(lhs, rhs, t)
    if not ok:
        raise ValueError("precondition a^p = mu^(p-1) a mod pi^t fails")
    out = [ring.one().reduce_mod(t)]
    running = ring.one()
    for i in range(1, p):
        running = running * (a - mu.scale(i - 1))
        c = running.scale_unit_fraction(Fraction(1, math.factorial(i)))
        out.append(c.reduce_mod(t))
    return out


def ep_witt(a: WittVector, mu: RingElement, D: int) -> TruncatedSeries:
    """E_p(a_vec, mu; T) = prod_k E_p(a_k, mu^(p^k); T^(p^k)), truncated."""
    ring = a.ring
    base = ExactBase(ring)
    out = TruncatedSeries.one(base, D)
    dseries = deformed_ah(ring.p, D)
    for k in range(len(a)):
        if ring.p ** k > D:
            break
        c = a.coord(k)
        if isinstance(c, QuotElement):
            c = c.lift()
        factor = dseries.specialize(c, mu ** (ring.p ** k))
        out = out * factor.compose_monomial(ring.one(), ring.p ** k)
    return out
