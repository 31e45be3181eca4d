"""Truncated Artin-Hasse exponentials and their two-parameter deformation.

A series truncated at degree D is a Poly whose variable 0 is T and which
has no term of T-degree above D; products of series go through `_mul`,
which over Q never forms such a term.

E_p(T) = exp(sum_r T^(p^r)/p^r) is a Poly over Q in T, computed by exact
rational arithmetic and certified p-integral.  The deformed series

    E_p(U, L; T) = (1+LT)^(U/L) * prod_{r>=1} (1+L^(p^r) T^(p^r))^(e_r),
    e_r = ((U/L)^(p^r) - (U/L)^(p^(r-1))) / p^r,

is a Poly over Q in (T, U, L), expanded with a signed L exponent and
then certified: no term may keep a negative power of L, and every
coefficient must be p-integral.  The certificate doubles as an oracle
for the rational-arithmetic layer, so a failure raises.

Evaluated forms: E_p(a, mu; T) for scalars with a^p = mu^(p-1) a has the
closed degree-(p-1) polynomial 1 + sum_i prod_{k<i}(a-k mu)/i! T^i, and
E_p(a_vec, mu; T) = prod_k E_p(a_k, mu^(p^k); T^(p^k)) for Witt vectors,
a Poly over R in T.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .dvr import RingElement, _is_prime, eq_mod
from .errors import CertificationError, InputError
from .poly import ExactBase, Poly, QQBase, _rational_product, horner
from .witt import WittVector

_QQ = QQBase()


def _mul(f: Poly, g: Poly, D: int) -> Poly:
    """f * g truncated at T-degree D.  Over Q no term above D is formed
    (the capped `_rational_product`); over R, for `ep_witt`, the packed
    product is truncated."""
    if isinstance(f.base, QQBase):
        terms = _rational_product(f.terms, g.terms, D)
    else:
        terms = {m: c for m, c in (f * g).terms.items() if m[0] <= D}
    return Poly.from_nonzero(f.base, f.nvars, terms)


def _rational_power(f: Poly, q: Fraction, D: int) -> Poly:
    """f^q truncated at T-degree D, for f with constant term 1 (the
    binomial series)."""
    one = Poly.one(f.base, f.nvars)
    g = f - one
    if any(m[0] == 0 for m in g.terms):
        raise ValueError("binomial series needs constant term 1")
    out = gk = one
    binom = Fraction(1)
    for k in range(1, D + 1):
        gk = _mul(gk, g, D)
        binom *= Fraction(q - (k - 1), k)
        if binom == 0:
            break
        out = out + gk.scale(binom)
    return out


def _certify(series: Poly, p: int) -> None:
    """Raise CertificationError unless every exponent of series is
    nonnegative and every coefficient is p-integral."""
    for m, c in series.terms.items():
        if min(m) < 0:
            raise CertificationError(f"monomial {m} has a negative exponent")
        if c.denominator % p == 0:
            raise CertificationError(
                f"coefficient {c} of monomial {m} is not p-integral")


def _check_args(p: int, D: int):
    # E_p is defined for every prime p, 2 included
    if not _is_prime(p):
        raise InputError(f"p must be a prime, got {p}")
    if D < 1:
        raise InputError("degree must be >= 1")


@lru_cache(maxsize=None)
def ah_series(p: int, D: int) -> Poly:
    """E_p(T) to degree D, a Poly over Q in T, certified p-integral."""
    _check_args(p, D)
    arg, q = {}, 1
    while q <= D:
        arg[(q,)] = Fraction(1, q)
        q *= p
    arg = Poly(_QQ, 1, arg)
    out = term = Poly.one(_QQ, 1)
    for k in range(1, D + 1):
        term = _mul(term, arg, D)
        out = out + term.scale(Fraction(1, math.factorial(k)))
    _certify(out, p)
    return out


# ---------------------------------------------------------------------------
# the deformed series
# ---------------------------------------------------------------------------

def _mono(t: int = 0, u: int = 0, l: int = 0, c=1) -> Poly:
    """The monomial c T^t U^u L^l, a Poly over Q in (T, U, L)."""
    return Poly(_QQ, 3, {(t, u, l): Fraction(c)})


@lru_cache(maxsize=None)
def deformed_ah(p: int, D: int) -> Poly:
    """E_p(U, L; T) to degree D, a Poly over Q in (T, U, L), by binomial
    expansion of each factor; certified in Z_(p)[U, L][T]."""
    _check_args(p, D)
    U = _mono(u=1)

    # factor (1+LT)^(U/L): T^k coefficient is prod_{i<k}(U - iL)/k!
    series = running = _mono()
    for k in range(1, D + 1):
        running = running * (U - _mono(l=1, c=k - 1))
        series = series + running.scale(
            Fraction(1, math.factorial(k))) * _mono(t=k)

    # factors (1 + L^q T^q)^(e_r), q = p^r, e_r Laurent in U, L
    q = p
    while q <= D:
        e_r = (_mono(u=q, l=-q) - _mono(u=q // p, l=-(q // p))).scale(
            Fraction(1, q))
        fac = binom = _mono()
        for k in range(1, D // q + 1):
            binom = binom * (e_r - _mono(c=k - 1))
            fac = fac + binom.scale(
                Fraction(1, math.factorial(k))) * _mono(t=q * k, l=q * k)
        series = _mul(series, fac, D)
        q *= p

    _certify(series, p)
    return series


def product_form(p: int, D: int) -> Poly:
    """prod_{(i,p)=1} E_p(U L^(i-1) T^i)^((-1)^(i-1)/i) to degree D, a
    Poly over Q in (T, U, L), to compare against deformed_ah (they must
    agree for p > 2)."""
    ep = ah_series(p, D)
    out = _mono()
    for i in range(1, D + 1):
        if i % p == 0:
            continue
        # substitute T -> U L^(i-1) T^i, then exponent (-1)^(i-1)/i
        fac = Poly(_QQ, 3, {(i * k, k, (i - 1) * k): c
                            for (k,), c in ep.terms.items() if i * k <= D})
        out = _mul(out, _rational_power(fac, Fraction((-1) ** (i - 1), i),
                                        D), D)
    return out


# ---------------------------------------------------------------------------
# evaluated forms
# ---------------------------------------------------------------------------

def ep_coeffs(a: RingElement, mu: RingElement) -> list[RingElement]:
    """The coefficients 1, prod_{k<i}(a - k mu)/i! (0 < i < p) of the
    closed degree-(p-1) polynomial E_p(a, mu; T) over R; for mu = 0 they
    are a^i/i!."""
    ring = a.ring
    out = [ring.one()]
    running = ring.one()
    for i in range(1, ring.p):
        running = running * (a - mu.scale(i - 1))
        out.append(running.scale_unit_fraction(
            Fraction(1, math.factorial(i))))
    return out


def ep_poly_special(a: RingElement, mu: RingElement, t: int) -> list[RingElement]:
    """E_p(a, mu; T) as the closed degree-(p-1) polynomial over R/pi^t:
    the classes `mod_pi(t)` of the `ep_coeffs`.  Requires
    a^p = mu^(p-1) a mod pi^t."""
    p = a.ring.p
    if not eq_mod(a ** p, mu ** (p - 1) * a, t):
        raise ValueError("precondition a^p = mu^(p-1) a mod pi^t fails")
    return [c.mod_pi(t) for c in ep_coeffs(a, mu)]


def specialize(series: Poly, a: RingElement, mu: RingElement) -> Poly:
    """A (T, U, L) series over Q evaluated at U = a, L = mu: a Poly over
    R in T."""
    base = ExactBase(a.ring)
    one = a.ring.one()
    return horner(series, [Poly.var(base, 1, 0), Poly.const(base, 1, a),
                           Poly.const(base, 1, mu)],
                  lambda q: Poly.const(base, 1, one.scale_unit_fraction(q)))


def ep_witt(a: WittVector, mu: RingElement, D: int) -> Poly:
    """E_p(a_vec, mu; T) = prod_k E_p(a_k, mu^(p^k); T^(p^k)) truncated at
    degree D, a Poly over R in T; a vector over R/pi^t gives the series
    of its coordinates' canonical lifts."""
    ring = a.ring
    out = Poly.one(ExactBase(ring), 1)
    series = deformed_ah(ring.p, D)
    for k, c in enumerate(a.coords):
        q = ring.p ** k
        if q > D:
            break
        factor = specialize(series, c, mu ** q)
        # T -> T^q
        factor = Poly(out.base, 1, {(q * t,): v for (t,), v
                                    in factor.terms.items() if q * t <= D})
        out = _mul(out, factor, D)
    return out
