"""Multivariate polynomials over pluggable coefficient bases.

A base is a thin adapter exposing zero/one/is_zero/prune_zero/eq/
coeff_json; the coefficients themselves are combined with +, - and *.
ExactBase holds elements of R, each at its own pi-adic precision;
QQBase holds exact rationals (the Artin-Hasse series over Q).

A polynomial over a quotient R/pi^t R is an ExactBase polynomial whose
coefficients are at precision t: R/pi^t is R known mod pi^t, and every
coefficient comparison is decided mod pi^t.  The residue field
F_p = R/pi is the case t = 1.

Polynomials are sparse dicts {exponent tuple: coefficient}.  Arithmetic
allows negative exponents, so a Poly can be a Laurent polynomial
(artin_hasse inverts L this way).  Normal forms modulo a triangular
monic relation system (relation i monic of degree d_i in variable i,
its other terms of lower degree in variable i and involving only
variables j <= i) are computed in one descending pass: the variables
from last to first, the exponents of each from the top down.  A rewrite
only lowers the exponent of variable i, so the pass terminates with
every monomial rewritten at most once.  Each monomial sums the raw
products that land on it and is reduced once; its precision is the
least min(prec) over those products.

Over ExactBase every polynomial product goes through one packed kernel
(`_raw_sums`): it sums the raw products of the resident integers of a
list of pairs per output monomial.  A product is its one-pair case, a
sum of products (`sum_of_products`) reduces each monomial once, and a
product whose normal form is wanted (`TriangularRules.reduce_product`)
enters the normal-form pass unreduced.  The second operand's residents
are taken without their zero low slots, which are shifted back onto
each raw product.  A product of two operands in 2n variables, each
invariant under swapping the first and the last n (the same digits and
precision at m and at its mirror), is invariant too: only its monomials
m with m[:n] <= m[n:] are summed, and each mirror gets the same element
(`_packed_product`).  Operands over another base or in another number
of variables raise ValueError.

Over QQBase every product goes through its rational counterpart
(`_rational_product`): each operand as integer numerators over the lcm
of its denominators, the integer products of each output monomial
summed, and one Fraction, so one gcd, per output term; it can leave out
the terms above a degree in variable 0 (the truncated series of
artin_hasse).

Substitution (`horner`) nests the variables by the size of their
images, the largest outermost: the outer image is multiplied the fewest
times.  The order changes no digit of a result; a tracked precision is
a lower bound in any order, and can differ between orders.  Over QQBase
a substitution of images with at most one term each is an exponent map
(`_monomial_subst`): every term lands on one monomial.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from operator import add, neg, sub

from .dvr import RAW_PRODUCTS, RingDescriptor, RingElement, check_floor
from .errors import DivisibilityError, ValuationError


class ExactBase:
    """Coefficients in R itself, compared at stored precision."""

    def __init__(self, ring: RingDescriptor):
        self.ring = ring

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def is_zero(self, a):
        return a.is_zero()

    def eq(self, a, b):
        return (a - b).is_zero()

    def prune_zero(self, a):
        # Only structural zeros may be dropped from polynomials: an
        # element that merely vanishes at its stored precision still
        # carries "known only mod pi^prec" information for its monomial.
        return not a.P

    def coeff_json(self, a):
        return a.to_json()

    def __eq__(self, other):
        return isinstance(other, ExactBase) and other.ring is self.ring

    def __repr__(self):
        return f"ExactBase(p={self.ring.p})"


class QQBase:
    """Exact rational coefficients."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def is_zero(self, a):
        return a == 0

    prune_zero = is_zero

    def eq(self, a, b):
        return a == b

    def coeff_json(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, QQBase)

    def __repr__(self):
        return "QQBase()"


class Poly:
    """Sparse multivariate polynomial over a coefficient base.

    No term holds a structural zero (`base.prune_zero`): `degree_in` and
    the rank of a presentation read the monomials of the terms.
    """

    __slots__ = ("base", "nvars", "terms")

    def __init__(self, base, nvars: int, terms: dict):
        self.base = base
        self.nvars = nvars
        drop = base.prune_zero
        self.terms = {m: c for m, c in terms.items() if not drop(c)}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_nonzero(cls, base, nvars, terms: dict):
        """A Poly on a terms dict its builder has kept free of structural
        zeros; the dict is taken as it is."""
        self = object.__new__(cls)
        self.base, self.nvars, self.terms = base, nvars, terms
        return self

    @classmethod
    def zero(cls, base, nvars):
        return cls(base, nvars, {})

    @classmethod
    def const(cls, base, nvars, c):
        return cls(base, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, base, nvars):
        return cls.const(base, nvars, base.one())

    @classmethod
    def var(cls, base, nvars, i, c=None):
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(base, nvars, {m: base.one() if c is None else c})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._merge(other, add, lambda c: c)

    def __neg__(self) -> "Poly":
        return Poly.from_nonzero(self.base, self.nvars,
                                 {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        # term by term: a negated copy of other would double the peak
        # memory of comparing two large polynomials
        return self._merge(other, sub, neg)

    def _merge(self, other, op, single):
        """self op other, term by term; only a sum on a monomial of both
        can be a structural zero, so only those are tested."""
        drop = self.base.prune_zero
        out = dict(self.terms)
        for m, c in _terms_in(other, self.base, self.nvars).items():
            if m not in out:
                out[m] = single(c)
            elif drop(s := op(out[m], c)):
                del out[m]
            else:
                out[m] = s
        return Poly.from_nonzero(self.base, self.nvars, out)

    def __mul__(self, other: "Poly") -> "Poly":
        kernel = (_packed_product if isinstance(self.base, ExactBase)
                  else _rational_product)
        return Poly.from_nonzero(self.base, self.nvars, kernel(
            self.terms, _terms_in(other, self.base, self.nvars)))

    def scale(self, c) -> "Poly":
        return Poly(self.base, self.nvars,
                    {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n == 0:
            return Poly.one(self.base, self.nvars)
        result, b = None, self
        while True:
            if n & 1:
                result = b if result is None else result * b
            n >>= 1
            if not n:
                return result
            b = b * b

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        """All coefficients indistinguishable from zero at their stated
        precision."""
        return all(self.base.is_zero(c) for c in self.terms.values())

    def eq(self, other: "Poly") -> bool:
        return (self - other).is_zero()

    def degree_in(self, i: int) -> int:
        return max((m[i] for m in self.terms), default=-1)

    def coefficient(self, monomial: tuple):
        return self.terms.get(monomial, self.base.zero())

    def map_coeffs(self, fn) -> "Poly":
        return Poly(self.base, self.nvars,
                    {m: fn(c) for m, c in self.terms.items()})

    def div_scalar(self, d) -> "Poly":
        """Exact coefficient-wise division by a base element (ExactBase);
        the divisor is prepared once for all coefficients."""
        try:
            return self.map_coeffs(d.divisor())
        except ValuationError as exc:
            raise DivisibilityError(str(exc)) from exc

    def embed(self, nvars: int, offset: int) -> "Poly":
        """Reindex into a larger variable set at the given offset."""
        out = {}
        for m, c in self.terms.items():
            mm = (0,) * offset + m + (0,) * (nvars - offset - self.nvars)
            out[mm] = c
        return Poly.from_nonzero(self.base, nvars, out)

    def subst(self, images: list["Poly"]) -> "Poly":
        """Substitute images[i] for variable i (algebra map on generators).

        All images must share a base and variable count; coefficients are
        carried over unchanged.  Over QQBase, when no image has more than
        one term, each term lands on one monomial (`_monomial_subst`);
        every other substitution goes through `horner`.
        """
        nv, base = images[0].nvars, images[0].base
        if isinstance(base, QQBase) and all(len(x.terms) <= 1
                                            for x in images):
            return Poly.from_nonzero(base, nv, _monomial_subst(
                self.terms, images, nv))
        return horner(self, images, lambda c: Poly.const(base, nv, c))

    def to_json(self):
        return {"nvars": self.nvars,
                "terms": [{"monomial": list(m),
                           "coeff": self.base.coeff_json(c)}
                          for m, c in sorted(self.terms.items())]}

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(m) if k) or "1"
            bits.append(f"({c!r})*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def sum_of_products(pairs, base, nvars: int) -> Poly:
    """sum a*b over pairs (a, b) of ExactBase polynomials in nvars
    variables, in one accumulation (`_raw_sums`): each monomial sums the
    raw products that land on it and is reduced once."""
    return Poly.from_nonzero(base, nvars, _settled(*_raw_sums(
        (_terms_in(a, base, nvars), _terms_in(b, base, nvars))
        for a, b in pairs)))


def _terms_in(x: Poly, base, nvars: int) -> dict:
    """The terms of x, which must be over base in nvars variables: a
    polynomial of another ring raises ValueError."""
    if x.nvars != nvars or x.base is not base and x.base != base:
        raise ValueError(f"operands from different rings: {x.base!r} in "
                         f"{x.nvars} variables, {base!r} in {nvars}")
    return x.terms


def _packed_product(ta: dict, tb: dict) -> dict:
    """The terms of the product of two term dicts over ExactBase: the
    one-pair case of `_raw_sums`, each sum reduced once.

    When both operands are swap-invariant in 2n variables (`_swap_half`),
    so is their product: only its monomials m with m[:n] <= m[n:] are
    summed, the smaller operand sorted for the row bound, and each one's
    mirror m[n:] + m[:n] gets the same element.  The keys then come as
    the kept monomials in first-occurrence order, each followed by its
    mirror.
    """
    n = _swap_half(ta, tb)
    if not n:
        return _settled(*_raw_sums(((ta, tb),)))
    if len(ta) < len(tb):
        ta, tb = tb, ta
    out = {}
    for m, c in _settled(*_raw_sums(((ta, tb),), n)).items():
        out[m] = out[m[n:] + m[:n]] = c
    return out


def _swap_half(ta: dict, tb: dict) -> int:
    """n when both term dicts are in 2n > 0 variables (read off the first
    key of ta) and each is invariant under swapping its first and last n
    variables: the same digits and precision at m and at its mirror
    m[n:] + m[:n].  0 otherwise."""
    n, odd = divmod(len(next(iter(ta), ())), 2)
    if odd or not n:
        return 0
    for terms in (ta, tb):
        for m, c in terms.items():
            d = terms.get(m[n:] + m[:n])
            if d is None or d.P != c.P or d.prec != c.prec:
                return 0
    return n


def _raw_sums(pairs, half: int = 0) -> tuple:
    """(ring, raw sums) of sum a*b over pairs (a, b) of term dicts over
    ExactBase: the packed kernel.

    The raw products of the resident integers of each output monomial are
    summed, over all pairs, into {monomial: [raw sum, precision, number
    of products in the sum]}; the precision is the least operand
    precision over its products.  A sum about to take its
    (RAW_PRODUCTS + 1)-th product is first reduced, and counts as one
    product, so no sum holds more than RAW_PRODUCTS products and only a
    full sum is reduced early.  Keys come in first-occurrence order, as
    in the generic product loop.  The ring is None when no pair has a
    term.  Each term of b is split once (`_split_terms`) into its
    resident without its zero low slots and their width s, and each
    product is formed as (x1 * x2') << s: the same integer, without the
    zero digits CPython would multiply (the images of the ambient
    isogeny check are full of c pi^k, c an integer).

    With half = n > 0 every pair must be swap-invariant in 2n variables
    (`_swap_half`), and only the monomials m with m[:n] <= m[n:]
    (lexicographic) are summed.  That order is compatible with addition,
    so m1 + m2 is kept exactly when lag(m2) <= -lag(m1), lag(m) =
    m[:n] - m[n:]: with the terms of b sorted by lag, the terms of b kept
    in the row of a term of a are a prefix, found by one bisect.
    """
    acc, ring = {}, None
    for ta, tb in pairs:
        if not ta or not tb:
            continue
        if ring is None:
            ring = next(iter(ta.values())).ring
        pb = _split_terms(tb, ring)
        if half:
            pb.sort(key=lambda t: _lag(t[0], half))
            lags = [_lag(t[0], half) for t in pb]
        for m1, c1 in ta.items():
            x1, p1 = _resident(c1, ring), c1.prec
            row = pb if not half else pb[:bisect_right(
                lags, _lag(m1[half:] + m1[:half], half))]
            for m2, x2, shift, p2 in row:
                m = tuple(map(add, m1, m2))
                prec = p1 if p1 < p2 else p2
                s = acc.get(m)
                if s is None:
                    acc[m] = [x1 * x2 << shift, prec, 1]
                    continue
                if s[2] == RAW_PRODUCTS:
                    s[0], s[2] = ring._reduce_raw(s[0]), 1
                s[0] += x1 * x2 << shift
                s[2] += 1
                if prec < s[1]:
                    s[1] = prec
    return ring, acc


def _split_terms(terms: dict, ring) -> list:
    """[(monomial, x >> s, s, precision)] for the terms of a term dict, x
    the resident of the coefficient and s = W times the index of its
    lowest nonzero slot: x * y is (x >> s) * y << s, and the shorter
    product skips the zero digits that CPython would multiply.  A
    resident whose slot 0 is nonzero, or that is 0 (s < 0), is kept as
    it is with s = 0, not copied."""
    W, out = ring.W, []
    for m, c in terms.items():
        x = _resident(c, ring)
        s = ((x & -x).bit_length() - 1) // W * W
        out.append((m, x >> s, s, c.prec) if s > 0 else (m, x, 0, c.prec))
    return out


def _lag(m: tuple, n: int) -> tuple:
    """m[:n] - m[n:], the key of the row bound of `_raw_sums`."""
    return tuple(map(sub, m[:n], m[n:]))


def _settled(ring, acc: dict) -> dict:
    """The terms of raw sums {monomial: [raw sum, precision, count]}: each
    sum reduced once, and a sum that reduces to a structural zero
    dropped."""
    if not acc:
        return {}
    reduce, out = ring._reduce_raw, {}
    for m, (x, prec, _) in acc.items():
        x = reduce(x)
        if x:
            out[m] = RingElement(ring, x, prec)
    return out


def _rational_product(ta: dict, tb: dict, cap: int | None = None) -> dict:
    """The terms of the product of two term dicts over QQBase, without
    the terms of degree above `cap` in variable 0 when a cap is given
    (none of them is formed).

    Each operand is written as integer numerators over the lcm of its
    denominators, d_a and d_b; the integer products of each output
    monomial are summed, and each nonzero sum s becomes one
    Fraction(s, d_a d_b): one gcd per output term, not one per product.
    Keys come in first-occurrence order; exponents may be negative.
    """
    if not ta or not tb:
        return {}
    da, na = _over_lcm(ta)
    db, nb = _over_lcm(tb)
    if cap is not None:
        nb.sort(key=lambda t: t[0][0])
        degrees = [m[0] for m, _ in nb]
    acc = {}
    get = acc.get
    for m1, x1 in na:
        row = nb if cap is None else nb[:bisect_right(degrees, cap - m1[0])]
        for m2, x2 in row:
            m = tuple(map(add, m1, m2))
            acc[m] = get(m, 0) + x1 * x2
    d = da * db
    return {m: Fraction(s, d) for m, s in acc.items() if s}


def _over_lcm(terms: dict) -> tuple:
    """(d, [(monomial, numerator)]) with every coefficient numerator/d,
    d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(m, c.numerator * (d // c.denominator))
               for m, c in terms.items()]


def _monomial_subst(terms: dict, images: list, nvars: int) -> dict:
    """The terms of the substitution of one-term-or-zero QQBase images
    for the variables of a term dict.

    For the images c_i x^(m_i), the term c x^k lands on the one monomial
    sum_i k_i m_i, with coefficient c prod_i c_i^(k_i), kept as an
    integer numerator and denominator; the parts on each monomial are
    summed over the lcm of their denominators into one Fraction.  A zero
    image is c_i = 0: it kills every term in which its variable occurs
    to a positive power, and a negative power of it raises
    ZeroDivisionError.
    """
    zero = (0,) * nvars
    imgs = [next(iter(x.terms.items()), (zero, Fraction(0)))
            for x in images]
    acc = {}
    for m, c in terms.items():
        mm, n, q = zero, c.numerator, c.denominator
        for k, (mi, ci) in zip(m, imgs):
            if k:
                mm = tuple(a + k * b for a, b in zip(mm, mi))
                a, b = ci.numerator, ci.denominator
                if k < 0:
                    a, b, k = b, a, -k
                n, q = n * a ** k, q * b ** k
        acc.setdefault(mm, []).append((n, q))
    out = {}
    for mm, parts in acc.items():
        d = lcm(*(q for _, q in parts))
        s = sum(n * (d // q) for n, q in parts)
        if s:
            out[mm] = Fraction(s, d)
    return out


def _resident(c, ring) -> int:
    if c.ring is not ring:
        raise ValueError("operands from different rings")
    return c.P


def horner(poly: Poly, images: list, const):
    """poly evaluated at images[i] for variable i, by nested Horner.

    The images may be any ring values (Poly, LocalizedElement, ring
    constants) closed under + and *; `const(c)` turns a coefficient into
    such a value.  The terms are grouped by the exponent of the outermost
    variable, each group is evaluated recursively in the inner variables,
    and the groups are combined as (..(h_K x^(K-k) + h_k) x^(k-k') + ..)
    x^k_min.  A gap of g between exponents costs g products; no power of
    an image is stored.

    Every exponent must be >= 0: a negative one raises ValueError.
    (Poly.subst sends a Laurent polynomial over QQBase with one-term
    images to `_monomial_subst` instead.)

    The outer variable's image is multiplied at most deg times in all,
    an inner one's again inside every outer group.  So the variables are
    nested by the size of their images, the largest outermost: a Poly
    counts its terms, a LocalizedElement the terms of its numerator and
    a ring constant one; ties keep index order.
    """
    if not poly.terms:
        return const(poly.base.zero())
    order = sorted(range(poly.nvars), key=lambda i: -_size(images[i]))
    return _horner(list(poly.terms.items()), order, 0, images, const)


def _size(image) -> int:
    """Terms of a Poly or of a LocalizedElement's numerator; 1 else."""
    terms = getattr(getattr(image, "num", image), "terms", None)
    return 1 if terms is None else len(terms)


def _horner(items, order, pos, images, const):
    nv = len(order)
    while pos < nv and not any(m[order[pos]] for m, _ in items):
        pos += 1
    if pos == nv:
        # all exponents from pos on are zero: a single (monomial, coeff)
        return const(items[0][1])
    i = order[pos]
    groups = {}
    for m, c in items:
        groups.setdefault(m[i], []).append((m, c))
    x = images[i]
    acc, prev = None, 0
    for k in sorted(groups, reverse=True):
        val = _horner(groups[k], order, pos + 1, images, const)
        if acc is None:
            acc = val
        else:
            for _ in range(prev - k):
                acc = acc * x
            acc = acc + val
        prev = k
    if prev < 0:
        raise ValueError(f"negative exponent {prev} of variable {i}")
    for _ in range(prev):
        acc = acc * x
    return acc


def normal_form(poly: Poly, relations) -> Poly:
    """Reduce modulo a triangular monic relation system: a list of
    relations, or the TriangularRules prepared from one (see there for
    the system and the pass).  A system used more than once is better
    prepared once, as HopfPresentation.nf does."""
    if not isinstance(relations, TriangularRules):
        relations = TriangularRules(poly.base, poly.nvars, relations)
    return relations.reduce(poly)


class TriangularRules:
    """A triangular monic relation system, checked and read once.

    `relations[i]` is either None (no relation on variable i) or a Poly
    whose x_i^d_i coefficient is one at its precision and whose other
    terms have x_i-degree below d_i and involve only variables j <= i;
    any other system raises ValueError.  Relation i rewrites x_i^d_i as
    minus its other terms.  Only ExactBase polynomials have a normal
    form; any other base raises TypeError.
    """

    __slots__ = ("base", "nvars", "rules")

    def __init__(self, base, nvars: int, relations: list):
        if not isinstance(base, ExactBase):
            raise TypeError(f"normal_form over {base!r}")
        if len(relations) != nvars:
            raise ValueError(f"{len(relations)} relations for {nvars} "
                             "variables")
        self.base, self.nvars = base, nvars
        ring, one = base.ring, base.one()
        # (i, d_i, [(monomial, P, prec)] of the other terms), last
        # variable first
        self.rules = []
        for i in reversed(range(nvars)):
            r = relations[i]
            if r is None:
                continue
            if r.base != base or r.nvars != nvars:
                raise ValueError(f"relation {i} is over another base or "
                                 "variable set")
            d = r.degree_in(i)
            tail = (0,) * (nvars - 1 - i)
            lead = (0,) * i + (d,) + tail
            c = r.terms.get(lead)
            # resident 1 is an exact one; any other lead is compared above
            # the floor of one known digit
            if c is not None and _resident(c, ring) != 1:
                check_floor((c,), f"whether relation {i} is monic")
            if c is None or _resident(c, ring) != 1 and not base.eq(c, one):
                raise ValueError(f"relation {i} is not monic in x{i}")
            lower = [(m, _resident(c, ring), c.prec)
                     for m, c in r.terms.items() if m != lead]
            for m, _, _ in lower:
                if m[i] == d or m[i + 1:] != tail:
                    raise ValueError(f"relation {i} is not triangular: its "
                                     f"term {m} is not below x{i}^{d}")
            self.rules.append((i, d, lower))

    def reduce(self, poly: Poly) -> Poly:
        """The normal form of poly, in one pass: the variables from last
        to first, and the exponents of each from the top down to d_i.

        A rewrite lowers the exponent of x_i and leaves the later
        variables alone, so every monomial is rewritten at most once,
        after every contribution to it has arrived, and the pass ends.
        Each monomial holds a raw sum of the resident products that land
        on it, reduced once when it is rewritten or at the end, and early
        before it could hold more than RAW_PRODUCTS products.  Its
        precision is the least min(prec) over those products, a sum that
        cancels to zero included; a leading one counts as exact.  A sum
        that reduces to a structural zero is dropped at the end.  A poly
        with no term of x_i-degree d_i or more for any rule is already in
        normal form and comes back as it is.
        """
        terms = _terms_in(poly, self.base, self.nvars)
        if not any(m[i] >= d for m in terms for i, d, _ in self.rules):
            return poly
        ring = self.base.ring
        return self._rewrite({m: [_resident(c, ring), c.prec, 1]
                              for m, c in terms.items()})

    def reduce_product(self, a: Poly, b: Poly) -> Poly:
        """The normal form of a*b: the raw sums of the packed product
        (`_raw_sums`) enter the pass of `reduce` as they are, so each
        monomial is reduced once."""
        base, nv = self.base, self.nvars
        ring, acc = _raw_sums(((_terms_in(a, base, nv),
                                _terms_in(b, base, nv)),))
        if ring is not None and ring is not base.ring:
            raise ValueError("operands from different rings")
        return self._rewrite(acc)

    def _rewrite(self, acc: dict) -> Poly:
        """The pass of `reduce` on raw sums {monomial: [raw sum, precision,
        number of products in the sum]}, which it consumes."""
        ring = self.base.ring
        reduce, negate = ring._reduce_raw, ring._negate
        for i, d, lower in self.rules:
            hot = {}
            for m in acc:
                if m[i] >= d:
                    hot.setdefault(m[i], []).append(m)
            for k in range(max(hot, default=d - 1), d - 1, -1):
                for m in hot.pop(k, ()):
                    x, prec, _ = acc.pop(m)
                    x = negate(reduce(x))
                    head = m[:i] + (k - d,) + m[i + 1:]
                    for rm, rx, rprec in lower:
                        mm = tuple(map(add, head, rm))
                        q = prec if prec < rprec else rprec
                        s = acc.get(mm)
                        if s is None:
                            acc[mm] = [x * rx, q, 1]
                            if mm[i] >= d:
                                hot.setdefault(mm[i], []).append(mm)
                            continue
                        if s[2] == RAW_PRODUCTS:
                            s[0], s[2] = reduce(s[0]), 1
                        s[0] += x * rx
                        s[2] += 1
                        if q < s[1]:
                            s[1] = q
        return Poly.from_nonzero(self.base, self.nvars, _settled(ring, acc))
