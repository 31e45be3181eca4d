"""Finitely presented Hopf algebras with triangular monic relations.

A presentation holds generators g_0..g_{n-1}, one optional relation per
generator (relation i monic in g_i, other terms of lower g_i-degree and
only earlier generators), the comultiplication as one polynomial per
generator in the 2n tensor variables (g_i (x) 1 at index i, 1 (x) g_i at
index n+i), the counit constants, the antipode, and designated units.

Finite presentations (every relation present) are free modules on the
monomials below the relation degrees; rank = product of the degrees.
Smooth presentations omit relations; their designated units carry no
polynomial inverse, so identities involving 1/u are verified on
LocalizedElement values by clearing denominators.  All designated units
are required to be group-like (Delta u = u (x) u, eps u = 1), which is
what makes denominators compose through comultiplications and morphisms.
The antipode of a smooth presentation is then a pair (num, den): num
divided by prod_i units[i]^den[i].  `to_json` writes such a pair as
{"num": <num as a polynomial>, "den": [...]}, a polynomial antipode as
a polynomial.

Every identity of this layer (the axiom laws, morphism checks, and the
kernel containment of models.ambient_isogeny) is decided as one
polynomial that must vanish, above one floor (`dvr.check_floor`): a
coefficient known to no digit (precision < 1) raises PrecisionError
rather than pass as zero.  The polynomial is the normal form of a
cleared LocalizedElement numerator in a finite presentation and the raw
numerator in a smooth one, except for morphisms between finite
presentations: those are checked linearly, in the monomial bases, each
identity one sum of products of normal forms (`check_morphism_family`).
The only comparisons made in the ring itself are counits, decided above
the same floor.

Base change to R/pi^t (`residue_fiber`) stays over the same ExactBase:
each coefficient becomes its canonical representative mod pi^t at
precision t, so every comparison on it is decided mod pi^t.  The special
fiber over F_p = R/pi is t = 1.

Antipode compatibility of morphisms is not checked separately: a
bialgebra morphism between Hopf algebras automatically commutes with the
antipodes (the antipode is the convolution inverse of the identity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .dvr import IndeterminateAtPrecision, RingElement, check_floor
from .errors import DivisibilityError, PrecisionError
from .poly import (Poly, TriangularRules, horner, normal_form,
                   sum_of_products)


@dataclass(frozen=True)
class UnitSpec:
    """A designated unit: its polynomial and, when the quotient is
    finite, an explicit polynomial inverse certificate."""

    poly: Poly
    inverse: Poly | None = None


@dataclass(frozen=True)
class HopfPresentation:
    base: object
    gens: tuple
    relations: tuple          # Poly | None per generator
    comult: tuple             # Poly in 2n variables per generator
    counit: tuple             # base element per generator
    antipode: tuple           # Poly | (num, den) pair per generator
    units: tuple = ()         # UnitSpec
    name: str = ""

    @property
    def ngens(self) -> int:
        return len(self.gens)

    @property
    def is_finite(self) -> bool:
        return all(r is not None for r in self.relations)

    def rank(self):
        if not self.is_finite:
            return None
        out = 1
        for i, r in enumerate(self.relations):
            out *= r.degree_in(i)
        return out

    @cached_property
    def rules(self) -> TriangularRules:
        """The relations, checked and prepared for normal forms once."""
        return TriangularRules(self.base, self.ngens, self.relations)

    @cached_property
    def square(self) -> "HopfPresentation":
        """tensor_power(self, 2), built once."""
        return tensor_power(self, 2)

    @cached_property
    def comult_memo(self) -> "MonomialMemo":
        """Delta on monomials, each value in normal form in the square,
        memoised as read."""
        sq = self.square
        return MonomialMemo(sq.one_poly(), [sq.nf(c) for c in self.comult],
                            sq.rules)

    def head_depth(self, most: int) -> int:
        """The largest k <= most for which the relations and Delta (in each
        tensor factor) of x_0..x_{k-1} involve only them, in a finite
        presentation: what `check_morphism_family` decides once."""
        n = self.ngens
        return max(k for k in range(most + 1) if not any(
            e for g in range(k) for poly in (self.relations[g], self.comult[g])
            for m in poly.terms for i, e in enumerate(m) if i % n >= k))

    def nf(self, poly: Poly) -> Poly:
        return normal_form(poly, self.rules)

    def var(self, i: int) -> Poly:
        return Poly.var(self.base, self.ngens, i)

    def one_poly(self) -> Poly:
        return Poly.one(self.base, self.ngens)

    def counit_of(self, poly: Poly):
        """Evaluate the counit (an algebra map to the base) on a polynomial.

        When every counit value is a structural zero, as in every build_g
        presentation, the value is the constant term, known to the least
        precision over the terms and the counit values of the variables
        that occur: the digits and precision `horner` gives.
        """
        if any(e.P for e in self.counit):
            return horner(poly, list(self.counit), lambda c: c)
        terms = poly.terms
        if not terms:
            return self.base.zero()
        prec = min(c.prec for c in terms.values())
        for i, e in enumerate(self.counit):
            if e.prec < prec and any(m[i] for m in terms):
                prec = e.prec
        c0 = terms.get((0,) * self.ngens)
        return RingElement(self.base.ring, 0 if c0 is None else c0.P, prec)

    def to_json(self):
        return {
            "base": repr(self.base),
            "generators": list(self.gens),
            "relations": [r.to_json() if r is not None else None
                          for r in self.relations],
            "comult": [c.to_json() for c in self.comult],
            "counit": [self.base.coeff_json(c) for c in self.counit],
            "antipode": [a.to_json() if isinstance(a, Poly)
                         else {"num": a[0].to_json(), "den": list(a[1])}
                         for a in self.antipode],
            "units": [u.poly.to_json() for u in self.units],
        }


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------

def tensor_power(pres: HopfPresentation, k: int) -> HopfPresentation:
    """The k-fold tensor power as a bare presentation in kn variables.

    Factor f holds generators f*n .. f*n + n - 1; the relations and the
    designated units (inverse certificates included) of each factor are
    those of `pres`, embedded.
    """
    n = pres.ngens

    def emb(poly, f):
        return None if poly is None else poly.embed(k * n, f * n)

    return HopfPresentation(
        base=pres.base,
        gens=tuple(g + "'" * (f + 1) for f in range(k) for g in pres.gens),
        relations=tuple(emb(r, f) for f in range(k) for r in pres.relations),
        comult=(),
        counit=pres.counit * k,
        antipode=(),
        units=tuple(UnitSpec(emb(u.poly, f), emb(u.inverse, f))
                    for f in range(k) for u in pres.units),
        name=" (x) ".join([pres.name] * k),
    )


# ---------------------------------------------------------------------------
# algebra maps on monomials (finite presentations)
# ---------------------------------------------------------------------------

class MonomialMemo:
    """An algebra map out of a polynomial ring, on monomials: the value on
    m is the normal form of value(m - e_k) * value(e_k), memoised as
    read.  `gens` are the values on the generators, already in normal
    form; `rules` are the codomain's, so every value is in normal form
    and a linear combination of values is too.

    k is the variable of m with the fewest terms in its value (ties: the
    first), so the largest value is multiplied only along the monomials
    that are pure in it, as in poly.horner.
    """

    __slots__ = ("one", "gens", "rules", "values", "order")

    def __init__(self, one: Poly, gens: list, rules: TriangularRules):
        self.one, self.gens, self.rules = one, gens, rules
        n = len(gens)
        self.values = {(0,) * n: one}
        self.values.update(((0,) * k + (1,) + (0,) * (n - 1 - k), g)
                           for k, g in enumerate(gens))
        self.order = sorted(range(n), key=lambda i: len(gens[i].terms))

    def __call__(self, m: tuple) -> Poly:
        out = self.values.get(m)
        if out is None:
            k = next(i for i in self.order if m[i])
            prev = m[:k] + (m[k] - 1,) + m[k + 1:]
            out = self.values[m] = self.rules.reduce_product(
                self(prev), self.gens[k])
        return out

    def pairs(self, poly: Poly):
        """(value(m), c_m) over the terms c_m m of poly, c_m as a constant
        of the codomain: their products sum to the value on poly.
        `poly._raw_sums` splits the second, one-term factor."""
        base, nv = self.one.base, self.one.nvars
        zero = (0,) * nv
        for m, c in poly.terms.items():
            yield self(m), Poly.from_nonzero(base, nv, {zero: c})

    def image(self, poly: Poly) -> Poly:
        """The value on poly, in normal form, in one accumulation."""
        return sum_of_products(self.pairs(poly), self.one.base,
                               self.one.nvars)


# ---------------------------------------------------------------------------
# localized elements (smooth presentations)
# ---------------------------------------------------------------------------

class LocalizedElement:
    """num / prod_i units[i]^den[i] over a presentation's coordinate ring.

    Valid because designated units are nonzerodivisors; equality is
    decided by clearing denominators.  `den` is a tuple of nonnegative
    exponents aligned with `pres.units`.
    """

    __slots__ = ("pres", "num", "den")

    def __init__(self, pres: HopfPresentation, num: Poly, den: tuple = None):
        self.pres = pres
        self.num = num
        self.den = den if den is not None else (0,) * len(pres.units)

    def _common(self, other: "LocalizedElement"):
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        x, y = self, other
        for i, e in enumerate(den):
            x = x.mul_unit_power(i, e - self.den[i])
            y = y.mul_unit_power(i, e - other.den[i])
        return x.num, y.num, den

    def __add__(self, other):
        other = self._coerce(other)
        n1, n2, den = self._common(other)
        return LocalizedElement(self.pres, n1 + n2, den)

    def __sub__(self, other):
        other = self._coerce(other)
        n1, n2, den = self._common(other)
        return LocalizedElement(self.pres, n1 - n2, den)

    def __neg__(self):
        return LocalizedElement(self.pres, -self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return LocalizedElement(
            self.pres, self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)))

    def _coerce(self, other):
        if isinstance(other, LocalizedElement):
            return other
        if isinstance(other, Poly):
            return LocalizedElement(self.pres, other)
        raise TypeError(other)

    def mul_unit_power(self, i: int, e: int) -> "LocalizedElement":
        """Multiply by units[i]^e, e >= 0."""
        num = self.num
        for _ in range(e):
            num = num * self.pres.units[i].poly
        return LocalizedElement(self.pres, num, self.den)

    def is_zero(self) -> bool:
        """Decided on the normal form of the numerator in a finite
        presentation and on the numerator itself in a smooth one, above
        the floor of `_is_zero_above_floor`."""
        return _is_zero_above_floor(
            self.pres.nf(self.num) if self.pres.is_finite else self.num)

    def eq(self, other: "LocalizedElement") -> bool:
        return (self - self._coerce(other)).is_zero()

    def clear_in_finite(self, pres_fin: HopfPresentation) -> Poly:
        """Image in a finite quotient, using the inverse certificates.

        The finite presentation must share the generator layout and
        declare the same units with polynomial inverses.
        """
        out = pres_fin.nf(self.num)
        for i, e in enumerate(self.den):
            inv = pres_fin.units[i].inverse
            if e and inv is None:
                raise DivisibilityError("no inverse certificate for unit")
            for _ in range(e):
                out = pres_fin.rules.reduce_product(out, inv)
        return out

    def __repr__(self):
        return f"LocalizedElement({self.num!r} / u^{self.den})"


def _is_zero_above_floor(x) -> bool:
    """Whether x, a Poly or a ring element, is zero, decided above the
    floor of `dvr.check_floor`."""
    check_floor(x.terms.values() if isinstance(x, Poly) else (x,),
                "a zero test")
    return x.is_zero()


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    coassoc: bool
    counit_law: bool
    antipode_law: bool
    commutativity: bool
    rank: int | None
    unit_certificates: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.coassoc and self.counit_law and self.antipode_law
                and self.unit_certificates)


def check_hopf_axioms(pres: HopfPresentation) -> AxiomReport:
    """Verify coassociativity, counit law, antipode law, cocommutativity
    and the designated-unit certificates: every law of `_laws` is one
    comparison, decided above the floor of `_is_zero_above_floor`.  A
    law whose failure is already reported (the second counit law of a
    generator) is not decided again."""
    flags = dict.fromkeys(("coassoc", "counit_law", "antipode_law",
                           "commutativity", "unit_certificates"), True)
    failures = []
    for flag, failure, lhs, rhs in _laws(pres):
        if failure in failures:
            continue
        diff = lhs - rhs
        if not (diff.is_zero() if isinstance(diff, LocalizedElement)
                else _is_zero_above_floor(diff)):
            flags[flag] = False
            failures.append(failure)
    return AxiomReport(rank=pres.rank(), failures=failures, **flags)


def _laws(pres: HopfPresentation):
    """(AxiomReport flag, failure, lhs, rhs) for every law, in report
    order.  lhs and rhs are LocalizedElement values over pres or its
    square or cube, except the counit of a designated unit, which is a
    comparison in the ring."""
    base, n = pres.base, pres.ngens
    sq, cube = pres.square, tensor_power(pres, 3)

    def var(k, i):
        return Poly.var(base, k * n, i)

    # coassociativity: (Delta x id) Delta = (id x Delta) Delta in the cube
    left = ([c.embed(3 * n, 0) for c in pres.comult]
            + [var(3, 2 * n + i) for i in range(n)])
    right = ([var(3, i) for i in range(n)]
             + [c.embed(3 * n, n) for c in pres.comult])
    for g, d in enumerate(pres.comult):
        yield ("coassoc", f"coassociativity fails on generator {g}",
               LocalizedElement(cube, d.subst(left)),
               LocalizedElement(cube, d.subst(right)))

    # counit laws: (eps x id) Delta = id = (id x eps) Delta.  Poly.const
    # drops a structural zero whatever its precision, so it is refused here
    check_floor(pres.counit, "a counit law")
    ids = [pres.var(i) for i in range(n)]
    eps = [Poly.const(base, n, c) for c in pres.counit]
    for g, d in enumerate(pres.comult):
        idg = LocalizedElement(pres, ids[g])
        for imgs in (eps + ids, ids + eps):
            yield ("counit_law", f"counit law fails on generator {g}",
                   LocalizedElement(pres, d.subst(imgs)), idg)

    # antipode law: m (sigma x id) Delta = unit . counit, with the
    # antipode as (num, den) pairs or polynomials
    imgs = [LocalizedElement(pres, *a) if isinstance(a, tuple)
            else LocalizedElement(pres, a) for a in pres.antipode]
    imgs += [LocalizedElement(pres, x) for x in ids]
    for g, d in enumerate(pres.comult):
        yield ("antipode_law", f"antipode law fails on generator {g}",
               _subst_localized(d, imgs, pres),
               LocalizedElement(pres, eps[g]))

    # cocommutativity (the group law is abelian), in the square
    swap = [var(2, n + i) for i in range(n)] + [var(2, i) for i in range(n)]
    for g, d in enumerate(pres.comult):
        yield ("commutativity", f"comultiplication not cocommutative at {g}",
               LocalizedElement(sq, d.subst(swap)), LocalizedElement(sq, d))

    # designated units: the inverse certificate in pres; without one,
    # group-likeness in the square (it makes the unit usable in
    # localized arithmetic) and counit 1
    k_units = len(pres.units)
    for k, u in enumerate(pres.units):
        if u.inverse is not None:
            yield ("unit_certificates", f"unit certificate {k} fails",
                   LocalizedElement(pres, u.poly * u.inverse),
                   LocalizedElement(pres, pres.one_poly()))
            continue
        yield ("unit_certificates", f"designated unit {k} not group-like",
               LocalizedElement(sq, u.poly.subst(list(pres.comult))),
               LocalizedElement(sq, sq.units[k].poly
                                * sq.units[k_units + k].poly))
        yield ("unit_certificates", f"designated unit {k} has counit != 1",
               pres.counit_of(u.poly), base.one())


def _subst_localized(poly: Poly, images: list, pres: HopfPresentation
                     ) -> LocalizedElement:
    """Substitute LocalizedElement images into a polynomial."""
    base, nv = images[0].num.base, images[0].num.nvars
    return horner(poly, images, lambda c: LocalizedElement(
        pres, Poly.const(base, nv, c)))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass
class HopfMorphism:
    """Group-scheme map source -> target = algebra map R[target] ->
    R[source]: one image (Poly or LocalizedElement over the source) per
    target generator.
    """

    source: HopfPresentation
    target: HopfPresentation
    images: tuple
    name: str = ""

    def localized_images(self) -> list:
        """The images as LocalizedElement values over the source."""
        return [im if isinstance(im, LocalizedElement)
                else LocalizedElement(self.source, im) for im in self.images]

    @cached_property
    def image_memo(self) -> MonomialMemo:
        """The map on target monomials, each image in normal form in a
        finite source, memoised as read."""
        src = self.source
        return MonomialMemo(src.one_poly(),
                            [im.clear_in_finite(src)
                             for im in self.localized_images()], src.rules)


def _in_factor(x: LocalizedElement, sq: HopfPresentation, f: int
               ) -> LocalizedElement:
    """x placed in tensor factor f (0 or 1) of the square sq."""
    n, zero = x.pres.ngens, (0,) * len(x.pres.units)
    den = x.den + zero if f == 0 else zero + x.den
    return LocalizedElement(sq, x.num.embed(2 * n, f * n), den)


def check_morphism(f: HopfMorphism) -> bool:
    """Relations of the target die in the source, counits agree, and
    Delta_src o f = (f (x) f) o Delta_tgt on every target generator.

    Between finite presentations the check is linear in the monomial
    bases, generator by generator on f's own memo (`_generator_holds`);
    it reads Delta_src on the source basis, so it rests on the source's
    comultiplication being well defined: Delta(r) = 0 in the square and
    eps(r) = 0 for every source relation r.  Otherwise the identities are
    compared as LocalizedElement values (`_check_morphism_localized`)."""
    if f.source.is_finite and f.target.is_finite:
        return all(_generator_holds(f, g) for g in range(f.target.ngens))
    return _check_morphism_localized(f)


def check_morphism_family(source: HopfPresentation, target: HopfPresentation,
                          head, tails):
    """check_morphism of the map with images head + tail for each tail (a
    tuple of the last images), between finite presentations, yielded in
    order.  The linear check decides generator by generator, so the
    first k = target.head_depth(len(head)) generators, and their
    memo values (the target monomials in x_0..x_{k-1}), are decided once;
    each tail decides the rest.  A verdict is that of the map checked
    alone, and where that check raises, the family raises there."""
    if not (source.is_finite and target.is_finite):
        raise ValueError("a family of morphisms needs finite presentations")
    k, known = target.head_depth(len(head)), None
    for tail in tails:
        f = HopfMorphism(source, target, (*head, *tail))
        F = f.image_memo
        if known is None:
            head_holds = all(_generator_holds(f, g) for g in range(k))
            known = {m: v for m, v in F.values.items() if not any(m[k:])}
        F.values.update(known)
        yield head_holds and all(_generator_holds(f, g)
                                 for g in range(k, target.ngens))


def _counits_agree(f: HopfMorphism) -> bool:
    src = f.source
    # group-like units have counit 1, so the denominator drops out
    return all(_is_zero_above_floor(src.counit_of(im.num) - e)
               for im, e in zip(f.localized_images(), f.target.counit))


def _check_morphism_localized(f: HopfMorphism) -> bool:
    """check_morphism by substitution into LocalizedElement values, each
    identity reduced once at the end."""
    src, tgt = f.source, f.target
    images = f.localized_images()
    if any(r is not None and not _subst_localized(r, images, src).is_zero()
           for r in tgt.relations):
        return False
    if not _counits_agree(f):
        return False
    sq = src.square
    delta = [LocalizedElement(sq, c) for c in src.comult]
    pair = ([_in_factor(im, sq, 0) for im in images]
            + [_in_factor(im, sq, 1) for im in images])
    for im, d in zip(images, tgt.comult):
        # Delta u = u (x) u for a designated unit u, so Delta(num / u^den)
        # = Delta(num) / (u^den (x) u^den)
        lhs = LocalizedElement(sq, _subst_localized(im.num, delta, sq).num,
                               im.den + im.den)
        if not lhs.eq(_subst_localized(d, pair, sq)):
            return False
    return True


def _generator_holds(f: HopfMorphism, g: int) -> bool:
    """The identities of target generator g under f, in the monomial bases
    of finite presentations.  With F the image of a target monomial in
    normal form (`HopfMorphism.image_memo`) and Delta of a source monomial
    in normal form in the square (`HopfPresentation.comult_memo`):

    * relation g, r = sum c_m m, dies when sum c_m F(m) = 0;
    * the counits of image g and of x_g agree;
    * Delta_src(f(x_g)) = sum c_m Delta(m) over the terms of F(x_g), and
      (f (x) f)(Delta_tgt x_g) = sum_a F(a) (x) (sum_b c_ab F(b)), grouped
      by the left exponent a: an outer product of normal forms is normal.

    Each identity is one accumulation of raw products (`sum_of_products`),
    so both sides are normal forms and the difference is compared
    coefficient by coefficient, above the floor of
    `_is_zero_above_floor`."""
    src, tgt = f.source, f.target
    F, n, nt = f.image_memo, src.ngens, tgt.ngens
    base = src.base
    if not _is_zero_above_floor(F.image(tgt.relations[g])):
        return False
    # the counit, read off the numerator as in _counits_agree
    if not _is_zero_above_floor(src.counit_of(
            f.localized_images()[g].num) - tgt.counit[g]):
        return False
    # rows hold -c_ab, so that one sum is lhs - rhs
    rows = {}
    for m, c in tgt.comult[g].terms.items():
        rows.setdefault(m[:nt], {})[m[nt:]] = -c
    rhs = ((F(a).embed(2 * n, 0),
            F.image(Poly.from_nonzero(base, nt, row)).embed(2 * n, n))
           for a, row in rows.items())
    lhs = src.comult_memo.pairs(F.gens[g])
    return _is_zero_above_floor(sum_of_products(
        itertools.chain(lhs, rhs), base, 2 * n))


def det_valuation(matrix):
    """Valuation of the determinant over R, by min-valuation pivoting.

    Returns an int, or None when the determinant is indistinguishable
    from 0 at working precision.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    total = 0
    for col in range(n):
        pivot_row, pivot_val = None, None
        for r in range(col, n):
            v = m[r][col].valuation()
            if isinstance(v, IndeterminateAtPrecision):
                continue
            if pivot_val is None or v < pivot_val:
                pivot_row, pivot_val = r, v
        if pivot_row is None:
            return None
        m[col], m[pivot_row] = m[pivot_row], m[col]
        total += pivot_val
        piv = m[col][col]
        for r in range(col + 1, n):
            entry = m[r][col]
            if entry.is_zero():
                continue
            factor = entry.divide_exact(piv)
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return total


def _map_det_valuation(f: HopfMorphism):
    """det_valuation of the matrix of f in the monomial bases (rows the
    source basis, columns the target basis), or None when f is not a
    morphism or the ranks differ.  Raises ValueError unless both
    presentations are finite."""
    if not check_morphism(f):
        return None
    if not (f.source.is_finite and f.target.is_finite):
        raise ValueError("model-map check needs finite presentations")
    if f.source.rank() != f.target.rank():
        return None
    basis_t, basis_s = (
        list(itertools.product(*[range(r.degree_in(i))
                                 for i, r in enumerate(pres.relations)]))
        for pres in (f.target, f.source))
    index_s = {m: i for i, m in enumerate(basis_s)}
    rows = [[f.source.base.zero()] * len(basis_t) for _ in basis_s]
    for j, m in enumerate(basis_t):
        for mm, c in f.image_memo(m).terms.items():
            rows[index_s[mm]][j] = c
    return det_valuation(rows)


def is_model_map(f: HopfMorphism) -> bool:
    """Morphism that is an isomorphism after inverting pi: the basis
    matrix determinant has determinate finite valuation."""
    return _map_det_valuation(f) is not None


def is_isomorphism(f: HopfMorphism) -> bool:
    """Model map whose determinant is a unit."""
    return _map_det_valuation(f) == 0


# ---------------------------------------------------------------------------
# residue fiber
# ---------------------------------------------------------------------------

def coeff_mod_pi(c: RingElement) -> int:
    """The residue of c in F_p; c must be known mod pi (mod_pi raises
    PrecisionError otherwise)."""
    return c.mod_pi(1).P


def residue_fiber(pres: HopfPresentation, t: int = 1) -> HopfPresentation:
    """Base change to R/pi^t: every coefficient becomes its canonical
    representative mod pi^t (pi-adic digits in [0, p)) at precision t,
    and coefficients = 0 mod pi^t drop out.  t = 1 is the special fiber
    over F_p = R/pi, each coefficient its residue digit.  A coefficient
    known below pi^t raises PrecisionError, and so does t < 1: over the
    zero ring R/pi^0 every identity holds vacuously."""
    if t < 1:
        raise PrecisionError(f"no decision can be made over R/pi^{t}")

    def res(c):
        return c.mod_pi(t)

    def red(poly):
        return poly.map_coeffs(res) if poly is not None else None

    return HopfPresentation(
        base=pres.base,
        gens=pres.gens,
        relations=tuple(red(r) for r in pres.relations),
        comult=tuple(red(c) for c in pres.comult),
        counit=tuple(res(c) for c in pres.counit),
        antipode=tuple(red(a) if isinstance(a, Poly) else (red(a[0]), a[1])
                       for a in pres.antipode),
        units=tuple(UnitSpec(red(u.poly), red(u.inverse))
                    for u in pres.units),
        name=pres.name + (" (special fiber)" if t == 1 else f" mod pi^{t}"),
    )
