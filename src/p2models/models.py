"""Constructors and classifiers for the order-p^2 models.

Conventions.  Models are keyed by valuations: mu = pi^m, lam = pi^n with
p >= m >= n >= 0 (unit ambiguity is absorbed into the parameter a).  A
descriptor (m, n, a, j) stands for the extension with relations

    (1+mu S1)^p - 1) / mu^p,
    ((F(S1) + lam S2)^p - (1+mu S1)^j) / lam^p,      F = sum a^i/i! S1^i,

the second stored in its unit-normalized monic form.  The parameter
group Phi_{mu,lam} consists of the pairs (a, j) with a^p = 0 mod pi^n
and p*a - j*mu = (p/mu^(p-1)) a^p mod pi^(pn); extensions with j != 0
are exactly the models of the constant group of order p^2 on the
generic fiber, and (m, n, a mod pi^n) with j = 1 classifies them.

A class of R/pi^t (a mod pi^n, a coefficient of a Hom row) is the
RingElement x.mod_pi(t) at precision t; x.with_prec(ring.full_prec) is
its canonical lift.

The extension builders take their S1 factor, with its unit, antipode
and comultiplication, from build_g(ring, mu, 1) or build_g_smooth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .artin_hasse import ep_coeffs, ep_poly_special
from .dvr import (IndeterminateAtPrecision, QuotElement, RingDescriptor,
                  RingElement, enumerate_quotient, eq_mod, eta)
from .errors import (BudgetError, DivisibilityError, InputError,
                     LinearSolveError, P2ModelsError, ValuationError)
from .hopf import (HopfMorphism, HopfPresentation, LocalizedElement,
                   UnitSpec, check_morphism, check_morphism_family,
                   is_model_map, residue_fiber)
from .poly import ExactBase, Poly, normal_form
from .witt import (WittVector, is_frobenius_kernel, mult_by_p,
                   psi_star_image)


def _check_cell(ring: RingDescriptor, m: int, n: int):
    """Refuse a cell outside p >= m >= n >= 0."""
    if not (ring.p >= m >= n >= 0):
        raise InputError(
            f"need p >= m >= n >= 0, got p={ring.p}, m={m}, n={n}")


def _check_budget(ring: RingDescriptor, count: int, budget: int | None):
    """Refuse an enumeration of more than `budget` candidates, by
    default p^9."""
    budget = ring.p ** 9 if budget is None else budget
    if count > budget:
        raise BudgetError(f"{count} candidates exceed budget {budget}")


def poly_in_var(base, nvars: int, var: int, coeffs) -> Poly:
    """sum coeffs[k] * x_var^k; Poly drops the structural zeros."""
    return Poly(base, nvars, {
        tuple(k if i == var else 0 for i in range(nvars)): c
        for k, c in enumerate(coeffs)})


def kummer_poly(ring: RingDescriptor, lam: RingElement, N: int,
                nvars: int = 1, var: int = 0,
                divisor: RingElement | None = None) -> Poly:
    """((1+lam x)^N - 1)/divisor as a Poly in x = x_var of nvars
    variables: the coefficient of x^k is C(N,k) lam^k / divisor.  The
    divisor defaults to lam^N, which for N = p^n gives P_{lam,n}, and is
    prepared once.

    Exists exactly under the degree condition; raises ValuationError if
    some binomial is not divisible.
    """
    coeffs = [ring.zero()]
    if N:
        divide = (lam ** N if divisor is None else divisor).divisor()
        coeffs += [divide(ring.from_int(math.comb(N, k)) * lam ** k)
                   for k in range(1, N + 1)]
    return poly_in_var(ExactBase(ring), nvars, var, coeffs)


def digit_string(a: RingElement) -> str:
    """The pi-adic digits of a class a mod pi^t, dot-separated, or "0"."""
    return ".".join(map(str, a.pi_digit_expansion(a.prec))) or "0"


def _row_key(row) -> list:
    return [c.pi_digit_expansion(c.prec) for c in row]


def star_condition(ring: RingDescriptor, lam: RingElement, n: int) -> bool:
    """(*): v(p) >= p^(n-1)(p-1) v(lam)."""
    v = lam.valuation()
    if isinstance(v, IndeterminateAtPrecision):
        raise ValuationError("lam valuation indeterminate")
    return ring.e >= ring.p ** (n - 1) * (ring.p - 1) * v


# ---------------------------------------------------------------------------
# the groups G_{lam,n} and G^(lam)
# ---------------------------------------------------------------------------

def build_g(ring: RingDescriptor, lam: RingElement, n: int) -> HopfPresentation:
    """Finite kernel group of the degree-p^n isogeny: R[T]/P_{lam,n}(T),
    build_g_smooth(ring, lam) with the relation and polynomial inverses."""
    if not star_condition(ring, lam, n):
        raise ValuationError(
            "condition (*) fails: v(p) < p^(n-1)(p-1) v(lam)")
    smooth = build_g_smooth(ring, lam)
    N = ring.p ** n
    rel = kummer_poly(ring, lam, N)
    # antipode: ((1+lam T)^(N-1) - 1)/lam, a polynomial
    anti_coeffs = [ring.zero()]
    for k in range(1, N):
        anti_coeffs.append(
            ring.from_int(math.comb(N - 1, k)) * lam ** (k - 1))
    unit_poly = smooth.units[0].poly
    return replace(
        smooth, relations=(rel,),
        antipode=(poly_in_var(smooth.base, 1, 0, anti_coeffs),),
        units=(UnitSpec(unit_poly, normal_form(unit_poly ** (N - 1), [rel])),),
        name=f"G(v(lam)={lam.valuation()}, n={n})")


def build_g_smooth(ring: RingDescriptor, lam: RingElement) -> HopfPresentation:
    """The smooth deformation R[T, 1/(1+lam T)] of G_a to G_m."""
    base = ExactBase(ring)
    T0 = Poly.var(base, 2, 0)
    T1 = Poly.var(base, 2, 1)
    comult = T0 + T1 + (T0 * T1).scale(lam)
    unit_poly = Poly.one(base, 1) + Poly.var(base, 1, 0).scale(lam)
    antipode = (-Poly.var(base, 1, 0), (1,))  # -T / (1+lam T)
    return HopfPresentation(
        base=base, gens=("T",), relations=(None,), comult=(comult,),
        counit=(ring.zero(),), antipode=(antipode,),
        units=(UnitSpec(unit_poly, None),),
        name=f"G_smooth(v(lam)={lam.valuation()})")


def isogeny_psi(ring: RingDescriptor, lam: RingElement, n: int) -> HopfMorphism:
    """The degree-p^n isogeny G^(lam) -> G^(lam^(p^n)), T' -> P_{lam,n}(T)."""
    if not star_condition(ring, lam, n):
        raise ValuationError("condition (*) fails")
    src = build_g_smooth(ring, lam)
    tgt = build_g_smooth(ring, lam ** (ring.p ** n))
    img = kummer_poly(ring, lam, ring.p ** n)
    f = HopfMorphism(source=src, target=tgt, images=(img,),
                     name=f"psi(n={n})")
    if not check_morphism(f):
        raise P2ModelsError("isogeny failed the morphism check")
    return f


def neron_blowup_unit(ring: RingDescriptor, mu: RingElement) -> HopfMorphism:
    """The unit-section dilatation: T -> pi T realizes
    G_{mu pi,1} -> G_{mu,1} as a model map."""
    vmu = mu.valuation()
    if isinstance(vmu, IndeterminateAtPrecision) or \
            ring.e <= (ring.p - 1) * vmu:
        raise ValuationError("need v(p) > (p-1) v(mu)")
    src = build_g(ring, mu * ring.pi(), 1)
    tgt = build_g(ring, mu, 1)
    base = ExactBase(ring)
    img = Poly.var(base, 1, 0).scale(ring.pi())
    f = HopfMorphism(source=src, target=tgt, images=(img,),
                     name="unit-section blow-up")
    if not is_model_map(f):
        raise P2ModelsError("blow-up map failed the model-map check")
    return f


def hom_gln(ring: RingDescriptor, lam: RingElement, lam2: RingElement,
            n: int) -> list[HopfMorphism]:
    """Hom(G_{lam,n}, G_{lam2,n}): empty if v(lam) < v(lam2), else the
    p^n maps T' -> ((1+lam T)^i - 1)/lam2."""
    v1, v2 = lam.valuation(), lam2.valuation()
    if isinstance(v1, IndeterminateAtPrecision) or \
            isinstance(v2, IndeterminateAtPrecision):
        raise ValuationError("indeterminate valuations")
    if v1 < v2:
        return []
    src = build_g(ring, lam, n)
    tgt = build_g(ring, lam2, n)
    out = []
    for i in range(ring.p ** n):
        img = src.nf(kummer_poly(ring, lam, i, divisor=lam2))
        f = HopfMorphism(source=src, target=tgt, images=(img,),
                         name=f"hom_g(i={i})")
        if not check_morphism(f):
            raise P2ModelsError(f"hom candidate i={i} failed verification")
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Hom(G_{mu,1}|S_lam, Gm|S_lam): closed form vs brute force
# ---------------------------------------------------------------------------

def hom_closed(ring: RingDescriptor, m: int, n: int) -> list[tuple]:
    """Degree < p representatives of Hom(G_{mu,1}|S_lam, Gm|S_lam) with
    mu = pi^m, lam = pi^n, as tuples of classes of R/pi^n.

    v(mu) = 0 is the multiplicative case {(1+mu S)^i}; v(lam) = 0 gives
    the one-element group (empty base).  Otherwise the elements are the
    evaluated exponentials with a ranging over the twisted kernel
    {a : a^p = mu^(p-1) a mod pi^n}, which `_twisted_kernel` generates.
    """
    p = ring.p
    if n == 0:
        return [(ring.zero(0),) * p]
    if m == 0:
        out = {tuple(ring.from_int(math.comb(i, k)).mod_pi(n)
                     for k in range(p)) for i in range(p)}
        return sorted(out, key=_row_key)
    if ring.e < (p - 1) * m or ring.e < n:
        raise ValuationError("closed form needs v(p) >= (p-1)v(mu), v(lam)")
    mu = ring.pi(m)
    return sorted((tuple(ep_poly_special(a, mu, n))
                   for a in _twisted_kernel(ring, m, n)), key=_row_key)


def _twisted_kernel(ring: RingDescriptor, m: int, n: int) -> list:
    """The classes a of R/pi^n with a^p = mu^(p-1) a, mu = pi^m, m >= 1:
    p v(a) >= n if v(a) < m, (p-1)m + v(a) >= n if v(a) > m, and a = mu u
    with u = c mod pi^(n-pm), 0 < c < p, if v(a) = m.  That is v(a) >=
    ceil(n/p) when n <= pm, and `_mu_cosets` when n > pm."""
    if n <= ring.p * m:
        return _classes_above(ring, -(-n // ring.p), n)
    return _mu_cosets(ring, m, n)


def _mu_cosets(ring: RingDescriptor, m: int, n: int) -> list:
    """The classes mu c + x of R/pi^n, 0 <= c < p, v(x) >= n - (p-1)m."""
    mu = ring.pi(m)
    high = _classes_above(ring, n - (ring.p - 1) * m, n)
    return [(mu.scale(c) + x).mod_pi(n) for c in range(ring.p) for x in high]


def _classes_above(ring: RingDescriptor, v: int, n: int) -> list:
    """The classes of R/pi^n with valuation >= v: pi^v times the
    canonical lifts of the classes of R/pi^(n-v), or {0} when v >= n."""
    shift = ring.pi(v)
    return [(b.with_prec(ring.full_prec) * shift).mod_pi(n)
            for b in enumerate_quotient(ring, max(n - v, 0))]


def hom_brute(ring: RingDescriptor, m: int, n: int,
              budget: int | None = None) -> list[tuple]:
    """All degree < p polynomials F over R/pi^n (F = 1 mod pi when mu is
    not a unit) for which T -> F - 1 is a morphism G_{mu,1} -> G_m over
    R/pi^n: F(0) = 1 and F(S)F(T) = F(S+T+mu ST) modulo the relation
    ideal, both decided by check_morphism.  Each F is a tuple of classes
    of R/pi^n."""
    p = ring.p
    if n == 0:
        return [(ring.zero(0),) * p]
    classes = list(enumerate_quotient(ring, n))
    if m == 0:
        coeff_pools = [classes] * p
    else:
        # F = 1 mod pi: constant term 1 + pi(...), others pi(...)
        by_d0 = [[c for c in classes if c.pi_digit_expansion(1) == (d,)]
                 for d in (0, 1)]
        coeff_pools = [by_d0[1]] + [by_d0[0]] * (p - 1)
    _check_budget(ring, math.prod(map(len, coeff_pools)), budget)

    G = residue_fiber(build_g(ring, ring.pi(m), 1), n)
    Gm = residue_fiber(build_g_smooth(ring, ring.one()), n)
    one = G.one_poly()
    out = [row for row in itertools.product(*coeff_pools)
           if check_morphism(HopfMorphism(
               G, Gm, (poly_in_var(G.base, 1, 0, row) - one,)))]
    return sorted(out, key=_row_key)


# ---------------------------------------------------------------------------
# descriptors and the parameter group Phi, with its projection to Z/pZ
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class ModelDescriptor:
    """(m, n, a, j): the point (a, j) of Phi_{pi^m, pi^n} when
    phi_congruence holds, and the extension it names."""
    ring: RingDescriptor
    m: int
    n: int
    a: RingElement
    j: int

    def __post_init__(self):
        """Hold a (QuotElement of R/pi^n, or known mod pi^n) as mod_pi(n)."""
        a = self.a
        _check_cell(self.ring, self.m, self.n)
        if a.ring is not self.ring:
            raise ValueError("a must lie in the descriptor's ring")
        if isinstance(a, QuotElement):
            if a.t != self.n:
                raise ValueError("a must live in R/pi^n")
            a = a.lift()
        object.__setattr__(self, "a", a.mod_pi(self.n))
        if not (0 <= self.j < self.ring.p):
            raise InputError("j must be reduced mod p")

    def sort_key(self):
        return (self.m, self.n, self.a.pi_digit_expansion(self.n), self.j)

    def to_json(self):
        return {"p": self.ring.p, "M": self.ring.M, "m": self.m, "n": self.n,
                "a_digits": list(self.sort_key()[2]), "j": self.j}

    @classmethod
    def from_json(cls, ring: RingDescriptor, obj) -> ModelDescriptor:
        """Parse outside input: an object with the fields p, M, m, n,
        a_digits and j, the digits n integers in [0, p) and the others
        integers; InputError names the first field that is not."""
        if not isinstance(obj, dict) or not all(
                key in obj for key in ("p", "M", "m", "n", "a_digits", "j")):
            raise InputError(
                "need an object with the fields p, M, m, n, a_digits and j")
        for key in ("p", "M", "m", "n", "j"):
            if not _is_int(obj[key]):
                raise InputError(
                    f"field {key!r} must be an integer, got {obj[key]!r}")
        digits = obj["a_digits"]
        if not isinstance(digits, list) or not all(
                _is_int(d) and 0 <= d < ring.p for d in digits):
            raise InputError(f"field 'a_digits' must be a list of integers "
                             f"in [0, {ring.p}), got {digits!r}")
        if obj["p"] != ring.p:
            raise InputError("descriptor p does not match ring")
        if obj["M"] != ring.M:
            raise InputError(
                f"descriptor M = {obj['M']} does not match precision {ring.M}")
        if len(digits) != obj["n"]:
            raise InputError(f"field 'a_digits' must hold n = {obj['n']} "
                             f"digits, got {len(digits)}")
        a = ring.from_pi_digits(digits, obj["n"])
        return cls(ring, obj["m"], obj["n"], a, obj["j"])


def rho_scalar(ring: RingDescriptor, m: int) -> RingElement:
    """p / mu^(p-1) for mu = pi^m (exists for m <= p)."""
    return ring.from_int(ring.p).divide_exact(ring.pi(m) ** (ring.p - 1))


def _defect(ring: RingDescriptor, m: int, al: RingElement,
            al_p: RingElement, rho: RingElement, j: int) -> RingElement:
    """p a - j mu - rho a^p from the lift al of a, al_p = al^p and
    rho = rho_scalar(ring, m)."""
    return al.scale(ring.p) - ring.pi(m).scale(j) - rho * al_p


def phi_defect(d: ModelDescriptor) -> RingElement:
    """p a - j mu - (p/mu^(p-1)) a^p for mu = pi^m, on the canonical lift
    of d's class a."""
    ring = d.ring
    al = d.a.with_prec(ring.full_prec)
    return _defect(ring, d.m, al, al ** ring.p, rho_scalar(ring, d.m), d.j)


def _phi_js(ring: RingDescriptor, m: int, n: int, a: RingElement, js,
            rho: RingElement | None = None) -> list[int]:
    """The j in js with (a, j) in Phi, for a class a of R/pi^n, n >= 1.

    a^p is computed once for every j; rho = rho_scalar(ring, m) is
    computed only once a^p = 0 mod pi^n, unless it is given."""
    al = a.with_prec(ring.full_prec)
    al_p = al ** ring.p
    if not eq_mod(al_p, ring.zero(), n):
        return []
    if rho is None:
        rho = rho_scalar(ring, m)
    zero, pn = ring.zero(), ring.p * n
    return [j for j in js
            if eq_mod(_defect(ring, m, al, al_p, rho, j), zero, pn)]


def phi_congruence(d: ModelDescriptor) -> bool:
    """(a, j) in Phi_{pi^m, pi^n}: a^p = 0 mod pi^n and phi_defect(d) =
    0 mod pi^(pn)."""
    return d.n == 0 or bool(_phi_js(d.ring, d.m, d.n, d.a, (d.j,)))


def _ker_vmin(ring: RingDescriptor, m: int, n: int) -> int:
    """The least v(a) in the kernel: p v(a) >= max(p v(lam) + (p-1) v(mu)
    - v(p), v(lam))."""
    p = ring.p
    return math.ceil(max(p * n + (p - 1) * m - ring.e, n) / p)


def ker_p2(ring: RingDescriptor, m: int, n: int) -> list[ModelDescriptor]:
    """Closed form of the kernel of the projection (a, j) -> j: the
    descriptors (m, n, a, 0) with v(a) >= vmin."""
    _check_cell(ring, m, n)
    return sorted((ModelDescriptor(ring, m, n, a, 0)
                   for a in _classes_above(ring, _ker_vmin(ring, m, n), n)),
                  key=ModelDescriptor.sort_key)


def p2_surjective(ring: RingDescriptor, m: int, n: int) -> bool:
    """Every j is hit iff m >= pn, or m < pn and pm - n >= v(p)."""
    return m >= ring.p * n or ring.p * m - n >= ring.e


def phi_closed(ring: RingDescriptor, m: int, n: int) -> list[ModelDescriptor]:
    """Phi_{pi^m, pi^n} assembled from the surjectivity trichotomy: the
    kernel (ker_p2 refuses a cell outside the range), shifted by j times
    a solution for j = 1 when the projection is onto."""
    ker = ker_p2(ring, m, n)
    if m >= ring.p * n:
        base_sol = ring.zero()
    elif ring.p * m - n >= ring.e:
        base_sol = (eta(ring) * ring.pi(m)).divide_exact(ring.lam1)
    else:
        return ker
    return sorted((ModelDescriptor(ring, m, n, base_sol.scale(j) + k.a, j)
                   for j in range(ring.p) for k in ker),
                  key=ModelDescriptor.sort_key)


def phi_brute(ring: RingDescriptor, m: int, n: int,
              budget: int | None = None) -> list[ModelDescriptor]:
    """Direct enumeration of the defining congruence."""
    _check_cell(ring, m, n)
    p = ring.p
    _check_budget(ring, p ** n * p, budget)
    # a = 0 comes first and passes a^p = 0, so rho is always reached
    rho = rho_scalar(ring, m) if n else None
    out = []
    for a in enumerate_quotient(ring, n):
        js = _phi_js(ring, m, n, a, range(p), rho) if n else range(p)
        out.extend(ModelDescriptor(ring, m, n, a, j) for j in js)
    return sorted(out, key=ModelDescriptor.sort_key)


def ker_p2_brute(ring: RingDescriptor, m: int, n: int,
                 budget: int | None = None) -> list[ModelDescriptor]:
    return [d for d in phi_brute(ring, m, n, budget) if d.j == 0]


# ---------------------------------------------------------------------------
# the extension presentations
# ---------------------------------------------------------------------------

def canonical_lift_coeffs(d: ModelDescriptor) -> list[RingElement]:
    """F = sum a^i / i! S^i = E_p(a, 0; S) on the canonical digit lift
    of a."""
    return ep_coeffs(d.a.with_prec(d.ring.full_prec), d.ring.zero())


def _comult(g1: HopfPresentation, fc, lam) -> tuple:
    """(Delta S1, Delta S2) of the extension by lam and F = sum fc[i] S^i
    of the S1 factor g1 (build_g or build_g_smooth), in the tensor
    variables S1', S2', S1'', S2''.

    Delta S1 is g1's comultiplication.  Delta S2 carries the cocycle
    (F(x) F(y) - F(Delta S1)) / lam, divided coefficient-wise: F has
    degree p - 1 and Delta S1 is linear in S1' and in S1'', so the
    numerator is already in normal form modulo g1's relation (in the
    smooth case the division is valid when v(mu) >= v(lam)).
    """
    base = g1.base
    v = [Poly.var(base, 4, i) for i in range(4)]
    d_s1 = g1.comult[0].subst([v[0], v[2]])
    F = poly_in_var(base, 1, 0, fc)
    F_x, F_y = F.embed(4, 0), F.embed(4, 2)
    coc = (F_x * F_y - F.subst([d_s1])).div_scalar(lam)
    d_s2 = v[1] * F_y + F_x * v[3] + (v[1] * v[3]).scale(lam) + coc
    return d_s1, d_s2


def build_extension(d: ModelDescriptor) -> HopfPresentation:
    """The finite rank-p^2 presentation attached to a descriptor.

    Variables: S1 = 0, S2 = 1.  Divisibility failures (relation by
    lam^p, cocycle by lam) raise DivisibilityError and signal (a, j) not
    in Phi or precision loss.
    """
    ring = d.ring
    p = ring.p
    mu, lam = ring.pi(d.m), ring.pi(d.n)
    fc = canonical_lift_coeffs(d)
    # the S1 factor is G_{mu,1}: relation, antipode, unit and inverse
    g1 = build_g(ring, mu, 1)
    base = g1.base
    rel1, anti1, u1, inv1 = (x.embed(2, 0) for x in (
        g1.relations[0], g1.antipode[0], g1.units[0].poly,
        g1.units[0].inverse))
    F = poly_in_var(base, 1, 0, fc)
    u2 = F.embed(2, 0) + Poly.var(base, 2, 1).scale(lam)
    rel2 = normal_form(u2 ** p - u1 ** d.j, [rel1, None])
    rel2 = rel2.div_scalar(lam ** p)

    # counit: zero for the canonical lift, but (1 - F(0))/lam is only
    # known mod pi^(eM - n), and that precision is part of the output
    eps2 = (ring.one() - fc[0]).divide_exact(lam) if d.n else ring.zero()

    # u2^(p-1) u1^(p-j) is 1/u2 modulo both relations: sigma(S2) =
    # (1/u2 - F(sigma(S1)))/lam, and the inverse certificate of u2
    u2_inv = u2 ** (p - 1) * u1 ** (p - d.j)
    anti2 = normal_form(u2_inv - F.subst([anti1]), [rel1, None])
    anti2 = anti2.div_scalar(lam)

    rel_system = (rel1, rel2)
    inv2 = normal_form(u2_inv, list(rel_system))
    return HopfPresentation(
        base=base, gens=("S1", "S2"),
        relations=rel_system, comult=_comult(g1, fc, lam),
        counit=(ring.zero(), eps2), antipode=(anti1, anti2),
        units=(UnitSpec(u1, inv1), UnitSpec(u2, inv2)),
        name=f"E(m={d.m}, n={d.n}, a={digit_string(d.a)}, j={d.j})")


def _smooth_extension(g1, lam, fc, name) -> HopfPresentation:
    """The ambient smooth two-dimensional group over the S1 factor g1 =
    build_g_smooth(ring, mu), lam and F = sum fc[i] S1^i: designated
    units (1+mu S1) and (F+lam S2), no finiteness relations."""
    base, ring = g1.base, g1.base.ring
    p = ring.p
    u1 = g1.units[0].poly.embed(2, 0)
    anti1 = g1.antipode[0][0].embed(2, 0)     # sigma(S1) = anti1 / u1
    u2 = poly_in_var(base, 2, 0, fc) + Poly.var(base, 2, 1).scale(lam)
    eps2 = ring.one() - fc[0]
    eps2 = ring.zero() if eps2.is_zero() else eps2.divide_exact(lam)

    # sigma(S2) via the inverse of (F+lam S2):
    # ((1+mu S1)^(p-1) - u2 * G1)/ (lam u2 u1^(p-1)),
    # G1 = u1^(p-1) F(sigma(S1)) = sum fc[i] anti1^i u1^(p-1-i)
    G1 = Poly.zero(base, 2)
    for i, c in enumerate(fc):
        G1 = G1 + (anti1 ** i) * (u1 ** (p - 1 - i)).scale(c)
    anti2_num = (u1 ** (p - 1) - u2 * G1).div_scalar(lam)
    return HopfPresentation(
        base=base, gens=("S1", "S2"), relations=(None, None),
        comult=_comult(g1, fc, lam), counit=(ring.zero(), eps2),
        antipode=((anti1, (1, 0)), (anti2_num, (p - 1, 1))),
        units=(UnitSpec(u1, None), UnitSpec(u2, None)), name=name)


def build_extension_smooth(d: ModelDescriptor) -> HopfPresentation:
    """The ambient smooth group over the descriptor's (mu, lam, F)."""
    return _smooth_extension(
        build_g_smooth(d.ring, d.ring.pi(d.m)), d.ring.pi(d.n),
        canonical_lift_coeffs(d),
        f"E_smooth(m={d.m}, n={d.n}, a={digit_string(d.a)})")


# ---------------------------------------------------------------------------
# the ambient isogeny
# ---------------------------------------------------------------------------

def solve_target_hom(d: ModelDescriptor) -> list[RingElement]:
    """Coefficients g_0..g_{p-1} of G with
    F(S)^p (1+mu S)^(-j) = G(P_{mu,1}(S)) mod lam^p (raw identity).

    (1+mu S)^p = 1 + mu^p P_{mu,1} and v(mu^p) >= pn, so the identity is
    G(P_{mu,1}) = F^p (1+mu S)^((-j) mod p) mod pi^(pn): G is the
    P_{mu,1}-adic expansion of the right side.  P_{mu,1} is monic of
    degree p with constant term 0, so each division leaves a remainder
    whose constant term is the next digit g_k, and its other
    coefficients must vanish mod pi^(pn); LinearSolveError when one does
    not.  The right side has degree below p^2, hence at most p digits.
    """
    ring = d.ring
    p = ring.p
    if d.n == 0:
        return [ring.one()] + [ring.zero()] * (p - 1)
    t = p * d.n
    mu = ring.pi(d.m)
    u1 = build_g_smooth(ring, mu).units[0].poly
    F = poly_in_var(u1.base, 1, 0, canonical_lift_coeffs(d))
    H = F ** p * u1 ** ((-d.j) % p)
    h = [H.coefficient((i,)) for i in range(H.degree_in(0) + 1)]
    Pmu = kummer_poly(ring, mu, p)
    P = [Pmu.coefficient((k,)) for k in range(1, p)]  # S^1..S^(p-1)
    zero = ring.zero()
    g = []
    while h:
        # h = q P + r in place: r in h[:p], q in h[p:]
        for i in range(len(h) - 1, p - 1, -1):
            for k in range(1, p):
                h[i - p + k] = h[i - p + k] - h[i] * P[k - 1]
        for k, c in enumerate(h[1:p], 1):
            if not eq_mod(c, zero, t):
                raise LinearSolveError(
                    f"remainder {len(g)} has S^{k} coefficient nonzero mod "
                    f"pi^{t}: no G over R/pi^{t}")
        g.append(h[0].mod_pi(t).with_prec(ring.full_prec))
        h = h[p:]
    return g + [zero] * (p - len(g))


def target_hom_closed_form(d: ModelDescriptor) -> list[RingElement]:
    """The predicted solution G = E_p(a^p, mu^p; X): coefficients
    prod_{k<i}(a^p - k mu^p)/i!, on the canonical lift of a."""
    ring = d.ring
    return ep_coeffs(d.a.with_prec(ring.full_prec) ** ring.p,
                     ring.pi(d.m) ** ring.p)


def ambient_isogeny(d: ModelDescriptor):
    """Present the finite extension as the kernel of an isogeny of smooth
    two-dimensional groups.

    Returns (source, target, morphism): source = E_smooth over (mu, lam, F),
    target = E_smooth over (mu^p, lam^p, G), morphism the Kummer-type map.
    Verifies the morphism property and kernel containment.
    """
    ring = d.ring
    p = ring.p
    src = build_extension_smooth(d)
    base = src.base
    mu, lam = ring.pi(d.m), ring.pi(d.n)
    g = solve_target_hom(d)
    tgt = _smooth_extension(build_g_smooth(ring, mu ** p), lam ** p, g,
                            "E_smooth target")

    Pmu = kummer_poly(ring, mu, p, 2, 0)
    u1, u2 = (u.poly for u in src.units)
    bracket = u2 ** p - poly_in_var(base, 1, 0, g).subst([Pmu]) * u1 ** d.j
    img2_num = bracket.div_scalar(lam ** p)
    img2 = LocalizedElement(src, img2_num, (d.j, 0))
    f = HopfMorphism(source=src, target=tgt, images=(Pmu, img2),
                     name=f"ambient isogeny (j={d.j})")
    if not check_morphism(f):
        raise P2ModelsError("ambient isogeny failed the morphism check")

    # kernel containment: both target generators pull back to their
    # counit values inside the finite quotient; the denominator u1^j of
    # image 2 is cleared by multiplying the counit by u1^j
    fin = build_extension(d)
    if not LocalizedElement(fin, Pmu).is_zero():
        raise P2ModelsError("kernel containment fails for S1")
    if not LocalizedElement(fin, img2_num, (d.j, 0)).eq(
            Poly.const(base, 2, tgt.counit[1])):
        raise P2ModelsError("kernel containment fails for S2")
    return src, tgt, f


# ---------------------------------------------------------------------------
# classification: normal form, isomorphism, Hom, enumeration
# ---------------------------------------------------------------------------

def normal_form_model(d: ModelDescriptor) -> ModelDescriptor:
    """Replace (m, n, a, j) by the isomorphic (m, n, a/j, 1)."""
    if d.j == 0:
        raise InputError("j = 0 is not a model of the cyclic group")
    inv = pow(d.j, -1, d.ring.p)
    out = ModelDescriptor(d.ring, d.m, d.n, d.a.scale(inv), 1)
    if not phi_congruence(out):
        raise P2ModelsError("normalized parameters left Phi")
    return out


def _a_congruent(d1: ModelDescriptor, d2: ModelDescriptor) -> bool:
    """a1 = (j1/j2)(mu1/mu2) a2 mod pi^(n2), for n1 >= n2."""
    ring = d1.ring
    r = (d1.j * pow(d2.j, -1, ring.p)) % ring.p
    return eq_mod(d1.a, (d2.a * ring.pi(d1.m - d2.m)).scale(r), d2.n)


def is_isomorphic(d1: ModelDescriptor, d2: ModelDescriptor) -> bool:
    if d1.j == 0 or d2.j == 0:
        raise InputError("isomorphism criterion applies to models (j != 0)")
    if d1.m != d2.m or d1.n != d2.n:
        return False
    return _a_congruent(d1, d2)


@dataclass(frozen=True)
class HomClass:
    tag: str                 # "Zero" | "OrderP" | "OrderP2"
    maps: tuple = ()         # witness (r, s) pairs when brute-forced

    def to_json(self):
        return {"class": self.tag, "maps": [list(m) for m in self.maps]}


def hom_models(d1: ModelDescriptor, d2: ModelDescriptor) -> HomClass:
    """The trichotomy for Hom between two models."""
    if d1.j == 0 or d2.j == 0:
        raise InputError("hom classification applies to models (j != 0)")
    if d1.m < d2.n:
        return HomClass("Zero")
    if d2.m <= d1.m and d2.n <= d1.n and _a_congruent(d1, d2):
        return HomClass("OrderP2")
    return HomClass("OrderP")


def _psi_candidates(src, tgt, d1, d2):
    """The p^2 candidate maps psi(r, s) between the extensions src =
    build_extension(d1) and tgt = build_extension(d2), yielded as
    ((r, s), f) for r, then s, in range(p); f is None when a required
    exact division fails (the candidate is not well defined over R).

    S1' -> ((1+mu1 S1)^x - 1)/mu2 with x = r j1/j2, and S2' ->
    ((F1+lam1 S2)^r (1+mu1 S1)^s - F2(S1'))/lam2, with u2 = F1 + lam1 S2
    and u1 = 1 + mu1 S1 the units of src.  The image of S1' and F2 at it
    depend on r alone and are built once per r; the raw powers u1^s and
    u2^r are built once per call.
    """
    ring = d1.ring
    p = ring.p
    mu1, mu2, lam2 = ring.pi(d1.m), ring.pi(d2.m), ring.pi(d2.n)
    u1, u2 = (u.poly for u in src.units)
    u1_pow = [u1 ** s for s in range(p)]
    u2_pow = [u2 ** r for r in range(p)]
    F2 = poly_in_var(src.base, 1, 0, canonical_lift_coeffs(d2))
    for r in range(p):
        x = (r * d1.j * pow(d2.j, -1, p)) % p
        try:
            img1 = kummer_poly(ring, mu1, x, 2, 0, mu2)
            F2_at = F2.subst([img1])
        except (DivisibilityError, ValuationError):
            yield from (((r, s), None) for s in range(p))
            continue
        for s in range(p):
            try:
                img2 = src.nf(u2_pow[r] * u1_pow[s] - F2_at).div_scalar(lam2)
            except (DivisibilityError, ValuationError):
                yield (r, s), None
                continue
            yield (r, s), HopfMorphism(source=src, target=tgt,
                                       images=(img1, img2),
                                       name=f"psi({r},{s})")


def hom_models_brute(d1: ModelDescriptor, d2: ModelDescriptor,
                     src: HopfPresentation | None = None,
                     tgt: HopfPresentation | None = None):
    """Test all p^2 candidate maps; return (HomClass, morphisms).

    `src` and `tgt` are build_extension(d1) and build_extension(d2),
    built here when not given."""
    if d1.j == 0 or d2.j == 0:
        raise InputError("hom classification applies to models (j != 0)")
    ring = d1.ring
    p = ring.p
    src = build_extension(d1) if src is None else src
    tgt = build_extension(d2) if tgt is None else tgt
    survivors = []
    maps = []
    # the candidates of one r share the image of S1': one family over s
    for _, group in itertools.groupby(_psi_candidates(src, tgt, d1, d2),
                                      key=lambda c: c[0][0]):
        cands = [(rs, f) for rs, f in group if f is not None]
        verdicts = check_morphism_family(
            src, tgt, cands[0][1].images[:1] if cands else (),
            [f.images[1:] for _, f in cands])
        for (rs, f), ok in zip(cands, verdicts):
            if ok:
                survivors.append(rs)
                maps.append(f)
    if len(survivors) == p * p:
        tag = "OrderP2"
    elif len(survivors) == p and all(r == 0 for r, _ in survivors):
        tag = "OrderP"
    elif survivors == [(0, 0)]:
        tag = "Zero"
    else:
        raise P2ModelsError(
            f"unexpected hom survivor pattern {survivors}")
    return HomClass(tag, tuple(survivors)), maps


def enumerate_models(ring: RingDescriptor, m_max: int) -> list[ModelDescriptor]:
    """All models (m, n, a, 1), m_max >= m >= n >= 0, canonical a, in
    sort_key order: the cells in order, each sorted by phi_closed."""
    if not 0 <= m_max <= ring.p:
        raise InputError("need 0 <= m-max <= p")
    return [d for m in range(m_max + 1) for n in range(m + 1)
            for d in phi_closed(ring, m, n) if d.j == 1]


# ---------------------------------------------------------------------------
# the regime v(mu) < v(lam): brute force only
# ---------------------------------------------------------------------------

def rad_brute(ring: RingDescriptor, m: int, n: int,
              budget: int | None = None) -> list[tuple]:
    """Pairs (F, j) with F a hom representative over R/pi^n and
    F^p (1+mu S)^(-j) = 1 in G_{mu,1} over R/pi^(pn); survivors must have
    j = 0 when v(mu) < v(lam) (no cyclic-p^2 models in this regime)."""
    p, t = ring.p, ring.p * n
    homs = hom_brute(ring, m, n, budget)
    if n == 0:
        # over the zero ring every (F, j) survives, as Phi(m, 0) is {(0, j)}
        return [(row, j) for row in homs for j in range(p)]
    G = residue_fiber(build_g(ring, ring.pi(m), 1), t)
    out = []
    for row in homs:
        F = poly_in_var(G.base, 1, 0, [c.with_prec(t) for c in row])
        Fp = F ** p
        out += [(row, j) for j in range(p)
                if LocalizedElement(G, Fp, (j,)).eq(G.one_poly())]
    if n > m and any(j != 0 for _, j in out):
        raise P2ModelsError(
            "survivor with j != 0 in the v(mu) < v(lam) regime")
    return out


def rad_witt_count(ring: RingDescriptor, m: int, n: int,
                   budget: int | None = None) -> int:
    """Independent count of rad survivors via the Witt layer, for
    support-1 classes: a with [a] in the twisted kernel over R/pi^n and
    p[a] in the image of the isogeny pullback over R/pi^(pn).

    Each b is tested and pulled back at most once, and only as far into
    the pool as some a needs: the images reached so far are kept.
    """
    p = ring.p
    mu = ring.pi(m)
    _check_budget(ring, p ** n * p ** (p * n), budget)
    pool_b = (WittVector(ring, p * n, [b0])
              for b0 in enumerate_quotient(ring, p * n))
    fresh = (psi_star_image(b, mu) for b in pool_b
             if is_frobenius_kernel(b, mu ** p, p * n))
    images = []
    count = 0
    for a in enumerate_quotient(ring, n):
        w = WittVector(ring, n, [a])
        if not is_frobenius_kernel(w, mu, n):
            continue
        pw = mult_by_p(w, p * n)
        if any(image == pw for image in images):
            count += 1
            continue
        for image in fresh:
            images.append(image)
            if image == pw:
                count += 1
                break
    return count
