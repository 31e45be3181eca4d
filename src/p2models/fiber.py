"""Special fibers of the order-p^2 extensions.

Reduction mod pi lands every descriptor in one of four explicit
families over k = F_p, split by the valuations (v(mu), v(lam)) against
v(lam_(1)) = p:

  * (0, 0): the mu_p-by-mu_p extensions indexed by j,
  * v(mu) > v(lam) = 0: the trivial extension (mu_p sub),
  * 0 < v(lam) <= v(mu) < p: extension of alpha_p by alpha_p with
    parameters beta = -(p a - j mu - (p/mu^(p-1)) a^p)/lam^p mod pi and
    gamma = a^p/lam mod pi (canonical lift a),
  * v(mu) = p > v(lam): the trivial extension (Z/pZ quotient),
  * v(mu) = v(lam) = p: extension of Z/pZ by Z/pZ, class (0, j).

The cocycle entering the last two families is the integer polynomial
C_1 = (X^p + Y^p - (X+Y)^p)/p reduced mod p.

verify_fiber rebuilds the claimed presentation from the classification
and hunts for the normalizing change of coordinates S2 -> S2 + h(S1)
(h = 0 works in every case except the split v(mu) = p > v(lam) one,
where the splitting section contributes a genuine polynomial h).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dvr import RingDescriptor, eta
from .hopf import (HopfMorphism, HopfPresentation, check_morphism,
                   coeff_mod_pi, residue_fiber)
from .models import (ModelDescriptor, build_extension, kummer_poly,
                     phi_defect, rho_scalar)
from .poly import ExactBase, Poly, normal_form


@dataclass(frozen=True)
class FiberClass:
    tag: str          # MuPExtension | TrivialExtension | AlphaPExtension | ZpByZp
    params: tuple = ()

    def to_json(self):
        out = {"class": self.tag}
        if self.tag == "MuPExtension":
            out["i"] = self.params[0]
        elif self.tag == "AlphaPExtension":
            out["beta"], out["gamma"] = self.params
        elif self.tag == "ZpByZp":
            out["a"], out["b"] = self.params
        return out

    @classmethod
    def from_json(cls, obj) -> "FiberClass":
        tag = obj["class"]
        if tag == "MuPExtension":
            return cls(tag, (obj["i"],))
        if tag == "AlphaPExtension":
            return cls(tag, (obj["beta"], obj["gamma"]))
        if tag == "ZpByZp":
            return cls(tag, (obj["a"], obj["b"]))
        if tag == "TrivialExtension":
            return cls(tag)
        raise ValueError(f"unknown fiber class {tag}")


def wilson_check(p: int) -> bool:
    """(p-1)! = -1 mod p."""
    return math.factorial(p - 1) % p == p - 1


def eta_power_unit_check(ring: RingDescriptor) -> bool:
    """eta^p / lam_(1) = lam_(2)^p / lam_(1) = 1 mod pi."""
    p = ring.p
    q1 = (eta(ring) ** p).divide_exact(ring.lam1)
    q2 = (ring.lam2 ** p).divide_exact(ring.lam1)
    return coeff_mod_pi(q1) == 1 and coeff_mod_pi(q2) == 1


def classify_fiber(d: ModelDescriptor) -> FiberClass:
    """Dispatch on the valuation cell; j = 0 descriptors allowed."""
    ring = d.ring
    p = ring.p
    m, n = d.m, d.n
    if m == 0 and n == 0:
        return FiberClass("MuPExtension", (d.j,))
    if n == 0:
        return FiberClass("TrivialExtension")
    if m < p:
        lam = ring.pi(n)
        beta = -phi_defect(ring, m, d.a, d.j).divide_exact(lam ** p)
        gamma = (d.a.with_prec(ring.full_prec) ** p).divide_exact(lam)
        return FiberClass("AlphaPExtension",
                          (coeff_mod_pi(beta), coeff_mod_pi(gamma)))
    if n < p:
        return FiberClass("TrivialExtension")
    return FiberClass("ZpByZp", (0, d.j))


# ---------------------------------------------------------------------------
# claimed presentations over F_p
# ---------------------------------------------------------------------------
#
# Each is built over R from integer lifts of its F_p coefficients and
# reduced mod pi by residue_fiber.

def cocycle_c1(ring: RingDescriptor, nvars: int, vx: int, vy: int) -> Poly:
    """C_1 = (X^p + Y^p - (X+Y)^p)/p in the given variables, over R."""
    p = ring.p
    terms = {}
    for k in range(1, p):
        mono = tuple(k if i == vx else (p - k if i == vy else 0)
                     for i in range(nvars))
        terms[mono] = ring.from_int(-(math.comb(p, k) // p))
    return Poly(ExactBase(ring), nvars, terms)


def _mult_comult(ring, nvars, v0, v1, scale=1) -> Poly:
    base = ExactBase(ring)
    x = Poly.var(base, nvars, v0)
    y = Poly.var(base, nvars, v1)
    return x + y + (x * y).scale(ring.from_int(scale))


def _mult_antipode(ring, var, lam_bar) -> Poly:
    """((1+lam S)^(p-1) - 1)/lam, i.e. sum C(p-1,k) lam^(k-1) S^k; for
    lam = 0 it is (p-1) S = -S mod p."""
    p = ring.p
    terms = {tuple(k if i == var else 0 for i in range(2)):
             ring.from_int(math.comb(p - 1, k) * lam_bar ** (k - 1))
             for k in range(1, p)}
    return Poly(ExactBase(ring), 2, terms)


def claimed_presentation(ring: RingDescriptor, d: ModelDescriptor,
                         fc: FiberClass) -> HopfPresentation:
    """The explicit F_p presentation the classification asserts.

    Every class has the relations S1^p + tail1, S2^p + tail2, the
    comultiplications S' + S'' + c S'S'' with c = mu_bar on S1 and
    c = lam_bar on S2, the latter plus coc * C_1(S1', S1''), and the
    matching antipodes ((1 + c S)^(p-1) - 1)/c (= -S when c = 0).
    """
    p = ring.p
    base = ExactBase(ring)
    S1 = Poly.var(base, 2, 0)
    S2 = Poly.var(base, 2, 1)
    zero = Poly.zero(base, 2)
    coc = 0
    if fc.tag == "MuPExtension":
        # (1+S2)^p - (1+S1)^i = S2^p - ((1+S1)^i - 1) mod pi
        i = fc.params[0] % p
        mu_bar = lam_bar = 1
        tail1, tail2 = zero, -kummer_poly(ring, ring.one(), i, 2, 0)
        name = f"mu_p extension E_{i}"
    elif fc.tag == "TrivialExtension":
        # product of the two fiber groups: no S1-mixing, no cocycle
        mu_bar, lam_bar = int(d.m == 0), int(d.n == 0)
        tail1 = S1.scale(rho_scalar(ring, d.m)) if d.m == p else zero
        tail2 = S2.scale(rho_scalar(ring, d.n)) if d.n == p else zero
        name = "trivial extension"
    elif fc.tag == "AlphaPExtension":
        beta, coc = fc.params
        mu_bar = lam_bar = 0
        tail1, tail2 = zero, -S1.scale(ring.from_int(beta))
        name = f"E_(beta={beta}, gamma={coc})"
    elif fc.tag == "ZpByZp":
        abar, coc = fc.params
        mu_bar = lam_bar = 0
        tail1, tail2 = -S1, -S2 - S1.scale(ring.from_int(abar))
        name = f"E_(a={abar}, b={coc})"
    else:
        raise ValueError(fc.tag)
    d2 = (_mult_comult(ring, 4, 1, 3, lam_bar)
          + cocycle_c1(ring, 4, 0, 2).scale(ring.from_int(coc)))
    return residue_fiber(HopfPresentation(
        base=base, gens=("S1", "S2"),
        relations=(S1 ** p + tail1, S2 ** p + tail2),
        comult=(_mult_comult(ring, 4, 0, 2, mu_bar), d2),
        counit=(ring.zero(), ring.zero()),
        antipode=(_mult_antipode(ring, 0, mu_bar),
                  _mult_antipode(ring, 1, lam_bar)),
        name=name))


def _try_normalization(fiber: HopfPresentation, claimed: HopfPresentation,
                       h_coeffs) -> bool:
    """Does S1 -> S1, S2 -> S2 + h(S1) carry `claimed` to `fiber`?"""
    base, ring = fiber.base, fiber.base.ring
    one = ring.one().with_prec(1)
    S1 = Poly.var(base, 2, 0, one)
    S2 = Poly.var(base, 2, 1, one)
    h = Poly.zero(base, 2)
    for k, c in enumerate(h_coeffs, start=1):
        if c:
            h = h + (S1 ** k).scale(ring.from_int(c))
    f = HopfMorphism(source=fiber, target=claimed, images=(S1, S2 + h))
    return check_morphism(f)


def _residues(poly: Poly) -> dict:
    """{monomial: residue} of the terms with a nonzero residue."""
    out = {m: coeff_mod_pi(c) for m, c in poly.terms.items()}
    return {m: r for m, r in out.items() if r}


def verify_fiber(d: ModelDescriptor, report=None) -> bool:
    """Compare residue_fiber(build_extension(d)) with the claimed
    presentation, allowing the S2 -> S2 + h(S1) unit-section
    normalization.  On mismatch, appends a diagnostic to `report` (a
    list): the first monomial of each fiber relation's nonzero remainder
    modulo the claimed relations."""
    ring = d.ring
    p = ring.p
    fc = classify_fiber(d)
    fiber = residue_fiber(build_extension(d))
    claimed = claimed_presentation(ring, d, fc)
    if any(_try_normalization(fiber, claimed, h)
           for h in itertools.product(range(p), repeat=p - 1)):
        return True
    if report is not None:
        diff = []
        for i in range(2):
            rest = _residues(normal_form(fiber.relations[i],
                                         list(claimed.relations)))
            if rest:
                first = min(rest)
                diff.append(f"relation {i} differs at monomial {first}: "
                            f"remainder {rest[first]} modulo the claimed "
                            f"relations")
        report.append("; ".join(diff) if diff
                      else "relations match; comultiplication differs")
    return False
