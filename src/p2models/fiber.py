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

verify_fiber checks one change of coordinates S2 -> S2 + h(S1) from the
fiber to the claimed presentation, h read off the relations: over F_p,
(S2 + h)^p = S2^p + h(S1^p).  At v(mu) = p > v(lam) > 0 the claimed
relations are S1^p + rho S1 and S2^p and the fiber's second is
S2^p + sum r_k S1^k, so h = sum c_k S1^k, c_k = r_k (-rho)^(-k), the
splitting section of the Z/pZ quotient.  Elsewhere h = 0; at v(mu) =
v(lam) = p every c S1 passes: S1^p - S1, S2^p - S2 - a S1 and the
additive Delta S2 are invariant under S2 -> S2 + c S1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dvr import RingDescriptor, eta
from .hopf import (HopfMorphism, HopfPresentation, check_morphism,
                   coeff_mod_pi, residue_fiber)
from .models import (ModelDescriptor, build_extension, kummer_poly,
                     phi_defect, rho_scalar)
from .poly import ExactBase, Poly, normal_form


# the JSON keys of each class's parameters
_PARAM_KEYS = {"MuPExtension": ("i",), "TrivialExtension": (),
               "AlphaPExtension": ("beta", "gamma"), "ZpByZp": ("a", "b")}


@dataclass(frozen=True)
class FiberClass:
    tag: str          # a key of _PARAM_KEYS
    params: tuple = ()

    def to_json(self):
        return {"class": self.tag, **dict(zip(_PARAM_KEYS[self.tag],
                                               self.params))}

    @classmethod
    def from_json(cls, obj) -> "FiberClass":
        tag = obj["class"]
        if tag not in _PARAM_KEYS:
            raise ValueError(f"unknown fiber class {tag}")
        return cls(tag, tuple(obj[k] for k in _PARAM_KEYS[tag]))


def wilson_check(p: int) -> bool:
    """(p-1)! = -1 mod p."""
    return math.factorial(p - 1) % p == p - 1


def eta_power_unit_check(ring: RingDescriptor) -> bool:
    """eta^p / lam_(1) = lam_(2)^p / lam_(1) = 1 mod pi."""
    p = ring.p
    q1 = (eta(ring) ** p).divide_exact(ring.lam1)
    q2 = (ring.lam2 ** p).divide_exact(ring.lam1)
    return coeff_mod_pi(q1) == 1 and coeff_mod_pi(q2) == 1


def _splits_off_zp(d: ModelDescriptor) -> bool:
    """v(mu) = p > v(lam) > 0: the trivial extension with a Z/pZ quotient."""
    return 0 < d.n < d.ring.p <= d.m


def classify_fiber(d: ModelDescriptor) -> FiberClass:
    """Dispatch on the valuation cell; j = 0 descriptors allowed."""
    ring = d.ring
    p = ring.p
    m, n = d.m, d.n
    if m == 0 and n == 0:
        return FiberClass("MuPExtension", (d.j,))
    if n == 0 or _splits_off_zp(d):
        return FiberClass("TrivialExtension")
    if m < p:
        lam = ring.pi(n)
        beta = -phi_defect(d).divide_exact(lam ** p)
        gamma = (d.a.with_prec(ring.full_prec) ** p).divide_exact(lam)
        return FiberClass("AlphaPExtension",
                          (coeff_mod_pi(beta), coeff_mod_pi(gamma)))
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


def _section(d: ModelDescriptor, fiber: HopfPresentation,
             claimed: HopfPresentation) -> Poly:
    """h = sum c_k S1^k with c_k = r_k (-rho)^(-k) in the cell
    `_splits_off_zp`, and h = 0 everywhere else."""
    ring, p = d.ring, d.ring.p
    rho = _residues(claimed.relations[0]).get((1, 0), 0)
    r = _residues(fiber.relations[1]) if _splits_off_zp(d) and rho else {}
    return Poly(fiber.base, 2, {
        (k, 0): ring.from_int(r[k, 0] * pow(-rho, -k, p) % p).with_prec(1)
        for k in range(1, p) if (k, 0) in r})


def _residues(poly: Poly) -> dict:
    """{monomial: residue} of the terms with a nonzero residue."""
    out = {m: coeff_mod_pi(c) for m, c in poly.terms.items()}
    return {m: r for m, r in out.items() if r}


def verify_fiber(d: ModelDescriptor, report=None) -> bool:
    """Compare residue_fiber(build_extension(d)) with the claimed
    presentation by one check_morphism of S1 -> S1, S2 -> S2 + h(S1).

    h is read off the relations: over F_p, (S2 + h)^p = S2^p + h(S1^p),
    and at v(mu) = p > v(lam) > 0 the fiber has S1^p = -rho S1 and
    S2^p = -sum r_k S1^k, so the claimed S2^p dies for c_k =
    r_k (-rho)^(-k).  Elsewhere h = 0 (at v(mu) = v(lam) = p every c S1
    passes).  On mismatch, appends a diagnostic to `report` (a list):
    the first monomial of each fiber relation's nonzero remainder modulo
    the claimed relations."""
    fc = classify_fiber(d)
    fiber = residue_fiber(build_extension(d))
    claimed = claimed_presentation(d.ring, d, fc)
    one = d.ring.one().with_prec(1)
    S1, S2 = (Poly.var(fiber.base, 2, i, one) for i in range(2))
    if check_morphism(HopfMorphism(source=fiber, target=claimed, images=(
            S1, S2 + _section(d, fiber, claimed)))):
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
