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
from .hopf import (HopfMorphism, HopfPresentation, UnitSpec, check_morphism,
                   coeff_mod_pi, residue_fiber)
from .models import ModelDescriptor, build_extension, rho_scalar
from .poly import FpBase, Poly, normal_form


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
    return (q1.digits[0] % p == 1) and (q2.digits[0] % p == 1)


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
        al = d.a.lift()
        mu, lam = ring.pi(m), ring.pi(n)
        defect = al.scale(p) - mu.scale(d.j) - rho_scalar(ring, m) * al ** p
        beta = (-defect.divide_exact(lam ** p))
        gamma = (al ** p).divide_exact(lam)
        return FiberClass("AlphaPExtension",
                          (coeff_mod_pi(beta), coeff_mod_pi(gamma)))
    if n < p:
        return FiberClass("TrivialExtension")
    return FiberClass("ZpByZp", (0, d.j))


# ---------------------------------------------------------------------------
# claimed presentations over F_p
# ---------------------------------------------------------------------------

def cocycle_c1(p: int, nvars: int, vx: int, vy: int) -> Poly:
    """C_1 = (X^p + Y^p - (X+Y)^p)/p mod p in the given variables."""
    base = FpBase(p)
    terms = {}
    for k in range(1, p):
        c = (-(math.comb(p, k) // p)) % p
        if c:
            mono = tuple(k if i == vx else (p - k if i == vy else 0)
                         for i in range(nvars))
            terms[mono] = c
    return Poly(base, nvars, terms)


def _fp_pres(p, rel1, rel2, d1, d2, anti1, anti2, name):
    base = FpBase(p)
    return HopfPresentation(
        base=base, gens=("S1", "S2"), relations=(rel1, rel2),
        comult=(d1, d2), counit=(0, 0), antipode=(anti1, anti2), name=name)


def _mult_comult(p, nvars, v0, v1, scale=1) -> Poly:
    base = FpBase(p)
    x = Poly.var(base, nvars, v0)
    y = Poly.var(base, nvars, v1)
    return x + y + (x * y).scale(scale % p)


def _mult_antipode(p, var, lam_bar) -> Poly:
    """((1+lam S)^(p-1) - 1)/lam over F_p, i.e. sum C(p-1,k) lam^(k-1) S^k."""
    base = FpBase(p)
    terms = {}
    for k in range(1, p):
        c = (math.comb(p - 1, k) * pow(lam_bar, k - 1, p)) % p
        if c:
            terms[tuple(k if i == var else 0 for i in range(2))] = c
    return Poly(base, 2, terms)


def claimed_presentation(ring: RingDescriptor, d: ModelDescriptor,
                         fc: FiberClass) -> HopfPresentation:
    """The explicit F_p presentation the classification asserts."""
    p = ring.p
    base = FpBase(p)
    S1 = Poly.var(base, 2, 0)
    S2 = Poly.var(base, 2, 1)

    if fc.tag == "MuPExtension":
        i = fc.params[0] % p
        rel1 = S1 ** p
        # (1+S2)^p - (1+S1)^i = S2^p - ((1+S1)^i - 1) over F_p
        low = Poly.zero(base, 2)
        for k in range(1, i + 1):
            low = low + (S1 ** k).scale(math.comb(i, k))
        rel2 = S2 ** p - low
        d1 = _mult_comult(p, 4, 0, 2, 1)
        d2 = _mult_comult(p, 4, 1, 3, 1)
        return _fp_pres(p, rel1, rel2, d1, d2,
                        _mult_antipode(p, 0, 1), _mult_antipode(p, 1, 1),
                        f"mu_p extension E_{i}")

    if fc.tag == "TrivialExtension":
        # product of the two fiber groups: no S1-mixing, no cocycle
        mu_bar = 1 if d.m == 0 else 0
        lam_bar = 1 if d.n == 0 else 0
        rel1 = S1 ** p
        if d.m == p:
            rel1 = S1 ** p - S1.scale(
                (-coeff_mod_pi(rho_scalar(ring, d.m))) % p)
        rel2 = S2 ** p
        if d.n == p:
            rel2 = S2 ** p - S2.scale(
                (-coeff_mod_pi(rho_scalar(ring, d.n))) % p)
        d1 = _mult_comult(p, 4, 0, 2, mu_bar)
        d2 = _mult_comult(p, 4, 1, 3, lam_bar)
        return _fp_pres(p, rel1, rel2, d1, d2,
                        _mult_antipode(p, 0, mu_bar),
                        _mult_antipode(p, 1, lam_bar),
                        "trivial extension")

    if fc.tag == "AlphaPExtension":
        beta, gamma = fc.params
        rel1 = S1 ** p
        rel2 = S2 ** p - S1.scale(beta % p)
        d1 = _mult_comult(p, 4, 0, 2, 0)
        d2 = (_mult_comult(p, 4, 1, 3, 0)
              + cocycle_c1(p, 4, 0, 2).scale(gamma % p))
        return _fp_pres(p, rel1, rel2, d1, d2, -S1, -S2,
                        f"E_(beta={beta}, gamma={gamma})")

    if fc.tag == "ZpByZp":
        abar, b = fc.params
        rel1 = S1 ** p - S1
        rel2 = S2 ** p - S2 - S1.scale(abar % p)
        d1 = _mult_comult(p, 4, 0, 2, 0)
        d2 = (_mult_comult(p, 4, 1, 3, 0)
              + cocycle_c1(p, 4, 0, 2).scale(b % p))
        return _fp_pres(p, rel1, rel2, d1, d2, -S1, -S2,
                        f"E_(a={abar}, b={b})")

    raise ValueError(fc.tag)


def _try_normalization(fiber: HopfPresentation, claimed: HopfPresentation,
                       h_coeffs) -> bool:
    """Does S1 -> S1, S2 -> S2 + h(S1) carry `claimed` to `fiber`?"""
    base = fiber.base
    S1 = Poly.var(base, 2, 0)
    S2 = Poly.var(base, 2, 1)
    h = Poly.zero(base, 2)
    for k, c in enumerate(h_coeffs, start=1):
        if c:
            h = h + (S1 ** k).scale(c)
    f = HopfMorphism(source=fiber, target=claimed, images=(S1, S2 + h))
    return check_morphism(f)


def verify_fiber(d: ModelDescriptor, report=None) -> bool:
    """Compare residue_fiber(build_extension(d)) with the claimed
    presentation, allowing the S2 -> S2 + h(S1) unit-section
    normalization.  Appends a diagnostic to `report` (a list) on
    mismatch."""
    ring = d.ring
    p = ring.p
    fc = classify_fiber(d)
    fiber = residue_fiber(build_extension(d))
    claimed = claimed_presentation(ring, d, fc)
    if _try_normalization(fiber, claimed, ()):
        return True
    for h in itertools.product(range(p), repeat=p - 1):
        if any(h) and _try_normalization(fiber, claimed, h):
            return True
    if report is not None:
        diff = []
        for i in range(2):
            a = normal_form(fiber.relations[i],
                            list(fiber.relations)).terms
            b = normal_form(claimed.relations[i],
                            list(claimed.relations)).terms
            if a != b:
                keys = sorted(set(a) | set(b))
                first = next(k for k in keys if a.get(k) != b.get(k))
                diff.append(f"relation {i} differs at monomial {first}: "
                            f"{a.get(first, 0)} vs {b.get(first, 0)}")
        report.append("; ".join(diff) if diff
                      else "relations match; comultiplication differs")
    return False
