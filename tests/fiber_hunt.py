"""The exhaustive normalization search, the oracle of `verify_fiber`.

`verify_fiber` once tried every change of coordinates S1 -> S1,
S2 -> S2 + h(S1), h = c_1 S1 + ... + c_(p-1) S1^(p-1) over F_p, until
one carried the claimed presentation to the fiber: p^(p-1) candidates,
117,649 at p = 7.  It now reads h off the relations and makes one
check; the search stays here, built as it was, to test that reading.
"""

from itertools import product

from p2models.fiber import claimed_presentation, classify_fiber
from p2models.hopf import HopfMorphism, check_morphism, residue_fiber
from p2models.models import build_extension
from p2models.poly import Poly


def presentations(d, fc=None):
    """The special fiber of build_extension(d) and the presentation that
    the class fc (by default classify_fiber(d)) claims for it."""
    fc = classify_fiber(d) if fc is None else fc
    return (residue_fiber(build_extension(d)),
            claimed_presentation(d.ring, d, fc))


def normalization(fiber, claimed, h_coeffs):
    """S1 -> S1, S2 -> S2 + sum c_k S1^k from fiber to claimed."""
    base, ring = fiber.base, fiber.base.ring
    one = ring.one().with_prec(1)
    S1 = Poly.var(base, 2, 0, one)
    S2 = Poly.var(base, 2, 1, one)
    h = Poly.zero(base, 2)
    for k, c in enumerate(h_coeffs, start=1):
        if c:
            h = h + (S1 ** k).scale(ring.from_int(c))
    return HopfMorphism(source=fiber, target=claimed, images=(S1, S2 + h))


def hunt(fiber, claimed, check=check_morphism):
    """Whether some h passes `check`, trying h = 0 first and then every
    (c_1, ..., c_(p-1)) in lexicographic order, stopping at the first
    that passes."""
    p = fiber.base.ring.p
    return any(check(normalization(fiber, claimed, h))
               for h in product(range(p), repeat=p - 1))
