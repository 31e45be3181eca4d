"""The exhaustive normalization search, the oracle of `verify_fiber`.

`verify_fiber` once tried every change of coordinates S1 -> S1,
S2 -> S2 + h(S1), h = c_1 S1 + ... + c_(p-1) S1^(p-1) over F_p, until
one carried the claimed presentation to the fiber: p^(p-1) candidates,
117,649 at p = 7.  It now reads h off the relations and makes one
check; the search stays here, built as it was, to test that reading.
The candidates share S1 -> S1, so the search checks them as one family
(`check_morphism_family`): relation 0, the counit of S1 and Delta(S1)
are decided once per claim, and every h still gets its own check of S2.
"""

from itertools import product

from p2models.fiber import claimed_presentation, classify_fiber
from p2models.hopf import (HopfMorphism, check_morphism_family,
                           residue_fiber)
from p2models.models import build_extension
from p2models.poly import Poly


def presentations(d, fc=None):
    """The special fiber of build_extension(d) and the presentation that
    the class fc (by default classify_fiber(d)) claims for it."""
    fc = classify_fiber(d) if fc is None else fc
    return (residue_fiber(build_extension(d)),
            claimed_presentation(d.ring, d, fc))


def _variables(fiber):
    """S1, S2 and the powers S1^k, k = 1..p-1, over the fiber's base."""
    base, ring = fiber.base, fiber.base.ring
    one = ring.one().with_prec(1)
    S1 = Poly.var(base, 2, 0, one)
    return S1, Poly.var(base, 2, 1, one), [S1 ** k for k in range(1, ring.p)]


def _image2(fiber, S2, powers, h_coeffs):
    """S2 + sum c_k S1^k."""
    ring = fiber.base.ring
    h = Poly.zero(fiber.base, 2)
    for power, c in zip(powers, h_coeffs):
        if c:
            h = h + power.scale(ring.from_int(c))
    return S2 + h


def normalization(fiber, claimed, h_coeffs):
    """S1 -> S1, S2 -> S2 + sum c_k S1^k from fiber to claimed."""
    S1, S2, powers = _variables(fiber)
    return HopfMorphism(source=fiber, target=claimed,
                        images=(S1, _image2(fiber, S2, powers, h_coeffs)))


def every_h(p):
    """Every (c_1, ..., c_(p-1)), h = 0 first, in lexicographic order."""
    return product(range(p), repeat=p - 1)


def hunt_verdicts(fiber, claimed):
    """The verdict of every h of `every_h`, in order, yielded as each is
    decided: one family with head S1 -> S1."""
    S1, S2, powers = _variables(fiber)
    return check_morphism_family(
        fiber, claimed, (S1,), ((_image2(fiber, S2, powers, h),)
                                for h in every_h(fiber.base.ring.p)))


def hunt(fiber, claimed):
    """Whether some h passes, trying every h of `every_h` in order and
    stopping at the first that passes."""
    return any(hunt_verdicts(fiber, claimed))
