"""Witt-vector calculus over R and its quotients R/pi^t.

Vectors are finite coordinate lists.  Arithmetic is exact: operands are
lifted canonically to R (characteristic zero), combined through the
ghost components Phi_r(c) = c_0^{p^r} + p c_1^{p^(r-1)} + ... + p^r c_r,
and the result coordinates are recovered by the inverse recursion whose
divisions by p^r are exact precisely because the universal sum/product
polynomials are integral.  This evaluates the universal polynomials
without expanding them; the tests check it against their closed forms
in length 2.

Over a quotient R/pi^t each coordinate is held as its canonical lift,
a full-precision element of R whose pi-adic digits lie in {0..p-1} below
pi^t and vanish from pi^t on, so the Witt layer computes on RingElements
alone; `WittVector.coord` returns the class as a QuotElement.

The ghosts, their combination and the inverse recursion run on
residents (packed integer, precision) through the ring's packed
operations, which RingElement's operators call too, and build one
RingElement per result; every ghost operation goes through `_recover`.

Over R/pi^t coordinate r of a sum, Frobenius or p-multiple of vectors of
support <= K is isobaric of weight p^r (p^(r+1) for F) in coordinates of
weight p^i, i < K; a product is so in each operand.  Nilpotent operands
(one for a product) give it valuation >= p^(r-K+1): zero mod pi^t from
r = K - 1 + k on, k least >= 0 with p^k >= t.  Each operation works at
length K + max(1, k); `_settle` checks that the last, spare one vanishes.

Each vector computes its ghost components once: `ghosts` keeps the
longest prefix computed so far on the vector, and later calls read it.
The rungs c -> c^p of the Frobenius power ladders come from the ring's
memo of powers (`RingDescriptor._unary`): over R/pi^t the coordinates
range over a finite set, so across vectors the same rungs recur.
"""

from __future__ import annotations

from .dvr import (IndeterminateAtPrecision, QuotElement, RingDescriptor,
                  RingElement)
from .errors import P2ModelsError


class WittVector:
    """Finite-support Witt vector over R (t=0) or over R/pi^t (t>0).

    Over R/pi^t the constructor takes QuotElements of R/pi^t or
    RingElements known mod pi^t and keeps their canonical lifts;
    `coord`, `to_json` and `repr` show them as QuotElements.

    Immutable apart from `_ghosts`, the longest prefix Phi_0..Phi_(k-1)
    that `ghosts` has computed; it is written only there, a longer prefix
    replacing a shorter one.
    """

    __slots__ = ("ring", "t", "coords", "_ghosts")

    def __init__(self, ring: RingDescriptor, t: int, coords):
        self.ring = ring
        self.t = t
        coords = list(coords)
        for i, c in enumerate(coords if t else ()):
            if not isinstance(c, QuotElement):
                coords[i] = RingElement(ring, ring._mod_pi(c.P, c.prec, t),
                                        ring.full_prec)
            elif c.t == t:
                coords[i] = c.lift()
            else:
                raise ValueError(f"coordinate in R/pi^{c.t} for R/pi^{t}")
        while coords and (coords[-1].P == 0 if t else coords[-1].is_zero()):
            coords.pop()
        self.coords = tuple(coords)
        self._ghosts = ()

    @classmethod
    def integral(cls, ring, coords):
        return cls(ring, 0, coords)

    @classmethod
    def teichmuller(cls, ring, a, t: int = 0):
        return cls(ring, t, [a])

    @classmethod
    def zero(cls, ring, t: int = 0):
        return cls(ring, t, [])

    def __len__(self):
        return len(self.coords)

    def coord(self, i: int) -> RingElement | QuotElement:
        """Coordinate i: in R, or its class in R/pi^t."""
        c = self.coords[i] if i < len(self.coords) else self.ring.zero()
        return c.reduce_mod(self.t) if self.t else c

    def lift_coords(self, length: int) -> list[RingElement]:
        """The first `length` coordinates in R, zero-padded."""
        return (list(self.coords[:length])
                + [self.ring.zero()] * (length - len(self.coords)))

    def reduce(self, t: int) -> "WittVector":
        """Over R/pi^t; one over R/pi^s, 0 < s < t, has no single lift."""
        if 0 < self.t < t:
            raise ValueError(f"a vector over R/pi^{self.t} has no single "
                             f"lift to R/pi^{t}")
        return WittVector(self.ring, t, self.coords)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        if self.ring is not other.ring or self.t != other.t:
            return False
        n = max(len(self), len(other))
        return all(a.P == b.P if self.t else (a - b).is_zero() for a, b
                   in zip(self.lift_coords(n), other.lift_coords(n)))

    def __hash__(self):
        raise TypeError("WittVector is unhashable")

    def __repr__(self):
        return (f"WittVector(t={self.t}, "
                f"{[self.coord(i) for i in range(len(self))]!r})")

    def to_json(self):
        return [self.coord(i).to_json() for i in range(len(self))]

    def is_nilpotent(self) -> bool:
        """All coordinates nilpotent in R/pi^t (valuation >= 1)."""
        if self.t == 0:
            raise ValueError("nilpotency is a quotient-level predicate")
        for c in self.coords:
            v = c.valuation()
            if not isinstance(v, IndeterminateAtPrecision) and v == 0:
                return False
        return True


def _climb(ring: RingDescriptor, rungs: list[tuple]) -> list[tuple]:
    """The next rung c^p of each Frobenius power ladder c, c^p, ..., as
    residents (packed integer, precision) from the ring's memo of powers;
    a structurally zero rung is its own successor (digits of 0^p)."""
    memo, p = ring._memo, ring.p
    return [((y := memo(x, xp, p)).P, y.prec) if x else (x, xp)
            for x, xp in rungs]


def ghosts(w: WittVector, length: int) -> list[RingElement]:
    """Phi_0..Phi_(length-1) of the (canonically lifted) vector, exactly.

    Phi_r = sum_i p^i c_i^(p^(r-i)); each c_i^(p^k) is one p-th power of
    the rung before it on the ladder of c_i.  A structurally zero rung
    is skipped unless its precision is below the running sum's, which it
    still lowers.  Phi_r depends on c_0..c_r alone, so a stored longer
    prefix answers a shorter request with the same digits and precision.
    """
    if len(w._ghosts) >= length:
        return list(w._ghosts[:length])
    ring = w.ring
    out, rungs = [], []  # rungs[i] = c_i^(p^(r-i)), as residents
    for c in w.lift_coords(length):
        rungs = _climb(ring, rungs) + [(c.P, c.prec)]
        acc, prec = 0, ring.full_prec
        for i, (x, xp) in enumerate(rungs):
            if x or xp < prec:  # p^i x at x's precision, as scale(p^i)
                acc = ring._add(acc, ring._times_p_power(x, xp, i)[0])
                prec = xp if xp < prec else prec
        out.append(RingElement(ring, acc, prec))
    w._ghosts = tuple(out)
    return out


def ghost(w: WittVector, r: int) -> RingElement:
    """Phi_r of the (canonically lifted) vector, computed exactly."""
    return ghosts(w, r + 1)[r]


def _resident(x: RingElement) -> tuple:
    """x as a resident: its packed integer and its precision."""
    return x.P, x.prec


def _recover(ring: RingDescriptor, gh: list[tuple]) -> list[RingElement]:
    """Coordinates from ghost components given as residents (divisions by
    p^r are exact), one RingElement each.

    The term p^k c_k^(p^(r-k)) is known to k e digits more than the rung
    (`RingDescriptor._times_p_power`), so coordinate r loses the r e
    digits of its own division, not those of the earlier ones again.
    Coordinate 0 is Phi_0 itself.

    A structurally zero rung is skipped: it cannot lower the precision.
    Every caller passes ghost precisions that do not rise with r: each
    Phi_r is a minimum over a growing set of terms (`ghosts`), and
    witt_add, witt_mul, frobenius_w, mult_by_p and witt_int_multiple
    combine ghosts by a minimum, a shift or a scale, which keep that
    order.  So the term of a recovered rung k < r is known at least to
    Phi_k's precision, hence to Phi_r's."""
    sub, times_p_power = ring._sub, ring._times_p_power
    divide_p_power = ring._divide_p_power
    coords, rungs = [], []  # rungs[k] = c_k^(p^(r-k)), as residents
    for r, (acc, prec) in enumerate(gh):
        rungs = _climb(ring, rungs)
        for k, (x, xp) in enumerate(rungs):
            if k:
                x, xp = times_p_power(x, xp, k)
            if x:
                acc = sub(acc, x)
                prec = xp if xp < prec else prec
        if r:
            acc, prec = divide_p_power(acc, prec, r)
        coords.append((acc, prec))
        rungs.append((acc, prec))
    return [RingElement(ring, x, prec) for x, prec in coords]


def _extra_length(p: int, t: int) -> int:
    """max(1, k) for the least k >= 0 with p^k >= t, in integers: the
    indices past the support that the weight bound asks over R/pi^t."""
    k = 0
    while p ** k < t:
        k += 1
    return max(1, k)


def _settle(ring, t, coords):
    """The vector of coords over R/pi^t (over R when t = 0); over a
    quotient the spare last coordinate must vanish and be dropped."""
    w = WittVector(ring, t, coords)
    if t and len(w) == len(coords):
        raise P2ModelsError(
            "Witt vector did not settle within the working length; "
            "input coordinates were likely not nilpotent")
    return w


def _binary_ghost_op(u: WittVector, v: WittVector, combine):
    ring = u.ring
    if u.t != v.t or u.ring is not v.ring:
        raise ValueError("Witt operands on different bases")
    t = u.t
    length = max(len(u), len(v)) + (_extra_length(ring.p, t) if t else 0)
    gh = [combine(a, b)
          for a, b in zip(ghosts(u, length), ghosts(v, length))]
    return _settle(ring, t, _recover(ring, gh))


def witt_add(u: WittVector, v: WittVector) -> WittVector:
    add = u.ring._add
    return _binary_ghost_op(u, v, lambda a, b: (
        add(a.P, b.P), a.prec if a.prec < b.prec else b.prec))


def witt_mul(u: WittVector, v: WittVector) -> WittVector:
    return _binary_ghost_op(u, v, lambda a, b: _resident(a * b))


def witt_neg(u: WittVector) -> WittVector:
    # coordinate-wise for p odd
    return WittVector(u.ring, u.t, [-c for c in u.coords])


def witt_sub(u: WittVector, v: WittVector) -> WittVector:
    return witt_add(u, witt_neg(v))


def scalar_teich(c: RingElement, u: WittVector) -> WittVector:
    """[c] * u = (c u_0, c^p u_1, c^{p^2} u_2, ...), the closed form."""
    p = u.ring.p
    return WittVector(u.ring, u.t, [c ** (p ** k) * a
                                    for k, a in enumerate(u.coords)])


def verschiebung(u: WittVector) -> WittVector:
    return WittVector(u.ring, u.t, (u.ring.zero(),) + u.coords)


def frobenius_w(u: WittVector) -> WittVector:
    """Generalized Frobenius; on a base where p = 0 it is the
    coordinate-wise p-power map."""
    ring = u.ring
    length = len(u) + (_extra_length(ring.p, u.t) if u.t else 0)
    gh = [_resident(g) for g in ghosts(u, length + 1)[1:]]
    return _settle(ring, u.t, _recover(ring, gh))


def is_frobenius_kernel(u: WittVector, mu: RingElement, t: int) -> bool:
    """Membership in W^(F - [mu^(p-1)]) over R/pi^t, nilpotence included."""
    if t == 0:
        raise ValueError("kernel predicate needs a positive modulus")
    uq = u if u.t == t else u.reduce(t)
    if not uq.is_nilpotent():
        return False
    lhs = frobenius_w(uq)
    rhs = scalar_teich(mu ** (uq.ring.p - 1), uq)
    return lhs == rhs


def mult_by_p(u: WittVector, target_t: int) -> WittVector:
    """Multiplication by p: lift canonically, multiply in W(R), reduce.

    Used as the map W^(F-[mu^(p-1)])(R/lam) -> W(R/lam^p); the class of
    the result does not depend on the chosen lift.
    """
    ring = u.ring
    if u.t == 0:
        raise ValueError("mult_by_p expects a quotient-level vector")
    length = len(u) + _extra_length(ring.p, target_t)
    gh = [_resident(g.scale(ring.p)) for g in ghosts(u, length)]
    return _settle(ring, target_t, _recover(ring, gh))


def witt_int_multiple(u: WittVector, n: int, length: int) -> WittVector:
    """n * u in W_length(R) for an integral vector (exact)."""
    if u.t != 0:
        raise ValueError("integral vectors only")
    gh = [_resident(g.scale(n)) for g in ghosts(u, length)]
    return WittVector(u.ring, 0, _recover(u.ring, gh))


def psi_star_image(b: WittVector, mu: RingElement) -> WittVector:
    """[p/mu^(p-1)] b + V(b), the pullback along the degree-p isogeny."""
    ring = b.ring
    if ring.p == 2:
        raise ValueError("p = 2 needs the variant shift operator")
    scalar = ring.from_int(ring.p).divide_exact(mu ** (ring.p - 1))
    return witt_add(scalar_teich(scalar, b), verschiebung(b))
