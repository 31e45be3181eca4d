"""The acceptance battery: one callable per criterion.

Each criterion function checks its exact conditions (no tolerances
beyond "equal at the stated precision") and raises AssertionError with a
message on failure.  The checks go through `_check`, not `assert`, so
`python -O` cannot strip them.  `run_selftest` wraps the criteria into
machine-readable records for the CLI; tests/test_acceptance.py drives
the same battery under pytest.

Golden counts were frozen from the brute-force oracles, never invented:
in particular the Hom counts for the cells (3,1), (3,3), (2,2), (1,1)
at p = 3 are 1, 9, 3, 1 (closed form and group-law enumeration agree).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import artin_hasse as ah
from . import fiber as fib
from . import models as mdl
from . import witt as wt
from .dvr import (IndeterminateAtPrecision, enumerate_quotient, eq_mod, eta,
                  make_custom_ring, make_ring)
from .errors import EisensteinError, InputError
from .hopf import check_hopf_axioms
from .poly import Poly


def _check(cond, detail="") -> None:
    """Raise AssertionError(detail) unless cond holds."""
    if not cond:
        raise AssertionError(detail)


# the digit precision M of the p = 3 battery and of the p = 5 subset
M3, M5 = 12, 8


@lru_cache(maxsize=None)
def _ring(p: int):
    return make_ring(p, M3 if p == 3 else M5)


@lru_cache(maxsize=None)
def _models3():
    return tuple(mdl.enumerate_models(_ring(3), 3))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1_hopf_validity():
    """Axioms for mu_p, G_{pi^n,1} (n<=3), the two-step kernel group, and
    every enumerated extension."""
    R = _ring(3)
    targets = [mdl.build_g(R, R.one(), 1)]
    for n in range(1, 4):
        targets.append(mdl.build_g(R, R.pi(n), 1))
    targets.append(mdl.build_g(R, R.pi(), 2))
    extensions = [mdl.build_extension(d) for d in _models3()]
    for pres in targets + extensions:
        rep = check_hopf_axioms(pres)
        _check(rep.ok, f"{pres.name}: {rep.failures}")
        _check(rep.rank in (3, 9))
    _check(all(pres.rank() == 9 for pres in extensions))


def criterion_2_canonical_model():
    """(3,3,eta,1) solves the defining congruence, builds, and reduces to
    the (0,1) class over Z/pZ; Wilson and eta^p/lam_(1) sub-checks."""
    R = _ring(3)
    d = mdl.ModelDescriptor(R, 3, 3, eta(R), 1)
    _check(mdl.phi_congruence(d), "Phi congruence fails for eta")
    mdl.build_extension(d)
    _check(fib.classify_fiber(d) == fib.FiberClass("ZpByZp", (0, 1)))
    _check(fib.wilson_check(3))
    _check(fib.eta_power_unit_check(R))
    _check(fib.verify_fiber(d))


# the desk-scale cells at p = 3: m <= v(lam_(1)), n <= m
CELLS3 = [(m, n) for m in range(4) for n in range(m + 1)]


def _phi_oracle(ring, cells):
    """phi_closed = phi_brute on every cell."""
    for m, n in cells:
        _check(mdl.phi_closed(ring, m, n) == mdl.phi_brute(ring, m, n),
               f"p={ring.p} cell ({m},{n})")


def _ker_oracle(ring, cells):
    """ker_p2 = ker_p2_brute on every cell, and the projection to Z/pZ is
    injective exactly when n <= 1 or (p-1) v(mu) > v(p) - p."""
    p = ring.p
    for m, n in cells:
        kc = mdl.ker_p2(ring, m, n)
        _check(kc == mdl.ker_p2_brute(ring, m, n),
               f"p={p} cell ({m},{n}): closed form != brute force")
        predicted = (n <= 1) or ((p - 1) * m > ring.e - p)
        _check((len(kc) == 1) == predicted, f"p={p} cell ({m},{n})")


def criterion_3_phi_oracle():
    """phi_closed = phi_brute on every desk-scale cell; the lam_(1) cell
    is {(k eta, k)}."""
    R3 = _ring(3)
    _phi_oracle(R3, CELLS3)
    els = mdl.phi_closed(R3, 3, 3)
    _check(len(els) == 3)
    et = eta(R3)
    expect = sorted((mdl.ModelDescriptor(R3, 3, 3, et.scale(k), k)
                     for k in range(3)), key=mdl.ModelDescriptor.sort_key)
    _check(els == expect)


def criterion_4_ker_p2():
    """Kernel formula vs brute force; injectivity exactly under the
    stated valuation conditions.  Every p = 3 kernel is {0}, so the p = 5
    cell (3,3), with 5 elements, is what sees a bound one too high."""
    _ker_oracle(_ring(3), CELLS3)
    _ker_oracle(_ring(5), [(3, 3)])


def criterion_5_surjectivity():
    """Image of the projection to Z/pZ matches the trichotomy on every
    cell; spot values (2,0) onto, (2,1) zero, (3,1) onto."""
    R = _ring(3)
    for m, n in CELLS3:
        js = {e.j for e in mdl.phi_brute(R, m, n)}
        if mdl.p2_surjective(R, m, n):
            _check(js == {0, 1, 2}, f"cell ({m},{n})")
        else:
            _check(js == {0}, f"cell ({m},{n})")
    _check(mdl.p2_surjective(R, 2, 0))
    _check(not mdl.p2_surjective(R, 2, 1))
    _check(mdl.p2_surjective(R, 3, 1))


def criterion_6_hom_oracle():
    """hom_closed = hom_brute on the four cells; counts frozen from the
    oracle (1, 9, 3, 1)."""
    R = _ring(3)
    golden = {(3, 1): 1, (3, 3): 9, (2, 2): 3, (1, 1): 1}
    for (m, n), count in golden.items():
        hc = mdl.hom_closed(R, m, n)
        hb = mdl.hom_brute(R, m, n)
        _check(hc == hb, f"cell ({m},{n})")
        _check(len(hc) == count, f"cell ({m},{n}): {len(hc)} != {count}")


def criterion_7_witt_layer():
    """Component-wise addition on the twisted kernel (exhaustive),
    ghost-homomorphism identities, and p[a] = (pa, a^p, 0, ...) mod p^2."""
    R = _ring(3)
    for t in (1, 2):
        pool = list(enumerate_quotient(R, t))
        kernel = [w for w in (wt.WittVector(R, t, coords)
                              for coords in product(pool, repeat=2))
                  if wt.is_frobenius_kernel(w, R.zero(), t)]
        _check(kernel)
        for u in kernel:
            for v in kernel:
                s = wt.witt_add(u, v)
                comp = wt.WittVector(
                    R, t, [u.coord(i) + v.coord(i)
                           for i in range(max(len(u), len(v)))])
                _check(s == comp)
    rng = random.Random(7)

    def rand_vec(length):
        return wt.WittVector.integral(
            R, [R.from_digits([rng.randrange(R.pM) for _ in range(R.e)])
                for _ in range(length)])

    for _ in range(100):
        u, v = rand_vec(3), rand_vec(3)
        s, m = wt.witt_add(u, v), wt.witt_mul(u, v)
        gs, gm, gu, gv = (wt.ghosts(x, 3) for x in (s, m, u, v))
        for r in range(3):
            _check((gs[r] - (gu[r] + gv[r])).is_zero())
            _check((gm[r] - gu[r] * gv[r]).is_zero())
    for _ in range(20):
        a = R.from_digits([rng.randrange(R.pM) for _ in range(R.e)])
        w = wt.witt_int_multiple(wt.WittVector.teichmuller(R, a), 3, 4)
        expect = [a.scale(3), a ** 3, R.zero(), R.zero()]
        for i in range(4):
            dv = (w.coord(i) - expect[i]).valuation()
            _check(isinstance(dv, IndeterminateAtPrecision) or dv >= 2 * R.e)


def criterion_8_artin_hasse():
    """Integrality to degree 27, the two specializations, and the
    coprime-index product formula."""
    D = 27
    d = ah.deformed_ah(3, D)    # certified internally
    base = d.base
    T, U = Poly.var(base, 3, 0), Poly.var(base, 3, 1)
    _check(d.subst([T, U, U]).eq(Poly.one(base, 3) + U * T),
           "E_p(mu, mu; T) != 1 + mu T")
    _check(d.subst([T, U, Poly.zero(base, 3)]).eq(
        ah.ah_series(3, D).subst([U * T])), "E_p(a, 0; T) != E_p(aT)")
    _check(d.eq(ah.product_form(3, D)), "product form differs")


def criterion_9_classification():
    """Pairwise non-isomorphic enumeration; hom_models = hom_models_brute
    on all ordered pairs."""
    models = _models3()
    for i, d1 in enumerate(models):
        for j, d2 in enumerate(models):
            _check(mdl.is_isomorphic(d1, d2) == (i == j))
    built = [mdl.build_extension(d) for d in models]
    for d1, pres1 in zip(models, built):
        for d2, pres2 in zip(models, built):
            hc = mdl.hom_models(d1, d2)
            hb, _ = mdl.hom_models_brute(d1, d2, pres1, pres2)
            _check(hc.tag == hb.tag, (d1.sort_key(), d2.sort_key()))


def criterion_10_rigidity():
    """At v(mu) = v(lam_(1)) every cell has |Phi| = p with trivial kernel
    (the projection to Z/pZ is an isomorphism)."""
    R = _ring(3)
    for n in range(4):
        els = mdl.phi_closed(R, 3, n)
        _check(len(els) == 3, f"n={n}")
        _check({e.j for e in els} == {0, 1, 2})
        ker = [e for e in els if e.j == 0]
        _check(len(ker) == 1 and ker[0].a.is_zero())


def criterion_11_rad():
    """No cyclic-p^2 survivors when v(mu) < v(lam): all (1,2) survivors
    have j = 0; count agrees with the independent Witt-layer oracle."""
    R = _ring(3)
    surv = mdl.rad_brute(R, 1, 2)
    _check(surv and all(j == 0 for _, j in surv))
    _check(len(surv) == mdl.rad_witt_count(R, 1, 2))


def criterion_12_ambient_isogeny():
    """The isogeny presentation succeeds (morphism + kernel containment)
    on every enumerated descriptor; the solved target hom matches the
    closed form."""
    for d in _models3():
        g = mdl.solve_target_hom(d)
        gc = mdl.target_hom_closed_form(d)
        for x, y in zip(g, gc):
            if d.n:
                _check(eq_mod(x, y, 3 * d.n))
            else:
                _check((x - y).is_zero())
        mdl.ambient_isogeny(d)


def criterion_13_blowup():
    """T -> pi T is a verified model map from the dilatation at
    v(mu) in {0, 1}."""
    R = _ring(3)
    for mu in (R.one(), R.pi()):
        mdl.neron_blowup_unit(R, mu)


def criterion_14_fiber_sweep():
    """verify_fiber on the full enumeration; cells classify as stated."""
    for d in _models3():
        fc = fib.classify_fiber(d)
        if (d.m, d.n) == (0, 0):
            _check(fc == fib.FiberClass("MuPExtension", (1,)))
        elif d.n == 0 or (d.m == 3 and d.n < 3):
            _check(fc.tag == "TrivialExtension")
        else:
            _check(fc == fib.FiberClass("ZpByZp", (0, 1)))
        _check(fib.verify_fiber(d), (d.m, d.n))


def negative_control_eisenstein():
    """Corrupted Eisenstein coefficients must be rejected."""
    R = _ring(3)
    corrupted = list(R.coeffs)
    corrupted[2] = corrupted[2] + 1  # no longer divisible by p
    try:
        make_custom_ring(3, M3, corrupted)
    except EisensteinError:
        return
    raise AssertionError("corrupted Eisenstein polynomial was accepted")


# p = 5 subset: the checks that stay desk-scale at the larger prime
def criterion_p5_phi():
    _phi_oracle(_ring(5), [(3, 3), (3, 2), (5, 1)])


def criterion_p5_ker():
    R5 = _ring(5)
    _ker_oracle(R5, [(3, 3)])
    k = mdl.ker_p2(R5, 3, 3)
    _check(len(k) == 5)
    for e in k:
        _check(e.a.is_zero() or e.a.valuation() >= 2)  # 5 v(a~) >= 7


def criterion_p5_eta():
    R5 = _ring(5)
    et = eta(R5)
    lhs = et.scale(5) - R5.lam1
    rhs = R5.from_int(5).divide_exact(R5.lam1 ** 4) * et ** 5
    _check(eq_mod(lhs, rhs, 25))
    _check(fib.wilson_check(5))
    _check(fib.eta_power_unit_check(R5))


CRITERIA = {
    "1": ("Hopf validity for the standard groups and all extensions",
          criterion_1_hopf_validity),
    "2": ("canonical order-p^2 model and its special fiber",
          criterion_2_canonical_model),
    "3": ("Phi closed form = brute force (p=3 all cells)",
          criterion_3_phi_oracle),
    "4": ("kernel formula = brute force", criterion_4_ker_p2),
    "5": ("surjectivity trichotomy with spot values",
          criterion_5_surjectivity),
    "6": ("Hom closed form = brute force with oracle-frozen counts",
          criterion_6_hom_oracle),
    "7": ("Witt layer: component-wise sums, ghost identities, p[a]",
          criterion_7_witt_layer),
    "8": ("Artin-Hasse integrality, specializations, product formula",
          criterion_8_artin_hasse),
    "9": ("classification uniqueness and Hom trichotomy on all pairs",
          criterion_9_classification),
    "10": ("rigidity at v(mu) = v(lam_(1)): |Phi| = p, trivial kernel",
           criterion_10_rigidity),
    "11": ("no cyclic-p^2 classes when v(mu) < v(lam)",
           criterion_11_rad),
    "12": ("ambient isogeny on every descriptor",
           criterion_12_ambient_isogeny),
    "13": ("unit-section dilatation model map",
           criterion_13_blowup),
    "14": ("special-fiber sweep", criterion_14_fiber_sweep),
    "neg": ("negative control: corrupted Eisenstein data rejected",
            negative_control_eisenstein),
}

CRITERIA_P5 = {
    "p5-phi": ("p=5 Phi oracle equivalence", criterion_p5_phi),
    "p5-ker": ("p=5 kernel cell", criterion_p5_ker),
    "p5-eta": ("p=5 distinguished-parameter congruence", criterion_p5_eta),
}


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self):
        return {"criterion": self.cid, "description": self.description,
                "passed": self.passed, "detail": self.detail,
                "seconds": round(self.seconds, 2)}


def run_selftest(p: int = 3, criteria=None):
    """Run the battery in order; returns a list of CriterionResult.

    p = 3 runs the full acceptance battery, p = 5 the subset that stays
    desk-scale at the larger prime; any other p raises InputError.
    """
    if p not in (3, 5):
        raise InputError(f"selftest covers p = 3 and p = 5, got p = {p}")
    table = CRITERIA if p == 3 else CRITERIA_P5
    if criteria:
        unknown = [c for c in criteria if c not in table]
        if unknown:
            raise InputError(f"unknown criteria {unknown}")
        items = [(cid, table[cid]) for cid in criteria]
    else:
        items = list(table.items())

    out = []
    for cid, (desc, fn) in items:
        t0, detail = time.time(), None
        try:
            fn()
        except AssertionError as exc:
            detail = str(exc)
        except Exception as exc:  # verification machinery raised
            detail = f"{type(exc).__name__}: {exc}"
        out.append(CriterionResult(cid, desc, detail is None, detail or "",
                                   time.time() - t0))
    return out
