"""Tests for presentations, axiom checking, morphisms, residue fibers."""

import dataclasses
import itertools

import pytest

from fiber_hunt import (every_h, hunt, hunt_verdicts, normalization,
                        presentations)
from p2models.dvr import QuotElement, RingElement, eq_mod, make_ring
from p2models.errors import PrecisionError
from p2models.fiber import FiberClass
from p2models.hopf import (
    HopfMorphism,
    LocalizedElement,
    _check_morphism_localized,
    _is_zero_above_floor,
    check_hopf_axioms,
    check_morphism,
    check_morphism_family,
    coeff_mod_pi,
    det_valuation,
    is_isomorphism,
    is_model_map,
    residue_fiber,
    tensor_power,
)
from p2models.models import (ModelDescriptor, _psi_candidates, ambient_isogeny,
                             build_extension, build_extension_smooth, build_g,
                             build_g_smooth, enumerate_models, hom_models,
                             hom_models_brute, star_condition)
from p2models.poly import ExactBase, Poly, TriangularRules, horner


def residues(poly):
    """{monomial: residue in F_p} of a polynomial over a residue fiber."""
    return {m: coeff_mod_pi(c) for m, c in poly.terms.items()}


def test_normal_form_basics(R3):
    G = build_g(R3, R3.one(), 1)  # mu_p
    rel = G.relations[0]
    assert G.nf(rel).is_zero()
    c = Poly.const(G.base, 1, R3.from_int(7))
    assert G.nf(c).eq(c)


def test_normal_form_unit_power(R3):
    # (1 + mu S)^p reduces to 1 in R[S]/P_{mu,1}
    mu = R3.pi()
    G = build_g(R3, mu, 1)
    u = Poly.one(G.base, 1) + Poly.var(G.base, 1, 0).scale(mu)
    assert G.nf(u ** 3).eq(G.one_poly())


def test_normal_form_idempotent_linear(R3):
    import random
    rng = random.Random(0)
    G = build_g(R3, R3.pi(), 1)
    base = G.base
    for _ in range(5):
        poly = Poly(base, 1, {(k,): R3.from_digits(
            [rng.randrange(R3.pM) for _ in range(R3.e)])
            for k in range(6)})
        nf1 = G.nf(poly)
        assert G.nf(nf1).eq(nf1)
    a = Poly.var(base, 1, 0) ** 4
    b = Poly.var(base, 1, 0) ** 5
    assert G.nf(a + b).eq(G.nf(a) + G.nf(b))


def test_mu_p_axioms(R3):
    report = check_hopf_axioms(build_g(R3, R3.one(), 1))
    assert report.ok and report.commutativity
    assert report.rank == 3


def test_g_pi_axioms(R3):
    report = check_hopf_axioms(build_g(R3, R3.pi(), 1))
    assert report.ok
    assert report.rank == 3


def test_g_lam1_axioms(R3):
    report = check_hopf_axioms(build_g(R3, R3.lam1, 1))
    assert report.ok
    assert report.rank == 3


def test_g_n2_axioms(R3):
    report = check_hopf_axioms(build_g(R3, R3.pi(), 2))
    assert report.ok
    assert report.rank == 9


def test_smooth_axioms(R3):
    report = check_hopf_axioms(build_g_smooth(R3, R3.pi()))
    assert report.ok
    assert report.rank is None


def test_antipode_and_unit_counit_can_fail(R3):
    # negative controls: a polynomial antipode over R and over F_p, and
    # a (num, den) antipode, each moved off the true one
    from dataclasses import replace
    G = build_g(R3, R3.pi(), 1)
    S = build_g_smooth(R3, R3.pi())
    for pres in (G, residue_fiber(G)):
        report = check_hopf_axioms(
            replace(pres, antipode=(pres.antipode[0] + pres.var(0),)))
        assert not report.antipode_law
        assert report.coassoc and report.counit_law
    num, den = S.antipode[0]
    assert not check_hopf_axioms(
        replace(S, antipode=((-num, den),))).antipode_law
    # a designated unit 2(1 + lam T) has counit 2
    u = replace(S.units[0], poly=S.units[0].poly.scale(R3.from_int(2)))
    report = check_hopf_axioms(replace(S, units=(u,)))
    assert not report.unit_certificates
    assert "designated unit 0 has counit != 1" in report.failures


def _fiber_with_comult_term(R3, monomial, c):
    """The special fiber alpha_p of G_{pi,1} (T^3 = 0, Delta T = T x 1
    + 1 x T) with c T^a x T^b added to Delta T, c taken mod pi."""
    from dataclasses import replace
    Gk = residue_fiber(build_g(R3, R3.pi(), 1))
    extra = Poly(Gk.base, 2, {monomial: c.with_prec(1)})
    return replace(Gk, comult=(Gk.comult[0] + extra,))


def _zero_mod_pi(R3):
    # nonzero elements of R that vanish mod pi
    return (R3.pi(), R3.from_int(3))


def test_coassociativity_can_fail(R3):
    # F = x + y + x^2 y^2 is symmetric and vanishes at y = 0, but
    # F(F(x,y),z) - F(x,F(y,z)) = 2 (x y z^2 - x^2 y z) != 0 mod x^3
    report = check_hopf_axioms(_fiber_with_comult_term(R3, (2, 2), R3.one()))
    assert not report.coassoc
    assert report.counit_law and report.commutativity
    assert "coassociativity fails on generator 0" in report.failures
    for c in _zero_mod_pi(R3):
        assert check_hopf_axioms(_fiber_with_comult_term(R3, (2, 2), c)).ok


def test_counit_law_can_fail(R3):
    # F = x + y + 1: (eps x id) F = y + 1, though F stays coassociative
    # and symmetric
    report = check_hopf_axioms(_fiber_with_comult_term(R3, (0, 0), R3.one()))
    assert not report.counit_law
    assert report.coassoc and report.commutativity
    assert "counit law fails on generator 0" in report.failures
    for c in _zero_mod_pi(R3):
        assert check_hopf_axioms(_fiber_with_comult_term(R3, (0, 0), c)).ok


def test_cocommutativity_can_fail(R3):
    # F = x + y + x y^2 is not symmetric (nor coassociative)
    report = check_hopf_axioms(_fiber_with_comult_term(R3, (1, 2), R3.one()))
    assert not report.commutativity and report.counit_law
    assert "comultiplication not cocommutative at 0" in report.failures
    for c in _zero_mod_pi(R3):
        report = check_hopf_axioms(_fiber_with_comult_term(R3, (1, 2), c))
        assert report.ok and report.commutativity


def test_star_condition_guard(R3):
    from p2models.errors import ValuationError
    with pytest.raises(ValuationError):
        build_g(R3, R3.pi(4), 1)  # v(p)=6 < 2*4


def test_identity_morphism(R3):
    G = build_g(R3, R3.pi(), 1)
    f = HopfMorphism(source=G, target=G, images=(G.var(0),))
    assert check_morphism(f)
    assert is_model_map(f)
    assert is_isomorphism(f)


def test_model_map_builds_the_image_memo_once(R3, count_calls):
    # the morphism check and the determinant read one memo of f, so each
    # is_model_map or is_isomorphism call on a fresh map builds one
    from collections import Counter

    from p2models.hopf import MonomialMemo
    G = build_g(R3, R3.pi(), 1)
    G.comult_memo  # the source's memo of Delta, built once for G
    count = count_calls(MonomialMemo, "__init__")
    for check in (is_model_map, is_isomorphism):
        f = HopfMorphism(source=G, target=G, images=(G.var(0),))
        assert check(f)
    assert count == Counter(__init__=2)


def test_model_map_checks_need_finite_presentations(R3):
    S = build_g_smooth(R3, R3.pi())
    f = HopfMorphism(source=S, target=S, images=(S.var(0),))
    assert check_morphism(f)
    for check in (is_model_map, is_isomorphism):
        with pytest.raises(ValueError, match="needs finite presentations"):
            check(f)


def test_alpha_map_to_mu_p(R3):
    # x -> 1 + lam x is not a generator-level Hopf map; the induced map
    # G_{lam,1} -> mu_p is T' -> lam T / 1 ... in our coordinates
    # mu_p = G_{1,1}, and the map is T' -> ((1+lam T) - 1)/1 = lam T.
    lam = R3.lam1
    G = build_g(R3, lam, 1)
    Mu = build_g(R3, R3.one(), 1)
    img = G.var(0).scale(lam)
    f = HopfMorphism(source=G, target=Mu, images=(img,))
    assert check_morphism(f)
    assert is_model_map(f)       # iso on the generic fiber
    assert not is_isomorphism(f)  # v(lam) > 0: determinant not a unit


def test_zero_map_is_a_morphism_but_not_a_model_map(R3):
    # negative control for is_model_map: the zero map on G_{1,1} = mu_p
    # respects the relation, the counit and the comultiplication, but
    # is not an isomorphism on the generic fiber
    G = build_g(R3, R3.one(), 1)
    f = HopfMorphism(source=G, target=G,
                     images=(G.var(0).scale(R3.zero()),))
    assert check_morphism(f)
    assert not is_model_map(f)
    assert not is_isomorphism(f)


def test_zero_map_fails_nonzero_relation(R3):
    # sending the generator to 0 is not a morphism onto a target whose
    # comultiplication has the extra lam-term... it is a morphism for
    # G-type groups (counit 0), so use a target with a twisted relation:
    # the constant map T -> 1 violates the counit.
    G = build_g(R3, R3.pi(), 1)
    f = HopfMorphism(source=G, target=G,
                     images=(Poly.one(G.base, 1),))
    assert not check_morphism(f)


def test_det_valuation(R3):
    one, pi = R3.one(), R3.pi()
    m = [[one, pi], [R3.zero(), pi]]
    assert det_valuation(m) == 1
    m2 = [[pi, one], [pi, one]]
    assert det_valuation(m2) is None  # singular at working precision


def test_residue_fiber_mu_p(R3):
    Gk = residue_fiber(build_g(R3, R3.one(), 1))
    # relation (1+T)^3 - 1 = T^3 + 3T^2 + 3T reduces to T^3 over F_3
    rel = Gk.relations[0]
    assert residues(rel) == {(3,): 1}
    report = check_hopf_axioms(Gk)
    assert report.ok and report.rank == 3


def test_residue_fiber_alpha_p(R3):
    # 0 < (p-1)v(lam) < v(p): relation becomes S^p = 0
    Gk = residue_fiber(build_g(R3, R3.pi(), 1))
    assert residues(Gk.relations[0]) == {(3,): 1}
    # additive comultiplication: T x 1 + 1 x T
    assert residues(Gk.comult[0]) == {(1, 0): 1, (0, 1): 1}


def test_residue_fiber_z_mod_p(R3):
    # boundary case v(lam) = v(lam_(1)): relation S^p - c S with c a unit
    Gk = residue_fiber(build_g(R3, R3.lam1, 1))
    rel = residues(Gk.relations[0])
    assert Gk.relations[0].degree_in(0) == 3
    assert rel.get((1,), 0) != 0  # unit coefficient: the etale Z/pZ form
    assert rel.get((2,), 0) == 0
    report = check_hopf_axioms(Gk)
    assert report.ok


def test_residue_fiber_precision_guard(R3):
    # a structure constant known to precision 0 cannot be reduced mod pi,
    # one known mod pi^2 not mod pi^3; nothing is decided over R/pi^0
    G = build_g(R3, R3.pi(), 1)
    from dataclasses import replace
    G0 = replace(G, counit=(R3.zero(prec=0),))
    with pytest.raises(PrecisionError):
        residue_fiber(G0)
    G2 = replace(G, counit=(R3.zero(prec=2),))
    residue_fiber(G2, 2)
    with pytest.raises(PrecisionError):
        residue_fiber(G2, 3)
    # beyond t = e the representative comes from the digit expansion
    G8 = replace(G, counit=(R3.zero(prec=8),))
    residue_fiber(G8, 8)
    with pytest.raises(PrecisionError):
        residue_fiber(G8, 9)
    with pytest.raises(PrecisionError):
        residue_fiber(G, 0)


def _polys(pres):
    """Every polynomial of a presentation, antipode numerators and unit
    inverses included."""
    return [*pres.relations, *pres.comult,
            *(a if isinstance(a, Poly) else a[0] for a in pres.antipode),
            *(u.poly for u in pres.units), *(u.inverse for u in pres.units)]


@pytest.mark.parametrize("t", [1, 2, 3, 6, 7, 12])
def test_residue_fiber_is_base_change_to_level_t(R3, t):
    # every coefficient becomes the canonical representative of the
    # original mod pi^t, at precision t; one = 0 mod pi^t drops out.
    # Up to t = e = 6 it is read from the slots, beyond that through
    # the pi-adic digit expansion.
    d = enumerate_models(R3, 3)[-1]
    for pres in (build_g(R3, R3.pi(), 1), build_extension(d)):
        red = residue_fiber(pres, t)
        pairs = list(zip(pres.counit, red.counit))
        for a, b in zip(_polys(pres), _polys(red)):
            assert set(b.terms) <= set(a.terms)
            pairs += [(c, b.terms.get(m)) for m, c in a.terms.items()]
        for c, r in pairs:
            if r is None:
                assert eq_mod(c, R3.zero(), t)
                continue
            assert r.prec == t and eq_mod(c, r, t)
            assert r == c.reduce_mod(t).lift().with_prec(t)
            if t <= R3.e:  # the digits of the canonical representative
                assert r.digits == c.reduce_mod(t).digits + (0,) * (
                    R3.e - t)
            if t == 1:
                assert r == RingElement(R3, coeff_mod_pi(c), 1)


def test_localized_zero_test_needs_a_known_digit(R3):
    # a coefficient known to no digit makes a zero test vacuous, in a
    # smooth presentation and in a finite one
    for pres in (build_g_smooth(R3, R3.pi()), build_g(R3, R3.pi(), 1)):
        x = LocalizedElement(pres, pres.var(0).scale(R3.one().with_prec(0)))
        with pytest.raises(PrecisionError, match="known to no digit"):
            x.is_zero()
        assert LocalizedElement(
            pres, pres.var(0).scale(R3.pi().with_prec(1))).is_zero()


def test_hopf_layer_rejects_coefficients_known_to_no_digit():
    # at M = 3 the relation of (3,3,[0,1,1],1) has four coefficients at
    # precision 0: the axioms, the Hom oracle and the ambient isogeny
    # all raise; at M = 4 they pass
    for M in (3, 4):
        R = make_ring(3, M)
        d = ModelDescriptor(R, 3, 3, QuotElement(R, 3, (0, 1, 1)), 1)
        pres = build_extension(d)
        checks = (lambda: check_hopf_axioms(pres).ok,
                  lambda: hom_models_brute(d, d, pres, pres)[0].tag
                  == "OrderP2",
                  lambda: ambient_isogeny(d) is not None)
        for check in checks:
            if M == 3:
                with pytest.raises(PrecisionError):
                    check()
            else:
                assert check()


def test_monic_test_needs_a_known_digit(R3):
    # a leading coefficient 2 known to no digit was accepted as monic,
    # and the rewrites counted it as an exact 1.  Known to one digit, 2
    # is not monic and 1 + pi is; a resident 1 is an exact one at any
    # precision.
    base = ExactBase(R3)

    def relation(lead):
        return Poly(base, 1, {(3,): lead, (1,): R3.one()})

    with pytest.raises(PrecisionError, match="known to no digit"):
        TriangularRules(base, 1, [relation(R3.from_int(2).with_prec(0))])
    with pytest.raises(ValueError, match="not monic"):
        TriangularRules(base, 1, [relation(R3.from_int(2).with_prec(1))])
    for lead in ((R3.one() + R3.pi()).with_prec(1), R3.one().with_prec(0)):
        TriangularRules(base, 1, [relation(lead)])


def test_counits_are_compared_above_the_floor(R3):
    # the identity into a copy whose counit is 5 known to no digit once
    # passed: the counits were said to agree with 0.  Linear and
    # localized paths alike.
    for pres in (build_g(R3, R3.pi(), 1), build_g_smooth(R3, R3.pi())):
        def check(counit):
            target = dataclasses.replace(pres, counit=(counit,))
            return check_morphism(HopfMorphism(
                source=pres, target=target, images=(pres.var(0),)))

        with pytest.raises(PrecisionError, match="known to no digit"):
            check(R3.from_int(5).with_prec(0))
        assert not check(R3.from_int(5).with_prec(1))
        assert check(R3.pi().with_prec(1))


def test_unit_counit_is_compared_above_the_floor(R3):
    # a counit value known to no digit gives the designated unit
    # 1 + pi T the counit 1 known to no digit, which once passed as 1
    S = build_g_smooth(R3, R3.pi())
    with pytest.raises(PrecisionError, match="known to no digit"):
        check_hopf_axioms(dataclasses.replace(
            S, counit=(R3.zero().with_prec(0),)))
    assert check_hopf_axioms(dataclasses.replace(
        S, counit=(R3.zero().with_prec(1),))).ok


def test_counit_laws_are_decided_above_the_floor(R3):
    # Poly.const drops a structural zero whatever its precision, so a
    # counit 0 known to no digit once let every law of the finite
    # G_{pi,1} hold; a nonzero value at precision 0 is refused alike
    G = build_g(R3, R3.pi(), 1)
    for value in (R3.zero().with_prec(0), R3.from_int(5).with_prec(0)):
        with pytest.raises(PrecisionError, match="known to no digit"):
            check_hopf_axioms(dataclasses.replace(G, counit=(value,)))
    assert check_hopf_axioms(dataclasses.replace(
        G, counit=(R3.zero().with_prec(1),))).ok


def test_rank_of_tensor_square(R3):
    G = build_g(R3, R3.pi(), 1)
    assert tensor_power(G, 2).rank() == 9  # rank(H x H) = rank(H)^2
    assert tensor_power(G, 3).rank() == 27


def test_tensor_power_embeds_units(R3):
    # factor f carries the unit and its inverse certificate at offset f*n
    E = build_g(R3, R3.pi(), 2)
    sq = tensor_power(E, 2)
    n, k = E.ngens, len(E.units)
    assert len(sq.units) == 2 * k and sq.counit == E.counit * 2
    for f in range(2):
        for i, u in enumerate(E.units):
            v = sq.units[f * k + i]
            assert v.poly.eq(u.poly.embed(2 * n, f * n))
            assert v.inverse.eq(u.inverse.embed(2 * n, f * n))
            assert sq.nf(v.poly * v.inverse).eq(Poly.one(sq.base, 2 * n))


def test_residue_fiber_of_smooth_presentations(R3):
    # a (num, den) antipode is reduced mod pi along with everything else
    smooth = [build_g_smooth(R3, R3.pi())] + [
        build_extension_smooth(d) for d in enumerate_models(R3, 3)]
    for pres in smooth:
        Gk = residue_fiber(pres)
        # every coefficient is its residue digit at precision 1
        assert all(c == R3.from_int(coeff_mod_pi(c)).with_prec(1)
                   for a in Gk.antipode for c in a[0].terms.values())
        report = check_hopf_axioms(Gk)
        assert report.ok, (pres.name, report.failures)


def test_morphism_relation_can_fail(R3):
    # T -> 2T on G_{pi,1}: the relation P_{pi,1}(2T) is not a multiple
    # of P_{pi,1}(T), so the first branch of check_morphism rejects it
    G = build_g(R3, R3.pi(), 1)
    f = HopfMorphism(source=G, target=G,
                     images=(G.var(0).scale(R3.from_int(2)),))
    assert not f.image_memo.image(G.relations[0]).is_zero()
    assert not check_morphism(f)


def test_morphism_comultiplication_can_fail(R3):
    # T -> T + pi T^2 on the smooth G^(pi): no relations, counits agree
    # (both 0), but Delta(f T) != (f x f)(Delta T)
    S = build_g_smooth(R3, R3.pi())
    T = S.var(0)
    f = HopfMorphism(source=S, target=S,
                     images=(T + (T * T).scale(R3.pi()),))
    assert S.relations == (None,)
    assert S.counit_of(f.images[0]).is_zero()
    assert not check_morphism(f)


# -- the linear morphism check against the localized one ----------------------

def _same_verdict(f):
    """check_morphism(f), asserted equal to the localized check, the
    reference for the linear one on finite presentations."""
    got = check_morphism(f)
    assert got == _check_morphism_localized(f), f.name
    return got


def _outcome(fn):
    """fn(), or the name of the exception it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc).__name__


def _family_outcomes(src, tgt, head, tails):
    """The verdict of check_morphism_family for each tail, in order, and
    the name of the exception where it raises; the list ends there."""
    out, verdicts = [], check_morphism_family(src, tgt, head, tails)
    while True:
        try:
            out.append(next(verdicts))
        except StopIteration:
            return out
        except Exception as exc:
            return out + [type(exc).__name__]


def _family_verdicts(fs):
    """The maps fs, which share their first image, checked as one family,
    after asserting that each verdict is that of check_morphism on the
    map built alone and of the localized check, or the same exception
    type, where the family ends."""
    got = _family_outcomes(fs[0].source, fs[0].target, fs[0].images[:1],
                           [f.images[1:] for f in fs])
    alone = [_outcome(lambda f=f: _same_verdict(f)) for f in fs]
    assert got == alone[:len(got)]
    assert len(got) == len(fs) or isinstance(got[-1], str)
    return got


def _psi_families(cands, p):
    """The well-defined candidates psi(r, s) of a list of
    _psi_candidates, one list per r."""
    return [[f for (r, _), f in cands if r == k and f is not None]
            for k in range(p)]


def test_linear_check_agrees_on_the_hom_candidates_at_p3(R3):
    # all 441 candidates of the 49 ordered pairs of criterion 9, checked
    # as hom_models_brute checks them, one family over s per r; the 303
    # that are well defined over R are morphisms
    models = enumerate_models(R3, 3)
    built = [build_extension(d) for d in models]
    assert all(pres.is_finite and pres.head_depth(1) == 1 for pres in built)
    total, verdicts = 0, []
    for d1, src in zip(models, built):
        for d2, tgt in zip(models, built):
            cands = list(_psi_candidates(src, tgt, d1, d2))
            total += len(cands)
            for fs in _psi_families(cands, 3):
                verdicts += _family_verdicts(fs) if fs else []
    assert (total, len(verdicts)) == (441, 303)
    assert all(v is True for v in verdicts)


def test_linear_check_agrees_on_orderp2_pairs_at_p5():
    R5 = make_ring(5, 8)
    models = {(d.m, d.n): d for d in enumerate_models(R5, 5)}
    assert all(build_extension(d).head_depth(1) == 1 for d in models.values())
    for left, right in (((2, 0), (0, 0)), ((4, 0), (2, 0)), ((5, 1), (5, 1))):
        d1, d2 = models[left], models[right]
        assert hom_models(d1, d2).tag == "OrderP2"
        src, tgt = build_extension(d1), build_extension(d2)
        cands = list(_psi_candidates(src, tgt, d1, d2))
        assert [rs for rs, _ in cands] == list(
            itertools.product(range(5), repeat=2))
        families = _psi_families(cands, 5)
        assert [len(fs) for fs in families] == [5] * 5
        assert all(v is True for fs in families
                   for v in _family_verdicts(fs))


@pytest.mark.parametrize("p, M, attempts, rejected",
                         [(3, 12, 19, 12), (5, 8, 1761, 1750)],
                         ids=["p3", "p5"])
def test_linear_check_agrees_on_the_fiber_normalizations(
        p, M, attempts, rejected):
    # every S2 -> S2 + h(S1) attempt the oracle search of verify_fiber
    # (fiber_hunt.hunt) makes on the enumerated models, up to the first
    # that passes: the family's verdict is that of the map checked
    # alone, linearly and localized; each rejection comes from the
    # relation branch
    verdicts = []
    models = enumerate_models(make_ring(p, M), p)
    assert len(models) == {3: 7, 5: 11}[p]
    for d in models:
        fiber, claimed = presentations(d)
        for h, got in zip(every_h(p), hunt_verdicts(fiber, claimed)):
            assert got == _same_verdict(normalization(fiber, claimed, h))
            verdicts.append(got)
            if got:
                break
        assert verdicts[-1], (d.m, d.n)
    assert (len(verdicts), verdicts.count(False)) == (attempts, rejected)


def _floor_model(p):
    """The (3,3) model at p = 3 and the (5,3) model at p = 5, and its
    presentation."""
    d = enumerate_models(make_ring(p, {3: 12, 5: 8}[p]), p)[{3: -1, 5: 8}[p]]
    assert (d.m, d.n) == ((3, 3) if p == 3 else (5, 3))
    return d, build_extension(d)


def _perturbed(poly, m, k):
    """poly with pi^k added to its coefficient at m."""
    c = poly.terms[m]
    return Poly(poly.base, poly.nvars, {**poly.terms, m: c + c.ring.pi(k)})


def _first_accepted(verdict, top):
    """The least k in 0..top the check accepts, after asserting that it
    rejects every smaller k and accepts every larger one."""
    verdicts = [verdict(k) for k in range(top + 1)]
    k = verdicts.index(True)
    assert not any(verdicts[:k]) and all(verdicts[k:])
    return k


# (p, image, monomial, precision of the coefficient, least k accepted):
# one coefficient whose precision is a multiple of e and one whose
# precision is not, the two run shapes of a zero test mod pi^t
LINEAR_FLOORS = [(3, "identity", (0, 1), 72, 69),
                 (3, "psi(0,1)", (1, 0), 69, 66),
                 (5, "identity", (0, 1), 160, 157),
                 (5, "psi(0,1)", (1, 0), 157, 152)]


@pytest.mark.parametrize("p, name, m, prec, floor", LINEAR_FLOORS)
def test_linear_morphism_check_is_two_sided_at_the_floor(p, name, m, prec,
                                                         floor):
    # pi^k added to one coefficient of image 1 of an endomorphism of a
    # model, checked linearly: every k below the floor is rejected and
    # every k from it on is accepted
    d, pres = _floor_model(p)
    if name == "identity":
        f = HopfMorphism(source=pres, target=pres,
                         images=(pres.var(0), pres.var(1)), name=name)
    else:
        f = {g.name: g for _, g in _psi_candidates(pres, pres, d, d)
             if g is not None}[name]
    assert f.source.is_finite and f.target.is_finite and check_morphism(f)
    im = f.images[1]
    assert im.terms[m].prec == prec
    assert (prec % pres.base.ring.e == 0) == (name == "identity")

    def verdict(k):
        return check_morphism(dataclasses.replace(
            f, images=(f.images[0], _perturbed(im, m, k))))

    assert _first_accepted(verdict, pres.base.ring.full_prec) == floor


# (p, r, monomial of the image of S1', precision of its coefficient,
# least k accepted)
HEAD_FLOORS = [(3, 2, (1, 0), 69, 63), (5, 2, (1, 0), 155, 150)]


@pytest.mark.parametrize("p, r, m, prec, floor", HEAD_FLOORS)
def test_a_perturbed_head_fails_every_tail(p, r, m, prec, floor):
    # pi^k added to one coefficient of the image of S1' shared by the p
    # candidates psi(r, s) of the floor model's self-pair: at k = 0 and
    # just below the floor the family rejects every tail, at the floor
    # and at the coefficient's precision it accepts every tail, each as
    # the map checked alone
    d, pres = _floor_model(p)
    fs = _psi_families(list(_psi_candidates(pres, pres, d, d)), p)[r]
    head = fs[0].images[0]
    assert len(fs) == p and head.terms[m].prec == prec
    for k, want in ((0, False), (floor - 1, False), (floor, True),
                    (prec, True)):
        perturbed = _perturbed(head, m, k)
        assert _family_verdicts([dataclasses.replace(
            f, images=(perturbed, *f.images[1:])) for f in fs]) \
            == [want] * p, k


@pytest.mark.parametrize("p, name, m, prec, floor",
                         [row for row in LINEAR_FLOORS
                          if row[1].startswith("psi")])
def test_a_perturbed_tail_fails_only_itself(p, name, m, prec, floor):
    # the psi(0, 1) row of LINEAR_FLOORS in its family psi(0, s): just
    # below the floor only psi(0, 1) fails; at the floor all pass
    d, pres = _floor_model(p)
    fs = _psi_families(list(_psi_candidates(pres, pres, d, d)), p)[0]
    assert [f.name for f in fs] == [f"psi(0,{s})" for s in range(p)]
    im = fs[1].images[1]
    assert im.terms[m].prec == prec
    for k, want in ((floor - 1, [s != 1 for s in range(p)]),
                    (floor, [True] * p)):
        bad = dataclasses.replace(fs[1], images=(
            fs[1].images[0], _perturbed(im, m, k)))
        assert _family_verdicts([fs[0], bad, *fs[2:]]) == want


def test_a_head_that_is_not_closed_is_decided_per_tail(count_calls):
    # negative control for the head: Delta(S1) of the (3,3) model with
    # S2' S2'' added involves S2, so head_depth is 0 and every tail
    # decides S1 itself.  Into that presentation, S1 -> S1, S2 -> S2 +
    # c S1 passes at c = 0 only, and every verdict is that of the map
    # checked alone
    from p2models import hopf as hopf_module
    _, pres = _floor_model(3)
    ring = pres.base.ring
    assert pres.head_depth(1) == 1
    S1, S2 = pres.var(0), pres.var(1)
    cross = (Poly.var(pres.base, 4, 1) * Poly.var(pres.base, 4, 3))
    bent = dataclasses.replace(pres, comult=(pres.comult[0] + cross,
                                             pres.comult[1]))
    assert bent.head_depth(1) == 0
    fs = [HopfMorphism(source=bent, target=bent,
                       images=(S1, S2 + S1.scale(ring.from_int(c))))
          for c in range(3)]
    counts = count_calls(hopf_module, "_generator_holds",
                         key=lambda f, g: g)
    assert _family_outcomes(bent, bent, (S1,), [f.images[1:] for f in fs]) \
        == [True, False, False]
    assert counts == {("_generator_holds", 0): 3,
                      ("_generator_holds", 1): 1}
    assert [_same_verdict(f) for f in fs] == [True, False, False]


def test_families_decide_their_head_once(models3, count_calls):
    # hom_models_brute on an OrderP2 pair decides S1' once per r and S2'
    # once per candidate, p and p^2 times; the fiber search decides
    # S1 -> S1 once per claim, a wrong claim's S2 for every h
    from p2models import hopf as hopf_module
    d = models3[-1]
    pres = build_extension(d)
    counts = count_calls(hopf_module, "_generator_holds",
                         key=lambda f, g: g)
    hc, _ = hom_models_brute(d, d, pres, pres)
    assert hc.tag == "OrderP2"
    assert counts == {("_generator_holds", 0): 3,
                      ("_generator_holds", 1): 9}
    for fc, tried in ((None, 1), (FiberClass("ZpByZp", (0, 2)), 9)):
        counts.clear()
        assert hunt(*presentations(d, fc)) == (fc is None)
        assert counts == {("_generator_holds", 0): 1,
                          ("_generator_holds", 1): tried}


# (p, monomial of Delta(S2), precision of its coefficient, least k
# accepted)
AXIOM_FLOORS = [(3, (0, 1, 0, 1), 72, 69), (3, (1, 0, 1, 0), 69, 67),
                (5, (0, 1, 0, 1), 160, 155), (5, (1, 0, 1, 0), 157, 155)]


@pytest.mark.parametrize("p, m, prec, floor", AXIOM_FLOORS)
def test_hopf_axioms_are_two_sided_at_the_floor(p, m, prec, floor):
    # pi^k added to one coefficient of the comultiplication of S2
    _, pres = _floor_model(p)
    delta = pres.comult[1]
    assert delta.terms[m].prec == prec

    def verdict(k):
        return check_hopf_axioms(dataclasses.replace(
            pres, comult=(pres.comult[0], _perturbed(delta, m, k)))).ok

    assert _first_accepted(verdict, pres.base.ring.full_prec) == floor


def test_linear_check_clears_denominators_by_inverse_certificates(R3):
    # images with denominators over a finite source, u the designated
    # unit 1 + pi T of G_{pi,1}: T u / u is the identity; T u^2 / u =
    # T + pi T^2 and T u / u^2 = T / u are not morphisms
    G = build_g(R3, R3.pi(), 1)
    T, u = G.var(0), G.units[0].poly
    for num, den, want in ((T * u, 1, True), (T * u * u, 1, False),
                           (T * u, 2, False)):
        f = HopfMorphism(source=G, target=G,
                         images=(LocalizedElement(G, num, (den,)),))
        assert f.image_memo.gens[0].eq(T) == want
        assert _same_verdict(f) == want


def test_morphism_comultiplication_can_fail_on_a_finite_presentation(R3):
    # T -> T^2 on the special fiber of G_{pi,1}, where the relation is T^3
    # and Delta T = T' + T'': (T^2)^3 = 0 and both counits are 0, but
    # Delta(T^2) - T'^2 - T''^2 = 2 T'T'' is not 0
    G = residue_fiber(build_g(R3, R3.pi(), 1))
    assert residues(G.relations[0]) == {(3,): 1}
    assert residues(G.comult[0]) == {(1, 0): 1, (0, 1): 1}
    T = G.var(0)
    f = HopfMorphism(source=G, target=G, images=(T * T,))
    assert f.image_memo.image(G.relations[0]).is_zero()
    assert G.counit_of(T * T).is_zero()
    assert not _same_verdict(f)


def _same_counit_as_horner(pres, poly):
    got = pres.counit_of(poly)
    want = horner(poly, list(pres.counit), lambda c: c)
    return (got.P, got.prec) == (want.P, want.prec)


def _lowered(poly, k):
    """poly with its first nonconstant coefficient known to pi^k only."""
    terms = dict(poly.terms)
    m = next(m for m in terms if any(m))
    terms[m] = terms[m].with_prec(k)
    return Poly(poly.base, poly.nvars, terms)


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)], ids=["p3", "p5"])
def test_zero_counit_is_read_off_the_constant_term(p, M):
    # every build_g presentation and its residue fibers has counit 0, so
    # counit_of reads the constant term; digits and precision are those
    # of the Horner evaluation, on the presentation's own polynomials,
    # one without a constant term, one with a coefficient known to pi^2
    # only, and the zero and constant polynomials, in the presentation
    # and in its square
    ring = make_ring(p, M)
    built = [build_g(ring, ring.pi(v), n)
             for v in range(ring.e + 1) for n in (1, 2)
             if star_condition(ring, ring.pi(v), n)]
    checked = 0
    for G in built:
        for pres in [G] + [residue_fiber(G, t) for t in (1, 2, p)]:
            assert not any(e.P for e in pres.counit)
            for space in (pres, pres.square):
                polys = [f for f in _polys(pres)
                         if f is not None and f.nvars == space.ngens]
                x = space.var(space.ngens - 1)
                unit = space.one_poly() + x.scale(ring.pi())
                polys += [x * unit, _lowered(unit, 2), space.one_poly(),
                          Poly.zero(space.base, space.ngens)]
                for f in polys:
                    assert _same_counit_as_horner(space, f)
                    checked += 1
    assert checked > 100
    # counit values at two precisions: only those of the variables that
    # occur bound the precision
    sq = built[0].square
    mixed = dataclasses.replace(sq, counit=(ring.zero(3), ring.zero(5)))
    y = mixed.var(1)
    assert mixed.counit_of(y + mixed.one_poly()).prec == 5
    assert mixed.counit_of(mixed.var(0) * y).prec == 3
    for f in (y + mixed.one_poly(), mixed.var(0) * y):
        assert _same_counit_as_horner(mixed, f)


def _comult_respects_relations(pres) -> bool:
    """Delta(r) = 0 in the square and eps(r) = 0 for every relation r:
    the premise of the linear morphism check."""
    return all(_is_zero_above_floor(pres.comult_memo.image(r))
               and pres.counit_of(r).is_zero() for r in pres.relations)


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)], ids=["p3", "p5"])
def test_comultiplication_respects_the_relations(p, M):
    models = enumerate_models(make_ring(p, M), p)
    assert len(models) == {3: 7, 5: 11}[p]
    assert all(_comult_respects_relations(build_extension(d))
               for d in models)


def test_comultiplication_breaking_a_relation_is_found(R3):
    # negative control: relation T^2 with Delta T = T' + T'' over F_3;
    # eps(T^2) = 0, but Delta(T^2) = 2 T'T'' modulo T'^2 and T''^2
    G = residue_fiber(build_g(R3, R3.pi(), 1))
    T = G.var(0)
    broken = dataclasses.replace(G, relations=(T * T,))
    assert _comult_respects_relations(G)
    assert broken.counit_of(T * T).is_zero()
    assert not _comult_respects_relations(broken)
