"""Tests for the model constructors, Hom/Phi machinery and classification."""

from collections import Counter

import pytest

from p2models import models as models_module
from p2models import poly as poly_module
from p2models.dvr import (
    QuotElement,
    RingDescriptor,
    RingElement,
    enumerate_quotient,
    eq_mod,
    eta,
    make_custom_ring,
    make_ring,
)
from p2models.artin_hasse import ah_series, deformed_ah, ep_poly_special
from p2models.errors import (BudgetError, DivisibilityError, InputError,
                             LinearSolveError, P2ModelsError, PrecisionError,
                             ValuationError)
from p2models.hopf import check_hopf_axioms, check_morphism, is_model_map
from p2models.models import (
    ModelDescriptor,
    _psi_candidates,
    ambient_isogeny,
    build_extension,
    build_extension_smooth,
    build_g,
    build_g_smooth,
    canonical_lift_coeffs,
    enumerate_models,
    hom_brute,
    hom_closed,
    hom_gln,
    hom_models,
    hom_models_brute,
    is_isomorphic,
    isogeny_psi,
    ker_p2,
    ker_p2_brute,
    kummer_poly,
    neron_blowup_unit,
    normal_form_model,
    p2_surjective,
    phi_brute,
    phi_closed,
    phi_congruence,
    poly_in_var,
    rad_brute,
    rad_witt_count,
    solve_target_hom,
    target_hom_closed_form,
)
from p2models.poly import ExactBase, Poly
from p2models.selftest import CELLS3, _ker_oracle, run_selftest


# -- G_{lam,n} ----------------------------------------------------------------

def test_build_g_star_violation(R3):
    with pytest.raises(ValuationError):
        build_g(R3, R3.pi(4), 1)  # v(lam) = v(lam1)+1


def test_build_g_v0_is_mu_pn(R3):
    G = build_g(R3, R3.one(), 2)
    # relation (1+T)^9 - 1: the mu_9 algebra in shifted coordinates
    assert G.rank() == 9
    assert check_hopf_axioms(G).ok


def test_isogeny_kernel_relation(R3):
    # P_{lam,n}(T) is the defining relation: normal form 0 in the kernel
    lam = R3.pi()
    G = build_g(R3, lam, 1)
    assert G.nf(kummer_poly(R3, lam, 3)).is_zero()


def test_isogeny_lam_unit_case(R3):
    # lam = 1: P(T) = (1+T)^(p^n) - 1
    P = kummer_poly(R3, R3.one(), 9)
    import math
    for k in range(1, 10):
        assert (P.coefficient((k,)) - R3.from_int(math.comb(9, k))).is_zero()


def test_isogeny_psi_verified(R3):
    isogeny_psi(R3, R3.pi(), 1)
    isogeny_psi(R3, R3.pi(), 2)


def test_isogeny_compatible_with_power_map(R3):
    # 1 + lam^(p^n) P_{lam,n}(T) = (1+lam T)^(p^n) as polynomials
    lam = R3.lam1
    base = ExactBase(R3)
    n = 1
    N = 3
    P = kummer_poly(R3, lam, N)
    lhs = Poly.one(base, 1) + P.scale(lam ** N)
    u = Poly.one(base, 1) + Poly.var(base, 1, 0).scale(lam)
    assert lhs.eq(u ** N)


def test_neron_blowup(R3):
    for mu in (R3.one(), R3.pi()):
        f = neron_blowup_unit(R3, mu)
        assert is_model_map(f)
        # special fiber lands in the unit section: the image generator
        # reduces to the counit mod pi
        img = f.images[0]
        assert all(c.valuation() != 0 for c in img.terms.values())


def test_neron_blowup_precondition(R3):
    with pytest.raises(ValuationError):
        neron_blowup_unit(R3, R3.pi(3))  # v(p) = 6 = (p-1)*3 not >


def test_hom_gln_counts(R3):
    assert hom_gln(R3, R3.pi(), R3.pi(2), 1) == []
    maps = hom_gln(R3, R3.pi(), R3.pi(), 1)
    assert len(maps) == 3
    # i = 0 is the trivial morphism; i != 0 are isomorphisms
    from p2models.hopf import is_isomorphism
    assert not is_isomorphism(maps[0])
    assert all(is_isomorphism(f) for f in maps[1:])
    maps20 = hom_gln(R3, R3.pi(2), R3.pi(), 1)
    assert len(maps20) == 3


# -- Hom(G_{mu,1}|S_lam, Gm) ---------------------------------------------------

@pytest.mark.parametrize("m,n,count", [(3, 1, 1), (3, 3, 9), (2, 2, 3),
                                       (1, 1, 1), (0, 1, 3), (0, 2, 3),
                                       (1, 3, 9), (1, 4, 27), (2, 3, 9)])
def test_hom_closed_equals_brute(R3, m, n, count):
    # at m = 0 the zero row satisfies F(S)F(T) = F(S+T+ST) but has
    # counit 0, not 1: it is not a hom and must not be counted.  (1,4)
    # is the first cell with n > pm, where the twisted kernel is the
    # cosets mu c + x
    hc = hom_closed(R3, m, n)
    hb = hom_brute(R3, m, n)
    assert hc == hb
    assert len(hc) == count


def test_hom_brute_refuses_more_than_p9_candidates(monkeypatch):
    # cell (3,3) at p = 5 has 25^5 (about 9.8e6) candidates, above the
    # default budget 5^9; none of them may be tested.  The candidate loop
    # builds one HopfMorphism per candidate, whatever then decides it, so
    # the spy sits there; the control with a budget above the count shows
    # that it fires on the first candidate.
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was tested")

    monkeypatch.setattr(models_module, "HopfMorphism", refuse)
    with pytest.raises(BudgetError, match="exceed budget 1953125"):
        hom_brute(make_ring(5, 8), 3, 3)
    with pytest.raises(AssertionError, match="a candidate was tested"):
        hom_brute(make_ring(5, 8), 3, 3, budget=10 ** 8)


@pytest.mark.parametrize("m,n,count", [(1, 1, 1), (2, 1, 1), (2, 2, 5),
                                       (5, 1, 1), (0, 1, 5)])
def test_hom_closed_equals_brute_p5(m, n, count):
    # (2,2) enumerates 5^5 = 3,125 candidates
    R5 = make_ring(5, 8)
    hc = hom_closed(R5, m, n)
    assert hc == hom_brute(R5, m, n)
    assert len(hc) == count


def hom_closed_by_filter(ring, m, n):
    """hom_closed as a filter, for m, n >= 1: every class a of R/pi^n
    with a^p = mu^(p-1) a mod pi^n, which the closed form generates."""
    p, mu = ring.p, ring.pi(m)
    return sorted((tuple(ep_poly_special(a, mu, n))
                   for a in enumerate_quotient(ring, n)
                   if eq_mod(a ** p, mu ** (p - 1) * a, n)),
                  key=models_module._row_key)


P5_TWISTED_CELLS = [(m, n) for m in range(1, 6) for n in range(1, m + 1)] \
    + [(1, 5), (1, 6)]


@pytest.mark.parametrize("m, n", P5_TWISTED_CELLS)
def test_hom_closed_generates_what_the_filter_keeps_p5(m, n):
    # digits and precisions; (1,5) is n = pm, (1,6) the first n > pm
    R5 = make_ring(5, 8)
    assert hom_closed(R5, m, n) == hom_closed_by_filter(R5, m, n)


@pytest.mark.parametrize("p, m, n", [(3, 1, 2), (3, 2, 3), (3, 1, 4),
                                     (5, 1, 3), (5, 2, 4), (5, 1, 6)])
@pytest.mark.parametrize("shift", [-1, 1])
def test_twisted_kernel_bound_off_by_one_fails(p, m, n, shift,
                                               monkeypatch):
    # negative control: ceil(n/p) (cells with n <= pm) and n - (p-1)m
    # (cells with n > pm) one too low or too high change the twisted
    # kernel, whose image under hom_closed the tests above compare with
    # the filter and hom_brute
    R = make_ring(p, {3: 12, 5: 8}[p])
    want = models_module._twisted_kernel(R, m, n)
    above = models_module._classes_above
    monkeypatch.setattr(models_module, "_classes_above",
                        lambda ring, v, t: above(ring, v + shift, t))
    assert models_module._twisted_kernel(R, m, n) != want


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1)])
def test_cosets_at_n_equal_pm_fail(p, m):
    # negative control: n = pm belongs to the valuation bound; a strict
    # n < pm would take the cosets, each class p times
    R = make_ring(p, {3: 12, 5: 8}[p])
    n = p * m
    kernel = models_module._twisted_kernel(R, m, n)
    cosets = models_module._mu_cosets(R, m, n)
    assert len(cosets) == p * len(kernel)
    assert sorted(set(cosets), key=lambda a: a.digits) == \
        sorted(kernel, key=lambda a: a.digits)


def test_hom_brute_prepares_its_rules_once(count_calls):
    # every candidate of cell (3,3) is decided by check_morphism into
    # G_m over R/pi^3, in the square of G_{mu,1}: two rule set-ups (the
    # unit inverse of build_g and the square) and 1,029 reductions on a
    # fresh ring, the counit rejecting 8 of every 9 candidates before
    # the square is read (1,311 while normal forms rewrote polynomials
    # already in normal form, 1,527 before swap-invariant products
    # summed half their monomials, 1,529 before the ring's memo of
    # powers, 2,897 while counit_of evaluated the zero counit by Horner,
    # 15,807 when F(S)F(T) - F(Delta S) was reduced for every
    # candidate).  The reduction bound is the count plus 5 %.
    R3 = make_ring(3, 12)
    R3.p_over_pi()  # the ring's cached unit is not part of the count
    count_calls(poly_module.TriangularRules, "__init__")
    count = count_calls(RingDescriptor, "_reduce_raw")
    assert len(hom_brute(R3, 3, 3)) == 9
    assert count["__init__"] <= 2
    assert count["_reduce_raw"] <= 1_080


def test_hom_closed_33_shape(R3):
    # {sum a^i/i! S^i : v(a) >= 1} as the second coefficient shows
    rows = hom_closed(R3, 3, 3)
    seconds = sorted(r[1].digits for r in rows)
    assert seconds == sorted(
        q.digits for q in __import__("p2models.dvr", fromlist=["x"])
        .enumerate_quotient(R3, 3) if q.digits[0] == 0)


def test_hom_mu_unit_case(R3):
    rows = hom_closed(R3, 0, 1)
    # (1+S)^i mod pi: three distinct rows
    assert len(rows) == 3


def _is_class(x, n):
    return x.prec == n and x == x.mod_pi(n)


def test_library_classes_are_canonical_at_their_level(R3):
    for m in range(4):
        for n in range(m + 1):
            els = phi_closed(R3, m, n) + phi_brute(R3, m, n) + ker_p2(R3, m, n)
            assert all(_is_class(e.a, n) for e in els), (m, n)
    for m, n in [(0, 1), (1, 1), (2, 2), (3, 1), (3, 3)]:
        rows = hom_closed(R3, m, n) + hom_brute(R3, m, n)
        assert all(_is_class(c, n) for row in rows for c in row), (m, n)
    # a moved by pi^n still gives the classes of a
    a, mu = R3.pi(), R3.pi(3)
    for x in (a, a + R3.pi(3) * R3.from_int(5)):
        coeffs = ep_poly_special(x, mu, 3)
        assert all(_is_class(c, 3) for c in coeffs)
        assert coeffs == ep_poly_special(a, mu, 3)


def test_descriptor_holds_the_class_of_a(R3):
    # a QuotElement of R/pi^n, its class and a non-canonical a + pi^n x
    # give one descriptor; digit n - 1 of a tells descriptors apart
    q = QuotElement(R3, 3, (0, 1, 1))
    x = R3.from_digits([7, 100, 5, 0, 2, 1])
    ds = [ModelDescriptor(R3, 3, 3, a, 1)
          for a in (q, q.lift().mod_pi(3), q.lift() + R3.pi(3) * x)]
    assert ds[0] == ds[1] == ds[2] and len(set(ds)) == 1
    assert ds[0].a.prec == 3 and ds[0].a.pi_digit_expansion(3) == (0, 1, 1)
    other = ModelDescriptor(R3, 3, 3, q.lift() + R3.pi(2), 1)
    assert other != ds[0]
    assert other.a.pi_digit_expansion(3) == (0, 1, 2)


def test_descriptor_refuses_a_known_below_pi_n(R3):
    with pytest.raises(PrecisionError):
        ModelDescriptor(R3, 3, 3, R3.pi().with_prec(2), 1)
    with pytest.raises(ValueError, match="R/pi"):
        ModelDescriptor(R3, 3, 3, QuotElement(R3, 2, (0, 1)), 1)


def test_descriptor_refuses_a_from_another_ring(R3):
    # a from a ring of lower precision used to construct and fail later,
    # inside build_extension, with "operands from different rings"
    other = make_ring(3, 6)
    for a in (QuotElement(other, 3, (0, 1, 1)), other.pi().mod_pi(3)):
        with pytest.raises(ValueError, match="descriptor's ring"):
            ModelDescriptor(R3, 3, 3, a, 1)


# -- Phi ------------------------------------------------------------------------

def _assert_cell_descriptors(els, m, n):
    # a point of Phi_{pi^m, pi^n} is the descriptor of its extension
    assert all(isinstance(e, ModelDescriptor) and (e.m, e.n) == (m, n)
               for e in els), (m, n)


def test_phi_closed_equals_brute_all_cells(R3):
    for m in range(4):
        for n in range(m + 1):
            pc = phi_closed(R3, m, n)
            pb = phi_brute(R3, m, n)
            assert [(e.a.digits, e.j) for e in pc] == \
                [(e.a.digits, e.j) for e in pb], (m, n)
            _assert_cell_descriptors(pc + pb + ker_p2(R3, m, n), m, n)


def test_phi_lam1_cell_is_k_eta(R3):
    els = phi_closed(R3, 3, 3)
    assert len(els) == 3
    et = eta(R3)
    expect = sorted((et.scale(k).reduce_mod(3).digits, k) for k in range(3))
    assert [(e.a.pi_digit_expansion(3), e.j) for e in els] == expect


def test_phi_group_closure(R3):
    # Phi is a subgroup: closed under componentwise addition
    for (m, n) in [(3, 3), (3, 1), (2, 1)]:
        els = phi_closed(R3, m, n)
        keys = {(e.a, e.j) for e in els}
        for e1 in els:
            for e2 in els:
                s_a = (e1.a + e2.a).mod_pi(n)
                s_j = (e1.j + e2.j) % 3
                assert (s_a, s_j) in keys


def test_ker_p2_formula(R3):
    # ker_p2 = ker_p2_brute in digits and precision on every cell
    _ker_oracle(R3, CELLS3)


@pytest.mark.parametrize("p, M, cells, shift", [
    (3, 12, CELLS3, -1), (5, 8, [(3, 3)], -1), (5, 8, [(3, 3)], 1)],
    ids=["p3-low", "p5-low", "p5-high"])
def test_ker_bound_off_by_one_fails_the_oracle(p, M, cells, shift,
                                               monkeypatch):
    # negative control: ker_p2 generates its set from vmin alone.  At
    # p = 3 every kernel is {0} (vmin >= n), which a bound one too high
    # leaves as it is; the p = 5 cell (3,3), vmin = 2, has 5 elements.
    R = make_ring(p, M)
    _ker_oracle(R, cells)
    vmin = models_module._ker_vmin
    monkeypatch.setattr(models_module, "_ker_vmin",
                        lambda *args: max(vmin(*args) + shift, 0))
    with pytest.raises(AssertionError, match="closed form != brute force"):
        _ker_oracle(R, cells)


def test_criterion_4_sees_a_kernel_bound_one_too_high(monkeypatch):
    # every p = 3 kernel is {0}; the criterion's p = 5 cell (3,3) is not
    assert run_selftest(3, ["4"])[0].passed
    vmin = models_module._ker_vmin
    monkeypatch.setattr(models_module, "_ker_vmin",
                        lambda *args: vmin(*args) + 1)
    [result] = run_selftest(3, ["4"])
    assert not result.passed and "p=5 cell (3,3)" in result.detail


@pytest.mark.parametrize("m, n", [(1, 2), (4, 4), (5, 1), (3, -1),
                                  (-1, -2)])
def test_every_cell_entry_refuses_a_cell_outside_the_range(R3, m, n):
    # phi_brute once returned 3 elements at (1,2), raised ValuationError
    # at (4,4) and (5,1), and an internal ValueError at negative cells;
    # ker_p2 returned elements at (1,2) and (5,1) and raised an internal
    # ValueError at (3,-1); phi_closed refused them all
    for entry in (phi_closed, phi_brute, ker_p2, ker_p2_brute):
        with pytest.raises(InputError, match=(
                f"need p >= m >= n >= 0, got p=3, m={m}, n={n}")):
            entry(R3, m, n)
    with pytest.raises(InputError, match="need p >= m >= n >= 0"):
        ModelDescriptor(R3, m, n, R3.zero(), 1)


def test_every_entry_refuses_outside_input_with_input_error(R3):
    # make_custom_ring once took M = 1 and failed in the Eisenstein check
    desc = {"p": 3, "M": 12, "m": 3, "n": 3, "a_digits": [0, 1, 1], "j": 1}
    calls = [lambda: make_ring(4), lambda: make_ring(3, 1),
             lambda: make_custom_ring(9, 4, R3.coeffs),
             lambda: make_custom_ring(3, 1, R3.coeffs),
             lambda: run_selftest(7), lambda: run_selftest(3, ["99"]),
             lambda: ah_series(4, 6), lambda: deformed_ah(3, 0),
             lambda: ModelDescriptor.from_json(R3, {**desc, "j": 1.0}),
             lambda: ModelDescriptor.from_json(R3, {**desc, "M": 5}),
             lambda: ModelDescriptor.from_json(R3, {**desc, "j": 3}),
             lambda: normal_form_model(ModelDescriptor(R3, 3, 3,
                                                       R3.zero(), 0))]
    for call in calls:
        with pytest.raises(InputError):
            call()


@pytest.mark.parametrize("m_max", [-1, 4])
def test_enumerate_models_refuses_m_max_outside_0_to_p(R3, m_max):
    # m_max = -1 once returned []
    with pytest.raises(InputError, match="need 0 <= m-max <= p"):
        enumerate_models(R3, m_max)


def test_p2_surjectivity_spots(R3):
    assert p2_surjective(R3, 2, 0)
    assert not p2_surjective(R3, 2, 1)
    assert p2_surjective(R3, 3, 1)
    # brute confirmation
    assert {e.j for e in phi_brute(R3, 2, 0)} == {0, 1, 2}
    assert {e.j for e in phi_brute(R3, 2, 1)} == {0}
    assert {e.j for e in phi_brute(R3, 3, 1)} == {0, 1, 2}


def test_phi_p5_cells():
    R5 = make_ring(5, 8)
    for (m, n) in [(3, 3), (3, 2), (5, 1)]:
        pc = phi_closed(R5, m, n)
        pb = phi_brute(R5, m, n)
        assert [(e.a.digits, e.j) for e in pc] == \
            [(e.a.digits, e.j) for e in pb]
        _assert_cell_descriptors(pc + pb + ker_p2(R5, m, n), m, n)
    k = ker_p2(R5, 3, 3)
    assert len(k) == 5
    assert all(e.a.is_zero() or e.a.valuation() >= 2 for e in k)


# -- extensions -----------------------------------------------------------------

def test_canonical_model_congruence(R3):
    d = ModelDescriptor(R3, 3, 3, eta(R3), 1)
    assert phi_congruence(d)
    E = build_extension(d)
    rep = check_hopf_axioms(E)
    assert rep.ok and rep.rank == 9 and rep.commutativity


def test_extension_g2_type(R3):
    # (m, n, a, j) = (3, 1, 0, 1) builds the rank-9 tower model and is
    # isomorphic to the two-step kernel group via T -> S2
    d = ModelDescriptor(R3, 3, 1, QuotElement(R3, 1, (0,)), 1)
    E = build_extension(d)
    assert check_hopf_axioms(E).ok
    G2 = build_g(R3, R3.pi(), 2)
    from p2models.hopf import HopfMorphism, is_isomorphism
    img = Poly.var(E.base, 2, 1)  # T -> S2
    f = HopfMorphism(source=E, target=G2, images=(img,))
    assert check_morphism(f)
    assert is_isomorphism(f)


def test_extension_rejects_non_phi(R3):
    # (a, j) = (0, 1) at (m, n) = (2, 2) is not in Phi
    d = ModelDescriptor(R3, 2, 2, QuotElement(R3, 2, (0, 0)), 1)
    assert not phi_congruence(d)
    with pytest.raises(DivisibilityError):
        build_extension(d)


def test_enumerate_models_p3(R3, models3):
    cells = [(d.m, d.n) for d in models3]
    assert cells == [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3)]
    assert all(d.j == 1 for d in models3)


def test_enumerate_models_m0(R3):
    out = enumerate_models(R3, 0)
    assert len(out) == 1 and (out[0].m, out[0].n) == (0, 0)


def test_models_pairwise_non_isomorphic(R3, models3):
    for i, d1 in enumerate(models3):
        for j, d2 in enumerate(models3):
            assert is_isomorphic(d1, d2) == (i == j)


def test_normal_form_model(R3, models3):
    d = models3[-1]
    assert normal_form_model(d) == d
    d2 = ModelDescriptor(R3, 3, 3, d.a.scale(2), 2)
    nf = normal_form_model(d2)
    assert nf.j == 1 and nf.a == d.a
    with pytest.raises(ValueError):
        normal_form_model(ModelDescriptor(R3, 3, 3, d.a, 0))


def test_isomorphic_with_j_twist(R3, models3):
    d = models3[-1]
    d2 = ModelDescriptor(R3, 3, 3, d.a.scale(2), 2)
    assert is_isomorphic(d, d2)
    d31 = [x for x in models3 if (x.m, x.n) == (3, 1)][0]
    assert not is_isomorphic(d, d31)


def test_hom_models_trichotomy_spots(R3, models3):
    d33 = models3[-1]
    d31 = [x for x in models3 if (x.m, x.n) == (3, 1)][0]
    d00 = models3[0]
    # v(mu1) < v(lam2): (0,0) -> (3,3)... mu1 = 1, lam2 = pi^3
    assert hom_models(d00, d33).tag == "Zero"
    # equal valuations with the congruence: full group
    assert hom_models(d33, d31).tag == "OrderP2"
    # reverse direction drops to the p-part: m=3 >= n2=3? (3,1)->(3,3):
    # n2 = 3 > n1 = 1: not OrderP2; mu1 = pi^3 >= lam2: OrderP
    assert hom_models(d31, d33).tag == "OrderP"


def test_hom_oracles_refuse_j_zero_in_either_order(R3, models3):
    # (3,3,0,0) is in Phi but is no model: both oracles refuse it as
    # source and as target, before any presentation is built
    d33 = models3[-1]
    d0 = ModelDescriptor(R3, 3, 3, R3.zero(), 0)
    for d1, d2 in ((d0, d33), (d33, d0), (d0, d0)):
        for oracle in (hom_models, hom_models_brute, is_isomorphic):
            with pytest.raises(InputError,
                               match=r"applies to models \(j != 0\)"):
                oracle(d1, d2)


def test_hom_models_brute_agreement_sample(R3, models3):
    sample = [(models3[0], models3[0]), (models3[0], models3[-1]),
              (models3[-1], models3[0]), (models3[-1], models3[-2]),
              (models3[4], models3[5])]
    for d1, d2 in sample:
        hc = hom_models(d1, d2)
        hb, _ = hom_models_brute(d1, d2)
        assert hc.tag == hb.tag, (d1.sort_key(), d2.sort_key())


def test_hom_models_brute_prebuilt_presentations(R3, models3):
    # the same classes and survivor lists from presentations built once
    built = {d: build_extension(d) for d in (models3[0], models3[-1],
                                             models3[4])}
    for d1 in built:
        for d2 in built:
            fresh, _ = hom_models_brute(d1, d2)
            reused, _ = hom_models_brute(d1, d2, built[d1], built[d2])
            assert reused == fresh, (d1.sort_key(), d2.sort_key())


def _psi_reference(src, d1, d2, r, s):
    """The images of candidate psi(r, s), each built from scratch; None
    when an exact division fails."""
    ring, p = d1.ring, d1.ring.p
    x = (r * d1.j * pow(d2.j, -1, p)) % p
    try:
        img1 = kummer_poly(ring, ring.pi(d1.m), x, 2, 0, ring.pi(d2.m))
        u1, u2 = (u.poly for u in src.units)
        F2_at = poly_in_var(src.base, 1, 0,
                            canonical_lift_coeffs(d2)).subst([img1])
        num = src.nf(u2 ** r * u1 ** s - F2_at)
        return img1, num.div_scalar(ring.pi(d2.n))
    except (DivisibilityError, ValuationError):
        return None


def _digits_and_precisions(poly):
    return {m: (c.digits, c.prec) for m, c in poly.terms.items()}


def test_hom_candidates_share_pieces_without_changing_them(models3):
    # the S1' image and F2 at it once per r, the powers once per pair:
    # every candidate of the 49 ordered p = 3 pairs has the digits and
    # precisions of one built from scratch, and fails where it fails
    built = [build_extension(d) for d in models3]
    defined = 0
    for d1, src in zip(models3, built):
        for d2, tgt in zip(models3, built):
            cands = list(_psi_candidates(src, tgt, d1, d2))
            assert [rs for rs, _ in cands] == [(r, s) for r in range(3)
                                               for s in range(3)]
            for (r, s), f in cands:
                ref = _psi_reference(src, d1, d2, r, s)
                assert (f is None) == (ref is None), (r, s)
                if f is not None:
                    defined += 1
                    assert f.source is src and f.target is tgt
                    assert [_digits_and_precisions(x) for x in f.images] \
                        == [_digits_and_precisions(x) for x in ref]
    assert defined == 303


def test_ambient_isogeny_canonical(R3, models3):
    d = models3[-1]
    g = solve_target_hom(d)
    gc = target_hom_closed_form(d)
    for x, y in zip(g, gc):
        assert eq_mod(x, y, 9)
    src, tgt, f = ambient_isogeny(d)  # raises on any verification failure


def test_ambient_isogeny_f1_case(R3, models3):
    # a = 0, m >= pn: G = 1 solves the system
    d = [x for x in models3 if (x.m, x.n) == (3, 1)][0]
    g = solve_target_hom(d)
    assert (g[0] - R3.one()).is_zero()
    assert all(c.is_zero() for c in g[1:])
    ambient_isogeny(d)


# -- the S1 factor of the extensions -----------------------------------------

def _s1_pieces(pres, factor=False):
    """Relation, antipode, unit, unit inverse and comultiplication of
    generator 0 as JSON.  With factor=True, pres is a one-generator group,
    placed as the S1 factor of an extension by reindexing its monomials."""
    def js(poly, nvars=2, slots=(0,)):
        if poly is None or not factor:
            return poly and poly.to_json()
        terms = {}
        for m, c in poly.terms.items():
            mm = [0] * nvars
            for i, k in zip(slots, m):
                mm[i] = k
            terms[tuple(mm)] = c
        return Poly(poly.base, nvars, terms).to_json()

    anti = pres.antipode[0]
    if not isinstance(anti, Poly):
        anti = (js(anti[0]), tuple(anti[1]) + ((0,) if factor else ()))
    else:
        anti = js(anti)
    return {"relation": js(pres.relations[0]),
            "antipode": anti,
            "unit": js(pres.units[0].poly),
            "inverse": js(pres.units[0].inverse),
            "comult": js(pres.comult[0], 4, (0, 2))}


@pytest.mark.parametrize("p,M", [(3, 12), (5, 8)])
def test_extension_s1_factor_is_g_mu_1(p, M):
    # the finite extension's S1 factor is G_{mu,1}, the smooth ambient's
    # is G^(mu), digits and precisions both
    R = make_ring(p, M)
    for d in enumerate_models(R, p):
        mu = R.pi(d.m)
        assert _s1_pieces(build_extension(d)) == \
            _s1_pieces(build_g(R, mu, 1), True), d.sort_key()
        smooth = _s1_pieces(build_g_smooth(R, mu), True)
        assert smooth["relation"] is None and smooth["inverse"] is None
        assert _s1_pieces(build_extension_smooth(d)) == smooth, \
            d.sort_key()


@pytest.mark.parametrize("p,M", [(3, 12), (5, 8)])
def test_finite_and_smooth_extensions_share_the_comultiplication(p, M):
    # F has degree p - 1 and Delta S1 is linear in S1' and in S1'', so the
    # cocycle numerator is in normal form modulo relation 1 as it stands:
    # the finite builder divides it by lam as the smooth one does, to the
    # same digits and precisions
    for d in enumerate_models(make_ring(p, M), p):
        assert ([c.to_json() for c in build_extension(d).comult]
                == [c.to_json() for c in build_extension_smooth(d).comult]
                ), d.sort_key()


def test_ambient_target_s1_factor_is_g_mu_p(R3, models3):
    for d in models3:
        _, tgt, _ = ambient_isogeny(d)
        assert _s1_pieces(tgt) == \
            _s1_pieces(build_g_smooth(R3, R3.pi(d.m * 3)), True), d.sort_key()


@pytest.mark.parametrize("p,M", [(3, 12), (5, 8)])
@pytest.mark.parametrize("v,n", [(0, 1), (1, 1), (2, 1), (3, 1), (1, 2)])
def test_build_g_shares_the_smooth_group_law(p, M, v, n):
    R = make_ring(p, M)
    lam = R.pi(v)
    g, smooth = build_g(R, lam, n), build_g_smooth(R, lam)
    assert g.comult[0].to_json() == smooth.comult[0].to_json()
    assert [c.to_json() for c in g.counit] == \
        [c.to_json() for c in smooth.counit]
    assert g.units[0].poly.to_json() == smooth.units[0].poly.to_json()
    assert g.relations[0].degree_in(0) == p ** n


@pytest.mark.parametrize("key,swapped,generator", [
    ((3, 0, ()), (2, 0, ()), "S1"),
    ((3, 3, (0, 1, 1)), (3, 2, (0, 1)), "S2"),
], ids=["S1", "S2"])
def test_ambient_isogeny_kernel_containment_can_fail(models3, monkeypatch,
                                                     key, swapped, generator):
    # negative controls: the kernel of the isogeny of one model does not
    # contain the finite extension of another
    by_key = {(d.m, d.n, d.a.pi_digit_expansion(d.n)): d for d in models3}
    other = build_extension(by_key[swapped])
    monkeypatch.setattr(models_module, "build_extension", lambda d: other)
    with pytest.raises(P2ModelsError,
                       match=f"kernel containment fails for {generator}"):
        ambient_isogeny(by_key[key])


def test_build_extension_inverts_each_divisor_once(count_calls):
    # One Newton inversion per distinct divisor, on a fresh ring: the
    # Kummer coefficients of rel1 (by mu^p) and the relation (by lam^p,
    # the same pi^9) share one, and the counit, cocycle and antipode (by
    # lam) another; the ring's memo prepares each divisor once.  Preparing
    # each divisor again made 5 calls here, and inverting the unit part
    # again for every coefficient 25.
    R3 = make_ring(3, 12)
    R3.p_over_pi()  # the ring's cached unit is not part of the count
    d = ModelDescriptor(R3, 3, 3, QuotElement(R3, 3, (0, 1, 1)), 1)
    calls = count_calls(RingElement, "invert_unit")
    build_extension(d)
    assert calls["invert_unit"] == 2


@pytest.mark.parametrize("p, M, m, n, a_digits, j", [
    (3, 12, 3, 3, (0, 1, 1), 1),   # a = eta mod pi^3
    (5, 8, 3, 3, (0, 0, 1), 0),    # the kernel-extreme p = 5 descriptor
])
def test_solve_target_hom_inverts_only_the_kummer_divisor(
        count_calls, p, M, m, n, a_digits, j):
    # The P-adic expansion divides by the monic P_{mu,1} and inverts no
    # unit: the one Newton inversion is that of mu^p for the Kummer
    # coefficients of P_{mu,1}.
    ring = make_ring(p, M)
    ring.p_over_pi()  # the ring's cached unit is not part of the count
    d = ModelDescriptor(ring, m, n, QuotElement(ring, n, a_digits), j)
    calls = count_calls(RingElement, "invert_unit")
    solve_target_hom(d)
    assert calls["invert_unit"] == 1


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)])
def test_solve_target_hom_matches_closed_form_on_phi(p, M):
    # every member of every Phi cell, j = 0 included
    ring = make_ring(p, M)
    count = 0
    for m in range(p + 1):
        for n in range(m + 1):
            for d in phi_closed(ring, m, n):
                g, gc = solve_target_hom(d), target_hom_closed_form(d)
                assert len(g) == p
                for x, y in zip(g, gc):
                    assert eq_mod(x, y, p * n), d.sort_key()
                count += 1
    assert count == {3: 24, 5: 77}[p]  # 101 members in all


# the descriptors (m, n, a digits, j), n >= 1, at p = 3 for which G
# exists: the Phi members and the two j = 0 units a of cell (1, 1)
SOLVABLE_P3 = {
    (1, 1, (0,), 0), (1, 1, (1,), 0), (1, 1, (2,), 0), (2, 1, (0,), 0),
    (2, 2, (0, 0), 0), (3, 1, (0,), 0), (3, 1, (0,), 1), (3, 1, (0,), 2),
    (3, 2, (0, 0), 0), (3, 2, (0, 1), 1), (3, 2, (0, 2), 2),
    (3, 3, (0, 0, 0), 0), (3, 3, (0, 1, 1), 1), (3, 3, (0, 2, 2), 2),
}


def test_solve_target_hom_rejects_exactly_the_unsolvable(R3):
    # all 162 descriptors of the cells with n >= 1: the other 148 have a
    # remainder with a non-constant coefficient nonzero mod pi^(pn)
    solved = set()
    for m in range(1, 4):
        for n in range(1, m + 1):
            for a in enumerate_quotient(R3, n):
                for j in range(3):
                    d = ModelDescriptor(R3, m, n, a, j)
                    try:
                        solve_target_hom(d)
                    except LinearSolveError:
                        continue
                    solved.add(d.sort_key())
    assert solved == SOLVABLE_P3


def _count_products(monkeypatch, count_calls):
    """Patch the ring product and poly._resident to count into
    counts["__mul__"]: one per RingElement.__mul__ call plus one per
    product of two resident integers, the coefficient products that
    poly._raw_sums forms for every packed Poly product, every product
    fed into a normal form and every linear morphism check.  A product the row bound of a
    swap-invariant product leaves out is not formed and not counted."""
    count = count_calls(RingElement, "__mul__")
    resident = poly_module._resident

    class Resident(int):
        def __mul__(self, other):
            if isinstance(other, Resident):
                count["__mul__"] += 1
            return int.__mul__(self, other)

        def __rshift__(self, n):
            # poly._split_terms takes a resident without its zero low slots
            return Resident(int.__rshift__(self, n))

    monkeypatch.setattr(poly_module, "_resident",
                        lambda c, ring: Resident(resident(c, ring)))
    return count


def test_ambient_isogeny_p5_kernel_extreme(monkeypatch, count_calls):
    # a with maximal valuation in ker p2 at p=5
    R5 = make_ring(5, 8)
    els = [e for e in ker_p2(R5, 3, 3) if not e.a.is_zero()]
    d = max(els, key=lambda e: e.a.valuation())
    count = _count_products(monkeypatch, count_calls)
    reductions = count_calls(RingDescriptor, "_reduce_raw")
    ambient_isogeny(d)
    # 58,604 products and 13,439 reductions, a swap-invariant product
    # summing only its monomials with first half <= last half (106,499
    # and 19,969 summing all of them; 13,460 reductions while normal
    # forms rewrote polynomials already in normal form).  106,499
    # products with the largest image nested outermost (106,539 before
    # the ring's memo of powers and divisors, 107,403 before counit_of
    # read a zero counit off the constant term), 254,150 with the
    # variables nested in index order.  The bounds are the counts plus
    # 5 %.  Powering substitution images term by term again would more
    # than double the count.
    assert count["__mul__"] <= 61_534
    assert reductions["_reduce_raw"] <= 14_110


def test_zero_tests_take_at_most_two_slot_steps(count_calls):
    # On fresh rings: is_zero is decided by at most two slot-wise steps
    # (RingDescriptor._vanishes) at every precision, where the
    # valuation's level loop took up to ceil(prec/e); and one p = 5
    # ambient_isogeny on (3,3,pi^2,0) makes 4,536 _slots_mod calls
    # (17,127 deciding every zero by the level loop).  The bound is the
    # count plus 5 %.
    calls = count_calls(RingDescriptor, "_slots_mod")
    for p, M in ((3, 12), (5, 8)):
        R = make_ring(p, M)
        u = R.from_digits(range(1, R.e + 1))
        for x in (R.zero(), u, R.pi(R.e - 1), u * R.pi(2 * R.e + 1),
                  R.from_int(p ** (M - 1))):
            for prec in range(-1, R.full_prec + 1):
                calls.clear()
                x.with_prec(prec).is_zero()
                assert calls["_slots_mod"] <= 2, (p, prec)
    R5 = make_ring(5, 8)
    d = ModelDescriptor(R5, 3, 3, QuotElement(R5, 3, (0, 0, 1)), 0)
    calls.clear()
    ambient_isogeny(d)
    assert calls["_slots_mod"] <= 4_763


def test_morphism_checks_product_counts(monkeypatch, count_calls):
    # On the (3,3) model of a fresh ring: 2,677 products for the nine
    # hom_models_brute candidates of the self-pair, decided by the
    # linear check in three families, one per image of S1' (2,781 with
    # each candidate decided alone), and 1,783 for check_morphism on the
    # ambient isogeny, between smooth presentations, its swap-invariant
    # products summing half their monomials (2,507 summing all of them;
    # 2,782 and 2,507
    # before the ring's memo of powers; 2,917 and 2,526 before the
    # candidates shared their powers and counit_of read a zero counit
    # off the constant term).  Substituting into the free ring, the
    # self-pair took 3,970 (5,339 with the variables nested in index
    # order; the ambient isogeny then took 3,061).  The bounds are the
    # counts plus 5 %.
    d = enumerate_models(make_ring(3, 12), 3)[-1]
    assert (d.m, d.n, d.a.pi_digit_expansion(d.n)) == (3, 3, (0, 1, 1))
    pres = build_extension(d)
    _, _, f = ambient_isogeny(d)
    count = _count_products(monkeypatch, count_calls)
    hom_models_brute(d, d, pres, pres)
    assert count["__mul__"] <= 2_811
    count.clear()
    assert check_morphism(f)
    assert count["__mul__"] <= 1_872


def test_hom_models_brute_reduction_counts(count_calls):
    # normal_form sums raw products per monomial and reduces each sum
    # once, out of sight of _count_products; the reductions count it.
    # On a fresh ring, 1,441 on the (3,3) self-pair and 22,951 on the 49
    # ordered p = 3 pairs with the linear check, the candidates of one
    # r checked as one family, candidates sharing their powers, the
    # ring's memo of powers and divisors and normal forms returning a
    # polynomial already in normal form as it is (1,513 and 24,997 with
    # each candidate decided alone, 1,574 and 26,824 rewriting it, 1,575 and
    # 26,858 without the memo, 1,690 and 29,839 building each candidate
    # alone), against 2,924
    # and 54,497 substituting into the free ring.  Earlier, with the
    # variables of a substitution nested in index order, they were 4,093
    # and 72,888, and reducing every product in normal_form made 7,294
    # and 120,702.  The bounds are the counts plus 5 %.
    models3 = enumerate_models(make_ring(3, 12), 3)
    pres = [build_extension(d) for d in models3]
    count = count_calls(RingDescriptor, "_reduce_raw")
    hom_models_brute(models3[-1], models3[-1], pres[-1], pres[-1])
    assert count["_reduce_raw"] <= 1_513
    count.clear()
    for d1, pres1 in zip(models3, pres):
        for d2, pres2 in zip(models3, pres):
            hom_models_brute(d1, d2, pres1, pres2)
    assert count["_reduce_raw"] <= 24_099


def test_hom_models_brute_prepares_each_presentation_once(models3,
                                                         count_calls):
    # the nine candidates share the square of the source and the rules
    # of each presentation
    from p2models import hopf
    pres = build_extension(models3[-1])
    built = count_calls(hopf, "tensor_power", "TriangularRules")
    hom_models_brute(models3[-1], models3[-1], pres, pres)
    assert built == Counter(tensor_power=1, TriangularRules=2)


def test_normal_form_makes_no_ring_product(models3, monkeypatch,
                                           count_calls):
    pres = build_extension(models3[-1])
    poly = (pres.var(0) + pres.var(1) + pres.one_poly()) ** 6
    products = _count_products(monkeypatch, count_calls)
    reductions = count_calls(RingDescriptor, "_reduce_raw")
    nf = pres.nf(poly)
    assert products["__mul__"] == 0
    assert reductions["_reduce_raw"] > len(nf.terms)
    assert nf.degree_in(0) < pres.relations[0].degree_in(0)


def test_ambient_isogeny_morphism_check_is_two_sided(R3, models3):
    # perturb the numerator of image 2 by pi^k S1: the least coefficient
    # precision of that image is 54, and the check rejects k = 50 while
    # k = 52 and k = 54 fall below what the comparison can see
    from dataclasses import replace

    from p2models.hopf import LocalizedElement
    src, _, f = ambient_isogeny(models3[-1])
    im = f.images[1]
    assert min(c.prec for c in im.num.terms.values()) == 54

    def perturbed(k):
        num = im.num + Poly.var(src.base, 2, 0).scale(R3.pi(k))
        return replace(f, images=(f.images[0],
                                  LocalizedElement(src, num, im.den)))

    assert not check_morphism(perturbed(50))
    assert check_morphism(perturbed(52))
    assert check_morphism(perturbed(54))


@pytest.mark.parametrize("p", [3, 5])
def test_ambient_isogeny_check_sees_a_perturbed_coefficient(p):
    # Delta_src(image 2) substitutes the swap-invariant Delta(S1),
    # Delta(S2), so its products sum half their monomials: pi^k added to
    # the S2 coefficient of image 2's numerator, k below its precision
    # (63 at p = 3, 145 at p = 5), must still fail the check
    from dataclasses import replace

    from p2models.hopf import LocalizedElement
    if p == 3:
        d = enumerate_models(make_ring(3, 12), 3)[-1]
    else:
        R5 = make_ring(5, 8)
        d = ModelDescriptor(R5, 3, 3, QuotElement(R5, 3, (0, 0, 1)), 0)
    src, _, f = ambient_isogeny(d)
    im = f.images[1]
    c = im.num.terms[0, 1]
    for k in (0, c.prec // 2, c.prec - 4):
        num = Poly(src.base, 2, {**im.num.terms, (0, 1): c + d.ring.pi(k)})
        assert not check_morphism(replace(f, images=(
            f.images[0], LocalizedElement(src, num, im.den))))


# -- rad (v(mu) < v(lam)) --------------------------------------------------------

def test_rad_brute_12(R3):
    surv = rad_brute(R3, 1, 2)
    assert surv, "the trivial pair must survive"
    assert all(j == 0 for _, j in surv)
    one_row = tuple([R3.one().mod_pi(2)] + [R3.zero().mod_pi(2)] * 2)
    assert any(row == one_row for row, _ in surv)
    assert len(surv) == rad_witt_count(R3, 1, 2)


def test_rad_brute_is_a_phi_oracle(R3):
    # survivor count and j-set equal Phi's on every cell with m >= n; at
    # n = 0 every (row, j) survives, where the base change to R/pi^0
    # once raised PrecisionError
    for m, n in CELLS3:
        surv, phi = rad_brute(R3, m, n), phi_closed(R3, m, n)
        assert len(surv) == len(phi), (m, n)
        assert {j for _, j in surv} == {e.j for e in phi}, (m, n)


def test_isomorphism_iff_invertible_map(R3, models3):
    # is_isomorphic agrees with the existence of an invertible candidate
    # map: spot-check an isomorphic pair and an OrderP2-but-not-isomorphic
    # pair
    from p2models.hopf import is_isomorphism
    d33 = models3[-1]
    twin = ModelDescriptor(R3, 3, 3, d33.a.scale(2), 2)
    _, maps = hom_models_brute(d33, twin)
    assert is_isomorphic(d33, twin)
    assert any(is_isomorphism(f) for f in maps)
    d31 = [x for x in models3 if (x.m, x.n) == (3, 1)][0]
    _, maps = hom_models_brute(d33, d31)
    assert not is_isomorphic(d33, d31)
    assert not any(is_isomorphism(f) for f in maps)
