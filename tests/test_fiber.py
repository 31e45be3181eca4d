"""Tests for special-fiber classification and verification."""

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest

from fiber_hunt import hunt, normalization, presentations
from p2models import fiber as fiber_module
from p2models.dvr import QuotElement, make_ring
from p2models.fiber import (
    FiberClass,
    _section,
    classify_fiber,
    claimed_presentation,
    cocycle_c1,
    eta_power_unit_check,
    verify_fiber,
    wilson_check,
)
from p2models.hopf import check_hopf_axioms, check_morphism, coeff_mod_pi
from p2models.models import (ModelDescriptor, build_extension,
                             enumerate_models, phi_closed)
from p2models.poly import Poly


def test_wilson():
    assert wilson_check(3) and wilson_check(5) and wilson_check(7)


def test_eta_power_unit(R3):
    assert eta_power_unit_check(R3)
    assert eta_power_unit_check(make_ring(5, 8))


def test_cocycle_c1_p3(R3):
    # (X^3+Y^3-(X+Y)^3)/3 = -X^2 Y - X Y^2, which is 2 X^2 Y + 2 X Y^2
    # mod 3
    c = cocycle_c1(R3, 2, 0, 1)
    assert {m: coeff_mod_pi(x) for m, x in c.terms.items()} == {
        (2, 1): 2, (1, 2): 2}
    X, Y = Poly.var(c.base, 2, 0), Poly.var(c.base, 2, 1)
    assert c.scale(R3.from_int(3)).eq(X ** 3 + Y ** 3 - (X + Y) ** 3)


def test_classification_dispatch(R3, models3):
    tags = {(d.m, d.n): classify_fiber(d) for d in models3}
    assert tags[(0, 0)] == FiberClass("MuPExtension", (1,))
    for cell in [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]:
        assert tags[cell].tag == "TrivialExtension"
    assert tags[(3, 3)] == FiberClass("ZpByZp", (0, 1))


def test_canonical_model_fiber(R3, models3):
    d = models3[-1]
    assert classify_fiber(d) == FiberClass("ZpByZp", (0, 1))
    assert verify_fiber(d)


def test_fiber_sweep(R3, models3):
    for d in models3:
        assert verify_fiber(d), (d.m, d.n)


def test_alpha_p_cells_j0(R3):
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        d = ModelDescriptor(R3, m, n, QuotElement(R3, n, (0,) * n), 0)
        fc = classify_fiber(d)
        assert fc.tag == "AlphaPExtension"
        assert fc.params == (0, 0)
        assert verify_fiber(d)


def test_alpha_p_p5_kernel_element():
    R5 = make_ring(5, 8)
    a = QuotElement(R5, 3, (0, 0, 1))  # v(a) = 2, in ker p2
    d = ModelDescriptor(R5, 3, 3, a, 0)
    fc = classify_fiber(d)
    assert fc == FiberClass("AlphaPExtension", (0, 0))
    assert verify_fiber(d)


def test_beta_gamma_lift_independence():
    # perturbing the lift of a Phi element by lam * x leaves the residue
    # classes alone (the formula's exactness absorbs the shift)
    from p2models.models import rho_scalar, phi_congruence
    import random
    rng = random.Random(0)
    R5 = make_ring(5, 8)
    p, m, n = 5, 3, 3
    a = R5.pi(2).mod_pi(n)  # in ker p2 at (3,3)
    assert phi_congruence(ModelDescriptor(R5, m, n, a, 0))
    lam = R5.pi(n)
    base_lift = a.with_prec(R5.full_prec)
    vals = set()
    for _ in range(5):
        x = R5.from_digits([rng.randrange(R5.pM) for _ in range(R5.e)])
        al = base_lift + lam * x
        defect = al.scale(p) - rho_scalar(R5, m) * al ** p
        beta = coeff_mod_pi(-defect.divide_exact(lam ** p))
        gamma = coeff_mod_pi((al ** p).divide_exact(lam))
        vals.add((beta, gamma))
    assert vals == {(0, 0)}


def test_verify_fiber_reports_mismatch(R3, models3, monkeypatch):
    # force a wrong claim and check the comparator rejects it: no
    # normalization of the oracle search carries it to the fiber
    d = models3[-1]  # true class ZpByZp(0, 1)
    wrong = FiberClass("ZpByZp", (0, 2))
    fiber, claimed = presentations(d, wrong)
    assert not check_morphism(normalization(fiber, claimed, ()))
    assert not hunt(fiber, claimed)
    monkeypatch.setattr(fiber_module, "classify_fiber", lambda d: wrong)
    report = []
    assert not verify_fiber(d, report)
    assert report == ["relations match; comultiplication differs"]


def test_verify_fiber_reports_differing_relations(R3, models3, monkeypatch):
    # the mu_p fiber (0,0) has relation S1^3, which leaves the remainder S1
    # modulo the claimed S1^3 - S1; the report once compared each relation
    # with itself and said "relations match"
    d = models3[0]
    assert classify_fiber(d) == FiberClass("MuPExtension", (1,))
    monkeypatch.setattr(fiber_module, "classify_fiber",
                        lambda d: FiberClass("ZpByZp", (0, 2)))
    report = []
    assert not verify_fiber(d, report)
    assert len(report) == 1
    assert report[0].startswith("relation 0 differs at monomial (1, 0): "
                                "remainder 1 ")


def test_fiber_json_roundtrip():
    for fc in [FiberClass("MuPExtension", (2,)),
               FiberClass("TrivialExtension"),
               FiberClass("AlphaPExtension", (1, 2)),
               FiberClass("ZpByZp", (0, 1))]:
        assert FiberClass.from_json(fc.to_json()) == fc


# sha256 of the claimed presentations, per (p, class): the JSON list of
# [descriptor, class, claimed_presentation(R, d, fc)] over every model d
# (m <= p) and, for each, its own class followed by every class with
# parameters in [0, p).  Recorded from the code before the four classes
# shared one construction.
CLAIMED = {
    (3, "AlphaPExtension"):
        "3d7a766dc74ac51f1e97e61968e332b8a3cd90e6444a3e9577b719075d34650b",
    (3, "MuPExtension"):
        "8d0a1ef2d181932a24c26521a728409d6a09fc0a7a4bed99348efad315de7d44",
    (3, "TrivialExtension"):
        "4b856574aac5ddc66afd5db9522292975845cad0fd2d812a4d2e315de74c90ee",
    (3, "ZpByZp"):
        "70322ffaf39a215203552b84b24679b4738681558529b42bf2053faa657d0f72",
    (5, "AlphaPExtension"):
        "b86a03905ab823aae09a47fe3cf71d0bac1dd1f692d5e31571962b9a9aefb443",
    (5, "MuPExtension"):
        "6aad3315f7fa8bf60b9043410875e4d470428c0273ec3a1a3d320b2463cba3cd",
    (5, "TrivialExtension"):
        "6b226a314486d7a64794331f2209355caa463945902dffc8975cbbd35d69e6cb",
    (5, "ZpByZp"):
        "6f8c16cdc4afae5f549e63cb5af33e4edbe4a72d55583061ee0bb435f55a100b",
}


def _every_class(p):
    yield from (FiberClass("MuPExtension", (i,)) for i in range(p))
    yield FiberClass("TrivialExtension")
    for tag in ("AlphaPExtension", "ZpByZp"):
        yield from (FiberClass(tag, params)
                    for params in itertools.product(range(p), repeat=2))


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)])
def test_claimed_presentation_golden(p, M):
    R = make_ring(p, M)
    docs = {}
    for d in enumerate_models(R, p):
        for fc in (classify_fiber(d), *_every_class(p)):
            docs.setdefault(fc.tag, []).append(
                [d.to_json(), fc.to_json(),
                 claimed_presentation(R, d, fc).to_json()])
    digests = {(p, tag): hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
        for tag, doc in docs.items()}
    assert digests == {k: v for k, v in CLAIMED.items() if k[0] == p}


# -- the normalization read off the relations, against the search -------------

def _outcome(fn):
    """fn(), or the name of the exception it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc).__name__


def _phi_descriptors(R):
    """Every Phi element of every cell m <= p."""
    return [d for m in range(R.p + 1) for n in range(m + 1)
            for d in phi_closed(R, m, n)]


# (p, M) -> outcomes on every Phi element of every cell m <= p
PHI_OUTCOMES = {
    (3, 2): {True: 20, "PrecisionError": 4},
    (3, 3): {True: 22, "PrecisionError": 2},
    (3, 4): {True: 24},
    (3, 12): {True: 24},
    (5, 2): {True: 65, "PrecisionError": 12},
    (5, 3): {True: 77},
    (5, 8): {True: 77},
}


@pytest.mark.parametrize("p, M", PHI_OUTCOMES)
def test_verify_fiber_gives_the_verdict_of_the_search(p, M):
    # on every Phi element (24 at p = 3, 77 at p = 5) the one check
    # answers as the search over all p^(p-1) normalizations does: the
    # same verdict, or the same exception type where too low an M
    # leaves a coefficient known to no digit
    outcomes = Counter()
    for d in _phi_descriptors(make_ring(p, M)):
        got = _outcome(lambda: verify_fiber(d))
        assert got == _outcome(lambda: hunt(*presentations(d))), (d.m, d.n)
        outcomes[got] += 1
    assert outcomes == PHI_OUTCOMES[p, M]


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)])
def test_verify_fiber_makes_one_morphism_check(monkeypatch, count_calls,
                                               p, M):
    calls = count_calls(fiber_module, "check_morphism")
    for d in enumerate_models(make_ring(p, M), p):
        calls.clear()
        assert verify_fiber(d) and calls["check_morphism"] == 1, (d.m, d.n)
    # a rejected claim takes one check too
    monkeypatch.setattr(fiber_module, "classify_fiber",
                        lambda d: FiberClass("ZpByZp", (0, 2)))
    calls.clear()
    assert not verify_fiber(d) and calls["check_morphism"] == 1


def _check_split_cell(models, p):
    """On each (p, n), 0 < n < p, the h read off the relations is c S1
    with c != 0, and no other c S1 passes: c + 1 fails."""
    split = [d for d in models if 0 < d.n < p]
    assert [(d.m, d.n) for d in split] == [(p, n) for n in range(1, p)]
    for d in split:
        fiber, claimed = presentations(d)
        h = _section(d, fiber, claimed)
        assert list(h.terms) == [(1, 0)], (d.n, h)
        c = coeff_mod_pi(h.terms[1, 0])
        assert [k for k in range(p) if check_morphism(
            normalization(fiber, claimed, [k]))] == [c], d.n


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)])
def test_the_section_is_the_only_linear_normalization(p, M):
    _check_split_cell(enumerate_models(make_ring(p, M), p), p)


@pytest.mark.parametrize("p, M", [(3, 12), (5, 8)])
def test_wrong_claims_fail_the_check_and_the_search(monkeypatch, p, M):
    # negative controls on every model: a wrong tail in either claimed
    # relation, or a cocycle constant off by one in Delta S2, is
    # rejected by verify_fiber and by the search over every h
    R = make_ring(p, M)
    for d in enumerate_models(R, p):
        fiber, claimed = presentations(d)
        S1 = Poly.var(claimed.base, 2, 0, R.one().with_prec(1))
        r1, r2 = claimed.relations
        c1 = cocycle_c1(R, 4, 0, 2).map_coeffs(lambda c: c.mod_pi(1))
        for wrong in (replace(claimed, relations=(r1 + S1, r2)),
                      replace(claimed, relations=(r1, r2 + S1 ** (p - 1))),
                      replace(claimed, comult=(claimed.comult[0],
                                               claimed.comult[1] + c1))):
            monkeypatch.setattr(fiber_module, "claimed_presentation",
                                lambda *args: wrong)
            assert not verify_fiber(d), (d.m, d.n)
            assert not hunt(fiber, wrong), (d.m, d.n)


def test_p7_models_build_and_pass_the_fiber_check():
    # p = 7, e = 42: all 15 models build, satisfy the axioms and pass
    # verify_fiber, one check each, where the search would try up to
    # 7^6 = 117,649 normalizations
    models = enumerate_models(make_ring(7, 6), 7)
    assert len(models) == 15
    for d in models:
        assert check_hopf_axioms(build_extension(d)).ok, (d.m, d.n)
        assert verify_fiber(d), (d.m, d.n)
    _check_split_cell(models, 7)
