"""The three workloads: their inputs, the timed operations, the output
checks and the negative controls that show the checks can fail.

Each workload is a `Workload` with four functions:

* `setup()`            import-time work: build the rings and their lazy
                       constants; returns the context for the others;
* `run(ctx, rng)`      the timed pass; returns one record per operation;
* `check(ctx, recs)`   one (operation count, message) pair per record
                       that completed with a wrong output (checks use facts computed
                       apart from the program, or properties the method
                       must have);
* `controls(ctx, recs)` corrupted copies of real outputs, each of which
                       `check` must reject.

An operation that raises is recorded with its error and counts as
failed; it is not checked.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from p2models import cli, dvr, models, witt


@dataclass
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    controls: Callable


@dataclass
class Op:
    name: str
    value: object = None
    error: str | None = None
    count: int = 1          # operations this record stands for


def _attempt(name, fn, count=1):
    try:
        return Op(name, fn(), count=count)
    except Exception as exc:  # the operation failed; recorded, not raised
        return Op(name, error=f"{type(exc).__name__}: {exc}", count=count)


# ---------------------------------------------------------------------------
# ring facts checked with plain ring arithmetic
# ---------------------------------------------------------------------------

def _zero_mod(x, k: int) -> bool:
    """x = 0 mod pi^k, decided at a precision of at least k."""
    v = x.valuation()
    if isinstance(v, dvr.IndeterminateAtPrecision):
        if v.level < k:
            raise ValueError(f"precision {v.level} too low to decide mod pi^{k}")
        return True
    return v >= k


def _lift(ring, digits):
    """sum d_i pi^i for canonical pi-adic digits d_i."""
    x = ring.zero()
    for i, d in enumerate(digits):
        x = x + ring.pi(i).scale(d)
    return x


def in_phi(ring, m: int, n: int, a_digits, j: int) -> bool:
    """The defining congruence of Phi_{pi^m, pi^n}: a^p = 0 mod pi^n and
    p a - j mu = (p / mu^(p-1)) a^p mod pi^(pn)."""
    p = ring.p
    if n == 0:
        return True
    a, mu = _lift(ring, a_digits), ring.pi(m)
    rho = ring.from_int(p).divide_exact(mu ** (p - 1))
    if not _zero_mod(rho * mu ** (p - 1) - ring.from_int(p), p * n):
        raise ValueError("p / mu^(p-1) does not multiply back to p")
    if not _zero_mod(a ** p, n):
        return False
    return _zero_mod(a.scale(p) - mu.scale(j) - rho * a ** p, p * n)


def ep_closed_form(ring, a, mu):
    """Coefficients of E_p(a^p, mu^p; X): prod_{k<i} (a^p - k mu^p) / i!."""
    ap, mup = a ** ring.p, mu ** ring.p
    out, running = [ring.one()], ring.one()
    for i in range(1, ring.p):
        running = running * (ap - mup.scale(i - 1))
        out.append(running.scale_unit_fraction(
            Fraction(1, math.factorial(i))))
    return out


# ---------------------------------------------------------------------------
# battery: the acceptance battery and verify, through the CLI entry point
# ---------------------------------------------------------------------------

P3_IDS = [str(i) for i in range(1, 15)] + ["neg"]
P5_IDS = ["p5-phi", "p5-ker", "p5-eta"]
CANONICAL = {"p": 3, "M": 12, "m": 3, "n": 3, "a_digits": [0, 1, 1], "j": 1}
OUTSIDE_PHI = {"p": 3, "M": 12, "m": 3, "n": 3, "a_digits": [0, 1, 0], "j": 1}
AXIOM_FLAGS = ["coassoc", "counit", "antipode", "commutative", "units"]


def _battery_setup():
    rings = {3: dvr.make_ring(3, 12), 5: dvr.make_ring(5, 8)}
    for ring in rings.values():
        ring.p_over_pi()
    return rings


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the arguments
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _battery_run(ctx, rng):
    calls = [("selftest-p3", ["selftest", "--p", "3"], len(P3_IDS)),
             ("selftest-p5", ["selftest", "--p", "5"], len(P5_IDS)),
             ("verify", ["verify", "--descriptor", json.dumps(CANONICAL)], 1),
             ("verify-outside-phi",
              ["verify", "--descriptor", json.dumps(OUTSIDE_PHI)], 1)]
    rng.shuffle(calls)
    return [_attempt(name, lambda argv=argv: _cli(argv), count)
            for name, argv, count in calls]


def _check_selftest(res, ids):
    if res["code"] != 0:
        return f"exit code {res['code']}"
    doc = json.loads(res["stdout"])
    got = [r["criterion"] for r in doc]
    if sorted(got) != sorted(ids) or len(got) != len(ids):
        return f"criteria {got} != {ids}"
    bad = [r["criterion"] for r in doc if r["passed"] is not True]
    return f"criteria not passed: {bad}" if bad else None


def _check_verify(res, p):
    if res["code"] != 0:
        return f"exit code {res['code']}"
    doc = json.loads(res["stdout"])
    bad = [f for f in AXIOM_FLAGS if doc["axioms"][f] is not True]
    if bad:
        return f"axioms false: {bad}"
    if doc["fiber_verified"] is not True:
        return "fiber not verified"
    if doc["axioms"]["rank"] != p * p:
        return f"rank {doc['axioms']['rank']} != {p * p}"
    return None


def _check_outside_phi(ctx, res):
    d = OUTSIDE_PHI
    if in_phi(ctx[3], d["m"], d["n"], d["a_digits"], d["j"]):
        return "control descriptor satisfies the Phi congruence"
    if res["code"] == 0:
        return "verify accepted a descriptor outside Phi"
    return None


def _battery_check(ctx, ops):
    d = CANONICAL
    if not in_phi(ctx[3], d["m"], d["n"], d["a_digits"], d["j"]):
        return [(0, "canonical descriptor fails the Phi congruence")]
    checks = {"selftest-p3": lambda r: _check_selftest(r, P3_IDS),
              "selftest-p5": lambda r: _check_selftest(r, P5_IDS),
              "verify": lambda r: _check_verify(r, 3),
              "verify-outside-phi": lambda r: _check_outside_phi(ctx, r)}
    problems = []
    for op in ops:
        if op.error is None:
            msg = checks[op.name](op.value)
            if msg:
                problems.append((op.count, f"{op.name}: {msg}"))
    return problems


def _battery_controls(ctx, ops):
    by_name = {op.name: op for op in ops if op.error is None}
    out = {}

    def mutated(name, edit):
        op = copy.deepcopy(by_name[name])
        edit(op.value)
        return [op]

    def fail_criterion(res):
        doc = json.loads(res["stdout"])
        doc[-1]["passed"] = False
        res["stdout"] = json.dumps(doc)

    def drop_criterion(res):
        res["stdout"] = json.dumps(json.loads(res["stdout"])[1:])

    def wrong_rank(res):
        doc = json.loads(res["stdout"])
        doc["axioms"]["rank"] = 3
        res["stdout"] = json.dumps(doc)

    def accepted(res):
        res["code"] = 0

    if "selftest-p3" in by_name:
        out["selftest-criterion-failed"] = mutated("selftest-p3", fail_criterion)
        out["selftest-criterion-missing"] = mutated("selftest-p3", drop_criterion)
    if "verify" in by_name:
        out["verify-wrong-rank"] = mutated("verify", wrong_rank)
    if "verify-outside-phi" in by_name:
        out["outside-phi-accepted"] = mutated("verify-outside-phi", accepted)
    return out


# ---------------------------------------------------------------------------
# ambient-p5: the ambient isogeny at p = 5 on the kernel-extreme descriptor
# ---------------------------------------------------------------------------

# (m, n, a, j) = (3, 3, pi^2, 0): a has the largest valuation among the
# nonzero kernel elements of the (3, 3) cell at p = 5
AMBIENT = {"m": 3, "n": 3, "a_digits": (0, 0, 1), "j": 0}


def _ambient_setup():
    ring = dvr.make_ring(5, 8)
    ring.p_over_pi()
    return ring


def _ambient_descriptor(ring, a_digits=AMBIENT["a_digits"]):
    return models.ModelDescriptor(
        ring, AMBIENT["m"], AMBIENT["n"],
        dvr.QuotElement(ring, AMBIENT["n"], a_digits), AMBIENT["j"])


def _ambient_run(ring, rng):
    d = _ambient_descriptor(ring)
    return [_attempt("ambient_isogeny",
                     lambda: {"d": d, "isogeny": models.ambient_isogeny(d)})]


def _ambient_check_one(ring, d, g):
    p, n = ring.p, d.n
    if not in_phi(ring, d.m, n, d.a.digits, d.j):
        return f"a = {d.a.digits} fails the Phi congruence"
    if d.j != 0:
        return "descriptor is not in the kernel of the projection to Z/pZ"
    expect = ep_closed_form(ring, _lift(ring, d.a.digits), ring.pi(d.m))
    for i, (x, y) in enumerate(zip(g, expect)):
        if not _zero_mod(x - y, p * n):
            return f"solve_target_hom coefficient {i} differs from E_p mod pi^{p * n}"
    return None


def _ambient_check(ring, ops):
    problems = []
    for op in ops:
        if op.error is None:
            # ambient_isogeny checks the morphism and kernel containment
            # itself and raises when either fails
            d = op.value["d"]
            g = op.value.get("g") or models.solve_target_hom(d)
            msg = _ambient_check_one(ring, d, g)
            if msg:
                problems.append((op.count, msg))
    return problems


def _ambient_controls(ring, ops):
    done = [op.value for op in ops if op.error is None]
    if not done:
        return {}
    d = done[0]["d"]
    g = models.solve_target_hom(d)
    bumped = list(g)
    bumped[1] = bumped[1] + ring.pi(ring.p * d.n - 1)
    outside = _ambient_descriptor(ring, (0, 1, 0))
    return {
        "solve-perturbed": [Op("ambient_isogeny", {"d": d, "g": bumped})],
        "descriptor-outside-phi": [Op("ambient_isogeny", {"d": outside, "g": g})],
    }


# ---------------------------------------------------------------------------
# witt-kernel-p3: exhaustive Witt sums on the Frobenius kernel over R/pi^t
# ---------------------------------------------------------------------------

WITT_LEVELS = (1, 2, 3)


def _witt_setup():
    ring = dvr.make_ring(3, 12)
    ring.p_over_pi()
    return ring


def _witt_run(ring, rng):
    zero = ring.zero()
    kernels, pairs = {}, []
    for t in WITT_LEVELS:
        pool = list(dvr.enumerate_quotient(ring, t))
        vecs = [witt.WittVector(ring, t, c) for c in product(pool, repeat=2)]
        kernels[t] = [w for w in vecs if witt.is_frobenius_kernel(w, zero, t)]
        pairs += [(u, v) for u in kernels[t] for v in kernels[t]]
    rng.shuffle(pairs)
    ops = [Op("kernel", kernels, count=0)]
    ops += [_attempt("witt_add", lambda u=u, v=v: (u, v, witt.witt_add(u, v)))
            for u, v in pairs]
    return ops


def _witt_check(ring, ops):
    """For t <= p, p = 0 in R/pi^t, so F is the coordinate-wise p-th
    power: the kernel is the pairs of coordinates of valuation >= 1,
    p^(2(t-1)) of them, and sums on it are coordinate-wise."""
    problems = []
    p = ring.p
    for op in ops:
        if op.name == "kernel":
            for t, kernel in op.value.items():
                got = sorted((w.coord(0).digits, w.coord(1).digits)
                             for w in kernel)
                expect = sorted(
                    (x, y) for x in product(range(p), repeat=t) if x[0] == 0
                    for y in product(range(p), repeat=t) if y[0] == 0)
                if got != expect:
                    problems.append((0, f"kernel at t={t} has {len(got)} "
                                        f"elements, expected {p ** (2 * (t - 1))}"))
        elif op.error is None:
            u, v, s = op.value
            comp = witt.WittVector(
                ring, u.t, [u.coord(i) + v.coord(i)
                            for i in range(max(len(u), len(v)))])
            if s != comp:
                problems.append(
                    (op.count, f"witt_add({u}, {v}) = {s}, expected {comp}"))
    return problems


def _witt_controls(ring, ops):
    sums = [op for op in ops if op.name == "witt_add" and op.error is None]
    kernel_ops = [op for op in ops if op.name == "kernel"]
    out = {}
    if sums:
        u, v, s = max(sums, key=lambda op: op.value[0].t).value
        one = ring.one().reduce_mod(s.t)
        wrong = witt.WittVector(ring, s.t, [s.coord(0) + one, s.coord(1)])
        out["sum-perturbed"] = [Op("witt_add", (u, v, wrong))]
    if kernel_ops:
        kernels = {t: list(k) for t, k in kernel_ops[0].value.items()}
        t = max(kernels)
        kernels[t].append(witt.WittVector(
            ring, t, [ring.one().reduce_mod(t), ring.zero().reduce_mod(t)]))
        out["kernel-extra-element"] = [Op("kernel", kernels, count=0)]
    return out


WORKLOADS = {
    "battery": Workload(_battery_setup, _battery_run, _battery_check,
                        _battery_controls),
    "ambient-p5": Workload(_ambient_setup, _ambient_run, _ambient_check,
                           _ambient_controls),
    "witt-kernel-p3": Workload(_witt_setup, _witt_run, _witt_check,
                               _witt_controls),
}
