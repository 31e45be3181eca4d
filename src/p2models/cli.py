"""Command-line surface.

Exit codes: 0 success; 2 bad input, an InputError or BudgetError (bad
arguments, non-prime p, malformed descriptors, a descriptor M other than
--precision, a descriptor whose (a, j) is outside Phi, a run of any
subcommand with --precision that needs more precision than it gives, an
--out FILE that cannot be written); 1 internal verification failure (a
failed axiom check or acceptance criterion — a bug signal, not a usage
error).  Out-of-range values are refused by the library that reads them.

Output is one JSON document on stdout by default; --table renders the
same data as an aligned table.  --out FILE writes the document to FILE
instead.  Every subcommand takes --p; all but selftest and dump-series
take --precision (the digit precision M), and only phi takes --budget
(the cap on brute-force candidates, by default p^9 as in the library;
more candidates exit 2).  selftest runs its criteria in order.
"""

from __future__ import annotations

import argparse
import json
import sys

from .artin_hasse import ah_series, deformed_ah
from .dvr import eta, make_ring
from .errors import BudgetError, InputError, P2ModelsError, PrecisionError
from .fiber import classify_fiber, verify_fiber
from .hopf import check_hopf_axioms
from .models import (ModelDescriptor, build_extension, digit_string,
                     enumerate_models, hom_models, hom_models_brute,
                     is_isomorphic, phi_brute, phi_closed, phi_congruence,
                     p2_surjective)
from .selftest import run_selftest


def _render_table(headers, rows) -> str:
    cols = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cols[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _emit(args, doc, headers=None, rows=None) -> None:
    if getattr(args, "table", False) and headers is not None:
        text = _render_table(headers, rows)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(
                f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        print(text)


def _parse_descriptor(ring, blob: str) -> ModelDescriptor:
    """The descriptor in `blob`, which must be well formed and have
    (a, j) in Phi for its (m, n)."""
    try:
        d = ModelDescriptor.from_json(ring, json.loads(blob))
    except ValueError as exc:
        raise InputError(f"malformed descriptor: {exc}") from exc
    if not phi_congruence(d):
        raise InputError(
            f"(a, j) = ({digit_string(d.a)}, {d.j}) is not in "
            f"Phi for (m, n) = ({d.m}, {d.n})")
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ring_info(args) -> int:
    ring = make_ring(args.p, args.precision)
    doc = {
        "p": ring.p, "M": ring.M, "e": ring.e, "flavor": ring.flavor,
        "v_p": ring.e, "v_lam1": ring.lam1.valuation(),
        "v_lam2": ring.lam2.valuation(),
        "eta_digits_mod_pi^p": list(eta(ring).pi_digit_expansion(ring.p)),
        "eisenstein_coeffs": [int(c) for c in ring.coeffs],
    }
    _emit(args, doc, ["field", "value"], list(doc.items()))
    return 0


def cmd_phi(args) -> int:
    ring = make_ring(args.p, args.precision)
    els = (phi_brute(ring, args.m, args.n, args.budget) if args.brute
           else phi_closed(ring, args.m, args.n))
    els = sorted(els, key=lambda e: (e.j, e.sort_key()))
    doc = {"p": args.p, "m": args.m, "n": args.n,
           "surjective": p2_surjective(ring, args.m, args.n),
           "elements": [{"a_digits": e.to_json()["a_digits"], "j": e.j}
                        for e in els]}
    rows = [(digit_string(e.a), e.j) for e in els]
    _emit(args, doc, ["a", "j"], rows)
    return 0


def cmd_enumerate(args) -> int:
    ring = make_ring(args.p, args.precision)
    models = enumerate_models(ring, args.m_max)
    doc = {"p": args.p, "m_max": args.m_max,
           "models": [d.to_json() for d in models]}
    rows = [(d.m, d.n, digit_string(d.a), d.j) for d in models]
    _emit(args, doc, ["m", "n", "a", "j"], rows)
    return 0


def cmd_isomorphic(args) -> int:
    ring = make_ring(args.p, args.precision)
    d1, d2 = (_parse_descriptor(ring, b) for b in (args.left, args.right))
    result = is_isomorphic(d1, d2)
    doc = {"left": d1.to_json(), "right": d2.to_json(),
           "isomorphic": result}
    _emit(args, doc, ["isomorphic"], [(result,)])
    return 0


def cmd_hom(args) -> int:
    ring = make_ring(args.p, args.precision)
    d1, d2 = (_parse_descriptor(ring, b) for b in (args.left, args.right))
    hc = hom_models(d1, d2)
    doc = {"left": d1.to_json(), "right": d2.to_json(),
           "hom": hc.to_json()}
    if args.brute:
        hb, _ = hom_models_brute(d1, d2)
        doc["brute"] = hb.to_json()
        if hb.tag != hc.tag:
            print(json.dumps(doc, indent=2), file=sys.stderr)
            return 1
    _emit(args, doc, ["class"], [(hc.tag,)])
    return 0


def cmd_fiber(args) -> int:
    ring = make_ring(args.p, args.precision)
    d = _parse_descriptor(ring, args.descriptor)
    fc = classify_fiber(d)
    doc = {"descriptor": d.to_json(), "fiber": fc.to_json()}
    if args.verify:
        ok = verify_fiber(d)
        doc["verified"] = ok
        if not ok:
            _emit(args, doc)
            return 1
    _emit(args, doc, ["class", "params"], [(fc.tag, fc.params)])
    return 0


def cmd_verify(args) -> int:
    ring = make_ring(args.p, args.precision)
    d = _parse_descriptor(ring, args.descriptor)
    pres = build_extension(d)
    rep = check_hopf_axioms(pres)
    report = []
    fiber_ok = verify_fiber(d, report)
    doc = {"descriptor": d.to_json(),
           "axioms": {"coassoc": rep.coassoc, "counit": rep.counit_law,
                      "antipode": rep.antipode_law,
                      "commutative": rep.commutativity,
                      "units": rep.unit_certificates, "rank": rep.rank},
           "fiber_verified": fiber_ok,
           "failures": rep.failures + report}
    if args.emit_presentation:
        doc["presentation"] = pres.to_json()
    ok = rep.ok and fiber_ok and rep.rank == ring.p ** 2
    _emit(args, doc, ["check", "result"],
          [("axioms", rep.ok), ("rank", rep.rank),
           ("fiber", fiber_ok)])
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    criteria = args.criteria.split(",") if args.criteria else None
    results = run_selftest(args.p, criteria)
    doc = [r.to_json() for r in results]
    rows = [(r.cid, "PASS" if r.passed else "FAIL",
             f"{r.seconds:.2f}s", r.description) for r in results]
    _emit(args, doc, ["criterion", "status", "time", "description"], rows)
    return 0 if all(r.passed for r in results) else 1


def cmd_dump_series(args) -> int:
    series = (deformed_ah if args.deformed else ah_series)(args.p, args.degree)
    # the terms of each T-degree, as (exponents after T, coefficient)
    groups = [[] for _ in range(args.degree + 1)]
    for m, q in sorted(series.terms.items()):
        groups[m[0]].append((m[1:], q))
    if args.deformed:
        doc = {"p": args.p, "degree": args.degree, "series": "deformed",
               "coefficients": [
                   {"degree": i,
                    "terms": [{"u": ue, "l": le, "value": str(q)}
                              for (ue, le), q in terms]}
                   for i, terms in enumerate(groups)]}
        rows = [(i, " + ".join(f"({q}) U^{ue} L^{le}"
                               for (ue, le), q in terms) or "0")
                for i, terms in enumerate(groups)]
    else:
        coeffs = [str(terms[0][1]) if terms else "0" for terms in groups]
        doc = {"p": args.p, "degree": args.degree, "series": "exponential",
               "coefficients": coeffs}
        rows = list(enumerate(coeffs))
    _emit(args, doc, ["degree", "coefficient"], rows)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2models",
        description="Exact constructions and classification of the finite "
                    "flat models of the cyclic group of order p^2 over the "
                    "ramified cyclotomic base.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, precision=True, p_help="odd prime"):
        sp.add_argument("--p", type=int, default=3, help=p_help)
        if precision:
            sp.add_argument("--precision", type=int, default=12,
                            help="coefficient precision M (digits mod p^M)")
        sp.add_argument("--table", action="store_true",
                        help="aligned-table output")
        sp.add_argument("--out", help="write output to FILE")

    sp = sub.add_parser("ring-info", help="base-ring constants")
    common(sp)
    sp.set_defaults(fn=cmd_ring_info)

    sp = sub.add_parser("phi", help="the parameter group of a cell")
    common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--brute", action="store_true",
                    help="enumerate the congruence instead of the closed form")
    sp.add_argument("--budget", type=int,
                    help="brute-force candidate budget (default p^9)")
    sp.set_defaults(fn=cmd_phi)

    sp = sub.add_parser("enumerate", help="all models up to m-max")
    common(sp)
    sp.add_argument("--m-max", type=int, required=True)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("isomorphic", help="isomorphism test")
    common(sp)
    sp.add_argument("--left", required=True, help="descriptor JSON")
    sp.add_argument("--right", required=True, help="descriptor JSON")
    sp.set_defaults(fn=cmd_isomorphic)

    sp = sub.add_parser("hom", help="Hom classification between models")
    common(sp)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--brute", action="store_true",
                    help="cross-check against the p^2 candidate maps")
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("fiber", help="special-fiber class")
    common(sp)
    sp.add_argument("--descriptor", required=True)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_fiber)

    sp = sub.add_parser("verify", help="full verification of one model")
    common(sp)
    sp.add_argument("--descriptor", required=True)
    sp.add_argument("--emit-presentation", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("selftest", help="run the acceptance battery")
    common(sp, precision=False)
    sp.add_argument("--criteria", help="comma-separated criterion ids")
    sp.set_defaults(fn=cmd_selftest)

    sp = sub.add_parser("dump-series", help="series coefficients as "
                        "exact fractions (golden-file friendly)")
    common(sp, precision=False,
           p_help="prime; 2 is allowed, since E_2 is defined")
    sp.add_argument("--degree", type=int, default=27)
    sp.add_argument("--deformed", action="store_true")
    sp.set_defaults(fn=cmd_dump_series)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.fn(args)
        except PrecisionError as exc:
            # too low a --precision is bad input, not a failed
            # verification; selftest and dump-series fix their own
            if "precision" not in vars(args):
                raise
            M = args.precision
            raise InputError(
                f"--precision {M} is too low for this input: at M = {M}, "
                f"{exc}; rerun with a larger --precision") from exc
    except (InputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except P2ModelsError as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
