"""Span tracing around the public boundaries of p2models.

The wrappers are installed from the benchmark, never from the program:
each boundary below names the functions and methods that make it up, and
`Tracer.install` replaces every reference to them (class attributes and
the module globals of every p2models module that imported them) with a
wrapper that records a span.  `Tracer.uninstall` puts the originals
back.

Spans are aggregated in memory by (name, parent): count, total time and
self time (total minus the time of the child spans).  A call that enters
the boundary it is already inside (for example `reduce_mod` calling
`pi_digit_expansion`) is part of the outer span and is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# boundary name -> (module, qualified names of the functions it covers)
BOUNDARIES = {
    "dvr.mul": ("dvr", ["RingElement.__mul__"]),
    "dvr.add": ("dvr", ["RingElement.__add__", "RingElement.__sub__",
                        "RingElement.__neg__", "RingElement.scale"]),
    "dvr.pow": ("dvr", ["RingElement.__pow__"]),
    "dvr.divide_exact": ("dvr", ["RingElement.divide_exact"]),
    "dvr.invert_unit": ("dvr", ["RingElement.invert_unit"]),
    "dvr.reduce_mod": ("dvr", ["RingElement.reduce_mod",
                               "RingElement.pi_digit_expansion",
                               "reduce_mod"]),
    "dvr.quot": ("dvr", ["QuotElement.__add__", "QuotElement.__sub__",
                         "QuotElement.__neg__", "QuotElement.__mul__",
                         "QuotElement.scale", "QuotElement.__pow__",
                         "QuotElement.lift"]),
    "dvr.valuation": ("dvr", ["RingElement.valuation", "RingElement.is_zero",
                              "QuotElement.valuation"]),
    "dvr.eq_mod": ("dvr", ["eq_mod"]),
    "poly.mul": ("poly", ["Poly.__mul__"]),
    "poly.add": ("poly", ["Poly.__add__", "Poly.__sub__", "Poly.__neg__",
                          "Poly.scale"]),
    "poly.pow": ("poly", ["Poly.__pow__"]),
    "poly.subst": ("poly", ["Poly.subst"]),
    "poly.normal_form": ("poly", ["normal_form"]),
    "poly.div_scalar": ("poly", ["Poly.div_scalar"]),
    "hopf.check_hopf_axioms": ("hopf", ["check_hopf_axioms"]),
    "hopf.check_morphism": ("hopf", ["check_morphism"]),
    "hopf.localized": ("hopf", ["LocalizedElement.__add__",
                                "LocalizedElement.__sub__",
                                "LocalizedElement.__neg__",
                                "LocalizedElement.__mul__",
                                "LocalizedElement.mul_unit_power",
                                "LocalizedElement.eq",
                                "LocalizedElement.clear_in_finite"]),
    "hopf.residue_fiber": ("hopf", ["residue_fiber"]),
    "hopf.is_model_map": ("hopf", ["is_model_map"]),
    "witt.ghost": ("witt", ["ghost"]),
    "witt.witt_add": ("witt", ["witt_add"]),
    "witt.witt_mul": ("witt", ["witt_mul"]),
    "witt.frobenius_w": ("witt", ["frobenius_w"]),
    "witt.is_frobenius_kernel": ("witt", ["is_frobenius_kernel"]),
    "witt.mult_by_p": ("witt", ["mult_by_p"]),
    "artin_hasse.ah_series": ("artin_hasse", ["ah_series"]),
    "artin_hasse.deformed_ah": ("artin_hasse", ["deformed_ah"]),
    "artin_hasse.product_form": ("artin_hasse", ["product_form"]),
    "artin_hasse.ep_poly_special": ("artin_hasse", ["ep_poly_special"]),
    **{f"models.{fn}": ("models", [fn]) for fn in (
        "build_extension", "build_extension_smooth", "ambient_isogeny",
        "solve_target_hom", "phi_closed", "phi_brute", "hom_closed",
        "hom_brute", "hom_models_brute", "rad_brute", "rad_witt_count",
        "enumerate_models")},
    "fiber.classify_fiber": ("fiber", ["classify_fiber"]),
    "fiber.verify_fiber": ("fiber", ["verify_fiber"]),
    "cli.main": ("cli", ["main"]),
}

# every battery criterion, timed as selftest.criterion.<id>.s
CRITERION_IDS = [str(i) for i in range(1, 15)] + [
    "neg", "p5-phi", "p5-ker", "p5-eta"]

RATIOS = ["models.hom_brute.survivor_ratio",
          "models.hom_models_brute.survivor_ratio",
          "witt.is_frobenius_kernel.hit_ratio"]


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for b in BOUNDARIES:
        out.append((f"{b}.calls", "count", "lower"))
        out.append((f"{b}.self_s", "s", "lower"))
    out += [(f"selftest.criterion.{c}.s", "s", "lower")
            for c in CRITERION_IDS]
    out += [(r, "ratio", "higher") for r in RATIOS]
    out.append(("dvr.zero_decision_min_prec", "pi-units", "higher"))
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def _hom_brute_candidates(ring, m, n):
    """Size of the candidate set hom_brute enumerates for cell (m, n)."""
    p = ring.p
    if n == 0:
        return 1
    if m == 0:
        return p ** (n * p)
    return p ** ((n - 1) * p)


class Tracer:
    """Aggregated spans plus the counts behind the ratio metrics."""

    def __init__(self):
        self.spans = {}              # (name, parent) -> [count, total, self]
        self.stack = [["", 0.0]]     # open spans: [name, child time]
        self.observed = {"hom_brute": [0, 0], "hom_models_brute": [0, 0],
                         "kernel": [0, 0], "zero_min_prec": None}
        self._patched = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] == name:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                rec = spans.get((name, parent[0]))
                if rec is None:
                    spans[(name, parent[0])] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _observer(self, qualname):
        obs = self.observed
        if qualname == "RingElement.is_zero":
            def zero_decision(args, result):
                if result:
                    prec = args[0].prec
                    cur = obs["zero_min_prec"]
                    obs["zero_min_prec"] = prec if cur is None else min(cur, prec)
            return zero_decision
        if qualname == "hom_brute":
            def hom_brute(args, result):
                ring, m, n = args[:3]
                obs["hom_brute"][0] += len(result)
                obs["hom_brute"][1] += _hom_brute_candidates(ring, m, n)
            return hom_brute
        if qualname == "hom_models_brute":
            def hom_models_brute(args, result):
                obs["hom_models_brute"][0] += len(result[0].maps)
                obs["hom_models_brute"][1] += args[0].ring.p ** 2
            return hom_models_brute
        if qualname == "is_frobenius_kernel":
            def kernel(args, result):
                obs["kernel"][0] += bool(result)
                obs["kernel"][1] += 1
            return kernel
        return None

    def install(self):
        """Wrap every boundary and every battery criterion."""
        pkg_modules = [m for name, m in sorted(sys.modules.items())
                       if name == "p2models" or name.startswith("p2models.")]
        for bname, (modname, qualnames) in BOUNDARIES.items():
            mod = importlib.import_module(f"p2models.{modname}")
            for qual in qualnames:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = owner.__dict__[attr]
                wrapped = self._wrap(bname, orig, self._observer(qual))
                if owner_name:
                    self._patch(owner, attr, orig, wrapped)
                    continue
                for m in pkg_modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, orig, wrapped)
        selftest = importlib.import_module("p2models.selftest")
        for table in (selftest.CRITERIA, selftest.CRITERIA_P5):
            for cid, (desc, fn) in list(table.items()):
                wrapped = self._wrap(f"selftest.criterion.{cid}", fn)
                self._patch(table, cid, (desc, fn), (desc, wrapped),
                            item=True)

    def _patch(self, owner, key, orig, new, item=False):
        if item:
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._patched.append((owner, key, orig, item))

    def uninstall(self):
        for owner, key, orig, item in reversed(self._patched):
            if item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def span_table(self, scale=1.0) -> list[dict]:
        """Spans with their times multiplied by `scale`."""
        return [{"name": n, "parent": p or None, "count": c,
                 "total_s": tot * scale, "self_s": slf * scale}
                for (n, p), (c, tot, slf) in sorted(self.spans.items())]

    def metrics(self, scale=1.0) -> dict:
        """Per-layer values, times multiplied by `scale` (without the
        trace.* pair, which needs an untraced pass to compare against)."""
        calls, self_s, total = {}, {}, {}
        for (n, _), (c, tot, slf) in self.spans.items():
            calls[n] = calls.get(n, 0) + c
            self_s[n] = self_s.get(n, 0.0) + slf * scale
            total[n] = total.get(n, 0.0) + tot * scale
        out = {}
        for b in BOUNDARIES:
            out[f"{b}.calls"] = calls.get(b, 0)
            out[f"{b}.self_s"] = self_s.get(b, 0.0)
        for c in CRITERION_IDS:
            out[f"selftest.criterion.{c}.s"] = total.get(
                f"selftest.criterion.{c}", 0.0)
        obs = self.observed

        def ratio(hit, tried):
            return hit / tried if tried else 0.0
        out["models.hom_brute.survivor_ratio"] = ratio(*obs["hom_brute"])
        out["models.hom_models_brute.survivor_ratio"] = ratio(
            *obs["hom_models_brute"])
        out["witt.is_frobenius_kernel.hit_ratio"] = ratio(*obs["kernel"])
        out["dvr.zero_decision_min_prec"] = obs["zero_min_prec"] or 0
        return out
