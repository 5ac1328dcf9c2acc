"""Per-layer counters and self times, taken by wrapping ringkit at run time.

Tracer.install() replaces the public functions and methods listed in
TIMED and COUNTED with wrappers, in every loaded ringkit module that
holds them, and uninstall() puts the originals back; nothing under src/
changes.  A timed wrapper records calls and self time: its span minus
the spans of the timed calls made inside it.  ModRing's kernels run
millions of times per round, so they are counted, not timed.

Two counters need context:
  * algebra.classify.mul_calls counts ring multiplications on the
    context that classify() is working on;
  * factor.fp_trial_divisions counts F_p polynomial divisions made
    inside factor_poly_fp or irreducibility_pipeline, and
    factor.fp_trial_division_hit_ratio the share of them that leave
    remainder 0.
"""

import importlib
import sys
from collections import Counter
from time import perf_counter_ns

TIMED = [
    ("poly", "PolyRing.mul"), ("poly", "PolyRing.divmod_"),
    ("series", "SeriesRing.mul"), ("series", "ts_invert"),
    ("matrix", "MatrixRing.mul"), ("fracfield", "FracField.add"),
    ("euclid", "extended_gcd"),
    ("factor", "factor_poly_fp"), ("factor", "irreducibility_pipeline"),
    ("factor", "rational_roots"), ("factor", "eisenstein_translate_search"),
    ("factor", "reduction_mod_p_check"), ("factor", "factor_integer"),
    ("algebra", "classify"),
    ("matrix", "det"), ("matrix", "mat_inverse"), ("matrix", "cramer_solve"),
    ("literals", "parse_context"), ("parsing", "eval_expr"),
]
COUNTED = [
    ("number_rings", "ModRing.mul"), ("number_rings", "ModRing.add"),
    ("quotient", "QuotientRing.mul"), ("factor", "poly_is_irreducible_fp"),
    ("matrix", "det_payload"),
]
# contexts whose mul() classify() drives
CLASSIFIED = [("number_rings", "ModRing"), ("quotient", "QuotientRing"),
              ("matrix", "MatrixRing"), ("algebra", "ProductRing"),
              ("series", "SeriesRing")]

# every per-layer metric, with its unit, in report order
PER_LAYER = [
    ("number_rings.ModRing.mul.calls", "count"),
    ("number_rings.ModRing.add.calls", "count"),
    ("poly.PolyRing.mul.calls", "count"),
    ("poly.PolyRing.mul.self_ms", "ms"),
    ("poly.PolyRing.divmod_.calls", "count"),
    ("poly.PolyRing.divmod_.self_ms", "ms"),
    ("poly.mul.fp_d10.p50_ms", "ms"),
    ("poly.mul.fp_d100.p50_ms", "ms"),
    ("poly.mul.fp_d1000.p50_ms", "ms"),
    ("poly.mul.z_d1000.p50_ms", "ms"),
    ("poly.divmod.fp_d1000.p50_ms", "ms"),
    ("series.SeriesRing.mul.self_ms", "ms"),
    ("series.ts_invert.self_ms", "ms"),
    ("series.ts_invert.fp_p500.p50_ms", "ms"),
    ("matrix.MatrixRing.mul.self_ms", "ms"),
    ("fracfield.FracField.add.self_ms", "ms"),
    ("quotient.QuotientRing.mul.calls", "count"),
    ("euclid.extended_gcd.self_ms", "ms"),
    ("factor.poly_is_irreducible_fp.calls", "count"),
    ("factor.factor_poly_fp.self_ms", "ms"),
    ("factor.fp_trial_divisions", "count"),
    ("factor.fp_trial_division_hit_ratio", "ratio"),
    ("factor.irreducibility_pipeline.self_ms", "ms"),
    ("factor.rational_roots.self_ms", "ms"),
    ("factor.eisenstein_translate_search.self_ms", "ms"),
    ("factor.reduction_mod_p_check.calls", "count"),
    ("factor.reduction_mod_p_check.self_ms", "ms"),
    ("factor.factor_integer.self_ms", "ms"),
    ("algebra.classify.self_ms", "ms"),
    ("algebra.classify.mul_calls", "count"),
    ("algebra.classify.zn1000.p50_ms", "ms"),
    ("matrix.det_payload.calls", "count"),
    ("matrix.det.self_ms", "ms"),
    ("matrix.mat_inverse.self_ms", "ms"),
    ("matrix.cramer_solve.self_ms", "ms"),
    ("matrix.det.z_n8.p50_ms", "ms"),
    ("cli.interpreter_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("literals.parse_context.self_ms", "ms"),
    ("parsing.eval_expr.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

def _module(name):
    return importlib.import_module("ringkit." + name)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.stack = []          # one [child_ns] cell per open timed span
        self.classified = None   # the context classify() is working on
        self.fp_scope = 0
        self._patches = []

    # -- wrappers ------------------------------------------------------

    def _timed(self, name, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self.stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            cell = [0]
            stack.append(cell)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - start
                stack.pop()
                self_ns[name] += span - cell[0]
                if stack:
                    stack[-1][0] += span
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def _classify(self, fn):
        def wrapper(ctx):
            outer, self.classified = self.classified, ctx
            try:
                return fn(ctx)
            finally:
                self.classified = outer
        return wrapper

    def _classified_mul(self, fn):
        calls = self.calls

        def wrapper(ctx, a, b):
            if ctx is self.classified:
                calls["algebra.classify.mul_calls"] += 1
            return fn(ctx, a, b)
        return wrapper

    def _fp_scope(self, fn):
        def wrapper(*args, **kwargs):
            self.fp_scope += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.fp_scope -= 1
        return wrapper

    def _fp_divmod(self, fn):
        calls = self.calls
        modring = _module("number_rings").ModRing

        def wrapper(ctx, a, b):
            q, r = fn(ctx, a, b)
            if self.fp_scope and isinstance(ctx.base, modring):
                calls["factor.fp_trial_divisions"] += 1
                if not r:
                    calls["factor.fp_trial_division_hits"] += 1
            return q, r
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, module, qualname, make):
        mod = _module(module)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, make(orig))
            self._patches.append((owner, attr, orig))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, m in list(sys.modules.items()):
            if name.startswith("ringkit") and m is not None:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._patches.append((m, key, orig))

    def install(self):
        """Wrap ringkit; innermost wrappers first, timing outermost."""
        for module, cls in CLASSIFIED:
            self._patch(module, cls + ".mul", self._classified_mul)
        self._patch("poly", "PolyRing.divmod_", self._fp_divmod)
        for name in ("factor_poly_fp", "irreducibility_pipeline"):
            self._patch("factor", name, self._fp_scope)
        self._patch("algebra", "classify", self._classify)
        for module, qualname in COUNTED:
            self._patch(module, qualname, lambda fn, n=f"{module}.{qualname}":
                        self._counted(n + ".calls", fn))
        for module, qualname in TIMED:
            self._patch(module, qualname, lambda fn, n=f"{module}.{qualname}":
                        self._timed(n, fn))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def report(self):
        """Counters as {metric name: value}; times in ms."""
        out = {}
        timed = set()
        for module, qualname in TIMED:
            name = f"{module}.{qualname}"
            timed.add(name)
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_ms"] = self.self_ns[name] / 1e6
        out.update((k, v) for k, v in self.calls.items() if k not in timed)
        return out
