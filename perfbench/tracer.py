"""Per-layer spans around fieldsimp's public functions, installed from outside
the package (nothing under src/ is traced or changed).

Each traced function is replaced, in every loaded fieldsimp module and class
that binds it, by a wrapper that records a span: the layer-qualified name,
its duration, and the duration of the spans nested in it.  Self time is the
duration minus the nested spans; the total time of a recursive function
counts only its outermost spans.  Spans are folded into per-name totals as
they close, so memory stays flat however many calls a run makes.

Two traps make a silently missing span easy.  simplify.py and fields.py
(and the benchmark's own workloads.py) bind several functions by name, so a
wrapper installed only on the defining module misses their calls.  And
`import fieldsimp.groebner as m` gives the function that fieldsimp/__init__.py
re-exports, not the module.  `install` therefore looks modules up with
importlib, rebinds every reference it finds, and fails when any reference to
an original is left.
"""

import functools
import importlib
import sys
import time
from collections import Counter

# span name -> (module, attribute path); a layer is one module
SPANS = {
    "cli.parse_problem_file": ("fieldsimp.cli", "parse_problem_file"),
    "simplify.simplify": ("fieldsimp.simplify", "simplify"),
    "simplify.simplicity_key": ("fieldsimp.simplify", "simplicity_key"),
    "simplify.reconstruct_candidates": ("fieldsimp.simplify",
                                        "reconstruct_candidates"),
    "oms.gb_coefficients": ("fieldsimp.oms", "gb_coefficients"),
    "oms.specialize_eoms": ("fieldsimp.oms", "specialize_eoms"),
    "oms.eval": ("fieldsimp.oms", "EomsEvaluator.eval"),
    "interp.estimate_degrees": ("fieldsimp.interp", "estimate_degrees"),
    "interp.interpolate_rational": ("fieldsimp.interp",
                                    "interpolate_rational"),
    "groebner.gb_apply": ("fieldsimp.groebner", "gb_apply"),
    "groebner.gb_learn": ("fieldsimp.groebner", "gb_learn"),
    "groebner.groebner": ("fieldsimp.groebner", "groebner"),
    "groebner.normal_form": ("fieldsimp.groebner", "ReducedGB.normal_form"),
    "fields.MembershipContext": ("fieldsimp.fields",
                                 "MembershipContext.__init__"),
    "fields.contains": ("fieldsimp.fields", "MembershipContext.contains"),
    "fields.fields_equal": ("fieldsimp.fields", "fields_equal"),
    "fields.polynomial_generators": ("fieldsimp.fields",
                                     "polynomial_generators"),
    "poly.derivative": ("fieldsimp.poly", "RationalFunction.derivative"),
    "poly.gcd_q": ("fieldsimp.poly", "gcd_q"),
}


class Tracer:
    """Per-name span totals: calls, total seconds, self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()      # outcome counters, e.g. diverged replays
        self.missing = []            # spans whose function does not exist
        self._stack = []             # nested-span time of each open span
        self._depth = Counter()

    def reset(self):
        """Zero every total; the installed wrappers keep recording."""
        for counter in (self.calls, self.total, self.self_time, self.counts):
            counter.clear()

    def wrap(self, name, fn):
        stack, depth = self._stack, self._depth
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                nested = stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_time[name] += dur - nested
                if not depth[name]:
                    total[name] += dur
                if stack:
                    stack[-1] += dur
        return span


def _observed(name, fn, counts):
    """`fn` with the outcome counters its span reports."""
    if name == "groebner.gb_apply":
        diverged = importlib.import_module("fieldsimp.groebner").TRACE_DIVERGED

        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["groebner.gb_apply.diverged"] += out is diverged
            return out
    elif name == "oms.eval":
        def observed(evaluator, point):
            before = evaluator.n_evals
            out = fn(evaluator, point)
            counts["oms.eval.cache_hits"] += evaluator.n_evals == before
            counts["oms.eval.fails"] += out is None
            return out
    elif name == "interp.interpolate_rational":
        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["interp.interpolate_rational.fails"] += out is None
            return out
    elif name == "oms.gb_coefficients":
        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None:
                for val in out.entries.values():
                    counts["oms.keys"] += 1
                    counts["oms.keys.useful"] += (
                        val[0] == "ok" and sum(val[2]) > 0)
            return out
    elif name in ("fields.MembershipContext", "fields.contains",
                  "fields.polynomial_generators"):
        unlucky = importlib.import_module("fieldsimp.fields").UnluckyPoint

        def observed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except unlucky:
                counts["fields.unlucky"] += 1
                raise
    else:
        return fn
    return functools.wraps(fn)(observed)


class MissingSpan(RuntimeError):
    """A traced function is still reachable without its wrapper."""


def install(tracer, names, callers=()):
    """Wrap the named spans everywhere fieldsimp, or one of the `callers`
    modules, binds them.  Returns an undo list for `uninstall`."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "fieldsimp" or key.startswith("fieldsimp.")]
    modules += callers
    undo = []
    try:
        for name in names:
            module_name, path = SPANS[name]
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                # a later version may drop the function: its span reads zero
                # calls, which fails the run only where the span is expected
                tracer.missing.append(name)
                continue
            wrapped = tracer.wrap(name,
                                  _observed(name, original, tracer.counts))
            bindings = [(owner, attr)] + [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original and (m, key) != (owner, attr)]
            for obj, key in bindings:
                undo.append((obj, key, original))
                setattr(obj, key, wrapped)
            left = [m.__name__ + "." + key for m in modules
                    for key, value in vars(m).items() if value is original]
            if left:
                raise MissingSpan("%s still bound unwrapped in %s"
                                  % (name, ", ".join(left)))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo):
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)
    undo.clear()
