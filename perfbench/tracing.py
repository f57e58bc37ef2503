"""Per-module tracing from outside the program.

``Tracer.installed()`` wraps the public functions of every capnet module,
both as module attributes and wherever another module bound the same
function with ``from ... import`` (for example ``activation_batch`` in
``rademacher`` and ``compress``), plus the entries of ``verify.SUITES``.  On
exit every patched name gets its original back, so an untraced pass after a
traced one runs unchanged code.

Coarse calls (CLI commands, suites, ascents, certificates, ...) each record a
span: name, start, end, parent span and the request (pass and command) they
belong to.  High-frequency leaves (all of ``matlin``, the network's forward
helpers, the sign-matrix generator, bound formulas) are aggregated in place:
a call count, summed busy time and summed self time, with their time still
charged to the enclosing call.  Exceptions that escape a wrapped call are
counted per module and re-raised unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "network", "matlin", "bounds", "compress", "rademacher",
           "lowerbound", "verify")

# Calls that get one span each; every other wrapped function is aggregated.
SPANNED = {
    "cli.main", "bounds.report_for", "network.load_network", "network.load_dataset",
    "network.save_network", "network.profile",
    "compress.rank1_replace", "compress.verify_certificate", "compress.factor_compressed",
    "rademacher.mc_rademacher", "rademacher.sup_ascent", "rademacher.exact_rademacher",
    "rademacher.check_contraction_frobenius", "rademacher.check_contraction_l1inf",
    "rademacher.check_union_bound", "rademacher.build_lipschitz_cover",
    "rademacher.verify_cover", "lowerbound.demonstrate_lower_bound",
}


def _project_name(args, kwargs):
    c = args[1] if len(args) > 1 else kwargs["c"]
    return f"matlin.project_to_ball.{c.kind.tag}"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


_NAMERS = {"matlin.project_to_ball": _project_name, "cli.main": _cli_name}


class Tracer:
    """Spans and per-name statistics for the calls made while installed."""

    def __init__(self):
        self.spans = []                  # (id, parent id, request, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, busy, self
        self.errors = defaultdict(int)   # module -> escaped exceptions
        self.ascent_steps = 0
        self.sign_rows = 0
        self.request = ""
        self._stack = []                 # frames: [span id or None, start, child time]
        self._next_id = 0

    def _wrap(self, name, fn):
        module = name.split(".")[0]
        namer = _NAMERS.get(name)
        spanned = name in SPANNED or name.startswith("verify.suite.")
        stack, stats, errors, spans = self._stack, self.stats, self.errors, self.spans
        counter = None
        if name == "rademacher.sup_ascent":
            sig = inspect.signature(fn)

            def counter(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.ascent_steps += bound.arguments["restarts"] * bound.arguments["steps"]
        elif name == "rademacher.sign_matrix":
            def counter(args, kwargs, result):
                self.sign_rows += result.shape[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            span_id = None
            if spanned:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - frame[1]
                if stack:
                    stack[-1][2] += busy
                entry = stats[label]
                entry[0] += 1
                entry[1] += busy
                entry[2] += busy - frame[2]
                if span_id is not None:
                    parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                    spans.append((span_id, parent, self.request, label, frame[1], end))
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        mods = {name: importlib.import_module(f"capnet.{name}") for name in MODULES}
        wrappers = {}
        for mod_name, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{mod_name}.{attr}"
                # of cli only main is wrapped, so that a command's self time
                # keeps its parsing, rendering and file output
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (mod_name != "cli" or attr == "main")):
                    wrappers[obj] = self._wrap(name, obj)
        patches = []   # (namespace, key, original, replacement)
        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    patches.append((ns, attr, obj, wrappers[obj]))
        suites = mods["verify"].SUITES
        for key, fn in list(suites.items()):
            patches.append((suites, key, fn, self._wrap(f"verify.suite.{key}", fn)))
        for ns, key, _, replacement in patches:
            ns[key] = replacement
        try:
            yield self
        finally:
            for ns, key, original, _ in patches:
                ns[key] = original

    def busy(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, *names):
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_time(self, *names):
        return sum(self.stats[n][2] for n in names if n in self.stats)
