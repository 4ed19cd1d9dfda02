"""Run one fusionkit CLI invocation with per-layer spans.

Usage: python perfbench/traced.py <fusionkit cli arguments...>

Wraps every public function of each fusionkit module (the layers) in every
fusionkit module namespace that binds it, then calls ``cli.main``.  Spans
nest on one stack.  The child prints the CLI's own output unchanged and, as
the last line of stderr, ``PERFBENCH-TRACE <json>`` with per-function call
counts and times plus a few work counters.  Exits with ``cli.main``'s code.

Nothing under ``src/`` changes: the wrapping happens only in this process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("algebra", "weights", "characters", "fusion", "identity", "theta",
          "csmodel", "cli")
MARKER = "PERFBENCH-TRACE "


class Tracer:
    """Span stack and per-function statistics for one process.

    For each function key ``layer.name`` it keeps:
      calls  -- number of calls
      self   -- span time minus the time of its direct child spans
      local  -- span time minus the time of spans of other layers below it,
                so same-layer helpers count toward the caller
    Summed over all functions, ``self`` equals the root span's time.
    """

    def __init__(self):
        # Each frame: [layer, direct child time, other-layer time below].
        self.stack = [[None, 0.0, 0.0]]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.local_s: dict[str, float] = {}
        self.counters = {"algebra.orbit_elements": 0, "identity.points_checked": 0}
        self._reports: dict[int, object] = {}

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        self.calls[key] = 0
        self.self_s[key] = 0.0
        self.local_s[key] = 0.0
        stack, calls, self_s, local_s = self.stack, self.calls, self.self_s, self.local_s
        after = self._result_hook(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                parent[2] += frame[2] if parent[0] == layer else elapsed
                calls[key] += 1
                self_s[key] += elapsed - frame[1]
                local_s[key] += elapsed - frame[2]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _result_hook(self, layer: str, name: str):
        if layer == "algebra" and name == "weyl_orbit":
            def count_orbit(result):
                self.counters["algebra.orbit_elements"] += len(result)
            return count_orbit
        if layer == "identity":
            report_type = importlib.import_module("fusionkit.identity").VerificationReport

            def count_points(result):
                # One report passes through nested identity calls; count it once.
                if isinstance(result, report_type) and id(result) not in self._reports:
                    self._reports[id(result)] = result
                    self.counters["identity.points_checked"] += result.points_checked
            return count_points
        return None


def public_functions(module):
    """Public functions (plain or lru_cache-wrapped) defined in ``module``."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
            continue
        if getattr(obj, "__wrapped__", obj).__module__ == module.__name__:
            found[name] = obj
    return found


def install(tracer: Tracer):
    """Replace every binding of a layer's public function, in every fusionkit
    module namespace, by its traced wrapper.  Returns the originals by key."""
    modules = [importlib.import_module(f"fusionkit.{layer}") for layer in LAYERS]
    replacements = {}
    originals = {}
    for layer, module in zip(LAYERS, modules):
        for name, fn in public_functions(module).items():
            replacements[id(fn)] = tracer.wrap(layer, name, fn)
            originals[f"{layer}.{name}"] = fn
    namespaces = [m for n, m in sys.modules.items()
                  if n == "fusionkit" or n.startswith("fusionkit.")]
    for module in namespaces:
        for name, obj in list(vars(module).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
    return originals


def main(argv) -> int:
    tracer = Tracer()
    originals = install(tracer)
    cli = importlib.import_module("fusionkit.cli")
    code = cli.main(argv)
    sys.stdout.flush()
    info = originals["characters.eval_D"].cache_info()
    record = {
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "local_s": tracer.local_s,
        "counters": tracer.counters,
        "eval_D_cache": {"hits": info.hits, "misses": info.misses},
        "root_s": tracer.stack[0][1],
    }
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
