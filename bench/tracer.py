"""Per-function spans around octsieve's public entry points, from outside.

``Tracer.install`` rebinds each traced function in every ``octsieve.*``
module that holds it (``from .algebra import multiply`` copies the
binding into ``dsl``, ``derivations`` and others), swaps the verification
checks in ``ALL_CHECKS`` for wrapped ones, and counts ``Octonion``
constructions.  ``restore`` puts every original back.

Spans are aggregated per function as they close: calls, total time and
self time (the span minus its child spans), plus call counts per
(caller, callee) edge.  A span list would not fit: the full verification
suite makes about 560k ``multiply`` calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Module -> public functions wrapped there.  Names are looked up through
# importlib because the package attribute ``octsieve.sieve`` is the
# function ``sieve``, not the module.
TRACED = {
    "octsieve.algebra": ("multiply",),
    "octsieve.dsl": ("parse", "evaluate"),
    "octsieve.sieve": ("function_family", "sieve", "random_assignment", "is_invariant"),
    "octsieve.derivations": ("derive", "leibniz_check", "integer_rank", "cross_algebra_equal"),
    "octsieve.cli": ("main",),
}


def _octsieve_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "octsieve" or name.startswith("octsieve."))]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}  # (caller, callee) -> calls
        self.constructed = 0
        self._stack: list[list] = []  # [name, child_s] per open span
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - frame[1]
                if parent is not None:
                    parent[1] += span
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1

        return wrapper

    def _rebind(self, holder, attr: str, value):
        self._rebound.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self):
        modules = _octsieve_modules()
        for modname, names in TRACED.items():
            module = importlib.import_module(modname)
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{modname.split('.')[1]}.{fname}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, attr, wrapper)

        verification = importlib.import_module("octsieve.verification")
        checks = tuple(
            (check, self._wrap(f"verification.{check}", fn))
            for check, fn in verification.ALL_CHECKS
        )
        self._rebind(verification, "ALL_CHECKS", checks)

        octonion = importlib.import_module("octsieve.algebra").Octonion
        init = octonion.__init__

        def counting_init(obj, *args, **kwargs):
            self.constructed += 1
            init(obj, *args, **kwargs)

        self._rebind(octonion, "__init__", counting_init)

    def restore(self):
        while self._rebound:
            holder, attr, original = self._rebound.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
