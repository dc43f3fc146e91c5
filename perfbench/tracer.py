"""Outside-in tracing of tpcalc's public functions.

`tracing()` rebinds each listed function in every ``tpcalc.*`` module
namespace that holds it (the package imports with ``from .x import y``, so
patching only the home module would miss calls such as ``tp_engine``'s
``all_subgroups``).  It also wraps ``GroupTable.__init__`` and the values of
``catalog.CHECKS``.  Every rebinding is undone on exit.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# home module -> public functions wrapped wherever they are bound
TRACED_FUNCTIONS = {
    "group_core": ("closure_of", "all_subgroups", "subgroup_conjugacy_classes",
                   "quotient_group", "subgroup_as_group", "is_isomorphic",
                   "has_section", "classify_structure"),
    "coset_graph": ("build_coset_graph", "double_cosets"),
    "transversal": ("permanent_ryser", "weight_matrix", "dt_enumerate", "p_g",
                    "bounds_report"),
    "tp_engine": ("tp", "verify_monotonicity", "verify_structure_theorems",
                  "classify_special_values", "verify_graph_invariants"),
    "catalog": ("build_group",),
}
TABLE_SPAN = "group_core.GroupTable"

# span -> counter of calls whose first argument (a table) the span has not
# seen before in this run
FRESH_COUNTERS = {
    "group_core.all_subgroups": "group_core.all_subgroups.fresh",
    "tp_engine.tp": "tp_engine.tp.fresh_tables",
}


class Tracer:
    """Call counts, self time and inclusive time per span name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.fresh: Counter = Counter()
        self._seen = {name: weakref.WeakSet() for name in FRESH_COUNTERS}
        self._child_s: list[float] = []  # one accumulator per open span

    def wrap(self, name: str, fn):
        seen = self._seen.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if seen is not None and args[0] not in seen:
                seen.add(args[0])
                self.fresh[FRESH_COUNTERS[name]] += 1
            self._child_s.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self.self_s[name] += elapsed - self._child_s.pop()
                self.incl_s[name] += elapsed
                if self._child_s:
                    self._child_s[-1] += elapsed

        return traced


def _tpcalc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tpcalc" or name.startswith("tpcalc."))]


@contextmanager
def tracing(tracer: Tracer):
    """Install `tracer`'s wrappers for the duration of the block."""
    import tpcalc.catalog as catalog
    import tpcalc.group_core as group_core

    undo: list = []  # (setter, restore value) pairs, replayed in reverse
    try:
        modules = _tpcalc_modules()
        for home, fns in TRACED_FUNCTIONS.items():
            home_mod = sys.modules[f"tpcalc.{home}"]
            for fn_name in fns:
                original = getattr(home_mod, fn_name)
                wrapper = tracer.wrap(f"{home}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((functools.partial(setattr, mod, attr), original))
        init = group_core.GroupTable.__init__
        group_core.GroupTable.__init__ = tracer.wrap(TABLE_SPAN, init)
        undo.append((functools.partial(setattr, group_core.GroupTable, "__init__"), init))
        for check, run in list(catalog.CHECKS.items()):
            catalog.CHECKS[check] = tracer.wrap(f"catalog.check.{check}", run)
            undo.append((functools.partial(catalog.CHECKS.__setitem__, check), run))
        yield tracer
    finally:
        for restore, value in reversed(undo):
            restore(value)
