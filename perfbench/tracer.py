"""Spans and counters recorded around the public functions of each klcells layer.

The tracer wraps every public module-level function of the layer modules and
installs the wrapper at every attribute that holds the original, in all
klcells modules and the package namespace.  That matters because the
``from .x import f`` statements bind their own names: selfcheck reaches
``structure_constants`` and ``compute_cells`` through its own globals, and
classifier reaches ``character_table`` the same way, so wrapping only the
defining module would miss those calls.

Every wrapped call records a span ``[id, parent, name, tag, start_ns, end_ns,
extra]`` in memory; the spans are written out once, when the pass ends.
``DihedralGroup.multiply`` and ``bruhat_leq`` run millions of times per
workload, so they get count-only wrappers and no spans.  Nothing under
``src/`` is changed; all of this happens in the benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# klcells modules that form the layers of the pipeline; cli is left out
LAYERS = (
    "dihedral",
    "klring",
    "basedring",
    "quadfield",
    "characters",
    "matrixmodule",
    "classifier",
    "selfcheck",
)

# (module, class, method) wrapped with a counter only
COUNT_ONLY = (
    ("dihedral", "DihedralGroup", "multiply"),
    ("dihedral", "DihedralGroup", "bruhat_leq"),
)

# short metric names for long function names
ALIASES = {
    "classifier.solve_matrix_modules": "classifier.solve",
    "classifier.bruteforce_matrix_modules": "classifier.bruteforce",
}


def _profile_text(profile) -> str:
    return "-".join(str(m) for m in profile)


class Tracer:
    """Installs the wrappers on construction; ``summary()`` turns spans into metrics."""

    def __init__(self, package) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        # trace budgets seen by classifier.profile_traces, mapped back to profiles
        self._profiles: dict[tuple, tuple] = {}
        self._observers = {
            "klring.structure_constants": self._observe_structure_constants,
            "classifier.profile_traces": self._observe_profile_traces,
            "classifier.solve_matrix_modules": self._observe_solve,
            "classifier.bruteforce_matrix_modules": self._observe_bruteforce,
            "characters.character_table": self._observe_character_table,
        }
        prefix = package.__name__ + "."
        modules = [importlib.import_module(prefix + name) for name in LAYERS]
        namespaces = [package, *modules]
        for module in modules:
            layer = module.__name__[len(prefix):]
            for attr, original in list(vars(module).items()):
                if not _is_public_function(module, attr, original):
                    continue
                wrapper = self._span_wrapper(f"{layer}.{attr}", original)
                for namespace in namespaces:
                    for other, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, other, wrapper)
        for module_name, class_name, method in COUNT_ONLY:
            cls = getattr(importlib.import_module(prefix + module_name), class_name)
            setattr(cls, method, self._count_wrapper(
                f"{module_name}.{method}", getattr(cls, method)))

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observer = self._observers.get(name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, None, clock(), 0, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[3], record[6] = observer(bound.arguments, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__traced__ = True
        return wrapper

    # -- observers: (tag, extra) for a finished call -------------------------------

    def _observe_structure_constants(self, arguments, result):
        return f"n{arguments['n']}", None

    def _observe_profile_traces(self, arguments, result):
        self._profiles[tuple(sorted(result.items()))] = tuple(arguments["profile"])
        return None, None

    def _observe_solve(self, arguments, result):
        ring, traces = arguments["ring"], arguments["traces"]
        profile = None
        if traces is not None:
            profile = self._profiles.get(tuple(sorted(traces.items())))
        case = _profile_text(profile) if profile else f"r{arguments['rank']}"
        extra = {"solutions": len(result.modules), "bound_touched": result.bound_exhausted}
        return f"{ring.name}.{case}", extra

    def _observe_bruteforce(self, arguments, result):
        return f"{arguments['ring'].name}.r{arguments['rank']}", None

    def _observe_character_table(self, arguments, result):
        return None, {"exact": bool(result.exact)}

    # -- summary -------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        ``<layer>.<function>_s`` is inclusive time summed over calls that are
        not nested in a call of the same function; ``<layer>.self_s`` is the
        layer's span time minus the time covered by its child spans.
        """
        spans = self.spans
        child_ns: defaultdict[int, int] = defaultdict(int)
        for span in spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[5] - span[4]
        out: defaultdict[str, float] = defaultdict(float)
        counts = Counter({f"{name}_calls": n for name, n in self.counts.items()})
        bound_touched = tables = exact_tables = 0
        for span in spans:
            sid, parent, name, tag, start, end, extra = span
            duration = (end - start) / 1e9
            metric = ALIASES.get(name, name)
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += duration - child_ns[sid] / 1e9
            counts[f"{metric}_calls"] += 1
            if not _nested_in_same(spans, parent, name):
                out[f"{metric}_s"] += duration
                if tag is not None:
                    out[f"{metric}_s.{tag}"] += duration
            if extra is None:
                continue
            if name == "classifier.solve_matrix_modules":
                bound_touched += extra["bound_touched"]
                counts[f"classifier.solutions.{tag}"] += extra["solutions"]
            elif name == "characters.character_table":
                tables += 1
                exact_tables += extra["exact"]
        out.update(counts)
        out["classifier.bound_touched_profiles"] = bound_touched
        if tables:
            out["characters.exact_ratio"] = exact_tables / tables
        return dict(out)


def _is_public_function(module, attr: str, value) -> bool:
    return (
        not attr.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
        and not getattr(value, "__traced__", False)
    )


def _nested_in_same(spans: list[list], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False
