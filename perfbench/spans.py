"""Spans around wittkit's layer boundaries, installed from outside the library.

`install(tracer)` replaces every public function of every loaded wittkit
module -- at each place inside the package where that function object is
bound -- and a few series methods with wrappers that open a span on entry
and close it on return.  `Installed.remove()` puts every original binding
back.  Nothing under src/ is edited.

Spans are kept in flat arrays (name, start, end, parent) and only turned
into per-name aggregates when the task has finished.  Because the calls are
synchronous and single-threaded, the children of a span never overlap, so a
span's self time is its duration minus the sum of its children's durations.

Generator functions (`words.duval_lyndon`, `words.multiset_permutations`)
get no span: their work runs while the consumer resumes them, so it is
counted in the consumer's self time.  Private helpers get no span either.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Tuple

PACKAGE = "wittkit"

# (module, class, attribute, span name): methods that get a span
METHODS = (
    ("series", "TruncatedSeries", "__mul__", "series.mul"),
    ("series", "TruncatedSeries", "__rmul__", "series.mul"),
    ("series", "TruncatedSeries", "__pow__", "series.pow"),
    ("series", "TruncatedSeries", "inflate", "series.inflate"),
    ("series", "TruncatedSeries", "recip", "series.recip"),
    ("series", "RationalFunction", "expand", "series.expand"),
    ("expansion", "BiSeries", "mul_factor", "expansion.mul_factor"),
)


class Tracer:
    """Records spans and named counters for one task of one round."""

    def __init__(self, round_id: int = 0):
        self.round_id = round_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        """Every span as (name, start, end, parent index, round id)."""
        return [
            (self.names[n], s, e, p, self.round_id)
            for n, s, e, p in zip(self.name_of, self.starts, self.ends, self.parents)
        ]

    def write(self, path: str, task: str) -> None:
        """Append every span as a tab-separated line: task, index, name,
        start, end, parent index, round id."""
        with open(path, "a") as fh:
            for i, span in enumerate(self.spans()):
                fh.write("\t".join(map(str, (task, i) + span)) + "\n")

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, the counters, and the
        time covered by root spans."""
        selfs = self_times(self.parents, self.starts, self.ends)
        per_name: Dict[str, dict] = {}
        root_s = 0.0
        for i, n in enumerate(self.name_of):
            dur = self.ends[i] - self.starts[i]
            agg = per_name.setdefault(
                self.names[n], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += selfs[i]
            if self.parents[i] < 0:
                root_s += dur
        return {
            "spans": len(self.starts),
            "root_s": root_s,
            "per_name": per_name,
            "counters": dict(self.counters),
        }


def self_times(parents, starts, ends) -> List[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from nested synchronous calls, so siblings never overlap and
    every child lies inside its parent.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


# -- counts taken at the boundaries -------------------------------------


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _count_mul(tracer: Tracer, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    n = result.order
    if hasattr(b, "coeffs"):
        products = (n + 1) * (n + 2) // 2
        operands = (a.coeffs, b.coeffs)
    else:  # scalar factor
        products = n + 1
        operands = (a.coeffs,)
    tracer.add("series.mul.coeff_products", products)
    bits = max(_coeff_bits(c) for coeffs in operands for c in coeffs)
    tracer.maximum("series.mul.max_bits", bits)


def _count_aperiodic(tracer: Tracer, args, kwargs, result) -> None:
    content = [c for c in args[0] if c]
    visited = math.factorial(sum(content))
    for c in content:
        visited //= math.factorial(c)
    tracer.add("words.aperiodic_count.visited", visited)
    tracer.add("words.aperiodic_count.results", result)


def _count_witt_table(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("witt.witt_table.cells", result.order * (result.degree + 1))


def _count_peel_1d(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("expansion.peel_1d.order_sum", result.order)


def _count_peel_2d(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("expansion.peel_2d.cells", (result.deg_z + 1) * (result.deg_y + 1) - 1)


def _count_euler_product(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("analytic.euler_product.cutoff", result.cutoff)
    tracer.add("analytic.euler_product.working_digits", result.working_digits)


def _count_checks(name: str) -> Callable:
    def count(tracer: Tracer, args, kwargs, result) -> None:
        tracer.add(name + ".checks", result.checks)

    return count


COUNTERS: Dict[str, Callable] = {
    "series.mul": _count_mul,
    "words.aperiodic_count": _count_aperiodic,
    "witt.witt_table": _count_witt_table,
    "expansion.peel_1d": _count_peel_1d,
    "expansion.peel_2d": _count_peel_2d,
    "analytic.euler_product": _count_euler_product,
}


# -- installing and removing the wrappers ------------------------------


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    name_id = tracer.name_id(name)
    count = COUNTERS.get(name)
    if count is None and name.startswith("suites.") and name.endswith("_battery"):
        count = _count_checks(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if count is not None and result is not NotImplemented:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _modules() -> List[types.ModuleType]:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def public_functions(module: types.ModuleType) -> Dict[str, Callable]:
    """The module's own public functions: those named in __all__, or, for a
    module without __all__, every public name defined in it."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        obj = getattr(module, n, None)
        if (
            isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            out[n] = obj
    return out


class Installed:
    """The bindings replaced by `install`; `remove` restores them."""

    def __init__(self):
        self.replaced: List[Tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every public wittkit function at every binding site inside the
    package, plus the methods in METHODS.  All wittkit modules that should
    be traced must already be imported."""
    modules = _modules()
    wrapped: Dict[int, Tuple[Callable, Callable]] = {}  # id -> (original, wrapper)
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, fn in public_functions(mod).items():
            wrapped[id(fn)] = (fn, _wrap(tracer, f"{short}.{attr}", fn))
    done = Installed()
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            original, wrapper = wrapped.get(id(obj), (None, None))
            if original is obj:
                done.replaced.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
    for mod_name, cls_name, attr, span in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
        original = cls.__dict__[attr]
        done.replaced.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, span, original))
    return done


def bindings() -> Dict[Tuple[str, str], object]:
    """Snapshot of every attribute of every loaded wittkit module and of the
    traced classes, for checking that `remove` restored them."""
    snap: Dict[Tuple[str, str], object] = {}
    for mod in _modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
    for mod_name, cls_name, _attr, _span in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
        for attr, obj in vars(cls).items():
            snap[(f"{mod_name}.{cls_name}", attr)] = obj
    return snap
