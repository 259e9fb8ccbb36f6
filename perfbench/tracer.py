"""Outside-in tracing of ``bottsam``'s public functions.

:meth:`Tracer.install` wraps each function in :data:`TARGETS` from outside
the package: every binding of the original object, in every ``bottsam``
module and on every class defined there, is replaced by one wrapper, and
:meth:`Tracer.restore` puts the originals back.  Each wrapped call counts,
times itself, and subtracts the time of wrapped calls made inside it, which
gives self time.  The algorithm-level functions in :data:`SPAN_NAMES` also
record a span (id, parent span, name, start, end) under the root span of the
operation that caused it; the many small calls below them are aggregated
only, which keeps the trace's memory bounded.
"""

from __future__ import annotations

import importlib
import sys
import time

MARK = "__perfbench_wrapped__"


def _size(p) -> int:
    terms = getattr(p, "terms", None)
    return len(terms) if terms is not None else 1


def _bits(g):
    return getattr(g, "bits", g)


def _mul(tr, stat, args, result):
    stat.extra["term_products"] += _size(args[0]) * _size(args[1])


def _summands(tr, stat, args, result):
    stat.extra["summands"] += len(args[0])


def _sigma_key(tr, stat, args, result):
    stat.keys.add(hash((tr.serial(args[0]), _bits(args[1]), _bits(args[2]))))


def _alphas_key(tr, stat, args, result):
    stat.keys.add(hash((tr.serial(args[0]), _bits(args[1]))))


def _expand(tr, stat, args, result):
    stat.extra["useful"] += len(result.coords)
    stat.extra["attempts"] += 2 ** args[0].word.n


def _nonzero(tr, stat, args, result):
    stat.extra["useful"] += not result.is_zero


# (module, attribute path, metric prefix, observer, extra counters)
TARGETS = (
    ("rootsystem", "WeylElement.apply", "rootsystem.WeylElement.apply", None, ()),
    ("rootsystem", "WeylElement.__matmul__", "rootsystem.WeylElement.matmul", None, ()),
    ("rootsystem", "RootSystem.length", "rootsystem.RootSystem.length", None, ()),
    ("rootsystem", "RootSystem.is_reduced", "rootsystem.RootSystem.is_reduced", None, ()),
    ("polyring", "Polynomial.__mul__", "polyring.Polynomial.mul", _mul, ("term_products",)),
    ("polyring", "Polynomial.__add__", "polyring.Polynomial.add", None, ()),
    ("polyring", "divide_exact", "polyring.divide_exact", None, ()),
    ("polyring", "fraction_sum", "polyring.fraction_sum", _summands, ("summands",)),
    ("polyring", "LinearCombFraction.reduce", "polyring.LinearCombFraction.reduce", None, ()),
    ("bott_samelson", "Gallery.leq", "bott_samelson.Gallery.leq", None, ()),
    ("bott_samelson", "BSWord.alphas", "bott_samelson.BSWord.alphas", _alphas_key, ()),
    ("bott_samelson", "BSWord.sigma", "bott_samelson.BSWord.sigma", _sigma_key, ()),
    ("bott_samelson", "CohClass.restriction", "bott_samelson.CohClass.restriction", _nonzero,
     ("useful",)),
    ("bott_samelson", "expand", "bott_samelson.expand", _expand, ("useful", "attempts")),
    ("bott_samelson", "multiply", "bott_samelson.multiply", None, ()),
    ("bott_samelson", "multiply_generator", "bott_samelson.multiply_generator", None, ()),
    ("bott_samelson", "integrate", "bott_samelson.integrate", None, ()),
    ("ordinary", "ordinary_multiply", "ordinary.ordinary_multiply", None, ()),
    ("schubert", "billey", "schubert.billey", None, ()),
    ("cli", "main", "cli.main", None, ()),
)

# Counted without timing: called millions of times, and only the count is
# reported.
COUNT_ONLY = {"bott_samelson.Gallery.leq"}

# Called a few times per operation; each call is kept as a span.
SPAN_NAMES = {
    "bott_samelson.multiply",
    "bott_samelson.multiply_generator",
    "bott_samelson.integrate",
    "bott_samelson.expand",
    "polyring.fraction_sum",
    "polyring.LinearCombFraction.reduce",
    "ordinary.ordinary_multiply",
    "schubert.billey",
    "cli.main",
}


class Stat:
    __slots__ = ("calls", "self_s", "raised", "extra", "keys")

    def __init__(self, extra=()):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.extra = {k: 0 for k in extra}
        self.keys = set()

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "raised": self.raised,
                "distinct": len(self.keys), **self.extra}


class Tracer:
    def __init__(self):
        # A frame is [time spent in wrapped children, id of the enclosing span].
        self.stack = [[0.0, 0]]
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.next_id = 1
        self.absent: list[str] = []
        self._bindings: list[tuple] = []
        self._serials: dict[int, int] = {}
        self._seen: list = []  # keeps serialized objects alive so ids stay unique

    def serial(self, obj) -> int:
        s = self._serials.get(id(obj))
        if s is None:
            s = self._serials[id(obj)] = len(self._seen)
            self._seen.append(obj)
        return s

    # ---- spans ------------------------------------------------------------

    def _new_span(self) -> int:
        sid = self.next_id
        self.next_id += 1
        return sid

    def op(self, name: str):
        """Context manager for the root span of one operation; entering it
        gives the span's id."""
        return _RootSpan(self, name)

    def adopt(self, spans: list, root: int) -> None:
        """Add spans recorded by another process under the root span
        ``root``; both processes read the same monotonic clock."""
        base = self.next_id
        for sid, parent, name, t0, t1 in spans:
            self.spans.append((base + sid, base + parent if parent else root, name, t0, t1))
            self.next_id = max(self.next_id, base + sid + 1)

    # ---- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, observe, extra):
        stat = self.stats[name] = Stat(extra)
        if name in COUNT_ONLY:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
        else:
            stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter, self
            keep_span = name in SPAN_NAMES

            def wrapper(*args, **kwargs):
                parent = stack[-1][1]
                frame = [0.0, tracer._new_span() if keep_span else parent]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    stat.calls += 1
                    stat.self_s += (t1 - t0) - frame[0]
                    stack[-1][0] += t1 - t0
                    if keep_span:
                        spans.append((frame[1], parent, name, t0, t1))
                if observe is not None:
                    observe(tracer, stat, args, result)
                return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> "Tracer":
        for module_name in dict.fromkeys(t[0] for t in TARGETS):
            try:
                importlib.import_module(f"bottsam.{module_name}")
            except ImportError:
                pass  # its names are reported absent below
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "bottsam" or n.startswith("bottsam.")) and m is not None]
        holders = list(modules)
        for m in modules:
            for value in vars(m).values():
                if isinstance(value, type) and getattr(value, "__module__", "").startswith("bottsam"):
                    holders.append(value)
        for module_name, path, name, observe, extra in TARGETS:
            module = sys.modules.get(f"bottsam.{module_name}")
            original = module
            for part in path.split("."):
                original = getattr(original, part, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, observe, extra)
            for holder in dict.fromkeys(holders):
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._bindings.append((holder, attr, original))
        return self

    def restore(self) -> None:
        for holder, attr, original in reversed(self._bindings):
            setattr(holder, attr, original)
        self._bindings.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def export(self) -> dict:
        return {
            "stats": {name: stat.to_dict() for name, stat in self.stats.items()},
            "absent": self.absent,
            "spans": self.spans,
        }


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = [0.0, self.tracer._new_span()]
        self.tracer.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self.frame[1]

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.spans.append((self.frame[1], 0, self.name, self.t0, t1))


def leftover_wrappers() -> list[str]:
    """Names of ``bottsam`` attributes that still hold a wrapper."""
    found = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == "bottsam" or n.startswith("bottsam.")):
            continue
        holders = [m] + [v for v in vars(m).values() if isinstance(v, type)]
        for holder in holders:
            for attr, value in vars(holder).items():
                if hasattr(value, MARK):
                    found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    return found


def merge(into: dict, stats: dict) -> dict:
    """Add the exported stats of another process into ``into``."""
    for name, d in stats.items():
        acc = into.setdefault(name, {k: 0 for k in d})
        for k, v in d.items():
            acc[k] = acc.get(k, 0) + v
    return into
