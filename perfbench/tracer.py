"""Spans around the program's public functions and methods, from outside.

``Tracer.install(package)`` wraps every public function of each module of
the package (``cli`` excepted), every public method of its public classes,
and each such class's ``__init__`` (recorded under the class name, so a
dataclass's ``__post_init__`` checks count as construction).  A function
imported by name into another module, as in ``from .tuples import ofo``, is
bound there too, so every module that holds the original gets the wrapper.

Spans stay in memory, aggregated per name into calls, total time and self
time (total less the time of traced calls made inside it).  Time comes from
the clock passed in, which excludes the reference slices.  A function that
returns a generator is timed until it returns the generator, so its
iteration counts toward the caller.
"""

import functools
import inspect
import sys
from collections import Counter

SKIPPED_MODULES = ("cli", "__main__")


class Tracer:
    def __init__(self, clock, distinct_args=(), by_first_arg=(), within=()):
        """``distinct_args``: span names whose first argument after ``self``
        is collected, to count distinct arguments.  ``by_first_arg``: span
        names also aggregated per value of their first argument, as
        ``name[arg]``.  ``within``: ``(span, ancestor)`` pairs whose calls,
        total and self time are also summed while the ancestor is open."""
        self.clock = clock
        self.spans = {}
        self.distinct = {name: set() for name in distinct_args}
        self.by_first_arg = set(by_first_arg)
        self.within = {pair: [0, 0.0, 0.0] for pair in within}
        self._open = Counter()
        self._child_time = []

    def reset(self):
        for agg in self.spans.values():
            agg[:] = [0, 0.0, 0.0]
        for seen in self.distinct.values():
            seen.clear()
        for agg in self.within.values():
            agg[:] = [0, 0.0, 0.0]

    def stat(self, name):
        """``(calls, total_s, self_s)`` of a span name, zeros if never run."""
        return tuple(self.spans.get(name, (0, 0.0, 0.0)))

    def install(self, package):
        prefix = package.__name__ + "."
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and name[len(prefix):] not in SKIPPED_MODULES
        ]
        wrapped = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{name}", obj)
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])

    def _wrap_class(self, qual, cls):
        for name, attr in list(vars(cls).items()):
            if name == "__init__" and inspect.isfunction(attr):
                setattr(cls, name, self._wrap(qual, attr))
            elif name.startswith("_"):
                continue
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(f"{qual}.{name}", attr))
            elif isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self._wrap(f"{qual}.{name}", attr.__func__)))

    def _wrap(self, name, fn):
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = self.clock
        opened = self._open
        child_time = self._child_time
        seen = self.distinct.get(name)
        per_arg = name in self.by_first_arg
        within = [(anc, acc) for (span, anc), acc in self.within.items() if span == name]
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[1])
            opened[name] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = child_time.pop()
                opened[name] -= 1
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - inner
                if child_time:
                    child_time[-1] += dt
                if per_arg:
                    sub = spans.setdefault(f"{name}[{args[0]}]", [0, 0.0, 0.0])
                    sub[0] += 1
                    sub[1] += dt
                    sub[2] += dt - inner
                for anc, acc in within:
                    if opened[anc]:
                        acc[0] += 1
                        acc[1] += dt
                        acc[2] += dt - inner

        return traced

    def to_json_obj(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items()) if c
            },
            "distinct_args": {name: len(v) for name, v in self.distinct.items()},
            "within": {
                f"{span} in {anc}": {"calls": c, "total_s": t, "self_s": s}
                for (span, anc), (c, t, s) in self.within.items()
            },
        }
