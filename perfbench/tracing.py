"""Per-layer tracing from outside the program.

Each layer is the public function of one ``initsyn`` module.  For a traced
run, :meth:`Tracer.install` replaces the module-level names through which
callers reach those functions (``initsyn.cli.infer``, ``initsyn.laws.gen_term``
and so on) and :meth:`Tracer.uninstall` puts the originals back, so the
program's source is never edited.

A wrapper records one span per outermost call: a function that reaches
itself again through a wrapped name (``terms.weaken`` recursing through
``initsyn.terms.weaken``) counts only its outermost call, and while that
call runs its own module name is pointed back at the original, so the
recursion adds no wrapper frames and hits the recursion limit exactly where
an untraced run does.  A layer's self time is its duration minus the time
of traced callees, wrapper bookkeeping included.

``objtypes.translate_type`` is called once per context entry per node by
``translate.retype_context``; it is only counted, and its time stays in the
caller's self time.
"""

from __future__ import annotations

import importlib
import time

from inputs import count_nodes

perf = time.perf_counter

RESULT = "result"
COUNT = "count"
# spans kept in memory; past this only the per-layer totals are updated
MAX_SPANS = 200_000

# (module, name bound there, layer, where the input term is): an argument
# position, RESULT for a term returned, None for no term, or COUNT for a
# layer that is only counted.
BINDINGS = (
    ("initsyn.cli", "get_language", "languages.get_language", None),
    ("initsyn.cli", "get_translation", "languages.get_translation", None),
    ("initsyn.cli", "validate_translation", "translate.validate_translation", None),
    ("initsyn.cli", "parse_term", "surface.parse_term", RESULT),
    ("initsyn.cli", "print_term", "surface.print_term", 2),
    ("initsyn.cli", "translate_term", "translate.translate_term", 2),
    ("initsyn.cli", "retype_context", "translate.retype_context", None),
    ("initsyn.cli", "infer", "terms.infer", 2),
    ("initsyn.cli", "translate_type", "objtypes.translate_type", COUNT),
    ("initsyn.surface", "infer", "terms.infer", 2),
    ("initsyn.laws", "gen_term", "laws.gen_term", RESULT),
    ("initsyn.laws", "infer", "terms.infer", 2),
    ("initsyn.laws", "translate_term", "translate.translate_term", 2),
    ("initsyn.laws", "substitute", "terms.substitute", 1),
    ("initsyn.laws", "retype_context", "translate.retype_context", None),
    ("initsyn.laws", "translate_type", "objtypes.translate_type", COUNT),
    ("initsyn.translate", "retype_context", "translate.retype_context", None),
    ("initsyn.translate", "instantiate_template", "translate.instantiate_template", None),
    ("initsyn.translate", "translate_type", "objtypes.translate_type", COUNT),
    ("initsyn.translate", "weaken", "terms.weaken", 1),
    ("initsyn.translate", "infer", "terms.infer", 2),
    ("initsyn.terms", "weaken", "terms.weaken", 1),
    ("initsyn.terms", "substitute", "terms.substitute", 1),
    ("initsyn.terms", "rename", "terms.rename", 1),
    ("initsyn.terms", "infer", "terms.infer", 2),
)


class Stat:
    __slots__ = ("calls", "total", "self", "nodes", "bare_vars")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.nodes = 0
        self.bare_vars = 0


class Tracer:
    """Spans and per-layer totals, kept in memory until the run ends.

    Totals are kept per bucket label as well as under ``all``; the labels
    of the operation in progress are set by :meth:`op`.
    """

    def __init__(self):
        self.enabled = False
        self.labels: tuple[str, ...] = ("all",)
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._op = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._active: set[str] = set()
        self._saved: list[tuple] = []

    # -- bookkeeping -------------------------------------------------------

    def _stat(self, layer: str, label: str) -> Stat:
        key = (layer, label)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _record(self, layer, frame, start, end, nodes, bare_var) -> None:
        duration = end - start
        for label in self.labels:
            stat = self._stat(layer, label)
            stat.calls += 1
            stat.total += duration
            stat.self += duration - frame[1]
            stat.nodes += nodes
            stat.bare_vars += bare_var
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((frame[0], parent, self._op, layer, start, end))
        else:
            self.dropped += 1

    def call(self, layer, fn, args, kwargs, term_at=None, home=None):
        """Run ``fn`` as one span of ``layer``."""
        enter = perf()
        nodes = count_nodes(args[term_at]) if type(term_at) is int else 0
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._active.add(layer)
        if home is not None:
            setattr(home[0], home[1], fn)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            if home is not None:
                setattr(home[0], home[1], home[2])
            self._active.discard(layer)
            self._stack.pop()
        bare_var = 0
        if term_at == RESULT:
            term = result[1] if type(result) is tuple else result
            nodes = count_nodes(term)
            bare_var = int(not hasattr(term, "args"))
        self._record(layer, frame, start, end, nodes, bare_var)
        if self._stack:
            self._stack[-1][1] += perf() - enter
        return result

    def op(self, index: int, layer: str, labels: tuple[str, ...], nodes: int, fn, *args):
        """One benchmark operation as a root span, labelled by its buckets."""
        self._op = index
        self.labels = ("all",) + labels
        self.enabled = True
        start = perf()
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args)
        finally:
            end = perf()
            self._stack.pop()
            self.enabled = False
            self._record(layer, frame, start, end, nodes, 0)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, fn, term_at, home_ref):
        tracer = self
        if term_at == COUNT:

            def counted(*args, **kwargs):
                if tracer.enabled:
                    for label in tracer.labels:
                        tracer._stat(layer, label).calls += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            if not tracer.enabled or layer in tracer._active:
                return fn(*args, **kwargs)
            return tracer.call(layer, fn, args, kwargs, term_at, home_ref.get(layer))

        return traced

    def install(self) -> None:
        """Replace every binding in BINDINGS by its wrapper."""
        wrappers: dict[tuple[str, str], object] = {}
        home_ref: dict[str, tuple] = {}
        for module_name, name, layer, term_at in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name)
            wrapper = self._wrap(layer, fn, term_at, home_ref)
            self._saved.append((module, name, fn))
            wrappers[(module_name, name)] = (module, wrapper, fn)
        for module_name, name, layer, term_at in BINDINGS:
            module, wrapper, fn = wrappers[(module_name, name)]
            if (fn.__module__, fn.__name__) == (module_name, name) and term_at != COUNT:
                home_ref[layer] = (module, name, wrapper)
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def get(self, layer: str, label: str = "all") -> Stat:
        return self.stats.get((layer, label)) or Stat()

    def dump(self) -> dict:
        return {
            "stats": [
                {
                    "layer": layer,
                    "label": label,
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self,
                    "nodes": s.nodes,
                    "bare_vars": s.bare_vars,
                }
                for (layer, label), s in sorted(self.stats.items())
            ],
            "span_fields": ["id", "parent", "op", "layer", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
